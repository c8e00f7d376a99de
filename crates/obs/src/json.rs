//! Minimal JSON support: string escaping for the exporters and a
//! validating parser for the files they write.
//!
//! The workspace vendors no serde; the exporters hand-render their
//! JSON and this module keeps that honest — `parse` accepts exactly
//! the JSON grammar (RFC 8259) and is used by `trace-diff`, the
//! provenance reader and the exporter tests to prove every emitted
//! byte stream parses.

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// [`escape`], appended to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders an `f64` the way the exporters do: finite values as-is,
/// non-finite values as `null` (JSON has no NaN/Infinity).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`; the traces stay well inside the
    /// 2^53 exact-integer range).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a complete JSON document. Trailing whitespace is allowed,
/// trailing garbage is an error. Error offsets are byte offsets into
/// `text`.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing garbage at offset {}", p.pos));
    }
    Ok(v)
}

/// A cursor over the document's bytes. Every token the grammar names
/// is ASCII, so the cursor only ever stops on a character boundary and
/// string contents are copied out of `text` a run at a time.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The character at the cursor, for error messages.
    fn found(&self) -> Option<char> {
        self.text.get(self.pos..).and_then(|rest| rest.chars().next())
    }

    /// Steps over `want` if it is the next byte.
    fn eat_if(&mut self, want: u8) -> bool {
        let hit = self.peek() == Some(want);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        if self.eat_if(want) {
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}, found {:?}",
                char::from(want),
                self.pos,
                self.found()
            ))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn skip_digits(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        for want in word.bytes() {
            self.eat(want)?;
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.num(),
            _ => Err(format!("unexpected {:?} at offset {}", self.found(), self.pos)),
        }
    }

    /// After an element: `,` continues (`false`), `close` ends the
    /// container (`true`).
    fn closes(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        if self.eat_if(b',') {
            Ok(false)
        } else if self.eat_if(close) {
            Ok(true)
        } else {
            Err(format!("expected ',' or {:?}, found {:?}", char::from(close), self.found()))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat_if(b'}') {
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            if self.closes(b'}')? {
                return Ok(Value::Obj(fields));
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat_if(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            if self.closes(b']')? {
                return Ok(Value::Arr(items));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // The unescaped run up to the next quote or backslash, in
            // one copy.
            let rest = &self.text[self.pos..];
            let run = rest.bytes().position(|b| b == b'"' || b == b'\\');
            let run = run.ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run;
            if self.eat_if(b'"') {
                return Ok(out);
            }
            self.pos += 1;
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let hex = self.text.get(self.pos + 1..self.pos + 5);
                    let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                    let hex = hex.ok_or("bad \\u escape")?;
                    self.pos += 4;
                    // A lone surrogate is no character.
                    u32::from_str_radix(hex, 16).ok().and_then(char::from_u32).unwrap_or('\u{fffd}')
                }
                _ => return Err(format!("bad escape {:?}", self.found())),
            };
            self.pos += 1;
            out.push(c);
        }
    }

    fn num(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat_if(b'-');
        self.skip_digits();
        if self.eat_if(b'.') {
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>().map(Value::Num).map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\r\u{1}π";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        let v = parse(&doc).expect("escaped string parses");
        assert_eq!(v.get("k").and_then(Value::as_str), Some(nasty));
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "e": ""}"#)
            .expect("parses");
        assert_eq!(v.get("a").and_then(Value::as_arr).map(<[Value]>::len), Some(3));
        assert_eq!(v.get("a").and_then(|a| a.as_arr()).and_then(|a| a[2].as_num()), Some(-300.0));
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Value::Bool(true)));
        assert_eq!(v.get("e").and_then(Value::as_str), Some(""));
    }

    #[test]
    fn multi_byte_text_and_unicode_escapes_in_keys_and_values() {
        let doc =
            r#"{"clé": "naïve ☃ 𝄞", "\u00e9t\u00C9": "\u2603 at \u65e5", "日本": ["€", "\ud800"]}"#;
        let v = parse(doc).expect("parses");
        assert_eq!(v.get("clé").and_then(Value::as_str), Some("naïve ☃ 𝄞"));
        assert_eq!(v.get("étÉ").and_then(Value::as_str), Some("☃ at 日"));
        // A lone surrogate is not a character: it decodes to U+FFFD.
        let list = v.get("日本").and_then(Value::as_arr).expect("array");
        assert_eq!(list, [Value::Str("€".into()), Value::Str("\u{fffd}".into())]);
        // Offsets count bytes: `"é"` takes four.
        assert_eq!(parse("\"é\" x"), Err("trailing garbage at offset 5".to_string()));
        for bad in ["\"\\u00é\"", "\"\\u+123\"", "\"\\é\"", "\"é"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "\"open", "1 2", "{\"a\":1} x"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(1.5), "1.5");
    }
}
