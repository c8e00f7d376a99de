//! Minimal JSON support: string escaping for the exporters and a
//! validating parser for the files they write.
//!
//! The workspace vendors no serde; the exporters hand-render their
//! JSON and this module keeps that honest — `parse` accepts exactly
//! the JSON grammar (RFC 8259) and is used by `trace-diff` and the
//! exporter tests to prove every emitted byte stream parses. Numbers
//! are `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?` and a string
//! holds no raw control character; a number or a control character
//! outside that grammar is rejected with its byte offset. Whitespace is
//! space, tab, `\n` and `\r`. Objects and arrays nest at most
//! [`MAX_DEPTH`] deep: the parser recurses once per level, so a deeper
//! document is rejected at the offset of the bracket past the cap
//! instead of overflowing the stack.
//!
//! `parse` builds its [`Value`] tree on a crate-private pull parser,
//! which the provenance reader also walks directly so that a log line
//! builds no tree: it hands over an object's members key by key and an
//! array's items one at a time, reads a string (borrowed from the text
//! when it holds no escape) or a number's validated text, and skips a
//! value after checking its grammar. The grammar lives in that parser
//! alone.

use std::borrow::Cow;

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

/// How deep objects and arrays may nest in a document [`parse`]
/// accepts. The deepest document the workspace writes,
/// `BENCH_diva.json`, nests seven levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document. Trailing whitespace is allowed,
/// trailing garbage is an error. Error offsets are byte offsets into
/// `text`.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.end()?;
    Ok(v)
}

/// What the value at the cursor is, told by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Object,
    Array,
    String,
    Number,
    /// `true`, `false`, `null`, or no value at all.
    Other,
}

/// A pull parser: a cursor over the document's bytes that hands over one
/// value at a time. Every token the grammar names is ASCII, so the cursor
/// only ever stops on a character boundary. Each value reader skips the
/// whitespace before its value.
pub(crate) struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// How many objects and arrays enclose the cursor.
    depth: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Parser { text, pos: 0, depth: 0 }
    }

    /// Checks that only whitespace is left.
    pub(crate) fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing garbage at offset {}", self.pos))
        }
    }

    /// The kind of the next value.
    pub(crate) fn kind(&mut self) -> Kind {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => Kind::Object,
            Some(b'[') => Kind::Array,
            Some(b'"') => Kind::String,
            Some(b'-' | b'0'..=b'9') => Kind::Number,
            _ => Kind::Other,
        }
    }

    /// Walks the object at the cursor, calling `member` with each key
    /// while the cursor stands before that key's value, which `member`
    /// must read or skip.
    pub(crate) fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'{')?;
        self.skip_ws();
        if !self.eat_if(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                member(self, key)?;
                if self.closes(b'}')? {
                    break;
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Walks the array at the cursor, calling `item` while the cursor
    /// stands before each item, which `item` must read or skip.
    pub(crate) fn items(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'[')?;
        self.skip_ws();
        if !self.eat_if(b']') {
            loop {
                item(self)?;
                if self.closes(b']')? {
                    break;
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads a string, unescaped. It is borrowed from the text when it
    /// holds no escape.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        self.eat(b'"')?;
        let text = self.text;
        let mut owned: Option<String> = None;
        loop {
            // The unescaped run up to the next quote, backslash or
            // control character.
            let start = self.pos;
            let run = text[start..].bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20);
            self.pos += run.ok_or("unterminated string")?;
            let run = &text[start..self.pos];
            if self.eat_if(b'"') {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            if !self.eat_if(b'\\') {
                let c = text.as_bytes()[self.pos];
                return Err(format!(
                    "control character U+{c:04X} in a string at offset {}",
                    self.pos
                ));
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(run);
            out.push(self.escape()?);
        }
    }

    /// Reads a number, `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`,
    /// and returns its text, which [`float`] reads.
    pub(crate) fn number(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let start = self.pos;
        self.eat_if(b'-');
        if self.eat_if(b'0') {
            if self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(format!("leading zero in a number at offset {}", self.pos - 1));
            }
        } else {
            self.digits()?;
        }
        if self.eat_if(b'.') {
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        Ok(&self.text[start..self.pos])
    }

    /// Steps over the next value, checking its grammar.
    pub(crate) fn skip(&mut self) -> Result<(), String> {
        match self.kind() {
            Kind::Object => self.members(|p, _| p.skip()),
            Kind::Array => self.items(Self::skip),
            Kind::String => self.string().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::Other => self.literal().map(drop),
        }
    }

    /// Reads the next value as a tree.
    fn value(&mut self) -> Result<Value, String> {
        match self.kind() {
            Kind::Object => {
                let mut fields = Vec::new();
                self.members(|p, key| {
                    fields.push((key.into_owned(), p.value()?));
                    Ok(())
                })?;
                Ok(Value::Obj(fields))
            }
            Kind::Array => {
                let mut items = Vec::new();
                self.items(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Kind::String => Ok(Value::Str(self.string()?.into_owned())),
            Kind::Number => float(self.number()?).map(Value::Num),
            Kind::Other => self.literal(),
        }
    }

    /// Reads `true`, `false` or `null`.
    fn literal(&mut self) -> Result<Value, String> {
        let (word, v) = match self.peek() {
            Some(b't') => ("true", Value::Bool(true)),
            Some(b'f') => ("false", Value::Bool(false)),
            Some(b'n') => ("null", Value::Null),
            _ => return Err(format!("unexpected {:?} at offset {}", self.found(), self.pos)),
        };
        for want in word.bytes() {
            self.eat(want)?;
        }
        Ok(v)
    }

    /// The character an escape names, with the cursor after its
    /// backslash.
    fn escape(&mut self) -> Result<char, String> {
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
        Ok(c)
    }

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

    /// Steps over the bracket `want` that opens an object or array, one
    /// level deeper; the caller steps back out when it closes.
    fn open(&mut self, want: u8) -> Result<(), String> {
        self.skip_ws();
        if self.depth == MAX_DEPTH && self.peek() == Some(want) {
            return Err(format!("nesting deeper than {MAX_DEPTH} at offset {}", self.pos));
        }
        self.eat(want)?;
        self.depth += 1;
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Steps over one or more digits.
    fn digits(&mut self) -> Result<(), String> {
        if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
            return Err(format!(
                "expected a digit at offset {}, found {:?}",
                self.pos,
                self.found()
            ));
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        Ok(())
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
}

/// The value of a number's text, as [`Parser::number`] returns it. Rust
/// reads every such text (one past `f64::MAX` as infinity), so the error
/// names a text that did not come from the parser.
pub(crate) fn float(text: &str) -> Result<f64, String> {
    text.parse().map_err(|e| format!("bad number {text:?}: {e}"))
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
        // Numbers follow `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`,
        // and a string holds no raw control character.
        for (bad, err) in [
            ("01", "leading zero in a number at offset 0"),
            ("00.5", "leading zero in a number at offset 0"),
            ("1.", "expected a digit at offset 2, found None"),
            ("-.5", "expected a digit at offset 1, found Some('.')"),
            ("1.e5", "expected a digit at offset 2, found Some('e')"),
            ("{\"k\": \"a\u{1}b\"}", "control character U+0001 in a string at offset 8"),
        ] {
            assert_eq!(parse(bad), Err(err.to_string()), "{bad:?}");
        }
    }

    #[test]
    fn pull_reads_borrow_plain_strings_and_skips_check_grammar() {
        let mut p = Parser::new(r#"{"a": "plain", "b\u0021": ["x\ty", 1.5e2, {"c": null}]}"#);
        let mut keys = Vec::new();
        p.members(|p, key| {
            match p.kind() {
                Kind::String => assert!(matches!(p.string()?, Cow::Borrowed("plain"))),
                _ => p.skip()?,
            }
            keys.push(key);
            Ok(())
        })
        .expect("walks");
        assert_eq!(p.end(), Ok(()));
        assert!(matches!(&keys[..], [Cow::Borrowed("a"), Cow::Owned(b)] if b == "b!"));
        // A skipped value meets the grammar `parse` does, error for error.
        for bad in [r#"[1, {"c" 2}]"#, r#"{"a": tru}"#, r#"["\q"]"#] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
            assert_eq!(Parser::new(bad).skip(), parse(bad).map(drop), "{bad:?}");
        }
    }

    #[test]
    fn skipping_stops_at_the_nesting_cap_in_objects_too() {
        // `{"a":` is five bytes, so the bracket past the cap is at 5 × cap.
        let objects = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        assert_eq!(Parser::new(&objects(MAX_DEPTH)).skip(), Ok(()));
        let err = format!("nesting deeper than {MAX_DEPTH} at offset {}", 5 * MAX_DEPTH);
        assert_eq!(Parser::new(&objects(MAX_DEPTH + 1)).skip(), Err(err));
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(1.5), "1.5");
    }
}
