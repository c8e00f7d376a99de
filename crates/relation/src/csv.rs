//! Minimal, dependency-free CSV reading and writing (RFC-4180 style
//! quoting) for loading datasets and exporting anonymized results.
//!
//! [`read_relation`] is one pass over the text's bytes: each field goes
//! to its column's [`Dict`] as a slice of the text, and only a field
//! that holds a `"` is unescaped, into one reused buffer.
//! [`write_relation`] quotes each dictionary value once per column and
//! then copies one rendered field per cell.
//!
//! [`read_relation`]: crate::csv::read_relation
//! [`write_relation`]: crate::csv::write_relation

use std::borrow::Cow;
use std::path::Path;
use std::sync::Arc;

use crate::dict::Dict;
use crate::relation::Relation;
use crate::schema::{AttrRole, Attribute, Schema};
use crate::value::STAR_CODE;

/// Errors produced by CSV parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// A record has a different field count than the header.
    RaggedRow {
        /// The physical line the record starts on.
        line: usize,
        /// The header's field count.
        expected: usize,
        /// The record's field count.
        found: usize,
    },
    /// A quoted field was never closed.
    UnterminatedQuote {
        /// The physical line the record holding it starts on.
        line: usize,
    },
    /// The input had no header row.
    Empty,
    /// The role list length does not match the header width.
    RoleMismatch {
        /// The header's field count.
        header: usize,
        /// The number of roles given.
        roles: usize,
    },
    /// The header names a column twice.
    DuplicateColumn {
        /// The repeated column name.
        name: String,
    },
    /// Underlying I/O failure (message only, to keep the error `Eq`).
    Io(String),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::RaggedRow { line, expected, found } => {
                write!(f, "line {line}: expected {expected} fields, found {found}")
            }
            CsvError::UnterminatedQuote { line } => {
                write!(f, "line {line}: unterminated quoted field")
            }
            CsvError::Empty => write!(f, "empty CSV input"),
            CsvError::RoleMismatch { header, roles } => {
                write!(f, "header has {header} columns but {roles} roles given")
            }
            CsvError::DuplicateColumn { name } => {
                write!(f, "line 1: the header names column {name:?} twice")
            }
            CsvError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for CsvError {}

/// What ended a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// A `,`: the record has another field.
    Comma,
    /// A `\n` or `\r\n`.
    Newline,
    /// The end of the text.
    Eof,
}

/// The CSV tokenizer: the fields of a text, in order.
struct Fields<'a> {
    text: &'a str,
    /// Byte offset of the next field.
    pos: usize,
    /// The current field, unescaped, when it holds a `"`.
    buf: String,
}

impl<'a> Fields<'a> {
    fn new(text: &'a str) -> Self {
        Self { text, pos: 0, buf: String::new() }
    }

    /// The field at the cursor and what ended it, or `None` when a quote
    /// is still open at the end of the text. A field without `"` is a
    /// slice of the text; one with `"` is unescaped into `buf`. Every
    /// byte the grammar looks at is ASCII, so each cut falls on a
    /// character boundary.
    fn field(&mut self) -> Option<(&str, End)> {
        let text = self.text;
        let bytes = text.as_bytes();
        let start = self.pos;
        let mut i = start;
        let mut quoted = false;
        let mut unescaped = false;
        // The first byte not yet copied into `buf`.
        let mut run = start;
        let (stop, next, end) = loop {
            let Some(&b) = bytes.get(i) else {
                if quoted {
                    return None;
                }
                break (i, i, End::Eof);
            };
            match b {
                b'"' => {
                    if !unescaped {
                        self.buf.clear();
                        unescaped = true;
                    }
                    self.buf.push_str(&text[run..i]);
                    if quoted && bytes.get(i + 1) == Some(&b'"') {
                        self.buf.push('"');
                        i += 1;
                    } else {
                        quoted = !quoted;
                    }
                    i += 1;
                    run = i;
                }
                _ if quoted => i += 1,
                b',' => break (i, i + 1, End::Comma),
                b'\n' => break (i, i + 1, End::Newline),
                b'\r' if bytes.get(i + 1) == Some(&b'\n') => break (i, i + 2, End::Newline),
                _ => i += 1,
            }
        };
        self.pos = next;
        if unescaped {
            self.buf.push_str(&text[run..stop]);
            Some((&self.buf, end))
        } else {
            Some((&text[start..stop], end))
        }
    }

    /// Scans one record, handing each field to `cell` with its column
    /// index, and returns its field count; `None` once the text is
    /// spent. A lone empty field that the end of the text closes is no
    /// record, so a trailing newline adds none.
    fn record(&mut self, mut cell: impl FnMut(usize, &str)) -> Result<Option<usize>, CsvError> {
        let start = self.pos;
        let mut col = 0;
        loop {
            let Some((field, end)) = self.field() else {
                return Err(CsvError::UnterminatedQuote { line: self.line_of(start) });
            };
            if col == 0 && end == End::Eof && field.is_empty() {
                return Ok(None);
            }
            cell(col, field);
            col += 1;
            if end != End::Comma {
                return Ok(Some(col));
            }
        }
    }

    /// The physical line that byte `offset` is on, counting from 1.
    fn line_of(&self, offset: usize) -> usize {
        1 + self.text.as_bytes()[..offset].iter().filter(|&&b| b == b'\n').count()
    }

    /// `err`, unless a quote left open further on comes first: a record's
    /// shape is judged only in a text that tokenizes to the end.
    fn unless_unterminated(mut self, err: CsvError) -> CsvError {
        loop {
            match self.record(|_, _| ()) {
                Ok(Some(_)) => {}
                Ok(None) => return err,
                Err(open) => return open,
            }
        }
    }
}

/// `s` as a CSV field: in quotes, with each `"` doubled, if it holds a
/// comma, a quote or a newline byte; otherwise `s` itself.
fn quote_field(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r')) {
        Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(s)
    }
}

/// Reads a relation from CSV text. The first record is the header
/// (attribute names); `roles[i]` assigns the privacy role of column
/// `i`. Each column's codes are assigned in first-seen order, and the
/// literal `★` is a suppressed cell.
///
/// A field ends at a `,`, a newline (`\n` or `\r\n`; a lone `\r` is
/// data) or the end of the text. A `"` anywhere in a field opens or
/// closes quoting; inside quotes `""` is a literal `"`, and commas and
/// newlines are data. An unterminated quote anywhere in the text is
/// reported before a role mismatch, a repeated column name or a ragged
/// record.
pub fn read_relation(text: &str, roles: &[AttrRole]) -> Result<Relation, CsvError> {
    let mut fields = Fields::new(text);
    let mut names: Vec<String> = Vec::new();
    if fields.record(|_, name| names.push(name.to_owned()))?.is_none() {
        return Err(CsvError::Empty);
    }
    if names.len() != roles.len() {
        let err = CsvError::RoleMismatch { header: names.len(), roles: roles.len() };
        return Err(fields.unless_unterminated(err));
    }
    if let Some(i) = (1..names.len()).find(|&i| names[..i].contains(&names[i])) {
        let err = CsvError::DuplicateColumn { name: names.swap_remove(i) };
        return Err(fields.unless_unterminated(err));
    }
    let arity = names.len();
    let mut columns: Vec<(Dict, Vec<u32>)> = (0..arity).map(|_| Default::default()).collect();
    loop {
        let start = fields.pos;
        let found = fields.record(|col, value| {
            if let Some((dict, codes)) = columns.get_mut(col) {
                codes.push(if value == "★" { STAR_CODE } else { dict.intern(value) });
            }
        })?;
        match found {
            None => break,
            Some(found) if found != arity => {
                let line = fields.line_of(start);
                let err = CsvError::RaggedRow { line, expected: arity, found };
                return Err(fields.unless_unterminated(err));
            }
            Some(_) => {}
        }
    }
    let attrs = names.into_iter().zip(roles).map(|(name, &role)| Attribute::new(name, role));
    let schema = Arc::new(Schema::new(attrs.collect()));
    let (dicts, cols) = columns.into_iter().map(|(dict, codes)| (Arc::new(dict), codes)).unzip();
    Ok(Relation::from_parts(schema, dicts, cols))
}

/// Reads a relation from a CSV file; see [`read_relation`].
pub fn read_relation_file(path: &Path, roles: &[AttrRole]) -> Result<Relation, CsvError> {
    let text = std::fs::read_to_string(path).map_err(|e| CsvError::Io(e.to_string()))?;
    read_relation(&text, roles)
}

/// Serializes a relation to CSV text with a header row. Suppressed
/// cells are written as `★`.
pub fn write_relation(rel: &Relation) -> String {
    let arity = rel.schema().arity();
    let header: Vec<Cow<'_, str>> =
        rel.schema().attributes().iter().map(|a| quote_field(a.name())).collect();
    // Each column's values rendered once, in code order; a code with no
    // value (the star) is written `★`.
    let rendered: Vec<Vec<Cow<'_, str>>> =
        rel.dicts().iter().map(|d| d.iter().map(|(_, v)| quote_field(v)).collect()).collect();
    let field = |col: usize, code: u32| rendered[col].get(code as usize).map_or("★", AsRef::as_ref);
    // Every line holds `arity` fields and `arity` separators (the last
    // one its newline); a line of no fields is its newline.
    let mut len = header.iter().map(|h| h.len()).sum::<usize>();
    for col in 0..arity {
        len += rel.column(col).iter().map(|&code| field(col, code).len()).sum::<usize>();
    }
    let mut out = String::with_capacity(len + (rel.n_rows() + 1) * arity.max(1));
    for (col, name) in header.iter().enumerate() {
        if col > 0 {
            out.push(',');
        }
        out.push_str(name);
    }
    out.push('\n');
    for row in 0..rel.n_rows() {
        for col in 0..arity {
            if col > 0 {
                out.push(',');
            }
            out.push_str(field(col, rel.code(row, col)));
        }
        out.push('\n');
    }
    out
}

/// Writes a relation to a CSV file; see [`write_relation`].
pub fn write_relation_file(rel: &Relation, path: &Path) -> Result<(), CsvError> {
    std::fs::write(path, write_relation(rel)).map_err(|e| CsvError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Roles for a two-column table.
    fn qq() -> [AttrRole; 2] {
        [AttrRole::Quasi; 2]
    }

    /// Every cell of `rel`, row by row, as written (`★` for a star).
    fn cells(rel: &Relation) -> Vec<Vec<String>> {
        (0..rel.n_rows())
            .map(|row| {
                (0..rel.schema().arity()).map(|col| rel.value(row, col).to_string()).collect()
            })
            .collect()
    }

    fn names(rel: &Relation) -> Vec<&str> {
        rel.schema().attributes().iter().map(Attribute::name).collect()
    }

    #[test]
    fn parses_simple() {
        let r = read_relation("a,b\n1,2\n", &qq()).unwrap();
        assert_eq!(names(&r), vec!["a", "b"]);
        assert_eq!(cells(&r), vec![vec!["1", "2"]]);
    }

    #[test]
    fn parses_quotes_commas_newlines() {
        let r = read_relation("a,\"x,y\"\n\"he said \"\"hi\"\"\",\"l1\nl2\"\n", &qq()).unwrap();
        assert_eq!(names(&r), vec!["a", "x,y"]);
        assert_eq!(cells(&r), vec![vec!["he said \"hi\"", "l1\nl2"]]);
    }

    #[test]
    fn parses_crlf() {
        let r = read_relation("a,b\r\n1,2\r\n", &qq()).unwrap();
        assert_eq!(r.n_rows(), 1);
        assert_eq!(cells(&r), vec![vec!["1", "2"]]);
    }

    #[test]
    fn no_trailing_newline_ok() {
        let r = read_relation("a,b\n1,2", &qq()).unwrap();
        assert_eq!(r.n_rows(), 1);
    }

    #[test]
    fn empty_input_errors() {
        assert_eq!(read_relation("", &qq()).unwrap_err(), CsvError::Empty);
    }

    #[test]
    fn unterminated_quote_errors() {
        let err = read_relation("a,\"oops\n", &qq()).unwrap_err();
        assert_eq!(err, CsvError::UnterminatedQuote { line: 1 });
        // The line the record opens on, not the end of the text.
        let err = read_relation("A,B\nx,\"unterminated\n", &qq()).unwrap_err();
        assert_eq!(err, CsvError::UnterminatedQuote { line: 2 });
        // An open quote anywhere wins over an earlier ragged record.
        let err = read_relation("A,B\n1\nx,\"y\n", &qq()).unwrap_err();
        assert_eq!(err, CsvError::UnterminatedQuote { line: 3 });
    }

    #[test]
    fn relation_round_trip() {
        let text = "GEN,ETH,DIAG\nFemale,Asian,Flu\nMale,★,Cold\n";
        let roles = [AttrRole::Quasi, AttrRole::Quasi, AttrRole::Sensitive];
        let rel = read_relation(text, &roles).unwrap();
        assert_eq!(rel.n_rows(), 2);
        assert!(rel.is_suppressed(1, 1));
        let out = write_relation(&rel);
        let rel2 = read_relation(&out, &roles).unwrap();
        assert_eq!(rel2.n_rows(), 2);
        assert_eq!(write_relation(&rel2), out);
    }

    #[test]
    fn ragged_row_errors() {
        let err = read_relation("A,B\n1\n", &qq()).unwrap_err();
        assert_eq!(err, CsvError::RaggedRow { line: 2, expected: 2, found: 1 });
        // A quoted newline moves the next record down a line.
        let err = read_relation("A,B\nx,\"two\nlines\"\ny\n", &qq()).unwrap_err();
        assert_eq!(err, CsvError::RaggedRow { line: 4, expected: 2, found: 1 });
    }

    #[test]
    fn role_mismatch_errors() {
        let text = "A,B\n1,2\n";
        let err = read_relation(text, &[AttrRole::Quasi]).unwrap_err();
        assert_eq!(err, CsvError::RoleMismatch { header: 2, roles: 1 });
    }

    #[test]
    fn duplicate_column_errors() {
        let err = read_relation("A,A\nx,y\n", &[AttrRole::Quasi, AttrRole::Sensitive]).unwrap_err();
        assert_eq!(err, CsvError::DuplicateColumn { name: "A".to_string() });
        assert_eq!(err.to_string(), "line 1: the header names column \"A\" twice");
        let err = read_relation("A,B,\"B\"\n", &[AttrRole::Quasi; 3]).unwrap_err();
        assert_eq!(err, CsvError::DuplicateColumn { name: "B".to_string() });
    }

    #[test]
    fn codes_follow_first_seen_order() {
        let r = read_relation("A,B\ny,★\nx,p\ny,q\n", &qq()).unwrap();
        assert_eq!(r.column(0), &[0, 1, 0]);
        assert_eq!(r.column(1), &[STAR_CODE, 0, 1]);
        assert_eq!(r.dict(0).iter().collect::<Vec<_>>(), vec![(0, "y"), (1, "x")]);
    }

    #[test]
    fn quoting_round_trips_special_chars() {
        let out: Vec<Cow<'_, str>> =
            ["plain", "a,b", "q\"q", "l\r"].into_iter().map(quote_field).collect();
        assert_eq!(out.join("|"), "plain|\"a,b\"|\"q\"\"q\"|\"l\r\"");
        assert!(matches!(out[0], Cow::Borrowed(_)));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("diva_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let roles = [AttrRole::Quasi, AttrRole::Sensitive];
        let rel = read_relation("A,S\nx,s\ny,t\n", &roles).unwrap();
        write_relation_file(&rel, &path).unwrap();
        let back = read_relation_file(&path, &roles).unwrap();
        assert_eq!(back.n_rows(), 2);
        assert_eq!(back.value(1, 0).as_str(), "y");
    }
}
