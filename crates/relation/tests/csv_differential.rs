//! Differential tests of `diva_relation::csv` against an oracle: the
//! char-level reader and writer it replaced, kept below verbatim.
//!
//! On generated CSV text the reader must give the oracle's header
//! names, each column's first-seen code order and codes, or the
//! oracle's error. Two answers differ on purpose: a line number names
//! the physical line the offending record starts on (the oracle counted
//! records, or named the end of the text), and a repeated header name
//! is `DuplicateColumn` (the oracle panicked in `Schema::new`). The
//! writer must match the oracle's bytes on generated relations.

use std::sync::Arc;

use diva_relation::csv::{read_relation, write_relation, CsvError};
use diva_relation::{AttrRole, Attribute, Relation, RelationBuilder, Schema};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The reader and writer as they were before the one-pass rewrite.
mod oracle {
    use std::sync::Arc;

    use diva_relation::csv::CsvError;
    use diva_relation::{AttrRole, Attribute, Relation, RelationBuilder, Schema};

    /// Parses CSV text into records. Handles quoted fields, embedded
    /// commas, embedded quotes (`""`), and embedded newlines. Accepts both
    /// `\n` and `\r\n` line endings. A trailing newline does not produce an
    /// empty record.
    pub fn parse_csv(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
        let mut records = Vec::new();
        let mut record: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut chars = text.chars().peekable();
        let mut in_quotes = false;
        let mut line = 1usize;
        let mut saw_any = false;

        while let Some(c) = chars.next() {
            saw_any = true;
            if in_quotes {
                match c {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            field.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    '\n' => {
                        line += 1;
                        field.push(c);
                    }
                    _ => field.push(c),
                }
            } else {
                match c {
                    '"' => in_quotes = true,
                    ',' => {
                        record.push(std::mem::take(&mut field));
                    }
                    '\r' => {
                        // Consume \r\n as one newline; lone \r is literal.
                        if chars.peek() == Some(&'\n') {
                            chars.next();
                            line += 1;
                            record.push(std::mem::take(&mut field));
                            records.push(std::mem::take(&mut record));
                        } else {
                            field.push('\r');
                        }
                    }
                    '\n' => {
                        line += 1;
                        record.push(std::mem::take(&mut field));
                        records.push(std::mem::take(&mut record));
                    }
                    _ => field.push(c),
                }
            }
        }
        if in_quotes {
            return Err(CsvError::UnterminatedQuote { line });
        }
        if !field.is_empty() || !record.is_empty() {
            record.push(field);
            records.push(record);
        }
        if !saw_any {
            return Err(CsvError::Empty);
        }
        Ok(records)
    }

    /// Quotes a field if it contains a comma, quote, or newline.
    fn quote_field(s: &str, out: &mut String) {
        if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
            out.push('"');
            for c in s.chars() {
                if c == '"' {
                    out.push('"');
                }
                out.push(c);
            }
            out.push('"');
        } else {
            out.push_str(s);
        }
    }

    /// Reads a relation from CSV text. The first record is the header
    /// (attribute names); `roles[i]` assigns the privacy role of column
    /// `i`.
    pub fn read_relation(text: &str, roles: &[AttrRole]) -> Result<Relation, CsvError> {
        let records = parse_csv(text)?;
        let mut it = records.into_iter();
        let header = it.next().ok_or(CsvError::Empty)?;
        if header.len() != roles.len() {
            return Err(CsvError::RoleMismatch { header: header.len(), roles: roles.len() });
        }
        let attrs = header
            .iter()
            .zip(roles)
            .map(|(name, &role)| Attribute::new(name.clone(), role))
            .collect();
        let schema = Arc::new(Schema::new(attrs));
        let mut b = RelationBuilder::new(Arc::clone(&schema));
        for (i, rec) in it.enumerate() {
            if rec.len() != schema.arity() {
                return Err(CsvError::RaggedRow {
                    line: i + 2,
                    expected: schema.arity(),
                    found: rec.len(),
                });
            }
            b.push_row(&rec);
        }
        Ok(b.finish())
    }

    /// Serializes a relation to CSV text with a header row. Suppressed
    /// cells are written as `★`.
    pub fn write_relation(rel: &Relation) -> String {
        let mut out = String::new();
        let schema = rel.schema();
        for (i, a) in schema.attributes().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            quote_field(a.name(), &mut out);
        }
        out.push('\n');
        for row in 0..rel.n_rows() {
            for col in 0..schema.arity() {
                if col > 0 {
                    out.push(',');
                }
                quote_field(rel.value(row, col).as_str(), &mut out);
            }
            out.push('\n');
        }
        out
    }
}

/// The pieces generated text and values are made of: every byte the
/// grammar reads, the star, a space, a multibyte letter and plain
/// letters.
fn piece() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just(","),
        Just("\""),
        Just("\r"),
        Just("\n"),
        Just("★"),
        Just(" "),
        Just("é"),
        Just("a"),
        Just("b"),
    ]
}

/// A short string of pieces.
fn value(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(piece(), 0..max).prop_map(|p| p.concat())
}

/// Arbitrary text over the pieces, with or without a trailing newline
/// and with blank lines wherever two newlines meet.
fn soup() -> impl Strategy<Value = String> {
    value(40)
}

/// A table-shaped text: a header and records of one width (1–3), a
/// record sometimes one field short. A field is written quoted with
/// its quotes doubled, bare without the grammar's bytes, or bare as it
/// is. A line ends in `\n` or `\r\n`, a blank line sometimes follows,
/// and the last newline is sometimes cut.
fn table() -> impl Strategy<Value = String> {
    (1usize..4)
        .prop_flat_map(|width| {
            let field = (value(4), 0u8..4);
            let line = (proptest::collection::vec(field, width..width + 1), 0u8..10, any::<bool>());
            (proptest::collection::vec(line, 1..8), any::<bool>())
        })
        .prop_map(|(lines, trailing)| {
            let mut text = String::new();
            for (fields, shape, crlf) in &lines {
                let width = if *shape == 0 { fields.len() - 1 } else { fields.len() };
                let cells: Vec<String> = fields[..width]
                    .iter()
                    .map(|(v, how)| match how {
                        0 => format!("\"{}\"", v.replace('"', "\"\"")),
                        1 | 2 => v.replace([',', '"', '\r', '\n'], ""),
                        _ => v.clone(),
                    })
                    .collect();
                text.push_str(&cells.join(","));
                text.push_str(if *crlf { "\r\n" } else { "\n" });
                if *shape == 1 {
                    text.push('\n');
                }
            }
            if !trailing {
                text.truncate(text.trim_end_matches(['\r', '\n']).len());
            }
            text
        })
}

/// What the reader must return: the oracle's answer, except that a
/// repeated header name is `DuplicateColumn`, in the oracle's order of
/// checks (the whole text tokenizes, then the header, then the rows).
fn expected(text: &str, roles: &[AttrRole]) -> Result<Relation, CsvError> {
    let records = oracle::parse_csv(text)?;
    if let Some(header) = records.first().filter(|h| h.len() == roles.len()) {
        if let Some(i) = (1..header.len()).find(|&i| header[..i].contains(&header[i])) {
            return Err(CsvError::DuplicateColumn { name: header[i].clone() });
        }
    }
    oracle::read_relation(text, roles)
}

/// The byte offset physical line `line` (from 1) starts at.
fn line_start(text: &str, line: usize) -> Option<usize> {
    match line {
        0 => None,
        1 => Some(0),
        _ => text.match_indices('\n').nth(line - 2).map(|(i, _)| i + 1),
    }
}

/// Whether `prefix` (a text cut at a line start) ends between records:
/// the oracle tokenizes it without an open quote.
fn between_records(prefix: &str) -> bool {
    !matches!(oracle::parse_csv(prefix), Err(CsvError::UnterminatedQuote { .. }))
}

/// The reader against the oracle on one text.
fn agree(text: &str, roles: &[AttrRole]) -> Result<(), TestCaseError> {
    match (read_relation(text, roles), expected(text, roles)) {
        (Ok(got), Ok(want)) => {
            let names = |r: &Relation| -> Vec<String> {
                r.schema().attributes().iter().map(|a| a.name().to_string()).collect()
            };
            prop_assert_eq!(names(&got), names(&want), "header of {:?}", text);
            prop_assert_eq!(got.n_rows(), want.n_rows(), "rows of {:?}", text);
            for col in 0..got.schema().arity() {
                let order = |r: &Relation| -> Vec<(u32, String)> {
                    r.dict(col).iter().map(|(c, v)| (c, v.to_string())).collect()
                };
                prop_assert_eq!(order(&got), order(&want), "column {} of {:?}", col, text);
                prop_assert_eq!(got.column(col), want.column(col), "column {} of {:?}", col, text);
            }
        }
        (
            Err(CsvError::RaggedRow { line, expected, found }),
            Err(CsvError::RaggedRow { line: record, expected: e, found: f }),
        ) => {
            prop_assert_eq!((expected, found), (e, f), "ragged record in {:?}", text);
            // The oracle's `line` is the record's index + 2, so the text
            // before the record's first line holds `record - 1` records.
            let start = line_start(text, line);
            let before = start.map(|s| oracle::parse_csv(&text[..s]).map(|r| r.len()));
            prop_assert_eq!(before, Some(Ok(record - 1)), "line {} of {:?}", line, text);
        }
        (Err(CsvError::UnterminatedQuote { line }), Err(CsvError::UnterminatedQuote { .. })) => {
            // The record with the open quote is the last one: its first
            // line starts between records, every later line inside it.
            let start = line_start(text, line);
            prop_assert!(
                start.is_some_and(|s| between_records(&text[..s])),
                "line {} of {:?} does not start a record",
                line,
                text
            );
            let later = (line + 1..).map_while(|l| line_start(text, l));
            for s in later {
                prop_assert!(
                    !between_records(&text[..s]),
                    "line {} of {:?} is not the last record",
                    line,
                    text
                );
            }
        }
        (got, want) => {
            prop_assert_eq!(got.err(), want.err(), "errors of {:?}", text);
        }
    }
    Ok(())
}

/// Roles for `text`: one per oracle header field, or one more when
/// `mismatch` holds.
fn roles_for(text: &str, mismatch: bool) -> Vec<AttrRole> {
    let width = oracle::parse_csv(text).ok().and_then(|r| r.first().map(Vec::len)).unwrap_or(1);
    vec![AttrRole::Quasi; width + usize::from(mismatch)]
}

/// A relation over the pieces: 1–3 columns with distinct names that
/// may need quoting, up to 8 rows of short values (some of them the
/// star literal), and some QI cells suppressed afterwards.
fn relation() -> impl Strategy<Value = Relation> {
    (1usize..4, 0usize..9).prop_flat_map(|(arity, rows)| {
        (
            proptest::collection::vec(value(3), arity..arity + 1),
            proptest::collection::vec(
                proptest::collection::vec(value(3), arity..arity + 1),
                rows..rows + 1,
            ),
            proptest::collection::vec((0usize..8, 0usize..3), 0..4),
        )
            .prop_map(move |(names, cells, stars)| {
                let attrs = names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| {
                        let role =
                            if i + 1 == arity { AttrRole::Sensitive } else { AttrRole::Quasi };
                        Attribute::new(format!("{n}{i}"), role)
                    })
                    .collect();
                let mut b = RelationBuilder::new(Arc::new(Schema::new(attrs)));
                for row in &cells {
                    b.push_row(row);
                }
                let mut rel = b.finish();
                for (row, col) in stars {
                    if row < rel.n_rows() && rel.schema().is_qi(col.min(arity - 1)) {
                        rel.suppress_cell(row, col.min(arity - 1));
                    }
                }
                rel
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Arbitrary text reads as the oracle reads it.
    #[test]
    fn reader_agrees_on_arbitrary_text(text in soup(), mismatch in 0u8..8) {
        agree(&text, &roles_for(&text, mismatch == 0))?;
    }

    /// Table-shaped text reads as the oracle reads it.
    #[test]
    fn reader_agrees_on_tables(text in table(), mismatch in 0u8..8) {
        agree(&text, &roles_for(&text, mismatch == 0))?;
    }

    /// The writer's bytes are the oracle's, and read back to the same
    /// cells.
    #[test]
    fn writer_matches_the_oracle(rel in relation()) {
        let text = write_relation(&rel);
        prop_assert_eq!(&text, &oracle::write_relation(&rel));
        let roles: Vec<AttrRole> = rel.schema().attributes().iter().map(Attribute::role).collect();
        let back = read_relation(&text, &roles);
        prop_assert!(back.is_ok(), "{:?} reads back as {:?}", text, back.err());
        if let Ok(back) = back {
            prop_assert_eq!(back.n_rows(), rel.n_rows());
            for row in 0..rel.n_rows() {
                for col in 0..rel.schema().arity() {
                    prop_assert_eq!(back.value(row, col), rel.value(row, col));
                }
            }
        }
    }
}
