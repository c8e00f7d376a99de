//! Differential test of `diva_obs::provenance::parse_log` against an
//! oracle: the tree-based reader it replaced, kept below verbatim.
//!
//! A random log holding a group of every origin and a cell of every
//! cause is rendered, one of its lines takes one layout mutation, and
//! the reader must return the oracle's log or the oracle's exact error.

use diva_obs::json;
use diva_obs::provenance::{
    parse_log, render_log, Cause, CellRecord, GroupOrigin, GroupRecord, Log, StarAttribution,
};
use proptest::prelude::*;
use rand::prelude::*;

/// The reader as it was before the one-walk rewrite: `json::parse`
/// builds each line's tree and the field helpers copy the record out.
mod oracle {
    use diva_obs::json::{self, Value};
    use diva_obs::provenance::{Cause, CellRecord, GroupOrigin, GroupRecord, Log, StarAttribution};

    /// Numbers in a log are integers below 2^53, where every `f64` integer
    /// is exact.
    const EXACT_INTEGERS: f64 = (1u64 << 53) as f64;

    /// `n`, read from field `key`, as an integer in `0..2^53`.
    fn integer(n: f64, key: &str, line: usize) -> Result<u64, String> {
        if n.fract() == 0.0 && (0.0..EXACT_INTEGERS).contains(&n) {
            Ok(n as u64)
        } else {
            Err(format!("line {line}: `{key}` is {n}, not an integer in 0..2^53"))
        }
    }

    /// `n`, read from field `key`, as a `u32`.
    fn narrow(n: u64, key: &str, line: usize) -> Result<u32, String> {
        u32::try_from(n).map_err(|_| format!("line {line}: `{key}` is {n}, over u32::MAX"))
    }

    fn field_u64(v: &Value, key: &str, line: usize) -> Result<u64, String> {
        let n = v
            .get(key)
            .and_then(Value::as_num)
            .ok_or_else(|| format!("line {line}: missing numeric field `{key}`"))?;
        integer(n, key, line)
    }

    fn field_u32(v: &Value, key: &str, line: usize) -> Result<u32, String> {
        narrow(field_u64(v, key, line)?, key, line)
    }

    fn field_str<'a>(v: &'a Value, key: &str, line: usize) -> Result<&'a str, String> {
        v.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {line}: missing string field `{key}`"))
    }

    fn field_u64_list(v: &Value, key: &str, line: usize) -> Result<Vec<u64>, String> {
        let arr = v
            .get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("line {line}: missing array field `{key}`"))?;
        arr.iter()
            .map(|item| {
                let n = item
                    .as_num()
                    .ok_or_else(|| format!("line {line}: non-numeric entry in `{key}`"))?;
                integer(n, key, line)
            })
            .collect()
    }

    /// Parses a rendered provenance file back into a log plus the embedded
    /// attribution line (if present).
    pub fn parse_log(text: &str) -> Result<(Log, Option<StarAttribution>), String> {
        let mut log = Log::default();
        let mut meta_line = None;
        let mut attribution = None;
        for (idx, line) in text.lines().enumerate() {
            let line_no = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            let v = json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
            let ty = field_str(&v, "type", line_no)?;
            match ty {
                "meta" => {
                    if let Some(first) = meta_line {
                        return Err(format!(
                            "line {line_no}: a second meta record (the first is line {first})"
                        ));
                    }
                    meta_line = Some(line_no);
                    log.k = field_u64(&v, "k", line_no)?;
                    log.n_rows = field_u64(&v, "n_rows", line_no)?;
                    let labels = v
                        .get("labels")
                        .and_then(Value::as_arr)
                        .ok_or_else(|| format!("line {line_no}: missing array field `labels`"))?;
                    log.labels = labels
                        .iter()
                        .map(|l| {
                            l.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| format!("line {line_no}: non-string label"))
                        })
                        .collect::<Result<_, _>>()?;
                    let declared = field_u64(&v, "constraints", line_no)?;
                    if declared as usize != log.labels.len() {
                        return Err(format!(
                            "line {line_no}: `constraints` ({declared}) disagrees with labels ({})",
                            log.labels.len()
                        ));
                    }
                }
                "group" => {
                    let origin = match field_str(&v, "origin", line_no)? {
                        "sigma" => GroupOrigin::Sigma,
                        "fold" => GroupOrigin::Fold,
                        "k_member" => GroupOrigin::KMember,
                        "diversity_merge" => GroupOrigin::DiversityMerge,
                        "star_block" => GroupOrigin::StarBlock,
                        other => return Err(format!("line {line_no}: unknown origin `{other}`")),
                    };
                    log.groups.push(GroupRecord {
                        id: field_u64(&v, "id", line_no)?,
                        origin,
                        owners: field_u64_list(&v, "owners", line_no)?
                            .into_iter()
                            .map(|o| narrow(o, "owners", line_no))
                            .collect::<Result<_, _>>()?,
                        rows: field_u64_list(&v, "rows", line_no)?,
                    });
                }
                "cell" => {
                    let cause = match field_str(&v, "cause", line_no)? {
                        "sigma" => {
                            Cause::Sigma { constraint: field_u32(&v, "constraint", line_no)? }
                        }
                        "k_anonymity" => Cause::KAnonymity,
                        "repair" => Cause::Repair {
                            constraint: field_u32(&v, "constraint", line_no)?,
                            round: field_u32(&v, "round", line_no)?,
                        },
                        "voided" => {
                            Cause::Voided { constraint: field_u32(&v, "constraint", line_no)? }
                        }
                        "degrade_merge" => Cause::DegradeMerge {
                            reason: match field_str(&v, "reason", line_no)? {
                                "residual" => "residual",
                                "block_size" => "block_size",
                                other => {
                                    return Err(format!(
                                        "line {line_no}: unknown degrade reason `{other}`"
                                    ))
                                }
                            },
                        },
                        other => return Err(format!("line {line_no}: unknown cause `{other}`")),
                    };
                    log.cells.push(CellRecord {
                        row: field_u64(&v, "row", line_no)?,
                        col: field_u32(&v, "col", line_no)?,
                        group: field_u64(&v, "group", line_no)?,
                        cause,
                    });
                }
                "attribution" => {
                    attribution = Some(StarAttribution {
                        per_constraint: field_u64_list(&v, "per_constraint", line_no)?,
                        k_anonymity: field_u64(&v, "k_anonymity", line_no)?,
                        degrade: field_u64(&v, "degrade", line_no)?,
                    });
                }
                other => return Err(format!("line {line_no}: unknown record type `{other}`")),
            }
        }
        if meta_line.is_none() {
            return Err("no meta record".to_string());
        }
        Ok((log, attribution))
    }
}

/// A value token of a record line, rendered by [`render`].
#[derive(Debug, Clone)]
enum Tok {
    Num(String),
    Str(String),
    List(Vec<Tok>),
    /// Text written as it is.
    Raw(String),
}

/// One record line: its members, key then value.
type Record = Vec<(Tok, Tok)>;

fn member(key: &str, value: Tok) -> (Tok, Tok) {
    (Tok::Str(key.to_string()), value)
}

fn num(n: impl ToString) -> Tok {
    Tok::Num(n.to_string())
}

fn nums<T: ToString + Copy>(items: &[T]) -> Tok {
    Tok::List(items.iter().map(|&n| num(n)).collect())
}

fn string(s: &str) -> Tok {
    Tok::Str(s.to_string())
}

/// The records `render_log` writes for `log`, in its member order.
fn records(log: &Log) -> Vec<Record> {
    let mut out = vec![vec![
        member("type", string("meta")),
        member("k", num(log.k)),
        member("n_rows", num(log.n_rows)),
        member("constraints", num(log.labels.len())),
        member("labels", Tok::List(log.labels.iter().map(|l| string(l)).collect())),
    ]];
    for g in &log.groups {
        out.push(vec![
            member("type", string("group")),
            member("id", num(g.id)),
            member("origin", string(g.origin.name())),
            member("owners", nums(&g.owners)),
            member("rows", nums(&g.rows)),
        ]);
    }
    for c in &log.cells {
        let mut rec = vec![
            member("type", string("cell")),
            member("row", num(c.row)),
            member("col", num(c.col)),
            member("group", num(c.group)),
            member("cause", string(c.cause.kind())),
        ];
        match &c.cause {
            Cause::Sigma { constraint } | Cause::Voided { constraint } => {
                rec.push(member("constraint", num(constraint)));
            }
            Cause::Repair { constraint, round } => {
                rec.push(member("constraint", num(constraint)));
                rec.push(member("round", num(round)));
            }
            Cause::DegradeMerge { reason } => rec.push(member("reason", string(reason))),
            Cause::KAnonymity => {}
        }
        out.push(rec);
    }
    let attr = StarAttribution::from_log(log);
    out.push(vec![
        member("type", string("attribution")),
        member("per_constraint", nums(&attr.per_constraint)),
        member("k_anonymity", num(attr.k_anonymity)),
        member("degrade", num(attr.degrade)),
        member("total", num(attr.total())),
    ]);
    out
}

/// Renders one record, with `gap` called for the whitespace between
/// every two tokens.
fn render(rec: &Record, gap: &mut dyn FnMut() -> String) -> String {
    fn tok(t: &Tok, gap: &mut dyn FnMut() -> String, out: &mut String) {
        match t {
            Tok::Num(s) | Tok::Raw(s) => out.push_str(s),
            Tok::Str(s) => {
                out.push('"');
                out.push_str(&json::escape(s));
                out.push('"');
            }
            Tok::List(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(&gap());
                        out.push(',');
                    }
                    out.push_str(&gap());
                    tok(item, gap, out);
                    out.push_str(&gap());
                }
                out.push(']');
            }
        }
    }
    let mut out = String::new();
    out.push_str(&gap());
    out.push('{');
    for (i, (key, value)) in rec.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&gap());
        tok(key, gap, &mut out);
        out.push_str(&gap());
        out.push(':');
        out.push_str(&gap());
        tok(value, gap, &mut out);
        out.push_str(&gap());
    }
    out.push('}');
    out.push_str(&gap());
    out
}

/// `rec` as the renderer writes it: no whitespace.
fn plain(rec: &Record) -> String {
    render(rec, &mut String::new)
}

/// A number from each range the reader treats apart: up to 15 digits,
/// 16 digits below 2^53, over u32::MAX, and (when `wide`) from 2^53 up.
fn any_number(rng: &mut StdRng, wide: bool) -> u64 {
    match rng.gen_range(0..20) {
        0 => 999_999_999_999_999 + rng.gen_range(0..2u64),
        1 => (1 << 53) - 1,
        2 => u64::from(u32::MAX) + rng.gen_range(0..3u64) - 1,
        3 if wide => (1 << 53) + rng.gen_range(0..2u64),
        4 if wide => rng.gen(),
        _ => rng.gen_range(0..40),
    }
}

fn small(rng: &mut StdRng) -> u32 {
    if rng.gen_bool(0.1) {
        u32::MAX - rng.gen_range(0..2u32)
    } else {
        rng.gen_range(0..6)
    }
}

/// Label text over the characters the escaper treats apart.
fn label(rng: &mut StdRng) -> String {
    const PIECES: [&str; 9] = ["A", "[", "x", "]", "\"", "\\", "é", "☃", "\u{1}"];
    (0..rng.gen_range(0..6)).map(|_| PIECES[rng.gen_range(0..PIECES.len())]).collect()
}

/// A log with a group of every origin and a cell of every cause, in a
/// random order, among random extras. A quarter of the logs hold
/// numbers from 2^53 up.
fn random_log(rng: &mut StdRng) -> Log {
    let wide = rng.gen_bool(0.25);
    use GroupOrigin::*;
    let origins = [Sigma, Fold, KMember, DiversityMerge, StarBlock];
    let mut groups: Vec<GroupOrigin> = origins.to_vec();
    groups.extend((0..rng.gen_range(0..3)).map(|_| origins[rng.gen_range(0..origins.len())]));
    groups.shuffle(rng);
    let groups = groups
        .into_iter()
        .enumerate()
        .map(|(id, origin)| GroupRecord {
            id: if rng.gen_bool(0.9) { id as u64 } else { any_number(rng, wide) },
            origin,
            owners: (0..rng.gen_range(0..3)).map(|_| small(rng)).collect(),
            rows: (0..rng.gen_range(0..5)).map(|_| any_number(rng, wide)).collect(),
        })
        .collect::<Vec<_>>();
    let cause = |rng: &mut StdRng, kind: usize| match kind {
        0 => Cause::Sigma { constraint: small(rng) },
        1 => Cause::KAnonymity,
        2 => Cause::Repair { constraint: small(rng), round: small(rng) },
        3 => Cause::Voided { constraint: small(rng) },
        4 => Cause::DegradeMerge { reason: "residual" },
        _ => Cause::DegradeMerge { reason: "block_size" },
    };
    let mut kinds: Vec<usize> = (0..6).collect();
    kinds.extend((0..rng.gen_range(0..4)).map(|_| rng.gen_range(0..6usize)));
    kinds.shuffle(rng);
    let cells = kinds
        .into_iter()
        .map(|kind| CellRecord {
            row: any_number(rng, wide),
            col: small(rng),
            group: rng.gen_range(0..groups.len() as u64),
            cause: cause(rng, kind),
        })
        .collect();
    Log {
        k: any_number(rng, wide),
        n_rows: any_number(rng, wide),
        labels: (0..rng.gen_range(0..4)).map(|_| label(rng)).collect(),
        groups,
        cells,
    }
}

/// A value of any type, for a key repeated with another value.
fn other_value(rng: &mut StdRng) -> Tok {
    const OTHERS: [&str; 16] = [
        "null",
        "true",
        "[]",
        "{}",
        "[1,\"a\"]",
        "{\"type\":\"meta\"}",
        "\"sigma\"",
        "\"meta\"",
        "\"group\"",
        "\"cell\"",
        "\"attribution\"",
        "\"residual\"",
        "0.5",
        "-3",
        "1e400",
        "7",
    ];
    match rng.gen_range(0..4) {
        0 => num(any_number(rng, true)),
        1 => nums(&[any_number(rng, true), any_number(rng, true)]),
        2 => {
            let mut mixed = vec![num(any_number(rng, true)), Tok::Str(label(rng))];
            mixed.shuffle(rng);
            Tok::List(mixed)
        }
        _ => Tok::Raw(OTHERS[rng.gen_range(0..OTHERS.len())].to_string()),
    }
}

/// `s` in quotes with its `i`-th character written as a `\u` escape.
fn u_escaped(s: &str, i: usize, upper: bool) -> String {
    let mut out = String::from('"');
    for (j, c) in s.chars().enumerate() {
        if j == i {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                out.push_str(&if upper {
                    format!("\\u{unit:04X}")
                } else {
                    format!("\\u{unit:04x}")
                });
            }
        } else {
            out.push_str(&json::escape(c.encode_utf8(&mut [0; 4])));
        }
    }
    out.push('"');
    out
}

/// Every token of `rec` that one mutation may rewrite.
fn tokens(rec: &mut Record) -> Vec<&mut Tok> {
    fn walk<'t>(t: &'t mut Tok, out: &mut Vec<&'t mut Tok>) {
        if let Tok::List(items) = t {
            items.iter_mut().for_each(|item| walk(item, out));
        } else {
            out.push(t);
        }
    }
    let mut out = Vec::new();
    for (key, value) in rec.iter_mut() {
        out.push(key);
        walk(value, &mut out);
    }
    out
}

/// Characters a stray byte is drawn from: the grammar's own, a
/// control, a multibyte letter and plain ones.
const STRAY: [char; 16] =
    ['{', '}', '[', ']', ',', ':', '"', '\\', '-', '.', 'e', '0', 'x', ' ', '\u{1}', 'é'];

/// Renders `log` with one line given mutation `kind`, and names the
/// mutation.
fn mutated(log: &Log, rng: &mut StdRng, kind: u8) -> (String, &'static str) {
    let mut recs = records(log);
    // Each record type is as likely to take the mutation.
    let (groups, cells) = (log.groups.len(), log.cells.len());
    let at = match rng.gen_range(0..4) {
        0 => 0,
        1 => 1 + rng.gen_range(0..groups),
        2 => 1 + groups + rng.gen_range(0..cells),
        _ => recs.len() - 1,
    };
    let rec = &mut recs[at];
    // Where a mutation can act on several spots of the line, it does so
    // at up to three, so that the order of field checks shows.
    let spots = rng.gen_range(1..4);
    let mut line = None;
    let name = match kind {
        0 => "none",
        1 => {
            const WS: [&str; 5] = ["", " ", "\t", "\r", "  \t"];
            let mut gap = || WS[rng.gen_range(0..WS.len())].to_string();
            line = Some(render(rec, &mut gap));
            "whitespace between tokens"
        }
        2 => {
            rec.shuffle(rng);
            "permuted keys"
        }
        3 => {
            for _ in 0..spots {
                let (key, _) = rec[rng.gen_range(0..rec.len())].clone();
                let i = rng.gen_range(0..=rec.len());
                rec.insert(i, (key, other_value(rng)));
            }
            "a repeated key with another value"
        }
        4 => {
            let upper = rng.gen_bool(0.5);
            for _ in 0..spots {
                let mut toks = tokens(rec);
                toks.retain(|t| matches!(t, Tok::Str(s) if !s.is_empty()));
                if toks.is_empty() {
                    break;
                }
                let t = toks.swap_remove(rng.gen_range(0..toks.len()));
                if let Tok::Str(s) = t {
                    let i = rng.gen_range(0..s.chars().count());
                    *t = Tok::Raw(u_escaped(s, i, upper));
                }
            }
            "a \\u-escaped string"
        }
        5 => {
            for _ in 0..spots {
                let mut toks = tokens(rec);
                toks.retain(|t| matches!(t, Tok::Num(_)));
                if toks.is_empty() {
                    break;
                }
                let t = toks.swap_remove(rng.gen_range(0..toks.len()));
                if let Tok::Num(n) = t {
                    let digits = n.trim_end_matches('0');
                    let zeros = n.len() - digits.len();
                    *t = Tok::Raw(match rng.gen_range(0..6) {
                        0 if !digits.is_empty() => format!("{digits}e{zeros}"),
                        1 => format!("{n}.0"),
                        2 => format!("{n}E+0"),
                        3 => format!("-{n}"),
                        4 => format!("{n}.5"),
                        _ => "-0".to_string(),
                    });
                }
            }
            "a number written another way"
        }
        6 => {
            for _ in 0..spots.min(rec.len()) {
                let i = rng.gen_range(0..rec.len());
                rec.remove(i);
            }
            "a dropped field"
        }
        7 => {
            let text = plain(rec);
            let cuts: Vec<usize> = (0..text.len()).filter(|&i| text.is_char_boundary(i)).collect();
            line = Some(text[..cuts[rng.gen_range(0..cuts.len())]].to_string());
            "a truncated line"
        }
        _ => {
            let mut text = plain(rec);
            let spots: Vec<usize> =
                (0..=text.len()).filter(|&i| text.is_char_boundary(i)).collect();
            text.insert(spots[rng.gen_range(0..spots.len())], STRAY[rng.gen_range(0..STRAY.len())]);
            line = Some(text);
            "a stray byte"
        }
    };
    let line = line.unwrap_or_else(|| plain(rec));
    let lines = recs.iter().enumerate();
    let text = lines.map(|(i, rec)| if i == at { line.clone() } else { plain(rec) } + "\n");
    (text.collect(), name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn reader_matches_the_tree_reader(seed in any::<u64>(), kind in 0u8..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let log = random_log(&mut rng);
        let rendered: String = records(&log).iter().map(|rec| plain(rec) + "\n").collect();
        prop_assert_eq!(&rendered, &render_log(&log), "the records mirror the renderer");
        let (text, name) = mutated(&log, &mut rng, kind);
        prop_assert_eq!(parse_log(&text), oracle::parse_log(&text), "{}: {:?}", name, text);
    }
}
