//! Decision provenance: traces every published star back to the decision
//! that caused it.
//!
//! The recorder follows the same contract as [`crate::Obs`]: a disabled
//! handle costs one branch per operation and the pipeline output is
//! byte-identical whether the handle is enabled or not. It stays a handle
//! of its own because callers build a run's configuration with it and
//! read the log back after the run. An enabled handle holds one [`Log`],
//! written whole ([`Provenance::install`]): *group* records (one per
//! published cluster, with the rows it holds and the Σ-constraints that
//! own it) and *cell* records (one per starred cell, with the causal
//! [`Cause`]). The log renders to byte-stable JSONL, parses back, and
//! validates referential integrity — the substrate for `diva explain`,
//! which loads a saved file through [`validate_text`].
//!
//! [`Log`]: crate::provenance::Log
//! [`Cause`]: crate::provenance::Cause
//! [`validate_text`]: crate::provenance::validate_text

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::json::{self, Kind, Parser};

/// Why a published cell is starred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cause {
    /// Suppressed so a Σ-owned cluster publishes one indistinct block.
    Sigma {
        /// The owner the deterministic tie-splitting rule charges.
        constraint: u32,
    },
    /// Suppressed purely for k-anonymity (cluster owned by no constraint).
    KAnonymity,
    /// Suppressed by an upper-bound repair round during Integrate.
    Repair {
        /// The upper-bound constraint the round repaired.
        constraint: u32,
        /// The repair round, counted from 1.
        round: u32,
    },
    /// Row voided by the degrade fixpoint.
    Voided {
        /// The constraint that could not be satisfied within budget.
        constraint: u32,
    },
    /// Row merged into the degraded star block for a structural reason
    /// rather than a single constraint.
    DegradeMerge {
        /// `"residual"` (residual rows) or `"block_size"` (the star-block
        /// size fix).
        reason: &'static str,
    },
}

impl Cause {
    /// Stable wire name for the cause variant.
    pub fn kind(&self) -> &'static str {
        match self {
            Cause::Sigma { .. } => "sigma",
            Cause::KAnonymity => "k_anonymity",
            Cause::Repair { .. } => "repair",
            Cause::Voided { .. } => "voided",
            Cause::DegradeMerge { .. } => "degrade_merge",
        }
    }

    /// The constraint id this cause cites, if any.
    pub fn constraint(&self) -> Option<u32> {
        match self {
            Cause::Sigma { constraint }
            | Cause::Repair { constraint, .. }
            | Cause::Voided { constraint } => Some(*constraint),
            _ => None,
        }
    }
}

/// How a published group came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupOrigin {
    /// A Σ-clustering cluster (coloring / decomposed solve).
    Sigma,
    /// A Σ-cluster that absorbed the residual rows (fold_residual).
    Fold,
    /// A k-member cluster over the non-target remainder.
    KMember,
    /// A k-member cluster that absorbed another during ℓ-diversity enforce.
    DiversityMerge,
    /// The fully-starred block emitted by a degraded run.
    StarBlock,
}

impl GroupOrigin {
    /// Stable wire name for the origin variant.
    pub fn name(self) -> &'static str {
        match self {
            GroupOrigin::Sigma => "sigma",
            GroupOrigin::Fold => "fold",
            GroupOrigin::KMember => "k_member",
            GroupOrigin::DiversityMerge => "diversity_merge",
            GroupOrigin::StarBlock => "star_block",
        }
    }
}

/// One published cluster: the source rows it holds and the constraints that
/// own it (every row is a target of each owner).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupRecord {
    /// Dense id; equals the record's index in [`Log::groups`].
    pub id: u64,
    /// How the group was formed.
    pub origin: GroupOrigin,
    /// Owning constraint ids, ascending. Empty for pure-k groups.
    pub owners: Vec<u32>,
    /// Source row ids in the group, in cluster order.
    pub rows: Vec<u64>,
}

/// One starred cell: source row, column, owning group, and cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// Source row id (pre-anonymization).
    pub row: u64,
    /// Column index in the relation.
    pub col: u32,
    /// Id of the [`GroupRecord`] the row was published in.
    pub group: u64,
    /// Why the cell is starred.
    pub cause: Cause,
}

/// Per-constraint utility attribution: stars charged to each Σ-constraint,
/// plus the k-anonymity and degrade buckets. Buckets partition the starred
/// cells, so `total()` equals the run's published star count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StarAttribution {
    /// Stars charged to constraint `i` (Sigma + Repair + Voided causes).
    pub per_constraint: Vec<u64>,
    /// Stars charged to plain k-anonymity.
    pub k_anonymity: u64,
    /// Stars charged to structural degrade merges.
    pub degrade: u64,
}

impl StarAttribution {
    /// Sum of every bucket — equals the published star count.
    pub fn total(&self) -> u64 {
        self.per_constraint.iter().sum::<u64>() + self.k_anonymity + self.degrade
    }

    /// Recomputes the attribution from a log's cell records.
    pub fn from_log(log: &Log) -> Self {
        let mut out = Self::empty(log);
        for cell in &log.cells {
            out.charge(&cell.cause);
        }
        out
    }

    /// Every bucket of `log`'s constraints at zero.
    fn empty(log: &Log) -> Self {
        StarAttribution { per_constraint: vec![0; log.labels.len()], k_anonymity: 0, degrade: 0 }
    }

    /// Charges one starred cell to the bucket of its cause.
    fn charge(&mut self, cause: &Cause) {
        match cause {
            Cause::Sigma { constraint }
            | Cause::Repair { constraint, .. }
            | Cause::Voided { constraint } => {
                if let Some(n) = self.per_constraint.get_mut(*constraint as usize) {
                    *n += 1;
                }
            }
            Cause::KAnonymity => self.k_anonymity += 1,
            Cause::DegradeMerge { .. } => self.degrade += 1,
        }
    }
}

/// The full provenance log for one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Log {
    /// The run's k.
    pub k: u64,
    /// Source relation row count.
    pub n_rows: u64,
    /// Constraint labels, indexed by constraint id.
    pub labels: Vec<String>,
    /// Published groups, id order.
    pub groups: Vec<GroupRecord>,
    /// Starred cells, insertion order.
    pub cells: Vec<CellRecord>,
}

/// Clone-shared provenance recorder handle.
///
/// `disabled()` is a no-op handle: every method is one branch and returns
/// the neutral value. `enabled()` holds a log shared by every clone, and
/// [`Provenance::install`] replaces it whole.
#[derive(Clone, Default)]
pub struct Provenance {
    inner: Option<Arc<Mutex<Log>>>,
}

fn lock(m: &Mutex<Log>) -> MutexGuard<'_, Log> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Provenance {
    /// A recording handle.
    pub fn enabled() -> Self {
        Provenance { inner: Some(Arc::new(Mutex::new(Log::default()))) }
    }

    /// A no-op handle (one branch per operation).
    pub fn disabled() -> Self {
        Provenance { inner: None }
    }

    /// Whether this handle records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Replaces the log with `log` (a no-op when disabled).
    pub fn install(&self, log: Log) {
        if let Some(inner) = &self.inner {
            *lock(inner) = log;
        }
    }

    /// A copy of the current log, or `None` when disabled.
    pub fn snapshot(&self) -> Option<Log> {
        self.inner.as_ref().map(|inner| lock(inner).clone())
    }

    /// The per-constraint attribution, or `None` when disabled.
    pub fn attribution(&self) -> Option<StarAttribution> {
        self.inner.as_ref().map(|inner| StarAttribution::from_log(&lock(inner)))
    }

    /// Byte-stable JSONL render of the log, or `None` when disabled.
    pub fn render(&self) -> Option<String> {
        self.inner.as_ref().map(|inner| render_log(&lock(inner)))
    }
}

impl std::fmt::Debug for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_enabled() {
            write!(f, "Provenance(enabled)")
        } else {
            write!(f, "Provenance(disabled)")
        }
    }
}

fn write_u64_list(out: &mut String, items: impl Iterator<Item = u64>) -> fmt::Result {
    out.push('[');
    for (i, v) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{v}")?;
    }
    out.push(']');
    Ok(())
}

/// Renders a log as byte-stable JSONL: one `meta` line, one `group` line
/// per group (id order), one `cell` line per cell (insertion order), and a
/// final `attribution` line.
pub fn render_log(log: &Log) -> String {
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write_log(&mut out, log);
    out
}

/// [`render_log`]'s lines, written straight into `out`; the attribution
/// line's buckets are counted in the same walk over the cells.
fn write_log(out: &mut String, log: &Log) -> fmt::Result {
    write!(
        out,
        "{{\"type\":\"meta\",\"k\":{},\"n_rows\":{},\"constraints\":{},\"labels\":[",
        log.k,
        log.n_rows,
        log.labels.len()
    )?;
    for (i, label) in log.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json::escape_into(out, label);
        out.push('"');
    }
    out.push_str("]}\n");
    for g in &log.groups {
        write!(
            out,
            "{{\"type\":\"group\",\"id\":{},\"origin\":\"{}\",\"owners\":",
            g.id,
            g.origin.name()
        )?;
        write_u64_list(out, g.owners.iter().map(|&o| u64::from(o)))?;
        out.push_str(",\"rows\":");
        write_u64_list(out, g.rows.iter().copied())?;
        out.push_str("}\n");
    }
    let mut attr = StarAttribution::empty(log);
    for c in &log.cells {
        write!(
            out,
            "{{\"type\":\"cell\",\"row\":{},\"col\":{},\"group\":{},\"cause\":\"{}\"",
            c.row,
            c.col,
            c.group,
            c.cause.kind()
        )?;
        match &c.cause {
            Cause::Sigma { constraint } | Cause::Voided { constraint } => {
                write!(out, ",\"constraint\":{constraint}")?;
            }
            Cause::Repair { constraint, round } => {
                write!(out, ",\"constraint\":{constraint},\"round\":{round}")?;
            }
            Cause::DegradeMerge { reason } => {
                out.push_str(",\"reason\":\"");
                json::escape_into(out, reason);
                out.push('"');
            }
            Cause::KAnonymity => {}
        }
        out.push_str("}\n");
        attr.charge(&c.cause);
    }
    out.push_str("{\"type\":\"attribution\",\"per_constraint\":");
    write_u64_list(out, attr.per_constraint.iter().copied())?;
    writeln!(
        out,
        ",\"k_anonymity\":{},\"degrade\":{},\"total\":{}}}",
        attr.k_anonymity,
        attr.degrade,
        attr.total()
    )
}

/// Numbers in a log are integers below 2^53, where every `f64` integer
/// is exact.
const EXACT_INTEGERS: f64 = (1u64 << 53) as f64;

/// A number read from a log line: an integer in `0..2^53`, or the `f64`
/// it is instead.
type Number = Result<u64, f64>;

/// `text`, a number the JSON grammar accepts, as a [`Number`]. At most 15
/// digits are below 2^53 and convert without an `f64`.
fn number(text: &str) -> Result<Number, String> {
    if text.len() <= 15 && text.bytes().all(|b| b.is_ascii_digit()) {
        return Ok(Ok(text.bytes().fold(0, |n, b| n * 10 + u64::from(b - b'0'))));
    }
    let n = json::float(text)?;
    Ok(if n.fract() == 0.0 && (0.0..EXACT_INTEGERS).contains(&n) { Ok(n as u64) } else { Err(n) })
}

/// `n`, read from field `key`, as an integer in `0..2^53`.
fn integer(n: Number, key: &str, line: usize) -> Result<u64, String> {
    n.map_err(|n| not_an_integer(n, key, line))
}

fn not_an_integer(n: f64, key: &str, line: usize) -> String {
    format!("line {line}: `{key}` is {n}, not an integer in 0..2^53")
}

/// `n`, read from field `key`, as a `u32`.
fn narrow(n: u64, key: &str, line: usize) -> Result<u32, String> {
    u32::try_from(n).map_err(|_| format!("line {line}: `{key}` is {n}, over u32::MAX"))
}

/// A field of a log line, read from its key's first occurrence as
/// [`json::Value::get`] finds it: `None` until the key is seen, `Some(None)`
/// when its value has another type.
type Slot<T> = Option<Option<T>>;

/// An array of numbers: its items, or its first item that is not an
/// integer in `0..2^53` (`None` when that item is no number).
type Numbers = Result<Vec<u64>, Option<f64>>;

/// The fields any record can hold, gathered in one walk over a line.
/// Which of them a record needs is known only once the line is read, so
/// a record checks its fields afterwards and a grammar error anywhere in
/// the line comes before any field error.
#[derive(Default)]
struct Fields<'a> {
    ty: Slot<Cow<'a, str>>,
    origin: Slot<Cow<'a, str>>,
    cause: Slot<Cow<'a, str>>,
    reason: Slot<Cow<'a, str>>,
    /// The labels, or `Err(())` when one is no string.
    labels: Slot<Result<Vec<String>, ()>>,
    k: Slot<Number>,
    n_rows: Slot<Number>,
    constraints: Slot<Number>,
    id: Slot<Number>,
    row: Slot<Number>,
    col: Slot<Number>,
    group: Slot<Number>,
    constraint: Slot<Number>,
    round: Slot<Number>,
    k_anonymity: Slot<Number>,
    degrade: Slot<Number>,
    owners: Slot<Numbers>,
    rows: Slot<Numbers>,
    per_constraint: Slot<Numbers>,
}

impl<'a> Fields<'a> {
    /// Walks one line. A line that is no object has no fields.
    fn read(line: &'a str) -> Result<Self, String> {
        let mut fields = Fields::default();
        let mut p = Parser::new(line);
        if p.kind() == Kind::Object {
            p.members(|p, key| fields.member(p, &key))?;
        } else {
            p.skip()?;
        }
        p.end()?;
        Ok(fields)
    }

    /// Reads the value of member `key` into its slot.
    fn member(&mut self, p: &mut Parser<'a>, key: &str) -> Result<(), String> {
        match key {
            "type" => first(&mut self.ty, p, read_str),
            "origin" => first(&mut self.origin, p, read_str),
            "cause" => first(&mut self.cause, p, read_str),
            "reason" => first(&mut self.reason, p, read_str),
            "labels" => first(&mut self.labels, p, read_labels),
            "k" => first(&mut self.k, p, read_number),
            "n_rows" => first(&mut self.n_rows, p, read_number),
            "constraints" => first(&mut self.constraints, p, read_number),
            "id" => first(&mut self.id, p, read_number),
            "row" => first(&mut self.row, p, read_number),
            "col" => first(&mut self.col, p, read_number),
            "group" => first(&mut self.group, p, read_number),
            "constraint" => first(&mut self.constraint, p, read_number),
            "round" => first(&mut self.round, p, read_number),
            "k_anonymity" => first(&mut self.k_anonymity, p, read_number),
            "degrade" => first(&mut self.degrade, p, read_number),
            "owners" => first(&mut self.owners, p, read_numbers),
            "rows" => first(&mut self.rows, p, read_numbers),
            "per_constraint" => first(&mut self.per_constraint, p, read_numbers),
            _ => p.skip(),
        }
    }
}

/// Reads the value at the cursor into `slot` at its key's first
/// occurrence; a repeated key's value is only grammar-checked.
fn first<'a, T>(
    slot: &mut Slot<T>,
    p: &mut Parser<'a>,
    read: fn(&mut Parser<'a>) -> Result<Option<T>, String>,
) -> Result<(), String> {
    if slot.is_some() {
        return p.skip();
    }
    *slot = Some(read(p)?);
    Ok(())
}

/// The value at the cursor, read by `read` when it is a `kind` value;
/// any other value is skipped and reads as `None`.
fn typed<'a, T>(
    p: &mut Parser<'a>,
    kind: Kind,
    read: impl FnOnce(&mut Parser<'a>) -> Result<T, String>,
) -> Result<Option<T>, String> {
    if p.kind() == kind {
        read(p).map(Some)
    } else {
        p.skip().map(|()| None)
    }
}

fn read_str<'a>(p: &mut Parser<'a>) -> Result<Option<Cow<'a, str>>, String> {
    typed(p, Kind::String, Parser::string)
}

fn read_number(p: &mut Parser<'_>) -> Result<Option<Number>, String> {
    typed(p, Kind::Number, |p| number(p.number()?))
}

/// An array, its items read by `item` up to the first one `item` finds
/// unfit.
fn read_list<'a, T, E>(
    p: &mut Parser<'a>,
    item: impl Fn(&mut Parser<'a>) -> Result<Result<T, E>, String>,
) -> Result<Option<Result<Vec<T>, E>>, String> {
    typed(p, Kind::Array, |p| {
        let mut list = Ok(Vec::new());
        p.items(|p| {
            let read = item(p)?;
            if let Ok(items) = &mut list {
                match read {
                    Ok(v) => items.push(v),
                    Err(unfit) => list = Err(unfit),
                }
            }
            Ok(())
        })?;
        Ok(list)
    })
}

fn read_numbers(p: &mut Parser<'_>) -> Result<Option<Numbers>, String> {
    read_list(p, |p| {
        Ok(match read_number(p)? {
            Some(n) => n.map_err(Some),
            None => Err(None),
        })
    })
}

fn read_labels(p: &mut Parser<'_>) -> Result<Option<Result<Vec<String>, ()>>, String> {
    read_list(p, |p| Ok(read_str(p)?.map(Cow::into_owned).ok_or(())))
}

fn field_u64(slot: Slot<Number>, key: &str, line: usize) -> Result<u64, String> {
    let n = slot.flatten().ok_or_else(|| format!("line {line}: missing numeric field `{key}`"))?;
    integer(n, key, line)
}

fn field_u32(slot: Slot<Number>, key: &str, line: usize) -> Result<u32, String> {
    narrow(field_u64(slot, key, line)?, key, line)
}

fn field_str<'s>(slot: &'s Slot<Cow<'_, str>>, key: &str, line: usize) -> Result<&'s str, String> {
    slot.as_ref()
        .and_then(Option::as_deref)
        .ok_or_else(|| format!("line {line}: missing string field `{key}`"))
}

fn field_u64_list(slot: Slot<Numbers>, key: &str, line: usize) -> Result<Vec<u64>, String> {
    let items =
        slot.flatten().ok_or_else(|| format!("line {line}: missing array field `{key}`"))?;
    items.map_err(|bad| match bad {
        None => format!("line {line}: non-numeric entry in `{key}`"),
        Some(n) => not_an_integer(n, key, line),
    })
}

/// Parses a rendered provenance file back into a log plus the embedded
/// attribution line (if present). Each line is read in one walk that
/// builds no JSON tree.
pub fn parse_log(text: &str) -> Result<(Log, Option<StarAttribution>), String> {
    let mut log = Log::default();
    let mut meta_line = None;
    let mut attribution = None;
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = Fields::read(line).map_err(|e| format!("line {line_no}: {e}"))?;
        let ty = field_str(&v.ty, "type", line_no)?;
        match ty {
            "meta" => {
                if let Some(first) = meta_line {
                    return Err(format!(
                        "line {line_no}: a second meta record (the first is line {first})"
                    ));
                }
                meta_line = Some(line_no);
                log.k = field_u64(v.k, "k", line_no)?;
                log.n_rows = field_u64(v.n_rows, "n_rows", line_no)?;
                log.labels = v
                    .labels
                    .flatten()
                    .ok_or_else(|| format!("line {line_no}: missing array field `labels`"))?
                    .map_err(|()| format!("line {line_no}: non-string label"))?;
                let declared = field_u64(v.constraints, "constraints", line_no)?;
                if declared as usize != log.labels.len() {
                    return Err(format!(
                        "line {line_no}: `constraints` ({declared}) disagrees with labels ({})",
                        log.labels.len()
                    ));
                }
            }
            "group" => {
                let origin = match field_str(&v.origin, "origin", line_no)? {
                    "sigma" => GroupOrigin::Sigma,
                    "fold" => GroupOrigin::Fold,
                    "k_member" => GroupOrigin::KMember,
                    "diversity_merge" => GroupOrigin::DiversityMerge,
                    "star_block" => GroupOrigin::StarBlock,
                    other => return Err(format!("line {line_no}: unknown origin `{other}`")),
                };
                log.groups.push(GroupRecord {
                    id: field_u64(v.id, "id", line_no)?,
                    origin,
                    owners: field_u64_list(v.owners, "owners", line_no)?
                        .into_iter()
                        .map(|o| narrow(o, "owners", line_no))
                        .collect::<Result<_, _>>()?,
                    rows: field_u64_list(v.rows, "rows", line_no)?,
                });
            }
            "cell" => {
                let cause = match field_str(&v.cause, "cause", line_no)? {
                    "sigma" => {
                        Cause::Sigma { constraint: field_u32(v.constraint, "constraint", line_no)? }
                    }
                    "k_anonymity" => Cause::KAnonymity,
                    "repair" => Cause::Repair {
                        constraint: field_u32(v.constraint, "constraint", line_no)?,
                        round: field_u32(v.round, "round", line_no)?,
                    },
                    "voided" => Cause::Voided {
                        constraint: field_u32(v.constraint, "constraint", line_no)?,
                    },
                    "degrade_merge" => Cause::DegradeMerge {
                        reason: match field_str(&v.reason, "reason", line_no)? {
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
                    row: field_u64(v.row, "row", line_no)?,
                    col: field_u32(v.col, "col", line_no)?,
                    group: field_u64(v.group, "group", line_no)?,
                    cause,
                });
            }
            "attribution" => {
                attribution = Some(StarAttribution {
                    per_constraint: field_u64_list(v.per_constraint, "per_constraint", line_no)?,
                    k_anonymity: field_u64(v.k_anonymity, "k_anonymity", line_no)?,
                    degrade: field_u64(v.degrade, "degrade", line_no)?,
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

/// Validates record and reference integrity of a log: dense group ids,
/// in-range rows/owners/constraints, disjoint groups that list each row
/// once, cells referencing real groups that actually hold the cited row,
/// and unique (row, col) pairs. Returns the attribution recomputed from
/// the records.
pub fn validate_log(log: &Log) -> Result<StarAttribution, String> {
    let n_constraints = log.labels.len();
    // The one group each listed row was published in, so a cell's check
    // is one lookup. It holds the rows the groups list, however large
    // the file's `n_rows` field claims the relation is.
    let listed = log.groups.iter().map(|g| g.rows.len()).sum();
    let mut group_of: HashMap<u64, u64> = HashMap::with_capacity(listed);
    for (i, g) in log.groups.iter().enumerate() {
        if g.id != i as u64 {
            return Err(format!("group {i}: id {} is not dense", g.id));
        }
        for &o in &g.owners {
            if o as usize >= n_constraints {
                return Err(format!("group {i}: owner {o} out of range"));
            }
        }
        for &r in &g.rows {
            if r >= log.n_rows {
                return Err(format!("group {i}: row {r} out of range"));
            }
            match group_of.insert(r, g.id) {
                None => {}
                Some(first) if first == g.id => {
                    return Err(format!("group {i}: row {r} listed twice"));
                }
                Some(first) => return Err(format!("group {i}: row {r} already in group {first}")),
            }
        }
    }
    let mut seen = HashSet::new();
    for (i, c) in log.cells.iter().enumerate() {
        if c.group as usize >= log.groups.len() {
            return Err(format!("cell {i}: dangling group ref {}", c.group));
        }
        if group_of.get(&c.row) != Some(&c.group) {
            return Err(format!("cell {i}: row {} not a member of group {}", c.row, c.group));
        }
        if let Some(cid) = c.cause.constraint() {
            if cid as usize >= n_constraints {
                return Err(format!("cell {i}: constraint {cid} out of range"));
            }
        }
        if !seen.insert((c.row, c.col)) {
            return Err(format!("cell {i}: duplicate (row {}, col {})", c.row, c.col));
        }
    }
    Ok(StarAttribution::from_log(log))
}

/// Parses and validates a rendered provenance file, additionally checking
/// that the embedded attribution line (when present) matches the records.
/// Returns the validated log.
pub fn validate_text(text: &str) -> Result<Log, String> {
    let (log, embedded) = parse_log(text)?;
    let recomputed = validate_log(&log)?;
    if let Some(embedded) = embedded {
        if embedded != recomputed {
            return Err(format!(
                "attribution line disagrees with records: embedded {embedded:?}, \
                 recomputed {recomputed:?}"
            ));
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> Log {
        let cell = |row, col, group, cause| CellRecord { row, col, group, cause };
        let group = |id, origin, owners, rows| GroupRecord { id, origin, owners, rows };
        Log {
            k: 2,
            n_rows: 6,
            labels: vec!["ETH[Asian]".to_string(), "JOB[Nurse]".to_string()],
            groups: vec![
                group(0, GroupOrigin::Sigma, vec![0], vec![0, 2]),
                group(1, GroupOrigin::KMember, vec![], vec![1, 3]),
                group(2, GroupOrigin::StarBlock, vec![], vec![4, 5]),
            ],
            cells: vec![
                cell(0, 1, 0, Cause::Sigma { constraint: 0 }),
                cell(2, 1, 0, Cause::Sigma { constraint: 0 }),
                cell(1, 2, 1, Cause::KAnonymity),
                cell(3, 0, 1, Cause::Repair { constraint: 1, round: 1 }),
                cell(4, 0, 2, Cause::Voided { constraint: 1 }),
                cell(5, 0, 2, Cause::DegradeMerge { reason: "residual" }),
            ],
        }
    }

    fn sample() -> Provenance {
        let prov = Provenance::enabled();
        prov.install(sample_log());
        prov
    }

    #[test]
    fn disabled_handle_is_inert() {
        let prov = Provenance::disabled();
        assert!(!prov.is_enabled());
        prov.install(sample_log());
        assert!(prov.snapshot().is_none());
        assert!(prov.attribution().is_none());
        assert!(prov.render().is_none());
        assert_eq!(format!("{prov:?}"), "Provenance(disabled)");
    }

    #[test]
    fn attribution_buckets_partition_the_cells() {
        let attr = sample().attribution().unwrap();
        assert_eq!(attr.per_constraint, vec![2, 2]);
        assert_eq!(attr.k_anonymity, 1);
        assert_eq!(attr.degrade, 1);
        assert_eq!(attr.total(), 6);
    }

    #[test]
    fn render_parse_validate_roundtrip() {
        let prov = sample();
        let text = prov.render().unwrap();
        let (log, embedded) = parse_log(&text).unwrap();
        assert_eq!(log, prov.snapshot().unwrap());
        assert_eq!(embedded.unwrap(), prov.attribution().unwrap());
        assert_eq!(validate_log(&log).unwrap().total(), 6);
        assert_eq!(validate_text(&text).unwrap(), log);
        // Render is byte-stable.
        assert_eq!(render_log(&log), text);
    }

    #[test]
    fn validate_rejects_dangling_group_ref() {
        let mut log = sample().snapshot().unwrap();
        log.cells[0].group = 99;
        assert!(validate_log(&log).unwrap_err().contains("dangling"));
    }

    #[test]
    fn validate_rejects_duplicate_cell() {
        let mut log = sample().snapshot().unwrap();
        let dup = log.cells[0].clone();
        log.cells.push(dup);
        assert!(validate_log(&log).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn validate_rejects_row_outside_group() {
        let mut log = sample().snapshot().unwrap();
        log.cells[0].row = 5;
        assert!(validate_log(&log).unwrap_err().contains("not a member of group"));
    }

    #[test]
    fn validate_rejects_a_row_in_two_groups() {
        let mut log = sample_log();
        log.groups[0].rows.push(1);
        assert_eq!(validate_log(&log).unwrap_err(), "group 1: row 1 already in group 0");
    }

    #[test]
    fn validate_rejects_a_row_listed_twice_in_one_group() {
        let mut log = sample_log();
        log.groups[0].rows.push(0);
        assert_eq!(validate_log(&log).unwrap_err(), "group 0: row 0 listed twice");
    }

    /// The error of parsing the sample's render with its one `from`
    /// replaced by `to`.
    fn parse_error(from: &str, to: &str) -> String {
        let text = sample().render().unwrap();
        assert_eq!(text.matches(from).count(), 1, "`{from}` is not one spot of the render");
        parse_log(&text.replace(from, to)).unwrap_err()
    }

    #[test]
    fn parse_rejects_a_negative_number() {
        let err = parse_error("\"row\":0,", "\"row\":-7,");
        assert_eq!(err, "line 5: `row` is -7, not an integer in 0..2^53");
    }

    #[test]
    fn parse_rejects_a_fraction() {
        let err = parse_error("\"row\":0,\"col\":1,", "\"row\":0,\"col\":0.5,");
        assert_eq!(err, "line 5: `col` is 0.5, not an integer in 0..2^53");
    }

    #[test]
    fn parse_rejects_a_fraction_in_a_list() {
        let err = parse_error("\"rows\":[1,3]", "\"rows\":[1,1.9]");
        assert_eq!(err, "line 3: `rows` is 1.9, not an integer in 0..2^53");
    }

    #[test]
    fn parse_rejects_a_number_from_2_pow_53() {
        let err = parse_error("\"row\":0,", "\"row\":9007199254740992,");
        assert_eq!(err, "line 5: `row` is 9007199254740992, not an integer in 0..2^53");
    }

    #[test]
    fn parse_rejects_u32_fields_over_u32_max() {
        let over = u64::from(u32::MAX) + 1;
        for (from, to, line, key) in [
            ("\"row\":0,\"col\":1,", format!("\"row\":0,\"col\":{over},"), 5, "col"),
            ("\"owners\":[0]", format!("\"owners\":[{over}]"), 2, "owners"),
            ("\"constraint\":1,", format!("\"constraint\":{over},"), 8, "constraint"),
            ("\"round\":1", format!("\"round\":{over}"), 8, "round"),
        ] {
            let err = parse_error(from, &to);
            assert_eq!(err, format!("line {line}: `{key}` is {over}, over u32::MAX"));
        }
        // u32::MAX itself is a column.
        let text = sample().render().unwrap().replace("\"col\":2,", "\"col\":4294967295,");
        assert_eq!(parse_log(&text).unwrap().0.cells[2].col, u32::MAX);
    }

    #[test]
    fn parse_rejects_a_second_meta_record() {
        let records = concat!(
            r#"{"type":"meta","k":2,"n_rows":2,"constraints":1,"labels":["A[x]"]}"#,
            "\n",
            r#"{"type":"group","id":0,"origin":"sigma","owners":[0],"rows":[0,1]}"#,
            "\n",
            r#"{"type":"cell","row":1,"col":0,"group":0,"cause":"sigma","constraint":0}"#,
            "\n",
        );
        assert_eq!(parse_log(records).unwrap().0.labels, ["A[x]"]);
        // A trailing meta would relabel the cell's constraint as B[y].
        let relabelled = format!(
            "{records}{}\n",
            r#"{"type":"meta","k":9,"n_rows":2,"constraints":1,"labels":["B[y]"]}"#
        );
        assert_eq!(
            parse_log(&relabelled).unwrap_err(),
            "line 4: a second meta record (the first is line 1)"
        );
    }

    #[test]
    fn validate_text_rejects_mismatched_attribution_line() {
        let text = sample().render().unwrap();
        let tampered = text.replace("\"k_anonymity\":1", "\"k_anonymity\":7");
        assert!(validate_text(&tampered).unwrap_err().contains("attribution line disagrees"));
    }

    #[test]
    fn install_replaces_the_whole_log() {
        let handle = Provenance::enabled();
        handle.install(Log { k: 1, n_rows: 1, ..Log::default() });
        let winner = sample();
        handle.install(winner.snapshot().unwrap());
        assert_eq!(handle.snapshot(), winner.snapshot());
        // Installing into a disabled handle is a no-op.
        let disabled = Provenance::disabled();
        disabled.install(winner.snapshot().unwrap());
        assert!(disabled.snapshot().is_none());
    }

    #[test]
    fn installing_a_meta_line_clears_prior_records() {
        let prov = sample();
        prov.install(Log { k: 3, n_rows: 4, labels: vec!["X[1]".to_string()], ..Log::default() });
        let log = prov.snapshot().unwrap();
        assert!(log.groups.is_empty());
        assert!(log.cells.is_empty());
        assert_eq!(log.k, 3);
    }

    #[test]
    fn a_64k_row_star_block_validates() {
        // The shape of a zero-deadline run on 64,000 rows: one star block
        // holding every row, five starred QI cells per row.
        let n_rows = 64_000u64;
        let log = Log {
            k: 5,
            n_rows,
            labels: vec!["GEN[Male]".to_string()],
            groups: vec![GroupRecord {
                id: 0,
                origin: GroupOrigin::StarBlock,
                owners: Vec::new(),
                rows: (0..n_rows).collect(),
            }],
            cells: (0..n_rows)
                .flat_map(|row| {
                    (0..5).map(move |col| CellRecord {
                        row,
                        col,
                        group: 0,
                        cause: Cause::DegradeMerge { reason: "residual" },
                    })
                })
                .collect(),
        };
        let attr = validate_log(&log).unwrap();
        assert_eq!((attr.degrade, attr.total()), (5 * n_rows, 5 * n_rows));
    }
}
