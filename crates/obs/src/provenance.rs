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

use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::json::{self, Value};

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
        let mut out = StarAttribution {
            per_constraint: vec![0; log.labels.len()],
            k_anonymity: 0,
            degrade: 0,
        };
        for cell in &log.cells {
            match &cell.cause {
                Cause::Sigma { constraint }
                | Cause::Repair { constraint, .. }
                | Cause::Voided { constraint } => {
                    let i = *constraint as usize;
                    if i < out.per_constraint.len() {
                        out.per_constraint[i] += 1;
                    }
                }
                Cause::KAnonymity => out.k_anonymity += 1,
                Cause::DegradeMerge { .. } => out.degrade += 1,
            }
        }
        out
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
        self.snapshot().map(|log| render_log(&log))
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

fn push_u64_list(out: &mut String, items: impl Iterator<Item = u64>) {
    out.push('[');
    for (i, v) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

/// Renders a log as byte-stable JSONL: one `meta` line, one `group` line
/// per group (id order), one `cell` line per cell (insertion order), and a
/// final `attribution` line.
pub fn render_log(log: &Log) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"type\":\"meta\",\"k\":{},\"n_rows\":{},\"constraints\":{},\"labels\":[",
        log.k,
        log.n_rows,
        log.labels.len()
    ));
    for (i, label) in log.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&json::escape(label));
        out.push('"');
    }
    out.push_str("]}\n");
    for g in &log.groups {
        out.push_str(&format!(
            "{{\"type\":\"group\",\"id\":{},\"origin\":\"{}\",\"owners\":",
            g.id,
            g.origin.name()
        ));
        push_u64_list(&mut out, g.owners.iter().map(|&o| u64::from(o)));
        out.push_str(",\"rows\":");
        push_u64_list(&mut out, g.rows.iter().copied());
        out.push_str("}\n");
    }
    for c in &log.cells {
        out.push_str(&format!(
            "{{\"type\":\"cell\",\"row\":{},\"col\":{},\"group\":{},\"cause\":\"{}\"",
            c.row,
            c.col,
            c.group,
            c.cause.kind()
        ));
        match &c.cause {
            Cause::Sigma { constraint } | Cause::Voided { constraint } => {
                out.push_str(&format!(",\"constraint\":{constraint}"));
            }
            Cause::Repair { constraint, round } => {
                out.push_str(&format!(",\"constraint\":{constraint},\"round\":{round}"));
            }
            Cause::DegradeMerge { reason } => {
                out.push_str(&format!(",\"reason\":\"{}\"", json::escape(reason)));
            }
            Cause::KAnonymity => {}
        }
        out.push_str("}\n");
    }
    let attr = StarAttribution::from_log(log);
    out.push_str("{\"type\":\"attribution\",\"per_constraint\":");
    push_u64_list(&mut out, attr.per_constraint.iter().copied());
    out.push_str(&format!(
        ",\"k_anonymity\":{},\"degrade\":{},\"total\":{}}}\n",
        attr.k_anonymity,
        attr.degrade,
        attr.total()
    ));
    out
}

fn field_u64(v: &Value, key: &str, line: usize) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_num)
        .map(|n| n as u64)
        .ok_or_else(|| format!("line {line}: missing numeric field `{key}`"))
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
            item.as_num()
                .map(|n| n as u64)
                .ok_or_else(|| format!("line {line}: non-numeric entry in `{key}`"))
        })
        .collect()
}

/// Parses a rendered provenance file back into a log plus the embedded
/// attribution line (if present).
pub fn parse_log(text: &str) -> Result<(Log, Option<StarAttribution>), String> {
    let mut log = Log::default();
    let mut saw_meta = false;
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
                saw_meta = true;
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
                        .map(|o| o as u32)
                        .collect(),
                    rows: field_u64_list(&v, "rows", line_no)?,
                });
            }
            "cell" => {
                let cause = match field_str(&v, "cause", line_no)? {
                    "sigma" => {
                        Cause::Sigma { constraint: field_u64(&v, "constraint", line_no)? as u32 }
                    }
                    "k_anonymity" => Cause::KAnonymity,
                    "repair" => Cause::Repair {
                        constraint: field_u64(&v, "constraint", line_no)? as u32,
                        round: field_u64(&v, "round", line_no)? as u32,
                    },
                    "voided" => {
                        Cause::Voided { constraint: field_u64(&v, "constraint", line_no)? as u32 }
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
                    col: field_u64(&v, "col", line_no)? as u32,
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
    if !saw_meta {
        return Err("no meta record".to_string());
    }
    Ok((log, attribution))
}

/// Validates record and reference integrity of a log: dense group ids,
/// in-range rows/owners/constraints, cells referencing real groups that
/// actually hold the cited row, and unique (row, col) pairs. Returns the
/// attribution recomputed from the records.
pub fn validate_log(log: &Log) -> Result<StarAttribution, String> {
    let n_constraints = log.labels.len();
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
        }
    }
    // Every (row, group) membership, so a cell's check is one lookup and
    // the whole check is linear in the size of the log.
    let members: HashSet<(u64, u64)> =
        log.groups.iter().flat_map(|g| g.rows.iter().map(|&r| (r, g.id))).collect();
    let mut seen = HashSet::new();
    for (i, c) in log.cells.iter().enumerate() {
        if c.group as usize >= log.groups.len() {
            return Err(format!("cell {i}: dangling group ref {}", c.group));
        }
        if !members.contains(&(c.row, c.group)) {
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
