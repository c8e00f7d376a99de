//! Output checks: what makes an op count as failed.
//!
//! The first op of a run is checked in full: every published table is
//! re-read and must be k-anonymous and satisfy Σ (a degraded table,
//! k-anonymous only), and a re-audit's JSON must parse and agree with
//! the table. Every later op must reproduce the first op's bytes.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::path::{Path, PathBuf};

use diva_constraints::{spec, ConstraintSet};
use diva_obs::json::{self, Value};
use diva_relation::csv::read_relation_file;
use diva_relation::{is_k_anonymous, AttrRole, Relation};

use crate::workload::{Instance, K, ROLES};

/// The attribute roles of [`ROLES`].
fn roles() -> Vec<AttrRole> {
    ROLES.split(',').map(|r| if r == "s" { AttrRole::Sensitive } else { AttrRole::Quasi }).collect()
}

/// Reads a CSV table with the workload roles.
pub fn read_table(path: &Path) -> Result<Relation, String> {
    read_relation_file(path, &roles()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// One hash over the contents of `files`, in order.
pub fn hash_files(files: &[PathBuf]) -> Result<u64, String> {
    let mut h = DefaultHasher::new();
    for f in files {
        let bytes = read(f)?;
        h.write_usize(bytes.len());
        h.write(&bytes);
    }
    Ok(h.finish())
}

/// Whether an `anonymize` report (its stdout) says the run degraded.
pub fn degraded(stdout: &Path) -> Result<bool, String> {
    Ok(String::from_utf8_lossy(&read(stdout)?).lines().any(|l| l.starts_with("degraded:")))
}

/// Checks one published table against its input, k and Σ, and
/// returns its star count. A degraded table need not satisfy Σ.
pub fn check_published(inst: &Instance, degraded: bool) -> Result<usize, String> {
    let input = read_table(&inst.input)?;
    let out = read_table(&inst.output)?;
    let name = inst.output.display();
    if out.n_rows() != input.n_rows() {
        return Err(format!("{name}: {} rows published, {} read", out.n_rows(), input.n_rows()));
    }
    if !is_k_anonymous(&out, K) {
        return Err(format!("{name}: not {K}-anonymous"));
    }
    if !degraded {
        let text = String::from_utf8_lossy(&read(&inst.sigma)?).into_owned();
        let sigma = spec::parse(&text).map_err(|e| format!("{}: {e}", inst.sigma.display()))?;
        let set = ConstraintSet::bind(&sigma, &out).map_err(|e| format!("{name}: {e}"))?;
        let violated = set.violations(&out);
        if !violated.is_empty() {
            return Err(format!("{name}: violates {} constraint(s) of Σ", violated.len()));
        }
    }
    Ok(out.star_count())
}

fn parse_json(path: &Path) -> Result<Value, String> {
    let text = String::from_utf8_lossy(&read(path)?).into_owned();
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Checks a re-audit's outputs: the audit passed its `--k` gate, and
/// explain attributes exactly the `stars` of the published table.
pub fn check_reaudit(audit: &Path, explain: &Path, stars: usize) -> Result<(), String> {
    let report = parse_json(audit)?;
    if report.get("satisfied") != Some(&Value::Bool(true)) {
        return Err(format!("{}: the audit gates are not satisfied", audit.display()));
    }
    let top = parse_json(explain)?;
    let total = top.get("total").and_then(Value::as_num);
    if top.get("query").and_then(Value::as_str) != Some("top_costly") || total != Some(stars as f64)
    {
        return Err(format!(
            "{}: attributes {total:?} stars, the table has {stars}",
            explain.display()
        ));
    }
    Ok(())
}
