//! The `diva explain` query renderers, kept in a library so that the
//! golden provenance tests (`tests/provenance_golden.rs`) render the
//! same bytes the CLI prints. Each renderer answers one query against a
//! validated provenance log, as a table or as one line of JSON.

use diva_obs::provenance::{Cause, Log};

/// Human rendering of one [`Cause`], naming the cited constraint.
fn cause_text(cause: &Cause, labels: &[String]) -> String {
    let label = |c: u32| labels.get(c as usize).map(String::as_str).unwrap_or("?");
    match cause {
        Cause::Sigma { constraint } => {
            format!("sigma constraint {constraint} ({})", label(*constraint))
        }
        Cause::KAnonymity => "k-anonymity (no owning constraint)".to_string(),
        Cause::Repair { constraint, round } => format!(
            "integrate repair round {round} of constraint {constraint} ({})",
            label(*constraint)
        ),
        Cause::Voided { constraint } => {
            format!("constraint {constraint} voided under budget ({})", label(*constraint))
        }
        Cause::DegradeMerge { reason } => format!("degrade merge ({reason})"),
    }
}

/// The cause-specific JSON fields of one cell, in the fixed key order
/// `constraint`, `round`, `reason`, `label` (only those that apply).
fn cause_json_fields(cause: &Cause, labels: &[String]) -> String {
    let label =
        |c: u32| diva_obs::json::escape(labels.get(c as usize).map(String::as_str).unwrap_or("?"));
    match cause {
        Cause::Sigma { constraint } | Cause::Voided { constraint } => {
            format!(",\"constraint\":{constraint},\"label\":\"{}\"", label(*constraint))
        }
        Cause::Repair { constraint, round } => format!(
            ",\"constraint\":{constraint},\"round\":{round},\"label\":\"{}\"",
            label(*constraint)
        ),
        Cause::DegradeMerge { reason } => {
            format!(",\"reason\":\"{}\"", diva_obs::json::escape(reason))
        }
        Cause::KAnonymity => String::new(),
    }
}

/// `--row N`: every starred cell of source row `N` with its causal chain.
pub fn explain_row(log: &Log, row: u64, json: bool) -> Result<String, String> {
    if row >= log.n_rows {
        return Err(format!("row {row} out of range (log covers {} rows)", log.n_rows));
    }
    let cells: Vec<_> = log.cells.iter().filter(|c| c.row == row).collect();
    if json {
        let mut out = format!("{{\"query\":\"row\",\"row\":{row},\"cells\":[");
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let origin = log.groups.get(c.group as usize).map(|g| g.origin.name()).unwrap_or("?");
            out.push_str(&format!(
                "{{\"col\":{},\"group\":{},\"origin\":\"{origin}\",\"cause\":\"{}\"{}}}",
                c.col,
                c.group,
                c.cause.kind(),
                cause_json_fields(&c.cause, &log.labels)
            ));
        }
        out.push_str("]}\n");
        return Ok(out);
    }
    let mut out = format!(
        "row {row}: {} starred cell{}\n",
        cells.len(),
        if cells.len() == 1 { "" } else { "s" }
    );
    for c in &cells {
        let group = log.groups.get(c.group as usize);
        let origin = group.map(|g| g.origin.name()).unwrap_or("?");
        let size = group.map(|g| g.rows.len()).unwrap_or(0);
        out.push_str(&format!(
            "  col {:<3} group {:<4} ({origin}, {size} rows)  {}\n",
            c.col,
            c.group,
            cause_text(&c.cause, &log.labels)
        ));
    }
    Ok(out)
}

/// `--constraint ID`: the utility one constraint cost — stars charged,
/// causes, owned groups, distinct rows touched.
pub fn explain_constraint(log: &Log, ci: usize, json: bool) -> String {
    let cid = ci as u32;
    let (mut sigma, mut repair, mut voided) = (0u64, 0u64, 0u64);
    let mut rows: Vec<u64> = Vec::new();
    for c in &log.cells {
        match &c.cause {
            Cause::Sigma { constraint } if *constraint == cid => sigma += 1,
            Cause::Repair { constraint, .. } if *constraint == cid => repair += 1,
            Cause::Voided { constraint } if *constraint == cid => voided += 1,
            _ => continue,
        }
        rows.push(c.row);
    }
    rows.sort_unstable();
    rows.dedup();
    let owned: Vec<u64> =
        log.groups.iter().filter(|g| g.owners.contains(&cid)).map(|g| g.id).collect();
    let stars = sigma + repair + voided;
    let label = log.labels.get(ci).map(String::as_str).unwrap_or("?");
    if json {
        let ids = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        return format!(
            "{{\"query\":\"constraint\",\"constraint\":{ci},\"label\":\"{}\",\"stars\":{stars},\
             \"by_cause\":{{\"sigma\":{sigma},\"repair\":{repair},\"voided\":{voided}}},\
             \"owned_groups\":[{}],\"rows_touched\":{}}}\n",
            diva_obs::json::escape(label),
            ids(&owned),
            rows.len()
        );
    }
    let mut out = format!("constraint {ci} ({label}): {stars} stars attributed\n");
    out.push_str(&format!("  by cause: sigma {sigma}, repair {repair}, voided {voided}\n"));
    out.push_str(&format!(
        "  owned groups: {} ({})\n",
        owned.len(),
        owned.iter().map(u64::to_string).collect::<Vec<_>>().join(", ")
    ));
    out.push_str(&format!("  rows touched: {}\n", rows.len()));
    out
}

/// `--top-costly`: every constraint ranked by attributed stars
/// (descending, ties by id), plus the k-anonymity/degrade buckets.
pub fn explain_top_costly(log: &Log, json: bool) -> String {
    let attr = diva_obs::StarAttribution::from_log(log);
    let mut ranked: Vec<(usize, u64)> = attr.per_constraint.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let total = attr.total();
    if json {
        let mut out = format!("{{\"query\":\"top_costly\",\"total\":{total},\"constraints\":[");
        for (i, (ci, stars)) in ranked.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let label = log.labels.get(*ci).map(String::as_str).unwrap_or("?");
            out.push_str(&format!(
                "{{\"constraint\":{ci},\"label\":\"{}\",\"stars\":{stars}}}",
                diva_obs::json::escape(label)
            ));
        }
        out.push_str(&format!(
            "],\"k_anonymity\":{},\"degrade\":{}}}\n",
            attr.k_anonymity, attr.degrade
        ));
        return out;
    }
    let mut out =
        format!("star attribution: {total} stars over {} constraints\n", log.labels.len());
    out.push_str(&format!(
        "{:<6} {:<12} {:>7}  {:>6}  label\n",
        "rank", "constraint", "stars", "share"
    ));
    for (rank, (ci, stars)) in ranked.iter().enumerate() {
        let share = if total > 0 { *stars as f64 * 100.0 / total as f64 } else { 0.0 };
        let label = log.labels.get(*ci).map(String::as_str).unwrap_or("?");
        out.push_str(&format!("{:<6} {ci:<12} {stars:>7}  {share:>5.1}%  {label}\n", rank + 1));
    }
    out.push_str(&format!("k-anonymity: {} stars\n", attr.k_anonymity));
    out.push_str(&format!("degrade:     {} stars\n", attr.degrade));
    out
}
