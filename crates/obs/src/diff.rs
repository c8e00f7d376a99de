//! Trace-regression comparison: the logic behind the `trace-diff`
//! binary (kept in the library so it is unit-testable and reusable
//! from the workspace's profiling tests).
//!
//! [`diff_summaries`] compares the deterministic fields of two parsed
//! summary exports ([`Snapshot::summary_json`](crate::Snapshot::summary_json)
//! documents) — the committed baseline against a fresh capture:
//!
//! * every span's `count` and `alloc_bytes`;
//! * every counter and gauge;
//! * every histogram's `count`, `sum` and bucket counts.
//!
//! The comparison is exact and two-sided: a value that moves by any
//! amount in either direction is a mismatch, and so is a field present
//! in only one summary (lost instrumentation and new instrumentation
//! both mean the baseline no longer describes the run). Span timings
//! (`total_us`, `self_us`, `min_us`, `max_us`) are not compared:
//! wall-clock regressions are judged by the repository benchmark,
//! which samples them instead of reading one capture.
//!
//! [`diff_summaries`]: crate::diff::diff_summaries

use std::collections::{BTreeMap, BTreeSet};

use crate::json::Value;

/// One deterministic field on which the two summaries disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// Dotted field path, e.g. `spans.diva.run.alloc_bytes` or
    /// `histograms.cluster.size.buckets[le=7]`.
    pub field: String,
    /// Baseline value; `None` when only the current capture has it.
    pub baseline: Option<f64>,
    /// Current value; `None` when only the baseline has it.
    pub current: Option<f64>,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let side = |v: Option<f64>| v.map_or_else(|| "absent".to_string(), |v| v.to_string());
        write!(f, "{}: {} -> {}", self.field, side(self.baseline), side(self.current))
    }
}

/// Outcome of one comparison. The gate passes iff `mismatches` is
/// empty.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Distinct fields compared: the union of both summaries'.
    pub compared: usize,
    /// Fields that differ, sorted by path.
    pub mismatches: Vec<Mismatch>,
}

impl DiffReport {
    /// Whether the gate passes (no mismatches).
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Compares the deterministic fields of two parsed summary documents
/// (baseline vs current). Errors only on structurally invalid
/// documents (a missing or ill-typed section or field); mismatches are
/// reported, not errors.
pub fn diff_summaries(baseline: &Value, current: &Value) -> Result<DiffReport, String> {
    let base = deterministic_fields(baseline, "baseline")?;
    let cur = deterministic_fields(current, "current")?;
    let fields: BTreeSet<&String> = base.keys().chain(cur.keys()).collect();
    let mismatches = fields
        .iter()
        .filter_map(|&field| {
            let (baseline, current) = (base.get(field).copied(), cur.get(field).copied());
            (baseline != current).then(|| Mismatch { field: field.clone(), baseline, current })
        })
        .collect();
    Ok(DiffReport { compared: fields.len(), mismatches })
}

/// Flattens the deterministic values of a summary into `path -> value`.
fn deterministic_fields(doc: &Value, which: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut fields = BTreeMap::new();
    let mut put = |path: String, v: Option<&Value>| {
        let n =
            v.and_then(Value::as_num).ok_or(format!("{which} summary: {path} is not a number"))?;
        fields.insert(path, n);
        Ok::<(), String>(())
    };
    for (name, span) in section(doc, "spans", which)? {
        put(format!("spans.{name}.count"), span.get("count"))?;
        if let Some(bytes) = span.get("alloc_bytes") {
            put(format!("spans.{name}.alloc_bytes"), Some(bytes))?;
        }
    }
    for key in ["counters", "gauges"] {
        for (name, v) in section(doc, key, which)? {
            put(format!("{key}.{name}"), Some(v))?;
        }
    }
    for (name, h) in section(doc, "histograms", which)? {
        put(format!("histograms.{name}.count"), h.get("count"))?;
        put(format!("histograms.{name}.sum"), h.get("sum"))?;
        let buckets = h
            .get("buckets")
            .and_then(Value::as_arr)
            .ok_or(format!("{which} summary: histograms.{name}.buckets is not an array"))?;
        for b in buckets {
            let le = b.get("le").and_then(Value::as_num).ok_or(format!(
                "{which} summary: a bucket of histograms.{name} has no numeric \"le\""
            ))?;
            put(format!("histograms.{name}.buckets[le={le}]"), b.get("count"))?;
        }
    }
    Ok(fields)
}

/// Fetches a named object section from a summary document.
fn section<'v>(doc: &'v Value, key: &str, which: &str) -> Result<&'v [(String, Value)], String> {
    match doc.get(key) {
        Some(Value::Obj(fields)) => Ok(fields),
        Some(_) => Err(format!("{which} summary: \"{key}\" is not an object")),
        None => Err(format!("{which} summary: missing \"{key}\" section")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const BASE: &str = r#"{
  "spans": {
    "diva.anonymize": {"count": 1, "total_us": 50000, "self_us": 40000, "min_us": 50000, "max_us": 50000, "alloc_bytes": 8000000},
    "diva.tiny": {"count": 3, "total_us": 5, "self_us": 5, "min_us": 1, "max_us": 3}
  },
  "counters": {
    "search.backtracks": 1000,
    "search.rare": 3
  },
  "gauges": {
    "graph.edges": 10
  },
  "histograms": {
    "cluster.size": {"count": 310, "sum": 1554, "buckets": [{"le": 7, "count": 309}, {"le": 15, "count": 1}]}
  }
}"#;

    fn diff(current: &str) -> DiffReport {
        let base = parse(BASE).expect("baseline parses");
        let current = parse(current).expect("current parses");
        diff_summaries(&base, &current).expect("diff runs")
    }

    fn mismatched(report: &DiffReport) -> Vec<&str> {
        report.mismatches.iter().map(|m| m.field.as_str()).collect()
    }

    #[test]
    fn self_diff_passes() {
        let report = diff(BASE);
        assert!(report.is_ok(), "identical summaries differ: {:?}", report.mismatches);
        // Two span counts, one alloc_bytes, two counters, one gauge,
        // and the histogram's count, sum and two buckets.
        assert_eq!(report.compared, 10);
    }

    #[test]
    fn a_timing_only_change_passes() {
        let slower = BASE
            .replace(
                r#""total_us": 50000, "self_us": 40000, "min_us": 50000, "max_us": 50000"#,
                r#""total_us": 100000, "self_us": 80000, "min_us": 100000, "max_us": 100000"#,
            )
            .replace(r#""total_us": 5, "self_us": 5"#, r#""total_us": 1, "self_us": 1"#);
        assert_ne!(slower, BASE);
        assert!(diff(&slower).is_ok());
    }

    #[test]
    fn every_deterministic_field_fails_on_a_move_of_one() {
        let cases = [
            (r#""diva.anonymize": {"count": "#, 1, "spans.diva.anonymize.count"),
            (r#""diva.tiny": {"count": "#, 3, "spans.diva.tiny.count"),
            (r#""alloc_bytes": "#, 8_000_000, "spans.diva.anonymize.alloc_bytes"),
            (r#""search.backtracks": "#, 1000, "counters.search.backtracks"),
            (r#""search.rare": "#, 3, "counters.search.rare"),
            (r#""graph.edges": "#, 10, "gauges.graph.edges"),
            (r#""cluster.size": {"count": "#, 310, "histograms.cluster.size.count"),
            (r#""sum": "#, 1554, "histograms.cluster.size.sum"),
            (r#"{"le": 7, "count": "#, 309, "histograms.cluster.size.buckets[le=7]"),
            (r#"{"le": 15, "count": "#, 1, "histograms.cluster.size.buckets[le=15]"),
        ];
        for (prefix, value, field) in cases {
            for moved in [value - 1, value + 1] {
                let current =
                    BASE.replacen(&format!("{prefix}{value}"), &format!("{prefix}{moved}"), 1);
                assert_ne!(current, BASE, "{field}: the case edits nothing");
                let report = diff(&current);
                assert_eq!(mismatched(&report), [field], "{value} -> {moved}");
                let m = &report.mismatches[0];
                assert_eq!((m.baseline, m.current), (Some(value as f64), Some(moved as f64)));
                assert_eq!(m.to_string(), format!("{field}: {value} -> {moved}"));
            }
        }
    }

    #[test]
    fn a_name_on_one_side_only_fails() {
        let extra = BASE.replace(r#""search.rare": 3"#, r#""search.rare": 3, "search.new": 0"#);
        let report = diff(&extra);
        assert_eq!(mismatched(&report), ["counters.search.new"]);
        assert_eq!(report.mismatches[0].baseline, None);
        assert_eq!(report.mismatches[0].to_string(), "counters.search.new: absent -> 0");

        let lost = BASE
            .replace(
                r#",
    "diva.tiny": {"count": 3, "total_us": 5, "self_us": 5, "min_us": 1, "max_us": 3}"#,
                "",
            )
            .replace(r#""graph.edges": 10"#, "");
        let report = diff(&lost);
        assert_eq!(mismatched(&report), ["gauges.graph.edges", "spans.diva.tiny.count"]);
        assert!(report.mismatches.iter().all(|m| m.current.is_none()));

        let unprofiled = BASE.replace(r#", "alloc_bytes": 8000000"#, "");
        assert_eq!(mismatched(&diff(&unprofiled)), ["spans.diva.anonymize.alloc_bytes"]);
    }

    #[test]
    fn malformed_documents_error() {
        let base = parse(BASE).expect("baseline parses");
        for bad in [
            r#"{"spans": 3}"#,
            r#"{"counters": {}}"#,
            r#"{"spans": {}, "counters": {}, "gauges": {}}"#,
            r#"{"spans": {"a": {"total_us": 1}}, "counters": {}, "gauges": {}, "histograms": {}}"#,
            r#"{"spans": {}, "counters": {"c": "x"}, "gauges": {}, "histograms": {}}"#,
            r#"{"spans": {}, "counters": {}, "gauges": {}, "histograms": {"h": {"count": 1, "sum": 1}}}"#,
        ] {
            let bad = parse(bad).expect("parses");
            assert!(diff_summaries(&bad, &base).is_err(), "{bad:?}");
            assert!(diff_summaries(&base, &bad).is_err(), "{bad:?}");
        }
    }
}
