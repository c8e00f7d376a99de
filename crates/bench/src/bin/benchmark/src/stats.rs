//! Sample statistics and the metric catalogue.
//!
//! The catalogue is `BENCHMARK.json` itself, compiled in: the result
//! line lists exactly the metrics it names, with its units, so the
//! file and the program cannot drift apart.

use std::collections::BTreeMap;

use diva_obs::json::{self, Value};

/// The nearest-rank `p`-th percentile of `samples`: the smallest
/// sample with at least `p`% of all samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice; every caller measures at least one op.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The median, as the nearest-rank 50th percentile.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest percentile that still has at least ten samples above
/// it, as `(percentile, value)`; `None` below eleven samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as printed in the result line.
    pub name: String,
    /// Unit as printed in the result line.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`: workloads and the two metric lists.
#[derive(Debug)]
pub struct Catalogue {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported with `--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (reported with `--trace 1`).
    pub per_layer: Vec<Metric>,
}

/// The catalogue compiled into this binary.
pub fn catalogue() -> Result<Catalogue, String> {
    parse_catalogue(include_str!("../../../../../../BENCHMARK.json"))
}

fn parse_catalogue(text: &str) -> Result<Catalogue, String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        doc.get(key).and_then(Value::as_arr).ok_or(format!("BENCHMARK.json: no `{key}` list"))
    };
    let field = |v: &Value, key: &str| {
        v.get(key).and_then(Value::as_str).map(str::to_string).ok_or(format!("no `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    higher_is_better: match field(m, "better")?.as_str() {
                        "higher" => true,
                        "lower" => false,
                        other => return Err(format!("`better` must be higher|lower, not {other}")),
                    },
                    bound: m.get("bound").and_then(Value::as_num),
                })
            })
            .collect()
    };
    Ok(Catalogue {
        workloads: list("workloads")?.iter().map(|w| field(w, "name")).collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Renders the result line: every metric of `wanted`, in catalogue
/// order, with its unit. A metric the run did not measure, or one it
/// measured that the catalogue does not list, is an error.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    wanted: &[Metric],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    if let Some(extra) = values.keys().find(|k| !wanted.iter().any(|m| m.name == **k)) {
        return Err(format!("measured `{extra}`, which BENCHMARK.json does not list"));
    }
    let mut fields = Vec::with_capacity(wanted.len());
    for m in wanted {
        let v = values.get(m.name.as_str()).ok_or(format!("`{}` was not measured", m.name))?;
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json::escape(&m.name),
            json::number(*v),
            json::escape(&m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_of_thirty_samples() {
        // Reversed input: the functions sort for themselves.
        let s: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 10.0), 3.0);
        assert_eq!(median(&s), 15.0);
        assert_eq!(percentile(&s, 66.0), 20.0);
        assert_eq!(percentile(&s, 100.0), 30.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // p66 is the highest percentile with ten samples beyond it.
        let (p, v) = tail(&s).expect("30 samples have a tail");
        assert_eq!(v, 20.0);
        assert!((p - 66.666).abs() < 0.01, "{p}");
        assert_eq!(tail(&s[..10]), None);
        assert_eq!(percentile(&[4.0], 10.0), 4.0);
    }

    #[test]
    fn catalogue_bounds_follow_the_benchmark_rules() {
        let c = catalogue().expect("BENCHMARK.json parses");
        assert!((2..=8).contains(&c.workloads.len()));
        assert!(!c.end_to_end.is_empty() && !c.per_layer.is_empty());
        for m in &c.end_to_end {
            let b = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b} outside (0, 0.25]", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()), "per-layer metrics are unbounded");
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s is listed");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let largest = c.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
        let mut names: Vec<&str> =
            c.end_to_end.iter().chain(&c.per_layer).map(|m| m.name.as_str()).collect();
        names.extend(c.workloads.iter().map(String::as_str));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric and workload names are used once");
    }

    #[test]
    fn result_line_lists_exactly_the_catalogue() {
        let wanted = vec![
            Metric { name: "a".into(), unit: "s".into(), higher_is_better: false, bound: None },
            Metric { name: "b".into(), unit: "1/s".into(), higher_is_better: true, bound: None },
        ];
        let mut values = BTreeMap::from([("b", 2.5), ("a", 0.125)]);
        let line = result_line(true, 3, 0, &wanted, &values).expect("complete");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": \
             {\"value\": 0.125, \"unit\": \"s\"}, \"b\": {\"value\": 2.5, \"unit\": \"1/s\"}}}"
        );
        json::parse(&line).expect("the result line is JSON");
        values.insert("c", 1.0);
        assert!(result_line(true, 3, 0, &wanted, &values).is_err(), "unlisted metric");
        values.remove("c");
        values.remove("a");
        assert!(result_line(true, 3, 0, &wanted, &values).is_err(), "missing metric");
    }
}
