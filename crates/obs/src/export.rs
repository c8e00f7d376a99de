//! Snapshot/export: freezing a handle's state and rendering the
//! JSON-lines trace and aggregated summary.
//!
//! ## Trace schema (one JSON object per line)
//!
//! ```json
//! {"type":"span","id":3,"parent":1,"name":"diva.clustering",
//!  "thread":0,"start_us":12,"dur_us":3400,"attrs":{"rows":4000}}
//! ```
//!
//! `parent` is `null` for root spans. `attrs` values are numbers,
//! booleans, or strings. When the counting allocator is live
//! ([`crate::alloc::profiling_active`]) every span line additionally
//! carries `"alloc_bytes":N,"alloc_count":N,"peak_live_delta":N`
//! (between `dur_us` and `attrs`); when it is not, the fields are
//! absent.
//!
//! ## Summary schema (a single JSON object)
//!
//! ```json
//! {"spans":    {"diva.clustering": {"count":1,"total_us":3400,
//!                                   "self_us":3100,
//!                                   "min_us":3400,"max_us":3400}},
//!  "counters": {"coloring.MaxFanOut.backtracks": 17},
//!  "gauges":   {"graph.csr_adj_entries": 912},
//!  "histograms": {"cluster.size": {"count":40,"sum":4000,
//!                 "buckets":[{"le":127,"count":40}]}}}
//! ```
//!
//! `self_us` is the aggregate self-time (duration minus child
//! durations, see [`crate::analyze`]). Span objects gain an
//! `"alloc_bytes"` key after `max_us` when any instance of the name
//! carried allocation attribution.
//!
//! Histogram buckets are log₂ ([`crate::bucket_index`]); only non-empty
//! buckets are emitted, keyed by their inclusive upper bound `le`.
//! All maps are rendered with sorted keys, so equal telemetry states
//! render byte-identically.

use crate::json::{escape, number};
use crate::metrics::{bucket_upper_bound, N_BUCKETS};
use crate::{AttrValue, SpanRecord};

/// Frozen histogram state.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Per-bucket counts, indexed by [`crate::bucket_index`].
    pub buckets: [u64; N_BUCKETS],
}

/// Per-name span aggregate, as rendered into the summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Span name.
    pub name: String,
    /// Completed spans with this name.
    pub count: u64,
    /// Total microseconds across them.
    pub total_us: u64,
    /// Total self-time (duration minus direct children) across them,
    /// microseconds — see [`crate::analyze::self_times_us`].
    pub self_us: u64,
    /// Fastest instance, microseconds.
    pub min_us: u64,
    /// Slowest instance, microseconds.
    pub max_us: u64,
    /// Total bytes allocated across instances that carried memory
    /// attribution; `None` when none did (profiling inactive).
    pub alloc_bytes: Option<u64>,
}

/// A frozen view of an [`crate::Obs`] handle: completed spans in start
/// order plus every registered metric, names sorted.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Completed spans, ordered by `(start_us, id)`.
    pub spans: Vec<SpanRecord>,
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, state)` pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

fn attr_json(v: &AttrValue) -> String {
    match v {
        AttrValue::U64(n) => format!("{n}"),
        AttrValue::I64(n) => format!("{n}"),
        AttrValue::F64(n) => number(*n),
        AttrValue::Bool(b) => format!("{b}"),
        AttrValue::Str(s) => format!("\"{}\"", escape(s)),
    }
}

impl Snapshot {
    /// The counter value registered under `name`, if any.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Per-name span aggregates (count/total/self/min/max plus alloc
    /// totals when attributed), sorted by name.
    pub fn span_summaries(&self) -> Vec<SpanSummary> {
        let selfs = crate::analyze::self_times_us(&self.spans);
        let mut out: Vec<SpanSummary> = Vec::new();
        for (span, &self_us) in self.spans.iter().zip(selfs.iter()) {
            let bytes = span.alloc.map(|a| a.bytes);
            match out.iter_mut().find(|s| s.name == span.name) {
                Some(agg) => {
                    agg.count += 1;
                    agg.total_us += span.dur_us;
                    agg.self_us += self_us;
                    agg.min_us = agg.min_us.min(span.dur_us);
                    agg.max_us = agg.max_us.max(span.dur_us);
                    if let Some(b) = bytes {
                        agg.alloc_bytes = Some(agg.alloc_bytes.unwrap_or(0) + b);
                    }
                }
                None => out.push(SpanSummary {
                    name: span.name.clone(),
                    count: 1,
                    total_us: span.dur_us,
                    self_us,
                    min_us: span.dur_us,
                    max_us: span.dur_us,
                    alloc_bytes: bytes,
                }),
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Renders the JSON-lines trace: one `{"type":"span",…}` object
    /// per completed span, in start order, trailing newline included
    /// (empty string when no spans completed).
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str("{\"type\":\"span\",\"id\":");
            out.push_str(&span.id.to_string());
            out.push_str(",\"parent\":");
            match span.parent {
                Some(p) => out.push_str(&p.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"name\":\"");
            out.push_str(&escape(&span.name));
            out.push_str("\",\"thread\":");
            out.push_str(&span.thread.to_string());
            out.push_str(",\"start_us\":");
            out.push_str(&span.start_us.to_string());
            out.push_str(",\"dur_us\":");
            out.push_str(&span.dur_us.to_string());
            if let Some(a) = &span.alloc {
                out.push_str(",\"alloc_bytes\":");
                out.push_str(&a.bytes.to_string());
                out.push_str(",\"alloc_count\":");
                out.push_str(&a.count.to_string());
                out.push_str(",\"peak_live_delta\":");
                out.push_str(&a.peak_live_delta.to_string());
            }
            out.push_str(",\"attrs\":{");
            for (i, (k, v)) in span.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&escape(k));
                out.push_str("\":");
                out.push_str(&attr_json(v));
            }
            out.push_str("}}\n");
        }
        out
    }

    /// Renders the aggregated summary as a single pretty-stable JSON
    /// object (sorted keys; see the module docs for the schema).
    pub fn summary_json(&self) -> String {
        let mut out = String::from("{\n  \"spans\": {");
        let summaries = self.span_summaries();
        for (i, s) in summaries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"total_us\": {}, \"self_us\": {}, \"min_us\": {}, \"max_us\": {}",
                escape(&s.name),
                s.count,
                s.total_us,
                s.self_us,
                s.min_us,
                s.max_us
            ));
            if let Some(bytes) = s.alloc_bytes {
                out.push_str(&format!(", \"alloc_bytes\": {bytes}"));
            }
            out.push('}');
        }
        if !summaries.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {v}", escape(name)));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {v}", escape(name)));
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                escape(name),
                h.count,
                h.sum
            ));
            let mut first = true;
            for (idx, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!("{{\"le\": {}, \"count\": {n}}}", bucket_upper_bound(idx)));
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::json::{parse, Value};
    use crate::Obs;

    fn sample_obs() -> Obs {
        let obs = Obs::enabled();
        let root = obs.span("run").attr("rows", 4000u64).attr("strategy", "MaxFanOut");
        let inner = obs.span("phase").attr("ok", true).attr("ratio", 0.5f64);
        inner.end();
        let again = obs.span("phase");
        again.end();
        root.end();
        obs.counter("events").add(3);
        obs.gauge("level").set(-2);
        obs.histogram("sizes").record(0);
        obs.histogram("sizes").record(5);
        obs.histogram("sizes").record(700);
        obs
    }

    #[test]
    fn trace_lines_parse_and_carry_attrs() {
        let snap = sample_obs().snapshot();
        let trace = snap.trace_jsonl();
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let v = parse(line).expect("trace line parses");
            assert_eq!(v.get("type").and_then(Value::as_str), Some("span"));
            assert!(v.get("dur_us").and_then(Value::as_num).is_some());
        }
        // Spans are in start order: run first, then the two phases.
        let run = parse(lines[0]).expect("parses");
        assert_eq!(run.get("name").and_then(Value::as_str), Some("run"));
        assert_eq!(run.get("parent"), Some(&Value::Null));
        let attrs = run.get("attrs").expect("attrs present");
        assert_eq!(attrs.get("rows").and_then(Value::as_num), Some(4000.0));
        assert_eq!(attrs.get("strategy").and_then(Value::as_str), Some("MaxFanOut"));
        let phase = parse(lines[1]).expect("parses");
        assert_eq!(
            phase.get("parent").and_then(Value::as_num),
            run.get("id").and_then(Value::as_num)
        );
        assert_eq!(phase.get("attrs").and_then(|a| a.get("ok")), Some(&Value::Bool(true)));
    }

    #[test]
    fn summary_parses_and_aggregates() {
        let snap = sample_obs().snapshot();
        let summary = snap.summary_json();
        let v = parse(&summary).expect("summary parses");
        let spans = v.get("spans").expect("spans section");
        assert_eq!(
            spans.get("phase").and_then(|p| p.get("count")).and_then(Value::as_num),
            Some(2.0)
        );
        assert!(spans.get("run").is_some());
        assert_eq!(
            v.get("counters").and_then(|c| c.get("events")).and_then(Value::as_num),
            Some(3.0)
        );
        assert_eq!(
            v.get("gauges").and_then(|g| g.get("level")).and_then(Value::as_num),
            Some(-2.0)
        );
        let hist = v.get("histograms").and_then(|h| h.get("sizes")).expect("sizes histogram");
        assert_eq!(hist.get("count").and_then(Value::as_num), Some(3.0));
        assert_eq!(hist.get("sum").and_then(Value::as_num), Some(705.0));
        let buckets = hist.get("buckets").and_then(Value::as_arr).expect("buckets");
        // 0 → le 0; 5 → [4,7] le 7; 700 → [512,1023] le 1023.
        let les: Vec<f64> =
            buckets.iter().filter_map(|b| b.get("le").and_then(Value::as_num)).collect();
        assert_eq!(les, [0.0, 7.0, 1023.0]);
    }

    #[test]
    fn empty_snapshot_renders_valid_documents() {
        let snap = Obs::disabled().snapshot();
        assert_eq!(snap.trace_jsonl(), "");
        let v = parse(&snap.summary_json()).expect("empty summary parses");
        assert_eq!(v.get("spans"), Some(&Value::Obj(Vec::new())));
    }

    #[test]
    fn span_summaries_track_min_and_max() {
        let snap = sample_obs().snapshot();
        let summaries = snap.span_summaries();
        let phase = summaries.iter().find(|s| s.name == "phase").expect("phase");
        assert_eq!(phase.count, 2);
        assert!(phase.min_us <= phase.max_us);
        assert!(phase.total_us >= phase.max_us);
    }
}
