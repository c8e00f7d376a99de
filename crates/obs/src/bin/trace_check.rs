//! `trace-check` — validates an emitted trace/metrics pair, or
//! scrapes a live stats endpoint mid-run.
//!
//! Usage:
//! `trace-check [--require-alloc] [--require-provenance FILE] <trace.jsonl> <metrics.json>`
//! `trace-check --require-provenance FILE`
//! `trace-check --scrape HOST:PORT [--timeout-ms N]`
//!
//! The `--scrape` client mode polls a running `diva --stats-addr`
//! endpoint until it observes an in-flight snapshot with a non-zero
//! node count, validating on every poll that `/metrics` parses as
//! Prometheus text and that `/stats.json` carries the four-section
//! summary schema, each with every row of the live-cell table
//! (`diva_obs::serve::LIVE_CELLS`) that every snapshot carries.
//! On success it prints the observed mid-run counters (for the caller
//! to compare against the finished run's totals) and exits 0; it
//! exits non-zero if the run ends before any such snapshot is seen.
//!
//! Checks that every trace line parses as a span object, that ids are
//! unique and parents resolve, that any memory-attribution fields are
//! complete (`alloc_bytes`/`alloc_count`/`peak_live_delta` appear all
//! together or not at all), that the summary parses with the full
//! per-span schema (`count`/`total_us`/`self_us`/`min_us`/`max_us`),
//! and that both documents contain the pipeline phase spans
//! catalogued in DESIGN.md §9 (`diva.clustering`, `diva.suppress`,
//! `diva.anonymize`, `diva.integrate`). With `--require-alloc` every
//! required span must additionally carry a positive `alloc_bytes` —
//! the profiling gate in `scripts/check.sh` uses this to prove the
//! counting allocator is live in the CLI binary.
//!
//! With `--require-provenance FILE` the decision-provenance export
//! written by `diva anonymize --provenance` is additionally validated
//! for record and reference integrity (dense group ids, in-range
//! rows/owners/constraints, cells citing real groups, attribution
//! line consistent with the records). The flag also works on its own,
//! without a trace/metrics pair.

use diva_obs::json::{parse, Value};

/// Spans that every successful pipeline run must emit.
const REQUIRED_SPANS: [&str; 5] =
    ["diva.run", "diva.clustering", "diva.suppress", "diva.anonymize", "diva.integrate"];

/// The trace-side memory-attribution fields: all present or all
/// absent on a span line.
const ALLOC_FIELDS: [&str; 3] = ["alloc_bytes", "alloc_count", "peak_live_delta"];

/// Per-span-name facts collected from the trace: whether any instance
/// carried a positive `alloc_bytes`.
struct TraceFacts {
    names: Vec<String>,
    alloc_names: Vec<String>,
}

fn check_trace(text: &str) -> Result<TraceFacts, String> {
    let mut facts = TraceFacts { names: Vec::new(), alloc_names: Vec::new() };
    let mut ids = Vec::new();
    let mut parents = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let v = parse(line).map_err(|e| format!("trace line {}: {e}", lineno + 1))?;
        if v.get("type").and_then(Value::as_str) != Some("span") {
            return Err(format!("trace line {}: not a span object", lineno + 1));
        }
        let id = v
            .get("id")
            .and_then(Value::as_num)
            .ok_or_else(|| format!("trace line {}: missing id", lineno + 1))?;
        if ids.contains(&(id as u64)) {
            return Err(format!("trace line {}: duplicate span id {id}", lineno + 1));
        }
        ids.push(id as u64);
        if let Some(p) = v.get("parent").and_then(Value::as_num) {
            parents.push(((lineno + 1), p as u64));
        }
        for key in ["thread", "start_us", "dur_us"] {
            if v.get(key).and_then(Value::as_num).is_none() {
                return Err(format!("trace line {}: missing {key}", lineno + 1));
            }
        }
        if ALLOC_FIELDS.iter().any(|f| v.get(f).is_some()) {
            for field in ALLOC_FIELDS {
                if v.get(field).and_then(Value::as_num).is_none() {
                    return Err(format!(
                        "trace line {}: incomplete memory attribution (missing numeric {field})",
                        lineno + 1
                    ));
                }
            }
        }
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("trace line {}: missing name", lineno + 1))?;
        if v.get("alloc_bytes").and_then(Value::as_num).is_some_and(|b| b > 0.0) {
            facts.alloc_names.push(name.to_string());
        }
        facts.names.push(name.to_string());
    }
    for (lineno, parent) in parents {
        if !ids.contains(&parent) {
            return Err(format!("trace line {lineno}: dangling parent id {parent}"));
        }
    }
    Ok(facts)
}

fn check_summary(text: &str) -> Result<Vec<String>, String> {
    let v = parse(text).map_err(|e| format!("summary: {e}"))?;
    let spans = match v.get("spans") {
        Some(Value::Obj(fields)) => {
            for (name, span) in fields {
                for key in ["count", "total_us", "self_us", "min_us", "max_us"] {
                    if span.get(key).and_then(Value::as_num).is_none() {
                        return Err(format!("summary: span \"{name}\" missing numeric \"{key}\""));
                    }
                }
            }
            fields.iter().map(|(k, _)| k.clone()).collect()
        }
        _ => return Err("summary: missing \"spans\" object".to_string()),
    };
    for section in ["counters", "gauges", "histograms"] {
        if !matches!(v.get(section), Some(Value::Obj(_))) {
            return Err(format!("summary: missing \"{section}\" object"));
        }
    }
    Ok(spans)
}

fn run(trace_path: &str, metrics_path: &str, require_alloc: bool) -> Result<(), String> {
    let trace = std::fs::read_to_string(trace_path)
        .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    let metrics = std::fs::read_to_string(metrics_path)
        .map_err(|e| format!("cannot read {metrics_path}: {e}"))?;
    let facts = check_trace(&trace)?;
    let summary_names = check_summary(&metrics)?;
    for required in REQUIRED_SPANS {
        if !facts.names.iter().any(|n| n == required) {
            return Err(format!("trace is missing required span \"{required}\""));
        }
        if !summary_names.iter().any(|n| n == required) {
            return Err(format!("summary is missing required span \"{required}\""));
        }
        if require_alloc && !facts.alloc_names.iter().any(|n| n == required) {
            return Err(format!(
                "span \"{required}\" has no positive alloc_bytes (is the counting \
                 allocator installed in the producing binary?)"
            ));
        }
    }
    println!(
        "trace-check ok: {} trace spans ({} distinct names), {} summarised names{}",
        facts.names.len(),
        {
            let mut uniq = facts.names.clone();
            uniq.sort();
            uniq.dedup();
            uniq.len()
        },
        summary_names.len(),
        if require_alloc { ", alloc attribution present" } else { "" }
    );
    Ok(())
}

/// Validates a decision-provenance export for record and reference
/// integrity via [`diva_obs::provenance::validate_text`].
fn check_provenance(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let summary = diva_obs::provenance::validate_text(&text)
        .map_err(|e| format!("provenance {path}: {e}"))?;
    println!(
        "trace-check ok: provenance has {} groups, {} cells, {} attributed stars",
        summary.n_groups,
        summary.n_cells,
        summary.attribution.total()
    );
    Ok(())
}

/// One poll of both endpoint routes. Returns `Ok(None)` when the
/// documents validate but the search has not expanded a node yet.
fn try_scrape(
    addr: &std::net::SocketAddr,
    timeout: std::time::Duration,
) -> Result<Option<(u64, String, u64)>, String> {
    use diva_obs::serve::{parse_prometheus, LIVE_CELLS};
    let (status, prom) =
        diva_obs::serve::http_get(addr, "/metrics", timeout).map_err(|e| e.to_string())?;
    if !status.contains("200") {
        return Err(format!("GET /metrics: {}", status.trim()));
    }
    let samples = parse_prometheus(&prom).map_err(|e| format!("/metrics: {e}"))?;
    let metric = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
            .ok_or_else(|| format!("/metrics is missing \"{name}\""))
    };
    let nodes = metric("diva_nodes_expanded_total")? as u64;
    let elapsed_ms = metric("diva_elapsed_ms")? as u64;
    let phase = samples
        .iter()
        .find(|s| s.name == "diva_phase")
        .and_then(|s| s.label("phase"))
        .unwrap_or("?")
        .to_string();
    let (status, json) =
        diva_obs::serve::http_get(addr, "/stats.json", timeout).map_err(|e| e.to_string())?;
    if !status.contains("200") {
        return Err(format!("GET /stats.json: {}", status.trim()));
    }
    let v = parse(&json).map_err(|e| format!("/stats.json: {e}"))?;
    for section in ["spans", "counters", "gauges", "histograms"] {
        if !matches!(v.get(section), Some(Value::Obj(_))) {
            return Err(format!("/stats.json is missing \"{section}\" object"));
        }
    }
    for cell in LIVE_CELLS.iter().filter(|c| c.always_present()) {
        if !samples.iter().any(|s| s.name == cell.family) {
            return Err(format!("/metrics is missing family \"{}\"", cell.family));
        }
        let section = cell.kind.section();
        if v.get(section).and_then(|s| s.get(cell.key)).and_then(Value::as_num).is_none() {
            return Err(format!("/stats.json {section} is missing numeric \"{}\"", cell.key));
        }
    }
    Ok(if nodes > 0 { Some((nodes, phase, elapsed_ms)) } else { None })
}

/// The `--scrape` client mode: poll the endpoint until a validated
/// mid-run snapshot with `nodes > 0` appears (or the timeout ends —
/// which covers both "run finished first" via connection refusal and
/// a run that never expanded a node).
fn scrape(addr: &str, timeout_ms: u64) -> Result<(), String> {
    let addr: std::net::SocketAddr = addr.parse().map_err(|e| format!("--scrape {addr}: {e}"))?;
    let per_request = std::time::Duration::from_millis(500);
    let deadline = diva_obs::Stopwatch::start();
    let mut last_err = "endpoint never responded".to_string();
    while deadline.elapsed() < std::time::Duration::from_millis(timeout_ms) {
        match try_scrape(&addr, per_request) {
            Ok(Some((nodes, phase, elapsed_ms))) => {
                println!("scrape ok: nodes={nodes} phase={phase} elapsed_ms={elapsed_ms}");
                return Ok(());
            }
            Ok(None) => last_err = "snapshots valid, but nodes stayed 0".to_string(),
            Err(e) => last_err = e,
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    Err(format!("no mid-run snapshot with nodes > 0 within {timeout_ms}ms (last: {last_err})"))
}

fn main() -> std::process::ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--scrape") {
        let Some(addr) = args.get(pos + 1).cloned() else {
            eprintln!("usage: trace-check --scrape HOST:PORT [--timeout-ms N]");
            return std::process::ExitCode::from(2);
        };
        let timeout_ms = args
            .iter()
            .position(|a| a == "--timeout-ms")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(10_000);
        if let Err(e) = scrape(&addr, timeout_ms) {
            eprintln!("trace-check FAILED: {e}");
            return std::process::ExitCode::FAILURE;
        }
        return std::process::ExitCode::SUCCESS;
    }
    let require_alloc = args.iter().any(|a| a == "--require-alloc");
    args.retain(|a| a != "--require-alloc");
    let provenance_path = match args.iter().position(|a| a == "--require-provenance") {
        Some(pos) => {
            if pos + 1 >= args.len() {
                eprintln!("usage: trace-check --require-provenance FILE");
                return std::process::ExitCode::from(2);
            }
            let path = args.remove(pos + 1);
            args.remove(pos);
            Some(path)
        }
        None => None,
    };
    if args.is_empty() {
        // Provenance-only mode: no trace/metrics pair to validate.
        let Some(path) = &provenance_path else {
            eprintln!(
                "usage: trace-check [--require-alloc] [--require-provenance FILE] \
                 <trace.jsonl> <metrics.json>\n\
                 \u{20}      trace-check --require-provenance FILE\n\
                 \u{20}      trace-check --scrape HOST:PORT [--timeout-ms N]"
            );
            return std::process::ExitCode::from(2);
        };
        if let Err(e) = check_provenance(path) {
            eprintln!("trace-check FAILED: {e}");
            return std::process::ExitCode::FAILURE;
        }
        return std::process::ExitCode::SUCCESS;
    }
    let (Some(trace_path), Some(metrics_path)) = (args.first(), args.get(1)) else {
        eprintln!(
            "usage: trace-check [--require-alloc] [--require-provenance FILE] \
             <trace.jsonl> <metrics.json>\n\
             \u{20}      trace-check --require-provenance FILE\n\
             \u{20}      trace-check --scrape HOST:PORT [--timeout-ms N]"
        );
        return std::process::ExitCode::from(2);
    };
    if let Err(e) = run(trace_path, metrics_path, require_alloc) {
        eprintln!("trace-check FAILED: {e}");
        return std::process::ExitCode::FAILURE;
    }
    if let Some(path) = &provenance_path {
        if let Err(e) = check_provenance(path) {
            eprintln!("trace-check FAILED: {e}");
            return std::process::ExitCode::FAILURE;
        }
    }
    std::process::ExitCode::SUCCESS
}
