//! A std-only, blocking TCP stats endpoint over a handle's live cells
//! ([`crate::Obs::live`]).
//!
//! The no-registry constraint rules out every async stack, so this is
//! a deliberately boring thread-per-connection HTTP/1.0 server: one
//! accept-loop thread, one short-lived handler thread per connection,
//! graceful shutdown by flag + self-connect. Scrape volume for a
//! stats endpoint is human-scale (a poller every few seconds), so the
//! simplicity is the feature.
//!
//! ## Routes
//!
//! Both documents render from one table, [`LIVE_CELLS`]: each row
//! names a cell's Prometheus family, its JSON key and section, and its
//! help text.
//!
//! * `GET /metrics` — Prometheus text exposition (version 0.0.4
//!   shape: `# HELP` / `# TYPE` comments plus `name{labels} value`
//!   samples). Rendered by [`prometheus_text`] and parseable by the
//!   in-repo [`parse_prometheus`], which the round-trip tests use.
//! * `GET /stats.json` (also `/`) — the live snapshot rendered
//!   through the **existing summary-JSON schema**
//!   (`{"spans":{},"counters":{},"gauges":{},"histograms":{}}`, see
//!   [`crate::export`]), so every consumer of `--metrics` files can
//!   parse the live document unchanged: monotone cells land under
//!   `"counters"`, point-in-time cells under `"gauges"`.
//!
//! Anything else is a 404. Requests are read with a short timeout so
//! a stuck client cannot wedge a handler thread forever.
//!
//! [`LIVE_CELLS`]: crate::serve::LIVE_CELLS
//! [`prometheus_text`]: crate::serve::prometheus_text
//! [`parse_prometheus`]: crate::serve::parse_prometheus

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::export::Snapshot;
use crate::live::{LiveSnapshot, Phase, Sample, SampleLog};
use crate::Obs;

/// The `/stats.json` section a live cell lands in. (`/metrics` types
/// every family as a gauge.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// Monotone within a run: `"counters"`.
    Counter,
    /// Point in time: `"gauges"`.
    Gauge,
}

impl CellKind {
    /// The `/stats.json` section name.
    pub fn section(self) -> &'static str {
        match self {
            Counter => "counters",
            Gauge => "gauges",
        }
    }
}

/// A live cell's value in one rendering.
#[derive(Debug, Clone, Copy)]
pub enum CellValue<'a> {
    /// A count, limit, or duration.
    U64(u64),
    /// A signed level (live heap bytes).
    I64(i64),
    /// A rate: exact on `/metrics`, truncated to an integer on
    /// `/stats.json`.
    Rate(f64),
    /// The pipeline phase: its code, labelled with its name on
    /// `/metrics`.
    Phase(Phase),
    /// Stars per constraint label: one sample (one JSON key
    /// `<key>.<label>`) per constraint.
    Stars(&'a [(String, u64)]),
}

/// One row of [`LIVE_CELLS`].
#[derive(Debug)]
pub struct LiveCell {
    /// Prometheus family on `/metrics`.
    pub family: &'static str,
    /// Key on `/stats.json` (the key prefix of a per-constraint row).
    pub key: &'static str,
    /// The `/stats.json` section.
    pub kind: CellKind,
    /// The `# HELP` text.
    pub help: &'static str,
    /// The value in a snapshot plus the latest sampler tick; `None`
    /// leaves the row out of both documents.
    pub read: for<'a> fn(&'a LiveSnapshot, Option<&'a Sample>) -> Option<CellValue<'a>>,
}

impl LiveCell {
    /// Whether the row appears in every rendering — even of a fresh
    /// snapshot with no sampler tick and no star attribution.
    pub fn always_present(&self) -> bool {
        (self.read)(&LiveSnapshot::default(), None).is_some()
    }
}

use CellKind::{Counter, Gauge};
use CellValue::{Rate, Stars, U64};

/// Every live cell the endpoint serves, in `/metrics` order.
#[rustfmt::skip]
pub const LIVE_CELLS: [LiveCell; 18] = [
    LiveCell { family: "diva_phase", key: "live.phase_code", kind: Gauge,
        help: "Current pipeline phase (code; label carries the name).",
        read: |s, _| Some(CellValue::Phase(s.phase)) },
    LiveCell { family: "diva_nodes_expanded_total", key: "live.nodes_expanded", kind: Counter,
        help: "Search nodes expanded (poll-stride granularity).",
        read: |s, _| Some(U64(s.nodes)) },
    LiveCell { family: "diva_repairs_total", key: "live.repairs", kind: Counter,
        help: "Repair attempts.",
        read: |s, _| Some(U64(s.repairs)) },
    LiveCell { family: "diva_constraints_satisfied", key: "live.constraints_satisfied", kind: Counter,
        help: "Constraints satisfied by formed clusters.",
        read: |s, _| Some(U64(s.satisfied)) },
    LiveCell { family: "diva_constraints_voided", key: "live.constraints_voided", kind: Counter,
        help: "Constraints voided on the degradation path.",
        read: |s, _| Some(U64(s.voided)) },
    LiveCell { family: "diva_constraints_total", key: "live.constraints_total", kind: Gauge,
        help: "Size of the bound constraint set.",
        read: |s, _| Some(U64(s.constraints_total)) },
    LiveCell { family: "diva_components_done", key: "live.components_done", kind: Gauge,
        help: "Components solved.",
        read: |s, _| Some(U64(s.components_done)) },
    LiveCell { family: "diva_components_total", key: "live.components_total", kind: Gauge,
        help: "Components in the decomposition.",
        read: |s, _| Some(U64(s.components_total)) },
    LiveCell { family: "diva_budget_node_limit", key: "live.node_limit", kind: Gauge,
        help: "Armed node budget (0 = unlimited).",
        read: |s, _| Some(U64(s.node_limit)) },
    LiveCell { family: "diva_deadline_ms", key: "live.deadline_ms", kind: Gauge,
        help: "Armed deadline in milliseconds (0 = none).",
        read: |s, _| Some(U64(s.deadline_ms)) },
    LiveCell { family: "diva_live_alloc_bytes", key: "live.alloc_bytes", kind: Gauge,
        help: "Live heap bytes under the counting allocator.",
        read: |s, _| Some(CellValue::I64(s.live_alloc_bytes)) },
    LiveCell { family: "diva_stalled", key: "live.stalled", kind: Gauge,
        help: "1 while the stall watchdog considers the run stalled.",
        read: |s, _| Some(U64(u64::from(s.stalled))) },
    // Help text kept verbatim for scrapers; the clock starts with the handle.
    LiveCell { family: "diva_elapsed_ms", key: "live.elapsed_ms", kind: Gauge,
        help: "Milliseconds since the board was created.",
        read: |s, _| Some(U64(s.elapsed_ms)) },
    LiveCell { family: "diva_nodes_per_sec", key: "live.nodes_per_sec", kind: Gauge,
        help: "Node-expansion rate over the last sampling window.",
        read: |_, t| t.map(|t| Rate(t.nodes_per_sec)) },
    LiveCell { family: "diva_repairs_per_sec", key: "live.repairs_per_sec", kind: Gauge,
        help: "Repair rate over the last sampling window.",
        read: |_, t| t.map(|t| Rate(t.repairs_per_sec)) },
    LiveCell { family: "diva_eta_ms", key: "live.eta_ms", kind: Gauge,
        help: "Projected ms to node-budget exhaustion at the current rate.",
        read: |_, t| t.and_then(|t| t.eta_ms).map(U64) },
    LiveCell { family: "diva_deadline_remaining_ms", key: "live.deadline_remaining_ms", kind: Gauge,
        help: "Ms left before the deadline.",
        read: |_, t| t.and_then(|t| t.deadline_remaining_ms).map(U64) },
    LiveCell { family: "diva_constraint_stars", key: "live.constraint_stars", kind: Gauge,
        help: "Stars attributed to each sigma constraint by the provenance recorder.",
        read: |s, _| (!s.constraint_stars.is_empty()).then_some(Stars(&s.constraint_stars)) },
];

/// Renders the live snapshot (plus derived rates from the latest
/// sampler tick, when one exists) as Prometheus text exposition.
pub fn prometheus_text(snap: &LiveSnapshot, latest: Option<&Sample>) -> String {
    let mut out = String::with_capacity(1024);
    for cell in &LIVE_CELLS {
        let Some(value) = (cell.read)(snap, latest) else { continue };
        let family = cell.family;
        out.push_str(&format!("# HELP {family} {}\n# TYPE {family} gauge\n", cell.help));
        match value {
            U64(v) => out.push_str(&format!("{family} {v}\n")),
            CellValue::I64(v) => out.push_str(&format!("{family} {v}\n")),
            Rate(v) => out.push_str(&format!("{family} {}\n", format_f64(v))),
            CellValue::Phase(p) => {
                out.push_str(&format!("{family}{{phase=\"{}\"}} {}\n", p.as_str(), p.code()));
            }
            Stars(pairs) => {
                for (label, stars) in pairs {
                    let label = escape_label_value(label);
                    out.push_str(&format!("{family}{{constraint=\"{label}\"}} {stars}\n"));
                }
            }
        }
    }
    out
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders the live snapshot through the existing summary-JSON schema
/// ([`crate::export::Snapshot::summary_json`]): each cell under the
/// section its [`CellKind`] names, integer-valued (rates truncated);
/// the spans/histograms sections stay empty.
pub fn stats_json(snap: &LiveSnapshot, latest: Option<&Sample>) -> String {
    let mut view = Snapshot::default();
    for cell in &LIVE_CELLS {
        let values: Vec<(String, i64)> = match (cell.read)(snap, latest) {
            None => continue,
            Some(U64(v)) => vec![(cell.key.to_string(), v as i64)],
            Some(CellValue::I64(v)) => vec![(cell.key.to_string(), v)],
            Some(Rate(v)) => vec![(cell.key.to_string(), v as i64)],
            Some(CellValue::Phase(p)) => vec![(cell.key.to_string(), p.code() as i64)],
            Some(Stars(pairs)) => pairs
                .iter()
                .map(|(label, n)| (format!("{}.{label}", cell.key), *n as i64))
                .collect(),
        };
        match cell.kind {
            Counter => view.counters.extend(values.into_iter().map(|(k, v)| (k, v as u64))),
            Gauge => view.gauges.extend(values),
        }
    }
    view.counters.sort();
    view.gauges.sort();
    view.summary_json()
}

/// One parsed Prometheus sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name.
    pub name: String,
    /// `(key, value)` label pairs, in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Parses Prometheus text exposition into its sample lines, skipping
/// `#` comments and blank lines. The in-repo counterpart to
/// [`prometheus_text`] — the endpoint round-trip tests are built on it.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_sample_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(out)
}

fn parse_sample_line(line: &str) -> Result<PromSample, String> {
    let name_end = line
        .find(|c: char| c == '{' || c.is_whitespace())
        .ok_or_else(|| "sample line has no value".to_string())?;
    let name = &line[..name_end];
    if name.is_empty() {
        return Err("empty metric name".to_string());
    }
    let mut labels = Vec::new();
    let mut rest = &line[name_end..];
    if let Some(body) = rest.strip_prefix('{') {
        rest = parse_labels(body, &mut labels)?;
    }
    let value_text = rest.trim();
    let value: f64 = value_text.parse().map_err(|_| format!("bad sample value {value_text:?}"))?;
    Ok(PromSample { name: name.to_string(), labels, value })
}

/// Parses `key="value", …}` into `labels`, unescaping the values
/// (which may hold commas and braces), and returns the text after the
/// closing brace.
fn parse_labels<'a>(
    mut rest: &'a str,
    labels: &mut Vec<(String, String)>,
) -> Result<&'a str, String> {
    loop {
        rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix('}') {
            return Ok(after);
        }
        let eq = rest.find('=').ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = rest[..eq].trim();
        if key.is_empty() {
            return Err(format!("empty label key: {rest:?}"));
        }
        let quoted = rest[eq + 1..]
            .trim_start()
            .strip_prefix('"')
            .ok_or_else(|| format!("unquoted label value: {rest:?}"))?;
        let mut value = String::new();
        let mut chars = quoted.char_indices();
        let end = loop {
            match chars.next() {
                Some((i, '"')) => break i,
                Some((_, '\\')) => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, c)) => value.push(c),
                    None => return Err("unterminated label value".to_string()),
                },
                Some((_, c)) => value.push(c),
                None => return Err("unterminated label value".to_string()),
            }
        };
        labels.push((key.to_string(), value));
        rest = quoted[end + 1..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
}

/// The blocking stats endpoint: binds a listener, serves
/// `/metrics` + `/stats.json` until [`StatsServer::shutdown`] (or
/// drop) stops it.
pub struct StatsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for StatsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsServer").field("addr", &self.addr).finish()
    }
}

impl StatsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port — read
    /// the real one back from [`StatsServer::local_addr`]) and starts
    /// the accept loop over `obs`'s live cells and `log`.
    pub fn bind(addr: &str, obs: Obs, log: SampleLog) -> std::io::Result<StatsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        #[expect(
            clippy::disallowed_methods,
            reason = "a daemon: `StatsServer` joins it on shutdown and on drop"
        )]
        let accept_handle = std::thread::spawn(move || {
            accept_loop(&listener, &obs, &log, &accept_stop);
        });
        Ok(StatsServer { addr: local, stop, accept_handle: Some(accept_handle) })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, unblocks the accept loop, and joins it (also
    /// runs on drop).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for StatsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: &TcpListener, obs: &Obs, log: &SampleLog, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let handler_obs = obs.clone();
        let handler_log = log.clone();
        #[expect(clippy::disallowed_methods, reason = "a handler ends with its connection")]
        std::thread::spawn(move || {
            let _ = handle_connection(stream, &handler_obs, &handler_log);
        });
    }
}

fn handle_connection(stream: TcpStream, obs: &Obs, log: &SampleLog) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers so well-behaved clients see a clean close.
    loop {
        let mut header = String::new();
        let n = reader.read_line(&mut header)?;
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, content_type, body) = match (obs.live(), path) {
        (Some(snap), "/metrics") => {
            let latest = log.latest();
            ("200 OK", "text/plain; version=0.0.4", prometheus_text(&snap, latest.as_ref()))
        }
        (Some(snap), "/stats.json" | "/") => {
            let latest = log.latest();
            ("200 OK", "application/json", stats_json(&snap, latest.as_ref()))
        }
        (None, "/metrics" | "/stats.json" | "/") => {
            ("503 Service Unavailable", "text/plain", "live telemetry disabled\n".to_string())
        }
        _ => ("404 Not Found", "text/plain", format!("no route for {path}\n")),
    };
    let mut stream = reader.into_inner();
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// A minimal blocking HTTP GET against the endpoint: returns
/// `(status_line, body)`. Shared by the endpoint tests.
pub fn http_get(
    addr: &SocketAddr,
    path: &str,
    timeout: Duration,
) -> std::io::Result<(String, String)> {
    let stream = TcpStream::connect_timeout(addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut stream = stream;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    loop {
        let mut header = String::new();
        let n = reader.read_line(&mut header)?;
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let mut body = String::new();
    let mut chunk = String::new();
    loop {
        chunk.clear();
        match reader.read_line(&mut chunk) {
            Ok(0) => break,
            Ok(_) => body.push_str(&chunk),
            Err(_) => break,
        }
    }
    Ok((status_line.trim_end().to_string(), body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::live::{Sampler, SamplerConfig};

    fn populated() -> Obs {
        let obs = Obs::enabled();
        obs.add_nodes(1234);
        obs.add_repairs(7);
        obs.set_constraints_total(50);
        obs.set_components_total(12);
        obs.components_done(2);
        obs.set_budget_limits(Some(10_000), Some(Duration::from_secs(10)));
        obs.run_finished(40, 2, None);
        obs
    }

    #[test]
    fn the_table_names_each_family_and_key_once() {
        for (i, a) in LIVE_CELLS.iter().enumerate() {
            for b in &LIVE_CELLS[i + 1..] {
                assert!(a.family != b.family && a.key != b.key, "{} repeats", b.family);
            }
        }
        let always = LIVE_CELLS.iter().filter(|c| c.always_present()).count();
        assert_eq!(always, 13, "every snapshot carries the 13 cells, not the rates or stars");
    }

    #[test]
    fn both_routes_carry_every_always_present_cell() {
        let snap = populated().live().expect("enabled handle");
        let samples =
            parse_prometheus(&prometheus_text(&snap, None)).expect("rendered text parses");
        let v = parse(&stats_json(&snap, None)).expect("summary-JSON parses");
        for cell in LIVE_CELLS.iter().filter(|c| c.always_present()) {
            let prom = samples.iter().find(|s| s.name == cell.family).map(|s| s.value);
            let json =
                v.get(cell.kind.section()).and_then(|g| g.get(cell.key)).and_then(Value::as_num);
            assert!(prom.is_some() && prom == json, "{}: {prom:?} vs {json:?}", cell.family);
        }
        let get = |name: &str| samples.iter().find(|s| s.name == name).expect(name);
        assert_eq!(get("diva_nodes_expanded_total").value, 1234.0);
        assert_eq!(get("diva_constraints_voided").value, 2.0);
        assert_eq!(get("diva_components_done").value, 2.0);
        assert_eq!(get("diva_deadline_ms").value, 10_000.0);
        assert_eq!(get("diva_phase").label("phase"), Some("done"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("metric_without_value").is_err());
        assert!(parse_prometheus("bad{unterminated 1").is_err());
        assert!(parse_prometheus("bad{k=unquoted} 1").is_err());
        assert!(parse_prometheus("bad{novalue} 1").is_err());
        assert!(parse_prometheus("name notanumber").is_err());
        assert!(parse_prometheus("bad{k=\"open} 1").is_err());
        // Label values may hold commas, braces and escapes.
        let parsed = parse_prometheus("m{a=\"x,y}\",b=\"q\\\"\\n\"} 2").expect("parses");
        assert_eq!(parsed[0].label("a"), Some("x,y}"));
        assert_eq!(parsed[0].label("b"), Some("q\"\n"));
        // Comments and blanks are fine.
        assert_eq!(parse_prometheus("# HELP x y\n\n# TYPE x gauge\n").expect("ok").len(), 0);
    }

    #[test]
    fn endpoint_serves_both_routes_over_real_tcp() {
        let obs = populated();
        let config = SamplerConfig { interval: Duration::from_millis(10), stall_periods: 1000 };
        let sampler = Sampler::spawn(&obs, config, None);
        let server = StatsServer::bind("127.0.0.1:0", obs.clone(), sampler.log()).expect("bind");
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0, "port 0 resolves to a real port");

        let (status, body) =
            http_get(&addr, "/metrics", Duration::from_secs(2)).expect("GET /metrics");
        assert!(status.contains("200"), "{status}");
        let samples = parse_prometheus(&body).expect("prometheus body parses");
        assert!(samples.iter().any(|s| s.name == "diva_nodes_expanded_total" && s.value == 1234.0));

        let (status, body) =
            http_get(&addr, "/stats.json", Duration::from_secs(2)).expect("GET /stats.json");
        assert!(status.contains("200"), "{status}");
        let v = parse(&body).expect("json body parses");
        assert_eq!(
            v.get("counters").and_then(|c| c.get("live.nodes_expanded")).and_then(Value::as_num),
            Some(1234.0)
        );

        let (status, _) = http_get(&addr, "/nope", Duration::from_secs(2)).expect("GET /nope");
        assert!(status.contains("404"), "{status}");

        sampler.stop();
        server.shutdown();
    }

    #[test]
    fn endpoint_reports_unavailable_for_a_disabled_handle() {
        let server =
            StatsServer::bind("127.0.0.1:0", Obs::disabled(), SampleLog::default()).expect("bind");
        let addr = server.local_addr();
        let (status, _) = http_get(&addr, "/metrics", Duration::from_secs(2)).expect("GET");
        assert!(status.contains("503"), "{status}");
        server.shutdown();
    }

    #[test]
    fn shutdown_unblocks_and_joins() {
        let server =
            StatsServer::bind("127.0.0.1:0", Obs::enabled(), SampleLog::default()).expect("bind");
        let addr = server.local_addr();
        server.shutdown();
        // Once joined, fresh connections must not be served.
        let after = http_get(&addr, "/metrics", Duration::from_millis(300));
        assert!(
            after.is_err() || !after.expect("response").0.contains("200"),
            "server still answering after shutdown"
        );
    }
}
