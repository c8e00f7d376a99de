//! `diva-obs` — zero-dependency structured observability for the DIVA
//! pipeline: hierarchical spans, atomic counters/gauges, log₂
//! histograms, and JSON export.
//!
//! The paper's whole evaluation is about *where time and suppression
//! go* as k, |Σ|, and the conflict rate scale; this crate is the
//! telemetry substrate that makes those quantities observable from a
//! production run instead of a post-hoc `RunStats` struct. The build
//! environment has no registry access, so everything here is `std`
//! only — no `tracing`, no `metrics`.
//!
//! ## Model
//!
//! * [`Obs`] is a cheap-to-clone handle (an `Option<Arc<…>>`). A
//!   **disabled** handle ([`Obs::disabled`], the default) short-circuits
//!   every recording operation on one predictable branch and allocates
//!   nothing — the pipeline's behaviour and output are byte-identical
//!   with obs on or off, only the telemetry differs. The pipeline only
//!   writes to a handle: nothing it records feeds back into a decision
//!   of the run.
//! * [`Span`]s time a region against a monotonic clock shared by the
//!   whole handle. Spans *always* measure (two monotonic clock reads)
//!   so callers can use the returned [`Duration`] — e.g.
//!   `RunStats` timings are exactly these span durations — but only
//!   enabled handles retain a [`SpanRecord`]. Nesting is tracked
//!   per-thread; cross-thread children pass an explicit parent id
//!   ([`Span::with_parent`]).
//! * [`Counter`]/[`Gauge`]/[`Histogram`] handles come from the
//!   registry by name ([`Obs::counter`], …) and are safe to use from
//!   any thread.
//! * [`Obs::snapshot`] freezes everything into a [`Snapshot`], which
//!   renders a JSON-lines trace (one span per line) and an aggregated
//!   summary JSON — see [`export`] for the schema (catalogued in
//!   `DESIGN.md` §9).
//! * An enabled handle also carries the live cells — phase, nodes,
//!   repairs, verdicts, components, budget limits, stall state — that
//!   the [`live`] sampler and the [`serve`] endpoint read while the
//!   run is in flight ([`Obs::live`]).
//!
//! ## Example
//!
//! ```
//! use diva_obs::Obs;
//!
//! let obs = Obs::enabled();
//! let run = obs.span("demo.run");
//! let inner = obs.span("demo.step").attr("items", 3u64);
//! obs.counter("demo.steps").incr();
//! obs.histogram("demo.sizes").record(3);
//! inner.end();
//! run.end();
//! let snap = obs.snapshot();
//! assert_eq!(snap.spans.len(), 2);
//! assert_eq!(snap.spans[1].parent, Some(snap.spans[0].id));
//! ```
//!
//! This crate is also the only place in the workspace allowed to read
//! the wall clock (`diva-tidy`'s `wall-clock` rule): code that needs a
//! raw timer uses [`Stopwatch`] so every clock read flows through one
//! audited module.

/// Counting `GlobalAlloc` wrapper and per-thread/global allocation
/// statistics (`alloc-profile` feature; inert stubs otherwise).
pub mod alloc;
/// Post-hoc span analysis: self-times, critical path, folded stacks.
pub mod analyze;
/// Exact comparison of the deterministic fields of two summary
/// documents (the `trace-diff` regression gate).
pub mod diff;
/// Snapshot freezing and JSONL-trace / summary-JSON rendering.
pub mod export;
/// Hand-rolled RFC-8259 JSON parser and number/string helpers.
pub mod json;
/// Live in-flight telemetry: the handle's atomic progress cells, the
/// background sampler, and the stall watchdog.
pub mod live;
/// Atomic counter/gauge/histogram primitives and log₂ bucketing.
pub mod metrics;
/// Decision-provenance recorder: traces every published star back to
/// the constraint / repair / degrade decision that caused it.
pub mod provenance;
/// Std-only blocking TCP stats endpoint (Prometheus text + live
/// summary-JSON) over a handle's live cells.
pub mod serve;

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

pub use alloc::{AllocDelta, AllocStats};
pub use export::{HistogramSnapshot, Snapshot, SpanSummary};
pub use metrics::{bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, N_BUCKETS};
pub use provenance::{Provenance, StarAttribution};

/// A raw monotonic timer.
///
/// The `diva-tidy` `wall-clock` rule bans `Instant::now` everywhere
/// outside this crate; harness code (bench, CLI) that needs a plain
/// elapsed-time measurement uses `Stopwatch` so all clock reads are
/// auditable in one place. Library code should prefer [`Obs::span`],
/// which both measures and records.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the timer.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// An attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// One completed span, as retained by an enabled handle.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id within the handle (allocation order).
    pub id: u64,
    /// Enclosing span, when one was open on the same thread at
    /// creation (or set explicitly via [`Span::with_parent`]).
    pub parent: Option<u64>,
    /// Span name (`phase.subphase` dotted convention).
    pub name: String,
    /// Dense per-process thread ordinal (0 = first thread that
    /// recorded through any handle).
    pub thread: u64,
    /// Start offset from the handle's creation, microseconds.
    pub start_us: u64,
    /// Wall-clock duration, microseconds.
    pub dur_us: u64,
    /// Attributes, in attachment order.
    pub attrs: Vec<(String, AttrValue)>,
    /// Memory attributed to this span: what its thread allocated
    /// between open and close. `None` unless the counting allocator
    /// is live ([`alloc::profiling_active`]) — and `None` renders
    /// nothing, keeping un-instrumented traces byte-identical.
    pub alloc: Option<AllocDelta>,
}

/// The shared state behind an enabled handle.
#[derive(Debug)]
struct Inner {
    origin: Instant,
    next_span: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<HashMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<HashMap<String, Arc<metrics::HistogramCells>>>,
    live: live::Cells,
}

/// Recovers the guard from a poisoned mutex: a panicked recorder can
/// only leave partially-appended telemetry, never corrupt pipeline
/// state, so observers keep going.
fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

static NEXT_THREAD_ORD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Dense ordinal of the current thread, assigned on first use.
    static THREAD_ORD: u64 = NEXT_THREAD_ORD.fetch_add(1, Ordering::Relaxed);
    /// Open-span stack of the current thread (ids, innermost last).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The observability handle: spans, counters, gauges, histograms,
/// and the live progress cells.
///
/// Clone freely — clones share the same registry and trace buffer.
/// The disabled handle ([`Obs::disabled`], also [`Default`]) records
/// nothing and costs one branch per operation.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() { "Obs(enabled)" } else { "Obs(disabled)" })
    }
}

impl Obs {
    /// A recording handle with a fresh registry and trace buffer.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                next_span: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                counters: Mutex::new(HashMap::new()),
                gauges: Mutex::new(HashMap::new()),
                histograms: Mutex::new(HashMap::new()),
                live: live::Cells::default(),
            })),
        }
    }

    /// The no-op handle: every operation short-circuits.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span named `name`. The span times its region in all
    /// modes; only enabled handles retain a [`SpanRecord`] when it
    /// ends. The span's parent is the innermost span currently open on
    /// this thread (override with [`Span::with_parent`]).
    pub fn span(&self, name: &str) -> Span {
        let active = self.inner.as_ref().map(|inner| {
            let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
            let parent = SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                let parent = s.last().copied();
                s.push(id);
                parent
            });
            ActiveSpan {
                inner: Arc::clone(inner),
                id,
                parent,
                name: name.to_string(),
                attrs: Vec::new(),
            }
        });
        Span { start: Instant::now(), alloc_start: alloc::baseline(), active }
    }

    /// The counter registered under `name` (created on first use).
    /// Disabled handles return a no-op counter.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter::noop(),
            Some(inner) => {
                let mut reg = lock_or_recover(&inner.counters);
                let cell =
                    reg.entry(name.to_string()).or_insert_with(|| Arc::new(AtomicU64::new(0)));
                Counter(Some(Arc::clone(cell)))
            }
        }
    }

    /// The gauge registered under `name` (created on first use).
    /// Disabled handles return a no-op gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            None => Gauge::noop(),
            Some(inner) => {
                let mut reg = lock_or_recover(&inner.gauges);
                let cell =
                    reg.entry(name.to_string()).or_insert_with(|| Arc::new(AtomicI64::new(0)));
                Gauge(Some(Arc::clone(cell)))
            }
        }
    }

    /// The histogram registered under `name` (created on first use).
    /// Disabled handles return a no-op histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            None => Histogram::noop(),
            Some(inner) => {
                let mut reg = lock_or_recover(&inner.histograms);
                let cell = reg
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(metrics::HistogramCells::new()));
                Histogram(Some(Arc::clone(cell)))
            }
        }
    }

    /// Freezes the current state: completed spans (in start order) and
    /// every registered metric, names sorted. Disabled handles return
    /// an empty snapshot.
    ///
    /// A span whose parent is still open at snapshot time (e.g. a
    /// snapshot taken while a run is in flight) is surfaced as a root:
    /// every parent id in a snapshot resolves within it.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let mut spans = lock_or_recover(&inner.spans).clone();
        spans.sort_by_key(|s| (s.start_us, s.id));
        let recorded: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
        for s in &mut spans {
            if s.parent.is_some_and(|p| !recorded.contains(&p)) {
                s.parent = None;
            }
        }
        let mut counters: Vec<(String, u64)> = lock_or_recover(&inner.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, i64)> = lock_or_recover(&inner.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        gauges.sort();
        let mut histograms: Vec<(String, HistogramSnapshot)> = lock_or_recover(&inner.histograms)
            .iter()
            .map(|(k, cells)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        count: cells.count.load(Ordering::Relaxed),
                        sum: cells.sum.load(Ordering::Relaxed),
                        buckets: std::array::from_fn(|i| cells.buckets[i].load(Ordering::Relaxed)),
                    },
                )
            })
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot { spans, counters, gauges, histograms }
    }
}

/// The recording half of an open [`Span`] (absent in disabled mode).
#[derive(Debug)]
struct ActiveSpan {
    inner: Arc<Inner>,
    id: u64,
    parent: Option<u64>,
    name: String,
    attrs: Vec<(String, AttrValue)>,
}

/// An open span. Ends (and records, when enabled) on [`Span::end`] or
/// on drop; `end` additionally returns the measured duration, which
/// is how `RunStats` timings become a view over the trace.
#[derive(Debug)]
pub struct Span {
    start: Instant,
    alloc_start: alloc::AllocStats,
    active: Option<ActiveSpan>,
}

/// What ending a span measured: its duration, plus the thread's
/// allocation delta when the counting allocator is live. Returned by
/// [`Span::end_profiled`] so phase code can mirror both quantities
/// into `RunStats` without re-reading any counter.
#[derive(Debug, Clone, Copy)]
pub struct SpanClose {
    /// Wall-clock duration of the span.
    pub dur: Duration,
    /// Allocation attribution; `None` unless profiling is active.
    pub alloc: Option<AllocDelta>,
}

impl Span {
    /// Attaches an attribute (builder style).
    pub fn attr(mut self, key: &str, value: impl Into<AttrValue>) -> Self {
        self.set_attr(key, value);
        self
    }

    /// Attaches an attribute to an already-open span (e.g. an outcome
    /// known only at the end of the region).
    pub fn set_attr(&mut self, key: &str, value: impl Into<AttrValue>) {
        if let Some(active) = &mut self.active {
            active.attrs.push((key.to_string(), value.into()));
        }
    }

    /// Overrides the parent span id — for spans whose parent lives on
    /// another thread (the portfolio workers).
    pub fn with_parent(mut self, parent: u64) -> Self {
        if let Some(active) = &mut self.active {
            active.parent = Some(parent);
        }
        self
    }

    /// This span's id, for parenting cross-thread children. `None` in
    /// disabled mode.
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.id)
    }

    /// Elapsed time so far, without closing the span.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Ends the span, returning its duration. Enabled handles retain
    /// the [`SpanRecord`].
    pub fn end(self) -> Duration {
        self.end_profiled().dur
    }

    /// Ends the span, returning duration **and** the thread's
    /// allocation delta over the span ([`SpanClose`]). Identical to
    /// [`Span::end`] when profiling is inactive (`alloc` is `None`).
    pub fn end_profiled(mut self) -> SpanClose {
        let dur = self.start.elapsed();
        let alloc = alloc::measure(&self.alloc_start);
        self.finish(dur, alloc);
        SpanClose { dur, alloc }
    }

    fn finish(&mut self, dur: Duration, alloc: Option<AllocDelta>) {
        let Some(active) = self.active.take() else {
            return;
        };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == active.id) {
                s.remove(pos);
            }
        });
        let start_us = self.start.saturating_duration_since(active.inner.origin).as_micros() as u64;
        let record = SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            thread: THREAD_ORD.with(|t| *t),
            start_us,
            dur_us: dur.as_micros() as u64,
            attrs: active.attrs,
            alloc,
        };
        lock_or_recover(&active.inner.spans).push(record);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur = self.start.elapsed();
        let alloc = alloc::measure(&self.alloc_start);
        self.finish(dur, alloc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_nesting_tracks_parents_per_thread() {
        let obs = Obs::enabled();
        let a = obs.span("a");
        let b = obs.span("b");
        let c = obs.span("c");
        c.end();
        let c2 = obs.span("c2");
        c2.end();
        b.end();
        a.end();
        let snap = obs.snapshot();
        let by_name = |n: &str| snap.spans.iter().find(|s| s.name == n).expect(n);
        assert_eq!(by_name("a").parent, None);
        assert_eq!(by_name("b").parent, Some(by_name("a").id));
        assert_eq!(by_name("c").parent, Some(by_name("b").id));
        assert_eq!(by_name("c2").parent, Some(by_name("b").id), "stack popped after c ended");
    }

    #[test]
    fn sibling_threads_do_not_inherit_parents() {
        let obs = Obs::enabled();
        let root = obs.span("root");
        let root_id = root.id().expect("enabled span has an id");
        std::thread::scope(|scope| {
            let worker_obs = obs.clone();
            scope.spawn(move || {
                // A fresh thread has an empty span stack: no implicit
                // parent. The explicit override wires the hierarchy.
                let orphan = worker_obs.span("orphan");
                orphan.end();
                let child = worker_obs.span("child").with_parent(root_id);
                child.end();
            });
        });
        root.end();
        let snap = obs.snapshot();
        let by_name = |n: &str| snap.spans.iter().find(|s| s.name == n).expect(n);
        assert_eq!(by_name("orphan").parent, None);
        assert_eq!(by_name("child").parent, Some(root_id));
        assert_ne!(by_name("child").thread, by_name("root").thread);
    }

    #[test]
    fn dropped_spans_record_too() {
        let obs = Obs::enabled();
        {
            let _guard = obs.span("dropped");
        }
        assert_eq!(obs.snapshot().spans.len(), 1);
    }

    #[test]
    fn disabled_handle_measures_but_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let span = obs.span("phase");
        assert_eq!(span.id(), None);
        std::thread::sleep(Duration::from_millis(2));
        let dur = span.end();
        assert!(dur >= Duration::from_millis(1), "disabled spans still time: {dur:?}");
        obs.counter("c").add(5);
        obs.histogram("h").record(1);
        obs.gauge("g").set(2);
        obs.phase(live::Phase::Clustering).end();
        obs.add_nodes(1);
        assert!(obs.live().is_none());
        let snap = obs.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn registry_handles_are_shared_by_name() {
        let obs = Obs::enabled();
        obs.counter("x").add(2);
        obs.counter("x").add(3);
        assert_eq!(obs.counter("x").get(), 5);
        obs.gauge("y").set(7);
        assert_eq!(obs.gauge("y").get(), 7);
        obs.histogram("z").record(4);
        obs.histogram("z").record(5);
        assert_eq!(obs.histogram("z").count(), 2);
    }

    #[test]
    fn snapshot_orders_deterministically() {
        let obs = Obs::enabled();
        obs.counter("b").incr();
        obs.counter("a").incr();
        obs.gauge("g2").set(1);
        obs.gauge("g1").set(1);
        let snap = obs.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        let gauges: Vec<&str> = snap.gauges.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(gauges, ["g1", "g2"]);
    }

    #[test]
    fn snapshot_reroots_children_of_still_open_spans() {
        let obs = Obs::enabled();
        let parent = obs.span("parent");
        let sibling = obs.span("done-parent");
        let sibling_id = sibling.id();
        obs.span("inner").end(); // parents to "done-parent"
        sibling.end();
        // "parent" is still open: it has no record yet, so any child
        // snapshotted now must surface as a root.
        obs.span("orphan").end();
        let snap = obs.snapshot();
        let by_name = |n: &str| snap.spans.iter().find(|s| s.name == n).map(|s| s.parent);
        assert_eq!(by_name("orphan"), Some(None), "open parent remapped to root");
        assert_eq!(by_name("inner"), Some(sibling_id), "closed parents are kept");
        parent.end();
        let snap = obs.snapshot();
        let ids: Vec<u64> = snap.spans.iter().map(|s| s.id).collect();
        for s in &snap.spans {
            if let Some(p) = s.parent {
                assert!(ids.contains(&p), "every parent resolves after close");
            }
        }
    }

    #[test]
    fn stopwatch_measures() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed() >= Duration::from_millis(1));
    }
}
