//! Live, in-flight telemetry: the atomic cells an enabled [`Obs`]
//! handle carries next to its spans and metrics, a background
//! [`Sampler`] thread that snapshots them, derives rates and keeps the
//! latest tick, and a stall watchdog that flags runs whose node
//! counter stops advancing.
//!
//! ## Model
//!
//! * [`Obs::enabled`] allocates the cells and the pipeline publishes
//!   into them through `Obs` methods: the phase at each boundary
//!   ([`Obs::phase`], which also opens the phase's span), nodes and
//!   repairs each time `core::coloring` settles at a poll, components
//!   as the pool finishes them, and the constraint verdicts once the
//!   run returns ([`Obs::run_finished`]). A disabled handle has no
//!   cells, so every publish is the one branch every `Obs` operation
//!   pays, and the run stays byte-identical. Cells are plain atomics
//!   written with `Relaxed` stores; none of them appears in the trace
//!   or summary exports.
//! * Under a portfolio every member publishes into the caller's
//!   handle. Nodes and repairs add up across members (like
//!   `BudgetUsage::nodes_explored`); components done is the highest
//!   count any member reached, never more than the total; the
//!   verdicts and the final `Done` come once, from the returned result.
//! * [`Sampler::spawn`] starts a thread that sleeps on a configurable
//!   interval, snapshots the cells ([`Obs::live`]), folds the live
//!   allocator stats in ([`crate::alloc::global_stats`]), derives
//!   nodes/sec and repairs/sec from consecutive snapshots plus an ETA
//!   against the armed budget, hands the [`Sample`] to the optional
//!   per-tick callback (`diva --watch`), and stores it as the latest
//!   tick in the [`SampleLog`] that the stats endpoint
//!   ([`crate::serve`]) reads.
//! * The **watchdog** rides inside the sampler loop: when the node
//!   counter has not advanced for `stall_periods` consecutive samples
//!   while the search phase is active, it marks the run stalled and
//!   emits a `diva.stall` span event and an `obs.stall.detected`
//!   counter.
//!
//! Nothing reads the cells back into the computation, so enabling
//! them, or watching them, cannot change the published anonymization.
//!
//! [`Sampler`]: crate::live::Sampler
//! [`Sampler::spawn`]: crate::live::Sampler::spawn
//! [`Sample`]: crate::live::Sample
//! [`SampleLog`]: crate::live::SampleLog

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::provenance::{Provenance, StarAttribution};
use crate::{lock_or_recover, Obs, Span};

/// Pipeline phases published in the live cells, in code order.
///
/// The numeric codes are part of the stats-endpoint contract
/// (`diva_phase` in the Prometheus exposition, `live.phase_code` in
/// the JSON document) — see DESIGN.md §14.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Phase {
    /// No run in flight (the initial state).
    #[default]
    Idle,
    /// Graph build + diverse clustering search.
    Clustering,
    /// Suppression of clustered rows.
    Suppress,
    /// (k,Σ)-anonymization of the residual.
    Anonymize,
    /// Merging published blocks into the output relation.
    Integrate,
    /// Budget-exhausted degradation path.
    Degrade,
    /// Run finished (exact or degraded).
    Done,
}

/// Every phase, indexed by its code.
const PHASES: [Phase; 7] = [
    Phase::Idle,
    Phase::Clustering,
    Phase::Suppress,
    Phase::Anonymize,
    Phase::Integrate,
    Phase::Degrade,
    Phase::Done,
];

impl Phase {
    /// Stable numeric code for the exposition formats.
    pub fn code(self) -> u64 {
        self as u64
    }

    /// Inverse of [`Phase::code`]; unknown codes collapse to `Idle`.
    pub fn from_code(code: u64) -> Phase {
        PHASES.get(code as usize).copied().unwrap_or(Phase::Idle)
    }

    /// Lower-case label used in `diva_phase{phase="…"}`.
    pub fn as_str(self) -> &'static str {
        ["idle", "clustering", "suppress", "anonymize", "integrate", "degrade", "done"]
            [self as usize]
    }

    /// The span [`Obs::phase`] opens for this phase: `diva.<phase>`.
    fn span_name(self) -> &'static str {
        [
            "diva.idle",
            "diva.clustering",
            "diva.suppress",
            "diva.anonymize",
            "diva.integrate",
            "diva.degrade",
            "diva.done",
        ][self as usize]
    }

    /// Whether the watchdog should treat a static node counter in
    /// this phase as a stall. Only the search phase expands nodes;
    /// counting idle periods in any other phase would be a false
    /// positive by construction.
    pub fn watchdog_armed(self) -> bool {
        matches!(self, Phase::Clustering)
    }
}

/// The live cells of an enabled handle.
#[derive(Debug, Default)]
pub(crate) struct Cells {
    phase: AtomicU64,
    nodes: AtomicU64,
    repairs: AtomicU64,
    satisfied: AtomicU64,
    voided: AtomicU64,
    constraints_total: AtomicU64,
    components_done: AtomicU64,
    components_total: AtomicU64,
    node_limit: AtomicU64,
    deadline_ms: AtomicU64,
    alloc_bytes: AtomicI64,
    stalled: AtomicBool,
    constraint_stars: Mutex<Vec<(String, u64)>>,
}

/// Publishing and reading the live cells. Every method is a no-op
/// (reads return `None`/`false`) on a disabled handle.
impl Obs {
    fn cells(&self) -> Option<&Cells> {
        self.inner.as_deref().map(|inner| &inner.live)
    }

    /// Enters pipeline phase `phase`: publishes it and opens its
    /// `diva.<phase>` span (`diva.clustering`, `diva.suppress`, …).
    pub fn phase(&self, phase: Phase) -> Span {
        if let Some(c) = self.cells() {
            c.phase.store(phase.code(), Ordering::Relaxed);
        }
        self.span(phase.span_name())
    }

    /// Adds to the nodes-expanded cell (each time a colouring search
    /// settles its counts at a poll).
    pub fn add_nodes(&self, n: u64) {
        if let Some(c) = self.cells() {
            c.nodes.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds to the repair-attempts cell (alongside [`Obs::add_nodes`]).
    pub fn add_repairs(&self, n: u64) {
        if let Some(c) = self.cells() {
            c.repairs.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Publishes the size of the bound constraint set Σ.
    pub fn set_constraints_total(&self, n: u64) {
        if let Some(c) = self.cells() {
            c.constraints_total.store(n, Ordering::Relaxed);
        }
    }

    /// Publishes the armed budget limits: the node budget (if any)
    /// and the deadline (if any). Zero cells mean "unlimited" in the
    /// exposition.
    pub fn set_budget_limits(&self, node_limit: Option<u64>, deadline: Option<Duration>) {
        if let Some(c) = self.cells() {
            c.node_limit.store(node_limit.unwrap_or(0), Ordering::Relaxed);
            let ms = deadline.map_or(0, |d| d.as_millis() as u64);
            c.deadline_ms.store(ms, Ordering::Relaxed);
        }
    }

    /// Publishes how many connected components the solve decomposed
    /// into (1 for the monolithic path). Call it before the first
    /// [`Obs::components_done`] of the solve.
    pub fn set_components_total(&self, n: u64) {
        if let Some(c) = self.cells() {
            c.components_total.store(n, Ordering::Relaxed);
        }
    }

    /// Publishes that one solve has finished `done` components. The
    /// cell keeps the highest count any solve reached, so portfolio
    /// members solving the same decomposition never sum past the
    /// total. `Release` pairs with the `Acquire` read in [`Obs::live`]:
    /// a reader that sees the count also sees the total stored
    /// before it.
    pub fn components_done(&self, done: u64) {
        if let Some(c) = self.cells() {
            c.components_done.fetch_max(done, Ordering::Release);
        }
    }

    /// Publishes the end of a run: how many constraints its result
    /// satisfies and how many it voided, then phase `Done`. Called
    /// once per returned result, never by a portfolio member.
    pub fn run_finished(&self, satisfied: u64, voided: u64) {
        if let Some(c) = self.cells() {
            c.satisfied.store(satisfied, Ordering::Relaxed);
            c.voided.store(voided, Ordering::Relaxed);
            c.phase.store(Phase::Done.code(), Ordering::Relaxed);
        }
    }

    /// Publishes the star attribution of `provenance`'s log: the
    /// `provenance.constraint_stars.<label>` and
    /// `provenance.stars.{k_anonymity,degrade}` counters of the
    /// summary, and the per-constraint cell `/metrics` and
    /// `/stats.json` serve. No-op unless both handles are enabled.
    pub fn publish_attribution(&self, provenance: &Provenance) {
        let Some(c) = self.cells() else { return };
        let Some(log) = provenance.snapshot() else { return };
        let attr = StarAttribution::from_log(&log);
        for (label, stars) in log.labels.iter().zip(&attr.per_constraint) {
            self.counter(&format!("provenance.constraint_stars.{label}")).add(*stars);
        }
        self.counter("provenance.stars.k_anonymity").add(attr.k_anonymity);
        self.counter("provenance.stars.degrade").add(attr.degrade);
        *lock_or_recover(&c.constraint_stars) =
            log.labels.into_iter().zip(attr.per_constraint).collect();
    }

    /// Reads every cell into a consistent-enough view (individual
    /// loads; monotone counters may be mid-update, which the
    /// exposition tolerates). `None` when the handle is disabled.
    pub fn live(&self) -> Option<LiveSnapshot> {
        let inner = self.inner.as_deref()?;
        let c = &inner.live;
        // Before the total, so the view never shows more done than total.
        let components_done = c.components_done.load(Ordering::Acquire);
        Some(LiveSnapshot {
            phase: Phase::from_code(c.phase.load(Ordering::Relaxed)),
            nodes: c.nodes.load(Ordering::Relaxed),
            repairs: c.repairs.load(Ordering::Relaxed),
            satisfied: c.satisfied.load(Ordering::Relaxed),
            voided: c.voided.load(Ordering::Relaxed),
            constraints_total: c.constraints_total.load(Ordering::Relaxed),
            components_done,
            components_total: c.components_total.load(Ordering::Relaxed),
            node_limit: c.node_limit.load(Ordering::Relaxed),
            deadline_ms: c.deadline_ms.load(Ordering::Relaxed),
            live_alloc_bytes: c.alloc_bytes.load(Ordering::Relaxed),
            stalled: c.stalled.load(Ordering::Relaxed),
            elapsed_ms: inner.origin.elapsed().as_millis() as u64,
            constraint_stars: lock_or_recover(&c.constraint_stars).clone(),
        })
    }

    /// Sampler tick: the process's live heap bytes.
    fn set_alloc_bytes(&self, bytes: i64) {
        if let Some(c) = self.cells() {
            c.alloc_bytes.store(bytes, Ordering::Relaxed);
        }
    }

    /// Watchdog: sets or clears the stall flag.
    fn set_stalled(&self, stalled: bool) {
        if let Some(c) = self.cells() {
            c.stalled.store(stalled, Ordering::Relaxed);
        }
    }
}

/// A point-in-time view of every live cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LiveSnapshot {
    /// Current pipeline phase.
    pub phase: Phase,
    /// Search nodes expanded so far.
    pub nodes: u64,
    /// Repair attempts so far.
    pub repairs: u64,
    /// Constraints the returned result satisfies (0 until the run returns).
    pub satisfied: u64,
    /// Constraints the returned result voided (0 until the run returns).
    pub voided: u64,
    /// Size of the bound constraint set Σ.
    pub constraints_total: u64,
    /// Components solved so far.
    pub components_done: u64,
    /// Total components in the decomposition (0 before clustering).
    pub components_total: u64,
    /// Armed node budget (0 = unlimited).
    pub node_limit: u64,
    /// Armed deadline in ms (0 = none).
    pub deadline_ms: u64,
    /// Live allocation bytes (0 unless the counting allocator is
    /// installed and the sampler is running).
    pub live_alloc_bytes: i64,
    /// Watchdog stall flag.
    pub stalled: bool,
    /// Milliseconds since the handle was created.
    pub elapsed_ms: u64,
    /// Per-constraint star attribution `(label, stars)` published at
    /// run completion (empty until then, or without provenance).
    pub constraint_stars: Vec<(String, u64)>,
}

/// Sampler tuning knobs.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Sleep between samples. Default 100ms.
    pub interval: Duration,
    /// Consecutive idle samples (node counter static while the run
    /// is mid-search) before the watchdog declares a stall. Default 5.
    pub stall_periods: u32,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig { interval: Duration::from_millis(100), stall_periods: 5 }
    }
}

/// One sampler tick: the live cells plus derived quantities.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The live cells at this tick.
    pub live: LiveSnapshot,
    /// Node-expansion rate over the last inter-sample window.
    pub nodes_per_sec: f64,
    /// Repair rate over the last inter-sample window.
    pub repairs_per_sec: f64,
    /// Projected ms until the node budget is exhausted at the current
    /// rate (`None` without a node budget or while the rate is zero).
    pub eta_ms: Option<u64>,
    /// Ms left before the armed deadline (`None` without one).
    pub deadline_remaining_ms: Option<u64>,
    /// Consecutive idle periods the watchdog has counted at this tick.
    pub idle_periods: u32,
}

impl Sample {
    /// The one-line rendering `diva --watch` prints per sample.
    pub fn watch_line(&self) -> String {
        let b = &self.live;
        let mut line = format!(
            "[live +{:>6}ms] phase={:<10} nodes={} ({:.0}/s) repairs={} ({:.0}/s)",
            b.elapsed_ms,
            b.phase.as_str(),
            b.nodes,
            self.nodes_per_sec,
            b.repairs,
            self.repairs_per_sec,
        );
        if b.components_total > 0 {
            line.push_str(&format!(" comps={}/{}", b.components_done, b.components_total));
        }
        if b.constraints_total > 0 {
            line.push_str(&format!(" sigma={}+{}/{}", b.satisfied, b.voided, b.constraints_total));
        }
        if b.live_alloc_bytes != 0 {
            line.push_str(&format!(" live_alloc={}B", b.live_alloc_bytes));
        }
        match (self.eta_ms, self.deadline_remaining_ms) {
            (Some(eta), Some(rem)) => line.push_str(&format!(" eta={eta}ms/deadline={rem}ms")),
            (Some(eta), None) => line.push_str(&format!(" eta={eta}ms")),
            (None, Some(rem)) => line.push_str(&format!(" deadline={rem}ms")),
            (None, None) => {}
        }
        if b.stalled {
            line.push_str(" STALLED");
        }
        line
    }
}

#[derive(Debug, Default)]
struct LogInner {
    latest: Option<Sample>,
    total: u64,
    stalls_flagged: u64,
}

/// The sampler's latest [`Sample`] plus its lifetime counts — the
/// hand-off point between the sampler thread and its readers (the
/// stats endpoint, tests). The default is an empty log, for serving a
/// handle that has no sampler attached; [`Sampler::spawn`] creates
/// the one it writes.
#[derive(Debug, Clone, Default)]
pub struct SampleLog {
    inner: Arc<Mutex<LogInner>>,
}

impl SampleLog {
    fn push(&self, sample: Sample, stalled_now: bool) {
        let mut g = lock_or_recover(&self.inner);
        g.latest = Some(sample);
        g.total += 1;
        g.stalls_flagged += u64::from(stalled_now);
    }

    /// The most recent sample, if any tick has happened yet.
    pub fn latest(&self) -> Option<Sample> {
        lock_or_recover(&self.inner).latest.clone()
    }

    /// Lifetime tick count.
    pub fn total_samples(&self) -> u64 {
        lock_or_recover(&self.inner).total
    }

    /// How many distinct stall episodes the watchdog has flagged.
    pub fn stalls_flagged(&self) -> u64 {
        lock_or_recover(&self.inner).stalls_flagged
    }
}

/// Per-sample callback used by `diva --watch` (runs on the sampler
/// thread; keep it cheap).
pub type OnSample = Box<dyn Fn(&Sample) + Send>;

/// The background sampling thread. Stops (and joins) on
/// [`Sampler::stop`] or drop.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    log: SampleLog,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler").field("running", &self.handle.is_some()).finish()
    }
}

impl Sampler {
    /// Starts the sampler thread over `obs`'s live cells, recording
    /// stall events on the same handle and invoking `on_sample` after
    /// every tick. Over a disabled handle the thread exits at its
    /// first tick.
    pub fn spawn(obs: &Obs, config: SamplerConfig, on_sample: Option<OnSample>) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let log = SampleLog::default();
        let thread_stop = Arc::clone(&stop);
        let thread_obs = obs.clone();
        let thread_log = log.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "a daemon: `Sampler` joins it on stop and on drop"
        )]
        let handle = std::thread::spawn(move || {
            sampler_loop(&thread_obs, &config, &thread_log, on_sample, &thread_stop);
        });
        Sampler { stop, handle: Some(handle), log }
    }

    /// A cloneable reader over the latest sample and the tick counts.
    pub fn log(&self) -> SampleLog {
        self.log.clone()
    }

    /// Signals the thread and joins it (also runs on drop).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn sampler_loop(
    obs: &Obs,
    config: &SamplerConfig,
    log: &SampleLog,
    on_sample: Option<OnSample>,
    stop: &AtomicBool,
) {
    let mut prev: Option<LiveSnapshot> = None;
    let mut idle_periods: u32 = 0;
    let mut stall_latched = false;
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(config.interval);
        obs.set_alloc_bytes(crate::alloc::global_stats().live_bytes);
        let Some(snap) = obs.live() else { return };
        let (nodes_per_sec, repairs_per_sec) = match &prev {
            Some(p) if snap.elapsed_ms > p.elapsed_ms => {
                let dt = (snap.elapsed_ms - p.elapsed_ms) as f64 / 1000.0;
                (
                    snap.nodes.saturating_sub(p.nodes) as f64 / dt,
                    snap.repairs.saturating_sub(p.repairs) as f64 / dt,
                )
            }
            _ => (0.0, 0.0),
        };
        // Watchdog: count consecutive samples where the search is
        // live but the node counter is frozen. `nodes > 0` gates the
        // count so candidate generation — which runs inside the
        // clustering phase before the first assignment — cannot trip
        // it; the gate opens at the first settled poll.
        let advanced = prev.as_ref().map(|p| snap.nodes > p.nodes).unwrap_or(snap.nodes > 0);
        if snap.phase.watchdog_armed() && snap.nodes > 0 && !advanced {
            idle_periods += 1;
        } else {
            idle_periods = 0;
            if stall_latched {
                stall_latched = false;
                obs.set_stalled(false);
            }
        }
        let mut flagged_now = false;
        if idle_periods >= config.stall_periods && !stall_latched {
            stall_latched = true;
            flagged_now = true;
            obs.set_stalled(true);
            obs.counter("obs.stall.detected").incr();
            obs.span("diva.stall")
                .attr("nodes", snap.nodes)
                .attr("idle_periods", u64::from(idle_periods))
                .attr("phase", snap.phase.as_str())
                .end();
        }
        let snap = match obs.live() {
            // Re-read so the sample reflects the stall flag we just set.
            Some(s) if flagged_now => s,
            _ => snap,
        };
        let eta_ms = if snap.node_limit > 0 && nodes_per_sec > 0.0 {
            let remaining = snap.node_limit.saturating_sub(snap.nodes) as f64;
            Some((remaining / nodes_per_sec * 1000.0) as u64)
        } else {
            None
        };
        let deadline_remaining_ms = if snap.deadline_ms > 0 {
            Some(snap.deadline_ms.saturating_sub(snap.elapsed_ms))
        } else {
            None
        };
        let sample = Sample {
            live: snap.clone(),
            nodes_per_sec,
            repairs_per_sec,
            eta_ms,
            deadline_remaining_ms,
            idle_periods,
        };
        if let Some(cb) = &on_sample {
            cb(&sample);
        }
        log.push(sample, flagged_now);
        prev = Some(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::{Cause, CellRecord, GroupOrigin, GroupRecord, Log};
    use crate::Stopwatch;

    fn watchdog(interval_ms: u64, stall_periods: u32) -> SamplerConfig {
        SamplerConfig { interval: Duration::from_millis(interval_ms), stall_periods }
    }

    #[test]
    fn phase_codes_round_trip() {
        for phase in PHASES {
            assert_eq!(Phase::from_code(phase.code()), phase);
            assert_eq!(phase.span_name(), format!("diva.{}", phase.as_str()));
        }
        assert_eq!(Phase::from_code(99), Phase::Idle);
    }

    #[test]
    fn a_phase_boundary_publishes_the_phase_and_opens_its_span() {
        let obs = Obs::enabled();
        obs.phase(Phase::Suppress).end();
        assert_eq!(obs.live().expect("enabled").phase, Phase::Suppress);
        assert_eq!(obs.snapshot().spans[0].name, "diva.suppress");
        obs.run_finished(3, 1);
        let snap = obs.live().expect("enabled");
        assert_eq!((snap.phase, snap.satisfied, snap.voided), (Phase::Done, 3, 1));
        // The cells stay out of the exports.
        assert!(obs.snapshot().counters.is_empty() && obs.snapshot().gauges.is_empty());
    }

    #[test]
    fn snapshot_is_consistent_under_eight_concurrent_publishers() {
        let obs = Obs::enabled();
        obs.phase(Phase::Clustering).end();
        obs.set_components_total(8);
        const PER_THREAD: u64 = 20_000;
        std::thread::scope(|s| {
            for member in 1..=8 {
                let o = obs.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        o.add_nodes(1);
                        if i % 64 == 0 {
                            o.add_repairs(1);
                        }
                    }
                    // Each publisher reports its own count, like a
                    // portfolio member solving the same components.
                    o.components_done(member);
                });
            }
            // Concurrent reader: totals must be monotone and bounded.
            let reader = obs.clone();
            s.spawn(move || {
                let mut last_nodes = 0u64;
                for _ in 0..200 {
                    let snap = reader.live().expect("enabled handle reads");
                    assert!(snap.nodes >= last_nodes, "nodes counter went backwards");
                    assert!(snap.nodes <= 8 * PER_THREAD);
                    assert!(snap.components_done <= snap.components_total);
                    last_nodes = snap.nodes;
                }
            });
        });
        let snap = obs.live().expect("enabled handle reads");
        assert_eq!(snap.nodes, 8 * PER_THREAD);
        assert_eq!(snap.repairs, 8 * PER_THREAD.div_ceil(64));
        assert_eq!((snap.components_done, snap.components_total), (8, 8));
        assert_eq!(snap.phase, Phase::Clustering);
    }

    #[test]
    fn budget_limits_publish_and_clear() {
        let obs = Obs::enabled();
        obs.set_budget_limits(Some(1_000), Some(Duration::from_millis(250)));
        let snap = obs.live().expect("read");
        assert_eq!((snap.node_limit, snap.deadline_ms), (1_000, 250));
        obs.set_budget_limits(None, None);
        let snap = obs.live().expect("read");
        assert_eq!((snap.node_limit, snap.deadline_ms), (0, 0));
    }

    #[test]
    fn attribution_publishes_counters_and_the_live_cell_at_once() {
        let cell = |row, col, cause| CellRecord { row, col, group: 0, cause };
        let prov = Provenance::enabled();
        prov.install(Log {
            k: 2,
            n_rows: 4,
            labels: vec!["ETH[Asian]".to_string(), "JOB[Nurse]".to_string()],
            groups: vec![GroupRecord {
                id: 0,
                origin: GroupOrigin::Sigma,
                owners: vec![0],
                rows: vec![0, 1],
            }],
            cells: vec![
                cell(0, 0, Cause::Sigma { constraint: 0 }),
                cell(1, 0, Cause::Sigma { constraint: 0 }),
                cell(1, 1, Cause::KAnonymity),
            ],
        });
        let obs = Obs::enabled();
        assert!(obs.live().expect("read").constraint_stars.is_empty());
        obs.publish_attribution(&prov);
        assert_eq!(
            obs.live().expect("read").constraint_stars,
            vec![("ETH[Asian]".to_string(), 2), ("JOB[Nurse]".to_string(), 0)]
        );
        let snap = obs.snapshot();
        assert_eq!(snap.counter("provenance.constraint_stars.ETH[Asian]"), Some(2));
        assert_eq!(snap.counter("provenance.constraint_stars.JOB[Nurse]"), Some(0));
        assert_eq!(snap.counter("provenance.stars.k_anonymity"), Some(1));
        assert_eq!(snap.counter("provenance.stars.degrade"), Some(0));
        // Nothing to publish without a recording provenance handle.
        let bare = Obs::enabled();
        bare.publish_attribution(&Provenance::disabled());
        assert!(bare.snapshot().counters.is_empty());
    }

    #[test]
    fn watchdog_trips_on_a_frozen_counter() {
        let obs = Obs::enabled();
        obs.phase(Phase::Clustering).end();
        obs.add_nodes(100); // advanced once, then frozen
        let sampler = Sampler::spawn(&obs, watchdog(5, 3), None);
        let log = sampler.log();
        let deadline = Stopwatch::start();
        while log.stalls_flagged() == 0 && deadline.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        sampler.stop();
        assert!(log.stalls_flagged() >= 1, "watchdog never tripped");
        assert!(obs.live().expect("read").stalled);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("obs.stall.detected"), Some(log.stalls_flagged()));
        assert!(
            snap.spans.iter().any(|s| s.name == "diva.stall"),
            "stall span event missing: {:?}",
            snap.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn watchdog_ignores_a_slow_but_advancing_run() {
        // A publisher that adds one node every 2ms is "slow" but never
        // idle across a 20ms sampling window — the watchdog must not
        // fire even with a tight period threshold.
        let obs = Obs::enabled();
        obs.phase(Phase::Clustering).end();
        let sampler = Sampler::spawn(&obs, watchdog(20, 2), None);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    obs.add_nodes(1);
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
            std::thread::sleep(Duration::from_millis(300));
            stop.store(true, Ordering::Relaxed);
        });
        let log = sampler.log();
        sampler.stop();
        assert_eq!(log.stalls_flagged(), 0, "false positive on an advancing run");
        assert!(!obs.live().expect("read").stalled);
        assert_eq!(obs.snapshot().counter("obs.stall.detected"), None);
    }

    #[test]
    fn watchdog_is_disarmed_outside_the_search_phase() {
        // A frozen counter during integrate/suppress is normal; only
        // the clustering search arms the watchdog.
        let obs = Obs::enabled();
        obs.phase(Phase::Integrate).end();
        obs.add_nodes(5);
        let sampler = Sampler::spawn(&obs, watchdog(5, 2), None);
        std::thread::sleep(Duration::from_millis(100));
        let log = sampler.log();
        sampler.stop();
        assert_eq!(log.stalls_flagged(), 0);
        assert!(!obs.live().expect("read").stalled);
    }

    #[test]
    fn watchdog_waits_for_the_first_expanded_node() {
        // Candidate generation runs inside the clustering phase with
        // the node counter still at zero — a long generation must not
        // read as a stall; the count only starts once nodes > 0.
        let obs = Obs::enabled();
        obs.phase(Phase::Clustering).end();
        let sampler = Sampler::spawn(&obs, watchdog(5, 2), None);
        std::thread::sleep(Duration::from_millis(100));
        let log = sampler.log();
        sampler.stop();
        assert_eq!(log.stalls_flagged(), 0, "tripped before the search expanded anything");
        assert!(!obs.live().expect("read").stalled);
    }

    #[test]
    fn sampler_derives_rates_and_eta() {
        let obs = Obs::enabled();
        obs.phase(Phase::Clustering).end();
        obs.set_budget_limits(Some(1_000_000), Some(Duration::from_secs(3600)));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&samples);
        let on_sample: OnSample = Box::new(move |s| lock_or_recover(&sink).push(s.clone()));
        let sampler = Sampler::spawn(&obs, watchdog(10, 1000), Some(on_sample));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    obs.add_nodes(50);
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            std::thread::sleep(Duration::from_millis(200));
            stop.store(true, Ordering::Relaxed);
        });
        let log = sampler.log();
        sampler.stop();
        let samples = lock_or_recover(&samples);
        let rated = samples.iter().find(|s| s.nodes_per_sec > 0.0);
        let sample = rated.expect("at least one sample with a positive node rate");
        assert!(sample.eta_ms.is_some(), "node budget is armed, ETA expected");
        assert!(
            sample.deadline_remaining_ms.expect("deadline armed") <= 3_600_000,
            "remaining time cannot exceed the deadline"
        );
        assert_eq!(log.total_samples(), samples.len() as u64);
        let last = samples.last().map(|s| s.live.elapsed_ms);
        assert_eq!(log.latest().map(|s| s.live.elapsed_ms), last, "the log keeps the last tick");
    }

    #[test]
    fn watch_line_renders_the_interesting_cells() {
        let sample = Sample {
            live: LiveSnapshot {
                phase: Phase::Anonymize,
                nodes: 1234,
                repairs: 7,
                satisfied: 40,
                voided: 2,
                constraints_total: 50,
                components_done: 3,
                components_total: 12,
                live_alloc_bytes: 4096,
                stalled: true,
                elapsed_ms: 250,
                ..LiveSnapshot::default()
            },
            nodes_per_sec: 100.0,
            repairs_per_sec: 1.0,
            eta_ms: Some(500),
            deadline_remaining_ms: Some(750),
            idle_periods: 0,
        };
        let line = sample.watch_line();
        for part in [
            "phase=anonymize",
            "nodes=1234",
            "comps=3/12",
            "sigma=40+2/50",
            "eta=500ms/deadline=750ms",
        ] {
            assert!(line.contains(part), "{part} missing: {line}");
        }
        assert!(line.contains("STALLED"), "{line}");
    }

    #[test]
    fn on_sample_callback_fires_per_tick() {
        let obs = Obs::enabled();
        obs.phase(Phase::Clustering).end();
        let counted = Arc::new(AtomicU64::new(0));
        let cb_count = Arc::clone(&counted);
        let on_sample: OnSample = Box::new(move |_s| {
            cb_count.fetch_add(1, Ordering::Relaxed);
        });
        let sampler = Sampler::spawn(&obs, watchdog(5, 1000), Some(on_sample));
        let deadline = Stopwatch::start();
        while counted.load(Ordering::Relaxed) < 3 && deadline.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let log = sampler.log();
        sampler.stop();
        assert!(counted.load(Ordering::Relaxed) >= 3);
        assert_eq!(log.total_samples(), counted.load(Ordering::Relaxed));
    }

    #[test]
    fn sampler_over_a_disabled_handle_exits() {
        let sampler = Sampler::spawn(&Obs::disabled(), watchdog(1, 1000), None);
        let log = sampler.log();
        sampler.stop();
        assert_eq!(log.total_samples(), 0);
    }
}
