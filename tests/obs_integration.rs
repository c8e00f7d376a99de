//! Workspace-level observability tests: trace completeness of a full
//! pipeline run, byte-identical output with obs on vs off, and a
//! counted check that the disabled handle records and allocates
//! nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use diva_constraints::Constraint;
use diva_core::{Diva, DivaConfig, Strategy};
use diva_obs::{json, Obs};
use diva_relation::Relation;

/// Counts the bytes each thread allocates, so a test can assert an
/// exact figure for its own thread while other tests run in parallel.
/// It is not `diva_obs::alloc::CountingAlloc`: that one exists only
/// under the `alloc-profile` feature, and installing it would turn on
/// the memory attribution `enabled_and_disabled_obs_agree_byte_for_byte`
/// checks is off.
struct ThreadCountingAlloc;

thread_local! {
    static THREAD_ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: both methods forward verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell`, so bumping it never allocates or recurses.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: allocations during thread teardown go uncounted.
        let _ = THREAD_ALLOCATED.try_with(|n| n.set(n.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: ThreadCountingAlloc = ThreadCountingAlloc;

/// Bytes allocated so far by the calling thread.
fn thread_allocated() -> u64 {
    THREAD_ALLOCATED.with(Cell::get)
}

fn workload() -> (Relation, Vec<Constraint>) {
    let rel = diva_datagen::medical(400, 7);
    let sigma = diva_constraints::generators::proportional(&rel, 5, 0.7, 20);
    (rel, sigma)
}

fn run_with(obs: Obs) -> diva_core::DivaResult {
    let (rel, sigma) = workload();
    let config = DivaConfig { k: 5, strategy: Strategy::MaxFanOut, obs, ..DivaConfig::default() };
    Diva::new(config).run(&rel, &sigma).expect("workload solves")
}

/// Every phase of the pipeline must appear in the exported trace, the
/// trace must be valid JSON-lines, and the summary must aggregate the
/// same spans — the same contract `trace-check` enforces in check.sh.
#[test]
fn full_run_trace_is_complete_and_parses() {
    let obs = Obs::enabled();
    run_with(obs.clone());
    let snapshot = obs.snapshot();

    let trace = snapshot.trace_jsonl();
    let mut names = Vec::new();
    for line in trace.lines() {
        let v = json::parse(line).expect("trace line parses");
        assert_eq!(v.get("type").and_then(|t| t.as_str()), Some("span"));
        if let Some(name) = v.get("name").and_then(|n| n.as_str()) {
            names.push(name.to_string());
        }
    }
    for required in
        ["diva.run", "diva.clustering", "diva.suppress", "diva.anonymize", "diva.integrate"]
    {
        assert!(names.iter().any(|n| n == required), "trace lacks {required}");
    }

    let summary = json::parse(&snapshot.summary_json()).expect("summary parses");
    let spans = summary.get("spans").expect("spans section");
    assert!(spans.get("diva.run").is_some(), "summary lacks diva.run");
    let counters = summary.get("counters").expect("counters section");
    assert!(
        counters.get("coloring.MaxFanOut.node_selections").is_some(),
        "summary lacks per-strategy colouring counters"
    );
    let histograms = summary.get("histograms").expect("histograms section");
    assert!(histograms.get("cluster.size").is_some(), "summary lacks cluster.size");
}

/// Enabling tracing must not perturb the published relation: the obs
/// handle only observes, all decisions flow from `DivaConfig::seed`.
#[test]
fn enabled_and_disabled_obs_agree_byte_for_byte() {
    let obs = Obs::enabled();
    let plain = run_with(Obs::disabled());
    let traced = run_with(obs.clone());
    assert_eq!(format!("{:?}", plain.relation), format!("{:?}", traced.relation));
    assert_eq!(plain.groups, traced.groups);
    assert_eq!(plain.source_rows, traced.source_rows);
    assert_eq!(plain.stats.coloring, traced.stats.coloring);
    // Without an installed counting allocator (this test binary has
    // none), memory attribution stays off: no per-phase totals in the
    // stats and no alloc fields in the exports, so the trace and
    // summary stay byte-identical to the pre-profiling schema.
    assert!(plain.stats.alloc.is_none(), "disabled obs must not attribute memory");
    assert!(traced.stats.alloc.is_none(), "no allocator installed, alloc must be None");
    let snapshot = obs.snapshot();
    assert!(
        !snapshot.trace_jsonl().contains("alloc_bytes"),
        "trace must omit alloc fields without a counting allocator"
    );
    assert!(
        !snapshot.summary_json().contains("alloc_bytes"),
        "summary must omit alloc totals without a counting allocator"
    );
}

/// Live telemetry must be observational only: a run with an enabled
/// progress board (sampler attached, exactly what `--stats-addr` and
/// `--watch` wire up) publishes the same relation, groups, and search
/// stats as the plain run, and the board's final counters agree with
/// the search's own statistics.
#[test]
fn enabled_board_keeps_output_byte_identical() {
    let (rel, sigma) = workload();
    let run_with_board = |board: diva_obs::live::ProgressBoard| {
        let config =
            DivaConfig { k: 5, strategy: Strategy::MaxFanOut, board, ..DivaConfig::default() };
        Diva::new(config).run(&rel, &sigma).expect("workload solves")
    };
    let plain = run_with_board(diva_obs::live::ProgressBoard::disabled());
    let board = diva_obs::live::ProgressBoard::enabled();
    let sampler = diva_obs::live::Sampler::spawn(
        &board,
        &Obs::disabled(),
        diva_obs::live::SamplerConfig {
            interval: std::time::Duration::from_millis(1),
            ..diva_obs::live::SamplerConfig::default()
        },
        None,
    );
    let live = run_with_board(board.clone());
    sampler.stop();
    assert_eq!(format!("{:?}", plain.relation), format!("{:?}", live.relation));
    assert_eq!(plain.groups, live.groups);
    assert_eq!(plain.source_rows, live.source_rows);
    assert_eq!(plain.stats.coloring, live.stats.coloring);
    let snap = board.read().expect("enabled board snapshots");
    assert_eq!(snap.phase, diva_obs::live::Phase::Done);
    assert_eq!(snap.nodes, live.stats.coloring.assignments_tried, "board nodes == search nodes");
    assert_eq!(snap.satisfied, sigma.len() as u64, "exact run satisfies all of sigma");
    assert_eq!(snap.voided, 0);
    assert!(!snap.stalled, "a healthy run must not be flagged");
}

/// The disabled handle is free: a full run through it leaves nothing
/// to export, and no obs operation on it allocates. Both are counted,
/// not timed, so the test holds on any host; the wall-clock overhead
/// is measured by `obs_overhead` in `BENCH_diva.json`.
#[test]
fn disabled_obs_records_nothing_and_allocates_nothing() {
    let obs = Obs::disabled();
    run_with(obs.clone());
    let snapshot = obs.snapshot();
    assert!(snapshot.spans.is_empty(), "disabled obs recorded spans");
    assert!(snapshot.counters.is_empty() && snapshot.gauges.is_empty());
    assert!(snapshot.histograms.is_empty());
    assert!(snapshot.trace_jsonl().is_empty());

    let board = diva_obs::live::ProgressBoard::disabled();
    let before = thread_allocated();
    for i in 0..1_000u64 {
        let mut span = obs.span("diva.run").attr("rows", i).attr("strategy", "MaxFanOut");
        let child = obs.span("coloring.solve").with_parent(i);
        obs.counter("coloring.MaxFanOut.assignments_tried").add(i);
        obs.gauge("live.nodes").set(i as i64);
        obs.histogram("cluster.size").record(i);
        board.add_nodes(1);
        board.add_repairs(1);
        span.set_attr("ok", true);
        child.end();
        span.end_profiled();
    }
    assert_eq!(thread_allocated() - before, 0, "the disabled path allocated");
    // The counter does see this thread's allocations.
    let probe = std::hint::black_box(Vec::<u8>::with_capacity(64));
    assert!(thread_allocated() - before >= 64);
    drop(probe);
}
