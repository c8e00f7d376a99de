//! Workspace-level observability tests: trace completeness of a full
//! pipeline run, byte-identical output with obs on vs off, a counted
//! check that the disabled handle records and allocates nothing, and
//! one run's numbers agreeing across every surface that reports them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use diva_constraints::{generators, Constraint};
use diva_core::{BudgetSpec, DegradeReason, Diva, DivaConfig, Strategy};
use diva_obs::live::{Phase, Sampler, SamplerConfig};
use diva_obs::serve::{http_get, parse_prometheus, StatsServer};
use diva_obs::{json, Obs, Provenance};
use diva_relation::Relation;
use proptest::prelude::*;

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
#[expect(unsafe_code, reason = "a test allocator must implement `GlobalAlloc`")]
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
/// same spans.
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

/// Live telemetry must be observational only: a run whose handle has
/// a sampler attached (exactly what `--stats-addr` and `--watch` wire
/// up) publishes the same relation, groups, and search stats as the
/// plain run, and the live cells' final values agree with the search's
/// own statistics.
#[test]
fn enabled_board_keeps_output_byte_identical() {
    let obs = Obs::enabled();
    let sampler = Sampler::spawn(
        &obs,
        SamplerConfig { interval: Duration::from_millis(1), ..SamplerConfig::default() },
        None,
    );
    let plain = run_with(Obs::disabled());
    let live = run_with(obs.clone());
    sampler.stop();
    let sigma = workload().1;
    assert_eq!(format!("{:?}", plain.relation), format!("{:?}", live.relation));
    assert_eq!(plain.groups, live.groups);
    assert_eq!(plain.source_rows, live.source_rows);
    assert_eq!(plain.stats.coloring, live.stats.coloring);
    let snap = obs.live().expect("enabled handle snapshots");
    assert_eq!(snap.phase, Phase::Done);
    assert_eq!(snap.nodes, live.stats.coloring.assignments_tried, "live nodes == search nodes");
    assert_eq!(snap.satisfied, sigma.len() as u64, "exact run satisfies all of sigma");
    assert_eq!(snap.voided, 0);
    assert!(!snap.stalled, "a healthy run must not be flagged");
}

/// The disabled handle is free: a full run through it leaves nothing
/// to export, and no obs operation on it allocates. Both are counted,
/// not timed, so the test holds on any host. (`obs_overhead` in
/// `BENCH_diva.json` samples the enabled handle's cost instead.)
#[test]
fn disabled_obs_records_nothing_and_allocates_nothing() {
    let obs = Obs::disabled();
    run_with(obs.clone());
    let snapshot = obs.snapshot();
    assert!(snapshot.spans.is_empty(), "disabled obs recorded spans");
    assert!(snapshot.counters.is_empty() && snapshot.gauges.is_empty());
    assert!(snapshot.histograms.is_empty());
    assert!(snapshot.trace_jsonl().is_empty());

    let before = thread_allocated();
    for i in 0..1_000u64 {
        let mut span = obs.span("diva.run").attr("rows", i).attr("strategy", "MaxFanOut");
        let child = obs.span("coloring.solve").with_parent(i);
        obs.counter("coloring.MaxFanOut.assignments_tried").add(i);
        obs.gauge("live.nodes").set(i as i64);
        obs.histogram("cluster.size").record(i);
        obs.phase(Phase::Clustering).end();
        obs.add_nodes(1);
        obs.add_repairs(1);
        obs.components_done(i);
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

/// One run, every recorder on: the summary JSON, `RunStats`, budget
/// usage, the provenance log and both stats-endpoint routes must
/// report the same nodes, repairs, stars, per-constraint stars and
/// verdicts. Runs once per `sigma-gen` class, plus once with a node cap
/// below what Basic needs, so the degraded path (and the degrade
/// reason's node count) is covered too; everything is read after the
/// run returns, so nothing depends on timing.
#[test]
fn every_surface_reports_the_same_numbers() {
    let rel = diva_datagen::medical(4_000, 7);
    let exact = |class, sigma| (class, sigma, Strategy::MaxFanOut, None, 1u64 << 40);
    // One thread, so the degraded run's components share the budget
    // one after another and the trip point is exact.
    let capped_cap = 2_000;
    for (class, sigma, strategy, threads, cap) in [
        exact("proportional", generators::proportional(&rel, 5, 0.7, 20)),
        exact("minfreq", generators::min_frequency(&rel, 5, 0.3, 20)),
        exact("average", generators::average(&rel, 5, 0.7, 20)),
        exact("islands", generators::islands(&rel, 4, 3, 0.8, 20)),
        (
            "capped",
            generators::proportional(&rel, 5, 0.7, 20),
            Strategy::Basic,
            Some(1),
            capped_cap,
        ),
    ] {
        let obs = Obs::enabled();
        let provenance = Provenance::enabled();
        let sampler = Sampler::spawn(&obs, SamplerConfig::default(), None);
        let server = StatsServer::bind("127.0.0.1:0", obs.clone(), sampler.log()).expect("bind");
        let config = DivaConfig {
            k: 5,
            strategy,
            threads,
            obs: obs.clone(),
            provenance: provenance.clone(),
            budget: BudgetSpec::with_node_budget(cap),
            ..DivaConfig::default()
        };
        let out = Diva::new(config).run(&rel, &sigma).unwrap_or_else(|e| panic!("{class}: {e}"));
        obs.publish_attribution(&provenance);
        let get = |path: &str| http_get(&server.local_addr(), path, Duration::from_secs(5));
        let (status, prom) = get("/metrics").expect("GET /metrics");
        assert!(status.contains("200"), "{class}: {status}");
        let prom = parse_prometheus(&prom).expect("exposition parses");
        let (status, stats) = get("/stats.json").expect("GET /stats.json");
        assert!(status.contains("200"), "{class}: {status}");
        let stats = json::parse(&stats).expect("/stats.json parses");
        server.shutdown();
        sampler.stop();
        let summary = json::parse(&obs.snapshot().summary_json()).expect("summary parses");

        let prom_value = |name: &str, label: Option<&str>| {
            prom.iter()
                .find(|s| s.name == name && label.is_none_or(|l| s.label("constraint") == Some(l)))
                .map(|s| s.value as u64)
        };
        let num = |doc: &json::Value, section: &str, key: &str| {
            doc.get(section)
                .and_then(|s| s.get(key))
                .and_then(json::Value::as_num)
                .map(|n| n as u64)
        };
        // Σ over every strategy's `coloring.<Strategy>.<field>` counter.
        let summed = |field: &str| match summary.get("counters") {
            Some(json::Value::Obj(counters)) => counters
                .iter()
                .filter(|(k, _)| k.starts_with("coloring.") && k.ends_with(field))
                .filter_map(|(_, v)| v.as_num())
                .sum::<f64>() as u64,
            _ => panic!("summary has no counters"),
        };

        let nodes = out.stats.coloring.assignments_tried;
        assert_eq!(summed(".assignments_tried"), nodes, "{class}: summary nodes");
        assert_eq!(num(&stats, "counters", "live.nodes_expanded"), Some(nodes), "{class}");
        assert_eq!(prom_value("diva_nodes_expanded_total", None), Some(nodes), "{class}");
        let budget = out.stats.budget.expect("an armed budget reports usage");
        assert_eq!(budget.nodes_explored, nodes, "{class}: budget nodes");
        assert_eq!(num(&stats, "gauges", "live.node_limit"), Some(cap), "{class}: node limit");
        match out.outcome.degrade_reason() {
            None => assert_ne!(cap, capped_cap, "{class}: the cap below the search's need held"),
            Some(reason) => {
                assert_eq!(cap, capped_cap, "{class}: degraded: {reason}");
                let explored = nodes;
                assert_eq!(reason, &DegradeReason::NodeBudgetExhausted { explored, cap });
                assert_eq!(nodes, cap + 1, "{class}: the cap trips at exactly cap + 1");
                assert_eq!(num(&summary, "counters", "budget.exhausted.nodes"), Some(1));
            }
        }

        let repairs = out.stats.coloring.repair_attempts;
        assert_eq!(summed(".repair_attempts"), repairs, "{class}: summary repairs");
        assert_eq!(num(&stats, "counters", "live.repairs"), Some(repairs), "{class}");
        assert_eq!(prom_value("diva_repairs_total", None), Some(repairs), "{class}");

        let attribution = out.stats.attribution.expect("provenance attributes stars");
        let log = provenance.snapshot().expect("provenance recorded");
        assert_eq!(attribution.total(), out.relation.star_count() as u64, "{class}: stars");
        assert_eq!(log.cells.len() as u64, attribution.total(), "{class}: cell records");
        for (label, &stars) in log.labels.iter().zip(&attribution.per_constraint) {
            let counter = format!("provenance.constraint_stars.{label}");
            assert_eq!(num(&summary, "counters", &counter), Some(stars), "{class}: {label}");
            let gauge = format!("live.constraint_stars.{label}");
            assert_eq!(num(&stats, "gauges", &gauge), Some(stars), "{class}: {label}");
            let scraped = prom_value("diva_constraint_stars", Some(label));
            assert_eq!(scraped, Some(stars), "{class}: {label}");
        }

        let voided = out.stats.constraints_voided as u64;
        let satisfied = sigma.len() as u64 - voided;
        assert_eq!(num(&stats, "counters", "live.constraints_satisfied"), Some(satisfied));
        assert_eq!(num(&stats, "counters", "live.constraints_voided"), Some(voided), "{class}");
        assert_eq!(prom_value("diva_constraints_satisfied", None), Some(satisfied), "{class}");
        assert_eq!(prom_value("diva_constraints_voided", None), Some(voided), "{class}");
        assert_eq!(num(&stats, "gauges", "live.phase_code"), Some(Phase::Done.code()), "{class}");
    }
}

/// Σ over every strategy's `coloring.<Strategy>.<field>` counter of a
/// summary document.
fn coloring_sum(summary: &json::Value, field: &str) -> u64 {
    match summary.get("counters") {
        Some(json::Value::Obj(counters)) => counters
            .iter()
            .filter(|(k, _)| k.starts_with("coloring.") && k.ends_with(field))
            .filter_map(|(_, v)| v.as_num())
            .sum::<f64>() as u64,
        _ => panic!("summary has no counters"),
    }
}

/// A Σ of `sigma-gen` class `class` (proportional, minfreq, average,
/// islands), with the slack each class's recipe uses.
fn generated_sigma(rel: &Relation, class: usize, count: usize) -> Vec<Constraint> {
    match class {
        0 => generators::proportional(rel, count, 0.7, 20),
        1 => generators::min_frequency(rel, count, 0.3, 20),
        2 => generators::average(rel, count, 0.7, 20),
        _ => generators::islands(rel, count, 3, 0.8, 20),
    }
}

/// Runs the proptest below skipped because they returned an error.
static SKIPPED: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `every_surface_reports_the_same_numbers` over generator
    /// parameters, without HTTP (that test covers the rendering). After
    /// each `Ok` run, `RunStats`, the summary's `coloring.*` counters,
    /// the live cells and the budget report the same nodes and repairs,
    /// the verdicts cover Σ, and the star attribution, the published
    /// stars and the provenance log agree. Small caps degrade the run.
    /// A generated Σ can be unsatisfiable: those runs are skipped and
    /// counted on stderr, and at most half the cases may be skipped.
    #[test]
    fn every_surface_agrees_over_generator_parameters(
        rows in 200usize..1200,
        data_seed in 0u64..64,
        class in 0usize..4,
        count in 2usize..9,
        (strategy, threads) in (0usize..3, 1usize..3),
        cap in prop_oneof![0u64..48, Just(4_096u64)],
    ) {
        let rel = diva_datagen::medical(rows, data_seed);
        let sigma = generated_sigma(&rel, class, count);
        let obs = Obs::enabled();
        let provenance = Provenance::enabled();
        let config = DivaConfig {
            k: 5,
            strategy: Strategy::all()[strategy],
            threads: Some(threads),
            obs: obs.clone(),
            provenance: provenance.clone(),
            budget: BudgetSpec::with_node_budget(cap),
            ..DivaConfig::default()
        };
        let out = match Diva::new(config).run(&rel, &sigma) {
            Ok(out) => out,
            Err(e) => {
                let skipped = SKIPPED.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!("skipped run {skipped} (medical {rows}/{data_seed}, class {class}): {e}");
                prop_assert!(skipped <= 16, "{skipped} generated instances failed to run");
                return Ok(());
            }
        };

        let summary = json::parse(&obs.snapshot().summary_json()).expect("summary parses");
        let live = obs.live().expect("enabled handle snapshots");
        let budget = out.stats.budget.clone().expect("an armed budget reports usage");
        let nodes = out.stats.coloring.assignments_tried;
        prop_assert_eq!(coloring_sum(&summary, ".assignments_tried"), nodes);
        prop_assert_eq!(live.nodes, nodes);
        prop_assert_eq!(budget.nodes_explored, nodes);
        let repairs = out.stats.coloring.repair_attempts;
        prop_assert_eq!(coloring_sum(&summary, ".repair_attempts"), repairs);
        prop_assert_eq!(live.repairs, repairs);

        prop_assert_eq!(live.phase, Phase::Done);
        prop_assert_eq!(live.constraints_total, sigma.len() as u64);
        prop_assert_eq!(live.voided, out.stats.constraints_voided as u64);
        prop_assert_eq!(live.satisfied + live.voided, sigma.len() as u64);

        let attribution = out.stats.attribution.clone().expect("provenance attributes stars");
        let log = provenance.snapshot().expect("provenance recorded");
        prop_assert_eq!(attribution.total(), out.relation.star_count() as u64);
        prop_assert_eq!(log.cells.len() as u64, attribution.total());
    }
}
