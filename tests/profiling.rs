//! Workspace-level profiling tests: self-time/critical-path analysis
//! over a real pipeline run, memory attribution on the degraded path,
//! and the trace-regression gate against the committed baseline.
//!
//! This binary installs the counting allocator, as the `diva` CLI
//! does, so the memory tests see attributed spans.

use std::path::Path;

use diva_constraints::Constraint;
use diva_core::{BudgetSpec, Diva, DivaConfig, Outcome, Strategy};
use diva_obs::diff::diff_summaries;
use diva_obs::{json, Obs};
use diva_relation::Relation;

#[global_allocator]
static ALLOC: diva_obs::alloc::CountingAlloc = diva_obs::alloc::CountingAlloc::new();

fn workload() -> (Relation, Vec<Constraint>) {
    let rel = diva_datagen::medical(400, 7);
    let sigma = diva_constraints::generators::proportional(&rel, 5, 0.7, 20);
    (rel, sigma)
}

fn run_traced(config: DivaConfig) -> (diva_core::DivaResult, diva_obs::Snapshot) {
    let (rel, sigma) = workload();
    let obs = Obs::enabled();
    let config = DivaConfig { obs: obs.clone(), ..config };
    let out = Diva::new(config).run(&rel, &sigma).expect("workload publishes");
    (out, obs.snapshot())
}

/// The folded flamegraph weights are self-times, so they telescope
/// back to the root `diva.run` duration up to integer-microsecond
/// rounding per span.
#[test]
fn folded_weights_telescope_to_the_run_duration() {
    let (_, snap) = run_traced(DivaConfig::with_k(5).strategy(Strategy::MaxFanOut));
    let folded = snap.folded_stacks();
    assert!(!folded.is_empty(), "run produced no folded stacks");
    let mut total = 0u64;
    for line in folded.lines() {
        let (stack, w) = line.rsplit_once(' ').expect("weight separator");
        assert!(
            stack == "diva.run" || stack.starts_with("diva.run;"),
            "stack not rooted at diva.run: {line}"
        );
        total += w.parse::<u64>().expect("numeric weight");
    }
    let run = snap.spans.iter().find(|s| s.name == "diva.run").expect("diva.run span");
    let slack = snap.spans.len() as u64;
    assert!(
        total <= run.dur_us + slack && total + slack >= run.dur_us,
        "folded weights {total} do not telescope to diva.run {} (±{slack})",
        run.dur_us
    );
}

/// The critical path starts at `diva.run` and descends through real
/// phase spans.
#[test]
fn critical_path_roots_at_diva_run() {
    let (_, snap) = run_traced(DivaConfig::with_k(5).strategy(Strategy::MaxFanOut));
    let path = snap.critical_path();
    assert!(!path.is_empty());
    assert_eq!(path[0].name, "diva.run");
    assert!(path.len() >= 2, "critical path never left the root: {path:?}");
    for hop in &path {
        assert!(hop.self_us <= hop.dur_us, "self-time exceeds duration: {hop:?}");
    }
}

/// A zero deadline forces the degraded path; its `diva.degrade` span
/// must carry the same profiling fields as the exact phases.
#[test]
fn degraded_runs_profile_the_degrade_phase() {
    let config = DivaConfig {
        k: 5,
        budget: BudgetSpec { deadline: Some(std::time::Duration::ZERO), ..BudgetSpec::default() },
        ..DivaConfig::default()
    };
    let (out, snap) = run_traced(config);
    assert!(matches!(out.outcome, Outcome::Degraded { .. }), "zero deadline must degrade");
    let degrade = snap.spans.iter().find(|s| s.name == "diva.degrade").expect("degrade span");
    // Self-time analysis covers the degrade span like any other.
    let folded = snap.folded_stacks();
    assert!(folded.contains("diva.degrade"), "degrade span missing from folded stacks");
    let delta = degrade.alloc.expect("degrade span attributes memory");
    assert!(delta.bytes > 0, "building the fallback relation allocates: {delta:?}");
    let alloc = out.stats.alloc.expect("degraded RunStats carry per-phase memory");
    assert!(alloc.degrade.bytes > 0, "PhaseAlloc.degrade not populated: {alloc:?}");
    assert!(alloc.total.bytes >= alloc.degrade.bytes, "total below degrade: {alloc:?}");
    assert!(
        snap.trace_jsonl()
            .lines()
            .any(|l| l.contains("diva.degrade") && l.contains("\"alloc_bytes\":")),
        "trace line for diva.degrade lacks alloc fields"
    );
}

fn baseline_summary() -> json::Value {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("results/baseline/medical-4k.summary.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read committed baseline {}: {e}", path.display()));
    json::parse(&text).expect("baseline parses")
}

/// Multiplies by `factor` every number whose field name passes `pick`
/// — a slower or bigger capture for exercising the regression gate.
fn inflate(v: &json::Value, factor: f64, pick: fn(&str) -> bool) -> json::Value {
    use json::Value;
    match v {
        Value::Arr(items) => Value::Arr(items.iter().map(|i| inflate(i, factor, pick)).collect()),
        Value::Obj(fields) => Value::Obj(
            fields
                .iter()
                .map(|(k, val)| match val {
                    Value::Num(n) if pick(k) => (k.clone(), Value::Num(n * factor)),
                    _ => (k.clone(), inflate(val, factor, pick)),
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

/// The committed baseline compared against itself is clean, a
/// uniformly 2x-inflated capture trips the gate, and a capture whose
/// span timings alone doubled passes — the exact contract `trace-diff`
/// enforces in `scripts/check.sh`.
#[test]
fn trace_diff_gate_accepts_self_and_rejects_2x_inflation() {
    let baseline = baseline_summary();
    let same = diff_summaries(&baseline, &baseline).expect("diff runs");
    assert!(same.is_ok(), "baseline vs itself differs: {:?}", same.mismatches);
    assert!(same.compared > 0, "gate compared nothing — baseline schema drifted?");

    let doubled = inflate(&baseline, 2.0, |_| true);
    let report = diff_summaries(&baseline, &doubled).expect("diff runs");
    assert!(!report.is_ok(), "2x-inflated capture passed the gate (compared {})", report.compared);

    let slower = inflate(&baseline, 2.0, |field| field.ends_with("_us"));
    assert_ne!(slower, baseline, "the baseline carries span timings");
    let report = diff_summaries(&baseline, &slower).expect("diff runs");
    assert!(report.is_ok(), "doubled timings alone failed the gate: {:?}", report.mismatches);
}

/// The colouring search's allocation does not grow with the nodes it
/// explores: Basic on a medical instance that runs into its node cap,
/// at caps `N` and `4N`. Counted bytes, not time: the `coloring.solve`
/// span's `alloc_bytes` may grow by at most
/// `SEARCH_BYTES_PER_EXTRA_NODE` per extra explored node. What is
/// left per node is window candidates built the first time the search
/// tries them and the growth of the search's stacks; a per-try
/// allocation in `try_assign`, `unassign` or repair costs hundreds of
/// bytes per node.
#[test]
fn search_allocation_does_not_grow_with_explored_nodes() {
    const SEARCH_BYTES_PER_EXTRA_NODE: u64 = 64;
    const CAP: u64 = 4_000;
    let rel = diva_datagen::medical(2_000, 11);
    let sigma = diva_constraints::generators::proportional(&rel, 5, 0.7, 20);
    let search = |cap: u64| {
        let obs = Obs::enabled();
        let config = DivaConfig {
            strategy: Strategy::Basic,
            threads: Some(1),
            budget: BudgetSpec::with_node_budget(cap),
            obs: obs.clone(),
            ..DivaConfig::with_k(5)
        };
        let out = Diva::new(config).run(&rel, &sigma).expect("degraded runs publish");
        assert!(matches!(out.outcome, Outcome::Degraded { .. }), "cap {cap} must be reached");
        let nodes = out.stats.budget.expect("budget armed").nodes_explored;
        let bytes: u64 = obs
            .snapshot()
            .spans
            .iter()
            .filter(|s| s.name == "coloring.solve")
            .map(|s| s.alloc.expect("the counting allocator is live").bytes)
            .sum();
        (nodes, bytes)
    };
    let (nodes, bytes) = search(CAP);
    let (more_nodes, more_bytes) = search(4 * CAP);
    assert_eq!((nodes, more_nodes), (CAP + 1, 4 * CAP + 1));
    let extra_nodes = more_nodes - nodes;
    let extra_bytes = more_bytes.saturating_sub(bytes);
    assert!(
        extra_bytes < SEARCH_BYTES_PER_EXTRA_NODE * extra_nodes,
        "{extra_bytes} B more over {extra_nodes} more nodes ({bytes} B at {nodes}, \
         {more_bytes} B at {more_nodes})"
    );
}
