//! The perf-trajectory emitter behind `experiments -- perf`: measures
//! the bitset / dense-state kernels against their pre-optimization
//! hash-based reference implementations, records the search trajectory
//! of the Fig. 4a-style medical / proportional workload, and times the
//! early-cancelling portfolio. The rendered JSON is written to
//! `BENCH_diva.json` by the `experiments` binary.
//!
//! The "before" implementations in this module are faithful
//! transliterations of the seed's kernels — pairwise `HashSet`
//! intersection for constraint-graph edges, `HashMap`-keyed row
//! ownership and cluster registry for the search state. They live
//! here, outside the product crates, so the before/after comparison
//! stays measurable from a single build.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;

use diva_constraints::ConstraintSet;
use diva_core::{
    run_portfolio, BudgetSpec, ConstraintGraph, Diva, DivaConfig, DivaError, Outcome, Strategy,
};
use diva_obs::live::{Sampler, SamplerConfig};
use diva_obs::{Obs, Stopwatch};
use diva_relation::{Relation, RowSet};

/// Instance sizes of the Fig. 4a-style trajectory sweep.
const TRAJECTORY_ROWS: [usize; 4] = [250, 500, 1_000, 2_000];
/// Backtracking budget for trajectory runs (Basic can explode — the
/// paper's own Fig. 4a finding — so the sweep bounds it).
const TRAJECTORY_BACKTRACK_LIMIT: u64 = 20_000;
/// Repetitions per microbench; the minimum is reported.
const REPS: usize = 10;

/// Best-of-`reps` wall-clock of `f`, in milliseconds.
fn time_best_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Stopwatch::start();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

// ---------------------------------------------------------------------
// Graph build: pairwise HashSet intersection vs bitset inverted index.
// ---------------------------------------------------------------------

/// The seed's `O(|Σ|²)` edge construction: one `HashSet` per target
/// set, an intersection probe per node pair.
fn naive_edges(set: &ConstraintSet) -> Vec<Vec<usize>> {
    let targets: Vec<HashSet<usize>> =
        set.constraints().iter().map(|c| c.target_rows.iter().copied().collect()).collect();
    let n = targets.len();
    let mut adj = vec![Vec::new(); n];
    for i in 0..n {
        for j in i + 1..n {
            if targets[i].intersection(&targets[j]).next().is_some() {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    adj
}

struct GraphBench {
    n_constraints: usize,
    naive_pairwise_ms: f64,
    bitset_inverted_ms: f64,
}

fn bench_graph(set: &ConstraintSet) -> GraphBench {
    // Cross-check once: both constructions must agree on every edge.
    let g = ConstraintGraph::build(set);
    let naive = naive_edges(set);
    for (i, nbrs) in naive.iter().enumerate() {
        let mut a = g.neighbors(i).to_vec();
        a.sort_unstable();
        let mut b = nbrs.clone();
        b.sort_unstable();
        assert_eq!(a, b, "edge mismatch at node {i}");
    }
    GraphBench {
        n_constraints: set.len(),
        naive_pairwise_ms: time_best_ms(REPS, || {
            black_box(naive_edges(black_box(set)));
        }),
        bitset_inverted_ms: time_best_ms(REPS, || {
            black_box(ConstraintGraph::build(black_box(set)));
        }),
    }
}

// ---------------------------------------------------------------------
// State kernel: HashMap ownership/registry vs dense Vec + bitsets.
// ---------------------------------------------------------------------

/// One assign/unassign unit of work: a cluster proposed for a node.
struct ClusterLoad {
    node: usize,
    rows: Vec<usize>,
}

/// Chunks every constraint's target rows into `k`-clusters — the same
/// shape of work `try_assign`/`unassign` process during colouring.
fn cluster_load(set: &ConstraintSet, k: usize) -> (Vec<ClusterLoad>, usize) {
    let mut clusters = Vec::new();
    let mut n_rows = 0;
    for (node, c) in set.constraints().iter().enumerate() {
        n_rows = n_rows.max(c.target_rows.iter().max().map_or(0, |&m| m + 1));
        for chunk in c.target_rows.chunks_exact(k) {
            clusters.push(ClusterLoad { node, rows: chunk.to_vec() });
        }
    }
    (clusters, n_rows)
}

/// FNV-1a over row ids — the same cluster hash the dense state uses.
fn fnv(rows: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &r in rows {
        h ^= r as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The seed's bookkeeping: `HashMap` row ownership, per-node
/// `HashSet` membership probes, a `Vec<RowId>`-keyed cluster registry.
fn replay_hash(clusters: &[ClusterLoad], targets: &[HashSet<usize>]) -> u64 {
    let mut row_owner: HashMap<usize, usize> = HashMap::new();
    let mut registry: HashMap<Vec<usize>, usize> = HashMap::new();
    let mut acc = 0u64;
    for (id, c) in clusters.iter().enumerate() {
        let free = c.rows.iter().all(|r| !row_owner.contains_key(r));
        let valid = c.rows.iter().all(|r| targets[c.node].contains(r));
        if free && valid {
            registry.insert(c.rows.clone(), id);
            for &r in &c.rows {
                row_owner.insert(r, id);
            }
            acc = acc.wrapping_add(1);
        }
    }
    for c in clusters {
        if let Some(id) = registry.remove(&c.rows) {
            acc ^= id as u64;
            for r in &c.rows {
                row_owner.remove(r);
            }
        }
    }
    acc.wrapping_add(row_owner.len() as u64)
}

/// The optimized bookkeeping: dense `Vec<u32>` ownership, bitset
/// subset probes, a hash-keyed registry with precomputed FNV keys.
fn replay_dense(clusters: &[ClusterLoad], targets: &[RowSet], n_rows: usize) -> u64 {
    const NO_OWNER: u32 = u32::MAX;
    let mut row_owner = vec![NO_OWNER; n_rows];
    let mut registry: HashMap<u64, usize> = HashMap::new();
    let mut acc = 0u64;
    for (id, c) in clusters.iter().enumerate() {
        let free = c.rows.iter().all(|&r| row_owner[r] == NO_OWNER);
        let valid = targets[c.node].contains_all(&c.rows);
        if free && valid {
            registry.insert(fnv(&c.rows), id);
            for &r in &c.rows {
                row_owner[r] = id as u32;
            }
            acc = acc.wrapping_add(1);
        }
    }
    for c in clusters {
        if let Some(id) = registry.remove(&fnv(&c.rows)) {
            acc ^= id as u64;
            for &r in &c.rows {
                row_owner[r] = NO_OWNER;
            }
        }
    }
    acc.wrapping_add(row_owner.iter().filter(|&&o| o != NO_OWNER).count() as u64)
}

struct StateBench {
    clusters: usize,
    hash_ms: f64,
    dense_ms: f64,
}

fn bench_state(set: &ConstraintSet, k: usize) -> StateBench {
    let (clusters, n_rows) = cluster_load(set, k);
    let hash_targets: Vec<HashSet<usize>> =
        set.constraints().iter().map(|c| c.target_rows.iter().copied().collect()).collect();
    let dense_targets: Vec<RowSet> = set
        .constraints()
        .iter()
        .map(|c| RowSet::from_rows(n_rows, c.target_rows.iter().copied()))
        .collect();
    assert_eq!(
        replay_hash(&clusters, &hash_targets),
        replay_dense(&clusters, &dense_targets, n_rows),
        "hash and dense replays disagree"
    );
    StateBench {
        clusters: clusters.len(),
        hash_ms: time_best_ms(REPS, || {
            black_box(replay_hash(black_box(&clusters), &hash_targets));
        }),
        dense_ms: time_best_ms(REPS, || {
            black_box(replay_dense(black_box(&clusters), &dense_targets, n_rows));
        }),
    }
}

// ---------------------------------------------------------------------
// Search trajectory and portfolio timing.
// ---------------------------------------------------------------------

struct TrajectoryPoint {
    rows: usize,
    strategy: &'static str,
    seconds: f64,
    /// Per-phase wall-clock, seconds (from [`diva_core::RunStats`],
    /// which is itself a view over the obs phase spans).
    t_clustering_s: f64,
    t_suppress_s: f64,
    t_anonymize_s: f64,
    t_integrate_s: f64,
    /// Per-phase *self*-time (phase duration minus child spans),
    /// seconds, from the trace analysis over the run's span tree.
    self_clustering_s: f64,
    self_suppress_s: f64,
    self_anonymize_s: f64,
    self_integrate_s: f64,
    /// Bytes allocated under the `diva.run` span; zero when no
    /// counting allocator is installed (`--no-default-features`).
    alloc_bytes_total: u64,
    assignments_tried: u64,
    backtracks: u64,
    node_selections: u64,
    forward_check_prunes: u64,
    ok: bool,
    /// `"exact"`, `"degraded:<kind>"`, or `"error"` — how the run
    /// concluded (trajectory runs carry no budget, so a successful run
    /// is always exact; the field keeps the schema aligned with the
    /// budget sweep below).
    outcome: String,
}

/// Renders a [`diva_core::Outcome`] for the JSON reports.
fn outcome_label(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Exact => "exact".to_owned(),
        Outcome::Degraded { reason } => format!("degraded:{}", reason.kind()),
    }
}

fn trajectory_point(rel: &Relation, k: usize, strategy: Strategy) -> TrajectoryPoint {
    let sigma = diva_constraints::generators::proportional(rel, 5, 0.7, 20);
    // Trajectory runs trace themselves: the span tree supplies the
    // self-time breakdown and (with the counting allocator installed)
    // per-run allocation totals.
    let obs = Obs::enabled();
    let config = DivaConfig {
        k,
        strategy,
        backtrack_limit: Some(TRAJECTORY_BACKTRACK_LIMIT),
        obs: obs.clone(),
        ..DivaConfig::default()
    };
    let t = Stopwatch::start();
    let outcome = Diva::new(config).run(rel, &sigma);
    let seconds = t.elapsed().as_secs_f64();
    let mut point = TrajectoryPoint {
        rows: rel.n_rows(),
        strategy: strategy.name(),
        seconds,
        t_clustering_s: 0.0,
        t_suppress_s: 0.0,
        t_anonymize_s: 0.0,
        t_integrate_s: 0.0,
        self_clustering_s: 0.0,
        self_suppress_s: 0.0,
        self_anonymize_s: 0.0,
        self_integrate_s: 0.0,
        alloc_bytes_total: 0,
        assignments_tried: 0,
        backtracks: 0,
        node_selections: 0,
        forward_check_prunes: 0,
        ok: false,
        outcome: "error".to_owned(),
    };
    for s in obs.snapshot().span_summaries() {
        let self_s = s.self_us as f64 / 1e6;
        match s.name.as_str() {
            "diva.clustering" => point.self_clustering_s = self_s,
            "diva.suppress" => point.self_suppress_s = self_s,
            "diva.anonymize" => point.self_anonymize_s = self_s,
            "diva.integrate" => point.self_integrate_s = self_s,
            "diva.run" => point.alloc_bytes_total = s.alloc_bytes.unwrap_or(0),
            _ => {}
        }
    }
    match &outcome {
        Ok(out) => {
            point.t_clustering_s = out.stats.t_clustering.as_secs_f64();
            point.t_suppress_s = out.stats.t_suppress.as_secs_f64();
            point.t_anonymize_s = out.stats.t_anonymize.as_secs_f64();
            point.t_integrate_s = out.stats.t_integrate.as_secs_f64();
            point.assignments_tried = out.stats.coloring.assignments_tried;
            point.backtracks = out.stats.coloring.backtracks;
            point.node_selections = out.stats.coloring.node_selections;
            point.forward_check_prunes = out.stats.coloring.forward_check_prunes;
            point.ok = true;
            point.outcome = outcome_label(&out.outcome);
        }
        Err(DivaError::SearchBudgetExhausted { backtracks }) => point.backtracks = *backtracks,
        Err(_) => {}
    }
    point
}

struct PortfolioBench {
    rows: usize,
    seconds: f64,
    winner_assignments: u64,
    ok: bool,
}

fn bench_portfolio(rel: &Relation, k: usize) -> PortfolioBench {
    let sigma = diva_constraints::generators::proportional(rel, 5, 0.7, 20);
    let t = Stopwatch::start();
    let outcome = run_portfolio(rel, &sigma, &DivaConfig::with_k(k), 1);
    let seconds = t.elapsed().as_secs_f64();
    let (winner_assignments, ok) = match &outcome {
        Ok(out) => (out.stats.coloring.assignments_tried, true),
        Err(_) => (0, false),
    };
    PortfolioBench { rows: rel.n_rows(), seconds, winner_assignments, ok }
}

// ---------------------------------------------------------------------
// Budget sweep: deadline vs outcome on the acceptance-size instance.
// ---------------------------------------------------------------------

/// Wall-clock deadlines swept on the 4k-row instance, milliseconds.
/// The short end forces degradation; the long end completes exactly —
/// the sweep records where the crossover sits on this hardware.
const BUDGET_SWEEP_DEADLINES_MS: [u64; 4] = [5, 50, 500, 5_000];

struct BudgetSweepPoint {
    deadline_ms: u64,
    seconds: f64,
    outcome: String,
    nodes_explored: u64,
    star_count: usize,
    ok: bool,
}

fn budget_sweep_point(
    rel: &Relation,
    sigma: &[diva_constraints::Constraint],
    k: usize,
    deadline_ms: u64,
) -> BudgetSweepPoint {
    let config = DivaConfig {
        k,
        budget: BudgetSpec {
            deadline: Some(std::time::Duration::from_millis(deadline_ms)),
            ..BudgetSpec::default()
        },
        ..DivaConfig::default()
    };
    let t = Stopwatch::start();
    let outcome = Diva::new(config).run(rel, sigma);
    let seconds = t.elapsed().as_secs_f64();
    match &outcome {
        Ok(out) => BudgetSweepPoint {
            deadline_ms,
            seconds,
            outcome: outcome_label(&out.outcome),
            nodes_explored: out.stats.budget.as_ref().map_or(0, |u| u.nodes_explored),
            star_count: out.relation.star_count(),
            ok: true,
        },
        Err(_) => BudgetSweepPoint {
            deadline_ms,
            seconds,
            outcome: "error".to_owned(),
            nodes_explored: 0,
            star_count: 0,
            ok: false,
        },
    }
}

// ---------------------------------------------------------------------
// Component scaling: decomposed solving vs the monolithic search.
// ---------------------------------------------------------------------

/// Thread counts swept for the component pool.
const COMPONENT_THREADS: [usize; 3] = [1, 2, 4];
/// Full-pipeline repetitions per configuration; the minimum is kept
/// (fewer than the kernel microbenches — each rep is a whole run).
const COMPONENT_REPS: usize = 3;

struct ComponentScaling {
    instance: &'static str,
    rows: usize,
    constraints: usize,
    components: usize,
    monolithic_ms: f64,
    /// `(threads, best clustering ms, speedup vs monolithic)`.
    decomposed: Vec<(usize, f64, f64)>,
}

/// Best-of-reps clustering-phase wall-clock for one configuration,
/// milliseconds. Only the clustering phase is timed: decomposition
/// acts there, while suppress/anonymize/integrate see the identical
/// merged clustering either way.
fn best_clustering_ms(
    rel: &Relation,
    sigma: &[diva_constraints::Constraint],
    config: &DivaConfig,
    label: &str,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..=COMPONENT_REPS {
        let out = Diva::new(config.clone())
            .run(black_box(rel), black_box(sigma))
            .unwrap_or_else(|e| panic!("component scaling {label}: {e}"));
        assert!(out.outcome.is_exact(), "component scaling {label}: degraded");
        best = best.min(out.stats.t_clustering.as_secs_f64() * 1e3);
    }
    best
}

fn bench_component_scaling(
    instance: &'static str,
    rel: &Relation,
    sigma: &[diva_constraints::Constraint],
    k: usize,
) -> ComponentScaling {
    let set = ConstraintSet::bind(sigma, rel).expect("component sigma binds");
    let components = diva_core::components(&ConstraintGraph::build(&set)).len();
    // MinChoice keeps the comparison about decomposition itself: its
    // global next-node scan is O(nodes × candidates × rows), so
    // shrinking instances to component footprints pays even on one
    // thread, and the pool adds wall-clock parallelism on top.
    let base = DivaConfig {
        k,
        strategy: Strategy::MinChoice,
        backtrack_limit: Some(50_000),
        ..DivaConfig::default()
    };
    let mono = DivaConfig { decompose: false, threads: Some(1), ..base.clone() };
    let monolithic_ms = best_clustering_ms(rel, sigma, &mono, instance);
    let decomposed = COMPONENT_THREADS
        .iter()
        .map(|&t| {
            let config = DivaConfig { threads: Some(t), ..base.clone() };
            let ms = best_clustering_ms(rel, sigma, &config, instance);
            (t, ms, ratio(monolithic_ms, ms))
        })
        .collect();
    ComponentScaling {
        instance,
        rows: rel.n_rows(),
        constraints: set.len(),
        components,
        monolithic_ms,
        decomposed,
    }
}

// ---------------------------------------------------------------------
// Observability overhead: disabled obs must cost (almost) nothing, and
// an enabled handle with the live sampler attached little more.
// ---------------------------------------------------------------------

/// Repetitions for the overhead comparison (full pipeline runs, so
/// fewer than the kernel microbenches).
const OVERHEAD_REPS: usize = 5;

struct ObsOverhead {
    rows: usize,
    disabled_ms: f64,
    enabled_ms: f64,
    /// `(enabled - disabled) / disabled`, percent. Negative values
    /// mean the difference drowned in run-to-run noise.
    overhead_pct: f64,
    /// Sampler ticks observed across the enabled reps — evidence the
    /// measurement exercised the live path.
    samples_taken: u64,
}

/// Times the same DIVA run with the obs handle disabled (the
/// workspace default) vs enabled with the default 100ms sampler
/// attached — spans, metrics and live cells, exactly what `--trace`
/// plus `--stats-addr` wires up. Reps are interleaved so clock drift
/// (thermal, frequency) lands on both modes equally. The budget for
/// the disabled mode is < 2%: it is what every non-traced caller pays
/// for the instrumentation points.
fn bench_obs_overhead(rel: &Relation, k: usize) -> ObsOverhead {
    let sigma = diva_constraints::generators::proportional(rel, 5, 0.7, 20);
    let one_rep = |obs: &Obs| {
        let config = DivaConfig { k, obs: obs.clone(), ..DivaConfig::default() };
        time_best_ms(1, || {
            let out = Diva::new(config.clone()).run(black_box(rel), black_box(&sigma));
            black_box(out.map(|o| o.relation.star_count()).unwrap_or(0));
        })
    };
    let off = Obs::disabled();
    let on = Obs::enabled();
    let sampler = Sampler::spawn(&on, SamplerConfig::default(), None);
    let mut disabled_ms = f64::INFINITY;
    let mut enabled_ms = f64::INFINITY;
    for _ in 0..OVERHEAD_REPS {
        disabled_ms = disabled_ms.min(one_rep(&off));
        enabled_ms = enabled_ms.min(one_rep(&on));
    }
    let samples_taken = sampler.log().total_samples();
    sampler.stop();
    ObsOverhead {
        rows: rel.n_rows(),
        disabled_ms,
        enabled_ms,
        overhead_pct: if disabled_ms > 0.0 {
            (enabled_ms - disabled_ms) / disabled_ms * 100.0
        } else {
            0.0
        },
        samples_taken,
    }
}

// ---------------------------------------------------------------------
// Provenance overhead: the decision recorder must cost (almost)
// nothing — one branch per decision when disabled, and < 1% of the
// pipeline when recording.
// ---------------------------------------------------------------------

struct ProvenanceOverhead {
    rows: usize,
    disabled_ms: f64,
    enabled_ms: f64,
    /// `(enabled - disabled) / disabled`, percent. Negative values
    /// mean the difference drowned in run-to-run noise.
    overhead_pct: f64,
    /// Stars the enabled recorder attributed — evidence the
    /// measurement actually exercised the recording path.
    stars_attributed: u64,
}

/// Times the same DIVA run with the provenance recorder disabled (the
/// workspace default) vs enabled — exactly what `--provenance` wires
/// up. The acceptance budget for the enabled path is < 1% overhead:
/// recording is one group append per cluster and one cell append per
/// published star, all behind a single `is_enabled` branch.
fn bench_provenance_overhead(rel: &Relation, k: usize) -> ProvenanceOverhead {
    let sigma = diva_constraints::generators::proportional(rel, 5, 0.7, 20);
    let one_rep = |prov: &diva_obs::Provenance| {
        let config = DivaConfig { k, provenance: prov.clone(), ..DivaConfig::default() };
        time_best_ms(1, || {
            let out = Diva::new(config.clone()).run(black_box(rel), black_box(&sigma));
            black_box(out.map(|o| o.relation.star_count()).unwrap_or(0));
        })
    };
    let off = diva_obs::Provenance::disabled();
    let on = diva_obs::Provenance::enabled();
    // Interleave the reps so clock drift (thermal, frequency) lands
    // on both modes equally instead of biasing whichever ran second.
    let mut disabled_ms = f64::INFINITY;
    let mut enabled_ms = f64::INFINITY;
    for _ in 0..OVERHEAD_REPS {
        disabled_ms = disabled_ms.min(one_rep(&off));
        enabled_ms = enabled_ms.min(one_rep(&on));
    }
    let stars_attributed = on.attribution().map(|a| a.total()).unwrap_or(0);
    ProvenanceOverhead {
        rows: rel.n_rows(),
        disabled_ms,
        enabled_ms,
        overhead_pct: if disabled_ms > 0.0 {
            (enabled_ms - disabled_ms) / disabled_ms * 100.0
        } else {
            0.0
        },
        stars_attributed,
    }
}

// ---------------------------------------------------------------------
// Audit throughput: re-scoring a published table must stay cheap.
// ---------------------------------------------------------------------

struct AuditThroughput {
    rows: usize,
    /// Equivalence classes the substrate built — raw tables are the
    /// worst case (near one class per distinct QI profile).
    classes: usize,
    best_ms: f64,
    rows_per_sec: f64,
}

/// Times the full eight-model audit suite (DESIGN.md §15) on a raw
/// medical table: class construction, sensitive-rank mapping, and all
/// checkers, with every gate armed so satisfaction is evaluated too.
fn bench_audit_throughput(rel: &Relation) -> AuditThroughput {
    let spec = diva_metrics::audit::AuditSpec {
        k: Some(5),
        distinct_l: Some(2),
        entropy_l: Some(2.0),
        recursive_c: Some(2.0),
        recursive_l: 2,
        alpha: Some(0.5),
        basic_beta: Some(2.0),
        enhanced_beta: Some(2.0),
        delta: Some(2.0),
        t: Some(0.5),
    };
    let mut classes = 0;
    let best_ms = time_best_ms(OVERHEAD_REPS, || {
        let suite = diva_metrics::audit::audit(black_box(rel), black_box(&spec));
        classes = suite.n_classes;
        black_box(suite.satisfied());
    });
    AuditThroughput {
        rows: rel.n_rows(),
        classes,
        best_ms,
        rows_per_sec: if best_ms > 0.0 {
            rel.n_rows() as f64 / (best_ms / 1_000.0)
        } else {
            f64::INFINITY
        },
    }
}

// ---------------------------------------------------------------------
// JSON rendering (hand-rolled: the workspace carries no serde).
// ---------------------------------------------------------------------

fn ratio(before: f64, after: f64) -> f64 {
    if after > 0.0 {
        before / after
    } else {
        f64::INFINITY
    }
}

/// Runs the full perf suite and renders `BENCH_diva.json`'s content.
pub fn bench_json() -> String {
    // Kernel microbenches: a sizable medical instance with a wide
    // proportional Σ so the asymptotic difference dominates constant
    // factors (same-column values give many disjoint target-set pairs,
    // the pairwise intersection probe's worst case).
    let kernel_rel = diva_datagen::medical(4_000, 5);
    let kernel_sigma = diva_constraints::generators::proportional(&kernel_rel, 64, 0.7, 10);
    let set = ConstraintSet::bind(&kernel_sigma, &kernel_rel).expect("kernel sigma binds");
    let graph = bench_graph(&set);
    let state = bench_state(&set, 5);

    // Fig. 4a-style trajectory: medical / proportional, every strategy.
    let mut points = Vec::new();
    for &n in &TRAJECTORY_ROWS {
        let rel = diva_datagen::medical(n, 5);
        for strategy in Strategy::all() {
            points.push(trajectory_point(&rel, 5, strategy));
        }
    }
    let portfolio = bench_portfolio(&diva_datagen::medical(1_000, 5), 5);
    let overhead = bench_obs_overhead(&diva_datagen::medical(4_000, 7), 5);
    let provenance = bench_provenance_overhead(&diva_datagen::medical(4_000, 7), 5);
    let audit = bench_audit_throughput(&diva_datagen::medical(100_000, 7));

    // Budget sweep on the acceptance instance (EXPERIMENTS.md §budget).
    let sweep_rel = diva_datagen::medical(4_000, 29);
    let sweep_sigma = diva_constraints::generators::proportional(&sweep_rel, 5, 0.7, 80);
    let sweep: Vec<BudgetSweepPoint> = BUDGET_SWEEP_DEADLINES_MS
        .iter()
        .map(|&ms| budget_sweep_point(&sweep_rel, &sweep_sigma, 8, ms))
        .collect();

    // Component scaling (EXPERIMENTS.md §components): the acceptance
    // medical-4k instance (whose proportional Σ chains into a single
    // component — the decomposed path must not regress it) and a
    // many-component islands instance where the pool actually fans out.
    let islands_rel = diva_datagen::medical(6_000, 17);
    let islands_sigma = diva_constraints::generators::islands(&islands_rel, 12, 4, 0.7, 30);
    let scaling = [
        bench_component_scaling("medical-4k", &sweep_rel, &sweep_sigma, 8),
        bench_component_scaling("medical-6k-islands", &islands_rel, &islands_sigma, 5),
    ];

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"workload\": \"medical / proportional(n=5, frac=0.7), k=5\",\n");
    out.push_str(
        "  \"regenerate\": \"cargo run --release -p diva-bench --bin experiments -- perf\",\n",
    );
    out.push_str("  \"graph_build\": {\n");
    out.push_str("    \"instance\": \"medical-4k, proportional Sigma (wide)\",\n");
    out.push_str(&format!("    \"n_constraints\": {},\n", graph.n_constraints));
    out.push_str(&format!("    \"naive_pairwise_hashset_ms\": {:.4},\n", graph.naive_pairwise_ms));
    out.push_str(&format!("    \"bitset_inverted_index_ms\": {:.4},\n", graph.bitset_inverted_ms));
    out.push_str(&format!(
        "    \"speedup\": {:.2}\n",
        ratio(graph.naive_pairwise_ms, graph.bitset_inverted_ms)
    ));
    out.push_str("  },\n");
    out.push_str("  \"state_kernel\": {\n");
    out.push_str(
        "    \"instance\": \"medical-4k, proportional Sigma, k-cluster assign/unassign replay\",\n",
    );
    out.push_str(&format!("    \"clusters_replayed\": {},\n", state.clusters));
    out.push_str(&format!("    \"hashmap_state_ms\": {:.4},\n", state.hash_ms));
    out.push_str(&format!("    \"dense_bitset_state_ms\": {:.4},\n", state.dense_ms));
    out.push_str(&format!("    \"speedup\": {:.2}\n", ratio(state.hash_ms, state.dense_ms)));
    out.push_str("  },\n");
    out.push_str(&format!("  \"trajectory_backtrack_limit\": {TRAJECTORY_BACKTRACK_LIMIT},\n"));
    out.push_str("  \"search_trajectory\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rows\": {}, \"strategy\": \"{}\", \"seconds\": {:.4}, \
             \"t_clustering_s\": {:.4}, \"t_suppress_s\": {:.4}, \
             \"t_anonymize_s\": {:.4}, \"t_integrate_s\": {:.4}, \
             \"self_clustering_s\": {:.4}, \"self_suppress_s\": {:.4}, \
             \"self_anonymize_s\": {:.4}, \"self_integrate_s\": {:.4}, \
             \"alloc_bytes_total\": {}, \
             \"assignments_tried\": {}, \"backtracks\": {}, \
             \"node_selections\": {}, \"forward_check_prunes\": {}, \
             \"ok\": {}, \"outcome\": \"{}\"}}{}\n",
            p.rows,
            p.strategy,
            p.seconds,
            p.t_clustering_s,
            p.t_suppress_s,
            p.t_anonymize_s,
            p.t_integrate_s,
            p.self_clustering_s,
            p.self_suppress_s,
            p.self_anonymize_s,
            p.self_integrate_s,
            p.alloc_bytes_total,
            p.assignments_tried,
            p.backtracks,
            p.node_selections,
            p.forward_check_prunes,
            p.ok,
            p.outcome,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"budget_sweep\": {\n");
    out.push_str(
        "    \"instance\": \"medical-4k, proportional(n=5, frac=0.7, min-freq=80), k=8\",\n",
    );
    out.push_str("    \"points\": [\n");
    for (i, p) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"deadline_ms\": {}, \"seconds\": {:.4}, \"outcome\": \"{}\", \
             \"nodes_explored\": {}, \"star_count\": {}, \"ok\": {}}}{}\n",
            p.deadline_ms,
            p.seconds,
            p.outcome,
            p.nodes_explored,
            p.star_count,
            p.ok,
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n");
    out.push_str("  },\n");
    out.push_str("  \"component_scaling\": {\n");
    out.push_str("    \"strategy\": \"MinChoice\",\n");
    out.push_str("    \"metric\": \"clustering-phase wall-clock, best of reps, ms\",\n");
    out.push_str("    \"instances\": [\n");
    for (i, s) in scaling.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"instance\": \"{}\", \"rows\": {}, \"constraints\": {}, \
             \"components\": {}, \"monolithic_ms\": {:.4}, \"decomposed\": [",
            s.instance, s.rows, s.constraints, s.components, s.monolithic_ms
        ));
        for (j, (threads, ms, speedup)) in s.decomposed.iter().enumerate() {
            out.push_str(&format!(
                "{}{{\"threads\": {}, \"ms\": {:.4}, \"speedup\": {:.2}}}",
                if j == 0 { "" } else { ", " },
                threads,
                ms,
                speedup
            ));
        }
        out.push_str(&format!("]}}{}\n", if i + 1 < scaling.len() { "," } else { "" }));
    }
    out.push_str("    ]\n");
    out.push_str("  },\n");
    out.push_str("  \"portfolio\": {\n");
    out.push_str(&format!("    \"rows\": {},\n", portfolio.rows));
    out.push_str(&format!("    \"seconds\": {:.4},\n", portfolio.seconds));
    out.push_str(&format!("    \"winner_assignments_tried\": {},\n", portfolio.winner_assignments));
    out.push_str(&format!("    \"ok\": {}\n", portfolio.ok));
    out.push_str("  },\n");
    out.push_str("  \"obs_overhead\": {\n");
    out.push_str("    \"instance\": \"medical-4k, proportional Sigma, full pipeline\",\n");
    out.push_str(&format!("    \"rows\": {},\n", overhead.rows));
    out.push_str(&format!("    \"obs_disabled_ms\": {:.4},\n", overhead.disabled_ms));
    out.push_str(&format!("    \"obs_and_sampler_enabled_ms\": {:.4},\n", overhead.enabled_ms));
    out.push_str(&format!("    \"enabled_overhead_pct\": {:.2},\n", overhead.overhead_pct));
    out.push_str(&format!("    \"sampler_ticks\": {},\n", overhead.samples_taken));
    out.push_str("    \"disabled_budget_pct\": 2.0\n");
    out.push_str("  },\n");
    out.push_str("  \"provenance_overhead\": {\n");
    out.push_str("    \"instance\": \"medical-4k, proportional Sigma, full pipeline\",\n");
    out.push_str(&format!("    \"rows\": {},\n", provenance.rows));
    out.push_str(&format!("    \"recorder_disabled_ms\": {:.4},\n", provenance.disabled_ms));
    out.push_str(&format!("    \"recorder_enabled_ms\": {:.4},\n", provenance.enabled_ms));
    out.push_str(&format!("    \"enabled_overhead_pct\": {:.2},\n", provenance.overhead_pct));
    out.push_str(&format!("    \"stars_attributed\": {},\n", provenance.stars_attributed));
    out.push_str("    \"enabled_budget_pct\": 1.0\n");
    out.push_str("  },\n");
    out.push_str("  \"audit_throughput\": {\n");
    out.push_str("    \"instance\": \"medical-100k raw, all eight models gated\",\n");
    out.push_str(&format!("    \"rows\": {},\n", audit.rows));
    out.push_str(&format!("    \"classes\": {},\n", audit.classes));
    out.push_str(&format!("    \"best_ms\": {:.4},\n", audit.best_ms));
    out.push_str(&format!("    \"rows_per_sec\": {:.0}\n", audit.rows_per_sec));
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::experiment_sigma;

    fn small_set() -> (Relation, Vec<diva_constraints::Constraint>) {
        let rel = diva_datagen::medical(400, 5);
        let sigma = experiment_sigma(&rel, 6, 0.4, 5, 1);
        (rel, sigma)
    }

    #[test]
    fn naive_and_bitset_graphs_agree() {
        let (rel, sigma) = small_set();
        let set = ConstraintSet::bind(&sigma, &rel).unwrap();
        // bench_graph asserts edge-for-edge agreement internally.
        let b = bench_graph(&set);
        assert_eq!(b.n_constraints, 6);
    }

    #[test]
    fn audit_throughput_reports_sane_numbers() {
        let rel = diva_datagen::medical(2_000, 7);
        let a = bench_audit_throughput(&rel);
        assert_eq!(a.rows, 2_000);
        assert!(a.classes > 0 && a.classes <= a.rows);
        assert!(a.best_ms >= 0.0 && a.rows_per_sec > 0.0);
    }

    #[test]
    fn hash_and_dense_replays_agree() {
        let (rel, sigma) = small_set();
        let set = ConstraintSet::bind(&sigma, &rel).unwrap();
        // bench_state asserts replay checksums agree internally.
        let b = bench_state(&set, 5);
        assert!(b.clusters > 0);
    }

    #[test]
    fn trajectory_point_carries_counters() {
        let rel = diva_datagen::medical(250, 5);
        let p = trajectory_point(&rel, 5, Strategy::MinChoice);
        assert!(p.ok, "tiny instance should solve");
        assert!(p.assignments_tried > 0);
        assert!(p.node_selections > 0, "search counters missing");
        // Phase timings are a partition of the run: each is bounded by
        // the end-to-end wall-clock and clustering did real work.
        assert!(p.t_clustering_s > 0.0);
        let phases = p.t_clustering_s + p.t_suppress_s + p.t_anonymize_s + p.t_integrate_s;
        assert!(phases <= p.seconds, "phase timings exceed total");
        // Self-time never exceeds the phase's own wall-clock.
        assert!(p.self_clustering_s <= p.t_clustering_s + 1e-6);
        assert!(p.self_anonymize_s <= p.t_anonymize_s + 1e-6);
        // With the counting allocator installed the run attributes
        // memory; without it the field stays zero.
        if cfg!(feature = "alloc-profile") {
            assert!(p.alloc_bytes_total > 0, "no memory attributed to diva.run");
        } else {
            assert_eq!(p.alloc_bytes_total, 0);
        }
    }

    #[test]
    fn trajectory_point_labels_outcome() {
        let rel = diva_datagen::medical(250, 5);
        let p = trajectory_point(&rel, 5, Strategy::MinChoice);
        assert_eq!(p.outcome, "exact");
    }

    #[test]
    fn budget_sweep_point_degrades_under_zero_deadline() {
        let rel = diva_datagen::medical(600, 5);
        let sigma = diva_constraints::generators::proportional(&rel, 5, 0.7, 20);
        let p = budget_sweep_point(&rel, &sigma, 5, 0);
        assert!(p.ok, "degraded runs still publish a relation");
        assert_eq!(p.outcome, "degraded:deadline");
        let generous = budget_sweep_point(&rel, &sigma, 5, 600_000);
        assert!(generous.ok);
        assert_eq!(generous.outcome, "exact");
    }

    #[test]
    fn component_scaling_measures_a_multi_component_instance() {
        let rel = diva_datagen::medical(800, 17);
        let sigma = diva_constraints::generators::islands(&rel, 4, 2, 0.9, 10);
        let s = bench_component_scaling("test", &rel, &sigma, 3);
        assert!(s.components > 1, "islands instance must decompose, got {}", s.components);
        assert!(s.monolithic_ms.is_finite() && s.monolithic_ms >= 0.0);
        assert_eq!(s.decomposed.len(), COMPONENT_THREADS.len());
        for (threads, ms, speedup) in &s.decomposed {
            assert!(COMPONENT_THREADS.contains(threads));
            assert!(ms.is_finite() && speedup.is_finite());
        }
    }

    #[test]
    fn obs_overhead_measures_both_modes() {
        let rel = diva_datagen::medical(300, 5);
        let o = bench_obs_overhead(&rel, 5);
        assert_eq!(o.rows, 300);
        assert!(o.disabled_ms > 0.0 && o.enabled_ms > 0.0);
        assert!(o.overhead_pct.is_finite());
    }

    #[test]
    fn provenance_overhead_measures_both_modes() {
        let rel = diva_datagen::medical(300, 5);
        let o = bench_provenance_overhead(&rel, 5);
        assert_eq!(o.rows, 300);
        assert!(o.disabled_ms > 0.0 && o.enabled_ms > 0.0);
        assert!(o.overhead_pct.is_finite());
        assert!(o.stars_attributed > 0, "enabled rep recorded no stars");
    }
}
