//! The perf emitter behind `experiments -- perf`: the search counters
//! of the Fig. 4a-style medical / proportional workload, a deadline
//! sweep, component scaling, and the obs and provenance overhead pairs.
//! The `experiments` binary writes the rendered JSON to
//! `BENCH_diva.json`.
//!
//! Every wall-clock number comes from one sampler, `interleave`: the
//! arms of a comparison run in rounds whose first arm rotates, and each
//! time is reported as its nearest-rank median and quartiles
//! (`Spread`). Overheads and speedups are taken per round, and an
//! overhead with a budget gets a `Verdict`. End-to-end and per-layer
//! timings of the CLI belong to the repository benchmark
//! (`crates/bench/src/bin/benchmark`).

use std::hint::black_box;

use diva_constraints::{Constraint, ConstraintSet};
use diva_core::{BudgetSpec, ColoringStats, ConstraintGraph, Diva, DivaConfig, Outcome, Strategy};
use diva_obs::{Obs, Provenance, Stopwatch};
use diva_relation::Relation;

/// Instance sizes of the Fig. 4a-style trajectory sweep.
const TRAJECTORY_ROWS: [usize; 4] = [250, 500, 1_000, 2_000];
/// Node budget for trajectory runs (Basic can explode — the paper's
/// own Fig. 4a finding — so the sweep bounds it), sized like the
/// experiments' Basic budget.
const TRAJECTORY_NODE_BUDGET: u64 = crate::params::node_budget_for_backtracks(20_000);
/// Timed rounds per measurement, after one discarded warm-up round.
const REPS: usize = 5;

// ---------------------------------------------------------------------
// The sampler: interleaved rounds, nearest-rank quartiles, verdicts.
// ---------------------------------------------------------------------

/// The nearest-rank first quartile, median and third quartile of a
/// sample.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Spread {
    /// The nearest-rank 25th, 50th and 75th percentiles of a non-empty
    /// sample: for each, the smallest sample with at least that share
    /// of all samples at or below it.
    fn of(samples: &[f64]) -> Spread {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |pct: usize| sorted[(pct * sorted.len()).div_ceil(100).max(1) - 1];
        Spread { q1: rank(25), median: rank(50), q3: rank(75) }
    }

    /// The spread of `f(a, b)` over round-aligned sample pairs.
    fn per_round(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> Spread {
        Spread::of(&a.iter().zip(b).map(|(&a, &b)| f(a, b)).collect::<Vec<_>>())
    }

    fn json(self) -> String {
        format!(
            "{{\"q1\": {:.4}, \"median\": {:.4}, \"q3\": {:.4}}}",
            self.q1, self.median, self.q3
        )
    }
}

/// Runs one discarded warm-up round and then `reps` timed rounds of
/// `N` arms; `measure(arm)` returns one sample, in milliseconds. Round
/// `r` starts at arm `r % N` and cycles through the rest, so with two
/// arms the first one alternates and clock drift (thermal, frequency)
/// lands on every arm alike. Returns each arm's samples in round order.
fn interleave<const N: usize>(reps: usize, mut measure: impl FnMut(usize) -> f64) -> [Vec<f64>; N] {
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(reps));
    for round in 0..=reps {
        for i in 0..N {
            let arm = (round + i) % N;
            let ms = measure(arm);
            if round > 0 {
                samples[arm].push(ms);
            }
        }
    }
    samples
}

/// Where an overhead's spread sits against its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The third quartile is under the budget.
    Within,
    /// The first quartile is over the budget.
    Over,
    /// The quartiles straddle the budget.
    NotResolved,
}

impl Verdict {
    fn of(overhead_pct: Spread, budget_pct: f64) -> Verdict {
        if overhead_pct.q3 < budget_pct {
            Verdict::Within
        } else if overhead_pct.q1 > budget_pct {
            Verdict::Over
        } else {
            Verdict::NotResolved
        }
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Over => "over",
            Verdict::NotResolved => "not resolved",
        }
    }
}

/// Wall-clock of one full DIVA run, milliseconds.
fn run_ms(rel: &Relation, sigma: &[Constraint], config: &DivaConfig) -> f64 {
    let t = Stopwatch::start();
    let out = Diva::new(config.clone()).run(black_box(rel), black_box(sigma));
    black_box(out.map(|o| o.relation.star_count()).unwrap_or(0));
    t.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------
// Search trajectory.
// ---------------------------------------------------------------------

struct TrajectoryPoint {
    rows: usize,
    strategy: &'static str,
    /// Wall-clock of the untraced run, milliseconds.
    ms: Spread,
    /// Bytes allocated under the `diva.run` span; zero when no
    /// counting allocator is installed.
    alloc_bytes_total: u64,
    search: ColoringStats,
    ok: bool,
    /// `"exact"`, `"degraded:<kind>"`, or `"error"` — how the run
    /// concluded (`ok` holds only for `"exact"`; a run the node budget
    /// stops reports `"degraded:nodes"` with its counters). The field
    /// keeps the schema aligned with the budget sweep below.
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
    let config = DivaConfig {
        k,
        strategy,
        budget: BudgetSpec::with_node_budget(TRAJECTORY_NODE_BUDGET),
        ..DivaConfig::default()
    };
    // One traced run supplies the counters and, with the counting
    // allocator installed, the run's allocation total.
    let obs = Obs::enabled();
    let outcome = Diva::new(DivaConfig { obs: obs.clone(), ..config.clone() }).run(rel, &sigma);
    let alloc_bytes_total = obs
        .snapshot()
        .span_summaries()
        .iter()
        .find(|s| s.name == "diva.run")
        .and_then(|s| s.alloc_bytes)
        .unwrap_or(0);
    let [ms] = interleave(REPS, |_| run_ms(rel, &sigma, &config));
    let (search, ok, outcome) = match &outcome {
        Ok(out) => {
            (out.stats.coloring.clone(), out.outcome.is_exact(), outcome_label(&out.outcome))
        }
        Err(_) => (ColoringStats::default(), false, "error".to_owned()),
    };
    TrajectoryPoint {
        rows: rel.n_rows(),
        strategy: strategy.name(),
        ms: Spread::of(&ms),
        alloc_bytes_total,
        search,
        ok,
        outcome,
    }
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
    outcome: String,
    nodes_explored: u64,
    star_count: usize,
    ok: bool,
}

fn budget_sweep_point(
    rel: &Relation,
    sigma: &[Constraint],
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
    match Diva::new(config).run(rel, sigma) {
        Ok(out) => BudgetSweepPoint {
            deadline_ms,
            outcome: outcome_label(&out.outcome),
            nodes_explored: out.stats.budget.as_ref().map_or(0, |u| u.nodes_explored),
            star_count: out.relation.star_count(),
            ok: true,
        },
        Err(_) => BudgetSweepPoint {
            deadline_ms,
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

struct ComponentScaling {
    instance: &'static str,
    rows: usize,
    constraints: usize,
    components: usize,
    monolithic_ms: Spread,
    /// `(threads, clustering ms, per-round speedup vs monolithic)`.
    decomposed: Vec<(usize, Spread, Spread)>,
}

/// Clustering-phase wall-clock of one exact run, milliseconds. Only
/// the clustering phase is timed: decomposition acts there, while
/// suppress/anonymize/integrate see the identical merged clustering
/// either way.
fn clustering_ms(rel: &Relation, sigma: &[Constraint], config: &DivaConfig, label: &str) -> f64 {
    let out = Diva::new(config.clone())
        .run(black_box(rel), black_box(sigma))
        .unwrap_or_else(|e| panic!("component scaling {label}: {e}"));
    assert!(out.outcome.is_exact(), "component scaling {label}: degraded");
    out.stats.t_clustering.as_secs_f64() * 1e3
}

fn bench_component_scaling(
    instance: &'static str,
    rel: &Relation,
    sigma: &[Constraint],
    k: usize,
) -> ComponentScaling {
    let set = ConstraintSet::bind(sigma, rel).expect("component sigma binds");
    let components = diva_core::components(&ConstraintGraph::build(&set)).len();
    // MinChoice keeps the comparison about decomposition itself: its
    // next-node scan is O(nodes × candidates × rows), so restricting
    // each search to its component's nodes pays even on one thread,
    // and the pool adds wall-clock parallelism on top.
    let base = DivaConfig {
        k,
        strategy: Strategy::MinChoice,
        budget: BudgetSpec::with_node_budget(crate::params::node_budget_for_backtracks(50_000)),
        ..DivaConfig::default()
    };
    // Arm 0 is the monolithic search, arm i the pool at
    // `COMPONENT_THREADS[i - 1]` workers.
    let configs: Vec<DivaConfig> =
        std::iter::once(DivaConfig { decompose: false, threads: Some(1), ..base.clone() })
            .chain(
                COMPONENT_THREADS.iter().map(|&t| DivaConfig { threads: Some(t), ..base.clone() }),
            )
            .collect();
    let [mono, decomposed @ ..] = interleave::<{ COMPONENT_THREADS.len() + 1 }>(REPS, |arm| {
        clustering_ms(rel, sigma, &configs[arm], instance)
    });
    ComponentScaling {
        instance,
        rows: rel.n_rows(),
        constraints: set.len(),
        components,
        monolithic_ms: Spread::of(&mono),
        decomposed: COMPONENT_THREADS
            .iter()
            .zip(&decomposed)
            .map(|(&t, ms)| (t, Spread::of(ms), Spread::per_round(&mono, ms, |m, d| m / d)))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Overhead pairs: the same pipeline with a recorder off and on.
// ---------------------------------------------------------------------

/// The provenance recorder's budget for the enabled path, percent of
/// the pipeline (DESIGN.md §16b).
const PROVENANCE_BUDGET_PCT: f64 = 1.0;

struct Overhead {
    rows: usize,
    off_ms: Spread,
    on_ms: Spread,
    /// `(on - off) / off` per round, percent.
    pct: Spread,
}

/// Times the full medical / proportional pipeline under `off` and `on`
/// in interleaved rounds.
fn bench_overhead(rel: &Relation, off: DivaConfig, on: DivaConfig) -> Overhead {
    let sigma = diva_constraints::generators::proportional(rel, 5, 0.7, 20);
    let configs = [off, on];
    let [off_ms, on_ms] = interleave(REPS, |arm| run_ms(rel, &sigma, &configs[arm]));
    Overhead {
        rows: rel.n_rows(),
        off_ms: Spread::of(&off_ms),
        on_ms: Spread::of(&on_ms),
        pct: Spread::per_round(&off_ms, &on_ms, |off, on| (on - off) / off * 100.0),
    }
}

/// The disabled obs handle (the workspace default) vs an enabled one —
/// spans, metrics and live cells, what `--trace` wires up.
fn obs_overhead(rel: &Relation, k: usize) -> Overhead {
    bench_overhead(
        rel,
        DivaConfig::with_k(k),
        DivaConfig { obs: Obs::enabled(), ..DivaConfig::with_k(k) },
    )
}

/// The disabled provenance recorder (the workspace default) vs an
/// enabled one — what `--provenance` wires up. Also returns the stars
/// the recorder attributed, evidence that the recording path ran.
fn provenance_overhead(rel: &Relation, k: usize) -> (Overhead, u64) {
    let provenance = Provenance::enabled();
    let overhead = bench_overhead(
        rel,
        DivaConfig::with_k(k),
        DivaConfig { provenance: provenance.clone(), ..DivaConfig::with_k(k) },
    );
    (overhead, provenance.attribution().map_or(0, |a| a.total()))
}

// ---------------------------------------------------------------------
// JSON rendering (hand-rolled: the workspace carries no serde).
// ---------------------------------------------------------------------

/// Joins rendered items into the lines of a JSON array body.
fn lines(items: impl Iterator<Item = String>, indent: &str) -> String {
    items.map(|item| format!("{indent}{item}")).collect::<Vec<_>>().join(",\n")
}

/// Runs the full perf suite and renders `BENCH_diva.json`'s content.
pub fn bench_json() -> String {
    // Fig. 4a-style trajectory: medical / proportional, every strategy.
    let mut points = Vec::new();
    for &n in &TRAJECTORY_ROWS {
        let rel = diva_datagen::medical(n, 5);
        for strategy in Strategy::all() {
            points.push(trajectory_point(&rel, 5, strategy));
        }
    }

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

    let overhead_rel = diva_datagen::medical(4_000, 7);
    let obs = obs_overhead(&overhead_rel, 5);
    let (provenance, stars_attributed) = provenance_overhead(&overhead_rel, 5);

    let trajectory = lines(
        points.iter().map(|p| {
            format!(
                "{{\"rows\": {}, \"strategy\": \"{}\", \"ms\": {}, \"alloc_bytes_total\": {}, \
                 \"assignments_tried\": {}, \"backtracks\": {}, \"node_selections\": {}, \
                 \"forward_check_prunes\": {}, \"ok\": {}, \"outcome\": \"{}\"}}",
                p.rows,
                p.strategy,
                p.ms.json(),
                p.alloc_bytes_total,
                p.search.assignments_tried,
                p.search.backtracks,
                p.search.node_selections,
                p.search.forward_check_prunes,
                p.ok,
                p.outcome,
            )
        }),
        "    ",
    );
    let sweep = lines(
        sweep.iter().map(|p| {
            format!(
                "{{\"deadline_ms\": {}, \"outcome\": \"{}\", \"nodes_explored\": {}, \
                 \"star_count\": {}, \"ok\": {}}}",
                p.deadline_ms, p.outcome, p.nodes_explored, p.star_count, p.ok
            )
        }),
        "      ",
    );
    let scaling = lines(
        scaling.iter().map(|s| {
            let decomposed = s
                .decomposed
                .iter()
                .map(|(threads, ms, speedup)| {
                    format!(
                        "{{\"threads\": {threads}, \"ms\": {}, \"speedup\": {}}}",
                        ms.json(),
                        speedup.json()
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "{{\"instance\": \"{}\", \"rows\": {}, \"constraints\": {}, \"components\": {}, \
                 \"monolithic_ms\": {}, \"decomposed\": [{decomposed}]}}",
                s.instance,
                s.rows,
                s.constraints,
                s.components,
                s.monolithic_ms.json()
            )
        }),
        "      ",
    );
    let instance = "medical-4k, proportional Sigma, full pipeline";
    format!(
        r#"{{
  "workload": "medical / proportional(n=5, frac=0.7), k=5",
  "regenerate": "cargo run --release -p diva-bench --bin experiments -- perf",
  "timing": "wall-clock ms as {{q1, median, q3}}: nearest-rank quartiles of {REPS} interleaved rounds after one warm-up round; overheads and speedups are taken per round",
  "trajectory_node_budget": {TRAJECTORY_NODE_BUDGET},
  "search_trajectory": [
{trajectory}
  ],
  "budget_sweep": {{
    "instance": "medical-4k, proportional(n=5, frac=0.7, min-freq=80), k=8",
    "points": [
{sweep}
    ]
  }},
  "component_scaling": {{
    "strategy": "MinChoice",
    "metric": "clustering-phase wall-clock, ms",
    "instances": [
{scaling}
    ]
  }},
  "obs_overhead": {{
    "instance": "{instance}",
    "measures": "obs enabled (spans, metrics, live cells) vs obs disabled; no budget",
    "rows": {},
    "obs_disabled_ms": {},
    "obs_enabled_ms": {},
    "enabled_overhead_pct": {}
  }},
  "provenance_overhead": {{
    "instance": "{instance}",
    "rows": {},
    "recorder_disabled_ms": {},
    "recorder_enabled_ms": {},
    "enabled_overhead_pct": {},
    "enabled_budget_pct": {PROVENANCE_BUDGET_PCT:.1},
    "verdict": "{}",
    "stars_attributed": {stars_attributed}
  }}
}}
"#,
        obs.rows,
        obs.off_ms.json(),
        obs.on_ms.json(),
        obs.pct.json(),
        provenance.rows,
        provenance.off_ms.json(),
        provenance.on_ms.json(),
        provenance.pct.json(),
        Verdict::of(provenance.pct, PROVENANCE_BUDGET_PCT).label(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_rotates_the_first_arm_and_spread_takes_nearest_ranks() {
        let mut calls = Vec::new();
        let mut next = 0.0;
        let [a, b] = interleave(4, |arm| {
            calls.push(arm);
            next += 1.0;
            next
        });
        // Warm-up round, then rounds starting at arm 1, 0, 1, 0.
        assert_eq!(calls, [0, 1, 1, 0, 0, 1, 1, 0, 0, 1]);
        assert_eq!(a, [4.0, 5.0, 8.0, 9.0], "warm-up samples are discarded");
        assert_eq!(b, [3.0, 6.0, 7.0, 10.0]);

        // Nearest rank: the ceil(p·n)-th smallest sample.
        let five = Spread::of(&[9.0, 1.0, 7.0, 3.0, 5.0]);
        assert_eq!(five, Spread { q1: 3.0, median: 5.0, q3: 7.0 });
        let four = Spread::of(&[4.0, 2.0, 1.0, 3.0]);
        assert_eq!(four, Spread { q1: 1.0, median: 2.0, q3: 3.0 });
        assert_eq!(Spread::of(&[6.0]), Spread { q1: 6.0, median: 6.0, q3: 6.0 });

        let pct = Spread::per_round(&[8.0, 16.0, 32.0], &[10.0, 14.0, 32.0], |off, on| {
            (on - off) / off * 100.0
        });
        assert_eq!(pct, Spread { q1: -12.5, median: 0.0, q3: 25.0 });
    }

    #[test]
    fn verdict_needs_the_whole_quartile_range_on_one_side() {
        let spread = |q1, q3| Spread { q1, median: (q1 + q3) / 2.0, q3 };
        assert_eq!(Verdict::of(spread(-3.0, 0.5), 1.0), Verdict::Within);
        assert_eq!(Verdict::of(spread(1.5, 4.0), 1.0), Verdict::Over);
        assert_eq!(Verdict::of(spread(-6.0, 25.0), 1.0), Verdict::NotResolved);
        // A quartile on the budget itself does not resolve it.
        assert_eq!(Verdict::of(spread(-1.0, 1.0), 1.0), Verdict::NotResolved);
        assert_eq!(Verdict::of(spread(1.0, 3.0), 1.0), Verdict::NotResolved);
        assert_eq!(Verdict::NotResolved.label(), "not resolved");
    }

    #[test]
    fn trajectory_point_carries_counters() {
        let rel = diva_datagen::medical(250, 5);
        let p = trajectory_point(&rel, 5, Strategy::MinChoice);
        assert!(p.ok, "tiny instance should solve");
        assert!(p.search.assignments_tried > 0);
        assert!(p.search.node_selections > 0, "search counters missing");
        assert!(0.0 < p.ms.q1 && p.ms.q1 <= p.ms.median && p.ms.median <= p.ms.q3);
        // The test binary installs the counting allocator, so the run
        // attributes memory.
        assert!(p.alloc_bytes_total > 0, "no memory attributed to diva.run");
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
        assert!(s.monolithic_ms.q1 > 0.0 && s.monolithic_ms.q3.is_finite());
        let threads: Vec<usize> = s.decomposed.iter().map(|d| d.0).collect();
        assert_eq!(threads, COMPONENT_THREADS);
        for (_, ms, speedup) in &s.decomposed {
            assert!(ms.q1 > 0.0 && ms.q3.is_finite());
            assert!(speedup.q1 > 0.0 && speedup.q3.is_finite());
        }
    }

    #[test]
    fn obs_overhead_measures_both_modes() {
        let rel = diva_datagen::medical(300, 5);
        let o = obs_overhead(&rel, 5);
        assert_eq!(o.rows, 300);
        assert!(o.off_ms.q1 > 0.0 && o.on_ms.q1 > 0.0);
        assert!(o.pct.q1.is_finite() && o.pct.q3.is_finite());
    }

    #[test]
    fn provenance_overhead_measures_both_modes() {
        let rel = diva_datagen::medical(300, 5);
        let (o, stars_attributed) = provenance_overhead(&rel, 5);
        assert_eq!(o.rows, 300);
        assert!(o.off_ms.q1 > 0.0 && o.on_ms.q1 > 0.0);
        assert!(o.pct.q1.is_finite() && o.pct.q3.is_finite());
        assert!(stars_attributed > 0, "enabled rep recorded no stars");
    }
}
