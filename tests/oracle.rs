//! A brute-force oracle for tiny (k, Σ)-anonymization instances, and
//! DIVA checked against it.
//!
//! A k-anonymous suppression groups the rows into QI classes of at
//! least k rows. Inside a class a column is either kept by every row
//! (so it must be uniform there) or starred. The oracle enumerates
//! every partition of the rows into blocks of ≥ k rows (restricted
//! growth strings) and lets each block keep any subset of its uniform
//! QI columns. A DP over the blocks, keyed by each constraint's
//! retained count, then gives the fewest stars of any suppression
//! that satisfies Σ, or "infeasible". Optimal suppression is NP-hard,
//! so instances stay at ≤ 9 rows; the paper's 10-row Table 1 is the
//! one exception.
//!
//! The property is what holds today: an exact DIVA run implies that
//! the oracle is feasible, and the run's stars are at least the
//! optimum. How often DIVA says "no" on a feasible instance is
//! printed by the ignored sweep (recorded in EXPERIMENTS.md):
//! `cargo test --release --test oracle -- --ignored --nocapture`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use diva_constraints::{Constraint, ConstraintSet};
use diva_core::{BudgetSpec, Diva, DivaConfig, DivaError, Strategy};
use diva_relation::fixtures::paper_table1;
use diva_relation::{is_k_anonymous, Attribute, Relation, RelationBuilder, RowId, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The node cap of every DIVA run here; no run on these instances
/// comes near it, so every run is exact or fails.
const NODE_BUDGET: u64 = 1 << 22;

/// The oracle's answer on a feasible instance.
#[derive(Debug, PartialEq, Eq)]
struct Optimum {
    /// The fewest stars of any k-anonymous suppression satisfying Σ.
    stars: usize,
    /// Partitions into blocks of ≥ k rows that admit such a suppression.
    feasible_partitions: usize,
}

/// One block's choices, as (constraints retained as a bitmask, fewest
/// stars that retain exactly them). Non-uniform QI columns are
/// starred. A uniform column that no constraint targets is always
/// kept, since keeping it never changes a count. Each subset of the
/// uniform target columns is tried. A block retains a constraint iff
/// every row is one of its targets and its columns are kept.
fn block_options(rel: &Relation, set: &ConstraintSet, block: &[RowId]) -> Vec<(u32, usize)> {
    let uniform = |col| block.iter().all(|&r| rel.code(r, col) == rel.code(block[0], col));
    let starred = rel.schema().qi_cols().iter().filter(|&&col| !uniform(col)).count();
    let mut choosable: Vec<usize> = set
        .constraints()
        .iter()
        .flat_map(|c| c.cols.iter().copied())
        .filter(|&c| uniform(c))
        .collect();
    choosable.sort_unstable();
    choosable.dedup();
    let mut options: BTreeMap<u32, usize> = BTreeMap::new();
    for keep in 0u32..1 << choosable.len() {
        let kept =
            |col| choosable.iter().position(|&c| c == col).is_some_and(|i| keep >> i & 1 == 1);
        let retained = set
            .constraints()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.cols.iter().all(|&col| kept(col)))
            .filter(|(_, c)| block.iter().all(|&r| c.is_target(r)))
            .fold(0u32, |mask, (i, _)| mask | 1 << i);
        let stars = block.len() * (starred + choosable.len() - keep.count_ones() as usize);
        let best = options.entry(retained).or_insert(stars);
        *best = (*best).min(stars);
    }
    options.into_iter().collect()
}

/// The fewest stars over one partition's blocks that satisfy Σ: a DP
/// whose state is each constraint's retained count so far.
fn best_for_partition(
    set: &ConstraintSet,
    blocks: &[Vec<RowId>],
    options: &[&[(u32, usize)]],
) -> Option<usize> {
    let bounds: Vec<(usize, usize)> =
        set.constraints().iter().map(|c| (c.lower, c.upper)).collect();
    let mut states: BTreeMap<Vec<usize>, usize> = BTreeMap::from([(vec![0; bounds.len()], 0)]);
    for (block, opts) in blocks.iter().zip(options) {
        let mut next: BTreeMap<Vec<usize>, usize> = BTreeMap::new();
        for (counts, &stars) in &states {
            for &(retained, extra) in opts.iter() {
                let grown: Vec<usize> = (0..bounds.len())
                    .map(|i| counts[i] + if retained >> i & 1 == 1 { block.len() } else { 0 })
                    .collect();
                // Counts only grow, so an upper bound passed stays passed.
                if grown.iter().zip(&bounds).any(|(&n, &(_, upper))| n > upper) {
                    continue;
                }
                let best = next.entry(grown).or_insert(stars + extra);
                *best = (*best).min(stars + extra);
            }
        }
        states = next;
    }
    states
        .into_iter()
        .filter(|(counts, _)| counts.iter().zip(&bounds).all(|(&n, &(lower, _))| n >= lower))
        .map(|(_, stars)| stars)
        .min()
}

/// Calls `visit` once on every partition of rows `0..n` into blocks of
/// at least `k` rows: each row joins an open block or opens the next
/// one (a restricted growth string), and a prefix whose short blocks
/// need more rows than remain is cut.
fn for_each_partition(n: usize, k: usize, visit: &mut impl FnMut(&[Vec<RowId>])) {
    fn grow(
        row: usize,
        n: usize,
        k: usize,
        blocks: &mut Vec<Vec<RowId>>,
        visit: &mut impl FnMut(&[Vec<RowId>]),
    ) {
        let short: usize = blocks.iter().map(|b| k.saturating_sub(b.len())).sum();
        if short > n - row {
            return;
        }
        if row == n {
            visit(blocks);
            return;
        }
        for b in 0..blocks.len() {
            blocks[b].push(row);
            grow(row + 1, n, k, blocks, visit);
            blocks[b].pop();
        }
        blocks.push(vec![row]);
        grow(row + 1, n, k, blocks, visit);
        blocks.pop();
    }
    grow(0, n, k, &mut Vec::new(), visit);
}

/// The fewest stars of any k-anonymous suppression of the instance's
/// table that satisfies its Σ, or `None` when there is none.
fn oracle(inst: &Instance) -> Option<Optimum> {
    let rel = &inst.rel;
    let set = ConstraintSet::bind(&inst.sigma, rel).unwrap();
    assert!(rel.n_rows() <= 10, "the oracle is exponential in the row count");
    let mut memo: Vec<Option<Vec<(u32, usize)>>> = vec![None; 1 << rel.n_rows()];
    let mut best: Option<Optimum> = None;
    for_each_partition(rel.n_rows(), inst.k, &mut |blocks| {
        let masks: Vec<usize> =
            blocks.iter().map(|b| b.iter().fold(0, |mask, &r| mask | 1 << r)).collect();
        for (b, &mask) in blocks.iter().zip(&masks) {
            memo[mask].get_or_insert_with(|| block_options(rel, &set, b));
        }
        let options: Vec<&[(u32, usize)]> =
            masks.iter().map(|&m| memo[m].as_deref().unwrap_or_default()).collect();
        if let Some(stars) = best_for_partition(&set, blocks, &options) {
            let best = best.get_or_insert(Optimum { stars, feasible_partitions: 0 });
            best.stars = best.stars.min(stars);
            best.feasible_partitions += 1;
        }
    });
    best
}

/// A tiny instance: QI columns `Q0, Q1, …` holding `v0, v1, …`, one
/// constant sensitive column, Σ and k.
struct Instance {
    rel: Relation,
    sigma: Vec<Constraint>,
    k: usize,
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let qi = self.rel.schema().qi_cols();
        let rows: Vec<String> = (0..self.rel.n_rows())
            .map(|r| {
                qi.iter().map(|&c| self.rel.value(r, c).to_string()).collect::<Vec<_>>().join(" ")
            })
            .collect();
        let sigma: Vec<String> = self.sigma.iter().map(ToString::to_string).collect();
        write!(f, "k = {}, rows {}, Σ = {{{}}}", self.k, rows.join(" / "), sigma.join(", "))
    }
}

/// A relation from rows of space-separated QI values.
fn table(rows: &[&str]) -> Relation {
    let width = rows.first().map_or(0, |r| r.split_whitespace().count());
    let mut attrs: Vec<Attribute> = (0..width).map(|c| Attribute::quasi(format!("Q{c}"))).collect();
    attrs.push(Attribute::sensitive("S"));
    let mut b = RelationBuilder::new(Arc::new(Schema::new(attrs)));
    for row in rows {
        let mut values: Vec<&str> = row.split_whitespace().collect();
        values.push("s");
        b.push_row(&values);
    }
    b.finish()
}

/// ROADMAP direction 1's generator: 6–9 rows, 2–3 QI columns of 2–3
/// values, k ∈ {2, 3}, and 1–3 constraints, each targeting the values
/// of a random row (30% on two columns). With f the target count, λl
/// is uniform in [1, f] and λr uniform in [λl, f].
fn instance(rng: &mut StdRng) -> Instance {
    let n_rows: usize = rng.gen_range(6..=9);
    let n_cols: usize = rng.gen_range(2..=3);
    let domains: Vec<usize> = (0..n_cols).map(|_| rng.gen_range(2..=3)).collect();
    let k: usize = rng.gen_range(2..=3);
    let rows: Vec<Vec<usize>> =
        (0..n_rows).map(|_| domains.iter().map(|&d| rng.gen_range(0..d)).collect()).collect();
    let n_sigma: usize = rng.gen_range(1..=3);
    let sigma = (0..n_sigma)
        .map(|_| {
            let row = &rows[rng.gen_range(0..n_rows)];
            let first = rng.gen_range(0..n_cols);
            let mut cols = vec![first];
            if rng.gen_bool(0.3) {
                cols.push((first + rng.gen_range(1..n_cols)) % n_cols);
                cols.sort_unstable();
            }
            let f = rows.iter().filter(|r| cols.iter().all(|&c| r[c] == row[c])).count();
            let lower = rng.gen_range(1..=f);
            let upper = rng.gen_range(lower..=f);
            let targets: Vec<(String, String)> =
                cols.iter().map(|&c| (format!("Q{c}"), format!("v{}", row[c]))).collect();
            Constraint::multi(targets, lower, upper)
        })
        .collect();
    let text: Vec<String> = rows
        .iter()
        .map(|r| r.iter().map(|v| format!("v{v}")).collect::<Vec<_>>().join(" "))
        .collect();
    Instance { rel: table(&text.iter().map(String::as_str).collect::<Vec<_>>()), sigma, k }
}

/// Runs one strategy: `Ok(Some(stars))` for an exact table, `Ok(None)`
/// for a degraded one, `Err` for a failure. An exact table must be
/// k-anonymous and satisfy Σ, and no run may trip an invariant check.
fn run(inst: &Instance, strategy: Strategy) -> Result<Option<usize>, DivaError> {
    let budget = BudgetSpec::with_node_budget(NODE_BUDGET);
    let config =
        DivaConfig { k: inst.k, strategy, budget, threads: Some(1), ..DivaConfig::default() };
    match Diva::new(config).run(&inst.rel, &inst.sigma) {
        Ok(out) if out.outcome.is_exact() => {
            let set = ConstraintSet::bind(&inst.sigma, &out.relation).unwrap();
            assert!(is_k_anonymous(&out.relation, inst.k), "{strategy} on {inst}");
            assert!(set.satisfied_by(&out.relation), "{strategy}: Σ violated on {inst}");
            Ok(Some(out.relation.star_count()))
        }
        Ok(_) => Ok(None),
        // Integrate cannot fail behind the search: R_Σ keeps every
        // upper bound, an R_k overshoot comes from groups that still
        // retain target values, which Integrate can star, and a
        // residual fold accepts only a host that keeps Σ.
        Err(e @ (DivaError::InvariantViolated { .. } | DivaError::IntegrateFailed { .. })) => {
            panic!("{strategy} on {inst}: {e}")
        }
        Err(e) => Err(e),
    }
}

/// The invariant for every strategy: an exact run needs a feasible
/// oracle and publishes at least its optimum of stars.
fn check_invariant(inst: &Instance, optimum: Option<&Optimum>) {
    for strategy in Strategy::all() {
        if let Ok(Some(stars)) = run(inst, strategy) {
            let Some(opt) = optimum else {
                panic!("{strategy} published an exact table the oracle calls infeasible: {inst}");
            };
            assert!(
                stars >= opt.stars,
                "{strategy}: {stars} stars < optimum {} on {inst}",
                opt.stars
            );
        }
    }
}

fn table1_sigma() -> Vec<Constraint> {
    vec![
        Constraint::single("ETH", "Asian", 2, 5),
        Constraint::single("ETH", "African", 1, 3),
        Constraint::single("CTY", "Vancouver", 2, 4),
    ]
}

#[test]
fn table1_optimum_is_table3s_star_count() {
    let inst = Instance { rel: paper_table1(), sigma: table1_sigma(), k: 2 };
    let opt = oracle(&inst);
    assert_eq!(opt, Some(Optimum { stars: 22, feasible_partitions: 49 }));
    check_invariant(&inst, opt.as_ref());
}

#[test]
fn table1_without_sigma_needs_20_stars() {
    let inst = Instance { rel: paper_table1(), sigma: Vec::new(), k: 2 };
    let opt = oracle(&inst).expect("k alone is feasible");
    assert_eq!(opt.stars, 20);
    check_invariant(&inst, Some(&opt));
}

#[test]
fn table1_at_k3_is_infeasible() {
    let inst = Instance { rel: paper_table1(), sigma: table1_sigma(), k: 3 };
    assert_eq!(oracle(&inst), None);
    check_invariant(&inst, None);
}

/// Case A: 7 stars keep {1,4} whole, keep Q0 but star the uniform Q1
/// in {5,6}, and star Q2 in {0,2,3}.
fn case_a() -> Instance {
    let rel = table(&[
        "v0 v2 v1", "v1 v0 v0", "v0 v2 v2", "v0 v2 v1", "v1 v0 v0", "v1 v0 v2", "v1 v0 v0",
    ]);
    let sigma = vec![Constraint::single("Q1", "v0", 2, 2), Constraint::single("Q0", "v1", 3, 4)];
    Instance { rel, sigma, k: 2 }
}

/// Case B: 2 stars keep {1,4} and {3,5} whole and star Q1 in {0,2}.
fn case_b() -> Instance {
    let rel = table(&["v0 v1", "v1 v0", "v0 v0", "v1 v1", "v1 v0", "v1 v1"]);
    let sigma = vec![Constraint::single("Q0", "v1", 3, 4), Constraint::single("Q1", "v0", 1, 2)];
    Instance { rel, sigma, k: 2 }
}

#[test]
fn case_a_optimum_is_7() {
    let inst = case_a();
    let opt = oracle(&inst).expect("feasible");
    assert_eq!(opt.stars, 7);
    check_invariant(&inst, Some(&opt));
}

#[test]
fn case_b_optimum_is_2() {
    let inst = case_b();
    let opt = oracle(&inst).expect("feasible");
    assert_eq!(opt.stars, 2);
    check_invariant(&inst, Some(&opt));
}

#[test]
fn exact_runs_are_feasible_and_never_beat_the_optimum() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..300 {
        let inst = instance(&mut rng);
        check_invariant(&inst, oracle(&inst).as_ref());
    }
}

/// Per strategy over seeds 1–3 × 2,000 generated instances: how often
/// DIVA errs on a feasible instance, by error kind, and the stars of
/// its exact runs against the optimum; then DIVA's verdicts on cases
/// A and B.
#[test]
#[ignore = "sweep: run in release with --ignored --nocapture"]
fn sweep_false_no_and_star_gap() {
    #[derive(Default)]
    struct Tally {
        exact: usize,
        degraded: usize,
        errors: BTreeMap<&'static str, usize>,
        at_optimum: usize,
        ratio_sum: f64,
        ratio_runs: usize,
    }
    let kind = |e: &DivaError| match e {
        DivaError::NoDiverseClustering { .. } => "NoDiverseClustering",
        DivaError::ResidualTooSmall { .. } => "ResidualTooSmall",
        _ => "other",
    };
    let (mut instances, mut feasible, mut all_fail) = (0, 0, 0);
    let mut tallies: Vec<Tally> = Strategy::all().iter().map(|_| Tally::default()).collect();
    for seed in 1..=3 {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..2_000 {
            let inst = instance(&mut rng);
            let opt = oracle(&inst);
            instances += 1;
            feasible += usize::from(opt.is_some());
            let mut failed = 0;
            for (tally, strategy) in tallies.iter_mut().zip(Strategy::all()) {
                match (run(&inst, strategy), &opt) {
                    (Ok(Some(_)), None) => panic!("{strategy}: exact table on infeasible {inst}"),
                    (Ok(Some(stars)), Some(opt)) => {
                        tally.exact += 1;
                        tally.at_optimum += usize::from(stars == opt.stars);
                        if opt.stars > 0 {
                            tally.ratio_sum += stars as f64 / opt.stars as f64;
                            tally.ratio_runs += 1;
                        }
                    }
                    (Ok(None), _) => tally.degraded += 1,
                    (Err(e), Some(_)) => {
                        *tally.errors.entry(kind(&e)).or_default() += 1;
                        failed += 1;
                    }
                    (Err(_), None) => {}
                }
            }
            all_fail += usize::from(failed == tallies.len());
        }
    }
    for (name, inst) in [("case A", case_a()), ("case B", case_b())] {
        for strategy in Strategy::all() {
            match run(&inst, strategy) {
                Ok(Some(stars)) => println!("{name}, {strategy}: exact, {stars} stars"),
                Ok(None) => println!("{name}, {strategy}: degraded"),
                Err(e) => println!("{name}, {strategy}: {} ({e})", kind(&e)),
            }
        }
    }
    println!("{instances} instances, {feasible} feasible; all strategies fail on {all_fail}");
    for (tally, strategy) in tallies.iter().zip(Strategy::all()) {
        let errs: usize = tally.errors.values().sum();
        let pct = |n: usize, of: usize| 100.0 * n as f64 / of.max(1) as f64;
        println!(
            "{strategy}: errors on feasible {errs} ({:.1}%) {:?}; degraded {}; exact {}, at optimum \
             {:.1}%, mean stars/optimum {:.3} over {} runs with optimum > 0",
            pct(errs, feasible),
            tally.errors,
            tally.degraded,
            tally.exact,
            pct(tally.at_optimum, tally.exact),
            tally.ratio_sum / tally.ratio_runs.max(1) as f64,
            tally.ratio_runs,
        );
    }
}
