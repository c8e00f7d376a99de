//! The resource budget's acceptance run on the medical-4k workload: a
//! deadline must come back *degraded but valid* instead of running the
//! full exact search or erroring out.
//!
//! The tier-1 test is counted, not timed: a zero deadline must degrade
//! with `DeadlineExceeded` before the search explores a single node,
//! and the degraded table must keep every hard guarantee.
//!
//! The wall-clock bound — degraded output within 2× the deadline in
//! release builds, the advertised bound; debug builds get 4× for
//! profile slack — is `#[ignore]`d here and run by the bench stage of
//! `scripts/check.sh` (`cargo test --release --test budget_acceptance
//! -- --ignored`). Host speed varies by an order of magnitude across
//! the machines this suite runs on, so its deadline is calibrated
//! rather than fixed: an unbudgeted run is timed first and the deadline
//! is set to a quarter of it (capped at 50 ms). If the host solves the
//! instance so fast that even that is under the 5 ms floor — where
//! degrade-path materialization would dominate the bound — the
//! instance is scaled up until the exact run is comfortably slower
//! than the deadline.

use std::time::Duration;

use diva_constraints::{generators, Constraint, ConstraintSet};
use diva_core::{BudgetSpec, DegradeReason, Diva, DivaConfig, DivaResult, Outcome};
use diva_obs::Stopwatch;
use diva_relation::is_k_anonymous;
use diva_relation::suppress::is_refinement;
use diva_relation::Relation;

/// The acceptance workload at a given scale (min-freq tracks rows so
/// the constraint shape stays comparable across sizes).
fn instance(rows: usize) -> (Relation, Vec<Constraint>) {
    let rel = diva_datagen::medical(rows, 29);
    let sigma = generators::proportional(&rel, 5, 0.7, rows / 50);
    (rel, sigma)
}

/// Runs `rel` at k = 8 under `deadline`.
fn run_with_deadline(rel: &Relation, sigma: &[Constraint], deadline: Duration) -> DivaResult {
    let config =
        DivaConfig { k: 8, budget: BudgetSpec::with_deadline(deadline), ..DivaConfig::default() };
    Diva::new(config).run(rel, sigma).expect("deadline degrades, not errors")
}

/// The degraded contract: `DeadlineExceeded`, a k-anonymous refinement
/// publishing every row, and every constraint satisfied or voided.
fn assert_degraded_validly(rel: &Relation, sigma: &[Constraint], out: &DivaResult) {
    assert!(
        matches!(out.outcome, Outcome::Degraded { reason: DegradeReason::DeadlineExceeded { .. } }),
        "expected DeadlineExceeded, got {:?}",
        out.outcome
    );
    assert!(is_refinement(rel, &out.relation, &out.source_rows));
    assert!(is_k_anonymous(&out.relation, 8));
    assert_eq!(out.relation.n_rows(), rel.n_rows());
    let set = ConstraintSet::bind(sigma, &out.relation).expect("bind");
    for c in set.constraints() {
        let n = c.count_in(&out.relation);
        assert!(
            n == 0 || (c.lower..=c.upper).contains(&n),
            "{} neither satisfied nor voided",
            c.label()
        );
    }
}

#[test]
fn medical_4k_deadline_degrades_promptly_and_validly() {
    let (rel, sigma) = instance(4_000);
    let out = run_with_deadline(&rel, &sigma, Duration::ZERO);
    assert_degraded_validly(&rel, &sigma, &out);
    // Promptness as counted work: the expired deadline is caught at
    // the latest by the search's entry poll, before any node.
    let usage = out.stats.budget.expect("budget accounting attached");
    assert_eq!(usage.nodes_explored, 0, "search ran past an expired deadline");
    assert_eq!(out.stats.coloring.assignments_tried, 0);
}

#[test]
#[ignore = "wall-clock bound; run by the bench stage of scripts/check.sh"]
fn medical_4k_deadline_degrades_within_twice_the_deadline() {
    let cap = Duration::from_millis(50);
    let floor = Duration::from_millis(5);
    let mut chosen = None;
    for rows in [4_000usize, 16_000, 64_000] {
        let (rel, sigma) = instance(rows);
        let sw = Stopwatch::start();
        Diva::new(DivaConfig { k: 8, ..DivaConfig::default() })
            .run(&rel, &sigma)
            .expect("acceptance instance must be exactly solvable");
        let exact = sw.elapsed();
        let deadline = cap.min(exact / 4);
        if deadline >= floor {
            chosen = Some((rel, sigma, deadline));
            break;
        }
    }
    let (rel, sigma, deadline) =
        chosen.expect("64k rows solved exactly in under 20ms — calibration floor unreachable");

    // Best-of-3 to shed scheduler noise; the fastest rep is the
    // honest latency of the degrade path.
    let mut elapsed = Duration::MAX;
    for _ in 0..3 {
        let sw = Stopwatch::start();
        let out = run_with_deadline(&rel, &sigma, deadline);
        elapsed = elapsed.min(sw.elapsed());
        assert_degraded_validly(&rel, &sigma, &out);
        let usage = out.stats.budget.expect("budget accounting attached");
        assert!(usage.elapsed >= deadline, "degraded before the deadline actually passed");
    }
    let bound = deadline * if cfg!(debug_assertions) { 4 } else { 2 };
    assert!(
        elapsed <= bound,
        "degraded run took {elapsed:?} (best of 3), bound {bound:?} (deadline {deadline:?})"
    );
}
