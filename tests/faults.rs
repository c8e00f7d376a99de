//! Fault-injection matrix (`--features fault-inject`): every fault
//! class the shim can arm — worker panics, poll slowdowns past the
//! deadline, spurious repair failures, mid-pipeline cancellation —
//! must surface as either a graceful [`Outcome::Degraded`] or a clean
//! error, never a hang, an escaped panic, or a corrupted relation.
//! All faults are deterministic by seed, so each scenario asserts the
//! exact degrade reason and byte-identical reruns.
#![cfg(feature = "fault-inject")]

use std::time::Duration;

use diva_constraints::{generators, Constraint, ConstraintSet};
use diva_core::faults::FaultPlan;
use diva_core::{
    run_portfolio, BudgetSpec, Controls, DegradeReason, Diva, DivaConfig, DivaError, DivaResult,
    Outcome, Strategy,
};
use diva_obs::Obs;
use diva_relation::suppress::is_refinement;
use diva_relation::{is_k_anonymous, Relation};

/// The degraded-mode contract every Ok result must satisfy, exact or
/// not: refinement, k-anonymity, every tuple published exactly once,
/// and each constraint either satisfied or fully voided (count 0).
fn assert_contract(rel: &Relation, sigma: &[Constraint], k: usize, out: &DivaResult) {
    assert!(is_refinement(rel, &out.relation, &out.source_rows), "not a refinement");
    assert!(is_k_anonymous(&out.relation, k), "not {k}-anonymous");
    assert_eq!(out.relation.n_rows(), rel.n_rows(), "tuples lost or duplicated");
    let mut src = out.source_rows.clone();
    src.sort_unstable();
    src.dedup();
    assert_eq!(src.len(), rel.n_rows(), "duplicated/missing source rows");
    let set = ConstraintSet::bind(sigma, &out.relation).expect("bind");
    for c in set.constraints() {
        let n = c.count_in(&out.relation);
        assert!(
            n == 0 || (c.lower..=c.upper).contains(&n),
            "{} neither satisfied nor voided: count {n} outside [{}, {}]",
            c.label(),
            c.lower,
            c.upper
        );
    }
}

/// A stable fingerprint of the published relation for determinism
/// assertions.
fn fingerprint(out: &DivaResult) -> String {
    format!("{:?}|{:?}", out.relation, out.outcome)
}

fn workload(rows: usize) -> (Relation, Vec<Constraint>) {
    let rel = diva_datagen::medical(rows, 11);
    let sigma = generators::proportional(&rel, 5, 0.7, 20);
    (rel, sigma)
}

/// Worker panic fault: with every portfolio member armed to panic,
/// the portfolio must contain the panics and fall back to the fully
/// suppressed degraded result — deterministically, with the detail of
/// the lowest member whatever order the members panicked in.
#[test]
fn all_worker_panics_degrade_deterministically() {
    let (rel, sigma) = workload(600);
    let run = || {
        let config = DivaConfig {
            k: 5,
            faults: FaultPlan::seeded(7).panic_workers(100),
            ..DivaConfig::default()
        };
        run_portfolio(&rel, &sigma, &config, 2).expect("panics are contained, not propagated")
    };
    let out = run();
    match &out.outcome {
        Outcome::Degraded { reason: DegradeReason::WorkerPanic { detail } } => {
            assert_eq!(detail, "injected fault: portfolio worker 0 panicked");
        }
        other => panic!("expected WorkerPanic degradation, got {other:?}"),
    }
    assert_contract(&rel, &sigma, 5, &out);
    assert_eq!(fingerprint(&out), fingerprint(&run()), "fault outcome not deterministic");
}

/// A partial panic rate leaves at least one healthy member, so the
/// portfolio still returns the exact answer.
#[test]
fn surviving_members_keep_the_portfolio_exact() {
    let (rel, sigma) = workload(600);
    // Seed chosen so FaultPlan::seeded(3).panic_workers(50) spares at
    // least one of the six members (3 strategies × 2 seeds).
    let config = DivaConfig {
        k: 5,
        faults: FaultPlan::seeded(3).panic_workers(50),
        ..DivaConfig::default()
    };
    let out = run_portfolio(&rel, &sigma, &config, 2).expect("a healthy member wins");
    assert!(out.outcome.is_exact(), "healthy member should produce an exact result");
    assert_contract(&rel, &sigma, 5, &out);
}

/// Slowdown fault: polls that sleep past the wall-clock deadline must
/// degrade with `DeadlineExceeded` — the run returns promptly instead
/// of hanging for the whole slowed-down search.
#[test]
fn slow_polls_past_deadline_degrade() {
    let (rel, sigma) = workload(600);
    let config = DivaConfig {
        k: 5,
        budget: BudgetSpec::with_deadline(Duration::from_millis(10)),
        faults: FaultPlan::seeded(1).slow_polls(Duration::from_millis(50)),
        ..DivaConfig::default()
    };
    let out = Diva::new(config).run(&rel, &sigma).expect("deadline degrades, not errors");
    assert!(
        matches!(out.outcome, Outcome::Degraded { reason: DegradeReason::DeadlineExceeded { .. } }),
        "expected DeadlineExceeded, got {:?}",
        out.outcome
    );
    assert_contract(&rel, &sigma, 5, &out);
    assert!(out.stats.budget.is_some(), "budget accounting missing from a budgeted run");
}

/// Spurious repair failures (every repair refused): the search must
/// absorb them — backtracking around the hole — and either publish
/// under the contract (exact, or degraded on its node budget) or fail
/// with a clean unsatisfiability proof. Never a panic or hang.
#[test]
fn spurious_repair_failures_are_absorbed() {
    let rel = diva_datagen::medical(800, 47);
    let sigma = generators::with_conflict_rate(&rel, 4, 0.5, 5, 14);
    // Calibration: unfaulted, the instance makes repair attempts, so
    // refusing them all changes the search.
    let unfaulted = DivaConfig { k: 5, strategy: Strategy::MinChoice, ..DivaConfig::default() };
    let exact = Diva::new(unfaulted).run(&rel, &sigma).expect("instance is satisfiable");
    assert!(exact.stats.coloring.repair_attempts > 0, "instance no longer exercises repair");
    let run = || {
        let config = DivaConfig {
            k: 5,
            strategy: Strategy::MinChoice,
            budget: BudgetSpec::with_node_budget(1_000_000),
            faults: FaultPlan::seeded(5).fail_repairs(100),
            ..DivaConfig::default()
        };
        Diva::new(config).run(&rel, &sigma)
    };
    match run() {
        Ok(out) => {
            assert_eq!(out.stats.coloring.repair_successes, 0, "a failed repair succeeded");
            assert_contract(&rel, &sigma, 5, &out);
        }
        Err(DivaError::NoDiverseClustering { .. }) => {} // a clean search failure is acceptable with repair disabled
        Err(e) => panic!("unexpected error class: {e}"),
    }
    // Deterministic by seed: same plan, same outcome.
    assert_eq!(
        run().map(|o| fingerprint(&o)).map_err(|e| e.to_string()),
        run().map(|o| fingerprint(&o)).map_err(|e| e.to_string()),
    );
}

/// The clustering→suppress handoff: cancellation arriving exactly
/// between clustering and suppress. `run_controlled` must
/// abort with [`DivaError::Cancelled`] before suppressing — the trace
/// shows clustering ran and nothing after it did.
#[test]
fn cancellation_between_clustering_and_suppress_aborts_cleanly() {
    let (rel, sigma) = workload(400);
    let obs = Obs::enabled();
    let config = DivaConfig {
        k: 5,
        obs: obs.clone(),
        faults: FaultPlan::seeded(0).cancel_at_phase("clustering"),
        ..DivaConfig::default()
    };
    let err = Diva::new(config).run_controlled(&rel, &sigma, &Controls::default()).unwrap_err();
    assert_eq!(err, DivaError::Cancelled);

    let trace = obs.snapshot().trace_jsonl();
    let has = |name: &str| trace.contains(&format!("\"name\":\"{name}\""));
    assert!(has("diva.clustering"), "clustering should have completed before the boundary");
    assert!(!has("diva.suppress"), "suppress ran after cancellation");
    assert!(!has("diva.anonymize"), "anonymize ran after cancellation");
    assert!(!has("diva.integrate"), "integrate ran after cancellation");
}

/// Every run has a stop context, so the same phase fault cancels a
/// plain `run` too, at the same boundary: clustering completed and
/// nothing after it ran.
#[test]
fn phase_fault_cancels_a_plain_run_too() {
    let (rel, sigma) = workload(400);
    let obs = Obs::enabled();
    let config = DivaConfig {
        k: 5,
        obs: obs.clone(),
        faults: FaultPlan::seeded(0).cancel_at_phase("clustering"),
        ..DivaConfig::default()
    };
    assert_eq!(Diva::new(config).run(&rel, &sigma).unwrap_err(), DivaError::Cancelled);
    let trace = obs.snapshot().trace_jsonl();
    let has = |name: &str| trace.contains(&format!("\"name\":\"{name}\""));
    assert!(has("diva.clustering"), "clustering should have completed before the boundary");
    assert!(!has("diva.suppress"), "suppress ran after cancellation");
}

/// Degradation reaches the obs layer: the budget-exhaustion counter
/// and the degrade span both record the reason.
#[test]
fn degraded_runs_are_visible_in_the_trace() {
    let (rel, sigma) = workload(600);
    let obs = Obs::enabled();
    let config = DivaConfig {
        k: 5,
        obs: obs.clone(),
        budget: BudgetSpec::with_deadline(Duration::ZERO),
        ..DivaConfig::default()
    };
    let out = Diva::new(config).run(&rel, &sigma).expect("degrades");
    assert!(!out.outcome.is_exact());
    let snapshot = obs.snapshot();
    let trace = snapshot.trace_jsonl();
    assert!(trace.contains("\"name\":\"diva.degrade\""), "degrade span missing:\n{trace}");
    assert!(trace.contains("deadline"), "degrade reason missing from trace");
    let summary = snapshot.summary_json();
    assert!(
        summary.contains("budget.exhausted.deadline"),
        "budget-exhaustion counter missing:\n{summary}"
    );
}

/// A Basic search of about 1,000 nodes: four poll strides, so a slowed
/// poll freezes a published, non-zero node count, and the run stays
/// short even with every poll slowed.
fn few_strides_workload() -> (Relation, Vec<Constraint>, DivaConfig) {
    let rel = diva_datagen::medical(600, 11);
    let sigma = generators::proportional(&rel, 10, 0.7, 20);
    let config = DivaConfig { k: 5, strategy: Strategy::Basic, ..DivaConfig::default() };
    (rel, sigma, config)
}

/// The watchdog's configuration in both tests below.
fn watchdog() -> diva_obs::live::SamplerConfig {
    diva_obs::live::SamplerConfig { interval: Duration::from_millis(10), stall_periods: 3 }
}

/// Watching never steers: polls slowed far past the sampling window
/// freeze the settled node count mid-search, the watchdog flags the
/// stall, and the run still finishes exactly, publishing what the same
/// run publishes with no sampler attached.
#[test]
fn stall_watchdog_flags_a_frozen_search_without_steering_it() {
    let (rel, sigma, config) = few_strides_workload();
    let faults = FaultPlan::seeded(1).slow_polls(Duration::from_millis(200));
    let run = |obs: &Obs| {
        let config = DivaConfig { obs: obs.clone(), faults: faults.clone(), ..config.clone() };
        Diva::new(config).run(&rel, &sigma).expect("workload solves")
    };
    let obs = Obs::enabled();
    let sampler = diva_obs::live::Sampler::spawn(&obs, watchdog(), None);
    let watched = run(&obs);
    sampler.stop();
    let unwatched = run(&Obs::enabled());

    let snap = obs.snapshot();
    assert!(snap.counter("obs.stall.detected").is_some_and(|n| n >= 1), "no stall counter");
    assert!(snap.spans.iter().any(|s| s.name == "diva.stall"), "no diva.stall span");
    assert!(watched.outcome.is_exact(), "watching changed the outcome: {:?}", watched.outcome);
    assert_contract(&rel, &sigma, 5, &watched);
    assert_eq!(format!("{:?}", watched.relation), format!("{:?}", unwatched.relation));
    assert_eq!(watched.groups, unwatched.groups);
    assert_eq!(watched.source_rows, unwatched.source_rows);
    let live = obs.live().expect("enabled handle snapshots");
    assert_eq!(live.phase, diva_obs::live::Phase::Done);
    assert_eq!(live.nodes, watched.stats.coloring.assignments_tried);
}

/// The same watchdog, armed identically, must stay quiet on a healthy
/// (fault-free) run of the same search.
#[test]
fn stall_watchdog_stays_quiet_on_a_healthy_run() {
    let (rel, sigma, config) = few_strides_workload();
    let obs = Obs::enabled();
    let sampler = diva_obs::live::Sampler::spawn(&obs, watchdog(), None);
    let out = Diva::new(DivaConfig { obs: obs.clone(), ..config })
        .run(&rel, &sigma)
        .expect("healthy run solves");
    sampler.stop();
    assert!(out.outcome.is_exact(), "watchdog must not perturb a healthy run");
    assert!(out.stats.coloring.assignments_tried > 256, "the watchdog never armed");
    assert!(!obs.live().expect("enabled handle snapshots").stalled);
    assert_eq!(obs.snapshot().counter("obs.stall.detected"), None);
}
