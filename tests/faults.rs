//! The failure matrix: worker panics, an Anonymize step that outlives
//! the deadline, a search without candidate repair, a cancellation
//! raised mid-pipeline and a search frozen under the stall watchdog
//! must each surface as a graceful [`Outcome::Degraded`] or a clean
//! error, never a hang, an escaped panic or a corrupted relation.
//!
//! Each failure is driven through a seam the pipeline has for its own
//! reasons: the portfolio's member runner ([`run_portfolio_with`]), the
//! Anonymize step ([`Diva::with_anonymizer`]), the repair switch
//! ([`DivaConfig::enable_repair`]), the caller's [`Controls`]
//! ([`Diva::run_controlled`]) and a public [`Coloring`] search. Each
//! scenario asserts the exact degrade reason or error, and the
//! deterministic ones assert byte-identical reruns.

use std::sync::atomic::Ordering;
use std::time::Duration;

use diva_anonymize::{Anonymizer, KMember};
use diva_constraints::{generators, Constraint, ConstraintSet};
use diva_core::{
    run_portfolio_with, BudgetSpec, CandidateSet, Coloring, ConstraintGraph, Controls,
    DegradeReason, Diva, DivaConfig, DivaError, DivaResult, Outcome, Strategy,
};
use diva_obs::live::{Phase, Sampler, SamplerConfig};
use diva_obs::{Obs, Stopwatch};
use diva_relation::suppress::is_refinement;
use diva_relation::{is_k_anonymous, Relation, RowId};

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

/// The panic a member runner raises for `member`; it names the member
/// by strategy and seed, which together tell the portfolio's members
/// apart.
fn member_panic(member: &DivaConfig) -> String {
    format!("member {}/{:#x} panicked", member.strategy.name(), member.seed)
}

/// Worker panics: with every portfolio member's runner panicking, the
/// portfolio must contain the panics and fall back to the fully
/// suppressed degraded result, deterministically, with the detail of
/// the lowest member whatever order the members panicked in.
#[test]
fn all_worker_panics_degrade_deterministically() {
    let (rel, sigma) = workload(600);
    let config = DivaConfig::with_k(5);
    let run = || {
        run_portfolio_with(
            &rel,
            &sigma,
            &config,
            2,
            |member, _, _, _| -> Result<DivaResult, DivaError> {
                panic!("{}", member_panic(member))
            },
        )
        .expect("panics are contained, not propagated")
    };
    let out = run();
    // Member 0 is the first strategy at the unshifted seed.
    let lowest = DivaConfig { strategy: Strategy::all()[0], ..config.clone() };
    match &out.outcome {
        Outcome::Degraded { reason: DegradeReason::WorkerPanic { detail } } => {
            assert_eq!(detail, &member_panic(&lowest));
        }
        other => panic!("expected WorkerPanic degradation, got {other:?}"),
    }
    assert_contract(&rel, &sigma, 5, &out);
    assert_eq!(fingerprint(&out), fingerprint(&run()), "fault outcome not deterministic");
}

/// Some members panic: the one healthy member left (MaxFanOut at the
/// unshifted seed; the other five of 3 strategies × 2 seeds panic)
/// still wins, so the portfolio publishes its exact answer.
#[test]
fn surviving_members_keep_the_portfolio_exact() {
    let (rel, sigma) = workload(600);
    let config = DivaConfig::with_k(5);
    let survivor = DivaConfig { strategy: Strategy::MaxFanOut, ..config.clone() };
    let out = run_portfolio_with(&rel, &sigma, &config, 2, |member, rel, sigma, controls| {
        if (member.strategy, member.seed) != (survivor.strategy, survivor.seed) {
            panic!("{}", member_panic(member));
        }
        Diva::new(member.clone()).run_controlled(rel, sigma, controls)
    })
    .expect("a healthy member wins");
    assert!(out.outcome.is_exact(), "healthy member should produce an exact result");
    assert_contract(&rel, &sigma, 5, &out);
    let alone = Diva::new(survivor).run(&rel, &sigma).expect("the survivor solves alone");
    assert_eq!(
        fingerprint(&out),
        fingerprint(&alone),
        "the portfolio changed the survivor's table"
    );
}

/// What [`Faulty`] does before its k-member clustering.
enum Misstep {
    /// Sleeps this long: an Anonymize step slower than the deadline.
    Sleep(Duration),
    /// Raises the cancellation flag of these controls.
    Cancel(Controls),
}

/// The pipeline's default Anonymize step, k-member seeded as
/// [`Diva::new`] seeds it, with one misstep before it clusters.
struct Faulty {
    inner: KMember,
    misstep: Misstep,
}

impl Faulty {
    fn boxed(config: &DivaConfig, misstep: Misstep) -> Box<Self> {
        Box::new(Faulty { inner: KMember { seed: config.seed, ..KMember::default() }, misstep })
    }
}

impl Anonymizer for Faulty {
    fn name(&self) -> &'static str {
        "faulty-k-member"
    }

    fn cluster(&self, rel: &Relation, rows: &[RowId], k: usize) -> Vec<Vec<RowId>> {
        match &self.misstep {
            Misstep::Sleep(delay) => std::thread::sleep(*delay),
            Misstep::Cancel(controls) => controls.cancel_flag().store(true, Ordering::Relaxed),
        }
        self.inner.cluster(rel, rows, k)
    }
}

/// A slow step past the deadline: an Anonymize step that sleeps the
/// whole deadline must degrade the run with `DeadlineExceeded` at the
/// next phase boundary. The search ended before the step began, so the
/// degraded table keeps the clustering it searched: the same search
/// counters and Σ-rows as the unbudgeted run, and no constraint voided.
#[test]
fn anonymize_past_the_deadline_degrades_with_the_searched_prefix() {
    let (rel, sigma) = workload(600);
    let exact =
        Diva::new(DivaConfig::with_k(5)).run(&rel, &sigma).expect("instance is satisfiable");
    let deadline = Duration::from_millis(100);
    let config =
        DivaConfig { budget: BudgetSpec::with_deadline(deadline), ..DivaConfig::with_k(5) };
    let diva =
        Diva::with_anonymizer(config.clone(), Faulty::boxed(&config, Misstep::Sleep(deadline)));
    let out = diva.run(&rel, &sigma).expect("deadline degrades, not errors");
    assert!(
        matches!(out.outcome, Outcome::Degraded { reason: DegradeReason::DeadlineExceeded { .. } }),
        "expected DeadlineExceeded, got {:?}",
        out.outcome
    );
    assert_contract(&rel, &sigma, 5, &out);
    assert!(out.stats.budget.is_some(), "budget accounting missing from a budgeted run");
    assert_eq!(out.stats.coloring, exact.stats.coloring, "the search did not run to its end");
    assert_eq!(out.stats.sigma_rows, exact.stats.sigma_rows, "the searched prefix was not kept");
    assert_eq!(out.stats.constraints_voided, 0);
}

/// A search without candidate repair, on an instance whose search
/// repairs when it may: every blocked candidate is skipped instead of
/// repaired, and the search backtracks around it. On this instance it
/// still finds a colouring, so the run publishes an exact table under
/// the contract, and a rerun publishes the same table.
#[test]
fn a_search_without_repair_backtracks_to_an_exact_table() {
    let rel = diva_datagen::medical(800, 47);
    let sigma = generators::with_conflict_rate(&rel, 4, 0.5, 5, 14);
    let repairing = DivaConfig { strategy: Strategy::MinChoice, ..DivaConfig::with_k(5) };
    let exact = Diva::new(repairing.clone()).run(&rel, &sigma).expect("instance is satisfiable");
    assert!(exact.stats.coloring.repair_attempts > 0, "instance no longer exercises repair");
    let run = || {
        let config = DivaConfig {
            enable_repair: false,
            budget: BudgetSpec::with_node_budget(1_000_000),
            ..repairing.clone()
        };
        Diva::new(config).run(&rel, &sigma)
    };
    let out = run().expect("the search finds a colouring without repair");
    assert!(out.outcome.is_exact(), "expected an exact table, got {:?}", out.outcome);
    assert_eq!(out.stats.coloring.repair_attempts, 0, "a repair was attempted");
    assert_contract(&rel, &sigma, 5, &out);
    let rerun = run().expect("the rerun finds a colouring without repair");
    assert_eq!(fingerprint(&out), fingerprint(&rerun), "outcome not deterministic");
}

/// Cancellation at a phase boundary: the caller's cancellation flag,
/// raised inside the Anonymize step, must abort `run_controlled` with
/// [`DivaError::Cancelled`] at the boundary after it. The trace shows
/// clustering, suppress and anonymize ran, and integrate did not.
#[test]
fn cancellation_inside_anonymize_stops_before_integrate() {
    let (rel, sigma) = workload(400);
    let obs = Obs::enabled();
    let config = DivaConfig { obs: obs.clone(), ..DivaConfig::with_k(5) };
    let controls = Controls::default();
    let diva = Diva::with_anonymizer(
        config.clone(),
        Faulty::boxed(&config, Misstep::Cancel(controls.clone())),
    );
    let err = diva.run_controlled(&rel, &sigma, &controls).unwrap_err();
    assert_eq!(err, DivaError::Cancelled);

    let trace = obs.snapshot().trace_jsonl();
    let has = |name: &str| trace.contains(&format!("\"name\":\"{name}\""));
    assert!(has("diva.clustering"), "clustering should have completed before the boundary");
    assert!(has("diva.suppress"), "suppress should have completed before the boundary");
    assert!(has("diva.anonymize"), "the cancelling step is part of anonymize");
    assert!(!has("diva.integrate"), "integrate ran after cancellation");
    assert!(!has("diva.degrade"), "a cancelled run degraded");
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

/// A Basic search of about 1,000 nodes: four poll strides, so the
/// settled node count is non-zero and the run stays short.
fn few_strides_workload() -> (Relation, Vec<Constraint>, DivaConfig) {
    let rel = diva_datagen::medical(600, 11);
    let sigma = generators::proportional(&rel, 10, 0.7, 20);
    let config = DivaConfig { k: 5, strategy: Strategy::Basic, ..DivaConfig::default() };
    (rel, sigma, config)
}

/// The watchdog's configuration in both tests below.
fn watchdog() -> SamplerConfig {
    SamplerConfig { interval: Duration::from_millis(10), stall_periods: 3 }
}

/// Watching never steers: a real colouring search publishes its nodes
/// on a watched handle inside a clustering phase the test holds open
/// after the search returns, so the node count freezes mid-phase. The
/// watchdog flags the stall, and the search found what the same search
/// finds with no sampler attached.
#[test]
fn stall_watchdog_flags_a_frozen_search_without_steering_it() {
    let (rel, sigma, config) = few_strides_workload();
    let set = ConstraintSet::bind(&sigma, &rel).expect("bind");
    let graph = ConstraintGraph::build(&set);
    let shuffle = (config.strategy == Strategy::Basic).then_some(config.seed);
    let candidates: Vec<CandidateSet> = set
        .constraints()
        .iter()
        .map(|c| CandidateSet::enumerate(&rel, c, config.k, config.max_candidates, shuffle))
        .collect();
    let uppers: Vec<usize> = set.constraints().iter().map(|c| c.upper).collect();
    let labels: Vec<String> = set.constraints().iter().map(|c| c.label()).collect();
    let search = |obs: &Obs| {
        let config = DivaConfig { obs: obs.clone(), ..config.clone() };
        Coloring::new(&graph, &candidates, uppers.clone(), &labels, &config)
            .solve()
            .expect("workload solves")
    };

    let obs = Obs::enabled();
    let sampler = Sampler::spawn(&obs, watchdog(), None);
    let phase = obs.phase(Phase::Clustering);
    let watched = search(&obs);
    let stalls = || obs.snapshot().counter("obs.stall.detected");
    let waited = Stopwatch::start();
    while stalls().is_none() && waited.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
    }
    phase.end();
    sampler.stop();
    let unwatched = search(&Obs::disabled());

    let snap = obs.snapshot();
    assert!(stalls().is_some_and(|n| n >= 1), "no stall counter");
    assert!(snap.spans.iter().any(|s| s.name == "diva.stall"), "no diva.stall span");
    assert_eq!(watched.degraded, None, "watching degraded the search");
    assert_eq!(watched.clusters, unwatched.clusters);
    assert_eq!(watched.assignment, unwatched.assignment);
    assert_eq!(watched.stats, unwatched.stats);
    let live = obs.live().expect("enabled handle snapshots");
    assert_eq!(live.nodes, watched.stats.assignments_tried);
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
