//! Parallel portfolio search — the paper's future-work item "a
//! distributed version of the coloring algorithm to improve
//! scalability by satisfying constraints in parallel", realized as a
//! portfolio: several complete DIVA searches with different strategies
//! and seeds race, and the first result stops the rest.
//!
//! A portfolio parallelizes the *search* (the exponential component)
//! rather than a single run's bookkeeping, which is the standard way
//! to parallelize backtracking with restarts; it preserves exactness
//! (a member only reports `NoDiverseClustering` once its search is
//! exhausted) and gives speedups whenever strategies disagree about
//! which instance is easy — which Fig. 4a shows they strongly do.
//!
//! Execution model: the members run on the shared scoped worker pool
//! (`pool::run_tasks`), capped at
//! [`std::thread::available_parallelism`] (overridable via
//! [`DivaConfig::threads`]), so a large portfolio never oversubscribes
//! the machine. Members borrow the caller's relation and Σ. The first
//! member to report a result stops the pool and sets the shared
//! cancellation token, which the colouring search and the pipeline's
//! phase boundaries poll; losers abandon their searches at the next
//! poll and are joined before `run_portfolio` returns. The verdict is
//! then ranked over the members that reported (`pool::strongest`),
//! ties to the lowest member index. A member stopped before it
//! finished has no result to rank (it reports `Cancelled`, or never
//! started), so when two members would both succeed, which one wins,
//! and the table it publishes, can change from run to run.
//!
//! Every member publishes live progress into the caller's obs handle
//! (nodes and repairs add up across members), and writes the same meta
//! line into the caller's provenance recorder when Σ binds. The
//! verdicts, the final `Done` phase and the provenance log are
//! published once, after the join, from the result the portfolio
//! returns.

use diva_constraints::Constraint;
use diva_relation::Relation;

use crate::budget::{Controls, DegradeReason};
use crate::config::{DivaConfig, Strategy};
use crate::diva::{Diva, DivaResult};
use crate::error::DivaError;
use crate::pool;

/// Runs a portfolio of DIVA searches in parallel and returns the
/// strongest member verdict.
///
/// The portfolio contains one member per strategy (MinChoice,
/// MaxFanOut, Basic) times `seeds_per_strategy` seeds derived from
/// `config.seed`. Returns [`DivaError::EmptyPortfolio`] when
/// `seeds_per_strategy` is zero.
///
/// A configured [`DivaConfig::budget`] is armed **once** and shared by
/// every member, so the deadline and the node cap are global to
/// the portfolio — a member dequeued late does not get a fresh clock.
/// The first member to report a result (exact *or* budget-degraded)
/// cancels the rest. Verdicts rank exact > `NoDiverseClustering` >
/// degraded > other error > worker panic > cancelled, ties to the
/// lowest member index. Worker panics are contained: a panicking
/// member is recorded as [`DivaError::WorkerPanicked`], and if *every*
/// member is lost to panics, the portfolio returns the fully-suppressed
/// degraded fallback, its detail taken from the lowest member.
pub fn run_portfolio(
    rel: &Relation,
    sigma: &[Constraint],
    config: &DivaConfig,
    seeds_per_strategy: usize,
) -> Result<DivaResult, DivaError> {
    run_portfolio_with(rel, sigma, config, seeds_per_strategy, |member, rel, sigma, controls| {
        Diva::new(member.clone()).run_controlled(rel, sigma, controls)
    })
}

/// [`run_portfolio`] with an injectable member runner — the test seam
/// that lets the early-return, panic-containment, and budget behaviour
/// be exercised with synthetic members. Production code uses
/// [`run_portfolio`].
pub fn run_portfolio_with<F>(
    rel: &Relation,
    sigma: &[Constraint],
    config: &DivaConfig,
    seeds_per_strategy: usize,
    member_runner: F,
) -> Result<DivaResult, DivaError>
where
    F: Fn(&DivaConfig, &Relation, &[Constraint], &Controls) -> Result<DivaResult, DivaError> + Sync,
{
    config.validate()?;
    if seeds_per_strategy == 0 {
        return Err(DivaError::EmptyPortfolio);
    }
    let mut members = Vec::new();
    for strategy in Strategy::all() {
        for s in 0..seeds_per_strategy as u64 {
            let mut c = config.clone();
            c.strategy = strategy;
            c.seed = config.seed.wrapping_add(s.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            members.push(c);
        }
    }

    let obs = &config.obs;
    let mut root_span = obs
        .span("portfolio.run")
        .attr("members", members.len())
        .attr("seeds_per_strategy", seeds_per_strategy);
    let root_id = root_span.id();
    // One budget for the whole portfolio: armed here (clock starts
    // now) and shared through the controls every member receives. The
    // controls' cancellation token doubles as the pool's stop flag.
    let controls = Controls::new(config.budget.arm());
    // `validate()` above rejected `Some(0)`, and `available_parallelism`
    // is at least 1, so the cap is always positive.
    let n_workers = members.len().min(config.workers());
    root_span.set_attr("workers", n_workers);
    let slots =
        pool::run_tasks(&members, n_workers, controls.cancel_flag(), Result::is_ok, |i, member| {
            // Each member runs under its own span, explicitly parented to
            // the portfolio root (worker threads have no implicit span
            // stack): the span's start/duration gives the member's start
            // and finish/cancel latency, and the attrs identify the
            // strategy and derived seed.
            let mut member_span = obs
                .span("portfolio.member")
                .attr("member", i)
                .attr("strategy", member.strategy.name())
                .attr("seed", member.seed);
            if let Some(id) = root_id {
                member_span = member_span.with_parent(id);
            }
            // Contained here (not only by the pool) so a panicking member
            // still closes its span with a `panicked` outcome.
            let out = pool::contain(|| {
                #[cfg(feature = "fault-inject")]
                member.faults.worker_panic_point(i);
                member_runner(member, rel, sigma, &controls)
            });
            let outcome = match &out {
                Ok(res) if res.outcome.is_exact() => "success",
                Ok(_) => "degraded",
                Err(DivaError::Cancelled) => "cancelled",
                Err(DivaError::WorkerPanicked { .. }) => "panicked",
                Err(_) => "failure",
            };
            member_span.set_attr("outcome", outcome);
            member_span.end();
            obs.counter(&format!("portfolio.{outcome}")).incr();
            out
        });

    let mut verdict = match pool::strongest(slots, |res| res.outcome.is_exact()) {
        Some((_, Ok(res))) => Ok(res),
        // Only chosen when no member produced anything stronger, i.e.
        // every member was lost: degrade to the fully-suppressed
        // fallback rather than failing the caller.
        Some((_, Err(DivaError::WorkerPanicked { detail }))) => Diva::new(config.clone())
            .degraded_fallback(rel, sigma, DegradeReason::WorkerPanic { detail }),
        Some((_, Err(e))) => Err(e),
        None => Err(DivaError::EmptyPortfolio),
    };
    if let Ok(res) = &mut verdict {
        res.publish_done(config);
    }
    root_span.set_attr(
        "outcome",
        match &verdict {
            Ok(res) if res.outcome.is_exact() => "success",
            Ok(_) => "degraded",
            Err(_) => "failure",
        },
    );
    root_span.end();
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    use diva_constraints::ConstraintSet;
    use diva_relation::fixtures::paper_table1;
    use diva_relation::is_k_anonymous;

    use crate::diva::RunStats;

    fn example_sigma() -> Vec<Constraint> {
        vec![
            Constraint::single("ETH", "Asian", 2, 5),
            Constraint::single("ETH", "African", 1, 3),
            Constraint::single("CTY", "Vancouver", 2, 4),
        ]
    }

    #[test]
    fn portfolio_solves_paper_example() {
        let r = paper_table1();
        let out = run_portfolio(&r, &example_sigma(), &DivaConfig::with_k(2), 2).unwrap();
        assert!(is_k_anonymous(&out.relation, 2));
        let set = ConstraintSet::bind(&example_sigma(), &out.relation).unwrap();
        assert!(set.satisfied_by(&out.relation));
    }

    #[test]
    fn portfolio_propagates_unsatisfiability() {
        let r = paper_table1();
        let sigma = vec![Constraint::single("ETH", "Asian", 6, 10)];
        let err = run_portfolio(&r, &sigma, &DivaConfig::with_k(2), 1).unwrap_err();
        assert!(matches!(err, DivaError::NoDiverseClustering { .. }));
    }

    #[test]
    fn portfolio_on_larger_instance() {
        let r = diva_datagen::medical(1_000, 5);
        // Moderate retention demands: lower bounds around 30% of each
        // value's frequency. (Aggressive bounds make the instance
        // genuinely unsatisfiable: each constraint's own clustering
        // must meet its lower bound with clusters disjoint from other
        // constraints', so lower bounds compete for rows.)
        let sigma = diva_constraints::generators::proportional(&r, 5, 0.7, 20);
        let out = run_portfolio(&r, &sigma, &DivaConfig::with_k(5), 1).unwrap();
        assert!(is_k_anonymous(&out.relation, 5));
        let set = ConstraintSet::bind(&sigma, &out.relation).unwrap();
        assert!(set.satisfied_by(&out.relation));
    }

    #[test]
    fn portfolio_emits_member_spans() {
        let r = paper_table1();
        let obs = crate::obs::Obs::enabled();
        let config = DivaConfig::with_k(2).obs(obs.clone());
        run_portfolio(&r, &example_sigma(), &config, 2).unwrap();
        // Losers are joined before the portfolio returns, so every
        // member that started has closed its span by now.
        let snap = obs.snapshot();
        let members: Vec<_> = snap.spans.iter().filter(|s| s.name == "portfolio.member").collect();
        let root_id = snap.spans.iter().find(|s| s.name == "portfolio.run").map(|s| s.id);
        assert!(root_id.is_some(), "portfolio.run span recorded");
        assert!(!members.is_empty());
        let done: u64 = ["success", "degraded", "failure", "cancelled", "panicked"]
            .iter()
            .map(|o| snap.counter(&format!("portfolio.{o}")).unwrap_or(0))
            .sum();
        assert_eq!(done, members.len() as u64, "one outcome counter per member span");
        for m in &members {
            assert_eq!(m.parent, root_id, "member spans parent to portfolio.run");
            assert!(m.attrs.iter().any(|(k, _)| k == "seed"), "member span carries its seed");
            assert!(m.attrs.iter().any(|(k, _)| k == "outcome"));
        }
        assert!(snap.counter("portfolio.success").unwrap_or(0) >= 1);
    }

    #[test]
    fn portfolio_publishes_one_verdict_and_done() {
        // Twelve island constraints in four components, raced by six
        // members on one handle: members must not add up verdicts or
        // component completions, and no loser may publish after Done.
        let r = diva_datagen::medical(2_000, 7);
        let sigma = diva_constraints::generators::islands(&r, 4, 3, 0.8, 20);
        let obs = crate::obs::Obs::enabled();
        let config = DivaConfig::with_k(5).strategy(Strategy::MinChoice).obs(obs.clone());
        run_portfolio(&r, &sigma, &config, 2).unwrap();
        let live = obs.live().expect("enabled handle");
        assert_eq!(live.constraints_total, sigma.len() as u64);
        assert_eq!(live.satisfied + live.voided, live.constraints_total, "{live:?}");
        assert!(live.components_done <= live.components_total, "{live:?}");
        assert_eq!(live.phase, diva_obs::live::Phase::Done);
    }

    #[test]
    fn zero_seeds_is_an_error() {
        let r = paper_table1();
        let err = run_portfolio(&r, &[], &DivaConfig::with_k(2), 0).unwrap_err();
        assert_eq!(err, DivaError::EmptyPortfolio);
    }

    #[test]
    fn thread_cap_of_one_still_completes() {
        let r = paper_table1();
        let mut config = DivaConfig::with_k(2);
        config.threads = Some(1);
        let out = run_portfolio(&r, &example_sigma(), &config, 2).unwrap();
        assert!(is_k_anonymous(&out.relation, 2));
    }

    fn dummy_result() -> DivaResult {
        DivaResult {
            relation: paper_table1(),
            groups: Vec::new(),
            source_rows: Vec::new(),
            stats: RunStats::default(),
            outcome: crate::Outcome::Exact,
            notes: None,
        }
    }

    #[test]
    fn winner_returns_without_waiting_for_slow_losers() {
        // Member 0 wins at once; the other two "search" until
        // cancelled, capped at ~10 s of polls. The barrier in
        // `race_three` starts all three, and each loser must leave
        // through its cancellation branch: a broken cancel runs into
        // the cap and fails the count, with no bound on elapsed time.
        let cancelled = AtomicUsize::new(0);
        let out = race_three(|i, controls| {
            if i == 0 {
                return Ok(dummy_result());
            }
            for _ in 0..5_000 {
                if controls.is_cancelled() {
                    cancelled.fetch_add(1, Ordering::Relaxed);
                    return Err(DivaError::Cancelled);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(DivaError::InvalidConfig { reason: "slow loser was never cancelled".into() })
        })
        .unwrap();
        assert!(out.groups.is_empty(), "got the synthetic winner");
        assert_eq!(cancelled.load(Ordering::Relaxed), 2, "a loser was not cancelled");
    }

    #[test]
    fn zero_deadline_portfolio_degrades_on_the_real_pipeline() {
        let r = paper_table1();
        let config = DivaConfig::with_k(2).budget(crate::BudgetSpec::with_deadline(Duration::ZERO));
        let out = run_portfolio(&r, &example_sigma(), &config, 2).unwrap();
        assert!(!out.outcome.is_exact(), "zero deadline must degrade");
        assert!(is_k_anonymous(&out.relation, 2));
        assert_eq!(out.relation.n_rows(), r.n_rows());
        assert!(out.stats.budget.is_some(), "budget usage recorded");
    }

    #[test]
    fn generous_budget_portfolio_still_exact() {
        let r = paper_table1();
        let config = DivaConfig::with_k(2)
            .budget(crate::BudgetSpec::with_deadline(Duration::from_secs(600)));
        let out = run_portfolio(&r, &example_sigma(), &config, 1).unwrap();
        assert!(out.outcome.is_exact());
        let set = ConstraintSet::bind(&example_sigma(), &out.relation).unwrap();
        assert!(set.satisfied_by(&out.relation));
    }

    /// A synthetic result tagged with the member that produced it.
    fn tagged(member: usize, outcome: crate::Outcome) -> DivaResult {
        DivaResult {
            stats: RunStats { n_constraints: member, ..RunStats::default() },
            outcome,
            ..dummy_result()
        }
    }

    /// Three single-seed members on three workers, all released at
    /// once by a barrier so none can finish before every one started.
    /// `member` gets its index (strategy order) and the shared controls.
    fn race_three(
        member: impl Fn(usize, &Controls) -> Result<DivaResult, DivaError> + Sync,
    ) -> Result<DivaResult, DivaError> {
        let config = DivaConfig::with_k(2).threads(Some(3)).unwrap();
        let barrier = Barrier::new(3);
        run_portfolio_with(&paper_table1(), &[], &config, 1, |m, _rel, _sigma, controls| {
            barrier.wait();
            member(Strategy::all().iter().position(|&s| s == m.strategy).unwrap(), controls)
        })
    }

    /// Spins until `done` holds, forcing an interleaving without sleeps.
    fn wait_until(done: impl Fn() -> bool) {
        while !done() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn panicking_member_does_not_sink_the_portfolio() {
        let out = race_three(|i, _| {
            if i == 0 {
                return Ok(dummy_result());
            }
            panic!("synthetic worker bug");
        })
        .unwrap();
        assert!(out.outcome.is_exact());
    }

    #[test]
    fn all_members_panicking_degrades_instead_of_erroring() {
        // Member 0 panics first, its siblings after it; the detail is
        // still the lowest member's.
        let first_panicking = AtomicBool::new(false);
        let out = race_three(|i, _| -> Result<DivaResult, DivaError> {
            if i == 0 {
                first_panicking.store(true, Ordering::Relaxed);
            } else {
                wait_until(|| first_panicking.load(Ordering::Relaxed));
            }
            panic!("synthetic worker bug in member {i}");
        })
        .unwrap();
        match &out.outcome {
            crate::Outcome::Degraded { reason: DegradeReason::WorkerPanic { detail } } => {
                assert_eq!(detail, "synthetic worker bug in member 0");
            }
            other => panic!("expected WorkerPanic degradation, got {other:?}"),
        }
        // The fallback publishes every row, fully QI-suppressed.
        assert_eq!(out.relation.n_rows(), paper_table1().n_rows());
        assert!(is_k_anonymous(&out.relation, 2));
        assert_eq!(out.groups.len(), 1);
    }

    #[test]
    fn tied_winners_resolve_to_the_lowest_member() {
        // Member 0 reports only after a sibling's success has set the
        // token. The lowest index still wins.
        let out = race_three(|i, controls| {
            if i == 0 {
                wait_until(|| controls.is_cancelled());
            }
            Ok(tagged(i, crate::Outcome::Exact))
        })
        .unwrap();
        assert_eq!(out.stats.n_constraints, 0, "lowest member index wins a tie");
    }

    #[test]
    fn unsat_proof_beats_a_degraded_sibling() {
        // The degraded member reports first; the NoDiverseClustering
        // that lands after it still decides the verdict.
        let out = race_three(|i, controls| match i {
            0 => Ok(tagged(
                0,
                crate::Outcome::Degraded {
                    reason: DegradeReason::NodeBudgetExhausted { explored: 9, cap: 8 },
                },
            )),
            1 => {
                wait_until(|| controls.is_cancelled());
                Err(DivaError::NoDiverseClustering { constraint: "X[x]".into() })
            }
            _ => Err(DivaError::Cancelled),
        });
        assert!(matches!(out.unwrap_err(), DivaError::NoDiverseClustering { .. }));
    }

    #[test]
    fn an_error_beats_worker_panics() {
        // Mixed panics and an ordinary error: the error is a verdict,
        // so the portfolio reports it instead of degrading.
        let out = race_three(|i, _| {
            if i == 1 {
                return Err(DivaError::ResidualTooSmall { remaining: 1 });
            }
            panic!("synthetic worker bug in member {i}");
        });
        assert_eq!(out.unwrap_err(), DivaError::ResidualTooSmall { remaining: 1 });
    }
}
