//! Resource budgets and graceful degradation.
//!
//! (k, Σ)-anonymization is NP-hard, so a production deployment cannot
//! let the colouring search run unboundedly. A [`BudgetSpec`] bounds a
//! run two ways — a wall-clock deadline and an explored-node cap — and
//! is the only limit on the search: without one the search is exact
//! and unbounded. The node cap also bounds candidate repairs: every
//! repair attempt follows a failed assignment attempt, which the
//! search has already counted as a node. The armed [`Budget`] is
//! checked at the search's poll points (every 256 nodes, and exactly
//! at the node cap) and its deadline at every pipeline phase boundary.
//! Exhaustion does **not** fail the run: the pipeline falls back to
//! the degraded mode described in `DESIGN.md` §10 (k-anonymize the
//! clustered-so-far prefix, suppress every row of still-violating
//! groups) and the result is tagged [`Outcome::Degraded`] with the
//! triggering [`DegradeReason`].
//!
//! A single armed [`Budget`] can be shared by every member of a
//! parallel portfolio: the node counter is atomic, and the deadline is
//! measured from the shared [`Stopwatch`], so the whole portfolio
//! respects one global budget rather than each member getting its own.
//!
//! [`Stopwatch`]: diva_obs::Stopwatch

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use diva_obs::Stopwatch;

/// Declarative resource limits for a DIVA run (or a whole portfolio).
///
/// The default is unlimited on every axis, which preserves the exact
/// (possibly exponential) behaviour. Limits compose: the first one to
/// trip decides the [`DegradeReason`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Wall-clock deadline for the whole run, measured from
    /// [`BudgetSpec::arm`]. `Duration::ZERO` degrades at the first
    /// check — useful in tests.
    pub deadline: Option<Duration>,
    /// Cap on explored search nodes (assignment attempts of the
    /// colouring search, summed over every search charging the
    /// budget). A single search under cap `N` stops at exactly
    /// `N + 1` nodes.
    pub node_budget: Option<u64>,
}

impl BudgetSpec {
    /// A spec with only a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self { deadline: Some(deadline), ..Self::default() }
    }

    /// A spec with only an explored-node cap.
    pub fn with_node_budget(nodes: u64) -> Self {
        Self { node_budget: Some(nodes), ..Self::default() }
    }

    /// Whether no limit is configured (the default): an unlimited spec
    /// is never armed, so the hot path pays nothing.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.node_budget.is_none()
    }

    /// Starts the clock and returns a shareable armed budget, or
    /// `None` when the spec is unlimited.
    pub fn arm(&self) -> Option<Arc<Budget>> {
        if self.is_unlimited() {
            None
        } else {
            Some(Arc::new(Budget::start(self.clone())))
        }
    }
}

/// An armed [`BudgetSpec`]: a running [`Stopwatch`] plus an atomic
/// node counter, shared (via `Arc`) by every thread charging
/// against the same global budget.
#[derive(Debug)]
pub struct Budget {
    spec: BudgetSpec,
    clock: Stopwatch,
    nodes: AtomicU64,
}

impl Budget {
    /// Arms `spec`, starting the deadline clock now.
    pub fn start(spec: BudgetSpec) -> Self {
        Self { spec, clock: Stopwatch::start(), nodes: AtomicU64::new(0) }
    }

    /// The spec this budget was armed from.
    pub fn spec(&self) -> &BudgetSpec {
        &self.spec
    }

    /// Checks only the wall-clock deadline — the phase-boundary check,
    /// cheap enough to call between pipeline steps.
    pub fn check_deadline(&self) -> Option<DegradeReason> {
        let deadline = self.spec.deadline?;
        let elapsed = self.clock.elapsed();
        (elapsed > deadline).then_some(DegradeReason::DeadlineExceeded {
            elapsed_ms: elapsed.as_millis() as u64,
            deadline_ms: deadline.as_millis() as u64,
        })
    }

    /// Charges `n` explored nodes, then checks the node cap and the
    /// deadline. Called when a search settles at a poll, with the nodes
    /// explored since its previous settle. Returns how many more nodes
    /// the cap allows (`u64::MAX` without a cap), so the search can
    /// poll again exactly where the cap would trip.
    pub fn charge_nodes(&self, n: u64) -> Result<u64, DegradeReason> {
        let total = self.nodes.fetch_add(n, Ordering::Relaxed).saturating_add(n);
        let headroom = match self.spec.node_budget {
            Some(cap) if total > cap => {
                return Err(DegradeReason::NodeBudgetExhausted { explored: total, cap })
            }
            Some(cap) => cap - total,
            None => u64::MAX,
        };
        self.check_deadline().map_or(Ok(headroom), Err)
    }

    /// A snapshot of global consumption so far (shared across a
    /// portfolio, so a member's stats report portfolio-wide totals).
    pub fn usage(&self) -> BudgetUsage {
        BudgetUsage {
            nodes_explored: self.nodes.load(Ordering::Relaxed),
            elapsed: self.clock.elapsed(),
        }
    }
}

/// Budget consumption recorded into [`crate::RunStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BudgetUsage {
    /// Explored search nodes: every assignment attempt of the searches
    /// that charged this budget.
    pub nodes_explored: u64,
    /// Wall-clock time since the budget was armed.
    pub elapsed: Duration,
}

/// Why a run degraded instead of finishing exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeReason {
    /// The wall-clock deadline passed.
    DeadlineExceeded {
        /// Elapsed time when the deadline check tripped.
        elapsed_ms: u64,
        /// The configured deadline.
        deadline_ms: u64,
    },
    /// The explored-node cap was reached.
    NodeBudgetExhausted {
        /// Nodes explored when the cap tripped.
        explored: u64,
        /// The configured cap.
        cap: u64,
    },
    /// Every portfolio member was lost to worker panics (a genuine
    /// bug, or a panicking runner passed to
    /// [`crate::run_portfolio_with`]); the portfolio degrades to a
    /// fully-suppressed output instead of erroring.
    WorkerPanic {
        /// The panic message of the lowest-index lost member.
        detail: String,
    },
}

impl DegradeReason {
    /// Short machine-readable kind, used as the obs counter suffix
    /// (`budget.exhausted.<kind>`) and span attribute.
    pub fn kind(&self) -> &'static str {
        match self {
            DegradeReason::DeadlineExceeded { .. } => "deadline",
            DegradeReason::NodeBudgetExhausted { .. } => "nodes",
            DegradeReason::WorkerPanic { .. } => "worker_panic",
        }
    }
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::DeadlineExceeded { elapsed_ms, deadline_ms } => {
                write!(f, "deadline exceeded ({elapsed_ms} ms elapsed, deadline {deadline_ms} ms)")
            }
            DegradeReason::NodeBudgetExhausted { explored, cap } => {
                write!(f, "node budget exhausted ({explored} explored, cap {cap})")
            }
            DegradeReason::WorkerPanic { detail } => {
                write!(f, "all portfolio workers lost to panics (lowest member: {detail})")
            }
        }
    }
}

/// Whether a [`DivaResult`][crate::DivaResult] is the exact answer or
/// a budget-degraded fallback.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Outcome {
    /// The full DIVA pipeline ran to completion: the output is exactly
    /// what an unbudgeted run would produce.
    #[default]
    Exact,
    /// A budget tripped (or every portfolio worker was lost): the
    /// output is the degraded-mode result — still k-anonymous and a
    /// refinement of the input, with every constraint either satisfied
    /// or fully voided (count zero), but not suppression-minimal and
    /// without the ℓ-diversity extension.
    Degraded {
        /// Which limit tripped.
        reason: DegradeReason,
    },
}

impl Outcome {
    /// `true` for [`Outcome::Exact`].
    pub fn is_exact(&self) -> bool {
        matches!(self, Outcome::Exact)
    }

    /// The degrade reason, if any.
    pub fn degrade_reason(&self) -> Option<&DegradeReason> {
        match self {
            Outcome::Exact => None,
            Outcome::Degraded { reason } => Some(reason),
        }
    }
}

/// Why a run, or one search, stopped before its verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Stop {
    /// The cancellation flag was set: the run ends with
    /// [`DivaError::Cancelled`][crate::DivaError].
    Cancelled,
    /// A limit tripped: the run degrades with the clustered-so-far
    /// prefix.
    Degraded(DegradeReason),
}

/// The one stop context of a run: the cancellation flag plus the armed
/// budget (if any), shared by every thread working for the run.
///
/// [`crate::Diva::run`] arms the configured budget into fresh
/// controls; [`crate::run_portfolio`] arms one budget for the whole
/// portfolio and hands every member the same `Controls`, so the
/// deadline and the node cap are global — a member dequeued late does
/// not get a fresh clock. The cancellation flag is also the portfolio
/// pool's stop flag: the first member to report sets it.
#[derive(Debug, Clone, Default)]
pub struct Controls {
    cancel: Arc<AtomicBool>,
    budget: Option<Arc<Budget>>,
}

impl Controls {
    /// Fresh controls with an optional pre-armed budget.
    pub fn new(budget: Option<Arc<Budget>>) -> Self {
        Self { cancel: Arc::new(AtomicBool::new(false)), budget }
    }

    /// The cancellation flag polled by the search.
    pub fn cancel_flag(&self) -> &Arc<AtomicBool> {
        &self.cancel
    }

    /// The shared budget, if one is armed.
    pub fn budget(&self) -> Option<&Arc<Budget>> {
        self.budget.as_ref()
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// The phase-boundary check: cancellation first, then the
    /// deadline. The node cap is left to the search's own polls, so a
    /// search that finished exactly is never degraded afterwards by
    /// nodes another search charged. Both stops are sticky (the flag
    /// is never cleared, the clock never runs back).
    pub(crate) fn checkpoint(&self) -> Option<Stop> {
        if self.is_cancelled() {
            return Some(Stop::Cancelled);
        }
        self.budget.as_ref()?.check_deadline().map(Stop::Degraded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_spec_never_arms() {
        assert!(BudgetSpec::default().is_unlimited());
        assert!(BudgetSpec::default().arm().is_none());
        assert!(!BudgetSpec::with_node_budget(10).is_unlimited());
        assert!(BudgetSpec::with_node_budget(10).arm().is_some());
    }

    #[test]
    fn node_cap_trips_once_exceeded() {
        let b = Budget::start(BudgetSpec::with_node_budget(100));
        assert_eq!(b.charge_nodes(64), Ok(36));
        assert_eq!(b.charge_nodes(32), Ok(4)); // 96 ≤ 100
        assert_eq!(b.charge_nodes(4), Ok(0)); // exactly at the cap
        let reason = b.charge_nodes(28).expect_err("128 > 100");
        assert!(matches!(reason, DegradeReason::NodeBudgetExhausted { explored: 128, cap: 100 }));
        assert_eq!(b.usage().nodes_explored, 128);
    }

    #[test]
    fn uncapped_budget_reports_unlimited_headroom() {
        let b = Budget::start(BudgetSpec::with_deadline(Duration::from_secs(3600)));
        assert_eq!(b.charge_nodes(1_000), Ok(u64::MAX));
        assert_eq!(b.usage().nodes_explored, 1_000);
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let b = Budget::start(BudgetSpec::with_deadline(Duration::ZERO));
        // Any measurable elapsed time exceeds a zero deadline.
        std::thread::sleep(Duration::from_millis(1));
        assert!(matches!(b.check_deadline(), Some(DegradeReason::DeadlineExceeded { .. })));
        assert!(b.charge_nodes(1).is_err());
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let b = Budget::start(BudgetSpec::with_deadline(Duration::from_secs(3600)));
        assert_eq!(b.check_deadline(), None);
        assert_eq!(b.charge_nodes(1_000), Ok(u64::MAX));
    }

    #[test]
    fn every_charged_node_counts_against_the_cap() {
        // A search's end-of-solve remainder is an ordinary charge: it
        // counts in the usage and moves every sharer's trip point.
        let b = Budget::start(BudgetSpec::with_node_budget(100));
        assert_eq!(b.charge_nodes(90), Ok(10));
        let reason = b.charge_nodes(64).expect_err("154 > 100");
        assert_eq!(reason, DegradeReason::NodeBudgetExhausted { explored: 154, cap: 100 });
        assert_eq!(b.usage().nodes_explored, 154);
    }

    #[test]
    fn shared_budget_accumulates_across_clones() {
        let b = BudgetSpec::with_node_budget(1000).arm().unwrap();
        let b2 = Arc::clone(&b);
        assert_eq!(b.charge_nodes(300), Ok(700));
        assert_eq!(b2.charge_nodes(300), Ok(400));
        assert_eq!(b.usage().nodes_explored, 600);
    }

    #[test]
    fn outcome_and_reason_accessors() {
        assert!(Outcome::Exact.is_exact());
        assert!(Outcome::Exact.degrade_reason().is_none());
        let d = Outcome::Degraded {
            reason: DegradeReason::NodeBudgetExhausted { explored: 5, cap: 4 },
        };
        assert!(!d.is_exact());
        assert_eq!(d.degrade_reason().unwrap().kind(), "nodes");
        assert_eq!(Outcome::default(), Outcome::Exact);
    }

    #[test]
    fn reason_kinds_and_displays() {
        let reasons = [
            DegradeReason::DeadlineExceeded { elapsed_ms: 70, deadline_ms: 50 },
            DegradeReason::NodeBudgetExhausted { explored: 512, cap: 256 },
            DegradeReason::WorkerPanic { detail: "injected".into() },
        ];
        let kinds: Vec<_> = reasons.iter().map(DegradeReason::kind).collect();
        assert_eq!(kinds, ["deadline", "nodes", "worker_panic"]);
        assert!(reasons[0].to_string().contains("50 ms"));
        assert!(reasons[1].to_string().contains("256"));
        assert!(reasons[2].to_string().contains("injected"));
    }

    #[test]
    fn controls_cancel_roundtrip() {
        let c = Controls::default();
        assert!(!c.is_cancelled());
        assert!(c.budget().is_none());
        assert_eq!(c.checkpoint(), None);
        c.cancel_flag().store(true, Ordering::Relaxed);
        assert!(c.is_cancelled());
        assert_eq!(c.checkpoint(), Some(Stop::Cancelled));
        let armed = Controls::new(BudgetSpec::with_node_budget(1).arm());
        assert!(armed.budget().is_some());
    }

    #[test]
    fn checkpoint_sees_the_deadline_but_not_the_node_cap() {
        let capped = Controls::new(BudgetSpec::with_node_budget(1).arm());
        assert!(capped.budget().unwrap().charge_nodes(5).is_err());
        assert_eq!(capped.checkpoint(), None, "the node cap is the search's to check");
        let expired = Controls::new(BudgetSpec::with_deadline(Duration::ZERO).arm());
        std::thread::sleep(Duration::from_millis(1));
        assert!(matches!(
            expired.checkpoint(),
            Some(Stop::Degraded(DegradeReason::DeadlineExceeded { .. }))
        ));
        expired.cancel_flag().store(true, Ordering::Relaxed);
        assert_eq!(expired.checkpoint(), Some(Stop::Cancelled), "cancellation comes first");
    }
}
