//! Resource budgets and graceful degradation.
//!
//! (k, Σ)-anonymization is NP-hard, so a production deployment cannot
//! let the colouring search run unboundedly. A [`BudgetSpec`] bounds a
//! run three ways — a wall-clock deadline, an explored-node cap, and a
//! repair-attempt cap — and the armed [`Budget`] is checked at the
//! existing cancellation poll points of the search plus every pipeline
//! phase boundary. Exhaustion does **not** fail the run: the pipeline
//! falls back to the degraded mode described in `DESIGN.md` §10
//! (k-anonymize the clustered-so-far prefix, suppress every row of
//! still-violating groups) and the result is tagged
//! [`Outcome::Degraded`] with the triggering [`DegradeReason`].
//!
//! A single armed [`Budget`] can be shared by every member of a
//! parallel portfolio: the node and repair counters are atomic, and
//! the deadline is measured from the shared [`Stopwatch`], so the
//! whole portfolio respects one global budget rather than each member
//! getting its own.

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
    /// colouring search, charged at poll granularity).
    pub node_budget: Option<u64>,
    /// Cap on candidate-repair attempts
    /// ([`crate::CandidateSet::repair`] invocations).
    pub repair_budget: Option<u64>,
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
        self.deadline.is_none() && self.node_budget.is_none() && self.repair_budget.is_none()
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

/// An armed [`BudgetSpec`]: a running [`Stopwatch`] plus atomic
/// consumption counters, shared (via `Arc`) by every thread charging
/// against the same global budget.
#[derive(Debug)]
pub struct Budget {
    spec: BudgetSpec,
    clock: Stopwatch,
    nodes: AtomicU64,
    /// Nodes a search explored after its last poll, settled once its
    /// outcome is decided ([`Budget::settle_nodes`]).
    settled_nodes: AtomicU64,
    repairs: AtomicU64,
}

impl Budget {
    /// Arms `spec`, starting the deadline clock now.
    pub fn start(spec: BudgetSpec) -> Self {
        Self {
            spec,
            clock: Stopwatch::start(),
            nodes: AtomicU64::new(0),
            settled_nodes: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
        }
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

    /// Charges `n` explored nodes and checks the node cap and the
    /// deadline. Called from the search's poll points, so `n` is the
    /// poll stride, not 1.
    pub fn charge_nodes(&self, n: u64) -> Option<DegradeReason> {
        let total = self.nodes.fetch_add(n, Ordering::Relaxed).saturating_add(n);
        if let Some(cap) = self.spec.node_budget {
            if total > cap {
                return Some(DegradeReason::NodeBudgetExhausted { explored: total, cap });
            }
        }
        self.check_deadline()
    }

    /// Records `n` nodes a search explored after its last poll, once
    /// the search has ended. They count in [`Budget::usage`] but never
    /// against the node cap: the search's outcome is already decided,
    /// and a search still running on another thread must trip exactly
    /// where it would have without them.
    pub fn settle_nodes(&self, n: u64) {
        self.settled_nodes.fetch_add(n, Ordering::Relaxed);
    }

    /// Charges one repair attempt and checks the repair cap.
    pub fn charge_repair(&self) -> Option<DegradeReason> {
        let total = self.repairs.fetch_add(1, Ordering::Relaxed) + 1;
        let cap = self.spec.repair_budget?;
        (total > cap).then_some(DegradeReason::RepairBudgetExhausted { attempts: total, cap })
    }

    /// A snapshot of global consumption so far (shared across a
    /// portfolio, so a member's stats report portfolio-wide totals).
    pub fn usage(&self) -> BudgetUsage {
        BudgetUsage {
            nodes_explored: self.nodes.load(Ordering::Relaxed)
                + self.settled_nodes.load(Ordering::Relaxed),
            repair_attempts: self.repairs.load(Ordering::Relaxed),
            elapsed: self.clock.elapsed(),
        }
    }
}

/// Budget consumption recorded into [`crate::RunStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BudgetUsage {
    /// Explored search nodes: every assignment attempt of the searches
    /// that charged this budget, including those after their last poll.
    pub nodes_explored: u64,
    /// Candidate-repair attempts charged against the budget.
    pub repair_attempts: u64,
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
    /// The repair-attempt cap was reached.
    RepairBudgetExhausted {
        /// Repair attempts when the cap tripped.
        attempts: u64,
        /// The configured cap.
        cap: u64,
    },
    /// Every portfolio member was lost to worker panics (only
    /// reachable with fault injection or a genuine bug); the portfolio
    /// degrades to a fully-suppressed output instead of erroring.
    WorkerPanic {
        /// The panic message of the lowest-index lost member.
        detail: String,
    },
    /// The live-telemetry stall watchdog saw the node counter frozen
    /// past its threshold and (with escalation enabled) requested a
    /// graceful wind-down through the same degradation path a budget
    /// trip takes.
    Stalled {
        /// Node count at the moment the coloring poll honoured the
        /// watchdog's degrade request.
        nodes: u64,
    },
}

impl DegradeReason {
    /// Short machine-readable kind, used as the obs counter suffix
    /// (`budget.exhausted.<kind>`) and span attribute.
    pub fn kind(&self) -> &'static str {
        match self {
            DegradeReason::DeadlineExceeded { .. } => "deadline",
            DegradeReason::NodeBudgetExhausted { .. } => "nodes",
            DegradeReason::RepairBudgetExhausted { .. } => "repairs",
            DegradeReason::WorkerPanic { .. } => "worker_panic",
            DegradeReason::Stalled { .. } => "stall",
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
            DegradeReason::RepairBudgetExhausted { attempts, cap } => {
                write!(f, "repair budget exhausted ({attempts} attempts, cap {cap})")
            }
            DegradeReason::WorkerPanic { detail } => {
                write!(f, "all portfolio workers lost to panics (lowest member: {detail})")
            }
            DegradeReason::Stalled { nodes } => {
                write!(f, "stall watchdog escalated (node counter frozen at {nodes})")
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

/// Shared cross-thread run controls: the portfolio cancellation flag
/// plus the armed budget (if any) that every member charges against.
///
/// [`crate::run_portfolio`] arms one budget for the whole portfolio
/// and hands every member the same `Controls`, so the deadline is
/// global — a member dequeued late does not get a fresh clock. The
/// cancellation flag is also the portfolio pool's stop flag: the first
/// member to report sets it.
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

    /// The cancellation token polled by the search.
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
        assert_eq!(b.charge_nodes(64), None);
        assert_eq!(b.charge_nodes(32), None); // 96 ≤ 100
        let reason = b.charge_nodes(32).expect("128 > 100");
        assert!(matches!(reason, DegradeReason::NodeBudgetExhausted { explored: 128, cap: 100 }));
        assert_eq!(b.usage().nodes_explored, 128);
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let b = Budget::start(BudgetSpec::with_deadline(Duration::ZERO));
        // Any measurable elapsed time exceeds a zero deadline.
        std::thread::sleep(Duration::from_millis(1));
        assert!(matches!(b.check_deadline(), Some(DegradeReason::DeadlineExceeded { .. })));
        assert!(b.charge_nodes(1).is_some());
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let b = Budget::start(BudgetSpec::with_deadline(Duration::from_secs(3600)));
        assert_eq!(b.check_deadline(), None);
        assert_eq!(b.charge_nodes(1_000), None);
    }

    #[test]
    fn repair_cap_trips() {
        let b = Budget::start(BudgetSpec { repair_budget: Some(2), ..BudgetSpec::default() });
        assert_eq!(b.charge_repair(), None);
        assert_eq!(b.charge_repair(), None);
        let reason = b.charge_repair().expect("3 > 2");
        assert!(matches!(reason, DegradeReason::RepairBudgetExhausted { attempts: 3, cap: 2 }));
        // Repairs don't count against the node budget.
        assert_eq!(b.usage().nodes_explored, 0);
        assert_eq!(b.usage().repair_attempts, 3);
    }

    #[test]
    fn settled_nodes_count_in_usage_but_never_trip_the_cap() {
        let b = Budget::start(BudgetSpec::with_node_budget(100));
        b.settle_nodes(90);
        assert_eq!(b.charge_nodes(64), None, "only polled charges meet the cap");
        assert_eq!(b.usage().nodes_explored, 154);
    }

    #[test]
    fn shared_budget_accumulates_across_clones() {
        let b = BudgetSpec::with_node_budget(1000).arm().unwrap();
        let b2 = Arc::clone(&b);
        b.charge_nodes(300);
        b2.charge_nodes(300);
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
            DegradeReason::RepairBudgetExhausted { attempts: 4, cap: 3 },
            DegradeReason::WorkerPanic { detail: "injected".into() },
            DegradeReason::Stalled { nodes: 9000 },
        ];
        let kinds: Vec<_> = reasons.iter().map(DegradeReason::kind).collect();
        assert_eq!(kinds, ["deadline", "nodes", "repairs", "worker_panic", "stall"]);
        assert!(reasons[0].to_string().contains("50 ms"));
        assert!(reasons[1].to_string().contains("256"));
        assert!(reasons[2].to_string().contains("3"));
        assert!(reasons[3].to_string().contains("injected"));
        assert!(reasons[4].to_string().contains("9000"));
    }

    #[test]
    fn controls_cancel_roundtrip() {
        let c = Controls::default();
        assert!(!c.is_cancelled());
        assert!(c.budget().is_none());
        c.cancel_flag().store(true, Ordering::Relaxed);
        assert!(c.is_cancelled());
        let armed = Controls::new(BudgetSpec::with_node_budget(1).arm());
        assert!(armed.budget().is_some());
    }
}
