//! Deterministic fault injection for robustness testing (compiled only
//! under the `fault-inject` feature, like `strict-invariants`).
//!
//! A [`FaultPlan`] describes which faults to inject — portfolio worker
//! panics, artificial slowdowns at search poll points, spurious
//! candidate-repair failures, and a cancellation raised at a named
//! phase boundary — all derived deterministically from a seed, so a
//! failing CI run reproduces byte-for-byte. The plan rides on
//! [`DivaConfig`][crate::DivaConfig] and is consulted from fixed
//! injection points in the pipeline; the default plan is disarmed and
//! injects nothing.
//!
//! This module deliberately panics (that is the fault being injected),
//! under one `#[expect(clippy::panic)]`.

use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::budget::Controls;

/// A deterministic fault-injection plan. The default injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    worker_panic_pct: u8,
    slow_poll: Option<Duration>,
    repair_fail_pct: u8,
    cancel_at_phase: Option<String>,
}

/// SplitMix64-style finalizer: decorrelates (seed, site, index) into a
/// uniform u64 so each injection point draws independently.
fn mix(seed: u64, site: u64, idx: u64) -> u64 {
    let mut z =
        seed ^ site.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ idx.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A disarmed plan seeded for later fault selection.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Whether any fault class is armed.
    pub fn is_armed(&self) -> bool {
        self.worker_panic_pct > 0
            || self.slow_poll.is_some()
            || self.repair_fail_pct > 0
            || self.cancel_at_phase.is_some()
    }

    /// Arms worker panics: each portfolio member panics with
    /// probability `pct`% (decided deterministically by seed and
    /// member index). `100` panics every member.
    pub fn panic_workers(mut self, pct: u8) -> Self {
        self.worker_panic_pct = pct.min(100);
        self
    }

    /// Arms poll-point slowdowns: every search poll (and the search
    /// entry) sleeps for `delay`, simulating a pathologically slow
    /// search so deadline handling is testable without a huge instance.
    pub fn slow_polls(mut self, delay: Duration) -> Self {
        self.slow_poll = Some(delay);
        self
    }

    /// Arms spurious repair failures: each repair attempt fails with
    /// probability `pct`% (by seed and attempt number) as if no
    /// replacement clustering existed.
    pub fn fail_repairs(mut self, pct: u8) -> Self {
        self.repair_fail_pct = pct.min(100);
        self
    }

    /// Arms a cancellation raised when the pipeline reaches the named
    /// phase boundary (e.g. `"clustering"` = between clustering and
    /// suppress) — the deterministic seam for testing mid-pipeline
    /// cancellation.
    pub fn cancel_at_phase(mut self, phase: &str) -> Self {
        self.cancel_at_phase = Some(phase.to_string());
        self
    }

    /// Injection point: start of a portfolio member. Panics if this
    /// member is selected by the plan.
    #[expect(clippy::panic, reason = "a worker panic is the fault this point injects")]
    pub fn worker_panic_point(&self, member: usize) {
        if self.worker_panic_pct > 0
            && mix(self.seed, 1, member as u64) % 100 < u64::from(self.worker_panic_pct)
        {
            panic!("injected fault: portfolio worker {member} panicked");
        }
    }

    /// Injection point: a search poll. Sleeps when slowdowns are armed.
    pub fn at_poll(&self) {
        if let Some(delay) = self.slow_poll {
            std::thread::sleep(delay);
        }
    }

    /// Injection point: a repair attempt. Returns `true` when the
    /// attempt should spuriously fail.
    pub fn repair_fails(&self, attempt: u64) -> bool {
        self.repair_fail_pct > 0
            && mix(self.seed, 2, attempt) % 100 < u64::from(self.repair_fail_pct)
    }

    /// Injection point: a pipeline phase boundary. Sets the run's
    /// cancellation flag when the plan targets this phase.
    pub fn at_phase(&self, phase: &str, controls: &Controls) {
        if self.cancel_at_phase.as_deref() == Some(phase) {
            controls.cancel_flag().store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_disarmed_and_inert() {
        let p = FaultPlan::default();
        assert!(!p.is_armed());
        p.worker_panic_point(0); // must not panic
        p.at_poll(); // must not sleep
        assert!(!p.repair_fails(1));
        let controls = Controls::default();
        p.at_phase("clustering", &controls);
        assert!(!controls.is_cancelled());
    }

    #[test]
    fn panic_selection_is_deterministic_by_seed() {
        let p = FaultPlan::seeded(7).panic_workers(50);
        let picks: Vec<bool> = (0..32).map(|m| mix(7, 1, m) % 100 < 50).collect();
        let again: Vec<bool> = (0..32).map(|m| mix(7, 1, m) % 100 < 50).collect();
        assert_eq!(picks, again);
        assert!(picks.iter().any(|&b| b), "50% over 32 members selects someone");
        assert!(picks.iter().any(|&b| !b), "…and spares someone");
        assert!(p.is_armed());
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn full_panic_rate_panics_every_member() {
        FaultPlan::seeded(1).panic_workers(100).worker_panic_point(3);
    }

    #[test]
    fn repair_failures_follow_the_rate() {
        let always = FaultPlan::seeded(3).fail_repairs(100);
        assert!((0..20).all(|a| always.repair_fails(a)));
        let never = FaultPlan::seeded(3).fail_repairs(0);
        assert!((0..20).all(|a| !never.repair_fails(a)));
    }

    #[test]
    fn phase_cancel_targets_only_the_named_phase() {
        let p = FaultPlan::seeded(0).cancel_at_phase("clustering");
        let controls = Controls::default();
        p.at_phase("suppress", &controls);
        assert!(!controls.is_cancelled());
        p.at_phase("clustering", &controls);
        assert!(controls.is_cancelled());
    }

    #[test]
    fn slow_polls_sleep_at_polls() {
        let p = FaultPlan::seeded(0).slow_polls(Duration::from_millis(5));
        let sw = diva_obs::Stopwatch::start();
        p.at_poll();
        assert!(sw.elapsed() >= Duration::from_millis(5));
    }
}
