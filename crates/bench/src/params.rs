//! Experiment parameters — Table 5 of the paper.

/// Parameter values from Table 5, with the defaults the paper marks
/// in bold (the table's bolding did not survive text extraction; we
/// use the conventional mid/low defaults: `|R|` = 180k, `|Σ|` = 12,
/// `cf` = 0.4, `k` = 10).
#[derive(Debug, Clone)]
pub struct Params {
    /// Sweep values for `|R|` (Census), already scaled by
    /// [`Params::scale`].
    pub r_sizes: Vec<usize>,
    /// Default `|R|` for experiments that do not sweep it (scaled).
    pub r_default: usize,
    /// Sweep values for `|Σ|`.
    pub sigma_sizes: Vec<usize>,
    /// Default `|Σ|`.
    pub sigma_default: usize,
    /// Sweep values for the conflict rate `cf`.
    pub conflict_rates: Vec<f64>,
    /// Default conflict rate.
    pub cf_default: f64,
    /// Sweep values for `k`.
    pub ks: Vec<usize>,
    /// Default `k`.
    pub k_default: usize,
    /// Row-count scale factor applied to the paper's sizes.
    pub scale: f64,
    /// Base RNG seed for the whole suite.
    pub seed: u64,
    /// Search node budget per guided DIVA run (MinChoice/MaxFanOut);
    /// runs that degrade on it count as failures (shown as missing
    /// cells).
    pub node_budget: Option<u64>,
    /// Node budget for the naive Basic strategy, kept smaller: Basic
    /// regularly exhausts *any* budget on conflicting instances (the
    /// paper let it run for ~700 minutes; we cap it and report the
    /// burned time, which is the Fig. 4a signal).
    pub basic_node_budget: Option<u64>,
}

/// A node budget that no search finishing within `backtracks`
/// backtracks can exceed, for up to 20 constraints and the default
/// 64-candidate cap. Such a search expands a node at most
/// `backtracks + |Σ| + 1` times, and each expansion tries at most 64
/// candidates at two nodes each (a repair's second assignment counts).
/// The experiments size their node budgets with it from a backtrack
/// count, so a run that finishes within that many backtracks is never
/// cut short.
pub const fn node_budget_for_backtracks(backtracks: u64) -> u64 {
    2 * 64 * (backtracks + 21)
}

impl Params {
    /// The node budget for one strategy (Basic gets the smaller cap).
    pub fn budget_for(&self, strategy: diva_core::Strategy) -> Option<u64> {
        if strategy == diva_core::Strategy::Basic {
            self.basic_node_budget
        } else {
            self.node_budget
        }
    }

    /// Parameters at the paper's sizes multiplied by `scale`.
    pub fn at_scale(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let s = |n: usize| ((n as f64 * scale).round() as usize).max(1_000);
        Params {
            r_sizes: vec![s(60_000), s(120_000), s(180_000), s(240_000), s(300_000)],
            r_default: s(180_000),
            sigma_sizes: vec![4, 8, 12, 16, 20],
            sigma_default: 12,
            conflict_rates: vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
            cf_default: 0.4,
            ks: vec![10, 20, 30, 40, 50],
            k_default: 10,
            scale,
            seed: 0xbe9c4,
            node_budget: Some(node_budget_for_backtracks(100_000)),
            basic_node_budget: Some(node_budget_for_backtracks(20_000)),
        }
    }

    /// Parameters honouring the `DIVA_BENCH_SCALE` environment
    /// variable (default 0.1).
    pub fn from_env() -> Self {
        let scale = std::env::var("DIVA_BENCH_SCALE")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.1);
        Self::at_scale(scale)
    }

    /// The Pop-Syn row count for Fig. 4d (paper: 100k), scaled.
    pub fn popsyn_rows(&self) -> usize {
        ((100_000.0 * self.scale).round() as usize).max(1_000)
    }
}

impl Default for Params {
    fn default() -> Self {
        Self::at_scale(0.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_table5() {
        let p = Params::at_scale(1.0);
        assert_eq!(p.r_sizes, vec![60_000, 120_000, 180_000, 240_000, 300_000]);
        assert_eq!(p.sigma_sizes, vec![4, 8, 12, 16, 20]);
        assert_eq!(p.conflict_rates, vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0]);
        assert_eq!(p.ks, vec![10, 20, 30, 40, 50]);
        assert_eq!(p.popsyn_rows(), 100_000);
    }

    #[test]
    fn scaled_sizes_have_floor() {
        let p = Params::at_scale(0.01);
        assert!(p.r_sizes.iter().all(|&n| n >= 1_000));
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn zero_scale_rejected() {
        Params::at_scale(0.0);
    }

    #[test]
    fn default_is_tenth_scale() {
        let p = Params::default();
        assert_eq!(p.r_default, 18_000);
        assert_eq!(p.k_default, 10);
    }
}
