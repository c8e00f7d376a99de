//! DIVA configuration: node-selection strategies and search knobs.

/// The `NextNode` strategy of the colouring search (§3.3, "Selection
/// Strategies").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// DIVA-Basic: pick a random uncoloured node, and try that node's
    /// candidate clusterings in random order.
    Basic,
    /// MinChoice: pick the most restrictive constraint first — the
    /// uncoloured node with the minimum number of *currently
    /// consistent* candidate clusterings (counts are updated as
    /// neighbours get coloured).
    MinChoice,
    /// MaxFanOut: pick the constraint with the maximum number of
    /// uncoloured neighbours, pruning unsatisfiable clusterings early.
    MaxFanOut,
}

impl Strategy {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Basic => "Basic",
            Strategy::MinChoice => "MinChoice",
            Strategy::MaxFanOut => "MaxFanOut",
        }
    }

    /// All strategies, in the order the paper's legends list them.
    pub fn all() -> [Strategy; 3] {
        [Strategy::MinChoice, Strategy::MaxFanOut, Strategy::Basic]
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which ℓ-diversity variant [`DivaConfig::l_diversity`] requests.
/// The variant interprets the single `l_diversity` knob; recursive
/// additionally carries its frequency-ratio parameter `c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LVariant {
    /// Distinct ℓ-diversity (the historical default).
    Distinct,
    /// Entropy ℓ-diversity: class perplexity `exp(H) ≥ ℓ`.
    Entropy,
    /// Recursive (c,ℓ)-diversity with the given `c`.
    Recursive {
        /// The frequency-ratio parameter `c` (finite and positive).
        c: f64,
    },
}

/// Configuration of a DIVA run.
#[derive(Debug, Clone)]
pub struct DivaConfig {
    /// The privacy parameter `k` of `k`-anonymity.
    pub k: usize,
    /// Node/candidate selection strategy.
    pub strategy: Strategy,
    /// Maximum number of candidate clusterings generated per
    /// constraint. The paper bounds the clusterings "considered in
    /// coloring for each constraint" to a polynomial; this is the
    /// concrete cap (see `DESIGN.md` §2.2).
    pub max_candidates: usize,
    /// Backtracking budget for the colouring search; `None` means
    /// unbounded (exact, possibly exponential — the paper's Basic
    /// curve in Fig. 4a).
    pub backtrack_limit: Option<u64>,
    /// Seed for all randomized choices (Basic ordering, the
    /// `Anonymize` step's clustering).
    pub seed: u64,
    /// Privacy extension (§5 of the paper): require every QI-group of
    /// the output to contain at least this many *distinct* sensitive
    /// values (distinct ℓ-diversity). `1` (the default) disables the
    /// requirement, i.e. plain k-anonymity.
    pub l_diversity: usize,
    /// Which ℓ-diversity variant `l_diversity` requests
    /// ([`LVariant::Distinct`] by default). Entropy and recursive
    /// (c,ℓ) are enforced through the same Suppress/repair merge path
    /// and re-verified by the independent `diva-metrics` audit
    /// checkers.
    pub l_variant: LVariant,
    /// Whether blocked candidates are re-materialized from free target
    /// tuples ([`crate::CandidateSet::repair`]). On by default; the
    /// ablation benches measure its effect on success rate and
    /// backtracking.
    pub enable_repair: bool,
    /// Worker-thread cap for the parallel portfolio
    /// ([`crate::run_portfolio`]) and the component worker pool.
    /// `None` (the default) uses
    /// `std::thread::available_parallelism()`.
    pub threads: Option<usize>,
    /// Whether the clustering phase decomposes the constraint graph
    /// into connected components and solves them concurrently on the
    /// bounded worker pool (on by default). Components are provably
    /// independent sub-problems, so the published output is
    /// byte-identical either way for exact outcomes — `false` forces
    /// the historical monolithic solve (the differential suite's
    /// reference path).
    pub decompose: bool,
    /// Node-count threshold at which a single hard component is solved
    /// by an inner strategy portfolio (the three strategies racing on
    /// that component, first valid colouring wins) instead of the
    /// configured strategy alone. `None` (the default) disables the
    /// inner portfolio; racing trades the byte-for-byte determinism of
    /// the single-strategy pool for robustness on adversarial
    /// components, exactly like [`crate::run_portfolio`] at whole-run
    /// scope.
    pub component_portfolio: Option<usize>,
    /// Observability handle: spans, counters, and histograms emitted
    /// by the pipeline land here, and so does live progress (phase,
    /// nodes expanded, repairs, components, budget limits, verdicts)
    /// for the sampler and stats endpoint to read mid-run
    /// ([`diva_obs::live`]). The default is the disabled handle
    /// ([`diva_obs::Obs::disabled`]), which records nothing and costs
    /// one branch per instrumentation point — pipeline output is
    /// byte-identical either way. The handle's degrade request is the
    /// stall watchdog's escalation channel
    /// ([`crate::DegradeReason::Stalled`]).
    pub obs: diva_obs::Obs,
    /// Resource budget (wall-clock deadline, explored-node cap,
    /// repair-attempt cap) for the run — or, under
    /// [`crate::run_portfolio`], one global budget shared by every
    /// member. Exhaustion degrades the run
    /// ([`crate::Outcome::Degraded`]) instead of failing it; the
    /// default is unlimited. Contrast with
    /// [`DivaConfig::backtrack_limit`], which keeps its historical
    /// fail-fast semantics
    /// ([`DivaError::SearchBudgetExhausted`][crate::DivaError]).
    pub budget: crate::BudgetSpec,
    /// Decision-provenance recorder
    /// ([`diva_obs::provenance::Provenance`]): when enabled, the run
    /// logs every published group and every starred cell with the
    /// causal decision (Σ-constraint, repair round, void, degrade
    /// merge, or plain k-anonymity) for `diva explain` and the
    /// per-constraint attribution in `RunStats`. The default is the
    /// disabled handle — one branch per recording site, output
    /// byte-identical either way (same contract as `obs`).
    pub provenance: diva_obs::provenance::Provenance,
    /// Deterministic fault-injection plan (testing/CI only; the field
    /// exists only under the `fault-inject` feature). The default
    /// injects nothing.
    #[cfg(feature = "fault-inject")]
    pub faults: crate::faults::FaultPlan,
}

impl Default for DivaConfig {
    fn default() -> Self {
        Self {
            k: 10,
            strategy: Strategy::MaxFanOut,
            max_candidates: 64,
            backtrack_limit: Some(100_000),
            seed: 0xd1fa,
            l_diversity: 1,
            l_variant: LVariant::Distinct,
            enable_repair: true,
            threads: None,
            decompose: true,
            component_portfolio: None,
            obs: diva_obs::Obs::disabled(),
            budget: crate::BudgetSpec::default(),
            provenance: diva_obs::provenance::Provenance::disabled(),
            #[cfg(feature = "fault-inject")]
            faults: crate::faults::FaultPlan::default(),
        }
    }
}

impl DivaConfig {
    /// A configuration with the given `k` and defaults elsewhere.
    pub fn with_k(k: usize) -> Self {
        Self { k, ..Self::default() }
    }

    /// Builder-style strategy override.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style seed override.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style ℓ-diversity requirement (1 = off).
    pub fn l_diversity(mut self, l: usize) -> Self {
        self.l_diversity = l;
        self
    }

    /// Builder-style ℓ-diversity variant (see [`DivaConfig::l_variant`]).
    pub fn l_variant(mut self, v: LVariant) -> Self {
        self.l_variant = v;
        self
    }

    /// The effective diversity model requested by `l_diversity` +
    /// `l_variant`, or `None` when the requirement is trivial (every
    /// non-empty class satisfies it) and enforcement can be skipped.
    pub fn diversity_model(&self) -> Option<diva_anonymize::DiversityModel> {
        use diva_anonymize::DiversityModel;
        let model = match self.l_variant {
            LVariant::Distinct => DiversityModel::Distinct { l: self.l_diversity },
            LVariant::Entropy => DiversityModel::Entropy { l: self.l_diversity },
            LVariant::Recursive { c } => DiversityModel::Recursive { c, l: self.l_diversity },
        };
        (!model.is_trivial()).then_some(model)
    }

    /// Builder-style observability handle (see [`DivaConfig::obs`]).
    pub fn obs(mut self, obs: diva_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Builder-style resource budget (see [`DivaConfig::budget`]).
    pub fn budget(mut self, budget: crate::BudgetSpec) -> Self {
        self.budget = budget;
        self
    }

    /// Builder-style provenance recorder (see
    /// [`DivaConfig::provenance`]).
    pub fn provenance(mut self, provenance: diva_obs::provenance::Provenance) -> Self {
        self.provenance = provenance;
        self
    }

    /// Builder-style fault-injection plan (see [`DivaConfig::faults`]).
    #[cfg(feature = "fault-inject")]
    pub fn faults(mut self, faults: crate::faults::FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style decomposition toggle (see
    /// [`DivaConfig::decompose`]).
    pub fn decompose(mut self, on: bool) -> Self {
        self.decompose = on;
        self
    }

    /// Builder-style inner-portfolio threshold (see
    /// [`DivaConfig::component_portfolio`]).
    pub fn component_portfolio(mut self, threshold: Option<usize>) -> Self {
        self.component_portfolio = threshold;
        self
    }

    /// Builder-style worker-thread cap; use at construction so an
    /// out-of-range value is rejected up front.
    pub fn threads(mut self, threads: Option<usize>) -> Result<Self, crate::DivaError> {
        self.threads = threads;
        self.validate()?;
        Ok(self)
    }

    /// Checks range constraints that the field types can't express.
    /// Called by [`crate::run_portfolio`] and [`crate::Diva::run`];
    /// `threads == Some(0)` is rejected rather than silently promoted
    /// to one worker.
    pub fn validate(&self) -> Result<(), crate::DivaError> {
        if self.threads == Some(0) {
            return Err(crate::DivaError::InvalidConfig {
                reason: "threads must be a positive worker count (or None for all cores)".into(),
            });
        }
        if let LVariant::Recursive { c } = self.l_variant {
            if !(c.is_finite() && c > 0.0) {
                return Err(crate::DivaError::InvalidConfig {
                    reason: format!("recursive (c,l)-diversity needs a finite positive c, got {c}"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = DivaConfig::default();
        assert!(c.k > 0);
        assert!(c.max_candidates > 0);
        assert_eq!(c.strategy, Strategy::MaxFanOut);
    }

    #[test]
    fn builders_compose() {
        let c = DivaConfig::with_k(5).strategy(Strategy::Basic).seed(9);
        assert_eq!(c.k, 5);
        assert_eq!(c.strategy, Strategy::Basic);
        assert_eq!(c.seed, 9);
        assert!(c.decompose, "decomposition is on by default");
        assert!(c.component_portfolio.is_none());
        let c = c.decompose(false).component_portfolio(Some(8));
        assert!(!c.decompose);
        assert_eq!(c.component_portfolio, Some(8));
    }

    #[test]
    fn zero_threads_is_rejected() {
        assert!(DivaConfig::default().threads(Some(0)).is_err());
        assert!(DivaConfig::default().threads(Some(2)).is_ok());
        assert!(DivaConfig::default().threads(None).is_ok());
        let c = DivaConfig { threads: Some(0), ..DivaConfig::default() };
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("threads"));
    }

    #[test]
    fn default_budget_is_unlimited() {
        let c = DivaConfig::default();
        assert!(c.budget.is_unlimited());
        let c = c.budget(crate::BudgetSpec::with_node_budget(512));
        assert_eq!(c.budget.node_budget, Some(512));
    }

    #[test]
    fn default_provenance_is_disabled() {
        let c = DivaConfig::default();
        assert!(!c.provenance.is_enabled(), "provenance must be opt-in");
        let c = c.provenance(diva_obs::provenance::Provenance::enabled());
        assert!(c.provenance.is_enabled());
    }

    #[test]
    fn strategy_names_match_paper() {
        assert_eq!(Strategy::Basic.to_string(), "Basic");
        assert_eq!(Strategy::MinChoice.to_string(), "MinChoice");
        assert_eq!(Strategy::MaxFanOut.to_string(), "MaxFanOut");
        assert_eq!(Strategy::all().len(), 3);
    }
}
