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
    /// Seed for all randomized choices (Basic ordering, the
    /// `Anonymize` step's clustering).
    pub seed: u64,
    /// Privacy extension (§5 of the paper): the ℓ-diversity model every
    /// QI-group of the output must satisfy (distinct, entropy or
    /// recursive (c,ℓ)). `None` (the default), or a model every class
    /// satisfies trivially, means plain k-anonymity. Every variant is
    /// enforced through the same Suppress/repair merge path and
    /// re-verified by the independent `diva-metrics` audit checkers.
    pub diversity: Option<diva_anonymize::DiversityModel>,
    /// Whether blocked candidates are re-materialized from free target
    /// tuples ([`crate::CandidateSet::repair`]). On by default; the
    /// ablation benches measure its effect on success rate and
    /// backtracking.
    pub enable_repair: bool,
    /// Worker-thread cap for every threaded stage: the parallel
    /// portfolio ([`crate::run_portfolio`]), candidate enumeration and
    /// the component worker pool. `None` (the default) uses
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
    /// Observability handle: spans, counters, and histograms emitted
    /// by the pipeline land here, and so does live progress (phase,
    /// nodes expanded, repairs, components, budget limits, verdicts)
    /// for the sampler and stats endpoint to read mid-run
    /// ([`diva_obs::live`]). The default is the disabled handle
    /// ([`diva_obs::Obs::disabled`]), which records nothing and costs
    /// one branch per instrumentation point — pipeline output is
    /// byte-identical either way. The pipeline only writes to it:
    /// nothing it records feeds back into a decision of the run.
    pub obs: diva_obs::Obs,
    /// Resource budget (wall-clock deadline, explored-node cap) for
    /// the run — or, under [`crate::run_portfolio`], one global budget
    /// shared by every member. It is the search's only limit:
    /// exhaustion degrades the run ([`crate::Outcome::Degraded`])
    /// instead of failing it, and the default is unlimited, i.e. an
    /// exact (possibly exponential — the paper's Basic curve in
    /// Fig. 4a) search.
    pub budget: crate::BudgetSpec,
    /// Decision-provenance recorder
    /// ([`diva_obs::provenance::Provenance`]): when enabled, the run's
    /// returned result installs a log of every published group and
    /// every starred cell with the causal decision (Σ-constraint,
    /// repair round, void, degrade merge, or plain k-anonymity) for
    /// `diva explain` and the per-constraint attribution in `RunStats`.
    /// The default is the disabled handle — one branch per run, output
    /// byte-identical either way (same contract as `obs`).
    pub provenance: diva_obs::provenance::Provenance,
}

impl Default for DivaConfig {
    fn default() -> Self {
        Self {
            k: 10,
            strategy: Strategy::MaxFanOut,
            max_candidates: 64,
            seed: 0xd1fa,
            diversity: None,
            enable_repair: true,
            threads: None,
            decompose: true,
            obs: diva_obs::Obs::disabled(),
            budget: crate::BudgetSpec::default(),
            provenance: diva_obs::provenance::Provenance::disabled(),
        }
    }
}

impl DivaConfig {
    /// The worker cap of every threaded stage: [`DivaConfig::threads`],
    /// or `available_parallelism` (at least 1) when unset.
    pub(crate) fn workers(&self) -> usize {
        self.threads.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
    }

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

    /// Builder-style ℓ-diversity model (see [`DivaConfig::diversity`]).
    pub fn diversity(mut self, model: diva_anonymize::DiversityModel) -> Self {
        self.diversity = Some(model);
        self
    }

    /// The diversity model to enforce: [`DivaConfig::diversity`], or
    /// `None` when it is unset or trivial (every non-empty class
    /// satisfies it) and enforcement can be skipped.
    pub fn diversity_model(&self) -> Option<diva_anonymize::DiversityModel> {
        self.diversity.filter(|m| !m.is_trivial())
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

    /// Builder-style decomposition toggle (see
    /// [`DivaConfig::decompose`]).
    pub fn decompose(mut self, on: bool) -> Self {
        self.decompose = on;
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
        if let Some(diva_anonymize::DiversityModel::Recursive { c, .. }) = self.diversity {
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
        assert!(!c.decompose(false).decompose);
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
