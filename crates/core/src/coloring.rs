//! The recursive colouring search (Algorithms 3 and 4 of the paper).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::budget::{Budget, DegradeReason};
use crate::candidates::CandidateSet;
use crate::config::{DivaConfig, Strategy};
use crate::error::DivaError;
use crate::graph::ConstraintGraph;
use crate::state::SearchState;

/// Counters reported by a colouring run.
///
/// Counters accumulate in plain fields during the search (the hot
/// loop touches no atomics) and are flushed once per solve to the
/// configured [`diva_obs::Obs`] handle as
/// `coloring.<Strategy>.<counter>` counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColoringStats {
    /// Candidate clusterings whose assignment was attempted.
    pub assignments_tried: u64,
    /// Assignments undone while backtracking.
    pub backtracks: u64,
    /// Nodes whose candidate lists were exhausted at least once.
    pub dead_ends: u64,
    /// `NextNode` invocations that selected a node (search-tree depth
    /// probes; §3.3's selection strategies).
    pub node_selections: u64,
    /// Subtrees abandoned by the forward check ("hopeless": some
    /// uncoloured node can no longer reach its minimum size).
    pub forward_check_prunes: u64,
    /// Blocked candidates the search asked [`CandidateSet::repair`] to
    /// re-materialize from free target tuples.
    pub repair_attempts: u64,
    /// Repairs that produced a materializable replacement clustering.
    pub repair_successes: u64,
}

impl ColoringStats {
    /// Flushes the counters to `obs` under the
    /// `coloring.<strategy>.<counter>` naming scheme. Counters are
    /// additive, so portfolio members sharing a handle aggregate
    /// per strategy.
    pub fn flush_to(&self, obs: &diva_obs::Obs, strategy: Strategy) {
        if !obs.is_enabled() {
            return;
        }
        let base = format!("coloring.{}", strategy.name());
        for (counter, value) in [
            ("assignments_tried", self.assignments_tried),
            ("backtracks", self.backtracks),
            ("dead_ends", self.dead_ends),
            ("node_selections", self.node_selections),
            ("forward_check_prunes", self.forward_check_prunes),
            ("repair_attempts", self.repair_attempts),
            ("repair_successes", self.repair_successes),
        ] {
            obs.counter(&format!("{base}.{counter}")).add(value);
        }
    }
}

/// The colouring search: assigns one candidate clustering (a colour)
/// to every constraint node such that the global consistency
/// conditions hold.
pub struct Coloring<'a> {
    graph: &'a ConstraintGraph,
    candidates: &'a [CandidateSet],
    labels: &'a [String],
    config: &'a DivaConfig,
    state: SearchState,
    assignment: Vec<Option<usize>>,
    /// The nodes' *global* ids — their indices in the full,
    /// pre-decomposition graph. Empty means identity (the monolithic
    /// solve); a component-local search passes its node list so the
    /// Basic strategy's hashed choices are keyed identically to the
    /// monolithic run.
    node_ids: Vec<u32>,
    stats: ColoringStats,
    /// Portfolio cancellation token: when another member wins, the
    /// search aborts with [`DivaError::Cancelled`] at the next poll
    /// (every [`CANCEL_POLL_MASK`] + 1 assignment attempts).
    cancel: Option<Arc<AtomicBool>>,
    /// Resource budget checked at the same poll points; exhaustion
    /// stops the search with the partial assignment instead of
    /// unwinding it (see [`ColoringOutcome::degraded`]).
    budget: Option<Arc<Budget>>,
    /// Nodes charged to `budget` by the polls so far.
    nodes_charged: u64,
}

/// Cancellation is polled when `assignments_tried & CANCEL_POLL_MASK
/// == 0` — cheap enough to leave the hot path unaffected, frequent
/// enough that losing portfolio members exit promptly.
const CANCEL_POLL_MASK: u64 = 0xFF;

/// Decorrelates the Basic strategy's candidate-order stream from its
/// node-selection stream (both are keyed by the same (seed, node)).
const CANDIDATE_ORDER_SALT: u64 = 0x5bd1_e995_0a1c_ca57;

/// Position-independent hash behind the Basic strategy's "random"
/// choices: a splitmix64-style finalizer over (seed, global node id).
/// A stream RNG would entangle each choice with every previously
/// visited node, so a component-local search could never replay the
/// monolithic search's decisions; hashing by global node id makes the
/// choice a pure function of the node, which is what makes
/// decomposed and monolithic Basic solves byte-identical.
fn basic_mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Why [`Coloring::color_remaining`] stopped before a verdict.
enum Stop {
    /// The portfolio cancellation token was observed.
    Cancel,
    /// The legacy fail-fast backtrack limit tripped (kept as an error
    /// for back-compat, unlike budget exhaustion which degrades).
    Backtracks(u64),
    /// The resource budget was exhausted: keep the partial assignment
    /// and degrade.
    Degrade(DegradeReason),
}

/// The result of a colouring run.
#[derive(Debug)]
pub struct ColoringOutcome {
    /// The diverse clustering `S_Σ`: the distinct clusters across all
    /// assigned clusterings (shared clusters appear once). When the
    /// run degraded, these are the clusters of the partial prefix
    /// assigned so far.
    pub clusters: Vec<Vec<diva_relation::RowId>>,
    /// For each node (in node order, gaps skipped when degraded), the
    /// chosen candidate index.
    pub assignment: Vec<usize>,
    /// Search counters.
    pub stats: ColoringStats,
    /// `None` for a complete colouring; `Some(reason)` when the
    /// resource budget tripped and the clusters are a partial prefix.
    pub degraded: Option<DegradeReason>,
    /// Per-cluster owning constraint ids (global, ascending), parallel
    /// to `clusters` — a constraint owns a cluster when every row is
    /// one of its targets. Populated only when the config's provenance
    /// recorder is enabled; empty (and ignored) otherwise.
    pub owners: Vec<Vec<u32>>,
}

impl<'a> Coloring<'a> {
    /// Prepares a search over `graph` with per-node `candidates`.
    /// `uppers` are the constraints' `λr` bounds; `labels` are used in
    /// error messages.
    pub fn new(
        graph: &'a ConstraintGraph,
        candidates: &'a [CandidateSet],
        uppers: Vec<usize>,
        labels: &'a [String],
        config: &'a DivaConfig,
    ) -> Self {
        assert_eq!(graph.n_nodes(), candidates.len());
        assert_eq!(graph.n_nodes(), labels.len());
        Self {
            graph,
            candidates,
            labels,
            config,
            state: SearchState::new(
                uppers,
                (0..graph.n_nodes()).map(|i| graph.target_size(i)).collect(),
                graph.n_rows(),
            ),
            assignment: vec![None; graph.n_nodes()],
            node_ids: Vec::new(),
            stats: ColoringStats::default(),
            cancel: None,
            budget: None,
            nodes_charged: 0,
        }
    }

    /// Declares the nodes' global ids (their indices in the full,
    /// pre-decomposition graph); defaults to the identity. Component
    /// solves pass their node list so the Basic strategy's hashed
    /// node/candidate choices match what the monolithic search would
    /// do for the same nodes.
    pub fn with_node_ids(mut self, ids: Vec<u32>) -> Self {
        debug_assert_eq!(ids.len(), self.graph.n_nodes());
        self.node_ids = ids;
        self
    }

    /// The global id of local node `node` (identity when no remap was
    /// declared).
    #[inline]
    fn global_id(&self, node: usize) -> u64 {
        self.node_ids.get(node).map_or(node as u64, |&g| u64::from(g))
    }

    /// Attaches a cancellation token (used by the parallel portfolio):
    /// when the token is set, the search returns
    /// [`DivaError::Cancelled`] instead of continuing.
    pub fn with_cancel(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches an armed resource budget, charged at the poll points;
    /// exhaustion ends the search with the partial assignment
    /// ([`ColoringOutcome::degraded`]).
    pub fn with_budget(mut self, budget: Arc<Budget>) -> Self {
        self.budget = Some(budget);
        self
    }

    fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.load(Ordering::Relaxed))
    }

    /// A poll point: injected slowdowns, then cancellation, then the
    /// watchdog's escalation flag, then the budget (charged one poll
    /// stride of explored nodes). Node counts are published to the
    /// live cells per assignment (not here) so a mid-run scrape sees
    /// them move even on searches shorter than one poll stride.
    fn poll(&mut self, charge: u64) -> Result<(), Stop> {
        #[cfg(feature = "fault-inject")]
        self.config.faults.at_poll();
        if self.is_cancelled() {
            return Err(Stop::Cancel);
        }
        if self.config.obs.degrade_requested() {
            return Err(Stop::Degrade(DegradeReason::Stalled {
                nodes: self.stats.assignments_tried,
            }));
        }
        if let Some(budget) = &self.budget {
            self.nodes_charged += charge;
            if let Some(reason) = budget.charge_nodes(charge) {
                return Err(Stop::Degrade(reason));
            }
        }
        Ok(())
    }

    /// Runs the search to completion. The search runs under a
    /// `coloring.solve` span and flushes its counters to the
    /// configured obs handle whether it succeeds or fails.
    pub fn solve(mut self) -> Result<ColoringOutcome, DivaError> {
        let mut span = self
            .config
            .obs
            .span("coloring.solve")
            .attr("strategy", self.config.strategy.name())
            .attr("nodes", self.graph.n_nodes());
        let result = self.solve_impl();
        // Polls charge the budget a whole stride at a time; settle the
        // nodes explored since the last one now that the outcome is
        // decided, so `BudgetUsage::nodes_explored` is exact.
        if let Some(budget) = &self.budget {
            budget.settle_nodes(self.stats.assignments_tried - self.nodes_charged);
        }
        span.set_attr("ok", result.is_ok());
        if let Ok(out) = &result {
            if let Some(reason) = &out.degraded {
                span.set_attr("degraded", reason.kind());
            }
        }
        span.end();
        self.stats.flush_to(&self.config.obs, self.config.strategy);
        result
    }

    fn solve_impl(&mut self) -> Result<ColoringOutcome, DivaError> {
        // Entry poll: a search may be dequeued after the shared
        // deadline already passed, and the injected-slowdown fault must
        // fire at least once even for searches that finish in fewer
        // assignments than the poll stride.
        if let Err(stop) = self.poll(0) {
            return self.stopped(stop);
        }
        // Fail fast on nodes with no candidates at all: the constraint
        // is unsatisfiable regardless of interactions.
        if let Some(i) = (0..self.graph.n_nodes()).find(|&i| self.candidates[i].is_empty()) {
            return Err(DivaError::NoDiverseClustering { constraint: self.labels[i].clone() });
        }
        let colored = match self.color_remaining() {
            Ok(c) => c,
            Err(stop) => return self.stopped(stop),
        };
        if !colored {
            let failed =
                (0..self.graph.n_nodes()).find(|&i| self.assignment[i].is_none()).unwrap_or(0);
            return Err(DivaError::NoDiverseClustering { constraint: self.labels[failed].clone() });
        }
        #[cfg(feature = "strict-invariants")]
        self.state.validate(self.graph).map_err(|detail| DivaError::InvariantViolated {
            phase: "DiverseClustering".into(),
            detail,
        })?;
        // Canonical order: registry order is chronology-dependent and
        // would differ between monolithic and component-merged solves.
        let clusters = self.state.live_clusters_canonical();
        let owners = self.cluster_owners(&clusters);
        Ok(ColoringOutcome {
            clusters,
            assignment: self.assignment.iter().filter_map(|a| *a).collect(),
            stats: self.stats.clone(),
            degraded: None,
            owners,
        })
    }

    /// Owning constraints per cluster (global ids, ascending), computed
    /// only when provenance is recording — the extra scan must cost
    /// nothing on the default path.
    fn cluster_owners(&self, clusters: &[Vec<diva_relation::RowId>]) -> Vec<Vec<u32>> {
        if !self.config.provenance.is_enabled() {
            return Vec::new();
        }
        clusters
            .iter()
            .map(|cluster| {
                (0..self.graph.n_nodes())
                    .filter(|&i| self.graph.cluster_contributes(i, cluster))
                    .map(|i| self.global_id(i) as u32)
                    .collect()
            })
            .collect()
    }

    /// Maps an early [`Stop`] to the outer result: cancellation and the
    /// legacy backtrack limit stay errors; budget exhaustion keeps the
    /// partial assignment and reports it as a degraded outcome.
    fn stopped(&self, stop: Stop) -> Result<ColoringOutcome, DivaError> {
        match stop {
            Stop::Cancel => Err(DivaError::Cancelled),
            Stop::Backtracks(backtracks) => Err(DivaError::SearchBudgetExhausted { backtracks }),
            Stop::Degrade(reason) => {
                #[cfg(feature = "strict-invariants")]
                self.state.validate(self.graph).map_err(|detail| DivaError::InvariantViolated {
                    phase: "DiverseClustering".into(),
                    detail,
                })?;
                let clusters = self.state.live_clusters_canonical();
                let owners = self.cluster_owners(&clusters);
                Ok(ColoringOutcome {
                    clusters,
                    assignment: self.assignment.iter().filter_map(|a| *a).collect(),
                    stats: self.stats.clone(),
                    degraded: Some(reason),
                    owners,
                })
            }
        }
    }

    /// Algorithm 4 (`Coloring`): returns `Ok(true)` if the remaining
    /// nodes can be coloured consistently. An `Err(Stop)` propagates
    /// without unwinding the partial assignment, so a degraded stop
    /// keeps the clustered-so-far prefix.
    fn color_remaining(&mut self) -> Result<bool, Stop> {
        let Some(v) = self.next_node() else {
            return Ok(true); // V contains all nodes of G
        };
        let mut order: Vec<usize> = (0..self.candidates[v].len()).collect();
        if self.config.strategy == Strategy::Basic {
            // A fixed per-node permutation (keyed by the node's global
            // id, not a shared stream) so re-expansions and
            // component-local searches walk candidates in the same
            // order as the monolithic search.
            let mut rng = StdRng::seed_from_u64(basic_mix(
                self.config.seed ^ CANDIDATE_ORDER_SALT,
                self.global_id(v),
            ));
            order.shuffle(&mut rng);
        }
        for ci in order {
            self.stats.assignments_tried += 1;
            self.config.obs.add_nodes(1);
            if self.stats.assignments_tried & CANCEL_POLL_MASK == 0 {
                self.poll(CANCEL_POLL_MASK + 1)?;
            }
            let clustering = &self.candidates[v].candidates[ci];
            // IsConsistent + commit in one step. If the literal
            // candidate is blocked (typically because neighbours own
            // some of its rows), re-materialize it from free target
            // tuples at the same offset and retry once.
            let token = match self.state.try_assign(clustering, self.graph) {
                Some(t) => t,
                None => {
                    if !self.config.enable_repair {
                        continue;
                    }
                    self.stats.repair_attempts += 1;
                    self.config.obs.add_repairs(1);
                    if let Some(budget) = &self.budget {
                        if let Some(reason) = budget.charge_repair() {
                            return Err(Stop::Degrade(reason));
                        }
                    }
                    #[cfg(feature = "fault-inject")]
                    if self.config.faults.repair_fails(self.stats.repair_attempts) {
                        continue;
                    }
                    let state = &self.state;
                    let Some(repaired) =
                        self.candidates[v]
                            .repair(clustering, self.config.k, |r| state.row_is_free(r))
                    else {
                        continue;
                    };
                    self.stats.repair_successes += 1;
                    self.stats.assignments_tried += 1;
                    self.config.obs.add_nodes(1);
                    match self.state.try_assign(&repaired, self.graph) {
                        Some(t) => t,
                        None => continue,
                    }
                }
            };
            self.assignment[v] = Some(ci);
            // Forward check (MinChoice / MaxFanOut only; Basic stays
            // naive): every uncoloured node must still have enough
            // *free* target tuples to meet its minimum clustering
            // size — repair can materialize any window from free
            // tuples, so too few free tuples means the subtree is
            // hopeless. This is the "prune unsatisfiable clusterings
            // early" behaviour §3.3 ascribes to the strategies.
            let hopeless = self.config.strategy != Strategy::Basic
                && (0..self.graph.n_nodes()).any(|w| {
                    self.assignment[w].is_none()
                        && self.state.free_targets(w) < self.candidates[w].min_total()
                        // Too few free rows — but a node can still be
                        // satisfied by *sharing* already-registered
                        // identical clusters, so confirm with the exact
                        // per-candidate availability scan before
                        // declaring the subtree dead.
                        && !self.candidates[w]
                            .candidates
                            .iter()
                            .any(|cl| self.state.rows_available(cl))
                });
            if hopeless {
                self.stats.forward_check_prunes += 1;
            } else if self.color_remaining()? {
                return Ok(true);
            }
            // Backtrack: remove ⟨v, c⟩ from V and try another colour.
            self.assignment[v] = None;
            self.state.unassign(token, self.graph);
            self.stats.backtracks += 1;
            if let Some(limit) = self.config.backtrack_limit {
                if self.stats.backtracks > limit {
                    return Err(Stop::Backtracks(self.stats.backtracks));
                }
            }
        }
        self.stats.dead_ends += 1;
        Ok(false)
    }

    /// The `NextNode` routine (§3.3): picks the next uncoloured node
    /// according to the configured strategy, or `None` when all nodes
    /// are coloured.
    fn next_node(&mut self) -> Option<usize> {
        let uncolored: Vec<usize> =
            (0..self.graph.n_nodes()).filter(|&i| self.assignment[i].is_none()).collect();
        if uncolored.is_empty() {
            return None;
        }
        self.stats.node_selections += 1;
        Some(match self.config.strategy {
            Strategy::Basic => {
                // "Random" = smallest hash of (seed, global node id):
                // a pure function of the uncoloured set, so the choice
                // restricted to any component equals that component's
                // own choice.
                uncolored
                    .iter()
                    .min_by_key(|&&i| basic_mix(self.config.seed, self.global_id(i)))
                    .copied()
                    .unwrap_or(uncolored[0])
            }
            Strategy::MinChoice => {
                // Most restrictive first: fewest *currently consistent*
                // candidates (rows still available given coloured
                // neighbours).
                uncolored
                    .iter()
                    .min_by_key(|&&i| {
                        self.candidates[i]
                            .candidates
                            .iter()
                            .filter(|cl| self.state.rows_available(cl))
                            .count()
                    })
                    .copied()
                    .unwrap_or(uncolored[0])
            }
            Strategy::MaxFanOut => {
                // Most uncoloured neighbours first.
                uncolored
                    .iter()
                    .max_by_key(|&&i| {
                        self.graph
                            .neighbors(i)
                            .iter()
                            .filter(|&&j| self.assignment[j].is_none())
                            .count()
                    })
                    .copied()
                    .unwrap_or(uncolored[0])
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_constraints::{Constraint, ConstraintSet};
    use diva_relation::fixtures::paper_table1;

    fn solve_with(
        sigma: &[Constraint],
        k: usize,
        strategy: Strategy,
    ) -> Result<ColoringOutcome, DivaError> {
        let r = paper_table1();
        let set = ConstraintSet::bind(sigma, &r).unwrap();
        let graph = ConstraintGraph::build(&set);
        let config = DivaConfig { k, strategy, ..DivaConfig::default() };
        let shuffle = (strategy == Strategy::Basic).then_some(config.seed);
        let candidates: Vec<CandidateSet> = set
            .constraints()
            .iter()
            .map(|c| CandidateSet::enumerate(&r, c, k, config.max_candidates, shuffle))
            .collect();
        let uppers = set.constraints().iter().map(|c| c.upper).collect();
        let labels: Vec<String> = set.constraints().iter().map(|c| c.label()).collect();
        Coloring::new(&graph, &candidates, uppers, &labels, &config).solve()
    }

    fn example_sigma() -> Vec<Constraint> {
        vec![
            Constraint::single("ETH", "Asian", 2, 5),
            Constraint::single("ETH", "African", 1, 3),
            Constraint::single("CTY", "Vancouver", 2, 4),
        ]
    }

    #[test]
    fn paper_example_is_colorable_under_all_strategies() {
        for strategy in Strategy::all() {
            let out = solve_with(&example_sigma(), 2, strategy).unwrap_or_else(|e| {
                panic!("{strategy} failed: {e}");
            });
            assert_eq!(out.assignment.len(), 3);
            // Every constraint's own retained count must lie in range;
            // verify by suppressing and checking satisfaction.
            let r = paper_table1();
            let s = diva_relation::suppress::suppress_clustering(&r, &out.clusters);
            let set = ConstraintSet::bind(&example_sigma(), &s.relation).unwrap();
            assert!(set.satisfied_by(&s.relation), "{strategy}: S_Σ unsatisfying");
            assert!(diva_relation::is_k_anonymous(&s.relation, 2));
        }
    }

    #[test]
    fn example34_conflict_requires_backtracking_but_succeeds() {
        // Σ = {σ2, σ3} from Example 3.4's narrative: African and
        // Vancouver compete for t6.
        let sigma = vec![
            Constraint::single("ETH", "African", 2, 3),
            Constraint::single("CTY", "Vancouver", 2, 4),
        ];
        let out = solve_with(&sigma, 2, Strategy::MinChoice).unwrap();
        // σ2 must take {t5,t6} (the only 2 Africans), so σ3 must avoid
        // t6 (row 5).
        let rows: Vec<usize> = out.clusters.iter().flatten().copied().collect();
        assert!(rows.contains(&4) && rows.contains(&5));
    }

    #[test]
    fn upper_bound_interaction_detected() {
        // From §3.2: σ2 = (ETH[African],1,3) and σ4 = (GEN[Male],1,3).
        // Choosing {{t5,t6}} for σ2 retains 2 Males; a Male clustering
        // of 2 more would exceed σ4's upper bound 3. The colouring must
        // find a consistent combination (e.g. sharing or small totals).
        let sigma = vec![
            Constraint::single("ETH", "African", 1, 3),
            Constraint::single("GEN", "Male", 1, 3),
        ];
        let out = solve_with(&sigma, 2, Strategy::MaxFanOut).unwrap();
        let r = paper_table1();
        let s = diva_relation::suppress::suppress_clustering(&r, &out.clusters);
        let set = ConstraintSet::bind(&sigma, &s.relation).unwrap();
        assert!(set.satisfied_by(&s.relation));
    }

    #[test]
    fn unsatisfiable_reports_no_clustering() {
        // Six Asians demanded, three exist.
        let sigma = vec![Constraint::single("ETH", "Asian", 6, 10)];
        let err = solve_with(&sigma, 2, Strategy::MinChoice).unwrap_err();
        assert!(matches!(err, DivaError::NoDiverseClustering { .. }), "{err}");
    }

    #[test]
    fn conflicting_pair_unsatisfiable() {
        // σa wants ≥3 of the 4 Vancouverites kept with CTY retained;
        // σb wants ≥2 Africans retained. Africans are t5 (Winnipeg)
        // and t6 (Vancouver). An African cluster must contain both
        // t5,t6 (k=2 and only 2 Africans) which makes CTY mixed —
        // removing t6 from σa's pool leaves 3 Vancouverites, still
        // enough. Tighten σa to require all 4: now impossible.
        let sigma = vec![
            Constraint::single("CTY", "Vancouver", 4, 4),
            Constraint::single("ETH", "African", 2, 3),
        ];
        let err = solve_with(&sigma, 2, Strategy::MaxFanOut).unwrap_err();
        assert!(matches!(err, DivaError::NoDiverseClustering { .. }));
    }

    #[test]
    fn empty_sigma_colours_trivially() {
        let out = solve_with(&[], 3, Strategy::Basic).unwrap();
        assert!(out.clusters.is_empty());
        assert!(out.assignment.is_empty());
    }

    #[test]
    fn stats_are_recorded() {
        let out = solve_with(&example_sigma(), 2, Strategy::Basic).unwrap();
        assert!(out.stats.assignments_tried >= 3);
    }

    #[test]
    fn zero_deadline_degrades_with_partial_prefix() {
        let r = paper_table1();
        let set = ConstraintSet::bind(&example_sigma(), &r).unwrap();
        let graph = ConstraintGraph::build(&set);
        let config = DivaConfig { k: 2, strategy: Strategy::MinChoice, ..DivaConfig::default() };
        let candidates: Vec<CandidateSet> =
            set.constraints().iter().map(|c| CandidateSet::enumerate(&r, c, 2, 64, None)).collect();
        let uppers = set.constraints().iter().map(|c| c.upper).collect();
        let labels: Vec<String> = set.constraints().iter().map(|c| c.label()).collect();
        let budget = crate::BudgetSpec::with_deadline(std::time::Duration::ZERO).arm().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let out = Coloring::new(&graph, &candidates, uppers, &labels, &config)
            .with_budget(budget)
            .solve()
            .expect("budget exhaustion degrades, it does not error");
        // The entry poll trips before any assignment: empty prefix.
        assert!(out.clusters.is_empty());
        assert!(matches!(out.degraded, Some(DegradeReason::DeadlineExceeded { .. })));
    }

    #[test]
    fn generous_budget_is_identical_to_unbudgeted() {
        let solve_budgeted = |budget: Option<Arc<Budget>>| {
            let r = paper_table1();
            let set = ConstraintSet::bind(&example_sigma(), &r).unwrap();
            let graph = ConstraintGraph::build(&set);
            let config =
                DivaConfig { k: 2, strategy: Strategy::MinChoice, ..DivaConfig::default() };
            let candidates: Vec<CandidateSet> = set
                .constraints()
                .iter()
                .map(|c| CandidateSet::enumerate(&r, c, 2, 64, None))
                .collect();
            let uppers = set.constraints().iter().map(|c| c.upper).collect();
            let labels: Vec<String> = set.constraints().iter().map(|c| c.label()).collect();
            let mut coloring = Coloring::new(&graph, &candidates, uppers, &labels, &config);
            if let Some(b) = budget {
                coloring = coloring.with_budget(b);
            }
            coloring.solve().unwrap()
        };
        let plain = solve_budgeted(None);
        let budgeted = solve_budgeted(crate::BudgetSpec::with_node_budget(u64::MAX / 2).arm());
        assert_eq!(plain.clusters, budgeted.clusters);
        assert_eq!(plain.assignment, budgeted.assignment);
        assert!(budgeted.degraded.is_none());
    }

    #[test]
    fn short_search_reports_exact_node_usage() {
        let r = paper_table1();
        let set = ConstraintSet::bind(&example_sigma(), &r).unwrap();
        let graph = ConstraintGraph::build(&set);
        let config = DivaConfig { k: 2, strategy: Strategy::MinChoice, ..DivaConfig::default() };
        let candidates: Vec<CandidateSet> =
            set.constraints().iter().map(|c| CandidateSet::enumerate(&r, c, 2, 64, None)).collect();
        let uppers = set.constraints().iter().map(|c| c.upper).collect();
        let labels: Vec<String> = set.constraints().iter().map(|c| c.label()).collect();
        let budget = crate::BudgetSpec::with_node_budget(u64::MAX / 2).arm().unwrap();
        let out = Coloring::new(&graph, &candidates, uppers, &labels, &config)
            .with_budget(Arc::clone(&budget))
            .solve()
            .unwrap();
        let tried = out.stats.assignments_tried;
        assert!(tried > 0 && tried <= CANCEL_POLL_MASK, "shorter than one poll stride: {tried}");
        assert_eq!(budget.usage().nodes_explored, tried);
    }

    #[test]
    fn budget_exhaustion_path() {
        // A tiny budget plus a conflict-heavy unsatisfiable set walks
        // into SearchBudgetExhausted (or proves unsat within budget —
        // accept either, but never success).
        let r = paper_table1();
        let sigma = vec![
            Constraint::single("CTY", "Vancouver", 4, 4),
            Constraint::single("ETH", "African", 2, 3),
            Constraint::single("ETH", "Asian", 3, 3),
            Constraint::single("GEN", "Female", 5, 5),
        ];
        let set = ConstraintSet::bind(&sigma, &r).unwrap();
        let graph = ConstraintGraph::build(&set);
        let config = DivaConfig {
            k: 2,
            strategy: Strategy::Basic,
            backtrack_limit: Some(1),
            ..DivaConfig::default()
        };
        let candidates: Vec<CandidateSet> = set
            .constraints()
            .iter()
            .map(|c| CandidateSet::enumerate(&r, c, 2, 64, Some(1)))
            .collect();
        let uppers = set.constraints().iter().map(|c| c.upper).collect();
        let labels: Vec<String> = set.constraints().iter().map(|c| c.label()).collect();
        let res = Coloring::new(&graph, &candidates, uppers, &labels, &config).solve();
        assert!(res.is_err());
    }
}
