//! The recursive colouring search (Algorithms 3 and 4 of the paper).
#![deny(clippy::disallowed_types)]

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::budget::{Budget, Controls, DegradeReason, Stop};
use crate::candidates::{CandidateSet, Repaired};
use crate::config::{DivaConfig, Strategy};
use crate::error::DivaError;
use crate::graph::ConstraintGraph;
use crate::state::SearchState;

/// Counters reported by a colouring run.
///
/// Counters accumulate in plain fields during the search (the hot
/// loop touches no atomics). Nodes and repairs are published only when
/// the search settles at a poll; every counter is flushed once per
/// solve to the configured [`diva_obs::Obs`] handle as
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
    /// re-materialize from free target tuples. Each attempt follows a
    /// failed assignment attempt, so this never exceeds
    /// `assignments_tried` and a node cap bounds it too.
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
    /// Scratch every repair writes its clustering into.
    repaired: Repaired,
    assignment: Vec<Option<usize>>,
    /// The nodes this search colours, ascending: one connected
    /// component's (see [`Coloring::with_nodes`]), or `None` for every
    /// node of the graph.
    nodes: Option<&'a [u32]>,
    stats: ColoringStats,
    /// The run's stop context, polled every [`POLL_STRIDE`] nodes and
    /// exactly where the node cap trips: a set cancellation flag ends
    /// the search with [`DivaError::Cancelled`]; an exhausted budget
    /// stops it with the partial assignment instead of unwinding it
    /// (see [`ColoringOutcome::degraded`]).
    controls: Controls,
    /// Nodes published by the last settle ([`Coloring::settle`]).
    settled_nodes: u64,
    /// Repair attempts published by the last settle.
    settled_repairs: u64,
    /// The `assignments_tried` count at which the next poll happens.
    next_poll: u64,
    /// Every (node, candidate) the search tried, in order.
    #[cfg(test)]
    tried: Vec<(usize, usize)>,
}

/// Nodes between polls — cheap enough to leave the hot path
/// unaffected, frequent enough that losing portfolio members exit
/// promptly. Polls come sooner when fewer nodes remain under the cap.
const POLL_STRIDE: u64 = 256;

/// Decorrelates the Basic strategy's candidate-order stream from its
/// node-selection stream (both are keyed by the same (seed, node)).
const CANDIDATE_ORDER_SALT: u64 = 0x5bd1_e995_0a1c_ca57;

/// Position-independent hash behind the Basic strategy's "random"
/// choices: a splitmix64-style finalizer over (seed, node id). A
/// stream RNG would entangle each choice with every previously
/// visited node, so a component search could never replay the
/// monolithic search's decisions; hashing by node id makes the
/// choice a pure function of the node, which is what makes
/// decomposed and monolithic Basic solves byte-identical.
fn basic_mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The result of a colouring run.
#[derive(Debug, Default)]
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
            repaired: Repaired::default(),
            assignment: vec![None; graph.n_nodes()],
            nodes: None,
            stats: ColoringStats::default(),
            controls: Controls::default(),
            settled_nodes: 0,
            settled_repairs: 0,
            next_poll: POLL_STRIDE,
            #[cfg(test)]
            tried: Vec::new(),
        }
    }

    /// Restricts the search to `nodes` (ascending): one connected
    /// component of the graph. No row's node list leaves a component,
    /// so the search touches only the component's rows and node
    /// counters, and the other nodes stay uncoloured.
    pub(crate) fn with_nodes(mut self, nodes: &'a [u32]) -> Self {
        self.nodes = Some(nodes);
        self
    }

    /// The nodes this search colours, ascending.
    fn nodes(&self) -> impl Iterator<Item = usize> + 'a {
        let (listed, all) = match self.nodes {
            Some(nodes) => (nodes, 0..0),
            None => (&[][..], 0..self.graph.n_nodes()),
        };
        listed.iter().map(|&v| v as usize).chain(all)
    }

    /// Attaches the run's stop context (its cancellation flag and
    /// armed budget, shared with every other search of the run).
    pub fn with_controls(mut self, controls: &Controls) -> Self {
        self.controls = controls.clone();
        self
    }

    /// Attaches an armed resource budget and no cancellation flag
    /// anyone else holds; exhaustion ends the search with the partial
    /// assignment ([`ColoringOutcome::degraded`]).
    pub fn with_budget(self, budget: Arc<Budget>) -> Self {
        self.with_controls(&Controls::new(Some(budget)))
    }

    /// Counts one explored node (an assignment attempt) and polls when
    /// the count reaches the poll mark.
    fn explore_node(&mut self) -> Result<(), Stop> {
        self.stats.assignments_tried += 1;
        if self.stats.assignments_tried >= self.next_poll {
            self.poll()?;
        }
        Ok(())
    }

    /// A poll point: injected slowdowns, then cancellation, then the
    /// settle, whose budget verdict decides whether the search goes
    /// on. Sets the next poll mark: the next stride boundary, or the
    /// node that would exceed the node cap if that comes sooner.
    fn poll(&mut self) -> Result<(), Stop> {
        #[cfg(feature = "fault-inject")]
        self.config.faults.at_poll();
        if self.controls.is_cancelled() {
            return Err(Stop::Cancelled);
        }
        let headroom = self.settle().map_err(Stop::Degraded)?;
        let tried = self.stats.assignments_tried;
        let stride_end = (tried / POLL_STRIDE + 1) * POLL_STRIDE;
        self.next_poll = stride_end.min(tried.saturating_add(headroom).saturating_add(1));
        Ok(())
    }

    /// The one place the search publishes its counts: pushes the nodes
    /// and repairs since the last settle to the live cells, and the
    /// nodes to the budget. Returns how many more nodes the cap allows.
    fn settle(&mut self) -> Result<u64, DegradeReason> {
        let nodes = self.stats.assignments_tried - self.settled_nodes;
        let repairs = self.stats.repair_attempts - self.settled_repairs;
        self.settled_nodes = self.stats.assignments_tried;
        self.settled_repairs = self.stats.repair_attempts;
        self.config.obs.add_nodes(nodes);
        self.config.obs.add_repairs(repairs);
        match self.controls.budget() {
            Some(budget) => budget.charge_nodes(nodes),
            None => Ok(u64::MAX),
        }
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
            .attr("nodes", self.nodes.map_or(self.graph.n_nodes(), <[u32]>::len));
        let result = self.solve_impl();
        // Settle what was explored since the last poll: it counts in
        // the live cells, in `BudgetUsage::nodes_explored` and against
        // the cap of every search still running. This search's outcome
        // is decided, so the verdict no longer matters.
        let _ = self.settle();
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
        let searched = match self.poll() {
            Ok(()) => {
                // Fail fast on nodes with no candidates at all: the
                // constraint is unsatisfiable regardless of interactions.
                if let Some(i) = self.nodes().find(|&i| self.candidates[i].is_empty()) {
                    return Err(DivaError::NoDiverseClustering {
                        constraint: self.labels[i].clone(),
                    });
                }
                self.color_remaining()
            }
            Err(stop) => Err(stop),
        };
        // An exhausted budget keeps the partial assignment (the
        // clustered-so-far prefix) and reports it as degraded.
        let degraded = match searched {
            Ok(true) => None,
            Ok(false) => {
                let failed = self.nodes().find(|&i| self.assignment[i].is_none()).unwrap_or(0);
                return Err(DivaError::NoDiverseClustering {
                    constraint: self.labels[failed].clone(),
                });
            }
            Err(Stop::Cancelled) => return Err(DivaError::Cancelled),
            Err(Stop::Degraded(reason)) => Some(reason),
        };
        #[cfg(feature = "strict-invariants")]
        self.state.validate(self.graph).map_err(|detail| DivaError::InvariantViolated {
            phase: "DiverseClustering".into(),
            detail,
        })?;
        Ok(ColoringOutcome {
            clusters: self.state.live_clusters(),
            assignment: self.assignment.iter().filter_map(|a| *a).collect(),
            stats: self.stats.clone(),
            degraded,
        })
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
            // A fixed per-node permutation (keyed by the node id, not a
            // shared stream) so re-expansions and component searches
            // walk candidates in the same order as the monolithic
            // search.
            let mut rng =
                StdRng::seed_from_u64(basic_mix(self.config.seed ^ CANDIDATE_ORDER_SALT, v as u64));
            order.shuffle(&mut rng);
        }
        for ci in order {
            self.explore_node()?;
            #[cfg(test)]
            self.tried.push((v, ci));
            let clustering = self.candidates[v].clustering(ci);
            // IsConsistent + commit in one step. If the literal
            // candidate is blocked (typically because neighbours own
            // some of its rows), re-materialize it from free target
            // tuples and retry once (see `CandidateSet::repair`).
            let token = match self.state.try_assign(clustering, self.graph) {
                Some(t) => t,
                None => {
                    if !self.config.enable_repair {
                        continue;
                    }
                    self.stats.repair_attempts += 1;
                    #[cfg(feature = "fault-inject")]
                    if self.config.faults.repair_fails(self.stats.repair_attempts) {
                        continue;
                    }
                    // Repair draws the candidate's total from the free
                    // target rows of `v`, which the state counts
                    // exactly: too few, and it would scan in vain.
                    if self.state.free_targets(v) < self.candidates[v].total(ci) {
                        continue;
                    }
                    let state = &self.state;
                    let repaired = self.candidates[v].repair(
                        clustering,
                        self.config.k,
                        |r| state.row_is_free(r),
                        &mut self.repaired,
                    );
                    if !repaired {
                        continue;
                    }
                    self.stats.repair_successes += 1;
                    self.explore_node()?;
                    match self.state.try_assign(self.repaired.clusters(), self.graph) {
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
                && self.nodes().any(|w| {
                    self.assignment[w].is_none()
                        && self.state.free_targets(w) < self.candidates[w].min_total()
                        // Too few free rows — but a node can still be
                        // satisfied by *sharing* already-registered
                        // identical clusters, so confirm with the exact
                        // per-candidate availability scan before
                        // declaring the subtree dead.
                        && !(0..self.candidates[w].len())
                            .any(|ci| self.candidates[w].available(ci, &self.state))
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
        }
        self.stats.dead_ends += 1;
        Ok(false)
    }

    /// The `NextNode` routine (§3.3): picks the next uncoloured node
    /// according to the configured strategy, or `None` when all nodes
    /// are coloured.
    fn next_node(&mut self) -> Option<usize> {
        let uncolored = self.nodes().filter(|&i| self.assignment[i].is_none());
        let picked = match self.config.strategy {
            // "Random" = smallest hash of (seed, node id): a pure
            // function of the uncoloured set, so the choice restricted
            // to any component equals that component's own choice.
            Strategy::Basic => uncolored.min_by_key(|&i| basic_mix(self.config.seed, i as u64)),
            // Most restrictive first: fewest *currently consistent*
            // candidates (rows still available given coloured
            // neighbours).
            Strategy::MinChoice => uncolored.min_by_key(|&i| {
                let cands = &self.candidates[i];
                (0..cands.len()).filter(|&ci| cands.available(ci, &self.state)).count()
            }),
            // Most uncoloured neighbours first.
            Strategy::MaxFanOut => uncolored.max_by_key(|&i| {
                self.graph.neighbors(i).iter().filter(|&&j| self.assignment[j].is_none()).count()
            }),
        }?;
        self.stats.node_selections += 1;
        Some(picked)
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
        assert!(tried > 0 && tried < POLL_STRIDE, "shorter than one poll stride: {tried}");
        assert_eq!(budget.usage().nodes_explored, tried);
    }

    #[test]
    fn node_cap_stops_the_search_at_exactly_cap_plus_one() {
        // A search several poll strides long: every cap below trips,
        // at exactly the first node past it — also inside a stride.
        let r = diva_datagen::medical(400, 25);
        let sigma = diva_constraints::generators::proportional(&r, 8, 0.7, 20);
        let set = ConstraintSet::bind(&sigma, &r).unwrap();
        let graph = ConstraintGraph::build(&set);
        let config = DivaConfig::with_k(5);
        let candidates: Vec<CandidateSet> =
            set.constraints().iter().map(|c| CandidateSet::enumerate(&r, c, 5, 64, None)).collect();
        let labels: Vec<String> = set.constraints().iter().map(|c| c.label()).collect();
        let uppers = || set.constraints().iter().map(|c| c.upper).collect();
        let full = Coloring::new(&graph, &candidates, uppers(), &labels, &config).solve().unwrap();
        assert!(full.stats.assignments_tried > 300, "{}", full.stats.assignments_tried);
        for cap in [0, 1, 3, 255, 256, 257, 300] {
            let budget = crate::BudgetSpec::with_node_budget(cap).arm().unwrap();
            let out = Coloring::new(&graph, &candidates, uppers(), &labels, &config)
                .with_budget(Arc::clone(&budget))
                .solve()
                .expect("budget exhaustion degrades, it does not error");
            let explored = cap + 1;
            assert_eq!(out.degraded, Some(DegradeReason::NodeBudgetExhausted { explored, cap }));
            assert_eq!(out.stats.assignments_tried, explored, "cap {cap}");
            assert_eq!(budget.usage().nodes_explored, explored, "cap {cap}");
        }
    }

    #[test]
    fn the_search_builds_only_candidates_it_tries() {
        // The instance of `node_cap_stops_the_search_at_exactly_cap_plus_one`:
        // MinChoice counts the available candidates of every uncoloured
        // node at every selection, and none of that may build one.
        let r = diva_datagen::medical(400, 25);
        let sigma = diva_constraints::generators::proportional(&r, 8, 0.7, 20);
        let set = ConstraintSet::bind(&sigma, &r).unwrap();
        let graph = ConstraintGraph::build(&set);
        let config = DivaConfig { strategy: Strategy::MinChoice, ..DivaConfig::with_k(5) };
        let candidates: Vec<CandidateSet> =
            set.constraints().iter().map(|c| CandidateSet::enumerate(&r, c, 5, 64, None)).collect();
        let labels: Vec<String> = set.constraints().iter().map(|c| c.label()).collect();
        let uppers = set.constraints().iter().map(|c| c.upper).collect();
        let mut search = Coloring::new(&graph, &candidates, uppers, &labels, &config);
        let out = search.solve_impl().unwrap();
        let tried = out.stats.assignments_tried;
        assert!(tried > 300, "{tried}");
        let mut distinct = search.tried.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let built: usize = candidates.iter().map(CandidateSet::built_windows).sum();
        let listed: usize = candidates.iter().map(CandidateSet::len).sum();
        assert!(built <= distinct.len(), "built {built}, tried {}", distinct.len());
        assert!(distinct.len() as u64 <= tried, "{} distinct of {tried}", distinct.len());
        assert!(built < listed, "built {built} of {listed}");
    }
}
