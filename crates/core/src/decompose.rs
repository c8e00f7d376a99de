//! Constraint-graph decomposition: connected components as compact,
//! independent sub-problems.
//!
//! Two constraints interact only when their target-row sets intersect
//! (that is the [`ConstraintGraph`]'s edge relation), so a connected
//! component of the graph is a fully self-contained colouring
//! problem: no consistency condition, forward check, or upper-bound
//! interaction ever crosses a component boundary. This module
//!
//! 1. extracts the components ([`components`]),
//! 2. builds a *compact* sub-problem per component — rows and nodes
//!    remapped to dense local ids so `RowSet`/`SearchState` capacity
//!    shrinks from the whole relation to the component footprint
//!    ([`ConstraintGraph::compact_subgraph`],
//!    [`CandidateSet::remap_rows`]),
//! 3. solves the components concurrently on the bounded worker pool
//!    ([`crate::pool`]), and
//! 4. merges the per-component clusterings back deterministically
//!    ([`solve_clustering`]).
//!
//! Both remaps are monotone and the search's tie-breaks are
//! first-extremum over node/row order, so for exact outcomes the
//! merged result is byte-identical to the monolithic solve — the
//! differential suite (`tests/differential.rs`) pins this at every
//! thread count. See `DESIGN.md` §12 for the invariants.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use diva_relation::RowId;

use crate::budget::Budget;
use crate::candidates::CandidateSet;
use crate::coloring::{Coloring, ColoringOutcome, ColoringStats};
use crate::config::{DivaConfig, Strategy};
use crate::error::DivaError;
use crate::graph::ConstraintGraph;
use crate::pool;

/// One connected component of the constraint graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// The component's node ids in the full graph, ascending. The
    /// local node id of a compact sub-problem is the position here.
    pub nodes: Vec<u32>,
    /// The component footprint: the union of the nodes' target rows
    /// (global row ids, ascending). The local row id is the position
    /// here, so compact per-component state is sized by this length.
    pub rows: Vec<RowId>,
}

/// Extracts the connected components of `graph`, ordered by smallest
/// member node id (the numbering of
/// [`ConstraintGraph::component_labels`]). Every node lands in
/// exactly one component; every row targeted by at least one node
/// lands in exactly one component's footprint (rows targeted by
/// nobody belong to none).
pub fn components(graph: &ConstraintGraph) -> Vec<Component> {
    let (labels, n_components) = graph.component_labels();
    let mut out = vec![Component { nodes: Vec::new(), rows: Vec::new() }; n_components];
    for (node, &label) in labels.iter().enumerate() {
        out[label as usize].nodes.push(node as u32);
    }
    for row in 0..graph.n_rows() {
        // All nodes listed for a row pairwise share it, so they are in
        // the same component; the first is as good as any.
        if let Some(&node) = graph.nodes_of(row).first() {
            out[labels[node as usize] as usize].rows.push(row);
        }
    }
    out
}

/// A compact, self-contained component sub-problem: the inputs of a
/// [`Coloring`] with rows and nodes remapped to dense local ids.
struct SubProblem {
    graph: ConstraintGraph,
    candidates: Vec<CandidateSet>,
    uppers: Vec<usize>,
    labels: Vec<String>,
    /// Global node ids, so the Basic strategy's hashed choices stay
    /// keyed exactly as in the monolithic search.
    nodes: Vec<u32>,
}

/// Solves the clustering phase: the historical monolithic search when
/// decomposition is off or the graph has at most one component,
/// otherwise compact per-component searches on the worker pool,
/// merged back into one [`ColoringOutcome`].
///
/// Merge determinism: clusters are remapped to global row ids and
/// sorted into the same canonical (lexicographic) order the
/// monolithic solve publishes; the assignment is scattered back to
/// global node order (degraded components, whose partial assignment
/// cannot be attributed to nodes, contribute gaps); stats are summed
/// field-wise; the degrade reason is the first in component order.
/// Component errors rank `NoDiverseClustering` (an unsatisfiability
/// proof from the smallest-indexed failing component) above other
/// errors above `Cancelled`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_clustering(
    graph: &ConstraintGraph,
    candidates: &[CandidateSet],
    uppers: &[usize],
    labels: &[String],
    config: &DivaConfig,
    cancel: Option<&Arc<AtomicBool>>,
    budget: Option<&Arc<Budget>>,
) -> Result<ColoringOutcome, DivaError> {
    let comps = if config.decompose { components(graph) } else { Vec::new() };
    if comps.len() <= 1 {
        config.obs.set_components_total(1);
        let mut coloring = Coloring::new(graph, candidates, uppers.to_vec(), labels, config);
        if let Some(token) = cancel {
            coloring = coloring.with_cancel(Arc::clone(token));
        }
        if let Some(b) = budget {
            coloring = coloring.with_budget(Arc::clone(b));
        }
        let result = coloring.solve();
        config.obs.components_done(1);
        return result;
    }

    // Entry-poll parity with the monolithic search: injected
    // slowdowns, cancellation, and an already-expired deadline are
    // observed before the unsatisfiability fail-fast, in that order.
    #[cfg(feature = "fault-inject")]
    config.faults.at_poll();
    if cancel.is_some_and(|t| t.load(Ordering::Relaxed)) {
        return Err(DivaError::Cancelled);
    }
    if let Some(b) = budget {
        if let Some(reason) = b.charge_nodes(0) {
            return Ok(ColoringOutcome {
                clusters: Vec::new(),
                assignment: Vec::new(),
                stats: ColoringStats::default(),
                degraded: Some(reason),
                owners: Vec::new(),
            });
        }
    }
    // Global fail-fast on empty candidate lists, in node order, so the
    // reported constraint matches the monolithic search's regardless
    // of which component it lives in.
    if let Some(i) = (0..graph.n_nodes()).find(|&i| candidates[i].is_empty()) {
        return Err(DivaError::NoDiverseClustering { constraint: labels[i].clone() });
    }

    // Build every compact sub-problem up front (serial: remapping is
    // linear and the scratch row map is reused across components).
    let mut to_local_row = vec![u32::MAX; graph.n_rows()];
    let mut subs = Vec::with_capacity(comps.len());
    for comp in &comps {
        for (l, &g) in comp.rows.iter().enumerate() {
            to_local_row[g] = l as u32;
        }
        let cgraph = graph
            .compact_subgraph(&comp.nodes, &comp.rows)
            .map_err(|detail| DivaError::InvariantViolated { phase: "Decompose".into(), detail })?;
        #[cfg(feature = "strict-invariants")]
        cgraph
            .validate()
            .map_err(|detail| DivaError::InvariantViolated { phase: "Decompose".into(), detail })?;
        let ccands: Vec<CandidateSet> = comp
            .nodes
            .iter()
            .map(|&g| candidates[g as usize].remap_rows(&comp.rows, &to_local_row))
            .collect();
        let cuppers: Vec<usize> = comp.nodes.iter().map(|&g| uppers[g as usize]).collect();
        let clabels: Vec<String> = comp.nodes.iter().map(|&g| labels[g as usize].clone()).collect();
        for &g in &comp.rows {
            to_local_row[g] = u32::MAX;
        }
        subs.push(SubProblem {
            graph: cgraph,
            candidates: ccands,
            uppers: cuppers,
            labels: clabels,
            nodes: comp.nodes.clone(),
        });
    }

    let obs = &config.obs;
    let hw = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let n_workers = config.threads.unwrap_or(hw).clamp(1, subs.len());
    let mut span = obs.span("diva.components").attr("count", subs.len()).attr("workers", n_workers);
    let span_id = span.id();
    config.obs.set_components_total(subs.len() as u64);
    // This solve's own count: the live cell keeps the highest count
    // of any solve sharing the handle (portfolio members).
    let done = AtomicU64::new(0);
    // A fatal component error stops further dequeuing; components
    // already in flight never poll this flag and run to completion.
    let abort = AtomicBool::new(false);
    let results = pool::run_tasks(&subs, n_workers, &abort, Result::is_err, |idx, sub| {
        // Opened on the worker thread with an explicit parent, so this
        // component's `coloring.solve` span nests under it while the
        // component tree itself hangs off `diva.components`.
        let mut comp_span = obs
            .span("diva.component")
            .attr("component", idx)
            .attr("nodes", sub.graph.n_nodes())
            .attr("rows", sub.graph.n_rows());
        if let Some(id) = span_id {
            comp_span = comp_span.with_parent(id);
        }
        let result = solve_component(sub, config, cancel, budget);
        comp_span.set_attr(
            "outcome",
            match &result {
                Ok(o) if o.degraded.is_none() => "exact",
                Ok(_) => "degraded",
                Err(DivaError::Cancelled) => "cancelled",
                Err(_) => "error",
            },
        );
        comp_span.end();
        config.obs.components_done(done.fetch_add(1, Ordering::Relaxed) + 1);
        result
    });

    // Deterministic merge, in component order.
    let mut merged = ColoringOutcome {
        clusters: Vec::new(),
        assignment: Vec::new(),
        stats: ColoringStats::default(),
        degraded: None,
        owners: Vec::new(),
    };
    let mut per_node: Vec<Option<usize>> = vec![None; graph.n_nodes()];
    let mut unsat: Option<DivaError> = None;
    let mut other: Option<DivaError> = None;
    let mut cancelled = false;
    let mut solved = 0usize;
    for (comp, slot) in comps.iter().zip(results) {
        // `None` = never dequeued because a sibling's fatal error
        // aborted the pool; that error decides the verdict below.
        let Some(result) = slot else { continue };
        match result {
            Ok(out) => {
                solved += 1;
                add_stats(&mut merged.stats, &out.stats);
                for cluster in &out.clusters {
                    merged.clusters.push(cluster.iter().map(|&l| comp.rows[l]).collect());
                }
                // Component solves get `with_node_ids`, so owner lists
                // already carry global constraint ids.
                merged.owners.extend(out.owners);
                if out.degraded.is_none() && out.assignment.len() == comp.nodes.len() {
                    for (&g, &ci) in comp.nodes.iter().zip(&out.assignment) {
                        per_node[g as usize] = Some(ci);
                    }
                }
                if merged.degraded.is_none() {
                    merged.degraded = out.degraded;
                }
            }
            Err(DivaError::Cancelled) => cancelled = true,
            Err(e @ DivaError::NoDiverseClustering { .. }) => {
                if unsat.is_none() {
                    unsat = Some(e);
                }
            }
            Err(e) => {
                if other.is_none() {
                    other = Some(e);
                }
            }
        }
    }
    span.set_attr("solved", solved);
    let verdict = if let Some(e) = unsat {
        Err(e)
    } else if let Some(e) = other {
        Err(e)
    } else if cancelled {
        Err(DivaError::Cancelled)
    } else {
        // The same canonical cluster order the monolithic solve
        // publishes (`SearchState::live_clusters_canonical`). Owner
        // lists (when provenance is recording) ride along so they stay
        // parallel to their clusters.
        if merged.owners.len() == merged.clusters.len() && !merged.owners.is_empty() {
            let mut pairs: Vec<(Vec<diva_relation::RowId>, Vec<u32>)> =
                merged.clusters.drain(..).zip(merged.owners.drain(..)).collect();
            pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            for (cluster, owners) in pairs {
                merged.clusters.push(cluster);
                merged.owners.push(owners);
            }
        } else {
            merged.clusters.sort_unstable();
        }
        merged.assignment = per_node.iter().filter_map(|a| *a).collect();
        Ok(merged)
    };
    span.set_attr("ok", verdict.is_ok());
    span.end();
    verdict
}

/// Solves one compact component: the configured strategy alone, or —
/// for components at least [`DivaConfig::component_portfolio`] nodes
/// large — an inner race of all three strategies.
fn solve_component(
    sub: &SubProblem,
    config: &DivaConfig,
    cancel: Option<&Arc<AtomicBool>>,
    budget: Option<&Arc<Budget>>,
) -> Result<ColoringOutcome, DivaError> {
    if config.component_portfolio.is_some_and(|t| sub.graph.n_nodes() >= t) {
        return race_component(sub, config, cancel, budget);
    }
    let mut coloring =
        Coloring::new(&sub.graph, &sub.candidates, sub.uppers.clone(), &sub.labels, config)
            .with_node_ids(sub.nodes.clone());
    if let Some(token) = cancel {
        coloring = coloring.with_cancel(Arc::clone(token));
    }
    if let Some(b) = budget {
        coloring = coloring.with_budget(Arc::clone(b));
    }
    coloring.solve()
}

/// The inner per-component portfolio: all three strategies race over
/// the *shared* compact sub-problem (candidates are already
/// enumerated) on the worker pool, and the first result cancels the
/// others through the race token.
///
/// The verdict is ranked by [`pool::strongest`], deterministic in
/// member order ([`Strategy::all`]). The caller's own cancellation is
/// checked at member entry; mid-race it only takes effect at the next
/// component boundary (racing trades that granularity, and byte
/// determinism, for robustness — see [`DivaConfig::component_portfolio`]).
fn race_component(
    sub: &SubProblem,
    config: &DivaConfig,
    cancel: Option<&Arc<AtomicBool>>,
    budget: Option<&Arc<Budget>>,
) -> Result<ColoringOutcome, DivaError> {
    let strategies = Strategy::all();
    let race_token = Arc::new(AtomicBool::new(false));
    let slots = pool::run_tasks(
        &strategies,
        strategies.len(),
        &race_token,
        Result::is_ok,
        |_, &strategy| {
            if cancel.is_some_and(|t| t.load(Ordering::Relaxed)) {
                return Err(DivaError::Cancelled);
            }
            let member_config = DivaConfig { strategy, ..config.clone() };
            let mut coloring = Coloring::new(
                &sub.graph,
                &sub.candidates,
                sub.uppers.clone(),
                &sub.labels,
                &member_config,
            )
            .with_node_ids(sub.nodes.clone())
            .with_cancel(Arc::clone(&race_token));
            if let Some(b) = budget {
                coloring = coloring.with_budget(Arc::clone(b));
            }
            coloring.solve()
        },
    );
    pool::strongest(slots, |o| o.degraded.is_none()).map_or(Err(DivaError::Cancelled), |(_, v)| v)
}

/// Field-wise sum of search counters; component counters are additive
/// because each component explores a disjoint part of the search tree.
fn add_stats(into: &mut ColoringStats, from: &ColoringStats) {
    into.assignments_tried += from.assignments_tried;
    into.backtracks += from.backtracks;
    into.dead_ends += from.dead_ends;
    into.node_selections += from.node_selections;
    into.forward_check_prunes += from.forward_check_prunes;
    into.repair_attempts += from.repair_attempts;
    into.repair_successes += from.repair_successes;
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_constraints::{Constraint, ConstraintSet};
    use diva_relation::fixtures::paper_table1;
    use diva_relation::Relation;

    /// graph + candidates + uppers + labels for `rel` under `sigma`.
    fn problem(
        rel: &Relation,
        sigma: &[Constraint],
        config: &DivaConfig,
    ) -> (ConstraintGraph, Vec<CandidateSet>, Vec<usize>, Vec<String>) {
        let set = ConstraintSet::bind(sigma, rel).unwrap();
        let graph = ConstraintGraph::build(&set);
        let shuffle = (config.strategy == Strategy::Basic).then_some(config.seed);
        let candidates = set
            .constraints()
            .iter()
            .map(|c| CandidateSet::enumerate(rel, c, config.k, config.max_candidates, shuffle))
            .collect();
        let uppers = set.constraints().iter().map(|c| c.upper).collect();
        let labels = set.constraints().iter().map(|c| c.label()).collect();
        (graph, candidates, uppers, labels)
    }

    /// African {4,5} and Vancouver {5,6,7,9} share row 5 — one
    /// component; Calgary {0,1,2} is disjoint from both — a second.
    fn split_sigma() -> Vec<Constraint> {
        vec![
            Constraint::single("ETH", "African", 2, 3),
            Constraint::single("CTY", "Vancouver", 2, 4),
            Constraint::single("CTY", "Calgary", 2, 3),
        ]
    }

    #[test]
    fn components_partition_nodes_and_rows() {
        let r = paper_table1();
        let config = DivaConfig::with_k(2);
        let (graph, ..) = problem(&r, &split_sigma(), &config);
        let comps = components(&graph);
        assert_eq!(comps.len(), 2);
        // Node partition: every node exactly once, components ordered
        // by smallest node id.
        assert_eq!(comps[0].nodes, vec![0, 1], "African + Vancouver interact");
        assert_eq!(comps[1].nodes, vec![2], "Calgary is independent");
        // Row partition: footprints are disjoint and ascending.
        let mut all_rows: Vec<RowId> = comps.iter().flat_map(|c| c.rows.clone()).collect();
        let n = all_rows.len();
        all_rows.sort_unstable();
        all_rows.dedup();
        assert_eq!(all_rows.len(), n, "footprints must be disjoint");
        for c in &comps {
            assert!(c.rows.windows(2).all(|w| w[0] < w[1]), "rows ascending");
        }
    }

    #[test]
    fn empty_graph_has_no_components() {
        let r = paper_table1();
        let config = DivaConfig::with_k(2);
        let (graph, ..) = problem(&r, &[], &config);
        assert!(components(&graph).is_empty());
    }

    fn solve(config: &DivaConfig, sigma: &[Constraint]) -> Result<ColoringOutcome, DivaError> {
        let r = paper_table1();
        let (graph, candidates, uppers, labels) = problem(&r, sigma, config);
        solve_clustering(&graph, &candidates, &uppers, &labels, config, None, None)
    }

    #[test]
    fn decomposed_solve_matches_monolithic_for_every_strategy() {
        for strategy in Strategy::all() {
            let base = DivaConfig::with_k(2).strategy(strategy);
            let mono = solve(&base.clone().decompose(false), &split_sigma()).unwrap();
            for threads in [1usize, 2, 4] {
                let config = base.clone().threads(Some(threads)).unwrap();
                let dec = solve(&config, &split_sigma()).unwrap();
                assert_eq!(dec.clusters, mono.clusters, "{strategy} threads={threads}");
                assert_eq!(dec.assignment, mono.assignment, "{strategy} threads={threads}");
                assert!(dec.degraded.is_none());
            }
        }
    }

    #[test]
    fn unsatisfiable_component_fails_the_whole_solve() {
        // Vancouver demands all 4 Vancouverites while African must
        // bind t6 into an African pair — their shared component is
        // unsatisfiable in-search (candidates exist, colouring fails)
        // while the Calgary component is fine. The merge must surface
        // the proof from the failing component.
        let sigma = vec![
            Constraint::single("CTY", "Vancouver", 4, 4),
            Constraint::single("ETH", "African", 2, 3),
            Constraint::single("CTY", "Calgary", 2, 3),
        ];
        let err = solve(&DivaConfig::with_k(2), &sigma).unwrap_err();
        match err {
            DivaError::NoDiverseClustering { constraint } => {
                assert!(!constraint.contains("Calgary"), "{constraint}");
            }
            other => panic!("expected unsat proof, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_degrades_before_solving_components() {
        let budget = crate::BudgetSpec::with_deadline(std::time::Duration::ZERO).arm().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let r = paper_table1();
        let config = DivaConfig::with_k(2);
        let (graph, candidates, uppers, labels) = problem(&r, &split_sigma(), &config);
        let out =
            solve_clustering(&graph, &candidates, &uppers, &labels, &config, None, Some(&budget))
                .expect("deadline exhaustion degrades, it does not error");
        assert!(out.clusters.is_empty());
        assert!(out.degraded.is_some());
    }

    #[test]
    fn pre_set_cancel_token_cancels() {
        let token = Arc::new(AtomicBool::new(true));
        let r = paper_table1();
        let config = DivaConfig::with_k(2);
        let (graph, candidates, uppers, labels) = problem(&r, &split_sigma(), &config);
        let err =
            solve_clustering(&graph, &candidates, &uppers, &labels, &config, Some(&token), None)
                .unwrap_err();
        assert_eq!(err, DivaError::Cancelled);
    }

    #[test]
    fn inner_portfolio_still_solves_components() {
        // Threshold 1: every component races all three strategies; any
        // complete colouring is a valid clustering even though the
        // winner is timing-dependent.
        let config = DivaConfig::with_k(2).component_portfolio(Some(1));
        let out = solve(&config, &split_sigma()).unwrap();
        assert!(out.degraded.is_none());
        assert!(!out.clusters.is_empty());
        let covered: usize = out.clusters.iter().map(Vec::len).sum();
        assert!(covered >= 4, "African + Vancouver minimums");
    }
}
