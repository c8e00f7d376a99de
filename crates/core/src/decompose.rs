//! Constraint-graph decomposition: connected components as
//! independent sub-problems.
//!
//! Two constraints interact only when their target-row sets intersect
//! (that is the [`ConstraintGraph`]'s edge relation), so a connected
//! component of the graph is a fully self-contained colouring
//! problem: no consistency condition, forward check, or upper-bound
//! interaction ever crosses a component boundary. This module
//!
//! 1. extracts the components ([`components`]),
//! 2. solves the components concurrently on the bounded worker pool
//!    ([`crate::pool`]), each search restricted to its component's
//!    nodes of the shared graph and candidate lists, and
//! 3. merges the per-component clusterings deterministically
//!    (`solve_clustering`).
//!
//! Every search sees the same global row and node ids and walks its
//! nodes in ascending order, and the search's tie-breaks are
//! first-extremum over node/row order, so for exact outcomes the
//! merged result is byte-identical to the monolithic solve — the
//! differential suite (`tests/differential.rs`) pins this at every
//! thread count. See `DESIGN.md` §12 for the invariants.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::budget::{Controls, Stop};
use crate::candidates::CandidateSet;
use crate::coloring::{Coloring, ColoringOutcome, ColoringStats};
use crate::config::DivaConfig;
use crate::error::DivaError;
use crate::graph::ConstraintGraph;
use crate::pool;

/// One connected component of the constraint graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// The component's node ids in the graph, ascending.
    pub nodes: Vec<u32>,
}

/// Extracts the connected components of `graph`, ordered by smallest
/// member node id (the numbering of
/// [`ConstraintGraph::component_labels`]). Every node lands in
/// exactly one component.
pub fn components(graph: &ConstraintGraph) -> Vec<Component> {
    let (labels, n_components) = graph.component_labels();
    let mut out = vec![Component { nodes: Vec::new() }; n_components];
    for (node, &label) in labels.iter().enumerate() {
        out[label as usize].nodes.push(node as u32);
    }
    out
}

/// Solves the clustering phase: the historical monolithic search when
/// decomposition is off or the graph has at most one component,
/// otherwise one search per component on the worker pool, each over
/// the shared graph and candidates restricted to the component's
/// nodes, merged into one [`ColoringOutcome`].
///
/// Merge determinism: clusters are sorted into the same canonical
/// (lexicographic) order the monolithic solve publishes; the
/// assignment is scattered back to node order (degraded components,
/// whose partial assignment cannot be attributed to nodes, contribute
/// gaps); stats are summed field-wise; the degrade reason is the
/// first in component order. A failed component fails the solve, and
/// the error reported is the one the portfolio's ranking
/// ([`pool::strongest`]) picks, ties to the lowest component.
pub(crate) fn solve_clustering(
    graph: &ConstraintGraph,
    candidates: &[CandidateSet],
    uppers: &[usize],
    labels: &[String],
    config: &DivaConfig,
    controls: &Controls,
) -> Result<ColoringOutcome, DivaError> {
    let comps = if config.decompose { components(graph) } else { Vec::new() };
    if comps.len() <= 1 {
        config.obs.set_components_total(1);
        let result = Coloring::new(graph, candidates, uppers.to_vec(), labels, config)
            .with_controls(controls)
            .solve();
        config.obs.components_done(1);
        return result;
    }

    // Entry-poll parity with the monolithic search: injected
    // slowdowns, cancellation, and an already-expired deadline are
    // observed before the empty-candidate fail-fast, in that order.
    #[cfg(feature = "fault-inject")]
    config.faults.at_poll();
    match controls.checkpoint() {
        Some(Stop::Cancelled) => return Err(DivaError::Cancelled),
        Some(Stop::Degraded(reason)) => {
            return Ok(ColoringOutcome { degraded: Some(reason), ..ColoringOutcome::default() })
        }
        None => {}
    }
    // Global fail-fast on empty candidate lists, in node order, so the
    // reported constraint matches the monolithic search's regardless
    // of which component it lives in.
    if let Some(i) = (0..graph.n_nodes()).find(|&i| candidates[i].is_empty()) {
        return Err(DivaError::NoDiverseClustering { constraint: labels[i].clone() });
    }

    let obs = &config.obs;
    let n_workers = config.workers().clamp(1, comps.len());
    let mut span =
        obs.span("diva.components").attr("count", comps.len()).attr("workers", n_workers);
    let span_id = span.id();
    config.obs.set_components_total(comps.len() as u64);
    // This solve's own count: the live cell keeps the highest count
    // of any solve sharing the handle (portfolio members).
    let done = AtomicU64::new(0);
    // A fatal component error stops further dequeuing; components
    // already in flight never poll this flag and run to completion.
    let abort = AtomicBool::new(false);
    let results = pool::run_tasks(&comps, n_workers, &abort, Result::is_err, |idx, comp| {
        // Opened on the worker thread with an explicit parent, so this
        // component's `coloring.solve` span nests under it while the
        // component tree itself hangs off `diva.components`.
        let mut comp_span =
            obs.span("diva.component").attr("component", idx).attr("nodes", comp.nodes.len());
        if let Some(id) = span_id {
            comp_span = comp_span.with_parent(id);
        }
        let result = Coloring::new(graph, candidates, uppers.to_vec(), labels, config)
            .with_nodes(&comp.nodes)
            .with_controls(controls)
            .solve();
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
    let mut merged = ColoringOutcome::default();
    let mut per_node: Vec<Option<usize>> = vec![None; graph.n_nodes()];
    let mut failed: pool::Slots<ColoringOutcome> = Vec::new();
    let mut solved = 0usize;
    for (comp, slot) in comps.iter().zip(results) {
        // `None` = never dequeued because a sibling's fatal error
        // aborted the pool; that error decides the verdict below.
        let Some(result) = slot else { continue };
        match result {
            Ok(out) => {
                solved += 1;
                add_stats(&mut merged.stats, &out.stats);
                merged.clusters.extend(out.clusters);
                if out.degraded.is_none() && out.assignment.len() == comp.nodes.len() {
                    for (&g, &ci) in comp.nodes.iter().zip(&out.assignment) {
                        per_node[g as usize] = Some(ci);
                    }
                }
                if merged.degraded.is_none() {
                    merged.degraded = out.degraded;
                }
            }
            Err(e) => failed.push(Some(Err(e))),
        }
    }
    span.set_attr("solved", solved);
    // `failed` holds errors only, so any pick fails the solve.
    let verdict = match pool::strongest(failed, |_| false) {
        Some((_, failure)) => failure,
        None => {
            // The same canonical cluster order the monolithic solve
            // publishes (`SearchState::live_clusters`).
            merged.clusters.sort_unstable();
            merged.assignment = per_node.iter().filter_map(|a| *a).collect();
            Ok(merged)
        }
    };
    span.set_attr("ok", verdict.is_ok());
    span.end();
    verdict
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
    use crate::config::Strategy;
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
    fn components_partition_nodes() {
        let r = paper_table1();
        let config = DivaConfig::with_k(2);
        let (graph, ..) = problem(&r, &split_sigma(), &config);
        let comps = components(&graph);
        // Every node exactly once, components ordered by smallest node
        // id.
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].nodes, vec![0, 1], "African + Vancouver interact");
        assert_eq!(comps[1].nodes, vec![2], "Calgary is independent");
    }

    #[test]
    fn component_search_colours_only_its_own_nodes() {
        let r = paper_table1();
        for strategy in Strategy::all() {
            let config = DivaConfig::with_k(2).strategy(strategy);
            let (graph, candidates, uppers, labels) = problem(&r, &split_sigma(), &config);
            let mono = Coloring::new(&graph, &candidates, uppers.clone(), &labels, &config)
                .solve()
                .unwrap();
            let mut union = Vec::new();
            for comp in components(&graph) {
                let out = Coloring::new(&graph, &candidates, uppers.clone(), &labels, &config)
                    .with_nodes(&comp.nodes)
                    .solve()
                    .unwrap();
                // Exactly the component's nodes are coloured, each with
                // the monolithic search's choice.
                let own: Vec<usize> =
                    comp.nodes.iter().map(|&v| mono.assignment[v as usize]).collect();
                assert_eq!(out.assignment, own, "{strategy} {:?}", comp.nodes);
                for &row in out.clusters.iter().flatten() {
                    let targeting = graph.nodes_of(row);
                    assert!(
                        !targeting.is_empty() && targeting.iter().all(|v| comp.nodes.contains(v)),
                        "{strategy}: row {row} is no target of component {:?}",
                        comp.nodes
                    );
                }
                union.extend(out.clusters);
            }
            union.sort_unstable();
            assert_eq!(union, mono.clusters, "{strategy}");
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
        solve_clustering(&graph, &candidates, &uppers, &labels, config, &Controls::default())
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
        // bind t6 into an African pair — their shared component fails
        // in-search (candidates exist, colouring fails) while the
        // Calgary component is fine. The merge must surface the
        // failing component's error.
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
            other => panic!("expected NoDiverseClustering, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_degrades_before_solving_components() {
        let controls =
            Controls::new(crate::BudgetSpec::with_deadline(std::time::Duration::ZERO).arm());
        std::thread::sleep(std::time::Duration::from_millis(1));
        let r = paper_table1();
        let config = DivaConfig::with_k(2);
        let (graph, candidates, uppers, labels) = problem(&r, &split_sigma(), &config);
        let out = solve_clustering(&graph, &candidates, &uppers, &labels, &config, &controls)
            .expect("deadline exhaustion degrades, it does not error");
        assert!(out.clusters.is_empty());
        assert!(out.degraded.is_some());
    }

    #[test]
    fn pre_set_cancel_token_cancels() {
        let controls = Controls::default();
        controls.cancel_flag().store(true, Ordering::Relaxed);
        let r = paper_table1();
        let config = DivaConfig::with_k(2);
        let (graph, candidates, uppers, labels) = problem(&r, &split_sigma(), &config);
        let err = solve_clustering(&graph, &candidates, &uppers, &labels, &config, &controls)
            .unwrap_err();
        assert_eq!(err, DivaError::Cancelled);
    }
}
