//! Mutable search state for the colouring algorithm: the live
//! clusters, the row-owner map, and per-constraint retained counts.
//!
//! The two consistency conditions of §3.2 are enforced here:
//!
//! 1. clusters chosen for different constraints are **disjoint unless
//!    equal** (equal clusters are shared and registered once);
//! 2. choosing a clustering must not **falsify the upper bound** of
//!    any constraint: a cluster `C ⊆ I_σj` retains σj's target value
//!    and contributes `|C|` occurrences to it, so the running retained
//!    total per constraint must stay ≤ `λr`.
//!
//! This is the innermost layer of the search and is engineered for the
//! hot path. The dense row-owner map (a `Vec<u32>` indexed by row id)
//! is the one index of the live clusters: they are pairwise disjoint
//! and own exactly their rows, so one owner-map read tells a free
//! cluster from a live one. Nothing here reads a cluster's row order:
//! a cluster is committed with its rows as given (a candidate's slices
//! of the similarity order, or a repair's) and sorted once, when the
//! search publishes it ([`SearchState::live_clusters`]). A
//! backtracking search undoes assignments in reverse order, so the
//! live clusters form a stack: each is a
//! `{start, len, refcount}` entry over a row arena the stack tiles in
//! order, and an undo log records every step of every live assignment
//! (a cluster created, or a live one shared). A
//! [`Token`] is a mark into that log, and undoing
//! pops the log back to it. The per-call scratch (pending-row marks,
//! per-constraint retained deltas) lives in epoch-stamped arrays
//! reused across calls. So once the stack, arena and log have grown to
//! the search's depth, `try_assign`/`unassign` allocate nothing. A
//! cluster's retained counts go to its owners in the graph
//! ([`ConstraintGraph::owners`]).
#![deny(clippy::disallowed_types)]

use diva_relation::RowId;

use crate::graph::ConstraintGraph;

/// Sentinel in the dense owner map: the row is free.
const NO_OWNER: u32 = u32::MAX;

/// A live cluster: its rows, `arena[start..start + len]`, and how many
/// assigned clusterings currently include it.
#[derive(Debug, Clone, Copy)]
struct Entry {
    start: usize,
    len: usize,
    refcount: usize,
}

/// One step of an assignment, as the undo log records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The live cluster with this stack index gained a reference.
    Incref(u32),
    /// A new cluster was pushed on the stack.
    Created,
}

/// Undo token for one [`SearchState::try_assign`], consumed by
/// [`SearchState::unassign`]: the span of the undo log the assignment
/// wrote.
///
/// Tokens must be undone in reverse order of their assignments, the
/// last assigned first, as a backtracking search does: `unassign` pops
/// the log back to the token's mark, and so would also undo any later
/// assignment. A token may be dropped instead, which keeps its
/// assignment.
#[derive(Debug)]
pub struct Token {
    mark: usize,
    end: usize,
}

/// The search state.
#[derive(Debug)]
pub struct SearchState {
    /// The live clusters, oldest first; a cluster's id is its index.
    clusters: Vec<Entry>,
    /// The live clusters' rows, tiled in stack order.
    arena: Vec<RowId>,
    /// The steps of every live assignment, oldest first.
    log: Vec<Step>,
    /// Dense owner map: `row_owner[r]` is the owning cluster id or
    /// [`NO_OWNER`].
    row_owner: Vec<u32>,
    /// Per-constraint retained occurrence totals.
    retained: Vec<usize>,
    /// Per-constraint upper bounds (`λr`).
    uppers: Vec<usize>,
    /// Per-constraint count of target rows not owned by any cluster,
    /// maintained incrementally for the search's forward check.
    free_targets: Vec<usize>,
    /// Epoch-stamped scratch marking rows claimed by earlier clusters
    /// of the clustering currently being validated.
    pending_mark: Vec<u32>,
    epoch: u32,
    /// Scratch: per-constraint retained-count deltas for one
    /// clustering (zeroed via `delta_touched` after each use).
    delta: Vec<usize>,
    delta_touched: Vec<u32>,
}

impl SearchState {
    /// Creates an empty state for `uppers.len()` constraints over rows
    /// `0..n_rows`. `target_sizes[i]` is `|I_σi|`; `n_rows` is the
    /// graph's row capacity ([`ConstraintGraph::n_rows`]).
    pub fn new(uppers: Vec<usize>, target_sizes: Vec<usize>, n_rows: usize) -> Self {
        assert_eq!(uppers.len(), target_sizes.len());
        let n = uppers.len();
        Self {
            clusters: Vec::new(),
            arena: Vec::new(),
            log: Vec::new(),
            row_owner: vec![NO_OWNER; n_rows],
            retained: vec![0; n],
            uppers,
            free_targets: target_sizes,
            pending_mark: vec![0; n_rows],
            epoch: 0,
            delta: vec![0; n],
            delta_touched: Vec::new(),
        }
    }

    /// Number of target rows of constraint `i` not yet owned by any
    /// cluster.
    pub fn free_targets(&self, i: usize) -> usize {
        self.free_targets[i]
    }

    /// Current retained total of constraint `i`.
    pub fn retained(&self, i: usize) -> usize {
        self.retained[i]
    }

    /// Whether `row` is not owned by any live cluster.
    pub fn row_is_free(&self, row: RowId) -> bool {
        self.row_owner.get(row).is_none_or(|&o| o == NO_OWNER)
    }

    /// The rows of a live cluster.
    fn rows_of(&self, entry: &Entry) -> &[RowId] {
        &self.arena[entry.start..entry.start + entry.len]
    }

    /// The live cluster identical to `rows` (distinct, in any order):
    /// the owner of `rows[0]`, when that cluster has `rows.len()` rows
    /// and owns every row of `rows`. Live clusters are pairwise
    /// disjoint and own exactly their rows (see
    /// [`SearchState::validate`]), so such an owner is the same row
    /// set.
    fn live_cluster(&self, rows: &[RowId]) -> Option<usize> {
        let owner = self.row_owner.get(*rows.first()?).copied().filter(|&o| o != NO_OWNER)?;
        let entry = self.clusters.get(owner as usize)?;
        let same =
            entry.len == rows.len() && rows.iter().all(|&r| self.row_owner.get(r) == Some(&owner));
        same.then_some(owner as usize)
    }

    /// Quick pre-check (no mutation): would a cluster of these rows,
    /// in any order, pass the disjoint-unless-equal condition? It
    /// does when all its rows are free, or when it is identical to a
    /// live cluster. Used by MinChoice and the forward check through
    /// [`crate::CandidateSet::available`].
    pub fn cluster_available(&self, rows: &[RowId]) -> bool {
        rows.iter().all(|&r| self.row_is_free(r)) || self.live_cluster(rows).is_some()
    }

    /// Adds `cluster`'s retained-count contributions into the `delta`
    /// scratch: each of its owners gains `|cluster|` occurrences.
    fn accumulate_delta(&mut self, cluster: &[RowId], graph: &ConstraintGraph) {
        for node in graph.owners(cluster) {
            if self.delta[node as usize] == 0 {
                self.delta_touched.push(node);
            }
            self.delta[node as usize] += cluster.len();
        }
    }

    /// Clears the `delta` scratch.
    fn reset_delta(&mut self) {
        for &node in &self.delta_touched {
            self.delta[node as usize] = 0;
        }
        self.delta_touched.clear();
    }

    /// Attempts to assign `clustering` (for any node): checks both
    /// consistency conditions and, on success, commits and returns an
    /// undo token. Returns `None` (state untouched) on inconsistency.
    ///
    /// `clustering` is walked once to validate, once to simulate the
    /// upper bounds and once to commit, so it is any cloneable
    /// sequence of row slices, each cluster in any row order and the
    /// clusters in any order: a candidate's slices
    /// ([`crate::CandidateSet::clusters`]), a repair's scratch
    /// ([`crate::candidates::Repaired::clusters`]) or a
    /// [`crate::candidates::Clustering`]. The verdict and the cluster
    /// sets committed do not depend on either order; stack order and
    /// cluster ids do, and nothing outside the state reads them.
    pub fn try_assign<C>(&mut self, clustering: C, graph: &ConstraintGraph) -> Option<Token>
    where
        C: IntoIterator + Clone,
        C::Item: AsRef<[RowId]>,
    {
        // --- Validation phase (no mutation beyond scratch). ---
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: clear stale marks so they can't alias the new
            // epoch, then restart from 1.
            self.pending_mark.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        for cluster in clustering.clone() {
            let cluster = cluster.as_ref();
            if self.live_cluster(cluster).is_some() {
                continue; // shared
            }
            // A new cluster may not touch any row owned by a
            // *different* cluster, nor a row of another new cluster in
            // this same clustering (candidates are disjoint by
            // construction; this guards against malformed input).
            for &r in cluster {
                let owned = !self.row_is_free(r);
                let pending = self.pending_mark.get(r).is_some_and(|&m| m == epoch);
                if owned || pending {
                    return None;
                }
                if let Some(m) = self.pending_mark.get_mut(r) {
                    *m = epoch;
                }
            }
        }
        // Upper-bound simulation over the new clusters' owners.
        for cluster in clustering.clone() {
            let cluster = cluster.as_ref();
            if self.live_cluster(cluster).is_none() {
                self.accumulate_delta(cluster, graph);
            }
        }
        let violates = self
            .delta_touched
            .iter()
            .any(|&n| self.retained[n as usize] + self.delta[n as usize] > self.uppers[n as usize]);
        if violates {
            self.reset_delta();
            return None;
        }

        // --- Commit phase. --- Pushing a cluster changes no live one,
        // so each cluster is still shared or new as validated.
        let mark = self.log.len();
        for cluster in clustering {
            let cluster = cluster.as_ref();
            match self.live_cluster(cluster) {
                Some(id) => {
                    self.clusters[id].refcount += 1;
                    self.log.push(Step::Incref(id as u32));
                }
                None => self.push_cluster(cluster, graph),
            }
        }
        for &node in &self.delta_touched {
            self.retained[node as usize] += self.delta[node as usize];
        }
        self.reset_delta();
        Some(Token { mark, end: self.log.len() })
    }

    /// Pushes a new cluster of `rows` on the stack and gives it its
    /// rows; the caller adds its retained counts.
    fn push_cluster(&mut self, rows: &[RowId], graph: &ConstraintGraph) {
        let id = self.clusters.len() as u32;
        self.clusters.push(Entry { start: self.arena.len(), len: rows.len(), refcount: 1 });
        self.arena.extend_from_slice(rows);
        for &r in rows {
            self.row_owner[r] = id;
            for &node in graph.nodes_of(r) {
                self.free_targets[node as usize] -= 1;
            }
        }
        self.log.push(Step::Created);
    }

    /// Pops the top cluster off the stack: frees its rows and takes
    /// back its retained counts.
    fn pop_cluster(&mut self, graph: &ConstraintGraph) {
        let Some(entry) = self.clusters.pop() else {
            return;
        };
        debug_assert_eq!(entry.refcount, 1);
        let rows = &self.arena[entry.start..entry.start + entry.len];
        for &r in rows {
            self.row_owner[r] = NO_OWNER;
            for &node in graph.nodes_of(r) {
                self.free_targets[node as usize] += 1;
            }
        }
        for node in graph.owners(rows) {
            self.retained[node as usize] -= rows.len();
        }
        self.arena.truncate(entry.start);
    }

    /// Reverts a successful [`SearchState::try_assign`]: pops the undo
    /// log back to the token's mark. Tokens are undone in reverse
    /// order of their assignments (see [`Token`]).
    pub fn unassign(&mut self, token: Token, graph: &ConstraintGraph) {
        debug_assert_eq!(
            self.log.len(),
            token.end,
            "tokens are undone in reverse order of their assignments"
        );
        while self.log.len() > token.mark {
            match self.log.pop() {
                Some(Step::Incref(id)) => self.clusters[id as usize].refcount -= 1,
                Some(Step::Created) => self.pop_cluster(graph),
                None => break,
            }
        }
    }

    /// The distinct live clusters — the diverse clustering `S_Σ`
    /// (shared clusters appear once) — in canonical form: each
    /// cluster's rows ascending, the clusters in lexicographic order.
    /// This is the one place canonical order is applied: clusters are
    /// committed in the row order they were tried in, and stack order
    /// depends on assignment chronology, which differs between the
    /// monolithic solve and a component-merged solve even when the
    /// cluster *sets* are identical, so both paths emit byte-identical
    /// output only through these sorts. Live clusters are pairwise
    /// disjoint, so the second sort is a strict total order.
    pub fn live_clusters(&self) -> Vec<Vec<RowId>> {
        let mut clusters: Vec<Vec<RowId>> = self
            .clusters
            .iter()
            .map(|e| {
                let mut rows = self.rows_of(e).to_vec();
                rows.sort_unstable();
                rows
            })
            .collect();
        clusters.sort_unstable();
        clusters
    }

    /// Checks the cross-structure invariants between the dense owner
    /// map, the cluster stack and its row arena, the undo log, the
    /// retained / free-target counters, and the epoch scratch.
    /// Intended for quiet points (between `try_assign`/`unassign`
    /// calls); called by the debug-build pipeline gate on a successful
    /// colouring and by the property suites.
    pub fn validate(&self, graph: &ConstraintGraph) -> Result<(), String> {
        let n = self.uppers.len();
        if n != graph.n_nodes() {
            return Err(format!(
                "SearchState: {n} constraints but the graph has {} nodes",
                graph.n_nodes()
            ));
        }
        if self.row_owner.len() != graph.n_rows() || self.pending_mark.len() != graph.n_rows() {
            return Err(format!(
                "SearchState: owner map spans {} rows, scratch {}, graph {}",
                self.row_owner.len(),
                self.pending_mark.len(),
                graph.n_rows()
            ));
        }
        // Stack → arena: the live clusters tile the row arena in order.
        let mut end = 0;
        for (id, e) in self.clusters.iter().enumerate() {
            if e.start != end {
                return Err(format!(
                    "SearchState: cluster {id} starts at arena row {} instead of {end}",
                    e.start
                ));
            }
            end += e.len;
        }
        if end != self.arena.len() {
            return Err(format!(
                "SearchState: live clusters tile {end} of the arena's {} rows",
                self.arena.len()
            ));
        }
        // Undo log → stack: one `Created` per live cluster, and each
        // cluster's refcount is 1 plus its `Incref` steps, each logged
        // after the cluster was created.
        let mut increfs = vec![0usize; self.clusters.len()];
        let mut created = 0;
        for (at, &step) in self.log.iter().enumerate() {
            match step {
                Step::Created => created += 1,
                Step::Incref(id) => match increfs.get_mut(id as usize) {
                    Some(count) if (id as usize) < created => *count += 1,
                    _ => {
                        return Err(format!(
                            "SearchState: undo step {at} increments cluster {id} before it exists"
                        ));
                    }
                },
            }
        }
        if created != self.clusters.len() {
            return Err(format!(
                "SearchState: undo log holds {created} Created steps for {} live clusters",
                self.clusters.len()
            ));
        }
        for (id, (e, &count)) in self.clusters.iter().zip(&increfs).enumerate() {
            if e.refcount != 1 + count {
                return Err(format!(
                    "SearchState: cluster {id} has refcount {} but {count} Incref steps",
                    e.refcount
                ));
            }
        }
        // Owner map → clusters: every owned row points at a live
        // cluster that lists it.
        for (r, &o) in self.row_owner.iter().enumerate() {
            if o == NO_OWNER {
                continue;
            }
            match self.clusters.get(o as usize) {
                Some(e) => {
                    if !self.rows_of(e).contains(&r) {
                        return Err(format!(
                            "SearchState: row {r} owned by cluster {o} which does not list it"
                        ));
                    }
                }
                None => {
                    return Err(format!("SearchState: row {r} owned by dead cluster {o}"));
                }
            }
        }
        // Clusters → owner map: a live cluster owns every row it
        // lists, so live clusters are pairwise disjoint.
        for (id, e) in self.clusters.iter().enumerate() {
            for &r in self.rows_of(e) {
                if self.row_owner.get(r) != Some(&(id as u32)) {
                    return Err(format!(
                        "SearchState: cluster {id} lists row {r} but the owner map disagrees"
                    ));
                }
            }
        }
        // Counter recomputation: retained and free-target totals must
        // equal what the live clusters imply.
        for i in 0..n {
            let retained: usize = self
                .clusters
                .iter()
                .map(|e| self.rows_of(e))
                .filter(|rows| graph.cluster_contributes(i, rows))
                .map(<[RowId]>::len)
                .sum();
            if retained != self.retained[i] {
                return Err(format!(
                    "SearchState: constraint {i} retained counter {} != recomputed {retained}",
                    self.retained[i]
                ));
            }
            if self.retained[i] > self.uppers[i] {
                return Err(format!(
                    "SearchState: constraint {i} retained {} exceeds upper bound {}",
                    self.retained[i], self.uppers[i]
                ));
            }
            let owned =
                graph.target_set(i).iter().filter(|&r| self.row_owner[r] != NO_OWNER).count();
            let free = graph.target_size(i) - owned;
            if free != self.free_targets[i] {
                return Err(format!(
                    "SearchState: constraint {i} free-target counter {} != recomputed {free}",
                    self.free_targets[i]
                ));
            }
        }
        // Epoch scratch must be quiescent between calls.
        if !self.delta_touched.is_empty() || self.delta.iter().any(|&d| d != 0) {
            return Err("SearchState: delta scratch not reset after last call".into());
        }
        if self.pending_mark.iter().any(|&m| m > self.epoch) {
            return Err("SearchState: pending mark stamped past the current epoch".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_constraints::{Constraint, ConstraintSet};
    use diva_relation::fixtures::paper_table1;

    fn setup() -> (ConstraintGraph, SearchState) {
        let r = paper_table1();
        let set = ConstraintSet::bind(
            &[
                Constraint::single("ETH", "Asian", 2, 5),
                Constraint::single("ETH", "African", 1, 3),
                Constraint::single("CTY", "Vancouver", 2, 4),
            ],
            &r,
        )
        .unwrap();
        let graph = ConstraintGraph::build(&set);
        let uppers = set.constraints().iter().map(|c| c.upper).collect();
        let sizes = set.constraints().iter().map(|c| c.target_rows.len()).collect();
        let n_rows = graph.n_rows();
        (graph, SearchState::new(uppers, sizes, n_rows))
    }

    #[test]
    fn assign_and_unassign_round_trip() {
        let (g, mut st) = setup();
        let clustering = vec![vec![8, 9]]; // {t9,t10} ⊆ I_σ1
        let tok = st.try_assign(&clustering, &g).expect("consistent");
        assert_eq!(st.retained(0), 2);
        assert_eq!(st.retained(2), 0); // t9 not in Vancouver target
        assert_eq!(st.live_clusters(), vec![vec![8, 9]]);
        assert!(!st.row_is_free(8) && !st.row_is_free(9) && st.row_is_free(7));
        st.unassign(tok, &g);
        assert_eq!(st.retained(0), 0);
        assert!(st.live_clusters().is_empty());
        assert!((0..g.n_rows()).all(|r| st.row_is_free(r)));
    }

    #[test]
    fn overlapping_clusters_rejected() {
        let (g, mut st) = setup();
        let _t1 = st.try_assign(&vec![vec![8, 9]], &g).expect("first ok");
        // {t8,t10} = rows 7,9 overlaps row 9 with the registered
        // cluster and is not identical → rejected.
        assert!(st.try_assign(&vec![vec![7, 9]], &g).is_none());
        // State unchanged by the failed attempt.
        assert_eq!(st.retained(0), 2);
    }

    #[test]
    fn equal_clusters_are_shared() {
        let (g, mut st) = setup();
        let t1 = st.try_assign(&vec![vec![7, 9]], &g).expect("first ok");
        // Same cluster again (e.g. chosen by a different node): shared,
        // no double counting. {t8,t10} ⊆ I_σ1 ∩ I_σ3.
        let t2 = st.try_assign(&vec![vec![7, 9]], &g).expect("shared ok");
        assert_eq!(st.retained(0), 2);
        assert_eq!(st.retained(2), 2);
        assert_eq!(st.live_clusters().len(), 1);
        st.unassign(t2, &g);
        // Still owned by the first assignment.
        assert_eq!(st.retained(0), 2);
        assert_eq!(st.live_clusters().len(), 1);
        st.unassign(t1, &g);
        assert!(st.live_clusters().is_empty());
    }

    #[test]
    fn reordered_equal_cluster_is_shared() {
        let (g, mut st) = setup();
        let _t1 = st.try_assign(&vec![vec![7, 9]], &g).expect("first ok");
        // The same row set in another order is the same cluster.
        let t2 = st.try_assign(&vec![vec![9, 7]], &g).expect("shared ok");
        assert_eq!((st.retained(0), st.retained(1), st.retained(2)), (2, 0, 2));
        assert_eq!(st.live_clusters(), vec![vec![7, 9]]);
        st.unassign(t2, &g);
        assert_eq!((st.retained(0), st.retained(1), st.retained(2)), (2, 0, 2));
        assert_eq!(st.live_clusters(), vec![vec![7, 9]]);
        st.validate(&g).unwrap();
    }

    #[test]
    fn live_clusters_publish_rows_ascending() {
        let (g, mut st) = setup();
        // Committed out of row order, as a window slice can be.
        let _t = st.try_assign(&vec![vec![9, 7]], &g).expect("consistent");
        assert_eq!((st.retained(0), st.retained(2)), (2, 2));
        assert_eq!(st.live_clusters(), vec![vec![7, 9]]);
        st.validate(&g).unwrap();
    }

    #[test]
    fn upper_bound_violation_rejected() {
        let (g, mut st) = setup();
        // σ3 = CTY[Vancouver] upper 4. Assign {t6,t7} (rows 5,6) and
        // {t8,t10} (rows 7,9): retained = 4 = upper, fine.
        st.try_assign(&vec![vec![5, 6]], &g).expect("ok");
        st.try_assign(&vec![vec![7, 9]], &g).expect("ok");
        assert_eq!(st.retained(2), 4);
        // Nothing remains of I_σ3; any further Vancouver cluster would
        // overlap. But test the count guard directly with σ1: upper 5,
        // retained(0) currently counts {t8,t10} = 2; adding {t9,…}
        // can't exceed. Instead rebuild a state with a tight upper.
        let r = paper_table1();
        let set = ConstraintSet::bind(&[Constraint::single("GEN", "Female", 1, 3)], &r).unwrap();
        let g2 = ConstraintGraph::build(&set);
        let mut st2 = SearchState::new(vec![3], vec![5], g2.n_rows());
        // Four Female rows 0,1,7,8 in one clustering → 4 > 3 rejected.
        assert!(st2.try_assign(&vec![vec![0, 1], vec![7, 8]], &g2).is_none());
        // Two is fine.
        assert!(st2.try_assign(&vec![vec![0, 1]], &g2).is_some());
    }

    #[test]
    fn cluster_available_prefilter() {
        let (g, mut st) = setup();
        assert!(st.cluster_available(&[7, 9]));
        let _t = st.try_assign(&vec![vec![7, 9]], &g).unwrap();
        assert!(!st.cluster_available(&[8, 9]));
        assert!(st.cluster_available(&[7, 9])); // identical = shared
        assert!(st.cluster_available(&[9, 7])); // in any row order
        assert!(!st.cluster_available(&[7])); // a strict subset is not shared
        assert!(!st.cluster_available(&[7, 9, 8])); // nor a superset
        assert!(st.cluster_available(&[4, 5]));
    }

    #[test]
    fn cluster_spanning_two_targets_counts_for_both() {
        let (g, mut st) = setup();
        // {t8,t10} (rows 7,9) ⊆ I_σ1 and ⊆ I_σ3.
        let _t = st.try_assign(&vec![vec![7, 9]], &g).unwrap();
        assert_eq!(st.retained(0), 2);
        assert_eq!(st.retained(2), 2);
        assert_eq!(st.retained(1), 0);
    }

    #[test]
    fn canonical_cluster_order_is_chronology_independent() {
        let (g, mut st) = setup();
        let _t1 = st.try_assign(&vec![vec![7, 9]], &g).unwrap();
        let _t2 = st.try_assign(&vec![vec![4, 5]], &g).unwrap();
        let (g2, mut st2) = setup();
        let _t1 = st2.try_assign(&vec![vec![4, 5]], &g2).unwrap();
        let _t2 = st2.try_assign(&vec![vec![7, 9]], &g2).unwrap();
        assert_eq!(st.live_clusters(), st2.live_clusters());
        assert_eq!(st.live_clusters(), vec![vec![4, 5], vec![7, 9]]);
    }

    #[test]
    fn validate_accepts_consistent_states() {
        let (g, mut st) = setup();
        st.validate(&g).unwrap();
        let t1 = st.try_assign(&vec![vec![7, 9]], &g).unwrap();
        st.validate(&g).unwrap();
        let t2 = st.try_assign(&vec![vec![5, 6]], &g).unwrap();
        st.validate(&g).unwrap();
        // A new cluster and a shared one in one clustering.
        let t3 = st.try_assign(&vec![vec![0, 1], vec![7, 9]], &g).unwrap();
        st.validate(&g).unwrap();
        st.unassign(t3, &g);
        st.validate(&g).unwrap();
        st.unassign(t2, &g);
        st.validate(&g).unwrap();
        st.unassign(t1, &g);
        st.validate(&g).unwrap();
    }

    #[test]
    fn validate_reports_stale_row_owner() {
        // Corruption injection: point a free row at a dead cluster id.
        let (g, mut st) = setup();
        let _t = st.try_assign(&vec![vec![7, 9]], &g).unwrap();
        st.row_owner[3] = 999;
        let err = st.validate(&g).unwrap_err();
        assert!(err.contains("dead cluster"), "{err}");
    }

    #[test]
    fn validate_reports_owner_registry_mismatch() {
        // Corruption injection: re-point an owned row at the wrong
        // (live) cluster.
        let (g, mut st) = setup();
        let _t1 = st.try_assign(&vec![vec![7, 9]], &g).unwrap();
        let _t2 = st.try_assign(&vec![vec![5, 6]], &g).unwrap();
        let owner_of_5 = st.row_owner[5];
        st.row_owner[7] = owner_of_5; // cluster {5,6} does not list 7
        let err = st.validate(&g).unwrap_err();
        assert!(err.contains("does not list it") || err.contains("owner map disagrees"), "{err}");
    }

    #[test]
    fn validate_reports_desynced_retained_counter() {
        let (g, mut st) = setup();
        let _t = st.try_assign(&vec![vec![7, 9]], &g).unwrap();
        st.retained[0] += 1;
        let err = st.validate(&g).unwrap_err();
        assert!(err.contains("retained counter"), "{err}");
    }

    #[test]
    fn validate_reports_dirty_epoch_scratch() {
        let (g, mut st) = setup();
        st.delta[1] = 7;
        st.delta_touched.push(1);
        let err = st.validate(&g).unwrap_err();
        assert!(err.contains("delta scratch"), "{err}");
    }

    #[test]
    fn validate_reports_a_stray_incref_step() {
        // Corruption injection: an `Incref` step whose refcount bump
        // never happened.
        let (g, mut st) = setup();
        let _t = st.try_assign(&vec![vec![7, 9]], &g).unwrap();
        st.log.push(Step::Incref(0));
        let err = st.validate(&g).unwrap_err();
        assert!(err.contains("refcount 1 but 1 Incref steps"), "{err}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reverse order")]
    fn undoing_an_older_token_first_is_caught() {
        let (g, mut st) = setup();
        let t1 = st.try_assign(&vec![vec![7, 9]], &g).unwrap();
        let _t2 = st.try_assign(&vec![vec![5, 6]], &g).unwrap();
        st.unassign(t1, &g);
    }

    #[test]
    fn duplicate_rows_within_clustering_rejected() {
        let (g, mut st) = setup();
        // Two new clusters of one clustering claiming the same row must
        // be caught by the epoch-stamped pending marks.
        assert!(st.try_assign(&vec![vec![7, 8], vec![8, 9]], &g).is_none());
        assert_eq!(st.retained(0), 0);
        assert!((0..g.n_rows()).all(|r| st.row_is_free(r)));
    }
}
