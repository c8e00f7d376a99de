//! The constraint graph (§3.3): one node per diversity constraint, an
//! edge where target-tuple sets overlap.
#![deny(clippy::disallowed_types)]

use diva_constraints::ConstraintSet;
use diva_relation::{RowId, RowSet};

/// The undirected constraint graph `G = (Γ, E)` built by `BuildGraph`.
///
/// Node `i` corresponds to constraint `Σ[i]`. An edge `{i, j}` exists
/// iff `I_σi ∩ I_σj ≠ ∅` — those constraints can compete for tuples
/// and must be checked against each other during colouring.
///
/// Target sets are stored as [`RowSet`] bitsets (row ids are dense
/// relation indices), so membership is one shift-and-mask and the
/// search's cluster-validity probes touch no hash tables. The
/// row → nodes inverted index is a CSR layout (`row_offsets` +
/// `row_nodes`), and edges are derived from it: two nodes are adjacent
/// iff some row lists both, so one pass over the per-row node lists
/// finds exactly the overlapping pairs instead of testing all
/// `O(|Σ|²)` pairs of target sets.
#[derive(Debug)]
pub struct ConstraintGraph {
    adj: Vec<Vec<usize>>,
    target_sets: Vec<RowSet>,
    /// CSR offsets into `row_nodes`: the nodes whose targets contain
    /// row `r` are `row_nodes[row_offsets[r]..row_offsets[r + 1]]`,
    /// ascending.
    row_offsets: Vec<u32>,
    row_nodes: Vec<u32>,
    /// One past the largest row id appearing in any target set.
    n_rows: usize,
}

impl ConstraintGraph {
    /// Builds the graph for a bound constraint set.
    pub fn build(set: &ConstraintSet) -> Self {
        let n = set.len();
        let n_rows =
            set.constraints().iter().flat_map(|c| c.target_rows.iter()).max().map_or(0, |&m| m + 1);
        let target_sets: Vec<RowSet> = set
            .constraints()
            .iter()
            .map(|c| RowSet::from_rows(n_rows, c.target_rows.iter().copied()))
            .collect();

        // CSR inverted index row → nodes. Constraints are visited in
        // node order, so each row's node list comes out ascending.
        let mut row_offsets = vec![0u32; n_rows + 1];
        for c in set.constraints() {
            for &r in &c.target_rows {
                row_offsets[r + 1] += 1;
            }
        }
        for i in 1..row_offsets.len() {
            row_offsets[i] += row_offsets[i - 1];
        }
        let mut row_nodes = vec![0u32; *row_offsets.last().unwrap_or(&0) as usize];
        let mut cursor = row_offsets.clone();
        for (i, c) in set.constraints().iter().enumerate() {
            for &r in &c.target_rows {
                row_nodes[cursor[r] as usize] = i as u32;
                cursor[r] += 1;
            }
        }

        // Edges from the inverted index: every pair of nodes sharing a
        // row is adjacent. A per-node neighbour bitset dedups pairs
        // that share many rows.
        let mut adj_bits: Vec<RowSet> = (0..n).map(|_| RowSet::new(n)).collect();
        for r in 0..n_rows {
            let nodes = &row_nodes[row_offsets[r] as usize..row_offsets[r + 1] as usize];
            for (x, &a) in nodes.iter().enumerate() {
                for &b in &nodes[x + 1..] {
                    adj_bits[a as usize].insert(b as usize);
                    adj_bits[b as usize].insert(a as usize);
                }
            }
        }
        let adj: Vec<Vec<usize>> = adj_bits.iter().map(|b| b.iter().collect()).collect();
        Self { adj, target_sets, row_offsets, row_nodes, n_rows }
    }

    /// The nodes whose target sets contain `row`.
    pub fn nodes_of(&self, row: RowId) -> &[u32] {
        if row >= self.n_rows {
            return &[];
        }
        &self.row_nodes[self.row_offsets[row] as usize..self.row_offsets[row + 1] as usize]
    }

    /// One past the largest row id appearing in any target set — the
    /// capacity dense row-indexed state must allocate.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The target-tuple bitset of node `i` (`I_σi`).
    pub fn target_set(&self, i: usize) -> &RowSet {
        &self.target_sets[i]
    }

    /// Target-set size of node `i` (`|I_σi|`).
    pub fn target_size(&self, i: usize) -> usize {
        self.target_sets[i].len()
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Neighbours of node `i`.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adj[i]
    }

    /// Whether every row of `cluster` is a target tuple of constraint
    /// `i` — i.e. whether the cluster, once suppressed, retains `i`'s
    /// target value and contributes `|cluster|` occurrences to it.
    pub fn cluster_contributes(&self, i: usize, cluster: &[RowId]) -> bool {
        self.target_sets[i].contains_all(cluster)
    }

    /// The constraints `cluster` contributes to, ascending: the nodes
    /// whose target set holds every row of it (see
    /// [`ConstraintGraph::cluster_contributes`]). Each of them lists
    /// the cluster's first row, so only that row's nodes are probed.
    /// An empty cluster has none.
    pub fn owners<'a>(&'a self, cluster: &'a [RowId]) -> impl Iterator<Item = u32> + 'a {
        let candidates = cluster.first().map_or(&[][..], |&r| self.nodes_of(r));
        candidates.iter().copied().filter(|&i| self.cluster_contributes(i as usize, cluster))
    }

    /// Number of undirected edges `|E|`.
    pub fn n_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Connected-component structure of the graph: per-node component
    /// labels plus the component count. Components are numbered by
    /// first appearance in node order (node 0 always lives in
    /// component 0), so every caller sees the same stable component
    /// order. Discovered by a union-find pass over the CSR inverted
    /// index — all nodes listed for a row pairwise share that row,
    /// hence are adjacent — which costs O(|CSR| α) instead of
    /// touching the materialized edge lists.
    pub fn component_labels(&self) -> (Vec<u32>, usize) {
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            // Path halving: point every other node at its grandparent.
            while parent[x as usize] != x {
                let gp = parent[parent[x as usize] as usize];
                parent[x as usize] = gp;
                x = gp;
            }
            x
        }
        let n = self.n_nodes();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        for r in 0..self.n_rows {
            let nodes =
                &self.row_nodes[self.row_offsets[r] as usize..self.row_offsets[r + 1] as usize];
            if let Some((&first, rest)) = nodes.split_first() {
                let mut a = find(&mut parent, first);
                for &b in rest {
                    let rb = find(&mut parent, b);
                    if rb == a {
                        continue;
                    }
                    // Always keep the smaller id as the root so the
                    // final labelling is independent of merge order.
                    if rb < a {
                        parent[a as usize] = rb;
                        a = rb;
                    } else {
                        parent[rb as usize] = a;
                    }
                }
            }
        }
        let mut labels = vec![0u32; n];
        let mut dense = vec![u32::MAX; n];
        let mut count = 0u32;
        for i in 0..n as u32 {
            let root = find(&mut parent, i) as usize;
            if dense[root] == u32::MAX {
                dense[root] = count;
                count += 1;
            }
            labels[i as usize] = dense[root];
        }
        (labels, count as usize)
    }

    /// Publishes the CSR build stats (node/edge counts, inverted-index
    /// size, row capacity, the target-set size distribution, and the
    /// connected-component count/size distribution) to `obs`. Called
    /// once per pipeline run right after `BuildGraph`.
    pub fn record_to(&self, obs: &diva_obs::Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.gauge("graph.nodes").set(self.n_nodes() as i64);
        obs.gauge("graph.edges").set(self.n_edges() as i64);
        obs.gauge("graph.csr_entries").set(self.row_nodes.len() as i64);
        obs.gauge("graph.rows").set(self.n_rows as i64);
        let sizes = obs.histogram("graph.target_set_size");
        for s in &self.target_sets {
            sizes.record_len(s.len());
        }
        let (labels, n_components) = self.component_labels();
        obs.gauge("graph.components").set(n_components as i64);
        let mut component_sizes = vec![0usize; n_components];
        for &l in &labels {
            component_sizes[l as usize] += 1;
        }
        let comp_hist = obs.histogram("graph.component_size");
        for s in component_sizes {
            comp_hist.record_len(s);
        }
    }

    /// Checks the cross-structure invariants of the CSR layout, the
    /// target bitsets, and the adjacency lists. O(|CSR| + |E| + n·|R|);
    /// called by the debug-build pipeline gate after `BuildGraph` and
    /// by the property suites.
    pub fn validate(&self) -> Result<(), String> {
        // CSR offsets: right length, monotone, in bounds.
        if self.row_offsets.len() != self.n_rows + 1 {
            return Err(format!(
                "ConstraintGraph: {} CSR offsets for {} rows (expected {})",
                self.row_offsets.len(),
                self.n_rows,
                self.n_rows + 1
            ));
        }
        if let Some(w) = self.row_offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("ConstraintGraph: CSR offsets not monotone at row {w}"));
        }
        if self.row_offsets.last().copied().unwrap_or(0) as usize != self.row_nodes.len() {
            return Err(format!(
                "ConstraintGraph: final CSR offset {} != row_nodes length {}",
                self.row_offsets.last().copied().unwrap_or(0),
                self.row_nodes.len()
            ));
        }
        let n = self.n_nodes();
        for r in 0..self.n_rows {
            let nodes = self.nodes_of(r);
            if let Some(&bad) = nodes.iter().find(|&&v| v as usize >= n) {
                return Err(format!("ConstraintGraph: row {r} lists node {bad} >= n_nodes {n}"));
            }
            if nodes.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("ConstraintGraph: row {r}'s node list is not ascending"));
            }
        }
        // Target bitsets: well formed, within the row capacity, and
        // consistent with the inverted index.
        if self.target_sets.len() != n {
            return Err(format!(
                "ConstraintGraph: {} target sets for {} nodes",
                self.target_sets.len(),
                n
            ));
        }
        for (i, set) in self.target_sets.iter().enumerate() {
            set.validate().map_err(|e| format!("ConstraintGraph: node {i} target set: {e}"))?;
            if set.capacity() != self.n_rows {
                return Err(format!(
                    "ConstraintGraph: node {i} target capacity {} != n_rows {}",
                    set.capacity(),
                    self.n_rows
                ));
            }
            for r in set.iter() {
                if !self.nodes_of(r).contains(&(i as u32)) {
                    return Err(format!(
                        "ConstraintGraph: node {i} targets row {r} but the CSR index omits it"
                    ));
                }
            }
        }
        // Adjacency: symmetric, and an edge iff the targets intersect.
        for i in 0..n {
            for &j in &self.adj[i] {
                if j >= n {
                    return Err(format!("ConstraintGraph: node {i} adjacent to {j} >= {n}"));
                }
                if !self.adj[j].contains(&i) {
                    return Err(format!("ConstraintGraph: edge {{{i},{j}}} is not symmetric"));
                }
            }
            for j in (i + 1)..n {
                let edge = self.adj[i].contains(&j);
                let overlap = self.target_sets[i].intersects(&self.target_sets[j]);
                if edge != overlap {
                    return Err(format!(
                        "ConstraintGraph: edge {{{i},{j}}} is {edge} but target overlap is \
                         {overlap}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_constraints::{Constraint, ConstraintSet};
    use diva_relation::fixtures::paper_table1;

    fn example_graph() -> ConstraintGraph {
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
        ConstraintGraph::build(&set)
    }

    #[test]
    fn paper_figure2_edges() {
        // Figure 2: edges {v1,v3} and {v2,v3}; no edge {v1,v2}.
        let g = example_graph();
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.neighbors(0), &[2]);
        assert_eq!(g.neighbors(1), &[2]);
        let mut n2 = g.neighbors(2).to_vec();
        n2.sort_unstable();
        assert_eq!(n2, vec![0, 1]);
    }

    #[test]
    fn target_membership() {
        let g = example_graph();
        // I_σ1 = {t8,t9,t10} = rows 7,8,9.
        assert!(g.target_set(0).contains(7));
        assert!(!g.target_set(0).contains(5));
        // Cluster {t8,t10} (rows 7,9) is inside both σ1 and σ3 targets.
        assert!(g.cluster_contributes(0, &[7, 9]));
        assert!(g.cluster_contributes(2, &[7, 9]));
        // Cluster {t9,t10} (rows 8,9) contributes to σ1 but not σ3
        // (t9 = row 8 is Winnipeg).
        assert!(g.cluster_contributes(0, &[8, 9]));
        assert!(!g.cluster_contributes(2, &[8, 9]));
        assert_eq!(g.owners(&[7, 9]).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(g.owners(&[8, 9]).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn inverted_index_matches_target_sets() {
        let g = example_graph();
        for row in 0..g.n_rows() {
            let via_index: Vec<usize> = g.nodes_of(row).iter().map(|&n| n as usize).collect();
            let via_sets: Vec<usize> =
                (0..g.n_nodes()).filter(|&i| g.target_set(i).contains(row)).collect();
            assert_eq!(via_index, via_sets, "row {row}");
        }
        // Rows beyond every target set have no nodes.
        assert!(g.nodes_of(g.n_rows() + 5).is_empty());
    }

    #[test]
    fn empty_set_graph() {
        let r = paper_table1();
        let set = ConstraintSet::bind(&[], &r).unwrap();
        let g = ConstraintGraph::build(&set);
        assert_eq!(g.n_nodes(), 0);
        assert_eq!(g.n_rows(), 0);
    }

    #[test]
    fn empty_cluster_contributes_vacuously() {
        let g = example_graph();
        assert!(g.cluster_contributes(0, &[]));
        assert_eq!(g.owners(&[]).count(), 0);
    }

    #[test]
    fn validate_accepts_built_graphs() {
        example_graph().validate().unwrap();
        let r = paper_table1();
        let set = ConstraintSet::bind(&[], &r).unwrap();
        ConstraintGraph::build(&set).validate().unwrap();
    }

    fn two_component_graph() -> ConstraintGraph {
        // Asian targets rows {7,8,9}; African targets {4,5} — disjoint.
        let r = paper_table1();
        let set = ConstraintSet::bind(
            &[Constraint::single("ETH", "Asian", 2, 5), Constraint::single("ETH", "African", 1, 3)],
            &r,
        )
        .unwrap();
        ConstraintGraph::build(&set)
    }

    #[test]
    fn component_labels_split_disjoint_constraints() {
        let (labels, n) = two_component_graph().component_labels();
        assert_eq!(n, 2);
        assert_eq!(labels, vec![0, 1]);
        // The Figure-2 graph is connected: one component.
        let (labels, n) = example_graph().component_labels();
        assert_eq!(n, 1);
        assert_eq!(labels, vec![0, 0, 0]);
        // The empty graph has no components.
        let r = paper_table1();
        let set = ConstraintSet::bind(&[], &r).unwrap();
        let (labels, n) = ConstraintGraph::build(&set).component_labels();
        assert_eq!(n, 0);
        assert!(labels.is_empty());
    }

    #[test]
    fn validate_reports_mis_remapped_row_id() {
        // Corruption injection: node 0 (Asian, rows {7,8,9}) trades
        // row 8 for row 5, a row the CSR index never listed for it.
        let mut g = example_graph();
        g.target_sets[0].remove(8);
        g.target_sets[0].insert(5);
        let err = g.validate().unwrap_err();
        assert!(err.contains("CSR index omits it"), "{err}");
    }

    #[test]
    fn validate_reports_broken_csr_monotonicity() {
        // Corruption injection: make an offset pair decrease.
        let mut g = example_graph();
        let mid = g.row_offsets.len() / 2;
        g.row_offsets[mid] = g.row_offsets[mid - 1].wrapping_add(1000);
        let err = g.validate().unwrap_err();
        assert!(err.contains("monotone") || err.contains("final CSR offset"), "{err}");
    }

    #[test]
    fn validate_reports_asymmetric_edge() {
        // Corruption injection: drop one direction of an edge.
        let mut g = example_graph();
        g.adj[2].retain(|&j| j != 0); // keep 0 → 2 but not 2 → 0
        let err = g.validate().unwrap_err();
        assert!(err.contains("symmetric"), "{err}");
    }

    #[test]
    fn validate_reports_phantom_edge() {
        // Corruption injection: an edge with no target overlap.
        let mut g = example_graph();
        g.adj[0].push(1);
        g.adj[1].push(0);
        let err = g.validate().unwrap_err();
        assert!(err.contains("target overlap"), "{err}");
    }

    #[test]
    fn validate_reports_target_past_capacity() {
        // Corruption injection: shrink the declared row span so an
        // existing target set exceeds it.
        let mut g = example_graph();
        g.n_rows -= 1;
        g.row_offsets.pop();
        let err = g.validate().unwrap_err();
        assert!(err.contains("capacity") || err.contains("CSR"), "{err}");
    }
}
