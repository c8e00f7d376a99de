//! Shared infrastructure for the anonymization algorithms.

use diva_relation::suppress::{suppress_clustering, Suppressed};
use diva_relation::{Relation, RowId};

/// A dense row-major copy of selected rows' QI codes.
///
/// All three baselines compare tuples on QI attributes millions of
/// times; copying the QI columns of the working rows into one
/// contiguous row-major matrix keeps those comparisons on sequential
/// cache lines (per the perf-book's data-layout guidance) and detaches
/// the algorithms from the original row numbering.
#[derive(Debug, Clone)]
pub struct QiMatrix {
    codes: Vec<u32>,
    n_qi: usize,
    /// Maps local indices `0..len` back to the relation's row ids.
    rows: Vec<RowId>,
}

impl QiMatrix {
    /// Extracts the QI codes of `rows` from `rel`.
    pub fn new(rel: &Relation, rows: &[RowId]) -> Self {
        let qi_cols = rel.schema().qi_cols();
        let n_qi = qi_cols.len();
        let mut codes = Vec::with_capacity(rows.len() * n_qi);
        for &r in rows {
            for &c in qi_cols {
                codes.push(rel.code(r, c));
            }
        }
        Self { codes, n_qi, rows: rows.to_vec() }
    }

    /// Number of rows in the matrix.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of QI attributes.
    pub fn n_qi(&self) -> usize {
        self.n_qi
    }

    /// The QI code vector of local row `i`.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.codes[i * self.n_qi..(i + 1) * self.n_qi]
    }

    /// The original relation row id of local row `i`.
    pub fn source_row(&self, i: usize) -> RowId {
        self.rows[i]
    }

    /// Categorical distance between two local rows: the number of QI
    /// attributes on which they differ. This is the suppression-model
    /// information loss a 2-cluster of the rows would incur per tuple.
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        hamming(self.row(a), self.row(b))
    }

    /// Translates a clustering over local indices into one over
    /// relation row ids.
    pub fn to_relation_clusters(&self, local: &[Vec<usize>]) -> Vec<Vec<RowId>> {
        local.iter().map(|c| c.iter().map(|&i| self.rows[i]).collect()).collect()
    }
}

/// The number of positions at which two QI code vectors differ.
pub(crate) fn hamming(a: &[u32], b: &[u32]) -> u32 {
    a.iter().zip(b).map(|(x, y)| u32::from(x != y)).sum()
}

/// A cluster summary for greedy algorithms: which QI attributes are
/// still uniform, and the per-tuple information loss so far.
///
/// The fields are private so the cached lost-attribute count cannot
/// drift from the mask: every mutation goes through [`ClusterState::push`]
/// or [`ClusterState::swap_remove`].
#[derive(Debug, Clone)]
pub struct ClusterState {
    /// For each QI attribute: `Some(code)` while the cluster is
    /// uniform on it, `None` once mixed.
    uniform: Vec<Option<u32>>,
    /// Cluster members (local indices).
    members: Vec<usize>,
    /// Number of `None` entries in `uniform`.
    lost: usize,
}

impl ClusterState {
    /// A singleton cluster of local row `i`.
    pub fn singleton(m: &QiMatrix, i: usize) -> Self {
        Self { uniform: m.row(i).iter().map(|&c| Some(c)).collect(), members: vec![i], lost: 0 }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Cluster members (local indices), in insertion order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Consumes the cluster, yielding its members.
    pub fn into_members(self) -> Vec<usize> {
        self.members
    }

    /// Number of QI attributes currently suppressed (non-uniform).
    pub fn lost_attrs(&self) -> usize {
        self.lost
    }

    /// Suppression-model information loss of the cluster: every member
    /// loses each non-uniform attribute, so `IL = |C| · lost_attrs`.
    pub fn info_loss(&self) -> usize {
        self.len() * self.lost
    }

    /// The increase of [`ClusterState::info_loss`] if local row `i`
    /// joined: `(|C|+1)·(lost + newly_lost) − |C|·lost`, where
    /// `newly_lost` is [`ClusterState::distance`].
    pub fn il_increase(&self, m: &QiMatrix, i: usize) -> usize {
        self.lost + (self.len() + 1) * self.distance(m, i) as usize
    }

    /// Distance from the cluster's representative to local row `i`:
    /// attributes already lost count as matched-by-★ (distance 0 under
    /// suppression), mismatching uniform attributes count 1.
    pub fn distance(&self, m: &QiMatrix, i: usize) -> u32 {
        self.distance_to(m.row(i))
    }

    /// [`ClusterState::distance`] to a QI code vector.
    pub(crate) fn distance_to(&self, row: &[u32]) -> u32 {
        self.uniform.iter().zip(row).map(|(u, &c)| u32::from(matches!(u, Some(x) if *x != c))).sum()
    }

    /// Adds local row `i`, updating the uniformity mask.
    pub fn push(&mut self, m: &QiMatrix, i: usize) {
        self.mask(m, i);
        self.members.push(i);
    }

    /// Removes the member at position `pos` (`Vec::swap_remove` order)
    /// and returns it. Removal can restore uniformity, so the mask is
    /// rebuilt from the remaining members.
    pub fn swap_remove(&mut self, m: &QiMatrix, pos: usize) -> usize {
        let removed = self.members.swap_remove(pos);
        if let Some(&first) = self.members.first() {
            for (u, &c) in self.uniform.iter_mut().zip(m.row(first)) {
                *u = Some(c);
            }
            self.lost = 0;
            for j in 1..self.members.len() {
                self.mask(m, self.members[j]);
            }
        }
        removed
    }

    /// Marks every uniform attribute on which local row `i` differs as
    /// lost.
    fn mask(&mut self, m: &QiMatrix, i: usize) {
        for (u, &c) in self.uniform.iter_mut().zip(m.row(i)) {
            if matches!(u, Some(x) if *x != c) {
                *u = None;
                self.lost += 1;
            }
        }
    }
}

/// A `k`-anonymization algorithm operating on a subset of a relation's
/// rows.
pub trait Anonymizer {
    /// Display name used by the experiment harness.
    fn name(&self) -> &'static str;

    /// Partitions `rows` into clusters intended to have ≥ `k` members.
    ///
    /// When `rows.len() < k`, a single cluster containing all the rows
    /// is returned (a caller publishing it must accept the residual
    /// under-size group, and `diva_metrics::discernibility` pricing
    /// penalizes it); when `rows` is empty the clustering is empty.
    fn cluster(&self, rel: &Relation, rows: &[RowId], k: usize) -> Vec<Vec<RowId>>;

    /// [`Anonymizer::cluster`] with an early-stop probe: `None` means
    /// the probe fired and the clustering was abandoned — the caller
    /// is committed to degrading or cancelling, so no partial result
    /// is returned. The default implementation polls once up front and
    /// otherwise runs the plain `cluster`; algorithms whose clustering
    /// loops over many rows (k-member's greedy growth) override it to
    /// poll between steps so a wall-clock budget can reach inside the
    /// anonymize phase. A probe that never fires must leave the result
    /// identical to `cluster`.
    fn cluster_interruptible(
        &self,
        rel: &Relation,
        rows: &[RowId],
        k: usize,
        stop: &(dyn Fn() -> bool + Sync),
    ) -> Option<Vec<Vec<RowId>>> {
        if stop() {
            return None;
        }
        Some(self.cluster(rel, rows, k))
    }

    /// Clusters all rows of `rel` and applies suppression, yielding a
    /// `k`-anonymous relation (Definition 2.2's anonymization process).
    fn anonymize(&self, rel: &Relation, k: usize) -> Suppressed {
        let rows: Vec<RowId> = (0..rel.n_rows()).collect();
        let clusters = self.cluster(rel, &rows, k);
        suppress_clustering(rel, &clusters)
    }
}

/// Runs [`Anonymizer::cluster_interruptible`] under an
/// `anonymize.cluster` obs span and records the resulting group sizes
/// in the `anonymize.group_size` histogram — the one instrumentation
/// point shared by all baselines (the span's `algorithm` attribute
/// tells them apart). A `stopped` span attribute marks a clustering
/// the probe abandoned; otherwise behaviour is identical to calling
/// `cluster` directly.
pub fn cluster_observed_interruptible(
    algo: &dyn Anonymizer,
    rel: &Relation,
    rows: &[RowId],
    k: usize,
    obs: &diva_obs::Obs,
    stop: &(dyn Fn() -> bool + Sync),
) -> Option<Vec<Vec<RowId>>> {
    let mut span = obs
        .span("anonymize.cluster")
        .attr("algorithm", algo.name())
        .attr("rows", rows.len())
        .attr("k", k);
    let Some(clusters) = algo.cluster_interruptible(rel, rows, k, stop) else {
        span.set_attr("stopped", true);
        span.end();
        return None;
    };
    span.set_attr("groups", clusters.len());
    span.end();
    let sizes = obs.histogram("anonymize.group_size");
    for c in &clusters {
        sizes.record_len(c.len());
    }
    Some(clusters)
}

/// Validates a clustering: covers every requested row exactly once and
/// (unless the input was smaller than `k`) every cluster has ≥ `k`
/// members. Shared by the baselines' tests and DIVA's integration
/// tests.
pub fn assert_valid_clustering(clusters: &[Vec<RowId>], rows: &[RowId], k: usize) {
    use std::collections::HashSet;
    let mut seen = HashSet::new();
    for c in clusters {
        if rows.len() >= k {
            assert!(c.len() >= k, "cluster of size {} < k = {k}", c.len());
        }
        for &r in c {
            assert!(seen.insert(r), "row {r} appears in two clusters");
        }
    }
    let expect: HashSet<_> = rows.iter().copied().collect();
    assert_eq!(seen, expect, "clustering does not cover the requested rows");
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_relation::fixtures::paper_table1;

    #[test]
    fn qi_matrix_extracts_codes() {
        let r = paper_table1();
        let m = QiMatrix::new(&r, &[0, 7]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.n_qi(), 5);
        assert_eq!(m.source_row(1), 7);
        // t1 vs t8: GEN same (Female), ETH/AGE/PRV/CTY differ → 4.
        assert_eq!(m.distance(0, 1), 4);
        assert_eq!(m.distance(0, 0), 0);
    }

    #[test]
    fn cluster_state_tracks_uniformity() {
        let r = paper_table1();
        let m = QiMatrix::new(&r, &[7, 8, 9]); // the three Asian women
        let mut c = ClusterState::singleton(&m, 0);
        assert_eq!(c.info_loss(), 0);
        // Adding t9: differs on AGE, PRV, CTY → 3 newly lost, 2 members.
        assert_eq!(c.il_increase(&m, 1), 2 * 3);
        c.push(&m, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lost_attrs(), 3);
        assert_eq!(c.info_loss(), 6);
        // t10 differs from the remaining uniform attrs (GEN, ETH)? No —
        // also Female Asian, and AGE/PRV/CTY already lost → distance 0.
        assert_eq!(c.distance(&m, 2), 0);
        assert_eq!(c.il_increase(&m, 2), 3); // one more member × 3 lost
        c.push(&m, 2);
        assert_eq!(c.info_loss(), 9);
    }

    #[test]
    fn swap_remove_restores_uniformity() {
        let r = paper_table1();
        let m = QiMatrix::new(&r, &[7, 8, 0]); // two Asian women, then t1
        let mut c = ClusterState::singleton(&m, 0);
        c.push(&m, 1);
        c.push(&m, 2);
        assert_eq!(c.lost_attrs(), 4, "t1 mixes ETH on top of AGE/PRV/CTY");
        assert_eq!(c.swap_remove(&m, 2), 2);
        assert_eq!(c.members(), [0, 1]);
        assert_eq!(c.lost_attrs(), 3, "dropping t1 makes ETH uniform again");
        assert_eq!(c.info_loss(), 6);
        // Re-adding t1: 3 lost + 3 members × 1 newly lost (ETH).
        assert_eq!(c.il_increase(&m, 2), 6);
    }

    #[test]
    fn to_relation_clusters_translates() {
        let r = paper_table1();
        let m = QiMatrix::new(&r, &[4, 5, 6]);
        let rc = m.to_relation_clusters(&[vec![0, 2], vec![1]]);
        assert_eq!(rc, vec![vec![4, 6], vec![5]]);
    }

    #[test]
    #[should_panic(expected = "appears in two clusters")]
    fn validator_rejects_overlap() {
        assert_valid_clustering(&[vec![0, 1], vec![1, 2]], &[0, 1, 2], 2);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn validator_rejects_missing_rows() {
        assert_valid_clustering(&[vec![0, 1]], &[0, 1, 2], 2);
    }

    #[test]
    fn validator_accepts_partition() {
        assert_valid_clustering(&[vec![0, 2], vec![1, 3]], &[0, 1, 2, 3], 2);
    }
}
