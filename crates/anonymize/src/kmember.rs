//! The k-member greedy clustering algorithm (Byun et al., DASFAA 2007).
//!
//! The paper's DIVA uses k-member for its `Anonymize` step and as a
//! comparative baseline. The algorithm builds clusters one at a time:
//! it seeds each cluster with the record *furthest* from the previous
//! seed, then greedily grows the cluster to `k` members, at each step
//! adding the record whose inclusion minimizes the increase in
//! information loss. Records left over (fewer than `k`) are absorbed
//! into the clusters whose loss they increase least.

use diva_relation::{Relation, RowId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::common::{Anonymizer, ClusterState, QiMatrix};

/// k-member configuration.
///
/// ```
/// use diva_anonymize::{Anonymizer, KMember};
/// use diva_relation::fixtures::paper_table1;
///
/// let r = paper_table1();
/// let out = KMember::exact(1).anonymize(&r, 3);
/// assert!(diva_relation::is_k_anonymous(&out.relation, 3));
/// ```
///
/// Exact k-member is `O(n²)`; at the paper's largest instance
/// (|R| = 300k) that is intractable even in native code within a
/// benchmarking session, so `candidate_cap` bounds the number of
/// records examined by each furthest-point / best-fit scan. Scans over
/// at most `candidate_cap` records drawn from a seeded random
/// permutation preserve the greedy structure (documented substitution,
/// `DESIGN.md` §2.5); set it to `None` for the exact algorithm.
#[derive(Debug, Clone)]
pub struct KMember {
    /// RNG seed for the initial record choice and candidate sampling.
    pub seed: u64,
    /// Upper bound on candidates per greedy scan (`None` = exact).
    pub candidate_cap: Option<usize>,
}

impl Default for KMember {
    fn default() -> Self {
        Self { seed: 0x5eed, candidate_cap: Some(2048) }
    }
}

impl KMember {
    /// Exact k-member (no candidate sampling).
    pub fn exact(seed: u64) -> Self {
        Self { seed, candidate_cap: None }
    }
}

/// Candidates a scan compares at a time: the length of each
/// per-attribute loop of [`Pool::mismatches`].
const BLOCK: usize = 128;

/// The not-yet-clustered local indices, in shuffled order, with O(1)
/// removal by position.
///
/// The pool keeps its own copy of the items' QI codes column by column
/// in pool order, so a scan compares one attribute across a block of
/// candidates in one loop over contiguous memory.
struct Pool {
    items: Vec<usize>,
    /// QI code `j` of `items[p]` at `codes[j * stride + p]`.
    codes: Vec<u32>,
    /// The initial pool length; positions past `len()` are stale.
    stride: usize,
}

impl Pool {
    fn new(m: &QiMatrix, rng: &mut StdRng) -> Self {
        let mut items: Vec<usize> = (0..m.len()).collect();
        items.shuffle(rng);
        let mut codes = Vec::with_capacity(m.len() * m.n_qi());
        for j in 0..m.n_qi() {
            codes.extend(items.iter().map(|&i| m.row(i)[j]));
        }
        Self { stride: items.len(), items, codes }
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    /// Removes and returns the item at position `p`; the last item
    /// takes its place, as in `Vec::swap_remove`.
    fn swap_remove(&mut self, p: usize) -> usize {
        let item = self.items.swap_remove(p);
        let last = self.items.len();
        for column in self.codes.chunks_exact_mut(self.stride) {
            column[p] = column[last];
        }
        item
    }

    /// The number of candidates a scan examines: the whole pool, or
    /// its first `cap` positions. Items are in shuffled order, and
    /// `swap_remove` keeps the order unbiased, so a prefix is a uniform
    /// sample.
    fn scan_len(&self, cap: Option<usize>) -> usize {
        cap.map_or(self.len(), |c| c.min(self.len()))
    }

    /// Fills `counts[i]` with the number of `(attribute, code)` pairs
    /// of `probe` on which position `start + i` differs, one loop over
    /// the block per attribute.
    fn mismatches(
        &self,
        start: usize,
        probe: impl Iterator<Item = (usize, u32)>,
        counts: &mut [u32],
    ) {
        counts.fill(0);
        for (j, code) in probe {
            let column = &self.codes[j * self.stride + start..][..counts.len()];
            for (n, &c) in counts.iter_mut().zip(column) {
                *n += u32::from(c != code);
            }
        }
    }

    /// The position in the scanned prefix furthest from the QI codes
    /// `from`, taking the last of equals as `max_by_key` does. Blocks
    /// are walked from the end, and a block holding the largest
    /// distance there is, `from.len()`, ends the scan.
    fn furthest(&self, cap: Option<usize>, from: &[u32]) -> Option<usize> {
        let len = self.scan_len(cap);
        let mut counts = [0; BLOCK];
        let mut best: Option<(usize, u32)> = None;
        for start in (0..len).step_by(BLOCK).rev() {
            let block = &mut counts[..BLOCK.min(len - start)];
            self.mismatches(start, from.iter().copied().enumerate(), block);
            let d = *block.iter().max()?;
            if best.is_none_or(|(_, b)| d > b) {
                best = Some((start + block.iter().rposition(|&x| x == d)?, d));
            }
            if d as usize == from.len() {
                break;
            }
        }
        best.map(|(p, _)| p)
    }

    /// The first position in the scanned prefix at the least
    /// [`ClusterState::distance`] from `c`, as `min_by_key` picks it.
    /// Only the cluster's uniform attributes are compared, since a lost
    /// one matches every record, and a block holding a record at
    /// distance 0 ends the scan.
    fn nearest(&self, cap: Option<usize>, c: &ClusterState) -> Option<usize> {
        let len = self.scan_len(cap);
        let mut counts = [0; BLOCK];
        let mut best: Option<(usize, u32)> = None;
        for start in (0..len).step_by(BLOCK) {
            let block = &mut counts[..BLOCK.min(len - start)];
            self.mismatches(start, c.uniform_codes(), block);
            let d = *block.iter().min()?;
            if best.is_none_or(|(_, b)| d < b) {
                best = Some((start + block.iter().position(|&x| x == d)?, d));
            }
            if d == 0 {
                break;
            }
        }
        best.map(|(p, _)| p)
    }
}

impl Anonymizer for KMember {
    fn name(&self) -> &'static str {
        "k-member"
    }

    fn cluster(&self, rel: &Relation, rows: &[RowId], k: usize) -> Vec<Vec<RowId>> {
        // The probe never fires, so the interruptible path cannot
        // return `None`; the fallback keeps this panic-free.
        self.cluster_interruptible(rel, rows, k, &|| false).unwrap_or_default()
    }

    fn cluster_interruptible(
        &self,
        rel: &Relation,
        rows: &[RowId],
        k: usize,
        stop: &(dyn Fn() -> bool + Sync),
    ) -> Option<Vec<Vec<RowId>>> {
        assert!(k > 0, "k must be positive");
        if rows.is_empty() {
            return Some(Vec::new());
        }
        let m = QiMatrix::new(rel, rows);
        let n = m.len();
        if n < k {
            return Some(m.to_relation_clusters(&[(0..n).collect()]));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut pool = Pool::new(&m, &mut rng);
        let mut clusters: Vec<ClusterState> = Vec::with_capacity(n / k + 1);

        let mut prev_seed = pool.items[rng.gen_range(0..pool.len())];
        while pool.len() >= k {
            // Growing one cluster costs at most O(candidate_cap × k)
            // distance evaluations; polling the probe here bounds the
            // stop latency to a single cluster's growth.
            if stop() {
                return None;
            }
            // Seed: record furthest from the previous seed.
            let Some(p) = pool.furthest(self.candidate_cap, m.row(prev_seed)) else {
                break;
            };
            let seed = pool.swap_remove(p);
            prev_seed = seed;
            let mut c = ClusterState::singleton(&m, seed);
            while c.len() < k {
                // Greedy: record with minimal information-loss increase.
                // `il_increase = lost + (|C|+1)·distance` is strictly
                // increasing in the distance, so both keys pick the same
                // record.
                let Some(p) = pool.nearest(self.candidate_cap, &c) else {
                    break;
                };
                c.push(&m, pool.swap_remove(p));
            }
            clusters.push(c);
        }
        // Absorb the leftovers into their cheapest clusters.
        for i in pool.items {
            if let Some(c) = clusters.iter_mut().min_by_key(|c| c.il_increase(&m, i)) {
                c.push(&m, i);
            }
        }
        let local: Vec<Vec<usize>> = clusters.into_iter().map(ClusterState::into_members).collect();
        Some(m.to_relation_clusters(&local))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::assert_valid_clustering;
    use diva_relation::fixtures::paper_table1;
    use diva_relation::{is_k_anonymous, suppress::suppress_clustering};

    #[test]
    fn clusters_partition_and_respect_k() {
        let r = paper_table1();
        let rows: Vec<usize> = (0..r.n_rows()).collect();
        for k in [2, 3, 5] {
            let clusters = KMember::exact(1).cluster(&r, &rows, k);
            assert_valid_clustering(&clusters, &rows, k);
        }
    }

    #[test]
    fn output_is_k_anonymous() {
        let r = diva_datagen::medical(500, 7);
        for k in [3, 10] {
            let s = KMember::default().anonymize(&r, k);
            assert!(is_k_anonymous(&s.relation, k), "k = {k}");
            assert_eq!(s.relation.n_rows(), 500);
        }
    }

    #[test]
    fn fewer_rows_than_k_yields_single_cluster() {
        let r = paper_table1();
        let clusters = KMember::exact(1).cluster(&r, &[0, 1, 2], 5);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 3);
    }

    #[test]
    fn empty_rows_yield_empty_clustering() {
        let r = paper_table1();
        assert!(KMember::default().cluster(&r, &[], 3).is_empty());
    }

    #[test]
    fn subset_clustering_only_uses_given_rows() {
        let r = paper_table1();
        let rows = vec![2, 4, 6, 8];
        let clusters = KMember::exact(3).cluster(&r, &rows, 2);
        assert_valid_clustering(&clusters, &rows, 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let r = diva_datagen::medical(300, 9);
        let rows: Vec<usize> = (0..r.n_rows()).collect();
        let a = KMember { seed: 5, candidate_cap: Some(64) }.cluster(&r, &rows, 5);
        let b = KMember { seed: 5, candidate_cap: Some(64) }.cluster(&r, &rows, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn greedy_beats_random_grouping() {
        // k-member should suppress fewer cells than an arbitrary
        // contiguous chunking of the rows.
        let r = diva_datagen::medical(400, 11);
        let k = 5;
        let s = KMember::default().anonymize(&r, k);
        let chunked: Vec<Vec<usize>> =
            (0..r.n_rows()).collect::<Vec<_>>().chunks(k).map(<[usize]>::to_vec).collect();
        let chunk_out = suppress_clustering(&r, &chunked);
        assert!(
            s.relation.star_count() < chunk_out.relation.star_count(),
            "k-member {} ★ vs chunked {} ★",
            s.relation.star_count(),
            chunk_out.relation.star_count()
        );
    }

    #[test]
    fn capped_is_close_to_exact_on_small_input() {
        let r = diva_datagen::medical(200, 13);
        let exact = KMember::exact(5).anonymize(&r, 4).relation.star_count();
        let capped =
            KMember { seed: 5, candidate_cap: Some(50) }.anonymize(&r, 4).relation.star_count();
        // The sampled variant may lose some quality but not collapse.
        assert!((capped as f64) < 1.6 * exact as f64, "exact {exact}, capped {capped}");
    }

    #[test]
    fn default_output_is_pinned() {
        // Recorded with the `min_by_key` / `max_by_key` scans the early
        // exits replaced; any drift means the clustering changed.
        let r = diva_datagen::medical(4_000, 29);
        let rows: Vec<usize> = (0..r.n_rows()).collect();
        let clusters = KMember::default().cluster(&r, &rows, 5);
        assert_eq!(clusters.len(), 800);
        assert_eq!(suppress_clustering(&r, &clusters).relation.star_count(), 2735);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let r = paper_table1();
        KMember::default().cluster(&r, &[0, 1], 0);
    }
}
