//! The k-member greedy clustering algorithm (Byun et al., DASFAA 2007).
//!
//! The paper's DIVA uses k-member for its `Anonymize` step and as a
//! comparative baseline. The algorithm builds clusters one at a time:
//! it seeds each cluster with the record *furthest* from the previous
//! seed, then greedily grows the cluster to `k` members, at each step
//! adding the record whose inclusion minimizes the increase in
//! information loss. Records left over (fewer than `k`) are absorbed
//! into the clusters whose loss they increase least.
//!
//! Both scans compare a probe's QI codes against blocks of candidates
//! held column-major, in the narrowest lane the rows allow: bytes
//! when every code fits below 255 and there are at most 255 QI
//! attributes, `u32` otherwise. Each block's pick is one reduction over
//! packed `mismatches << 7 | lane` keys (`DESIGN.md` §2.5).

use std::ops::Add;

use diva_relation::{Relation, RowId, STAR_CODE};
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

    /// The greedy clustering over local indices of `m`, with the pool's
    /// codes in lane `L`; `None` when `stop` fired.
    fn greedy<L: Lane>(
        &self,
        m: &QiMatrix,
        k: usize,
        stop: &(dyn Fn() -> bool + Sync),
    ) -> Option<Vec<Vec<usize>>> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut pool = Pool::<L>::new(m, &mut rng);
        let mut clusters: Vec<ClusterState> = Vec::with_capacity(m.len() / k + 1);

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
            let mut c = ClusterState::singleton(m, seed);
            while c.len() < k {
                // Greedy: record with minimal information-loss increase.
                // `il_increase = lost + (|C|+1)·distance` is strictly
                // increasing in the distance, so both keys pick the same
                // record.
                let Some(p) = pool.nearest(self.candidate_cap, &c) else {
                    break;
                };
                c.push(m, pool.swap_remove(p));
            }
            clusters.push(c);
        }
        // Absorb the leftovers into their cheapest clusters.
        for i in pool.items {
            if let Some(c) = clusters.iter_mut().min_by_key(|c| c.il_increase(m, i)) {
                c.push(m, i);
            }
        }
        Some(clusters.into_iter().map(ClusterState::into_members).collect())
    }
}

/// Candidates a scan compares at a time: the lanes of one
/// [`Pool::mismatches`] call and the span of one key reduction.
const BLOCK: usize = 128;

/// The width a [`Pool`] stores QI codes and counts mismatches in.
///
/// A lane holds a code, and the same type counts a position's
/// mismatches. Its packed key `mismatches << 7 | lane` orders a
/// block's positions by mismatches, then by lane, so the block's least
/// key is its first closest position and its greatest key its last
/// furthest one.
trait Lane: Copy + Default + Eq + From<bool> + Add<Output = Self> {
    /// The packed key: `u16` for byte lanes, `u32` otherwise.
    type Key: Copy + Ord;

    /// `code` in this width. Only codes the width holds are narrowed,
    /// and ★ (`STAR_CODE`) becomes the width's largest value.
    fn narrow(code: u32) -> Self;

    /// The key of lane `lane` (below [`BLOCK`]) holding `mismatches`.
    fn key(mismatches: Self, lane: usize) -> Self::Key;

    /// A key's mismatches and lane.
    fn unpack(key: Self::Key) -> (usize, usize);
}

/// Byte lanes: every code below 255, ★ as 255, and at most 255 QI
/// attributes, so a mismatch count fits too. A key needs 8 + 7 bits.
impl Lane for u8 {
    type Key = u16;

    fn narrow(code: u32) -> Self {
        code.min(u32::from(u8::MAX)) as u8
    }

    fn key(mismatches: Self, lane: usize) -> u16 {
        u16::from(mismatches) << 7 | lane as u16
    }

    fn unpack(key: u16) -> (usize, usize) {
        (usize::from(key >> 7), usize::from(key & 127))
    }
}

/// Full-width lanes: any code, and a key holds counts below `2^25`, far
/// more QI attributes than a schema has.
impl Lane for u32 {
    type Key = u32;

    fn narrow(code: u32) -> Self {
        code
    }

    fn key(mismatches: Self, lane: usize) -> u32 {
        debug_assert!(mismatches < 1 << 25, "a key holds counts below 2^25");
        mismatches << 7 | lane as u32
    }

    fn unpack(key: u32) -> (usize, usize) {
        ((key >> 7) as usize, (key & 127) as usize)
    }
}

/// Whether byte lanes hold the codes of `m`: at most 255 QI attributes,
/// and every code below 255 or ★.
fn fits_bytes(m: &QiMatrix) -> bool {
    m.n_qi() <= usize::from(u8::MAX)
        && (0..m.len()).all(|i| m.row(i).iter().all(|&c| c < 255 || c == STAR_CODE))
}

/// The not-yet-clustered local indices, in shuffled order, with O(1)
/// removal by position.
///
/// The pool keeps its own copy of the items' QI codes column by column
/// in pool order, narrowed to lane `L`, so a scan compares one
/// attribute across a block of candidates in one loop over contiguous
/// memory. Each column is padded to whole blocks, so every block is
/// compared in all [`BLOCK`] lanes and only the reduction knows how
/// many of them are live.
struct Pool<L> {
    items: Vec<usize>,
    /// QI code `j` of `items[p]` at `codes[j * stride + p]`.
    codes: Vec<L>,
    /// The initial pool length rounded up to whole blocks; positions
    /// past `len()` are stale or padding.
    stride: usize,
    /// The current scan's compared attributes: each one's column offset
    /// `j * stride` and the probe's code, narrowed once per scan.
    probe: Vec<(usize, L)>,
}

impl<L: Lane> Pool<L> {
    fn new(m: &QiMatrix, rng: &mut StdRng) -> Self {
        let mut items: Vec<usize> = (0..m.len()).collect();
        items.shuffle(rng);
        let stride = items.len().next_multiple_of(BLOCK);
        let mut codes = Vec::with_capacity(stride * m.n_qi());
        for j in 0..m.n_qi() {
            codes.extend(items.iter().map(|&i| L::narrow(m.row(i)[j])));
            codes.resize((j + 1) * stride, L::default());
        }
        Self { items, codes, stride, probe: Vec::with_capacity(m.n_qi()) }
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

    /// Narrows the `(attribute, code)` pairs of a scan's probe into
    /// `self.probe`.
    fn set_probe(&mut self, probe: impl Iterator<Item = (usize, u32)>) {
        self.probe.clear();
        self.probe.extend(probe.map(|(j, code)| (j * self.stride, L::narrow(code))));
    }

    /// The number of probe attributes on which each of the `BLOCK`
    /// positions from `start` differs, one loop over the block per
    /// attribute.
    fn mismatches(&self, start: usize) -> [L; BLOCK] {
        let mut counts = [L::default(); BLOCK];
        for &(offset, code) in &self.probe {
            let column = &self.codes[offset + start..][..BLOCK];
            for (n, &c) in counts.iter_mut().zip(column) {
                *n = *n + L::from(c != code);
            }
        }
        counts
    }

    /// The position in the scanned prefix furthest from the QI codes
    /// `from`, taking the last of equals as `max_by_key` does. Blocks
    /// are walked from the end, and a block holding the largest
    /// distance there is, `from.len()`, ends the scan.
    fn furthest(&mut self, cap: Option<usize>, from: &[u32]) -> Option<usize> {
        self.set_probe(from.iter().copied().enumerate());
        let len = self.scan_len(cap);
        let mut best: Option<(usize, usize)> = None;
        for start in (0..len).step_by(BLOCK).rev() {
            let counts = self.mismatches(start);
            let (d, lane) = L::unpack(keys(&counts[..BLOCK.min(len - start)]).max()?);
            if best.is_none_or(|(_, b)| d > b) {
                best = Some((start + lane, d));
            }
            if d == from.len() {
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
    fn nearest(&mut self, cap: Option<usize>, c: &ClusterState) -> Option<usize> {
        self.set_probe(c.uniform_codes());
        let len = self.scan_len(cap);
        let mut best: Option<(usize, usize)> = None;
        for start in (0..len).step_by(BLOCK) {
            let counts = self.mismatches(start);
            let (d, lane) = L::unpack(keys(&counts[..BLOCK.min(len - start)]).min()?);
            if best.is_none_or(|(_, b)| d < b) {
                best = Some((start + lane, d));
            }
            if d == 0 {
                break;
            }
        }
        best.map(|(p, _)| p)
    }
}

/// The packed keys of a block's live lanes: the least is its first
/// closest position, the greatest its last furthest one.
fn keys<L: Lane>(counts: &[L]) -> impl Iterator<Item = L::Key> + '_ {
    counts.iter().enumerate().map(|(lane, &n)| L::key(n, lane))
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
        let local = if fits_bytes(&m) {
            self.greedy::<u8>(&m, k, stop)?
        } else {
            self.greedy::<u32>(&m, k, stop)?
        };
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
