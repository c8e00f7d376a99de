//! Candidate clustering enumeration — the paper's
//! `Clusterings(σ, R)` routine.
//!
//! For a constraint `σ = (X[t], λl, λr)` the candidate *clusters* are
//! subsets of the target tuples `I_σ` (tuples matching `t`; a cluster
//! containing any non-target tuple would suppress the target value and
//! contribute nothing). A candidate *clustering* is a set of disjoint
//! clusters, each of size ≥ `k`, whose total size lies in
//! `[max(λl, k), λr]` — `Suppress` of such a clustering retains
//! exactly `total` occurrences of the target.
//!
//! The space of clusterings is combinatorial; the paper states that
//! the number *considered* per constraint is polynomial. We enumerate
//! a capped, quality-ordered subset:
//!
//! * target tuples are sorted by QI similarity so clusters of adjacent
//!   tuples need little suppression;
//! * small target sets get exhaustive subset enumeration (this makes
//!   the running example behave exactly as in the paper's Figure 2);
//! * large target sets get evenly-spread *windows* over the sorted
//!   order, for a spread of total sizes in the feasible range;
//! * each selected tuple subset yields a clustering chunked into
//!   groups of `k` (fine, low-suppression) and, when small, the
//!   single-cluster variant the paper's figures show.
//!
//! A window candidate is only a descriptor into the sorted order. Its
//! clusters are built the first time the search tries it
//! ([`CandidateSet::clustering`]); the search's availability checks
//! read them as slices of the sorted order without building anything
//! ([`CandidateSet::available`]).
#![deny(clippy::disallowed_types)]

use std::ops::Range;
use std::sync::OnceLock;

use diva_constraints::BoundConstraint;
use diva_relation::{AttrRole, Relation, RowId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::state::SearchState;

/// One candidate clustering: disjoint clusters over `I_σ`, each of
/// size ≥ k. Rows within each cluster are sorted ascending (the
/// canonical form used for shared-cluster detection).
pub type Clustering = Vec<Vec<RowId>>;

/// Target sets up to this size are enumerated exhaustively.
const SMALL_TARGET: usize = 16;

/// Number of distinct clustering sizes sampled for large target sets.
const SIZE_SAMPLES: usize = 8;

/// One entry of a [`CandidateSet`].
#[derive(Debug, Clone)]
enum Candidate {
    /// A clustering materialized at enumeration, in canonical form:
    /// the exhaustive path for small target sets.
    Listed(Clustering),
    /// A window of the similarity order, built on first use.
    Window(Window),
}

/// The rows `sorted_targets[start..start + len]`, as one cluster
/// (`whole`) or chunked into clusters of `k..2k` rows.
#[derive(Debug, Clone)]
struct Window {
    start: usize,
    len: usize,
    whole: bool,
    /// The canonical clustering, built the first time it is asked for.
    built: OnceLock<Clustering>,
}

impl Window {
    /// The window's clusters as slices of the similarity order.
    fn clusters<'s>(&self, sorted: &'s [RowId], k: usize) -> impl Iterator<Item = &'s [RowId]> {
        let rows = &sorted[self.start..self.start + self.len];
        let q = if self.whole { 1 } else { self.len / k };
        chunk_bounds(self.len, k, q).map(move |b| &rows[b])
    }
}

impl Candidate {
    /// The number of rows the candidate clusters.
    fn total(&self) -> usize {
        match self {
            Self::Listed(clustering) => clustering.iter().map(Vec::len).sum(),
            Self::Window(w) => w.len,
        }
    }

    /// Whether `f` holds for every cluster. A window's clusters are
    /// read as slices of `sorted`, unbuilt and in similarity order.
    fn all_clusters(
        &self,
        sorted: &[RowId],
        k: usize,
        mut f: impl FnMut(&[RowId]) -> bool,
    ) -> bool {
        match self {
            Self::Listed(clustering) => clustering.iter().all(|cluster| f(cluster)),
            Self::Window(w) => w.clusters(sorted, k).all(f),
        }
    }
}

/// A repaired clustering, written by [`CandidateSet::repair`] into
/// scratch the search owns and reuses for every repair: the picked
/// rows, cut into clusters given as ranges of them.
#[derive(Debug, Default)]
pub struct Repaired {
    rows: Vec<RowId>,
    clusters: Vec<Range<usize>>,
    /// Scratch for the ℓ-diversity check.
    sigs: Vec<u64>,
}

impl Repaired {
    /// The repaired clusters in canonical form: each ascending, the
    /// clusters in lexicographic order.
    pub fn clusters(&self) -> impl Iterator<Item = &[RowId]> + Clone {
        self.clusters.iter().map(|b| &self.rows[b.clone()])
    }
}

/// The capped candidate list for one constraint.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// Candidates in preference order (cheapest first).
    candidates: Vec<Candidate>,
    /// Whether the empty clustering is the (single) candidate because
    /// the constraint has no lower-bound obligation.
    pub lower_is_free: bool,
    /// The target tuples `I_σ` in QI-similarity order — the base
    /// sequence candidates were cut from, used by the search to
    /// *repair* a candidate whose rows were taken by other
    /// constraints (see [`CandidateSet::repair`]).
    pub sorted_targets: Vec<RowId>,
    /// The minimum cluster size window candidates are chunked by.
    k: usize,
    /// See [`CandidateSet::min_total`].
    min_total: usize,
    /// ℓ-diversity requirement on clusters (1 = none) and, when
    /// active, each row's sensitive-value signature, indexed densely
    /// by row id (empty when the filter is off).
    min_sensitive: usize,
    sens_sig: Vec<u64>,
}

impl CandidateSet {
    /// Enumerates candidates for `c` over `rel`.
    ///
    /// `shuffle_seed` randomizes candidate order (the Basic strategy);
    /// `None` keeps the quality order (MinChoice / MaxFanOut).
    pub fn enumerate(
        rel: &Relation,
        c: &BoundConstraint,
        k: usize,
        max_candidates: usize,
        shuffle_seed: Option<u64>,
    ) -> Self {
        Self::enumerate_interruptible(rel, c, k, max_candidates, shuffle_seed, 1, &|| false)
    }

    /// [`CandidateSet::enumerate`] with the ℓ-diversity extension and
    /// an early-stop probe. Candidate clusters must each contain at
    /// least `min_sensitive` distinct sensitive values (the paper's §5
    /// re-definition of the clustering criteria; 1 disables the
    /// filter). `stop` is polled once the candidates are listed:
    /// listing takes time proportional to the cap (a window candidate
    /// is a descriptor), so the similarity sort before it is the one
    /// long stretch left, and it cannot be interrupted. If `stop`
    /// returns `true` the candidate list is abandoned (emptied): the
    /// caller is committed to degrading or cancelling, so no further
    /// work is spent on candidates that will never be searched. A
    /// probe that never fires leaves the result byte-identical to the
    /// plain enumeration.
    pub fn enumerate_interruptible(
        rel: &Relation,
        c: &BoundConstraint,
        k: usize,
        max_candidates: usize,
        shuffle_seed: Option<u64>,
        min_sensitive: usize,
        stop: &(dyn Fn() -> bool + Sync),
    ) -> Self {
        // MinChoice/MaxFanOut cut clusters from the QI-similarity
        // order (cheap suppression); Basic — the paper's naive variant
        // — clusters random target subsets instead.
        let mut sorted = similarity_sorted(rel, &c.target_rows);
        let mut rng = shuffle_seed.map(StdRng::seed_from_u64);
        if let Some(rng) = rng.as_mut() {
            sorted.shuffle(rng);
        }
        let mut set = Self {
            candidates: Vec::new(),
            lower_is_free: c.lower == 0,
            sorted_targets: sorted,
            k,
            min_total: usize::MAX,
            min_sensitive,
            sens_sig: Vec::new(),
        };
        if set.lower_is_free {
            // Only an upper bound: the minimal clustering is empty —
            // nothing must be *retained*; overflow is handled by the
            // consistency checks and Integrate.
            set.candidates.push(Candidate::Listed(Vec::new()));
            set.min_total = 0;
            return set;
        }
        if min_sensitive > 1 {
            set.sens_sig = sensitive_signatures(rel);
        }
        let sorted = &set.sorted_targets;
        let m_min = c.lower.max(k);
        let m_max = c.upper.min(sorted.len());
        if m_min > m_max {
            return set;
        }

        let mut out = if sorted.len() <= SMALL_TARGET {
            enumerate_small(sorted, m_min, m_max, k, max_candidates)
        } else {
            enumerate_windows(sorted, m_min, m_max, k, max_candidates)
        };
        // The search's entry poll turns the same `stop` condition into
        // a degradation or cancellation before candidates matter.
        if stop() {
            out.clear();
        }
        if min_sensitive > 1 {
            let mut seen = Vec::new();
            out.retain(|cand| {
                cand.all_clusters(sorted, k, |cluster| {
                    distinct_sigs(&set.sens_sig, cluster, &mut seen) >= min_sensitive
                })
            });
        }
        if let Some(rng) = rng.as_mut() {
            out.shuffle(rng);
        }
        set.min_total = out.iter().map(Candidate::total).min().unwrap_or(usize::MAX);
        set.candidates = out;
        set
    }

    /// Candidate `i` in canonical form: each cluster ascending, the
    /// clusters in lexicographic order. A window candidate is built
    /// the first time it is asked for and cached, so every call
    /// returns the same clustering.
    pub fn clustering(&self, i: usize) -> &Clustering {
        match &self.candidates[i] {
            Candidate::Listed(clustering) => clustering,
            Candidate::Window(w) => w.built.get_or_init(|| {
                let mut clustering =
                    w.clusters(&self.sorted_targets, self.k).map(<[RowId]>::to_vec).collect();
                canonicalize(&mut clustering);
                clustering
            }),
        }
    }

    /// Whether no cluster of candidate `i` collides with `state`: each
    /// is free or already live ([`SearchState::cluster_available`]).
    /// The search's quick availability test; a window candidate's
    /// clusters are read as slices, so it builds nothing.
    pub fn available(&self, i: usize, state: &SearchState) -> bool {
        self.candidates[i]
            .all_clusters(&self.sorted_targets, self.k, |cluster| state.cluster_available(cluster))
    }

    /// Rebuilds a candidate from rows that are still free, into `out`;
    /// returns whether `out` now holds a replacement.
    ///
    /// The capped enumeration cuts candidates from fixed positions of
    /// the similarity order, so a constraint whose target rows were
    /// claimed by already-coloured neighbours may find every literal
    /// candidate blocked even though plenty of target tuples remain.
    /// `repair` keeps the candidate's total size but re-materializes
    /// it from rows for which `is_free` returns true, chunked by `k`.
    /// It scans the similarity order forward from the position of the
    /// candidate's smallest row id, wrapping around. That anchor is a
    /// row of the candidate but, for a window, generally not its first
    /// row in similarity order. It fails when fewer free target tuples
    /// remain than the candidate needs (so a caller that counts the
    /// free target tuples can skip the call), when a repaired cluster
    /// falls below the ℓ-diversity requirement, and when the repair
    /// is the candidate itself. `out` holds the clusters in the same
    /// canonical form as [`CandidateSet::clustering`], and the call
    /// allocates nothing once `out` has grown to the largest repair.
    pub fn repair<F: Fn(RowId) -> bool>(
        &self,
        candidate: &Clustering,
        k: usize,
        is_free: F,
        out: &mut Repaired,
    ) -> bool {
        let m: usize = candidate.iter().map(Vec::len).sum();
        // Anchor at the similarity-order position of the smallest row.
        let Some(&first) = candidate.iter().filter_map(|cl| cl.first()).min() else {
            return false;
        };
        let anchor = self.sorted_targets.iter().position(|&r| r == first).unwrap_or(0);
        let (before, from) = self.sorted_targets.split_at(anchor);
        let Repaired { rows, clusters, sigs } = out;
        rows.clear();
        rows.extend(from.iter().chain(before).copied().filter(|&r| is_free(r)).take(m));
        if rows.len() < m {
            return false;
        }
        debug_assert!(m >= k);
        clusters.clear();
        clusters.extend(chunk_bounds(m, k, m / k));
        if self.min_sensitive > 1
            && clusters
                .iter()
                .any(|b| distinct_sigs(&self.sens_sig, &rows[b.clone()], sigs) < self.min_sensitive)
        {
            return false; // conservative: repairs never weaken privacy
        }
        // Canonical form: each cluster ascending, then the clusters
        // in lexicographic order (they are disjoint, so no two tie).
        for b in clusters.iter() {
            rows[b.clone()].sort_unstable();
        }
        clusters.sort_unstable_by(|a, b| rows[a.clone()].cmp(&rows[b.clone()]));
        // A repair that changed nothing is no use retrying.
        let unchanged = candidate.len() == clusters.len()
            && candidate.iter().zip(clusters.iter()).all(|(c, b)| c[..] == rows[b.clone()]);
        !unchanged
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// The number of rows candidate `i` clusters, without building it:
    /// a window's total is its length.
    pub fn total(&self, i: usize) -> usize {
        self.candidates[i].total()
    }

    /// The minimum total size any satisfying clustering must have:
    /// 0 when the constraint has no lower-bound obligation, else
    /// `max(λl, k)` as materialized by the smallest candidate
    /// (`usize::MAX` when there is none). Computed at enumeration;
    /// used by the search's forward check.
    pub fn min_total(&self) -> usize {
        self.min_total
    }

    /// Whether there are no candidates (the constraint is
    /// unsatisfiable for this relation and `k`).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// How many window candidates have been built.
    #[cfg(test)]
    pub(crate) fn built_windows(&self) -> usize {
        self.candidates
            .iter()
            .filter(|c| matches!(c, Candidate::Window(w) if w.built.get().is_some()))
            .count()
    }

    /// Publishes this candidate set's generation stats to `obs`: the
    /// total generated (`candidates.generated`), the per-constraint
    /// set-size and target-pool histograms, and how many constraints
    /// carried no lower-bound obligation (`candidates.lower_free`).
    /// Called once per constraint after enumeration.
    pub fn record_to(&self, obs: &diva_obs::Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.counter("candidates.generated").add(self.candidates.len() as u64);
        if self.lower_is_free {
            obs.counter("candidates.lower_free").incr();
        }
        obs.histogram("candidates.set_size").record_len(self.candidates.len());
        obs.histogram("candidates.target_rows").record_len(self.sorted_targets.len());
    }
}

/// Sorts target rows so that tuples with similar QI values are
/// adjacent (lexicographic over the QI code vector, ties by row id for
/// determinism).
fn similarity_sorted(rel: &Relation, rows: &[RowId]) -> Vec<RowId> {
    let qi_cols = rel.schema().qi_cols();
    let mut sorted = rows.to_vec();
    sorted.sort_by(|&a, &b| {
        for &c in qi_cols {
            match rel.code(a, c).cmp(&rel.code(b, c)) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        a.cmp(&b)
    });
    sorted
}

/// The clusters of `m` similarity-ordered rows cut into `q` clusters,
/// as index ranges: `q − 1` chunks of exactly `k`, then the rest. With
/// `q = ⌊m/k⌋` that is the chunked form (a last chunk of `k..2k`
/// rows); with `q = 1` it is one cluster of all `m` rows.
fn chunk_bounds(m: usize, k: usize, q: usize) -> impl Iterator<Item = Range<usize>> {
    (0..q).map(move |c| c * k..if c + 1 == q { m } else { (c + 1) * k })
}

/// Splits `rows` (already similarity-ordered) into clusters of size ≥
/// `k`: `⌊m/k⌋ − 1` chunks of exactly `k` and a final chunk of
/// `k..2k` rows.
fn chunked(rows: &[RowId], k: usize) -> Clustering {
    debug_assert!(rows.len() >= k);
    chunk_bounds(rows.len(), k, rows.len() / k).map(|b| rows[b].to_vec()).collect()
}

/// Whether `m` rows also yield the single-cluster variant: only when
/// the chunked form has more than one cluster (`m ≥ 2k`) and the rows
/// are few enough that one QI-group is a plausible choice (the
/// paper's single-cluster clusterings in Figure 2).
fn has_whole_variant(m: usize, k: usize) -> bool {
    2 * k <= m && m <= 3 * k
}

/// Sorts each cluster ascending and the clusters lexicographically:
/// the form the search state registers and compares clusters in.
fn canonicalize(clustering: &mut Clustering) {
    for cluster in clustering.iter_mut() {
        cluster.sort_unstable();
    }
    clustering.sort();
}

/// Exhaustive subset enumeration for small target sets: for each
/// feasible total size (ascending), walk the size-`m` combinations of
/// the sorted target set in lexicographic order, emitting the chunked
/// and (for small subsets) single-cluster variants, then canonicalize
/// them and drop consecutive duplicates.
fn enumerate_small(
    sorted: &[RowId],
    m_min: usize,
    m_max: usize,
    k: usize,
    cap: usize,
) -> Vec<Candidate> {
    let mut out: Vec<Clustering> = Vec::new();
    'sizes: for m in m_min..=m_max {
        let mut idx: Vec<usize> = (0..m).collect();
        loop {
            let subset: Vec<RowId> = idx.iter().map(|&i| sorted[i]).collect();
            if has_whole_variant(m, k) {
                out.push(vec![subset.clone()]);
            }
            out.push(chunked(&subset, k));
            if out.len() >= cap {
                out.truncate(cap);
                break 'sizes;
            }
            // Advance the combination (lexicographic successor).
            let n = sorted.len();
            let mut pos = m;
            while pos > 0 {
                pos -= 1;
                if idx[pos] != pos + n - m {
                    idx[pos] += 1;
                    for j in pos + 1..m {
                        idx[j] = idx[j - 1] + 1;
                    }
                    break;
                }
                if pos == 0 {
                    pos = usize::MAX; // signal exhaustion
                    break;
                }
            }
            if pos == usize::MAX {
                break;
            }
        }
    }
    for clustering in &mut out {
        canonicalize(clustering);
    }
    out.dedup();
    out.into_iter().map(Candidate::Listed).collect()
}

/// Window enumeration for large target sets: sample up to
/// [`SIZE_SAMPLES`] total sizes across the feasible range (smallest
/// first — consuming fewer tuples conflicts less), and for each size a
/// spread of window offsets over the similarity order. Each window is
/// a descriptor; its single-cluster variant, when it has one, comes
/// before its chunked one.
///
/// No two consecutive candidates are equal, so unlike the exhaustive
/// path this one needs no dedup: two windows of one size start at
/// different offsets and so hold different rows, the two variants of
/// one window differ in cluster count, and windows of different sizes
/// differ in total.
fn enumerate_windows(
    sorted: &[RowId],
    m_min: usize,
    m_max: usize,
    k: usize,
    cap: usize,
) -> Vec<Candidate> {
    let window = |start: usize, len: usize, whole: bool| {
        Candidate::Window(Window { start, len, whole, built: OnceLock::new() })
    };
    let mut out = Vec::new();
    let sizes = spread(m_min, m_max, SIZE_SAMPLES);
    let per_size = (cap / sizes.len().max(1)).max(1);
    for &m in &sizes {
        let last_start = sorted.len() - m;
        for &start in &spread(0, last_start, per_size) {
            if has_whole_variant(m, k) {
                out.push(window(start, m, true));
            }
            out.push(window(start, m, false));
            if out.len() >= cap {
                out.truncate(cap);
                return out;
            }
        }
    }
    out
}

/// Sensitive-value signatures of every row (FNV-style fold of the
/// sensitive codes), indexed densely by row id. Signatures are only
/// compared for distinctness; a hash collision under-counts and can
/// only make the ℓ-diversity filter *more* conservative.
fn sensitive_signatures(rel: &Relation) -> Vec<u64> {
    let sens_cols: Vec<usize> = (0..rel.schema().arity())
        .filter(|&c| rel.schema().attribute(c).role() == AttrRole::Sensitive)
        .collect();
    (0..rel.n_rows())
        .map(|r| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            if sens_cols.is_empty() {
                h = r as u64; // vacuous ℓ-diversity: every row distinct
            }
            for &c in &sens_cols {
                h ^= u64::from(rel.code(r, c)).wrapping_add(0x9e37_79b9);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h
        })
        .collect()
}

/// Number of distinct signatures among `rows`. Clusters are small
/// (a few multiples of `k`), so sort-and-dedup of the caller's scratch
/// vector `seen` beats building a hash set.
fn distinct_sigs(sigs: &[u64], rows: &[RowId], seen: &mut Vec<u64>) -> usize {
    seen.clear();
    seen.extend(rows.iter().filter_map(|&r| sigs.get(r).copied()));
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

/// Up to `n` evenly-spread values in `[lo, hi]`, always including the
/// endpoints, ascending and deduplicated.
fn spread(lo: usize, hi: usize, n: usize) -> Vec<usize> {
    debug_assert!(lo <= hi);
    let n = n.max(1);
    if hi == lo {
        return vec![lo];
    }
    let mut vals: Vec<usize> = (0..n)
        .map(|i| lo + ((hi - lo) as u128 * i as u128 / (n as u128 - 1).max(1)) as usize)
        .collect();
    vals.dedup();
    vals
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_constraints::Constraint;
    use diva_relation::fixtures::paper_table1;

    fn candidates_for(
        attr: &str,
        value: &str,
        lower: usize,
        upper: usize,
        k: usize,
    ) -> CandidateSet {
        let r = paper_table1();
        let c = Constraint::single(attr, value, lower, upper).bind(&r).unwrap();
        CandidateSet::enumerate(&r, &c, k, 64, None)
    }

    /// Every candidate of `cs`, built, in order.
    fn built(cs: &CandidateSet) -> Vec<Clustering> {
        (0..cs.len()).map(|i| cs.clustering(i).clone()).collect()
    }

    #[test]
    fn paper_sigma1_has_four_clusterings() {
        // σ1 = (ETH[Asian], 2, 5), k=2, I = {t8,t9,t10}: the paper's
        // Figure 2 lists {{t8,t9}}, {{t8,t10}}, {{t9,t10}},
        // {{t8,t9,t10}}.
        let cs = candidates_for("ETH", "Asian", 2, 5, 2);
        let mut got = built(&cs);
        got.sort();
        let mut want: Vec<Clustering> =
            vec![vec![vec![7, 8]], vec![vec![7, 9]], vec![vec![8, 9]], vec![vec![7, 8, 9]]];
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn paper_sigma2_has_one_clustering() {
        // σ2 = (ETH[African], 1, 3), k=2, I = {t5,t6}: only {{t5,t6}}.
        let cs = candidates_for("ETH", "African", 1, 3, 2);
        assert_eq!(built(&cs), vec![vec![vec![4, 5]]]);
    }

    #[test]
    fn paper_sigma3_includes_multi_cluster_candidates() {
        // σ3 = (CTY[Vancouver], 2, 4), k=2, I = {t6,t7,t8,t10}: the
        // paper's Figure 2 shows pairs, triples, and the two-cluster
        // clustering {{t6,t7},{t8,t10}}-style candidates.
        let cs = candidates_for("CTY", "Vancouver", 2, 4, 2);
        let all = built(&cs);
        assert!(all.iter().any(|cl| cl.len() == 2), "expected a 2-cluster candidate");
        assert!(all.iter().any(|cl| cl.len() == 1 && cl[0].len() == 2));
        // All candidates: clusters ≥ k, total within [2,4], rows ⊆ I.
        for cl in &all {
            let total: usize = cl.iter().map(Vec::len).sum();
            assert!((2..=4).contains(&total));
            for cluster in cl {
                assert!(cluster.len() >= 2);
                for &r in cluster {
                    assert!([5, 6, 7, 9].contains(&r), "row {r} not in I_σ3");
                }
            }
        }
    }

    #[test]
    fn upper_bound_only_yields_empty_clustering() {
        let cs = candidates_for("ETH", "Asian", 0, 2, 2);
        assert!(cs.lower_is_free);
        assert_eq!(built(&cs), vec![Vec::<Vec<usize>>::new()]);
    }

    #[test]
    fn unsatisfiable_bounds_yield_no_candidates() {
        // Want ≥ 4 Asians but only 3 exist.
        let cs = candidates_for("ETH", "Asian", 4, 10, 2);
        assert!(cs.is_empty());
        // Upper bound below k: a cluster of ≥ k would overshoot.
        let cs = candidates_for("ETH", "Asian", 2, 2, 3);
        assert!(cs.is_empty());
    }

    #[test]
    fn clusters_respect_k() {
        let cs = candidates_for("CTY", "Vancouver", 2, 4, 3);
        for cl in &built(&cs) {
            for cluster in cl {
                assert!(cluster.len() >= 3);
            }
        }
        assert!(!cs.is_empty());
    }

    #[test]
    fn cap_is_respected_and_shuffle_is_deterministic() {
        let r = paper_table1();
        let c = Constraint::single("CTY", "Vancouver", 2, 4).bind(&r).unwrap();
        let capped = CandidateSet::enumerate(&r, &c, 2, 3, None);
        assert_eq!(capped.len(), 3);
        let s1 = CandidateSet::enumerate(&r, &c, 2, 64, Some(7));
        let s2 = CandidateSet::enumerate(&r, &c, 2, 64, Some(7));
        assert_eq!(built(&s1), built(&s2));
        let s3 = CandidateSet::enumerate(&r, &c, 2, 64, Some(8));
        assert!(built(&s1) != built(&s3) || s1.len() <= 1);
    }

    #[test]
    fn large_target_windows() {
        // A larger synthetic relation exercises the window path.
        let rel = diva_datagen::medical(2_000, 3);
        let eth = rel.schema().col_of("ETH");
        // Most frequent ethnicity value.
        let mut counts = vec![0usize; rel.dict(eth).len()];
        for &code in rel.column(eth) {
            counts[code as usize] += 1;
        }
        let (code, &freq) = counts.iter().enumerate().max_by_key(|&(_, &f)| f).unwrap();
        let value = rel.dict(eth).decode(code as u32).unwrap().to_string();
        let lower = freq / 2;
        let c = Constraint::single("ETH", value, lower, freq).bind(&rel).unwrap();
        let k = 10;
        let cs = CandidateSet::enumerate(&rel, &c, k, 64, None);
        assert!(!cs.is_empty());
        assert!(cs.len() <= 64);
        let all = built(&cs);
        for cl in &all {
            let total: usize = cl.iter().map(Vec::len).sum();
            assert!(total >= lower && total <= freq, "total {total}");
            for cluster in cl {
                assert!(cluster.len() >= k);
                // Clusters are disjoint within a clustering.
            }
            let mut all: Vec<usize> = cl.iter().flatten().copied().collect();
            let n = all.len();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), n, "clusters overlap");
        }
        // Smallest totals come first (cheapest candidates preferred).
        let first_total: usize = all[0].iter().map(Vec::len).sum();
        let last_total: usize = all.last().unwrap().iter().map(Vec::len).sum();
        assert!(first_total <= last_total);
    }

    #[test]
    fn windows_are_built_once_on_first_use() {
        let rel = diva_datagen::medical(2_000, 3);
        let sigma = diva_constraints::generators::proportional(&rel, 5, 0.7, 20);
        let set = diva_constraints::ConstraintSet::bind(&sigma, &rel).unwrap();
        let c = set
            .constraints()
            .iter()
            .find(|c| c.target_rows.len() > SMALL_TARGET && c.lower > 0)
            .expect("a constraint on the window path");
        let cs = CandidateSet::enumerate(&rel, c, 5, 64, None);
        assert!(cs.len() > 1);
        assert_eq!(cs.built_windows(), 0, "enumeration builds no window");
        let last = cs.len() - 1;
        let first = cs.clustering(last);
        let second = cs.clustering(last);
        assert!(std::ptr::eq(first, second), "both calls return the cached clustering");
        assert_eq!(cs.built_windows(), 1);
    }

    #[test]
    fn spread_endpoints() {
        assert_eq!(spread(0, 10, 3), vec![0, 5, 10]);
        assert_eq!(spread(4, 4, 5), vec![4]);
        assert_eq!(
            spread(0, 1, 5),
            vec![0, 0, 0, 1, 1]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn chunked_sizes() {
        let rows: Vec<usize> = (0..7).collect();
        let cl = chunked(&rows, 3);
        assert_eq!(cl.len(), 2);
        assert_eq!(cl[0].len(), 3);
        assert_eq!(cl[1].len(), 4);
        let cl = chunked(&rows[..3], 3);
        assert_eq!(cl, vec![vec![0, 1, 2]]);
    }
}
