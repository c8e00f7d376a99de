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

use diva_constraints::BoundConstraint;
use diva_relation::{AttrRole, Relation, RowId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One candidate clustering: disjoint clusters over `I_σ`, each of
/// size ≥ k. Rows within each cluster are sorted ascending (the
/// canonical form used for shared-cluster detection).
pub type Clustering = Vec<Vec<RowId>>;

/// Target sets up to this size are enumerated exhaustively.
const SMALL_TARGET: usize = 16;

/// Number of distinct clustering sizes sampled for large target sets.
const SIZE_SAMPLES: usize = 8;

/// The capped candidate list for one constraint.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// Candidates in preference order (cheapest first).
    pub candidates: Vec<Clustering>,
    /// Whether the empty clustering is the (single) candidate because
    /// the constraint has no lower-bound obligation.
    pub lower_is_free: bool,
    /// The target tuples `I_σ` in QI-similarity order — the base
    /// sequence candidates were cut from, used by the search to
    /// *repair* a candidate whose rows were taken by other
    /// constraints (see [`CandidateSet::repair`]).
    pub sorted_targets: Vec<RowId>,
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
    /// filter). `stop` is polled between enumeration steps — window
    /// enumeration is the longest uninterruptible stretch of the whole
    /// pipeline on large inputs, so a wall-clock budget must be able
    /// to reach inside it. Once `stop` returns `true` the candidate
    /// list is abandoned (emptied): the caller is committed to
    /// degrading or cancelling, so no further work is spent polishing
    /// candidates that will never be searched. A probe that never
    /// fires leaves the result byte-identical to the plain
    /// enumeration.
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
        if c.lower == 0 {
            // Only an upper bound: the minimal clustering is empty —
            // nothing must be *retained*; overflow is handled by the
            // consistency checks and Integrate.
            return Self {
                candidates: vec![Vec::new()],
                lower_is_free: true,
                sorted_targets: sorted,
                min_sensitive,
                sens_sig: Vec::new(),
            };
        }
        let sens_sig = if min_sensitive > 1 { sensitive_signatures(rel) } else { Vec::new() };
        let m_min = c.lower.max(k);
        let m_max = c.upper.min(sorted.len());
        if m_min > m_max {
            return Self {
                candidates: Vec::new(),
                lower_is_free: false,
                sorted_targets: sorted,
                min_sensitive,
                sens_sig,
            };
        }

        let mut out: Vec<Clustering> = Vec::new();
        if sorted.len() <= SMALL_TARGET {
            enumerate_small(&sorted, m_min, m_max, k, max_candidates, stop, &mut out);
        } else {
            enumerate_windows(&sorted, m_min, m_max, k, max_candidates, stop, &mut out);
        }
        // A fired probe abandons the list rather than spending more
        // time canonicalizing candidates that will never be searched:
        // the search's entry poll turns the same `stop` condition into
        // a degradation or cancellation before candidates matter. The
        // canonicalization pass re-polls periodically so a deadline
        // arriving mid-pass is also honoured promptly.
        let mut i = 0;
        while i < out.len() {
            if i & 0xFF == 0 && stop() {
                break;
            }
            let clustering = &mut out[i];
            for cluster in clustering.iter_mut() {
                cluster.sort_unstable();
            }
            clustering.sort();
            i += 1;
        }
        if stop() {
            out.clear();
        }
        out.dedup();
        if min_sensitive > 1 {
            out.retain(|cl| {
                cl.iter().all(|cluster| distinct_sigs(&sens_sig, cluster) >= min_sensitive)
            });
        }
        if let Some(rng) = rng.as_mut() {
            out.shuffle(rng);
        }
        Self {
            candidates: out,
            lower_is_free: false,
            sorted_targets: sorted,
            min_sensitive,
            sens_sig,
        }
    }

    /// Rebuilds a candidate from rows that are still free.
    ///
    /// The capped enumeration cuts candidates from fixed positions of
    /// the similarity order, so a constraint whose target rows were
    /// claimed by already-coloured neighbours may find every literal
    /// candidate blocked even though plenty of target tuples remain.
    /// `repair` keeps the candidate's *shape* — its total size and its
    /// position in the similarity order — but re-materializes it from
    /// rows for which `is_free` returns true, scanning forward from
    /// the candidate's original offset and wrapping around. Returns
    /// `None` when fewer free target tuples remain than the candidate
    /// needs.
    pub fn repair<F: Fn(RowId) -> bool>(
        &self,
        candidate: &Clustering,
        k: usize,
        is_free: F,
    ) -> Option<Clustering> {
        let m: usize = candidate.iter().map(Vec::len).sum();
        if m == 0 {
            return None;
        }
        // Anchor at the original offset of the candidate's first row.
        let first = candidate.iter().filter_map(|cl| cl.first()).min().copied()?;
        let anchor = self.sorted_targets.iter().position(|&r| r == first).unwrap_or(0);
        let n = self.sorted_targets.len();
        let mut picked: Vec<RowId> = Vec::with_capacity(m);
        for i in 0..n {
            let row = self.sorted_targets[(anchor + i) % n];
            if is_free(row) {
                picked.push(row);
                if picked.len() == m {
                    break;
                }
            }
        }
        if picked.len() < m {
            return None;
        }
        let mut repaired = chunked(&picked, k);
        if self.min_sensitive > 1
            && repaired
                .iter()
                .any(|cluster| distinct_sigs(&self.sens_sig, cluster) < self.min_sensitive)
        {
            return None; // conservative: repairs never weaken privacy
        }
        for cluster in &mut repaired {
            cluster.sort_unstable();
        }
        repaired.sort();
        if &repaired == candidate {
            return None; // nothing changed; no point retrying
        }
        Some(repaired)
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// The minimum total size any satisfying clustering must have:
    /// 0 when the constraint has no lower-bound obligation, else
    /// `max(λl, k)` as materialized by the smallest candidate. Used by
    /// the search's forward check.
    pub fn min_total(&self) -> usize {
        if self.lower_is_free {
            return 0;
        }
        self.candidates.iter().map(|cl| cl.iter().map(Vec::len).sum()).min().unwrap_or(usize::MAX)
    }

    /// Whether there are no candidates (the constraint is
    /// unsatisfiable for this relation and `k`).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
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

/// Splits `rows` (already similarity-ordered) into clusters of size ≥
/// `k`: `⌊m/k⌋ − 1` chunks of exactly `k` and a final chunk of
/// `k..2k` rows.
fn chunked(rows: &[RowId], k: usize) -> Clustering {
    let m = rows.len();
    debug_assert!(m >= k);
    let q = m / k;
    let mut clusters = Vec::with_capacity(q);
    let mut i = 0;
    for chunk in 0..q {
        let take = if chunk + 1 == q { m - i } else { k };
        clusters.push(rows[i..i + take].to_vec());
        i += take;
    }
    clusters
}

/// Exhaustive subset enumeration for small target sets: for each
/// feasible total size (ascending), walk the size-`m` combinations of
/// the sorted target set in lexicographic order, emitting the chunked
/// and (for small subsets) single-cluster variants.
fn enumerate_small(
    sorted: &[RowId],
    m_min: usize,
    m_max: usize,
    k: usize,
    cap: usize,
    stop: &(dyn Fn() -> bool + Sync),
    out: &mut Vec<Clustering>,
) {
    for m in m_min..=m_max {
        if stop() {
            return;
        }
        let mut idx: Vec<usize> = (0..m).collect();
        loop {
            let subset: Vec<RowId> = idx.iter().map(|&i| sorted[i]).collect();
            push_variants(&subset, k, out);
            if out.len() >= cap {
                out.truncate(cap);
                return;
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
}

/// Window enumeration for large target sets: sample up to
/// [`SIZE_SAMPLES`] total sizes across the feasible range (smallest
/// first — consuming fewer tuples conflicts less), and for each size a
/// spread of window offsets over the similarity order.
fn enumerate_windows(
    sorted: &[RowId],
    m_min: usize,
    m_max: usize,
    k: usize,
    cap: usize,
    stop: &(dyn Fn() -> bool + Sync),
    out: &mut Vec<Clustering>,
) {
    let sizes = spread(m_min, m_max, SIZE_SAMPLES);
    let per_size = (cap / sizes.len().max(1)).max(1);
    for &m in &sizes {
        let last_start = sorted.len() - m;
        let starts = spread(0, last_start, per_size);
        for &s in &starts {
            // Each window clones up to the whole target set; polling
            // the probe per window keeps the stop latency bounded by
            // one window's materialization.
            if stop() {
                return;
            }
            let window = &sorted[s..s + m];
            push_variants(window, k, out);
            if out.len() >= cap {
                out.truncate(cap);
                return;
            }
        }
    }
}

/// Emits the chunked variant of `subset` and, when the subset is small
/// enough that one QI-group is a plausible choice (the paper's
/// single-cluster clusterings in Figure 2), the single-cluster
/// variant.
fn push_variants(subset: &[RowId], k: usize, out: &mut Vec<Clustering>) {
    let chunksed = chunked(subset, k);
    if chunksed.len() > 1 && subset.len() <= 3 * k {
        out.push(vec![subset.to_vec()]);
    }
    out.push(chunksed);
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
/// (a few multiples of `k`), so sort-and-dedup of a scratch vector
/// beats building a hash set.
fn distinct_sigs(sigs: &[u64], rows: &[RowId]) -> usize {
    let mut seen: Vec<u64> = rows.iter().filter_map(|&r| sigs.get(r).copied()).collect();
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

    #[test]
    fn paper_sigma1_has_four_clusterings() {
        // σ1 = (ETH[Asian], 2, 5), k=2, I = {t8,t9,t10}: the paper's
        // Figure 2 lists {{t8,t9}}, {{t8,t10}}, {{t9,t10}},
        // {{t8,t9,t10}}.
        let cs = candidates_for("ETH", "Asian", 2, 5, 2);
        let mut got: Vec<Clustering> = cs.candidates.clone();
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
        assert_eq!(cs.candidates, vec![vec![vec![4, 5]]]);
    }

    #[test]
    fn paper_sigma3_includes_multi_cluster_candidates() {
        // σ3 = (CTY[Vancouver], 2, 4), k=2, I = {t6,t7,t8,t10}: the
        // paper's Figure 2 shows pairs, triples, and the two-cluster
        // clustering {{t6,t7},{t8,t10}}-style candidates.
        let cs = candidates_for("CTY", "Vancouver", 2, 4, 2);
        assert!(cs.candidates.iter().any(|cl| cl.len() == 2), "expected a 2-cluster candidate");
        assert!(cs.candidates.iter().any(|cl| cl.len() == 1 && cl[0].len() == 2));
        // All candidates: clusters ≥ k, total within [2,4], rows ⊆ I.
        for cl in &cs.candidates {
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
        assert_eq!(cs.candidates, vec![Vec::<Vec<usize>>::new()]);
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
        for cl in &cs.candidates {
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
        assert_eq!(s1.candidates, s2.candidates);
        let s3 = CandidateSet::enumerate(&r, &c, 2, 64, Some(8));
        assert!(s1.candidates != s3.candidates || s1.len() <= 1);
    }

    #[test]
    fn large_target_windows() {
        // A larger synthetic relation exercises the window path.
        let rel = diva_datagen::medical(2_000, 3);
        let eth = rel.schema().col_of("ETH");
        // Most frequent ethnicity value.
        let mut counts = std::collections::HashMap::new();
        for &code in rel.column(eth) {
            *counts.entry(code).or_insert(0usize) += 1;
        }
        let (&code, &freq) = counts.iter().max_by_key(|(_, &f)| f).unwrap();
        let value = rel.dict(eth).decode(code).unwrap().to_string();
        let lower = freq / 2;
        let c = Constraint::single("ETH", value, lower, freq).bind(&rel).unwrap();
        let k = 10;
        let cs = CandidateSet::enumerate(&rel, &c, k, 64, None);
        assert!(!cs.is_empty());
        assert!(cs.len() <= 64);
        for cl in &cs.candidates {
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
        let first_total: usize = cs.candidates[0].iter().map(Vec::len).sum();
        let last_total: usize = cs.candidates.last().unwrap().iter().map(Vec::len).sum();
        assert!(first_total <= last_total);
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
