//! The OKA (One-pass K-means Anonymization) algorithm
//! (Lin & Wei, PAIS 2008).
//!
//! OKA runs in two stages. The **one-pass k-means stage** picks
//! `⌊n/k⌋` seed records and assigns every record to its nearest
//! cluster in a single pass, updating the cluster representative as it
//! goes. The **adjustment stage** repairs cluster sizes: clusters with
//! more than `k` members give up their furthest records, and the freed
//! records are assigned to clusters still below `k` (or, when none
//! remain, to their nearest cluster).
//!
//! Distances use the categorical suppression model shared with
//! k-member (number of disagreeing QI attributes, attributes already
//! mixed counting zero).

use diva_relation::{Relation, RowId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::common::{Anonymizer, ClusterState, QiMatrix};

/// OKA configuration.
#[derive(Debug, Clone)]
pub struct Oka {
    /// RNG seed for the seed-record choice.
    pub seed: u64,
    /// Upper bound on the clusters examined per nearest-cluster scan
    /// (`None` = exact). The one-pass stage is `O(n · n/k)` with an
    /// exact scan, which is intractable at the paper's 300k-row
    /// instances; a capped scan over a deterministic rotating window
    /// of clusters keeps the one-pass structure (documented
    /// substitution, `DESIGN.md` §2.5).
    pub candidate_cap: Option<usize>,
}

impl Default for Oka {
    fn default() -> Self {
        Self { seed: 0x0ca, candidate_cap: Some(512) }
    }
}

impl Oka {
    /// Exact OKA (no candidate sampling).
    pub fn exact(seed: u64) -> Self {
        Self { seed, candidate_cap: None }
    }

    /// The cluster indices to scan for the `i`-th query: all of them,
    /// or a rotating window of `cap` starting at `i mod n`.
    fn scan_range(&self, i: usize, n_clusters: usize) -> Vec<usize> {
        match self.candidate_cap {
            Some(cap) if n_clusters > cap => {
                let start = i % n_clusters;
                (0..cap).map(|j| (start + j) % n_clusters).collect()
            }
            _ => (0..n_clusters).collect(),
        }
    }
}

impl Anonymizer for Oka {
    fn name(&self) -> &'static str {
        "OKA"
    }

    fn cluster(&self, rel: &Relation, rows: &[RowId], k: usize) -> Vec<Vec<RowId>> {
        assert!(k > 0, "k must be positive");
        if rows.is_empty() {
            return Vec::new();
        }
        let m = QiMatrix::new(rel, rows);
        let n = m.len();
        if n < 2 * k {
            // Not enough records for two clusters: one cluster.
            return m.to_relation_clusters(&[(0..n).collect()]);
        }
        let n_clusters = n / k;
        let mut rng = StdRng::seed_from_u64(self.seed);

        // --- Stage 1: one-pass k-means. ---
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut clusters: Vec<ClusterState> =
            order[..n_clusters].iter().map(|&i| ClusterState::singleton(&m, i)).collect();
        for (qi, &i) in order[n_clusters..].iter().enumerate() {
            let Some(best) = self
                .scan_range(qi, clusters.len())
                .into_iter()
                .min_by_key(|&ci| clusters[ci].distance(&m, i))
            else {
                continue; // defensive: n_clusters ≥ 1
            };
            clusters[best].push(&m, i);
        }

        // --- Stage 2: adjustment. ---
        // Overfull clusters shed their furthest members...
        let mut freed: Vec<usize> = Vec::new();
        for c in &mut clusters {
            while c.len() > k {
                // Recompute the furthest member against the current
                // representative and remove it.
                let Some((pos, _)) =
                    c.members().iter().enumerate().max_by_key(|&(_, &i)| c.distance(&m, i))
                else {
                    break; // defensive: the cluster has > k ≥ 1 members
                };
                // Removing a member can restore uniformity; `swap_remove`
                // rebuilds the mask (cheap: |c| ≤ original size).
                freed.push(c.swap_remove(&m, pos));
            }
        }
        // ... and freed records go to the nearest under-full cluster,
        // falling back to the nearest cluster overall.
        for (qi, i) in freed.into_iter().enumerate() {
            let scan = self.scan_range(qi, clusters.len());
            let Some(target) = scan
                .iter()
                .copied()
                .filter(|&ci| clusters[ci].len() < k)
                .min_by_key(|&ci| clusters[ci].distance(&m, i))
                .or_else(|| scan.into_iter().min_by_key(|&ci| clusters[ci].distance(&m, i)))
            else {
                continue; // defensive: at least one cluster exists
            };
            clusters[target].push(&m, i);
        }
        // Under-full clusters can only remain if freeing produced too
        // few records; merge any stragglers into their nearest peer.
        while let Some(small) = (0..clusters.len()).find(|&ci| clusters[ci].len() < k) {
            if clusters.len() == 1 {
                break; // single undersized cluster: nothing to merge into
            }
            let victim = clusters.swap_remove(small);
            for &i in victim.members() {
                let Some(target) =
                    (0..clusters.len()).min_by_key(|&ci| clusters[ci].distance(&m, i))
                else {
                    continue; // defensive: clusters remain after swap_remove
                };
                clusters[target].push(&m, i);
            }
        }

        let local: Vec<Vec<usize>> = clusters.into_iter().map(ClusterState::into_members).collect();
        m.to_relation_clusters(&local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::assert_valid_clustering;
    use diva_relation::fixtures::paper_table1;
    use diva_relation::is_k_anonymous;

    #[test]
    fn clusters_partition_and_respect_k() {
        let r = diva_datagen::medical(300, 3);
        let rows: Vec<usize> = (0..r.n_rows()).collect();
        for k in [2, 5, 10] {
            let clusters = Oka::default().cluster(&r, &rows, k);
            assert_valid_clustering(&clusters, &rows, k);
        }
    }

    #[test]
    fn output_is_k_anonymous() {
        let r = diva_datagen::medical(400, 5);
        for k in [3, 7] {
            let s = Oka::default().anonymize(&r, k);
            assert!(is_k_anonymous(&s.relation, k), "k = {k}");
            assert_eq!(s.relation.n_rows(), 400);
        }
    }

    #[test]
    fn small_input_single_cluster() {
        let r = paper_table1();
        let clusters = Oka::default().cluster(&r, &[0, 1, 2], 2);
        // 3 < 2k = 4 → single cluster.
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 3);
    }

    #[test]
    fn empty_rows_yield_empty_clustering() {
        let r = paper_table1();
        assert!(Oka::default().cluster(&r, &[], 3).is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let r = diva_datagen::medical(250, 17);
        let rows: Vec<usize> = (0..r.n_rows()).collect();
        assert_eq!(
            Oka { seed: 4, ..Oka::default() }.cluster(&r, &rows, 5),
            Oka { seed: 4, ..Oka::default() }.cluster(&r, &rows, 5)
        );
    }

    #[test]
    fn capped_matches_quality_band_of_exact() {
        let r = diva_datagen::medical(400, 21);
        let k = 5;
        let exact = Oka::exact(4).anonymize(&r, k).relation.star_count();
        let capped = Oka { seed: 4, candidate_cap: Some(8) }.anonymize(&r, k).relation.star_count();
        assert!((capped as f64) < 1.8 * exact as f64, "exact {exact}, capped {capped}");
    }

    #[test]
    fn scan_range_rotates_and_caps() {
        let oka = Oka { seed: 0, candidate_cap: Some(3) };
        assert_eq!(oka.scan_range(0, 5), vec![0, 1, 2]);
        assert_eq!(oka.scan_range(4, 5), vec![4, 0, 1]);
        assert_eq!(oka.scan_range(1, 2), vec![0, 1]); // under cap: all
        assert_eq!(Oka::exact(0).scan_range(7, 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cluster_count_near_n_over_k() {
        let r = diva_datagen::medical(600, 19);
        let rows: Vec<usize> = (0..r.n_rows()).collect();
        let k = 10;
        let clusters = Oka::default().cluster(&r, &rows, k);
        assert!(clusters.len() <= 60);
        assert!(clusters.len() >= 30, "suspiciously few clusters: {}", clusters.len());
    }
}
