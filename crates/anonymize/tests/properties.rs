//! Property-based tests for the k-anonymization baselines and
//! ℓ-diversity enforcement.

use std::sync::Arc;

use diva_anonymize::{enforce_diversity, Anonymizer, DiversityModel, KMember, Mondrian, Oka};
use diva_relation::suppress::{is_refinement, suppress_clustering};
use diva_relation::{is_k_anonymous, Attribute, Relation, RelationBuilder, Schema};
use proptest::prelude::*;

fn arb_relation() -> impl Strategy<Value = Relation> {
    (2usize..4, 8usize..80).prop_flat_map(|(n_qi, n_rows)| {
        let row = proptest::collection::vec(0u8..5, n_qi + 1);
        proptest::collection::vec(row, n_rows).prop_map(move |rows| {
            let mut attrs: Vec<Attribute> =
                (0..n_qi).map(|i| Attribute::quasi(format!("Q{i}"))).collect();
            attrs.push(Attribute::sensitive("S"));
            let schema = Arc::new(Schema::new(attrs));
            let mut b = RelationBuilder::new(schema);
            for r in &rows {
                let vals: Vec<String> = r.iter().map(|v| format!("v{v}")).collect();
                b.push_row(&vals);
            }
            b.finish()
        })
    })
}

/// Relations drawn from a few QI templates, and the rows to cluster:
/// each row copies one template, and each attribute is redrawn with
/// probability 1/3 and ★ with probability 1/12. Exact duplicates
/// (cluster distance 0) and rows that differ on every attribute
/// (pairwise distance `n_qi`) both occur often, so the k-member scans
/// take their early exits. In half the cases rows with distinct `Q0`
/// values come first and are not clustered: after 300 of them the
/// clustered rows' `Q0` codes are 300 and above, after 252 the largest
/// is usually 255, one past what a byte lane holds beside ★.
fn arb_duplicate_heavy_relation() -> impl Strategy<Value = (Relation, Vec<usize>)> {
    (1usize..5, 1usize..6, 0usize..700, 0u8..4).prop_flat_map(
        |(n_qi, n_templates, n_rows, wide)| {
            let templates =
                proptest::collection::vec(proptest::collection::vec(0u8..4, n_qi), n_templates);
            let rows = proptest::collection::vec(
                (0..n_templates, proptest::collection::vec(0u8..12, n_qi), 0u8..3),
                n_rows,
            );
            (templates, rows).prop_map(move |(templates, rows)| {
                let mut attrs: Vec<Attribute> =
                    (0..n_qi).map(|i| Attribute::quasi(format!("Q{i}"))).collect();
                attrs.push(Attribute::sensitive("S"));
                let mut b = RelationBuilder::new(Arc::new(Schema::new(attrs)));
                let fillers = match wide {
                    0 => 300,
                    1 => 252,
                    _ => 0,
                };
                for f in 0..fillers {
                    let mut vals = vec![format!("w{f}")];
                    vals.resize(n_qi + 1, "w".to_string());
                    b.push_row(&vals);
                }
                for (t, noise, s) in &rows {
                    let mut vals: Vec<String> = templates[*t]
                        .iter()
                        .zip(noise)
                        .map(|(&v, &x)| match x {
                            11 => "★".to_string(),
                            0..=3 => format!("v{x}"),
                            _ => format!("v{v}"),
                        })
                        .collect();
                    vals.push(format!("s{s}"));
                    b.push_row(&vals);
                }
                (b.finish(), (fillers..fillers + rows.len()).collect())
            })
        },
    )
}

/// k-member as it was written before its scans stopped early: plain
/// `max_by_key` / `min_by_key` over the candidates and an information
/// loss recounted from the uniformity mask on every call. It shares
/// only [`QiMatrix`] and the RNG stream with [`KMember`].
mod reference {
    use diva_anonymize::QiMatrix;
    use diva_relation::{Relation, RowId};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    struct Cluster {
        uniform: Vec<Option<u32>>,
        members: Vec<usize>,
    }

    impl Cluster {
        fn lost(&self) -> usize {
            self.uniform.iter().filter(|u| u.is_none()).count()
        }

        fn il_increase(&self, m: &QiMatrix, i: usize) -> usize {
            let newly_lost = self
                .uniform
                .iter()
                .zip(m.row(i))
                .filter(|(u, &c)| matches!(u, Some(x) if *x != c))
                .count();
            let n = self.members.len();
            (n + 1) * (self.lost() + newly_lost) - n * self.lost()
        }

        fn push(&mut self, m: &QiMatrix, i: usize) {
            for (u, &c) in self.uniform.iter_mut().zip(m.row(i)) {
                if matches!(u, Some(x) if *x != c) {
                    *u = None;
                }
            }
            self.members.push(i);
        }
    }

    fn remove(items: &mut Vec<usize>, pos: &mut [usize], i: usize) {
        let p = pos[i];
        items.swap_remove(p);
        if let Some(&moved) = items.get(p) {
            pos[moved] = p;
        }
    }

    fn candidates(items: &[usize], cap: Option<usize>) -> &[usize] {
        &items[..cap.map_or(items.len(), |c| c.min(items.len()))]
    }

    pub fn kmember(
        rel: &Relation,
        rows: &[RowId],
        k: usize,
        seed: u64,
        cap: Option<usize>,
    ) -> Vec<Vec<RowId>> {
        if rows.is_empty() {
            return Vec::new();
        }
        let m = QiMatrix::new(rel, rows);
        let n = m.len();
        if n < k {
            return m.to_relation_clusters(&[(0..n).collect()]);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut items: Vec<usize> = (0..n).collect();
        items.shuffle(&mut rng);
        let mut pos = vec![0; n];
        for (p, &i) in items.iter().enumerate() {
            pos[i] = p;
        }
        let mut clusters: Vec<Cluster> = Vec::new();
        let mut prev_seed = items[rng.gen_range(0..items.len())];
        while items.len() >= k {
            let Some(&seed) =
                candidates(&items, cap).iter().max_by_key(|&&i| m.distance(prev_seed, i))
            else {
                break;
            };
            prev_seed = seed;
            remove(&mut items, &mut pos, seed);
            let mut c = Cluster {
                uniform: m.row(seed).iter().map(|&v| Some(v)).collect(),
                members: vec![seed],
            };
            while c.members.len() < k {
                let Some(&best) =
                    candidates(&items, cap).iter().min_by_key(|&&i| c.il_increase(&m, i))
                else {
                    break;
                };
                remove(&mut items, &mut pos, best);
                c.push(&m, best);
            }
            clusters.push(c);
        }
        for i in items.clone() {
            let Some(best) = (0..clusters.len()).min_by_key(|&ci| clusters[ci].il_increase(&m, i))
            else {
                continue;
            };
            clusters[best].push(&m, i);
        }
        let local: Vec<Vec<usize>> = clusters.into_iter().map(|c| c.members).collect();
        m.to_relation_clusters(&local)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The block scans publish exactly the clustering of the plain
    /// `min_by_key` / `max_by_key` scans, for every seed, cap and k, in
    /// byte lanes and in `u32` lanes, with and without ★ cells. Caps
    /// from 100 and up to 699 clustered rows make scans span several
    /// blocks.
    #[test]
    fn kmember_matches_the_full_scan_reference(
        (rel, rows) in arb_duplicate_heavy_relation(),
        k in 2usize..6,
        seed: u64,
        cap in prop_oneof![Just(None), (1usize..64).prop_map(Some), (100usize..400).prop_map(Some)],
    ) {
        let fast = KMember { seed, candidate_cap: cap }.cluster(&rel, &rows, k);
        prop_assert_eq!(fast, reference::kmember(&rel, &rows, k, seed, cap));
    }
}

/// At 255 QI attributes a mismatch count still fits a byte lane; at 256
/// the pool takes `u32` lanes although every code is small. Rows copy
/// one of three templates with a few attributes redrawn, so seed scans
/// meet rows differing on every attribute and growth scans meet
/// duplicates.
#[test]
fn kmember_matches_the_reference_at_255_and_256_qi_attributes() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    for n_qi in [255, 256] {
        let mut rng = StdRng::seed_from_u64(n_qi as u64);
        let mut attrs: Vec<Attribute> =
            (0..n_qi).map(|i| Attribute::quasi(format!("Q{i}"))).collect();
        attrs.push(Attribute::sensitive("S"));
        let mut b = RelationBuilder::new(Arc::new(Schema::new(attrs)));
        for _ in 0..300 {
            let template = rng.gen_range(0..3);
            let mut vals: Vec<String> = (0..n_qi)
                .map(|_| match rng.gen_range(0..40) {
                    0 => "★".to_string(),
                    1..=3 => format!("v{}", rng.gen_range(0..6)),
                    _ => format!("t{template}"),
                })
                .collect();
            vals.push(format!("s{}", rng.gen_range(0..3)));
            b.push_row(&vals);
        }
        let rel = b.finish();
        let rows: Vec<usize> = (0..rel.n_rows()).collect();
        for (k, cap) in [(3, None), (4, Some(150))] {
            let fast = KMember { seed: 7, candidate_cap: cap }.cluster(&rel, &rows, k);
            assert_eq!(
                fast,
                reference::kmember(&rel, &rows, k, 7, cap),
                "n_qi {n_qi}, cap {cap:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every baseline publishes a k-anonymous refinement covering all
    /// tuples, whenever |R| ≥ k.
    #[test]
    fn baselines_uphold_the_contract(rel in arb_relation(), k in 2usize..6, algo_idx in 0usize..3) {
        prop_assume!(rel.n_rows() >= 2 * k);
        let algo: Box<dyn Anonymizer> = match algo_idx {
            0 => Box::new(KMember { seed: 1, candidate_cap: Some(32) }),
            1 => Box::new(Oka { seed: 1, candidate_cap: Some(16) }),
            _ => Box::new(Mondrian),
        };
        let out = algo.anonymize(&rel, k);
        prop_assert!(is_k_anonymous(&out.relation, k), "{}", algo.name());
        prop_assert!(is_refinement(&rel, &out.relation, &out.source_rows));
        prop_assert_eq!(out.relation.n_rows(), rel.n_rows());
    }

    /// ℓ-diversity enforcement: whenever the input has ≥ l distinct
    /// sensitive values overall, enforcement succeeds and the
    /// suppressed result is ℓ-diverse and keeps every row.
    #[test]
    fn l_diversity_enforcement_succeeds_when_possible(
        rel in arb_relation(),
        k in 2usize..5,
        l in 1usize..4,
    ) {
        prop_assume!(rel.n_rows() >= 2 * k);
        let rows: Vec<usize> = (0..rel.n_rows()).collect();
        let clusters = Mondrian.cluster(&rel, &rows, k);
        let distinct_global = {
            use std::collections::HashSet;
            let s_col = rel.schema().arity() - 1;
            rows.iter().map(|&r| rel.code(r, s_col)).collect::<HashSet<_>>().len()
        };
        let model = DiversityModel::Distinct { l };
        match enforce_diversity(&rel, &clusters, &model) {
            Some((fixed, _)) => {
                let s = suppress_clustering(&rel, &fixed);
                prop_assert!(model.holds(&s.relation));
                let mut all: Vec<usize> = fixed.iter().flatten().copied().collect();
                all.sort_unstable();
                prop_assert_eq!(all, rows);
            }
            None => prop_assert!(
                distinct_global < l,
                "enforcement failed although {distinct_global} ≥ {l} distinct values exist"
            ),
        }
    }
}
