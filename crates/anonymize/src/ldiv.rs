//! ℓ-diversity: checking and enforcement on top of suppression-based
//! QI-groups.
//!
//! The paper positions k-anonymity as its privacy definition "for its
//! ease of presentation" and notes that DIVA "is extensible to
//! re-define the clustering criteria according to these privacy
//! semantics" (§5). This module provides that extension for the three
//! ℓ-diversity variants of [`DiversityModel`] [Machanavajjhala et al.
//! 2006]: every QI-group must carry enough sensitive diversity that an
//! attacker who locates an individual's group still cannot infer their
//! sensitive value.
//!
//! One check ([`DiversityModel::class_ok`], [`DiversityModel::holds`])
//! and one enforcement: [`enforce_diversity`] post-processes any
//! clustering (DIVA's or a baseline's) by greedily merging deficient
//! clusters into the neighbour that fixes the deficit at the least QI
//! disagreement. Merging only ever unions clusters, so `k`-anonymity
//! is preserved.

use diva_relation::{qi_groups, Relation, RowId};

/// Which ℓ-diversity variant to enforce. `Distinct` is the historical
/// extension; `Entropy` and `Recursive` are the stronger instantiations
/// from Machanavajjhala et al., with the enforcement/checking split
/// analyzed by Xiao/Yi/Tao (*The Hardness and Approximation Algorithms
/// for L-Diversity*). All three are *monotone under merging* in the
/// sense the greedy repair needs: the whole table as a single class is
/// the weakest clustering, so feasibility reduces to checking it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiversityModel {
    /// Every class has at least `l` distinct sensitive values.
    Distinct {
        /// The required number of distinct sensitive values (1 = off).
        l: usize,
    },
    /// Every class's sensitive distribution has perplexity
    /// `exp(H) ≥ l` (entropy ℓ-diversity, stated base-invariantly).
    Entropy {
        /// The required effective number of sensitive values (1 = off).
        l: usize,
    },
    /// Recursive (c,ℓ)-diversity: with the class's sensitive counts
    /// sorted descending `r₁ ≥ … ≥ r_m`, require `m ≥ l` and
    /// `r₁ ≤ c·(r_l + … + r_m)`.
    Recursive {
        /// The frequency-ratio parameter `c` (must be positive).
        c: f64,
        /// The tail index `ℓ` (values < 1 are treated as 1).
        l: usize,
    },
}

impl DiversityModel {
    /// The model's ℓ parameter. For every variant, a class satisfying
    /// the model has at least ℓ distinct sensitive values, so ℓ is a
    /// sound candidate-generation filter for all three.
    pub fn l(&self) -> usize {
        match *self {
            DiversityModel::Distinct { l } | DiversityModel::Entropy { l } => l,
            DiversityModel::Recursive { l, .. } => l.max(1),
        }
    }

    /// Whether enforcement is a no-op: every non-empty class satisfies
    /// the model trivially.
    pub fn is_trivial(&self) -> bool {
        match *self {
            DiversityModel::Distinct { l } | DiversityModel::Entropy { l } => l <= 1,
            // With ℓ = 1 the tail is the whole class, so r₁ ≤ c·size
            // holds for every class as soon as c ≥ 1.
            DiversityModel::Recursive { c, l } => l <= 1 && c >= 1.0,
        }
    }

    /// Whether the class formed by `rows` satisfies the model. An
    /// empty class vacuously satisfies every variant.
    pub fn class_ok(&self, rel: &Relation, rows: &[RowId]) -> bool {
        if rows.is_empty() {
            return true;
        }
        match *self {
            DiversityModel::Distinct { l } => sensitive_counts_sorted(rel, rows).len() >= l,
            DiversityModel::Entropy { l } => {
                perplexity(&sensitive_counts_sorted(rel, rows)) >= l as f64 - 1e-9
            }
            DiversityModel::Recursive { c, l } => {
                let l = l.max(1);
                let mut counts = sensitive_counts_sorted(rel, rows);
                counts.reverse(); // descending
                let r1 = counts.first().copied().unwrap_or(0) as f64;
                let tail: usize = counts.iter().skip(l - 1).sum();
                tail > 0 && r1 <= c * tail as f64 + 1e-9
            }
        }
    }

    /// Whether every maximal QI-group of `rel` satisfies the model.
    pub fn holds(&self, rel: &Relation) -> bool {
        qi_groups(rel).groups().iter().all(|g| self.class_ok(rel, g))
    }
}

impl std::fmt::Display for DiversityModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DiversityModel::Distinct { l } => write!(f, "distinct {l}-diversity"),
            DiversityModel::Entropy { l } => write!(f, "entropy {l}-diversity"),
            DiversityModel::Recursive { c, l } => write!(f, "recursive ({c},{l})-diversity"),
        }
    }
}

/// Sorted per-combination counts of the sensitive values among `rows`
/// (ascending; deterministic because the combinations are sorted
/// before run-length encoding). Rows with no sensitive attributes each
/// count as their own combination.
fn sensitive_counts_sorted(rel: &Relation, rows: &[RowId]) -> Vec<usize> {
    let sens_cols: Vec<usize> = (0..rel.schema().arity())
        .filter(|&c| rel.schema().attribute(c).role() == diva_relation::AttrRole::Sensitive)
        .collect();
    if sens_cols.is_empty() {
        return vec![1; rows.len()];
    }
    let mut combos: Vec<Vec<u32>> =
        rows.iter().map(|&r| sens_cols.iter().map(|&c| rel.code(r, c)).collect()).collect();
    combos.sort_unstable();
    let mut counts: Vec<usize> = Vec::new();
    let mut i = 0;
    while i < combos.len() {
        let mut j = i + 1;
        while j < combos.len() && combos[j] == combos[i] {
            j += 1;
        }
        counts.push(j - i);
        i = j;
    }
    counts.sort_unstable();
    counts
}

/// Perplexity `exp(H)` of a count histogram under the natural-log
/// Shannon entropy — the base-invariant form of entropy ℓ-diversity
/// (kept deliberately independent of `diva-metrics`' implementation:
/// the auditor re-derives it to cross-check the enforcer).
fn perplexity(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    let weighted: f64 =
        counts.iter().filter(|&&c| c > 0).map(|&c| (c as f64) * (c as f64).ln()).sum();
    ((n.ln() - weighted / n).max(0.0)).exp()
}

/// Greedily merges clusters of `clustering` (over `rel`) until every
/// cluster satisfies `model`, or returns `None` when even the whole
/// input as a single class does not (then no clustering can).
///
/// Each pass takes the first deficient cluster and merges it into the
/// cluster that (a) fixes the deficit if any can, and (b) costs the
/// fewest additional suppressed attributes, estimated by QI
/// disagreement between cluster representatives. The loop strictly
/// decreases the cluster count, and the single remaining cluster is
/// exactly the feasibility pre-check, so termination and completeness
/// hold for every variant. Merging only unions clusters, so
/// `k`-anonymity is preserved.
///
/// Alongside the fixed clustering it returns a parallel flag vector
/// marking clusters that absorbed a deficient sibling (the
/// decision-provenance layer tags these groups `DiversityMerge`
/// instead of plain `KMember`).
pub fn enforce_diversity(
    rel: &Relation,
    clustering: &[Vec<RowId>],
    model: &DiversityModel,
) -> Option<(Vec<Vec<RowId>>, Vec<bool>)> {
    let all_rows: Vec<RowId> = clustering.iter().flatten().copied().collect();
    if !all_rows.is_empty() && !model.class_ok(rel, &all_rows) {
        return None;
    }
    let mut clusters: Vec<Vec<RowId>> =
        clustering.iter().filter(|c| !c.is_empty()).cloned().collect();
    // `merged[i]` mirrors `clusters[i]` through the same swap_remove /
    // extend operations, so the flags stay parallel to the output.
    let mut merged = vec![false; clusters.len()];
    loop {
        let Some(bad) = clusters.iter().position(|c| !model.class_ok(rel, c)) else {
            return Some((clusters, merged));
        };
        if clusters.len() == 1 {
            // Single cluster but the global distinct count is ≥ l, so
            // this cannot happen; defensive.
            return None;
        }
        let victim = clusters.swap_remove(bad);
        merged.swap_remove(bad);
        // Pick the merge partner: first preference to partners that
        // close the deficit, then minimal QI disagreement.
        let deficit_fixed = |partner: &Vec<RowId>| {
            let mut merged = partner.clone();
            merged.extend_from_slice(&victim);
            model.class_ok(rel, &merged)
        };
        let qi_cols = rel.schema().qi_cols();
        let disagreement = |partner: &Vec<RowId>| -> usize {
            qi_cols.iter().filter(|&&c| rel.code(partner[0], c) != rel.code(victim[0], c)).count()
        };
        let Some(best) = (0..clusters.len())
            .min_by_key(|&i| (!deficit_fixed(&clusters[i]), disagreement(&clusters[i])))
        else {
            return None; // defensive: at least one partner remains
        };
        clusters[best].extend_from_slice(&victim);
        clusters[best].sort_unstable();
        merged[best] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Anonymizer, KMember};
    use diva_relation::fixtures::paper_table1;
    use diva_relation::is_k_anonymous;
    use diva_relation::suppress::suppress_clustering;

    #[test]
    fn table1_group_diversity() {
        let r = paper_table1();
        // Each tuple its own group: 1 distinct sensitive value per
        // group → 1-diverse, not 2-diverse.
        assert!(DiversityModel::Distinct { l: 1 }.holds(&r));
        assert!(!DiversityModel::Distinct { l: 2 }.holds(&r));
    }

    #[test]
    fn suppressed_groups_can_be_diverse() {
        let r = paper_table1();
        // {t1,t2}: Hypertension + Tuberculosis → 2 distinct.
        let s = suppress_clustering(&r, &[vec![0, 1]]);
        assert!(DiversityModel::Distinct { l: 2 }.holds(&s.relation));
        // {t5,t7} (rows 4, 6): Hypertension + Hypertension → only 1.
        let s = suppress_clustering(&r, &[vec![4, 6]]);
        assert!(!DiversityModel::Distinct { l: 2 }.holds(&s.relation));
    }

    #[test]
    fn enforce_merges_deficient_clusters() {
        let r = paper_table1();
        // {t5,t7} shares Hypertension; {t1,t2} is fine.
        let clustering = vec![vec![4, 6], vec![0, 1]];
        let model = DiversityModel::Distinct { l: 2 };
        let (fixed, _) = enforce_diversity(&r, &clustering, &model).expect("feasible");
        let s = suppress_clustering(&r, &fixed);
        assert!(model.holds(&s.relation));
        // All four rows still present.
        let mut rows: Vec<usize> = fixed.iter().flatten().copied().collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![0, 1, 4, 6]);
    }

    #[test]
    fn enforce_detects_infeasible() {
        let r = paper_table1();
        // Only Hypertension rows: 1 distinct value, 2-diversity
        // impossible.
        let model = DiversityModel::Distinct { l: 2 };
        assert!(enforce_diversity(&r, &[vec![0, 4], vec![6]], &model).is_none());
    }

    #[test]
    fn enforce_on_kmember_output() {
        let r = diva_datagen::medical(600, 3);
        let k = 5;
        let clusters = KMember::default().cluster(&r, &(0..600).collect::<Vec<_>>(), k);
        let model = DiversityModel::Distinct { l: 3 };
        let (fixed, _) = enforce_diversity(&r, &clusters, &model).expect("medical has 8 diagnoses");
        let s = suppress_clustering(&r, &fixed);
        assert!(model.holds(&s.relation));
        assert!(is_k_anonymous(&s.relation, k), "merging must preserve k-anonymity");
        assert_eq!(s.relation.n_rows(), 600);
    }

    #[test]
    fn entropy_model_is_stricter_than_distinct() {
        let r = paper_table1();
        // {t4,t5,t6,t7} (rows 3..7): diagnoses Migraine, Hyp, Seizure,
        // Hyp → 3 distinct but perplexity 2^1.5 ≈ 2.83 < 3.
        let rows = vec![3, 4, 5, 6];
        let distinct = DiversityModel::Distinct { l: 3 };
        let entropy = DiversityModel::Entropy { l: 3 };
        assert!(distinct.class_ok(&r, &rows));
        assert!(!entropy.class_ok(&r, &rows));
        assert!(DiversityModel::Entropy { l: 2 }.class_ok(&r, &rows));
    }

    #[test]
    fn recursive_model_hand_scored() {
        let r = paper_table1();
        // Counts [2,1,1] (rows 3..7): r1 = 2, l = 2 tail = 1+1 = 2 →
        // needs c ≥ 1.
        let rows = vec![3, 4, 5, 6];
        assert!(DiversityModel::Recursive { c: 1.0, l: 2 }.class_ok(&r, &rows));
        assert!(!DiversityModel::Recursive { c: 0.9, l: 2 }.class_ok(&r, &rows));
        // l = 4 with 3 distinct values: tail empty → unsatisfiable.
        assert!(!DiversityModel::Recursive { c: 100.0, l: 4 }.class_ok(&r, &rows));
    }

    #[test]
    fn enforce_diversity_entropy_and_recursive() {
        let r = diva_datagen::medical(600, 3);
        let k = 5;
        let clusters = KMember::default().cluster(&r, &(0..600).collect::<Vec<_>>(), k);
        for model in [DiversityModel::Entropy { l: 3 }, DiversityModel::Recursive { c: 1.5, l: 2 }]
        {
            let (fixed, _) = enforce_diversity(&r, &clusters, &model).expect("feasible on medical");
            let s = suppress_clustering(&r, &fixed);
            assert!(model.holds(&s.relation), "{model} must hold after enforcement");
            assert!(is_k_anonymous(&s.relation, k), "merging must preserve k-anonymity");
            assert_eq!(s.relation.n_rows(), 600);
        }
    }

    #[test]
    fn enforce_diversity_detects_infeasible_models() {
        let r = paper_table1();
        // Whole-table diagnoses are dominated by Hypertension (4 of
        // 10): recursive (0.1, 2) fails even on the single class.
        let all: Vec<usize> = (0..10).collect();
        let model = DiversityModel::Recursive { c: 0.1, l: 2 };
        assert!(enforce_diversity(&r, &[all], &model).is_none());
        // Entropy l beyond the distinct count is infeasible too.
        let model = DiversityModel::Entropy { l: 9 };
        assert!(enforce_diversity(&r, &[(0..10).collect()], &model).is_none());
    }

    #[test]
    fn model_metadata() {
        assert!(DiversityModel::Distinct { l: 1 }.is_trivial());
        assert!(DiversityModel::Entropy { l: 1 }.is_trivial());
        assert!(DiversityModel::Recursive { c: 1.0, l: 1 }.is_trivial());
        assert!(!DiversityModel::Recursive { c: 0.5, l: 1 }.is_trivial());
        assert!(!DiversityModel::Entropy { l: 2 }.is_trivial());
        assert_eq!(DiversityModel::Recursive { c: 2.0, l: 0 }.l(), 1);
        assert_eq!(DiversityModel::Entropy { l: 4 }.l(), 4);
        assert_eq!(DiversityModel::Distinct { l: 2 }.to_string(), "distinct 2-diversity");
    }

    #[test]
    fn empty_and_trivial_cases() {
        let r = paper_table1();
        let model = DiversityModel::Distinct { l: 2 };
        assert_eq!(enforce_diversity(&r, &[], &model), Some((vec![], vec![])));
        let (one, _) =
            enforce_diversity(&r, &[vec![0, 1]], &DiversityModel::Distinct { l: 1 }).unwrap();
        assert_eq!(one, vec![vec![0, 1]]);
        let empty = diva_relation::Relation::empty(diva_relation::fixtures::medical_schema());
        assert!(DiversityModel::Distinct { l: 5 }.holds(&empty));
    }
}
