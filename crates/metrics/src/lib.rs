//! Information-loss metrics for anonymized relations.
//!
//! The paper's evaluation (Section 4) measures:
//!
//! * **information loss** as the number of suppressed `★` cells
//!   ([`star_count`], [`star_ratio`]);
//! * the **discernibility metric** `disc(R′, k)` of Bayardo &
//!   Agrawal ([`discernibility`]), which penalizes each tuple by the
//!   number of tuples indistinguishable from it;
//! * an **accuracy** in `[0, 1]`. The paper derives its accuracy from
//!   the discernibility metric, but the exact normalization lives in
//!   the unavailable extended version; we therefore report the
//!   star-based accuracy ([`star_accuracy`]) as the headline — it
//!   normalizes the paper's own information-loss objective — together
//!   with the ratio normalization of discernibility
//!   ([`disc_accuracy_ratio`]). Both are monotone in information loss,
//!   preserving the orderings and crossovers the figures show
//!   (`DESIGN.md` §2.7).

/// Privacy-model audit suite: k-anonymity through t-closeness.
pub mod audit;
/// Descriptive statistics of an anonymization result.
pub mod stats;

pub use audit::{audit, audit_with_obs, Audit, AuditReport, AuditSpec, AuditSuite, ModelKind};
pub use stats::GroupStats;

use diva_relation::{qi_groups, Relation};

/// Number of suppressed cells in `rel` — the paper's primary
/// information-loss count.
pub fn star_count(rel: &Relation) -> usize {
    rel.star_count()
}

/// Fraction of *QI* cells that are suppressed, in `[0, 1]`.
/// Sensitive/insensitive cells are never suppressed so they are not
/// part of the denominator. Returns 0 for an empty relation.
pub fn star_ratio(rel: &Relation) -> f64 {
    let qi_cells = rel.n_rows() * rel.schema().qi_cols().len();
    if qi_cells == 0 {
        return 0.0;
    }
    star_count(rel) as f64 / qi_cells as f64
}

/// The headline accuracy reported by the experiment harness: the
/// star-based accuracy `1 − star_ratio`, directly normalizing the
/// paper's information-loss objective (the number of `★`s) into
/// `[0, 1]`. [`disc_accuracy_ratio`] is reported alongside (see
/// `EXPERIMENTS.md` for the metric mapping).
///
/// ```
/// use diva_relation::fixtures::paper_table1;
/// let mut r = paper_table1();
/// assert_eq!(diva_metrics::star_accuracy(&r), 1.0); // nothing suppressed
/// r.suppress_cell(0, 0);
/// assert!(diva_metrics::star_accuracy(&r) < 1.0);
/// ```
pub fn star_accuracy(rel: &Relation) -> f64 {
    1.0 - star_ratio(rel)
}

/// The discernibility metric `disc(R′, k)` [Bayardo & Agrawal 2005]:
/// every tuple in a maximal QI-group `g` with `|g| ≥ k` is charged
/// `|g|` (so the group contributes `|g|²`); tuples in under-size groups
/// are charged `|R′|` each (they would have to be fully suppressed or
/// removed), contributing `|R′|·|g|`.
pub fn discernibility(rel: &Relation, k: usize) -> u64 {
    let n = rel.n_rows() as u64;
    qi_groups(rel)
        .sizes()
        .map(|s| {
            let s = s as u64;
            if s >= k as u64 {
                s * s
            } else {
                n * s
            }
        })
        .sum()
}

/// Ratio-normalized discernibility accuracy in `(0, 1]`:
///
/// ```text
/// accuracy = k·|R| / disc(R′, k)
/// ```
///
/// `k·|R|` is the best achievable `disc` (a perfect partition into
/// groups of exactly `k`), so the ratio is 1 for an ideal
/// anonymization and decays as groups coarsen or fall under size —
/// e.g. one giant group scores `k/|R|`. This is the inverse of the
/// standard "normalized average equivalence-class size" flavour of
/// the metric and is the discernibility series our experiment harness
/// reports next to the star-based accuracy. An empty relation scores
/// 1.
pub fn disc_accuracy_ratio(rel: &Relation, k: usize) -> f64 {
    let n = rel.n_rows() as u64;
    if n == 0 {
        return 1.0;
    }
    let disc = discernibility(rel, k);
    let best = (k as u64).min(n) * n;
    (best as f64 / disc as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_relation::fixtures::paper_table1;
    use diva_relation::suppress::suppress_clustering;
    use diva_relation::{Attribute, RelationBuilder, Schema};
    use std::sync::Arc;

    fn uniform_groups(sizes: &[usize]) -> Relation {
        // Build a relation whose maximal QI-groups have exactly the
        // given sizes, using one QI attribute with distinct values.
        let schema = Arc::new(Schema::new(vec![Attribute::quasi("A")]));
        let mut b = RelationBuilder::new(schema);
        for (g, &s) in sizes.iter().enumerate() {
            for _ in 0..s {
                b.push_row(&[format!("g{g}")]);
            }
        }
        b.finish()
    }

    #[test]
    fn discernibility_counts_squares() {
        let r = uniform_groups(&[3, 3, 4]);
        assert_eq!(discernibility(&r, 3), 9 + 9 + 16);
    }

    #[test]
    fn discernibility_penalizes_undersize_groups() {
        let r = uniform_groups(&[2, 8]); // n = 10
                                         // Group of 2 < k=3: charged 10·2; group of 8: 64.
        assert_eq!(discernibility(&r, 3), 20 + 64);
    }

    #[test]
    fn ratio_perfect_partition_is_one() {
        let r = uniform_groups(&[3, 3, 3]);
        assert!((disc_accuracy_ratio(&r, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_single_group_is_k_over_n() {
        let r = uniform_groups(&[9]);
        // k/|R| = 1/3.
        assert!((disc_accuracy_ratio(&r, 3) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn disc_accuracy_monotone_in_group_coarseness() {
        let fine = uniform_groups(&[3, 3, 3, 3]);
        let coarse = uniform_groups(&[6, 6]);
        assert!(disc_accuracy_ratio(&fine, 3) > disc_accuracy_ratio(&coarse, 3));
    }

    #[test]
    fn disc_accuracy_empty_relation() {
        let schema = Arc::new(Schema::new(vec![Attribute::quasi("A")]));
        let r = diva_relation::Relation::empty(schema);
        assert_eq!(disc_accuracy_ratio(&r, 5), 1.0);
        assert_eq!(star_ratio(&r), 0.0);
    }

    #[test]
    fn disc_accuracy_k_equals_n() {
        let r = uniform_groups(&[4]);
        assert_eq!(disc_accuracy_ratio(&r, 4), 1.0);
    }

    #[test]
    fn star_accuracy_without_stars_is_one() {
        let r = uniform_groups(&[3, 3]);
        assert_eq!(star_accuracy(&r), 1.0); // nothing suppressed
    }

    #[test]
    fn ratio_penalizes_undersize_groups() {
        // n=10, k=3: groups [2,8] → disc = 10·2 + 64 = 84 vs best 30.
        let r = uniform_groups(&[2, 8]);
        assert!((disc_accuracy_ratio(&r, 3) - 30.0 / 84.0).abs() < 1e-12);
    }

    #[test]
    fn star_ratio_on_paper_example() {
        let r = paper_table1();
        let clusters: Vec<Vec<usize>> =
            vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7], vec![8, 9]];
        let s = suppress_clustering(&r, &clusters);
        assert_eq!(star_count(&s.relation), s.relation.star_count());
        let ratio = star_ratio(&s.relation);
        assert!(ratio > 0.0 && ratio < 1.0);
        assert!((star_accuracy(&s.relation) - (1.0 - ratio)).abs() < 1e-12);
    }

    #[test]
    fn full_suppression_ratio_is_one() {
        let r = paper_table1();
        let n = r.n_rows();
        let s = suppress_clustering(&r, &[(0..n).collect()]);
        assert_eq!(star_ratio(&s.relation), 1.0);
        assert_eq!(star_accuracy(&s.relation), 0.0);
    }
}
