//! The `Integrate` step (Figure 1): unions `R_Σ` and `R_k` and repairs
//! upper-bound violations introduced by `R_k`.
//!
//! `R_Σ` satisfies every constraint on its own and lower bounds can
//! only *gain* occurrences from `R_k`, so the only possible violations
//! in `R_Σ ∪ R_k` are upper bounds (§3.1). A violation is repaired by
//! suppressing the constraint's target attribute(s) in whole QI-groups
//! of `R_k` — whole groups so that the result stays a union of
//! QI-uniform blocks, i.e. `k`-anonymity is preserved (suppression
//! only ever coarsens groups). Groups are chosen greedily to minimize
//! the suppression added per occurrence removed.

use diva_constraints::ConstraintSet;
use diva_relation::suppress::Suppressed;
use diva_relation::{Relation, RowId};

use crate::error::DivaError;

/// The integrated result.
#[derive(Debug)]
pub struct Integrated {
    /// `R′ = R_Σ ∪ R_k` after repairs.
    pub relation: Relation,
    /// QI-groups: the `S_Σ` clusters first, then `R_k`'s groups.
    pub groups: Vec<Vec<RowId>>,
    /// Maps output rows to rows of the original relation.
    pub source_rows: Vec<RowId>,
    /// Number of group-suppression repairs applied.
    pub repairs: usize,
    /// The repairs in the order they ran: the repaired group, as an
    /// index into `groups`, and the constraint whose upper bound it
    /// repaired. A repair stars the constraint's target columns in every
    /// row of the group.
    pub rounds: Vec<(usize, usize)>,
}

/// Unions `r_sigma` and `r_k` and repairs upper-bound violations.
///
/// `set` must be bound against the *original* relation (the codes are
/// shared because all derived relations share dictionaries). A group
/// only matches a constraint while its rows retain the target values,
/// and the repair stars them, so no cell is repaired twice.
pub fn integrate(
    r_sigma: &Suppressed,
    r_k: Option<&Suppressed>,
    set: &ConstraintSet,
) -> Result<Integrated, DivaError> {
    let mut relation = r_sigma.relation.clone();
    let mut groups = r_sigma.groups.clone();
    let mut source_rows = r_sigma.source_rows.clone();
    let sigma_rows = relation.n_rows();
    let mut k_groups: Vec<Vec<RowId>> = Vec::new();
    if let Some(rk) = r_k {
        relation.append(&rk.relation);
        for g in &rk.groups {
            let shifted: Vec<RowId> = g.iter().map(|r| r + sigma_rows).collect();
            k_groups.push(shifted.clone());
            groups.push(shifted);
        }
        source_rows.extend_from_slice(&rk.source_rows);
    }

    let mut rounds = Vec::new();
    loop {
        // Find the violated constraint with the largest overshoot.
        let mut worst: Option<(usize, usize)> = None; // (constraint, overshoot)
        for (i, c) in set.constraints().iter().enumerate() {
            let count = c.count_in(&relation);
            if count > c.upper {
                let overshoot = count - c.upper;
                if worst.is_none_or(|(_, o)| overshoot > o) {
                    worst = Some((i, overshoot));
                }
            }
        }
        let Some((ci, overshoot)) = worst else { break };
        let c = &set.constraints()[ci];

        // Candidate repair groups: R_k groups that uniformly retain the
        // target values (their first row matches on every target cell —
        // rows within a group are QI-identical by construction).
        let mut matching: Vec<usize> = (0..k_groups.len())
            .filter(|&gi| {
                let g = &k_groups[gi];
                !g.is_empty()
                    && c.cols
                        .iter()
                        .zip(&c.codes)
                        .all(|(&col, &code)| relation.code(g[0], col) == code)
            })
            .collect();
        if matching.is_empty() {
            return Err(DivaError::IntegrateFailed {
                constraint: c.label(),
                count: c.upper + overshoot,
                upper: c.upper,
            });
        }
        // Prefer the largest group that fits inside the overshoot
        // (removes the most occurrences without over-suppressing);
        // otherwise the smallest group that covers it.
        matching.sort_by_key(|&gi| k_groups[gi].len());
        let pick = matching
            .iter()
            .rev()
            .find(|&&gi| k_groups[gi].len() <= overshoot)
            .copied()
            .unwrap_or(matching[0]);
        for &row in &k_groups[pick] {
            for &col in &c.cols {
                relation.suppress_cell(row, col);
            }
        }
        rounds.push((r_sigma.groups.len() + pick, ci));
    }

    Ok(Integrated { relation, groups, source_rows, repairs: rounds.len(), rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_constraints::{Constraint, ConstraintSet};
    use diva_relation::fixtures::paper_table1;
    use diva_relation::is_k_anonymous;
    use diva_relation::suppress::suppress_clustering;

    #[test]
    fn paper_example_integration_needs_no_repair() {
        // Example 3.1: S_Σ covers rows 4..10; R_k anonymizes rows 0..4.
        let r = paper_table1();
        let sigma = vec![
            Constraint::single("ETH", "Asian", 2, 5),
            Constraint::single("ETH", "African", 1, 3),
            Constraint::single("CTY", "Vancouver", 2, 4),
        ];
        let set = ConstraintSet::bind(&sigma, &r).unwrap();
        let r_sigma = suppress_clustering(&r, &[vec![8, 9], vec![4, 5], vec![6, 7]]);
        let r_k = suppress_clustering(&r, &[vec![0, 1], vec![2, 3]]);
        let out = integrate(&r_sigma, Some(&r_k), &set).unwrap();
        assert_eq!(out.repairs, 0);
        assert_eq!(out.relation.n_rows(), 10);
        assert_eq!(out.groups.len(), 5);
        assert!(set.satisfied_by(&out.relation));
        assert!(is_k_anonymous(&out.relation, 2));
        // Row provenance: Σ rows then k rows.
        assert_eq!(out.source_rows, vec![8, 9, 4, 5, 6, 7, 0, 1, 2, 3]);
    }

    #[test]
    fn upper_bound_violation_is_repaired() {
        // Σ caps Caucasians at 2; R_Σ retains 0, R_k retains 4 (two
        // uniform Caucasian groups of two) → repair must suppress.
        let r = paper_table1();
        let sigma = vec![Constraint::single("ETH", "Caucasian", 0, 2)];
        let set = ConstraintSet::bind(&sigma, &r).unwrap();
        // R_Σ from an unrelated clustering (Asians, ETH retained).
        let r_sigma = suppress_clustering(&r, &[vec![7, 8]]);
        // R_k groups: {t1,t2} Caucasian uniform, {t3,t4} Caucasian
        // uniform, {t5,t6} African.
        let r_k = suppress_clustering(&r, &[vec![0, 1], vec![2, 3], vec![4, 5]]);
        let before = ConstraintSet::bind(&sigma, &r).unwrap();
        {
            // Sanity: unrepaired union violates the cap.
            let mut u = r_sigma.relation.clone();
            u.append(&r_k.relation);
            assert!(!before.satisfied_by(&u));
        }
        let out = integrate(&r_sigma, Some(&r_k), &set).unwrap();
        assert!(set.satisfied_by(&out.relation));
        assert!(out.repairs >= 1);
        // Exactly one group of two needed suppression (4 − 2 = 2): the
        // later of the two equal fits, {t3,t4}, after R_Σ's one group.
        assert_eq!(out.repairs, 1);
        assert_eq!(out.rounds, vec![(2, 0)]);
    }

    #[test]
    fn unrepairable_when_sigma_pins_occurrences() {
        // R_Σ itself retains 3 Asians but the constraint allows only 2:
        // integrate cannot touch R_Σ, so it must fail.
        let r = paper_table1();
        let sigma = vec![Constraint::single("ETH", "Asian", 0, 2)];
        let set = ConstraintSet::bind(&sigma, &r).unwrap();
        let r_sigma = suppress_clustering(&r, &[vec![7, 8, 9]]); // all Asians, ETH uniform
        let err = integrate(&r_sigma, None, &set).unwrap_err();
        assert!(matches!(err, DivaError::IntegrateFailed { .. }), "{err}");
    }

    #[test]
    fn no_rk_and_satisfied_passes_through() {
        let r = paper_table1();
        let sigma = vec![Constraint::single("ETH", "Asian", 2, 5)];
        let set = ConstraintSet::bind(&sigma, &r).unwrap();
        let r_sigma = suppress_clustering(&r, &[vec![7, 8]]);
        let out = integrate(&r_sigma, None, &set).unwrap();
        assert_eq!(out.repairs, 0);
        assert_eq!(out.relation.n_rows(), 2);
    }

    #[test]
    fn repair_prefers_small_enough_groups() {
        // Cap Males at 3. R_k has Male groups of sizes 2 and 3 (GEN
        // uniform). Retained Males = 5, overshoot 2 → the group of 2
        // is the perfect fit; repairs = 1 and the group of 3 survives.
        let r = paper_table1();
        let sigma = vec![Constraint::single("GEN", "Male", 0, 3)];
        let set = ConstraintSet::bind(&sigma, &r).unwrap();
        let r_sigma = suppress_clustering(&r, &[vec![7, 8]]); // Females
                                                              // Males: rows 2,3,4,5,6. Groups {2,3} and {4,5,6}.
        let r_k = suppress_clustering(&r, &[vec![2, 3], vec![4, 5, 6]]);
        let out = integrate(&r_sigma, Some(&r_k), &set).unwrap();
        assert_eq!(out.repairs, 1);
        assert_eq!(out.rounds, vec![(1, 0)], "the group of 2 follows R_Σ's one group");
        let gen = r.schema().col_of("GEN");
        let male = r.dict(gen).code("Male").unwrap();
        assert_eq!(out.relation.count_matching(&[gen], &[male]), 3);
        assert!(set.satisfied_by(&out.relation));
    }
}
