//! QI-groups and `k`-anonymity (Definition 2.1 of the paper).

use std::collections::HashMap;

use crate::relation::Relation;
use crate::value::STAR_CODE;
use crate::RowId;

/// The maximal QI-groups of a relation: a partition of rows such that
/// two rows are in the same group iff they agree on every QI attribute.
#[derive(Debug, Clone)]
pub struct QiGroups {
    groups: Vec<Vec<RowId>>,
}

impl QiGroups {
    /// The groups, each a list of row ids in ascending order. Group
    /// order follows first appearance in the relation.
    pub fn groups(&self) -> &[Vec<RowId>] {
        &self.groups
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups (empty relation).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Size of the smallest group, or `None` for an empty relation.
    pub fn min_group_size(&self) -> Option<usize> {
        self.groups.iter().map(Vec::len).min()
    }

    /// Iterates over group sizes.
    pub fn sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.groups.iter().map(Vec::len)
    }
}

/// Computes the maximal QI-groups of `rel` by hashing QI code vectors.
pub fn qi_groups(rel: &Relation) -> QiGroups {
    let qi_cols = rel.schema().qi_cols();
    let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
    let mut groups: Vec<Vec<RowId>> = Vec::new();
    for row in 0..rel.n_rows() {
        let key: Vec<u32> = qi_cols.iter().map(|&c| rel.column(c)[row]).collect();
        let gid = *index.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[gid].push(row);
    }
    QiGroups { groups }
}

/// Sorts `rows` by their QI code vectors, compared column by column in
/// schema order with ★ after every code. The sort is stable, so
/// ascending row ids come out with ties in row-id order: the QI
/// similarity order that candidate enumeration cuts clusters from and
/// the audit scans for equivalence classes.
///
/// One stable counting pass per QI column, last column first (LSD
/// radix). A pass costs O(rows + the column's largest code) and is
/// skipped when every row holds the same value; the scratch is one
/// second row buffer and one count per code.
pub fn qi_sorted(rel: &Relation, mut rows: Vec<RowId>) -> Vec<RowId> {
    let mut scratch = Vec::new();
    // `starts[x + 1]` counts the rows holding code `x`, then, summed,
    // `starts[x]` is where they go; ★ rows go after every code.
    let mut starts: Vec<usize> = Vec::new();
    for &c in rel.schema().qi_cols().iter().rev() {
        let col = rel.column(c);
        starts.clear();
        let mut stars = 0;
        for &r in &rows {
            match col[r] {
                STAR_CODE => stars += 1,
                x => {
                    let b = x as usize + 1;
                    if b >= starts.len() {
                        starts.resize(b + 1, 0);
                    }
                    starts[b] += 1;
                }
            }
        }
        if stars == rows.len() || starts.contains(&rows.len()) {
            continue;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        let mut next_star = rows.len() - stars;
        scratch.resize(rows.len(), 0);
        for &r in &rows {
            let slot = match col[r] {
                STAR_CODE => &mut next_star,
                x => &mut starts[x as usize],
            };
            scratch[*slot] = r;
            *slot += 1;
        }
        std::mem::swap(&mut rows, &mut scratch);
    }
    rows
}

/// Whether `rel` is `k`-anonymous: every tuple lies in a maximal
/// QI-group of size ≥ `k` (Definition 2.1). An empty relation is
/// vacuously `k`-anonymous.
pub fn is_k_anonymous(rel: &Relation, k: usize) -> bool {
    qi_groups(rel).min_group_size().is_none_or(|m| m >= k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RelationBuilder;
    use crate::schema::{Attribute, Schema};
    use std::sync::Arc;

    /// Table 2 of the paper: a 3-anonymous suppression of the medical
    /// relation.
    fn table2() -> Relation {
        let schema = Arc::new(Schema::new(vec![
            Attribute::quasi("GEN"),
            Attribute::quasi("ETH"),
            Attribute::quasi("AGE"),
            Attribute::quasi("PRV"),
            Attribute::quasi("CTY"),
            Attribute::sensitive("DIAG"),
        ]));
        let mut b = RelationBuilder::new(schema);
        b.push_row(&["★", "Caucasian", "★", "AB", "Calgary", "Hypertension"]);
        b.push_row(&["★", "Caucasian", "★", "AB", "Calgary", "Tuberculosis"]);
        b.push_row(&["★", "Caucasian", "★", "AB", "Calgary", "Osteoarthritis"]);
        b.push_row(&["Male", "★", "★", "★", "★", "Migraine"]);
        b.push_row(&["Male", "★", "★", "★", "★", "Hypertension"]);
        b.push_row(&["Male", "★", "★", "★", "★", "Seizure"]);
        b.push_row(&["Male", "★", "★", "★", "★", "Hypertension"]);
        b.push_row(&["Female", "Asian", "★", "★", "★", "Seizure"]);
        b.push_row(&["Female", "Asian", "★", "★", "★", "Influenza"]);
        b.push_row(&["Female", "Asian", "★", "★", "★", "Migraine"]);
        b.finish()
    }

    #[test]
    fn paper_table2_groups() {
        let r = table2();
        let g = qi_groups(&r);
        assert_eq!(g.len(), 3);
        let mut sizes: Vec<usize> = g.sizes().collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![3, 3, 4]);
    }

    #[test]
    fn paper_table2_is_3_anonymous() {
        let r = table2();
        assert!(is_k_anonymous(&r, 3));
        assert!(is_k_anonymous(&r, 1));
        assert!(!is_k_anonymous(&r, 4));
    }

    #[test]
    fn distinct_rows_are_1_anonymous_only() {
        let schema = Arc::new(Schema::new(vec![Attribute::quasi("A")]));
        let mut b = RelationBuilder::new(schema);
        b.push_row(&["x"]);
        b.push_row(&["y"]);
        let r = b.finish();
        assert!(is_k_anonymous(&r, 1));
        assert!(!is_k_anonymous(&r, 2));
    }

    #[test]
    fn empty_relation_is_vacuously_anonymous() {
        let schema = Arc::new(Schema::new(vec![Attribute::quasi("A")]));
        let r = Relation::empty(schema);
        assert!(is_k_anonymous(&r, 100));
        assert!(qi_groups(&r).is_empty());
        assert_eq!(qi_groups(&r).min_group_size(), None);
    }

    #[test]
    fn suppressed_cells_group_together() {
        let schema = Arc::new(Schema::new(vec![Attribute::quasi("A"), Attribute::quasi("B")]));
        let mut b = RelationBuilder::new(schema);
        b.push_row(&["x", "★"]);
        b.push_row(&["x", "★"]);
        b.push_row(&["x", "y"]);
        let r = b.finish();
        let g = qi_groups(&r);
        assert_eq!(g.len(), 2);
        assert_eq!(g.groups()[0], vec![0, 1]);
        assert_eq!(g.groups()[1], vec![2]);
    }

    #[test]
    fn groups_without_qi_attrs_form_one_group() {
        let schema = Arc::new(Schema::new(vec![Attribute::sensitive("S")]));
        let mut b = RelationBuilder::new(schema);
        b.push_row(&["a"]);
        b.push_row(&["b"]);
        let r = b.finish();
        let g = qi_groups(&r);
        assert_eq!(g.len(), 1);
        assert!(is_k_anonymous(&r, 2));
    }
}
