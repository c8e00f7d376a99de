//! Property-based tests for the relational substrate.

use std::sync::Arc;

use diva_relation::csv::{read_relation, write_relation};
use diva_relation::suppress::{is_refinement, suppress_clustering};
use diva_relation::{is_k_anonymous, qi_groups, AttrRole, Attribute, RelationBuilder, Schema};
use proptest::prelude::*;

/// Strategy: a small relation with `n_qi` QI columns and one sensitive
/// column, values drawn from a small alphabet (so collisions happen).
fn small_relation() -> impl Strategy<Value = diva_relation::Relation> {
    (1usize..4, 1usize..30).prop_flat_map(|(n_qi, n_rows)| {
        let row = proptest::collection::vec(0u8..4, n_qi + 1);
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

/// Strategy: a partition of `0..n` into clusters (random assignment).
fn partition(n: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(0usize..n.clamp(1, 5), n).prop_map(move |assign| {
        let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); 5];
        for (row, &c) in assign.iter().enumerate() {
            clusters[c].push(row);
        }
        clusters.retain(|c| !c.is_empty());
        clusters
    })
}

proptest! {
    /// Suppress output is always a refinement of its input (R ⊑ R′).
    #[test]
    fn suppress_is_refinement(rel in small_relation()) {
        let n = rel.n_rows();
        let clusters: Vec<Vec<usize>> = vec![(0..n).collect()];
        let s = suppress_clustering(&rel, &clusters);
        prop_assert!(is_refinement(&rel, &s.relation, &s.source_rows));
    }

    /// Each input cluster forms a QI-uniform block in the output: the
    /// output of Suppress restricted to one cluster has a single
    /// distinct QI projection.
    #[test]
    fn suppress_makes_clusters_uniform(
        (rel, clusters) in small_relation().prop_flat_map(|r| {
            let n = r.n_rows();
            partition(n).prop_map(move |p| (r.clone(), p))
        })
    ) {
        let s = suppress_clustering(&rel, &clusters);
        for g in &s.groups {
            for w in g.windows(2) {
                prop_assert!(s.relation.qi_equal(w[0], w[1]));
            }
        }
    }

    /// Suppressing a single whole-relation cluster yields a relation
    /// that is k-anonymous for k = |R|.
    #[test]
    fn whole_cluster_is_fully_anonymous(rel in small_relation()) {
        let n = rel.n_rows();
        let s = suppress_clustering(&rel, &[(0..n).collect()]);
        prop_assert!(is_k_anonymous(&s.relation, n));
    }

    /// QI-groups partition the rows: disjoint, covering, non-empty.
    #[test]
    fn qi_groups_partition(rel in small_relation()) {
        let g = qi_groups(&rel);
        let mut seen = vec![false; rel.n_rows()];
        for group in g.groups() {
            prop_assert!(!group.is_empty());
            for &r in group {
                prop_assert!(!seen[r], "row {r} in two groups");
                seen[r] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    /// Rows in the same QI-group agree on QI attributes; rows in
    /// different groups differ somewhere.
    #[test]
    fn qi_groups_are_maximal(rel in small_relation()) {
        let g = qi_groups(&rel);
        for group in g.groups() {
            for w in group.windows(2) {
                prop_assert!(rel.qi_equal(w[0], w[1]));
            }
        }
        for (i, ga) in g.groups().iter().enumerate() {
            for gb in g.groups().iter().skip(i + 1) {
                prop_assert!(!rel.qi_equal(ga[0], gb[0]));
            }
        }
    }

    /// CSV round-trip: write then read preserves every cell.
    #[test]
    fn csv_round_trip(rel in small_relation()) {
        let text = write_relation(&rel);
        let roles: Vec<AttrRole> =
            rel.schema().attributes().iter().map(|a| a.role()).collect();
        let back = read_relation(&text, &roles).unwrap();
        prop_assert_eq!(back.n_rows(), rel.n_rows());
        for row in 0..rel.n_rows() {
            for col in 0..rel.schema().arity() {
                let a = rel.value(row, col).as_str().to_owned();
                let b = back.value(row, col).as_str().to_owned();
                prop_assert_eq!(a, b);
            }
        }
    }

    /// CSV reader round-trips arbitrary field content through quoting.
    #[test]
    fn csv_field_quoting_round_trip(fields in proptest::collection::vec("[ -~]*", 1..5)) {
        // Build one record by writing a single-row relation.
        let attrs: Vec<Attribute> = (0..fields.len())
            .map(|i| Attribute::quasi(format!("C{i}")))
            .collect();
        let schema = Arc::new(Schema::new(attrs));
        let mut b = RelationBuilder::new(schema);
        b.push_row(&fields);
        let rel = b.finish();
        let text = write_relation(&rel);
        let back = read_relation(&text, &vec![AttrRole::Quasi; fields.len()]).unwrap();
        prop_assert_eq!(back.n_rows(), 1);
        let read: Vec<String> =
            (0..fields.len()).map(|col| back.value(0, col).to_string()).collect();
        prop_assert_eq!(&read, &fields);
    }

    /// star_count equals the number of suppressed cells we created.
    #[test]
    fn star_count_matches_suppressions(
        rel in small_relation(),
        picks in proptest::collection::vec((0usize..30, 0usize..4), 0..10)
    ) {
        let mut rel = rel;
        let mut expected = std::collections::HashSet::new();
        let n_qi = rel.schema().qi_cols().len();
        for (r, c) in picks {
            let row = r % rel.n_rows();
            let col = c % n_qi;
            rel.suppress_cell(row, col);
            expected.insert((row, col));
        }
        prop_assert_eq!(rel.star_count(), expected.len());
    }
}
