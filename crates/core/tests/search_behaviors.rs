//! Behavioural tests of the colouring search: repair, forward
//! checking, budget accounting, strategy ordering, and ℓ-diversity
//! candidate filtering — exercised through the public API.

use diva_anonymize::DiversityModel;
use diva_constraints::{generators, Constraint, ConstraintSet};
use diva_core::{
    BudgetSpec, CandidateSet, DegradeReason, Diva, DivaConfig, DivaError, DivaResult, Strategy,
};
use diva_relation::fixtures::paper_table1;
use diva_relation::{is_k_anonymous, Attribute, RelationBuilder, Schema};
use std::sync::Arc;

/// A relation engineered so that one constraint monopolizes a block of
/// rows and a second must route around it: `A = a` rows also all have
/// `B = b0`, while extra `B = b0` rows exist elsewhere.
fn contended_relation() -> diva_relation::Relation {
    let schema = Arc::new(Schema::new(vec![
        Attribute::quasi("A"),
        Attribute::quasi("B"),
        Attribute::quasi("C"),
        Attribute::sensitive("S"),
    ]));
    let mut b = RelationBuilder::new(schema);
    // 20 rows with A=a, B=b0 (C varies).
    for i in 0..20 {
        b.push_row(&["a".into(), "b0".into(), format!("c{}", i % 4), format!("s{}", i % 3)]);
    }
    // 30 rows with A=x, B=b0.
    for i in 0..30 {
        b.push_row(&["x".into(), "b0".into(), format!("c{}", i % 4), format!("s{}", i % 3)]);
    }
    // 30 filler rows.
    for i in 0..30 {
        b.push_row(&["y".into(), "b1".into(), format!("c{}", i % 4), format!("s{}", i % 3)]);
    }
    b.finish()
}

#[test]
fn repair_routes_around_monopolized_rows() {
    let rel = contended_relation();
    // σ1 takes *all* A=a rows (the paper's most constrained shape).
    // σ2 needs 30 B=b0 rows — the literal low-offset windows of its
    // similarity order overlap σ1's rows heavily, so without repair
    // the capped candidate list can dead-end.
    let sigma = vec![Constraint::single("A", "a", 20, 20), Constraint::single("B", "b0", 30, 40)];
    let k = 5;
    for enable_repair in [true, false] {
        let config =
            DivaConfig { k, strategy: Strategy::MinChoice, enable_repair, ..DivaConfig::default() };
        match Diva::new(config).run(&rel, &sigma) {
            Ok(out) => {
                // Any successful run must hand back a valid relation.
                let set = ConstraintSet::bind(&sigma, &out.relation).unwrap();
                assert!(set.satisfied_by(&out.relation));
                assert!(is_k_anonymous(&out.relation, k));
            }
            Err(e) => {
                // Without repair the capped window space may dead-end;
                // with repair this instance must be solved.
                assert!(!enable_repair, "repair should solve this instance: {e}");
            }
        }
    }
}

#[test]
fn forward_checking_strategies_prove_unsat_quickly() {
    let rel = contended_relation();
    // Jointly impossible: σ1 wants all 20 A=a rows retained as `a`;
    // σ2 wants ≥ 45 B=b0 rows — only 50 exist and 20 are consumed by
    // σ1's clusters (which retain B=b0 too, but cluster-disjointness
    // still forbids reuse at the required total: 20 shared + 30 free
    // = 50 ≥ 45, so sharing could work... tighten to 51 to be truly
    // impossible).
    let sigma = vec![Constraint::single("A", "a", 20, 20), Constraint::single("B", "b0", 51, 60)];
    for strategy in [Strategy::MinChoice, Strategy::MaxFanOut] {
        let config = DivaConfig { k: 5, strategy, ..DivaConfig::default() };
        let err = Diva::new(config).run(&rel, &sigma).unwrap_err();
        assert!(matches!(err, DivaError::NoDiverseClustering { .. }), "{strategy}: {err}");
    }
}

#[test]
fn shared_cluster_solutions_survive_forward_checking() {
    // Two identical-target constraints where the target has exactly k
    // rows: both must share one cluster; naive free-row forward checks
    // would prune this.
    let rel = contended_relation();
    let sigma = vec![Constraint::single("A", "a", 20, 20), Constraint::single("A", "a", 10, 20)];
    let config = DivaConfig { k: 5, strategy: Strategy::MaxFanOut, ..DivaConfig::default() };
    let out = Diva::new(config).run(&rel, &sigma).expect("sharing works");
    let set = ConstraintSet::bind(&sigma, &out.relation).unwrap();
    assert!(set.satisfied_by(&out.relation));
}

#[test]
fn candidate_repair_is_privacy_aware() {
    // With distinct 3-diversity every cluster (including repaired ones)
    // must carry 3 distinct sensitive values; the contended relation
    // cycles s0..s2 so clusters of 5 usually qualify, and the final
    // output must be 3-diverse.
    let rel = contended_relation();
    let sigma = vec![Constraint::single("B", "b0", 25, 50)];
    let model = DiversityModel::Distinct { l: 3 };
    let config = DivaConfig { k: 5, diversity: Some(model), ..DivaConfig::default() };
    let out = Diva::new(config).run(&rel, &sigma).expect("diverse sensitives available");
    assert!(model.holds(&out.relation));
    let set = ConstraintSet::bind(&sigma, &out.relation).unwrap();
    assert!(set.satisfied_by(&out.relation));
}

/// Asserts that `out` stopped on the node cap at exactly `cap + 1`
/// explored nodes, and that the search counters, the budget usage and
/// the degrade reason all report that same count.
fn assert_trips_exactly(out: &DivaResult, cap: u64) {
    let explored = cap + 1;
    assert_eq!(
        out.outcome.degrade_reason(),
        Some(&DegradeReason::NodeBudgetExhausted { explored, cap }),
        "cap {cap}"
    );
    assert_eq!(out.stats.coloring.assignments_tried, explored, "cap {cap}: search nodes");
    let usage = out.stats.budget.as_ref().expect("an armed budget reports usage");
    assert_eq!(usage.nodes_explored, explored, "cap {cap}: budget nodes");
}

#[test]
fn budget_is_respected_exactly() {
    // Basic on the contended relation: σ2's literal windows collide
    // with σ1's rows, so the search needs far more than 4 nodes.
    let rel = contended_relation();
    let sigma = vec![Constraint::single("A", "a", 20, 20), Constraint::single("B", "b0", 30, 40)];
    let config = DivaConfig {
        k: 5,
        strategy: Strategy::Basic,
        budget: BudgetSpec::with_node_budget(3),
        ..DivaConfig::default()
    };
    let out = Diva::new(config).run(&rel, &sigma).expect("exhaustion degrades, it does not error");
    assert_trips_exactly(&out, 3);
    assert!(is_k_anonymous(&out.relation, 5));
}

/// The exact cap on a search that polls many times: every cap, inside
/// a poll stride or at its boundary, stops at exactly `cap + 1` nodes.
#[test]
fn node_cap_is_exact_at_every_scale() {
    let rel = diva_datagen::medical(2_000, 1);
    let sigma = generators::proportional(&rel, 5, 0.7, 20);
    for cap in [0, 1, 3, 255, 256, 257, 1_000, 25_000] {
        let config = DivaConfig {
            k: 5,
            strategy: Strategy::Basic,
            threads: Some(1),
            budget: BudgetSpec::with_node_budget(cap),
            ..DivaConfig::default()
        };
        let out = Diva::new(config).run(&rel, &sigma).unwrap_or_else(|e| panic!("cap {cap}: {e}"));
        assert_trips_exactly(&out, cap);
    }
}

/// With one thread the components are solved one after another on one
/// shared budget: the component that trips stops at exactly `cap + 1`
/// nodes in total, and the components after it stop at their entry.
#[test]
fn node_cap_is_exact_across_components() {
    let rel = diva_datagen::medical(2_000, 7);
    let sigma = generators::islands(&rel, 4, 3, 0.8, 20);
    let exact = DivaConfig {
        k: 5,
        strategy: Strategy::Basic,
        threads: Some(1),
        budget: BudgetSpec::with_node_budget(u64::MAX / 2),
        ..DivaConfig::default()
    };
    let full = Diva::new(exact.clone()).run(&rel, &sigma).expect("islands solve");
    assert!(full.outcome.is_exact());
    let needed = full.stats.coloring.assignments_tried;
    let n_components = diva_core::components(&diva_core::ConstraintGraph::build(
        &ConstraintSet::bind(&sigma, &rel).unwrap(),
    ))
    .len();
    assert!(n_components > 1, "islands must decompose");
    for cap in [0, needed / 2, needed - 1] {
        let config = DivaConfig { budget: BudgetSpec::with_node_budget(cap), ..exact.clone() };
        let out = Diva::new(config).run(&rel, &sigma).unwrap_or_else(|e| panic!("cap {cap}: {e}"));
        assert_trips_exactly(&out, cap);
    }
    let config = DivaConfig { budget: BudgetSpec::with_node_budget(needed), ..exact };
    let out = Diva::new(config).run(&rel, &sigma).expect("islands solve");
    assert!(out.outcome.is_exact(), "a cap of exactly the nodes needed must not trip");
}

#[test]
fn candidate_sets_expose_min_total() {
    let rel = paper_table1();
    let c = Constraint::single("ETH", "Asian", 2, 5).bind(&rel).unwrap();
    let cs = CandidateSet::enumerate(&rel, &c, 2, 64, None);
    assert_eq!(cs.min_total(), 2);
    let free = Constraint::single("ETH", "Asian", 0, 5).bind(&rel).unwrap();
    let cs = CandidateSet::enumerate(&rel, &free, 2, 64, None);
    assert_eq!(cs.min_total(), 0);
    let unsat = Constraint::single("ETH", "Asian", 4, 10).bind(&rel).unwrap();
    let cs = CandidateSet::enumerate(&rel, &unsat, 2, 64, None);
    assert_eq!(cs.min_total(), usize::MAX);
}

#[test]
fn l_diversity_filters_candidates() {
    // Build a relation where one value's rows share a single sensitive
    // value: with l=2 that constraint has no candidates at all.
    let schema = Arc::new(Schema::new(vec![Attribute::quasi("A"), Attribute::sensitive("S")]));
    let mut b = RelationBuilder::new(schema);
    for _ in 0..10 {
        b.push_row(&["mono", "same"]);
    }
    for i in 0..10 {
        b.push_row(&["poly", format!("s{i}").as_str()]);
    }
    let rel = b.finish();
    let mono = Constraint::single("A", "mono", 4, 10).bind(&rel).unwrap();
    let poly = Constraint::single("A", "poly", 4, 10).bind(&rel).unwrap();
    let cs_mono = CandidateSet::enumerate_interruptible(&rel, &mono, 2, 64, None, 2, &|| false);
    let cs_poly = CandidateSet::enumerate_interruptible(&rel, &poly, 2, 64, None, 2, &|| false);
    assert!(cs_mono.is_empty(), "mono-sensitive clusters cannot be 2-diverse");
    assert!(!cs_poly.is_empty());
}
