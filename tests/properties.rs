//! Property-based tests of the full (k, Σ)-anonymization contract on
//! randomized small relations and constraint sets.

use std::sync::Arc;

use diva_constraints::{Constraint, ConstraintSet};
use diva_core::{
    components, BudgetSpec, ConstraintGraph, Diva, DivaConfig, DivaError, DivaResult, LVariant,
    Strategy as DivaStrategy,
};
use diva_metrics::audit::{audit, Audit, AuditSpec, ModelKind};
use diva_relation::suppress::is_refinement;
use diva_relation::{is_k_anonymous, Attribute, Relation, RelationBuilder, Schema, STAR_CODE};
use proptest::prelude::*;

/// A random relation with 2–3 QI attributes over small domains and
/// 12–60 rows (collision-heavy so constraints have real targets).
fn arb_relation() -> impl Strategy<Value = Relation> {
    (2usize..4, 12usize..60).prop_flat_map(|(n_qi, n_rows)| {
        let row = proptest::collection::vec(0u8..4, n_qi);
        proptest::collection::vec(row, n_rows).prop_map(move |rows| {
            let mut attrs: Vec<Attribute> =
                (0..n_qi).map(|i| Attribute::quasi(format!("Q{i}"))).collect();
            attrs.push(Attribute::sensitive("S"));
            let schema = Arc::new(Schema::new(attrs));
            let mut b = RelationBuilder::new(schema);
            for (i, r) in rows.iter().enumerate() {
                let mut vals: Vec<String> = r.iter().map(|v| format!("v{v}")).collect();
                vals.push(format!("s{}", i % 5));
                b.push_row(&vals);
            }
            b.finish()
        })
    })
}

/// Random satisfiable-leaning constraints: bounds derived from actual
/// value frequencies.
fn arb_sigma(rel: &Relation, picks: &[(usize, usize)], k: usize) -> Vec<Constraint> {
    let qi = rel.schema().qi_cols();
    picks
        .iter()
        .filter_map(|&(ci, vi)| {
            let col = qi[ci % qi.len()];
            let dict = rel.dict(col);
            if dict.is_empty() {
                return None;
            }
            let code = (vi % dict.len()) as u32;
            let value = dict.decode(code)?.to_string();
            let f = rel.column(col).iter().filter(|&&c| c == code).count();
            if f < k {
                return None;
            }
            Some(Constraint::single(rel.schema().attribute(col).name(), value, k, f))
        })
        .collect()
}

/// Node budget for searches on the random inputs: far more than they
/// need, but a bound on any pathological case.
const NODE_BUDGET: u64 = 1 << 20;

/// The published-table contract: a refinement, k-anonymous, every tuple
/// published exactly once, and each constraint satisfied — or, on a
/// degraded run, satisfied or fully voided (count zero).
fn check_published(
    rel: &Relation,
    sigma: &[Constraint],
    k: usize,
    out: &DivaResult,
) -> Result<(), TestCaseError> {
    prop_assert!(is_refinement(rel, &out.relation, &out.source_rows));
    prop_assert!(is_k_anonymous(&out.relation, k));
    prop_assert_eq!(out.relation.n_rows(), rel.n_rows());
    let mut src = out.source_rows.clone();
    src.sort_unstable();
    src.dedup();
    prop_assert_eq!(src.len(), rel.n_rows());
    let set = ConstraintSet::bind(sigma, &out.relation).unwrap();
    for c in set.constraints() {
        let n = c.count_in(&out.relation);
        prop_assert!(
            n == 0 || (c.lower..=c.upper).contains(&n),
            "{} neither satisfied nor voided: {} outside [{}, {}]",
            c.label(),
            n,
            c.lower,
            c.upper
        );
    }
    if out.outcome.is_exact() {
        // An exact outcome must additionally satisfy Σ outright (no
        // voiding).
        prop_assert!(set.satisfied_by(&out.relation));
    } else {
        prop_assert!(out.stats.budget.is_some(), "degraded without accounting");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whenever DIVA succeeds, its output honours the whole contract:
    /// refinement, k-anonymity, Σ-satisfaction, tuple preservation —
    /// or, if the node budget degraded the run, the degraded contract.
    #[test]
    fn diva_success_implies_full_contract(
        rel in arb_relation(),
        picks in proptest::collection::vec((0usize..4, 0usize..4), 1..4),
        k in 2usize..4,
        strategy_idx in 0usize..3,
    ) {
        let sigma = arb_sigma(&rel, &picks, k);
        let strategy = DivaStrategy::all()[strategy_idx];
        let config = DivaConfig::with_k(k)
            .strategy(strategy)
            .budget(BudgetSpec::with_node_budget(NODE_BUDGET));
        match Diva::new(config).run(&rel, &sigma) {
            Ok(out) => check_published(&rel, &sigma, k, &out)?,
            Err(DivaError::NoDiverseClustering { .. })
            | Err(DivaError::ResidualTooSmall { .. })
            | Err(DivaError::IntegrateFailed { .. }) => {
                // Failure is allowed on random inputs, but it must never
                // panic or return an invalid relation.
            }
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }

    /// With no constraints DIVA always succeeds (plain anonymization)
    /// for k ≤ |R|.
    #[test]
    fn empty_sigma_always_succeeds(rel in arb_relation(), k in 1usize..6) {
        prop_assume!(k <= rel.n_rows());
        let out = Diva::new(DivaConfig::with_k(k)).run(&rel, &[]).unwrap();
        prop_assert!(is_k_anonymous(&out.relation, k));
        prop_assert_eq!(out.relation.n_rows(), rel.n_rows());
    }

    /// DIVA is deterministic for a fixed config.
    #[test]
    fn deterministic_given_config(
        rel in arb_relation(),
        picks in proptest::collection::vec((0usize..4, 0usize..4), 1..3),
    ) {
        let sigma = arb_sigma(&rel, &picks, 2);
        let run = || {
            Diva::new(DivaConfig::with_k(2).seed(99))
                .run(&rel, &sigma)
                .map(|o| {
                    (0..o.relation.n_rows())
                        .map(|r| {
                            (0..o.relation.schema().arity())
                                .map(|c| o.relation.code(r, c))
                                .collect::<Vec<_>>()
                        })
                        .collect::<Vec<_>>()
                })
                .map_err(|e| e.to_string())
        };
        prop_assert_eq!(run(), run());
    }

    /// The degraded-mode contract: under any node budget (including
    /// one so small the search degrades immediately) and an optional
    /// already-expired deadline, a degraded result is still a
    /// refinement, k-anonymous, publishes every tuple exactly once,
    /// and leaves every constraint either satisfied or fully voided.
    #[test]
    fn degraded_output_honours_the_contract(
        rel in arb_relation(),
        picks in proptest::collection::vec((0usize..4, 0usize..4), 1..4),
        k in 2usize..4,
        node_cap in 0u64..600,
        expire_deadline in 0u8..2,
    ) {
        let sigma = arb_sigma(&rel, &picks, k);
        let budget = BudgetSpec {
            deadline: (expire_deadline == 1).then_some(std::time::Duration::ZERO),
            node_budget: Some(node_cap),
            repair_budget: None,
        };
        let diva = Diva::new(DivaConfig::with_k(k).budget(budget));
        match diva.run(&rel, &sigma) {
            Ok(out) => check_published(&rel, &sigma, k, &out)?,
            Err(DivaError::NoDiverseClustering { .. })
            | Err(DivaError::ResidualTooSmall { .. })
            | Err(DivaError::IntegrateFailed { .. }) => {
                // Pre-search infeasibility proofs still beat degradation.
            }
            Err(e) => prop_assert!(false, "unexpected error class under budget: {e}"),
        }
    }

    /// Decomposition is an exact partition of the constraint graph:
    /// every node lands in exactly one component, every targeted row
    /// in exactly one component footprint (untargeted rows in none),
    /// and no adjacency or CSR entry crosses a component boundary.
    #[test]
    fn decomposition_is_an_exact_partition(
        rel in arb_relation(),
        picks in proptest::collection::vec((0usize..4, 0usize..4), 1..5),
        k in 2usize..4,
    ) {
        let sigma = arb_sigma(&rel, &picks, k);
        let set = ConstraintSet::bind(&sigma, &rel).unwrap();
        let graph = ConstraintGraph::build(&set);
        // Edges are exactly the pairs of constraints whose targets
        // overlap, and the CSR index agrees with the target sets.
        prop_assert!(graph.validate().is_ok(), "{:?}", graph.validate());
        let comps = components(&graph);
        // Node partition.
        let mut node_comp = vec![usize::MAX; graph.n_nodes()];
        for (ci, comp) in comps.iter().enumerate() {
            for &n in &comp.nodes {
                prop_assert_eq!(node_comp[n as usize], usize::MAX, "node {} twice", n);
                node_comp[n as usize] = ci;
            }
        }
        prop_assert!(node_comp.iter().all(|&c| c != usize::MAX), "node in no component");
        // Row partition over the targeted rows.
        let mut row_comp = vec![usize::MAX; graph.n_rows()];
        for (ci, comp) in comps.iter().enumerate() {
            for &r in &comp.rows {
                prop_assert_eq!(row_comp[r], usize::MAX, "row {} in two footprints", r);
                row_comp[r] = ci;
            }
        }
        for (r, &rc) in row_comp.iter().enumerate() {
            let nodes = graph.nodes_of(r);
            if nodes.is_empty() {
                prop_assert_eq!(rc, usize::MAX, "untargeted row {} claimed", r);
            }
            for &n in nodes {
                prop_assert_eq!(
                    rc, node_comp[n as usize],
                    "row {} and its node {} disagree", r, n
                );
            }
        }
        // No edge crosses a boundary.
        for i in 0..graph.n_nodes() {
            for &j in graph.neighbors(i) {
                prop_assert_eq!(node_comp[i], node_comp[j], "edge {}-{} crosses", i, j);
            }
        }
    }

    /// Entropy ℓ-diversity is never stronger than it claims: the
    /// perplexity of a class is at most its number of distinct
    /// sensitive values, so the audited entropy-ℓ is bounded by the
    /// audited distinct-ℓ — per class and for the headline value.
    #[test]
    fn entropy_l_never_exceeds_distinct_l(rel in arb_relation()) {
        let a = Audit::new(&rel);
        let entropy = a.entropy_l();
        let distinct = a.distinct_l();
        prop_assert!(entropy.achieved <= distinct.achieved + 1e-9);
        prop_assert_eq!(entropy.classes.len(), distinct.classes.len());
        for (e, d) in entropy.classes.iter().zip(&distinct.classes) {
            prop_assert_eq!(e.class, d.class);
            prop_assert!(
                e.value <= d.value + 1e-9,
                "class {}: perplexity {} exceeds distinct count {}", e.class, e.value, d.value
            );
        }
    }

    /// (α, k)-anonymity implies k-anonymity: whenever the audit suite
    /// passes a joint (α, k) spec, the relation crate's *independent*
    /// k-anonymity checker must agree.
    #[test]
    fn alpha_k_satisfaction_implies_k_anonymity(
        rel in arb_relation(),
        k in 1usize..6,
        alpha_pct in 10u32..100,
    ) {
        let spec = AuditSpec {
            k: Some(k),
            alpha: Some(f64::from(alpha_pct) / 100.0),
            ..AuditSpec::default()
        };
        let suite = audit(&rel, &spec);
        if suite.satisfied() {
            prop_assert!(is_k_anonymous(&rel, k), "(α,k) audit passed but table is not {k}-anonymous");
        }
        // And the k report alone must match the independent checker
        // exactly, satisfied or not.
        let k_ok = suite.report(ModelKind::KAnonymity).unwrap().satisfied;
        prop_assert_eq!(k_ok, Some(is_k_anonymous(&rel, k)));
    }

    /// t-closeness is monotone under class merging: coarsening a QI
    /// column (mapping classes onto fewer, larger ones) mixes class
    /// distributions toward the global one, so the audited t can only
    /// shrink or stay.
    #[test]
    fn t_closeness_monotone_under_class_merging(rel in arb_relation()) {
        let fine = Audit::new(&rel).t_closeness().achieved;
        // Coarsen: overwrite the first QI column with a constant, so
        // every fine class maps onto a coarse class that is a union of
        // fine classes.
        let mut b = RelationBuilder::new(rel.schema().clone());
        for row in 0..rel.n_rows() {
            let vals: Vec<String> = (0..rel.schema().arity())
                .map(|c| {
                    if c == 0 { "merged".to_string() } else { rel.value(row, c).to_string() }
                })
                .collect();
            b.push_row(&vals);
        }
        let coarse_rel = b.finish();
        let coarse = Audit::new(&coarse_rel).t_closeness().achieved;
        prop_assert!(
            coarse <= fine + 1e-9,
            "merging classes raised t-closeness: {coarse} > {fine}"
        );
    }

    /// Likeness/disclosure cross-consistencies: enhanced β (which
    /// caps the distance at −ln p) can never exceed basic β,
    /// recursive (c,1) degenerates to exactly the α of
    /// (α,k)-anonymity, and a single-class table (all QI merged) has
    /// every class distribution equal to the global one, so β, δ, and
    /// t all audit at exactly zero while k audits at |R|.
    #[test]
    fn likeness_checkers_are_cross_consistent(rel in arb_relation()) {
        let a = Audit::new(&rel);
        prop_assert!(a.enhanced_beta().achieved <= a.basic_beta().achieved + 1e-9);
        let r1 = a.recursive_cl(1);
        let alpha = a.alpha_k();
        prop_assert_eq!(r1.achieved.to_bits(), alpha.achieved.to_bits());
        // Merge everything into one class: overwrite every QI cell.
        let qi = rel.schema().qi_cols();
        let mut b = RelationBuilder::new(rel.schema().clone());
        for row in 0..rel.n_rows() {
            let vals: Vec<String> = (0..rel.schema().arity())
                .map(|c| {
                    if qi.contains(&c) { "m".to_string() } else { rel.value(row, c).to_string() }
                })
                .collect();
            b.push_row(&vals);
        }
        let one = b.finish();
        let a1 = Audit::new(&one);
        prop_assert_eq!(a1.n_classes(), 1);
        prop_assert_eq!(a1.k_anonymity().achieved, rel.n_rows() as f64);
        prop_assert!(a1.basic_beta().achieved.abs() < 1e-9);
        prop_assert!(a1.enhanced_beta().achieved.abs() < 1e-9);
        prop_assert!(a1.delta_disclosure().achieved.abs() < 1e-9);
        prop_assert!(a1.t_closeness().achieved.abs() < 1e-9);
    }

    /// Enforcement → audit round-trip: a table published under the
    /// entropy or recursive enforcement variant must audit at the
    /// configured parameter through the independent checker suite.
    #[test]
    fn enforcement_round_trips_through_the_audit(
        rel in arb_relation(),
        k in 2usize..4,
        variant_idx in 0usize..2,
    ) {
        let variant =
            [LVariant::Entropy, LVariant::Recursive { c: 2.0 }][variant_idx];
        let config = DivaConfig::with_k(k).l_diversity(2).l_variant(variant);
        match Diva::new(config).run(&rel, &[]) {
            Ok(out) if out.outcome.is_exact() => {
                let a = Audit::new(&out.relation);
                prop_assert!(a.k_anonymity().achieved >= k as f64);
                match variant {
                    LVariant::Entropy => prop_assert!(
                        a.entropy_l().achieved >= 2.0 - 1e-9,
                        "entropy enforcement audits at {}", a.entropy_l().achieved
                    ),
                    LVariant::Recursive { c } => {
                        let r = a.recursive_cl(2);
                        prop_assert!(
                            r.achieved.is_finite() && r.achieved <= c + 1e-9,
                            "recursive enforcement audits at c = {}", r.achieved
                        );
                    }
                    LVariant::Distinct => unreachable!(),
                }
            }
            Ok(_) => {}
            Err(DivaError::PrivacyInfeasible { .. })
            | Err(DivaError::NoDiverseClustering { .. })
            | Err(DivaError::ResidualTooSmall { .. })
            | Err(DivaError::IntegrateFailed { .. }) => {
                // Random tables may be genuinely infeasible; only a
                // *published* table is gated.
            }
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }

    /// Decision provenance accounts for the published table exactly —
    /// on exact *and* degraded runs: the log passes record/reference
    /// integrity validation, the recorded (row, col) cells are
    /// precisely the starred cells of the published relation (mapped
    /// through `source_rows`), every causal constraint a record cites
    /// is an index into Σ, and the per-constraint attribution sums to
    /// the published star count.
    #[test]
    fn provenance_accounts_for_every_star(
        rel in arb_relation(),
        picks in proptest::collection::vec((0usize..4, 0usize..4), 1..4),
        k in 2usize..4,
        expire_deadline in 0u8..2,
    ) {
        let sigma = arb_sigma(&rel, &picks, k);
        let prov = diva_obs::Provenance::enabled();
        let budget = BudgetSpec {
            deadline: (expire_deadline == 1).then_some(std::time::Duration::ZERO),
            node_budget: Some(NODE_BUDGET),
            repair_budget: None,
        };
        let config = DivaConfig::with_k(k).provenance(prov.clone()).budget(budget);
        match Diva::new(config).run(&rel, &sigma) {
            Ok(out) => {
                let log = prov.snapshot().expect("enabled recorder yields a log");
                let summary = diva_obs::provenance::validate_log(&log);
                prop_assert!(summary.is_ok(), "integrity: {}", summary.unwrap_err());
                let summary = summary.unwrap();
                prop_assert_eq!(log.labels.len(), sigma.len());
                let attr =
                    out.stats.attribution.clone().expect("enabled run reports attribution");
                prop_assert_eq!(attr.total(), out.relation.star_count() as u64);
                prop_assert_eq!(summary.attribution, attr);
                for cell in &log.cells {
                    if let Some(ci) = cell.cause.constraint() {
                        prop_assert!(
                            (ci as usize) < sigma.len(),
                            "record cites constraint {} outside Σ (|Σ| = {})", ci, sigma.len()
                        );
                    }
                }
                let mut starred: Vec<(u64, u32)> = Vec::new();
                for row in 0..out.relation.n_rows() {
                    for col in 0..out.relation.schema().arity() {
                        if out.relation.code(row, col) == STAR_CODE {
                            starred.push((out.source_rows[row] as u64, col as u32));
                        }
                    }
                }
                starred.sort_unstable();
                let mut recorded: Vec<(u64, u32)> =
                    log.cells.iter().map(|c| (c.row, c.col)).collect();
                recorded.sort_unstable();
                prop_assert_eq!(recorded, starred, "recorded cells ≠ published stars");
            }
            Err(DivaError::NoDiverseClustering { .. })
            | Err(DivaError::ResidualTooSmall { .. })
            | Err(DivaError::IntegrateFailed { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }

    /// Suppression never *increases* a target count: every constraint
    /// count in DIVA's output is ≤ its count in the input.
    #[test]
    fn counts_never_increase(
        rel in arb_relation(),
        picks in proptest::collection::vec((0usize..4, 0usize..4), 1..3),
    ) {
        let sigma = arb_sigma(&rel, &picks, 2);
        if let Ok(out) = Diva::new(DivaConfig::with_k(2)).run(&rel, &sigma) {
            let in_set = ConstraintSet::bind(&sigma, &rel).unwrap();
            let out_set = ConstraintSet::bind(&sigma, &out.relation).unwrap();
            for (ci, co) in in_set.constraints().iter().zip(out_set.constraints()) {
                prop_assert!(co.count_in(&out.relation) <= ci.count_in(&rel));
            }
        }
    }
}
