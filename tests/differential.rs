//! Differential testing harness: the same instance solved many ways —
//! every strategy, the racing portfolio, budget-unbounded and
//! hugely-budgeted runs, and thread counts 1..4 — must agree on
//! satisfiability, land in the same suppression band, and (where the
//! configuration is identical) be byte-identical. Every published
//! table is additionally re-scored through the independent
//! `diva-metrics` audit suite, so the solver's guarantees are checked
//! by code that shares none of its machinery.

use std::time::Duration;

use diva_anonymize::DiversityModel;
use diva_constraints::{generators, Constraint, ConstraintSet};
use diva_core::{run_portfolio, BudgetSpec, Diva, DivaConfig, DivaError, DivaResult, Strategy};
use diva_metrics::audit::{audit, Audit, AuditSpec, ModelKind};
use diva_relation::{is_k_anonymous, Relation};

/// A stable fingerprint of the published relation plus everything a
/// caller can observe about the grouping.
fn fingerprint(out: &DivaResult) -> String {
    format!("{:?}|{:?}|{:?}", out.relation, out.groups, out.source_rows)
}

/// Calibrated satisfiable instances (seeds chosen so every strategy
/// solves them under the vendored RNG's streams).
fn instances() -> Vec<(&'static str, Relation, Vec<Constraint>, usize)> {
    let medical = diva_datagen::medical(1_200, 11);
    let medical_sigma = generators::with_conflict_rate(&medical, 6, 0.4, 5, 3);
    let popsyn = diva_datagen::popsyn(2_000, diva_datagen::Dist::zipf_default(), 13);
    let popsyn_sigma = generators::with_conflict_rate(&popsyn, 5, 0.3, 10, 8);
    vec![("medical", medical, medical_sigma, 5), ("popsyn", popsyn, popsyn_sigma, 10)]
}

/// Instances for the decomposition differential: the calibrated pair
/// (whose proportional σ chains into a single component, pinning the
/// decomposed path's parity with the monolithic fast path) plus a
/// genuinely many-component instance from the `islands` generator
/// (8 disjoint constraint families → 8 components of 2 nodes each;
/// windows loose enough that even naive Basic solves every family).
fn decomposition_instances() -> Vec<(&'static str, Relation, Vec<Constraint>, usize)> {
    let mut out = instances();
    let many = diva_datagen::medical(1_500, 17);
    let many_sigma = generators::islands(&many, 8, 2, 0.9, 20);
    out.push(("medical-many", many, many_sigma, 5));
    out
}

/// The decomposition layer's tentpole guarantee: for every strategy
/// and thread count, component-parallel solving publishes the
/// byte-identical relation the forced-monolithic solve publishes.
#[test]
fn decomposed_solve_is_byte_identical_to_monolithic() {
    for (name, rel, sigma, k) in decomposition_instances() {
        for strategy in Strategy::all() {
            let base = DivaConfig { k, strategy, ..DivaConfig::default() };
            let mono = Diva::new(DivaConfig { decompose: false, threads: Some(1), ..base.clone() })
                .run(&rel, &sigma)
                .unwrap_or_else(|e| panic!("{name}/{strategy}: monolithic failed: {e}"));
            assert!(mono.outcome.is_exact(), "{name}/{strategy}: monolithic degraded");
            let reference = fingerprint(&mono);
            for threads in [1usize, 2, 8] {
                let out = Diva::new(DivaConfig { threads: Some(threads), ..base.clone() })
                    .run(&rel, &sigma)
                    .unwrap_or_else(|e| panic!("{name}/{strategy}/t{threads}: {e}"));
                assert!(out.outcome.is_exact(), "{name}/{strategy}/t{threads}: degraded");
                assert_eq!(
                    fingerprint(&out),
                    reference,
                    "{name}/{strategy}: decomposed (threads={threads}) diverged from monolithic"
                );
            }
        }
    }
}

/// Decision provenance is part of the decomposition contract: for
/// every strategy, the component-parallel solve must record the
/// byte-identical provenance log that the forced-monolithic solve
/// records — same groups, same cells, same causes, same attribution —
/// at every thread count.
#[test]
fn decomposed_provenance_is_byte_identical_to_monolithic() {
    for (name, rel, sigma, k) in decomposition_instances() {
        for strategy in Strategy::all() {
            let name = format!("{name}/{strategy}");
            let run = |decompose: bool, threads: usize| {
                let prov = diva_obs::Provenance::enabled();
                let config = DivaConfig {
                    k,
                    strategy,
                    decompose,
                    threads: Some(threads),
                    provenance: prov.clone(),
                    ..DivaConfig::default()
                };
                let out = Diva::new(config)
                    .run(&rel, &sigma)
                    .unwrap_or_else(|e| panic!("{name} (decompose={decompose}): {e}"));
                assert!(out.outcome.is_exact(), "{name} (decompose={decompose}): degraded");
                (prov.render().expect("enabled recorder renders"), fingerprint(&out))
            };
            let (mono_log, mono_fp) = run(false, 1);
            for threads in [1usize, 4] {
                let (log, fp) = run(true, threads);
                assert_eq!(fp, mono_fp, "{name}/t{threads}: relation diverged from monolithic");
                assert_eq!(log, mono_log, "{name}/t{threads}: provenance diverged from monolithic");
            }
        }
    }
}

/// Every solver configuration agrees the calibrated instances are
/// satisfiable, produces a valid (k, Σ)-anonymization, and lands
/// within the expected suppression band: the guided strategies within
/// 10% of each other, naive Basic within 55% (the paper's Fig. 5 gap
/// — Basic suppresses far more), and the portfolio/budgeted runs
/// matching some member.
#[test]
fn all_solvers_agree_on_satisfiable_instances() {
    for (name, rel, sigma, k) in instances() {
        let mut stars: Vec<(String, usize)> = Vec::new();
        let mut check = |label: String, out: &DivaResult| {
            assert!(is_k_anonymous(&out.relation, k), "{name}/{label}: not {k}-anonymous");
            assert_eq!(out.relation.n_rows(), rel.n_rows(), "{name}/{label}: rows changed");
            let set = ConstraintSet::bind(&sigma, &out.relation).expect("bind");
            assert!(set.satisfied_by(&out.relation), "{name}/{label}: Σ violated");
            assert!(out.outcome.is_exact(), "{name}/{label}: unexpectedly degraded");
            // Independent re-scoring: the audit suite, which shares no
            // code with the solver, must confirm the configured k and
            // the (default l = 1) diversity floor on every exact run.
            let spec = AuditSpec { k: Some(k), distinct_l: Some(1), ..AuditSpec::default() };
            let suite = audit(&out.relation, &spec);
            assert!(suite.satisfied(), "{name}/{label}: audit refutes the published table");
            let achieved_k = suite.report(ModelKind::KAnonymity).expect("k report").achieved;
            assert!(achieved_k >= k as f64, "{name}/{label}: audited k {achieved_k} < {k}");
            stars.push((label, out.relation.star_count()));
        };
        for strategy in Strategy::all() {
            let config = DivaConfig { k, strategy, ..DivaConfig::default() };
            let out = Diva::new(config).run(&rel, &sigma).expect("strategy solves");
            check(format!("{strategy}"), &out);
        }
        let out = run_portfolio(&rel, &sigma, &DivaConfig::with_k(k), 2).expect("portfolio");
        check("portfolio".to_string(), &out);
        // A huge-but-finite budget must not change the verdict.
        let config = DivaConfig {
            k,
            budget: BudgetSpec {
                deadline: Some(Duration::from_secs(3_600)),
                node_budget: Some(u64::MAX / 2),
            },
            ..DivaConfig::default()
        };
        let out = Diva::new(config).run(&rel, &sigma).expect("budgeted run solves");
        check("budgeted".to_string(), &out);

        let min_stars = stars.iter().map(|(_, s)| *s).min().unwrap() as f64;
        for (label, s) in &stars {
            let tolerance = if label == "Basic" { 0.55 } else { 0.10 };
            let ratio = *s as f64 / min_stars;
            assert!(
                ratio <= 1.0 + tolerance,
                "{name}/{label}: {s} stars vs best {min_stars} exceeds the {tolerance} band \
                 ({stars:?})"
            );
        }
    }
}

/// Every ℓ-diversity enforcement variant round-trips through the
/// independent audit: a table published under distinct/entropy/
/// recursive enforcement must *audit* at the configured parameter,
/// not merely pass the solver's own internal check.
#[test]
fn diversity_variants_audit_their_achieved_parameters() {
    let rel = diva_datagen::medical(600, 13);
    let sigma = vec![Constraint::single("ETH", "Caucasian", 20, 600)];
    for variant in [
        DiversityModel::Distinct { l: 3 },
        DiversityModel::Entropy { l: 3 },
        DiversityModel::Recursive { c: 2.0, l: 3 },
    ] {
        let config = DivaConfig::with_k(5).diversity(variant);
        let out = Diva::new(config).run(&rel, &sigma).expect("satisfiable with 8 diagnoses");
        assert!(out.outcome.is_exact(), "{variant:?}: degraded");
        let a = Audit::new(&out.relation);
        assert!(a.k_anonymity().achieved >= 5.0, "{variant:?}: audited k below 5");
        match variant {
            DiversityModel::Distinct { .. } => {
                assert!(a.distinct_l().achieved >= 3.0, "distinct-ℓ audits below 3");
            }
            DiversityModel::Entropy { .. } => {
                let e = a.entropy_l().achieved;
                assert!(e >= 3.0 - 1e-9, "entropy-ℓ audits at {e} < 3");
                // Entropy-ℓ implies distinct-ℓ at the same level.
                assert!(a.distinct_l().achieved >= 3.0);
            }
            DiversityModel::Recursive { c, .. } => {
                let r = a.recursive_cl(3);
                assert!(
                    r.achieved.is_finite() && r.achieved <= c + 1e-9,
                    "recursive (c,3): audited c {} exceeds configured {c}",
                    r.achieved
                );
            }
        }
    }
}

/// Degraded runs keep the satisfied-or-voided contract: k-anonymity
/// survives degradation and the independent audit must confirm it,
/// while the ℓ-diversity extension is explicitly dropped (so it is
/// *not* gated here — only k is).
#[test]
fn degraded_runs_still_audit_k_anonymous() {
    let rel = diva_datagen::medical(1_200, 11);
    let sigma = generators::with_conflict_rate(&rel, 6, 0.4, 5, 3);
    let config = DivaConfig {
        k: 5,
        budget: BudgetSpec { deadline: Some(Duration::ZERO), ..BudgetSpec::default() },
        ..DivaConfig::default()
    };
    let out = Diva::new(config).run(&rel, &sigma).expect("zero deadline degrades, not errors");
    assert!(!out.outcome.is_exact(), "zero deadline must degrade");
    let suite = audit(&out.relation, &AuditSpec { k: Some(5), ..AuditSpec::default() });
    assert!(suite.satisfied(), "degraded output fails the audited k gate");
    let achieved = suite.report(ModelKind::KAnonymity).expect("k report").achieved;
    assert!(achieved >= 5.0, "degraded run audits at k = {achieved}");
}

/// A budget too large to ever trip must be byte-identical to running
/// with no budget at all — arming the accounting cannot perturb the
/// search.
#[test]
fn huge_budget_is_byte_identical_to_unbounded() {
    let rel = diva_datagen::medical(1_200, 11);
    let sigma = generators::with_conflict_rate(&rel, 6, 0.4, 5, 3);
    let unbounded = Diva::new(DivaConfig::with_k(5)).run(&rel, &sigma).expect("solves");
    let config = DivaConfig {
        k: 5,
        budget: BudgetSpec {
            deadline: Some(Duration::from_secs(3_600)),
            node_budget: Some(u64::MAX / 2),
        },
        ..DivaConfig::default()
    };
    let budgeted = Diva::new(config).run(&rel, &sigma).expect("solves");
    assert_eq!(fingerprint(&unbounded), fingerprint(&budgeted));
    assert!(budgeted.outcome.is_exact());
    // The budgeted run additionally reports its accounting, node for
    // node.
    let usage = budgeted.stats.budget.as_ref().expect("armed budget reports usage");
    assert_eq!(usage.nodes_explored, budgeted.stats.coloring.assignments_tried);
    assert!(unbounded.stats.budget.is_none(), "unbudgeted run invented accounting");
}

/// `Outcome::Exact` results are byte-identical whatever the `threads`
/// setting: parallel candidate enumeration and the portfolio cap must
/// not leak nondeterminism into the published relation.
#[test]
fn exact_outcome_is_byte_identical_across_thread_counts() {
    let rel = diva_datagen::medical(1_200, 11);
    let sigma = generators::with_conflict_rate(&rel, 6, 0.4, 5, 3);
    let mut prints = Vec::new();
    for threads in 1..=4usize {
        let config = DivaConfig { k: 5, threads: Some(threads), ..DivaConfig::default() };
        let out = Diva::new(config).run(&rel, &sigma).expect("solves");
        assert!(out.outcome.is_exact());
        prints.push(fingerprint(&out));
    }
    for p in &prints[1..] {
        assert_eq!(&prints[0], p, "thread count changed an exact result");
    }
}

/// A model every class satisfies is no requirement: each explicit
/// trivial model publishes the relation, groups, source rows and
/// provenance log that `diversity: None` publishes.
#[test]
fn trivial_diversity_models_publish_what_none_publishes() {
    let (name, rel, sigma, k) = instances().swap_remove(0);
    let run = |diversity: Option<DiversityModel>| {
        let prov = diva_obs::Provenance::enabled();
        let config = DivaConfig { k, diversity, provenance: prov.clone(), ..DivaConfig::default() };
        let out = Diva::new(config)
            .run(&rel, &sigma)
            .unwrap_or_else(|e| panic!("{name} with {diversity:?}: {e}"));
        (fingerprint(&out), prov.render().expect("enabled recorder renders"))
    };
    let reference = run(None);
    for model in [
        DiversityModel::Distinct { l: 1 },
        DiversityModel::Entropy { l: 1 },
        DiversityModel::Recursive { c: 1.0, l: 1 },
    ] {
        assert_eq!(run(Some(model)), reference, "{name}: {model} diverged from no model");
    }
}

/// On a provably unsatisfiable instance every configuration returns
/// the same `NoDiverseClustering` verdict — including budgeted runs
/// (an unsat proof beats degradation) and the portfolio (the proof
/// beats every other member's failure).
#[test]
fn all_solvers_agree_on_an_unsatisfiable_instance() {
    let rel = diva_datagen::medical(500, 43);
    let eth = rel.schema().col_of("ETH");
    let (code, name) = rel.dict(eth).iter().next().map(|(c, n)| (c, n.to_string())).unwrap();
    let f = rel.column(eth).iter().filter(|&&c| c == code).count();
    let sigma = vec![diva_constraints::Constraint::single("ETH", name, f + 1, f + 100)];

    for strategy in Strategy::all() {
        let config = DivaConfig { k: 5, strategy, ..DivaConfig::default() };
        let err = Diva::new(config).run(&rel, &sigma).unwrap_err();
        assert!(matches!(err, DivaError::NoDiverseClustering { .. }), "{strategy}: {err}");
    }
    let config = DivaConfig {
        k: 5,
        budget: BudgetSpec::with_deadline(Duration::from_secs(3_600)),
        ..DivaConfig::default()
    };
    let err = Diva::new(config).run(&rel, &sigma).unwrap_err();
    assert!(matches!(err, DivaError::NoDiverseClustering { .. }), "budgeted: {err}");

    let err = run_portfolio(&rel, &sigma, &DivaConfig::with_k(5), 2).unwrap_err();
    assert!(matches!(err, DivaError::NoDiverseClustering { .. }), "portfolio: {err}");
}
