//! Integration tests for the extensions on top of full DIVA runs:
//! ℓ-diversity, the parallel portfolio, and an upper bound that binds.

use diva_anonymize::DiversityModel;
use diva_constraints::{Constraint, ConstraintSet};
use diva_core::{run_portfolio, Diva, DivaConfig, Strategy};
use diva_relation::is_k_anonymous;

#[test]
fn l_diversity_with_constraints_end_to_end() {
    let rel = diva_datagen::medical(1_200, 53);
    let k = 6;
    let model = DiversityModel::Distinct { l: 2 };
    let sigma = diva_constraints::generators::proportional(&rel, 2, 0.7, 10 * k);
    let out = Diva::new(DivaConfig::with_k(k).diversity(model))
        .run(&rel, &sigma)
        .expect("8 diagnosis values make 2-diversity easy");
    assert!(is_k_anonymous(&out.relation, k));
    assert!(model.holds(&out.relation));
    let set = ConstraintSet::bind(&sigma, &out.relation).unwrap();
    assert!(set.satisfied_by(&out.relation));
}

#[test]
fn portfolio_and_single_run_agree_on_satisfiability() {
    let rel = diva_datagen::medical(800, 59);
    let sigma = vec![Constraint::single("ETH", "Caucasian", 20, 800)];
    let single = Diva::new(DivaConfig::with_k(5).strategy(Strategy::MinChoice))
        .run(&rel, &sigma)
        .expect("satisfiable");
    let port = run_portfolio(&rel, &sigma, &DivaConfig::with_k(5), 1).expect("satisfiable");
    assert!(is_k_anonymous(&single.relation, 5));
    assert!(is_k_anonymous(&port.relation, 5));
}

#[test]
fn binding_upper_bound_is_satisfied_end_to_end() {
    let rel = diva_datagen::medical(1_000, 61);
    let k = 5;
    let eth = rel.schema().col_of("ETH");
    let (code, name) = {
        let mut best = (0u32, 0usize);
        for (c, _) in rel.dict(eth).iter() {
            let f = rel.column(eth).iter().filter(|&&x| x == c).count();
            if f > best.1 {
                best = (c, f);
            }
        }
        (best.0, rel.dict(eth).decode(best.0).unwrap().to_string())
    };
    let f = rel.column(eth).iter().filter(|&&x| x == code).count();
    // Cap the head ethnicity at half its frequency: Integrate must
    // repair whatever k-member retains above the cap.
    let sigma = vec![Constraint::single("ETH", &name, 0, f / 2)];
    let out = Diva::new(DivaConfig::with_k(k)).run(&rel, &sigma).expect("upper-bound only");
    let set = ConstraintSet::bind(&sigma, &out.relation).unwrap();
    assert!(set.satisfied_by(&out.relation));
}
