//! Credit-risk data release with fairness-motivated diversity.
//!
//! A lender shares anonymized credit records with an external model
//! auditor. To let the auditor measure disparate impact, every
//! (gender/status × risk-relevant) group must stay visible in the
//! anonymized extract — exactly the multi-attribute diversity
//! constraints of Definition 2.3's extension. The example also shows
//! DIVA's `Anonymize` step being swapped between all three baseline
//! algorithms (Figure 1: "amenable to any anonymization alg."), and
//! the parallel portfolio runner from the paper's future-work section.
//!
//! ```text
//! cargo run --release --example credit_fairness
//! ```

use diva_anonymize::{Anonymizer, KMember, Mondrian, Oka};
use diva_constraints::{Constraint, ConstraintSet};
use diva_core::{run_portfolio, Diva, DivaConfig, Strategy};

fn main() {
    let k = 10;
    let rel = diva_datagen::credit(99);
    println!(
        "credit dataset: {} rows × {} attributes ({} QI), k = {k}",
        rel.n_rows(),
        rel.schema().arity(),
        rel.schema().qi_cols().len()
    );

    // Multi-attribute fairness constraints: each personal-status group
    // must remain identifiable, and each (status, housing) cell that
    // is populated must keep at least one k-cluster visible.
    let status_col = rel.schema().col_of("personal_status_sex");
    let housing_col = rel.schema().col_of("housing");
    let mut sigma: Vec<Constraint> = Vec::new();
    let statuses: Vec<String> = rel.dict(status_col).iter().map(|(_, v)| v.to_string()).collect();
    let housings: Vec<String> = rel.dict(housing_col).iter().map(|(_, v)| v.to_string()).collect();
    for status in &statuses {
        let f = rel.count_matching(
            &[status_col],
            &[rel.dict(status_col).code(status).expect("status exists")],
        );
        if f >= 2 * k {
            sigma.push(Constraint::single("personal_status_sex", status, 2 * k, f));
        }
        for housing in &housings {
            let codes = [
                rel.dict(status_col).code(status).expect("status exists"),
                rel.dict(housing_col).code(housing).expect("housing exists"),
            ];
            let f = rel.count_matching(&[status_col, housing_col], &codes);
            if f >= 2 * k {
                sigma.push(Constraint::multi(
                    vec![
                        ("personal_status_sex".to_string(), status.clone()),
                        ("housing".to_string(), housing.clone()),
                    ],
                    k,
                    f,
                ));
            }
        }
    }
    println!("\nfairness constraints ({}):", sigma.len());
    for c in &sigma {
        println!("  {c}");
    }

    // DIVA with each Anonymize backend.
    let backends: Vec<(&str, Box<dyn Anonymizer + Send + Sync>)> = vec![
        ("k-member", Box::new(KMember::default())),
        ("OKA", Box::new(Oka::default())),
        ("Mondrian", Box::new(Mondrian)),
    ];
    println!("\nDIVA with each Anonymize backend:");
    for (name, backend) in backends {
        let config = DivaConfig::with_k(k).strategy(Strategy::MaxFanOut);
        let diva = Diva::with_anonymizer(config, backend);
        match diva.run(&rel, &sigma) {
            Ok(out) => {
                let sat = ConstraintSet::bind(&sigma, &out.relation)
                    .map(|s| s.satisfied_by(&out.relation))
                    .unwrap_or(false);
                println!(
                    "  {:<9} accuracy {:.3}  ★ {:>5}  groups {:>3}  Σ-sat {}  ({:?})",
                    name,
                    diva_metrics::star_accuracy(&out.relation),
                    out.relation.star_count(),
                    out.groups.len(),
                    sat,
                    out.stats.t_total
                );
            }
            Err(e) => println!("  {name:<9} failed: {e}"),
        }
    }

    // Parallel portfolio (future-work extension): all strategies race.
    println!("\nparallel portfolio (3 strategies × 2 seeds):");
    let t = diva_obs::Stopwatch::start();
    match run_portfolio(&rel, &sigma, &DivaConfig::with_k(k), 2) {
        Ok(out) => println!(
            "  first finisher: accuracy {:.3}, ★ {}, in {:?}",
            diva_metrics::star_accuracy(&out.relation),
            out.relation.star_count(),
            t.elapsed()
        ),
        Err(e) => println!("  portfolio failed: {e}"),
    }
}
