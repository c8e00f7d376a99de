//! Census workforce release: the three constraint classes and the
//! three DIVA strategies on a Census-like extract.
//!
//! A statistics agency publishes a k-anonymized workforce extract and
//! must decide *which class* of diversity constraint to enforce. The
//! paper (§4) implements three classes — minimum frequency, average,
//! and proportional representation — and settles on proportional for
//! its experiments. This example builds all three over the same data,
//! reports their conflict rates, and runs each DIVA strategy under a
//! 25,000-node search budget. Each row says whether the run was exact
//! or degraded, and why. A degraded run still publishes a k-anonymous
//! table in which every constraint is satisfied or voided.
//!
//! On this extract, every strategy exhausts the budget on the
//! minimum-frequency Σ (whether that Σ is satisfiable is unknown). On
//! the average Σ all three are exact in under 20 nodes. On the
//! proportional Σ MinChoice and MaxFanOut are exact and publish fewer
//! stars than Basic, which exhausts the budget.
//!
//! ```text
//! cargo run --release --example census_workforce
//! ```

use diva_constraints::{conflict_rate, generators, Constraint, ConstraintSet};
use diva_core::{BudgetSpec, Diva, DivaConfig, Outcome, Strategy};
use diva_relation::Relation;

fn evaluate(rel: &Relation, name: &str, sigma: &[Constraint], k: usize, node_budget: u64) {
    let set = ConstraintSet::bind(sigma, rel).expect("constraints bind");
    println!(
        "\n== {name} ({} constraints, conflict rate {:.3}) ==",
        sigma.len(),
        conflict_rate(&set)
    );
    for strategy in Strategy::all() {
        let config = DivaConfig::with_k(k)
            .strategy(strategy)
            .budget(BudgetSpec::with_node_budget(node_budget));
        let t = diva_obs::Stopwatch::start();
        match Diva::new(config).run(rel, sigma) {
            Ok(out) => {
                let verdict = match &out.outcome {
                    Outcome::Exact => {
                        let ok = ConstraintSet::bind(sigma, &out.relation)
                            .map(|s| s.satisfied_by(&out.relation))
                            .unwrap_or(false);
                        format!("exact, Σ-sat {ok}")
                    }
                    Outcome::Degraded { reason } => format!(
                        "degraded: {reason}, {} of {} constraints voided",
                        out.stats.constraints_voided, out.stats.n_constraints
                    ),
                };
                println!(
                    "  {:<10} {:>8.2?}  accuracy {:.3}  ★ {:>6}  nodes {:>6}  {verdict}",
                    strategy.name(),
                    t.elapsed(),
                    diva_metrics::star_accuracy(&out.relation),
                    out.relation.star_count(),
                    out.stats.coloring.assignments_tried,
                );
            }
            Err(e) => println!("  {:<10} failed: {e}", strategy.name()),
        }
    }
}

fn main() {
    let k = 10;
    // Without a cap the search is exact and unbounded, and on the
    // minimum-frequency Σ below it does not finish in minutes.
    let node_budget = 25_000;
    let rel = diva_datagen::census(12_000, 7);
    println!(
        "census extract: {} rows × {} attributes, {} distinct QI projections, k = {k}",
        rel.n_rows(),
        rel.schema().arity(),
        rel.distinct_qi_projections()
    );

    // Class 1 — minimum frequency: keep at least 40% of each frequent
    // value (coverage-style diversity, lower bounds only).
    let min_freq = generators::min_frequency(&rel, 8, 0.4, 5 * k);
    evaluate(&rel, "minimum-frequency constraints", &min_freq, k, node_budget);

    // Class 2 — average representation: push every selected value
    // toward its attribute's mean frequency (binding upper bounds for
    // over-represented values).
    let average = generators::average(&rel, 8, 0.9, 5 * k);
    evaluate(&rel, "average constraints", &average, k, node_budget);

    // Class 3 — proportional representation (the paper's choice):
    // a ±75% window around each value's original frequency.
    let proportional = generators::proportional(&rel, 8, 0.75, 5 * k);
    evaluate(&rel, "proportional constraints", &proportional, k, node_budget);
}
