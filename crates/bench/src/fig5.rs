//! Figure 5 — comparative study against the anonymization baselines.

use diva_anonymize::{Anonymizer, KMember, Mondrian, Oka};
use diva_core::Strategy;
use diva_relation::Relation;

use crate::params::Params;
use crate::runner::{experiment_sigma, run_baseline, run_diva_limited, Measurement};
use crate::table::Table;

/// Series order matching the paper's legends: the two DIVA strategies,
/// then the three baselines.
fn series() -> Vec<String> {
    vec!["MinChoice".into(), "MaxFanOut".into(), "k-member".into(), "OKA".into(), "Mondrian".into()]
}

fn baselines(seed: u64) -> Vec<Box<dyn Anonymizer>> {
    vec![
        Box::new(KMember { seed, ..KMember::default() }),
        Box::new(Oka { seed, ..Oka::default() }),
        Box::new(Mondrian),
    ]
}

/// Runs the five-algorithm comparison at one `(rel, k)` point.
fn compare(
    rel: &Relation,
    k: usize,
    sigma_count: usize,
    cf: f64,
    seed: u64,
    node_budget: Option<u64>,
) -> Vec<Measurement> {
    let sigma = experiment_sigma(rel, sigma_count, cf, k, seed);
    let mut ms = vec![
        run_diva_limited(rel, &sigma, k, Strategy::MinChoice, seed, node_budget),
        run_diva_limited(rel, &sigma, k, Strategy::MaxFanOut, seed, node_budget),
    ];
    // (The baselines below carry no search budget.)
    for b in baselines(seed) {
        ms.push(run_baseline(rel, k, b.as_ref()));
    }
    ms
}

fn col(ms: &[Measurement], f: impl Fn(&Measurement) -> f64) -> Vec<Option<f64>> {
    ms.iter().map(|m| if m.ok { Some(f(m)) } else { None }).collect()
}

/// Runtime column: failed runs still report the time they burned.
fn time_col(ms: &[Measurement]) -> Vec<Option<f64>> {
    ms.iter().map(|m| Some(m.seconds)).collect()
}

/// Figs. 5a and 5b — accuracy and runtime vs `k` on German Credit
/// (`|Σ|` = 18 per Table 4).
pub fn fig5ab(p: &Params) -> (Table, Table) {
    let rel = diva_datagen::credit(p.seed);
    let mut acc = Table::new("Fig 5a — Accuracy vs k (Credit)", "k", series());
    let mut time = Table::new("Fig 5b — Runtime vs k (Credit)", "k", series());
    for &k in &p.ks {
        let ms = compare(&rel, k, 18, p.cf_default, p.seed, p.node_budget);
        acc.push_row(k.to_string(), col(&ms, |m| m.accuracy));
        time.push_row(k.to_string(), time_col(&ms));
    }
    (acc, time)
}

/// Figs. 5c and 5d — accuracy and runtime vs `|R|` on Census
/// (`|Σ|` = 12, `k` = 10).
pub fn fig5cd(p: &Params) -> (Table, Table) {
    let full = diva_datagen::census(*p.r_sizes.last().expect("non-empty sizes"), p.seed);
    let mut acc = Table::new("Fig 5c — Accuracy vs |R| (Census)", "|R|", series());
    let mut time = Table::new("Fig 5d — Runtime vs |R| (Census)", "|R|", series());
    for &n in &p.r_sizes {
        let rel = full.head(n);
        let ms = compare(&rel, p.k_default, p.sigma_default, p.cf_default, p.seed, p.node_budget);
        acc.push_row(n.to_string(), col(&ms, |m| m.accuracy));
        time.push_row(n.to_string(), time_col(&ms));
    }
    (acc, time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::node_budget_for_backtracks;

    #[test]
    fn fig5ab_produces_five_series() {
        let mut p = Params::at_scale(0.02);
        p.node_budget = Some(node_budget_for_backtracks(2_000));
        p.basic_node_budget = Some(node_budget_for_backtracks(500));
        p.ks = vec![10, 20];
        let (acc, time) = fig5ab(&p);
        assert_eq!(acc.series.len(), 5);
        assert_eq!(acc.rows.len(), 2);
        assert_eq!(time.rows.len(), 2);
        // Baselines always succeed.
        for (_, row) in &acc.rows {
            assert!(row[2].is_some() && row[3].is_some() && row[4].is_some());
        }
    }

    #[test]
    fn fig5cd_small_sweep() {
        let mut p = Params::at_scale(0.02);
        p.node_budget = Some(node_budget_for_backtracks(2_000));
        p.basic_node_budget = Some(node_budget_for_backtracks(500));
        p.r_sizes = vec![1_000, 2_000];
        p.sigma_default = 4;
        let (acc, time) = fig5cd(&p);
        assert_eq!(acc.rows.len(), 2);
        // Runtime grows with |R| for the baselines (allow noise by
        // checking k-member only, column 2).
        let t0 = time.rows[0].1[2].unwrap();
        let t1 = time.rows[1].1[2].unwrap();
        assert!(t1 >= t0 * 0.5, "runtime should not collapse: {t0} -> {t1}");
    }
}
