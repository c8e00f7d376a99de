//! Figure 4 — DIVA efficiency and effectiveness (strategy comparison).

use diva_core::Strategy;
use diva_datagen::Dist;

use crate::params::Params;
use crate::runner::{experiment_sigma, run_diva_limited, Measurement};
use crate::table::Table;

fn strategy_series() -> Vec<String> {
    Strategy::all().iter().map(|s| s.name().to_string()).collect()
}

fn col(measurements: &[Measurement], f: impl Fn(&Measurement) -> f64) -> Vec<Option<f64>> {
    measurements.iter().map(|m| if m.ok { Some(f(m)) } else { None }).collect()
}

/// Runtime column: failed (budget-degraded) runs still report the
/// time they burned — that *is* the Fig. 4a signal for Basic.
fn time_col(measurements: &[Measurement]) -> Vec<Option<f64>> {
    measurements.iter().map(|m| Some(m.seconds)).collect()
}

/// Figs. 4a and 4b — runtime and accuracy vs `|Σ|` on Census.
///
/// One sweep produces both tables (the paper plots the same runs two
/// ways).
pub fn fig4ab(p: &Params) -> (Table, Table) {
    let rel = diva_datagen::census(p.r_default, p.seed);
    let mut time = Table::new("Fig 4a — Runtime vs |Σ| (Census)", "|Sigma|", strategy_series());
    let mut acc = Table::new("Fig 4b — Accuracy vs |Σ| (Census)", "|Sigma|", strategy_series());
    for &n in &p.sigma_sizes {
        let sigma = experiment_sigma(&rel, n, p.cf_default, p.k_default, p.seed);
        let ms: Vec<Measurement> = Strategy::all()
            .iter()
            .map(|&s| run_diva_limited(&rel, &sigma, p.k_default, s, p.seed, p.budget_for(s)))
            .collect();
        time.push_row(n.to_string(), time_col(&ms));
        acc.push_row(n.to_string(), col(&ms, |m| m.accuracy));
    }
    (time, acc)
}

/// Fig. 4c — accuracy vs conflict rate on Pantheon. The x label shows
/// the requested `cf` knob; a trailing column reports the measured
/// conflict rate of the generated set.
pub fn fig4c(p: &Params) -> Table {
    let rel = diva_datagen::pantheon(p.seed);
    let mut series = strategy_series();
    series.push("cf(measured)".to_string());
    let mut acc = Table::new("Fig 4c — Accuracy vs conflict rate (Pantheon)", "cf", series);
    for &cf in &p.conflict_rates {
        let sigma = experiment_sigma(&rel, p.sigma_default, cf, p.k_default, p.seed);
        let ms: Vec<Measurement> = Strategy::all()
            .iter()
            .map(|&s| run_diva_limited(&rel, &sigma, p.k_default, s, p.seed, p.budget_for(s)))
            .collect();
        let measured = diva_constraints::ConstraintSet::bind(&sigma, &rel)
            .map(|set| diva_constraints::conflict_rate(&set))
            .unwrap_or(0.0);
        let mut row = col(&ms, |m| m.accuracy);
        row.push(Some(measured));
        acc.push_row(format!("{cf:.1}"), row);
    }
    acc
}

/// Fig. 4d — accuracy vs data distribution on Pop-Syn
/// (`|R|` = 100k scaled, `|Σ|` = 8, as in the paper). Returns the
/// star-based and discernibility-based accuracy tables.
pub fn fig4d(p: &Params) -> (Table, Table) {
    let mut acc =
        Table::new("Fig 4d — Accuracy vs distribution (Pop-Syn)", "dist", strategy_series());
    let mut disc = Table::new(
        "Fig 4d (disc) — Discernibility accuracy vs distribution (Pop-Syn)",
        "dist",
        strategy_series(),
    );
    for dist in [Dist::zipf_default(), Dist::Uniform, Dist::gaussian_default()] {
        let rel = diva_datagen::popsyn(p.popsyn_rows(), dist, p.seed);
        let sigma = experiment_sigma(&rel, 8, p.cf_default, p.k_default, p.seed);
        let ms: Vec<Measurement> = Strategy::all()
            .iter()
            .map(|&s| run_diva_limited(&rel, &sigma, p.k_default, s, p.seed, p.budget_for(s)))
            .collect();
        acc.push_row(dist.name(), col(&ms, |m| m.accuracy));
        disc.push_row(dist.name(), col(&ms, |m| m.disc_ratio));
    }
    (acc, disc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::node_budget_for_backtracks;

    fn tiny_params() -> Params {
        let mut p = Params::at_scale(0.02);
        // Keep the unit-test footprint small; debug-profile DIVA runs
        // must fail fast instead of burning a large search budget.
        p.sigma_sizes = vec![4, 8];
        p.conflict_rates = vec![0.0, 1.0];
        p.node_budget = Some(node_budget_for_backtracks(2_000));
        p.basic_node_budget = Some(node_budget_for_backtracks(500));
        p
    }

    #[test]
    fn fig4ab_produces_full_tables() {
        let p = tiny_params();
        let (time, acc) = fig4ab(&p);
        assert_eq!(time.rows.len(), 2);
        assert_eq!(acc.rows.len(), 2);
        assert_eq!(time.series.len(), 3);
        // At least one strategy must succeed everywhere.
        for (x, row) in &acc.rows {
            assert!(row.iter().any(Option::is_some), "all strategies failed at |Σ|={x}");
        }
    }

    #[test]
    fn fig4d_covers_three_distributions() {
        let p = tiny_params();
        let (t, disc) = fig4d(&p);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(disc.rows.len(), 3);
        let labels: Vec<&str> = t.rows.iter().map(|(x, _)| x.as_str()).collect();
        assert_eq!(labels, vec!["Zipfian", "Uniform", "Gaussian"]);
    }
}
