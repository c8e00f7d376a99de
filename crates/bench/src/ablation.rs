//! Ablation studies of this implementation's own design choices
//! (beyond the paper's figures): the candidate cap, the candidate
//! repair step, and the parallel portfolio.
//!
//! `DESIGN.md` §2.2 explains that the paper only requires the number
//! of clusterings *considered* per constraint to be polynomial; the
//! concrete cap and the repair mechanism are our choices, so we
//! measure their effect here.

use diva_anonymize::DiversityModel;
use diva_core::{run_portfolio, BudgetSpec, Diva, DivaConfig, Strategy};
use diva_obs::Stopwatch;
use diva_relation::Relation;

use crate::params::Params;
use crate::runner::experiment_sigma;
use crate::table::Table;

/// A search budget of `nodes` explored nodes (`None` = exact search).
fn node_budget(nodes: Option<u64>) -> BudgetSpec {
    BudgetSpec { node_budget: nodes, ..BudgetSpec::default() }
}

fn setup(p: &Params) -> (Relation, Vec<diva_constraints::Constraint>) {
    let rel = diva_datagen::census(p.r_default.min(12_000), p.seed);
    let sigma = experiment_sigma(&rel, p.sigma_default, p.cf_default, p.k_default, p.seed);
    (rel, sigma)
}

/// Ablation A1 — candidate cap: accuracy and runtime as
/// `max_candidates` grows. More candidates improve the search's
/// options (fewer failures, better clusterings) at enumeration cost.
pub fn ablation_candidates(p: &Params) -> Table {
    let (rel, sigma) = setup(p);
    let mut t = Table::new(
        "Ablation A1 — candidate cap (Census, MaxFanOut)",
        "max_candidates",
        vec!["accuracy".into(), "seconds".into(), "backtracks".into()],
    );
    for cap in [4usize, 16, 64, 256] {
        // The budget is sized for 64 candidates per expansion; a wider
        // cap gets proportionally more nodes for the same expansions.
        let nodes = p.node_budget.map(|n| n * (cap as u64).max(64) / 64);
        let config = DivaConfig {
            k: p.k_default,
            strategy: Strategy::MaxFanOut,
            max_candidates: cap,
            seed: p.seed,
            budget: node_budget(nodes),
            ..Default::default()
        };
        let clock = Stopwatch::start();
        match Diva::new(config).run(&rel, &sigma) {
            Ok(out) if out.outcome.is_exact() => t.push_row(
                cap.to_string(),
                vec![
                    Some(diva_metrics::star_accuracy(&out.relation)),
                    Some(clock.elapsed().as_secs_f64()),
                    Some(out.stats.coloring.backtracks as f64),
                ],
            ),
            _ => t.push_row(cap.to_string(), vec![None, Some(clock.elapsed().as_secs_f64()), None]),
        }
    }
    t
}

/// Ablation A2 — candidate repair on/off, per strategy: success (1/0),
/// accuracy, and backtracks. Without repair the capped candidate space
/// loses solutions that the full space contains.
pub fn ablation_repair(p: &Params) -> Table {
    let (rel, sigma) = setup(p);
    let mut t = Table::new(
        "Ablation A2 — candidate repair",
        "strategy",
        vec![
            "acc(repair)".into(),
            "acc(no-repair)".into(),
            "bt(repair)".into(),
            "bt(no-repair)".into(),
        ],
    );
    for strategy in Strategy::all() {
        let mut cells = Vec::new();
        let mut bts = Vec::new();
        for enable_repair in [true, false] {
            let config = DivaConfig {
                k: p.k_default,
                strategy,
                seed: p.seed,
                budget: node_budget(p.node_budget),
                enable_repair,
                ..Default::default()
            };
            match Diva::new(config).run(&rel, &sigma) {
                Ok(out) if out.outcome.is_exact() => {
                    cells.push(Some(diva_metrics::star_accuracy(&out.relation)));
                    bts.push(Some(out.stats.coloring.backtracks as f64));
                }
                _ => {
                    cells.push(None);
                    bts.push(None);
                }
            }
        }
        cells.extend(bts);
        t.push_row(strategy.name(), cells);
    }
    t
}

/// Ablation A3 — parallel portfolio (the paper's future-work item):
/// wall-clock of the portfolio vs each single strategy on the same
/// instance.
pub fn ablation_portfolio(p: &Params) -> Table {
    let (rel, sigma) = setup(p);
    let mut t = Table::new(
        "Ablation A3 — parallel portfolio vs single strategies",
        "runner",
        vec!["seconds".into(), "accuracy".into()],
    );
    for strategy in Strategy::all() {
        let config = DivaConfig {
            k: p.k_default,
            strategy,
            seed: p.seed,
            budget: node_budget(p.node_budget),
            ..Default::default()
        };
        let clock = Stopwatch::start();
        let row = match Diva::new(config).run(&rel, &sigma) {
            Ok(out) if out.outcome.is_exact() => vec![
                Some(clock.elapsed().as_secs_f64()),
                Some(diva_metrics::star_accuracy(&out.relation)),
            ],
            _ => vec![Some(clock.elapsed().as_secs_f64()), None],
        };
        t.push_row(strategy.name(), row);
    }
    // The portfolio's budget is global to its six members, so it gets
    // one member budget per member.
    let config = DivaConfig {
        k: p.k_default,
        seed: p.seed,
        budget: node_budget(p.node_budget.map(|n| n * 6)),
        ..Default::default()
    };
    let clock = Stopwatch::start();
    let row = match run_portfolio(&rel, &sigma, &config, 2) {
        Ok(out) if out.outcome.is_exact() => vec![
            Some(clock.elapsed().as_secs_f64()),
            Some(diva_metrics::star_accuracy(&out.relation)),
        ],
        _ => vec![Some(clock.elapsed().as_secs_f64()), None],
    };
    t.push_row("portfolio(3×2)", row);
    t
}

/// Ablation A4 — the price of the ℓ-diversity extension: accuracy and
/// runtime as ℓ grows on the medical generator (8 sensitive values, so
/// ℓ ≤ 8 is feasible in principle).
pub fn ablation_l_diversity(p: &Params) -> Table {
    let rel = diva_datagen::medical(8_000.min(p.r_default), p.seed);
    let sigma = experiment_sigma(&rel, 4, p.cf_default, p.k_default, p.seed);
    let mut t = Table::new(
        "Ablation A4 — l-diversity extension (medical)",
        "l",
        vec!["accuracy".into(), "seconds".into()],
    );
    for l in [1usize, 2, 3, 4] {
        let config = DivaConfig {
            k: p.k_default,
            diversity: Some(DiversityModel::Distinct { l }),
            seed: p.seed,
            budget: node_budget(p.node_budget),
            ..Default::default()
        };
        let clock = Stopwatch::start();
        match Diva::new(config).run(&rel, &sigma) {
            Ok(out) if out.outcome.is_exact() => t.push_row(
                l.to_string(),
                vec![
                    Some(diva_metrics::star_accuracy(&out.relation)),
                    Some(clock.elapsed().as_secs_f64()),
                ],
            ),
            _ => t.push_row(l.to_string(), vec![None, Some(clock.elapsed().as_secs_f64())]),
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::node_budget_for_backtracks;

    fn tiny() -> Params {
        let mut p = Params::at_scale(0.02);
        p.sigma_default = 4;
        p.node_budget = Some(node_budget_for_backtracks(2_000));
        p.basic_node_budget = Some(node_budget_for_backtracks(500));
        p
    }

    #[test]
    fn candidate_cap_table_shape() {
        let t = ablation_candidates(&tiny());
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.series.len(), 3);
    }

    #[test]
    fn repair_table_covers_strategies() {
        let t = ablation_repair(&tiny());
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.series.len(), 4);
    }

    #[test]
    fn portfolio_table_has_four_rows() {
        let t = ablation_portfolio(&tiny());
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn l_diversity_table_shape() {
        let t = ablation_l_diversity(&tiny());
        assert_eq!(t.rows.len(), 4);
        // l = 1 must succeed.
        assert!(t.rows[0].1[0].is_some());
    }
}
