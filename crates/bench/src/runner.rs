//! Single-configuration runners shared by the experiment binary and
//! the Criterion benches.

use diva_anonymize::Anonymizer;
use diva_constraints::{conflict_rate, Constraint, ConstraintSet};
use diva_core::{BudgetSpec, Diva, DivaConfig, Strategy};
use diva_obs::Stopwatch;
use diva_relation::{is_k_anonymous, Relation};

/// One measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Algorithm / strategy name.
    pub algo: String,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Headline accuracy (star-based; `EXPERIMENTS.md` metric M1).
    pub accuracy: f64,
    /// Ratio-normalized discernibility accuracy (metric M2).
    pub disc_ratio: f64,
    /// Total suppressed cells.
    pub stars: usize,
    /// Whether the run produced a valid result (k-anonymous, and for
    /// DIVA runs exact and Σ-satisfying). Failed runs report zero
    /// accuracy.
    pub ok: bool,
    /// Measured conflict rate of the constraint set (0 when no Σ).
    pub measured_cf: f64,
}

impl Measurement {
    fn failed(algo: &str, seconds: f64) -> Self {
        Measurement {
            algo: algo.to_string(),
            seconds,
            accuracy: 0.0,
            disc_ratio: 0.0,
            stars: 0,
            ok: false,
            measured_cf: 0.0,
        }
    }
}

/// The default constraint-set generator for all experiments: the
/// conflict-rate-targeted generator (proportion-style bounds on
/// frequent values, with a controllable interaction level). The paper
/// runs its experiments with proportion constraints whose concrete
/// sets are unpublished; see `DESIGN.md` §3.
pub fn experiment_sigma(
    rel: &Relation,
    n_constraints: usize,
    cf: f64,
    k: usize,
    seed: u64,
) -> Vec<Constraint> {
    diva_constraints::generators::with_conflict_rate(rel, n_constraints, cf, k, seed)
}

/// Runs DIVA with `strategy` (an exact, unbounded search) and
/// measures it.
pub fn run_diva(
    rel: &Relation,
    sigma: &[Constraint],
    k: usize,
    strategy: Strategy,
    seed: u64,
) -> Measurement {
    run_diva_limited(rel, sigma, k, strategy, seed, None)
}

/// [`run_diva`] under a search node budget — the Basic strategy can
/// exhaust any budget on conflict-heavy instances (that is the paper's
/// Fig. 4a finding); the experiment harness bounds it so a sweep
/// completes, and runs that degrade on it surface as missing cells.
pub fn run_diva_limited(
    rel: &Relation,
    sigma: &[Constraint],
    k: usize,
    strategy: Strategy,
    seed: u64,
    node_budget: Option<u64>,
) -> Measurement {
    let budget = BudgetSpec { node_budget, ..BudgetSpec::default() };
    let config = DivaConfig { k, strategy, seed, budget, ..DivaConfig::default() };
    let diva = Diva::new(config);
    let t = Stopwatch::start();
    match diva.run(rel, sigma) {
        Ok(out) => {
            let seconds = t.elapsed().as_secs_f64();
            let set = ConstraintSet::bind(sigma, &out.relation).expect("sigma already bound once");
            let ok = out.outcome.is_exact()
                && is_k_anonymous(&out.relation, k)
                && set.satisfied_by(&out.relation);
            Measurement {
                algo: strategy.name().to_string(),
                seconds,
                accuracy: diva_metrics::star_accuracy(&out.relation),
                disc_ratio: diva_metrics::disc_accuracy_ratio(&out.relation, k),
                stars: out.relation.star_count(),
                ok,
                measured_cf: measured_cf(rel, sigma),
            }
        }
        Err(_) => Measurement::failed(strategy.name(), t.elapsed().as_secs_f64()),
    }
}

/// Runs a plain `k`-anonymization baseline and measures it.
pub fn run_baseline(rel: &Relation, k: usize, algo: &dyn Anonymizer) -> Measurement {
    let t = Stopwatch::start();
    let out = algo.anonymize(rel, k);
    let seconds = t.elapsed().as_secs_f64();
    Measurement {
        algo: algo.name().to_string(),
        seconds,
        accuracy: diva_metrics::star_accuracy(&out.relation),
        disc_ratio: diva_metrics::disc_accuracy_ratio(&out.relation, k),
        stars: out.relation.star_count(),
        ok: is_k_anonymous(&out.relation, k),
        measured_cf: 0.0,
    }
}

fn measured_cf(rel: &Relation, sigma: &[Constraint]) -> f64 {
    ConstraintSet::bind(sigma, rel).map(|set| conflict_rate(&set)).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_anonymize::Mondrian;

    #[test]
    fn diva_measurement_on_small_input() {
        let rel = diva_datagen::medical(800, 3);
        let sigma = experiment_sigma(&rel, 4, 0.4, 5, 1);
        let m = run_diva(&rel, &sigma, 5, Strategy::MinChoice, 1);
        assert!(m.ok, "run failed");
        assert!(m.accuracy > 0.0 && m.accuracy <= 1.0);
        assert!(m.seconds > 0.0);
        assert!(m.measured_cf >= 0.0);
        assert_eq!(m.algo, "MinChoice");
    }

    #[test]
    fn baseline_measurement() {
        let rel = diva_datagen::medical(500, 4);
        let m = run_baseline(&rel, 5, &Mondrian);
        assert!(m.ok);
        assert_eq!(m.algo, "Mondrian");
        assert!(m.stars > 0);
    }

    #[test]
    fn failed_runs_report_zero_accuracy() {
        let rel = diva_relation::fixtures::paper_table1();
        // Unsatisfiable: needs 6 Asians, 3 exist.
        let sigma = vec![Constraint::single("ETH", "Asian", 6, 10)];
        let m = run_diva(&rel, &sigma, 2, Strategy::Basic, 1);
        assert!(!m.ok);
        assert_eq!(m.accuracy, 0.0);
    }
}
