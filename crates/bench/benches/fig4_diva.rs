//! Criterion benches for Figure 4: DIVA strategy runtimes vs `|Σ|`
//! (Census) and vs distribution (Pop-Syn).
//!
//! These time the same configurations as `experiments -- fig4a/fig4d`
//! with Criterion's statistics, at a reduced size so `cargo bench`
//! completes quickly. Run the `experiments` binary for the full
//! sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use diva_bench::params::node_budget_for_backtracks;
use diva_bench::runner::experiment_sigma;
use diva_core::{BudgetSpec, Diva, DivaConfig, Strategy};
use diva_datagen::Dist;

const ROWS: usize = 6_000;
const K: usize = 10;
const SEED: u64 = 7;
/// Bounded search budget: budget-degraded runs return quickly and are
/// timed rather than stalling the bench.
const NODES: u64 = node_budget_for_backtracks(10_000);

fn bench_fig4a(c: &mut Criterion) {
    let rel = diva_datagen::census(ROWS, SEED);
    let mut group = c.benchmark_group("fig4a_runtime_vs_sigma");
    group.sample_size(10);
    for &n_sigma in &[4usize, 12, 20] {
        let sigma = experiment_sigma(&rel, n_sigma, 0.4, K, SEED);
        for strategy in Strategy::all() {
            group.bench_with_input(
                BenchmarkId::new(strategy.name(), n_sigma),
                &sigma,
                |b, sigma| {
                    b.iter(|| {
                        let config = DivaConfig {
                            k: K,
                            strategy,
                            seed: SEED,
                            budget: BudgetSpec::with_node_budget(NODES),
                            ..Default::default()
                        };
                        Diva::new(config).run(&rel, sigma).map(|o| o.relation.n_rows())
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_fig4d(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4d_distributions");
    group.sample_size(10);
    for dist in [Dist::zipf_default(), Dist::Uniform, Dist::gaussian_default()] {
        let rel = diva_datagen::popsyn(ROWS, dist, SEED);
        let sigma = experiment_sigma(&rel, 8, 0.4, K, SEED);
        group.bench_with_input(BenchmarkId::new("MaxFanOut", dist.name()), &sigma, |b, sigma| {
            b.iter(|| {
                let config = DivaConfig {
                    k: K,
                    strategy: Strategy::MaxFanOut,
                    seed: SEED,
                    ..Default::default()
                };
                Diva::new(config).run(&rel, sigma).map(|o| o.relation.n_rows())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig4a, bench_fig4d);
criterion_main!(benches);
