//! Criterion benches for Figure 5: DIVA vs the k-anonymization
//! baselines on German Credit (runtime vs `k`) and a small Census
//! slice (runtime vs `|R|`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use diva_anonymize::{Anonymizer, KMember, Mondrian, Oka};
use diva_bench::params::node_budget_for_backtracks;
use diva_bench::runner::experiment_sigma;
use diva_core::{BudgetSpec, Diva, DivaConfig, Strategy};

const SEED: u64 = 7;
/// Bounded search budget: budget-degraded runs return quickly and are
/// timed rather than stalling the bench.
const NODES: u64 = node_budget_for_backtracks(10_000);

fn bench_fig5b_credit(c: &mut Criterion) {
    let rel = diva_datagen::credit(SEED);
    let mut group = c.benchmark_group("fig5b_runtime_vs_k_credit");
    group.sample_size(10);
    for &k in &[10usize, 30, 50] {
        let sigma = experiment_sigma(&rel, 18, 0.4, k, SEED);
        group.bench_with_input(BenchmarkId::new("DIVA-MaxFanOut", k), &k, |b, &k| {
            b.iter(|| {
                let config = DivaConfig {
                    k,
                    strategy: Strategy::MaxFanOut,
                    seed: SEED,
                    budget: BudgetSpec::with_node_budget(NODES),
                    ..Default::default()
                };
                Diva::new(config).run(&rel, &sigma).map(|o| o.relation.n_rows())
            });
        });
        let baselines: Vec<Box<dyn Anonymizer>> = vec![
            Box::new(KMember { seed: SEED, ..KMember::default() }),
            Box::new(Oka { seed: SEED, ..Oka::default() }),
            Box::new(Mondrian),
        ];
        for algo in baselines {
            group.bench_with_input(BenchmarkId::new(algo.name(), k), &k, |b, &k| {
                b.iter(|| algo.anonymize(&rel, k).relation.n_rows());
            });
        }
    }
    group.finish();
}

fn bench_fig5d_census(c: &mut Criterion) {
    let full = diva_datagen::census(12_000, SEED);
    let mut group = c.benchmark_group("fig5d_runtime_vs_r_census");
    group.sample_size(10);
    for &n in &[3_000usize, 6_000, 12_000] {
        let rel = full.head(n);
        let sigma = experiment_sigma(&rel, 12, 0.4, 10, SEED);
        group.bench_with_input(BenchmarkId::new("DIVA-MinChoice", n), &n, |b, _| {
            b.iter(|| {
                let config = DivaConfig {
                    k: 10,
                    strategy: Strategy::MinChoice,
                    seed: SEED,
                    budget: BudgetSpec::with_node_budget(NODES),
                    ..Default::default()
                };
                Diva::new(config).run(&rel, &sigma).map(|o| o.relation.n_rows())
            });
        });
        group.bench_with_input(BenchmarkId::new("Mondrian", n), &n, |b, _| {
            b.iter(|| Mondrian.anonymize(&rel, 10).relation.n_rows());
        });
        group.bench_with_input(BenchmarkId::new("k-member", n), &n, |b, _| {
            b.iter(|| {
                KMember { seed: SEED, ..KMember::default() }.anonymize(&rel, 10).relation.n_rows()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig5b_credit, bench_fig5d_census);
criterion_main!(benches);
