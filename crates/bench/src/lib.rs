//! Benchmark harness regenerating every table and figure of the
//! paper's evaluation (Section 4).
//!
//! The entry point is the `experiments` binary (`cargo run --release
//! -p diva-bench --bin experiments -- <table4|table5|fig4a|fig4b|fig4c|
//! fig4d|fig5a|fig5b|fig5c|fig5d|ablations|perf|all>`), which prints
//! paper-style series to stdout and writes CSVs under `results/`. The
//! CLI's own timings come from the repository benchmark, a separate
//! package:
//!
//! ```text
//! bash crates/bench/src/bin/benchmark/run.sh --workload publish-64k --seed 0 --seconds 20 --trace 0
//! ```
//!
//! By default the |R|-heavy sweeps run at `DIVA_BENCH_SCALE = 0.1` of
//! the paper's row counts so that the whole suite completes in
//! minutes; set the environment variable `DIVA_BENCH_SCALE=1.0` to
//! reproduce the paper's full 60k–300k Census instances. Relative
//! orderings — who wins, where curves cross — are scale-stable (see
//! `EXPERIMENTS.md`).

pub mod ablation;
pub mod fig4;
pub mod fig5;
pub mod params;
pub mod perf;
pub mod runner;
pub mod table;
pub mod tables;

pub use params::Params;
pub use runner::{run_baseline, run_diva, Measurement};
pub use table::Table;

/// The harness's own unit tests exercise memory attribution, so the
/// test binary installs the counting allocator too (the `experiments`
/// binary does the same in its own root).
#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: diva_obs::alloc::CountingAlloc = diva_obs::alloc::CountingAlloc::new();
