//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! cargo run --release -p diva-bench --bin experiments -- all
//! cargo run --release -p diva-bench --bin experiments -- fig4a fig4b
//! DIVA_BENCH_SCALE=1.0 cargo run --release -p diva-bench --bin experiments -- fig5c
//! ```
//!
//! Output: paper-style series tables on stdout and CSVs under
//! `results/`.

use std::path::PathBuf;

use diva_bench::{ablation, fig4, fig5, perf, tables, Params, Table};

/// Memory attribution for the perf suite: with the counting allocator
/// installed, trajectory points report per-run allocation totals.
#[global_allocator]
static GLOBAL_ALLOC: diva_obs::alloc::CountingAlloc = diva_obs::alloc::CountingAlloc::new();

fn results_dir() -> PathBuf {
    std::env::var("DIVA_RESULTS_DIR").map_or_else(|_| PathBuf::from("results"), PathBuf::from)
}

fn emit(t: &Table, slug: &str) {
    print!("{}", t.render());
    println!();
    match t.write_csv(&results_dir(), slug).and_then(|()| t.write_gnuplot(&results_dir(), slug)) {
        Ok(()) => {
            println!("[written {0}/{slug}.csv and {0}/{slug}.gnu]\n", results_dir().display())
        }
        Err(e) => eprintln!("warning: could not write {slug} outputs: {e}\n"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let p = Params::from_env();
    if args.is_empty() {
        eprintln!(
            "usage: experiments <all|table4|table5|fig4a|fig4b|fig4c|fig4d|fig5a|fig5b|fig5c|fig5d|ablations|perf>..."
        );
        std::process::exit(2);
    }
    println!(
        "DIVA experiment harness — scale {} (set DIVA_BENCH_SCALE=1.0 for paper sizes)\n",
        p.scale
    );
    let want = |name: &str| args.iter().any(|a| a == name || a == "all");

    if want("table4") {
        emit(&tables::table4(&p), "table4");
    }
    if want("table5") {
        print!("{}", tables::table5(&p));
        println!();
    }
    if want("fig4a") || want("fig4b") {
        let (time, acc) = fig4::fig4ab(&p);
        if want("fig4a") {
            emit(&time, "fig4a_runtime_vs_sigma");
        }
        if want("fig4b") {
            emit(&acc, "fig4b_accuracy_vs_sigma");
        }
    }
    if want("fig4c") {
        emit(&fig4::fig4c(&p), "fig4c_accuracy_vs_conflict");
    }
    if want("fig4d") {
        let (acc, disc) = fig4::fig4d(&p);
        emit(&acc, "fig4d_accuracy_vs_distribution");
        emit(&disc, "fig4d_disc_accuracy_vs_distribution");
    }
    if want("fig5a") || want("fig5b") {
        let (acc, time) = fig5::fig5ab(&p);
        if want("fig5a") {
            emit(&acc, "fig5a_accuracy_vs_k");
        }
        if want("fig5b") {
            emit(&time, "fig5b_runtime_vs_k");
        }
    }
    if want("ablations") {
        emit(&ablation::ablation_candidates(&p), "ablation_a1_candidate_cap");
        emit(&ablation::ablation_repair(&p), "ablation_a2_repair");
        emit(&ablation::ablation_portfolio(&p), "ablation_a3_portfolio");
        emit(&ablation::ablation_l_diversity(&p), "ablation_a4_l_diversity");
    }
    if want("fig5c") || want("fig5d") {
        let (acc, time) = fig5::fig5cd(&p);
        if want("fig5c") {
            emit(&acc, "fig5c_accuracy_vs_r");
        }
        if want("fig5d") {
            emit(&time, "fig5d_runtime_vs_r");
        }
    }
    if want("perf") {
        let json = perf::bench_json();
        print!("{json}");
        let path = std::env::var("DIVA_BENCH_JSON")
            .map_or_else(|_| PathBuf::from("BENCH_diva.json"), PathBuf::from);
        match std::fs::write(&path, &json) {
            Ok(()) => println!("[written {}]\n", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}\n", path.display()),
        }
    }
}
