//! `trace-diff` — the trace-regression gate.
//!
//! Usage: `trace-diff <baseline.json> <current.json>`
//!
//! Compares the deterministic fields of two summary exports (the
//! documents written by the CLI's `--metrics`) with
//! [`diva_obs::diff::diff_summaries`]: span counts and `alloc_bytes`,
//! and every counter, gauge and histogram, exactly and in both
//! directions. Timings are not compared. Exits 0 when every field
//! matches, 1 on any mismatch (each printed to stderr), 2 on
//! usage/IO/parse errors. `scripts/check.sh` runs this against the
//! committed `results/baseline/medical-4k.summary.json`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use diva_obs::diff::diff_summaries;
use diva_obs::json::{parse, Value};

fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(baseline_path: &str, current_path: &str) -> Result<bool, String> {
    let report = diff_summaries(&read(baseline_path)?, &read(current_path)?)?;
    if report.is_ok() {
        println!("trace-diff ok: {} deterministic fields identical", report.compared);
        return Ok(true);
    }
    eprintln!(
        "trace-diff: {} of {} deterministic fields differ from {baseline_path}:",
        report.mismatches.len(),
        report.compared
    );
    for m in &report.mismatches {
        eprintln!("  {m}");
    }
    Ok(false)
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = &args[..] else {
        eprintln!("usage: trace-diff <baseline.json> <current.json>");
        return std::process::ExitCode::from(2);
    };
    match run(baseline_path, current_path) {
        Ok(true) => std::process::ExitCode::SUCCESS,
        Ok(false) => std::process::ExitCode::FAILURE,
        Err(e) => {
            eprintln!("trace-diff ERROR: {e}");
            std::process::ExitCode::from(2)
        }
    }
}
