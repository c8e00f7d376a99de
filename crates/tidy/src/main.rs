//! `diva-tidy` CLI: scans the workspace and reports every finding.
//!
//! Exit codes: 0 — clean; 1 — violations; 2 — tool error (bad
//! arguments, unreadable workspace).

use std::path::PathBuf;
use std::process::ExitCode;

use diva_tidy::{scan_workspace, Violation, RULES};

const USAGE: &str = "\
usage: diva-tidy [options]

options:
  --root <DIR>           workspace root (default: walk up from the cwd)
  --emit <text|json>     diagnostics format on stdout (default: text)
  --help                 show this help
";

struct Args {
    root: Option<PathBuf>,
    emit_json: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args { root: None, emit_json: false };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--help" | "-h" => return Ok(None),
            "--root" => {
                i += 1;
                let v = argv.get(i).ok_or("--root needs a directory argument")?;
                args.root = Some(PathBuf::from(v));
            }
            "--emit" => {
                i += 1;
                match argv.get(i).map(String::as_str) {
                    Some("text") => args.emit_json = false,
                    Some("json") => args.emit_json = true,
                    other => return Err(format!("--emit expects `text` or `json`, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
        i += 1;
    }
    Ok(Some(args))
}

/// Walks upward from the current directory to the workspace root (the
/// first `Cargo.toml` containing a `[workspace]` table).
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Prints diagnostics: JSON document on stdout (human mirror on
/// stderr) in json mode, plain `path:line:col` lines on stdout
/// otherwise.
fn emit(violations: &[Violation], json: bool) {
    if json {
        let items: Vec<String> = violations.iter().map(Violation::to_json).collect();
        println!("{{\"violations\":[{}]}}", items.join(","));
        for v in violations {
            eprintln!("{v}");
        }
    } else {
        for v in violations {
            println!("{v}");
        }
    }
}

fn summarize(violations: &[Violation]) {
    if violations.is_empty() {
        return;
    }
    let counts: Vec<String> = RULES
        .iter()
        .filter_map(|rule| {
            let n = violations.iter().filter(|v| v.rule == *rule).count();
            (n > 0).then(|| format!("{rule}: {n}"))
        })
        .collect();
    eprintln!("diva-tidy: {} violation(s) ({})", violations.len(), counts.join(", "));
}

fn run() -> Result<ExitCode, String> {
    let Some(args) = parse_args()? else {
        print!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    };
    let root = match args.root {
        Some(r) => r,
        None => find_workspace_root().ok_or("not inside a cargo workspace (try --root)")?,
    };
    let violations =
        scan_workspace(&root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    emit(&violations, args.emit_json);
    summarize(&violations);
    if violations.is_empty() {
        eprintln!("diva-tidy: workspace clean ({} rules)", RULES.len());
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("diva-tidy: error: {msg}");
            ExitCode::from(2)
        }
    }
}
