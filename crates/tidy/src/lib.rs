//! `diva-tidy` — the repository's own static-analysis gate.
//!
//! A dependency-free structural analyzer (in the spirit of rustc's
//! `tidy`, grown from a line scanner into a lexer + brace-tree parser)
//! that mechanically enforces the repo-specific disciplines the
//! hot-path refactors and the differential determinism harness rely
//! on:
//!
//! * **`no-panic`** — library code must route failures through typed
//!   errors (`DivaError` and friends); `unwrap()`/`expect()`/`panic!`
//!   are reserved for tests, benches, and binaries. `assert!` /
//!   `debug_assert!` remain sanctioned for stating invariants.
//! * **`hot-path-hash`** — the dense search kernels
//!   (`core::{state, graph, coloring, candidates}`,
//!   `relation::rowset`) must not regress to `HashMap`/`HashSet`/
//!   `BTreeMap`; the rule has no exception.
//! * **`thread-spawn`** — detached `std::thread::spawn` only in the
//!   live-telemetry daemons `obs::live` (the sampler) and
//!   `obs::serve` (the stats listener), both held by join-on-drop
//!   handles; scoped `thread::scope` joins are fine anywhere (`core`
//!   runs all its threaded work through `pool::run_tasks`).
//! * **`wall-clock`** — no `Instant::now`/`SystemTime::now`/ambient
//!   RNG anywhere except `crates/obs/src/`: every clock read flows
//!   through `diva_obs` (spans or `Stopwatch`) so timings are
//!   observable and the search modules replay exactly from the seeded
//!   config.
//! * **`global-alloc`** — raw allocator plumbing (`std::alloc`, the
//!   `GlobalAlloc` trait) is confined to `crates/obs/src/`, where the
//!   counting allocator lives; everywhere else installs
//!   `diva_obs::alloc::CountingAlloc` via `#[global_allocator]` (which
//!   the rule deliberately does not match) so memory attribution has a
//!   single implementation.
//! * **`missing-docs`** — public items in the library crates (`core`,
//!   `constraints`, `obs`, `relation`, `metrics`, `datagen`) carry doc
//!   comments.
//! * **`nondet-iter`** — iteration over `HashMap`/`HashSet` outside
//!   test code must be canonicalized where it happens (sort before
//!   emitting, collect into a keyed/ordered container, or an
//!   order-free consumer), so hash order never reaches published
//!   clusters, traces, or bench JSON.
//! * **`atomic-ordering`** — every atomic load/store/RMW names an
//!   explicit `Ordering` at the call site; `SeqCst` is confined to
//!   `core::{parallel, pool}` and `obs` and requires a `SeqCst:`
//!   justification comment.
//! * **`unsafe-safety`** — every `unsafe` block/fn/impl carries a
//!   `// SAFETY:` comment (an `unsafe impl`'s comment covers the items
//!   it contains).
//! * **`crate-layering`** — cross-crate references must follow the
//!   declared DAG (see `rules::LAYERS` and DESIGN.md §13); an upward
//!   or lateral `diva_*` reference in non-test code is a violation.
//! * **`unused-allow`** — an inline allow directive that suppresses
//!   nothing is itself a violation.
//!
//! Escape hatch: a `diva-tidy: allow(<rule>)` comment on the offending
//! line or the line directly above suppresses that rule there. The
//! policy for allow vs. fix lives in `CONTRIBUTING.md`.

use std::path::{Path, PathBuf};

pub mod lexer;
pub mod parse;
mod rules;

/// The pre-lexer line stripper, kept as the oracle for the
/// lexer/stripper differential self-test. Not part of the tool's API.
#[doc(hidden)]
pub mod legacy;

/// One diagnostic produced by the scanner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (in chars) of the offending token.
    pub col: usize,
    /// Rule identifier (`no-panic`, `hot-path-hash`, …).
    pub rule: &'static str,
    /// Human-readable description with remediation guidance.
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}: [{}] {}", self.file, self.line, self.col, self.rule, self.msg)
    }
}

impl Violation {
    /// Serializes one violation as a JSON object (for `--emit json`).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"file\":{},\"line\":{},\"col\":{},\"rule\":{},\"msg\":{}}}",
            json_str(&self.file),
            self.line,
            self.col,
            json_str(self.rule),
            json_str(&self.msg)
        )
    }
}

/// Escapes a string for JSON output (quotes, backslashes, control
/// chars — all the repo's paths and rule names need, and then some).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Every rule the scanner knows, in reporting order.
pub const RULES: [&str; 11] = [
    "no-panic",
    "hot-path-hash",
    "thread-spawn",
    "wall-clock",
    "global-alloc",
    "missing-docs",
    "nondet-iter",
    "atomic-ordering",
    "unsafe-safety",
    "crate-layering",
    "unused-allow",
];

/// Sanctioned exceptions baked into the tool (file, rule). Inline
/// allow directives cover one line; this list covers whole files whose
/// exception is a standing design decision.
///
/// * `faults.rs` / `no-panic`: the fault-injection shim exists to
///   panic on purpose (`worker_panic_point` simulates a crashing
///   portfolio worker); it is compiled only under `fault-inject` and
///   never into production builds (see `DESIGN.md` §10).
pub(crate) const ALLOWLIST: &[(&str, &str)] = &[("crates/core/src/faults.rs", "no-panic")];

/// Library crates whose `src/` falls under the `no-panic` rule.
/// Binaries and harnesses (`cli`, `bench`, `tidy`) may unwrap: their
/// failures surface to a terminal, not to a caller.
pub(crate) const LIB_CRATES: [&str; 7] =
    ["obs", "relation", "constraints", "metrics", "anonymize", "datagen", "core"];

/// The dense search kernels covered by `hot-path-hash`.
pub(crate) const HOT_PATH_FILES: [&str; 5] = [
    "crates/core/src/state.rs",
    "crates/core/src/graph.rs",
    "crates/core/src/coloring.rs",
    "crates/core/src/candidates.rs",
    "crates/relation/src/rowset.rs",
];

/// Scans one file. `path` is the workspace-relative path (with `/`
/// separators) that rule scoping is decided on.
#[must_use]
pub fn scan_file(path: &str, source: &str) -> Vec<Violation> {
    let map = parse::FileMap::build(source);
    let mut ctx = rules::Ctx::new(path, &map);
    rules::run_all(&mut ctx);
    let mut out = ctx.finish();
    out.sort_by(|a, b| (a.line, a.rule, a.col).cmp(&(b.line, b.rule, b.col)));
    out
}

/// Recursively collects `.rs` files under `dir` into `out`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans the workspace rooted at `root`: the root `src/` plus every
/// `crates/*/src/` tree. Tests, benches, examples, and the vendored
/// `shims/` are out of scope — the rules govern library and binary
/// sources.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = std::fs::read_to_string(&file)?;
        out.extend(scan_file(&rel, &source));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_single_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn c() { x.unwrap() }\n";
        let v = scan_file("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert_eq!(v[0].rule, "no-panic");
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        let src =
            "fn f() {\n    // diva-tidy: allow(no-panic)\n    x.unwrap();\n    y.unwrap();\n}\n";
        let v = scan_file("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn allowlist_covers_fault_panics() {
        let src = "/// Doc.\npub fn f() {\n    panic!(\"injected\");\n}\n";
        assert!(scan_file("crates/core/src/faults.rs", src).is_empty());
        let v = scan_file("crates/core/src/budget.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("no-panic", 3));
    }

    #[test]
    fn violations_carry_columns() {
        let src = "fn f() {\n    x.unwrap();\n}\n";
        let v = scan_file("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].line, v[0].col), (2, 6), "column of `.unwrap()`: {v:?}");
        assert_eq!(format!("{}", v[0]).split(": ").next(), Some("crates/core/src/x.rs:2:6"));
    }

    #[test]
    fn violation_json_is_escaped() {
        let v = Violation {
            file: "a\"b.rs".to_string(),
            line: 1,
            col: 2,
            rule: "no-panic",
            msg: "say \"hi\"".to_string(),
        };
        assert_eq!(
            v.to_json(),
            "{\"file\":\"a\\\"b.rs\",\"line\":1,\"col\":2,\"rule\":\"no-panic\",\
             \"msg\":\"say \\\"hi\\\"\"}"
        );
    }
}
