//! The three repository rules no rustc or clippy lint can name
//! (DESIGN.md §8a): crates depend only down the layer table, `SeqCst`
//! stays in the modules that justify it, and allocator code stays in
//! `diva-obs`. Each scanner reads plain text, manifests or source
//! lines, and is shown to reject seeded violations before it scans
//! the tree.

use std::path::Path;

/// DESIGN.md §8a's layer table, lowest first: a crate's
/// `[dependencies]` may name a `diva-*` crate only at a lower layer.
const LAYERS: [&[&str]; 6] = [
    &["obs"],
    &["relation"],
    &["datagen"],
    &["constraints", "anonymize", "metrics"],
    &["core"],
    &["bench", "cli"],
];

fn layer(krate: &str) -> Option<usize> {
    LAYERS.iter().position(|layer| layer.contains(&krate))
}

/// The `diva-*` entries of `manifest`'s `[dependencies]` table that do
/// not sit strictly below `krate`. Dev-dependencies are free.
fn layering_violations(krate: &str, manifest: &str) -> Vec<String> {
    let own = layer(krate).unwrap_or_else(|| panic!("crate `{krate}` is not in LAYERS"));
    let mut in_deps = false;
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
        } else if let Some(dep) = line.strip_prefix("diva-").filter(|_| in_deps) {
            let name = dep.split([' ', '=', '.']).next().unwrap_or(dep);
            if layer(name).is_none_or(|l| l >= own) {
                out.push(format!("{krate} -> {name}"));
            }
        }
    }
    out
}

/// A line's text before its `//` comment, if any.
fn code(line: &str) -> &str {
    line.find("//").map_or(line, |i| &line[..i])
}

/// Lines of `source` (at workspace-relative `path`) that use `SeqCst`
/// outside `core::{parallel, pool}` and `obs`, or inside them without
/// a `// SeqCst:` comment on that line or the three above it.
fn seqcst_violations(path: &str, source: &str) -> Vec<usize> {
    let in_scope = matches!(path, "crates/core/src/parallel.rs" | "crates/core/src/pool.rs")
        || path.starts_with("crates/obs/src/");
    let lines: Vec<&str> = source.lines().collect();
    (0..lines.len())
        .filter(|&i| code(lines[i]).contains("SeqCst"))
        .filter(|&i| {
            !in_scope || !lines[i.saturating_sub(3)..=i].iter().any(|l| l.contains("// SeqCst:"))
        })
        .map(|i| i + 1)
        .collect()
}

/// Lines of `source` outside `crates/obs/src/` that name `std::alloc`
/// or the `GlobalAlloc` trait: the counting allocator is the one
/// allocator implementation.
fn alloc_violations(path: &str, source: &str) -> Vec<usize> {
    if path.starts_with("crates/obs/src/") {
        return Vec::new();
    }
    let hit = |l: &str| code(l).contains("std::alloc") || code(l).contains("GlobalAlloc");
    source.lines().enumerate().filter(|(_, l)| hit(l)).map(|(i, _)| i + 1).collect()
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Appends `(path from the repository root, text)` for every `.rs`
/// file under `dir`, skipping build output.
fn collect(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() && !path.ends_with("target") {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root()).unwrap().to_string_lossy().into_owned();
            out.push((rel, std::fs::read_to_string(&path).unwrap()));
        }
    }
}

/// Every source under `src/` and `crates/*/src/`.
fn sources() -> Vec<(String, String)> {
    let mut out = Vec::new();
    collect(&root().join("src"), &mut out);
    for krate in std::fs::read_dir(root().join("crates")).unwrap() {
        collect(&krate.unwrap().path().join("src"), &mut out);
    }
    out
}

#[test]
fn crates_depend_only_down_the_layer_table() {
    let upward = "[dependencies]\ndiva-relation = { workspace = true }\n";
    assert_eq!(layering_violations("obs", upward), ["obs -> relation"]);
    let lateral = "[dependencies]\ndiva-anonymize.workspace = true\n";
    assert_eq!(layering_violations("constraints", lateral), ["constraints -> anonymize"]);
    let fine = "[dependencies]\ndiva-relation = { workspace = true }\n\n[dev-dependencies]\n\
                diva-core = { path = \"../core\" }\n";
    assert!(layering_violations("datagen", fine).is_empty());

    let mut crates = 0;
    for krate in std::fs::read_dir(root().join("crates")).unwrap() {
        let dir = krate.unwrap().path();
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        assert_eq!(layering_violations(&name, &manifest), Vec::<String>::new());
        crates += 1;
    }
    assert_eq!(crates, LAYERS.concat().len(), "every layer names a crate");
}

#[test]
fn seqcst_stays_in_the_justified_modules() {
    let store = "X.store(1, Ordering::SeqCst);";
    assert_eq!(seqcst_violations("crates/core/src/parallel.rs", store), [1]);
    let justified = format!("// SeqCst: one total order.\n\n\n{store}\n");
    assert!(seqcst_violations("crates/core/src/pool.rs", &justified).is_empty());
    assert_eq!(seqcst_violations("crates/core/src/diva.rs", &justified), [4]);
    let too_far = format!("// SeqCst: one total order.\n\n\n\n{store}\n");
    assert_eq!(seqcst_violations("crates/obs/src/live.rs", &too_far), [5]);

    for (path, source) in sources() {
        assert_eq!(seqcst_violations(&path, &source), Vec::<usize>::new(), "{path}");
    }
}

#[test]
fn allocator_code_stays_in_obs() {
    let raw = "use std::alloc::Layout;\n// GlobalAlloc in prose\nimpl GlobalAlloc for A {}\n";
    assert_eq!(alloc_violations("crates/cli/src/main.rs", raw), [1, 3]);
    assert_eq!(alloc_violations("src/lib.rs", raw), [1, 3]);
    assert!(alloc_violations("crates/obs/src/alloc.rs", raw).is_empty());

    for (path, source) in sources() {
        assert_eq!(alloc_violations(&path, &source), Vec::<usize>::new(), "{path}");
    }
}
