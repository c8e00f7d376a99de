//! Self-test for `diva-tidy`: every rule must demonstrably fire on a
//! seeded-violation fixture, and the real workspace must scan clean.

use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {name}: {e}"))
}

fn lines_for(violations: &[diva_tidy::Violation], rule: &str) -> Vec<usize> {
    violations.iter().filter(|v| v.rule == rule).map(|v| v.line).collect()
}

#[test]
fn rule_a_no_panic_fires_on_fixture() {
    // Library-crate path, outside the doc/hot-path scopes.
    let v = diva_tidy::scan_file("crates/anonymize/src/fixture.rs", &fixture("no_panic.rs"));
    assert_eq!(lines_for(&v, "no-panic"), vec![4, 8, 12], "{v:#?}");
    assert_eq!(v.len(), 3, "only no-panic fires: {v:#?}");
}

#[test]
fn rule_a_is_scoped_to_library_crates() {
    // cli / bench / tidy binaries may unwrap. (The fixture's allow
    // hatch correctly turns stale there — no-panic is not live — so
    // only unused-allow may remain.)
    let v = diva_tidy::scan_file("crates/cli/src/main.rs", &fixture("no_panic.rs"));
    assert!(lines_for(&v, "no-panic").is_empty(), "{v:#?}");
    assert!(v.iter().all(|x| x.rule == "unused-allow"), "{v:#?}");
}

#[test]
fn rule_b_hot_path_hash_fires_on_fixture() {
    // rowset.rs: hot path, not in the doc scope.
    let v = diva_tidy::scan_file("crates/relation/src/rowset.rs", &fixture("hot_path_hash.rs"));
    assert_eq!(lines_for(&v, "hot-path-hash"), vec![3, 4, 7], "{v:#?}");
}

#[test]
fn rule_b_fires_in_every_hot_path_file() {
    // The rule has no exception: the search kernels index live
    // clusters through the dense owner map, not a hash table.
    for path in [
        "crates/core/src/state.rs",
        "crates/core/src/graph.rs",
        "crates/core/src/coloring.rs",
        "crates/core/src/candidates.rs",
        "crates/relation/src/rowset.rs",
    ] {
        let v = diva_tidy::scan_file(path, &fixture("hot_path_hash.rs"));
        assert_eq!(lines_for(&v, "hot-path-hash"), vec![3, 4, 7], "{path}: {v:#?}");
    }
}

#[test]
fn rule_b_is_scoped_to_hot_path_modules() {
    let v = diva_tidy::scan_file("crates/core/src/diva.rs", &fixture("hot_path_hash.rs"));
    assert!(lines_for(&v, "hot-path-hash").is_empty(), "{v:#?}");
}

#[test]
fn rule_c_thread_spawn_fires_on_fixture() {
    let v = diva_tidy::scan_file("crates/metrics/src/fixture.rs", &fixture("thread_spawn.rs"));
    assert_eq!(lines_for(&v, "thread-spawn"), vec![4], "scoped spawns are fine: {v:#?}");
}

#[test]
fn rule_c_fires_in_core_parallel_and_pool() {
    // The portfolio and the component pool run on scoped threads, so a
    // detached spawn there is flagged like anywhere else.
    for path in ["crates/core/src/parallel.rs", "crates/core/src/pool.rs"] {
        let v = diva_tidy::scan_file(path, &fixture("thread_spawn.rs"));
        assert_eq!(lines_for(&v, "thread-spawn"), vec![4], "{path}: {v:#?}");
    }
}

#[test]
fn rule_c_exempts_the_telemetry_daemons() {
    // The live sampler and the stats listener own detached threads
    // behind join-on-drop handles — sanctioned spawn sites.
    for path in ["crates/obs/src/live.rs", "crates/obs/src/serve.rs"] {
        let v = diva_tidy::scan_file(path, &fixture("sampler_spawn.rs"));
        assert!(lines_for(&v, "thread-spawn").is_empty(), "{path}: {v:#?}");
    }
}

#[test]
fn rule_c_confines_the_telemetry_exemption_to_those_files() {
    // The same daemon-shaped spawn anywhere else in `crates/obs` (or
    // the workspace) still fires: the exemption is per-file, not
    // per-crate.
    for path in ["crates/obs/src/metrics.rs", "crates/core/src/diva.rs"] {
        let v = diva_tidy::scan_file(path, &fixture("sampler_spawn.rs"));
        assert_eq!(lines_for(&v, "thread-spawn"), vec![7], "{path}: {v:#?}");
    }
}

#[test]
fn rule_d_wall_clock_fires_on_fixture() {
    // rowset.rs: deterministic hot path, not in the doc scope.
    let v = diva_tidy::scan_file("crates/relation/src/rowset.rs", &fixture("wall_clock.rs"));
    assert_eq!(lines_for(&v, "wall-clock"), vec![4, 8, 13], "{v:#?}");
}

#[test]
fn rule_d_fires_everywhere_outside_obs() {
    // diva.rs used to take raw phase timings; those now flow through
    // obs spans, so the clock ban covers it (and every other module).
    let v = diva_tidy::scan_file("crates/core/src/diva.rs", &fixture("wall_clock.rs"));
    assert_eq!(lines_for(&v, "wall-clock"), vec![4, 8, 13], "{v:#?}");
    let v = diva_tidy::scan_file("crates/cli/src/main.rs", &fixture("wall_clock.rs"));
    assert_eq!(lines_for(&v, "wall-clock"), vec![4, 8, 13], "{v:#?}");
}

#[test]
fn rule_d_exempts_the_obs_crate() {
    // diva-obs is the one place allowed to read the monotonic clock —
    // it is the crate the rest of the workspace times through.
    let v = diva_tidy::scan_file("crates/obs/src/lib.rs", &fixture("wall_clock.rs"));
    assert!(lines_for(&v, "wall-clock").is_empty(), "{v:#?}");
}

#[test]
fn rule_d_catches_the_pre_obs_timing_idiom() {
    // The exact pattern the obs migration removed from cli/bench:
    // an ad-hoc `Instant` stopwatch around a pipeline call.
    let v = diva_tidy::scan_file("crates/bench/src/runner.rs", &fixture("wall_clock_timing.rs"));
    assert_eq!(lines_for(&v, "wall-clock"), vec![5], "{v:#?}");
}

#[test]
fn rule_f_global_alloc_fires_on_fixture() {
    let v = diva_tidy::scan_file("crates/anonymize/src/fixture.rs", &fixture("global_alloc.rs"));
    assert_eq!(lines_for(&v, "global-alloc"), vec![4, 7], "{v:#?}");
}

#[test]
fn rule_f_exempts_the_obs_crate() {
    // diva_obs::alloc is the one sanctioned home of allocator code.
    let v = diva_tidy::scan_file("crates/obs/src/alloc.rs", &fixture("global_alloc.rs"));
    assert!(lines_for(&v, "global-alloc").is_empty(), "{v:#?}");
}

#[test]
fn rule_f_ignores_counting_allocator_installs() {
    // Installing the obs counting allocator is the sanctioned idiom:
    // neither token matches the attribute or the fully-qualified type.
    let src = "#[global_allocator]\nstatic A: diva_obs::alloc::CountingAlloc = \
               diva_obs::alloc::CountingAlloc::new();\n";
    let v = diva_tidy::scan_file("crates/cli/src/main.rs", src);
    assert!(lines_for(&v, "global-alloc").is_empty(), "{v:#?}");
}

#[test]
fn rule_e_missing_docs_fires_on_fixture() {
    let v = diva_tidy::scan_file("crates/core/src/fixture.rs", &fixture("missing_docs.rs"));
    assert_eq!(lines_for(&v, "missing-docs"), vec![3, 5], "{v:#?}");
}

#[test]
fn rule_e_is_scoped_to_documented_crates() {
    // anonymize has not opted into the doc scope yet.
    let v = diva_tidy::scan_file("crates/anonymize/src/fixture.rs", &fixture("missing_docs.rs"));
    assert!(lines_for(&v, "missing-docs").is_empty(), "{v:#?}");
}

#[test]
fn rule_g_nondet_iter_fires_on_fixture() {
    let v = diva_tidy::scan_file("crates/anonymize/src/fixture.rs", &fixture("nondet_iter.rs"));
    assert_eq!(lines_for(&v, "nondet-iter"), vec![6, 10], "{v:#?}");
    assert_eq!(v.len(), 2, "sorted/keyed/order-free/allowed sites stay quiet: {v:#?}");
}

#[test]
fn rule_h_atomic_ordering_confines_seqcst() {
    // Outside core::{parallel,pool} and obs, SeqCst fires even when
    // justified (lines 14 and 23); the missing Ordering fires anywhere
    // (line 10).
    let v = diva_tidy::scan_file("crates/core/src/fixture.rs", &fixture("atomic_ordering.rs"));
    assert_eq!(lines_for(&v, "atomic-ordering"), vec![10, 14, 23], "{v:#?}");
    assert_eq!(v.len(), 3, "{v:#?}");
}

#[test]
fn rule_h_atomic_ordering_accepts_justified_seqcst_in_scope() {
    // In core::parallel the justified SeqCst (line 23) is sanctioned;
    // the unjustified one (line 14) and the bare load (line 10) still
    // fire.
    let v = diva_tidy::scan_file("crates/core/src/parallel.rs", &fixture("atomic_ordering.rs"));
    assert_eq!(lines_for(&v, "atomic-ordering"), vec![10, 14], "{v:#?}");
}

#[test]
fn rule_i_unsafe_safety_fires_on_fixture() {
    let v = diva_tidy::scan_file("crates/anonymize/src/fixture.rs", &fixture("unsafe_safety.rs"));
    assert_eq!(lines_for(&v, "unsafe-safety"), vec![4, 16, 28, 33], "{v:#?}");
    assert_eq!(v.len(), 4, "SAFETY-commented and impl-covered sites stay quiet: {v:#?}");
}

#[test]
fn rule_j_crate_layering_fires_from_a_low_layer() {
    let v = diva_tidy::scan_file("crates/relation/src/fixture.rs", &fixture("crate_layering.rs"));
    assert_eq!(lines_for(&v, "crate-layering"), vec![3, 7], "{v:#?}");
    assert_eq!(v.len(), 2, "{v:#?}");
}

#[test]
fn rule_j_crate_layering_allows_downward_deps() {
    // The same source is legal from core: relation and metrics sit
    // below it in the DAG, and `diva_core` is a self-reference.
    let v = diva_tidy::scan_file("crates/core/src/fixture.rs", &fixture("crate_layering.rs"));
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn rule_k_unused_allow_fires_on_fixture() {
    let v = diva_tidy::scan_file("crates/relation/src/fixture.rs", &fixture("unused_allow.rs"));
    assert_eq!(lines_for(&v, "unused-allow"), vec![4, 14], "{v:#?}");
    assert_eq!(v.len(), 2, "the used allow suppresses no-panic silently: {v:#?}");
}

#[test]
fn real_workspace_is_clean() {
    // crates/tidy/ -> workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let violations = diva_tidy::scan_workspace(&root).expect("workspace scan");
    assert!(
        violations.is_empty(),
        "workspace has {} tidy finding(s):\n{}",
        violations.len(),
        violations.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
}
