//! Concurrency tests for the counting allocator: this test binary
//! installs [`CountingAlloc`] as its global allocator, then proves
//! per-thread attribution is *exact* for allocations of known sizes
//! while other threads allocate concurrently, and that the global
//! totals cover the per-thread sums.
//!
//! Compiled only under `--features alloc-profile` (the file is empty
//! otherwise), because installing the wrapper requires its
//! `GlobalAlloc` impl.
#![cfg(feature = "alloc-profile")]

use std::thread;

use diva_obs::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Per-thread allocation sizes; each thread also adds its index to the
/// first one so every thread's expected total is distinct.
const SIZES: [usize; 5] = [64, 256, 1024, 4096, 65_536];
const THREADS: usize = 8;

#[test]
fn per_thread_attribution_is_exact_under_concurrency() {
    assert!(alloc::profiling_active(), "installed allocator should be recording");
    let g_before = alloc::global_stats();

    let expected_total: u64 = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let before = alloc::thread_stats();
                    // Five raw buffer allocations of known byte sizes, and
                    // nothing else, between the two thread_stats probes —
                    // per-thread deltas must match to the byte even though
                    // all the other threads are allocating concurrently.
                    // `black_box` keeps the optimizer from removing the
                    // unused buffers (and their allocations) in release.
                    let a = std::hint::black_box(Vec::<u8>::with_capacity(SIZES[0] + t));
                    let b = std::hint::black_box(Vec::<u8>::with_capacity(SIZES[1]));
                    let c = std::hint::black_box(Vec::<u8>::with_capacity(SIZES[2]));
                    let d = std::hint::black_box(Vec::<u8>::with_capacity(SIZES[3]));
                    let e = std::hint::black_box(Vec::<u8>::with_capacity(SIZES[4]));
                    let mid = alloc::thread_stats();
                    drop((a, b, c, d, e));
                    let after = alloc::thread_stats();

                    let expected = (SIZES.iter().sum::<usize>() + t) as u64;
                    assert_eq!(
                        mid.allocated_bytes - before.allocated_bytes,
                        expected,
                        "thread {t}: allocated bytes"
                    );
                    assert_eq!(
                        mid.allocated_count - before.allocated_count,
                        SIZES.len() as u64,
                        "thread {t}: allocation count"
                    );
                    assert_eq!(
                        mid.live_bytes - before.live_bytes,
                        expected as i64,
                        "thread {t}: live bytes while buffers are held"
                    );
                    assert!(mid.peak_live_bytes >= mid.live_bytes, "thread {t}: peak below live");
                    assert_eq!(
                        after.freed_bytes - mid.freed_bytes,
                        expected,
                        "thread {t}: freed bytes after drop"
                    );
                    assert_eq!(
                        after.live_bytes, before.live_bytes,
                        "thread {t}: live bytes return to baseline"
                    );
                    expected
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread")).sum()
    });

    // The global counters aggregate every thread (plus whatever the
    // runtime allocated for the threads themselves), so the delta is
    // bounded below by the exact per-thread sum and above by that sum
    // plus a generous slack for spawn/join machinery.
    let g_after = alloc::global_stats();
    let delta = g_after.allocated_bytes - g_before.allocated_bytes;
    assert!(delta >= expected_total, "global delta {delta} below thread sum {expected_total}");
    const SLACK: u64 = 2 * 1024 * 1024;
    assert!(
        delta <= expected_total + SLACK,
        "global delta {delta} exceeds thread sum {expected_total} by more than {SLACK}"
    );
    assert!(g_after.freed_bytes >= g_before.freed_bytes + expected_total);
}

#[test]
fn spans_attribute_allocation_to_the_enclosing_scope() {
    const BUF: usize = 1 << 20;
    let obs = diva_obs::Obs::enabled();
    let span = obs.span("alloc.test");
    let buf = vec![0u8; BUF];
    std::hint::black_box(&buf);
    let close = span.end_profiled();
    drop(buf);

    let delta = close.alloc.expect("profiling is active, span carries a delta");
    assert!(delta.bytes >= BUF as u64, "span missed a 1 MiB allocation: {delta:?}");
    assert!(delta.count >= 1);
    assert!(
        delta.peak_live_delta >= BUF as u64,
        "holding the buffer must raise the live high-water: {delta:?}"
    );

    let snap = obs.snapshot();
    let rec = snap.spans.iter().find(|s| s.name == "alloc.test").expect("span recorded");
    assert_eq!(rec.alloc, Some(delta), "recorded delta matches the returned one");
}
