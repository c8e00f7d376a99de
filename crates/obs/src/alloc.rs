//! Memory attribution: a zero-dependency counting [`GlobalAlloc`]
//! wrapper and the counters behind it.
//!
//! [`CountingAlloc`] forwards every request to [`std::alloc::System`]
//! and records, per thread, the bytes and calls allocated, the live
//! bytes and their high-water mark, plus the process-wide live bytes.
//! Spans snapshot the per-thread counters on enter and exit
//! ([`baseline`] / [`measure`]), which is what attributes allocations
//! to the phase (and, under the portfolio, to the worker) that made
//! them: phase spans end on the thread that ran the phase, so the
//! thread-local delta *is* the phase's attribution. The live sampler
//! reads the process-wide count ([`live_bytes`]).
//!
//! The allocator observes nothing until a binary installs it with
//! `#[global_allocator]`. Library builds and test binaries that do not
//! install it export no allocation fields: the runtime gate
//! ([`profiling_active`]) stays `false` because the recording path
//! that arms it never runs, so [`measure`] returns `None`.
//!
//! Cost accounting: without an installed allocator, each span
//! open/close pays one relaxed atomic load. With it installed, each
//! heap operation pays one relaxed atomic add on the shared live count
//! plus thread-local `Cell` bumps — no locks, no allocation (the
//! counters are const-initialized, so touching them can never recurse
//! into the allocator).
//!
//! Concurrency notes: the global live count is exact (`fetch_add` on
//! a relaxed atomic loses nothing under contention). Per-thread `live`
//! and `peak` are signed because a thread may free memory another
//! thread allocated (cross-thread frees drive per-thread `live`
//! negative); `allocated_*` are exact per thread because only the
//! owning thread touches its cells.
//!
//! [`GlobalAlloc`]: std::alloc::GlobalAlloc

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Snapshot of one thread's allocation counters ([`thread_stats`]).
///
/// All counters are cumulative since the counting allocator was
/// installed (zero when it is absent). `live_bytes` and
/// `peak_live_bytes` are signed: a thread that frees buffers
/// allocated elsewhere can legitimately report negative live bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Total bytes requested from the allocator.
    pub allocated_bytes: u64,
    /// Number of allocation calls (including the alloc half of
    /// `realloc`).
    pub allocated_count: u64,
    /// Bytes currently outstanding (allocated minus freed), signed to
    /// tolerate cross-thread frees.
    pub live_bytes: i64,
    /// High-water mark of `live_bytes`; monotone non-decreasing.
    pub peak_live_bytes: i64,
}

/// What a span (or any bracketed region) allocated on its thread:
/// the difference between two [`AllocStats`] snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocDelta {
    /// Bytes allocated during the region.
    pub bytes: u64,
    /// Allocation calls during the region.
    pub count: u64,
    /// How much the thread's live high-water mark rose during the
    /// region (`max(0, peak_end - peak_start)`). Unlike `bytes`, this
    /// ignores memory that was allocated and freed again without
    /// raising the footprint, so it approximates the region's real
    /// contribution to peak RSS. Monotonicity of the peak makes this
    /// well-defined for nested spans.
    pub peak_live_delta: u64,
}

/// Set (once, by the first recorded heap operation) when a
/// [`CountingAlloc`] is actually installed as the global allocator.
/// This is the runtime gate behind [`profiling_active`]: nothing is
/// observable until a binary opts in with `#[global_allocator]`.
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Process-wide live bytes. Stored as `u64` updated with wrapping
/// add/sub: the process-wide free-after-alloc ordering keeps it
/// non-negative in practice, and [`live_bytes`] reads it back as `i64`
/// so a transient underflow cannot wedge anything.
static LIVE: AtomicU64 = AtomicU64::new(0);

/// Per-thread counters. Const-initialized so first touch from inside
/// the allocator cannot allocate (lazy TLS initializers would
/// recurse).
struct ThreadCells {
    alloc_bytes: Cell<u64>,
    alloc_count: Cell<u64>,
    live: Cell<i64>,
    peak: Cell<i64>,
}

thread_local! {
    static CELLS: ThreadCells = const {
        ThreadCells {
            alloc_bytes: Cell::new(0),
            alloc_count: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

fn record_alloc(size: u64) {
    // Arm the runtime gate on first use. Load-then-store keeps the
    // common case a read of a read-mostly cache line instead of a
    // store from every thread.
    if !INSTALLED.load(Ordering::Relaxed) {
        INSTALLED.store(true, Ordering::Relaxed);
    }
    LIVE.fetch_add(size, Ordering::Relaxed);
    // `try_with`, not `with`: the thread may be tearing down its TLS
    // block while late frees/allocs still arrive. Losing the
    // thread-local increment there is fine — no span on that thread
    // can still read it.
    let _ = CELLS.try_with(|c| {
        c.alloc_bytes.set(c.alloc_bytes.get() + size);
        c.alloc_count.set(c.alloc_count.get() + 1);
        let live = c.live.get() + size as i64;
        c.live.set(live);
        if live > c.peak.get() {
            c.peak.set(live);
        }
    });
}

fn record_dealloc(size: u64) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
    let _ = CELLS.try_with(|c| c.live.set(c.live.get() - size as i64));
}

/// Counting global allocator: forwards to [`std::alloc::System`] and
/// records every operation in the module's counters.
///
/// Install it per binary (never in a library):
///
/// ```ignore
/// #[global_allocator]
/// static GLOBAL: diva_obs::alloc::CountingAlloc = diva_obs::alloc::CountingAlloc::new();
/// ```
pub struct CountingAlloc;

impl CountingAlloc {
    /// Const constructor, usable in a `static` initializer.
    #[must_use]
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every method forwards verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping on the side never
// touches the returned memory and never allocates (const-init TLS,
// atomics), so it cannot recurse or alias.
#[expect(unsafe_code, reason = "the counting allocator must implement `GlobalAlloc`")]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            record_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            record_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        record_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Model a successful realloc as free(old) + alloc(new) so
            // live/peak track the footprint, not the call count alone.
            record_dealloc(layout.size() as u64);
            record_alloc(new_size as u64);
        }
        p
    }
}

/// Whether allocation profiling is live in this process: some binary
/// installed [`CountingAlloc`] as its `#[global_allocator]` (detected
/// at runtime from the first recorded heap operation). Everything that
/// snapshots counters gates on this so un-instrumented processes pay
/// one branch and emit nothing.
#[must_use]
pub fn profiling_active() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Cumulative allocation counters for the calling thread. Zeros when
/// profiling is not active (or the thread's TLS is tearing down).
#[must_use]
pub fn thread_stats() -> AllocStats {
    CELLS
        .try_with(|c| AllocStats {
            allocated_bytes: c.alloc_bytes.get(),
            allocated_count: c.alloc_count.get(),
            live_bytes: c.live.get(),
            peak_live_bytes: c.peak.get(),
        })
        .unwrap_or_default()
}

/// Bytes currently outstanding across the whole process; zero when
/// profiling is not active.
#[must_use]
pub fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed) as i64
}

/// The calling thread's allocation delta since `start` (an earlier
/// [`thread_stats`] snapshot on the same thread).
#[must_use]
pub fn delta_since(start: &AllocStats) -> AllocDelta {
    let now = thread_stats();
    AllocDelta {
        bytes: now.allocated_bytes.saturating_sub(start.allocated_bytes),
        count: now.allocated_count.saturating_sub(start.allocated_count),
        peak_live_delta: (now.peak_live_bytes - start.peak_live_bytes).max(0) as u64,
    }
}

/// Span-enter snapshot: [`thread_stats`] when profiling is active,
/// zeros otherwise. The single branch here is the entire cost a span
/// pays on open in an un-instrumented process.
#[must_use]
pub fn baseline() -> AllocStats {
    if profiling_active() {
        thread_stats()
    } else {
        AllocStats::default()
    }
}

/// Span-exit measurement: the thread's delta since `start`, or `None`
/// when profiling is not active. `None` is what keeps exports free of
/// allocation fields in un-instrumented processes — absent deltas
/// render nothing.
#[must_use]
pub fn measure(start: &AllocStats) -> Option<AllocDelta> {
    if profiling_active() {
        Some(delta_since(start))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_without_an_installed_allocator() {
        // In this test binary no `#[global_allocator]` is declared, so
        // the runtime gate must be off and measurements must be absent.
        assert!(!profiling_active());
        assert_eq!(measure(&baseline()), None);
        assert_eq!(thread_stats(), AllocStats::default());
        assert_eq!(live_bytes(), 0);
    }
}
