//! Memory attribution: a zero-dependency counting [`GlobalAlloc`]
//! wrapper and the per-thread / global counters behind it.
//!
//! [`CountingAlloc`] forwards every request to [`std::alloc::System`]
//! and records bytes/count allocated, bytes/count freed, and the live
//! high-water mark — twice: once in process-global atomics and once in
//! per-thread `Cell`s. Spans snapshot the per-thread counters on enter
//! and exit ([`baseline`] / [`measure`]), which is what attributes
//! allocations to the phase (and, under the portfolio, to the worker)
//! that made them: phase spans end on the thread that ran the phase,
//! so the thread-local delta *is* the phase's attribution.
//!
//! Layering:
//!
//! * The **types and query API** ([`AllocStats`], [`AllocDelta`],
//!   [`thread_stats`], [`global_stats`], [`delta_since`],
//!   [`profiling_active`], [`baseline`], [`measure`]) are always
//!   compiled, so downstream crates need no feature gates. Without the
//!   `alloc-profile` cargo feature they are constant-foldable stubs:
//!   [`profiling_active`] is literally `false` and [`measure`] is
//!   literally `None`.
//! * The **counting allocator itself** exists only under
//!   `alloc-profile`, and even then it only observes anything once a
//!   binary installs it with `#[global_allocator]`. Library builds and
//!   test binaries that do not install it keep every trace and export
//!   byte-identical to a build without the feature: the runtime gate
//!   ([`profiling_active`]) stays `false` because the recording path
//!   that arms it never runs.
//!
//! Cost accounting: with the feature off, the span hot path pays
//! nothing (the stubs fold away). With the feature on but no installed
//! allocator, each span open/close pays one relaxed atomic load. With
//! the allocator installed, each heap operation pays a handful of
//! relaxed atomic adds plus thread-local `Cell` bumps — no locks, no
//! allocation (the counters are const-initialized, so touching them
//! can never recurse into the allocator).
//!
//! Concurrency notes: global counters are exact (`fetch_add` on
//! relaxed atomics loses nothing under contention; the global peak
//! uses `fetch_max` over the post-add live value). Per-thread `live`
//! and `peak` are signed because a thread may free memory another
//! thread allocated (cross-thread frees drive per-thread `live`
//! negative); `allocated_*` and `freed_*` are exact per thread because
//! only the owning thread touches its cells.
//!
//! [`GlobalAlloc`]: std::alloc::GlobalAlloc
//! [`CountingAlloc`]: crate::alloc::CountingAlloc
//! [`baseline`]: crate::alloc::baseline
//! [`measure`]: crate::alloc::measure
//! [`thread_stats`]: crate::alloc::thread_stats
//! [`global_stats`]: crate::alloc::global_stats
//! [`delta_since`]: crate::alloc::delta_since
//! [`profiling_active`]: crate::alloc::profiling_active

#[cfg(feature = "alloc-profile")]
use std::alloc::{GlobalAlloc, Layout, System};
#[cfg(feature = "alloc-profile")]
use std::cell::Cell;
#[cfg(feature = "alloc-profile")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Snapshot of allocation counters, either for one thread
/// ([`thread_stats`]) or for the whole process ([`global_stats`]).
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
    /// Total bytes returned to the allocator.
    pub freed_bytes: u64,
    /// Number of deallocation calls (including the free half of
    /// `realloc`).
    pub freed_count: u64,
    /// Bytes currently outstanding (`allocated - freed`), signed to
    /// tolerate cross-thread frees in the per-thread view.
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

impl AllocDelta {
    /// Sum two deltas field-wise (`peak_live_delta` adds too: for
    /// disjoint sequential regions the peak rises are additive upper
    /// bounds, which is the conservative direction for a profiler).
    #[must_use]
    pub fn merged(self, other: AllocDelta) -> AllocDelta {
        AllocDelta {
            bytes: self.bytes + other.bytes,
            count: self.count + other.count,
            peak_live_delta: self.peak_live_delta + other.peak_live_delta,
        }
    }
}

#[cfg(feature = "alloc-profile")]
mod counting {
    use super::{AtomicBool, AtomicU64, Cell, Ordering};

    /// Set (once, by the first recorded heap operation) when a
    /// [`super::CountingAlloc`] is actually installed as the global
    /// allocator. This is the runtime gate behind
    /// [`super::profiling_active`]: building with `alloc-profile` does
    /// nothing observable until a binary opts in with
    /// `#[global_allocator]`.
    pub(super) static INSTALLED: AtomicBool = AtomicBool::new(false);

    pub(super) static G_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
    pub(super) static G_ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
    pub(super) static G_FREED_BYTES: AtomicU64 = AtomicU64::new(0);
    pub(super) static G_FREED_COUNT: AtomicU64 = AtomicU64::new(0);
    /// Global live bytes. Stored as `u64` updated with wrapping
    /// add/sub: the process-wide free-after-alloc ordering keeps it
    /// non-negative in practice, and the snapshot reads it back as
    /// `i64` so a transient underflow cannot wedge anything.
    pub(super) static G_LIVE: AtomicU64 = AtomicU64::new(0);
    pub(super) static G_PEAK: AtomicU64 = AtomicU64::new(0);

    /// Per-thread counters. Const-initialized so first touch from
    /// inside the allocator cannot allocate (lazy TLS initializers
    /// would recurse).
    pub(super) struct ThreadCells {
        pub alloc_bytes: Cell<u64>,
        pub alloc_count: Cell<u64>,
        pub freed_bytes: Cell<u64>,
        pub freed_count: Cell<u64>,
        pub live: Cell<i64>,
        pub peak: Cell<i64>,
    }

    thread_local! {
        pub(super) static CELLS: ThreadCells = const {
            ThreadCells {
                alloc_bytes: Cell::new(0),
                alloc_count: Cell::new(0),
                freed_bytes: Cell::new(0),
                freed_count: Cell::new(0),
                live: Cell::new(0),
                peak: Cell::new(0),
            }
        };
    }

    pub(super) fn record_alloc(size: u64) {
        // Arm the runtime gate on first use. Load-then-store keeps the
        // common case a read of a read-mostly cache line instead of a
        // store from every thread.
        if !INSTALLED.load(Ordering::Relaxed) {
            INSTALLED.store(true, Ordering::Relaxed);
        }
        G_ALLOC_BYTES.fetch_add(size, Ordering::Relaxed);
        G_ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        let live = G_LIVE.fetch_add(size, Ordering::Relaxed).wrapping_add(size);
        G_PEAK.fetch_max(live, Ordering::Relaxed);
        // `try_with`, not `with`: the thread may be tearing down its
        // TLS block while late frees/allocs still arrive. Losing the
        // thread-local increment there is fine — the global counters
        // above already recorded it.
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

    pub(super) fn record_dealloc(size: u64) {
        G_FREED_BYTES.fetch_add(size, Ordering::Relaxed);
        G_FREED_COUNT.fetch_add(1, Ordering::Relaxed);
        G_LIVE.fetch_sub(size, Ordering::Relaxed);
        let _ = CELLS.try_with(|c| {
            c.freed_bytes.set(c.freed_bytes.get() + size);
            c.freed_count.set(c.freed_count.get() + 1);
            c.live.set(c.live.get() - size as i64);
        });
    }
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
///
/// Only exists under the `alloc-profile` feature; binaries that gate
/// the static on the same feature compile cleanly either way.
#[cfg(feature = "alloc-profile")]
pub struct CountingAlloc;

#[cfg(feature = "alloc-profile")]
impl CountingAlloc {
    /// Const constructor, usable in a `static` initializer.
    #[must_use]
    pub const fn new() -> Self {
        CountingAlloc
    }
}

#[cfg(feature = "alloc-profile")]
impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every method forwards verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping on the side never
// touches the returned memory and never allocates (const-init TLS,
// atomics), so it cannot recurse or alias.
#[cfg(feature = "alloc-profile")]
#[expect(unsafe_code, reason = "the counting allocator must implement `GlobalAlloc`")]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            counting::record_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            counting::record_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        counting::record_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Model a successful realloc as free(old) + alloc(new) so
            // live/peak track the footprint, not the call count alone.
            counting::record_dealloc(layout.size() as u64);
            counting::record_alloc(new_size as u64);
        }
        p
    }
}

/// Whether allocation profiling is live in this process: the crate
/// was built with `alloc-profile` **and** some binary installed
/// [`CountingAlloc`] as its `#[global_allocator]` (detected at
/// runtime from the first recorded heap operation). Everything that
/// snapshots counters gates on this so un-instrumented builds pay one
/// branch and emit nothing.
#[cfg(feature = "alloc-profile")]
#[must_use]
pub fn profiling_active() -> bool {
    counting::INSTALLED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Stub: always `false` without the `alloc-profile` feature.
#[cfg(not(feature = "alloc-profile"))]
#[must_use]
pub fn profiling_active() -> bool {
    false
}

/// Cumulative allocation counters for the calling thread. Zeros when
/// profiling is not active (or the thread's TLS is tearing down).
#[cfg(feature = "alloc-profile")]
#[must_use]
pub fn thread_stats() -> AllocStats {
    counting::CELLS
        .try_with(|c| AllocStats {
            allocated_bytes: c.alloc_bytes.get(),
            allocated_count: c.alloc_count.get(),
            freed_bytes: c.freed_bytes.get(),
            freed_count: c.freed_count.get(),
            live_bytes: c.live.get(),
            peak_live_bytes: c.peak.get(),
        })
        .unwrap_or_default()
}

/// Stub: all-zero counters without the `alloc-profile` feature.
#[cfg(not(feature = "alloc-profile"))]
#[must_use]
pub fn thread_stats() -> AllocStats {
    AllocStats::default()
}

/// Cumulative allocation counters for the whole process.
#[cfg(feature = "alloc-profile")]
#[must_use]
pub fn global_stats() -> AllocStats {
    use std::sync::atomic::Ordering;
    AllocStats {
        allocated_bytes: counting::G_ALLOC_BYTES.load(Ordering::Relaxed),
        allocated_count: counting::G_ALLOC_COUNT.load(Ordering::Relaxed),
        freed_bytes: counting::G_FREED_BYTES.load(Ordering::Relaxed),
        freed_count: counting::G_FREED_COUNT.load(Ordering::Relaxed),
        live_bytes: counting::G_LIVE.load(Ordering::Relaxed) as i64,
        peak_live_bytes: counting::G_PEAK.load(Ordering::Relaxed) as i64,
    }
}

/// Stub: all-zero counters without the `alloc-profile` feature.
#[cfg(not(feature = "alloc-profile"))]
#[must_use]
pub fn global_stats() -> AllocStats {
    AllocStats::default()
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
/// when profiling is not active. `None` is what keeps exports
/// byte-identical in un-instrumented builds — absent deltas render
/// nothing.
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
    fn delta_since_subtracts_fieldwise() {
        let start = AllocStats {
            allocated_bytes: 100,
            allocated_count: 3,
            freed_bytes: 40,
            freed_count: 1,
            live_bytes: 60,
            peak_live_bytes: 80,
        };
        // Fabricate "now" by delegating through the public API is not
        // possible without an installed allocator, so exercise the
        // arithmetic on the pure parts instead.
        let now = AllocStats {
            allocated_bytes: 150,
            allocated_count: 5,
            freed_bytes: 90,
            freed_count: 2,
            live_bytes: 60,
            peak_live_bytes: 95,
        };
        let d = AllocDelta {
            bytes: now.allocated_bytes - start.allocated_bytes,
            count: now.allocated_count - start.allocated_count,
            peak_live_delta: (now.peak_live_bytes - start.peak_live_bytes).max(0) as u64,
        };
        assert_eq!(d, AllocDelta { bytes: 50, count: 2, peak_live_delta: 15 });
        let sum = d.merged(AllocDelta { bytes: 1, count: 1, peak_live_delta: 1 });
        assert_eq!(sum, AllocDelta { bytes: 51, count: 3, peak_live_delta: 16 });
    }

    #[test]
    fn stubs_are_inert_without_an_installed_allocator() {
        // In this test binary no `#[global_allocator]` is declared, so
        // regardless of the cargo feature the runtime gate must be
        // off and measurements must be absent.
        assert!(!profiling_active());
        assert_eq!(measure(&baseline()), None);
        assert_eq!(thread_stats(), AllocStats::default());
    }
}
