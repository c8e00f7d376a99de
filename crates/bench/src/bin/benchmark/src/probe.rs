//! The host-speed probe.
//!
//! The reference host is a shared 2-core virtual machine that runs up
//! to 30% slower for minutes at a time. The drift slows the program and
//! a plain integer loop alike: over fifteen minutes, their lower deciles
//! in 20-second windows correlated at 0.98. The timed end-to-end metrics
//! are therefore reported in *reference seconds*: measured seconds
//! scaled by how much slower than [`REFERENCE_S`] the loop ran in the
//! same window. Under heavy contention the program slows somewhat more
//! than the loop, so the scale corrects most of the drift, not all.

use diva_obs::Stopwatch;

use crate::stats;

/// The loop's lower-decile time on the reference host at full speed.
pub const REFERENCE_S: f64 = 0.0108;

/// Times one run of the loop: a single-threaded xorshift chain that
/// lives in registers, so only the core's speed moves it.
pub fn sample() -> f64 {
    let clock = Stopwatch::start();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..4_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    clock.elapsed().as_secs_f64()
}

/// The factor that turns seconds measured in the window of `samples`
/// into reference seconds.
pub fn scale(samples: &[f64]) -> f64 {
    REFERENCE_S / stats::percentile(samples, 10.0)
}
