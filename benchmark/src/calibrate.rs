//! Host-speed calibration.
//!
//! The hosts this ledger is made on run at two clock speeds about 28 %
//! apart (base and turbo; `cpu MHz` does not show it inside the guest) and
//! move between them every few seconds to every few minutes, for every
//! kind of work alike: fib, syscalls and a Python loop all slow down by
//! the same factor at the same moment. No statistic over the blocks of one
//! run removes that — whole runs land in one state — so ten runs of the
//! same code would spread by 15–25 % on every timing.
//!
//! So the clock is measured too. A fixed chain of dependent integer
//! operations (it runs in a fixed number of cycles, touches no memory and
//! makes no call) is timed before and after every block and every set-up,
//! and the block's times are scaled to what they would have been at the
//! reference clock: `calibrated = measured × REFERENCE_NS ÷ chain_ns`. The
//! uncalibrated wall times and each block's `host_speed` are kept in the
//! result files.
//!
//! `REFERENCE_NS` is the chain's time at this host's base clock, the state
//! it is in most of the time, so a calibrated second is a second there. On
//! another machine every timing is off by one constant factor, the same for
//! both sides of any comparison.

use std::hint::black_box;
use std::time::Instant;

/// Steps of the dependent chain in one sample: just under 2 ms.
const CHAIN_STEPS: u64 = 1_000_000;
/// The chain's time at the reference (base) clock, in ns.
pub const REFERENCE_NS: f64 = 1_860_000.0;

fn chain(steps: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

/// Nanoseconds the chain takes right now: the least of three back-to-back
/// samples, because an interruption can only add time.
///
/// Always taken on the work CPU: the two CPUs' clocks move independently.
pub fn chain_ns() -> f64 {
    crate::affinity::on_work_cpu(|| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                chain(CHAIN_STEPS);
                t0.elapsed().as_nanos() as f64
            })
            .fold(f64::MAX, f64::min)
    })
}

/// How fast the host ran between two calibration samples, relative to the
/// reference clock: multiply a measured time by this to calibrate it.
pub fn host_speed(before_ns: f64, after_ns: f64) -> f64 {
    REFERENCE_NS / ((before_ns + after_ns) / 2.0)
}
