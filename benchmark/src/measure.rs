//! Runs one workload: set-ups, a discarded warm-up block, measured blocks
//! of fixed work, tear-down with its audit. Both passes use this — the
//! untraced pass until the clock runs out, the traced pass for a fixed
//! number of blocks with the tracer on.

use std::time::Instant;

use crate::api::{Counters, PoolCounters};
use crate::calibrate::{chain_ns, host_speed};
use crate::rng::Rng;
use crate::trace::{At, Tracer};
use crate::workloads::{Block, LayerCounters, Scale, Teardown, Workload};

/// How many blocks to measure.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// At least this many seconds of measured blocks (and at least
    /// [`MIN_BLOCKS`] of them).
    Seconds(f64),
    Blocks(u32),
    /// This many pairs of blocks for a traced pass: each pair does the
    /// same work twice, first with the tracer paused and then recording,
    /// so their ratio is what tracing costs.
    TracedPairs(u32),
}

/// Fewer than this and a median means little.
pub const MIN_BLOCKS: usize = 3;

/// A wall time and how fast the host was running while it was taken (see
/// `calibrate`).
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub seconds: f64,
    pub host_speed: f64,
}

#[derive(Debug)]
pub struct Measured {
    pub setups: Vec<Timed>,
    pub blocks: Vec<Block>,
    /// Layer counters over the measured blocks only.
    pub vm: Counters,
    pub pool: PoolCounters,
    pub teardown: Teardown,
    /// Wall time of the measured blocks.
    pub measured_seconds: f64,
    /// `VmHWM` in MiB once [`MIN_BLOCKS`] blocks were measured (at the end,
    /// if fewer were). Read after a fixed amount of work, not at exit: how
    /// many blocks fit in the run's seconds depends on speed, and memory
    /// that grows with work done would make a faster build look fatter.
    pub peak_rss_mib: f64,
}

fn delta(after: &LayerCounters, before: &LayerCounters) -> (Counters, PoolCounters) {
    let pool = match (&after.pool, &before.pool) {
        (Some(after), Some(before)) => after.since(before),
        _ => PoolCounters::default(),
    };
    (after.vm.delta_since(&before.vm), pool)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib_now() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM in status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable `{line}`"))?;
    Ok(kib / 1024.0)
}

pub fn measure<W: Workload>(
    t: &mut Tracer,
    scale: &Scale,
    seed: u64,
    setups: u32,
    until: Until,
) -> Result<Measured, String> {
    let root = t.enter(At::Workload, 0);

    // Every set-up but the last is torn down again: `setup_s` is the
    // median of several, so one slow boot does not decide it.
    let mut timed_setups = Vec::with_capacity(setups as usize);
    let mut workload = None;
    for _ in 0..setups.max(1) {
        if let Some(previous) = workload.take() {
            W::teardown(previous, t)?;
        }
        let chain_before = chain_ns();
        let t0 = Instant::now();
        workload = Some(W::setup(t, scale)?);
        let seconds = t0.elapsed().as_secs_f64();
        timed_setups.push(Timed { seconds, host_speed: host_speed(chain_before, chain_ns()) });
    }
    let mut workload = workload.expect("at least one set-up");

    // Warm-up: caches fill, the segment cache and heap pools reach their
    // steady size. Its answers are still checked.
    let warm = workload.block(t, &mut Rng::new(seed, 0), scale)?;
    if warm.failed > 0 {
        return Err(format!("warm-up block failed: {}", warm.complaints.join("; ")));
    }

    let before = workload.counters()?;
    let mut blocks = Vec::new();
    let mut peak_rss_mib = None;
    let mut chain_before = chain_ns();
    let t0 = Instant::now();
    loop {
        let enough = match until {
            Until::Seconds(s) => blocks.len() >= MIN_BLOCKS && t0.elapsed().as_secs_f64() >= s,
            Until::Blocks(n) => blocks.len() >= n as usize,
            Until::TracedPairs(n) => blocks.len() >= 2 * n as usize,
        };
        if enough {
            break;
        }
        // A traced pass runs each block's work twice: recording paused,
        // then recording.
        let n = blocks.len() as u64;
        let (index, paused) = match until {
            Until::TracedPairs(_) => (n / 2 + 1, n.is_multiple_of(2)),
            _ => (n + 1, false),
        };
        let pause = paused.then(|| t.pause());
        // A block's inputs depend on the seed and its index alone, so the
        // same seed always means the same work, block for block.
        let block = workload.block(t, &mut Rng::new(seed, index), scale);
        if let Some(pause) = pause {
            t.resume(pause);
        }
        let mut block = block?;
        block.traced = matches!(until, Until::TracedPairs(_)) && !paused;
        // One sample between blocks serves as the end of one and the start
        // of the next.
        let chain_after = chain_ns();
        block.host_speed = host_speed(chain_before, chain_after);
        chain_before = chain_after;
        blocks.push(block);
        if blocks.len() == MIN_BLOCKS {
            peak_rss_mib = Some(peak_rss_mib_now()?);
        }
    }
    let measured_seconds = t0.elapsed().as_secs_f64();
    let after = workload.counters()?;
    let (vm, pool) = delta(&after, &before);

    let teardown = workload.teardown(t)?;
    t.exit(root);
    let peak_rss_mib = match peak_rss_mib {
        Some(mib) => mib,
        None => peak_rss_mib_now()?,
    };
    Ok(Measured {
        setups: timed_setups,
        blocks,
        vm,
        pool,
        teardown,
        measured_seconds,
        peak_rss_mib,
    })
}
