//! The five workloads, and what they have in common: a set-up, a
//! repeatable fixed-work block, cumulative layer counters, and a tear-down
//! that audits for leaks.
//!
//! Every workload is a closed loop: each caller waits for its reply before
//! sending again, so a slower system is offered less load and the numbers
//! are completion rates, not arrival rates.

pub mod compute_plain;
pub mod paper_control;
pub mod pool_jobs;
pub mod serve;

use crate::api::{Counters, PoolSnapshot};
use crate::rng::Rng;
use crate::trace::Tracer;

/// `name`, and why the workload exists (copied into `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "paper-control",
        "the paper's control-heavy programs (ctak, Figure 5 threads, deep recursion, generators, \
         engines): core capture/reinstate/overflow/subcont does most of the work",
    ),
    (
        "compute-plain",
        "fib, tak, boyer and the reader+compiler with no first-class control: the bypass workload \
         on which a control, threads or reactor change must predict no change",
    ),
    (
        "pool-jobs",
        "64 mixed jobs in flight on a one-worker pool: exec queueing, per-job compile on submit \
         and engine slice switching (one one-shot capture per preemption); no sockets",
    ),
    (
        "serve-echo",
        "echo round trips over 1000 resident connections, 16 in flight: reactor re-arm and wake, \
         the would-block escape and tcp-read/tcp-write with ~985 continuations parked",
    ),
    (
        "serve-churn",
        "connect, one echo, close, with no resident set: accept routing, per-connection handler \
         spawn, interest add/delete and fd close rather than re-arm on a warm fd",
    ),
];

/// Sizes of everything. The shapes (mixes, window, payload, resident set,
/// switch frequency) are the workload; only how much of it one block does
/// shrinks for `--smoke`.
#[derive(Debug, Clone)]
pub struct Scale {
    pub name: &'static str,
    // paper-control
    pub ctak_rounds: u32,
    pub fig5_threads: u32,
    pub fig5_fib: u32,
    pub deep_rounds: u32,
    pub deep_depth: u32,
    pub gen_yields: u32,
    pub engines: u32,
    pub engine_fib: u32,
    // compute-plain
    pub fib_n: u32,
    pub tak_args: (u32, u32, u32),
    pub boyer_rounds: u32,
    pub frontend_boots: u32,
    pub frontend_compiles: u32,
    // pool-jobs
    pub jobs_per_block: u32,
    // serve-echo / serve-churn
    pub resident: usize,
    pub echoes_per_block: u32,
    pub conns_per_block: u32,
    // run shape
    /// Set-ups per run; `setup_s` is their median.
    pub setups: u32,
    /// A traced pass measures this many pairs of blocks, each pair once
    /// with recording paused and once recording.
    pub traced_pairs: u32,
    /// Divides every micro-probe's iteration count.
    pub probe_divisor: u64,
}

/// Figure 5's x-axis: procedure calls between context switches.
pub const FIG5_SWITCH_EVERY: u64 = 32;
/// Fuel per `EngineHost::step` in the engine round-robin.
pub const ENGINE_FUEL: u64 = 256;
pub const CTAK_ARGS: (u32, u32, u32) = (18, 12, 6);
/// Jobs in flight on the pool (the injector holds 256).
pub const POOL_OUTSTANDING: usize = 64;
pub const POOL_FUEL_SLICE: u64 = 1024;
/// Echo requests in flight across the resident connections.
pub const ECHO_WINDOW: usize = 16;
pub const PAYLOAD_BYTES: usize = 64;

impl Scale {
    pub fn full() -> Scale {
        Scale {
            name: "full",
            ctak_rounds: 20,
            fig5_threads: 100,
            fig5_fib: 20,
            deep_rounds: 10,
            deep_depth: 200_000,
            gen_yields: 100_000,
            engines: 100,
            engine_fib: 18,
            fib_n: 30,
            tak_args: (24, 16, 8),
            boyer_rounds: 5,
            frontend_boots: 50,
            frontend_compiles: 200,
            jobs_per_block: 5_000,
            resident: 1_000,
            echoes_per_block: 30_000,
            conns_per_block: 10_000,
            setups: 9,
            traced_pairs: 2,
            probe_divisor: 1,
        }
    }

    /// Same code paths and checks at roughly a tenth of the work.
    pub fn smoke() -> Scale {
        Scale {
            name: "smoke",
            ctak_rounds: 2,
            fig5_threads: 20,
            fig5_fib: 15,
            deep_rounds: 2,
            deep_depth: 20_000,
            gen_yields: 10_000,
            engines: 20,
            engine_fib: 14,
            fib_n: 22,
            tak_args: (18, 12, 6),
            boyer_rounds: 1,
            frontend_boots: 5,
            frontend_compiles: 10,
            jobs_per_block: 400,
            resident: 100,
            echoes_per_block: 2_000,
            conns_per_block: 500,
            setups: 1,
            traced_pairs: 1,
            probe_divisor: 20,
        }
    }
}

/// One repetition of a workload's fixed work.
#[derive(Debug, Default)]
pub struct Block {
    pub seconds: f64,
    pub attempted: u64,
    /// Failed, refused or wrong-answer operations.
    pub failed: u64,
    /// One entry per completed operation.
    pub latencies_us: Vec<f64>,
    /// Named sub-results in milliseconds (one per program on the VM
    /// workloads).
    pub rows: Vec<(&'static str, f64)>,
    /// Guest instructions the block retired, where one process-local VM
    /// set does all the work and the count must repeat exactly.
    pub instructions: Option<u64>,
    /// The first few failures, for the error message.
    pub complaints: Vec<String>,
    /// Set by the runner: spans were being recorded.
    pub traced: bool,
    /// Set by the runner: the host's speed during the block relative to the
    /// reference clock (`calibrate`); times are multiplied by it.
    pub host_speed: f64,
}

impl Block {
    pub fn complain(&mut self, what: String) {
        self.failed += 1;
        if self.complaints.len() < 5 {
            self.complaints.push(what);
        }
    }

    /// Checks a written result against `expected.txt`.
    pub fn check(&mut self, question: &str, got: Result<String, String>) {
        self.attempted += 1;
        match (crate::expected::answer(question), got) {
            (Ok(want), Ok(got)) if want == got => {}
            (Ok(want), Ok(got)) => self.complain(format!("{question}: wrote {got}, want {want}")),
            (Ok(_), Err(e)) => self.complain(format!("{question}: {e}")),
            (Err(e), _) => self.complain(e),
        }
    }
}

/// Cumulative counters of the layers a workload drives; the runner
/// subtracts a snapshot before the measured blocks from one after.
#[derive(Debug, Clone, Default)]
pub struct LayerCounters {
    pub vm: Counters,
    /// `None` on the workloads that run no pool.
    pub pool: Option<PoolSnapshot>,
}

/// What the post-drain audit and shutdown found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Teardown {
    pub leaked_sockets: i64,
    /// Live stack segments beyond what the same VMs held after set-up.
    pub leaked_segments: i64,
    pub shutdown_s: f64,
}

pub trait Workload: Sized {
    /// Process start to ready for the first measured operation: VM and
    /// pool boot, library load, compile, the resident ramp.
    fn setup(t: &mut Tracer, scale: &Scale) -> Result<Self, String>;

    /// One repetition of the fixed work, with inputs drawn from `rng`.
    fn block(&mut self, t: &mut Tracer, rng: &mut Rng, scale: &Scale) -> Result<Block, String>;

    fn counters(&mut self) -> Result<LayerCounters, String>;

    /// Drains, audits for leaked sockets and segments, shuts down.
    fn teardown(self, t: &mut Tracer) -> Result<Teardown, String>;
}
