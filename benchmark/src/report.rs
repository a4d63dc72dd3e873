//! The ledger's vocabulary: every metric's name, unit, direction and
//! bound, declared once, and the code that turns a measured workload into
//! those metrics. `BENCHMARK.json` is this file's tables written out
//! (`oneshot-benchmark manifest`).

use crate::api::{Counters, PoolCounters, POOL_BACKEND, POOL_WORKERS};
use crate::json::Json;
use crate::measure::Measured;
use crate::probes::Probed;
use crate::stats::{median, p50_p99, Summary};
use crate::trace::{At, Tracer, SPAN_NAMES};
use crate::workloads::{Scale, Teardown};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression.
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports every one of
/// these; an operation is a job, a round trip or a connection on the pool
/// and serve workloads and one program run on the two VM workloads.
///
/// Failures are not in this table because a metric here must never read 0:
/// they travel as `attempted`/`failed` beside it, any failure makes the run
/// incorrect, and the ledger prints `fail_ratio`.
///
/// The bounds are three times the widest run-to-run spread (interquartile
/// range over the median of ten runs) each metric showed on any workload on
/// the two-CPU shared host this was written on, after calibration, capped
/// at the 25 % a manifest may ask for: 8 % for `batch_s` and `ops_per_s`,
/// 7 % for `p50_us`, 12 % for `p99_us`, 4 % for `peak_rss_mb`. The host,
/// not the method, sets them; a quieter host supports tighter ones.
pub const END_TO_END: [EndToEnd; 6] = [
    // boot to ready for the first measured operation (VM/pool boot, library
    // load, compile, resident ramp); median of the run's set-ups
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    // wall time of one block of fixed work; median over the run's blocks
    EndToEnd { name: "batch_s", unit: "s", better: Better::Lower, bound: 0.25 },
    // operations completed correctly per second of block time; median over
    // blocks
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    // median operation latency within a block; median over blocks
    EndToEnd { name: "p50_us", unit: "us", better: Better::Lower, bound: 0.20 },
    // 99th-percentile (nearest rank) operation latency within a block;
    // median over blocks. On the VM workloads a block has one sample per
    // program, so this is the slowest program
    EndToEnd { name: "p99_us", unit: "us", better: Better::Lower, bound: 0.25 },
    // VmHWM of the workload's process once three blocks were measured
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.12 },
];

/// What a traced pass measured, as the per-layer table sees it.
pub struct Traced<'a> {
    /// Counters over the measured blocks.
    vm: &'a Counters,
    pool: &'a PoolCounters,
    teardown: Teardown,
    measured_seconds: f64,
    /// Operations attempted in the measured blocks.
    ops: u64,
    /// Guest instructions of each measured block (VM workloads only).
    instructions: Vec<u64>,
    /// Median calibrated block time, recording and paused.
    recording_block_s: f64,
    paused_block_s: f64,
    spans: usize,
    /// Self seconds per span name; `recording_s` is the root less the
    /// paused blocks, which is what the shares are shares of.
    self_seconds: [f64; SPAN_NAMES.len()],
    recording_s: f64,
}

impl Traced<'_> {
    fn share(&self, at: At) -> f64 {
        self.self_seconds[at as usize] / self.recording_s
    }
}

/// Where a per-layer value comes from.
#[derive(Clone, Copy)]
pub enum Source {
    /// A layer primitive timed from outside by `probes`, under this
    /// metric's name; the same whichever workload the pass was made for.
    Probe,
    /// Counter deltas, ratios and audits of the traced workload's measured
    /// blocks, and what the recorded spans say.
    Of(fn(&Traced) -> f64),
}

#[derive(Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn probe(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, source: Source::Probe }
}

const fn count(name: &'static str, of: fn(&Traced) -> f64) -> PerLayer {
    PerLayer { name, unit: "count", better: Better::Lower, source: Source::Of(of) }
}

const fn ratio(name: &'static str, better: Better, of: fn(&Traced) -> f64) -> PerLayer {
    PerLayer { name, unit: "ratio", better, source: Source::Of(of) }
}

const fn timed(name: &'static str, unit: &'static str, of: fn(&Traced) -> f64) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, source: Source::Of(of) }
}

fn per(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Layer = module name. Order is the ledger's order.
pub const PER_LAYER: [PerLayer; 90] = [
    probe("core.capture_one_ns", "ns"),
    probe("core.capture_multi_ns", "ns"),
    probe("core.overflow_ns", "ns"),
    probe("core.subcont_ns", "ns"),
    probe("core.abort_ns", "ns"),
    count("core.captures_one", |t| t.vm.captures_one as f64),
    count("core.captures_multi", |t| t.vm.captures_multi as f64),
    count("core.reinstates", |t| t.vm.reinstates as f64),
    count("core.slots_copied", |t| t.vm.slots_copied as f64),
    count("core.overflows", |t| t.vm.overflows as f64),
    count("core.subconts_taken", |t| t.vm.subconts_taken as f64),
    count("core.segments_allocated", |t| t.vm.segments_allocated as f64),
    ratio("core.cache_hit_ratio", Better::Higher, |t| {
        per(t.vm.cache_hits, t.vm.cache_hits + t.vm.segments_allocated)
    }),
    count("core.leaked_segments", |t| t.teardown.leaked_segments as f64),
    probe("sexp.read_ns_per_byte", "ns/B"),
    probe("compiler.compile_us", "us"),
    probe("compiler.compile_job_us", "us"),
    probe("runtime.alloc_pair_ns", "ns"),
    count("runtime.objects_allocated", |t| t.vm.objects_allocated as f64),
    count("runtime.words_allocated", |t| t.vm.words_allocated as f64),
    count("runtime.gc_collections", |t| t.vm.gc_collections as f64),
    timed("runtime.gc_pause_ms", "ms", |t| t.vm.gc_pause_ns as f64 / 1e6),
    timed("runtime.gc_max_pause_us", "us", |t| t.vm.gc_max_pause_ns as f64 / 1e3),
    ratio("runtime.gc_share", Better::Lower, |t| {
        t.vm.gc_pause_ns as f64 / 1e9 / t.measured_seconds
    }),
    count("runtime.peak_live_objects", |t| t.vm.peak_live_objects as f64),
    probe("vm.boot_us", "us"),
    probe("vm.load_us", "us"),
    count("vm.instructions", |t| t.vm.instructions as f64),
    count("vm.calls", |t| t.vm.calls as f64),
    count("vm.instructions_per_block", |t| t.instructions.first().copied().unwrap_or(0) as f64),
    // 1 when every block, paused or recording, retired the same number of
    // guest instructions: tracing must not change what the guest executes.
    count("vm.instructions_repeat", |t| {
        f64::from(u8::from(t.instructions.windows(2).all(|w| w[0] == w[1])))
    }),
    probe("vm.ns_per_instruction", "ns"),
    probe("vm.prog_ms.ctak-1cc", "ms"),
    probe("vm.prog_ms.ctak-cc", "ms"),
    probe("vm.prog_ms.fig5-1cc", "ms"),
    probe("vm.prog_ms.fig5-cc", "ms"),
    probe("vm.prog_ms.fig5-cps", "ms"),
    probe("vm.prog_ms.deep-overflow", "ms"),
    probe("vm.prog_ms.gen-prompt", "ms"),
    probe("vm.prog_ms.engine-rr", "ms"),
    probe("vm.prog_ms.fib", "ms"),
    probe("vm.prog_ms.tak", "ms"),
    probe("vm.prog_ms.boyer", "ms"),
    probe("vm.prog_ms.frontend", "ms"),
    probe("vm.prog_ms.geomean", "ms"),
    probe("vm.net.rtt_4k_us", "us"),
    probe("threads.switch_ns.1cc", "ns"),
    probe("threads.switch_ns.cc", "ns"),
    probe("threads.switch_ns.cps", "ns"),
    probe("threads.engine_step_ns", "ns"),
    probe("exec.submit_us", "us"),
    probe("exec.roundtrip_us", "us"),
    probe("exec.queue_wait_us", "us"),
    probe("exec.accept_us", "us"),
    probe("exec.shutdown_ms", "ms"),
    count("exec.slices", |t| t.pool.slices as f64),
    count("exec.requeues", |t| t.pool.requeues as f64),
    ratio("exec.slices_per_job", Better::Lower, |t| per(t.pool.slices, t.ops)),
    count("exec.steals", |t| t.pool.steals as f64),
    count("exec.queue_depth_highwater", |t| t.pool.queue_depth_highwater as f64),
    count("exec.blocked_highwater", |t| t.pool.blocked_highwater as f64),
    count("exec.failed", |t| t.pool.failed as f64),
    count("exec.retried", |t| t.pool.retried as f64),
    count("exec.accept_queue_highwater", |t| t.pool.accept_queue_highwater as f64),
    count("exec.accepts_shed", |t| t.pool.accepts_shed as f64),
    count("exec.accept_overflow", |t| t.pool.accept_overflow as f64),
    count("exec.leaked_sockets", |t| t.teardown.leaked_sockets as f64),
    ratio("reactor.io_blocked_per_op", Better::Lower, |t| per(t.pool.io_blocked, t.ops)),
    ratio("reactor.io_wakeups_per_op", Better::Lower, |t| per(t.pool.io_wakeups, t.ops)),
    count("reactor.resume_depth_highwater", |t| t.pool.resume_depth_highwater as f64),
    probe("reactor.rtt_w1_us", "us"),
    probe("reactor.rtt_w1_idle_us", "us"),
    count("reactor.timer_waits", |t| t.pool.timer_waits as f64),
    ratio("reactor.wake_late_over_1ms_ratio", Better::Lower, |t| {
        per(t.pool.timer_wakes_late, t.pool.timer_wakes)
    }),
    ratio("trace.overhead_ratio", Better::Lower, |t| t.recording_block_s / t.paused_block_s),
    count("trace.spans", |t| t.spans as f64),
    ratio("trace.self_share.workload", Better::Lower, |t| t.share(At::Workload)),
    ratio("trace.self_share.vm.boot", Better::Lower, |t| t.share(At::VmBoot)),
    ratio("trace.self_share.sexp.read", Better::Lower, |t| t.share(At::SexpRead)),
    ratio("trace.self_share.compiler.compile", Better::Lower, |t| t.share(At::CompilerCompile)),
    ratio("trace.self_share.vm.load", Better::Lower, |t| t.share(At::VmLoad)),
    ratio("trace.self_share.vm.run", Better::Lower, |t| t.share(At::VmRun)),
    ratio("trace.self_share.threads.run", Better::Lower, |t| t.share(At::ThreadsRun)),
    ratio("trace.self_share.threads.step", Better::Lower, |t| t.share(At::ThreadsStep)),
    ratio("trace.self_share.exec.submit", Better::Lower, |t| t.share(At::ExecSubmit)),
    ratio("trace.self_share.exec.wait", Better::Lower, |t| t.share(At::ExecWait)),
    ratio("trace.self_share.client.connect", Better::Lower, |t| t.share(At::ClientConnect)),
    ratio("trace.self_share.client.write", Better::Lower, |t| t.share(At::ClientWrite)),
    ratio("trace.self_share.client.read", Better::Lower, |t| t.share(At::ClientRead)),
    ratio("trace.self_share.exec.shutdown", Better::Lower, |t| t.share(At::ExecShutdown)),
];

// ----------------------------------------------------------------------
// End to end
// ----------------------------------------------------------------------

/// One workload's untraced pass, reduced to the end-to-end metrics.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub complaints: Vec<String>,
    /// In [`END_TO_END`] order; timings calibrated to the reference clock.
    pub end_to_end: Vec<Summary>,
    /// The same per-repetition values as the wall clock read them.
    pub wall: Vec<Vec<f64>>,
    pub host_speed_setups: Vec<f64>,
    pub host_speed_blocks: Vec<f64>,
    /// Per-block sub-results (program or job-class rows), calibrated
    /// milliseconds.
    pub rows: Vec<(&'static str, Summary)>,
    pub blocks: usize,
    pub measured_seconds: f64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.complaints.is_empty()
    }
}

/// Audit findings and broken invariants that make a pass incorrect even
/// when every answer was right.
fn audit_complaints(m: &Measured) -> Vec<String> {
    let mut out = Vec::new();
    if m.teardown.leaked_sockets != 0 {
        out.push(format!("{} sockets still open after the drain", m.teardown.leaked_sockets));
    }
    if m.teardown.leaked_segments != 0 {
        out.push(format!("{} stack segments leaked", m.teardown.leaked_segments));
    }
    if m.pool.accepts_shed != 0 || m.pool.accept_overflow != 0 {
        out.push(format!(
            "connections shed: {} shed, {} overflowed",
            m.pool.accepts_shed, m.pool.accept_overflow
        ));
    }
    let mut counts = m.blocks.iter().filter_map(|b| b.instructions);
    if let Some(first) = counts.next() {
        if counts.any(|c| c != first) {
            out.push("guest instruction counts differ between identical blocks".to_string());
        }
    }
    out
}

pub fn outcome(mut m: Measured) -> Result<Outcome, String> {
    let mut complaints = audit_complaints(&m);
    // Four timings per block, calibrated to the reference clock and as the
    // wall clock read them.
    let mut timings: [(Vec<f64>, Vec<f64>); 4] = Default::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut rows: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for b in &mut m.blocks {
        attempted += b.attempted;
        failed += b.failed.min(b.attempted);
        complaints.append(&mut b.complaints);
        let (p50, p99) = p50_p99(&mut b.latencies_us);
        let rate = b.latencies_us.len() as f64 / b.seconds;
        let walls = [(b.seconds, false), (rate, true), (p50, false), (p99, false)];
        for ((calibrated, wall), (value, is_rate)) in timings.iter_mut().zip(walls) {
            wall.push(value);
            calibrated.push(if is_rate { value / b.host_speed } else { value * b.host_speed });
        }
        for (name, ms) in &b.rows {
            let ms = ms * b.host_speed;
            match rows.iter_mut().find(|(n, _)| n == name) {
                Some((_, values)) => values.push(ms),
                None => rows.push((name, vec![ms])),
            }
        }
    }
    complaints.truncate(8);
    let [batch, rate, p50, p99] = timings;
    let setup_wall: Vec<f64> = m.setups.iter().map(|s| s.seconds).collect();
    let setup: Vec<f64> = m.setups.iter().map(|s| s.seconds * s.host_speed).collect();
    Ok(Outcome {
        attempted,
        failed,
        complaints,
        end_to_end: vec![
            Summary::of(setup),
            Summary::of(batch.0),
            Summary::of(rate.0),
            Summary::of(p50.0),
            Summary::of(p99.0),
            Summary::of(vec![m.peak_rss_mib]),
        ],
        wall: vec![setup_wall, batch.1, rate.1, p50.1, p99.1, vec![m.peak_rss_mib]],
        host_speed_setups: m.setups.iter().map(|s| s.host_speed).collect(),
        host_speed_blocks: m.blocks.iter().map(|b| b.host_speed).collect(),
        rows: rows.into_iter().map(|(n, v)| (n, Summary::of(v))).collect(),
        blocks: m.blocks.len(),
        measured_seconds: m.measured_seconds,
    })
}

// ----------------------------------------------------------------------
// Per layer
// ----------------------------------------------------------------------

/// Every [`PER_LAYER`] metric, in order: the probes, and what the traced
/// workload's counters and spans say.
pub fn per_layer(
    probed: &Probed,
    traced: &Measured,
    tracer: &Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let block_seconds = |recording: bool| {
        let seconds: Vec<f64> = traced
            .blocks
            .iter()
            .filter(|b| b.traced == recording)
            .map(|b| b.seconds * b.host_speed)
            .collect();
        median(&seconds)
    };
    let self_seconds = tracer.self_seconds();
    let view = Traced {
        vm: &traced.vm,
        pool: &traced.pool,
        teardown: traced.teardown,
        measured_seconds: traced.measured_seconds,
        ops: traced.blocks.iter().map(|b| b.attempted).sum(),
        instructions: traced.blocks.iter().filter_map(|b| b.instructions).collect(),
        recording_block_s: block_seconds(true),
        paused_block_s: block_seconds(false),
        spans: tracer.len(),
        self_seconds,
        // The paused blocks are one `untraced` span, left out of the
        // shares' denominator as it is out of their numerators.
        recording_s: tracer.root_seconds() - self_seconds[At::Untraced as usize],
    };
    PER_LAYER
        .iter()
        .map(|m| match m.source {
            Source::Of(of) => Ok((m.name, of(&view))),
            Source::Probe => probed
                .iter()
                .find(|(n, _)| n == m.name)
                .map(|(_, v)| (m.name, *v))
                .ok_or_else(|| format!("no probe produced {}", m.name)),
        })
        .collect()
}

// ----------------------------------------------------------------------
// Self-description
// ----------------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were made. Same keys in the same order on
/// every run.
pub fn environment(scale: &Scale) -> Json {
    let nproc = match crate::affinity::plan() {
        Some(plan) => plan.nproc as i64,
        None => std::thread::available_parallelism().map_or(0, |n| n.get() as i64),
    };
    Json::obj(vec![
        ("nproc", Json::Int(nproc)),
        ("pool_workers", Json::Int(POOL_WORKERS as i64)),
        ("client_threads", Json::Int(1)),
        (
            "pinned_cpus",
            match crate::affinity::plan() {
                Some(plan) => Json::obj(vec![
                    ("work", Json::Int(plan.work as i64)),
                    ("client", Json::Int(plan.client as i64)),
                ]),
                None => Json::Null,
            },
        ),
        ("reactor_backend", Json::str(POOL_BACKEND)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("git_commit", Json::str(command_line("git", &["rev-parse", "HEAD"]))),
        ("scale", Json::str(scale.name)),
    ])
}

/// A metric's median with what it is the median of; `wall` is the same
/// repetitions before calibration, where that differs.
pub fn summary_json(s: &Summary, unit: &str, wall: Option<&[f64]>) -> Json {
    let mut fields = vec![
        ("value", Json::Num(s.median)),
        ("unit", Json::str(unit)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("samples", Json::Int(s.raw.len() as i64)),
        ("raw", Json::nums(&s.raw)),
    ];
    if let Some(wall) = wall {
        fields.push(("wall", Json::nums(wall)));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{compute_plain, paper_control};

    #[test]
    fn names_and_units_fit_the_manifest_rules() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(crate::workloads::WORKLOADS.iter().map(|(n, _)| *n));
        for n in &names {
            assert!(ok_name(n), "{n}");
        }
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for u in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(ok_unit(u), "{u}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
        for (_, why) in crate::workloads::WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    #[test]
    fn every_program_row_has_a_per_layer_metric() {
        for row in paper_control::ROWS.into_iter().chain(compute_plain::ROWS) {
            let name = format!("vm.prog_ms.{row}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
        for span in SPAN_NAMES.iter().filter(|s| **s != "untraced") {
            let name = format!("trace.self_share.{span}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }
}
