//! The per-layer timings: each layer's primitive operation driven from
//! outside through its public API and timed with the benchmark's own
//! clock. They depend on the code, not on the workload, so every traced
//! pass runs all of them and the ledger's per-layer section is complete
//! whichever workload it was made for.

use std::time::Instant;

use crate::api::{self, Engines, JobPool, Machine, Stack, Step};
use crate::measure::{measure, Until};
use crate::rng::Rng;
use crate::stats::{geometric_mean, midmean};
use crate::trace::Tracer;
use crate::workloads::compute_plain::{self, ComputePlain, BOYER};
use crate::workloads::paper_control::{self, PaperControl};
use crate::workloads::pool_jobs::PoolJobs;
use crate::workloads::serve::{ServeChurn, ServeEcho};
use crate::workloads::{Block, Scale, Workload, PAYLOAD_BYTES, POOL_FUEL_SLICE};

/// Occupied slots of the chain the core probes capture and delimit.
const CHAIN_SLOTS: usize = 64;
const CORE_ITERS: u64 = 200_000;
/// Fuel per step when timing a bare `EngineHost::step`: small enough that
/// the step, not the guest loop, is what is measured.
const STEP_FUEL: u64 = 16;
const HANDLER: &str = include_str!("../scheme/echo-handler.scm");
const FIB: &str = include_str!("../scheme/fib.scm");

/// Named results, in the order produced.
pub type Probed = Vec<(String, f64)>;

/// Typical seconds per `op`: the mean of the middle half of the samples.
fn typical_seconds(repeats: u64, mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..repeats.max(3))
        .map(|_| {
            let t0 = Instant::now();
            op();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    midmean(&samples)
}

fn core(out: &mut Probed, scale: &Scale) {
    let iters = CORE_ITERS / scale.probe_divisor;
    type CoreProbe = fn(&mut Stack, u64) -> api::StackProbe;
    let probes: [(&str, CoreProbe); 5] = [
        ("core.capture_one_ns", Stack::probe_capture_one),
        ("core.capture_multi_ns", Stack::probe_capture_multi),
        ("core.overflow_ns", Stack::probe_overflow),
        ("core.subcont_ns", Stack::probe_subcont),
        ("core.abort_ns", Stack::probe_abort),
    ];
    for (name, probe) in probes {
        let result = probe(&mut Stack::with_depth(CHAIN_SLOTS), iters);
        // The paper's claim, checked where it is cheapest to check: the
        // one-shot and delimited paths copy nothing.
        if name != "core.capture_multi_ns" && name != "core.overflow_ns" {
            assert_eq!(result.slots_copied, 0, "{name} copied slots");
        }
        out.push((name.to_string(), result.ns_per_op));
    }
}

fn front_end(out: &mut Probed, scale: &Scale) -> Result<(), String> {
    let t = &mut Tracer::off();
    let repeats = 200 / scale.probe_divisor;
    let read_s = typical_seconds(repeats, || {
        std::hint::black_box(api::read(t, BOYER, 0).ok());
    });
    let compile_s = typical_seconds(repeats, || {
        std::hint::black_box(api::compile(t, BOYER, 0).ok());
    });
    let job_s = typical_seconds(2_000 / scale.probe_divisor, || {
        std::hint::black_box(api::compile(t, "(fib 12)", 0).ok());
    });
    out.push(("sexp.read_ns_per_byte".to_string(), read_s * 1e9 / BOYER.len() as f64));
    // `compile` reads too; what is left after the read is the compiler.
    out.push(("compiler.compile_us".to_string(), (compile_s - read_s) * 1e6));
    out.push(("compiler.compile_job_us".to_string(), job_s * 1e6));

    let boot_s = typical_seconds(20 / scale.probe_divisor, || drop(Machine::boot(t)));
    out.push(("vm.boot_us".to_string(), boot_s * 1e6));
    let handler = api::compile(t, HANDLER, 0)?;
    let mut vm = Machine::boot(t);
    const LINKS: u32 = 100;
    let link_s = typical_seconds(50 / scale.probe_divisor, || {
        for _ in 0..LINKS {
            vm.link_only(t, &handler, 0);
        }
    });
    out.push(("vm.load_us".to_string(), link_s * 1e6 / f64::from(LINKS)));
    out.push((
        "runtime.alloc_pair_ns".to_string(),
        api::probe_alloc_pair(20, (100_000 / scale.probe_divisor) as u32),
    ));
    Ok(())
}

/// One warmed block of each VM workload gives the per-program rows; the
/// Figure 5 rows run again unswitched to price a context switch.
fn programs(out: &mut Probed, scale: &Scale) -> Result<(), String> {
    let t = &mut Tracer::off();
    let mut rows: Vec<(&str, f64)> = Vec::new();
    let (mut seconds, mut instructions) = (0.0, 0u64);
    let mut take = |block: Block| -> Result<(), String> {
        if block.failed > 0 {
            return Err(format!("probe block failed: {}", block.complaints.join("; ")));
        }
        seconds += block.rows.iter().map(|(_, ms)| ms / 1e3).sum::<f64>();
        instructions += block.instructions.unwrap_or(0);
        rows.extend(block.rows);
        Ok(())
    };

    let mut paper = PaperControl::setup(t, scale)?;
    paper.block(t, &mut Rng::new(0, 0), scale)?;
    take(paper.block(t, &mut Rng::new(0, 1), scale)?)?;
    for (which, name) in ["1cc", "cc", "cps"].into_iter().enumerate() {
        out.push((format!("threads.switch_ns.{name}"), paper.switch_ns(t, which, scale)?));
    }
    paper.teardown(t)?;

    let mut plain = ComputePlain::setup(t, scale)?;
    plain.block(t, &mut Rng::new(0, 0), scale)?;
    take(plain.block(t, &mut Rng::new(0, 1), scale)?)?;
    plain.teardown(t)?;

    let mut times = Vec::new();
    for name in paper_control::ROWS.iter().chain(compute_plain::ROWS.iter()) {
        let ms = rows.iter().find(|(n, _)| n == name).map(|(_, ms)| *ms).ok_or("missing row")?;
        out.push((format!("vm.prog_ms.{name}"), ms));
        times.push(ms);
    }
    out.push(("vm.prog_ms.geomean".to_string(), geometric_mean(&times)));
    out.push(("vm.ns_per_instruction".to_string(), seconds * 1e9 / instructions.max(1) as f64));

    let mut engines = Engines::boot(t);
    let spin = api::compile(t, "(let loop () (loop))", 0)?;
    let engine = engines.spawn(&spin)?;
    let mut parked = true;
    let step_s = typical_seconds(20_000 / scale.probe_divisor, || {
        parked &= matches!(engines.step(t, engine, STEP_FUEL, 0), Ok(Step::Parked));
    });
    if !parked {
        return Err("the spinning engine stopped".to_string());
    }
    engines.drop_engine(engine);
    out.push(("threads.engine_step_ns".to_string(), step_s * 1e9));
    Ok(())
}

fn typical_latency_us(block: &Block, what: &str) -> Result<f64, String> {
    if block.failed > 0 {
        return Err(format!("{what}: {}", block.complaints.join("; ")));
    }
    Ok(midmean(&block.latencies_us))
}

/// Pool and reactor primitives on otherwise idle pools.
fn pool(out: &mut Probed, scale: &Scale) -> Result<(), String> {
    let t = &mut Tracer::off();
    let samples = 2_000 / scale.probe_divisor;

    // A trivial job, one at a time: the submit call, and submit to
    // completion.
    let idle = JobPool::start(POOL_FUEL_SLICE, 8)?;
    crate::affinity::caller_apart(true);
    idle.run_pinned(FIB)?;
    let one_at_a_time = |source: &'static str| -> Result<(f64, f64), String> {
        let (mut submit_us, mut round_us) = (Vec::new(), Vec::new());
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..samples.max(3) {
            let tx = tx.clone();
            let t0 = Instant::now();
            idle.submit(&mut Tracer::off(), 0, source, move |r| {
                let _ = tx.send((t0.elapsed().as_secs_f64() * 1e6, r.is_ok()));
            })?;
            submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let (us, ok) = rx.recv().map_err(|_| "probe job vanished")?;
            if !ok {
                return Err(format!("probe job {source} failed"));
            }
            round_us.push(us);
        }
        Ok((midmean(&submit_us), midmean(&round_us)))
    };
    let (submit_us, roundtrip_us) = one_at_a_time("0")?;
    let (_, fib12_idle_us) = one_at_a_time("(fib 12)")?;
    idle.shutdown(t)?;
    crate::affinity::caller_apart(false);
    out.push(("exec.submit_us".to_string(), submit_us));
    out.push(("exec.roundtrip_us".to_string(), roundtrip_us));

    // The same job class inside the pool-jobs mix, 64 in flight: what it
    // waits beyond its idle latency is queueing.
    let loaded = measure::<PoolJobs>(t, scale, 0, 1, Until::Blocks(1))?;
    let fib12_loaded_ms =
        loaded.blocks[0].rows.iter().find(|(n, _)| *n == "job.fib12").ok_or("no fib12 row")?.1;
    out.push(("exec.queue_wait_us".to_string(), fib12_loaded_ms * 1e3 - fib12_idle_us));

    // Window-1 round trips: nothing else parked, then a full resident set
    // parked beside the one connection in use. The gap is what parked
    // state costs a wake.
    let rtt = |server: &mut ServeEcho, bytes: usize| -> Result<f64, String> {
        let mut block = Block::default();
        server.round_trips(&mut Tracer::off(), &mut Rng::new(0, 0), samples, 1, bytes, &mut block);
        typical_latency_us(&block, "window-1 round trips")
    };
    let mut alone = ServeEcho::with_resident(t, 1)?;
    rtt(&mut alone, PAYLOAD_BYTES)?; // warm the path
    let rtt_idle = rtt(&mut alone, PAYLOAD_BYTES)?;
    let rtt_4k = rtt(&mut alone, 4096)?;
    alone.teardown(t)?;
    let mut crowded = ServeEcho::with_resident(t, scale.resident)?;
    rtt(&mut crowded, PAYLOAD_BYTES)?;
    let rtt_parked = rtt(&mut crowded, PAYLOAD_BYTES)?;
    let shutdown_s = crowded.teardown(t)?.shutdown_s;
    out.push(("reactor.rtt_w1_idle_us".to_string(), rtt_idle));
    out.push(("reactor.rtt_w1_us".to_string(), rtt_parked));
    out.push(("vm.net.rtt_4k_us".to_string(), rtt_4k));
    out.push(("exec.shutdown_ms".to_string(), shutdown_s * 1e3));

    // Connect to first echoed byte, less the round trip it contains.
    let mut churn = ServeChurn::start()?;
    let mut block = Block::default();
    churn.connections(t, &mut Rng::new(0, 0), samples, &mut block);
    let connect_echo = typical_latency_us(&block, "connect-echo-close")?;
    churn.teardown(t)?;
    out.push(("exec.accept_us".to_string(), connect_echo - rtt_idle));
    Ok(())
}

pub fn run(scale: &Scale) -> Result<Probed, String> {
    let mut out = Probed::new();
    core(&mut out, scale);
    front_end(&mut out, scale)?;
    programs(&mut out, scale)?;
    pool(&mut out, scale)?;
    Ok(out)
}
