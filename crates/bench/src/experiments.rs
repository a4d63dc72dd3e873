//! The experiment implementations: one function per table/figure of the
//! paper (see DESIGN.md's per-experiment index E1–E8).

use std::time::Instant;

use oneshot_core::{Config, OneShotPolicy, OverflowPolicy, PromotionStrategy};
use oneshot_threads::{Strategy, ThreadSystem};
use oneshot_vm::{CompilerOptions, Pipeline, Vm, VmConfig};

use crate::measure::{run_measured, Measurement};
use crate::workloads;

fn vm_with(stack: Config) -> Vm {
    Vm::with_config(VmConfig { stack, ..VmConfig::default() })
}

// ----------------------------------------------------------------------
// E1 — Figure 5: the thread-system comparison
// ----------------------------------------------------------------------

/// One point of Figure 5.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Point {
    /// Number of active threads.
    pub threads: usize,
    /// Context-switch frequency (procedure calls per switch).
    pub freq: u64,
    /// Which thread system.
    pub strategy: Strategy,
    /// Wall-clock milliseconds.
    pub ms: f64,
    /// Stack slots copied during the run (0 for call/1cc and CPS).
    pub slots_copied: u64,
    /// Closures allocated during the run (large for CPS).
    pub closures: u64,
}

/// Runs one Figure 5 configuration: `threads` threads each computing
/// `fib(fib_n)` with a context switch every `freq` calls.
///
/// # Panics
///
/// Panics if the scheduler or workload fails — a build defect.
pub fn figure5_point(strategy: Strategy, threads: usize, freq: u64, fib_n: u32) -> Fig5Point {
    let mut ts = ThreadSystem::new(strategy);
    match strategy {
        Strategy::Cps => {
            ts.eval(workloads::FIB_CPS).expect("workload loads");
            for _ in 0..threads {
                ts.spawn(&format!("(lambda (k) (fib-cps {fib_n} k))")).expect("spawn");
            }
        }
        _ => {
            ts.eval(workloads::FIB).expect("workload loads");
            for _ in 0..threads {
                ts.spawn(&format!("(lambda () (fib {fib_n}))")).expect("spawn");
            }
        }
    }
    let before = ts.stats();
    let start = Instant::now();
    ts.run(freq).expect("threads run");
    let wall = start.elapsed();
    let d = ts.stats().delta_since(&before);
    Fig5Point {
        threads,
        freq,
        strategy,
        ms: wall.as_secs_f64() * 1e3,
        slots_copied: d.stack.slots_copied,
        closures: d.heap.closures_allocated,
    }
}

/// The full Figure 5 sweep.
pub fn figure5(threads: &[usize], freqs: &[u64], fib_n: u32) -> Vec<Fig5Point> {
    let mut out = Vec::new();
    for &t in threads {
        for &f in freqs {
            for s in Strategy::ALL {
                out.push(figure5_point(s, t, f, fib_n));
            }
        }
    }
    out
}

// ----------------------------------------------------------------------
// E2 — §4 tak: call/cc vs call/1cc capture-per-call
// ----------------------------------------------------------------------

/// One row of the tak comparison.
#[derive(Debug, Clone)]
pub struct TakRow {
    /// Configuration label.
    pub op: &'static str,
    /// Measurement for `(ctak x y z)`.
    pub m: Measurement,
}

/// The §4 tak experiment: ctak under both capture operators, plus
/// `call/1cc` under the §3.4 seal-with-pad policy (which packs many
/// one-shot continuations into each segment, as the paper's
/// implementation does, recovering its allocation advantage).
///
/// # Panics
///
/// Panics if the workload fails.
pub fn tak_experiment(x: i64, y: i64, z: i64) -> Vec<TakRow> {
    let configs: [(&'static str, &'static str, Config); 3] = [
        ("call/cc", "call/cc", Config::default()),
        ("call/1cc", "call/1cc", Config::default()),
        (
            "call/1cc+seal",
            "call/1cc",
            Config { oneshot_policy: OneShotPolicy::SealWithPad(128), ..Config::default() },
        ),
    ];
    configs
        .into_iter()
        .map(|(label, capture, cfg)| {
            let mut vm = vm_with(cfg);
            vm.eval_str(&workloads::ctak(capture)).expect("ctak loads");
            let m = run_measured(&mut vm, &format!("(ctak {x} {y} {z})")).expect("ctak runs");
            TakRow { op: label, m }
        })
        .collect()
}

// ----------------------------------------------------------------------
// E3 — §4 overflow: deep recursion under both overflow policies
// ----------------------------------------------------------------------

/// One row of the overflow comparison.
#[derive(Debug, Clone)]
pub struct OverflowRow {
    /// Overflow policy.
    pub policy: OverflowPolicy,
    /// Measurement of the deep-recursion rounds.
    pub m: Measurement,
}

/// The §4 overflow experiment: `rounds` repetitions of a `depth`-deep
/// recursion with trivial bodies, with stack overflow handled as an
/// implicit `call/1cc` vs an implicit `call/cc`.
///
/// # Panics
///
/// Panics if the workload fails.
pub fn overflow_experiment(rounds: u64, depth: u64) -> Vec<OverflowRow> {
    // A cache deep enough for one full descent, so steady-state rounds
    // allocate nothing (the paper: "always finds fresh stack segments in
    // the stack cache").
    let segment_slots = 16 * 1024;
    let cache_limit = (depth as usize * 6 / segment_slots) + 8;
    [OverflowPolicy::OneShot, OverflowPolicy::MultiShot]
        .into_iter()
        .map(|policy| {
            let mut vm = vm_with(Config {
                overflow_policy: policy,
                segment_slots,
                copy_bound: 4096,
                cache_limit,
                ..Config::default()
            });
            vm.eval_str(workloads::DEEP).expect("deep loads");
            let m = run_measured(&mut vm, &format!("(deep-rounds {rounds} {depth})"))
                .expect("deep runs");
            OverflowRow { policy, m }
        })
        .collect()
}

// ----------------------------------------------------------------------
// E4 — §5 frame overhead: direct vs CPS on the benchmark set
// ----------------------------------------------------------------------

/// One row of the frame-overhead analysis.
#[derive(Debug, Clone)]
pub struct FrameRow {
    /// Program name.
    pub name: &'static str,
    /// Pipeline measured.
    pub pipeline: Pipeline,
    /// Procedure calls (≈ frames created).
    pub calls: u64,
    /// Closures allocated.
    pub closures: u64,
    /// Bytecode instructions executed.
    pub instructions: u64,
}

impl FrameRow {
    /// Closure allocations per call — the Appel–Shao closure-creation
    /// overhead measure.
    pub fn closures_per_call(&self) -> f64 {
        self.closures as f64 / self.calls.max(1) as f64
    }
}

/// The §5 analysis: for each benchmark, count closures per frame under the
/// direct (stack) compiler and the CPS (heap) compiler.
///
/// # Panics
///
/// Panics if a workload fails.
pub fn frame_overhead() -> Vec<FrameRow> {
    let programs: [(&'static str, String, &str); 4] = [
        ("tak", workloads::TAK.to_string(), "(tak 18 12 6)"),
        ("fib", workloads::FIB.to_string(), "(fib 18)"),
        ("deep", workloads::DEEP.to_string(), "(deep-rounds 1 20000)"),
        ("boyer", workloads::BOYER.to_string(), "(boyer-run 1)"),
    ];
    let mut out = Vec::new();
    for (name, setup, run) in &programs {
        for pipeline in [Pipeline::Direct, Pipeline::Cps] {
            let mut vm = Vm::with_config(VmConfig { pipeline, ..VmConfig::default() });
            vm.eval_str(setup).expect("workload loads");
            let before = vm.stats();
            vm.eval_str(run).expect("workload runs");
            let d = vm.stats().delta_since(&before);
            out.push(FrameRow {
                name,
                pipeline,
                calls: d.calls,
                closures: d.heap.closures_allocated,
                instructions: d.instructions,
            });
        }
    }
    out
}

// ----------------------------------------------------------------------
// E5 — §3.2 segment cache ablation
// ----------------------------------------------------------------------

/// One row of the cache ablation.
#[derive(Debug, Clone)]
pub struct CacheRow {
    /// Cache capacity (0 disables).
    pub cache_limit: usize,
    /// Measurement of a call/1cc-intensive loop.
    pub m: Measurement,
}

/// §3.2: without the segment cache, call/1cc-intensive programs were
/// "unacceptably slow" — every capture allocates a fresh segment.
///
/// # Panics
///
/// Panics if the workload fails.
pub fn cache_experiment(x: i64, y: i64, z: i64) -> Vec<CacheRow> {
    [64usize, 0]
        .into_iter()
        .map(|cache_limit| {
            let mut vm = vm_with(Config { cache_limit, ..Config::default() });
            vm.eval_str(&workloads::ctak("call/1cc")).expect("ctak loads");
            let m = run_measured(&mut vm, &format!("(ctak {x} {y} {z})")).expect("ctak runs");
            CacheRow { cache_limit, m }
        })
        .collect()
}

// ----------------------------------------------------------------------
// E6 — §3.2 overflow hysteresis ablation
// ----------------------------------------------------------------------

/// One row of the hysteresis ablation.
#[derive(Debug, Clone)]
pub struct HysteresisRow {
    /// Hysteresis setting (slots copied up on overflow).
    pub hysteresis: usize,
    /// Measurement of the boundary-hovering recursion.
    pub m: Measurement,
}

/// §3.2: naive one-shot overflow "bounces" when a recursion hovers across
/// a segment boundary; copying a few frames up amortizes it.
///
/// # Panics
///
/// Panics if the workload fails.
pub fn hysteresis_experiment(rounds: u64) -> Vec<HysteresisRow> {
    // Depth chosen so each round crosses the segment boundary by a hair.
    [0usize, 128]
        .into_iter()
        .map(|hysteresis| {
            let cfg = Config {
                segment_slots: 1024,
                copy_bound: 256,
                hysteresis_slots: hysteresis,
                ..Config::default()
            };
            let mut vm = vm_with(cfg);
            vm.eval_str(workloads::BOUNCER).expect("bouncer loads");
            // Fill most of the first segment, then hover: each `down`
            // crosses into a new segment and returns.
            let m = run_measured(
                &mut vm,
                &format!(
                    "(define (pad n) (if (zero? n) (hover 8 {rounds}) (+ 1 (pad (- n 1)))))
                     (pad 330)"
                ),
            )
            .expect("bouncer runs");
            HysteresisRow { hysteresis, m }
        })
        .collect()
}

// ----------------------------------------------------------------------
// E7 — §3.4 fragmentation
// ----------------------------------------------------------------------

/// One row of the fragmentation comparison.
#[derive(Debug, Clone)]
pub struct FragmentationRow {
    /// One-shot capture policy.
    pub policy: OneShotPolicy,
    /// Number of suspended continuations ("threads").
    pub konts: usize,
    /// Resident stack slots after all captures.
    pub resident_slots: usize,
}

/// §3.4: 100 shallow threads suspended via call/1cc each pin a whole
/// segment (1.6 MB at the paper's 16 KB default) under the fresh-segment
/// policy; sealing with a pad bounds the waste. Residency is probed by a
/// final thread that runs while all the others sit suspended in the run
/// queue.
///
/// # Panics
///
/// Panics if the workload fails.
pub fn fragmentation_experiment(konts: usize) -> Vec<FragmentationRow> {
    [OneShotPolicy::FreshSegment, OneShotPolicy::SealWithPad(64)]
        .into_iter()
        .map(|policy| {
            let cfg = Config { oneshot_policy: policy, cache_limit: 0, ..Config::default() };
            let mut ts = ThreadSystem::with_config(
                Strategy::Call1Cc,
                VmConfig { stack: cfg, ..VmConfig::default() },
            );
            ts.eval("(define probe 0)").expect("setup");
            for _ in 0..konts {
                ts.spawn("(lambda () (thread-yield!))").expect("spawn");
            }
            // The probe runs after every other thread has yielded once.
            ts.spawn(
                "(lambda ()
                   (set! probe (assq-ref (vm-stats) 'resident-slots)))",
            )
            .expect("spawn probe");
            ts.run(0).expect("run");
            let probe = ts.eval("probe").expect("probe read");
            let resident =
                probe.as_fixnum().unwrap_or_else(|| panic!("probe was {probe:?}")) as usize;
            FragmentationRow { policy, konts, resident_slots: resident }
        })
        .collect()
}

// ----------------------------------------------------------------------
// E8 — §3.3 promotion strategies
// ----------------------------------------------------------------------

/// One row of the promotion comparison.
#[derive(Debug, Clone)]
pub struct PromotionRow {
    /// Strategy measured.
    pub strategy: PromotionStrategy,
    /// Length of the one-shot chain promoted by one call/cc.
    pub chain: usize,
    /// Chain links walked (0 under the shared flag).
    pub promotion_steps: u64,
    /// One-shots promoted.
    pub promotions: u64,
}

/// §3.3: promoting a chain of n one-shots costs n steps eagerly, O(1) with
/// the shared flag (the paper's proposed variant).
///
/// # Panics
///
/// Panics if the workload fails.
pub fn promotion_experiment(chain: usize) -> Vec<PromotionRow> {
    [PromotionStrategy::EagerWalk, PromotionStrategy::SharedFlag]
        .into_iter()
        .map(|strategy| {
            let cfg = Config {
                promotion: strategy,
                segment_slots: 64 * 1024,
                copy_bound: 16 * 1024,
                ..Config::default()
            };
            let mut vm = vm_with(cfg);
            let before = vm.stats();
            vm.eval_str(&format!(
                "(define (chain n)
                   (if (zero? n)
                       (call/cc (lambda (k) 0))
                       (+ 1 (call/1cc (lambda (k) (chain (- n 1)))))))
                 (chain {chain})"
            ))
            .expect("chain runs");
            let d = vm.stats().delta_since(&before);
            PromotionRow {
                strategy,
                chain,
                promotion_steps: d.stack.promotion_steps,
                promotions: d.stack.promotions,
            }
        })
        .collect()
}

// ----------------------------------------------------------------------
// E9 — dispatch cost: flat code arena + superinstruction fusion
// ----------------------------------------------------------------------

/// One measured configuration of the dispatch-cost benchmark.
#[derive(Debug, Clone)]
pub struct DispatchRow {
    /// Workload name.
    pub name: &'static str,
    /// Whether peephole superinstruction fusion was enabled.
    pub fused: bool,
    /// Best-of-reps wall-clock milliseconds.
    pub ms: f64,
    /// Bytecode instructions retired (deterministic per configuration).
    pub instructions: u64,
}

impl DispatchRow {
    /// Nanoseconds per retired instruction — the dispatch cost proper,
    /// independent of how many instructions fusion removed.
    pub fn ns_per_instruction(&self) -> f64 {
        self.ms * 1e6 / self.instructions.max(1) as f64
    }
}

/// The scale knobs of the E9 dispatch benchmark.
#[derive(Debug, Clone, Copy)]
pub struct DispatchScale {
    /// Timing repetitions per configuration (best-of is reported).
    pub reps: u32,
    /// `(tak x y z)` arguments.
    pub tak: (i64, i64, i64),
    /// `(ctak x y z)` arguments (continuation-heavy control).
    pub ctak: (i64, i64, i64),
    /// `(fib n)` argument.
    pub fib_n: u32,
    /// `(deep-rounds rounds depth)` arguments.
    pub deep: (u64, u64),
    /// Figure 5 inner loop: threads, calls per switch, per-thread fib n.
    pub fig5: (usize, u64, u32),
}

impl DispatchScale {
    /// A sweep that finishes in a few seconds. Workloads are sized so each
    /// configuration runs for tens of milliseconds — long enough that the
    /// fused-vs-unfused wall-clock difference clears timer noise.
    pub fn quick() -> Self {
        DispatchScale {
            reps: 5,
            tak: (24, 16, 8),
            ctak: (16, 8, 0),
            fib_n: 27,
            deep: (5, 500_000),
            fig5: (10, 8, 21),
        }
    }

    /// The full-size sweep for reported numbers.
    pub fn paper() -> Self {
        DispatchScale {
            reps: 7,
            tak: (24, 16, 8),
            ctak: (18, 12, 6),
            fib_n: 28,
            deep: (5, 2_000_000),
            fig5: (100, 8, 21),
        }
    }
}

/// One VM-hosted dispatch case: best-of-`reps` wall time plus the
/// (deterministic) retired-instruction count.
fn dispatch_case(
    name: &'static str,
    setup: &str,
    run: &str,
    fused: bool,
    reps: u32,
) -> DispatchRow {
    let mut vm = Vm::builder().fuse(fused).build();
    vm.eval_str(setup).expect("dispatch workload loads");
    let mut ms = f64::INFINITY;
    let mut instructions = 0;
    for _ in 0..reps {
        let m = run_measured(&mut vm, run).expect("dispatch workload runs");
        ms = ms.min(m.ms());
        instructions = m.delta.instructions;
    }
    DispatchRow { name, fused, ms, instructions }
}

/// The Figure 5 inner loop under one fusion setting: `threads` call/1cc
/// threads each computing fib, context-switching every `freq` calls. This
/// is the experiment that anchors the perf trajectory — the same loop E1
/// measures, timed fused vs unfused.
fn dispatch_fig5_case(
    fused: bool,
    threads: usize,
    freq: u64,
    fib_n: u32,
    reps: u32,
) -> DispatchRow {
    let mut ms = f64::INFINITY;
    let mut instructions = 0;
    for _ in 0..reps {
        let mut ts = ThreadSystem::with_config(
            Strategy::Call1Cc,
            VmConfig { compiler: CompilerOptions { fuse: fused }, ..VmConfig::default() },
        );
        ts.eval(workloads::FIB).expect("workload loads");
        for _ in 0..threads {
            ts.spawn(&format!("(lambda () (fib {fib_n}))")).expect("spawn");
        }
        let before = ts.stats();
        let start = Instant::now();
        ts.run(freq).expect("threads run");
        ms = ms.min(start.elapsed().as_secs_f64() * 1e3);
        instructions = ts.stats().delta_since(&before).instructions;
    }
    DispatchRow { name: "fig5-loop", fused, ms, instructions }
}

/// E9: every workload under `fuse: false` then `fuse: true` — identical
/// results and control events, fewer dispatches fused. Rows come in
/// unfused/fused pairs per workload.
///
/// # Panics
///
/// Panics if a workload fails.
pub fn dispatch_experiment(scale: DispatchScale) -> Vec<DispatchRow> {
    let (tx, ty, tz) = scale.tak;
    let (cx, cy, cz) = scale.ctak;
    let (rounds, depth) = scale.deep;
    let (threads, freq, fib5) = scale.fig5;
    let mut out = Vec::new();
    for fused in [false, true] {
        out.push(dispatch_case(
            "tak",
            workloads::TAK,
            &format!("(tak {tx} {ty} {tz})"),
            fused,
            scale.reps,
        ));
        out.push(dispatch_case(
            "ctak",
            &workloads::ctak("call/1cc"),
            &format!("(ctak {cx} {cy} {cz})"),
            fused,
            scale.reps,
        ));
        out.push(dispatch_case(
            "fib",
            workloads::FIB,
            &format!("(fib {})", scale.fib_n),
            fused,
            scale.reps,
        ));
        out.push(dispatch_case(
            "deep",
            workloads::DEEP,
            &format!("(deep-rounds {rounds} {depth})"),
            fused,
            scale.reps,
        ));
        out.push(dispatch_fig5_case(fused, threads, freq, fib5, scale.reps));
    }
    out
}

// ----------------------------------------------------------------------
// E10 — GC: the segregated-pool heap under varying collection thresholds
// ----------------------------------------------------------------------

/// A `gc_threshold` that never triggers a collection in practice
/// ("effectively infinite" in the threshold sweep).
pub const GC_UNBOUNDED: usize = usize::MAX >> 1;

/// One (workload, threshold) cell of the GC experiment.
#[derive(Debug, Clone)]
pub struct GcRow {
    /// Workload name.
    pub name: &'static str,
    /// Objects allocated between collections ([`GC_UNBOUNDED`] = never).
    pub gc_threshold: usize,
    /// Wall-clock milliseconds of the measured run.
    pub ms: f64,
    /// Printed result of the measured run. GC is semantically invisible,
    /// so this must not vary with the threshold.
    pub result: String,
    /// Heap words allocated during the measured run (deterministic per
    /// workload — identical across thresholds).
    pub words_allocated: u64,
    /// Heap objects allocated during the measured run.
    pub objects_allocated: u64,
    /// Objects reclaimed by sweeps during the measured run.
    pub objects_freed: u64,
    /// Collections triggered during the measured run.
    pub collections: u64,
    /// Total sweep time during the measured run, nanoseconds.
    pub sweep_ns: u64,
    /// Worst single collection pause observed so far, nanoseconds.
    pub max_pause_ns: u64,
    /// Live heap objects after the final full collection.
    pub live_after: usize,
    /// Whether the final live count differs from the pre-run baseline —
    /// an object the collector failed to reclaim.
    pub leaked: bool,
}

/// The scale knobs of the E10 GC experiment.
#[derive(Debug, Clone)]
pub struct GcScale {
    /// Thresholds swept (objects allocated between collections).
    pub thresholds: Vec<usize>,
    /// `(boyer-run n)` argument.
    pub boyer_runs: u64,
    /// `(ctak x y z)` arguments.
    pub ctak: (i64, i64, i64),
    /// `(deep-rounds rounds depth)` arguments.
    pub deep: (u64, u64),
    /// Figure 5 loop: threads, calls per switch, per-thread fib n.
    pub fig5: (usize, u64, u32),
}

impl GcScale {
    /// A sweep that finishes in a few seconds.
    pub fn quick() -> Self {
        GcScale {
            thresholds: vec![256, 4096, 65536, GC_UNBOUNDED],
            boyer_runs: 1,
            ctak: (16, 8, 0),
            deep: (2, 200_000),
            fig5: (10, 8, 18),
        }
    }

    /// The full-size sweep for reported numbers.
    pub fn paper() -> Self {
        GcScale {
            thresholds: vec![256, 4096, 65536, GC_UNBOUNDED],
            boyer_runs: 2,
            ctak: (18, 12, 6),
            deep: (5, 1_000_000),
            fig5: (100, 8, 21),
        }
    }
}

/// Measures one workload in `vm` under the E10 protocol: warm up with one
/// unmeasured run (boyer and the thread system mutate global state on
/// first use), collect and take a live-count baseline, run measured, then
/// collect again — any live-count growth over the baseline is a leak.
fn gc_case(name: &'static str, threshold: usize, vm: &mut Vm, run: &str) -> GcRow {
    vm.eval_str(run).expect("gc workload warms up");
    vm.take_output();
    vm.collect_now();
    let baseline = vm.heap().len();
    let before = vm.stats();
    let start = Instant::now();
    let value = vm.eval_str(run).expect("gc workload runs");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let mut result = vm.write_value(&value);
    let output = vm.take_output();
    if !output.is_empty() {
        result.push_str(" | ");
        result.push_str(&output);
    }
    let d = vm.stats().delta_since(&before);
    vm.collect_now();
    let live_after = vm.heap().len();
    GcRow {
        name,
        gc_threshold: threshold,
        ms,
        result,
        words_allocated: d.heap.words_allocated,
        objects_allocated: d.heap.objects_allocated,
        objects_freed: d.heap.objects_freed,
        collections: d.heap.collections,
        sweep_ns: d.heap.sweep_ns,
        max_pause_ns: d.gc_max_pause_ns,
        live_after,
        leaked: live_after != baseline,
    }
}

/// The Figure 5 thread loop as a GC workload: the suspended one-shot
/// continuations are heap roots via the run queue, exercising the
/// kont-registry path of the collector.
fn gc_fig5_case(threshold: usize, threads: usize, freq: u64, fib_n: u32) -> GcRow {
    let mut ts = ThreadSystem::with_config(
        Strategy::Call1Cc,
        VmConfig { gc_threshold: Some(threshold), ..VmConfig::default() },
    );
    ts.eval(workloads::FIB).expect("workload loads");
    let spawn_all = |ts: &mut ThreadSystem| {
        for _ in 0..threads {
            ts.spawn(&format!("(lambda () (fib {fib_n}))")).expect("spawn");
        }
    };
    // Warmup round.
    spawn_all(&mut ts);
    ts.run(freq).expect("threads run");
    ts.vm_mut().collect_now();
    let baseline = ts.vm_mut().heap().len();
    // Measured round.
    let before = ts.stats();
    let start = Instant::now();
    spawn_all(&mut ts);
    let value = ts.run(freq).expect("threads run");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let result = ts.vm_mut().write_value(&value);
    let d = ts.stats().delta_since(&before);
    ts.vm_mut().collect_now();
    let live_after = ts.vm_mut().heap().len();
    GcRow {
        name: "fig5-threads",
        gc_threshold: threshold,
        ms,
        result,
        words_allocated: d.heap.words_allocated,
        objects_allocated: d.heap.objects_allocated,
        objects_freed: d.heap.objects_freed,
        collections: d.heap.collections,
        sweep_ns: d.heap.sweep_ns,
        max_pause_ns: d.gc_max_pause_ns,
        live_after,
        leaked: live_after != baseline,
    }
}

/// E10: each workload at each collection threshold. Rows are grouped by
/// workload, thresholds in sweep order; every row carries the leak-check
/// verdict, and results must be identical down a workload's group.
///
/// # Panics
///
/// Panics if a workload fails.
pub fn gc_experiment(scale: &GcScale) -> Vec<GcRow> {
    let (cx, cy, cz) = scale.ctak;
    let (rounds, depth) = scale.deep;
    let (threads, freq, fib5) = scale.fig5;
    let cases: [(&'static str, String, String); 3] = [
        ("boyer", workloads::BOYER.to_string(), format!("(boyer-run {})", scale.boyer_runs)),
        ("ctak", workloads::ctak("call/1cc"), format!("(ctak {cx} {cy} {cz})")),
        ("deep", workloads::DEEP.to_string(), format!("(deep-rounds {rounds} {depth})")),
    ];
    let mut out = Vec::new();
    for (name, setup, run) in &cases {
        for &t in &scale.thresholds {
            let mut vm = Vm::builder().gc_threshold(t).build();
            vm.eval_str(setup).expect("gc workload loads");
            out.push(gc_case(name, t, &mut vm, run));
        }
    }
    for &t in &scale.thresholds {
        out.push(gc_fig5_case(t, threads, freq, fib5));
    }
    out
}

// ----------------------------------------------------------------------
// E11 — executor: worker-pool throughput and latency
// ----------------------------------------------------------------------

/// Scale knobs for the E11 pool sweep: a mixed job load (CPU-bound fib,
/// continuation-heavy ctak, deep recursion, and sleep-based I/O-style
/// request handlers) pushed through a [`Pool`](oneshot_exec::Pool) at each
/// (workers × fuel-slice) point.
#[derive(Debug, Clone)]
pub struct ExecScale {
    /// Worker counts to sweep.
    pub workers: Vec<usize>,
    /// Fuel slices (procedure calls per preemption) to sweep.
    pub fuel_slices: Vec<u64>,
    /// fib jobs per cell and the fib argument.
    pub fib: (usize, u64),
    /// ctak jobs per cell and the (x, y, z) arguments.
    pub ctak: (usize, (i64, i64, i64)),
    /// deep-recursion jobs per cell and the recursion depth.
    pub deep: (usize, u64),
    /// I/O-style jobs per cell and the per-job sleep in milliseconds.
    /// These model request handlers blocked on a backend: the worker's OS
    /// thread sleeps, so they are the component that scales with worker
    /// count even on a single-core host.
    pub io: (usize, u64),
}

impl ExecScale {
    /// A sweep that finishes in seconds.
    #[must_use]
    pub fn quick() -> Self {
        ExecScale {
            workers: vec![1, 2, 4],
            fuel_slices: vec![512, 8192],
            fib: (4, 14),
            ctak: (4, (12, 6, 0)),
            deep: (4, 20_000),
            io: (12, 15),
        }
    }

    /// The full sweep.
    #[must_use]
    pub fn paper() -> Self {
        ExecScale {
            workers: vec![1, 2, 4, 8],
            fuel_slices: vec![256, 4096, 65_536],
            fib: (8, 17),
            ctak: (8, (14, 7, 0)),
            deep: (8, 100_000),
            io: (32, 25),
        }
    }

    /// Drops worker counts above `max` (used by `--max-workers` for CI
    /// smoke runs on small machines).
    pub fn clamp_workers(&mut self, max: usize) {
        self.workers.retain(|&w| w <= max.max(1));
        if self.workers.is_empty() {
            self.workers.push(1);
        }
    }

    /// Total jobs per sweep cell.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.fib.0 + self.ctak.0 + self.deep.0 + self.io.0
    }

    /// The mixed job list, interleaved round-robin across the four classes
    /// so every worker sees a mix rather than a run of one kind.
    fn specs(&self) -> Vec<oneshot_exec::JobSpec> {
        use oneshot_exec::JobSpec;
        let (cx, cy, cz) = self.ctak.1;
        let mut classes: [Vec<JobSpec>; 4] = [
            (0..self.fib.0)
                .map(|i| {
                    JobSpec::new(
                        format!("fib-{i}"),
                        format!("{} (fib {})", workloads::FIB, self.fib.1),
                    )
                })
                .collect(),
            (0..self.ctak.0)
                .map(|i| {
                    JobSpec::new(
                        format!("ctak-{i}"),
                        format!("{} (ctak {cx} {cy} {cz})", workloads::ctak("call/1cc")),
                    )
                })
                .collect(),
            (0..self.deep.0)
                .map(|i| {
                    JobSpec::new(
                        format!("deep-{i}"),
                        format!("{} (deep-rounds 1 {})", workloads::DEEP, self.deep.1),
                    )
                })
                .collect(),
            (0..self.io.0)
                .map(|i| {
                    JobSpec::new(
                        format!("io-{i}"),
                        format!("(begin (sleep-ms {}) 'served)", self.io.1),
                    )
                })
                .collect(),
        ];
        let mut specs = Vec::with_capacity(self.jobs());
        while classes.iter().any(|c| !c.is_empty()) {
            for class in &mut classes {
                if !class.is_empty() {
                    specs.push(class.remove(0));
                }
            }
        }
        specs
    }
}

/// One cell of the E11 sweep.
#[derive(Debug, Clone)]
pub struct ExecRow {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Fuel slice (procedure calls per preemption).
    pub fuel_slice: u64,
    /// Jobs submitted.
    pub jobs: usize,
    /// Wall-clock milliseconds from first submit to last outcome.
    pub wall_ms: f64,
    /// Completed jobs per second of wall clock.
    pub throughput: f64,
    /// Median submit-to-outcome latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile submit-to-outcome latency in milliseconds.
    pub p99_ms: f64,
    /// Jobs that finished with a value (must equal `jobs` here: the load
    /// is defect-free).
    pub completed: u64,
    /// Jobs that failed for any reason.
    pub failed: u64,
    /// Fuel-budget timeouts (subset of `failed`).
    pub timed_out: u64,
    /// Job panics (subset of `failed`).
    pub panicked: u64,
    /// Jobs taken from a peer's deque.
    pub steals: u64,
    /// Preemption requeues.
    pub requeues: u64,
    /// Engine fuel slices run.
    pub slices: u64,
    /// Deepest the injector queue got.
    pub queue_depth_highwater: u64,
    /// Bytecode instructions summed over every worker VM.
    pub instructions: u64,
    /// One-shot captures (mostly engine preemptions) summed over workers.
    pub captures_one: u64,
    /// One-shot reinstatements summed over workers.
    pub reinstates_one: u64,
    /// Stack slots copied — stays near zero: engine switches are one-shot
    /// captures, so only overflow hysteresis copies anything.
    pub slots_copied: u64,
}

fn percentile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Runs the mixed load through one pool configuration.
///
/// # Panics
///
/// Panics if any job fails — the load is pure and defect-free, so a
/// failure is a build defect.
pub fn exec_case(workers: usize, fuel_slice: u64, scale: &ExecScale) -> ExecRow {
    use oneshot_exec::Pool;
    let pool =
        Pool::builder().workers(workers).fuel_slice(fuel_slice).build().expect("pool spawns");
    let start = Instant::now();
    let handles: Vec<_> =
        scale.specs().into_iter().map(|spec| pool.submit(spec).expect("job submits")).collect();
    let mut latencies_ms: Vec<f64> = handles
        .iter()
        .map(|h| {
            let outcome = h.wait();
            if let Err(e) = &outcome.result {
                panic!("E11 job {} failed: {e}", outcome.name);
            }
            outcome.latency.as_secs_f64() * 1e3
        })
        .collect();
    let wall = start.elapsed();
    latencies_ms.sort_by(f64::total_cmp);
    let report = pool.shutdown().expect("pool drains");
    let c = report.counters;
    let vm_sum =
        |f: fn(&oneshot_exec::WorkerReport) -> u64| -> u64 { report.workers.iter().map(f).sum() };
    let wall_ms = wall.as_secs_f64() * 1e3;
    ExecRow {
        workers,
        fuel_slice,
        jobs: handles.len(),
        wall_ms,
        throughput: handles.len() as f64 / wall.as_secs_f64(),
        p50_ms: percentile_ms(&latencies_ms, 0.50),
        p99_ms: percentile_ms(&latencies_ms, 0.99),
        completed: c.completed,
        failed: c.failed,
        timed_out: c.timed_out,
        panicked: c.panicked,
        steals: c.steals,
        requeues: c.requeues,
        slices: c.slices,
        queue_depth_highwater: c.queue_depth_highwater,
        instructions: vm_sum(|w| w.vm.instructions),
        captures_one: vm_sum(|w| w.vm.captures_one),
        reinstates_one: vm_sum(|w| w.vm.reinstates_one),
        slots_copied: vm_sum(|w| w.vm.slots_copied),
    }
}

/// The full E11 sweep: every worker count × every fuel slice.
pub fn exec_experiment(scale: &ExecScale) -> Vec<ExecRow> {
    let mut out = Vec::new();
    for &fuel_slice in &scale.fuel_slices {
        for &workers in &scale.workers {
            out.push(exec_case(workers, fuel_slice, scale));
        }
    }
    out
}

// ----------------------------------------------------------------------
// E12 — chaos sweep: recovery under deterministic fault injection
// ----------------------------------------------------------------------

/// One cell of the E12 sweep: a workload run under `seeds` fault
/// schedules at one fault horizon (smaller horizon = denser faults).
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Workload label.
    pub workload: &'static str,
    /// Fault countdown horizon the schedules draw from.
    pub horizon: u64,
    /// Schedules run.
    pub runs: u64,
    /// Runs that finished with no condition raised.
    pub clean: u64,
    /// Runs where a guard caught the fault and the program recovered.
    pub recovered: u64,
    /// Runs ending in a structured uncaught condition (fault fired
    /// outside the guard's extent).
    pub uncaught: u64,
    /// Injected faults the VMs consumed, summed.
    pub faults_injected: u64,
    /// Conditions raised (caught or not), summed.
    pub conditions_raised: u64,
    /// Wall-clock for the whole cell, in milliseconds.
    pub wall_ms: f64,
}

impl ChaosRow {
    /// Fraction of fault-affected runs the guard recovered.
    pub fn recovery_rate(&self) -> f64 {
        let affected = self.recovered + self.uncaught;
        if affected == 0 {
            1.0
        } else {
            self.recovered as f64 / affected as f64
        }
    }
}

/// The guarded chaos workloads: each returns `(ok . #f)` on a clean run
/// or `(caught . kind)` when the guard recovers a condition.
pub const CHAOS_WORKLOADS: &[(&str, &str)] = &[
    (
        "alloc",
        "(call-with-guard
           (lambda (c) (cons 'caught (condition-kind c)))
           (lambda ()
             (letrec ((chew (lambda (n acc)
                              (if (zero? n) acc (chew (- n 1) (cons n acc))))))
               (begin (length (chew 400 '())) '(ok . #f)))))",
    ),
    (
        "control",
        "(call-with-guard
           (lambda (c) (cons 'caught (condition-kind c)))
           (lambda ()
             (letrec ((deep (lambda (n) (if (zero? n) 0 (+ 1 (deep (- n 1)))))))
               (begin
                 (dynamic-wind
                   (lambda () #t)
                   (lambda () (+ (deep 400) (call/1cc (lambda (k) (k 1)))))
                   (lambda () #t))
                 '(ok . #f)))))",
    ),
];

/// Runs one chaos cell: `seeds` schedules of `workload` at `horizon`.
pub fn chaos_case(workload: (&'static str, &str), horizon: u64, seeds: u64) -> ChaosRow {
    use oneshot_vm::FaultPlan;
    let started = Instant::now();
    let mut row = ChaosRow {
        workload: workload.0,
        horizon,
        runs: seeds,
        clean: 0,
        recovered: 0,
        uncaught: 0,
        faults_injected: 0,
        conditions_raised: 0,
        wall_ms: 0.0,
    };
    for seed in 0..seeds {
        let mut vm = Vm::builder()
            .fault_plan(FaultPlan::seeded(seed.wrapping_mul(0x9E37).wrapping_add(horizon), horizon))
            .heap_budget(50_000)
            .max_stack_segments(16)
            .build();
        match vm.eval_str(workload.1) {
            Ok(v) => {
                if vm.write_value(&v) == "(ok . #f)" {
                    row.clean += 1;
                } else {
                    row.recovered += 1;
                }
            }
            Err(_) => row.uncaught += 1,
        }
        let s = vm.stats();
        row.faults_injected += s.faults_injected;
        row.conditions_raised += s.conditions_raised;
    }
    row.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    row
}

/// The full E12 sweep: workload × fault horizon.
pub fn chaos_experiment(horizons: &[u64], seeds: u64) -> Vec<ChaosRow> {
    let mut out = Vec::new();
    for &workload in CHAOS_WORKLOADS {
        for &horizon in horizons {
            out.push(chaos_case(workload, horizon, seeds));
        }
    }
    out
}

/// Measures the cost of the guard plumbing itself: the same workload run
/// with no guards at all versus every guard armed but never tripping.
/// Returns `(baseline_ms, guarded_ms)` per-iteration averages.
pub fn chaos_overhead(iters: u64) -> (f64, f64) {
    let src = "(letrec ((chew (lambda (n acc)
                          (if (zero? n) acc (chew (- n 1) (cons n acc)))))
                    (deep (lambda (n) (if (zero? n) 0 (+ 1 (deep (- n 1)))))))
                 (+ (length (chew 300 '())) (deep 300)))";
    let time = |vm: &mut Vm| {
        // Warm-up run, then the timed batch.
        vm.eval_str(src).expect("overhead workload must succeed");
        let started = Instant::now();
        for _ in 0..iters {
            vm.eval_str(src).expect("overhead workload must succeed");
        }
        started.elapsed().as_secs_f64() * 1e3 / iters as f64
    };
    let baseline = time(&mut Vm::new());
    // Budgets far above the workload's needs: the guard checks run on
    // every safe point but never fire.
    let guarded =
        time(&mut Vm::builder().heap_budget(10_000_000).max_stack_segments(1 << 20).build());
    (baseline, guarded)
}

// ----------------------------------------------------------------------
// E13 — reactor: green-thread I/O at 10k+ concurrent continuations
// ----------------------------------------------------------------------

/// Scale knobs for the E13 reactor sweep: loopback echo pairs (each pair
/// is a handler green thread plus a client green thread multiplexed by
/// the pool's `poll(2)` reactor) and timer storms (every job suspended in
/// `(timer-wait ms)` at once).
#[derive(Debug, Clone)]
pub struct ReactorScale {
    /// Worker counts to sweep.
    pub workers: Vec<usize>,
    /// Echo connection counts to sweep; each is 2 green threads and 3 fds.
    pub echo_pairs: Vec<usize>,
    /// Echo messages per connection.
    pub echo_rounds: usize,
    /// Timer storms as `(jobs, wait_ms)`. The wait must comfortably
    /// exceed the submit phase so the whole storm is suspended at once —
    /// `blocked_highwater` then records the true peak concurrency.
    pub timer_storms: Vec<(usize, u64)>,
}

impl ReactorScale {
    /// A sweep that finishes in seconds (CI smoke).
    #[must_use]
    pub fn quick() -> Self {
        ReactorScale {
            workers: vec![1, 2],
            echo_pairs: vec![64, 256],
            echo_rounds: 2,
            timer_storms: vec![(2_000, 1_000)],
        }
    }

    /// The full sweep: 10k green threads on loopback echo (5000 pairs x 3
    /// fds stays under both the per-VM socket cap and typical `ulimit -n`)
    /// and a 100k-continuation timer storm.
    #[must_use]
    pub fn paper() -> Self {
        ReactorScale {
            workers: vec![1, 2, 4],
            echo_pairs: vec![1_000, 5_000],
            echo_rounds: 4,
            timer_storms: vec![(10_000, 5_000), (100_000, 30_000)],
        }
    }

    /// Drops worker counts above `max` (used by `--max-workers` for CI
    /// smoke runs on small machines).
    pub fn clamp_workers(&mut self, max: usize) {
        self.workers.retain(|&w| w <= max.max(1));
        if self.workers.is_empty() {
            self.workers.push(1);
        }
    }
}

/// One cell of the E13 sweep.
#[derive(Debug, Clone)]
pub struct ReactorRow {
    /// `"echo"` or `"timer-storm"`.
    pub mode: &'static str,
    /// Readiness backend the pool's reactors ran (`"poll"` or `"epoll"` —
    /// whatever `Backend::from_env` selected for this process).
    pub backend: &'static str,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Green threads the cell keeps in flight (2 per echo pair; one per
    /// storm timer).
    pub green_threads: usize,
    /// Operations measured: verified echo round trips, or timer wakeups.
    pub ops: usize,
    /// Wall-clock milliseconds from first load submit to last outcome.
    pub wall_ms: f64,
    /// Operations per second of wall clock.
    pub throughput: f64,
    /// Median per-op latency in microseconds: echo round-trip time, or
    /// timer wake lateness beyond the requested wait.
    pub p50_us: f64,
    /// 99th-percentile per-op latency in microseconds.
    pub p99_us: f64,
    /// Worst per-op latency in microseconds.
    pub max_us: f64,
    /// Jobs that finished with a value.
    pub completed: u64,
    /// Jobs that failed for any reason (must be 0: the load is
    /// defect-free).
    pub failed: u64,
    /// I/O suspensions (continuation sealed, fd registered).
    pub io_blocked: u64,
    /// Reactor readiness deliveries that requeued a continuation.
    pub io_wakeups: u64,
    /// Timer suspensions.
    pub timer_waits: u64,
    /// Peak simultaneously-blocked continuations on any single worker —
    /// the honest concurrency measure.
    pub blocked_highwater: u64,
    /// Open sockets after the drain (must be 0).
    pub leaked_sockets: i64,
    /// In-use (uncached) stack segments after the drain, summed over
    /// workers: a sealed continuation that leaked would show up here.
    pub live_segments: i64,
}

/// Pinned per shard worker: bind `n` loopback listeners (one per
/// connection — a readiness wakeup never herds accepters onto a shared
/// fd) plus the echo handler, and return the port list.
fn reactor_setup_src(n: usize) -> String {
    format!(
        "(define listeners
           (let loop ((i 0) (acc '()))
             (if (< i {n})
                 (loop (+ i 1) (cons (tcp-listen 0) acc))
                 (list->vector (reverse acc)))))
         (define (serve-echo lst)
           (let ((c (tcp-accept lst)))
             (let loop ()
               (let ((d (tcp-read c 4096)))
                 (if (eq? d 'eof)
                     (begin (tcp-close c) (tcp-close lst) 'served)
                     (begin (tcp-write c d) (loop)))))))
         (let loop ((i 0) (acc '()))
           (if (< i {n})
               (loop (+ i 1) (cons (tcp-local-port (vector-ref listeners i)) acc))
               (reverse acc)))"
    )
}

/// Pinned to every worker (clients are unpinned, so every VM needs it):
/// an echo client that verifies each round and returns the list of
/// per-round round-trip times in microseconds.
const REACTOR_CLIENT_LIB: &str = "(define (read-n s n acc)
       (if (>= (string-length acc) n)
           acc
           (let ((d (tcp-read s 4096)))
             (if (eq? d 'eof) acc (read-n s n (string-append acc d))))))
     (define (echo-client port msg rounds)
       (let ((s (tcp-connect port)))
         (let loop ((i 0) (acc '()))
           (if (< i rounds)
               (let ((t0 (now-us)))
                 (tcp-write s msg)
                 (let ((r (read-n s (string-length msg) \"\")))
                   (if (string=? r msg)
                       (loop (+ i 1) (cons (- (now-us) t0) acc))
                       'corrupt)))
               (begin (tcp-close s) (reverse acc))))))
     'lib";

/// Pinned per worker after the drain: `(live-sockets . in-use-segments)`.
/// Cached segments are excluded — a drained continuation's segments land
/// in the reuse cache, which is recycling, not leakage.
const REACTOR_AUDIT: &str = "(cons (%net-live) (cdr (assq 'live-uncached-segments (vm-stats))))";

/// Parses a flat Scheme list of fixnums, e.g. `"(118 92 87)"`.
fn parse_fixnum_list(shown: &str) -> Vec<i64> {
    shown
        .trim_matches(['(', ')'])
        .split_whitespace()
        .map(|t| t.parse().expect("fixnum list element"))
        .collect()
}

/// Runs the post-drain leak audit on every worker of a still-live pool.
fn reactor_audit(pool: &oneshot_exec::Pool, workers: usize) -> (i64, i64) {
    use oneshot_exec::JobSpec;
    let (mut sockets, mut segments) = (0i64, 0i64);
    for w in 0..workers {
        let shown = pool
            .submit(JobSpec::new(format!("audit-{w}"), REACTOR_AUDIT).pin(w))
            .expect("audit submits")
            .wait()
            .result
            .expect("audit runs");
        let (s, g) = shown.trim_matches(['(', ')']).split_once(" . ").expect("audit pair");
        sockets += s.parse::<i64>().expect("socket count");
        segments += g.parse::<i64>().expect("segment count");
    }
    (sockets, segments)
}

/// Assembles a [`ReactorRow`] from a finished cell's latency samples and
/// the drained pool's counter snapshot.
fn reactor_row(
    mode: &'static str,
    workers: usize,
    green_threads: usize,
    mut samples_us: Vec<f64>,
    wall: std::time::Duration,
    c: &oneshot_exec::PoolCountersSnapshot,
    audit: (i64, i64),
) -> ReactorRow {
    samples_us.sort_by(f64::total_cmp);
    ReactorRow {
        mode,
        backend: c.reactor_backend,
        workers,
        green_threads,
        ops: samples_us.len(),
        wall_ms: wall.as_secs_f64() * 1e3,
        throughput: samples_us.len() as f64 / wall.as_secs_f64(),
        p50_us: percentile_ms(&samples_us, 0.50),
        p99_us: percentile_ms(&samples_us, 0.99),
        max_us: percentile_ms(&samples_us, 1.0),
        completed: c.completed,
        failed: c.failed,
        io_blocked: c.io_blocked,
        io_wakeups: c.io_wakeups,
        timer_waits: c.timer_waits,
        blocked_highwater: c.blocked_highwater,
        leaked_sockets: audit.0,
        live_segments: audit.1,
    }
}

/// Runs one loopback-echo cell: `pairs` connections, each a pinned
/// handler green thread and an unpinned client green thread, sharded
/// across `workers`.
///
/// # Panics
///
/// Panics if any echo fails to verify or any job fails — the load is
/// defect-free, so a failure is a build defect.
pub fn reactor_echo_case(workers: usize, pairs: usize, rounds: usize) -> ReactorRow {
    use oneshot_exec::{JobSpec, Pool};
    let pool = Pool::builder()
        .workers(workers)
        .resident_cap(2 * pairs.div_ceil(workers) + 16)
        .queue_capacity(2 * pairs + 64)
        .fuel_slice(2048)
        .build()
        .expect("pool spawns");

    // Shard setup: listeners + handler library pinned per worker, the
    // client library pinned to every worker.
    let per_shard: Vec<usize> =
        (0..workers).map(|w| pairs / workers + usize::from(w < pairs % workers)).collect();
    let mut ports: Vec<(usize, u16)> = Vec::with_capacity(pairs); // (worker, port)
    for (w, &n) in per_shard.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let shown = pool
            .submit(JobSpec::new(format!("setup-{w}"), reactor_setup_src(n)).pin(w))
            .expect("setup submits")
            .wait()
            .result
            .expect("listeners bind");
        for p in shown.trim_matches(['(', ')']).split_whitespace() {
            ports.push((w, p.parse().expect("port list")));
        }
    }
    assert_eq!(ports.len(), pairs);
    for w in 0..workers {
        let ok = pool
            .submit(JobSpec::new(format!("client-lib-{w}"), REACTOR_CLIENT_LIB).pin(w))
            .expect("lib submits")
            .wait()
            .result
            .expect("client lib loads");
        assert_eq!(ok, "lib");
    }

    // The load: one pinned handler per listener, one unpinned client per
    // connection.
    let deadline = std::time::Duration::from_secs(300);
    let start = Instant::now();
    let handlers: Vec<_> = ports
        .iter()
        .enumerate()
        .map(|(i, &(w, _))| {
            let slot = per_shard[..w].iter().sum::<usize>();
            pool.submit(
                JobSpec::new(
                    format!("handler-{i}"),
                    format!("(serve-echo (vector-ref listeners {}))", i - slot),
                )
                .pin(w)
                .deadline(deadline),
            )
            .expect("handler submits")
        })
        .collect();
    let clients: Vec<_> = ports
        .iter()
        .enumerate()
        .map(|(i, &(_, port))| {
            pool.submit(
                JobSpec::new(
                    format!("client-{i}"),
                    format!("(echo-client {port} \"e13-payload-{i}\" {rounds})"),
                )
                .deadline(deadline),
            )
            .expect("client submits")
        })
        .collect();

    let mut rtts_us: Vec<f64> = Vec::with_capacity(pairs * rounds);
    for h in &clients {
        let outcome = h.wait();
        let shown = match outcome.result.as_deref() {
            Ok(shown) if shown != "corrupt" => shown.to_string(),
            other => panic!("E13 client {} failed: {other:?}", outcome.name),
        };
        rtts_us.extend(parse_fixnum_list(&shown).into_iter().map(|us| us as f64));
    }
    for h in &handlers {
        assert_eq!(h.wait().result.as_deref(), Ok("served"), "handler must drain");
    }
    let wall = start.elapsed();
    assert_eq!(rtts_us.len(), pairs * rounds);

    let audit = reactor_audit(&pool, workers);
    let report = pool.shutdown().expect("pool drains");
    reactor_row("echo", workers, 2 * pairs, rtts_us, wall, &report.counters, audit)
}

/// Runs one timer-storm cell: `jobs` green threads all suspended in
/// `(timer-wait wait_ms)` at once; each returns its wake lateness in
/// microseconds.
///
/// # Panics
///
/// Panics if any job fails or the storm never reaches full suspension
/// (`wait_ms` must exceed the submit phase).
pub fn reactor_timer_case(workers: usize, jobs: usize, wait_ms: u64) -> ReactorRow {
    use oneshot_exec::{JobSpec, Pool};
    let pool = Pool::builder()
        .workers(workers)
        .resident_cap(jobs.div_ceil(workers) + 8)
        .queue_capacity(jobs + 64)
        .fuel_slice(2048)
        .build()
        .expect("pool spawns");
    let deadline = std::time::Duration::from_millis(wait_ms) + std::time::Duration::from_secs(300);
    let src =
        format!("(let ((t0 (now-us))) (timer-wait {wait_ms}) (- (now-us) t0 {}))", wait_ms * 1000);
    let start = Instant::now();
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            pool.submit(JobSpec::new(format!("storm-{i}"), src.clone()).deadline(deadline))
                .expect("storm submits")
        })
        .collect();
    let submit_ms = start.elapsed().as_secs_f64() * 1e3;
    let lateness_us: Vec<f64> = handles
        .iter()
        .map(|h| {
            let outcome = h.wait();
            match outcome.result.as_deref() {
                Ok(shown) => shown.parse::<f64>().expect("lateness fixnum"),
                Err(e) => panic!("E13 storm job {} failed: {e}", outcome.name),
            }
        })
        .collect();
    let wall = start.elapsed();
    assert!(
        submit_ms < wait_ms as f64,
        "submit phase ({submit_ms:.0} ms) outlasted the {wait_ms} ms wait: \
         the storm never reached full suspension"
    );

    let audit = reactor_audit(&pool, workers);
    let report = pool.shutdown().expect("pool drains");
    reactor_row("timer-storm", workers, jobs, lateness_us, wall, &report.counters, audit)
}

/// The full E13 sweep: echo cells then timer storms, each across every
/// worker count.
pub fn reactor_experiment(scale: &ReactorScale) -> Vec<ReactorRow> {
    let mut out = Vec::new();
    for &pairs in &scale.echo_pairs {
        for &workers in &scale.workers {
            out.push(reactor_echo_case(workers, pairs, scale.echo_rounds));
        }
    }
    for &(jobs, wait_ms) in &scale.timer_storms {
        for &workers in &scale.workers {
            out.push(reactor_timer_case(workers, jobs, wait_ms));
        }
    }
    out
}

// ----------------------------------------------------------------------
// E15 — reactor scaling: backend x blocked-fd curves, storm lateness,
//       shared-listener throughput
// ----------------------------------------------------------------------

/// Scale knobs for the E15 backend-scaling sweep. Every case runs once
/// per readiness backend (`poll(2)` and edge-triggered `epoll(7)`,
/// selected programmatically via `PoolBuilder::reactor_backend`, so both
/// run in one process), making the sweep a head-to-head under identical
/// load: the per-wakeup cost curve as blocked fds grow, timer-storm wake
/// lateness, and shared-listener echo throughput.
#[derive(Debug, Clone)]
pub struct E15Scale {
    /// Worker counts for the storm and shared-listener cases. The
    /// blocked-fd probe always runs on one worker so every parked fd
    /// sits in the probe's own reactor interest set.
    pub workers: Vec<usize>,
    /// Parked-connection counts for the blocked-fd probe. Each parked
    /// connection is one guest socket suspended in `(tcp-read s 4)` plus
    /// its Rust-held silent peer, so a point costs `2n` fds and `n`
    /// sealed continuations.
    pub parked: Vec<usize>,
    /// Sequential echo round trips the probe measures at each point.
    pub probe_rounds: usize,
    /// The timer storm as `(jobs, waits_per_job, wait_ms)`: total timer
    /// deliveries are `jobs * waits_per_job`.
    pub storm: (usize, usize, u64),
    /// Connections for the shared-listener echo case (requested; the fd
    /// budget may clamp it — rows record requested vs actual).
    pub serve_conns: usize,
    /// Echo rounds per shared-listener connection.
    pub serve_rounds: usize,
}

impl E15Scale {
    /// A sweep that finishes in seconds (CI smoke).
    #[must_use]
    pub fn quick() -> Self {
        E15Scale {
            workers: vec![1, 2],
            parked: vec![0, 64, 256],
            probe_rounds: 64,
            storm: (400, 5, 10),
            serve_conns: 200,
            serve_rounds: 2,
        }
    }

    /// The full sweep: probe curves requested out to 100k parked fds (the
    /// process fd budget clamps the top point, recorded per row), a
    /// million timer deliveries (10k jobs x 100 waits), and a
    /// 10k-connection echo.
    #[must_use]
    pub fn paper() -> Self {
        E15Scale {
            workers: vec![1, 2, 4],
            parked: vec![0, 1_000, 4_000, 100_000],
            probe_rounds: 200,
            storm: (10_000, 100, 5),
            serve_conns: 10_000,
            serve_rounds: 4,
        }
    }

    /// Drops worker counts above `max` (used by `--max-workers`).
    pub fn clamp_workers(&mut self, max: usize) {
        self.workers.retain(|&w| w <= max.max(1));
        if self.workers.is_empty() {
            self.workers.push(1);
        }
    }
}

/// One cell of the E15 sweep.
#[derive(Debug, Clone)]
pub struct E15Row {
    /// `"blocked-probe"`, `"timer-storm"`, or `"serve-echo"`.
    pub mode: &'static str,
    /// Readiness backend the pool ran (`"poll"` or `"epoll"`).
    pub backend: &'static str,
    /// Worker threads in the pool.
    pub workers: usize,
    /// The requested scale point: parked connections, total timer waits,
    /// or shared-listener connections.
    pub requested: usize,
    /// The point actually run after clamping to the fd budget. Equal to
    /// `requested` when the budget sufficed.
    pub actual: usize,
    /// Operations measured: probe round trips, timer deliveries, or
    /// verified echo round trips.
    pub ops: usize,
    /// Wall-clock milliseconds over the measured phase.
    pub wall_ms: f64,
    /// Operations per second of wall clock.
    pub throughput: f64,
    /// Median per-op latency in microseconds (probe/echo round-trip
    /// time; storm mean wake lateness per job).
    pub p50_us: f64,
    /// 99th-percentile per-op latency in microseconds.
    pub p99_us: f64,
    /// Worst per-op latency in microseconds.
    pub max_us: f64,
    /// Jobs that finished with a value.
    pub completed: u64,
    /// Jobs that failed for any reason (must be 0).
    pub failed: u64,
    /// I/O suspensions.
    pub io_blocked: u64,
    /// Reactor readiness deliveries.
    pub io_wakeups: u64,
    /// Timer suspensions.
    pub timer_waits: u64,
    /// Peak simultaneously-blocked continuations on any single worker.
    pub blocked_highwater: u64,
    /// Largest single-harvest resume batch on any worker: how many
    /// sealed continuations one reactor pass requeued at once.
    pub resume_depth_highwater: u64,
    /// Shared-listener accepts routed to each worker (empty outside
    /// `serve-echo`) — flat when distribution is doing its job.
    pub accepts_per_worker: Vec<u64>,
    /// Most accepted-but-unadopted connections pending at once.
    pub accept_queue_highwater: u64,
    /// Timer wake-lateness histogram, bucket bounds
    /// [`WAKE_LATENESS_BUCKETS_MS`](oneshot_exec::WAKE_LATENESS_BUCKETS_MS)
    /// plus an unbounded tail; measured inside the reactor at delivery.
    pub wake_lateness: Vec<u64>,
    /// Bytecode instructions executed, summed over workers. For the
    /// timer storm this must match across backends cell-for-cell: the
    /// backend is pure readiness plumbing, invisible to the guest.
    pub instructions: u64,
    /// Open sockets after the drain (must be 0).
    pub leaked_sockets: i64,
    /// In-use (uncached) stack segments after the drain (a leaked sealed
    /// continuation would show up here).
    pub live_segments: i64,
}

/// Clamps a connection count to the process fd budget: 2 fds per
/// connection (both ends live in-process) plus slack for listeners,
/// wake pipes, and the probe pair.
fn e15_clamp_conns(requested: usize, max_fds: usize) -> usize {
    requested.min(max_fds.saturating_sub(64) / 2)
}

/// Assembles an [`E15Row`] from a finished cell.
#[allow(clippy::too_many_arguments)]
fn e15_row(
    mode: &'static str,
    workers: usize,
    requested: usize,
    actual: usize,
    ops: usize,
    mut samples_us: Vec<f64>,
    wall: std::time::Duration,
    report: &oneshot_exec::PoolReport,
    audit: (i64, i64),
) -> E15Row {
    let c = &report.counters;
    samples_us.sort_by(f64::total_cmp);
    E15Row {
        mode,
        backend: c.reactor_backend,
        workers,
        requested,
        actual,
        ops,
        wall_ms: wall.as_secs_f64() * 1e3,
        throughput: ops as f64 / wall.as_secs_f64(),
        p50_us: percentile_ms(&samples_us, 0.50),
        p99_us: percentile_ms(&samples_us, 0.99),
        max_us: percentile_ms(&samples_us, 1.0),
        completed: c.completed,
        failed: c.failed,
        io_blocked: c.io_blocked,
        io_wakeups: c.io_wakeups,
        timer_waits: c.timer_waits,
        blocked_highwater: c.blocked_highwater,
        resume_depth_highwater: c.resume_depth_highwater.iter().copied().max().unwrap_or(0),
        accepts_per_worker: c.accepts_per_worker.clone(),
        accept_queue_highwater: c.accept_queue_highwater,
        wake_lateness: c.wake_lateness.clone(),
        instructions: report.workers.iter().map(|w| w.vm.instructions).sum(),
        leaked_sockets: audit.0,
        live_segments: audit.1,
    }
}

/// Runs one blocked-fd probe cell: `parked` guest connections suspended
/// in `(tcp-read s 4)` against Rust-held peers that stay silent, then a
/// single echo pair driven through the same single-worker reactor for
/// `rounds` sequential round trips. Under `poll(2)` every probe wakeup
/// rebuilds and scans an interest set proportional to the parked count;
/// under edge-triggered `epoll(7)` the kernel hands over only the ready
/// fd, so the latency curve stays flat as `parked` grows.
///
/// Teardown releases every parked connection (the Rust peer writes its
/// 4-byte payload), so the cell also audits that mass wakeup and close
/// of thousands of sealed continuations leaks nothing.
///
/// # Panics
///
/// Panics if any job fails, a parked job never suspends, or a socket or
/// segment leaks — the load is defect-free, so a failure is a build
/// defect.
pub fn e15_probe_case(
    backend: oneshot_exec::Backend,
    parked_req: usize,
    rounds: usize,
    max_fds: usize,
) -> E15Row {
    use oneshot_exec::{JobSpec, Pool};
    use std::io::Write as _;
    let parked = e15_clamp_conns(parked_req, max_fds);
    let pool = Pool::builder()
        .workers(1)
        .resident_cap(parked + 16)
        .queue_capacity(parked + 64)
        .fuel_slice(2048)
        .reactor_backend(backend)
        .build()
        .expect("pool spawns");

    // The Rust side of the parked connections: accept every guest
    // connect and hold the peer silent until teardown.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("probe listener binds");
    let port = listener.local_addr().expect("local addr").port();
    let acceptor = std::thread::spawn(move || {
        (0..parked)
            .map(|_| listener.accept().expect("parked peer accepts").0)
            .collect::<Vec<std::net::TcpStream>>()
    });
    let parked_jobs: Vec<_> = (0..parked)
        .map(|i| {
            pool.submit(JobSpec::new(
                format!("parked-{i}"),
                format!(
                    "(let ((s (tcp-connect {port}))) \
                       (let ((d (tcp-read s 4))) (tcp-close s) d))"
                ),
            ))
            .expect("parked job submits")
        })
        .collect();
    let peers = acceptor.join().expect("acceptor thread");
    // Wait until every parked job is really suspended on the reactor —
    // the probe must run against a full interest set, not a filling one.
    let deadline = Instant::now() + std::time::Duration::from_secs(120);
    while pool.stats().io_blocked < parked as u64 {
        assert!(Instant::now() < deadline, "parked jobs never all suspended");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    // The probe: one pinned echo pair through the same loaded reactor.
    let shown = pool
        .submit(JobSpec::new("probe-setup", reactor_setup_src(1)).pin(0))
        .expect("setup submits")
        .wait()
        .result
        .expect("probe listener binds");
    let probe_port: u16 = shown.trim_matches(['(', ')']).trim().parse().expect("probe port");
    let lib = pool
        .submit(JobSpec::new("probe-lib", REACTOR_CLIENT_LIB).pin(0))
        .expect("lib submits")
        .wait()
        .result
        .expect("client lib loads");
    assert_eq!(lib, "lib");
    let job_deadline = std::time::Duration::from_secs(300);
    let start = Instant::now();
    let handler = pool
        .submit(
            JobSpec::new("probe-handler", "(serve-echo (vector-ref listeners 0))")
                .pin(0)
                .deadline(job_deadline),
        )
        .expect("handler submits");
    let client = pool
        .submit(
            JobSpec::new(
                "probe-client",
                format!("(echo-client {probe_port} \"e15-probe-payload\" {rounds})"),
            )
            .pin(0)
            .deadline(job_deadline),
        )
        .expect("client submits");
    let outcome = client.wait();
    let shown = match outcome.result.as_deref() {
        Ok(shown) if shown != "corrupt" => shown.to_string(),
        other => panic!("E15 probe client failed: {other:?}"),
    };
    let rtts_us: Vec<f64> = parse_fixnum_list(&shown).into_iter().map(|us| us as f64).collect();
    assert_eq!(handler.wait().result.as_deref(), Ok("served"), "probe handler must drain");
    let wall = start.elapsed();
    assert_eq!(rtts_us.len(), rounds);

    // Teardown: release every parked connection at once.
    for mut p in peers {
        p.write_all(b"bye!").expect("release write");
    }
    for h in &parked_jobs {
        let outcome = h.wait();
        let shown = outcome.result.expect("parked job wakes");
        assert!(shown.contains("bye"), "parked job read its release payload: {shown:?}");
    }

    let audit = reactor_audit(&pool, 1);
    let report = pool.shutdown().expect("pool drains");
    e15_row("blocked-probe", 1, parked_req, parked, rounds, rtts_us, wall, &report, audit)
}

/// Runs one timer-storm cell: `jobs` green threads each performing
/// `waits` sequential `(timer-wait wait_ms)` suspensions (total
/// deliveries `jobs * waits`). Each job returns its accumulated wake
/// lateness beyond the requested waits; the row's latency columns are
/// the per-job mean lateness per wait, and `wake_lateness` carries the
/// reactor's own delivery-time histogram.
///
/// # Panics
///
/// Panics if any job fails or a socket or segment leaks.
pub fn e15_storm_case(
    backend: oneshot_exec::Backend,
    workers: usize,
    jobs: usize,
    waits: usize,
    wait_ms: u64,
) -> E15Row {
    use oneshot_exec::{JobSpec, Pool};
    let pool = Pool::builder()
        .workers(workers)
        .resident_cap(jobs.div_ceil(workers) + 8)
        .queue_capacity(jobs + 64)
        .fuel_slice(2048)
        .reactor_backend(backend)
        .build()
        .expect("pool spawns");
    let expected_us = waits as u64 * wait_ms * 1000;
    let src = format!(
        "(let ((t0 (now-us)))
           (let loop ((i 0))
             (if (< i {waits})
                 (begin (timer-wait {wait_ms}) (loop (+ i 1)))
                 (- (now-us) t0 {expected_us}))))"
    );
    let deadline = std::time::Duration::from_millis(waits as u64 * wait_ms)
        + std::time::Duration::from_secs(300);
    let start = Instant::now();
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            pool.submit(JobSpec::new(format!("storm-{i}"), src.clone()).deadline(deadline))
                .expect("storm submits")
        })
        .collect();
    let mean_lateness_us: Vec<f64> = handles
        .iter()
        .map(|h| {
            let outcome = h.wait();
            match outcome.result.as_deref() {
                Ok(shown) => shown.parse::<f64>().expect("lateness fixnum") / waits as f64,
                Err(e) => panic!("E15 storm job {} failed: {e}", outcome.name),
            }
        })
        .collect();
    let wall = start.elapsed();

    let audit = reactor_audit(&pool, workers);
    let report = pool.shutdown().expect("pool drains");
    e15_row(
        "timer-storm",
        workers,
        jobs * waits,
        jobs * waits,
        jobs * waits,
        mean_lateness_us,
        wall,
        &report,
        audit,
    )
}

/// Runs one shared-listener echo cell: [`Pool::serve`] binds one
/// `AF_INET` listener whose accepted connections are distributed
/// least-loaded across the worker reactors; each accepted connection
/// spawns the `(conn-take)` echo handler, and `conns` unpinned guest
/// clients drive `rounds` verified round trips each against the shared
/// port. The row records accepts-per-worker (distribution flatness),
/// accept-queue highwater, and requested-vs-actual after the fd clamp.
///
/// # Panics
///
/// Panics if any echo fails to verify, any handler fails, the accept
/// count disagrees, or a socket or segment leaks.
pub fn e15_serve_case(
    backend: oneshot_exec::Backend,
    workers: usize,
    conns_req: usize,
    rounds: usize,
    max_fds: usize,
) -> E15Row {
    use oneshot_exec::{JobSpec, Pool};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    // Both socket ends land in worker VMs (clients spread across workers,
    // accepted connections are routed least-loaded), so besides the fd
    // budget keep each VM's share under 3/4 of its socket-table cap.
    let vm_cap = VmConfig::default().max_open_sockets;
    let conns = e15_clamp_conns(conns_req, max_fds).min(workers * (3 * vm_cap) / 8);
    let pool = Pool::builder()
        .workers(workers)
        .resident_cap(2 * conns.div_ceil(workers) + 16)
        .queue_capacity(2 * conns + 64)
        .fuel_slice(2048)
        .reactor_backend(backend)
        .build()
        .expect("pool spawns");
    let job_deadline = std::time::Duration::from_secs(300);
    let served = Arc::new(AtomicU64::new(0));
    let served_cb = Arc::clone(&served);
    let handler = JobSpec::new(
        "echo-handler",
        "(let ((c (conn-take)))
           (let loop ()
             (let ((d (tcp-read c 4096)))
               (if (eq? d 'eof)
                   (begin (tcp-close c) 'served)
                   (begin (tcp-write c d) (loop))))))",
    )
    .deadline(job_deadline)
    .on_complete(move |o| {
        if o.result.as_deref() == Ok("served") {
            served_cb.fetch_add(1, Ordering::SeqCst);
        }
    });
    let serve = pool.serve("127.0.0.1:0", handler).expect("shared listener binds");
    let port = serve.port();
    for w in 0..workers {
        let ok = pool
            .submit(JobSpec::new(format!("client-lib-{w}"), REACTOR_CLIENT_LIB).pin(w))
            .expect("lib submits")
            .wait()
            .result
            .expect("client lib loads");
        assert_eq!(ok, "lib");
    }

    let start = Instant::now();
    let clients: Vec<_> = (0..conns)
        .map(|i| {
            pool.submit(
                JobSpec::new(
                    format!("client-{i}"),
                    format!("(echo-client {port} \"e15-serve-{i}\" {rounds})"),
                )
                .deadline(job_deadline),
            )
            .expect("client submits")
        })
        .collect();
    let mut rtts_us: Vec<f64> = Vec::with_capacity(conns * rounds);
    for h in &clients {
        let outcome = h.wait();
        let shown = match outcome.result.as_deref() {
            Ok(shown) if shown != "corrupt" => shown.to_string(),
            other => panic!("E15 serve client {} failed: {other:?}", outcome.name),
        };
        rtts_us.extend(parse_fixnum_list(&shown).into_iter().map(|us| us as f64));
    }
    // Handlers finish after their client closes; wait for the callbacks.
    let drain_deadline = Instant::now() + std::time::Duration::from_secs(120);
    while served.load(Ordering::SeqCst) < conns as u64 {
        assert!(
            Instant::now() < drain_deadline,
            "handlers drained {}/{conns}",
            served.load(Ordering::SeqCst)
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let wall = start.elapsed();
    assert_eq!(rtts_us.len(), conns * rounds);
    assert_eq!(serve.accepted(), conns as u64, "every connection was accepted");

    let audit = reactor_audit(&pool, workers);
    let report = pool.shutdown().expect("pool drains");
    assert_eq!(
        report.counters.accepts_per_worker.iter().sum::<u64>(),
        conns as u64,
        "every accept was routed to a worker"
    );
    assert_eq!(report.counters.accept_overflow, 0, "no connection was shed");
    e15_row("serve-echo", workers, conns_req, conns, conns * rounds, rtts_us, wall, &report, audit)
}

/// The full E15 sweep: for each backend, the blocked-fd probe curve,
/// then the timer storm and the shared-listener echo across every
/// worker count.
pub fn e15_experiment(scale: &E15Scale, max_fds: usize) -> Vec<E15Row> {
    use oneshot_exec::Backend;
    let mut out = Vec::new();
    for backend in [Backend::Poll, Backend::Epoll] {
        for &parked in &scale.parked {
            out.push(e15_probe_case(backend, parked, scale.probe_rounds, max_fds));
        }
    }
    let (jobs, waits, wait_ms) = scale.storm;
    for backend in [Backend::Poll, Backend::Epoll] {
        for &workers in &scale.workers {
            out.push(e15_storm_case(backend, workers, jobs, waits, wait_ms));
        }
    }
    for backend in [Backend::Poll, Backend::Epoll] {
        for &workers in &scale.workers {
            out.push(e15_serve_case(
                backend,
                workers,
                scale.serve_conns,
                scale.serve_rounds,
                max_fds,
            ));
        }
    }
    out
}

// ----------------------------------------------------------------------
// E17 — fault-tolerant serving: seeded chaos sweeps over live sockets,
// overload shedding, and worker supervision
// ----------------------------------------------------------------------

/// Scale knobs for the E17 fault-tolerance sweep.
#[derive(Debug, Clone)]
pub struct E17Scale {
    /// Seeded chaos-serve schedules per backend. Each seed arms a fresh
    /// pool (VM fault clocks *and* reactor I/O fault clocks) and drives
    /// real connections through it.
    pub seeds: u64,
    /// Fault-plan draw horizon per clock (smaller = denser faults).
    pub horizon: u64,
    /// Host connections driven per chaos seed.
    pub conns: usize,
    /// Worker threads for the chaos and supervision cells.
    pub workers: usize,
    /// Connection burst for the overload probe (must overflow a
    /// one-resident pool with a high-water mark of one).
    pub overload_burst: usize,
}

impl E17Scale {
    /// A sweep that finishes in seconds (CI smoke).
    #[must_use]
    pub fn quick() -> Self {
        E17Scale { seeds: 24, horizon: 256, conns: 6, workers: 2, overload_burst: 8 }
    }

    /// The full sweep: 512 seeded schedules per backend.
    #[must_use]
    pub fn paper() -> Self {
        E17Scale { seeds: 512, horizon: 256, conns: 8, workers: 2, overload_burst: 64 }
    }

    /// Drops the worker count to `max` (used by `--max-workers`).
    pub fn clamp_workers(&mut self, max: usize) {
        self.workers = self.workers.min(max.max(1));
    }
}

/// One cell of the E17 sweep.
#[derive(Debug, Clone)]
pub struct E17Row {
    /// `"chaos-serve"`, `"disarmed"`, `"overload"`, or `"supervision"`.
    pub mode: &'static str,
    /// Readiness backend the pools ran (`"poll"` or `"epoll"`).
    pub backend: &'static str,
    /// Seeded schedules aggregated into this row (0 for the probes).
    pub seeds: u64,
    /// Host connections driven.
    pub conns: usize,
    /// Connections that read a correct payload back.
    pub answered: usize,
    /// Connections that resolved without a payload — clean close, reset,
    /// or client-side timeout. Under chaos these are expected; the
    /// contract is that they *resolve* instead of wedging.
    pub degraded: usize,
    /// Jobs that finished with a value, summed over the cell's pools.
    pub completed: u64,
    /// Jobs that failed, summed over the cell's pools.
    pub failed: u64,
    /// Transient-failure retries granted by the pools.
    pub retried: u64,
    /// Injected faults consumed, VM sites plus reactor I/O sites.
    pub faults_injected: u64,
    /// Per-wait I/O deadlines that fired.
    pub io_timeouts: u64,
    /// Accepted connections shed past the pending high-water mark.
    pub accepts_shed: u64,
    /// Nanoseconds the acceptor spent above the high-water mark.
    pub shed_duration_ns: u64,
    /// Workers rebuilt by the supervisor after a panic.
    pub worker_restarts: u64,
    /// Leak-audit jobs submitted (a still-armed fault clock can kill an
    /// audit job; the audit retries until the clocks are spent).
    pub audit_jobs: u64,
    /// Open guest sockets after every drain, summed (must be 0).
    pub leaked_sockets: i64,
    /// Wall-clock milliseconds over the whole cell.
    pub wall_ms: f64,
}

/// The chaos-serve connection handler: one read, echo, close — every
/// injected condition is caught by the guard, which scraps the socket
/// before reporting, so the handler *itself* never leaks.
const E17_HANDLER: &str = "(let ((c (conn-take)))
       (call-with-guard
         (lambda (e) (begin (tcp-close c) (list 'caught (condition-kind e))))
         (lambda ()
           (let ((d (tcp-read c 4096)))
             (if (not (eq? d 'eof)) (tcp-write c d))
             (tcp-close c)
             'served))))";

/// Retry-tolerant leak audit: unlike [`reactor_audit`] this one survives
/// an audit job eaten by a still-armed one-shot fault clock — it
/// resubmits (spending the clock) until a count comes back. Returns
/// `(leaked_sockets, audit_jobs_submitted)`.
fn e17_audit(pool: &oneshot_exec::Pool, workers: usize) -> (i64, u64) {
    use oneshot_exec::JobSpec;
    let (mut leaked, mut audits) = (0i64, 0u64);
    for w in 0..workers {
        let mut live = None;
        for attempt in 0..5 {
            audits += 1;
            let audit = pool
                .submit(JobSpec::new(format!("audit-{w}-{attempt}"), "(%net-live)").pin(w))
                .expect("audit submits");
            if let Ok(v) = audit.wait().result {
                live = Some(v.parse::<i64>().expect("socket count"));
                break;
            }
        }
        leaked += live.expect("audit survives the spent fault clocks");
    }
    (leaked, audits)
}

/// Drives `conns` host connections through a serving pool and classifies
/// each: `answered` read its payload back verbatim, `degraded` resolved
/// any other way (close, reset, timeout). Never wedges: every socket has
/// a read timeout.
fn e17_drive_conns(port: u16, conns: usize, tag: &str) -> (usize, usize) {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    let (mut answered, mut degraded) = (0usize, 0usize);
    for i in 0..conns {
        let msg = format!("e17-{tag}-{i}");
        let outcome = TcpStream::connect(("127.0.0.1", port)).ok().and_then(|mut s| {
            s.set_read_timeout(Some(std::time::Duration::from_secs(10))).ok()?;
            s.write_all(msg.as_bytes()).ok()?;
            let mut acc = Vec::new();
            let mut buf = [0u8; 64];
            while let Ok(n) = s.read(&mut buf) {
                if n == 0 {
                    break;
                }
                acc.extend_from_slice(&buf[..n]);
            }
            Some(acc == msg.as_bytes())
        });
        match outcome {
            Some(true) => answered += 1,
            _ => degraded += 1,
        }
    }
    (answered, degraded)
}

/// One seeded chaos-serve sweep: for each seed, build a pool with every
/// fault clock armed from that seed (or disarmed when `armed` is false),
/// serve real connections through the guarded echo handler, then audit
/// for leaks and drain. Aggregates counters across all seeds.
///
/// # Panics
///
/// Panics if any pool leaks a socket, or — in the disarmed reference —
/// if any fault fires or any job fails.
pub fn e17_chaos_case(backend: oneshot_exec::Backend, scale: &E17Scale, armed: bool) -> E17Row {
    use oneshot_exec::{JobSpec, Pool};
    use oneshot_vm::FaultPlan;
    // The disarmed run is the overhead/behavior reference: fewer seeds,
    // same machinery, zero faults tolerated.
    let seeds = if armed { scale.seeds } else { (scale.seeds / 8).max(4) };
    let mut row = E17Row {
        mode: if armed { "chaos-serve" } else { "disarmed" },
        backend: "",
        seeds,
        conns: 0,
        answered: 0,
        degraded: 0,
        completed: 0,
        failed: 0,
        retried: 0,
        faults_injected: 0,
        io_timeouts: 0,
        accepts_shed: 0,
        shed_duration_ns: 0,
        worker_restarts: 0,
        audit_jobs: 0,
        leaked_sockets: 0,
        wall_ms: 0.0,
    };
    let start = Instant::now();
    for seed in 0..seeds {
        let cfg = VmConfig {
            fault_plan: armed.then(|| FaultPlan::seeded(seed, scale.horizon)),
            ..VmConfig::default()
        };
        let pool = Pool::builder()
            .workers(scale.workers)
            .resident_cap(64)
            .fuel_slice(2048)
            .reactor_backend(backend)
            .vm_config(cfg)
            .max_retries(2)
            .build()
            .expect("pool spawns");
        let handler = JobSpec::new("chaos-echo", E17_HANDLER)
            .io_timeout(std::time::Duration::from_millis(500));
        let serve = pool.serve("127.0.0.1:0", handler).expect("listener binds");
        let (answered, degraded) = e17_drive_conns(serve.port(), scale.conns, &format!("s{seed}"));
        serve.stop();
        let (leaked, audits) = e17_audit(&pool, scale.workers);
        let report = pool
            .shutdown_timeout(std::time::Duration::from_secs(120))
            .expect("pool drains under chaos");
        let c = &report.counters;
        row.backend = c.reactor_backend;
        row.conns += scale.conns;
        row.answered += answered;
        row.degraded += degraded;
        row.completed += c.completed;
        row.failed += c.failed;
        row.retried += c.retried;
        row.faults_injected +=
            c.io_faults_injected + report.workers.iter().map(|w| w.vm.faults_injected).sum::<u64>();
        row.io_timeouts += c.io_timeouts;
        row.worker_restarts += c.worker_restarts;
        row.audit_jobs += audits;
        row.leaked_sockets += leaked;
        assert_eq!(leaked, 0, "E17 {} seed {seed}: leaked sockets", row.mode);
        assert_eq!(
            c.completed + c.failed,
            scale.conns as u64 + audits,
            "E17 {} seed {seed}: every handler and audit resolves exactly once",
            row.mode
        );
        if !armed {
            assert_eq!(c.failed, 0, "E17 disarmed seed {seed}: no job may fail");
        }
    }
    if !armed {
        assert_eq!(row.faults_injected, 0, "E17 disarmed: no fault may fire");
        assert_eq!(row.answered, row.conns, "E17 disarmed: every echo verifies");
    }
    row.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    row
}

/// The overload probe: one worker with room for one resident handler and
/// a pending high-water mark of one, hit with a concurrent burst. The
/// acceptor must shed the overflow — closed on the spot — while the pool
/// keeps serving and no job fails.
///
/// # Panics
///
/// Panics if nothing is shed, nothing is served, a shed accept goes
/// uncounted, or any job fails.
pub fn e17_overload_case(backend: oneshot_exec::Backend, burst: usize) -> E17Row {
    use oneshot_exec::{JobSpec, Pool, ServeOptions};
    use std::io::Read;
    use std::net::TcpStream;
    let pool = Pool::builder()
        .workers(1)
        .resident_cap(1)
        .fuel_slice(2048)
        .reactor_backend(backend)
        .build()
        .expect("pool spawns");
    let handler = JobSpec::new(
        "slow-handler",
        "(let ((c (conn-take)))
           (timer-wait 250)
           (tcp-write c \"ok\")
           (tcp-close c))",
    );
    let start = Instant::now();
    let serve = pool
        .serve_with(
            "127.0.0.1:0",
            handler,
            ServeOptions { pending_highwater: Some(1), ..ServeOptions::default() },
        )
        .expect("listener binds");
    let port = serve.port();
    let clients: Vec<_> = (0..burst)
        .map(|_| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(("127.0.0.1", port)).ok()?;
                s.set_read_timeout(Some(std::time::Duration::from_secs(30))).ok()?;
                let mut buf = [0u8; 8];
                match s.read(&mut buf) {
                    Ok(n) if n > 0 => Some(true), // the handler answered
                    _ => Some(false),             // closed or reset: shed
                }
            })
        })
        .collect();
    let (mut served, mut shed) = (0usize, 0usize);
    for c in clients {
        match c.join().unwrap() {
            Some(true) => served += 1,
            _ => shed += 1,
        }
    }
    serve.stop();
    let (leaked, audits) = e17_audit(&pool, 1);
    let report = pool.shutdown_timeout(std::time::Duration::from_secs(120)).expect("pool drains");
    let c = &report.counters;
    assert!(served >= 1, "E17 overload: the pool must keep serving while shedding");
    assert!(shed >= 1, "E17 overload: the burst must overflow the high-water mark");
    assert_eq!(c.accepts_shed, shed as u64, "E17 overload: every shed accept is counted");
    assert!(c.shed_duration_ns > 0, "E17 overload: time under shed is tracked");
    assert_eq!(c.failed, 0, "E17 overload: shedding never fails a job");
    assert_eq!(leaked, 0, "E17 overload: leaked sockets");
    E17Row {
        mode: "overload",
        backend: c.reactor_backend,
        seeds: 0,
        conns: burst,
        answered: served,
        degraded: shed,
        completed: c.completed,
        failed: c.failed,
        retried: c.retried,
        faults_injected: 0,
        io_timeouts: c.io_timeouts,
        accepts_shed: c.accepts_shed,
        shed_duration_ns: c.shed_duration_ns,
        worker_restarts: c.worker_restarts,
        audit_jobs: audits,
        leaked_sockets: leaked,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// The supervision drill under live serving: connections flow, a job
/// kills its worker, the supervisor rebuilds VM and reactor, and serving
/// resumes on the same listener.
///
/// # Panics
///
/// Panics if the restart is not counted, post-restart connections go
/// unanswered, or the drain leaks.
pub fn e17_supervision_case(backend: oneshot_exec::Backend, workers: usize) -> E17Row {
    use oneshot_exec::{ErrorKind, JobSpec, Pool};
    let pool = Pool::builder()
        .workers(workers)
        .resident_cap(8)
        .fuel_slice(2048)
        .reactor_backend(backend)
        .build()
        .expect("pool spawns");
    let handler =
        JobSpec::new("echo-once", E17_HANDLER).io_timeout(std::time::Duration::from_millis(500));
    let start = Instant::now();
    let serve = pool.serve("127.0.0.1:0", handler).expect("listener binds");
    let port = serve.port();
    let (pre_answered, pre_degraded) = e17_drive_conns(port, 2, "pre");
    // Let the pre-kill handlers finish so the killer is the only failure.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let killer = pool
        .submit(JobSpec::new("killer", "(debug-panic! \"kill-worker-hard\")").pin(0))
        .expect("killer submits");
    let err = killer.wait().result.expect_err("the killer fails");
    assert_eq!(err.kind(), ErrorKind::Panicked, "E17 supervision: the culprit panics");
    // Give the supervisor time to finish the rebuild before reloading.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let (post_answered, post_degraded) = e17_drive_conns(port, 4, "post");
    serve.stop();
    let (leaked, audits) = e17_audit(&pool, workers);
    let report = pool.shutdown_timeout(std::time::Duration::from_secs(120)).expect("pool drains");
    let c = &report.counters;
    assert!(c.worker_restarts >= 1, "E17 supervision: the restart must be counted");
    assert_eq!(
        post_answered, 4,
        "E17 supervision: the rebuilt worker must answer every post-kill connection"
    );
    assert_eq!(leaked, 0, "E17 supervision: leaked sockets");
    E17Row {
        mode: "supervision",
        backend: c.reactor_backend,
        seeds: 0,
        conns: 6,
        answered: pre_answered + post_answered,
        degraded: pre_degraded + post_degraded,
        completed: c.completed,
        failed: c.failed,
        retried: c.retried,
        faults_injected: 0,
        io_timeouts: c.io_timeouts,
        accepts_shed: c.accepts_shed,
        shed_duration_ns: c.shed_duration_ns,
        worker_restarts: c.worker_restarts,
        audit_jobs: audits,
        leaked_sockets: leaked,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// The full E17 sweep: for each backend, the seeded chaos-serve sweep,
/// its disarmed reference, the overload probe, and the supervision drill.
pub fn e17_experiment(scale: &E17Scale) -> Vec<E17Row> {
    use oneshot_exec::Backend;
    let mut out = Vec::new();
    for backend in [Backend::Poll, Backend::Epoll] {
        out.push(e17_chaos_case(backend, scale, true));
        out.push(e17_chaos_case(backend, scale, false));
        out.push(e17_overload_case(backend, scale.overload_burst));
        out.push(e17_supervision_case(backend, scale.workers));
    }
    out
}

// ----------------------------------------------------------------------
// E14 — value representation: the NaN-boxed word on the paper workloads
// ----------------------------------------------------------------------

/// The E14 report: static sizes of the value word and stack slot, the
/// measured segment-copy cost per slot, and the fused paper workloads
/// timed under the current representation. Comparing the rows against a
/// committed baseline (the same workloads measured before the word was
/// packed) is the representation's end-to-end cost/benefit statement.
#[derive(Debug, Clone)]
pub struct ValueRepReport {
    /// `size_of::<Value>()` — 8 with the NaN-boxed word.
    pub value_word_bytes: u64,
    /// `size_of::<Slot>()` — what every stack slot, and therefore every
    /// overflow/capture copy, actually moves.
    pub slot_bytes: u64,
    /// Best-of-reps nanoseconds per slot to copy a full 4096-slot segment
    /// buffer (the §3.2 overflow/underflow copy, isolated from the VM).
    pub segment_copy_ns_per_slot: f64,
    /// The fused dispatch workloads (fib/tak/ctak/fig5-loop) under the
    /// current value representation.
    pub rows: Vec<DispatchRow>,
}

/// Times a raw segment copy: a 4096-slot buffer with the frame shape the
/// stack machinery really holds (a return address every eight slots, value
/// words elsewhere), copied slot-for-slot as overflow and capture do.
fn segment_copy_ns_per_slot(reps: u32) -> f64 {
    use oneshot_runtime::Value;
    use oneshot_vm::Slot;
    const SLOTS: usize = 4096;
    let src: Vec<Slot> = (0..SLOTS)
        .map(|i| {
            if i % 8 == 0 {
                Slot::Ret {
                    code: i as u32,
                    pc: (i * 3) as u32,
                    disp: 8,
                    closure: Value::UNSPECIFIED,
                }
            } else {
                Slot::Val(Value::fixnum(i as i64))
            }
        })
        .collect();
    let mut dst: Vec<Slot> = vec![Slot::Marker; SLOTS];
    // Enough rounds per timing that a copy is micro-seconds, not nano.
    const ROUNDS: u32 = 2_000;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..ROUNDS {
            dst.copy_from_slice(&src);
            std::hint::black_box(&mut dst);
        }
        let ns = start.elapsed().as_nanos() as f64;
        best = best.min(ns / f64::from(ROUNDS) / SLOTS as f64);
    }
    best
}

/// E14: sizes, segment-copy cost, and the fused paper workloads. Reuses
/// the E9 cases (fusion on) so the numbers are directly comparable to a
/// `dispatch` run from any earlier revision at the same scale.
///
/// # Panics
///
/// Panics if a workload fails.
pub fn value_rep_experiment(scale: DispatchScale) -> ValueRepReport {
    let (tx, ty, tz) = scale.tak;
    let (cx, cy, cz) = scale.ctak;
    let (threads, freq, fib5) = scale.fig5;
    let rows = vec![
        dispatch_case("fib", workloads::FIB, &format!("(fib {})", scale.fib_n), true, scale.reps),
        dispatch_case("tak", workloads::TAK, &format!("(tak {tx} {ty} {tz})"), true, scale.reps),
        dispatch_case(
            "ctak",
            &workloads::ctak("call/1cc"),
            &format!("(ctak {cx} {cy} {cz})"),
            true,
            scale.reps,
        ),
        dispatch_fig5_case(true, threads, freq, fib5, scale.reps),
    ];
    ValueRepReport {
        value_word_bytes: std::mem::size_of::<oneshot_runtime::Value>() as u64,
        slot_bytes: std::mem::size_of::<oneshot_vm::Slot>() as u64,
        segment_copy_ns_per_slot: segment_copy_ns_per_slot(scale.reps),
        rows,
    }
}

// ----------------------------------------------------------------------
// E16 — delimited control: native prompts vs the call/1cc encoding
// ----------------------------------------------------------------------

/// One E16 cell: a generator workload under one control representation.
#[derive(Debug, Clone)]
pub struct E16Row {
    /// Workload name (`pipeline`, `generator`, `sampler`).
    pub workload: &'static str,
    /// Control representation: `native` (prompts on the segmented stack)
    /// or `call/1cc` (the one-shot full-continuation coroutine encoding).
    pub encoding: &'static str,
    /// Printed result of the run — must match across encodings (the
    /// same-answer differential).
    pub answer: String,
    /// Wall time and counter deltas over the measured run.
    pub m: Measurement,
    /// Live heap objects after the post-run full collection.
    pub live_after: usize,
    /// Occupied stack segments after the post-run full collection.
    pub live_segments_after: usize,
    /// Whether the post-run collection failed to return the heap to its
    /// pre-run baseline or the segment population to its resting size —
    /// a control structure the workload leaked.
    pub leaked: bool,
}

impl E16Row {
    /// Bytes of stack sealed away by control captures during the run:
    /// delimited takes contribute their occupied payload
    /// (`subcont_slots`), full-continuation one-shot captures contribute
    /// their whole encapsulated span (`slots_encapsulated`). Exactly one
    /// of the two is nonzero per encoding, so the sum is the per-encoding
    /// capture footprint in commensurable units.
    pub fn captured_bytes(&self) -> u64 {
        let slots = self.m.delta.stack.subcont_slots + self.m.delta.stack.slots_encapsulated;
        slots * std::mem::size_of::<oneshot_vm::Slot>() as u64
    }
}

/// The scale knobs of the E16 delimited-control experiment.
#[derive(Debug, Clone, Copy)]
pub struct E16Scale {
    /// Timing repetitions per cell (best wall time is reported; counters
    /// come from the first rep — they are deterministic).
    pub reps: u32,
    /// Items the pipeline source yields.
    pub pipeline_n: u64,
    /// Transforming stages between source and drain.
    pub pipeline_stages: u64,
    /// Values the single generator yields.
    pub generator_n: u64,
    /// Values the sampler pulls.
    pub sampler_n: u64,
    /// Consumer recursion depth cycle for the sampler (`i mod depth`).
    pub sampler_depth: u64,
}

impl E16Scale {
    /// A sweep that finishes in a couple of seconds.
    pub fn quick() -> Self {
        E16Scale {
            reps: 3,
            pipeline_n: 2_000,
            pipeline_stages: 4,
            generator_n: 10_000,
            sampler_n: 2_000,
            sampler_depth: 64,
        }
    }

    /// The full-size sweep for reported numbers.
    pub fn paper() -> Self {
        E16Scale {
            reps: 5,
            pipeline_n: 10_000,
            pipeline_stages: 8,
            generator_n: 100_000,
            sampler_n: 10_000,
            sampler_depth: 256,
        }
    }
}

fn e16_case(workload: &'static str, encoding: &'static str, call: &str, reps: u32) -> E16Row {
    let api = match encoding {
        "native" => workloads::E16_GEN_NATIVE,
        _ => workloads::E16_GEN_1CC,
    };
    let mut best: Option<(String, Measurement)> = None;
    let mut live_after = 0;
    let mut live_segments_after = 0;
    let mut leaked = false;
    for _ in 0..reps.max(1) {
        // A fresh VM per rep: the one-shot encoding's generators are
        // single-use state machines, and a cold stack/heap keeps the
        // counter deltas identical across reps.
        let mut vm = Vm::new();
        vm.eval_str(api).unwrap_or_else(|e| panic!("e16 {encoding} api: {e}"));
        vm.eval_str(workloads::E16_DRIVERS).unwrap_or_else(|e| panic!("e16 drivers: {e}"));
        vm.collect_now();
        let heap_baseline = vm.heap().len();
        let resting_segments = vm.stack_live_segment_count();
        let before = vm.stats();
        let start = Instant::now();
        let v =
            vm.eval_str(call).unwrap_or_else(|e| panic!("e16 {workload}/{encoding} {call}: {e}"));
        let wall = start.elapsed();
        let m = Measurement { wall, delta: vm.stats().delta_since(&before) };
        let answer = vm.write_value(&v);
        // Drop the result from the accumulator, then check that every
        // suspended control structure the run created was reclaimed.
        vm.eval_str("0").unwrap();
        vm.collect_now();
        live_after = vm.heap().len();
        live_segments_after = vm.stack_live_segment_count();
        leaked |= live_after != heap_baseline || live_segments_after > resting_segments;
        match &mut best {
            Some((prev, pm)) => {
                assert_eq!(*prev, answer, "e16 {workload}/{encoding}: nondeterministic answer");
                if m.wall < pm.wall {
                    pm.wall = m.wall;
                }
            }
            None => best = Some((answer, m)),
        }
    }
    let (answer, m) = best.expect("at least one rep");
    E16Row { workload, encoding, answer, m, live_after, live_segments_after, leaked }
}

/// E16: the same coroutine workloads under native delimited control and
/// under the `call/1cc` full-continuation encoding, on the direct
/// pipeline. Rows come in (`native`, `call/1cc`) pairs per workload; the
/// caller checks the same-answer differential across each pair.
///
/// # Panics
///
/// Panics if a workload fails or answers drift between reps.
pub fn e16_experiment(scale: E16Scale) -> Vec<E16Row> {
    let calls = [
        ("pipeline", format!("(e16-pipeline {} {})", scale.pipeline_n, scale.pipeline_stages)),
        ("generator", format!("(e16-generator {})", scale.generator_n)),
        ("sampler", format!("(e16-sampler {} {})", scale.sampler_n, scale.sampler_depth)),
    ];
    let mut out = Vec::new();
    for &(workload, ref call) in &calls {
        for encoding in ["native", "call/1cc"] {
            out.push(e16_case(workload, encoding, call, scale.reps));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_point_runs_each_strategy() {
        for s in Strategy::ALL {
            let p = figure5_point(s, 3, 8, 8);
            assert!(p.ms > 0.0, "{s:?}");
            match s {
                Strategy::Call1Cc => assert_eq!(p.slots_copied, 0),
                Strategy::CallCc => assert!(p.slots_copied > 0),
                Strategy::Cps => {
                    assert_eq!(p.slots_copied, 0);
                    assert!(p.closures > 100);
                }
            }
        }
    }

    #[test]
    fn e16_native_prompts_beat_the_one_shot_encoding() {
        let scale = E16Scale {
            reps: 1,
            pipeline_n: 300,
            pipeline_stages: 3,
            generator_n: 500,
            sampler_n: 300,
            sampler_depth: 32,
        };
        let rows = e16_experiment(scale);
        assert_eq!(rows.len(), 6);
        for pair in rows.chunks(2) {
            let (native, one_shot) = (&pair[0], &pair[1]);
            assert_eq!(native.encoding, "native");
            assert_eq!(one_shot.encoding, "call/1cc");
            assert_eq!(native.workload, one_shot.workload);
            // The same-answer differential.
            assert_eq!(native.answer, one_shot.answer, "{} answers drifted", native.workload);
            // The headline claims on the suspension-dominated workloads:
            // the delimited take steals a slice where the full capture
            // seals the whole stack, and it retires fewer instructions.
            if native.workload != "sampler" {
                assert!(
                    native.captured_bytes() < one_shot.captured_bytes(),
                    "{}: native sealed {} bytes, call/1cc {}",
                    native.workload,
                    native.captured_bytes(),
                    one_shot.captured_bytes()
                );
                assert!(
                    native.m.delta.instructions < one_shot.m.delta.instructions,
                    "{}: native retired {} instructions, call/1cc {}",
                    native.workload,
                    native.m.delta.instructions,
                    one_shot.m.delta.instructions
                );
            }
            // Each encoding uses only its own capture mechanism.
            assert!(native.m.delta.stack.subconts_taken > 0);
            assert_eq!(native.m.delta.stack.slots_encapsulated, 0);
            assert!(one_shot.m.delta.stack.slots_encapsulated > 0);
            assert_eq!(one_shot.m.delta.stack.subconts_taken, 0);
        }
    }

    #[test]
    fn tak_experiment_shows_one_shot_advantage() {
        let rows = tak_experiment(14, 7, 0);
        let cc = &rows[0];
        let one = &rows[1];
        assert_eq!(cc.op, "call/cc");
        assert!(cc.m.delta.stack.slots_copied > 0);
        assert_eq!(one.m.delta.stack.slots_copied, 0);
        assert!(one.m.words_allocated() < cc.m.words_allocated());
    }

    #[test]
    fn overflow_experiment_shows_copying_difference() {
        let rows = overflow_experiment(3, 20_000);
        let one = &rows[0];
        let multi = &rows[1];
        assert!(matches!(one.policy, OverflowPolicy::OneShot));
        assert!(multi.m.delta.stack.slots_copied > 3 * one.m.delta.stack.slots_copied);
    }

    #[test]
    fn frame_overhead_contrasts_pipelines() {
        // Only the small programs for test speed.
        for pipeline in [Pipeline::Direct, Pipeline::Cps] {
            let mut vm = Vm::with_config(VmConfig { pipeline, ..VmConfig::default() });
            vm.eval_str(workloads::FIB).unwrap();
            let before = vm.stats();
            vm.eval_str("(fib 12)").unwrap();
            let d = vm.stats().delta_since(&before);
            match pipeline {
                Pipeline::Direct => assert_eq!(d.heap.closures_allocated, 0),
                // The call counter includes continuation invocations, so
                // the per-call ratio lands well under 1; it must still be
                // far from the direct pipeline's zero.
                Pipeline::Cps => assert!(
                    d.heap.closures_allocated as f64 > 0.2 * d.calls as f64,
                    "{} closures / {} calls",
                    d.heap.closures_allocated,
                    d.calls
                ),
            }
        }
    }

    #[test]
    fn cache_ablation_shows_allocation_difference() {
        let rows = cache_experiment(12, 6, 0);
        let with = &rows[0];
        let without = &rows[1];
        assert!(
            without.m.delta.stack.segments_allocated
                > 100 * with.m.delta.stack.segments_allocated.max(1)
        );
    }

    #[test]
    fn hysteresis_reduces_overflows() {
        let rows = hysteresis_experiment(300);
        let naive = &rows[0];
        let with = &rows[1];
        assert!(
            naive.m.delta.stack.overflows > 2 * with.m.delta.stack.overflows.max(1),
            "naive {} vs hysteresis {}",
            naive.m.delta.stack.overflows,
            with.m.delta.stack.overflows
        );
    }

    #[test]
    fn fragmentation_shows_policy_difference() {
        let rows = fragmentation_experiment(50);
        let fresh = &rows[0];
        let padded = &rows[1];
        assert!(
            fresh.resident_slots > 5 * padded.resident_slots,
            "fresh {} vs padded {}",
            fresh.resident_slots,
            padded.resident_slots
        );
    }

    #[test]
    fn dispatch_fusion_retires_fewer_instructions() {
        let scale = DispatchScale {
            reps: 1,
            tak: (14, 7, 0),
            ctak: (12, 6, 0),
            fib_n: 14,
            deep: (1, 20_000),
            fig5: (3, 8, 8),
        };
        let rows = dispatch_experiment(scale);
        assert_eq!(rows.len(), 10);
        for name in ["tak", "ctak", "fib", "deep", "fig5-loop"] {
            let unfused = rows.iter().find(|r| r.name == name && !r.fused).unwrap();
            let fused = rows.iter().find(|r| r.name == name && r.fused).unwrap();
            assert!(
                fused.instructions < unfused.instructions,
                "{name}: fused {} vs unfused {} instructions",
                fused.instructions,
                unfused.instructions
            );
            assert!(fused.ns_per_instruction() > 0.0);
        }
    }

    #[test]
    fn gc_thresholds_are_semantically_invisible_and_leak_free() {
        let scale = GcScale {
            thresholds: vec![1024, GC_UNBOUNDED],
            boyer_runs: 1,
            ctak: (12, 6, 0),
            deep: (1, 20_000),
            fig5: (3, 8, 8),
        };
        let rows = gc_experiment(&scale);
        assert_eq!(rows.len(), 8);
        for name in ["boyer", "ctak", "deep", "fig5-threads"] {
            let group: Vec<&GcRow> = rows.iter().filter(|r| r.name == name).collect();
            let (tiny, unbounded) = (group[0], group[1]);
            assert_eq!(tiny.gc_threshold, 1024);
            assert_eq!(tiny.result, unbounded.result, "{name}: result varies with gc threshold");
            assert!(!tiny.leaked, "{name} leaked at threshold 1024");
            assert!(!unbounded.leaked, "{name} leaked unbounded");
            assert_eq!(
                tiny.words_allocated, unbounded.words_allocated,
                "{name}: allocation volume must be threshold-independent"
            );
            // deep barely touches the heap and the test-sized thread loop
            // stays under the threshold; only the allocating workloads are
            // guaranteed to collect.
            if matches!(name, "boyer" | "ctak") {
                assert!(
                    tiny.collections > unbounded.collections,
                    "{name}: tiny threshold ran {} collections vs {} unbounded",
                    tiny.collections,
                    unbounded.collections
                );
                assert!(tiny.objects_freed > 0, "{name} freed nothing under a tiny threshold");
            }
        }
    }

    #[test]
    fn exec_experiment_completes_the_mixed_load() {
        // A miniature sweep: every job completes, the mix really runs on
        // the pool (preemptions show up as requeues at a tiny slice), and
        // one-shot engine switching copies no stack slots.
        let scale = ExecScale {
            workers: vec![1, 2],
            fuel_slices: vec![256],
            fib: (2, 12),
            ctak: (2, (10, 5, 0)),
            deep: (2, 5_000),
            io: (2, 5),
        };
        let rows = exec_experiment(&scale);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.completed, scale.jobs() as u64, "workers={}", r.workers);
            assert_eq!(r.failed, 0);
            assert_eq!(r.panicked, 0);
            assert!(r.requeues > 0, "a 256-call slice must preempt the CPU jobs");
            // Engine switches are one-shot and copy nothing; the only
            // copying left is overflow hysteresis on the deep jobs — a few
            // frames per segment overflow, vanishing next to the work done.
            assert!(
                (r.slots_copied as f64) < 0.01 * r.instructions as f64,
                "{} slots copied vs {} instructions",
                r.slots_copied,
                r.instructions
            );
            assert!(r.p50_ms <= r.p99_ms);
            assert!(r.throughput > 0.0);
        }
    }

    #[test]
    fn reactor_cases_suspend_and_audit_clean() {
        // A miniature echo cell: every round trip verifies, the clients
        // really suspended on the reactor (not spun), and the drain left
        // no sockets and no sealed continuation segments behind.
        let echo = reactor_echo_case(2, 16, 2);
        assert_eq!(echo.ops, 32);
        assert_eq!(echo.failed, 0);
        assert!(echo.io_blocked > 0, "echo load must suspend on the reactor");
        assert!(echo.io_wakeups > 0);
        assert_eq!(echo.leaked_sockets, 0);
        assert!(echo.live_segments < 32, "segments leaked: {}", echo.live_segments);
        assert!(echo.p50_us <= echo.p99_us && echo.p99_us <= echo.max_us);

        // A miniature storm: all 48 timers suspended at once (the wait is
        // generous because debug-build submits compile slowly).
        let storm = reactor_timer_case(1, 48, 1_500);
        assert_eq!(storm.ops, 48);
        assert_eq!(storm.failed, 0);
        assert!(storm.timer_waits >= 48);
        assert!(storm.blocked_highwater >= 48, "highwater {}", storm.blocked_highwater);
        assert_eq!(storm.leaked_sockets, 0);
    }

    #[test]
    fn e15_probe_parks_and_releases_cleanly_on_both_backends() {
        use oneshot_exec::Backend;
        for backend in [Backend::Poll, Backend::Epoll] {
            let row = e15_probe_case(backend, 8, 4, 256);
            assert_eq!(row.backend, backend.name());
            assert_eq!(row.actual, 8, "a 256-fd budget fits 8 parked connections");
            assert_eq!(row.ops, 4);
            assert_eq!(row.failed, 0);
            // 8 parked reads suspended, plus the probe pair's own traffic.
            assert!(row.io_blocked >= 8, "{}: io_blocked {}", row.backend, row.io_blocked);
            assert_eq!(row.leaked_sockets, 0);
            assert!(row.live_segments < 16, "segments leaked: {}", row.live_segments);
        }
    }

    #[test]
    fn e15_probe_clamps_to_the_fd_budget() {
        let row = e15_probe_case(oneshot_exec::Backend::Poll, 5_000, 2, 80);
        assert_eq!(row.requested, 5_000);
        assert_eq!(row.actual, 8, "(80 - 64) / 2 parked connections fit");
        assert_eq!(row.failed, 0);
        assert_eq!(row.leaked_sockets, 0);
    }

    #[test]
    fn e15_storm_retires_identical_instructions_on_both_backends() {
        use oneshot_exec::Backend;
        let poll = e15_storm_case(Backend::Poll, 1, 16, 3, 5);
        let epoll = e15_storm_case(Backend::Epoll, 1, 16, 3, 5);
        for row in [&poll, &epoll] {
            assert_eq!(row.ops, 48);
            assert_eq!(row.failed, 0, "{}", row.backend);
            assert!(row.timer_waits >= 48, "{}: {}", row.backend, row.timer_waits);
            assert!(
                row.wake_lateness.iter().sum::<u64>() >= 48,
                "{}: every delivery lands in a lateness bucket: {:?}",
                row.backend,
                row.wake_lateness
            );
            assert_eq!(row.leaked_sockets, 0);
        }
        // The backend is pure readiness plumbing: the guest retires the
        // same bytecode regardless of how its wakeups were multiplexed.
        assert_eq!(
            poll.instructions, epoll.instructions,
            "instruction counts must not depend on the backend"
        );
    }

    #[test]
    fn e15_serve_echoes_guest_clients_through_the_shared_listener() {
        let row = e15_serve_case(oneshot_exec::Backend::Epoll, 2, 8, 2, 256);
        assert_eq!(row.actual, 8);
        assert_eq!(row.ops, 16);
        assert_eq!(row.failed, 0);
        assert_eq!(row.accepts_per_worker.len(), 2);
        assert_eq!(row.accepts_per_worker.iter().sum::<u64>(), 8);
        assert_eq!(row.leaked_sockets, 0);
        assert!(row.p50_us <= row.p99_us && row.p99_us <= row.max_us);
    }

    #[test]
    fn value_rep_reports_sizes_and_rows() {
        let scale = DispatchScale {
            reps: 1,
            tak: (8, 4, 0),
            ctak: (6, 4, 2),
            fib_n: 10,
            deep: (1, 100),
            fig5: (2, 4, 8),
        };
        let r = value_rep_experiment(scale);
        assert_eq!(r.value_word_bytes, 8, "the NaN-boxed word is one machine word");
        assert!(r.slot_bytes <= 24, "slot grew past Ret's packed size: {}", r.slot_bytes);
        assert!(r.segment_copy_ns_per_slot > 0.0);
        let names: Vec<_> = r.rows.iter().map(|row| row.name).collect();
        assert_eq!(names, ["fib", "tak", "ctak", "fig5-loop"]);
        assert!(r.rows.iter().all(|row| row.fused && row.instructions > 0));
    }

    #[test]
    fn promotion_strategies_differ_in_steps() {
        let rows = promotion_experiment(200);
        let eager = &rows[0];
        let shared = &rows[1];
        assert!(eager.promotion_steps >= 200);
        assert_eq!(shared.promotion_steps, 0);
        assert!(shared.promotions >= 1);
    }
}
