//! The only file that names anything in the `oneshot` crates.
//!
//! Every call the benchmark makes into the system goes through here, in
//! builder form (`Vm::builder()`, `Pool::builder()`), so the list of
//! embedder API the ledger depends on is this file's `use` block. Each
//! wrapper also records the span for the layer boundary it crosses, so a
//! traced run needs no second set of call sites.
//!
//! Results cross this boundary as strings in Scheme `write` notation:
//! answers are checked against `expected.txt`, never against values the
//! program under test computed elsewhere.

use std::sync::Arc;
use std::time::{Duration, Instant};

use oneshot::core::{Config, Overflow, SegStack, Underflow};
use oneshot::exec::{Backend, ServeHandle};
use oneshot::prelude::{JobSpec, Pool, PoolCountersSnapshot, Vm};
use oneshot::runtime::{Heap, Value};
use oneshot::sexp;
use oneshot::threads::{EngineHost, EngineId, EngineStep, Strategy, ThreadSystem};
use oneshot::vm::{CompiledProgram, CompilerOptions, Pipeline, VmStats};

use crate::trace::{At, Tracer};

// ----------------------------------------------------------------------
// Counters: one flat, benchmark-owned shape for what `VmStats` (or the
// guest's `(vm-stats)` on a pool worker) reports.
// ----------------------------------------------------------------------

/// Declares [`Counters`] once: each field is a `sum` (a monotonic counter:
/// deltas subtract, several VMs add) or a `max` (a running maximum: carried
/// through a delta, several VMs take the largest).
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident: $kind:ident,)*) => {
        /// Cumulative per-VM counters; subtract two snapshots for a region.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counters {
            #[must_use]
            pub fn delta_since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: counters!(@delta $kind self.$field, earlier.$field),)* }
            }

            /// Several VMs' counters as one.
            #[must_use]
            pub fn plus(&self, other: &Counters) -> Counters {
                Counters { $($field: counters!(@plus $kind self.$field, other.$field),)* }
            }
        }
    };
    (@delta sum $now:expr, $then:expr) => { $now - $then };
    (@delta max $now:expr, $then:expr) => { $now };
    (@plus sum $a:expr, $b:expr) => { $a + $b };
    (@plus max $a:expr, $b:expr) => { $a.max($b) };
}

counters! {
    instructions: sum,
    calls: sum,
    captures_one: sum,
    captures_multi: sum,
    reinstates: sum,
    slots_copied: sum,
    overflows: sum,
    subconts_taken: sum,
    segments_allocated: sum,
    cache_hits: sum,
    objects_allocated: sum,
    words_allocated: sum,
    gc_collections: sum,
    gc_pause_ns: sum,
    gc_max_pause_ns: max,
    /// 0 where the source does not report it (pool workers, whose
    /// `(vm-stats)` has no live-object gauge).
    peak_live_objects: max,
}

impl Counters {
    fn of(s: &VmStats) -> Counters {
        Counters {
            instructions: s.instructions,
            calls: s.calls,
            captures_one: s.stack.captures_one,
            captures_multi: s.stack.captures_multi,
            reinstates: s.stack.reinstates_one + s.stack.reinstates_multi,
            slots_copied: s.stack.slots_copied,
            overflows: s.stack.overflows,
            subconts_taken: s.stack.subconts_taken,
            segments_allocated: s.stack.segments_allocated,
            cache_hits: s.stack.cache_hits,
            objects_allocated: s.heap.objects_allocated,
            words_allocated: s.heap.words_allocated,
            gc_collections: s.gc_collections,
            gc_pause_ns: s.gc_pause_ns,
            gc_max_pause_ns: s.gc_max_pause_ns,
            peak_live_objects: s.heap.peak_live,
        }
    }

    /// Parses the alist `(vm-stats)` writes: `((name . n) ...)`.
    fn of_alist(written: &str) -> Result<Counters, String> {
        let get = |key: &str| -> Result<u64, String> {
            let needle = format!("({key} . ");
            let at = written.find(&needle).ok_or_else(|| format!("vm-stats lacks {key}"))?;
            let rest = &written[at + needle.len()..];
            let end = rest.find(')').ok_or("vm-stats entry unterminated")?;
            rest[..end].parse::<u64>().map_err(|e| format!("vm-stats {key}: {e}"))
        };
        Ok(Counters {
            instructions: get("instructions")?,
            calls: get("calls")?,
            captures_one: get("captures-one")?,
            captures_multi: get("captures-multi")?,
            reinstates: get("reinstates-one")? + get("reinstates-multi")?,
            slots_copied: get("slots-copied")?,
            overflows: get("overflows")?,
            subconts_taken: get("subconts-taken")?,
            segments_allocated: get("segments")?,
            cache_hits: get("segment-cache-hits")?,
            objects_allocated: get("heap-objects")?,
            words_allocated: get("heap-words")?,
            gc_collections: get("gc-collections")?,
            gc_pause_ns: get("gc-pause-ns")?,
            gc_max_pause_ns: get("gc-max-pause-ns")?,
            peak_live_objects: 0,
        })
    }
}

/// Guest expression reporting a VM's live, uncached stack segments after
/// a collection (a dead continuation pins its segment until one runs).
/// Cached segments are recycling, not leakage.
const LIVE_SEGMENTS: &str = "(begin (gc) (cdr (assq 'live-uncached-segments (vm-stats))))";

fn parse_count(written: &str, what: &str) -> Result<i64, String> {
    written.trim().parse::<i64>().map_err(|e| format!("{what}: `{written}`: {e}"))
}

// ----------------------------------------------------------------------
// sexp + compiler
// ----------------------------------------------------------------------

/// A compiled program: plain data, linkable into any VM.
#[derive(Debug)]
pub struct Program(CompiledProgram);

/// `sexp::read_all` alone; returns the number of toplevel forms.
pub fn read(t: &mut Tracer, src: &str, id: u64) -> Result<usize, String> {
    let span = t.enter(At::SexpRead, id);
    let forms = sexp::read_all(src);
    t.exit(span);
    forms.map(|f| f.len()).map_err(|e| e.to_string())
}

/// `Vm::compile_str`: read and compile through the direct pipeline, the
/// same call `Pool::submit` makes on the submitting thread.
pub fn compile(t: &mut Tracer, src: &str, id: u64) -> Result<Program, String> {
    let span = t.enter(At::CompilerCompile, id);
    let prog = Vm::compile_str(src, Pipeline::Direct, CompilerOptions::default());
    t.exit(span);
    prog.map(Program).map_err(|e| e.to_string())
}

// ----------------------------------------------------------------------
// vm
// ----------------------------------------------------------------------

/// One VM.
#[derive(Debug)]
pub struct Machine {
    vm: Vm,
}

/// A linked program's toplevel thunk, valid in the machine that loaded it.
#[derive(Debug, Clone, Copy)]
pub struct Thunk(Value);

fn run_on(vm: &mut Vm, t: &mut Tracer, thunk: Value, id: u64) -> Result<String, String> {
    let span = t.enter(At::VmRun, id);
    let v = vm.call(thunk, &[]);
    t.exit(span);
    v.map(|v| vm.write_value(&v)).map_err(|e| e.to_string())
}

fn load_on(vm: &mut Vm, t: &mut Tracer, prog: &Program, id: u64) -> Value {
    let span = t.enter(At::VmLoad, id);
    let thunk = vm.load_program(&prog.0);
    t.exit(span);
    thunk
}

fn eval_on(vm: &mut Vm, t: &mut Tracer, src: &str, id: u64) -> Result<String, String> {
    let prog = compile(t, src, id)?;
    let thunk = load_on(vm, t, &prog, id);
    run_on(vm, t, thunk, id)
}

fn boot_vm(t: &mut Tracer) -> Vm {
    let span = t.enter(At::VmBoot, 0);
    let vm = Vm::builder().build();
    t.exit(span);
    vm
}

impl Machine {
    pub fn boot(t: &mut Tracer) -> Machine {
        Machine { vm: boot_vm(t) }
    }

    /// Links `prog` and keeps its thunk reachable from a global so it
    /// survives collections and can be run any number of times.
    pub fn load(&mut self, t: &mut Tracer, prog: &Program, keep_as: &str, id: u64) -> Thunk {
        let thunk = load_on(&mut self.vm, t, prog, id);
        self.vm.set_global(keep_as, thunk);
        Thunk(thunk)
    }

    /// Links `prog` and drops the thunk: the cost a pool worker pays per
    /// job and per accepted connection.
    pub fn link_only(&mut self, t: &mut Tracer, prog: &Program, id: u64) {
        let _ = load_on(&mut self.vm, t, prog, id);
    }

    pub fn run(&mut self, t: &mut Tracer, thunk: Thunk, id: u64) -> Result<String, String> {
        run_on(&mut self.vm, t, thunk.0, id)
    }

    /// Compile, link and run in one go (definitions, one-off expressions).
    pub fn eval(&mut self, t: &mut Tracer, src: &str, id: u64) -> Result<String, String> {
        eval_on(&mut self.vm, t, src, id)
    }

    pub fn counters(&self) -> Counters {
        Counters::of(&self.vm.stats())
    }

    pub fn live_segments(&mut self) -> Result<i64, String> {
        let shown = eval_on(&mut self.vm, &mut Tracer::off(), LIVE_SEGMENTS, 0)?;
        parse_count(&shown, "live segments")
    }
}

// ----------------------------------------------------------------------
// threads: Figure 5's three thread systems, and engines
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Switching {
    OneShot,
    MultiShot,
    Cps,
}

/// A VM with one of the paper's thread schedulers loaded.
#[derive(Debug)]
pub struct Threads {
    system: ThreadSystem,
}

impl Threads {
    pub fn boot(t: &mut Tracer, kind: Switching) -> Threads {
        let strategy = match kind {
            Switching::OneShot => Strategy::Call1Cc,
            Switching::MultiShot => Strategy::CallCc,
            Switching::Cps => Strategy::Cps,
        };
        Threads { system: ThreadSystem::with_vm(strategy, boot_vm(t)) }
    }

    pub fn eval(&mut self, src: &str) -> Result<String, String> {
        self.system.eval_to_string(src).map_err(|e| e.to_string())
    }

    pub fn spawn(&mut self, thunk_src: &str) -> Result<(), String> {
        self.system.spawn(thunk_src).map_err(|e| e.to_string())
    }

    /// Runs every spawned thread to completion, switching every
    /// `switch_every` procedure calls.
    pub fn run(&mut self, t: &mut Tracer, switch_every: u64, id: u64) -> Result<(), String> {
        let span = t.enter(At::ThreadsRun, id);
        let r = self.system.run(switch_every);
        t.exit(span);
        r.map(|_| ()).map_err(|e| e.to_string())
    }

    pub fn counters(&self) -> Counters {
        Counters::of(&self.system.stats())
    }

    pub fn live_segments(&mut self) -> Result<i64, String> {
        parse_count(&self.eval(LIVE_SEGMENTS)?, "live segments")
    }
}

/// A VM hosting engines stepped one fuel slice at a time from Rust — the
/// pool worker's scheduling substrate, without the pool.
#[derive(Debug)]
pub struct Engines {
    host: EngineHost,
}

#[derive(Debug, Clone, Copy)]
pub struct Engine(EngineId);

#[derive(Debug)]
pub enum Step {
    Done(String),
    Parked,
}

impl Engines {
    pub fn boot(t: &mut Tracer) -> Engines {
        Engines { host: EngineHost::with_vm(boot_vm(t)) }
    }

    pub fn eval(&mut self, t: &mut Tracer, src: &str, id: u64) -> Result<String, String> {
        eval_on(self.host.vm_mut(), t, src, id)
    }

    pub fn spawn(&mut self, prog: &Program) -> Result<Engine, String> {
        self.host.spawn_program(&prog.0).map(Engine).map_err(|e| e.to_string())
    }

    pub fn step(&mut self, t: &mut Tracer, e: Engine, fuel: u64, id: u64) -> Result<Step, String> {
        let span = t.enter(At::ThreadsStep, id);
        let r = self.host.step(e.0, fuel);
        t.exit(span);
        match r {
            Ok(EngineStep::Done(v)) => Ok(Step::Done(self.host.vm().write_value(&v))),
            Ok(EngineStep::Parked) => Ok(Step::Parked),
            Ok(EngineStep::Blocked(w)) => Err(format!("engine blocked on {w:?}")),
            Err(e) => Err(e.to_string()),
        }
    }

    pub fn drop_engine(&mut self, e: Engine) {
        self.host.drop_engine(e.0);
    }

    pub fn counters(&self) -> Counters {
        Counters::of(&self.host.vm().stats())
    }

    pub fn live_segments(&mut self) -> Result<i64, String> {
        parse_count(&self.eval(&mut Tracer::off(), LIVE_SEGMENTS, 0)?, "live segments")
    }
}

// ----------------------------------------------------------------------
// core: the segmented stack driven directly, slots are i64
// ----------------------------------------------------------------------

/// Frame size used by the probes; a positive slot is a return address
/// whose value is its frame's displacement, 0 is the underflow marker.
const FRAME: usize = 4;
const FRAME_RET: i64 = FRAME as i64;
/// Slots an entry check asks for, like a VM's function prologue.
const ENTRY_NEED: usize = 2 * FRAME;
/// A non-positive slot the walker ignores, used as the prompt tag.
const PROMPT_TAG: i64 = -7;
/// Shot continuations are only freed by a sweep; doing one this often
/// keeps the continuation table small without dominating the loop.
const SWEEP_EVERY: u64 = 1024;

fn walker(slot: &i64) -> Option<usize> {
    usize::try_from(*slot).ok().filter(|d| *d > 0)
}

/// `SegStack<i64>` under the default `Config`, with the occupied depth the
/// probes capture.
#[derive(Debug)]
pub struct Stack {
    st: SegStack<i64>,
}

/// What the stack's own counters say happened during a probe.
#[derive(Debug, Clone, Copy)]
pub struct StackProbe {
    pub ns_per_op: f64,
    pub slots_copied: u64,
}

impl Stack {
    /// A stack holding `occupied_slots` of frames (rounded to whole
    /// frames): the chain every probe captures or delimits.
    pub fn with_depth(occupied_slots: usize) -> Stack {
        let mut s = Stack { st: SegStack::new(Config::default(), 0) };
        for _ in 0..occupied_slots / FRAME {
            s.call();
        }
        s
    }

    fn call(&mut self) {
        self.st.ensure(ENTRY_NEED, 1, &walker);
        self.st.push_frame(FRAME, FRAME_RET);
    }

    fn resume(&mut self, ret: i64) {
        self.st.pop_frame(walker(&ret).expect("resumed through a return address"));
    }

    /// Returns through frames until the record's base, then through the
    /// base (an underflow) if the chain continues. False at the bottom.
    fn return_through_base(&mut self) -> bool {
        loop {
            let ret = *self.st.get(self.st.fp());
            match walker(&ret) {
                Some(disp) => self.st.pop_frame(disp),
                None => break,
            }
        }
        match self.st.underflow(&walker).expect("links are live") {
            Underflow::Resumed(r) => {
                self.resume(r.ret);
                true
            }
            Underflow::Exhausted => false,
        }
    }

    fn sweep(&mut self) {
        self.st.begin_gc();
        self.st.sweep(false);
    }

    fn timed(&mut self, iters: u64, mut op: impl FnMut(&mut Stack)) -> StackProbe {
        let copied = self.st.stats().slots_copied;
        let mut busy = Duration::ZERO;
        let mut done = 0;
        while done < iters {
            let batch = SWEEP_EVERY.min(iters - done);
            let t0 = Instant::now();
            for _ in 0..batch {
                op(self);
            }
            busy += t0.elapsed();
            done += batch;
            self.sweep();
        }
        StackProbe {
            ns_per_op: busy.as_nanos() as f64 / iters as f64,
            slots_copied: self.st.stats().slots_copied - copied,
        }
    }

    /// One call, a one-shot capture of the whole chain, its reinstatement,
    /// and the return: `call/1cc` immediately invoked.
    pub fn probe_capture_one(&mut self, iters: u64) -> StackProbe {
        self.timed(iters, |s| {
            s.call();
            let k = s.st.capture_one(ENTRY_NEED).expect("non-empty stack");
            let r = s.st.reinstate(k, &walker).expect("first shot");
            s.resume(r.ret);
        })
    }

    /// The same with a multi-shot capture: the reinstatement copies.
    pub fn probe_capture_multi(&mut self, iters: u64) -> StackProbe {
        self.timed(iters, |s| {
            s.call();
            let k = s.st.capture_multi().expect("non-empty stack");
            let r = s.st.reinstate(k, &walker).expect("multi-shot");
            s.resume(r.ret);
        })
    }

    /// Calls up to the end of the segment, one more call that overflows
    /// (an implicit one-shot capture plus the hysteresis copy), then the
    /// returns through the copied frames and the underflow back.
    pub fn probe_overflow(&mut self, iters: u64) -> StackProbe {
        self.timed(iters, |s| {
            while s.st.fp() + ENTRY_NEED + FRAME <= s.st.end() {
                s.st.push_frame(FRAME, FRAME_RET);
            }
            let grew = s.st.ensure(ENTRY_NEED + FRAME, 1, &walker);
            assert_eq!(grew, Overflow::Handled, "the probe sits at the segment's end");
            assert!(s.return_through_base(), "an overflowed record has a link");
        })
    }

    /// A prompt, two calls of delimited context, `take_subcont`, then
    /// `push_subcont` and the returns back out: one generator cycle.
    pub fn probe_subcont(&mut self, iters: u64) -> StackProbe {
        self.timed(iters, |s| {
            s.call();
            let p = s.st.push_prompt(PROMPT_TAG, ENTRY_NEED);
            s.call();
            s.call();
            let (head, r) = s.st.take_subcont(p, &walker).expect("prompt on chain");
            s.resume(r.ret);
            s.call();
            let r = s.st.push_subcont(head.expect("non-empty context"), &walker).expect("unshot");
            s.resume(r.ret);
            // Out of the spliced context and through its base into the
            // record `push_subcont` sealed beneath it.
            assert!(s.return_through_base());
        })
    }

    /// A prompt, two calls of context, and an abort straight to it.
    pub fn probe_abort(&mut self, iters: u64) -> StackProbe {
        self.timed(iters, |s| {
            s.call();
            let p = s.st.push_prompt(PROMPT_TAG, ENTRY_NEED);
            s.call();
            s.call();
            let r = s.st.abort_to_prompt(p, &walker).expect("prompt on chain");
            s.resume(r.ret);
        })
    }
}

// ----------------------------------------------------------------------
// runtime
// ----------------------------------------------------------------------

/// ns per `Heap::alloc_pair`, allocating in batches with a collection
/// between them so the steady state (slots recycled from the free pool)
/// is what is timed. The collections are not.
pub fn probe_alloc_pair(batches: u32, batch: u32) -> f64 {
    let mut heap = Heap::new();
    let mut busy = Duration::ZERO;
    for _ in 0..batches {
        let t0 = Instant::now();
        let mut last = Value::NIL;
        for i in 0..batch {
            last = Value::obj(heap.alloc_pair(Value::fixnum(i64::from(i)), last));
        }
        busy += t0.elapsed();
        std::hint::black_box(last);
        heap.begin_gc();
        heap.sweep();
    }
    busy.as_nanos() as f64 / (f64::from(batches) * f64::from(batch))
}

// ----------------------------------------------------------------------
// exec: the worker pool and its front door
// ----------------------------------------------------------------------

/// Pool-wide counters the ledger reports, over a region.
#[derive(Debug, Clone, Default)]
pub struct PoolCounters {
    pub failed: u64,
    pub retried: u64,
    pub steals: u64,
    pub requeues: u64,
    pub slices: u64,
    pub queue_depth_highwater: u64,
    pub io_blocked: u64,
    pub io_wakeups: u64,
    pub timer_waits: u64,
    pub blocked_highwater: u64,
    pub accept_queue_highwater: u64,
    pub accept_overflow: u64,
    pub accepts_shed: u64,
    /// Largest wake batch any worker's reactor delivered.
    pub resume_depth_highwater: u64,
    /// Timer wakes delivered, and those delivered a millisecond or more
    /// late.
    pub timer_wakes: u64,
    pub timer_wakes_late: u64,
}

impl PoolCounters {
    fn of(s: &PoolCountersSnapshot) -> PoolCounters {
        PoolCounters {
            failed: s.failed + s.timed_out + s.panicked,
            retried: s.retried,
            steals: s.steals,
            requeues: s.requeues,
            slices: s.slices,
            queue_depth_highwater: s.queue_depth_highwater,
            io_blocked: s.io_blocked,
            io_wakeups: s.io_wakeups,
            timer_waits: s.timer_waits,
            blocked_highwater: s.blocked_highwater,
            accept_queue_highwater: s.accept_queue_highwater,
            accept_overflow: s.accept_overflow,
            accepts_shed: s.accepts_shed,
            resume_depth_highwater: s.resume_depth_highwater.iter().copied().max().unwrap_or(0),
            timer_wakes: s.wake_lateness.iter().sum(),
            // Bucket 0 is "under 1 ms" (`WAKE_LATENESS_BUCKETS_MS[0]`).
            timer_wakes_late: s.wake_lateness.iter().skip(1).sum(),
        }
    }
}

/// The pool's cumulative counters at one instant.
#[derive(Debug, Clone)]
pub struct PoolSnapshot(PoolCountersSnapshot);

impl PoolSnapshot {
    /// What happened since `earlier` (high-water marks carry this
    /// snapshot's value).
    pub fn since(&self, earlier: &PoolSnapshot) -> PoolCounters {
        PoolCounters::of(&self.0.delta_since(&earlier.0))
    }

    /// Most jobs ever parked on I/O or a timer at once.
    pub fn blocked_highwater(&self) -> u64 {
        self.0.blocked_highwater
    }
}

/// The process model every pool workload uses: one worker, the epoll
/// backend pinned so `ONESHOT_REACTOR` cannot change the workload.
pub const POOL_WORKERS: usize = 1;
pub const POOL_BACKEND: &str = "epoll";

#[derive(Debug)]
pub struct JobPool {
    pool: Pool,
}

/// A shared listener started by [`JobPool::serve`].
#[derive(Debug)]
pub struct Listener {
    handle: ServeHandle,
}

impl Listener {
    pub fn port(&self) -> u16 {
        self.handle.port()
    }

    pub fn accepted(&self) -> u64 {
        self.handle.accepted()
    }
}

/// What the post-drain audit found on the worker.
#[derive(Debug, Clone, Copy)]
pub struct Audit {
    pub open_sockets: i64,
    pub live_segments: i64,
}

impl JobPool {
    pub fn start(fuel_slice: u64, resident_cap: usize) -> Result<JobPool, String> {
        let pool = Pool::builder()
            .workers(POOL_WORKERS)
            .fuel_slice(fuel_slice)
            .resident_cap(resident_cap)
            .reactor_backend(Backend::Epoll)
            .build()
            .map_err(|e| format!("pool build: {e}"))?;
        assert_eq!(pool.reactor_backend().name(), POOL_BACKEND);
        Ok(JobPool { pool })
    }

    /// Compiles and enqueues `src`; `done` runs on the worker with the
    /// job's written result (or its error) when it finishes.
    pub fn submit(
        &self,
        t: &mut Tracer,
        id: u64,
        src: &str,
        done: impl Fn(Result<&str, String>) + Send + Sync + 'static,
    ) -> Result<(), String> {
        let spec = JobSpec::new("job", src).on_complete(move |o| match &o.result {
            Ok(shown) => done(Ok(shown)),
            Err(e) => done(Err(e.to_string())),
        });
        let span = t.enter(At::ExecSubmit, id);
        let r = self.pool.submit(spec);
        t.exit(span);
        r.map(|_| ()).map_err(|e| e.to_string())
    }

    /// Runs `src` on the worker's VM ahead of the queue and waits for it:
    /// library preloads, `(vm-stats)`, the leak audit.
    pub fn run_pinned(&self, src: &str) -> Result<String, String> {
        let handle =
            self.pool.submit(JobSpec::new("pinned", src).pin(0)).map_err(|e| e.to_string())?;
        handle.wait().result.map_err(|e| e.to_string())
    }

    /// Starts the shared listener on a free port of every local address
    /// (so clients can spread over 127.0.0.0/8, see the serve workloads);
    /// each accepted connection runs `handler_src`, and `done` hears how it
    /// ended.
    pub fn serve(
        &self,
        handler_src: &str,
        done: impl Fn(Result<&str, String>) + Send + Sync + 'static,
    ) -> Result<Listener, String> {
        let done = Arc::new(done);
        let spec = JobSpec::new("handler", handler_src).on_complete(move |o| match &o.result {
            Ok(shown) => done(Ok(shown)),
            Err(e) => done(Err(e.to_string())),
        });
        self.pool
            .serve("0.0.0.0:0", spec)
            .map(|handle| Listener { handle })
            .map_err(|e| e.to_string())
    }

    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot(self.pool.stats())
    }

    /// The worker VM's cumulative counters, read by a pinned job.
    pub fn vm_counters(&self) -> Result<Counters, String> {
        Counters::of_alist(&self.run_pinned("(vm-stats)")?)
    }

    pub fn audit(&self) -> Result<Audit, String> {
        let shown = self.run_pinned(&format!("(cons (%net-live) {LIVE_SEGMENTS})"))?;
        let (socks, segs) = shown
            .trim_matches(['(', ')'])
            .split_once(" . ")
            .ok_or_else(|| format!("audit wrote `{shown}`"))?;
        Ok(Audit {
            open_sockets: parse_count(socks, "open sockets")?,
            live_segments: parse_count(segs, "live segments")?,
        })
    }

    /// Drains and joins the pool; an `Err` means a worker did not check
    /// in before the deadline. Returns the seconds it took.
    pub fn shutdown(self, t: &mut Tracer) -> Result<f64, String> {
        let span = t.enter(At::ExecShutdown, 0);
        let t0 = Instant::now();
        let r = self.pool.shutdown_timeout(Duration::from_secs(30));
        let took = t0.elapsed().as_secs_f64();
        t.exit(span);
        r.map(|_| took).map_err(|e| e.to_string())
    }
}
