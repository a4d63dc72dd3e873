//! Continuation-based thread systems for the oneshot VM.
//!
//! Implements the three thread systems benchmarked in §4 / Figure 5 of the
//! paper, each as a Scheme library driven through a Rust API:
//!
//! * [`Strategy::CallCc`] — context switches capture multi-shot
//!   continuations (stack copying on every resumption);
//! * [`Strategy::Call1Cc`] — context switches capture one-shot
//!   continuations (O(1) suspension and resumption, fed by the segment
//!   cache) — the paper's contribution applied to threads;
//! * [`Strategy::Cps`] — threads written in continuation-passing style:
//!   control lives in heap closures (the heap-based baseline).
//!
//! Preemption uses the VM's engine timer for the two capture-based systems
//! and a source-level fuel counter for the CPS system; in both cases the
//! knob is "procedure calls per context switch", Figure 5's x-axis.
//!
//! Also provides Dybvig–Hieb engines (`make-engine`) and the executor's
//! [`EngineHost`]. Those suspend with the VM's prompt primitives, the same
//! mechanism as the prelude's generators and coroutines: a slice runs
//! under `%push-prompt`, timer expiry and I/O waits end it with one
//! `%take-subcont`, and `%push-subcont` resumes it. A subcontinuation is
//! one-shot, so a park copies no stack — Figure 5's result, delimited.
//! The host calls `engines.scm`'s `%engine-slice` itself, once per step,
//! and keeps each engine — its start thunk, then its parked
//! subcontinuation — in one slot of the VM's root vector.
//!
//! # Example
//!
//! ```
//! use oneshot_threads::{Strategy, ThreadSystem};
//!
//! let mut ts = ThreadSystem::new(Strategy::Call1Cc);
//! ts.eval("(define out '())").unwrap();
//! ts.spawn("(lambda () (set! out (cons 'a out)) (thread-yield!) (set! out (cons 'c out)))")
//!     .unwrap();
//! ts.spawn("(lambda () (set! out (cons 'b out)))").unwrap();
//! ts.run(0).unwrap();
//! assert_eq!(ts.eval_to_string("(reverse out)").unwrap(), "(a b c)");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use oneshot_core::{Key, Slab};
use oneshot_runtime::Value;
use std::sync::Arc;

use oneshot_vm::{CompiledProgram, ConditionKind, GlobalSlot, LinkedProgram, Vm, VmError, VmStats};

/// The capture-based scheduler, shared by `call/cc` and `call/1cc`: it
/// switches threads with `%thread-capture`, which the host defines first.
const CAPTURE_SCHED: &str = include_str!("../scheme/threads.scm");
const CPS_SCHED: &str = include_str!("../scheme/threads-cps.scm");
/// Dybvig–Hieb engines source, loaded by [`EngineHost`], whose steps call
/// its `%engine-slice` (and by any capture-based VM through
/// [`Vm::load_library`]: engines use the prompt primitives and the VM
/// timer).
pub const ENGINES: &str = include_str!("../scheme/engines.scm");
/// Guest-facing nonblocking I/O (`tcp-*`, `timer-wait`): would-block
/// retry loops that suspend the running slice via `%engine-block` (a
/// subcontinuation take). Loaded by [`EngineHost`] on top of
/// [`ENGINES`].
pub const IO: &str = include_str!("../scheme/io.scm");

/// Which control representation the thread system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Multi-shot continuations (`call/cc`): stack copying per switch.
    CallCc,
    /// One-shot continuations (`call/1cc`): O(1) switches.
    Call1Cc,
    /// Continuation-passing style: heap closures, no stack capture.
    Cps,
}

impl Strategy {
    /// All three systems, in the paper's presentation order.
    pub const ALL: [Strategy; 3] = [Strategy::Cps, Strategy::CallCc, Strategy::Call1Cc];

    /// A short label (used by the experiment harness).
    pub fn label(self) -> &'static str {
        match self {
            Strategy::CallCc => "call/cc",
            Strategy::Call1Cc => "call/1cc",
            Strategy::Cps => "cps",
        }
    }
}

/// A VM plus a loaded scheduler.
#[derive(Debug)]
pub struct ThreadSystem {
    vm: Vm,
    strategy: Strategy,
}

impl ThreadSystem {
    /// Creates a fresh VM with the chosen scheduler loaded.
    ///
    /// # Panics
    ///
    /// Panics if the embedded scheduler source fails to load (a build
    /// defect, covered by tests).
    pub fn new(strategy: Strategy) -> Self {
        Self::with_vm(strategy, Vm::new())
    }

    /// Loads the chosen scheduler into an already-built VM — the builder
    /// path: `ThreadSystem::with_vm(strategy, Vm::builder()...build())`.
    ///
    /// # Panics
    ///
    /// Panics if the embedded scheduler source fails to load.
    pub fn with_vm(strategy: Strategy, mut vm: Vm) -> Self {
        let sched = match strategy {
            Strategy::Cps => CPS_SCHED,
            // The label is the capture operator's name.
            _ => {
                let capture = format!("(define %thread-capture {})", strategy.label());
                vm.eval_str(&capture).expect("capture operator must bind");
                CAPTURE_SCHED
            }
        };
        vm.load_library(sched).expect("scheduler must load");
        ThreadSystem { vm, strategy }
    }

    /// The strategy this system uses.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The underlying VM.
    pub fn vm_mut(&mut self) -> &mut Vm {
        &mut self.vm
    }

    /// Evaluates arbitrary Scheme in the system's VM.
    ///
    /// # Errors
    ///
    /// Propagates read/compile/runtime errors.
    pub fn eval(&mut self, src: &str) -> Result<Value, VmError> {
        self.vm.eval_str(src)
    }

    /// Evaluates and formats with `write` conventions.
    ///
    /// # Errors
    ///
    /// Propagates read/compile/runtime errors.
    pub fn eval_to_string(&mut self, src: &str) -> Result<String, VmError> {
        let v = self.vm.eval_str(src)?;
        Ok(self.vm.write_value(&v))
    }

    /// Spawns a thread. For the capture-based systems `thunk_src` must
    /// evaluate to a zero-argument procedure; for the CPS system, to a
    /// one-argument CPS procedure (receiving its continuation).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from `thunk_src`.
    pub fn spawn(&mut self, thunk_src: &str) -> Result<(), VmError> {
        let call = match self.strategy {
            Strategy::Cps => format!("(cps-spawn! {thunk_src})"),
            _ => format!("(thread-spawn! {thunk_src})"),
        };
        self.vm.eval_str(&call)?;
        Ok(())
    }

    /// Runs all spawned threads to completion. `switch_every` is the
    /// context-switch frequency in procedure calls (0 = cooperative only).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from thread bodies.
    pub fn run(&mut self, switch_every: u64) -> Result<Value, VmError> {
        let call = match self.strategy {
            Strategy::Cps => format!("(cps-threads-run! {switch_every})"),
            _ => format!("(threads-run! {switch_every})"),
        };
        self.vm.eval_str(&call)
    }

    /// Statistics snapshot from the underlying VM.
    pub fn stats(&self) -> VmStats {
        self.vm.stats()
    }
}

/// Identifier of an engine registered with an [`EngineHost`]: its key in
/// the host's engine slab, whose index is the engine's slot in the VM's
/// root vector. A finished or dropped engine's slot is reused; the key's
/// generation refuses the stale id of its previous occupant.
pub type EngineId = Key;

/// Outcome of one [`EngineHost::step`] fuel slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineStep {
    /// The computation finished with this value.
    Done(Value),
    /// Fuel ran out; the engine was parked and can be stepped again.
    Parked,
    /// The engine suspended itself on an I/O or timer wait
    /// (`%engine-block`). Do not step it again until the wait is
    /// satisfied; stepping early just re-runs the would-block retry
    /// loop, which suspends again.
    Blocked(Wait),
}

/// What a [`EngineStep::Blocked`] engine is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Readable data (or an acceptable connection) on the guest socket
    /// with this token — resolve to an fd via `Vm::net_fd`.
    Readable(i64),
    /// Writable buffer space on the guest socket with this token.
    Writable(i64),
    /// At least this many milliseconds of wall-clock delay.
    TimerMs(i64),
}

/// A VM hosting a registry of Dybvig–Hieb engines, stepped one fuel slice
/// at a time from Rust.
///
/// This is the scheduling substrate of the `oneshot-exec` worker pool:
/// each pooled job becomes one engine (a green thread whose slices run
/// under a prompt and end, at timer expiry or an I/O wait, with one
/// subcontinuation take), and the worker loop decides which engine to step
/// next. The host owns the VM's [root vector](Vm::roots_mut): each
/// engine's slot there holds its start thunk until its first slice and
/// its parked one-shot subcontinuation after each later one, so parked
/// engines survive GC — and survive *other* jobs erroring out: a slice
/// keeps no state outside its own stack, so an error that unwinds it
/// leaves nothing to reset.
///
/// # Example
///
/// ```
/// use oneshot_threads::{EngineHost, EngineStep};
/// use oneshot_vm::{CompilerOptions, Pipeline, Vm};
///
/// let mut host = EngineHost::new();
/// let prog = Vm::compile_str(
///     "(let loop ((i 0)) (if (< i 10000) (loop (+ i 1)) 'done))",
///     Pipeline::Direct,
///     CompilerOptions::default(),
/// )
/// .unwrap();
/// let id = host.spawn_program(&prog).unwrap();
/// let mut slices = 0;
/// loop {
///     match host.step(id, 256).unwrap() {
///         EngineStep::Parked => slices += 1,
///         EngineStep::Done(v) => {
///             assert_eq!(host.vm().display_value(&v), "done");
///             break;
///         }
///         EngineStep::Blocked(w) => panic!("a pure loop never blocks: {w:?}"),
///     }
/// }
/// assert!(slices > 0, "a 10k-iteration loop must not finish in 256 calls");
/// assert_eq!(host.live(), 0);
/// ```
#[derive(Debug)]
pub struct EngineHost {
    vm: Vm,
    /// The live engines. An engine's key index is its slot in the VM's
    /// root vector; freed slots are reused, so spawn, step and drop are
    /// O(1) however many engines are resident.
    engines: Slab<()>,
    /// `engines.scm`'s entry points and the symbols a step reads or
    /// passes, resolved once at load.
    guest: Guest,
    /// Programs linked once by [`EngineHost::spawn_shared`]. The `Arc` is
    /// held so its address — the key — cannot be reused by another
    /// program while the entry lives.
    shared: Vec<(Arc<CompiledProgram>, LinkedProgram)>,
}

/// Global cells of `%engine-job` and `%engine-slice`, and the symbols a
/// slice's result is read with.
#[derive(Debug)]
struct Guest {
    job: GlobalSlot,
    slice: GlobalSlot,
    done: Value,
    read: Value,
    write: Value,
    timer: Value,
}

impl EngineHost {
    /// A host on a fresh default VM.
    ///
    /// # Panics
    ///
    /// Panics if the embedded engines/io sources fail to load (a build
    /// defect, covered by tests).
    pub fn new() -> Self {
        Self::with_vm(Vm::new())
    }

    /// Loads the engines and I/O libraries into `vm`.
    ///
    /// # Panics
    ///
    /// Panics if the embedded engines/io sources fail to load.
    pub fn with_vm(mut vm: Vm) -> Self {
        vm.load_library(ENGINES).expect("engines library must load");
        vm.load_library(IO).expect("io library must load");
        let guest = Guest {
            job: vm.global_slot("%engine-job"),
            slice: vm.global_slot("%engine-slice"),
            done: vm.intern("done"),
            read: vm.intern("read"),
            write: vm.intern("write"),
            timer: vm.intern("timer"),
        };
        EngineHost { vm, engines: Slab::new(), guest, shared: Vec::new() }
    }

    /// The underlying VM.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// The underlying VM, mutably.
    pub fn vm_mut(&mut self) -> &mut Vm {
        &mut self.vm
    }

    /// Number of engines spawned but not yet finished or dropped.
    pub fn live(&self) -> usize {
        self.engines.len()
    }

    /// Links `prog` into the host VM and registers its toplevel thunk as a
    /// new engine. Nothing runs until the first [`EngineHost::step`].
    ///
    /// # Errors
    ///
    /// Propagates VM errors from engine registration.
    pub fn spawn_program(&mut self, prog: &CompiledProgram) -> Result<EngineId, VmError> {
        let linked = self.vm.link_program(prog);
        self.spawn_linked(linked)
    }

    /// As [`EngineHost::spawn_program`] for a program spawned many times
    /// (one engine per accepted connection): `prog` is linked into the
    /// host VM on first sight and every later spawn allocates only the
    /// toplevel closure, so the VM's code does not grow per engine.
    /// Programs are told apart by `Arc` identity; engines of one program
    /// share its quoted constants.
    ///
    /// # Errors
    ///
    /// Propagates VM errors from engine registration.
    pub fn spawn_shared(&mut self, prog: &Arc<CompiledProgram>) -> Result<EngineId, VmError> {
        let linked = match self.shared.iter().find(|(p, _)| Arc::ptr_eq(p, prog)) {
            Some(&(_, linked)) => linked,
            None => {
                let linked = self.vm.link_program(prog);
                self.shared.push((Arc::clone(prog), linked));
                linked
            }
        };
        self.spawn_linked(linked)
    }

    fn spawn_linked(&mut self, linked: LinkedProgram) -> Result<EngineId, VmError> {
        let id = self.engines.insert(());
        let slot = id.index() as usize;
        if slot == self.vm.roots_mut().len() {
            self.vm.roots_mut().push(Value::FALSE);
        }
        // The thunk is rooted before anything else allocates.
        let thunk = self.vm.instantiate(linked);
        self.vm.roots_mut()[slot] = thunk;
        let wrap = self.vm.global_at(self.guest.job).expect("engines.scm defines %engine-job");
        let job = self.vm.call(wrap, &[thunk]);
        if job.is_err() {
            self.release(id);
        }
        self.vm.roots_mut()[slot] = job?;
        Ok(id)
    }

    /// Frees `id`'s slot, letting go of the job its root held.
    fn release(&mut self, id: EngineId) {
        self.vm.roots_mut()[id.index() as usize] = Value::FALSE;
        self.engines.remove(id);
    }

    /// Runs engine `id` for one slice of `fuel` procedure calls.
    ///
    /// Returns [`EngineStep::Done`] when the job finishes within the slice
    /// and [`EngineStep::Parked`] when it is preempted (step again to
    /// resume). The `Done` value is unrooted — format or store it before
    /// running anything else on this VM.
    ///
    /// # Errors
    ///
    /// A Scheme error raised by the job (including a one-shot continuation
    /// shot twice) is returned as `Err`; the engine is dropped (see
    /// [`EngineHost::drop_engine`]) and the VM stays usable — other parked
    /// engines are unaffected.
    pub fn step(&mut self, id: EngineId, fuel: u64) -> Result<EngineStep, VmError> {
        self.step_with_status(id, fuel, None)
    }

    /// Like [`EngineHost::step`], but when `status` is `Some`, a blocked
    /// engine resumes with that symbol instead of `0`: the suspended
    /// `%engine-block` call returns it, and the prelude's I/O wrappers
    /// raise the matching condition (e.g. `"io-timeout"` when the wait's
    /// I/O deadline expired before readiness). Ignored by engines that are
    /// not resuming from a block.
    ///
    /// # Errors
    ///
    /// As for [`EngineHost::step`].
    pub fn step_with_status(
        &mut self,
        id: EngineId,
        fuel: u64,
        status: Option<&str>,
    ) -> Result<EngineStep, VmError> {
        if !self.engines.contains(id) {
            let (gen, slot) = (id.generation(), id.index());
            return Err(VmError::Internal(format!("step: unknown engine {gen}@{slot}")));
        }
        let slot = id.index() as usize;
        let fuel = i64::try_from(fuel.max(1)).unwrap_or(i64::MAX);
        let status = status.map_or(Value::fixnum(0), |s| self.vm.intern(s));
        let slice = self.vm.global_at(self.guest.slice).expect("engines.scm defines %engine-slice");
        let job = self.vm.roots_mut()[slot];
        self.vm.set_socket_owner(Some(id));
        let stepped = self.vm.call(slice, &[job, Value::fixnum(fuel), status]);
        self.vm.set_socket_owner(None);
        if stepped.is_err() {
            // The errored slice left the slot as it was; free it.
            self.drop_engine(id);
        }
        let v = stepped?;
        match self.vm.pair(v) {
            Some((tag, value)) if tag == self.guest.done => {
                self.release(id);
                return Ok(EngineStep::Done(value));
            }
            Some((sk, wait)) => {
                if let Some(step) = self.suspension(wait) {
                    self.vm.roots_mut()[slot] = sk;
                    return Ok(step);
                }
            }
            None => {}
        }
        // A guest that rebinds `%engine-slice` gets here.
        let shown = self.vm.write_value(&v);
        self.drop_engine(id);
        let message = format!("%engine-slice returned an unexpected value: {shown}");
        Err(VmError::Condition { kind: ConditionKind::Error, message })
    }

    /// Decodes the `wait` of a suspended slice's `(sk . wait)`: `#f` for a
    /// preemption, `(kind . handle)` for an I/O or timer wait.
    fn suspension(&self, wait: Value) -> Option<EngineStep> {
        if wait == Value::FALSE {
            return Some(EngineStep::Parked);
        }
        let (kind, handle) = self.vm.pair(wait)?;
        let handle = handle.as_fixnum()?;
        let wait = if kind == self.guest.read {
            Wait::Readable(handle)
        } else if kind == self.guest.write {
            Wait::Writable(handle)
        } else if kind == self.guest.timer {
            Wait::TimerMs(handle)
        } else {
            return None;
        };
        Some(EngineStep::Blocked(wait))
    }

    /// Unregisters a parked engine without running it (fuel budget
    /// exhausted, deadline passed) and closes the guest sockets it opened:
    /// an engine that will never finish cannot close them itself. Returns
    /// whether the engine was live.
    pub fn drop_engine(&mut self, id: EngineId) -> bool {
        if !self.engines.contains(id) {
            return false;
        }
        self.vm.close_sockets_of(id);
        self.release(id);
        true
    }
}

impl Default for EngineHost {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_workload(ts: &mut ThreadSystem, threads: usize, n: usize) {
        ts.eval("(define done 0)").unwrap();
        match ts.strategy() {
            Strategy::Cps => {
                ts.eval(&format!(
                    "(define (work k)
                       (let loop ((i 0))
                         (cps-call (lambda ()
                           (if (< i {n})
                               (loop (+ i 1))
                               (begin (set! done (+ done 1)) (k 0)))))))"
                ))
                .unwrap();
            }
            _ => {
                ts.eval(&format!(
                    "(define (work)
                       (let loop ((i 0))
                         (if (< i {n}) (loop (+ i 1)) (set! done (+ done 1)))))"
                ))
                .unwrap();
            }
        }
        for _ in 0..threads {
            ts.spawn("work").unwrap();
        }
    }

    fn done_count(ts: &mut ThreadSystem) -> i64 {
        let v = ts.eval("done").unwrap();
        v.as_fixnum().unwrap_or_else(|| panic!("done was {v:?}"))
    }

    #[test]
    fn cooperative_round_robin_interleaves() {
        for strategy in [Strategy::CallCc, Strategy::Call1Cc] {
            let mut ts = ThreadSystem::new(strategy);
            ts.eval("(define out '())").unwrap();
            ts.spawn("(lambda () (set! out (cons 1 out)) (thread-yield!) (set! out (cons 3 out)))")
                .unwrap();
            ts.spawn("(lambda () (set! out (cons 2 out)) (thread-yield!) (set! out (cons 4 out)))")
                .unwrap();
            ts.run(0).unwrap();
            assert_eq!(ts.eval_to_string("(reverse out)").unwrap(), "(1 2 3 4)", "{strategy:?}");
        }
    }

    #[test]
    fn preemptive_switching_completes_all_threads() {
        for strategy in Strategy::ALL {
            let mut ts = ThreadSystem::new(strategy);
            counter_workload(&mut ts, 5, 2000);
            ts.run(16).unwrap();
            assert_eq!(done_count(&mut ts), 5, "{strategy:?}");
        }
    }

    #[test]
    fn one_shot_system_copies_nothing_call_cc_copies() {
        let mut one = ThreadSystem::new(Strategy::Call1Cc);
        counter_workload(&mut one, 4, 4000);
        let before = one.stats();
        one.run(8).unwrap();
        let d1 = one.stats().delta_since(&before);
        assert_eq!(d1.stack.slots_copied, 0, "one-shot switches copy nothing");
        assert!(d1.stack.reinstates_one > 100);

        let mut multi = ThreadSystem::new(Strategy::CallCc);
        counter_workload(&mut multi, 4, 4000);
        let before = multi.stats();
        multi.run(8).unwrap();
        let dm = multi.stats().delta_since(&before);
        assert!(dm.stack.slots_copied > 1000, "call/cc switches copy: {:?}", dm.stack);
    }

    #[test]
    fn cps_system_captures_no_continuations_at_all() {
        let mut cps = ThreadSystem::new(Strategy::Cps);
        counter_workload(&mut cps, 3, 2000);
        let before = cps.stats();
        cps.run(4).unwrap();
        let d = cps.stats().delta_since(&before);
        assert_eq!(d.stack.captures_multi, 0);
        assert_eq!(d.stack.captures_one, 0);
        assert!(d.heap.closures_allocated > 1000, "control became closures");
        assert_eq!(done_count(&mut cps), 3);
    }

    #[test]
    fn many_threads_complete() {
        for strategy in Strategy::ALL {
            let mut ts = ThreadSystem::new(strategy);
            counter_workload(&mut ts, 100, 200);
            ts.run(32).unwrap();
            assert_eq!(done_count(&mut ts), 100, "{strategy:?}");
        }
    }

    #[test]
    fn switching_preserves_thread_results() {
        // Each thread computes a distinct value into a vector slot; rapid
        // preemption must not corrupt any of them.
        for strategy in [Strategy::CallCc, Strategy::Call1Cc] {
            let mut ts = ThreadSystem::new(strategy);
            ts.eval("(define results (make-vector 8 #f))").unwrap();
            ts.eval(
                "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
                 (define (job i) (lambda () (vector-set! results i (fib (+ 10 i)))))",
            )
            .unwrap();
            for i in 0..8 {
                ts.spawn(&format!("(job {i})")).unwrap();
            }
            ts.run(3).unwrap();
            assert_eq!(
                ts.eval_to_string("(vector->list results)").unwrap(),
                "(55 89 144 233 377 610 987 1597)",
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn engines_complete_and_expire() {
        let mut ts = ThreadSystem::new(Strategy::Call1Cc);
        ts.vm_mut().load_library(ENGINES).unwrap();
        let r = ts
            .eval_to_string(
                "(define (spin n) (let loop ((i 0)) (if (= i n) i (loop (+ i 1)))))
                 (define e (make-engine (lambda () (spin 1000))))
                 (define expirations 0)
                 (let retry ((e e))
                   (e 100
                      (lambda (v left) (list 'value v 'many-expirations (> expirations 5)))
                      (lambda (e2) (set! expirations (+ expirations 1)) (retry e2))))",
            )
            .unwrap();
        assert_eq!(r, "(value 1000 many-expirations #t)");
    }

    #[test]
    fn engines_round_robin_fairness() {
        let mut ts = ThreadSystem::new(Strategy::Call1Cc);
        ts.vm_mut().load_library(ENGINES).unwrap();
        let r = ts
            .eval_to_string(
                "(define (spin n v) (let loop ((i 0)) (if (= i n) v (loop (+ i 1)))))
                 (engines-round-robin
                   (list (make-engine (lambda () (spin 500 'a)))
                         (make-engine (lambda () (spin 100 'b)))
                         (make-engine (lambda () (spin 300 'c))))
                   50)",
            )
            .unwrap();
        // Shorter computations finish earlier under round robin.
        assert_eq!(r, "(b c a)");
    }

    #[test]
    fn stats_are_exposed() {
        let ts = ThreadSystem::new(Strategy::Call1Cc);
        assert!(ts.stats().instructions > 0);
    }

    fn compile(src: &str) -> oneshot_vm::CompiledProgram {
        Vm::compile_str(src, oneshot_vm::Pipeline::Direct, Default::default()).unwrap()
    }

    #[test]
    fn host_interleaves_independent_engines() {
        let mut host = EngineHost::new();
        let mk = |n: u64, tag: &str| {
            compile(&format!("(let loop ((i 0)) (if (< i {n}) (loop (+ i 1)) '{tag}))"))
        };
        let a = host.spawn_program(&mk(5000, "a")).unwrap();
        let b = host.spawn_program(&mk(800, "b")).unwrap();
        assert_eq!(host.live(), 2);
        let mut done = Vec::new();
        let mut queue = std::collections::VecDeque::from([a, b]);
        while let Some(id) = queue.pop_front() {
            match host.step(id, 300).unwrap() {
                EngineStep::Parked => queue.push_back(id),
                EngineStep::Done(v) => done.push(host.vm().display_value(&v)),
                EngineStep::Blocked(w) => panic!("no engine here blocks: {w:?}"),
            }
        }
        // The shorter job finishes first under round-robin slicing.
        assert_eq!(done, ["b", "a"]);
        assert_eq!(host.live(), 0);
    }

    #[test]
    fn host_job_error_leaves_parked_engines_intact() {
        let mut host = EngineHost::new();
        let ok = host
            .spawn_program(&compile("(let loop ((i 0)) (if (< i 9000) (loop (+ i 1)) 'fine))"))
            .unwrap();
        // Park the good job mid-run so its one-shot continuation is live.
        assert_eq!(host.step(ok, 100).unwrap(), EngineStep::Parked);
        // The bad job errors mid-slice, on a resumed slice, inside a wind:
        // its prompt, its shot subcontinuation and its winder all die with
        // the unwound stack, and nothing on the path resets anything.
        let bad = host
            .spawn_program(&compile(
                "(dynamic-wind
                   (lambda () #f)
                   (lambda () (let loop ((i 0)) (if (< i 500) (loop (+ i 1)) (car 42))))
                   (lambda () #f))",
            ))
            .unwrap();
        assert_eq!(host.step(bad, 100).unwrap(), EngineStep::Parked);
        let mut r = host.step(bad, 100);
        while r == Ok(EngineStep::Parked) {
            r = host.step(bad, 100);
        }
        let e = r.unwrap_err();
        assert!(e.to_string().contains("car"), "{e}");
        assert_eq!(host.live(), 1, "errored engine was dropped");
        let state = host.vm_mut().eval_str("(list (%prompt-set? %engine-tag) (set-timer! 0))");
        assert_eq!(host.vm().write_value(&state.unwrap()), "(#f 0)", "no slice state survives");
        // The parked engine's captured continuation still works.
        let mut last = EngineStep::Parked;
        while last == EngineStep::Parked {
            last = host.step(ok, 300).unwrap();
        }
        let EngineStep::Done(v) = last else { unreachable!() };
        assert_eq!(host.vm().display_value(&v), "fine");
    }

    #[test]
    fn host_shot_continuation_is_an_error_not_a_wedge() {
        let mut host = EngineHost::new();
        let id = host
            .spawn_program(&compile(
                "(define k1 #f)
                 (call/1cc (lambda (k) (set! k1 k)))
                 (k1 0)",
            ))
            .unwrap();
        let mut r = host.step(id, 50);
        while r == Ok(EngineStep::Parked) {
            r = host.step(id, 50);
        }
        let e = r.unwrap_err();
        assert!(e.to_string().contains("one-shot"), "{e}");
        // The host is still usable for fresh work.
        let id2 = host.spawn_program(&compile("(+ 1 2)")).unwrap();
        let EngineStep::Done(v) = host.step(id2, 10_000).unwrap() else {
            panic!("trivial job should finish in one slice")
        };
        assert_eq!(host.vm().display_value(&v), "3");
    }

    #[test]
    fn host_spawn_shared_links_a_program_once() {
        let mut host = EngineHost::new();
        let run = |host: &mut EngineHost, prog: &Arc<CompiledProgram>| {
            let id = host.spawn_shared(prog).unwrap();
            let EngineStep::Done(v) = host.step(id, 10_000).unwrap() else {
                panic!("trivial job should finish in one slice")
            };
            host.vm().display_value(&v)
        };
        let prog = Arc::new(compile("(define (twice x) (* 2 x)) (twice 21)"));
        assert_eq!(run(&mut host, &prog), "42");
        let linked = host.vm().code_object_count();
        for _ in 0..100 {
            assert_eq!(run(&mut host, &prog), "42");
        }
        assert_eq!(host.vm().code_object_count(), linked, "respawns allocate a closure only");
        // Identity, not content, tells programs apart.
        let same_text = Arc::new(compile("(define (twice x) (* 2 x)) (twice 21)"));
        assert_eq!(run(&mut host, &same_text), "42");
        assert!(host.vm().code_object_count() > linked);
    }

    #[test]
    fn host_timer_wait_blocks_and_resumes() {
        let mut host = EngineHost::new();
        let id = host.spawn_program(&compile("(begin (timer-wait 3) 'woke)")).unwrap();
        let mut step = host.step(id, 4096).unwrap();
        while step == EngineStep::Parked {
            step = host.step(id, 4096).unwrap();
        }
        assert_eq!(step, EngineStep::Blocked(Wait::TimerMs(3)));
        // The host decides when the wait is over; stepping again resumes
        // the sealed one-shot continuation, which returns from timer-wait.
        let mut step = host.step(id, 4096).unwrap();
        loop {
            match step {
                EngineStep::Done(v) => {
                    assert_eq!(host.vm().display_value(&v), "woke");
                    break;
                }
                EngineStep::Parked => step = host.step(id, 4096).unwrap(),
                EngineStep::Blocked(w) => panic!("timer-wait must block once, got {w:?}"),
            }
        }
        assert_eq!(host.live(), 0);
    }

    #[test]
    fn host_accept_blocks_until_a_peer_connects() {
        let mut host = EngineHost::new();
        let id = host
            .spawn_program(&compile(
                "(define lst (tcp-listen 0))
                 (let ((c (tcp-accept lst)))
                   (let ((msg (tcp-read c 64)))
                     (tcp-write c msg)
                     (tcp-close c)
                     (tcp-close lst)
                     'served))",
            ))
            .unwrap();
        let mut step = host.step(id, 100_000).unwrap();
        while step == EngineStep::Parked {
            step = host.step(id, 100_000).unwrap();
        }
        let EngineStep::Blocked(Wait::Readable(tok)) = step else {
            panic!("accept with no peer must block readable, got {step:?}");
        };
        assert!(host.vm().net_fd(tok).is_some(), "the wait token resolves to an fd");
        // Connect from plain Rust while the green thread is suspended.
        let port = {
            let v = host.vm_mut().eval_str("(tcp-local-port lst)").unwrap();
            host.vm().display_value(&v).parse::<u16>().unwrap()
        };
        use std::io::{Read, Write};
        let mut peer = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        peer.write_all(b"hi").unwrap();
        // Step until served: intermediate blocks (read readiness races)
        // are allowed; readiness is a hint, not a promise.
        let mut echoed = Vec::new();
        loop {
            match host.step(id, 100_000).unwrap() {
                EngineStep::Done(v) => {
                    assert_eq!(host.vm().display_value(&v), "served");
                    break;
                }
                EngineStep::Parked => {}
                EngineStep::Blocked(_) => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
        peer.read_to_end(&mut echoed).unwrap();
        assert_eq!(echoed, b"hi");
        assert_eq!(host.vm().net_live(), 0, "guest closed everything it opened");
    }
}
