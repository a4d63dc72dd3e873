//! The virtual machine.

mod builtins;
mod exec;
mod gc;

use std::collections::HashMap;

use oneshot_compiler::{
    compile_program_with, CompiledProgram, CompilerOptions, FreeSrc, Op, Pipeline, MNEMONICS,
};
use oneshot_core::{Config, FaultClock, FaultPlan, KontId, Overflow, SegStack, Stats};
use oneshot_runtime::{
    datum_to_value, display_value, write_value, Heap, HeapStats, Obj, Symbols, Value,
};
use oneshot_sexp::read_all;

use crate::error::{VmError, R};
use crate::slot::Slot;

pub(crate) use builtins::BuiltinFn;

/// The Scheme prelude (list operations and other library procedures),
/// compiled through whichever pipeline the VM uses.
const PRELUDE: &str = include_str!("../../scheme/prelude.scm");
/// Hand-written CPS definitions of the control operators, loaded (through
/// the direct pipeline) only in CPS mode.
const CPS_PRELUDE: &str = include_str!("../../scheme/cps-prelude.scm");

/// Whether a VM's segmented stack records its control events in a trace
/// ring as well as counting them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeSpec {
    /// Counters only.
    #[default]
    Off,
    /// A [`RingTraceProbe`](oneshot_core::RingTraceProbe) retaining the
    /// last `N` control events for [`Vm::trace_dump`].
    Ring(usize),
}

/// VM construction options. Prefer building through [`Vm::builder`]; the
/// struct remains public for embedders that store configurations.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Segmented-stack tuning (segment size, copy bound, policies, ...).
    pub stack: Config,
    /// Which compiler pipeline to run programs through.
    pub pipeline: Pipeline,
    /// Whether the stack also records its control events in a trace ring.
    pub probe: ProbeSpec,
    /// Count executed instructions per opcode kind (see
    /// [`Vm::opcode_histogram`]). Adds a counter bump per instruction.
    pub opcode_histogram: bool,
    /// Compiler back-end options (superinstruction fusion, ...). Applies to
    /// every program this VM compiles, including the prelude.
    pub compiler: CompilerOptions,
    /// Heap collection threshold: allocations between GC safe-point
    /// checks. `None` keeps the heap's default adaptive trigger, which
    /// scales with the surviving live set; `Some(n)` pins it at `n`.
    pub gc_threshold: Option<usize>,
    /// Heap budget, in live objects. When a safe-point check finds the
    /// live set above the budget (after collecting), the VM raises a
    /// catchable `out-of-memory` condition instead of aborting. `None`
    /// disables the guard.
    pub heap_budget: Option<usize>,
    /// Deterministic fault-injection plan (chaos testing). `None` — the
    /// default — arms nothing and costs one disarmed-countdown branch per
    /// site.
    pub fault_plan: Option<FaultPlan>,
    /// Open-socket ceiling for the guest `%tcp-*` builtins. Exceeding it
    /// raises a catchable `io-error` condition instead of running the
    /// process into its fd limit.
    pub max_open_sockets: usize,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            stack: Config::default(),
            pipeline: Pipeline::Direct,
            probe: ProbeSpec::Off,
            opcode_histogram: false,
            compiler: CompilerOptions::default(),
            gc_threshold: None,
            heap_budget: None,
            fault_plan: None,
            max_open_sockets: 16_384,
        }
    }
}

/// Fluent construction of a [`Vm`] — the primary construction path:
///
/// ```
/// use oneshot_vm::{ProbeSpec, Vm};
///
/// let mut vm = Vm::builder().probe(ProbeSpec::Ring(16)).build();
/// vm.eval_str("(call/cc (lambda (k) (k 1)))").unwrap();
/// assert!(vm.trace_dump().contains("capture"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct VmBuilder {
    cfg: VmConfig,
}

impl VmBuilder {
    /// Starts from an existing full configuration (e.g. one stored by an
    /// embedder and shared across a worker pool).
    pub fn config(mut self, cfg: VmConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the compiler pipeline.
    pub fn pipeline(mut self, pipeline: Pipeline) -> Self {
        self.cfg.pipeline = pipeline;
        self
    }

    /// Sets the segmented-stack configuration.
    pub fn stack(mut self, stack: Config) -> Self {
        self.cfg.stack = stack;
        self
    }

    /// Selects whether control events are also traced (see [`ProbeSpec`]).
    pub fn probe(mut self, probe: ProbeSpec) -> Self {
        self.cfg.probe = probe;
        self
    }

    /// Enables per-opcode instruction counting.
    pub fn opcode_histogram(mut self, on: bool) -> Self {
        self.cfg.opcode_histogram = on;
        self
    }

    /// Pins the heap's collection threshold (allocations between GC
    /// safe-point checks), disabling the adaptive trigger. Small values
    /// force frequent collections — used by the E10 experiment and GC
    /// stress tests.
    pub fn gc_threshold(mut self, objects: usize) -> Self {
        self.cfg.gc_threshold = Some(objects);
        self
    }

    /// Caps the heap at `objects` live objects; exceeding the budget at a
    /// safe point (after a collection fails to get back under it) raises a
    /// catchable `out-of-memory` condition.
    pub fn heap_budget(mut self, objects: usize) -> Self {
        self.cfg.heap_budget = Some(objects);
        self
    }

    /// Caps the guest socket table at `n` open sockets; exceeding the
    /// ceiling raises a catchable `io-error` condition.
    pub fn max_open_sockets(mut self, n: usize) -> Self {
        self.cfg.max_open_sockets = n;
        self
    }

    /// Installs a deterministic fault-injection plan (see
    /// [`FaultPlan`]); each armed countdown fires once and surfaces as
    /// the corresponding catchable condition.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault_plan = Some(plan);
        self
    }

    /// Builds the VM.
    ///
    /// # Panics
    ///
    /// Panics if the embedded prelude fails to compile — a build defect,
    /// covered by tests.
    pub fn build(self) -> Vm {
        Vm::from_config(self.cfg)
    }
}

/// A loaded (linked) code object's metadata. Its instructions live
/// concatenated in [`Vm::flat`], and what a call needs — where they start
/// and how much stack they want — in [`Vm::entries`].
#[derive(Debug)]
pub(crate) struct LoadedCode {
    /// Diagnostic name (error messages, backtraces).
    pub(crate) name: String,
    /// Instruction count (diagnostics; the code body ends in an
    /// unconditional transfer, so dispatch never runs off the end).
    #[allow(dead_code)]
    pub(crate) len: u32,
    /// Constants lowered to runtime values (GC roots).
    pub(crate) consts: Vec<Value>,
    /// Capture spec, pre-resolved at link time so closure creation reads
    /// it in place (no per-`Op::Closure` clone).
    pub(crate) free_spec: Box<[FreeSrc]>,
}

/// What calling a code object needs, kept apart from [`LoadedCode`] in a
/// flat table of one word per code object so that a call and its `Entry`
/// prologue each cost one load: every control transfer is an offset
/// assignment — no per-transfer clone or refcount traffic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CodeEntry {
    /// Offset of the code object's first instruction in [`Vm::flat`].
    pub(crate) base: u32,
    /// Slots the `Entry` overflow check must find above the frame pointer:
    /// the maximum frame extent plus the return address and one spare.
    pub(crate) need: u32,
}

oneshot_core::counters! {
    /// Aggregated statistics: instruction counts plus heap and stack
    /// counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    #[non_exhaustive]
    pub struct VmStats {
        /// Bytecode instructions executed.
        instructions: sum,
        /// Procedure calls performed (closures, builtins, continuations).
        calls: sum,
        /// Garbage collections run (the heap's `collections`: the VM sweeps
        /// once per collection).
        gc_collections: sum,
        /// Total wall-clock time spent inside the collector, in nanoseconds.
        gc_pause_ns: sum,
        /// Longest single collection pause, in nanoseconds.
        gc_max_pause_ns: max,
        /// Heap objects freed by collections (the heap's `objects_freed`).
        gc_objects_freed: sum,
        /// Scheme conditions raised (via `raise`/`raise-continuable` or a
        /// guarded fault such as `out-of-memory`).
        conditions_raised: sum,
        /// Injected faults consumed from a [`FaultPlan`] by this VM.
        faults_injected: sum,
        /// Heap statistics snapshot.
        heap: nested(HeapStats),
        /// Segmented-stack statistics snapshot.
        stack: nested(Stats),
    }
}

/// A program linked into one VM by [`Vm::link_program`]; meaningful only
/// to the VM that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkedProgram {
    entry: u32,
}

/// A global variable's cell in one VM, resolved once by
/// [`Vm::global_slot`]; meaningful only to the VM that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalSlot(u32);

/// The virtual machine: heap, symbol table, segmented control stack,
/// loaded code, globals, and machine registers.
///
/// See the crate documentation for an example.
#[derive(Debug)]
pub struct Vm {
    pub(crate) heap: Heap,
    pub(crate) syms: Symbols,
    pub(crate) stack: SegStack<Slot>,
    pub(crate) codes: Vec<LoadedCode>,
    /// Call targets, indexed like `codes` (see [`CodeEntry`]).
    pub(crate) entries: Vec<CodeEntry>,
    /// The flat instruction arena: every loaded code object's instructions,
    /// concatenated. `pc` is an absolute index into this vector; control
    /// transfers are pointer arithmetic on it.
    pub(crate) flat: Vec<Op>,
    /// Globals. Unbound cells hold [`Value::UNDEFINED`], so the
    /// `GlobalRef` bound-check is one load + one compare.
    pub(crate) globals: Vec<Value>,
    /// The call cache, indexed like `globals`: for a cell holding a
    /// closure, its code object and first instruction, so `CallGlobal`
    /// reaches the callee without touching the closure. Every write to a
    /// cell goes through [`Vm::write_global`], which refreshes the entry;
    /// code is never unloaded and a closure's code never changes, so an
    /// entry cannot dangle.
    pub(crate) gcall: Vec<exec::CallTarget>,
    pub(crate) global_names: Vec<String>,
    pub(crate) global_ids: HashMap<String, u32>,
    /// The embedder's GC roots (see [`Vm::roots_mut`]).
    pub(crate) roots: Vec<Value>,
    pub(crate) builtins: Vec<BuiltinFn>,
    // --- registers ---
    pub(crate) acc: Value,
    pub(crate) code: u32,
    pub(crate) pc: usize,
    pub(crate) closure: Value,
    pub(crate) argc: usize,
    /// Pending multiple values (`values` with n != 1).
    pub(crate) mv: Option<Vec<Value>>,
    /// The `dynamic-wind` winder list (a Scheme list of `(before . after)`
    /// pairs).
    pub(crate) winders: Value,
    /// The exception-handler stack (a Scheme list, innermost handler
    /// first), maintained by the `%push-handler!`/`%pop-handler!` builtins
    /// the prelude's `with-exception-handler` is built on. A GC root.
    pub(crate) handlers: Value,
    /// Latched when the heap budget raised `out-of-memory`, so one breach
    /// raises exactly once; cleared when the live set drops back under the
    /// budget or on recovery.
    pub(crate) oom_raised: bool,
    /// Heap budget in live objects (see [`VmConfig::heap_budget`]).
    pub(crate) heap_budget: Option<usize>,
    /// Injected timer-fault countdown: fires at a safe point, forcing the
    /// engine timer to expire early.
    pub(crate) timer_fault: FaultClock,
    /// Injected I/O-fault countdowns, ticked by the `%tcp-read`/`%tcp-write`
    /// builtins when `guards_active` (syscall-level chaos: short read,
    /// spurious would-block after readiness, connection reset).
    pub(crate) io_short_fault: FaultClock,
    pub(crate) io_spurious_fault: FaultClock,
    pub(crate) io_reset_fault: FaultClock,
    /// Whether any resource guard or fault plan was configured. Entry
    /// safe points branch on this one flag so an unguarded VM pays
    /// nothing for the fault machinery on its hot path.
    pub(crate) guards_active: bool,
    /// Scheme conditions raised.
    pub(crate) conditions_raised: u64,
    /// Injected faults consumed.
    pub(crate) faults_injected: u64,
    // --- engine timer (Dybvig–Hieb engines; drives Figure 5) ---
    pub(crate) timer_on: bool,
    pub(crate) fuel: u64,
    pub(crate) timer_handler: Value,
    // --- counters & output ---
    pub(crate) instructions: u64,
    pub(crate) calls: u64,
    /// Per-opcode execution counts, present when enabled in the config.
    pub(crate) opcode_hist: Option<Box<[u64; Op::KIND_COUNT]>>,
    // --- GC pause tracking (see `gc.rs`) ---
    pub(crate) gc_pause_ns: u64,
    pub(crate) gc_max_pause_ns: u64,
    /// Continuation mark worklist, reused across collections so the mark
    /// phase does not allocate in steady state.
    pub(crate) gc_kont_work: Vec<KontId>,
    pub(crate) out: String,
    /// Guest TCP sockets (see `crate::net`). Owned by the VM so a worker
    /// reset closes every socket of the jobs it killed.
    pub(crate) net: crate::net::NetTable,
    /// The token `(conn-take)` returns (see [`Vm::set_conn_token`]).
    pub(crate) conn: Option<i64>,
    pipeline: Pipeline,
    compiler: CompilerOptions,
}

impl Vm {
    /// A VM with default configuration (direct pipeline, prelude loaded).
    ///
    /// # Panics
    ///
    /// Panics if the embedded prelude fails to compile — a build defect,
    /// covered by tests.
    pub fn new() -> Self {
        Self::from_config(VmConfig::default())
    }

    /// Starts fluent construction — the primary construction path.
    pub fn builder() -> VmBuilder {
        VmBuilder::default()
    }

    fn from_config(cfg: VmConfig) -> Self {
        let mut vm = Vm {
            heap: Heap::new(),
            syms: Symbols::new(),
            stack: match cfg.probe {
                ProbeSpec::Off => SegStack::new(cfg.stack, Slot::Marker),
                ProbeSpec::Ring(n) => SegStack::with_trace(cfg.stack, Slot::Marker, n),
            },
            codes: Vec::new(),
            entries: Vec::new(),
            flat: Vec::new(),
            globals: Vec::new(),
            gcall: Vec::new(),
            global_names: Vec::new(),
            global_ids: HashMap::new(),
            roots: Vec::new(),
            builtins: Vec::new(),
            acc: Value::UNSPECIFIED,
            code: 0,
            pc: 0,
            closure: Value::UNSPECIFIED,
            argc: 0,
            mv: None,
            winders: Value::NIL,
            handlers: Value::NIL,
            oom_raised: false,
            heap_budget: None,
            timer_fault: FaultClock::disarmed(),
            io_short_fault: FaultClock::disarmed(),
            io_spurious_fault: FaultClock::disarmed(),
            io_reset_fault: FaultClock::disarmed(),
            guards_active: false,
            conditions_raised: 0,
            faults_injected: 0,
            timer_on: false,
            fuel: 0,
            timer_handler: Value::UNSPECIFIED,
            instructions: 0,
            calls: 0,
            opcode_hist: cfg.opcode_histogram.then(|| Box::new([0u64; Op::KIND_COUNT])),
            gc_pause_ns: 0,
            gc_max_pause_ns: 0,
            gc_kont_work: Vec::new(),
            out: String::new(),
            net: crate::net::NetTable::new(cfg.max_open_sockets),
            conn: None,
            pipeline: cfg.pipeline,
            compiler: cfg.compiler,
        };
        if let Some(t) = cfg.gc_threshold {
            vm.heap.set_gc_threshold(t);
        }
        vm.register_builtins();
        if cfg.pipeline == Pipeline::Cps {
            // Control operators get CPS definitions (direct pipeline: the
            // sources are hand-written CPS).
            vm.load_with(CPS_PRELUDE, Pipeline::Direct).expect("CPS prelude must load");
        }
        vm.load_with(PRELUDE, cfg.pipeline).expect("prelude must load");
        // Guards and fault clocks activate only after the prelude loads:
        // budgets and injected faults target user programs, and the
        // condition machinery they raise through is itself defined by the
        // prelude. Embedders whose boot loads more libraries (the engine
        // host's engines and io sources) instead take the plan out of
        // the config and call [`Vm::arm_fault_plan`] once boot completes.
        vm.heap_budget = cfg.heap_budget;
        vm.guards_active = cfg.heap_budget.is_some() || cfg.fault_plan.is_some();
        if let Some(plan) = cfg.fault_plan {
            vm.arm_fault_plan(&plan);
        }
        vm
    }

    /// Arms every fault clock of `plan` against the VM's current
    /// counters, and switches the guard gate on. Injected faults target
    /// user programs: callers arm after their boot-time library loads, so
    /// a dense plan cannot kill the VM before it can serve.
    pub fn arm_fault_plan(&mut self, plan: &FaultPlan) {
        self.guards_active = true;
        if let Some(n) = plan.alloc_fault_after {
            self.heap.arm_alloc_fault(n);
        }
        if let Some(n) = plan.segment_fault_after {
            self.stack.arm_segment_fault(n);
        }
        if let Some(n) = plan.timer_fault_after {
            self.timer_fault = FaultClock::arm(n);
        }
        if let Some(n) = plan.io_short_after {
            self.io_short_fault = FaultClock::arm(n);
        }
        if let Some(n) = plan.io_spurious_after {
            self.io_spurious_fault = FaultClock::arm(n);
        }
        if let Some(n) = plan.io_reset_after {
            self.io_reset_fault = FaultClock::arm(n);
        }
    }

    /// The pipeline programs are compiled through.
    pub fn pipeline(&self) -> Pipeline {
        self.pipeline
    }

    // ------------------------------------------------------------------
    // Loading and evaluation
    // ------------------------------------------------------------------

    /// Reads, compiles, links, and runs every form in `src`, returning the
    /// value of the last one.
    ///
    /// # Errors
    ///
    /// Read, compile, or runtime errors; the VM remains usable afterwards.
    pub fn eval_str(&mut self, src: &str) -> Result<Value, VmError> {
        self.load_with(src, self.pipeline).map_err(|e| *e)
    }

    fn load_with(&mut self, src: &str, pipeline: Pipeline) -> R<Value> {
        let forms = read_all(src).map_err(|e| VmError::Read(e.to_string()))?;
        let prog = compile_program_with(&forms, pipeline, self.compiler)
            .map_err(|e| VmError::Compile(e.to_string()))?;
        let entry = self.link(&prog);
        self.run_thunk(entry)
    }

    /// Compiles `src` to a [`CompiledProgram`] without touching any VM.
    ///
    /// The result is plain owned data (`Send`), so a program can be compiled
    /// once on a submitting thread and later linked into any number of VMs
    /// with [`Vm::load_program`] — the executor's compile-once/run-anywhere
    /// contract. The program must be linked into a VM whose pipeline and
    /// prelude match `pipeline`.
    ///
    /// # Errors
    ///
    /// [`VmError::Read`] or [`VmError::Compile`].
    pub fn compile_str(
        src: &str,
        pipeline: Pipeline,
        options: CompilerOptions,
    ) -> Result<CompiledProgram, VmError> {
        let forms = read_all(src).map_err(|e| VmError::Read(e.to_string()))?;
        compile_program_with(&forms, pipeline, options).map_err(|e| VmError::Compile(e.to_string()))
    }

    /// Links a [`CompiledProgram`] into this VM and returns its toplevel
    /// thunk as a zero-argument closure (every entry code object begins
    /// with `Op::Entry`, so it is directly callable).
    ///
    /// The returned closure is a fresh heap object and is **not** GC-rooted;
    /// pass it to [`Vm::call`] or store it in a global before running
    /// anything else on this VM.
    pub fn load_program(&mut self, prog: &CompiledProgram) -> Value {
        let linked = self.link_program(prog);
        self.instantiate(linked)
    }

    /// Links `prog` into this VM without allocating its thunk: the
    /// link-once half of [`Vm::load_program`]. Linking appends the
    /// program's code and constants to the VM for good, so a program run
    /// many times (a connection handler) is linked once and
    /// [instantiated](Vm::instantiate) per run.
    pub fn link_program(&mut self, prog: &CompiledProgram) -> LinkedProgram {
        LinkedProgram { entry: self.link(prog) }
    }

    /// A fresh toplevel thunk for a program [linked](Vm::link_program)
    /// into *this* VM — one closure allocation, no code growth. Unrooted,
    /// like [`Vm::load_program`]'s result. Every thunk of one linked
    /// program shares its quoted constants.
    pub fn instantiate(&mut self, linked: LinkedProgram) -> Value {
        Value::obj(self.heap.alloc(Obj::Closure { code: linked.entry, free: Box::new([]) }))
    }

    /// Code objects linked into this VM so far. Grows with every
    /// [`Vm::link_program`] / [`Vm::load_program`] / [`Vm::eval_str`] and
    /// never shrinks.
    pub fn code_object_count(&self) -> usize {
        self.codes.len()
    }

    /// The raw file descriptor behind guest socket `token`, or `None` if
    /// the token is stale. The reactor registers this fd with epoll; the
    /// descriptor stays owned by the VM and is closed by `%tcp-close` or
    /// VM teardown, which reports it through [`Vm::drain_closed_fds`] so
    /// the reactor can wake its waiters and forget it.
    pub fn net_fd(&self, token: i64) -> Option<i64> {
        self.net.fd(token)
    }

    /// Number of guest sockets currently open in this VM.
    pub fn net_live(&self) -> usize {
        self.net.live()
    }

    /// Closes guest socket `token` from the embedder side; `true` if it
    /// was still open. Used to scrap the adopted socket of a connection
    /// handler that failed without reaching its own `tcp-close` — the
    /// peer sees the close instead of a wedge, and the table does not
    /// leak. The closed fd is reported through
    /// [`Vm::drain_closed_fds`] like any guest-side close.
    pub fn close_socket(&mut self, token: i64) -> bool {
        self.net.close(token)
    }

    /// Attributes the guest sockets opened from now on to `owner` (an
    /// engine host's engine id; `None` between engine steps).
    #[doc(hidden)]
    pub fn set_socket_owner(&mut self, owner: Option<i64>) {
        self.net.set_owner(owner);
    }

    /// Closes every guest socket opened while `owner` was set, through the
    /// same path as [`Vm::close_socket`].
    #[doc(hidden)]
    pub fn close_sockets_of(&mut self, owner: i64) {
        self.net.close_owned_by(owner);
    }

    /// Names the connection `(conn-take)` returns to the guest code that
    /// runs next: a connection handler's own adopted socket token, or
    /// `None` (so `(conn-take)` raises `io-error`) for any other job. An
    /// embedder running several jobs on one VM names each job's before
    /// each of its slices.
    pub fn set_conn_token(&mut self, token: Option<i64>) {
        self.conn = token;
    }

    /// Adopts an already-connected, already-nonblocking stream (a
    /// shared-listener accept) into this VM's socket table and returns its
    /// token. The handler job that serves it gets it from `(conn-take)`
    /// once the embedder names it with [`Vm::set_conn_token`].
    ///
    /// # Errors
    ///
    /// The socket-table cap (`max_open_sockets`) as a catchable
    /// `io-error` — the embedder sheds the connection.
    pub fn adopt_stream(&mut self, stream: std::net::TcpStream) -> Result<i64, VmError> {
        self.net.adopt(stream)
    }

    /// Moves the raw fds of every guest socket closed since the last call
    /// into `out`. The embedder forwards these to its reactor so waiters
    /// on a closed socket are woken (edge-triggered `epoll` silently
    /// drops interest in closed fds; without this, such a waiter would
    /// wedge).
    pub fn drain_closed_fds(&mut self, out: &mut Vec<i32>) {
        self.net.drain_closed(out);
    }

    /// Moves into `out` the raw fds an injected spurious would-block
    /// ([`FaultPlan::io_spurious_after`](crate::FaultPlan)) reported not
    /// ready while they were. The embedder hands their readiness back to
    /// its reactor: an edge-triggered reactor would not report it again,
    /// and the guest that re-suspended on it would wedge.
    pub fn drain_owed_fds(&mut self, out: &mut Vec<i32>) {
        self.net.drain_owed(out);
    }

    /// Links a compiled program into the VM, returning the loaded entry
    /// code index. Global references are resolved by name, code indices
    /// are rebased, and the instructions are appended to the flat arena.
    pub(crate) fn link(&mut self, prog: &CompiledProgram) -> u32 {
        let base = self.codes.len() as u32;
        // Map program-global indices to VM-global indices.
        let gmap: Vec<u32> = prog.globals.iter().map(|name| self.global_id(name)).collect();
        for code in &prog.codes {
            let ops_base = u32::try_from(self.flat.len()).expect("flat arena exceeds u32 range");
            self.flat.extend(code.ops.iter().map(|op| match *op {
                Op::GlobalRef(i) => Op::GlobalRef(gmap[i as usize]),
                Op::GlobalSet(i) => Op::GlobalSet(gmap[i as usize]),
                Op::GlobalDef(i) => Op::GlobalDef(gmap[i as usize]),
                Op::CallGlobal { g, disp, argc } => {
                    Op::CallGlobal { g: gmap[g as usize], disp, argc }
                }
                Op::TailCallGlobal { g, disp, argc } => {
                    Op::TailCallGlobal { g: gmap[g as usize], disp, argc }
                }
                Op::Closure(i) => Op::Closure(base + i),
                other => other,
            }));
            let consts: Vec<Value> = code
                .consts
                .iter()
                .map(|d| datum_to_value(&mut self.heap, &mut self.syms, d))
                .collect();
            // Resumed frames must never outrun the post-reinstatement
            // headroom guarantee.
            let need = u32::from(code.frame_slots) + 2;
            self.stack.raise_reserve(need as usize);
            self.entries.push(CodeEntry { base: ops_base, need });
            self.codes.push(LoadedCode {
                name: code.name.clone(),
                len: code.ops.len() as u32,
                consts,
                free_spec: code.free_spec.clone().into_boxed_slice(),
            });
        }
        base + prog.entry
    }

    /// Runs a zero-argument code object from the VM rest state.
    pub(crate) fn run_thunk(&mut self, entry: u32) -> R<Value> {
        debug_assert!(matches!(self.stack.get(self.stack.fp()), Slot::Marker));
        self.code = entry;
        self.pc = self.entries[entry as usize].base as usize;
        self.closure = Value::UNSPECIFIED;
        self.argc = 0;
        self.mv = None;
        let r = self.run();
        if r.is_err() {
            self.recover();
        }
        r
    }

    /// Calls a Scheme procedure from Rust with the given arguments.
    ///
    /// # Errors
    ///
    /// Runtime errors from the callee, or a type error if `f` is not
    /// applicable.
    pub fn call(&mut self, f: Value, args: &[Value]) -> Result<Value, VmError> {
        let r = (|| -> R<Value> {
            self.ensure_or_raise(args.len() + 2, 1)?;
            let fp = self.stack.fp();
            for (i, a) in args.iter().enumerate() {
                self.stack.set(fp + 1 + i, Slot::Val(*a));
            }
            self.acc = f;
            self.mv = None;
            if let Some(v) = self.apply(f, args.len())? {
                return Ok(v);
            }
            self.run()
        })();
        // `run` intercepts `Condition` internally, but the pre-run `apply`
        // (or the initial ensure) can surface one directly; classify it as
        // uncaught while the stack is still intact for a backtrace.
        let r = r.map_err(|e| match *e {
            VmError::Condition { kind, message } => {
                self.conditions_raised += 1;
                VmError::Uncaught {
                    condition: message,
                    kind: Some(kind.to_string()),
                    backtrace: self.backtrace(),
                }
            }
            other => other,
        });
        if r.is_err() {
            self.recover();
        }
        r
    }

    /// Grows the stack for `need` slots, turning a resource-ceiling refusal
    /// (segment budget or injected segment fault) into a catchable
    /// `stack-overflow` condition instead of growing past the limit.
    pub(crate) fn ensure_or_raise(&mut self, need: usize, live: usize) -> R<()> {
        match self.stack.ensure(need, live, &crate::slot::slot_disp) {
            Overflow::Ceiling => self.ceiling_to_condition(need, live),
            _ => Ok(()),
        }
    }

    /// The [`Overflow::Ceiling`] slow path, kept out of line so the per-call
    /// `ensure_or_raise` stays small enough to inline.
    #[cold]
    #[inline(never)]
    fn ceiling_to_condition(&mut self, need: usize, live: usize) -> R<()> {
        if self.stack.in_overflow_grace() {
            // Only an injected segment fault reports `Ceiling` with the
            // grace period already armed (a real ceiling leaves arming to
            // the embedder); no reclamation would help, so raise at once.
            self.faults_injected += 1;
            return Err(VmError::condition("stack-overflow", "stack segment ceiling exceeded"));
        }
        // A real ceiling can be pinned by dead segments awaiting a
        // sweep (e.g. the chain bypassed by a continuation escape);
        // collect once and retry before declaring overflow. The
        // `live` slots above fp are GC roots, so this is safe at
        // every ensure site.
        self.collect(live);
        match self.stack.ensure(need, live, &crate::slot::slot_disp) {
            Overflow::Ceiling => {
                self.stack.enter_overflow_grace();
                Err(VmError::condition("stack-overflow", "stack segment ceiling exceeded"))
            }
            _ => Ok(()),
        }
    }

    /// Resets control state after an error so the VM can keep evaluating.
    fn recover(&mut self) {
        self.stack.clear_to_empty();
        self.winders = Value::NIL;
        self.handlers = Value::NIL;
        self.oom_raised = false;
        self.mv = None;
        self.timer_on = false;
        self.closure = Value::UNSPECIFIED;
        // The accumulator is a GC root; a stale value from before the
        // error would pin an arbitrary object graph across the recovery.
        self.acc = Value::UNSPECIFIED;
    }

    // ------------------------------------------------------------------
    // Globals and symbols
    // ------------------------------------------------------------------

    pub(crate) fn global_id(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.global_ids.get(name) {
            return i;
        }
        let i = self.globals.len() as u32;
        self.globals.push(Value::UNDEFINED);
        self.gcall.push(exec::CallTarget::NONE);
        self.global_names.push(name.to_string());
        self.global_ids.insert(name.to_string(), i);
        i
    }

    /// Reads a global variable by name, if defined.
    pub fn global(&self, name: &str) -> Option<Value> {
        let &i = self.global_ids.get(name)?;
        self.global_at(GlobalSlot(i))
    }

    /// Resolves `name` to its global cell (creating an unbound one if the
    /// name is new), for callers that read the same global on a hot path.
    pub fn global_slot(&mut self, name: &str) -> GlobalSlot {
        GlobalSlot(self.global_id(name))
    }

    /// Reads the global in `slot` (of this VM), if defined: one load and
    /// one compare, and it follows redefinitions.
    pub fn global_at(&self, slot: GlobalSlot) -> Option<Value> {
        let v = self.globals[slot.0 as usize];
        (v != Value::UNDEFINED).then_some(v)
    }

    /// Defines (or redefines) a global variable.
    pub fn set_global(&mut self, name: &str, v: Value) {
        let i = self.global_id(name) as usize;
        self.write_global(i, v);
    }

    /// Values the embedder keeps alive between calls into this VM. Every
    /// collection marks them, like globals; the VM itself never reads or
    /// writes them, and an error leaves them as they were.
    pub fn roots_mut(&mut self) -> &mut Vec<Value> {
        &mut self.roots
    }

    /// Interns a symbol, returning it as a value.
    pub fn intern(&mut self, name: &str) -> Value {
        Value::sym(self.syms.intern(name))
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// Formats a value with `display` conventions.
    pub fn display_value(&self, v: &Value) -> String {
        display_value(&self.heap, &self.syms, *v)
    }

    /// Formats a value with `write` conventions.
    pub fn write_value(&self, v: &Value) -> String {
        write_value(&self.heap, &self.syms, *v)
    }

    /// Takes the captured `display`/`write` output.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.out)
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> VmStats {
        let heap = self.heap.stats();
        VmStats {
            instructions: self.instructions,
            calls: self.calls,
            gc_collections: heap.collections,
            gc_pause_ns: self.gc_pause_ns,
            gc_max_pause_ns: self.gc_max_pause_ns,
            gc_objects_freed: heap.objects_freed,
            conditions_raised: self.conditions_raised,
            faults_injected: self.faults_injected,
            heap,
            stack: *self.stack.stats(),
        }
    }

    /// Renders the trace ring symbolically, one control event per line,
    /// oldest first — empty unless the VM was built with
    /// [`ProbeSpec::Ring`]. A dropped-event note is appended when the ring
    /// has evicted older events.
    pub fn trace_dump(&self) -> String {
        let Some(p) = self.stack.trace() else {
            return String::new();
        };
        let mut out = String::new();
        for ev in p.events() {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        if p.dropped() > 0 {
            out.push_str(&format!("({} earlier events dropped)\n", p.dropped()));
        }
        out
    }

    /// Per-opcode execution counts as `(mnemonic, count)` pairs, sorted by
    /// descending count with zero-count opcodes omitted. `None` unless
    /// opcode counting was enabled at construction
    /// ([`VmBuilder::opcode_histogram`]).
    pub fn opcode_histogram(&self) -> Option<Vec<(&'static str, u64)>> {
        let hist = self.opcode_hist.as_ref()?;
        let mut rows: Vec<(&'static str, u64)> = hist
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (MNEMONICS[i], n))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        Some(rows)
    }

    /// Read access to the heap (for embedders inspecting values and live
    /// counts — e.g. the E10 leak check).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Direct access to the heap (for embedders building values).
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// Forces a full collection from outside the interpreter loop.
    ///
    /// Safe only between evaluations: the machine is quiescent, so no
    /// slot at or above the frame pointer is live (marking up to the
    /// segment's end would resurrect stale dead slots). The E10 leak
    /// check calls this twice around a workload and compares
    /// [`Heap::len`] — any growth is an unreclaimed object.
    pub fn collect_now(&mut self) {
        self.collect(0);
    }

    /// Total slot capacity of all live stack segments — the resident
    /// stack-memory measure behind the fragmentation experiment (§3.4).
    pub fn stack_resident_slots(&self) -> usize {
        self.stack.resident_slots()
    }

    /// Walks the control stack and returns the procedure names of every
    /// pending frame, innermost first — across segment boundaries and
    /// through the continuation chain. This is the §3.1 claim in action:
    /// the displacement carried by each return address (the paper's
    /// frame-size word) is what lets tools walk the stack.
    pub fn backtrace(&self) -> Vec<String> {
        let mut names = vec![self.codes[self.code as usize].name.clone()];
        // The current record: from the active frame down to the base.
        let fp = self.stack.fp();
        self.frame_names(&mut names, self.stack.slice(self.stack.base(), fp), *self.stack.get(fp));
        // The continuation chain below.
        let mut cursor = self.stack.current_link();
        while let Some(k) = cursor.filter(|_| names.len() <= 4096) {
            let kont = self.stack.kont(k);
            if kont.is_shot() {
                names.push("#<shot>".to_string());
                break;
            }
            self.frame_names(&mut names, self.stack.kont_slice(k), *kont.ret());
            cursor = kont.link();
        }
        names
    }

    /// Appends the names of one stack record's frames, innermost first:
    /// `record` is its occupied slots and `ret` the return address of the
    /// frame just above them. Each frame's size is the `slot_disp` of its
    /// return address, as for the stack's own walks. Stops at the record's
    /// base, at a slot that is no return address, or past 4 096 names.
    fn frame_names(&self, names: &mut Vec<String>, record: &[Slot], mut ret: Slot) {
        let mut top = record.len();
        while names.len() <= 4096 {
            names.push(match ret {
                Slot::Ret { code, .. } => self.codes[code as usize].name.clone(),
                Slot::Resume { kind, .. } => format!("#<{kind:?}>"),
                _ => break,
            });
            match crate::slot::slot_disp(&ret) {
                Some(d) if d != 0 && d <= top => top -= d,
                _ => break,
            }
            ret = record[top];
        }
    }

    /// Number of live stack segments (cached ones included).
    pub fn stack_segment_count(&self) -> usize {
        self.stack.segment_count()
    }

    /// Number of occupied stack segments — live segments excluding the
    /// free-list cache. This is the measure leak checks should use: a
    /// segment returned to the cache is capacity, not a retained
    /// continuation.
    pub fn stack_live_segment_count(&self) -> usize {
        self.stack.live_segment_count()
    }

    /// Allocates a pair.
    pub fn cons(&mut self, car: Value, cdr: Value) -> Value {
        Value::obj(self.heap.alloc(Obj::Pair(car, cdr)))
    }

    /// Builds a Scheme list from a slice.
    pub fn list(&mut self, items: &[Value]) -> Value {
        let mut v = Value::NIL;
        for &item in items.iter().rev() {
            v = self.cons(item, v);
        }
        v
    }

    /// Reads a pair's car and cdr, if `v` is a pair.
    pub fn pair(&self, v: Value) -> Option<(Value, Value)> {
        v.as_obj().and_then(|r| self.heap.pair(r))
    }
}

impl Default for Vm {
    fn default() -> Self {
        Vm::new()
    }
}
