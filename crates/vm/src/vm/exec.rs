//! The execution engine: instruction dispatch, the call protocol, returns,
//! underflow, the control transfers (continuation invocation and the
//! delimited-control primitives) with their one `dynamic-wind` winder
//! walk, and the engine timer.

use oneshot_compiler::Op;
use oneshot_core::{ControlError, KontId, Underflow};
use oneshot_runtime::{Heap, Obj, Symbols, Unpacked, Value};

use crate::error::{ConditionKind, VmError, R};
use crate::slot::{ret_disp, slot_disp, Resume, Slot};
use crate::vm::builtins::Flow;
use crate::vm::Vm;

impl Vm {
    /// Reads the local slot at `fp + i` as a value.
    #[inline]
    pub(crate) fn local(&self, i: usize) -> Value {
        match self.stack.get(self.stack.fp() + i) {
            Slot::Val(v) => *v,
            other => panic!("expected value at fp+{i}, found {other:?}"),
        }
    }

    #[inline]
    pub(crate) fn set_local(&mut self, i: usize, v: Value) {
        let fp = self.stack.fp();
        self.stack.set(fp + i, Slot::Val(v));
    }

    fn free_value(&self, i: usize) -> Value {
        let Some(r) = self.closure.as_obj() else { panic!("free reference without a closure") };
        let Some((_, free)) = self.heap.closure(r) else {
            panic!("closure register holds a non-closure")
        };
        free[i]
    }

    fn cell_get(&self, cell: Value) -> Value {
        let Some(r) = cell.as_obj() else { panic!("cell reference to non-cell") };
        self.heap.cell(r).expect("cell reference to non-cell")
    }

    /// Builds the catchable `unbound-variable` condition. Out of line and
    /// `#[cold]`: the
    /// hot `GlobalRef` path is a load plus one sentinel compare, with the
    /// message formatting kept off the fast path entirely.
    #[cold]
    #[inline(never)]
    fn unbound(&self, what: &str, i: u32) -> Box<VmError> {
        let name = &self.global_names[i as usize];
        VmError::condition(ConditionKind::UnboundVariable, format!("{what}: {name}"))
    }

    /// The interpreter entry: runs the dispatch loop, intercepting
    /// recoverable [`VmError::Condition`] faults and re-raising them as
    /// Scheme conditions through the prelude's `raise`, so guest handlers
    /// installed with `with-exception-handler` can catch Rust-side faults
    /// (type errors, heap budget, stack ceiling, injected faults) exactly
    /// like Scheme-side ones.
    pub(crate) fn run(&mut self) -> R<Value> {
        loop {
            match self.run_dispatch() {
                Err(e) => match *e {
                    VmError::Condition { kind, message } => {
                        if let Some(v) = self.begin_raise(kind, message)? {
                            return Ok(v);
                        }
                    }
                    other => return Err(other.into()),
                },
                done => return done,
            }
        }
    }

    /// Re-enters the guest at `raise` with a freshly allocated condition
    /// pair `(kind . message)`. Returns `Ok(None)` when control was
    /// transferred (the dispatch loop should continue), `Ok(Some(v))` in
    /// the degenerate case where the application completed the program
    /// outright, and `Err(Uncaught)` when interception is impossible — no
    /// handler installed, or the prelude (which defines `raise`) is not
    /// loaded yet.
    #[cold]
    #[inline(never)]
    fn begin_raise(&mut self, kind: ConditionKind, message: String) -> R<Option<Value>> {
        let uncaught = |vm: &mut Vm, message: String| {
            vm.conditions_raised += 1;
            Err(Box::new(VmError::Uncaught {
                condition: message,
                kind: Some(kind.name().to_string()),
                backtrace: vm.backtrace(),
            }))
        };
        // CPS-converted `raise` takes a continuation argument the VM cannot
        // synthesize here; under that pipeline conditions the VM itself
        // raises surface as uncaught directly (Scheme-side `raise` still
        // dispatches to handlers normally).
        if self.pipeline() == oneshot_compiler::Pipeline::Cps {
            return uncaught(self, message);
        }
        let Some(raise) = self.global("raise") else {
            return uncaught(self, message);
        };
        if self.handlers == Value::NIL {
            return uncaught(self, message);
        }
        self.mv = None;
        // Room for the one-argument application below. The stack's ceiling
        // grace period (and the `oom_raised` latch) keep this from raising
        // recursively; if even one frame cannot be pushed, give up.
        if self.ensure_or_raise(3, 1).is_err() {
            return uncaught(self, message);
        }
        let kind_sym = self.intern(kind.name());
        let msg_str = Value::obj(self.heap.alloc(Obj::Str(message.chars().collect())));
        let cond = Value::obj(self.heap.alloc_pair(kind_sym, msg_str));
        let fp = self.stack.fp();
        self.stack.set(fp + 1, Slot::Val(cond));
        self.acc = raise;
        self.calls += 1;
        match self.apply(raise, 1) {
            Ok(flow) => Ok(flow),
            // `raise` bound to something inapplicable: don't loop, report.
            Err(_) => uncaught(self, message),
        }
    }

    /// The main dispatch loop; returns the program's final value when
    /// the continuation chain is exhausted.
    ///
    /// `pc` is an absolute index into the flat arena, so every control
    /// transfer — call, return, continuation reinstatement — is a plain
    /// offset assignment; there is no per-transfer refetch of a code
    /// object. The instruction itself is fetched by value each iteration
    /// (`Op` is `Copy` and at most 16 bytes).
    ///
    /// # Register discipline
    ///
    /// `pc`, `acc`, the instruction count and the arena slice live in
    /// locals for the life of the loop, so the straight-line path — fetch,
    /// local/global reference, fixnum arithmetic and compare, closure call,
    /// procedure entry, return — never stores them. The copies in `self`
    /// are stale in between and are brought up to date only where control
    /// leaves the straight line, through one pair of macros: `sync!` writes
    /// the locals back, `reload!` reads them again. Every `&mut self`
    /// method call goes through `ool!` (sync, call, reload) — the borrow
    /// checker enforces the reload half, because `flat` borrows
    /// `self.flat` and must be re-borrowed after the call (which is also
    /// what lets a builtin such as `eval` link new code mid-run) — and
    /// every error leaves through `fail!` (sync, return). The sync points
    /// are: a non-closure application (builtin, continuation), a global
    /// definition or assignment (the cell and its call-cache entry are
    /// written by one method), a return through anything but a plain `Ret`
    /// slot or with multiple values pending, `entry`'s slow path (arity
    /// error, rest list, overflow, collection, guards, an armed segment
    /// fault), the timer interrupt, and every error. (The cold arithmetic
    /// routines are functions of their operands alone, `vector_set` of the
    /// heap, and need no sync unless they fail.)
    ///
    /// # Two loops, one source
    ///
    /// The loop body is instantiated twice: `HIST = true` bumps the
    /// per-opcode histogram on every fetch, `HIST = false` — every VM built
    /// without [`crate::VmBuilder::opcode_histogram`] — contains no trace
    /// of it. The choice is made once per entry, here, because the test
    /// cannot be hoisted out of a single loop: every slot store goes
    /// through the stack's raw segment pointer, which the compiler must
    /// assume may alias `self`, so it would reload and retest the field
    /// after each one.
    fn run_dispatch(&mut self) -> R<Value> {
        if self.opcode_hist.is_some() {
            self.run_dispatch_impl::<true>()
        } else {
            self.run_dispatch_impl::<false>()
        }
    }

    /// [`Vm::run_dispatch`]'s loop; `HIST` says whether this instantiation
    /// counts opcodes.
    #[allow(clippy::too_many_lines)]
    fn run_dispatch_impl<const HIST: bool>(&mut self) -> R<Value> {
        let mut pc = self.pc;
        let mut acc = self.acc;
        let mut retired = self.instructions;
        let mut flat: &[Op] = &self.flat;

        macro_rules! sync {
            () => {{
                self.pc = pc;
                self.acc = acc;
                self.instructions = retired;
            }};
        }
        macro_rules! reload {
            () => {{
                pc = self.pc;
                acc = self.acc;
                retired = self.instructions;
                flat = &self.flat;
            }};
        }
        // An out-of-line call: anything taking `&mut self`.
        macro_rules! ool {
            ($call:expr) => {{
                sync!();
                let r = $call;
                reload!();
                r
            }};
        }
        macro_rules! fail {
            ($err:expr) => {{
                let e = $err;
                sync!();
                return Err(e);
            }};
        }
        macro_rules! tri {
            ($result:expr) => {
                match $result {
                    Ok(v) => v,
                    Err(e) => fail!(e),
                }
            };
        }
        macro_rules! set_local {
            ($i:expr, $v:expr) => {{
                let fp = self.stack.fp();
                self.stack.set(fp + $i as usize, Slot::Val($v));
            }};
        }
        macro_rules! branch_unless {
            ($taken:expr, $off:expr) => {
                if !$taken {
                    pc = pc.wrapping_add_signed($off as isize);
                }
            };
        }
        // `acc := a <op> b`. `arith` and `num_cmp` inline to the both-fixnum
        // path; flonums, overflow and type errors are their cold halves.
        macro_rules! arith {
            ($op:expr, $a:expr, $b:expr) => {
                acc = tri!(arith($op, $a, $b))
            };
        }
        // The comparison's truth is also the macro's value.
        macro_rules! compare {
            ($op:expr, $a:expr, $b:expr) => {{
                let holds = tri!(num_cmp($op, $a, $b));
                acc = Value::boolean(holds);
                holds
            }};
        }
        // Pushes the return address for a non-tail call at `fp + disp`.
        macro_rules! push_ret {
            ($disp:expr) => {{
                let nfp = self.stack.fp() + $disp as usize;
                self.stack.set(nfp, Slot::Ret { pc: pc as u32, closure: self.closure });
                self.stack.set_fp(nfp);
            }};
        }
        // Moves a tail call's argument block down over the current frame.
        macro_rules! shift_args {
            ($disp:expr, $argc:expr) => {{
                let fp = self.stack.fp();
                for i in 0..$argc as usize {
                    let v = *self.stack.get(fp + $disp as usize + 1 + i);
                    self.stack.set(fp + 1 + i, v);
                }
            }};
        }
        // Applies `f` to the `argc` arguments at `fp+1..`: a closure is
        // entered inline, anything else goes to `apply`.
        macro_rules! call {
            ($f:expr, $argc:expr) => {{
                let f = $f;
                if let Some(base) = self.closure_entry(f) {
                    self.closure = f;
                    self.argc = $argc as usize;
                    pc = base;
                } else if let Some(v) = ool!(self.apply(f, $argc as usize))? {
                    return Ok(v);
                }
            }};
        }
        // `call!` on the procedure in `globals[g]`, after `$frame` (the
        // return-address push or the tail call's argument shift). The call
        // cache names a closure's code and first instruction outright, so
        // the common case never touches the closure object; a sentinel
        // entry (unbound, builtin, continuation, non-procedure) takes the
        // general path and raises its errors.
        macro_rules! call_global {
            ($g:expr, $argc:expr, $frame:expr) => {{
                let f = self.globals[$g as usize];
                let target = self.gcall[$g as usize];
                debug_assert_eq!(target, self.call_target(f), "stale call cache for global {}", $g);
                if f == Value::UNDEFINED {
                    fail!(self.unbound("unbound variable", $g));
                }
                acc = f;
                self.calls += 1;
                $frame;
                if target == CallTarget::NONE {
                    if let Some(v) = ool!(self.apply(f, $argc as usize))? {
                        return Ok(v);
                    }
                } else {
                    self.closure = f;
                    self.argc = $argc as usize;
                    pc = target.base as usize;
                }
            }};
        }
        // Returns `acc` through the slot at the frame base: a plain return
        // address with no multiple values pending is delivered inline, its
        // frame size read from the code stream before the return point.
        macro_rules! ret {
            () => {{
                match *self.stack.get(self.stack.fp()) {
                    Slot::Ret { pc: ret_pc, closure } if self.mv.is_none() => {
                        self.stack.pop_frame(ret_disp(flat, ret_pc));
                        self.closure = closure;
                        pc = ret_pc as usize;
                    }
                    _ => {
                        if let Some(v) = ool!(self.do_return())? {
                            return Ok(v);
                        }
                    }
                }
            }};
        }

        loop {
            let op = flat[pc];
            pc += 1;
            retired += 1;
            if HIST {
                if let Some(hist) = &mut self.opcode_hist {
                    hist[op.kind_index()] += 1;
                }
            }
            match op {
                Op::Const(i) => acc = self.consts[i as usize],
                Op::FixInt(n) => acc = Value::fixnum(n.into()),
                Op::Unspec => acc = Value::UNSPECIFIED,
                Op::LocalRef(i) => acc = self.local(i as usize),
                Op::LocalSet(i) => set_local!(i, acc),
                Op::FreeRef(i) => acc = self.free_value(i as usize),
                Op::CellRefLocal(i) => {
                    let c = self.local(i as usize);
                    acc = self.cell_get(c);
                }
                Op::CellRefFree(i) => {
                    let c = self.free_value(i as usize);
                    acc = self.cell_get(c);
                }
                Op::CellSetLocal(i) => {
                    let c = self.local(i as usize);
                    cell_set(&mut self.heap, c, acc);
                }
                Op::CellSetFree(i) => {
                    let c = self.free_value(i as usize);
                    cell_set(&mut self.heap, c, acc);
                }
                Op::MakeCell(i) => {
                    let v = self.local(i as usize);
                    let cell = Value::obj(self.heap.alloc(Obj::Cell(v)));
                    set_local!(i, cell);
                }
                Op::GlobalRef(i) => {
                    let v = self.globals[i as usize];
                    if v == Value::UNDEFINED {
                        fail!(self.unbound("unbound variable", i));
                    }
                    acc = v;
                }
                Op::GlobalSet(i) => {
                    if self.globals[i as usize] == Value::UNDEFINED {
                        fail!(self.unbound("assignment to unbound variable", i));
                    }
                    ool!(self.write_global(i as usize, acc));
                }
                Op::GlobalDef(i) => ool!(self.write_global(i as usize, acc)),
                Op::Closure(i) => {
                    // Gather captures into a stack buffer: together with
                    // the heap's inline closure payload, small closures
                    // (the common case) never touch the Rust allocator.
                    let n = self.codes[i as usize].free_spec.len();
                    if n <= 8 {
                        let mut buf = [Value::UNDEFINED; 8];
                        for (j, slot) in buf[..n].iter_mut().enumerate() {
                            *slot = match self.codes[i as usize].free_spec[j] {
                                oneshot_compiler::FreeSrc::Local(k) => self.local(k as usize),
                                oneshot_compiler::FreeSrc::Free(k) => self.free_value(k as usize),
                            };
                        }
                        acc = Value::obj(self.heap.alloc_closure(i, &buf[..n]));
                    } else {
                        let free: Vec<Value> = self.codes[i as usize]
                            .free_spec
                            .iter()
                            .map(|s| match *s {
                                oneshot_compiler::FreeSrc::Local(j) => self.local(j as usize),
                                oneshot_compiler::FreeSrc::Free(j) => self.free_value(j as usize),
                            })
                            .collect();
                        acc = Value::obj(self.heap.alloc_closure(i, &free));
                    }
                }
                Op::Jump(off) => pc = pc.wrapping_add_signed(off as isize),
                Op::BranchFalse(off) => branch_unless!(acc.is_true(), off),
                Op::Entry { required, rest, need } => {
                    // The whole prologue of an exact-arity call that fits
                    // its segment on an unguarded VM with no segment fault
                    // armed and no collection due: one test, then the
                    // timer tick. Everything else is `entry`, which
                    // re-derives all of it.
                    let need = need as usize;
                    if rest
                        || self.argc != required as usize
                        || self.guards_active
                        || self.stack.segment_fault_armed()
                        || self.stack.headroom() < need
                        || self.heap.wants_collection()
                    {
                        // When a timer interrupt fires, `entry` has already
                        // transferred control to the handler; just keep
                        // going.
                        ool!(self.entry(required as usize, rest, need))?;
                    } else if self.timer_on && timer_expires(&mut self.fuel, &mut self.timer_on) {
                        ool!(self.fire_timer_interrupt())?;
                    }
                }
                Op::Call { disp, argc } => {
                    self.calls += 1;
                    push_ret!(disp);
                    call!(acc, argc);
                }
                Op::TailCall { disp, argc } => {
                    self.calls += 1;
                    shift_args!(disp, argc);
                    call!(acc, argc);
                }
                Op::Return => ret!(),
                // --- inline primitives ---
                Op::Add(i) => arith!(Arith::Add, self.local(i as usize), acc),
                Op::Sub(i) => arith!(Arith::Sub, self.local(i as usize), acc),
                Op::Mul(i) => arith!(Arith::Mul, self.local(i as usize), acc),
                Op::Lt(i) => {
                    compare!(Cmp::Lt, self.local(i as usize), acc);
                }
                Op::Le(i) => {
                    compare!(Cmp::Le, self.local(i as usize), acc);
                }
                Op::Gt(i) => {
                    compare!(Cmp::Gt, self.local(i as usize), acc);
                }
                Op::Ge(i) => {
                    compare!(Cmp::Ge, self.local(i as usize), acc);
                }
                Op::NumEq(i) => {
                    compare!(Cmp::Eq, self.local(i as usize), acc);
                }
                Op::Cons(i) => {
                    let car = self.local(i as usize);
                    acc = Value::obj(self.heap.alloc_pair(car, acc));
                }
                Op::Eq(i) => acc = Value::boolean(self.local(i as usize) == acc),
                Op::Car => match acc.as_obj().and_then(|r| self.heap.pair(r)) {
                    Some((a, _)) => acc = a,
                    None => fail!(self.type_error("car", "pair", acc)),
                },
                Op::Cdr => match acc.as_obj().and_then(|r| self.heap.pair(r)) {
                    Some((_, d)) => acc = d,
                    None => fail!(self.type_error("cdr", "pair", acc)),
                },
                Op::NullP => acc = Value::boolean(acc == Value::NIL),
                Op::PairP => acc = Value::boolean(acc.is_pair()),
                Op::Not => acc = Value::boolean(!acc.is_true()),
                Op::ZeroP => acc = Value::boolean(tri!(self.is_zero(acc))),
                Op::Add1 => arith!(Arith::Add, acc, Value::fixnum(1)),
                Op::Sub1 => arith!(Arith::Sub, acc, Value::fixnum(1)),
                Op::VecRef(i) => {
                    let v = self.local(i as usize);
                    acc = tri!(self.vector_ref(v, acc));
                }
                Op::VecSet { v, i } => {
                    let vec = self.local(v as usize);
                    let idx = self.local(i as usize);
                    tri!(vector_set(&mut self.heap, &self.syms, vec, idx, acc));
                    acc = Value::UNSPECIFIED;
                }
                // --- superinstructions (peephole-fused pairs) ---
                // Each arm computes exactly what the unfused pair computed,
                // including the value left in `acc`, so fusion never changes
                // results or stack/control counters.
                Op::BrLt { i, off } => {
                    branch_unless!(compare!(Cmp::Lt, self.local(i as usize), acc), off);
                }
                Op::BrLe { i, off } => {
                    branch_unless!(compare!(Cmp::Le, self.local(i as usize), acc), off);
                }
                Op::BrGt { i, off } => {
                    branch_unless!(compare!(Cmp::Gt, self.local(i as usize), acc), off);
                }
                Op::BrGe { i, off } => {
                    branch_unless!(compare!(Cmp::Ge, self.local(i as usize), acc), off);
                }
                Op::BrNumEq { i, off } => {
                    branch_unless!(compare!(Cmp::Eq, self.local(i as usize), acc), off);
                }
                Op::BrEq { i, off } => {
                    acc = Value::boolean(self.local(i as usize) == acc);
                    branch_unless!(acc.is_true(), off);
                }
                Op::BrZeroP(off) => {
                    acc = Value::boolean(tri!(self.is_zero(acc)));
                    branch_unless!(acc.is_true(), off);
                }
                Op::BrNullP(off) => {
                    acc = Value::boolean(acc == Value::NIL);
                    branch_unless!(acc.is_true(), off);
                }
                Op::ReturnLocal(i) => {
                    acc = self.local(i as usize);
                    ret!();
                }
                Op::AddImm { i, n } => {
                    arith!(Arith::Add, self.local(i as usize), Value::fixnum(n.into()));
                }
                Op::SubImm { i, n } => {
                    arith!(Arith::Sub, self.local(i as usize), Value::fixnum(n.into()));
                }
                Op::Move { src, dst } => {
                    acc = self.local(src as usize);
                    set_local!(dst, acc);
                }
                Op::BrLtImm { i, n, off } => {
                    let rhs = Value::fixnum(n.into());
                    branch_unless!(compare!(Cmp::Lt, self.local(i as usize), rhs), off);
                }
                Op::CallGlobal { g, disp, argc } => call_global!(g, argc, push_ret!(disp)),
                Op::TailCallGlobal { g, disp, argc } => {
                    call_global!(g, argc, shift_args!(disp, argc));
                }
                Op::MoveFree { src, dst } => {
                    acc = self.free_value(src as usize);
                    set_local!(dst, acc);
                }
                Op::SubImmTo { i, dst, n } => {
                    arith!(Arith::Sub, self.local(i as usize), Value::fixnum(n.into()));
                    set_local!(dst, acc);
                }
                Op::LtLL { a, b } => {
                    compare!(Cmp::Lt, self.local(a as usize), self.local(b as usize));
                }
                Op::BrTrue(off) => {
                    let was_true = acc.is_true();
                    acc = Value::boolean(!was_true);
                    if was_true {
                        pc = pc.wrapping_add_signed(off as isize);
                    }
                }
            }
        }
    }

    /// The first instruction of `f`, if `f` is a closure — the inline half
    /// of [`Vm::apply`].
    #[inline]
    fn closure_entry(&self, f: Value) -> Option<usize> {
        let (code, _) = self.heap.closure(f.as_obj()?)?;
        Some(self.entries[code as usize] as usize)
    }

    /// What the call cache holds for a global cell containing `f`.
    #[inline]
    pub(crate) fn call_target(&self, f: Value) -> CallTarget {
        match self.closure_entry(f) {
            Some(base) => CallTarget { base: base as u32 },
            None => CallTarget::NONE,
        }
    }

    /// Stores `v` in global cell `g` and refreshes the cell's call-cache
    /// entry — the one way a global cell is written.
    #[inline]
    pub(crate) fn write_global(&mut self, g: usize, v: Value) {
        self.globals[g] = v;
        self.gcall[g] = self.call_target(v);
    }

    /// `(zero? v)`: the `ZeroP` instruction, its fused branch and the
    /// builtin.
    #[inline]
    pub(crate) fn is_zero(&self, v: Value) -> R<bool> {
        match v.unpack() {
            Unpacked::Fixnum(n) => Ok(n == 0),
            Unpacked::Flonum(x) => Ok(x == 0.0),
            _ => Err(self.type_error("zero?", "number", v)),
        }
    }

    /// Function prologue, in full: arity, overflow check, rest collection,
    /// GC safe point, timer tick. Returns true when a timer interrupt
    /// transferred control to the handler. The dispatch loop runs the
    /// common case of this inline and calls here for the rest; this is the
    /// complete prologue, so calling it in the common case is also correct.
    /// Kept out of the loop's body, but not `#[cold]`: on a guarded VM and
    /// for every variadic procedure it is the path taken.
    #[inline(never)]
    fn entry(&mut self, required: usize, rest: bool, need: usize) -> R<bool> {
        let argc = self.argc;
        if !admits(required, rest, argc) {
            return Err(arity_error(&self.code_name(self.pc), required, rest, argc));
        }
        // Winder entries are critical sections: an asynchronous guard fault
        // delivered between the wind machinery's bookkeeping (winder pushed
        // or popped) and the winder thunk's body would unbalance
        // enter/exit. Defer every injected fault and budget check to the
        // next ordinary entry; genuine errors still propagate. The whole
        // fault block sits behind the single `guards_active` flag so an
        // unguarded VM pays one predicted branch here, nothing more.
        let winder = self.guards_active && self.entering_winder();
        if winder {
            self.stack.defer_segment_fault(true);
        }
        let ensured = self.ensure_or_raise(need, 1 + argc);
        if winder {
            self.stack.defer_segment_fault(false);
        }
        ensured?;
        if rest {
            let mut list = Value::NIL;
            for i in (required..argc).rev() {
                let v = self.local(1 + i);
                list = Value::obj(self.heap.alloc_pair(v, list));
            }
            self.set_local(1 + required, list);
        }
        let live = 1 + required + usize::from(rest);
        if self.heap.wants_collection() {
            self.collect(live);
        }
        if self.guards_active && !winder {
            if let Some(transferred) = self.entry_guard_checks(live)? {
                return Ok(transferred);
            }
        }
        if self.timer_on && timer_expires(&mut self.fuel, &mut self.timer_on) {
            return self.fire_timer_interrupt();
        }
        Ok(false)
    }

    /// The resource-guard and injected-fault checks run at each function
    /// entry of a guarded VM, out of line so `entry` itself stays small
    /// on the unguarded hot path. `Some(transferred)` means the entry is
    /// done (an injected timer expiry fired the interrupt); `None` means
    /// continue the ordinary prologue.
    #[cold]
    #[inline(never)]
    fn entry_guard_checks(&mut self, live: usize) -> R<Option<bool>> {
        if self.heap.take_alloc_fault() {
            self.faults_injected += 1;
            return Err(VmError::condition(
                ConditionKind::OutOfMemory,
                "injected allocation failure",
            ));
        }
        if let Some(budget) = self.heap_budget {
            if self.heap.len() > budget {
                // One more collection right at the budget boundary;
                // raise only if the live set genuinely exceeds it.
                self.collect(live);
                if self.heap.len() > budget && !self.oom_raised {
                    self.oom_raised = true;
                    return Err(VmError::condition(
                        ConditionKind::OutOfMemory,
                        format!(
                            "heap budget exceeded: {} live objects over budget of {budget}",
                            self.heap.len()
                        ),
                    ));
                }
            } else if self.oom_raised {
                self.oom_raised = false;
            }
        }
        if self.timer_fault.tick() {
            // Injected early timer expiry: preempt as if fuel ran out,
            // whether or not the timer is running. Without a handler
            // (bare VM) it surfaces as the catchable fuel-exhausted
            // condition.
            self.faults_injected += 1;
            self.timer_on = false;
            self.fuel = 0;
            return self.fire_timer_interrupt().map(Some);
        }
        Ok(None)
    }

    /// Whether the frame being entered belongs to a winder thunk, run by
    /// `dynamic-wind` or by the winder walk: its return slot is one of the
    /// winder resume markers. (The body thunk resumes through `WindAfter`
    /// and is *not* a winder — faults deliver normally inside the extent.)
    fn entering_winder(&self) -> bool {
        matches!(
            self.stack.get(self.stack.fp()),
            Slot::Resume {
                kind: Resume::WindBody | Resume::WindDone | Resume::Unwound | Resume::Rewound,
                ..
            }
        )
    }

    /// Calls the timer handler such that its normal return resumes the
    /// interrupted function just past its (already completed) prologue:
    /// the return point follows that `Entry`, which gives the frame's size.
    fn fire_timer_interrupt(&mut self) -> R<bool> {
        let handler = self.timer_handler;
        if !(handler.is_obj() || handler.is_builtin()) {
            return Err(VmError::condition(
                ConditionKind::FuelExhausted,
                "timer expired with no interrupt handler",
            ));
        }
        let pc = self.pc as u32;
        let fs = ret_disp(&self.flat, pc);
        let fp = self.stack.fp();
        self.stack.set(fp + fs, Slot::Ret { pc, closure: self.closure });
        self.stack.set_fp(fp + fs);
        self.calls += 1;
        if self.apply(handler, 0)?.is_some() {
            // A handler that is the empty continuation (one captured in
            // an earlier program's tail position) ends the chain here; the
            // interrupted program has no value to complete with.
            return Err(VmError::condition(
                ConditionKind::Error,
                "timer handler exhausted the continuation chain",
            ));
        }
        Ok(true)
    }

    /// Applies `f` to `argc` arguments already placed at `fp+1..`.
    /// Returns `Some(final)` if the program completed (underflowed out).
    pub(crate) fn apply(&mut self, f: Value, argc: usize) -> R<Option<Value>> {
        if let Some(base) = self.closure_entry(f) {
            self.closure = f;
            self.pc = base;
            self.argc = argc;
            return Ok(None);
        }
        match f.unpack() {
            Unpacked::Obj(r) => match self.heap.kont(r) {
                Some((kont, winders)) => self.invoke_kont(f, kont, winders, argc),
                None => Err(self.type_error("apply", "procedure", f)),
            },
            Unpacked::Builtin(i) => {
                let flow = self.call_builtin(i, argc)?;
                self.flow(flow)
            }
            _ => Err(self.type_error("apply", "procedure", f)),
        }
    }

    /// Acts on a builtin's control-flow outcome.
    pub(crate) fn flow(&mut self, flow: Flow) -> R<Option<Value>> {
        match flow {
            Flow::Return => self.do_return(),
            Flow::Tail { f, argc } => {
                self.calls += 1;
                self.apply(f, argc)
            }
            Flow::Continue => Ok(None),
            Flow::Halt(v) => Ok(Some(v)),
        }
    }

    /// Delivers control through an ordinary return address: rejects
    /// pending multiple values, pops the frame, restores the caller's
    /// registers.
    fn deliver_ret(&mut self, pc: u32, closure: Value) -> R<()> {
        if self.mv.is_some() {
            let n = self.mv.as_ref().map_or(0, Vec::len);
            self.mv = None;
            return Err(VmError::condition(
                ConditionKind::ValuesError,
                format!("returned {n} values to single value return context"),
            ));
        }
        self.stack.pop_frame(ret_disp(&self.flat, pc));
        self.pc = pc as usize;
        self.closure = closure;
        Ok(())
    }

    /// Returns `acc` (or pending multiple values) through the slot at the
    /// frame base. `Some(final)` when the program completed.
    pub(crate) fn do_return(&mut self) -> R<Option<Value>> {
        {
            let slot = *self.stack.get(self.stack.fp());
            match slot {
                Slot::Ret { pc, closure } => {
                    self.deliver_ret(pc, closure)?;
                    Ok(None)
                }
                Slot::Resume { kind, disp } => {
                    self.stack.pop_frame(disp as usize);
                    let flow = self.resume(kind)?;
                    match self.flow(flow)? {
                        Some(v) => Ok(Some(v)),
                        None => Ok(None),
                    }
                }
                Slot::Marker => {
                    let underflow = self.stack.underflow(&slot_disp(&self.flat));
                    match underflow.map_err(control_error)? {
                        Underflow::Exhausted => {
                            let v = self.acc;
                            self.mv = None;
                            Ok(Some(v))
                        }
                        Underflow::Resumed(r) => {
                            // The reinstated return address already encodes
                            // everything; dispatch on it directly.
                            self.dispatch_reinstated_ret(r.ret)
                        }
                    }
                }
                Slot::Val(v) => Err(VmError::internal(format!("return through value slot {v:?}"))),
            }
        }
    }

    // ------------------------------------------------------------------
    // Control transfers: continuation invocation (Figures 3 and 4) and
    // the delimited-control primitives, all through one winder walk
    // ------------------------------------------------------------------

    /// Invokes continuation `k` — stack record `kont`, captured under
    /// `winders` — with the `argc` arguments at `fp+1..`.
    pub(crate) fn invoke_kont(
        &mut self,
        k: Value,
        kont: Option<KontId>,
        winders: Value,
        argc: usize,
    ) -> R<Option<Value>> {
        if self.winders == winders {
            self.deliver_locals(1, argc);
            return self.reinstate(kont);
        }
        // `k` is in no stack slot: root it in `acc` while growing the
        // stack can collect.
        self.acc = k;
        self.ensure_or_raise(WALK_NEED.max(1 + argc), 1 + argc)?;
        let vals = self.stash_locals(1, argc);
        self.walk_to(winders, Arrival::Invoke, k, vals)
    }

    /// `(%take-subcont tag handler)`: detaches the continuation up to the
    /// nearest `tag` prompt — consuming the prompt — then walks out to the
    /// prompt's winder list and calls `handler` on the one-shot
    /// subcontinuation. The capture happens first, so `after` thunks run on
    /// the prompt's stack, outside the delimited extent, in the
    /// capture-then-unwind order `call/cc`-based `shift` observes.
    pub(crate) fn take_subcont(&mut self, tag: Value, handler: Value) -> R<Option<Value>> {
        let (kp, wp) = self.find_prompt(tag)?;
        let (head, r) =
            self.stack.take_subcont(kp, &slot_disp(&self.flat)).map_err(control_error)?;
        // Control is now at the prompt's frame; re-plant its return
        // address (a multi-shot reinstatement does not restore the fp
        // slot) and stage the walk above it.
        let fp = self.stack.fp();
        self.stack.set(fp, r.ret);
        let sk = Obj::Kont { kont: head, winders: self.winders, prompt: Some(wp) };
        let sk = Value::obj(self.heap.alloc(sk));
        // Nothing above `fp` is live yet, so root the subcontinuation (and
        // through it the detached records and `wp`) in `acc`, and the
        // handler in `closure` — both overwritten by whatever the walk
        // applies next — while growing the stack can collect.
        (self.acc, self.closure) = (sk, handler);
        self.ensure_or_raise(WALK_NEED, 1)?;
        self.walk_to(wp, Arrival::Take, sk, handler)
    }

    /// `(%push-subcont sk v...)`: splices subcontinuation `sk` (argument 0)
    /// onto the current stack, re-entering the `before` thunks of the
    /// extents captured in it, and delivers the values through its
    /// innermost frame. A second push raises `shot-twice`.
    pub(crate) fn push_subcont(&mut self, argc: usize) -> R<Option<Value>> {
        let sk = self.local(1);
        let Some((head, inside, prompt)) = sk.as_obj().and_then(|r| self.heap.subcont(r)) else {
            return Err(self.type_error("%push-subcont", "subcontinuation", sk));
        };
        if inside == prompt {
            self.deliver_locals(2, argc - 1);
            return self.splice(head);
        }
        self.ensure_or_raise(WALK_NEED.max(1 + argc), 1 + argc)?;
        // The target: the extent's winder pairs re-consed, in order, onto
        // the current list, so the re-entered extent nests in the context
        // the subcontinuation is spliced into, not the one it was taken
        // from.
        let (mut target, mut last) = (self.winders, None);
        let mut node = inside;
        while node != prompt {
            let copy = self.heap.alloc_pair(self.car_of(node)?, self.winders);
            match last.and_then(|r| self.heap.pair_mut(r)) {
                Some(pair) => pair.1 = Value::obj(copy),
                None => target = Value::obj(copy),
            }
            last = Some(copy);
            node = self.cdr_of(node)?;
        }
        let vals = self.stash_locals(2, argc - 1);
        self.walk_to(target, Arrival::Push, sk, vals)
    }

    /// `(%abort-to-prompt tag v...)`: discards the continuation up to the
    /// nearest `tag` prompt — running its `after` thunks — and returns the
    /// values from the prompt, never materializing the discarded context.
    pub(crate) fn abort_to_prompt(&mut self, argc: usize) -> R<Option<Value>> {
        let tag = self.local(1);
        let (kp, wp) = self.find_prompt(tag)?;
        if self.winders == wp {
            self.deliver_locals(2, argc - 1);
            return self.abort_to(kp);
        }
        self.ensure_or_raise(WALK_NEED.max(1 + argc), 1 + argc)?;
        let vals = self.stash_locals(2, argc - 1);
        self.walk_to(wp, Arrival::Abort, tag, vals)
    }

    /// Stages the winder walk's frame at `fp` — `[1]` the target winder
    /// list, `[2]` the arrival, `[3]` its object (the continuation, the
    /// subcontinuation, or the prompt tag) and `[4]` its payload (the
    /// stashed values, or take's handler) — and takes the first step. The
    /// caller has made `WALK_NEED` slots of room.
    fn walk_to(
        &mut self,
        target: Value,
        arrival: Arrival,
        obj: Value,
        payload: Value,
    ) -> R<Option<Value>> {
        let staged = [target, Value::fixnum(arrival as i64), obj, payload];
        for (i, v) in staged.into_iter().enumerate() {
            self.set_local(1 + i, v);
        }
        self.walk()
    }

    /// The winder walk: one step from `self.winders` toward the staged
    /// target. While the current list is not a tail of the target, leave
    /// its innermost winder (pop it, run its `after`); then enter the
    /// outermost target winder not yet entered (run its `before`; the list
    /// moves onto its node when the thunk returns, in `Resume::Rewound`).
    /// At the target, arrive. Every step recomputes its position from
    /// `self.winders`, so a winder thunk that captures, escapes or
    /// re-enters leaves the walk consistent.
    fn walk(&mut self) -> R<Option<Value>> {
        let target = self.local(1);
        if self.winders == target {
            return self.arrive();
        }
        let common = self.common_tail(self.winders, target);
        if self.winders != common {
            let winder = self.car_of(self.winders)?;
            self.winders = self.cdr_of(self.winders)?;
            let after = self.cdr_of(winder)?;
            return self.call_winder(after, Resume::Unwound);
        }
        let enter = self.next_to_enter(target, common)?;
        let before = self.car_of(self.car_of(enter)?)?;
        self.call_winder(before, Resume::Rewound)
    }

    /// The node of `target` just above `common`: the outermost winder a
    /// walk toward `target` has yet to enter.
    fn next_to_enter(&self, target: Value, common: Value) -> R<Value> {
        let (mut node, mut enter) = (target, target);
        while node != common {
            enter = node;
            node = self.cdr_of(node)?;
        }
        Ok(enter)
    }

    /// Longest common tail of two winder lists (by node identity): measure
    /// both, drop the longer one's surplus, then step the two together
    /// until they meet. Linear and allocation-free — this runs once per
    /// walk step.
    fn common_tail(&self, mut a: Value, mut b: Value) -> Value {
        let cdr = |v: Value| v.as_obj().and_then(|r| self.heap.pair(r)).map(|(_, d)| d);
        let len = |mut v: Value| {
            let mut n = 0usize;
            while let Some(d) = cdr(v) {
                n += 1;
                v = d;
            }
            n
        };
        let (la, lb) = (len(a), len(b));
        for _ in lb..la {
            a = cdr(a).unwrap_or(Value::NIL);
        }
        for _ in la..lb {
            b = cdr(b).unwrap_or(Value::NIL);
        }
        while a != b {
            match (cdr(a), cdr(b)) {
                (Some(x), Some(y)) => (a, b) = (x, y),
                _ => return Value::NIL,
            }
        }
        a
    }

    /// Calls a winder thunk in a subframe above the walk's frame.
    fn call_winder(&mut self, thunk: Value, kind: Resume) -> R<Option<Value>> {
        let fp = self.stack.fp();
        self.stack.set(fp + WALK_FRAME, Slot::Resume { kind, disp: WALK_FRAME as u32 });
        self.stack.set_fp(fp + WALK_FRAME);
        self.calls += 1;
        self.apply(thunk, 0)
    }

    /// The walk reached its target: completes the transfer it was staged
    /// for. An abort re-resolves its prompt here — winder thunks run
    /// arbitrary code, so the prompt's identity, not a raw record id held
    /// across the walk, is authoritative.
    fn arrive(&mut self) -> R<Option<Value>> {
        let (obj, payload) = (self.local(3), self.local(4));
        let corrupt = || VmError::internal("winder walk frame corrupt");
        let arrival = self.local(2).as_fixnum().and_then(|n| Arrival::ALL.get(n as usize));
        match arrival.ok_or_else(corrupt)? {
            Arrival::Invoke => {
                let (kont, _) = obj.as_obj().and_then(|r| self.heap.kont(r)).ok_or_else(corrupt)?;
                self.deliver_stashed(payload)?;
                self.reinstate(kont)
            }
            Arrival::Take => {
                // The handler's one argument goes where a call frame
                // wants it.
                self.set_local(1, obj);
                self.calls += 1;
                self.apply(payload, 1)
            }
            Arrival::Push => {
                let (head, ..) =
                    obj.as_obj().and_then(|r| self.heap.subcont(r)).ok_or_else(corrupt)?;
                self.deliver_stashed(payload)?;
                self.splice(head)
            }
            Arrival::Abort => {
                let (kp, _) = self.find_prompt(obj)?;
                self.deliver_stashed(payload)?;
                self.abort_to(kp)
            }
        }
    }

    /// Dispatches a staged-builtin resume (frame pointer already popped to
    /// the staged frame).
    fn resume(&mut self, kind: Resume) -> R<Flow> {
        match kind {
            Resume::WindBody => self.dynamic_wind_body(),
            Resume::WindAfter => self.dynamic_wind_after(),
            Resume::WindDone => self.dynamic_wind_done(),
            Resume::CwvConsume => self.cwv_consume(),
            Resume::PromptReturn => {
                // The delimited body returned normally: the value in the
                // accumulator flows out through the prompt's continuation.
                Ok(Flow::Return)
            }
            Resume::Unwound => Ok(self.walk()?.into()),
            Resume::Rewound => {
                let target = self.local(1);
                let common = self.common_tail(self.winders, target);
                self.winders = self.next_to_enter(target, common)?;
                Ok(self.walk()?.into())
            }
        }
    }

    /// Sets `acc`/`mv` to the `n` values at locals `first..`: one value
    /// rides in `acc` alone, with no allocation.
    fn deliver_locals(&mut self, first: usize, n: usize) {
        if n == 1 {
            self.acc = self.local(first);
            self.mv = None;
        } else {
            self.mv = Some((first..first + n).map(|i| self.local(i)).collect());
            self.acc = Value::UNSPECIFIED;
        }
    }

    /// Copies the `n` values at locals `first..` into a heap vector that
    /// survives the walk's winder calls.
    fn stash_locals(&mut self, first: usize, n: usize) -> Value {
        let vals = (first..first + n).map(|i| self.local(i)).collect();
        Value::obj(self.heap.alloc(Obj::Vector(vals)))
    }

    /// Sets `acc`/`mv` from a vector [`Vm::stash_locals`] made.
    fn deliver_stashed(&mut self, stash: Value) -> R<()> {
        let Some(vals) = stash.as_obj().and_then(|r| self.heap.vector(r)) else {
            return Err(VmError::internal("winder walk values missing"));
        };
        (self.acc, self.mv) = match vals {
            [v] => (*v, None),
            _ => (Value::UNSPECIFIED, Some(vals.to_vec())),
        };
        Ok(())
    }

    /// Reinstates continuation record `kont` (Figure 3/4), delivering the
    /// values already in `acc`/`mv`.
    fn reinstate(&mut self, kont: Option<KontId>) -> R<Option<Value>> {
        let Some(k) = kont else {
            // The empty continuation: the program completes with this value.
            self.stack.clear_to_empty();
            let v = self.acc;
            self.mv = None;
            return Ok(Some(v));
        };
        let r = self.stack.reinstate(k, &slot_disp(&self.flat)).map_err(control_error)?;
        self.dispatch_reinstated_ret(r.ret)
    }

    /// Splices subcontinuation record `head` onto the current stack,
    /// delivering the values already in `acc`/`mv` through its innermost
    /// frame.
    fn splice(&mut self, head: Option<KontId>) -> R<Option<Value>> {
        let Some(head) = head else {
            // An empty subcontinuation: delivering the values is just
            // returning them from the `%push-subcont` call.
            return self.do_return();
        };
        let r = self.stack.push_subcont(head, &slot_disp(&self.flat)).map_err(control_error)?;
        self.dispatch_reinstated_ret(r.ret)
    }

    /// Returns the values already in `acc`/`mv` from prompt record `kp`.
    fn abort_to(&mut self, kp: KontId) -> R<Option<Value>> {
        let r = self.stack.abort_to_prompt(kp, &slot_disp(&self.flat)).map_err(control_error)?;
        self.dispatch_reinstated_ret(r.ret)
    }

    /// Dispatches the return address a core reinstatement handed back
    /// (full, underflow, or delimited): delivers through a `Ret`, resumes
    /// a staged builtin, and rejects anything else.
    pub(crate) fn dispatch_reinstated_ret(&mut self, ret: Slot) -> R<Option<Value>> {
        match ret {
            Slot::Ret { pc, closure } => {
                self.deliver_ret(pc, closure)?;
                Ok(None)
            }
            Slot::Resume { kind, disp } => {
                self.stack.pop_frame(disp as usize);
                let flow = self.resume(kind)?;
                self.flow(flow)
            }
            other => {
                Err(VmError::internal(format!("continuation with non-return ret slot {other:?}")))
            }
        }
    }

    /// Locates the nearest prompt on the continuation chain whose tag pair
    /// matches `tag`, returning its record id and the winder list that was
    /// current when it was pushed.
    pub(crate) fn find_prompt_opt(&self, tag: Value) -> Option<(KontId, Value)> {
        let heap = &self.heap;
        let mut wp = Value::NIL;
        let id = self.stack.find_prompt(|s| {
            let Slot::Val(tp) = *s else { return false };
            let Some((t, w)) = tp.as_obj().and_then(|r| heap.pair(r)) else { return false };
            if t == tag {
                wp = w;
                true
            } else {
                false
            }
        })?;
        Some((id, wp))
    }

    /// As [`Vm::find_prompt_opt`], raising the catchable
    /// `no-matching-prompt` condition on a miss.
    pub(crate) fn find_prompt(&self, tag: Value) -> R<(KontId, Value)> {
        self.find_prompt_opt(tag).ok_or_else(|| {
            VmError::condition(
                ConditionKind::NoMatchingPrompt,
                format!(
                    "no prompt tagged {} is on the continuation",
                    oneshot_runtime::write_value(&self.heap, &self.syms, tag)
                ),
            )
        })
    }

    // ------------------------------------------------------------------
    // Small helpers
    // ------------------------------------------------------------------

    pub(crate) fn car_of(&self, v: Value) -> R<Value> {
        match v.as_obj().and_then(|r| self.heap.pair(r)) {
            Some((a, _)) => Ok(a),
            None => Err(self.type_error("car", "pair", v)),
        }
    }

    pub(crate) fn cdr_of(&self, v: Value) -> R<Value> {
        match v.as_obj().and_then(|r| self.heap.pair(r)) {
            Some((_, d)) => Ok(d),
            None => Err(self.type_error("cdr", "pair", v)),
        }
    }

    pub(crate) fn vector_ref(&self, v: Value, idx: Value) -> R<Value> {
        let Some(r) = v.as_obj() else {
            return Err(self.type_error("vector-ref", "vector", v));
        };
        let Some(items) = self.heap.vector(r) else {
            return Err(self.type_error("vector-ref", "vector", v));
        };
        let Some(i) = idx.as_fixnum() else {
            return Err(self.type_error("vector-ref", "index", idx));
        };
        usize::try_from(i)
            .ok()
            .and_then(|i| items.get(i).copied())
            .ok_or_else(|| range_error(format!("vector-ref: index {i} out of range")))
    }

    pub(crate) fn type_error(&self, who: &str, expected: &str, got: Value) -> Box<VmError> {
        type_error(&self.heap, &self.syms, who, expected, got)
    }
}

/// Whether `argc` arguments fit a lambda list of `required` parameters,
/// plus a rest parameter when `rest`: the one arity rule, for closures
/// (`entry`) and builtins ([`Vm::call_builtin`]) alike.
#[inline]
pub(crate) fn admits(required: usize, rest: bool, argc: usize) -> bool {
    argc >= required && (rest || argc == required)
}

/// The catchable `arity-error` for procedure `name` called with `argc`
/// arguments.
#[cold]
#[inline(never)]
pub(crate) fn arity_error(name: &str, required: usize, rest: bool, argc: usize) -> Box<VmError> {
    let plus = if rest { "+" } else { "" };
    VmError::condition(
        ConditionKind::ArityError,
        format!("{name}: expected {required}{plus} arguments, got {argc}"),
    )
}

fn type_error(heap: &Heap, syms: &Symbols, who: &str, expected: &str, got: Value) -> Box<VmError> {
    VmError::condition(
        ConditionKind::TypeError,
        format!(
            "{who}: expected {expected}, got {}",
            oneshot_runtime::write_value(heap, syms, got)
        ),
    )
}

/// The catchable `range-error`, out of line: index refusals sit beside
/// the dispatch loop's in-line vector paths.
#[cold]
#[inline(never)]
pub(crate) fn range_error(message: impl Into<String>) -> Box<VmError> {
    VmError::condition(ConditionKind::RangeError, message)
}

/// How a core control refusal reaches the guest, whichever transfer met
/// it: the catchable `shot-twice` and `no-matching-prompt` conditions. A
/// dead continuation is internal: every continuation the guest holds is a
/// collector root, so only a broken VM reaches one.
fn control_error(e: ControlError) -> Box<VmError> {
    let kind = match e {
        ControlError::AlreadyShot => ConditionKind::ShotTwice,
        ControlError::NoMatchingPrompt => ConditionKind::NoMatchingPrompt,
        _ => return VmError::internal(e.to_string()),
    };
    VmError::condition(kind, e.to_string())
}

/// Where the winder walk ends up: the transfer it completes once
/// `winders` reaches its target.
#[derive(Debug, Clone, Copy)]
enum Arrival {
    /// Reinstate a continuation with the stashed values.
    Invoke,
    /// Call take's handler on the subcontinuation.
    Take,
    /// Splice a subcontinuation, delivering the stashed values.
    Push,
    /// Re-find the tagged prompt and return the stashed values from it.
    Abort,
}

impl Arrival {
    /// Indexed by the discriminant the walk's frame stores as a fixnum.
    const ALL: [Arrival; 4] = [Arrival::Invoke, Arrival::Take, Arrival::Push, Arrival::Abort];
}

/// Where a winder thunk's subframe starts, above the walk's frame (its
/// return slot and four locals).
const WALK_FRAME: usize = 5;

/// The slots a transfer makes room for before staging the walk.
const WALK_NEED: usize = 8;

/// A call-cache entry: where calling the closure in a global cell starts,
/// or [`CallTarget::NONE`] when the cell holds anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CallTarget {
    /// Offset of the closure code's first instruction in [`Vm::flat`].
    base: u32,
}

impl CallTarget {
    /// Not a closure (unbound, builtin, continuation, non-procedure): the
    /// call takes the general path. No code object starts at this offset —
    /// the flat arena's `u32` offsets run out first.
    pub(crate) const NONE: CallTarget = CallTarget { base: u32::MAX };
}

/// `(vector-set! v idx x)`. Like [`cell_set`] a function of the heap (and
/// the symbol table its error messages print through), not of the VM, so
/// the dispatch loop calls it in line.
pub(crate) fn vector_set(heap: &mut Heap, syms: &Symbols, v: Value, idx: Value, x: Value) -> R<()> {
    let Some(r) = v.as_obj() else {
        return Err(type_error(heap, syms, "vector-set!", "vector", v));
    };
    let Some(i) = idx.as_fixnum() else {
        return Err(type_error(heap, syms, "vector-set!", "index", idx));
    };
    let Some(items) = heap.vector_mut(r) else {
        return Err(type_error(heap, syms, "vector-set!", "vector", v));
    };
    let slot = usize::try_from(i)
        .ok()
        .and_then(|i| items.get_mut(i))
        .ok_or_else(|| range_error(format!("vector-set!: index {i} out of range")))?;
    *slot = x;
    Ok(())
}

/// One tick of the running interval timer, at a procedure entry: burns a
/// unit of fuel and, when that was the last, stops the timer and says so —
/// the caller then fires the interrupt. A function of the two fields so
/// `entry` and the dispatch loop's inline prologue share it.
#[inline]
fn timer_expires(fuel: &mut u64, timer_on: &mut bool) -> bool {
    *fuel = fuel.saturating_sub(1);
    if *fuel == 0 {
        *timer_on = false;
    }
    *fuel == 0
}

/// Stores `v` into the cell `cell` refers to. A function of the heap
/// alone, so the dispatch loop can call it without giving up its borrow of
/// the instruction arena.
fn cell_set(heap: &mut Heap, cell: Value, v: Value) {
    let Some(r) = cell.as_obj() else { panic!("cell assignment to non-cell") };
    *heap.cell_mut(r).expect("cell assignment to non-cell") = v;
}

// ----------------------------------------------------------------------
// Numeric helpers (fixnum/flonum tower)
// ----------------------------------------------------------------------

/// A binary arithmetic operator, resolved where the instruction or builtin
/// is written so the fixnum path compiles to the bare machine operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arith {
    Add,
    Sub,
    Mul,
}

impl Arith {
    /// The operator's name in error messages.
    fn name(self) -> &'static str {
        match self {
            Arith::Add => "+",
            Arith::Sub => "-",
            Arith::Mul => "*",
        }
    }
}

/// A numeric comparison operator (see [`Arith`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
}

impl Cmp {
    /// The operator's name in error messages.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Eq => "=",
        }
    }

    /// Whether `a <op> b` holds given how `a` orders against `b`.
    #[inline(always)]
    pub(crate) fn holds(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::{Equal, Greater, Less};
        match self {
            Cmp::Lt => ord == Less,
            Cmp::Le => ord != Greater,
            Cmp::Gt => ord == Greater,
            Cmp::Ge => ord != Less,
            Cmp::Eq => ord == Equal,
        }
    }
}

/// `a <op> b` when both are fixnums and the result is one; `None` sends
/// the caller to [`arith_slow`].
#[inline(always)]
fn fix_arith(op: Arith, a: Value, b: Value) -> Option<Value> {
    let (x, y) = (a.as_fixnum()?, b.as_fixnum()?);
    Value::fixnum_checked(match op {
        // 50-bit payloads cannot overflow an i64 add or subtract; the range
        // test on the result is the whole overflow check.
        Arith::Add => x + y,
        Arith::Sub => x - y,
        // A 50x50-bit product can overflow the i64, so the multiply itself
        // stays checked before the payload range test.
        Arith::Mul => x.checked_mul(y)?,
    })
}

/// Everything [`fix_arith`] declines: fixnum overflow (a catchable
/// `error`), flonum and mixed arithmetic, and non-numbers (a `type-error`).
#[cold]
#[inline(never)]
fn arith_slow(op: Arith, a: Value, b: Value) -> R<Value> {
    if a.is_fixnum() && b.is_fixnum() {
        return Err(VmError::condition(
            ConditionKind::Error,
            format!("fixnum overflow in {}", op.name()),
        ));
    }
    let (x, y) = (as_f64(a, op.name())?, as_f64(b, op.name())?);
    Ok(Value::flonum(match op {
        Arith::Add => x + y,
        Arith::Sub => x - y,
        Arith::Mul => x * y,
    }))
}

/// `a <op> b` over the numeric tower.
#[inline(always)]
pub(crate) fn arith(op: Arith, a: Value, b: Value) -> R<Value> {
    match fix_arith(op, a, b) {
        Some(v) => Ok(v),
        None => arith_slow(op, a, b),
    }
}

/// A comparison with at least one operand that is not a fixnum.
#[cold]
#[inline(never)]
fn cmp_slow(op: Cmp, a: Value, b: Value) -> R<bool> {
    let (x, y) = (as_f64(a, op.name())?, as_f64(b, op.name())?);
    // NaN compares false under every ordering, as in R4RS systems with
    // IEEE flonums.
    Ok(x.partial_cmp(&y).is_some_and(|ord| op.holds(ord)))
}

/// Whether `a <op> b` holds, over the numeric tower.
#[inline(always)]
pub(crate) fn num_cmp(op: Cmp, a: Value, b: Value) -> R<bool> {
    match (a.as_fixnum(), b.as_fixnum()) {
        (Some(x), Some(y)) => Ok(op.holds(x.cmp(&y))),
        _ => cmp_slow(op, a, b),
    }
}

pub(crate) fn as_f64(v: Value, who: &str) -> R<f64> {
    match v.unpack() {
        Unpacked::Fixnum(n) => Ok(n as f64),
        Unpacked::Flonum(x) => Ok(x),
        _ => Err(VmError::condition(ConditionKind::TypeError, format!("{who}: expected number"))),
    }
}

#[cfg(test)]
mod tests {
    use oneshot_compiler::{CodeObject, CompiledProgram};
    use oneshot_sexp::Datum;

    use super::*;

    /// Runs a hand-assembled thunk that puts `operand` in slot 1 and a
    /// sentinel in slot 2, then executes `SubImmTo { i: 1, dst: 2, n: 1 }`.
    /// Returns the run's result and, if it failed, what slot 2 holds
    /// afterwards. The frame survives a failed run because this calls
    /// `run` itself, below the entry points that reset the stack — from
    /// the guest a faulting frame is unobservable (`raise` is applied in
    /// its place).
    fn sub_imm_to(operand: Datum) -> (R<Value>, Option<Value>) {
        let mut vm = Vm::new();
        let entry = vm.link(&CompiledProgram {
            codes: vec![CodeObject {
                name: "to-slot".into(),
                required: 0,
                rest: false,
                frame_slots: 3,
                ops: vec![
                    Op::Entry { required: 0, rest: false, need: 0 },
                    Op::Const(0),
                    Op::LocalSet(1),
                    Op::FixInt(77),
                    Op::LocalSet(2),
                    Op::SubImmTo { i: 1, dst: 2, n: 1 },
                    Op::Return,
                ],
                consts: vec![operand],
                free_spec: vec![],
            }],
            entry: 0,
            globals: vec![],
        });
        vm.pc = vm.entries[entry as usize] as usize;
        vm.argc = 0;
        let result = vm.run();
        let dst = result.is_err().then(|| vm.local(2));
        (result, dst)
    }

    #[test]
    fn a_failed_to_slot_subtract_leaves_its_destination_untouched() {
        let (ok, _) = sub_imm_to(Datum::Fixnum(10));
        assert_eq!(ok.unwrap(), Value::fixnum(9));
        let sentinel = Some(Value::fixnum(77));
        let (type_error, dst) = sub_imm_to(Datum::symbol("ten"));
        assert_eq!(type_error.unwrap_err().condition_kind(), Some("type-error"));
        assert_eq!(dst, sentinel);
        let (overflow, dst) = sub_imm_to(Datum::Fixnum(-(1 << 49)));
        assert!(overflow.unwrap_err().to_string().contains("fixnum overflow in -"));
        assert_eq!(dst, sentinel);
    }
}
