//! The execution engine: instruction dispatch, the call protocol, returns,
//! underflow, continuation invocation with `dynamic-wind` winding, and the
//! engine timer.

use oneshot_compiler::Op;
use oneshot_core::{KontId, Underflow};
use oneshot_runtime::{Heap, Obj, ObjKind, Symbols, Unpacked, Value};

use crate::error::{VmError, R};
use crate::slot::{slot_disp, Resume, Slot};
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

    /// Builds the unbound-variable error. Out of line and `#[cold]`: the
    /// hot `GlobalRef` path is a load plus one sentinel compare, with the
    /// message formatting kept off the fast path entirely.
    #[cold]
    #[inline(never)]
    fn unbound(&self, what: &str, i: u32) -> Box<VmError> {
        VmError::runtime(format!("{what}: {}", self.global_names[i as usize]))
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
    fn begin_raise(&mut self, kind: &'static str, message: String) -> R<Option<Value>> {
        let uncaught = |vm: &mut Vm, message: String| {
            vm.conditions_raised += 1;
            Err(Box::new(VmError::Uncaught {
                condition: message,
                kind: Some(kind.to_string()),
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
        let kind_sym = self.intern(kind);
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
                self.stack.set(
                    nfp,
                    Slot::Ret {
                        code: self.code,
                        pc: pc as u32,
                        disp: $disp.into(),
                        closure: self.closure,
                    },
                );
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
                if let Some((code, base)) = self.closure_entry(f) {
                    self.closure = f;
                    self.code = code;
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
                    self.code = target.code;
                    self.argc = $argc as usize;
                    pc = target.base as usize;
                }
            }};
        }
        // Returns `acc` through the slot at the frame base: a plain return
        // address with no multiple values pending is delivered inline.
        macro_rules! ret {
            () => {{
                match *self.stack.get(self.stack.fp()) {
                    Slot::Ret { code, pc: ret_pc, disp, closure } if self.mv.is_none() => {
                        self.stack.pop_frame(disp as usize);
                        self.code = code;
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
                Op::Const(i) => {
                    acc = self.codes[self.code as usize].consts[i as usize];
                }
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
                Op::Entry { required, rest } => {
                    // The whole prologue of an exact-arity call that fits
                    // its segment on an unguarded VM with no segment fault
                    // armed and no collection due: one test, then the
                    // timer tick. Everything else is `entry`, which
                    // re-derives all of it.
                    let need = self.entries[self.code as usize].need as usize;
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
                        ool!(self.entry(required as usize, rest))?;
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

    /// The code index and first instruction of `f`, if `f` is a closure —
    /// the inline half of [`Vm::apply`].
    #[inline]
    fn closure_entry(&self, f: Value) -> Option<(u32, usize)> {
        let (code, _) = self.heap.closure(f.as_obj()?)?;
        Some((code, self.entries[code as usize].base as usize))
    }

    /// What the call cache holds for a global cell containing `f`.
    #[inline]
    pub(crate) fn call_target(&self, f: Value) -> CallTarget {
        match self.closure_entry(f) {
            Some((code, base)) => CallTarget { code, base: base as u32 },
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
    fn entry(&mut self, required: usize, rest: bool) -> R<bool> {
        let argc = self.argc;
        if argc < required || (!rest && argc > required) {
            return Err(self.arity_error(required, rest, argc));
        }
        let need = self.entries[self.code as usize].need as usize;
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
            return Err(VmError::condition("out-of-memory", "injected allocation failure"));
        }
        if let Some(budget) = self.heap_budget {
            if self.heap.len() > budget {
                // One more collection right at the budget boundary;
                // raise only if the live set genuinely exceeds it.
                self.collect(live);
                if self.heap.len() > budget && !self.oom_raised {
                    self.oom_raised = true;
                    return Err(VmError::condition(
                        "out-of-memory",
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

    #[cold]
    #[inline(never)]
    fn arity_error(&self, required: usize, rest: bool, argc: usize) -> Box<VmError> {
        let name = &self.codes[self.code as usize].name;
        VmError::condition(
            "arity-error",
            format!(
                "{name}: expected {}{} arguments, got {argc}",
                required,
                if rest { "+" } else { "" }
            ),
        )
    }

    /// Whether the frame being entered belongs to a winder thunk invoked
    /// by the `dynamic-wind` machinery: its return slot is one of the wind
    /// resume markers. (The body thunk resumes through `WindAfter` and is
    /// *not* a winder — faults deliver normally inside the extent.)
    fn entering_winder(&self) -> bool {
        matches!(
            self.stack.get(self.stack.fp()),
            Slot::Resume {
                kind: Resume::WindBody
                    | Resume::WindDone
                    | Resume::KontWind
                    | Resume::KontWindEnter
                    | Resume::TakeWind
                    | Resume::SubWind
                    | Resume::AbortWind,
                ..
            }
        )
    }

    /// Calls the timer handler such that its normal return resumes the
    /// interrupted function just past its (already completed) prologue.
    fn fire_timer_interrupt(&mut self) -> R<bool> {
        let handler = self.timer_handler;
        if !(handler.is_obj() || handler.is_builtin()) {
            return Err(VmError::condition(
                "fuel-exhausted",
                "timer expired with no interrupt handler",
            ));
        }
        let fs = self.entries[self.code as usize].need as usize - 1;
        let fp = self.stack.fp();
        self.stack.set(
            fp + fs,
            Slot::Ret {
                code: self.code,
                pc: self.pc as u32,
                disp: fs as u32,
                closure: self.closure,
            },
        );
        self.stack.set_fp(fp + fs);
        self.calls += 1;
        if self.apply(handler, 0)?.is_some() {
            // A zero-argument handler cannot legitimately end the program
            // from here; treat as an error to avoid losing the fact.
            return Err(VmError::runtime("timer handler exhausted the continuation chain"));
        }
        Ok(true)
    }

    /// Applies `f` to `argc` arguments already placed at `fp+1..`.
    /// Returns `Some(final)` if the program completed (underflowed out).
    pub(crate) fn apply(&mut self, f: Value, argc: usize) -> R<Option<Value>> {
        if let Some((code, base)) = self.closure_entry(f) {
            self.closure = f;
            self.code = code;
            self.pc = base;
            self.argc = argc;
            return Ok(None);
        }
        match f.unpack() {
            Unpacked::Obj(r) => match r.kind() {
                ObjKind::Kont => {
                    let Some((kont, winders)) = self.heap.kont(r) else {
                        return Err(VmError::runtime("invocation of a collected continuation"));
                    };
                    self.invoke_kont(kont, winders, argc)
                }
                _ => Err(self.type_error("apply", "procedure", f)),
            },
            Unpacked::Builtin(i) => {
                let func = self.builtins[i as usize];
                let flow = func(self, argc)?;
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
    fn deliver_ret(&mut self, code: u32, pc: u32, disp: u32, closure: Value) -> R<()> {
        if self.mv.is_some() {
            let n = self.mv.as_ref().map_or(0, Vec::len);
            self.mv = None;
            return Err(VmError::runtime(format!(
                "returned {n} values to single value return context"
            )));
        }
        self.stack.pop_frame(disp as usize);
        self.code = code;
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
                Slot::Ret { code, pc, disp, closure } => {
                    self.deliver_ret(code, pc, disp, closure)?;
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
                    match self
                        .stack
                        .underflow(&slot_disp)
                        .map_err(|e| VmError::runtime(e.to_string()))?
                    {
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
                Slot::Val(v) => Err(VmError::runtime(format!("return through value slot {v:?}"))),
            }
        }
    }

    // ------------------------------------------------------------------
    // Continuation invocation (Figures 3 and 4, plus dynamic-wind)
    // ------------------------------------------------------------------

    /// Invokes a continuation value with `argc` arguments at `fp+1..`.
    pub(crate) fn invoke_kont(
        &mut self,
        kont: Option<KontId>,
        winders: Value,
        argc: usize,
    ) -> R<Option<Value>> {
        if self.winders == winders {
            // No winding: reinstate directly. One value is the
            // overwhelmingly common case (every `(k v)` invocation), so
            // keep it off the Rust allocator entirely.
            match argc {
                0 => return self.reinstate(kont, &[]),
                1 => {
                    let v = self.local(1);
                    return self.reinstate(kont, &[v]);
                }
                _ => {
                    let vals: Vec<Value> = (0..argc).map(|i| self.local(1 + i)).collect();
                    return self.reinstate(kont, &vals);
                }
            }
        }
        // Winding needed: stash the target and values in the current frame
        // and run winder thunks, one per step.
        let vals: Vec<Value> = (0..argc).map(|i| self.local(1 + i)).collect();
        self.ensure_or_raise((1 + argc).max(8), 1 + argc)?;
        let target = Value::obj(self.heap.alloc(Obj::Kont { kont, winders }));
        let vals_vec = Value::obj(self.heap.alloc(Obj::Vector(vals)));
        self.set_local(1, target);
        self.set_local(2, vals_vec);
        self.wind_step()
    }

    /// One step of winding toward the target continuation stashed in the
    /// current frame; recomputed from scratch each step so that winder
    /// thunks that themselves capture or invoke continuations behave
    /// consistently.
    pub(crate) fn wind_step(&mut self) -> R<Option<Value>> {
        let target_val = self.local(1);
        let Some(tr) = target_val.as_obj() else {
            return Err(VmError::runtime("wind target missing"));
        };
        let Some((kont, target_winders)) = self.heap.kont(tr) else {
            return Err(VmError::runtime("wind target is not a continuation"));
        };
        if self.winders == target_winders {
            let vals_val = self.local(2);
            let Some(vr) = vals_val.as_obj() else {
                return Err(VmError::runtime("wind values missing"));
            };
            let Some(vals) = self.heap.vector(vr) else {
                return Err(VmError::runtime("wind values missing"));
            };
            let vals = vals.to_vec();
            return self.reinstate(kont, &vals);
        }
        // Is the current winder list an extension of the common tail?
        let common = self.common_tail(self.winders, target_winders);
        if self.winders != common {
            // Leave the innermost current winder: pop, then run its after.
            let Some(wr) = self.winders.as_obj() else {
                return Err(VmError::runtime("winder list corrupt"));
            };
            let Some((winder, rest)) = self.heap.pair(wr) else {
                return Err(VmError::runtime("winder list corrupt"));
            };
            self.winders = rest;
            let after = self.cdr_of(winder)?;
            return self.call_winder(after, Resume::KontWind);
        }
        // Enter the outermost not-yet-entered target winder: run its
        // before, then (on resume) set the winder list to that node.
        let mut node = target_winders;
        let mut enter = target_winders;
        while node != common {
            enter = node;
            node = self.cdr_of(node)?;
        }
        let Some(er) = enter.as_obj() else {
            return Err(VmError::runtime("winder list corrupt"));
        };
        let Some((winder, _)) = self.heap.pair(er) else {
            return Err(VmError::runtime("winder list corrupt"));
        };
        let before = self.car_of(winder)?;
        self.call_winder(before, Resume::KontWindEnter)
    }

    /// Longest common tail of two winder lists (by node identity): measure
    /// both, drop the longer one's surplus, then step the two together
    /// until they meet. Linear and allocation-free — this runs once per
    /// winder crossed by a continuation invocation.
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

    /// Calls a winder thunk in a subframe above the wind state.
    fn call_winder(&mut self, thunk: Value, kind: Resume) -> R<Option<Value>> {
        let fp = self.stack.fp();
        self.stack.set(fp + 3, Slot::Resume { kind, disp: 3 });
        self.stack.set_fp(fp + 3);
        self.calls += 1;
        self.apply(thunk, 0)
    }

    /// Dispatches a staged-builtin resume (frame pointer already popped to
    /// the staged frame).
    fn resume(&mut self, kind: Resume) -> R<Flow> {
        match kind {
            Resume::KontWind => {
                // An after thunk finished; keep winding.
                match self.wind_step()? {
                    Some(v) => Ok(Flow::Halt(v)),
                    None => Ok(Flow::Continue),
                }
            }
            Resume::KontWindEnter => {
                // A before thunk finished: enter the winder, then continue.
                let target_val = self.local(1);
                let Some(tr) = target_val.as_obj() else {
                    return Err(VmError::runtime("wind target missing"));
                };
                let Some((_, target_winders)) = self.heap.kont(tr) else {
                    return Err(VmError::runtime("wind target is not a continuation"));
                };
                let common = self.common_tail(self.winders, target_winders);
                let mut node = target_winders;
                let mut enter = target_winders;
                while node != common {
                    enter = node;
                    node = self.cdr_of(node)?;
                }
                self.winders = enter;
                match self.wind_step()? {
                    Some(v) => Ok(Flow::Halt(v)),
                    None => Ok(Flow::Continue),
                }
            }
            Resume::WindBody => self.dynamic_wind_body(),
            Resume::WindAfter => self.dynamic_wind_after(),
            Resume::WindDone => self.dynamic_wind_done(),
            Resume::CwvConsume => self.cwv_consume(),
            Resume::PromptReturn => {
                // The delimited body returned normally: the value in the
                // accumulator flows out through the prompt's continuation.
                Ok(Flow::Return)
            }
            Resume::TakeWind => {
                // An `after` winder returned; keep unwinding toward the
                // prompt's winder list, then call the handler.
                match self.take_wind_step()? {
                    Some(v) => Ok(Flow::Halt(v)),
                    None => Ok(Flow::Continue),
                }
            }
            Resume::SubWind => {
                // A `before` winder returned: enter the winder — grafted
                // onto the *current* winder list, so the re-entered extent
                // nests in the context the subcontinuation is spliced into,
                // not the one it was taken from — then keep rewinding.
                let pending = self.local(3);
                let winder = self.car_of(pending)?;
                let rest = self.cdr_of(pending)?;
                self.winders = Value::obj(self.heap.alloc(Obj::Pair(winder, self.winders)));
                self.set_local(3, rest);
                match self.push_subcont_step()? {
                    Some(v) => Ok(Flow::Halt(v)),
                    None => Ok(Flow::Continue),
                }
            }
            Resume::AbortWind => {
                // An `after` winder returned; keep unwinding, then abort.
                match self.abort_wind_step()? {
                    Some(v) => Ok(Flow::Halt(v)),
                    None => Ok(Flow::Continue),
                }
            }
        }
    }

    /// Delivers `vals` to continuation `kont` (Figure 3/4 reinstatement).
    fn reinstate(&mut self, kont: Option<KontId>, vals: &[Value]) -> R<Option<Value>> {
        match vals {
            [v] => {
                self.acc = *v;
                self.mv = None;
            }
            _ => {
                self.mv = Some(vals.to_vec());
                self.acc = Value::UNSPECIFIED;
            }
        }
        let Some(k) = kont else {
            // The empty continuation: the program completes with this value.
            self.stack.clear_to_empty();
            let v = self.acc;
            self.mv = None;
            return Ok(Some(v));
        };
        let r = self.stack.reinstate(k, &slot_disp).map_err(|e| match e {
            oneshot_core::ControlError::AlreadyShot => {
                VmError::condition("shot-twice", "attempt to invoke shot one-shot continuation")
            }
            other => VmError::runtime(other.to_string()),
        })?;
        self.dispatch_reinstated_ret(r.ret)
    }

    /// Dispatches the return address a core reinstatement handed back
    /// (full, underflow, or delimited): delivers through a `Ret`, resumes
    /// a staged builtin, and rejects anything else.
    pub(crate) fn dispatch_reinstated_ret(&mut self, ret: Slot) -> R<Option<Value>> {
        match ret {
            Slot::Ret { code, pc, disp, closure } => {
                self.deliver_ret(code, pc, disp, closure)?;
                Ok(None)
            }
            Slot::Resume { kind, disp } => {
                self.stack.pop_frame(disp as usize);
                let flow = self.resume(kind)?;
                self.flow(flow)
            }
            other => {
                Err(VmError::runtime(format!("continuation with non-return ret slot {other:?}")))
            }
        }
    }

    // ------------------------------------------------------------------
    // Delimited control (prompts and subcontinuations)
    // ------------------------------------------------------------------

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
                "no-matching-prompt",
                format!(
                    "no prompt tagged {} is on the continuation",
                    oneshot_runtime::write_value(&self.heap, &self.syms, tag)
                ),
            )
        })
    }

    /// Sets the accumulator / pending-values registers from a value slice,
    /// using the same one-value fast path as [`Vm::reinstate`].
    pub(crate) fn deliver_vals(&mut self, vals: &[Value]) {
        match vals {
            [v] => {
                self.acc = *v;
                self.mv = None;
            }
            _ => {
                self.mv = Some(vals.to_vec());
                self.acc = Value::UNSPECIFIED;
            }
        }
    }

    /// One step of unwinding after `%take-subcont` captured: runs `after`
    /// thunks innermost-first until the winder list reaches the prompt's,
    /// then calls the handler on the subcontinuation. The capture already
    /// happened — afters run on the prompt's stack, outside the delimited
    /// extent, matching the capture-then-unwind order `call/cc`-based
    /// implementations of `shift` observe. Frame layout: `fp` holds the
    /// prompt's return address; locals are `[1]=subcont [2]=handler
    /// [3]=prompt winders`.
    pub(crate) fn take_wind_step(&mut self) -> R<Option<Value>> {
        let wp = self.local(3);
        if self.winders == wp {
            let f = self.local(2);
            // The subcontinuation is already at fp+1, exactly where a
            // one-argument call frame wants it.
            self.calls += 1;
            return self.apply(f, 1);
        }
        let Some(wr) = self.winders.as_obj() else {
            return Err(VmError::runtime("winder list corrupt"));
        };
        let Some((winder, rest)) = self.heap.pair(wr) else {
            return Err(VmError::runtime("winder list corrupt"));
        };
        self.winders = rest;
        let after = self.cdr_of(winder)?;
        let fp = self.stack.fp();
        self.stack.set(fp + 4, Slot::Resume { kind: Resume::TakeWind, disp: 4 });
        self.stack.set_fp(fp + 4);
        self.calls += 1;
        self.apply(after, 0)
    }

    /// One step of rewinding for `%push-subcont`: runs the captured
    /// `before` thunks outermost-first, then splices the subcontinuation.
    /// Frame layout: `fp` holds the caller's return address; locals are
    /// `[1]=kont object [2]=values vector [3]=pending winder pairs,
    /// outermost first`.
    pub(crate) fn push_subcont_step(&mut self) -> R<Option<Value>> {
        let pending = self.local(3);
        if pending == Value::NIL {
            return self.push_subcont_now();
        }
        let winder = self.car_of(pending)?;
        let before = self.car_of(winder)?;
        let fp = self.stack.fp();
        self.stack.set(fp + 4, Slot::Resume { kind: Resume::SubWind, disp: 4 });
        self.stack.set_fp(fp + 4);
        self.calls += 1;
        self.apply(before, 0)
    }

    /// Splices the stashed subcontinuation onto the current stack and
    /// delivers the stashed values through its innermost frame.
    fn push_subcont_now(&mut self) -> R<Option<Value>> {
        let kv = self.local(1);
        let vals_val = self.local(2);
        let Some((head, _)) = kv.as_obj().and_then(|r| self.heap.kont(r)) else {
            return Err(VmError::runtime("subcontinuation stash corrupt"));
        };
        let Some(vals) = vals_val.as_obj().and_then(|r| self.heap.vector(r)) else {
            return Err(VmError::runtime("subcontinuation values stash corrupt"));
        };
        let vals = vals.to_vec();
        self.deliver_vals(&vals);
        let Some(head) = head else {
            // An empty subcontinuation: delivering the values is just
            // returning them from the `%push-subcont` call.
            return self.do_return();
        };
        let r = self.stack.push_subcont(head, &slot_disp).map_err(|e| match e {
            oneshot_core::ControlError::AlreadyShot => VmError::condition(
                "shot-twice",
                "attempt to push an already-pushed one-shot subcontinuation",
            ),
            other => VmError::runtime(other.to_string()),
        })?;
        self.dispatch_reinstated_ret(r.ret)
    }

    /// One step of unwinding for `%abort-to-prompt`: runs `after` thunks
    /// innermost-first, then jumps to the prompt without materializing the
    /// discarded context. Frame layout: `fp` holds the caller's return
    /// address; locals are `[1]=tag [2]=values vector [3]=prompt winders`.
    pub(crate) fn abort_wind_step(&mut self) -> R<Option<Value>> {
        let wp = self.local(3);
        if self.winders == wp {
            // Winder thunks run arbitrary code, so the prompt is
            // re-resolved at the moment of the jump rather than stashed
            // as a raw id across the unwinding.
            let tag = self.local(1);
            let (kp, _) = self.find_prompt(tag)?;
            let vals_val = self.local(2);
            let Some(vals) = vals_val.as_obj().and_then(|r| self.heap.vector(r)) else {
                return Err(VmError::runtime("abort values stash corrupt"));
            };
            let vals = vals.to_vec();
            self.deliver_vals(&vals);
            let r = self
                .stack
                .abort_to_prompt(kp, &slot_disp)
                .map_err(|e| VmError::runtime(e.to_string()))?;
            return self.dispatch_reinstated_ret(r.ret);
        }
        let Some(wr) = self.winders.as_obj() else {
            return Err(VmError::runtime("winder list corrupt"));
        };
        let Some((winder, rest)) = self.heap.pair(wr) else {
            return Err(VmError::runtime("winder list corrupt"));
        };
        self.winders = rest;
        let after = self.cdr_of(winder)?;
        let fp = self.stack.fp();
        self.stack.set(fp + 4, Slot::Resume { kind: Resume::AbortWind, disp: 4 });
        self.stack.set_fp(fp + 4);
        self.calls += 1;
        self.apply(after, 0)
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
            .ok_or_else(|| VmError::runtime(format!("vector-ref: index {i} out of range")))
    }

    pub(crate) fn type_error(&self, who: &str, expected: &str, got: Value) -> Box<VmError> {
        type_error(&self.heap, &self.syms, who, expected, got)
    }
}

fn type_error(heap: &Heap, syms: &Symbols, who: &str, expected: &str, got: Value) -> Box<VmError> {
    VmError::condition(
        "type-error",
        format!(
            "{who}: expected {expected}, got {}",
            oneshot_runtime::write_value(heap, syms, got)
        ),
    )
}

/// A call-cache entry: where calling the closure in a global cell starts,
/// or [`CallTarget::NONE`] when the cell holds anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CallTarget {
    /// The closure's code object.
    code: u32,
    /// Offset of that code object's first instruction in [`Vm::flat`].
    base: u32,
}

impl CallTarget {
    /// Not a closure (unbound, builtin, continuation, non-procedure): the
    /// call takes the general path. No code object has this index — the
    /// flat arena's `u32` offsets run out first.
    pub(crate) const NONE: CallTarget = CallTarget { code: u32::MAX, base: 0 };
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
        .ok_or_else(|| VmError::runtime(format!("vector-set!: index {i} out of range")))?;
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
        return Err(VmError::condition("error", format!("fixnum overflow in {}", op.name())));
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
        _ => Err(VmError::condition("type-error", format!("{who}: expected number"))),
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
                    Op::Entry { required: 0, rest: false },
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
        vm.code = entry;
        vm.pc = vm.entries[entry as usize].base as usize;
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
