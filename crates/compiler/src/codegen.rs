//! Code generation: core AST → bytecode.
//!
//! An accumulator machine with the frame discipline of §3.1: locals and
//! temporaries occupy slots above the frame base; outgoing calls build
//! their frames at the current temporary watermark, which becomes the
//! call's compile-time displacement. The generator tracks the per-function
//! maximum frame extent, which the `Entry` prologue reserves via the
//! segmented stack's overflow check.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use oneshot_sexp::Datum;

use crate::analyze::{free_vars, mutated_vars, FreeVars};
use crate::ast::{Expr, Lambda, VarId};
use crate::cps::cps_convert;
use crate::expand::{expand_program, CompileError};
use crate::ops::{CodeObject, CompiledProgram, FreeSrc, Op};
use crate::{peephole, CompilerOptions, Pipeline};

type Result<T> = std::result::Result<T, CompileError>;

/// Compiles a whole program (reader data) through the chosen pipeline.
///
/// `cps_direct` is the CPS converter's direct-call test ([`cps_convert`]):
/// whether a call to the global it names is a builtin that converted code
/// calls without a continuation. The direct-style pipeline never asks it.
///
/// # Errors
///
/// Returns a [`CompileError`] for malformed forms, frames exceeding the
/// bytecode's 16-bit slot indices, or (CPS) continuations nested too deep.
pub fn compile_program_with(
    forms: &[Datum],
    pipeline: Pipeline,
    options: CompilerOptions,
    cps_direct: fn(&str) -> bool,
) -> Result<CompiledProgram> {
    let mut program = expand_program(forms)?;
    if pipeline == Pipeline::Cps {
        program = cps_convert(program, cps_direct)?;
    }
    let mutated = mutated_vars(&program.forms);
    let mut g = Gen {
        codes: Vec::new(),
        globals: Vec::new(),
        global_ids: HashMap::new(),
        mutated,
        free: free_vars(&program.forms),
        defined_globals: program.defined_globals,
        options,
    };
    // The toplevel thunk.
    let mut ctx = FnCtx::new("toplevel".into(), 0, false);
    let n = program.forms.len();
    for (i, form) in program.forms.iter().enumerate() {
        if i + 1 == n {
            g.gen(&mut ctx, form, true)?;
        } else {
            g.gen(&mut ctx, form, false)?;
        }
    }
    if n == 0 {
        ctx.emit(Op::Unspec);
        ctx.emit(Op::Return);
    }
    let entry = g.finish_fn(ctx, Vec::new());
    Ok(CompiledProgram { codes: g.codes, entry, globals: g.globals })
}

/// Where a variable lives, relative to the function being compiled.
#[derive(Debug, Clone, Copy)]
enum Loc {
    Local(u16),
    Free(u16),
}

/// Per-function compilation context.
struct FnCtx {
    name: String,
    required: u16,
    rest: bool,
    ops: Vec<Op>,
    consts: Vec<Datum>,
    env: HashMap<VarId, Loc>,
    free: Vec<VarId>,
    top: u16,
    max: u16,
}

impl FnCtx {
    fn new(name: String, required: u16, rest: bool) -> Self {
        let top = 1 + required + u16::from(rest);
        let mut ctx = FnCtx {
            name,
            required,
            rest,
            ops: Vec::new(),
            consts: Vec::new(),
            env: HashMap::new(),
            free: Vec::new(),
            top,
            max: top,
        };
        ctx.emit(Op::Entry { required, rest, need: 0 });
        ctx
    }

    fn emit(&mut self, op: Op) {
        self.ops.push(op);
    }

    fn alloc(&mut self) -> Result<u16> {
        let slot = self.top;
        self.top = self
            .top
            .checked_add(1)
            .ok_or_else(|| CompileError::new("frame exceeds 65535 slots"))?;
        self.max = self.max.max(self.top);
        Ok(slot)
    }

    fn release_to(&mut self, saved: u16) {
        debug_assert!(saved <= self.top);
        self.top = saved;
    }

    fn constant(&mut self, d: &Datum) -> Op {
        if let Datum::Fixnum(n) = d {
            if let Ok(small) = i32::try_from(*n) {
                return Op::FixInt(small);
            }
        }
        // Reuse identical constants.
        if let Some(i) = self.consts.iter().position(|c| c == d) {
            return Op::Const(i as u32);
        }
        self.consts.push(d.clone());
        Op::Const((self.consts.len() - 1) as u32)
    }

    /// Emits a placeholder jump, returning its index for patching.
    fn emit_jump(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Patches the jump at `at` to target the next instruction.
    fn patch_to_here(&mut self, at: usize) {
        let off = i32::try_from(self.ops.len() - at - 1).expect("jump offset overflow");
        match &mut self.ops[at] {
            Op::Jump(o) | Op::BranchFalse(o) => *o = off,
            other => panic!("patching non-jump {other:?}"),
        }
    }
}

struct Gen {
    codes: Vec<CodeObject>,
    globals: Vec<String>,
    global_ids: HashMap<Rc<str>, u32>,
    mutated: HashSet<VarId>,
    free: FreeVars,
    /// Never inlined: the program defines or assigns them.
    defined_globals: HashSet<Rc<str>>,
    options: CompilerOptions,
}

impl Gen {
    fn global_id(&mut self, name: &Rc<str>) -> u32 {
        if let Some(&i) = self.global_ids.get(name) {
            return i;
        }
        let i = self.globals.len() as u32;
        self.globals.push(name.to_string());
        self.global_ids.insert(name.clone(), i);
        i
    }

    fn finish_fn(&mut self, ctx: FnCtx, free_spec: Vec<FreeSrc>) -> u32 {
        let idx = self.codes.len() as u32;
        let mut ops = ctx.ops;
        if self.options.fuse {
            peephole::fuse(&mut ops);
        }
        self.codes.push(CodeObject {
            name: ctx.name,
            required: ctx.required,
            rest: ctx.rest,
            frame_slots: ctx.max,
            ops,
            consts: ctx.consts,
            free_spec,
        });
        idx
    }

    /// Resolves a variable, panicking on expander bugs (unresolved ids).
    fn loc(&self, ctx: &FnCtx, v: VarId) -> Loc {
        *ctx.env.get(&v).unwrap_or_else(|| panic!("unresolved variable {v:?}"))
    }

    fn is_mutated(&self, v: VarId) -> bool {
        self.mutated.contains(&v)
    }

    /// Generates code leaving the value of `e` in the accumulator. With
    /// `tail` set, control does not fall through: the expression returns or
    /// tail-calls.
    fn gen(&mut self, ctx: &mut FnCtx, e: &Expr, tail: bool) -> Result<()> {
        match e {
            Expr::Quote(d) => {
                let op = ctx.constant(d);
                ctx.emit(op);
                self.ret(ctx, tail);
            }
            Expr::Unspecified => {
                ctx.emit(Op::Unspec);
                self.ret(ctx, tail);
            }
            Expr::Ref(v) => {
                let op = match (self.loc(ctx, *v), self.is_mutated(*v)) {
                    (Loc::Local(i), false) => Op::LocalRef(i),
                    (Loc::Local(i), true) => Op::CellRefLocal(i),
                    (Loc::Free(i), false) => Op::FreeRef(i),
                    (Loc::Free(i), true) => Op::CellRefFree(i),
                };
                ctx.emit(op);
                self.ret(ctx, tail);
            }
            Expr::GlobalRef(name) => {
                let id = self.global_id(name);
                ctx.emit(Op::GlobalRef(id));
                self.ret(ctx, tail);
            }
            Expr::Set(v, rhs) => {
                self.gen(ctx, rhs, false)?;
                let op = match self.loc(ctx, *v) {
                    Loc::Local(i) => Op::CellSetLocal(i),
                    Loc::Free(i) => Op::CellSetFree(i),
                };
                ctx.emit(op);
                ctx.emit(Op::Unspec);
                self.ret(ctx, tail);
            }
            Expr::GlobalSet(name, rhs) => {
                self.gen(ctx, rhs, false)?;
                let id = self.global_id(name);
                ctx.emit(Op::GlobalSet(id));
                ctx.emit(Op::Unspec);
                self.ret(ctx, tail);
            }
            Expr::GlobalDef(name, rhs) => {
                self.gen(ctx, rhs, false)?;
                let id = self.global_id(name);
                ctx.emit(Op::GlobalDef(id));
                ctx.emit(Op::Unspec);
                self.ret(ctx, tail);
            }
            Expr::If(c, t, f) => {
                self.gen(ctx, c, false)?;
                let br = ctx.emit_jump(Op::BranchFalse(0));
                self.gen(ctx, t, tail)?;
                if tail {
                    ctx.patch_to_here(br);
                    self.gen(ctx, f, true)?;
                } else {
                    let j = ctx.emit_jump(Op::Jump(0));
                    ctx.patch_to_here(br);
                    self.gen(ctx, f, false)?;
                    ctx.patch_to_here(j);
                }
            }
            Expr::Lambda(l) => {
                self.gen_closure(ctx, l)?;
                self.ret(ctx, tail);
            }
            Expr::Let(bindings, body) => {
                let saved = ctx.top;
                let mut slots = Vec::with_capacity(bindings.len());
                for (_, init) in bindings {
                    self.gen(ctx, init, false)?;
                    let slot = ctx.alloc()?;
                    ctx.emit(Op::LocalSet(slot));
                    slots.push(slot);
                }
                for ((v, _), slot) in bindings.iter().zip(&slots) {
                    ctx.env.insert(*v, Loc::Local(*slot));
                    if self.is_mutated(*v) {
                        ctx.emit(Op::MakeCell(*slot));
                    }
                }
                self.gen(ctx, body, tail)?;
                ctx.release_to(saved);
            }
            Expr::Seq(es) => {
                let Some((last, init)) = es.split_last() else {
                    ctx.emit(Op::Unspec);
                    self.ret(ctx, tail);
                    return Ok(());
                };
                for x in init {
                    self.gen(ctx, x, false)?;
                }
                self.gen(ctx, last, tail)?;
            }
            Expr::App(f, args) => self.gen_app(ctx, f, args, tail)?,
        }
        Ok(())
    }

    /// Emits `Return` in tail position.
    fn ret(&mut self, ctx: &mut FnCtx, tail: bool) {
        if tail {
            ctx.emit(Op::Return);
        }
    }

    fn gen_closure(&mut self, ctx: &mut FnCtx, l: &Rc<Lambda>) -> Result<()> {
        let free = self.free.of(l).to_vec();
        let required =
            u16::try_from(l.params.len()).map_err(|_| CompileError::new("too many parameters"))?;
        let mut inner = FnCtx::new(
            l.name.clone().unwrap_or_else(|| "lambda".into()),
            required,
            l.rest.is_some(),
        );
        for (i, p) in l.params.iter().enumerate() {
            inner.env.insert(*p, Loc::Local(1 + i as u16));
        }
        if let Some(r) = l.rest {
            inner.env.insert(r, Loc::Local(1 + required));
        }
        // Box mutated parameters.
        for i in 0..(required + u16::from(l.rest.is_some())) {
            let v = if (i as usize) < l.params.len() {
                l.params[i as usize]
            } else {
                l.rest.expect("rest")
            };
            if self.is_mutated(v) {
                inner.emit(Op::MakeCell(1 + i));
            }
        }
        for (i, v) in free.iter().enumerate() {
            inner.env.insert(*v, Loc::Free(i as u16));
        }
        inner.free = free.clone();
        self.gen(&mut inner, &l.body, true)?;
        // The creator captures each free variable from its own context.
        let spec: Vec<FreeSrc> = free
            .iter()
            .map(|v| match self.loc(ctx, *v) {
                Loc::Local(i) => FreeSrc::Local(i),
                Loc::Free(i) => FreeSrc::Free(i),
            })
            .collect();
        let idx = self.finish_fn(inner, spec);
        ctx.emit(Op::Closure(idx));
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn gen_app(&mut self, ctx: &mut FnCtx, f: &Expr, args: &[Expr], tail: bool) -> Result<()> {
        // Direct lambda application (e.g. CPS join points): compile as Let.
        if let Expr::Lambda(l) = f {
            if l.rest.is_none() && l.params.len() == args.len() {
                let bindings: Vec<(VarId, Expr)> =
                    l.params.iter().copied().zip(args.iter().cloned()).collect();
                return self.gen(ctx, &Expr::Let(bindings, Box::new(l.body.clone())), tail);
            }
        }
        // Inline primitives.
        if let Expr::GlobalRef(name) = f {
            if self.gen_inline(ctx, name, args, tail)? {
                return Ok(());
            }
        }
        // General call: build the frame at the temporary watermark.
        let saved = ctx.top;
        let disp = ctx.top;
        // Reserve the return-address slot.
        let _ret_slot = ctx.alloc()?;
        for a in args {
            self.gen(ctx, a, false)?;
            let slot = ctx.alloc()?;
            ctx.emit(Op::LocalSet(slot));
        }
        self.gen(ctx, f, false)?;
        let argc =
            u16::try_from(args.len()).map_err(|_| CompileError::new("too many arguments"))?;
        if tail {
            ctx.emit(Op::TailCall { disp, argc });
        } else {
            ctx.emit(Op::Call { disp, argc });
        }
        ctx.release_to(saved);
        Ok(())
    }

    /// Makes the value of `e` available in a frame slot, as the slot
    /// operand of an inline primitive, and returns the slot. An unassigned
    /// frame local is its own operand: its slot holds the value from
    /// binding to scope exit, so nothing is emitted. Anything else — an
    /// assigned local (its slot holds a cell), a captured variable, a
    /// constant, a compound expression — is evaluated into a fresh
    /// temporary, which the caller releases.
    fn gen_operand(&mut self, ctx: &mut FnCtx, e: &Expr) -> Result<u16> {
        if let Expr::Ref(v) = e {
            if let (Loc::Local(slot), false) = (self.loc(ctx, *v), self.is_mutated(*v)) {
                return Ok(slot);
            }
        }
        self.gen(ctx, e, false)?;
        let t = ctx.alloc()?;
        ctx.emit(Op::LocalSet(t));
        Ok(t)
    }

    /// Tries to emit an inline primitive; returns false to fall back to a
    /// general call: `name` has no inline form, or the program defines or
    /// assigns it, or the argument count has none (e.g. arity mismatch).
    fn gen_inline(
        &mut self,
        ctx: &mut FnCtx,
        name: &str,
        args: &[Expr],
        tail: bool,
    ) -> Result<bool> {
        // Unary accumulator ops.
        let unary = match name {
            "car" => Some(Op::Car),
            "cdr" => Some(Op::Cdr),
            "null?" => Some(Op::NullP),
            "pair?" => Some(Op::PairP),
            "not" => Some(Op::Not),
            "zero?" => Some(Op::ZeroP),
            _ => None,
        };
        // Binary ops on a slot operand and the accumulator.
        let binary: Option<fn(u16) -> Op> = match name {
            "+" => Some(Op::Add),
            "-" => Some(Op::Sub),
            "*" => Some(Op::Mul),
            "<" => Some(Op::Lt),
            "<=" => Some(Op::Le),
            ">" => Some(Op::Gt),
            ">=" => Some(Op::Ge),
            "=" => Some(Op::NumEq),
            "cons" => Some(Op::Cons),
            "eq?" | "eqv?" => Some(Op::Eq),
            "vector-ref" => Some(Op::VecRef),
            _ => None,
        };
        let primitive = unary.is_some() || binary.is_some() || name == "vector-set!";
        if !primitive || self.defined_globals.contains(name) {
            return Ok(false);
        }
        if args.len() == 1 {
            if let Some(op) = unary {
                self.gen(ctx, &args[0], false)?;
                ctx.emit(op);
                self.ret(ctx, tail);
                return Ok(true);
            }
            // (- x) => 0 - x; (+ x) / (* x) go through the general call
            // for the type check.
            if name == "-" {
                let saved = ctx.top;
                ctx.emit(Op::FixInt(0));
                let t = ctx.alloc()?;
                ctx.emit(Op::LocalSet(t));
                self.gen(ctx, &args[0], false)?;
                ctx.emit(Op::Sub(t));
                ctx.release_to(saved);
                self.ret(ctx, tail);
                return Ok(true);
            }
        }
        if args.is_empty() {
            match name {
                "+" => {
                    ctx.emit(Op::FixInt(0));
                    self.ret(ctx, tail);
                    return Ok(true);
                }
                "*" => {
                    ctx.emit(Op::FixInt(1));
                    self.ret(ctx, tail);
                    return Ok(true);
                }
                _ => return Ok(false),
            }
        }
        if let Some(mk) = binary {
            // Variadic folds for + and *; exactly-two for the rest.
            let foldable = matches!(name, "+" | "*");
            if args.len() == 2 || (foldable && args.len() > 2) {
                // (+ e 1) / (- e 1) fast paths.
                if args.len() == 2 && matches!(args[1], Expr::Quote(Datum::Fixnum(1))) {
                    if name == "+" {
                        self.gen(ctx, &args[0], false)?;
                        ctx.emit(Op::Add1);
                        self.ret(ctx, tail);
                        return Ok(true);
                    }
                    if name == "-" {
                        self.gen(ctx, &args[0], false)?;
                        ctx.emit(Op::Sub1);
                        self.ret(ctx, tail);
                        return Ok(true);
                    }
                }
                let saved = ctx.top;
                let mut left = self.gen_operand(ctx, &args[0])?;
                for (i, a) in args[1..].iter().enumerate() {
                    self.gen(ctx, a, false)?;
                    ctx.emit(mk(left));
                    if i + 2 < args.len() {
                        // A fold keeps its running value in one temporary.
                        // A slot below the watermark is a local standing
                        // as its own operand, not ours to overwrite.
                        if left < saved {
                            left = ctx.alloc()?;
                        }
                        ctx.emit(Op::LocalSet(left));
                    }
                }
                ctx.release_to(saved);
                self.ret(ctx, tail);
                return Ok(true);
            }
            return Ok(false);
        }
        if name == "vector-set!" && args.len() == 3 {
            let saved = ctx.top;
            let tv = self.gen_operand(ctx, &args[0])?;
            let ti = self.gen_operand(ctx, &args[1])?;
            self.gen(ctx, &args[2], false)?;
            ctx.emit(Op::VecSet { v: tv, i: ti });
            ctx.release_to(saved);
            self.ret(ctx, tail);
            return Ok(true);
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oneshot_sexp::read_all;

    fn compile(src: &str) -> CompiledProgram {
        compile_program_with(&read_all(src).unwrap(), Pipeline::Direct, Default::default(), |_| {
            false
        })
        .unwrap()
    }

    fn entry_ops(p: &CompiledProgram) -> &[Op] {
        &p.codes[p.entry as usize].ops
    }

    #[test]
    fn constants_compile_to_const_ops() {
        let p = compile("42");
        assert!(entry_ops(&p).contains(&Op::FixInt(42)));
        let p = compile("\"hello\"");
        assert!(entry_ops(&p).iter().any(|o| matches!(o, Op::Const(_))));
    }

    #[test]
    fn identical_constants_are_pooled() {
        let p = compile("(f '(a b) '(a b))");
        let code = &p.codes[p.entry as usize];
        assert_eq!(code.consts.len(), 1);
    }

    #[test]
    fn inline_add_and_compare() {
        let p = compile("(lambda (a b) (< (+ a b) 10))");
        let lam = &p.codes[0];
        assert!(lam.ops.iter().any(|o| matches!(o, Op::Add(_))));
        assert!(lam.ops.iter().any(|o| matches!(o, Op::Lt(_))));
        assert!(!lam.ops.iter().any(|o| matches!(o, Op::Call { .. })));
    }

    /// `(+ e 1)` / `(- e 1)` never load the constant: an accumulator
    /// increment, or its fusion with the local's load.
    #[test]
    fn add1_fast_path() {
        let p = compile("(lambda (a) (+ a 1))");
        let ops = &p.codes[0].ops;
        assert!(ops.contains(&Op::AddImm { i: 1, n: 1 }) || ops.contains(&Op::Add1), "{ops:?}");
        let p = compile("(lambda (a) (- a 1))");
        let ops = &p.codes[0].ops;
        assert!(ops.contains(&Op::SubImm { i: 1, n: 1 }) || ops.contains(&Op::Sub1), "{ops:?}");
        let p = compile("(lambda (f) (- (f) 1))");
        assert!(p.codes[0].ops.contains(&Op::Sub1));
        assert!(!p.codes.iter().flat_map(|c| &c.ops).any(|o| matches!(o, Op::FixInt(1))));
    }

    fn body<'a>(p: &'a CompiledProgram, name: &str) -> &'a [Op] {
        &p.codes.iter().find(|c| c.name == name).unwrap_or_else(|| panic!("no {name}")).ops
    }

    /// An unassigned frame local is its own operand slot, and an argument
    /// is computed straight into its outgoing slot: `fib` and `tak` copy
    /// nothing to compare and store nothing after a subtract.
    #[test]
    fn unassigned_locals_are_operands_in_fib_and_tak() {
        let p = compile("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))");
        assert_eq!(
            body(&p, "fib"),
            [
                Op::Entry { required: 1, rest: false, need: 0 },
                Op::BrLtImm { i: 1, n: 2, off: 1 },
                Op::ReturnLocal(1),
                Op::SubImmTo { i: 1, dst: 3, n: 1 },
                Op::CallGlobal { g: 0, disp: 2, argc: 1 },
                Op::LocalSet(2),
                Op::SubImmTo { i: 1, dst: 4, n: 2 },
                Op::CallGlobal { g: 0, disp: 3, argc: 1 },
                Op::Add(2),
                Op::Return,
            ]
        );
        let p = compile(
            "(define (tak x y z)
               (if (not (< y x)) z
                   (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))",
        );
        let tak = body(&p, "tak");
        assert_eq!(
            tak[..4],
            [
                Op::Entry { required: 3, rest: false, need: 0 },
                Op::LtLL { a: 2, b: 1 },
                Op::BrTrue(1),
                Op::ReturnLocal(3),
            ]
        );
        for (at, pair) in tak.windows(2).enumerate() {
            let compare = matches!(
                pair[1],
                Op::Lt(_) | Op::LtLL { .. } | Op::BrLt { .. } | Op::BrLtImm { .. }
            );
            assert!(
                !(matches!(pair[0], Op::Move { .. }) && compare),
                "move feeds a compare at {at}"
            );
            assert!(
                !(matches!(pair[0], Op::SubImm { .. }) && matches!(pair[1], Op::LocalSet(_))),
                "store after an immediate subtract at {at}"
            );
        }
        let to_slot = tak.iter().filter(|o| matches!(o, Op::SubImmTo { n: 1, .. })).count();
        assert_eq!(to_slot, 3, "{tak:?}");
    }

    /// What is not an unassigned frame local still goes through a
    /// temporary: an assigned local's slot holds a cell, a captured
    /// variable has no slot at all.
    #[test]
    fn assigned_and_captured_operands_use_a_temporary() {
        let unfused = |src: &str| {
            let options = CompilerOptions { fuse: false };
            compile_program_with(&read_all(src).unwrap(), Pipeline::Direct, options, |_| false)
                .unwrap()
        };
        let p = unfused("(define (f x) (set! x 1) (< x 2))");
        let f = body(&p, "f");
        assert_eq!(
            f[f.len() - 5..],
            [Op::CellRefLocal(1), Op::LocalSet(2), Op::FixInt(2), Op::Lt(2), Op::Return],
            "{f:?}"
        );
        let p = unfused("(define (g x) (lambda (y) (< x y)))");
        let inner = body(&p, "lambda");
        assert_eq!(
            inner[1..],
            [Op::FreeRef(0), Op::LocalSet(2), Op::LocalRef(1), Op::Lt(2), Op::Return],
            "{inner:?}"
        );
        // Both slot operands of `vector-set!` follow the same rule.
        let p = unfused("(define (h v i) (vector-set! v i 0))");
        assert_eq!(body(&p, "h")[1..], [Op::FixInt(0), Op::VecSet { v: 1, i: 2 }, Op::Return]);
    }

    /// A variadic fold keeps its running value in one temporary, which is
    /// never the local the first operand was read from.
    #[test]
    fn variadic_folds_use_one_temporary() {
        let p = compile("(define (f a b c d) (+ a b c d))");
        assert_eq!(
            body(&p, "f")[1..],
            [
                Op::LocalRef(2),
                Op::Add(1),
                Op::LocalSet(5),
                Op::LocalRef(3),
                Op::Add(5),
                Op::LocalSet(5),
                Op::LocalRef(4),
                Op::Add(5),
                Op::Return,
            ]
        );
        assert_eq!(p.codes[0].frame_slots, 6);
        // A compound first operand brings its own temporary; the fold
        // reuses it.
        let p = compile("(define (g f b c) (* (f) b c))");
        let g = body(&p, "g");
        let temps: Vec<u16> = g
            .iter()
            .filter_map(|o| if let Op::LocalSet(t) = o { Some(*t) } else { None })
            .collect();
        assert_eq!(temps, [4, 4], "{g:?}");
    }

    #[test]
    fn redefined_primitives_are_not_inlined() {
        let p = compile("(define (+ a b) 99) (+ 1 2)");
        let top = &p.codes[p.entry as usize];
        assert!(
            top.ops.iter().any(|o| matches!(
                o,
                Op::Call { .. }
                    | Op::TailCall { .. }
                    | Op::CallGlobal { .. }
                    | Op::TailCallGlobal { .. }
            )),
            "redefined + must go through a call: {top}"
        );
    }

    #[test]
    fn tail_calls_use_tailcall() {
        let p = compile("(define (loop n) (loop n))");
        let lam = &p.codes[0];
        assert!(lam
            .ops
            .iter()
            .any(|o| matches!(o, Op::TailCall { .. } | Op::TailCallGlobal { .. })));
        assert!(!lam.ops.iter().any(|o| matches!(o, Op::Call { .. } | Op::CallGlobal { .. })));
    }

    #[test]
    fn non_tail_calls_use_call_with_displacement() {
        let p = compile("(define (f g) (+ (g) 1))");
        let lam = &p.codes[0];
        let call = lam.ops.iter().find(|o| matches!(o, Op::Call { .. })).expect("a call");
        let Op::Call { disp, argc } = call else { unreachable!() };
        assert_eq!(*argc, 0);
        assert!(*disp >= 2, "frame built above the parameter slots");
    }

    #[test]
    fn frame_slots_cover_call_frames() {
        let p = compile("(define (f g) (g (g 1 2) (g 3 4)))");
        let lam = &p.codes[0];
        // ret + params (1+1) then call frames.
        assert!(lam.frame_slots >= 2 + 3, "{}", lam.frame_slots);
    }

    #[test]
    fn closures_capture_free_variables() {
        let p = compile("(define (adder n) (lambda (x) (+ x n)))");
        let inner = p.codes.iter().find(|c| c.name == "lambda").expect("inner lambda");
        assert_eq!(inner.free_spec, vec![FreeSrc::Local(1)], "captures n from adder's frame");
        assert!(inner.ops.iter().any(|o| matches!(o, Op::FreeRef(0))));
    }

    #[test]
    fn nested_capture_goes_through_creator() {
        let p = compile("(define (f x) (lambda () (lambda () x)))");
        let innermost = p
            .codes
            .iter()
            .filter(|c| c.name == "lambda")
            .find(|c| c.free_spec == vec![FreeSrc::Free(0)]);
        assert!(innermost.is_some(), "inner lambda captures from creator's closure");
    }

    #[test]
    fn mutated_variables_are_boxed() {
        let p = compile("(define (counter) (let ((n 0)) (lambda () (set! n (+ n 1)) n)))");
        let counter = p.codes.iter().find(|c| c.name == "counter").expect("counter");
        assert!(counter.ops.iter().any(|o| matches!(o, Op::MakeCell(_))));
        let inner = p.codes.iter().find(|c| c.name == "lambda").expect("inner");
        assert!(inner.ops.iter().any(|o| matches!(o, Op::CellSetFree(_))));
        assert!(inner.ops.iter().any(|o| matches!(o, Op::CellRefFree(_))));
    }

    #[test]
    fn mutated_parameters_are_boxed_at_entry() {
        let p = compile("(define (f x) (set! x 1) x)");
        let f = &p.codes[0];
        assert_eq!(f.ops[1], Op::MakeCell(1));
        assert!(f.ops.iter().any(|o| matches!(o, Op::CellSetLocal(1))));
    }

    #[test]
    fn globals_are_linked_by_name() {
        let p = compile("(define x 1) (define (f) x)");
        assert!(p.globals.contains(&"x".to_string()));
        assert!(p.globals.contains(&"f".to_string()));
    }

    #[test]
    fn if_branches_in_tail_position_both_return() {
        let p = compile("(define (f c) (if c 1 2))");
        let f = &p.codes[0];
        let returns = f.ops.iter().filter(|o| matches!(o, Op::Return)).count();
        assert_eq!(returns, 2, "{f}");
    }

    #[test]
    fn let_allocates_consecutive_slots() {
        let p = compile("(define (f) (let ((a 1) (b 2)) (+ a b)))");
        let f = &p.codes[0];
        assert!(f.ops.iter().any(|o| matches!(o, Op::LocalSet(1))));
        assert!(f.ops.iter().any(|o| matches!(o, Op::LocalSet(2))));
    }

    #[test]
    fn variadic_entry() {
        let p = compile("(define (f a . rest) rest)");
        let f = &p.codes[0];
        assert_eq!(f.ops[0], Op::Entry { required: 1, rest: true, need: 0 });
        // `LocalRef(2); Return` fuses into `ReturnLocal(2)`.
        assert!(f.ops.contains(&Op::ReturnLocal(2)));
    }

    #[test]
    fn cps_pipeline_compiles() {
        let forms = read_all("(define (f x) (+ x 1)) (f 1)").unwrap();
        let direct = |name: &str| name == "+";
        let p = compile_program_with(&forms, Pipeline::Cps, Default::default(), direct).unwrap();
        assert!(!p.codes.is_empty());
    }

    #[test]
    fn empty_program_returns_unspecified() {
        let p = compile("");
        assert!(entry_ops(&p).contains(&Op::Unspec));
    }
}
