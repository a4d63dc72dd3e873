//! Builtin procedures: one row of [`BUILTINS`] per name, giving its arity
//! and its body.
//!
//! The table is the only place a builtin is declared: `Value::builtin(i)`
//! is row `i`, and the CPS converter's direct-call test ([`cps_direct`])
//! is derived from the rows and the CPS prelude. [`Vm::call_builtin`] checks
//! a row's arity before its body runs, with the rule and the `arity-error`
//! condition a closure's prologue uses, so no body counts its arguments
//! beyond the upper bound of an optional one.

use std::collections::HashSet;
use std::sync::LazyLock;

use oneshot_compiler::{expand_program, CompilerOptions};
use oneshot_runtime::{datum_to_value, values_equal, Obj, ObjKind, Unpacked, Value};
use oneshot_sexp::{read_all, Datum};

use crate::error::{ConditionKind, VmError, R};
use crate::slot::{Resume, Slot};
use crate::vm::exec::{
    admits, arith, arity_error, as_f64, num_cmp, range_error, vector_set, Arith, Cmp,
};
use crate::vm::{Vm, CPS_PRELUDE};

/// What the VM should do after a builtin runs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Flow {
    /// `acc` (and possibly pending multiple values) is the result; return
    /// through the frame.
    Return,
    /// Tail-apply `f` to `argc` arguments already placed at `fp+1..`.
    Tail {
        /// The procedure.
        f: Value,
        /// Argument count.
        argc: usize,
    },
    /// Control was already transferred (registers set).
    Continue,
    /// The program completed with this value.
    Halt(Value),
}

/// An inner transfer's outcome as builtin flow: control already moved, or
/// the program completed.
impl From<Option<Value>> for Flow {
    fn from(done: Option<Value>) -> Flow {
        done.map_or(Flow::Continue, Flow::Halt)
    }
}

/// A builtin's body: runs with the frame `[ret, args...]` at `fp`, `argc`
/// arguments, once the row's arity has admitted `argc`.
type BuiltinFn = fn(&mut Vm, usize) -> R<Flow>;

/// One builtin: its global name, its arity as a lambda list gives it
/// (`required` arguments, and any number more when `rest`), and its body.
struct Builtin {
    name: &'static str,
    required: usize,
    rest: bool,
    body: BuiltinFn,
}

/// A row taking exactly `required` arguments.
const fn fixed(name: &'static str, required: usize, body: BuiltinFn) -> Builtin {
    Builtin { name, required, rest: false, body }
}

/// A row taking `required` arguments or more.
const fn variadic(name: &'static str, required: usize, body: BuiltinFn) -> Builtin {
    Builtin { name, required, rest: true, body }
}

/// The CPS converter's direct-call test: whether CPS-converted code calls
/// the global `name` without a continuation argument. Every builtin is
/// direct except the ones the CPS prelude redefines in continuation-passing
/// style: the control operators, and `%prompt-set?`, which must consult the
/// CPS prompt list. The set is built once per process, by the first CPS
/// compile.
pub(crate) fn cps_direct(name: &str) -> bool {
    static DIRECT: LazyLock<HashSet<&str>> = LazyLock::new(|| {
        let forms = read_all(CPS_PRELUDE).expect("the CPS prelude reads");
        let redefined = expand_program(&forms).expect("the CPS prelude expands").defined_globals;
        BUILTINS.iter().map(|b| b.name).filter(|n| !redefined.contains(*n)).collect()
    });
    DIRECT.contains(name)
}

impl Vm {
    /// Every builtin's name, in table order. Only tests need the list.
    #[doc(hidden)]
    pub fn builtin_names() -> impl Iterator<Item = &'static str> {
        BUILTINS.iter().map(|b| b.name)
    }

    pub(crate) fn register_builtins(&mut self) {
        for (i, b) in BUILTINS.iter().enumerate() {
            let idx = u16::try_from(i).expect("too many builtins");
            self.set_global(b.name, Value::builtin(idx));
        }
    }

    /// Runs builtin `i` on the `argc` arguments at `fp+1..`: the one place
    /// a builtin's arity is checked.
    pub(crate) fn call_builtin(&mut self, i: u16, argc: usize) -> R<Flow> {
        let b = &BUILTINS[usize::from(i)];
        if !admits(b.required, b.rest, argc) {
            return Err(arity_error(b.name, b.required, b.rest, argc));
        }
        (b.body)(self, argc)
    }

    #[inline]
    pub(crate) fn arg(&self, i: usize) -> Value {
        self.local(1 + i)
    }

    fn args(&self, argc: usize) -> Vec<Value> {
        (0..argc).map(|i| self.arg(i)).collect()
    }

    /// Maps an inner `apply` outcome to builtin flow.
    fn transfer(&mut self, f: Value, argc: usize) -> R<Flow> {
        self.calls += 1;
        Ok(self.apply(f, argc)?.into())
    }

    /// Walks the proper list `v`, calling `visit` with each element and
    /// the pair that holds it, and stops at the first `Some` it returns.
    /// A tail that is neither a pair nor `()` is an `improper-list`, and so
    /// is a cycle: a walk longer than the heap has objects has come back
    /// to a pair it visited.
    fn walk_list<T>(
        &self,
        mut v: Value,
        who: &str,
        mut visit: impl FnMut(Value, Value) -> R<Option<T>>,
    ) -> R<Option<T>> {
        for _ in 0..self.heap.len() {
            let Some((a, d)) = v.as_obj().and_then(|r| self.heap.pair(r)) else { break };
            if let Some(found) = visit(a, v)? {
                return Ok(Some(found));
            }
            v = d;
        }
        if v == Value::NIL {
            Ok(None)
        } else {
            Err(improper_list(who))
        }
    }

    /// Collects a proper list into a vector.
    pub(crate) fn list_to_vec(&self, v: Value, who: &str) -> R<Vec<Value>> {
        let mut out = Vec::new();
        self.walk_list(v, who, |a, _| {
            out.push(a);
            Ok(None::<()>)
        })?;
        Ok(out)
    }

    fn string_of(&self, v: Value, who: &str) -> R<Vec<char>> {
        match v.as_obj().and_then(|r| self.heap.string(r)) {
            Some(s) => Ok(s.to_vec()),
            None => Err(self.type_error(who, "string", v)),
        }
    }

    fn alloc_string(&mut self, s: Vec<char>) -> Value {
        Value::obj(self.heap.alloc(Obj::Str(s)))
    }

    // --- staged builtins (resumed from exec.rs) ---

    /// `dynamic-wind` stage 2: `before` returned; push the winder and call
    /// the thunk.
    pub(crate) fn dynamic_wind_body(&mut self) -> R<Flow> {
        let before = self.arg(0);
        let thunk = self.arg(1);
        let after = self.arg(2);
        let winder = Value::obj(self.heap.alloc(Obj::Pair(before, after)));
        self.winders = Value::obj(self.heap.alloc(Obj::Pair(winder, self.winders)));
        let fp = self.stack.fp();
        self.stack.set(fp + 4, Slot::Resume { kind: Resume::WindAfter, disp: 4 });
        self.stack.set_fp(fp + 4);
        self.transfer(thunk, 0)
    }

    /// `dynamic-wind` stage 3: the thunk returned; stash its value(s), pop
    /// the winder, call `after`.
    pub(crate) fn dynamic_wind_after(&mut self) -> R<Flow> {
        let (stash, was_mv) = match self.mv.take() {
            Some(vals) => (Value::obj(self.heap.alloc(Obj::Vector(vals))), true),
            None => (self.acc, false),
        };
        self.set_local(1, stash);
        self.set_local(2, Value::boolean(was_mv));
        self.winders = self.cdr_of(self.winders)?;
        let after = self.local(3);
        let fp = self.stack.fp();
        self.stack.set(fp + 4, Slot::Resume { kind: Resume::WindDone, disp: 4 });
        self.stack.set_fp(fp + 4);
        self.transfer(after, 0)
    }

    /// `dynamic-wind` stage 4: `after` returned; restore the thunk's
    /// value(s).
    pub(crate) fn dynamic_wind_done(&mut self) -> R<Flow> {
        let stash = self.local(1);
        let was_mv = self.local(2);
        if was_mv == Value::TRUE {
            let Some(vals) = stash.as_obj().and_then(|r| self.heap.vector(r)) else {
                return Err(VmError::internal("wind stash corrupt"));
            };
            self.mv = Some(vals.to_vec());
            self.acc = Value::UNSPECIFIED;
        } else {
            self.acc = stash;
            self.mv = None;
        }
        Ok(Flow::Return)
    }

    /// `call-with-values` stage 2: the producer returned; apply the
    /// consumer.
    pub(crate) fn cwv_consume(&mut self) -> R<Flow> {
        let vals = match self.mv.take() {
            Some(vals) => vals,
            None => vec![self.acc],
        };
        let consumer = self.local(2);
        self.ensure_or_raise(vals.len() + 3, 3)?;
        for (i, v) in vals.iter().enumerate() {
            self.set_local(1 + i, *v);
        }
        Ok(Flow::Tail { f: consumer, argc: vals.len() })
    }
}

/// The catchable `type-error` for an argument that is not a `kind`.
fn expected(who: &str, kind: &str) -> Box<VmError> {
    VmError::condition(ConditionKind::TypeError, format!("{who}: expected {kind}"))
}

fn improper_list(who: &str) -> Box<VmError> {
    VmError::condition(ConditionKind::ImproperList, format!("{who}: improper list"))
}

fn division_by_zero(who: &str) -> Box<VmError> {
    VmError::condition(ConditionKind::DivisionByZero, format!("{who}: division by zero"))
}

fn fixnum_overflow(who: &str) -> Box<VmError> {
    VmError::condition(ConditionKind::Error, format!("fixnum overflow in {who}"))
}

/// `n` copies of `x`, or the catchable `out-of-memory` when the host
/// cannot reserve them: a guest-sized allocation never aborts the process.
fn filled<T: Clone>(n: usize, x: T, who: &str) -> R<Vec<T>> {
    let mut v = Vec::new();
    if v.try_reserve_exact(n).is_err() {
        let message = format!("{who}: cannot allocate {n} elements");
        return Err(VmError::condition(ConditionKind::OutOfMemory, message));
    }
    v.resize(n, x);
    Ok(v)
}

fn fix(v: Value, who: &str) -> R<i64> {
    v.as_fixnum().ok_or_else(|| expected(who, "integer"))
}

/// A fixnum result that must fit the 50-bit payload; raises the catchable
/// overflow condition otherwise (the word has no bignum fallback).
fn fixnum_or_overflow(n: i64, who: &str) -> R<Value> {
    Value::fixnum_checked(n).ok_or_else(|| fixnum_overflow(who))
}

fn ufix(v: Value, who: &str) -> R<usize> {
    usize::try_from(fix(v, who)?).map_err(|_| expected(who, "nonnegative integer"))
}

fn net_port(v: Value, who: &str) -> R<u16> {
    let n = fix(v, who)?;
    u16::try_from(n).map_err(|_| range_error(format!("{who}: expected a port in 0..=65535")))
}

fn chr(v: Value, who: &str) -> R<char> {
    v.as_char().ok_or_else(|| expected(who, "character"))
}

/// Chained numeric comparison over all arguments.
fn cmp_chain(vm: &mut Vm, argc: usize, op: Cmp) -> R<Flow> {
    for i in 0..argc - 1 {
        if !num_cmp(op, vm.arg(i), vm.arg(i + 1))? {
            vm.acc = Value::FALSE;
            return Ok(Flow::Return);
        }
    }
    vm.acc = Value::TRUE;
    Ok(Flow::Return)
}

fn char_cmp_chain(
    vm: &mut Vm,
    argc: usize,
    who: &'static str,
    f: fn(char, char) -> bool,
) -> R<Flow> {
    for i in 0..argc - 1 {
        let (a, b) = (chr(vm.arg(i), who)?, chr(vm.arg(i + 1), who)?);
        if !f(a, b) {
            vm.acc = Value::FALSE;
            return Ok(Flow::Return);
        }
    }
    vm.acc = Value::TRUE;
    Ok(Flow::Return)
}

fn string_cmp_chain(
    vm: &mut Vm,
    argc: usize,
    who: &'static str,
    f: fn(&[char], &[char]) -> bool,
) -> R<Flow> {
    for i in 0..argc - 1 {
        let a = vm.string_of(vm.arg(i), who)?;
        let b = vm.string_of(vm.arg(i + 1), who)?;
        if !f(&a, &b) {
            vm.acc = Value::FALSE;
            return Ok(Flow::Return);
        }
    }
    vm.acc = Value::TRUE;
    Ok(Flow::Return)
}

/// Simple value-returning builtins share this wrapper shape.
macro_rules! ret {
    ($vm:expr, $v:expr) => {{
        $vm.acc = $v;
        Ok(Flow::Return)
    }};
}

/// The row of a unary predicate builtin.
macro_rules! pred {
    ($name:literal, $f:expr) => {
        fixed($name, 1, |vm, _| {
            let v = vm.arg(0);
            let p: fn(&Vm, Value) -> bool = $f;
            vm.acc = Value::boolean(p(vm, v));
            Ok(Flow::Return)
        })
    };
}

/// Every builtin, one row each.
static BUILTINS: &[Builtin] = &[
    // --- numbers ---
    variadic("+", 0, |vm, argc| {
        let mut acc = Value::fixnum(0);
        for i in 0..argc {
            acc = arith(Arith::Add, acc, vm.arg(i))?;
        }
        ret!(vm, acc)
    }),
    variadic("-", 1, |vm, argc| {
        if argc == 1 {
            return ret!(vm, arith(Arith::Sub, Value::fixnum(0), vm.arg(0))?);
        }
        let mut acc = vm.arg(0);
        for i in 1..argc {
            acc = arith(Arith::Sub, acc, vm.arg(i))?;
        }
        ret!(vm, acc)
    }),
    variadic("*", 0, |vm, argc| {
        let mut acc = Value::fixnum(1);
        for i in 0..argc {
            acc = arith(Arith::Mul, acc, vm.arg(i))?;
        }
        ret!(vm, acc)
    }),
    variadic("/", 1, |vm, argc| {
        let mut acc = if argc == 1 { Value::fixnum(1) } else { vm.arg(0) };
        let rest = if argc == 1 { 0..1 } else { 1..argc };
        for i in rest {
            let d = vm.arg(i);
            acc = match (acc.as_fixnum(), d.as_fixnum()) {
                (Some(_), Some(0)) => return Err(division_by_zero("/")),
                (Some(a), Some(b)) if a % b == 0 => Value::fixnum(a / b),
                _ => {
                    let x = as_f64(acc, "/")?;
                    let y = as_f64(d, "/")?;
                    Value::flonum(x / y)
                }
            };
        }
        ret!(vm, acc)
    }),
    fixed("quotient", 2, |vm, _| {
        let (a, b) = (fix(vm.arg(0), "quotient")?, fix(vm.arg(1), "quotient")?);
        if b == 0 {
            return Err(division_by_zero("quotient"));
        }
        ret!(vm, fixnum_or_overflow(a.wrapping_div(b), "quotient")?)
    }),
    fixed("remainder", 2, |vm, _| {
        let (a, b) = (fix(vm.arg(0), "remainder")?, fix(vm.arg(1), "remainder")?);
        if b == 0 {
            return Err(division_by_zero("remainder"));
        }
        ret!(vm, Value::fixnum(a.wrapping_rem(b)))
    }),
    fixed("modulo", 2, |vm, _| {
        let (a, b) = (fix(vm.arg(0), "modulo")?, fix(vm.arg(1), "modulo")?);
        if b == 0 {
            return Err(division_by_zero("modulo"));
        }
        let r = a % b;
        let m = if r != 0 && (r < 0) != (b < 0) { r + b } else { r };
        ret!(vm, Value::fixnum(m))
    }),
    fixed("abs", 1, |vm, _| match vm.arg(0).unpack() {
        Unpacked::Fixnum(n) => ret!(vm, fixnum_or_overflow(n.abs(), "abs")?),
        Unpacked::Flonum(x) => ret!(vm, Value::flonum(x.abs())),
        _ => Err(vm.type_error("abs", "number", vm.arg(0))),
    }),
    variadic("min", 1, |vm, argc| {
        let mut best = vm.arg(0);
        for i in 1..argc {
            let v = vm.arg(i);
            if num_cmp(Cmp::Lt, v, best)? {
                best = v;
            }
        }
        ret!(vm, best)
    }),
    variadic("max", 1, |vm, argc| {
        let mut best = vm.arg(0);
        for i in 1..argc {
            let v = vm.arg(i);
            if num_cmp(Cmp::Gt, v, best)? {
                best = v;
            }
        }
        ret!(vm, best)
    }),
    variadic("gcd", 0, |vm, argc| {
        let mut g: i64 = 0;
        for i in 0..argc {
            g = gcd64(g, fix(vm.arg(i), "gcd")?.abs());
        }
        ret!(vm, fixnum_or_overflow(g, "gcd")?)
    }),
    variadic("lcm", 0, |vm, argc| {
        let mut l: i64 = 1;
        for i in 0..argc {
            let n = fix(vm.arg(i), "lcm")?.abs();
            if n == 0 {
                return ret!(vm, Value::fixnum(0));
            }
            l = (l / gcd64(l, n)).checked_mul(n).ok_or_else(|| fixnum_overflow("lcm"))?;
        }
        ret!(vm, fixnum_or_overflow(l, "lcm")?)
    }),
    fixed("expt", 2, |vm, _| match (vm.arg(0).as_fixnum(), vm.arg(1).as_fixnum()) {
        (Some(a), Some(b)) if b >= 0 => {
            let e = u32::try_from(b).map_err(|_| range_error("expt: exponent too large"))?;
            let r = a.checked_pow(e).ok_or_else(|| fixnum_overflow("expt"))?;
            ret!(vm, fixnum_or_overflow(r, "expt")?)
        }
        _ => {
            let x = as_f64(vm.arg(0), "expt")?;
            let y = as_f64(vm.arg(1), "expt")?;
            ret!(vm, Value::flonum(x.powf(y)))
        }
    }),
    fixed("sqrt", 1, |vm, _| match vm.arg(0).as_fixnum() {
        Some(n) if n >= 0 => {
            let r = (n as f64).sqrt();
            let ri = r.round() as i64;
            if ri.checked_mul(ri) == Some(n) {
                ret!(vm, Value::fixnum(ri))
            } else {
                ret!(vm, Value::flonum(r))
            }
        }
        _ => {
            ret!(vm, Value::flonum(as_f64(vm.arg(0), "sqrt")?.sqrt()))
        }
    }),
    fixed("floor", 1, |vm, _| round_like(vm, "floor", f64::floor)),
    fixed("ceiling", 1, |vm, _| round_like(vm, "ceiling", f64::ceil)),
    fixed("truncate", 1, |vm, _| round_like(vm, "truncate", f64::trunc)),
    fixed("round", 1, |vm, _| round_like(vm, "round", round_even)),
    fixed("exact->inexact", 1, |vm, _| {
        ret!(vm, Value::flonum(as_f64(vm.arg(0), "exact->inexact")?))
    }),
    fixed("inexact->exact", 1, |vm, _| match vm.arg(0).unpack() {
        Unpacked::Fixnum(n) => ret!(vm, Value::fixnum(n)),
        Unpacked::Flonum(x) if x.fract() == 0.0 && Value::fits_fixnum(x as i64) => {
            ret!(vm, Value::fixnum(x as i64))
        }
        _ => Err(range_error("inexact->exact: not representable as an exact integer")),
    }),
    pred!("number?", |_, v| v.is_fixnum() || v.is_flonum()),
    pred!("integer?", |_, v| {
        v.is_fixnum() || matches!(v.as_flonum(), Some(x) if x.fract() == 0.0)
    }),
    pred!("exact?", |_, v| v.is_fixnum()),
    pred!("inexact?", |_, v| v.is_flonum()),
    fixed("zero?", 1, |vm, _| ret!(vm, Value::boolean(vm.is_zero(vm.arg(0))?))),
    fixed("positive?", 1, |vm, _| {
        ret!(vm, Value::boolean(num_cmp(Cmp::Gt, vm.arg(0), Value::fixnum(0))?))
    }),
    fixed("negative?", 1, |vm, _| {
        ret!(vm, Value::boolean(num_cmp(Cmp::Lt, vm.arg(0), Value::fixnum(0))?))
    }),
    fixed("odd?", 1, |vm, _| ret!(vm, Value::boolean(fix(vm.arg(0), "odd?")? % 2 != 0))),
    fixed("even?", 1, |vm, _| ret!(vm, Value::boolean(fix(vm.arg(0), "even?")? % 2 == 0))),
    variadic("=", 2, |vm, argc| cmp_chain(vm, argc, Cmp::Eq)),
    variadic("<", 2, |vm, argc| cmp_chain(vm, argc, Cmp::Lt)),
    variadic(">", 2, |vm, argc| cmp_chain(vm, argc, Cmp::Gt)),
    variadic("<=", 2, |vm, argc| cmp_chain(vm, argc, Cmp::Le)),
    variadic(">=", 2, |vm, argc| cmp_chain(vm, argc, Cmp::Ge)),
    variadic("number->string", 1, |vm, argc| {
        let radix = if argc >= 2 { fix(vm.arg(1), "number->string")? } else { 10 };
        let s = match (vm.arg(0).unpack(), radix) {
            (Unpacked::Fixnum(n), 10) => n.to_string(),
            (Unpacked::Fixnum(n), 2) => format!("{n:b}"),
            (Unpacked::Fixnum(n), 8) => format!("{n:o}"),
            (Unpacked::Fixnum(n), 16) => format!("{n:x}"),
            (Unpacked::Flonum(x), 10) => {
                let mut s = String::new();
                oneshot_sexp::write_flonum(&mut s, x);
                s
            }
            _ => return Err(range_error("number->string: unsupported radix")),
        };
        let v = vm.alloc_string(s.chars().collect());
        ret!(vm, v)
    }),
    variadic("string->number", 1, |vm, argc| {
        let s: String = vm.string_of(vm.arg(0), "string->number")?.into_iter().collect();
        let radix = if argc >= 2 { fix(vm.arg(1), "string->number")? } else { 10 };
        // In radix 10 the answer is what the reader reads, when the
        // whole string is one number. Text made only of the characters
        // numbers are spelled with holds no comment or whitespace, so
        // a single datum read from it is the whole string. Integers
        // beyond the 50-bit fixnum payload degrade to inexact flonums,
        // as literals do (there is no bignum layer).
        let v = if radix == 10 {
            let spelled = |c: char| c.is_ascii_alphanumeric() || "+-.#".contains(c);
            match oneshot_sexp::read_all(&s).as_deref() {
                Ok([d @ (Datum::Fixnum(_) | Datum::Flonum(_))]) if s.chars().all(spelled) => {
                    datum_to_value(&mut vm.heap, &mut vm.syms, d)
                }
                _ => Value::FALSE,
            }
        } else {
            let radix = u32::try_from(radix)
                .ok()
                .filter(|r| (2..=36).contains(r))
                .ok_or_else(|| range_error("string->number: unsupported radix"))?;
            match i64::from_str_radix(&s, radix) {
                Ok(n) => Value::fixnum_checked(n).unwrap_or_else(|| Value::flonum(n as f64)),
                Err(_) => Value::FALSE,
            }
        };
        ret!(vm, v)
    }),
    // --- predicates ---
    fixed("eq?", 2, eq),
    fixed("eqv?", 2, eq),
    fixed("equal?", 2, |vm, _| {
        ret!(vm, Value::boolean(values_equal(&vm.heap, vm.arg(0), vm.arg(1))))
    }),
    pred!("not", |_, v| !v.is_true()),
    pred!("boolean?", |_, v| v.is_boolean()),
    pred!("procedure?", |vm, v| {
        v.is_builtin()
            || v.as_obj().is_some_and(|r| r.kind() == ObjKind::Closure || vm.heap.kont(r).is_some())
    }),
    pred!("symbol?", |_, v| v.is_sym()),
    pred!("string?", |_, v| v.is_obj_kind(ObjKind::Str)),
    pred!("char?", |_, v| v.is_char()),
    pred!("vector?", |_, v| v.is_obj_kind(ObjKind::Vector)),
    pred!("pair?", |_, v| v.is_pair()),
    pred!("null?", |_, v| v == Value::NIL),
    // --- pairs and lists ---
    fixed("cons", 2, |vm, _| {
        let v = Value::obj(vm.heap.alloc_pair(vm.arg(0), vm.arg(1)));
        ret!(vm, v)
    }),
    fixed("car", 1, |vm, _| ret!(vm, vm.car_of(vm.arg(0))?)),
    fixed("cdr", 1, |vm, _| ret!(vm, vm.cdr_of(vm.arg(0))?)),
    fixed("set-car!", 2, |vm, _| {
        let (p, v) = (vm.arg(0), vm.arg(1));
        let Some(r) = p.as_obj() else { return Err(vm.type_error("set-car!", "pair", p)) };
        let Some(pair) = vm.heap.pair_mut(r) else {
            return Err(vm.type_error("set-car!", "pair", p));
        };
        pair.0 = v;
        ret!(vm, Value::UNSPECIFIED)
    }),
    fixed("set-cdr!", 2, |vm, _| {
        let (p, v) = (vm.arg(0), vm.arg(1));
        let Some(r) = p.as_obj() else { return Err(vm.type_error("set-cdr!", "pair", p)) };
        let Some(pair) = vm.heap.pair_mut(r) else {
            return Err(vm.type_error("set-cdr!", "pair", p));
        };
        pair.1 = v;
        ret!(vm, Value::UNSPECIFIED)
    }),
    variadic("list", 0, |vm, argc| {
        let items = vm.args(argc);
        let v = vm.list(&items);
        ret!(vm, v)
    }),
    fixed("length", 1, |vm, _| {
        let mut n = 0;
        vm.walk_list(vm.arg(0), "length", |_, _| {
            n += 1;
            Ok(None::<()>)
        })?;
        ret!(vm, Value::fixnum(n))
    }),
    variadic("append", 0, |vm, argc| {
        if argc == 0 {
            return ret!(vm, Value::NIL);
        }
        let mut out = vm.arg(argc - 1);
        for i in (0..argc - 1).rev() {
            let items = vm.list_to_vec(vm.arg(i), "append")?;
            for &item in items.iter().rev() {
                out = vm.cons(item, out);
            }
        }
        ret!(vm, out)
    }),
    fixed("reverse", 1, |vm, _| {
        let items = vm.list_to_vec(vm.arg(0), "reverse")?;
        let mut out = Value::NIL;
        for &item in &items {
            out = vm.cons(item, out);
        }
        ret!(vm, out)
    }),
    fixed("list-tail", 2, |vm, _| {
        let mut v = vm.arg(0);
        for _ in 0..ufix(vm.arg(1), "list-tail")? {
            v = vm.cdr_of(v)?;
        }
        ret!(vm, v)
    }),
    fixed("list-ref", 2, |vm, _| {
        let mut v = vm.arg(0);
        for _ in 0..ufix(vm.arg(1), "list-ref")? {
            v = vm.cdr_of(v)?;
        }
        ret!(vm, vm.car_of(v)?)
    }),
    fixed("memq", 2, |vm, _| member(vm, "memq")),
    fixed("memv", 2, |vm, _| member(vm, "memv")),
    fixed("assq", 2, |vm, _| assoc(vm, "assq")),
    fixed("assv", 2, |vm, _| assoc(vm, "assv")),
    fixed("list?", 1, |vm, _| {
        // Floyd cycle detection.
        let mut slow = vm.arg(0);
        let mut fast = vm.arg(0);
        loop {
            if fast == Value::NIL {
                return ret!(vm, Value::TRUE);
            }
            if !fast.is_pair() {
                return ret!(vm, Value::FALSE);
            }
            fast = vm.cdr_of(fast)?;
            if fast == Value::NIL {
                return ret!(vm, Value::TRUE);
            }
            if !fast.is_pair() {
                return ret!(vm, Value::FALSE);
            }
            fast = vm.cdr_of(fast)?;
            slow = vm.cdr_of(slow)?;
            if fast == slow {
                return ret!(vm, Value::FALSE);
            }
        }
    }),
    // --- symbols ---
    fixed("symbol->string", 1, |vm, _| {
        let Some(s) = vm.arg(0).as_sym() else {
            return Err(vm.type_error("symbol->string", "symbol", vm.arg(0)));
        };
        let chars: Vec<char> = vm.syms.name(s).chars().collect();
        let v = vm.alloc_string(chars);
        ret!(vm, v)
    }),
    fixed("string->symbol", 1, |vm, _| {
        let s: String = vm.string_of(vm.arg(0), "string->symbol")?.into_iter().collect();
        let v = vm.intern(&s);
        ret!(vm, v)
    }),
    variadic("gensym", 0, |vm, argc| {
        let prefix = if argc >= 1 {
            vm.string_of(vm.arg(0), "gensym")?.into_iter().collect()
        } else {
            String::from("g")
        };
        let id = vm.syms.gensym(&prefix);
        ret!(vm, Value::sym(id))
    }),
    // --- characters ---
    fixed("char->integer", 1, |vm, _| {
        ret!(vm, Value::fixnum(i64::from(u32::from(chr(vm.arg(0), "char->integer")?))))
    }),
    fixed("integer->char", 1, |vm, _| {
        let n = fix(vm.arg(0), "integer->char")?;
        let c = u32::try_from(n)
            .ok()
            .and_then(char::from_u32)
            .ok_or_else(|| range_error("integer->char: not a character code"))?;
        ret!(vm, Value::character(c))
    }),
    variadic("char=?", 2, |vm, argc| char_cmp_chain(vm, argc, "char=?", |a, b| a == b)),
    variadic("char<?", 2, |vm, argc| char_cmp_chain(vm, argc, "char<?", |a, b| a < b)),
    variadic("char>?", 2, |vm, argc| char_cmp_chain(vm, argc, "char>?", |a, b| a > b)),
    variadic("char<=?", 2, |vm, argc| char_cmp_chain(vm, argc, "char<=?", |a, b| a <= b)),
    variadic("char>=?", 2, |vm, argc| char_cmp_chain(vm, argc, "char>=?", |a, b| a >= b)),
    fixed("char-upcase", 1, |vm, _| {
        ret!(vm, Value::character(chr(vm.arg(0), "char-upcase")?.to_ascii_uppercase()))
    }),
    fixed("char-downcase", 1, |vm, _| {
        ret!(vm, Value::character(chr(vm.arg(0), "char-downcase")?.to_ascii_lowercase()))
    }),
    fixed("char-alphabetic?", 1, |vm, _| {
        ret!(vm, Value::boolean(chr(vm.arg(0), "char-alphabetic?")?.is_alphabetic()))
    }),
    fixed("char-numeric?", 1, |vm, _| {
        ret!(vm, Value::boolean(chr(vm.arg(0), "char-numeric?")?.is_numeric()))
    }),
    fixed("char-whitespace?", 1, |vm, _| {
        ret!(vm, Value::boolean(chr(vm.arg(0), "char-whitespace?")?.is_whitespace()))
    }),
    fixed("char-upper-case?", 1, |vm, _| {
        ret!(vm, Value::boolean(chr(vm.arg(0), "char-upper-case?")?.is_uppercase()))
    }),
    fixed("char-lower-case?", 1, |vm, _| {
        ret!(vm, Value::boolean(chr(vm.arg(0), "char-lower-case?")?.is_lowercase()))
    }),
    // --- strings ---
    variadic("make-string", 1, |vm, argc| {
        let n = ufix(vm.arg(0), "make-string")?;
        let c = if argc >= 2 { chr(vm.arg(1), "make-string")? } else { ' ' };
        let v = vm.alloc_string(filled(n, c, "make-string")?);
        ret!(vm, v)
    }),
    variadic("string", 0, |vm, argc| {
        let mut s = Vec::with_capacity(argc);
        for i in 0..argc {
            s.push(chr(vm.arg(i), "string")?);
        }
        let v = vm.alloc_string(s);
        ret!(vm, v)
    }),
    fixed("string-length", 1, |vm, _| {
        let n = vm.string_of(vm.arg(0), "string-length")?.len();
        ret!(vm, Value::fixnum(n as i64))
    }),
    fixed("string-ref", 2, |vm, _| {
        let s = vm.string_of(vm.arg(0), "string-ref")?;
        let i = ufix(vm.arg(1), "string-ref")?;
        let c = s.get(i).ok_or_else(|| range_error("string-ref: index out of range"))?;
        ret!(vm, Value::character(*c))
    }),
    fixed("string-set!", 3, |vm, _| {
        let i = ufix(vm.arg(1), "string-set!")?;
        let c = chr(vm.arg(2), "string-set!")?;
        let Some(r) = vm.arg(0).as_obj() else {
            return Err(vm.type_error("string-set!", "string", vm.arg(0)));
        };
        let Some(s) = vm.heap.string_mut(r) else {
            return Err(expected("string-set!", "string"));
        };
        let slot = s.get_mut(i).ok_or_else(|| range_error("string-set!: index out of range"))?;
        *slot = c;
        ret!(vm, Value::UNSPECIFIED)
    }),
    variadic("string=?", 2, |vm, argc| string_cmp_chain(vm, argc, "string=?", |a, b| a == b)),
    variadic("string<?", 2, |vm, argc| string_cmp_chain(vm, argc, "string<?", |a, b| a < b)),
    variadic("string>?", 2, |vm, argc| string_cmp_chain(vm, argc, "string>?", |a, b| a > b)),
    variadic("string<=?", 2, |vm, argc| string_cmp_chain(vm, argc, "string<=?", |a, b| a <= b)),
    variadic("string>=?", 2, |vm, argc| string_cmp_chain(vm, argc, "string>=?", |a, b| a >= b)),
    fixed("substring", 3, |vm, _| {
        let s = vm.string_of(vm.arg(0), "substring")?;
        let start = ufix(vm.arg(1), "substring")?;
        let end = ufix(vm.arg(2), "substring")?;
        if start > end || end > s.len() {
            return Err(range_error("substring: index out of range"));
        }
        let v = vm.alloc_string(s[start..end].to_vec());
        ret!(vm, v)
    }),
    variadic("string-append", 0, |vm, argc| {
        let mut out = Vec::new();
        for i in 0..argc {
            out.extend(vm.string_of(vm.arg(i), "string-append")?);
        }
        let v = vm.alloc_string(out);
        ret!(vm, v)
    }),
    fixed("string->list", 1, |vm, _| {
        let items: Vec<Value> =
            vm.string_of(vm.arg(0), "string->list")?.into_iter().map(Value::character).collect();
        let v = vm.list(&items);
        ret!(vm, v)
    }),
    fixed("list->string", 1, |vm, _| {
        let items = vm.list_to_vec(vm.arg(0), "list->string")?;
        let mut s = Vec::with_capacity(items.len());
        for item in items {
            s.push(chr(item, "list->string")?);
        }
        let v = vm.alloc_string(s);
        ret!(vm, v)
    }),
    fixed("string-copy", 1, |vm, _| {
        let s = vm.string_of(vm.arg(0), "string-copy")?;
        let v = vm.alloc_string(s);
        ret!(vm, v)
    }),
    fixed("string-fill!", 2, |vm, _| {
        let c = chr(vm.arg(1), "string-fill!")?;
        let Some(r) = vm.arg(0).as_obj() else {
            return Err(vm.type_error("string-fill!", "string", vm.arg(0)));
        };
        let Some(s) = vm.heap.string_mut(r) else {
            return Err(expected("string-fill!", "string"));
        };
        s.fill(c);
        ret!(vm, Value::UNSPECIFIED)
    }),
    // --- vectors ---
    variadic("make-vector", 1, |vm, argc| {
        let n = ufix(vm.arg(0), "make-vector")?;
        let fill = if argc >= 2 { vm.arg(1) } else { Value::UNSPECIFIED };
        let v = Value::obj(vm.heap.alloc(Obj::Vector(filled(n, fill, "make-vector")?)));
        ret!(vm, v)
    }),
    variadic("vector", 0, |vm, argc| {
        let items = vm.args(argc);
        let v = Value::obj(vm.heap.alloc(Obj::Vector(items)));
        ret!(vm, v)
    }),
    fixed("vector-length", 1, |vm, _| {
        let Some(r) = vm.arg(0).as_obj() else {
            return Err(vm.type_error("vector-length", "vector", vm.arg(0)));
        };
        let Some(items) = vm.heap.vector(r) else {
            return Err(vm.type_error("vector-length", "vector", vm.arg(0)));
        };
        ret!(vm, Value::fixnum(items.len() as i64))
    }),
    fixed("vector-ref", 2, |vm, _| ret!(vm, vm.vector_ref(vm.arg(0), vm.arg(1))?)),
    fixed("vector-set!", 3, |vm, _| {
        let (v, i, x) = (vm.arg(0), vm.arg(1), vm.arg(2));
        vector_set(&mut vm.heap, &vm.syms, v, i, x)?;
        ret!(vm, Value::UNSPECIFIED)
    }),
    fixed("vector->list", 1, |vm, _| {
        let Some(r) = vm.arg(0).as_obj() else {
            return Err(vm.type_error("vector->list", "vector", vm.arg(0)));
        };
        let Some(items) = vm.heap.vector(r) else {
            return Err(vm.type_error("vector->list", "vector", vm.arg(0)));
        };
        let items = items.to_vec();
        let v = vm.list(&items);
        ret!(vm, v)
    }),
    fixed("list->vector", 1, |vm, _| {
        let items = vm.list_to_vec(vm.arg(0), "list->vector")?;
        let v = Value::obj(vm.heap.alloc(Obj::Vector(items)));
        ret!(vm, v)
    }),
    fixed("vector-fill!", 2, |vm, _| {
        let x = vm.arg(1);
        let Some(r) = vm.arg(0).as_obj() else {
            return Err(vm.type_error("vector-fill!", "vector", vm.arg(0)));
        };
        let Some(items) = vm.heap.vector_mut(r) else {
            return Err(expected("vector-fill!", "vector"));
        };
        items.fill(x);
        ret!(vm, Value::UNSPECIFIED)
    }),
    // --- control ---
    variadic("apply", 2, |vm, argc| {
        let f = vm.arg(0);
        let mut full: Vec<Value> = (1..argc - 1).map(|i| vm.arg(i)).collect();
        full.extend(vm.list_to_vec(vm.arg(argc - 1), "apply")?);
        vm.ensure_or_raise(full.len() + 3, 1 + argc)?;
        for (i, v) in full.iter().enumerate() {
            vm.set_local(1 + i, *v);
        }
        Ok(Flow::Tail { f, argc: full.len() })
    }),
    fixed("call/cc", 1, call_cc),
    fixed("call-with-current-continuation", 1, call_cc),
    fixed("call/1cc", 1, |vm, _| {
        let p = vm.arg(0);
        let kont = vm.stack.capture_one(4);
        let kv = Value::obj(vm.heap.alloc(Obj::Kont { kont, winders: vm.winders, prompt: None }));
        vm.set_local(1, kv);
        Ok(Flow::Tail { f: p, argc: 1 })
    }),
    fixed("dynamic-wind", 3, |vm, argc| {
        vm.ensure_or_raise(8, 1 + argc)?;
        let before = vm.arg(0);
        let fp = vm.stack.fp();
        vm.stack.set(fp + 4, Slot::Resume { kind: Resume::WindBody, disp: 4 });
        vm.stack.set_fp(fp + 4);
        vm.transfer(before, 0)
    }),
    variadic("values", 0, |vm, argc| {
        if argc == 1 {
            vm.acc = vm.arg(0);
            vm.mv = None;
        } else {
            vm.mv = Some(vm.args(argc));
            vm.acc = Value::UNSPECIFIED;
        }
        Ok(Flow::Return)
    }),
    fixed("call-with-values", 2, |vm, argc| {
        vm.ensure_or_raise(8, 1 + argc)?;
        let producer = vm.arg(0);
        let fp = vm.stack.fp();
        vm.stack.set(fp + 3, Slot::Resume { kind: Resume::CwvConsume, disp: 3 });
        vm.stack.set_fp(fp + 3);
        vm.transfer(producer, 0)
    }),
    // --- i/o ---
    variadic("display", 1, |vm, _| {
        let s = vm.display_value(&vm.arg(0));
        vm.emit_output(&s);
        ret!(vm, Value::UNSPECIFIED)
    }),
    variadic("write", 1, |vm, _| {
        let s = vm.write_value(&vm.arg(0));
        vm.emit_output(&s);
        ret!(vm, Value::UNSPECIFIED)
    }),
    fixed("newline", 0, |vm, _| {
        vm.emit_output("\n");
        ret!(vm, Value::UNSPECIFIED)
    }),
    variadic("write-char", 1, |vm, _| {
        let c = chr(vm.arg(0), "write-char")?;
        vm.emit_output(&c.to_string());
        ret!(vm, Value::UNSPECIFIED)
    }),
    // --- system ---
    variadic("error", 0, |vm, argc| {
        let mut msg = String::new();
        for i in 0..argc {
            if i > 0 {
                msg.push(' ');
            }
            let v = vm.arg(i);
            if v.is_obj_kind(ObjKind::Str) {
                msg.push_str(&vm.display_value(&v));
            } else {
                msg.push_str(&vm.write_value(&v));
            }
        }
        // `(error ...)` is a raised condition of kind `error`: the
        // dispatch loop re-raises it through the prelude so guard
        // handlers can catch it; uncaught, it prints `error: <msg>`.
        Err(VmError::condition(ConditionKind::Error, msg))
    }),
    fixed("void", 0, |vm, _| ret!(vm, Value::UNSPECIFIED)),
    variadic("gc", 0, |vm, argc| {
        vm.collect(1 + argc);
        ret!(vm, Value::UNSPECIFIED)
    }),
    fixed("set-timer!", 1, |vm, _| {
        let n = fix(vm.arg(0), "set-timer!")?;
        let old = if vm.timer_on { vm.fuel as i64 } else { 0 };
        if n > 0 {
            vm.timer_on = true;
            vm.fuel = n as u64;
        } else {
            vm.timer_on = false;
            vm.fuel = 0;
        }
        ret!(vm, Value::fixnum(old))
    }),
    fixed("timer-interrupt-handler!", 1, |vm, _| {
        let old = vm.timer_handler;
        vm.timer_handler = vm.arg(0);
        ret!(vm, old)
    }),
    fixed("vm-stats", 0, |vm, _| {
        let mut entries: Vec<(String, i64)> = Vec::new();
        vm.stats().visit(&mut |field, n| {
            if let Some(key) = field.vm_key() {
                entries.push((key, n as i64));
            }
        });
        for (key, n) in [
            ("resident-slots", vm.stack.resident_slots()),
            ("live-segments", vm.stack.segment_count()),
            ("live-uncached-segments", vm.stack.live_segment_count()),
        ] {
            entries.push((key.to_string(), n as i64));
        }
        let mut alist = Value::NIL;
        for (name, n) in entries.into_iter().rev() {
            let key = vm.intern(&name);
            let pair = vm.cons(key, Value::fixnum(n));
            alist = vm.cons(pair, alist);
        }
        ret!(vm, alist)
    }),
    variadic("eval", 1, |vm, _| {
        // (eval datum) — compiles through the VM's pipeline and
        // tail-calls the resulting toplevel thunk. A second
        // (environment) argument is accepted and ignored: there is one
        // global environment.
        let syntax_error = |message| VmError::condition(ConditionKind::SyntaxError, message);
        let datum =
            oneshot_runtime::value_to_datum(&vm.heap, &vm.syms, vm.arg(0)).map_err(syntax_error)?;
        let prog = oneshot_compiler::compile_program_with(
            &[datum],
            vm.pipeline(),
            CompilerOptions::default(),
            cps_direct,
        )
        .map_err(|e| syntax_error(e.to_string()))?;
        let entry = vm.link(&prog);
        let thunk = Value::obj(vm.heap.alloc(Obj::Closure { code: entry, free: Box::new([]) }));
        Ok(Flow::Tail { f: thunk, argc: 0 })
    }),
    fixed("backtrace", 0, |vm, _| {
        let names = vm.backtrace();
        let items: Vec<Value> = names
            .iter()
            .map(|n| {
                let id = vm.syms.intern(n);
                Value::sym(id)
            })
            .collect();
        let v = vm.list(&items);
        ret!(vm, v)
    }),
    fixed("sleep-ms", 1, |vm, _| {
        // (sleep-ms n): block the calling OS thread for n milliseconds.
        // Models a request handler waiting on I/O; the executor's mixed
        // workload uses it so multi-worker throughput scaling is
        // observable even on one core.
        let n = fix(vm.arg(0), "sleep-ms")?;
        if n < 0 {
            return Err(range_error("sleep-ms: expected a non-negative duration"));
        }
        std::thread::sleep(std::time::Duration::from_millis(n as u64));
        ret!(vm, Value::UNSPECIFIED)
    }),
    variadic("debug-panic!", 0, |vm, argc| {
        // (debug-panic! msg): abort via a Rust panic instead of a Scheme
        // error. Fault-injection hook for the executor's catch_unwind
        // isolation tests; never use it for ordinary error signalling.
        let msg = if argc > 0 { vm.display_value(&vm.arg(0)) } else { "debug-panic!".to_string() };
        panic!("debug-panic!: {msg}");
    }),
    fixed("now-us", 0, |vm, _| {
        // (now-us): microseconds since the first call in this process.
        // A monotonic clock for guest-side latency measurement; the
        // origin is arbitrary, only differences are meaningful.
        use std::sync::OnceLock;
        use std::time::Instant;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        let t0 = *EPOCH.get_or_init(Instant::now);
        let us = i64::try_from(t0.elapsed().as_micros()).unwrap_or(i64::MAX);
        ret!(vm, Value::fixnum(us))
    }),
    // --- nonblocking loopback TCP ---
    // All `%tcp-*` builtins return immediately; #f means would-block.
    // The retry loops that suspend the running green thread live in
    // the threads crate's io.scm. I/O failures raise the catchable
    // `io-error` condition. Strings cross the socket as latin-1: one
    // char per byte, lossless for the full 0..=255 range.
    variadic("%tcp-listen", 1, |vm, argc| {
        // (%tcp-listen port) binds loopback; (%tcp-listen host port)
        // binds a real AF_INET address ("0.0.0.0" for any).
        let tok = match argc {
            1 => vm.net.listen(net_port(vm.arg(0), "%tcp-listen")?)?,
            2 => {
                let host: String = vm.string_of(vm.arg(0), "%tcp-listen")?.iter().collect();
                vm.net.listen_on(&host, net_port(vm.arg(1), "%tcp-listen")?)?
            }
            _ => return Err(arity_error("%tcp-listen", 2, false, argc)),
        };
        ret!(vm, Value::fixnum(tok))
    }),
    fixed("%tcp-local-port", 1, |vm, _| {
        let tok = fix(vm.arg(0), "%tcp-local-port")?;
        let port = vm.net.local_port(tok)?;
        ret!(vm, Value::fixnum(port))
    }),
    fixed("%tcp-accept", 1, |vm, _| {
        let tok = fix(vm.arg(0), "%tcp-accept")?;
        match vm.net.accept(tok)? {
            Some(t) => ret!(vm, Value::fixnum(t)),
            None => ret!(vm, Value::FALSE),
        }
    }),
    variadic("%tcp-connect", 1, |vm, argc| {
        // (%tcp-connect port) targets loopback; (%tcp-connect host
        // port) any AF_INET address.
        let tok = match argc {
            1 => vm.net.connect(net_port(vm.arg(0), "%tcp-connect")?)?,
            2 => {
                let host: String = vm.string_of(vm.arg(0), "%tcp-connect")?.iter().collect();
                vm.net.connect_to(&host, net_port(vm.arg(1), "%tcp-connect")?)?
            }
            _ => return Err(arity_error("%tcp-connect", 2, false, argc)),
        };
        ret!(vm, Value::fixnum(tok))
    }),
    fixed("%tcp-read", 2, |vm, _| {
        // (%tcp-read tok max) -> string | 'eof | #f
        let tok = fix(vm.arg(0), "%tcp-read")?;
        let max = fix(vm.arg(1), "%tcp-read")?;
        if max <= 0 {
            return Err(range_error("%tcp-read: expected a positive byte count"));
        }
        let mut max = max as usize;
        // Syscall-level chaos: the armed clocks fire at most once each
        // per VM, behind the same guards_active gate as every other
        // fault site — a disarmed VM pays one predictable branch.
        if vm.guards_active {
            if vm.io_reset_fault.tick() {
                vm.faults_injected += 1;
                return Err(VmError::condition(
                    ConditionKind::IoError,
                    "%tcp-read: connection reset by peer (injected)",
                ));
            }
            if vm.io_spurious_fault.tick() {
                // EAGAIN after readiness: report would-block even
                // though the reactor said ready; the guest re-suspends
                // and the fd's readiness is owed back to the reactor.
                vm.faults_injected += 1;
                vm.net.owe(tok);
                return ret!(vm, Value::FALSE);
            }
            if vm.io_short_fault.tick() {
                vm.faults_injected += 1;
                max = 1;
            }
        }
        match vm.net.read(tok, max)? {
            crate::net::ReadOutcome::Data(bytes) => {
                let chars: Vec<char> = bytes.iter().map(|&b| b as char).collect();
                let s = vm.alloc_string(chars);
                ret!(vm, s)
            }
            crate::net::ReadOutcome::Eof => {
                let eof = vm.intern("eof");
                ret!(vm, eof)
            }
            crate::net::ReadOutcome::WouldBlock => ret!(vm, Value::FALSE),
        }
    }),
    fixed("%tcp-write", 3, |vm, _| {
        // (%tcp-write tok str start) -> chars-written | #f
        let tok = fix(vm.arg(0), "%tcp-write")?;
        let str_arg = vm.arg(1);
        let Some(chars) = str_arg.as_obj().and_then(|r| vm.heap.string(r)) else {
            return Err(vm.type_error("%tcp-write", "string", str_arg));
        };
        let start = fix(vm.arg(2), "%tcp-write")?;
        let start = usize::try_from(start)
            .ok()
            .filter(|&s| s <= chars.len())
            .ok_or_else(|| range_error("%tcp-write: start out of range"))?;
        let Some(mut len) = vm.net.encode_latin1(&chars[start..]) else {
            return Err(VmError::condition(
                ConditionKind::IoError,
                "%tcp-write: string has chars above latin-1",
            ));
        };
        // Syscall-level chaos, mirroring %tcp-read's sites: reset,
        // spurious would-block, and a 1-byte short write the guest's
        // tcp-write loop must absorb.
        if vm.guards_active && len > 0 {
            if vm.io_reset_fault.tick() {
                vm.faults_injected += 1;
                return Err(VmError::condition(
                    ConditionKind::IoError,
                    "%tcp-write: connection reset by peer (injected)",
                ));
            }
            if vm.io_spurious_fault.tick() {
                vm.faults_injected += 1;
                vm.net.owe(tok);
                return ret!(vm, Value::FALSE);
            }
            if vm.io_short_fault.tick() {
                vm.faults_injected += 1;
                len = 1;
            }
        }
        match vm.net.write_encoded(tok, len)? {
            Some(n) => ret!(vm, Value::fixnum(n as i64)),
            None => ret!(vm, Value::FALSE),
        }
    }),
    fixed("%tcp-close", 1, |vm, _| {
        let tok = fix(vm.arg(0), "%tcp-close")?;
        let closed = vm.net.close(tok);
        ret!(vm, Value::boolean(closed))
    }),
    fixed("%net-live", 0, |vm, _| {
        // Open sockets in this VM's table — the leak audit a server
        // runs after draining its connections.
        ret!(vm, Value::fixnum(vm.net.live() as i64))
    }),
    fixed("%conn-take", 0, |vm, _| {
        // The socket token of the connection the embedder adopted for
        // the running job (`Vm::set_conn_token`); #f in any other job.
        match vm.conn {
            Some(tok) => ret!(vm, Value::fixnum(tok)),
            None => ret!(vm, Value::FALSE),
        }
    }),
    // --- CPS support ---
    fixed("%apply-args", 3, |vm, argc| {
        // (%apply-args k f spec): the CPS prelude's apply. Spreads
        // `spec` per apply's rules, then calls `f` with the
        // continuation prepended — unless `f` is a direct Rust builtin,
        // which takes no continuation; its result is delivered to `k`.
        let k = vm.arg(0);
        let f = vm.arg(1);
        let spec = vm.list_to_vec(vm.arg(2), "apply")?;
        if spec.is_empty() {
            // The guest called `(apply f)`: what the direct row refuses.
            return Err(arity_error("apply", 2, true, 1));
        }
        let mut spread: Vec<Value> = spec[..spec.len() - 1].to_vec();
        spread.extend(vm.list_to_vec(spec[spec.len() - 1], "apply")?);
        if let Some(b) = f.as_builtin() {
            // The frame keeps its three arguments live while it grows,
            // even when the spread is shorter.
            vm.ensure_or_raise(spread.len().max(argc) + 3, 1 + argc)?;
            let n = spread.len();
            for (i, v) in spread.iter().enumerate() {
                vm.set_local(1 + i, *v);
            }
            match vm.call_builtin(b, n)? {
                Flow::Return => {
                    if vm.mv.is_some() {
                        return Err(VmError::condition(
                            ConditionKind::ValuesError,
                            "apply: multiple values are unsupported in CPS mode",
                        ));
                    }
                    let v = vm.acc;
                    vm.set_local(1, v);
                    return Ok(Flow::Tail { f: k, argc: 1 });
                }
                _ => {
                    return Err(VmError::condition(
                        ConditionKind::Error,
                        "apply: builtin transferred control in CPS mode",
                    ))
                }
            }
        }
        let mut full = vec![k];
        full.extend(spread);
        vm.ensure_or_raise(full.len() + 3, 1 + argc)?;
        for (i, v) in full.iter().enumerate() {
            vm.set_local(1 + i, *v);
        }
        Ok(Flow::Tail { f, argc: full.len() })
    }),
    // --- condition system support (used only by the prelude) ---
    fixed("%push-handler!", 1, |vm, _| {
        let h = vm.arg(0);
        vm.handlers = vm.cons(h, vm.handlers);
        ret!(vm, Value::UNSPECIFIED)
    }),
    fixed("%pop-handler!", 0, |vm, _| {
        // Popping an empty stack is a no-op: the prelude only pops
        // inside dynamic-wind brackets it pushed itself.
        vm.handlers = vm.cdr_of(vm.handlers).unwrap_or(Value::NIL);
        ret!(vm, Value::UNSPECIFIED)
    }),
    fixed("%top-handler", 0, |vm, _| {
        let h = vm.car_of(vm.handlers).map_err(|_| {
            VmError::condition(ConditionKind::Error, "%top-handler: empty handler stack")
        })?;
        ret!(vm, h)
    }),
    fixed("%have-handler?", 0, |vm, _| {
        let b = Value::boolean(vm.handlers != Value::NIL);
        ret!(vm, b)
    }),
    fixed("%note-raise!", 0, |vm, _| {
        vm.conditions_raised += 1;
        ret!(vm, Value::UNSPECIFIED)
    }),
    variadic("%uncaught", 1, |vm, _| {
        // Terminal: no handler was installed for a raised condition.
        // `(kind . "message")` conditions surface their message text, as
        // `error: <message>` once displayed; anything else is written as
        // a datum.
        let c = vm.arg(0);
        let parts = c
            .as_obj()
            .and_then(|r| vm.heap.pair(r))
            .and_then(|(k, d)| k.as_sym().map(|k| (k, d)))
            .filter(|&(_, d)| d.is_obj_kind(ObjKind::Str));
        let (condition, kind) = match parts {
            Some((k, d)) => (vm.display_value(&d), Some(vm.syms.name(k).to_string())),
            None => (vm.write_value(&c), None),
        };
        Err(Box::new(VmError::Uncaught { condition, kind, backtrace: vm.backtrace() }))
    }),
    // --- delimited control (used only by the prelude) ---
    fixed("%push-prompt", 2, |vm, argc| {
        // (%push-prompt tag thunk): runs `thunk` delimited by a prompt
        // tagged `tag`. The tag pair stored on the record also carries
        // the winder list at push time, so take/abort know how far to
        // unwind.
        vm.ensure_or_raise(8, 1 + argc)?;
        let tag = vm.arg(0);
        let thunk = vm.arg(1);
        let tagpair = Value::obj(vm.heap.alloc(Obj::Pair(tag, vm.winders)));
        let fp = vm.stack.fp();
        vm.stack.set(fp + 3, Slot::Resume { kind: Resume::PromptReturn, disp: 3 });
        vm.stack.set_fp(fp + 3);
        vm.stack.push_prompt(Slot::Val(tagpair), 4);
        vm.transfer(thunk, 0)
    }),
    fixed("%take-subcont", 2, |vm, _| {
        // (%take-subcont tag handler): calls `handler` on the one-shot
        // subcontinuation up to the nearest `tag` prompt.
        Ok(vm.take_subcont(vm.arg(0), vm.arg(1))?.into())
    }),
    variadic("%push-subcont", 1, |vm, argc| {
        // (%push-subcont sk v...): splices subcontinuation `sk`,
        // delivering the values through its innermost frame.
        Ok(vm.push_subcont(argc)?.into())
    }),
    variadic("%abort-to-prompt", 1, |vm, argc| {
        // (%abort-to-prompt tag v...): returns the values from the
        // nearest `tag` prompt.
        Ok(vm.abort_to_prompt(argc)?.into())
    }),
    fixed("%prompt-set?", 1, |vm, _| {
        // (%prompt-set? tag): is a prompt with this tag on the current
        // continuation chain?
        let b = Value::boolean(vm.find_prompt_opt(vm.arg(0)).is_some());
        ret!(vm, b)
    }),
];

fn gcd64(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd64(b, a % b)
    }
}

fn round_even(x: f64) -> f64 {
    let r = x.round();
    if (x - x.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
        r - x.signum()
    } else {
        r
    }
}

fn round_like(vm: &mut Vm, who: &str, f: fn(f64) -> f64) -> R<Flow> {
    match vm.arg(0).unpack() {
        Unpacked::Fixnum(n) => {
            vm.acc = Value::fixnum(n);
            Ok(Flow::Return)
        }
        Unpacked::Flonum(x) => {
            vm.acc = Value::flonum(f(x));
            Ok(Flow::Return)
        }
        _ => Err(vm.type_error(who, "number", vm.arg(0))),
    }
}

/// `eq?` and `eqv?`: one identity on the NaN-boxed word.
fn eq(vm: &mut Vm, _: usize) -> R<Flow> {
    ret!(vm, Value::boolean(vm.arg(0) == vm.arg(1)))
}

/// `memq` and `memv`: the first tail of the list whose car is the key.
fn member(vm: &mut Vm, who: &str) -> R<Flow> {
    let x = vm.arg(0);
    let tail = vm.walk_list(vm.arg(1), who, |a, pair| Ok((a == x).then_some(pair)))?;
    ret!(vm, tail.unwrap_or(Value::FALSE))
}

/// `assq` and `assv`: the first entry of the alist whose key is the key.
fn assoc(vm: &mut Vm, who: &str) -> R<Flow> {
    let x = vm.arg(0);
    let entry =
        vm.walk_list(vm.arg(1), who, |entry, _| Ok((vm.car_of(entry)? == x).then_some(entry)))?;
    ret!(vm, entry.unwrap_or(Value::FALSE))
}

/// `call/cc` and `call-with-current-continuation`.
fn call_cc(vm: &mut Vm, _: usize) -> R<Flow> {
    let p = vm.arg(0);
    let kont = vm.stack.capture_multi();
    let kv = Value::obj(vm.heap.alloc(Obj::Kont { kont, winders: vm.winders, prompt: None }));
    vm.set_local(1, kv);
    Ok(Flow::Tail { f: p, argc: 1 })
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::{cps_direct, BUILTINS};
    use crate::{Pipeline, Vm};

    #[test]
    fn no_two_rows_share_a_name() {
        let mut seen = HashSet::new();
        for b in BUILTINS {
            assert!(seen.insert(b.name), "duplicate builtin {}", b.name);
        }
    }

    /// The builtins the CPS prelude redefines, in table order. A new
    /// CPS-prelude definition that shadows a builtin changes this list.
    #[test]
    fn the_cps_prelude_redefines_exactly_the_control_operators() {
        let control: Vec<&str> =
            BUILTINS.iter().map(|b| b.name).filter(|n| !cps_direct(n)).collect();
        assert_eq!(
            control,
            [
                "apply",
                "call/cc",
                "call-with-current-continuation",
                "call/1cc",
                "dynamic-wind",
                "values",
                "call-with-values",
                "%push-prompt",
                "%take-subcont",
                "%push-subcont",
                "%abort-to-prompt",
                "%prompt-set?",
            ]
        );
        assert!(cps_direct("cons"));
        assert!(!cps_direct("map"), "prelude procedures are not direct");
        assert!(!cps_direct("%dc-prompts"), "nor are the CPS prelude's own globals");
    }

    /// Each row, called from guest code with one argument too few and one
    /// too many (where its arity has such counts), raises an `arity-error`
    /// whose message starts with that row's name: caught by
    /// `call-with-guard` on the direct pipeline, and uncaught on the CPS
    /// one (which raises the VM's own conditions uncaught) for the rows its
    /// converter leaves direct.
    #[test]
    fn every_row_refuses_a_wrong_count_with_an_arity_error() {
        let mut vm = Vm::new();
        let mut cps = Vm::builder().pipeline(Pipeline::Cps).build();
        for b in BUILTINS {
            let too_few = b.required.checked_sub(1);
            let too_many = (!b.rest).then_some(b.required + 1);
            for argc in too_few.into_iter().chain(too_many) {
                let call = format!("({}{})", b.name, " 0".repeat(argc));
                let guarded = format!(
                    "(call-with-guard
                       (lambda (c) (list (condition-kind c) (condition-message c)))
                       (lambda () {call}))"
                );
                let v = vm.eval_str(&guarded).unwrap_or_else(|e| panic!("{call}: {e}"));
                let shown = vm.write_value(&v);
                let want = format!("(arity-error \"{}: expected ", b.name);
                assert!(shown.starts_with(&want), "{call}: {shown}");
                if cps_direct(b.name) {
                    let e = cps.eval_str(&call).expect_err(&call);
                    assert_eq!(e.condition_kind(), Some("arity-error"), "CPS {call}: {e}");
                    assert!(e.to_string().starts_with(&format!("error: {}: ", b.name)), "{e}");
                }
            }
        }
    }
}
