//! Builtin procedures.
//!
//! Registration order follows `oneshot_compiler::builtins::BUILTIN_NAMES`
//! (the canonical list shared with the CPS converter); construction panics
//! if an implementation is missing, so the two cannot drift.

use oneshot_runtime::{values_equal, Obj, ObjKind, Unpacked, Value};

use crate::error::{VmError, R};
use crate::slot::{Resume, Slot};
use crate::vm::exec::{arith, as_f64, num_cmp, vector_set, Arith, Cmp};
use crate::vm::Vm;

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

/// A builtin: runs with the frame `[ret, args...]` at `fp`, `argc`
/// arguments.
pub(crate) type BuiltinFn = fn(&mut Vm, usize) -> R<Flow>;

fn err(msg: impl Into<String>) -> Box<VmError> {
    VmError::runtime(msg)
}

impl Vm {
    pub(crate) fn register_builtins(&mut self) {
        for (i, name) in oneshot_compiler::builtins::BUILTIN_NAMES.iter().enumerate() {
            let f = lookup(name).unwrap_or_else(|| panic!("builtin {name} has no implementation"));
            self.builtins.push(f);
            let idx = u16::try_from(i).expect("too many builtins");
            self.set_global(name, Value::builtin(idx));
        }
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

    /// Collects a proper list into a vector.
    pub(crate) fn list_to_vec(&self, mut v: Value, who: &str) -> R<Vec<Value>> {
        let mut out = Vec::new();
        loop {
            if v == Value::NIL {
                return Ok(out);
            }
            match v.as_obj().and_then(|r| self.heap.pair(r)) {
                Some((a, d)) => {
                    out.push(a);
                    v = d;
                }
                None => return Err(err(format!("{who}: improper list"))),
            }
        }
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
            let Some(r) = stash.as_obj() else { return Err(err("wind stash corrupt")) };
            let Some(vals) = self.heap.vector(r) else { return Err(err("wind stash corrupt")) };
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

fn check(argc: usize, expected: usize, who: &str) -> R<()> {
    if argc == expected {
        Ok(())
    } else {
        Err(err(format!("{who}: expected {expected} arguments, got {argc}")))
    }
}

fn at_least(argc: usize, min: usize, who: &str) -> R<()> {
    if argc >= min {
        Ok(())
    } else {
        Err(err(format!("{who}: expected at least {min} arguments, got {argc}")))
    }
}

fn fix(v: Value, who: &str) -> R<i64> {
    v.as_fixnum().ok_or_else(|| err(format!("{who}: expected integer")))
}

/// A fixnum result that must fit the 50-bit payload; raises the catchable
/// overflow condition otherwise (the word has no bignum fallback).
fn fixnum_or_overflow(n: i64, who: &str) -> R<Value> {
    Value::fixnum_checked(n)
        .ok_or_else(|| VmError::condition("error", format!("fixnum overflow in {who}")))
}

fn ufix(v: Value, who: &str) -> R<usize> {
    usize::try_from(fix(v, who)?).map_err(|_| err(format!("{who}: expected nonnegative integer")))
}

fn net_port(v: Value, who: &str) -> R<u16> {
    let n = fix(v, who)?;
    u16::try_from(n).map_err(|_| err(format!("{who}: expected a port in 0..=65535")))
}

fn chr(v: Value, who: &str) -> R<char> {
    v.as_char().ok_or_else(|| err(format!("{who}: expected character")))
}

/// Chained numeric comparison over all arguments.
fn cmp_chain(vm: &mut Vm, argc: usize, op: Cmp) -> R<Flow> {
    at_least(argc, 2, op.name())?;
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
    at_least(argc, 2, who)?;
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
    at_least(argc, 2, who)?;
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

/// A unary predicate builtin.
macro_rules! pred {
    ($who:literal, $f:expr) => {
        |vm: &mut Vm, argc: usize| -> R<Flow> {
            check(argc, 1, $who)?;
            let v = vm.arg(0);
            let p: fn(&Vm, Value) -> bool = $f;
            vm.acc = Value::boolean(p(vm, v));
            Ok(Flow::Return)
        }
    };
}

#[allow(clippy::too_many_lines)]
fn lookup(name: &str) -> Option<BuiltinFn> {
    Some(match name {
        // --- numbers ---
        "+" => |vm, argc| {
            let mut acc = Value::fixnum(0);
            for i in 0..argc {
                acc = arith(Arith::Add, acc, vm.arg(i))?;
            }
            ret!(vm, acc)
        },
        "-" => |vm, argc| {
            at_least(argc, 1, "-")?;
            if argc == 1 {
                return ret!(vm, arith(Arith::Sub, Value::fixnum(0), vm.arg(0))?);
            }
            let mut acc = vm.arg(0);
            for i in 1..argc {
                acc = arith(Arith::Sub, acc, vm.arg(i))?;
            }
            ret!(vm, acc)
        },
        "*" => |vm, argc| {
            let mut acc = Value::fixnum(1);
            for i in 0..argc {
                acc = arith(Arith::Mul, acc, vm.arg(i))?;
            }
            ret!(vm, acc)
        },
        "/" => |vm, argc| {
            at_least(argc, 1, "/")?;
            let mut acc = if argc == 1 { Value::fixnum(1) } else { vm.arg(0) };
            let rest = if argc == 1 { 0..1 } else { 1..argc };
            for i in rest {
                let d = vm.arg(i);
                acc = match (acc.as_fixnum(), d.as_fixnum()) {
                    (Some(_), Some(0)) => return Err(err("/: division by zero")),
                    (Some(a), Some(b)) if a % b == 0 => Value::fixnum(a / b),
                    _ => {
                        let x = as_f64(acc, "/")?;
                        let y = as_f64(d, "/")?;
                        Value::flonum(x / y)
                    }
                };
            }
            ret!(vm, acc)
        },
        "quotient" => |vm, argc| {
            check(argc, 2, "quotient")?;
            let (a, b) = (fix(vm.arg(0), "quotient")?, fix(vm.arg(1), "quotient")?);
            if b == 0 {
                return Err(err("quotient: division by zero"));
            }
            ret!(vm, fixnum_or_overflow(a.wrapping_div(b), "quotient")?)
        },
        "remainder" => |vm, argc| {
            check(argc, 2, "remainder")?;
            let (a, b) = (fix(vm.arg(0), "remainder")?, fix(vm.arg(1), "remainder")?);
            if b == 0 {
                return Err(err("remainder: division by zero"));
            }
            ret!(vm, Value::fixnum(a.wrapping_rem(b)))
        },
        "modulo" => |vm, argc| {
            check(argc, 2, "modulo")?;
            let (a, b) = (fix(vm.arg(0), "modulo")?, fix(vm.arg(1), "modulo")?);
            if b == 0 {
                return Err(err("modulo: division by zero"));
            }
            let r = a % b;
            let m = if r != 0 && (r < 0) != (b < 0) { r + b } else { r };
            ret!(vm, Value::fixnum(m))
        },
        "abs" => |vm, argc| {
            check(argc, 1, "abs")?;
            match vm.arg(0).unpack() {
                Unpacked::Fixnum(n) => ret!(vm, fixnum_or_overflow(n.abs(), "abs")?),
                Unpacked::Flonum(x) => ret!(vm, Value::flonum(x.abs())),
                _ => Err(vm.type_error("abs", "number", vm.arg(0))),
            }
        },
        "min" => |vm, argc| {
            at_least(argc, 1, "min")?;
            let mut best = vm.arg(0);
            for i in 1..argc {
                let v = vm.arg(i);
                if num_cmp(Cmp::Lt, v, best)? {
                    best = v;
                }
            }
            ret!(vm, best)
        },
        "max" => |vm, argc| {
            at_least(argc, 1, "max")?;
            let mut best = vm.arg(0);
            for i in 1..argc {
                let v = vm.arg(i);
                if num_cmp(Cmp::Gt, v, best)? {
                    best = v;
                }
            }
            ret!(vm, best)
        },
        "gcd" => |vm, argc| {
            let mut g: i64 = 0;
            for i in 0..argc {
                g = gcd64(g, fix(vm.arg(i), "gcd")?.abs());
            }
            ret!(vm, fixnum_or_overflow(g, "gcd")?)
        },
        "lcm" => |vm, argc| {
            let mut l: i64 = 1;
            for i in 0..argc {
                let n = fix(vm.arg(i), "lcm")?.abs();
                if n == 0 {
                    return ret!(vm, Value::fixnum(0));
                }
                l = (l / gcd64(l, n))
                    .checked_mul(n)
                    .ok_or_else(|| VmError::condition("error", "fixnum overflow in lcm"))?;
            }
            ret!(vm, fixnum_or_overflow(l, "lcm")?)
        },
        "expt" => |vm, argc| {
            check(argc, 2, "expt")?;
            match (vm.arg(0).as_fixnum(), vm.arg(1).as_fixnum()) {
                (Some(a), Some(b)) if b >= 0 => {
                    let e = u32::try_from(b).map_err(|_| err("expt: exponent too large"))?;
                    let r = a.checked_pow(e).ok_or_else(|| err("fixnum overflow in expt"))?;
                    ret!(vm, fixnum_or_overflow(r, "expt")?)
                }
                _ => {
                    let x = as_f64(vm.arg(0), "expt")?;
                    let y = as_f64(vm.arg(1), "expt")?;
                    ret!(vm, Value::flonum(x.powf(y)))
                }
            }
        },
        "sqrt" => |vm, argc| {
            check(argc, 1, "sqrt")?;
            match vm.arg(0).as_fixnum() {
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
            }
        },
        "floor" => |vm, argc| round_like(vm, argc, "floor", f64::floor),
        "ceiling" => |vm, argc| round_like(vm, argc, "ceiling", f64::ceil),
        "truncate" => |vm, argc| round_like(vm, argc, "truncate", f64::trunc),
        "round" => |vm, argc| round_like(vm, argc, "round", round_even),
        "exact->inexact" => |vm, argc| {
            check(argc, 1, "exact->inexact")?;
            ret!(vm, Value::flonum(as_f64(vm.arg(0), "exact->inexact")?))
        },
        "inexact->exact" => |vm, argc| {
            check(argc, 1, "inexact->exact")?;
            match vm.arg(0).unpack() {
                Unpacked::Fixnum(n) => ret!(vm, Value::fixnum(n)),
                Unpacked::Flonum(x) if x.fract() == 0.0 && Value::fits_fixnum(x as i64) => {
                    ret!(vm, Value::fixnum(x as i64))
                }
                _ => Err(err("inexact->exact: not representable as an exact integer")),
            }
        },
        "number?" => pred!("number?", |_, v| v.is_fixnum() || v.is_flonum()),
        "integer?" => pred!("integer?", |_, v| {
            v.is_fixnum() || matches!(v.as_flonum(), Some(x) if x.fract() == 0.0)
        }),
        "exact?" => pred!("exact?", |_, v| v.is_fixnum()),
        "inexact?" => pred!("inexact?", |_, v| v.is_flonum()),
        "zero?" => |vm, argc| {
            check(argc, 1, "zero?")?;
            ret!(vm, Value::boolean(vm.is_zero(vm.arg(0))?))
        },
        "positive?" => |vm, argc| {
            check(argc, 1, "positive?")?;
            ret!(vm, Value::boolean(num_cmp(Cmp::Gt, vm.arg(0), Value::fixnum(0))?))
        },
        "negative?" => |vm, argc| {
            check(argc, 1, "negative?")?;
            ret!(vm, Value::boolean(num_cmp(Cmp::Lt, vm.arg(0), Value::fixnum(0))?))
        },
        "odd?" => |vm, argc| {
            check(argc, 1, "odd?")?;
            ret!(vm, Value::boolean(fix(vm.arg(0), "odd?")? % 2 != 0))
        },
        "even?" => |vm, argc| {
            check(argc, 1, "even?")?;
            ret!(vm, Value::boolean(fix(vm.arg(0), "even?")? % 2 == 0))
        },
        "=" => |vm, argc| cmp_chain(vm, argc, Cmp::Eq),
        "<" => |vm, argc| cmp_chain(vm, argc, Cmp::Lt),
        ">" => |vm, argc| cmp_chain(vm, argc, Cmp::Gt),
        "<=" => |vm, argc| cmp_chain(vm, argc, Cmp::Le),
        ">=" => |vm, argc| cmp_chain(vm, argc, Cmp::Ge),
        "number->string" => |vm, argc| {
            at_least(argc, 1, "number->string")?;
            let radix = if argc >= 2 { fix(vm.arg(1), "number->string")? } else { 10 };
            let s = match (vm.arg(0).unpack(), radix) {
                (Unpacked::Fixnum(n), 10) => n.to_string(),
                (Unpacked::Fixnum(n), 2) => format!("{n:b}"),
                (Unpacked::Fixnum(n), 8) => format!("{n:o}"),
                (Unpacked::Fixnum(n), 16) => format!("{n:x}"),
                (Unpacked::Flonum(x), 10) => {
                    if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                        format!("{x:.1}")
                    } else {
                        format!("{x}")
                    }
                }
                _ => return Err(err("number->string: unsupported radix")),
            };
            let v = vm.alloc_string(s.chars().collect());
            ret!(vm, v)
        },
        "string->number" => |vm, argc| {
            at_least(argc, 1, "string->number")?;
            let s: String = vm.string_of(vm.arg(0), "string->number")?.into_iter().collect();
            let radix = if argc >= 2 { fix(vm.arg(1), "string->number")? } else { 10 };
            // Integers that parse but exceed the 50-bit fixnum payload
            // degrade to inexact flonums (there is no bignum layer).
            let v = if radix == 10 {
                if let Some(v) = s.parse::<i64>().ok().and_then(Value::fixnum_checked) {
                    v
                } else if let Ok(x) = s.parse::<f64>() {
                    Value::flonum(x)
                } else {
                    Value::FALSE
                }
            } else {
                match i64::from_str_radix(&s, radix as u32) {
                    Ok(n) => Value::fixnum_checked(n).unwrap_or_else(|| Value::flonum(n as f64)),
                    Err(_) => Value::FALSE,
                }
            };
            ret!(vm, v)
        },
        // --- predicates ---
        "eq?" | "eqv?" => |vm, argc| {
            check(argc, 2, "eq?")?;
            ret!(vm, Value::boolean(vm.arg(0) == vm.arg(1)))
        },
        "equal?" => |vm, argc| {
            check(argc, 2, "equal?")?;
            ret!(vm, Value::boolean(values_equal(&vm.heap, vm.arg(0), vm.arg(1))))
        },
        "not" => pred!("not", |_, v| !v.is_true()),
        "boolean?" => pred!("boolean?", |_, v| v.is_boolean()),
        "procedure?" => pred!("procedure?", |vm, v| {
            v.is_builtin()
                || v.as_obj()
                    .is_some_and(|r| r.kind() == ObjKind::Closure || vm.heap.kont(r).is_some())
        }),
        "symbol?" => pred!("symbol?", |_, v| v.is_sym()),
        "string?" => {
            pred!("string?", |_, v| v.is_obj_kind(ObjKind::Str))
        }
        "char?" => pred!("char?", |_, v| v.is_char()),
        "vector?" => {
            pred!("vector?", |_, v| v.is_obj_kind(ObjKind::Vector))
        }
        "pair?" => {
            pred!("pair?", |_, v| v.is_pair())
        }
        "null?" => pred!("null?", |_, v| v == Value::NIL),
        // --- pairs and lists ---
        "cons" => |vm, argc| {
            check(argc, 2, "cons")?;
            let v = Value::obj(vm.heap.alloc_pair(vm.arg(0), vm.arg(1)));
            ret!(vm, v)
        },
        "car" => |vm, argc| {
            check(argc, 1, "car")?;
            ret!(vm, vm.car_of(vm.arg(0))?)
        },
        "cdr" => |vm, argc| {
            check(argc, 1, "cdr")?;
            ret!(vm, vm.cdr_of(vm.arg(0))?)
        },
        "set-car!" => |vm, argc| {
            check(argc, 2, "set-car!")?;
            let (p, v) = (vm.arg(0), vm.arg(1));
            let Some(r) = p.as_obj() else { return Err(vm.type_error("set-car!", "pair", p)) };
            let Some(pair) = vm.heap.pair_mut(r) else {
                return Err(vm.type_error("set-car!", "pair", p));
            };
            pair.0 = v;
            ret!(vm, Value::UNSPECIFIED)
        },
        "set-cdr!" => |vm, argc| {
            check(argc, 2, "set-cdr!")?;
            let (p, v) = (vm.arg(0), vm.arg(1));
            let Some(r) = p.as_obj() else { return Err(vm.type_error("set-cdr!", "pair", p)) };
            let Some(pair) = vm.heap.pair_mut(r) else {
                return Err(vm.type_error("set-cdr!", "pair", p));
            };
            pair.1 = v;
            ret!(vm, Value::UNSPECIFIED)
        },
        "list" => |vm, argc| {
            let items = vm.args(argc);
            let v = vm.list(&items);
            ret!(vm, v)
        },
        "length" => |vm, argc| {
            check(argc, 1, "length")?;
            let n = vm.list_to_vec(vm.arg(0), "length")?.len();
            ret!(vm, Value::fixnum(n as i64))
        },
        "append" => |vm, argc| {
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
        },
        "reverse" => |vm, argc| {
            check(argc, 1, "reverse")?;
            let items = vm.list_to_vec(vm.arg(0), "reverse")?;
            let mut out = Value::NIL;
            for &item in &items {
                out = vm.cons(item, out);
            }
            ret!(vm, out)
        },
        "list-tail" => |vm, argc| {
            check(argc, 2, "list-tail")?;
            let mut v = vm.arg(0);
            for _ in 0..ufix(vm.arg(1), "list-tail")? {
                v = vm.cdr_of(v)?;
            }
            ret!(vm, v)
        },
        "list-ref" => |vm, argc| {
            check(argc, 2, "list-ref")?;
            let mut v = vm.arg(0);
            for _ in 0..ufix(vm.arg(1), "list-ref")? {
                v = vm.cdr_of(v)?;
            }
            ret!(vm, vm.car_of(v)?)
        },
        "memq" | "memv" => |vm, argc| {
            check(argc, 2, "memv")?;
            let x = vm.arg(0);
            let mut v = vm.arg(1);
            loop {
                if v == Value::NIL {
                    return ret!(vm, Value::FALSE);
                }
                match v.as_obj().and_then(|r| vm.heap.pair(r)) {
                    Some((a, d)) => {
                        if a == x {
                            return ret!(vm, v);
                        }
                        v = d;
                    }
                    None => return Err(err("memv: improper list")),
                }
            }
        },
        "assq" | "assv" => |vm, argc| {
            check(argc, 2, "assv")?;
            let x = vm.arg(0);
            let mut v = vm.arg(1);
            loop {
                if v == Value::NIL {
                    return ret!(vm, Value::FALSE);
                }
                match v.as_obj().and_then(|r| vm.heap.pair(r)) {
                    Some((entry, d)) => {
                        let key = vm.car_of(entry)?;
                        if key == x {
                            return ret!(vm, entry);
                        }
                        v = d;
                    }
                    None => return Err(err("assv: improper list")),
                }
            }
        },
        "list?" => |vm, argc| {
            check(argc, 1, "list?")?;
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
        },
        // --- symbols ---
        "symbol->string" => |vm, argc| {
            check(argc, 1, "symbol->string")?;
            let Some(s) = vm.arg(0).as_sym() else {
                return Err(vm.type_error("symbol->string", "symbol", vm.arg(0)));
            };
            let chars: Vec<char> = vm.syms.name(s).chars().collect();
            let v = vm.alloc_string(chars);
            ret!(vm, v)
        },
        "string->symbol" => |vm, argc| {
            check(argc, 1, "string->symbol")?;
            let s: String = vm.string_of(vm.arg(0), "string->symbol")?.into_iter().collect();
            let v = vm.intern(&s);
            ret!(vm, v)
        },
        "gensym" => |vm, argc| {
            let prefix = if argc >= 1 {
                vm.string_of(vm.arg(0), "gensym")?.into_iter().collect()
            } else {
                String::from("g")
            };
            let id = vm.syms.gensym(&prefix);
            ret!(vm, Value::sym(id))
        },
        // --- characters ---
        "char->integer" => |vm, argc| {
            check(argc, 1, "char->integer")?;
            ret!(vm, Value::fixnum(i64::from(u32::from(chr(vm.arg(0), "char->integer")?))))
        },
        "integer->char" => |vm, argc| {
            check(argc, 1, "integer->char")?;
            let n = fix(vm.arg(0), "integer->char")?;
            let c = u32::try_from(n)
                .ok()
                .and_then(char::from_u32)
                .ok_or_else(|| err("integer->char: not a character code"))?;
            ret!(vm, Value::character(c))
        },
        "char=?" => |vm, argc| char_cmp_chain(vm, argc, "char=?", |a, b| a == b),
        "char<?" => |vm, argc| char_cmp_chain(vm, argc, "char<?", |a, b| a < b),
        "char>?" => |vm, argc| char_cmp_chain(vm, argc, "char>?", |a, b| a > b),
        "char<=?" => |vm, argc| char_cmp_chain(vm, argc, "char<=?", |a, b| a <= b),
        "char>=?" => |vm, argc| char_cmp_chain(vm, argc, "char>=?", |a, b| a >= b),
        "char-upcase" => |vm, argc| {
            check(argc, 1, "char-upcase")?;
            ret!(vm, Value::character(chr(vm.arg(0), "char-upcase")?.to_ascii_uppercase()))
        },
        "char-downcase" => |vm, argc| {
            check(argc, 1, "char-downcase")?;
            ret!(vm, Value::character(chr(vm.arg(0), "char-downcase")?.to_ascii_lowercase()))
        },
        "char-alphabetic?" => |vm, argc| {
            check(argc, 1, "char-alphabetic?")?;
            ret!(vm, Value::boolean(chr(vm.arg(0), "char-alphabetic?")?.is_alphabetic()))
        },
        "char-numeric?" => |vm, argc| {
            check(argc, 1, "char-numeric?")?;
            ret!(vm, Value::boolean(chr(vm.arg(0), "char-numeric?")?.is_numeric()))
        },
        "char-whitespace?" => |vm, argc| {
            check(argc, 1, "char-whitespace?")?;
            ret!(vm, Value::boolean(chr(vm.arg(0), "char-whitespace?")?.is_whitespace()))
        },
        "char-upper-case?" => |vm, argc| {
            check(argc, 1, "char-upper-case?")?;
            ret!(vm, Value::boolean(chr(vm.arg(0), "char-upper-case?")?.is_uppercase()))
        },
        "char-lower-case?" => |vm, argc| {
            check(argc, 1, "char-lower-case?")?;
            ret!(vm, Value::boolean(chr(vm.arg(0), "char-lower-case?")?.is_lowercase()))
        },
        // --- strings ---
        "make-string" => |vm, argc| {
            at_least(argc, 1, "make-string")?;
            let n = ufix(vm.arg(0), "make-string")?;
            let c = if argc >= 2 { chr(vm.arg(1), "make-string")? } else { ' ' };
            let v = vm.alloc_string(vec![c; n]);
            ret!(vm, v)
        },
        "string" => |vm, argc| {
            let mut s = Vec::with_capacity(argc);
            for i in 0..argc {
                s.push(chr(vm.arg(i), "string")?);
            }
            let v = vm.alloc_string(s);
            ret!(vm, v)
        },
        "string-length" => |vm, argc| {
            check(argc, 1, "string-length")?;
            let n = vm.string_of(vm.arg(0), "string-length")?.len();
            ret!(vm, Value::fixnum(n as i64))
        },
        "string-ref" => |vm, argc| {
            check(argc, 2, "string-ref")?;
            let s = vm.string_of(vm.arg(0), "string-ref")?;
            let i = ufix(vm.arg(1), "string-ref")?;
            let c = s.get(i).ok_or_else(|| err("string-ref: index out of range"))?;
            ret!(vm, Value::character(*c))
        },
        "string-set!" => |vm, argc| {
            check(argc, 3, "string-set!")?;
            let i = ufix(vm.arg(1), "string-set!")?;
            let c = chr(vm.arg(2), "string-set!")?;
            let Some(r) = vm.arg(0).as_obj() else {
                return Err(vm.type_error("string-set!", "string", vm.arg(0)));
            };
            let Some(s) = vm.heap.string_mut(r) else {
                return Err(err("string-set!: expected string"));
            };
            let slot = s.get_mut(i).ok_or_else(|| err("string-set!: index out of range"))?;
            *slot = c;
            ret!(vm, Value::UNSPECIFIED)
        },
        "string=?" => |vm, argc| string_cmp_chain(vm, argc, "string=?", |a, b| a == b),
        "string<?" => |vm, argc| string_cmp_chain(vm, argc, "string<?", |a, b| a < b),
        "string>?" => |vm, argc| string_cmp_chain(vm, argc, "string>?", |a, b| a > b),
        "string<=?" => |vm, argc| string_cmp_chain(vm, argc, "string<=?", |a, b| a <= b),
        "string>=?" => |vm, argc| string_cmp_chain(vm, argc, "string>=?", |a, b| a >= b),
        "substring" => |vm, argc| {
            check(argc, 3, "substring")?;
            let s = vm.string_of(vm.arg(0), "substring")?;
            let start = ufix(vm.arg(1), "substring")?;
            let end = ufix(vm.arg(2), "substring")?;
            if start > end || end > s.len() {
                return Err(err("substring: index out of range"));
            }
            let v = vm.alloc_string(s[start..end].to_vec());
            ret!(vm, v)
        },
        "string-append" => |vm, argc| {
            let mut out = Vec::new();
            for i in 0..argc {
                out.extend(vm.string_of(vm.arg(i), "string-append")?);
            }
            let v = vm.alloc_string(out);
            ret!(vm, v)
        },
        "string->list" => |vm, argc| {
            check(argc, 1, "string->list")?;
            let items: Vec<Value> = vm
                .string_of(vm.arg(0), "string->list")?
                .into_iter()
                .map(Value::character)
                .collect();
            let v = vm.list(&items);
            ret!(vm, v)
        },
        "list->string" => |vm, argc| {
            check(argc, 1, "list->string")?;
            let items = vm.list_to_vec(vm.arg(0), "list->string")?;
            let mut s = Vec::with_capacity(items.len());
            for item in items {
                s.push(chr(item, "list->string")?);
            }
            let v = vm.alloc_string(s);
            ret!(vm, v)
        },
        "string-copy" => |vm, argc| {
            check(argc, 1, "string-copy")?;
            let s = vm.string_of(vm.arg(0), "string-copy")?;
            let v = vm.alloc_string(s);
            ret!(vm, v)
        },
        "string-fill!" => |vm, argc| {
            check(argc, 2, "string-fill!")?;
            let c = chr(vm.arg(1), "string-fill!")?;
            let Some(r) = vm.arg(0).as_obj() else {
                return Err(vm.type_error("string-fill!", "string", vm.arg(0)));
            };
            let Some(s) = vm.heap.string_mut(r) else {
                return Err(err("string-fill!: expected string"));
            };
            s.fill(c);
            ret!(vm, Value::UNSPECIFIED)
        },
        // --- vectors ---
        "make-vector" => |vm, argc| {
            at_least(argc, 1, "make-vector")?;
            let n = ufix(vm.arg(0), "make-vector")?;
            let fill = if argc >= 2 { vm.arg(1) } else { Value::UNSPECIFIED };
            let v = Value::obj(vm.heap.alloc(Obj::Vector(vec![fill; n])));
            ret!(vm, v)
        },
        "vector" => |vm, argc| {
            let items = vm.args(argc);
            let v = Value::obj(vm.heap.alloc(Obj::Vector(items)));
            ret!(vm, v)
        },
        "vector-length" => |vm, argc| {
            check(argc, 1, "vector-length")?;
            let Some(r) = vm.arg(0).as_obj() else {
                return Err(vm.type_error("vector-length", "vector", vm.arg(0)));
            };
            let Some(items) = vm.heap.vector(r) else {
                return Err(vm.type_error("vector-length", "vector", vm.arg(0)));
            };
            ret!(vm, Value::fixnum(items.len() as i64))
        },
        "vector-ref" => |vm, argc| {
            check(argc, 2, "vector-ref")?;
            ret!(vm, vm.vector_ref(vm.arg(0), vm.arg(1))?)
        },
        "vector-set!" => |vm, argc| {
            check(argc, 3, "vector-set!")?;
            let (v, i, x) = (vm.arg(0), vm.arg(1), vm.arg(2));
            vector_set(&mut vm.heap, &vm.syms, v, i, x)?;
            ret!(vm, Value::UNSPECIFIED)
        },
        "vector->list" => |vm, argc| {
            check(argc, 1, "vector->list")?;
            let Some(r) = vm.arg(0).as_obj() else {
                return Err(vm.type_error("vector->list", "vector", vm.arg(0)));
            };
            let Some(items) = vm.heap.vector(r) else {
                return Err(vm.type_error("vector->list", "vector", vm.arg(0)));
            };
            let items = items.to_vec();
            let v = vm.list(&items);
            ret!(vm, v)
        },
        "list->vector" => |vm, argc| {
            check(argc, 1, "list->vector")?;
            let items = vm.list_to_vec(vm.arg(0), "list->vector")?;
            let v = Value::obj(vm.heap.alloc(Obj::Vector(items)));
            ret!(vm, v)
        },
        "vector-fill!" => |vm, argc| {
            check(argc, 2, "vector-fill!")?;
            let x = vm.arg(1);
            let Some(r) = vm.arg(0).as_obj() else {
                return Err(vm.type_error("vector-fill!", "vector", vm.arg(0)));
            };
            let Some(items) = vm.heap.vector_mut(r) else {
                return Err(err("vector-fill!: expected vector"));
            };
            items.fill(x);
            ret!(vm, Value::UNSPECIFIED)
        },
        // --- control ---
        "apply" => |vm, argc| {
            at_least(argc, 2, "apply")?;
            let f = vm.arg(0);
            let mut full: Vec<Value> = (1..argc - 1).map(|i| vm.arg(i)).collect();
            full.extend(vm.list_to_vec(vm.arg(argc - 1), "apply")?);
            vm.ensure_or_raise(full.len() + 3, 1 + argc)?;
            for (i, v) in full.iter().enumerate() {
                vm.set_local(1 + i, *v);
            }
            Ok(Flow::Tail { f, argc: full.len() })
        },
        "call/cc" | "call-with-current-continuation" => |vm, argc| {
            check(argc, 1, "call/cc")?;
            let p = vm.arg(0);
            let kont = vm.stack.capture_multi();
            let kv =
                Value::obj(vm.heap.alloc(Obj::Kont { kont, winders: vm.winders, prompt: None }));
            vm.set_local(1, kv);
            Ok(Flow::Tail { f: p, argc: 1 })
        },
        "call/1cc" => |vm, argc| {
            check(argc, 1, "call/1cc")?;
            let p = vm.arg(0);
            let kont = vm.stack.capture_one(4);
            let kv =
                Value::obj(vm.heap.alloc(Obj::Kont { kont, winders: vm.winders, prompt: None }));
            vm.set_local(1, kv);
            Ok(Flow::Tail { f: p, argc: 1 })
        },
        "dynamic-wind" => |vm, argc| {
            check(argc, 3, "dynamic-wind")?;
            vm.ensure_or_raise(8, 1 + argc)?;
            let before = vm.arg(0);
            let fp = vm.stack.fp();
            vm.stack.set(fp + 4, Slot::Resume { kind: Resume::WindBody, disp: 4 });
            vm.stack.set_fp(fp + 4);
            vm.transfer(before, 0)
        },
        "values" => |vm, argc| {
            if argc == 1 {
                vm.acc = vm.arg(0);
                vm.mv = None;
            } else {
                vm.mv = Some(vm.args(argc));
                vm.acc = Value::UNSPECIFIED;
            }
            Ok(Flow::Return)
        },
        "call-with-values" => |vm, argc| {
            check(argc, 2, "call-with-values")?;
            vm.ensure_or_raise(8, 1 + argc)?;
            let producer = vm.arg(0);
            let fp = vm.stack.fp();
            vm.stack.set(fp + 3, Slot::Resume { kind: Resume::CwvConsume, disp: 3 });
            vm.stack.set_fp(fp + 3);
            vm.transfer(producer, 0)
        },
        // --- i/o ---
        "display" => |vm, argc| {
            at_least(argc, 1, "display")?;
            let s = vm.display_value(&vm.arg(0));
            vm.emit_output(&s);
            ret!(vm, Value::UNSPECIFIED)
        },
        "write" => |vm, argc| {
            at_least(argc, 1, "write")?;
            let s = vm.write_value(&vm.arg(0));
            vm.emit_output(&s);
            ret!(vm, Value::UNSPECIFIED)
        },
        "newline" => |vm, _argc| {
            vm.emit_output("\n");
            ret!(vm, Value::UNSPECIFIED)
        },
        "write-char" => |vm, argc| {
            at_least(argc, 1, "write-char")?;
            let c = chr(vm.arg(0), "write-char")?;
            vm.emit_output(&c.to_string());
            ret!(vm, Value::UNSPECIFIED)
        },
        // --- system ---
        "error" => |vm, argc| {
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
            // handlers can catch it; uncaught, it prints exactly as the old
            // Runtime variant did.
            Err(VmError::condition("error", msg))
        },
        "void" => |vm, _argc| ret!(vm, Value::UNSPECIFIED),
        "gc" => |vm, argc| {
            vm.collect(1 + argc);
            ret!(vm, Value::UNSPECIFIED)
        },
        "set-timer!" => |vm, argc| {
            check(argc, 1, "set-timer!")?;
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
        },
        "timer-interrupt-handler!" => |vm, argc| {
            check(argc, 1, "timer-interrupt-handler!")?;
            let old = vm.timer_handler;
            vm.timer_handler = vm.arg(0);
            ret!(vm, old)
        },
        "eval" => |vm, argc| {
            // (eval datum) — compiles through the VM's pipeline and
            // tail-calls the resulting toplevel thunk. A second
            // (environment) argument is accepted and ignored: there is one
            // global environment.
            at_least(argc, 1, "eval")?;
            let datum = oneshot_runtime::value_to_datum(&vm.heap, &vm.syms, vm.arg(0))
                .map_err(VmError::Runtime)?;
            let prog = oneshot_compiler::compile_program(&[datum], vm.pipeline())
                .map_err(|e| err(e.to_string()))?;
            let entry = vm.link(&prog);
            let thunk = Value::obj(vm.heap.alloc(Obj::Closure { code: entry, free: Box::new([]) }));
            Ok(Flow::Tail { f: thunk, argc: 0 })
        },
        "backtrace" => |vm, _argc| {
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
        },
        "vm-stats" => |vm, _argc| {
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
        },
        "sleep-ms" => |vm, argc| {
            // (sleep-ms n): block the calling OS thread for n milliseconds.
            // Models a request handler waiting on I/O; the executor's mixed
            // workload uses it so multi-worker throughput scaling is
            // observable even on one core.
            check(argc, 1, "sleep-ms")?;
            let n = fix(vm.arg(0), "sleep-ms")?;
            if n < 0 {
                return Err(err("sleep-ms: expected a non-negative duration"));
            }
            std::thread::sleep(std::time::Duration::from_millis(n as u64));
            ret!(vm, Value::UNSPECIFIED)
        },
        "debug-panic!" => |vm, argc| {
            // (debug-panic! msg): abort via a Rust panic instead of a Scheme
            // error. Fault-injection hook for the executor's catch_unwind
            // isolation tests; never use it for ordinary error signalling.
            let msg =
                if argc > 0 { vm.display_value(&vm.arg(0)) } else { "debug-panic!".to_string() };
            panic!("debug-panic!: {msg}");
        },
        "now-us" => |vm, _argc| {
            // (now-us): microseconds since the first call in this process.
            // A monotonic clock for guest-side latency measurement; the
            // origin is arbitrary, only differences are meaningful.
            use std::sync::OnceLock;
            use std::time::Instant;
            static EPOCH: OnceLock<Instant> = OnceLock::new();
            let t0 = *EPOCH.get_or_init(Instant::now);
            let us = i64::try_from(t0.elapsed().as_micros()).unwrap_or(i64::MAX);
            ret!(vm, Value::fixnum(us))
        },
        // --- nonblocking loopback TCP ---
        // All `%tcp-*` builtins return immediately; #f means would-block.
        // The retry loops that suspend the running green thread live in
        // the threads crate's io.scm. I/O failures raise the catchable
        // `io-error` condition. Strings cross the socket as latin-1: one
        // char per byte, lossless for the full 0..=255 range.
        "%tcp-listen" => |vm, argc| {
            // (%tcp-listen port) binds loopback; (%tcp-listen host port)
            // binds a real AF_INET address ("0.0.0.0" for any).
            if argc == 1 {
                let port = net_port(vm.arg(0), "%tcp-listen")?;
                let tok = vm.net.listen(port)?;
                ret!(vm, Value::fixnum(tok))
            } else {
                check(argc, 2, "%tcp-listen")?;
                let host: String = vm.string_of(vm.arg(0), "%tcp-listen")?.iter().collect();
                let port = net_port(vm.arg(1), "%tcp-listen")?;
                let tok = vm.net.listen_on(&host, port)?;
                ret!(vm, Value::fixnum(tok))
            }
        },
        "%tcp-local-port" => |vm, argc| {
            check(argc, 1, "%tcp-local-port")?;
            let tok = fix(vm.arg(0), "%tcp-local-port")?;
            let port = vm.net.local_port(tok)?;
            ret!(vm, Value::fixnum(port))
        },
        "%tcp-accept" => |vm, argc| {
            check(argc, 1, "%tcp-accept")?;
            let tok = fix(vm.arg(0), "%tcp-accept")?;
            match vm.net.accept(tok)? {
                Some(t) => ret!(vm, Value::fixnum(t)),
                None => ret!(vm, Value::FALSE),
            }
        },
        "%tcp-connect" => |vm, argc| {
            // (%tcp-connect port) targets loopback; (%tcp-connect host
            // port) any AF_INET address.
            if argc == 1 {
                let port = net_port(vm.arg(0), "%tcp-connect")?;
                let tok = vm.net.connect(port)?;
                ret!(vm, Value::fixnum(tok))
            } else {
                check(argc, 2, "%tcp-connect")?;
                let host: String = vm.string_of(vm.arg(0), "%tcp-connect")?.iter().collect();
                let port = net_port(vm.arg(1), "%tcp-connect")?;
                let tok = vm.net.connect_to(&host, port)?;
                ret!(vm, Value::fixnum(tok))
            }
        },
        "%tcp-read" => |vm, argc| {
            // (%tcp-read tok max) -> string | 'eof | #f
            check(argc, 2, "%tcp-read")?;
            let tok = fix(vm.arg(0), "%tcp-read")?;
            let max = fix(vm.arg(1), "%tcp-read")?;
            if max <= 0 {
                return Err(err("%tcp-read: expected a positive byte count"));
            }
            let mut max = max as usize;
            // Syscall-level chaos: the armed clocks fire at most once each
            // per VM, behind the same guards_active gate as every other
            // fault site — a disarmed VM pays one predictable branch.
            if vm.guards_active {
                if vm.io_reset_fault.tick() {
                    vm.faults_injected += 1;
                    return Err(VmError::condition(
                        "io-error",
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
        },
        "%tcp-write" => |vm, argc| {
            // (%tcp-write tok str start) -> chars-written | #f
            check(argc, 3, "%tcp-write")?;
            let tok = fix(vm.arg(0), "%tcp-write")?;
            let str_arg = vm.arg(1);
            let Some(chars) = str_arg.as_obj().and_then(|r| vm.heap.string(r)) else {
                return Err(vm.type_error("%tcp-write", "string", str_arg));
            };
            let start = fix(vm.arg(2), "%tcp-write")?;
            let start = usize::try_from(start)
                .ok()
                .filter(|&s| s <= chars.len())
                .ok_or_else(|| err("%tcp-write: start out of range"))?;
            let Some(mut len) = vm.net.encode_latin1(&chars[start..]) else {
                return Err(VmError::condition(
                    "io-error",
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
                        "io-error",
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
        },
        "%tcp-close" => |vm, argc| {
            check(argc, 1, "%tcp-close")?;
            let tok = fix(vm.arg(0), "%tcp-close")?;
            let closed = vm.net.close(tok);
            ret!(vm, Value::boolean(closed))
        },
        "%net-live" => |vm, _argc| {
            // Open sockets in this VM's table — the leak audit a server
            // runs after draining its connections.
            ret!(vm, Value::fixnum(vm.net.live() as i64))
        },
        "%conn-take" => |vm, _argc| {
            // The socket token of the connection the embedder adopted for
            // the running job (`Vm::set_conn_token`); #f in any other job.
            match vm.conn {
                Some(tok) => ret!(vm, Value::fixnum(tok)),
                None => ret!(vm, Value::FALSE),
            }
        },
        // --- condition system support (used only by the prelude) ---
        "%push-handler!" => |vm, argc| {
            check(argc, 1, "%push-handler!")?;
            let h = vm.arg(0);
            vm.handlers = vm.cons(h, vm.handlers);
            ret!(vm, Value::UNSPECIFIED)
        },
        "%pop-handler!" => |vm, _argc| {
            // Popping an empty stack is a no-op: the prelude only pops
            // inside dynamic-wind brackets it pushed itself.
            vm.handlers = vm.cdr_of(vm.handlers).unwrap_or(Value::NIL);
            ret!(vm, Value::UNSPECIFIED)
        },
        "%top-handler" => |vm, _argc| {
            let h = vm.car_of(vm.handlers).map_err(|_| err("%top-handler: empty handler stack"))?;
            ret!(vm, h)
        },
        "%have-handler?" => |vm, _argc| {
            let b = Value::boolean(vm.handlers != Value::NIL);
            ret!(vm, b)
        },
        "%note-raise!" => |vm, _argc| {
            vm.conditions_raised += 1;
            ret!(vm, Value::UNSPECIFIED)
        },
        "%uncaught" => |vm, argc| {
            // Terminal: no handler was installed for a raised condition.
            // `(kind . "message")` conditions surface their message text
            // (matching the shape Runtime errors always printed); anything
            // else is written as a datum.
            at_least(argc, 1, "%uncaught")?;
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
        },
        // --- delimited control (used only by the prelude) ---
        "%push-prompt" => |vm, argc| {
            // (%push-prompt tag thunk): runs `thunk` delimited by a prompt
            // tagged `tag`. The tag pair stored on the record also carries
            // the winder list at push time, so take/abort know how far to
            // unwind.
            check(argc, 2, "%push-prompt")?;
            vm.ensure_or_raise(8, 1 + argc)?;
            let tag = vm.arg(0);
            let thunk = vm.arg(1);
            let tagpair = Value::obj(vm.heap.alloc(Obj::Pair(tag, vm.winders)));
            let fp = vm.stack.fp();
            vm.stack.set(fp + 3, Slot::Resume { kind: Resume::PromptReturn, disp: 3 });
            vm.stack.set_fp(fp + 3);
            vm.stack.push_prompt(Slot::Val(tagpair), 4);
            vm.transfer(thunk, 0)
        },
        "%take-subcont" => |vm, argc| {
            // (%take-subcont tag handler): calls `handler` on the one-shot
            // subcontinuation up to the nearest `tag` prompt.
            check(argc, 2, "%take-subcont")?;
            Ok(vm.take_subcont(vm.arg(0), vm.arg(1))?.into())
        },
        "%push-subcont" => |vm, argc| {
            // (%push-subcont sk v...): splices subcontinuation `sk`,
            // delivering the values through its innermost frame.
            at_least(argc, 1, "%push-subcont")?;
            Ok(vm.push_subcont(argc)?.into())
        },
        "%abort-to-prompt" => |vm, argc| {
            // (%abort-to-prompt tag v...): returns the values from the
            // nearest `tag` prompt.
            at_least(argc, 1, "%abort-to-prompt")?;
            Ok(vm.abort_to_prompt(argc)?.into())
        },
        "%prompt-set?" => |vm, argc| {
            // (%prompt-set? tag): is a prompt with this tag on the current
            // continuation chain?
            check(argc, 1, "%prompt-set?")?;
            let b = Value::boolean(vm.find_prompt_opt(vm.arg(0)).is_some());
            ret!(vm, b)
        },
        // --- CPS support ---
        "%apply-args" => |vm, argc| {
            // (%apply-args k f spec): the CPS prelude's apply. Spreads
            // `spec` per apply's rules, then calls `f` with the
            // continuation prepended — unless `f` is a direct Rust builtin,
            // which takes no continuation; its result is delivered to `k`.
            check(argc, 3, "%apply-args")?;
            let k = vm.arg(0);
            let f = vm.arg(1);
            let spec = vm.list_to_vec(vm.arg(2), "apply")?;
            if spec.is_empty() {
                return Err(err("apply: expected at least one argument"));
            }
            let mut spread: Vec<Value> = spec[..spec.len() - 1].to_vec();
            spread.extend(vm.list_to_vec(spec[spec.len() - 1], "apply")?);
            if let Some(b) = f.as_builtin() {
                vm.ensure_or_raise(spread.len() + 3, 1 + argc)?;
                let n = spread.len();
                for (i, v) in spread.iter().enumerate() {
                    vm.set_local(1 + i, *v);
                }
                let func = vm.builtins[b as usize];
                match func(vm, n)? {
                    Flow::Return => {
                        if vm.mv.is_some() {
                            return Err(err("apply: multiple values are unsupported in CPS mode"));
                        }
                        let v = vm.acc;
                        vm.set_local(1, v);
                        return Ok(Flow::Tail { f: k, argc: 1 });
                    }
                    _ => return Err(err("apply: builtin transferred control in CPS mode")),
                }
            }
            let mut full = vec![k];
            full.extend(spread);
            vm.ensure_or_raise(full.len() + 3, 1 + argc)?;
            for (i, v) in full.iter().enumerate() {
                vm.set_local(1 + i, *v);
            }
            Ok(Flow::Tail { f, argc: full.len() })
        },
        _ => return None,
    })
}

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

fn round_like(vm: &mut Vm, argc: usize, who: &str, f: fn(f64) -> f64) -> R<Flow> {
    check(argc, 1, who)?;
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
