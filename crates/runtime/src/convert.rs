//! Reader data → runtime values.

use oneshot_sexp::{Datum, MAX_NESTING};

use crate::heap::{Heap, Obj, ObjView};
use crate::symbols::Symbols;
use crate::value::{Unpacked, Value};

/// Converts a reader [`Datum`] into a heap [`Value`] (used for `quote`d
/// constants and program input).
///
/// Iterates along cdr spines so arbitrarily long list literals convert
/// without native-stack recursion; recursion depth is bounded by nesting.
pub fn datum_to_value(heap: &mut Heap, syms: &mut Symbols, d: &Datum) -> Value {
    match d {
        Datum::Bool(b) => Value::boolean(*b),
        // An integer literal outside the 50-bit fixnum range becomes an
        // inexact flonum — the reader's i64 range exceeds the word's; there
        // is no bignum layer to fall back to, and a literal should not
        // raise. Arithmetic overflow, by contrast, raises a condition.
        Datum::Fixnum(n) => Value::fixnum_checked(*n).unwrap_or_else(|| Value::flonum(*n as f64)),
        Datum::Flonum(x) => Value::flonum(*x),
        Datum::Char(c) => Value::character(*c),
        Datum::Str(s) => Value::obj(heap.alloc(Obj::Str(s.chars().collect()))),
        Datum::Symbol(s) => Value::sym(syms.intern(s)),
        Datum::Nil => Value::NIL,
        Datum::Pair(_) => {
            let mut cars = Vec::new();
            let mut cur = d;
            while let Datum::Pair(p) = cur {
                cars.push(datum_to_value(heap, syms, &p.0));
                cur = &p.1;
            }
            let mut out = datum_to_value(heap, syms, cur);
            for car in cars.into_iter().rev() {
                out = Value::obj(heap.alloc(Obj::Pair(car, out)));
            }
            out
        }
        Datum::Vector(items) => {
            let vals: Vec<Value> = items.iter().map(|x| datum_to_value(heap, syms, x)).collect();
            Value::obj(heap.alloc(Obj::Vector(vals)))
        }
    }
}

/// Converts a runtime value back into reader data (used by `eval`).
///
/// Iterates along cdr spines (lists of any length convert); the depth
/// bound applies to *nesting* only and catches cyclic structures.
///
/// # Errors
///
/// Returns a message for values with no external representation
/// (procedures, continuations, cells) and for structures nested deeper
/// than [`MAX_NESTING`], the reader's own bound (which also catches
/// cycles).
pub fn value_to_datum(
    heap: &Heap,
    syms: &crate::symbols::Symbols,
    v: Value,
) -> Result<Datum, String> {
    fn go(
        heap: &Heap,
        syms: &crate::symbols::Symbols,
        v: Value,
        depth: usize,
    ) -> Result<Datum, String> {
        if depth > MAX_NESTING {
            return Err("eval: datum nested too deeply (cyclic?)".to_string());
        }
        match v.unpack() {
            Unpacked::Bool(b) => Ok(Datum::Bool(b)),
            Unpacked::Fixnum(n) => Ok(Datum::Fixnum(n)),
            Unpacked::Flonum(x) => Ok(Datum::Flonum(x)),
            Unpacked::Char(c) => Ok(Datum::Char(c)),
            Unpacked::Nil => Ok(Datum::Nil),
            Unpacked::Sym(s) => Ok(Datum::Symbol(syms.name(s).to_string())),
            Unpacked::Obj(r) => match heap.view(r) {
                ObjView::Pair(..) => {
                    // Walk the cdr spine iteratively; cycles along the
                    // spine are caught by a step limit.
                    let mut cars = Vec::new();
                    let mut cur = v;
                    let mut steps = 0u32;
                    while let Some(r2) = cur.as_obj() {
                        let Some((a, d)) = heap.pair(r2) else { break };
                        steps += 1;
                        if steps > 10_000_000 {
                            return Err("eval: datum too long (cyclic?)".to_string());
                        }
                        cars.push(go(heap, syms, a, depth + 1)?);
                        cur = d;
                    }
                    let mut out = go(heap, syms, cur, depth + 1)?;
                    for car in cars.into_iter().rev() {
                        out = Datum::cons(car, out);
                    }
                    Ok(out)
                }
                ObjView::Vector(items) => Ok(Datum::Vector(
                    items
                        .iter()
                        .map(|x| go(heap, syms, *x, depth + 1))
                        .collect::<Result<_, _>>()?,
                )),
                ObjView::Str(s) => Ok(Datum::Str(s.iter().collect())),
                _ => Err("eval: value has no external representation".to_string()),
            },
            _ => Err("eval: value has no external representation".to_string()),
        }
    }
    go(heap, syms, v, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::write_value;
    use oneshot_sexp::read_str;

    #[test]
    fn conversion_round_trips_through_printer() {
        let mut h = Heap::new();
        let mut s = Symbols::new();
        for src in ["(1 2 3)", "(a . b)", "#(1 #t \"hi\")", "()", "(1 (2 (3)))"] {
            let d = read_str(src).unwrap();
            let v = datum_to_value(&mut h, &mut s, &d);
            assert_eq!(write_value(&h, &s, v), *src);
        }
    }

    #[test]
    fn value_datum_round_trip() {
        let mut h = Heap::new();
        let mut s = Symbols::new();
        for src in ["(1 2 3)", "(a . b)", "#(1 #t \"hi\")", "()"] {
            let d = read_str(src).unwrap();
            let v = datum_to_value(&mut h, &mut s, &d);
            let back = value_to_datum(&h, &s, v).unwrap();
            assert_eq!(back, d, "{src}");
        }
    }

    #[test]
    fn value_to_datum_rejects_procedures_and_cycles() {
        let mut h = Heap::new();
        let s = Symbols::new();
        let f = h.alloc(Obj::Closure { code: 0, free: Box::new([]) });
        assert!(value_to_datum(&h, &s, Value::obj(f)).is_err());
        let a = h.alloc(Obj::Pair(Value::NIL, Value::NIL));
        h.pair_mut(a).unwrap().1 = Value::obj(a);
        assert!(value_to_datum(&h, &s, Value::obj(a)).is_err());
    }

    #[test]
    fn symbols_are_interned_once() {
        let mut h = Heap::new();
        let mut s = Symbols::new();
        let d = read_str("(x x)").unwrap();
        let v = datum_to_value(&mut h, &mut s, &d);
        let Some(r) = v.as_obj() else { panic!() };
        let (a, d2) = h.pair(r).unwrap();
        let Some(r2) = d2.as_obj() else { panic!() };
        let (b, _) = h.pair(r2).unwrap();
        assert_eq!(a, b, "same symbol id");
    }
}
