//! Value printing (`write` and `display`).

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::heap::{Heap, ObjView};
use crate::symbols::Symbols;
use crate::value::{ObjRef, Unpacked, Value};

/// Formats `v` with `write` conventions (strings quoted, chars as `#\x`).
pub fn write_value(heap: &Heap, syms: &Symbols, v: Value) -> String {
    let mut out = String::new();
    let mut seen = HashSet::new();
    emit(heap, syms, v, true, &mut out, &mut seen, 0);
    out
}

/// Formats `v` with `display` conventions (strings and chars as contents).
pub fn display_value(heap: &Heap, syms: &Symbols, v: Value) -> String {
    let mut out = String::new();
    let mut seen = HashSet::new();
    emit(heap, syms, v, false, &mut out, &mut seen, 0);
    out
}

const MAX_DEPTH: usize = 512;

fn emit(
    heap: &Heap,
    syms: &Symbols,
    v: Value,
    write: bool,
    out: &mut String,
    seen: &mut HashSet<ObjRef>,
    depth: usize,
) {
    if depth > MAX_DEPTH {
        out.push_str("...");
        return;
    }
    match v.unpack() {
        Unpacked::Fixnum(n) => {
            let _ = write!(out, "{n}");
        }
        Unpacked::Flonum(x) => {
            if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                let _ = write!(out, "{x:.1}");
            } else {
                let _ = write!(out, "{x}");
            }
        }
        Unpacked::Bool(true) => out.push_str("#t"),
        Unpacked::Bool(false) => out.push_str("#f"),
        Unpacked::Char(c) if write => match c {
            ' ' => out.push_str("#\\space"),
            '\n' => out.push_str("#\\newline"),
            '\t' => out.push_str("#\\tab"),
            c => {
                let _ = write!(out, "#\\{c}");
            }
        },
        Unpacked::Char(c) => out.push(c),
        Unpacked::Nil => out.push_str("()"),
        Unpacked::Eof => out.push_str("#<eof>"),
        Unpacked::Unspecified => out.push_str("#<void>"),
        Unpacked::Undefined => out.push_str("#<undefined>"),
        Unpacked::Sym(s) => out.push_str(syms.name(s)),
        Unpacked::Builtin(i) => {
            let _ = write!(out, "#<builtin {i}>");
        }
        Unpacked::Obj(r) => {
            if !seen.insert(r) {
                out.push_str("#<cycle>");
                return;
            }
            match heap.view(r) {
                ObjView::Pair(car, cdr) => {
                    out.push('(');
                    emit(heap, syms, car, write, out, seen, depth + 1);
                    let mut cur = cdr;
                    loop {
                        match cur {
                            c if c == Value::NIL => break,
                            c if c.is_obj() => {
                                let r2 = c.as_obj().expect("just checked");
                                if seen.contains(&r2) {
                                    out.push_str(" . #<cycle>");
                                    break;
                                }
                                if let ObjView::Pair(a, d) = heap.view(r2) {
                                    seen.insert(r2);
                                    out.push(' ');
                                    emit(heap, syms, a, write, out, seen, depth + 1);
                                    cur = d;
                                } else {
                                    out.push_str(" . ");
                                    emit(heap, syms, cur, write, out, seen, depth + 1);
                                    break;
                                }
                            }
                            other => {
                                out.push_str(" . ");
                                emit(heap, syms, other, write, out, seen, depth + 1);
                                break;
                            }
                        }
                    }
                    out.push(')');
                }
                ObjView::Vector(items) => {
                    out.push_str("#(");
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(' ');
                        }
                        emit(heap, syms, *item, write, out, seen, depth + 1);
                    }
                    out.push(')');
                }
                ObjView::Str(s) => {
                    if write {
                        out.push('"');
                        for &c in s {
                            match c {
                                '"' => out.push_str("\\\""),
                                '\\' => out.push_str("\\\\"),
                                '\n' => out.push_str("\\n"),
                                '\t' => out.push_str("\\t"),
                                c => out.push(c),
                            }
                        }
                        out.push('"');
                    } else {
                        out.extend(s.iter());
                    }
                }
                ObjView::Closure { code, .. } => {
                    let _ = write!(out, "#<procedure @{code}>");
                }
                ObjView::Kont { kont, prompt, .. } => {
                    let _ = match (kont, prompt) {
                        (Some(k), None) => write!(out, "#<continuation {}>", k.index()),
                        (Some(k), Some(_)) => write!(out, "#<subcontinuation {}>", k.index()),
                        (None, None) => write!(out, "#<continuation halt>"),
                        (None, Some(_)) => write!(out, "#<subcontinuation empty>"),
                    };
                }
                ObjView::Cell(inner) => {
                    out.push_str("#<box ");
                    emit(heap, syms, inner, write, out, seen, depth + 1);
                    out.push('>');
                }
            }
            seen.remove(&r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::Obj;

    fn list(heap: &mut Heap, items: &[Value]) -> Value {
        let mut v = Value::NIL;
        for &item in items.iter().rev() {
            let r = heap.alloc(Obj::Pair(item, v));
            v = Value::obj(r);
        }
        v
    }

    #[test]
    fn prints_lists() {
        let mut h = Heap::new();
        let s = Symbols::new();
        let l = list(&mut h, &[Value::fixnum(1), Value::fixnum(2)]);
        assert_eq!(write_value(&h, &s, l), "(1 2)");
    }

    #[test]
    fn prints_dotted_pairs_and_vectors() {
        let mut h = Heap::new();
        let s = Symbols::new();
        let p = h.alloc(Obj::Pair(Value::fixnum(1), Value::fixnum(2)));
        assert_eq!(write_value(&h, &s, Value::obj(p)), "(1 . 2)");
        let v = h.alloc(Obj::Vector(vec![Value::TRUE, Value::NIL]));
        assert_eq!(write_value(&h, &s, Value::obj(v)), "#(#t ())");
    }

    #[test]
    fn write_vs_display_strings() {
        let mut h = Heap::new();
        let s = Symbols::new();
        let r = h.alloc(Obj::Str("a\"b".chars().collect()));
        assert_eq!(write_value(&h, &s, Value::obj(r)), "\"a\\\"b\"");
        assert_eq!(display_value(&h, &s, Value::obj(r)), "a\"b");
    }

    #[test]
    fn cycles_are_detected() {
        let mut h = Heap::new();
        let s = Symbols::new();
        let a = h.alloc(Obj::Pair(Value::fixnum(1), Value::NIL));
        h.pair_mut(a).unwrap().1 = Value::obj(a);
        let text = write_value(&h, &s, Value::obj(a));
        assert!(text.contains("#<cycle>"), "{text}");
    }

    #[test]
    fn symbols_print_their_names() {
        let h = Heap::new();
        let mut s = Symbols::new();
        let id = s.intern("lambda");
        assert_eq!(write_value(&h, &s, Value::sym(id)), "lambda");
    }
}
