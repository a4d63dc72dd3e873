//! Value printing (`write` and `display`).
//!
//! Atoms go through `oneshot-sexp`'s atom writers, so `write` prints every
//! character, string and flonum as the text the reader reads back. The
//! layout of lists is this printer's own: `(quote x)` prints as itself.

use std::collections::HashSet;
use std::fmt::Write as _;

use oneshot_sexp::{write_char, write_flonum, write_string, MAX_NESTING};

use crate::heap::{Heap, ObjView};
use crate::symbols::Symbols;
use crate::value::{ObjRef, Unpacked, Value};

/// Formats `v` with `write` conventions (strings quoted, chars as `#\x`).
pub fn write_value(heap: &Heap, syms: &Symbols, v: Value) -> String {
    Printer::new(heap, syms, true).print(v)
}

/// Formats `v` with `display` conventions (strings and chars as contents).
pub fn display_value(heap: &Heap, syms: &Symbols, v: Value) -> String {
    Printer::new(heap, syms, false).print(v)
}

struct Printer<'a> {
    heap: &'a Heap,
    syms: &'a Symbols,
    write: bool,
    out: String,
    /// The containers being printed: the value's ancestors, and the spine
    /// pairs of every list being printed. Meeting one again is a cycle;
    /// meeting a container twice side by side is only sharing.
    open: HashSet<ObjRef>,
}

impl<'a> Printer<'a> {
    fn new(heap: &'a Heap, syms: &'a Symbols, write: bool) -> Self {
        Printer { heap, syms, write, out: String::new(), open: HashSet::new() }
    }

    fn print(mut self, v: Value) -> String {
        self.emit(v, 0);
        self.out
    }

    fn emit(&mut self, v: Value, depth: usize) {
        if depth > MAX_NESTING {
            self.out.push_str("...");
            return;
        }
        let out = &mut self.out;
        match v.unpack() {
            Unpacked::Fixnum(n) => {
                let _ = write!(out, "{n}");
            }
            Unpacked::Flonum(x) => write_flonum(out, x),
            Unpacked::Bool(true) => out.push_str("#t"),
            Unpacked::Bool(false) => out.push_str("#f"),
            Unpacked::Char(c) if self.write => write_char(out, c),
            Unpacked::Char(c) => out.push(c),
            Unpacked::Nil => out.push_str("()"),
            Unpacked::Eof => out.push_str("#<eof>"),
            Unpacked::Unspecified => out.push_str("#<void>"),
            Unpacked::Undefined => out.push_str("#<undefined>"),
            Unpacked::Sym(s) => out.push_str(self.syms.name(s)),
            Unpacked::Builtin(i) => {
                let _ = write!(out, "#<builtin {i}>");
            }
            Unpacked::Obj(r) => self.object(r, depth),
        }
    }

    fn object(&mut self, r: ObjRef, depth: usize) {
        let out = &mut self.out;
        match self.heap.view(r) {
            ObjView::Str(s) if self.write => write_string(out, s.iter().copied()),
            ObjView::Str(s) => out.extend(s),
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
            _ if self.open.contains(&r) => out.push_str("#<cycle>"),
            ObjView::Pair(..) => self.list(r, depth),
            ObjView::Vector(items) => {
                self.open.insert(r);
                self.out.push_str("#(");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push(' ');
                    }
                    self.emit(*item, depth + 1);
                }
                self.out.push(')');
                self.open.remove(&r);
            }
            ObjView::Cell(inner) => {
                self.open.insert(r);
                self.out.push_str("#<box ");
                self.emit(inner, depth + 1);
                self.out.push('>');
                self.open.remove(&r);
            }
        }
    }

    /// Prints the list whose first pair is `head`, keeping its spine open
    /// while its elements print.
    fn list(&mut self, head: ObjRef, depth: usize) {
        self.out.push('(');
        let mut cur = Value::obj(head);
        let mut spine = 0;
        loop {
            let Some((r, (car, cdr))) = cur.as_obj().and_then(|r| Some((r, self.heap.pair(r)?)))
            else {
                if cur != Value::NIL {
                    self.out.push_str(" . ");
                    self.emit(cur, depth + 1);
                }
                break;
            };
            if !self.open.insert(r) {
                self.out.push_str(" . #<cycle>");
                break;
            }
            if spine > 0 {
                self.out.push(' ');
            }
            spine += 1;
            self.emit(car, depth + 1);
            cur = cdr;
        }
        self.out.push(')');
        let mut cur = Some(head);
        for _ in 0..spine {
            let Some(r) = cur else { break };
            self.open.remove(&r);
            cur = self.heap.pair(r).and_then(|(_, cdr)| cdr.as_obj());
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
        assert_eq!(write_value(&h, &s, Value::obj(a)), "(1 . #<cycle>)");
        let b = h.alloc(Obj::Pair(Value::fixnum(2), Value::NIL));
        h.pair_mut(b).unwrap().0 = Value::obj(b);
        assert_eq!(write_value(&h, &s, Value::obj(b)), "(#<cycle>)");
        let v = h.alloc(Obj::Vector(vec![Value::NIL]));
        h.vector_mut(v).unwrap()[0] = Value::obj(v);
        assert_eq!(write_value(&h, &s, Value::obj(v)), "#(#<cycle>)");
    }

    #[test]
    fn shared_structure_prints_in_full() {
        let mut h = Heap::new();
        let s = Symbols::new();
        let x = list(&mut h, &[Value::fixnum(1), Value::fixnum(2)]);
        let shared = list(&mut h, &[x, x]);
        assert_eq!(write_value(&h, &s, shared), "((1 2) (1 2))");
        assert_eq!(display_value(&h, &s, shared), "((1 2) (1 2))");
        let v = Value::obj(h.alloc(Obj::Vector(vec![Value::fixnum(3)])));
        let shared = Value::obj(h.alloc(Obj::Vector(vec![v, x, v, x])));
        assert_eq!(write_value(&h, &s, shared), "#(#(3) (1 2) #(3) (1 2))");
        let tail = list(&mut h, &[x, v]);
        let dotted = Value::obj(h.alloc(Obj::Pair(x, tail)));
        assert_eq!(write_value(&h, &s, dotted), "((1 2) (1 2) #(3))");
    }

    #[test]
    fn nesting_past_the_bound_prints_dots() {
        let mut h = Heap::new();
        let s = Symbols::new();
        let mut v = Value::fixnum(1);
        for _ in 0..MAX_NESTING {
            v = list(&mut h, &[v]);
        }
        let full = write_value(&h, &s, v);
        assert_eq!(full.matches('(').count(), MAX_NESTING);
        assert!(full.contains('1'));
        let deeper = list(&mut h, &[v]);
        assert!(write_value(&h, &s, deeper).contains("(...)"));
    }

    #[test]
    fn symbols_print_their_names() {
        let h = Heap::new();
        let mut s = Symbols::new();
        let id = s.intern("lambda");
        assert_eq!(write_value(&h, &s, Value::sym(id)), "lambda");
    }
}
