//! Value representation, heap, and garbage collector for the oneshot
//! Scheme system.
//!
//! Values are one-word tagged [`Value`]s; compound data lives in a
//! mark–sweep [`Heap`] organized as segregated per-kind pools, indexed by
//! kind-tagged [`ObjRef`]s. Symbols are interned in a [`Symbols`] table.
//! The collector is embedder-driven: the VM owns both the heap and the
//! segmented control stack (`oneshot-core`), and marking must traverse
//! both (continuation objects reference stack segments whose slots hold
//! values, and vice versa), so the heap exposes a tri-color worklist API
//! ([`Heap::mark_value`], [`Heap::pop_gray`], [`Heap::mark_children`],
//! [`Heap::pop_kont`]) instead of a monolithic `collect`.
//!
//! Allocation volume is accounted in words ([`Heap::words_allocated`]) —
//! the measure behind the paper's "allocates 23% less memory" comparison.
//!
//! # Example
//!
//! ```
//! use oneshot_runtime::{Heap, Obj, Symbols, Value};
//!
//! let mut heap = Heap::new();
//! let mut syms = Symbols::new();
//! let x = syms.intern("x");
//! let pair = heap.alloc(Obj::Pair(Value::sym(x), Value::fixnum(1)));
//! assert_eq!(oneshot_runtime::write_value(&heap, &syms, Value::obj(pair)), "(x . 1)");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod heap;
mod print;
mod symbols;
mod value;

pub use convert::{datum_to_value, value_to_datum};
pub use heap::{Heap, HeapStats, Obj, ObjView};
pub use print::{display_value, write_value};
pub use symbols::{SymbolId, Symbols};
pub use value::{ObjKind, ObjRef, Unpacked, Value, FIXNUM_MAX, FIXNUM_MIN};

/// Structural (`equal?`) comparison of two values.
///
/// `eqv?`-style identity comparison is [`Value`]'s `PartialEq`. Uses an
/// explicit worklist rather than recursion, so comparing arbitrarily long
/// lists cannot overflow the native stack. Cyclic structures that are not
/// identical diverge (as in R4RS `equal?`) — but identical cycle nodes
/// short-circuit through the `a == b` fast path.
pub fn values_equal(heap: &Heap, a: Value, b: Value) -> bool {
    let mut work = vec![(a, b)];
    while let Some((a, b)) = work.pop() {
        if a == b {
            continue;
        }
        let (Some(ra), Some(rb)) = (a.as_obj(), b.as_obj()) else { return false };
        match (heap.view(ra), heap.view(rb)) {
            (ObjView::Pair(a1, d1), ObjView::Pair(a2, d2)) => {
                work.push((d1, d2));
                work.push((a1, a2));
            }
            (ObjView::Vector(v1), ObjView::Vector(v2)) => {
                if v1.len() != v2.len() {
                    return false;
                }
                work.extend(v1.iter().copied().zip(v2.iter().copied()));
            }
            (ObjView::Str(s1), ObjView::Str(s2)) => {
                if s1 != s2 {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_compares_structure() {
        let mut heap = Heap::new();
        let a = heap.alloc(Obj::Pair(Value::fixnum(1), Value::NIL));
        let b = heap.alloc(Obj::Pair(Value::fixnum(1), Value::NIL));
        assert_ne!(Value::obj(a), Value::obj(b), "eqv? distinguishes allocations");
        assert!(values_equal(&heap, Value::obj(a), Value::obj(b)));
        let c = heap.alloc(Obj::Pair(Value::fixnum(2), Value::NIL));
        assert!(!values_equal(&heap, Value::obj(a), Value::obj(c)));
    }

    #[test]
    fn equal_compares_vectors_and_strings() {
        let mut heap = Heap::new();
        let v1 = heap.alloc(Obj::Vector(vec![Value::fixnum(1), Value::TRUE]));
        let v2 = heap.alloc(Obj::Vector(vec![Value::fixnum(1), Value::TRUE]));
        assert!(values_equal(&heap, Value::obj(v1), Value::obj(v2)));
        let s1 = heap.alloc(Obj::Str("abc".chars().collect()));
        let s2 = heap.alloc(Obj::Str("abc".chars().collect()));
        let s3 = heap.alloc(Obj::Str("abd".chars().collect()));
        assert!(values_equal(&heap, Value::obj(s1), Value::obj(s2)));
        assert!(!values_equal(&heap, Value::obj(s1), Value::obj(s3)));
    }
}
