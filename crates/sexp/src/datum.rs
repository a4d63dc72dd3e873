//! The external-representation tree.

use std::fmt;

/// A Scheme datum as produced by the reader.
///
/// This is a plain tree: pairs own their halves, so a datum has neither
/// sharing nor cycles. The runtime converts data into heap values when a
/// program is loaded. `Display` and `Debug` print `write` notation
/// ([`crate::write_datum`]), which [`crate::read_str`] reads back to an
/// equal datum (a NaN reads back as a NaN, which `==` never equals).
///
/// `Clone`, `PartialEq`, `Debug`, and `Drop` are implemented manually so
/// that they iterate along cdr spines: a list literal is arbitrarily long,
/// and derived (recursive) implementations would overflow the native stack
/// on lists beyond a few tens of thousands of elements. Recursion depth is
/// bounded by *nesting* depth only, which the reader bounds by
/// [`crate::MAX_NESTING`].
pub enum Datum {
    /// `#t` or `#f`.
    Bool(bool),
    /// An exact integer.
    Fixnum(i64),
    /// An inexact real.
    Flonum(f64),
    /// A character, e.g. `#\a`.
    Char(char),
    /// A string literal.
    Str(String),
    /// A symbol.
    Symbol(String),
    /// The empty list `()`.
    Nil,
    /// A pair `(car . cdr)`.
    Pair(Box<(Datum, Datum)>),
    /// A vector literal `#( ... )`.
    Vector(Vec<Datum>),
}

impl Datum {
    /// Constructs a pair.
    pub fn cons(car: Datum, cdr: Datum) -> Datum {
        Datum::Pair(Box::new((car, cdr)))
    }

    /// Constructs a symbol from anything string-like.
    pub fn symbol(name: impl Into<String>) -> Datum {
        Datum::Symbol(name.into())
    }

    /// Builds a proper list from an iterator.
    pub fn list<I>(items: I) -> Datum
    where
        I: IntoIterator<Item = Datum>,
        I::IntoIter: DoubleEndedIterator,
    {
        let mut d = Datum::Nil;
        for item in items.into_iter().rev() {
            d = Datum::cons(item, d);
        }
        d
    }

    /// The car of a pair, if this is one.
    pub fn car(&self) -> Option<&Datum> {
        match self {
            Datum::Pair(p) => Some(&p.0),
            _ => None,
        }
    }

    /// The cdr of a pair, if this is one.
    pub fn cdr(&self) -> Option<&Datum> {
        match self {
            Datum::Pair(p) => Some(&p.1),
            _ => None,
        }
    }

    /// The symbol name, if this is a symbol.
    pub fn as_symbol(&self) -> Option<&str> {
        match self {
            Datum::Symbol(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this is the empty list.
    pub fn is_nil(&self) -> bool {
        matches!(self, Datum::Nil)
    }

    /// Iterates over the elements of a proper list prefix; iteration stops
    /// at the first non-pair tail (which [`ListIter::tail`] exposes).
    pub fn iter(&self) -> ListIter<'_> {
        ListIter { cur: self }
    }

    /// Collects a proper list into a vector; `None` for improper lists or
    /// non-lists.
    pub fn proper_list(&self) -> Option<Vec<&Datum>> {
        let mut out = Vec::new();
        let mut cur = self;
        loop {
            match cur {
                Datum::Nil => return Some(out),
                Datum::Pair(p) => {
                    out.push(&p.0);
                    cur = &p.1;
                }
                _ => return None,
            }
        }
    }
}

impl fmt::Display for Datum {
    /// Formats using `write` conventions (strings quoted, characters with
    /// `#\` syntax); see [`crate::write_datum`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::writer::fmt_datum(self, f, true)
    }
}

impl fmt::Debug for Datum {
    /// Same as `Display` (the writer iterates along spines, so debugging a
    /// long list cannot overflow the stack).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl Clone for Datum {
    fn clone(&self) -> Datum {
        match self {
            Datum::Bool(b) => Datum::Bool(*b),
            Datum::Fixnum(n) => Datum::Fixnum(*n),
            Datum::Flonum(x) => Datum::Flonum(*x),
            Datum::Char(c) => Datum::Char(*c),
            Datum::Str(s) => Datum::Str(s.clone()),
            Datum::Symbol(s) => Datum::Symbol(s.clone()),
            Datum::Nil => Datum::Nil,
            Datum::Vector(items) => Datum::Vector(items.clone()),
            Datum::Pair(_) => {
                // Clone the cdr spine iteratively; cars recurse (bounded by
                // nesting depth).
                let mut elems = Vec::new();
                let mut cur = self;
                while let Datum::Pair(p) = cur {
                    elems.push(p.0.clone());
                    cur = &p.1;
                }
                let mut out = cur.clone();
                for e in elems.into_iter().rev() {
                    out = Datum::cons(e, out);
                }
                out
            }
        }
    }
}

impl PartialEq for Datum {
    fn eq(&self, other: &Datum) -> bool {
        let (mut a, mut b) = (self, other);
        loop {
            match (a, b) {
                (Datum::Pair(p), Datum::Pair(q)) => {
                    if p.0 != q.0 {
                        return false;
                    }
                    a = &p.1;
                    b = &q.1;
                }
                (Datum::Bool(x), Datum::Bool(y)) => return x == y,
                (Datum::Fixnum(x), Datum::Fixnum(y)) => return x == y,
                (Datum::Flonum(x), Datum::Flonum(y)) => return x == y,
                (Datum::Char(x), Datum::Char(y)) => return x == y,
                (Datum::Str(x), Datum::Str(y)) => return x == y,
                (Datum::Symbol(x), Datum::Symbol(y)) => return x == y,
                (Datum::Nil, Datum::Nil) => return true,
                (Datum::Vector(x), Datum::Vector(y)) => return x == y,
                _ => return false,
            }
        }
    }
}

impl Drop for Datum {
    /// Unravels the cdr spine iteratively so that dropping a long list does
    /// not recurse once per element.
    fn drop(&mut self) {
        let Datum::Pair(p) = self else { return };
        let mut cdr = std::mem::replace(&mut p.1, Datum::Nil);
        while let Datum::Pair(ref mut q) = cdr {
            let next = std::mem::replace(&mut q.1, Datum::Nil);
            // The detached cell (cdr now Nil) drops here; only its car can
            // recurse, bounded by nesting depth.
            cdr = next;
        }
    }
}

/// Iterator over the elements of a (possibly improper) list.
///
/// Produced by [`Datum::iter`].
#[derive(Debug, Clone)]
pub struct ListIter<'a> {
    cur: &'a Datum,
}

impl<'a> ListIter<'a> {
    /// The remaining tail — `Nil` after a proper list is exhausted, or the
    /// final non-pair datum of an improper list.
    pub fn tail(&self) -> &'a Datum {
        self.cur
    }
}

impl<'a> Iterator for ListIter<'a> {
    type Item = &'a Datum;

    fn next(&mut self) -> Option<&'a Datum> {
        match self.cur {
            Datum::Pair(p) => {
                self.cur = &p.1;
                Some(&p.0)
            }
            _ => None,
        }
    }
}

impl FromIterator<Datum> for Datum {
    fn from_iter<I: IntoIterator<Item = Datum>>(iter: I) -> Datum {
        Datum::list(iter.into_iter().collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_construction_and_iteration() {
        let d = Datum::list([Datum::Fixnum(1), Datum::Fixnum(2), Datum::Fixnum(3)]);
        let items: Vec<i64> = d
            .iter()
            .map(|x| match x {
                Datum::Fixnum(n) => *n,
                _ => panic!(),
            })
            .collect();
        assert_eq!(items, vec![1, 2, 3]);
        assert!(d.proper_list().is_some());
    }

    #[test]
    fn improper_list_exposes_tail() {
        let d = Datum::cons(Datum::Fixnum(1), Datum::symbol("x"));
        let mut it = d.iter();
        assert_eq!(it.next(), Some(&Datum::Fixnum(1)));
        assert_eq!(it.next(), None);
        assert_eq!(it.tail(), &Datum::symbol("x"));
        assert!(d.proper_list().is_none());
    }

    #[test]
    fn accessors() {
        let d = Datum::cons(Datum::Bool(true), Datum::Nil);
        assert_eq!(d.car(), Some(&Datum::Bool(true)));
        assert_eq!(d.cdr(), Some(&Datum::Nil));
        assert!(Datum::Nil.is_nil());
        assert_eq!(Datum::symbol("abc").as_symbol(), Some("abc"));
        assert_eq!(Datum::Fixnum(1).as_symbol(), None);
    }
}
