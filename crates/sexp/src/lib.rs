//! S-expression reading and writing for the oneshot Scheme system.
//!
//! Scheme's external syntax is defined here once, and every reader and
//! printer in the tree uses this definition:
//!
//! * [`Datum`], the tree the reader produces;
//! * a one-pass reader ([`read_all`], [`read_str`]) for R4RS-style
//!   syntax: lists (with `[ ]` as parentheses), dotted pairs, vectors,
//!   strings, characters, booleans, decimal and `#x` fixnums, flonums,
//!   symbols, quotation sugar, and all three comment forms. Errors carry
//!   a [`Span`]; nesting deeper than [`MAX_NESTING`] is an error;
//! * the atom writers [`write_char`], [`write_string`] and
//!   [`write_flonum`], which the runtime's printer and the VM's number
//!   builtins call too;
//! * [`write_datum`] (machine-readable) and [`display_datum`]
//!   (human-readable).
//!
//! `read ∘ write` is the identity on data: the writers print exactly the
//! character names, string escapes and number text that the reader reads.
//!
//! # Example
//!
//! ```
//! use oneshot_sexp::{read_str, Datum};
//!
//! let d = read_str("(+ 1 (quote x))").unwrap();
//! assert_eq!(d.to_string(), "(+ 1 'x)");
//! assert!(matches!(d, Datum::Pair(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod datum;
mod reader;
mod writer;

pub use datum::{Datum, ListIter};
pub use reader::{read_all, read_str, ReadError, Span, MAX_NESTING};
pub use writer::{display_datum, write_char, write_datum, write_flonum, write_string};
