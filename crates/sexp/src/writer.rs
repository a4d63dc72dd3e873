//! The writers: [`Datum`]s and atoms to text.
//!
//! The three atom writers are the only code in the tree that turns a
//! character, a string or a flonum into `write` notation; the runtime's
//! printer and the VM's `number->string` call them too. Each prints
//! text that [`crate::read_str`] reads back to the same atom.

use std::fmt::{self, Write as _};

use crate::datum::Datum;
use crate::reader::{CHAR_NAMES, STRING_ESCAPES};

/// Appends `c` in `write` notation: `#\` and the character's name when
/// it has one, else the character itself.
pub fn write_char(out: &mut String, c: char) {
    out.push_str("#\\");
    match CHAR_NAMES.iter().find(|&&(_, named)| named == c) {
        Some((name, _)) => out.push_str(name),
        None => out.push(c),
    }
}

/// Appends the string made of `chars` in `write` notation: quoted, with
/// every character the reader unescapes escaped.
pub fn write_string(out: &mut String, chars: impl IntoIterator<Item = char>) {
    out.push('"');
    for c in chars {
        match STRING_ESCAPES.iter().find(|&&(_, escaped)| escaped == c) {
            Some(&(letter, _)) => {
                out.push('\\');
                out.push(letter as char);
            }
            None => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `x` as text that reads back as the same flonum: the shortest
/// decimal that round-trips, always with a `.` or an exponent so that it
/// cannot read as a fixnum, and `+inf.0`, `-inf.0` or `+nan.0` for the
/// values that have no decimal.
pub fn write_flonum(out: &mut String, x: f64) {
    let _ = if x.is_nan() {
        out.write_str("+nan.0")
    } else if x.is_infinite() {
        out.write_str(if x > 0.0 { "+inf.0" } else { "-inf.0" })
    } else if x.fract() != 0.0 {
        write!(out, "{x}")
    } else if x.abs() < 1e15 {
        write!(out, "{x:.1}")
    } else {
        write!(out, "{x:e}")
    };
}

/// Formats `d` using `write` conventions: strings are quoted and escaped,
/// characters use `#\` notation, quotation forms print with their sugar.
pub fn write_datum(d: &Datum) -> String {
    let mut s = String::new();
    fmt_into(&mut s, d, true);
    s
}

/// Formats `d` using `display` conventions: strings and characters print
/// as their contents.
pub fn display_datum(d: &Datum) -> String {
    let mut s = String::new();
    fmt_into(&mut s, d, false);
    s
}

pub(crate) fn fmt_datum(d: &Datum, f: &mut fmt::Formatter<'_>, write: bool) -> fmt::Result {
    let mut s = String::new();
    fmt_into(&mut s, d, write);
    f.write_str(&s)
}

/// The sugar prefix for a two-element `(tag x)` form, if `tag` has one.
fn sugar_prefix(tag: &str) -> Option<&'static str> {
    match tag {
        "quote" => Some("'"),
        "quasiquote" => Some("`"),
        "unquote" => Some(","),
        "unquote-splicing" => Some(",@"),
        _ => None,
    }
}

fn fmt_into(out: &mut String, d: &Datum, write: bool) {
    match d {
        Datum::Bool(true) => out.push_str("#t"),
        Datum::Bool(false) => out.push_str("#f"),
        Datum::Fixnum(n) => {
            let _ = write!(out, "{n}");
        }
        Datum::Flonum(x) => write_flonum(out, *x),
        Datum::Char(c) if write => write_char(out, *c),
        Datum::Char(c) => out.push(*c),
        Datum::Str(s) if write => write_string(out, s.chars()),
        Datum::Str(s) => out.push_str(s),
        Datum::Symbol(s) => out.push_str(s),
        Datum::Nil => out.push_str("()"),
        Datum::Pair(p) => {
            // Quotation sugar.
            if let (Datum::Symbol(tag), Datum::Pair(rest)) = (&p.0, &p.1) {
                if rest.1.is_nil() {
                    if let Some(prefix) = sugar_prefix(tag) {
                        out.push_str(prefix);
                        return fmt_into(out, &rest.0, write);
                    }
                }
            }
            out.push('(');
            fmt_into(out, &p.0, write);
            let mut cur = &p.1;
            loop {
                match cur {
                    Datum::Nil => break,
                    Datum::Pair(q) => {
                        out.push(' ');
                        fmt_into(out, &q.0, write);
                        cur = &q.1;
                    }
                    other => {
                        out.push_str(" . ");
                        fmt_into(out, other, write);
                        break;
                    }
                }
            }
            out.push(')');
        }
        Datum::Vector(items) => {
            out.push_str("#(");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                fmt_into(out, item, write);
            }
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::read_str;

    #[test]
    fn write_quotes_strings_display_does_not() {
        let d = Datum::Str("a\"b\n".into());
        assert_eq!(write_datum(&d), "\"a\\\"b\\n\"");
        assert_eq!(display_datum(&d), "a\"b\n");
    }

    #[test]
    fn characters_print_by_their_first_name() {
        let written = |c| write_datum(&Datum::Char(c));
        assert_eq!(written(' '), "#\\space");
        assert_eq!(written('\n'), "#\\newline");
        assert_eq!(written('\r'), "#\\return");
        assert_eq!(written('\0'), "#\\nul");
        assert_eq!(written('\x7f'), "#\\delete");
        assert_eq!(written('q'), "#\\q");
        assert_eq!(display_datum(&Datum::Char('q')), "q");
    }

    #[test]
    fn strings_escape_what_the_reader_unescapes() {
        let d = Datum::Str("\"\\\n\t\r\0λ".into());
        assert_eq!(write_datum(&d), r#""\"\\\n\t\r\0λ""#);
    }

    #[test]
    fn lists_round_trip_textually() {
        for src in ["(1 2 3)", "(1 . 2)", "(a (b . c) #(1 2))", "()", "'(1 2)", "`(a ,b ,@c)"] {
            let d = read_str(src).unwrap();
            assert_eq!(write_datum(&d), *src);
        }
    }

    #[test]
    fn flonums_never_read_back_as_something_else() {
        let written = |x| write_datum(&Datum::Flonum(x));
        assert_eq!(written(2.0), "2.0");
        assert_eq!(written(-0.0), "-0.0");
        assert_eq!(written(1.5), "1.5");
        assert_eq!(written(1e-7), "0.0000001");
        assert_eq!(written(999_999_999_999_999.0), "999999999999999.0");
        assert_eq!(written(1e15), "1e15");
        assert_eq!(written(-1e21), "-1e21");
        assert_eq!(written(1_234_567_890_123_456.0), "1.234567890123456e15");
        assert_eq!(written(f64::INFINITY), "+inf.0");
        assert_eq!(written(f64::NEG_INFINITY), "-inf.0");
        assert_eq!(written(f64::NAN), "+nan.0");
    }
}
