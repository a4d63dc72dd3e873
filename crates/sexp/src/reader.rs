//! The reader: source text to [`Datum`]s in one pass.
//!
//! This is the one place that knows the lexical grammar. The tables the
//! writers share with it (character names and string escapes) live here
//! too, so `read ∘ write` cannot drift: the writers print exactly what
//! this file reads back.
//!
//! The reader keeps its open lists, vectors and prefixes on an explicit
//! stack, so no input can exhaust the native stack here. [`MAX_NESTING`]
//! bounds that stack, and with it how deep the recursive passes
//! downstream go: the compiler, the printers, `Datum`'s own
//! `Clone`/`Drop`.

use std::fmt;

use crate::datum::Datum;

/// The deepest nesting of lists, vectors and quotation prefixes the
/// reader accepts, and the depth past which the runtime's printer writes
/// `...` and `value_to_datum` refuses.
///
/// Chosen by measurement: at twice this depth every recursive pass
/// (reading, both compiler pipelines, running, writing the answer back)
/// still fits a 2 MiB thread in a release build; at four times it does
/// not.
pub const MAX_NESTING: usize = 256;

/// Character names: `#\name` stands for the character. The writers print
/// a character by the first name listed for it; the reader also accepts
/// the later aliases, ignoring ASCII case.
pub(crate) const CHAR_NAMES: [(&str, char); 12] = [
    ("space", ' '),
    ("newline", '\n'),
    ("tab", '\t'),
    ("return", '\r'),
    ("nul", '\0'),
    ("escape", '\x1b'),
    ("backspace", '\x08'),
    ("delete", '\x7f'),
    ("linefeed", '\n'),
    ("null", '\0'),
    ("altmode", '\x1b'),
    ("rubout", '\x7f'),
];

/// String escapes: `\` followed by the first character stands for the
/// second. The writers escape exactly these characters.
pub(crate) const STRING_ESCAPES: [(u8, char); 6] =
    [(b'"', '"'), (b'\\', '\\'), (b'n', '\n'), (b't', '\t'), (b'r', '\r'), (b'0', '\0')];

/// A half-open byte range with line/column of its start, for error
/// reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line of the first character.
    pub line: u32,
    /// 1-based column (in bytes) of the first character.
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A read error: lexical or structural.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadError {
    /// Human-readable description.
    pub message: String,
    /// Location, when known.
    pub span: Option<Span>,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(s) => write!(f, "{} at {}", self.message, s),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ReadError {}

/// Reads a single datum from `src`.
///
/// # Errors
///
/// Fails when `src` contains no datum or is malformed; trailing input is
/// permitted and ignored.
pub fn read_str(src: &str) -> Result<Datum, ReadError> {
    match Reader::new(src).read()? {
        Some(d) => Ok(d),
        None => Err(ReadError { message: "no datum in input".into(), span: None }),
    }
}

/// Reads every datum in `src`.
///
/// # Errors
///
/// Fails on the first malformed datum, and on nesting deeper than
/// [`MAX_NESTING`].
pub fn read_all(src: &str) -> Result<Vec<Datum>, ReadError> {
    let mut r = Reader::new(src);
    let mut out = Vec::new();
    while let Some(d) = r.read()? {
        out.push(d);
    }
    Ok(out)
}

/// Parses the text of one number: a decimal integer (an exact fixnum, or
/// the nearest flonum beyond `i64`), a decimal flonum, or one of
/// `+inf.0`, `-inf.0`, `+nan.0`. `None` if `text` is not a number.
fn parse_number(text: &str) -> Option<Datum> {
    match text {
        "+inf.0" => return Some(Datum::Flonum(f64::INFINITY)),
        "-inf.0" => return Some(Datum::Flonum(f64::NEG_INFINITY)),
        "+nan.0" => return Some(Datum::Flonum(f64::NAN)),
        _ => {}
    }
    let body = text.strip_prefix(['+', '-']).unwrap_or(text);
    if !body.starts_with(|c: char| c.is_ascii_digit() || c == '.') {
        return None;
    }
    if body.bytes().all(|b| b.is_ascii_digit()) {
        return match text.parse::<i64>() {
            Ok(n) => Some(Datum::Fixnum(n)),
            Err(_) => text.parse::<f64>().ok().map(Datum::Flonum),
        };
    }
    // A flonum has a dot or an exponent; the character check keeps Rust's
    // own spellings (`inf`, `NaN`) out.
    let flonum_byte = |b: u8| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-');
    if body.bytes().all(flonum_byte) && body.contains(['.', 'e', 'E']) {
        return text.parse::<f64>().ok().map(Datum::Flonum);
    }
    None
}

fn is_delimiter(b: u8) -> bool {
    matches!(b, b'(' | b')' | b'[' | b']' | b'"' | b';') || b.is_ascii_whitespace()
}

fn is_symbol_initial(b: u8) -> bool {
    b.is_ascii_alphabetic() || b"!$%&*/:<=>?^_~".contains(&b)
}

fn is_symbol_subsequent(b: u8) -> bool {
    is_symbol_initial(b) || b.is_ascii_digit() || b"+-.@#".contains(&b)
}

fn is_symbol(text: &str) -> bool {
    let bytes = text.as_bytes();
    (bytes.first().is_some_and(|&b| is_symbol_initial(b))
        && bytes.iter().all(|&b| is_symbol_subsequent(b)))
        || matches!(text, "+" | "-" | "...")
        || text.starts_with("->")
}

/// Where a dotted list stands.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dot {
    /// No dot yet.
    None,
    /// A dot was read; the tail comes next.
    Seen,
    /// The tail was read (it is the last item); only `)` may follow.
    Tail,
}

/// Something opened and not yet finished.
enum Open {
    /// `(` or `[`; its items are `items[start..]`.
    List { start: usize, dot: Dot },
    /// `#(`; its items are `items[start..]`.
    Vector { start: usize },
    /// A quotation prefix waiting for its datum (`quote`, `unquote`, ...).
    Sugar(&'static str),
    /// `#;` waiting for the datum it discards.
    Comment,
}

struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// What is open, innermost last, each with the byte offset that
    /// opened it.
    open: Vec<(usize, Open)>,
    /// The items of every open list and vector, innermost last.
    items: Vec<Datum>,
}

impl<'a> Reader<'a> {
    fn new(src: &'a str) -> Self {
        Reader { src, pos: 0, open: Vec::new(), items: Vec::new() }
    }

    fn peek_at(&self, i: usize) -> Option<u8> {
        self.src.as_bytes().get(i).copied()
    }

    fn error(&self, start: usize, message: impl Into<String>) -> ReadError {
        let before = &self.src.as_bytes()[..start];
        let line_start = before.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let line = before.iter().filter(|&&b| b == b'\n').count() + 1;
        let span = Span {
            start,
            end: self.pos.max(start),
            line: line as u32,
            col: (start - line_start + 1) as u32,
        };
        ReadError { message: message.into(), span: Some(span) }
    }

    /// Reads the next toplevel datum, or `None` at end of input.
    fn read(&mut self) -> Result<Option<Datum>, ReadError> {
        loop {
            self.skip_atmosphere()?;
            let at = self.pos;
            let Some(b) = self.peek_at(at) else { return self.end_of_input() };
            let next = self.peek_at(at + 1);
            if matches!(self.open.last(), Some((_, Open::List { dot: Dot::Tail, .. })))
                && !matches!((b, next), (b')' | b']', _) | (b'#', Some(b';')))
            {
                return Err(self.error(at, "expected ) after dotted tail"));
            }
            self.pos += 1;
            let datum = match (b, next) {
                (b'(' | b'[', _) => {
                    self.push(at, Open::List { start: self.items.len(), dot: Dot::None })?
                }
                (b')' | b']', _) => Some(self.close(at)?),
                (b'\'', _) => self.push(at, Open::Sugar("quote"))?,
                (b'`', _) => self.push(at, Open::Sugar("quasiquote"))?,
                (b',', Some(b'@')) => {
                    self.pos += 1;
                    self.push(at, Open::Sugar("unquote-splicing"))?
                }
                (b',', _) => self.push(at, Open::Sugar("unquote"))?,
                (b'"', _) => Some(self.string(at)?),
                (b'#', Some(b'(')) => {
                    self.pos += 1;
                    self.push(at, Open::Vector { start: self.items.len() })?
                }
                (b'#', Some(b';')) => {
                    self.pos += 1;
                    self.push(at, Open::Comment)?
                }
                (b'#', Some(b't' | b'f')) => {
                    self.pos += 1;
                    Some(Datum::Bool(next == Some(b't')))
                }
                (b'#', Some(b'\\')) => {
                    self.pos += 1;
                    Some(self.character(at)?)
                }
                (b'#', Some(b'x' | b'X')) => {
                    self.pos += 1;
                    let text = self.token();
                    let n = i64::from_str_radix(text, 16)
                        .map_err(|_| self.error(at, format!("bad hex literal #x{text}")))?;
                    Some(Datum::Fixnum(n))
                }
                (b'#', other) => {
                    let shown = other.map_or(String::from("<eof>"), |c| (c as char).to_string());
                    return Err(self.error(at, format!("unknown # syntax: #{shown}")));
                }
                _ => {
                    self.pos = at;
                    let text = self.token();
                    if text == "." {
                        self.dot(at)?;
                        None
                    } else if let Some(d) = parse_number(text) {
                        Some(d)
                    } else if is_symbol(text) {
                        Some(Datum::Symbol(text.to_string()))
                    } else {
                        return Err(self.error(at, format!("invalid token {text:?}")));
                    }
                }
            };
            if let Some(d) = datum {
                if let Some(done) = self.deliver(d) {
                    return Ok(Some(done));
                }
            }
        }
    }

    /// Skips whitespace and line and block comments (`#;` is an open
    /// prefix instead: the datum it discards must still be read).
    fn skip_atmosphere(&mut self) -> Result<(), ReadError> {
        while let Some(b) = self.peek_at(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else if b == b';' {
                let rest = &self.src.as_bytes()[self.pos..];
                self.pos += rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
            } else if b == b'#' && self.peek_at(self.pos + 1) == Some(b'|') {
                let start = self.pos;
                self.pos += 2;
                let mut depth = 1u32;
                while depth > 0 {
                    match (self.peek_at(self.pos), self.peek_at(self.pos + 1)) {
                        (Some(b'|'), Some(b'#')) => {
                            self.pos += 2;
                            depth -= 1;
                        }
                        (Some(b'#'), Some(b'|')) => {
                            self.pos += 2;
                            depth += 1;
                        }
                        (Some(_), _) => self.pos += 1,
                        (None, _) => return Err(self.error(start, "unterminated block comment")),
                    }
                }
            } else {
                break;
            }
        }
        Ok(())
    }

    /// Consumes and returns the text up to the next delimiter.
    fn token(&mut self) -> &'a str {
        let rest = &self.src.as_bytes()[self.pos..];
        let len = rest.iter().position(|&b| is_delimiter(b)).unwrap_or(rest.len());
        let start = self.pos;
        self.pos += len;
        &self.src[start..self.pos]
    }

    /// Opens a list, vector or prefix; there is no datum yet.
    fn push(&mut self, at: usize, open: Open) -> Result<Option<Datum>, ReadError> {
        if self.open.len() >= MAX_NESTING {
            return Err(self.error(at, format!("nested deeper than {MAX_NESTING} levels")));
        }
        self.open.push((at, open));
        Ok(None)
    }

    /// Hands a finished datum to whatever is open; returns it when it
    /// completes a toplevel datum.
    fn deliver(&mut self, mut d: Datum) -> Option<Datum> {
        loop {
            match self.open.last_mut() {
                None => return Some(d),
                Some((_, Open::Sugar(name))) => {
                    d = Datum::list([Datum::symbol(*name), d]);
                    self.open.pop();
                }
                Some((_, Open::Comment)) => {
                    self.open.pop();
                    return None;
                }
                Some((_, Open::List { dot, .. })) => {
                    if *dot == Dot::Seen {
                        *dot = Dot::Tail;
                    }
                    self.items.push(d);
                    return None;
                }
                Some((_, Open::Vector { .. })) => {
                    self.items.push(d);
                    return None;
                }
            }
        }
    }

    fn close(&mut self, at: usize) -> Result<Datum, ReadError> {
        let message = match self.open.pop().map(|(_, open)| open) {
            Some(Open::List { start, dot: dot @ (Dot::None | Dot::Tail) }) => {
                let mut d = match dot {
                    Dot::Tail => self.items.pop().unwrap_or(Datum::Nil),
                    _ => Datum::Nil,
                };
                for item in self.items.drain(start..).rev() {
                    d = Datum::cons(item, d);
                }
                return Ok(d);
            }
            Some(Open::Vector { start }) => return Ok(Datum::Vector(self.items.split_off(start))),
            Some(Open::List { dot: Dot::Seen, .. }) => "expected a datum after .".to_string(),
            Some(Open::Sugar(name)) => format!("expected a datum after {name}"),
            Some(Open::Comment) => "expected a datum after #;".to_string(),
            None => "unexpected )".to_string(),
        };
        Err(self.error(at, message))
    }

    fn dot(&mut self, at: usize) -> Result<(), ReadError> {
        match self.open.last_mut() {
            Some((_, Open::List { start, dot: dot @ Dot::None })) if self.items.len() > *start => {
                *dot = Dot::Seen;
                Ok(())
            }
            Some((_, Open::List { dot: Dot::None, .. })) => {
                Err(self.error(at, "dot at start of list"))
            }
            _ => Err(self.error(at, "unexpected .")),
        }
    }

    fn end_of_input(&self) -> Result<Option<Datum>, ReadError> {
        let Some((at, open)) = self.open.last() else { return Ok(None) };
        let message = match open {
            Open::List { .. } => "unclosed (".to_string(),
            Open::Vector { .. } => "unclosed #(".to_string(),
            Open::Sugar(name) => format!("expected a datum after {name}"),
            Open::Comment => "expected a datum after #;".to_string(),
        };
        Err(self.error(*at, format!("end of input: {message}")))
    }

    /// A string literal; `self.pos` is just past the opening quote.
    fn string(&mut self, at: usize) -> Result<Datum, ReadError> {
        let bytes = self.src.as_bytes();
        let mut s = String::new();
        let mut run = self.pos;
        loop {
            match bytes.get(self.pos) {
                None => return Err(self.error(at, "unterminated string")),
                Some(b'"') => {
                    s.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    return Ok(Datum::Str(s));
                }
                Some(b'\\') => {
                    s.push_str(&self.src[run..self.pos]);
                    let Some(&e) = bytes.get(self.pos + 1) else {
                        return Err(self.error(at, "unterminated string"));
                    };
                    let Some(&(_, c)) = STRING_ESCAPES.iter().find(|(l, _)| *l == e) else {
                        let shown = self.src[self.pos + 1..].chars().next().unwrap_or('?');
                        return Err(self.error(at, format!("unknown string escape \\{shown}")));
                    };
                    s.push(c);
                    self.pos += 2;
                    run = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// A character literal; `self.pos` is just past `#\`.
    fn character(&mut self, at: usize) -> Result<Datum, ReadError> {
        let Some(first) = self.src[self.pos..].chars().next() else {
            return Err(self.error(at, "end of input in character literal"));
        };
        self.pos += first.len_utf8();
        let rest = self.token();
        if rest.is_empty() {
            return Ok(Datum::Char(first));
        }
        let name = &self.src[at + 2..self.pos];
        match CHAR_NAMES.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)) {
            Some(&(_, c)) => Ok(Datum::Char(c)),
            None => Err(self.error(at, format!("unknown character name #\\{name}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(src: &str) -> Datum {
        read_str(src).unwrap_or_else(|e| panic!("{src:?}: {e}"))
    }

    fn list(items: &[Datum]) -> Datum {
        Datum::list(items.to_vec())
    }

    #[test]
    fn reads_atoms() {
        assert_eq!(read("42"), Datum::Fixnum(42));
        assert_eq!(read("#t"), Datum::Bool(true));
        assert_eq!(read("#f"), Datum::Bool(false));
        assert_eq!(read("foo"), Datum::symbol("foo"));
        assert_eq!(read("\"hi\""), Datum::Str("hi".into()));
        assert_eq!(read("#\\x"), Datum::Char('x'));
        assert_eq!(read("3.25"), Datum::Flonum(3.25));
    }

    #[test]
    fn numbers() {
        let nums = read_all("1 -2 +3 1.5 -2e3 .5 1. #x10 #x-ff #XfF #x-8000000000000000").unwrap();
        assert_eq!(
            nums,
            [
                Datum::Fixnum(1),
                Datum::Fixnum(-2),
                Datum::Fixnum(3),
                Datum::Flonum(1.5),
                Datum::Flonum(-2000.0),
                Datum::Flonum(0.5),
                Datum::Flonum(1.0),
                Datum::Fixnum(16),
                Datum::Fixnum(-255),
                Datum::Fixnum(255),
                Datum::Fixnum(i64::MIN),
            ]
        );
        assert_eq!(read("99999999999999999999"), Datum::Flonum(1e20));
        assert_eq!(read("-9223372036854775808"), Datum::Fixnum(i64::MIN));
        assert_eq!(read("+inf.0"), Datum::Flonum(f64::INFINITY));
        assert_eq!(read("-inf.0"), Datum::Flonum(f64::NEG_INFINITY));
        assert!(matches!(read("+nan.0"), Datum::Flonum(x) if x.is_nan()));
        // Rust's own float spellings are symbols, not numbers.
        for sym in ["inf", "nan", "infinity", "NaN", "inf.0", "e5"] {
            assert_eq!(read(sym), Datum::symbol(sym));
        }
        for bad in ["1e", "1.2.3", "-inf", "+inf", "12abc", "-.", "#x", "#x1g", "#x--1"] {
            assert!(read_str(bad).is_err(), "{bad:?} should not read");
        }
    }

    #[test]
    fn peculiar_identifiers() {
        let syms = read_all("+ - ... ->foo a->b list->vector x.y@z#").unwrap();
        let names: Vec<_> = syms.iter().map(|d| d.as_symbol().unwrap()).collect();
        assert_eq!(names, ["+", "-", "...", "->foo", "a->b", "list->vector", "x.y@z#"]);
    }

    #[test]
    fn strings_and_their_escapes() {
        assert_eq!(read(r#""a\nb\"c\\d\te\rf\0""#), Datum::Str("a\nb\"c\\d\te\rf\0".into()));
        assert_eq!(read("\"λ → x\""), Datum::Str("λ → x".into()));
        assert!(read_str(r#""\q""#).unwrap_err().message.contains("unknown string escape \\q"));
    }

    #[test]
    fn characters_named_and_literal() {
        let chars = read_all(r"#\a #\( #\  #\λ #\space #\NEWLINE #\linefeed #\nul #\null").unwrap();
        let want = ['a', '(', ' ', 'λ', ' ', '\n', '\n', '\0', '\0'];
        assert_eq!(chars, want.map(Datum::Char));
        for (name, c) in CHAR_NAMES {
            assert_eq!(read(&format!("#\\{name}")), Datum::Char(c));
        }
        assert!(read_str(r"#\bogus").unwrap_err().message.contains("#\\bogus"));
    }

    #[test]
    fn reads_lists_brackets_and_dotted_pairs() {
        let (one, two, three) = (Datum::Fixnum(1), Datum::Fixnum(2), Datum::Fixnum(3));
        assert_eq!(read("(1 2)"), list(&[one.clone(), two.clone()]));
        assert_eq!(read("[1 2)"), list(&[one.clone(), two.clone()]));
        assert_eq!(read("(1 . 2)"), Datum::cons(one.clone(), two.clone()));
        assert_eq!(
            read("(1 2 . 3)"),
            Datum::cons(one.clone(), Datum::cons(two.clone(), three.clone()))
        );
        assert_eq!(read("(1 . '2)"), Datum::cons(one, list(&[Datum::symbol("quote"), two])));
        assert_eq!(read("()"), Datum::Nil);
        assert_eq!(
            read("#(1 a #())"),
            Datum::Vector(vec![Datum::Fixnum(1), Datum::symbol("a"), Datum::Vector(vec![])])
        );
    }

    #[test]
    fn expands_quotation_sugar() {
        let quoted = |tag: &str, d: Datum| list(&[Datum::symbol(tag), d]);
        assert_eq!(read("'x"), quoted("quote", Datum::symbol("x")));
        assert_eq!(read("`x"), quoted("quasiquote", Datum::symbol("x")));
        assert_eq!(read(",x"), quoted("unquote", Datum::symbol("x")));
        assert_eq!(read(",@x"), quoted("unquote-splicing", Datum::symbol("x")));
        assert_eq!(read("''x"), quoted("quote", quoted("quote", Datum::symbol("x"))));
    }

    #[test]
    fn comments_are_atmosphere() {
        let ds = read_all("; line\n1 #| block #| nested |# still |# 2 #;(3 4) #;#;5 6 7").unwrap();
        assert_eq!(ds, [1, 2, 7].map(Datum::Fixnum));
        assert_eq!(read("(1 #;2 3)"), list(&[Datum::Fixnum(1), Datum::Fixnum(3)]));
        assert_eq!(read("(1 #;2)"), list(&[Datum::Fixnum(1)]));
        assert_eq!(read("(1 . 2 #;3)"), Datum::cons(Datum::Fixnum(1), Datum::Fixnum(2)));
        assert_eq!(read_all("1 #;2").unwrap(), [Datum::Fixnum(1)]);
    }

    #[test]
    fn structural_errors() {
        for bad in [
            "(1 2",
            ")",
            "(. 1)",
            "(1 . 2 3)",
            "(1 . 2 . 3)",
            "(1 . )",
            "#(1 . 2)",
            "'",
            "')",
            "(1 #;)",
            "#;",
            "#;#;1",
            "#|",
            "\"abc",
            "#\\",
            "#a",
            "{",
        ] {
            assert!(read_all(bad).is_err(), "{bad:?} should not read");
        }
        assert!(read_str("").is_err());
    }

    #[test]
    fn errors_carry_line_and_column() {
        let e = read_all("(a\n  \"abc").unwrap_err();
        assert!(e.message.contains("unterminated"), "{e}");
        assert_eq!(e.to_string(), "unterminated string at 2:3");
        let e = read_all("(a b\n").unwrap_err();
        assert_eq!(e.to_string(), "end of input: unclosed ( at 1:1");
    }

    #[test]
    fn read_all_reads_every_datum() {
        let ds = read_all("1 (2) ;c\n3").unwrap();
        assert_eq!(ds.len(), 3);
        let d = read("(define (f x) (if (< x 2) 1 (* x (f (- x 1)))))");
        assert_eq!(d.car().unwrap().as_symbol(), Some("define"));
    }
}
