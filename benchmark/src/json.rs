//! A small JSON value with an order-preserving writer and a strict parser.
//! The container has no serde, and the ledger's key order must be the same
//! on every run, so objects are vectors of pairs, not maps.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Whole numbers print without a fraction (counts stay counts).
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: Vec<(K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// One line, no spaces after separators except `": "` and `", "`.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented by two spaces; arrays of scalars stay on one line so raw
    /// per-repetition values do not swamp the file.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let flat = indent.is_none() || items.iter().all(Json::is_scalar);
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if flat { ", " } else { "," });
                    }
                    if !flat {
                        newline(out, indent, depth + 1);
                    }
                    item.write(out, indent, depth + 1);
                }
                if !flat && !items.is_empty() {
                    newline(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { "," } else { ", " });
                    }
                    newline(out, indent, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, indent, depth);
                }
                out.push('}');
            }
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
}

/// Shortest representation that reads back to the same f64 — "a number as
/// measured, with all its digits". Non-finite values have no JSON form.
fn write_num(out: &mut String, n: f64) {
    if n.is_finite() {
        let _ = write!(out, "{n:?}");
    } else {
        out.push_str("null");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document (the ledgers this program wrote, or a child's
/// result line).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), at: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.at) == Some(&b']') {
                        self.at += 1;
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() {
                        self.expect(",")?;
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut pairs = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.at) == Some(&b'}') {
                        self.at += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    if !pairs.is_empty() {
                        self.expect(",")?;
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(":")?;
                    pairs.push((key, self.value()?));
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).map_err(|e| e.to_string())?;
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number `{text}` at {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.at).ok_or("unterminated string")?;
            self.at += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.bytes.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.at += 4;
                            out.extend(hex.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_keeps_key_order() {
        let v = Json::obj(vec![
            ("z", Json::Int(3)),
            ("a", Json::Num(0.1 + 0.2)),
            ("s", Json::str("q\"\\\n")),
            ("l", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("o", Json::obj(vec![("k", Json::nums(&[1.5, 2.0]))])),
        ]);
        for text in [v.to_line(), v.to_pretty()] {
            assert_eq!(parse(&text).unwrap(), v, "{text}");
        }
        assert!(v.to_line().starts_with("{\"z\": 3, \"a\": 0.30000000000000004"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("[1,").is_err());
    }
}
