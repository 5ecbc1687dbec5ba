//! Hand-rolled JSON encoding and decoding — the minimal subset the serving
//! protocol needs (objects, arrays, numbers, strings, booleans, null), with
//! no external dependencies.
//!
//! Numbers round-trip losslessly: values are emitted with Rust's shortest
//! round-trip float formatting, so a score serialised here and parsed back
//! with `str::parse::<f32>` reproduces the exact bit pattern — the property
//! the serving parity test relies on.
//!
//! [`Obj`] and [`ToJson`] are the one writer for whole documents
//! (`/metrics`, the bench reports): compact, keys in the order they are
//! added, integers written exactly (a `u64` above 2^53 does not pass through
//! an `f64`), every string escaped, non-finite floats written as `null`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as f64; integers up to 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. BTreeMap keeps encoding deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a finite number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) if n.is_finite() => Some(*n),
            _ => None,
        }
    }

    /// This value as a non-negative integer (rejects fractions).
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= u32::MAX as f64 {
            Some(n as usize)
        } else {
            None
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so without a cap a request body of repeated `[` would
/// overflow the thread's stack and abort the whole process; request bodies
/// nest 2–3 deep.
pub const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected, nesting deeper than [`MAX_DEPTH`] rejected).
pub fn parse(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0, depth: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open around `i`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.i
            )),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.i)),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.i + 4 > self.b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.i += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let ch = rest.chars().next().expect("peeked non-empty");
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            map.insert(key, v);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }
}

/// Escape and quote a string for JSON output.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    quote_into(&mut out, s);
    out
}

fn quote_into(out: &mut String, s: &str) {
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

/// Format an f32 with shortest round-trip representation (Rust's `Display`),
/// mapping non-finite values to `null` (JSON has no NaN/inf).
pub fn f32_to_json(x: f32) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Format an f64 the same way.
pub fn f64_to_json(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A value [`Obj`] can write; a `Vec` of them is written as an array.
pub trait ToJson {
    /// Append this value's JSON encoding to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
int_to_json!(u32, u64, usize);

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        out.push_str(&f64_to_json(*self));
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        quote_into(out, self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

/// An object being written: `Obj::new().field("a", 1u64).finish()` is
/// `{"a":1}`. Holds the fields written so far, without the braces.
#[derive(Clone, Debug, Default)]
pub struct Obj(String);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `"key":value` after the fields added so far.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Self {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        quote_into(&mut self.0, key);
        self.0.push(':');
        value.write_json(&mut self.0);
        self
    }

    /// The finished document.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.0)
    }
}

impl ToJson for Obj {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        out.push_str(&self.0);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_shape() {
        let v = parse(r#"{"user": 7, "seq": [3, 1, 4], "k": 10}"#).unwrap();
        assert_eq!(v.get("user").unwrap().as_usize(), Some(7));
        let seq: Vec<usize> = v
            .get("seq")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|j| j.as_usize().unwrap())
            .collect();
        assert_eq!(seq, vec![3, 1, 4]);
        assert_eq!(v.get("k").unwrap().as_usize(), Some(10));
    }

    #[test]
    fn parses_nested_and_strings() {
        let v = parse(r#"{"a":[{"b":"x\ny"},true,null,-1.5e2]}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(arr[1], Json::Bool(true));
        assert_eq!(arr[2], Json::Null);
        assert_eq!(arr[3].as_f64(), Some(-150.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1} x"#).is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        let objects = r#"{"a":"#.repeat(MAX_DEPTH + 1);
        assert!(parse(&format!("{objects}1{}", "}".repeat(MAX_DEPTH + 1))).is_err());
    }

    #[test]
    fn hostile_depth_is_an_error_not_a_stack_overflow() {
        // Half a million `[` on a thread with the default (2 MiB) stack:
        // unbounded recursion aborts the process here, the cap returns Err.
        let body = "[".repeat(500_000);
        let r = std::thread::spawn(move || parse(&body).is_err())
            .join()
            .expect("parser thread must not die");
        assert!(r);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for x in [0.1f32, -3.25e-7, 1.0 / 3.0, f32::MIN_POSITIVE, 12345.678] {
            let enc = f32_to_json(x);
            let back: f32 = enc.parse().unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{enc}");
        }
    }

    #[test]
    fn writer_keeps_order_and_compact_bytes() {
        let doc = Obj::new()
            .field("z", 1u64)
            .field("a", vec![0.5, f64::NAN, f64::INFINITY])
            .field("s", "x\"y")
            .field("m", Obj::new().field("ok", true))
            .field("e", Obj::new())
            .field("v", vec![vec![1u32, 2], vec![]])
            .field("big", u64::MAX)
            .finish();
        assert_eq!(
            doc,
            r#"{"z":1,"a":[0.5,null,null],"s":"x\"y","m":{"ok":true},"e":{},"v":[[1,2],[]],"big":18446744073709551615}"#
        );
    }

    #[test]
    fn quote_escapes() {
        assert_eq!(quote("a\"b\\c\n"), r#""a\"b\\c\n""#);
    }

    #[test]
    fn as_usize_rejects_fractions_and_negatives() {
        assert_eq!(parse("1.5").unwrap().as_usize(), None);
        assert_eq!(parse("-2").unwrap().as_usize(), None);
        assert_eq!(parse("42").unwrap().as_usize(), Some(42));
    }
}
