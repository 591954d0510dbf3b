//! Offline shim for the `serde_json` crate (see `shims/README.md`).
//!
//! Renders the `serde` shim's [`Value`] tree to JSON text ([`to_string`]),
//! parses JSON text back into a [`Value`] tree ([`from_str`] — used by
//! `e2e_bench` to read `BENCHMARK.json` and its own per-run JSON lines),
//! and provides a [`json!`] macro covering the object/array/expression
//! forms the bench binaries use.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt::Write as _;

pub use serde::Value;

/// Serialization error. The shim's writer is infallible, so this is only
/// here to keep `serde_json::to_string` signatures source-compatible.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Converts any [`serde::Serialize`] value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Renders `value` as compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value());
    Ok(out)
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // Ryu-style shortest output isn't available; `{}` on f64 is
                // already shortest-roundtrip in Rust.
                let _ = write!(out, "{f}");
            } else {
                // Real serde_json maps non-finite floats to null.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Parses JSON text into a [`Value`] tree.
///
/// Covers the full JSON grammar (nested objects/arrays, escape sequences
/// including `\uXXXX` surrogate pairs, exponent-form numbers). Integers
/// land in `Value::Int`/`Value::UInt` exactly; everything else numeric
/// becomes `Value::Float`. Trailing garbage after the document is an
/// error, matching real `serde_json`.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON document"));
    }
    Ok(v)
}

/// Recursion guard: real serde_json defaults to 128 nesting levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), Error> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        match self.peek() {
            Some(b'{') => {
                self.depth += 1;
                let v = self.object();
                self.depth -= 1;
                v
            }
            Some(b'[') => {
                self.depth += 1;
                let v = self.array();
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a low surrogate must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let ch = s.chars().next().expect("non-empty by peek");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(self.err("expected digits"));
        }
        // Leading zeros are invalid JSON ("01"), but a lone "0" is fine.
        if self.bytes[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(Error(format!("leading zero at byte {int_start}")));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits are valid utf-8");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error(format!("invalid number at byte {start}")))
    }
}

/// Builds a [`Value`] from JSON-ish syntax: `json!({"k": expr, ...})`,
/// `json!([expr, ...])`, `json!(null)` or `json!(expr)`. Values are
/// arbitrary expressions implementing `serde::Serialize` (nest objects via
/// inner `json!` calls).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:tt : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( (($key).to_string(), $crate::to_value(&$val)) ),*
        ])
    };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$item) ),* ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_json() {
        let v = json!({
            "name": "corra",
            "saving": 0.583,
            "rows": 59_986_052usize,
            "tags": vec!["a", "b"],
            "nested": json!({"x": 1i64}),
        });
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"name":"corra","saving":0.583,"rows":59986052,"tags":["a","b"],"nested":{"x":1}}"#
        );
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(
            to_string(&"a\"b\\c\n\u{1}").unwrap(),
            "\"a\\\"b\\\\c\\n\\u0001\""
        );
    }

    #[test]
    fn non_finite_floats_are_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }

    #[test]
    fn array_and_expr_forms() {
        assert_eq!(to_string(&json!([1i64, 2i64])).unwrap(), "[1,2]");
        assert_eq!(to_string(&json!(null)).unwrap(), "null");
        assert_eq!(to_string(&json!(3.5f64)).unwrap(), "3.5");
    }

    #[test]
    fn parse_round_trips_the_bench_doc_shape() {
        let v = json!({
            "bench": "serve",
            "quick": true,
            "none": json!(null),
            "series": vec![
                json!({"name": "cold", "p99_us": 12.5, "bytes": 1048576u64}),
            ],
        });
        let text = to_string(&v).unwrap();
        let parsed = from_str(&text).unwrap();
        assert_eq!(parsed, v);
        let p99 = parsed.get("series").unwrap().as_array().unwrap()[0]
            .get("p99_us")
            .and_then(Value::as_f64);
        assert_eq!(p99, Some(12.5));
    }

    #[test]
    fn parse_scalars_whitespace_and_nesting() {
        assert_eq!(from_str(" null ").unwrap(), Value::Null);
        assert_eq!(from_str("true").unwrap(), Value::Bool(true));
        assert_eq!(from_str("-42").unwrap(), Value::Int(-42));
        assert_eq!(from_str("0").unwrap(), Value::Int(0));
        assert_eq!(
            from_str("18446744073709551615").unwrap(),
            Value::UInt(u64::MAX)
        );
        assert_eq!(from_str("1e3").unwrap(), Value::Float(1e3));
        assert_eq!(from_str("-2.5E-2").unwrap(), Value::Float(-0.025));
        assert_eq!(
            from_str("[ [1, 2] , {\"a\" : [] } ]").unwrap(),
            Value::Array(vec![
                Value::Array(vec![Value::Int(1), Value::Int(2)]),
                Value::Object(vec![("a".into(), Value::Array(vec![]))]),
            ])
        );
        assert_eq!(from_str("{}").unwrap(), Value::Object(vec![]));
    }

    #[test]
    fn parse_string_escapes() {
        assert_eq!(
            from_str(r#""a\"b\\c\n\t\u0041\u00e9""#).unwrap(),
            Value::Str("a\"b\\c\n\tA\u{e9}".into())
        );
        // Surrogate pair for U+1F600.
        assert_eq!(
            from_str(r#""\ud83d\ude00""#).unwrap(),
            Value::Str("\u{1F600}".into())
        );
        assert_eq!(from_str("\"héllo\"").unwrap(), Value::Str("héllo".into()));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "01",
            "1.",
            "1e",
            "tru",
            "\"\\q\"",
            "\"\\ud800x\"",
            "nullx",
            "[1]]",
            "+1",
            "\"unterminated",
        ] {
            assert!(from_str(bad).is_err(), "accepted malformed input: {bad:?}");
        }
    }
}
