//! Offline stand-in for `serde_json`: renders the `serde` shim's value
//! tree as JSON text and parses it back. Covers `to_string`,
//! `to_string_pretty`, `from_str` and `from_value`, which is the surface
//! this workspace uses. Non-finite floats are emitted as bare `inf` /
//! `-inf` / `NaN` tokens (invalid strict JSON, but round-trippable by this
//! parser).

use serde::{Deserialize, Error, Serialize};
use std::fmt::Write as _;

pub use serde::Value;

/// Serialize a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize a value to 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Deserialize a value from JSON text. `from_str::<Value>` returns the
/// parsed tree itself, for callers that inspect it before deserializing.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    T::from_owned_value(parse(s)?)
}

/// Deserialize a value from an already parsed tree.
pub fn from_value<T: Deserialize>(v: Value) -> Result<T, Error> {
    T::from_owned_value(v)
}

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so without a cap a body of a few hundred thousand `[` would
/// overflow the thread's stack and abort the whole process; past the cap
/// parsing fails with an ordinary [`Error`] instead.
const MAX_DEPTH: usize = 128;

fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom("trailing characters after JSON value"));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

// Numbers are formatted straight into `out`: writing to a `String`
// cannot fail, so the `fmt::Result`s below are discarded.
fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(f) => {
            if f.is_nan() {
                out.push_str("NaN");
            } else if f.is_infinite() {
                out.push_str(if *f > 0.0 { "inf" } else { "-inf" });
            } else {
                // `{:?}` is Rust's shortest round-trip float rendering.
                let _ = write!(out, "{f:?}");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            if !entries.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
}

fn write_string(out: &mut String, s: &str) {
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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!("expected `{}` at byte {}", b as char, self.pos)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(Error::custom("unexpected end of input")),
            Some(b'n') => {
                if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::custom("invalid token"))
                }
            }
            Some(b't') => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::custom("invalid token"))
                }
            }
            Some(b'f') => {
                if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::custom("invalid token"))
                }
            }
            Some(b'N') => {
                if self.eat_keyword("NaN") {
                    Ok(Value::F64(f64::NAN))
                } else {
                    Err(Error::custom("invalid token"))
                }
            }
            Some(b'i') => {
                if self.eat_keyword("inf") {
                    Ok(Value::F64(f64::INFINITY))
                } else {
                    Err(Error::custom("invalid token"))
                }
            }
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_seq),
            Some(b'{') => self.nested(Self::parse_map),
            Some(_) => self.parse_number(),
        }
    }

    /// Parse one array or object level with `parse`, failing instead of
    /// recursing past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn parse_seq(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error::custom("expected `,` or `]`")),
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::custom("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).map_err(Error::custom)?);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| Error::custom("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: a `\uXXXX` low surrogate
                                // must follow; combine the pair.
                                if self.bytes.get(self.pos..self.pos + 2) != Some(br"\u") {
                                    return Err(Error::custom("unpaired surrogate escape"));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(Error::custom("invalid low surrogate escape"));
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("bad unicode escape"))?,
                            );
                        }
                        _ => return Err(Error::custom("unknown escape")),
                    }
                }
                _ => return Err(Error::custom("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::custom("bad \\u escape"))?;
        let code = u32::from_str_radix(std::str::from_utf8(hex).map_err(Error::custom)?, 16)
            .map_err(Error::custom)?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
            if self.eat_keyword("inf") {
                return Ok(Value::F64(f64::NEG_INFINITY));
            }
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(Error::custom)?;
        if text.is_empty() || text == "-" {
            return Err(Error::custom(format!("invalid number at byte {start}")));
        }
        if is_float {
            text.parse::<f64>().map(Value::F64).map_err(Error::custom)
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Value::I64).map_err(Error::custom)
        } else {
            text.parse::<u64>().map(Value::U64).map_err(Error::custom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(
            to_string(&(u64::MAX, i64::MIN)).unwrap(),
            format!("[{},{}]", u64::MAX, i64::MIN)
        );
        assert_eq!(to_string(&"\u{1}").unwrap(), "\"\\u0001\"");
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(from_str::<i32>("-7").unwrap(), -7);
        assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        assert_eq!(from_str::<f64>("1.5e3").unwrap(), 1500.0);
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
        assert_eq!(from_str::<String>(r#""😀""#).unwrap(), "\u{1F600}");
        assert_eq!(from_str::<String>(r#""\ud83d\ude00""#).unwrap(), "\u{1F600}");
        assert!(from_str::<String>(r#""\ud83d""#).is_err());
    }

    #[test]
    fn seq_and_map_roundtrip() {
        let v = vec![1u32, 2, 3];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>(&s).unwrap(), v);

        let mut m = std::collections::HashMap::new();
        m.insert("k".to_string(), 9u64);
        let s = to_string(&m).unwrap();
        assert_eq!(from_str::<std::collections::HashMap<String, u64>>(&s).unwrap(), m);
    }

    #[test]
    fn parsed_tree_deserializes_through_from_value() {
        let tree: Value = from_str(r#"{"v":[1,2],"x":null}"#).unwrap();
        let v = tree.as_map().and_then(|m| m.first()).map(|(_, v)| v.clone()).unwrap();
        assert_eq!(from_value::<Vec<u32>>(v).unwrap(), vec![1, 2]);
        assert_eq!(from_value::<Value>(tree.clone()).unwrap(), tree);
    }

    #[test]
    fn float_shortest_roundtrip() {
        let x = 0.1f32;
        let s = to_string(&x).unwrap();
        assert_eq!(from_str::<f32>(&s).unwrap(), x);
        // Floats render as `{:?}`, Rust's shortest round-trip form.
        let floats = [0.1f64, -0.0, 1e-7, 1.5e300, x as f64];
        let debug: Vec<String> = floats.iter().map(|f| format!("{f:?}")).collect();
        assert_eq!(to_string(&floats.to_vec()).unwrap(), format!("[{}]", debug.join(",")));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        // `levels` array-in-object pairs around a scalar: 2 * levels deep.
        let pairs =
            |levels: usize| format!("{}0{}", "[{\"k\":".repeat(levels), "}]".repeat(levels));
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&pairs(MAX_DEPTH / 2)).is_ok());
        let err = parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        assert!(parse(&format!("[{}]", pairs(MAX_DEPTH / 2))).is_err());
        // The body that used to overflow the stack and abort the process.
        assert!(from_str::<u32>(&"[".repeat(400_000)).is_err());
    }

    #[test]
    fn pretty_is_parseable() {
        let v = vec![vec![1u32], vec![2, 3]];
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains('\n'));
        assert_eq!(from_str::<Vec<Vec<u32>>>(&s).unwrap(), v);
    }
}
