//! Offline stand-in for the crates.io `serde_json` crate.
//!
//! Prints and parses the shim `serde::Value` tree (see `shims/serde`) as
//! JSON. `to_string_pretty` matches serde_json's layout (two-space indent)
//! so downstream tooling that consumes the experiment binaries' output does
//! not care which implementation produced it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

pub use serde::Error;
use serde::{Deserialize, Serialize, Value};

/// Converts any serializable value to the intermediate [`Value`] tree.
pub fn to_value<T: Serialize>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0)?;
    Ok(out)
}

/// Serializes `value` to a pretty JSON string (two-space indent).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0)?;
    Ok(out)
}

/// How deeply arrays and objects may nest (serde_json's default recursion
/// limit). The parser recurses once per level, so this bounds its stack:
/// deeper input is an error, not a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Deserializes a value from a JSON string.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    T::from_value(&parse(input)?)
}

/// Parses one JSON document into a [`Value`] tree.
fn parse(input: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::custom("trailing characters after JSON value"));
    }
    Ok(value)
}

fn write_value(
    out: &mut String,
    value: &Value,
    indent: Option<usize>,
    depth: usize,
) -> Result<(), Error> {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            if !f.is_finite() {
                return Err(Error::custom("JSON cannot represent a non-finite float"));
            }
            // `{:?}` keeps a decimal point on integral floats (`1.0`), like
            // serde_json, and round-trips exactly.
            let _ = write!(out, "{f:?}");
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
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

/// Minimal recursive-descent JSON parser producing a [`Value`] tree.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(Error::custom(format!(
                "unexpected input at byte {}: {other:?}",
                self.pos
            ))),
        }
    }

    /// Parse one array or object, one level deeper than the caller.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::custom(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| Error::custom("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::custom("unterminated escape"))?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(Error::custom)?,
                                16,
                            )
                            .map_err(Error::custom)?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for this
                            // workspace's identifiers; reject them honestly.
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error::custom("invalid \\u escape"))?;
                            out.push(c);
                        }
                        other => {
                            return Err(Error::custom(format!(
                                "invalid escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // `start` is a char boundary of the input: decode the
                    // one character there.
                    let start = self.pos - 1;
                    let c = self.text[start..]
                        .chars()
                        .next()
                        .expect("non-empty by construction");
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::custom("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error::custom("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
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
        if is_float {
            text.parse::<f64>().map(Value::Float).map_err(Error::custom)
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Value::Int).map_err(Error::custom)
        } else {
            text.parse::<u64>().map(Value::UInt).map_err(Error::custom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(to_string(&42usize).unwrap(), "42");
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(
            to_string(&"a \"b\"\n".to_string()).unwrap(),
            "\"a \\\"b\\\"\\n\""
        );
        assert_eq!(from_str::<usize>("42").unwrap(), 42);
        assert_eq!(from_str::<i64>("-7").unwrap(), -7);
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(
            from_str::<String>("\"a \\\"b\\\"\\n\"").unwrap(),
            "a \"b\"\n"
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1usize, 2, 3];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1,2,3]");
        assert_eq!(from_str::<Vec<usize>>(&s).unwrap(), v);

        let pairs = vec![("a".to_string(), 1.25f64), ("b".to_string(), 2.0)];
        let s = to_string(&pairs).unwrap();
        assert_eq!(from_str::<Vec<(String, f64)>>(&s).unwrap(), pairs);
    }

    #[test]
    fn pretty_layout_matches_serde_json() {
        let v = vec![1usize, 2];
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1,\n  2\n]");
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        assert!(to_string(&f64::NAN).is_err());
        assert!(to_string(&f64::INFINITY).is_err());
    }

    #[test]
    fn a_long_non_ascii_string_parses_in_linear_time() {
        // 1 MiB of two-byte characters: re-validating the rest of the input
        // per character would take minutes.
        let body = "é".repeat(512 * 1024);
        let parsed = from_str::<String>(&format!("\"{body}\"")).unwrap();
        assert_eq!(parsed.len(), 1024 * 1024);
        assert_eq!(parsed, body);
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        let objects = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        // Far past the limit the parser stops at the limit, so input that
        // would overflow the stack is an ordinary error.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn unicode_and_whitespace() {
        let s = from_str::<String>("  \"héllo ☃\"  ").unwrap();
        assert_eq!(s, "héllo ☃");
        assert_eq!(from_str::<String>("\"\\u0041\"").unwrap(), "A");
        assert!(from_str::<String>("\"x\" junk").is_err());
    }
}
