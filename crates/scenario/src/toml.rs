//! Minimal TOML serialization for scenario specs.
//!
//! The offline container has no `toml` crate, so this module prints and
//! parses the shim `serde::Value` tree (the same interchange format
//! `serde_json` uses) as a well-defined TOML subset:
//!
//! * tables and nested tables (`[a]`, `[a.b]`) — one per object-valued key;
//! * `key = value` pairs with strings, integers, floats, booleans,
//!   single-line arrays (possibly nested / mixed) and inline tables;
//! * comments (`#`) and blank lines on input.
//!
//! The emitter only produces this subset, so anything written by
//! [`to_toml_string`] parses back with [`from_toml_str`] to a value tree
//! with the same keys and values — *name-keyed* equality, which is what
//! derived deserialization (field lookup by name) observes and what the
//! spec round-trip tests pin. Entry *order* is not preserved when a
//! scalar key follows a table-valued key: TOML requires scalars to
//! precede sub-table headers, so the emitter hoists them. Type fidelity
//! follows TOML's own rules: floats always carry a decimal point or
//! exponent, so integers and floats never collapse into each other.
//!
//! Not supported (rejected honestly, never silently misread): multi-line
//! arrays and strings, dotted keys, arrays-of-tables headers (`[[x]]`),
//! dates. `null` cannot be represented; specs are null-free by design.

use serde::{Deserialize, Error, Serialize, Value};
use std::fmt::Write as _;

/// How deeply tables, arrays and inline tables may nest, counting a table
/// header's path. The value parser recurses once per level, so this bounds
/// its stack: deeper input is an error, not a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Serializes `value` as a TOML document. The top level must serialize to
/// an object, and no reachable value may be `null`.
pub fn to_toml_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let tree = value.to_value();
    let Value::Object(_) = &tree else {
        return Err(Error::custom(
            "TOML documents must be objects at the top level",
        ));
    };
    let mut out = String::new();
    emit_table(&mut out, &tree, &mut Vec::new())?;
    Ok(out)
}

/// Deserializes a value from a TOML document.
pub fn from_toml_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    let tree = parse_document(input)?;
    T::from_value(&tree)
}

// ---------------------------------------------------------------- emitter

fn emit_table(out: &mut String, table: &Value, path: &mut Vec<String>) -> Result<(), Error> {
    let entries = table.as_object().expect("caller passes objects only");
    // Scalar / array / inline entries first: TOML assigns them to the most
    // recent table header, so they must precede any subsection.
    for (key, value) in entries {
        if !matches!(value, Value::Object(_)) {
            out.push_str(&format_key(key));
            out.push_str(" = ");
            emit_inline(out, value)?;
            out.push('\n');
        }
    }
    for (key, value) in entries {
        if let Value::Object(_) = value {
            path.push(key.clone());
            if !out.is_empty() {
                out.push('\n');
            }
            out.push('[');
            let rendered: Vec<String> = path.iter().map(|p| format_key(p)).collect();
            out.push_str(&rendered.join("."));
            out.push_str("]\n");
            emit_table(out, value, path)?;
            path.pop();
        }
    }
    Ok(())
}

fn emit_inline(out: &mut String, value: &Value) -> Result<(), Error> {
    match value {
        Value::Null => Err(Error::custom("TOML cannot represent null")),
        Value::Bool(b) => {
            out.push_str(if *b { "true" } else { "false" });
            Ok(())
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
            Ok(())
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
            Ok(())
        }
        Value::Float(f) => {
            if !f.is_finite() {
                return Err(Error::custom("TOML cannot represent a non-finite float"));
            }
            // `{:?}` keeps a decimal point on integral floats (`2.0`), so
            // the parser reads the value back as a float — type fidelity.
            let _ = write!(out, "{f:?}");
            Ok(())
        }
        Value::Str(s) => {
            emit_string(out, s);
            Ok(())
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                emit_inline(out, item)?;
            }
            out.push(']');
            Ok(())
        }
        Value::Object(entries) => {
            // Inline table: `{a = 1, b = "x"}` — used for objects nested
            // inside arrays, where a `[section]` header cannot reach.
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format_key(key));
                out.push_str(" = ");
                emit_inline(out, item)?;
            }
            out.push('}');
            Ok(())
        }
    }
}

fn format_key(key: &str) -> String {
    let bare = !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if bare {
        key.to_string()
    } else {
        let mut out = String::new();
        emit_string(&mut out, key);
        out
    }
}

fn emit_string(out: &mut String, s: &str) {
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

// ----------------------------------------------------------------- parser

fn parse_document(input: &str) -> Result<Value, Error> {
    let mut root = Value::Object(Vec::new());
    let mut current_path: Vec<String> = Vec::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = strip_comment(raw);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: &str| Error::custom(format!("TOML line {}: {msg}", lineno + 1));
        if let Some(header) = line.strip_prefix('[') {
            if header.starts_with('[') {
                return Err(at("arrays of tables (`[[...]]`) are not supported"));
            }
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| at("unterminated table header"))?;
            current_path = parse_header_path(header).map_err(|e| at(&e))?;
            if current_path.len() > MAX_DEPTH {
                return Err(at(&format!("nesting deeper than {MAX_DEPTH} levels")));
            }
            // Ensure the table exists (empty tables are meaningful).
            navigate(&mut root, &current_path).map_err(|e| at(&e))?;
            continue;
        }
        let eq = find_top_level_eq(line).ok_or_else(|| at("expected `key = value`"))?;
        let (key_text, value_text) = (line[..eq].trim(), line[eq + 1..].trim());
        let key = parse_key(key_text).map_err(|e| at(&e))?;
        let mut cursor = Cursor::new(value_text);
        cursor.depth = current_path.len();
        let value = cursor.parse_value().map_err(|e| at(&e))?;
        cursor.skip_ws();
        if !cursor.at_end() {
            return Err(at("trailing characters after value"));
        }
        let table = navigate(&mut root, &current_path).map_err(|e| at(&e))?;
        let Value::Object(entries) = table else {
            return Err(at("key assigned inside a non-table"));
        };
        if entries.iter().any(|(k, _)| *k == key) {
            return Err(at(&format!("duplicate key `{key}`")));
        }
        entries.push((key, value));
    }
    Ok(root)
}

/// Strip a `#` comment that is not inside a basic string.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// Find the first `=` outside of strings (keys may be quoted).
fn find_top_level_eq(line: &str) -> Option<usize> {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '=' if !in_string => return Some(i),
            _ => {}
        }
        escaped = false;
    }
    None
}

fn parse_key(text: &str) -> Result<String, String> {
    if text.starts_with('"') {
        let mut cursor = Cursor::new(text);
        let v = cursor.parse_value()?;
        cursor.skip_ws();
        if !cursor.at_end() {
            return Err("dotted keys are not supported".to_string());
        }
        match v {
            Value::Str(s) => Ok(s),
            _ => Err("expected a string key".to_string()),
        }
    } else if !text.is_empty()
        && text
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        Ok(text.to_string())
    } else {
        Err(format!(
            "invalid key `{text}` (dotted keys are not supported)"
        ))
    }
}

fn parse_header_path(header: &str) -> Result<Vec<String>, String> {
    header
        .split('.')
        .map(|part| parse_key(part.trim()))
        .collect()
}

/// Walk (creating as needed) to the object at `path`.
fn navigate<'a>(root: &'a mut Value, path: &[String]) -> Result<&'a mut Value, String> {
    let mut node = root;
    for part in path {
        let Value::Object(entries) = node else {
            return Err(format!("`{part}` is not a table"));
        };
        let index = match entries.iter().position(|(k, _)| k == part) {
            Some(i) => i,
            None => {
                entries.push((part.clone(), Value::Object(Vec::new())));
                entries.len() - 1
            }
        };
        node = &mut entries[index].1;
    }
    Ok(node)
}

/// Single-line TOML value parser (strings, numbers, bools, arrays, inline
/// tables).
struct Cursor<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Tables and arrays enclosing the value being parsed.
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_inline_table),
            Some(b't') | Some(b'f') => self.parse_bool(),
            Some(b'-' | b'+' | b'0'..=b'9') => self.parse_number(),
            other => Err(format!("unexpected value start: {other:?}")),
        }
    }

    /// Parse one array or inline table, one level deeper than the caller.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_bool(&mut self) -> Result<Value, String> {
        for (word, value) in [("true", true), ("false", false)] {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(Value::Bool(value));
            }
        }
        Err("invalid literal (expected true/false)".to_string())
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        }
                        other => return Err(format!("invalid escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // `start` is a char boundary of the line: decode the one
                    // character there.
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

    fn parse_array(&mut self) -> Result<Value, String> {
        self.pos += 1; // `[`
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err("expected `,` or `]` in array".to_string()),
            }
        }
    }

    fn parse_inline_table(&mut self) -> Result<Value, String> {
        self.pos += 1; // `{`
        let mut entries: Vec<(String, Value)> = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(entries));
            }
            // Key: bare or quoted.
            let key = if self.peek() == Some(b'"') {
                self.parse_string()?
            } else {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b'-')
                ) {
                    self.pos += 1;
                }
                if self.pos == start {
                    return Err("expected a key in inline table".to_string());
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| e.to_string())?
                    .to_string()
            };
            self.skip_ws();
            if self.peek() != Some(b'=') {
                return Err("expected `=` in inline table".to_string());
            }
            self.pos += 1;
            let value = self.parse_value()?;
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key `{key}` in inline table"));
            }
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err("expected `,` or `}` in inline table".to_string()),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if matches!(self.peek(), Some(b'-' | b'+')) {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'_' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                b'-' | b'+' if is_float => self.pos += 1, // exponent sign
                _ => break,
            }
        }
        let text: String = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .chars()
            .filter(|&c| c != '_' && c != '+')
            .collect();
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| e.to_string())
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|e| e.to_string())
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|e| e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value: &Value) -> Value {
        struct Raw(Value);
        impl Serialize for Raw {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        struct RawDe(Value);
        impl Deserialize for RawDe {
            fn from_value(value: &Value) -> Result<Self, Error> {
                Ok(RawDe(value.clone()))
            }
        }
        let text = to_toml_string(&Raw(value.clone())).expect("serializable");
        let back: RawDe = from_toml_str(&text).expect("parseable");
        back.0
    }

    fn obj(entries: Vec<(&str, Value)>) -> Value {
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    #[test]
    fn scalars_arrays_and_nested_tables_round_trip() {
        let v = obj(vec![
            ("count", Value::UInt(42)),
            ("delta", Value::Int(-7)),
            ("rate", Value::Float(2.0)),
            ("label", Value::Str("hello \"world\"\n".to_string())),
            ("on", Value::Bool(true)),
            (
                "list",
                Value::Array(vec![Value::UInt(1), Value::UInt(2), Value::UInt(3)]),
            ),
            (
                "mixed",
                Value::Array(vec![Value::Str("skew".into()), Value::Float(0.8)]),
            ),
            ("empty", Value::Array(vec![])),
            (
                "nested",
                obj(vec![
                    ("inner", Value::UInt(1)),
                    ("deeper", obj(vec![("x", Value::Float(1.5))])),
                ]),
            ),
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn float_and_integer_types_stay_distinct() {
        let v = obj(vec![
            ("int", Value::UInt(2)),
            ("float", Value::Float(2.0)),
            ("neg", Value::Int(-2)),
        ]);
        let text = to_toml_string(&{
            struct Raw(Value);
            impl Serialize for Raw {
                fn to_value(&self) -> Value {
                    self.0.clone()
                }
            }
            Raw(v.clone())
        })
        .unwrap();
        assert!(text.contains("float = 2.0"), "{text}");
        assert!(text.contains("int = 2\n"), "{text}");
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn objects_inside_arrays_use_inline_tables() {
        let v = obj(vec![(
            "points",
            Value::Array(vec![
                obj(vec![("x", Value::UInt(1)), ("y", Value::UInt(2))]),
                obj(vec![("x", Value::UInt(3)), ("y", Value::UInt(4))]),
            ]),
        )]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn comments_whitespace_and_quoted_keys_parse() {
        let text = r#"
# a comment
title = "spec # not a comment" # trailing comment
"weird key" = 1

[section]
value = true
"#;
        struct RawDe(Value);
        impl Deserialize for RawDe {
            fn from_value(value: &Value) -> Result<Self, Error> {
                Ok(RawDe(value.clone()))
            }
        }
        let parsed: RawDe = from_toml_str(text).unwrap();
        let Value::Object(entries) = parsed.0 else {
            panic!("expected object")
        };
        assert_eq!(entries[0].0, "title");
        assert_eq!(entries[0].1, Value::Str("spec # not a comment".into()));
        assert_eq!(entries[1].0, "weird key");
        assert_eq!(
            entries[2].1,
            Value::Object(vec![("value".into(), Value::Bool(true))])
        );
    }

    #[test]
    fn a_long_non_ascii_string_parses_in_linear_time() {
        // 1 MiB of two-byte characters: re-validating the rest of the line
        // per character would take minutes.
        let body = "é".repeat(512 * 1024);
        let doc = parse_document(&format!("name = \"{body}\"")).unwrap();
        assert_eq!(doc, obj(vec![("name", Value::Str(body))]));
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let array = |depth: usize| format!("x = {}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_document(&array(MAX_DEPTH)).is_ok());
        let err = parse_document(&array(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        let inline =
            |depth: usize| format!("x = {}1{}", "{ a = ".repeat(depth), " }".repeat(depth));
        assert!(parse_document(&inline(MAX_DEPTH)).is_ok());
        assert!(parse_document(&inline(MAX_DEPTH + 1)).is_err());
        // A header path counts toward the limit, alone or with a value.
        let header = |depth: usize| format!("[{}]", vec!["t"; depth].join("."));
        assert!(parse_document(&header(MAX_DEPTH)).is_ok());
        assert!(parse_document(&header(MAX_DEPTH + 1)).is_err());
        assert!(parse_document(&format!("{}\nx = 1", header(MAX_DEPTH))).is_ok());
        assert!(parse_document(&format!("{}\nx = []", header(MAX_DEPTH))).is_err());
        // Far past the limit the parser stops at the limit.
        assert!(parse_document(&format!("x = {}", "[".repeat(1_000_000))).is_err());
    }

    #[test]
    fn honest_rejections() {
        assert!(from_toml_str::<f64>("= 1").is_err());
        struct RawDe;
        impl Deserialize for RawDe {
            fn from_value(_: &Value) -> Result<Self, Error> {
                Ok(RawDe)
            }
        }
        assert!(from_toml_str::<RawDe>("[[tables]]\nx = 1").is_err());
        assert!(from_toml_str::<RawDe>("x = 1\nx = 2").is_err());
        assert!(from_toml_str::<RawDe>("x = [1, ").is_err());
        // Null is unrepresentable on the way out.
        struct Raw(Value);
        impl Serialize for Raw {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        let v = Value::Object(vec![("x".to_string(), Value::Null)]);
        assert!(to_toml_string(&Raw(v)).is_err());
        // Top level must be a table.
        assert!(to_toml_string(&42u64).is_err());
    }
}
