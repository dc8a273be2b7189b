//! Dependency-free JSON value, parser and writer.
//!
//! The workspace builds offline, so there is no serde to lean on; this is
//! a recursive-descent reader (also what `bga bench compare` reads scaling
//! documents with), plus a compact writer so [`crate::event::TraceEvent`]
//! lines round-trip through plain strings. Objects keep insertion order in
//! a flat pair list — trace lines are tiny, so linear key lookup is fine.

use std::fmt;

/// A parsed (or to-be-written) JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. JSON has only doubles; `u64` counters round-trip exactly
    /// up to 2^53, far beyond any tally this repo produces.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object as an insertion-ordered pair list.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing garbage at byte {}", parser.pos));
        }
        Ok(value)
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Builds a `Json::Object` from key/value pairs (writer-side convenience).
pub fn object(pairs: Vec<(&str, Json)>) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Wraps a `u64` counter as a JSON number.
pub fn num(value: u64) -> Json {
    Json::Number(value as f64)
}

impl fmt::Display for Json {
    /// Writes the compact (no-whitespace) serialization.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) => {
                // Integers print without a trailing ".0" so counter fields
                // look like counts, not measurements.
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::String(s) => write_escaped(f, s),
            Json::Array(items) => {
                write!(f, "[")?;
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Object(pairs) => {
                write!(f, "{{")?;
                for (index, (key, value)) in pairs.iter().enumerate() {
                    if index > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, key)?;
                    write!(f, ":{value}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for ch in s.chars() {
        match ch {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\t' => write!(f, "\\t")?,
            '\r' => write!(f, "\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// Recursive-descent JSON reader over raw bytes.
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_whitespace(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                byte as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| "non-ASCII \\u escape".to_string())?,
                                16,
                            )
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "invalid \\u code point".to_string())?,
                            );
                        }
                        other => {
                            return Err(format!("unknown escape '\\{}'", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (the bytes came from a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let ch = std::str::from_utf8(rest)
                        .map_err(|_| "invalid UTF-8 in string".to_string())?
                        .chars()
                        .next()
                        .unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
        }) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|e| format!("invalid number {text:?} at byte {start}: {e}"))
    }

    fn parse_literal(&mut self, literal: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(format!("expected {literal:?} at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_parser_round_trip() {
        let value = object(vec![
            ("type", Json::String("phase".to_string())),
            ("index", num(3)),
            ("ratio", Json::Number(1.5)),
            ("flag", Json::Bool(true)),
            ("bucket", Json::Null),
            ("claimed", Json::Array(vec![num(7), num(0)])),
        ]);
        let text = value.to_string();
        assert_eq!(Json::parse(&text).unwrap(), value);
        // Integers print as integers, not doubles.
        assert!(text.contains("\"index\":3"), "{text}");
        assert!(text.contains("\"ratio\":1.5"), "{text}");
    }

    #[test]
    fn escapes_round_trip() {
        let value = object(vec![(
            "s",
            Json::String("quote \" backslash \\ newline \n tab \t".to_string()),
        )]);
        assert_eq!(Json::parse(&value.to_string()).unwrap(), value);
    }

    #[test]
    fn accessors_extract_typed_payloads() {
        let value =
            Json::parse(r#"{"a": 4, "b": "x", "c": [1], "d": false, "e": 1.5, "f": -1.5e2}"#)
                .unwrap();
        assert_eq!(value.get("a").and_then(Json::as_u64), Some(4));
        assert_eq!(value.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(
            value.get("c").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(value.get("d").and_then(Json::as_bool), Some(false));
        // A fractional number is not a u64.
        assert_eq!(value.get("e").and_then(Json::as_u64), None);
        assert_eq!(value.get("e").and_then(Json::as_f64), Some(1.5));
        // Sign and exponent (the scaling documents' `time_ms` grammar).
        assert_eq!(value.get("f").and_then(Json::as_f64), Some(-150.0));
        assert_eq!(value.get("missing"), None);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("").is_err());
    }
}
