//! A minimal, dependency-free JSON parser for the crowdkit stream formats.
//!
//! The workspace is offline (no serde), and every JSON this crate consumes
//! is produced by crowdkit's own writers, so the parser is small but
//! *strict*: any malformed input is an error with a byte column, which the
//! stream loader upgrades to a line number.
//!
//! Two representation choices matter for correctness:
//!
//! * **Numbers keep their lexeme.** [`Json::Num`] stores the exact source
//!   text (`"0.30000000000000004"`, `"-0"`), so re-serializing a parsed
//!   stream is byte-identical regardless of float formatting subtleties.
//!   Numeric comparisons go through [`Json::as_f64`].
//! * **Objects keep insertion order.** Members live in a `Vec`, never a
//!   hash map, so serialization order is the source order (and hash-order
//!   nondeterminism — the workspace's DET001 bug class — cannot arise).

use std::fmt;
use std::fmt::Write as _;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its exact source lexeme.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, members in source order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// The value as `f64`: numbers parse their lexeme, everything else is
    /// `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u64` (numbers with an exact non-negative integer
    /// lexeme only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as `i64` (numbers with an exact integer lexeme only;
    /// gauge readings may be negative).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as `&str`, for string values.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object member lookup (objects only; first match).
    pub fn get(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serializes the value, preserving member order and number lexemes:
    /// `parse(s).write() == s` for any compact (whitespace-free) input.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(lexeme) => out.push_str(lexeme),
            Json::Str(s) => write_json_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (name, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(name, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The serialized form as a fresh `String`.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

/// Escapes and writes one JSON string literal, mirroring the obs writer's
/// escape set so round-trips through [`Json`] are byte-exact.
pub fn write_json_string(s: &str, out: &mut String) {
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

/// A parse failure at a 1-based byte column of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based byte offset into the parsed text.
    pub col: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "col {}: {}", self.col, self.message)
    }
}

/// Parses one complete JSON value from `text`, requiring the whole input
/// (modulo surrounding whitespace) to be consumed.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            col: (self.pos + 1) as u32,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let name = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((name, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates and other invalid scalars become
                            // the replacement character; the obs writer
                            // never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(self.error(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    if let Ok(s) = std::str::from_utf8(&self.bytes[start..self.pos]) {
                        out.push_str(s);
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.error("expected digits in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.error("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("expected digits in exponent"));
            }
        }
        // The scanned range is ASCII by construction.
        let lexeme = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("non-ASCII bytes in number"))?;
        Ok(Json::Num(lexeme.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_event_shaped_objects() {
        let v = parse("{\"key\":\"platform.batch\",\"sim\":12.5,\"requests\":40}").unwrap();
        assert_eq!(v.get("key").and_then(Json::as_str), Some("platform.batch"));
        assert_eq!(v.get("sim").and_then(|j| j.as_f64()), Some(12.5));
        assert_eq!(v.get("requests").and_then(Json::as_u64), Some(40));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn roundtrips_compact_json_byte_exactly() {
        for src in [
            "{\"key\":\"k\",\"sim\":1,\"n\":2}",
            "{\"a\":-0.5,\"b\":\"x\\\"y\\\\z\",\"c\":null,\"d\":[1,2.25,\"s\"]}",
            "{\"nested\":{\"x\":{},\"y\":[]},\"t\":true,\"f\":false}",
            "{\"weird\":-0,\"tiny\":0.30000000000000004,\"exp\":1e3}",
            "{}",
        ] {
            let v = parse(src).unwrap();
            assert_eq!(v.to_string_compact(), src, "round-trip of {src}");
        }
    }

    #[test]
    fn strict_errors_carry_columns() {
        let e = parse("{\"a\":}").unwrap_err();
        assert_eq!(e.col, 6);
        let e = parse("{\"a\":1} extra").unwrap_err();
        assert!(e.message.contains("trailing"));
        let e = parse("{\"a\" 1}").unwrap_err();
        assert!(e.message.contains("':'"));
        assert!(parse("").is_err());
        assert!(parse("{\"a\":01x}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\":nul}").is_err());
    }

    #[test]
    fn escapes_roundtrip_through_unescape() {
        let v = parse("{\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}").unwrap();
        assert_eq!(
            v.get("s").and_then(Json::as_str),
            Some("a\"b\\c\nd\te\u{1}f")
        );
        assert_eq!(
            v.to_string_compact(),
            "{\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}"
        );
    }

    #[test]
    fn number_lexemes_are_preserved_verbatim() {
        for n in ["-0", "1e3", "1E-2", "123456789012345678901234567890", "0.1"] {
            let v = parse(n).unwrap();
            assert_eq!(v.to_string_compact(), n);
        }
    }
}
