#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # emd-json
//!
//! The workspace's JSON codec: the one [`Value`] tree, the one parser
//! ([`parse`]) and the one set of writers ([`write_escaped`],
//! [`write_number`], [`write_array`]). Everything the workspace reads or
//! writes as JSON goes through it — datasets and workloads (`flexemd
//! --data` files), HTTP request and response bodies, the metrics
//! snapshot, the experiment tables and the lint report.
//!
//! There is no serialization framework: each type that has a JSON form
//! owns a `to_json(&self, out: &mut String)` that appends text and a
//! `from_json(&Value)` that decodes through its validating constructor.
//! The crate has zero dependencies.
//!
//! The parser reads outside input, so it bounds nesting at
//! [`MAX_DEPTH`] and never panics; errors are plain strings with a byte
//! offset, which callers wrap into their own typed error together with
//! the file path or request they were reading.
//!
//! lint: allow(error-taxonomy, file): the parser's `Err(String)` sites are
//! internal diagnostics converted to a typed error (`IoError::Json`,
//! `ServeError::BadRequest`) at each caller's boundary; a
//! per-production error enum would add ~15 variants for zero caller benefit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep sorted order via `BTreeMap`;
/// no format the workspace reads has duplicate or order-sensitive keys
/// (a duplicate is a parse error).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, parsed as `f64`.
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Member `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.get(key)
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly: an
    /// integer is exact in an `f64` only below 2^53, so anything larger
    /// is refused rather than silently rounded.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;
        match self {
            Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n < MAX_EXACT_INT => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// Parse one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a human-readable message with a byte offset when `text` is
/// not a single well-formed JSON value.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        offset: 0,
    };
    parser.skip_whitespace();
    let value = parser.value(0)?;
    parser.skip_whitespace();
    if parser.offset != parser.bytes.len() {
        return Err(format!(
            "trailing characters after JSON value at byte {}",
            parser.offset
        ));
    }
    Ok(value)
}

/// Maximum nesting depth. The deepest format the workspace reads (a
/// dataset's `positions`) is 3 levels; the bound keeps pathological
/// input from overflowing the stack of the recursive descent.
pub const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let byte = self.peek()?;
        self.offset += 1;
        Some(byte)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.offset += 1;
        }
    }

    fn consume(&mut self, byte: u8) -> Result<(), String> {
        match self.bump() {
            Some(found) if found == byte => Ok(()),
            Some(found) => Err(format!(
                "expected `{}` at byte {}, found `{}`",
                byte as char,
                self.offset - 1,
                found as char
            )),
            None => Err(format!(
                "expected `{}` at byte {}, found end of input",
                byte as char, self.offset
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        let end = self.offset + word.len();
        // bounds: the `len() >= end` guard makes the slice in range.
        if self.bytes.len() >= end && &self.bytes[self.offset..end] == word.as_bytes() {
            self.offset = end;
            Ok(value)
        } else {
            Err(format!("expected `{word}` at byte {}", self.offset))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.offset
            ));
        }
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!(
                "unexpected character `{}` at byte {}",
                c as char, self.offset
            )),
            None => Err(format!("unexpected end of input at byte {}", self.offset)),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.offset += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => {
                    return Err(format!(
                        "expected `,` or `]` at byte {}",
                        self.offset.saturating_sub(1)
                    ))
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.consume(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.offset += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.consume(b':')?;
            let value = self.value(depth + 1)?;
            if map.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key `{key}`"));
            }
            self.skip_whitespace();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(map)),
                _ => {
                    return Err(format!(
                        "expected `,` or `}}` at byte {}",
                        self.offset.saturating_sub(1)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.offset;
            let byte = self
                .bump()
                .ok_or_else(|| format!("unterminated string at byte {start}"))?;
            match byte {
                b'"' => return Ok(out),
                b'\\' => {
                    let escape = self
                        .bump()
                        .ok_or_else(|| format!("unterminated escape at byte {start}"))?;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape(start)?),
                        other => {
                            return Err(format!(
                                "unknown escape `\\{}` at byte {start}",
                                other as char
                            ))
                        }
                    }
                }
                _ if byte < 0x20 => {
                    return Err(format!("raw control character in string at byte {start}"))
                }
                _ => {
                    // Recover the full UTF-8 scalar starting at `start`:
                    // continuation bytes follow the leading byte directly.
                    let mut end = self.offset;
                    while self
                        .bytes
                        .get(end)
                        .is_some_and(|b| b & 0b1100_0000 == 0b1000_0000)
                    {
                        end += 1;
                    }
                    // bounds: start < offset <= end <= len by construction.
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?;
                    out.push_str(chunk);
                    self.offset = end;
                }
            }
        }
    }

    /// The scalar named by a `\uXXXX` escape whose `\u` was just consumed
    /// (`start` is the offset of the backslash). A high surrogate must be
    /// followed by an escaped low surrogate, the pair naming one scalar
    /// beyond the basic plane; a lone or reversed surrogate is an error.
    fn unicode_escape(&mut self, start: usize) -> Result<char, String> {
        let high = u32::from(self.hex4()?);
        let code = if (0xD800..0xDC00).contains(&high) {
            let low = match (self.bump(), self.bump()) {
                (Some(b'\\'), Some(b'u')) => Some(u32::from(self.hex4()?)),
                _ => None,
            };
            let low = low
                .filter(|low| (0xDC00..0xE000).contains(low))
                .ok_or_else(|| {
                    format!("high surrogate {high:#06x} without a low one at byte {start}")
                })?;
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        char::from_u32(code)
            .ok_or_else(|| format!("lone low surrogate {code:#06x} at byte {start}"))
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let mut code: u16 = 0;
        for _ in 0..4 {
            let byte = self
                .bump()
                .ok_or_else(|| format!("unterminated \\u escape at byte {}", self.offset))?;
            let digit = (byte as char).to_digit(16).ok_or_else(|| {
                format!("bad hex digit in \\u escape at byte {}", self.offset - 1)
            })?;
            code = (code << 4) | digit as u16;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.offset;
        if self.peek() == Some(b'-') {
            self.offset += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.offset += 1;
        }
        // bounds: start <= offset <= len — the scan only advanced offset.
        let text = std::str::from_utf8(&self.bytes[start..self.offset])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        let value: f64 = text
            .parse()
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))?;
        Ok(Value::Number(value))
    }
}

/// Append `value` as a JSON number: `Display` for finite values (the
/// shortest text that parses back to the same bits, never an exponent),
/// `null` otherwise.
pub fn write_number(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// Append `items` as a compact JSON array, each element written by
/// `write_item`.
pub fn write_array<T>(out: &mut String, items: &[T], mut write_item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (index, item) in items.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        write_item(out, item);
    }
    out.push(']');
}

/// Append `text` as a JSON string literal (with quotes) to `out`.
pub fn write_escaped(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
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
