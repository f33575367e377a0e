//! A minimal, dependency-free JSON value: build, render, parse.
//!
//! The experiment and benchmark binaries emit machine-readable results
//! (`smt_exp --json`, `benchmark/`'s `results.json`); this module is the
//! shared serializer so every producer escapes strings and
//! formats numbers identically, and the parser lets consumers (and tests)
//! round-trip those documents without external crates.
//!
//! Only what the harness needs is implemented: objects preserve insertion
//! order, numbers are `f64`/`u64`/`i64`, non-finite floats render as
//! `null`, and the parser accepts exactly the JSON grammar (no comments,
//! no trailing commas).
//!
//! # Examples
//!
//! ```
//! use smt_stats::json::Json;
//!
//! let doc = Json::object([
//!     ("schema_version", Json::from(1u64)),
//!     ("ipc", Json::from(5.4)),
//!     ("scheme", Json::from("ICOUNT.2.8")),
//! ]);
//! let text = doc.render();
//! assert_eq!(text, r#"{"schema_version":1,"ipc":5.4,"scheme":"ICOUNT.2.8"}"#);
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("scheme").and_then(Json::as_str), Some("ICOUNT.2.8"));
//! ```

use std::fmt::{self, Write};

/// A JSON value. Objects keep their insertion order so rendered documents
/// are deterministic and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Integers that fit exactly render without a decimal
    /// point; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object: ordered `(key, value)` pairs.
    Object(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Array(iter.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Object(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Builds an array from values.
    pub fn array<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
        items.into_iter().collect()
    }

    /// Looks a key up in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number ≥ 0.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The object's ordered `(key, value)` pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Renders the value as indented JSON (two-space indent), for files a
    /// human may read or diff.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// The one writer behind [`render`](Json::render), `Display` and
    /// [`render_pretty`](Json::render_pretty): compact when `depth` is
    /// `None`, else indented two spaces per level from `depth` on, with
    /// empty arrays and objects kept on one line.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, depth, ('[', ']'), items, |out, v, d| v.write(out, d))
            }
            Json::Object(pairs) => write_seq(out, depth, ('{', '}'), pairs, |out, (k, v), d| {
                write_escaped(out, k);
                out.push_str(if d.is_some() { ": " } else { ":" });
                v.write(out, d);
            }),
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error, or
    /// of trailing non-whitespace after the top-level value.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

/// Writes `items` between the `open` and `close` brackets, each through
/// `item`; pretty (`depth` set) puts every item on its own line.
fn write_seq<T>(
    out: &mut String,
    depth: Option<usize>,
    (open, close): (char, char),
    items: &[T],
    item: impl Fn(&mut String, &T, Option<usize>),
) {
    out.push(open);
    let inner = depth.map(|d| d + 1);
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            newline(out, d);
        }
        item(out, x, inner);
    }
    match depth {
        Some(d) if !items.is_empty() => newline(out, d),
        _ => {}
    }
    out.push(close);
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

// `write!` into a `String` cannot fail, so its `Result` is dropped.
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

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

// ---- parser ----------------------------------------------------------

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", b as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_seq(bytes, pos, (b'{', b'}'), |pos| {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
            Ok((key, parse_value(bytes, pos)?))
        })
        .map(Json::Object),
        Some(b'[') => {
            parse_seq(bytes, pos, (b'[', b']'), |pos| parse_value(bytes, pos)).map(Json::Array)
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("sliced on ASCII boundaries");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are not needed by our own output;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&b) if b.is_ascii() => {
                out.push(b as char);
                *pos += 1;
            }
            Some(&lead) => {
                // Decode exactly one multi-byte scalar, its length read off
                // the lead byte. Validating the whole remainder here made
                // parsing quadratic in the document size.
                let len = match lead {
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let scalar = bytes
                    .get(*pos..*pos + len)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .ok_or("invalid UTF-8")?;
                out.push_str(scalar);
                *pos += len;
            }
        }
    }
}

/// Parses the `open`…`close` sequence at `pos`, one `item` per element
/// (the reader's [`write_seq`]).
fn parse_seq<T>(
    bytes: &[u8],
    pos: &mut usize,
    (open, close): (u8, u8),
    mut item: impl FnMut(&mut usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    expect(bytes, pos, open)?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(items);
    }
    loop {
        items.push(item(pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&b) if b == close => {
                *pos += 1;
                return Ok(items);
            }
            _ => return Err(format!("expected ',' or '{}' at byte {pos}", close as char)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::from(3u64).render(), "3");
        assert_eq!(Json::from(-2i64).render(), "-2");
        assert_eq!(Json::from(2.5).render(), "2.5");
        assert_eq!(Json::from(f64::NAN).render(), "null");
        assert_eq!(Json::from("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn object_preserves_order_and_gets() {
        let o = Json::object([("b", 1u64), ("a", 2u64)]);
        assert_eq!(o.render(), r#"{"b":1,"a":2}"#);
        assert_eq!(o.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(o.get("missing"), None);
    }

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::object([
            ("version", Json::from(1u64)),
            (
                "cells",
                Json::array([
                    Json::object([("ipc", Json::from(5.41)), ("ok", Json::Bool(true))]),
                    Json::Null,
                ]),
            ),
            ("label", Json::from("ICOUNT.2.8 — warm")),
        ]);
        for text in [doc.render(), doc.render_pretty()] {
            let back = Json::parse(&text).unwrap();
            assert_eq!(back, doc, "round-trip failed for {text}");
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#""tab\there A""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\there A"));
        let v = Json::parse("\"caché\"").unwrap();
        assert_eq!(v.as_str(), Some("caché"));
        // Two-, three- and four-byte scalars, each ending its string.
        for s in ["é", "a—", "ab𝄞", "𝄞—é"] {
            let doc = Json::array([s, s]);
            assert_eq!(Json::parse(&doc.render()).unwrap(), doc, "{s}");
        }
        assert!(Json::parse("\"a—").is_err(), "unterminated after a scalar");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\":1,}",
            "\"unterminated",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::from(3.5).as_u64(), None);
        assert_eq!(Json::from(-1i64).as_u64(), None);
        assert_eq!(Json::from(7u64).as_u64(), Some(7));
    }

    #[test]
    fn pretty_rendering_is_indented_and_parseable() {
        let doc = Json::object([
            ("a", Json::array([1u64, 2u64])),
            ("b", Json::object::<&str, Json>([])),
        ]);
        let pretty = doc.render_pretty();
        assert!(pretty.contains("  \"a\": ["));
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
    }
}
