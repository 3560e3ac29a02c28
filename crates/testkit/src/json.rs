// The protocol chaos layer feeds this parser hostile bytes: it is held to
// the same panic gate as the daemon that serves it.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::panic, clippy::unreachable, clippy::todo)
)]

//! A minimal, dependency-free JSON value: parser and writer.
//!
//! The workspace is hermetic (no serde), so this is its one JSON
//! implementation: the daemon protocol's length-prefixed frames, the lint
//! JSON lines, the structured trace exports and the benchmark's result
//! files are all written by [`Json::render`]. It provides:
//!
//! * a recursive-descent parser with a **depth limit** and structured
//!   errors (byte offset + message) — it is fed attacker-controlled bytes
//!   by the protocol chaos layer and must reject garbage without panicking
//!   or overflowing the stack;
//! * a compact writer with deterministic field order ([`Json::Obj`] keeps
//!   insertion order, so identical requests serialize to identical bytes —
//!   the content-hash cache key depends on this);
//! * typed accessors that return `Option`, so request decoding reads as a
//!   chain of lookups with one structured error at the end.
//!
//! Numbers are stored as `f64`. Integers round-trip exactly up to 2^53,
//! far beyond any count the daemon reports; [`Json::as_u64`] rejects
//! values that lost precision or are out of range.

use std::fmt;

/// Maximum nesting depth the parser accepts. Protocol documents are at
/// most a few levels deep; hostile deeply-nested input is rejected with a
/// structured error rather than a stack overflow.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (see module docs on integer precision).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (preserved by the writer).
    Obj(Vec<(String, Json)>),
}

/// A structured parse failure: where and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor for an integer value.
    pub fn u64(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer. `None` for
    /// non-numbers, negatives, fractions, and values beyond 2^53 (where
    /// `f64` can no longer represent every integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace), with object fields in
    /// insertion order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; the daemon never produces them, but a
        // defensive null beats emitting an unparsable token.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

/// The bytes a JSON string cannot carry raw: the quote, the backslash and
/// the control bytes. All are ASCII, so a run of other bytes in a `&str`
/// starts and ends on character boundaries.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => out.push_str(&format!("\\u{c:04x}")),
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// A [`JsonError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut p = Parser {
        text: input,
        bytes,
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing data after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            msg: msg.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next byte that needs escaping as one
            // slice; it ends on a character boundary (see `needs_escape`).
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| needs_escape(b))
                .unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue; // unicode_escape advanced pos itself
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control byte in string")),
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (pos is at the `u`), handling
    /// surrogate pairs. Leaves pos after the last consumed digit + 1.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        self.pos += 1; // consume `u`
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require `\uXXXX` low surrogate.
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                if self.peek() == Some(b'u') {
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        return char::from_u32(cp).ok_or_else(|| self.err("bad surrogate pair"));
                    }
                }
            }
            return Err(self.err("lone high surrogate"));
        }
        if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("bad code point"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection;

    fn roundtrip(text: &str) -> String {
        parse(text).expect("parses").render()
    }

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(roundtrip("null"), "null");
        assert_eq!(roundtrip("true"), "true");
        assert_eq!(roundtrip("false"), "false");
        assert_eq!(roundtrip("42"), "42");
        assert_eq!(roundtrip("-7"), "-7");
        assert_eq!(roundtrip("1.5"), "1.5");
        assert_eq!(roundtrip("\"hi\""), "\"hi\"");
    }

    #[test]
    fn containers_roundtrip_in_order() {
        assert_eq!(
            roundtrip("{\"b\": 1, \"a\": [2, null, {\"c\": false}]}"),
            "{\"b\":1,\"a\":[2,null,{\"c\":false}]}"
        );
        assert_eq!(roundtrip("[]"), "[]");
        assert_eq!(roundtrip("{}"), "{}");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = parse("\"a\\n\\t\\\"b\\\\c\\u0041\\u00e9\"").expect("parses");
        assert_eq!(v.as_str(), Some("a\n\t\"b\\cA\u{e9}"));
        // Quotes, backslashes and control characters render escaped, byte
        // for byte as the lint and trace goldens expect.
        assert_eq!(Json::str("a\"b\\c").render(), "\"a\\\"b\\\\c\"");
        assert_eq!(Json::str("x\n\t").render(), "\"x\\n\\t\"");
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").expect("parses").as_str(),
            Some("\u{1F600}")
        );
        assert!(parse("\"\\ud83d\"").is_err(), "lone high surrogate");
        assert!(parse("\"\\ude00\"").is_err(), "lone low surrogate");
    }

    /// Characters of every UTF-8 width, the escaped ASCII, `/` and DEL
    /// (both passed through raw), then the 32 control bytes.
    fn piece(i: usize) -> String {
        const WIDE: [&str; 8] = [
            "a",
            "\u{e9}",
            "\u{20ac}",
            "\u{1F600}",
            "\"",
            "\\",
            "/",
            "\u{7f}",
        ];
        WIDE.get(i).map_or_else(
            || char::from((i - WIDE.len()) as u8).to_string(),
            |p| p.to_string(),
        )
    }

    crate::prop! {
        /// Any string renders byte for byte as the per-character escape
        /// table has it, and parses back to itself. Pieces repeat up to
        /// 300 times, so runs are long and cross every character width.
        fn strings_roundtrip(pieces in collection::vec((0usize..40, 1usize..300), 0..16)) {
            let s: String = pieces.iter().map(|&(i, n)| piece(i).repeat(n)).collect();
            let mut want = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => want.push_str("\\\""),
                    '\\' => want.push_str("\\\\"),
                    '\n' => want.push_str("\\n"),
                    '\r' => want.push_str("\\r"),
                    '\t' => want.push_str("\\t"),
                    c if (c as u32) < 0x20 => want.push_str(&format!("\\u{:04x}", c as u32)),
                    c => want.push(c),
                }
            }
            want.push('"');
            let text = Json::Str(s.clone()).render();
            crate::prop_assert_eq!(&text, &want);
            crate::prop_assert_eq!(parse(&text), Ok(Json::Str(s)));
        }
    }

    #[test]
    fn raw_control_byte_after_a_multibyte_run_keeps_its_offset() {
        let text = format!("\"{}\u{1}\"", "\u{e9}\u{20ac}".repeat(1000));
        let err = parse(&text).expect_err("raw control byte");
        assert_eq!(
            (err.offset, err.msg.as_str()),
            (1 + 5000, "raw control byte in string")
        );
    }

    #[test]
    fn a_mebibyte_string_parses_and_renders_in_linear_time() {
        // Kernel text as a request carries it: multibyte comments and an
        // escaped newline per line. A decoder that re-scans the rest of
        // the input per character takes minutes here.
        let line = "  iadd r0, r0, 1 // \u{e9}t\u{e9} \u{20ac}\n";
        let s = line.repeat((1 << 20) / line.len());
        let start = std::time::Instant::now();
        let text = Json::str(s.as_str()).render();
        assert_eq!(parse(&text), Ok(Json::Str(s)));
        let took = start.elapsed();
        assert!(took.as_secs() < 5, "1 MiB string round trip took {took:?}");
    }

    #[test]
    fn structured_errors_not_panics() {
        for bad in [
            "", "{", "[", "\"", "{\"a\"}", "[1,]", "{,}", "01x", "nul", "+1", "1e", "--2", "[1 2]",
            "\u{7f}", "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn depth_limit_is_a_structured_error() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let err = parse(&deep).expect_err("too deep");
        assert!(err.msg.contains("deep"));
    }

    #[test]
    fn accessors() {
        let v = parse("{\"op\":\"ping\",\"id\":3,\"ok\":true,\"xs\":[1]}").expect("parses");
        assert_eq!(v.get("op").and_then(Json::as_str), Some("ping"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("xs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1e300).as_u64(), None);
    }

    #[test]
    fn trailing_data_is_rejected() {
        assert!(parse("1 2").is_err());
        assert!(parse("{} garbage").is_err());
        assert!(parse("  {\"a\":1}  ").is_ok(), "surrounding whitespace ok");
    }
}
