//! A minimal JSON value, writer and recursive-descent parser.
//!
//! The workspace is offline (no `serde_json`; the vendored `serde` is a
//! marker-trait stand-in), so the sweep subsystem carries its own small JSON
//! implementation.  Design constraints, in order:
//!
//! 1. **Exact round-trips.**  Specs are hash-addressed and exports must be
//!    byte-identical across resumes, so numbers keep their type: unsigned and
//!    signed integers are preserved as integers, and floats are written with
//!    Rust's shortest round-trip formatting (`{:?}`) and re-parsed to the
//!    identical bits.
//! 2. **Stable output.**  Objects preserve insertion order; writers always
//!    emit the same bytes for the same value, which is what makes spec
//!    hashing and byte-identical resume possible.
//! 3. **Small surface.**  Only what the sweep store needs: no comments, no
//!    trailing commas, UTF-8 strings with the standard escapes.
//!
//! Hot records (the shard store's cell lines, spec hashes, exports) skip the
//! tree: they write through the scalar writers (`write_f64`, `write_u64`,
//! `write_str`) that [`Json`]'s own writer uses, and read through the pull
//! `Reader`, which walks the same lexer as [`parse`] and so accepts exactly
//! the same documents.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer without fraction or exponent.
    UInt(u64),
    /// A negative integer without fraction or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved on write.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn object(pairs: Vec<(String, Json)>) -> Self {
        Json::Object(pairs)
    }

    /// Looks up a key in an object (`None` for non-objects/missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (integral floats included) when exactly
    /// representable.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Int(v) => u64::try_from(v).ok(),
            Json::Float(v) if v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53) => Some(v as u64),
            _ => None,
        }
    }

    /// The value as `f64` for any numeric variant.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(v) => Some(v as f64),
            Json::Int(v) => Some(v as f64),
            Json::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `&str` for strings.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(v) => write_u64(out, *v),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_str(out, s),
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
            Json::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    /// The canonical single-line serialization (`value.to_string()` is the
    /// byte-stable form used for hashing and the shard store).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Writes a JSON number for a float: Rust's shortest round-trip form
/// (`{:?}`), which always contains a `.` or an exponent, so the parser can
/// tell it apart from the integer variants.  JSON has no non-finite
/// literals; `null` keeps the document well-formed (sweeps never emit
/// non-finite metrics, so this is a guard, not a code path).
pub(crate) fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Writes a JSON number for an unsigned integer.
pub(crate) fn write_u64(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

/// Writes a JSON string literal with the standard escapes.
pub(crate) fn write_str(out: &mut String, s: &str) {
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

/// Parses a JSON document; the whole input must be one value (surrounding
/// whitespace allowed).
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut reader = Reader::new(input);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

/// A pull reader over one JSON document: the caller walks objects and
/// arrays token by token and takes values where it expects them, so a typed
/// record parses without building a [`Json`] tree for its containers.
///
/// [`parse`] is this reader taking one whole value, and `begin_*`/`next_*`
/// lex containers exactly as that does, so a caller that walks a document
/// to its end (taking the members it skips with [`Reader::value`]) accepts
/// it exactly when [`parse`] does.
pub(crate) struct Reader<'a> {
    parser: Parser<'a>,
    /// Set by `begin_*`: the container just opened has no member yet, so
    /// the next `next_*` call accepts a closing bracket but no comma.  One
    /// flag suffices because a nested container is always walked to its end
    /// before its parent's next member.
    opened: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the document's single value.
    #[must_use]
    pub(crate) fn new(input: &'a str) -> Self {
        Self {
            parser: Parser {
                bytes: input.as_bytes(),
                pos: 0,
            },
            opened: false,
        }
    }

    /// Enters an object (`{`).
    pub(crate) fn begin_object(&mut self) -> Result<(), String> {
        self.parser.skip_ws();
        self.parser.expect(b'{')?;
        self.opened = true;
        Ok(())
    }

    /// The next key of the current object (positioned before its value), or
    /// `None` after the closing `}`.
    pub(crate) fn next_key(&mut self) -> Result<Option<String>, String> {
        let p = &mut self.parser;
        p.skip_ws();
        match p.peek() {
            Some(b'}') => {
                p.pos += 1;
                self.opened = false;
                return Ok(None);
            }
            Some(b',') if !self.opened => {
                p.pos += 1;
                p.skip_ws();
            }
            _ if self.opened => {}
            _ => return Err(format!("expected `,` or `}}` at byte {}", p.pos)),
        }
        self.opened = false;
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        Ok(Some(key))
    }

    /// Enters an array (`[`).
    pub(crate) fn begin_array(&mut self) -> Result<(), String> {
        self.parser.skip_ws();
        self.parser.expect(b'[')?;
        self.opened = true;
        Ok(())
    }

    /// Whether the current array has another item (then positioned before
    /// it); `false` after the closing `]`.
    pub(crate) fn next_item(&mut self) -> Result<bool, String> {
        let p = &mut self.parser;
        p.skip_ws();
        let opened = std::mem::take(&mut self.opened);
        match p.peek() {
            Some(b']') => {
                p.pos += 1;
                Ok(false)
            }
            Some(b',') if !opened => {
                p.pos += 1;
                Ok(true)
            }
            _ if opened => Ok(true),
            _ => Err(format!("expected `,` or `]` at byte {}", p.pos)),
        }
    }

    /// Reads the next whole value.  Scalars come back without allocation
    /// (strings excepted); a container comes back as a tree, which is how a
    /// caller skips a member it does not use.
    pub(crate) fn value(&mut self) -> Result<Json, String> {
        self.parser.skip_ws();
        self.parser.value()
    }

    /// Ends the document: only whitespace may follow the value.
    pub(crate) fn finish(mut self) -> Result<(), String> {
        self.parser.skip_ws();
        if self.parser.pos == self.parser.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.parser.pos))
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte `{}` at {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over the plain (unescaped, ASCII-or-UTF-8) run.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(
                                c.ok_or_else(|| format!("invalid \\u escape at {}", self.pos))?,
                            );
                        }
                        other => {
                            return Err(format!("unknown escape `\\{}`", char::from(other)));
                        }
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let text =
            std::str::from_utf8(slice).map_err(|_| "invalid bytes in \\u escape".to_string())?;
        let code =
            u32::from_str_radix(text, 16).map_err(|_| format!("invalid \\u escape `{text}`"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number bytes".to_string())?;
        if !is_float {
            if text.starts_with('-') {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Json::Int(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            // Integers beyond 64 bits degrade to the float path below.
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(text: &str) {
        let value = parse(text).expect("parses");
        assert_eq!(value.to_string(), text, "canonical round trip");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip("null");
        round_trip("true");
        round_trip("false");
        round_trip("0");
        round_trip("18446744073709551615"); // u64::MAX survives exactly
        round_trip("-42");
        round_trip("0.25");
        round_trip("1e20");
        round_trip("\"hello\"");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, 1.0 / 3.0, 2.5e-17, f64::MAX, -0.0, 123456.789] {
            let text = Json::Float(v).to_string();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via `{text}`");
        }
    }

    #[test]
    fn reader_walks_containers_and_rejects_what_parse_rejects() {
        let mut reader = Reader::new(" {\"n\" : [1, 2.5] , \"s\":\"x\\ty\"} ");
        reader.begin_object().unwrap();
        assert_eq!(reader.next_key().unwrap().as_deref(), Some("n"));
        reader.begin_array().unwrap();
        let mut sum = 0.0;
        while reader.next_item().unwrap() {
            sum += reader.value().unwrap().as_f64().unwrap();
        }
        assert_eq!(sum, 3.5);
        assert_eq!(reader.next_key().unwrap().as_deref(), Some("s"));
        assert_eq!(reader.value().unwrap().as_str(), Some("x\ty"));
        assert_eq!(reader.next_key().unwrap(), None);
        reader.finish().unwrap();

        // Each of these fails `parse`; walking it as an object of arrays
        // must fail too.
        for bad in [
            "{\"a\":[1,]}",
            "{\"a\":[1 2]}",
            "{\"a\" [1]}",
            "{,}",
            "{\"a\":[]} x",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
            let walk = |text| -> Result<(), String> {
                let mut reader = Reader::new(text);
                reader.begin_object()?;
                while reader.next_key()?.is_some() {
                    reader.begin_array()?;
                    while reader.next_item()? {
                        reader.value()?;
                    }
                }
                reader.finish()
            };
            assert!(walk(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn containers_preserve_order() {
        round_trip("[1,2.5,\"x\",[],{}]");
        round_trip("{\"zebra\":1,\"alpha\":{\"b\":[true,null]}}");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "line\nbreak \"quoted\" back\\slash \t tab \u{1F980} control\u{0001}";
        let text = Json::Str(original.to_string()).to_string();
        assert_eq!(parse(&text).unwrap().as_str().unwrap(), original);
        // Surrogate pairs decode.
        assert_eq!(
            parse("\"\\ud83e\\udd80\"").unwrap().as_str().unwrap(),
            "\u{1F980}"
        );
    }

    #[test]
    fn syntax_errors_are_reported() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "01x",
            "[1 2]",
            "{1:2}",
            "nullx",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn accessors_see_through_variants() {
        let doc = parse("{\"n\":1000,\"eps\":0.2,\"name\":\"e01\",\"axes\":[1,2]}").unwrap();
        assert_eq!(doc.get("n").unwrap().as_u64(), Some(1000));
        assert_eq!(doc.get("n").unwrap().as_f64(), Some(1000.0));
        assert_eq!(doc.get("eps").unwrap().as_f64(), Some(0.2));
        assert_eq!(doc.get("name").unwrap().as_str(), Some("e01"));
        assert_eq!(doc.get("axes").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Float(3.0).as_u64(), Some(3));
        assert_eq!(Json::Float(3.5).as_u64(), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
    }
}
