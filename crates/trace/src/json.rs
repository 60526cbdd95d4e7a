//! Minimal, dependency-free JSON support.
//!
//! The workspace builds and tests fully offline, so instead of `serde` /
//! `serde_json` this module carries the small slice of JSON the project
//! actually needs:
//!
//! * [`JsonValue`] — an owned JSON tree whose objects preserve insertion
//!   order, so emitted field order is *stable by construction*;
//! * [`ToJson`] — the trait experiment-report types implement (usually
//!   via the [`impl_to_json!`](crate::impl_to_json) macro);
//! * [`JsonWriter`] — the one streaming writer, compact or indented,
//!   that `JsonValue::to_string` (via `Display`), [`JsonValue::pretty`]
//!   and the serve protocol's direct response encoders all go through;
//! * one recursive-descent parser, [`JsonRef::parse`], which builds a
//!   borrowed tree (strings are input slices unless escaped) for the
//!   serve protocol's request frames; [`JsonValue::parse`] is that parse
//!   made owned, so both trees share one grammar, one set of errors and
//!   one [`MAX_PARSE_DEPTH`].
//!
//! # Example
//!
//! ```
//! use vlpp_trace::json::{JsonValue, ToJson};
//!
//! let value = JsonValue::Object(vec![
//!     ("bench".to_string(), "gshare".to_json()),
//!     ("median_ns".to_string(), 1250u64.to_json()),
//! ]);
//! let text = value.to_string();
//! assert_eq!(text, r#"{"bench":"gshare","median_ns":1250}"#);
//! let back = JsonValue::parse(&text).unwrap();
//! assert_eq!(back, value);
//! ```

use std::borrow::Cow;
use std::fmt;

/// An owned JSON value.
///
/// Objects are ordered `(key, value)` pairs — *not* a hash map — so the
/// emitted field order is exactly the insertion order, run after run.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (emitted without decimal point).
    UInt(u64),
    /// A negative integer (emitted without decimal point).
    Int(i64),
    /// A floating-point number. Non-finite values emit as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with stable (insertion) field order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The element at `index` of an array.
    pub fn at(&self, index: usize) -> Option<&JsonValue> {
        self.as_array()?.get(index)
    }

    /// The value as an `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(n) => Some(*n as f64),
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Renders the value as multi-line JSON with two-space indentation
    /// (the replacement for `serde_json::to_string_pretty`).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        let _ = JsonWriter::pretty(&mut out).value(self).finish();
        out
    }

    /// Parses a JSON document into an owned tree: [`JsonRef::parse`]
    /// (one grammar, one set of errors, one [`MAX_PARSE_DEPTH`], never a
    /// panic) followed by [`JsonRef::into_owned`].
    pub fn parse(text: &str) -> Result<JsonValue, ParseJsonError> {
        JsonRef::parse(text).map(JsonRef::into_owned)
    }
}

impl fmt::Display for JsonValue {
    /// Compact (single-line) rendering, streamed into the formatter.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        JsonWriter::compact(f).value(self).finish()
    }
}

/// A borrowed JSON value: what [`JsonRef::parse`] builds, with every
/// string a slice of the input unless it holds an escape.
///
/// The tree mirrors [`JsonValue`] variant for variant, and
/// [`JsonRef::into_owned`] converts one into the other. A hot reader
/// (the serve protocol decoding a request frame) walks a `JsonRef` and
/// copies only the strings it keeps.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonRef<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string: borrowed from the input unless it held an escape.
    Str(Cow<'a, str>),
    /// An array.
    Array(Vec<JsonRef<'a>>),
    /// An object, fields in input order (duplicate keys kept).
    Object(Vec<(Cow<'a, str>, JsonRef<'a>)>),
}

impl<'a> JsonRef<'a> {
    /// Parses a JSON document. The entire input must be one value
    /// (surrounding whitespace is allowed).
    ///
    /// Parsing never panics: any malformed input — including nesting
    /// deeper than [`MAX_PARSE_DEPTH`] — is reported as a
    /// [`ParseJsonError`] with the offending byte offset.
    pub fn parse(text: &'a str) -> Result<JsonRef<'a>, ParseJsonError> {
        let mut parser = Parser { text, pos: 0, depth: 0 };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != text.len() {
            return Err(parser.error("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Copies the tree into an owned [`JsonValue`].
    pub fn into_owned(self) -> JsonValue {
        match self {
            JsonRef::Null => JsonValue::Null,
            JsonRef::Bool(b) => JsonValue::Bool(b),
            JsonRef::UInt(n) => JsonValue::UInt(n),
            JsonRef::Int(n) => JsonValue::Int(n),
            JsonRef::Float(x) => JsonValue::Float(x),
            JsonRef::Str(s) => JsonValue::Str(s.into_owned()),
            JsonRef::Array(items) => {
                JsonValue::Array(items.into_iter().map(JsonRef::into_owned).collect())
            }
            JsonRef::Object(fields) => JsonValue::Object(
                fields
                    .into_iter()
                    .map(|(key, value)| (key.into_owned(), value.into_owned()))
                    .collect(),
            ),
        }
    }
}

/// The lookups [`JsonValue`] and [`JsonRef`] share, written once.
macro_rules! tree_accessors {
    ($tree:ident $(<$lt:lifetime>)?, $key:ty) => {
        impl$(<$lt>)? $tree$(<$lt>)? {
            /// Looks up a field of an object by key (the first, if the key
            /// repeats). Returns `None` for other variants or missing keys.
            pub fn get(&self, key: &str) -> Option<&Self> {
                self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }

            /// The value as a bool, if it is one.
            pub fn as_bool(&self) -> Option<bool> {
                if let $tree::Bool(b) = self { Some(*b) } else { None }
            }

            /// The value as a `u64`, if it is a non-negative integer.
            pub fn as_u64(&self) -> Option<u64> {
                match self {
                    $tree::UInt(n) => Some(*n),
                    $tree::Int(n) => u64::try_from(*n).ok(),
                    _ => None,
                }
            }

            /// The value as a string slice, if it is a string.
            pub fn as_str(&self) -> Option<&str> {
                if let $tree::Str(s) = self { Some(s) } else { None }
            }

            /// The value as an array slice, if it is an array.
            pub fn as_array(&self) -> Option<&[Self]> {
                if let $tree::Array(items) = self { Some(items) } else { None }
            }

            /// The value as ordered object fields, if it is an object.
            pub fn as_object(&self) -> Option<&[($key, Self)]> {
                if let $tree::Object(fields) = self { Some(fields) } else { None }
            }
        }
    };
}
tree_accessors!(JsonValue, String);
tree_accessors!(JsonRef<'a>, Cow<'a, str>);

/// The one JSON writer: [`JsonValue`]'s `Display` and
/// [`JsonValue::pretty`] and the serve protocol's direct response
/// encoders all stream through it into a `fmt::Write` sink, compact or
/// with two-space indentation. It alone knows JSON syntax: separators,
/// `:` versus `": "`, empty `[]`/`{}`, escaping and number forms. Calls
/// chain, and [`JsonWriter::finish`] reports whether a write failed.
///
/// ```
/// use vlpp_trace::json::JsonWriter;
///
/// let mut text = String::new();
/// JsonWriter::compact(&mut text).object(|json| { json.key("n").u64(3).key("s").str("a\n"); });
/// assert_eq!(text, r#"{"n":3,"s":"a\n"}"#);
/// ```
#[derive(Debug)]
pub struct JsonWriter<W> {
    out: W,
    pretty: bool,
    /// Open containers.
    depth: usize,
    /// Nothing has been written into the innermost open container yet.
    first: bool,
    /// A key was written last, so its value follows with no separator.
    after_key: bool,
    result: fmt::Result,
}

impl<W: fmt::Write> JsonWriter<W> {
    /// A writer of compact, single-line JSON.
    pub fn compact(out: W) -> Self {
        JsonWriter { out, pretty: false, depth: 0, first: true, after_key: false, result: Ok(()) }
    }

    /// A writer of multi-line JSON with two-space indentation.
    pub fn pretty(out: W) -> Self {
        JsonWriter { pretty: true, ..JsonWriter::compact(out) }
    }

    /// `Err` if any write to the sink failed.
    pub fn finish(&self) -> fmt::Result {
        self.result
    }

    /// Writes `null`.
    #[inline(always)]
    pub fn null(&mut self) -> &mut Self {
        self.separate().put("null")
    }

    /// Writes `true` or `false`.
    #[inline(always)]
    pub fn bool(&mut self, b: bool) -> &mut Self {
        // One literal per branch, so each write has a constant length.
        if b {
            self.separate().put("true")
        } else {
            self.separate().put("false")
        }
    }

    /// Writes a non-negative integer.
    #[inline(always)]
    pub fn u64(&mut self, n: u64) -> &mut Self {
        self.separate().put_with(|out| write!(out, "{n}"))
    }

    /// Writes a string literal.
    #[inline(always)]
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.separate().put("\"").put_escaped(s).put("\"")
    }

    /// Writes an object key; the next call writes its value.
    #[inline(always)]
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate().put("\"").put_escaped(key);
        self.after_key = true;
        if self.pretty {
            self.put("\": ")
        } else {
            self.put("\":")
        }
    }

    /// Writes an array whose elements `items` writes.
    pub fn array(&mut self, items: impl FnOnce(&mut Self)) -> &mut Self {
        self.container("[", items, "]")
    }

    /// Writes an object whose keys and values `fields` writes.
    pub fn object(&mut self, fields: impl FnOnce(&mut Self)) -> &mut Self {
        self.container("{", fields, "}")
    }

    /// Writes a whole tree.
    pub fn value(&mut self, value: &JsonValue) -> &mut Self {
        match value {
            JsonValue::Null => self.null(),
            JsonValue::Bool(b) => self.bool(*b),
            JsonValue::UInt(n) => self.u64(*n),
            JsonValue::Int(n) => self.separate().put_with(|out| write!(out, "{n}")),
            // `{:?}` is the shortest form that parses back to the same
            // bits, and always keeps a decimal point ("1.0", not "1").
            JsonValue::Float(x) if x.is_finite() => {
                self.separate().put_with(|out| write!(out, "{x:?}"))
            }
            JsonValue::Float(_) => self.null(),
            JsonValue::Str(s) => self.str(s),
            JsonValue::Array(items) => self.array(|json| {
                for item in items {
                    json.value(item);
                }
            }),
            JsonValue::Object(fields) => self.object(|json| {
                for (key, value) in fields {
                    json.key(key).value(value);
                }
            }),
        }
    }

    /// What separates a value or key from the one before: nothing after
    /// a key, else a comma after a sibling and, when pretty and inside a
    /// container, a new line.
    #[inline(always)]
    fn separate(&mut self) -> &mut Self {
        if std::mem::take(&mut self.after_key) {
            return self;
        }
        if !std::mem::replace(&mut self.first, false) {
            self.put(",");
        }
        if self.pretty && self.depth > 0 {
            self.newline();
        }
        self
    }

    /// `open`, what `inside` writes, then `close`: on a line of its own
    /// when pretty, unless the container is empty.
    fn container(&mut self, open: &str, inside: impl FnOnce(&mut Self), close: &str) -> &mut Self {
        self.separate().put(open);
        self.depth += 1;
        self.first = true;
        inside(self);
        self.depth -= 1;
        if self.pretty && !self.first {
            self.newline();
        }
        self.first = false;
        self.put(close)
    }

    // The helpers below and the scalar writers above are
    // `#[inline(always)]`: the direct encoders make about a dozen calls
    // per slot, and left to the inliner an 8-slot `predict` response took
    // three times as long to encode.

    #[cold]
    fn newline(&mut self) {
        self.put("\n");
        for _ in 0..self.depth {
            self.put("  ");
        }
    }

    #[inline(always)]
    fn put(&mut self, text: &str) -> &mut Self {
        self.put_with(|out| out.write_str(text))
    }

    /// `s` escaped; one plain write when nothing needs escaping, which
    /// for a literal key is decided at compile time.
    #[inline(always)]
    fn put_escaped(&mut self, s: &str) -> &mut Self {
        if s.bytes().all(|byte| byte >= 0x20 && byte != b'"' && byte != b'\\') {
            self.put(s)
        } else {
            self.put_with(|out| write_escaped(out, s))
        }
    }

    /// Runs one write, keeping its failure for [`JsonWriter::finish`]
    /// (a `String` sink never fails, so the check folds away there).
    #[inline(always)]
    fn put_with(&mut self, write: impl FnOnce(&mut W) -> fmt::Result) -> &mut Self {
        if write(&mut self.out).is_err() {
            self.result = Err(fmt::Error);
        }
        self
    }
}

/// Writes `s` escaped for the inside of a JSON string literal, one
/// character at a time (`put_escaped` writes escape-free strings whole).
fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            '\u{08}' => out.write_str("\\b")?,
            '\u{0c}' => out.write_str("\\f")?,
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    Ok(())
}

/// A JSON parse error with the byte offset where parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseJsonError {
    message: String,
    offset: usize,
}

impl ParseJsonError {
    /// Byte offset in the input where the error occurred.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for ParseJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseJsonError {}

/// Maximum container nesting depth [`JsonRef::parse`] (and so
/// [`JsonValue::parse`]) accepts.
///
/// The parser is recursive-descent, so unbounded nesting is a stack
/// overflow — an *abort*, not an `Err`. No legitimate vlpp document
/// (reports, checkpoints, metrics snapshots) nests past a handful of
/// levels; anything deeper is corrupt or adversarial input.
pub const MAX_PARSE_DEPTH: usize = 128;

/// The one recursive-descent JSON parser; it builds a [`JsonRef`].
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseJsonError {
        ParseJsonError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseJsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonRef<'a>) -> Result<JsonRef<'a>, ParseJsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonRef<'a>, ParseJsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonRef::Null),
            Some(b't') => self.literal("true", JsonRef::Bool(true)),
            Some(b'f') => self.literal("false", JsonRef::Bool(false)),
            Some(b'"') => Ok(JsonRef::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<JsonRef<'a>, ParseJsonError> {
        let mut items = Vec::new();
        self.sequence(b'[', b']', "expected `,` or `]` in array", |parser| {
            items.push(parser.value()?);
            Ok(())
        })?;
        Ok(JsonRef::Array(items))
    }

    fn object(&mut self) -> Result<JsonRef<'a>, ParseJsonError> {
        let mut fields = Vec::new();
        self.sequence(b'{', b'}', "expected `,` or `}` in object", |parser| {
            let key = parser.string()?;
            parser.skip_whitespace();
            parser.expect(b':')?;
            parser.skip_whitespace();
            fields.push((key, parser.value()?));
            Ok(())
        })?;
        Ok(JsonRef::Object(fields))
    }

    /// `open`, then what `item` parses, comma-separated, then `close`;
    /// nesting past [`MAX_PARSE_DEPTH`] is an error, not a stack overflow.
    fn sequence(
        &mut self,
        open: u8,
        close: u8,
        error: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseJsonError>,
    ) -> Result<(), ParseJsonError> {
        self.expect(open)?;
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.error("nesting deeper than MAX_PARSE_DEPTH"));
        }
        self.skip_whitespace();
        let mut done = self.peek() == Some(close);
        while !done {
            self.skip_whitespace();
            item(self)?;
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(byte) if byte == close => done = true,
                _ => return Err(self.error(error)),
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// A string literal: a slice of the input when it holds no escape,
    /// otherwise an owned copy with the escapes decoded.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseJsonError> {
        self.expect(b'"')?;
        let mut decoded: Option<String> = None;
        loop {
            let start = self.pos;
            // Consume a run of plain (unescaped, ASCII-or-UTF-8) bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The run breaks only at ASCII bytes, so both ends sit on
            // char boundaries of the input.
            let run = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(run);
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, ParseJsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0c}',
            Some(b'u') => {
                self.pos += 1;
                let high = self.hex4()?;
                // Combine surrogate pairs; lone surrogates are an error.
                let code = if (0xd800..0xdc00).contains(&high) {
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let low = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&low) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
                    } else {
                        return Err(self.error("lone high surrogate"));
                    }
                } else if (0xdc00..0xe000).contains(&high) {
                    return Err(self.error("lone low surrogate"));
                } else {
                    high
                };
                return char::from_u32(code).ok_or_else(|| self.error("invalid code point"));
            }
            _ => return Err(self.error("invalid escape sequence")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, ParseJsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a') as u32 + 10,
                Some(b @ b'A'..=b'F') => (b - b'A') as u32 + 10,
                _ => return Err(self.error("expected four hex digits")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<JsonRef<'a>, ParseJsonError> {
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
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonRef::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonRef::Int(n));
            }
        }
        text.parse::<f64>()
            .map(JsonRef::Float)
            .map_err(|_| ParseJsonError { message: "invalid number".to_string(), offset: start })
    }
}

/// Conversion into a [`JsonValue`] — the offline replacement for
/// `serde::Serialize`.
///
/// Implement it for report structs with the
/// [`impl_to_json!`](crate::impl_to_json) macro, which emits the fields
/// in declaration order (stable across runs by construction).
pub trait ToJson {
    /// Converts `self` into a JSON tree.
    fn to_json(&self) -> JsonValue;

    /// Compact single-line JSON — what the bench harness prints.
    fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Multi-line JSON with two-space indentation — the replacement for
    /// `serde_json::to_string_pretty`.
    fn to_json_pretty(&self) -> String {
        self.to_json().pretty()
    }
}

impl ToJson for JsonValue {
    fn to_json(&self) -> JsonValue {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

macro_rules! impl_to_json_uint {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> JsonValue {
                JsonValue::UInt(*self as u64)
            }
        }
    )+};
}
impl_to_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_to_json_int {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> JsonValue {
                let v = *self as i64;
                if v >= 0 { JsonValue::UInt(v as u64) } else { JsonValue::Int(v) }
            }
        }
    )+};
}
impl_to_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Float(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Float(*self as f64)
    }
}

impl ToJson for str {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> JsonValue {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        match self {
            Some(value) => value.to_json(),
            None => JsonValue::Null,
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        self.as_slice().to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

/// Implements [`ToJson`](crate::json::ToJson) for a struct by listing
/// its fields; the emitted object uses exactly that field order.
///
/// ```
/// use vlpp_trace::impl_to_json;
/// use vlpp_trace::json::ToJson;
///
/// struct Row { benchmark: String, rate: f64 }
/// impl_to_json!(Row { benchmark, rate });
///
/// let row = Row { benchmark: "gcc".into(), rate: 0.043 };
/// assert_eq!(row.to_json_string(), r#"{"benchmark":"gcc","rate":0.043}"#);
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                $crate::json::JsonValue::Object(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    )),+
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_emission() {
        let value = JsonValue::Object(vec![
            ("name".into(), JsonValue::Str("gcc".into())),
            ("rate".into(), JsonValue::Float(0.043)),
            ("sizes".into(), JsonValue::Array(vec![JsonValue::UInt(1), JsonValue::UInt(2)])),
        ]);
        assert_eq!(value.to_string(), r#"{"name":"gcc","rate":0.043,"sizes":[1,2]}"#);
        let pretty = value.pretty();
        assert!(pretty.contains("\"name\": \"gcc\""));
        assert!(pretty.starts_with("{\n"));
        assert!(pretty.ends_with('}'));
    }

    #[test]
    fn empty_containers_stay_compact() {
        assert_eq!(JsonValue::Array(vec![]).pretty(), "[]");
        assert_eq!(JsonValue::Object(vec![]).pretty(), "{}");
    }

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "quote\" back\\slash \n\t\r\u{08}\u{0c} control\u{01} unicode\u{2603}";
        let value = JsonValue::Str(nasty.to_string());
        let text = value.to_string();
        assert!(text.contains("\\\""));
        assert!(text.contains("\\u0001"));
        assert_eq!(JsonValue::parse(&text).unwrap(), value);
    }

    #[test]
    fn floats_keep_decimal_point_and_round_trip() {
        assert_eq!(JsonValue::Float(1.0).to_string(), "1.0");
        assert_eq!(JsonValue::Float(0.0432).to_string(), "0.0432");
        assert_eq!(JsonValue::Float(f64::NAN).to_string(), "null");
        let back = JsonValue::parse("0.0432").unwrap();
        assert_eq!(back, JsonValue::Float(0.0432));
    }

    #[test]
    fn large_integers_are_exact() {
        let n = u64::MAX;
        let text = JsonValue::UInt(n).to_string();
        assert_eq!(JsonValue::parse(&text).unwrap().as_u64(), Some(n));
    }

    #[test]
    fn negative_integers() {
        assert_eq!((-5i64).to_json().to_string(), "-5");
        assert_eq!(JsonValue::parse("-5").unwrap(), JsonValue::Int(-5));
    }

    #[test]
    fn parser_handles_nesting_and_whitespace() {
        let value = JsonValue::parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").unwrap();
        assert_eq!(
            value.get("a").and_then(|a| a.at(1)).and_then(|o| o.get("b")),
            Some(&JsonValue::Null)
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("123 456").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("nulll").is_err());
        let err = JsonValue::parse("[tru]").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn parser_rejects_over_deep_nesting_instead_of_overflowing() {
        // 100k unclosed brackets used to blow the recursive-descent
        // stack and abort the whole process; now it's a typed error.
        let deep = "[".repeat(100_000);
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.to_string().contains("MAX_PARSE_DEPTH"), "{err}");
        assert_eq!(err.offset(), MAX_PARSE_DEPTH + 1, "fails at the first too-deep bracket");

        let mixed = "[{\"k\":".repeat(50_000) + "1";
        assert!(JsonValue::parse(&mixed).is_err());

        // Depth exactly at the limit still parses.
        let ok = "[".repeat(MAX_PARSE_DEPTH) + &"]".repeat(MAX_PARSE_DEPTH);
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(JsonValue::parse(r#""☃""#).unwrap(), JsonValue::Str("\u{2603}".into()));
        // Surrogate pair for U+1F600.
        assert_eq!(JsonValue::parse(r#""😀""#).unwrap(), JsonValue::Str("\u{1f600}".into()));
        assert!(JsonValue::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn borrowed_tree_borrows_unescaped_strings() {
        let text = r#"{"verb":"predict","kind":"co\u006ed","n":[1,-2,0.5,null,true]}"#;
        let value = JsonRef::parse(text).unwrap();
        let JsonRef::Object(fields) = &value else { panic!("not an object: {value:?}") };
        assert!(fields.iter().all(|(key, _)| matches!(key, Cow::Borrowed(_))));
        assert!(matches!(value.get("verb"), Some(JsonRef::Str(Cow::Borrowed("predict")))));
        // An escape forces a decoded copy.
        assert!(matches!(value.get("kind"), Some(JsonRef::Str(Cow::Owned(s))) if s == "cond"));
        assert_eq!(value.get("n").and_then(JsonRef::as_array).map(<[_]>::len), Some(5));
        assert_eq!(value.clone().into_owned(), JsonValue::parse(text).unwrap());
    }

    #[test]
    fn borrowed_get_returns_the_first_duplicate() {
        let value = JsonRef::parse(r#"{"id":1,"id":2}"#).unwrap();
        assert_eq!(value.get("id").and_then(JsonRef::as_u64), Some(1));
        assert_eq!(value.as_object().map(<[_]>::len), Some(2));
    }

    #[test]
    fn accessors() {
        let v = JsonValue::parse(r#"{"n":3,"x":1.5,"s":"hi","b":true,"a":[1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn to_json_for_primitives_and_containers() {
        assert_eq!(42u32.to_json_string(), "42");
        assert_eq!(true.to_json_string(), "true");
        assert_eq!("x".to_json_string(), "\"x\"");
        assert_eq!(vec![1u64, 2].to_json_string(), "[1,2]");
        assert_eq!((4096u64, 6u8).to_json_string(), "[4096,6]");
        assert_eq!(Some(1u8).to_json_string(), "1");
        assert_eq!(None::<u8>.to_json_string(), "null");
    }

    #[test]
    fn impl_to_json_macro_preserves_field_order() {
        struct Demo {
            zeta: u64,
            alpha: f64,
        }
        crate::impl_to_json!(Demo { zeta, alpha });
        let d = Demo { zeta: 1, alpha: 2.0 };
        assert_eq!(d.to_json_string(), r#"{"zeta":1,"alpha":2.0}"#);
    }
}
