//! A minimal, dependency-free JSON emitter and parser for machine-readable artifacts.
//!
//! The experiment binaries publish their perf trajectory as committed JSON files (for
//! example `BENCH_scaling.json`, written by the `scaling` binary) so that future
//! revisions can diff enumeration performance across PRs without re-parsing CSV
//! stdout. The emitter covers exactly the JSON subset those artifacts need: objects
//! with ordered keys, arrays, strings, booleans and finite numbers.
//!
//! [`Json::parse`] is the inverse: a strict recursive-descent parser over the same
//! subset (numbers land in [`Json::UInt`] when they are non-negative integers and in
//! [`Json::Num`] otherwise), used by the `ise serve` line protocol and by the
//! `json_check` and `scaling` binaries to read committed artifacts back.
//! `parse ∘ render = id` for every value the emitter can produce (property-tested
//! below).
//!
//! [`ObjectWriter`] streams one object to an `io::Write` a field at a time, in the
//! bytes `render` gives the same tree, for reports too large to build whole.
//!
//! # Example
//!
//! ```
//! use ise_bench::json::Json;
//!
//! let doc = Json::object([
//!     ("schema", Json::str("demo/v1")),
//!     ("count", Json::uint(3)),
//!     ("ratio", Json::num(0.5)),
//!     ("rows", Json::array([Json::bool(true), Json::str("a\"b")])),
//! ]);
//! assert_eq!(
//!     doc.render(),
//!     r#"{"schema":"demo/v1","count":3,"ratio":0.5,"rows":[true,"a\"b"]}"#
//! );
//! ```

/// A JSON value tree; build it bottom-up and [`Json::render`] it to a string.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, rendered without a fraction.
    UInt(u64),
    /// A finite floating-point number; non-finite values render as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object with keys in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned integer value.
    pub fn uint(v: usize) -> Json {
        Json::UInt(v as u64)
    }

    /// A floating-point value.
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    /// A boolean value.
    pub fn bool(v: bool) -> Json {
        Json::Bool(v)
    }

    /// An array from any iterator of values.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// An object from `(key, value)` pairs, keeping their order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parses `text` as one JSON value (surrounding whitespace allowed).
    ///
    /// Strict over the emitter's subset: objects, arrays, strings with the standard
    /// escapes (`\uXXXX` included, surrogate pairs supported), numbers, booleans and
    /// `null`. Trailing garbage after the value is an error — a protocol line must be
    /// exactly one value.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset and reason on malformed input, and on
    /// arrays and objects nested more than 128 deep: the parser recurses once per
    /// level, so an unbounded depth would let a short hostile line exhaust the stack.
    ///
    /// # Example
    ///
    /// ```
    /// use ise_bench::json::Json;
    ///
    /// let doc = Json::parse(r#"{"op":"enumerate","budget":0,"warm":true}"#).unwrap();
    /// assert_eq!(doc.get("op").and_then(Json::as_str), Some("enumerate"));
    /// assert_eq!(doc.get("budget").and_then(Json::as_u64), Some(0));
    /// assert_eq!(doc.get("warm").and_then(Json::as_bool), Some(true));
    /// assert!(doc.get("missing").is_none());
    /// assert!(Json::parse("{} trailing").is_err());
    /// ```
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::new(pos, "trailing characters after the value"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object; `None` on missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The unsigned-integer content, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric content as `f64` (integers included).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean content, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Num(v) => {
                if v.is_finite() {
                    out.push_str(&v.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(s, out),
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
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes one JSON object to a byte stream a field at a time, in exactly the bytes
/// [`Json::render`] gives the same object. An [`ObjectWriter::array`] field renders
/// its items one at a time, so a document of many rows never exists whole in
/// memory, neither as a tree nor as a string.
///
/// # Example
///
/// ```
/// use ise_bench::json::{Json, ObjectWriter};
///
/// let mut out = Vec::new();
/// let mut doc = ObjectWriter::begin(&mut out).unwrap();
/// doc.field("schema", &Json::str("demo/v1")).unwrap();
/// doc.array("rows", (0..3).map(Json::uint)).unwrap();
/// doc.end().unwrap();
/// let tree = Json::object([
///     ("schema", Json::str("demo/v1")),
///     ("rows", Json::array((0..3).map(Json::uint))),
/// ]);
/// assert_eq!(out, tree.render().into_bytes());
/// ```
pub struct ObjectWriter<'w> {
    out: &'w mut dyn std::io::Write,
    fields: usize,
    /// Reused render buffer of one value.
    scratch: String,
}

impl<'w> ObjectWriter<'w> {
    /// Opens the object on `out`.
    ///
    /// # Errors
    ///
    /// Returns the error of the underlying writer.
    pub fn begin(out: &'w mut dyn std::io::Write) -> std::io::Result<Self> {
        out.write_all(b"{")?;
        Ok(ObjectWriter {
            out,
            fields: 0,
            scratch: String::new(),
        })
    }

    /// Writes the field `key: value`.
    ///
    /// # Errors
    ///
    /// Returns the error of the underlying writer.
    pub fn field(&mut self, key: &str, value: &Json) -> std::io::Result<()> {
        self.key(key)?;
        self.value(value)
    }

    /// Writes the field `key: [items...]`, rendering and writing one item at a time.
    ///
    /// # Errors
    ///
    /// Returns the error of the underlying writer.
    pub fn array(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = Json>,
    ) -> std::io::Result<()> {
        self.key(key)?;
        self.out.write_all(b"[")?;
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.write_all(b",")?;
            }
            self.value(&item)?;
        }
        self.out.write_all(b"]")
    }

    /// Closes the object.
    ///
    /// # Errors
    ///
    /// Returns the error of the underlying writer.
    pub fn end(self) -> std::io::Result<()> {
        self.out.write_all(b"}")
    }

    fn key(&mut self, key: &str) -> std::io::Result<()> {
        self.scratch.clear();
        if self.fields > 0 {
            self.scratch.push(',');
        }
        self.fields += 1;
        write_string(key, &mut self.scratch);
        self.scratch.push(':');
        self.out.write_all(self.scratch.as_bytes())
    }

    fn value(&mut self, value: &Json) -> std::io::Result<()> {
        self.scratch.clear();
        value.write(&mut self.scratch);
        self.out.write_all(self.scratch.as_bytes())
    }
}

/// Error returned by [`Json::parse`]: what went wrong and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl JsonError {
    fn new(offset: usize, reason: impl Into<String>) -> Self {
        JsonError {
            offset,
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(*pos) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::new(*pos, format!("expected `{}`", byte as char)))
    }
}

/// How many arrays and objects [`Json::parse`] accepts inside one another. Far above
/// any document the workspace writes, and far below what exhausts a thread's stack.
const MAX_DEPTH: usize = 128;

/// Parses the value at `pos`, which sits inside `depth` arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(JsonError::new(
            *pos,
            format!("arrays and objects nested more than {MAX_DEPTH} deep"),
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(_) => Err(JsonError::new(*pos, "expected a JSON value")),
        None => Err(JsonError::new(*pos, "unexpected end of input")),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(JsonError::new(*pos, format!("expected `{literal}`")))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(pairs));
            }
            _ => return Err(JsonError::new(*pos, "expected `,` or `}` in object")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(JsonError::new(*pos, "expected `,` or `]` in array")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::new(*pos, "unterminated string")),
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
                        *pos += 1;
                        let unit = parse_hex4(bytes, pos)?;
                        // Decode surrogate pairs; lone surrogates are an error.
                        let c = if (0xd800..0xdc00).contains(&unit) {
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let low = parse_hex4(bytes, pos)?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(JsonError::new(*pos, "invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(combined)
                            } else {
                                None
                            }
                        } else {
                            char::from_u32(unit)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => return Err(JsonError::new(*pos, "invalid \\u escape")),
                        }
                        continue; // parse_hex4 already advanced past the digits
                    }
                    _ => return Err(JsonError::new(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(JsonError::new(*pos, "unescaped control character"));
            }
            Some(_) => {
                // Copy one full UTF-8 scalar (the input is a &str, so boundaries are
                // guaranteed; find the next boundary by skipping continuation bytes).
                let start = *pos;
                *pos += 1;
                while bytes.get(*pos).is_some_and(|b| b & 0xc0 == 0x80) {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..*pos])
                        .expect("input came from a &str, boundaries are valid"),
                );
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let digits = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| JsonError::new(*pos, "truncated \\u escape"))?;
    let text =
        std::str::from_utf8(digits).map_err(|_| JsonError::new(*pos, "non-ASCII in \\u escape"))?;
    let unit =
        u32::from_str_radix(text, 16).map_err(|_| JsonError::new(*pos, "invalid \\u escape"))?;
    *pos += 4;
    Ok(unit)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while bytes
        .get(*pos)
        .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII slice");
    // Integers that fit u64 keep full precision; everything else goes through f64.
    if !text.contains(['.', 'e', 'E', '-']) {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| JsonError::new(start, format!("invalid number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::bool(false).render(), "false");
        assert_eq!(Json::uint(42).render(), "42");
        assert_eq!(Json::num(1.25).render(), "1.25");
        assert_eq!(Json::num(f64::NAN).render(), "null");
        assert_eq!(Json::num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn nesting_preserves_order() {
        let doc = Json::object([
            ("b", Json::uint(1)),
            ("a", Json::array([Json::Null, Json::uint(2)])),
        ]);
        assert_eq!(doc.render(), r#"{"b":1,"a":[null,2]}"#);
    }

    #[test]
    fn object_writer_writes_the_rendered_bytes() {
        let fields = [
            ("a\"key\n", Json::str("v\t\u{1}")),
            ("empty", Json::Array(Vec::new())),
            (
                "nested",
                Json::object([("x", Json::num(0.25)), ("y", Json::Null)]),
            ),
        ];
        let rows = [Json::uint(1), Json::object([("k", Json::bool(false))])];
        let mut out = Vec::new();
        let mut doc = ObjectWriter::begin(&mut out).unwrap();
        for (key, value) in &fields {
            doc.field(key, value).unwrap();
        }
        doc.array("rows", rows.iter().cloned()).unwrap();
        doc.array("none", std::iter::empty()).unwrap();
        doc.end().unwrap();
        let mut tree: Vec<(&str, Json)> = fields.to_vec();
        tree.push(("rows", Json::array(rows)));
        tree.push(("none", Json::Array(Vec::new())));
        assert_eq!(String::from_utf8(out).unwrap(), Json::object(tree).render());

        let mut empty = Vec::new();
        ObjectWriter::begin(&mut empty).unwrap().end().unwrap();
        assert_eq!(empty, b"{}");
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = Json::object([
            ("schema", Json::str("demo/v1")),
            ("count", Json::uint(3)),
            ("big", Json::UInt(u64::MAX)),
            ("ratio", Json::num(0.5)),
            ("flag", Json::bool(true)),
            ("nothing", Json::Null),
            (
                "rows",
                Json::array([
                    Json::str("a\"b\\c\nd\tπ"),
                    Json::Array(Vec::new()),
                    Json::Object(Vec::new()),
                ]),
            ),
        ]);
        let text = doc.render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.render(), text, "parse ∘ render = id");
    }

    #[test]
    fn parse_accessors_navigate_objects() {
        let doc = Json::parse(
            "  {\"op\" : \"group\", \"flags\": {\"nin\": 4, \"x\": -1.5}, \
             \"blocks\": [\"a\", \"b\"]}  ",
        )
        .unwrap();
        assert_eq!(doc.get("op").and_then(Json::as_str), Some("group"));
        let flags = doc.get("flags").unwrap();
        assert_eq!(flags.get("nin").and_then(Json::as_u64), Some(4));
        assert_eq!(flags.get("x").and_then(Json::as_f64), Some(-1.5));
        assert!(matches!(flags, Json::Object(pairs) if pairs.len() == 2));
        let blocks = doc.get("blocks").and_then(Json::as_array).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(doc.get("op").and_then(Json::as_u64), None, "type mismatch");
    }

    #[test]
    fn parse_decodes_escapes_and_surrogates() {
        let parsed = Json::parse(r#""aA\né😀\/""#).unwrap();
        assert_eq!(parsed.as_str(), Some("aA\né😀/"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "\"bad\\q\"",
            "\"lone\\ud800\"",
            "01a",
            "{} {}",
            "nan",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Byte offsets point at the problem.
        let err = Json::parse("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"), "{err}");
    }

    /// A `0` inside `depth` levels of nesting, arrays and objects alternating.
    fn nested(depth: usize) -> String {
        let open: String = (0..depth)
            .map(|i| if i % 2 == 0 { "[" } else { "{\"k\":" })
            .collect();
        let close: String = (0..depth)
            .rev()
            .map(|i| if i % 2 == 0 { "]" } else { "}" })
            .collect();
        format!("{open}0{close}")
    }

    #[test]
    fn parse_caps_the_nesting_depth() {
        let at_cap = Json::parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(Json::parse(&at_cap.render()).unwrap(), at_cap);

        let past = nested(MAX_DEPTH + 1);
        let err = Json::parse(&past).unwrap_err();
        assert_eq!(err.offset, past.find('0').unwrap() - 1, "{err}");
        assert!(err.reason.contains("nested more than 128 deep"), "{err}");

        // Far past the cap the parser stops at the same level instead of recursing
        // until the stack overflows; an unclosed document fails the same way.
        let million = "[".repeat(1_000_000);
        let err = Json::parse(&million).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        let err = Json::parse(&nested(1_000_000)).unwrap_err();
        assert!(err.reason.contains("nested more than"), "{err}");
    }

    #[test]
    fn parse_numbers_keep_integer_precision() {
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(Json::parse("-2").unwrap(), Json::Num(-2.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
    }
}
