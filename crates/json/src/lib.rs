//! # dns-json — the shared hand-rolled JSON layer
//!
//! The workspace vendors no serde. This crate is the one place that
//! knows how JSON is read and written: a dynamic [`Json`] value, a
//! recursive-descent [`parse`]r, the matching deterministic serializer
//! [`Json::dump`], and the two adapters that serializer writes through,
//! [`Num`] (a number) and [`Quoted`] (an escaped, quoted string). Every
//! line protocol in the stack uses them: the campaign server's requests,
//! run-spec files and queue journal build [`Json`] values; the writers
//! that stream fixed-order lines without a tree (the health flight
//! recorder, the telemetry counts and trace exports, and the campaign
//! daemon's job table behind `status`, `/api/v1/jobs` and
//! `/api/v1/queue`) format through `Num` and `Quoted` directly, so no
//! file or reply the stack writes can drift from what [`parse`] reads
//! back.
//!
//! [`parse`] recurses once per `[` or `{`, so it refuses a document that
//! nests deeper than [`MAX_DEPTH`] (128) with a [`JsonError`] instead of
//! running its thread out of stack: the daemon parses request lines of
//! up to 1 MiB from any client. The deepest document the stack writes
//! nests 6 levels (`BENCH_table4.json`).
//!
//! Determinism matters more than speed here: object keys live in a
//! [`BTreeMap`], so a value always serializes to the same bytes — which
//! is what lets the queue journal CRC a record's canonical serialization
//! and verify it byte-for-byte on replay. Numbers are `f64` (every value
//! the protocols emit fits in the 2^53 exact-integer range; 64-bit
//! digests travel as hex strings instead).

#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers are exact up to 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` keeps serialization canonical.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Field lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Exact non-negative integer value, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// String slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build a number from anything convertible to `f64` without loss
    /// concerns at the call site (`u32`, small `u64`s, `f64`, ...).
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Start an object builder.
    pub fn obj() -> ObjBuilder {
        ObjBuilder(BTreeMap::new())
    }

    /// Serialize to the canonical compact form: object keys in sorted
    /// (`BTreeMap`) order, no whitespace, integers (in the exact `f64`
    /// range) without a fractional part, other numbers in Rust's
    /// shortest round-trip form. Non-finite numbers, which JSON cannot
    /// represent, serialize as `null`.
    ///
    /// ```
    /// use dns_json::Json;
    /// let v = Json::obj().put("b", Json::num(2)).put("a", Json::str("x")).build();
    /// assert_eq!(v.dump(), r#"{"a":"x","b":2}"#);
    /// assert_eq!(dns_json::parse(&v.dump()).unwrap(), v);
    /// ```
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => push(out, Num(*n)),
            Json::Str(s) => push(out, Quoted(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push(out, Quoted(k));
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append an adapter's rendering to a `String` (which takes every write).
fn push(out: &mut String, v: impl fmt::Display) {
    let _ = write!(out, "{v}");
}

/// Incremental object construction for the writer side.
///
/// ```
/// use dns_json::Json;
/// let v = Json::obj().put("ok", Json::Bool(true)).build();
/// assert_eq!(v.dump(), r#"{"ok":true}"#);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ObjBuilder(BTreeMap<String, Json>);

impl ObjBuilder {
    /// Insert a field (replacing any previous value under the key).
    pub fn put(mut self, key: impl Into<String>, value: Json) -> ObjBuilder {
        self.0.insert(key.into(), value);
        self
    }

    /// Insert a field only when `value` is `Some`.
    pub fn put_opt(self, key: impl Into<String>, value: Option<Json>) -> ObjBuilder {
        match value {
            Some(v) => self.put(key, v),
            None => self,
        }
    }

    /// Finish into a [`Json::Obj`].
    pub fn build(self) -> Json {
        Json::Obj(self.0)
    }
}

/// A number as the serializer writes it: exact integers in the `±2^53`
/// range without a fractional part, everything else in Rust's shortest
/// round-trip decimal form, non-finite values as `null`.
///
/// ```
/// use dns_json::Num;
/// assert_eq!(format!("{} {} {}", Num(2.0), Num(0.125), Num(f64::NAN)), "2 0.125 null");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Num(pub f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        if !n.is_finite() {
            f.write_str("null")
        } else if n == 0.0 && n.is_sign_negative() {
            // the integer form below would drop the sign bit
            f.write_str("-0.0")
        } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
            write!(f, "{}", n as i64)
        } else {
            write!(f, "{n}")
        }
    }
}

/// A string as the serializer writes it, quotes included: the two
/// mandatory escapes plus readable control-character forms, `\u` for the
/// rest of C0.
///
/// ```
/// use dns_json::Quoted;
/// assert_eq!(Quoted("a\"b\n\u{1}").to_string(), r#""a\"b\n\u0001""#);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        // every escaped character is ASCII, so the runs between them
        // start and end on char boundaries
        let mut run = 0;
        for (i, b) in self.0.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            f.write_str(&self.0[run..i])?;
            run = i + 1;
            match b {
                b'"' => f.write_str("\\\"")?,
                b'\\' => f.write_str("\\\\")?,
                b'\n' => f.write_str("\\n")?,
                b'\r' => f.write_str("\\r")?,
                b'\t' => f.write_str("\\t")?,
                c => write!(f, "\\u{c:04x}")?,
            }
        }
        f.write_str(&self.0[run..])?;
        f.write_char('"')
    }
}

/// Parse failure with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset of the failure.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document; trailing non-whitespace, and nesting
/// deeper than [`MAX_DEPTH`], are errors.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            at: self.pos,
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

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn eat_word(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// The value at `pos`, inside `depth` open arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_word("true", Json::Bool(true)),
            Some(b'f') => self.eat_word("false", Json::Bool(false)),
            Some(b'n') => self.eat_word("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for the
                            // protocols' ASCII-escaped output; reject
                            // rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape outside the BMP"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // copy the whole run up to the next quote or backslash:
                    // both are ASCII, so in input that came from a `&str`
                    // the run starts and ends on a char boundary
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let s =
                        std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5e3").unwrap(), Json::Num(-2500.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        let v = parse(r#"{"k": [1, 2, {"x": "y"}], "n": null}"#).unwrap();
        assert_eq!(v.get("n"), Some(&Json::Null));
        match v.get("k") {
            Some(Json::Arr(items)) => {
                assert_eq!(items[0].as_u64(), Some(1));
                assert_eq!(items[2].get("x").and_then(Json::as_str), Some("y"));
            }
            other => panic!("bad array: {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\" 1}",
            "12 34",
            "tru",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH, "{err}");
        assert!(parse(&("{\"a\":".repeat(MAX_DEPTH + 1) + "1")).is_err());
        // a 1 MiB line of `[` on a thread with the default 2 MiB stack,
        // as the daemon's connection threads parse their requests: an
        // error, not a stack overflow that aborts the process
        let got = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| parse(&"[".repeat(1 << 20)).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(got);
    }

    #[test]
    fn roundtrips_escapes() {
        let v = parse(r#""quote \" slash \\ tab \t unicode A""#).unwrap();
        assert_eq!(v.as_str(), Some("quote \" slash \\ tab \t unicode A"));
    }

    #[test]
    fn integers_are_exact() {
        let v = parse("9007199254740992").unwrap(); // 2^53
        assert_eq!(v.as_u64(), Some(9007199254740992));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn dump_is_canonical_and_roundtrips() {
        let v = Json::obj()
            .put("z", Json::num(3))
            .put("a", Json::Arr(vec![Json::Null, Json::Bool(false)]))
            .put("s", Json::str("tab\there"))
            .put("f", Json::Num(0.125))
            .build();
        let text = v.dump();
        // keys in sorted order, integers without fraction
        assert_eq!(
            text,
            r#"{"a":[null,false],"f":0.125,"s":"tab\there","z":3}"#
        );
        assert_eq!(parse(&text).unwrap(), v);
        // canonical: dump(parse(dump(x))) == dump(x)
        assert_eq!(parse(&text).unwrap().dump(), text);
    }

    #[test]
    fn numbers_round_trip_bit_exactly() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -17.0,
            0.1,
            1e-9,
            2.5e17,
            9_007_199_254_740_992.0,
            -9_007_199_254_740_992.0,
            std::f64::consts::PI,
            f64::MIN_POSITIVE,
        ] {
            let text = Num(x).to_string();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text} -> {back}");
        }
        assert_eq!(Num(f64::NAN).to_string(), "null");
        assert_eq!(Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(-0.0).dump(), "-0.0");
    }

    #[test]
    fn builder_put_opt_and_helpers() {
        let v = Json::obj()
            .put_opt("present", Some(Json::num(1)))
            .put_opt("absent", None)
            .build();
        assert_eq!(v.dump(), r#"{"present":1}"#);
        assert_eq!(v.get("absent"), None);
        assert_eq!(Json::str("x").as_str(), Some("x"));
        assert_eq!(Json::num(4u32).as_u64(), Some(4));
    }

    #[test]
    fn quoted_matches_writer() {
        let s = "a\"b\\c\nd\u{1}é";
        assert_eq!(Quoted(s).to_string(), "\"a\\\"b\\\\c\\nd\\u0001é\"");
        assert_eq!(Quoted(s).to_string(), Json::str(s).dump());
    }

    /// Plain runs, multi-byte chars, every character the writer escapes
    /// (quote, backslash, named and `\u` control escapes) and DEL, which
    /// it does not.
    const PALETTE: [&str; 16] = [
        "a",
        "plain run ",
        "é",
        "ß",
        "€",
        "日本",
        "🦀",
        "\"",
        "\\",
        "/",
        "\n",
        "\r",
        "\t",
        "\u{1}",
        "\u{1f}",
        "\u{7f}",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn strings_round_trip_through_dump(
            picks in proptest::collection::vec(0usize..PALETTE.len(), 0..40)
        ) {
            let s: String = picks.iter().map(|&i| PALETTE[i]).collect();
            let text = Json::str(&s).dump();
            proptest::prop_assert_eq!(parse(&text).unwrap(), Json::Str(s.clone()));
            // inside a document, next to other keys, too
            let doc = Json::obj().put("k", Json::str(&s)).put("z", Json::Null).build();
            proptest::prop_assert_eq!(parse(&doc.dump()).unwrap(), doc);
        }
    }
}
