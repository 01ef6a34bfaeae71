//! The workspace's one JSON module: a streaming writer and a minimal
//! reader for the suite's own artifacts.
//!
//! The workspace carries no serialization library, so every JSON document
//! it writes — the `BENCH_*` artifacts, golden checksums, trace journals,
//! metrics snapshots and the ops-plane bodies — goes through [`Writer`],
//! and everything that reads one back (`fttt-sim explain`/`replay`, the
//! regression gates) parses with [`JsonValue`]. The encoding rules
//! therefore live here and nowhere else: string escaping
//! ([`format_str`]), float spelling with NaN/±∞ as `null`
//! ([`format_f64`]), and full-range `u64`s as hex strings
//! ([`format_hex`]).
//!
//! The reader is a hand-rolled recursive-descent parser that accepts
//! exactly standard JSON (RFC 8259). It is not performance-tuned; the
//! inputs are artifacts this repo wrote itself.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also produced for NaN/∞ by this crate's writers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64` (the writers only emit f64-exact
    /// values).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. Keys sort; duplicate keys keep the last value.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parses `text` as one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Mutable member `key` of an object, if present.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut JsonValue> {
        match self {
            JsonValue::Obj(map) => map.get_mut(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The elements, mutably, if this is an array.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<JsonValue>> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as an integer, if this is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Member `key`, or an error naming `ctx` and the key. The `req_*`
    /// family is the one way artifact readers demand a field; each error
    /// reads `"{ctx}: missing <what> {key:?}"`.
    pub fn req(&self, key: &str, ctx: &str) -> Result<&JsonValue, String> {
        self.require(key, ctx, "", Some)
    }

    fn require<'a, T>(
        &'a self,
        key: &str,
        ctx: &str,
        what: &str,
        read: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(read)
            .ok_or_else(|| format!("{ctx}: missing {what}{key:?}"))
    }

    /// Member `key` as a whole number.
    pub fn req_u64(&self, key: &str, ctx: &str) -> Result<u64, String> {
        self.require(key, ctx, "integral ", JsonValue::as_u64)
    }

    /// Member `key` as a number.
    pub fn req_f64(&self, key: &str, ctx: &str) -> Result<f64, String> {
        self.require(key, ctx, "numeric ", JsonValue::as_f64)
    }

    /// Member `key` as a boolean.
    pub fn req_bool(&self, key: &str, ctx: &str) -> Result<bool, String> {
        self.require(key, ctx, "boolean ", JsonValue::as_bool)
    }

    /// Member `key` as a string.
    pub fn req_str(&self, key: &str, ctx: &str) -> Result<&str, String> {
        self.require(key, ctx, "string ", JsonValue::as_str)
    }

    /// Member `key` as a full-range `u64` written by [`Obj::hex`].
    pub fn req_hex(&self, key: &str, ctx: &str) -> Result<u64, String> {
        self.require(key, ctx, "hex ", |v| v.as_str().and_then(parse_hex))
    }

    /// Member `key` as an array.
    pub fn req_array(&self, key: &str, ctx: &str) -> Result<&[JsonValue], String> {
        self.get(key)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{ctx}: missing {key:?} array"))
    }

    /// Member `key` as an object.
    pub fn req_object(&self, key: &str, ctx: &str) -> Result<&BTreeMap<String, JsonValue>, String> {
        match self.get(key) {
            Some(JsonValue::Obj(map)) => Ok(map),
            _ => Err(format!("{ctx}: missing {key:?} object")),
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
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by this
                            // crate's writers; map lone surrogates to the
                            // replacement character rather than erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    if (c as u32) < 0x20 {
                        return Err(format!("raw control character at byte {}", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ascii by construction");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

/// Formats an `f64` as a JSON number literal: Rust's `Display` for finite
/// values (the shortest decimal string that parses back to the exact same
/// bits — so writer → [`JsonValue::parse`] → `f64` round-trips losslessly),
/// `null` for NaN/infinities (JSON has no spelling for them).
///
/// This is *the* float formatter for every artifact this workspace writes;
/// anything that a checksum or a replay diff will later re-read must go
/// through it rather than a truncating `format!("{:.3}")`.
pub fn format_f64(v: f64) -> String {
    let mut out = String::new();
    v.write_to(&mut out);
    out
}

/// Escapes `s` as a JSON string literal (quotes, backslashes, and control
/// characters below U+0020).
pub fn format_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    s.write_to(&mut out);
    out
}

/// Renders a full-range `u64` (seed, digest, epoch) in the canonical
/// artifact form: `0x`-prefixed, zero-padded, lowercase hex. Such values
/// travel as JSON *strings* because JSON numbers are f64 and lose integer
/// precision above 2^53.
pub fn format_hex(value: u64) -> String {
    format!("{value:#018x}")
}

/// Parses the [`format_hex`] form back to a value.
pub fn parse_hex(text: &str) -> Option<u64> {
    let hex = text.strip_prefix("0x")?;
    if hex.is_empty() || hex.len() > 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// A value [`Writer`] can emit as a JSON scalar.
pub trait Scalar {
    /// Appends the value's JSON spelling to `out`.
    fn write_to(&self, out: &mut String);
}

impl Scalar for f64 {
    fn write_to(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

macro_rules! display_scalars {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_to(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_scalars!(u8, u64, usize, i32, bool);

impl Scalar for str {
    fn write_to(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Scalar for String {
    fn write_to(&self, out: &mut String) {
        self.as_str().write_to(out);
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_to(&self, out: &mut String) {
        (**self).write_to(out);
    }
}

/// `None` is `null`.
impl<T: Scalar> Scalar for Option<T> {
    fn write_to(&self, out: &mut String) {
        match self {
            Some(v) => v.write_to(out),
            None => out.push_str("null"),
        }
    }
}

/// The streaming JSON writer behind every document the workspace emits.
///
/// Containers are opened with closures ([`Writer::object`], [`Obj::object`],
/// [`Obj::array`], …), so every `{` and `[` is closed by construction, and
/// members come out in exactly the order the caller writes them. Each
/// top-level object ends with a newline, so a compact writer fed several
/// objects produces JSONL.
///
/// There are two layouts, and call sites only pick between them:
///
/// * **compact** — no whitespace at all: `{"a":1,"b":[1,2]}`;
/// * **pretty** — two-space indentation, with one rule: objects put one
///   member per line; arrays stay on one line (`[1, 2]`), unless their
///   elements are containers, in which case each element gets a line of
///   its own and is written whole on it (`{ "a": 1, "b": [1, 2] }`). So a
///   record array — trace events, campaign rows — reads as
///   one record per line.
#[derive(Debug)]
pub struct Writer {
    out: String,
    pretty: bool,
    /// Indentation level of the innermost multi-line container.
    depth: usize,
    /// Inside a record written on one line.
    inline: bool,
}

impl Writer {
    /// A writer with the compact layout.
    pub fn compact() -> Self {
        Self {
            out: String::new(),
            pretty: false,
            depth: 0,
            inline: false,
        }
    }

    /// A writer with the pretty layout.
    pub fn pretty() -> Self {
        Self {
            pretty: true,
            ..Self::compact()
        }
    }

    /// Writes one top-level object built by `f`, then a newline.
    pub fn object(&mut self, f: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        self.write_object(f);
        self.out.push('\n');
        self
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// A line break indented to the current depth.
    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    fn write_object(&mut self, f: impl FnOnce(&mut Obj<'_>)) {
        self.out.push('{');
        let broken = self.pretty && !self.inline;
        self.depth += usize::from(broken);
        let mut obj = Obj {
            w: self,
            n: 0,
            broken,
        };
        f(&mut obj);
        let n = obj.n;
        self.depth -= usize::from(broken);
        if n > 0 {
            if broken {
                self.newline();
            } else if self.pretty {
                self.out.push(' ');
            }
        }
        self.out.push('}');
    }

    fn write_array(&mut self, f: impl FnOnce(&mut Arr<'_>)) {
        self.out.push('[');
        let mut arr = Arr {
            w: self,
            n: 0,
            broken: false,
        };
        f(&mut arr);
        let broken = arr.broken;
        if broken {
            self.depth -= 1;
            self.newline();
        }
        self.out.push(']');
    }
}

/// A one-object document in the pretty layout, newline-terminated.
pub fn pretty(f: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut w = Writer::pretty();
    w.object(f);
    w.finish()
}

/// A one-object document in the compact layout, newline-terminated.
pub fn compact(f: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut w = Writer::compact();
    w.object(f);
    w.finish()
}

/// The open object inside a [`Writer`] closure.
#[derive(Debug)]
pub struct Obj<'a> {
    w: &'a mut Writer,
    n: usize,
    broken: bool,
}

impl Obj<'_> {
    fn key(&mut self, key: &str) {
        if self.n > 0 {
            self.w.out.push(',');
        }
        if self.broken {
            self.w.newline();
        } else if self.w.pretty {
            self.w.out.push(' ');
        }
        self.n += 1;
        key.write_to(&mut self.w.out);
        self.w.out.push(':');
        if self.w.pretty {
            self.w.out.push(' ');
        }
    }

    /// Member `key` with a scalar value.
    pub fn field(&mut self, key: &str, value: impl Scalar) -> &mut Self {
        self.key(key);
        value.write_to(&mut self.w.out);
        self
    }

    /// Member `key` holding a full-range `u64` as a [`format_hex`] string.
    pub fn hex(&mut self, key: &str, value: u64) -> &mut Self {
        self.field(key, format_hex(value))
    }

    /// Member `key` holding the object built by `f`.
    pub fn object(&mut self, key: &str, f: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        self.key(key);
        self.w.write_object(f);
        self
    }

    /// Member `key` holding the array built by `f`.
    pub fn array(&mut self, key: &str, f: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        self.key(key);
        self.w.write_array(f);
        self
    }
}

/// The open array inside a [`Writer`] closure.
#[derive(Debug)]
pub struct Arr<'a> {
    w: &'a mut Writer,
    n: usize,
    broken: bool,
}

impl Arr<'_> {
    /// Separates the next element; the first one decides whether the
    /// array breaks (pretty layout, outside a record, container element).
    fn element(&mut self, container: bool) {
        if self.n == 0 && container && self.w.pretty && !self.w.inline {
            self.broken = true;
            self.w.depth += 1;
        }
        if self.n > 0 {
            self.w.out.push(',');
        }
        if self.broken {
            self.w.newline();
        } else if self.w.pretty && self.n > 0 {
            self.w.out.push(' ');
        }
        self.n += 1;
    }

    /// A scalar element.
    pub fn item(&mut self, value: impl Scalar) -> &mut Self {
        self.element(false);
        value.write_to(&mut self.w.out);
        self
    }

    /// One scalar element per item of `values`.
    pub fn items<T: Scalar>(&mut self, values: impl IntoIterator<Item = T>) -> &mut Self {
        for v in values {
            self.item(v);
        }
        self
    }

    /// An object element built by `f`, written whole on one line (its
    /// own line when the array breaks).
    pub fn object(&mut self, f: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        self.element(true);
        let outer = std::mem::replace(&mut self.w.inline, true);
        self.w.write_object(f);
        self.w.inline = outer;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(
            JsonValue::parse(" -1.5e2 ").unwrap(),
            JsonValue::Num(-150.0)
        );
        assert_eq!(
            JsonValue::parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            JsonValue::Str("a\n\"bA".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc =
            JsonValue::parse(r#"{"rows": [{"n": 10, "ok": true}, {"n": 20}], "x": null}"#).unwrap();
        let rows = doc.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("n").unwrap().as_f64(), Some(10.0));
        assert_eq!(rows[0].get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("x"), Some(&JsonValue::Null));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn round_trips_own_snapshot_export() {
        let r = crate::Registry::new();
        r.counter("fttt.match.evaluations").add(12);
        r.gauge("fttt.session.samples_k").set(7.5);
        r.histogram("fttt.match.tie_width", &[1.0, 2.0])
            .observe(1.0);
        let doc = JsonValue::parse(&r.snapshot().to_json()).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("fttt.match.evaluations"))
                .and_then(JsonValue::as_u64),
            Some(12)
        );
        assert_eq!(
            doc.get("gauges")
                .and_then(|g| g.get("fttt.session.samples_k"))
                .and_then(JsonValue::as_f64),
            Some(7.5)
        );
        let h = doc
            .get("histograms")
            .and_then(|h| h.get("fttt.match.tie_width"))
            .unwrap();
        assert_eq!(h.get("count").and_then(JsonValue::as_u64), Some(1));
    }

    #[test]
    fn mutation_helpers_reach_nested_numbers() {
        let mut doc = JsonValue::parse(r#"{"match_us": {"packed_exhaustive": 100.0}}"#).unwrap();
        let v = doc
            .get_mut("match_us")
            .and_then(|m| m.get_mut("packed_exhaustive"))
            .unwrap();
        *v = JsonValue::Num(1000.0);
        assert_eq!(
            doc.get("match_us")
                .and_then(|m| m.get("packed_exhaustive"))
                .and_then(JsonValue::as_f64),
            Some(1000.0)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{}{}").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    fn parse_compact(f: impl FnOnce(&mut Obj<'_>)) -> (String, JsonValue) {
        let mut w = Writer::compact();
        w.object(f);
        let text = w.finish();
        let value = JsonValue::parse(&text).unwrap();
        (text, value)
    }

    #[test]
    fn writer_escapes_round_trip() {
        let controls: String = (0u32..0x20).filter_map(char::from_u32).collect();
        let nasty = format!("q\"b\\s/{controls}é€😀\u{2028}");
        let (text, doc) = parse_compact(|o| {
            o.field(&nasty, nasty.as_str());
        });
        assert!(
            !text[..text.len() - 1].contains('\n'),
            "raw control in {text:?}"
        );
        assert_eq!(
            doc.get(&nasty).and_then(JsonValue::as_str),
            Some(nasty.as_str())
        );
        assert_eq!(format_str("a\"\u{1}"), "\"a\\\"\\u0001\"");
    }

    #[test]
    fn writer_spells_non_finite_floats_as_null() {
        let (text, doc) = parse_compact(|o| {
            o.field("nan", f64::NAN)
                .field("inf", f64::INFINITY)
                .field("ninf", f64::NEG_INFINITY)
                .field("none", None::<u64>)
                .field("tenth", 0.1);
        });
        assert_eq!(
            text,
            "{\"nan\":null,\"inf\":null,\"ninf\":null,\"none\":null,\"tenth\":0.1}\n"
        );
        assert_eq!(doc.get("ninf"), Some(&JsonValue::Null));
        assert_eq!(format_f64(f64::NAN), "null");
    }

    #[test]
    fn full_range_u64_round_trips_as_hex() {
        for v in [0, 42, (1 << 53) + 1, u64::MAX] {
            let (_, doc) = parse_compact(|o| {
                o.hex("v", v);
            });
            assert_eq!(doc.req_hex("v", "test"), Ok(v));
        }
        assert_eq!(format_hex(42), "0x000000000000002a");
        assert_eq!(parse_hex("0x"), None);
        assert_eq!(parse_hex("2a"), None);
    }

    fn sample(o: &mut Obj<'_>) {
        o.field("name", "doc")
            .object("empty_obj", |_| {})
            .array("empty_arr", |_| {})
            .array("scalars", |a| {
                a.items([1.5, 2.0]);
            })
            .object("nested", |n| {
                n.field("k", 7).object("deeper", |d| {
                    d.field("ok", true);
                });
            })
            .array("records", |a| {
                a.object(|r| {
                    r.field("i", 0).object("args", |x| {
                        x.field("s", "a");
                    });
                })
                .object(|r| {
                    r.field("i", 1).array("v", |v| {
                        v.item(1).item(2);
                    });
                })
                .object(|_| {});
            });
    }

    #[test]
    fn compact_layout_is_exact() {
        let (text, _) = parse_compact(sample);
        assert_eq!(
            text,
            "{\"name\":\"doc\",\"empty_obj\":{},\"empty_arr\":[],\"scalars\":[1.5,2],\
             \"nested\":{\"k\":7,\"deeper\":{\"ok\":true}},\"records\":[{\"i\":0,\
             \"args\":{\"s\":\"a\"}},{\"i\":1,\"v\":[1,2]},{}]}\n"
        );
    }

    #[test]
    fn pretty_layout_is_exact_and_parses_like_compact() {
        let mut w = Writer::pretty();
        w.object(sample);
        let pretty = w.finish();
        let expected = "{\n\
            \x20 \"name\": \"doc\",\n\
            \x20 \"empty_obj\": {},\n\
            \x20 \"empty_arr\": [],\n\
            \x20 \"scalars\": [1.5, 2],\n\
            \x20 \"nested\": {\n\
            \x20   \"k\": 7,\n\
            \x20   \"deeper\": {\n\
            \x20     \"ok\": true\n\
            \x20   }\n\
            \x20 },\n\
            \x20 \"records\": [\n\
            \x20   { \"i\": 0, \"args\": { \"s\": \"a\" } },\n\
            \x20   { \"i\": 1, \"v\": [1, 2] },\n\
            \x20   {}\n\
            \x20 ]\n\
            }\n";
        assert_eq!(pretty, expected);
        let (_, compact) = parse_compact(sample);
        assert_eq!(JsonValue::parse(&pretty).unwrap(), compact);
    }

    #[test]
    fn compact_writer_emits_one_object_per_line() {
        let mut w = Writer::compact();
        w.object(|o| {
            o.field("a", 1);
        })
        .object(|_| {});
        assert_eq!(w.finish(), "{\"a\":1}\n{}\n");
    }

    #[test]
    fn required_fields_name_context_and_key() {
        let doc = JsonValue::parse(r#"{"n": 1.5, "s": "x", "o": {}, "a": []}"#).unwrap();
        assert_eq!(doc.req_f64("n", "ctx"), Ok(1.5));
        assert_eq!(doc.req_str("s", "ctx"), Ok("x"));
        assert!(doc.req_object("o", "ctx").unwrap().is_empty());
        assert!(doc.req_array("a", "ctx").unwrap().is_empty());
        assert_eq!(
            doc.req_u64("n", "ctx"),
            Err("ctx: missing integral \"n\"".into())
        );
        assert_eq!(
            doc.req_bool("s", "ctx"),
            Err("ctx: missing boolean \"s\"".into())
        );
        assert_eq!(
            doc.req_array("o", "ctx"),
            Err("ctx: missing \"o\" array".into())
        );
        assert_eq!(doc.req("zz", "ctx"), Err("ctx: missing \"zz\"".into()));
    }

    #[test]
    fn parses_jsonl_lines_independently() {
        let text = "{\"kind\":\"meta\",\"dropped\":0}\n{\"seq\":1,\"name\":\"x\"}\n";
        let lines: Vec<JsonValue> = text.lines().map(|l| JsonValue::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("name").and_then(JsonValue::as_str), Some("x"));
    }
}
