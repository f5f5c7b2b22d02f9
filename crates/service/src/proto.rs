//! A minimal JSON value model for the daemon's newline-delimited wire
//! protocol.
//!
//! The workspace is deliberately dependency-free (the build environment
//! is offline), so the protocol layer carries its own small JSON
//! implementation: a recursive-descent parser and a serializer over a
//! [`Json`] value enum. It supports the full JSON grammar except
//! `\uXXXX` escapes beyond the BMP-direct ones the protocol never emits
//! (inputs using them are rejected, not mangled), which is all the
//! daemon's request/response shapes need. Exactness matters in one
//! place: numbers round-trip through Rust's shortest-representation
//! float formatting, the same rule the result cache's row encoding
//! relies on for bit-identical `bits` columns.

use std::fmt;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`; integers up to 2⁵³
    /// round-trip exactly, far beyond any job id or cell count).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered (serialization is deterministic).
    Obj(Vec<(String, Json)>),
    /// Already-serialized JSON text, printed verbatim. Output-only:
    /// [`Json::parse`] never produces it, and the producer guarantees
    /// the text is the exact serialization of the value it stands for.
    Raw(String),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.at));
        }
        Ok(value)
    }

    /// The value under an object key, if this is an object having it.
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

    /// The numeric payload as a non-negative integer, if exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience constructor for an object.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a number.
    #[allow(clippy::cast_precision_loss)]
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Convenience constructor for a string.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_num(f, *n),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
            Json::Raw(text) => f.write_str(text),
        }
    }
}

/// The wire's one number spelling: an integral value (below 2⁵³) as an
/// integer, anything else as the shortest text that round-trips.
pub(crate) fn write_num(out: &mut impl fmt::Write, n: f64) -> fmt::Result {
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        if n < 0.0 {
            out.write_char('-')?;
        }
        write_digits(out, n.abs() as u64)
    } else {
        write!(out, "{n:?}")
    }
}

/// Writes `v` in decimal.
pub(crate) fn write_digits(out: &mut impl fmt::Write, mut v: u64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"))
}

/// Writes `s` as a quoted JSON string, copying each run of characters
/// that need no escape in one `write_str`.
pub(crate) fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    // Every escaped character is ASCII, so byte offsets of escapes are
    // always char boundaries.
    for (at, byte) in s.bytes().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.write_str(&s[run..at])?;
        match byte {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{byte:04x}")?,
        }
        run = at + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.at)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.at;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.at += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.at])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let escaped = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.at += 1;
                    out.push(match escaped {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.at))?;
                            self.at += 4;
                            char::from_u32(hex)
                                .ok_or_else(|| "surrogate \\u escapes unsupported".to_string())?
                        }
                        other => return Err(format!("unknown escape \\{}", char::from(other))),
                    });
                }
                None => return Err("unterminated string".to_string()),
                _ => unreachable!("inner loop stops at quote or backslash"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let req = Json::parse(
            r#"{"op":"submit_sweep","specs":["scatter-gather[s=8,n=384,aligned,b=6]"],"registry":null}"#,
        )
        .unwrap();
        assert_eq!(req.get("op").and_then(Json::as_str), Some("submit_sweep"));
        assert_eq!(
            req.get("specs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(req.get("registry"), Some(&Json::Null));
        assert_eq!(req.get("missing"), None);
    }

    #[test]
    fn round_trips_nested_values() {
        for text in [
            "null",
            "true",
            "[1,2.5,-3,\"x\"]",
            r#"{"a":{"b":[{"c":null}]},"d":""}"#,
            r#""quote \" backslash \\ newline \n""#,
            "0.1",
            "1e300",
        ] {
            let v = Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let reprinted = v.to_string();
            assert_eq!(
                Json::parse(&reprinted).unwrap(),
                v,
                "{text} → {reprinted} must re-parse identically"
            );
        }
    }

    #[test]
    fn float_formatting_round_trips_exactly() {
        for bits in [2.321_928_094_887_362f64, 0.1 + 0.2, f64::MIN_POSITIVE] {
            let text = Json::Num(bits).to_string();
            let back = Json::parse(&text).unwrap();
            match back {
                Json::Num(n) => assert_eq!(n.to_bits(), bits.to_bits(), "{text}"),
                other => panic!("expected number, got {other:?}"),
            }
        }
    }

    #[test]
    fn integers_print_without_a_fraction() {
        assert_eq!(Json::num(26).to_string(), "26");
        assert_eq!(Json::num(0).to_string(), "0");
        assert_eq!(Json::parse("26").unwrap().as_u64(), Some(26));
        assert_eq!(Json::parse("26.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "\"unterminated",
            "nulL",
            "1 2",
            "NaN",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
