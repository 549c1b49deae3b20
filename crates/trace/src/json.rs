//! The workspace's one JSON codec: a strict parser and a byte-stable
//! writer, hand-rolled because every crate here is zero-dependency.
//!
//! Parsing is strict enough for a network boundary (every syntax error is
//! a typed reject, never a panic) but deliberately small: objects,
//! arrays, strings with the standard escapes, `f64` numbers, booleans,
//! `null`. Rendering goes the other way with one determinism discipline
//! for every caller: object fields are written in a fixed order by the
//! caller, floats with Rust's shortest round-trip `{:?}` formatting (same
//! bits ⇒ same bytes), so a replayed request stream, a re-exported trace
//! or a re-taken cache snapshot produces byte-identical output.

use std::fmt::Write as _;

/// Deepest array/object nesting a line may use. The parser recurses once
/// per level, so without a cap one line of `[`s overflows the stack and
/// aborts the daemon; requests nest three levels deep.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object fields keep their textual order; the
/// protocol layer looks keys up by name, duplicates resolve to the first.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error (a request line is exactly one value).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (first match); `None` on non-objects.
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (rejects fractions,
    /// negatives, and anything above 2^53).
    pub fn as_usize(&self) -> Option<usize> {
        let v = self.as_f64()?;
        if v.fract() == 0.0 && (0.0..=9007199254740992.0).contains(&v) {
            Some(v as usize)
        } else {
            None
        }
    }

    /// The element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl JsonParser<'_> {
    fn ws(&mut self) {
        while matches!(
            self.bytes.get(self.pos),
            Some(b' ' | b'\t' | b'\n' | b'\r')
        ) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.lit("false").map(|_| Json::Bool(false)),
            Some(b'n') => self.lit("null").map(|_| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected byte 0x{c:02x} at offset {}", self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    /// Parses a container one level deeper, rejecting nesting past
    /// [`MAX_DEPTH`] before it can recurse.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn lit(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected `{word}` at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_owned())?;
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(format!("bad number `{text}` at offset {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            // Surrogates degrade to the replacement
                            // character; the protocol never emits them.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err("bad escape".to_owned()),
                    }
                }
                Some(&b) if b < 0x20 => return Err("control byte in string".to_owned()),
                Some(_) => {
                    // Consume the run of plain bytes up to the next quote,
                    // escape or control byte. Those are ASCII, so they
                    // never split a UTF-8 scalar, and each byte is
                    // validated once — a long string parses in linear time.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "non-utf8 string")?;
                    out.push_str(run);
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(format!("expected object key at offset {}", self.pos));
            }
            let key = self.string()?;
            self.ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(format!("expected `:` at offset {}", self.pos));
            }
            self.pos += 1;
            self.ws();
            let value = self.value()?;
            fields.push((key, value));
            self.ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn push_str_escaped(out: &mut String, s: &str) {
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

/// Appends a float with deterministic shortest-round-trip rendering
/// (non-finite values become quoted strings so the line stays JSON).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        let _ = write!(out, "\"{v}\"");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_request_shapes() {
        let v = Json::parse(r#"{"op":"size","macro":"mux8:dom","load":15.5,"n":3}"#)
            .expect("valid");
        assert_eq!(v.get("op").and_then(Json::as_str), Some("size"));
        assert_eq!(v.get("load").and_then(Json::as_f64), Some(15.5));
        assert_eq!(v.get("n").and_then(Json::as_usize), Some(3));
        let v = Json::parse(r#"{"requests":[{"macro":"inc4"},{"macro":"zd8"}],"x":null}"#)
            .expect("valid");
        assert_eq!(v.get("requests").and_then(Json::as_array).map(<[_]>::len), Some(2));
        assert_eq!(v.get("x"), Some(&Json::Null));
    }

    #[test]
    fn escapes_round_trip() {
        let mut s = String::new();
        push_str_escaped(&mut s, "a\"b\\c\nd\te\u{1}");
        let back = Json::parse(&s).expect("valid");
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn rejects_malformed_lines_without_panicking() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1}x",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&deep(MAX_DEPTH + 1)).is_err());
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        // Far past the cap: rejected without recursing into it.
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn as_usize_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(2.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Num(7.0).as_usize(), Some(7));
    }
}
