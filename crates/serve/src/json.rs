//! A minimal JSON value, parser, and writer.
//!
//! The workspace vendors no JSON library, and the serving
//! front end only needs a small, predictable subset: finite numbers,
//! strings, booleans, null, arrays, and objects. Numbers are parsed into
//! `f64`. Served tensors leave as `f32` text: each value is written as
//! the shortest decimal that reads back as that `f32`
//! ([`gobo_obs::json::write_f32`], std's `{}` text, an exact tie rounded
//! up), and parsing it as `f64` and narrowing gives back the identical
//! bit pattern, which is what keeps served tensors byte-identical to
//! in-process results. The one magnitude whose shortest text would not
//! survive that `f64` step, ±7.038531e-26, is written as its widened
//! `f64`'s text instead.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An array of `f32`s, written through
    /// [`gobo_obs::json::write_f32_array`]. Only [`Json::f32_array`]
    /// builds one; [`parse`] reads the text back as an [`Json::Arr`].
    F32s(Vec<f32>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u32::MAX as f64 => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Interprets an array of whole numbers as token ids.
    pub fn as_usize_array(&self) -> Option<Vec<usize>> {
        self.as_array()?.iter().map(Json::as_usize).collect()
    }

    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Builds an array of numbers from `f32` data that renders exactly
    /// as an encode reply writes its tensors: each value as its shortest
    /// `f32` text.
    pub fn f32_array(values: &[f32]) -> Json {
        Json::F32s(values.to_vec())
    }

    /// Builds an array of numbers from `usize` data.
    pub fn usize_array(values: &[usize]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v as f64)).collect())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) => gobo_obs::json::write_number(f, *v),
            Json::F32s(values) => {
                let mut text = Vec::new();
                gobo_obs::json::write_f32_array(&mut text, values);
                f.write_str(std::str::from_utf8(&text).map_err(|_| fmt::Error)?)
            }
            Json::Str(s) => gobo_obs::json::write_string(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    gobo_obs::json::write_string(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Maximum nesting depth accepted by [`parse`].
const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error,
/// including trailing non-whitespace after the top-level value.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes.get(self.pos..).unwrap_or_default().starts_with(lit.as_bytes()) {
            self.pos = self.pos.saturating_add(lit.len());
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!("unexpected `{}` at byte {}", other as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth.saturating_add(1))?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value(depth.saturating_add(1))?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let run = self.bytes.get(start..self.pos).unwrap_or_default();
                let chunk =
                    std::str::from_utf8(run).map_err(|_| "invalid utf-8 in string".to_owned())?;
                out.push_str(chunk);
            }
            match self.peek() {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: recombine, else replace.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self
                                    .bytes
                                    .get(self.pos..)
                                    .unwrap_or_default()
                                    .starts_with(b"\\u")
                                {
                                    self.pos = self.pos.saturating_add(2);
                                    let low = self.hex4()?;
                                    // ARITH: `code` is a validated high
                                    // surrogate (0xD800..0xDC00).
                                    let high = (code - 0xD800) << 10;
                                    let low10 = low.wrapping_sub(0xDC00) & 0x3FF;
                                    // ARITH: low is masked to 10 bits;
                                    // the scalar tops out at 0x10FFFF.
                                    let combined = 0x10000 + high + low10;
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(code).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos.saturating_add(4);
        let digits =
            self.bytes.get(self.pos..end).ok_or_else(|| "truncated \\u escape".to_owned())?;
        let hex = std::str::from_utf8(digits).map_err(|_| "bad \\u escape".to_owned())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_owned())?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let text = std::str::from_utf8(self.bytes.get(start..self.pos).unwrap_or_default())
            .map_err(|_| "bad number".to_owned())?;
        let value: f64 = text.parse().map_err(|_| format!("bad number `{text}`"))?;
        if !value.is_finite() {
            return Err(format!("non-finite number `{text}`"));
        }
        Ok(Json::Num(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_basic_values() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "3.5",
            "[1,2,3]",
            "\"hi\"",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_string(), text, "{text}");
        }
    }

    #[test]
    fn f32_values_survive_bit_exactly() {
        let mut values: Vec<f32> =
            (0..200).map(|i| ((i as f32) * 0.1234567).sin() * 10f32.powi((i % 11) - 5)).collect();
        values.extend([-0.0, f32::MIN_POSITIVE, f32::from_bits(1), -f32::from_bits(0x0040_0001)]);
        let text = Json::f32_array(&values).to_string();
        let parsed = parse(&text).unwrap();
        let back: Vec<f32> =
            parsed.as_array().unwrap().iter().map(|v| v.as_f64().unwrap() as f32).collect();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn string_escapes() {
        let v = parse("\"a\\n\\\"b\\\\c\\u0041\\t\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "a\n\"b\\cA\t");
        // Writer escapes control characters back out.
        let text = Json::Str("x\ny\"z".into()).to_string();
        assert_eq!(parse(&text).unwrap().as_str().unwrap(), "x\ny\"z");
    }

    #[test]
    fn surrogate_pair() {
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "\u{1F600}");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1.2.3",
            "\"open",
            "[1] extra",
            "{\"a\":}",
            "nan",
            "01x",
        ] {
            assert!(parse(bad).is_err(), "should reject `{bad}`");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn accessors() {
        let v = parse("{\"ids\":[1,2,3],\"name\":\"m\",\"bad\":[1.5]}").unwrap();
        assert_eq!(v.get("ids").unwrap().as_usize_array().unwrap(), vec![1, 2, 3]);
        assert_eq!(v.get("name").unwrap().as_str(), Some("m"));
        assert!(v.get("bad").unwrap().as_usize_array().is_none());
        assert!(v.get("missing").is_none());
        assert_eq!(Json::usize_array(&[4, 5]).to_string(), "[4,5]");
    }
}
