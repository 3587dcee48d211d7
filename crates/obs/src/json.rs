//! A minimal, zero-dependency JSON parser.
//!
//! Backs the sidecar readback paths — [`sink::parse_json_lines`]
//! (metrics sidecars for `trajc obs merge`) and the trace-smoke tests
//! that re-parse Chrome Trace Event exports. It parses the full JSON
//! grammar (objects, arrays, strings with escapes, numbers, booleans,
//! null) into a [`Json`] tree; numbers become `f64`, objects preserve
//! key order. It is a reader for files this workspace wrote, not a
//! general-purpose validator: nesting deeper than [`MAX_DEPTH`] is
//! rejected rather than recursed into.
//!
//! [`sink::parse_json_lines`]: crate::sink::parse_json_lines

/// Maximum nesting depth accepted by [`parse`].
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always parsed as `f64`).
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source key order (duplicate keys are kept).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value rounded to `u64`, if this is a non-negative
    /// number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && *n <= 1.8446744073709552e19 => Some(n.round() as u64),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
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

    /// The key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error. Errors carry a byte offset and a short description.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.consume(b'{')?;
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
            self.consume(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos += chunk.len();
                }
            }
        }
    }

    /// Decodes the `\uXXXX` escape whose `u` is at `pos`. A high
    /// surrogate combines only with a following low-surrogate escape;
    /// anything unpaired is U+FFFD and what follows is left unread.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4(self.pos + 1).ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 5;
        let lo = match self.bytes.get(self.pos..self.pos + 2) {
            Some(b"\\u") if (0xD800..0xDC00).contains(&hi) => {
                self.hex4(self.pos + 2).filter(|lo| (0xDC00..0xE000).contains(lo))
            }
            _ => None,
        };
        let code = match lo {
            Some(lo) => {
                self.pos += 6;
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            None => hi,
        };
        Ok(char::from_u32(code).unwrap_or('\u{FFFD}'))
    }

    /// The value of the four ASCII hex digits at `at` (no sign, unlike
    /// `from_str_radix`).
    fn hex4(&self, at: usize) -> Option<u32> {
        let digits = self.bytes.get(at..at + 4)?;
        digits.iter().try_fold(0, |acc, &b| Some((acc << 4) | char::from(b).to_digit(16)?))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null"), Ok(Json::Null));
        assert_eq!(parse("true"), Ok(Json::Bool(true)));
        assert_eq!(parse("42"), Ok(Json::Number(42.0)));
        assert_eq!(parse("-1.5e3"), Ok(Json::Number(-1500.0)));
        assert_eq!(parse(r#""hi""#), Ok(Json::String("hi".to_string())));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":"c"}],"d":{"e":null}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_array).map(<[Json]>::len), Some(3));
        assert_eq!(
            v.get("a").and_then(Json::as_array).and_then(|a| a[2].get("b")).and_then(Json::as_str),
            Some("c")
        );
        assert_eq!(v.get("d").and_then(|d| d.get("e")), Some(&Json::Null));
    }

    #[test]
    fn decodes_escapes() {
        let v = parse(r#""line\nquote\" tab\t A snowman☃""#).unwrap();
        assert_eq!(v.as_str(), Some("line\nquote\" tab\t A snowman☃"));
    }

    #[test]
    fn decodes_surrogate_pairs() {
        let v = parse(r#""\uD83D\uDE00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn decodes_every_escape_pair_like_decode_utf16() {
        let units = [0x0041u16, 0xD7FF, 0xD800, 0xDBFF, 0xDC00, 0xDFFF, 0xE000, 0xFFFF];
        for hi in units {
            for lo in units {
                let text = format!("\"\\u{hi:04X}\\u{lo:04X}\"");
                let expected: String = char::decode_utf16([hi, lo])
                    .map(|c| c.unwrap_or('\u{FFFD}'))
                    .collect();
                assert_eq!(parse(&text), Ok(Json::String(expected)), "{text}");
            }
        }
        assert_eq!(
            parse(r#""\uD800\uD83D\uDE00""#),
            Ok(Json::String("\u{FFFD}😀".to_string()))
        );
    }

    #[test]
    fn rejects_escapes_that_are_not_four_hex_digits() {
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u04""#, r#""\uD800\u+C00""#] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("nulL").is_err());
    }

    #[test]
    fn round_trips_sink_output() {
        let line = r#"{"subsystem":"compress","name":"sed_evals","labels":{"algo":"td-tr"},"kind":"counter","value":841}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("subsystem").and_then(Json::as_str), Some("compress"));
        assert_eq!(v.get("value").and_then(Json::as_u64), Some(841));
        assert_eq!(
            v.get("labels").and_then(|l| l.get("algo")).and_then(Json::as_str),
            Some("td-tr")
        );
    }

    #[test]
    fn u64_conversion_bounds() {
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1e30").unwrap().as_u64(), None);
    }
}
