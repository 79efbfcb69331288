//! The workspace's one JSON module: the writer helpers every artifact and serve
//! event is rendered with ([`json_string`], [`json_f64`]) and the parser the serve
//! front end reads requests with ([`Json::parse`]).
//!
//! The parser is a minimal strict recursive-descent one — the build has no
//! registry access for a real parser crate.  Trailing garbage, malformed escapes
//! and lone surrogates are errors, and so is nesting deeper than [`MAX_DEPTH`]:
//! requests come from untrusted clients, and unbounded recursion would let one
//! line of `[[[[…` overflow the stack of the process serving every session.

use std::fmt::Write as _;

/// Deepest container nesting [`Json::parse`] accepts.  The protocol's requests
/// are flat objects; the bound only has to keep recursion far from the stack limit.
pub const MAX_DEPTH: usize = 128;

/// Render `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Render a float as a JSON number (full precision), or `null` when it is not
/// finite.  Rust's `{}` prints an integral f64 as e.g. `3`, which is valid JSON.
pub fn json_f64(f: f64) -> String {
    if f.is_finite() {
        format!("{f}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always carried as `f64`; the protocol's integers are
    /// well within the 2^53 exact range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order preserved; duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document (the whole string must be consumed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut at = 0usize;
        let value = parse_value(bytes, &mut at, 0)?;
        skip_ws(bytes, &mut at);
        if at != bytes.len() {
            return Err(format!("trailing bytes at offset {at}"));
        }
        Ok(value)
    }

    /// Object field lookup (last duplicate wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as an exact non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], at: &mut usize) {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(*at) {
        *at += 1;
    }
}

fn expect(bytes: &[u8], at: &mut usize, what: u8) -> Result<(), String> {
    if bytes.get(*at) == Some(&what) {
        *at += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {at}", what as char, at = *at))
    }
}

/// Parse the value at `at`, which sits inside `depth` enclosing containers.
fn parse_value(bytes: &[u8], at: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, at);
    match bytes.get(*at) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at offset {at}", at = *at))
        }
        Some(b'{') => parse_object(bytes, at, depth + 1),
        Some(b'[') => parse_array(bytes, at, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, at)?)),
        Some(b't') => parse_literal(bytes, at, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, at, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, at, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, at),
        _ => Err(format!("unexpected input at offset {at}", at = *at)),
    }
}

fn parse_literal(bytes: &[u8], at: &mut usize, literal: &str, value: Json) -> Result<Json, String> {
    if bytes[*at..].starts_with(literal.as_bytes()) {
        *at += literal.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {at}", at = *at))
    }
}

fn parse_number(bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    let start = *at;
    if bytes.get(*at) == Some(&b'-') {
        *at += 1;
    }
    while let Some(c) = bytes.get(*at) {
        if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
            *at += 1;
        } else {
            break;
        }
    }
    std::str::from_utf8(&bytes[start..*at])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at offset {start}"))
}

fn parse_string(bytes: &[u8], at: &mut usize) -> Result<String, String> {
    expect(bytes, at, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*at).copied() {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *at += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *at += 1;
                let escape = bytes.get(*at).copied().ok_or("unterminated escape")?;
                *at += 1;
                match escape {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let first = parse_hex4(bytes, at)?;
                        let scalar = if (0xD800..0xDC00).contains(&first) {
                            // Surrogate pair: the low half must follow as \uXXXX.
                            if bytes.get(*at) == Some(&b'\\') && bytes.get(*at + 1) == Some(&b'u') {
                                *at += 2;
                                let second = parse_hex4(bytes, at)?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err("bad low surrogate".to_string());
                                }
                                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                            } else {
                                return Err("lone high surrogate".to_string());
                            }
                        } else {
                            first
                        };
                        out.push(char::from_u32(scalar).ok_or("bad unicode escape")?);
                    }
                    _ => return Err(format!("bad escape \\{}", escape as char)),
                }
            }
            Some(byte) => {
                if byte < 0x20 {
                    return Err("raw control character in string".to_string());
                }
                // Multi-byte UTF-8 passes through verbatim (input was &str).
                let start = *at;
                *at += 1;
                while *at < bytes.len() && bytes[*at] & 0xC0 == 0x80 {
                    *at += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*at]).map_err(|_| "bad utf-8")?);
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: &mut usize) -> Result<u32, String> {
    let hex = bytes.get(*at..*at + 4).ok_or("truncated \\u escape")?;
    *at += 4;
    u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?, 16)
        .map_err(|_| "bad \\u escape".to_string())
}

fn parse_array(bytes: &[u8], at: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, at, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b']') {
        *at += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, at, depth)?);
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => *at += 1,
            Some(b']') => {
                *at += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {at}", at = *at)),
        }
    }
}

fn parse_object(bytes: &[u8], at: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, at, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b'}') {
        *at += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, at);
        let key = parse_string(bytes, at)?;
        skip_ws(bytes, at);
        expect(bytes, at, b':')?;
        let value = parse_value(bytes, at, depth)?;
        fields.push((key, value));
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => *at += 1,
            Some(b'}') => {
                *at += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {at}", at = *at)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_requests() {
        let req = Json::parse(
            r#"{"cmd":"submit","experiment":"fig02_05","job":3,"scale":"tiny","procs":8}"#,
        )
        .unwrap();
        assert_eq!(req.get("cmd").and_then(Json::as_str), Some("submit"));
        assert_eq!(req.get("job").and_then(Json::as_u64), Some(3));
        assert_eq!(req.get("procs").and_then(Json::as_u64), Some(8));
        assert!(req.get("seed").is_none());
    }

    #[test]
    fn parses_nesting_escapes_and_numbers() {
        let doc = Json::parse(r#"{"a":[1, -2.5, 1e3, "xA\n\"", {"b": null}], "t": true}"#).unwrap();
        let Json::Arr(items) = doc.get("a").unwrap() else { panic!("array") };
        assert_eq!(items[0], Json::Num(1.0));
        assert_eq!(items[1], Json::Num(-2.5));
        assert_eq!(items[2], Json::Num(1000.0));
        assert_eq!(items[3], Json::Str("xA\n\"".to_string()));
        assert_eq!(items[4].get("b"), Some(&Json::Null));
        assert_eq!(doc.get("t"), Some(&Json::Bool(true)));
    }

    #[test]
    fn surrogate_pairs_and_raw_utf8_round_trip() {
        let doc = Json::parse(r#"{"s":"😀 é"}"#).unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("😀 é"));
        assert_eq!(Json::parse(r#""😀""#), Ok(Json::Str("😀".to_string())));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", r#"{"a" 1}"#, "tru", "1 2", r#""\ud800""#, "\u{1}", "nan"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let doc = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        // Far past the bound: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn writer_escapes_and_null_floats() {
        assert_eq!(json_string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
