//! The workspace's one JSON reader and its emission helpers.
//!
//! The workspace builds without serde, so every JSON artifact (bench
//! records, manifests, metrics snapshots) is emitted by hand through
//! [`json_str`] and [`json_f64`], keeping escaping rules in one place,
//! and every document (scenes, bench records, checkpoints, analysis
//! baselines, profiles, status files, daemon bodies, and each line of a
//! `phantom-trace/1` file) is read back through the tree [`Json`].
//!
//! Two properties of [`Json`] matter to its callers:
//!
//! * **Order preservation** — objects are `Vec<(String, Json)>`, not a
//!   map, so serialize∘parse is the identity on the textual key order
//!   and scene files stay diffable.
//! * **Float round-trips** — numbers are emitted in Rust's
//!   shortest-roundtrip form ([`json_f64`]) and parsed with
//!   `str::parse::<f64>` (correctly rounded), so a parsed document
//!   re-serializes to the very same bits.

use std::fmt::Write as _;

/// Format an `f64` as a JSON value. JSON has no NaN/Infinity literals;
/// they map to `null`.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Quote and escape a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
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

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in textual key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document; trailing non-whitespace is an
    /// error. Errors name the line and column of the offending byte.
    pub fn parse(text: &str) -> Result<Json, String> {
        Json::parse_line(text, 1)
    }

    /// [`Json::parse`] for one line of a JSONL file: errors count lines
    /// from `line_no`, so they name the line of the file, not of the
    /// slice.
    pub fn parse_line(text: &str, line_no: usize) -> Result<Json, String> {
        let mut p = Parser {
            text,
            s: text.as_bytes(),
            i: 0,
            line0: line_no,
        };
        p.ws();
        let v = p.value(0)?;
        p.ws();
        if p.i != p.s.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Compact serialization (no whitespace). Non-finite numbers render
    /// as `null`, mirroring the artifact writers.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                let _ = write!(out, "{}", json_f64(*v));
            }
            Json::Str(s) => out.push_str(&json_str(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_str(k));
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Object member lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if this is one.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Nesting-depth cap: every document the workspace reads is shallow,
/// and the parser recurses.
pub const MAX_DEPTH: usize = 64;

/// Recursive-descent state. `i` only ever advances past whole UTF-8
/// scalars, so it always sits on a char boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    s: &'a [u8],
    i: usize,
    line0: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        let mut line = self.line0;
        let mut col = 1usize;
        for &b in &self.s[..self.i.min(self.s.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        format!("line {line} col {col}: {msg}")
    }

    fn ws(&mut self) {
        while let Some(&b) = self.s.get(self.i) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[', "`[`")?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value(depth + 1)?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{', "`{`")?;
        let mut pairs = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':', "`:` after object key")?;
            self.ws();
            let val = self.value(depth + 1)?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key `{key}`")));
            }
            pairs.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"', "`\"`")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
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
                            self.i += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.s[self.i..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.i += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.i += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar; the input is a &str, so the
                    // encoding is already valid.
                    let c = self.text[self.i..]
                        .chars()
                        .next()
                        .expect("peeked non-empty");
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.i + 4 > self.s.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.i += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Parser| {
            let mut n = 0;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.i += 1;
                n += 1;
            }
            n
        };
        // Integer part: `0` or a non-zero-led digit run.
        match self.peek() {
            Some(b'0') => {
                self.i += 1;
            }
            Some(b'1'..=b'9') => {
                digits(self);
            }
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if digits(self) == 0 {
                return Err(self.err("expected digits after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if digits(self) == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
        let v: f64 = text
            .parse()
            .map_err(|_| self.err(&format!("bad number `{text}`")))?;
        Ok(Json::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_non_finite_floats_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(0.25), "0.25");
    }

    #[test]
    fn parses_and_dumps_the_basics() {
        let j = Json::parse(r#"{"a":[1,2.5,-3e2],"b":"x\ny","c":null,"d":true}"#).unwrap();
        assert_eq!(j.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            j.dump(),
            r#"{"a":[1,2.5,-300],"b":"x\ny","c":null,"d":true}"#
        );
        // Dump → parse is the identity on the tree.
        assert_eq!(Json::parse(&j.dump()).unwrap(), j);
    }

    #[test]
    fn errors_name_line_and_column() {
        let e = Json::parse("{\n  \"a\": 01\n}").unwrap_err();
        assert!(e.starts_with("line 2"), "{e}");
        let e = Json::parse(r#"{"a":1,"a":2}"#).unwrap_err();
        assert!(e.contains("duplicate key `a`"), "{e}");
        assert!(Json::parse(r#"{"a":1}x"#).unwrap_err().contains("trailing"));
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"\\q\"").is_err());
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, 1.0 / 3.0, 1e-300, 123_456_789.123_456_78, -0.0] {
            let s = Json::Num(v).dump();
            match Json::parse(&s).unwrap() {
                Json::Num(back) => assert_eq!(back.to_bits(), v.to_bits(), "{s}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        let j = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(j.as_str(), Some("😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn jsonl_lines_report_their_file_line() {
        let e = Json::parse_line("{\"a\": 01}", 7).unwrap_err();
        assert!(e.starts_with("line 7 col 8:"), "{e}");
    }
}
