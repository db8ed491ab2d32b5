//! The workspace's one JSON format: a value type, a reader
//! ([`parse_json`]) and a writer ([`Json::pretty`], [`Json::compact`]).
//!
//! Every artifact — bench records under `results/`, the `BENCH_*.json`
//! baselines, the Chrome trace, the metrics snapshot and the autotune cache
//! — is built as a [`Json`] value and written here, and every gate reads it
//! back with [`parse_json`]. There is no derive: a record is assembled with
//! [`Json::obj`] and the `From` conversions, so its key order is the order
//! the caller lists.
//!
//! Numbers are one `f64` type, as in JSON itself. The writer prints the
//! shortest text that parses back to the same `f64`, so
//! `parse_json(&v.pretty()) == Ok(v)` for every value it can write.
//! Non-finite numbers have no JSON spelling: the writer prints them as
//! `null` (as `JSON.stringify` does), so a NaN reads back as a missing
//! number rather than as a file no parser accepts.

use std::fmt::Write as _;

/// A JSON value. Object fields keep their insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// A number that is an exact non-negative integer (JSON has one number
    /// type; counts round-trip exactly up to 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = (1u64 << 53) as f64;
        self.as_num()
            .filter(|n| n.fract() == 0.0 && (0.0..=EXACT).contains(n))
            .map(|n| n as u64)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An object whose fields appear in the given order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `v` rounded to `decimals` places, exactly as `format!("{v:.N}")`
    /// prints it: for records whose committed values carry a fixed
    /// precision (host wall times, ratios).
    pub fn fixed(v: f64, decimals: usize) -> Json {
        Json::Num(format!("{v:.decimals$}").parse().unwrap_or(v))
    }

    /// Pretty form, for files: two-space indent, one member per line, a
    /// trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Compact form, for one-line records: no whitespace, no newline.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// `indent` is the current nesting depth in pretty form, `None` in
    /// compact form.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, ['[', ']'], items, |out, v, ind| {
                v.write(out, ind)
            }),
            Json::Obj(fields) => write_seq(out, indent, ['{', '}'], fields, |out, (k, v), ind| {
                write_str(out, k);
                out.push_str(if ind.is_some() { ": " } else { ":" });
                v.write(out, ind);
            }),
        }
    }
}

/// Numbers. Integers are exact up to 2^53, the limit of JSON's one number
/// type.
macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}
from_number!(f64, u64, u32, u8, usize);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Shortest round-trip text. Integral values print without a fraction
/// (`42`, not `42.0`); the rest use Rust's shortest round-trip `Debug` form
/// (`0.1`, `1e-7`, `1e300`). Non-finite values print as `null`.
fn write_num(out: &mut String, v: f64) {
    const EXACT: f64 = (1u64 << 53) as f64;
    let _ = if !v.is_finite() {
        write!(out, "null")
    } else if v.fract() == 0.0 && v.abs() <= EXACT {
        write!(out, "{v}")
    } else {
        write!(out, "{v:?}")
    };
}

/// A string literal with `"`, `\` and control characters escaped.
fn write_str(out: &mut String, s: &str) {
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

/// `[a, b]` / `{...}`: empty containers stay on one line; in pretty form
/// each item sits on its own line one level deeper.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    [open, close]: [char; 2],
    items: &[T],
    mut item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(open);
    if !items.is_empty() {
        let inner = indent.map(|d| d + 1);
        for (i, v) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            newline(out, inner);
            item(out, v, inner);
        }
        newline(out, indent);
    }
    out.push(close);
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf8 in number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input came from a
                    // Rust string, so boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf8"))?;
                    if let Some(c) = rest.chars().next() {
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parse a JSON document (the full grammar).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr<T: Copy + Into<Json>>(items: &[T]) -> Json {
        Json::Arr(items.iter().map(|&v| v.into()).collect())
    }

    #[test]
    fn parse_json_handles_the_grammar() {
        let doc = parse_json("{\"a\": [1, -2.5e1, \"s\\u0041\", true, false, null], \"b\": {}}")
            .expect("parses");
        let arr = doc.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].as_num(), Some(-25.0));
        assert_eq!(arr[2].as_str(), Some("sA"));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[5], Json::Null);
        assert!(parse_json("{\"unterminated\": ").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    /// `parse_json(write(v)) == v` in both forms, over the grammar.
    #[test]
    fn writer_round_trips_through_the_parser() {
        let exact = (1u64 << 53) as f64;
        let nums = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -25.0,
            1.0 / 3.0,
            123_456_789.125,
            1e-7,
            -1e-300,
            5e-324,
            1.5e300,
            f64::MAX,
            exact - 1.0,
            exact,
            -exact,
            exact + 2.0,
        ];
        let strs = [
            "",
            "plain",
            "quote \" backslash \\ slash /",
            "\n\r\t\u{8}\u{c}",
            "\u{0}\u{1}\u{1f}\u{7f}",
            "unicode é ✓ 😀",
        ];
        let mut values = vec![Json::Null, Json::Bool(true), Json::Bool(false)];
        values.extend(nums.iter().map(|&n| Json::from(n)));
        values.extend(strs.iter().map(|&s| Json::from(s)));
        values.extend([
            Json::Arr(vec![]),
            Json::obj(Vec::<(String, Json)>::new()),
            Json::Arr(vec![Json::Arr(vec![]), Json::Arr(vec![Json::Arr(vec![])])]),
            Json::Arr(vec![Json::from(Some(1.5)), Json::from(None::<f64>)]),
            arr(&nums),
            Json::obj([
                ("nested", Json::obj([("deeper", arr(&[1u64, 2, 3]))])),
                ("k\"ey\n", arr(&strs)),
                ("count", Json::from(u64::MAX >> 11)),
                ("empty", Json::obj(Vec::<(String, Json)>::new())),
            ]),
        ]);
        for v in &values {
            for text in [v.pretty(), v.compact()] {
                assert_eq!(parse_json(&text).as_ref(), Ok(v), "{text}");
            }
            if let Json::Num(n) = v {
                let back = parse_json(&v.compact()).ok().and_then(|j| j.as_num());
                assert_eq!(
                    back.map(f64::to_bits),
                    Some(n.to_bits()),
                    "sign and bits survive"
                );
            }
        }
    }

    #[test]
    fn numbers_print_in_shortest_form() {
        let cases = [
            (42.0, "42"),
            (-0.0, "-0"),
            (0.1, "0.1"),
            (2.5e-7, "2.5e-7"),
            (1e300, "1e300"),
            (9_007_199_254_740_992.0, "9007199254740992"),
        ];
        for (v, text) in cases {
            assert_eq!(Json::from(v).compact(), text);
        }
        assert_eq!(Json::fixed(2.0 / 3.0, 6).compact(), "0.666667");
        assert_eq!(Json::fixed(1.0, 6).compact(), "1");
        assert_eq!(Json::fixed(12.3456, 3), Json::Num(12.346));
    }

    /// The policy for numbers JSON cannot spell: `null`, never `NaN`.
    #[test]
    fn non_finite_numbers_write_as_null() {
        let v = arr(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(v.compact(), "[null,null,null]");
        assert_eq!(
            parse_json(&v.pretty()),
            Ok(Json::Arr(vec![Json::Null, Json::Null, Json::Null]))
        );
        assert_eq!(Json::fixed(f64::NAN, 3).compact(), "null");
    }

    #[test]
    fn pretty_layout_is_two_space_indented() {
        let v = Json::obj([
            ("bench", Json::from("x")),
            ("n", Json::from(3usize)),
            ("a", arr(&[0.5, 2.0])),
            ("e", Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"bench\": \"x\",\n  \"n\": 3,\n  \"a\": [\n    0.5,\n    2\n  ],\n  \"e\": []\n}\n"
        );
        assert_eq!(
            v.compact(),
            "{\"bench\":\"x\",\"n\":3,\"a\":[0.5,2],\"e\":[]}"
        );
    }
}
