//! The workspace's one JSON module: a value type, compact and pretty
//! writers, and a strict RFC 8259 parser. Everything here that writes
//! or reads JSON — the metrics export, the replay record, fault plans —
//! goes through it.

use std::fmt::{self, Write as _};
use std::ops::Index;

/// Arrays and objects nested deeper than this are refused, so hostile
/// input (`[[[[…`) cannot exhaust the parser's stack.
const MAX_DEPTH: usize = 64;

/// A JSON value. Objects keep insertion order, so a record is written
/// the way the code that built it reads. `{}` prints the one-line
/// encoding, `{:#}` the two-space indented one.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer; exact up to `u64::MAX` (seeds, counts).
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

macro_rules! json_from {
    ($($t:ty => $wrap:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                ($wrap)(v)
            }
        }
    )*};
}
json_from!(u64 => Json::Int, f64 => Json::Num, String => Json::Str, Vec<Json> => Json::Arr);
json_from!(usize => |v| Json::Int(v as u64), &str => |v: &str| Json::Str(v.to_owned()));

/// Build a [`Json::Obj`] from `key => value` pairs, in the order given.
#[macro_export]
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key.to_string(), $crate::json::Json::from($value))),*])
    };
}

/// `value["key"]`: the member, or `null` when `value` is not an object
/// or has no such member.
impl Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        let Json::Obj(members) = self else {
            return &Json::Null;
        };
        let member = members.iter().find(|(k, _)| k == key);
        member.map_or(&Json::Null, |(_, value)| value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, f.alternate().then_some(2), 0);
        f.write_str(&out)
    }
}

impl Json {
    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', width * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => write!(out, "{n}").expect("writing to a String"),
            // `{:?}` is the shortest decimal that round-trips and always
            // carries a `.` or an exponent, so it parses back as `Num`;
            // JSON has no NaN or infinity.
            Json::Num(n) if n.is_finite() => write!(out, "{n:?}").expect("writing to a String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Obj(members) if members.is_empty() => out.push_str("{}"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    newline(out, depth + 1);
                    write_str(out, key);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(out, indent, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse one JSON document, strictly: no trailing characters, no
    /// duplicate object keys, no leading zeros or `+`, no bare control
    /// characters or lone surrogates in strings, at most 64 levels of
    /// nesting. The error names the byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, rest: text };
        let value = p.value(0)?;
        p.skip_ws();
        if !p.rest.is_empty() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }
}

/// Append `s` as a JSON string literal, escaped as RFC 8259 requires.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("writing to a String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A document and its unread tail.
struct Parser<'a> {
    text: &'a str,
    rest: &'a str,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        let at = self.text.len() - self.rest.len();
        format!("JSON: {what} at byte {at}")
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start_matches([' ', '\t', '\n', '\r']);
    }

    fn eat(&mut self, literal: &str) -> bool {
        let tail = self.rest.strip_prefix(literal);
        self.rest = tail.unwrap_or(self.rest);
        tail.is_some()
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.rest.bytes().next() {
            None => Err(self.error("unexpected end")),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.error("nesting too deep")),
            Some(b'[') => self.container(depth, "]"),
            Some(b'{') => self.container(depth, "}"),
            Some(_) => self.number(),
        }
    }

    /// `[ value (, value)* ]` or `{ key: value (, key: value)* }` or
    /// either empty, whitespace anywhere.
    fn container(&mut self, depth: usize, close: &str) -> Result<Json, String> {
        self.rest = &self.rest[1..];
        let (mut items, mut members) = (Vec::new(), Vec::<(String, Json)>::new());
        self.skip_ws();
        let mut done = self.eat(close);
        while !done {
            if close == "}" {
                self.skip_ws();
                let key = self.string()?;
                if members.iter().any(|(k, _)| *k == key) {
                    return Err(self.error(&format!("duplicate key {key:?}")));
                }
                self.skip_ws();
                if !self.eat(":") {
                    return Err(self.error("expected ':'"));
                }
                members.push((key, self.value(depth + 1)?));
            } else {
                items.push(self.value(depth + 1)?);
            }
            self.skip_ws();
            done = self.eat(close);
            if !done && !self.eat(",") {
                return Err(self.error(&format!("expected ',' or '{close}'")));
            }
        }
        match close {
            "}" => Ok(Json::Obj(members)),
            _ => Ok(Json::Arr(items)),
        }
    }

    /// A plain non-negative integer that fits `u64` stays exact; every
    /// other number is an `f64`.
    fn number(&mut self) -> Result<Json, String> {
        let end = self.rest.find(|c: char| !"+-.0123456789Ee".contains(c));
        let text = &self.rest[..end.unwrap_or(self.rest.len())];
        // JSON's grammar is `f64::from_str`'s minus a leading `+` or `.`, a
        // zero before another digit, and a `.` without a digit after it.
        let digit = |s: &str| s.starts_with(|c: char| c.is_ascii_digit());
        let unsigned = text.strip_prefix('-').unwrap_or(text);
        let strict = digit(unsigned)
            && !(unsigned.starts_with('0') && digit(&unsigned[1..]))
            && unsigned.split_once('.').is_none_or(|(_, f)| digit(f));
        let float = text.parse().ok().filter(|n: &f64| n.is_finite());
        let value = match text.parse::<u64>() {
            _ if !strict => None,
            Ok(n) => Some(Json::Int(n)),
            Err(_) => float.map(Json::Num),
        };
        let value = value.ok_or_else(|| self.error("expected a value"))?;
        self.rest = &self.rest[text.len()..];
        Ok(value)
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let is_hex = |h: &&str| h.bytes().all(|b| b.is_ascii_hexdigit());
        let hex = self.rest.get(..4).filter(is_hex);
        let hex = hex.ok_or_else(|| self.error("bad \\u escape"))?;
        self.rest = &self.rest[4..];
        Ok(u16::from_str_radix(hex, 16).expect("four hex digits"))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            let stop = self.rest.find(|c| c < ' ' || c == '"' || c == '\\');
            let stop = stop.ok_or_else(|| self.error("unterminated string"))?;
            out.push_str(&self.rest[..stop]);
            self.rest = &self.rest[stop..];
            if self.eat("\"") {
                return Ok(out);
            }
            if !self.eat("\\") {
                return Err(self.error("control character in string"));
            }
            let esc = self.rest.chars().next();
            let esc = esc.ok_or_else(|| self.error("unterminated string"))?;
            self.rest = &self.rest[esc.len_utf8()..];
            match esc {
                '"' | '\\' | '/' => out.push(esc),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    // A run of `\u` escapes is UTF-16: a surrogate
                    // without its partner does not decode.
                    let mut units = vec![self.hex4()?];
                    while self.eat("\\u") {
                        units.push(self.hex4()?);
                    }
                    let decoded = String::from_utf16(&units);
                    out.push_str(&decoded.map_err(|_| self.error("lone surrogate"))?);
                }
                _ => return Err(self.error("unknown escape")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        obj! {
            "name" => "lookup-skew",
            "seed" => u64::MAX,
            "above_2_53" => 9_007_199_254_740_993u64,
            "rate" => 1_234.567_890_123_4_f64,
            "whole" => 2.0f64,
            "tiny" => -1.5e-7f64,
            "huge" => 1e300f64,
            "ok" => Json::Bool(true),
            "escapes" => "a\n\"b\\\t\u{1}\u{7f}é😀",
            "empty" => obj! {},
            "nested" => vec![Json::Null, Json::Arr(vec![]), obj! {"k" => vec![Json::from(0u64)]}],
        }
    }

    #[test]
    fn both_writers_round_trip_through_the_parser() {
        let doc = sample();
        for text in [
            format!("{doc}"),
            format!("{doc:#}"),
            format!(" \t\r\n{doc:#}\n"),
        ] {
            assert_eq!(Json::parse(&text).as_ref(), Ok(&doc), "{text}");
        }
        assert_eq!(
            obj! {"a" => 1u64, "b" => vec![Json::from(2.5f64), Json::Null]}.to_string(),
            r#"{"a":1,"b":[2.5,null]}"#
        );
        assert_eq!(
            format!(
                "{:#}",
                obj! {"a" => 1u64, "b" => vec![Json::from("x")], "c" => obj! {}}
            ),
            "{\n  \"a\": 1,\n  \"b\": [\n    \"x\"\n  ],\n  \"c\": {}\n}"
        );
        // Not-a-number has no JSON spelling.
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn integers_stay_exact_up_to_u64_max() {
        assert_eq!(
            Json::parse("[18446744073709551615, 9007199254740993, 0]"),
            Ok(Json::Arr(vec![
                Json::Int(u64::MAX),
                Json::Int(9_007_199_254_740_993),
                Json::Int(0)
            ]))
        );
        // One past u64::MAX, negatives, fractions and exponents are numbers,
        // never integers.
        for (text, value) in [
            ("18446744073709551616", 18446744073709551616.0),
            ("-1", -1.0),
            ("1.0", 1.0),
            ("1e3", 1000.0),
            ("1E+3", 1000.0),
            ("-0", -0.0),
            ("0.5e-1", 0.05),
        ] {
            assert_eq!(Json::parse(text), Ok(Json::Num(value)), "{text}");
        }
    }

    #[test]
    fn indexing_reads_members_and_null_elsewhere() {
        let doc = sample();
        assert_eq!(doc["name"], Json::from("lookup-skew"));
        assert_eq!(
            doc["nested"],
            Json::parse(r#"[null, [], {"k": [0]}]"#).unwrap()
        );
        assert_eq!(doc["missing"]["deeper"], Json::Null);
        assert_eq!(doc["name"]["not an object"], Json::Null);
    }

    #[test]
    fn string_escapes_decode() {
        assert_eq!(
            Json::parse(r#""\u0041\/\b\f\ud83d\ude00\u00e9\ud83d\ude00\u0042""#),
            Ok(Json::from("A/\u{8}\u{c}😀é😀B"))
        );
    }

    #[test]
    fn malformed_documents_are_refused() {
        for (text, why) in [
            ("", "unexpected end"),
            ("{\"a\": 1} x", "trailing"),
            ("[1] [2]", "trailing"),
            ("{\"a\": 1,}", "expected a string"),
            ("[1 2]", "expected ','"),
            ("[1,]", "expected a value"),
            ("[", "unexpected end"),
            ("{\"a\" 1}", "expected ':'"),
            ("{1: 2}", "expected a string"),
            ("\"abc", "unterminated string"),
            ("\"abc\\", "unterminated string"),
            ("\"a\nb\"", "control character"),
            ("\"a\u{1}b\"", "control character"),
            ("\"\\x\"", "unknown escape"),
            ("\"\\u12\"", "bad \\u escape"),
            ("\"\\u+123\"", "bad \\u escape"),
            ("\"\\u00é\"", "bad \\u escape"),
            ("\"\\ud800\"", "lone surrogate"),
            ("\"\\ud800\\u0041\"", "lone surrogate"),
            ("\"\\udc00\"", "lone surrogate"),
            ("\"\\ude00\\ud83d\"", "lone surrogate"),
            ("01", "expected a value"),
            ("-01", "expected a value"),
            ("+1", "expected a value"),
            ("-", "expected a value"),
            ("--1", "expected a value"),
            (".5", "expected a value"),
            ("-.5", "expected a value"),
            ("1.", "expected a value"),
            ("1.e5", "expected a value"),
            ("1e", "expected a value"),
            ("1e+", "expected a value"),
            ("1e5.5", "expected a value"),
            ("1.2.3", "expected a value"),
            ("1e999", "expected a value"),
            ("nul", "expected a value"),
            ("NaN", "expected a value"),
            ("{\"a\": 1, \"b\": 2, \"a\": 3}", "duplicate key \"a\""),
            ("\u{c}1", "expected a value"),
        ] {
            let err = Json::parse(text).expect_err(text);
            assert!(err.contains(why), "{text:?}: {err}");
        }
        // The error says where.
        assert_eq!(
            Json::parse("[1, 2,\n  x]"),
            Err("JSON: expected a value at byte 9".into())
        );
    }

    #[test]
    fn nesting_is_bounded_without_recursing_to_the_bottom() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(Json::parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let err = Json::parse(&nest(open, close, MAX_DEPTH + 1)).expect_err("too deep");
            assert!(err.contains("nesting too deep"), "{err}");
        }
        // A megabyte of `[` is refused at the bound, not by stack overflow.
        let err = Json::parse(&"[".repeat(1 << 20)).expect_err("unclosed and too deep");
        assert!(err.contains("nesting too deep"), "{err}");
    }
}
