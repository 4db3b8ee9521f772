//! A minimal JSON writer (the workspace has no serde, by policy).
//!
//! Two guarantees the result line depends on: strings are escaped per
//! RFC 8259, and a number is always a valid JSON number — `NaN` and the
//! infinities have no JSON spelling, so the writer turns them into `0`
//! (callers that care detect the non-finite value first and fail the run;
//! see `report::Outcome::set`).

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    /// A float; the writer turns a non-finite one into `0`.
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A float value (a non-finite one is written as `0`).
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Single-line rendering (the result line).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented rendering (files meant to be read).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_number(out, *v),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

/// Shortest round-trip decimal, all digits as measured. Rust's `{}` for a
/// finite `f64` never prints an exponent, `inf` or `NaN`, and prints
/// integral values without a fraction — all valid JSON numbers.
fn write_number(out: &mut String, v: f64) {
    let v = if v.is_finite() { v } else { 0.0 };
    // "-0" is valid JSON but reads oddly in a report.
    let v = if v == 0.0 { 0.0 } else { v };
    let _ = write!(out, "{v}");
}

fn write_string(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let j = Json::str("a\"b\\c\nd\te\u{1}f/é");
        assert_eq!(j.compact(), "\"a\\\"b\\\\c\\nd\\te\\u0001f/é\"");
    }

    #[test]
    fn numbers_are_always_valid_json() {
        for (v, want) in [
            (1.5, "1.5"),
            (0.1 + 0.2, "0.30000000000000004"),
            (3.0, "3"),
            (-0.0, "0"),
            (1.0e-9, "0.000000001"),
            (1.25e21, "1250000000000000000000"),
            (f64::NAN, "0"),
            (f64::INFINITY, "0"),
            (f64::NEG_INFINITY, "0"),
        ] {
            assert_eq!(Json::num(v).compact(), want, "{v}");
        }
        assert_eq!(Json::Int(u64::MAX).compact(), "18446744073709551615");
    }

    #[test]
    fn compact_and_pretty_layouts() {
        let j = Json::obj([
            ("correct", Json::Bool(true)),
            ("n", Json::Int(3)),
            ("m", Json::obj([("x", Json::num(0.5))])),
            ("a", Json::Arr(vec![Json::Int(1), Json::str("s")])),
            ("e", Json::Arr(vec![])),
        ]);
        assert_eq!(
            j.compact(),
            r#"{"correct":true,"n":3,"m":{"x":0.5},"a":[1,"s"],"e":[]}"#
        );
        assert_eq!(
            j.pretty(),
            "{\n  \"correct\": true,\n  \"n\": 3,\n  \"m\": {\n    \"x\": 0.5\n  },\n  \"a\": [\n    1,\n    \"s\"\n  ],\n  \"e\": []\n}\n"
        );
    }
}
