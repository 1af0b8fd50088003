//! The one JSON writer behind the committed `BENCH_*.json` artifacts.
//!
//! A report is an [`Obj`] written with [`Obj::to_report`]: `{`, one
//! top-level `"key": value` field per line, `}`. A [`Json::Rows`] field
//! writes one object per line — the cells. Inside a line, objects separate
//! with `": "` and `", "`, arrays with `,`. Each number keeps the format
//! its field has always had: an integer, fixed point (`{:.N}`), scientific
//! (`{:.Ne}`) or the shortest `f64` that round-trips. Strings are escaped
//! per RFC 8259, and a non-finite number panics naming its key: JSON has
//! no `NaN`, and a report that wrote one would not parse.

use std::fmt::Write as _;

/// One JSON value, with the number format it is written in.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer.
    Int(i128),
    /// A number with this many digits after the point (`{:.N}`).
    Fixed(f64, usize),
    /// A number in scientific notation with this many mantissa digits
    /// after the point (`{:.Ne}`).
    Sci(f64, usize),
    /// A number in its shortest round-trip form (`{}`).
    Float(f64),
    /// A string, escaped when written.
    Str(String),
    /// An array on one line, `[a,b]`.
    Arr(Vec<Json>),
    /// An object on one line.
    Obj(Obj),
    /// An array whose items a report writes one per line (its cell list);
    /// anywhere else, the same as [`Json::Arr`].
    Rows(Vec<Json>),
    /// Text that is already JSON (the `ulp_obs` snapshot), written as is.
    Raw(String),
}

impl Json {
    /// A 64-bit digest as its 16-digit lowercase hex string.
    pub fn hex(digest: u64) -> Json {
        Json::Str(format!("{digest:016x}"))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

macro_rules! int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as i128)
            }
        }
    )*};
}
int_from!(u32, u64, usize, i64);

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Obj> for Json {
    fn from(v: Obj) -> Json {
        Json::Obj(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    /// `None` is written as `null`.
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// A JSON object: its fields in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Obj(Vec<(&'static str, Json)>);

impl Obj {
    /// An object with no fields.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Appends a field.
    pub fn push(&mut self, key: &'static str, value: impl Into<Json>) {
        self.0.push((key, value.into()));
    }

    /// Appends a field, builder style.
    pub fn with(mut self, key: &'static str, value: impl Into<Json>) -> Obj {
        self.push(key, value);
        self
    }

    /// The object as a report: one field per line, a [`Json::Rows`]
    /// field one object per line, and a final newline.
    ///
    /// # Panics
    ///
    /// Panics, naming the key, if any number is not finite.
    pub fn to_report(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.0.iter().enumerate() {
            out.push_str("  ");
            write_str(&mut out, key);
            out.push_str(": ");
            match value {
                Json::Rows(rows) => {
                    out.push_str("[\n");
                    for (j, row) in rows.iter().enumerate() {
                        out.push_str("    ");
                        write_value(&mut out, key, row);
                        out.push_str(if j + 1 < rows.len() { ",\n" } else { "\n" });
                    }
                    out.push_str("  ]");
                }
                _ => write_value(&mut out, key, value),
            }
            out.push_str(if i + 1 < self.0.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }
}

fn write_obj(out: &mut String, obj: &Obj) {
    out.push('{');
    for (i, (key, value)) in obj.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(out, key);
        out.push_str(": ");
        write_value(out, key, value);
    }
    out.push('}');
}

/// Writes `value`; `key` names the field a non-finite number came from.
fn write_value(out: &mut String, key: &str, value: &Json) {
    let finite = |v: f64| {
        assert!(
            v.is_finite(),
            "JSON field {key:?} is not a finite number: {v}"
        );
        v
    };
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => write!(out, "{b}").unwrap(),
        Json::Int(n) => write!(out, "{n}").unwrap(),
        Json::Fixed(v, digits) => write!(out, "{:.*}", digits, finite(*v)).unwrap(),
        Json::Sci(v, digits) => write!(out, "{:.*e}", digits, finite(*v)).unwrap(),
        Json::Float(v) => write!(out, "{}", finite(*v)).unwrap(),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) | Json::Rows(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, key, item);
            }
            out.push(']');
        }
        Json::Obj(obj) => write_obj(out, obj),
        Json::Raw(text) => out.push_str(text),
    }
}

/// Writes `s` as a JSON string, escaped per RFC 8259: the quote, the
/// backslash and every control character below U+0020.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < '\u{20}' => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_line(value: impl Into<Json>) -> String {
        let mut out = String::new();
        write_value(&mut out, "k", &value.into());
        out
    }

    #[test]
    fn report_layout_is_one_field_and_one_row_per_line() {
        let row =
            |name: &str, n: u64| -> Json { Obj::new().with("name", name).with("n", n).into() };
        let report = Obj::new()
            .with("schema", "s/v1")
            .with("smoke", true)
            .with("total_seconds", Json::Fixed(1.23456, 3))
            .with("cells", Json::Rows(vec![row("a", 1), row("b", 2)]))
            .with("metrics", Json::Raw("{\"level\":\"off\"}".into()))
            .to_report();
        assert_eq!(
            report,
            "{\n  \"schema\": \"s/v1\",\n  \"smoke\": true,\n  \"total_seconds\": 1.235,\n  \
             \"cells\": [\n    {\"name\": \"a\", \"n\": 1},\n    {\"name\": \"b\", \"n\": 2}\n  \
             ],\n  \"metrics\": {\"level\":\"off\"}\n}\n"
        );
        let empty = Obj::new().with("cells", Json::Rows(Vec::new())).to_report();
        assert_eq!(empty, "{\n  \"cells\": [\n  ]\n}\n");
    }

    #[test]
    fn numbers_keep_their_formats() {
        assert_eq!(one_line(Json::Fixed(0.5, 6)), "0.500000");
        assert_eq!(one_line(Json::Fixed(2801827.84, 1)), "2801827.8");
        assert_eq!(one_line(Json::Sci(1.0, 6)), "1.000000e0");
        assert_eq!(one_line(Json::Sci(2.746582e-4, 6)), "2.746582e-4");
        assert_eq!(one_line(Json::Float(0.0)), "0");
        assert_eq!(one_line(Json::Float(0.1)), "0.1");
        assert_eq!(one_line(u64::MAX), "18446744073709551615");
        assert_eq!(one_line(-3i64), "-3");
        assert_eq!(one_line(Json::hex(0xab)), "\"00000000000000ab\"");
        assert_eq!(one_line(None::<u64>), "null");
        assert_eq!(
            one_line(Json::Arr(vec![
                Json::Arr(vec![256u64.into(), 1u64.into()]),
                Json::Arr(vec![2048u64.into(), 1u64.into()]),
            ])),
            "[[256,1],[2048,1]]"
        );
        assert_eq!(
            one_line(Obj::new().with("a", 1u32).with("b", Obj::new())),
            "{\"a\": 1, \"b\": {}}"
        );
    }

    #[test]
    fn strings_escape_per_rfc_8259() {
        assert_eq!(one_line("plain (ε) text"), "\"plain (ε) text\"");
        assert_eq!(one_line("a \"quote\""), r#""a \"quote\"""#);
        assert_eq!(one_line("back\\slash"), r#""back\\slash""#);
        assert_eq!(one_line("line\nbreak\r\ttab"), r#""line\nbreak\r\ttab""#);
        assert_eq!(one_line("\u{0}\u{1f}\u{7f}"), "\"\\u0000\\u001f\u{7f}\"");
        // Keys go through the same escaper.
        assert_eq!(one_line(Obj::new().with("k\"", 1u32)), "{\"k\\\"\": 1}");
    }

    #[test]
    fn the_committed_refusal_message_renders_byte_identically() {
        let msg = "secure path refused (uncertifiable): fxp-baseline claims no loss bound \
                   (guarantee is Broken); there is nothing to certify";
        assert_eq!(one_line(msg), format!("\"{msg}\""));
    }

    #[test]
    #[should_panic(expected = "JSON field \"coverage\" is not a finite number: NaN")]
    fn nan_is_refused_naming_its_key() {
        Obj::new()
            .with(
                "cells",
                Json::Rows(vec![Obj::new()
                    .with("coverage", Json::Fixed(f64::NAN, 6))
                    .into()]),
            )
            .to_report();
    }

    #[test]
    #[should_panic(expected = "JSON field \"rates\" is not a finite number: inf")]
    fn infinity_is_refused_inside_an_array() {
        one_line(Obj::new().with("rates", Json::Arr(vec![Json::Float(f64::INFINITY)])));
    }

    #[test]
    #[should_panic(expected = "JSON field \"adv\" is not a finite number: -inf")]
    fn negative_infinity_is_refused_in_scientific_form() {
        one_line(Obj::new().with("adv", Json::Sci(f64::NEG_INFINITY, 6)));
    }
}
