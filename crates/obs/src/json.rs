//! The one JSON writer every report renders through.
//!
//! A report is a plain [`Json`] value built by its owner; [`Json::render`]
//! alone knows the syntax (quoting and escaping, the `": "` and `", "`
//! separators, `null` for a non-finite number) and the one layout rule:
//!
//! * a top-level object puts each member on its own line, indented two
//!   spaces;
//! * a top-level member whose value is an array puts each element on
//!   its own line, indented four spaces (`[\n  ]` when empty);
//! * everything deeper renders inline.
//!
//! Object keys are `&'static str` and keep their insertion order, so a
//! document's field order is the order its builder lists them in.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A number printed at a fixed count of decimals (`null` when not
    /// finite, since JSON has no infinity or NaN).
    Fixed(f64, usize),
    /// A string (escaped on rendering).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; members render in this order.
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    /// Render as a document with a trailing newline, after the layout
    /// rule in the module docs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0)
            .expect("writing to a String cannot fail");
        out + "\n"
    }

    /// Write the value nested `depth` containers deep (0 for the document
    /// itself).
    fn write(&self, out: &mut impl fmt::Write, depth: usize) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => write!(out, "{b}"),
            Json::UInt(n) => write!(out, "{n}"),
            Json::Fixed(x, decimals) if x.is_finite() => write!(out, "{x:.decimals$}"),
            Json::Fixed(..) => out.write_str("null"),
            Json::Str(s) => write!(out, "{}", Quoted(s)),
            Json::Array(items) => {
                let items = items.iter().map(|v| (None, v));
                write_items(out, depth, ['[', ']'], items)
            }
            Json::Object(members) => {
                let members = members.iter().map(|(k, v)| (Some(*k), v));
                write_items(out, depth, ['{', '}'], members)
            }
        }
    }
}

/// Write an array's elements or an object's members between `open` and
/// `close`: the document's own object and the arrays directly in it put
/// one item per line, everything deeper is inline.
fn write_items<'a>(
    out: &mut impl fmt::Write,
    depth: usize,
    [open, close]: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) -> fmt::Result {
    let lines = depth == 0 || (depth == 1 && open == '[');
    let indent = "  ".repeat(depth);
    out.write_char(open)?;
    for (i, (key, value)) in items.enumerate() {
        match (lines, i) {
            (true, 0) => write!(out, "\n{indent}  ")?,
            (true, _) => write!(out, ",\n{indent}  ")?,
            (false, 0) => {}
            (false, _) => out.write_str(", ")?,
        }
        if let Some(key) = key {
            write!(out, "{}: ", Quoted(key))?;
        }
        value.write(out, depth + 1)?;
    }
    if lines {
        write!(out, "\n{indent}")?;
    }
    out.write_char(close)
}

/// A string as a JSON string literal: quoted, with `"`, `\` and the
/// control characters escaped.
struct Quoted<'a>(&'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' | '\\' => write!(f, "\\{c}")?,
                c if c < ' ' => write!(f, "\\u{:04x}", u32::from(c))?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// The inline rendering: the whole value on one line.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 2)
    }
}

macro_rules! from {
    ($($t:ty => $make:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                $make(v)
            }
        }
    )*};
}

from! {
    bool => Json::Bool,
    u64 => Json::UInt,
    u32 => |n: u32| Json::UInt(n.into()),
    usize => |n: usize| Json::UInt(n as u64),
    &str => |s: &str| Json::Str(s.to_string()),
    String => Json::Str,
}

/// Collecting values builds an array.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Array(iter.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let s = Json::from("say \"hi\" \\ tab\tnl\nbell\u{7}");
        assert_eq!(
            s.to_string(),
            r#""say \"hi\" \\ tab\u0009nl\u000abell\u0007""#
        );
        assert_eq!(Json::from("plain-ascii+").to_string(), r#""plain-ascii+""#);
    }

    #[test]
    fn numbers_keep_their_decimals_and_non_finite_ones_are_null() {
        assert_eq!(Json::Fixed(0.5, 6).to_string(), "0.500000");
        assert_eq!(Json::Fixed(323.4876, 1).to_string(), "323.5");
        assert_eq!(Json::Fixed(0.9, 4).to_string(), "0.9000");
        assert_eq!(Json::Fixed(f64::INFINITY, 1).to_string(), "null");
        assert_eq!(Json::Fixed(f64::NAN, 3).to_string(), "null");
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
    }

    #[test]
    fn an_empty_top_level_array_spans_two_lines() {
        let doc = Json::Object(vec![("seed", 7u64.into()), ("cells", Json::Array(vec![]))]);
        assert_eq!(doc.render(), "{\n  \"seed\": 7,\n  \"cells\": [\n  ]\n}\n");
    }

    #[test]
    fn only_the_top_two_levels_break_lines() {
        let row = Json::Object(vec![
            ("obs", [0u32, 1].into_iter().collect()),
            (
                "inner",
                Json::Object(vec![("ok", true.into()), ("none", Json::Null)]),
            ),
            ("empty", Json::Array(vec![])),
        ]);
        let doc = Json::Object(vec![
            ("name", "x".into()),
            ("gate", Json::Object(vec![("ok", false.into())])),
            ("rows", Json::Array(vec![row.clone(), row])),
        ]);
        let line = r#"{"obs": [0, 1], "inner": {"ok": true, "none": null}, "empty": []}"#;
        assert_eq!(
            doc.render(),
            format!(
                "{{\n  \"name\": \"x\",\n  \"gate\": {{\"ok\": false}},\n  \"rows\": [\n    \
                 {line},\n    {line}\n  ]\n}}\n"
            )
        );
        // A document that is not an object renders inline.
        assert_eq!(Json::from(3u32).render(), "3\n");
    }
}
