//! Typed attribute values and their JSON rendering.

use std::fmt::Write as _;

/// A typed attribute value of a trace span.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (non-finite values serialize as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

macro_rules! impl_value_from {
    ($($t:ty => $variant:ident as $cast:ty),+ $(,)?) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::$variant(v as $cast)
            }
        }
    )+};
}

impl_value_from!(
    u32 => U64 as u64,
    u64 => U64 as u64,
    usize => U64 as u64,
    i32 => I64 as i64,
    i64 => I64 as i64,
    f64 => F64 as f64,
);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// Escapes a string for inclusion inside JSON double quotes.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Appends `v` as a JSON value.
pub(crate) fn write_value(out: &mut String, v: &Value) {
    let _ = match v {
        Value::U64(n) => write!(out, "{n}"),
        Value::I64(n) => write!(out, "{n}"),
        Value::F64(x) if x.is_finite() => write!(out, "{x}"),
        Value::F64(_) => out.write_str("null"),
        Value::Bool(b) => write!(out, "{b}"),
        Value::Str(s) => write!(out, "\"{}\"", json_escape(s)),
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn value_json_shape() {
        let mut out = String::new();
        for v in [
            Value::from(3usize),
            Value::from(-2i32),
            Value::from(true),
            Value::from("a\"b"),
            Value::from(1.5f64),
            Value::from(f64::NAN),
        ] {
            write_value(&mut out, &v);
            out.push(' ');
        }
        assert_eq!(out, "3 -2 true \"a\\\"b\" 1.5 null ");
    }
}
