//! In-repo shim for the `serde_json` crate (see `crates/shims/`): JSON text
//! parsing and printing plus the `json!` macro, over the serde shim's
//! [`Value`] tree.

pub use serde::{Map, Number, Value};

mod parser;

/// A serialization or deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Creates an error with a message.
    pub fn msg(m: impl Into<String>) -> Error {
        Error(m.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Error {
        Error(e.0)
    }
}

/// Renders any serializable value as a JSON [`Value`].
pub fn to_value<T: serde::Serialize>(value: &T) -> Result<Value, Error> {
    Ok(value.to_json())
}

/// Reads a typed value out of a JSON [`Value`].
pub fn from_value<T: serde::Deserialize>(value: Value) -> Result<T, Error> {
    Ok(T::from_json(&value)?)
}

/// Serializes to compact JSON text.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_json(), &mut out, None, 0);
    Ok(out)
}

/// Serializes to human-readable, two-space-indented JSON text.
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_json(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into a typed value.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let value = parser::parse(text)?;
    Ok(T::from_json(&value)?)
}

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(*n, out),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_sep(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            write_sep(out, indent, depth);
            out.push(']');
        }
        Value::Object(obj) => {
            if obj.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in obj.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_sep(out, indent, depth + 1);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, depth + 1);
            }
            write_sep(out, indent, depth);
            out.push('}');
        }
    }
}

fn write_sep(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * depth) {
            out.push(' ');
        }
    }
}

fn write_number(n: Number, out: &mut String) {
    use std::fmt::Write;
    match n {
        Number::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Number::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Number::F64(v) if v.is_finite() => {
            // Rust's shortest-roundtrip Display; "10" re-parses as an
            // integer, which typed deserialization widens back to f64.
            let _ = write!(out, "{v}");
        }
        // Like serde_json, non-finite floats render as null.
        Number::F64(_) => out.push_str("null"),
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Builds a [`Value`] from a JSON-shaped literal; expressions interpolate
/// anywhere a value is expected. A recursive token muncher, in the style of
/// serde_json's macro, so values may be arbitrary Rust expressions.
#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => { $crate::json_internal!($($tt)+) };
}

/// Implementation detail of [`json!`].
#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(vec![]) };
    ([ $($tt:tt)+ ]) => { $crate::Value::Array($crate::json_internal!(@array [] $($tt)+)) };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut __object = $crate::Map::new();
        $crate::json_internal!(@object __object () ($($tt)+) ($($tt)+));
        $crate::Value::Object(__object)
    }};
    ($other:expr) => { $crate::to_value(&$other).expect("json! value serializes") };

    // ---- array elements: keyword/bracketed forms first, then expressions.
    (@array [$($elems:expr,)*]) => { vec![$($elems,)*] };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null),] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true),] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false),] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($inner:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($inner)*]),] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($inner:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($inner)*}),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last),])
    };
    (@array [$($elems:expr,)*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    // ---- object entries: accumulate key tokens until `:`, then a value.
    (@object $object:ident () () ()) => {};
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        let _ = $object.insert(($($key)+).to_string(), $value);
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        let _ = $object.insert(($($key)+).to_string(), $value);
    };
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(true)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(false)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($inner:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+]
            ($crate::json_internal!([$($inner)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($inner:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+]
            ($crate::json_internal!({$($inner)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+]
            ($crate::json_internal!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) $copy);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_typed() {
        let v: Vec<u64> = vec![1, 2, 3];
        let text = to_string(&v).unwrap();
        assert_eq!(text, "[1,2,3]");
        let back: Vec<u64> = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn large_u64_roundtrips_exactly() {
        let v = u64::MAX - 1;
        let text = to_string(&v).unwrap();
        let back: u64 = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn float_text_roundtrips() {
        for v in [0.1, -3.75, 1e-8, 12345.6789, -0.0, 10.0] {
            let text = to_string(&v).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(v, back, "text {text}");
        }
    }

    #[test]
    fn string_escapes() {
        let s = "a\"b\\c\nd\te\u{1}".to_string();
        let text = to_string(&s).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn pretty_printing_indents() {
        let v = json!({"a": [1, 2], "b": {"c": true}});
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains("\n  \"a\": [\n    1"));
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn json_macro_shapes() {
        let x = 5u64;
        let v = json!({"lit": 1.5, "expr": x, "arr": [1, "two", null], "nested": {"t": true}});
        assert_eq!(v["lit"], 1.5);
        assert_eq!(v["expr"], 5u64);
        assert_eq!(v["arr"][1], "two");
        assert!(v["arr"][2].is_null());
        assert_eq!(v["nested"]["t"], true);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("tru").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }

    #[test]
    fn nesting_is_limited_to_128_levels() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(from_str::<Value>(&nested("[", "]", 128)).is_ok());
        assert!(from_str::<Value>(&nested("{\"a\":", "}", 128)).is_ok());
        assert!(from_str::<Value>(&nested("[", "]", 129)).is_err());
        assert!(from_str::<Value>(&nested("{\"a\":", "}", 129)).is_err());
        // Far past the limit: an error, not a stack overflow.
        assert!(from_str::<Value>(&"[".repeat(100_000)).is_err());
        assert!(from_str::<Value>(&"{\"a\":[".repeat(50_000)).is_err());
    }
}
