//! Offline stand-in for the published `serde_json` crate.
//!
//! See the `serde` stand-in for why it exists. [`Value`] and [`json!`]
//! are real enough to build and print a JSON tree whose *structure* is
//! what the macro call wrote; leaf expressions of arbitrary types become
//! `null`, because the `serde` stand-in has no data model to convert
//! them with. [`to_string`], [`to_string_pretty`] and [`from_str`]
//! return an error instead of guessing. The benchmark harness writes
//! its own records and never calls any of this; it exists so that
//! `cellstream` (snapshot files) and `cellload` (`BENCH_replay.json`
//! assembly) compile.

use std::collections::BTreeMap;
use std::fmt;

use serde::de::DeserializeOwned;
use serde::Serialize;

/// The error every serde-backed entry point returns.
#[derive(Debug)]
pub struct Error(String);

impl Error {
    fn unavailable() -> Self {
        Error(
            "serde_json is an offline stand-in in this build: serialization is unavailable"
                .to_owned(),
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

/// `Result` with this crate's [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Object representation: keys in sorted order.
pub type Map<K, V> = BTreeMap<K, V>;

/// A JSON value.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    /// `null`
    #[default]
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map<String, Value>),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) if n.is_finite() => write!(f, "{n}"),
            Value::Number(_) => f.write_str("null"),
            Value::String(s) => write!(f, "{s:?}"),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Object(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{k:?}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Convert a leaf expression of [`json!`]. Without a serde data model
/// the value cannot be inspected, so the result is `null`.
pub fn to_value<T: ?Sized>(_value: &T) -> Value {
    Value::Null
}

/// Unavailable in the stand-in: always an error.
pub fn to_string<T: Serialize + ?Sized>(_value: &T) -> Result<String> {
    Err(Error::unavailable())
}

/// Unavailable in the stand-in: always an error.
pub fn to_string_pretty<T: Serialize + ?Sized>(_value: &T) -> Result<String> {
    Err(Error::unavailable())
}

/// Unavailable in the stand-in: always an error.
pub fn from_str<T: DeserializeOwned>(_s: &str) -> Result<T> {
    Err(Error::unavailable())
}

/// Build a [`Value`] from JSON-like syntax. Nested objects, arrays and
/// the literals `null`/`true`/`false` are honoured; any other leaf
/// expression is evaluated and passed to [`to_value`].
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => { $crate::Value::Array($crate::json_array!([] $($tt)+)) };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut object = $crate::Map::new();
        $crate::json_object!(object () $($tt)+);
        $crate::Value::Object(object)
    }};
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Array muncher behind [`json!`]: collected elements, then the rest.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array {
    ([$($done:expr,)*]) => { ::std::vec![$($done,)*] };
    ([$($done:expr,)*] null $(, $($rest:tt)*)?) => {
        $crate::json_array!([$($done,)* $crate::json!(null),] $($($rest)*)?)
    };
    ([$($done:expr,)*] true $(, $($rest:tt)*)?) => {
        $crate::json_array!([$($done,)* $crate::json!(true),] $($($rest)*)?)
    };
    ([$($done:expr,)*] false $(, $($rest:tt)*)?) => {
        $crate::json_array!([$($done,)* $crate::json!(false),] $($($rest)*)?)
    };
    ([$($done:expr,)*] [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $crate::json_array!([$($done,)* $crate::json!([$($inner)*]),] $($($rest)*)?)
    };
    ([$($done:expr,)*] {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $crate::json_array!([$($done,)* $crate::json!({$($inner)*}),] $($($rest)*)?)
    };
    ([$($done:expr,)*] $next:expr $(, $($rest:tt)*)?) => {
        $crate::json_array!([$($done,)* $crate::json!($next),] $($($rest)*)?)
    };
}

/// Object muncher behind [`json!`]: the map, the key tokens gathered so
/// far, then the rest.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object {
    ($object:ident ()) => {};
    // A complete key followed by a structural value.
    ($object:ident ($($key:tt)+) : null $(, $($rest:tt)*)?) => {
        $object.insert(($($key)+).into(), $crate::json!(null));
        $crate::json_object!($object () $($($rest)*)?);
    };
    ($object:ident ($($key:tt)+) : true $(, $($rest:tt)*)?) => {
        $object.insert(($($key)+).into(), $crate::json!(true));
        $crate::json_object!($object () $($($rest)*)?);
    };
    ($object:ident ($($key:tt)+) : false $(, $($rest:tt)*)?) => {
        $object.insert(($($key)+).into(), $crate::json!(false));
        $crate::json_object!($object () $($($rest)*)?);
    };
    ($object:ident ($($key:tt)+) : [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $object.insert(($($key)+).into(), $crate::json!([$($inner)*]));
        $crate::json_object!($object () $($($rest)*)?);
    };
    ($object:ident ($($key:tt)+) : {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $object.insert(($($key)+).into(), $crate::json!({$($inner)*}));
        $crate::json_object!($object () $($($rest)*)?);
    };
    // A complete key followed by an expression value.
    ($object:ident ($($key:tt)+) : $value:expr , $($rest:tt)*) => {
        $object.insert(($($key)+).into(), $crate::json!($value));
        $crate::json_object!($object () $($rest)*);
    };
    ($object:ident ($($key:tt)+) : $value:expr) => {
        $object.insert(($($key)+).into(), $crate::json!($value));
    };
    // Still gathering the key.
    ($object:ident ($($key:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json_object!($object ($($key)* $next) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::Value;

    #[test]
    fn json_macro_keeps_structure_and_nulls_opaque_leaves() {
        let n = 3usize;
        let v = json!({
            "a": null,
            "b": [true, false, {"c": n}],
            "d": {"e": n + 1, "f": [] },
            "g": if n > 2 { 1.0 } else { 0.0 },
        });
        assert_eq!(
            v.to_string(),
            r#"{"a":null,"b":[true,false,{"c":null}],"d":{"e":null,"f":[]},"g":null}"#
        );
        assert_eq!(json!(null), Value::Null);
        assert!(super::to_string("text").is_err());
    }
}
