//! Offline drop-in for the subset of `serde_json` this workspace uses:
//! the [`Value`] tree, the [`json!`] macro, [`to_string`] /
//! [`to_string_pretty`], and [`from_str`]. There is no serde integration
//! — callers build values through `json!` / `From` impls and read them
//! back through the `as_*` accessors, which is exactly how the
//! experiment drivers and the checkpoint files use JSON.

mod parse;
mod print;

pub use parse::from_str;
pub use print::{to_string, to_string_pretty};

/// A JSON number: integers and floats are kept apart so integer arrays
/// round-trip without a trailing `.0`.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// A signed integer (covers every u32/usize this workspace emits).
    Int(i64),
    /// An unsigned integer above `i64::MAX` (full-range u64 seeds).
    UInt(u64),
    /// A double-precision float.
    Float(f64),
}

impl Number {
    /// The numeric value as `f64`.
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::Int(i) => i as f64,
            Number::UInt(u) => u as f64,
            Number::Float(f) => f,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        // Numeric comparison: 1 == 1.0. (Slightly laxer than upstream,
        // which keeps integer and float representations distinct.)
        self.as_f64() == other.as_f64()
    }
}

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Map),
}

/// An insertion-ordered string-keyed map.
#[derive(Debug, Clone, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    pub fn new() -> Map {
        Map::default()
    }

    /// Inserts or replaces `key`, returning any previous value.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        let key = key.into();
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl PartialEq for Map {
    fn eq(&self, other: &Self) -> bool {
        // Key-set equality, order-insensitive (matches upstream's map
        // semantics even though we store insertion order).
        self.len() == other.len() && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

static NULL: Value = Value::Null;

impl Value {
    /// The elements when the value is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The string content when the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content as `f64` when the value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The numeric content as `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::Int(i)) if *i >= 0 => Some(*i as u64),
            Value::Number(Number::UInt(u)) => Some(*u),
            _ => None,
        }
    }

    /// The numeric content as `i64` when the value is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::Int(i)) => Some(*i),
            _ => None,
        }
    }

    /// The boolean content when the value is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The map when the value is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable access to the map when the value is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Member lookup that mirrors indexing but returns an `Option`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&print::to_compact_string(self))
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// `value["key"]`; missing members and non-objects yield `null`,
    /// matching upstream.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    /// `value[i]`; out-of-range and non-arrays yield `null`.
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other.as_str() == Some(*self)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Number(Number::Float(x))
    }
}

impl From<f32> for Value {
    fn from(x: f32) -> Value {
        Value::Number(Number::Float(x as f64))
    }
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value {
                Value::Number(Number::Int(x as i64))
            }
        }
    )*};
}

impl_from_int!(i8, i16, i32, i64, isize, u8, u16, u32);

macro_rules! impl_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value {
                match i64::try_from(x) {
                    Ok(i) => Value::Number(Number::Int(i)),
                    Err(_) => Value::Number(Number::UInt(x as u64)),
                }
            }
        }
    )*};
}

impl_from_uint!(u64, usize);

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Value {
        Value::String(s.clone())
    }
}

impl From<&Value> for Value {
    fn from(v: &Value) -> Value {
        v.clone()
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Value {
        match o {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(v: &[T]) -> Value {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

/// By-reference conversion used by the [`json!`] macro for leaf values.
///
/// Upstream `json!` serialises leaves through `Serialize`, which works
/// on `&T` — so `json!({"k": owned.field})` never moves out of `owned`.
/// This trait reproduces that: the macro calls
/// [`__json_to_value`]`(&value)`, and auto-deref resolves through any
/// number of reference layers.
pub trait ToJsonValue {
    /// Converts `&self` into an owned [`Value`].
    fn to_json_value(&self) -> Value;
}

/// Macro plumbing for [`json!`]; not public API.
#[doc(hidden)]
pub fn __json_to_value<T: ToJsonValue + ?Sized>(v: &T) -> Value {
    v.to_json_value()
}

macro_rules! impl_to_json_value_via_from {
    ($($t:ty),*) => {$(
        impl ToJsonValue for $t {
            fn to_json_value(&self) -> Value {
                Value::from(*self)
            }
        }
    )*};
}

impl_to_json_value_via_from!(bool, f32, f64, i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl ToJsonValue for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl ToJsonValue for str {
    fn to_json_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToJsonValue for String {
    fn to_json_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<T: ToJsonValue> ToJsonValue for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(v) => v.to_json_value(),
            None => Value::Null,
        }
    }
}

impl<T: ToJsonValue> ToJsonValue for [T] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(ToJsonValue::to_json_value).collect())
    }
}

impl<T: ToJsonValue> ToJsonValue for Vec<T> {
    fn to_json_value(&self) -> Value {
        self.as_slice().to_json_value()
    }
}

impl<K: AsRef<str>, T: ToJsonValue> ToJsonValue for std::collections::BTreeMap<K, T> {
    fn to_json_value(&self) -> Value {
        let mut map = Map::new();
        for (k, v) in self {
            map.insert(k.as_ref(), v.to_json_value());
        }
        Value::Object(map)
    }
}

impl<K: AsRef<str>, T: ToJsonValue> ToJsonValue for std::collections::HashMap<K, T> {
    fn to_json_value(&self) -> Value {
        // Deterministic output: hash maps are emitted in sorted key order.
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort_by(|a, b| a.0.as_ref().cmp(b.0.as_ref()));
        let mut map = Map::new();
        for (k, v) in entries {
            map.insert(k.as_ref(), v.to_json_value());
        }
        Value::Object(map)
    }
}

impl<T: ToJsonValue + ?Sized> ToJsonValue for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

/// Serialisation error type (kept for signature compatibility; the shim
/// printer cannot fail).
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    pub(crate) fn new(message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Builds a [`Value`] from JSON-ish literal syntax, mirroring
/// `serde_json::json!`: object and array literals may nest, and any
/// member value may be an arbitrary Rust expression (commas inside
/// parentheses, brackets or braces are understood).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([]) => { $crate::Value::Array(vec![]) };
    ([ $($tt:tt)+ ]) => {{
        // The token-muncher emits one push per element; `vec![]` cannot
        // express that incrementally.
        #[allow(clippy::vec_init_then_push)]
        {
            let mut array: Vec<$crate::Value> = Vec::new();
            $crate::json_internal!(@array array ($($tt)+));
            $crate::Value::Array(array)
        }
    }};
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut object = $crate::Map::new();
        $crate::json_internal!(@object object ($($tt)+));
        $crate::Value::Object(object)
    }};
    ($other:expr) => { $crate::__json_to_value(&$other) };
}

/// Token-munching guts of [`json!`]; not public API.
///
/// Nested `{..}` / `[..]` literals and bare `null` are matched
/// structurally (each brace/bracket group is a single token tree);
/// every other value is handed to the `expr` fragment parser, which
/// understands arbitrary Rust expressions — including commas nested in
/// turbofish generics, call arguments, and closures.
#[doc(hidden)]
#[macro_export]
macro_rules! json_internal {
    // --- object entries: `"key": value , ...` ---------------------------
    (@object $map:ident ()) => {};
    (@object $map:ident ($key:literal : null $(, $($rest:tt)*)?)) => {
        $map.insert($key, $crate::Value::Null);
        $crate::json_internal!(@object $map ($($($rest)*)?));
    };
    (@object $map:ident ($key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?)) => {
        $map.insert($key, $crate::json!({ $($inner)* }));
        $crate::json_internal!(@object $map ($($($rest)*)?));
    };
    (@object $map:ident ($key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?)) => {
        $map.insert($key, $crate::json!([ $($inner)* ]));
        $crate::json_internal!(@object $map ($($($rest)*)?));
    };
    (@object $map:ident ($key:literal : $value:expr , $($rest:tt)*)) => {
        $map.insert($key, $crate::__json_to_value(&$value));
        $crate::json_internal!(@object $map ($($rest)*));
    };
    (@object $map:ident ($key:literal : $value:expr)) => {
        $map.insert($key, $crate::__json_to_value(&$value));
    };

    // --- array elements -------------------------------------------------
    (@array $arr:ident ()) => {};
    (@array $arr:ident (null $(, $($rest:tt)*)?)) => {
        $arr.push($crate::Value::Null);
        $crate::json_internal!(@array $arr ($($($rest)*)?));
    };
    (@array $arr:ident ({ $($inner:tt)* } $(, $($rest:tt)*)?)) => {
        $arr.push($crate::json!({ $($inner)* }));
        $crate::json_internal!(@array $arr ($($($rest)*)?));
    };
    (@array $arr:ident ([ $($inner:tt)* ] $(, $($rest:tt)*)?)) => {
        $arr.push($crate::json!([ $($inner)* ]));
        $crate::json_internal!(@array $arr ($($($rest)*)?));
    };
    (@array $arr:ident ($value:expr , $($rest:tt)*)) => {
        $arr.push($crate::__json_to_value(&$value));
        $crate::json_internal!(@array $arr ($($rest)*));
    };
    (@array $arr:ident ($value:expr)) => {
        $arr.push($crate::__json_to_value(&$value));
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_nested_trees() {
        let v = json!({
            "name": "oebench",
            "count": 3,
            "ratio": 0.5,
            "none": null,
            "opt": Some(1.5),
            "missing": Option::<f64>::None,
            "tags": ["a", "b"],
            "nested": { "ok": true },
        });
        assert_eq!(v["name"], "oebench");
        assert_eq!(v["count"].as_u64(), Some(3));
        assert_eq!(v["ratio"].as_f64(), Some(0.5));
        assert!(v["none"].is_null());
        assert_eq!(v["opt"].as_f64(), Some(1.5));
        assert!(v["missing"].is_null());
        assert_eq!(v["tags"].as_array().unwrap().len(), 2);
        assert_eq!(v["nested"]["ok"].as_bool(), Some(true));
        assert!(v["absent"].is_null());
        assert!(v["tags"][5].is_null());
    }

    #[test]
    fn equality_is_structural_and_order_insensitive_for_objects() {
        let a = json!({ "x": 1, "y": [1, 2.0] });
        let b = json!({ "y": [1.0, 2], "x": 1 });
        assert_eq!(a, b);
        assert_ne!(a, json!({ "x": 2, "y": [1, 2] }));
    }

    #[test]
    fn roundtrip_through_text() {
        let v = json!({
            "s": "quote \" backslash \\ newline \n end",
            "ints": [13, 17, 13, 12],
            "f": 0.125,
            "neg": -4,
            "big": 1e300,
            "b": false,
            "n": null,
        });
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back = from_str(&text).unwrap();
            assert_eq!(back, v);
        }
        // Integers print without a decimal point.
        assert!(to_string(&json!([13, 17])).unwrap().contains("[13,17]"));
    }

    #[test]
    fn full_range_u64_survives_parse_and_print() {
        // Seeds hash to the full u64 range; values above i64::MAX must
        // not degrade to floats.
        let text = format!("{{\"seed\":{}}}", u64::MAX);
        let v = from_str(&text).unwrap();
        assert_eq!(v["seed"].as_u64(), Some(u64::MAX));
        assert_eq!(v["seed"].as_i64(), None);
        assert_eq!(to_string(&v).unwrap(), text);
        assert_eq!(json!({ "seed": u64::MAX }), v);
        // Small unsigned values still take the signed representation.
        assert_eq!(json!(3u64).as_i64(), Some(3));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "[1,", "nul", "\"unterminated", "{\"a\" 1}", "1 2"] {
            assert!(from_str(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_128_levels() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str(&nested(128)).is_ok());
        assert!(from_str(&nested(129)).is_err());
        assert!(from_str(&format!("{}1{}", "{\"a\":".repeat(129), "}".repeat(129))).is_err());
        // Far past the cap: an error, not a stack overflow.
        assert!(from_str(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn from_value_reference_clones() {
        let v = json!([1, 2]);
        let w = json!({ "alias": v[0] });
        assert_eq!(w["alias"].as_u64(), Some(1));
    }
}
