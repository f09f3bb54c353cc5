//! Offline stand-in for `serde` providing the subset this workspace uses:
//! the `Serialize` / `Deserialize` traits (value-tree based rather than
//! visitor based), derive macros re-exported from `serde_derive`, and a
//! self-describing [`Value`] tree that `serde_json` renders.
//!
//! The build environment has no registry access, so the workspace vendors
//! the handful of external APIs it needs. The derive macros accept the
//! same `#[derive(Serialize, Deserialize)]` surface as real serde for
//! plain structs and enums (no generics, no `#[serde(...)]` renames), and
//! round-tripping through `serde_json` is lossless for every type in this
//! repository — which is exactly what the property tests check.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Self-describing serialized tree: the common currency between the
/// `Serialize`/`Deserialize` traits and the `serde_json` front-end.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` / Rust `Option::None` or `()`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer (negative numbers).
    I64(i64),
    /// Unsigned integer (non-negative numbers).
    U64(u64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence (JSON array).
    Seq(Vec<Value>),
    /// Ordered map with string keys (JSON object).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Borrow as a map, if this is one.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow as a sequence, if this is one.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as a string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view widened to `i128` (covers the full `u64`+`i64` range).
    pub fn as_int(&self) -> Option<i128> {
        match *self {
            Value::I64(v) => Some(v as i128),
            Value::U64(v) => Some(v as i128),
            _ => None,
        }
    }

    /// Numeric view as `f64` (integers widen losslessly enough for f32/f64
    /// fields in this workspace).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::F64(v) => Some(v),
            Value::I64(v) => Some(v as f64),
            Value::U64(v) => Some(v as f64),
            _ => None,
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl Error {
    /// Build an error from any displayable message.
    pub fn custom(msg: impl fmt::Display) -> Error {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can render themselves into a [`Value`] tree.
pub trait Serialize {
    /// Serialize `self` into the value tree.
    fn to_value(&self) -> Value;
}

/// Types that can rebuild themselves from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserialize from the value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// Deserialize from an owned tree. Defaults to [`Self::from_value`];
    /// [`Value`] itself overrides it to take the tree without a copy.
    fn from_owned_value(v: Value) -> Result<Self, Error> {
        Self::from_value(&v)
    }
}

/// A parsed tree is its own deserialized form, so callers can parse once,
/// inspect the tree and then deserialize typed values from it.
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }

    fn from_owned_value(v: Value) -> Result<Self, Error> {
        Ok(v)
    }
}

/// Look up a required struct field in a serialized map.
pub fn get_field<'a>(map: &'a [(String, Value)], name: &str) -> Result<&'a Value, Error> {
    map.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| Error::custom(format!("missing field `{name}`")))
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_int().ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n).map_err(Error::custom)
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v < 0 { Value::I64(v) } else { Value::U64(v as u64) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_int().ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n).map_err(Error::custom)
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}
impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::custom("expected f64"))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}
impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.as_f64().ok_or_else(|| Error::custom("expected f32"))? as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}
impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v.as_str().ok_or_else(|| Error::custom("expected char"))?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-char string")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str().map(str::to_owned).ok_or_else(|| Error::custom("expected string"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}
impl Deserialize for () {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(()),
            _ => Err(Error::custom("expected null")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(t) => t.to_value(),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_seq()
            .ok_or_else(|| Error::custom("expected sequence"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let s = v.as_seq().ok_or_else(|| Error::custom("expected tuple sequence"))?;
                let mut it = s.iter();
                let out = ($(
                    {
                        let _ = $n;
                        $t::from_value(it.next().ok_or_else(|| Error::custom("tuple too short"))?)?
                    },
                )+);
                if it.next().is_some() {
                    return Err(Error::custom("tuple too long"));
                }
                Ok(out)
            }
        }
    )*};
}

impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Map keys: types usable as JSON object keys.
pub trait MapKey: Sized {
    /// Render the key as a string.
    fn to_key(&self) -> String;
    /// Parse the key back from a string.
    fn from_key(s: &str) -> Result<Self, Error>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(s: &str) -> Result<Self, Error> {
        Ok(s.to_owned())
    }
}

macro_rules! impl_map_key_int {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String { self.to_string() }
            fn from_key(s: &str) -> Result<Self, Error> {
                s.parse().map_err(Error::custom)
            }
        }
    )*};
}

impl_map_key_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: MapKey + Eq + Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        // Sort entries for a stable rendering.
        let mut entries: Vec<(String, Value)> =
            self.iter().map(|(k, v)| (k.to_key(), v.to_value())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}
impl<K: MapKey + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_map()
            .ok_or_else(|| Error::custom("expected map"))?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
            .collect()
    }
}

impl<K: MapKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Map(self.iter().map(|(k, v)| (k.to_key(), v.to_value())).collect())
    }
}
impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_map()
            .ok_or_else(|| Error::custom("expected map"))?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_roundtrip() {
        let v = Some(3u32).to_value();
        assert_eq!(Option::<u32>::from_value(&v).unwrap(), Some(3));
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
    }

    #[test]
    fn negative_int_roundtrip() {
        let v = (-5i32).to_value();
        assert_eq!(i32::from_value(&v).unwrap(), -5);
    }

    #[test]
    fn hashmap_sorted_rendering() {
        let mut m = HashMap::new();
        m.insert(10u32, 1u32);
        m.insert(2u32, 2u32);
        let v = m.to_value();
        let keys: Vec<&str> = v.as_map().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["10", "2"]);
        assert_eq!(HashMap::<u32, u32>::from_value(&v).unwrap(), m);
    }
}
