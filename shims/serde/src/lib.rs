//! Offline shim for the `serde` crate.
//!
//! The build environment has no registry access, so this crate provides a
//! small value-tree serialization framework under serde's names:
//!
//! * [`Value`] — a JSON-shaped data model (null, bool, integers, floats,
//!   strings, sequences, ordered maps);
//! * [`Serialize`] / [`Deserialize`] — convert a type to / from a
//!   [`Value`];
//! * `#[derive(Serialize, Deserialize)]` — re-exported from the local
//!   `serde_derive` proc-macro crate, supporting plain structs, tuple
//!   structs, and enums with unit / tuple / struct variants (the shapes
//!   this repository uses; serde field attributes are not supported).
//!
//! The `serde_json` shim renders a [`Value`] to JSON text and parses it
//! back; the encoding conventions (externally-tagged enums, transparent
//! newtypes) follow real serde so the on-disk artifacts look familiar.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The self-describing data model every [`Serialize`] impl produces and
/// every [`Deserialize`] impl consumes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer (JSON number without sign/fraction/exponent).
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number. Non-finite values render as `null`.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Map with insertion-ordered string keys.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Borrow as a map entry list, if this is a map.
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

    /// Numeric value as `f64`, if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric value as `u64`, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            Value::F64(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// Numeric value as `i64`, if representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::U64(v) => i64::try_from(*v).ok(),
            Value::I64(v) => Some(*v),
            Value::F64(v) if v.fract() == 0.0 && *v >= i64::MIN as f64 && *v <= i64::MAX as f64 => {
                Some(*v as i64)
            }
            _ => None,
        }
    }

    /// Boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `true` when this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Map lookup (`None` for missing keys or non-maps).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    /// Map indexing; missing keys yield `null` like `serde_json`.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    /// Sequence indexing; out-of-range yields `null` like `serde_json`.
    fn index(&self, i: usize) -> &Value {
        self.as_seq().and_then(|s| s.get(i)).unwrap_or(&NULL)
    }
}

/// Deserialization error: a human-readable description of the mismatch.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl DeError {
    /// Build from any displayable message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        DeError(msg.to_string())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Convert a value of this type into the [`Value`] data model.
pub trait Serialize {
    /// The value-tree form of `self`.
    fn to_value(&self) -> Value;
}

/// Reconstruct a value of this type from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Parse from a value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// --- primitive impls ---------------------------------------------------

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                v.as_u64()
                    .and_then(|u| <$t>::try_from(u).ok())
                    .ok_or_else(|| DeError::custom(concat!("expected ", stringify!($t))))
            }
        }
    )*};
}
impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v < 0 { Value::I64(v) } else { Value::U64(v as u64) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                v.as_i64()
                    .and_then(|u| <$t>::try_from(u).ok())
                    .ok_or_else(|| DeError::custom(concat!("expected ", stringify!($t))))
            }
        }
    )*};
}
impl_int!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::F64(*self as f64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                v.as_f64()
                    .map(|f| f as $t)
                    .ok_or_else(|| DeError::custom(concat!("expected ", stringify!($t))))
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_bool().ok_or_else(|| DeError::custom("expected bool"))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError::custom("expected string"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
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
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_seq()
            .ok_or_else(|| DeError::custom("expected sequence"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

// Shared slices, as real serde provides them under its `rc` feature:
// the contents travel as a sequence and sharing is not preserved.
impl<T: Serialize> Serialize for Arc<[T]> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Arc<[T]> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Vec::<T>::from_value(v).map(Arc::from)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+),)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let s = v.as_seq().ok_or_else(|| DeError::custom("expected tuple sequence"))?;
                Ok(($($t::from_value(
                    s.get($n).ok_or_else(|| DeError::custom("tuple too short"))?
                )?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_map()
            .ok_or_else(|| DeError::custom("expected map"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_null_round_trip() {
        let none: Option<u32> = None;
        assert_eq!(none.to_value(), Value::Null);
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u32>::from_value(&Value::U64(7)).unwrap(), Some(7));
    }

    #[test]
    fn indexing_missing_yields_null() {
        let v = Value::Map(vec![("a".into(), Value::U64(1))]);
        assert_eq!(v["a"].as_u64(), Some(1));
        assert!(v["missing"].is_null());
        assert!(v[3].is_null());
    }

    #[test]
    fn int_bounds_checked() {
        assert!(u8::from_value(&Value::U64(300)).is_err());
        assert_eq!(u8::from_value(&Value::U64(255)).unwrap(), 255);
        assert_eq!(i32::from_value(&Value::I64(-5)).unwrap(), -5);
    }

    #[test]
    fn tuple_round_trip() {
        let t = (1.5f64, 2.5f64);
        let v = t.to_value();
        assert_eq!(<(f64, f64)>::from_value(&v).unwrap(), t);
    }
}
