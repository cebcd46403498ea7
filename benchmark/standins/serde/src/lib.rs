//! Offline stand-in for the subset of `serde` 1.x this repository uses.
//!
//! Upstream serde streams through `Serializer`/`Deserializer` visitors. The
//! repository only derives the two traits and goes through `serde_json`, so
//! this stand-in converts through one JSON-shaped [`Value`] tree instead:
//! [`Serialize::to_value`] and [`Deserialize::from_value`]. The derive macros
//! (`serde_derive` stand-in) cover named-field structs, externally tagged,
//! internally tagged (`tag`, `rename_all = "snake_case"`) and untagged enums,
//! and the field attributes `default` and `skip_serializing_if`.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON number, kept as parsed so integers round-trip exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

impl Number {
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::PosInt(u) => u as f64,
            Number::NegInt(i) => i as f64,
            Number::Float(f) => f,
        }
    }
}

/// An object that keeps insertion order (struct fields serialize in
/// declaration order, as upstream writes them).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    pub fn new() -> Map {
        Map::default()
    }

    pub fn with_capacity(n: usize) -> Map {
        Map {
            entries: Vec::with_capacity(n),
        }
    }

    /// Insert or replace; returns the previous value of the key.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        let key = key.into();
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, slot)) => Some(std::mem::replace(slot, value)),
            None => {
                self.entries.push((key, value));
                None
            }
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let at = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(at).1)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }
}

#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

static NULL: Value = Value::Null;

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(Number::Float(_)) => "a float",
            Value::Number(_) => "an integer",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }
}

/// Compact JSON text, as upstream's `Display` for `serde_json::Value`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        __private::write_json(&mut out, self, None);
        f.write_str(&out)
    }
}

/// `value["key"]` yields `Null` for a missing key or a non-object, as
/// upstream does.
impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, at: usize) -> &Value {
        self.as_array().and_then(|a| a.get(at)).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

/// Conversion error: what was expected and what was found.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    message: String,
}

impl Error {
    pub fn custom(message: impl fmt::Display) -> Error {
        Error {
            message: message.to_string(),
        }
    }

    fn expected(what: &str, found: &Value) -> Error {
        Error::custom(format!(
            "invalid type: expected {what}, found {}",
            found.kind()
        ))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

pub trait Serialize {
    fn to_value(&self) -> Value;
}

pub trait Deserialize<'de>: Sized {
    fn from_value(value: &Value) -> Result<Self, Error>;

    /// What an absent struct field becomes: an error, except for `Option`.
    fn from_missing(field: &str) -> Result<Self, Error> {
        Err(Error::custom(format!("missing field `{field}`")))
    }
}

pub mod de {
    pub use super::{Deserialize, Error};

    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
}

pub mod ser {
    pub use super::{Error, Serialize};
}

// ---------------------------------------------------------------- Serialize

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! serialize_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::PosInt(*self as u64))
            }
        }
    )*};
}
serialize_unsigned!(u8, u16, u32, u64, usize);

macro_rules! serialize_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                Value::Number(if v >= 0 { Number::PosInt(v as u64) } else { Number::NegInt(v) })
            }
        }
    )*};
}
serialize_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::Float(*self))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::Float(f64::from(*self)))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Serialize::to_value)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

macro_rules! serialize_tuple {
    ($(($($name:ident $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                const LEN: usize = [$($idx),+].len();
                match value {
                    Value::Array(items) if items.len() == LEN => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    other => Err(Error::expected(&format!("an array of {LEN}"), other)),
                }
            }
        }
    )*};
}
serialize_tuple! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
}

impl<V: Serialize, S: std::hash::BuildHasher> Serialize for HashMap<String, V, S> {
    /// Keys are sorted so the output does not depend on the hasher.
    fn to_value(&self) -> Value {
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        let mut m = Map::with_capacity(keys.len());
        for k in keys {
            m.insert(k.clone(), self[k].to_value());
        }
        Value::Object(m)
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        let mut m = Map::with_capacity(self.len());
        for (k, v) in self {
            m.insert(k.clone(), v.to_value());
        }
        Value::Object(m)
    }
}

// -------------------------------------------------------------- Deserialize

impl<'de> Deserialize<'de> for Value {
    fn from_value(value: &Value) -> Result<Value, Error> {
        Ok(value.clone())
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_value(value: &Value) -> Result<bool, Error> {
        value
            .as_bool()
            .ok_or_else(|| Error::expected("a boolean", value))
    }
}

macro_rules! deserialize_int {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<$t, Error> {
                let out = match value {
                    Value::Number(Number::PosInt(u)) => <$t>::try_from(*u).ok(),
                    Value::Number(Number::NegInt(i)) => <$t>::try_from(*i).ok(),
                    other => return Err(Error::expected(stringify!($t), other)),
                };
                out.ok_or_else(|| {
                    Error::custom(format!("integer out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
deserialize_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<'de> Deserialize<'de> for f64 {
    fn from_value(value: &Value) -> Result<f64, Error> {
        value
            .as_f64()
            .ok_or_else(|| Error::expected("a number", value))
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn from_value(value: &Value) -> Result<f32, Error> {
        f64::from_value(value).map(|f| f as f32)
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(value: &Value) -> Result<String, Error> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::expected("a string", value))
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn from_value(value: &Value) -> Result<Box<T>, Error> {
        T::from_value(value).map(Box::new)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_value(value: &Value) -> Result<Option<T>, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn from_missing(_field: &str) -> Result<Option<T>, Error> {
        Ok(None)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_value(value: &Value) -> Result<Vec<T>, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::expected("an array", other)),
        }
    }
}

impl<'de, V: Deserialize<'de>, S: std::hash::BuildHasher + Default> Deserialize<'de>
    for HashMap<String, V, S>
{
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Object(m) => m
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(Error::expected("an object", other)),
        }
    }
}

impl<'de, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Object(m) => m
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(Error::expected("an object", other)),
        }
    }
}

/// Helpers the derive macros expand to. Not a public interface.
#[doc(hidden)]
pub mod __private {
    use super::{Deserialize, Error, Map, Number, Value};
    use std::fmt::Write as _;

    fn write_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn write_number(out: &mut String, n: &Number) {
        let _ = match *n {
            Number::PosInt(u) => write!(out, "{u}"),
            Number::NegInt(i) => write!(out, "{i}"),
            Number::Float(f) if f.is_finite() => write!(out, "{f:?}"),
            Number::Float(_) => write!(out, "null"),
        };
    }

    fn newline(out: &mut String, indent: Option<usize>) {
        if let Some(level) = indent {
            out.push('\n');
            for _ in 0..level {
                out.push_str("  ");
            }
        }
    }

    /// `indent` is `None` for compact output, else the current nesting level.
    pub fn write_json(out: &mut String, value: &Value, indent: Option<usize>) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(out, n),
            Value::String(s) => write_string(out, s),
            Value::Array(items) => {
                out.push('[');
                let inner = indent.map(|l| l + 1);
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    write_json(out, item, inner);
                }
                if !items.is_empty() {
                    newline(out, indent);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                let inner = indent.map(|l| l + 1);
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_json(out, v, inner);
                }
                if !map.is_empty() {
                    newline(out, indent);
                }
                out.push('}');
            }
        }
    }

    pub fn object<'v>(value: &'v Value, ty: &str) -> Result<&'v Map, Error> {
        value
            .as_object()
            .ok_or_else(|| Error::expected(&format!("an object for {ty}"), value))
    }

    fn in_field<T>(key: &str, r: Result<T, Error>) -> Result<T, Error> {
        r.map_err(|e| Error::custom(format!("{e} (field `{key}`)")))
    }

    pub fn field<'de, T: Deserialize<'de>>(map: &Map, key: &str) -> Result<T, Error> {
        match map.get(key) {
            Some(v) => in_field(key, T::from_value(v)),
            None => T::from_missing(key),
        }
    }

    pub fn field_or_default<'de, T: Deserialize<'de> + Default>(
        map: &Map,
        key: &str,
    ) -> Result<T, Error> {
        match map.get(key) {
            Some(v) => in_field(key, T::from_value(v)),
            None => Ok(T::default()),
        }
    }

    /// Externally tagged enum: `"Variant"` or `{"Variant": content}`.
    pub fn variant<'v>(value: &'v Value, ty: &str) -> Result<(&'v str, Option<&'v Value>), Error> {
        match value {
            Value::String(s) => Ok((s.as_str(), None)),
            Value::Object(m) if m.len() == 1 => {
                let (k, v) = m.iter().next().expect("one entry");
                Ok((k.as_str(), Some(v)))
            }
            other => Err(Error::expected(
                &format!("a string or single-key object for enum {ty}"),
                other,
            )),
        }
    }

    pub fn content<'v>(content: Option<&'v Value>, variant: &str) -> Result<&'v Value, Error> {
        content.ok_or_else(|| Error::custom(format!("variant `{variant}` expects content")))
    }

    pub fn tuple<'v>(value: &'v Value, len: usize, variant: &str) -> Result<&'v [Value], Error> {
        match value {
            Value::Array(items) if items.len() == len => Ok(items),
            other => Err(Error::expected(
                &format!("an array of {len} for variant `{variant}`"),
                other,
            )),
        }
    }

    pub fn tag<'v>(map: &'v Map, tag: &str, ty: &str) -> Result<&'v str, Error> {
        map.get(tag)
            .and_then(Value::as_str)
            .ok_or_else(|| Error::custom(format!("missing string tag `{tag}` for enum {ty}")))
    }

    pub fn unknown_variant(name: &str, ty: &str) -> Error {
        Error::custom(format!("unknown variant `{name}` of enum {ty}"))
    }

    pub fn no_variant_matched(ty: &str) -> Error {
        Error::custom(format!(
            "data did not match any variant of untagged enum {ty}"
        ))
    }
}
