//! Offline stand-in for the subset of `serde_json` 1.x this repository uses:
//! `to_string`, `to_string_pretty`, `to_writer`, `to_value`, `from_str`,
//! `from_value`, `Value` and `json!`, over the stand-in serde's
//! [`Value`] tree.
//!
//! Floats are written with Rust's shortest round-trip formatting and read
//! with `str::parse::<f64>`, which is correctly rounded, so every finite
//! `f64` survives a round trip exactly (upstream's `float_roundtrip`).
//! Non-finite floats are written as `null`, as upstream does.

use std::fmt;

pub use serde::{Map, Number, Value};

/// Nesting beyond this is refused, so hostile input cannot overflow the stack.
const MAX_DEPTH: usize = 128;

#[derive(Debug)]
pub struct Error {
    message: String,
}

impl Error {
    fn at(message: &str, offset: usize) -> Error {
        Error {
            message: format!("{message} at byte {offset}"),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Error {
        Error {
            message: e.to_string(),
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error {
            message: e.to_string(),
        }
    }
}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

pub type Result<T> = std::result::Result<T, Error>;

// ------------------------------------------------------------------ writing

pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(value.to_value().to_string())
}

pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    serde::__private::write_json(&mut out, &value.to_value(), Some(0));
    Ok(out)
}

pub fn to_writer<W: std::io::Write, T: serde::Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<()> {
    writer.write_all(to_string(value)?.as_bytes())?;
    Ok(())
}

// ------------------------------------------------------------------ reading

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, message: &str) -> Result<T> {
        Err(Error::at(message, self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return self.err("recursion limit exceeded");
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => self.err("unexpected end of input"),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return self.err("expected `,` or `]`"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = Map::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b'"') {
                        return self.err("expected a string key");
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b':') {
                        return self.err("expected `:`");
                    }
                    self.pos += 1;
                    let value = self.value(depth + 1)?;
                    map.insert(key, value);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(map));
                        }
                        _ => return self.err("expected `,` or `}`"),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("expected a JSON value"),
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let leading_zero = self.bytes.get(self.pos) == Some(&b'0');
        let int_digits = self.digits();
        if int_digits == 0 || (leading_zero && int_digits > 1) {
            return self.err("invalid number");
        }
        let mut integral = true;
        if self.bytes.get(self.pos) == Some(&b'.') {
            integral = false;
            self.pos += 1;
            if self.digits() == 0 {
                return self.err("expected digits after `.`");
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return self.err("expected digits in exponent");
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::PosInt(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::NegInt(i)));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Number(Number::Float(f))),
            _ => self.err("number out of range"),
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let Some(chunk) = self.bytes.get(self.pos..self.pos + 4) else {
            return self.err("truncated \\u escape");
        };
        let text = std::str::from_utf8(chunk).ok();
        match text.and_then(|t| u32::from_str_radix(t, 16).ok()) {
            Some(v) => {
                self.pos += 4;
                Ok(v)
            }
            None => self.err("invalid \\u escape"),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(
                self.bytes.get(self.pos),
                None | Some(b'"' | b'\\' | 0..=0x1F)
            ) {
                self.pos += 1;
            }
            // The input is a `&str`, and runs end only at ASCII bytes, so
            // each run is valid UTF-8.
            out.push_str(std::str::from_utf8(&self.bytes[run..self.pos]).expect("utf-8 run"));
            match self.bytes.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) {
                                if !self.eat("\\u") {
                                    return self.err("lone leading surrogate");
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return self.err("invalid trailing surrogate");
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                        }
                        _ => return self.err("invalid escape"),
                    }
                }
                Some(_) => return self.err("control character in string"),
            }
        }
    }
}

fn parse(text: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters");
    }
    Ok(value)
}

pub fn from_str<T: serde::de::DeserializeOwned>(text: &str) -> Result<T> {
    Ok(T::from_value(&parse(text)?)?)
}

pub fn from_value<T: serde::de::DeserializeOwned>(value: Value) -> Result<T> {
    Ok(T::from_value(&value)?)
}

/// Build a [`Value`] from JSON-like syntax. Object keys are string literals;
/// a value is `null`, a nested `{...}` / `[...]`, or any expression whose
/// type implements `Serialize`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($body:tt)* }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $crate::__json_object!(map $($body)*);
        $crate::Value::Object(map)
    }};
    ([ $($body:tt)* ]) => {{
        #[allow(unused_mut)]
        let mut items: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::__json_array!(items $($body)*);
        $crate::Value::Array(items)
    }};
    ($value:expr) => { $crate::__to_value(&$value) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_object {
    ($map:ident) => {};
    ($map:ident $key:literal : null $(, $($rest:tt)*)?) => {
        $map.insert($key, $crate::Value::Null);
        $crate::__json_object!($map $($($rest)*)?);
    };
    ($map:ident $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $map.insert($key, $crate::json!({ $($inner)* }));
        $crate::__json_object!($map $($($rest)*)?);
    };
    ($map:ident $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $map.insert($key, $crate::json!([ $($inner)* ]));
        $crate::__json_object!($map $($($rest)*)?);
    };
    ($map:ident $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $map.insert($key, $crate::__to_value(&$value));
        $crate::__json_object!($map $($($rest)*)?);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_array {
    ($items:ident) => {};
    ($items:ident null $(, $($rest:tt)*)?) => {
        $items.push($crate::Value::Null);
        $crate::__json_array!($items $($($rest)*)?);
    };
    ($items:ident { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $items.push($crate::json!({ $($inner)* }));
        $crate::__json_array!($items $($($rest)*)?);
    };
    ($items:ident [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $items.push($crate::json!([ $($inner)* ]));
        $crate::__json_array!($items $($($rest)*)?);
    };
    ($items:ident $value:expr $(, $($rest:tt)*)?) => {
        $items.push($crate::__to_value(&$value));
        $crate::__json_array!($items $($($rest)*)?);
    };
}

#[doc(hidden)]
pub fn __to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    #[serde(untagged)]
    enum Scalar {
        Int(i64),
        Float(f64),
        Str(String),
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Failure {
        Build(String),
        Timeout {
            limit_s: f64,
            #[serde(default, skip_serializing_if = "Option::is_none")]
            message: Option<String>,
        },
        Lost,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    #[serde(tag = "type", rename_all = "snake_case")]
    enum Request {
        Submit { id: u64, values: Vec<Scalar> },
        ShuttingDown,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
    struct Record {
        name: String,
        runtime_s: Option<f64>,
        error: Option<Failure>,
        #[serde(default)]
        counts: Vec<(String, u64)>,
        #[serde(default)]
        extra: u32,
    }

    fn round_trip<T>(value: &T) -> T
    where
        T: Serialize + serde::de::DeserializeOwned,
    {
        from_str(&to_string(value).expect("serialize")).expect("deserialize")
    }

    #[test]
    fn untagged_scalars_keep_their_kind() {
        for (text, want) in [
            ("42", Scalar::Int(42)),
            ("-7", Scalar::Int(-7)),
            ("1.5", Scalar::Float(1.5)),
            ("2.0", Scalar::Float(2.0)),
            ("\"hi\"", Scalar::Str("hi".into())),
        ] {
            let got: Scalar = from_str(text).expect("parse");
            assert_eq!(got, want);
            assert_eq!(to_string(&got).expect("ser"), text);
        }
    }

    #[test]
    fn external_and_internal_tags_round_trip() {
        let legacy: Failure = from_str("{\"Timeout\":{\"limit_s\":1.5}}").expect("legacy");
        assert_eq!(
            legacy,
            Failure::Timeout {
                limit_s: 1.5,
                message: None
            }
        );
        assert_eq!(
            to_string(&legacy).expect("ser"),
            "{\"Timeout\":{\"limit_s\":1.5}}"
        );
        assert_eq!(to_string(&Failure::Lost).expect("ser"), "\"Lost\"");
        for f in [Failure::Build("x\n\"y\"".into()), Failure::Lost, legacy] {
            assert_eq!(round_trip(&f), f);
        }
        let req = Request::Submit {
            id: u64::MAX,
            values: vec![
                Scalar::Int(3),
                Scalar::Float(0.1),
                Scalar::Str("é\u{1F600}".into()),
            ],
        };
        let text = to_string(&req).expect("ser");
        assert!(text.starts_with("{\"type\":\"submit\",\"id\":18446744073709551615,"));
        assert_eq!(round_trip(&req), req);
        assert_eq!(
            to_string(&Request::ShuttingDown).expect("ser"),
            "{\"type\":\"shutting_down\"}"
        );
        assert!(from_str::<Request>("{\"type\":\"nope\"}").is_err());
    }

    #[test]
    fn structs_default_missing_fields_and_floats_are_exact() {
        let r: Record = from_str("{\"name\":\"a\",\"runtime_s\":null}").expect("parse");
        assert_eq!(
            r,
            Record {
                name: "a".into(),
                ..Record::default()
            }
        );
        assert!(
            from_str::<Record>("{\"runtime_s\":1.0}").is_err(),
            "name is required"
        );
        for f in [
            0.1 + 0.2,
            1e-310,
            f64::MAX,
            -0.0,
            5e-324,
            1e21,
            123456789.125,
        ] {
            let back: f64 = from_str(&to_string(&f).expect("ser")).expect("de");
            assert_eq!(back.to_bits(), f.to_bits(), "{f:?}");
        }
        assert_eq!(to_string(&f64::NAN).expect("ser"), "null");
        let full = Record {
            name: "lu".into(),
            runtime_s: Some(0.25),
            error: Some(Failure::Build("boom".into())),
            counts: vec![("TIR-RACE".into(), 3)],
            extra: 9,
        };
        assert_eq!(round_trip(&full), full);
        let pretty = to_string_pretty(&full).expect("pretty");
        assert!(pretty.contains("\n  \"name\": \"lu\""));
        assert_eq!(from_str::<Record>(&pretty).expect("pretty parses"), full);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01",
            "1.",
            "\"\\x\"",
            "nul",
            "1 2",
            "\"\u{1}\"",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?} must be rejected");
        }
        let deep = "[".repeat(10_000);
        assert!(from_str::<Value>(&deep).is_err());
        let v: Value =
            from_str(" {\"a\": [1, 2.5, \"\\u00e9\\ud83d\\ude00\"], \"b\": {}} ").expect("ok");
        assert_eq!(v["a"][2], "é\u{1F600}");
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn json_macro_builds_values() {
        let name = String::from("gemm");
        let none: Option<String> = None;
        let v = json!({
            "function": name,
            "verdict": if name.len() > 3 { "reject" } else { "accept" },
            "buffer": none,
            "nested": {"k": [1, 2, {"z": null}]},
            "list": vec![1u64, 2],
        });
        assert_eq!(
            v.to_string(),
            "{\"function\":\"gemm\",\"verdict\":\"reject\",\"buffer\":null,\
             \"nested\":{\"k\":[1,2,{\"z\":null}]},\"list\":[1,2]}"
        );
    }
}
