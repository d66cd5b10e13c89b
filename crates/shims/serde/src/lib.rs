//! Offline stand-in for `serde`, vendored into the workspace.
//!
//! The container building this repo has no access to crates.io, so the real
//! `serde` cannot be resolved. The bench binaries only need one capability:
//! turning a flat row struct into a JSON object for `.jsonl` result files.
//! This crate provides exactly that — a [`Serialize`] trait producing a
//! [`Json`] value tree, plus a `#[derive(Serialize)]` macro (re-exported from
//! `serde-derive-shim`) for plain structs with named fields.
//!
//! It is *not* serde: no typed deserialization (the `serde_json` shim parses
//! into the [`Json`] tree and call sites pick fields out with the accessor
//! helpers), no non-self-describing formats, no enums/generics in derives.
//! If the environment ever gains registry access,
//! delete `crates/shims/` and point the manifests at the real crates; the
//! call sites are source-compatible for the subset used here.

#![forbid(unsafe_code)]

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; rendered via the shortest round-trip float formatting.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup: the value under `key`, or `None` for missing
    /// keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a [`Json::Num`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral
    /// [`Json::Num`] (the shim stores all numbers as `f64`, so integers are
    /// exact up to 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 9.0e15 => Some(*x as u64),
            _ => None,
        }
    }

    /// The string slice, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element slice, if this is a [`Json::Arr`].
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends the number `x` as [`Json::Num`] renders it: an integral value
/// below 9e15 in magnitude as a plain integer (`-0` as `0`), any other
/// finite value in Rust's shortest round-trip form, and NaN or ±inf as
/// `null` (JSON has neither; this mirrors serde_json).
pub fn write_num(out: &mut String, x: f64) {
    use std::fmt::Write;
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 9.0e15 {
        write_int(out, x as i64);
    } else {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{x}");
    }
}

/// Appends the decimal digits of `v`, with a leading `-` when negative.
fn write_int(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    let mut rest = v.unsigned_abs();
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(char::from(d));
    }
}

/// Appends `s` as a JSON string literal: `"` and `\` escaped, `\n`, `\t`
/// and `\r` by name, every other control character below U+0020 as
/// `\u00xx`, and everything else (non-ASCII included) as is.
pub fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `plain..i` lies on char
        // boundaries.
        out.push_str(s.get(plain..i).unwrap_or_default());
        plain = i + 1;
        if named.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 15)]));
        } else {
            out.push_str(named);
        }
    }
    out.push_str(s.get(plain..).unwrap_or_default());
    out.push('"');
}

/// Conversion into a [`Json`] value — the whole of "serde" this repo needs.
pub trait Serialize {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

pub use serde_derive_shim::Serialize;

macro_rules! num_impl {
    ($($t:ty),+) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )+};
}

num_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl Serialize for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Serialize for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_containers() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(3.0)),
            ("b".into(), Json::Str("x\"y".into())),
            ("c".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        let mut s = String::new();
        v.render(&mut s);
        assert_eq!(s, r#"{"a":3,"b":"x\"y","c":[true,null]}"#);
    }

    #[test]
    fn accessors_select_by_shape() {
        let v = Json::Obj(vec![
            ("n".into(), Json::Num(7.0)),
            ("name".into(), Json::Str("mis".into())),
            ("flag".into(), Json::Bool(true)),
            ("q".into(), Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
        ]);
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(7.0));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("mis"));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("q").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut s = String::new();
        f64::NAN.to_json().render(&mut s);
        assert_eq!(s, "null");
    }

    /// The renderer this crate had before it wrote numbers and escapes in
    /// place: the reference the in-place render must match byte for byte.
    fn reference_render(v: &Json, out: &mut String) {
        match v {
            Json::Num(x) => {
                if x.is_finite() {
                    if x.fract() == 0.0 && x.abs() < 9.0e15 {
                        out.push_str(&format!("{}", *x as i64));
                    } else {
                        out.push_str(&format!("{x}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    reference_render(v, out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    reference_render(&Json::Str(k.clone()), out);
                    out.push(':');
                    reference_render(v, out);
                }
                out.push('}');
            }
            other => other.render(out),
        }
    }

    #[test]
    fn in_place_render_matches_the_reference_byte_for_byte() {
        let nine_e15 = 9.0e15;
        let numbers = [
            0.0,
            -0.0,
            nine_e15,
            nine_e15 + 1.0,
            -nine_e15,
            nine_e15 - 1.0,
            1.5,
            -2.25,
            1e-7,
            1e300,
            9_007_199_254_740_992.0,
            u64::MAX as f64,
            i64::MIN as f64,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut controls: String = (1u8..0x20).map(char::from).collect();
        controls.push_str("\"\\/\u{7f}é αβγ 🦀 plain");
        let strings = ["", "plain", "x\"y", "\\", "\u{0}", "tail\u{1f}", &controls];
        let mut values: Vec<Json> = numbers.iter().map(|&x| Json::Num(x)).collect();
        values.extend(strings.iter().map(|s| Json::Str((*s).to_owned())));
        values.push(Json::Obj(
            strings
                .iter()
                .zip(numbers)
                .map(|(k, x)| ((*k).to_owned(), Json::Arr(vec![Json::Num(x), Json::Null])))
                .collect(),
        ));
        for v in &values {
            let (mut fast, mut reference) = (String::new(), String::new());
            v.render(&mut fast);
            reference_render(v, &mut reference);
            assert_eq!(fast, reference, "{v:?}");
        }
        let rendered = |x: f64| {
            let mut s = String::new();
            Json::Num(x).render(&mut s);
            s
        };
        assert_eq!(rendered(-0.0), "0");
        assert_eq!(rendered(nine_e15), "9000000000000000");
        assert_eq!(rendered(nine_e15 + 1.0), "9000000000000001");
        assert_eq!(rendered(1.5), "1.5");
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(rendered(x), "null");
        }
    }

    // The derive macro expands to `serde::`-prefixed paths, so it can only
    // be exercised from a downstream crate: see the serde_json shim's tests.
}
