//! Offline stand-in for `serde`.
//!
//! Every serialized type in this workspace goes to and from JSON, so the
//! shim drops serde's format-agnostic visitor protocol and works on JSON
//! text directly, in one pass each way:
//!
//! * **Encode.** A [`Serializer`] is a handle on one caller-owned output
//!   buffer, the [`__private::Writer`]. Derived `Serialize` impls (see the
//!   sibling `serde_derive` shim) write their keys as string literals and
//!   hand each field to the same writer, which formats integers and floats
//!   in place and copies the unescaped runs of a string in one go. Nothing
//!   is built between the value and its text.
//! * **Decode.** A [`Deserializer`] is a handle on the
//!   [`__private::Parser`] over the input text. Derived `Deserialize` impls
//!   read the value they expect straight from it: object keys are matched
//!   as slices of the input, and a string with no escapes is copied once.
//!
//! The public surface mirrors the fragments of serde's API the workspace
//! spells out by hand:
//!
//! * `Serialize` / `Deserialize` traits plus the re-exported derives;
//! * `Serializer` with `serialize_f64` / `serialize_str` (the
//!   `finite_or_tag` codec) and `serialize_content`;
//! * `ser::Error` / `de::Error` with `custom`.
//!
//! [`__private::Content`] is a JSON-shaped value tree for the few impls
//! that want one: hand-written codecs serialize a tree through
//! `serialize_content` (rendered by the same writer) and decode through
//! [`__private::FromContent`] from a tree the same parser builds, and
//! `#[serde(untagged)]` enums try their variants against a tree. Derived
//! types never build one.

// Derive-generated code refers to `serde::...`; alias self so the derives
// also work inside this crate's own tests.
extern crate self as serde;

pub use serde_derive::{Deserialize, Serialize};

pub mod ser {
    /// Error constraint for serializers (mirror of `serde::ser::Error`).
    pub trait Error: Sized + std::fmt::Display {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }
}

pub mod de {
    /// Error constraint for deserializers (mirror of `serde::de::Error`).
    pub trait Error: Sized + std::fmt::Display {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }
}

use __private::{Content, Parser, Writer};

/// A type that can be serialized.
pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// Data sink: a handle on the JSON [`Writer`]. Unlike upstream's
/// 30-method protocol, the shim has one required method, and the entry
/// points the workspace calls by hand are written in terms of it.
pub trait Serializer: Sized {
    type Ok;
    type Error: ser::Error;

    /// Runs `f` on the writer this serializer appends to.
    fn write_json<F>(self, f: F) -> Result<Self::Ok, Self::Error>
    where
        F: FnOnce(&mut Writer) -> Result<(), __private::Error>;

    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error> {
        self.write_json(|w| {
            w.f64(v);
            Ok(())
        })
    }

    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error> {
        self.write_json(|w| {
            w.str(v);
            Ok(())
        })
    }

    /// Renders a hand-built content tree (used by hand-written impls).
    fn serialize_content(self, content: Content) -> Result<Self::Ok, Self::Error> {
        self.write_json(|w| {
            w.content(&content);
            Ok(())
        })
    }
}

/// A type that can be deserialized.
pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// Data source: a handle on the JSON [`Parser`], positioned at the value
/// to decode.
pub trait Deserializer<'de>: Sized {
    type Error: de::Error;

    /// Runs `f` on the parser; `f` consumes exactly one value.
    fn read_json<T, F>(self, f: F) -> Result<T, Self::Error>
    where
        F: FnOnce(&mut Parser<'de>) -> Result<T, __private::Error>;

    /// Parses the value into a content tree (for `FromContent` decoding).
    fn content(self) -> Result<Content, Self::Error> {
        self.read_json(|p| p.content())
    }
}

// ---------------------------------------------------------------------------
// Serialize / Deserialize impls for primitives and std containers.

macro_rules! impl_int {
    ($($t:ty => $write:ident as $wide:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.write_json(|w| {
                    w.$write(*self as $wide);
                    Ok(())
                })
            }
        }

        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                d.read_json(|p| p.int(stringify!($t)))
            }
        }
    )*};
}
impl_int!(
    i8 => i64 as i64, i16 => i64 as i64, i32 => i64 as i64, i64 => i64 as i64, isize => i64 as i64,
    u8 => u64 as u64, u16 => u64 as u64, u32 => u64 as u64, u64 => u64 as u64, usize => u64 as u64,
);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.write_json(|w| {
            w.bool(*self);
            Ok(())
        })
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.read_json(|p| p.bool())
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(*self)
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.read_json(|p| p.f64())
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(*self as f64)
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.read_json(|p| p.f64().map(|v| v as f32))
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.read_json(|p| p.string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.write_json(|w| w.seq(self))
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(s)
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.read_json(|p| {
            let mut slots: [Option<T>; N] = std::array::from_fn(|_| None);
            let mut n = 0;
            p.seq(|p| {
                let v = T::deserialize(&mut *p)?;
                if let Some(slot) = slots.get_mut(n) {
                    *slot = Some(v);
                }
                n += 1;
                Ok(())
            })?;
            if n != N {
                return Err(__private::Error::msg(&format!("expected array of length {N}, found {n}")));
            }
            Ok(slots.map(|s| s.expect("every slot filled")))
        })
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(s)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.read_json(|p| {
            let mut out = Vec::new();
            p.seq(|p| {
                out.push(T::deserialize(&mut *p)?);
                Ok(())
            })?;
            Ok(out)
        })
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        T::deserialize(d).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            None => s.write_json(|w| {
                w.null();
                Ok(())
            }),
            Some(v) => v.serialize(s),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.read_json(|p| if p.null()? { Ok(None) } else { T::deserialize(p).map(Some) })
    }
}

// ---------------------------------------------------------------------------
// The JSON writer and parser, plus the support machinery the derive macros
// call (name-mangled like upstream's `serde::__private`, and equally not a
// stable public API).

pub mod __private {
    use super::{de, ser, Deserializer, Serialize, Serializer};
    use std::borrow::Cow;

    /// JSON-shaped value tree (see the crate docs for who still uses it).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Content {
        Null,
        Bool(bool),
        I64(i64),
        U64(u64),
        F64(f64),
        Str(String),
        Seq(Vec<Content>),
        Map(Vec<(String, Content)>),
    }

    impl Content {
        fn kind(&self) -> &'static str {
            match self {
                Content::Null => "null",
                Content::Bool(_) => "bool",
                Content::I64(_) | Content::U64(_) | Content::F64(_) => "number",
                Content::Str(_) => "string",
                Content::Seq(_) => "sequence",
                Content::Map(_) => "map",
            }
        }
    }

    /// Error of the writer, the parser and content decoding.
    #[derive(Debug, Clone)]
    pub struct Error(String);

    impl Error {
        pub fn msg(m: &str) -> Self {
            Error(m.to_string())
        }
    }

    impl std::fmt::Display for Error {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl ser::Error for Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }

    impl de::Error for Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }

    // -- encoding ----------------------------------------------------------

    /// Escape for each byte of a string: 0 = copy as is, `u` = `\u00XX`,
    /// anything else = a backslash followed by that byte.
    const ESCAPE: [u8; 256] = {
        let mut t = [0u8; 256];
        let mut i = 0;
        while i < 0x20 {
            t[i] = b'u';
            i += 1;
        }
        t[b'\n' as usize] = b'n';
        t[b'\r' as usize] = b'r';
        t[b'\t' as usize] = b't';
        t[b'"' as usize] = b'"';
        t[b'\\' as usize] = b'\\';
        t
    };

    /// JSON text under construction, appended to one buffer. Every method
    /// appends valid UTF-8, so the buffer stays a string if it began as one.
    #[derive(Debug, Default)]
    pub struct Writer {
        buf: Vec<u8>,
    }

    impl Writer {
        /// A writer appending to `buf` (which it keeps until
        /// [`Writer::into_inner`]).
        pub fn new(buf: Vec<u8>) -> Self {
            Writer { buf }
        }

        pub fn into_inner(self) -> Vec<u8> {
            self.buf
        }

        /// Appends `s` verbatim: keys, punctuation and other text that is
        /// already JSON.
        #[inline]
        pub fn raw(&mut self, s: &str) {
            self.buf.extend_from_slice(s.as_bytes());
        }

        pub fn null(&mut self) {
            self.raw("null");
        }

        pub fn bool(&mut self, v: bool) {
            self.raw(if v { "true" } else { "false" });
        }

        pub fn u64(&mut self, mut v: u64) {
            let mut digits = [0u8; 20];
            let mut i = digits.len();
            loop {
                i -= 1;
                digits[i] = b'0' + (v % 10) as u8;
                v /= 10;
                if v == 0 {
                    break;
                }
            }
            self.buf.extend_from_slice(&digits[i..]);
        }

        pub fn i64(&mut self, v: i64) {
            if v < 0 {
                self.buf.push(b'-');
            }
            self.u64(v.unsigned_abs());
        }

        /// Shortest round-trip decimal, with `.0` appended when that has no
        /// fraction or exponent, so floats parse back as floats. JSON has no
        /// NaN/Infinity; like upstream inside a container, they become
        /// `null`.
        pub fn f64(&mut self, v: f64) {
            if !v.is_finite() {
                return self.null();
            }
            let start = self.buf.len();
            std::io::Write::write_fmt(&mut self.buf, format_args!("{v}")).expect("writing to a Vec cannot fail");
            if !self.buf[start..].iter().any(|&b| matches!(b, b'.' | b'e' | b'E')) {
                self.raw(".0");
            }
        }

        /// A quoted, escaped string. Runs that need no escape are copied
        /// whole.
        pub fn str(&mut self, s: &str) {
            let bytes = s.as_bytes();
            self.buf.push(b'"');
            let mut run = 0;
            for (i, &b) in bytes.iter().enumerate() {
                let esc = ESCAPE[b as usize];
                if esc == 0 {
                    continue;
                }
                self.buf.extend_from_slice(&bytes[run..i]);
                run = i + 1;
                if esc == b'u' {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    self.buf.extend_from_slice(&[b'\\', b'u', b'0', b'0', HEX[(b >> 4) as usize], HEX[(b & 0xF) as usize]]);
                } else {
                    self.buf.extend_from_slice(&[b'\\', esc]);
                }
            }
            self.buf.extend_from_slice(&bytes[run..]);
            self.buf.push(b'"');
        }

        /// A JSON array of `items`.
        pub fn seq<T: Serialize>(&mut self, items: &[T]) -> Result<(), Error> {
            self.buf.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    self.buf.push(b',');
                }
                item.serialize(&mut *self)?;
            }
            self.buf.push(b']');
            Ok(())
        }

        /// Renders a content tree.
        pub fn content(&mut self, c: &Content) {
            match c {
                Content::Null => self.null(),
                Content::Bool(b) => self.bool(*b),
                Content::I64(v) => self.i64(*v),
                Content::U64(v) => self.u64(*v),
                Content::F64(v) => self.f64(*v),
                Content::Str(s) => self.str(s),
                Content::Seq(items) => {
                    self.buf.push(b'[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            self.buf.push(b',');
                        }
                        self.content(item);
                    }
                    self.buf.push(b']');
                }
                Content::Map(entries) => {
                    self.buf.push(b'{');
                    for (i, (k, v)) in entries.iter().enumerate() {
                        if i > 0 {
                            self.buf.push(b',');
                        }
                        self.str(k);
                        self.buf.push(b':');
                        self.content(v);
                    }
                    self.buf.push(b'}');
                }
            }
        }
    }

    impl Serializer for &mut Writer {
        type Ok = ();
        type Error = Error;

        fn write_json<F>(self, f: F) -> Result<(), Error>
        where
            F: FnOnce(&mut Writer) -> Result<(), Error>,
        {
            f(self)
        }
    }

    // -- decoding ----------------------------------------------------------

    /// A JSON number as written: integers stay exact when they fit.
    enum Number {
        U64(u64),
        I64(i64),
        F64(f64),
    }

    /// The kind of JSON value, as told by its first byte.
    #[derive(Clone, Copy, PartialEq)]
    enum Token {
        Null,
        Bool,
        Str,
        Seq,
        Map,
        Number,
    }

    impl Token {
        fn name(self) -> &'static str {
            match self {
                Token::Null => "null",
                Token::Bool => "bool",
                Token::Str => "string",
                Token::Seq => "sequence",
                Token::Map => "map",
                Token::Number => "number",
            }
        }
    }

    /// Cursor over JSON text. Each reader skips leading whitespace and
    /// consumes exactly one value.
    pub struct Parser<'de> {
        src: &'de str,
        pos: usize,
    }

    impl<'de> Parser<'de> {
        pub fn new(src: &'de str) -> Self {
            Parser { src, pos: 0 }
        }

        /// Checks that only whitespace follows the decoded value.
        pub fn end(&mut self) -> Result<(), Error> {
            self.skip_ws();
            if self.pos == self.src.len() {
                Ok(())
            } else {
                Err(self.err("trailing characters after JSON value"))
            }
        }

        fn err(&self, msg: &str) -> Error {
            Error(format!("{msg} at byte {}", self.pos))
        }

        fn bytes(&self) -> &'de [u8] {
            self.src.as_bytes()
        }

        fn peek(&self) -> Option<u8> {
            self.bytes().get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        /// Skips whitespace and classifies the value that starts there by
        /// its first byte; `None` when no value can start here.
        fn token(&mut self) -> Option<Token> {
            self.skip_ws();
            Some(match self.peek()? {
                b'n' => Token::Null,
                b't' | b'f' => Token::Bool,
                b'"' => Token::Str,
                b'[' => Token::Seq,
                b'{' => Token::Map,
                b'-' | b'0'..=b'9' => Token::Number,
                _ => return None,
            })
        }

        fn mismatch(&mut self, expected: &str) -> Error {
            match self.token() {
                Some(found) => Error(format!("expected {expected}, found {}", found.name())),
                None => self.err("expected a JSON value"),
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), Error> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected {:?}", b as char)))
            }
        }

        fn expect_literal(&mut self, lit: &str) -> Result<(), Error> {
            if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(())
            } else {
                Err(self.err(&format!("expected {lit}")))
            }
        }

        /// Consumes a `null` and returns true, or consumes nothing and
        /// returns false when another value starts here.
        pub fn null(&mut self) -> Result<bool, Error> {
            self.skip_ws();
            if self.peek() != Some(b'n') {
                return Ok(false);
            }
            self.expect_literal("null")?;
            Ok(true)
        }

        pub fn bool(&mut self) -> Result<bool, Error> {
            match self.token() {
                Some(Token::Bool) if self.peek() == Some(b't') => self.expect_literal("true").map(|()| true),
                Some(Token::Bool) => self.expect_literal("false").map(|()| false),
                _ => Err(self.mismatch("bool")),
            }
        }

        fn number(&mut self) -> Result<Number, Error> {
            let start = self.pos;
            let negative = self.peek() == Some(b'-');
            if negative {
                self.pos += 1;
            }
            // Integer fast path: accumulate while scanning.
            let digits = self.pos;
            let mut acc = 0u64;
            let mut overflow = false;
            while let Some(c @ b'0'..=b'9') = self.peek() {
                match acc.checked_mul(10).and_then(|a| a.checked_add((c - b'0') as u64)) {
                    Some(v) => acc = v,
                    None => overflow = true,
                }
                self.pos += 1;
            }
            let mut is_float = false;
            while let Some(c) = self.peek() {
                match c {
                    b'0'..=b'9' => self.pos += 1,
                    b'.' | b'e' | b'E' | b'+' | b'-' => {
                        is_float = true;
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            if !is_float && !overflow && self.pos > digits {
                if !negative {
                    return Ok(Number::U64(acc));
                }
                if acc <= 1 << 63 {
                    return Ok(Number::I64((acc as i64).wrapping_neg()));
                }
            }
            let text = &self.src[start..self.pos];
            text.parse::<f64>().map(Number::F64).map_err(|_| self.err("bad number"))
        }

        /// An integer of the type named `ty`.
        pub fn int<T: TryFrom<u64> + TryFrom<i64>>(&mut self, ty: &str) -> Result<T, Error> {
            if self.token() != Some(Token::Number) {
                return Err(self.mismatch(&format!("integer for {ty}")));
            }
            let out_of_range = |v: &dyn std::fmt::Display| Error(format!("{v} out of range for {ty}"));
            match self.number()? {
                Number::U64(v) => T::try_from(v).map_err(|_| out_of_range(&v)),
                Number::I64(v) => T::try_from(v).map_err(|_| out_of_range(&v)),
                Number::F64(_) => Err(Error(format!("expected integer for {ty}, found number"))),
            }
        }

        pub fn f64(&mut self) -> Result<f64, Error> {
            if self.token() != Some(Token::Number) {
                return Err(self.mismatch("number"));
            }
            Ok(match self.number()? {
                Number::U64(v) => v as f64,
                Number::I64(v) => v as f64,
                Number::F64(v) => v,
            })
        }

        pub fn string(&mut self) -> Result<String, Error> {
            if self.token() != Some(Token::Str) {
                return Err(self.mismatch("string"));
            }
            self.str().map(Cow::into_owned)
        }

        /// The string at the cursor (which must be its opening quote),
        /// borrowed from the input when it holds no escapes.
        fn str(&mut self) -> Result<Cow<'de, str>, Error> {
            self.expect(b'"')?;
            let bytes = self.bytes();
            let start = self.pos;
            self.scan_run();
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&self.src[start..self.pos - 1]));
                }
                None => return Err(self.err("unterminated string")),
                Some(b'\\') => {}
                Some(_) => return Err(self.err("raw control character in string")),
            }
            let mut out = Vec::with_capacity(self.pos - start + 16);
            out.extend_from_slice(&bytes[start..self.pos]);
            loop {
                // At a backslash.
                self.pos += 1;
                let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                self.pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0C),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let c = self.unicode_escape()?;
                        out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                    }
                    _ => return Err(self.err("unknown escape")),
                }
                let run = self.pos;
                self.scan_run();
                out.extend_from_slice(&bytes[run..self.pos]);
                match bytes.get(self.pos) {
                    Some(b'"') => {
                        self.pos += 1;
                        // The decoded value keeps this buffer: drop the
                        // slack doubling left (shrinking reallocs in place).
                        out.shrink_to_fit();
                        // Whole runs of the `&str` input, cut only at ASCII
                        // bytes, plus the UTF-8 of escaped chars.
                        return Ok(Cow::Owned(String::from_utf8(out).expect("unescaped text is UTF-8")));
                    }
                    Some(b'\\') => {}
                    None => return Err(self.err("unterminated string")),
                    Some(_) => return Err(self.err("raw control character in string")),
                }
            }
        }

        /// Advances past bytes that a string copies verbatim.
        fn scan_run(&mut self) {
            let bytes = self.bytes();
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
        }

        /// The char of a `\u` escape whose `\u` is consumed, joining a
        /// surrogate pair.
        fn unicode_escape(&mut self) -> Result<char, Error> {
            let hi = self.hex4()?;
            let cp = if (0xD800..0xDC00).contains(&hi) {
                self.expect_literal("\\u")?;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            } else {
                hi
            };
            char::from_u32(cp).ok_or_else(|| self.err("invalid unicode escape"))
        }

        fn hex4(&mut self) -> Result<u32, Error> {
            let digits = self.bytes().get(self.pos..self.pos + 4).ok_or_else(|| self.err("truncated \\u escape"))?;
            let mut v = 0;
            for &d in digits {
                let nibble = (d as char).to_digit(16).ok_or_else(|| self.err("bad \\u escape"))?;
                v = v * 16 + nibble;
            }
            self.pos += 4;
            Ok(v)
        }

        /// Visits each element of an array.
        pub fn seq(&mut self, mut f: impl FnMut(&mut Self) -> Result<(), Error>) -> Result<(), Error> {
            if self.token() != Some(Token::Seq) {
                return Err(self.mismatch("sequence"));
            }
            self.pos += 1;
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(());
            }
            loop {
                f(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(self.err("expected , or ] in array")),
                }
            }
        }

        /// Visits each entry of an object with its key; `f` consumes the
        /// value.
        pub fn object(&mut self, mut f: impl FnMut(&mut Self, &str) -> Result<(), Error>) -> Result<(), Error> {
            if self.token() != Some(Token::Map) {
                return Err(self.mismatch("map"));
            }
            self.pos += 1;
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(());
            }
            loop {
                self.skip_ws();
                let key = self.str()?;
                self.skip_ws();
                self.expect(b':')?;
                f(self, &key)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(self.err("expected , or } in object")),
                }
            }
        }

        /// Opens an externally tagged enum value: a bare string is a unit
        /// variant (`false`), a one-entry object carries a payload (`true`,
        /// with the cursor at the payload; close it with
        /// [`Parser::variant_end`]).
        pub fn variant(&mut self) -> Result<(Cow<'de, str>, bool), Error> {
            match self.token() {
                Some(Token::Str) => Ok((self.str()?, false)),
                Some(Token::Map) => {
                    self.pos += 1;
                    self.skip_ws();
                    let tag = self.str()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    Ok((tag, true))
                }
                _ => Err(self.mismatch("enum (string or 1-entry map)")),
            }
        }

        /// Closes the one-entry object [`Parser::variant`] opened.
        pub fn variant_end(&mut self) -> Result<(), Error> {
            self.skip_ws();
            match self.peek() {
                Some(b'}') => {
                    self.pos += 1;
                    Ok(())
                }
                Some(b',') => Err(Error::msg("expected enum (string or 1-entry map), found map")),
                _ => Err(self.err("expected , or } in object")),
            }
        }

        /// Consumes (and validates) a value nothing reads.
        pub fn skip_value(&mut self) -> Result<(), Error> {
            self.content().map(drop)
        }

        /// Parses a value into a content tree.
        pub fn content(&mut self) -> Result<Content, Error> {
            match self.token() {
                Some(Token::Null) => self.expect_literal("null").map(|()| Content::Null),
                Some(Token::Bool) => self.bool().map(Content::Bool),
                Some(Token::Str) => self.str().map(|s| Content::Str(s.into_owned())),
                Some(Token::Number) => Ok(match self.number()? {
                    Number::U64(v) => Content::U64(v),
                    Number::I64(v) => Content::I64(v),
                    Number::F64(v) => Content::F64(v),
                }),
                Some(Token::Seq) => {
                    let mut items = Vec::new();
                    self.seq(|p| {
                        items.push(p.content()?);
                        Ok(())
                    })?;
                    Ok(Content::Seq(items))
                }
                Some(_) => {
                    let mut entries = Vec::new();
                    self.object(|p, k| {
                        entries.push((k.to_string(), p.content()?));
                        Ok(())
                    })?;
                    Ok(Content::Map(entries))
                }
                None => Err(self.err("expected a JSON value")),
            }
        }
    }

    impl<'de> Deserializer<'de> for &mut Parser<'de> {
        type Error = Error;

        fn read_json<T, F>(self, f: F) -> Result<T, Error>
        where
            F: FnOnce(&mut Parser<'de>) -> Result<T, Error>,
        {
            f(self)
        }
    }

    // -- helpers the derive-generated code calls ---------------------------

    /// Decodes one named field into its slot. A repeated key keeps its
    /// first value.
    pub fn fill<'de, T>(
        slot: &mut Option<T>,
        p: &mut Parser<'de>,
        name: &str,
        f: impl FnOnce(&mut Parser<'de>) -> Result<T, Error>,
    ) -> Result<(), Error> {
        if slot.is_some() {
            return p.skip_value();
        }
        *slot = Some(f(p).map_err(|e| Error(format!("field {name:?}: {e}")))?);
        Ok(())
    }

    /// The decoded value of a required field.
    pub fn take<T>(slot: Option<T>, name: &str) -> Result<T, Error> {
        slot.ok_or_else(|| Error(format!("missing field {name:?}")))
    }

    /// Error for a payload-carrying variant that arrived as a bare tag.
    pub fn no_payload(name: &str) -> Error {
        Error(format!("variant {name} expects a payload"))
    }

    pub fn unknown_variant(tag: &str, ty: &str) -> Error {
        Error(format!("unknown variant {tag} of enum {ty}"))
    }

    // -- decoding out of a content tree ------------------------------------

    /// Decoding out of a content tree, for hand-written codecs and
    /// `#[serde(untagged)]` enums.
    pub trait FromContent: Sized {
        fn from_content(c: &Content) -> Result<Self, Error>;
    }

    pub fn as_map(c: &Content) -> Result<&[(String, Content)], Error> {
        match c {
            Content::Map(m) => Ok(m),
            other => Err(Error(format!("expected map, found {}", other.kind()))),
        }
    }

    pub fn field_content<'a>(m: &'a [(String, Content)], name: &str) -> Result<&'a Content, Error> {
        m.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| Error(format!("missing field {name:?}")))
    }

    pub fn field<T: FromContent>(m: &[(String, Content)], name: &str) -> Result<T, Error> {
        T::from_content(field_content(m, name)?).map_err(|e| Error(format!("field {name:?}: {e}")))
    }

    /// Splits an externally tagged enum value into `(variant_name, payload)`.
    /// A bare string is a unit variant; a one-entry map carries a payload.
    pub fn enum_parts(c: &Content) -> Result<(&str, Option<&Content>), Error> {
        match c {
            Content::Str(s) => Ok((s, None)),
            Content::Map(m) if m.len() == 1 => Ok((&m[0].0, Some(&m[0].1))),
            other => Err(Error(format!("expected enum (string or 1-entry map), found {}", other.kind()))),
        }
    }

    /// Payload of a non-unit variant (errors if the tag arrived bare).
    pub fn variant_inner<'a>(inner: Option<&'a Content>, name: &str) -> Result<&'a Content, Error> {
        inner.ok_or_else(|| no_payload(name))
    }

    macro_rules! impl_from_content_int {
        ($($t:ty),*) => {$(
            impl FromContent for $t {
                fn from_content(c: &Content) -> Result<Self, Error> {
                    match c {
                        Content::I64(v) => <$t>::try_from(*v)
                            .map_err(|_| Error(format!("{v} out of range for {}", stringify!($t)))),
                        Content::U64(v) => <$t>::try_from(*v)
                            .map_err(|_| Error(format!("{v} out of range for {}", stringify!($t)))),
                        other => Err(Error(format!(
                            "expected integer for {}, found {}", stringify!($t), other.kind()
                        ))),
                    }
                }
            }
        )*};
    }
    impl_from_content_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl FromContent for bool {
        fn from_content(c: &Content) -> Result<Self, Error> {
            match c {
                Content::Bool(b) => Ok(*b),
                other => Err(Error(format!("expected bool, found {}", other.kind()))),
            }
        }
    }

    impl FromContent for f64 {
        fn from_content(c: &Content) -> Result<Self, Error> {
            match c {
                Content::F64(v) => Ok(*v),
                Content::I64(v) => Ok(*v as f64),
                Content::U64(v) => Ok(*v as f64),
                other => Err(Error(format!("expected number, found {}", other.kind()))),
            }
        }
    }

    impl FromContent for String {
        fn from_content(c: &Content) -> Result<Self, Error> {
            match c {
                Content::Str(s) => Ok(s.clone()),
                other => Err(Error(format!("expected string, found {}", other.kind()))),
            }
        }
    }

    impl<T: FromContent> FromContent for Vec<T> {
        fn from_content(c: &Content) -> Result<Self, Error> {
            match c {
                Content::Seq(items) => items.iter().map(T::from_content).collect(),
                other => Err(Error(format!("expected sequence, found {}", other.kind()))),
            }
        }
    }

    /// Bridges a `FromContent` impl into `Deserialize`.
    pub fn deserialize_via_content<'de, T: FromContent, D: Deserializer<'de>>(d: D) -> Result<T, D::Error> {
        let c = d.content()?;
        T::from_content(&c).map_err(<D::Error as de::Error>::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::__private::{Content, Parser, Writer};
    use super::{Deserialize, Serialize, Serializer};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Point {
        x: i64,
        y: Option<u16>,
        tags: Vec<String>,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Dot,
        Circle { r: f64 },
        Pair(u8),
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Wrap(Shape);

    fn text<T: Serialize>(v: &T) -> String {
        let mut w = Writer::default();
        v.serialize(&mut w).unwrap();
        String::from_utf8(w.into_inner()).unwrap()
    }

    fn back<'a, T: Deserialize<'a>>(s: &'a str) -> Result<T, super::__private::Error> {
        let mut p = Parser::new(s);
        let v = T::deserialize(&mut p)?;
        p.end()?;
        Ok(v)
    }

    #[test]
    fn derived_struct_writes_fields_in_declaration_order() {
        let p = Point { x: -3, y: Some(7), tags: vec!["a".into(), "b".into()] };
        assert_eq!(text(&p), r#"{"x":-3,"y":7,"tags":["a","b"]}"#);
        assert_eq!(back::<Point>(&text(&p)).unwrap(), p);
    }

    #[test]
    fn derived_enum_roundtrips_all_variant_shapes() {
        for v in [Shape::Dot, Shape::Circle { r: 2.5 }, Shape::Pair(9)] {
            assert_eq!(back::<Shape>(&text(&v)).unwrap(), v);
            let w = Wrap(v);
            assert_eq!(back::<Wrap>(&text(&w)).unwrap(), w);
        }
        assert_eq!(text(&Shape::Circle { r: 2.5 }), r#"{"Circle":{"r":2.5}}"#);
        assert_eq!(text(&Wrap(Shape::Pair(9))), r#"{"Pair":9}"#);
    }

    #[test]
    fn unit_variants_are_bare_strings() {
        assert_eq!(text(&Shape::Dot), "\"Dot\"");
        assert!(back::<Shape>("\"Nope\"").unwrap_err().to_string().contains("unknown variant Nope"));
        assert!(back::<Shape>("\"Pair\"").unwrap_err().to_string().contains("expects a payload"));
    }

    #[test]
    fn fields_may_come_in_any_order_and_unknown_keys_are_skipped() {
        let p: Point = back(r#"{ "tags" : [ ] , "extra":{"a":[1,2]}, "y":null,"x":5 }"#).unwrap();
        assert_eq!(p, Point { x: 5, y: None, tags: vec![] });
        let e = back::<Point>(r#"{"x":5,"y":null}"#).unwrap_err();
        assert_eq!(e.to_string(), "missing field \"tags\"");
    }

    #[test]
    fn option_none_is_null() {
        let p = Point { x: 0, y: None, tags: vec![] };
        assert_eq!(text(&p), r#"{"x":0,"y":null,"tags":[]}"#);
    }

    #[test]
    fn integer_range_errors_are_reported() {
        let e = back::<Point>(r#"{"x":1,"y":70000,"tags":[]}"#).unwrap_err();
        assert_eq!(e.to_string(), "field \"y\": 70000 out of range for u16");
    }

    #[test]
    fn content_renders_through_the_same_writer() {
        let c = Content::Map(vec![
            ("a".into(), Content::Seq(vec![Content::U64(1), Content::I64(-2), Content::F64(3.0)])),
            ("b\"".into(), Content::Str("x\ny".into())),
            ("c".into(), Content::F64(f64::NAN)),
            ("d".into(), Content::Bool(false)),
            ("e".into(), Content::Null),
        ]);
        let mut w = Writer::default();
        (&mut w).serialize_content(c.clone()).unwrap();
        let s = String::from_utf8(w.into_inner()).unwrap();
        assert_eq!(s, r#"{"a":[1,-2,3.0],"b\"":"x\ny","c":null,"d":false,"e":null}"#);
        let mut p = Parser::new(&s);
        let mut expect = c;
        if let Content::Map(m) = &mut expect {
            m[2].1 = Content::Null;
        }
        assert_eq!(p.content().unwrap(), expect);
    }
}
