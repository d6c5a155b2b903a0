//! Offline stand-in for `serde_json`: [`to_writer`], [`to_string`] and
//! [`from_str`] over the shim serde's one-pass JSON writer and parser.
//! Covers the JSON-lines log format this workspace reads and writes —
//! objects, arrays, strings with escapes, integers kept exact (i64/u64),
//! floats rendered with Rust's shortest-round-trip `{}`.
//!
//! Encoding appends to a caller-owned buffer: a hot loop that serializes
//! record after record calls [`to_writer`] on one `Vec<u8>` it clears
//! between records, instead of allocating a `String` per record.
//! Decoding reads typed values straight out of the input text; nothing is
//! parsed into an intermediate tree first.

use serde::__private::{Parser, Writer};

/// Error type (`std::error::Error + Send + Sync`, as `io::Error::other`
/// requires).
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl From<serde::__private::Error> for Error {
    fn from(e: serde::__private::Error) -> Self {
        Error(e.to_string())
    }
}

/// Appends the JSON of `value` to `out`. Unlike upstream, which takes any
/// `io::Write`, the shim writes into a byte buffer only (`&mut Vec<u8>`
/// callers compile against both).
pub fn to_writer<T: serde::Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) -> Result<(), Error> {
    let mut w = Writer::new(std::mem::take(out));
    let result = value.serialize(&mut w);
    *out = w.into_inner();
    Ok(result?)
}

/// Serializes a value to a JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Vec::new();
    to_writer(&mut out, value)?;
    Ok(String::from_utf8(out).expect("the writer appends only UTF-8"))
}

/// Parses a JSON string into a deserializable value.
pub fn from_str<'a, T: serde::Deserialize<'a>>(s: &'a str) -> Result<T, Error> {
    let mut parser = Parser::new(s);
    let value = T::deserialize(&mut parser)?;
    parser.end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use serde::{Deserialize, Serialize};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Rec {
        name: String,
        count: u64,
        scale: f64,
        flags: Vec<bool>,
        note: Option<String>,
    }

    #[test]
    fn roundtrip_struct() {
        let r = Rec {
            name: "he said \"hi\"\n\ttab".into(),
            count: u64::MAX,
            scale: 0.1 + 0.2,
            flags: vec![true, false],
            note: None,
        };
        let s = super::to_string(&r).unwrap();
        let back: Rec = super::from_str(&s).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn floats_render_self_describing() {
        assert_eq!(super::to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(super::to_string(&-0.5f64).unwrap(), "-0.5");
        let v: f64 = super::from_str("1.0").unwrap();
        assert_eq!(v, 1.0);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let s: String = super::from_str(r#""aé\nA 😀""#).unwrap();
        assert_eq!(s, "aé\nA 😀");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(super::from_str::<u64>("12 34").is_err());
        assert!(super::from_str::<u64>("{").is_err());
        assert!(super::from_str::<Vec<u8>>("[1,2,").is_err());
        assert!(super::from_str::<String>("\"unterminated").is_err());
        let rejected = |json: &str, why: &str| {
            let err = super::from_str::<Rec>(json).expect_err(json).to_string();
            assert!(err.contains(why), "{json}: expected {why:?}, got {err:?}");
        };
        let ok = r#"{"name":"n","count":1,"scale":1.5,"flags":[],"note":null}"#;
        assert!(super::from_str::<Rec>(ok).is_ok());
        rejected(&format!("{ok} x"), "trailing characters");
        rejected(&format!("{ok}}}"), "trailing characters");
        rejected(r#"{"name":"ab\"#, "unterminated escape");
        rejected("{\"name\":\"a\u{1}b\"}", "raw control character");
        rejected(r#"{"name":"\u12"#, "truncated \\u escape");
        rejected(r#"{"name":"\u12"}"#, "bad \\u escape");
        rejected(r#"{"name":"\udc00"}"#, "invalid unicode escape");
        rejected(r#"{"name":"\ud800\u0041"}"#, "invalid low surrogate");
        rejected(r#"{"name":"\q"}"#, "unknown escape");
        rejected(r#"{"name":"n","count":-1}"#, "out of range for u64");
        rejected(r#"{"name":"n","count":1.5}"#, "expected integer for u64, found number");
        rejected(r#"{"name":"n","count":1,"scale":1.5,"flags":[1]}"#, "expected bool, found number");
        rejected(r#"{"name":"n","count":1,"scale":1.5,"flags":[]}"#, "missing field \"note\"");
        rejected(r#"["name"]"#, "expected map, found sequence");
    }

    /// The `finite_or_tag` float codec of the trial records, rebuilt here
    /// (the shim cannot depend on the crate that defines it).
    mod finite_or_tag {
        use serde::{Deserialize, Deserializer, Serializer};

        pub fn serialize<S: Serializer>(v: &f64, s: S) -> Result<S::Ok, S::Error> {
            if v.is_finite() {
                s.serialize_f64(*v)
            } else if v.is_nan() {
                s.serialize_str("nan")
            } else if *v > 0.0 {
                s.serialize_str("inf")
            } else {
                s.serialize_str("-inf")
            }
        }

        #[derive(Deserialize)]
        #[serde(untagged)]
        enum Raw {
            Num(f64),
            Tag(String),
        }

        pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<f64, D::Error> {
            match Raw::deserialize(d)? {
                Raw::Num(v) => Ok(v),
                Raw::Tag(t) => match t.as_str() {
                    "inf" => Ok(f64::INFINITY),
                    "-inf" => Ok(f64::NEG_INFINITY),
                    "nan" => Ok(f64::NAN),
                    other => Err(serde::de::Error::custom(format!("bad float tag {other:?}"))),
                },
            }
        }
    }

    #[derive(Debug, Serialize, Deserialize)]
    struct Mixed {
        text: String,
        unsigned: u64,
        signed: i64,
        #[serde(with = "finite_or_tag")]
        float: f64,
    }

    /// Builds a string biased towards what JSON must escape: quotes,
    /// backslashes, control characters and non-BMP text.
    fn hostile_string(codes: &[u32]) -> String {
        const SPECIAL: [char; 10] = ['"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', '/', '😀'];
        codes
            .iter()
            .map(|&c| match c % 4 {
                0 => SPECIAL[(c / 4) as usize % SPECIAL.len()],
                1 => char::from_u32(0x20 + (c >> 2) % 0x5f).unwrap(),
                _ => char::from_u32((c >> 2) % 0x11_0000).unwrap_or('\u{fffd}'),
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn values_roundtrip_through_text(
            codes in proptest::collection::vec(proptest::any::<u32>(), 0..48),
            unsigned: u64,
            signed: i64,
            bits: u64,
            special in 0usize..6,
        ) {
            // Raw bit patterns cover NaN payloads, subnormals and ±0; the
            // `special` index mixes in the values random bits rarely hit.
            let float = [f64::from_bits(bits), f64::INFINITY, f64::NEG_INFINITY, -0.0, f64::MAX, 5e-324][special];
            let v = Mixed { text: hostile_string(&codes), unsigned, signed, float };
            let json = super::to_string(&v).unwrap();
            let back: Mixed = super::from_str(&json).unwrap();
            proptest::prop_assert_eq!(&back.text, &v.text);
            proptest::prop_assert_eq!(back.unsigned, v.unsigned);
            proptest::prop_assert_eq!(back.signed, v.signed);
            // Every NaN comes back as the canonical "nan"; other values are
            // bit-exact.
            if v.float.is_nan() {
                proptest::prop_assert!(back.float.is_nan());
            } else {
                proptest::prop_assert_eq!(back.float.to_bits(), v.float.to_bits());
            }
            proptest::prop_assert_eq!(super::to_string(&back).unwrap(), json);
        }
    }

    #[test]
    fn large_integers_stay_exact() {
        let v: u64 = super::from_str("18446744073709551615").unwrap();
        assert_eq!(v, u64::MAX);
        let w: i64 = super::from_str("-9223372036854775808").unwrap();
        assert_eq!(w, i64::MIN);
    }
}
