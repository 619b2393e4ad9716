//! Compact binary persistence for anything the vendored serde shim can
//! serialize — the fast-cold-start alternative to `io::write_json`.
//!
//! JSON artifacts pay shortest-exact float *formatting* on save and
//! `FromStr` float *parsing* on load — for a persisted forest (tens of
//! thousands of `f64` thresholds and leaves) that dominates registry
//! cold-start. This codec writes `f64` **bit patterns verbatim** in
//! little-endian byte order, so loading is a bounds-checked memcpy walk
//! instead of a parse, and round-trips are trivially bit-identical.
//!
//! ## Format
//!
//! Every file starts with a versioned magic header:
//!
//! | bytes | meaning                                   |
//! |-------|-------------------------------------------|
//! | 0..4  | magic `LAMB` (`4C 41 4D 42`)              |
//! | 4..8  | codec version, `u32` little-endian (1)    |
//! | 8..   | one encoded [`Value`]                     |
//!
//! A value is a one-byte tag followed by its payload; all integers are
//! little-endian, all lengths are `u32`:
//!
//! | tag | variant      | payload                                      |
//! |-----|--------------|----------------------------------------------|
//! | 0   | `Null`       | —                                            |
//! | 1   | `Bool(false)`| —                                            |
//! | 2   | `Bool(true)` | —                                            |
//! | 3   | `PosInt`     | `u64`                                        |
//! | 4   | `NegInt`     | `i64`                                        |
//! | 5   | `Float`      | `f64` bits                                   |
//! | 6   | `String`     | len + UTF-8 bytes                            |
//! | 7   | `Array`      | len + encoded elements                       |
//! | 8   | `Object`     | len + (len-prefixed key, encoded value) pairs|
//! | 9   | float array  | len + raw `f64` bits                         |
//!
//! Tag 9 is a transparent fast path: an array whose elements are all
//! `Number::Float` (tree thresholds, leaf values, coefficient vectors —
//! the bulk of every model artifact) is packed as raw floats, 9 bytes per
//! element instead of a tagged value each, and decodes back to the same
//! `Value::Array` it came from.
//!
//! Decoding treats its input as untrusted (artifacts arrive from peers):
//! lengths are checked against the bytes remaining, and arrays and
//! objects may nest at most [`MAX_NESTING`] deep.

use crate::io::IoError;
use serde::{Deserialize, Number, Serialize, Value};

/// File magic: `LAMB` ("LAM Binary").
pub const MAGIC: [u8; 4] = *b"LAMB";

/// Codec version written after the magic; bump on layout changes so stale
/// artifacts fail loudly instead of decoding wrong.
pub const BINARY_VERSION: u32 = 1;

/// Deepest array/object nesting [`from_bytes`] accepts. Decoding recurses
/// once per level, so an unbounded depth lets a small hostile input
/// overflow the stack; model artifacts nest at most 9 deep.
pub const MAX_NESTING: usize = 128;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_POS_INT: u8 = 3;
const TAG_NEG_INT: u8 = 4;
const TAG_FLOAT: u8 = 5;
const TAG_STRING: u8 = 6;
const TAG_ARRAY: u8 = 7;
const TAG_OBJECT: u8 = 8;
const TAG_FLOAT_ARRAY: u8 = 9;

fn push_len(out: &mut Vec<u8>, len: usize) -> Result<(), IoError> {
    let len = u32::try_from(len)
        .map_err(|_| IoError::Binary(format!("collection of {len} elements exceeds u32 length")))?;
    out.extend_from_slice(&len.to_le_bytes());
    Ok(())
}

fn encode_value(value: &Value, out: &mut Vec<u8>) -> Result<(), IoError> {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Number(Number::PosInt(v)) => {
            out.push(TAG_POS_INT);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Number(Number::NegInt(v)) => {
            out.push(TAG_NEG_INT);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Number(Number::Float(v)) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Value::String(s) => {
            out.push(TAG_STRING);
            push_len(out, s.len())?;
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            let all_floats = !items.is_empty()
                && items
                    .iter()
                    .all(|v| matches!(v, Value::Number(Number::Float(_))));
            if all_floats {
                out.push(TAG_FLOAT_ARRAY);
                push_len(out, items.len())?;
                for item in items {
                    let Value::Number(Number::Float(v)) = item else {
                        unreachable!("checked all-floats above");
                    };
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            } else {
                out.push(TAG_ARRAY);
                push_len(out, items.len())?;
                for item in items {
                    encode_value(item, out)?;
                }
            }
        }
        Value::Object(fields) => {
            out.push(TAG_OBJECT);
            push_len(out, fields.len())?;
            for (key, item) in fields {
                push_len(out, key.len())?;
                out.extend_from_slice(key.as_bytes());
                encode_value(item, out)?;
            }
        }
    }
    Ok(())
}

/// A cursor over the encoded bytes with bounds-checked primitive reads.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], IoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| {
                IoError::Binary(format!(
                    "truncated: wanted {n} bytes at offset {}, file holds {}",
                    self.pos,
                    self.bytes.len()
                ))
            })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, IoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, IoError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, IoError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a length and sanity-check it against the bytes remaining
    /// (each encoded element needs at least `min_elem_bytes`), so a
    /// corrupt length cannot trigger a huge allocation.
    fn len(&mut self, min_elem_bytes: usize) -> Result<usize, IoError> {
        let len = self.u32()? as usize;
        let remaining = self.bytes.len() - self.pos;
        if len.saturating_mul(min_elem_bytes) > remaining {
            return Err(IoError::Binary(format!(
                "corrupt length {len} at offset {}: only {remaining} bytes remain",
                self.pos - 4
            )));
        }
        Ok(len)
    }

    fn string(&mut self) -> Result<String, IoError> {
        let len = self.len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| IoError::Binary(format!("invalid utf-8 in string: {e}")))
    }

    fn value(&mut self) -> Result<Value, IoError> {
        let tag = self.u8()?;
        if matches!(tag, TAG_ARRAY | TAG_OBJECT) {
            if self.depth == MAX_NESTING {
                return Err(IoError::Binary(format!(
                    "nesting deeper than {MAX_NESTING} at offset {}",
                    self.pos - 1
                )));
            }
            self.depth += 1;
            let value = self.container(tag);
            self.depth -= 1;
            return value;
        }
        Ok(match tag {
            TAG_NULL => Value::Null,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_POS_INT => Value::Number(Number::PosInt(self.u64()?)),
            TAG_NEG_INT => Value::Number(Number::NegInt(self.u64()? as i64)),
            TAG_FLOAT => Value::Number(Number::Float(f64::from_bits(self.u64()?))),
            TAG_STRING => Value::String(self.string()?),
            TAG_FLOAT_ARRAY => {
                let len = self.len(8)?;
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    items.push(Value::Number(Number::Float(f64::from_bits(self.u64()?))));
                }
                Value::Array(items)
            }
            other => {
                return Err(IoError::Binary(format!(
                    "unknown value tag {other} at offset {}",
                    self.pos - 1
                )))
            }
        })
    }

    /// The payload of an array or object whose tag was just read.
    fn container(&mut self, tag: u8) -> Result<Value, IoError> {
        if tag == TAG_ARRAY {
            let len = self.len(1)?;
            let mut items = Vec::with_capacity(len);
            for _ in 0..len {
                items.push(self.value()?);
            }
            return Ok(Value::Array(items));
        }
        let len = self.len(5)?;
        let mut fields = Vec::with_capacity(len);
        for _ in 0..len {
            let key = self.string()?;
            let value = self.value()?;
            fields.push((key, value));
        }
        Ok(Value::Object(fields))
    }
}

/// Encode a serializable value as header + binary tree.
pub fn to_bytes<T: Serialize>(value: &T) -> Result<Vec<u8>, IoError> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&BINARY_VERSION.to_le_bytes());
    encode_value(&value.to_value(), &mut out)?;
    Ok(out)
}

/// Decode a value written by [`to_bytes`], validating magic and version
/// and rejecting trailing garbage.
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, IoError> {
    let mut reader = Reader {
        bytes,
        pos: 0,
        depth: 0,
    };
    let magic = reader.take(4)?;
    if magic != MAGIC {
        return Err(IoError::Binary(format!(
            "bad magic {magic:02x?}, expected {MAGIC:02x?} (`LAMB`)"
        )));
    }
    let version = reader.u32()?;
    if version != BINARY_VERSION {
        return Err(IoError::Binary(format!(
            "binary codec version {version}, this build reads {BINARY_VERSION}"
        )));
    }
    let value = reader.value()?;
    if reader.pos != bytes.len() {
        return Err(IoError::Binary(format!(
            "{} trailing bytes after the encoded value",
            bytes.len() - reader.pos
        )));
    }
    T::from_value(&value).map_err(|e| IoError::Binary(format!("decode: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let bytes = to_bytes(v).unwrap();
        from_bytes(&bytes).unwrap()
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Number(Number::PosInt(u64::MAX)),
            Value::Number(Number::NegInt(i64::MIN)),
            Value::Number(Number::Float(std::f64::consts::PI)),
            Value::String("héllo \"world\"\n".into()),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn float_bits_survive_verbatim() {
        for bits in [
            0u64,
            f64::to_bits(-0.0),
            f64::to_bits(f64::NAN),
            f64::to_bits(f64::INFINITY),
            f64::to_bits(f64::MIN_POSITIVE),
            0x0000_0000_0000_0001, // subnormal
            f64::to_bits(1.0000000000000002),
        ] {
            let v = Value::Number(Number::Float(f64::from_bits(bits)));
            let bytes = to_bytes(&v).unwrap();
            let back: Value = from_bytes(&bytes).unwrap();
            let Value::Number(Number::Float(f)) = back else {
                panic!("variant changed");
            };
            assert_eq!(f.to_bits(), bits);
        }
    }

    #[test]
    fn float_arrays_pack_and_round_trip() {
        let items: Vec<Value> = (0..1000)
            .map(|i| Value::Number(Number::Float(i as f64 / 7.0)))
            .collect();
        let v = Value::Array(items);
        let bytes = to_bytes(&v).unwrap();
        // Header 8 + tag 1 + len 4 + 8 per float: the packed fast path.
        assert_eq!(bytes.len(), 8 + 1 + 4 + 1000 * 8);
        assert_eq!(from_bytes::<Value>(&bytes).unwrap(), v);
    }

    #[test]
    fn mixed_arrays_and_objects_round_trip() {
        let v = Value::Object(vec![
            (
                "nested".into(),
                Value::Array(vec![
                    Value::Number(Number::PosInt(1)),
                    Value::Number(Number::Float(2.5)),
                    Value::Null,
                ]),
            ),
            ("empty_array".into(), Value::Array(vec![])),
            ("empty_object".into(), Value::Object(vec![])),
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = to_bytes(&Value::Null).unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            from_bytes::<Value>(&bytes),
            Err(IoError::Binary(_))
        ));
        let mut bytes = to_bytes(&Value::Null).unwrap();
        bytes[4] = 99;
        assert!(matches!(
            from_bytes::<Value>(&bytes),
            Err(IoError::Binary(_))
        ));
    }

    #[test]
    fn truncated_and_trailing_bytes_rejected() {
        let bytes = to_bytes(&Value::String("hello".into())).unwrap();
        assert!(matches!(
            from_bytes::<Value>(&bytes[..bytes.len() - 1]),
            Err(IoError::Binary(_))
        ));
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            from_bytes::<Value>(&padded),
            Err(IoError::Binary(_))
        ));
    }

    #[test]
    fn corrupt_length_cannot_demand_huge_allocation() {
        // An array claiming u32::MAX elements in a tiny file must error,
        // not allocate.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&BINARY_VERSION.to_le_bytes());
        bytes.push(TAG_ARRAY);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            from_bytes::<Value>(&bytes),
            Err(IoError::Binary(_))
        ));
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        // `depth` arrays, each holding the next, innermost empty.
        let nested = |depth: usize| {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&BINARY_VERSION.to_le_bytes());
            for level in 0..depth {
                bytes.push(TAG_ARRAY);
                let len: u32 = if level + 1 == depth { 0 } else { 1 };
                bytes.extend_from_slice(&len.to_le_bytes());
            }
            bytes
        };
        assert!(from_bytes::<Value>(&nested(MAX_NESTING)).is_ok());
        assert!(matches!(
            from_bytes::<Value>(&nested(MAX_NESTING + 1)),
            Err(IoError::Binary(_))
        ));
        // 10,000 levels in 50 KB, on the 2 MB stack of a spawned thread:
        // an error, not a stack overflow.
        let deep = nested(10_000);
        let decoded = std::thread::spawn(move || from_bytes::<Value>(&deep).is_err());
        assert!(decoded.join().expect("no stack overflow"));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&BINARY_VERSION.to_le_bytes());
        bytes.push(200);
        assert!(matches!(
            from_bytes::<Value>(&bytes),
            Err(IoError::Binary(_))
        ));
    }

    #[test]
    fn file_round_trip_through_typed_api() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Artifact {
            name: String,
            weights: Vec<f64>,
            tag: Option<u32>,
        }
        let a = Artifact {
            name: "m".into(),
            weights: vec![1.5, -0.0, f64::MIN_POSITIVE],
            tag: None,
        };
        let path = std::env::temp_dir().join("lam_data_binio_roundtrip.lamb");
        std::fs::write(&path, to_bytes(&a).unwrap()).unwrap();
        let back: Artifact = from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(a.name, back.name);
        assert_eq!(a.tag, back.tag);
        for (x, y) in a.weights.iter().zip(&back.weights) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn binary_is_smaller_than_json_for_float_heavy_payloads() {
        let weights: Vec<f64> = (0..5000).map(|i| (i as f64).sin() * 1e-3).collect();
        let v = Value::Array(
            weights
                .iter()
                .map(|&w| Value::Number(Number::Float(w)))
                .collect(),
        );
        let bin = to_bytes(&v).unwrap();
        let json = serde_json::to_string(&v).unwrap();
        assert!(
            bin.len() < json.len(),
            "binary {} vs json {}",
            bin.len(),
            json.len()
        );
    }
}
