//! Compact binary namespace snapshots — the bulk read path.
//!
//! JSON stays the interchange format and the on-disk source of truth; a
//! snapshot is a *derived*, versioned cache of one whole namespace
//! (`<root>/index/<ns>.bin`) so a bulk load (`report`, `compare`,
//! `loupe serve`) can read hundreds of artifacts with one file read and
//! zero JSON parsing. Point reads never consult it: they read the
//! artifact's own JSON file.
//!
//! Staleness is content-addressed: the file header carries the
//! fingerprint of the namespace state (every `(key, output-fingerprint)`
//! pair in the manifest) at the time it was written. A reader supplies
//! the state it expects; anything else — missing file, other format
//! version, mismatched state, a payload that fails its checksum,
//! truncation, decode error — yields [`None`] and the caller rebuilds
//! from the JSON tree. Snapshots are therefore safe to delete at any
//! time.
//!
//! Layout (all integers little-endian, lengths as LEB128 varints):
//!
//! ```text
//! magic    b"LOUPEBIN"          8 bytes
//! version  u32                  4 bytes   (see FORMAT_VERSION)
//! state    u128 fingerprint    16 bytes
//! checksum u128 fingerprint    16 bytes   (of everything after it)
//! count    u64                  8 bytes
//! entry*   key-len, key-utf8, value-len, value-bytes
//! ```
//!
//! The checksum (new in format v3) is [`fingerprint_bytes`] of the
//! payload, checked before anything is decoded: a flipped byte that
//! would still decode to a valid but different value is a rebuild, not
//! wrong data. The value-length prefix (new in v2) validates each
//! entry: a value must decode to exactly its recorded length, or the
//! whole snapshot is rejected.
//!
//! Values are written as a tagged encoding of the serde [`Value`] tree:
//! 0 null, 1 false, 2 true, 3 u64 varint, 4 i64 zigzag varint, 5 f64
//! bits, 6 string, 7 sequence, 8 map. Reading builds no tree: the bytes
//! are a [`Source`] that each artifact type decodes itself from, and
//! nesting past [`serde::MAX_DEPTH`] is a decode error.

use std::fs;
use std::path::Path;

use loupe_core::Fingerprint;
use serde::{Deserialize, Error, Kind, Scalar, Source, Value};

use crate::fingerprint_bytes;

/// Binary snapshot format version. Bump on any layout change; readers
/// of other versions treat the file as stale. v2 added the value-length
/// prefix, v3 the payload checksum.
pub const FORMAT_VERSION: u32 = 3;

const MAGIC: &[u8; 8] = b"LOUPEBIN";

/// Where the checksummed payload starts: after magic, version, state
/// and checksum.
const PAYLOAD: usize = 8 + 4 + 16 + 16;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_I64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends the tagged encoding of `value` to `out`.
pub fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::U64(n) => {
            out.push(TAG_U64);
            put_varint(*n, out);
        }
        Value::I64(n) => {
            out.push(TAG_I64);
            put_varint(zigzag(*n), out);
        }
        Value::F64(x) => {
            out.push(TAG_F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_varint(s.len() as u64, out);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            put_varint(items.len() as u64, out);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Map(pairs) => {
            out.push(TAG_MAP);
            put_varint(pairs.len() as u64, out);
            for (k, v) in pairs {
                encode_value(k, out);
                encode_value(v, out);
            }
        }
    }
}

/// A snapshot value as a [`Source`]: decoders pull tokens straight from
/// the tagged bytes. Every malformation is an error.
struct Tagged<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Items left in each open container, innermost last.
    open: Vec<u64>,
}

impl<'a> Tagged<'a> {
    fn corrupt() -> Error {
        Error::custom("corrupt snapshot value")
    }

    fn tag(&self) -> Result<u8, Error> {
        self.buf.get(self.pos).copied().ok_or_else(Self::corrupt)
    }

    fn varint(&mut self) -> Result<u64, Error> {
        get_varint(self.buf, &mut self.pos).ok_or_else(Self::corrupt)
    }

    fn bytes(&mut self, len: u64) -> Result<&'a [u8], Error> {
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| self.pos.checked_add(len))
            .ok_or_else(Self::corrupt)?;
        let bytes = self.buf.get(self.pos..end).ok_or_else(Self::corrupt)?;
        self.pos = end;
        Ok(bytes)
    }

    fn open(&mut self, want: Kind) -> Result<(), Error> {
        let got = self.peek()?;
        if got != want {
            return Err(Error::expected(&want.to_string(), got));
        }
        if self.open.len() >= serde::MAX_DEPTH {
            return Err(Error::custom("snapshot value nested too deep"));
        }
        self.pos += 1;
        let len = self.varint()?;
        self.open.push(len);
        Ok(())
    }
}

impl Source for Tagged<'_> {
    fn peek(&mut self) -> Result<Kind, Error> {
        Ok(match self.tag()? {
            TAG_NULL => Kind::Null,
            TAG_FALSE | TAG_TRUE => Kind::Bool,
            TAG_U64 | TAG_I64 | TAG_F64 => Kind::Number,
            TAG_STR => Kind::Str,
            TAG_SEQ => Kind::Seq,
            TAG_MAP => Kind::Map,
            _ => return Err(Self::corrupt()),
        })
    }

    fn scalar(&mut self) -> Result<Scalar<'_>, Error> {
        let tag = self.tag()?;
        self.pos += 1;
        Ok(match tag {
            TAG_NULL => Scalar::Null,
            TAG_FALSE => Scalar::Bool(false),
            TAG_TRUE => Scalar::Bool(true),
            TAG_U64 => Scalar::U64(self.varint()?),
            TAG_I64 => Scalar::I64(unzigzag(self.varint()?)),
            TAG_F64 => {
                let bytes = self.bytes(8)?.try_into().map_err(|_| Self::corrupt())?;
                Scalar::F64(f64::from_bits(u64::from_le_bytes(bytes)))
            }
            TAG_STR => {
                let len = self.varint()?;
                Scalar::Str(std::str::from_utf8(self.bytes(len)?).map_err(|_| Self::corrupt())?)
            }
            _ => return Err(Self::corrupt()),
        })
    }

    fn seq(&mut self) -> Result<(), Error> {
        self.open(Kind::Seq)
    }

    fn map(&mut self) -> Result<(), Error> {
        self.open(Kind::Map)
    }

    fn next(&mut self) -> Result<bool, Error> {
        let left = self.open.last_mut().ok_or_else(Self::corrupt)?;
        if *left == 0 {
            self.open.pop();
            return Ok(false);
        }
        *left -= 1;
        Ok(true)
    }
}

/// Decodes one tagged value from the whole of `bytes` as a `T`. `None`
/// on any malformation, a type mismatch, or bytes left over.
pub fn decode<T: Deserialize>(bytes: &[u8]) -> Option<T> {
    let mut src = Tagged {
        buf: bytes,
        pos: 0,
        open: Vec::new(),
    };
    let value = T::deserialize(&mut src).ok()?;
    (src.pos == bytes.len()).then_some(value)
}

/// Reads a snapshot, decoding every entry as a `T`, only if it matches
/// `expected_state` (and the current format version) exactly, its
/// payload matches its checksum, and every entry decodes to exactly its
/// recorded value length. `None` on anything else, an undecodable entry
/// included — the caller rebuilds from the JSON tree.
pub fn read<T: Deserialize>(path: &Path, expected_state: Fingerprint) -> Option<Vec<(String, T)>> {
    let buf = fs::read(path).ok()?;
    if buf.len() < PAYLOAD + 8 || &buf[..8] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().ok()?);
    let state = u128::from_le_bytes(buf[12..28].try_into().ok()?);
    if version != FORMAT_VERSION || Fingerprint::from_u128(state) != expected_state {
        return None;
    }
    let checksum = u128::from_le_bytes(buf[28..PAYLOAD].try_into().ok()?);
    if fingerprint_bytes(&buf[PAYLOAD..]) != Fingerprint::from_u128(checksum) {
        return None;
    }
    let count = u64::from_le_bytes(buf[PAYLOAD..PAYLOAD + 8].try_into().ok()?);
    let mut pos = PAYLOAD + 8;
    // No capacity from `count`: a hostile header must not size an
    // allocation.
    let mut entries = Vec::new();
    for _ in 0..count {
        let key_len = get_varint(&buf, &mut pos)? as usize;
        let key = std::str::from_utf8(buf.get(pos..pos.checked_add(key_len)?)?).ok()?;
        pos += key_len;
        let value_len = get_varint(&buf, &mut pos)? as usize;
        let end = pos.checked_add(value_len)?;
        // The value must decode to exactly its length prefix.
        let value = decode(buf.get(pos..end)?)?;
        pos = end;
        entries.push((key.to_owned(), value));
    }
    (pos == buf.len()).then_some(entries) // trailing garbage: corrupt
}

/// Writes a snapshot for `entries` tagged with `state`, atomically
/// (`write_atomic`); errors are reported but harmless — a missing
/// snapshot only costs the next rebuild. Values are encoded one at a
/// time, so `entries` may build each one on the fly.
pub fn write<'a>(
    path: &Path,
    state: Fingerprint,
    entries: impl ExactSizeIterator<Item = (&'a str, impl std::borrow::Borrow<Value>)>,
) -> std::io::Result<()> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&state.to_u128().to_le_bytes());
    buf.resize(PAYLOAD, 0); // the checksum, filled in below
    buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    let mut scratch = Vec::new();
    for (key, value) in entries {
        put_varint(key.len() as u64, &mut buf);
        buf.extend_from_slice(key.as_bytes());
        scratch.clear();
        encode_value(value.borrow(), &mut scratch);
        put_varint(scratch.len() as u64, &mut buf);
        buf.extend_from_slice(&scratch);
    }
    seal(&mut buf);
    crate::write_atomic(path, &buf)
}

/// Writes the checksum of `buf`'s payload into its header.
fn seal(buf: &mut [u8]) {
    let checksum = fingerprint_bytes(&buf[PAYLOAD..]).to_u128();
    buf[28..PAYLOAD].copy_from_slice(&checksum.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use loupe_core::fingerprint_of;

    fn sample() -> Value {
        Value::Map(vec![
            (Value::Str("name".into()), Value::Str("redis".into())),
            (
                Value::Str("counts".into()),
                Value::Seq(vec![Value::U64(3), Value::I64(-7), Value::F64(0.25)]),
            ),
            (Value::Str("ok".into()), Value::Bool(true)),
            (Value::Str("none".into()), Value::Null),
        ])
    }

    #[test]
    fn value_codec_roundtrips() {
        let v = sample();
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        assert_eq!(decode(&buf), Some(v));

        // Varint edges.
        for n in [0u64, 127, 128, u64::MAX] {
            let mut buf = Vec::new();
            encode_value(&Value::U64(n), &mut buf);
            assert_eq!(decode(&buf), Some(Value::U64(n)));
        }
        for n in [0i64, -1, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            encode_value(&Value::I64(n), &mut buf);
            assert_eq!(decode(&buf), Some(Value::I64(n)));
        }

        let mut hostile = vec![TAG_STR]; // a length that overflows the offset
        put_varint(u64::MAX, &mut hostile);
        assert_eq!(decode::<Value>(&hostile), None);
        // Truncation never panics, just returns None.
        let mut full = Vec::new();
        encode_value(&sample(), &mut full);
        for cut in 0..full.len() {
            assert_eq!(decode::<Value>(&full[..cut]), None);
        }
    }

    #[test]
    fn snapshot_roundtrips_and_rejects_stale_state() {
        let dir = std::env::temp_dir().join(format!("loupe-snap-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("index").join("matrix.bin");
        let state = fingerprint_of(&"state-1");
        let v = sample();
        let entries = vec![("kerla/redis/health".to_owned(), v.clone())];
        write(&path, state, entries.iter().map(|(k, v)| (k.as_str(), v))).unwrap();

        assert_eq!(read(&path, state), Some(entries.clone()));
        assert_eq!(
            read::<Value>(&path, fingerprint_of(&"state-2")),
            None,
            "a snapshot of other content is stale"
        );
        assert_eq!(read::<Value>(&dir.join("missing.bin"), state), None);

        // Corrupt tail → rejected wholesale, by the checksum and, with
        // the checksum resealed, by the decoder.
        let good = std::fs::read(&path).unwrap();
        let mut bytes = good.clone();
        bytes.push(0xff);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read::<Value>(&path, state), None);
        seal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read::<Value>(&path, state), None);

        // Older formats read as stale: v1 (no value-length prefix) and
        // v2 (no checksum).
        for old in [1u32, 2] {
            let mut bytes = good.clone();
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(read::<Value>(&path, state), None, "v{old} reads as stale");
        }

        // Every flipped byte is caught: the header's by the magic,
        // version and state checks, the payload's by the checksum, and
        // a flipped checksum matches nothing.
        for at in 0..good.len() {
            let mut bytes = good.clone();
            bytes[at] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(read::<Value>(&path, state), None, "byte {at} flipped");
        }

        // Hostile payloads behind a valid checksum are rejected without
        // a panic: a value-length prefix that disagrees with the encoded
        // value, one byte short or one byte long…
        let len_at = PAYLOAD + 8 + 1 + "kerla/redis/health".len(); // count, key length, key
        for delta in [-1i64, 1] {
            let mut bytes = good.clone();
            bytes[len_at] = (i64::from(bytes[len_at]) + delta) as u8;
            seal(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(
                read::<Value>(&path, state),
                None,
                "value length off by {delta}"
            );
        }
        // …and an entry count of u64::MAX with no entries behind it,
        // which must not size an allocation.
        let mut bytes = good[..PAYLOAD + 8].to_vec();
        bytes[PAYLOAD..].copy_from_slice(&u64::MAX.to_le_bytes());
        seal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read::<Value>(&path, state), None);
        // …and an entry of 1M `TAG_SEQ` bytes: sequences nested ~500k
        // deep, which must be refused past `MAX_DEPTH` instead of
        // overflowing the stack.
        let mut bytes = good[..PAYLOAD + 8].to_vec();
        bytes[PAYLOAD..].copy_from_slice(&1u64.to_le_bytes());
        put_varint(1, &mut bytes);
        bytes.push(b'k');
        put_varint(1 << 20, &mut bytes);
        bytes.resize(bytes.len() + (1 << 20), TAG_SEQ);
        seal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read::<Value>(&path, state), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
