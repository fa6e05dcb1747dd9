//! Compact binary namespace snapshots — the warm sweep's hot read path.
//!
//! JSON stays the interchange format and the on-disk source of truth; a
//! snapshot is a *derived*, versioned cache of one whole namespace
//! (`<root>/index/<ns>.bin`) so a warm sweep can bulk-load hundreds of
//! artifacts with one read and zero JSON parsing, and a serve daemon
//! can memory-map the file and decode only the entries it is asked for.
//!
//! Staleness is content-addressed: the file header carries the
//! fingerprint of the namespace state (every `(key, output-fingerprint)`
//! pair in the manifest) at the time it was written. A reader supplies
//! the state it expects; anything else — missing file, other format
//! version, mismatched state, truncation, decode error — yields
//! [`None`] and the caller rebuilds from the JSON tree. Snapshots are
//! therefore safe to delete at any time.
//!
//! Layout (all integers little-endian, lengths as LEB128 varints):
//!
//! ```text
//! magic   b"LOUPEBIN"          8 bytes
//! version u32                  4 bytes   (see FORMAT_VERSION)
//! state   u128 fingerprint    16 bytes
//! count   u64                  8 bytes
//! entry*  key-len, key-utf8, value-len, value-bytes
//! ```
//!
//! The value-length prefix (new in format v2) is what makes lazy reads
//! possible: [`MappedSnapshot::open`] builds a key → byte-range table
//! by *skipping* over values, so opening a snapshot touches only keys
//! and decodes nothing until [`MappedSnapshot::get`] is called.
//!
//! Values use a tagged encoding of the serde [`Value`] tree: 0 null,
//! 1 false, 2 true, 3 u64 varint, 4 i64 zigzag varint, 5 f64 bits,
//! 6 string, 7 sequence, 8 map.
//!
//! Mapping safety: snapshot files are only ever replaced via temp-file
//! rename (a fresh inode), never truncated or rewritten in place, so a
//! live mapping can never observe partial bytes or fault on a shrunk
//! file.

use std::collections::BTreeMap;
use std::fs;
use std::ops::Range;
use std::path::Path;

use loupe_core::Fingerprint;
use serde::Value;

/// Binary snapshot format version. Bump on any layout change; readers
/// of other versions treat the file as stale. v2 added the value-length
/// prefix enabling memory-mapped lazy decode.
pub const FORMAT_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"LOUPEBIN";

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

/// Decodes one tagged value at `pos`, advancing it. `None` on any
/// malformation (the caller falls back to the JSON tree).
pub fn decode_value(buf: &[u8], pos: &mut usize) -> Option<Value> {
    let tag = *buf.get(*pos)?;
    *pos += 1;
    Some(match tag {
        TAG_NULL => Value::Null,
        TAG_FALSE => Value::Bool(false),
        TAG_TRUE => Value::Bool(true),
        TAG_U64 => Value::U64(get_varint(buf, pos)?),
        TAG_I64 => Value::I64(unzigzag(get_varint(buf, pos)?)),
        TAG_F64 => {
            let bytes: [u8; 8] = buf.get(*pos..*pos + 8)?.try_into().ok()?;
            *pos += 8;
            Value::F64(f64::from_bits(u64::from_le_bytes(bytes)))
        }
        TAG_STR => {
            let len = get_varint(buf, pos)? as usize;
            let bytes = buf.get(*pos..*pos + len)?;
            *pos += len;
            Value::Str(String::from_utf8(bytes.to_vec()).ok()?)
        }
        TAG_SEQ => {
            let len = get_varint(buf, pos)? as usize;
            let mut items = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                items.push(decode_value(buf, pos)?);
            }
            Value::Seq(items)
        }
        TAG_MAP => {
            let len = get_varint(buf, pos)? as usize;
            let mut pairs = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                let k = decode_value(buf, pos)?;
                let v = decode_value(buf, pos)?;
                pairs.push((k, v));
            }
            Value::Map(pairs)
        }
        _ => return None,
    })
}

/// A read-only byte buffer backing a snapshot: the file memory-mapped
/// where the platform allows it, a heap copy otherwise. Either way the
/// bytes are immutable for the buffer's lifetime (snapshot files are
/// replaced by rename, never mutated in place).
pub struct Mapped {
    repr: MappedRepr,
}

enum MappedRepr {
    #[cfg(target_os = "linux")]
    Mmap {
        ptr: *mut libc::c_void,
        len: usize,
    },
    Heap(Vec<u8>),
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE over an inode that is
// never modified in place — immutable shared bytes, like a `&[u8]`.
unsafe impl Send for Mapped {}
unsafe impl Sync for Mapped {}

impl Mapped {
    /// Maps (or, failing that, reads) `path`. `None` only if the file
    /// cannot be read at all.
    fn open(path: &Path) -> Option<Mapped> {
        #[cfg(target_os = "linux")]
        {
            use std::os::unix::io::AsRawFd;
            if let Ok(file) = fs::File::open(path) {
                let len = file.metadata().ok()?.len() as usize;
                if len > 0 {
                    // SAFETY: fresh descriptor, in-bounds length; the
                    // result is checked against MAP_FAILED.
                    let ptr = unsafe {
                        libc::mmap(
                            std::ptr::null_mut(),
                            len,
                            libc::PROT_READ,
                            libc::MAP_PRIVATE,
                            file.as_raw_fd(),
                            0,
                        )
                    };
                    if ptr != libc::MAP_FAILED {
                        return Some(Mapped {
                            repr: MappedRepr::Mmap { ptr, len },
                        });
                    }
                }
            }
        }
        fs::read(path).ok().map(|bytes| Mapped {
            repr: MappedRepr::Heap(bytes),
        })
    }

    fn bytes(&self) -> &[u8] {
        match &self.repr {
            #[cfg(target_os = "linux")]
            // SAFETY: ptr/len come from a successful mmap that lives
            // until drop.
            MappedRepr::Mmap { ptr, len } => unsafe {
                std::slice::from_raw_parts((*ptr).cast::<u8>(), *len)
            },
            MappedRepr::Heap(bytes) => bytes,
        }
    }
}

impl Drop for Mapped {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let MappedRepr::Mmap { ptr, len } = self.repr {
            // SAFETY: unmapping exactly what mmap returned.
            unsafe { libc::munmap(ptr, len) };
        }
    }
}

impl std::fmt::Debug for Mapped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.repr {
            #[cfg(target_os = "linux")]
            MappedRepr::Mmap { .. } => "mmap",
            MappedRepr::Heap(_) => "heap",
        };
        write!(f, "Mapped({kind}, {} bytes)", self.bytes().len())
    }
}

/// A validated snapshot whose values have *not* been decoded: opening
/// one costs a header check plus a key scan (values are skipped via
/// their length prefix), and each [`get`](MappedSnapshot::get) decodes
/// exactly one value out of the mapped bytes.
#[derive(Debug)]
pub struct MappedSnapshot {
    buf: Mapped,
    /// Key → byte range of the (still encoded) value.
    index: BTreeMap<String, Range<usize>>,
}

impl MappedSnapshot {
    /// Opens `path`, returning a lazily decodable view only if the
    /// header matches `expected_state` (and the current format version)
    /// and the entry table is structurally sound.
    pub fn open(path: &Path, expected_state: Fingerprint) -> Option<MappedSnapshot> {
        let mapped = Mapped::open(path)?;
        let buf = mapped.bytes();
        if buf.len() < 8 + 4 + 16 + 8 || &buf[..8] != MAGIC {
            return None;
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().ok()?);
        if version != FORMAT_VERSION {
            return None;
        }
        let state = u128::from_le_bytes(buf[12..28].try_into().ok()?);
        if Fingerprint::from_u128(state) != expected_state {
            return None;
        }
        let count = u64::from_le_bytes(buf[28..36].try_into().ok()?) as usize;
        let mut pos = 36;
        let mut index = BTreeMap::new();
        for _ in 0..count {
            let key_len = get_varint(buf, &mut pos)? as usize;
            let key_bytes = buf.get(pos..pos + key_len)?;
            pos += key_len;
            let key = String::from_utf8(key_bytes.to_vec()).ok()?;
            let value_len = get_varint(buf, &mut pos)? as usize;
            buf.get(pos..pos + value_len)?; // bounds check only
            index.insert(key, pos..pos + value_len);
            pos += value_len;
        }
        if pos != buf.len() {
            return None; // trailing garbage: treat as corrupt
        }
        Some(MappedSnapshot { buf: mapped, index })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The stored keys, in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.index.keys().map(String::as_str)
    }

    /// Decodes the value stored under `key`, if any. `None` for both
    /// an absent key and a malformed value (callers fall back to the
    /// JSON tree either way).
    pub fn get(&self, key: &str) -> Option<Value> {
        self.decode_range(self.index.get(key)?)
    }

    fn decode_range(&self, range: &Range<usize>) -> Option<Value> {
        let bytes = &self.buf.bytes()[range.clone()];
        let mut pos = 0;
        let value = decode_value(bytes, &mut pos)?;
        (pos == bytes.len()).then_some(value)
    }

    /// Decodes every entry, in key order. `None` if any value is
    /// malformed — all-or-nothing, matching the eager reader's
    /// contract.
    pub fn decode_all(&self) -> Option<Vec<(String, Value)>> {
        self.index
            .iter()
            .map(|(key, range)| Some((key.clone(), self.decode_range(range)?)))
            .collect()
    }
}

/// Reads a snapshot eagerly, returning its entries only if it matches
/// `expected_state` (and the current format version) exactly.
pub fn read(path: &Path, expected_state: Fingerprint) -> Option<Vec<(String, Value)>> {
    MappedSnapshot::open(path, expected_state)?.decode_all()
}

/// Writes a snapshot for `entries` tagged with `state`, atomically
/// (`write_atomic`); errors are reported but harmless — a missing
/// snapshot only costs the next rebuild.
pub fn write<'a>(
    path: &Path,
    state: Fingerprint,
    entries: impl ExactSizeIterator<Item = (&'a str, &'a Value)>,
) -> std::io::Result<()> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&state.to_u128().to_le_bytes());
    buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    let mut scratch = Vec::new();
    for (key, value) in entries {
        put_varint(key.len() as u64, &mut buf);
        buf.extend_from_slice(key.as_bytes());
        scratch.clear();
        encode_value(value, &mut scratch);
        put_varint(scratch.len() as u64, &mut buf);
        buf.extend_from_slice(&scratch);
    }
    crate::write_atomic(path, &buf)
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
        let mut pos = 0;
        assert_eq!(decode_value(&buf, &mut pos), Some(v));
        assert_eq!(pos, buf.len());

        // Varint edges.
        for n in [0u64, 127, 128, u64::MAX] {
            let mut buf = Vec::new();
            encode_value(&Value::U64(n), &mut buf);
            let mut pos = 0;
            assert_eq!(decode_value(&buf, &mut pos), Some(Value::U64(n)));
        }
        for n in [0i64, -1, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            encode_value(&Value::I64(n), &mut buf);
            let mut pos = 0;
            assert_eq!(decode_value(&buf, &mut pos), Some(Value::I64(n)));
        }

        // Truncation never panics, just returns None.
        let mut full = Vec::new();
        encode_value(&sample(), &mut full);
        for cut in 0..full.len() {
            let mut pos = 0;
            let _ = decode_value(&full[..cut], &mut pos);
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
            read(&path, fingerprint_of(&"state-2")),
            None,
            "a snapshot of other content is stale"
        );
        assert_eq!(read(&dir.join("missing.bin"), state), None);

        // Corrupt tail → rejected wholesale.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0xff);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read(&path, state), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mapped_snapshot_decodes_lazily_per_key() {
        let dir = std::env::temp_dir().join(format!("loupe-mmap-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("index").join("matrix.bin");
        let state = fingerprint_of(&"mmap-state");
        let entries: Vec<(String, Value)> = (0..8)
            .map(|i| (format!("os/app-{i}/health"), sample()))
            .collect();
        write(&path, state, entries.iter().map(|(k, v)| (k.as_str(), v))).unwrap();

        let snap = MappedSnapshot::open(&path, state).expect("snapshot opens");
        assert_eq!(snap.len(), 8);
        assert_eq!(
            snap.keys().collect::<Vec<_>>(),
            entries.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>()
        );
        // Point decode out of the mapped bytes.
        assert_eq!(snap.get("os/app-3/health"), Some(sample()));
        assert_eq!(snap.get("os/app-99/health"), None);
        // Wholesale decode matches the eager reader.
        assert_eq!(snap.decode_all(), Some(entries));

        // Stale state / corrupt header are rejected at open time.
        assert!(MappedSnapshot::open(&path, fingerprint_of(&"other")).is_none());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes()); // format v1
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            MappedSnapshot::open(&path, state).is_none(),
            "pre-v2 snapshots (no value-length prefix) read as stale"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
