//! The cache manifest: provenance records for every stored artifact.
//!
//! The manifest is the dependency graph of the incremental sweep engine.
//! For each artifact the database stores (baseline report, restricted-env
//! report, matrix cell, static report, plan validation, conformance
//! suite, rendered output) it keeps an [`ArtifactRecord`]: the fingerprint of the stored
//! *output* and, once a sweep stage has attached provenance, the
//! fingerprints of the *inputs* that produced it. A stage asks "is this
//! cell current?" with one map lookup (`Database::classify`) — current
//! means a record exists, has provenance, and every recorded input
//! fingerprint equals the freshly computed one. Editing one OS profile changes that profile's
//! fingerprint and therefore invalidates exactly the cells downstream of
//! it; everything else stays current.
//!
//! The manifest is split in two, so that a command reads and writes
//! only what it uses:
//!
//! * `manifest.json` at the database root ([`Manifest`]) holds the
//!   format version and the counters of the last completed sweep;
//! * `manifest/<ns>.json` ([`Records`], [`records_path`]) holds one
//!   namespace's records. A handle reads a namespace's file the first
//!   time it asks about that namespace, and rewrites it only when one
//!   of its records changed.
//!
//! The manifest is **derived data**. If a file is missing, corrupt, or
//! from a different format version it is treated as empty and the
//! engine degrades to re-measuring (never to serving stale artifacts):
//! an artifact without provenance is *not* current. A raw
//! `Database::put` that changes an artifact resets its record's inputs
//! for the same reason — content that did not come through a sweep
//! stage's `Database::commit` has unknown provenance until the stage
//! re-attaches it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use loupe_core::Fingerprint;
use serde::{Deserialize, Serialize};

/// Current manifest format version, of `manifest.json` and of every
/// records file. Bump when the record shape, the file layout or the
/// fingerprint function changes; a version mismatch empties the file
/// (artifacts stay, provenance is re-learned on the next sweep). v2
/// split the records into one file per namespace.
pub const MANIFEST_VERSION: u32 = 2;

/// The manifest head's file name, at the database root.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Where the records of `namespace` live: `<root>/manifest/<ns>.json`.
pub fn records_path(root: &Path, namespace: &str) -> PathBuf {
    root.join(crate::store::MANIFEST_DIR)
        .join(format!("{namespace}.json"))
}

/// Artifact namespaces tracked by the manifest. These mirror the on-disk
/// layout of the database.
pub mod ns {
    /// Full-Linux baseline reports (`<root>/<app>/<wl>.json`).
    pub const BASELINES: &str = "baselines";
    /// Restricted-environment reports (`env/<env>/<app>/<wl>.json`).
    pub const ENV: &str = "env";
    /// Fleet × OS matrix cells (`env/<os>/matrix/<app>/<wl>.json`).
    pub const MATRIX: &str = "matrix";
    /// Plan validations (`plans/<os>/<wl>.json`).
    pub const PLANS: &str = "plans";
    /// Static-analysis reports (`static/<level>/<app>.json`).
    pub const STATIC: &str = "static";
    /// Conformance suites (`gentests/<os>/<wl>/<app>.json`).
    pub const SUITES: &str = "suites";
    /// Rendered outputs: the docs set and `compare`'s text
    /// (`rendered/<name>.json`).
    pub const RENDERED: &str = "rendered";

    /// Every tracked namespace, in display order.
    pub const ALL: &[&str] = &[BASELINES, ENV, MATRIX, PLANS, STATIC, SUITES, RENDERED];
}

/// Provenance record for one stored artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactRecord {
    /// Fingerprints of the inputs that produced the artifact, keyed by
    /// role (`"os"`, `"requirement"`, …). `None` means provenance is
    /// unknown — the artifact exists but is never considered current.
    #[serde(default)]
    pub inputs: Option<BTreeMap<String, Fingerprint>>,
    /// Fingerprint of the stored artifact itself.
    pub output: Fingerprint,
    /// Small facts about the artifact a stage can use without loading it
    /// (e.g. which matrix tiers are covered, a suite's case counts).
    #[serde(default)]
    pub meta: BTreeMap<String, String>,
}

/// Hit/miss/stale counters for one namespace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheCounters {
    /// Artifacts served from cache (inputs current).
    #[serde(default)]
    pub hits: u64,
    /// Artifacts computed because nothing was stored.
    #[serde(default)]
    pub misses: u64,
    /// Artifacts recomputed because their recorded inputs no longer
    /// match (or their provenance was unknown).
    #[serde(default)]
    pub stale: u64,
}

impl CacheCounters {
    /// Total cache decisions taken.
    pub fn total(self) -> u64 {
        self.hits + self.misses + self.stale
    }
}

/// Per-namespace cache counters for one sweep session.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Counters keyed by namespace (see [`ns`]).
    #[serde(default)]
    pub namespaces: BTreeMap<String, CacheCounters>,
}

impl CacheStats {
    /// Records a cache hit in `namespace`.
    pub fn hit(&mut self, namespace: &str) {
        self.entry(namespace).hits += 1;
    }

    /// Records a cache miss in `namespace`.
    pub fn miss(&mut self, namespace: &str) {
        self.entry(namespace).misses += 1;
    }

    /// Records a stale recomputation in `namespace`.
    pub fn stale(&mut self, namespace: &str) {
        self.entry(namespace).stale += 1;
    }

    fn entry(&mut self, namespace: &str) -> &mut CacheCounters {
        self.namespaces.entry(namespace.to_owned()).or_default()
    }

    /// Whether no decision has been recorded.
    pub fn is_empty(&self) -> bool {
        self.namespaces.values().all(|c| c.total() == 0)
    }

    /// Summed counters across all namespaces.
    pub fn total(&self) -> CacheCounters {
        let mut out = CacheCounters::default();
        for c in self.namespaces.values() {
            out.hits += c.hits;
            out.misses += c.misses;
            out.stale += c.stale;
        }
        out
    }
}

/// The persisted manifest head (`manifest.json`): the format version
/// and the cache counters of the last completed sweep. It is the only
/// manifest file a warm command rewrites.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Format version (see [`MANIFEST_VERSION`]).
    pub version: u32,
    /// Counters persisted by the last sweep (`loupe cache stats`).
    #[serde(default)]
    pub last_sweep: Option<CacheStats>,
}

impl Manifest {
    /// A fresh, empty manifest at the current version.
    pub fn new() -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            last_sweep: None,
        }
    }

    /// Parses a manifest from JSON, treating anything unusable (bad
    /// JSON, wrong version) as empty — the manifest is derived data.
    pub fn from_json(text: &str) -> Manifest {
        match serde_json::from_str::<Manifest>(text) {
            Ok(m) if m.version == MANIFEST_VERSION => m,
            _ => Manifest::new(),
        }
    }
}

/// One namespace's persisted records (`manifest/<ns>.json`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Records {
    /// Format version (see [`MANIFEST_VERSION`]).
    pub version: u32,
    /// `key → record`.
    #[serde(default)]
    pub records: BTreeMap<String, ArtifactRecord>,
}

impl Records {
    /// No records, at the current version.
    pub fn new() -> Records {
        Records {
            version: MANIFEST_VERSION,
            records: BTreeMap::new(),
        }
    }

    /// Parses a records file, treating anything unusable (bad JSON,
    /// wrong version) as empty, like [`Manifest::from_json`].
    pub fn from_json(text: &str) -> Records {
        match serde_json::from_str::<Records>(text) {
            Ok(r) if r.version == MANIFEST_VERSION => r,
            _ => Records::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loupe_core::fingerprint_of;

    #[test]
    fn manifest_roundtrips_and_bad_input_is_empty() {
        let mut records = Records::new();
        let mut inputs = BTreeMap::new();
        inputs.insert("os".to_owned(), fingerprint_of(&"kerla"));
        records.records.insert(
            "kerla/redis/health".to_owned(),
            ArtifactRecord {
                inputs: Some(inputs),
                output: fingerprint_of(&"cell"),
                meta: [("tiers".to_owned(), "both".to_owned())].into(),
            },
        );
        let mut m = Manifest::new();
        let mut stats = CacheStats::default();
        stats.hit(ns::MATRIX);
        stats.stale(ns::BASELINES);
        m.last_sweep = Some(stats);

        let json = serde_json::to_string_pretty(&m).unwrap();
        assert_eq!(Manifest::from_json(&json), m);
        let records_json = serde_json::to_string(&records).unwrap();
        assert_eq!(Records::from_json(&records_json), records);

        assert_eq!(Manifest::from_json("not json"), Manifest::new());
        assert_eq!(Records::from_json("not json"), Records::new());
        let future = json.replacen(
            &format!("\"version\": {MANIFEST_VERSION}"),
            "\"version\": 999",
            1,
        );
        assert_eq!(
            Manifest::from_json(&future),
            Manifest::new(),
            "unknown versions degrade to an empty manifest"
        );
        let old = records_json.replacen(
            &format!("\"version\":{MANIFEST_VERSION}"),
            "\"version\":1",
            1,
        );
        assert_ne!(old, records_json);
        assert_eq!(Records::from_json(&old), Records::new());
    }

    #[test]
    fn cache_stats_accumulate() {
        let mut stats = CacheStats::default();
        assert!(stats.is_empty());
        stats.hit(ns::MATRIX);
        stats.hit(ns::MATRIX);
        stats.miss(ns::SUITES);
        stats.stale(ns::MATRIX);
        assert!(!stats.is_empty());
        let m = stats.namespaces[ns::MATRIX];
        assert_eq!((m.hits, m.misses, m.stale), (2, 0, 1));
        assert_eq!(m.total(), 3);
        let t = stats.total();
        assert_eq!((t.hits, t.misses, t.stale), (2, 1, 1));
    }
}
