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
//! The manifest is **derived data**. It lives in `manifest.json` at the
//! database root; if it is missing, corrupt, or from a different format
//! version it is treated as empty and the engine degrades to re-measuring
//! (never to serving stale artifacts): an artifact without provenance is
//! *not* current. A raw `Database::put` that changes an artifact resets
//! its record's inputs for the same reason — content that did not come
//! through a sweep stage's `Database::commit` has unknown provenance
//! until the stage re-attaches it.

use std::collections::BTreeMap;

use loupe_core::Fingerprint;
use serde::{Deserialize, Serialize};

/// Current manifest format version. Bump when the record shape or the
/// fingerprint function changes; a version mismatch empties the manifest
/// (artifacts stay, provenance is re-learned on the next sweep).
pub const MANIFEST_VERSION: u32 = 1;

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

/// The persisted manifest: provenance records per namespace plus the
/// cache counters of the last completed sweep.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Format version (see [`MANIFEST_VERSION`]).
    pub version: u32,
    /// Counters persisted by the last sweep (`loupe cache stats`).
    #[serde(default)]
    pub last_sweep: Option<CacheStats>,
    /// `namespace → key → record`.
    #[serde(default)]
    pub records: BTreeMap<String, BTreeMap<String, ArtifactRecord>>,
}

impl Manifest {
    /// A fresh, empty manifest at the current version.
    pub fn new() -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            last_sweep: None,
            records: BTreeMap::new(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use loupe_core::fingerprint_of;

    #[test]
    fn manifest_roundtrips_and_bad_input_is_empty() {
        let mut m = Manifest::new();
        let mut inputs = BTreeMap::new();
        inputs.insert("os".to_owned(), fingerprint_of(&"kerla"));
        m.records.entry(ns::MATRIX.to_owned()).or_default().insert(
            "kerla/redis/health".to_owned(),
            ArtifactRecord {
                inputs: Some(inputs),
                output: fingerprint_of(&"cell"),
                meta: [("tiers".to_owned(), "both".to_owned())].into(),
            },
        );
        let mut stats = CacheStats::default();
        stats.hit(ns::MATRIX);
        stats.stale(ns::BASELINES);
        m.last_sweep = Some(stats);

        let json = serde_json::to_string_pretty(&m).unwrap();
        assert_eq!(Manifest::from_json(&json), m);

        assert_eq!(Manifest::from_json("not json"), Manifest::new());
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
