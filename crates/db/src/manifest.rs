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
use std::io::Read;
use std::path::{Path, PathBuf};

use loupe_core::Fingerprint;
use serde::{Deserialize, Serialize};

use crate::fingerprint_bytes;

/// Current manifest format version, of `manifest.json` and of every
/// records file. Bump when the record shape, the file layout or the
/// fingerprint function changes; a version mismatch empties the file
/// (artifacts stay, provenance is re-learned on the next sweep). v2
/// split the records into one file per namespace; v3 stores one suite
/// body per (app, workload), whose bytes its records' outputs
/// fingerprint, so a v2 suite record, which promised a per-OS file,
/// is never a hit.
pub const MANIFEST_VERSION: u32 = 3;

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
    /// Conformance suites: one record per `os/wl/app`, all OSes of an
    /// app and workload sharing one body (`gentests/<wl>/<app>.json`).
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
    /// Fingerprint of the stored artifact itself (for a key of a
    /// shared layout, of the bytes of the file it shares; see
    /// `store::Layout::shared`).
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
///
/// Ahead of the records the file carries their number, the number with
/// provenance and the checksum of their text, all written in the same
/// atomic write (so they always describe them): [`Records::counts_in`]
/// answers from the counts without decoding the records, and a damaged
/// file fails its checksum and reads as empty instead of as other
/// records.
#[derive(Debug, Clone, Default, PartialEq, Deserialize)]
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
    /// wrong version, a checksum its records fail) as empty, like
    /// [`Manifest::from_json`]. A file without a checksum is taken as
    /// it decodes.
    pub fn from_json(text: &str) -> Records {
        let intact = parse_head(text).is_none_or(|(head, start)| {
            head.checksum.is_none_or(|sum| {
                text[start..]
                    .strip_suffix('}')
                    .is_some_and(|records| fingerprint_bytes(records.as_bytes()) == sum)
            })
        });
        match serde_json::from_str::<Records>(text) {
            Ok(r) if intact && r.version == MANIFEST_VERSION => r,
            _ => Records::new(),
        }
    }

    /// The records file's text: compact JSON (only programs read it),
    /// its head, then its records.
    ///
    /// # Errors
    ///
    /// A record that does not serialise.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        let records = serde_json::to_string(&self.records)?;
        let (entries, with) = self.counts();
        let head = serde_json::to_string(&RecordsHead {
            version: self.version,
            entries: Some(entries),
            with_provenance: Some(with),
            checksum: Some(fingerprint_bytes(records.as_bytes())),
        })?;
        let head = head.strip_suffix('}').unwrap_or(&head);
        Ok(format!("{head}{RECORDS_FIELD}{records}}}"))
    }

    /// `(records, records with provenance)`.
    pub fn counts(&self) -> (usize, usize) {
        let with = self.records.values().filter(|r| r.inputs.is_some()).count();
        (self.records.len(), with)
    }

    /// [`counts`](Self::counts) of the records file at `path`, read
    /// from the counts at its head; a file without them, or cut short
    /// (it does not end as a records file does), is decoded whole, and
    /// a missing one counts nothing.
    pub fn counts_in(path: &Path) -> (usize, usize) {
        let Ok(mut file) = std::fs::File::open(path) else {
            return (0, 0);
        };
        let mut head = Vec::with_capacity(HEAD_BYTES);
        if (&mut file)
            .take(HEAD_BYTES as u64)
            .read_to_end(&mut head)
            .is_ok()
            && ends_whole(&file)
        {
            if let Some(counts) = head_counts(&head) {
                return counts;
            }
        }
        // As a handle reads it: anything unreadable is no records.
        match file.read_to_end(&mut head).map(|_| String::from_utf8(head)) {
            Ok(Ok(text)) => Records::from_json(&text).counts(),
            _ => (0, 0),
        }
    }
}

/// Bytes read for the counts at a records file's head: the whole head
/// fits in well under this.
const HEAD_BYTES: usize = 256;

/// What separates a records file's head from its records.
const RECORDS_FIELD: &str = ",\"records\":";

/// The fields a records file holds ahead of its records.
#[derive(Serialize, Deserialize)]
struct RecordsHead {
    version: u32,
    #[serde(default)]
    entries: Option<usize>,
    #[serde(default)]
    with_provenance: Option<usize>,
    #[serde(default)]
    checksum: Option<Fingerprint>,
}

/// The head of the records file `text` starts with, and where its
/// records' text starts: the text before `"records"`, closed and parsed
/// on its own (`None` for a file not laid out as
/// [`Records::to_json`] writes it).
fn parse_head(text: &str) -> Option<(RecordsHead, usize)> {
    let end = text.find(RECORDS_FIELD)?;
    let head = serde_json::from_str(&format!("{}}}", &text[..end])).ok()?;
    Some((head, end + RECORDS_FIELD.len()))
}

/// Whether `file` ends as a whole records file does, closing its
/// records map and itself (`}}`): what a cut-short file lacks.
fn ends_whole(file: &std::fs::File) -> bool {
    use std::os::unix::fs::FileExt;
    let mut tail = [0u8; 2];
    let len = file.metadata().map_or(0, |m| m.len());
    len >= 2 && file.read_exact_at(&mut tail, len - 2).is_ok() && tail == *b"}}"
}

/// The counts at the head of a records file, if it has them.
fn head_counts(head: &[u8]) -> Option<(usize, usize)> {
    match parse_head(std::str::from_utf8(head).ok()?)?.0 {
        RecordsHead {
            version: MANIFEST_VERSION,
            entries: Some(entries),
            with_provenance: Some(with),
            ..
        } => Some((entries, with)),
        _ => None,
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
        let records_json = records.to_json().unwrap();
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
    fn counts_at_a_records_files_head_match_a_full_decode() {
        let dir = std::env::temp_dir().join(format!("loupe-records-counts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("suites.json");
        let record = |inputs: Option<BTreeMap<String, Fingerprint>>| ArtifactRecord {
            inputs,
            output: fingerprint_of(&"suite"),
            meta: BTreeMap::new(),
        };
        let mut records = Records::new();
        let inputs = [("os".to_owned(), fingerprint_of(&"kerla"))].into();
        records
            .records
            .insert("kerla/health/redis".to_owned(), record(Some(inputs)));
        records
            .records
            .insert("kerla/health/nginx".to_owned(), record(None));
        let text = records.to_json().unwrap();
        assert!(
            text.starts_with(&format!(
                "{{\"version\":{MANIFEST_VERSION},\"entries\":2,\"with_provenance\":1,\"checksum\":"
            )),
            "{text}"
        );
        std::fs::write(&path, &text).unwrap();
        assert_eq!(Records::counts_in(&path), (2, 1));
        assert_eq!(
            Records::counts_in(&path),
            Records::from_json(&text).counts()
        );

        // Only the head is read: counts that disagree with the records
        // are what it answers.
        let head = text.replacen("\"entries\":2", "\"entries\":7", 1);
        std::fs::write(&path, head).unwrap();
        assert_eq!(Records::counts_in(&path), (7, 1));

        // A file written without the counts decodes the same records,
        // and is counted by decoding them.
        let without = text.replacen("\"entries\":2,\"with_provenance\":1,", "", 1);
        assert_ne!(without, text);
        assert_eq!(Records::from_json(&without), records);
        std::fs::write(&path, &without).unwrap();
        assert_eq!(Records::counts_in(&path), (2, 1));

        // Anything a handle would read as no records counts none.
        let old = text.replacen(
            &format!("\"version\":{MANIFEST_VERSION}"),
            "\"version\":1",
            1,
        );
        for unusable in [old.as_str(), "", "not json", &text[..text.len() / 2]] {
            std::fs::write(&path, unusable).unwrap();
            assert_eq!(Records::counts_in(&path), (0, 0), "{unusable}");
        }
        assert_eq!(Records::counts_in(&dir.join("missing.json")), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_records_file_failing_its_checksum_reads_as_empty() {
        let mut records = Records::new();
        records.records.insert(
            "kerla/health/redis".to_owned(),
            ArtifactRecord {
                inputs: None,
                output: fingerprint_of(&"suite"),
                meta: BTreeMap::new(),
            },
        );
        let text = records.to_json().unwrap();
        // Still valid JSON, but naming another key: other records.
        let renamed = text.replacen("kerla/", "kerlb/", 1);
        assert_ne!(renamed, text);
        assert_eq!(Records::from_json(&renamed), Records::new());
        // Without its checksum, a file is taken as it decodes.
        let field = ",\"checksum\":";
        let at = renamed.find(field).unwrap();
        let hex = at + field.len() + 1 + 32 + 1;
        let unchecked = format!("{}{}", &renamed[..at], &renamed[hex..]);
        assert!(!unchecked.contains("checksum"), "{unchecked}");
        let mut other = records.clone();
        let record = other.records.remove("kerla/health/redis").unwrap();
        other
            .records
            .insert("kerlb/health/redis".to_owned(), record);
        assert_eq!(Records::from_json(&unchecked), other);
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
