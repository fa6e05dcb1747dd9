//! The measurement database — the `loupedb` analogue (§3.3: "Sharing
//! Loupe Results").
//!
//! Results are final for a fixed build of the software, its workload and
//! kernel, so they are worth persisting and sharing. This crate stores
//! every artifact the pipeline produces — baseline and restricted-env
//! [`AppReport`]s, matrix cells, plan validations, static reports,
//! conformance suites and what is rendered from them — as JSON files
//! in a directory tree, one [`store::Namespace`] descriptor per kind
//! (`<root>/<app>/<workload>.json` for baselines; the full layout is
//! in [`store`]). One generic store serves every namespace:
//! [`Database::put`] (merging per the namespace's policy — conservative
//! for measurements, §3.1), [`Database::get`], [`Database::keys`] and
//! [`Database::load_all`]. OS support specs are imported/exported in
//! the paper's one-syscall-per-line CSV form.
//!
//! Every file is replaced atomically (temp file + rename), so a reader —
//! or the next run after a `kill -9` — sees the old artifact or the new
//! one, never a torn one.
//!
//! On top of the JSON tree sit two derived layers that make warm sweeps
//! incremental and fast:
//!
//! * a **cache manifest** ([`manifest`]) recording, per stored artifact,
//!   the fingerprints of the inputs that produced it — so a sweep stage
//!   can answer "is this cell current?" with one map lookup, and an edit
//!   to one OS profile invalidates exactly its downstream cells. Each
//!   namespace's records are one file, read on first use and rewritten
//!   only when they change; and
//! * **binary namespace snapshots** ([`snapshot`]) so bulk reads load a
//!   whole namespace from one compact file instead of re-parsing
//!   hundreds of JSON entries, rebuilt automatically whenever the
//!   content-addressed state they were written against changes. Point
//!   reads never use them: [`Database::get`] reads the artifact's JSON
//!   file, so a write never costs the next read more than one file.
//!
//! Both layers are derived and disposable: deleting `manifest.json`,
//! `manifest/` or `index/` costs one rebuild, never correctness.
//!
//! # Examples
//!
//! ```
//! use loupe_db::{store, Database};
//!
//! let dir = std::env::temp_dir().join("loupedb-doc-example");
//! let db = Database::open(&dir).unwrap();
//! assert!(db.keys(&store::MATRIX).unwrap().is_empty() || dir.is_dir());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use loupe_apps::Workload;
use loupe_core::{fingerprint_of, AppReport, FeatureClass, Fingerprint, Impact};
use loupe_gentests::ConformanceSuite;
use loupe_plan::{MatrixCell, OsSpec, PlanValidation};
use loupe_static::{Level, StaticReport};

pub mod lock;
pub mod manifest;
pub mod snapshot;
pub mod store;

pub use lock::{FileLock, LOCK_FILE};
pub use manifest::{
    ns, records_path, ArtifactRecord, CacheCounters, CacheStats, Manifest, Records,
    MANIFEST_VERSION,
};
pub use store::Namespace;

/// What the generic store needs of an artifact type: cloneable and
/// round-trippable through serde.
pub trait Artifact: Clone + serde::Serialize + serde::Deserialize {}

impl<T: Clone + serde::Serialize + serde::Deserialize> Artifact for T {}

/// The cache gate's decision for one artifact ([`Database::classify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision<H> {
    /// The stored artifact answers the job; `H` is what the stage read
    /// out of its record's meta.
    Hit(H),
    /// The artifact must be derived afresh.
    Derive(Derive),
}

/// Why an artifact is derived afresh: how [`Database::commit`] stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Derive {
    /// Nothing usable stored (or forced): compose with what is stored.
    Miss,
    /// Stored, but from other inputs: replace it.
    Stale,
}

/// A directory-backed measurement database.
///
/// Cloning is cheap and clones share one in-process state (manifest,
/// bulk-loaded snapshots, writer lock), so a `Database` can be handed
/// to worker threads freely. Writers are additionally serialised *across
/// processes* by an advisory file lock ([`lock`]), so concurrent
/// read-modify-write saves from two processes can never drop each
/// other's data. Provenance is still per-process: two independent
/// `open()`s of the same root keep independent manifests and, per
/// namespace, the last flush wins (derived data — the cost is
/// re-measurement, never corruption, since each flush is atomic).
pub struct Database {
    shared: Arc<Shared>,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        Database {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Database")
            .field("root", &self.shared.root)
            .finish()
    }
}

/// The input fingerprints and meta a committed artifact is recorded with.
type Provenance = (BTreeMap<String, Fingerprint>, BTreeMap<String, String>);

/// One namespace decoded into memory by a bulk load, tagged with the
/// manifest generation it reflects; any later generation makes it stale.
type SnapshotSlot<T> = Mutex<Option<(u64, Arc<BTreeMap<String, T>>)>>;

/// The snapshot slots of the namespaces that have a binary index (see
/// [`store::Namespace`]).
struct Slots {
    baselines: SnapshotSlot<AppReport>,
    matrix: SnapshotSlot<MatrixCell>,
    suites: SnapshotSlot<ConformanceSuite>,
    statics: SnapshotSlot<StaticReport>,
}

struct Shared {
    root: PathBuf,
    manifest: Mutex<ManifestState>,
    stats: Mutex<CacheStats>,
    /// Single-writer guard: every save composes read-modify-write
    /// (merge / tier composition), so writers must exclude each other.
    /// Extended across processes by the advisory [`lock::FileLock`]
    /// taken with it (see [`Shared::lock_writers`]); a bulk load that
    /// misses its slot holds it alone (see [`Database::bulk`]).
    write_lock: Mutex<()>,
    slots: Slots,
}

/// The in-memory manifest: the head of `manifest.json` and the records
/// of every namespace this handle has asked about.
struct ManifestState {
    head: Manifest,
    /// Whether `head` changed since it was read or written.
    head_dirty: bool,
    /// Records by namespace name, each read from its file on first use.
    namespaces: BTreeMap<String, NamespaceState>,
}

/// One namespace's records in memory.
struct NamespaceState {
    records: Records,
    /// Whether `records` changed since they were read or written.
    dirty: bool,
    /// Monotonic counter, bumped whenever the namespace's content
    /// changes — the freshness signal for in-memory snapshots.
    generation: u64,
}

impl ManifestState {
    /// The records of `namespace`, read from `root` on first use.
    fn namespace(&mut self, root: &Path, namespace: &str) -> &mut NamespaceState {
        if !self.namespaces.contains_key(namespace) {
            let records = match fs::read_to_string(records_path(root, namespace)) {
                Ok(text) => Records::from_json(&text),
                Err(_) => Records::new(),
            };
            let state = NamespaceState {
                records,
                dirty: false,
                generation: 0,
            };
            self.namespaces.insert(namespace.to_owned(), state);
        }
        self.namespaces.get_mut(namespace).expect("just inserted")
    }

    fn is_dirty(&self) -> bool {
        self.head_dirty || self.namespaces.values().any(|n| n.dirty)
    }
}

/// Both writer guards held together: the in-process mutex and the
/// cross-process advisory file lock. Acquired in that order everywhere
/// (process mutex, then file lock, then the manifest mutex as needed)
/// so writers can never deadlock.
struct WriteGuard<'a> {
    _process: std::sync::MutexGuard<'a, ()>,
    _file: lock::FileLock,
}

impl Shared {
    fn manifest_path(&self) -> PathBuf {
        self.root.join(manifest::MANIFEST_FILE)
    }

    /// Excludes every other database writer — threads of this process
    /// via the mutex, other processes via `flock` on the root's lock
    /// file — for the duration of the returned guard.
    fn lock_writers(&self) -> Result<WriteGuard<'_>, DbError> {
        let process = self.write_lock.lock().expect("writer lock");
        let file = lock::FileLock::acquire(&self.root)?;
        Ok(WriteGuard {
            _process: process,
            _file: file,
        })
    }

    fn with_manifest<R>(&self, f: impl FnOnce(&mut ManifestState) -> R) -> R {
        let mut state = self.manifest.lock().expect("manifest lock");
        f(&mut state)
    }

    /// Runs `f` on the in-memory state of `namespace`, reading its
    /// records file first if this handle has not yet.
    fn with_namespace<R>(&self, namespace: &str, f: impl FnOnce(&mut NamespaceState) -> R) -> R {
        self.with_manifest(|s| f(s.namespace(&self.root, namespace)))
    }

    fn generation(&self, namespace: &str) -> u64 {
        self.with_namespace(namespace, |n| n.generation)
    }

    /// Content-addressed state of a namespace: the fingerprint of every
    /// `(key, output-fingerprint)` pair. This is what binary snapshots
    /// are tagged with, making their staleness check survive process
    /// boundaries, and the input that stands for a whole namespace in a
    /// rendered output's record. O(namespace), so only a bulk load that
    /// misses its in-memory slot and the rendered outputs' gate compute
    /// it.
    fn namespace_state(&self, namespace: &str) -> Fingerprint {
        #[cfg(test)]
        tests::STATE_COMPUTATIONS.with(|n| n.set(n.get() + 1));
        self.with_namespace(namespace, |n| {
            let pairs: Vec<(String, String)> = n
                .records
                .records
                .iter()
                .map(|(k, r)| (k.clone(), r.output.to_hex()))
                .collect();
            fingerprint_of(&pairs)
        })
    }

    /// Updates the record for a just-written artifact. A committed one
    /// gets the `provenance` it was derived from. Otherwise, if the
    /// stored output fingerprint is unchanged, the record (including its
    /// provenance) is kept — content-addressed identity — and if not,
    /// its inputs become unknown until a stage commits it.
    fn record_artifact<T: serde::Serialize>(
        &self,
        namespace: &str,
        key: &str,
        artifact: &T,
        provenance: Option<Provenance>,
    ) {
        let output = fingerprint_of(artifact);
        self.with_namespace(namespace, |n| {
            let kept = n
                .records
                .records
                .get(key)
                .filter(|rec| rec.output == output);
            let (inputs, meta) = match provenance {
                Some((inputs, meta)) => (Some(inputs), meta),
                None if kept.is_some() => return,
                None => (None, BTreeMap::new()),
            };
            let record = ArtifactRecord {
                inputs,
                output,
                meta,
            };
            if kept == Some(&record) {
                return;
            }
            if kept.is_none() {
                n.generation += 1;
            }
            n.records.records.insert(key.to_owned(), record);
            n.dirty = true;
        });
    }

    /// Reconciles a namespace's records with the entries found on disk
    /// during a bulk rebuild: records gain/refresh output fingerprints,
    /// records whose content changed out-of-band lose their provenance,
    /// and records for deleted files are dropped.
    fn adopt_outputs<T: serde::Serialize>(&self, namespace: &str, entries: &[(String, T)]) {
        let outputs: Vec<(&String, Fingerprint)> = entries
            .iter()
            .map(|(k, v)| (k, fingerprint_of(v)))
            .collect();
        self.with_namespace(namespace, |n| {
            let records = &mut n.records.records;
            let mut fresh: BTreeMap<String, ArtifactRecord> = BTreeMap::new();
            let mut changed = false;
            for (key, output) in outputs {
                let rec = match records.get(key) {
                    Some(rec) if rec.output == output => rec.clone(),
                    _ => {
                        changed = true;
                        ArtifactRecord {
                            inputs: None,
                            output,
                            meta: BTreeMap::new(),
                        }
                    }
                };
                fresh.insert(key.clone(), rec);
            }
            changed |= fresh.len() != records.len();
            if changed {
                *records = fresh;
                n.generation += 1;
                n.dirty = true;
            }
        });
    }

    /// Writes what changed: the records file of every changed
    /// namespace, then `manifest.json` if its counters changed. The
    /// artifacts those records describe were written before.
    fn flush_manifest(&self) -> Result<(), DbError> {
        if self.with_manifest(|s| !s.is_dirty()) {
            return Ok(());
        }
        // Writers first, then the manifest mutex (the writer ordering);
        // the atomic replace means a concurrent reader — a serve daemon
        // polling for generation changes — never observes a torn
        // file.
        let _writer = self.lock_writers()?;
        self.with_manifest(|s| {
            // Compact, unlike the artifacts: only programs read them.
            for (namespace, n) in s.namespaces.iter_mut().filter(|(_, n)| n.dirty) {
                write_compact_locked(&records_path(&self.root, namespace), &n.records)?;
                n.dirty = false;
            }
            if s.head_dirty {
                write_compact_locked(&self.manifest_path(), &s.head)?;
                s.head_dirty = false;
            }
            Ok(())
        })
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        // Best-effort durability: provenance learned this session is
        // derived data, so a failed flush costs re-measurement, not
        // correctness.
        let _ = self.flush_manifest();
    }
}

/// Database errors.
#[derive(Debug)]
pub enum DbError {
    /// Filesystem error.
    Io(io::Error),
    /// Malformed stored JSON.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// Parser message.
        message: String,
    },
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "database I/O error: {e}"),
            DbError::Corrupt { path, message } => {
                write!(f, "corrupt database entry {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for DbError {}

impl From<io::Error> for DbError {
    fn from(e: io::Error) -> Self {
        DbError::Io(e)
    }
}

/// Manifest key of a full-Linux baseline report.
pub fn baseline_key(app: &str, workload: Workload) -> String {
    format!("{app}/{}", workload.label())
}

/// Manifest key of a restricted-environment report.
pub fn env_key(env: &str, app: &str, workload: Workload) -> String {
    format!("{env}/{app}/{}", workload.label())
}

/// Manifest key of a fleet × OS matrix cell.
pub fn matrix_key(os: &str, app: &str, workload: Workload) -> String {
    format!("{os}/{app}/{}", workload.label())
}

/// Manifest key of a conformance suite (mirrors the on-disk layout:
/// `gentests/<os>/<workload>/<app>.json`).
pub fn suite_key(os: &str, app: &str, workload: Workload) -> String {
    format!("{os}/{}/{app}", workload.label())
}

/// Manifest key of a static-analysis report.
pub fn static_key(level: Level, app: &str) -> String {
    format!("{}/{app}", level.label())
}

/// Manifest key of a plan validation.
pub fn plan_key(os: &str, workload: Workload) -> String {
    format!("{os}/{}", workload.label())
}

/// The one reader of stored files: `Ok(None)` when absent, and
/// [`DbError::Corrupt`] naming the file for anything unparseable.
fn read_json<T: serde::Deserialize>(path: &Path) -> Result<Option<T>, DbError> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let corrupt = |message: String| DbError::Corrupt {
        path: path.to_path_buf(),
        message,
    };
    let text = std::str::from_utf8(&bytes).map_err(|e| corrupt(e.to_string()))?;
    serde_json::from_str(text)
        .map(Some)
        .map_err(|e| corrupt(e.to_string()))
}

fn to_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<String, DbError> {
    serde_json::to_string_pretty(value).map_err(|e| DbError::Corrupt {
        path: path.to_path_buf(),
        message: e.to_string(),
    })
}

/// Writes `value` as compact JSON (the manifest's files); the caller
/// holds the writer lock.
fn write_compact_locked<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), DbError> {
    let text = serde_json::to_string(value).map_err(|e| DbError::Corrupt {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    Ok(write_atomic(path, text.as_bytes())?)
}

/// Fingerprints raw bytes, a 64-bit word at a time: the checksum of the
/// binary snapshots and the identity of rendered files and of the
/// running executable. Each of its two lanes takes a word as
/// `(lane ^ word) * K`, then rotates; for a fixed lane that is a
/// bijection of the word, and every later step is a bijection of the
/// lane, so any change confined to one word (a flipped byte) always
/// changes the result. One step per 8 bytes where [`fingerprint_of`]
/// takes one per byte; like it, this is not cryptographic.
pub fn fingerprint_bytes(bytes: &[u8]) -> Fingerprint {
    let whole = bytes.len() - bytes.len() % 8;
    let mut lanes = WordLanes::new();
    lanes.words(&bytes[..whole]);
    lanes.finish(&bytes[whole..], bytes.len() as u64)
}

/// [`fingerprint_bytes`] of a file's contents, read in 64 KiB blocks so
/// a large file (an executable) needs no buffer of its size.
///
/// # Errors
///
/// I/O failures, a missing file included.
pub fn fingerprint_file(path: &Path) -> io::Result<Fingerprint> {
    let mut file = fs::File::open(path)?;
    let mut block = vec![0u8; 1 << 16];
    let mut lanes = WordLanes::new();
    let mut len = 0u64;
    loop {
        // Only the last block may end short, and so end mid-word.
        let mut filled = 0;
        while filled < block.len() {
            match file.read(&mut block[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        len += filled as u64;
        if filled < block.len() {
            let whole = filled - filled % 8;
            lanes.words(&block[..whole]);
            return Ok(lanes.finish(&block[whole..filled], len));
        }
        lanes.words(&block);
    }
}

/// The state of [`fingerprint_bytes`].
struct WordLanes {
    a: u64,
    b: u64,
}

impl WordLanes {
    fn new() -> WordLanes {
        WordLanes {
            a: 0x243f_6a88_85a3_08d3,
            b: 0x1319_8a2e_0370_7344,
        }
    }

    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
        self.b = (self.b ^ w.rotate_left(32))
            .wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            .rotate_left(31);
    }

    /// Takes whole words; `bytes.len()` must be a multiple of 8.
    fn words(&mut self, bytes: &[u8]) {
        for word in bytes.chunks_exact(8) {
            self.word(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }

    /// Takes the last `tail` (under 8 bytes, zero-padded) and the total
    /// length, so trailing zero bytes still count.
    fn finish(mut self, tail: &[u8], len: u64) -> Fingerprint {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        self.word(u64::from_le_bytes(last));
        self.word(len);
        Fingerprint::from_u128(u128::from(avalanche(self.a)) << 64 | u128::from(avalanche(self.b)))
    }
}

/// MurmurHash3's 64-bit finaliser: spreads every bit over the word.
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// The one writer of database files: `bytes` go to a fresh temp file
/// beside `path` (`.<name>.<pid>.<seq>.tmp`, which no namespace walk
/// matches), which is then renamed over the target. A reader, or the
/// next run after a `kill -9`, sees the old file or the new one, never
/// a torn one; temp names are unique per process and call, so writers
/// that skip the file lock (snapshot rebuilds) cannot collide.
/// There is no fsync: a killed process leaves the page cache intact,
/// and power loss is out of scope (see KNOWN_ISSUES).
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().expect("database paths have a parent");
    fs::create_dir_all(dir)?;
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{name}.{}.{seq}.tmp", std::process::id()));
    let written = fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

impl Database {
    /// Opens (creating if needed) a database rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl AsRef<Path>) -> Result<Database, DbError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        let head = match fs::read_to_string(root.join(manifest::MANIFEST_FILE)) {
            Ok(text) => Manifest::from_json(&text),
            Err(_) => Manifest::new(),
        };
        Ok(Database {
            shared: Arc::new(Shared {
                root,
                manifest: Mutex::new(ManifestState {
                    head,
                    head_dirty: false,
                    namespaces: BTreeMap::new(),
                }),
                stats: Mutex::new(CacheStats::default()),
                write_lock: Mutex::new(()),
                slots: Slots {
                    baselines: Mutex::new(None),
                    matrix: Mutex::new(None),
                    suites: Mutex::new(None),
                    statics: Mutex::new(None),
                },
            }),
        })
    }

    /// The database root directory.
    pub fn root(&self) -> &Path {
        &self.shared.root
    }

    /// Stores `value` in `ns`, composing it with any stored artifact of
    /// the same key per the namespace's merge policy (see [`store`]).
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn put<T: Artifact>(&self, ns: &Namespace<T>, value: &T) -> Result<(), DbError> {
        let _writer = self.shared.lock_writers()?;
        self.save_locked(ns, value, true, None)
    }

    /// Stores `value` in `ns`, *replacing* any stored artifact instead
    /// of merging (how [`commit`](Self::commit) stores a stale one).
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn put_replacing<T: Artifact>(&self, ns: &Namespace<T>, value: &T) -> Result<(), DbError> {
        let _writer = self.shared.lock_writers()?;
        self.save_locked(ns, value, false, None)
    }

    /// The one write path, under the writer lock: `value`, composed with
    /// the stored artifact when `merge` is set and the namespace merges,
    /// then its record.
    fn save_locked<T: Artifact>(
        &self,
        ns: &Namespace<T>,
        value: &T,
        merge: bool,
        provenance: Option<Provenance>,
    ) -> Result<(), DbError> {
        debug_assert!(
            (ns.accept)(value),
            "{} would not serve this value",
            ns.layout.name
        );
        let key = (ns.key)(value);
        let stored = match ns.merge {
            Some(compose) if merge => self.get(ns, &key)?.map(|stored| compose(&stored, value)),
            _ => None,
        };
        let merged = stored.map_or(Cow::Borrowed(value), Cow::Owned);
        let path = self.shared.root.join(ns.layout.path(&key));
        write_atomic(&path, to_json(&path, &*merged)?.as_bytes())?;
        let provenance = provenance.map(|(inputs, mut meta)| {
            if let Some(facts) = ns.facts {
                meta.extend(facts(&merged));
            }
            (inputs, meta)
        });
        self.shared
            .record_artifact(ns.layout.name, &key, &*merged, provenance);
        Ok(())
    }

    /// Loads the artifact stored in `ns` under `key`, if any, from its
    /// JSON file — never from a snapshot, so out-of-band edits are seen
    /// at once and a read after a write costs one file, not a namespace.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn get<T: Artifact>(&self, ns: &Namespace<T>, key: &str) -> Result<Option<T>, DbError> {
        let stored = read_json(&self.shared.root.join(ns.layout.path(key)))?;
        Ok(stored.filter(ns.accept))
    }

    /// Whether a file is stored in `ns` under `key` (cheap: a file
    /// probe, no parsing).
    pub fn contains<T>(&self, ns: &Namespace<T>, key: &str) -> bool {
        self.shared.root.join(ns.layout.path(key)).is_file()
    }

    /// Every key stored in `ns`, in key order (segment by segment).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn keys<T>(&self, ns: &Namespace<T>) -> Result<Vec<String>, DbError> {
        Ok(ns.layout.walk(&self.shared.root)?)
    }

    /// Loads every artifact stored in `ns`, in key order — the bulk path
    /// behind fleet-wide aggregation and the rendered docs.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_all<T: Artifact>(&self, ns: &Namespace<T>) -> Result<Vec<T>, DbError> {
        let map = self.bulk(ns)?;
        let mut entries: Vec<(&String, &T)> = map.iter().filter(|(_, v)| (ns.accept)(v)).collect();
        entries.sort_by(|a, b| store::key_order(a.0, b.0));
        Ok(entries.into_iter().map(|(_, v)| v.clone()).collect())
    }

    /// The one bulk loader: a whole namespace from the in-memory
    /// snapshot if fresh, else the binary disk snapshot if its
    /// content-addressed state matches, else a rebuild from the JSON
    /// tree (which also backfills the manifest and rewrites the disk
    /// snapshot). Namespaces without a snapshot always rebuild.
    ///
    /// A miss runs under the in-process writer mutex: the state hash,
    /// the walk, [`Shared::adopt_outputs`] (which drops the records of
    /// files the walk did not see) and the generation the slot is tagged
    /// with must all see the same namespace, or a concurrent save would
    /// lose its record. The file lock is not taken, so a database whose
    /// lock file cannot be created still reads. Lock order: slot, writer
    /// mutex, manifest.
    fn bulk<T: Artifact>(&self, ns: &Namespace<T>) -> Result<Arc<BTreeMap<String, T>>, DbError> {
        let namespace = ns.layout.name;
        let mut slot = ns
            .slot
            .map(|slot| slot(&self.shared.slots).lock().expect("snapshot lock"));
        if let Some(Some((g, map))) = slot.as_deref() {
            if *g == self.shared.generation(namespace) {
                return Ok(Arc::clone(map));
            }
        }
        let _writers = self.shared.write_lock.lock().expect("writer lock");
        let indexed = slot.is_some();
        let root = &self.shared.root;
        let path = root.join(store::INDEX_DIR).join(format!("{namespace}.bin"));
        // An undecodable entry (schema drift) reads as `None`: rebuild.
        let decoded = indexed
            .then(|| snapshot::read(&path, self.shared.namespace_state(namespace)))
            .flatten();
        let map = match decoded {
            Some(entries) => entries.into_iter().collect(),
            None => {
                let mut entries = Vec::new();
                for key in self.keys(ns)? {
                    if let Some(value) = read_json(&root.join(ns.layout.path(&key)))? {
                        entries.push((key, value));
                    }
                }
                self.shared.adopt_outputs(namespace, &entries);
                let map: BTreeMap<String, T> = entries.into_iter().collect();
                if indexed {
                    let state = self.shared.namespace_state(namespace);
                    let encoded = map.iter().map(|(k, v)| (k.as_str(), v.to_value()));
                    // Best-effort: a failed snapshot write only costs the
                    // next rebuild.
                    let _ = snapshot::write(&path, state, encoded);
                }
                map
            }
        };
        let map = Arc::new(map);
        if let Some(slot) = slot.as_deref_mut() {
            *slot = Some((self.shared.generation(namespace), Arc::clone(&map)));
        }
        Ok(map)
    }

    /// Writes an OS support spec in CSV form under `<root>/os/<name>.csv`.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn save_os_spec(&self, spec: &OsSpec) -> Result<PathBuf, DbError> {
        let _writer = self.shared.lock_writers()?;
        let path = self.os_spec_path(&spec.name);
        write_atomic(&path, spec.to_csv().as_bytes())?;
        Ok(path)
    }

    /// Reads an OS support spec back from CSV.
    ///
    /// # Errors
    ///
    /// I/O failures and unknown syscalls in the file.
    pub fn load_os_spec(&self, name: &str) -> Result<Option<OsSpec>, DbError> {
        let path = self.os_spec_path(name);
        match fs::read_to_string(&path) {
            Ok(text) => {
                OsSpec::from_csv(name, "db", &text)
                    .map(Some)
                    .map_err(|e| DbError::Corrupt {
                        path,
                        message: e.to_string(),
                    })
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn os_spec_path(&self, name: &str) -> PathBuf {
        self.shared
            .root
            .join(store::OS_DIR)
            .join(format!("{name}.csv"))
    }

    // ----- cache manifest: the gate, provenance, invalidation -----

    /// The cache gate: decides from the manifest alone, reading no stored
    /// artifact, whether what `ns` holds under `key` answers a job whose
    /// inputs fingerprint to `inputs`, and counts the decision in this
    /// session's [`CacheStats`]:
    ///
    /// * **hit** — the record is current (its recorded inputs equal
    ///   `inputs`), `force` is off, and `accept` takes it (the hit
    ///   carries what `accept` read, from its meta or its output);
    /// * **stale** — not current, but a record or a stored file exists;
    /// * **miss** — anything else.
    ///
    /// Records without provenance (raw puts, out-of-band edits found by
    /// a bulk rebuild, `cache invalidate`) are never current.
    pub fn classify<T, H>(
        &self,
        ns: &Namespace<T>,
        key: &str,
        inputs: &BTreeMap<String, Fingerprint>,
        force: bool,
        accept: impl FnOnce(&ArtifactRecord) -> Option<H>,
    ) -> Decision<H> {
        let namespace = ns.layout.name;
        let recorded = self.shared.with_namespace(namespace, |n| {
            let rec = n.records.records.get(key)?;
            Some(if rec.inputs.as_ref() != Some(inputs) {
                Decision::Derive(Derive::Stale)
            } else if force {
                Decision::Derive(Derive::Miss)
            } else {
                accept(rec).map_or(Decision::Derive(Derive::Miss), Decision::Hit)
            })
        });
        let decision = recorded.unwrap_or_else(|| {
            Decision::Derive(if self.contains(ns, key) {
                Derive::Stale
            } else {
                Derive::Miss
            })
        });
        let mut stats = self.shared.stats.lock().expect("stats lock");
        match decision {
            Decision::Hit(_) => stats.hit(namespace),
            Decision::Derive(Derive::Miss) => stats.miss(namespace),
            Decision::Derive(Derive::Stale) => stats.stale(namespace),
        }
        decision
    }

    /// Stores a freshly derived artifact and attaches the provenance
    /// that produced it: `inputs`, plus `meta` for later
    /// [`classify`](Self::classify) calls to accept (to which the
    /// namespace adds its facts about the stored value, such as a
    /// baseline's [`store::REQUIREMENT_META`]). After a
    /// [`Derive::Miss`] the value composes with whatever is stored (as
    /// [`put`](Self::put)); after a [`Derive::Stale`] it replaces it
    /// (as [`put_replacing`](Self::put_replacing)), since content
    /// derived from outdated inputs would poison the fresh one.
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn commit<T: Artifact>(
        &self,
        ns: &Namespace<T>,
        value: &T,
        why: Derive,
        inputs: BTreeMap<String, Fingerprint>,
        meta: BTreeMap<String, String>,
    ) -> Result<(), DbError> {
        let _writer = self.shared.lock_writers()?;
        self.save_locked(ns, value, why == Derive::Miss, Some((inputs, meta)))
    }

    /// The content-addressed state of a namespace: the fingerprint of
    /// every `(key, output fingerprint)` pair its manifest records hold.
    /// It changes exactly when a stored artifact is added, removed or
    /// changes content, so it stands for the whole namespace as an input
    /// of what is rendered from it ([`store::RENDERED`]). Computed from
    /// the manifest alone, in O(namespace).
    pub fn namespace_state(&self, layout: &store::Layout) -> Fingerprint {
        self.shared.namespace_state(layout.name)
    }

    /// The manifest record of `key` in the namespace named `namespace`
    /// (see [`ns`]), if any — read-only.
    pub fn record(&self, namespace: &str, key: &str) -> Option<ArtifactRecord> {
        self.shared
            .with_namespace(namespace, |n| n.records.records.get(key).cloned())
    }

    /// Force-invalidates provenance: every record whose key matches the
    /// given OS and/or app filters (both `None` = everything) loses its
    /// inputs, so the next sweep re-measures it. Artifact files are
    /// untouched. Returns `(namespace, records invalidated)` for every
    /// tracked namespace.
    pub fn invalidate_matching(&self, os: Option<&str>, app: Option<&str>) -> Vec<(String, usize)> {
        store::ALL
            .iter()
            .map(|layout| {
                let count = self.shared.with_namespace(layout.name, |n| {
                    let mut count = 0;
                    for (key, rec) in n.records.records.iter_mut() {
                        if rec.inputs.is_some() && layout.matches(key, os, app) {
                            rec.inputs = None;
                            count += 1;
                        }
                    }
                    n.dirty |= count > 0;
                    count
                });
                (layout.name.to_owned(), count)
            })
            .collect()
    }

    /// Per-namespace `(entries tracked, entries with provenance)` counts.
    pub fn cache_entry_counts(&self) -> Vec<(String, usize, usize)> {
        ns::ALL
            .iter()
            .map(|namespace| {
                self.shared.with_namespace(namespace, |n| {
                    let records = &n.records.records;
                    let with = records.values().filter(|r| r.inputs.is_some()).count();
                    ((*namespace).to_owned(), records.len(), with)
                })
            })
            .collect()
    }

    /// This session's accumulated cache counters.
    pub fn session_cache_stats(&self) -> CacheStats {
        self.shared.stats.lock().expect("stats lock").clone()
    }

    /// Persists this session's counters as the manifest's "last sweep"
    /// stats (shown by `loupe cache stats`) and flushes the manifest:
    /// after an all-hit sweep, `manifest.json` is the only file written,
    /// and only if the counters differ from the stored ones.
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn persist_sweep_stats(&self) -> Result<(), DbError> {
        let stats = self.session_cache_stats();
        self.shared.with_manifest(|s| {
            if s.head.last_sweep.as_ref() != Some(&stats) {
                s.head.last_sweep = Some(stats);
                s.head_dirty = true;
            }
        });
        self.flush()
    }

    /// The counters persisted by the last completed sweep, if any.
    pub fn last_sweep_stats(&self) -> Option<CacheStats> {
        self.shared.with_manifest(|s| s.head.last_sweep.clone())
    }

    /// Writes the manifest files that changed to disk. Also runs on
    /// drop; call it explicitly when the error matters.
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn flush(&self) -> Result<(), DbError> {
        self.shared.flush_manifest()
    }
}

/// Per-kind read shorthands over the generic store, kept because the
/// benchmark helper under `perfbench/` calls and times them by name.
/// New code uses [`Database::get`], [`Database::keys`] and
/// [`Database::load_all`].
impl Database {
    /// `(app, workload)` of every stored baseline.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn list(&self) -> Result<Vec<(String, Workload)>, DbError> {
        Ok(split_workloads(self.keys(&store::BASELINES)?))
    }

    /// `(os, workload)` of every stored plan validation.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn list_plan_validations(&self) -> Result<Vec<(String, Workload)>, DbError> {
        Ok(split_workloads(self.keys(&store::PLANS)?))
    }

    /// The stored validation for `(os, workload)`, if any.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_plan_validation(
        &self,
        os: &str,
        workload: Workload,
    ) -> Result<Option<PlanValidation>, DbError> {
        self.get(&store::PLANS, &plan_key(os, workload))
    }

    /// Keys of every stored static report.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn list_static(&self) -> Result<Vec<String>, DbError> {
        self.keys(&store::STATIC)
    }

    /// Every stored static report of one level, sorted by app.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_static_level(&self, level: Level) -> Result<Vec<StaticReport>, DbError> {
        let map = self.bulk(&store::STATIC)?;
        let mut reports: Vec<StaticReport> =
            map.values().filter(|r| r.level == level).cloned().collect();
        reports.sort_by(|a, b| a.app.cmp(&b.app));
        Ok(reports)
    }

    /// Every stored matrix cell, sorted by `(os, app, workload)`.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_matrix(&self) -> Result<Vec<MatrixCell>, DbError> {
        self.load_all(&store::MATRIX)
    }

    /// Every stored conformance suite, in key order.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_suites(&self) -> Result<Vec<ConformanceSuite>, DbError> {
        self.load_all(&store::SUITES)
    }
}

/// Splits `…/<workload>` keys into their head and [`Workload`].
fn split_workloads(keys: Vec<String>) -> Vec<(String, Workload)> {
    keys.iter()
        .filter_map(|key| {
            let (head, label) = key.rsplit_once('/')?;
            let workload = Workload::ALL.iter().find(|w| w.label() == label)?;
            Some((head.to_owned(), *workload))
        })
        .collect()
}

/// Conservative merge of two measurements of the same (app, workload):
/// traced counts accumulate; stub/fake capability is the logical AND
/// (anything that failed once is not safe); confirmation requires both;
/// conflict lists union (a conflict seen once is real); impact
/// annotations keep the worst observation of every metric; run
/// accounting accumulates (the merged entry cost both analyses).
pub fn merge_reports(a: &AppReport, b: &AppReport) -> AppReport {
    let mut merged = a.clone();
    merged.stats.absorb(&b.stats);
    for (s, n) in &b.traced {
        *merged.traced.entry(*s).or_insert(0) += *n;
    }
    // Fallback requirements union: a fallback path observed by either
    // measurement must be honoured by plans built on the merged entry.
    merged.fallbacks = a.fallbacks.union(&b.fallbacks);
    // Environment boundary counters accumulate like traced counts; the
    // first rejection of the earlier measurement stays first.
    for (s, n) in &b.rejections {
        *merged.rejections.entry(*s).or_insert(0) += *n;
    }
    for (s, n) in &b.fake_hits {
        *merged.fake_hits.entry(*s).or_insert(0) += *n;
    }
    if merged.first_rejection.is_none() {
        merged.first_rejection = b.first_rejection;
    }
    for (s, class_b) in &b.classes {
        let entry = merged.classes.entry(*s).or_insert(*class_b);
        *entry = FeatureClass {
            stub_ok: entry.stub_ok && class_b.stub_ok,
            fake_ok: entry.fake_ok && class_b.fake_ok,
        };
    }
    // Conflicts union, keeping a's feature order and appending b's new
    // entries in b's order: a feature that conflicted in either
    // measurement stays flagged in the merged entry.
    for s in &b.conflicts {
        if !merged.conflicts.contains(s) {
            merged.conflicts.push(*s);
        }
    }
    for (s, rec_b) in &b.impacts {
        let entry = merged.impacts.entry(*s).or_default();
        entry.stub = merge_impact(entry.stub, rec_b.stub);
        entry.fake = merge_impact(entry.fake, rec_b.fake);
    }
    for (key, class_b) in &b.sub_features {
        match merged.sub_features.iter_mut().find(|(k, _)| k == key) {
            Some((_, c)) => {
                *c = FeatureClass {
                    stub_ok: c.stub_ok && class_b.stub_ok,
                    fake_ok: c.fake_ok && class_b.fake_ok,
                }
            }
            None => merged.sub_features.push((*key, *class_b)),
        }
    }
    for (path, class_b) in &b.pseudo_files {
        let entry = merged.pseudo_files.entry(path.clone()).or_insert(*class_b);
        *entry = FeatureClass {
            stub_ok: entry.stub_ok && class_b.stub_ok,
            fake_ok: entry.fake_ok && class_b.fake_ok,
        };
    }
    merged.confirmed = a.confirmed && b.confirmed;
    merged
}

/// Conservative merge of two optional impact observations of the same
/// (syscall, mode): success only if every measured run succeeded, and
/// for each metric the worst (largest-magnitude) observed deviation —
/// repeated measurement must never make an impact look milder.
fn merge_impact(a: Option<Impact>, b: Option<Impact>) -> Option<Impact> {
    let worst = |x: f64, y: f64| if y.abs() > x.abs() { y } else { x };
    match (a, b) {
        (Some(a), Some(b)) => Some(Impact {
            success: a.success && b.success,
            tests_passed: match (a.tests_passed, b.tests_passed) {
                (Some(x), Some(y)) => Some(x && y),
                (known, None) | (None, known) => known,
            },
            perf_delta: worst(a.perf_delta, b.perf_delta),
            rss_delta: worst(a.rss_delta, b.rss_delta),
            fd_delta: worst(a.fd_delta, b.fd_delta),
        }),
        (only, None) | (None, only) => only,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loupe_apps::registry;
    use loupe_core::{AnalysisConfig, Engine, ImpactRecord};
    use loupe_plan::{PlanValidation, TierOutcome};
    use loupe_static::{GraphAnalyzer, StaticAnalyzer};
    use std::cell::Cell;
    use std::collections::BTreeMap;

    thread_local! {
        /// How often this thread computed a [`Shared::namespace_state`].
        pub(super) static STATE_COMPUTATIONS: Cell<u64> = const { Cell::new(0) };
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("loupedb-test-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sample_report() -> AppReport {
        let app = registry::find("hello-musl-static").unwrap();
        Engine::new(AnalysisConfig::fast())
            .analyze(app.as_ref(), Workload::HealthCheck)
            .unwrap()
    }

    fn baseline(db: &Database, app: &str, workload: Workload) -> Option<AppReport> {
        db.get(&store::BASELINES, &baseline_key(app, workload))
            .unwrap()
    }

    impl Database {
        /// The recorded output fingerprint of `(namespace, key)`, if any.
        fn recorded_output(&self, namespace: &str, key: &str) -> Option<Fingerprint> {
            self.record(namespace, key).map(|rec| rec.output)
        }
    }

    fn cell(os: &str, app: &str, workload: Workload) -> MatrixCell {
        MatrixCell {
            os: os.into(),
            app: app.into(),
            workload,
            linux_pass: true,
            missing_required: loupe_syscalls::SysnoSet::new(),
            vanilla: None,
            planned: None,
            missing_required_flags: Vec::new(),
        }
    }

    fn tier(pass: bool) -> Option<TierOutcome> {
        Some(TierOutcome {
            pass,
            ..TierOutcome::default()
        })
    }

    fn sample_validation() -> PlanValidation {
        use loupe_plan::{InitialVerdict, StepVerdict, SupportPlan};
        PlanValidation {
            os: "kerla".into(),
            workload: Workload::HealthCheck,
            plan: SupportPlan {
                os: "kerla".into(),
                initially_supported: vec!["hello".into()],
                steps: vec![],
            },
            initial: vec![InitialVerdict {
                app: "hello".into(),
                passes: true,
            }],
            steps: vec![StepVerdict {
                index: 1,
                app: "redis".into(),
                unlocked: true,
                locked_before: Some(true),
            }],
        }
    }

    #[test]
    fn bytes_fingerprint_sees_every_flip_and_length_and_streams_files() {
        let dir = tmpdir("bytes-fingerprint");
        fs::create_dir_all(&dir).unwrap();
        let bytes: Vec<u8> = (0..(1u32 << 17) + 13)
            .map(|i| (i * 7 + i / 251) as u8)
            .collect();
        // Blocks of `fingerprint_file` end at 64 KiB; lengths around
        // that, and around a word, must agree with the one-slice hash.
        for len in [0, 1, 7, 8, 9, 65_535, 65_536, 65_537, 131_072, bytes.len()] {
            let path = dir.join("f");
            fs::write(&path, &bytes[..len]).unwrap();
            assert_eq!(
                fingerprint_file(&path).unwrap(),
                fingerprint_bytes(&bytes[..len]),
                "{len} bytes"
            );
        }
        let base = fingerprint_bytes(&bytes[..100]);
        for at in 0..100 {
            for bit in [0x01, 0x80] {
                let mut flipped = bytes[..100].to_vec();
                flipped[at] ^= bit;
                assert_ne!(fingerprint_bytes(&flipped), base, "byte {at} ^ {bit:#x}");
            }
        }
        // Trailing zeros count, though they pad the last word.
        assert_ne!(fingerprint_bytes(&[1, 0]), fingerprint_bytes(&[1]));
        assert_ne!(fingerprint_bytes(&[0; 8]), fingerprint_bytes(&[]));
        assert!(fingerprint_file(&dir.join("missing")).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let db = Database::open(&dir).unwrap();
        let report = sample_report();
        db.put(&store::BASELINES, &report).unwrap();
        let back = baseline(&db, &report.app, Workload::HealthCheck).unwrap();
        assert_eq!(back, report);
        assert_eq!(db.keys(&store::BASELINES).unwrap().len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_table_syscall_numbers_are_corrupt_entries() {
        let dir = tmpdir("hostile-sysno");
        let report = sample_report();
        Database::open(&dir)
            .unwrap()
            .put(&store::BASELINES, &report)
            .unwrap();
        let path = dir.join(&report.app).join("health.json");
        let text = fs::read_to_string(&path).unwrap();
        // One out-of-table number in a syscall set, then as a map key.
        let first_key = report.traced.keys().next().unwrap().raw();
        for hostile in [
            text.replacen("\"fallbacks\": []", "\"fallbacks\": [0, 9999]", 1),
            text.replacen(&format!("\"{first_key}\":"), "\"9999\":", 1),
        ] {
            assert_ne!(hostile, text, "the edit applies");
            fs::write(&path, hostile).unwrap();
            let err = Database::open(&dir)
                .unwrap()
                .get(
                    &store::BASELINES,
                    &baseline_key(&report.app, Workload::HealthCheck),
                )
                .unwrap_err();
            assert!(
                matches!(&err, DbError::Corrupt { message, .. } if message.contains("9999")),
                "{err}"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suite_namespace_roundtrips_and_stays_segregated() {
        let dir = tmpdir("suites");
        let db = Database::open(&dir).unwrap();
        let report = sample_report();
        db.put(&store::BASELINES, &report).unwrap();

        let spec = loupe_plan::os::find("kerla").unwrap();
        let suite = ConformanceSuite::generate(&spec, &report, None);
        db.put(&store::SUITES, &suite).unwrap();

        // Roundtrip is exact; overwriting replaces rather than merges.
        let key = suite_key("kerla", &report.app, Workload::HealthCheck);
        assert_eq!(db.get(&store::SUITES, &key).unwrap().unwrap(), suite);
        let mut rewritten = suite.clone();
        rewritten.cases.truncate(1);
        db.put(&store::SUITES, &rewritten).unwrap();
        assert_eq!(
            db.get(&store::SUITES, &key).unwrap().unwrap(),
            rewritten,
            "suites overwrite, not merge"
        );

        // The gentests namespace is invisible to the baseline listing,
        // and the bulk loaders see exactly the stored keys.
        assert_eq!(db.keys(&store::BASELINES).unwrap().len(), 1);
        assert_eq!(db.keys(&store::SUITES).unwrap(), vec![key]);
        assert_eq!(db.load_all(&store::SUITES).unwrap(), vec![rewritten]);
        assert!(db
            .get(
                &store::SUITES,
                &suite_key("gvisor", &report.app, Workload::HealthCheck)
            )
            .unwrap()
            .is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_is_conservative() {
        let report = sample_report();
        let mut looser = report.clone();
        let first = *looser.classes.keys().next().unwrap();
        looser.classes.insert(
            first,
            FeatureClass {
                stub_ok: true,
                fake_ok: true,
            },
        );
        let mut stricter = report.clone();
        stricter.classes.insert(
            first,
            FeatureClass {
                stub_ok: false,
                fake_ok: true,
            },
        );
        // Conflicts seen by only one measurement must survive the merge
        // (regression: merge_reports used to drop b's conflicts wholesale).
        let second = *report.classes.keys().nth(1).unwrap();
        looser.conflicts = vec![first];
        stricter.conflicts = vec![first, second];
        // Impacts too: one side measured a stub impact the other missed,
        // and where both measured, the worse observation must win.
        let mild = Impact {
            success: true,
            tests_passed: Some(true),
            perf_delta: 0.01,
            rss_delta: 0.0,
            fd_delta: 0.0,
        };
        let harsh = Impact {
            success: false,
            tests_passed: Some(false),
            perf_delta: -0.40,
            rss_delta: 0.10,
            fd_delta: 0.0,
        };
        looser.impacts.clear();
        stricter.impacts.clear();
        looser.impacts.insert(
            first,
            ImpactRecord {
                stub: Some(mild),
                fake: None,
            },
        );
        stricter.impacts.insert(
            first,
            ImpactRecord {
                stub: Some(harsh),
                fake: None,
            },
        );
        stricter.impacts.insert(
            second,
            ImpactRecord {
                stub: None,
                fake: Some(mild),
            },
        );

        let merged = merge_reports(&looser, &stricter);
        let class = merged.classes[&first];
        assert!(!class.stub_ok, "one failed stub disqualifies");
        assert!(class.fake_ok);
        // Counts accumulate — including the run accounting.
        assert_eq!(merged.traced[&first], report.traced[&first] * 2);
        assert_eq!(
            merged.stats.total_runs(),
            report.stats.total_runs() * 2,
            "a merged entry cost both analyses"
        );
        assert_eq!(
            merged.conflicts,
            vec![first, second],
            "conflict lists union, keeping feature order"
        );
        let rec = merged.impacts[&first];
        let stub = rec.stub.expect("stub impact survives the merge");
        assert!(!stub.success, "one failed observation disqualifies");
        assert_eq!(stub.tests_passed, Some(false));
        assert_eq!(stub.perf_delta, -0.40, "worst deviation wins");
        assert_eq!(stub.rss_delta, 0.10);
        assert_eq!(
            merged.impacts[&second].fake,
            Some(mild),
            "an impact measured on only one side is kept"
        );
    }

    #[test]
    fn saving_twice_merges() {
        let dir = tmpdir("merge");
        let db = Database::open(&dir).unwrap();
        let report = sample_report();
        db.put(&store::BASELINES, &report).unwrap();
        db.put(&store::BASELINES, &report).unwrap();
        let back = baseline(&db, &report.app, Workload::HealthCheck).unwrap();
        let first = *report.traced.keys().next().unwrap();
        assert_eq!(back.traced[&first], report.traced[&first] * 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn os_spec_roundtrip() {
        let dir = tmpdir("os");
        let db = Database::open(&dir).unwrap();
        let spec = loupe_plan::os::find("kerla").unwrap();
        db.save_os_spec(&spec).unwrap();
        let back = db.load_os_spec("kerla").unwrap().unwrap();
        assert_eq!(back.supported, spec.supported);
        assert!(db.load_os_spec("nonexistent").unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_validation_roundtrip_and_listing() {
        let dir = tmpdir("plans");
        let db = Database::open(&dir).unwrap();
        assert!(db.keys(&store::PLANS).unwrap().is_empty());
        let validation = sample_validation();
        db.put(&store::PLANS, &validation).unwrap();
        let key = plan_key("kerla", Workload::HealthCheck);
        assert_eq!(db.get(&store::PLANS, &key).unwrap().unwrap(), validation);
        assert_eq!(db.keys(&store::PLANS).unwrap(), vec![key.clone()]);
        assert!(db
            .get(&store::PLANS, &plan_key("kerla", Workload::Benchmark))
            .unwrap()
            .is_none());
        // Validations live outside the measurement namespace.
        assert!(db.keys(&store::BASELINES).unwrap().is_empty());
        // Re-saving overwrites (no merge): one deterministic replay.
        let mut second = validation.clone();
        second.steps[0].unlocked = false;
        db.put(&store::PLANS, &second).unwrap();
        assert_eq!(db.get(&store::PLANS, &key).unwrap().unwrap(), second);
        assert_eq!(db.load_all(&store::PLANS).unwrap(), vec![second]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restricted_env_reports_are_segregated_from_baselines() {
        let dir = tmpdir("env-seg");
        let db = Database::open(&dir).unwrap();
        let mut restricted = sample_report();
        restricted.env = "kerla-step3".into();
        db.put(store::reports(&restricted.env), &restricted)
            .unwrap();

        // The dynamic (baseline) path must not see it: the cache key now
        // includes the execution environment.
        let key = baseline_key(&restricted.app, Workload::HealthCheck);
        assert!(baseline(&db, &restricted.app, Workload::HealthCheck).is_none());
        assert!(!db.contains(&store::BASELINES, &key));
        assert!(db.keys(&store::BASELINES).unwrap().is_empty());
        // But the segregated namespace holds it.
        let back = db
            .get(
                &store::ENV,
                &env_key("kerla-step3", &restricted.app, Workload::HealthCheck),
            )
            .unwrap()
            .unwrap();
        assert_eq!(back, restricted);

        // Saving the Linux baseline afterwards does not merge with the
        // restricted entry: both coexist, each under its own key.
        let baseline_report = sample_report();
        db.put(store::reports(&baseline_report.env), &baseline_report)
            .unwrap();
        let served = baseline(&db, &baseline_report.app, Workload::HealthCheck).unwrap();
        assert_eq!(
            served, baseline_report,
            "baseline unpolluted by restricted run"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_restricted_entry_at_baseline_path_is_rejected() {
        // A database written before the env segregation could hold a
        // restricted-kernel measurement at the baseline path. The dynamic
        // load must reject (not serve) it, and a fresh save self-heals.
        let dir = tmpdir("env-legacy");
        let db = Database::open(&dir).unwrap();
        let mut stale = sample_report();
        stale.env = "restricted-os".into();
        let path = dir.join(&stale.app).join("health.json");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, serde_json::to_string(&stale).unwrap()).unwrap();

        assert!(
            baseline(&db, &stale.app, Workload::HealthCheck).is_none(),
            "restricted entry must not be served as a Linux baseline"
        );
        assert!(db.load_all(&store::BASELINES).unwrap().is_empty());
        let fresh = sample_report();
        db.put(&store::BASELINES, &fresh).unwrap();
        let served = baseline(&db, &fresh.app, Workload::HealthCheck).unwrap();
        assert_eq!(
            served, fresh,
            "fresh baseline overwrites the stale entry instead of merging"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn static_reports_live_in_their_own_level_keyed_namespace() {
        let dir = tmpdir("static");
        let db = Database::open(&dir).unwrap();
        let app = registry::find("redis").unwrap();
        let l0 = GraphAnalyzer::new(Level::L0).analyze(app.as_ref());
        let l3 = GraphAnalyzer::new(Level::L3).analyze(app.as_ref());
        db.put(&store::STATIC, &l0).unwrap();
        db.put(&store::STATIC, &l3).unwrap();

        // Levels do not collide with each other…
        let l0_key = static_key(Level::L0, "redis");
        assert_eq!(db.get(&store::STATIC, &l0_key).unwrap().unwrap(), l0);
        assert_eq!(
            db.get(&store::STATIC, &static_key(Level::L3, "redis"))
                .unwrap()
                .unwrap(),
            l3
        );
        assert!(db.contains(&store::STATIC, &l0_key));
        assert!(!db.contains(&store::STATIC, &static_key(Level::L0, "ghost")));
        assert_eq!(
            db.keys(&store::STATIC).unwrap(),
            vec!["l0/redis".to_owned(), "l3/redis".to_owned()]
        );
        assert_eq!(db.load_all(&store::STATIC).unwrap(), vec![l0.clone(), l3]);
        // …nor with the dynamic namespace: no measurement entries exist.
        assert!(db.keys(&store::BASELINES).unwrap().is_empty());
        assert!(baseline(&db, "redis", Workload::HealthCheck).is_none());

        // Re-saving overwrites (pure function, no merge).
        let mut altered = l0.clone();
        altered.syscalls = loupe_syscalls::SysnoSet::new();
        db.put(&store::STATIC, &altered).unwrap();
        assert_eq!(db.get(&store::STATIC, &l0_key).unwrap().unwrap(), altered);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn matrix_cells_roundtrip_compose_and_stay_segregated() {
        let dir = tmpdir("matrix");
        let db = Database::open(&dir).unwrap();
        assert!(db.keys(&store::MATRIX).unwrap().is_empty());

        let vanilla_only = MatrixCell {
            missing_required: [loupe_syscalls::Sysno::futex].into_iter().collect(),
            vanilla: Some(TierOutcome {
                pass: false,
                rejections: [(loupe_syscalls::Sysno::futex, 3)].into_iter().collect(),
                fake_hits: BTreeMap::new(),
                first_rejection: Some(loupe_syscalls::Sysno::futex),
                flag_rejections: Vec::new(),
                flag_fake_hits: Vec::new(),
                first_rejected_flag: None,
            }),
            ..cell("kerla", "redis", Workload::HealthCheck)
        };
        let key = matrix_key("kerla", "redis", Workload::HealthCheck);
        db.put(&store::MATRIX, &vanilla_only).unwrap();
        assert_eq!(db.get(&store::MATRIX, &key).unwrap().unwrap(), vanilla_only);

        // A later planned-tier measurement composes with the stored
        // vanilla verdict instead of clobbering it.
        let planned_only = MatrixCell {
            vanilla: None,
            planned: tier(true),
            ..vanilla_only.clone()
        };
        db.put(&store::MATRIX, &planned_only).unwrap();
        let composed = db.get(&store::MATRIX, &key).unwrap().unwrap();
        assert_eq!(composed.vanilla, vanilla_only.vanilla, "vanilla kept");
        assert_eq!(composed.planned, planned_only.planned, "planned added");

        // Listing and bulk load see the cell; the measurement namespaces
        // (baseline and env) do not.
        assert_eq!(db.keys(&store::MATRIX).unwrap(), vec![key]);
        assert_eq!(db.load_all(&store::MATRIX).unwrap(), vec![composed]);
        assert!(db.keys(&store::BASELINES).unwrap().is_empty());
        assert!(db.keys(&store::ENV).unwrap().is_empty());
        assert!(baseline(&db, "redis", Workload::HealthCheck).is_none());
        assert!(db
            .get(
                &store::ENV,
                &env_key("kerla", "redis", Workload::HealthCheck)
            )
            .unwrap()
            .is_none());
        assert!(db
            .get(
                &store::MATRIX,
                &matrix_key("kerla", "redis", Workload::Benchmark)
            )
            .unwrap()
            .is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn matrix_cells_coexist_with_env_reports_of_the_same_os() {
        let dir = tmpdir("matrix-env");
        let db = Database::open(&dir).unwrap();
        let mut restricted = sample_report();
        restricted.env = "kerla".into();
        db.put(&store::ENV, &restricted).unwrap();
        let cell = cell("kerla", &restricted.app, Workload::HealthCheck);
        db.put(&store::MATRIX, &cell).unwrap();
        // Both live under env/kerla/ without shadowing each other.
        assert!(db
            .get(
                &store::ENV,
                &env_key("kerla", &restricted.app, Workload::HealthCheck)
            )
            .unwrap()
            .is_some());
        assert_eq!(
            db.keys(&store::ENV).unwrap(),
            vec![env_key("kerla", &restricted.app, Workload::HealthCheck)]
        );
        assert_eq!(db.load_all(&store::MATRIX).unwrap(), vec![cell]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_entry_is_none() {
        let dir = tmpdir("missing");
        let db = Database::open(&dir).unwrap();
        assert!(baseline(&db, "ghost", Workload::Benchmark).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn provenance_lifecycle_tracks_saves_and_invalidation() {
        let dir = tmpdir("provenance");
        let db = Database::open(&dir).unwrap();
        let report = sample_report();
        let key = baseline_key(&report.app, report.workload);
        let inputs: BTreeMap<_, _> = [("app".to_owned(), fingerprint_of(&report.app))].into();
        let gate = |db: &Database, inputs: &BTreeMap<String, Fingerprint>, force: bool| {
            let note = |rec: &ArtifactRecord| Some(rec.meta.get("note").cloned());
            db.classify(&store::BASELINES, &key, inputs, force, note)
        };
        let (miss, stale) = (
            Decision::Derive(Derive::Miss),
            Decision::Derive(Derive::Stale),
        );

        // Nothing stored: a miss.
        assert!(db.record(ns::BASELINES, &key).is_none());
        assert_eq!(gate(&db, &inputs, false), miss);

        // A raw save records the output but no provenance: the artifact
        // is stale until a stage commits it.
        db.put(&store::BASELINES, &report).unwrap();
        let rec = db.record(ns::BASELINES, &key).unwrap();
        assert_eq!((rec.output, rec.inputs), (fingerprint_of(&report), None));
        assert_eq!(gate(&db, &inputs, false), stale);

        // A stale commit replaces (no merge) and attaches inputs + meta.
        let note = [("note".to_owned(), "x".to_owned())].into();
        db.commit(
            &store::BASELINES,
            &report,
            Derive::Stale,
            inputs.clone(),
            note,
        )
        .unwrap();
        assert_eq!(db.record(ns::BASELINES, &key).unwrap().output, rec.output);
        assert_eq!(gate(&db, &inputs, false), Decision::Hit(Some("x".into())));
        // Forced, or a meta the stage does not accept: a miss.
        assert_eq!(gate(&db, &inputs, true), miss);
        let reject = db.classify(&store::BASELINES, &key, &inputs, false, |_| None::<()>);
        assert_eq!(reject, Decision::Derive(Derive::Miss));
        // Other inputs: stale.
        let other = [("app".to_owned(), fingerprint_of(&1u64))].into();
        assert_eq!(gate(&db, &other, false), stale);

        // A raw save that changes the content (merge doubles counts)
        // wipes the provenance.
        db.put(&store::BASELINES, &report).unwrap();
        assert_eq!(gate(&db, &inputs, false), stale);

        // A miss commit composes with the stored entry, and its
        // provenance survives a flush + reopen (manifest/baselines.json).
        let stored = baseline(&db, &report.app, report.workload).unwrap();
        db.commit(
            &store::BASELINES,
            &report,
            Derive::Miss,
            inputs.clone(),
            BTreeMap::new(),
        )
        .unwrap();
        let merged = baseline(&db, &report.app, report.workload);
        assert_eq!(merged, Some(merge_reports(&stored, &report)));
        drop(db);
        let db = Database::open(&dir).unwrap();
        assert_eq!(gate(&db, &inputs, false), Decision::Hit(None));
        let counted = db.session_cache_stats().namespaces[ns::BASELINES];
        assert_eq!((counted.hits, counted.misses, counted.stale), (1, 0, 0));

        // Force-invalidation strips provenance without touching files.
        let counts = db.invalidate_matching(None, Some(&report.app));
        assert!(counts.contains(&(ns::BASELINES.to_owned(), 1)));
        assert_eq!(gate(&db, &inputs, false), stale);
        assert!(baseline(&db, &report.app, report.workload).is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalidation_filters_respect_key_shapes() {
        let matrix = &store::MATRIX.layout;
        assert!(matrix.matches("kerla/redis/health", Some("kerla"), None));
        assert!(!matrix.matches("gvisor/redis/health", Some("kerla"), None));
        assert!(matrix.matches("kerla/redis/health", None, Some("redis")));
        let suites = &store::SUITES.layout;
        assert!(suites.matches("kerla/health/redis", Some("kerla"), Some("redis")));
        assert!(!suites.matches("kerla/health/redis", None, Some("health")));
        let baselines = &store::BASELINES.layout;
        assert!(baselines.matches("redis/health", None, Some("redis")));
        // Baselines carry no OS dimension: an --os filter never hits them.
        assert!(!baselines.matches("redis/health", Some("kerla"), None));
        let plans = &store::PLANS.layout;
        assert!(plans.matches("kerla/health", Some("kerla"), None));
        assert!(!plans.matches("kerla/health", None, Some("redis")));
        assert!(store::STATIC
            .layout
            .matches("l0/redis", None, Some("redis")));
        // No filters → everything matches.
        assert!(matrix.matches("kerla/redis/health", None, None));
        // Rendered outputs read every OS and app: any filter hits them.
        assert!(store::RENDERED
            .layout
            .matches("docs", Some("kerla"), Some("redis")));
    }

    #[test]
    fn concurrent_tier_saves_do_not_drop_a_tier() {
        // Regression: a matrix put composes read-modify-write; two
        // concurrent single-tier saves used to be able to interleave so
        // the second read missed the first write, dropping a tier.
        let dir = tmpdir("race");
        let db = Database::open(&dir).unwrap();
        for round in 0..16 {
            let app = format!("redis{round}");
            let vanilla = MatrixCell {
                vanilla: tier(true),
                ..cell("kerla", &app, Workload::HealthCheck)
            };
            let planned = MatrixCell {
                planned: tier(false),
                ..cell("kerla", &app, Workload::HealthCheck)
            };
            let (db1, db2) = (db.clone(), db.clone());
            let t1 = std::thread::spawn(move || db1.put(&store::MATRIX, &vanilla).unwrap());
            let t2 = std::thread::spawn(move || db2.put(&store::MATRIX, &planned).unwrap());
            t1.join().unwrap();
            t2.join().unwrap();
            let cell = db
                .get(
                    &store::MATRIX,
                    &matrix_key("kerla", &app, Workload::HealthCheck),
                )
                .unwrap()
                .unwrap();
            assert!(cell.vanilla.is_some(), "vanilla tier lost in round {round}");
            assert!(cell.planned.is_some(), "planned tier lost in round {round}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn point_reads_see_out_of_band_edits_while_bulk_reads_serve_the_snapshot() {
        let dir = tmpdir("pointjson");
        let db = Database::open(&dir).unwrap();
        let mut cells = Vec::new();
        for app in ["alpha", "beta"] {
            let cell = MatrixCell {
                vanilla: tier(true),
                ..cell("kerla", app, Workload::HealthCheck)
            };
            db.put(&store::MATRIX, &cell).unwrap();
            cells.push(cell);
        }
        db.load_all(&store::MATRIX).unwrap(); // materialise the binary index
        assert!(dir.join("index").join("matrix.bin").is_file());
        drop(db);

        // Delete one cell's JSON and edit another's, WITHOUT touching
        // the manifest: the index still matches the recorded state.
        let json = |app: &str| {
            dir.join("env")
                .join("kerla")
                .join("matrix")
                .join(app)
                .join("health.json")
        };
        fs::remove_file(json("alpha")).unwrap();
        let mut edited = cells[1].clone();
        edited.linux_pass = false;
        fs::write(json("beta"), serde_json::to_string_pretty(&edited).unwrap()).unwrap();

        // A fresh handle's point reads see the files as they are now…
        let db = Database::open(&dir).unwrap();
        let get = |app: &str| {
            db.get(
                &store::MATRIX,
                &matrix_key("kerla", app, Workload::HealthCheck),
            )
            .unwrap()
        };
        assert_eq!(get("alpha"), None, "a deleted file is gone for point reads");
        assert_eq!(get("beta"), Some(edited), "an edit is seen at once");
        // …while the bulk read keeps serving the snapshot (the documented
        // limitation; deleting `index/` is the remedy).
        assert_eq!(db.load_all(&store::MATRIX).unwrap(), cells);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interleaved_gets_and_puts_never_hash_the_namespace() {
        // Counts operations, not time: a read after a write must not
        // cost O(namespace), so N get/put pairs compute the namespace
        // state zero times, and one bulk load afterwards at most twice
        // (probe the disk snapshot, then tag the rewritten one).
        let dir = tmpdir("writepath");
        let db = Database::open(&dir).unwrap();
        STATE_COMPUTATIONS.with(|n| n.set(0));
        for i in 0..500 {
            let cell = MatrixCell {
                vanilla: tier(i % 2 == 0),
                ..cell("kerla", &format!("app-{i:03}"), Workload::HealthCheck)
            };
            let key = matrix_key("kerla", &cell.app, Workload::HealthCheck);
            assert!(db.get(&store::MATRIX, &key).unwrap().is_none());
            db.put(&store::MATRIX, &cell).unwrap();
        }
        assert_eq!(STATE_COMPUTATIONS.with(Cell::get), 0);
        assert_eq!(db.load_all(&store::MATRIX).unwrap().len(), 500);
        assert!(STATE_COMPUTATIONS.with(Cell::get) <= 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_snapshot_serves_bulk_reads_and_heals_on_corruption() {
        let dir = tmpdir("binsnap");
        let db = Database::open(&dir).unwrap();
        let mut cells = Vec::new();
        for app in ["alpha", "beta", "gamma"] {
            let cell = MatrixCell {
                vanilla: tier(app != "beta"),
                ..cell("kerla", app, Workload::Benchmark)
            };
            db.put(&store::MATRIX, &cell).unwrap();
            cells.push(cell);
        }
        let loaded = db.load_all(&store::MATRIX).unwrap();
        assert_eq!(loaded, cells);
        let bin = dir.join("index").join("matrix.bin");
        assert!(bin.is_file(), "bulk load materialises the binary index");
        drop(db);

        // A fresh process serves the same bytes from the snapshot.
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.load_all(&store::MATRIX).unwrap(), cells);
        drop(db);

        // Corrupting the snapshot only costs a rebuild, never wrong data.
        fs::write(&bin, b"LOUPEBINgarbage").unwrap();
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.load_all(&store::MATRIX).unwrap(), cells);
        drop(db);

        // An out-of-band JSON edit is invisible while the snapshot still
        // matches the manifest (documented limitation); the remedy —
        // deleting the index — forces a rebuild that sees the new truth
        // and clears the edited cell's provenance.
        let db = Database::open(&dir).unwrap();
        let (inputs, meta) = Default::default();
        db.commit(&store::MATRIX, &cells[1], Derive::Stale, inputs, meta)
            .unwrap();
        drop(db);
        let path = dir
            .join("env")
            .join("kerla")
            .join("matrix")
            .join("beta")
            .join("bench.json");
        let mut edited = cells[1].clone();
        edited.linux_pass = false;
        fs::write(&path, serde_json::to_string_pretty(&edited).unwrap()).unwrap();
        fs::remove_file(&bin).unwrap();

        let db = Database::open(&dir).unwrap();
        let reloaded = db.load_all(&store::MATRIX).unwrap();
        assert_eq!(reloaded[1], edited, "rebuild sees the out-of-band edit");
        assert!(
            db.record(
                ns::MATRIX,
                &matrix_key("kerla", "beta", Workload::Benchmark)
            )
            .unwrap()
            .inputs
            .is_none(),
            "rebuild clears provenance of out-of-band-edited artifacts"
        );
        fs::remove_dir_all(&dir).ok();
    }

    /// One artifact of every kind, stored into `db`; returns each one's
    /// `(namespace, key)` together with its pretty JSON.
    fn one_of_each(db: &Database) -> Vec<(&'static str, String, String)> {
        fn put<T: Artifact>(
            db: &Database,
            ns: &Namespace<T>,
            value: &T,
        ) -> (&'static str, String, String) {
            db.put(ns, value).unwrap();
            let json = serde_json::to_string_pretty(value).unwrap();
            (ns.layout.name, (ns.key)(value), json)
        }
        let report = sample_report();
        let mut restricted = report.clone();
        restricted.env = "kerla-step3".into();
        let spec = loupe_plan::os::find("kerla").unwrap();
        let app = registry::find("redis").unwrap();
        vec![
            put(db, &store::BASELINES, &report),
            put(db, &store::ENV, &restricted),
            put(
                db,
                &store::MATRIX,
                &MatrixCell {
                    vanilla: tier(true),
                    ..cell("kerla", "redis", Workload::HealthCheck)
                },
            ),
            put(db, &store::PLANS, &sample_validation()),
            put(
                db,
                &store::STATIC,
                &GraphAnalyzer::new(Level::L0).analyze(app.as_ref()),
            ),
            put(
                db,
                &store::SUITES,
                &ConformanceSuite::generate(&spec, &report, None),
            ),
        ]
    }

    #[test]
    fn on_disk_layout_and_manifest_keys_are_pinned() {
        // Relative paths and manifest keys as written by every earlier
        // version of the store: a database populated before must stay
        // readable, and its records must keep their keys. Each
        // namespace's records live in `manifest/<ns>.json`.
        let dir = tmpdir("golden");
        let db = Database::open(&dir).unwrap();
        let stored = one_of_each(&db);
        let app = sample_report().app;
        let golden = [
            (
                ns::BASELINES,
                format!("{app}/health"),
                format!("{app}/health.json"),
            ),
            (
                ns::ENV,
                format!("kerla-step3/{app}/health"),
                format!("env/kerla-step3/{app}/health.json"),
            ),
            (
                ns::MATRIX,
                "kerla/redis/health".to_owned(),
                "env/kerla/matrix/redis/health.json".to_owned(),
            ),
            (
                ns::PLANS,
                "kerla/health".to_owned(),
                "plans/kerla/health.json".to_owned(),
            ),
            (
                ns::STATIC,
                "l0/redis".to_owned(),
                "static/l0/redis.json".to_owned(),
            ),
            (
                ns::SUITES,
                format!("kerla/health/{app}"),
                format!("gentests/kerla/health/{app}.json"),
            ),
        ];
        for ((namespace, key, json), (want_ns, want_key, want_path)) in stored.iter().zip(&golden) {
            assert_eq!((namespace, key), (want_ns, want_key));
            assert!(db.recorded_output(namespace, key).is_some(), "{key}");
            // The stored bytes are exactly the artifact's pretty JSON.
            assert_eq!(&fs::read_to_string(dir.join(want_path)).unwrap(), json);
        }
        let spec = loupe_plan::os::find("kerla").unwrap();
        assert_eq!(db.save_os_spec(&spec).unwrap(), dir.join("os/kerla.csv"));
        // A flush writes one records file per namespace that changed,
        // and no `manifest.json`: no counters were persisted.
        db.flush().unwrap();
        for (namespace, key, _) in &stored {
            let path = dir.join(format!("manifest/{namespace}.json"));
            assert_eq!(path, records_path(&dir, namespace));
            let records = Records::from_json(&fs::read_to_string(&path).unwrap());
            let keys: Vec<&String> = records.records.keys().collect();
            assert_eq!(keys, [key], "{namespace}");
        }
        // Nothing else lands in the tree: no temp files survive a put.
        let mut files = Vec::new();
        let mut dirs = vec![dir.clone()];
        while let Some(d) = dirs.pop() {
            for entry in fs::read_dir(d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                } else {
                    files.push(
                        path.strip_prefix(&dir)
                            .unwrap()
                            .to_string_lossy()
                            .into_owned(),
                    );
                }
            }
        }
        files.sort();
        let mut want: Vec<String> = golden.iter().map(|g| g.2.clone()).collect();
        want.extend([LOCK_FILE.to_owned(), "os/kerla.csv".to_owned()]);
        want.extend(golden.iter().map(|g| format!("manifest/{}.json", g.0)));
        want.sort();
        assert_eq!(files, want);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stray_temp_files_are_invisible_to_listing_and_bulk_loads() {
        let dir = tmpdir("stray-tmp");
        let db = Database::open(&dir).unwrap();
        let stored = one_of_each(&db);
        let before: Vec<Vec<String>> = store::ALL
            .iter()
            .map(|layout| layout.walk(&dir).unwrap())
            .collect();
        // What a writer killed between its temp write and the rename
        // leaves behind, in every directory of every namespace.
        for (namespace, key, _) in &stored {
            let path = dir.join(layout_of(namespace).path(key));
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let mut d = path.parent();
            while let Some(parent) = d.filter(|p| p.starts_with(&dir)) {
                fs::write(parent.join(format!(".{name}.1.0.tmp")), b"{ torn").unwrap();
                fs::write(parent.join("stray.tmp"), b"").unwrap();
                d = parent.parent();
            }
        }
        let after: Vec<Vec<String>> = store::ALL
            .iter()
            .map(|layout| layout.walk(&dir).unwrap())
            .collect();
        assert_eq!(after, before);
        fs::remove_dir_all(dir.join("index")).ok();
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.load_all(&store::BASELINES).unwrap().len(), 1);
        assert_eq!(db.load_all(&store::ENV).unwrap().len(), 1);
        assert_eq!(db.load_all(&store::MATRIX).unwrap().len(), 1);
        assert_eq!(db.load_all(&store::PLANS).unwrap().len(), 1);
        assert_eq!(db.load_all(&store::STATIC).unwrap().len(), 1);
        assert_eq!(db.load_all(&store::SUITES).unwrap().len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    fn layout_of(namespace: &str) -> &'static store::Layout {
        store::ALL.iter().find(|l| l.name == namespace).unwrap()
    }

    /// `get` and `load_all` of `namespace`, with the values dropped.
    fn read_back(db: &Database, namespace: &str, key: &str) -> [Result<(), DbError>; 2] {
        fn both<T: Artifact>(
            db: &Database,
            ns: &Namespace<T>,
            key: &str,
        ) -> [Result<(), DbError>; 2] {
            [db.get(ns, key).map(drop), db.load_all(ns).map(drop)]
        }
        match namespace {
            ns::BASELINES => both(db, &store::BASELINES, key),
            ns::ENV => both(db, &store::ENV, key),
            ns::MATRIX => both(db, &store::MATRIX, key),
            ns::PLANS => both(db, &store::PLANS, key),
            ns::STATIC => both(db, &store::STATIC, key),
            ns::SUITES => both(db, &store::SUITES, key),
            other => panic!("unknown namespace {other}"),
        }
    }

    #[test]
    fn damaged_files_are_errors_naming_the_file_never_panics() {
        let dir = tmpdir("damaged");
        let stored = one_of_each(&Database::open(&dir).unwrap());
        for (namespace, key, json) in &stored {
            let path = dir.join(layout_of(namespace).path(key));
            let bytes = json.as_bytes();
            // Truncations (a torn write) must name the file.
            for torn in [&bytes[..0], &bytes[..bytes.len() / 2]] {
                fs::write(&path, torn).unwrap();
                fs::remove_dir_all(dir.join("index")).ok();
                for result in read_back(&Database::open(&dir).unwrap(), namespace, key) {
                    assert!(
                        matches!(&result, Err(DbError::Corrupt { path: p, .. }) if *p == path),
                        "{namespace} truncated to {} bytes: {result:?}",
                        torn.len()
                    );
                }
            }
            // A flipped byte anywhere — including one that breaks UTF-8 —
            // may parse or fail, but never panics.
            for i in 0..16 {
                let at = i * bytes.len() / 16;
                let mut flipped = bytes.to_vec();
                flipped[at] ^= if i % 4 == 0 { 0x80 } else { 0x01 };
                fs::write(&path, &flipped).unwrap();
                fs::remove_dir_all(dir.join("index")).ok();
                let _ = read_back(&Database::open(&dir).unwrap(), namespace, key);
            }
            fs::write(&path, bytes).unwrap();
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// Fingerprint of everything `load_all` serves from `namespace`.
    fn served(db: &Database, namespace: &str) -> Fingerprint {
        fn all<T: Artifact>(db: &Database, ns: &Namespace<T>) -> Fingerprint {
            fingerprint_of(&db.load_all(ns).unwrap())
        }
        match namespace {
            ns::BASELINES => all(db, &store::BASELINES),
            ns::ENV => all(db, &store::ENV),
            ns::MATRIX => all(db, &store::MATRIX),
            ns::PLANS => all(db, &store::PLANS),
            ns::STATIC => all(db, &store::STATIC),
            ns::SUITES => all(db, &store::SUITES),
            ns::RENDERED => all(db, &store::RENDERED),
            other => panic!("unknown namespace {other}"),
        }
    }

    #[test]
    fn damaged_manifest_and_snapshots_fall_back_never_panic() {
        let dir = tmpdir("damaged-derived");
        let db = Database::open(&dir).unwrap();
        let stored = one_of_each(&db);
        // Bulk loads write `index/<ns>.bin`; persisting the counters
        // writes `manifest.json` and the records files.
        let expected: Vec<Fingerprint> = ns::ALL.iter().map(|n| served(&db, n)).collect();
        db.persist_sweep_stats().unwrap();
        drop(db);
        let sorted = |d: &str| {
            let mut files: Vec<PathBuf> = fs::read_dir(dir.join(d))
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .collect();
            files.sort();
            files
        };
        let mut files = vec![dir.join("manifest.json")];
        let records = sorted("manifest");
        assert_eq!(records.len(), 6, "every namespace that holds an artifact");
        let index = sorted("index");
        assert_eq!(index.len(), 4, "every snapshotted namespace has its file");
        files.extend(records);
        files.extend(index);
        let originals: Vec<Vec<u8>> = files.iter().map(|f| fs::read(f).unwrap()).collect();

        for (path, good) in files.iter().zip(&originals) {
            let truncations = (0..32).map(|i| (true, good[..i * good.len() / 32].to_vec()));
            let flips = (0..32).map(|i| {
                let mut bytes = good.clone();
                bytes[i * good.len() / 32] ^= if i % 4 == 0 { 0x80 } else { 0x01 };
                (false, bytes)
            });
            for (truncated, bytes) in truncations.chain(flips) {
                for (file, original) in files.iter().zip(&originals) {
                    fs::write(file, original).unwrap();
                }
                fs::write(path, &bytes).unwrap();
                let db = Database::open(&dir).unwrap();
                let got: Vec<Fingerprint> = ns::ALL.iter().map(|n| served(&db, n)).collect();
                // A damaged records file reads as empty or as other
                // state, so its namespace's snapshot is stale and
                // rebuilds from the JSON, which re-learns its records; a
                // truncated snapshot, or one with a flipped byte, fails
                // its header checks or its checksum and is rebuilt.
                for (namespace, key, _) in &stored {
                    assert!(db.record(namespace, key).is_some(), "{namespace}/{key}");
                }
                assert_eq!(
                    got,
                    expected,
                    "{} {} to {} bytes",
                    path.display(),
                    if truncated { "truncated" } else { "flipped" },
                    bytes.len()
                );
            }
        }
        fs::remove_dir_all(&dir).ok();
    }
}
