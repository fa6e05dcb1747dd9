//! The measurement database — the `loupedb` analogue (§3.3: "Sharing
//! Loupe Results").
//!
//! Results are final for a fixed build of the software, its workload and
//! kernel, so they are worth persisting and sharing. This crate stores
//! every artifact the pipeline produces — baseline and restricted-env
//! [`AppReport`]s, matrix cells, plan validations, static reports and
//! conformance suites — as JSON files in a directory tree, one
//! [`store::Namespace`] descriptor per kind (`<root>/<app>/<workload>.json`
//! for baselines; the full layout is in [`store`]). One generic store
//! serves every namespace: [`Database::put`] (merging per the
//! namespace's policy — conservative for measurements, §3.1),
//! [`Database::get`], [`Database::keys`] and [`Database::load_all`]. OS
//! support specs are imported/exported in the paper's
//! one-syscall-per-line CSV form.
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
//!   to one OS profile invalidates exactly its downstream cells; and
//! * **binary namespace snapshots** ([`snapshot`]) so bulk reads load a
//!   whole namespace from one compact file instead of re-parsing
//!   hundreds of JSON entries, rebuilt automatically whenever the
//!   content-addressed state they were written against changes.
//!
//! Both layers are derived and disposable: deleting `manifest.json` or
//! `index/` costs one rebuild, never correctness.
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
use std::io;
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
pub use manifest::{ns, ArtifactRecord, CacheCounters, CacheStats, Manifest, MANIFEST_VERSION};
pub use store::Namespace;

/// What the generic store needs of an artifact type: cloneable and
/// round-trippable through serde.
pub trait Artifact: Clone + serde::Serialize + serde::Deserialize {}

impl<T: Clone + serde::Serialize + serde::Deserialize> Artifact for T {}

/// A directory-backed measurement database.
///
/// Cloning is cheap and clones share one in-process state (manifest,
/// snapshots, writer lock), so a `Database` can be handed to worker
/// threads freely. Writers are additionally serialised *across
/// processes* by an advisory file lock ([`lock`]), so concurrent
/// read-modify-write saves from two processes can never drop each
/// other's data. Provenance is still per-process: two independent
/// `open()`s of the same root keep independent manifests and the last
/// flush wins (derived data — the cost is re-measurement, never
/// corruption, since the flush itself is atomic).
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

/// In-memory snapshot cache of one namespace, keyed by the manifest
/// generation it reflects.
type SnapshotSlot<T> = Mutex<SlotState<T>>;

/// What the process currently knows about one namespace's snapshot.
/// The states form a ladder — `Empty` → (`Unavailable` | `Mapped`) →
/// `Decoded` — climbed lazily: a point read maps the disk snapshot and
/// decodes single values out of it; only a bulk read pays for decoding
/// the whole namespace. Any generation bump resets the ladder.
enum SlotState<T> {
    /// Nothing learned yet.
    Empty,
    /// No usable disk snapshot at this generation — point reads go
    /// straight to the JSON files without re-probing the index.
    Unavailable(u64),
    /// Disk snapshot memory-mapped and validated; values decode
    /// per-key on demand.
    Mapped(u64, snapshot::MappedSnapshot),
    /// Whole namespace decoded into memory.
    Decoded(u64, Arc<BTreeMap<String, T>>),
}

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
    /// taken with it (see [`Shared::lock_writers`]).
    write_lock: Mutex<()>,
    slots: Slots,
}

struct ManifestState {
    manifest: Manifest,
    /// Monotonic per-namespace counters, bumped whenever a namespace's
    /// content changes — the freshness signal for in-memory snapshots.
    generations: BTreeMap<String, u64>,
    /// Memoised [`Shared::namespace_state`] per namespace, valid for
    /// the generation it was computed at. Point reads consult the
    /// state on every snapshot probe; without the memo each probe
    /// would re-hash the whole record table.
    state_memo: BTreeMap<String, (u64, Fingerprint)>,
    dirty: bool,
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
        self.root.join("manifest.json")
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

    fn generation(&self, namespace: &str) -> u64 {
        self.with_manifest(|s| s.generations.get(namespace).copied().unwrap_or(0))
    }

    /// Content-addressed state of a namespace: the fingerprint of every
    /// `(key, output-fingerprint)` pair. This is what binary snapshots
    /// are tagged with, making their staleness check survive process
    /// boundaries.
    fn namespace_state(&self, namespace: &str) -> Fingerprint {
        self.with_manifest(|s| {
            let generation = s.generations.get(namespace).copied().unwrap_or(0);
            if let Some((g, fp)) = s.state_memo.get(namespace) {
                if *g == generation {
                    return *fp;
                }
            }
            let pairs: Vec<(String, String)> = s
                .manifest
                .records
                .get(namespace)
                .map(|records| {
                    records
                        .iter()
                        .map(|(k, r)| (k.clone(), r.output.to_hex()))
                        .collect()
                })
                .unwrap_or_default();
            let fp = fingerprint_of(&pairs);
            s.state_memo.insert(namespace.to_owned(), (generation, fp));
            fp
        })
    }

    /// Updates the record for a just-written artifact. If the stored
    /// output fingerprint is unchanged, the record (including its
    /// provenance) is kept — content-addressed identity. Otherwise the
    /// record's inputs become unknown until a sweep stage re-attaches
    /// them via [`Database::record_provenance`].
    fn record_artifact<T: serde::Serialize>(&self, namespace: &str, key: &str, artifact: &T) {
        let output = fingerprint_of(artifact);
        self.with_manifest(|s| {
            let records = s.manifest.records.entry(namespace.to_owned()).or_default();
            if let Some(rec) = records.get(key) {
                if rec.output == output {
                    return;
                }
            }
            records.insert(
                key.to_owned(),
                ArtifactRecord {
                    inputs: None,
                    output,
                    meta: BTreeMap::new(),
                },
            );
            *s.generations.entry(namespace.to_owned()).or_insert(0) += 1;
            s.dirty = true;
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
        self.with_manifest(|s| {
            let records = s.manifest.records.entry(namespace.to_owned()).or_default();
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
                *s.generations.entry(namespace.to_owned()).or_insert(0) += 1;
                s.dirty = true;
            }
        });
    }

    fn flush_manifest(&self) -> Result<(), DbError> {
        if self.with_manifest(|s| !s.dirty) {
            return Ok(());
        }
        // Writers first, then the manifest mutex (the writer ordering);
        // the atomic replace means a concurrent reader — a serve daemon
        // polling for generation changes — never observes a torn
        // manifest.
        let _writer = self.lock_writers()?;
        let path = self.manifest_path();
        self.with_manifest(|s| {
            if !s.dirty {
                return Ok(());
            }
            write_atomic(&path, to_json(&path, &s.manifest)?.as_bytes())?;
            s.dirty = false;
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

/// The one writer of database files: `bytes` go to a fresh temp file
/// beside `path` (`.<name>.<pid>.<seq>.tmp`, which no namespace walk
/// matches), which is then renamed over the target. A reader, or the
/// next run after a `kill -9`, sees the old file or the new one, never
/// a torn one; temp names are unique per process and call, so writers
/// that do not hold the writer lock (snapshot rebuilds) cannot collide.
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
        let manifest = match fs::read_to_string(root.join("manifest.json")) {
            Ok(text) => Manifest::from_json(&text),
            Err(_) => Manifest::new(),
        };
        Ok(Database {
            shared: Arc::new(Shared {
                root,
                manifest: Mutex::new(ManifestState {
                    manifest,
                    generations: BTreeMap::new(),
                    state_memo: BTreeMap::new(),
                    dirty: false,
                }),
                stats: Mutex::new(CacheStats::default()),
                write_lock: Mutex::new(()),
                slots: Slots {
                    baselines: Mutex::new(SlotState::Empty),
                    matrix: Mutex::new(SlotState::Empty),
                    suites: Mutex::new(SlotState::Empty),
                    statics: Mutex::new(SlotState::Empty),
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
        self.put_locked(ns, value, true)
    }

    /// Stores `value` in `ns`, *replacing* any stored artifact instead
    /// of merging — the path a sweep stage takes when the stored
    /// artifact's recorded inputs no longer match (merging content
    /// produced by outdated inputs would poison the fresh one).
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn put_replacing<T: Artifact>(&self, ns: &Namespace<T>, value: &T) -> Result<(), DbError> {
        let _writer = self.shared.lock_writers()?;
        self.put_locked(ns, value, false)
    }

    fn put_locked<T: Artifact>(
        &self,
        ns: &Namespace<T>,
        value: &T,
        merge: bool,
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
        self.shared.record_artifact(ns.layout.name, &key, &*merged);
        Ok(())
    }

    /// Loads the artifact stored in `ns` under `key`, if any: from the
    /// namespace's snapshot when one is fresh and holds the key, else
    /// from its JSON file.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn get<T: Artifact>(&self, ns: &Namespace<T>, key: &str) -> Result<Option<T>, DbError> {
        let hit = match self.cached_entry(ns, key) {
            Some(hit) => Some(hit),
            None => read_json(&self.shared.root.join(ns.layout.path(key)))?,
        };
        Ok(hit.filter(ns.accept))
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

    /// On-disk binary index of one namespace.
    fn index_path(&self, namespace: &str) -> PathBuf {
        self.shared
            .root
            .join(store::INDEX_DIR)
            .join(format!("{namespace}.bin"))
    }

    /// Serves one entry from a namespace's snapshot if one is fresh
    /// and holds the key. The first point read at a generation lazily
    /// *maps* the disk snapshot (no value decode) and subsequent reads
    /// decode single values out of the mapping; a full decode only
    /// happens on bulk loads. Anything else (no snapshot, stale, key
    /// absent, malformed value) falls back to the JSON file — files
    /// written out-of-band stay visible.
    fn cached_entry<T: Artifact>(&self, ns: &Namespace<T>, key: &str) -> Option<T> {
        let slot = (ns.slot?)(&self.shared.slots);
        let namespace = ns.layout.name;
        let mut guard = slot.lock().expect("snapshot lock");
        let generation = self.shared.generation(namespace);
        match &*guard {
            SlotState::Decoded(g, map) if *g == generation => return map.get(key).cloned(),
            SlotState::Mapped(g, snap) if *g == generation => {
                return snap.get(key).and_then(|v| T::from_value(&v).ok());
            }
            SlotState::Unavailable(g) if *g == generation => return None,
            _ => {}
        }
        let expected = self.shared.namespace_state(namespace);
        match snapshot::MappedSnapshot::open(&self.index_path(namespace), expected) {
            Some(snap) => {
                let hit = snap.get(key).and_then(|v| T::from_value(&v).ok());
                *guard = SlotState::Mapped(generation, snap);
                hit
            }
            None => {
                *guard = SlotState::Unavailable(generation);
                None
            }
        }
    }

    /// The one bulk loader: a whole namespace from the in-memory
    /// snapshot if fresh, else the binary disk snapshot if its
    /// content-addressed state matches, else a rebuild from the JSON
    /// tree (which also backfills the manifest and rewrites the disk
    /// snapshot). Namespaces without a snapshot always rebuild.
    fn bulk<T: Artifact>(&self, ns: &Namespace<T>) -> Result<Arc<BTreeMap<String, T>>, DbError> {
        let namespace = ns.layout.name;
        let rebuild = || -> Result<BTreeMap<String, T>, DbError> {
            let mut entries = Vec::new();
            for key in self.keys(ns)? {
                if let Some(value) = read_json(&self.shared.root.join(ns.layout.path(&key)))? {
                    entries.push((key, value));
                }
            }
            self.shared.adopt_outputs(namespace, &entries);
            Ok(entries.into_iter().collect())
        };
        let Some(slot) = ns.slot else {
            return rebuild().map(Arc::new);
        };
        let mut guard = slot(&self.shared.slots).lock().expect("snapshot lock");
        let generation = self.shared.generation(namespace);
        if let SlotState::Decoded(g, map) = &*guard {
            if *g == generation {
                return Ok(Arc::clone(map));
            }
        }
        let path = self.index_path(namespace);
        let expected = self.shared.namespace_state(namespace);
        // Reuse a fresh mapping installed by an earlier point read;
        // otherwise map the disk snapshot now.
        let snap = match std::mem::replace(&mut *guard, SlotState::Empty) {
            SlotState::Mapped(g, snap) if g == generation => Some(snap),
            _ => snapshot::MappedSnapshot::open(&path, expected),
        };
        let decoded = snap.and_then(|snap| snap.decode_all()).and_then(|entries| {
            entries
                .into_iter()
                .map(|(key, value)| T::from_value(&value).ok().map(|t| (key, t)))
                // Undecodable snapshot (schema drift): rebuild.
                .collect::<Option<BTreeMap<_, _>>>()
        });
        let map = match decoded {
            Some(map) => map,
            None => {
                let map = rebuild()?;
                let state = self.shared.namespace_state(namespace);
                let encoded: Vec<(&String, serde::Value)> =
                    map.iter().map(|(k, v)| (k, v.to_value())).collect();
                // Best-effort: a failed snapshot write only costs the
                // next rebuild.
                let _ = snapshot::write(&path, state, encoded.iter().map(|(k, v)| (k.as_str(), v)));
                map
            }
        };
        let generation = self.shared.generation(namespace);
        let map = Arc::new(map);
        *guard = SlotState::Decoded(generation, Arc::clone(&map));
        Ok(map)
    }

    /// Warms every namespace snapshot (building binary indices as
    /// needed) so subsequent point and bulk reads are served from
    /// memory. Sweeps call this once up front.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn preload(&self) -> Result<(), DbError> {
        self.bulk(&store::BASELINES)?;
        self.bulk(&store::MATRIX)?;
        self.bulk(&store::SUITES)?;
        self.bulk(&store::STATIC)?;
        Ok(())
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

    // ----- cache manifest: provenance, currency, invalidation -----

    /// Whether the artifact at `(namespace, key)` is *current*: it has
    /// recorded provenance and every recorded input fingerprint equals
    /// the freshly computed one. Artifacts without provenance (raw
    /// saves, pre-manifest databases) are never current.
    pub fn is_current(
        &self,
        namespace: &str,
        key: &str,
        inputs: &BTreeMap<String, Fingerprint>,
    ) -> bool {
        self.shared.with_manifest(|s| {
            s.manifest
                .records
                .get(namespace)
                .and_then(|records| records.get(key))
                .and_then(|rec| rec.inputs.as_ref())
                .is_some_and(|recorded| recorded == inputs)
        })
    }

    /// Attaches provenance (and optional metadata) to an existing
    /// artifact record — called by sweep stages right after a save, once
    /// they know which inputs produced the artifact. A no-op if no
    /// record exists.
    pub fn record_provenance(
        &self,
        namespace: &str,
        key: &str,
        inputs: BTreeMap<String, Fingerprint>,
        meta: BTreeMap<String, String>,
    ) {
        self.shared.with_manifest(|s| {
            let Some(rec) = s
                .manifest
                .records
                .get_mut(namespace)
                .and_then(|records| records.get_mut(key))
            else {
                return;
            };
            if rec.inputs.as_ref() == Some(&inputs) && rec.meta == meta {
                return;
            }
            rec.inputs = Some(inputs);
            rec.meta = meta;
            s.dirty = true;
        });
    }

    /// The recorded output fingerprint of `(namespace, key)`, if any.
    pub fn recorded_output(&self, namespace: &str, key: &str) -> Option<Fingerprint> {
        self.shared.with_manifest(|s| {
            s.manifest
                .records
                .get(namespace)
                .and_then(|records| records.get(key))
                .map(|rec| rec.output)
        })
    }

    /// The recorded input fingerprints of `(namespace, key)`, if any.
    pub fn recorded_inputs(
        &self,
        namespace: &str,
        key: &str,
    ) -> Option<BTreeMap<String, Fingerprint>> {
        self.shared.with_manifest(|s| {
            s.manifest
                .records
                .get(namespace)
                .and_then(|records| records.get(key))
                .and_then(|rec| rec.inputs.clone())
        })
    }

    /// The recorded metadata of `(namespace, key)`, if a record exists.
    pub fn recorded_meta(&self, namespace: &str, key: &str) -> Option<BTreeMap<String, String>> {
        self.shared.with_manifest(|s| {
            s.manifest
                .records
                .get(namespace)
                .and_then(|records| records.get(key))
                .map(|rec| rec.meta.clone())
        })
    }

    /// Force-invalidates provenance: every record whose key matches the
    /// given OS and/or app filters (both `None` = everything) loses its
    /// inputs, so the next sweep re-measures it. Artifact files are
    /// untouched. Returns `(namespace, records invalidated)` for every
    /// tracked namespace.
    pub fn invalidate_matching(&self, os: Option<&str>, app: Option<&str>) -> Vec<(String, usize)> {
        self.shared.with_manifest(|s| {
            let mut out = Vec::new();
            for layout in store::ALL {
                let mut count = 0;
                if let Some(records) = s.manifest.records.get_mut(layout.name) {
                    for (key, rec) in records.iter_mut() {
                        if rec.inputs.is_none() || !layout.matches(key, os, app) {
                            continue;
                        }
                        rec.inputs = None;
                        count += 1;
                        s.dirty = true;
                    }
                }
                out.push((layout.name.to_owned(), count));
            }
            out
        })
    }

    /// Per-namespace `(entries tracked, entries with provenance)` counts.
    pub fn cache_entry_counts(&self) -> Vec<(String, usize, usize)> {
        self.shared.with_manifest(|s| {
            ns::ALL
                .iter()
                .map(|namespace| {
                    let (total, with) = s
                        .manifest
                        .records
                        .get(*namespace)
                        .map(|records| {
                            (
                                records.len(),
                                records.values().filter(|r| r.inputs.is_some()).count(),
                            )
                        })
                        .unwrap_or((0, 0));
                    ((*namespace).to_owned(), total, with)
                })
                .collect()
        })
    }

    /// Records a cache hit for this session's counters.
    pub fn note_hit(&self, namespace: &str) {
        self.shared.stats.lock().expect("stats lock").hit(namespace);
    }

    /// Records a cache miss (nothing stored) for this session.
    pub fn note_miss(&self, namespace: &str) {
        self.shared
            .stats
            .lock()
            .expect("stats lock")
            .miss(namespace);
    }

    /// Records a stale recomputation (stored but outdated) for this
    /// session.
    pub fn note_stale(&self, namespace: &str) {
        self.shared
            .stats
            .lock()
            .expect("stats lock")
            .stale(namespace);
    }

    /// This session's accumulated cache counters.
    pub fn session_cache_stats(&self) -> CacheStats {
        self.shared.stats.lock().expect("stats lock").clone()
    }

    /// Persists this session's counters as the manifest's "last sweep"
    /// stats (shown by `loupe cache stats`) and flushes the manifest.
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn persist_sweep_stats(&self) -> Result<(), DbError> {
        let stats = self.session_cache_stats();
        self.shared.with_manifest(|s| {
            if s.manifest.last_sweep.as_ref() != Some(&stats) {
                s.manifest.last_sweep = Some(stats);
                s.dirty = true;
            }
        });
        self.flush()
    }

    /// The counters persisted by the last completed sweep, if any.
    pub fn last_sweep_stats(&self) -> Option<CacheStats> {
        self.shared.with_manifest(|s| s.manifest.last_sweep.clone())
    }

    /// Writes the manifest to disk if it changed. Also runs on drop;
    /// call it explicitly when the error matters.
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
    use std::collections::BTreeMap;

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
        let mut inputs = BTreeMap::new();
        inputs.insert("app".to_owned(), fingerprint_of(&report.app));

        // Before any save: no record, nothing current.
        assert!(db.recorded_output(ns::BASELINES, &key).is_none());
        assert!(!db.is_current(ns::BASELINES, &key, &inputs));

        // A raw save records the output but no provenance — the artifact
        // exists, yet is not current until a stage attaches inputs.
        db.put(&store::BASELINES, &report).unwrap();
        let output = db.recorded_output(ns::BASELINES, &key).unwrap();
        assert_eq!(output, fingerprint_of(&report));
        assert!(db.recorded_inputs(ns::BASELINES, &key).is_none());
        assert!(!db.is_current(ns::BASELINES, &key, &inputs));

        db.record_provenance(
            ns::BASELINES,
            &key,
            inputs.clone(),
            [("note".to_owned(), "x".to_owned())].into(),
        );
        assert!(db.is_current(ns::BASELINES, &key, &inputs));
        assert_eq!(
            db.recorded_inputs(ns::BASELINES, &key),
            Some(inputs.clone())
        );
        assert_eq!(db.recorded_meta(ns::BASELINES, &key).unwrap()["note"], "x");
        // Different inputs → not current.
        let mut other = inputs.clone();
        other.insert("extra".to_owned(), fingerprint_of(&1u64));
        assert!(!db.is_current(ns::BASELINES, &key, &other));

        // A subsequent save changes the content (merge doubles counts),
        // so the provenance is wiped until re-attached.
        db.put(&store::BASELINES, &report).unwrap();
        assert!(!db.is_current(ns::BASELINES, &key, &inputs));
        assert_ne!(db.recorded_output(ns::BASELINES, &key), Some(output));

        // Provenance survives a flush + reopen (manifest.json).
        db.record_provenance(ns::BASELINES, &key, inputs.clone(), BTreeMap::new());
        drop(db);
        let db = Database::open(&dir).unwrap();
        assert!(db.is_current(ns::BASELINES, &key, &inputs));

        // Force-invalidation strips provenance without touching files.
        let counts = db.invalidate_matching(None, Some(&report.app));
        assert!(counts.contains(&(ns::BASELINES.to_owned(), 1)));
        assert!(!db.is_current(ns::BASELINES, &key, &inputs));
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
    fn point_reads_decode_lazily_from_the_mapped_index() {
        let dir = tmpdir("lazypoint");
        let db = Database::open(&dir).unwrap();
        for app in ["alpha", "beta"] {
            db.put(
                &store::MATRIX,
                &MatrixCell {
                    vanilla: tier(true),
                    ..cell("kerla", app, Workload::HealthCheck)
                },
            )
            .unwrap();
        }
        db.load_all(&store::MATRIX).unwrap(); // materialise the binary index
        drop(db);

        // Remove one JSON entry out-of-band WITHOUT touching the
        // manifest: the index still matches the recorded state, so a
        // fresh process's *point* read must be served from the mapped
        // snapshot — no bulk decode, no JSON file needed.
        fs::remove_file(
            dir.join("env")
                .join("kerla")
                .join("matrix")
                .join("alpha")
                .join("health.json"),
        )
        .unwrap();
        let db = Database::open(&dir).unwrap();
        let cell = db
            .get(
                &store::MATRIX,
                &matrix_key("kerla", "alpha", Workload::HealthCheck),
            )
            .unwrap()
            .expect("point read served from the mapped index");
        assert_eq!(cell.app, "alpha");
        // A key the index does not hold falls back to JSON (absent).
        assert!(db
            .get(
                &store::MATRIX,
                &matrix_key("kerla", "gamma", Workload::HealthCheck)
            )
            .unwrap()
            .is_none());
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
        db.record_provenance(
            ns::MATRIX,
            &matrix_key("kerla", "beta", Workload::Benchmark),
            BTreeMap::new(),
            BTreeMap::new(),
        );
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
            db.recorded_inputs(
                ns::MATRIX,
                &matrix_key("kerla", "beta", Workload::Benchmark)
            )
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
        // readable, and its manifest must stay all-hit.
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
}
