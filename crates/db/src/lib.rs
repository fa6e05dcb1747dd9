//! The measurement database — the `loupedb` analogue (§3.3: "Sharing
//! Loupe Results").
//!
//! Results are final for a fixed build of the software, its workload and
//! kernel, so they are worth persisting and sharing. This crate stores
//! [`AppReport`]s as JSON files in a directory tree
//! (`<root>/<app>/<workload>.json`), supports conservative merging of
//! repeated measurements, and imports/exports OS support specs in the
//! paper's one-syscall-per-line CSV form.
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
//! use loupe_db::Database;
//!
//! let dir = std::env::temp_dir().join("loupedb-doc-example");
//! let db = Database::open(&dir).unwrap();
//! assert!(db.list().unwrap().is_empty() || !db.list().unwrap().is_empty());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use loupe_apps::Workload;
use loupe_core::{fingerprint_of, AppReport, FeatureClass, Fingerprint, Impact, LINUX_ENV};
use loupe_gentests::ConformanceSuite;
use loupe_plan::{AppRequirement, MatrixCell, OsSpec, PlanValidation};
use loupe_static::{Level, StaticReport};

pub mod lock;
pub mod manifest;
pub mod snapshot;

pub use lock::{FileLock, LOCK_FILE};
pub use manifest::{ns, ArtifactRecord, CacheCounters, CacheStats, Manifest, MANIFEST_VERSION};

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

struct Shared {
    root: PathBuf,
    manifest: Mutex<ManifestState>,
    stats: Mutex<CacheStats>,
    /// Single-writer guard: every save composes read-modify-write
    /// (merge / tier composition), so writers must exclude each other.
    /// Extended across processes by the advisory [`lock::FileLock`]
    /// taken with it (see [`Shared::lock_writers`]).
    write_lock: Mutex<()>,
    baselines: SnapshotSlot<AppReport>,
    matrix: SnapshotSlot<MatrixCell>,
    suites: SnapshotSlot<ConformanceSuite>,
    statics: SnapshotSlot<StaticReport>,
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
        // File lock before the manifest mutex (the writer ordering), and
        // an atomic temp-file + rename so a concurrent reader — a serve
        // daemon polling for generation changes — can never observe a
        // torn manifest.
        let _file = lock::FileLock::acquire(&self.root)?;
        let path = self.manifest_path();
        self.with_manifest(|s| {
            if !s.dirty {
                return Ok(());
            }
            let json = serde_json::to_string_pretty(&s.manifest).map_err(|e| DbError::Corrupt {
                path: path.clone(),
                message: e.to_string(),
            })?;
            let tmp = path.with_extension("json.tmp");
            fs::write(&tmp, json)?;
            fs::rename(&tmp, &path)?;
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

/// The inverse of `<workload>.json` entry filenames: the single place
/// that maps a stored file name back to its [`Workload`], shared by
/// every namespace listing (baselines, plan verdicts, matrix cells).
fn workload_from_filename(name: &str) -> Option<Workload> {
    Workload::ALL
        .iter()
        .copied()
        .find(|w| name == format!("{}.json", w.label()))
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

fn read_json<T: serde::Deserialize>(path: &Path) -> Result<Option<T>, DbError> {
    match fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text)
            .map(Some)
            .map_err(|e| DbError::Corrupt {
                path: path.to_path_buf(),
                message: e.to_string(),
            }),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), DbError> {
    fs::create_dir_all(path.parent().expect("entry path has parent"))?;
    let json = serde_json::to_string_pretty(value).map_err(|e| DbError::Corrupt {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    fs::write(path, json)?;
    Ok(())
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
                baselines: Mutex::new(SlotState::Empty),
                matrix: Mutex::new(SlotState::Empty),
                suites: Mutex::new(SlotState::Empty),
                statics: Mutex::new(SlotState::Empty),
            }),
        })
    }

    /// The database root directory.
    pub fn root(&self) -> &Path {
        &self.shared.root
    }

    fn entry_path(&self, env: &str, app: &str, workload: Workload) -> PathBuf {
        // Full-Linux baselines live at the root (the shape every loupedb
        // has always had); restricted-environment measurements are
        // segregated under `env/<name>/` so they can never be confused
        // with a baseline by the cache key.
        let base = if env == LINUX_ENV {
            self.shared.root.clone()
        } else {
            self.shared.root.join("env").join(env)
        };
        base.join(app).join(format!("{}.json", workload.label()))
    }

    /// Stores a report, conservatively merging with any existing entry for
    /// the same `(env, app, workload)`: a feature is classified stubbable
    /// or fakeable only if *every* stored measurement agrees (§3.1).
    /// Reports measured on a restricted execution environment are stored
    /// under the `env/<name>/` namespace, segregated from the full-Linux
    /// baselines the dynamic pipeline caches.
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn save(&self, report: &AppReport) -> Result<(), DbError> {
        let _writer = self.shared.lock_writers()?;
        self.save_report_locked(report, true)
    }

    /// Stores a report, *replacing* any existing entry instead of
    /// merging — the path the incremental engine takes when the stored
    /// entry's recorded inputs no longer match (merging content produced
    /// by outdated inputs would poison the fresh measurement).
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn save_replacing(&self, report: &AppReport) -> Result<(), DbError> {
        let _writer = self.shared.lock_writers()?;
        self.save_report_locked(report, false)
    }

    fn save_report_locked(&self, report: &AppReport, merge: bool) -> Result<(), DbError> {
        // Merge only with a stored entry of the *same* environment; a
        // legacy mismatched entry at this path is superseded, not merged
        // (merging a restricted-kernel trace into a baseline would
        // poison it).
        let existing = if merge {
            self.load_env(&report.env, &report.app, report.workload)?
                .filter(|existing| existing.env == report.env)
        } else {
            None
        };
        let merged = match existing {
            Some(existing) => merge_reports(&existing, report),
            None => report.clone(),
        };
        let path = self.entry_path(&report.env, &report.app, report.workload);
        write_json(&path, &merged)?;
        if report.env == LINUX_ENV {
            self.shared.record_artifact(
                ns::BASELINES,
                &baseline_key(&report.app, report.workload),
                &merged,
            );
        } else {
            self.shared.record_artifact(
                ns::ENV,
                &env_key(&report.env, &report.app, report.workload),
                &merged,
            );
        }
        Ok(())
    }

    /// Loads the stored *full-Linux baseline* for `(app, workload)`, if
    /// any. An entry at the baseline path that records a different
    /// execution environment (written by tooling predating the
    /// segregation) is rejected — `Ok(None)` — so it is re-measured
    /// rather than served as a baseline.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load(&self, app: &str, workload: Workload) -> Result<Option<AppReport>, DbError> {
        Ok(self
            .load_env(LINUX_ENV, app, workload)?
            .filter(AppReport::is_linux_baseline))
    }

    /// Loads the stored report for `(env, app, workload)`, if any.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_env(
        &self,
        env: &str,
        app: &str,
        workload: Workload,
    ) -> Result<Option<AppReport>, DbError> {
        if env == LINUX_ENV {
            if let Some(hit) = self.cached_entry(
                &self.shared.baselines,
                ns::BASELINES,
                &baseline_key(app, workload),
            ) {
                return Ok(Some(hit));
            }
        }
        read_json(&self.entry_path(env, app, workload))
    }

    /// On-disk binary index of one namespace.
    fn index_path(&self, namespace: &str) -> PathBuf {
        self.shared
            .root
            .join("index")
            .join(format!("{namespace}.bin"))
    }

    /// Serves one entry from a namespace's snapshot if one is fresh
    /// and holds the key. The first point read at a generation lazily
    /// *maps* the disk snapshot (no value decode) and subsequent reads
    /// decode single values out of the mapping; a full decode only
    /// happens on bulk loads. Anything else (no snapshot, stale, key
    /// absent, malformed value) falls back to the JSON file — files
    /// written out-of-band stay visible.
    fn cached_entry<T: Clone + serde::Deserialize>(
        &self,
        slot: &SnapshotSlot<T>,
        namespace: &str,
        key: &str,
    ) -> Option<T> {
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

    /// Bulk-loads a whole namespace: in-memory snapshot if fresh, else
    /// the binary disk snapshot if its content-addressed state matches,
    /// else a rebuild from the JSON tree (which also backfills the
    /// manifest and rewrites the disk snapshot).
    fn bulk<T>(
        &self,
        namespace: &'static str,
        slot: &SnapshotSlot<T>,
        rebuild: impl FnOnce() -> Result<Vec<(String, T)>, DbError>,
    ) -> Result<Arc<BTreeMap<String, T>>, DbError>
    where
        T: Clone + serde::Serialize + serde::Deserialize,
    {
        let mut guard = slot.lock().expect("snapshot lock");
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
            let mut map = BTreeMap::new();
            for (key, value) in entries {
                match T::from_value(&value) {
                    Ok(t) => {
                        map.insert(key, t);
                    }
                    // Undecodable snapshot (schema drift): rebuild.
                    Err(_) => return None,
                }
            }
            Some(map)
        });
        let map = match decoded {
            Some(map) => map,
            None => {
                let entries = rebuild()?;
                self.shared.adopt_outputs(namespace, &entries);
                let map: BTreeMap<String, T> = entries.into_iter().collect();
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

    fn bulk_baselines(&self) -> Result<Arc<BTreeMap<String, AppReport>>, DbError> {
        self.bulk(ns::BASELINES, &self.shared.baselines, || {
            let mut out = Vec::new();
            for (app, workload) in self.list()? {
                let path = self.entry_path(LINUX_ENV, &app, workload);
                if let Some(report) = read_json::<AppReport>(&path)? {
                    out.push((baseline_key(&app, workload), report));
                }
            }
            Ok(out)
        })
    }

    fn bulk_matrix(&self) -> Result<Arc<BTreeMap<String, MatrixCell>>, DbError> {
        self.bulk(ns::MATRIX, &self.shared.matrix, || {
            let mut out = Vec::new();
            for (os, app, workload) in self.list_matrix_cells()? {
                let path = self.matrix_path(&os, &app, workload);
                if let Some(cell) = read_json::<MatrixCell>(&path)? {
                    out.push((matrix_key(&os, &app, workload), cell));
                }
            }
            Ok(out)
        })
    }

    fn bulk_suites(&self) -> Result<Arc<BTreeMap<String, ConformanceSuite>>, DbError> {
        self.bulk(ns::SUITES, &self.shared.suites, || {
            let mut out = Vec::new();
            for (os, app, workload) in self.list_suites()? {
                let path = self.suite_path(&os, &app, workload);
                if let Some(suite) = read_json::<ConformanceSuite>(&path)? {
                    out.push((suite_key(&os, &app, workload), suite));
                }
            }
            Ok(out)
        })
    }

    fn bulk_statics(&self) -> Result<Arc<BTreeMap<String, StaticReport>>, DbError> {
        self.bulk(ns::STATIC, &self.shared.statics, || {
            let mut out = Vec::new();
            for (level, app) in self.list_static()? {
                if let Some(report) = self.read_static(level, &app)? {
                    out.push((static_key(level, &app), report));
                }
            }
            Ok(out)
        })
    }

    /// Warms every namespace snapshot (building binary indices as
    /// needed) so subsequent point and bulk reads are served from
    /// memory. Sweeps call this once up front.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn preload(&self) -> Result<(), DbError> {
        self.bulk_baselines()?;
        self.bulk_matrix()?;
        self.bulk_suites()?;
        self.bulk_statics()?;
        Ok(())
    }

    /// Whether a full-Linux baseline entry for `(app, workload)` is
    /// stored (cheap: a file probe, no parsing) — for tooling that only
    /// needs existence; the sweep driver itself loads the entry since a
    /// cache hit is returned.
    pub fn contains(&self, app: &str, workload: Workload) -> bool {
        self.entry_path(LINUX_ENV, app, workload).is_file()
    }

    /// Loads every stored report for one workload, sorted by app name —
    /// the bulk path behind fleet-wide aggregation and reporting.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_workload(&self, workload: Workload) -> Result<Vec<AppReport>, DbError> {
        let map = self.bulk_baselines()?;
        let mut out: Vec<AppReport> = map
            .values()
            .filter(|r| r.workload == workload && r.is_linux_baseline())
            .cloned()
            .collect();
        out.sort_by(|a: &AppReport, b: &AppReport| a.app.cmp(&b.app));
        Ok(out)
    }

    /// Lists `(app, workload)` pairs present in the database.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn list(&self) -> Result<Vec<(String, Workload)>, DbError> {
        let mut out = Vec::new();
        for app_dir in fs::read_dir(&self.shared.root)? {
            let app_dir = app_dir?;
            if !app_dir.file_type()?.is_dir() {
                continue;
            }
            let app = app_dir.file_name().to_string_lossy().into_owned();
            // Non-baseline namespaces sharing the root directory.
            if matches!(
                app.as_str(),
                "env" | "plans" | "os" | "static" | "gentests" | "index"
            ) {
                continue;
            }
            for entry in fs::read_dir(app_dir.path())? {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                let Some(workload) = workload_from_filename(&name) else {
                    continue;
                };
                out.push((app.clone(), workload));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Loads every stored report for `workload` as planner requirements.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn requirements(&self, workload: Workload) -> Result<Vec<AppRequirement>, DbError> {
        Ok(self
            .load_workload(workload)?
            .iter()
            .map(AppRequirement::from_report)
            .collect())
    }

    /// Stores a plan-validation verdict under
    /// `<root>/plans/<os>/<workload>.json`, overwriting any previous
    /// validation of the same (OS, workload) — unlike measurements,
    /// validations are not merged: they describe one deterministic
    /// replay of the current plan.
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn save_plan_validation(&self, validation: &PlanValidation) -> Result<(), DbError> {
        let _writer = self.shared.lock_writers()?;
        let path = self.plan_path(&validation.os, validation.workload);
        write_json(&path, validation)?;
        self.shared.record_artifact(
            ns::PLANS,
            &plan_key(&validation.os, validation.workload),
            validation,
        );
        Ok(())
    }

    /// Loads the stored validation for `(os, workload)`, if any.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_plan_validation(
        &self,
        os: &str,
        workload: Workload,
    ) -> Result<Option<PlanValidation>, DbError> {
        read_json(&self.plan_path(os, workload))
    }

    /// Lists `(os, workload)` pairs with stored plan validations.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn list_plan_validations(&self) -> Result<Vec<(String, Workload)>, DbError> {
        let root = self.shared.root.join("plans");
        let mut out = Vec::new();
        let entries = match fs::read_dir(&root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e.into()),
        };
        for os_dir in entries {
            let os_dir = os_dir?;
            if !os_dir.file_type()?.is_dir() {
                continue;
            }
            let os = os_dir.file_name().to_string_lossy().into_owned();
            for entry in fs::read_dir(os_dir.path())? {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                let Some(workload) = workload_from_filename(&name) else {
                    continue;
                };
                out.push((os.clone(), workload));
            }
        }
        out.sort();
        Ok(out)
    }

    fn plan_path(&self, os: &str, workload: Workload) -> PathBuf {
        self.shared
            .root
            .join("plans")
            .join(os)
            .join(format!("{}.json", workload.label()))
    }

    /// Stores a generated conformance suite under
    /// `<root>/gentests/<os>/<workload>/<app>.json`, overwriting any
    /// previous suite for the same cell — like plan validations (and
    /// unlike measurements), suites are not merged: each one is a
    /// deterministic compilation of the current corpus.
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn save_suite(&self, suite: &ConformanceSuite) -> Result<(), DbError> {
        let _writer = self.shared.lock_writers()?;
        let path = self.suite_path(&suite.os, &suite.app, suite.workload);
        write_json(&path, suite)?;
        self.shared.record_artifact(
            ns::SUITES,
            &suite_key(&suite.os, &suite.app, suite.workload),
            suite,
        );
        Ok(())
    }

    /// Loads the stored conformance suite for `(os, app, workload)`, if
    /// any.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_suite(
        &self,
        os: &str,
        app: &str,
        workload: Workload,
    ) -> Result<Option<ConformanceSuite>, DbError> {
        if let Some(hit) = self.cached_entry(
            &self.shared.suites,
            ns::SUITES,
            &suite_key(os, app, workload),
        ) {
            return Ok(Some(hit));
        }
        read_json(&self.suite_path(os, app, workload))
    }

    /// Lists `(os, app, workload)` triples with stored conformance
    /// suites.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn list_suites(&self) -> Result<Vec<(String, String, Workload)>, DbError> {
        let root = self.shared.root.join("gentests");
        let mut out = Vec::new();
        let entries = match fs::read_dir(&root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e.into()),
        };
        for os_dir in entries {
            let os_dir = os_dir?;
            if !os_dir.file_type()?.is_dir() {
                continue;
            }
            let os = os_dir.file_name().to_string_lossy().into_owned();
            for wl_dir in fs::read_dir(os_dir.path())? {
                let wl_dir = wl_dir?;
                if !wl_dir.file_type()?.is_dir() {
                    continue;
                }
                let label = wl_dir.file_name().to_string_lossy().into_owned();
                let Some(workload) = Workload::ALL.iter().copied().find(|w| w.label() == label)
                else {
                    continue;
                };
                for entry in fs::read_dir(wl_dir.path())? {
                    let entry = entry?;
                    let name = entry.file_name().to_string_lossy().into_owned();
                    let Some(app) = name.strip_suffix(".json") else {
                        continue;
                    };
                    out.push((os.clone(), app.to_owned(), workload));
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Loads every stored conformance suite, sorted by `(os, app,
    /// workload)` — the bulk path behind `docs/CONFORMANCE.md`.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_suites(&self) -> Result<Vec<ConformanceSuite>, DbError> {
        let map = self.bulk_suites()?;
        let mut out: Vec<ConformanceSuite> = map.values().cloned().collect();
        out.sort_by(|a, b| (&a.os, &a.app, a.workload).cmp(&(&b.os, &b.app, b.workload)));
        Ok(out)
    }

    fn suite_path(&self, os: &str, app: &str, workload: Workload) -> PathBuf {
        self.shared
            .root
            .join("gentests")
            .join(os)
            .join(workload.label())
            .join(format!("{app}.json"))
    }

    fn matrix_path(&self, os: &str, app: &str, workload: Workload) -> PathBuf {
        self.shared
            .root
            .join("env")
            .join(os)
            .join("matrix")
            .join(app)
            .join(format!("{}.json", workload.label()))
    }

    /// Stores one fleet × OS compatibility-matrix cell under the
    /// environment's namespace, `env/<os>/matrix/<app>/<workload>.json`
    /// (the `matrix/` directory is reserved inside each environment; no
    /// application may be called `matrix`). A stored cell for the same
    /// key is *composed with*, not clobbered: tiers the new cell did not
    /// measure (`None`) keep the stored verdict, so a vanilla-only sweep
    /// followed by a planned sweep yields one complete cell.
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn save_matrix_cell(&self, cell: &MatrixCell) -> Result<(), DbError> {
        let _writer = self.shared.lock_writers()?;
        self.save_matrix_cell_locked(cell, true)
    }

    /// Stores a matrix cell, *replacing* any stored cell instead of
    /// composing tiers — the path taken when the stored cell's recorded
    /// inputs no longer match (tiers measured against outdated inputs
    /// must not survive into the fresh cell).
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn save_matrix_cell_replacing(&self, cell: &MatrixCell) -> Result<(), DbError> {
        let _writer = self.shared.lock_writers()?;
        self.save_matrix_cell_locked(cell, false)
    }

    fn save_matrix_cell_locked(&self, cell: &MatrixCell, compose: bool) -> Result<(), DbError> {
        let mut merged = cell.clone();
        if compose {
            if let Some(existing) = self.load_matrix_cell(&cell.os, &cell.app, cell.workload)? {
                if merged.vanilla.is_none() {
                    merged.vanilla = existing.vanilla;
                }
                if merged.planned.is_none() {
                    merged.planned = existing.planned;
                }
            }
        }
        let path = self.matrix_path(&cell.os, &cell.app, cell.workload);
        write_json(&path, &merged)?;
        self.shared.record_artifact(
            ns::MATRIX,
            &matrix_key(&cell.os, &cell.app, cell.workload),
            &merged,
        );
        Ok(())
    }

    /// Loads the stored matrix cell for `(os, app, workload)`, if any.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_matrix_cell(
        &self,
        os: &str,
        app: &str,
        workload: Workload,
    ) -> Result<Option<MatrixCell>, DbError> {
        if let Some(hit) = self.cached_entry(
            &self.shared.matrix,
            ns::MATRIX,
            &matrix_key(os, app, workload),
        ) {
            return Ok(Some(hit));
        }
        read_json(&self.matrix_path(os, app, workload))
    }

    /// Lists `(os, app, workload)` keys with stored matrix cells.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn list_matrix_cells(&self) -> Result<Vec<(String, String, Workload)>, DbError> {
        let env_root = self.shared.root.join("env");
        let mut out = Vec::new();
        let oses = match fs::read_dir(&env_root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e.into()),
        };
        for os_dir in oses {
            let os_dir = os_dir?;
            if !os_dir.file_type()?.is_dir() {
                continue;
            }
            let os = os_dir.file_name().to_string_lossy().into_owned();
            let matrix_root = os_dir.path().join("matrix");
            let apps = match fs::read_dir(&matrix_root) {
                Ok(entries) => entries,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            };
            for app_dir in apps {
                let app_dir = app_dir?;
                if !app_dir.file_type()?.is_dir() {
                    continue;
                }
                let app = app_dir.file_name().to_string_lossy().into_owned();
                for entry in fs::read_dir(app_dir.path())? {
                    let entry = entry?;
                    let name = entry.file_name().to_string_lossy().into_owned();
                    let Some(workload) = workload_from_filename(&name) else {
                        continue;
                    };
                    out.push((os.clone(), app.clone(), workload));
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Loads every stored matrix cell, sorted by `(os, app, workload)` —
    /// the bulk path behind matrix aggregation and `OS_MATRIX.md`.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_matrix(&self) -> Result<Vec<MatrixCell>, DbError> {
        let map = self.bulk_matrix()?;
        let mut out: Vec<MatrixCell> = map.values().cloned().collect();
        out.sort_by(|a, b| {
            (&a.os, &a.app, a.workload.label()).cmp(&(&b.os, &b.app, b.workload.label()))
        });
        Ok(out)
    }

    fn static_path(&self, level: Level, app: &str) -> PathBuf {
        self.shared
            .root
            .join("static")
            .join(level.label())
            .join(format!("{app}.json"))
    }

    /// The pre-ladder location of a static report (`static/binary/`,
    /// `static/source/`), for the levels that existed then. Reads fall
    /// back to it so databases written before the L0–L3 precision
    /// ladder keep serving their artifacts; writes always use the
    /// ladder-keyed path.
    fn static_legacy_path(&self, level: Level, app: &str) -> Option<PathBuf> {
        level.legacy_label().map(|label| {
            self.shared
                .root
                .join("static")
                .join(label)
                .join(format!("{app}.json"))
        })
    }

    /// Reads a static report from its ladder path, falling back to the
    /// legacy location.
    fn read_static(&self, level: Level, app: &str) -> Result<Option<StaticReport>, DbError> {
        if let Some(report) = read_json(&self.static_path(level, app))? {
            return Ok(Some(report));
        }
        match self.static_legacy_path(level, app) {
            Some(path) => read_json(&path),
            None => Ok(None),
        }
    }

    /// Stores a static-analysis report under
    /// `<root>/static/<level>/<app>.json` — a namespace keyed by
    /// analysis level, fully segregated from the dynamic measurements,
    /// so a `StaticReport` can never collide with (or be served as) a
    /// dynamic baseline. Overwrites any previous entry: static analysis
    /// is a deterministic pure function of the app's code descriptor,
    /// so unlike measurements there is nothing to merge.
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn save_static(&self, report: &StaticReport) -> Result<(), DbError> {
        let _writer = self.shared.lock_writers()?;
        let path = self.static_path(report.level, &report.app);
        write_json(&path, report)?;
        self.shared
            .record_artifact(ns::STATIC, &static_key(report.level, &report.app), report);
        Ok(())
    }

    /// Loads the stored static report for `(level, app)`, if any.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_static(&self, level: Level, app: &str) -> Result<Option<StaticReport>, DbError> {
        if let Some(hit) =
            self.cached_entry(&self.shared.statics, ns::STATIC, &static_key(level, app))
        {
            return Ok(Some(hit));
        }
        self.read_static(level, app)
    }

    /// Whether a static entry for `(level, app)` is stored.
    pub fn contains_static(&self, level: Level, app: &str) -> bool {
        self.static_path(level, app).is_file()
            || self
                .static_legacy_path(level, app)
                .is_some_and(|p| p.is_file())
    }

    /// Loads every stored static report of one level, sorted by app name.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_static_level(&self, level: Level) -> Result<Vec<StaticReport>, DbError> {
        let map = self.bulk_statics()?;
        let mut out: Vec<StaticReport> =
            map.values().filter(|r| r.level == level).cloned().collect();
        out.sort_by(|a, b| a.app.cmp(&b.app));
        Ok(out)
    }

    /// Lists `(level, app)` pairs with stored static reports.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn list_static(&self) -> Result<Vec<(Level, String)>, DbError> {
        let mut out = std::collections::BTreeSet::new();
        let mut scan = |dir: PathBuf, level: Level| -> Result<(), DbError> {
            let entries = match fs::read_dir(&dir) {
                Ok(entries) => entries,
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
                Err(e) => return Err(e.into()),
            };
            for entry in entries {
                let name = entry?.file_name().to_string_lossy().into_owned();
                if let Some(app) = name.strip_suffix(".json") {
                    out.insert((level, app.to_owned()));
                }
            }
            Ok(())
        };
        for level in Level::ALL {
            scan(self.shared.root.join("static").join(level.label()), level)?;
            // Pre-ladder databases stored L0/L3 under binary/source.
            if let Some(legacy) = level.legacy_label() {
                scan(self.shared.root.join("static").join(legacy), level)?;
            }
        }
        Ok(out.into_iter().collect())
    }

    /// Writes an OS support spec in CSV form under `<root>/os/<name>.csv`.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn save_os_spec(&self, spec: &OsSpec) -> Result<PathBuf, DbError> {
        let dir = self.shared.root.join("os");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.csv", spec.name));
        fs::write(&path, spec.to_csv())?;
        Ok(path)
    }

    /// Reads an OS support spec back from CSV.
    ///
    /// # Errors
    ///
    /// I/O failures and unknown syscalls in the file.
    pub fn load_os_spec(&self, name: &str) -> Result<Option<OsSpec>, DbError> {
        let path = self.shared.root.join("os").join(format!("{name}.csv"));
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
            for namespace in ns::ALL {
                let mut count = 0;
                if let Some(records) = s.manifest.records.get_mut(*namespace) {
                    for (key, rec) in records.iter_mut() {
                        if rec.inputs.is_none() || !key_matches(namespace, key, os, app) {
                            continue;
                        }
                        rec.inputs = None;
                        count += 1;
                        s.dirty = true;
                    }
                }
                out.push(((*namespace).to_owned(), count));
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

/// Whether a record key refers to the given OS and/or app, decoded per
/// namespace key shape. A `None` filter matches everything; a set
/// filter matches only namespaces whose keys carry that dimension
/// (baselines have no OS, plans no app).
fn key_matches(namespace: &str, key: &str, os: Option<&str>, app: Option<&str>) -> bool {
    let mut segs = key.split('/');
    let first = segs.next();
    let second = segs.next();
    let third = segs.next();
    let (key_os, key_app) = match namespace {
        ns::BASELINES => (None, first),
        ns::ENV | ns::MATRIX => (first, second),
        ns::SUITES => (first, third),
        ns::STATIC => (None, second),
        ns::PLANS => (first, None),
        _ => (None, None),
    };
    os.is_none_or(|want| key_os == Some(want)) && app.is_none_or(|want| key_app == Some(want))
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

    #[test]
    fn save_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let db = Database::open(&dir).unwrap();
        let report = sample_report();
        db.save(&report).unwrap();
        let back = db
            .load(&report.app, Workload::HealthCheck)
            .unwrap()
            .unwrap();
        assert_eq!(back, report);
        assert_eq!(db.list().unwrap().len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_table_syscall_numbers_are_corrupt_entries() {
        let dir = tmpdir("hostile-sysno");
        let report = sample_report();
        Database::open(&dir).unwrap().save(&report).unwrap();
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
                .load(&report.app, Workload::HealthCheck)
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
        db.save(&report).unwrap();

        let spec = loupe_plan::os::find("kerla").unwrap();
        let suite = ConformanceSuite::generate(&spec, &report, None);
        db.save_suite(&suite).unwrap();

        // Roundtrip is exact; overwriting replaces rather than merges.
        let back = db
            .load_suite("kerla", &report.app, Workload::HealthCheck)
            .unwrap()
            .unwrap();
        assert_eq!(back, suite);
        let mut rewritten = suite.clone();
        rewritten.cases.truncate(1);
        db.save_suite(&rewritten).unwrap();
        let back = db
            .load_suite("kerla", &report.app, Workload::HealthCheck)
            .unwrap()
            .unwrap();
        assert_eq!(back, rewritten, "suites overwrite, not merge");

        // The gentests namespace is invisible to the baseline listing,
        // and the bulk loaders see exactly the stored triples.
        assert_eq!(db.list().unwrap().len(), 1);
        assert_eq!(
            db.list_suites().unwrap(),
            vec![(
                "kerla".to_owned(),
                report.app.clone(),
                Workload::HealthCheck
            )]
        );
        assert_eq!(db.load_suites().unwrap(), vec![rewritten]);
        assert!(db
            .load_suite("gvisor", &report.app, Workload::HealthCheck)
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
        db.save(&report).unwrap();
        db.save(&report).unwrap();
        let back = db
            .load(&report.app, Workload::HealthCheck)
            .unwrap()
            .unwrap();
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
        use loupe_plan::{InitialVerdict, StepVerdict, SupportPlan};
        let dir = tmpdir("plans");
        let db = Database::open(&dir).unwrap();
        assert!(db.list_plan_validations().unwrap().is_empty());
        let validation = PlanValidation {
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
        };
        db.save_plan_validation(&validation).unwrap();
        let back = db
            .load_plan_validation("kerla", Workload::HealthCheck)
            .unwrap()
            .unwrap();
        assert_eq!(back, validation);
        assert_eq!(
            db.list_plan_validations().unwrap(),
            vec![("kerla".to_owned(), Workload::HealthCheck)]
        );
        assert!(db
            .load_plan_validation("kerla", Workload::Benchmark)
            .unwrap()
            .is_none());
        // Validations live outside the measurement namespace.
        assert!(db.list().unwrap().is_empty());
        // Re-saving overwrites (no merge): one deterministic replay.
        let mut second = validation.clone();
        second.steps[0].unlocked = false;
        db.save_plan_validation(&second).unwrap();
        let back = db
            .load_plan_validation("kerla", Workload::HealthCheck)
            .unwrap()
            .unwrap();
        assert_eq!(back, second);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restricted_env_reports_are_segregated_from_baselines() {
        let dir = tmpdir("env-seg");
        let db = Database::open(&dir).unwrap();
        let mut restricted = sample_report();
        restricted.env = "kerla-step3".into();
        db.save(&restricted).unwrap();

        // The dynamic (baseline) path must not see it: the cache key now
        // includes the execution environment.
        assert!(db
            .load(&restricted.app, Workload::HealthCheck)
            .unwrap()
            .is_none());
        assert!(!db.contains(&restricted.app, Workload::HealthCheck));
        assert!(db.list().unwrap().is_empty());
        // But the segregated namespace holds it.
        let back = db
            .load_env("kerla-step3", &restricted.app, Workload::HealthCheck)
            .unwrap()
            .unwrap();
        assert_eq!(back, restricted);

        // Saving the Linux baseline afterwards does not merge with the
        // restricted entry: both coexist, each under its own key.
        let baseline = sample_report();
        db.save(&baseline).unwrap();
        let served = db
            .load(&baseline.app, Workload::HealthCheck)
            .unwrap()
            .unwrap();
        assert_eq!(served, baseline, "baseline unpolluted by restricted run");
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
            db.load(&stale.app, Workload::HealthCheck)
                .unwrap()
                .is_none(),
            "restricted entry must not be served as a Linux baseline"
        );
        let fresh = sample_report();
        db.save(&fresh).unwrap();
        let served = db.load(&fresh.app, Workload::HealthCheck).unwrap().unwrap();
        assert_eq!(
            served, fresh,
            "fresh baseline overwrites the stale entry instead of merging"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn static_reports_live_in_their_own_level_keyed_namespace() {
        use loupe_static::{BinaryAnalyzer, SourceAnalyzer, StaticAnalyzer};
        let dir = tmpdir("static");
        let db = Database::open(&dir).unwrap();
        let app = registry::find("redis").unwrap();
        let bin = BinaryAnalyzer::new().analyze(app.as_ref());
        let src = SourceAnalyzer::new().analyze(app.as_ref());
        db.save_static(&bin).unwrap();
        db.save_static(&src).unwrap();

        // Levels do not collide with each other…
        assert_eq!(
            db.load_static(Level::Binary, "redis").unwrap().unwrap(),
            bin
        );
        assert_eq!(
            db.load_static(Level::Source, "redis").unwrap().unwrap(),
            src
        );
        assert!(db.contains_static(Level::Binary, "redis"));
        assert!(!db.contains_static(Level::Binary, "ghost"));
        assert_eq!(
            db.list_static().unwrap(),
            vec![
                (Level::Binary, "redis".to_owned()),
                (Level::Source, "redis".to_owned())
            ]
        );
        assert_eq!(db.load_static_level(Level::Source).unwrap(), vec![src]);
        // …nor with the dynamic namespace: no measurement entries exist.
        assert!(db.list().unwrap().is_empty());
        assert!(db.load("redis", Workload::HealthCheck).unwrap().is_none());

        // Re-saving overwrites (pure function, no merge).
        let mut altered = bin.clone();
        altered.syscalls = loupe_syscalls::SysnoSet::new();
        db.save_static(&altered).unwrap();
        assert_eq!(
            db.load_static(Level::Binary, "redis").unwrap().unwrap(),
            altered
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn matrix_cells_roundtrip_compose_and_stay_segregated() {
        use loupe_plan::{MatrixCell, TierOutcome};
        let dir = tmpdir("matrix");
        let db = Database::open(&dir).unwrap();
        assert!(db.list_matrix_cells().unwrap().is_empty());

        let vanilla_only = MatrixCell {
            os: "kerla".into(),
            app: "redis".into(),
            workload: Workload::HealthCheck,
            linux_pass: true,
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
            planned: None,
            missing_required_flags: Vec::new(),
        };
        db.save_matrix_cell(&vanilla_only).unwrap();
        let back = db
            .load_matrix_cell("kerla", "redis", Workload::HealthCheck)
            .unwrap()
            .unwrap();
        assert_eq!(back, vanilla_only);

        // A later planned-tier measurement composes with the stored
        // vanilla verdict instead of clobbering it.
        let planned_only = MatrixCell {
            vanilla: None,
            planned: Some(TierOutcome {
                pass: true,
                ..TierOutcome::default()
            }),
            ..vanilla_only.clone()
        };
        db.save_matrix_cell(&planned_only).unwrap();
        let composed = db
            .load_matrix_cell("kerla", "redis", Workload::HealthCheck)
            .unwrap()
            .unwrap();
        assert_eq!(composed.vanilla, vanilla_only.vanilla, "vanilla kept");
        assert_eq!(composed.planned, planned_only.planned, "planned added");

        // Listing and bulk load see the cell; the measurement namespaces
        // (baseline and env) do not.
        assert_eq!(
            db.list_matrix_cells().unwrap(),
            vec![(
                "kerla".to_owned(),
                "redis".to_owned(),
                Workload::HealthCheck
            )]
        );
        assert_eq!(db.load_matrix().unwrap(), vec![composed]);
        assert!(db.list().unwrap().is_empty());
        assert!(db.load("redis", Workload::HealthCheck).unwrap().is_none());
        assert!(db
            .load_env("kerla", "redis", Workload::HealthCheck)
            .unwrap()
            .is_none());
        assert!(db
            .load_matrix_cell("kerla", "redis", Workload::Benchmark)
            .unwrap()
            .is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn matrix_cells_coexist_with_env_reports_of_the_same_os() {
        use loupe_plan::MatrixCell;
        let dir = tmpdir("matrix-env");
        let db = Database::open(&dir).unwrap();
        let mut restricted = sample_report();
        restricted.env = "kerla".into();
        db.save(&restricted).unwrap();
        let cell = MatrixCell {
            os: "kerla".into(),
            app: restricted.app.clone(),
            workload: Workload::HealthCheck,
            linux_pass: true,
            missing_required: loupe_syscalls::SysnoSet::new(),
            vanilla: None,
            planned: None,
            missing_required_flags: Vec::new(),
        };
        db.save_matrix_cell(&cell).unwrap();
        // Both live under env/kerla/ without shadowing each other.
        assert!(db
            .load_env("kerla", &restricted.app, Workload::HealthCheck)
            .unwrap()
            .is_some());
        assert_eq!(db.load_matrix().unwrap(), vec![cell]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_entry_is_none() {
        let dir = tmpdir("missing");
        let db = Database::open(&dir).unwrap();
        assert!(db.load("ghost", Workload::Benchmark).unwrap().is_none());
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
        db.save(&report).unwrap();
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
        db.save(&report).unwrap();
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
        assert!(db.load(&report.app, report.workload).unwrap().is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalidation_filters_respect_key_shapes() {
        assert!(key_matches(
            ns::MATRIX,
            "kerla/redis/health",
            Some("kerla"),
            None
        ));
        assert!(!key_matches(
            ns::MATRIX,
            "gvisor/redis/health",
            Some("kerla"),
            None
        ));
        assert!(key_matches(
            ns::MATRIX,
            "kerla/redis/health",
            None,
            Some("redis")
        ));
        assert!(key_matches(
            ns::SUITES,
            "kerla/health/redis",
            Some("kerla"),
            Some("redis")
        ));
        assert!(!key_matches(
            ns::SUITES,
            "kerla/health/redis",
            None,
            Some("health")
        ));
        assert!(key_matches(
            ns::BASELINES,
            "redis/health",
            None,
            Some("redis")
        ));
        // Baselines carry no OS dimension: an --os filter never hits them.
        assert!(!key_matches(
            ns::BASELINES,
            "redis/health",
            Some("kerla"),
            None
        ));
        assert!(key_matches(ns::PLANS, "kerla/health", Some("kerla"), None));
        assert!(!key_matches(ns::PLANS, "kerla/health", None, Some("redis")));
        assert!(key_matches(ns::STATIC, "binary/redis", None, Some("redis")));
        // No filters → everything matches.
        assert!(key_matches(ns::MATRIX, "kerla/redis/health", None, None));
    }

    #[test]
    fn concurrent_tier_saves_do_not_drop_a_tier() {
        use loupe_plan::{MatrixCell, TierOutcome};
        // Regression: save_matrix_cell composes read-modify-write; two
        // concurrent single-tier saves used to be able to interleave so
        // the second read missed the first write, dropping a tier.
        let dir = tmpdir("race");
        let db = Database::open(&dir).unwrap();
        let base = MatrixCell {
            os: "kerla".into(),
            app: "redis".into(),
            workload: Workload::HealthCheck,
            linux_pass: true,
            missing_required: loupe_syscalls::SysnoSet::new(),
            vanilla: None,
            planned: None,
            missing_required_flags: Vec::new(),
        };
        for round in 0..16 {
            let vanilla = MatrixCell {
                app: format!("redis{round}"),
                vanilla: Some(TierOutcome {
                    pass: true,
                    ..TierOutcome::default()
                }),
                ..base.clone()
            };
            let planned = MatrixCell {
                app: format!("redis{round}"),
                planned: Some(TierOutcome {
                    pass: false,
                    ..TierOutcome::default()
                }),
                ..base.clone()
            };
            let (db1, db2) = (db.clone(), db.clone());
            let t1 = std::thread::spawn(move || db1.save_matrix_cell(&vanilla).unwrap());
            let t2 = std::thread::spawn(move || db2.save_matrix_cell(&planned).unwrap());
            t1.join().unwrap();
            t2.join().unwrap();
            let cell = db
                .load_matrix_cell("kerla", &format!("redis{round}"), Workload::HealthCheck)
                .unwrap()
                .unwrap();
            assert!(cell.vanilla.is_some(), "vanilla tier lost in round {round}");
            assert!(cell.planned.is_some(), "planned tier lost in round {round}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn point_reads_decode_lazily_from_the_mapped_index() {
        use loupe_plan::{MatrixCell, TierOutcome};
        let dir = tmpdir("lazypoint");
        let db = Database::open(&dir).unwrap();
        for app in ["alpha", "beta"] {
            db.save_matrix_cell(&MatrixCell {
                os: "kerla".into(),
                app: app.into(),
                workload: Workload::HealthCheck,
                linux_pass: true,
                missing_required: loupe_syscalls::SysnoSet::new(),
                vanilla: Some(TierOutcome {
                    pass: true,
                    ..TierOutcome::default()
                }),
                planned: None,
                missing_required_flags: Vec::new(),
            })
            .unwrap();
        }
        db.load_matrix().unwrap(); // materialise the binary index
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
            .load_matrix_cell("kerla", "alpha", Workload::HealthCheck)
            .unwrap()
            .expect("point read served from the mapped index");
        assert_eq!(cell.app, "alpha");
        // A key the index does not hold falls back to JSON (absent).
        assert!(db
            .load_matrix_cell("kerla", "gamma", Workload::HealthCheck)
            .unwrap()
            .is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_snapshot_serves_bulk_reads_and_heals_on_corruption() {
        use loupe_plan::{MatrixCell, TierOutcome};
        let dir = tmpdir("binsnap");
        let db = Database::open(&dir).unwrap();
        let mut cells = Vec::new();
        for app in ["alpha", "beta", "gamma"] {
            let cell = MatrixCell {
                os: "kerla".into(),
                app: app.into(),
                workload: Workload::Benchmark,
                linux_pass: true,
                missing_required: loupe_syscalls::SysnoSet::new(),
                vanilla: Some(TierOutcome {
                    pass: app != "beta",
                    ..TierOutcome::default()
                }),
                planned: None,
                missing_required_flags: Vec::new(),
            };
            db.save_matrix_cell(&cell).unwrap();
            cells.push(cell);
        }
        let loaded = db.load_matrix().unwrap();
        assert_eq!(loaded, cells);
        let bin = dir.join("index").join("matrix.bin");
        assert!(bin.is_file(), "bulk load materialises the binary index");
        drop(db);

        // A fresh process serves the same bytes from the snapshot.
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.load_matrix().unwrap(), cells);
        drop(db);

        // Corrupting the snapshot only costs a rebuild, never wrong data.
        fs::write(&bin, b"LOUPEBINgarbage").unwrap();
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.load_matrix().unwrap(), cells);
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
        let reloaded = db.load_matrix().unwrap();
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
}
