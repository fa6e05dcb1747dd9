//! Fleet-wide analysis sweeps and population-scale reporting.
//!
//! The paper's headline artifact is an *aggregate* view over ~116
//! applications: which system calls a compatibility layer must really
//! implement, and which it can stub or fake. This crate turns the
//! per-app engine into that population-scale system:
//!
//! * [`Sweep`] drives `Engine::analyze` concurrently across a whole
//!   application fleet × workload set on a bounded worker pool, with
//!   deterministic result ordering and incremental persistence into a
//!   [`Database`] (cached entries are skipped unless forced; re-measured
//!   entries merge conservatively via the database's merge rules);
//! * [`FleetStats`] aggregates the resulting reports into per-syscall
//!   rollups (apps using / requiring / able to stub or fake each call,
//!   ranked by `loupe_plan::api_importance`);
//! * [`plans`] replays the Table 1 support plan of every curated OS on
//!   a restricted kernel (`loupe_kernel::RestrictedKernel`) and persists
//!   the per-step verdicts — turning predicted plans into validated
//!   ones;
//! * [`gentests`] compiles every stored corpus into an executable
//!   conformance suite (`loupe_gentests`), persisted and self-validated
//!   against the matrix verdicts;
//! * [`report`] renders the database as kerla-style Markdown: a
//!   fleet-wide `COMPATIBILITY.md` support matrix, a `SUPPORT_PLANS.md`
//!   per-OS plan book with validation verdicts, plus per-app pages,
//!   with a drift check for CI.
//!
//! # Examples
//!
//! ```
//! use loupe_apps::{registry, Workload};
//! use loupe_db::Database;
//! use loupe_sweep::{Sweep, SweepConfig};
//!
//! let dir = std::env::temp_dir().join(format!("loupe-sweep-doc-{}", std::process::id()));
//! # std::fs::remove_dir_all(&dir).ok();
//! let db = Database::open(&dir).unwrap();
//! let sweep = Sweep::new(SweepConfig {
//!     workloads: vec![Workload::HealthCheck],
//!     ..SweepConfig::default()
//! });
//! let summary = sweep.run(&db, registry::detailed()).unwrap();
//! assert_eq!(summary.reports(&db).unwrap().len(), 12);
//! // A second sweep over the same fleet is pure cache hits.
//! let again = sweep.run(&db, registry::detailed()).unwrap();
//! assert_eq!(again.cached, 12);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod gentests;
pub mod matrix;
pub mod plans;
pub(crate) mod pool;
pub(crate) mod rendered;
pub mod report;
pub(crate) mod stage;
pub mod statics;

pub use gentests::{
    sweep_gentests, Disagreement, GentestsConfig, GentestsSummary, SuiteSliceStats,
};
pub use matrix::{sweep_matrix, MatrixConfig, MatrixSummary, OsWorkloadStats};
pub use plans::{validate_curated_plans, validate_plans, PlanSweepError};
pub use statics::{
    compare, compare_output, render_compare, sweep_static, sweep_static_levels, AppComparison,
    CompareError, Comparison, LevelStats, PlanDelta, StaticSweepSummary, WitnessExample,
};

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use loupe_apps::{AppModel, Workload};
use loupe_core::{
    fingerprint_of, transfer_hints, AnalysisConfig, AppReport, Engine, FeatureClass, Fingerprint,
    RunStats,
};
use loupe_db::{store, ArtifactRecord, CacheStats, Database, DbError, Namespace};
use loupe_plan::{api_importance, AppRequirement, ImportancePoint, OsSpec};
use loupe_syscalls::{Category, Sysno};
use stage::{Failed, Outcome, Stage};

/// Fingerprint of the analysis configuration *as a measurement input*:
/// scheduling-only knobs (probe-scheduler jobs, replica parallelism) are
/// normalised out because every worker count produces byte-identical
/// reports — changing parallelism must never invalidate stored results.
pub fn analysis_fingerprint(cfg: &AnalysisConfig) -> Fingerprint {
    let mut canonical = cfg.clone();
    canonical.jobs = 0;
    canonical.parallel = false;
    fingerprint_of(&canonical)
}

/// Input fingerprints of one baseline measurement, keyed by role — what
/// the manifest compares to decide whether a stored baseline is current.
/// Shared by the sweep driver and the CLI's single-app `analyze` path so
/// both record identical provenance.
pub fn baseline_inputs(
    app: &dyn AppModel,
    workload: Workload,
    analysis: &AnalysisConfig,
) -> BTreeMap<String, Fingerprint> {
    let mut inputs = BTreeMap::new();
    inputs.insert("app".to_owned(), fingerprint_of(&(app.spec(), app.code())));
    inputs.insert("workload".to_owned(), fingerprint_of(&workload));
    inputs.insert("config".to_owned(), analysis_fingerprint(analysis));
    inputs
}

/// Input fingerprints of one plan validation, a deterministic replay of
/// the plan generated for `os` from a requirement list (`reqs`, its
/// `fingerprint_of`). Shared by the plan stage and `plan --validate`.
pub fn plan_inputs(os: &OsSpec, reqs: Fingerprint) -> BTreeMap<String, Fingerprint> {
    let mut inputs = BTreeMap::new();
    inputs.insert("os".to_owned(), fingerprint_of(os));
    inputs.insert("requirements".to_owned(), reqs);
    inputs
}

/// Cross-application knowledge transfer (§6 future work): the sweep
/// measures a seed subset of the fleet in full, builds conservative
/// per-workload hints from the seed reports, and analyses the remaining
/// apps with the hinted engine — skipping the stub/fake runs of syscalls
/// the whole seed agrees on. Each hinted app's confirmation run still
/// validates the transferred conclusions end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferConfig {
    /// A syscall is hinted only when at least this many seed reports
    /// traced it and all of them agree on its classification.
    pub min_agreement: usize,
    /// Number of leading apps measured in full as the seed.
    pub seed: usize,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            min_agreement: 3,
            seed: 8,
        }
    }
}

/// Configuration of a fleet sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Workloads to measure for every app.
    pub workloads: Vec<Workload>,
    /// Worker threads; `0` picks `min(available_parallelism, 16)`.
    pub workers: usize,
    /// Engine configuration used for fresh measurements.
    pub analysis: AnalysisConfig,
    /// Re-measure entries that are already in the database (the new
    /// measurement merges conservatively with the stored one).
    pub force: bool,
    /// Two-pass hint transfer; `None` measures every app in full.
    pub transfer: Option<TransferConfig>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            workloads: vec![Workload::Benchmark],
            workers: 0,
            analysis: AnalysisConfig::fast(),
            force: false,
            transfer: None,
        }
    }
}

/// One failed measurement within an otherwise successful sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepFailure {
    /// Application name.
    pub app: String,
    /// Workload that failed.
    pub workload: Workload,
    /// Engine error text (e.g. a baseline failure).
    pub error: String,
}

/// One `(app, workload)` measurement a sweep answered, as the database
/// stores it: where it lives and its manifest record. Later stages key
/// their cells on the record's fingerprints and load the report only
/// to derive something from it.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Application name.
    pub app: String,
    /// Workload measured.
    pub workload: Workload,
    /// Baselines, or `env` for a restricted-environment report.
    namespace: &'static Namespace<AppReport>,
    /// The report's key in `namespace`.
    key: String,
    /// Its manifest record: `output` is the fingerprint of the stored
    /// report, and a committed baseline's meta holds the fingerprints
    /// of its requirement and feature map.
    pub record: ArtifactRecord,
}

impl Measurement {
    /// The measurement stored in `namespace` under `key`, by its
    /// record.
    fn recorded(
        db: &Database,
        namespace: &'static Namespace<AppReport>,
        key: String,
        app: &str,
        workload: Workload,
    ) -> Result<Measurement, DbError> {
        let record = db
            .record(namespace.layout.name, &key)
            .ok_or_else(|| not_stored(db, namespace, &key))?;
        Ok(Measurement {
            app: app.to_owned(),
            workload,
            namespace,
            key,
            record,
        })
    }

    /// Loads the stored report. The gate answered from the manifest, so
    /// a file deleted out of band only shows here.
    ///
    /// # Errors
    ///
    /// I/O failures, corrupt entries, and a report that is no longer
    /// stored.
    pub fn load(&self, db: &Database) -> Result<AppReport, DbError> {
        db.get(self.namespace, &self.key)?
            .ok_or_else(|| not_stored(db, self.namespace, &self.key))
    }

    /// The matrix inputs taken from the report: the fingerprints of its
    /// requirement and of its baseline feature map. A committed baseline
    /// records both in its meta; anything else (a restricted-environment
    /// report) is loaded to compute them.
    fn matrix_inputs(&self, db: &Database) -> Result<[Fingerprint; 2], DbError> {
        let meta = |key| {
            self.record
                .meta
                .get(key)
                .and_then(|h| Fingerprint::from_hex(h))
        };
        if let (Some(req), Some(features)) =
            (meta(store::REQUIREMENT_META), meta(store::FEATURES_META))
        {
            return Ok([req, features]);
        }
        let report = self.load(db)?;
        Ok([
            fingerprint_of(&AppRequirement::from_report(&report)),
            fingerprint_of(&report.baseline.features),
        ])
    }
}

fn not_stored<T>(db: &Database, ns: &Namespace<T>, key: &str) -> DbError {
    DbError::Corrupt {
        path: db.root().join(ns.layout.path(key)),
        message: "in the manifest but not stored; run `loupe cache invalidate`".to_owned(),
    }
}

/// What the derives of a stage compute from each measurement's stored
/// report, computed by the first derive that needs it and shared by the
/// rest (a report feeds one cell per OS).
pub(crate) struct PerMeasurement<T> {
    slots: Vec<OnceLock<Arc<T>>>,
}

impl<T> PerMeasurement<T> {
    pub fn new(measurements: &[Measurement]) -> Self {
        PerMeasurement {
            slots: measurements.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// The value for measurement `i`, from `make` on first use.
    pub fn get(
        &self,
        i: usize,
        make: impl FnOnce() -> Result<T, DbError>,
    ) -> Result<Arc<T>, DbError> {
        if let Some(value) = self.slots[i].get() {
            return Ok(Arc::clone(value));
        }
        let value = Arc::new(make()?);
        Ok(Arc::clone(self.slots[i].get_or_init(|| value)))
    }
}

/// The outcome of a sweep.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Entries measured fresh in this sweep.
    pub analyzed: usize,
    /// Entries served from the database without re-running the engine.
    pub cached: usize,
    /// Apps whose baseline failed (not persisted).
    pub failures: Vec<SweepFailure>,
    /// Every (app, workload) measurement answered, deterministically
    /// ordered by `(app, workload label)`.
    pub measurements: Vec<Measurement>,
    /// Engine-run accounting summed over this sweep's fresh measurements
    /// — `transfer_skips`/`saved_runs` quantify what hint transfer saved.
    pub runs: RunStats,
    /// The fleet × OS matrix section: populated by
    /// [`matrix::sweep_matrix`], `None` for a plain baseline sweep.
    pub matrix: Option<MatrixSummary>,
    /// Cache hit/miss/stale counters accumulated on the database this
    /// session (all stages sharing the `Database` handle contribute).
    pub cache: CacheStats,
}

impl SweepSummary {
    /// Every (app, workload) report, as stored in the database, in the
    /// order of [`measurements`](Self::measurements), loaded now.
    ///
    /// # Errors
    ///
    /// I/O failures, corrupt entries, and a report that is no longer
    /// stored.
    pub fn reports(&self, db: &Database) -> Result<Vec<AppReport>, DbError> {
        self.measurements.iter().map(|m| m.load(db)).collect()
    }
}

/// A baseline job's measurement, with the engine runs it cost when it
/// was measured in this sweep, or its failure.
type Measured = Result<(Measurement, Option<RunStats>), SweepFailure>;

/// Per-workload transfer hints.
type Hints = BTreeMap<Workload, BTreeMap<Sysno, FeatureClass>>;

/// The concurrent fleet-sweep driver.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    cfg: SweepConfig,
}

impl Sweep {
    /// Creates a driver with the given configuration.
    pub fn new(cfg: SweepConfig) -> Sweep {
        Sweep { cfg }
    }

    /// Runs the sweep over `apps` × `config.workloads`, persisting every
    /// successful measurement into `db` as soon as it completes.
    ///
    /// Results are deterministic: the same fleet, workloads and starting
    /// database produce the same `reports` (and therefore byte-identical
    /// rendered matrices) regardless of worker count or scheduling.
    ///
    /// # Errors
    ///
    /// Database I/O and corruption errors. Per-app *engine* failures do
    /// not abort the sweep; they are collected in
    /// [`SweepSummary::failures`].
    pub fn run(
        &self,
        db: &Database,
        mut apps: Vec<Box<dyn AppModel>>,
    ) -> Result<SweepSummary, DbError> {
        // Drop duplicate app names: two jobs for the same (app, workload)
        // would race on one database file (save is load-merge-write).
        let mut seen = std::collections::BTreeSet::new();
        apps.retain(|app| seen.insert(app.name().to_owned()));

        let jobs_for = |range: std::ops::Range<usize>| -> Vec<(usize, Workload)> {
            range
                .flat_map(|a| self.cfg.workloads.iter().map(move |&w| (a, w)))
                .collect()
        };

        let outcomes = match self.cfg.transfer {
            // An empty fleet (e.g. an out-of-range shard) sweeps to an
            // empty summary on both paths; the seed clamp below needs a
            // non-empty app list.
            None | Some(_) if apps.is_empty() => Vec::new(),
            None => self.run_pass(db, &apps, &jobs_for(0..apps.len()), None)?,
            Some(transfer) => {
                // Pass 1: measure the seed subset in full.
                let seed = transfer.seed.clamp(1, apps.len());
                let mut outcomes = self.run_pass(db, &apps, &jobs_for(0..seed), None)?;
                // Pass 2: the rest of the fleet rides on hints from the
                // seed reports (cached seed entries teach too — they are
                // stored full measurements of the same fleet).
                let teachers: Vec<Measurement> =
                    outcomes.iter().flatten().map(|(m, _)| m.clone()).collect();
                let rest = jobs_for(seed..apps.len());
                outcomes.extend(self.run_pass(db, &apps, &rest, Some((&teachers, transfer)))?);
                outcomes
            }
        };

        let mut summary = SweepSummary {
            analyzed: 0,
            cached: 0,
            failures: Vec::new(),
            measurements: Vec::new(),
            runs: RunStats::default(),
            matrix: None,
            cache: CacheStats::default(),
        };
        for outcome in outcomes {
            match outcome {
                Ok((m, Some(runs))) => {
                    summary.analyzed += 1;
                    summary.runs.absorb(&runs);
                    summary.measurements.push(m);
                }
                Ok((m, None)) => {
                    summary.cached += 1;
                    summary.measurements.push(m);
                }
                Err(f) => summary.failures.push(f),
            }
        }
        summary
            .measurements
            .sort_by(|a, b| (&a.app, a.workload.label()).cmp(&(&b.app, b.workload.label())));
        summary
            .failures
            .sort_by_key(|f| (f.app.clone(), f.workload.label()));
        summary.cache = db.session_cache_stats();
        Ok(summary)
    }

    /// Conservative per-workload hints from the `teachers`' stored
    /// reports.
    fn hints(
        &self,
        db: &Database,
        teachers: &[Measurement],
        transfer: TransferConfig,
    ) -> Result<Hints, DbError> {
        let mut hints = Hints::new();
        for &workload in &self.cfg.workloads {
            let reports = teachers
                .iter()
                .filter(|m| m.workload == workload)
                .map(|m| m.load(db))
                .collect::<Result<Vec<_>, _>>()?;
            let mut workload_hints = transfer_hints(&reports, transfer.min_agreement);
            // Only *avoidable* classes transfer: the combined
            // confirmation run exercises them, and the engine's
            // bisection revokes (re-measures) a wrong one. A
            // transferred "required" class is never interposed,
            // so a wrong one — an app whose `read` is fakeable
            // while the whole seed requires it — would silently
            // survive and change the final classification.
            workload_hints.retain(|_, class| class.is_avoidable());
            hints.insert(workload, workload_hints);
        }
        Ok(hints)
    }

    /// Runs one pass of baseline jobs through the cache gate, returning
    /// one [`Measured`] per job in job order. A hit is answered by its
    /// manifest record and reads nothing; a stale or missing entry is
    /// measured and committed, with hints from `teachers` when given
    /// (built, from their stored reports, by the first measurement that
    /// needs them). A job whose app model *panics* becomes a per-app
    /// [`SweepFailure`] naming the app.
    fn run_pass(
        &self,
        db: &Database,
        apps: &[Box<dyn AppModel>],
        jobs: &[(usize, Workload)],
        teachers: Option<(&[Measurement], TransferConfig)>,
    ) -> Result<Vec<Measured>, DbError> {
        let jobs: Vec<stage::Job<(usize, Workload)>> = jobs
            .iter()
            .map(|&(a, workload)| stage::Job {
                key: loupe_db::baseline_key(apps[a].name(), workload),
                inputs: baseline_inputs(apps[a].as_ref(), workload, &self.cfg.analysis),
                item: (a, workload),
            })
            .collect();
        let stage = Stage::new(db, &store::BASELINES, self.cfg.workers, self.cfg.force);
        let (no_hints, built) = (Hints::new(), OnceLock::new());
        let outcomes = stage.run(
            &jobs,
            |rec| Some(rec.clone()),
            |job, why| {
                let (a, workload) = job.item;
                let hints = match (teachers, built.get()) {
                    (None, _) => &no_hints,
                    (Some(_), Some(hints)) => hints,
                    (Some((teachers, transfer)), None) => {
                        let hints = self.hints(db, teachers, transfer)?;
                        built.get_or_init(|| hints)
                    }
                };
                let engine = Engine::new(self.cfg.analysis.clone());
                let empty = BTreeMap::new();
                let workload_hints = hints.get(&workload).unwrap_or(&empty);
                let report = engine
                    .analyze_with_hints(apps[a].as_ref(), workload, workload_hints)
                    .map_err(|e| Failed::Job(e.to_string()))?;
                if report.is_linux_baseline() {
                    stage.commit(job, why, &report, BTreeMap::new())?;
                    return Ok((&store::BASELINES, job.key.clone(), report.stats));
                }
                // A restricted-environment measurement is stored beside
                // the baselines, never as one (and carries no
                // provenance: it never answers a baseline job).
                db.put(&store::ENV, &report)?;
                let key = loupe_db::env_key(&report.env, &report.app, workload);
                Ok((&store::ENV, key, report.stats))
            },
        );
        outcomes
            .into_iter()
            .zip(&jobs)
            .map(|(outcome, job)| {
                let (a, workload) = job.item;
                let app = apps[a].name();
                Ok(match outcome {
                    Ok(Outcome::Hit(record)) => Ok((
                        Measurement {
                            app: app.to_owned(),
                            workload,
                            namespace: &store::BASELINES,
                            key: job.key.clone(),
                            record,
                        },
                        None,
                    )),
                    // The record describes what the database now holds (a
                    // forced re-measure merged with the stored entry), so
                    // summaries match later reads.
                    Ok(Outcome::Derived((ns, key, runs))) => Ok((
                        Measurement::recorded(db, ns, key, app, workload)?,
                        Some(runs),
                    )),
                    Err(failed) => Err(failed.into_failure(app, workload, "app model")?),
                })
            })
            .collect()
    }
}

/// Per-syscall aggregate over one workload's fleet reports: one row of
/// the compatibility matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SyscallRow {
    /// The system call.
    pub sysno: Sysno,
    /// Its broad category.
    pub category: Category,
    /// Apps whose workload traced it.
    pub apps_using: usize,
    /// Apps for which it must be implemented.
    pub apps_requiring: usize,
    /// Apps for which stubbing (`-ENOSYS`) passes.
    pub apps_stubbable: usize,
    /// Apps for which faking success passes.
    pub apps_fakeable: usize,
    /// Fraction of the fleet requiring it (the Fig. 3 importance).
    pub importance: f64,
}

impl SyscallRow {
    /// The cheapest support strategy that satisfies every app using this
    /// syscall: `implement` when anyone requires it; otherwise `stub` or
    /// `fake` when that single action works for every user; otherwise
    /// `stub or fake` (pick per app).
    pub fn advice(&self) -> &'static str {
        if self.apps_requiring > 0 {
            "implement"
        } else if self.apps_stubbable == self.apps_using {
            "stub"
        } else if self.apps_fakeable == self.apps_using {
            "fake"
        } else {
            "stub or fake"
        }
    }
}

/// Fleet-wide aggregate statistics for one workload.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// The workload aggregated.
    pub workload: Workload,
    /// Number of reports aggregated.
    pub apps: usize,
    /// Matrix rows, most-important first (required-by desc, then used-by
    /// desc, then syscall number).
    pub rows: Vec<SyscallRow>,
    /// The ranked importance curve over *required* sets (Fig. 3).
    pub importance: Vec<ImportancePoint>,
    /// Planner requirements, one per app (support-plan input).
    pub requirements: Vec<AppRequirement>,
}

impl FleetStats {
    /// Aggregates reports (all of one workload) into matrix rows.
    pub fn aggregate(workload: Workload, reports: &[AppReport]) -> FleetStats {
        use std::collections::BTreeMap;

        #[derive(Default)]
        struct Acc {
            using: usize,
            required: usize,
            stubbable: usize,
            fakeable: usize,
        }

        let mut acc: BTreeMap<Sysno, Acc> = BTreeMap::new();
        for report in reports {
            for &s in report.traced.keys() {
                acc.entry(s).or_default().using += 1;
            }
            for (&s, class) in &report.classes {
                let a = acc.entry(s).or_default();
                if class.is_required() {
                    a.required += 1;
                }
                if class.stub_ok {
                    a.stubbable += 1;
                }
                if class.fake_ok {
                    a.fakeable += 1;
                }
            }
        }

        let apps = reports.len();
        let total = apps.max(1) as f64;
        let mut rows: Vec<SyscallRow> = acc
            .into_iter()
            .map(|(sysno, a)| SyscallRow {
                sysno,
                category: Category::of(sysno),
                apps_using: a.using,
                apps_requiring: a.required,
                apps_stubbable: a.stubbable,
                apps_fakeable: a.fakeable,
                importance: a.required as f64 / total,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.apps_requiring
                .cmp(&a.apps_requiring)
                .then(b.apps_using.cmp(&a.apps_using))
                .then(a.sysno.cmp(&b.sysno))
        });

        let required_sets: Vec<_> = reports.iter().map(AppReport::required).collect();
        FleetStats {
            workload,
            apps,
            importance: api_importance(&required_sets),
            requirements: reports.iter().map(AppRequirement::from_report).collect(),
            rows,
        }
    }

    /// Syscalls required by at least one app.
    pub fn required_anywhere(&self) -> usize {
        self.rows.iter().filter(|r| r.apps_requiring > 0).count()
    }

    /// Syscalls traced somewhere but avoidable everywhere.
    pub fn avoidable_everywhere(&self) -> usize {
        self.rows.len() - self.required_anywhere()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loupe_apps::registry;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("loupe-sweep-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn health_sweep(workers: usize) -> Sweep {
        Sweep::new(SweepConfig {
            workloads: vec![Workload::HealthCheck],
            workers,
            ..SweepConfig::default()
        })
    }

    #[test]
    fn sweep_persists_and_caches() {
        let dir = tmpdir("cache");
        let db = Database::open(&dir).unwrap();
        let apps: Vec<_> = registry::detailed().into_iter().take(4).collect();
        let names: Vec<String> = apps.iter().map(|a| a.name().to_owned()).collect();

        let first = health_sweep(2).run(&db, apps).unwrap();
        assert_eq!(first.analyzed, 4);
        assert_eq!(first.cached, 0);
        assert!(first.failures.is_empty());
        for n in &names {
            let key = loupe_db::baseline_key(n, Workload::HealthCheck);
            assert!(db.contains(&store::BASELINES, &key), "{n} persisted");
            assert!(db.get(&store::BASELINES, &key).unwrap().is_some());
        }
        let ghost = loupe_db::baseline_key("ghost", Workload::HealthCheck);
        assert!(!db.contains(&store::BASELINES, &ghost));

        let apps: Vec<_> = registry::detailed().into_iter().take(4).collect();
        let second = health_sweep(2).run(&db, apps).unwrap();
        assert_eq!(second.analyzed, 0, "second sweep is pure cache hits");
        assert_eq!(second.cached, 4);
        assert_eq!(first.reports(&db).unwrap(), second.reports(&db).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        let dir_a = tmpdir("det-a");
        let dir_b = tmpdir("det-b");
        let db_a = Database::open(&dir_a).unwrap();
        let db_b = Database::open(&dir_b).unwrap();
        let apps = || -> Vec<_> { registry::detailed().into_iter().take(6).collect() };

        let serial = health_sweep(1).run(&db_a, apps()).unwrap();
        let parallel = health_sweep(6).run(&db_b, apps()).unwrap();
        assert_eq!(
            serial.reports(&db_a).unwrap(),
            parallel.reports(&db_b).unwrap()
        );
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn forced_resweep_merges_instead_of_overwriting() {
        let dir = tmpdir("force");
        let db = Database::open(&dir).unwrap();
        let apps = || -> Vec<_> { registry::detailed().into_iter().take(1).collect() };
        let first = health_sweep(1).run(&db, apps()).unwrap();
        // Loaded now: after the forced sweep the store holds the merge.
        let first = first.reports(&db).unwrap();
        let forced = Sweep::new(SweepConfig {
            workloads: vec![Workload::HealthCheck],
            workers: 1,
            force: true,
            ..SweepConfig::default()
        })
        .run(&db, apps())
        .unwrap();
        assert_eq!(forced.analyzed, 1);
        // Traced counts accumulate under the conservative merge.
        let s = *first[0].traced.keys().next().unwrap();
        let merged = forced.reports(&db).unwrap();
        assert_eq!(merged[0].traced[&s], first[0].traced[&s] * 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An app model whose `run` panics — the regression fixture for the
    /// pool's panic isolation.
    struct PanickingApp;

    impl loupe_apps::AppModel for PanickingApp {
        fn name(&self) -> &str {
            "panicking-app"
        }

        fn spec(&self) -> loupe_apps::AppSpec {
            loupe_apps::AppSpec {
                name: "panicking-app".into(),
                version: "0".into(),
                year: 2024,
                port: None,
                kind: loupe_apps::AppKind::Utility,
                libc: loupe_apps::libc::LibcFlavor::MuslStatic,
            }
        }

        fn run(
            &self,
            _env: &mut loupe_apps::Env<'_>,
            _workload: Workload,
        ) -> Result<(), loupe_apps::Exit> {
            panic!("deliberate model bug");
        }

        fn code(&self) -> loupe_apps::AppCode {
            loupe_apps::AppCode::new()
        }
    }

    #[test]
    fn a_panicking_model_fails_its_app_not_the_sweep() {
        let dir = tmpdir("panic");
        let db = Database::open(&dir).unwrap();
        let mut apps: Vec<Box<dyn AppModel>> = vec![Box::new(PanickingApp)];
        apps.extend(registry::detailed().into_iter().take(3));

        let summary = health_sweep(2).run(&db, apps).unwrap();
        assert_eq!(summary.analyzed, 3, "healthy apps still measured");
        assert_eq!(summary.failures.len(), 1);
        let failure = &summary.failures[0];
        assert_eq!(failure.app, "panicking-app", "failure names the app");
        assert!(
            failure.error.contains("deliberate model bug"),
            "panic message surfaced: {}",
            failure.error
        );
        assert!(
            !db.contains(
                &store::BASELINES,
                &loupe_db::baseline_key("panicking-app", Workload::HealthCheck)
            ),
            "nothing persisted for the panicked app"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restricted_env_report_is_not_served_as_a_cached_baseline() {
        // Regression for the (app, workload)-only cache key: a report
        // measured under ExecEnv::Restricted stored in the same database
        // must not satisfy the sweep's skip-if-cached check (nor
        // `cmd_plan`'s identical `Database::load`) for the Linux
        // baseline of the same (app, workload).
        use loupe_kernel::KernelProfile;
        use loupe_syscalls::SysnoSet;

        let dir = tmpdir("env-cache");
        let db = Database::open(&dir).unwrap();
        let app = || -> Vec<_> { registry::detailed().into_iter().take(1).collect() };
        let name = app()[0].name().to_owned();

        // Measure once on a restricted kernel exposing the full surface
        // (so the baseline passes) and persist the report.
        let full: SysnoSet = loupe_syscalls::Sysno::all().collect();
        let restricted = Sweep::new(SweepConfig {
            workloads: vec![Workload::HealthCheck],
            workers: 1,
            analysis: AnalysisConfig {
                exec_env: loupe_core::ExecEnv::Restricted(Box::new(KernelProfile::new(
                    "mid-plan", full,
                ))),
                ..AnalysisConfig::fast()
            },
            ..SweepConfig::default()
        })
        .run(&db, app())
        .unwrap();
        assert_eq!(restricted.analyzed, 1);
        assert_eq!(restricted.reports(&db).unwrap()[0].env, "mid-plan");

        // A Linux sweep over the same (app, workload) must re-measure:
        // the restricted entry is not a Linux baseline.
        let linux = health_sweep(1).run(&db, app()).unwrap();
        assert_eq!(
            linux.analyzed, 1,
            "restricted-env entry must not be a cache hit"
        );
        assert_eq!(linux.cached, 0);
        assert_eq!(linux.reports(&db).unwrap()[0].env, "linux");
        // Both measurements coexist under their own namespaces.
        assert!(db
            .get(
                &store::BASELINES,
                &loupe_db::baseline_key(&name, Workload::HealthCheck)
            )
            .unwrap()
            .is_some());
        assert!(db
            .get(
                &store::ENV,
                &loupe_db::env_key("mid-plan", &name, Workload::HealthCheck)
            )
            .unwrap()
            .is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transfer_sweep_with_empty_fleet_is_empty() {
        // An out-of-range shard yields zero apps; the transfer path must
        // return an empty summary like the plain path, not panic on the
        // seed clamp.
        let dir = tmpdir("transfer-empty");
        let db = Database::open(&dir).unwrap();
        let summary = Sweep::new(SweepConfig {
            workloads: vec![Workload::HealthCheck],
            transfer: Some(TransferConfig::default()),
            ..SweepConfig::default()
        })
        .run(&db, Vec::new())
        .unwrap();
        assert!(summary.measurements.is_empty());
        assert_eq!(summary.analyzed + summary.cached, 0);
        assert!(summary.failures.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transfer_sweep_preserves_classes_and_saves_runs() {
        // The §6 two-pass mode must be an *optimisation*, never a result
        // change: hinted analyses produce the same classes, conflicts and
        // confirmation as full measurement, while skipping runs.
        let dir_full = tmpdir("transfer-full");
        let dir_hint = tmpdir("transfer-hint");
        let db_full = Database::open(&dir_full).unwrap();
        let db_hint = Database::open(&dir_hint).unwrap();

        let full = health_sweep(0).run(&db_full, registry::dataset()).unwrap();
        // The hinted sweep also runs the per-app probe scheduler in
        // parallel (`jobs > 1`) — neither axis may change results.
        let hinted = Sweep::new(SweepConfig {
            workloads: vec![Workload::HealthCheck],
            transfer: Some(TransferConfig::default()),
            analysis: AnalysisConfig {
                jobs: 4,
                ..AnalysisConfig::fast()
            },
            ..SweepConfig::default()
        })
        .run(&db_hint, registry::dataset())
        .unwrap();

        let (full_reports, hinted_reports) = (
            full.reports(&db_full).unwrap(),
            hinted.reports(&db_hint).unwrap(),
        );
        assert_eq!(full_reports.len(), hinted_reports.len());
        for (f, h) in full_reports.iter().zip(&hinted_reports) {
            assert_eq!(f.app, h.app);
            assert_eq!(f.classes, h.classes, "classes drifted for {}", f.app);
            assert_eq!(f.conflicts, h.conflicts, "conflicts drifted for {}", f.app);
            assert_eq!(
                f.confirmed, h.confirmed,
                "confirmation drifted for {}",
                f.app
            );
        }
        assert!(hinted.runs.transfer_skips > 0, "{:?}", hinted.runs);
        assert_eq!(
            hinted.runs.saved_runs,
            2 * hinted.runs.transfer_skips * u64::from(hinted.runs.replicas)
        );
        assert!(
            hinted.runs.feature_runs < full.runs.feature_runs,
            "hinted {} !< full {}",
            hinted.runs.feature_runs,
            full.runs.feature_runs
        );
        std::fs::remove_dir_all(&dir_full).ok();
        std::fs::remove_dir_all(&dir_hint).ok();
    }

    #[test]
    fn aggregate_counts_are_consistent() {
        let dir = tmpdir("agg");
        let db = Database::open(&dir).unwrap();
        let summary = health_sweep(0).run(&db, registry::detailed()).unwrap();
        let stats = FleetStats::aggregate(Workload::HealthCheck, &summary.reports(&db).unwrap());
        assert_eq!(stats.apps, 12);
        assert!(!stats.rows.is_empty());
        for row in &stats.rows {
            assert!(row.apps_using <= stats.apps);
            assert!(row.apps_requiring <= row.apps_using);
            // A syscall cannot be both required and (stub|fake)-able for
            // the same app, so the counts partition the users.
            assert!(row.apps_requiring + row.apps_stubbable <= row.apps_using);
        }
        assert_eq!(
            stats.required_anywhere() + stats.avoidable_everywhere(),
            stats.rows.len()
        );
        // The paper's core claim at fleet scale: far fewer syscalls are
        // required than traced.
        assert!(stats.required_anywhere() < stats.rows.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}
