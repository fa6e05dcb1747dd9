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
//! assert_eq!(summary.reports.len(), 12);
//! // A second sweep over the same fleet is pure cache hits.
//! let again = sweep.run(&db, registry::detailed()).unwrap();
//! assert_eq!(again.cached, 12);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod gentests;
pub mod matrix;
pub mod plans;
pub(crate) mod pool;
pub mod report;
pub mod statics;

pub use gentests::{
    sweep_gentests, Disagreement, GentestsConfig, GentestsSummary, SuiteSliceStats,
};
pub use matrix::{sweep_matrix, MatrixConfig, MatrixSummary, OsWorkloadStats};
pub use plans::{validate_curated_plans, validate_plans, PlanSweepError};
pub use statics::{
    compare, sweep_static, sweep_static_levels, AppComparison, CompareError, Comparison,
    LevelStats, PlanDelta, StaticSweepSummary, WitnessExample,
};

use std::collections::BTreeMap;

use loupe_apps::{AppModel, Workload};
use loupe_core::{
    fingerprint_of, transfer_hints, AnalysisConfig, AppReport, Engine, FeatureClass, Fingerprint,
    RunStats,
};
use loupe_db::{ns, store, CacheStats, Database, DbError};
use loupe_plan::{api_importance, AppRequirement, ImportancePoint};
use loupe_syscalls::{Category, Sysno};

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

/// The outcome of a sweep.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Entries measured fresh in this sweep.
    pub analyzed: usize,
    /// Entries served from the database without re-running the engine.
    pub cached: usize,
    /// Apps whose baseline failed (not persisted).
    pub failures: Vec<SweepFailure>,
    /// Every (app, workload) report, as stored in the database,
    /// deterministically ordered by `(app, workload label)`.
    pub reports: Vec<AppReport>,
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

enum JobOutcome {
    Fresh(AppReport),
    Cached(AppReport),
    Failed(SweepFailure),
    Db(DbError),
}

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

    /// The active configuration.
    pub fn config(&self) -> &SweepConfig {
        &self.cfg
    }

    /// Effective worker count for `jobs` queued jobs.
    pub(crate) fn worker_count(&self, jobs: usize) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(16);
        let chosen = if self.cfg.workers == 0 {
            auto
        } else {
            self.cfg.workers
        };
        chosen.clamp(1, jobs.max(1))
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

        // Warm the namespace snapshots up front so the per-job cache
        // checks are memory lookups. Best-effort: a failure here only
        // means jobs fall back to per-file reads.
        if !apps.is_empty() {
            let _ = db.preload();
        }

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
            None => self.run_pass(db, &apps, &jobs_for(0..apps.len()), &BTreeMap::new()),
            Some(transfer) => {
                // Pass 1: measure the seed subset in full.
                let seed = transfer.seed.clamp(1, apps.len());
                let mut outcomes = self.run_pass(db, &apps, &jobs_for(0..seed), &BTreeMap::new());
                // Conservative per-workload hints from the seed reports
                // (cached seed entries teach too — they are stored
                // full measurements of the same fleet).
                let mut hints: BTreeMap<Workload, BTreeMap<Sysno, FeatureClass>> = BTreeMap::new();
                for &workload in &self.cfg.workloads {
                    let teachers: Vec<AppReport> = outcomes
                        .iter()
                        .filter_map(|o| match o {
                            JobOutcome::Fresh(r) | JobOutcome::Cached(r)
                                if r.workload == workload =>
                            {
                                Some(r.clone())
                            }
                            _ => None,
                        })
                        .collect();
                    let mut workload_hints = transfer_hints(&teachers, transfer.min_agreement);
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
                // Pass 2: the rest of the fleet rides on the hints.
                outcomes.extend(self.run_pass(db, &apps, &jobs_for(seed..apps.len()), &hints));
                outcomes
            }
        };

        let mut summary = SweepSummary {
            analyzed: 0,
            cached: 0,
            failures: Vec::new(),
            reports: Vec::new(),
            runs: RunStats::default(),
            matrix: None,
            cache: CacheStats::default(),
        };
        for outcome in outcomes {
            match outcome {
                JobOutcome::Fresh(r) => {
                    summary.analyzed += 1;
                    summary.runs.absorb(&r.stats);
                    summary.reports.push(r);
                }
                JobOutcome::Cached(r) => {
                    summary.cached += 1;
                    summary.reports.push(r);
                }
                JobOutcome::Failed(f) => summary.failures.push(f),
                JobOutcome::Db(e) => return Err(e),
            }
        }
        summary.reports.sort_by(|a, b| {
            (a.app.as_str(), a.workload.label()).cmp(&(b.app.as_str(), b.workload.label()))
        });
        summary.failures.sort_by(|a, b| {
            (a.app.as_str(), a.workload.label()).cmp(&(b.app.as_str(), b.workload.label()))
        });
        summary.cache = db.session_cache_stats();
        Ok(summary)
    }

    /// Runs one scheduling pass over `jobs` on the bounded worker pool.
    /// Each job's outcome lands in the slot of its job index, so the
    /// returned order never depends on worker scheduling. A job whose
    /// app model *panics* becomes a per-app [`SweepFailure`] naming the
    /// app, instead of poisoning the pool and killing the whole sweep.
    fn run_pass(
        &self,
        db: &Database,
        apps: &[Box<dyn AppModel>],
        jobs: &[(usize, Workload)],
        hints: &BTreeMap<Workload, BTreeMap<Sysno, FeatureClass>>,
    ) -> Vec<JobOutcome> {
        let workers = self.worker_count(jobs.len());
        pool::run_jobs(workers, jobs, |&(app_idx, workload)| {
            let engine = Engine::new(self.cfg.analysis.clone());
            self.run_job(db, &engine, apps[app_idx].as_ref(), workload, hints)
        })
        .into_iter()
        .zip(jobs)
        .map(|(outcome, &(app_idx, workload))| match outcome {
            Ok(o) => o,
            Err(panic) => JobOutcome::Failed(SweepFailure {
                app: apps[app_idx].name().to_owned(),
                workload,
                error: format!("app model panicked: {panic}"),
            }),
        })
        .collect()
    }

    fn run_job(
        &self,
        db: &Database,
        engine: &Engine,
        app: &dyn AppModel,
        workload: Workload,
        hints: &BTreeMap<Workload, BTreeMap<Sysno, FeatureClass>>,
    ) -> JobOutcome {
        let key = loupe_db::baseline_key(app.name(), workload);
        let inputs = baseline_inputs(app, workload, &self.cfg.analysis);
        // Current = the stored entry's recorded input fingerprints match
        // this job's. A stored entry with different (or unknown)
        // provenance is *stale*: it is re-measured and replaced, because
        // merging with content produced by other inputs would poison the
        // fresh measurement.
        let current = db.is_current(ns::BASELINES, &key, &inputs);
        let had_entry = match db.get(&store::BASELINES, &key) {
            Ok(Some(cached)) if current && !self.cfg.force => {
                db.note_hit(ns::BASELINES);
                return JobOutcome::Cached(cached);
            }
            Ok(existing) => existing.is_some(),
            Err(e) => return JobOutcome::Db(e),
        };
        let stale = had_entry && !current;
        if stale {
            db.note_stale(ns::BASELINES);
        } else {
            db.note_miss(ns::BASELINES);
        }
        let empty = BTreeMap::new();
        let workload_hints = hints.get(&workload).unwrap_or(&empty);
        let report = match engine.analyze_with_hints(app, workload, workload_hints) {
            Ok(r) => r,
            Err(e) => {
                return JobOutcome::Failed(SweepFailure {
                    app: app.name().to_owned(),
                    workload,
                    error: e.to_string(),
                })
            }
        };
        let namespace = store::reports(&report.env);
        let saved = if stale {
            db.put_replacing(namespace, &report)
        } else {
            db.put(namespace, &report)
        };
        if let Err(e) = saved {
            return JobOutcome::Db(e);
        }
        if report.is_linux_baseline() {
            db.record_provenance(ns::BASELINES, &key, inputs, BTreeMap::new());
        }
        if !had_entry || stale {
            // The database now holds exactly this report (fresh save or
            // replacement), so skip the re-read.
            return JobOutcome::Fresh(report);
        }
        // A forced re-measure merged conservatively with the stored entry;
        // report what the database now holds so summaries match later reads.
        match db.get(&store::BASELINES, &key) {
            Ok(Some(stored)) => JobOutcome::Fresh(stored),
            Ok(None) => JobOutcome::Fresh(report),
            Err(e) => JobOutcome::Db(e),
        }
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
        assert_eq!(first.reports, second.reports);
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
        assert_eq!(serial.reports, parallel.reports);
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn forced_resweep_merges_instead_of_overwriting() {
        let dir = tmpdir("force");
        let db = Database::open(&dir).unwrap();
        let apps = || -> Vec<_> { registry::detailed().into_iter().take(1).collect() };
        let first = health_sweep(1).run(&db, apps()).unwrap();
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
        let s = *first.reports[0].traced.keys().next().unwrap();
        assert_eq!(
            forced.reports[0].traced[&s],
            first.reports[0].traced[&s] * 2
        );
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
        assert_eq!(restricted.reports[0].env, "mid-plan");

        // A Linux sweep over the same (app, workload) must re-measure:
        // the restricted entry is not a Linux baseline.
        let linux = health_sweep(1).run(&db, app()).unwrap();
        assert_eq!(
            linux.analyzed, 1,
            "restricted-env entry must not be a cache hit"
        );
        assert_eq!(linux.cached, 0);
        assert_eq!(linux.reports[0].env, "linux");
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
        assert!(summary.reports.is_empty());
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

        assert_eq!(full.reports.len(), hinted.reports.len());
        for (f, h) in full.reports.iter().zip(&hinted.reports) {
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
        let stats = FleetStats::aggregate(Workload::HealthCheck, &summary.reports);
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
