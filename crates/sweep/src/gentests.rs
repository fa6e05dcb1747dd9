//! Fleet-wide conformance-suite generation on the bounded worker pool:
//! the `loupe gentests` stage.
//!
//! Stage 1 is exactly the fleet × OS matrix sweep ([`sweep_matrix`]) —
//! pure cache hits when the database is already populated. Stage 2 then
//! compiles, for every `(os, workload, app)` cell with a stored
//! baseline, the app's measurement corpus into a
//! [`ConformanceSuite`](loupe_gentests::ConformanceSuite), persisting it
//! under the database's `gentests/<os>/<workload>/<app>.json` namespace
//! with skip-if-identical semantics. Every generated suite is
//! immediately **self-validated**: executed against the OS's vanilla
//! and planned kernel profiles, its verdicts compared with the matrix
//! cell's — a disagreement means the generator, the matrix sweep and
//! the planner no longer tell the same story, and fails the sweep's
//! caller (CI runs this on every push).
//!
//! `--check` mode regenerates in memory and compares against the stored
//! suites without writing: a mismatch (or a missing suite) is reported
//! as *stale*, mirroring `loupe report --check`'s drift contract.

use std::collections::BTreeMap;

use loupe_apps::{AppModel, Workload};
use loupe_core::{fingerprint_of, AppReport, Fingerprint};
use loupe_db::{ns, store, Database, DbError};
use loupe_gentests::ConformanceSuite;
use loupe_plan::{OsSpec, Tier};

use crate::matrix::{sweep_matrix, MatrixConfig};
use crate::{pool, Sweep, SweepFailure, SweepSummary};

/// Configuration of a conformance-suite generation sweep.
#[derive(Debug, Clone, Default)]
pub struct GentestsConfig {
    /// The matrix sweep driven first; its OS list, workloads, worker
    /// bound and force flag govern suite generation too.
    pub matrix: MatrixConfig,
    /// Drift-check mode: regenerate in memory, compare with stored
    /// suites, write nothing. Mismatching or missing suites are
    /// reported in [`GentestsSummary::stale`].
    pub check: bool,
}

/// Aggregate of one `(os, workload)` slice of generated suites — one
/// row of `docs/CONFORMANCE.md`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteSliceStats {
    /// OS name.
    pub os: String,
    /// Workload the suites were generated for.
    pub workload: Workload,
    /// Suites in the slice (one per app with a stored baseline).
    pub suites: usize,
    /// Total conformance cases across the slice.
    pub cases: usize,
    /// Suites whose executed vanilla-tier verdict passes.
    pub vanilla_pass: usize,
    /// Suites whose executed planned-tier verdict passes.
    pub planned_pass: usize,
}

/// One `(suite verdict, matrix verdict)` mismatch — the self-validation
/// failure the meta-test asserts never happens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disagreement {
    /// OS of the disagreeing cell.
    pub os: String,
    /// App of the disagreeing cell.
    pub app: String,
    /// Workload of the disagreeing cell.
    pub workload: Workload,
    /// Remediation tier on which the verdicts split.
    pub tier: Tier,
    /// What the executed suite said.
    pub suite_pass: bool,
    /// What the stored matrix cell said.
    pub matrix_pass: bool,
}

/// Outcome of a conformance-suite generation sweep.
#[derive(Debug)]
pub struct GentestsSummary {
    /// The underlying baseline + matrix sweep summary.
    pub base: SweepSummary,
    /// Suites generated (written) fresh in this sweep.
    pub generated: usize,
    /// Suites already stored byte-identically.
    pub cached: usize,
    /// `(os, app, workload)` cells whose stored suite is missing or no
    /// longer matches the corpus (populated only in check mode).
    pub stale: Vec<(String, String, Workload)>,
    /// Per-`(os, workload)` aggregate rows, ordered by
    /// `(os, workload label)`.
    pub stats: Vec<SuiteSliceStats>,
    /// Suite-vs-matrix verdict mismatches (empty means the generator,
    /// the matrix sweep and the planner mutually agree).
    pub disagreements: Vec<Disagreement>,
}

impl GentestsSummary {
    /// Whether the sweep is clean: no stale suites and no verdict
    /// disagreements — the condition CI enforces.
    pub fn is_clean(&self) -> bool {
        self.stale.is_empty() && self.disagreements.is_empty()
    }
}

/// Runs the conformance-suite generation sweep (see the module docs).
///
/// # Errors
///
/// Database I/O and corruption errors only; per-cell panics become
/// [`SweepFailure`]s on the base summary.
pub fn sweep_gentests(
    db: &Database,
    apps: Vec<Box<dyn AppModel>>,
    cfg: &GentestsConfig,
) -> Result<GentestsSummary, DbError> {
    // Stage 1: baselines + matrix cells (cache hits when populated).
    let mut summary = sweep_matrix(db, apps, &cfg.matrix)?;

    // One job per (os, stored baseline report). The reports are moved
    // out of the summary for the jobs' lifetime and restored after.
    let reports = std::mem::take(&mut summary.reports);
    struct Job<'a> {
        os: &'a OsSpec,
        report: &'a AppReport,
        inputs: BTreeMap<String, Fingerprint>,
    }
    // A suite is a pure function of (OS spec, measurement report,
    // matrix cell); the cell fingerprint comes from the matrix stage's
    // manifest record when available, falling back to hashing the
    // stored cell for databases predating provenance tracking.
    let os_fps: Vec<Fingerprint> = cfg.matrix.oses.iter().map(fingerprint_of).collect();
    let report_fps: Vec<Fingerprint> = reports.iter().map(fingerprint_of).collect();
    let mut jobs = Vec::new();
    for (os_idx, os_spec) in cfg.matrix.oses.iter().enumerate() {
        for (r_idx, report) in reports.iter().enumerate() {
            let mut inputs = BTreeMap::new();
            inputs.insert("os".to_owned(), os_fps[os_idx]);
            inputs.insert("report".to_owned(), report_fps[r_idx]);
            let mkey = loupe_db::matrix_key(&os_spec.name, &report.app, report.workload);
            match db.recorded_output(ns::MATRIX, &mkey) {
                Some(fp) => {
                    inputs.insert("cell".to_owned(), fp);
                }
                None => {
                    if let Some(cell) = db.get(&store::MATRIX, &mkey)? {
                        inputs.insert("cell".to_owned(), fingerprint_of(&cell));
                    }
                }
            }
            jobs.push(Job {
                os: os_spec,
                report,
                inputs,
            });
        }
    }

    struct CellOut {
        cached: bool,
        stale: bool,
        cases: usize,
        vanilla_pass: bool,
        planned_pass: bool,
        disagreements: Vec<(Tier, bool, bool)>,
    }
    enum JobOut {
        Done(CellOut),
        Db(DbError),
    }

    let force = cfg.matrix.sweep.force;
    let workers = Sweep::new(cfg.matrix.sweep.clone()).worker_count(jobs.len());
    let outcomes = pool::run_jobs(workers, &jobs, |job| {
        let (os, app, workload) = (&job.os.name, &job.report.app, job.report.workload);
        let key = loupe_db::suite_key(os, app, workload);
        let current = db.is_current(ns::SUITES, &key, &job.inputs);
        if current && !force {
            // Provenance is current: serve the recorded aggregate
            // without regenerating (generation is a pure function of
            // the recorded inputs, so this is valid in check mode
            // too). Only clean cells take this path — anything with a
            // recorded disagreement is always re-derived.
            if let Some(meta) = db.recorded_meta(ns::SUITES, &key) {
                if let (Some(cases), Some(vanilla_pass), Some(planned_pass), Some("0")) = (
                    meta.get("cases").and_then(|s| s.parse::<usize>().ok()),
                    meta.get("vanilla_pass").map(|s| s == "true"),
                    meta.get("planned_pass").map(|s| s == "true"),
                    meta.get("disagreements").map(String::as_str),
                ) {
                    db.note_hit(ns::SUITES);
                    return JobOut::Done(CellOut {
                        cached: true,
                        stale: false,
                        cases,
                        vanilla_pass,
                        planned_pass,
                        disagreements: Vec::new(),
                    });
                }
            }
        }
        let cell = match db.get(&store::MATRIX, &loupe_db::matrix_key(os, app, workload)) {
            Ok(cell) => cell,
            Err(e) => return JobOut::Db(e),
        };
        let fresh = ConformanceSuite::generate(job.os, job.report, cell.as_ref());
        let stored = match db.get(&store::SUITES, &key) {
            Ok(stored) => stored,
            Err(e) => return JobOut::Db(e),
        };
        let had_entry = stored.is_some() || db.recorded_output(ns::SUITES, &key).is_some();
        let identical = stored.as_ref() == Some(&fresh);
        let disagreements = fresh.disagreements(job.os);
        let vanilla_pass = fresh.verdict(job.os, Tier::Vanilla);
        let planned_pass = fresh.verdict(job.os, Tier::Planned);
        let mut meta = BTreeMap::new();
        meta.insert("cases".to_owned(), fresh.cases.len().to_string());
        meta.insert("vanilla_pass".to_owned(), vanilla_pass.to_string());
        meta.insert("planned_pass".to_owned(), planned_pass.to_string());
        meta.insert("disagreements".to_owned(), disagreements.len().to_string());
        let (cached, stale) = if identical && !force {
            // Content already matches; the regeneration only happened
            // because provenance was missing or stale — heal the
            // record so the next sweep takes the fast path.
            if current {
                db.note_hit(ns::SUITES);
            } else {
                db.note_stale(ns::SUITES);
            }
            if !cfg.check {
                db.record_provenance(ns::SUITES, &key, job.inputs.clone(), meta);
            }
            (true, false)
        } else if cfg.check {
            if had_entry {
                db.note_stale(ns::SUITES);
            } else {
                db.note_miss(ns::SUITES);
            }
            (false, true)
        } else {
            if had_entry && !force {
                db.note_stale(ns::SUITES);
            } else {
                db.note_miss(ns::SUITES);
            }
            if let Err(e) = db.put(&store::SUITES, &fresh) {
                return JobOut::Db(e);
            }
            db.record_provenance(ns::SUITES, &key, job.inputs.clone(), meta);
            (false, false)
        };
        JobOut::Done(CellOut {
            cached,
            stale,
            cases: fresh.cases.len(),
            vanilla_pass,
            planned_pass,
            disagreements,
        })
    });

    let mut generated = 0;
    let mut cached = 0;
    let mut stale = Vec::new();
    let mut disagreements = Vec::new();
    let mut slices: BTreeMap<(String, &'static str), SuiteSliceStats> = BTreeMap::new();
    let mut failures: Vec<SweepFailure> = Vec::new();
    for (outcome, job) in outcomes.into_iter().zip(&jobs) {
        let key = (job.os.name.clone(), job.report.workload.label());
        match outcome {
            Ok(JobOut::Done(out)) => {
                if out.cached {
                    cached += 1;
                } else if out.stale {
                    stale.push((
                        job.os.name.clone(),
                        job.report.app.clone(),
                        job.report.workload,
                    ));
                } else {
                    generated += 1;
                }
                for (tier, suite_pass, matrix_pass) in out.disagreements {
                    disagreements.push(Disagreement {
                        os: job.os.name.clone(),
                        app: job.report.app.clone(),
                        workload: job.report.workload,
                        tier,
                        suite_pass,
                        matrix_pass,
                    });
                }
                let slice = slices.entry(key).or_insert_with(|| SuiteSliceStats {
                    os: job.os.name.clone(),
                    workload: job.report.workload,
                    suites: 0,
                    cases: 0,
                    vanilla_pass: 0,
                    planned_pass: 0,
                });
                slice.suites += 1;
                slice.cases += out.cases;
                slice.vanilla_pass += usize::from(out.vanilla_pass);
                slice.planned_pass += usize::from(out.planned_pass);
            }
            Ok(JobOut::Db(e)) => return Err(e),
            Err(panic) => failures.push(SweepFailure {
                app: job.report.app.clone(),
                workload: job.report.workload,
                error: format!("suite generation panicked: {panic}"),
            }),
        }
    }
    drop(jobs);
    summary.reports = reports;
    summary.cache = db.session_cache_stats();
    summary.failures.extend(failures);
    summary.failures.sort_by(|a, b| {
        (a.app.as_str(), a.workload.label()).cmp(&(b.app.as_str(), b.workload.label()))
    });
    stale.sort_by(|a, b| {
        (a.0.as_str(), a.1.as_str(), a.2.label()).cmp(&(b.0.as_str(), b.1.as_str(), b.2.label()))
    });
    disagreements.sort_by(|a, b| {
        (
            a.os.as_str(),
            a.app.as_str(),
            a.workload.label(),
            a.tier.label(),
        )
            .cmp(&(
                b.os.as_str(),
                b.app.as_str(),
                b.workload.label(),
                b.tier.label(),
            ))
    });

    Ok(GentestsSummary {
        base: summary,
        generated,
        cached,
        stale,
        stats: slices.into_values().collect(),
        disagreements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SweepConfig;
    use loupe_apps::registry;
    use loupe_plan::os;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("loupe-gentests-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn small_cfg(oses: Vec<loupe_plan::OsSpec>, workers: usize) -> GentestsConfig {
        GentestsConfig {
            matrix: MatrixConfig {
                oses,
                tier: None,
                sweep: SweepConfig {
                    workloads: vec![Workload::HealthCheck],
                    workers,
                    ..SweepConfig::default()
                },
            },
            check: false,
        }
    }

    #[test]
    fn generates_persists_caches_and_self_validates() {
        let dir = tmpdir("cache");
        let db = Database::open(&dir).unwrap();
        let oses = vec![os::find("kerla").unwrap(), os::find("gvisor").unwrap()];
        let apps = || -> Vec<_> { registry::detailed().into_iter().take(4).collect() };

        let first = sweep_gentests(&db, apps(), &small_cfg(oses.clone(), 2)).unwrap();
        assert_eq!(first.generated, 2 * 4, "2 OSes x 4 apps x 1 workload");
        assert_eq!(first.cached, 0);
        assert!(first.is_clean(), "{:?}", first.disagreements);
        assert_eq!(first.stats.len(), 2);
        for row in &first.stats {
            assert_eq!(row.suites, 4);
            assert!(row.cases > 0);
            assert!(row.vanilla_pass <= row.planned_pass, "{row:?}");
        }
        let stored = db
            .get(
                &store::SUITES,
                &loupe_db::suite_key("kerla", "redis", Workload::HealthCheck),
            )
            .unwrap()
            .expect("suite persisted");
        assert!(stored.expected.vanilla.is_some(), "verdicts carried");

        // Second sweep: everything is a cache hit; a check passes clean.
        let second = sweep_gentests(&db, apps(), &small_cfg(oses.clone(), 2)).unwrap();
        assert_eq!(second.generated, 0);
        assert_eq!(second.cached, 8);
        assert_eq!(second.stats, first.stats);
        let mut check_cfg = small_cfg(oses, 2);
        check_cfg.check = true;
        let checked = sweep_gentests(&db, apps(), &check_cfg).unwrap();
        assert_eq!(checked.cached, 8);
        assert!(checked.stale.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_mode_flags_corrupted_suites_without_writing() {
        let dir = tmpdir("check");
        let db = Database::open(&dir).unwrap();
        let oses = vec![os::find("kerla").unwrap()];
        let apps = || -> Vec<_> { registry::detailed().into_iter().take(2).collect() };

        sweep_gentests(&db, apps(), &small_cfg(oses.clone(), 1)).unwrap();
        // Tamper with one stored suite.
        let mut broken = db
            .get(
                &store::SUITES,
                &loupe_db::suite_key("kerla", apps()[0].name(), Workload::HealthCheck),
            )
            .unwrap()
            .unwrap();
        broken.cases.pop();
        db.put(&store::SUITES, &broken).unwrap();

        let mut cfg = small_cfg(oses, 1);
        cfg.check = true;
        let checked = sweep_gentests(&db, apps(), &cfg).unwrap();
        assert_eq!(checked.stale.len(), 1);
        assert!(!checked.is_clean());
        // Nothing was repaired in check mode...
        assert_eq!(
            db.get(
                &store::SUITES,
                &loupe_db::suite_key("kerla", apps()[0].name(), Workload::HealthCheck)
            )
            .unwrap()
            .unwrap(),
            broken
        );
        // ...but a normal sweep heals it.
        cfg.check = false;
        let healed = sweep_gentests(&db, apps(), &cfg).unwrap();
        assert_eq!(healed.generated, 1);
        assert_eq!(healed.cached, 1);
        assert!(healed.is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }
}
