//! Fleet-wide conformance-suite generation on the bounded worker pool:
//! the `loupe gentests` stage.
//!
//! Stage 1 is exactly the fleet × OS matrix sweep ([`sweep_matrix`]) —
//! pure cache hits when the database is already populated. Stage 2 then
//! compiles, for every `(os, workload, app)` cell with a stored
//! baseline, the app's measurement corpus into a
//! [`ConformanceSuite`](loupe_gentests::ConformanceSuite). The
//! OS-independent part, its [`SuiteBody`], is compiled once per
//! `(app, workload)` and shared by the per-OS jobs; the database stores
//! it once, under `gentests/<workload>/<app>.json`, with
//! skip-if-identical semantics. Every generated suite is
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
use std::convert::Infallible;

use loupe_apps::{AppModel, Workload};
use loupe_core::fingerprint_of;
use loupe_db::{ns, store, ArtifactRecord, Database, DbError};
use loupe_gentests::{ConformanceSuite, SuiteBody};
use loupe_plan::Tier;

use crate::matrix::{sweep_matrix, MatrixConfig};
use crate::stage::{self, Failed, Outcome, Stage};
use crate::{PerMeasurement, SweepSummary};

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

    // One job per (os, stored baseline report). A suite is a pure
    // function of (OS spec, measurement report, matrix cell), and every
    // one of these has its fingerprint in a manifest record: the report's
    // is its baseline record's output, and the matrix stage ran first on
    // this handle and recorded every cell it hit or stored. A cell
    // without a record was never stored, and the suite is generated
    // without it.
    let measured = &summary.measurements;
    let mut jobs = Vec::new();
    for os in &cfg.matrix.oses {
        let os_fp = fingerprint_of(os);
        for (i, m) in measured.iter().enumerate() {
            let report_fp = m.record.output;
            let mut inputs: BTreeMap<_, _> =
                [("os".to_owned(), os_fp), ("report".to_owned(), report_fp)].into();
            let mkey = loupe_db::matrix_key(&os.name, &m.app, m.workload);
            if let Some(cell) = db.record(ns::MATRIX, &mkey) {
                inputs.insert("cell".to_owned(), cell.output);
            }
            let key = loupe_db::suite_key(&os.name, &m.app, m.workload);
            jobs.push(stage::Job {
                key,
                inputs,
                item: (os, i, mkey),
            });
        }
    }
    let bodies = PerMeasurement::new(measured);

    /// One suite's verdict aggregate — what its manifest meta records.
    struct Verdicts {
        cases: usize,
        vanilla_pass: bool,
        planned_pass: bool,
        disagreements: Vec<(Tier, bool, bool)>,
    }
    // Generation is a pure function of the recorded inputs, so a current
    // record answers with its aggregate (in check mode too). Only clean
    // suites take this path: a recorded disagreement is always
    // re-derived, so it is reported again.
    let accept = |rec: &ArtifactRecord| match (
        rec.meta.get("cases").and_then(|s| s.parse::<usize>().ok()),
        rec.meta.get("vanilla_pass"),
        rec.meta.get("planned_pass"),
        rec.meta.get("disagreements").map(String::as_str),
    ) {
        (Some(cases), Some(vanilla), Some(planned), Some("0")) => Some(Verdicts {
            cases,
            vanilla_pass: vanilla == "true",
            planned_pass: planned == "true",
            disagreements: Vec::new(),
        }),
        _ => None,
    };
    let sweep = &cfg.matrix.sweep;
    let stage = Stage::new(db, &store::SUITES, sweep.workers, sweep.force);
    // A derive regenerates the suite and compares what it stores, its
    // body, with what its key last stored (`Some(identical)`); check
    // mode stops there and reports a mismatch as stale (`Some(false)`). Otherwise the suite is
    // committed — an identical one only heals its provenance — and a
    // changed or new one counts as generated (`None`).
    let outcomes = stage.run(&jobs, accept, |job, why| {
        let (os, i, mkey) = &job.item;
        let cell = db.get(&store::MATRIX, mkey)?;
        let body = bodies.get(*i, || Ok(SuiteBody::generate(&measured[*i].load(db)?)))?;
        let suite = ConformanceSuite::assemble(&os.name, SuiteBody::clone(&body), cell.as_ref());
        // The body is shared with the other OSes' jobs, which may have
        // rewritten it already: what this key last stored is its record.
        let identical = !sweep.force
            && db.record(ns::SUITES, &job.key).map(|r| r.output)
                == Some(store::SUITES.output_of(&suite)?);
        let verdicts = Verdicts {
            cases: suite.cases.len(),
            vanilla_pass: suite.verdict(os, Tier::Vanilla),
            planned_pass: suite.verdict(os, Tier::Planned),
            disagreements: suite.disagreements(os),
        };
        if cfg.check {
            return Ok::<_, Failed<Infallible>>((Some(identical), verdicts));
        }
        let meta = [
            ("cases", verdicts.cases.to_string()),
            ("vanilla_pass", verdicts.vanilla_pass.to_string()),
            ("planned_pass", verdicts.planned_pass.to_string()),
            ("disagreements", verdicts.disagreements.len().to_string()),
        ]
        .map(|(k, v)| (k.to_owned(), v));
        stage.commit(job, why, &suite, meta.into())?;
        Ok((identical.then_some(true), verdicts))
    });

    let (mut generated, mut cached) = (0, 0);
    let mut stale = Vec::new();
    let mut disagreements = Vec::new();
    let mut slices: BTreeMap<(String, &'static str), SuiteSliceStats> = BTreeMap::new();
    for (outcome, job) in outcomes.into_iter().zip(&jobs) {
        let (os, i, _) = job.item;
        let m = &measured[i];
        let out = match outcome {
            Ok(Outcome::Hit(out)) | Ok(Outcome::Derived((Some(true), out))) => {
                cached += 1;
                out
            }
            Ok(Outcome::Derived((Some(false), out))) => {
                stale.push((os.name.clone(), m.app.clone(), m.workload));
                out
            }
            Ok(Outcome::Derived((None, out))) => {
                generated += 1;
                out
            }
            Err(failed) => {
                let failure = failed.into_failure(&m.app, m.workload, "suite generation")?;
                summary.failures.push(failure);
                continue;
            }
        };
        for (tier, suite_pass, matrix_pass) in out.disagreements {
            disagreements.push(Disagreement {
                os: os.name.clone(),
                app: m.app.clone(),
                workload: m.workload,
                tier,
                suite_pass,
                matrix_pass,
            });
        }
        let slice = slices
            .entry((os.name.clone(), m.workload.label()))
            .or_insert_with(|| SuiteSliceStats {
                os: os.name.clone(),
                workload: m.workload,
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
    drop(jobs);
    summary.cache = db.session_cache_stats();
    summary
        .failures
        .sort_by_key(|f| (f.app.clone(), f.workload.label()));
    stale.sort_by_key(|(os, app, workload)| (os.clone(), app.clone(), workload.label()));
    disagreements.sort_by_key(|d| {
        (
            d.os.clone(),
            d.app.clone(),
            d.workload.label(),
            d.tier.label(),
        )
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
    fn a_changed_corpus_regenerates_every_os_suite_at_any_worker_count() {
        let oses = vec![os::find("kerla").unwrap(), os::find("gvisor").unwrap()];
        let apps = || -> Vec<_> { registry::detailed().into_iter().take(2).collect() };
        for workers in [1, 2] {
            let dir = tmpdir(&format!("corpus-{workers}"));
            let db = Database::open(&dir).unwrap();
            sweep_gentests(&db, apps(), &small_cfg(oses.clone(), workers)).unwrap();
            // One app's corpus changes: its baseline loses a class,
            // committed with the inputs the sweep recorded, so the next
            // sweep takes it as measured.
            let key = loupe_db::baseline_key(apps()[0].name(), Workload::HealthCheck);
            let mut report = db.get(&store::BASELINES, &key).unwrap().unwrap();
            let first = *report.classes.keys().next().unwrap();
            report.classes.remove(&first);
            let record = db.record(ns::BASELINES, &key).unwrap();
            db.commit(
                &store::BASELINES,
                &report,
                loupe_db::Derive::Stale,
                record.inputs.unwrap(),
                record.meta,
            )
            .unwrap();
            // Each OS's suite of it is regenerated, whichever job
            // rewrites the body they share first.
            let again = sweep_gentests(&db, apps(), &small_cfg(oses.clone(), workers)).unwrap();
            assert_eq!((again.generated, again.cached), (2, 2), "{workers} workers");
            std::fs::remove_dir_all(&dir).ok();
        }
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
