//! The fleet × OS empirical compatibility matrix (§5 at production
//! scale): sweep every application × workload across every curated OS
//! kernel profile, under remediation tiers.
//!
//! `plan --os X` answers the paper's headline question — "how much of
//! real-world software does each compatibility layer actually run, and
//! how much cheaper is stub/fake-based support than full
//! implementation?" — *analytically*, from Linux measurements. This
//! module answers it *empirically*: for each OS in
//! [`loupe_plan::os::db`], each workload and each app, the workload is
//! executed on a restricted kernel exposing
//!
//! * **vanilla** — only the syscalls the OS implements today, and
//! * **planned** — vanilla plus the support plan's stub/fake guidance
//!   for the app (no new implementations — the cheap tier),
//!
//! with the stored full-Linux baseline as the reference tier. Cells
//! persist under the database's `env/<os>/matrix/` namespace with
//! skip-if-cached semantics, riding the same bounded worker pool as the
//! dynamic and static sweeps, and aggregate into per-OS "works out of
//! the box" / "works with plan" rates plus per-app failure causes (the
//! first rejected syscall, straight from the restricted kernel's
//! boundary counters).

use std::collections::BTreeMap;

use loupe_apps::{AppModel, Workload};
use loupe_core::{fingerprint_of, TestScript};
use loupe_db::{ns, store, ArtifactRecord, Database, DbError, Derive};
use loupe_plan::{measure_cell, os, AppRequirement, MatrixCell, OsSpec, Tier};
use loupe_syscalls::Sysno;

use crate::stage::{self, Failed, Outcome, Stage};
use crate::{PerMeasurement, Sweep, SweepConfig, SweepSummary};

/// Configuration of a matrix sweep.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// OS profiles to measure; defaults to the 11 curated specs of §4.1.
    pub oses: Vec<OsSpec>,
    /// Restricts the measurement to one tier: `Some(Vanilla)` skips the
    /// planned runs; `Some(Planned)` and `None` measure both (the
    /// planned tier needs the vanilla verdict — an app passing vanilla
    /// needs no remediation, so its planned verdict *is* vanilla).
    pub tier: Option<Tier>,
    /// The baseline sweep driven first (workloads, workers, force and
    /// engine configuration all apply to the matrix stage too).
    pub sweep: SweepConfig,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            oses: os::db(),
            tier: None,
            sweep: SweepConfig::default(),
        }
    }
}

/// Aggregate of one `(os, workload)` slice of the matrix — one row of
/// the generated `OS_MATRIX.md` table.
#[derive(Debug, Clone, PartialEq)]
pub struct OsWorkloadStats {
    /// OS name.
    pub os: String,
    /// Syscalls the OS implements (the profile size column).
    pub syscalls: usize,
    /// Workload aggregated.
    pub workload: Workload,
    /// Apps measured (cells present).
    pub apps: usize,
    /// Apps passing the full-Linux reference.
    pub linux_pass: usize,
    /// Apps passing with only the OS's implemented syscalls.
    pub vanilla_pass: usize,
    /// Apps passing once the plan's stub/fake guidance is applied.
    pub planned_pass: usize,
    /// Missing *required* syscalls ranked by how many failing apps need
    /// them (count desc, then syscall number) — the "what to implement
    /// next" column.
    pub top_missing: Vec<(Sysno, usize)>,
}

impl OsWorkloadStats {
    /// Vanilla pass rate over measured apps (0 when none measured).
    pub fn vanilla_rate(&self) -> f64 {
        self.vanilla_pass as f64 / self.apps.max(1) as f64
    }

    /// Planned pass rate over measured apps.
    pub fn planned_rate(&self) -> f64 {
        self.planned_pass as f64 / self.apps.max(1) as f64
    }

    /// The plan's value on this OS: apps unlocked by stub/fake work
    /// alone, without implementing a single new syscall. (Saturating:
    /// the aggregation keeps planned ≥ vanilla, but a hand-built stats
    /// row must not panic the renderer.)
    pub fn plan_gain(&self) -> usize {
        self.planned_pass.saturating_sub(self.vanilla_pass)
    }
}

/// Aggregates stored matrix cells into per-`(os, workload)` statistics,
/// ordered by `(os, workload label)`. `sizes` maps OS names to their
/// implemented-syscall counts (unknown OSes get 0). Pure — shared by
/// the sweep summary and the `OS_MATRIX.md` renderer, so both always
/// agree.
pub fn aggregate(cells: &[MatrixCell], sizes: &BTreeMap<String, usize>) -> Vec<OsWorkloadStats> {
    let mut slices: BTreeMap<(&str, &str), Vec<&MatrixCell>> = BTreeMap::new();
    for cell in cells {
        slices
            .entry((cell.os.as_str(), cell.workload.label()))
            .or_default()
            .push(cell);
    }
    slices
        .into_iter()
        .map(|((os_name, _), slice)| {
            let mut missing: BTreeMap<Sysno, usize> = BTreeMap::new();
            for cell in &slice {
                if !cell.planned_at_least() {
                    for s in cell.missing_required.iter() {
                        *missing.entry(s).or_insert(0) += 1;
                    }
                }
            }
            let mut top_missing: Vec<(Sysno, usize)> = missing.into_iter().collect();
            top_missing.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            OsWorkloadStats {
                os: os_name.to_owned(),
                syscalls: sizes.get(os_name).copied().unwrap_or(0),
                workload: slice[0].workload,
                apps: slice.len(),
                linux_pass: slice.iter().filter(|c| c.linux_pass).count(),
                vanilla_pass: slice.iter().filter(|c| c.passes(Tier::Vanilla)).count(),
                // Best-known planned verdict: a measured planned outcome,
                // or the vanilla one as a lower bound — so a `--tier
                // vanilla` sweep never shows "with plan" below vanilla.
                planned_pass: slice.iter().filter(|c| c.planned_at_least()).count(),
                top_missing,
            }
        })
        .collect()
}

/// The matrix section of a [`SweepSummary`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatrixSummary {
    /// Cells measured fresh in this sweep.
    pub analyzed: usize,
    /// Cells served from the database.
    pub cached: usize,
    /// Per-`(os, workload)` aggregate rows over every cell now stored
    /// for the swept OSes, ordered by `(os, workload label)`.
    pub stats: Vec<OsWorkloadStats>,
}

/// Runs the fleet × OS matrix sweep: first the plain baseline sweep
/// (skip-if-cached, exactly [`Sweep::run`]), then — for every app whose
/// baseline is stored — one cell per `(os, workload)` on the bounded
/// worker pool, with skip-if-cached semantics against the
/// `env/<os>/matrix/` namespace. The returned summary is the baseline
/// summary with [`SweepSummary::matrix`] populated.
///
/// Apps whose baseline failed (including panicking models, which the
/// pool isolates into per-app [`SweepFailure`]s) are excluded from the
/// matrix rather than aborting it; their failures stay in
/// [`SweepSummary::failures`].
///
/// # Errors
///
/// Database I/O and corruption errors only.
pub fn sweep_matrix(
    db: &Database,
    apps: Vec<Box<dyn AppModel>>,
    cfg: &MatrixConfig,
) -> Result<SweepSummary, DbError> {
    // Stage 1: full-Linux baselines (pure cache hits when already swept).
    let sweep = Sweep::new(cfg.sweep.clone());
    let mut summary = sweep.run(db, apps)?;

    // One cell per (OS, app with a stored baseline, workload). A cell's
    // inputs are the cross product of per-OS and per-measurement
    // fingerprints; the latter (the requirement and the baseline feature
    // map the cell is evaluated against) come from the baseline's
    // manifest record, so deciding a cell reads no report. Models are
    // re-resolved from the registry by name inside each job: the boxed
    // inputs were consumed by the baseline sweep.
    let measured = &summary.measurements;
    let fps = measured
        .iter()
        .map(|m| m.matrix_inputs(db))
        .collect::<Result<Vec<_>, _>>()?;
    let mut jobs = Vec::new();
    for os in &cfg.oses {
        let os_fp = fingerprint_of(os);
        for (i, (m, [req_fp, features_fp])) in measured.iter().zip(&fps).enumerate() {
            let inputs = [
                ("os", os_fp),
                ("requirement", *req_fp),
                ("features", *features_fp),
            ];
            jobs.push(stage::Job {
                key: loupe_db::matrix_key(&os.name, &m.app, m.workload),
                inputs: inputs.map(|(role, fp)| (role.to_owned(), fp)).into(),
                item: (os, i),
            });
        }
    }
    let loaded = PerMeasurement::new(measured);

    let script = TestScript::default();
    let measures_both = cfg.tier != Some(Tier::Vanilla);
    // A current cell satisfies the sweep only when its recorded tiers
    // cover every tier this configuration measures.
    let accept = |rec: &ArtifactRecord| {
        let tiers = rec.meta.get("tiers");
        tiers
            .is_some_and(|t| t == "both" || !measures_both)
            .then_some(())
    };
    let stage = Stage::new(db, &store::MATRIX, cfg.sweep.workers, cfg.sweep.force);
    let outcomes = stage.run(&jobs, accept, |job, why| {
        let (os, i) = job.item;
        let app = &measured[i].app;
        let Some(model) = loupe_apps::registry::find(app) else {
            return Err(Failed::Job(format!("no runnable model for `{app}`")));
        };
        let loaded = loaded.get(i, || {
            let report = measured[i].load(db)?;
            let req = AppRequirement::from_report(&report);
            Ok((report, req))
        })?;
        let (report, req) = &*loaded;
        // The baseline sweep only stores reports whose baseline
        // passed, so every app reaching this point passed on full
        // Linux.
        let features = Some(&report.baseline.features);
        let cell = measure_cell(
            os,
            req,
            model.as_ref(),
            report.workload,
            true,
            cfg.tier,
            &script,
            features,
        );
        // Coverage after the commit: a stale cell is replaced by
        // what was just measured (tiers measured against outdated
        // inputs must not survive tier composition); a missed one
        // composes, keeping any planned tier it has.
        let kept_both = || {
            let rec = db.record(ns::MATRIX, &job.key);
            rec.is_some_and(|rec| rec.meta.get("tiers").is_some_and(|t| t == "both"))
        };
        let both = measures_both || (why == Derive::Miss && kept_both());
        let tiers = [(
            "tiers".to_owned(),
            if both { "both" } else { "vanilla" }.to_owned(),
        )];
        Ok(stage.commit(job, why, &cell, tiers.into())?)
    });

    let mut matrix = MatrixSummary::default();
    for (outcome, job) in outcomes.into_iter().zip(&jobs) {
        match outcome {
            Ok(Outcome::Hit(())) => matrix.cached += 1,
            Ok(Outcome::Derived(())) => matrix.analyzed += 1,
            Err(failed) => {
                let m = &measured[job.item.1];
                let failure = failed.into_failure(&m.app, m.workload, "matrix measurement")?;
                summary.failures.push(failure);
            }
        }
    }
    summary
        .failures
        .sort_by_key(|f| (f.app.clone(), f.workload.label()));

    // Aggregate everything now stored for the swept OSes — including
    // cells from earlier (cached) sweeps, so the summary always reflects
    // the database the docs are rendered from.
    let swept: std::collections::BTreeSet<&str> =
        cfg.oses.iter().map(|o| o.name.as_str()).collect();
    let cells: Vec<MatrixCell> = db
        .load_all(&store::MATRIX)?
        .into_iter()
        .filter(|c| swept.contains(c.os.as_str()))
        .collect();
    matrix.stats = aggregate(&cells, &os_sizes(&cfg.oses));
    summary.matrix = Some(matrix);
    summary.cache = db.session_cache_stats();
    Ok(summary)
}

/// OS name → implemented-syscall count, for aggregation.
pub fn os_sizes(oses: &[OsSpec]) -> BTreeMap<String, usize> {
    oses.iter()
        .map(|o| (o.name.clone(), o.supported.len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use loupe_apps::registry;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("loupe-matrix-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn small_cfg(oses: Vec<OsSpec>, workers: usize) -> MatrixConfig {
        MatrixConfig {
            oses,
            tier: None,
            sweep: SweepConfig {
                workloads: vec![Workload::HealthCheck],
                workers,
                ..SweepConfig::default()
            },
        }
    }

    #[test]
    fn matrix_sweep_measures_persists_and_caches() {
        let dir = tmpdir("cache");
        let db = Database::open(&dir).unwrap();
        let oses = vec![os::find("kerla").unwrap(), os::find("gvisor").unwrap()];
        let apps = || -> Vec<_> { registry::detailed().into_iter().take(4).collect() };

        let first = sweep_matrix(&db, apps(), &small_cfg(oses.clone(), 2)).unwrap();
        let matrix = first.matrix.as_ref().expect("matrix section present");
        assert_eq!(matrix.analyzed, 2 * 4, "2 OSes x 4 apps x 1 workload");
        assert_eq!(matrix.cached, 0);
        assert_eq!(matrix.stats.len(), 2);
        for row in &matrix.stats {
            assert_eq!(row.apps, 4);
            assert_eq!(row.linux_pass, 4);
            assert!(row.planned_pass >= row.vanilla_pass, "{row:?}");
        }
        assert!(db
            .get(
                &store::MATRIX,
                &loupe_db::matrix_key("kerla", "redis", Workload::HealthCheck)
            )
            .unwrap()
            .is_some());

        // Second sweep: baselines and cells are all cache hits.
        let second = sweep_matrix(&db, apps(), &small_cfg(oses, 2)).unwrap();
        assert_eq!(second.analyzed, 0);
        let matrix = second.matrix.as_ref().unwrap();
        assert_eq!(matrix.analyzed, 0, "cells cached");
        assert_eq!(matrix.cached, 8);
        assert_eq!(matrix.stats, first.matrix.as_ref().unwrap().stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vanilla_only_sweep_is_completed_by_a_full_sweep() {
        let dir = tmpdir("tier");
        let db = Database::open(&dir).unwrap();
        let oses = vec![os::find("kerla").unwrap()];
        let apps = || -> Vec<_> { registry::detailed().into_iter().take(2).collect() };

        let mut cfg = small_cfg(oses, 1);
        cfg.tier = Some(Tier::Vanilla);
        sweep_matrix(&db, apps(), &cfg).unwrap();
        let cell = db
            .get(
                &store::MATRIX,
                &loupe_db::matrix_key("kerla", apps()[0].name(), Workload::HealthCheck),
            )
            .unwrap()
            .unwrap();
        assert!(cell.vanilla.is_some());
        assert!(cell.planned.is_none(), "planned tier not measured yet");

        // A full sweep re-measures only what is missing and composes.
        cfg.tier = None;
        let full = sweep_matrix(&db, apps(), &cfg).unwrap();
        assert_eq!(full.matrix.as_ref().unwrap().analyzed, 2);
        let cell = db
            .get(
                &store::MATRIX,
                &loupe_db::matrix_key("kerla", apps()[0].name(), Workload::HealthCheck),
            )
            .unwrap()
            .unwrap();
        assert!(cell.vanilla.is_some() && cell.planned.is_some());

        // A cell covering both tiers satisfies a vanilla-only sweep: it
        // is answered from its manifest record, all hits.
        cfg.tier = Some(Tier::Vanilla);
        drop(db);
        let db = Database::open(&dir).unwrap();
        let vanilla = sweep_matrix(&db, apps(), &cfg).unwrap();
        let matrix = vanilla.matrix.as_ref().unwrap();
        assert_eq!((matrix.analyzed, matrix.cached), (0, 2));
        let counted = db.session_cache_stats().namespaces[ns::MATRIX];
        assert_eq!((counted.hits, counted.misses, counted.stale), (2, 0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aggregation_is_deterministic_and_invariant_preserving() {
        let dir = tmpdir("agg");
        let db = Database::open(&dir).unwrap();
        let cfg = small_cfg(os::db(), 0);
        let apps: Vec<_> = registry::detailed().into_iter().take(6).collect();
        let summary = sweep_matrix(&db, apps, &cfg).unwrap();
        let matrix = summary.matrix.unwrap();
        assert_eq!(matrix.stats.len(), os::db().len(), "one row per OS");
        for row in &matrix.stats {
            assert!(row.vanilla_pass <= row.planned_pass);
            assert!(row.planned_pass <= row.linux_pass);
            assert!(row.linux_pass <= row.apps);
            assert!(row.syscalls > 0, "{}: profile size rendered", row.os);
            for w in row.top_missing.windows(2) {
                assert!(w[0].1 >= w[1].1, "ranked by blocked-app count");
            }
        }
        // gvisor (211 syscalls) runs at least as much vanilla as browsix (45).
        let rate = |name: &str| {
            matrix
                .stats
                .iter()
                .find(|r| r.os == name)
                .unwrap()
                .vanilla_rate()
        };
        assert!(rate("gvisor") >= rate("browsix"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
