//! Fleet-wide support-plan validation: generate the Table 1 plan for
//! every curated OS from the sweep database's measurements, replay each
//! plan on a restricted kernel, and persist the verdicts next to the
//! measurements so the generated `SUPPORT_PLANS.md` can show *validated*
//! rather than merely *predicted* support.

use std::collections::BTreeMap;
use std::fmt;

use loupe_apps::{registry, Workload};
use loupe_core::fingerprint_of;
use loupe_db::{ns, store, Database, DbError};
use loupe_plan::{
    os, AppRequirement, OsSpec, PlanValidation, PlanValidator, SupportPlan, ValidateError,
};

/// Errors from a fleet-wide validation pass.
#[derive(Debug)]
pub enum PlanSweepError {
    /// Database I/O or corruption.
    Db(DbError),
    /// A plan referenced an app the registry cannot produce.
    Validate {
        /// OS whose plan failed to validate.
        os: String,
        /// The underlying error.
        error: ValidateError,
    },
}

impl fmt::Display for PlanSweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanSweepError::Db(e) => write!(f, "{e}"),
            PlanSweepError::Validate { os, error } => {
                write!(f, "validating {os} plan: {error}")
            }
        }
    }
}

impl std::error::Error for PlanSweepError {}

impl From<DbError> for PlanSweepError {
    fn from(e: DbError) -> Self {
        PlanSweepError::Db(e)
    }
}

/// Validates the support plan of every OS in `oses` against the stored
/// measurements of every workload in `workloads` that has reports, and
/// persists each verdict into `db`. Returns the validations in
/// `(workload, OS)` order. Workloads with no stored measurements are
/// skipped (nothing to plan from).
///
/// # Errors
///
/// Database failures and plans referencing unknown applications.
pub fn validate_plans(
    db: &Database,
    workloads: &[Workload],
    oses: &[OsSpec],
) -> Result<Vec<PlanValidation>, PlanSweepError> {
    let validator = PlanValidator::new();
    let mut out = Vec::new();
    let grouped = crate::report::reports_by_workload(db)?;
    for &workload in workloads {
        let Some(reports) = grouped.get(&workload) else {
            continue;
        };
        let reqs: Vec<AppRequirement> = reports.iter().map(AppRequirement::from_report).collect();
        // One requirements fingerprint per workload, one OS fingerprint
        // per spec: a validation is a deterministic replay of the plan
        // generated from exactly these two inputs.
        let reqs_fp = fingerprint_of(&reqs);
        for spec in oses {
            let key = loupe_db::plan_key(&spec.name, workload);
            let mut inputs = BTreeMap::new();
            inputs.insert("os".to_owned(), fingerprint_of(spec));
            inputs.insert("requirements".to_owned(), reqs_fp);
            if db.is_current(ns::PLANS, &key, &inputs) {
                if let Some(stored) = db.get(&store::PLANS, &key)? {
                    db.note_hit(ns::PLANS);
                    out.push(stored);
                    continue;
                }
            }
            if db.recorded_output(ns::PLANS, &key).is_some() {
                db.note_stale(ns::PLANS);
            } else {
                db.note_miss(ns::PLANS);
            }
            let plan = SupportPlan::generate(spec, &reqs);
            let validation = validator
                .validate(spec, &plan, &reqs, workload, registry::find)
                .map_err(|error| PlanSweepError::Validate {
                    os: spec.name.clone(),
                    error,
                })?;
            db.put(&store::PLANS, &validation)?;
            db.record_provenance(ns::PLANS, &key, inputs, BTreeMap::new());
            out.push(validation);
        }
    }
    Ok(out)
}

/// Validates plans for the curated OS specs of §4.1 — the default set
/// `loupe sweep --validate-plans` runs.
///
/// # Errors
///
/// As for [`validate_plans`].
pub fn validate_curated_plans(
    db: &Database,
    workloads: &[Workload],
) -> Result<Vec<PlanValidation>, PlanSweepError> {
    validate_plans(db, workloads, &os::db())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sweep, SweepConfig};
    use loupe_syscalls::SysnoSet;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("loupe-plans-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn fleet_validation_persists_per_os_verdicts() {
        let dir = tmpdir("fleet");
        let db = Database::open(&dir).unwrap();
        let sweep = Sweep::new(SweepConfig {
            workloads: vec![Workload::HealthCheck],
            ..SweepConfig::default()
        });
        sweep.run(&db, registry::detailed()).unwrap();

        let oses = vec![
            os::find("kerla").unwrap(),
            OsSpec::new("bare", "0", SysnoSet::new()),
        ];
        let validations =
            validate_plans(&db, &[Workload::HealthCheck, Workload::Benchmark], &oses).unwrap();
        // Benchmark has no stored reports: only health validations exist.
        assert_eq!(validations.len(), 2);
        for v in &validations {
            assert_eq!(v.workload, Workload::HealthCheck);
            assert!(
                v.is_valid(),
                "generated plans must replay cleanly:\n{}",
                v.to_table()
            );
            let stored = db
                .get(&store::PLANS, &loupe_db::plan_key(&v.os, v.workload))
                .unwrap()
                .expect("persisted");
            assert_eq!(&stored, v);
        }
        // Starting from nothing, every app needs a step.
        let bare = validations.iter().find(|v| v.os == "bare").unwrap();
        assert!(bare.initial.is_empty());
        assert_eq!(bare.steps.len(), 12);
        assert_eq!(
            db.keys(&store::PLANS).unwrap().len(),
            2,
            "one verdict per (os, workload)"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
