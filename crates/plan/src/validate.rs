//! Empirical support-plan validation: replay a [`SupportPlan`] on a
//! restricted kernel and check that every step delivers what it claims.
//!
//! The paper's Table 1 plans are *predictions* derived from per-feature
//! measurements. This module closes the loop: for each step *k* it
//! builds the cumulative [`KernelProfile`] — everything implemented,
//! stubbed and faked up to and including step *k*, on top of what the
//! target OS already supports — and runs the unlocked application's
//! workload on a [`RestrictedKernel`](loupe_kernel::RestrictedKernel)
//! enforcing that profile:
//!
//! * the app must **pass** its test script at step *k* (the step really
//!   unlocks it) — the correctness gate, and
//! * is also checked at step *k−1*: failing there means the plan is
//!   *tight* (the step is listed exactly when needed); passing there is
//!   an *early unlock* — the planner over-estimated the app's cost
//!   because a "required" syscall sat behind a code path other stubbed
//!   features disabled. Early unlocks are reported, not fatal. Steps
//!   that add no observable kernel behaviour — a stub-only step, on a
//!   kernel where unimplemented already means `-ENOSYS` — have nothing
//!   to compare and are marked free.
//!
//! Applications supported before any work (step 0) are checked under
//! the bare OS surface plus the fake shims the planner assumes
//! providable for them.

use loupe_apps::model::AppOutcome;
use loupe_apps::{AppModel, Workload};
use loupe_core::exec::{run_app, ExecEnv};
use loupe_core::TestScript;
#[cfg(test)]
use loupe_syscalls::SysnoSet;
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::matrix::vanilla_profile;
use crate::os::OsSpec;
use crate::plan::SupportPlan;
use crate::requirement::AppRequirement;

/// Verdict for one application supported before any plan work.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InitialVerdict {
    /// Application name.
    pub app: String,
    /// The app passed its test script on the bare OS surface (plus its
    /// assumed-providable fake shims).
    pub passes: bool,
}

/// Verdict for one plan step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepVerdict {
    /// 1-based step index (matches [`crate::PlanStep::index`]).
    pub index: usize,
    /// The application the step claims to unlock.
    pub app: String,
    /// The app passed its test script under the cumulative profile of
    /// this step — the unlock really happens.
    pub unlocked: bool,
    /// The app *failed* under the previous step's profile — the step is
    /// not listed later than needed. `None` when the step adds no
    /// observable kernel behaviour (nothing implemented or faked), so
    /// the two profiles answer identically.
    pub locked_before: Option<bool>,
}

impl StepVerdict {
    /// The step's unlock claim holds.
    pub fn holds(&self) -> bool {
        self.unlocked
    }

    /// The app already ran one step earlier: the planner over-estimated
    /// its cost. A "required" classification is measured with only that
    /// one feature interposed; on a kernel stubbing *many* features at
    /// once, the code path needing it may never run (a guarded path
    /// behind another stubbed call), so the app unlocks early. The plan
    /// still works — it is just not *tight* here.
    pub fn early(&self) -> bool {
        self.locked_before == Some(false)
    }
}

/// The outcome of replaying one plan on a restricted kernel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanValidation {
    /// Target OS name.
    pub os: String,
    /// Workload the plan (and its measurements) were built for.
    pub workload: Workload,
    /// The validated plan, embedded so the verdicts stay interpretable
    /// without re-deriving it.
    pub plan: SupportPlan,
    /// Verdicts for the initially supported applications.
    pub initial: Vec<InitialVerdict>,
    /// Per-step verdicts, in plan order.
    pub steps: Vec<StepVerdict>,
}

impl PlanValidation {
    /// Every unlock claim held: initially supported apps run with zero
    /// work, and every step's app passes under that step's profile.
    pub fn unlocks_hold(&self) -> bool {
        self.initial.iter().all(|v| v.passes) && self.steps.iter().all(|v| v.unlocked)
    }

    /// No behaviour-adding step unlocks its app one step early. An
    /// efficiency property, not a correctness one: an early unlock
    /// means the planner scheduled more work for the app than this
    /// (deterministic) replay needed — see [`StepVerdict::early`].
    pub fn is_tight(&self) -> bool {
        self.steps.iter().all(|v| !v.early())
    }

    /// The plan's promises hold end to end: every listed unlock really
    /// happens. (Tightness is reported separately by [`Self::is_tight`].)
    pub fn is_valid(&self) -> bool {
        self.unlocks_hold()
    }

    /// Steps whose unlock claim does not hold, for diagnostics.
    pub fn failing_steps(&self) -> Vec<&StepVerdict> {
        self.steps.iter().filter(|v| !v.holds()).collect()
    }

    /// Steps that unlocked their app one step early (plan not tight).
    pub fn early_steps(&self) -> Vec<&StepVerdict> {
        self.steps.iter().filter(|v| v.early()).collect()
    }

    /// Renders the verdicts as an aligned text table (CLI output).
    pub fn to_table(&self) -> String {
        let tightness = match self.early_steps().len() {
            0 => String::new(),
            n => format!(" (not tight: {n} early unlocks)"),
        };
        let mut out = format!(
            "validation of {} plan ({} workload): {}{tightness}\n",
            self.os,
            self.workload.label(),
            if self.is_valid() { "VALID" } else { "INVALID" },
        );
        for v in &self.initial {
            out.push_str(&format!(
                "step 0    | {:<24} | {}\n",
                v.app,
                if v.passes {
                    "runs with zero work"
                } else {
                    "FAILS despite being listed as initially supported"
                }
            ));
        }
        for v in &self.steps {
            let before = match v.locked_before {
                None => "free step",
                Some(true) => "locked at k-1",
                Some(false) => "unlocked early (plan not tight here)",
            };
            out.push_str(&format!(
                "step {:<4} | {:<24} | {} | {}\n",
                v.index,
                v.app,
                if v.unlocked { "unlocks" } else { "STILL FAILS" },
                before
            ));
        }
        out
    }
}

/// Errors during plan validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// The plan references an application the resolver cannot produce a
    /// runnable model for.
    UnknownApp(String),
    /// The plan references an application with no stored requirement —
    /// the plan and the measurement set are out of sync.
    MissingRequirement(String),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::UnknownApp(app) => {
                write!(f, "no runnable model for application `{app}`")
            }
            ValidateError::MissingRequirement(app) => {
                write!(f, "no measured requirement for application `{app}`")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// Replays support plans on restricted kernels.
#[derive(Debug, Clone, Default)]
pub struct PlanValidator {
    script: TestScript,
}

impl PlanValidator {
    /// A validator using the default pass/fail policy.
    pub fn new() -> PlanValidator {
        PlanValidator::default()
    }

    /// A validator with an explicit test script.
    pub fn with_script(script: TestScript) -> PlanValidator {
        PlanValidator { script }
    }

    fn passes(&self, env: &ExecEnv, app: &dyn AppModel, workload: Workload) -> bool {
        let outcome: AppOutcome = run_app(env, app, workload);
        self.script.evaluate(&outcome, workload, None).success
    }

    /// Validates `plan` (generated for `reqs` on the OS whose supported
    /// set seeds the plan) by replaying every step under `workload`.
    /// `resolve` turns an application name into its runnable model —
    /// typically `loupe_apps::registry::find`.
    ///
    /// # Errors
    ///
    /// [`ValidateError::UnknownApp`] when an app named by the plan has
    /// no runnable model; [`ValidateError::MissingRequirement`] when an
    /// initially supported app has no entry in `reqs` (its fake-shim
    /// overlay cannot be derived).
    pub fn validate(
        &self,
        os: &OsSpec,
        plan: &SupportPlan,
        reqs: &[AppRequirement],
        workload: Workload,
        resolve: impl Fn(&str) -> Option<Box<dyn AppModel>>,
    ) -> Result<PlanValidation, ValidateError> {
        let find = |name: &str| -> Result<Box<dyn AppModel>, ValidateError> {
            resolve(name).ok_or_else(|| ValidateError::UnknownApp(name.to_owned()))
        };

        // Step 0: the bare OS surface — per-flag holes included. The
        // planner treats stub/fake layers for already-supported apps as
        // providable (§4.1), so each initially supported app gets
        // exactly the fake shims its own measurement demands — at both
        // granularities — and nothing from any later step.
        let mut initial = Vec::new();
        for name in &plan.initially_supported {
            let req = reqs
                .iter()
                .find(|r| &r.app == name)
                .ok_or_else(|| ValidateError::MissingRequirement(name.clone()))?;
            let app = find(name)?;
            let mut profile = vanilla_profile(os);
            profile.name = format!("{} @ step 0", plan.os);
            profile.faked = req.fake_only.difference(&os.supported);
            let holes = os.all_holes();
            profile.faked_flags = req
                .fake_only_flags
                .iter()
                .filter(|k| holes.contains(k))
                .copied()
                .collect();
            let env = ExecEnv::Restricted(Box::new(profile));
            initial.push(InitialVerdict {
                app: name.clone(),
                passes: self.passes(&env, app.as_ref(), workload),
            });
        }

        // Steps 1..n: cumulative profiles. `previous` trails one step
        // behind `cumulative` for the tightness check.
        let mut cumulative = vanilla_profile(os);
        cumulative.name = plan.os.clone();
        let mut steps = Vec::new();
        for step in &plan.steps {
            let previous = cumulative.clone();
            cumulative.name = format!("{} @ step {}", plan.os, step.index);
            cumulative.implemented.extend(step.implement.iter());
            cumulative.stubbed.extend(step.stub.iter());
            cumulative.faked.extend(step.fake.iter());
            for key in &step.implement_flags {
                cumulative.plug_hole(*key);
            }
            cumulative
                .stubbed_flags
                .extend(step.stub_flags.iter().copied());
            cumulative
                .faked_flags
                .extend(step.fake_flags.iter().copied());

            let app = find(&step.unlocks)?;
            let unlocked = self.passes(
                &ExecEnv::Restricted(Box::new(cumulative.clone())),
                app.as_ref(),
                workload,
            );
            // A stub-only (or empty) step changes nothing observable:
            // on a restricted kernel, unimplemented already means
            // `-ENOSYS`, and a stubbed flag hole rejects exactly like an
            // untouched one. Only implementing or faking — a syscall or
            // a flag — moves behaviour.
            let adds_behaviour = !step.implement.is_empty()
                || !step.fake.is_empty()
                || !step.implement_flags.is_empty()
                || !step.fake_flags.is_empty();
            let locked_before = adds_behaviour.then(|| {
                !self.passes(
                    &ExecEnv::Restricted(Box::new(previous)),
                    app.as_ref(),
                    workload,
                )
            });
            steps.push(StepVerdict {
                index: step.index,
                app: step.unlocks.clone(),
                unlocked,
                locked_before,
            });
        }

        Ok(PlanValidation {
            os: plan.os.clone(),
            workload,
            plan: plan.clone(),
            initial,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os;
    use loupe_apps::registry;
    use loupe_core::{AnalysisConfig, Engine};
    use loupe_syscalls::Sysno;

    fn cloud_requirements(workload: Workload) -> Vec<AppRequirement> {
        let engine = Engine::new(AnalysisConfig::fast());
        registry::cloud_apps()
            .iter()
            .map(|app| {
                let report = engine.analyze(app.as_ref(), workload).unwrap();
                AppRequirement::from_report(&report)
            })
            .collect()
    }

    #[test]
    fn kerla_plan_validates_end_to_end() {
        let workload = Workload::HealthCheck;
        let reqs = cloud_requirements(workload);
        let spec = os::find("kerla").unwrap();
        let plan = SupportPlan::generate(&spec, &reqs);
        assert!(!plan.steps.is_empty(), "kerla needs work for cloud apps");
        let validation = PlanValidator::new()
            .validate(&spec, &plan, &reqs, workload, registry::find)
            .unwrap();
        assert!(
            validation.is_valid(),
            "every step must unlock its app:\n{}",
            validation.to_table()
        );
        assert!(
            validation.is_tight(),
            "no cloud app unlocks early on kerla:\n{}",
            validation.to_table()
        );
        // At least one behaviour-adding step exercised the tightness leg.
        assert!(
            validation
                .steps
                .iter()
                .any(|v| v.locked_before == Some(true)),
            "{:?}",
            validation.steps
        );
    }

    #[test]
    fn corrupted_plan_is_caught() {
        // Dropping a required syscall from the step that implements it
        // must flip that step's verdict: the app cannot run without it.
        let workload = Workload::HealthCheck;
        let reqs = cloud_requirements(workload);
        let spec = os::find("kerla").unwrap();
        let mut plan = SupportPlan::generate(&spec, &reqs);
        let (step_idx, dropped) = plan
            .steps
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.implement.iter().next().map(|sysno| (i, sysno)))
            .expect("some step implements something");
        plan.steps[step_idx].implement.remove(dropped);
        let validation = PlanValidator::new()
            .validate(&spec, &plan, &reqs, workload, registry::find)
            .unwrap();
        assert!(
            !validation.steps[step_idx].unlocked,
            "dropping `{dropped}` must break step {}:\n{}",
            step_idx + 1,
            validation.to_table()
        );
        assert!(!validation.is_valid());
        assert!(!validation.failing_steps().is_empty());
    }

    #[test]
    fn full_linux_spec_agrees_with_supported_by() {
        // On an OS that implements everything, every app is initially
        // supported (supported_by == true) and every verdict passes.
        let workload = Workload::HealthCheck;
        let reqs = cloud_requirements(workload);
        let full: SysnoSet = Sysno::all().collect();
        let spec = crate::OsSpec::new("linux-full", "all", full);
        let plan = SupportPlan::generate(&spec, &reqs);
        assert!(plan.steps.is_empty());
        assert_eq!(plan.initially_supported.len(), reqs.len());
        for req in &reqs {
            assert!(req.supported_by(&spec.supported));
        }
        let validation = PlanValidator::new()
            .validate(&spec, &plan, &reqs, workload, registry::find)
            .unwrap();
        assert!(validation.is_valid(), "{}", validation.to_table());
        assert_eq!(validation.initial.len(), reqs.len());
    }

    #[test]
    fn unknown_app_is_an_error() {
        let spec = os::find("kerla").unwrap();
        let reqs = vec![AppRequirement {
            app: "ghost".into(),
            required: [Sysno::read].into_iter().collect(),
            stubbable: SysnoSet::new(),
            fake_only: SysnoSet::new(),
            traced: [Sysno::read].into_iter().collect(),
            ..AppRequirement::default()
        }];
        let plan = SupportPlan::generate(&spec, &reqs);
        let err = PlanValidator::new()
            .validate(&spec, &plan, &reqs, Workload::HealthCheck, |_| None)
            .unwrap_err();
        assert_eq!(err, ValidateError::UnknownApp("ghost".into()));
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn validation_serde_roundtrip() {
        let validation = PlanValidation {
            os: "kerla".into(),
            workload: Workload::Benchmark,
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
        let json = serde_json::to_string(&validation).unwrap();
        let back: PlanValidation = serde_json::from_str(&json).unwrap();
        assert_eq!(validation, back);
        assert!(back.is_valid());
    }
}
