//! The fleet × OS compatibility-matrix cell: one application, one
//! workload, one curated OS, measured *empirically* under remediation
//! tiers (§5 at production scale).
//!
//! `plan --os X` answers the paper's headline question analytically:
//! plans are derived from full-Linux measurements. This module closes
//! the loop per application by **executing** the question on a
//! [`RestrictedKernel`](loupe_kernel::RestrictedKernel):
//!
//! * **vanilla** — the app's workload runs on exactly the syscall
//!   surface the OS implements today ([`vanilla_profile`]); everything
//!   else answers `-ENOSYS`. Passing means "works out of the box".
//! * **planned** — the OS additionally applies the cheap remediation
//!   its support plan prescribes for this app: the measured stubbable
//!   classes stay `-ENOSYS` (deliberately now), the fake-only classes
//!   get fake shims ([`remediation_profile`]). No new syscalls are
//!   *implemented* — this is the "stub/fake work is enough" tier. An
//!   app that already passes vanilla needs no remediation, so its
//!   planned verdict is its vanilla verdict; the planned pass rate is
//!   therefore ≥ the vanilla rate per OS **by construction** (and a
//!   property test proves the aggregation preserves that).
//! * **full Linux** — the reference: the app's stored baseline already
//!   proved the workload passes on the full kernel. An app that fails
//!   even there can never be credited to a restricted tier.
//!
//! Each tier records the restricted kernel's boundary observations —
//! rejection/fake-hit counters and the *first rejected syscall* — so a
//! failing cell names its cause, and the analytical gap
//! ([`MatrixCell::missing_required`]) rides along for cross-checking.

use loupe_apps::{AppModel, Workload};
use loupe_core::exec::{run_app_observed, ExecEnv};
use loupe_core::TestScript;
use loupe_kernel::{KernelObservations, KernelProfile};
use loupe_syscalls::{SubFeatureKey, Sysno, SysnoSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

use crate::os::OsSpec;
use crate::requirement::AppRequirement;

/// A remediation tier of the compatibility matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Tier {
    /// Only the OS's implemented syscalls; everything else `-ENOSYS`.
    Vanilla,
    /// Vanilla plus the support plan's stub/fake guidance for the app.
    Planned,
}

impl Tier {
    /// Both tiers, in measurement order.
    pub const ALL: [Tier; 2] = [Tier::Vanilla, Tier::Planned];

    /// Short label used in CLI flags and report columns.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Vanilla => "vanilla",
            Tier::Planned => "planned",
        }
    }

    /// Parses a CLI label.
    pub fn from_label(label: &str) -> Option<Tier> {
        match label {
            "vanilla" => Some(Tier::Vanilla),
            "planned" => Some(Tier::Planned),
            _ => None,
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The measured outcome of one tier of one matrix cell.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierOutcome {
    /// The workload passed its test script under this tier's kernel.
    pub pass: bool,
    /// Per-syscall `-ENOSYS` rejections at the profile boundary.
    pub rejections: BTreeMap<Sysno, u64>,
    /// Per-syscall fake-overlay hits.
    pub fake_hits: BTreeMap<Sysno, u64>,
    /// The first rejected syscall — the failure cause to read first.
    pub first_rejection: Option<Sysno>,
    /// Per-sub-feature rejections: invocations whose decoded selector
    /// hit a hole of an otherwise-forwarded syscall (§5.4). Empty for
    /// cells stored before partial fidelity existed.
    #[serde(default)]
    pub flag_rejections: Vec<(SubFeatureKey, u64)>,
    /// Per-sub-feature fake-overlay hits.
    #[serde(default)]
    pub flag_fake_hits: Vec<(SubFeatureKey, u64)>,
    /// The first sub-feature rejected at the boundary — when the failure
    /// cause is a flag of an implemented syscall, this names it (and
    /// `first_rejection` may be `None`: the syscall itself was fine).
    #[serde(default)]
    pub first_rejected_flag: Option<SubFeatureKey>,
}

impl TierOutcome {
    /// Bundles a pass/fail verdict with the kernel's observations.
    pub fn new(pass: bool, observations: Option<KernelObservations>) -> TierOutcome {
        let obs = observations.unwrap_or_default();
        TierOutcome {
            pass,
            rejections: obs.rejections,
            fake_hits: obs.fake_hits,
            first_rejection: obs.first_rejection,
            flag_rejections: obs.flag_rejections,
            flag_fake_hits: obs.flag_fake_hits,
            first_rejected_flag: obs.first_rejected_flag,
        }
    }

    /// The failure cause to display: the first rejected *flag* when the
    /// boundary saw one before (or instead of) a whole-syscall
    /// rejection, else the first rejected syscall. A flag rejection is
    /// the more precise attribution — "`fcntl:F_SETFL`", not "`fcntl`".
    pub fn first_cause(&self) -> Option<String> {
        self.first_rejected_flag
            .map(|k| k.to_string())
            .or_else(|| self.first_rejection.map(|s| s.name().to_owned()))
    }
}

/// One cell of the fleet × OS compatibility matrix: the empirical
/// verdicts for `(os, app, workload)` under every measured tier.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatrixCell {
    /// Target OS (a curated [`OsSpec`] name).
    pub os: String,
    /// Application name.
    pub app: String,
    /// Workload measured.
    pub workload: Workload,
    /// The full-Linux reference: the stored baseline measurement passed.
    /// A cell with `linux_pass == false` never credits a restricted
    /// tier — broken-on-Linux software says nothing about the OS.
    pub linux_pass: bool,
    /// Required syscalls (plan-required, incl. fallbacks) the OS does
    /// not implement — the *analytical* failure cause next to the
    /// empirical one.
    pub missing_required: SysnoSet,
    /// Required sub-features that fall into the OS's per-flag holes —
    /// the flag-granular analytical gap. Non-empty exactly when the OS
    /// implements a syscall the app needs but not the *operation* the
    /// app needs it for.
    #[serde(default)]
    pub missing_required_flags: Vec<SubFeatureKey>,
    /// The vanilla-tier verdict, when that tier was measured.
    pub vanilla: Option<TierOutcome>,
    /// The planned-tier verdict, when that tier was measured.
    pub planned: Option<TierOutcome>,
}

impl MatrixCell {
    /// Whether the tier passed (`false` when unmeasured).
    pub fn passes(&self, tier: Tier) -> bool {
        let outcome = match tier {
            Tier::Vanilla => &self.vanilla,
            Tier::Planned => &self.planned,
        };
        outcome.as_ref().is_some_and(|t| t.pass)
    }

    /// The best-known planned-tier verdict: the measured planned outcome
    /// when present, otherwise the vanilla outcome as a **lower bound**
    /// (applying the plan never removes behaviour, so an app passing
    /// vanilla passes planned; an unmeasured planned tier of a
    /// vanilla-failing app stays "not passing" until measured). This is
    /// what aggregation reports, so a `--tier vanilla` sweep can never
    /// make the "with plan" rate dip below "out of the box".
    pub fn planned_at_least(&self) -> bool {
        match &self.planned {
            Some(t) => t.pass,
            None => self.passes(Tier::Vanilla),
        }
    }

    /// The structural invariants every stored cell honours: a restricted
    /// tier never passes where full Linux fails, and the planned tier
    /// never regresses below vanilla.
    pub fn invariants_hold(&self) -> bool {
        let tiers_ok =
            self.linux_pass || (!self.passes(Tier::Vanilla) && !self.passes(Tier::Planned));
        let monotone = !self.passes(Tier::Vanilla) || self.planned_at_least();
        tiers_ok && monotone
    }
}

/// The vanilla-tier kernel profile for an OS: exactly its implemented
/// syscalls — with the spec's per-flag holes carried over — and nothing
/// stubbed or faked on purpose.
pub fn vanilla_profile(os: &OsSpec) -> KernelProfile {
    let mut profile = KernelProfile::new(os.name.clone(), os.supported.clone());
    for (sysno, holes) in &os.partial {
        profile.set_partial(*sysno, holes.clone());
    }
    profile
}

/// The planned-tier kernel profile for one app on an OS: the support
/// plan's stub/fake guidance translated into the kernel's overlay sets.
/// Measured stubbable classes the OS lacks are stubbed (answering
/// `-ENOSYS` deliberately — behaviourally identical to vanilla, but now
/// a recorded decision), fake-only classes get fake shims. Nothing new
/// is implemented: that is precisely what makes this tier *cheap*.
/// At flag granularity the same logic applies to the OS's holes: holes
/// on measured-stubbable flags are recorded as deliberate stubs (a hole
/// already answers a rejection, so behaviour is unchanged — the plan
/// merely signs off on it), holes on fake-only flags get fake shims.
/// Holes on *required* flags stay open: no cheap remediation fixes
/// those, and the planned tier is allowed to fail on them.
pub fn remediation_profile(os: &OsSpec, req: &AppRequirement) -> KernelProfile {
    let mut profile = KernelProfile::new(
        format!("{}+plan[{}]", os.name, req.app),
        os.supported.clone(),
    );
    profile.stubbed = req.stubbable.difference(&os.supported);
    profile.faked = req.fake_only.difference(&os.supported);
    for (sysno, holes) in &os.partial {
        profile.set_partial(*sysno, holes.clone());
    }
    let holes = os.all_holes();
    profile.stubbed_flags = req
        .stubbable_flags
        .iter()
        .filter(|k| holes.contains(k))
        .copied()
        .collect();
    profile.faked_flags = req
        .fake_only_flags
        .iter()
        .filter(|k| holes.contains(k))
        .copied()
        .collect();
    profile
}

/// Measures one matrix cell: runs the vanilla tier and — unless
/// `tier` restricts the measurement to vanilla only — the planned tier.
/// `linux_pass` is the stored full-Linux baseline verdict; when it is
/// `false` the restricted tiers are recorded as failing without running
/// (nothing a compatibility layer does can fix broken software).
///
/// `baseline_features` is the full-Linux baseline's feature-health map
/// (`AppReport::baseline.features`): on suite workloads, a restricted
/// run that breaks a baseline-healthy feature fails the cell — exactly
/// the judgement the measuring engine applied when classifying the
/// syscall, so matrix verdicts and classifications agree.
///
/// The planned tier reuses the vanilla verdict when vanilla already
/// passes: the plan prescribes no work for an app that runs out of the
/// box, so its planned kernel *is* the vanilla kernel.
#[allow(clippy::too_many_arguments)]
pub fn measure_cell(
    os: &OsSpec,
    req: &AppRequirement,
    app: &dyn AppModel,
    workload: Workload,
    linux_pass: bool,
    tier: Option<Tier>,
    script: &TestScript,
    baseline_features: Option<&BTreeMap<String, bool>>,
) -> MatrixCell {
    let run = |profile: KernelProfile| -> TierOutcome {
        if !linux_pass {
            // Broken-on-Linux software says nothing about the OS: record
            // the failure without running (and without attributing a
            // spurious "first rejection" to the profile).
            return TierOutcome::default();
        }
        let env = ExecEnv::Restricted(Box::new(profile));
        let (outcome, obs) = run_app_observed(&env, app, workload);
        let pass = script
            .evaluate(&outcome, workload, baseline_features)
            .success;
        TierOutcome::new(pass, obs)
    };

    let vanilla = run(vanilla_profile(os));
    let planned = match tier {
        Some(Tier::Vanilla) => None,
        _ if vanilla.pass => Some(vanilla.clone()),
        _ => Some(run(remediation_profile(os, req))),
    };
    MatrixCell {
        os: os.name.clone(),
        app: req.app.clone(),
        workload,
        linux_pass,
        missing_required: req.required.difference(&os.supported),
        missing_required_flags: req.missing_required_flags(&os.all_holes()),
        vanilla: Some(vanilla),
        planned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os;
    use loupe_apps::registry;
    use loupe_core::{AnalysisConfig, Engine};

    fn requirement(app: &str, workload: Workload) -> AppRequirement {
        let model = registry::find(app).unwrap();
        let report = Engine::new(AnalysisConfig::fast())
            .analyze(model.as_ref(), workload)
            .unwrap();
        AppRequirement::from_report(&report)
    }

    #[test]
    fn tier_labels_roundtrip() {
        for tier in Tier::ALL {
            assert_eq!(Tier::from_label(tier.label()), Some(tier));
        }
        assert_eq!(Tier::from_label("nosuch"), None);
        assert_eq!(Tier::Vanilla.to_string(), "vanilla");
    }

    #[test]
    fn remediation_profile_translates_plan_guidance() {
        let spec = os::find("kerla").unwrap();
        let req = requirement("redis", Workload::HealthCheck);
        let profile = remediation_profile(&spec, &req);
        assert_eq!(
            profile.implemented, spec.supported,
            "nothing new implemented"
        );
        assert!(profile.stubbed.is_subset(&req.stubbable));
        assert!(profile.faked.is_subset(&req.fake_only));
        assert!(
            profile.stubbed.intersection(&spec.supported).is_empty(),
            "already-implemented syscalls are not shimmed"
        );
        assert!(profile.faked.intersection(&spec.supported).is_empty());
    }

    #[test]
    fn redis_on_kerla_fails_vanilla_with_a_named_cause() {
        let spec = os::find("kerla").unwrap();
        let workload = Workload::HealthCheck;
        let req = requirement("redis", workload);
        let app = registry::find("redis").unwrap();
        let cell = measure_cell(
            &spec,
            &req,
            app.as_ref(),
            workload,
            true,
            None,
            &TestScript::new(),
            None,
        );
        let vanilla = cell.vanilla.as_ref().unwrap();
        assert!(!vanilla.pass, "kerla's 58 syscalls do not run redis");
        assert!(
            vanilla.first_rejection.is_some(),
            "the failure names the first rejected syscall"
        );
        assert!(!cell.missing_required.is_empty());
        assert!(cell.invariants_hold());
        let json = serde_json::to_string(&cell).unwrap();
        let back: MatrixCell = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cell);
    }

    #[test]
    fn a_full_surface_os_passes_both_tiers_and_reuses_vanilla() {
        let full = OsSpec::new("everything", "1", Sysno::all().collect());
        let workload = Workload::HealthCheck;
        let req = requirement("weborf", workload);
        let app = registry::find("weborf").unwrap();
        let cell = measure_cell(
            &full,
            &req,
            app.as_ref(),
            workload,
            true,
            None,
            &TestScript::new(),
            None,
        );
        assert!(cell.passes(Tier::Vanilla));
        assert!(cell.passes(Tier::Planned));
        assert_eq!(
            cell.vanilla, cell.planned,
            "no remediation needed: planned is the vanilla verdict"
        );
        assert!(cell.missing_required.is_empty());
        assert!(cell.invariants_hold());
    }

    #[test]
    fn a_linux_failure_discredits_every_restricted_tier() {
        let full = OsSpec::new("everything", "1", Sysno::all().collect());
        let workload = Workload::HealthCheck;
        let req = requirement("weborf", workload);
        let app = registry::find("weborf").unwrap();
        let cell = measure_cell(
            &full,
            &req,
            app.as_ref(),
            workload,
            false,
            None,
            &TestScript::new(),
            None,
        );
        assert!(!cell.linux_pass);
        assert!(!cell.passes(Tier::Vanilla));
        assert!(!cell.passes(Tier::Planned));
        assert!(!cell.planned_at_least());
        assert!(cell.invariants_hold());
        // The restricted runs are skipped entirely: no boundary counters
        // are attributed to a profile the app never meaningfully ran on.
        let vanilla = cell.vanilla.as_ref().unwrap();
        assert!(vanilla.rejections.is_empty() && vanilla.first_rejection.is_none());
    }

    #[test]
    fn tier_filter_skips_the_planned_run() {
        let spec = os::find("kerla").unwrap();
        let workload = Workload::HealthCheck;
        let req = requirement("redis", workload);
        let app = registry::find("redis").unwrap();
        let cell = measure_cell(
            &spec,
            &req,
            app.as_ref(),
            workload,
            true,
            Some(Tier::Vanilla),
            &TestScript::new(),
            None,
        );
        assert!(cell.vanilla.is_some());
        assert!(cell.planned.is_none());
        assert!(!cell.passes(Tier::Planned), "unmeasured tier never passes");
    }
}
