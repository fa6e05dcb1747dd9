//! Pluggable execution environments: which kernel hosts a run.
//!
//! The engine used to hard-code `LinuxSim::new()` as the substrate of
//! every run. [`ExecEnv`] extracts that choice into the analysis
//! configuration so the same measurement pipeline — discovery, probes,
//! confirmation, bisection — can run against *any* kernel surface:
//!
//! * [`ExecEnv::Linux`] — the full-featured simulated Linux (the
//!   paper's measurement substrate, and the default);
//! * [`ExecEnv::Restricted`] — a [`RestrictedKernel`] enforcing a
//!   [`KernelProfile`], emulating an OS under development mid-way
//!   through an incremental support plan (§4.1). Unimplemented syscalls
//!   return `-ENOSYS`; per-step stub/fake overlays answer at the
//!   boundary.
//!
//! The environment is part of [`AnalysisConfig`](crate::AnalysisConfig)
//! and serialises with it, so a stored configuration fully describes
//! what a measurement ran on.

use loupe_apps::model::AppOutcome;
use loupe_apps::{AppModel, Env, Exit, Workload};
use loupe_kernel::{
    HostPort, Invocation, Kernel, KernelObservations, KernelProfile, LinuxSim, ResourceUsage,
    RestrictedKernel, SysOutcome,
};
use serde::{Deserialize, Serialize};

/// The kernel configuration hosting analysis runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum ExecEnv {
    /// The full simulated Linux kernel.
    #[default]
    Linux,
    /// A kernel restricted to an OS support profile (boxed: a profile
    /// carries several inline syscall bitmaps).
    Restricted(Box<KernelProfile>),
}

impl ExecEnv {
    /// Human-readable environment name (report headers, CLI output).
    pub fn name(&self) -> &str {
        match self {
            ExecEnv::Linux => "linux",
            ExecEnv::Restricted(profile) => &profile.name,
        }
    }

    /// Builds a fresh, provisioned kernel for one run of `app` — the
    /// containerised-replica analogue: every run starts from the same
    /// clean state (§3.1).
    pub fn build(&self, app: &dyn AppModel) -> HostKernel {
        let mut sim = LinuxSim::new();
        app.provision(&mut sim);
        match self {
            ExecEnv::Linux => HostKernel::Linux(sim),
            ExecEnv::Restricted(profile) => {
                HostKernel::Restricted(RestrictedKernel::new(sim, KernelProfile::clone(profile)))
            }
        }
    }
}

/// The kernel an [`ExecEnv`] builds: a closed enum rather than a boxed
/// trait object, so the engine's per-syscall hot path (every probe of
/// every app in a fleet sweep) stays a branch instead of a vtable call.
// One `HostKernel` exists per probe execution — never in bulk storage —
// so the variant size gap (the restricted kernel carries its profile's
// per-flag support map inline) costs nothing, while boxing it would put
// an indirection on the very hot path this enum exists to keep flat.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum HostKernel {
    /// A full simulated Linux.
    Linux(LinuxSim),
    /// A profile-restricted kernel.
    Restricted(RestrictedKernel<LinuxSim>),
}

impl HostKernel {
    /// What the hosting environment observed at its boundary: rejection
    /// and fake-hit counters for a restricted kernel, `None` for the
    /// full Linux kernel (nothing is ever rejected there).
    pub fn observations(&self) -> Option<KernelObservations> {
        match self {
            HostKernel::Linux(_) => None,
            HostKernel::Restricted(k) => Some(k.observations().clone()),
        }
    }
}

macro_rules! delegate {
    ($self:ident, $k:ident => $e:expr) => {
        match $self {
            HostKernel::Linux($k) => $e,
            HostKernel::Restricted($k) => $e,
        }
    };
}

impl Kernel for HostKernel {
    fn syscall(&mut self, inv: &Invocation) -> SysOutcome {
        delegate!(self, k => k.syscall(inv))
    }

    fn charge(&mut self, cost: u64) {
        delegate!(self, k => k.charge(cost));
    }

    fn now(&self) -> u64 {
        delegate!(self, k => k.now())
    }

    fn usage(&self) -> ResourceUsage {
        delegate!(self, k => k.usage())
    }

    fn host_mut(&mut self) -> &mut HostPort {
        delegate!(self, k => k.host_mut())
    }

    fn mem_store(&mut self, addr: u64, val: u32) {
        delegate!(self, k => k.mem_store(addr, val));
    }

    fn mem_load(&self, addr: u64) -> u32 {
        delegate!(self, k => k.mem_load(addr))
    }
}

/// Runs `app` once under `workload` in `env`, uninterposed — the
/// building block of support-plan validation, where the *environment*
/// (not a probe policy) is the experiment.
pub fn run_app(env: &ExecEnv, app: &dyn AppModel, workload: Workload) -> AppOutcome {
    run_app_observed(env, app, workload).0
}

/// Like [`run_app`], but also returns what the environment observed at
/// its boundary — the per-syscall rejection/fake-hit counters and the
/// first rejected syscall of a restricted kernel (`None` on Linux).
/// The fleet × OS compatibility matrix uses this to answer not just
/// *whether* an app runs on an OS profile, but *what it trips on*.
pub fn run_app_observed(
    env: &ExecEnv,
    app: &dyn AppModel,
    workload: Workload,
) -> (AppOutcome, Option<KernelObservations>) {
    let mut kernel = env.build(app);
    let outcome = {
        let mut app_env = Env::new(&mut kernel);
        match app.run(&mut app_env, workload) {
            Ok(()) => app_env.finish(Exit::Clean),
            Err(e) => app_env.finish(e),
        }
    };
    let observations = kernel.observations();
    (outcome, observations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::TestScript;
    use loupe_apps::registry;
    use loupe_syscalls::{Sysno, SysnoSet};

    #[test]
    fn linux_env_hosts_a_passing_run() {
        let app = registry::find("hello-musl-static").unwrap();
        let outcome = run_app(&ExecEnv::Linux, app.as_ref(), Workload::HealthCheck);
        let verdict = TestScript::new().evaluate(&outcome, Workload::HealthCheck, None);
        assert!(verdict.success, "{:?}", verdict.reasons);
    }

    #[test]
    fn empty_restricted_env_fails_real_apps() {
        let app = registry::find("redis").unwrap();
        let env = ExecEnv::Restricted(Box::new(KernelProfile::new("bare-metal", SysnoSet::new())));
        let outcome = run_app(&env, app.as_ref(), Workload::HealthCheck);
        let verdict = TestScript::new().evaluate(&outcome, Workload::HealthCheck, None);
        assert!(!verdict.success, "no syscalls, no service");
    }

    #[test]
    fn restricted_env_with_full_surface_matches_linux() {
        let app = registry::find("hello-musl-static").unwrap();
        let full: SysnoSet = Sysno::all().collect();
        let env = ExecEnv::Restricted(Box::new(KernelProfile::new("everything", full)));
        let restricted = run_app(&env, app.as_ref(), Workload::HealthCheck);
        let linux = run_app(&ExecEnv::Linux, app.as_ref(), Workload::HealthCheck);
        assert_eq!(restricted, linux, "a full profile is transparent");
    }

    #[test]
    fn observed_runs_surface_boundary_counters() {
        let app = registry::find("redis").unwrap();
        // Linux observes nothing: there is no boundary to trip on.
        let (_, obs) = run_app_observed(&ExecEnv::Linux, app.as_ref(), Workload::HealthCheck);
        assert!(obs.is_none());
        // An empty profile rejects the very first syscall the app makes.
        let env = ExecEnv::Restricted(Box::new(KernelProfile::new("bare", SysnoSet::new())));
        let (outcome, obs) = run_app_observed(&env, app.as_ref(), Workload::HealthCheck);
        let obs = obs.expect("restricted runs observe");
        assert!(obs.total_rejections() > 0, "{obs:?}");
        assert!(
            obs.first_rejection.map(|s| obs.rejections[&s]).unwrap_or(0) > 0,
            "first rejection is a counted rejection"
        );
        let verdict = TestScript::new().evaluate(&outcome, Workload::HealthCheck, None);
        assert!(!verdict.success);
    }

    #[test]
    fn exec_env_serde_roundtrip_and_default() {
        assert_eq!(ExecEnv::default(), ExecEnv::Linux);
        let env = ExecEnv::Restricted(Box::new(KernelProfile::new(
            "kerla",
            [Sysno::read, Sysno::write].into_iter().collect(),
        )));
        let json = serde_json::to_string(&env).unwrap();
        let back: ExecEnv = serde_json::from_str(&json).unwrap();
        assert_eq!(env, back);
        assert_eq!(back.name(), "kerla");
        assert_eq!(ExecEnv::Linux.name(), "linux");
    }
}
