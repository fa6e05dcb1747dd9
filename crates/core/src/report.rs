//! Analysis reports: Loupe's measurement output for one (app, workload).

use std::collections::BTreeMap;

use loupe_apps::Workload;
use loupe_syscalls::{SubFeatureKey, Sysno, SysnoSet};
use serde::{Deserialize, Serialize};

/// Classification of one feature (syscall, sub-feature or pseudo-file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureClass {
    /// The workload passes with the feature stubbed (`-ENOSYS`).
    pub stub_ok: bool,
    /// The workload passes with the feature faked (success, no work).
    pub fake_ok: bool,
}

impl FeatureClass {
    /// Neither stubbing nor faking works: the feature must be implemented.
    pub fn is_required(self) -> bool {
        !self.stub_ok && !self.fake_ok
    }

    /// The feature's implementation can be avoided one way or the other.
    pub fn is_avoidable(self) -> bool {
        self.stub_ok || self.fake_ok
    }

    /// Paper terminology for figures: `required`, `stubbed`, `faked`,
    /// `any`.
    pub fn label(self) -> &'static str {
        match (self.stub_ok, self.fake_ok) {
            (false, false) => "required",
            (true, false) => "stubbed",
            (false, true) => "faked",
            (true, true) => "any",
        }
    }
}

/// Measured impact of one stub/fake run that *passed* the test script —
/// the Table 2 annotations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Impact {
    /// Did the run pass the *final* verdict — test script plus the
    /// engine's perf-policy and log-anomaly checks? This is the value the
    /// classification is built from, so report and classes always agree.
    pub success: bool,
    /// The raw test-script pass/fail, before policy checks; `None` in
    /// entries recorded before this field existed. Under
    /// `PerfPolicy::Strict` a run can pass its tests yet be disqualified
    /// (`!success`) by a perf deviation — see [`Impact::policy_disqualified`].
    #[serde(default)]
    pub tests_passed: Option<bool>,
    /// Relative throughput change vs baseline (`+0.15` = 15% faster).
    pub perf_delta: f64,
    /// Relative peak-RSS change vs baseline.
    pub rss_delta: f64,
    /// Relative peak-FD change vs baseline.
    pub fd_delta: f64,
}

impl Impact {
    /// The run passed its test script but a policy check (strict perf
    /// deviation, log anomaly) disqualified it anyway — the rows a user
    /// investigating "why is this feature required?" wants to see first.
    pub fn policy_disqualified(&self) -> bool {
        !self.success && self.tests_passed == Some(true)
    }

    /// Whether any metric moved outside `epsilon` (Table 2's >3% filter).
    pub fn is_notable(&self, epsilon: f64) -> bool {
        self.perf_delta.abs() > epsilon
            || self.rss_delta.abs() > epsilon
            || self.fd_delta.abs() > epsilon
    }
}

/// Stub and fake impacts for one syscall.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ImpactRecord {
    /// Impact of the stub run (None if never measured).
    pub stub: Option<Impact>,
    /// Impact of the fake run.
    pub fake: Option<Impact>,
}

/// Baseline (full-kernel) metrics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BaselineStats {
    /// Mean throughput across replicas.
    pub throughput: f64,
    /// Peak RSS in bytes.
    pub peak_rss: u64,
    /// Peak open file descriptors.
    pub peak_fds: u32,
    /// Virtual time one run takes (the `t` of the §3.3 formula).
    pub run_time: u64,
    /// Feature-health map of the baseline runs — the reference the test
    /// script holds suite workloads to (a healthy baseline feature that
    /// breaks on a restricted kernel fails the run). Persisted so
    /// downstream consumers (the OS matrix, conformance generation) can
    /// judge restricted runs exactly like the measuring engine did.
    #[serde(default)]
    pub features: BTreeMap<String, bool>,
}

/// The complete analysis result for one application under one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppReport {
    /// Application name.
    pub app: String,
    /// Application version (for the shared database).
    pub version: String,
    /// Workload analysed.
    pub workload: Workload,
    /// Name of the execution environment the measurement ran on
    /// ([`ExecEnv::name`](crate::ExecEnv::name)): `"linux"` for the full
    /// simulated kernel — the only environment whose reports are valid
    /// full-Linux baselines — or the profile name of a restricted
    /// kernel. Entries stored before this field existed deserialise to
    /// the empty string and are conservatively *not* treated as
    /// baselines: the database rejects them and the sweep re-measures.
    #[serde(default)]
    pub env: String,
    /// Invocation counts for every traced syscall.
    pub traced: BTreeMap<Sysno, u64>,
    /// Per-syscall classification.
    pub classes: BTreeMap<Sysno, FeatureClass>,
    /// Syscalls the confirmed combined stub/fake policy passed through
    /// to the kernel although the baseline never traced them: fallback
    /// paths activated by stubbing/faking (e.g. `epoll_create` once
    /// `epoll_create1` is stubbed). Effectively required by any OS that
    /// relies on this report's stub/fake classification.
    #[serde(default)]
    pub fallbacks: SysnoSet,
    /// Per-syscall counts of invocations the execution environment
    /// answered `-ENOSYS` at its boundary during the discovery runs —
    /// empty on Linux (nothing is rejected there), the first diagnostic
    /// to read for a restricted-kernel measurement. Collected by
    /// [`RestrictedKernel`](loupe_kernel::RestrictedKernel); before this
    /// field existed the counters died with the kernel.
    #[serde(default)]
    pub rejections: BTreeMap<Sysno, u64>,
    /// Per-syscall counts of invocations the environment's fake overlay
    /// answered during the discovery runs (restricted kernels only).
    #[serde(default)]
    pub fake_hits: BTreeMap<Sysno, u64>,
    /// The first syscall the environment rejected, if any — "what did
    /// the run trip on first?".
    #[serde(default)]
    pub first_rejection: Option<Sysno>,
    /// Per-syscall perf/resource impact annotations.
    pub impacts: BTreeMap<Sysno, ImpactRecord>,
    /// Per-sub-feature classification (vectored syscalls, §5.4).
    pub sub_features: Vec<(SubFeatureKey, FeatureClass)>,
    /// Per-pseudo-file classification (§3.3).
    pub pseudo_files: BTreeMap<String, FeatureClass>,
    /// Features that were individually avoidable but conflicted in the
    /// combined run and had to be re-marked required (found by the
    /// engine's automatic bisection).
    #[serde(default)]
    pub conflicts: Vec<Sysno>,
    /// Whether the final combined run confirmed the per-feature analysis.
    pub confirmed: bool,
    /// Baseline metrics.
    pub baseline: BaselineStats,
    /// Analysis cost accounting (the §3.3 run-count formula).
    pub stats: crate::engine::RunStats,
}

/// The canonical name of the full-Linux execution environment.
pub const LINUX_ENV: &str = "linux";

impl AppReport {
    /// Whether this report was measured on the full simulated Linux
    /// kernel — the precondition for serving it as a dynamic baseline
    /// (a restricted-kernel measurement under-traces by construction).
    pub fn is_linux_baseline(&self) -> bool {
        self.env == LINUX_ENV
    }

    /// Every syscall traced under the workload.
    pub fn traced(&self) -> SysnoSet {
        self.traced.keys().copied().collect()
    }

    /// Syscalls that must be implemented (neither stub nor fake passes).
    pub fn required(&self) -> SysnoSet {
        self.classes
            .iter()
            .filter(|(_, c)| c.is_required())
            .map(|(s, _)| *s)
            .collect()
    }

    /// Everything an OS must implement for this report's stub/fake
    /// conclusions to hold: the required classes plus the fallback
    /// syscalls the combined policy exercised — the set support plans
    /// build on.
    pub fn plan_required(&self) -> SysnoSet {
        self.required().union(&self.fallbacks)
    }

    /// Syscalls that pass when stubbed.
    pub fn stubbable(&self) -> SysnoSet {
        self.classes
            .iter()
            .filter(|(_, c)| c.stub_ok)
            .map(|(s, _)| *s)
            .collect()
    }

    /// Syscalls that pass when faked.
    pub fn fakeable(&self) -> SysnoSet {
        self.classes
            .iter()
            .filter(|(_, c)| c.fake_ok)
            .map(|(s, _)| *s)
            .collect()
    }

    /// Syscalls that *only* pass when faked: the fake run succeeded but
    /// the stub run did not, so a compatibility layer must provide at
    /// least a plausible success value — `-ENOSYS` is not tolerated.
    pub fn fake_only(&self) -> SysnoSet {
        self.fakeable().difference(&self.stubbable())
    }

    /// Syscalls that pass when either stubbed or faked.
    pub fn avoidable(&self) -> SysnoSet {
        self.classes
            .iter()
            .filter(|(_, c)| c.is_avoidable())
            .map(|(s, _)| *s)
            .collect()
    }

    /// Syscalls whose stub or fake run passed but moved a metric by more
    /// than `epsilon` — the rows of Table 2.
    pub fn notable_impacts(&self, epsilon: f64) -> Vec<(Sysno, ImpactRecord)> {
        self.impacts
            .iter()
            .filter(|(_, rec)| {
                rec.stub
                    .map(|i| i.success && i.is_notable(epsilon))
                    .unwrap_or(false)
                    || rec
                        .fake
                        .map(|i| i.success && i.is_notable(epsilon))
                        .unwrap_or(false)
            })
            .map(|(s, rec)| (*s, *rec))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_labels() {
        assert_eq!(
            FeatureClass {
                stub_ok: false,
                fake_ok: false
            }
            .label(),
            "required"
        );
        assert_eq!(
            FeatureClass {
                stub_ok: true,
                fake_ok: false
            }
            .label(),
            "stubbed"
        );
        assert_eq!(
            FeatureClass {
                stub_ok: false,
                fake_ok: true
            }
            .label(),
            "faked"
        );
        assert_eq!(
            FeatureClass {
                stub_ok: true,
                fake_ok: true
            }
            .label(),
            "any"
        );
        assert!(FeatureClass {
            stub_ok: false,
            fake_ok: false
        }
        .is_required());
        assert!(FeatureClass {
            stub_ok: true,
            fake_ok: false
        }
        .is_avoidable());
    }

    #[test]
    fn impact_notability() {
        let i = Impact {
            success: true,
            tests_passed: Some(true),
            perf_delta: 0.15,
            rss_delta: 0.0,
            fd_delta: 0.0,
        };
        assert!(i.is_notable(0.03));
        let i = Impact {
            success: true,
            tests_passed: Some(true),
            perf_delta: 0.01,
            rss_delta: -0.02,
            fd_delta: 0.0,
        };
        assert!(!i.is_notable(0.03));
    }

    #[test]
    fn report_set_accessors() {
        let mut classes = BTreeMap::new();
        classes.insert(
            Sysno::read,
            FeatureClass {
                stub_ok: false,
                fake_ok: false,
            },
        );
        classes.insert(
            Sysno::sysinfo,
            FeatureClass {
                stub_ok: true,
                fake_ok: true,
            },
        );
        classes.insert(
            Sysno::prctl,
            FeatureClass {
                stub_ok: false,
                fake_ok: true,
            },
        );
        let report = AppReport {
            app: "x".into(),
            version: "1".into(),
            env: LINUX_ENV.into(),
            workload: Workload::Benchmark,
            traced: classes.keys().map(|s| (*s, 1)).collect(),
            classes,
            fallbacks: SysnoSet::new(),
            rejections: BTreeMap::new(),
            fake_hits: BTreeMap::new(),
            first_rejection: None,
            impacts: BTreeMap::new(),
            sub_features: vec![],
            pseudo_files: BTreeMap::new(),
            conflicts: vec![],
            confirmed: true,
            baseline: BaselineStats::default(),
            stats: crate::engine::RunStats::default(),
        };
        assert_eq!(report.traced().len(), 3);
        assert_eq!(report.required().len(), 1);
        assert_eq!(report.avoidable().len(), 2);
        assert!(report.fakeable().contains(Sysno::prctl));
        assert!(!report.stubbable().contains(Sysno::prctl));
    }

    #[test]
    fn report_serde_roundtrip() {
        let report = AppReport {
            app: "x".into(),
            version: "1".into(),
            env: LINUX_ENV.into(),
            workload: Workload::TestSuite,
            traced: [(Sysno::mmap, 7)].into_iter().collect(),
            classes: [(
                Sysno::mmap,
                FeatureClass {
                    stub_ok: false,
                    fake_ok: false,
                },
            )]
            .into_iter()
            .collect(),
            fallbacks: SysnoSet::new(),
            rejections: BTreeMap::new(),
            fake_hits: BTreeMap::new(),
            first_rejection: None,
            impacts: BTreeMap::new(),
            sub_features: vec![(
                loupe_syscalls::SubFeature::F_SETFD.key(),
                FeatureClass {
                    stub_ok: true,
                    fake_ok: true,
                },
            )],
            pseudo_files: [(
                "/dev/urandom".to_owned(),
                FeatureClass {
                    stub_ok: true,
                    fake_ok: true,
                },
            )]
            .into_iter()
            .collect(),
            conflicts: vec![],
            confirmed: true,
            baseline: BaselineStats::default(),
            stats: crate::engine::RunStats::default(),
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: AppReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        assert!(back.is_linux_baseline());
    }

    #[test]
    fn entries_predating_the_env_field_are_not_baselines() {
        // A stored report written before `env` existed deserialises with
        // an empty env and must not pass the baseline check (the db
        // layer then re-measures instead of serving it).
        let report = AppReport {
            app: "x".into(),
            version: "1".into(),
            env: LINUX_ENV.into(),
            workload: Workload::Benchmark,
            traced: BTreeMap::new(),
            classes: BTreeMap::new(),
            fallbacks: SysnoSet::new(),
            rejections: BTreeMap::new(),
            fake_hits: BTreeMap::new(),
            first_rejection: None,
            impacts: BTreeMap::new(),
            sub_features: vec![],
            pseudo_files: BTreeMap::new(),
            conflicts: vec![],
            confirmed: true,
            baseline: BaselineStats::default(),
            stats: crate::engine::RunStats::default(),
        };
        let json = serde_json::to_string(&report).unwrap();
        let legacy = json.replace("\"env\":\"linux\",", "");
        assert!(!legacy.contains("env"), "field really absent: {legacy}");
        let back: AppReport = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.env, "");
        assert!(!back.is_linux_baseline());
    }
}
