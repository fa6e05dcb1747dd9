//! Trace-driven conformance test generation: measurement corpora
//! compiled into *executable* per-application compatibility suites.
//!
//! The dynamic pipeline ends its life in rendered documentation
//! (`COMPATIBILITY.md`, `OS_MATRIX.md`). This crate turns the same
//! corpus — baseline traces, per-syscall stub/fake classifications,
//! fallback requirements and impact annotations — into something a
//! compatibility-layer developer can *run* against their kernel: a
//! minimal, deterministic [`ConformanceSuite`] of ordered
//! [`ConformanceCase`]s, each probing one syscall with an explicit
//! expectation.
//!
//! The suite is **minimal** by construction: only constraint-bearing
//! syscalls carry a case. Measured-required syscalls (and the fallback
//! requirements the combined stub/fake policy exercised) must be
//! *implemented*; fake-only syscalls may be implemented **or** shimmed
//! with a fake success value; stubbable syscalls carry no case at all —
//! `-ENOSYS` is tolerated everywhere, so probing them constrains
//! nothing. One harness case per suite additionally checks that
//! test-script helper invocations (`helper:` notes) bypass the profile
//! restriction, mirroring Loupe's measurement-host whitelist.
//!
//! Because every constraint is *positive* (membership of the profile's
//! implemented or implemented∪faked sets), growing a [`KernelProfile`]
//! can never flip a passing suite to failing — the monotonicity the
//! property tests pin down. And because the cases are generated from
//! the same classification the fleet × OS matrix executed, running the
//! suite on an OS's kernel profile must reproduce the matrix verdict
//! exactly — the self-validation the `loupe gentests` sweep stage and
//! the conformance meta-test enforce.

use serde::{Deserialize, Serialize};

use loupe_apps::Workload;
use loupe_core::AppReport;
use loupe_kernel::{Invocation, Kernel, KernelProfile, LinuxSim, RestrictedKernel};
use loupe_plan::{vanilla_profile, MatrixCell, OsSpec, Tier};
use loupe_syscalls::{Errno, SubFeatureKey, Sysno, SysnoSet};

/// The note tag of the suite's helper-bypass harness case. Anything
/// starting with `helper:` is whitelisted by [`RestrictedKernel`].
pub const HELPER_NOTE: &str = "helper:conformance";

/// Error margin above which a measured stub/fake impact is worth
/// annotating on a case (matches the report renderer's Table 2 margin).
const IMPACT_EPSILON: f64 = 0.03;

/// What a [`ConformanceCase`] demands of the kernel under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CaseExpectation {
    /// The syscall must be answered by a real implementation — neither
    /// `-ENOSYS` nor a fake shim satisfies the app here.
    Implemented,
    /// A real implementation or a fake success shim both pass (the
    /// measured fake tolerance); `-ENOSYS` does not.
    ImplementedOrFaked,
    /// A harness invocation tagged [`HELPER_NOTE`] must reach the
    /// backing kernel unrestricted (the measurement-host whitelist).
    HelperBypass,
}

/// Where a case came from in the measurement corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CaseOrigin {
    /// Classified required: stub and fake runs both failed.
    Required,
    /// A fallback requirement: untraced in the baseline, exercised by
    /// the confirmed combined stub/fake policy (e.g. `epoll_create`
    /// once `epoll_create1` is stubbed).
    Fallback,
    /// Classified fake-only: the stub run failed, the fake run passed.
    FakeOnly,
    /// Emitted by the generator's harness, not the app's measurements.
    Harness,
}

/// One executable conformance check: probe `sysno` and hold the kernel
/// to `expectation`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConformanceCase {
    /// The syscall probed.
    pub sysno: Sysno,
    /// What the kernel under test must do with it.
    pub expectation: CaseExpectation,
    /// Which part of the corpus demanded it.
    pub origin: CaseOrigin,
    /// Baseline invocation count (0 for fallback/harness cases) — the
    /// trace-driven ordering key: hot syscalls are probed first.
    pub calls: u64,
    /// A notable measured impact of the tolerated shim, when stored
    /// (e.g. a fake that passes tests but moves throughput).
    #[serde(default)]
    pub impact: Option<String>,
    /// When set, the case probes one *sub-feature* of `sysno` instead of
    /// the syscall as a whole (§5.4 partial fidelity): the probe places
    /// the key's selector in the decoding register, and the expectation
    /// is held against the flag's answer. `None` for suites stored
    /// before partial fidelity existed.
    #[serde(default)]
    pub sub_feature: Option<SubFeatureKey>,
}

impl ConformanceCase {
    /// The probe invocation this case issues.
    pub fn probe(&self) -> Invocation {
        let inv = match self.sub_feature {
            Some(key) => Invocation::for_sub_feature(key),
            None => Invocation::new(self.sysno, [0; 6]),
        };
        match self.expectation {
            CaseExpectation::HelperBypass => inv.with_note(HELPER_NOTE),
            _ => inv,
        }
    }
}

/// The two empirical verdicts the source matrix cell recorded, carried
/// inside the suite so it can re-validate itself anywhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpectedVerdicts {
    /// The vanilla-tier verdict, when that tier was measured.
    pub vanilla: Option<bool>,
    /// The planned-tier verdict (the vanilla one stands in when the
    /// planned tier was unmeasured but vanilla passed — applying the
    /// plan never removes behaviour).
    pub planned: Option<bool>,
}

/// A generated, executable conformance suite for one `(os, app,
/// workload)` cell of the compatibility matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConformanceSuite {
    /// Target OS the suite was generated against.
    pub os: String,
    /// Application whose corpus was compiled.
    pub app: String,
    /// Workload measured.
    pub workload: Workload,
    /// The stored full-Linux baseline verdict: a suite for software
    /// that fails even on Linux fails by fiat (nothing a compatibility
    /// layer does can fix it).
    pub linux_pass: bool,
    /// Syscalls the workload traced whose stub (`-ENOSYS`) is measured
    /// tolerable — deliberately **without** cases: the suite is minimal,
    /// and these constrain no profile. Recorded so the planned-tier
    /// profile can be reconstructed from the suite alone.
    pub tolerated_stubs: SysnoSet,
    /// Sub-features whose stub probe passed — the flag-granular
    /// tolerated set, case-free for the same minimality reason.
    /// Recorded (sorted) so the planned-tier profile's flag overlays can
    /// be reconstructed from the suite alone.
    #[serde(default)]
    pub tolerated_stub_flags: Vec<SubFeatureKey>,
    /// The matrix cell's empirical verdicts, for self-validation.
    pub expected: ExpectedVerdicts,
    /// The ordered cases: implemented-constraints first (hottest
    /// syscalls first), then fake tolerances, then the harness check.
    pub cases: Vec<ConformanceCase>,
}

/// The part of a [`ConformanceSuite`] that does not depend on the
/// target OS: everything but `os`, `expected` and `linux_pass`. The
/// suites of one `(app, workload)` share it across every OS, so it is
/// generated and stored once (`gentests/<workload>/<app>.json`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuiteBody {
    /// Application whose corpus was compiled.
    pub app: String,
    /// Workload measured.
    pub workload: Workload,
    /// As [`ConformanceSuite::tolerated_stubs`].
    pub tolerated_stubs: SysnoSet,
    /// As [`ConformanceSuite::tolerated_stub_flags`].
    #[serde(default)]
    pub tolerated_stub_flags: Vec<SubFeatureKey>,
    /// As [`ConformanceSuite::cases`].
    pub cases: Vec<ConformanceCase>,
}

impl ExpectedVerdicts {
    /// The verdicts a matrix cell recorded (both open without a cell).
    pub fn of(cell: Option<&MatrixCell>) -> ExpectedVerdicts {
        cell.map(|c| ExpectedVerdicts {
            vanilla: c.vanilla.as_ref().map(|t| t.pass),
            planned: match &c.planned {
                Some(t) => Some(t.pass),
                // The stored lower bound: a vanilla pass is a planned
                // pass; a vanilla failure leaves planned open.
                None => c.vanilla.as_ref().filter(|t| t.pass).map(|t| t.pass),
            },
        })
        .unwrap_or_default()
    }
}

/// What the kernel under test did with one case's probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseObservation {
    /// Forwarded to a real implementation.
    Forwarded,
    /// Answered by the fake overlay.
    Faked,
    /// Rejected with `-ENOSYS` at the profile boundary.
    Rejected,
}

/// One executed case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseRun {
    /// The syscall probed.
    pub sysno: Sysno,
    /// The sub-feature probed, for flag-granular cases.
    pub sub_feature: Option<SubFeatureKey>,
    /// The expectation held against it.
    pub expectation: CaseExpectation,
    /// What the kernel did.
    pub observed: CaseObservation,
    /// Whether the observation satisfies the expectation.
    pub pass: bool,
}

/// One executed suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteRun {
    /// Overall verdict: the Linux baseline passed and every case passed.
    pub pass: bool,
    /// Per-case outcomes, in suite order.
    pub cases: Vec<CaseRun>,
}

impl SuiteRun {
    /// The first failing case's syscall — "what did it trip on?".
    pub fn first_failure(&self) -> Option<Sysno> {
        self.cases.iter().find(|c| !c.pass).map(|c| c.sysno)
    }

    /// The first failing case, flag-precise: `fcntl:F_SETFL` when the
    /// trip was a sub-feature case, the syscall name otherwise.
    pub fn first_failure_cause(&self) -> Option<String> {
        self.cases
            .iter()
            .find(|c| !c.pass)
            .map(|c| match c.sub_feature {
                Some(key) => key.to_string(),
                None => c.sysno.name().to_owned(),
            })
    }
}

impl SuiteBody {
    /// Compiles an application's measurement corpus into the
    /// OS-independent part of its suites. `report` must be the stored
    /// full-Linux baseline the matrix cells were measured against.
    pub fn generate(report: &AppReport) -> SuiteBody {
        let required = report.required();
        let stubbable = report.stubbable();
        let fake_only = report.fake_only();
        let impacts: Vec<(Sysno, String)> = report
            .notable_impacts(IMPACT_EPSILON)
            .into_iter()
            .filter_map(|(s, rec)| {
                rec.fake
                    .filter(|i| i.success && i.is_notable(IMPACT_EPSILON))
                    .map(|i| {
                        (
                            s,
                            format!(
                                "fake passes but moves throughput {:+.0}%, rss {:+.0}%, fds {:+.0}%",
                                i.perf_delta * 100.0,
                                i.rss_delta * 100.0,
                                i.fd_delta * 100.0
                            ),
                        )
                    })
            })
            .collect();

        // Partition the measured sub-feature classes exactly as
        // `AppRequirement::from_report` does, so the suite's flag cases
        // mirror the planner's flag requirement sets.
        let mut required_flags: Vec<SubFeatureKey> = Vec::new();
        let mut tolerated_stub_flags: Vec<SubFeatureKey> = Vec::new();
        let mut fake_only_flags: Vec<SubFeatureKey> = Vec::new();
        for (key, class) in &report.sub_features {
            if class.stub_ok {
                tolerated_stub_flags.push(*key);
            } else if class.fake_ok {
                fake_only_flags.push(*key);
            } else {
                required_flags.push(*key);
            }
        }
        for v in [
            &mut required_flags,
            &mut tolerated_stub_flags,
            &mut fake_only_flags,
        ] {
            v.sort();
            v.dedup();
        }

        let calls_of = |s: Sysno| report.traced.get(&s).copied().unwrap_or(0);
        let mut implemented: Vec<ConformanceCase> = required
            .iter()
            .map(|s| ConformanceCase {
                sysno: s,
                expectation: CaseExpectation::Implemented,
                origin: CaseOrigin::Required,
                calls: calls_of(s),
                impact: None,
                sub_feature: None,
            })
            .chain(report.fallbacks.iter().map(|s| ConformanceCase {
                sysno: s,
                expectation: CaseExpectation::Implemented,
                origin: CaseOrigin::Fallback,
                calls: calls_of(s),
                impact: None,
                sub_feature: None,
            }))
            .collect();
        implemented.sort_by(|a, b| b.calls.cmp(&a.calls).then(a.sysno.cmp(&b.sysno)));
        // Flag-granular Implemented cases ride after the syscall-level
        // block, busiest parent syscall first.
        let mut implemented_flags: Vec<ConformanceCase> = required_flags
            .iter()
            .map(|key| ConformanceCase {
                sysno: key.sysno(),
                expectation: CaseExpectation::Implemented,
                origin: CaseOrigin::Required,
                calls: calls_of(key.sysno()),
                impact: None,
                sub_feature: Some(*key),
            })
            .collect();
        implemented_flags.sort_by(|a, b| {
            b.calls
                .cmp(&a.calls)
                .then(a.sub_feature.cmp(&b.sub_feature))
        });
        implemented.extend(implemented_flags);

        let mut faked: Vec<ConformanceCase> = fake_only
            .iter()
            .map(|s| ConformanceCase {
                sysno: s,
                expectation: CaseExpectation::ImplementedOrFaked,
                origin: CaseOrigin::FakeOnly,
                calls: calls_of(s),
                impact: impacts
                    .iter()
                    .find(|(is, _)| *is == s)
                    .map(|(_, note)| note.clone()),
                sub_feature: None,
            })
            .collect();
        faked.sort_by(|a, b| b.calls.cmp(&a.calls).then(a.sysno.cmp(&b.sysno)));
        let mut faked_flags: Vec<ConformanceCase> = fake_only_flags
            .iter()
            .map(|key| ConformanceCase {
                sysno: key.sysno(),
                expectation: CaseExpectation::ImplementedOrFaked,
                origin: CaseOrigin::FakeOnly,
                calls: calls_of(key.sysno()),
                impact: None,
                sub_feature: Some(*key),
            })
            .collect();
        faked_flags.sort_by(|a, b| {
            b.calls
                .cmp(&a.calls)
                .then(a.sub_feature.cmp(&b.sub_feature))
        });
        faked.extend(faked_flags);

        let mut cases = implemented;
        cases.extend(faked);
        cases.push(ConformanceCase {
            sysno: Sysno::getpid,
            expectation: CaseExpectation::HelperBypass,
            origin: CaseOrigin::Harness,
            calls: 0,
            impact: None,
            sub_feature: None,
        });

        SuiteBody {
            app: report.app.clone(),
            workload: report.workload,
            tolerated_stubs: stubbable,
            tolerated_stub_flags,
            cases,
        }
    }
}

impl ConformanceSuite {
    /// Compiles an application's measurement corpus into a suite for
    /// one OS. `report` must be the stored full-Linux baseline the
    /// matrix cell was measured against; `cell` supplies the empirical
    /// verdicts the suite will validate itself against (`None` leaves
    /// the expectations open, e.g. for an OS the matrix has not swept).
    pub fn generate(
        os: &OsSpec,
        report: &AppReport,
        cell: Option<&MatrixCell>,
    ) -> ConformanceSuite {
        ConformanceSuite::assemble(&os.name, SuiteBody::generate(report), cell)
    }

    /// The suite for `os` built from a shared body: `cell`, the matrix
    /// cell of the same `(os, app, workload)`, supplies the expected
    /// verdicts and the Linux baseline verdict, exactly as
    /// [`generate`](Self::generate) takes them.
    pub fn assemble(os: &str, body: SuiteBody, cell: Option<&MatrixCell>) -> ConformanceSuite {
        ConformanceSuite {
            os: os.to_owned(),
            app: body.app,
            workload: body.workload,
            linux_pass: cell.is_none_or(|c| c.linux_pass),
            tolerated_stubs: body.tolerated_stubs,
            tolerated_stub_flags: body.tolerated_stub_flags,
            expected: ExpectedVerdicts::of(cell),
            cases: body.cases,
        }
    }

    /// The suite's OS-independent part.
    pub fn body(&self) -> SuiteBody {
        SuiteBody {
            app: self.app.clone(),
            workload: self.workload,
            tolerated_stubs: self.tolerated_stubs.clone(),
            tolerated_stub_flags: self.tolerated_stub_flags.clone(),
            cases: self.cases.clone(),
        }
    }

    /// Builds a suite straight from observed per-syscall invocation
    /// counts — the bridge from a *real* trace (the `ptrace` backend's
    /// [`by_sysno`](../loupe_trace/struct.TraceResult.html#method.by_sysno)
    /// counts) to an executable suite. With no classification available
    /// every observed syscall is held to [`CaseExpectation::Implemented`];
    /// such a suite passes exactly on kernels implementing the whole
    /// observed surface.
    pub fn from_observed_counts(
        app: impl Into<String>,
        workload: Workload,
        counts: &std::collections::BTreeMap<Sysno, u64>,
    ) -> ConformanceSuite {
        let mut cases: Vec<ConformanceCase> = counts
            .iter()
            .map(|(&sysno, &calls)| ConformanceCase {
                sysno,
                expectation: CaseExpectation::Implemented,
                origin: CaseOrigin::Required,
                calls,
                impact: None,
                sub_feature: None,
            })
            .collect();
        cases.sort_by(|a, b| b.calls.cmp(&a.calls).then(a.sysno.cmp(&b.sysno)));
        ConformanceSuite {
            os: "trace".into(),
            app: app.into(),
            workload,
            linux_pass: true,
            tolerated_stubs: SysnoSet::new(),
            tolerated_stub_flags: Vec::new(),
            expected: ExpectedVerdicts::default(),
            cases,
        }
    }

    /// The cases that actually constrain a profile (everything but the
    /// harness check) — the set the minimality property quantifies over.
    pub fn constraint_cases(&self) -> impl Iterator<Item = &ConformanceCase> {
        self.cases
            .iter()
            .filter(|c| c.expectation != CaseExpectation::HelperBypass)
    }

    /// Syscalls held to [`CaseExpectation::Implemented`] as a whole
    /// (flag-granular cases constrain their selector, not the syscall).
    pub fn must_implement(&self) -> SysnoSet {
        self.cases
            .iter()
            .filter(|c| c.expectation == CaseExpectation::Implemented && c.sub_feature.is_none())
            .map(|c| c.sysno)
            .collect()
    }

    /// Syscalls held to [`CaseExpectation::ImplementedOrFaked`].
    pub fn may_fake(&self) -> SysnoSet {
        self.cases
            .iter()
            .filter(|c| {
                c.expectation == CaseExpectation::ImplementedOrFaked && c.sub_feature.is_none()
            })
            .map(|c| c.sysno)
            .collect()
    }

    /// Sub-features held to [`CaseExpectation::Implemented`], sorted.
    pub fn must_implement_flags(&self) -> Vec<SubFeatureKey> {
        let mut keys: Vec<SubFeatureKey> = self
            .cases
            .iter()
            .filter(|c| c.expectation == CaseExpectation::Implemented)
            .filter_map(|c| c.sub_feature)
            .collect();
        keys.sort();
        keys
    }

    /// Sub-features held to [`CaseExpectation::ImplementedOrFaked`],
    /// sorted.
    pub fn may_fake_flags(&self) -> Vec<SubFeatureKey> {
        let mut keys: Vec<SubFeatureKey> = self
            .cases
            .iter()
            .filter(|c| c.expectation == CaseExpectation::ImplementedOrFaked)
            .filter_map(|c| c.sub_feature)
            .collect();
        keys.sort();
        keys
    }

    /// The planned-tier kernel profile reconstructed *from the suite
    /// alone*: the OS surface plus the plan's stub/fake remediation —
    /// tolerated stubs answered `-ENOSYS` deliberately, fake tolerances
    /// shimmed. Byte-equivalent to
    /// [`loupe_plan::remediation_profile`] for the requirement the suite
    /// was generated from.
    pub fn planned_profile(&self, os: &OsSpec) -> KernelProfile {
        let mut profile = KernelProfile::new(
            format!("{}+plan[{}]", os.name, self.app),
            os.supported.clone(),
        );
        profile.stubbed = self.tolerated_stubs.difference(&os.supported);
        profile.faked = self.may_fake().difference(&os.supported);
        for (sysno, holes) in &os.partial {
            profile.set_partial(*sysno, holes.clone());
        }
        let holes = os.all_holes();
        profile.stubbed_flags = self
            .tolerated_stub_flags
            .iter()
            .filter(|k| holes.contains(k))
            .copied()
            .collect();
        profile.faked_flags = self
            .may_fake_flags()
            .into_iter()
            .filter(|k| holes.contains(k))
            .collect();
        profile
    }

    /// Runs the suite on a [`KernelProfile`] — the authoritative runner.
    /// Each probe is classified at the restriction boundary via the
    /// kernel's observation counters, so a fake shim can never satisfy
    /// an [`CaseExpectation::Implemented`] case (on a bare [`Kernel`]
    /// the two answers are indistinguishable; see [`run_cases`]).
    pub fn run_on_profile(&self, profile: &KernelProfile) -> SuiteRun {
        let mut kernel = RestrictedKernel::new(LinuxSim::new(), profile.clone());
        let mut cases = Vec::with_capacity(self.cases.len());
        for case in &self.cases {
            let rejections = kernel.observations().total_rejections();
            let fake_hits = kernel.observations().total_fake_hits();
            let flag_rejections = kernel.observations().total_flag_rejections();
            let flag_fake_hits = kernel.observations().total_flag_fake_hits();
            kernel.syscall(&case.probe());
            // Flag counters are disjoint from syscall counters: a probe
            // tripping a partial-support hole charges the *flag*, a probe
            // on an unimplemented syscall charges the syscall — either
            // way the case saw a rejection (or a fake).
            let observed = if kernel.observations().total_rejections() > rejections
                || kernel.observations().total_flag_rejections() > flag_rejections
            {
                CaseObservation::Rejected
            } else if kernel.observations().total_fake_hits() > fake_hits
                || kernel.observations().total_flag_fake_hits() > flag_fake_hits
            {
                CaseObservation::Faked
            } else {
                CaseObservation::Forwarded
            };
            let pass = match case.expectation {
                CaseExpectation::Implemented | CaseExpectation::HelperBypass => {
                    observed == CaseObservation::Forwarded
                }
                CaseExpectation::ImplementedOrFaked => observed != CaseObservation::Rejected,
            };
            cases.push(CaseRun {
                sysno: case.sysno,
                sub_feature: case.sub_feature,
                expectation: case.expectation,
                observed,
                pass,
            });
        }
        SuiteRun {
            pass: self.linux_pass && cases.iter().all(|c| c.pass),
            cases,
        }
    }

    /// Runs the suite's probes against any [`Kernel`] implementation.
    /// Without a restriction boundary to observe, a case passes when the
    /// kernel answers anything but `-ENOSYS` — a fake success is
    /// indistinguishable from a real one here, so
    /// [`CaseExpectation::Implemented`] degrades to "answered". Use
    /// [`ConformanceSuite::run_on_profile`] when the kernel under test
    /// is profile-shaped.
    pub fn run_cases(&self, kernel: &mut dyn Kernel) -> SuiteRun {
        let mut cases = Vec::with_capacity(self.cases.len());
        for case in &self.cases {
            let outcome = kernel.syscall(&case.probe());
            let rejected = outcome.errno() == Some(Errno::ENOSYS);
            let observed = if rejected {
                CaseObservation::Rejected
            } else {
                CaseObservation::Forwarded
            };
            cases.push(CaseRun {
                sysno: case.sysno,
                sub_feature: case.sub_feature,
                expectation: case.expectation,
                observed,
                pass: !rejected,
            });
        }
        SuiteRun {
            pass: self.linux_pass && cases.iter().all(|c| c.pass),
            cases,
        }
    }

    /// The suite's verdict for one remediation tier of an OS: vanilla
    /// runs on exactly the OS surface, planned on the surface plus the
    /// suite's own stub/fake remediation.
    pub fn verdict(&self, os: &OsSpec, tier: Tier) -> bool {
        let profile = match tier {
            Tier::Vanilla => vanilla_profile(os),
            Tier::Planned => self.planned_profile(os),
        };
        self.run_on_profile(&profile).pass
    }

    /// Compares the suite's executed verdicts against the matrix cell
    /// verdicts it carries; returns the disagreeing tiers (empty means
    /// the generator, the matrix sweep and the planner agree on this
    /// cell). Tiers the matrix never measured are not compared.
    pub fn disagreements(&self, os: &OsSpec) -> Vec<(Tier, bool, bool)> {
        let mut out = Vec::new();
        for (tier, expected) in [
            (Tier::Vanilla, self.expected.vanilla),
            (Tier::Planned, self.expected.planned),
        ] {
            if let Some(matrix_pass) = expected {
                let suite_pass = self.verdict(os, tier);
                if suite_pass != matrix_pass {
                    out.push((tier, suite_pass, matrix_pass));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loupe_apps::registry;
    use loupe_core::TestScript;
    use loupe_core::{AnalysisConfig, Engine};
    use loupe_plan::{measure_cell, os};

    fn report(app: &str, workload: Workload) -> AppReport {
        let model = registry::find(app).unwrap();
        Engine::new(AnalysisConfig::fast())
            .analyze(model.as_ref(), workload)
            .unwrap()
    }

    #[test]
    fn generated_suite_is_minimal_ordered_and_self_describing() {
        let workload = Workload::HealthCheck;
        let rep = report("redis", workload);
        let spec = os::find("kerla").unwrap();
        let suite = ConformanceSuite::generate(&spec, &rep, None);

        assert_eq!(suite.os, "kerla");
        assert_eq!(suite.app, "redis");
        // Minimality: exactly one case per constraint, none for stubs.
        assert_eq!(suite.must_implement(), rep.required().union(&rep.fallbacks));
        assert_eq!(suite.may_fake(), rep.fake_only());
        for case in suite.constraint_cases() {
            assert!(
                !suite.tolerated_stubs.contains(case.sysno)
                    || case.expectation != CaseExpectation::Implemented,
                "stubbable syscalls carry no implemented-constraint"
            );
        }
        // Trace-driven ordering: within the syscall-level implemented
        // block, hotter syscalls come first.
        let implemented: Vec<&ConformanceCase> = suite
            .cases
            .iter()
            .take_while(|c| c.expectation == CaseExpectation::Implemented)
            .filter(|c| c.sub_feature.is_none())
            .collect();
        for w in implemented.windows(2) {
            assert!(
                w[0].calls > w[1].calls || (w[0].calls == w[1].calls && w[0].sysno < w[1].sysno),
                "deterministic order: calls desc then sysno"
            );
        }
        // Flag-granular Implemented cases follow the syscall-level
        // block and mirror the measured required sub-features exactly.
        let flag_cases: Vec<&ConformanceCase> = suite
            .cases
            .iter()
            .take_while(|c| c.expectation == CaseExpectation::Implemented)
            .filter(|c| c.sub_feature.is_some())
            .collect();
        let required_flags: Vec<SubFeatureKey> = {
            let mut keys: Vec<SubFeatureKey> = rep
                .sub_features
                .iter()
                .filter(|(_, class)| !class.stub_ok && !class.fake_ok)
                .map(|(key, _)| *key)
                .collect();
            keys.sort();
            keys.dedup();
            keys
        };
        assert_eq!(suite.must_implement_flags(), required_flags);
        assert!(!flag_cases.is_empty(), "redis requires sub-features");
        let first_flag = suite
            .cases
            .iter()
            .position(|c| c.sub_feature.is_some())
            .unwrap();
        let last_plain_implemented = suite
            .cases
            .iter()
            .rposition(|c| c.sub_feature.is_none() && c.expectation == CaseExpectation::Implemented)
            .unwrap();
        assert!(
            last_plain_implemented < first_flag,
            "flag cases ride after the syscall-level implemented block"
        );
        for case in &flag_cases {
            assert_eq!(case.sub_feature.unwrap().sysno(), case.sysno);
            assert_eq!(case.probe().sub_feature(), case.sub_feature);
        }
        // Stub-tolerated flags carry no case, only the recorded set.
        for key in &suite.tolerated_stub_flags {
            assert!(suite.cases.iter().all(|c| c.sub_feature != Some(*key)));
        }
        // The harness case comes last.
        assert_eq!(
            suite.cases.last().unwrap().expectation,
            CaseExpectation::HelperBypass
        );
    }

    #[test]
    fn suite_verdicts_reproduce_measured_cell_verdicts_for_redis() {
        let workload = Workload::HealthCheck;
        let rep = report("redis", workload);
        let req = loupe_plan::AppRequirement::from_report(&rep);
        let app = registry::find("redis").unwrap();
        let script = TestScript::default();
        for spec in [os::find("kerla").unwrap(), os::find("gvisor").unwrap()] {
            let cell = measure_cell(
                &spec,
                &req,
                app.as_ref(),
                workload,
                true,
                None,
                &script,
                Some(&rep.baseline.features),
            );
            let suite = ConformanceSuite::generate(&spec, &rep, Some(&cell));
            assert_eq!(
                suite.verdict(&spec, Tier::Vanilla),
                cell.passes(Tier::Vanilla),
                "vanilla disagreement on {}",
                spec.name
            );
            assert_eq!(
                suite.verdict(&spec, Tier::Planned),
                cell.passes(Tier::Planned),
                "planned disagreement on {}",
                spec.name
            );
            assert!(suite.disagreements(&spec).is_empty());
        }
    }

    /// The core equivalence the meta-test scales up: for every detailed
    /// app on every catalogued OS, the generated suite's executed
    /// verdicts equal the matrix cell's measured verdicts on both tiers.
    #[test]
    fn suite_verdicts_reproduce_cell_verdicts_across_the_os_catalog() {
        let workload = Workload::HealthCheck;
        let engine = Engine::new(AnalysisConfig::fast());
        let script = TestScript::default();
        let mut checked = 0;
        for app in registry::detailed() {
            let rep = engine.analyze(app.as_ref(), workload).unwrap();
            let req = loupe_plan::AppRequirement::from_report(&rep);
            for spec in os::db() {
                let cell = measure_cell(
                    &spec,
                    &req,
                    app.as_ref(),
                    workload,
                    true,
                    None,
                    &script,
                    Some(&rep.baseline.features),
                );
                let suite = ConformanceSuite::generate(&spec, &rep, Some(&cell));
                assert_eq!(
                    suite.disagreements(&spec),
                    Vec::new(),
                    "suite vs matrix on {} × {}",
                    spec.name,
                    rep.app
                );
                checked += 1;
            }
        }
        assert!(checked >= 100, "the catalog sweep covered {checked} cells");
    }

    #[test]
    fn planned_profile_matches_the_planners_remediation() {
        let workload = Workload::HealthCheck;
        let rep = report("nginx", workload);
        let req = loupe_plan::AppRequirement::from_report(&rep);
        let spec = os::find("fuchsia").unwrap();
        let suite = ConformanceSuite::generate(&spec, &rep, None);
        assert_eq!(
            suite.planned_profile(&spec),
            loupe_plan::remediation_profile(&spec, &req)
        );
    }

    #[test]
    fn fake_shims_satisfy_fake_tolerances_but_not_implemented_constraints() {
        let mut suite = ConformanceSuite::from_observed_counts(
            "t",
            Workload::HealthCheck,
            &[(Sysno::read, 5), (Sysno::write, 9)].into_iter().collect(),
        );
        suite.cases[0].expectation = CaseExpectation::ImplementedOrFaked; // write (hotter)
                                                                          // A profile faking both: the fake tolerance passes, the
                                                                          // implemented constraint does not.
        let mut profile = KernelProfile::new("fakes-only", SysnoSet::new());
        profile.faked.insert(Sysno::read);
        profile.faked.insert(Sysno::write);
        let run = suite.run_on_profile(&profile);
        assert!(!run.pass);
        let write_run = run.cases.iter().find(|c| c.sysno == Sysno::write).unwrap();
        let read_run = run.cases.iter().find(|c| c.sysno == Sysno::read).unwrap();
        assert_eq!(write_run.observed, CaseObservation::Faked);
        assert!(write_run.pass, "fake satisfies ImplementedOrFaked");
        assert_eq!(read_run.observed, CaseObservation::Faked);
        assert!(!read_run.pass, "fake does not satisfy Implemented");
        assert_eq!(run.first_failure(), Some(Sysno::read));
        // On a bare kernel the distinction is impossible: both answered.
        let mut bare = RestrictedKernel::new(LinuxSim::new(), profile);
        let bare_run = suite.run_cases(&mut bare);
        assert!(bare_run.pass, "bare-kernel runner accepts any answer");
    }

    #[test]
    fn helper_bypass_reaches_the_backing_kernel_on_an_empty_profile() {
        let rep = report("weborf", Workload::HealthCheck);
        let spec = OsSpec::new("nothing", "0", SysnoSet::new());
        let suite = ConformanceSuite::generate(&spec, &rep, None);
        let run = suite.run_on_profile(&vanilla_profile(&spec));
        let harness = run
            .cases
            .iter()
            .find(|c| c.expectation == CaseExpectation::HelperBypass)
            .unwrap();
        assert_eq!(harness.observed, CaseObservation::Forwarded);
        assert!(harness.pass, "helpers bypass even an empty profile");
        assert!(!run.pass, "the constraint cases still fail");
    }

    #[test]
    fn linux_failure_fails_the_suite_by_fiat() {
        let mut suite = ConformanceSuite::from_observed_counts(
            "broken",
            Workload::HealthCheck,
            &std::collections::BTreeMap::new(),
        );
        suite.linux_pass = false;
        let full = OsSpec::new("everything", "1", Sysno::all().collect());
        assert!(!suite.run_on_profile(&vanilla_profile(&full)).pass);
    }

    #[test]
    fn suite_json_roundtrip_is_exact() {
        let rep = report("redis", Workload::HealthCheck);
        let spec = os::find("unikraft").unwrap();
        let suite = ConformanceSuite::generate(&spec, &rep, None);
        let json = serde_json::to_string_pretty(&suite).unwrap();
        let back: ConformanceSuite = serde_json::from_str(&json).unwrap();
        assert_eq!(back, suite);
    }
}
