//! The analysis engine: discovery → per-feature stub/fake probes on a
//! deterministic scheduler → confirmation, replicated and conservatively
//! merged (§3.1).

use std::collections::BTreeMap;

use loupe_apps::model::AppOutcome;
use loupe_apps::{AppModel, Env, Exit, Workload};
use loupe_kernel::{Kernel, ResourceUsage};
use loupe_syscalls::{SubFeatureKey, Sysno};
use serde::{Deserialize, Serialize};

use crate::anomaly::LogProfile;
use crate::exec::ExecEnv;
use crate::interpose::Interposed;
use crate::policy::{Action, Policy};
use crate::report::{AppReport, BaselineStats, FeatureClass, Impact, ImpactRecord};
use crate::script::TestScript;
use crate::stats;
use crate::trace::Trace;

/// How performance deviations affect classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PerfPolicy {
    /// Only test-script failures matter; perf/resource deviations are
    /// recorded as annotations (the paper's default posture: "Loupe
    /// notifies the user that further investigation is needed").
    Lenient,
    /// A statistically significant performance deviation also disqualifies
    /// the stub/fake (§3.2: "Loupe ensures that the performance does not
    /// incur a statistically significant variation").
    Strict,
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Number of replicated runs per measurement (paper default: 3).
    pub replicas: u32,
    /// Probe-scheduler workers for the per-feature stub/fake runs — the
    /// dominant cost term of §3.3's run-count formula. `1` (the default)
    /// probes serially; `0` picks `min(available_parallelism, 16)`.
    /// Results are merged in feature order, so every worker count
    /// produces byte-identical reports.
    #[serde(default)]
    pub jobs: usize,
    /// Relative margin below which metric changes are noise (Table 2: 3%).
    pub perf_epsilon: f64,
    /// Classification policy for perf deviations.
    pub perf_policy: PerfPolicy,
    /// Also classify sub-features of vectored syscalls (§5.4).
    pub explore_sub_features: bool,
    /// Also classify pseudo-file accesses (§3.3).
    pub explore_pseudo_files: bool,
    /// Flag runs whose logs contain novel diagnostic lines the baseline
    /// never produced (§6 future work: silent-fault detection). Off by
    /// default: it is stricter than the paper's measurement protocol.
    pub detect_log_anomalies: bool,
    /// When the confirmation run fails, automatically bisect for the
    /// conflicting features and re-mark them as required (§3.1: "a
    /// process which could be automated in future works" — here it is).
    pub auto_bisect_conflicts: bool,
    /// The kernel configuration hosting every run: the full simulated
    /// Linux by default, or a restricted profile emulating an OS
    /// mid-way through a support plan.
    #[serde(default)]
    pub exec_env: ExecEnv,
    /// Pass/fail policy.
    pub test_script: TestScript,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            replicas: 3,
            jobs: 1,
            perf_epsilon: 0.03,
            perf_policy: PerfPolicy::Lenient,
            explore_sub_features: true,
            explore_pseudo_files: true,
            detect_log_anomalies: false,
            auto_bisect_conflicts: true,
            exec_env: ExecEnv::Linux,
            test_script: TestScript::default(),
        }
    }
}

impl AnalysisConfig {
    /// A cheap configuration for unit tests and large sweeps: single
    /// replica, no pseudo-file exploration. Sub-feature probing stays
    /// on — partial-fidelity OS profiles (per-flag holes) need every
    /// measurement path to carry per-flag classifications, or the
    /// conformance suites could not reproduce flag-granular matrix
    /// verdicts.
    pub fn fast() -> AnalysisConfig {
        AnalysisConfig {
            replicas: 1,
            explore_pseudo_files: false,
            ..AnalysisConfig::default()
        }
    }
}

/// Accounting of the analysis cost, matching §3.3's
/// `(2 + 2·t·s)·⌈r/p⌉` run-count structure. Replicas run serially
/// (`p = 1`): the simulator is deterministic, so parallelism lives at
/// the fleet level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Discovery + confirmation runs (the `2`), times replicas.
    pub framing_runs: u64,
    /// Stub/fake runs (`2` per tested feature), times replicas.
    pub feature_runs: u64,
    /// Distinct features tested.
    pub features_tested: u64,
    /// Features whose stub/fake runs were skipped thanks to transferred
    /// knowledge from other applications (§6 future work).
    pub transfer_skips: u64,
    /// Application executions *not* performed thanks to those skips
    /// (`2 × replicas` per transferred feature).
    #[serde(default)]
    pub saved_runs: u64,
    /// Extra runs spent bisecting confirmation-run conflicts.
    pub bisect_runs: u64,
    /// Replicas per measurement.
    pub replicas: u32,
}

impl RunStats {
    /// Total application executions performed.
    pub fn total_runs(&self) -> u64 {
        self.framing_runs + self.feature_runs + self.bisect_runs
    }

    /// Checks the §3.3 structure: `(2 + 2·s) · r` runs.
    pub fn matches_formula(&self) -> bool {
        let r = u64::from(self.replicas);
        self.framing_runs == 2 * r && self.feature_runs == 2 * self.features_tested * r
    }

    /// Accumulates another analysis' accounting (fleet-sweep rollups).
    pub fn absorb(&mut self, other: &RunStats) {
        self.framing_runs += other.framing_runs;
        self.feature_runs += other.feature_runs;
        self.features_tested += other.features_tested;
        self.transfer_skips += other.transfer_skips;
        self.saved_runs += other.saved_runs;
        self.bisect_runs += other.bisect_runs;
        self.replicas = self.replicas.max(other.replicas);
    }
}

/// Errors the engine can report.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The application does not pass its own workload on the full kernel —
    /// nothing can be measured.
    BaselineFailed {
        /// Application name.
        app: String,
        /// Test-script reasons.
        reasons: Vec<String>,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::BaselineFailed { app, reasons } => {
                write!(f, "baseline run of {app} failed: {}", reasons.join("; "))
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// One run's raw results.
#[derive(Debug, Clone)]
struct RunResult {
    outcome: AppOutcome,
    trace: Trace,
    usage: ResourceUsage,
    console: Vec<String>,
    /// Boundary counters of a restricted execution environment (`None`
    /// on Linux) — surfaced into [`AppReport`] from the discovery runs.
    observations: Option<loupe_kernel::KernelObservations>,
}

/// One feature the probe scheduler measures: a syscall, a sub-feature of
/// a vectored syscall (§5.4), or a pseudo-file path (§3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
enum ProbeTarget {
    Syscall(Sysno),
    SubFeature(SubFeatureKey),
    PseudoFile(String),
}

impl ProbeTarget {
    /// The single-feature interposition policy for this target.
    fn policy(&self, mode: Action) -> Policy {
        match self {
            ProbeTarget::Syscall(s) => Policy::allow_all().with_syscall(*s, mode),
            ProbeTarget::SubFeature(k) => Policy::allow_all().with_sub_feature(*k, mode),
            ProbeTarget::PseudoFile(p) => Policy::allow_all().with_pseudo_file(p.clone(), mode),
        }
    }
}

/// One scheduled probe: a `(target, stub-or-fake)` measurement. Jobs are
/// enumerated up front in feature order, so the result vector — indexed
/// by job — yields the same merge regardless of execution schedule.
#[derive(Debug, Clone)]
struct ProbeJob {
    target: usize,
    mode: Action,
    policy: Policy,
}

/// Enumerates the probe jobs for `targets`: one stub job then one fake
/// job per target, in target order — the pairing both merge loops rely
/// on (`outcomes[2i]` is target `i`'s stub, `outcomes[2i + 1]` its fake).
fn probe_jobs(targets: &[ProbeTarget]) -> Vec<ProbeJob> {
    targets
        .iter()
        .enumerate()
        .flat_map(|(i, t)| {
            [Action::Stub, Action::Fake]
                .into_iter()
                .map(move |mode| ProbeJob {
                    target: i,
                    mode,
                    policy: t.policy(mode),
                })
        })
        .collect()
}

/// Outcome of one probe job: final verdict plus impact annotations.
#[derive(Debug, Clone, Copy)]
struct ProbeOutcome {
    ok: bool,
    impact: Impact,
}

/// The Loupe analysis engine.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    cfg: AnalysisConfig,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: AnalysisConfig) -> Engine {
        Engine { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    fn run_once(&self, app: &dyn AppModel, workload: Workload, policy: &Policy) -> RunResult {
        // The execution environment decides what kernel hosts the run —
        // full Linux for measurement, a restricted profile for plan
        // validation; the interposition layer composes over either.
        let host = self.cfg.exec_env.build(app);
        let mut kernel = Interposed::new(host, policy.clone());
        let exit = {
            let mut env = Env::new(&mut kernel);
            match app.run(&mut env, workload) {
                Ok(()) => env.finish(Exit::Clean),
                Err(e) => env.finish(e),
            }
        };
        let usage = kernel.usage();
        let console = std::mem::take(&mut kernel.host_mut().console);
        let (host, trace) = kernel.into_parts();
        RunResult {
            outcome: exit,
            trace,
            usage,
            console,
            observations: host.observations(),
        }
    }

    fn run_replicas(
        &self,
        app: &dyn AppModel,
        workload: Workload,
        policy: &Policy,
    ) -> Vec<RunResult> {
        (0..self.cfg.replicas.max(1))
            .map(|_| self.run_once(app, workload, policy))
            .collect()
    }

    /// Evaluates replicated runs against the baseline; returns
    /// `(all_passed, mean_perf, impact)`.
    fn judge(&self, runs: &[RunResult], workload: Workload, baseline: &Baseline) -> (bool, Impact) {
        let mut all_pass = true;
        let mut perfs = Vec::new();
        for run in runs {
            let verdict =
                self.cfg
                    .test_script
                    .evaluate(&run.outcome, workload, Some(&baseline.features));
            all_pass &= verdict.success;
            perfs.push(verdict.perf);
        }
        let perf = stats::mean(&perfs);
        let rss = stats::mean(
            &runs
                .iter()
                .map(|r| r.usage.peak_rss as f64)
                .collect::<Vec<_>>(),
        );
        let fds = stats::mean(
            &runs
                .iter()
                .map(|r| f64::from(r.usage.peak_fds))
                .collect::<Vec<_>>(),
        );
        let mut ok = all_pass;
        if ok && self.cfg.perf_policy == PerfPolicy::Strict {
            ok = !stats::significant_deviation(&baseline.perfs, perf, self.cfg.perf_epsilon);
        }
        if ok && self.cfg.detect_log_anomalies {
            // §6 future work: novel diagnostic log lines are silent-fault
            // evidence even when the test script passes.
            ok = runs.iter().all(|run| {
                baseline
                    .log_profile
                    .anomalies(run.console.iter().map(String::as_str))
                    .is_empty()
            });
        }
        // The stored impact carries the *final* verdict: a strict-policy
        // perf deviation or a log anomaly disqualifies the run even when
        // the raw test script passed (kept separately in `tests_passed`).
        let impact = Impact {
            success: ok,
            tests_passed: Some(all_pass),
            perf_delta: stats::rel_delta(baseline.perf_mean, perf),
            rss_delta: stats::rel_delta(baseline.rss_mean, rss),
            fd_delta: stats::rel_delta(baseline.fd_mean, fds),
        };
        (ok, impact)
    }

    /// Executes probe jobs on the worker pool (`cfg.jobs` threads;
    /// `0` = auto, `1` = serial). Each job is an independent replicated
    /// measurement against the shared baseline; results land in the slot
    /// of their job index, so the caller's merge order never depends on
    /// the schedule. A panicking probe is re-raised with its own message.
    fn run_probes(
        &self,
        app: &dyn AppModel,
        workload: Workload,
        baseline: &Baseline,
        jobs: &[ProbeJob],
    ) -> Vec<ProbeOutcome> {
        crate::pool::run_jobs(self.cfg.jobs, jobs, |job| {
            let runs = self.run_replicas(app, workload, &job.policy);
            let (ok, impact) = self.judge(&runs, workload, baseline);
            ProbeOutcome { ok, impact }
        })
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|panic| std::panic::resume_unwind(Box::new(panic))))
        .collect()
    }

    /// Runs the full Loupe analysis for one application and workload.
    ///
    /// # Errors
    ///
    /// [`EngineError::BaselineFailed`] when the application cannot pass its
    /// own workload on the unmodified kernel.
    pub fn analyze(
        &self,
        app: &dyn AppModel,
        workload: Workload,
    ) -> Result<AppReport, EngineError> {
        self.analyze_with_hints(app, workload, &BTreeMap::new())
    }

    /// Like [`Engine::analyze`], but skips the stub/fake runs of syscalls
    /// whose classification is already known from other applications —
    /// the paper's "transferring knowledge across applications" future
    /// work (§6). Build `hints` with [`transfer_hints`]. The final
    /// confirmation run still validates the transferred conclusions; a
    /// wrong hint surfaces as `confirmed == false`.
    ///
    /// # Errors
    ///
    /// [`EngineError::BaselineFailed`] as for [`Engine::analyze`].
    pub fn analyze_with_hints(
        &self,
        app: &dyn AppModel,
        workload: Workload,
        hints: &BTreeMap<Sysno, FeatureClass>,
    ) -> Result<AppReport, EngineError> {
        // ---- 1. discovery (baseline) ------------------------------------
        let base_runs = self.run_replicas(app, workload, &Policy::allow_all());
        let baseline = Baseline::from_runs(&base_runs, workload, &self.cfg.test_script);
        let first = &base_runs[0];
        let base_verdict =
            self.cfg
                .test_script
                .evaluate(&first.outcome, workload, Some(&baseline.features));
        if !base_verdict.success {
            return Err(EngineError::BaselineFailed {
                app: app.name().to_owned(),
                reasons: base_verdict.reasons,
            });
        }

        // Conservative union of traced features across replicas.
        let traced = merge_syscall_trace(&base_runs);

        // What the execution environment rejected/faked at its boundary
        // during discovery (restricted kernels only). Only the discovery
        // replicas teach: probe runs deliberately perturb behaviour, so
        // folding their counters in would make the numbers depend on the
        // probe schedule.
        let mut env_obs = loupe_kernel::KernelObservations::default();
        for run in &base_runs {
            if let Some(obs) = &run.observations {
                env_obs.absorb(obs);
            }
        }

        let mut stats_acc = RunStats {
            framing_runs: u64::from(self.cfg.replicas),
            feature_runs: 0,
            features_tested: 0,
            transfer_skips: 0,
            saved_runs: 0,
            bisect_runs: 0,
            replicas: self.cfg.replicas,
        };

        // ---- 2. probe scheduling --------------------------------------------
        // Enumerate every probe up front, in feature order: traced
        // syscalls (2/), sub-feature keys (2b/§5.4), pseudo-file paths
        // (2c/§3.3) — each as a stub job and a fake job. Execution order
        // is then free (the worker pool races through the queue) while
        // the merge below walks targets in enumeration order, so serial
        // and parallel schedules produce byte-identical reports.
        let mut classes: BTreeMap<Sysno, FeatureClass> = BTreeMap::new();
        let mut hinted: std::collections::BTreeSet<Sysno> = std::collections::BTreeSet::new();
        let mut targets: Vec<ProbeTarget> = Vec::new();
        for &sysno in traced.keys() {
            if let Some(&hint) = hints.get(&sysno) {
                classes.insert(sysno, hint);
                hinted.insert(sysno);
                stats_acc.transfer_skips += 1;
                stats_acc.saved_runs += 2 * u64::from(self.cfg.replicas);
                continue;
            }
            targets.push(ProbeTarget::Syscall(sysno));
        }
        if self.cfg.explore_sub_features {
            // Conservative union of sub-feature keys across replicas,
            // first-seen order.
            let mut keys: Vec<SubFeatureKey> = Vec::new();
            for run in &base_runs {
                for (k, _) in &run.trace.sub_features {
                    if !keys.contains(k) {
                        keys.push(*k);
                    }
                }
            }
            targets.extend(keys.into_iter().map(ProbeTarget::SubFeature));
        }
        if self.cfg.explore_pseudo_files {
            let mut paths: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
            for run in &base_runs {
                paths.extend(run.trace.pseudo_files.keys().cloned());
            }
            targets.extend(paths.into_iter().map(ProbeTarget::PseudoFile));
        }
        let jobs = probe_jobs(&targets);
        let outcomes = self.run_probes(app, workload, &baseline, &jobs);

        // Deterministic merge: jobs carry their target index, and stub
        // precedes fake for every target, so pairing them back up is a
        // straight walk over the enumeration.
        let mut impacts: BTreeMap<Sysno, ImpactRecord> = BTreeMap::new();
        let mut sub_features = Vec::new();
        let mut pseudo_files = BTreeMap::new();
        let mut merged: Vec<(Option<ProbeOutcome>, Option<ProbeOutcome>)> =
            vec![(None, None); targets.len()];
        for (job, outcome) in jobs.iter().zip(&outcomes) {
            let slot = &mut merged[job.target];
            match job.mode {
                Action::Stub => slot.0 = Some(*outcome),
                Action::Fake => slot.1 = Some(*outcome),
                Action::Allow => unreachable!("probe jobs never allow"),
            }
        }
        for (target, (stub, fake)) in targets.iter().zip(merged) {
            let (stub, fake) = (
                stub.expect("stub probe scheduled"),
                fake.expect("fake probe scheduled"),
            );
            let class = FeatureClass {
                stub_ok: stub.ok,
                fake_ok: fake.ok,
            };
            match target {
                ProbeTarget::Syscall(sysno) => {
                    classes.insert(*sysno, class);
                    impacts.insert(
                        *sysno,
                        ImpactRecord {
                            stub: Some(stub.impact),
                            fake: Some(fake.impact),
                        },
                    );
                }
                ProbeTarget::SubFeature(key) => sub_features.push((*key, class)),
                ProbeTarget::PseudoFile(path) => {
                    pseudo_files.insert(path.clone(), class);
                }
            }
            stats_acc.features_tested += 1;
            stats_acc.feature_runs += 2 * u64::from(self.cfg.replicas);
        }

        // ---- 3. confirmation run ---------------------------------------------
        let mut combined = Policy::allow_all();
        for (&sysno, class) in &classes {
            if class.stub_ok {
                combined.set_syscall(sysno, Action::Stub);
            } else if class.fake_ok {
                combined.set_syscall(sysno, Action::Fake);
            }
        }
        let confirm_runs = self.run_replicas(app, workload, &combined);
        let (mut confirmed, _) = self.judge(&confirm_runs, workload, &baseline);
        stats_acc.framing_runs += u64::from(self.cfg.replicas);
        // Union of syscalls traced under the *combined* policy: stubbing
        // and faking activate fallback paths (a stubbed `epoll_create1`
        // sends the app to `epoll_create`), and the syscalls those paths
        // pass through to the kernel are requirements the baseline trace
        // never saw. Tracked across re-confirmations so the final report
        // reflects the policy that actually confirmed.
        let mut confirm_trace = merge_syscall_trace(&confirm_runs);

        // ---- 3a. fake-side hint validation ------------------------------------
        // The combined policy prefers Stub for dual-avoidable classes,
        // so a transferred `{stub_ok, fake_ok}` hint only had its stub
        // claim exercised above. One extra run with those features faked
        // instead validates the fake claim too; a failure is treated
        // exactly like a failing confirmation (hint fallback below).
        // With this, every *positive* (avoidable) claim of every
        // transferred hint is exercised end to end; only a hinted
        // negative (a "not stubbable/fakeable" bit) is taken on the
        // seed's word — it errs toward requiring more, and the sweep's
        // fleet-equality test checks it empirically.
        let dual_hinted: Vec<Sysno> = hinted
            .iter()
            .filter(|s| classes[s].stub_ok && classes[s].fake_ok)
            .copied()
            .collect();
        if confirmed && !dual_hinted.is_empty() {
            let mut fake_side = combined.clone();
            for &s in &dual_hinted {
                fake_side.set_syscall(s, Action::Fake);
            }
            let runs = self.run_replicas(app, workload, &fake_side);
            stats_acc.bisect_runs += u64::from(self.cfg.replicas);
            let (ok, _) = self.judge(&runs, workload, &baseline);
            confirmed = ok;
        }

        // ---- 3b. hint fallback ----------------------------------------------
        // A failing confirmation (either side) under transferred hints
        // means at least one hint does not hold for this application (or
        // its action choice interacts differently here). Revoke *all*
        // hints and measure the skipped features for real — from there
        // the analysis proceeds exactly as a full measurement would, so
        // a wrong hint costs runs instead of changing results.
        if !confirmed && !hinted.is_empty() && self.cfg.auto_bisect_conflicts {
            let fallback: Vec<ProbeTarget> =
                hinted.iter().map(|&s| ProbeTarget::Syscall(s)).collect();
            let outcomes = self.run_probes(app, workload, &baseline, &probe_jobs(&fallback));
            for (i, &sysno) in hinted.iter().enumerate() {
                let (stub, fake) = (outcomes[2 * i], outcomes[2 * i + 1]);
                classes.insert(
                    sysno,
                    FeatureClass {
                        stub_ok: stub.ok,
                        fake_ok: fake.ok,
                    },
                );
                impacts.insert(
                    sysno,
                    ImpactRecord {
                        stub: Some(stub.impact),
                        fake: Some(fake.impact),
                    },
                );
                stats_acc.features_tested += 1;
                stats_acc.feature_runs += 2 * u64::from(self.cfg.replicas);
            }
            stats_acc.transfer_skips = 0;
            stats_acc.saved_runs = 0;
            combined = Policy::allow_all();
            for (&sysno, class) in &classes {
                if class.stub_ok {
                    combined.set_syscall(sysno, Action::Stub);
                } else if class.fake_ok {
                    combined.set_syscall(sysno, Action::Fake);
                }
            }
            let runs = self.run_replicas(app, workload, &combined);
            stats_acc.bisect_runs += u64::from(self.cfg.replicas);
            let (ok, _) = self.judge(&runs, workload, &baseline);
            confirmed = ok;
            confirm_trace = merge_syscall_trace(&runs);
        }

        // ---- 3c. conflict bisection -----------------------------------------
        // Individually avoidable features can interact (e.g. webfsd's
        // writev header and sendfile body are each fakeable, but not
        // together). When the combined run fails, search for a set of
        // culprits to re-mark as required: each round trials one more
        // relaxation *on top of* the relaxations accumulated in earlier
        // rounds, so joint conflicts spanning several features converge
        // instead of giving up after a single sweep. A trial that passes
        // doubles as the new confirmation run. When no single extra
        // relaxation helps, the first candidate is relaxed cumulatively
        // and the search continues — conservative (an innocent feature
        // may be re-marked required) but terminating. Transferred hints
        // never reach this point un-measured: the fallback above revoked
        // them the moment the hinted confirmation failed.
        let mut conflicts: Vec<Sysno> = Vec::new();
        if !confirmed && self.cfg.auto_bisect_conflicts {
            let mut relaxed = combined.clone();
            'rounds: while conflicts.len() < 8 {
                let candidates: Vec<Sysno> = classes
                    .iter()
                    .filter(|(s, c)| c.is_avoidable() && !conflicts.contains(s))
                    .map(|(s, _)| *s)
                    .collect();
                if candidates.is_empty() {
                    break;
                }
                let mut culprit = None;
                for &s in &candidates {
                    let mut trial = relaxed.clone();
                    trial.set_syscall(s, Action::Allow);
                    let runs = self.run_replicas(app, workload, &trial);
                    stats_acc.bisect_runs += u64::from(self.cfg.replicas);
                    let (ok, _) = self.judge(&runs, workload, &baseline);
                    if ok {
                        // This passing trial doubles as the confirmation
                        // run — its passthrough is the one that counts.
                        confirm_trace = merge_syscall_trace(&runs);
                        culprit = Some(s);
                        break;
                    }
                }
                let s = culprit.unwrap_or(candidates[0]);
                relaxed.set_syscall(s, Action::Allow);
                conflicts.push(s);
                classes.insert(
                    s,
                    FeatureClass {
                        stub_ok: false,
                        fake_ok: false,
                    },
                );
                if culprit.is_some() {
                    confirmed = true;
                    break 'rounds;
                }
            }
        }

        // Fallback requirements: syscalls the confirmed combined policy
        // passed through to the kernel although the baseline never traced
        // them — code paths only reachable when other features are
        // stubbed/faked. A support plan that interposes those features
        // must implement these too, or the unlock fails on a real OS.
        // Only a *passing* combined run teaches: an unconfirmed report's
        // last trace is a failing run, and publishing its error-path
        // syscalls would poison every plan built on the database.
        let fallbacks: loupe_syscalls::SysnoSet = if confirmed {
            confirm_trace
                .keys()
                .filter(|s| !classes.contains_key(s))
                .copied()
                .collect()
        } else {
            loupe_syscalls::SysnoSet::new()
        };

        let spec = app.spec();
        Ok(AppReport {
            app: spec.name,
            version: spec.version,
            workload,
            env: self.cfg.exec_env.name().to_owned(),
            traced,
            classes,
            fallbacks,
            rejections: env_obs.rejections,
            fake_hits: env_obs.fake_hits,
            first_rejection: env_obs.first_rejection,
            impacts,
            sub_features,
            pseudo_files,
            conflicts,
            confirmed,
            baseline: BaselineStats {
                throughput: baseline.perf_mean,
                peak_rss: baseline.rss_mean as u64,
                peak_fds: baseline.fd_mean as u32,
                run_time: first.outcome.elapsed,
                features: baseline.features.clone(),
            },
            stats: stats_acc,
        })
    }
}

/// Union of per-syscall invocation counts across replicated runs.
fn merge_syscall_trace(runs: &[RunResult]) -> BTreeMap<Sysno, u64> {
    let mut merged = BTreeMap::new();
    for run in runs {
        for (s, n) in &run.trace.syscalls {
            *merged.entry(*s).or_insert(0) += *n;
        }
    }
    merged
}

/// Baseline summary used by judgements.
#[derive(Debug, Clone)]
struct Baseline {
    perfs: Vec<f64>,
    perf_mean: f64,
    rss_mean: f64,
    fd_mean: f64,
    features: BTreeMap<String, bool>,
    log_profile: LogProfile,
}

impl Baseline {
    fn from_runs(runs: &[RunResult], _workload: Workload, _script: &TestScript) -> Baseline {
        let perfs: Vec<f64> = runs.iter().map(|r| r.outcome.throughput()).collect();
        let features = merge_feature_health(runs.iter().map(|r| &r.outcome.features));
        Baseline {
            perf_mean: stats::mean(&perfs),
            rss_mean: stats::mean(
                &runs
                    .iter()
                    .map(|r| r.usage.peak_rss as f64)
                    .collect::<Vec<_>>(),
            ),
            fd_mean: stats::mean(
                &runs
                    .iter()
                    .map(|r| f64::from(r.usage.peak_fds))
                    .collect::<Vec<_>>(),
            ),
            features,
            log_profile: LogProfile::learn(runs.iter().flat_map(|r| r.console.iter())),
            perfs,
        }
    }
}

/// Conservative feature-health merge across baseline replicas: union of
/// keys, AND of health. Judging stub/fake runs against replica 0 alone
/// would demand features a flaky baseline does not reliably exhibit —
/// and miss features only later replicas reported.
fn merge_feature_health<'a>(
    maps: impl Iterator<Item = &'a BTreeMap<String, bool>>,
) -> BTreeMap<String, bool> {
    let mut merged: BTreeMap<String, bool> = BTreeMap::new();
    for map in maps {
        for (name, healthy) in map {
            let entry = merged.entry(name.clone()).or_insert(true);
            *entry = *entry && *healthy;
        }
    }
    merged
}

/// Builds transfer hints from prior measurements: a syscall is hinted only
/// when at least `min_agreement` reports traced it and *all* of them agree
/// on its classification (conservative, like the replica merge).
pub fn transfer_hints(
    reports: &[crate::report::AppReport],
    min_agreement: usize,
) -> BTreeMap<Sysno, FeatureClass> {
    let mut votes: BTreeMap<Sysno, Vec<FeatureClass>> = BTreeMap::new();
    for report in reports {
        for (&sysno, &class) in &report.classes {
            votes.entry(sysno).or_default().push(class);
        }
    }
    votes
        .into_iter()
        .filter(|(_, v)| v.len() >= min_agreement && v.windows(2).all(|w| w[0] == w[1]))
        .map(|(s, v)| (s, v[0]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use loupe_apps::registry;

    fn engine() -> Engine {
        Engine::new(AnalysisConfig::fast())
    }

    #[test]
    fn weborf_health_check_analysis() {
        let app = registry::find("weborf").unwrap();
        let report = engine()
            .analyze(app.as_ref(), Workload::HealthCheck)
            .unwrap();
        // Fundamental syscalls are required.
        for s in [Sysno::socket, Sysno::bind, Sysno::listen, Sysno::mmap] {
            assert!(report.required().contains(s), "{s} should be required");
        }
        // And a healthy fraction of the traced set is avoidable.
        assert!(!report.avoidable().is_empty());
        assert!(report.required().len() < report.traced().len());
    }

    #[test]
    fn redis_bench_required_set_is_much_smaller_than_traced() {
        let app = registry::find("redis").unwrap();
        let report = engine().analyze(app.as_ref(), Workload::Benchmark).unwrap();
        let traced = report.traced().len();
        let required = report.required().len();
        // §1: "more than half of the system calls invoked by Redis ...
        // can be stubbed or faked".
        assert!(
            required * 2 <= traced + 2,
            "required {required} vs traced {traced}"
        );
        // Fig. 6a: the rlimit getter is avoidable (safe-default fallback).
        assert!(report.avoidable().contains(Sysno::prlimit64));
        // futex is required (faking corrupts, Table 2).
        assert!(report.required().contains(Sysno::futex));
    }

    #[test]
    fn nginx_write_is_stubbable_but_writev_is_not() {
        let app = registry::find("nginx").unwrap();
        let report = engine().analyze(app.as_ref(), Workload::Benchmark).unwrap();
        let write = report.classes[&Sysno::write];
        assert!(write.stub_ok, "access-log write must be stubbable");
        let writev = report.classes[&Sysno::writev];
        assert!(writev.is_required(), "payload writev must be required");
        // prctl: unstubbable (Fig. 6b) but fakeable.
        let prctl = report.classes[&Sysno::prctl];
        assert!(!prctl.stub_ok && prctl.fake_ok, "{prctl:?}");
    }

    #[test]
    fn baseline_failure_is_reported() {
        // The old 32-bit build crashes without its libc file: provision a
        // broken app by wrapping a model that always crashes.
        struct Broken;
        impl AppModel for Broken {
            fn name(&self) -> &str {
                "broken"
            }
            fn spec(&self) -> loupe_apps::AppSpec {
                loupe_apps::AppSpec {
                    name: "broken".into(),
                    version: "0".into(),
                    year: 2024,
                    port: None,
                    kind: loupe_apps::AppKind::Utility,
                    libc: loupe_apps::libc::LibcFlavor::GlibcDynamic,
                }
            }
            fn run(&self, _env: &mut Env<'_>, _w: Workload) -> Result<(), Exit> {
                Err(Exit::Crash("always".into()))
            }
            fn code(&self) -> loupe_apps::AppCode {
                loupe_apps::AppCode::new()
            }
        }
        let err = engine()
            .analyze(&Broken, Workload::HealthCheck)
            .unwrap_err();
        assert!(matches!(err, EngineError::BaselineFailed { .. }));
        assert!(err.to_string().contains("broken"));
    }

    #[test]
    fn confirmation_run_passes_for_simple_apps() {
        let app = registry::find("hello-musl-static").unwrap();
        let report = engine()
            .analyze(app.as_ref(), Workload::HealthCheck)
            .unwrap();
        assert!(report.confirmed, "combined stub/fake policy must hold");
    }

    #[test]
    fn probe_scheduler_is_deterministic_across_job_counts() {
        // Serial, bounded-parallel and auto-sized schedules must produce
        // byte-identical reports (classes, impacts, stats — everything):
        // the merge happens in feature order, never in completion order.
        let cfg = |jobs: usize| AnalysisConfig {
            jobs,
            explore_sub_features: true,
            explore_pseudo_files: true,
            ..AnalysisConfig::fast()
        };
        let app = registry::find("redis").unwrap();
        let serial = Engine::new(cfg(1))
            .analyze(app.as_ref(), Workload::Benchmark)
            .unwrap();
        let parallel = Engine::new(cfg(8))
            .analyze(app.as_ref(), Workload::Benchmark)
            .unwrap();
        let auto = Engine::new(cfg(0))
            .analyze(app.as_ref(), Workload::Benchmark)
            .unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial, auto);
        assert!(serial.stats.matches_formula(), "{:?}", serial.stats);
    }

    /// An app that degrades gracefully when any *one* of three optional
    /// syscalls is unavailable, but crashes when two or more are gone:
    /// every feature is individually avoidable, yet the combined policy
    /// (which interposes all three) fails, and no *single* relaxation
    /// can fix it — the joint-conflict case the cumulative bisection
    /// resolves and the old single-sweep loop could not.
    struct TwoOfThree;
    impl AppModel for TwoOfThree {
        fn name(&self) -> &str {
            "two-of-three"
        }
        fn spec(&self) -> loupe_apps::AppSpec {
            loupe_apps::AppSpec {
                name: "two-of-three".into(),
                version: "1".into(),
                year: 2024,
                port: None,
                kind: loupe_apps::AppKind::Utility,
                libc: loupe_apps::libc::LibcFlavor::MuslStatic,
            }
        }
        fn run(&self, env: &mut Env<'_>, _w: Workload) -> Result<(), Exit> {
            env.charge(50);
            let mut working = 0;
            for s in [Sysno::getpid, Sysno::getuid, Sysno::uname] {
                if env.sys0(s).ret >= 0 {
                    working += 1;
                }
            }
            if working < 2 {
                return Err(Exit::Crash("too many probes degraded".into()));
            }
            env.record_response();
            Ok(())
        }
        fn code(&self) -> loupe_apps::AppCode {
            loupe_apps::AppCode::new()
        }
    }

    #[test]
    fn joint_conflicts_are_resolved_by_cumulative_bisection() {
        let report = engine()
            .analyze(&TwoOfThree, Workload::HealthCheck)
            .unwrap();
        // Each syscall is individually avoidable, so the combined run
        // stubs all three and fails; relaxing any single one still
        // leaves only one working — the bisection must accumulate two
        // relaxations before the confirmation passes.
        assert!(
            report.confirmed,
            "cumulative bisection must restore confirmation: {report:?}"
        );
        assert_eq!(
            report.conflicts.len(),
            2,
            "exactly two culprits: {:?}",
            report.conflicts
        );
        for s in &report.conflicts {
            assert!(report.classes[s].is_required(), "{s} re-marked required");
        }
        // The third feature keeps its individually measured class.
        let spared: Vec<Sysno> = report
            .classes
            .iter()
            .filter(|(s, _)| !report.conflicts.contains(s))
            .map(|(s, _)| *s)
            .collect();
        assert_eq!(spared.len(), 1);
        assert!(report.classes[&spared[0]].is_avoidable());
        assert!(report.stats.bisect_runs > 0);
    }

    /// An app whose `sysinfo` call gates expensive telemetry work: the
    /// workload passes without it, but skipping the work makes the run
    /// far faster than baseline — a perf deviation, not a test failure.
    struct TelemetryHeavy;
    impl AppModel for TelemetryHeavy {
        fn name(&self) -> &str {
            "telemetry-heavy"
        }
        fn spec(&self) -> loupe_apps::AppSpec {
            loupe_apps::AppSpec {
                name: "telemetry-heavy".into(),
                version: "1".into(),
                year: 2024,
                port: None,
                kind: loupe_apps::AppKind::Utility,
                libc: loupe_apps::libc::LibcFlavor::MuslStatic,
            }
        }
        fn run(&self, env: &mut Env<'_>, _w: Workload) -> Result<(), Exit> {
            env.charge(100);
            if env.sys0(Sysno::sysinfo).ret >= 0 {
                env.charge(5000); // telemetry only runs when sysinfo works
            }
            env.record_response();
            Ok(())
        }
        fn code(&self) -> loupe_apps::AppCode {
            loupe_apps::AppCode::new()
        }
    }

    #[test]
    fn strict_policy_verdict_and_stored_impact_agree() {
        let cfg = |perf_policy| AnalysisConfig {
            replicas: 2,
            perf_policy,
            ..AnalysisConfig::fast()
        };
        // Lenient (the paper's posture): the stub passes and the perf
        // delta is only an annotation.
        let lenient = Engine::new(cfg(PerfPolicy::Lenient))
            .analyze(&TelemetryHeavy, Workload::HealthCheck)
            .unwrap();
        assert!(lenient.classes[&Sysno::sysinfo].stub_ok);

        // Strict: the significant speed-up disqualifies the stub, and
        // the stored impact must agree with that final verdict instead
        // of contradicting the classification.
        let strict = Engine::new(cfg(PerfPolicy::Strict))
            .analyze(&TelemetryHeavy, Workload::HealthCheck)
            .unwrap();
        assert!(!strict.classes[&Sysno::sysinfo].stub_ok);
        let impact = strict.impacts[&Sysno::sysinfo].stub.unwrap();
        assert!(!impact.success, "impact reflects the final verdict");
        assert_eq!(impact.tests_passed, Some(true), "raw script pass kept");
        assert!(impact.policy_disqualified());
        assert!(impact.perf_delta > 0.03, "the speed-up that triggered it");
    }

    #[test]
    fn baseline_features_merge_conservatively_across_replicas() {
        // Union of keys, AND of health: a feature broken in any replica
        // is not demanded of stub/fake runs, and a feature only a later
        // replica reported still participates (replica 0 is not special).
        let r0: BTreeMap<String, bool> = [("logging", true), ("persistence", true)]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        let r1: BTreeMap<String, bool> =
            [("logging", true), ("persistence", false), ("reload", true)]
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect();
        let merged = merge_feature_health([&r0, &r1].into_iter());
        assert!(merged["logging"]);
        assert!(!merged["persistence"], "one broken replica wins");
        assert!(merged["reload"], "later-replica features included");
        assert_eq!(merged.len(), 3);
    }
}
