//! The Loupe dynamic-analysis engine — the paper's primary contribution.
//!
//! Loupe measures, for an application and a workload, which OS features
//! (system calls, sub-features of vectored system calls, pseudo-files)
//! must actually be **implemented** by a compatibility layer, and which
//! can be **stubbed** (return `-ENOSYS`), **faked** (return success
//! without doing the work) or **partially implemented**.
//!
//! The measurement protocol follows §3 of the paper:
//!
//! 1. a *discovery* run traces every feature the workload exercises;
//! 2. for each traced feature, one run *stubs* it and one run *fakes* it,
//!    and the test script decides whether the application still works
//!    reliably (performance and resource usage are compared against the
//!    baseline as additional failure signals);
//! 3. a final *confirmation* run applies every per-feature conclusion at
//!    once;
//! 4. everything is replicated `r` times and merged conservatively.
//!
//! The total number of runs is `(2 + 2·t·s)·⌈r/p⌉` in paper notation —
//! tracked by [`engine::RunStats`] and asserted in tests. Replicas run
//! serially here (`p = 1`): the simulator is deterministic, so
//! parallelism lives at the fleet level, in [`pool`].
//!
//! # Examples
//!
//! ```
//! use loupe_apps::{registry, Workload};
//! use loupe_core::{AnalysisConfig, Engine};
//!
//! let app = registry::find("weborf").unwrap();
//! let engine = Engine::new(AnalysisConfig::fast());
//! let report = engine.analyze(app.as_ref(), Workload::HealthCheck).unwrap();
//! assert!(report.required().len() < report.traced().len());
//! ```

pub mod anomaly;
pub mod engine;
pub mod exec;
pub mod fingerprint;
pub mod interpose;
pub mod policy;
pub mod pool;
pub mod report;
pub mod script;
pub mod stats;
pub mod trace;

/// Re-export: fake success values now live beside the kernels that
/// answer them (`loupe_kernel::fakes`), shared by the interposition
/// layer and [`RestrictedKernel`](loupe_kernel::RestrictedKernel).
pub use loupe_kernel::fakes;

pub use anomaly::LogProfile;
pub use engine::{transfer_hints, AnalysisConfig, Engine, EngineError, PerfPolicy, RunStats};
pub use exec::{run_app, ExecEnv};
pub use fingerprint::{fingerprint_of, fingerprint_value, Fingerprint};
pub use interpose::Interposed;
pub use policy::{Action, Policy};
pub use report::{AppReport, BaselineStats, FeatureClass, Impact, ImpactRecord, LINUX_ENV};
pub use script::{TestScript, Verdict};
pub use trace::Trace;
