//! The run environment: the application's window onto the (possibly
//! interposed) kernel, plus outcome recording.

use std::collections::BTreeMap;

use bytes::Bytes;
use loupe_kernel::{HostPort, Invocation, Kernel, SysOutcome};
use loupe_syscalls::Sysno;

use crate::model::{AppOutcome, Exit};

/// The environment one application run executes in.
///
/// Wraps the kernel handle (which the Loupe engine interposes) and
/// accumulates the observable outcome: verified responses, feature health,
/// failures and log lines.
pub struct Env<'k> {
    kernel: &'k mut dyn Kernel,
    start: u64,
    responses: u64,
    features: BTreeMap<String, bool>,
    failures: Vec<String>,
}

impl<'k> Env<'k> {
    /// Creates an environment around a kernel handle.
    pub fn new(kernel: &'k mut dyn Kernel) -> Env<'k> {
        let start = kernel.now();
        Env {
            kernel,
            start,
            responses: 0,
            features: BTreeMap::new(),
            failures: Vec::new(),
        }
    }

    // ---- system-call helpers -------------------------------------------

    /// Issues a raw system call.
    pub fn sys(&mut self, sysno: Sysno, args: [u64; 6]) -> SysOutcome {
        self.kernel.syscall(&Invocation::new(sysno, args))
    }

    /// Issues a zero-argument system call.
    pub fn sys0(&mut self, sysno: Sysno) -> SysOutcome {
        self.sys(sysno, [0; 6])
    }

    /// Issues a path-taking system call.
    pub fn sys_path(&mut self, sysno: Sysno, args: [u64; 6], path: &str) -> SysOutcome {
        self.kernel
            .syscall(&Invocation::new(sysno, args).with_path(path))
    }

    /// Issues a data-carrying system call (write family).
    pub fn sys_data(&mut self, sysno: Sysno, args: [u64; 6], data: impl Into<Bytes>) -> SysOutcome {
        self.kernel
            .syscall(&Invocation::new(sysno, args).with_data(data.into()))
    }

    /// Issues a system call on behalf of a *helper binary* spawned by the
    /// workload (e.g. the `git` invocations of a test suite, §3.3). The
    /// Loupe whitelist excludes these from the application's trace.
    pub fn helper_sys(&mut self, sysno: Sysno, args: [u64; 6]) -> SysOutcome {
        self.kernel
            .syscall(&Invocation::new(sysno, args).with_note("helper:test-suite-tool"))
    }

    // ---- memory / time --------------------------------------------------

    /// Charges application compute time.
    pub fn charge(&mut self, cost: u64) {
        self.kernel.charge(cost);
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.kernel.now()
    }

    /// Stores to modelled user memory (futex words).
    pub fn mem_store(&mut self, addr: u64, val: u32) {
        self.kernel.mem_store(addr, val);
    }

    /// Loads from modelled user memory.
    pub fn mem_load(&self, addr: u64) -> u32 {
        self.kernel.mem_load(addr)
    }

    /// Host-side network port (the embedded test-script side: connecting
    /// clients, sending requests, verifying responses).
    pub fn host_mut(&mut self) -> &mut HostPort {
        self.kernel.host_mut()
    }

    // ---- outcome recording ----------------------------------------------

    /// Records one end-to-end verified response.
    pub fn record_response(&mut self) {
        self.responses += 1;
    }

    /// Records several verified responses at once.
    pub fn record_responses(&mut self, n: u64) {
        self.responses += n;
    }

    /// Records an application-visible failure (a log line a test script
    /// would flag).
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failures.push(reason.into());
    }

    /// Records feature health. Once a feature goes unhealthy it stays so.
    pub fn feature(&mut self, name: &str, ok: bool) {
        let entry = self.features.entry(name.to_owned()).or_insert(true);
        *entry = *entry && ok;
    }

    /// Number of verified responses so far.
    pub fn responses(&self) -> u64 {
        self.responses
    }

    /// Number of recorded failures so far.
    pub fn failure_count(&self) -> usize {
        self.failures.len()
    }

    /// Finalises the run into an [`AppOutcome`].
    pub fn finish(self, exit: Exit) -> AppOutcome {
        AppOutcome {
            exit,
            responses: self.responses,
            elapsed: self.kernel.now() - self.start,
            features: self.features,
            failures: self.failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loupe_kernel::LinuxSim;

    #[test]
    fn records_and_finishes() {
        let mut k = LinuxSim::new();
        let mut env = Env::new(&mut k);
        env.sys0(Sysno::getpid);
        env.charge(50);
        env.record_response();
        env.record_responses(2);
        env.feature("logging", true);
        env.feature("logging", false);
        env.feature("logging", true); // cannot recover
        env.fail("oops");
        let out = env.finish(Exit::Clean);
        assert_eq!(out.responses, 3);
        assert!(out.elapsed >= 50);
        assert!(!out.features["logging"]);
        assert_eq!(out.failures, vec!["oops"]);
    }

    #[test]
    fn syscall_helpers_reach_the_kernel() {
        let mut k = LinuxSim::new();
        k.vfs.add_file("/tmp/f", b"abc".to_vec());
        let mut env = Env::new(&mut k);
        let fd = env.sys_path(Sysno::openat, [0; 6], "/tmp/f").ret;
        assert!(fd >= 3);
        let n = env
            .sys_data(Sysno::write, [1, 0, 0, 0, 0, 0], &b"hi"[..])
            .ret;
        assert_eq!(n, 2);
        env.mem_store(0x10, 7);
        assert_eq!(env.mem_load(0x10), 7);
    }
}
