//! A kernel restricted to an OS support profile (§4.1 validation).
//!
//! The paper's incremental support plans are *predictions*: "implement
//! these syscalls, stub/fake those, and the app will run on your OS".
//! [`RestrictedKernel`] lets the engine *execute* that prediction: it
//! wraps a full-featured kernel but only forwards the system calls a
//! [`KernelProfile`] declares implemented — everything else is answered
//! at the boundary, `-ENOSYS` for unimplemented/stubbed calls and a
//! syscall-specific success value for faked ones. Running an application
//! against a `RestrictedKernel` built from a support plan's cumulative
//! state emulates the target OS mid-way through that plan.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use loupe_syscalls::{Errno, SubFeatureKey, Sysno, SysnoSet};

use crate::clock::INTERCEPT_COST;
use crate::fakes::fake_value;
use crate::invocation::{Invocation, SysOutcome};
use crate::net::HostPort;
use crate::resources::ResourceUsage;
use crate::Kernel;

/// The syscall surface one execution environment provides: what is
/// implemented for real, what is deliberately stubbed, and what is
/// shimmed with a fake success value.
///
/// Precedence, mirroring how a real support plan layers work:
/// **implemented** beats both overlays (a real implementation supersedes
/// any shim), **faked** beats **stubbed** (a fake shim is installed
/// precisely because `-ENOSYS` was measured insufficient), and anything
/// else — including syscalls the profile has never heard of — returns
/// `-ENOSYS`, exactly like an OS that has not implemented the call.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Profile name (usually the target OS, e.g. `kerla @ step 3`).
    pub name: String,
    /// Syscalls forwarded to the backing kernel.
    pub implemented: SysnoSet,
    /// Syscalls deliberately answered with `-ENOSYS`.
    pub stubbed: SysnoSet,
    /// Syscalls answered with a fake success value.
    pub faked: SysnoSet,
    /// Per-syscall support level layered over `implemented`: a syscall
    /// absent from this map is [`SyscallSupport::Full`]. A
    /// [`SyscallSupport::Partial`] entry lists the *holes* — selector
    /// values of a vectored syscall (fcntl commands, futex ops, ...)
    /// the kernel recognises the number of but cannot execute. Profiles
    /// stored before this field existed deserialise to the empty map.
    #[serde(default)]
    pub support: BTreeMap<Sysno, SyscallSupport>,
    /// Sub-feature holes a support plan deliberately leaves rejected —
    /// the per-flag analogue of `stubbed`. Purely declarative (a hole
    /// rejects whether or not it is listed here); plans record the
    /// decision so validation can tell "tolerated" from "overlooked".
    #[serde(default)]
    pub stubbed_flags: Vec<SubFeatureKey>,
    /// Sub-feature holes answered with a fake success value instead of
    /// a rejection — the per-flag analogue of `faked`. Only meaningful
    /// for keys that are holes of a `Partial` syscall.
    #[serde(default)]
    pub faked_flags: Vec<SubFeatureKey>,
}

impl KernelProfile {
    /// Creates a profile that implements exactly `implemented`.
    pub fn new(name: impl Into<String>, implemented: SysnoSet) -> KernelProfile {
        KernelProfile {
            name: name.into(),
            implemented,
            stubbed: SysnoSet::new(),
            faked: SysnoSet::new(),
            support: BTreeMap::new(),
            stubbed_flags: Vec::new(),
            faked_flags: Vec::new(),
        }
    }

    /// Marks `sysno` as partially implemented with the given holes
    /// (builder style). An empty hole list means [`SyscallSupport::Full`]
    /// and removes any previous entry.
    pub fn set_partial(&mut self, sysno: Sysno, holes: Vec<SubFeatureKey>) {
        if holes.is_empty() {
            self.support.remove(&sysno);
        } else {
            self.support.insert(sysno, SyscallSupport::Partial(holes));
        }
    }

    /// Removes one hole — the flag-granular analogue of inserting into
    /// `implemented`. Plan validation replays `implement_flags` steps
    /// with this. No-op if `key` is not currently a hole; also drops
    /// any stub/fake overlay the plugged flag had, a real
    /// implementation superseding both.
    pub fn plug_hole(&mut self, key: SubFeatureKey) {
        let mut holes = self.holes(key.sysno()).to_vec();
        holes.retain(|k| *k != key);
        self.set_partial(key.sysno(), holes);
        self.stubbed_flags.retain(|k| *k != key);
        self.faked_flags.retain(|k| *k != key);
    }

    /// The unsupported selectors of `sysno` (empty for full support).
    pub fn holes(&self, sysno: Sysno) -> &[SubFeatureKey] {
        match self.support.get(&sysno) {
            Some(SyscallSupport::Partial(holes)) => holes,
            _ => &[],
        }
    }

    /// Whether `key` is an unsupported selector of an otherwise
    /// implemented syscall.
    pub fn is_hole(&self, key: SubFeatureKey) -> bool {
        self.holes(key.sysno()).contains(&key)
    }

    /// Every hole across the whole profile, in syscall order.
    pub fn all_holes(&self) -> Vec<SubFeatureKey> {
        self.support
            .values()
            .flat_map(|s| match s {
                SyscallSupport::Full => [].as_slice(),
                SyscallSupport::Partial(holes) => holes.as_slice(),
            })
            .copied()
            .collect()
    }

    /// How the profile answers `sysno`.
    pub fn disposition(&self, sysno: Sysno) -> Disposition {
        if self.implemented.contains(sysno) {
            Disposition::Forward
        } else if self.faked.contains(sysno) {
            Disposition::Fake
        } else {
            Disposition::Enosys
        }
    }

    /// How the profile answers one decoded sub-feature of a *forwarded*
    /// syscall; `None` means the selector is supported and the call
    /// proceeds to the backing kernel. Only consulted when
    /// [`disposition`](KernelProfile::disposition) says
    /// [`Disposition::Forward`] — a syscall that is not implemented at
    /// all never gets to flag granularity.
    pub fn flag_disposition(&self, key: SubFeatureKey) -> Option<FlagAnswer> {
        if !self.is_hole(key) {
            return None;
        }
        if self.faked_flags.contains(&key) {
            return Some(FlagAnswer::Fake);
        }
        // A kernel that has never heard of the whole *mechanism* behind
        // a critical operation answers like an unimplemented syscall;
        // one that merely does not recognise the flag value answers
        // `-EINVAL`, like Linux does for unknown selectors.
        Some(FlagAnswer::Reject(if key.is_typically_critical() {
            Errno::ENOSYS
        } else {
            Errno::EINVAL
        }))
    }
}

/// Support level of one implemented syscall (see
/// [`KernelProfile::support`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyscallSupport {
    /// Every operation of the syscall works.
    #[default]
    Full,
    /// The syscall is recognised but the listed selector values are
    /// unsupported — invoking one is rejected at the boundary.
    Partial(Vec<SubFeatureKey>),
}

/// What a [`KernelProfile`] does with one unsupported sub-feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagAnswer {
    /// Reject with this errno (`ENOSYS` for typically-critical
    /// operations whose mechanism is absent, `EINVAL` for unrecognised
    /// flag values).
    Reject(Errno),
    /// Answer a syscall-specific fake success value.
    Fake,
}

/// What a [`KernelProfile`] does with one system call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Forward to the backing kernel.
    Forward,
    /// Answer `-ENOSYS` (unimplemented or deliberately stubbed).
    Enosys,
    /// Answer a syscall-specific fake success value.
    Fake,
}

/// What a [`RestrictedKernel`] observed over one run: the per-syscall
/// boundary counters, bundled so they can outlive the kernel (the
/// engine copies them into the analysis report, and the fleet × OS
/// compatibility matrix persists them as per-cell failure causes).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelObservations {
    /// Per-syscall counts of invocations answered `-ENOSYS` because the
    /// profile does not implement them.
    pub rejections: BTreeMap<Sysno, u64>,
    /// Per-syscall counts of invocations answered by the fake overlay.
    pub fake_hits: BTreeMap<Sysno, u64>,
    /// The first syscall ever rejected — the first thing an OS developer
    /// asks when a run fails on their profile ("what did it trip on?").
    pub first_rejection: Option<Sysno>,
    /// Per-sub-feature counts of invocations rejected because their
    /// decoded selector is a hole of a partially-implemented syscall.
    /// Deliberately *not* folded into `rejections`: the syscall is
    /// implemented — the flag is what the OS is missing, and the counter
    /// must say so. Keys are raw `(sysno, selector)` pairs, so selectors
    /// outside the modeled [`SubFeature`](loupe_syscalls::SubFeature)
    /// table still surface (as `ioctl:0x…`) instead of vanishing.
    #[serde(default)]
    pub flag_rejections: Vec<(SubFeatureKey, u64)>,
    /// Per-sub-feature counts answered by the per-flag fake overlay.
    #[serde(default)]
    pub flag_fake_hits: Vec<(SubFeatureKey, u64)>,
    /// The first sub-feature ever rejected, independent of
    /// `first_rejection` (a run can trip on a flag without any syscall
    /// ever being rejected whole).
    #[serde(default)]
    pub first_rejected_flag: Option<SubFeatureKey>,
}

fn bump(counters: &mut Vec<(SubFeatureKey, u64)>, key: SubFeatureKey, n: u64) {
    match counters.iter_mut().find(|(k, _)| *k == key) {
        Some((_, count)) => *count += n,
        None => counters.push((key, n)),
    }
}

impl KernelObservations {
    /// Total invocations answered `-ENOSYS` at the profile boundary.
    pub fn total_rejections(&self) -> u64 {
        self.rejections.values().sum()
    }

    /// Total invocations answered by the fake overlay.
    pub fn total_fake_hits(&self) -> u64 {
        self.fake_hits.values().sum()
    }

    /// Total invocations rejected because of a sub-feature hole.
    pub fn total_flag_rejections(&self) -> u64 {
        self.flag_rejections.iter().map(|(_, n)| n).sum()
    }

    /// Total invocations answered by the per-flag fake overlay.
    pub fn total_flag_fake_hits(&self) -> u64 {
        self.flag_fake_hits.iter().map(|(_, n)| n).sum()
    }

    /// Accumulates another run's observations (counts add; the first
    /// rejection of the earliest run wins).
    pub fn absorb(&mut self, other: &KernelObservations) {
        for (&s, n) in &other.rejections {
            *self.rejections.entry(s).or_insert(0) += n;
        }
        for (&s, n) in &other.fake_hits {
            *self.fake_hits.entry(s).or_insert(0) += n;
        }
        if self.first_rejection.is_none() {
            self.first_rejection = other.first_rejection;
        }
        for &(k, n) in &other.flag_rejections {
            bump(&mut self.flag_rejections, k, n);
        }
        for &(k, n) in &other.flag_fake_hits {
            bump(&mut self.flag_fake_hits, k, n);
        }
        if self.first_rejected_flag.is_none() {
            self.first_rejected_flag = other.first_rejected_flag;
        }
    }
}

/// A kernel that only exposes the syscall surface of a [`KernelProfile`].
///
/// Wraps any [`Kernel`]; calls outside the profile never reach it.
/// Helper invocations (test-script binaries tagged `helper:`) bypass the
/// restriction, mirroring how Loupe's whitelist lets the measurement
/// harness itself run on the host.
#[derive(Debug)]
pub struct RestrictedKernel<K> {
    inner: K,
    profile: KernelProfile,
    observations: KernelObservations,
}

impl<K: Kernel> RestrictedKernel<K> {
    /// Restricts `inner` to `profile`.
    pub fn new(inner: K, profile: KernelProfile) -> RestrictedKernel<K> {
        RestrictedKernel {
            inner,
            profile,
            observations: KernelObservations::default(),
        }
    }

    /// The active profile.
    pub fn profile(&self) -> &KernelProfile {
        &self.profile
    }

    /// Per-syscall counts of invocations answered `-ENOSYS` because the
    /// profile does not implement them — the first thing to inspect when
    /// a plan-validation run fails.
    pub fn rejections(&self) -> &BTreeMap<Sysno, u64> {
        &self.observations.rejections
    }

    /// Per-syscall counts of invocations answered by the fake overlay.
    pub fn fake_hits(&self) -> &BTreeMap<Sysno, u64> {
        &self.observations.fake_hits
    }

    /// The first syscall this kernel ever rejected, if any.
    pub fn first_rejection(&self) -> Option<Sysno> {
        self.observations.first_rejection
    }

    /// The first sub-feature this kernel ever rejected, if any.
    pub fn first_rejected_flag(&self) -> Option<SubFeatureKey> {
        self.observations.first_rejected_flag
    }

    /// The full observation bundle, cloneable past the kernel's life.
    pub fn observations(&self) -> &KernelObservations {
        &self.observations
    }

    /// Consumes the wrapper, returning the backing kernel.
    pub fn into_inner(self) -> K {
        self.inner
    }
}

impl<K: Kernel> Kernel for RestrictedKernel<K> {
    fn syscall(&mut self, inv: &Invocation) -> SysOutcome {
        // Test-script helper binaries run on the measurement host, not
        // the OS under development — never restricted.
        if inv.note.is_some_and(|n| n.starts_with("helper:")) {
            return self.inner.syscall(inv);
        }
        match self.profile.disposition(inv.sysno) {
            Disposition::Forward => {
                // The syscall is implemented — but a partially-supported
                // one still rejects (or fakes) the selector values it
                // cannot execute, and the counters charge the *flag*.
                if let Some(answer) = inv
                    .sub_feature()
                    .and_then(|key| self.profile.flag_disposition(key).map(|a| (key, a)))
                {
                    let (key, answer) = answer;
                    self.inner.charge(INTERCEPT_COST);
                    return match answer {
                        FlagAnswer::Reject(errno) => {
                            bump(&mut self.observations.flag_rejections, key, 1);
                            self.observations.first_rejected_flag.get_or_insert(key);
                            SysOutcome::err(errno)
                        }
                        FlagAnswer::Fake => {
                            bump(&mut self.observations.flag_fake_hits, key, 1);
                            SysOutcome::ok(fake_value(inv))
                        }
                    };
                }
                self.inner.syscall(inv)
            }
            Disposition::Enosys => {
                *self.observations.rejections.entry(inv.sysno).or_insert(0) += 1;
                self.observations.first_rejection.get_or_insert(inv.sysno);
                self.inner.charge(INTERCEPT_COST);
                SysOutcome::err(Errno::ENOSYS)
            }
            Disposition::Fake => {
                *self.observations.fake_hits.entry(inv.sysno).or_insert(0) += 1;
                self.inner.charge(INTERCEPT_COST);
                SysOutcome::ok(fake_value(inv))
            }
        }
    }

    fn charge(&mut self, cost: u64) {
        self.inner.charge(cost);
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn usage(&self) -> ResourceUsage {
        self.inner.usage()
    }

    fn host_mut(&mut self) -> &mut HostPort {
        self.inner.host_mut()
    }

    fn mem_store(&mut self, addr: u64, val: u32) {
        self.inner.mem_store(addr, val);
    }

    fn mem_load(&self, addr: u64) -> u32 {
        self.inner.mem_load(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinuxSim;

    fn profile(implemented: &[Sysno]) -> KernelProfile {
        KernelProfile::new("test-os", implemented.iter().copied().collect())
    }

    #[test]
    fn implemented_calls_reach_the_kernel() {
        let mut k = RestrictedKernel::new(LinuxSim::new(), profile(&[Sysno::getpid]));
        let r = k.syscall(&Invocation::new(Sysno::getpid, [0; 6]));
        assert!(r.ret > 0);
        assert!(k.rejections().is_empty());
    }

    #[test]
    fn unimplemented_calls_return_enosys() {
        let mut k = RestrictedKernel::new(LinuxSim::new(), profile(&[Sysno::getpid]));
        let r = k.syscall(&Invocation::new(Sysno::uname, [0; 6]));
        assert_eq!(r.errno(), Some(Errno::ENOSYS));
        assert_eq!(k.rejections()[&Sysno::uname], 1);
    }

    #[test]
    fn first_rejection_sticks_and_observations_accumulate() {
        let mut k = RestrictedKernel::new(LinuxSim::new(), profile(&[Sysno::getpid]));
        assert_eq!(k.first_rejection(), None);
        k.syscall(&Invocation::new(Sysno::uname, [0; 6]));
        k.syscall(&Invocation::new(Sysno::sysinfo, [0; 6]));
        k.syscall(&Invocation::new(Sysno::uname, [0; 6]));
        assert_eq!(k.first_rejection(), Some(Sysno::uname), "earliest wins");
        let obs = k.observations().clone();
        assert_eq!(obs.rejections[&Sysno::uname], 2);
        assert_eq!(obs.total_rejections(), 3);
        assert_eq!(obs.total_fake_hits(), 0);

        // absorb() adds counts and keeps the earliest first rejection.
        let mut acc = KernelObservations::default();
        acc.absorb(&obs);
        acc.absorb(&obs);
        assert_eq!(acc.rejections[&Sysno::sysinfo], 2);
        assert_eq!(acc.first_rejection, Some(Sysno::uname));
        let json = serde_json::to_string(&acc).unwrap();
        let back: KernelObservations = serde_json::from_str(&json).unwrap();
        assert_eq!(back, acc);
    }

    #[test]
    fn faked_calls_return_success_without_work() {
        let mut p = profile(&[]);
        p.faked.insert(Sysno::write);
        let mut k = RestrictedKernel::new(LinuxSim::new(), p);
        let r = k.syscall(&Invocation::new(Sysno::write, [1, 0, 128, 0, 0, 0]));
        assert_eq!(r.ret, 128, "write fake reports full length");
        assert_eq!(k.usage().cur_fds, 0);
        assert_eq!(k.fake_hits()[&Sysno::write], 1);
    }

    #[test]
    fn implemented_beats_fake_beats_stub() {
        let mut p = profile(&[Sysno::getpid]);
        p.faked.insert(Sysno::getpid);
        p.stubbed.insert(Sysno::getpid);
        assert_eq!(p.disposition(Sysno::getpid), Disposition::Forward);
        let mut p2 = profile(&[]);
        p2.faked.insert(Sysno::getuid);
        p2.stubbed.insert(Sysno::getuid);
        assert_eq!(p2.disposition(Sysno::getuid), Disposition::Fake);
        assert_eq!(p2.disposition(Sysno::geteuid), Disposition::Enosys);
    }

    #[test]
    fn helpers_bypass_the_restriction() {
        let mut k = RestrictedKernel::new(LinuxSim::new(), profile(&[]));
        let r = k.syscall(&Invocation::new(Sysno::getpid, [0; 6]).with_note("helper:sh"));
        assert!(r.ret > 0, "helper calls run on the host kernel");
        assert!(k.rejections().is_empty());
    }

    #[test]
    fn profile_serde_roundtrip() {
        let mut p = profile(&[Sysno::read, Sysno::write]);
        p.stubbed.insert(Sysno::sysinfo);
        p.faked.insert(Sysno::prctl);
        let json = serde_json::to_string(&p).unwrap();
        let back: KernelProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn profiles_stored_before_partial_fidelity_deserialise() {
        // The partial-fidelity fields all carry `#[serde(default)]`:
        // profile JSON written before they existed deserialises to a
        // hole-free profile that behaves exactly as it used to.
        let legacy = r#"{"name":"old","implemented":[0],"stubbed":[],"faked":[]}"#;
        let back: KernelProfile = serde_json::from_str(legacy).unwrap();
        assert!(back.support.is_empty());
        assert!(back.stubbed_flags.is_empty() && back.faked_flags.is_empty());
        assert_eq!(back.disposition(Sysno::read), Disposition::Forward);
        assert!(back.holes(Sysno::read).is_empty());
    }

    #[test]
    fn partial_profile_serde_roundtrip() {
        use loupe_syscalls::SubFeature;
        let mut p = profile(&[Sysno::fcntl, Sysno::futex]);
        p.set_partial(
            Sysno::fcntl,
            vec![SubFeature::F_SETFL.key(), SubFeature::F_SETLK.key()],
        );
        p.set_partial(Sysno::futex, vec![SubFeature::FUTEX_REQUEUE.key()]);
        p.faked_flags.push(SubFeature::F_SETLK.key());
        p.stubbed_flags.push(SubFeature::FUTEX_REQUEUE.key());
        let json = serde_json::to_string(&p).unwrap();
        let back: KernelProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
        assert_eq!(p.all_holes().len(), 3);
        // Emptying the holes removes the entry entirely.
        p.set_partial(Sysno::fcntl, vec![]);
        assert!(p.holes(Sysno::fcntl).is_empty());
        assert!(!p.is_hole(SubFeature::F_SETFL.key()));
    }

    #[test]
    fn flag_holes_reject_by_criticality() {
        use loupe_syscalls::SubFeature;
        // F_SETFD is non-critical (unknown-flag EINVAL); FUTEX_WAIT is
        // critical (whole mechanism absent: ENOSYS).
        let mut p = profile(&[Sysno::fcntl, Sysno::futex]);
        p.set_partial(Sysno::fcntl, vec![SubFeature::F_SETFD.key()]);
        p.set_partial(Sysno::futex, vec![SubFeature::FUTEX_WAIT.key()]);
        let mut k = RestrictedKernel::new(LinuxSim::new(), p);

        let r = k.syscall(&Invocation::for_sub_feature(SubFeature::F_SETFD.key()));
        assert_eq!(r.errno(), Some(Errno::EINVAL));
        let r = k.syscall(&Invocation::for_sub_feature(SubFeature::FUTEX_WAIT.key()));
        assert_eq!(r.errno(), Some(Errno::ENOSYS));

        // Attribution goes to the flag, not the syscall.
        assert!(k.rejections().is_empty(), "syscall counters untouched");
        assert_eq!(k.first_rejection(), None);
        assert_eq!(k.first_rejected_flag(), Some(SubFeature::F_SETFD.key()));
        let obs = k.observations();
        assert_eq!(obs.total_flag_rejections(), 2);

        // Other selectors of the same syscalls still reach the kernel.
        let r = k.syscall(&Invocation::for_sub_feature(SubFeature::F_GETFL.key()));
        assert!(r.ret >= 0 || r.errno() != Some(Errno::EINVAL));
        assert_eq!(k.observations().total_flag_rejections(), 2);
    }

    #[test]
    fn faked_flags_answer_success_and_count_separately() {
        use loupe_syscalls::SubFeature;
        let mut p = profile(&[Sysno::prlimit64]);
        p.set_partial(Sysno::prlimit64, vec![SubFeature::RLIMIT_MEMLOCK.key()]);
        p.faked_flags.push(SubFeature::RLIMIT_MEMLOCK.key());
        let mut k = RestrictedKernel::new(LinuxSim::new(), p);
        let r = k.syscall(&Invocation::for_sub_feature(
            SubFeature::RLIMIT_MEMLOCK.key(),
        ));
        assert!(r.ret >= 0, "faked flag answers success: {r:?}");
        let obs = k.observations();
        assert_eq!(obs.total_flag_fake_hits(), 1);
        assert_eq!(obs.total_flag_rejections(), 0);
        assert!(obs.fake_hits.is_empty(), "syscall fake counters untouched");
        assert_eq!(obs.first_rejected_flag, None);
    }

    #[test]
    fn unmodeled_selectors_surface_as_raw_keys() {
        // A hole on a selector the SubFeature table has never heard of
        // must still reject and must still be observable afterwards —
        // the raw (sysno, selector) key survives into the counters and
        // renders as `ioctl:0x5423`.
        let raw = SubFeatureKey::new(Sysno::ioctl, 0x5423);
        let mut p = profile(&[Sysno::ioctl]);
        p.set_partial(Sysno::ioctl, vec![raw]);
        let mut k = RestrictedKernel::new(LinuxSim::new(), p);
        let r = k.syscall(&Invocation::for_sub_feature(raw));
        assert_eq!(r.errno(), Some(Errno::EINVAL), "unmodeled → non-critical");
        let obs = k.observations().clone();
        assert_eq!(obs.flag_rejections, vec![(raw, 1)]);
        assert_eq!(obs.first_rejected_flag, Some(raw));
        assert_eq!(obs.first_rejected_flag.unwrap().to_string(), "ioctl:0x5423");
        // And the raw key round-trips through persistence.
        let json = serde_json::to_string(&obs).unwrap();
        let back: KernelObservations = serde_json::from_str(&json).unwrap();
        assert_eq!(back, obs);
    }

    #[test]
    fn helpers_bypass_flag_holes_and_absorb_merges_flag_counters() {
        use loupe_syscalls::SubFeature;
        let mut p = profile(&[Sysno::fcntl]);
        p.set_partial(Sysno::fcntl, vec![SubFeature::F_SETFL.key()]);
        let mut k = RestrictedKernel::new(LinuxSim::new(), p);
        let inv = Invocation::for_sub_feature(SubFeature::F_SETFL.key()).with_note("helper:sh");
        k.syscall(&inv);
        assert_eq!(k.observations().total_flag_rejections(), 0);

        let mut a = KernelObservations::default();
        let mut b = KernelObservations::default();
        bump(&mut a.flag_rejections, SubFeature::F_SETFL.key(), 2);
        a.first_rejected_flag = Some(SubFeature::F_SETFL.key());
        bump(&mut b.flag_rejections, SubFeature::F_SETFL.key(), 3);
        bump(&mut b.flag_fake_hits, SubFeature::F_SETFD.key(), 1);
        b.first_rejected_flag = Some(SubFeature::F_SETFD.key());
        a.absorb(&b);
        assert_eq!(a.flag_rejections, vec![(SubFeature::F_SETFL.key(), 5)]);
        assert_eq!(a.flag_fake_hits, vec![(SubFeature::F_SETFD.key(), 1)]);
        assert_eq!(
            a.first_rejected_flag,
            Some(SubFeature::F_SETFL.key()),
            "earliest wins"
        );
    }
}
