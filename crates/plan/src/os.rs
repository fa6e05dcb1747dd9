//! OS support descriptors: which syscalls an OS under development already
//! implements.
//!
//! The paper feeds Loupe "a simple text file with one line per supported
//! system call" (§4.1). [`OsSpec::from_csv`] parses that format, and
//! [`db()`] curates specs for the 11 OSes the paper generates plans for,
//! with support-set sizes matching Table 1 and §4.1 (Unikraft 174,
//! Fuchsia 152, Kerla 58, ...). Membership is derived from a popularity
//! prefix plus the per-OS gaps Table 1 documents.

use loupe_syscalls::{SubFeatureKey, Sysno, SysnoSet};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// A syscall-support descriptor for one OS.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OsSpec {
    /// OS name.
    pub name: String,
    /// Version or commit the spec describes.
    pub version: String,
    /// Implemented system calls.
    pub supported: SysnoSet,
    /// Per-flag holes of partially implemented syscalls: for each
    /// entry, the syscall *is* in `supported` but the listed
    /// sub-features are not answered (§5.4 partial fidelity). Sorted by
    /// syscall; empty for specs stored before partial fidelity existed.
    #[serde(default)]
    pub partial: Vec<(Sysno, Vec<SubFeatureKey>)>,
}

impl OsSpec {
    /// Creates a spec from parts (no partial holes).
    pub fn new(name: impl Into<String>, version: impl Into<String>, supported: SysnoSet) -> OsSpec {
        OsSpec {
            name: name.into(),
            version: version.into(),
            supported,
            partial: Vec::new(),
        }
    }

    /// The sub-feature holes of one syscall (empty when fully
    /// implemented).
    pub fn holes_for(&self, sysno: Sysno) -> &[SubFeatureKey] {
        self.partial
            .iter()
            .find(|(s, _)| *s == sysno)
            .map(|(_, holes)| holes.as_slice())
            .unwrap_or(&[])
    }

    /// All sub-feature holes across the spec, sorted.
    pub fn all_holes(&self) -> Vec<SubFeatureKey> {
        let mut holes: Vec<SubFeatureKey> = self
            .partial
            .iter()
            .flat_map(|(_, h)| h.iter().copied())
            .collect();
        holes.sort();
        holes
    }

    /// Parses the paper's CSV format: one syscall name (or number) per
    /// line; blank lines and `#` comments ignored.
    ///
    /// # Errors
    ///
    /// Returns the offending line on unknown syscalls.
    pub fn from_csv(name: &str, version: &str, text: &str) -> Result<OsSpec, ParseOsSpecError> {
        let mut supported = SysnoSet::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let token = line.split(',').next().unwrap_or(line).trim();
            let sysno = token.parse::<Sysno>().map_err(|_| ParseOsSpecError {
                line: lineno + 1,
                token: token.to_owned(),
            })?;
            supported.insert(sysno);
        }
        Ok(OsSpec::new(name, version, supported))
    }

    /// Serialises back to the CSV format.
    pub fn to_csv(&self) -> String {
        let mut out = format!(
            "# {} {} — {} syscalls\n",
            self.name,
            self.version,
            self.supported.len()
        );
        for s in self.supported.iter() {
            out.push_str(s.name());
            out.push('\n');
        }
        out
    }
}

/// Error parsing an [`OsSpec`] CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOsSpecError {
    /// 1-based line number.
    pub line: usize,
    /// The unrecognised token.
    pub token: String,
}

impl fmt::Display for ParseOsSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: unknown system call `{}`",
            self.line, self.token
        )
    }
}

impl std::error::Error for ParseOsSpecError {}

/// System calls in rough order of how early a compatibility layer needs
/// them (fundamental services first, modern/rare tail last). OS specs are
/// prefixes of this order, adjusted by the per-OS gaps below.
pub const POPULARITY: &[&str] = &[
    // Process bring-up and memory: nothing runs without these.
    "execve",
    "exit",
    "exit_group",
    "brk",
    "mmap",
    "munmap",
    "mprotect",
    "arch_prctl",
    "read",
    "write",
    "open",
    "close",
    "fstat",
    "stat",
    "lseek",
    "access",
    "getpid",
    "gettid",
    "getppid",
    "getuid",
    "geteuid",
    "getgid",
    "getegid",
    "rt_sigaction",
    "rt_sigprocmask",
    "rt_sigreturn",
    "ioctl",
    "fcntl",
    "dup",
    "dup2",
    "pipe",
    "select",
    "poll",
    "nanosleep",
    "gettimeofday",
    "clock_gettime",
    "time",
    "socket",
    "connect",
    "accept",
    "bind",
    "listen",
    "sendto",
    "recvfrom",
    "writev",
    "readv",
    "setsockopt",
    "getsockopt",
    "uname",
    "getcwd",
    "chdir",
    "mkdir",
    "unlink",
    "rename",
    "getrlimit",
    "setrlimit",
    "umask",
    "getdents64",
    "clone",
    "fork",
    // ~here ends the Kerla-class minimal layer (58).
    "wait4",
    "kill",
    "futex",
    "sched_yield",
    "getrandom",
    "lstat",
    "pread64",
    "pwrite64",
    "sendmsg",
    "recvmsg",
    "shutdown",
    "socketpair",
    "getsockname",
    "getpeername",
    "epoll_create",
    "epoll_ctl",
    "epoll_wait",
    "sendfile",
    // ~here ends a nolibc-class layer (~76).
    "set_tid_address",
    "set_robust_list",
    "sigaltstack",
    "madvise",
    "mremap",
    "getrusage",
    "sysinfo",
    "times",
    "getpriority",
    "setpriority",
    "sched_getaffinity",
    "sched_setaffinity",
    "setuid",
    "setgid",
    "setgroups",
    "setsid",
    "setpgid",
    "getpgrp",
    "getsid",
    "setreuid",
    "setregid",
    "getgroups",
    "chmod",
    "fchmod",
    "chown",
    "fchown",
    "ftruncate",
    "truncate",
    "fsync",
    "fdatasync",
    "flock",
    "statfs",
    "fstatfs",
    "symlink",
    "readlink",
    "link",
    "rmdir",
    "creat",
    "utime",
    "utimes",
    "alarm",
    "getitimer",
    "setitimer",
    "pause",
    "rt_sigsuspend",
    "rt_sigpending",
    "rt_sigtimedwait",
    "sigaltstack",
    "mincore",
    "mlock",
    "munlock",
    // ~HermiTux-class (~128).
    "openat",
    "mkdirat",
    "newfstatat",
    "unlinkat",
    "renameat",
    "faccessat",
    "readlinkat",
    "fchmodat",
    "fchownat",
    "linkat",
    "symlinkat",
    "pselect6",
    "ppoll",
    "accept4",
    "epoll_create1",
    "eventfd2",
    "dup3",
    "pipe2",
    "inotify_init1",
    "prlimit64",
    "utimensat",
    "epoll_pwait",
    "signalfd4",
    "eventfd",
    "timerfd_create",
    "timerfd_settime",
    "timerfd_gettime",
    "fallocate",
    "preadv",
    "pwritev",
    // ~Gramine/Fuchsia-class (~158).
    "clock_getres",
    "clock_nanosleep",
    "clock_settime",
    "settimeofday",
    "capget",
    "capset",
    "prctl",
    "tgkill",
    "tkill",
    "waitid",
    "vfork",
    "setresuid",
    "setresgid",
    "getresuid",
    "getresgid",
    "setfsuid",
    "setfsgid",
    "personality",
    "sync",
    "syncfs",
    "sync_file_range",
    "readahead",
    "fadvise64",
    "getdents",
    // ~Unikraft-class (~182).
    "splice",
    "tee",
    "vmsplice",
    "copy_file_range",
    "memfd_create",
    "getcpu",
    "sched_setscheduler",
    "sched_getscheduler",
    "sched_setparam",
    "sched_getparam",
    "sched_rr_get_interval",
    "sched_get_priority_max",
    "sched_get_priority_min",
    "mlockall",
    "munlockall",
    "msync",
    "mbind",
    "set_mempolicy",
    "get_mempolicy",
    "shmget",
    "shmat",
    "shmctl",
    "shmdt",
    "semget",
    "semop",
    "semctl",
    "msgget",
    "msgsnd",
    "msgrcv",
    "msgctl",
    "mq_open",
    "mq_unlink",
    "mq_timedsend",
    "mq_timedreceive",
    "mq_notify",
    "mq_getsetattr",
    "inotify_init",
    "inotify_add_watch",
    "inotify_rm_watch",
    "fanotify_init",
    "fanotify_mark",
    "name_to_handle_at",
    "open_by_handle_at",
    "setxattr",
    "getxattr",
    "listxattr",
    "removexattr",
    "fsetxattr",
    "fgetxattr",
    "flistxattr",
    "fremovexattr",
    "lsetxattr",
    "lgetxattr",
    "llistxattr",
    "lremovexattr",
    "statx",
    "membarrier",
    "rseq",
    "seccomp",
    "bpf",
    "perf_event_open",
    "userfaultfd",
    "process_vm_readv",
    "process_vm_writev",
    "kcmp",
    "sethostname",
    "setdomainname",
    "chroot",
    "pivot_root",
    "mount",
    "umount2",
    "swapon",
    "swapoff",
    "reboot",
    "syslog",
    "ptrace",
    "_sysctl",
    "ustat",
    "sysfs",
    "io_setup",
    "io_destroy",
    "io_submit",
    "io_getevents",
    "io_cancel",
    "restart_syscall",
    "modify_ldt",
    "iopl",
    "ioperm",
];

/// Parses the popularity table into sysnos (panics are impossible: the
/// table is covered by tests).
fn popularity_sysnos() -> Vec<Sysno> {
    let mut seen = SysnoSet::new();
    POPULARITY
        .iter()
        .filter_map(|n| Sysno::from_name(n))
        .filter(|s| seen.insert(*s))
        .collect()
}

/// The first `n` syscalls of the popularity order, as a set. Crate-public
/// so the vendored-data regeneration helper can rebuild the kerla table
/// from the same prefix the curated specs use.
pub(crate) fn prefix(n: usize) -> SysnoSet {
    popularity_sysnos().into_iter().take(n).collect()
}

fn spec(name: &str, version: &str, size: usize, remove: &[Sysno], add: &[Sysno]) -> OsSpec {
    let mut set = prefix(size);
    for &s in remove {
        set.remove(s);
    }
    for &s in add {
        set.insert(s);
    }
    OsSpec::new(name, version, set)
}

/// Adds curated partial-support holes to a spec: each entry is a
/// syscall the OS *does* list as implemented whose named sub-features
/// it nonetheless rejects (§5.4). Keys are the symbolic
/// [`SubFeatureKey`] spellings; panics on typos (covered by tests).
fn with_holes(mut spec: OsSpec, holes: &[(&str, &[&str])]) -> OsSpec {
    for (sysno_name, keys) in holes {
        let sysno = Sysno::from_name(sysno_name).expect("curated hole syscall");
        assert!(
            spec.supported.contains(sysno),
            "{}: curated holes only refine supported syscalls ({sysno_name})",
            spec.name
        );
        let parsed: Vec<SubFeatureKey> = keys
            .iter()
            .map(|k| SubFeatureKey::parse(&format!("{sysno_name}:{k}")).expect("curated hole key"))
            .collect();
        spec.partial.push((sysno, parsed));
    }
    spec.partial.sort_by_key(|(s, _)| s.raw());
    spec
}

/// Curated support specs for the 11 OSes of §4.1, sized per the paper.
pub fn db() -> Vec<OsSpec> {
    table().to_vec()
}

/// Looks up one of the curated specs by name.
pub fn find(name: &str) -> Option<OsSpec> {
    table().iter().find(|o| o.name == name).cloned()
}

/// The curated specs, built once per process: deriving them re-walks the
/// popularity table and re-parses the vendored kerla snapshot.
fn table() -> &'static [OsSpec] {
    static TABLE: OnceLock<Vec<OsSpec>> = OnceLock::new();
    TABLE.get_or_init(build)
}

fn build() -> Vec<OsSpec> {
    use Sysno as S;
    vec![
        // Unikraft commit 7d6707f: 174 syscalls, with the Table 1 gaps
        // (eventfd2 290, set_tid_address 218, timerfd_create 283,
        // mincore 27, epoll on, gettid missing).
        with_holes(
            spec(
                "unikraft",
                "7d6707f",
                178,
                &[
                    S::eventfd2,
                    S::set_tid_address,
                    S::timerfd_create,
                    S::mincore,
                ],
                &[],
            ),
            // POSIX record locks and capability toggling are unwired in
            // the unikernel's vfscore/process shims.
            &[("fcntl", &["F_SETLK"]), ("prctl", &["PR_SET_KEEPCAPS"])],
        ),
        // Fuchsia (starnix) commit 5d20758: 152 syscalls, Table 1 gaps:
        // dup2 33, rt_sigtimedwait 128, sysinfo 99, mincore 27, setuid 105,
        // sendfile 40, prlimit64 302, eventfd2 302?, epoll variants.
        with_holes(
            spec(
                "fuchsia",
                "5d20758",
                161,
                &[
                    S::dup2,
                    S::rt_sigtimedwait,
                    S::sysinfo,
                    S::mincore,
                    S::sendfile,
                    S::eventfd2,
                    S::prlimit64,
                    S::epoll_create1,
                    S::timerfd_create,
                ],
                &[],
            ),
            // starnix answers fcntl but file locks hit an unimplemented
            // path in its VFS translation.
            &[("fcntl", &["F_SETLK", "F_SETLKW"])],
        ),
        // Kerla commit 73a1873: 58 syscalls, ingested from the vendored
        // compatibility.md snapshot plus curated per-flag overrides
        // (mmap/ioctl/fcntl/arch_prctl are Partially implemented).
        crate::ingest::kerla_spec(),
        // OSv: a mature research libOS.
        with_holes(
            spec("osv", "v0.56", 132, &[], &[]),
            // Single-address-space libOS: advisory file locking is a
            // stub that errors out.
            &[("fcntl", &["F_SETLK"])],
        ),
        // HermiTux.
        spec("hermitux", "master", 100, &[], &[]),
        // gVisor: broad production coverage.
        with_holes(
            spec("gvisor", "release-2021", 211, &[], &[]),
            // Sentry-mediated gaps: POSIX record locks and the
            // keep-capabilities prctl are rejected inside otherwise
            // implemented syscalls.
            &[
                ("fcntl", &["F_SETLK", "F_SETLKW"]),
                ("prctl", &["PR_SET_KEEPCAPS"]),
            ],
        ),
        // Gramine.
        with_holes(
            spec("gramine", "v1.0", 150, &[], &[]),
            // Enclave file handling: byte-range locks and the
            // file-descriptor rlimit resize are unsupported inside SGX.
            &[
                ("fcntl", &["F_SETLK", "F_SETLKW"]),
                ("prlimit64", &["RLIMIT_NOFILE"]),
            ],
        ),
        // FreeBSD Linuxulator.
        with_holes(
            spec("linuxulator", "13.0", 186, &[], &[]),
            // Emulation-layer gaps: Linux-flavoured record locks and the
            // NOFILE prlimit are not translated to their FreeBSD
            // counterparts.
            &[
                ("fcntl", &["F_SETLK", "F_SETLKW"]),
                ("prlimit64", &["RLIMIT_NOFILE"]),
            ],
        ),
        // Browsix: Unix in the browser.
        spec("browsix", "master", 45, &[], &[]),
        // Zephyr POSIX layer.
        spec("zephyr", "v2.7", 55, &[], &[]),
        // Linux nolibc userspace.
        spec("nolibc", "5.15", 76, &[], &[]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn popularity_names_are_all_valid_and_unique_enough() {
        let parsed = popularity_sysnos();
        assert!(parsed.len() >= 190, "parsed {}", parsed.len());
        // Every name resolves (sigaltstack appears twice by design; the
        // dedup in popularity_sysnos handles it).
        for n in POPULARITY {
            assert!(Sysno::from_name(n).is_some(), "{n}");
        }
    }

    #[test]
    fn curated_sizes_match_the_paper() {
        let sizes: std::collections::BTreeMap<String, usize> = db()
            .into_iter()
            .map(|o| (o.name, o.supported.len()))
            .collect();
        assert_eq!(sizes["unikraft"], 174);
        assert_eq!(sizes["fuchsia"], 152);
        assert_eq!(sizes["kerla"], 58);
        assert!(sizes["gvisor"] > sizes["unikraft"]);
        assert!(sizes["browsix"] < sizes["kerla"]);
    }

    #[test]
    fn maturity_ordering_is_nested() {
        let kerla = find("kerla").unwrap();
        let unikraft = find("unikraft").unwrap();
        // The minimal layer is (nearly) contained in the mature one.
        let overlap = kerla.supported.intersection(&unikraft.supported);
        assert!(overlap.len() >= kerla.supported.len() - 4);
    }

    #[test]
    fn find_returns_the_curated_entry() {
        let all = db();
        assert_eq!(all.len(), 11);
        for spec in &all {
            assert_eq!(find(&spec.name).as_ref(), Some(spec), "{}", spec.name);
        }
        assert_eq!(find("not-an-os"), None);
    }

    #[test]
    fn csv_roundtrip() {
        let spec = find("kerla").unwrap();
        let csv = spec.to_csv();
        let back = OsSpec::from_csv("kerla", "73a1873", &csv).unwrap();
        assert_eq!(spec.supported, back.supported);
    }

    #[test]
    fn csv_rejects_unknown_syscalls() {
        let err = OsSpec::from_csv("x", "1", "read\nbogus_call\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("bogus_call"));
    }

    #[test]
    fn csv_accepts_numbers_and_comments() {
        let spec = OsSpec::from_csv("x", "1", "# header\n0\nwrite\n\n").unwrap();
        assert_eq!(spec.supported.len(), 2);
    }
}
