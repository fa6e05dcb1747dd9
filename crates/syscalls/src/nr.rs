//! The x86-64 system-call number table and the [`Sysno`] newtype.
//!
//! The table covers the classic range (0..=334, through `rseq`) and the
//! modern 424..=448 range (`pidfd_send_signal` through `process_mrelease`).

use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize, Value};

macro_rules! syscall_table {
    ($(($nr:expr, $name:ident)),* $(,)?) => {
        /// All `(number, name)` pairs in the table, sorted by number.
        pub const TABLE: &[(u32, &str)] = &[
            $(($nr, stringify!($name)),)*
        ];

        /// Well-known syscall constants, e.g. `Sysno::openat`.
        impl Sysno {
            $(
                #[allow(missing_docs, non_upper_case_globals)]
                pub const $name: Sysno = Sysno($nr);
            )*
        }
    };
}

syscall_table![
    (0, read),
    (1, write),
    (2, open),
    (3, close),
    (4, stat),
    (5, fstat),
    (6, lstat),
    (7, poll),
    (8, lseek),
    (9, mmap),
    (10, mprotect),
    (11, munmap),
    (12, brk),
    (13, rt_sigaction),
    (14, rt_sigprocmask),
    (15, rt_sigreturn),
    (16, ioctl),
    (17, pread64),
    (18, pwrite64),
    (19, readv),
    (20, writev),
    (21, access),
    (22, pipe),
    (23, select),
    (24, sched_yield),
    (25, mremap),
    (26, msync),
    (27, mincore),
    (28, madvise),
    (29, shmget),
    (30, shmat),
    (31, shmctl),
    (32, dup),
    (33, dup2),
    (34, pause),
    (35, nanosleep),
    (36, getitimer),
    (37, alarm),
    (38, setitimer),
    (39, getpid),
    (40, sendfile),
    (41, socket),
    (42, connect),
    (43, accept),
    (44, sendto),
    (45, recvfrom),
    (46, sendmsg),
    (47, recvmsg),
    (48, shutdown),
    (49, bind),
    (50, listen),
    (51, getsockname),
    (52, getpeername),
    (53, socketpair),
    (54, setsockopt),
    (55, getsockopt),
    (56, clone),
    (57, fork),
    (58, vfork),
    (59, execve),
    (60, exit),
    (61, wait4),
    (62, kill),
    (63, uname),
    (64, semget),
    (65, semop),
    (66, semctl),
    (67, shmdt),
    (68, msgget),
    (69, msgsnd),
    (70, msgrcv),
    (71, msgctl),
    (72, fcntl),
    (73, flock),
    (74, fsync),
    (75, fdatasync),
    (76, truncate),
    (77, ftruncate),
    (78, getdents),
    (79, getcwd),
    (80, chdir),
    (81, fchdir),
    (82, rename),
    (83, mkdir),
    (84, rmdir),
    (85, creat),
    (86, link),
    (87, unlink),
    (88, symlink),
    (89, readlink),
    (90, chmod),
    (91, fchmod),
    (92, chown),
    (93, fchown),
    (94, lchown),
    (95, umask),
    (96, gettimeofday),
    (97, getrlimit),
    (98, getrusage),
    (99, sysinfo),
    (100, times),
    (101, ptrace),
    (102, getuid),
    (103, syslog),
    (104, getgid),
    (105, setuid),
    (106, setgid),
    (107, geteuid),
    (108, getegid),
    (109, setpgid),
    (110, getppid),
    (111, getpgrp),
    (112, setsid),
    (113, setreuid),
    (114, setregid),
    (115, getgroups),
    (116, setgroups),
    (117, setresuid),
    (118, getresuid),
    (119, setresgid),
    (120, getresgid),
    (121, getpgid),
    (122, setfsuid),
    (123, setfsgid),
    (124, getsid),
    (125, capget),
    (126, capset),
    (127, rt_sigpending),
    (128, rt_sigtimedwait),
    (129, rt_sigqueueinfo),
    (130, rt_sigsuspend),
    (131, sigaltstack),
    (132, utime),
    (133, mknod),
    (134, uselib),
    (135, personality),
    (136, ustat),
    (137, statfs),
    (138, fstatfs),
    (139, sysfs),
    (140, getpriority),
    (141, setpriority),
    (142, sched_setparam),
    (143, sched_getparam),
    (144, sched_setscheduler),
    (145, sched_getscheduler),
    (146, sched_get_priority_max),
    (147, sched_get_priority_min),
    (148, sched_rr_get_interval),
    (149, mlock),
    (150, munlock),
    (151, mlockall),
    (152, munlockall),
    (153, vhangup),
    (154, modify_ldt),
    (155, pivot_root),
    (156, _sysctl),
    (157, prctl),
    (158, arch_prctl),
    (159, adjtimex),
    (160, setrlimit),
    (161, chroot),
    (162, sync),
    (163, acct),
    (164, settimeofday),
    (165, mount),
    (166, umount2),
    (167, swapon),
    (168, swapoff),
    (169, reboot),
    (170, sethostname),
    (171, setdomainname),
    (172, iopl),
    (173, ioperm),
    (174, create_module),
    (175, init_module),
    (176, delete_module),
    (177, get_kernel_syms),
    (178, query_module),
    (179, quotactl),
    (180, nfsservctl),
    (181, getpmsg),
    (182, putpmsg),
    (183, afs_syscall),
    (184, tuxcall),
    (185, security),
    (186, gettid),
    (187, readahead),
    (188, setxattr),
    (189, lsetxattr),
    (190, fsetxattr),
    (191, getxattr),
    (192, lgetxattr),
    (193, fgetxattr),
    (194, listxattr),
    (195, llistxattr),
    (196, flistxattr),
    (197, removexattr),
    (198, lremovexattr),
    (199, fremovexattr),
    (200, tkill),
    (201, time),
    (202, futex),
    (203, sched_setaffinity),
    (204, sched_getaffinity),
    (205, set_thread_area),
    (206, io_setup),
    (207, io_destroy),
    (208, io_getevents),
    (209, io_submit),
    (210, io_cancel),
    (211, get_thread_area),
    (212, lookup_dcookie),
    (213, epoll_create),
    (214, epoll_ctl_old),
    (215, epoll_wait_old),
    (216, remap_file_pages),
    (217, getdents64),
    (218, set_tid_address),
    (219, restart_syscall),
    (220, semtimedop),
    (221, fadvise64),
    (222, timer_create),
    (223, timer_settime),
    (224, timer_gettime),
    (225, timer_getoverrun),
    (226, timer_delete),
    (227, clock_settime),
    (228, clock_gettime),
    (229, clock_getres),
    (230, clock_nanosleep),
    (231, exit_group),
    (232, epoll_wait),
    (233, epoll_ctl),
    (234, tgkill),
    (235, utimes),
    (236, vserver),
    (237, mbind),
    (238, set_mempolicy),
    (239, get_mempolicy),
    (240, mq_open),
    (241, mq_unlink),
    (242, mq_timedsend),
    (243, mq_timedreceive),
    (244, mq_notify),
    (245, mq_getsetattr),
    (246, kexec_load),
    (247, waitid),
    (248, add_key),
    (249, request_key),
    (250, keyctl),
    (251, ioprio_set),
    (252, ioprio_get),
    (253, inotify_init),
    (254, inotify_add_watch),
    (255, inotify_rm_watch),
    (256, migrate_pages),
    (257, openat),
    (258, mkdirat),
    (259, mknodat),
    (260, fchownat),
    (261, futimesat),
    (262, newfstatat),
    (263, unlinkat),
    (264, renameat),
    (265, linkat),
    (266, symlinkat),
    (267, readlinkat),
    (268, fchmodat),
    (269, faccessat),
    (270, pselect6),
    (271, ppoll),
    (272, unshare),
    (273, set_robust_list),
    (274, get_robust_list),
    (275, splice),
    (276, tee),
    (277, sync_file_range),
    (278, vmsplice),
    (279, move_pages),
    (280, utimensat),
    (281, epoll_pwait),
    (282, signalfd),
    (283, timerfd_create),
    (284, eventfd),
    (285, fallocate),
    (286, timerfd_settime),
    (287, timerfd_gettime),
    (288, accept4),
    (289, signalfd4),
    (290, eventfd2),
    (291, epoll_create1),
    (292, dup3),
    (293, pipe2),
    (294, inotify_init1),
    (295, preadv),
    (296, pwritev),
    (297, rt_tgsigqueueinfo),
    (298, perf_event_open),
    (299, recvmmsg),
    (300, fanotify_init),
    (301, fanotify_mark),
    (302, prlimit64),
    (303, name_to_handle_at),
    (304, open_by_handle_at),
    (305, clock_adjtime),
    (306, syncfs),
    (307, sendmmsg),
    (308, setns),
    (309, getcpu),
    (310, process_vm_readv),
    (311, process_vm_writev),
    (312, kcmp),
    (313, finit_module),
    (314, sched_setattr),
    (315, sched_getattr),
    (316, renameat2),
    (317, seccomp),
    (318, getrandom),
    (319, memfd_create),
    (320, kexec_file_load),
    (321, bpf),
    (322, execveat),
    (323, userfaultfd),
    (324, membarrier),
    (325, mlock2),
    (326, copy_file_range),
    (327, preadv2),
    (328, pwritev2),
    (329, pkey_mprotect),
    (330, pkey_alloc),
    (331, pkey_free),
    (332, statx),
    (333, io_pgetevents),
    (334, rseq),
    (424, pidfd_send_signal),
    (425, io_uring_setup),
    (426, io_uring_enter),
    (427, io_uring_register),
    (428, open_tree),
    (429, move_mount),
    (430, fsopen),
    (431, fsconfig),
    (432, fsmount),
    (433, fspick),
    (434, pidfd_open),
    (435, clone3),
    (436, close_range),
    (437, openat2),
    (438, pidfd_getfd),
    (439, faccessat2),
    (440, process_madvise),
    (441, epoll_pwait2),
    (442, mount_setattr),
    (443, quotactl_fd),
    (444, landlock_create_ruleset),
    (445, landlock_add_rule),
    (446, landlock_restrict_self),
    (447, memfd_secret),
    (448, process_mrelease),
];

/// An x86-64 Linux system-call number.
///
/// The newtype ([C-NEWTYPE]) keeps numbers and other integers apart across
/// the workspace and carries the name table with it.
///
/// # Examples
///
/// ```
/// use loupe_syscalls::Sysno;
///
/// assert_eq!(Sysno::mmap.raw(), 9);
/// assert_eq!(Sysno::from_raw(202).unwrap(), Sysno::futex);
/// assert_eq!("epoll_create".parse::<Sysno>().unwrap().raw(), 213);
/// ```
///
/// [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(transparent)]
pub struct Sysno(u32);

impl Sysno {
    /// Creates a `Sysno` from a raw number if it exists in the table.
    ///
    /// # Examples
    ///
    /// ```
    /// use loupe_syscalls::Sysno;
    /// assert!(Sysno::from_raw(59).is_some());   // execve
    /// assert!(Sysno::from_raw(10_000).is_none());
    /// ```
    pub fn from_raw(nr: u32) -> Option<Sysno> {
        lookup_name(nr).map(|_| Sysno(nr))
    }

    /// Creates a `Sysno` from its kernel name.
    ///
    /// # Examples
    ///
    /// ```
    /// use loupe_syscalls::Sysno;
    /// assert_eq!(Sysno::from_name("futex"), Some(Sysno::futex));
    /// assert_eq!(Sysno::from_name("not_a_syscall"), None);
    /// ```
    pub fn from_name(name: &str) -> Option<Sysno> {
        TABLE
            .iter()
            .find(|(_, n)| *n == name)
            .map(|(nr, _)| Sysno(*nr))
    }

    /// The raw syscall number.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The kernel name of the syscall.
    ///
    /// # Panics
    ///
    /// Never panics for values constructed through [`Sysno::from_raw`],
    /// [`Sysno::from_name`] or the named constants.
    pub fn name(self) -> &'static str {
        lookup_name(self.0).expect("Sysno constructed from table")
    }

    /// Iterates over every syscall in the table, in numeric order.
    ///
    /// # Examples
    ///
    /// ```
    /// use loupe_syscalls::Sysno;
    /// assert!(Sysno::all().count() > 300);
    /// ```
    pub fn all() -> impl Iterator<Item = Sysno> {
        TABLE.iter().map(|(nr, _)| Sysno(*nr))
    }

    /// Whether this syscall is *vectored*: its behaviour is selected by an
    /// operation argument, making partial implementation meaningful (§5.4).
    pub fn is_vectored(self) -> bool {
        matches!(
            self,
            Sysno::ioctl
                | Sysno::fcntl
                | Sysno::prctl
                | Sysno::arch_prctl
                | Sysno::madvise
                | Sysno::prlimit64
                | Sysno::futex
                | Sysno::mmap
        )
    }
}

fn lookup_name(nr: u32) -> Option<&'static str> {
    TABLE
        .binary_search_by_key(&nr, |(n, _)| *n)
        .ok()
        .map(|idx| TABLE[idx].1)
}

impl fmt::Display for Sysno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name(), self.0)
    }
}

/// Accepts only numbers in the table, so a hostile or corrupt stored
/// artifact is rejected at load instead of panicking in [`Sysno::name`].
impl Deserialize for Sysno {
    fn deserialize<S: serde::Source>(src: &mut S) -> Result<Self, serde::Error> {
        let nr = u32::deserialize(src)?;
        Sysno::from_raw(nr)
            .ok_or_else(|| serde::Error::custom(format!("unknown system call number {nr}")))
    }
}

/// Error returned when parsing a [`Sysno`] from an unknown name or number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSysnoError {
    input: String,
}

impl fmt::Display for ParseSysnoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown system call `{}`", self.input)
    }
}

impl std::error::Error for ParseSysnoError {}

impl FromStr for Sysno {
    type Err = ParseSysnoError;

    /// Parses either a kernel name (`"openat"`) or a decimal number
    /// (`"257"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Ok(nr) = s.parse::<u32>() {
            return Sysno::from_raw(nr).ok_or_else(|| ParseSysnoError { input: s.into() });
        }
        Sysno::from_name(s).ok_or_else(|| ParseSysnoError { input: s.into() })
    }
}

/// Number of 64-bit words in a [`SysnoSet`]: 512 bits, above the table's
/// highest number (448).
const WORDS: usize = 8;

const _: () = assert!(TABLE[TABLE.len() - 1].0 < (WORDS * 64) as u32);

/// An ordered set of system calls.
///
/// A fixed 512-bit bitmap indexed by syscall number, so membership and
/// the set algebra the planner runs in its inner loop are word-wise and
/// never allocate. It serialises as the ascending array of raw numbers.
///
/// # Examples
///
/// ```
/// use loupe_syscalls::{Sysno, SysnoSet};
///
/// let set: SysnoSet = ["read", "write", "openat"]
///     .iter()
///     .map(|n| Sysno::from_name(n).unwrap())
///     .collect();
/// assert_eq!(set.len(), 3);
/// assert!(set.contains(Sysno::openat));
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct SysnoSet([u64; WORDS]);

impl SysnoSet {
    /// Creates an empty set.
    pub fn new() -> SysnoSet {
        SysnoSet::default()
    }

    fn slot(s: Sysno) -> (usize, u64) {
        (s.0 as usize / 64, 1 << (s.0 % 64))
    }

    fn zip(&self, other: &SysnoSet, op: impl Fn(u64, u64) -> u64) -> SysnoSet {
        SysnoSet(std::array::from_fn(|i| op(self.0[i], other.0[i])))
    }

    /// Number of syscalls in the set.
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Inserts a syscall; returns `true` if it was not already present.
    pub fn insert(&mut self, s: Sysno) -> bool {
        let (word, bit) = Self::slot(s);
        let absent = self.0[word] & bit == 0;
        self.0[word] |= bit;
        absent
    }

    /// Removes a syscall; returns `true` if it was present.
    pub fn remove(&mut self, s: Sysno) -> bool {
        let (word, bit) = Self::slot(s);
        let present = self.0[word] & bit != 0;
        self.0[word] &= !bit;
        present
    }

    /// Whether the set contains `s`.
    pub fn contains(&self, s: Sysno) -> bool {
        let (word, bit) = Self::slot(s);
        self.0[word] & bit != 0
    }

    /// Iterates in ascending numeric order.
    pub fn iter(&self) -> Iter {
        Iter {
            words: self.0,
            word: 0,
        }
    }

    /// Set union.
    pub fn union(&self, other: &SysnoSet) -> SysnoSet {
        self.zip(other, |a, b| a | b)
    }

    /// Set intersection.
    pub fn intersection(&self, other: &SysnoSet) -> SysnoSet {
        self.zip(other, |a, b| a & b)
    }

    /// Elements of `self` not in `other`.
    pub fn difference(&self, other: &SysnoSet) -> SysnoSet {
        self.zip(other, |a, b| a & !b)
    }

    /// Whether `self` is a subset of `other`.
    pub fn is_subset(&self, other: &SysnoSet) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a & !b == 0)
    }
}

/// Ascending iterator over a [`SysnoSet`], returned by [`SysnoSet::iter`]
/// and both `IntoIterator` impls.
#[derive(Debug, Clone)]
pub struct Iter {
    words: [u64; WORDS],
    word: usize,
}

impl Iterator for Iter {
    type Item = Sysno;

    fn next(&mut self) -> Option<Sysno> {
        while self.word < WORDS {
            let w = &mut self.words[self.word];
            if *w != 0 {
                let bit = w.trailing_zeros();
                *w &= *w - 1;
                return Some(Sysno(self.word as u32 * 64 + bit));
            }
            self.word += 1;
        }
        None
    }
}

impl FromIterator<Sysno> for SysnoSet {
    fn from_iter<T: IntoIterator<Item = Sysno>>(iter: T) -> Self {
        let mut set = SysnoSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<Sysno> for SysnoSet {
    fn extend<T: IntoIterator<Item = Sysno>>(&mut self, iter: T) {
        for s in iter {
            self.insert(s);
        }
    }
}

impl IntoIterator for SysnoSet {
    type Item = Sysno;
    type IntoIter = Iter;
    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl IntoIterator for &SysnoSet {
    type Item = Sysno;
    type IntoIter = Iter;
    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl From<BTreeSet<Sysno>> for SysnoSet {
    fn from(set: BTreeSet<Sysno>) -> Self {
        set.into_iter().collect()
    }
}

impl Serialize for SysnoSet {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(|s| s.to_value()).collect())
    }
}

impl Deserialize for SysnoSet {
    fn deserialize<S: serde::Source>(src: &mut S) -> Result<Self, serde::Error> {
        let mut set = SysnoSet::new();
        src.seq()?;
        while src.next()? {
            set.insert(Sysno::deserialize(src)?);
        }
        Ok(set)
    }
}

impl fmt::Debug for SysnoSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Members<'a>(&'a SysnoSet);
        impl fmt::Debug for Members<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0.iter()).finish()
            }
        }
        f.debug_tuple("SysnoSet").field(&Members(self)).finish()
    }
}

impl fmt::Display for SysnoSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        write!(f, "{{")?;
        for s in self {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}", s.name())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_and_unique() {
        for w in TABLE.windows(2) {
            assert!(w[0].0 < w[1].0, "table must be strictly ascending: {w:?}");
        }
    }

    #[test]
    fn names_are_unique() {
        let names: BTreeSet<_> = TABLE.iter().map(|(_, n)| *n).collect();
        assert_eq!(names.len(), TABLE.len());
    }

    #[test]
    fn well_known_numbers_match_the_kernel() {
        // Numbers referenced throughout the paper.
        for (name, nr) in [
            ("read", 0),
            ("write", 1),
            ("close", 3),
            ("mmap", 9),
            ("brk", 12),
            ("ioctl", 16),
            ("writev", 20),
            ("mremap", 25),
            ("socket", 41),
            ("connect", 42),
            ("bind", 49),
            ("listen", 50),
            ("clone", 56),
            ("execve", 59),
            ("uname", 63),
            ("fcntl", 72),
            ("unlink", 87),
            ("getrlimit", 97),
            ("getrusage", 98),
            ("sysinfo", 99),
            ("geteuid", 107),
            ("getppid", 110),
            ("setsid", 112),
            ("setgroups", 116),
            ("rt_sigsuspend", 130),
            ("sigaltstack", 131),
            ("utime", 132),
            ("prctl", 157),
            ("arch_prctl", 158),
            ("gettid", 186),
            ("futex", 202),
            ("epoll_create", 213),
            ("set_tid_address", 218),
            ("clock_gettime", 228),
            ("epoll_wait", 232),
            ("epoll_ctl", 233),
            ("inotify_rm_watch", 255),
            ("openat", 257),
            ("futimesat", 261),
            ("set_robust_list", 273),
            ("timerfd_create", 283),
            ("eventfd", 284),
            ("accept4", 288),
            ("eventfd2", 290),
            ("epoll_create1", 291),
            ("pipe2", 293),
            ("prlimit64", 302),
            ("getrandom", 318),
        ] {
            assert_eq!(
                Sysno::from_name(name).map(Sysno::raw),
                Some(nr),
                "{name} should be {nr}"
            );
        }
    }

    #[test]
    fn roundtrip_raw_name() {
        for s in Sysno::all() {
            assert_eq!(Sysno::from_name(s.name()), Some(s));
            assert_eq!(Sysno::from_raw(s.raw()), Some(s));
        }
    }

    #[test]
    fn parse_accepts_names_and_numbers() {
        assert_eq!("openat".parse::<Sysno>().unwrap(), Sysno::openat);
        assert_eq!("257".parse::<Sysno>().unwrap(), Sysno::openat);
        assert!("bogus".parse::<Sysno>().is_err());
        assert!("9999".parse::<Sysno>().is_err());
    }

    #[test]
    fn display_includes_name_and_number() {
        assert_eq!(Sysno::futex.to_string(), "futex (202)");
    }

    #[test]
    fn set_algebra() {
        let a: SysnoSet = [Sysno::read, Sysno::write, Sysno::openat]
            .into_iter()
            .collect();
        let b: SysnoSet = [Sysno::write, Sysno::close].into_iter().collect();
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersection(&b).len(), 1);
        assert_eq!(a.difference(&b).len(), 2);
        assert!(a.intersection(&b).is_subset(&a));
    }

    #[test]
    fn set_display_is_never_empty() {
        assert_eq!(SysnoSet::new().to_string(), "{}");
    }

    #[test]
    fn serde_roundtrip() {
        let set: SysnoSet = [Sysno::mmap, Sysno::futex].into_iter().collect();
        let json = serde_json::to_string(&set).unwrap();
        let back: SysnoSet = serde_json::from_str(&json).unwrap();
        assert_eq!(set, back);
    }

    #[test]
    fn out_of_table_numbers_are_rejected_at_load() {
        assert!(serde_json::from_str::<Sysno>("9999").is_err());
        assert!(
            serde_json::from_str::<Sysno>("335").is_err(),
            "gap in the table"
        );
        let err = serde_json::from_str::<SysnoSet>("[0, 9999]").unwrap_err();
        assert!(err.to_string().contains("9999"), "{err}");
        assert_eq!(
            serde_json::from_str::<SysnoSet>("[0, 448]").unwrap().len(),
            2
        );
    }

    #[test]
    fn debug_lists_members() {
        let set: SysnoSet = [Sysno::mmap, Sysno::read].into_iter().collect();
        assert_eq!(format!("{set:?}"), "SysnoSet({Sysno(0), Sysno(9)})");
    }

    #[test]
    fn vectored_syscalls() {
        assert!(Sysno::ioctl.is_vectored());
        assert!(Sysno::fcntl.is_vectored());
        assert!(!Sysno::read.is_vectored());
    }
}
