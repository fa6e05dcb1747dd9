//! C-standard-library models.
//!
//! §5.6 of the paper shows the libc dominates an application's syscall
//! footprint: its init sequence is the floor every binary pays (Table 4),
//! and its choice of alternatives (`openat` vs `open`, `write` vs `writev`)
//! shapes the rest. This module models glibc and musl — dynamic and static,
//! modern and 2003-era 32-bit — at that level of detail, plus the runtime
//! behaviours the Table 2 experiments rely on (the brk→mmap allocator
//! fallback, pthread locking via futex, stdio).

use loupe_syscalls::{Sysno, SysnoSet};
use serde::{Deserialize, Serialize};

use crate::env::Env;
use crate::model::Exit;

/// How the application is linked against its libc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Linking {
    /// Dynamically linked: the loader maps the libc at startup.
    Dynamic,
    /// Statically linked.
    Static,
}

/// A concrete libc build an application model is "linked" against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LibcFlavor {
    /// Modern glibc (2.28/2.31), dynamically linked, x86-64.
    GlibcDynamic,
    /// Modern glibc, statically linked, x86-64.
    GlibcStatic,
    /// musl 1.2.x, dynamically linked, x86-64.
    MuslDynamic,
    /// musl 1.2.x, statically linked, x86-64.
    MuslStatic,
    /// glibc 2.3.2 (2003), 32-bit x86 build (Table 3's old Nginx).
    OldGlibc32,
}

impl LibcFlavor {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            LibcFlavor::GlibcDynamic => "glibc 2.31 (dynamic)",
            LibcFlavor::GlibcStatic => "glibc 2.31 (static)",
            LibcFlavor::MuslDynamic => "musl 1.2.2 (dynamic)",
            LibcFlavor::MuslStatic => "musl 1.2.2 (static)",
            LibcFlavor::OldGlibc32 => "glibc 2.3.2 (32-bit)",
        }
    }

    /// The init sequence: `(syscall, invocation count)` pairs executed from
    /// the entry point to `main` (Table 4).
    pub fn init_sequence(self) -> Vec<(Sysno, u32)> {
        use Sysno as S;
        match self {
            LibcFlavor::GlibcDynamic => vec![
                (S::execve, 1),
                (S::brk, 3),
                (S::arch_prctl, 1),
                (S::access, 1),
                (S::openat, 2),
                (S::read, 1),
                (S::fstat, 3),
                (S::mmap, 7),
                (S::close, 2),
                (S::mprotect, 4),
                (S::munmap, 1),
            ],
            LibcFlavor::GlibcStatic => vec![
                (S::execve, 1),
                (S::arch_prctl, 1),
                (S::brk, 4),
                (S::fstat, 1),
                (S::uname, 1),
                (S::readlink, 1),
            ],
            LibcFlavor::MuslDynamic => vec![
                (S::execve, 1),
                (S::brk, 2),
                (S::arch_prctl, 1),
                (S::mmap, 1),
                (S::mprotect, 2),
                (S::ioctl, 1),
                (S::set_tid_address, 1),
            ],
            LibcFlavor::MuslStatic => vec![
                (S::execve, 1),
                (S::arch_prctl, 1),
                (S::ioctl, 1),
                (S::set_tid_address, 1),
            ],
            LibcFlavor::OldGlibc32 => vec![
                (S::execve, 1),
                (S::brk, 3),
                (S::uname, 1),
                (S::access, 1),
                (S::open, 2),
                (S::read, 1),
                (S::fstat, 3),
                (S::mmap, 4),
                (S::close, 2),
                (S::set_thread_area, 1),
            ],
        }
    }

    /// The syscall `printf` bottoms out in (§5.6: glibc uses `write`, musl
    /// uses `writev`).
    pub fn printf_syscall(self) -> Sysno {
        match self {
            LibcFlavor::MuslDynamic | LibcFlavor::MuslStatic => Sysno::writev,
            _ => Sysno::write,
        }
    }

    /// The syscall used to probe whether stdout is a TTY (glibc: `fstat`,
    /// musl: `ioctl`).
    pub fn tty_probe_syscall(self) -> Sysno {
        match self {
            LibcFlavor::MuslDynamic | LibcFlavor::MuslStatic => Sysno::ioctl,
            _ => Sysno::fstat,
        }
    }

    /// Which open-family call the libc uses (modern libcs route `open`
    /// through `openat`, §5.3).
    pub fn open_syscall(self) -> Sysno {
        match self {
            LibcFlavor::OldGlibc32 => Sysno::open,
            _ => Sysno::openat,
        }
    }

    /// Which rlimit getter the libc wrappers use.
    pub fn rlimit_syscall(self) -> Sysno {
        match self {
            LibcFlavor::OldGlibc32 => Sysno::getrlimit,
            _ => Sysno::prlimit64,
        }
    }

    /// Whether this is a 32-bit build.
    pub fn is_32bit(self) -> bool {
        matches!(self, LibcFlavor::OldGlibc32)
    }

    /// Every syscall present in the libc's *code* (reachable from its
    /// public symbols) — what a binary-level static analyser sees once the
    /// libc is linked in. A superset of anything actually executed.
    pub fn code_superset(self) -> SysnoSet {
        use Sysno as S;
        let common: &[Sysno] = &[
            S::read,
            S::write,
            S::open,
            S::close,
            S::stat,
            S::fstat,
            S::lstat,
            S::poll,
            S::lseek,
            S::mmap,
            S::mprotect,
            S::munmap,
            S::brk,
            S::rt_sigaction,
            S::rt_sigprocmask,
            S::rt_sigreturn,
            S::ioctl,
            S::pread64,
            S::pwrite64,
            S::readv,
            S::writev,
            S::access,
            S::pipe,
            S::select,
            S::sched_yield,
            S::mremap,
            S::msync,
            S::mincore,
            S::madvise,
            S::dup,
            S::dup2,
            S::pause,
            S::nanosleep,
            S::getitimer,
            S::alarm,
            S::setitimer,
            S::getpid,
            S::sendfile,
            S::socket,
            S::connect,
            S::accept,
            S::sendto,
            S::recvfrom,
            S::sendmsg,
            S::recvmsg,
            S::shutdown,
            S::bind,
            S::listen,
            S::getsockname,
            S::getpeername,
            S::socketpair,
            S::setsockopt,
            S::getsockopt,
            S::clone,
            S::fork,
            S::vfork,
            S::execve,
            S::exit,
            S::wait4,
            S::kill,
            S::uname,
            S::fcntl,
            S::flock,
            S::fsync,
            S::fdatasync,
            S::truncate,
            S::ftruncate,
            S::getdents,
            S::getcwd,
            S::chdir,
            S::fchdir,
            S::rename,
            S::mkdir,
            S::rmdir,
            S::creat,
            S::link,
            S::unlink,
            S::symlink,
            S::readlink,
            S::chmod,
            S::fchmod,
            S::chown,
            S::fchown,
            S::lchown,
            S::umask,
            S::gettimeofday,
            S::getrlimit,
            S::getrusage,
            S::sysinfo,
            S::times,
            S::getuid,
            S::syslog,
            S::getgid,
            S::setuid,
            S::setgid,
            S::geteuid,
            S::getegid,
            S::setpgid,
            S::getppid,
            S::getpgrp,
            S::setsid,
            S::setreuid,
            S::setregid,
            S::getgroups,
            S::setgroups,
            S::setresuid,
            S::getresuid,
            S::setresgid,
            S::getresgid,
            S::getpgid,
            S::getsid,
            S::rt_sigpending,
            S::rt_sigtimedwait,
            S::rt_sigsuspend,
            S::sigaltstack,
            S::utime,
            S::mknod,
            S::statfs,
            S::fstatfs,
            S::getpriority,
            S::setpriority,
            S::mlock,
            S::munlock,
            S::mlockall,
            S::munlockall,
            S::prctl,
            S::arch_prctl,
            S::setrlimit,
            S::chroot,
            S::sync,
            S::gettid,
            S::futex,
            S::sched_setaffinity,
            S::sched_getaffinity,
            S::getdents64,
            S::set_tid_address,
            S::fadvise64,
            S::clock_settime,
            S::clock_gettime,
            S::clock_getres,
            S::clock_nanosleep,
            S::exit_group,
            S::tgkill,
            S::utimes,
            S::waitid,
            S::openat,
            S::mkdirat,
            S::mknodat,
            S::fchownat,
            S::newfstatat,
            S::unlinkat,
            S::renameat,
            S::linkat,
            S::symlinkat,
            S::readlinkat,
            S::fchmodat,
            S::faccessat,
            S::pselect6,
            S::ppoll,
            S::set_robust_list,
            S::utimensat,
            S::fallocate,
            S::accept4,
            S::eventfd2,
            S::epoll_create1,
            S::dup3,
            S::pipe2,
            S::preadv,
            S::pwritev,
            S::prlimit64,
            S::sendmmsg,
            S::getrandom,
            S::memfd_create,
            S::statx,
            S::copy_file_range,
        ];
        let mut set: SysnoSet = common.iter().copied().collect();
        match self {
            LibcFlavor::MuslDynamic | LibcFlavor::MuslStatic => {
                // musl is leaner: drop some glibc-only surface.
                for s in [
                    S::sysinfo,
                    S::syslog,
                    S::mlockall,
                    S::munlockall,
                    S::sendmmsg,
                    S::memfd_create,
                    S::statx,
                    S::copy_file_range,
                    S::fadvise64,
                ] {
                    set.remove(s);
                }
            }
            LibcFlavor::OldGlibc32 => {
                // 2003-era glibc predates the *at family and modern fds.
                for s in [
                    S::openat,
                    S::mkdirat,
                    S::mknodat,
                    S::fchownat,
                    S::newfstatat,
                    S::unlinkat,
                    S::renameat,
                    S::linkat,
                    S::symlinkat,
                    S::readlinkat,
                    S::fchmodat,
                    S::faccessat,
                    S::pselect6,
                    S::ppoll,
                    S::set_robust_list,
                    S::utimensat,
                    S::fallocate,
                    S::accept4,
                    S::eventfd2,
                    S::epoll_create1,
                    S::dup3,
                    S::pipe2,
                    S::preadv,
                    S::pwritev,
                    S::prlimit64,
                    S::sendmmsg,
                    S::getrandom,
                    S::memfd_create,
                    S::statx,
                    S::copy_file_range,
                    S::set_tid_address,
                    S::futex,
                    S::arch_prctl,
                ] {
                    set.remove(s);
                }
                set.insert(S::set_thread_area);
            }
            _ => {}
        }
        set
    }
}

/// Maps an x86-64 syscall of the old 32-bit build to the 32-bit name(s) it
/// shows up as in a trace (Table 3's italicised entries).
pub fn names_32bit(sysno: Sysno) -> Vec<&'static str> {
    match sysno {
        Sysno::mmap => vec!["mmap2", "old_mmap"],
        Sysno::fstat => vec!["fstat64"],
        Sysno::stat => vec!["stat64"],
        Sysno::fcntl => vec!["fcntl64"],
        Sysno::lseek => vec!["_llseek"],
        Sysno::pread64 => vec!["pread"],
        Sysno::pwrite64 => vec!["pwrite"],
        Sysno::geteuid => vec!["geteuid32"],
        Sysno::setuid => vec!["setuid32"],
        Sysno::setgid => vec!["setgid32"],
        Sysno::setgroups => vec!["setgroups32"],
        Sysno::recvfrom => vec!["recv"],
        other => vec![other.name()],
    }
}

/// Outcome of a pthread-style lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// Took the fast path: the lock was free.
    Acquired,
    /// Contended, waited via futex, acquired consistently.
    AcquiredContended,
    /// The futex "wait" returned without the holder having had time to
    /// release — the caller barged into a held critical section. This is
    /// the signature of a faked/stubbed `futex` (Table 2: Redis core
    /// functioning breaks).
    Corrupted,
}

/// The runtime half of the libc model: allocator, stdio, threads, locks.
///
/// Created by [`LibcRuntime::init`], which replays the flavor's init
/// sequence against the kernel — the part of every trace that exists
/// before `main` runs.
#[derive(Debug)]
pub struct LibcRuntime {
    flavor: LibcFlavor,
    brk_works: bool,
    brk_top: u64,
    tty_probed: bool,
    /// Chunk size the mmap fallback allocates in (coarser than brk, which
    /// is what makes the fallback cost memory — Table 2).
    fallback_chunk: u64,
}

impl LibcRuntime {
    /// Runs the libc initialisation sequence.
    ///
    /// # Errors
    ///
    /// Returns `Exit::Crash` when a load-bearing init syscall fails:
    /// `execve`, TLS setup (`arch_prctl(ARCH_SET_FS)` / `set_thread_area`),
    /// or — for dynamic linking — mapping the libc itself (`openat`,
    /// `read`, `fstat`, `mmap`). Everything else in the sequence tolerates
    /// failure, which is precisely why so much of it can be stubbed (§5.2).
    pub fn init(env: &mut Env<'_>, flavor: LibcFlavor) -> Result<LibcRuntime, Exit> {
        use Sysno as S;
        let dynamic = matches!(
            flavor,
            LibcFlavor::GlibcDynamic | LibcFlavor::MuslDynamic | LibcFlavor::OldGlibc32
        );
        let mut rt = LibcRuntime {
            flavor,
            brk_works: true,
            brk_top: 0,
            tty_probed: false,
            fallback_chunk: 256 * 1024,
        };
        for (sysno, count) in flavor.init_sequence() {
            for i in 0..count {
                match sysno {
                    S::execve => {
                        let r = env.sys_path(S::execve, [0; 6], "/usr/bin/app");
                        // A faked execve "succeeds" without loading the
                        // image: nothing to run.
                        if r.is_err() || !matches!(r.payload, loupe_kernel::Payload::Text(_)) {
                            return Err(Exit::Crash("execve failed".into()));
                        }
                    }
                    S::arch_prctl => {
                        // ARCH_SET_FS: thread-local storage base (§5.4:
                        // the single arch_prctl feature everything needs).
                        let r = env.sys(S::arch_prctl, [0x1002, 0x7fff_0000, 0, 0, 0, 0]);
                        if r.is_err() {
                            return Err(Exit::Crash("cannot set up TLS (arch_prctl)".into()));
                        }
                        // First TLS access: faults unless the base was
                        // really installed (a faked call cannot help).
                        if env.mem_load(0x7fff_0000) != 0x715 {
                            return Err(Exit::Crash("segfault on first TLS access".into()));
                        }
                    }
                    S::set_thread_area => {
                        let r = env.sys(S::set_thread_area, [0; 6]);
                        if r.is_err() {
                            return Err(Exit::Crash("cannot set up TLS (set_thread_area)".into()));
                        }
                    }
                    S::brk => {
                        if i == 0 {
                            // Query current break.
                            let r = env.sys(S::brk, [0; 6]);
                            match r.payload.as_u64() {
                                Some(cur) if !r.is_err() => rt.brk_top = cur,
                                _ => {
                                    // Early-allocator fallback engages
                                    // immediately: mmap arenas replace the
                                    // heap (Table 2's +memory rows).
                                    rt.brk_works = false;
                                    env.sys(S::mmap, [0, 1 << 20, 3, 0x22, u64::MAX, 0]);
                                }
                            }
                        } else if rt.brk_works {
                            let want = rt.brk_top + 132 * 1024;
                            let r = env.sys(S::brk, [want, 0, 0, 0, 0, 0]);
                            if r.is_err() || r.payload.as_u64() != Some(want) {
                                // Early-allocator fallback: switch the heap
                                // to mmap arenas (coarser; costs memory).
                                rt.brk_works = false;
                                env.sys(S::mmap, [0, 1 << 20, 3, 0x22, u64::MAX, 0]);
                            } else {
                                rt.brk_top = want;
                            }
                        }
                    }
                    S::openat | S::open => {
                        let r = env.sys_path(sysno, [0, 0, 0, 0, 0, 0], "/lib/libc.so.6");
                        if r.is_err() && dynamic && r.ret != -2 {
                            // ENOSYS/EPERM on the loader path is fatal;
                            // ENOENT is handled by search-path retries.
                            return Err(Exit::Crash(
                                "error while loading shared libraries: libc.so.6".into(),
                            ));
                        }
                    }
                    S::read => {
                        let r = env.sys(S::read, [3, 0, 832, 0, 0, 0]);
                        if r.is_err() && dynamic {
                            return Err(Exit::Crash("cannot read ELF header".into()));
                        }
                    }
                    S::fstat => {
                        let r = env.sys(S::fstat, [3, 0, 0, 0, 0, 0]);
                        if r.is_err() && dynamic && flavor != LibcFlavor::MuslDynamic {
                            return Err(Exit::Crash("cannot fstat libc.so.6".into()));
                        }
                    }
                    S::mmap => {
                        let r = env.sys(S::mmap, [0, 512 * 1024, 5, 0x802, 3, 0]);
                        if (r.is_err() || r.ret <= 0) && dynamic {
                            return Err(Exit::Crash("cannot map libc.so.6".into()));
                        }
                    }
                    // Hardening, probing and cleanup: failure-oblivious.
                    S::mprotect
                    | S::munmap
                    | S::close
                    | S::access
                    | S::ioctl
                    | S::set_tid_address
                    | S::uname
                    | S::readlink => {
                        let _ = env.sys(sysno, [3, 0, 0, 0, 0, 0]);
                    }
                    other => {
                        let _ = env.sys(other, [0; 6]);
                    }
                }
            }
        }
        // The init sequences above already include the stdout probe
        // (glibc's fstat / musl's ioctl), so printf won't repeat it —
        // keeping Table 4's invocation counts exact.
        rt.tty_probed = true;
        Ok(rt)
    }

    /// The flavor this runtime models.
    pub fn flavor(&self) -> LibcFlavor {
        self.flavor
    }

    /// Whether the heap still runs on `brk` (false after the mmap
    /// fallback engaged).
    pub fn brk_works(&self) -> bool {
        self.brk_works
    }

    /// `malloc(3)`: returns the address of a new allocation.
    ///
    /// Uses `brk` while it works; otherwise mmap arenas rounded up to
    /// the fallback chunk size — the granularity loss behind Table 2's
    /// "+17% memory" rows.
    pub fn malloc(&mut self, env: &mut Env<'_>, size: u64) -> u64 {
        use Sysno as S;
        if self.brk_works {
            let want = self.brk_top + size;
            let r = env.sys(S::brk, [want, 0, 0, 0, 0, 0]);
            if !r.is_err() && r.payload.as_u64() == Some(want) {
                let addr = self.brk_top;
                self.brk_top = want;
                return addr;
            }
            self.brk_works = false;
        }
        let chunk = size.div_ceil(self.fallback_chunk) * self.fallback_chunk;
        let r = env.sys(S::mmap, [0, chunk, 3, 0x22, u64::MAX, 0]);
        if r.ret > 0 {
            r.ret as u64
        } else {
            0
        }
    }

    /// `printf(3)`-style output to stdout.
    pub fn printf(&mut self, env: &mut Env<'_>, text: &str) {
        if !self.tty_probed {
            self.tty_probed = true;
            let _ = env.sys(self.flavor.tty_probe_syscall(), [1, 0x5401, 0, 0, 0, 0]);
        }
        let _ = env.sys_data(
            self.flavor.printf_syscall(),
            [1, 0, 0, 0, 0, 0],
            text.as_bytes().to_vec(),
        );
    }

    /// Spawns a pthread: returns the clone return value (positive tid for
    /// the parent; 0 means "we are the child" — which, under a *faked*
    /// `clone`, happens in the original process, reproducing Nginx's
    /// master-runs-the-worker-loop behaviour from Table 2).
    pub fn start_thread(&mut self, env: &mut Env<'_>) -> i64 {
        if self.flavor != LibcFlavor::OldGlibc32 {
            // Robust futex lists postdate the 2003 threading model.
            let _ = env.sys(Sysno::set_robust_list, [0x7000, 24, 0, 0, 0, 0]);
        }
        env.sys(Sysno::clone, [0x50f00, 0, 0, 0, 0, 0]).ret
    }

    /// pthread mutex lock over the futex word at `addr`.
    pub fn lock(&mut self, env: &mut Env<'_>, addr: u64) -> LockOutcome {
        if env.mem_load(addr) == 0 {
            env.mem_store(addr, 1);
            return LockOutcome::Acquired;
        }
        // Contended: wait in the kernel. A real FUTEX_WAIT gives the
        // holder time to release (observable as virtual-time progress).
        let before = env.now();
        let r = env.sys(Sysno::futex, [addr, 0 /* FUTEX_WAIT */, 1, 0, 0, 0]);
        let waited = env.now() - before;
        if r.ret == 0 && waited >= 40 {
            env.mem_store(addr, 1);
            return LockOutcome::AcquiredContended;
        }
        if r.errno() == Some(loupe_syscalls::Errno::EAGAIN) {
            // The word changed under us: holder already released.
            env.mem_store(addr, 1);
            return LockOutcome::AcquiredContended;
        }
        // Stubbed (ENOSYS) or faked (instant 0): we resume while the lock
        // is still logically held.
        LockOutcome::Corrupted
    }

    /// pthread mutex unlock.
    pub fn unlock(&mut self, env: &mut Env<'_>, addr: u64) {
        env.mem_store(addr, 0);
        let _ = env.sys(Sysno::futex, [addr, 1 /* FUTEX_WAKE */, 1, 0, 0, 0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loupe_kernel::LinuxSim;

    fn with_env<T>(f: impl FnOnce(&mut Env<'_>) -> T) -> T {
        let mut k = LinuxSim::new();
        k.vfs.add_file("/lib/libc.so.6", vec![0x7f; 1024]);
        let mut env = Env::new(&mut k);
        f(&mut env)
    }

    #[test]
    fn init_counts_match_table4() {
        // Invocation totals from Table 4 (init portion: total minus the
        // hello-world's write/writev and exit_group).
        let totals: &[(LibcFlavor, u32)] = &[
            (LibcFlavor::GlibcDynamic, 26),
            (LibcFlavor::GlibcStatic, 9),
            (LibcFlavor::MuslDynamic, 9),
            (LibcFlavor::MuslStatic, 4),
        ];
        for &(flavor, expect) in totals {
            let n: u32 = flavor.init_sequence().iter().map(|(_, c)| c).sum();
            assert_eq!(n, expect, "{}", flavor.name());
        }
    }

    #[test]
    fn init_succeeds_on_full_kernel() {
        for flavor in [
            LibcFlavor::GlibcDynamic,
            LibcFlavor::GlibcStatic,
            LibcFlavor::MuslDynamic,
            LibcFlavor::MuslStatic,
            LibcFlavor::OldGlibc32,
        ] {
            with_env(|env| {
                let rt = LibcRuntime::init(env, flavor).expect("init on full kernel");
                assert!(rt.brk_works(), "{}", flavor.name());
            });
        }
    }

    #[test]
    fn malloc_uses_brk_then_exact_size() {
        with_env(|env| {
            let mut rt = LibcRuntime::init(env, LibcFlavor::GlibcDynamic).unwrap();
            let a = rt.malloc(env, 1000);
            let b = rt.malloc(env, 1000);
            assert_eq!(b, a + 1000, "brk heap is exact");
        });
    }

    #[test]
    fn printf_uses_flavor_specific_syscall() {
        assert_eq!(LibcFlavor::GlibcDynamic.printf_syscall(), Sysno::write);
        assert_eq!(LibcFlavor::MuslStatic.printf_syscall(), Sysno::writev);
        assert_eq!(LibcFlavor::MuslDynamic.tty_probe_syscall(), Sysno::ioctl);
        assert_eq!(LibcFlavor::GlibcStatic.tty_probe_syscall(), Sysno::fstat);
    }

    #[test]
    fn lock_uncontended_and_contended() {
        with_env(|env| {
            let mut rt = LibcRuntime::init(env, LibcFlavor::GlibcDynamic).unwrap();
            assert_eq!(rt.lock(env, 0x1000), LockOutcome::Acquired);
            // Now held (value 1): a second lock contends and waits.
            assert_eq!(rt.lock(env, 0x1000), LockOutcome::AcquiredContended);
            rt.unlock(env, 0x1000);
            assert_eq!(env.mem_load(0x1000), 0);
        });
    }

    #[test]
    fn supersets_are_large_and_flavor_specific() {
        let glibc = LibcFlavor::GlibcDynamic.code_superset();
        let musl = LibcFlavor::MuslDynamic.code_superset();
        let old = LibcFlavor::OldGlibc32.code_superset();
        assert!(glibc.len() > 150, "glibc superset: {}", glibc.len());
        assert!(musl.len() < glibc.len(), "musl is leaner");
        assert!(!old.contains(Sysno::openat), "2003 glibc predates openat");
        assert!(old.contains(Sysno::set_thread_area));
        assert!(glibc.contains(Sysno::openat));
    }

    #[test]
    fn thirty_two_bit_name_mapping() {
        assert_eq!(names_32bit(Sysno::mmap), vec!["mmap2", "old_mmap"]);
        assert_eq!(names_32bit(Sysno::fstat), vec!["fstat64"]);
        assert_eq!(names_32bit(Sysno::read), vec!["read"]);
        // Every mapped name is in the i386 table.
        for s in [
            Sysno::mmap,
            Sysno::fstat,
            Sysno::fcntl,
            Sysno::geteuid,
            Sysno::recvfrom,
        ] {
            for n in names_32bit(s) {
                assert!(
                    loupe_syscalls::i386::Sysno32::from_name(n).is_some(),
                    "{n} missing from i386 table"
                );
            }
        }
    }
}
