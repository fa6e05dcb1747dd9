//! `LinuxSim`: the reference kernel implementing the [`Kernel`] trait.
//!
//! Roughly one hundred system calls get real semantics backed by the FD
//! table, VFS, memory manager, network, signal, futex and rlimit models;
//! the rest return generic success. The fidelity bar is behavioural: the
//! consequences of *not* running a syscall (because the Loupe engine
//! stubbed or faked it) must match what the paper observed on real Linux.
//!
//! ## ABI liberties
//!
//! The model has no user address space, so pointer-typed arguments are
//! replaced by their *values*:
//!
//! * path arguments travel in [`Invocation::path`],
//! * write buffers travel in [`Invocation::data`],
//! * `bind` takes the port directly in `args[1]`,
//! * out-parameters come back in [`SysOutcome::payload`].

use bytes::Bytes;
use loupe_syscalls::{Errno, Sysno};

use crate::clock::{base_cost, VirtualClock, BYTES_PER_UNIT};
use crate::fd::{FdEntry, FdKind, FdTable};
use crate::futex::{FutexTable, FUTEX_WAIT, FUTEX_WAKE};
use crate::invocation::{Invocation, Payload, SysOutcome};
use crate::limits::RlimitTable;
use crate::mem::MemoryManager;
use crate::net::{HostPort, PipeTable};
use crate::resources::ResourceUsage;
use crate::signals::SignalState;
use crate::vfs::Vfs;
use crate::{err, ok, Kernel};

/// `O_CREAT`.
pub const O_CREAT: u64 = 0x40;
/// `O_APPEND`.
pub const O_APPEND: u64 = 0x400;
/// `O_NONBLOCK`.
pub const O_NONBLOCK: u64 = 0x800;

const FIONBIO: u64 = 0x5421;
const FIOASYNC: u64 = 0x5452;
const TCGETS: u64 = 0x5401;
const TCSETS: u64 = 0x5402;
const TIOCGWINSZ: u64 = 0x5413;

/// The simulated Linux kernel.
///
/// # Examples
///
/// ```
/// use loupe_kernel::{Invocation, Kernel, LinuxSim};
/// use loupe_syscalls::Sysno;
///
/// let mut k = LinuxSim::new();
/// let fd = k
///     .syscall(&Invocation::new(Sysno::openat, [0, 0, 0x40, 0, 0, 0]).with_path("/tmp/x"))
///     .ret;
/// assert!(fd >= 3);
/// ```
#[derive(Debug)]
pub struct LinuxSim {
    clock: VirtualClock,
    usage: ResourceUsage,
    fds: FdTable,
    /// The filesystem, public so app models can pre-populate content.
    pub vfs: Vfs,
    mem: MemoryManager,
    net: HostPort,
    pipes: PipeTable,
    signals: SignalState,
    futexes: FutexTable,
    limits: RlimitTable,
    pid: i64,
    next_tid: i64,
    uid: u64,
    gid: u64,
    euid: u64,
    egid: u64,
    sid: i64,
    tls_fs: u64,
    prctl_flags: std::collections::BTreeMap<u64, u64>,
    tid_address: u64,
    robust_list: u64,
    children: Vec<i64>,
    rng_state: u64,
}

impl Default for LinuxSim {
    fn default() -> Self {
        LinuxSim::new()
    }
}

impl LinuxSim {
    /// Creates a fresh kernel with an empty VFS and default limits.
    pub fn new() -> LinuxSim {
        LinuxSim {
            clock: VirtualClock::new(),
            usage: ResourceUsage::new(),
            fds: FdTable::new(),
            vfs: Vfs::new(),
            mem: MemoryManager::new(),
            net: HostPort::new(),
            pipes: PipeTable::default(),
            signals: SignalState::new(),
            futexes: FutexTable::new(),
            limits: RlimitTable::new(),
            pid: 4242,
            next_tid: 4243,
            uid: 0,
            gid: 0,
            euid: 0,
            egid: 0,
            sid: 0,
            tls_fs: 0,
            prctl_flags: std::collections::BTreeMap::new(),
            tid_address: 0,
            robust_list: 0,
            children: Vec::new(),
            rng_state: 0x5eed_1234_abcd_0001,
        }
    }

    /// Read-only view of futex statistics (diagnostics for tests).
    pub fn futexes(&self) -> &FutexTable {
        &self.futexes
    }

    /// Read-only view of the FD table (diagnostics for tests).
    pub fn fd_table(&self) -> &FdTable {
        &self.fds
    }

    /// Read-only view of the memory manager (diagnostics for tests).
    pub fn memory(&self) -> &MemoryManager {
        &self.mem
    }

    fn alloc_fd(&mut self, entry: FdEntry) -> SysOutcome {
        match self.fds.alloc(entry, self.limits.nofile()) {
            Some(fd) => {
                self.usage.add_fd();
                ok(fd as i64)
            }
            None => err(Errno::EMFILE),
        }
    }

    fn do_open(&mut self, inv: &Invocation, flags: u64) -> SysOutcome {
        let Some(path) = inv.path.clone() else {
            return err(Errno::EFAULT);
        };
        if path == "/dev/tty" {
            return self.alloc_fd(FdEntry::new(FdKind::Tty));
        }
        if !self.vfs.exists(&path) {
            if flags & O_CREAT == 0 {
                return err(Errno::ENOENT);
            }
            self.vfs.add_file(&path, Vec::new());
        }
        if self.vfs.is_dir(&path) && flags & O_CREAT != 0 {
            return err(Errno::EISDIR);
        }
        let mut entry = FdEntry::new(FdKind::File {
            path,
            offset: 0,
            append: flags & O_APPEND != 0,
        });
        entry.nonblocking = flags & O_NONBLOCK != 0;
        self.alloc_fd(entry)
    }

    fn do_read(&mut self, fd: i32, len: u64) -> SysOutcome {
        let Some(entry) = self.fds.get_mut(fd) else {
            return err(Errno::EBADF);
        };
        match &mut entry.kind {
            FdKind::Tty => ok(0), // EOF on stdin
            FdKind::File { path, offset, .. } => {
                let p = path.clone();
                let off = *offset;
                match self.vfs.read_at(&p, off, len) {
                    Some(bytes) => {
                        let n = bytes.len() as i64;
                        if let Some(FdKind::File { offset, .. }) =
                            self.fds.get_mut(fd).map(|e| &mut e.kind)
                        {
                            *offset += n as u64;
                        }
                        self.clock.advance(n as u64 / BYTES_PER_UNIT);
                        SysOutcome::with_payload(n, Payload::Bytes(bytes))
                    }
                    None => err(Errno::EISDIR),
                }
            }
            FdKind::Conn(id) => {
                let id = *id;
                match self.net.app_recv(id) {
                    Some(bytes) => {
                        let n = bytes.len() as i64;
                        self.clock.advance(n as u64 / BYTES_PER_UNIT);
                        SysOutcome::with_payload(n, Payload::Bytes(bytes))
                    }
                    None => err(Errno::EAGAIN),
                }
            }
            FdKind::PipeRead(id) => {
                let id = *id;
                match self.pipes.read(id) {
                    Some(Some(bytes)) => {
                        let n = bytes.len() as i64;
                        SysOutcome::with_payload(n, Payload::Bytes(bytes))
                    }
                    Some(None) => err(Errno::EAGAIN),
                    None => err(Errno::EBADF),
                }
            }
            FdKind::EventFd(count) => {
                if *count > 0 {
                    let v = *count;
                    *count = 0;
                    SysOutcome::with_payload(8, Payload::U64(v))
                } else {
                    err(Errno::EAGAIN)
                }
            }
            FdKind::Listener { .. } | FdKind::Epoll(_) | FdKind::PipeWrite(_) => err(Errno::EINVAL),
            _ => ok(0),
        }
    }

    fn do_write(&mut self, fd: i32, inv: &Invocation) -> SysOutcome {
        // Cap the synthesised buffer when the caller passed only a length
        // (a real kernel would fault on unmapped user memory instead).
        let data = inv
            .data
            .clone()
            .unwrap_or_else(|| Bytes::from(vec![0u8; inv.args[2].min(1 << 20) as usize]));
        let len = data.len() as u64;
        self.clock.advance(len / BYTES_PER_UNIT);
        let Some(entry) = self.fds.get_mut(fd) else {
            return err(Errno::EBADF);
        };
        match &mut entry.kind {
            FdKind::Tty => {
                let text = String::from_utf8_lossy(&data).into_owned();
                self.net.console.push(text);
                ok(len as i64)
            }
            FdKind::File {
                path,
                offset,
                append,
            } => {
                let p = path.clone();
                let off = if *append {
                    self.vfs.size(&p).unwrap_or(0)
                } else {
                    *offset
                };
                match self.vfs.write_at(&p, off, &data) {
                    Some(n) => {
                        if let Some(FdKind::File { offset, .. }) =
                            self.fds.get_mut(fd).map(|e| &mut e.kind)
                        {
                            *offset = off + n;
                        }
                        ok(n as i64)
                    }
                    None => err(Errno::EISDIR),
                }
            }
            FdKind::Conn(id) => {
                let id = *id;
                match self.net.app_send(id, data) {
                    Some(n) => ok(n as i64),
                    None => err(Errno::EPIPE),
                }
            }
            FdKind::PipeWrite(id) => {
                let id = *id;
                match self.pipes.write(id, data) {
                    Some(n) => ok(n as i64),
                    None => err(Errno::EPIPE),
                }
            }
            FdKind::EventFd(count) => {
                *count += 1;
                ok(8)
            }
            // An outbound *connected* client socket: the remote end is
            // outside the simulation, so writes are sinked. Writing to an
            // unconnected socket is ENOTCONN — which is how a faked
            // `connect` surfaces (HAProxy's backend path).
            FdKind::Listener {
                connected: true, ..
            } => ok(len as i64),
            FdKind::Listener { .. } => err(Errno::ENOTCONN),
            _ => err(Errno::EINVAL),
        }
    }

    fn do_close(&mut self, fd: i32) -> SysOutcome {
        match self.fds.close(fd) {
            Some(entry) => {
                self.usage.release_fd();
                match entry.kind {
                    FdKind::Conn(id) => self.net.app_close(id),
                    FdKind::PipeRead(id) => self.pipes.close_end(id, true),
                    FdKind::PipeWrite(id) => self.pipes.close_end(id, false),
                    _ => {}
                }
                ok(0)
            }
            None => err(Errno::EBADF),
        }
    }

    fn fd_ready(&self, fd: i32) -> bool {
        match self.fds.get(fd).map(|e| &e.kind) {
            Some(FdKind::Listener {
                port,
                listening: true,
                ..
            }) => self.net.app_has_backlog(*port),
            Some(FdKind::Conn(id)) => self.net.app_has_data(*id),
            Some(FdKind::PipeRead(id)) => self.pipes.has_data(*id),
            Some(FdKind::EventFd(count)) => *count > 0,
            _ => false,
        }
    }

    fn do_epoll_wait(&mut self, epfd: i32) -> SysOutcome {
        let interest: Vec<i32> = match self.fds.get(epfd).map(|e| &e.kind) {
            Some(FdKind::Epoll(set)) => set.iter().copied().collect(),
            _ => return err(Errno::EBADF),
        };
        let ready: Vec<u64> = interest
            .into_iter()
            .filter(|&fd| self.fd_ready(fd))
            .map(|fd| fd as u64)
            .collect();
        if ready.is_empty() {
            // Model a short blocking wait.
            self.clock.advance(20);
            return ok(0);
        }
        SysOutcome::with_payload(ready.len() as i64, Payload::List(ready))
    }

    fn do_accept(&mut self, fd: i32) -> SysOutcome {
        let port = match self.fds.get(fd).map(|e| &e.kind) {
            Some(FdKind::Listener {
                port,
                listening: true,
                ..
            }) => *port,
            Some(FdKind::Listener { .. }) => return err(Errno::EINVAL),
            Some(_) => return err(Errno::ENOTSOCK),
            None => return err(Errno::EBADF),
        };
        match self.net.app_accept(port) {
            Some(conn) => self.alloc_fd(FdEntry::new(FdKind::Conn(conn))),
            None => err(Errno::EAGAIN),
        }
    }

    fn do_fcntl(&mut self, inv: &Invocation) -> SysOutcome {
        let fd = inv.args[0] as i32;
        let cmd = inv.args[1];
        if self.fds.get(fd).is_none() {
            return err(Errno::EBADF);
        }
        match cmd {
            0 | 1030 => {
                // F_DUPFD / F_DUPFD_CLOEXEC
                let entry = self.fds.get(fd).cloned().expect("checked above");
                match self
                    .fds
                    .alloc_from(entry, inv.args[2] as usize, self.limits.nofile())
                {
                    Some(nfd) => {
                        self.usage.add_fd();
                        ok(nfd as i64)
                    }
                    None => err(Errno::EMFILE),
                }
            }
            1 => ok(self.fds.get(fd).expect("checked").cloexec as i64), // F_GETFD
            2 => {
                self.fds.get_mut(fd).expect("checked").cloexec = inv.args[2] & 1 != 0; // F_SETFD
                ok(0)
            }
            3 => {
                let nb = self.fds.get(fd).expect("checked").nonblocking;
                ok(if nb { O_NONBLOCK as i64 } else { 0 }) // F_GETFL
            }
            4 => {
                self.fds.get_mut(fd).expect("checked").nonblocking = inv.args[2] & O_NONBLOCK != 0; // F_SETFL
                ok(0)
            }
            5..=7 => ok(0), // F_GETLK / F_SETLK / F_SETLKW
            _ => err(Errno::EINVAL),
        }
    }

    fn do_ioctl(&mut self, inv: &Invocation) -> SysOutcome {
        let fd = inv.args[0] as i32;
        let req = inv.args[1];
        let Some(entry) = self.fds.get_mut(fd) else {
            return err(Errno::EBADF);
        };
        let is_tty = matches!(entry.kind, FdKind::Tty);
        match req {
            TCGETS | TCSETS => {
                if is_tty {
                    SysOutcome::with_payload(0, Payload::U64(80))
                } else {
                    err(Errno::ENOTTY)
                }
            }
            TIOCGWINSZ => {
                if is_tty {
                    SysOutcome::with_payload(0, Payload::Pair(80, 24))
                } else {
                    err(Errno::ENOTTY)
                }
            }
            FIONBIO => {
                entry.nonblocking = inv.args[2] != 0;
                ok(0)
            }
            FIOASYNC => ok(0),
            _ => err(Errno::EINVAL),
        }
    }

    fn do_futex(&mut self, inv: &Invocation) -> SysOutcome {
        let addr = inv.args[0];
        let op = inv.args[1] & 0x7f;
        let val = inv.args[2] as u32;
        match op {
            FUTEX_WAIT | 9 => match self.futexes.wait(addr, val) {
                Ok(wait_cost) => {
                    self.clock.advance(wait_cost);
                    ok(0)
                }
                Err(()) => err(Errno::EAGAIN),
            },
            FUTEX_WAKE | 10 => ok(self.futexes.wake(addr, val) as i64),
            _ => ok(0),
        }
    }

    fn next_random(&mut self) -> u64 {
        // xorshift64*, deterministic across replicas.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn dispatch(&mut self, inv: &Invocation) -> SysOutcome {
        use Sysno as S;
        let a = inv.args;
        match inv.sysno {
            S::read | S::pread64 | S::readv | S::preadv | S::recvfrom | S::recvmsg => {
                self.do_read(a[0] as i32, a[2].max(a[1]).max(1))
            }
            S::write | S::pwrite64 | S::writev | S::pwritev | S::sendto | S::sendmsg => {
                self.do_write(a[0] as i32, inv)
            }
            S::open | S::creat => self.do_open(inv, a[1]),
            S::openat | S::openat2 => self.do_open(inv, a[2]),
            S::close => self.do_close(a[0] as i32),
            S::sendfile => {
                let (out_fd, in_fd, count) = (a[0] as i32, a[1] as i32, a[3]);
                let content = match self.fds.get(in_fd).map(|e| &e.kind) {
                    Some(FdKind::File { path, offset, .. }) => {
                        self.vfs.read_at(&path.clone(), *offset, count)
                    }
                    _ => None,
                };
                match content {
                    Some(bytes) => {
                        let forged = Invocation::new(S::write, [out_fd as u64, 0, 0, 0, 0, 0])
                            .with_data(bytes);
                        self.do_write(out_fd, &forged)
                    }
                    None => err(Errno::EBADF),
                }
            }
            S::socket => self.alloc_fd(FdEntry::new(FdKind::Listener {
                port: 0,
                listening: false,
                connected: false,
                sockopt: false,
            })),
            S::bind => {
                let fd = a[0] as i32;
                let port = a[1] as u16;
                match self.fds.get_mut(fd).map(|e| &mut e.kind) {
                    Some(FdKind::Listener { port: p, .. }) => {
                        *p = port;
                        ok(0)
                    }
                    Some(_) => err(Errno::ENOTSOCK),
                    None => err(Errno::EBADF),
                }
            }
            S::listen => {
                let fd = a[0] as i32;
                match self.fds.get_mut(fd).map(|e| &mut e.kind) {
                    Some(FdKind::Listener {
                        port, listening, ..
                    }) => {
                        *listening = true;
                        let port = *port;
                        self.net.app_listen(port);
                        ok(0)
                    }
                    Some(_) => err(Errno::ENOTSOCK),
                    None => err(Errno::EBADF),
                }
            }
            S::accept | S::accept4 => self.do_accept(a[0] as i32),
            S::connect => match self.fds.get_mut(a[0] as i32).map(|e| &mut e.kind) {
                Some(FdKind::Listener { connected, .. }) => {
                    *connected = true;
                    ok(0)
                }
                Some(_) => err(Errno::ENOTSOCK),
                None => err(Errno::EBADF),
            },
            S::setsockopt => {
                if let Some(FdKind::Listener { sockopt, .. }) =
                    self.fds.get_mut(a[0] as i32).map(|e| &mut e.kind)
                {
                    *sockopt = true;
                }
                ok(0)
            }
            S::getsockopt => {
                // Reads back whether options were applied — the check
                // Apache-style servers use, which a faked setsockopt
                // cannot satisfy.
                match self.fds.get(a[0] as i32).map(|e| &e.kind) {
                    Some(FdKind::Listener { sockopt, .. }) => {
                        SysOutcome::with_payload(0, Payload::U64(u64::from(*sockopt)))
                    }
                    Some(_) => SysOutcome::with_payload(0, Payload::U64(0)),
                    None => err(Errno::EBADF),
                }
            }
            S::getsockname | S::getpeername => ok(0),
            S::shutdown => {
                if let Some(FdKind::Conn(id)) = self.fds.get(a[0] as i32).map(|e| &e.kind) {
                    self.net.app_close(*id);
                }
                ok(0)
            }
            S::socketpair | S::pipe | S::pipe2 => {
                let pipe = self.pipes.create();
                let limit = self.limits.nofile();
                let Some(rfd) = self.fds.alloc(FdEntry::new(FdKind::PipeRead(pipe)), limit) else {
                    return err(Errno::EMFILE);
                };
                self.usage.add_fd();
                let Some(wfd) = self.fds.alloc(FdEntry::new(FdKind::PipeWrite(pipe)), limit) else {
                    return err(Errno::EMFILE);
                };
                self.usage.add_fd();
                SysOutcome::with_payload(0, Payload::Fds([rfd, wfd]))
            }
            S::epoll_create | S::epoll_create1 => {
                self.alloc_fd(FdEntry::new(FdKind::Epoll(Default::default())))
            }
            S::epoll_ctl => {
                let (epfd, op, fd) = (a[0] as i32, a[1], a[2] as i32);
                if self.fds.get(fd).is_none() {
                    return err(Errno::EBADF);
                }
                match self.fds.get_mut(epfd).map(|e| &mut e.kind) {
                    Some(FdKind::Epoll(set)) => {
                        match op {
                            1 => {
                                set.insert(fd); // EPOLL_CTL_ADD
                            }
                            2 => {
                                set.remove(&fd); // EPOLL_CTL_DEL
                            }
                            3 => {
                                set.insert(fd); // EPOLL_CTL_MOD
                            }
                            _ => return err(Errno::EINVAL),
                        }
                        ok(0)
                    }
                    _ => err(Errno::EBADF),
                }
            }
            S::epoll_wait | S::epoll_pwait => self.do_epoll_wait(a[0] as i32),
            S::poll | S::ppoll | S::select | S::pselect6 => {
                if self.net.any_pending_work() {
                    ok(1)
                } else {
                    self.clock.advance(20);
                    ok(0)
                }
            }
            S::dup => {
                let Some(entry) = self.fds.get(a[0] as i32).cloned() else {
                    return err(Errno::EBADF);
                };
                self.alloc_fd(entry)
            }
            S::dup2 | S::dup3 => {
                let Some(entry) = self.fds.get(a[0] as i32).cloned() else {
                    return err(Errno::EBADF);
                };
                let newfd = a[1] as i32;
                if self.fds.install(newfd, entry).is_none() {
                    self.usage.add_fd();
                }
                ok(newfd as i64)
            }
            S::fcntl => self.do_fcntl(inv),
            S::ioctl => self.do_ioctl(inv),

            S::mmap => {
                // Cap at 1 TiB: larger requests would not be satisfiable
                // and would overflow the page-rounding arithmetic.
                let len = a[1].min(1 << 40);
                let addr = self.mem.mmap(len);
                self.usage.add_rss(len.div_ceil(4096) * 4096);
                ok(addr as i64)
            }
            S::munmap => match self.mem.munmap(a[0]) {
                Some(freed) => {
                    self.usage.release_rss(freed);
                    ok(0)
                }
                None => err(Errno::EINVAL),
            },
            S::mremap => match self.mem.mremap(a[0], a[2]) {
                Some((new_addr, delta)) => {
                    if delta >= 0 {
                        self.usage.add_rss(delta as u64);
                    } else {
                        self.usage.release_rss((-delta) as u64);
                    }
                    ok(new_addr as i64)
                }
                None => err(Errno::EFAULT),
            },
            S::brk => {
                if a[0] == 0 {
                    return SysOutcome::with_payload(
                        self.mem.brk_query() as i64,
                        Payload::U64(self.mem.brk_query()),
                    );
                }
                let (new_brk, delta) = self.mem.brk_set(a[0]);
                if delta >= 0 {
                    self.usage.add_rss(delta as u64);
                } else {
                    self.usage.release_rss((-delta) as u64);
                }
                SysOutcome::with_payload(new_brk as i64, Payload::U64(new_brk))
            }
            // mprotect echoes the protection it applied (observable via
            // /proc/self/maps on real Linux); a fake cannot produce it.
            S::mprotect => SysOutcome::with_payload(0, Payload::U64(a[2])),
            S::madvise | S::msync | S::mlock | S::munlock => ok(0),
            // mincore fills a residency vector — out-of-band data a fake
            // cannot provide.
            S::mincore => {
                let pages = a[1].div_ceil(4096).clamp(1, 4096) as usize;
                SysOutcome::with_payload(0, Payload::Bytes(Bytes::from(vec![1u8; pages])))
            }

            S::getrlimit => {
                let (cur, max) = self.limits.get(a[0]);
                SysOutcome::with_payload(0, Payload::Pair(cur, max))
            }
            S::setrlimit => {
                if self.limits.set(a[0], a[1], a[2].max(a[1])) {
                    ok(0)
                } else {
                    err(Errno::EPERM)
                }
            }
            S::prlimit64 => {
                let res = a[1];
                let (old_cur, old_max) = self.limits.get(res);
                if a[2] != 0 && !self.limits.set(res, a[2], a[3].max(a[2])) {
                    return err(Errno::EPERM);
                }
                SysOutcome::with_payload(0, Payload::Pair(old_cur, old_max))
            }
            S::getrusage => SysOutcome::with_payload(0, Payload::U64(self.usage.cur_rss)),
            S::sysinfo => SysOutcome::with_payload(0, Payload::U64(16 << 30)),
            S::times => ok(self.clock.now() as i64),
            S::sched_getaffinity => SysOutcome::with_payload(0, Payload::U64(0b1111)),
            S::sched_yield
            | S::sched_setaffinity
            | S::setpriority
            | S::getpriority
            | S::sched_setscheduler
            | S::sched_getscheduler
            | S::sched_setparam
            | S::sched_getparam => ok(0),
            S::nanosleep | S::clock_nanosleep => {
                self.clock.advance(50);
                ok(0)
            }
            S::clock_gettime | S::gettimeofday => {
                SysOutcome::with_payload(0, Payload::U64(self.clock.now()))
            }
            S::time => ok(self.clock.now() as i64),
            S::clock_getres => SysOutcome::with_payload(0, Payload::U64(1)),

            S::rt_sigaction => {
                let old = self.signals.set_handler(a[0] as i32, a[1]);
                SysOutcome::with_payload(0, Payload::U64(old))
            }
            S::rt_sigprocmask => {
                let old = self.signals.set_mask(a[0], a[1]);
                SysOutcome::with_payload(0, Payload::U64(old))
            }
            S::rt_sigsuspend | S::pause => {
                if !self.net.any_pending_work() {
                    // Sleep a quantum waiting for a signal; cheap because
                    // the process is off-CPU.
                    self.clock.advance(5);
                }
                err(Errno::EINTR)
            }
            S::sigaltstack => {
                self.signals.install_altstack();
                ok(0)
            }
            S::rt_sigpending | S::rt_sigreturn => ok(0),
            // rt_sigtimedwait delivers the signal number plus siginfo.
            S::rt_sigtimedwait => SysOutcome::with_payload(15, Payload::U64(15)),

            S::futex => self.do_futex(inv),
            S::set_tid_address => {
                self.tid_address = a[0];
                ok(self.pid)
            }
            S::set_robust_list => {
                self.robust_list = a[0];
                ok(0)
            }
            S::get_robust_list => SysOutcome::with_payload(0, Payload::U64(self.robust_list)),

            S::arch_prctl => match a[0] {
                0x1002 => {
                    self.tls_fs = a[1];
                    // Plant the TLS canary: user code "reads %fs:0" via
                    // mem_load; a faked ARCH_SET_FS leaves it unmapped and
                    // the first TLS access faults (§5.4: the one
                    // arch_prctl feature everything needs).
                    self.futexes.set_value(a[1], 0x715);
                    ok(0)
                }
                0x1003 => SysOutcome::with_payload(0, Payload::U64(self.tls_fs)),
                _ => err(Errno::EINVAL),
            },
            S::prctl => {
                self.prctl_flags.insert(a[0], a[1]);
                ok(0)
            }

            S::clone | S::clone3 | S::fork | S::vfork => {
                let tid = self.next_tid;
                self.next_tid += 1;
                self.children.push(tid);
                // Thread stacks are resident memory.
                self.usage.add_rss(512 * 1024);
                ok(tid)
            }
            // A successful execve never returns; the model signals "image
            // loaded" through the payload, which a *faked* execve cannot
            // produce — execve is therefore never fakeable, like on real
            // hardware.
            S::execve | S::execveat => {
                SysOutcome::with_payload(0, Payload::Text("image-loaded".into()))
            }
            S::wait4 | S::waitid => match self.children.pop() {
                Some(tid) => ok(tid),
                None => err(Errno::ECHILD),
            },
            S::exit | S::exit_group => ok(0),
            S::kill | S::tkill | S::tgkill => ok(0),

            S::getpid => ok(self.pid),
            S::gettid => ok(self.pid),
            S::getppid => ok(1),
            S::getpgrp | S::getpgid => ok(self.pid),
            S::setpgid => ok(0),
            S::getuid => ok(self.uid as i64),
            S::geteuid => ok(self.euid as i64),
            S::getgid => ok(self.gid as i64),
            S::getegid => ok(self.egid as i64),
            S::setuid => {
                self.uid = a[0];
                self.euid = a[0];
                ok(0)
            }
            S::setgid => {
                self.gid = a[0];
                self.egid = a[0];
                ok(0)
            }
            S::setreuid
            | S::setregid
            | S::setresuid
            | S::setresgid
            | S::setgroups
            | S::setfsuid
            | S::setfsgid => ok(0),
            S::getgroups | S::getresuid | S::getresgid => ok(0),
            S::setsid => {
                self.sid = self.pid;
                ok(self.sid)
            }
            S::getsid => ok(self.sid),
            S::capget | S::capset => ok(0),

            S::uname => {
                SysOutcome::with_payload(0, Payload::Text("Linux 5.15.0-sim x86_64".into()))
            }
            S::getcwd => SysOutcome::with_payload(0, Payload::Text("/".into())),
            S::chdir | S::fchdir => ok(0),
            S::umask => ok(self.vfs.set_umask(a[0] as u32) as i64),
            S::getrandom => {
                let len = a[1].min(4096);
                let mut buf = Vec::with_capacity(len as usize);
                while buf.len() < len as usize {
                    buf.extend_from_slice(&self.next_random().to_le_bytes());
                }
                buf.truncate(len as usize);
                SysOutcome::with_payload(len as i64, Payload::Bytes(Bytes::from(buf)))
            }

            S::stat
            | S::lstat
            | S::statx
            | S::newfstatat
            | S::access
            | S::faccessat
            | S::faccessat2 => {
                let Some(path) = inv.path.as_deref() else {
                    return err(Errno::EFAULT);
                };
                match self.vfs.size(path) {
                    Some(size) => SysOutcome::with_payload(0, Payload::U64(size)),
                    None => err(Errno::ENOENT),
                }
            }
            S::fstat => {
                let fd = a[0] as i32;
                match self.fds.get(fd).map(|e| &e.kind) {
                    Some(FdKind::File { path, .. }) => {
                        let size = self.vfs.size(path).unwrap_or(0);
                        SysOutcome::with_payload(0, Payload::U64(size))
                    }
                    Some(_) => SysOutcome::with_payload(0, Payload::U64(0)),
                    None => err(Errno::EBADF),
                }
            }
            S::statfs | S::fstatfs => SysOutcome::with_payload(0, Payload::U64(1 << 30)),
            S::lseek => {
                let fd = a[0] as i32;
                let pos = a[1];
                match self.fds.get_mut(fd).map(|e| &mut e.kind) {
                    Some(FdKind::File { offset, .. }) => {
                        *offset = pos;
                        ok(pos as i64)
                    }
                    Some(_) => err(Errno::ESPIPE),
                    None => err(Errno::EBADF),
                }
            }
            S::mkdir | S::mkdirat => {
                if let Some(path) = inv.path.as_deref() {
                    self.vfs.mkdir(path);
                }
                ok(0)
            }
            S::rmdir => ok(0),
            S::unlink | S::unlinkat => {
                let Some(path) = inv.path.as_deref() else {
                    return err(Errno::EFAULT);
                };
                if self.vfs.unlink(path) {
                    ok(0)
                } else {
                    err(Errno::ENOENT)
                }
            }
            S::rename | S::renameat | S::renameat2 => ok(0),
            S::link | S::symlink | S::symlinkat | S::linkat => ok(0),
            S::readlink | S::readlinkat => {
                if inv.path.as_deref() == Some("/proc/self/exe") {
                    SysOutcome::with_payload(12, Payload::Text("/usr/bin/app".into()))
                } else {
                    err(Errno::EINVAL)
                }
            }
            S::getdents | S::getdents64 => {
                let fd = a[0] as i32;
                match self.fds.get(fd).map(|e| &e.kind) {
                    Some(FdKind::File { path, .. }) => {
                        let names = self.vfs.list(&path.clone()).join("\n");
                        let n = names.len() as i64;
                        SysOutcome::with_payload(n, Payload::Text(names))
                    }
                    Some(_) => err(Errno::ENOTDIR),
                    None => err(Errno::EBADF),
                }
            }
            // flock hands back a lock handle (the in-kernel lock record);
            // a faked lock has nothing to hand back.
            S::flock => match self.fds.get(a[0] as i32).map(|e| &e.kind) {
                Some(FdKind::File { .. }) => SysOutcome::with_payload(0, Payload::U64(1)),
                Some(_) => err(Errno::EINVAL),
                None => err(Errno::EBADF),
            },
            S::ftruncate
            | S::truncate
            | S::fallocate
            | S::fsync
            | S::fdatasync
            | S::fadvise64
            | S::sync
            | S::syncfs
            | S::utime
            | S::utimes
            | S::utimensat
            | S::futimesat
            | S::chmod
            | S::fchmod
            | S::fchmodat
            | S::chown
            | S::fchown
            | S::fchownat
            | S::lchown => ok(0),

            S::eventfd | S::eventfd2 => self.alloc_fd(FdEntry::new(FdKind::EventFd(a[0]))),
            S::timerfd_create => self.alloc_fd(FdEntry::new(FdKind::TimerFd)),
            S::timerfd_settime | S::timerfd_gettime => {
                match self.fds.get(a[0] as i32).map(|e| &e.kind) {
                    Some(FdKind::TimerFd) => ok(0),
                    Some(_) => err(Errno::EINVAL),
                    None => err(Errno::EBADF),
                }
            }
            S::signalfd | S::signalfd4 => self.alloc_fd(FdEntry::new(FdKind::SignalFd)),
            S::inotify_init | S::inotify_init1 => self.alloc_fd(FdEntry::new(FdKind::Inotify)),
            S::inotify_add_watch => ok(1),
            S::inotify_rm_watch => ok(0),
            S::memfd_create => self.alloc_fd(FdEntry::new(FdKind::MemFd(0))),

            S::io_setup | S::io_destroy | S::io_submit | S::io_getevents | S::io_cancel => ok(0),
            S::alarm
            | S::getitimer
            | S::setitimer
            | S::timer_create
            | S::timer_settime
            | S::timer_gettime
            | S::timer_delete => ok(0),
            S::personality | S::_sysctl | S::sysfs | S::syslog | S::ustat => ok(0),
            S::membarrier | S::rseq | S::getcpu | S::seccomp => ok(0),

            // Everything else: generic success. The interposition layer is
            // what decides whether these are interesting.
            _ => ok(0),
        }
    }
}

impl Kernel for LinuxSim {
    fn syscall(&mut self, inv: &Invocation) -> SysOutcome {
        self.usage.total_syscalls += 1;
        self.clock.advance(base_cost(inv.sysno));
        self.dispatch(inv)
    }

    fn charge(&mut self, cost: u64) {
        self.clock.advance(cost);
    }

    fn now(&self) -> u64 {
        self.clock.now()
    }

    fn usage(&self) -> ResourceUsage {
        self.usage
    }

    fn host_mut(&mut self) -> &mut HostPort {
        &mut self.net
    }

    fn mem_store(&mut self, addr: u64, val: u32) {
        self.futexes.set_value(addr, val);
    }

    fn mem_load(&self, addr: u64) -> u32 {
        self.futexes.value(addr)
    }
}

/// Extension helpers app models use for futex words (standing in for
/// user-space atomic memory, which the simulator does not have).
impl LinuxSim {
    /// Reads a futex word.
    pub fn futex_value(&self, addr: u64) -> u32 {
        self.futexes.value(addr)
    }

    /// Writes a futex word (an app-side atomic store).
    pub fn set_futex_value(&mut self, addr: u64, val: u32) {
        self.futexes.set_value(addr, val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv(s: Sysno, args: [u64; 6]) -> Invocation {
        Invocation::new(s, args)
    }

    #[test]
    fn open_read_write_close_cycle() {
        let mut k = LinuxSim::new();
        k.vfs.add_file("/srv/index.html", b"hello world".to_vec());
        let fd = k
            .syscall(&inv(Sysno::openat, [0; 6]).with_path("/srv/index.html"))
            .ret;
        assert!(fd >= 3);
        let out = k.syscall(&inv(Sysno::read, [fd as u64, 0, 5, 0, 0, 0]));
        assert_eq!(out.ret, 5);
        assert_eq!(&out.payload.as_bytes().unwrap()[..], b"hello");
        // Sequential read continues at the offset.
        let out = k.syscall(&inv(Sysno::read, [fd as u64, 0, 64, 0, 0, 0]));
        assert_eq!(out.ret, 6);
        assert_eq!(
            k.syscall(&inv(Sysno::close, [fd as u64, 0, 0, 0, 0, 0]))
                .ret,
            0
        );
        assert_eq!(k.usage().cur_fds, 0);
        assert_eq!(k.usage().peak_fds, 1);
    }

    #[test]
    fn missing_file_is_enoent_unless_creating() {
        let mut k = LinuxSim::new();
        let r = k.syscall(&inv(Sysno::openat, [0; 6]).with_path("/no/such"));
        assert_eq!(Errno::from_ret(r.ret), Some(Errno::ENOENT));
        let r = k.syscall(&inv(Sysno::openat, [0, 0, O_CREAT, 0, 0, 0]).with_path("/tmp/new"));
        assert!(r.ret >= 0);
    }

    #[test]
    fn append_mode_appends() {
        let mut k = LinuxSim::new();
        k.vfs.add_file("/var/log/access.log", b"line1\n".to_vec());
        let fd = k
            .syscall(
                &inv(Sysno::openat, [0, 0, O_APPEND, 0, 0, 0]).with_path("/var/log/access.log"),
            )
            .ret as u64;
        k.syscall(&inv(Sysno::write, [fd, 0, 0, 0, 0, 0]).with_data(&b"line2\n"[..]));
        assert_eq!(k.vfs.size("/var/log/access.log"), Some(12));
    }

    #[test]
    fn socket_lifecycle_serves_a_request() {
        let mut k = LinuxSim::new();
        let sfd = k.syscall(&inv(Sysno::socket, [2, 1, 0, 0, 0, 0])).ret as u64;
        assert_eq!(k.syscall(&inv(Sysno::bind, [sfd, 8080, 0, 0, 0, 0])).ret, 0);
        assert_eq!(
            k.syscall(&inv(Sysno::listen, [sfd, 128, 0, 0, 0, 0])).ret,
            0
        );

        // Client connects and sends a request.
        let conn = k.host_mut().connect(8080).unwrap();
        k.host_mut().send(conn, "GET /");

        let cfd = k.syscall(&inv(Sysno::accept4, [sfd, 0, 0, 0, 0, 0])).ret;
        assert!(cfd > 0);
        let req = k.syscall(&inv(Sysno::read, [cfd as u64, 0, 64, 0, 0, 0]));
        assert_eq!(&req.payload.as_bytes().unwrap()[..], b"GET /");
        k.syscall(&inv(Sysno::write, [cfd as u64, 0, 0, 0, 0, 0]).with_data(&b"200 OK"[..]));
        assert_eq!(&k.host_mut().recv(conn).unwrap()[..], b"200 OK");
    }

    #[test]
    fn accept_without_backlog_is_eagain() {
        let mut k = LinuxSim::new();
        let sfd = k.syscall(&inv(Sysno::socket, [0; 6])).ret as u64;
        k.syscall(&inv(Sysno::bind, [sfd, 80, 0, 0, 0, 0]));
        k.syscall(&inv(Sysno::listen, [sfd, 0, 0, 0, 0, 0]));
        let r = k.syscall(&inv(Sysno::accept, [sfd, 0, 0, 0, 0, 0]));
        assert_eq!(Errno::from_ret(r.ret), Some(Errno::EAGAIN));
    }

    #[test]
    fn epoll_reports_readiness() {
        let mut k = LinuxSim::new();
        let sfd = k.syscall(&inv(Sysno::socket, [0; 6])).ret as u64;
        k.syscall(&inv(Sysno::bind, [sfd, 80, 0, 0, 0, 0]));
        k.syscall(&inv(Sysno::listen, [sfd, 0, 0, 0, 0, 0]));
        let ep = k.syscall(&inv(Sysno::epoll_create1, [0; 6])).ret as u64;
        assert_eq!(
            k.syscall(&inv(Sysno::epoll_ctl, [ep, 1, sfd, 0, 0, 0])).ret,
            0
        );

        // Nothing ready yet.
        let r = k.syscall(&inv(Sysno::epoll_wait, [ep, 0, 0, 0, 0, 0]));
        assert_eq!(r.ret, 0);

        k.host_mut().connect(80).unwrap();
        let r = k.syscall(&inv(Sysno::epoll_wait, [ep, 0, 0, 0, 0, 0]));
        assert_eq!(r.ret, 1);
        assert_eq!(r.payload, Payload::List(vec![sfd]));
    }

    #[test]
    fn pipe_roundtrip_and_fd_accounting() {
        let mut k = LinuxSim::new();
        let r = k.syscall(&inv(Sysno::pipe2, [0; 6]));
        let [rfd, wfd] = r.payload.as_fds().unwrap();
        assert_eq!(k.usage().cur_fds, 2);
        k.syscall(&inv(Sysno::write, [wfd as u64, 0, 0, 0, 0, 0]).with_data(&b"msg"[..]));
        let out = k.syscall(&inv(Sysno::read, [rfd as u64, 0, 16, 0, 0, 0]));
        assert_eq!(&out.payload.as_bytes().unwrap()[..], b"msg");
    }

    #[test]
    fn brk_and_mmap_account_memory() {
        let mut k = LinuxSim::new();
        let cur = k
            .syscall(&inv(Sysno::brk, [0; 6]))
            .payload
            .as_u64()
            .unwrap();
        k.syscall(&inv(Sysno::brk, [cur + 8192, 0, 0, 0, 0, 0]));
        assert_eq!(k.usage().cur_rss, 8192);
        let addr = k.syscall(&inv(Sysno::mmap, [0, 4096, 3, 0x22, 0, 0])).ret as u64;
        assert_eq!(k.usage().cur_rss, 8192 + 4096);
        assert_eq!(
            k.syscall(&inv(Sysno::munmap, [addr, 4096, 0, 0, 0, 0])).ret,
            0
        );
        assert_eq!(k.usage().cur_rss, 8192);
        assert_eq!(k.usage().peak_rss, 8192 + 4096);
    }

    #[test]
    fn munmap_of_unknown_region_is_einval() {
        let mut k = LinuxSim::new();
        let r = k.syscall(&inv(Sysno::munmap, [0xdead_0000, 4096, 0, 0, 0, 0]));
        assert_eq!(Errno::from_ret(r.ret), Some(Errno::EINVAL));
    }

    #[test]
    fn rlimits_via_prlimit64() {
        let mut k = LinuxSim::new();
        let r = k.syscall(&inv(Sysno::prlimit64, [0, 7, 0, 0, 0, 0]));
        assert_eq!(r.payload, Payload::Pair(1024, 1048576));
        // Set NOFILE soft limit to 4096.
        let r = k.syscall(&inv(Sysno::prlimit64, [0, 7, 4096, 1048576, 0, 0]));
        assert_eq!(r.ret, 0);
        let r = k.syscall(&inv(Sysno::getrlimit, [7, 0, 0, 0, 0, 0]));
        assert_eq!(r.payload, Payload::Pair(4096, 1048576));
    }

    #[test]
    fn fd_limit_enforced() {
        let mut k = LinuxSim::new();
        k.syscall(&inv(Sysno::prlimit64, [0, 7, 5, 1048576, 0, 0]));
        k.vfs.add_file("/tmp/f", vec![]);
        let a = k.syscall(&inv(Sysno::openat, [0; 6]).with_path("/tmp/f"));
        assert!(a.ret >= 0);
        let b = k.syscall(&inv(Sysno::openat, [0; 6]).with_path("/tmp/f"));
        assert!(b.ret >= 0);
        let c = k.syscall(&inv(Sysno::openat, [0; 6]).with_path("/tmp/f"));
        assert_eq!(Errno::from_ret(c.ret), Some(Errno::EMFILE));
    }

    #[test]
    fn fcntl_nonblocking_flag() {
        let mut k = LinuxSim::new();
        let fd = k.syscall(&inv(Sysno::socket, [0; 6])).ret as u64;
        assert_eq!(
            k.syscall(&inv(Sysno::fcntl, [fd, 4, O_NONBLOCK, 0, 0, 0]))
                .ret,
            0
        );
        let fl = k.syscall(&inv(Sysno::fcntl, [fd, 3, 0, 0, 0, 0])).ret;
        assert_eq!(fl as u64 & O_NONBLOCK, O_NONBLOCK);
    }

    #[test]
    fn ioctl_tty_vs_socket() {
        let mut k = LinuxSim::new();
        // stdout is a TTY.
        let r = k.syscall(&inv(Sysno::ioctl, [1, TCGETS, 0, 0, 0, 0]));
        assert_eq!(r.ret, 0);
        let sfd = k.syscall(&inv(Sysno::socket, [0; 6])).ret as u64;
        let r = k.syscall(&inv(Sysno::ioctl, [sfd, TCGETS, 0, 0, 0, 0]));
        assert_eq!(Errno::from_ret(r.ret), Some(Errno::ENOTTY));
        assert_eq!(
            k.syscall(&inv(Sysno::ioctl, [sfd, FIONBIO, 1, 0, 0, 0]))
                .ret,
            0
        );
    }

    #[test]
    fn futex_wait_charges_time_and_releases() {
        let mut k = LinuxSim::new();
        k.set_futex_value(0x1000, 1);
        let before = k.now();
        let r = k.syscall(&inv(Sysno::futex, [0x1000, FUTEX_WAIT, 1, 0, 0, 0]));
        assert_eq!(r.ret, 0);
        assert!(k.now() - before >= 40, "wait advanced virtual time");
        assert_eq!(k.futex_value(0x1000), 0);
    }

    #[test]
    fn sigsuspend_returns_eintr() {
        let mut k = LinuxSim::new();
        let r = k.syscall(&inv(Sysno::rt_sigsuspend, [0; 6]));
        assert_eq!(Errno::from_ret(r.ret), Some(Errno::EINTR));
    }

    #[test]
    fn clone_returns_child_tid_and_charges_memory() {
        let mut k = LinuxSim::new();
        let rss0 = k.usage().cur_rss;
        let tid = k.syscall(&inv(Sysno::clone, [0; 6])).ret;
        assert!(tid > k.syscall(&inv(Sysno::getpid, [0; 6])).ret);
        assert!(k.usage().cur_rss > rss0);
        let waited = k.syscall(&inv(Sysno::wait4, [0; 6])).ret;
        assert_eq!(waited, tid);
    }

    #[test]
    fn identity_calls() {
        let mut k = LinuxSim::new();
        assert_eq!(k.syscall(&inv(Sysno::getuid, [0; 6])).ret, 0);
        k.syscall(&inv(Sysno::setuid, [1000, 0, 0, 0, 0, 0]));
        assert_eq!(k.syscall(&inv(Sysno::geteuid, [0; 6])).ret, 1000);
        let sid = k.syscall(&inv(Sysno::setsid, [0; 6])).ret;
        assert_eq!(sid, 4242);
    }

    #[test]
    fn getrandom_is_deterministic_per_instance() {
        let mut k1 = LinuxSim::new();
        let mut k2 = LinuxSim::new();
        let a = k1.syscall(&inv(Sysno::getrandom, [0, 16, 0, 0, 0, 0]));
        let b = k2.syscall(&inv(Sysno::getrandom, [0, 16, 0, 0, 0, 0]));
        assert_eq!(a.payload, b.payload, "replicated runs must agree");
    }

    #[test]
    fn pseudo_file_reads_work() {
        let mut k = LinuxSim::new();
        let fd = k
            .syscall(&inv(Sysno::openat, [0; 6]).with_path("/proc/self/status"))
            .ret as u64;
        let out = k.syscall(&inv(Sysno::read, [fd, 0, 256, 0, 0, 0]));
        assert!(out.ret > 0);
        assert!(
            String::from_utf8_lossy(out.payload.as_bytes().unwrap()).contains("VmRSS"),
            "pseudo /proc content served"
        );
    }

    #[test]
    fn stdio_write_goes_to_console() {
        let mut k = LinuxSim::new();
        k.syscall(&inv(Sysno::write, [1, 0, 0, 0, 0, 0]).with_data(&b"Hello, world!\n"[..]));
        assert_eq!(k.host_mut().console, vec!["Hello, world!\n"]);
    }

    #[test]
    fn syscall_counter_and_clock_move() {
        let mut k = LinuxSim::new();
        let t0 = k.now();
        k.syscall(&inv(Sysno::getpid, [0; 6]));
        k.syscall(&inv(Sysno::getpid, [0; 6]));
        assert_eq!(k.usage().total_syscalls, 2);
        assert!(k.now() > t0);
        k.charge(100);
        assert_eq!(k.now(), t0 + 2 * 2 + 100);
    }
}
