//! The simulated loopback network and the host-side port.
//!
//! Test scripts play the role of `wrk`, `redis-benchmark` or the iPerf
//! client (§3.2): they connect to the application's listening port, send
//! request bytes and read responses through [`HostPort`]. The application
//! reaches the same connection state through socket system calls, so
//! stubbing or faking any of `socket`/`bind`/`listen`/`accept`/`read`/
//! `write` severs the path exactly where the real kernel would.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;

/// Identifies one TCP connection in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub u32);

/// One bidirectional connection.
#[derive(Debug, Clone, Default)]
struct Conn {
    to_app: VecDeque<Bytes>,
    to_client: VecDeque<Bytes>,
    client_closed: bool,
    app_closed: bool,
}

/// A listening port.
#[derive(Debug, Clone, Default)]
struct Listener {
    backlog: VecDeque<ConnId>,
    accepted: Vec<ConnId>,
}

/// The network state, exposed to test scripts as the "host side".
///
/// # Examples
///
/// ```
/// use loupe_kernel::HostPort;
///
/// let mut net = HostPort::new();
/// // Nobody is listening yet: connection refused.
/// assert!(net.connect(8080).is_none());
/// ```
///
/// The application side of the state is driven by `listen`/`accept`/`read`/
/// `write` system calls through [`crate::LinuxSim`].
#[derive(Debug, Clone, Default)]
pub struct HostPort {
    listeners: BTreeMap<u16, Listener>,
    conns: BTreeMap<ConnId, Conn>,
    next_conn: u32,
    /// Lines the application printed to stdout/stderr.
    pub console: Vec<String>,
}

impl HostPort {
    /// Creates an empty network.
    pub fn new() -> HostPort {
        HostPort::default()
    }

    // ---- client (test script) side -------------------------------------

    /// Connects to `port`. Returns `None` (connection refused) when no one
    /// is listening.
    pub fn connect(&mut self, port: u16) -> Option<ConnId> {
        let listener = self.listeners.get_mut(&port)?;
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        listener.backlog.push_back(id);
        self.conns.insert(id, Conn::default());
        Some(id)
    }

    /// Sends request bytes to the application.
    pub fn send(&mut self, conn: ConnId, data: impl Into<Bytes>) {
        if let Some(c) = self.conns.get_mut(&conn) {
            if !c.client_closed {
                c.to_app.push_back(data.into());
            }
        }
    }

    /// Receives one response chunk from the application, if any.
    pub fn recv(&mut self, conn: ConnId) -> Option<Bytes> {
        self.conns.get_mut(&conn)?.to_client.pop_front()
    }

    /// Closes the client side of the connection.
    pub fn close(&mut self, conn: ConnId) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.client_closed = true;
        }
    }

    /// Total response chunks queued towards clients (diagnostic).
    pub fn pending_responses(&self) -> usize {
        self.conns.values().map(|c| c.to_client.len()).sum()
    }

    // ---- application (kernel) side -------------------------------------

    /// Registers a listener (the effect of `listen(2)`).
    pub(crate) fn app_listen(&mut self, port: u16) {
        self.listeners.entry(port).or_default();
    }

    /// Accepts a pending connection on `port`.
    pub(crate) fn app_accept(&mut self, port: u16) -> Option<ConnId> {
        let l = self.listeners.get_mut(&port)?;
        let id = l.backlog.pop_front()?;
        l.accepted.push(id);
        Some(id)
    }

    /// Whether `port` has pending, unaccepted connections.
    pub(crate) fn app_has_backlog(&self, port: u16) -> bool {
        self.listeners
            .get(&port)
            .is_some_and(|l| !l.backlog.is_empty())
    }

    /// Reads a request chunk addressed to the application.
    pub(crate) fn app_recv(&mut self, conn: ConnId) -> Option<Bytes> {
        self.conns.get_mut(&conn)?.to_app.pop_front()
    }

    /// Whether data is waiting for the application on `conn`.
    pub(crate) fn app_has_data(&self, conn: ConnId) -> bool {
        self.conns.get(&conn).is_some_and(|c| !c.to_app.is_empty())
    }

    /// Sends response bytes to the client. Returns bytes queued, or `None`
    /// if the connection is gone.
    pub(crate) fn app_send(&mut self, conn: ConnId, data: Bytes) -> Option<u64> {
        let c = self.conns.get_mut(&conn)?;
        if c.app_closed {
            return None;
        }
        let n = data.len() as u64;
        c.to_client.push_back(data);
        Some(n)
    }

    /// Closes the application side.
    pub(crate) fn app_close(&mut self, conn: ConnId) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.app_closed = true;
        }
    }

    /// Whether any listener has backlog or any connection has inbound data
    /// (used to model "a signal/event is pending").
    pub(crate) fn any_pending_work(&self) -> bool {
        self.listeners.values().any(|l| !l.backlog.is_empty())
            || self.conns.values().any(|c| !c.to_app.is_empty())
    }
}

/// A unidirectional pipe (for `pipe(2)`/`pipe2(2)`).
#[derive(Debug, Clone, Default)]
pub struct Pipe {
    buf: VecDeque<Bytes>,
    read_open: bool,
    write_open: bool,
}

/// The pipe table.
#[derive(Debug, Clone, Default)]
pub struct PipeTable {
    pipes: BTreeMap<u32, Pipe>,
    next: u32,
}

impl PipeTable {
    /// Allocates a new pipe, returning its id.
    pub fn create(&mut self) -> u32 {
        let id = self.next;
        self.next += 1;
        self.pipes.insert(
            id,
            Pipe {
                buf: VecDeque::new(),
                read_open: true,
                write_open: true,
            },
        );
        id
    }

    /// Writes into the pipe; returns bytes written or `None` if the read
    /// end is closed (EPIPE).
    pub fn write(&mut self, id: u32, data: Bytes) -> Option<u64> {
        let p = self.pipes.get_mut(&id)?;
        if !p.read_open {
            return None;
        }
        let n = data.len() as u64;
        p.buf.push_back(data);
        Some(n)
    }

    /// Reads a chunk from the pipe. `Some(None)` means empty-but-open.
    pub fn read(&mut self, id: u32) -> Option<Option<Bytes>> {
        let p = self.pipes.get_mut(&id)?;
        Some(p.buf.pop_front())
    }

    /// Closes one end.
    pub fn close_end(&mut self, id: u32, read_end: bool) {
        if let Some(p) = self.pipes.get_mut(&id) {
            if read_end {
                p.read_open = false;
            } else {
                p.write_open = false;
            }
        }
    }

    /// Whether the pipe has buffered data.
    pub fn has_data(&self, id: u32) -> bool {
        self.pipes.get(&id).is_some_and(|p| !p.buf.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_requires_listener() {
        let mut net = HostPort::new();
        assert!(net.connect(80).is_none());
        net.app_listen(80);
        assert!(net.connect(80).is_some());
    }

    #[test]
    fn request_response_roundtrip() {
        let mut net = HostPort::new();
        net.app_listen(8080);
        let conn = net.connect(8080).unwrap();
        net.send(conn, "ping");
        let accepted = net.app_accept(8080).unwrap();
        assert_eq!(accepted, conn);
        let req = net.app_recv(conn).unwrap();
        assert_eq!(&req[..], b"ping");
        net.app_send(conn, Bytes::from_static(b"pong")).unwrap();
        assert_eq!(&net.recv(conn).unwrap()[..], b"pong");
        assert!(net.recv(conn).is_none());
    }

    #[test]
    fn backlog_order_is_fifo() {
        let mut net = HostPort::new();
        net.app_listen(80);
        let a = net.connect(80).unwrap();
        let b = net.connect(80).unwrap();
        assert_eq!(net.app_accept(80), Some(a));
        assert_eq!(net.app_accept(80), Some(b));
        assert_eq!(net.app_accept(80), None);
    }

    #[test]
    fn pending_work_detection() {
        let mut net = HostPort::new();
        net.app_listen(80);
        assert!(!net.any_pending_work());
        let c = net.connect(80).unwrap();
        assert!(net.any_pending_work());
        net.app_accept(80);
        assert!(!net.any_pending_work());
        net.send(c, "x");
        assert!(net.any_pending_work());
    }

    #[test]
    fn pipes() {
        let mut t = PipeTable::new_for_tests();
        let id = t.create();
        assert_eq!(t.write(id, Bytes::from_static(b"abc")), Some(3));
        assert!(t.has_data(id));
        assert_eq!(&t.read(id).unwrap().unwrap()[..], b"abc");
        assert_eq!(t.read(id).unwrap(), None);
        t.close_end(id, true);
        assert_eq!(t.write(id, Bytes::from_static(b"x")), None, "EPIPE");
    }

    impl PipeTable {
        fn new_for_tests() -> PipeTable {
            PipeTable::default()
        }
    }
}
