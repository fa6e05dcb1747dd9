//! The serve daemon: TCP listener, connection threads, request
//! dispatch, and the generation watcher that rebuilds the index when
//! the database changes underneath it.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

use loupe_db::{Database, DbError};

use crate::index::ServeIndex;
use crate::proto::{self, Request, Response, ServeStats};

/// Server startup errors.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or filesystem failure.
    Io(io::Error),
    /// Database failure while building the index.
    Db(DbError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
            ServeError::Db(e) => write!(f, "serve database error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<DbError> for ServeError {
    fn from(e: DbError) -> Self {
        ServeError::Db(e)
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Maximum concurrent connection-handler threads.
    pub threads: usize,
    /// Database poll interval for the generation watcher; zero
    /// disables watching.
    pub watch_interval: Duration,
    /// Build the lazy analytics (plans, inverted syscall index) at
    /// startup instead of on first touch.
    pub eager: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 1024,
            watch_interval: Duration::from_millis(200),
            eager: false,
        }
    }
}

/// The manifest's length and modification time: one `stat`, where
/// [`manifest_fingerprint`] reads the whole file. An unchanged stamp
/// means unchanged bytes, except within a filesystem clock tick: a
/// second rewrite inside the same tick can keep both length and time.
/// So a manifest modified less than a second ago has no stamp (`None`
/// never matches), and the watcher hashes it until it has aged.
fn manifest_stamp(root: &Path) -> Option<(u64, SystemTime)> {
    let meta = std::fs::metadata(root.join("manifest.json")).ok()?;
    let modified = meta.modified().ok()?;
    let aged = modified
        .elapsed()
        .is_ok_and(|age| age >= Duration::from_secs(1));
    aged.then_some((meta.len(), modified))
}

/// FNV-1a over the manifest bytes: the database-change signal. The
/// manifest is rewritten (atomically) on every flush that changed
/// anything, so its bytes fingerprint the database state.
fn manifest_fingerprint(root: &Path) -> u64 {
    let Ok(bytes) = std::fs::read(root.join("manifest.json")) else {
        return 0;
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// State shared by every server thread.
struct Shared {
    root: PathBuf,
    index: RwLock<Arc<ServeIndex>>,
    eager: bool,
    shutdown: AtomicBool,
    requests: AtomicU64,
    rebuilds: AtomicU64,
    /// Free connection-handler slots (bounds thread count).
    slots: Mutex<usize>,
    slot_freed: Condvar,
}

impl Shared {
    fn snapshot(&self) -> Arc<ServeIndex> {
        Arc::clone(&self.index.read().expect("index lock"))
    }

    /// Rebuilds the index from a freshly opened database and swaps it
    /// in. A fresh open (not the original handle) so the new index
    /// sees namespaces exactly as the manifest on disk records them.
    fn rebuild(&self) -> Result<(), ServeError> {
        let generation = self.snapshot().generation() + 1;
        let db = Database::open(&self.root)?;
        let next = Arc::new(ServeIndex::build(db, generation)?);
        if self.eager {
            next.warm_analytics()
                .map_err(|e| ServeError::Io(io::Error::other(e)))?;
        }
        *self.index.write().expect("index lock") = next;
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn handle(&self, req: &Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match req.cmd.as_str() {
            // Daemon counters live here, not in the index.
            "stats" => {
                let index = self.snapshot();
                Response {
                    ok: true,
                    generation: Some(index.generation()),
                    stats: Some(ServeStats {
                        generation: index.generation(),
                        cells: index.cells() as u64,
                        oses: index.os_count() as u64,
                        apps: index.app_count() as u64,
                        requests: self.requests.load(Ordering::Relaxed),
                        batched_lookups: 0,
                        batches: 0,
                        rebuilds: self.rebuilds.load(Ordering::Relaxed),
                    }),
                    ..Response::default()
                }
            }
            // Everything else resolves against ONE index snapshot
            // (multi-cell answers can never mix generations, even
            // mid-rebuild) — the same resolution `loupe query
            // --offline` runs without a daemon.
            _ => self.snapshot().answer(req),
        }
    }
}

/// Serves one connection: a request/response loop until EOF. Malformed
/// JSON gets an error response; frame-level I/O errors end the
/// connection.
fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    while let Ok(Some(payload)) = proto::read_frame(&mut stream) {
        let response = match serde_json::from_str::<Request>(&payload) {
            Ok(req) => shared.handle(&req),
            Err(e) => Response::fail(format!("malformed request: {e}")),
        };
        let Ok(json) = serde_json::to_string(&response) else {
            break;
        };
        if proto::write_frame(&mut stream, &json).is_err() {
            break;
        }
    }
}

/// A running serve daemon. Dropping it (or calling [`Server::stop`])
/// shuts the listener and watcher down.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Opens the database under `root`, builds the first index
    /// generation and starts listening.
    ///
    /// # Errors
    ///
    /// Bind failures and database errors.
    pub fn start(root: impl AsRef<Path>, cfg: ServeConfig) -> Result<Server, ServeError> {
        let root = root.as_ref().to_path_buf();
        let db = Database::open(&root)?;
        let index = ServeIndex::build(db, 0)?;
        if cfg.eager {
            index
                .warm_analytics()
                .map_err(|e| ServeError::Io(io::Error::other(e)))?;
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            root,
            index: RwLock::new(Arc::new(index)),
            eager: cfg.eager,
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            slots: Mutex::new(cfg.threads.max(1)),
            slot_freed: Condvar::new(),
        });
        let mut threads = Vec::new();

        // Accept loop: thread-per-connection with small stacks (the
        // handler's frame is shallow), bounded by the slot counter so
        // `--threads` caps memory under a connection flood.
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(stream) = stream else { continue };
                    // Answers are single small frames; never let Nagle
                    // hold one back waiting for a delayed ACK.
                    stream.set_nodelay(true).ok();
                    let mut slots = shared.slots.lock().expect("slots");
                    while *slots == 0 {
                        slots = shared.slot_freed.wait(slots).expect("slots");
                    }
                    *slots -= 1;
                    drop(slots);
                    let conn_shared = Arc::clone(&shared);
                    let spawned =
                        std::thread::Builder::new()
                            .stack_size(64 * 1024)
                            .spawn(move || {
                                serve_connection(&conn_shared, stream);
                                *conn_shared.slots.lock().expect("slots") += 1;
                                conn_shared.slot_freed.notify_one();
                            });
                    if spawned.is_err() {
                        // Spawn failure: hand the slot back and drop
                        // the connection.
                        let mut slots = shared.slots.lock().expect("slots");
                        *slots += 1;
                        shared.slot_freed.notify_one();
                    }
                }
            }));
        }

        // Generation watcher: polls the manifest and swaps in a freshly
        // built index when its bytes change. The bytes are read and
        // hashed only when the stamp moved (or is too fresh to trust).
        if !cfg.watch_interval.is_zero() {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                let mut stamp = manifest_stamp(&shared.root);
                let mut last = manifest_fingerprint(&shared.root);
                while !shared.shutdown.load(Ordering::Acquire) {
                    std::thread::sleep(cfg.watch_interval);
                    // Stat before reading: a rewrite in between leaves
                    // an old stamp next to new bytes, so the next poll
                    // looks again.
                    let current_stamp = manifest_stamp(&shared.root);
                    if current_stamp.is_some() && current_stamp == stamp {
                        continue;
                    }
                    let current = manifest_fingerprint(&shared.root);
                    // Rebuild failures (e.g. a writer mid-flight) leave
                    // the previous generation serving; the next poll
                    // retries.
                    if current == last || shared.rebuild().is_ok() {
                        last = current;
                        stamp = current_stamp;
                    }
                }
            }));
        }

        Ok(Server {
            shared,
            addr,
            threads,
        })
    }

    /// The bound address (with the actual port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Served requests so far.
    pub fn requests(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Forces an index rebuild now (bypassing the watcher) — for tests
    /// and tooling.
    ///
    /// # Errors
    ///
    /// Database errors while rebuilding.
    pub fn rebuild_now(&self) -> Result<(), ServeError> {
        self.shared.rebuild()
    }

    /// Stops the daemon: listener and watcher threads exit;
    /// in-flight connection threads finish their current
    /// request/response and end with their client.
    pub fn stop(mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
