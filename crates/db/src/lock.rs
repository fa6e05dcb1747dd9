//! Cross-process advisory file lock for database writers.
//!
//! Every database save is a read-modify-write: reports merge with the
//! stored entry, matrix cells compose tiers, and the manifest flush
//! rewrites each changed namespace's records file wholesale. The
//! in-process `write_lock`
//! mutex serialises writers inside one process; this module extends the
//! exclusion across processes — a fleet sweep and a serve-side rebuild
//! (or two concurrent sweeps) can no longer interleave their
//! load-compose-write cycles and drop each other's tiers.
//!
//! The lock is `flock(2)` on `<root>/.loupedb.lock`: advisory (readers
//! are unaffected and lock-free), crash-safe (the kernel releases it
//! with the file descriptor, so a killed sweep never wedges the
//! database) and reentrant across `Database` clones because callers
//! only take it under the in-process writer mutex. On non-Linux
//! targets the lock degrades to the in-process mutex alone.

use std::fs;
use std::io;
use std::path::Path;

/// Name of the lock file inside the database root.
pub const LOCK_FILE: &str = ".loupedb.lock";

/// An acquired exclusive advisory lock, released on drop.
#[derive(Debug)]
pub struct FileLock {
    // Held only for its descriptor; `flock` locks die with it.
    _file: fs::File,
}

impl FileLock {
    /// Blocks until the exclusive lock on `<root>/.loupedb.lock` is
    /// acquired. Creates the lock file if needed.
    ///
    /// # Errors
    ///
    /// Lock-file creation failures. `flock` failures are impossible on
    /// a freshly opened descriptor short of kernel resource exhaustion,
    /// which is surfaced as an I/O error.
    pub fn acquire(root: &Path) -> io::Result<FileLock> {
        let file = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(root.join(LOCK_FILE))?;
        #[cfg(target_os = "linux")]
        {
            use std::os::unix::io::AsRawFd;
            // SAFETY: a valid, owned descriptor; LOCK_EX blocks until
            // every other holder releases.
            let rc = unsafe { libc::flock(file.as_raw_fd(), libc::LOCK_EX) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(FileLock { _file: file })
    }
}

// The advisory lock is released by the kernel when `_file` drops; no
// explicit LOCK_UN is needed (and an explicit unlock before close would
// only widen the window between unlock and descriptor reuse).

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn lock_excludes_across_handles() {
        let dir = std::env::temp_dir().join(format!("loupe-lock-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        // Two threads, two independent lock handles on the same root:
        // the critical sections must never overlap.
        let inside = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let dir = dir.clone();
            let inside = Arc::clone(&inside);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let _lock = FileLock::acquire(&dir).unwrap();
                    assert_eq!(inside.fetch_add(1, Ordering::SeqCst), 0, "lock overlap");
                    inside.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
