//! Cross-process writer exclusion: two *processes* saving tiers of the
//! same matrix cells concurrently must never drop each other's tier —
//! the in-process writer mutex cannot see the other process, so this is
//! the advisory file lock's regression test.
//!
//! The test re-executes its own test binary as the second process:
//! [`tier_writer_child`] is a no-op under a normal `cargo test` run and
//! becomes the child writer when `LOUPE_LOCK_CHILD_DB` is set.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use loupe_apps::Workload;
use loupe_db::{store, Database};
use loupe_plan::{MatrixCell, TierOutcome};
use loupe_syscalls::SysnoSet;

const APPS: usize = 24;
const ROUNDS: usize = 6;

fn cell(app: usize, vanilla: bool) -> MatrixCell {
    let outcome = TierOutcome {
        pass: true,
        ..TierOutcome::default()
    };
    MatrixCell {
        os: "locktest".to_owned(),
        app: format!("app-{app:02}"),
        workload: Workload::HealthCheck,
        linux_pass: true,
        missing_required: SysnoSet::new(),
        vanilla: vanilla.then(|| outcome.clone()),
        planned: (!vanilla).then_some(outcome),
        missing_required_flags: Vec::new(),
    }
}

/// Saves one tier of every cell, `ROUNDS` times over. Each save is a
/// read-modify-write: the database composes the missing tier from the
/// stored cell, which is exactly the cycle that loses data when two
/// processes interleave it unlocked.
fn hammer(db: &Database, vanilla: bool) {
    for _ in 0..ROUNDS {
        for app in 0..APPS {
            db.put(&store::MATRIX, &cell(app, vanilla))
                .expect("save cell");
        }
    }
}

/// Child-process entry point: a no-op unless the parent set the env var.
#[test]
fn tier_writer_child() {
    let Ok(dir) = std::env::var("LOUPE_LOCK_CHILD_DB") else {
        return;
    };
    // Wait for the parent's go signal so both processes hammer the same
    // keys at the same time instead of running back to back.
    let go = PathBuf::from(&dir).join("go");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !go.exists() {
        assert!(Instant::now() < deadline, "parent never signalled go");
        std::thread::sleep(Duration::from_millis(1));
    }
    let db = Database::open(&dir).expect("child open");
    hammer(&db, false); // child writes the planned tier
    db.flush().expect("child flush");
}

#[test]
fn concurrent_processes_never_drop_a_tier() {
    let dir = std::env::temp_dir().join(format!("loupe-xproc-lock-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(&exe)
        .args(["tier_writer_child", "--exact", "--test-threads=1"])
        .env("LOUPE_LOCK_CHILD_DB", &dir)
        .spawn()
        .expect("spawn child test process");

    std::fs::write(dir.join("go"), b"go").unwrap();
    let db = Database::open(&dir).expect("parent open");
    hammer(&db, true); // parent writes the vanilla tier
    db.flush().expect("parent flush");

    let status = child.wait().expect("child exit status");
    assert!(status.success(), "child writer failed: {status}");

    // Every cell must hold BOTH tiers: each save composed the other
    // process's tier back in, so an interleaved load-compose-write that
    // dropped one would leave a one-tier cell behind.
    let db = Database::open(&dir).expect("verify open");
    for app in 0..APPS {
        let stored = db
            .get(
                &store::MATRIX,
                &loupe_db::matrix_key("locktest", &format!("app-{app:02}"), Workload::HealthCheck),
            )
            .expect("load cell")
            .unwrap_or_else(|| panic!("cell app-{app:02} missing"));
        assert!(
            stored.vanilla.is_some() && stored.planned.is_some(),
            "app-{app:02} lost a tier: vanilla={} planned={}",
            stored.vanilla.is_some(),
            stored.planned.is_some(),
        );
    }

    // The manifest both processes flushed must still parse (atomic
    // rename under the lock: torn writes are impossible). A corrupt
    // file degrades to an empty manifest, so non-empty matrix records
    // prove the last flush landed whole.
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest exists");
    let parsed = loupe_db::Manifest::from_json(&manifest);
    assert_eq!(
        parsed
            .records
            .get(loupe_db::ns::MATRIX)
            .map(|r| r.len())
            .unwrap_or(0),
        APPS,
        "manifest.json corrupt or incomplete after concurrent flushes"
    );
    std::fs::remove_dir_all(&dir).ok();
}
