//! A bulk load racing concurrent commits must not drop their records.
//!
//! `load_all` that misses its in-memory slot hashes the namespace
//! state, walks the JSON tree, reconciles the manifest with what the
//! walk saw (dropping the records of files it did not see) and tags the
//! slot with the current generation. If a commit lands between those
//! steps, its record is dropped or its entry is hidden behind a slot
//! tagged as current. One thread commits distinct artifacts while
//! another loops `load_all`; afterwards every artifact must be served
//! in-process, keep its provenance, and be seen by a fresh handle.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use loupe_apps::Workload;
use loupe_core::fingerprint_of;
use loupe_db::{store, Artifact, Database, Derive, Namespace};
use loupe_gentests::{ConformanceSuite, ExpectedVerdicts};
use loupe_plan::MatrixCell;
use loupe_syscalls::SysnoSet;

const N: usize = 300;

/// `(entries served in-process, records with inputs, entries a fresh
/// handle serves)` after `N` commits raced by a `load_all` loop.
fn race<T: Artifact + Send + Sync + 'static>(
    tag: &str,
    ns: &'static Namespace<T>,
    make: fn(usize) -> T,
) -> (usize, usize, usize) {
    let dir = std::env::temp_dir().join(format!("loupedb-race-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = Database::open(&dir).unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let (db, done) = (db.clone(), Arc::clone(&done));
        std::thread::spawn(move || {
            for i in 0..N {
                let inputs = [("i".to_owned(), fingerprint_of(&(i as u64)))].into();
                db.commit(ns, &make(i), Derive::Miss, inputs, BTreeMap::new())
                    .unwrap();
            }
            done.store(true, Ordering::SeqCst);
        })
    };
    let reader = {
        let db = db.clone();
        std::thread::spawn(move || {
            while !done.load(Ordering::SeqCst) {
                db.load_all(ns).unwrap();
            }
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();

    let served = db.load_all(ns).unwrap().len();
    let with_inputs = db
        .cache_entry_counts()
        .into_iter()
        .find(|(name, _, _)| name == ns.layout.name)
        .map_or(0, |(_, _, with)| with);
    db.flush().unwrap();
    drop(db);
    let fresh = Database::open(&dir).unwrap().load_all(ns).unwrap().len();
    std::fs::remove_dir_all(&dir).ok();
    (served, with_inputs, fresh)
}

#[test]
fn load_all_racing_suite_commits_drops_no_record() {
    let suite = |i: usize| ConformanceSuite {
        os: "racetest".to_owned(),
        app: format!("app-{i:03}"),
        workload: Workload::HealthCheck,
        linux_pass: true,
        tolerated_stubs: SysnoSet::new(),
        tolerated_stub_flags: Vec::new(),
        expected: ExpectedVerdicts::default(),
        cases: Vec::new(),
    };
    assert_eq!(race("suites", &store::SUITES, suite), (N, N, N));
}

#[test]
fn load_all_racing_matrix_commits_drops_no_record() {
    let cell = |i: usize| MatrixCell {
        os: "racetest".to_owned(),
        app: format!("app-{i:03}"),
        workload: Workload::HealthCheck,
        linux_pass: true,
        missing_required: SysnoSet::new(),
        vanilla: None,
        planned: None,
        missing_required_flags: Vec::new(),
    };
    assert_eq!(race("matrix", &store::MATRIX, cell), (N, N, N));
}
