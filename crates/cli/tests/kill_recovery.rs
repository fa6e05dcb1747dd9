//! Crash safety of the database: a `loupe sweep --all-os` killed with
//! SIGKILL at an arbitrary point must leave a database the next sweep
//! converges from — it exits 0, and the docs rendered afterwards are
//! byte-identical to those of a database that was never interrupted.
//!
//! Every artifact, manifest and snapshot write is a temp file renamed
//! over its target, so a kill can lose work but never leave a torn file
//! behind for the next run to trip over.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Enough apps that a matrix sweep runs long enough for the kills to
/// land mid-run, few enough to keep the test quick.
const APPS: &str = "activemq,aerospike,beanstalkd,bind9,boa,brotli,caddy,cherokee,\
                    civetweb,consul,coredns,curl,darkhttpd,dnsmasq,haproxy,memcached";
const TRIALS: u64 = 8;

fn loupe() -> Command {
    Command::new(env!("CARGO_BIN_EXE_loupe"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("loupe-kill-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn run(args: &[&str], db: &Path) {
    let out = loupe().args(args).arg("--db").arg(db).output().unwrap();
    assert!(
        out.status.success(),
        "loupe {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

const MATRIX: &[&str] = &["sweep", "--apps", APPS, "--workload", "all", "--all-os"];

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// Every rendered doc, by path relative to `dir`.
fn docs(db: &Path, dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    std::fs::remove_dir_all(dir).ok();
    run(&["report", "--docs", dir.to_str().unwrap()], db);
    let mut out = BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        for entry in std::fs::read_dir(d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                out.insert(path.strip_prefix(dir).unwrap().to_path_buf(), bytes);
            }
        }
    }
    out
}

#[test]
fn sweep_killed_at_random_points_converges_to_clean_docs() {
    let base = tmpdir("base");
    run(&["sweep", "--apps", APPS, "--workload", "all"], &base);

    // The uninterrupted reference, timed to scale the kill delays.
    let clean = tmpdir("clean");
    copy_dir(&base, &clean);
    let started = Instant::now();
    run(MATRIX, &clean);
    let full = started.elapsed();
    let want = docs(&clean, &tmpdir("clean-docs"));
    assert!(want.contains_key(Path::new("OS_MATRIX.md")));

    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut mid_run = 0;
    for trial in 0..TRIALS {
        // xorshift64: a fixed seed, so every run kills at the same
        // fractions of the sweep.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let delay = full.mul_f64((state % 1000) as f64 / 1000.0);

        let db = tmpdir(&format!("trial{trial}"));
        copy_dir(&base, &db);
        let mut child = loupe()
            .args(MATRIX)
            .arg("--db")
            .arg(&db)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        std::thread::sleep(delay);
        if child.try_wait().unwrap().is_none() {
            mid_run += 1;
        }
        child.kill().ok(); // SIGKILL
        child.wait().unwrap();

        run(MATRIX, &db);
        let docs_dir = tmpdir(&format!("trial{trial}-docs"));
        let got = docs(&db, &docs_dir);
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>(),
            "trial {trial} (killed after {delay:?})"
        );
        for (path, bytes) in &want {
            assert!(
                got[path] == *bytes,
                "trial {trial} (killed after {delay:?}): {} differs from the clean run",
                path.display()
            );
        }
        for dir in [db, docs_dir] {
            std::fs::remove_dir_all(dir).ok();
        }
    }
    assert!(mid_run > 0, "no kill landed while the sweep was running");
    for dir in [base, clean, tmpdir("clean-docs")] {
        std::fs::remove_dir_all(dir).ok();
    }
}
