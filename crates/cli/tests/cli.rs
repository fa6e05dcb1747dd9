//! Exit-code regression tests for the `loupe` binary: user errors must
//! exit non-zero with an actionable message on stderr, and happy paths
//! must exit zero — the contract CI scripts and the generated docs'
//! regeneration commands rely on.

use std::path::PathBuf;
use std::process::Command;

fn loupe() -> Command {
    Command::new(env!("CARGO_BIN_EXE_loupe"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("loupe-cli-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn sweep_with_unknown_os_exits_nonzero_naming_it() {
    let dir = tmpdir("nosuch-os");
    let out = loupe()
        .args(["sweep", "--os", "nosuch", "--db"])
        .arg(&dir)
        .output()
        .expect("spawn loupe");
    assert!(!out.status.success(), "unknown OS must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("nosuch"),
        "stderr names the unknown OS: {stderr}"
    );
    assert!(
        stderr.contains("os-list"),
        "stderr points at the discovery command: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_rejects_conflicting_os_flags_and_orphan_tier() {
    for args in [
        vec!["sweep", "--os", "kerla", "--all-os"],
        vec!["sweep", "--tier", "vanilla"],
        vec!["sweep", "--all-os", "--tier", "sideways"],
    ] {
        let out = loupe().args(&args).output().expect("spawn loupe");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(!out.stderr.is_empty());
    }
}

#[test]
fn gentests_requires_an_os_selection_and_rejects_conflicts() {
    for args in [
        vec!["gentests"],
        vec!["gentests", "--os", "kerla", "--all-os"],
        vec!["gentests", "--os", "nosuch"],
    ] {
        let out = loupe().args(&args).output().expect("spawn loupe");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(!out.stderr.is_empty());
    }
}

#[test]
fn gentests_generates_a_suite_then_check_mode_finds_it_fresh() {
    let dir = tmpdir("gentests-ok");
    let gen = |extra: &[&str]| {
        let mut cmd = loupe();
        cmd.args([
            "gentests",
            "--os",
            "kerla",
            "--workload",
            "health",
            "--app",
            "hello-musl-static",
            "--db",
        ])
        .arg(&dir)
        .args(extra);
        cmd.output().expect("spawn loupe")
    };

    let out = gen(&[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("1 generated"), "fresh suite: {stdout}");
    assert!(
        dir.join("gentests/kerla/health/hello-musl-static.json")
            .is_file(),
        "suite persisted under gentests/<os>/<workload>"
    );

    // A second run in check mode writes nothing and exits zero: the
    // stored suite is exactly what the generator emits today.
    let out = gen(&["--check"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "check mode on fresh suites: {stdout}");
    assert!(stdout.contains("0 stale"), "nothing stale: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// One measured cell to query: kerla x hello-musl-static x health.
fn seed_queryable_db(dir: &std::path::Path) {
    let out = loupe()
        .args([
            "sweep",
            "--os",
            "kerla",
            "--workload",
            "health",
            "--apps",
            "hello-musl-static",
            "--db",
        ])
        .arg(dir)
        .output()
        .expect("spawn loupe");
    assert!(
        out.status.success(),
        "seed sweep: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn query_offline_answers_verdicts_and_rejects_unknown_names() {
    let dir = tmpdir("query-offline");
    seed_queryable_db(&dir);

    let query = |extra: &[&str]| {
        let mut cmd = loupe();
        cmd.args(["query", "--offline", "--db"])
            .arg(&dir)
            .args(extra);
        cmd.output().expect("spawn loupe")
    };

    let out = query(&[
        "--os",
        "kerla",
        "--app",
        "hello-musl-static",
        "--workload",
        "health",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("hello-musl-static on kerla"),
        "verdict line: {stdout}"
    );

    // Unknown OS and app names exit non-zero, naming the offender.
    for (extra, offender) in [
        (
            ["--os", "atlantis", "--app", "hello-musl-static"].as_slice(),
            "atlantis",
        ),
        (["--os", "kerla", "--app", "doom"].as_slice(), "doom"),
        (
            [
                "--os",
                "kerla",
                "--app",
                "hello-musl-static",
                "--tier",
                "sideways",
            ]
            .as_slice(),
            "sideways",
        ),
    ] {
        let out = query(extra);
        assert!(!out.status.success(), "{extra:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(offender),
            "stderr names `{offender}`: {stderr}"
        );
    }

    // Modes: summary and missing resolve against the same db.
    let out = query(&["--summary"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("kerla"));
    let out = query(&["--missing", "--os", "kerla"]);
    assert!(out.status.success());

    // No mode and no os/app: usage error.
    let out = query(&[]);
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_daemon_answers_the_query_command() {
    use std::io::BufRead;

    let dir = tmpdir("serve-daemon");
    seed_queryable_db(&dir);

    let mut daemon = loupe()
        .args(["serve", "--addr", "127.0.0.1:0", "--db"])
        .arg(&dir)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let stdout = daemon.stdout.take().expect("daemon stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("daemon prints its address")
        .expect("readable stdout");
    let addr = first
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {first}"))
        .to_owned();

    let query = |extra: &[&str]| {
        let mut cmd = loupe();
        cmd.args(["query", "--addr", &addr]).args(extra);
        cmd.output().expect("spawn loupe")
    };

    let out = query(&[
        "--os",
        "kerla",
        "--app",
        "hello-musl-static",
        "--workload",
        "health",
        "--tier",
        "vanilla",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("hello-musl-static on kerla"),
        "verdict line: {stdout}"
    );

    let out = query(&["--os", "kerla", "--app", "doom"]);
    assert!(!out.status.success(), "unknown app over the wire fails");
    assert!(String::from_utf8_lossy(&out.stderr).contains("doom"));

    let out = query(&["--summary", "--json"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"ok\": true"));

    daemon.kill().ok();
    daemon.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn matrix_sweep_of_one_app_exits_zero_and_reports_rates() {
    let dir = tmpdir("matrix-ok");
    let out = loupe()
        .args([
            "sweep",
            "--os",
            "kerla",
            "--workload",
            "health",
            "--apps",
            "hello-musl-static",
            "--db",
        ])
        .arg(&dir)
        .output()
        .expect("spawn loupe");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stdout.contains("matrix:"),
        "matrix section printed: {stdout}"
    );
    assert!(stdout.contains("kerla"), "per-OS row printed: {stdout}");
    assert!(
        dir.join("env/kerla/matrix/hello-musl-static/health.json")
            .is_file(),
        "cell persisted under env/<os>/matrix"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_round_trips_the_vendored_kerla_table_and_rejects_corruption() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let table = repo.join("crates/plan/data/kerla_compatibility.md");
    let overrides = repo.join("crates/plan/data/kerla_overrides.txt");

    // Happy path: the vendored snapshot is canonical and matches the
    // curated spec, and the summary names the flag holes.
    let out = loupe()
        .arg("ingest")
        .arg("--from")
        .arg(&table)
        .args(["--os", "kerla", "--overrides"])
        .arg(&overrides)
        .arg("--check")
        .output()
        .expect("spawn loupe");
    assert!(
        out.status.success(),
        "vendored table must ingest cleanly: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("matches the curated spec"), "{stdout}");
    assert!(stdout.contains("fcntl:F_SETLK"), "{stdout}");

    // Corrupt tables exit non-zero with a row-numbered message.
    let text = std::fs::read_to_string(&table).unwrap();
    let corrupt = text.replace("| write ", "| wrlte ");
    assert_ne!(corrupt, text, "fixture edit must apply");
    let dir = tmpdir("ingest-corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.md");
    std::fs::write(&bad, corrupt).unwrap();
    let out = loupe()
        .arg("ingest")
        .arg("--from")
        .arg(&bad)
        .args(["--os", "broken"])
        .output()
        .expect("spawn loupe");
    assert!(!out.status.success(), "corrupt table must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line "), "row-numbered error: {stderr}");
    assert!(stderr.contains("wrlte"), "names the bad cell: {stderr}");

    // Missing --from is a usage error.
    let out = loupe().arg("ingest").output().expect("spawn loupe");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--from"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Every file under `dir`, with its bytes, by path.
fn tree(dir: &std::path::Path) -> std::collections::BTreeMap<PathBuf, Vec<u8>> {
    let mut files = std::collections::BTreeMap::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for entry in std::fs::read_dir(d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.insert(path.clone(), std::fs::read(path).unwrap());
            }
        }
    }
    files
}

#[test]
fn misspelt_flags_exit_nonzero_before_touching_db_or_docs() {
    let dir = tmpdir("misspelt-flag");
    let (db, docs) = (dir.join("db"), dir.join("docs"));
    let out = loupe()
        .args([
            "sweep",
            "--workload",
            "health",
            "--apps",
            "hello-musl-static",
            "--db",
        ])
        .arg(&db)
        .output()
        .expect("spawn loupe");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = loupe()
        .args(["report", "--db"])
        .arg(&db)
        .arg("--docs")
        .arg(&docs)
        .output()
        .expect("spawn loupe");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Drifted docs: `report` without `--check` would rewrite them.
    let page = docs.join("COMPATIBILITY.md");
    let mut text = std::fs::read_to_string(&page).unwrap();
    text.push_str("hand edit\n");
    std::fs::write(&page, text).unwrap();
    let (docs_before, db_before) = (tree(&docs), tree(&db));

    let misspelt: [&[&str]; 3] = [
        &["report", "--chek", "--docs"],
        &["compare", "--wrokers", "2", "--docs"],
        &["serve", "--wach-ms", "0", "--docs"],
    ];
    for args in misspelt {
        let out = loupe()
            .args(args)
            .arg(&docs)
            .arg("--db")
            .arg(&db)
            .output()
            .expect("spawn loupe");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr.contains(&format!("unknown flag `{}`", args[1])),
            "{stderr}"
        );
        assert_eq!(tree(&docs), docs_before, "{args:?} touched the docs");
        assert_eq!(tree(&db), db_before, "{args:?} touched the db");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_help_prints_its_flags_and_starts_nothing() {
    let mut child = loupe()
        .args(["serve", "--help"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn loupe");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            panic!("`loupe serve --help` is still running");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stdout = String::new();
    std::io::Read::read_to_string(&mut child.stdout.take().unwrap(), &mut stdout).unwrap();
    assert!(status.success(), "{stdout}");
    for flag in ["--db", "--addr", "--threads", "--watch-ms", "--eager"] {
        assert!(stdout.contains(flag), "{flag} missing from: {stdout}");
    }
    assert!(!stdout.contains("listening on"), "{stdout}");
}

#[test]
fn sweeping_commands_reject_unknown_flags_and_answer_help() {
    let dir = tmpdir("sweeping-flags");
    let db = dir.join("db");
    let out = loupe()
        .args([
            "gentests",
            "--os",
            "kerla",
            "--workload",
            "health",
            "--app",
            "hello-musl-static",
            "--db",
        ])
        .arg(&db)
        .output()
        .expect("spawn loupe");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let before = tree(&db);
    // `--chek` would turn the suite drift check into a regeneration.
    let misspelt: [&[&str]; 5] = [
        &["gentests", "--all-os", "--chek"],
        &["sweep", "--wrokers", "2"],
        &["statics", "--levle", "l0"],
        &["cache", "stats", "--all"],
        &["cache", "invalidate", "--ap", "redis"],
    ];
    for args in misspelt {
        let out = loupe()
            .args(args)
            .arg("--db")
            .arg(&db)
            .output()
            .expect("spawn loupe");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stderr.contains("unknown flag `--"), "{args:?}: {stderr}");
        assert_eq!(tree(&db), before, "{args:?} touched the db");
    }

    // Help is answered before the db is opened, so none is created.
    let fresh = dir.join("fresh");
    for (cmd, flags) in [
        ("sweep", &["--all-os", "--transfer", "--jobs"][..]),
        ("gentests", &["--check", "--out", "--jobs"][..]),
        ("statics", &["--level", "--explain"][..]),
        ("cache", &["cache stats", "cache invalidate", "--all"][..]),
    ] {
        let out = loupe()
            .args([cmd, "--help", "--db"])
            .arg(&fresh)
            .output()
            .expect("spawn loupe");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{cmd} --help: {stdout}");
        for flag in flags {
            assert!(stdout.contains(flag), "{flag} missing from: {stdout}");
        }
        assert!(!fresh.exists(), "{cmd} --help created the db");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every file under `dir` but `manifest.json`, with its bytes and
/// modification time.
fn stamped_tree(
    dir: &std::path::Path,
) -> std::collections::BTreeMap<PathBuf, (Vec<u8>, std::time::SystemTime)> {
    tree(dir)
        .into_iter()
        .filter(|(path, _)| path != &dir.join("manifest.json"))
        .map(|(path, bytes)| {
            let modified = std::fs::metadata(&path).unwrap().modified().unwrap();
            (path, (bytes, modified))
        })
        .collect()
}

/// An all-hit pipeline writes nothing but its counters: after the six
/// CI commands have run twice on a small fleet, a third run leaves
/// every file under the db but `manifest.json` with the same bytes and
/// modification time, and `manifest.json` holds only the counters.
#[test]
fn warm_pipeline_writes_nothing_but_its_counters() {
    let dir = tmpdir("warm-writes");
    let (db, docs) = (dir.join("db"), dir.join("docs"));
    let fleet = [
        "--workload",
        "health",
        "--apps",
        "nginx,redis,memcached,sqlite",
    ];
    let run = |args: &[&str]| {
        let out = loupe()
            .args(args)
            .arg("--db")
            .arg(&db)
            .output()
            .expect("spawn loupe");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let docs_arg = docs.to_str().unwrap();
    let pipeline = |first: bool| {
        run(&[
            &["sweep", "--transfer", "--static", "--validate-plans"][..],
            &fleet,
        ]
        .concat());
        run(&[&["sweep", "--all-os"][..], &fleet].concat());
        run(&[&["gentests", "--all-os"][..], &fleet].concat());
        run(&[&["gentests", "--all-os", "--check"][..], &fleet].concat());
        run(&["compare"]);
        if first {
            // Render the docs that `report --check` compares with.
            run(&["report", "--docs", docs_arg]);
        }
        run(&["report", "--check", "--docs", docs_arg]);
    };
    pipeline(true);
    pipeline(false);
    let before = stamped_tree(&db);
    // Past the filesystem's timestamp granularity, so a rewrite of
    // identical bytes shows as a new modification time.
    std::thread::sleep(std::time::Duration::from_millis(1100));
    pipeline(false);
    assert_eq!(stamped_tree(&db), before, "a warm pass wrote to the db");
    let manifest = std::fs::metadata(db.join("manifest.json")).unwrap();
    assert!(
        manifest.len() < 4096,
        "manifest.json is {} bytes",
        manifest.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
