//! Criterion benches for the serve daemon: the cached single-verdict
//! roundtrip (the sub-millisecond target) and cold startup — with the
//! binary snapshot index present (one file read per namespace) vs the
//! JSON-per-file fallback.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Duration;

use loupe_apps::Workload;
use loupe_db::{store, Database};
use loupe_plan::{os, MatrixCell, TierOutcome};
use loupe_serve::{Client, Request, ServeConfig, Server};
use loupe_syscalls::SysnoSet;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("loupe-bench-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Fleet-scale synthetic corpus: 11 curated OSes x 64 app names x 2
/// workloads = 1408 cells (no measurement; serving is what's timed).
fn populate(dir: &PathBuf) {
    let db = Database::open(dir).expect("open db");
    let apps: Vec<String> = (0..64).map(|i| format!("app-{i:02}")).collect();
    for (i, spec) in os::db().iter().enumerate() {
        for (j, app) in apps.iter().enumerate() {
            for workload in [Workload::HealthCheck, Workload::Benchmark] {
                let pass = (i + j) % 2 == 0;
                db.put_replacing(
                    &store::MATRIX,
                    &MatrixCell {
                        os: spec.name.clone(),
                        app: app.clone(),
                        workload,
                        linux_pass: true,
                        missing_required: SysnoSet::new(),
                        vanilla: Some(TierOutcome {
                            pass,
                            ..TierOutcome::default()
                        }),
                        planned: Some(TierOutcome {
                            pass,
                            ..TierOutcome::default()
                        }),
                        missing_required_flags: Vec::new(),
                    },
                )
                .expect("seed cell");
            }
        }
    }
    db.flush().expect("flush");
}

/// One request/answer roundtrip over the wire, daemon batching on —
/// the hot path the sub-millisecond p50 target is about.
fn bench_cached_verdict(c: &mut Criterion) {
    let dir = tmp_dir("verdict");
    populate(&dir);
    let server = Server::start(
        &dir,
        ServeConfig {
            batch_window: Duration::from_micros(50),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let request = Request {
        cmd: "verdict".to_owned(),
        os: Some("kerla".to_owned()),
        app: Some("app-17".to_owned()),
        workload: Some("health".to_owned()),
        tier: Some("planned".to_owned()),
        ..Request::default()
    };

    let mut group = c.benchmark_group("serve-verdict");
    group.bench_function("cached-roundtrip", |b| {
        b.iter(|| {
            let response = client.request(&request).expect("verdict");
            assert!(response.ok);
            black_box(response.verdict)
        });
    });
    group.finish();
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Cold daemon startup: open the database, compile the sharded index,
/// bind. `snapshot` serves the matrix namespace from the binary index;
/// `json-fallback` has no index directory and decodes
/// every per-cell JSON file.
fn bench_startup(c: &mut Criterion) {
    let dir = tmp_dir("startup");
    populate(&dir);
    // Materialise the binary snapshots (written on first bulk load).
    Database::open(&dir)
        .and_then(|db| db.load_all(&store::MATRIX))
        .expect("materialise snapshot");
    assert!(dir.join("index").is_dir(), "snapshot index exists");

    let mut group = c.benchmark_group("serve-startup");
    group.sample_size(10);
    let start_once = |dir: &PathBuf| {
        let server = Server::start(
            dir,
            ServeConfig {
                // No watcher/batcher threads: startup cost only.
                batch_window: Duration::ZERO,
                watch_interval: Duration::ZERO,
                ..ServeConfig::default()
            },
        )
        .expect("start server");
        let cells = {
            let mut client = Client::connect(server.local_addr()).expect("connect");
            client.ping().expect("ping")
        };
        server.stop();
        cells
    };
    group.bench_function("snapshot", |b| {
        b.iter(|| black_box(start_once(&dir)));
    });

    let nosnap = tmp_dir("startup-nosnap");
    populate(&nosnap);
    std::fs::remove_dir_all(nosnap.join("index")).ok();
    group.bench_function("json-fallback", |b| {
        b.iter(|| {
            // The startup bulk load rewrites the snapshot; drop it so
            // every iteration pays the fallback path.
            std::fs::remove_dir_all(nosnap.join("index")).ok();
            black_box(start_once(&nosnap))
        });
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&nosnap).ok();
}

criterion_group!(benches, bench_cached_verdict, bench_startup);
criterion_main!(benches);
