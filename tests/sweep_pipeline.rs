//! End-to-end pipeline test for the population-scale subsystem: sweep
//! the *full* fleet concurrently, persist into a database, aggregate,
//! render the documentation set, and verify drift detection — the
//! workflow behind the checked-in `docs/COMPATIBILITY.md`.

use loupe::apps::{registry, Workload};
use loupe::db::{store, Database};
use loupe::sweep::{report, FleetStats, Sweep, SweepConfig};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("loupe-pipeline-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn health_sweep() -> Sweep {
    Sweep::new(SweepConfig {
        workloads: vec![Workload::HealthCheck],
        ..SweepConfig::default()
    })
}

#[test]
fn full_fleet_sweep_persists_and_renders() {
    let dir = tmpdir("full");
    let db = Database::open(&dir).unwrap();

    // Sweep the complete 116-app dataset concurrently.
    let summary = health_sweep().run(&db, registry::dataset()).unwrap();
    let reports = summary.reports(&db).unwrap();
    assert!(reports.len() >= 100, "fleet-scale sweep");
    assert_eq!(summary.analyzed, reports.len());
    assert!(summary.failures.is_empty(), "{:?}", summary.failures);

    // Every report is persisted and loadable.
    assert_eq!(db.keys(&store::BASELINES).unwrap().len(), reports.len());
    let stored = db.load_all(&store::BASELINES).unwrap();
    assert_eq!(stored, reports);

    // Aggregation reproduces the paper's headline shape: a compact
    // required core inside a much larger traced surface.
    let stats = FleetStats::aggregate(Workload::HealthCheck, &stored);
    assert_eq!(stats.apps, reports.len());
    assert!(stats.required_anywhere() < stats.rows.len());
    assert!(stats.importance.first().unwrap().importance >= 0.9);

    // Rendering covers the matrix, the support-plan book, one page per
    // app, and the per-app index.
    let rendered = report::render(&db).unwrap();
    assert_eq!(rendered.files.len(), reports.len() + 3);

    // Written docs pass the drift check; a tampered file fails it.
    let docs = dir.join("docs");
    report::write(&db, &docs).unwrap();
    assert!(report::check(&db, &docs).unwrap().is_empty());
    std::fs::write(docs.join("COMPATIBILITY.md"), "stale").unwrap();
    assert!(!report::check(&db, &docs).unwrap().is_empty());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn matrix_bytes_are_identical_across_sweep_configurations() {
    // Same fleet + same workload ⇒ byte-identical rendered matrix,
    // regardless of worker count or whether results came from cache.
    let apps = || -> Vec<_> { registry::detailed().into_iter().take(8).collect() };

    let dir_serial = tmpdir("bytes-serial");
    let db_serial = Database::open(&dir_serial).unwrap();
    Sweep::new(SweepConfig {
        workloads: vec![Workload::HealthCheck],
        workers: 1,
        ..SweepConfig::default()
    })
    .run(&db_serial, apps())
    .unwrap();

    let dir_parallel = tmpdir("bytes-parallel");
    let db_parallel = Database::open(&dir_parallel).unwrap();
    let sweep_parallel = Sweep::new(SweepConfig {
        workloads: vec![Workload::HealthCheck],
        workers: 8,
        ..SweepConfig::default()
    });
    sweep_parallel.run(&db_parallel, apps()).unwrap();
    // Re-run so the parallel db also serves from cache.
    sweep_parallel.run(&db_parallel, apps()).unwrap();

    let a = report::render(&db_serial).unwrap();
    let b = report::render(&db_parallel).unwrap();
    assert_eq!(a, b);

    std::fs::remove_dir_all(&dir_serial).ok();
    std::fs::remove_dir_all(&dir_parallel).ok();
}

#[test]
fn sharded_sweeps_compose_into_the_same_database_state() {
    // Two shard processes sharing one database must cover the fleet the
    // same way one whole-fleet sweep does.
    let dir_sharded = tmpdir("shard");
    let db_sharded = Database::open(&dir_sharded).unwrap();
    for i in 0..2 {
        let mut shard = registry::shard(i, 2);
        shard.truncate(10);
        health_sweep().run(&db_sharded, shard).unwrap();
    }

    let dir_whole = tmpdir("whole");
    let db_whole = Database::open(&dir_whole).unwrap();
    let mut apps: Vec<_> = Vec::new();
    for i in 0..2 {
        let mut shard = registry::shard(i, 2);
        shard.truncate(10);
        apps.extend(shard);
    }
    health_sweep().run(&db_whole, apps).unwrap();

    assert_eq!(
        db_sharded.load_all(&store::BASELINES).unwrap(),
        db_whole.load_all(&store::BASELINES).unwrap()
    );
    std::fs::remove_dir_all(&dir_sharded).ok();
    std::fs::remove_dir_all(&dir_whole).ok();
}
