//! End-to-end properties of the content-addressed incremental sweep
//! engine:
//!
//! 1. **Scoped invalidation** — mutating one OS profile invalidates
//!    exactly that OS's matrix and conformance cells. Every other
//!    cell is served from cache and its recorded output fingerprint is
//!    bit-for-bit unchanged, which proves the stored artifact itself
//!    was not rewritten.
//! 2. **Determinism** — the rendered OS matrix and conformance docs
//!    are byte-identical across worker counts (1, 2, 8) and across
//!    cold-vs-warm runs, so caching and work-stealing never leak into
//!    the generated documentation.
//! 3. **Gated outputs** — a warm `report::check` and
//!    `compare_output` decode no artifact, and every change to their
//!    inputs or to the docs on disk gives exactly what a full render
//!    gives.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use loupe_apps::{registry, Workload};
use loupe_core::{fingerprint_of, Fingerprint};
use loupe_db::{ns, store, Database};
use loupe_plan::{os, AppRequirement};
use loupe_sweep::report::Drift;
use loupe_sweep::{report, sweep_gentests, GentestsConfig, MatrixConfig, SweepConfig};
use loupe_syscalls::{Sysno, SysnoSet};
use proptest::prelude::*;

fn tmpdir(tag: &str, case: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "loupe-incremental-{tag}-{case}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn cfg(oses: Vec<loupe_plan::OsSpec>, workers: usize) -> GentestsConfig {
    GentestsConfig {
        matrix: MatrixConfig {
            oses,
            tier: None,
            sweep: SweepConfig {
                workloads: vec![Workload::HealthCheck],
                workers,
                ..SweepConfig::default()
            },
        },
        check: false,
    }
}

fn fleet() -> Vec<Box<dyn loupe_apps::AppModel>> {
    registry::detailed().into_iter().take(2).collect()
}

fn oses() -> Vec<loupe_plan::OsSpec> {
    vec![
        os::find("kerla").unwrap(),
        os::find("gvisor").unwrap(),
        os::find("fuchsia").unwrap(),
    ]
}

/// A database swept cold exactly once; property cases copy it instead
/// of re-running the engine 64 times.
fn master_db() -> &'static PathBuf {
    static MASTER: OnceLock<PathBuf> = OnceLock::new();
    MASTER.get_or_init(|| {
        let dir = tmpdir("master", 0);
        let db = Database::open(&dir).unwrap();
        let cold = sweep_gentests(&db, fleet(), &cfg(oses(), 2)).unwrap();
        assert!(cold.is_clean(), "{:?}", cold.disagreements);
        db.flush().unwrap();
        dir
    })
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// Every (matrix, suite) output fingerprint the manifest records for
/// the given OS/app/workload grid.
fn recorded_outputs(
    db: &Database,
    oses: &[loupe_plan::OsSpec],
    apps: &[String],
) -> BTreeMap<String, Fingerprint> {
    let mut out = BTreeMap::new();
    for spec in oses {
        for app in apps {
            for (namespace, key) in [
                (
                    ns::MATRIX,
                    loupe_db::matrix_key(&spec.name, app, Workload::HealthCheck),
                ),
                (
                    ns::SUITES,
                    loupe_db::suite_key(&spec.name, app, Workload::HealthCheck),
                ),
            ] {
                let fp = db
                    .record(namespace, &key)
                    .map(|rec| rec.output)
                    .unwrap_or_else(|| panic!("{namespace}/{key} has no recorded output"));
                out.insert(format!("{namespace}/{key}"), fp);
            }
        }
    }
    out
}

proptest! {
    /// Toggling one syscall in one curated OS profile re-derives
    /// exactly that OS's matrix and suite cells on the next sweep;
    /// every other cell is a cache hit whose recorded output
    /// fingerprint is unchanged.
    #[test]
    fn profile_edit_invalidates_exactly_that_os(
        os_idx in 0usize..3,
        sysno_raw in 0u32..330,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        prop_assume!(Sysno::from_raw(sysno_raw).is_some());
        let sysno = Sysno::from_raw(sysno_raw).unwrap();
        let oses = oses();
        let app_names: Vec<String> = fleet().iter().map(|a| a.name().to_owned()).collect();
        let (n_oses, n_apps) = (oses.len() as u64, app_names.len() as u64);
        let dir = tmpdir("invalidate", CASE.fetch_add(1, Ordering::Relaxed));
        copy_dir(master_db(), &dir);

        let before = {
            let db = Database::open(&dir).unwrap();
            recorded_outputs(&db, &oses, &app_names)
        };

        // Mutate exactly one profile: toggle one syscall in its
        // supported set.
        let mut mutated = oses.clone();
        let single: SysnoSet = [sysno].into_iter().collect();
        let supported = &mutated[os_idx].supported;
        mutated[os_idx].supported = if supported.contains(sysno) {
            supported.difference(&single)
        } else {
            supported.union(&single)
        };
        let edited_os = mutated[os_idx].name.clone();

        // Fresh handle so session counters cover only the re-sweep.
        let db = Database::open(&dir).unwrap();
        let warm = sweep_gentests(&db, fleet(), &cfg(mutated, 2)).unwrap();
        prop_assert!(warm.is_clean(), "{:?}", warm.disagreements);
        let stats = db.session_cache_stats();

        // Baselines untouched: pure hits.
        let base = stats.namespaces[ns::BASELINES];
        prop_assert_eq!((base.hits, base.misses, base.stale), (n_apps, 0, 0));
        // Matrix: only the edited OS's cells re-measured, as stale.
        let matrix = stats.namespaces[ns::MATRIX];
        prop_assert_eq!(
            (matrix.hits, matrix.misses, matrix.stale),
            ((n_oses - 1) * n_apps, 0, n_apps)
        );
        // Suites: same scoping (the OS fingerprint is an input).
        let suites = stats.namespaces[ns::SUITES];
        prop_assert_eq!(
            (suites.hits, suites.misses, suites.stale),
            ((n_oses - 1) * n_apps, 0, n_apps)
        );

        // The other OSes' artifacts are provably untouched: their
        // recorded output fingerprints are identical.
        let after = recorded_outputs(&db, &oses, &app_names);
        for (key, fp) in &before {
            // Both matrix (os/app/wl) and suite (os/wl/app) keys lead
            // with the OS name.
            let (_, rest) = key.split_once('/').unwrap();
            let os_of_key = rest.split('/').next().unwrap();
            if os_of_key == edited_os {
                continue;
            }
            prop_assert_eq!(
                after.get(key),
                Some(fp),
                "{} changed despite belonging to an unedited OS",
                key
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Cache hits are answered from the manifest alone: with every stored
/// baseline, static report and suite emptied and the binary index gone,
/// a warm sweep still hits every baseline, matrix cell, static report
/// and suite — a hit that read its artifact would fail on the empty
/// file — and summarises exactly what the cold sweep did.
#[test]
fn warm_hits_read_no_artifact() {
    let dir = tmpdir("manifest-only", 0);
    let apps = fleet().len();
    let oses = vec![os::find("kerla").unwrap(), os::find("gvisor").unwrap()];
    let cold = {
        let db = Database::open(&dir).unwrap();
        loupe_sweep::sweep_static(&db, fleet(), 2, false).unwrap();
        let cold = sweep_gentests(&db, fleet(), &cfg(oses.clone(), 2)).unwrap();
        assert!(cold.is_clean(), "{:?}", cold.disagreements);
        db.flush().unwrap();
        cold
    };
    for layout in [
        &store::BASELINES.layout,
        &store::STATIC.layout,
        &store::SUITES.layout,
    ] {
        for key in layout.walk(&dir).unwrap() {
            std::fs::write(dir.join(layout.path(&key)), b"").unwrap();
        }
    }
    std::fs::remove_dir_all(dir.join(store::INDEX_DIR)).ok();

    let db = Database::open(&dir).unwrap();
    let statics = loupe_sweep::sweep_static(&db, fleet(), 2, false).unwrap();
    assert_eq!((statics.analyzed, statics.cached), (0, 4 * apps));
    let warm = sweep_gentests(&db, fleet(), &cfg(oses, 2)).unwrap();
    assert_eq!((warm.base.analyzed, warm.base.cached), (0, apps));
    let matrix = warm.base.matrix.as_ref().unwrap();
    assert_eq!((matrix.analyzed, matrix.cached), (0, 2 * apps));
    assert_eq!((warm.generated, warm.cached), (0, 2 * apps));
    assert!(warm.is_clean());
    let counted = db.session_cache_stats().total();
    assert_eq!((counted.misses, counted.stale), (0, 0));
    // The same summaries as the cold sweep that measured everything.
    let answered = |summary: &loupe_sweep::SweepSummary| -> Vec<_> {
        summary
            .measurements
            .iter()
            .map(|m| (m.app.clone(), m.workload, m.record.clone()))
            .collect()
    };
    assert_eq!(answered(&warm.base), answered(&cold.base));
    assert_eq!(matrix.stats, cold.base.matrix.as_ref().unwrap().stats);
    assert_eq!(warm.stats, cold.stats);
    std::fs::remove_dir_all(&dir).ok();
}

/// A forced re-measure merges with the stored baseline, and the
/// fingerprints its record's meta carries (the matrix inputs) are those
/// of the merged report the database now serves, not of the fresh
/// measurement.
#[test]
fn forced_merge_records_the_stored_reports_fingerprints() {
    let dir = tmpdir("forced-meta", 0);
    let db = Database::open(&dir).unwrap();
    let sweep = |force| {
        let mut cfg = cfg(Vec::new(), 1).matrix.sweep;
        cfg.force = force;
        loupe_sweep::Sweep::new(cfg).run(&db, fleet()).unwrap()
    };
    sweep(false);
    let forced = sweep(true);
    assert_eq!(forced.analyzed, fleet().len());
    for m in &forced.measurements {
        let key = loupe_db::baseline_key(&m.app, m.workload);
        let stored = db.get(&store::BASELINES, &key).unwrap().unwrap();
        let record = db.record(ns::BASELINES, &key).unwrap();
        assert_eq!(&record, &m.record);
        let hex = |fp: Fingerprint| fp.to_hex();
        let requirement = fingerprint_of(&AppRequirement::from_report(&stored));
        let features = fingerprint_of(&stored.baseline.features);
        assert_eq!(record.output, fingerprint_of(&stored));
        assert_eq!(record.meta[store::REQUIREMENT_META], hex(requirement));
        assert_eq!(record.meta[store::FEATURES_META], hex(features));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The rendered docs are byte-identical across worker counts and
/// cold-vs-warm sweeps: scheduling and caching are invisible in the
/// output.
#[test]
fn rendered_docs_identical_across_workers_and_cache_state() {
    let mut renders: Vec<(String, String)> = Vec::new();
    for workers in [1usize, 2, 8] {
        let dir = tmpdir("determinism", workers);
        let cold_render = {
            let db = Database::open(&dir).unwrap();
            let cold = sweep_gentests(&db, fleet(), &cfg(os::db(), workers)).unwrap();
            assert!(cold.is_clean(), "{:?}", cold.disagreements);
            assert_eq!(cold.cached, 0, "cold run starts empty");
            (
                report::render_os_matrix(&db.load_all(&store::MATRIX).unwrap()),
                report::render_conformance(&db.load_all(&store::SUITES).unwrap()),
            )
        };
        // Warm run through a fresh handle: everything served from the
        // manifest + binary snapshot path.
        let db = Database::open(&dir).unwrap();
        let warm = sweep_gentests(&db, fleet(), &cfg(os::db(), workers)).unwrap();
        assert_eq!(warm.generated, 0, "warm run regenerates nothing");
        let warm_render = (
            report::render_os_matrix(&db.load_all(&store::MATRIX).unwrap()),
            report::render_conformance(&db.load_all(&store::SUITES).unwrap()),
        );
        assert_eq!(cold_render, warm_render, "cold vs warm render drifted");
        renders.push(warm_render);
        std::fs::remove_dir_all(&dir).ok();
    }
    let (m1, c1) = &renders[0];
    for (m, c) in &renders[1..] {
        assert_eq!(m1, m, "OS_MATRIX.md differs across worker counts");
        assert_eq!(c1, c, "CONFORMANCE.md differs across worker counts");
    }
}

/// A database holding every namespace the docs and `compare` read
/// (baselines, static reports, matrix cells, suites, plan validations),
/// and a docs directory `report::write` rendered from it.
fn rendered_db(tag: &str) -> (PathBuf, PathBuf) {
    let dir = tmpdir(tag, 0);
    let docs = tmpdir(&format!("{tag}-docs"), 0);
    let db = Database::open(&dir).unwrap();
    loupe_sweep::sweep_static(&db, fleet(), 2, false).unwrap();
    let suites = sweep_gentests(&db, fleet(), &cfg(oses(), 2)).unwrap();
    assert!(suites.is_clean(), "{:?}", suites.disagreements);
    loupe_sweep::validate_curated_plans(&db, &[Workload::HealthCheck]).unwrap();
    report::write(&db, &docs).unwrap();
    (dir, docs)
}

/// The drift a full render finds, computed here without the gate: what
/// `report::check` must report.
fn full_render_drift(db: &Database, docs: &Path) -> Vec<Drift> {
    let rendered = report::render(db).unwrap();
    let mut drift = Vec::new();
    for (rel, contents) in &rendered.files {
        match std::fs::read_to_string(docs.join(rel)) {
            Ok(on_disk) if on_disk == *contents => {}
            Ok(_) => drift.push(Drift::Stale(rel.clone())),
            Err(_) => drift.push(Drift::Missing(rel.clone())),
        }
    }
    let mut orphans: Vec<PathBuf> = std::fs::read_dir(docs.join("apps"))
        .unwrap()
        .map(|entry| PathBuf::from("apps").join(entry.unwrap().file_name()))
        .filter(|rel| rel.extension().is_some_and(|e| e == "md"))
        .filter(|rel| !rendered.files.iter().any(|(r, _)| r == rel))
        .collect();
    orphans.sort();
    drift.extend(orphans.into_iter().map(Drift::Orphaned));
    drift
}

/// `report::check`, asserted equal to a full render's drift.
fn checked(db: &Database, docs: &Path) -> Vec<Drift> {
    let gated = report::check(db, docs).unwrap();
    assert_eq!(gated, full_render_drift(db, docs));
    gated
}

fn rendered_counters(db: &Database) -> (u64, u64, u64) {
    let c = db
        .session_cache_stats()
        .namespaces
        .get(ns::RENDERED)
        .copied()
        .unwrap_or_default();
    (c.hits, c.misses, c.stale)
}

/// Warm gated outputs decode nothing: with every artifact they are
/// rendered from emptied and the binary index gone, a warm
/// `report::check` still finds the docs current, and `compare_output`
/// returns its recorded text byte for byte — a gate that decoded an
/// artifact would fail on the empty file.
#[test]
fn warm_gated_outputs_decode_nothing() {
    let (dir, docs) = rendered_db("rendered-decode-nothing");
    let compared = {
        let db = Database::open(&dir).unwrap();
        assert_eq!(report::check(&db, &docs).unwrap(), vec![]);
        let compared = loupe_sweep::compare_output(&db).unwrap();
        assert!(
            compared.stdout.contains("holds for every app"),
            "{compared:?}"
        );
        assert_eq!(
            rendered_counters(&db),
            (1, 1, 0),
            "docs hit, compare missed"
        );
        compared
    };
    for layout in [
        &store::BASELINES.layout,
        &store::PLANS.layout,
        &store::STATIC.layout,
        &store::MATRIX.layout,
        &store::SUITES.layout,
    ] {
        let keys = layout.walk(&dir).unwrap();
        assert!(!keys.is_empty(), "{} is populated", layout.name);
        for key in keys {
            std::fs::write(dir.join(layout.path(&key)), b"").unwrap();
        }
    }
    std::fs::remove_dir_all(dir.join(store::INDEX_DIR)).ok();

    let db = Database::open(&dir).unwrap();
    assert_eq!(report::check(&db, &docs).unwrap(), vec![]);
    assert_eq!(loupe_sweep::compare_output(&db).unwrap(), compared);
    assert_eq!(rendered_counters(&db), (2, 0, 0));
    assert!(report::render(&db).is_err(), "the artifacts are unreadable");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&docs).ok();
}

/// Gated outputs are sound: a changed docs byte, an orphaned page, a
/// matrix cell changed through the API and a static report changed
/// through the API each give exactly what a full render gives.
#[test]
fn gated_outputs_match_a_full_render() {
    let (dir, docs) = rendered_db("rendered-sound");
    let db = Database::open(&dir).unwrap();
    assert_eq!(checked(&db, &docs), vec![]);

    // One changed byte in one file: a gate hit whose files mismatch.
    let page = docs.join("OS_MATRIX.md");
    let good = std::fs::read(&page).unwrap();
    let mut bad = good.clone();
    bad[good.len() / 2] ^= 0x01;
    std::fs::write(&page, &bad).unwrap();
    assert_eq!(
        checked(&db, &docs),
        vec![Drift::Stale(PathBuf::from("OS_MATRIX.md"))]
    );
    std::fs::write(&page, &good).unwrap();

    // A page no app renders.
    let orphan = docs.join("apps").join("x.md");
    std::fs::write(&orphan, "# x\n").unwrap();
    assert_eq!(
        checked(&db, &docs),
        vec![Drift::Orphaned(PathBuf::from("apps/x.md"))]
    );
    std::fs::remove_file(&orphan).unwrap();
    assert_eq!(checked(&db, &docs), vec![]);
    assert_eq!(rendered_counters(&db).2, 0, "no input changed so far");

    // A matrix cell whose content changes: the gate is stale.
    let key = db.keys(&store::MATRIX).unwrap()[0].clone();
    let mut cell = db.get(&store::MATRIX, &key).unwrap().unwrap();
    let vanilla = cell.vanilla.as_mut().expect("both tiers swept");
    vanilla.pass = !vanilla.pass;
    db.put_replacing(&store::MATRIX, &cell).unwrap();
    let drift = checked(&db, &docs);
    assert!(
        drift.contains(&Drift::Stale(PathBuf::from("OS_MATRIX.md"))),
        "{drift:?}"
    );
    assert_eq!(
        rendered_counters(&db).2,
        1,
        "the matrix edit made the docs stale"
    );

    // A static report that breaks the containment chain: `compare`
    // renders afresh, CHAIN BROKEN lines and failing app included.
    let before = loupe_sweep::compare_output(&db).unwrap();
    assert!(before.failed.is_empty(), "{before:?}");
    let baseline = db.load_all(&store::BASELINES).unwrap().remove(0);
    let key = loupe_db::static_key(loupe_static::Level::L0, &baseline.app);
    let mut l0 = db.get(&store::STATIC, &key).unwrap().unwrap();
    let used = *baseline.traced.keys().next().unwrap();
    assert!(
        l0.syscalls.remove(used),
        "L0 attributes every traced syscall"
    );
    db.put(&store::STATIC, &l0).unwrap();
    let after = loupe_sweep::compare_output(&db).unwrap();
    let full = loupe_sweep::render_compare(&loupe_sweep::compare(&db).unwrap());
    assert_eq!(after, full);
    assert_eq!(after.failed, vec![baseline.app.clone()]);
    assert!(after.stderr.contains("CHAIN BROKEN"), "{after:?}");
    assert_eq!(loupe_sweep::compare_output(&db).unwrap(), full, "recorded");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&docs).ok();
}
