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

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use loupe_apps::{registry, Workload};
use loupe_core::Fingerprint;
use loupe_db::{ns, store, Database};
use loupe_plan::os;
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
                    .recorded_output(namespace, &key)
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
