//! Integration and property tests for the fleet × OS empirical
//! compatibility matrix: golden-snapshot determinism of the generated
//! `OS_MATRIX.md`, the per-OS tier invariants, failure isolation for
//! poisoned app models, and the aggregation's invariant preservation
//! over arbitrary cell populations.

use std::collections::BTreeMap;
use std::path::PathBuf;

use loupe_apps::{registry, AppModel, Workload};
use loupe_core::AnalysisConfig;
use loupe_db::{store, Database};
use loupe_plan::{os, MatrixCell, Tier, TierOutcome};
use loupe_sweep::{matrix, report, sweep_matrix, MatrixConfig, SweepConfig};
use proptest::prelude::*;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("loupe-matrix-int-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn all_os_cfg(workers: usize, jobs: usize) -> MatrixConfig {
    MatrixConfig {
        oses: os::db(),
        tier: None,
        sweep: SweepConfig {
            workloads: vec![Workload::HealthCheck],
            workers,
            analysis: AnalysisConfig {
                jobs,
                ..AnalysisConfig::fast()
            },
            ..SweepConfig::default()
        },
    }
}

fn rendered_matrix_doc(db: &Database) -> String {
    report::render(db)
        .unwrap()
        .files
        .into_iter()
        .find(|(p, _)| p.ends_with("OS_MATRIX.md"))
        .expect("OS_MATRIX.md rendered")
        .1
}

/// Golden-snapshot determinism: two `--all-os` matrix sweeps at
/// different worker and probe-scheduler (`--jobs`) counts must produce
/// byte-identical `OS_MATRIX.md` renderings — the drift-check pattern
/// extended to the new document.
#[test]
fn os_matrix_doc_is_byte_identical_across_scheduling() {
    let fleet = || -> Vec<_> { registry::detailed().into_iter().take(5).collect() };
    let dir_a = tmpdir("golden-a");
    let dir_b = tmpdir("golden-b");
    let db_a = Database::open(&dir_a).unwrap();
    let db_b = Database::open(&dir_b).unwrap();

    sweep_matrix(&db_a, fleet(), &all_os_cfg(1, 1)).unwrap();
    sweep_matrix(&db_b, fleet(), &all_os_cfg(6, 4)).unwrap();

    let doc_a = rendered_matrix_doc(&db_a);
    let doc_b = rendered_matrix_doc(&db_b);
    assert_eq!(doc_a, doc_b, "scheduling must never show in the matrix");
    assert!(doc_a.contains("## health-check workload"));
    for spec in os::db() {
        assert!(
            doc_a.contains(&format!("### {}", spec.name)),
            "{}",
            spec.name
        );
    }
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// Every per-OS row honours the tier ordering on the real fleet: works
/// with plan ≥ works out of the box, and nothing exceeds the full-Linux
/// reference — the acceptance invariant of the matrix.
#[test]
fn per_os_rates_are_tier_monotone_on_the_real_fleet() {
    let dir = tmpdir("tiers");
    let db = Database::open(&dir).unwrap();
    let fleet: Vec<_> = registry::detailed().into_iter().collect();
    let summary = sweep_matrix(&db, fleet, &all_os_cfg(0, 1)).unwrap();
    let stats = summary.matrix.unwrap().stats;
    assert_eq!(stats.len(), os::db().len());
    for row in &stats {
        assert!(
            row.vanilla_pass <= row.planned_pass,
            "{}: planned ({}) regressed below vanilla ({})",
            row.os,
            row.planned_pass,
            row.vanilla_pass
        );
        assert!(row.planned_pass <= row.linux_pass);
    }
    // The paper's point made empirical: somewhere in the fleet, cheap
    // stub/fake remediation unlocks apps no vanilla kernel runs.
    assert!(
        stats.iter().any(|r| r.plan_gain() > 0),
        "the plan tier must gain something somewhere: {stats:?}"
    );
    // And every stored cell honours its own invariants.
    for cell in db.load_all(&store::MATRIX).unwrap() {
        assert!(cell.invariants_hold(), "{}/{}", cell.os, cell.app);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An app model that fails its workload even on full Linux.
struct BrokenApp;

impl AppModel for BrokenApp {
    fn name(&self) -> &str {
        "broken-on-linux"
    }

    fn spec(&self) -> loupe_apps::AppSpec {
        loupe_apps::AppSpec {
            name: "broken-on-linux".into(),
            version: "0".into(),
            year: 2024,
            port: None,
            kind: loupe_apps::AppKind::Utility,
            libc: loupe_apps::libc::LibcFlavor::MuslStatic,
        }
    }

    fn run(
        &self,
        _env: &mut loupe_apps::Env<'_>,
        _workload: Workload,
    ) -> Result<(), loupe_apps::Exit> {
        Err(loupe_apps::Exit::Crash("always broken".into()))
    }

    fn code(&self) -> loupe_apps::AppCode {
        loupe_apps::AppCode::new()
    }
}

/// An app model whose `run` panics — PR 4's panic-isolation fixture.
struct PanickingApp;

impl AppModel for PanickingApp {
    fn name(&self) -> &str {
        "panicking-app"
    }

    fn spec(&self) -> loupe_apps::AppSpec {
        loupe_apps::AppSpec {
            name: "panicking-app".into(),
            version: "0".into(),
            year: 2024,
            port: None,
            kind: loupe_apps::AppKind::Utility,
            libc: loupe_apps::libc::LibcFlavor::MuslStatic,
        }
    }

    fn run(
        &self,
        _env: &mut loupe_apps::Env<'_>,
        _workload: Workload,
    ) -> Result<(), loupe_apps::Exit> {
        panic!("deliberate model bug");
    }

    fn code(&self) -> loupe_apps::AppCode {
        loupe_apps::AppCode::new()
    }
}

/// A poisoned app model becomes a per-app `SweepFailure` naming the app
/// while the rest of the matrix completes — and an app that fails on
/// full Linux never passes (or even enters) a restricted tier.
#[test]
fn poisoned_and_broken_models_fail_alone_not_the_matrix() {
    let dir = tmpdir("poisoned");
    let db = Database::open(&dir).unwrap();
    let mut fleet: Vec<Box<dyn AppModel>> = vec![Box::new(PanickingApp), Box::new(BrokenApp)];
    fleet.extend(registry::detailed().into_iter().take(3));

    let cfg = MatrixConfig {
        oses: vec![os::find("kerla").unwrap(), os::find("gvisor").unwrap()],
        ..all_os_cfg(2, 1)
    };
    let summary = sweep_matrix(&db, fleet, &cfg).unwrap();
    assert_eq!(summary.analyzed, 3, "healthy apps still measured");
    assert_eq!(summary.failures.len(), 2);
    assert!(summary
        .failures
        .iter()
        .any(|f| f.app == "panicking-app" && f.error.contains("deliberate model bug")));
    assert!(summary.failures.iter().any(|f| f.app == "broken-on-linux"));

    let matrix_section = summary.matrix.unwrap();
    assert_eq!(
        matrix_section.analyzed,
        2 * 3,
        "matrix covers exactly the healthy apps"
    );
    for cell in db.load_all(&store::MATRIX).unwrap() {
        assert_ne!(cell.app, "panicking-app");
        assert_ne!(cell.app, "broken-on-linux");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Builds a matrix cell the way `measure_cell` composes verdicts: tier
/// passes are gated on the Linux reference, and a vanilla pass is
/// inherited by the planned tier (no remediation needed).
fn synthetic_cell(
    os_idx: usize,
    app: usize,
    linux_pass: bool,
    vanilla_raw: bool,
    planned_raw: bool,
) -> MatrixCell {
    let oses = ["alpha", "beta", "gamma"];
    let vanilla_pass = linux_pass && vanilla_raw;
    let planned_pass = vanilla_pass || (linux_pass && planned_raw);
    MatrixCell {
        os: oses[os_idx % oses.len()].to_owned(),
        app: format!("app-{app}"),
        workload: Workload::HealthCheck,
        linux_pass,
        missing_required: loupe_syscalls::SysnoSet::new(),
        vanilla: Some(TierOutcome {
            pass: vanilla_pass,
            ..TierOutcome::default()
        }),
        planned: Some(TierOutcome {
            pass: planned_pass,
            ..TierOutcome::default()
        }),
        missing_required_flags: Vec::new(),
    }
}

proptest! {
    /// Whatever the cell population looks like, as long as each cell was
    /// composed the way measurement composes tiers, aggregation reports
    /// planned ≥ vanilla and linux ≥ planned for every (os, workload)
    /// row, and apps broken on Linux are never credited to any tier.
    #[test]
    fn aggregation_preserves_tier_invariants(
        seed in proptest::collection::vec(0usize..64, 3..40)
    ) {
        let cells: Vec<MatrixCell> = seed
            .iter()
            .enumerate()
            .map(|(i, &bits)| {
                synthetic_cell(bits % 3, i, bits & 4 != 0, bits & 8 != 0, bits & 16 != 0)
            })
            .collect();
        for cell in &cells {
            prop_assert!(cell.invariants_hold(), "{cell:?}");
        }
        let sizes: BTreeMap<String, usize> =
            [("alpha", 10), ("beta", 20), ("gamma", 30)]
                .into_iter()
                .map(|(n, s)| (n.to_owned(), s))
                .collect();
        let stats = matrix::aggregate(&cells, &sizes);
        let measured: usize = stats.iter().map(|r| r.apps).sum();
        prop_assert_eq!(measured, cells.len(), "every cell lands in one row");
        for row in &stats {
            prop_assert!(row.vanilla_pass <= row.planned_pass, "{row:?}");
            prop_assert!(row.planned_pass <= row.linux_pass, "{row:?}");
            prop_assert!(row.linux_pass <= row.apps, "{row:?}");
            prop_assert!(row.vanilla_rate() <= row.planned_rate());
            prop_assert_eq!(row.plan_gain(), row.planned_pass - row.vanilla_pass);
        }
        // Tier::ALL covers exactly the two remediation tiers.
        prop_assert_eq!(Tier::ALL.len(), 2);
    }
}
