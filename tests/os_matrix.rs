//! End-to-end checks for the fleet × OS matrix layer through the facade
//! crate: the restricted kernel's boundary counters must survive into
//! the engine's `AppReport` (they used to die with the kernel), and the
//! full pipeline — baselines, matrix cells, rendered doc — must agree
//! about kerla.

use loupe::apps::{registry, Workload};
use loupe::core::{AnalysisConfig, Engine, ExecEnv};
use loupe::kernel::KernelProfile;
use loupe::plan::{os, AppRequirement};

/// Satellite regression: an engine analysis hosted on a kerla-derived
/// profile surfaces nonzero rejection counters (and, where the plan
/// fakes anything, fake-hit counters) in the report itself.
#[test]
fn kerla_profile_run_of_redis_surfaces_boundary_counters() {
    let workload = Workload::HealthCheck;
    let engine = Engine::new(AnalysisConfig::fast());
    let redis = registry::find("redis").unwrap();

    // A Linux measurement derives redis's plan guidance...
    let baseline = engine.analyze(redis.as_ref(), workload).unwrap();
    assert!(
        baseline.rejections.is_empty() && baseline.first_rejection.is_none(),
        "Linux rejects nothing"
    );
    let req = AppRequirement::from_report(&baseline);

    // ...which turns kerla into the "mid-plan" profile of redis's unlock
    // step: kerla's surface plus redis's required set implemented, the
    // stubbable classes deliberately `-ENOSYS`, the fake-only classes
    // shimmed. The baseline passes there, so a full analysis runs.
    let kerla = os::find("kerla").unwrap();
    let mut profile =
        KernelProfile::new("kerla @ redis unlock", kerla.supported.union(&req.required));
    profile.stubbed = req.stubbable.difference(&profile.implemented);
    profile.faked = req.fake_only.difference(&profile.implemented);
    let has_fakes = !profile.faked.is_empty();

    let report = Engine::new(AnalysisConfig {
        exec_env: ExecEnv::Restricted(Box::new(profile)),
        ..AnalysisConfig::fast()
    })
    .analyze(redis.as_ref(), workload)
    .expect("redis passes at its unlock step");

    assert_eq!(report.env, "kerla @ redis unlock");
    assert!(
        !report.rejections.is_empty(),
        "stubbed syscalls must be rejected at the boundary: {report:?}"
    );
    assert!(report.rejections.values().all(|&n| n > 0));
    let first = report.first_rejection.expect("a first rejection is named");
    assert!(
        report.rejections.contains_key(&first),
        "the first rejection is one of the counted ones"
    );
    if has_fakes {
        assert!(
            !report.fake_hits.is_empty(),
            "fake shims in the profile must be exercised"
        );
    }
    // The counters survive persistence too.
    let json = serde_json::to_string(&report).unwrap();
    let back: loupe::core::AppReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.rejections, report.rejections);
    assert_eq!(back.first_rejection, report.first_rejection);
}

/// The matrix verdicts agree with the validated plan book: kerla's
/// vanilla tier runs almost nothing of the detailed fleet, the planned
/// tier never regresses, and a full-surface OS runs everything.
#[test]
fn matrix_cells_bracket_kerla_between_bare_and_full() {
    use loupe::core::TestScript;
    use loupe::plan::{measure_cell, OsSpec, Tier};
    use loupe::syscalls::Sysno;

    let workload = Workload::HealthCheck;
    let engine = Engine::new(AnalysisConfig::fast());
    let kerla = os::find("kerla").unwrap();
    let full = OsSpec::new("everything", "1", Sysno::all().collect());
    let script = TestScript::default();

    let mut kerla_vanilla = 0;
    let mut kerla_planned = 0;
    let mut full_vanilla = 0;
    let apps: Vec<_> = registry::detailed().into_iter().take(6).collect();
    for app in &apps {
        let report = engine.analyze(app.as_ref(), workload).unwrap();
        let req = AppRequirement::from_report(&report);
        let on_kerla = measure_cell(
            &kerla,
            &req,
            app.as_ref(),
            workload,
            true,
            None,
            &script,
            None,
        );
        let on_full = measure_cell(
            &full,
            &req,
            app.as_ref(),
            workload,
            true,
            None,
            &script,
            None,
        );
        assert!(on_kerla.invariants_hold() && on_full.invariants_hold());
        kerla_vanilla += usize::from(on_kerla.passes(Tier::Vanilla));
        kerla_planned += usize::from(on_kerla.passes(Tier::Planned));
        full_vanilla += usize::from(on_full.passes(Tier::Vanilla));
        if !on_kerla.passes(Tier::Planned) {
            assert!(
                !on_kerla.missing_required.is_empty(),
                "{}: a blocked app names its analytical gap",
                app.name()
            );
        }
    }
    assert!(kerla_vanilla <= kerla_planned);
    assert_eq!(full_vanilla, apps.len(), "full surface runs everything");
    assert!(
        kerla_planned < full_vanilla,
        "kerla's 58 syscalls + shims cannot run the whole detailed fleet"
    );
}

/// Satellite regression for the partial-fidelity PR: the curated
/// per-flag holes cost each OS a *recorded* number of out-of-the-box
/// passes. The pinned values are the "after" column of the before/after
/// table in `docs/KNOWN_ISSUES.md` — if you touch a curated hole set,
/// this test, the sweep-regenerated docs and that table must move
/// together.
#[test]
fn curated_flag_holes_drop_vanilla_rates_as_recorded() {
    use loupe::core::TestScript;
    use loupe::plan::{measure_cell, Tier};

    // (os, benchmark, health-check, test-suite) out-of-the-box passes
    // over the full 116-app fleet.
    let pinned = [
        ("gvisor", 91, 91, 90),
        ("linuxulator", 91, 91, 91),
        ("gramine", 48, 48, 48),
        ("unikraft", 34, 34, 33),
        ("fuchsia", 22, 22, 22),
        ("osv", 6, 6, 6),
    ];
    let engine = Engine::new(AnalysisConfig::fast());
    let script = TestScript::default();
    let apps = registry::dataset();
    for workload in [
        Workload::Benchmark,
        Workload::HealthCheck,
        Workload::TestSuite,
    ] {
        let reqs: Vec<(usize, loupe::core::AppReport)> = apps
            .iter()
            .enumerate()
            .map(|(i, app)| (i, engine.analyze(app.as_ref(), workload).unwrap()))
            .collect();
        for (os_name, bench, health, suite) in pinned {
            let spec = os::find(os_name).unwrap();
            assert!(
                !spec.all_holes().is_empty(),
                "{os_name} carries curated holes"
            );
            let expected = match workload {
                Workload::Benchmark => bench,
                Workload::HealthCheck => health,
                Workload::TestSuite => suite,
            };
            let mut vanilla = 0;
            for (i, rep) in &reqs {
                let req = AppRequirement::from_report(rep);
                let cell = measure_cell(
                    &spec,
                    &req,
                    apps[*i].as_ref(),
                    workload,
                    true,
                    None,
                    &script,
                    Some(&rep.baseline.features),
                );
                vanilla += usize::from(cell.passes(Tier::Vanilla));
            }
            assert_eq!(
                vanilla,
                expected,
                "{os_name} out-of-the-box passes moved ({} workload); \
                 update docs/KNOWN_ISSUES.md's before/after table too",
                workload.label()
            );
        }
    }
}
