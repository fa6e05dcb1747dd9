//! Property tests for the support-plan invariants: whatever the fleet's
//! measured requirements look like, a generated plan must cover every
//! app's needs by its unlock step, never schedule the same work twice,
//! grow its small-step fraction monotonically, and — on an OS that
//! implements everything — agree with `supported_by` and validate
//! empirically against the real application models.

use loupe_apps::{registry, Workload};
use loupe_plan::{OsSpec, PlanValidator, SupportPlan};
use loupe_syscalls::{Sysno, SysnoSet};
use proptest::prelude::*;

use loupe_plan::AppRequirement;

/// The sampling pool: every defined syscall number below 330 (dense
/// x86-64 range), so random sets overlap enough to exercise sharing.
fn pool() -> Vec<Sysno> {
    (0u32..330).filter_map(Sysno::from_raw).collect()
}

/// Builds one requirement from sampled indices; the three class sets are
/// made disjoint the same way the engine guarantees (a syscall has one
/// classification per app).
fn req(
    name: usize,
    required: &[usize],
    stubbable: &[usize],
    fake_only: &[usize],
) -> AppRequirement {
    let pool = pool();
    let pick = |idxs: &[usize]| -> SysnoSet { idxs.iter().map(|i| pool[i % pool.len()]).collect() };
    let required = pick(required);
    let stubbable = pick(stubbable).difference(&required);
    let fake_only = pick(fake_only).difference(&required).difference(&stubbable);
    AppRequirement {
        app: format!("app-{name}"),
        traced: required.union(&stubbable).union(&fake_only),
        required,
        stubbable,
        fake_only,
        ..AppRequirement::default()
    }
}

/// Samples a small fleet of requirements plus an OS support prefix.
fn fleet(seed: &[usize]) -> (OsSpec, Vec<AppRequirement>) {
    let pool = pool();
    let chunks: Vec<&[usize]> = seed.chunks(9).collect();
    let apps: Vec<AppRequirement> = chunks
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let (a, rest) = c.split_at(c.len() / 3);
            let (b, d) = rest.split_at(rest.len() / 2);
            req(i, a, b, d)
        })
        .collect();
    let os_size = seed.first().copied().unwrap_or(0) % pool.len();
    let supported: SysnoSet = pool.into_iter().take(os_size).collect();
    (OsSpec::new("prop-os", "1", supported), apps)
}

proptest! {
    #[test]
    fn unlock_steps_cover_every_need(seed in proptest::collection::vec(0usize..4000, 9..72)) {
        let (os, apps) = fleet(&seed);
        let plan = SupportPlan::generate(&os, &apps);

        // Replay the cumulative sets and check coverage at each unlock.
        let mut implemented = os.supported.clone();
        let mut stubbed = SysnoSet::new();
        let mut faked = SysnoSet::new();
        for step in &plan.steps {
            implemented.extend(step.implement.iter());
            stubbed.extend(step.stub.iter());
            faked.extend(step.fake.iter());
            let app = apps.iter().find(|a| a.app == step.unlocks).expect("unlocks a real app");
            prop_assert!(
                app.required.is_subset(&implemented),
                "step {}: required not fully implemented", step.index
            );
            // Every stubbable syscall is implemented or (explicitly or
            // implicitly) answered -ENOSYS; every fake-only syscall is
            // implemented or faked.
            for s in app.stubbable.iter() {
                prop_assert!(
                    implemented.contains(s) || stubbed.contains(s),
                    "step {}: stubbable {s} unscheduled", step.index
                );
            }
            for s in app.fake_only.iter() {
                prop_assert!(
                    implemented.contains(s) || faked.contains(s),
                    "step {}: fake-only {s} unshimmed", step.index
                );
            }
        }
        // Every app ends up either initially supported or unlocked.
        prop_assert_eq!(plan.initially_supported.len() + plan.steps.len(), apps.len());
    }

    #[test]
    fn no_work_is_scheduled_twice(seed in proptest::collection::vec(0usize..4000, 9..72)) {
        let (os, apps) = fleet(&seed);
        let plan = SupportPlan::generate(&os, &apps);
        let mut implemented = os.supported.clone();
        let mut stubbed = SysnoSet::new();
        let mut faked = SysnoSet::new();
        for step in &plan.steps {
            for s in step.implement.iter() {
                prop_assert!(implemented.insert(s), "{s} implemented twice");
            }
            for s in step.stub.iter() {
                prop_assert!(!implemented.contains(s), "{s} stubbed after implementing");
                prop_assert!(stubbed.insert(s), "{s} stubbed twice");
            }
            for s in step.fake.iter() {
                prop_assert!(!implemented.contains(s), "{s} faked after implementing");
                prop_assert!(faked.insert(s), "{s} faked twice");
            }
        }
    }

    #[test]
    fn small_step_fraction_is_monotone_in_k(seed in proptest::collection::vec(0usize..4000, 9..72)) {
        let (os, apps) = fleet(&seed);
        let plan = SupportPlan::generate(&os, &apps);
        let mut prev = 0.0f64;
        for k in 0..12 {
            let f = plan.small_step_fraction(k);
            prop_assert!(f >= prev, "fraction shrank at k={k}: {f} < {prev}");
            prop_assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        prop_assert_eq!(plan.small_step_fraction(usize::MAX), 1.0);
    }

    #[test]
    fn full_linux_plan_agrees_with_supported_by_and_validates(n in 1usize..8) {
        // On a spec implementing every syscall, supported_by is true for
        // every app, the plan is all step-0, and the empirical replay
        // (real app models on a restricted-but-complete kernel) agrees.
        let workload = Workload::HealthCheck;
        let engine = loupe_core::Engine::new(loupe_core::AnalysisConfig::fast());
        let reqs: Vec<AppRequirement> = registry::detailed()
            .into_iter()
            .take(n)
            .map(|app| {
                let report = engine.analyze(app.as_ref(), workload).unwrap();
                AppRequirement::from_report(&report)
            })
            .collect();
        let full: SysnoSet = Sysno::all().collect();
        let spec = OsSpec::new("linux-full", "all", full);
        for r in &reqs {
            prop_assert!(r.supported_by(&spec.supported));
        }
        let plan = SupportPlan::generate(&spec, &reqs);
        prop_assert!(plan.steps.is_empty());
        prop_assert_eq!(plan.initially_supported.len(), reqs.len());
        let validation = PlanValidator::new()
            .validate(&spec, &plan, &reqs, workload, registry::find)
            .unwrap();
        prop_assert!(validation.is_valid(), "{}", validation.to_table());
        prop_assert!(validation.initial.iter().all(|v| v.passes));
    }

    #[test]
    fn growing_a_kernel_profile_is_monotone_in_vanilla_passes(
        lo in 0usize..200,
        hi in 0usize..200,
    ) {
        // The matrix invariant behind "more syscalls, more apps": for
        // nested OS surfaces A ⊆ B, every app passing its vanilla tier
        // on A also passes on B — implementing a syscall can only turn
        // `-ENOSYS` answers into real behaviour, never break a passing
        // run. Surfaces are popularity-order prefixes, so random sizes
        // give nested profiles; checked by executing real app models.
        use loupe_core::exec::{run_app, ExecEnv};
        use loupe_core::TestScript;
        use loupe_kernel::KernelProfile;
        use loupe_plan::os::POPULARITY;

        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let mut seen = SysnoSet::new();
        let order: Vec<Sysno> = POPULARITY
            .iter()
            .filter_map(|n| Sysno::from_name(n))
            .filter(|s| seen.insert(*s))
            .collect();
        let small: SysnoSet = order.iter().take(lo).copied().collect();
        let large: SysnoSet = order.iter().take(hi).copied().collect();
        prop_assert!(small.is_subset(&large));

        let workload = Workload::HealthCheck;
        let script = TestScript::default();
        let mut passes = (0usize, 0usize);
        for app in registry::detailed().into_iter().take(6) {
            let run = |surface: &SysnoSet| {
                let env = ExecEnv::Restricted(Box::new(KernelProfile::new("prop", surface.clone())));
                let outcome = run_app(&env, app.as_ref(), workload);
                script.evaluate(&outcome, workload, None).success
            };
            let on_small = run(&small);
            let on_large = run(&large);
            prop_assert!(
                !on_small || on_large,
                "{}: passes on {} syscalls but fails on {}",
                app.name(),
                small.len(),
                large.len()
            );
            passes.0 += usize::from(on_small);
            passes.1 += usize::from(on_large);
        }
        prop_assert!(passes.0 <= passes.1, "pass count monotone: {passes:?}");
    }
}

/// Builds an arbitrary-but-valid compatibility table from sampled
/// indices: unique sysnos from the pool, one of the three statuses
/// each, release/notes cells with awkward-but-legal content.
fn arb_table(seed: &[usize]) -> loupe_plan::CompatTable {
    use loupe_plan::{CompatRow, CompatTable, SupportStatus};
    let pool = pool();
    let mut seen = SysnoSet::new();
    let rows: Vec<CompatRow> = seed
        .iter()
        .enumerate()
        .filter_map(|(i, &idx)| {
            let sysno = pool[idx % pool.len()];
            if !seen.insert(sysno) {
                return None;
            }
            let status = match idx % 3 {
                0 => SupportStatus::Full,
                1 => SupportStatus::Partially,
                _ => SupportStatus::Unimplemented,
            };
            Some(CompatRow {
                sysno,
                status,
                release: if idx % 2 == 0 {
                    format!("v{}.{}", i % 9, idx % 7)
                } else {
                    String::new()
                },
                notes: match idx % 4 {
                    0 => "works".to_owned(),
                    1 => format!("since build {idx}"),
                    _ => String::new(),
                },
            })
        })
        .collect();
    let mut rows = rows;
    rows.sort_by_key(|r| r.sysno.raw());
    CompatTable {
        preamble: "# Generated fixture\n\nArbitrary preamble text.\n\n".to_owned(),
        rows,
    }
}

proptest! {
    /// Tentpole round-trip at table granularity: rendering any valid
    /// table and parsing it back is the identity, and the rendered form
    /// is canonical (a second render changes nothing).
    #[test]
    fn ingest_parse_inverts_render_on_arbitrary_tables(
        seed in proptest::collection::vec(0usize..4000, 1..48),
    ) {
        use loupe_plan::CompatTable;
        let table = arb_table(&seed);
        let text = table.render();
        let back = CompatTable::parse(&text).expect("rendered tables parse");
        prop_assert_eq!(&back, &table);
        prop_assert_eq!(back.render(), text, "render is canonical");
    }

    /// And at spec granularity: an ingested spec survives the full
    /// markdown + overrides round trip (the invariant that lets the
    /// vendored kerla snapshot BE the curated spec).
    #[test]
    fn ingested_specs_survive_the_markdown_roundtrip(
        seed in proptest::collection::vec(0usize..4000, 1..48),
    ) {
        use loupe_plan::ingest::{overrides_for_spec, parse_overrides};
        use loupe_plan::CompatTable;
        let table = arb_table(&seed);
        let spec = table.to_spec("prop-os", "1", &[]).expect("valid tables ingest");
        let rendered = CompatTable::from_spec(&spec, "# Prop\n\n");
        let overrides = parse_overrides(&overrides_for_spec(&spec)).unwrap();
        let back = CompatTable::parse(&rendered.render())
            .unwrap()
            .to_spec("prop-os", "1", &overrides)
            .unwrap();
        prop_assert_eq!(back.supported, spec.supported);
        prop_assert_eq!(back.partial, spec.partial);
    }

    /// Flag-granular monotonicity: plugging a hole (flipping one flag
    /// from unsupported to fully supported) never turns a passing
    /// vanilla run into a failure, app by app, and never shrinks the
    /// fleet-wide vanilla pass count.
    #[test]
    fn plugging_a_flag_hole_is_monotone_in_vanilla_passes(which in 0usize..13) {
        use loupe_core::exec::{run_app, ExecEnv};
        use loupe_core::TestScript;
        use loupe_plan::{os, vanilla_profile};

        let spec = os::find("kerla").unwrap();
        let holes = spec.all_holes();
        let key = holes[which % holes.len()];
        let mut plugged_spec = spec.clone();
        plugged_spec.partial = spec
            .partial
            .iter()
            .map(|(s, ks)| {
                (*s, ks.iter().copied().filter(|k| *k != key).collect())
            })
            .collect();

        let workload = Workload::HealthCheck;
        let script = TestScript::default();
        let mut passes = (0usize, 0usize);
        for app in registry::detailed().into_iter().take(8) {
            let run = |spec: &loupe_plan::OsSpec| {
                let env = ExecEnv::Restricted(Box::new(vanilla_profile(spec)));
                let outcome = run_app(&env, app.as_ref(), workload);
                script.evaluate(&outcome, workload, None).success
            };
            let before = run(&spec);
            let after = run(&plugged_spec);
            prop_assert!(
                !before || after,
                "{}: passed with hole {key} open but fails with it plugged",
                app.name()
            );
            passes.0 += usize::from(before);
            passes.1 += usize::from(after);
        }
        prop_assert!(passes.0 <= passes.1);
    }

    /// The matrix ordering invariant survives flag granularity: on
    /// every hole-carrying curated OS, each measured cell's planned
    /// tier is at least its vanilla tier.
    #[test]
    fn planned_never_regresses_vanilla_on_hole_carrying_oses(n in 1usize..6) {
        use loupe_core::TestScript;
        use loupe_plan::{measure_cell, os, Tier};

        let workload = Workload::HealthCheck;
        let engine = loupe_core::Engine::new(loupe_core::AnalysisConfig::fast());
        let script = TestScript::default();
        let holey: Vec<_> = os::db()
            .into_iter()
            .filter(|s| !s.all_holes().is_empty())
            .collect();
        prop_assert!(holey.len() >= 7, "kerla + six curated hole sets");
        for app in registry::detailed().into_iter().take(n) {
            let rep = engine.analyze(app.as_ref(), workload).unwrap();
            let req = AppRequirement::from_report(&rep);
            for spec in &holey {
                let cell = measure_cell(
                    spec,
                    &req,
                    app.as_ref(),
                    workload,
                    true,
                    None,
                    &script,
                    Some(&rep.baseline.features),
                );
                prop_assert!(cell.invariants_hold());
                prop_assert!(
                    !cell.passes(Tier::Vanilla) || cell.passes(Tier::Planned),
                    "{} on {}: vanilla pass must imply planned pass",
                    app.name(),
                    spec.name
                );
            }
        }
    }
}
