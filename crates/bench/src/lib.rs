//! Shared harness code for the experiment binaries (one per table/figure
//! of the paper) and the criterion benches.

use loupe_apps::{AppModel, Workload};
use loupe_core::{pool, AnalysisConfig, AppReport, Engine};
use loupe_plan::AppRequirement;

/// The engine configuration experiments use: single replica (the
/// simulator is deterministic), syscall granularity.
pub fn experiment_config() -> AnalysisConfig {
    AnalysisConfig::fast()
}

/// Analyses `apps` under `workload` on the worker pool (one worker per
/// CPU, capped at 16).
pub fn analyze_apps(apps: Vec<Box<dyn AppModel>>, workload: Workload) -> Vec<AppReport> {
    analyze_apps_with(apps, workload, experiment_config())
}

/// Analyses `apps` with an explicit configuration, sorted by app name.
/// An app that fails its baseline is skipped with a warning.
pub fn analyze_apps_with(
    apps: Vec<Box<dyn AppModel>>,
    workload: Workload,
    cfg: AnalysisConfig,
) -> Vec<AppReport> {
    let engine = Engine::new(cfg);
    let outcomes = pool::run_jobs(0, &apps, |app| engine.analyze(app.as_ref(), workload));
    let mut out = Vec::new();
    for (app, outcome) in apps.iter().zip(outcomes) {
        match outcome {
            Ok(Ok(report)) => out.push(report),
            Ok(Err(e)) => eprintln!("warning: skipping {}: {e}", app.name()),
            Err(panic) => panic!("analysis of {} panicked: {panic}", app.name()),
        }
    }
    out.sort_by(|a, b| a.app.cmp(&b.app));
    out
}

/// Planner requirements for a set of reports.
pub fn requirements(reports: &[AppReport]) -> Vec<AppRequirement> {
    reports.iter().map(AppRequirement::from_report).collect()
}

/// A deterministic "historical" (folder-creation) order for the Fig. 2
/// organic-development estimate: ordered by a name hash, standing in for
/// the OSv-apps git metadata.
pub fn historical_order(mut reqs: Vec<AppRequirement>) -> Vec<AppRequirement> {
    fn fnv(name: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
    reqs.sort_by_key(|r| fnv(&r.app));
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use loupe_apps::registry;

    #[test]
    fn parallel_analysis_covers_all_apps() {
        let apps: Vec<Box<dyn AppModel>> = registry::detailed().into_iter().take(4).collect();
        let names: Vec<String> = apps.iter().map(|a| a.name().to_owned()).collect();
        let reports = analyze_apps(apps, Workload::HealthCheck);
        assert_eq!(reports.len(), 4);
        for n in names {
            assert!(reports.iter().any(|r| r.app == n), "{n} missing");
        }
    }

    #[test]
    fn historical_order_is_deterministic_and_differs_from_alpha() {
        let reports = analyze_apps(
            registry::detailed().into_iter().take(5).collect(),
            Workload::HealthCheck,
        );
        let reqs = requirements(&reports);
        let a = historical_order(reqs.clone());
        let b = historical_order(reqs.clone());
        let order_a: Vec<_> = a.iter().map(|r| r.app.clone()).collect();
        let order_b: Vec<_> = b.iter().map(|r| r.app.clone()).collect();
        assert_eq!(order_a, order_b);
        let mut alpha: Vec<_> = order_a.clone();
        alpha.sort();
        assert_ne!(order_a, alpha, "hash order should differ from alphabetical");
    }
}
