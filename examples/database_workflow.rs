//! The shared-database workflow (§3.3: "Sharing Loupe Results"): measure
//! once, persist, then let anyone regenerate plans from stored results —
//! including conservative merging of repeated measurements.
//!
//! ```sh
//! cargo run --example database_workflow
//! ```

use loupe::apps::{registry, Workload};
use loupe::core::{AnalysisConfig, Engine};
use loupe::db::{baseline_key, store, Database};
use loupe::plan::{os, AppRequirement, SupportPlan};

fn main() {
    let dir = std::env::temp_dir().join("loupedb-example");
    std::fs::remove_dir_all(&dir).ok();
    let db = Database::open(&dir).expect("open database");

    // Contributor A measures three applications and uploads the results.
    let engine = Engine::new(AnalysisConfig::fast());
    for name in ["weborf", "webfsd", "lighttpd"] {
        let app = registry::find(name).unwrap();
        let report = engine
            .analyze(app.as_ref(), Workload::Benchmark)
            .expect("baseline passes");
        db.put(&store::BASELINES, &report).expect("store");
        println!(
            "uploaded {name}: {} traced, {} required",
            report.traced().len(),
            report.required().len()
        );
    }

    // Contributor B re-measures one app (results merge conservatively).
    let app = registry::find("weborf").unwrap();
    let again = engine.analyze(app.as_ref(), Workload::Benchmark).unwrap();
    db.put(&store::BASELINES, &again).expect("merge");
    let merged = db
        .get(
            &store::BASELINES,
            &baseline_key("weborf", Workload::Benchmark),
        )
        .unwrap()
        .unwrap();
    println!(
        "weborf after second upload: counts doubled to {} total invocations",
        merged.traced.values().sum::<u64>()
    );

    // An OS developer pulls requirements straight from the database —
    // no re-measurement cost — and plans their next steps.
    let reqs: Vec<AppRequirement> = db
        .load_all(&store::BASELINES)
        .expect("load all")
        .iter()
        .map(AppRequirement::from_report)
        .collect();
    let kerla = os::find("kerla").unwrap();
    let plan = SupportPlan::generate(&kerla, &reqs);
    println!(
        "\nplan for kerla from shared measurements:\n{}",
        plan.to_table()
    );

    // The database also carries OS support specs in the paper's CSV form.
    let path = db.save_os_spec(&kerla).expect("export csv");
    println!("kerla support spec exported to {}", path.display());
    std::fs::remove_dir_all(&dir).ok();
}
