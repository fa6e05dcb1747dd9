//! Figure 4: number of syscalls identified per analysis method — static
//! source, static binary, and dynamic (traced / stubbable / fakeable /
//! either / required) — for the seven deep-dive applications, under both
//! benchmark and test-suite workloads.
//!
//! Regenerate with `cargo run -p loupe-bench --bin fig4`.

use loupe_apps::{registry, Workload};
use loupe_core::{AnalysisConfig, Engine};
use loupe_static::{GraphAnalyzer, Level, StaticAnalyzer};

const APPS: &[&str] = &[
    "redis",
    "nginx",
    "memcached",
    "sqlite",
    "haproxy",
    "lighttpd",
    "weborf",
];

fn main() {
    println!("# Figure 4 — syscalls per analysis method (7 apps)\n");
    println!("app,workload,static_source,static_binary,dyn_traced,dyn_stubbable,dyn_fakeable,dyn_any,dyn_required");
    let engine = Engine::new(AnalysisConfig::fast());
    let src = GraphAnalyzer::new(Level::L3);
    let bin = GraphAnalyzer::new(Level::L0);

    for name in APPS {
        let app = registry::find(name).expect("deep-dive app");
        let s = src.analyze(app.as_ref()).syscalls.len();
        let b = bin.analyze(app.as_ref()).syscalls.len();
        for workload in [Workload::Benchmark, Workload::TestSuite] {
            let report = engine
                .analyze(app.as_ref(), workload)
                .expect("baseline passes");
            let traced = report.traced().len();
            let required = report.required().len();
            let stub = report.stubbable().len();
            let fake = report.fakeable().len();
            let any = report.avoidable().len();
            println!("{name},{workload},{s},{b},{traced},{stub},{fake},{any},{required}");
            assert!(required <= traced && traced <= b, "{name} ordering");
        }
    }
    println!("\nPaper shape: static binary > static source > dyn traced > dyn required;");
    println!("required ~= 20 for benchmarks, 20-40 for suites; 46-60% of traced");
    println!("syscalls are stubbable/fakeable.");
}
