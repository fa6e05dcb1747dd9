//! Figure 5: which syscalls each analysis method reports, as the
//! percentage of the seven deep-dive applications (benchmark workloads)
//! that include each syscall — four panels: static binary, static source,
//! dynamic traced, Loupe required.
//!
//! Regenerate with `cargo run -p loupe-bench --bin fig5`.

use loupe_apps::{registry, Workload};
use loupe_core::{AnalysisConfig, Engine};
use loupe_static::{GraphAnalyzer, Level, StaticAnalyzer};
use loupe_syscalls::SysnoSet;

const APPS: &[&str] = &[
    "redis",
    "nginx",
    "memcached",
    "sqlite",
    "haproxy",
    "lighttpd",
    "weborf",
];

fn panel(title: &str, sets: &[SysnoSet]) {
    let points = loupe_plan::api_importance(sets);
    println!("## {title} — {} distinct syscalls", points.len());
    for p in &points {
        println!(
            "{:>3} {:<22} {:>5.1}%",
            p.sysno.raw(),
            p.sysno.name(),
            p.importance * 100.0
        );
    }
    println!();
}

fn main() {
    println!("# Figure 5 — syscalls identified per method (7 apps, bench)\n");
    let engine = Engine::new(AnalysisConfig::fast());
    let mut binary = Vec::new();
    let mut source = Vec::new();
    let mut traced = Vec::new();
    let mut required = Vec::new();
    for name in APPS {
        let app = registry::find(name).expect("deep-dive app");
        binary.push(GraphAnalyzer::new(Level::L0).analyze(app.as_ref()).syscalls);
        source.push(GraphAnalyzer::new(Level::L3).analyze(app.as_ref()).syscalls);
        let report = engine
            .analyze(app.as_ref(), Workload::Benchmark)
            .expect("baseline passes");
        traced.push(report.traced());
        required.push(report.required());
    }
    panel("(a) static analysis, binary level", &binary);
    panel("(b) static analysis, source level", &source);
    panel("(c) dynamic analysis, traced", &traced);
    panel("(d) Loupe dynamic analysis, required", &required);
    println!("Paper shape: each panel is a strict shrinkage of the previous;");
    println!("the required panel concentrates on fundamental services (§5.2).");
}
