//! Smoke tests pinning the paper's headline claims, as reproduced by this
//! codebase. These are the assertions EXPERIMENTS.md reports; failures
//! here mean an experiment's *shape* regressed.

use loupe::apps::{registry, Workload};
use loupe::core::{AnalysisConfig, Engine};
use loupe::plan::savings::{loupe_curve, naive_curve, organic_curve};
use loupe::plan::{os, AppRequirement, SupportPlan};

fn requirements(names: &[&str], workload: Workload) -> Vec<AppRequirement> {
    let engine = Engine::new(AnalysisConfig::fast());
    names
        .iter()
        .map(|n| {
            let app = registry::find(n).expect(n);
            AppRequirement::from_report(&engine.analyze(app.as_ref(), workload).unwrap())
        })
        .collect()
}

#[test]
fn headline_half_of_invoked_syscalls_are_avoidable() {
    // §1: "more than half of the system calls invoked by Redis running
    // the redis-benchmark can be stubbed or faked".
    let engine = Engine::new(AnalysisConfig::fast());
    let app = registry::find("redis").unwrap();
    let report = engine.analyze(app.as_ref(), Workload::Benchmark).unwrap();
    assert!(report.avoidable().len() * 2 >= report.traced().len());
}

#[test]
fn plans_scale_inversely_with_os_maturity() {
    // Table 1: Unikraft needs few steps, Kerla needs many, for the same
    // target applications.
    let reqs = requirements(
        &[
            "nginx",
            "redis",
            "memcached",
            "sqlite",
            "lighttpd",
            "weborf",
            "webfsd",
            "h2o",
        ],
        Workload::Benchmark,
    );
    let unikraft = SupportPlan::generate(&os::find("unikraft").unwrap(), &reqs);
    let kerla = SupportPlan::generate(&os::find("kerla").unwrap(), &reqs);
    assert!(
        unikraft.steps.len() < kerla.steps.len(),
        "unikraft {} !< kerla {}",
        unikraft.steps.len(),
        kerla.steps.len()
    );
    assert!(unikraft.initially_supported.len() > kerla.initially_supported.len());
    // ">80% of steps require implementing 1-3 system calls".
    assert!(kerla.small_step_fraction(3) > 0.8);
}

#[test]
fn loupe_beats_organic_beats_naive() {
    // Fig. 2 ordering, on a 16-app slice.
    let names: Vec<&str> = vec![
        "nginx",
        "redis",
        "memcached",
        "sqlite",
        "haproxy",
        "lighttpd",
        "weborf",
        "webfsd",
        "h2o",
        "httpd",
        "mongodb",
        "iperf3",
        "postgres",
        "etcd",
        "varnish",
        "dnsmasq",
    ];
    let reqs = requirements(&names, Workload::HealthCheck);
    let half = reqs.len() / 2;
    let loupe = loupe_curve(&reqs).cost_to_support(half).unwrap();
    let organic = organic_curve(&reqs).cost_to_support(half).unwrap();
    let naive = naive_curve(&reqs).cost_to_support(half).unwrap();
    assert!(loupe <= organic, "{loupe} !<= {organic}");
    assert!(organic < naive, "{organic} !< {naive}");
    // The paper's strongest ratio claim: naive dynamic analysis costs
    // several times the Loupe plan.
    assert!(naive as f64 / loupe as f64 > 2.0);
}

#[test]
fn libc_floor_matches_table4_exactly() {
    use loupe::core::{Interposed, Policy};
    use loupe::kernel::LinuxSim;
    let expect = [
        ("hello-glibc-dynamic", 13usize, 28u64),
        ("hello-glibc-static", 8, 11),
        ("hello-musl-dynamic", 9, 11),
        ("hello-musl-static", 6, 6),
    ];
    for (name, distinct, invocations) in expect {
        let app = registry::find(name).unwrap();
        let mut sim = LinuxSim::new();
        app.provision(&mut sim);
        let mut kernel = Interposed::new(sim, Policy::allow_all());
        {
            let mut env = loupe::apps::Env::new(&mut kernel);
            app.run(&mut env, Workload::HealthCheck).unwrap();
            let _ = env.finish(loupe::apps::Exit::Clean);
        }
        let (_, trace) = kernel.into_parts();
        assert_eq!(trace.syscalls.len(), distinct, "{name} distinct");
        assert_eq!(trace.total_invocations(), invocations, "{name} invocations");
    }
}

#[test]
fn syscall_usage_is_stable_across_releases() {
    // Fig. 8: old and new releases differ by only a handful of syscalls.
    let engine = Engine::new(AnalysisConfig::fast());
    for (old, new) in [
        ("nginx-0.3.19", "nginx"),
        ("redis-2.0", "redis"),
        ("httpd-2.2", "httpd"),
    ] {
        let o = engine
            .analyze(registry::find(old).unwrap().as_ref(), Workload::Benchmark)
            .unwrap();
        let n = engine
            .analyze(registry::find(new).unwrap().as_ref(), Workload::Benchmark)
            .unwrap();
        let delta = (o.traced().len() as i64 - n.traced().len() as i64).abs();
        assert!(delta <= 8, "{old}->{new}: traced delta {delta}");
        let req_delta = (o.required().len() as i64 - n.required().len() as i64).abs();
        assert!(req_delta <= 3, "{old}->{new}: required delta {req_delta}");
    }
}

#[test]
fn table2_signature_effects_hold() {
    use loupe::syscalls::Sysno;
    let engine = Engine::new(AnalysisConfig::fast());

    // Nginx: write stub speeds it up; rt_sigsuspend stub slows it down.
    let nginx = engine
        .analyze(
            registry::find("nginx").unwrap().as_ref(),
            Workload::Benchmark,
        )
        .unwrap();
    let write = nginx.impacts[&Sysno::write].stub.unwrap();
    assert!(write.success && write.perf_delta > 0.05, "{:?}", write);
    let susp = nginx.impacts[&Sysno::rt_sigsuspend].stub.unwrap();
    assert!(susp.success && susp.perf_delta < -0.2, "{:?}", susp);
    let clone = nginx.impacts[&Sysno::clone].fake.unwrap();
    assert!(clone.success && clone.rss_delta > 0.03, "{:?}", clone);

    // iPerf3: brk stub costs memory, nothing else moves much.
    let iperf = engine
        .analyze(
            registry::find("iperf3").unwrap().as_ref(),
            Workload::Benchmark,
        )
        .unwrap();
    let brk = iperf.impacts[&Sysno::brk].stub.unwrap();
    assert!(brk.success && brk.rss_delta > 0.03, "{:?}", brk);
}

#[test]
fn static_analysis_overestimates_by_the_papers_factors() {
    // §1: "only as few as 20% of system calls reported by static analysis,
    // and 50% of those reported by naive dynamic analysis need an
    // implementation".
    use loupe::statics::{GraphAnalyzer, Level, StaticAnalyzer};
    let engine = Engine::new(AnalysisConfig::fast());
    for name in ["redis", "nginx", "memcached"] {
        let app = registry::find(name).unwrap();
        let report = engine.analyze(app.as_ref(), Workload::Benchmark).unwrap();
        let binary = GraphAnalyzer::new(Level::L0)
            .analyze(app.as_ref())
            .syscalls
            .len();
        let traced = report.traced().len();
        let required = report.required().len();
        assert!(
            (required as f64) < binary as f64 * 0.2,
            "{name}: required {required} !< 20% of static {binary}"
        );
        assert!(
            (required as f64) <= traced as f64 * 0.5,
            "{name}: required {required} !<= 50% of traced {traced}"
        );
    }
}
