//! Load-test harness for the `loupe serve` daemon: thousands of
//! concurrent clients over a mixed query distribution against an
//! in-process server, reporting p50/p99 latency and throughput.
//!
//! ```text
//! serve_load [--db DIR]            # default: synthetic fleet-scale corpus
//!            [--clients N]         # concurrent connected clients (default 1000)
//!            [--requests N]        # requests per client (default 20)
//!            [--think-ms N]        # per-client pause between requests (default 400)
//!            [--sat-clients N]     # saturation-phase threads (default 32)
//!            [--check]             # exhaustive daemon-vs-database cross-check
//!            [--check-doc FILE]    # daemon summary vs rendered OS_MATRIX.md
//! ```
//!
//! Two measurement phases, the standard split for a latency target:
//!
//! 1. **Saturation** — a handful of zero-think closed-loop threads
//!    hammer the daemon to measure peak throughput. (Latency numbers
//!    under saturation only measure the queue, not the service:
//!    closed-loop p50 ≈ in-flight / throughput by Little's law.)
//! 2. **Latency** — `--clients` concurrent connections each issue
//!    requests with `--think-ms` pauses (desynchronised by a random
//!    initial jitter), and every roundtrip is timed. This is the
//!    "thousands of connected dashboards" shape the daemon exists
//!    for, and where the sub-millisecond p50 target applies.
//!
//! The last line on stdout is a one-object JSON summary (the numbers
//! `BENCH_serve.json` tracks). `--check` replays **every** stored
//! matrix cell at both tiers through the wire protocol and compares
//! against the database directly — the daemon must agree with its
//! source of truth on all of them. `--check-doc` parses the rendered
//! `OS_MATRIX.md` tables and compares each row's pass counts with the
//! daemon's `summary` answer.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use loupe_apps::{registry, Workload};
use loupe_db::{store, Database};
use loupe_plan::{os, MatrixCell, Tier, TierOutcome};
use loupe_serve::{CellQuery, Client, Request, ServeConfig, Server};
use loupe_syscalls::{Sysno, SysnoSet};

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_or<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag_value(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Deterministic xorshift64* — per-thread query sequencing without an
/// RNG dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Synthetic fleet-scale corpus: every curated OS × the full dataset ×
/// two workloads, with deterministic verdict patterns. No measurement —
/// the daemon's serving path is what's under test, not the sweep.
fn populate_synthetic(dir: &Path) {
    let db = Database::open(dir).expect("open synthetic db");
    let oses: Vec<String> = os::db().into_iter().map(|s| s.name).collect();
    let apps: Vec<String> = registry::dataset()
        .iter()
        .map(|a| a.name().to_owned())
        .collect();
    for (i, os_name) in oses.iter().enumerate() {
        for (j, app) in apps.iter().enumerate() {
            for workload in [Workload::HealthCheck, Workload::Benchmark] {
                let vanilla = (i * 7 + j) % 3 == 0;
                let planned = vanilla || (i + j) % 2 == 0;
                let cell = MatrixCell {
                    os: os_name.clone(),
                    app: app.clone(),
                    workload,
                    linux_pass: true,
                    missing_required: if vanilla {
                        SysnoSet::new()
                    } else {
                        [Sysno::io_uring_setup].into_iter().collect()
                    },
                    vanilla: Some(TierOutcome {
                        pass: vanilla,
                        ..TierOutcome::default()
                    }),
                    planned: Some(TierOutcome {
                        pass: planned,
                        ..TierOutcome::default()
                    }),
                    missing_required_flags: Vec::new(),
                };
                db.put_replacing(&store::MATRIX, &cell).expect("seed cell");
            }
        }
    }
    db.flush().expect("flush synthetic db");
}

struct ThreadStats {
    /// Microsecond latency per single-verdict request.
    verdict_us: Vec<u64>,
    /// Microsecond latency per non-verdict request.
    other_us: Vec<u64>,
}

/// One client's request loop: mostly single verdicts (the hot cached
/// path), with batch/summary/missing lookups mixed in. A nonzero
/// `think` pauses between requests (open-loop-ish load); the initial
/// jitter desynchronises the fleet.
fn run_client(
    addr: std::net::SocketAddr,
    seed: u64,
    requests: usize,
    think: Duration,
    oses: &[String],
    apps: &[String],
) -> ThreadStats {
    let mut rng = Rng(seed | 1);
    let mut client = Client::connect(addr).expect("client connect");
    client.set_timeout(Duration::from_secs(60)).unwrap();
    let mut stats = ThreadStats {
        verdict_us: Vec::with_capacity(requests),
        other_us: Vec::new(),
    };
    let pick =
        |rng: &mut Rng, pool: &[String]| pool[(rng.next() % pool.len() as u64) as usize].clone();
    if !think.is_zero() {
        std::thread::sleep(Duration::from_millis(rng.next() % think.as_millis() as u64));
    }
    for _ in 0..requests {
        if !think.is_zero() {
            std::thread::sleep(think);
        }
        let roll = rng.next() % 100;
        let (request, is_verdict) = if roll < 80 {
            (
                Request {
                    cmd: "verdict".to_owned(),
                    os: Some(pick(&mut rng, oses)),
                    app: Some(pick(&mut rng, apps)),
                    workload: Some("health".to_owned()),
                    tier: Some(
                        if roll.is_multiple_of(2) {
                            "vanilla"
                        } else {
                            "planned"
                        }
                        .to_owned(),
                    ),
                    ..Request::default()
                },
                true,
            )
        } else if roll < 90 {
            let cells = (0..8)
                .map(|_| CellQuery {
                    os: pick(&mut rng, oses),
                    app: pick(&mut rng, apps),
                    workload: Some("health".to_owned()),
                    tier: Some("planned".to_owned()),
                })
                .collect();
            (
                Request {
                    cmd: "verdicts".to_owned(),
                    cells,
                    ..Request::default()
                },
                false,
            )
        } else if roll < 95 {
            (
                Request {
                    cmd: "summary".to_owned(),
                    ..Request::default()
                },
                false,
            )
        } else {
            (
                Request {
                    cmd: "missing".to_owned(),
                    os: Some(pick(&mut rng, oses)),
                    limit: Some(5),
                    ..Request::default()
                },
                false,
            )
        };
        let start = Instant::now();
        let response = client.request(&request).expect("request");
        let us = start.elapsed().as_micros() as u64;
        assert!(response.ok, "load query failed: {:?}", response.error);
        if is_verdict {
            stats.verdict_us.push(us);
        } else {
            stats.other_us.push(us);
        }
    }
    stats
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Replays every stored matrix cell at both tiers through the wire
/// protocol; any disagreement with the database is a hard failure.
fn cross_check(addr: std::net::SocketAddr, db: &Database) -> usize {
    let cells = db.load_all(&store::MATRIX).expect("load matrix");
    let mut client = Client::connect(addr).expect("check connect");
    client.set_timeout(Duration::from_secs(60)).unwrap();
    let mut checked = 0;
    for cell in &cells {
        for tier in [Tier::Vanilla, Tier::Planned] {
            let expected = match tier {
                Tier::Vanilla => cell.passes(Tier::Vanilla),
                Tier::Planned => cell.planned_at_least(),
            };
            let response = client
                .request(&Request {
                    cmd: "verdict".to_owned(),
                    os: Some(cell.os.clone()),
                    app: Some(cell.app.clone()),
                    workload: Some(cell.workload.label().to_owned()),
                    tier: Some(tier.label().to_owned()),
                    ..Request::default()
                })
                .expect("check request");
            assert!(response.ok, "check query failed: {:?}", response.error);
            let verdict = response.verdict.expect("check verdict");
            assert!(verdict.known, "{}/{} should be measured", cell.os, cell.app);
            assert_eq!(
                verdict.pass,
                expected,
                "daemon disagrees with the database: {} x {} ({}, {} tier)",
                cell.os,
                cell.app,
                cell.workload,
                tier.label()
            );
            assert_eq!(verdict.linux_pass, cell.linux_pass);
            checked += 1;
        }
    }
    checked
}

/// Parses the `OS_MATRIX.md` summary tables and compares each row's
/// counts with the daemon's `summary` answer.
fn check_doc(addr: std::net::SocketAddr, doc: &Path) -> usize {
    let text = std::fs::read_to_string(doc).expect("read OS_MATRIX.md");
    let mut client = Client::connect(addr).expect("doc-check connect");
    let response = client
        .request(&Request {
            cmd: "summary".to_owned(),
            ..Request::default()
        })
        .expect("summary request");
    assert!(response.ok);
    let summary = response.summary;

    // Section headers name workloads by display name; daemon rows use
    // the short labels. Non-workload sections (e.g. "Per-OS failure
    // causes") also carry tables with [os] links — stop attributing
    // rows until the next workload header.
    let label_of = |section: &str| match section {
        s if s.starts_with("benchmark") => Some("bench"),
        s if s.starts_with("health-check") => Some("health"),
        s if s.starts_with("test-suite") => Some("suite"),
        _ => None,
    };
    let mut workload = None;
    let mut checked = 0;
    for line in text.lines() {
        if let Some(section) = line.strip_prefix("## ") {
            workload = label_of(section).map(str::to_owned);
            continue;
        }
        // Data rows: `| [os](#os) | syscalls | v/n (p%) | p/n (p%) | ...`
        let Some(wl) = &workload else { continue };
        let cols: Vec<&str> = line.split('|').map(str::trim).collect();
        if cols.len() < 7 || !cols[1].starts_with('[') {
            continue;
        }
        let os_name = cols[1]
            .trim_start_matches('[')
            .split(']')
            .next()
            .expect("os link");
        let syscalls: u64 = cols[2].parse().expect("syscall count");
        let parse_frac = |s: &str| -> (u64, u64) {
            let frac = s.split_whitespace().next().expect("fraction");
            let (num, den) = frac.split_once('/').expect("n/m");
            (num.parse().expect("num"), den.parse().expect("den"))
        };
        let (vanilla, apps) = parse_frac(cols[3]);
        let (planned, _) = parse_frac(cols[4]);
        let row = summary
            .iter()
            .find(|r| r.os == *os_name && r.workload == *wl)
            .unwrap_or_else(|| panic!("daemon has no summary row for {os_name}/{wl}"));
        assert_eq!(row.syscalls, syscalls, "{os_name}/{wl} syscalls");
        assert_eq!(row.apps, apps, "{os_name}/{wl} apps");
        assert_eq!(row.vanilla_pass, vanilla, "{os_name}/{wl} out-of-the-box");
        assert_eq!(row.planned_pass, planned, "{os_name}/{wl} with-plan");
        checked += 1;
    }
    assert!(checked > 0, "no matrix rows parsed from {}", doc.display());
    checked
}

/// Spawns `clients` small-stack client threads and joins their stats.
fn run_fleet(
    addr: std::net::SocketAddr,
    clients: usize,
    requests: usize,
    think: Duration,
    oses: &[String],
    apps: &[String],
) -> (ThreadStats, f64) {
    let wall = Instant::now();
    let mut handles = Vec::with_capacity(clients);
    for t in 0..clients {
        let oses = oses.to_vec();
        let apps = apps.to_vec();
        let handle = std::thread::Builder::new()
            .stack_size(64 * 1024)
            .spawn(move || run_client(addr, 0x9e37_79b9 + t as u64, requests, think, &oses, &apps))
            .expect("spawn client");
        handles.push(handle);
    }
    let mut all = ThreadStats {
        verdict_us: Vec::new(),
        other_us: Vec::new(),
    };
    for handle in handles {
        let stats = handle.join().expect("client thread");
        all.verdict_us.extend(stats.verdict_us);
        all.other_us.extend(stats.other_us);
    }
    all.verdict_us.sort_unstable();
    all.other_us.sort_unstable();
    (all, wall.elapsed().as_secs_f64())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let clients: usize = parse_or(&args, "--clients", 1000);
    let requests: usize = parse_or(&args, "--requests", 20);
    let think_ms: u64 = parse_or(&args, "--think-ms", 400);
    let sat_clients: usize = parse_or(&args, "--sat-clients", 32);

    let (root, synthetic): (PathBuf, bool) = match flag_value(&args, "--db") {
        Some(dir) => (PathBuf::from(dir), false),
        None => {
            let dir = std::env::temp_dir().join(format!("loupe-serve-load-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            populate_synthetic(&dir);
            (dir, true)
        }
    };

    let build_start = Instant::now();
    let server = Server::start(
        &root,
        ServeConfig {
            threads: clients + 64,
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let startup_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let addr = server.local_addr();

    let db = Database::open(&root).expect("open db");
    let cells = db.load_all(&store::MATRIX).expect("load matrix");
    let mut oses: Vec<String> = cells.iter().map(|c| c.os.clone()).collect();
    let mut apps: Vec<String> = cells.iter().map(|c| c.app.clone()).collect();
    oses.sort();
    oses.dedup();
    apps.sort();
    apps.dedup();
    eprintln!(
        "corpus: {} cells ({} oses x {} apps); daemon up in {startup_ms:.1} ms at {addr}",
        cells.len(),
        oses.len(),
        apps.len()
    );

    if args.iter().any(|a| a == "--check") {
        let checked = cross_check(addr, &db);
        eprintln!("check: {checked} verdicts cross-checked against the database, 0 mismatches");
    }
    if let Some(doc) = flag_value(&args, "--check-doc") {
        let rows = check_doc(addr, Path::new(doc));
        eprintln!("check-doc: {rows} OS_MATRIX.md rows match the daemon summary");
    }

    // Phase 1: saturation — peak throughput from a few zero-think
    // closed-loop threads.
    let sat_requests = 400;
    eprintln!("saturation: {sat_clients} closed-loop clients x {sat_requests} requests...");
    let (sat, sat_wall) = run_fleet(
        addr,
        sat_clients,
        sat_requests,
        Duration::ZERO,
        &oses,
        &apps,
    );
    let sat_total = sat.verdict_us.len() + sat.other_us.len();
    let throughput = sat_total as f64 / sat_wall;
    eprintln!("saturation: {throughput:.0} req/s");

    // Phase 2: latency — the full connected-client fleet with think
    // time, where each roundtrip's latency is the service, not the
    // queue.
    let think = Duration::from_millis(think_ms);
    eprintln!("latency: {clients} connected clients x {requests} requests, think {think_ms}ms...");
    let (lat, _) = run_fleet(addr, clients, requests, think, &oses, &apps);
    let total = lat.verdict_us.len() + lat.other_us.len();

    let p50 = percentile(&lat.verdict_us, 0.50);
    let summary = format!(
        "{{\"clients\": {clients}, \"requests\": {total}, \"think_ms\": {think_ms}, \
         \"verdict_p50_us\": {p50}, \"verdict_p99_us\": {}, \
         \"other_p50_us\": {}, \"other_p99_us\": {}, \
         \"saturation_rps\": {throughput:.0}, \"startup_ms\": {startup_ms:.1}, \
         \"synthetic\": {synthetic}}}",
        percentile(&lat.verdict_us, 0.99),
        percentile(&lat.other_us, 0.50),
        percentile(&lat.other_us, 0.99),
    );
    println!("{summary}");

    server.stop();
    if synthetic {
        std::fs::remove_dir_all(&root).ok();
    }
    // The tentpole target: cached verdict answers in under a
    // millisecond at the median with the full client fleet connected.
    if p50 >= 1000 {
        eprintln!("FAIL: verdict p50 {p50}us >= 1000us");
        std::process::exit(1);
    }
}
