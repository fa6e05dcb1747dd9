//! End-to-end daemon tests: protocol answers against a populated
//! corpus, exhaustive daemon-vs-database cross-checks, daemon ==
//! offline (`ServeIndex::answer`) equivalence for every command but
//! `stats`, and generation-swap atomicity under concurrent database
//! edits.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use loupe_apps::{registry, Workload};
use loupe_db::{store, Database};
use loupe_plan::{os, MatrixCell, Tier, TierOutcome};
use loupe_serve::{CellQuery, Client, Request, ServeConfig, ServeIndex, Server};
use loupe_sweep::{MatrixConfig, SweepConfig};
use loupe_syscalls::SysnoSet;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("loupe-serve-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A real mini-corpus: baselines + matrix cells for 2 OSes × 4 apps,
/// measured by the actual sweep so plan/apps queries have requirements
/// to work from.
fn populate(dir: &Path) {
    let db = Database::open(dir).unwrap();
    let apps: Vec<_> = registry::detailed().into_iter().take(4).collect();
    let cfg = MatrixConfig {
        oses: vec![os::find("kerla").unwrap(), os::find("gvisor").unwrap()],
        tier: None,
        sweep: SweepConfig {
            workloads: vec![Workload::HealthCheck],
            workers: 2,
            ..SweepConfig::default()
        },
    };
    loupe_sweep::sweep_matrix(&db, apps, &cfg).unwrap();
    db.flush().unwrap();
}

fn start(dir: &Path, cfg: ServeConfig) -> Server {
    Server::start(dir, cfg).expect("server starts")
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client.set_timeout(Duration::from_secs(30)).unwrap();
    client
}

fn verdict_request(os: &str, app: &str, workload: Option<&str>, tier: Option<&str>) -> Request {
    Request {
        cmd: "verdict".to_owned(),
        os: Some(os.to_owned()),
        app: Some(app.to_owned()),
        workload: workload.map(str::to_owned),
        tier: tier.map(str::to_owned),
        ..Request::default()
    }
}

#[test]
fn daemon_answers_the_documented_queries() {
    let dir = tmpdir("e2e");
    populate(&dir);
    let db = Database::open(&dir).unwrap();
    let cells = db.load_all(&store::MATRIX).unwrap();
    assert_eq!(cells.len(), 8, "fixture: 2 OSes x 4 apps x 1 workload");

    let server = start(&dir, ServeConfig::default());
    let mut client = connect(server.local_addr());

    assert_eq!(client.ping().unwrap(), 0, "first generation");

    // Verdicts match the stored cells for both tiers.
    for cell in &cells {
        for (tier, expected) in [
            (Tier::Vanilla, cell.passes(Tier::Vanilla)),
            (Tier::Planned, cell.planned_at_least()),
        ] {
            let resp = client
                .request(&verdict_request(
                    &cell.os,
                    &cell.app,
                    Some("health"),
                    Some(tier.label()),
                ))
                .unwrap();
            assert!(resp.ok, "{:?}", resp.error);
            let verdict = resp.verdict.expect("verdict present");
            assert!(verdict.known);
            assert_eq!(verdict.pass, expected, "{}/{} {tier}", cell.os, cell.app);
            assert_eq!(verdict.linux_pass, cell.linux_pass);
        }
    }

    // Unknown names are errors (not silent unknown-verdicts).
    for bad in [
        verdict_request("atlantis", "redis", None, None),
        verdict_request("kerla", "doom", None, None),
        verdict_request("kerla", "redis", Some("bogus"), None),
        verdict_request("kerla", "redis", None, Some("bogus")),
    ] {
        let resp = client.request(&bad).unwrap();
        assert!(!resp.ok, "{bad:?} must fail");
        assert!(resp.error.is_some());
    }

    // Summary equals the OS_MATRIX aggregation recomputed locally.
    let sizes = loupe_sweep::matrix::os_sizes(&os::db());
    let stats = loupe_sweep::matrix::aggregate(&cells, &sizes);
    let resp = client
        .request(&Request {
            cmd: "summary".to_owned(),
            ..Request::default()
        })
        .unwrap();
    assert!(resp.ok);
    assert_eq!(resp.summary.len(), stats.len());
    for (row, expected) in resp.summary.iter().zip(&stats) {
        assert_eq!(row.os, expected.os);
        assert_eq!(row.apps as usize, expected.apps);
        assert_eq!(row.vanilla_pass as usize, expected.vanilla_pass);
        assert_eq!(row.planned_pass as usize, expected.planned_pass);
        assert_eq!(row.syscalls as usize, expected.syscalls);
    }

    // Missing-syscall ranking equals the aggregation's.
    let kerla = stats.iter().find(|r| r.os == "kerla").unwrap();
    let resp = client
        .request(&Request {
            cmd: "missing".to_owned(),
            os: Some("kerla".to_owned()),
            limit: Some(5),
            ..Request::default()
        })
        .unwrap();
    assert!(resp.ok);
    assert_eq!(resp.missing.len(), kerla.top_missing.len().min(5));
    for (got, (sysno, count)) in resp.missing.iter().zip(&kerla.top_missing) {
        assert_eq!(got.syscall, sysno.name());
        assert_eq!(got.blocked_apps as usize, *count);
    }

    // Plan query: the lazily built table serves the curated profile.
    let resp = client
        .request(&Request {
            cmd: "plan".to_owned(),
            os: Some("kerla".to_owned()),
            ..Request::default()
        })
        .unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    let plan = resp.plan.expect("plan present");
    assert_eq!(plan.os, "kerla");
    assert_eq!(
        plan.initially_supported.len() + plan.steps.len(),
        4,
        "every measured app is either initially supported or unlocked"
    );

    // Inverted index: every app requires read(2) somewhere.
    let resp = client
        .request(&Request {
            cmd: "apps".to_owned(),
            syscall: Some("read".to_owned()),
            ..Request::default()
        })
        .unwrap();
    assert!(resp.ok);
    assert!(!resp.apps.is_empty(), "read(2) is required by the fixture");
    let resp = client
        .request(&Request {
            cmd: "apps".to_owned(),
            syscall: Some("not_a_syscall".to_owned()),
            ..Request::default()
        })
        .unwrap();
    assert!(!resp.ok);

    // Stats reflect the traffic this test generated.
    let resp = client
        .request(&Request {
            cmd: "stats".to_owned(),
            ..Request::default()
        })
        .unwrap();
    let stats = resp.stats.expect("stats present");
    assert_eq!(stats.cells, 8);
    assert_eq!(stats.oses, 2);
    assert_eq!(stats.apps, 4);
    assert!(stats.requests > 16);

    // Malformed and unknown requests answer errors, not hangups.
    let raw = client.request_raw("{not json").unwrap();
    assert!(raw.contains("malformed"));
    let resp = client
        .request(&Request {
            cmd: "explode".to_owned(),
            ..Request::default()
        })
        .unwrap();
    assert!(!resp.ok);

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Synthetic corpus for protocol-equivalence tests: deterministic
/// verdict patterns, no measurement needed.
fn seed_synthetic(dir: &Path, oses: &[&str], apps: &[&str], planned_pass: bool) {
    let db = Database::open(dir).unwrap();
    for (i, os_name) in oses.iter().enumerate() {
        for (j, app) in apps.iter().enumerate() {
            for workload in [Workload::HealthCheck, Workload::Benchmark] {
                let vanilla = (i + j) % 2 == 0;
                let cell = MatrixCell {
                    os: (*os_name).to_owned(),
                    app: (*app).to_owned(),
                    workload,
                    linux_pass: true,
                    missing_required: if vanilla {
                        SysnoSet::new()
                    } else {
                        [loupe_syscalls::Sysno::io_uring_setup]
                            .into_iter()
                            .collect()
                    },
                    vanilla: Some(TierOutcome {
                        pass: vanilla,
                        ..TierOutcome::default()
                    }),
                    planned: Some(TierOutcome {
                        pass: vanilla || planned_pass,
                        ..TierOutcome::default()
                    }),
                    missing_required_flags: Vec::new(),
                };
                db.put_replacing(&store::MATRIX, &cell).unwrap();
            }
        }
    }
    db.flush().unwrap();
}

const EQ_OSES: [&str; 2] = ["kerla", "gvisor"];
const EQ_APPS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// One daemon (no watcher, so it stays at generation 0) and the
/// offline index built from the same directory, both kept alive for
/// every proptest case. The corpus is the measured fixture (so `plan`
/// and `apps` have baselines to answer from) plus the synthetic cells.
fn equivalence_fixture() -> &'static (SocketAddr, ServeIndex) {
    static FIXTURE: OnceLock<(SocketAddr, ServeIndex)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = tmpdir("equiv");
        populate(&dir);
        seed_synthetic(&dir, &EQ_OSES, &EQ_APPS, true);
        let server = start(
            &dir,
            ServeConfig {
                watch_interval: Duration::ZERO,
                ..ServeConfig::default()
            },
        );
        let offline = ServeIndex::build(Database::open(&dir).unwrap(), 0).unwrap();
        let addr = server.local_addr();
        // Leak the server: proptest cases keep hitting it until the
        // process exits.
        std::mem::forget(server);
        (addr, offline)
    })
}

/// OS, workload and tier pools, each with one name the corpus lacks.
const POOL_OSES: [&str; 3] = ["kerla", "gvisor", "atlantis"];
const POOL_WORKLOADS: [Option<&str>; 5] = [
    None,
    Some("health"),
    Some("bench"),
    Some("suite"),
    Some("bogus"),
];
const POOL_TIERS: [Option<&str>; 4] = [None, Some("vanilla"), Some("planned"), Some("bogus")];
/// Verdict cells: 3 x 5 x 5 x 4 `(os, app, workload, tier)` combinations.
const POOL_CELLS: usize = 300;
/// Every request `pool_request` can build.
const POOL: usize = POOL_CELLS + 100 + 1 + 45 + 15 + 4 + 5;

fn pool_cell(q: usize) -> CellQuery {
    let (os_i, app_i, wl_i, tier_i) = (q % 3, (q / 3) % 5, (q / 15) % 5, (q / 75) % 4);
    CellQuery {
        os: POOL_OSES[os_i].to_owned(),
        app: ["alpha", "beta", "gamma", "delta", "doom"][app_i].to_owned(),
        workload: POOL_WORKLOADS[wl_i].map(str::to_owned),
        tier: POOL_TIERS[tier_i].map(str::to_owned),
    }
}

/// Request `q` of the pool: single verdicts, multi-cell verdicts,
/// summary, missing, plan, apps, and the requests every command
/// rejects (missing fields, unknown command) — unknown names included,
/// so error answers must match byte-for-byte too.
fn pool_request(q: usize) -> Request {
    let cmd = |cmd: &str| Request {
        cmd: cmd.to_owned(),
        ..Request::default()
    };
    if q < POOL_CELLS {
        let cell = pool_cell(q);
        return Request {
            os: Some(cell.os),
            app: Some(cell.app),
            workload: cell.workload,
            tier: cell.tier,
            ..cmd("verdict")
        };
    }
    match q - POOL_CELLS {
        r @ 0..100 => Request {
            cells: (0..r % 4)
                .map(|k| pool_cell((r * 37 + k * 101) % POOL_CELLS))
                .collect(),
            ..cmd("verdicts")
        },
        100 => cmd("summary"),
        r @ 101..146 => Request {
            os: Some(POOL_OSES[r % 3].to_owned()),
            workload: POOL_WORKLOADS[(r / 3) % 5].map(str::to_owned),
            limit: [None, Some(0), Some(3)][(r / 15) % 3],
            ..cmd("missing")
        },
        r @ 146..161 => Request {
            os: Some(POOL_OSES[r % 3].to_owned()),
            workload: POOL_WORKLOADS[(r / 3) % 5].map(str::to_owned),
            ..cmd("plan")
        },
        r @ 161..165 => Request {
            syscall: [
                Some("read"),
                Some("io_uring_setup"),
                Some("not_a_syscall"),
                None,
            ][r - 161]
                .map(str::to_owned),
            ..cmd("apps")
        },
        r => cmd(["ping", "explode", "verdict", "plan", "missing"][r - 165]),
    }
}

mod equivalence {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn daemon_answers_are_byte_identical_to_offline(
            queries in proptest::collection::vec(0usize..POOL, 1..12)
        ) {
            let (addr, offline) = equivalence_fixture();
            let mut daemon = connect(*addr);
            for q in queries {
                let request = pool_request(q);
                let frame = serde_json::to_string(&request).unwrap();
                let got = daemon.request_raw(&frame).unwrap();
                let want = serde_json::to_string(&offline.answer(&request)).unwrap();
                prop_assert_eq!(got, want, "query {} diverged", frame);
            }
        }
    }
}

#[test]
fn concurrent_clients_get_identical_answers() {
    let dir = tmpdir("concurrent");
    seed_synthetic(&dir, &EQ_OSES, &EQ_APPS, true);
    let server = start(
        &dir,
        ServeConfig {
            watch_interval: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    let addr = server.local_addr();

    // 32 threads x 8 concurrent lookups; answers must match a direct
    // index computation however the connection threads interleave.
    let mut handles = Vec::new();
    for t in 0..32 {
        handles.push(std::thread::spawn(move || {
            let mut client = connect(addr);
            for k in 0..8 {
                let os = EQ_OSES[(t + k) % 2];
                let app = EQ_APPS[(t * 3 + k) % 4];
                let resp = client
                    .request(&verdict_request(os, app, Some("health"), Some("vanilla")))
                    .unwrap();
                assert!(resp.ok);
                let verdict = resp.verdict.unwrap();
                // seed_synthetic: vanilla passes iff (os_i + app_i) even.
                let os_i = EQ_OSES.iter().position(|o| *o == os).unwrap();
                let app_i = EQ_APPS.iter().position(|a| *a == app).unwrap();
                assert_eq!(verdict.pass, (os_i + app_i) % 2 == 0);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let mut client = connect(addr);
    let stats = client
        .request(&Request {
            cmd: "stats".to_owned(),
            ..Request::default()
        })
        .unwrap()
        .stats
        .unwrap();
    assert!(stats.requests >= 32 * 8);
    assert!(
        stats.batched_lookups == 0 && stats.batches == 0,
        "the daemon no longer batches: {stats:?}"
    );
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn database_edits_swap_whole_generations_never_torn() {
    let dir = tmpdir("swap");
    let oses = ["flipos"];
    let apps = ["a0", "a1", "a2", "a3", "a4", "a5"];
    seed_synthetic(&dir, &oses, &apps, false);
    let server = start(
        &dir,
        ServeConfig {
            watch_interval: Duration::from_millis(20),
            ..ServeConfig::default()
        },
    );
    let mut client = connect(server.local_addr());
    let all_cells: Vec<CellQuery> = apps
        .iter()
        .map(|app| CellQuery {
            os: "flipos".to_owned(),
            app: (*app).to_owned(),
            workload: Some("health".to_owned()),
            tier: Some("planned".to_owned()),
        })
        .collect();
    let ask = |client: &mut Client| -> Vec<bool> {
        let resp = client
            .request(&Request {
                cmd: "verdicts".to_owned(),
                cells: all_cells.clone(),
                ..Request::default()
            })
            .unwrap();
        assert!(resp.ok, "{:?}", resp.error);
        assert_eq!(resp.verdicts.len(), apps.len());
        resp.verdicts.iter().map(|v| v.pass).collect()
    };

    // seed_synthetic(planned_pass): planned passes iff vanilla passes
    // (odd os+app index) or planned_pass is set. Flip planned_pass per
    // round: every odd-index cell's planned verdict toggles together.
    let toggled: Vec<usize> = (0..apps.len()).filter(|i| i % 2 == 1).collect();
    for round in 0..4u32 {
        let state = round % 2 == 0;
        // Complete edit first, manifest flush last: the daemon may
        // notice only once the (atomic) manifest rename lands.
        seed_synthetic(&dir, &oses, &apps, state);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let answers = ask(&mut client);
            // The atomicity property: within one response, every
            // toggled cell agrees — a torn mix of generations would
            // disagree.
            let agreed: Vec<bool> = toggled.iter().map(|&i| answers[i]).collect();
            assert!(
                agreed.iter().all(|&p| p == agreed[0]),
                "torn generation: {answers:?}"
            );
            if agreed[0] == state {
                break; // the new generation is live
            }
            assert!(
                Instant::now() < deadline,
                "round {round}: daemon never served the new generation"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}
