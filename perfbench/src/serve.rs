//! The serve side of the benchmark: a closed-loop load generator for a
//! running `loupe serve` daemon, and the in-process timings of the
//! daemon's layers (index build, request decode, lookup, response
//! encode).

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use loupe_db::Database;
use loupe_plan::Tier;
use loupe_serve::{Client, Request, Response, ServeIndex, Verdict};

use serde::Serialize;

use crate::mix::{Mix, COMMANDS};

type Res<T> = Result<T, String>;

/// Connections of the closed loop: one per core of the 2-core machines
/// the benchmark targets.
const CONNECTIONS: u64 = 2;
/// Seconds of load before the measured window (lets the lazily built
/// analytics behind `missing` be built first).
const WARMUP_S: f64 = 0.5;
/// Requests of the in-process layer timings.
const LAYER_REQUESTS: usize = 20_000;

/// Samples per command name of the mix.
fn by_command(samples: [Vec<u64>; 4]) -> BTreeMap<String, Vec<u64>> {
    COMMANDS
        .iter()
        .map(|c| c.to_string())
        .zip(samples)
        .collect()
}

/// What the database says each `(os, app, workload)` cell's verdict
/// is: `(vanilla pass, planned pass, linux pass)`.
struct Truth(HashMap<(String, String, String), (bool, bool, bool)>);

impl Truth {
    fn load(db: &Database) -> Res<Truth> {
        let cells = db.load_matrix().map_err(|e| e.to_string())?;
        let map = cells
            .iter()
            .map(|c| {
                let key = (c.os.clone(), c.app.clone(), c.workload.label().to_owned());
                let outcome = (c.passes(Tier::Vanilla), c.planned_at_least(), c.linux_pass);
                (key, outcome)
            })
            .collect();
        Ok(Truth(map))
    }

    /// The sorted distinct OS and app names the queries draw from.
    fn pools(&self) -> (Vec<String>, Vec<String>) {
        let mut oses: Vec<String> = self.0.keys().map(|k| k.0.clone()).collect();
        let mut apps: Vec<String> = self.0.keys().map(|k| k.1.clone()).collect();
        oses.sort();
        oses.dedup();
        apps.sort();
        apps.dedup();
        (oses, apps)
    }

    fn verdict_ok(&self, v: &Verdict) -> bool {
        let key = (v.os.clone(), v.app.clone(), v.workload.clone());
        let Some(&(vanilla, planned, linux)) = self.0.get(&key) else {
            return false;
        };
        let expected = if v.tier == "vanilla" {
            vanilla
        } else {
            planned
        };
        v.known && v.pass == expected && v.linux_pass == linux
    }

    /// Whether a response is a correct answer to a request of command
    /// `cmd` (an index into [`COMMANDS`]).
    fn answer_ok(&self, cmd: usize, r: &Response) -> bool {
        r.ok && match cmd {
            0 => r.verdict.as_ref().is_some_and(|v| self.verdict_ok(v)),
            1 => r.verdicts.len() == 8 && r.verdicts.iter().all(|v| self.verdict_ok(v)),
            2 => !r.summary.is_empty(),
            _ => true,
        }
    }
}

#[derive(Default)]
struct ConnStats {
    /// Roundtrip nanoseconds per command, measured window only; a
    /// failed request records `u64::MAX` (it misses any latency limit).
    latency_ns: [Vec<u64>; 4],
    /// When each `verdict` sample completed, in nanoseconds since the
    /// window opened (parallel to `latency_ns[0]`).
    verdict_at_ns: Vec<u64>,
    /// When each correct answer of the window completed.
    done_at_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    last_done: Option<Instant>,
    first_error: Option<String>,
}

fn connect(addr: &str) -> std::io::Result<Client> {
    let mut client = Client::connect(addr)?;
    client.set_timeout(Duration::from_secs(10))?;
    Ok(client)
}

/// One connection's closed loop: send, wait for the answer, check it,
/// send the next — no think time.
fn drive(
    addr: &str,
    truth: &Truth,
    mut mix: Mix,
    window_start: Instant,
    end: Instant,
) -> ConnStats {
    let mut s = ConnStats::default();
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(e) => {
            s.attempted = 1;
            s.failed = 1;
            s.first_error = Some(format!("connect: {e}"));
            return s;
        }
    };
    while Instant::now() < end {
        let (request, cmd) = mix.next();
        let start = Instant::now();
        let result = client.request(&request);
        let done = Instant::now();
        let ns = (done - start).as_nanos() as u64;
        let measured = start >= window_start;
        s.attempted += 1;
        let good = match &result {
            Ok(r) => truth.answer_ok(cmd, r),
            Err(_) => false,
        };
        if !good {
            s.failed += 1;
            if s.first_error.is_none() {
                s.first_error = Some(match &result {
                    Ok(r) => format!("{} answered wrongly: {:?}", COMMANDS[cmd], r.error),
                    Err(e) => format!("{}: {e}", COMMANDS[cmd]),
                });
            }
        }
        if measured {
            let at = (done - window_start).as_nanos() as u64;
            s.latency_ns[cmd].push(if good { ns } else { u64::MAX });
            if cmd == 0 {
                s.verdict_at_ns.push(at);
            }
            if good {
                s.done_at_ns.push(at);
            }
            s.last_done = Some(done);
        }
        if result.is_err() {
            // The connection may be broken; one reconnect, then give up.
            match connect(addr) {
                Ok(c) => client = c,
                Err(_) => break,
            }
        }
    }
    s
}

/// What the load generator measured.
#[derive(Serialize)]
struct Load {
    attempted: u64,
    failed: u64,
    window_s: f64,
    first_error: String,
    /// The daemon's `stats` counters after the load.
    batched_lookups: u64,
    batches: u64,
    /// Roundtrip nanoseconds per command, measured window only.
    latency_ns: BTreeMap<String, Vec<u64>>,
    /// Completion times since the window opened: of each `verdict`
    /// sample (parallel to `latency_ns["verdict"]`), and of each
    /// correct answer.
    verdict_at_ns: Vec<u64>,
    done_at_ns: Vec<u64>,
}

/// Drives the daemon at `addr` for `WARMUP_S` plus `seconds`,
/// recording only the last `seconds`.
pub fn load(addr: &str, db_dir: &Path, seconds: f64, seed: u64) -> Res<String> {
    let db = Database::open(db_dir).map_err(|e| e.to_string())?;
    let truth = Truth::load(&db)?;
    drop(db);
    let (oses, apps) = truth.pools();
    if oses.is_empty() || apps.is_empty() {
        return Err("load: the database holds no matrix cells".into());
    }
    let start = Instant::now();
    let window_start = start + Duration::from_secs_f64(WARMUP_S);
    let end = window_start + Duration::from_secs_f64(seconds);
    let per_conn: Vec<ConnStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let mix = Mix::new(
                    seed.wrapping_mul(1_000_003).wrapping_add(c),
                    oses.clone(),
                    apps.clone(),
                );
                let truth = &truth;
                scope.spawn(move || drive(addr, truth, mix, window_start, end))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread panicked"))
            .collect()
    });

    let mut latency: [Vec<u64>; 4] = Default::default();
    let (mut verdict_at_ns, mut done_at_ns) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut last_done = window_start;
    let mut first_error = None;
    for s in per_conn {
        for (all, mine) in latency.iter_mut().zip(s.latency_ns) {
            all.extend(mine);
        }
        verdict_at_ns.extend(s.verdict_at_ns);
        done_at_ns.extend(s.done_at_ns);
        attempted += s.attempted;
        failed += s.failed;
        last_done = last_done.max(s.last_done.unwrap_or(window_start));
        first_error = first_error.or(s.first_error);
    }

    // The daemon's own counters, after the load.
    let stats = connect(addr)
        .and_then(|mut c| {
            c.request(&Request {
                cmd: "stats".to_owned(),
                ..Request::default()
            })
        })
        .map_err(|e| format!("stats: {e}"))?
        .stats
        .ok_or("stats: no stats in the answer")?;

    let doc = Load {
        attempted,
        failed,
        window_s: (last_done - window_start).as_secs_f64(),
        first_error: first_error.unwrap_or_default(),
        batched_lookups: stats.batched_lookups,
        batches: stats.batches,
        latency_ns: by_command(latency),
        verdict_at_ns,
        done_at_ns,
    };
    serde_json::to_string(&doc).map_err(|e| e.to_string())
}

/// The in-process layer timings, in nanoseconds.
#[derive(Serialize)]
struct Layers {
    index_build_ns: Vec<u64>,
    decode_ns: BTreeMap<String, Vec<u64>>,
    lookup_ns: BTreeMap<String, Vec<u64>>,
    encode_ns: BTreeMap<String, Vec<u64>>,
}

/// In-process timings of the daemon's layers over the seeded mix:
/// index builds, and per request the decode of its JSON, the
/// `ServeIndex::answer` lookup, and the encode of the response.
pub fn layers(db_dir: &Path, seed: u64) -> Res<String> {
    let mut build_ns = Vec::new();
    let mut index = None;
    for _ in 0..3 {
        let db = Database::open(db_dir).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let built = ServeIndex::build(db, 0).map_err(|e| e.to_string())?;
        build_ns.push(start.elapsed().as_nanos() as u64);
        index = Some(built);
    }
    let index = index.expect("three builds ran");
    let db = Database::open(db_dir).map_err(|e| e.to_string())?;
    let (oses, apps) = Truth::load(&db)?.pools();
    let mut mix = Mix::new(seed, oses, apps);

    // Warm-up: the analytics behind `missing` are built on first use.
    for _ in 0..2_000 {
        std::hint::black_box(index.answer(&mix.next().0));
    }
    let mut decode: [Vec<u64>; 4] = Default::default();
    let mut lookup: [Vec<u64>; 4] = Default::default();
    let mut encode: [Vec<u64>; 4] = Default::default();
    for _ in 0..LAYER_REQUESTS {
        let (request, cmd) = mix.next();
        let payload = serde_json::to_string(&request).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let parsed: Request = serde_json::from_str(&payload).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let response = std::hint::black_box(index.answer(&parsed));
        let t2 = Instant::now();
        let json = serde_json::to_string(&response).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        std::hint::black_box(json);
        decode[cmd].push((t1 - t0).as_nanos() as u64);
        lookup[cmd].push((t2 - t1).as_nanos() as u64);
        encode[cmd].push((t3 - t2).as_nanos() as u64);
    }

    let doc = Layers {
        index_build_ns: build_ns,
        decode_ns: by_command(decode),
        lookup_ns: by_command(lookup),
        encode_ns: by_command(encode),
    };
    serde_json::to_string(&doc).map_err(|e| e.to_string())
}
