#!/usr/bin/env python3
"""Repository benchmark: the CI pipeline cold and warm, and the serve
daemon's query loop, end to end from the release `loupe` binary, with a
separate traced run that splits the time by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the release `loupe` binary
and the in-process helper (`perfbench/Cargo.toml`) into
$CARGO_TARGET_DIR (default `.bench_build`), works in `.bench_work/`,
prints a metric table, and prints as its last line one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. It exits 1 when a
correctness gate fails and 2 when it cannot run at all (no sources).

Every run has the same shape: set-up, then passes of the six CI
commands (one process each, in CI order), each pass followed by a
segment of the query loop: `loupe serve` with its default flags driven
by a closed loop of 2 connections (= nproc; the daemon's callers each
wait for their reply) with zero think time and the seeded query mix of
serve_load: 80% `verdict`, 10% 8-cell `verdicts`, 5% `summary`, 5%
`missing`. The seed controls only that request sequence: the pipelines
run the fixed 116-app fleet x 3 workloads x 11 OSes, because their
correctness gate is the committed `docs/`.

Why passes and segments: the benchmark targets a shared 2-vCPU host on
which neighbours slow memory-heavy code by 25-50% for stretches of
seconds to minutes (a warm `compare` reads 2.4 s or 3.8 s, tracking a
64 MB memcpy at 39 or 50 ms). Single passes of the same code spread
12-28% between runs, and nine back-to-back daemon starts 33%. So a warm
run repeats the commands (a warm pass leaves the db as it found it; a
cold pass cannot be repeated), and each timing is the best of samples
that lie seconds apart, which some fast stretch usually reaches.

Workloads, and why each was chosen:
- pipeline-cold: one pass into a fresh empty db. Most of the
  time goes to measurement (core engine, kernel, interposer), static
  lowering and db writes; report is ~20%. Engine and write-path
  changes show here. Query loop: 2 s on the db just written.
- pipeline-warm: two passes on a populated db, so every gate
  is a cache hit and the engine does nothing: process
  start, Database::open, fingerprint gates, compare and report
  rendering take the time. Report and fixed per-process changes show
  here; engine-only changes should not. Query loop: 2 x 1 s.
- serve-query: set-up and passes as pipeline-warm, then segments of
  --seconds / 2 each. The only workload where the serve layer (frame
  decode, lookup, encode, socket, batcher) carries the main metrics;
  every pipeline layer is idle while it runs.

End-to-end metrics (tracing off; every workload reports all of them):
- setup_s: reaching the starting state, outside the measured part: an
  empty db directory for cold; for warm and serve a db populated by
  the six commands, which is built once per `loupe` binary, kept in
  `.bench_work/` and shared by both (a warm run changes only its
  last-sweep counters). Each set-up ends with `loupe cache stats`,
  which checks that the binary runs and the db is empty or populated.
  A run sets up 9 times and reports the median; the run that
  populates adds the populating to its setup_s. Populating each run
  would cost ~25-35 s on every warm run, more than the benchmark's
  time budget allows, and copying a kept db made set-up a measure of
  the host's disk throttling (0.7-6 s); the populate commands' own
  cost is measured by pipeline-cold.
- pipeline_s: wall time of the six commands; on warm, the sum of each
  command's faster pass.
- peak_rss_mb: largest ru_maxrss of any command process or the daemon.
- db_mb: bytes under the db directory after the commands.
- verdict_p50_us: single-`verdict` roundtrip latency, the median of a
  segment; the best segment's.
- throughput_rps: correct answers per second, the median over a
  segment's 250 ms windows; the best segment's.
- startup_ms: spawning `loupe serve` to its first answered `ping`, the
  fastest of the run's starts: two before each of the last three
  commands of every pass (by then the db holds all the daemon loads)
  and the start of each loop segment; 9 starts over ~15 s on cold, 18
  over ~30 s on warm.

Per-layer metrics (--trace 1; layer, then the end-to-end metric each
should move, and on which workload):
- cli (crates/cli): cli.<stage>_s, each command's untraced wall time
  (the faster pass on warm), and cli.<stage>.unattributed_ms, that
  wall time minus the traced in-process stage (process start,
  argument handling, printing and anything between public calls; the
  replay is one sample against the faster pass, so host noise can
  make it negative). Moves pipeline_s, on warm.
- apps, plan: apps.registry_ms (registry::dataset), plan.os_db_ms
  (os::db), both medians over the commands' calls, and plan.os_find_us
  (one os::find; render_conformance calls it once per suite). Move
  pipeline_s, on warm.
- db: db.open_ms (median per open), db.persist_ms (all
  persist_sweep_stats), db.load_{workload,matrix,suites,static}_ms
  (static = load_static_level at all 4 levels); sizes db.files,
  db.manifest_kb, db.index_mb, db.json_mb. Move pipeline_s (loads, on
  warm), db_mb and peak_rss_mb (sizes, both pipelines).
- sweep: sweep.{baseline,static,plans,matrix,gentests,gentests_check,
  compare}_ms around Sweep::run, sweep_static, validate_curated_plans,
  sweep_matrix, sweep_gentests, compare; sweep.{hits,misses,stale}.<ns>
  from session_cache_stats summed over the commands; sweep.hit_ratio =
  hits / gate decisions (must be 1.0 on warm). Stage times move
  pipeline_s on cold; gate cost and hit ratio on warm.
- core, static, gentests: work done: core.engine_runs and its
  framing/feature/bisect split, core.saved_runs, static.analyzed/
  cached, matrix.measured/cached, gentests.generated/cached. Move
  pipeline_s; on warm all must be cached.
- report (sweep::report): report.render_ms (whole render) and its parts
  report.{compare,render_conformance,render_support_plans,
  render_matrix,render_os_matrix,render_static,render_app_pages}_ms;
  report.diff_ms = check - render. Move pipeline_s, on warm (most of
  it) and cold.
- serve (crates/serve): serve.verdict_p99_us, the verdict p99 of the
  untraced loop: the median over a segment's 250 ms windows of each
  window's p99, the best segment's (~2,000 verdicts a window; with
  fewer than 10 beyond p99 it falls back to the highest percentile
  that has 10). It is not an end-to-end
  metric because on a shared 2-vCPU host it is not steady: in 10-run
  sets one or two runs read 3-5x the others (1.0-1.9 ms against
  ~370 us), whole loops falling into stretches where the host gives
  the VM less CPU, so its spread (0.13-0.56) exceeds any allowed bound.
  serve.index_build_ms (ServeIndex::build; moves startup_ms);
  serve.lookup_us.<cmd>, p50 of in-process
  ServeIndex::answer; serve.decode_us / serve.encode_us, p50 of
  Request parse and Response serialise; serve.wire_us = verdict p50 -
  decode - lookup - encode (socket, dispatch, batcher wait);
  serve.batch_size = batched_lookups / batches; serve.idle_cpu_ms_per_s
  of the idle daemon (its watcher competes with connection threads on
  2 cores); serve.other_p50_us. Move verdict_p50_us and
  throughput_rps (and serve.verdict_p99_us), on serve-query.
- trace: trace.replay_s (the in-process replay's wall time),
  trace.overhead_pct (span recording cost as a share of pipeline_s),
  trace.fidelity_mismatches (replay counts that differ from the CLI).

The traced run replays each command in-process through the same public
functions (`perfbench replay`), after the untraced run of the same
invocation; its counts must equal what the CLI printed, and per
command the spans' self times plus the unattributed time must add up
to the command's wall time.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

WORKLOADS = ("pipeline-cold", "pipeline-warm", "serve-query")

JOBS = ["--workload", "all", "--jobs", "2"]
CI_COMMANDS = [
    ("sweep", ["sweep", *JOBS, "--transfer", "--static", "--validate-plans"]),
    ("matrix", ["sweep", "--all-os", *JOBS]),
    ("gentests", ["gentests", "--all-os", *JOBS]),
    ("gentests_check", ["gentests", "--all-os", *JOBS, "--check"]),
    ("compare", ["compare"]),
    ("report_check", ["report", "--check", "--docs", "docs"]),
]
STAGES = [name for name, _ in CI_COMMANDS]
# The namespaces that hold entries once the CI commands populated a db.
POPULATED = ("baselines", "matrix", "plans", "static", "suites")
SETUPS = 9
# Passes of the six commands: a warm pass leaves the db as it found it,
# so warm runs can repeat it; a cold pass cannot be repeated.
PASSES = {"pipeline-cold": 1, "pipeline-warm": 2, "serve-query": 2}
NAMESPACES = ("baselines", "env", "matrix", "plans", "static", "suites")
COMMANDS = ("verdict", "verdicts", "summary", "missing")
# Query loop of the pipeline workloads, split over their passes.
PROBE_SECONDS = 2.0
# The commands after which the db holds everything `loupe serve` loads;
# the daemon's start-up is sampled STARTS times before each later
# command.
SERVABLE_AFTER = 3
STARTS = 2
# Width of the windows the tail latency and throughput are taken over.
WINDOW_NS = 250_000_000

UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "db_mb": "MB",
    "verdict_p50_us": "us",
    "throughput_rps": "1/s",
    "startup_ms": "ms",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Gates:
    """Operations attempted and failed; a failed gate is logged by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def count(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            log(f"FAILED: {what}")

    def check(self, ok, what):
        self.count(1, 0 if ok else 1, what)
        return ok


# ---------------------------------------------------------------- build


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Builds the release binaries; returns (loupe, perfbench) paths."""
    needed = ["Cargo.toml", "crates/cli/src/main.rs", "docs", "perfbench/Cargo.toml"]
    missing = [p for p in needed if not (ROOT / p).exists()]
    if missing:
        log(f"perfbench: not a loupe checkout (missing {', '.join(missing)})")
        sys.exit(2)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "loupe-cli", "--bin", "loupe"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            log(f"perfbench: build failed: {' '.join(cmd)}")
            sys.exit(2)
    release = target_dir() / "release"
    return release / "loupe", release / "perfbench"


# ------------------------------------------------------------ processes


def run_process(argv, out_path):
    """Runs one process to completion; returns (wall s, rc, maxrss KB,
    stdout, stderr). Output goes through files, and the child is reaped
    with wait4 so its resource usage is the kernel's own accounting."""
    with open(out_path, "wb") as out, open(str(out_path) + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = Path(out_path).read_text(errors="replace")
    err_text = Path(str(out_path) + ".err").read_text(errors="replace")
    return wall, proc.returncode, usage.ru_maxrss, text, err_text


def frame_request(sock, payload):
    data = json.dumps(payload).encode()
    sock.sendall(struct.pack("<I", len(data)) + data)
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        header += chunk
    (length,) = struct.unpack("<I", header)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        body += chunk
    return json.loads(body)


class Daemon:
    """`loupe serve` with its default flags (only the db and a free
    port are chosen)."""

    def __init__(self, loupe, db):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(loupe), "serve", "--db", str(db), "--addr", "127.0.0.1:0"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self.maxrss_kb = 0
        try:
            line = self.proc.stdout.readline().decode()
            match = re.match(r"listening on (\S+):(\d+)", line)
            if not match:
                raise RuntimeError(f"serve did not report its address: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            self.addr = f"{self.host}:{self.port}"
            with socket.create_connection((self.host, self.port), timeout=30) as sock:
                reply = frame_request(sock, {"cmd": "ping"})
            self.startup_ms = (time.perf_counter() - self.start) * 1e3
            if not reply.get("ok"):
                raise RuntimeError(f"ping failed: {reply}")
        except BaseException:
            self.stop()
            raise

    def cpu_ticks(self):
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])  # utime + stime

    def stop(self):
        if self.proc.returncode is None:
            self.proc.kill()
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.maxrss_kb = usage.ru_maxrss
        self.proc.stdout.close()


# --------------------------------------------------------------- phases


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def warm_db(loupe, gates):
    """The populated db of the warm workloads: the six CI commands into
    an empty db, run once per `loupe` binary and kept across runs of
    both warm workloads (a warm run changes nothing in it but the
    last-sweep counters). Returns its path, or None if populating
    failed, and the seconds this run spent populating."""
    digest = hashlib.sha256(loupe.read_bytes()).hexdigest()[:16]
    db = WORK / f"populated-{digest}.db"
    done = WORK / f"populated-{digest}.done"
    if done.exists():
        return db, 0.0
    for stale in WORK.glob("populated-*"):
        shutil.rmtree(stale) if stale.is_dir() else stale.unlink()
    start = time.perf_counter()
    fresh_dir(db)
    for name, argv in CI_COMMANDS:
        _, rc, _, _, err = run_process([str(loupe), *argv, "--db", str(db)], WORK / f"populate-{name}.out")
        if not gates.check(rc == 0, f"populate: {name} exits 0 ({err.strip()[-300:]})"):
            return None, 0.0
    done.touch()
    return db, time.perf_counter() - start


def setup(loupe, db, warm, gates):
    """Reaches the starting state once and returns how long that took:
    an empty db directory for cold (the last run's db is removed
    untimed), the kept populated db for warm; `loupe cache stats` then
    shows that the binary runs and the db is in that state."""
    if not warm:
        shutil.rmtree(db, ignore_errors=True)
    start = time.perf_counter()
    db.mkdir(parents=True, exist_ok=True)
    _, rc, _, out, _ = run_process([str(loupe), "cache", "stats", "--db", str(db)], WORK / "setup.out")
    elapsed = time.perf_counter() - start
    # Manifest rows: namespace, entries, entries with provenance.
    entries = {m[1]: int(m[2]) for m in re.finditer(r"^(\w+)\s+(\d+)\s+\d+$", out, re.M)}
    if warm:
        ready = all(entries.get(ns, 0) > 0 for ns in POPULATED)
    else:
        ready = not any(entries.values())
    gates.check(rc == 0 and ready, f"set-up: the db is {'populated' if warm else 'empty'} ({entries})")
    return elapsed


def count_line(pattern, text):
    match = re.search(pattern, text)
    return tuple(int(g) for g in match.groups()) if match else None


def parse_cli(name, out, err):
    """The counts a command printed (the CLI's own summary lines)."""
    p = {}
    if m := count_line(r"\((\d+) entries\): (\d+) analyzed, (\d+) cached, (\d+) failed", out):
        p["analyzed"], p["cached"], p["failed"] = m[1], m[2], m[3]
    if m := count_line(r"engine runs: (\d+) total \((\d+) framing, (\d+) feature, (\d+) bisect\)", out):
        p["runs_total"], p["framing_runs"], p["feature_runs"], p["bisect_runs"] = m
    if m := count_line(r"transfer: (\d+) feature measurements skipped, (\d+) runs saved", out):
        p["transfer_skips"], p["saved_runs"] = m
    if m := count_line(r"matrix: \d+ cells \((\d+) measured, (\d+) cached\)", out):
        p["matrix_measured"], p["matrix_cached"] = m
    if m := count_line(r"cache: (\d+) hits, (\d+) misses, (\d+) stale", out):
        p["cache_hits"], p["cache_misses"], p["cache_stale"] = m
    if m := count_line(r"static analysis: \d+ entries \((\d+) analyzed, (\d+) cached\)", out):
        p["static_analyzed"], p["static_cached"] = m
    if m := count_line(r"validated \d+ support plans .*?: (\d+) valid, (\d+) invalid", out):
        p["plans_valid"], p["plans_invalid"] = m
    if m := count_line(r"gentests: \d+ suites \((\d+) generated, (\d+) cached", out):
        p["generated"], p["cached"] = m
    if m := count_line(r"gentests: \d+ suites \(\d+ generated, \d+ cached, (\d+) stale\)", out):
        p["stale"] = m[0]
    if name == "compare":
        p["chain_holds"] = out.count("holds for every app")
        p["chain_violated"] = out.count("VIOLATED")
    if name == "report_check":
        p["drift"] = 0 if "match the database" in out else len(
            [l for l in err.splitlines() if re.match(r"\s+(stale|missing|orphaned):", l)]
        )
    return p


def pipeline_gates(name, parsed, warm, gates):
    """CI's correctness definitions, per command."""
    if name == "gentests_check":
        gates.check(parsed.get("stale") == 0, "gentests --check: zero stale suites")
    if name == "compare":
        gates.check(
            parsed.get("chain_holds") == 3 and parsed.get("chain_violated") == 0,
            "compare: containment chain holds for every workload",
        )
    if name == "report_check":
        gates.check(parsed.get("drift") == 0, "report --check: zero drift against docs/")
    if warm and name in ("sweep", "matrix", "gentests", "gentests_check"):
        measured = sum(
            parsed.get(k, 0)
            for k in ("analyzed", "runs_total", "static_analyzed", "matrix_measured", "generated")
        )
        misses = (parsed.get("cache_misses"), parsed.get("cache_stale"))
        gates.check(measured == 0, f"{name}: warm run measured nothing (0 measured)")
        gates.check(misses == (0, 0), f"{name}: warm run printed 0 misses, 0 stale")


def run_pass(loupe, db, warm, trace, gates, results, startups):
    """One pass of the six CI commands in CI order. Keeps in `results`
    per stage the fastest wall time and largest RSS over the passes so
    far, and what the last pass printed. Between commands, once the db
    holds everything the daemon loads, samples the daemon's start-up
    into `startups`."""
    for i, (name, argv) in enumerate(CI_COMMANDS):
        if i >= SERVABLE_AFTER:
            sample_starts(loupe, db, startups, gates)
        wall, rc, rss, out, err = run_process([str(loupe), *argv, "--db", str(db)], WORK / f"{name}.out")
        gates.check(rc == 0, f"{name}: exits 0 ({err.strip()[-300:]})")
        parsed = parse_cli(name, out, err)
        pipeline_gates(name, parsed, warm, gates)
        ns = None
        if trace and name in ("sweep", "matrix", "gentests", "gentests_check"):
            # What the command persisted as its session's counters.
            manifest = json.loads((db / "manifest.json").read_text())
            ns = {
                k: [v.get("hits", 0), v.get("misses", 0), v.get("stale", 0)]
                for k, v in (manifest.get("last_sweep") or {}).get("namespaces", {}).items()
            }
        prev = results.get(name, {"wall_s": math.inf, "rss_kb": 0})
        results[name] = {
            "wall_s": min(prev["wall_s"], wall),
            "rss_kb": max(prev["rss_kb"], rss),
            "parsed": parsed,
            "namespaces": ns,
        }


def dir_sizes(db):
    files = 0
    total = manifest = index = json_bytes = 0
    for path in db.rglob("*"):
        if not path.is_file():
            continue
        size = path.stat().st_size
        files += 1
        total += size
        rel = path.relative_to(db)
        if rel.parts[0] == "index":
            index += size
        elif rel.name == "manifest.json":
            manifest = size
        elif rel.suffix == ".json":
            json_bytes += size
    return {"files": files, "bytes": total, "manifest": manifest, "index": index, "json": json_bytes}


def sample_starts(loupe, db, startups, gates):
    """Starts the daemon STARTS times, recording each start-up."""
    for _ in range(STARTS):
        try:
            daemon = Daemon(loupe, db)
        except (RuntimeError, OSError, ValueError) as e:
            gates.check(False, f"serve start: {e}")
            return
        startups.append(daemon.startup_ms)
        daemon.stop()


def serve_segment(loupe, helper, db, seconds, seed, idle_probe, gates, startups):
    """One segment of the query loop: starts the daemon (one more
    start-up sample), drives it with the closed-loop query mix for
    `seconds`, and stops it. With `idle_probe`, first samples the idle
    daemon's CPU."""
    daemon = None
    try:
        daemon = Daemon(loupe, db)
        startups.append(daemon.startup_ms)
        idle = None
        if idle_probe:
            # The idle daemon's own CPU (watcher and batcher threads).
            ticks, t0 = daemon.cpu_ticks(), time.perf_counter()
            time.sleep(2.0)
            ticks, elapsed = daemon.cpu_ticks() - ticks, time.perf_counter() - t0
            idle = ticks * 1e3 / os.sysconf("SC_CLK_TCK") / elapsed
        out = WORK / "load.json"
        argv = [
            str(helper), "load", "--addr", daemon.addr, "--db", str(db),
            "--seconds", str(seconds), "--seed", str(seed), "--out", str(out),
        ]
        rc = subprocess.run(argv, cwd=ROOT).returncode
        gates.check(rc == 0, "serve: load generator completed")
        load = json.loads(out.read_text()) if rc == 0 else None
    except (RuntimeError, OSError, ValueError) as e:
        gates.check(False, f"serve: {e}")
        load, idle = None, None
    finally:
        if daemon is not None:
            daemon.stop()
    if load is not None:
        gates.count(load["attempted"], load["failed"], f"serve: {load['failed']} wrong or failed answers ({load['first_error']})")
    return {"rss_kb": daemon.maxrss_kb if daemon else 0, "load": load, "idle_cpu_ms_per_s": idle}


# -------------------------------------------------------------- metrics


def loop_metrics(segments):
    """Verdict p50, throughput and verdict p99 of the query loop, each
    the best segment's (segments lie a pass apart, so a stretch of host
    contention rarely covers all of them); and the verdict samples and
    windows they came from."""
    p50s, rates, tails, samples, windows = [], [], [], 0, 0
    for seg in segments:
        load = seg["load"]
        if load is None:
            continue
        pairs = list(zip(load["verdict_at_ns"], load["latency_ns"]["verdict"]))
        count = int(load["window_s"] * 1e9 // WINDOW_NS)
        if not pairs or not count:
            continue
        p50s.append(stats.nearest_rank(sorted(v for _, v in pairs), 0.5) / 1e3)
        rates.append(stats.windowed_rate([t / 1e9 for t in load["done_at_ns"]], WINDOW_NS / 1e9, count))
        tails.append(stats.windowed_tail(pairs, WINDOW_NS, count, 0.99) / 1e3)
        samples += len(pairs)
        windows += count
    if not p50s:
        return math.nan, math.nan, math.nan, 0, 0
    return min(p50s), max(rates), min(tails), samples, windows


def end_to_end(setup_s, pipe, sizes, segments, startups):
    p50, rate, p99, samples, windows = loop_metrics(segments)
    return {
        "setup_s": setup_s,
        "pipeline_s": sum(r["wall_s"] for r in pipe.values()),
        "peak_rss_mb": max([r["rss_kb"] for r in pipe.values()] + [s["rss_kb"] for s in segments]) / 1024,
        "db_mb": sizes["bytes"] / 1e6,
        "verdict_p50_us": p50,
        "throughput_rps": rate,
        "startup_ms": min(startups) if startups else math.nan,
    }, p99, samples, windows


def compare_replay(pipe, replay, gates):
    """Replay fidelity: the in-process replay must count what the CLI
    printed. Returns the number of mismatches."""
    mismatches = 0
    for name in STAGES:
        got = replay["stages"][name]["counts"]
        printed = pipe[name]["parsed"]
        for key, value in printed.items():
            if got.get(key) != value:
                mismatches += 1
                log(f"replay mismatch: {name}.{key}: cli {value}, replay {got.get(key)}")
        persisted = pipe[name]["namespaces"]
        replayed = replay["stages"][name]["namespaces"]
        if persisted is not None and persisted != replayed:
            mismatches += 1
            log(f"replay mismatch: {name} namespaces: cli {persisted}, replay {replayed}")
    gates.check(mismatches == 0, f"replay fidelity: {mismatches} counts differ from the CLI")
    gates.check(replay["render_mismatches"] == 0, "replay fidelity: report parts reproduce report::render bytes")
    return mismatches


def per_layer(pipe, sizes, segments, replay, layers, e2e, mismatches, gates):
    spans = [(s["id"], s["parent"], s["name"], s["start_ns"], s["end_ns"]) for s in replay["spans"]]
    selfs = stats.self_times(spans)
    ms = lambda ns: ns / 1e6
    durations = {}  # span name -> its durations in ms, in recording order
    for _sid, _parent, name, start, end in spans:
        durations.setdefault(name, []).append(ms(end - start))
    first = lambda name: durations[name][0]
    m = {}

    for sid, _parent, name, start, end in spans:
        if not name.startswith("stage."):
            continue
        stage = name[len("stage."):]
        wall_ms = pipe[stage]["wall_s"] * 1e3
        unattributed = wall_ms - ms(end - start)
        m[f"cli.{stage}_s"] = pipe[stage]["wall_s"]
        m[f"cli.{stage}.unattributed_ms"] = unattributed
        self_sum = ms(sum(selfs[i] for i in stats.subtree(spans, sid)))
        gates.check(
            abs(self_sum + unattributed - wall_ms) <= 1e-3 * wall_ms,
            f"attribution: {stage} self times + unattributed = wall time",
        )

    m["apps.registry_ms"] = stats.median(durations["apps.registry"])
    m["plan.os_db_ms"] = stats.median(durations["plan.os_db"])
    m["plan.os_find_us"] = replay["os_find_us"]

    m["db.open_ms"] = stats.median(durations["db.open"])
    m["db.persist_ms"] = sum(durations["db.persist"])
    for part in ("workload", "matrix", "suites", "static"):
        m[f"db.load_{part}_ms"] = first(f"db.load_{part}")
    m["db.files"] = sizes["files"]
    m["db.manifest_kb"] = sizes["manifest"] / 1e3
    m["db.index_mb"] = sizes["index"] / 1e6
    m["db.json_mb"] = sizes["json"] / 1e6

    for name in ("baseline", "static", "plans", "matrix", "gentests", "gentests_check", "compare"):
        m[f"sweep.{name}_ms"] = first(f"sweep.{name}")
    totals = {ns: [0, 0, 0] for ns in NAMESPACES}
    for name in STAGES:
        for ns, counts in replay["stages"][name]["namespaces"].items():
            totals.setdefault(ns, [0, 0, 0])
            totals[ns] = [a + b for a, b in zip(totals[ns], counts)]
    for ns in NAMESPACES:
        for i, kind in enumerate(("hits", "misses", "stale")):
            m[f"sweep.{kind}.{ns}"] = totals[ns][i]
    hits = sum(c[0] for c in totals.values())
    decisions = sum(sum(c) for c in totals.values())
    m["sweep.hit_ratio"] = hits / decisions if decisions else 0.0

    st = {name: stage["counts"] for name, stage in replay["stages"].items()}
    runs = ("sweep", "matrix", "gentests", "gentests_check")
    m["core.engine_runs"] = sum(st[s]["runs_total"] for s in runs)
    for kind in ("framing", "feature", "bisect", "saved"):
        m[f"core.{kind}_runs"] = sum(st[s][f"{kind}_runs"] for s in runs)
    m["static.analyzed"] = st["sweep"]["static_analyzed"]
    m["static.cached"] = st["sweep"]["static_cached"]
    m["matrix.measured"] = st["matrix"]["matrix_measured"]
    m["matrix.cached"] = st["matrix"]["matrix_cached"]
    m["gentests.generated"] = st["gentests"]["generated"]
    m["gentests.cached"] = st["gentests"]["cached"]

    m["report.render_ms"] = first("report.render")
    for part in ("compare", "render_conformance", "render_support_plans", "render_matrix",
                 "render_os_matrix", "render_static", "render_app_pages"):
        m[f"report.{part}_ms"] = first(f"report.{part}")
    m["report.diff_ms"] = first("report.check") - m["report.render_ms"]

    p50 = lambda xs: stats.nearest_rank(sorted(xs), 0.5) / 1e3 if xs else math.nan
    loads = [s["load"] for s in segments]
    m["serve.index_build_ms"] = stats.median(layers["index_build_ns"]) / 1e6
    for cmd in COMMANDS:
        m[f"serve.lookup_us.{cmd}"] = p50(layers["lookup_ns"][cmd])
    m["serve.decode_us"] = p50(layers["decode_ns"]["verdict"])
    m["serve.encode_us"] = p50(layers["encode_ns"]["verdict"])
    m["serve.wire_us"] = e2e["verdict_p50_us"] - m["serve.decode_us"] - m["serve.lookup_us.verdict"] - m["serve.encode_us"]
    batches = sum(load["batches"] for load in loads)
    m["serve.batch_size"] = sum(load["batched_lookups"] for load in loads) / batches if batches else 0.0
    m["serve.idle_cpu_ms_per_s"] = segments[0]["idle_cpu_ms_per_s"]
    others = [x for load in loads for cmd in COMMANDS[1:] for x in load["latency_ns"][cmd]]
    m["serve.other_p50_us"] = p50(others)

    m["trace.replay_s"] = replay["replay_s"]
    m["trace.overhead_pct"] = 100 * len(spans) * replay["span_cost_ns"] / (e2e["pipeline_s"] * 1e9)
    m["trace.fidelity_mismatches"] = mismatches
    return m


PER_LAYER_UNITS = [
    (re.compile(r".*_s$"), "s"),
    (re.compile(r".*_ms(\..*)?$"), "ms"),
    (re.compile(r".*_us(\..*)?$"), "us"),
    (re.compile(r".*_mb$"), "MB"),
    (re.compile(r".*_kb$"), "KB"),
    (re.compile(r".*_pct$"), "%"),
    (re.compile(r".*(ratio|batch_size)$"), "ratio"),
]


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name == "serve.idle_cpu_ms_per_s":
        return "ms/s"
    for pattern, unit in PER_LAYER_UNITS:
        if pattern.match(name):
            return unit
    return "count"


# ----------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    loupe, helper = build()
    WORK.mkdir(exist_ok=True)
    wl = args.workload
    db = WORK / f"{wl}.db"
    gates = Gates()

    warm = wl != "pipeline-cold"
    populate_s = 0.0
    if warm:
        db, populate_s = warm_db(loupe, gates)
        if db is None:
            return report(gates, {})
    setup_s = populate_s + stats.median([setup(loupe, db, warm, gates) for _ in range(SETUPS)])

    # Each pass of the commands is followed by an equal segment of the
    # query loop.
    passes = PASSES[wl]
    seconds = (args.seconds if wl == "serve-query" else min(PROBE_SECONDS, args.seconds)) / passes
    seed = args.seed % 2**64  # the helpers take an unsigned 64-bit seed
    pipe, startups, segments = {}, [], []
    for p in range(passes):
        run_pass(loupe, db, warm, args.trace, gates, pipe, startups)
        sizes = dir_sizes(db)
        # Write back what the commands left dirty, so the kernel's flush
        # does not land inside the query loop.
        os.sync()
        segments.append(serve_segment(loupe, helper, db, seconds, seed, args.trace and p == 0, gates, startups))
    e2e, p99_us, n_verdicts, n_windows = end_to_end(setup_s, pipe, sizes, segments, startups)

    metrics = e2e
    if args.trace:
        # The traced replay: cold replays into a fresh db of its own;
        # warm replays on the populated db, which stays warm.
        replay_db = db
        if wl == "pipeline-cold":
            replay_db = WORK / f"{wl}.replay.db"
            fresh_dir(replay_db)
        out = WORK / "replay.json"
        rc = subprocess.run([str(helper), "replay", "--db", str(replay_db), "--docs", "docs", "--out", str(out)], cwd=ROOT).returncode
        gates.check(rc == 0, "replay: completed")
        out_layers = WORK / "layers.json"
        rc2 = subprocess.run([str(helper), "layers", "--db", str(db), "--seed", str(seed),
                              "--out", str(out_layers)], cwd=ROOT).returncode
        gates.check(rc2 == 0, "serve layers: completed")
        if rc == 0 and rc2 == 0 and all(s["load"] is not None for s in segments):
            replay = json.loads(out.read_text())
            layers = json.loads(out_layers.read_text())
            mismatches = compare_replay(pipe, replay, gates)
            metrics = per_layer(pipe, sizes, segments, replay, layers, e2e, mismatches, gates)
            metrics["serve.verdict_p99_us"] = p99_us
        else:
            metrics = {}

    for name, value in (e2e | metrics).items():
        print(f"{name:<36} {value:>14.4f} {unit_of(name)}")
    print(f"# {wl}: {n_verdicts} verdict samples in {n_windows} windows of {WINDOW_NS / 1e6:g} ms")
    return report(gates, metrics)


def report(gates, metrics):
    """Prints the result line; returns the exit code."""
    correct = gates.failed == 0
    print(f"# {gates.attempted} operations, {gates.failed} failed")
    result = {
        "correct": correct,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
            if value is not None and math.isfinite(value)
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
