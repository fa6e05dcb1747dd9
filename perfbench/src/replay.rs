//! The traced in-process replay of the six CI commands.
//!
//! Each stage calls the same public functions, in the same order and
//! with the same configuration, as the matching command in
//! `crates/cli/src/main.rs`, with one `Database::open` per stage, and
//! wraps every call in a span. Printing is left out: the difference
//! between a command's wall time and its stage span is what
//! `run.py` reports as `cli.<stage>.unattributed_ms`.
//!
//! Besides the spans, each stage records the counts the command
//! prints, so `run.py` can check the replay against the CLI output
//! (the replay-fidelity gate).
//!
//! After the stages, a decomposition pass times `report::render` as a
//! whole and then its parts, calling the public render functions on
//! freshly loaded data, and checks that the parts' bytes equal what
//! `report::render` produced.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use loupe_apps::{registry, Workload};
use loupe_core::{AnalysisConfig, RunStats};
use loupe_db::{CacheStats, Database};
use loupe_plan::os;
use loupe_static::Level;
use loupe_sweep::{
    report, statics, GentestsConfig, MatrixConfig, Sweep, SweepConfig, TransferConfig,
};
use serde::Serialize;

use crate::trace::{Span, Tracer};

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `SweepConfig` as the CLI builds it for `--workload all --jobs N`.
fn sweep_cfg(jobs: usize, transfer: Option<TransferConfig>) -> SweepConfig {
    SweepConfig {
        workloads: Workload::ALL.to_vec(),
        workers: 0,
        force: false,
        transfer,
        analysis: AnalysisConfig {
            jobs,
            ..AnalysisConfig::fast()
        },
    }
}

/// What one stage reports: the counts its command prints, under the
/// names `run.py` parses them into, and its session's per-namespace
/// `[hits, misses, stale]`.
#[derive(Serialize, Default)]
struct Stage {
    counts: BTreeMap<String, u64>,
    namespaces: BTreeMap<String, [u64; 3]>,
}

impl Stage {
    fn set(&mut self, key: &str, value: u64) {
        self.counts.insert(key.to_owned(), value);
    }

    /// The `engine runs:` line.
    fn runs(&mut self, runs: &RunStats) {
        self.set("runs_total", runs.total_runs());
        self.set("framing_runs", runs.framing_runs);
        self.set("feature_runs", runs.feature_runs);
        self.set("bisect_runs", runs.bisect_runs);
        self.set("saved_runs", runs.saved_runs);
    }

    /// The `cache:` line: the session's totals when it is printed.
    fn cache_line(&mut self, stats: &CacheStats) {
        let t = stats.total();
        self.set("cache_hits", t.hits);
        self.set("cache_misses", t.misses);
        self.set("cache_stale", t.stale);
    }

    /// Records the session's counters and closes the stage's db.
    fn close(mut self, t: &Tracer, db: Database) -> Stage {
        for (ns, c) in &db.session_cache_stats().namespaces {
            self.namespaces
                .insert(ns.clone(), [c.hits, c.misses, c.stale]);
        }
        t.span("db.close", || drop(db));
        self
    }
}

/// `loupe sweep --workload all --jobs 2 --transfer --static --validate-plans`
fn stage_sweep(t: &Tracer, dir: &Path) -> Res<Stage> {
    let mut o = Stage::default();
    let db = t.span("db.open", || Database::open(dir)).map_err(err)?;
    let apps = t.span("apps.registry", registry::dataset);
    let cfg = sweep_cfg(2, Some(TransferConfig::default()));
    let summary = t
        .span("sweep.baseline", || Sweep::new(cfg).run(&db, apps))
        .map_err(err)?;
    o.set("analyzed", summary.analyzed as u64);
    o.set("cached", summary.cached as u64);
    o.set("failed", summary.failures.len() as u64);
    o.runs(&summary.runs);
    o.set("transfer_skips", summary.runs.transfer_skips);
    o.cache_line(&summary.cache);
    t.span("db.persist", || db.persist_sweep_stats())
        .map_err(err)?;
    if !summary.failures.is_empty() {
        return Err(format!(
            "sweep: {} baseline failures",
            summary.failures.len()
        ));
    }
    let apps = t.span("apps.registry", registry::dataset);
    let statics = t
        .span("sweep.static", || {
            loupe_sweep::sweep_static(&db, apps, 0, false)
        })
        .map_err(err)?;
    o.set("static_analyzed", statics.analyzed as u64);
    o.set("static_cached", statics.cached as u64);
    let validations = t
        .span("sweep.plans", || {
            loupe_sweep::validate_curated_plans(&db, Workload::ALL)
        })
        .map_err(err)?;
    let invalid = validations.iter().filter(|v| !v.is_valid()).count();
    o.set("plans_valid", (validations.len() - invalid) as u64);
    o.set("plans_invalid", invalid as u64);
    t.span("db.persist", || db.persist_sweep_stats())
        .map_err(err)?;
    Ok(o.close(t, db))
}

/// `loupe sweep --all-os --workload all --jobs 2`
fn stage_matrix(t: &Tracer, dir: &Path) -> Res<Stage> {
    let mut o = Stage::default();
    let db = t.span("db.open", || Database::open(dir)).map_err(err)?;
    let oses = t.span("plan.os_db", os::db);
    let apps = t.span("apps.registry", registry::dataset);
    let cfg = MatrixConfig {
        oses,
        tier: None,
        sweep: sweep_cfg(2, None),
    };
    let summary = t
        .span("sweep.matrix", || {
            loupe_sweep::sweep_matrix(&db, apps, &cfg)
        })
        .map_err(err)?;
    o.set("analyzed", summary.analyzed as u64);
    o.set("cached", summary.cached as u64);
    o.set("failed", summary.failures.len() as u64);
    o.runs(&summary.runs);
    let matrix = summary
        .matrix
        .as_ref()
        .ok_or("sweep_matrix: no matrix section")?;
    o.set("matrix_measured", matrix.analyzed as u64);
    o.set("matrix_cached", matrix.cached as u64);
    o.cache_line(&summary.cache);
    t.span("db.persist", || db.persist_sweep_stats())
        .map_err(err)?;
    Ok(o.close(t, db))
}

/// `loupe gentests --all-os --workload all --jobs 2 [--check]`
fn stage_gentests(t: &Tracer, dir: &Path, check: bool) -> Res<Stage> {
    let mut o = Stage::default();
    let db = t.span("db.open", || Database::open(dir)).map_err(err)?;
    let oses = t.span("plan.os_db", os::db);
    let apps = t.span("apps.registry", registry::dataset);
    let cfg = GentestsConfig {
        matrix: MatrixConfig {
            oses,
            tier: None,
            sweep: sweep_cfg(2, None),
        },
        check,
    };
    let name = if check {
        "sweep.gentests_check"
    } else {
        "sweep.gentests"
    };
    let summary = t
        .span(name, || loupe_sweep::sweep_gentests(&db, apps, &cfg))
        .map_err(err)?;
    o.set("generated", summary.generated as u64);
    o.set("cached", summary.cached as u64);
    o.set("stale", summary.stale.len() as u64);
    o.set("disagreements", summary.disagreements.len() as u64);
    o.runs(&summary.base.runs);
    let measured = summary.base.matrix.as_ref().map_or(0, |m| m.analyzed);
    o.set("matrix_measured", measured as u64);
    o.cache_line(&summary.base.cache);
    t.span("db.persist", || db.persist_sweep_stats())
        .map_err(err)?;
    Ok(o.close(t, db))
}

/// `loupe compare`
fn stage_compare(t: &Tracer, dir: &Path) -> Res<Stage> {
    let mut o = Stage::default();
    let db = t.span("db.open", || Database::open(dir)).map_err(err)?;
    let listed = t.span("db.list", || db.list()).map_err(err)?;
    let measured: std::collections::BTreeSet<String> =
        listed.into_iter().map(|(app, _)| app).collect();
    let apps: Vec<_> = t.span("apps.find", || {
        measured.iter().filter_map(|n| registry::find(n)).collect()
    });
    if apps.len() != measured.len() {
        return Err("compare: measured apps missing from the registry".into());
    }
    t.span("sweep.static", || {
        loupe_sweep::sweep_static(&db, apps, 0, false)
    })
    .map_err(err)?;
    let comparisons = t
        .span("sweep.compare", || loupe_sweep::compare(&db))
        .map_err(err)?;
    // What the command prints per workload: "holds for every app" or
    // "VIOLATED".
    let holds = comparisons.iter().filter(|c| c.invariants_hold()).count();
    o.set("chain_holds", holds as u64);
    o.set("chain_violated", (comparisons.len() - holds) as u64);
    Ok(o.close(t, db))
}

/// `loupe report --check --docs DOCS`
fn stage_report(t: &Tracer, dir: &Path, docs: &Path) -> Res<Stage> {
    let mut o = Stage::default();
    let db = t.span("db.open", || Database::open(dir)).map_err(err)?;
    let listed = t.span("db.list", || db.list()).map_err(err)?;
    if listed.is_empty() {
        return Err("report: database is empty".into());
    }
    let drift = t
        .span("report.check", || report::check(&db, docs))
        .map_err(err)?;
    o.set("drift", drift.len() as u64);
    Ok(o.close(t, db))
}

/// Times `report::render` whole, then its parts on freshly loaded
/// data, and the static loads `compare` depends on. Returns the number
/// of rendered files whose bytes the parts did not reproduce.
fn decompose_report(t: &Tracer, dir: &Path) -> Res<usize> {
    let db = Database::open(dir).map_err(err)?;
    let whole = t
        .span("report.render", || report::render(&db))
        .map_err(err)?;
    drop(db);

    let db = Database::open(dir).map_err(err)?;
    let grouped = t
        .span("db.load_workload", || report::reports_by_workload(&db))
        .map_err(err)?;
    let validations = t
        .span("db.load_plans", || -> Result<_, loupe_db::DbError> {
            let mut out = BTreeMap::new();
            for (os_name, workload) in db.list_plan_validations()? {
                if let Some(v) = db.load_plan_validation(&os_name, workload)? {
                    out.insert((workload, os_name), v);
                }
            }
            Ok(out)
        })
        .map_err(err)?;
    let has_statics = !t
        .span("db.list_static", || db.list_static())
        .map_err(err)?
        .is_empty();
    let cells = t.span("db.load_matrix", || db.load_matrix()).map_err(err)?;
    let mut parts: Vec<(String, String)> = Vec::new();
    parts.push((
        "COMPATIBILITY.md".into(),
        t.span("report.render_matrix", || {
            report::render_matrix(&grouped, has_statics)
        }),
    ));
    parts.push((
        "SUPPORT_PLANS.md".into(),
        t.span("report.render_support_plans", || {
            report::render_support_plans(&grouped, &validations, !cells.is_empty())
        }),
    ));
    parts.push((
        "OS_MATRIX.md".into(),
        t.span("report.render_os_matrix", || {
            report::render_os_matrix(&cells)
        }),
    ));
    let suites = t.span("db.load_suites", || db.load_suites()).map_err(err)?;
    parts.push((
        "CONFORMANCE.md".into(),
        t.span("report.render_conformance", || {
            report::render_conformance(&suites)
        }),
    ));
    let comparisons = t
        .span("report.compare", || loupe_sweep::compare(&db))
        .map_err(err)?;
    parts.push((
        "STATIC_VS_DYNAMIC.md".into(),
        t.span("report.render_static", || {
            statics::render_static_comparison(&comparisons)
        }),
    ));
    t.span("report.render_app_pages", || {
        let mut by_app: BTreeMap<&str, Vec<&loupe_core::AppReport>> = BTreeMap::new();
        for reports in grouped.values() {
            for r in reports {
                by_app.entry(r.app.as_str()).or_default().push(r);
            }
        }
        for (app, reports) in &by_app {
            parts.push((
                format!("apps/{app}.md"),
                report::render_app_page(app, reports),
            ));
        }
    });
    drop(db);

    let db = Database::open(dir).map_err(err)?;
    t.span("db.load_static", || -> Result<(), loupe_db::DbError> {
        for level in Level::ALL {
            std::hint::black_box(db.load_static_level(level)?);
        }
        Ok(())
    })
    .map_err(err)?;

    // Every part must match its file in the whole render; the only file
    // no public function renders is the app index.
    let rendered: BTreeMap<String, &String> = whole
        .files
        .iter()
        .map(|(p, c)| (p.to_string_lossy().into_owned(), c))
        .collect();
    let mut mismatches = parts
        .iter()
        .filter(|(path, text)| rendered.get(path) != Some(&text))
        .count();
    mismatches += rendered
        .keys()
        .filter(|p| *p != "apps/README.md" && !parts.iter().any(|(q, _)| q == *p))
        .count();
    Ok(mismatches)
}

/// Median microseconds of one `os::find` call, over every curated OS.
fn os_find_us() -> f64 {
    let names: Vec<String> = os::db().into_iter().map(|s| s.name).collect();
    let mut samples = Vec::new();
    for _ in 0..5 {
        for name in &names {
            let start = Instant::now();
            std::hint::black_box(os::find(name));
            samples.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The trace document `run.py` reads.
#[derive(Serialize)]
struct Replay {
    stages: BTreeMap<String, Stage>,
    /// Rendered files the report parts did not reproduce byte for byte.
    render_mismatches: u64,
    /// Wall time of the six stages.
    replay_s: f64,
    os_find_us: f64,
    span_cost_ns: f64,
    spans: Vec<Span>,
}

/// Replays the pipeline against the database at `dir`.
pub fn run(dir: &Path, docs: &Path) -> Res<String> {
    let t = Tracer::new();
    let mut stages = BTreeMap::new();
    let wall = Instant::now();
    let mut stage = |name: &str, f: &dyn Fn() -> Res<Stage>| -> Res<()> {
        let out = t.span(&format!("stage.{name}"), f)?;
        stages.insert(name.to_owned(), out);
        Ok(())
    };
    stage("sweep", &|| stage_sweep(&t, dir))?;
    stage("matrix", &|| stage_matrix(&t, dir))?;
    stage("gentests", &|| stage_gentests(&t, dir, false))?;
    stage("gentests_check", &|| stage_gentests(&t, dir, true))?;
    stage("compare", &|| stage_compare(&t, dir))?;
    stage("report_check", &|| stage_report(&t, dir, docs))?;
    let replay_s = wall.elapsed().as_secs_f64();
    let render_mismatches = t.span("decompose", || decompose_report(&t, dir))?;

    let doc = Replay {
        stages,
        render_mismatches: render_mismatches as u64,
        replay_s,
        os_find_us: os_find_us(),
        span_cost_ns: crate::trace::cost_per_span_ns(),
        spans: t.finish(),
    };
    serde_json::to_string(&doc).map_err(err)
}
