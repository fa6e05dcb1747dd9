//! Markdown rendering of a sweep database: the checked-in
//! `docs/COMPATIBILITY.md` support matrix, per-app pages, and the drift
//! check that keeps them honest in CI.
//!
//! Everything rendered here is a pure function of the database contents
//! (no timestamps, no environment), so the same measurements always
//! produce byte-identical documents — the property the `--check` mode
//! and the determinism tests rely on. It is also what lets [`check`]
//! skip rendering: [`write`] and [`check`] record the fingerprint of
//! every rendered file behind the cache gate ([`crate::rendered`]), and
//! while the database and the executable are unchanged, `check` only
//! hashes the files on disk against that record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use loupe_apps::Workload;
use loupe_core::AppReport;
use loupe_db::store::{self, Layout, Rendered};
use loupe_db::{fingerprint_bytes, fingerprint_file, Database, DbError};
use loupe_gentests::{CaseExpectation, ConformanceSuite};
use loupe_plan::{os, MatrixCell, OsSpec, PlanValidation, SupportPlan, Tier};
use loupe_syscalls::SysnoSet;

use crate::rendered::Gate;
use crate::{matrix, FleetStats};

/// Error margin for "notable" stub/fake impact annotations (Table 2).
const IMPACT_EPSILON: f64 = 0.03;

/// The namespaces [`render`] reads: the inputs of the docs set's gate.
static DOCS_READS: [&Layout; 5] = [
    &store::BASELINES.layout,
    &store::PLANS.layout,
    &store::STATIC.layout,
    &store::MATRIX.layout,
    &store::SUITES.layout,
];

/// A rendered documentation set: relative path → file contents.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RenderedDocs {
    /// `(relative path, contents)`, sorted by path.
    pub files: Vec<(PathBuf, String)>,
}

/// One file-level difference found by [`check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Drift {
    /// The file is missing on disk.
    Missing(PathBuf),
    /// The on-disk contents differ from the database rendering.
    Stale(PathBuf),
    /// A generated page exists on disk but the database no longer
    /// renders it (e.g. an app was removed from the fleet).
    Orphaned(PathBuf),
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Drift::Missing(p) => write!(f, "missing: {}", p.display()),
            Drift::Stale(p) => write!(f, "stale: {}", p.display()),
            Drift::Orphaned(p) => write!(f, "orphaned: {}", p.display()),
        }
    }
}

/// On-disk generated pages under `docs_dir` (relative paths) that the
/// `rendered` set does not hold — the single definition of "orphaned"
/// shared by [`write`] (which prunes them) and [`check`] (which flags
/// them).
fn orphaned_pages(docs_dir: &Path, rendered: &Rendered) -> Vec<PathBuf> {
    let mut orphans = Vec::new();
    if let Ok(entries) = std::fs::read_dir(docs_dir.join("apps")) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".md") && !rendered.files.contains_key(&format!("apps/{name}")) {
                orphans.push(PathBuf::from("apps").join(name));
            }
        }
    }
    orphans.sort();
    orphans
}

/// The record of a rendered set: each file's fingerprint.
fn fingerprints(rendered: &RenderedDocs) -> Rendered {
    Rendered {
        name: "docs".to_owned(),
        files: rendered
            .files
            .iter()
            .map(|(rel, contents)| {
                let rel = rel.to_string_lossy().into_owned();
                (rel, fingerprint_bytes(contents.as_bytes()))
            })
            .collect(),
        ..Rendered::default()
    }
}

/// Whether the files under `docs_dir` are exactly the `recorded` set:
/// every recorded file hashes to its fingerprint, and no other page
/// lies under `apps/`.
fn matches_record(recorded: &Rendered, docs_dir: &Path) -> bool {
    recorded
        .files
        .iter()
        .all(|(rel, fp)| fingerprint_file(&docs_dir.join(rel)).ok() == Some(*fp))
        && orphaned_pages(docs_dir, recorded).is_empty()
}

/// Loads every stored report, grouped by workload (sorted by app name).
///
/// # Errors
///
/// Database I/O and corruption errors.
pub fn reports_by_workload(db: &Database) -> Result<BTreeMap<Workload, Vec<AppReport>>, DbError> {
    let mut grouped: BTreeMap<Workload, Vec<AppReport>> = BTreeMap::new();
    for report in db.load_all(&store::BASELINES)? {
        grouped.entry(report.workload).or_default().push(report);
    }
    Ok(grouped)
}

/// Renders the full documentation set for a database: `COMPATIBILITY.md`
/// plus one page per app under `apps/`, `SUPPORT_PLANS.md`, and — when
/// the database holds static reports — the `STATIC_VS_DYNAMIC.md`
/// comparison (Figs. 4–7).
///
/// # Errors
///
/// Database I/O and corruption errors, including a partially-populated
/// static namespace (some apps analysed, others not).
pub fn render(db: &Database) -> Result<RenderedDocs, DbError> {
    let grouped = reports_by_workload(db)?;
    let validations = db
        .load_all(&store::PLANS)?
        .into_iter()
        .map(|v| ((v.workload, v.os.clone()), v))
        .collect();
    let has_statics = !db.keys(&store::STATIC)?.is_empty();
    let cells = db.load_all(&store::MATRIX)?;
    let mut files = vec![
        (
            PathBuf::from("COMPATIBILITY.md"),
            render_matrix(&grouped, has_statics),
        ),
        (
            PathBuf::from("SUPPORT_PLANS.md"),
            render_support_plans(&grouped, &validations, !cells.is_empty()),
        ),
    ];
    if !cells.is_empty() {
        files.push((PathBuf::from("OS_MATRIX.md"), render_os_matrix(&cells)));
    }
    let suites = db.load_all(&store::SUITES)?;
    if !suites.is_empty() {
        files.push((PathBuf::from("CONFORMANCE.md"), render_conformance(&suites)));
    }
    if has_statics {
        let comparisons = crate::statics::compare(db).map_err(|e| match e {
            crate::statics::CompareError::Db(db_err) => db_err,
            other => DbError::Io(std::io::Error::other(other.to_string())),
        })?;
        files.push((
            PathBuf::from("STATIC_VS_DYNAMIC.md"),
            crate::statics::render_static_comparison(&comparisons),
        ));
    }

    let mut by_app: BTreeMap<&str, Vec<&AppReport>> = BTreeMap::new();
    for reports in grouped.values() {
        for report in reports {
            by_app.entry(report.app.as_str()).or_default().push(report);
        }
    }
    for (app, reports) in &by_app {
        files.push((
            PathBuf::from(format!("apps/{app}.md")),
            render_app_page(app, reports),
        ));
    }
    files.push((PathBuf::from("apps/README.md"), render_app_index(&by_app)));
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(RenderedDocs { files })
}

/// Writes the rendered set under `docs_dir`, returning the paths written.
///
/// # Errors
///
/// Database and filesystem errors.
pub fn write(db: &Database, docs_dir: &Path) -> Result<Vec<PathBuf>, DbError> {
    let rendered = render(db)?;
    for (rel, contents) in &rendered.files {
        let path = docs_dir.join(rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&path, contents)?;
    }
    // Prune generated pages whose app is no longer in the database.
    let record = fingerprints(&rendered);
    for rel in orphaned_pages(docs_dir, &record) {
        std::fs::remove_file(docs_dir.join(&rel))?;
    }
    Gate::new(db, "docs", &DOCS_READS).record(&record);
    Ok(rendered
        .files
        .iter()
        .map(|(rel, _)| docs_dir.join(rel))
        .collect())
}

/// Compares the rendered set against what is on disk under `docs_dir`.
/// An empty result means the checked-in docs match the database.
///
/// While the database and the executable are unchanged since the last
/// [`write`] or `check` recorded the set's fingerprints, the files on
/// disk are hashed against that record and nothing is rendered; any
/// mismatch, or any other input, renders afresh and reports drift file
/// by file.
///
/// # Errors
///
/// Database I/O and corruption errors (missing/stale files are *drift*,
/// not errors).
pub fn check(db: &Database, docs_dir: &Path) -> Result<Vec<Drift>, DbError> {
    let gate = Gate::new(db, "docs", &DOCS_READS);
    if gate
        .recorded()
        .is_some_and(|recorded| matches_record(&recorded, docs_dir))
    {
        return Ok(Vec::new());
    }
    let rendered = render(db)?;
    let record = fingerprints(&rendered);
    gate.record(&record);
    let mut drift = Vec::new();
    for (rel, contents) in &rendered.files {
        let path = docs_dir.join(rel);
        match std::fs::read_to_string(&path) {
            Ok(on_disk) if on_disk == *contents => {}
            Ok(_) => drift.push(Drift::Stale(rel.clone())),
            Err(_) => drift.push(Drift::Missing(rel.clone())),
        }
    }
    for rel in orphaned_pages(docs_dir, &record) {
        drift.push(Drift::Orphaned(rel));
    }
    Ok(drift)
}

pub(crate) fn workload_title(w: Workload) -> &'static str {
    match w {
        Workload::HealthCheck => "health-check",
        Workload::Benchmark => "benchmark",
        Workload::TestSuite => "test-suite",
    }
}

/// Renders the fleet-wide compatibility matrix. `link_statics` adds the
/// cross-link to `STATIC_VS_DYNAMIC.md`, which only exists when the
/// database holds static reports (a sweep ran with `--static`).
pub fn render_matrix(grouped: &BTreeMap<Workload, Vec<AppReport>>, link_statics: bool) -> String {
    let mut out = String::new();
    out.push_str("# Syscall compatibility matrix\n\n");
    out.push_str(
        "Generated by `loupe report` from a sweep database — **do not edit by\n\
         hand**. Regenerate with:\n\n\
         ```sh\n\
         cargo run --release -p loupe-cli -- sweep --db target/loupedb --workload all --jobs 2 --transfer --static --validate-plans\n\
         cargo run --release -p loupe-cli -- report --db target/loupedb --docs docs\n\
         ```\n\n\
         For every system call the fleet exercises, the matrix shows how many\n\
         applications traced it and for how many it must be **implemented**,\n\
         can be **stubbed** (return `-ENOSYS`), or can be **faked** (return\n\
         success without doing the work) — the paper's §3 classification,\n\
         aggregated over the population. *Advice* is the cheapest strategy\n\
         that satisfies every app using the call.\n\n",
    );

    for (&workload, reports) in grouped {
        let stats = FleetStats::aggregate(workload, reports);
        let _ = writeln!(
            out,
            "## {} workload — {} applications\n",
            workload_title(workload),
            stats.apps
        );
        let _ = writeln!(
            out,
            "{} distinct syscalls traced fleet-wide; **{} must be implemented**\n\
             somewhere in the fleet, {} are avoidable everywhere.\n",
            stats.rows.len(),
            stats.required_anywhere(),
            stats.avoidable_everywhere()
        );
        out.push_str(
            "| # | Syscall | Category | Used by | Requires impl | Stubbable | Fakeable | Advice |\n\
             |--:|---------|----------|--------:|--------------:|----------:|---------:|--------|\n",
        );
        for row in &stats.rows {
            let _ = writeln!(
                out,
                "| {} | `{}` | {} | {} | {} ({:.0}%) | {} | {} | {} |",
                row.sysno.raw(),
                row.sysno.name(),
                row.category.label(),
                row.apps_using,
                row.apps_requiring,
                row.importance * 100.0,
                row.apps_stubbable,
                row.apps_fakeable,
                row.advice()
            );
        }
        out.push('\n');

        render_plan_rollup(&mut out, &stats);
        render_impact_rollup(&mut out, reports);
        render_cost_rollup(&mut out, reports);
    }

    if link_statics {
        out.push_str(
            "---\n\nPer-application breakdowns live in [`apps/`](apps/README.md); the\n\
             static-analysis baselines are contrasted against these dynamic\n\
             measurements in [STATIC_VS_DYNAMIC.md](STATIC_VS_DYNAMIC.md).\n",
        );
    } else {
        out.push_str("---\n\nPer-application breakdowns live in [`apps/`](apps/README.md).\n");
    }
    out
}

/// How one (OS, workload) plan relates to its stored validation.
enum PlanStatus<'a> {
    /// No validation stored: the plan is a prediction only.
    Predicted,
    /// A validation is stored but was produced from a *different* plan
    /// (measurements moved since): its verdicts no longer apply.
    Stale,
    /// The stored validation matches this plan.
    Validated(&'a PlanValidation),
}

/// Renders the fleet × OS empirical compatibility matrix
/// (`OS_MATRIX.md`): the §5/Table 1 analogue at production scale, one
/// row per OS and workload with "works out of the box" vs "works with
/// plan" rates, plus per-OS failure causes straight from the restricted
/// kernel's boundary counters.
pub fn render_os_matrix(cells: &[MatrixCell]) -> String {
    let sizes = matrix::os_sizes(&os::db());
    let stats = matrix::aggregate(cells, &sizes);
    let mut out = String::new();
    out.push_str("# Fleet × OS empirical compatibility matrix\n\n");
    out.push_str(
        "Generated by `loupe report` from a sweep database — **do not edit by\n\
         hand**. Regenerate with:\n\n\
         ```sh\n\
         cargo run --release -p loupe-cli -- sweep --db target/loupedb --workload all --jobs 2 --all-os\n\
         cargo run --release -p loupe-cli -- report --db target/loupedb --docs docs\n\
         ```\n\n\
         Unlike [SUPPORT_PLANS.md](SUPPORT_PLANS.md) — which *derives* what each\n\
         OS is missing — every cell here was **executed**: the application's\n\
         workload ran on a restricted kernel exposing exactly the OS's syscall\n\
         surface. *Out of the box* is the vanilla tier (unimplemented syscalls\n\
         answer `-ENOSYS`); *with plan* additionally applies the support plan's\n\
         stub/fake guidance for the app — no new syscalls implemented, so the\n\
         delta is pure cheap-remediation gain. Apps are only credited against\n\
         their stored full-Linux baseline; *top missing* ranks the required\n\
         syscalls the OS lacks by how many still-blocked apps need them.\n\n",
    );

    // One table per workload, one row per OS (most-capable first).
    let mut workloads: Vec<Workload> = stats.iter().map(|r| r.workload).collect();
    workloads.sort_by_key(|w| w.label());
    workloads.dedup();
    for workload in workloads {
        let mut rows: Vec<&matrix::OsWorkloadStats> =
            stats.iter().filter(|r| r.workload == workload).collect();
        rows.sort_by(|a, b| {
            b.planned_pass
                .cmp(&a.planned_pass)
                .then(b.vanilla_pass.cmp(&a.vanilla_pass))
                .then(a.os.cmp(&b.os))
        });
        let apps = rows.iter().map(|r| r.apps).max().unwrap_or(0);
        let _ = writeln!(
            out,
            "## {} workload — {} applications\n",
            workload_title(workload),
            apps
        );
        out.push_str(
            "| OS | Syscalls | Out of the box | With plan | Plan gain | Full Linux | Top missing syscalls |\n\
             |----|---------:|---------------:|----------:|----------:|-----------:|----------------------|\n",
        );
        for row in rows {
            let top: Vec<String> = row
                .top_missing
                .iter()
                .take(4)
                .map(|(s, n)| format!("`{}` ({n})", s.name()))
                .collect();
            let _ = writeln!(
                out,
                "| [{}](#{}) | {} | {}/{} ({:.0}%) | {}/{} ({:.0}%) | +{} | {} | {} |",
                row.os,
                row.os,
                row.syscalls,
                row.vanilla_pass,
                row.apps,
                row.vanilla_rate() * 100.0,
                row.planned_pass,
                row.apps,
                row.planned_rate() * 100.0,
                row.plan_gain(),
                row.linux_pass,
                if top.is_empty() {
                    "–".to_owned()
                } else {
                    top.join(", ")
                }
            );
        }
        out.push('\n');
    }

    // Per-OS failure causes: blocked apps grouped by the first syscall
    // the restricted kernel rejected (the empirical cause), with the
    // analytical missing-required count alongside.
    out.push_str("## Per-OS failure causes\n\n");
    out.push_str(
        "For every OS, the apps still blocked *with the plan applied*, grouped\n\
         by the first syscall the restricted kernel rejected during the run.\n\n",
    );
    let mut os_names: Vec<&str> = cells.iter().map(|c| c.os.as_str()).collect();
    os_names.sort_unstable();
    os_names.dedup();
    for os_name in os_names {
        let _ = writeln!(out, "### {os_name}\n");
        let mut wrote_any = false;
        let mut os_workloads: Vec<Workload> = cells
            .iter()
            .filter(|c| c.os == os_name)
            .map(|c| c.workload)
            .collect();
        os_workloads.sort_by_key(|w| w.label());
        os_workloads.dedup();
        for workload in os_workloads {
            // first rejected syscall → blocked app names.
            let mut causes: BTreeMap<String, Vec<&str>> = BTreeMap::new();
            for cell in cells
                .iter()
                .filter(|c| c.os == os_name && c.workload == workload)
            {
                if cell.planned_at_least() {
                    continue;
                }
                let tier = cell.planned.as_ref().or(cell.vanilla.as_ref());
                let cause = match tier.and_then(|t| t.first_cause()) {
                    Some(s) => format!("`{s}`"),
                    None if !cell.linux_pass => "fails on full Linux".to_owned(),
                    None => "no rejection observed".to_owned(),
                };
                causes.entry(cause).or_default().push(cell.app.as_str());
            }
            if causes.is_empty() {
                continue;
            }
            if !wrote_any {
                out.push_str(
                    "| Workload | First rejected feature | Apps blocked | Examples |\n\
                     |----------|------------------------|-------------:|----------|\n",
                );
                wrote_any = true;
            }
            let mut rows: Vec<(String, Vec<&str>)> = causes.into_iter().collect();
            rows.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
            for (cause, apps) in rows {
                let examples: Vec<&str> = apps.iter().take(4).copied().collect();
                let more = apps.len().saturating_sub(examples.len());
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {}{} |",
                    workload_title(workload),
                    cause,
                    apps.len(),
                    examples.join(", "),
                    if more > 0 {
                        format!(", … (+{more})")
                    } else {
                        String::new()
                    }
                );
            }
        }
        if wrote_any {
            out.push('\n');
        } else {
            out.push_str("Every measured app runs with the plan applied.\n\n");
        }
    }

    out.push_str(
        "---\n\nPlan derivations live in [SUPPORT_PLANS.md](SUPPORT_PLANS.md); fleet-wide\n\
         classifications in [COMPATIBILITY.md](COMPATIBILITY.md).\n",
    );
    out
}

/// Renders `CONFORMANCE.md`: the generated conformance-suite summary —
/// suite sizes, per-tier executed verdicts, and agreement with the
/// empirical matrix verdicts each suite carries.
pub fn render_conformance(suites: &[ConformanceSuite]) -> String {
    let mut out = String::new();
    out.push_str("# Generated conformance suites\n\n");
    out.push_str(
        "Generated by `loupe report` from a sweep database — **do not edit by\n\
         hand**. Regenerate with:\n\n\
         ```sh\n\
         cargo run --release -p loupe-cli -- gentests --db target/loupedb --all-os --workload all --jobs 2\n\
         cargo run --release -p loupe-cli -- report --db target/loupedb --docs docs\n\
         ```\n\n\
         `loupe gentests` compiles each application's measurement corpus —\n\
         baseline trace, stub/fake classifications, fallback requirements and\n\
         impact data — into an *executable* conformance suite: an ordered,\n\
         minimal sequence of syscall cases a compatibility layer can run\n\
         against its own kernel (`gentests/<workload>/<app>.json` in the\n\
         database). *Implement* cases demand a real implementation; *fake*\n\
         cases accept a success shim; measured-stubbable syscalls carry no\n\
         case at all — `-ENOSYS` is tolerated there by construction. Every\n\
         suite is executed against its OS's vanilla and planned kernel\n\
         profiles; *matrix agreement* counts the suites whose verdicts\n\
         reproduce the [OS_MATRIX.md](OS_MATRIX.md) cell verdicts exactly —\n\
         the generator, the matrix sweep and the planner cross-validating\n\
         each other.\n\n",
    );

    // One table per workload, one row per OS (most suites passing first).
    struct Row {
        os: String,
        suites: usize,
        cases: usize,
        fake_cases: usize,
        vanilla_pass: usize,
        planned_pass: usize,
        agree: usize,
        expected: usize,
    }
    let mut workloads: Vec<Workload> = suites.iter().map(|s| s.workload).collect();
    workloads.sort_by_key(|w| w.label());
    workloads.dedup();
    let mut specs: BTreeMap<&str, Option<OsSpec>> = BTreeMap::new();
    for workload in workloads {
        let mut rows: BTreeMap<&str, Row> = BTreeMap::new();
        for suite in suites.iter().filter(|s| s.workload == workload) {
            let Some(spec) = specs
                .entry(suite.os.as_str())
                .or_insert_with(|| os::find(&suite.os))
            else {
                continue;
            };
            let row = rows.entry(suite.os.as_str()).or_insert_with(|| Row {
                os: suite.os.clone(),
                suites: 0,
                cases: 0,
                fake_cases: 0,
                vanilla_pass: 0,
                planned_pass: 0,
                agree: 0,
                expected: 0,
            });
            row.suites += 1;
            row.cases += suite.cases.len();
            row.fake_cases += suite
                .cases
                .iter()
                .filter(|c| c.expectation == CaseExpectation::ImplementedOrFaked)
                .count();
            row.vanilla_pass += usize::from(suite.verdict(spec, Tier::Vanilla));
            row.planned_pass += usize::from(suite.verdict(spec, Tier::Planned));
            let has_expectation =
                suite.expected.vanilla.is_some() || suite.expected.planned.is_some();
            if has_expectation {
                row.expected += 1;
                row.agree += usize::from(suite.disagreements(spec).is_empty());
            }
        }
        let mut rows: Vec<Row> = rows.into_values().collect();
        rows.sort_by(|a, b| {
            b.planned_pass
                .cmp(&a.planned_pass)
                .then(b.vanilla_pass.cmp(&a.vanilla_pass))
                .then(a.os.cmp(&b.os))
        });
        let apps = rows.iter().map(|r| r.suites).max().unwrap_or(0);
        let _ = writeln!(
            out,
            "## {} workload — {} suites per OS\n",
            workload_title(workload),
            apps
        );
        out.push_str(
            "| OS | Suites | Cases | Fake-tolerance cases | Out of the box | With plan | Matrix agreement |\n\
             |----|-------:|------:|---------------------:|---------------:|----------:|-----------------:|\n",
        );
        for row in rows {
            let _ = writeln!(
                out,
                "| [{}](OS_MATRIX.md#{}) | {} | {} | {} | {}/{} | {}/{} | {}/{} |",
                row.os,
                row.os,
                row.suites,
                row.cases,
                row.fake_cases,
                row.vanilla_pass,
                row.suites,
                row.planned_pass,
                row.suites,
                row.agree,
                row.expected,
            );
        }
        out.push('\n');
    }

    // Suite shape: the apps with the largest implement-surface, per
    // workload — "what a compat layer signs up for".
    out.push_str("## Largest suites\n\n");
    out.push_str(
        "Cases are identical across OSes for a given `(app, workload)` — the\n\
         corpus determines the suite; the OS only determines the verdict. The\n\
         heaviest conformance obligations in the fleet:\n\n",
    );
    out.push_str(
        "| App | Workload | Cases | Must implement | May fake | Tolerated stubs |\n\
         |-----|----------|------:|---------------:|---------:|----------------:|\n",
    );
    let mut shapes: BTreeMap<(&str, &'static str), &ConformanceSuite> = BTreeMap::new();
    for suite in suites {
        shapes
            .entry((suite.app.as_str(), suite.workload.label()))
            .or_insert(suite);
    }
    let mut shapes: Vec<&ConformanceSuite> = shapes.into_values().collect();
    shapes.sort_by(|a, b| {
        b.cases
            .len()
            .cmp(&a.cases.len())
            .then(a.app.cmp(&b.app))
            .then(a.workload.label().cmp(b.workload.label()))
    });
    for suite in shapes.into_iter().take(10) {
        let _ = writeln!(
            out,
            "| [{}](apps/{}.md) | {} | {} | {} | {} | {} |",
            suite.app,
            suite.app,
            workload_title(suite.workload),
            suite.cases.len(),
            suite.must_implement().len(),
            suite.may_fake().len(),
            suite.tolerated_stubs.len(),
        );
    }
    out.push('\n');

    out.push_str(
        "---\n\nEmpirical cell verdicts live in [OS_MATRIX.md](OS_MATRIX.md); plan\n\
         derivations in [SUPPORT_PLANS.md](SUPPORT_PLANS.md); fleet-wide\n\
         classifications in [COMPATIBILITY.md](COMPATIBILITY.md).\n",
    );
    out
}

/// Renders `SUPPORT_PLANS.md`: the per-OS Table 1 analogue, with each
/// step's empirical verdict when a matching validation is stored.
/// `link_matrix` adds per-OS cross-links into `OS_MATRIX.md`, which
/// only exists when the database holds matrix cells (a sweep ran with
/// `--all-os`/`--os`).
pub fn render_support_plans(
    grouped: &BTreeMap<Workload, Vec<AppReport>>,
    validations: &BTreeMap<(Workload, String), PlanValidation>,
    link_matrix: bool,
) -> String {
    let mut out = String::new();
    out.push_str("# Incremental support plans\n\n");
    out.push_str(
        "Generated by `loupe report` from a sweep database — **do not edit by\n\
         hand**. Regenerate (and re-validate) with:\n\n\
         ```sh\n\
         cargo run --release -p loupe-cli -- sweep --db target/loupedb --workload all --jobs 2 --transfer --static --validate-plans\n\
         cargo run --release -p loupe-cli -- report --db target/loupedb --docs docs\n\
         ```\n\n\
         For every curated OS (§4.1), the ordered steps that unlock the\n\
         measured fleet: implement the *Implement* column for real, answer the\n\
         *Stub* column with `-ENOSYS`, shim the *Fake* column with success\n\
         values. *Verdict* is **empirical** where a stored validation matches\n\
         the plan: the unlocked app's workload was replayed on a restricted\n\
         kernel exposing exactly the step's cumulative syscall surface, and\n\
         must pass there. Each step is also replayed one step earlier:\n\
         failing there proves the step *tight*; passing there is an *early\n\
         unlock* — the planner over-estimated, because a \"required\"\n\
         syscall can hide behind a code path that other stubbed features\n\
         disable. Steps adding no kernel behaviour (stub-only) are *free*:\n\
         unimplemented already answers `-ENOSYS`.\n\n",
    );

    for (&workload, reports) in grouped {
        let stats = FleetStats::aggregate(workload, reports);
        let _ = writeln!(
            out,
            "## {} workload — {} applications\n",
            workload_title(workload),
            stats.apps
        );

        // Per-OS overview, then the step-by-step tables.
        if link_matrix {
            out.push_str(
                "| OS | Supported today | Apps working now | Plan steps | Features to implement | Steps needing ≤3 | Validation | Empirical matrix |\n\
                 |----|----------------:|-----------------:|-----------:|----------------------:|------------------:|------------|------------------|\n",
            );
        } else {
            out.push_str(
                "| OS | Supported today | Apps working now | Plan steps | Features to implement | Steps needing ≤3 | Validation |\n\
                 |----|----------------:|-----------------:|-----------:|----------------------:|------------------:|------------|\n",
            );
        }
        let planned: Vec<(loupe_plan::OsSpec, SupportPlan, PlanStatus)> = os::db()
            .into_iter()
            .map(|spec| {
                let plan = SupportPlan::generate(&spec, &stats.requirements);
                let status = plan_status(workload, &plan, validations);
                (spec, plan, status)
            })
            .collect();
        for (spec, plan, status) in &planned {
            let _ = write!(
                out,
                "| [{}](#{}-{}-workload) | {} | {} | {} | {} | {:.0}% | {} |",
                spec.name,
                spec.name,
                workload_title(workload),
                spec.supported.len(),
                plan.initially_supported.len(),
                plan.steps.len(),
                plan.total_implemented() + plan.total_implemented_flags(),
                plan.small_step_fraction(3) * 100.0,
                match status {
                    PlanStatus::Predicted => "predicted".to_owned(),
                    PlanStatus::Stale => "stale (re-run `--validate-plans`)".to_owned(),
                    PlanStatus::Validated(v) =>
                        if !v.is_valid() {
                            format!("**INVALID** ({} failing steps)", v.failing_steps().len())
                        } else if v.is_tight() {
                            "**validated**".to_owned()
                        } else {
                            format!("**validated**, {} early unlocks", v.early_steps().len())
                        },
                }
            );
            if link_matrix {
                let _ = write!(out, " [pass rates](OS_MATRIX.md#{}) |", spec.name);
            }
            out.push('\n');
        }
        out.push('\n');

        for (_, plan, status) in &planned {
            render_one_plan(&mut out, workload, plan, status);
        }
    }

    out.push_str(
        "---\n\nFleet-wide classifications live in [COMPATIBILITY.md](COMPATIBILITY.md).\n",
    );
    out
}

fn plan_status<'a>(
    workload: Workload,
    plan: &SupportPlan,
    validations: &'a BTreeMap<(Workload, String), PlanValidation>,
) -> PlanStatus<'a> {
    match validations.get(&(workload, plan.os.clone())) {
        None => PlanStatus::Predicted,
        Some(v) if &v.plan == plan => PlanStatus::Validated(v),
        Some(_) => PlanStatus::Stale,
    }
}

/// Renders one column of plan work: whole syscalls plus flag-granular
/// sub-features (`fcntl:F_SETLK`) in the same cell, elided past 6 items.
fn fmt_work(set: &SysnoSet, flags: &[loupe_syscalls::SubFeatureKey]) -> String {
    let total = set.len() + flags.len();
    if total == 0 {
        "–".to_owned()
    } else if total > 6 {
        format!("({total} items)")
    } else {
        set.iter()
            .map(|s| format!("`{}`", s.name()))
            .chain(flags.iter().map(|k| format!("`{k}`")))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

fn render_one_plan(out: &mut String, workload: Workload, plan: &SupportPlan, status: &PlanStatus) {
    let _ = writeln!(
        out,
        "### {} ({} workload)\n",
        plan.os,
        workload_title(workload)
    );
    let initial_verdict = match status {
        PlanStatus::Validated(v) => {
            let failing: Vec<&str> = v
                .initial
                .iter()
                .filter(|iv| !iv.passes)
                .map(|iv| iv.app.as_str())
                .collect();
            if failing.is_empty() {
                " — all verified to run with zero work".to_owned()
            } else {
                format!(
                    " — **{} fail despite being listed**: {}",
                    failing.len(),
                    failing.join(", ")
                )
            }
        }
        _ => String::new(),
    };
    let _ = writeln!(
        out,
        "{} applications run before any work{initial_verdict}.\n",
        plan.initially_supported.len()
    );
    if plan.steps.is_empty() {
        out.push_str("No steps needed.\n\n");
        return;
    }
    out.push_str(
        "| Step | Implement | Stub | Fake | Support for… | Verdict |\n\
         |-----:|-----------|------|------|--------------|---------|\n",
    );
    for step in &plan.steps {
        let verdict = match status {
            PlanStatus::Predicted => "predicted".to_owned(),
            PlanStatus::Stale => "stale".to_owned(),
            PlanStatus::Validated(v) => match v.steps.iter().find(|s| s.index == step.index) {
                None => "missing verdict".to_owned(),
                Some(s) => {
                    let mut parts = Vec::new();
                    parts.push(if s.unlocked {
                        "✓ unlocks"
                    } else {
                        "**✗ still fails**"
                    });
                    parts.push(match s.locked_before {
                        None => "free step",
                        Some(true) => "tight",
                        Some(false) => "⚠ unlocked early",
                    });
                    parts.join(", ")
                }
            },
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | + {} | {} |",
            step.index,
            fmt_work(&step.implement, &step.implement_flags),
            fmt_work(&step.stub, &step.stub_flags),
            fmt_work(&step.fake, &step.fake_flags),
            step.unlocks,
            verdict
        );
    }
    out.push('\n');
}

/// Table 1-style rollup: how much work each curated OS needs to support
/// the measured fleet.
fn render_plan_rollup(out: &mut String, stats: &FleetStats) {
    out.push_str("### Support-plan rollup (curated OS specs)\n\n");
    out.push_str(
        "| OS | Supported today | Apps working now | Plan steps | Features to implement | Steps needing ≤3 |\n\
         |----|----------------:|-----------------:|-----------:|----------------------:|------------------:|\n",
    );
    for spec in os::db() {
        let plan = SupportPlan::generate(&spec, &stats.requirements);
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {:.0}% |",
            spec.name,
            spec.supported.len(),
            plan.initially_supported.len(),
            plan.steps.len(),
            plan.total_implemented() + plan.total_implemented_flags(),
            plan.small_step_fraction(3) * 100.0
        );
    }
    out.push('\n');
}

/// Table 2-style rollup: stub/fake runs that passed but moved a metric
/// beyond the error margin.
fn render_impact_rollup(out: &mut String, reports: &[AppReport]) {
    let mut rows = Vec::new();
    for report in reports {
        for (sysno, rec) in report.notable_impacts(IMPACT_EPSILON) {
            for (mode, impact) in [("stub", rec.stub), ("fake", rec.fake)] {
                if let Some(i) = impact {
                    if i.success && i.is_notable(IMPACT_EPSILON) {
                        rows.push((report.app.clone(), sysno, mode, i));
                    }
                }
            }
        }
    }
    if rows.is_empty() {
        return;
    }
    rows.sort_by(|a, b| (&a.0, a.1, a.2).cmp(&(&b.0, b.1, b.2)));
    out.push_str("### Notable stub/fake impacts (passes tests, metric moved >3%)\n\n");
    out.push_str(
        "| App | Syscall | Mode | Throughput | Peak RSS | Peak FDs |\n\
         |-----|---------|------|-----------:|---------:|---------:|\n",
    );
    let fmt_delta = |d: f64| {
        if d.abs() <= IMPACT_EPSILON {
            "–".to_owned()
        } else {
            format!("{:+.0}%", d * 100.0)
        }
    };
    for (app, sysno, mode, i) in rows {
        let _ = writeln!(
            out,
            "| {} | `{}` | {} | {} | {} | {} |",
            app,
            sysno.name(),
            mode,
            fmt_delta(i.perf_delta),
            fmt_delta(i.rss_delta),
            fmt_delta(i.fd_delta)
        );
    }
    out.push('\n');
}

/// §3.3-style cost rollup: how many application executions the stored
/// measurements took, and how many the §6 hint transfer saved.
fn render_cost_rollup(out: &mut String, reports: &[AppReport]) {
    let mut total = loupe_core::RunStats::default();
    for report in reports {
        total.absorb(&report.stats);
    }
    out.push_str("### Analysis cost (engine runs per app)\n\n");
    let _ = writeln!(
        out,
        "{} runs fleet-wide: {} framing, {} feature probes, {} bisection;\n\
         {} feature measurements were transfer-skipped (§6), saving {} runs.\n",
        total.total_runs(),
        total.framing_runs,
        total.feature_runs,
        total.bisect_runs,
        total.transfer_skips,
        total.saved_runs
    );
    out.push_str(
        "| App | Total runs | Framing | Feature | Bisect | Features tested | Transfer-skipped | Runs saved |\n\
         |-----|-----------:|--------:|--------:|-------:|----------------:|-----------------:|-----------:|\n",
    );
    for report in reports {
        let s = &report.stats;
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            report.app,
            s.total_runs(),
            s.framing_runs,
            s.feature_runs,
            s.bisect_runs,
            s.features_tested,
            s.transfer_skips,
            s.saved_runs
        );
    }
    out.push('\n');
}

/// Renders the index of per-app pages.
fn render_app_index(by_app: &BTreeMap<&str, Vec<&AppReport>>) -> String {
    let mut out = String::new();
    out.push_str("# Per-application reports\n\n");
    out.push_str("Generated by `loupe report` — do not edit by hand.\n\n");
    out.push_str("| App | Workloads | Traced | Required | Confirmed |\n");
    out.push_str("|-----|-----------|-------:|---------:|-----------|\n");
    for (app, reports) in by_app {
        let workloads: Vec<&str> = reports.iter().map(|r| r.workload.label()).collect();
        let traced: usize = reports.iter().map(|r| r.traced().len()).max().unwrap_or(0);
        let required: usize = reports
            .iter()
            .map(|r| r.required().len())
            .max()
            .unwrap_or(0);
        let confirmed = reports.iter().all(|r| r.confirmed);
        let _ = writeln!(
            out,
            "| [{app}]({app}.md) | {} | {traced} | {required} | {} |",
            workloads.join(", "),
            if confirmed { "yes" } else { "no" }
        );
    }
    out
}

/// Renders one application's page from all its stored workload reports.
pub fn render_app_page(app: &str, reports: &[&AppReport]) -> String {
    let mut out = String::new();
    let version = reports.first().map(|r| r.version.as_str()).unwrap_or("?");
    let _ = writeln!(out, "# {app} (version {version})\n");
    out.push_str("Generated by `loupe report` — do not edit by hand.\n");

    for report in reports {
        let _ = writeln!(out, "\n## {} workload\n", workload_title(report.workload));
        let _ = writeln!(
            out,
            "- traced: {} syscalls over {} engine runs\n\
             - required: {}, stubbable: {}, fakeable: {}\n\
             - combined stub/fake policy confirmed: {}",
            report.traced().len(),
            report.stats.total_runs(),
            report.required().len(),
            report.stubbable().len(),
            report.fakeable().len(),
            if report.confirmed { "yes" } else { "no" }
        );
        if report.stats.transfer_skips > 0 {
            let _ = writeln!(
                out,
                "- transfer-skipped: {} feature measurements ({} runs saved, §6)",
                report.stats.transfer_skips, report.stats.saved_runs
            );
        }
        if !report.conflicts.is_empty() {
            let names: Vec<&str> = report.conflicts.iter().map(|s| s.name()).collect();
            let _ = writeln!(
                out,
                "- conflict bisection re-marked as required: `{}`",
                names.join("`, `")
            );
        }
        if !report.fallbacks.is_empty() {
            let names: Vec<String> = report
                .fallbacks
                .iter()
                .map(|s| s.name().to_owned())
                .collect();
            let _ = writeln!(
                out,
                "- fallback requirements (untraced in baseline, exercised by the \
                 combined stub/fake policy): `{}`",
                names.join("`, `")
            );
        }

        out.push_str(
            "\n| Syscall | Calls | Classification |\n|---------|------:|----------------|\n",
        );
        for (sysno, count) in &report.traced {
            let class = report
                .classes
                .get(sysno)
                .map(|c| c.label())
                .unwrap_or("untested");
            let _ = writeln!(out, "| `{}` | {} | {} |", sysno.name(), count, class);
        }

        if !report.sub_features.is_empty() {
            out.push_str("\nSub-features of vectored syscalls:\n\n");
            out.push_str("| Sub-feature | Classification |\n|-------------|----------------|\n");
            for (key, class) in &report.sub_features {
                let _ = writeln!(out, "| `{key}` | {} |", class.label());
            }
        }
        if !report.pseudo_files.is_empty() {
            out.push_str("\nPseudo-file accesses:\n\n");
            out.push_str("| Path | Classification |\n|------|----------------|\n");
            for (path, class) in &report.pseudo_files {
                let _ = writeln!(out, "| `{path}` | {} |", class.label());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sweep, SweepConfig};
    use loupe_apps::registry;
    use loupe_core::fingerprint_of;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("loupe-report-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn seeded_db(tag: &str, apps: usize) -> (PathBuf, Database) {
        let dir = tmpdir(tag);
        let db = Database::open(&dir).unwrap();
        let sweep = Sweep::new(SweepConfig {
            workloads: vec![Workload::HealthCheck],
            ..SweepConfig::default()
        });
        let fleet: Vec<_> = registry::detailed().into_iter().take(apps).collect();
        sweep.run(&db, fleet).unwrap();
        (dir, db)
    }

    /// The executable is an input of the docs' gate: docs an old build
    /// rendered and recorded pass its own check, and a new build that
    /// renders them differently renders afresh and reports the drift a
    /// full render finds.
    #[test]
    fn a_changed_executable_renders_afresh() {
        use crate::rendered::tests::CODE_IDENTITY;
        let (dir, db) = seeded_db("code-identity", 3);
        let docs = tmpdir("code-identity-docs");
        let build = |name: &str| CODE_IDENTITY.with(|c| c.set(Some(fingerprint_of(&name))));
        build("old");
        write(&db, &docs).unwrap();
        // What the old build rendered differs from this code's output
        // in one file, and its record says so.
        let page = docs.join("COMPATIBILITY.md");
        let old_text = format!("{}old build\n", std::fs::read_to_string(&page).unwrap());
        std::fs::write(&page, &old_text).unwrap();
        let mut old_record = fingerprints(&render(&db).unwrap());
        old_record.files.insert(
            "COMPATIBILITY.md".to_owned(),
            fingerprint_bytes(old_text.as_bytes()),
        );
        Gate::new(&db, "docs", &DOCS_READS).record(&old_record);
        assert_eq!(check(&db, &docs).unwrap(), vec![]);

        build("new");
        assert_eq!(
            check(&db, &docs).unwrap(),
            vec![Drift::Stale(PathBuf::from("COMPATIBILITY.md"))]
        );
        let counted = db.session_cache_stats().namespaces[loupe_db::ns::RENDERED];
        assert_eq!((counted.hits, counted.stale), (1, 1));
        CODE_IDENTITY.with(|c| c.set(None));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&docs).ok();
    }

    #[test]
    fn rendering_is_deterministic() {
        let (dir, db) = seeded_db("det", 5);
        let a = render(&db).unwrap();
        let b = render(&db).unwrap();
        assert_eq!(a, b);
        assert!(a.files.iter().any(|(p, _)| p.ends_with("COMPATIBILITY.md")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn matrix_mentions_every_app_and_core_syscalls() {
        let (dir, db) = seeded_db("content", 3);
        let rendered = render(&db).unwrap();
        let matrix = &rendered
            .files
            .iter()
            .find(|(p, _)| p.ends_with("COMPATIBILITY.md"))
            .unwrap()
            .1;
        assert!(matrix.contains("| Syscall |"));
        assert!(matrix.contains("`mmap`"), "core syscalls appear");
        assert!(matrix.contains("3 applications"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_detects_missing_stale_and_clean_docs() {
        let (dir, db) = seeded_db("drift", 2);
        let docs = dir.join("docs");

        // Nothing written yet: everything is missing.
        let drift = check(&db, &docs).unwrap();
        assert!(!drift.is_empty());
        assert!(matches!(drift[0], Drift::Missing(_)));

        // After writing, the check is clean.
        write(&db, &docs).unwrap();
        assert!(check(&db, &docs).unwrap().is_empty());

        // Tampering makes it stale.
        let matrix = docs.join("COMPATIBILITY.md");
        std::fs::write(&matrix, "tampered").unwrap();
        let drift = check(&db, &docs).unwrap();
        assert!(drift
            .iter()
            .any(|d| matches!(d, Drift::Stale(p) if p.ends_with("COMPATIBILITY.md"))));

        // A generated page whose app left the database is orphaned —
        // flagged by check() and pruned by the next write().
        let ghost = docs.join("apps/ghost.md");
        std::fs::write(&ghost, "left behind").unwrap();
        let drift = check(&db, &docs).unwrap();
        assert!(drift
            .iter()
            .any(|d| matches!(d, Drift::Orphaned(p) if p.ends_with("ghost.md"))));
        write(&db, &docs).unwrap();
        assert!(!ghost.exists(), "write() prunes orphaned pages");
        assert!(check(&db, &docs).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn support_plans_render_predicted_then_validated() {
        let (dir, db) = seeded_db("plans", 4);
        let rendered = render(&db).unwrap();
        let plans = &rendered
            .files
            .iter()
            .find(|(p, _)| p.ends_with("SUPPORT_PLANS.md"))
            .unwrap()
            .1;
        assert!(plans.contains("kerla"), "every curated OS appears");
        assert!(
            plans.contains("predicted") && !plans.contains("✓ unlocks"),
            "no validations stored yet: predictions only"
        );

        crate::plans::validate_curated_plans(&db, &[Workload::HealthCheck]).unwrap();
        let rendered = render(&db).unwrap();
        let plans = &rendered
            .files
            .iter()
            .find(|(p, _)| p.ends_with("SUPPORT_PLANS.md"))
            .unwrap()
            .1;
        assert!(
            plans.contains("**validated**"),
            "summary flips to validated"
        );
        assert!(plans.contains("✓ unlocks"), "per-step verdicts render");
        assert!(
            !plans.contains("predicted |"),
            "no step left unvalidated for stored workloads"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn os_matrix_renders_after_a_matrix_sweep_and_cross_links() {
        use loupe_plan::os;
        let (dir, db) = seeded_db("osmatrix", 4);
        // No matrix cells yet: no OS_MATRIX.md, no cross-link column.
        let rendered = render(&db).unwrap();
        assert!(!rendered
            .files
            .iter()
            .any(|(p, _)| p.ends_with("OS_MATRIX.md")));
        let plans = &rendered
            .files
            .iter()
            .find(|(p, _)| p.ends_with("SUPPORT_PLANS.md"))
            .unwrap()
            .1;
        assert!(!plans.contains("OS_MATRIX.md"));

        let cfg = crate::MatrixConfig {
            oses: vec![os::find("kerla").unwrap(), os::find("gvisor").unwrap()],
            sweep: crate::SweepConfig {
                workloads: vec![Workload::HealthCheck],
                ..crate::SweepConfig::default()
            },
            ..crate::MatrixConfig::default()
        };
        let fleet: Vec<_> = registry::detailed().into_iter().take(4).collect();
        crate::sweep_matrix(&db, fleet, &cfg).unwrap();

        let rendered = render(&db).unwrap();
        let matrix_doc = &rendered
            .files
            .iter()
            .find(|(p, _)| p.ends_with("OS_MATRIX.md"))
            .expect("OS_MATRIX.md rendered once cells exist")
            .1;
        assert!(
            matrix_doc.contains("[kerla](#kerla)"),
            "row links to section"
        );
        assert!(matrix_doc.contains("### kerla"), "per-OS section exists");
        assert!(matrix_doc.contains("Out of the box"));
        assert!(
            matrix_doc.contains("First rejected feature"),
            "failure causes render"
        );
        let plans = &rendered
            .files
            .iter()
            .find(|(p, _)| p.ends_with("SUPPORT_PLANS.md"))
            .unwrap()
            .1;
        assert!(
            plans.contains("[pass rates](OS_MATRIX.md#kerla)"),
            "per-OS rows cross-link to the matrix"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn app_pages_cover_every_stored_app() {
        let (dir, db) = seeded_db("pages", 4);
        let rendered = render(&db).unwrap();
        for report in db.load_all(&store::BASELINES).unwrap() {
            let app = report.app;
            assert!(
                rendered
                    .files
                    .iter()
                    .any(|(p, _)| p.ends_with(format!("{app}.md"))),
                "page for {app}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
