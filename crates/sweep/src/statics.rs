//! The static-analysis sweep stage and the fleet-wide static-vs-dynamic
//! comparison (the paper's Figs. 4–7 and §5.1).
//!
//! The paper's headline argument is that static analysis overestimates
//! application syscall requirements 2–5×, which misdirects
//! compatibility-layer effort. This module makes that argument
//! measurable over the whole fleet:
//!
//! * [`sweep_static`] lowers every app to its [`ProgramGraph`] and runs
//!   graph reachability at each rung of the precision ladder
//!   ([`Level::ALL`]) on the shared bounded worker pool, persisting the
//!   [`StaticReport`]s in the database's level-keyed `static/`
//!   namespace ([`sweep_static_levels`] restricts the rungs);
//! * [`compare`] joins the static reports against the stored dynamic
//!   measurements of every workload and computes, per app, the Fig. 4
//!   overestimation factor at every level — checking the containment
//!   chain **dynamic ⊆ L3 ⊆ L2 ⊆ L1 ⊆ L0** along the way — plus the
//!   Fig. 6/7 API-importance rank shifts and, per curated OS, the size
//!   of a support plan built from each level's requirements vs the
//!   validated dynamic plan (the "static plans waste effort" claim);
//! * [`render_static_comparison`] turns the comparisons into the
//!   generated, drift-checked `docs/STATIC_VS_DYNAMIC.md`, including
//!   worked witness examples showing *why* an analyser attributed a
//!   syscall.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt;
use std::fmt::Write as _;

use loupe_apps::{AppModel, ProgramGraph, Workload};
use loupe_core::{fingerprint_of, AppReport};
use loupe_db::store::{self, Layout, Rendered};
use loupe_db::{Database, DbError};
use loupe_plan::{importance_fractions, os, AppRequirement, SupportPlan};
use loupe_static::{analyze_graph, Level, StaticReport};
use loupe_syscalls::{Sysno, SysnoSet};

use crate::rendered::Gate;
use crate::stage::{self, Failed, Outcome, Stage};

/// The outcome of a static sweep.
#[derive(Debug, Clone)]
pub struct StaticSweepSummary {
    /// Entries analysed fresh in this sweep.
    pub analyzed: usize,
    /// Entries served from the database.
    pub cached: usize,
    /// The reports analysed fresh in this sweep, deterministically
    /// ordered by `(app, level)`. Cache hits are answered from the
    /// provenance manifest without re-reading (or re-parsing) the
    /// stored artifact — load them with [`Database::get`] if
    /// their content is needed.
    pub reports: Vec<StaticReport>,
}

/// Runs the full precision ladder over `apps`: shorthand for
/// [`sweep_static_levels`] with [`Level::ALL`].
///
/// # Errors
///
/// Database I/O and corruption errors; a panicking analyser surfaces as
/// an I/O error naming the app.
pub fn sweep_static(
    db: &Database,
    apps: Vec<Box<dyn AppModel>>,
    workers: usize,
    force: bool,
) -> Result<StaticSweepSummary, DbError> {
    sweep_static_levels(db, apps, &Level::ALL, workers, force)
}

/// Lowers each app to its program graph once, then analyses it at each
/// of `levels` on a bounded worker pool, persisting every report into
/// `db`'s `static/` namespace. Cached entries are skipped unless
/// `force` re-analyses them (overwriting: static analysis is pure,
/// there is nothing to merge). `workers = 0` picks
/// `min(available_parallelism, 16)`.
///
/// # Errors
///
/// Database I/O and corruption errors; a panicking analyser surfaces as
/// an I/O error naming the app.
pub fn sweep_static_levels(
    db: &Database,
    mut apps: Vec<Box<dyn AppModel>>,
    levels: &[Level],
    workers: usize,
    force: bool,
) -> Result<StaticSweepSummary, DbError> {
    let mut seen = std::collections::BTreeSet::new();
    apps.retain(|app| seen.insert(app.name().to_owned()));

    // The graph — and therefore every level's report — is a pure
    // function of the app's descriptor, so the cache input set is the
    // (spec, code) fingerprint alone, computed once per app.
    let jobs: Vec<stage::Job<(usize, Level)>> = apps
        .iter()
        .enumerate()
        .flat_map(|(a, app)| {
            let app_fp = fingerprint_of(&(app.spec(), app.code()));
            levels.iter().map(move |&level| stage::Job {
                key: loupe_db::static_key(level, app.name()),
                inputs: [("app".to_owned(), app_fp)].into(),
                item: (a, level),
            })
        })
        .collect();
    // Graphs are lowered on demand and shared read-only across the
    // per-level jobs: a fully cached sweep (the common CI re-run)
    // answers every job from the provenance manifest and never lowers
    // anything.
    let graphs: Vec<std::sync::OnceLock<ProgramGraph>> = (0..apps.len())
        .map(|_| std::sync::OnceLock::new())
        .collect();

    let stage = Stage::new(db, &store::STATIC, workers, force);
    let outcomes = stage.run(&jobs, stage::any, |job, why| {
        let (a, level) = job.item;
        let graph = graphs[a].get_or_init(|| ProgramGraph::lower(apps[a].as_ref()));
        let report = analyze_graph(graph, level);
        stage.commit(job, why, &report, BTreeMap::new())?;
        Ok::<_, Failed<Infallible>>(report)
    });

    let mut summary = StaticSweepSummary {
        analyzed: 0,
        cached: 0,
        reports: Vec::new(),
    };
    for (outcome, job) in outcomes.into_iter().zip(&jobs) {
        match outcome {
            Ok(Outcome::Hit(())) => summary.cached += 1,
            Ok(Outcome::Derived(r)) => {
                summary.analyzed += 1;
                summary.reports.push(r);
            }
            Err(failed) => {
                let (a, level) = job.item;
                let what = || format!("static analysis of {} ({})", apps[a].name(), level.label());
                match failed.into_error(what)? {}
            }
        }
    }
    summary
        .reports
        .sort_by(|a, b| (&a.app, a.level).cmp(&(&b.app, b.level)));
    Ok(summary)
}

/// Errors from the static-vs-dynamic comparison.
#[derive(Debug)]
pub enum CompareError {
    /// Database I/O or corruption.
    Db(DbError),
    /// No dynamic measurements stored: nothing to compare against.
    NoDynamicReports,
    /// A dynamic report has no static counterpart at this level — run
    /// `loupe sweep --static` first.
    MissingStatic {
        /// Application missing a static report.
        app: String,
        /// The missing level.
        level: Level,
    },
}

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompareError::Db(e) => write!(f, "{e}"),
            CompareError::NoDynamicReports => {
                write!(f, "no dynamic measurements stored; run `loupe sweep` first")
            }
            CompareError::MissingStatic { app, level } => write!(
                f,
                "no {} static report for `{app}`; run `loupe sweep --static` first",
                level.label()
            ),
        }
    }
}

impl std::error::Error for CompareError {}

impl From<DbError> for CompareError {
    fn from(e: DbError) -> Self {
        CompareError::Db(e)
    }
}

/// Index of `level` in [`Level::ALL`] (and in every `[_; 4]` array of
/// per-level values below).
fn level_index(level: Level) -> usize {
    Level::ALL.iter().position(|&l| l == level).unwrap()
}

/// One precision rung's numbers for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelStats {
    /// The precision level.
    pub level: Level,
    /// Syscalls the analyser attributes to the app at this level.
    pub attributed: usize,
    /// `attributed / dynamic_used` (≥ 1 whenever containment holds).
    pub over_used: f64,
    /// `attributed / dynamic_required` — the effort misdirection
    /// factor.
    pub over_required: f64,
}

/// One application's static-vs-dynamic numbers (a Fig. 4 bar group,
/// one bar per precision level).
#[derive(Debug, Clone, PartialEq)]
pub struct AppComparison {
    /// Application name.
    pub app: String,
    /// Syscalls the workload actually exercised (traced ∪ fallbacks).
    pub dynamic_used: usize,
    /// Syscalls Loupe says must be implemented (`plan_required`).
    pub dynamic_required: usize,
    /// Per-level stats, coarsest (L0) first — same order as
    /// [`Level::ALL`].
    pub levels: Vec<LevelStats>,
    /// Whether dynamic ⊆ L3 ⊆ L2 ⊆ L1 ⊆ L0 holds for this app.
    pub chain_ok: bool,
    /// Each broken link, as (description, syscalls the coarser side
    /// missed). Empty when `chain_ok`.
    pub chain_breaks: Vec<(String, SysnoSet)>,
}

impl AppComparison {
    /// The stats for `level`.
    pub fn level(&self, level: Level) -> &LevelStats {
        &self.levels[level_index(level)]
    }
}

/// How one syscall's importance rank moves between the static and
/// dynamic definitions of "needed" (Figs. 6–7).
#[derive(Debug, Clone, PartialEq)]
pub struct RankShift {
    /// The syscall.
    pub sysno: Sysno,
    /// Rank under the dynamic (Loupe required) definition, 1-based.
    pub dynamic_rank: usize,
    /// Fraction of apps requiring it dynamically.
    pub dynamic_importance: f64,
    /// Rank under the static (naive binary, L0) definition, 1-based;
    /// `None` if static analysis never attributes it to any app.
    pub static_rank: Option<usize>,
    /// Fraction of app binaries containing it statically.
    pub static_importance: f64,
}

/// Static-plan vs dynamic-plan sizes for one curated OS: the per-OS
/// "static plans waste effort" numbers, at every precision level.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDelta {
    /// Target OS.
    pub os: String,
    /// Apps the OS supports before any work, per the dynamic plan.
    pub dynamic_initial: usize,
    /// Syscalls the dynamic plan implements in total.
    pub dynamic_implemented: usize,
    /// Apps supported with zero work when requirements come from each
    /// level's analyser (L0 first, as [`Level::ALL`]).
    pub level_initial: [usize; 4],
    /// Syscalls a plan built from each level's requirements implements.
    pub level_implemented: [usize; 4],
}

impl PlanDelta {
    /// Apps supported at step 0 under `level`'s requirements.
    pub fn initial(&self, level: Level) -> usize {
        self.level_initial[level_index(level)]
    }

    /// Syscalls a plan built from `level`'s requirements implements.
    pub fn implemented(&self, level: Level) -> usize {
        self.level_implemented[level_index(level)]
    }

    /// Implementation work the `level` plan schedules beyond the
    /// dynamic plan.
    pub fn waste(&self, level: Level) -> usize {
        self.implemented(level)
            .saturating_sub(self.dynamic_implemented)
    }

    /// Waste of the source-level (L3) plan.
    pub fn source_waste(&self) -> usize {
        self.waste(Level::L3)
    }

    /// Waste of the naive binary (L0) plan.
    pub fn binary_waste(&self) -> usize {
        self.waste(Level::L0)
    }
}

/// A worked witness example for the generated docs: one attributed
/// syscall and the call path that justifies it.
#[derive(Debug, Clone, PartialEq)]
pub struct WitnessExample {
    /// Application whose graph the path runs through.
    pub app: String,
    /// Level whose analyser produced the witness.
    pub level: Level,
    /// The attributed syscall.
    pub sysno: Sysno,
    /// The rendered entry→site path (see `loupe_static::Witness`).
    pub rendered: String,
    /// Why this example was picked, for the doc caption.
    pub note: String,
}

/// The full static-vs-dynamic comparison for one workload.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The workload whose dynamic measurements anchor the comparison.
    pub workload: Workload,
    /// Per-app factors, sorted by app name.
    pub apps: Vec<AppComparison>,
    /// Mean `attributed / dynamic_used` over the fleet, per level
    /// (L0 first).
    pub mean_factor: [f64; 4],
    /// Median `attributed / dynamic_used` over the fleet, per level.
    pub median_factor: [f64; 4],
    /// Distinct syscalls attributed anywhere in the fleet, per level.
    pub fleet_static: [usize; 4],
    /// Distinct syscalls exercised anywhere in the fleet dynamically.
    pub fleet_dynamic_used: usize,
    /// Distinct syscalls required anywhere per Loupe.
    pub fleet_dynamic_required: usize,
    /// Importance rank shifts for the dynamically most-required
    /// syscalls.
    pub rank_shifts: Vec<RankShift>,
    /// Per-curated-OS plan-size deltas.
    pub plan_deltas: Vec<PlanDelta>,
    /// Worked witness examples (deterministically chosen; empty when
    /// the stored reports predate witnesses).
    pub witness_examples: Vec<WitnessExample>,
}

impl Comparison {
    /// Whether dynamic ⊆ L3 ⊆ L2 ⊆ L1 ⊆ L0 holds for every app.
    pub fn invariants_hold(&self) -> bool {
        self.apps.iter().all(|a| a.chain_ok)
    }

    /// Mean over-used factor at `level`.
    pub fn mean_factor_of(&self, level: Level) -> f64 {
        self.mean_factor[level_index(level)]
    }
}

/// Number of top dynamically-required syscalls whose rank shift is
/// tabulated (Fig. 6/7 show a comparable head of the distribution).
const RANK_SHIFT_ROWS: usize = 15;

fn ratio(over: usize, under: usize) -> f64 {
    over as f64 / under.max(1) as f64
}

fn median(sorted: &mut [f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Joins the stored static reports against the stored dynamic
/// measurements and computes one [`Comparison`] per workload that has
/// dynamic reports.
///
/// # Errors
///
/// Database failures, an empty dynamic namespace, or a dynamic report
/// with no static counterpart.
pub fn compare(db: &Database) -> Result<Vec<Comparison>, CompareError> {
    // One bulk read of the static namespace serves every workload.
    let statics: BTreeMap<(String, Level), StaticReport> = db
        .load_all(&store::STATIC)?
        .into_iter()
        .map(|r| ((r.app.clone(), r.level), r))
        .collect();
    let mut out = Vec::new();
    for (workload, reports) in crate::report::reports_by_workload(db)? {
        out.push(compare_workload(&statics, workload, &reports)?);
    }
    if out.is_empty() {
        return Err(CompareError::NoDynamicReports);
    }
    Ok(out)
}

/// The namespaces [`compare`] reads: the inputs of its output's gate.
static COMPARE_READS: [&Layout; 2] = [&store::BASELINES.layout, &store::STATIC.layout];

/// [`compare`] rendered as `loupe compare` prints it, through the cache
/// gate ([`crate::rendered`]): while the baselines, the static reports
/// and the executable are unchanged since the last call recorded it,
/// the recorded text is returned and nothing is decoded.
///
/// # Errors
///
/// As [`compare`], when the output is rendered afresh.
pub fn compare_output(db: &Database) -> Result<Rendered, CompareError> {
    let gate = Gate::new(db, "compare", &COMPARE_READS);
    if let Some(recorded) = gate.recorded() {
        return Ok(recorded);
    }
    let output = render_compare(&compare(db)?);
    gate.record(&output);
    Ok(output)
}

/// What `loupe compare` prints for `comparisons`: per workload, the
/// fleet numbers, the mean factors with the containment-chain verdict,
/// and the per-OS plan waste on stdout; one `CHAIN BROKEN` line per
/// broken link on stderr; and, as `failed`, the apps that break the
/// chain, sorted.
pub fn render_compare(comparisons: &[Comparison]) -> Rendered {
    let mut stdout = String::new();
    let mut stderr = String::new();
    let mut failed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for c in comparisons {
        let _ = writeln!(
            stdout,
            "{} workload: {} apps; fleet syscalls: {} dynamic ({} required); \
             static L0/L1/L2/L3: {}/{}/{}/{}",
            c.workload,
            c.apps.len(),
            c.fleet_dynamic_used,
            c.fleet_dynamic_required,
            c.fleet_static[0],
            c.fleet_static[1],
            c.fleet_static[2],
            c.fleet_static[3]
        );
        let _ = writeln!(
            stdout,
            "  mean per-app overestimation: {:.2}x (L0), {:.2}x (L1), {:.2}x (L2), \
             {:.2}x (L3); chain dynamic ⊆ L3 ⊆ L2 ⊆ L1 ⊆ L0: {}",
            c.mean_factor[0],
            c.mean_factor[1],
            c.mean_factor[2],
            c.mean_factor[3],
            if c.invariants_hold() {
                "holds for every app"
            } else {
                "VIOLATED"
            }
        );
        for a in c.apps.iter().filter(|a| !a.chain_ok) {
            failed.insert(a.app.clone());
            for (link, missing) in &a.chain_breaks {
                let _ = writeln!(
                    stderr,
                    "  CHAIN BROKEN for {} ({} workload): {link}, coarser side misses {missing}",
                    a.app, c.workload
                );
            }
        }
        stdout
            .push_str("  static-plan waste per OS (extra syscalls implemented vs dynamic plan):\n");
        for d in &c.plan_deltas {
            let _ = writeln!(
                stdout,
                "    {:<14} implement {:>3} (dyn) vs {:>3} (L3, +{}) vs {:>3} (L0, +{})",
                d.os,
                d.dynamic_implemented,
                d.implemented(Level::L3),
                d.source_waste(),
                d.implemented(Level::L0),
                d.binary_waste()
            );
        }
    }
    Rendered {
        name: "compare".to_owned(),
        stdout,
        stderr,
        failed: failed.into_iter().collect(),
        ..Rendered::default()
    }
}

fn compare_workload(
    statics: &BTreeMap<(String, Level), StaticReport>,
    workload: Workload,
    reports: &[AppReport],
) -> Result<Comparison, CompareError> {
    let mut apps = Vec::new();
    let mut statics_l0 = Vec::new();
    let mut level_reqs: [Vec<AppRequirement>; 4] = Default::default();
    let mut fleet_used = SysnoSet::new();
    let mut fleet_required = SysnoSet::new();
    let mut fleet_static_sets: [SysnoSet; 4] = Default::default();
    let mut witness_examples = Vec::new();

    for report in reports {
        let ladder: Vec<&StaticReport> = Level::ALL
            .iter()
            .map(|&level| {
                statics.get(&(report.app.clone(), level)).ok_or_else(|| {
                    CompareError::MissingStatic {
                        app: report.app.clone(),
                        level,
                    }
                })
            })
            .collect::<Result<_, _>>()?;

        let used = report.traced().union(&report.fallbacks);
        let required = report.plan_required();

        // The containment chain, finest set first: each link's finer
        // side must sit inside the coarser side.
        let mut chain_breaks = Vec::new();
        let missing_from_l3 = used.difference(&ladder[3].syscalls);
        if !missing_from_l3.is_empty() {
            chain_breaks.push(("dynamic ⊄ l3".to_owned(), missing_from_l3));
        }
        for fine in (1..4).rev() {
            let coarse = fine - 1;
            let missing = ladder[fine].syscalls.difference(&ladder[coarse].syscalls);
            if !missing.is_empty() {
                chain_breaks.push((
                    format!(
                        "{} ⊄ {}",
                        Level::ALL[fine].label(),
                        Level::ALL[coarse].label()
                    ),
                    missing,
                ));
            }
        }

        let levels: Vec<LevelStats> = ladder
            .iter()
            .map(|r| LevelStats {
                level: r.level,
                attributed: r.syscalls.len(),
                over_used: ratio(r.syscalls.len(), used.len()),
                over_required: ratio(r.syscalls.len(), required.len()),
            })
            .collect();

        apps.push(AppComparison {
            app: report.app.clone(),
            dynamic_used: used.len(),
            dynamic_required: required.len(),
            levels,
            chain_ok: chain_breaks.is_empty(),
            chain_breaks,
        });

        fleet_used = fleet_used.union(&used);
        fleet_required = fleet_required.union(&required);
        for (i, r) in ladder.iter().enumerate() {
            fleet_static_sets[i] = fleet_static_sets[i].union(&r.syscalls);
            // Static "requirements": a static analyser cannot tell
            // stubbable from required, so a plan built on it must
            // implement everything it reports — exactly the
            // misdirection the paper quantifies.
            level_reqs[i].push(static_requirement(r));
        }

        // Two worked examples from the first app whose reports carry
        // witnesses (reports are sorted by app, so this is stable):
        // the deepest L3 path, and a syscall only the naive L0 view
        // attributes.
        if witness_examples.is_empty() && !ladder[3].witnesses.is_empty() {
            if let Some(w) = ladder[3]
                .witnesses
                .iter()
                .max_by_key(|w| (w.path.len(), std::cmp::Reverse(w.sysno)))
            {
                witness_examples.push(WitnessExample {
                    app: report.app.clone(),
                    level: Level::L3,
                    sysno: w.sysno,
                    rendered: w.render(),
                    note: "deepest source-level (L3) attribution path".to_owned(),
                });
            }
            if let Some(w) = ladder[0]
                .witnesses
                .iter()
                .find(|w| !ladder[3].syscalls.contains(w.sysno))
            {
                witness_examples.push(WitnessExample {
                    app: report.app.clone(),
                    level: Level::L0,
                    sysno: w.sysno,
                    rendered: w.render(),
                    note: "attributed only by the naive binary view (L0); \
                           every finer level prunes it"
                        .to_owned(),
                });
            }
        }

        statics_l0.push(ladder[0]);
    }

    let n = apps.len().max(1) as f64;
    let mut mean_factor = [0.0f64; 4];
    let mut median_factor = [0.0f64; 4];
    for i in 0..4 {
        let mut factors: Vec<f64> = apps.iter().map(|a| a.levels[i].over_used).collect();
        mean_factor[i] = factors.iter().sum::<f64>() / n;
        median_factor[i] = median(&mut factors);
    }

    // Importance under both definitions, via the one shared metric —
    // borrowing each report's set, never cloning it.
    let required_sets: Vec<SysnoSet> = reports.iter().map(AppReport::plan_required).collect();
    let dynamic_importance = importance_fractions(&required_sets);
    let static_importance = importance_fractions(statics_l0.iter().map(|r| &r.syscalls));
    let rank_shifts = dynamic_importance
        .iter()
        .take(RANK_SHIFT_ROWS)
        .enumerate()
        .map(|(i, &(sysno, importance))| {
            let static_pos = static_importance.iter().position(|&(s, _)| s == sysno);
            RankShift {
                sysno,
                dynamic_rank: i + 1,
                dynamic_importance: importance,
                static_rank: static_pos.map(|p| p + 1),
                static_importance: static_pos.map(|p| static_importance[p].1).unwrap_or(0.0),
            }
        })
        .collect();

    // Per-OS plan sizes under the five requirement definitions
    // (dynamic + one per ladder rung).
    let dynamic_reqs: Vec<AppRequirement> =
        reports.iter().map(AppRequirement::from_report).collect();
    let plan_deltas = os::db()
        .into_iter()
        .map(|spec| {
            let dynamic = SupportPlan::generate(&spec, &dynamic_reqs);
            let mut level_initial = [0usize; 4];
            let mut level_implemented = [0usize; 4];
            for (i, reqs) in level_reqs.iter().enumerate() {
                let plan = SupportPlan::generate(&spec, reqs);
                level_initial[i] = plan.initially_supported.len();
                level_implemented[i] = plan.total_implemented();
            }
            PlanDelta {
                os: spec.name,
                dynamic_initial: dynamic.initially_supported.len(),
                dynamic_implemented: dynamic.total_implemented(),
                level_initial,
                level_implemented,
            }
        })
        .collect();

    Ok(Comparison {
        workload,
        apps,
        mean_factor,
        median_factor,
        fleet_static: fleet_static_sets.map(|s| s.len()),
        fleet_dynamic_used: fleet_used.len(),
        fleet_dynamic_required: fleet_required.len(),
        rank_shifts,
        plan_deltas,
        witness_examples,
    })
}

/// The planner's view of a static report: everything the analyser saw
/// must be implemented (no stub/fake knowledge exists statically).
fn static_requirement(report: &StaticReport) -> AppRequirement {
    AppRequirement {
        app: report.app.clone(),
        required: report.syscalls.clone(),
        stubbable: SysnoSet::new(),
        fake_only: SysnoSet::new(),
        traced: report.syscalls.clone(),
        ..AppRequirement::default()
    }
}

/// Renders `docs/STATIC_VS_DYNAMIC.md` from the comparisons — a pure
/// function of its input, byte-identical for identical databases, so
/// the drift check applies to it like every generated page.
pub fn render_static_comparison(comparisons: &[Comparison]) -> String {
    let mut out = String::new();
    out.push_str("# Static vs dynamic analysis (Figs. 4–7)\n\n");
    out.push_str(
        "Generated by `loupe report` from a sweep database — **do not edit by\n\
         hand**. Regenerate with:\n\n\
         ```sh\n\
         cargo run --release -p loupe-cli -- sweep --db target/loupedb --workload all --jobs 2 --transfer --static --validate-plans\n\
         cargo run --release -p loupe-cli -- report --db target/loupedb --docs docs\n\
         ```\n\n\
         The paper's core quantitative claim (§5.1, Fig. 4): static analysis\n\
         overestimates what applications need from a kernel, because it sees\n\
         every dead branch, error path and linked-library syscall. Each app\n\
         model is lowered to a whole-program call graph (functions, direct and\n\
         indirect call edges, address-taken sets, syscall sites) and analysed\n\
         by graph reachability at four precision levels:\n\n",
    );
    for &level in &Level::ALL {
        let _ = writeln!(out, "* **{}** — {};", level.title(), level.description());
    }
    out.push_str(
        "\nEvery attributed syscall carries a **witness**: the shortest\n\
         entry→site call path justifying it (`loupe statics --explain <app>\n\
         <syscall>` prints and re-verifies them). The containment chain\n\
         **dynamic ⊆ L3 ⊆ L2 ⊆ L1 ⊆ L0** is checked for every app: dynamic\n\
         analysis under-approximates code (it sees only executed paths), each\n\
         coarser static level over-approximates it further.\n\n",
    );

    if let Some(c) = comparisons.iter().find(|c| !c.witness_examples.is_empty()) {
        out.push_str(
            "## Worked witness examples\n\n\
             `→` is a direct call edge, `⇢` an over-approximated indirect-call\n\
             hop; `[site k]` names the syscall site inside the final function.\n\n",
        );
        for w in &c.witness_examples {
            let _ = writeln!(
                out,
                "* `{}` in **{}** at {} — {}:\n\n  ```\n  {}\n  ```",
                w.sysno.name(),
                w.app,
                w.level.title(),
                w.note,
                w.rendered
            );
        }
        out.push('\n');
    }

    for c in comparisons {
        let _ = writeln!(
            out,
            "## {} workload — {} applications\n",
            crate::report::workload_title(c.workload),
            c.apps.len()
        );
        let _ = writeln!(
            out,
            "Fleet-wide distinct syscalls: **{} dynamically exercised** ({} required\n\
             per Loupe). Containment chain dynamic ⊆ L3 ⊆ L2 ⊆ L1 ⊆ L0: **{}**.\n",
            c.fleet_dynamic_used,
            c.fleet_dynamic_required,
            if c.invariants_hold() {
                "holds for every app"
            } else {
                "VIOLATED (see per-app rows)"
            }
        );

        out.push_str(
            "### The precision ladder\n\n\
             | Level | Mean ×used | Median ×used | Fleet distinct |\n\
             |-------|-----------:|-------------:|---------------:|\n",
        );
        for (i, &level) in Level::ALL.iter().enumerate() {
            let _ = writeln!(
                out,
                "| {} | {:.2}× | {:.2}× | {} |",
                level.title(),
                c.mean_factor[i],
                c.median_factor[i],
                c.fleet_static[i]
            );
        }
        out.push('\n');

        out.push_str(
            "### Per-app overestimation factors (Fig. 4)\n\n\
             | App | Dyn used | Dyn required | L0 | L1 | L2 | L3 | L0/used | L3/used | chain |\n\
             |-----|---------:|-------------:|---:|---:|---:|---:|--------:|--------:|-------|\n",
        );
        for a in &c.apps {
            let chain = if a.chain_ok {
                "✓".to_owned()
            } else {
                let bits: Vec<String> = a
                    .chain_breaks
                    .iter()
                    .map(|(link, missing)| format!("{link}: misses `{}`", names_of(missing)))
                    .collect();
                format!("**✗ {}**", bits.join("; "))
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {:.2}× | {:.2}× | {} |",
                a.app,
                a.dynamic_used,
                a.dynamic_required,
                a.levels[0].attributed,
                a.levels[1].attributed,
                a.levels[2].attributed,
                a.levels[3].attributed,
                a.levels[0].over_used,
                a.levels[3].over_used,
                chain
            );
        }
        out.push('\n');

        out.push_str(
            "### API-importance rank shifts (Figs. 6–7)\n\n\
             How the most dynamically-required syscalls rank when importance is\n\
             measured statically (fraction of app binaries containing the call,\n\
             per the naive L0 view) instead of dynamically (fraction of apps\n\
             requiring it). A large positive shift means static analysis buries\n\
             a genuinely critical call under dead-code noise.\n\n\
             | Dynamic rank | Syscall | Required by (dyn) | Static rank | In binaries (L0) | Shift |\n\
             |-------------:|---------|------------------:|------------:|-----------------:|------:|\n",
        );
        for s in &c.rank_shifts {
            let (srank, shift) = match s.static_rank {
                Some(r) => (
                    r.to_string(),
                    format!("{:+}", r as i64 - s.dynamic_rank as i64),
                ),
                None => ("–".to_owned(), "n/a".to_owned()),
            };
            let _ = writeln!(
                out,
                "| {} | `{}` | {:.0}% | {} | {:.0}% | {} |",
                s.dynamic_rank,
                s.sysno.name(),
                s.dynamic_importance * 100.0,
                srank,
                s.static_importance * 100.0,
                shift
            );
        }
        out.push('\n');

        out.push_str(
            "### Support-plan deltas per curated OS (§4.1 × Fig. 4)\n\n\
             Syscalls each OS would implement to support the measured fleet when\n\
             the plan is generated from dynamic requirements vs from what each\n\
             static level reports (a static analyser cannot tell stubbable from\n\
             required, so its plan implements everything it sees). *Wasted* is\n\
             the extra implementation work the static plan schedules.\n\n\
             | OS | Implement (dyn) | L0 | L1 | L2 | L3 | Wasted (L0) | Wasted (L3) |\n\
             |----|----------------:|---:|---:|---:|---:|------------:|------------:|\n",
        );
        for d in &c.plan_deltas {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | +{} | +{} |",
                d.os,
                d.dynamic_implemented,
                d.level_implemented[0],
                d.level_implemented[1],
                d.level_implemented[2],
                d.level_implemented[3],
                d.binary_waste(),
                d.source_waste()
            );
        }
        out.push('\n');
    }

    out.push_str(
        "---\n\nDynamic fleet classifications live in\n\
         [COMPATIBILITY.md](COMPATIBILITY.md); the per-OS dynamic plans these\n\
         deltas are measured against live in [SUPPORT_PLANS.md](SUPPORT_PLANS.md).\n",
    );
    out
}

fn names_of(set: &SysnoSet) -> String {
    set.iter()
        .map(|s| s.name().to_owned())
        .collect::<Vec<_>>()
        .join("`, `")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sweep, SweepConfig};
    use loupe_apps::registry;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("loupe-statics-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn static_sweep_persists_and_caches() {
        let dir = tmpdir("cache");
        let db = Database::open(&dir).unwrap();
        let apps = || -> Vec<_> { registry::detailed().into_iter().take(5).collect() };

        let first = sweep_static(&db, apps(), 2, false).unwrap();
        assert_eq!(first.analyzed, 20, "5 apps x 4 levels");
        assert_eq!(first.cached, 0);
        assert_eq!(db.keys(&store::STATIC).unwrap().len(), 20);

        let second = sweep_static(&db, apps(), 2, false).unwrap();
        assert_eq!(second.analyzed, 0, "second sweep is pure cache hits");
        assert_eq!(second.cached, 20);
        assert!(
            second.reports.is_empty(),
            "cache hits are manifest answers, not re-reads"
        );
        // What the db stores is exactly what the first sweep analysed.
        for r in &first.reports {
            let stored = db
                .get(&store::STATIC, &loupe_db::static_key(r.level, &r.app))
                .unwrap()
                .unwrap();
            assert_eq!(&stored, r);
        }

        // Deterministic across worker counts.
        let dir_b = tmpdir("cache-b");
        let db_b = Database::open(&dir_b).unwrap();
        let serial = sweep_static(&db_b, apps(), 1, false).unwrap();
        assert_eq!(serial.reports, first.reports);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn level_restricted_sweep_only_touches_those_levels() {
        let dir = tmpdir("levels");
        let db = Database::open(&dir).unwrap();
        let apps = || -> Vec<_> { registry::detailed().into_iter().take(3).collect() };
        let partial = sweep_static_levels(&db, apps(), &[Level::L2], 1, false).unwrap();
        assert_eq!(partial.analyzed, 3);
        assert!(partial.reports.iter().all(|r| r.level == Level::L2));
        assert_eq!(db.keys(&store::STATIC).unwrap().len(), 3);

        // Filling in the rest reuses the L2 entries.
        let full = sweep_static(&db, apps(), 1, false).unwrap();
        assert_eq!(full.analyzed, 9, "3 apps x 3 missing levels");
        assert_eq!(full.cached, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn comparison_invariants_hold_for_the_detailed_fleet() {
        let dir = tmpdir("cmp");
        let db = Database::open(&dir).unwrap();
        Sweep::new(SweepConfig {
            workloads: vec![Workload::HealthCheck],
            ..SweepConfig::default()
        })
        .run(&db, registry::detailed())
        .unwrap();
        sweep_static(&db, registry::detailed(), 0, false).unwrap();

        let comparisons = compare(&db).unwrap();
        assert_eq!(comparisons.len(), 1);
        let c = &comparisons[0];
        assert_eq!(c.apps.len(), 12);
        assert!(
            c.invariants_hold(),
            "dynamic ⊆ L3 ⊆ L2 ⊆ L1 ⊆ L0 must hold: {:?}",
            c.apps
                .iter()
                .filter(|a| !a.chain_ok)
                .map(|a| (&a.app, &a.chain_breaks))
                .collect::<Vec<_>>()
        );
        for a in &c.apps {
            // Factors are non-increasing as precision rises, ≥ 1 at
            // the source level.
            for pair in a.levels.windows(2) {
                assert!(
                    pair[0].over_used >= pair[1].over_used,
                    "{}: {} < {}",
                    a.app,
                    pair[0].level.label(),
                    pair[1].level.label()
                );
            }
            assert!(a.level(Level::L3).over_used >= 1.0, "{}", a.app);
            assert!(
                a.level(Level::L3).over_required >= a.level(Level::L3).over_used,
                "{}",
                a.app
            );
            // The paper's headline band: naive binary analysis
            // overestimates every detailed app 2–5×.
            let l0 = a.level(Level::L0).over_used;
            assert!(
                (2.0..=5.0).contains(&l0),
                "{}: L0 factor {l0:.2} outside the paper's 2-5x band",
                a.app
            );
        }
        assert!(
            c.mean_factor_of(Level::L0) > 2.0,
            "binary overestimation too small: {}",
            c.mean_factor_of(Level::L0)
        );
        // Each refinement must actually buy precision on this fleet.
        assert!(c.mean_factor[0] > c.mean_factor[1], "L1 should prune");
        assert!(c.mean_factor[2] > c.mean_factor[3], "L3 should prune");
        for i in 0..4 {
            assert!(c.median_factor[i] <= c.mean_factor[i] * 2.0);
            assert!(c.median_factor[i] >= 1.0);
        }
        // Static plans schedule strictly more implementation work, and
        // more of it the coarser the level.
        for d in &c.plan_deltas {
            assert!(
                d.implemented(Level::L3) >= d.dynamic_implemented,
                "{}",
                d.os
            );
            for pair in Level::ALL.windows(2) {
                assert!(
                    d.implemented(pair[0]) >= d.implemented(pair[1]),
                    "{}: {} < {}",
                    d.os,
                    pair[0].label(),
                    pair[1].label()
                );
            }
            assert!(
                d.binary_waste() > 0,
                "{}: binary plan must waste effort",
                d.os
            );
            assert!(d.dynamic_initial >= d.initial(Level::L0), "{}", d.os);
        }
        assert_eq!(
            c.rank_shifts.len(),
            RANK_SHIFT_ROWS.min(c.rank_shifts.len())
        );
        // Fresh sweeps carry witnesses, so the worked examples exist.
        assert_eq!(c.witness_examples.len(), 2, "{:?}", c.witness_examples);
        assert!(c.witness_examples[0].rendered.contains("crt::_start"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_without_static_reports_names_the_gap() {
        let dir = tmpdir("missing");
        let db = Database::open(&dir).unwrap();
        assert!(matches!(compare(&db), Err(CompareError::NoDynamicReports)));
        Sweep::new(SweepConfig {
            workloads: vec![Workload::HealthCheck],
            ..SweepConfig::default()
        })
        .run(&db, registry::detailed().into_iter().take(1).collect())
        .unwrap();
        match compare(&db) {
            Err(CompareError::MissingStatic { app, .. }) => {
                assert!(!app.is_empty());
            }
            other => panic!("expected MissingStatic, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rendering_is_deterministic_and_mentions_every_app_and_os() {
        let dir = tmpdir("render");
        let db = Database::open(&dir).unwrap();
        let apps = || -> Vec<_> { registry::detailed().into_iter().take(4).collect() };
        Sweep::new(SweepConfig {
            workloads: vec![Workload::HealthCheck],
            ..SweepConfig::default()
        })
        .run(&db, apps())
        .unwrap();
        sweep_static(&db, apps(), 0, false).unwrap();
        let comparisons = compare(&db).unwrap();
        let a = render_static_comparison(&comparisons);
        let b = render_static_comparison(&comparisons);
        assert_eq!(a, b);
        for app in comparisons[0].apps.iter() {
            assert!(a.contains(&format!("| {} |", app.app)), "{} row", app.app);
        }
        for spec in os::db() {
            assert!(
                a.contains(&format!("| {} |", spec.name)),
                "{} row",
                spec.name
            );
        }
        assert!(a.contains("holds for every app"));
        assert!(a.contains("Worked witness examples"));
        assert!(a.contains("L1 (signature-pruned)"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
