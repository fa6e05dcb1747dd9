//! The immutable in-memory query index one daemon generation serves.
//!
//! A [`ServeIndex`] is built once from a database snapshot and then
//! only read: the server swaps whole indices (behind an `RwLock<Arc>`)
//! when the generation watcher sees the database change, so readers
//! never contend with an in-place update and a multi-lookup request
//! answered from one `Arc` can never observe a torn mix of
//! generations.
//!
//! Layout:
//!
//! * **Verdicts** — every stored matrix cell, precomputed into a
//!   per-tier pass/fail verdict in one map keyed by
//!   `(os, app, workload)`. Built eagerly: verdicts are the hot path.
//! * **Summary + missing-syscall rankings** — the `OS_MATRIX.md`
//!   aggregation ([`loupe_sweep::matrix::aggregate`], so the daemon
//!   and the rendered docs can never disagree), also eager.
//! * **Plan table + inverted syscall index** — derived from the
//!   *baselines* namespace, which plan/apps queries alone need; built
//!   lazily on first touch so a daemon serving only verdicts never
//!   decodes a baseline.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use loupe_apps::Workload;
use loupe_db::{store, Database, DbError};
use loupe_plan::{os, AppRequirement, SupportPlan, Tier};
use loupe_sweep::matrix::{aggregate, os_sizes};
use loupe_syscalls::SysnoSet;

use crate::proto::{
    CellQuery, MissingSyscall, OsSummary, PlanReply, PlanStepReply, Request, Response, Verdict,
};

/// Precomputed verdicts of one matrix cell: both tiers, ready to copy
/// into a wire [`Verdict`] without touching the cell again.
#[derive(Debug, Clone)]
struct CellVerdicts {
    linux_pass: bool,
    vanilla_pass: bool,
    /// Best-known planned verdict ([`loupe_plan::MatrixCell::planned_at_least`]),
    /// exactly what the OS_MATRIX "with plan" column counts.
    planned_pass: bool,
    first_rejection_vanilla: Option<String>,
    first_rejection_planned: Option<String>,
    missing_required: Vec<String>,
}

/// Lazily built analytics over the baselines namespace: support plans
/// and the syscall → requiring-apps inverted index.
#[derive(Debug, Default)]
struct Analytics {
    /// `(os, workload-label)` → served plan.
    plans: BTreeMap<(String, String), PlanReply>,
    /// Syscall name → apps whose *required* set contains it (any
    /// workload, deduplicated, sorted).
    by_syscall: BTreeMap<String, Vec<String>>,
}

/// One generation's immutable query index. See the module docs.
pub struct ServeIndex {
    generation: u64,
    /// `(os, app, workload-label)` → precomputed verdicts.
    verdicts: HashMap<(String, String, String), CellVerdicts>,
    /// Fleet pass-rate rows, byte-for-byte the aggregation
    /// `OS_MATRIX.md` renders.
    summary: Vec<OsSummary>,
    /// `(os, workload-label)` → ranked missing syscalls.
    missing: BTreeMap<(String, String), Vec<MissingSyscall>>,
    oses: BTreeSet<String>,
    apps: BTreeSet<String>,
    cells: usize,
    /// Handle for the lazy analytics build only.
    db: Database,
    analytics: Mutex<Option<Arc<Analytics>>>,
}

impl std::fmt::Debug for ServeIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeIndex")
            .field("generation", &self.generation)
            .field("cells", &self.cells)
            .field("oses", &self.oses.len())
            .field("apps", &self.apps.len())
            .finish()
    }
}

fn names(set: &SysnoSet) -> Vec<String> {
    set.iter().map(|s| s.name().to_owned()).collect()
}

/// Parses a workload label, defaulting to `health`.
fn parse_workload(label: Option<&str>) -> Result<Workload, String> {
    match label {
        None => Ok(Workload::HealthCheck),
        Some(l) => Workload::ALL
            .iter()
            .copied()
            .find(|w| w.label() == l)
            .ok_or_else(|| format!("unknown workload `{l}` (health/bench/suite)")),
    }
}

/// Parses a tier label, defaulting to `planned`.
fn parse_tier(label: Option<&str>) -> Result<Tier, String> {
    match label {
        None => Ok(Tier::Planned),
        Some(l) => {
            Tier::from_label(l).ok_or_else(|| format!("unknown tier `{l}` (vanilla/planned)"))
        }
    }
}

impl ServeIndex {
    /// Builds the index from the database's current matrix contents,
    /// stamping it with `generation` (the server's rebuild counter).
    ///
    /// # Errors
    ///
    /// Database I/O and corruption errors.
    pub fn build(db: Database, generation: u64) -> Result<ServeIndex, DbError> {
        let cells = db.load_all(&store::MATRIX)?;
        let mut verdicts = HashMap::with_capacity(cells.len());
        let mut oses = BTreeSet::new();
        let mut apps = BTreeSet::new();
        for cell in &cells {
            oses.insert(cell.os.clone());
            apps.insert(cell.app.clone());
            let cell_verdicts = CellVerdicts {
                linux_pass: cell.linux_pass,
                vanilla_pass: cell.passes(Tier::Vanilla),
                planned_pass: cell.planned_at_least(),
                first_rejection_vanilla: cell.vanilla.as_ref().and_then(|t| t.first_cause()),
                first_rejection_planned: cell.planned.as_ref().and_then(|t| t.first_cause()),
                missing_required: names(&cell.missing_required),
            };
            verdicts.insert(
                (
                    cell.os.clone(),
                    cell.app.clone(),
                    cell.workload.label().to_owned(),
                ),
                cell_verdicts,
            );
        }

        // Profile sizes: the curated specs, plus any custom OS stored in
        // the database; unknown OSes render 0 like the docs do.
        let mut sizes = os_sizes(&os::db());
        for name in &oses {
            if !sizes.contains_key(name) {
                if let Ok(Some(spec)) = db.load_os_spec(name) {
                    sizes.insert(name.clone(), spec.supported.len());
                }
            }
        }
        let stats = aggregate(&cells, &sizes);
        let mut missing = BTreeMap::new();
        let summary = stats
            .iter()
            .map(|row| {
                missing.insert(
                    (row.os.clone(), row.workload.label().to_owned()),
                    row.top_missing
                        .iter()
                        .map(|(sysno, count)| MissingSyscall {
                            syscall: sysno.name().to_owned(),
                            blocked_apps: *count as u64,
                        })
                        .collect(),
                );
                OsSummary {
                    os: row.os.clone(),
                    workload: row.workload.label().to_owned(),
                    syscalls: row.syscalls as u64,
                    apps: row.apps as u64,
                    linux_pass: row.linux_pass as u64,
                    vanilla_pass: row.vanilla_pass as u64,
                    planned_pass: row.planned_pass as u64,
                }
            })
            .collect();

        Ok(ServeIndex {
            generation,
            verdicts,
            summary,
            missing,
            oses,
            apps,
            cells: cells.len(),
            db,
            analytics: Mutex::new(None),
        })
    }

    /// The generation stamp this index was built at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Matrix cells indexed.
    pub(crate) fn cells(&self) -> usize {
        self.cells
    }

    /// Distinct OS names indexed.
    pub(crate) fn os_count(&self) -> usize {
        self.oses.len()
    }

    /// Distinct app names indexed.
    pub(crate) fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// Resolves one verdict lookup. Unknown OS or app names are
    /// errors (they distinguish typos from unmeasured combinations);
    /// a known OS and app without a stored cell yields
    /// `known == false`.
    ///
    /// # Errors
    ///
    /// Unknown OS, app, workload or tier labels.
    fn verdict(&self, query: &CellQuery) -> Result<Verdict, String> {
        let workload = parse_workload(query.workload.as_deref())?;
        let tier = parse_tier(query.tier.as_deref())?;
        if !self.oses.contains(&query.os) {
            return Err(format!("unknown os `{}`", query.os));
        }
        if !self.apps.contains(&query.app) {
            return Err(format!("unknown app `{}`", query.app));
        }
        let key = (
            query.os.clone(),
            query.app.clone(),
            workload.label().to_owned(),
        );
        let mut verdict = Verdict {
            os: query.os.clone(),
            app: query.app.clone(),
            workload: workload.label().to_owned(),
            tier: tier.label().to_owned(),
            ..Verdict::default()
        };
        if let Some(cell) = self.verdicts.get(&key) {
            verdict.known = true;
            verdict.linux_pass = cell.linux_pass;
            verdict.pass = match tier {
                Tier::Vanilla => cell.vanilla_pass,
                Tier::Planned => cell.planned_pass,
            };
            verdict.first_rejection = if verdict.pass {
                None
            } else {
                match tier {
                    Tier::Vanilla => cell.first_rejection_vanilla.clone(),
                    Tier::Planned => cell
                        .first_rejection_planned
                        .clone()
                        .or_else(|| cell.first_rejection_vanilla.clone()),
                }
            };
            verdict.missing_required = cell.missing_required.clone();
        }
        Ok(verdict)
    }

    /// Top missing syscalls blocking apps on `os`, most-blocking first.
    ///
    /// # Errors
    ///
    /// Unknown OS or workload labels.
    fn missing(
        &self,
        os: &str,
        workload: Option<&str>,
        limit: usize,
    ) -> Result<Vec<MissingSyscall>, String> {
        let workload = parse_workload(workload)?;
        if !self.oses.contains(os) {
            return Err(format!("unknown os `{os}`"));
        }
        Ok(self
            .missing
            .get(&(os.to_owned(), workload.label().to_owned()))
            .map(|ranked| ranked.iter().take(limit).cloned().collect())
            .unwrap_or_default())
    }

    /// The cheapest incremental support plan for `os`, derived from
    /// the stored baselines (lazy; see module docs).
    ///
    /// # Errors
    ///
    /// Unknown OS/workload, plus database errors from the first
    /// (index-building) call.
    fn plan(&self, os_name: &str, workload: Option<&str>) -> Result<PlanReply, String> {
        let workload = parse_workload(workload)?;
        let analytics = self.analytics()?;
        analytics
            .plans
            .get(&(os_name.to_owned(), workload.label().to_owned()))
            .cloned()
            .ok_or_else(|| format!("no plan for os `{os_name}` (not a curated profile, or no stored baselines for workload `{workload}`)"))
    }

    /// Apps whose measured *required* set contains `syscall` (lazy).
    ///
    /// # Errors
    ///
    /// Unknown syscall names, plus database errors from the first call.
    fn apps_requiring(&self, syscall: &str) -> Result<Vec<String>, String> {
        if loupe_syscalls::Sysno::from_name(syscall).is_none() {
            return Err(format!("unknown syscall `{syscall}`"));
        }
        let analytics = self.analytics()?;
        Ok(analytics
            .by_syscall
            .get(syscall)
            .cloned()
            .unwrap_or_default())
    }

    /// Forces the lazy analytics build (the `--eager` startup path).
    ///
    /// # Errors
    ///
    /// Database errors reading the baselines namespace.
    pub(crate) fn warm_analytics(&self) -> Result<(), String> {
        self.analytics().map(|_| ())
    }

    /// Answers a protocol request straight from this index: what the
    /// daemon sends for every command but `stats`, and what `loupe
    /// query --offline` prints without a daemon. `stats` counters
    /// belong to a daemon and fail here.
    pub fn answer(&self, req: &Request) -> Response {
        let generation = Some(self.generation);
        match req.cmd.as_str() {
            "ping" => Response {
                ok: true,
                generation,
                ..Response::default()
            },
            "verdict" => {
                let (Some(os), Some(app)) = (req.os.clone(), req.app.clone()) else {
                    return Response::fail("verdict needs `os` and `app`");
                };
                let query = CellQuery {
                    os,
                    app,
                    workload: req.workload.clone(),
                    tier: req.tier.clone(),
                };
                match self.verdict(&query) {
                    Ok(verdict) => Response {
                        ok: true,
                        generation,
                        verdict: Some(verdict),
                        ..Response::default()
                    },
                    Err(e) => Response::fail(e),
                }
            }
            "verdicts" => {
                let mut verdicts = Vec::with_capacity(req.cells.len());
                for query in &req.cells {
                    match self.verdict(query) {
                        Ok(v) => verdicts.push(v),
                        Err(e) => return Response::fail(e),
                    }
                }
                Response {
                    ok: true,
                    generation,
                    verdicts,
                    ..Response::default()
                }
            }
            "plan" => {
                let Some(os) = req.os.as_deref() else {
                    return Response::fail("plan needs `os`");
                };
                match self.plan(os, req.workload.as_deref()) {
                    Ok(plan) => Response {
                        ok: true,
                        generation,
                        plan: Some(plan),
                        ..Response::default()
                    },
                    Err(e) => Response::fail(e),
                }
            }
            "missing" => {
                let Some(os) = req.os.as_deref() else {
                    return Response::fail("missing needs `os`");
                };
                let limit = req.limit.unwrap_or(10) as usize;
                match self.missing(os, req.workload.as_deref(), limit) {
                    Ok(missing) => Response {
                        ok: true,
                        generation,
                        missing,
                        ..Response::default()
                    },
                    Err(e) => Response::fail(e),
                }
            }
            "summary" => Response {
                ok: true,
                generation,
                summary: self.summary.clone(),
                ..Response::default()
            },
            "apps" => {
                let Some(syscall) = req.syscall.as_deref() else {
                    return Response::fail("apps needs `syscall`");
                };
                match self.apps_requiring(syscall) {
                    Ok(apps) => Response {
                        ok: true,
                        generation,
                        apps,
                        ..Response::default()
                    },
                    Err(e) => Response::fail(e),
                }
            }
            "stats" => Response::fail("stats needs a running daemon"),
            other => Response::fail(format!("unknown command `{other}`")),
        }
    }

    fn analytics(&self) -> Result<Arc<Analytics>, String> {
        let mut slot = self.analytics.lock().expect("analytics lock");
        if let Some(built) = slot.as_ref() {
            return Ok(Arc::clone(built));
        }
        let built = Arc::new(self.build_analytics().map_err(|e| e.to_string())?);
        *slot = Some(Arc::clone(&built));
        Ok(built)
    }

    fn build_analytics(&self) -> Result<Analytics, DbError> {
        let mut analytics = Analytics::default();
        let mut by_syscall: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (workload, reports) in loupe_sweep::report::reports_by_workload(&self.db)? {
            let reqs: Vec<AppRequirement> =
                reports.iter().map(AppRequirement::from_report).collect();
            for req in &reqs {
                for sysno in req.required.iter() {
                    by_syscall
                        .entry(sysno.name().to_owned())
                        .or_default()
                        .insert(req.app.clone());
                }
            }
            // Plans for every curated profile plus any custom OS spec
            // stored in the database.
            let mut specs = os::db();
            for name in &self.oses {
                if os::find(name).is_none() {
                    if let Ok(Some(spec)) = self.db.load_os_spec(name) {
                        specs.push(spec);
                    }
                }
            }
            for spec in &specs {
                let plan = SupportPlan::generate(spec, &reqs);
                analytics.plans.insert(
                    (spec.name.clone(), workload.label().to_owned()),
                    PlanReply {
                        os: spec.name.clone(),
                        workload: workload.label().to_owned(),
                        initially_supported: plan.initially_supported.clone(),
                        steps: plan
                            .steps
                            .iter()
                            .map(|step| PlanStepReply {
                                index: step.index as u64,
                                implement: names(&step.implement),
                                stub: names(&step.stub),
                                fake: names(&step.fake),
                                unlocks: step.unlocks.clone(),
                            })
                            .collect(),
                    },
                );
            }
        }
        analytics.by_syscall = by_syscall
            .into_iter()
            .map(|(sysno, apps)| (sysno, apps.into_iter().collect()))
            .collect();
        Ok(analytics)
    }
}
