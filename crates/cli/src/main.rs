//! `loupe` — the command-line front-end of the Loupe reproduction.
//!
//! Mirrors the workflows of the upstream tool:
//!
//! ```text
//! loupe list                          # applications in the registry
//! loupe analyze nginx --workload bench [--json] [--db DIR]
//! loupe sweep --db DIR                # analyze the whole fleet, concurrently
//! loupe sweep --db DIR --all-os       # + execute the fleet on all 11 OS profiles
//! loupe sweep --db DIR --static       # + static analysers over the fleet
//! loupe compare --db DIR              # static-vs-dynamic factors (Figs. 4-7)
//! loupe report --db DIR --docs docs   # render the db as Markdown docs
//! loupe report --db DIR --check       # fail when checked-in docs drifted
//! loupe gentests --all-os             # compile corpora into conformance suites
//! loupe gentests --all-os --check     # fail when stored suites drifted
//! loupe cache stats                   # incremental-cache manifest + sweep counters
//! loupe cache invalidate --os kerla   # force re-measurement of one OS's cells
//! loupe plan --os kerla --validate     # replay the plan on a restricted kernel
//! loupe serve --db DIR                # query daemon over the in-memory index
//! loupe query --os kerla --app redis  # ask a daemon (or --offline: the db directly)
//! loupe os-list                       # curated OS support specs
//! loupe importance [--workload bench] # Fig. 3-style ranking
//! loupe trace -- /bin/echo hello      # real ptrace backend
//! ```

use std::process::ExitCode;

use loupe_apps::{registry, Workload};
use loupe_core::{AnalysisConfig, AppReport, Engine};
use loupe_db::{store, CacheStats, Database, Derive};
use loupe_plan::{api_importance, os, AppRequirement, CompatTable, SupportPlan};
use loupe_sweep::{report, Sweep, SweepConfig, TransferConfig};

fn main() -> ExitCode {
    // Behave like a Unix tool when piped into head/grep: die on SIGPIPE
    // instead of panicking on a failed print.
    #[cfg(unix)]
    // SAFETY: resetting a signal disposition before any thread is spawned.
    unsafe {
        libc::signal(libc::SIGPIPE, libc::SIG_DFL);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "list" => cmd_list(),
        "analyze" => cmd_analyze(rest),
        "sweep" => cmd_sweep(rest),
        "compare" => cmd_compare(rest),
        "statics" => cmd_statics(rest),
        "report" => cmd_report(rest),
        "gentests" => cmd_gentests(rest),
        "cache" => cmd_cache(rest),
        "plan" => cmd_plan(rest),
        "serve" => cmd_serve(rest),
        "query" => cmd_query(rest),
        "os-list" => cmd_os_list(),
        "ingest" => cmd_ingest(rest),
        "importance" => cmd_importance(rest),
        "trace" => cmd_trace(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("loupe: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: loupe <command> [options]

commands:
  list                         list applications in the registry
  analyze <app>                measure an application's OS-feature needs
      --workload health|bench|suite   (default: bench)
      --replicas N                    (default: 1)
      --jobs N                        probe-scheduler workers (default: 1; 0 = auto)
      --sub-features                  classify vectored-syscall features too
      --json                          print the full report as JSON
      --db DIR                        store the report in a database
  sweep                        analyze the whole fleet and persist to a db
      --db DIR                        database directory (default: target/loupedb)
      --workload health|bench|suite|all   (default: bench)
      --apps a,b,c                    restrict to named apps (default: full dataset)
      --shard I/N                     analyze dataset shard I of N
      --workers N                     worker threads (default: min(cpus, 16))
      --jobs N                        per-app probe-scheduler workers (default: 1)
      --os <name>                     also run the fleet x OS empirical matrix
                                      against one curated OS kernel profile
      --all-os                        ... against all 11 curated OS profiles;
                                      cells persist under the db's env/<os>/matrix
                                      namespace and render into docs/OS_MATRIX.md
      --tier vanilla|planned          restrict matrix measurement to one
                                      remediation tier (default: both)
      --transfer                      two-pass §6 hint transfer (seed, then hinted rest)
      --min-agreement K               seed reports that must agree to hint (default: 3)
      --transfer-seed N               apps measured in full as the seed (default: 8)
      --force                         re-measure cached entries (conservative merge)
      --static                        also run the static precision ladder
                                      (L0-L3 graph reachability) over the fleet;
                                      persist under the db's static/ namespace
                                      (needed by `compare` and the generated
                                      STATIC_VS_DYNAMIC.md)
      --validate-plans                replay every curated OS's support plan on a
                                      restricted kernel; persist verdicts in the db
  compare                      static-vs-dynamic comparison (Figs. 4-7): per-app
                               overestimation factors at every precision level,
                               importance rank shifts and per-OS plan-size
                               deltas; exits 1 if the containment chain
                               dynamic ⊆ L3 ⊆ L2 ⊆ L1 ⊆ L0 is violated anywhere
      --db DIR                        database directory (default: target/loupedb)
      --workers N                     static-analysis worker threads (default: auto)
  statics                      run the static precision ladder over the fleet:
                               each app is lowered to a whole-program call graph
                               and analysed by reachability at L0 (naive binary),
                               L1 (signature-pruned), L2 (constant propagation)
                               and L3 (source level)
      --db DIR                        database directory (default: target/loupedb)
      --app NAME                      restrict to one app (also --apps/--shard)
      --level l0|l1|l2|l3|all         comma-separated levels (default: all;
                                      binary/source alias l0/l3)
      --workers N                     worker threads (default: min(cpus, 16))
      --force                         re-analyse cached entries
      --explain <app> <syscall>       print the witness call path behind an
                                      attribution at every level, re-verified
                                      against the graph; exits 1 if no level
                                      attributes the syscall
  report                       render a sweep db as Markdown documentation
      --db DIR                        database directory (default: target/loupedb)
      --docs DIR                      output directory (default: docs)
      --check                         verify the docs match the db; exit 1 on drift
  gentests                     compile stored measurement corpora into executable
                               per-app conformance suites, self-validated against
                               the matrix verdicts; exits 1 on any disagreement
      --db DIR                        database directory (default: target/loupedb)
      --os <name> | --all-os          target one curated OS, or all 11 (required)
      --app <name>                    restrict to one application
      --workload health|bench|suite|all   (default: bench)
      --workers N                     worker threads (default: min(cpus, 16))
      --jobs N                        per-app probe-scheduler workers (default: 1)
      --force                         regenerate suites already stored
      --check                         verify stored suites match the corpus; write
                                      nothing and exit 1 on stale/missing suites
      --out DIR                       also export the generated suite JSON files
                                      under DIR/<os>/<workload>/<app>.json
  cache stats                  show the incremental-cache manifest: entries and
                               provenance coverage per namespace, plus the
                               hit/miss/stale counters of the last sweep
      --db DIR                        database directory (default: target/loupedb)
  cache invalidate             drop provenance records so the next sweep
                               re-measures the matching cells (artifacts stay;
                               only the is-this-current? answer is forgotten)
      --db DIR                        database directory (default: target/loupedb)
      --os <name>                     cells measured against one curated OS
      --app <name>                    cells derived from one application
      --all                           every record in every namespace
  plan --os <name|file.csv>    incremental support plan for an OS
      --workload health|bench|suite   (default: bench)
      --apps a,b,c                    target apps (default: 15 cloud apps)
      --db DIR                        reuse measurements from a database
      --validate                      replay the plan step-by-step on a restricted
                                      kernel (fails unless every step unlocks its
                                      app at step k and not at k-1); with --db the
                                      verdict is persisted for `loupe report`
  serve                        long-running query daemon: loads the db once,
                               compiles it into an in-memory verdict
                               index and answers length-prefixed JSON
                               queries over TCP (protocol: docs/SERVING.md)
      --db DIR                        database directory (default: target/loupedb)
      --addr A                        bind address (default: 127.0.0.1:7071;
                                      port 0 picks a free port)
      --threads N                     max concurrent connections (default: 1024)
      --watch-ms N                    db-change poll interval in milliseconds
                                      (default: 200; 0 disables the watcher)
      --eager                         build the plan/inverted-syscall tables at
                                      startup instead of on first query
  query                        ask a running daemon one question
      --addr A                        daemon address (default: 127.0.0.1:7071)
      --os X --app Y                  compatibility verdict (the default mode)
      --workload health|bench|suite   (default: health)
      --tier vanilla|planned          (default: planned)
      --summary                       fleet pass-rate summary instead
      --missing                       top syscalls blocking apps on --os
      --limit N                       rows for --missing (default: 10)
      --plan                          cheapest support plan for --os
      --apps-requiring <syscall>      apps whose required set contains it
      --json                          print the raw response JSON
      --offline                       answer from --db DIR directly (no daemon;
                                      same resolution code, default db above)
  os-list                      show the curated OS support specs
  ingest --from <file.md>      parse a kerla-style markdown compatibility table
                               (| No | Name | Implementation Status | ... |)
                               into a kernel support spec with per-flag holes
      --os <name>                     spec name (default: the file stem)
      --version V                     spec version string (default: ingested)
      --overrides <file>              refine pessimistically-seeded flag holes
                                      (`supported fcntl:F_SETFL` / `hole ...`)
      --check                         verify the table renders back byte-stably
                                      AND, when --os names a curated OS, that
                                      the ingested spec matches the curated one;
                                      exit 1 on any mismatch
      --json                          print the ingested spec as JSON
  importance                   rank syscalls by how many apps require them
      --workload health|bench|suite   (default: health)
      --apps N                        dataset size (default: 116)
  trace -- <cmd> [args...]     trace a real binary with ptrace
  help                         this message";

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Prints a stage's cache decisions (if it took any) and persists them
/// as the db's last-sweep counters.
fn persist_cache_stats(db: &Database, cache: &CacheStats, db_dir: &str) -> Result<(), String> {
    if !cache.is_empty() {
        let t = cache.total();
        let details = format!("details: `loupe cache stats --db {db_dir}`");
        println!(
            "cache: {} hits, {} misses, {} stale ({details})",
            t.hits, t.misses, t.stale
        );
    }
    db.persist_sweep_stats().map_err(|e| e.to_string())
}

/// The numeric value of flag `name`, or `default` when it is absent.
fn usize_flag(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    flag_value(args, name).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("bad {name}"))
    })
}

fn parse_workload(args: &[String], default: Workload) -> Result<Workload, String> {
    match flag_value(args, "--workload") {
        None => Ok(default),
        Some("health") => Ok(Workload::HealthCheck),
        Some("bench") => Ok(Workload::Benchmark),
        Some("suite") => Ok(Workload::TestSuite),
        Some(other) => Err(format!("unknown workload `{other}`")),
    }
}

fn cmd_list() -> Result<(), String> {
    println!("{:<28} {:<10} {:>6}  LIBC", "NAME", "KIND", "YEAR");
    for app in registry::dataset() {
        let spec = app.spec();
        println!(
            "{:<28} {:<10} {:>6}  {}",
            spec.name,
            format!("{:?}", spec.kind),
            spec.year,
            spec.libc.name()
        );
    }
    println!(
        "\n({} applications; variants: nginx-0.3.19, redis-2.0, httpd-2.2, hello-*)",
        registry::dataset().len()
    );
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let name = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("analyze: missing application name")?;
    let app = registry::find(name).ok_or_else(|| format!("unknown application `{name}`"))?;
    let workload = parse_workload(args, Workload::Benchmark)?;
    let replicas = flag_value(args, "--replicas")
        .map(|v| v.parse::<u32>().map_err(|_| "bad --replicas".to_owned()))
        .transpose()?
        .unwrap_or(1);
    let sub = args.iter().any(|a| a == "--sub-features");
    let jobs = usize_flag(args, "--jobs", 1)?;
    let cfg = AnalysisConfig {
        replicas,
        jobs,
        explore_sub_features: sub,
        explore_pseudo_files: sub,
        ..AnalysisConfig::fast()
    };
    let report = Engine::new(cfg.clone())
        .analyze(app.as_ref(), workload)
        .map_err(|e| e.to_string())?;

    if args.iter().any(|a| a == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        println!("{} ({} workload)", report.app, workload);
        println!(
            "traced: {} syscalls over {} runs; confirmed: {}",
            report.traced().len(),
            report.stats.total_runs(),
            report.confirmed
        );
        println!(
            "required  ({:>3}): {}",
            report.required().len(),
            report.required()
        );
        println!(
            "stubbable ({:>3}): {}",
            report.stubbable().len(),
            report.stubbable()
        );
        println!(
            "fakeable  ({:>3}): {}",
            report.fakeable().len(),
            report.fakeable()
        );
        if sub && !report.sub_features.is_empty() {
            println!("sub-features:");
            for (key, class) in &report.sub_features {
                println!("  {key}: {}", class.label());
            }
        }
        if !report.pseudo_files.is_empty() {
            println!("pseudo-files:");
            for (path, class) in &report.pseudo_files {
                println!("  {path}: {}", class.label());
            }
        }
    }

    if let Some(dir) = flag_value(args, "--db") {
        let db = Database::open(dir).map_err(|e| e.to_string())?;
        store_report(&db, &report, app.as_ref(), &cfg)?;
        db.flush().map_err(|e| e.to_string())?;
        eprintln!("stored in {dir}");
    }
    Ok(())
}

/// Stores a report measured outside a sweep. A Linux baseline is
/// committed with the provenance a sweep records, so a later `loupe
/// sweep` over an unchanged app serves it from cache.
fn store_report(
    db: &Database,
    report: &AppReport,
    app: &dyn loupe_apps::AppModel,
    analysis: &AnalysisConfig,
) -> Result<(), String> {
    let inputs = loupe_sweep::baseline_inputs(app, report.workload, analysis);
    let stored = if report.is_linux_baseline() {
        db.commit(
            &store::BASELINES,
            report,
            Derive::Miss,
            inputs,
            Default::default(),
        )
    } else {
        db.put(&store::ENV, report)
    };
    stored.map_err(|e| e.to_string())
}

const DEFAULT_DB: &str = "target/loupedb";

fn parse_workloads(args: &[String]) -> Result<Vec<Workload>, String> {
    match flag_value(args, "--workload") {
        None => Ok(vec![Workload::Benchmark]),
        Some("all") => Ok(Workload::ALL.to_vec()),
        Some(_) => parse_workload(args, Workload::Benchmark).map(|w| vec![w]),
    }
}

/// The sweep fleet selection: `--apps` list, `--shard I/N`, or the full
/// dataset. Shared by the dynamic and static passes (boxed app models
/// are not `Clone`, so each pass materialises its own fleet).
fn select_apps(args: &[String]) -> Result<Vec<Box<dyn loupe_apps::AppModel>>, String> {
    match (flag_value(args, "--apps"), flag_value(args, "--shard")) {
        (Some(_), Some(_)) => Err("sweep: --apps and --shard are exclusive".into()),
        (Some(list), None) => list
            .split(',')
            .map(|n| registry::find(n.trim()).ok_or_else(|| format!("unknown app `{n}`")))
            .collect::<Result<_, _>>(),
        (None, Some(spec)) => {
            let (i, n) = spec
                .split_once('/')
                .and_then(|(i, n)| Some((i.parse::<usize>().ok()?, n.parse::<usize>().ok()?)))
                .ok_or("sweep: --shard expects I/N")?;
            if n == 0 || i >= n {
                return Err("sweep: --shard index out of range".into());
            }
            Ok(registry::shard(i, n))
        }
        (None, None) => Ok(registry::dataset()),
    }
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let db_dir = flag_value(args, "--db").unwrap_or(DEFAULT_DB);
    let db = Database::open(db_dir).map_err(|e| e.to_string())?;
    let workloads = parse_workloads(args)?;
    let workers = usize_flag(args, "--workers", 0)?;
    let jobs = usize_flag(args, "--jobs", 1)?;
    let force = args.iter().any(|a| a == "--force");
    let transfer = if args.iter().any(|a| a == "--transfer") {
        let mut t = TransferConfig::default();
        if let Some(k) = flag_value(args, "--min-agreement") {
            t.min_agreement = k.parse().map_err(|_| "bad --min-agreement".to_owned())?;
        }
        if let Some(n) = flag_value(args, "--transfer-seed") {
            t.seed = n.parse().map_err(|_| "bad --transfer-seed".to_owned())?;
        }
        Some(t)
    } else {
        None
    };

    // Fleet × OS matrix selection: one curated OS, or all of them.
    let all_os = args.iter().any(|a| a == "--all-os");
    let os_sel = flag_value(args, "--os");
    if all_os && os_sel.is_some() {
        return Err("sweep: --os and --all-os are exclusive".into());
    }
    let matrix_oses = if all_os {
        Some(os::db())
    } else if let Some(name) = os_sel {
        let spec = os::find(name)
            .ok_or_else(|| format!("sweep: unknown OS `{name}` (see `loupe os-list`)"))?;
        Some(vec![spec])
    } else {
        None
    };
    let tier = flag_value(args, "--tier")
        .map(|t| {
            loupe_plan::Tier::from_label(t).ok_or_else(|| format!("sweep: unknown tier `{t}`"))
        })
        .transpose()?;
    if tier.is_some() && matrix_oses.is_none() {
        return Err("sweep: --tier needs --os or --all-os".into());
    }

    let apps = select_apps(args)?;

    let sweep_cfg = SweepConfig {
        workloads: workloads.clone(),
        workers,
        force,
        transfer,
        analysis: loupe_core::AnalysisConfig {
            jobs,
            ..loupe_core::AnalysisConfig::fast()
        },
    };
    let summary = match &matrix_oses {
        None => Sweep::new(sweep_cfg).run(&db, apps),
        Some(oses) => loupe_sweep::sweep_matrix(
            &db,
            apps,
            &loupe_sweep::MatrixConfig {
                oses: oses.clone(),
                tier,
                sweep: sweep_cfg,
            },
        ),
    }
    .map_err(|e| e.to_string())?;
    // A matrix sweep can report one failure per OS for the same
    // (app, workload); count each baseline entry once.
    let failed_entries = summary
        .failures
        .iter()
        .map(|f| (f.app.as_str(), f.workload))
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let entries = summary.analyzed + summary.cached + failed_entries;
    let unique_apps = entries / workloads.len().max(1);
    println!(
        "swept {} apps x {} workloads ({} entries): {} analyzed, {} cached, {} failed (db: {})",
        unique_apps,
        workloads.len(),
        entries,
        summary.analyzed,
        summary.cached,
        summary.failures.len(),
        db_dir
    );
    println!(
        "engine runs: {} total ({} framing, {} feature, {} bisect)",
        summary.runs.total_runs(),
        summary.runs.framing_runs,
        summary.runs.feature_runs,
        summary.runs.bisect_runs
    );
    if transfer.is_some() {
        println!(
            "transfer: {} feature measurements skipped, {} runs saved",
            summary.runs.transfer_skips, summary.runs.saved_runs
        );
    }
    if let Some(matrix) = &summary.matrix {
        println!(
            "matrix: {} cells ({} measured, {} cached) across {} OS x workload slices",
            matrix.analyzed + matrix.cached,
            matrix.analyzed,
            matrix.cached,
            matrix.stats.len()
        );
        for row in &matrix.stats {
            println!(
                "  {:<12} {:<7} out-of-the-box {:>3}/{} ({:>3.0}%), with plan {:>3}/{} ({:>3.0}%), gain +{}",
                row.os,
                row.workload.label(),
                row.vanilla_pass,
                row.apps,
                row.vanilla_rate() * 100.0,
                row.planned_pass,
                row.apps,
                row.planned_rate() * 100.0,
                row.plan_gain()
            );
        }
    }
    persist_cache_stats(&db, &summary.cache, db_dir)?;
    for f in &summary.failures {
        eprintln!("  failed: {} ({}): {}", f.app, f.workload, f.error);
    }
    if !summary.failures.is_empty() {
        return Err(format!(
            "sweep: {} measurement(s) failed their baseline",
            summary.failures.len()
        ));
    }
    if args.iter().any(|a| a == "--static") {
        // Same fleet selection as the dynamic pass (static analysis is
        // workload-independent: one report per app and level).
        let statics = loupe_sweep::sweep_static(&db, select_apps(args)?, workers, force)
            .map_err(|e| e.to_string())?;
        println!(
            "static analysis: {} entries ({} analyzed, {} cached) under {}/static",
            statics.analyzed + statics.cached,
            statics.analyzed,
            statics.cached,
            db_dir
        );
    }
    if args.iter().any(|a| a == "--validate-plans") {
        let validations =
            loupe_sweep::validate_curated_plans(&db, &workloads).map_err(|e| e.to_string())?;
        let invalid: Vec<&loupe_plan::PlanValidation> =
            validations.iter().filter(|v| !v.is_valid()).collect();
        let early: usize = validations.iter().map(|v| v.early_steps().len()).sum();
        println!(
            "validated {} support plans ({} OSes x {} workloads): {} valid, {} invalid, \
             {} early unlocks (conservative classification)",
            validations.len(),
            loupe_plan::os::db().len(),
            workloads.len(),
            validations.len() - invalid.len(),
            invalid.len(),
            early
        );
        for v in &invalid {
            eprint!("{}", v.to_table());
        }
        if !invalid.is_empty() {
            return Err(format!(
                "sweep: {} support plan(s) failed empirical validation",
                invalid.len()
            ));
        }
    }
    // The static and plan-validation passes add cache decisions after
    // the first persist; record the final tallies.
    db.persist_sweep_stats().map_err(|e| e.to_string())?;
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let db_dir = flag_value(args, "--db").unwrap_or(DEFAULT_DB);
    let db = Database::open(db_dir).map_err(|e| e.to_string())?;
    let workers = usize_flag(args, "--workers", 0)?;

    // Make sure every dynamically measured app has its static
    // counterparts (pure cache hits when `sweep --static` already ran).
    // A measured app the registry no longer knows cannot be statically
    // analysed at all — name it instead of wedging on MissingStatic.
    // Baseline keys are `app/workload`.
    let measured: std::collections::BTreeSet<String> = db
        .keys(&store::BASELINES)
        .map_err(|e| e.to_string())?
        .iter()
        .filter_map(|key| key.split('/').next())
        .map(str::to_owned)
        .collect();
    let unknown: Vec<&str> = measured
        .iter()
        .filter(|n| registry::find(n).is_none())
        .map(String::as_str)
        .collect();
    if !unknown.is_empty() {
        return Err(format!(
            "compare: database `{db_dir}` holds measurements for apps not in the \
             registry (no static analyser can run on them): {}",
            unknown.join(", ")
        ));
    }
    let apps: Vec<_> = measured.iter().filter_map(|n| registry::find(n)).collect();
    loupe_sweep::sweep_static(&db, apps, workers, false).map_err(|e| e.to_string())?;

    let comparisons = loupe_sweep::compare(&db).map_err(|e| e.to_string())?;
    let mut violated: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for c in &comparisons {
        println!(
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
        println!(
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
            violated.insert(a.app.clone());
            for (link, missing) in &a.chain_breaks {
                eprintln!(
                    "  CHAIN BROKEN for {} ({} workload): {link}, coarser side misses {missing}",
                    a.app, c.workload
                );
            }
        }
        println!("  static-plan waste per OS (extra syscalls implemented vs dynamic plan):");
        for d in &c.plan_deltas {
            println!(
                "    {:<14} implement {:>3} (dyn) vs {:>3} (L3, +{}) vs {:>3} (L0, +{})",
                d.os,
                d.dynamic_implemented,
                d.implemented(loupe_static::Level::L3),
                d.source_waste(),
                d.implemented(loupe_static::Level::L0),
                d.binary_waste()
            );
        }
    }
    if !violated.is_empty() {
        return Err(format!(
            "compare: dynamic ⊆ L3 ⊆ L2 ⊆ L1 ⊆ L0 violated for {} app(s): {}",
            violated.len(),
            violated.into_iter().collect::<Vec<_>>().join(", ")
        ));
    }
    Ok(())
}

/// `loupe statics`: run the precision ladder over the fleet (persisting
/// into the db), or — with `--explain` — print and re-verify the
/// witness path behind one attribution.
fn cmd_statics(args: &[String]) -> Result<(), String> {
    if let Some(pos) = args.iter().position(|a| a == "--explain") {
        let app = args
            .get(pos + 1)
            .ok_or("statics: --explain expects <app> <syscall>")?;
        let sysno = args
            .get(pos + 2)
            .ok_or("statics: --explain expects <app> <syscall>")?;
        return explain_witness(app, sysno);
    }

    let db_dir = flag_value(args, "--db").unwrap_or(DEFAULT_DB);
    let db = Database::open(db_dir).map_err(|e| e.to_string())?;
    let workers = usize_flag(args, "--workers", 0)?;
    let force = args.iter().any(|a| a == "--force");
    let levels: Vec<loupe_static::Level> = match flag_value(args, "--level") {
        None => loupe_static::Level::ALL.to_vec(),
        Some("all") => loupe_static::Level::ALL.to_vec(),
        Some(spec) => spec
            .split(',')
            .map(|l| {
                loupe_static::Level::parse(l.trim())
                    .ok_or_else(|| format!("statics: unknown level `{l}` (l0..l3, binary, source)"))
            })
            .collect::<Result<_, _>>()?,
    };
    let apps = match flag_value(args, "--app") {
        Some(name) => vec![registry::find(name).ok_or_else(|| format!("unknown app `{name}`"))?],
        None => select_apps(args)?,
    };
    let summary = loupe_sweep::sweep_static_levels(&db, apps, &levels, workers, force)
        .map_err(|e| e.to_string())?;
    println!(
        "static analysis: {} entries ({} analyzed, {} cached) at level(s) {} under {}/static",
        summary.analyzed + summary.cached,
        summary.analyzed,
        summary.cached,
        levels
            .iter()
            .map(|l| l.label())
            .collect::<Vec<_>>()
            .join(","),
        db_dir
    );
    db.persist_sweep_stats().map_err(|e| e.to_string())?;
    Ok(())
}

/// Prints, for each ladder level, the witness path that justifies
/// attributing `sysno` to `app` — re-verified against the lowered
/// program graph before printing.
fn explain_witness(app: &str, sysno: &str) -> Result<(), String> {
    use loupe_static::{analyze_graph, verify_witness, Level};

    let model = registry::find(app).ok_or_else(|| format!("unknown app `{app}`"))?;
    let sysno = match sysno.parse::<u32>() {
        Ok(n) => loupe_syscalls::Sysno::from_raw(n),
        Err(_) => sysno.parse::<loupe_syscalls::Sysno>().ok(),
    }
    .ok_or_else(|| format!("unknown syscall `{sysno}`"))?;
    let graph = loupe_apps::ProgramGraph::lower(model.as_ref());
    let mut attributed_anywhere = false;
    println!(
        "{app}: why does static analysis attribute `{}`?",
        sysno.name()
    );
    for &level in &Level::ALL {
        let report = analyze_graph(&graph, level);
        match report.witness(sysno) {
            Some(w) => {
                verify_witness(&graph, level, w)
                    .map_err(|e| format!("statics: stored witness failed re-verification: {e}"))?;
                attributed_anywhere = true;
                println!("  {:<26} {}", level.title(), w.render());
            }
            None => println!("  {:<26} not attributed", level.title()),
        }
    }
    if !attributed_anywhere {
        return Err(format!(
            "statics: no level attributes `{}` to {app}",
            sysno.name()
        ));
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let db_dir = flag_value(args, "--db").unwrap_or(DEFAULT_DB);
    let db = Database::open(db_dir).map_err(|e| e.to_string())?;
    let docs_dir = std::path::Path::new(flag_value(args, "--docs").unwrap_or("docs"));
    if db
        .keys(&store::BASELINES)
        .map_err(|e| e.to_string())?
        .is_empty()
    {
        return Err(format!(
            "report: database `{db_dir}` is empty; run `loupe sweep` first"
        ));
    }
    if args.iter().any(|a| a == "--check") {
        let drift = report::check(&db, docs_dir).map_err(|e| e.to_string())?;
        if drift.is_empty() {
            println!("docs in {} match the database", docs_dir.display());
            return Ok(());
        }
        for d in &drift {
            eprintln!("  {d}");
        }
        return Err(format!(
            "report: {} file(s) drifted from the database; regenerate with `loupe report`",
            drift.len()
        ));
    }
    let written = report::write(&db, docs_dir).map_err(|e| e.to_string())?;
    println!("wrote {} files under {}", written.len(), docs_dir.display());
    Ok(())
}

fn cmd_gentests(args: &[String]) -> Result<(), String> {
    let db_dir = flag_value(args, "--db").unwrap_or(DEFAULT_DB);
    let db = Database::open(db_dir).map_err(|e| e.to_string())?;
    let all_os = args.iter().any(|a| a == "--all-os");
    let os_sel = flag_value(args, "--os");
    if all_os && os_sel.is_some() {
        return Err("gentests: --os and --all-os are exclusive".into());
    }
    let oses = if all_os {
        os::db()
    } else if let Some(name) = os_sel {
        let spec = os::find(name)
            .ok_or_else(|| format!("gentests: unknown OS `{name}` (see `loupe os-list`)"))?;
        vec![spec]
    } else {
        return Err("gentests: need --os <name> or --all-os".into());
    };
    let workloads = parse_workloads(args)?;
    let workers = usize_flag(args, "--workers", 0)?;
    let jobs = usize_flag(args, "--jobs", 1)?;
    let check = args.iter().any(|a| a == "--check");
    let apps: Vec<_> = match flag_value(args, "--app") {
        Some(name) => {
            vec![registry::find(name).ok_or_else(|| format!("unknown app `{name}`"))?]
        }
        None => select_apps(args)?,
    };

    let cfg = loupe_sweep::GentestsConfig {
        matrix: loupe_sweep::MatrixConfig {
            oses,
            tier: None,
            sweep: SweepConfig {
                workloads: workloads.clone(),
                workers,
                force: args.iter().any(|a| a == "--force"),
                transfer: None,
                analysis: loupe_core::AnalysisConfig {
                    jobs,
                    ..loupe_core::AnalysisConfig::fast()
                },
            },
        },
        check,
    };
    let summary = loupe_sweep::sweep_gentests(&db, apps, &cfg).map_err(|e| e.to_string())?;
    println!(
        "gentests: {} suites ({} generated, {} cached{}) across {} OS x workload slices (db: {})",
        summary.generated + summary.cached + summary.stale.len(),
        summary.generated,
        summary.cached,
        if check {
            format!(", {} stale", summary.stale.len())
        } else {
            String::new()
        },
        summary.stats.len(),
        db_dir
    );
    persist_cache_stats(&db, &summary.base.cache, db_dir)?;
    for row in &summary.stats {
        println!(
            "  {:<12} {:<7} {:>3} suites, {:>5} cases; out-of-the-box {:>3}/{}, with plan {:>3}/{}",
            row.os,
            row.workload.label(),
            row.suites,
            row.cases,
            row.vanilla_pass,
            row.suites,
            row.planned_pass,
            row.suites,
        );
    }
    for f in &summary.base.failures {
        eprintln!("  failed: {} ({}): {}", f.app, f.workload, f.error);
    }
    if let Some(out_dir) = flag_value(args, "--out") {
        let mut exported = 0;
        for suite in db.load_all(&store::SUITES).map_err(|e| e.to_string())? {
            let dir = std::path::Path::new(out_dir)
                .join(&suite.os)
                .join(suite.workload.label());
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            let json = serde_json::to_string_pretty(&suite).map_err(|e| e.to_string())?;
            std::fs::write(dir.join(format!("{}.json", suite.app)), json)
                .map_err(|e| e.to_string())?;
            exported += 1;
        }
        println!("exported {exported} suite files under {out_dir}");
    }
    for d in &summary.disagreements {
        eprintln!(
            "  DISAGREEMENT: {} x {} ({}, {} tier): suite says {}, matrix says {}",
            d.os,
            d.app,
            d.workload,
            d.tier.label(),
            if d.suite_pass { "pass" } else { "fail" },
            if d.matrix_pass { "pass" } else { "fail" },
        );
    }
    if !summary.disagreements.is_empty() {
        return Err(format!(
            "gentests: {} suite verdict(s) disagree with the stored matrix",
            summary.disagreements.len()
        ));
    }
    if check && !summary.stale.is_empty() {
        for (os_name, app, workload) in &summary.stale {
            eprintln!("  stale: {os_name}/{}/{app}.json", workload.label());
        }
        return Err(format!(
            "gentests: {} stored suite(s) drifted from the corpus; regenerate with `loupe gentests`",
            summary.stale.len()
        ));
    }
    if !summary.base.failures.is_empty() {
        return Err(format!(
            "gentests: {} measurement(s) failed their baseline",
            summary.base.failures.len()
        ));
    }
    Ok(())
}

fn cmd_cache(args: &[String]) -> Result<(), String> {
    let sub = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("cache: need a subcommand: stats | invalidate")?;
    let rest = &args[1..];
    let db_dir = flag_value(rest, "--db").unwrap_or(DEFAULT_DB);
    let db = Database::open(db_dir).map_err(|e| e.to_string())?;
    match sub.as_str() {
        "stats" => {
            println!("cache manifest for {db_dir}:");
            println!(
                "{:<12} {:>8}  {:>15}",
                "NAMESPACE", "ENTRIES", "WITH PROVENANCE"
            );
            for (namespace, total, with_inputs) in db.cache_entry_counts() {
                println!("{namespace:<12} {total:>8}  {with_inputs:>15}");
            }
            match db.last_sweep_stats() {
                Some(stats) if !stats.is_empty() => {
                    println!("\nlast sweep:");
                    println!(
                        "{:<12} {:>6} {:>8} {:>6}",
                        "NAMESPACE", "HITS", "MISSES", "STALE"
                    );
                    for (namespace, c) in &stats.namespaces {
                        if c.total() > 0 {
                            println!(
                                "{namespace:<12} {:>6} {:>8} {:>6}",
                                c.hits, c.misses, c.stale
                            );
                        }
                    }
                    let t = stats.total();
                    println!(
                        "{:<12} {:>6} {:>8} {:>6}",
                        "total", t.hits, t.misses, t.stale
                    );
                }
                _ => println!("\nno sweep has recorded cache counters yet"),
            }
            Ok(())
        }
        "invalidate" => {
            let os_sel = flag_value(rest, "--os");
            let app_sel = flag_value(rest, "--app");
            let all = rest.iter().any(|a| a == "--all");
            if all && (os_sel.is_some() || app_sel.is_some()) {
                return Err("cache invalidate: --all excludes --os/--app".into());
            }
            if !all && os_sel.is_none() && app_sel.is_none() {
                return Err("cache invalidate: pass --os <name>, --app <name>, or --all".into());
            }
            if let Some(name) = os_sel {
                if os::find(name).is_none() {
                    return Err(format!(
                        "cache invalidate: unknown OS `{name}` (see `loupe os-list`)"
                    ));
                }
            }
            if let Some(name) = app_sel {
                if registry::find(name).is_none() {
                    return Err(format!("cache invalidate: unknown app `{name}`"));
                }
            }
            let dropped = db.invalidate_matching(os_sel, app_sel);
            db.flush().map_err(|e| e.to_string())?;
            let total: usize = dropped.iter().map(|(_, n)| n).sum();
            for (namespace, n) in &dropped {
                if *n > 0 {
                    println!("  {namespace}: {n} record(s) invalidated");
                }
            }
            println!(
                "invalidated {total} provenance record(s) in {db_dir}; \
                 the next sweep re-measures the affected cells"
            );
            Ok(())
        }
        other => Err(format!(
            "cache: unknown subcommand `{other}` (stats | invalidate)"
        )),
    }
}

fn cmd_plan(args: &[String]) -> Result<(), String> {
    let os_arg = flag_value(args, "--os").ok_or("plan: missing --os")?;
    let spec = if os_arg.ends_with(".csv") {
        let text = std::fs::read_to_string(os_arg).map_err(|e| e.to_string())?;
        os::OsSpec::from_csv(os_arg, "file", &text).map_err(|e| e.to_string())?
    } else {
        os::find(os_arg).ok_or_else(|| format!("unknown OS `{os_arg}`"))?
    };
    let workload = parse_workload(args, Workload::Benchmark)?;

    let apps: Vec<_> = match flag_value(args, "--apps") {
        Some(list) => list
            .split(',')
            .map(|n| registry::find(n.trim()).ok_or_else(|| format!("unknown app `{n}`")))
            .collect::<Result<_, _>>()?,
        None => registry::cloud_apps(),
    };

    // Reuse stored measurements when a database is given.
    let db = flag_value(args, "--db")
        .map(Database::open)
        .transpose()
        .map_err(|e| e.to_string())?;
    let analysis = AnalysisConfig::fast();
    let engine = Engine::new(analysis.clone());
    let mut reqs = Vec::new();
    for app in &apps {
        let cached = db.as_ref().and_then(|db| {
            db.get(
                &store::BASELINES,
                &loupe_db::baseline_key(app.name(), workload),
            )
            .ok()
            .flatten()
        });
        let report = match cached {
            Some(r) => r,
            None => {
                let r = engine
                    .analyze(app.as_ref(), workload)
                    .map_err(|e| e.to_string())?;
                if let Some(db) = &db {
                    store_report(db, &r, app.as_ref(), &analysis)?;
                }
                r
            }
        };
        reqs.push(AppRequirement::from_report(&report));
    }

    let plan = SupportPlan::generate(&spec, &reqs);
    print!("{}", plan.to_table());

    if args.iter().any(|a| a == "--validate") {
        let validation = loupe_plan::PlanValidator::new()
            .validate(&spec, &plan, &reqs, workload, registry::find)
            .map_err(|e| e.to_string())?;
        print!("{}", validation.to_table());
        if let Some(db) = &db {
            db.commit(
                &store::PLANS,
                &validation,
                Derive::Miss,
                loupe_sweep::plan_inputs(&spec, loupe_core::fingerprint_of(&reqs)),
                Default::default(),
            )
            .map_err(|e| e.to_string())?;
            db.flush().map_err(|e| e.to_string())?;
            eprintln!("validation stored");
        }
        if !validation.is_valid() {
            return Err(format!(
                "plan: {} of {} steps failed empirical validation",
                validation.failing_steps().len()
                    + validation.initial.iter().filter(|v| !v.passes).count(),
                validation.steps.len() + validation.initial.len()
            ));
        }
    }
    Ok(())
}

const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7071";

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let db_dir = flag_value(args, "--db").unwrap_or(DEFAULT_DB);
    let addr = flag_value(args, "--addr").unwrap_or(DEFAULT_SERVE_ADDR);
    let threads = usize_flag(args, "--threads", 1024)?;
    let watch_ms = flag_value(args, "--watch-ms")
        .map(|v| v.parse::<u64>().map_err(|_| "bad --watch-ms".to_owned()))
        .transpose()?
        .unwrap_or(200);
    let cfg = loupe_serve::ServeConfig {
        addr: addr.to_owned(),
        threads,
        watch_interval: std::time::Duration::from_millis(watch_ms),
        eager: args.iter().any(|a| a == "--eager"),
    };
    let server = loupe_serve::Server::start(db_dir, cfg).map_err(|e| e.to_string())?;
    // Scripted clients parse this line for the resolved port.
    println!("listening on {}", server.local_addr());
    println!("serving {db_dir} (watch {watch_ms}ms); ^C to stop");
    // The daemon runs until killed; its accept/watcher threads
    // do all the work.
    loop {
        std::thread::park();
    }
}

/// Builds the protocol request the `query` flags describe.
fn build_query(args: &[String]) -> Result<loupe_serve::Request, String> {
    let mut request = loupe_serve::Request {
        os: flag_value(args, "--os").map(str::to_owned),
        app: flag_value(args, "--app").map(str::to_owned),
        workload: flag_value(args, "--workload").map(str::to_owned),
        tier: flag_value(args, "--tier").map(str::to_owned),
        limit: flag_value(args, "--limit")
            .map(|v| v.parse::<u64>().map_err(|_| "bad --limit".to_owned()))
            .transpose()?,
        ..Default::default()
    };
    request.cmd = if args.iter().any(|a| a == "--summary") {
        "summary"
    } else if args.iter().any(|a| a == "--missing") {
        "missing"
    } else if args.iter().any(|a| a == "--plan") {
        "plan"
    } else if let Some(syscall) = flag_value(args, "--apps-requiring") {
        request.syscall = Some(syscall.to_owned());
        "apps"
    } else if request.os.is_some() || request.app.is_some() {
        "verdict"
    } else {
        return Err("query: pass --os X --app Y, or one of \
                    --summary/--missing/--plan/--apps-requiring"
            .into());
    }
    .to_owned();
    Ok(request)
}

fn print_query_response(request: &loupe_serve::Request, response: &loupe_serve::Response) {
    match request.cmd.as_str() {
        "verdict" => {
            let Some(v) = &response.verdict else { return };
            let outcome = if !v.known {
                "UNMEASURED (no stored matrix cell)"
            } else if v.pass {
                "PASS"
            } else {
                "FAIL"
            };
            println!(
                "{} on {} ({} workload, {} tier): {outcome}",
                v.app, v.os, v.workload, v.tier
            );
            if v.known {
                println!(
                    "  linux reference: {}",
                    if v.linux_pass { "pass" } else { "fail" }
                );
                if let Some(rejection) = &v.first_rejection {
                    println!("  first rejection: {rejection}");
                }
                if !v.missing_required.is_empty() {
                    println!(
                        "  missing required ({}): {}",
                        v.missing_required.len(),
                        v.missing_required.join(", ")
                    );
                }
            }
        }
        "summary" => {
            println!(
                "{:<14} {:<7} {:>8} {:>5} {:>6} {:>8} {:>10}",
                "OS", "WORK", "SYSCALLS", "APPS", "LINUX", "VANILLA", "WITH PLAN"
            );
            for row in &response.summary {
                println!(
                    "{:<14} {:<7} {:>8} {:>5} {:>6} {:>8} {:>10}",
                    row.os,
                    row.workload,
                    row.syscalls,
                    row.apps,
                    row.linux_pass,
                    row.vanilla_pass,
                    row.planned_pass
                );
            }
        }
        "missing" => {
            println!("{:<22} {:>12}", "SYSCALL", "BLOCKED APPS");
            for row in &response.missing {
                println!("{:<22} {:>12}", row.syscall, row.blocked_apps);
            }
        }
        "plan" => {
            let Some(plan) = &response.plan else { return };
            println!(
                "support plan for {} ({} workload): {} apps out of the box, {} steps",
                plan.os,
                plan.workload,
                plan.initially_supported.len(),
                plan.steps.len()
            );
            for step in &plan.steps {
                println!(
                    "  {:>2}. implement {:>3}, stub {:>3}, fake {:>3} -> unlocks {}",
                    step.index,
                    step.implement.len(),
                    step.stub.len(),
                    step.fake.len(),
                    step.unlocks
                );
            }
        }
        "apps" => {
            for app in &response.apps {
                println!("{app}");
            }
        }
        _ => {}
    }
    if let Some(generation) = response.generation {
        eprintln!("(index generation {generation})");
    }
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let request = build_query(args)?;
    let response = if args.iter().any(|a| a == "--offline") {
        // No daemon: load the database and resolve against a
        // freshly built index — the same code the daemon runs.
        let db_dir = flag_value(args, "--db").unwrap_or(DEFAULT_DB);
        let db = Database::open(db_dir).map_err(|e| e.to_string())?;
        let index = loupe_serve::ServeIndex::build(db, 0).map_err(|e| e.to_string())?;
        index.answer(&request)
    } else {
        let addr = flag_value(args, "--addr").unwrap_or(DEFAULT_SERVE_ADDR);
        let mut client = loupe_serve::Client::connect(addr).map_err(|e| {
            format!(
                "query: cannot reach a daemon at {addr}: {e} \
                 (start one with `loupe serve`, or pass --offline)"
            )
        })?;
        client
            .set_timeout(std::time::Duration::from_secs(30))
            .map_err(|e| e.to_string())?;
        client.request(&request).map_err(|e| e.to_string())?
    };
    if args.iter().any(|a| a == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&response).map_err(|e| e.to_string())?
        );
    }
    if !response.ok {
        return Err(format!(
            "query: {}",
            response.error.as_deref().unwrap_or("request failed")
        ));
    }
    if !args.iter().any(|a| a == "--json") {
        print_query_response(&request, &response);
    }
    Ok(())
}

fn cmd_os_list() -> Result<(), String> {
    println!("{:<14} {:<14} {:>9}", "OS", "VERSION", "SYSCALLS");
    for spec in os::db() {
        println!(
            "{:<14} {:<14} {:>9}",
            spec.name,
            spec.version,
            spec.supported.len()
        );
    }
    Ok(())
}

fn cmd_ingest(args: &[String]) -> Result<(), String> {
    let path = flag_value(args, "--from").ok_or("ingest: missing --from <file.md>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("ingest: {path}: {e}"))?;
    let name = flag_value(args, "--os")
        .map(str::to_owned)
        .or_else(|| {
            std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
        })
        .ok_or("ingest: cannot derive a spec name; pass --os <name>")?;
    let version = flag_value(args, "--version").unwrap_or("ingested");
    let overrides = match flag_value(args, "--overrides") {
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| format!("ingest: {p}: {e}"))?;
            loupe_plan::ingest::parse_overrides(&text).map_err(|e| format!("ingest: {p}: {e}"))?
        }
        None => Vec::new(),
    };

    let table = CompatTable::parse(&text).map_err(|e| format!("ingest: {path}: {e}"))?;
    let spec = table
        .to_spec(&name, version, &overrides)
        .map_err(|e| format!("ingest: {path}: {e}"))?;

    if args.iter().any(|a| a == "--check") {
        if table.render() != text {
            return Err(format!(
                "ingest: {path} is not in canonical form (re-render changes bytes)"
            ));
        }
        if let Some(curated) = os::find(&name) {
            if spec.supported != curated.supported || spec.partial != curated.partial {
                let missing = curated.supported.difference(&spec.supported);
                let extra = spec.supported.difference(&curated.supported);
                return Err(format!(
                    "ingest: {path} disagrees with the curated `{name}` spec \
                     ({} syscalls missing, {} extra, holes {} vs curated {})",
                    missing.len(),
                    extra.len(),
                    spec.all_holes().len(),
                    curated.all_holes().len()
                ));
            }
            println!("{name}: canonical table, matches the curated spec");
        } else {
            println!("{name}: canonical table (no curated spec to compare)");
        }
    }

    if args.iter().any(|a| a == "--json") {
        let json = serde_json::to_string_pretty(&spec).map_err(|e| e.to_string())?;
        println!("{json}");
        return Ok(());
    }

    println!(
        "{}: {} syscalls supported, {} partially ({} flag holes)",
        spec.name,
        spec.supported.len(),
        spec.partial.len(),
        spec.all_holes().len()
    );
    for (sysno, holes) in &spec.partial {
        let rendered: Vec<String> = holes.iter().map(|k| k.to_string()).collect();
        println!("  {:<12} missing {}", sysno.name(), rendered.join(", "));
    }
    Ok(())
}

fn cmd_importance(args: &[String]) -> Result<(), String> {
    let workload = parse_workload(args, Workload::HealthCheck)?;
    let n = usize_flag(args, "--apps", 116)?;
    let engine = Engine::new(AnalysisConfig::fast());
    let mut required_sets = Vec::new();
    for app in registry::dataset().into_iter().take(n) {
        match engine.analyze(app.as_ref(), workload) {
            Ok(r) => required_sets.push(r.required()),
            Err(e) => eprintln!("skipping {}: {e}", app.name()),
        }
    }
    for point in api_importance(&required_sets) {
        println!(
            "{:>3}. {:<22} {:>5.1}%",
            point.rank,
            point.sysno.name(),
            point.importance * 100.0
        );
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let cmd_start = args
        .iter()
        .position(|a| a == "--")
        .map(|i| i + 1)
        .unwrap_or(0);
    let argv: Vec<&str> = args[cmd_start..].iter().map(String::as_str).collect();
    if argv.is_empty() {
        return Err("trace: missing command (use `loupe trace -- cmd args...`)".into());
    }
    let result = loupe_trace::trace_command(&argv, &loupe_trace::TracePolicy::allow_all())
        .map_err(|e| e.to_string())?;
    println!(
        "exit: {:?}; {} distinct syscalls:",
        result.exit_code,
        result.counts.len()
    );
    for (sysno, count) in result.by_sysno() {
        println!("{:>8}  {}", count, sysno.name());
    }
    Ok(())
}
