//! Artifact namespaces: one descriptor per kind of stored artifact.
//!
//! Everything the database knows about a kind of artifact lives in its
//! [`Namespace`] descriptor: where its files sit, what its keys mean,
//! how a new artifact composes with a stored one, and whether it has a
//! binary snapshot. [`Database`](crate::Database)'s generic `put`,
//! `get`, `keys` and `load_all` work over any descriptor, so the on-disk
//! layout (tabulated in `docs/ARCHITECTURE.md`) is written down exactly
//! once: in the seven templates below.
//!
//! A key is a template's `*` segments joined by `/`, so a key maps to
//! exactly one path and back — except in a [shared](Layout::shared)
//! layout, whose keys carry one segment more than its paths: the keys
//! that differ only there share one file. OS support specs ([`OS_DIR`]), the
//! snapshots ([`INDEX_DIR`]) and the manifest's records files
//! ([`MANIFEST_DIR`]) sit beside the namespaces; together with the
//! namespaces' top-level directories they are reserved names that the
//! root-level `baselines` walk skips (no app may be called `env`,
//! `plans`, `static`, `gentests`, `rendered`, `os`, `index` or
//! `manifest`, and no app inside an environment may be called
//! `matrix`).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use loupe_core::{fingerprint_of, AppReport, Fingerprint, LINUX_ENV};
use loupe_gentests::{ConformanceSuite, SuiteBody};
use loupe_plan::{AppRequirement, MatrixCell, PlanValidation};
use loupe_static::StaticReport;
use serde::{Deserialize, Serialize};

use crate::{
    baseline_key, env_key, fingerprint_bytes, matrix_key, merge_reports, ns, plan_key, static_key,
    suite_key, DbError, Slots, SnapshotSlot,
};

/// Directory of the exported OS support specs (`os/<name>.csv`).
pub const OS_DIR: &str = "os";
/// Directory of the binary namespace snapshots (`index/<ns>.bin`).
pub const INDEX_DIR: &str = "index";
/// Directory of the manifest's records files (`manifest/<ns>.json`).
pub const MANIFEST_DIR: &str = "manifest";

/// Meta key of a committed baseline: the fingerprint (hex) of the
/// stored report's [`AppRequirement`], the matrix cells' `requirement`
/// input.
pub const REQUIREMENT_META: &str = "requirement";
/// Meta key of a committed baseline: the fingerprint (hex) of the
/// stored report's baseline feature map, the matrix cells' `features`
/// input.
pub const FEATURES_META: &str = "features";

/// Where a namespace's artifacts live and what their key segments mean:
/// the type-independent half of a [`Namespace`].
#[derive(Debug)]
pub struct Layout {
    /// Manifest namespace name (one of [`ns`]).
    pub name: &'static str,
    /// Path template relative to the root: `/`-separated directory
    /// names, `*` standing for the next key segment. The last segment
    /// names the file, `<segment>.json`.
    pub template: &'static str,
    /// Key segment holding the OS (or environment), if keys carry one.
    pub os: Option<usize>,
    /// Key segment holding the app, if keys carry one.
    pub app: Option<usize>,
    /// Key segment left out of the path, if any: the keys that differ
    /// only there share one stored file (one suite body serves every
    /// OS), so such a key exists by its manifest record (or, its
    /// file's records lost, by the matrix holding cells of its OS), not
    /// by a file of its own.
    pub shared: Option<usize>,
}

/// A record's meta: small facts about its artifact, by name.
type Meta = BTreeMap<String, String>;

/// One artifact namespace: its [`Layout`] plus the typed policies the
/// generic store applies to it.
pub struct Namespace<T> {
    /// Paths and key shape.
    pub layout: Layout,
    /// The key an artifact is stored under.
    pub(crate) key: fn(&T) -> String,
    /// How a `put` composes `(stored, fresh)`; `None` overwrites.
    pub(crate) merge: Option<fn(&T, &T) -> T>,
    /// Which stored values reads serve.
    pub(crate) accept: fn(&T) -> bool,
    /// The per-process snapshot state, for namespaces with an index.
    pub(crate) slot: Option<fn(&Slots) -> &SnapshotSlot<T>>,
    /// Facts a committed record's meta carries about the value actually
    /// stored (after any merge), so later stages can use them without
    /// loading it.
    pub(crate) facts: Option<fn(&T) -> Meta>,
    /// How a [shared](Layout::shared) layout's values are split into
    /// the stored file and assembled back.
    pub(crate) assembly: Option<Assembly<T>>,
}

/// How the values of a [shared](Layout::shared) layout are stored: the
/// file holds the part the keys sharing it have in common (the body);
/// the rest of each value is its key's shared segment and the matrix
/// cell of its key.
pub(crate) struct Assembly<T> {
    /// The stored file's text for a value: its body, as pretty JSON.
    pub(crate) body: fn(&T) -> Result<String, String>,
    /// The values stored in one file, from its text: one per target.
    pub(crate) assemble: fn(&str, &[Target<'_>]) -> Result<Vec<T>, String>,
}

/// What completes one key's value in a [shared](Layout::shared) layout:
/// its shared segment and its matrix cell (`None` when no cell is
/// stored).
pub(crate) type Target<'a> = (&'a str, Option<&'a MatrixCell>);

impl<T: Serialize> Namespace<T> {
    /// The output fingerprint the record of `value` carries once it is
    /// stored as it is: [`fingerprint_of`] it, but in a
    /// [shared](Layout::shared) layout, [`fingerprint_bytes`] of the
    /// text its file holds.
    ///
    /// # Errors
    ///
    /// A body that does not serialise.
    pub fn output_of(&self, value: &T) -> Result<Fingerprint, DbError> {
        match &self.assembly {
            None => Ok(fingerprint_of(value)),
            Some(assembly) => Ok(fingerprint_bytes(
                self.body_text(assembly, value)?.as_bytes(),
            )),
        }
    }

    /// The text a [shared](Layout::shared) layout's file holds for
    /// `value`.
    pub(crate) fn body_text(&self, assembly: &Assembly<T>, value: &T) -> Result<String, DbError> {
        (assembly.body)(value).map_err(|message| DbError::Corrupt {
            path: self.layout.path(&(self.key)(value)),
            message,
        })
    }
}

impl<T> fmt::Debug for Namespace<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.layout.fmt(f)
    }
}

/// Full-Linux baseline reports. Entries recording another execution
/// environment (tooling that predates the `env/` segregation) are never
/// served as baselines.
pub static BASELINES: Namespace<AppReport> = Namespace {
    layout: Layout {
        name: ns::BASELINES,
        template: "*/*",
        os: None,
        app: Some(0),
        shared: None,
    },
    key: |r| baseline_key(&r.app, r.workload),
    merge: Some(merge_measurements),
    accept: AppReport::is_linux_baseline,
    slot: Some(|s| &s.baselines),
    facts: Some(baseline_facts),
    assembly: None,
};

/// Reports measured on a restricted execution environment.
pub static ENV: Namespace<AppReport> = Namespace {
    layout: Layout {
        name: ns::ENV,
        template: "env/*/*/*",
        os: Some(0),
        app: Some(1),
        shared: None,
    },
    key: |r| env_key(&r.env, &r.app, r.workload),
    merge: Some(merge_measurements),
    accept: |_| true,
    slot: None,
    facts: None,
    assembly: None,
};

/// Fleet × OS matrix cells. A stored cell is composed with, not
/// clobbered: tiers the new cell did not measure keep the stored
/// verdict, so a vanilla-only sweep followed by a planned sweep yields
/// one complete cell.
pub static MATRIX: Namespace<MatrixCell> = Namespace {
    layout: Layout {
        name: ns::MATRIX,
        template: "env/*/matrix/*/*",
        os: Some(0),
        app: Some(1),
        shared: None,
    },
    key: |c| matrix_key(&c.os, &c.app, c.workload),
    merge: Some(compose_tiers),
    accept: |_| true,
    slot: Some(|s| &s.matrix),
    facts: None,
    assembly: None,
};

/// Plan validations: one deterministic replay of the current plan, so
/// a new validation overwrites the stored one.
pub static PLANS: Namespace<PlanValidation> = Namespace {
    layout: Layout {
        name: ns::PLANS,
        template: "plans/*/*",
        os: Some(0),
        app: None,
        shared: None,
    },
    key: |v| plan_key(&v.os, v.workload),
    merge: None,
    accept: |_| true,
    slot: None,
    facts: None,
    assembly: None,
};

/// Static-analysis reports, keyed by precision level. Static analysis
/// is a pure function of the app's code descriptor: overwrite.
pub static STATIC: Namespace<StaticReport> = Namespace {
    layout: Layout {
        name: ns::STATIC,
        template: "static/*/*",
        os: None,
        app: Some(1),
        shared: None,
    },
    key: |r| static_key(r.level, &r.app),
    merge: None,
    accept: |_| true,
    slot: Some(|s| &s.statics),
    facts: None,
    assembly: None,
};

/// Conformance suites: a deterministic compilation of the current
/// corpus, so a new suite overwrites the stored one. A suite's body
/// ([`SuiteBody`]) does not depend on the OS, so the suites of one
/// `(app, workload)` share one file, `gentests/<workload>/<app>.json`;
/// each OS's suite exists by its record and takes its `os` from its
/// key and its expected verdicts from its matrix cell, exactly as
/// [`ConformanceSuite::generate`] does.
pub static SUITES: Namespace<ConformanceSuite> = Namespace {
    layout: Layout {
        name: ns::SUITES,
        template: "gentests/*/*",
        os: Some(0),
        app: Some(2),
        shared: Some(0),
    },
    key: |s| suite_key(&s.os, &s.app, s.workload),
    merge: None,
    accept: |_| true,
    slot: None,
    facts: None,
    assembly: Some(Assembly {
        body: |suite| serde_json::to_string_pretty(&suite.body()).map_err(|e| e.to_string()),
        assemble: |text, targets| {
            let body: SuiteBody = serde_json::from_str(text).map_err(|e| e.to_string())?;
            Ok(targets
                .iter()
                .map(|(os, cell)| ConformanceSuite::assemble(os, body.clone(), *cell))
                .collect())
        },
    }),
};

/// What a command rendered from the database, recorded so that a rerun
/// whose inputs have not changed answers without rendering again. Its
/// record's inputs are the [`Database::namespace_state`] of every
/// namespace the output reads, plus the identity of the executable that
/// rendered it.
///
/// [`Database::namespace_state`]: crate::Database::namespace_state
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Rendered {
    /// Which output (the key): `docs` or `compare`.
    pub name: String,
    /// The fingerprint ([`fingerprint_bytes`](crate::fingerprint_bytes))
    /// of each file of a rendered file set, by relative path.
    #[serde(default)]
    pub files: BTreeMap<String, Fingerprint>,
    /// What the command prints to stdout.
    #[serde(default)]
    pub stdout: String,
    /// What the command prints to stderr.
    #[serde(default)]
    pub stderr: String,
    /// What failed the command's check (for `compare`, the apps that
    /// break the containment chain); empty when it passes.
    #[serde(default)]
    pub failed: Vec<String>,
}

/// Rendered outputs. A rendering is a pure function of its inputs, so a
/// new one overwrites the stored one.
pub static RENDERED: Namespace<Rendered> = Namespace {
    layout: Layout {
        name: ns::RENDERED,
        template: "rendered/*",
        os: None,
        app: None,
        shared: None,
    },
    key: |r| r.name.clone(),
    merge: None,
    accept: |_| true,
    slot: None,
    facts: None,
    assembly: None,
};

/// Every namespace's layout, in display order (that of [`ns::ALL`]).
pub static ALL: [&Layout; 7] = [
    &BASELINES.layout,
    &ENV.layout,
    &MATRIX.layout,
    &PLANS.layout,
    &STATIC.layout,
    &SUITES.layout,
    &RENDERED.layout,
];

/// The namespace a report is stored in: baselines for full Linux,
/// `env` for every restricted environment.
pub fn reports(env: &str) -> &'static Namespace<AppReport> {
    if env == LINUX_ENV {
        &BASELINES
    } else {
        &ENV
    }
}

/// Measurements of the same environment merge conservatively (a
/// feature is stubbable or fakeable only if every measurement agrees,
/// §3.1); a stored entry of another environment is superseded, since
/// merging a restricted-kernel trace into a baseline would poison it.
fn merge_measurements(stored: &AppReport, fresh: &AppReport) -> AppReport {
    if stored.env == fresh.env {
        merge_reports(stored, fresh)
    } else {
        fresh.clone()
    }
}

/// What a committed baseline's meta records: the fingerprints of the
/// matrix inputs derived from it ([`REQUIREMENT_META`],
/// [`FEATURES_META`]).
fn baseline_facts(report: &AppReport) -> Meta {
    let requirement = fingerprint_of(&AppRequirement::from_report(report));
    let features = fingerprint_of(&report.baseline.features);
    [(REQUIREMENT_META, requirement), (FEATURES_META, features)]
        .map(|(key, fp)| (key.to_owned(), fp.to_hex()))
        .into()
}

fn compose_tiers(stored: &MatrixCell, fresh: &MatrixCell) -> MatrixCell {
    MatrixCell {
        vanilla: fresh.vanilla.clone().or_else(|| stored.vanilla.clone()),
        planned: fresh.planned.clone().or_else(|| stored.planned.clone()),
        ..fresh.clone()
    }
}

impl Layout {
    /// The key of the file `key` is stored in: `key` itself, but for a
    /// full key of a [shared](Self::shared) layout, `key` without its
    /// shared segment (the keys [`walk`](Self::walk) lists).
    pub fn file_key<'k>(&self, key: &'k str) -> Cow<'k, str> {
        let stars = self.template.split('/').filter(|part| *part == "*").count();
        match self.shared {
            Some(at) if key.split('/').count() > stars => Cow::Owned(
                key.split('/')
                    .enumerate()
                    .filter(|(i, _)| *i != at)
                    .map(|(_, segment)| segment)
                    .collect::<Vec<_>>()
                    .join("/"),
            ),
            _ => Cow::Borrowed(key),
        }
    }

    /// The key with the [shared](Self::shared) segment `segment` that
    /// is stored in `file` (a key [`walk`](Self::walk) lists): the
    /// inverse of [`file_key`](Self::file_key).
    pub(crate) fn shared_key(&self, file: &str, segment: &str) -> String {
        let mut segments: Vec<&str> = file.split('/').collect();
        let at = self.shared.unwrap_or_default().min(segments.len());
        segments.insert(at, segment);
        segments.join("/")
    }

    /// The [shared](Self::shared) segment of `key` (empty when the
    /// layout has none).
    pub(crate) fn shared_segment<'k>(&self, key: &'k str) -> &'k str {
        self.shared
            .and_then(|at| key.split('/').nth(at))
            .unwrap_or_default()
    }

    /// Where the artifact stored under `key` lives, relative to the
    /// database root.
    pub fn path(&self, key: &str) -> PathBuf {
        let file_key = self.file_key(key);
        let mut segments = file_key.split('/');
        let mut parts = self.template.split('/').peekable();
        let mut path = PathBuf::new();
        while let Some(part) = parts.next() {
            let part = match part {
                "*" => segments.next().unwrap_or_default(),
                dir => dir,
            };
            if parts.peek().is_some() {
                path.push(part);
            } else {
                path.push(format!("{part}.json"));
            }
        }
        path
    }

    /// Whether `key` refers to the given OS and/or app. A `None` filter
    /// matches everything; a set filter matches only keys that carry
    /// that dimension (baselines have no OS, plans no app). Keys that
    /// carry neither (rendered outputs) are derived from every OS and
    /// app, so every filter matches them.
    pub fn matches(&self, key: &str, os: Option<&str>, app: Option<&str>) -> bool {
        if self.os.is_none() && self.app.is_none() {
            return true;
        }
        let segment = |at: Option<usize>| at.and_then(|i| key.split('/').nth(i));
        os.is_none_or(|want| segment(self.os) == Some(want))
            && app.is_none_or(|want| segment(self.app) == Some(want))
    }

    /// Every key stored under `root`, in key order (segment by segment,
    /// so `a/x` sorts before `a-b/x`). Only `<segment>.json` files at
    /// the template's depth count: temp files, stray files and the
    /// other namespaces' directories are skipped. For a
    /// [shared](Self::shared) layout these are the keys of the files;
    /// [`Database::keys`](crate::Database::keys) lists the full keys.
    pub fn walk(&self, root: &Path) -> io::Result<Vec<String>> {
        let parts: Vec<&str> = self.template.split('/').collect();
        // A template starting with `*` shares the root with the other
        // namespaces and must skip their directories.
        let reserved: Vec<&str> = if parts[0] == "*" {
            ALL.iter()
                .filter_map(|l| l.template.split('/').next())
                .filter(|first| *first != "*")
                .chain([OS_DIR, INDEX_DIR, MANIFEST_DIR])
                .collect()
        } else {
            Vec::new()
        };
        let mut keys = Vec::new();
        walk_level(root, &parts, &reserved, String::new(), &mut keys)?;
        keys.sort_by(|a, b| key_order(a, b));
        Ok(keys)
    }
}

fn walk_level(
    dir: &Path,
    parts: &[&str],
    reserved: &[&str],
    prefix: String,
    out: &mut Vec<String>,
) -> io::Result<()> {
    let Some((&part, rest)) = parts.split_first() else {
        return Ok(());
    };
    if part != "*" {
        return walk_level(&dir.join(part), rest, &[], prefix, out);
    }
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let is_dir = entry.file_type()?.is_dir();
        if rest.is_empty() {
            if let Some(stem) = name.strip_suffix(".json").filter(|_| !is_dir) {
                out.push(format!("{prefix}{stem}"));
            }
        } else if is_dir && !reserved.contains(&name.as_str()) {
            walk_level(&entry.path(), rest, &[], format!("{prefix}{name}/"), out)?;
        }
    }
    Ok(())
}

/// Key order: segment by segment, so a key sorts like the tuple of its
/// parts.
pub(crate) fn key_order(a: &str, b: &str) -> Ordering {
    a.split('/').cmp(b.split('/'))
}
