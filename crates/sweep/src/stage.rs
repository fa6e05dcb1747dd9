//! The one runner behind the five incremental sweep stages. A stage
//! supplies its jobs — each keyed by the artifact it produces and the
//! fingerprints of that artifact's inputs — a predicate over a current
//! record, and a derive function. The runner fans the jobs out on
//! the worker pool and asks the cache gate ([`Database::classify`]) per
//! job: a hit is answered from the manifest record alone; a stale or
//! missed job is derived and stored through [`Stage::commit`]. A
//! panicking job fails alone.

use std::collections::BTreeMap;
use std::fmt;

use loupe_apps::Workload;
use loupe_core::Fingerprint;
use loupe_db::{Artifact, ArtifactRecord, Database, DbError, Decision, Derive, Namespace};

use crate::{pool, SweepFailure};

type Meta = BTreeMap<String, String>;

/// One gated job: the stage's work item plus its cache identity.
pub(crate) struct Job<J> {
    pub key: String,
    pub inputs: BTreeMap<String, Fingerprint>,
    pub item: J,
}

/// What a hit's record yielded, or what the derive returned.
pub(crate) enum Outcome<H, O> {
    Hit(H),
    Derived(O),
}

/// Why a job produced no outcome.
pub(crate) enum Failed<E> {
    /// The database failed: the stage aborts.
    Db(DbError),
    /// The derive failed for this job alone.
    Job(E),
    /// The job panicked (the payload, as text).
    Panic(String),
}

impl<E> From<DbError> for Failed<E> {
    fn from(e: DbError) -> Self {
        Failed::Db(e)
    }
}

impl<E: fmt::Display> Failed<E> {
    /// A fleet sweep's reading of a failure: a database error aborts the
    /// stage, anything else fails `(app, workload)` alone; `what` names
    /// the work in a panic message.
    pub fn into_failure(
        self,
        app: &str,
        workload: Workload,
        what: &str,
    ) -> Result<SweepFailure, DbError> {
        let error = match self {
            Failed::Db(e) => return Err(e),
            Failed::Job(e) => e.to_string(),
            Failed::Panic(panic) => format!("{what} panicked: {panic}"),
        };
        Ok(SweepFailure {
            app: app.to_owned(),
            workload,
            error,
        })
    }

    /// For stages that abort on any failure: the derive's own error, or
    /// else a database error — a panic becomes an I/O error naming the
    /// work (`what`).
    pub fn into_error(self, what: impl FnOnce() -> String) -> Result<E, DbError> {
        match self {
            Failed::Db(e) => Err(e),
            Failed::Job(e) => Ok(e),
            Failed::Panic(panic) => Err(DbError::Io(std::io::Error::other(format!(
                "{} panicked: {panic}",
                what()
            )))),
        }
    }
}

/// The record predicate of stages that record no meta: every current
/// record is a hit.
pub(crate) fn any(_: &ArtifactRecord) -> Option<()> {
    Some(())
}

/// One stage's gate settings.
pub(crate) struct Stage<'a, T: 'static> {
    db: &'a Database,
    ns: &'static Namespace<T>,
    /// Worker threads; `0` picks `min(available_parallelism, 16)`.
    workers: usize,
    /// Derive every job, current or not.
    force: bool,
}

impl<'a, T: Artifact> Stage<'a, T> {
    pub fn new(db: &'a Database, ns: &'static Namespace<T>, workers: usize, force: bool) -> Self {
        Stage {
            db,
            ns,
            workers,
            force,
        }
    }

    /// Runs `jobs` through the gate, one result per job in job order.
    /// `accept` reads a current record: `Some` is a hit, `None` (its
    /// meta does not cover what the stage needs) a derive, which is told
    /// why it runs.
    pub fn run<J: Sync, H: Send, O: Send, E: Send>(
        &self,
        jobs: &[Job<J>],
        accept: impl Fn(&ArtifactRecord) -> Option<H> + Sync,
        derive: impl Fn(&Job<J>, Derive) -> Result<O, Failed<E>> + Sync,
    ) -> Vec<Result<Outcome<H, O>, Failed<E>>> {
        pool::run_jobs(self.workers, jobs, |job| {
            let gate = self
                .db
                .classify(self.ns, &job.key, &job.inputs, self.force, &accept);
            match gate {
                Decision::Hit(hit) => Ok(Outcome::Hit(hit)),
                Decision::Derive(why) => derive(job, why).map(Outcome::Derived),
            }
        })
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|panic| Err(Failed::Panic(panic))))
        .collect()
    }

    /// Stores a derived `value` with `job`'s provenance and `meta`
    /// ([`Database::commit`]).
    pub fn commit<J>(
        &self,
        job: &Job<J>,
        why: Derive,
        value: &T,
        meta: Meta,
    ) -> Result<(), DbError> {
        self.db
            .commit(self.ns, value, why, job.inputs.clone(), meta)
    }

    /// The stored artifact behind a hit, for stages that consume it. The
    /// gate answered from the manifest, so a file deleted out of band
    /// only shows here.
    pub fn stored<J>(&self, job: &Job<J>) -> Result<T, DbError> {
        self.db
            .get(self.ns, &job.key)?
            .ok_or_else(|| crate::not_stored(self.db, self.ns, &job.key))
    }
}
