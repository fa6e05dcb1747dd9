//! The cache gate over rendered outputs: the docs set and `compare`'s
//! text. They go through the same [`Database::classify`] /
//! [`Database::commit`] gate as the sweep stages' artifacts, in the
//! `rendered` namespace ([`store::RENDERED`]). A rendering's inputs are
//! the state of every namespace it reads ([`Database::namespace_state`],
//! from the manifest alone) and the identity of the executable that
//! renders, so a rerun whose data and code are unchanged reads what was
//! recorded instead of decoding whole namespaces to render it again.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;

use loupe_core::{fingerprint_of, Fingerprint};
use loupe_db::store::{self, Layout, Rendered};
use loupe_db::{ns, Database, Decision, Derive};

/// One rendered output's gate: its key and the namespaces it reads.
pub(crate) struct Gate<'a> {
    db: &'a Database,
    name: &'static str,
    reads: &'static [&'static Layout],
}

impl<'a> Gate<'a> {
    pub(crate) fn new(
        db: &'a Database,
        name: &'static str,
        reads: &'static [&'static Layout],
    ) -> Gate<'a> {
        Gate { db, name, reads }
    }

    /// The recorded rendering, if its inputs are current and the stored
    /// file still matches its record; `None` means render afresh.
    pub(crate) fn recorded(&self) -> Option<Rendered> {
        let inputs = self.inputs()?;
        let decision = self
            .db
            .classify(&store::RENDERED, self.name, &inputs, false, |_| Some(()));
        if decision != Decision::Hit(()) {
            return None;
        }
        // A stored file that is gone, damaged or edited renders afresh.
        let stored = self.db.get(&store::RENDERED, self.name).ok()??;
        let record = self.db.record(ns::RENDERED, self.name)?;
        (record.output == fingerprint_of(&stored)).then_some(stored)
    }

    /// Records `output` as the rendering of the current inputs, which are
    /// taken after rendering: a render that rebuilt a namespace from its
    /// JSON files has reconciled the manifest with what it read.
    /// Best-effort, like a snapshot write: a database that cannot be
    /// written (a read-only checkout) still renders and checks, and a
    /// failed record only costs the next run a render.
    pub(crate) fn record(&self, output: &Rendered) {
        let Some(inputs) = self.inputs() else {
            return;
        };
        // Rendered outputs never merge: a stale and a missed one are
        // both replaced.
        let _ = self.db.commit(
            &store::RENDERED,
            output,
            Derive::Stale,
            inputs,
            BTreeMap::new(),
        );
    }

    fn inputs(&self) -> Option<BTreeMap<String, Fingerprint>> {
        let mut inputs: BTreeMap<String, Fingerprint> = self
            .reads
            .iter()
            .map(|layout| (layout.name.to_owned(), self.db.namespace_state(layout)))
            .collect();
        inputs.insert("code".to_owned(), code_identity()?);
        Some(inputs)
    }
}

/// The identity of the code that renders: the fingerprint of the running
/// executable's bytes, so a rebuilt `loupe` renders afresh once. `None`
/// when the executable cannot be read, and then nothing is gated.
fn code_identity() -> Option<Fingerprint> {
    #[cfg(test)]
    if let Some(fp) = tests::CODE_IDENTITY.with(std::cell::Cell::get) {
        return Some(fp);
    }
    static CODE: OnceLock<Option<Fingerprint>> = OnceLock::new();
    *CODE.get_or_init(|| {
        // `/proc/self/exe` is the running image even if its path was
        // replaced since the process started.
        loupe_db::fingerprint_file(Path::new("/proc/self/exe"))
            .or_else(|_| loupe_db::fingerprint_file(&std::env::current_exe()?))
            .ok()
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::Cell;

    use loupe_core::Fingerprint;

    thread_local! {
        /// Stands in for the executable's fingerprint on this thread, so
        /// a test can render as if from another build.
        pub(crate) static CODE_IDENTITY: Cell<Option<Fingerprint>> = const { Cell::new(None) };
    }
}
