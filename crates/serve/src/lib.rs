//! `loupe serve`: a long-running daemon answering compatibility
//! queries out of an immutable in-memory index.
//!
//! The sweep pipeline measures; this crate *answers*. A fleet
//! dashboard, a CI gate or a porting engineer asks "will app X run on
//! OS Y at tier T?", "what is the cheapest support plan?", "which
//! syscalls block the most apps?" — each of which the database can
//! answer only by loading and re-aggregating namespaces. The daemon
//! does that work once per database generation:
//!
//! * startup bulk-loads the database (one binary snapshot read per
//!   namespace) and compiles the matrix namespace into one map of
//!   precomputed per-tier verdicts plus the `OS_MATRIX.md`
//!   aggregation — reads after that touch no disk;
//! * plan and inverted-syscall queries build their (baselines-backed)
//!   tables on first touch, so a verdict-only daemon never decodes a
//!   baseline;
//! * a watcher polls the manifest and swaps in a freshly built index
//!   when the database changes — queries see the old or the new
//!   generation, never a mix.
//!
//! Every command except `stats` resolves through
//! [`ServeIndex::answer`], the same code `loupe query --offline` runs
//! without a daemon. The wire protocol ([`proto`]) is length-prefixed
//! JSON over TCP — std-only, no async runtime, speakable from any
//! language.

pub mod client;
pub mod index;
pub mod proto;
pub mod server;

pub use client::Client;
pub use index::ServeIndex;
pub use proto::{CellQuery, Request, Response, Verdict};
pub use server::{ServeConfig, ServeError, Server};
