//! The span recorder of the traced run: one span per call into a
//! layer, kept in memory and written out once at the end.
//!
//! The replay is single-threaded, so a span's parent is simply the
//! span open when it started. Self times are derived afterwards (by
//! `stats.py`), not here.

use std::cell::RefCell;
use std::time::Instant;

use serde::Serialize;

/// One recorded span: `[start_ns, end_ns)` relative to the tracer's
/// epoch, and the id of the span open when it began (`-1` for none).
#[derive(Serialize)]
pub struct Span {
    id: usize,
    parent: i64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().map_or(-1, |&p| p as i64);
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                name: name.to_owned(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    pub fn finish(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Nanoseconds one empty span costs the recorder: the tracing
/// overhead per span, measured on a throwaway tracer.
pub fn cost_per_span_ns() -> f64 {
    const N: usize = 20_000;
    let t = Tracer::new();
    let start = Instant::now();
    for _ in 0..N {
        t.span("calibrate", || std::hint::black_box(()));
    }
    start.elapsed().as_nanos() as f64 / N as f64
}
