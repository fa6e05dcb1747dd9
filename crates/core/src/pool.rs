//! The one worker pool of the workspace: the sweep's stage runner, the
//! engine's per-feature probes and the experiment harness all hand it
//! their jobs. Workers claim job indices from one shared counter
//! (self-scheduling), so no lock is taken per job and an idle worker
//! always takes the next unclaimed job, however long another one runs.
//!
//! The pool guarantees two properties its callers rely on:
//!
//! * **deterministic ordering** — job *i*'s outcome lands in slot *i*
//!   of the returned vector regardless of worker count or scheduling;
//! * **panic isolation** — a job that panics (e.g. a buggy app model)
//!   yields `Err(panic message)` for *that job only*; every other job
//!   still runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f` over every job on `workers` threads (`0` picks
/// `min(available_parallelism, 16)`), returning one slot per job in job
/// order. A panicking job resolves to `Err` with the panic payload
/// rendered as text. With one worker (or one job) the jobs run on the
/// calling thread and no thread is started.
pub fn run_jobs<J, R>(
    workers: usize,
    jobs: &[J],
    f: impl Fn(&J) -> R + Sync,
) -> Vec<Result<R, String>>
where
    J: Sync,
    R: Send,
{
    if jobs.is_empty() {
        return Vec::new();
    }
    // The job body runs outside any lock, so even a panicking job
    // cannot poison anything.
    let run = |job: &J| catch_unwind(AssertUnwindSafe(|| f(job))).map_err(|p| panic_message(&*p));
    let auto = || std::thread::available_parallelism().map_or(4, |n| n.get().min(16));
    let workers = if workers == 0 { auto() } else { workers }.min(jobs.len());
    if workers == 1 {
        return jobs.iter().map(run).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<R, String>>> = jobs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    // Each worker keeps its outcomes until the end, so
                    // results never pass through a shared lock.
                    let mut done = Vec::new();
                    loop {
                        // The counter only hands out indices (each once,
                        // as a read-modify-write); outcomes come back
                        // through `join`, which orders them.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else {
                            break done;
                        };
                        done.push((i, run(job)));
                    }
                })
            })
            .collect();
        for worker in workers {
            for (i, outcome) in worker.join().expect("job panics are caught") {
                slots[i] = Some(outcome);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

/// Renders a panic payload the way `std` does for unwinding panics.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unprintable panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_land_in_job_order() {
        let jobs: Vec<usize> = (0..64).collect();
        let out = run_jobs(8, &jobs, |&j| j * 2);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i * 2);
        }
    }

    #[test]
    fn a_panicking_job_fails_alone() {
        let jobs: Vec<usize> = (0..16).collect();
        for workers in [1, 4] {
            let out = run_jobs(workers, &jobs, |&j| {
                assert!(j != 7, "job seven exploded");
                j
            });
            for (i, r) in out.iter().enumerate() {
                if i == 7 {
                    let msg = r.as_ref().unwrap_err();
                    assert!(msg.contains("job seven exploded"), "{msg}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i, "other jobs unaffected");
                }
            }
        }
    }

    #[test]
    fn empty_job_list_is_empty() {
        let out: Vec<Result<(), String>> = run_jobs(4, &[] as &[u8], |_| ());
        assert!(out.is_empty());
    }

    #[test]
    fn idle_workers_take_the_long_tail() {
        // Slow jobs sit at even indices: a worker held up by one never
        // holds up the jobs behind it, and every job runs exactly once.
        let jobs: Vec<usize> = (0..32).collect();
        let executed = AtomicUsize::new(0);
        let out = run_jobs(2, &jobs, |&j| {
            if j % 2 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            executed.fetch_add(1, Ordering::Relaxed);
            j
        });
        assert_eq!(executed.load(Ordering::Relaxed), 32, "every job ran once");
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i);
        }
    }

    #[test]
    fn worker_counts_do_not_change_results() {
        let jobs: Vec<usize> = (0..41).collect();
        let reference = run_jobs(1, &jobs, |&j| j * j);
        for workers in [0, 2, 3, 8, 64] {
            let out = run_jobs(workers, &jobs, |&j| j * j);
            for (a, b) in reference.iter().zip(out.iter()) {
                assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
            }
        }
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let jobs: Vec<usize> = (0..4).collect();
        for r in run_jobs(1, &jobs, |_| std::thread::current().id()) {
            assert_eq!(r.unwrap(), caller);
        }
    }
}
