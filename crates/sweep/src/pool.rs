//! The work-stealing worker pool behind the stage runner
//! ([`crate::stage`]). Jobs are dealt round-robin into per-worker
//! deques; a worker drains its own deque from the front and, when empty,
//! steals from the back of its neighbours', so contention stays on the
//! cold path and long-tailed jobs do not serialise behind one mutex.
//!
//! The pool guarantees two properties the stages rely on:
//!
//! * **deterministic ordering** — job *i*'s outcome lands in slot *i*
//!   of the returned vector regardless of worker count or scheduling;
//! * **panic isolation** — a job that panics (e.g. a buggy app model)
//!   yields `Err(panic message)` for *that job only*; the worker thread
//!   and the result slots survive, and every other job still runs.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Runs `f` over every job on `workers` threads (`0` picks
/// `min(available_parallelism, 16)`), returning one slot per job in job
/// order. A panicking job resolves to `Err` with the panic payload
/// rendered as text.
pub(crate) fn run_jobs<J, R>(
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
    let auto = || std::thread::available_parallelism().map_or(4, |n| n.get().min(16));
    let workers = if workers == 0 { auto() } else { workers }.min(jobs.len());

    // Round-robin deal: worker w owns jobs w, w+workers, w+2·workers…
    // Every job index appears in exactly one deque and is removed
    // exactly once (own pop or steal), so each slot is written once.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..jobs.len()).step_by(workers).collect()))
        .collect();
    // One mutex per slot instead of one around the whole vector: a
    // result landing never contends with another worker's result.
    let slots: Vec<Mutex<Option<Result<R, String>>>> =
        (0..jobs.len()).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for me in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || loop {
                // Own work first (front), then steal from the victims'
                // opposite end to minimise interference.
                let mut found = queues[me].lock().expect("queue lock").pop_front();
                if found.is_none() {
                    for offset in 1..workers {
                        let victim = (me + offset) % workers;
                        if let Some(i) = queues[victim].lock().expect("queue lock").pop_back() {
                            found = Some(i);
                            break;
                        }
                    }
                }
                // Jobs never respawn: once every deque is empty the pool
                // is drained and the worker can retire.
                let Some(i) = found else {
                    break;
                };
                // The job body runs *outside* any lock, so even a
                // panicking job cannot poison anything; catch_unwind
                // keeps the worker alive for the remaining jobs.
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| f(&jobs[i]))).map_err(|p| panic_message(&*p));
                *slots[i].lock().expect("no job runs under a slot lock") = Some(outcome);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no job runs under a slot lock")
                .expect("every job ran")
        })
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
        let out = run_jobs(4, &jobs, |&j| {
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

    #[test]
    fn empty_job_list_is_empty() {
        let out: Vec<Result<(), String>> = run_jobs(4, &[] as &[u8], |_| ());
        assert!(out.is_empty());
    }

    #[test]
    fn idle_workers_steal_the_long_tail() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Worker 0 owns all the slow jobs under round-robin dealing with
        // 2 workers (slow jobs sit at even indices). If stealing works,
        // worker 1 must end up executing some of them; without stealing
        // it would finish its fast half and retire.
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
        for workers in [2, 3, 8, 64] {
            let out = run_jobs(workers, &jobs, |&j| j * j);
            for (a, b) in reference.iter().zip(out.iter()) {
                assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
            }
        }
    }
}
