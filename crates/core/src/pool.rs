//! The bounded scoped-thread worker pool: the one way `core` runs work
//! on threads.
//!
//! Three callers share it — candidate enumeration (one task per
//! constraint), the component pool of [`crate::decompose`], and the
//! strategy race (the whole-run portfolio of [`crate::parallel`]).
//! `run_tasks` gives each of them the same guarantees:
//!
//! * **bounded borrowing** — workers are scoped threads, so tasks
//!   borrow the caller's inputs instead of cloning them into `Arc`s,
//!   and every worker is joined before `run_tasks` returns;
//! * **deterministic collection** — every worker returns its
//!   `(task, result)` pairs through its join handle and results are
//!   re-ordered by task index, so the caller sees the same shape
//!   regardless of scheduling;
//! * **decisive results stop the pool** — the caller says which result
//!   decides the run (a fatal error for the component pool, a success
//!   for a race). A decisive result sets the caller's stop flag: no
//!   *further* tasks are dequeued, and tasks that poll the flag (race
//!   members use it as their cancellation token) wind down early;
//! * **contained panics** — a panicking task yields
//!   [`DivaError::WorkerPanicked`] instead of tearing down the caller.
//!
//! Verdicts are ranked once, by `strongest`: the race's over its
//! members, the component pool's over its failed components.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::error::DivaError;

/// One slot per task: `None` when the task was never dequeued.
pub(crate) type Slots<R> = Vec<Option<Result<R, DivaError>>>;

/// Runs `run(i, &tasks[i])` for every task on at most `n_workers`
/// scoped worker threads and returns the results in task order.
///
/// A result for which `decisive` holds sets `stop`; workers check
/// `stop` before dequeuing, so once it is set (by a decisive result or
/// by a task) no further task starts. `results[i]` is `None` exactly
/// for the tasks that were never dequeued; every dequeued task gets
/// `Some`. A task that panics yields
/// `Some(Err(DivaError::WorkerPanicked))`.
pub(crate) fn run_tasks<T, R>(
    tasks: &[T],
    n_workers: usize,
    stop: &AtomicBool,
    decisive: impl Fn(&Result<R, DivaError>) -> bool + Sync,
    run: impl Fn(usize, &T) -> Result<R, DivaError> + Sync,
) -> Slots<R>
where
    T: Sync,
    R: Send,
{
    let mut results: Slots<R> = Vec::new();
    results.resize_with(tasks.len(), || None);
    if tasks.is_empty() {
        return results;
    }
    let n_workers = n_workers.clamp(1, tasks.len());
    let cursor = AtomicUsize::new(0);
    let (run, decisive, cursor) = (&run, &decisive, &cursor);
    let collected: Vec<Vec<(usize, Result<R, DivaError>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks.len() {
                            break;
                        }
                        let out = contain(|| run(i, &tasks[i]));
                        if decisive(&out) {
                            stop.store(true, Ordering::Relaxed);
                        }
                        local.push((i, out));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or_default()).collect()
    });
    for (i, r) in collected.into_iter().flatten() {
        results[i] = Some(r);
    }
    results
}

/// Runs `f`, turning a panic into [`DivaError::WorkerPanicked`]
/// carrying the panic message.
pub(crate) fn contain<R>(f: impl FnOnce() -> Result<R, DivaError>) -> Result<R, DivaError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(DivaError::WorkerPanicked { detail: panic_message(&*payload) })
    })
}

/// Best-effort stringification of a caught panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The strength of one verdict; lower is stronger: exact success >
/// `NoDiverseClustering` (the search found no diverse clustering) >
/// degraded success > other error > worker panic > cancellation.
fn rank<R>(verdict: &Result<R, DivaError>, is_exact: impl Fn(&R) -> bool) -> u8 {
    match verdict {
        Ok(r) if is_exact(r) => 0,
        Err(DivaError::NoDiverseClustering { .. }) => 1,
        Ok(_) => 2,
        Err(DivaError::WorkerPanicked { .. }) => 4,
        Err(DivaError::Cancelled) => 5,
        Err(_) => 3,
    }
}

/// Picks a verdict from the slots of a race (or of the component
/// pool's failures): the strongest by [`rank`], ties to the lowest
/// index, so the choice never depends on which task finished first.
/// Returns the index with its verdict, or `None` when no task ran.
pub(crate) fn strongest<R>(
    slots: Slots<R>,
    is_exact: impl Fn(&R) -> bool,
) -> Option<(usize, Result<R, DivaError>)> {
    slots
        .into_iter()
        .enumerate()
        .filter_map(|(i, slot)| slot.map(|verdict| (i, verdict)))
        .min_by_key(|(_, verdict)| rank(verdict, &is_exact))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    fn never(_: &Result<usize, DivaError>) -> bool {
        false
    }

    #[test]
    fn results_come_back_in_task_order() {
        let tasks: Vec<usize> = (0..20).collect();
        let results = run_tasks(&tasks, 4, &AtomicBool::new(false), never, |i, &t| {
            assert_eq!(i, t);
            // Stagger completions so collection order != task order.
            std::thread::sleep(Duration::from_micros(((20 - t) * 50) as u64));
            Ok(t * 10)
        });
        assert_eq!(results.len(), 20);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.as_ref().and_then(|r| r.as_ref().ok()), Some(&(i * 10)), "slot {i}");
        }
    }

    #[test]
    fn decisive_result_stops_dequeuing_but_keeps_finished_results() {
        let started = AtomicU32::new(0);
        let stop = AtomicBool::new(false);
        let tasks: Vec<usize> = (0..64).collect();
        let results = run_tasks(&tasks, 1, &stop, Result::is_err, |_, &t| {
            started.fetch_add(1, Ordering::Relaxed);
            if t == 2 {
                return Err(DivaError::Cancelled);
            }
            Ok(t)
        });
        // Single worker: tasks 0..=2 ran, everything after was skipped.
        assert_eq!(started.load(Ordering::Relaxed), 3);
        assert!(stop.load(Ordering::Relaxed), "the decisive result sets the stop flag");
        assert!(matches!(results[0], Some(Ok(0))));
        assert!(matches!(results[1], Some(Ok(1))));
        assert!(matches!(results[2], Some(Err(DivaError::Cancelled))));
        assert!(results[3..].iter().all(Option::is_none));
    }

    #[test]
    fn panicking_task_is_contained() {
        let tasks = [1usize, 2, 3];
        let results = run_tasks(&tasks, 3, &AtomicBool::new(false), never, |_, &t| {
            if t == 2 {
                panic!("synthetic task bug");
            }
            Ok(t)
        });
        assert!(matches!(results[0], Some(Ok(1))));
        match &results[1] {
            Some(Err(DivaError::WorkerPanicked { detail })) => {
                assert!(detail.contains("synthetic task bug"));
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
    }

    #[test]
    fn empty_task_list_is_a_no_op() {
        let results = run_tasks(&[] as &[usize], 4, &AtomicBool::new(false), never, |_, &t| Ok(t));
        assert!(results.is_empty());
    }

    #[test]
    fn strongest_ranks_verdicts_and_breaks_ties_by_index() {
        let unsat = || Err(DivaError::NoDiverseClustering { constraint: "X[x]".into() });
        let panicked = || Err(DivaError::WorkerPanicked { detail: "boom".into() });
        let other = || Err(DivaError::ResidualTooSmall { remaining: 1 });
        // `Ok(true)` is exact, `Ok(false)` degraded.
        let pick = |slots: Slots<bool>| strongest(slots, |&exact| exact).map(|(i, _)| i);
        assert_eq!(pick(vec![Some(unsat()), Some(Ok(false)), Some(Ok(true))]), Some(2));
        assert_eq!(pick(vec![Some(Ok(false)), Some(unsat())]), Some(1));
        assert_eq!(pick(vec![Some(panicked()), Some(Ok(false))]), Some(1));
        assert_eq!(pick(vec![Some(other()), Some(unsat()), Some(panicked())]), Some(1));
        assert_eq!(pick(vec![Some(panicked()), Some(other())]), Some(1));
        assert_eq!(pick(vec![Some(Err(DivaError::Cancelled)), Some(panicked())]), Some(1));
        assert_eq!(pick(vec![None, Some(Ok(true)), Some(Ok(true))]), Some(1));
        assert_eq!(pick(vec![None, None]), None);
    }
}
