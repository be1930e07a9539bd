//! The shared-cursor batch executor.
//!
//! A batch of independent jobs is claimed one index at a time from a
//! single atomic cursor over the job list: each worker takes the next
//! unclaimed job until the list is exhausted, so a slow job never strands
//! queued work behind it. Results are written into per-job slots, so the
//! returned vector is **always in submission order** no matter which
//! worker finished which job when — the scheduling is nondeterministic,
//! the collection is not.
//!
//! Failure isolation: each job runs once under `catch_unwind`, so a
//! panicking job becomes a typed [`JobError`] in its own slot while every
//! other job completes normally (the pool is never poisoned). A panicked
//! job is not re-run: a deterministic simulation that panicked once will
//! panic again.
//!
//! Nested batches collapse: a `run_batch` issued from inside a fleet
//! worker runs its jobs inline on that worker (single-threaded), so
//! composed layers — a property runner fanning out cases whose property
//! itself fans out an oracle grid — cannot multiply worker threads.

use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

/// Worker count from the environment: `MAPLE_JOBS` when set (must be a
/// positive integer), otherwise the host's available parallelism.
///
/// # Panics
///
/// Panics when `MAPLE_JOBS` is set but does not parse as a positive
/// integer — a silently ignored job count would make "I ran it with
/// MAPLE_JOBS=8" unfalsifiable.
#[must_use]
pub fn jobs_from_env() -> usize {
    match std::env::var("MAPLE_JOBS") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("[maple-fleet] could not parse MAPLE_JOBS={raw} as a positive integer"),
        },
        Err(_) => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// Executor configuration for one batch.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads to spawn (clamped to the job count; at least one).
    pub workers: usize,
}

impl FleetConfig {
    /// The standard configuration: workers from [`jobs_from_env`].
    #[must_use]
    pub fn from_env() -> Self {
        FleetConfig {
            workers: jobs_from_env(),
        }
    }

    /// Overrides the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig::from_env()
    }
}

/// A job that panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// The panic payload, rendered.
    pub message: String,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

thread_local! {
    /// Set while the current thread is executing fleet jobs; nested
    /// batches observe it and run inline.
    static IN_FLEET_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Number of [`catch_quiet`] calls active on this thread; the panic
    /// hook stays silent while it is nonzero.
    static QUIET_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Runs a batch of independent jobs and returns each job's result in
/// submission order.
///
/// Each job must be a pure function of its captured inputs for the
/// batch-level determinism guarantee to hold (see the crate docs); the
/// pool itself guarantees submission-order collection and panic
/// isolation regardless.
pub fn run_batch<T, F>(cfg: &FleetConfig, jobs: Vec<F>) -> Vec<Result<T, JobError>>
where
    T: Send,
    F: Fn() -> T + Send,
{
    let n = jobs.len();
    let nested = IN_FLEET_WORKER.with(Cell::get);
    let workers = if nested {
        1
    } else {
        cfg.workers.max(1).min(n.max(1))
    };

    // Each index is claimed exactly once, so the job locks never contend;
    // they only make the `Send` jobs shareable across the scoped workers.
    let jobs: Vec<Mutex<F>> = jobs.into_iter().map(Mutex::new).collect();
    let results: Vec<Mutex<Option<Result<T, JobError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let worker_loop = || {
        let was_worker = IN_FLEET_WORKER.with(|f| f.replace(true));
        loop {
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(idx) else { break };
            let job = job.lock().expect("job slot lock");
            let result = catch_quiet(&*job).map_err(|payload| JobError {
                message: panic_message(&*payload),
            });
            *results[idx].lock().expect("result slot lock") = Some(result);
        }
        IN_FLEET_WORKER.with(|f| f.set(was_worker));
    };
    if workers == 1 {
        // Inline on the current thread: nested batches and single-worker
        // runs share one code path.
        worker_loop();
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(worker_loop);
            }
        });
    }

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("every job produced a result")
        })
        .collect()
}

/// Unwraps every job's value from a [`run_batch`] result, submission
/// order.
///
/// # Errors
///
/// Returns the first failed job's index and error.
pub fn into_results<T>(results: Vec<Result<T, JobError>>) -> Result<Vec<T>, (usize, JobError)> {
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.map_err(|e| (i, e)))
        .collect()
}

/// Runs `f` under `catch_unwind` with the default panic-hook output
/// suppressed on this thread: a caught panic is a *reported value*, not
/// console noise. Panics on other threads still reach the previously
/// installed hook. Returns the raw payload on panic; render it with
/// [`panic_message`].
///
/// # Errors
///
/// Returns the panic payload when `f` panics.
pub fn catch_quiet<T>(f: impl FnOnce() -> T) -> std::thread::Result<T> {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if QUIET_DEPTH.try_with(Cell::get).unwrap_or(0) == 0 {
                prev(info);
            }
        }));
    });
    QUIET_DEPTH.with(|d| d.set(d.get() + 1));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET_DEPTH.with(|d| d.set(d.get() - 1));
    result
}

/// Renders a caught panic payload: the `&str` or `String` message, or a
/// placeholder for any other payload type.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};
    use std::thread::ThreadId;

    fn square_batch(workers: usize, n: u64) -> Vec<u64> {
        let cfg = FleetConfig::from_env().with_workers(workers);
        let jobs: Vec<_> = (0..n).map(|i| move || i * i).collect();
        into_results(run_batch(&cfg, jobs)).expect("no job panics")
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let expected: Vec<u64> = (0..64).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64, 100] {
            assert_eq!(square_batch(workers, 64), expected, "workers={workers}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let cfg = FleetConfig::from_env().with_workers(4);
        let results = run_batch(&cfg, Vec::<fn() -> u8>::new());
        assert!(results.is_empty());
        assert_eq!(into_results(results), Ok(Vec::new()));
    }

    #[test]
    fn panicking_job_is_isolated_and_typed() {
        let cfg = FleetConfig::from_env().with_workers(4);
        let jobs: Vec<Box<dyn Fn() -> u64 + Send>> = (0u64..8)
            .map(|i| {
                Box::new(move || {
                    assert!(i != 3, "job three is broken");
                    i
                }) as Box<dyn Fn() -> u64 + Send>
            })
            .collect();
        let results = run_batch(&cfg, jobs);
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                let err = r.as_ref().expect_err("job 3 panics");
                assert_eq!(err.to_string(), "job panicked: job three is broken");
            } else {
                assert_eq!(*r.as_ref().expect("healthy job"), i as u64);
            }
        }
        let (failed, err) = into_results(results).expect_err("one job panicked");
        assert_eq!(failed, 3);
        assert_eq!(err.message, "job three is broken");
        // The pool is not poisoned: it runs another batch fine.
        assert_eq!(square_batch(4, 8), (0..8).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn nested_batches_collapse_to_inline_execution() {
        let cfg = FleetConfig::from_env().with_workers(4);
        let jobs: Vec<_> = (0u64..4)
            .map(|i| {
                move || {
                    // Inner batch runs inline on this worker's thread.
                    let outer = std::thread::current().id();
                    let inner_cfg = FleetConfig::from_env().with_workers(8);
                    let inner: Vec<_> = (0..4)
                        .map(|j| move || (i * 10 + j, std::thread::current().id()))
                        .collect();
                    into_results(run_batch(&inner_cfg, inner))
                        .unwrap()
                        .into_iter()
                        .map(|(v, thread)| {
                            assert_eq!(thread, outer, "nested batch collapsed");
                            v
                        })
                        .collect::<Vec<_>>()
                }
            })
            .collect();
        let out = into_results(run_batch(&cfg, jobs)).unwrap();
        for (i, row) in out.iter().enumerate() {
            let expected: Vec<u64> = (0..4).map(|j| i as u64 * 10 + j).collect();
            assert_eq!(*row, expected);
        }
    }

    #[test]
    fn workers_clamped_to_job_count() {
        let cfg = FleetConfig::from_env().with_workers(64);
        let job = || std::thread::current().id();
        let threads = into_results(run_batch(&cfg, vec![job, job])).unwrap();
        let distinct: HashSet<ThreadId> = threads.into_iter().collect();
        assert!(distinct.len() <= 2, "{} threads ran 2 jobs", distinct.len());
        // One job clamps to one worker, which runs inline on the caller.
        let only = into_results(run_batch(&cfg, vec![job])).unwrap();
        assert_eq!(only, vec![std::thread::current().id()]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let n = 40;
        for workers in [1, 2, 3, 8, 64] {
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let runs = &runs;
            let jobs: Vec<_> = (0..n)
                .map(|i| {
                    move || {
                        // Uneven cost: every fifth job is much slower, so
                        // fast workers claim past the slow ones.
                        let spins = if i % 5 == 0 { 200_000 } else { 100 };
                        let mut acc = i as u64;
                        for k in 0..spins {
                            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(k));
                        }
                        runs[i].fetch_add(1, Ordering::Relaxed);
                        (i, acc)
                    }
                })
                .collect();
            let cfg = FleetConfig::from_env().with_workers(workers);
            let out = into_results(run_batch(&cfg, jobs)).unwrap();
            let order: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
            assert_eq!(order, (0..n).collect::<Vec<_>>(), "workers={workers}");
            let counts: BTreeSet<usize> = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
            assert_eq!(counts, BTreeSet::from([1]), "workers={workers}");
        }
    }
}
