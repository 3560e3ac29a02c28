//! A dependency-free scoped thread pool: [`par_map`] fans a slice out
//! over `std::thread::scope` workers and returns the results **in input
//! order**, so a parallel sweep folds to bit-identical output regardless
//! of worker count.
//!
//! Concurrency is controlled by the `RFH_JOBS` environment variable
//! (default: the machine's available parallelism; `RFH_JOBS=1` forces the
//! fully serial path). Workers pull items off a shared atomic cursor, so
//! uneven item costs balance automatically.
//!
//! Panic safety: a panicking closure can neither hang nor deadlock the
//! pool. Every item is wrapped in `catch_unwind`; after all workers have
//! joined, the payload of the first panicking item **in input order** is
//! re-raised on the calling thread (so `par_map` is drop-in for a serial
//! `.map()` even under failure, and a test can observe the panic with its
//! own `catch_unwind`).
//!
//! For open-ended work streams (a daemon's requests rather than sweeps
//! over a known slice) there is [`TaskPool`]: the same worker discipline
//! as a persistent pool with a **bounded** admission queue, per-task
//! panic containment, and drain-then-join shutdown.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count: `RFH_JOBS` if set to a positive integer, else the
/// machine's available parallelism, else 1. A malformed value warns on
/// stderr (see [`crate::env`]) before falling back.
pub fn jobs() -> usize {
    crate::env::positive_usize_knob("RFH_JOBS").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Applies `f` to every item, in parallel across [`jobs`] scoped worker
/// threads, returning the results in input order.
///
/// # Panics
///
/// If `f` panics for some item, the panic payload of the first such item
/// (in input order) is re-raised here after all workers finish — never a
/// hang, never a silently dropped result.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with_jobs(jobs(), items, f)
}

/// [`par_map`] with an explicit worker count instead of the `RFH_JOBS`
/// knob — for callers whose concurrency is a first-class parameter (the
/// daemon replay load generator's `--jobs` flag) rather than ambient
/// configuration.
///
/// # Panics
///
/// As [`par_map`].
pub fn par_map_with_jobs<T, U, F>(jobs: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let workers = jobs.min(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, std::thread::Result<U>)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, std::thread::Result<U>)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = catch_unwind(AssertUnwindSafe(|| f(&items[i])));
                    let panicked = result.is_err();
                    local.push((i, result));
                    if panicked {
                        // Stop pulling new work; the other workers drain
                        // the remaining items and the panic is re-raised
                        // after the scope joins.
                        break;
                    }
                }
                collected
                    .lock()
                    .expect("pool results mutex (worker panics are caught before locking)")
                    .extend(local);
            });
        }
    });

    let mut slots: Vec<Option<std::thread::Result<U>>> = (0..n).map(|_| None).collect();
    for (i, r) in collected
        .into_inner()
        .expect("pool results mutex (worker panics are caught before locking)")
    {
        slots[i] = Some(r);
    }
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        match slot.expect("every index is claimed exactly once") {
            Ok(v) => out.push(v),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

/// A boxed unit of work for a [`TaskPool`].
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// Error returned by [`TaskPool::try_execute`] when the bounded queue is
/// full (every worker busy and every queue slot taken): the task was
/// dropped unrun, so the caller sheds load instead of blocking.
#[derive(Debug)]
pub struct PoolBusy;

/// A persistent bounded worker pool, the long-running counterpart of
/// [`par_map`]: `workers` threads pull [`Task`]s off a bounded queue of
/// depth `queue_depth`.
///
/// Unlike `par_map`, which fans a known slice out and joins, a `TaskPool`
/// serves an open-ended stream of work (e.g. requests decoded by a
/// daemon). Three properties are load-bearing for that use:
///
/// * **bounded admission** — [`try_execute`](Self::try_execute) never
///   blocks and never queues beyond `queue_depth`; a full queue returns
///   [`PoolBusy`], so callers shed load explicitly instead of growing
///   memory without bound;
/// * **panic isolation** — every task runs under `catch_unwind`; a
///   panicking task is counted (see [`drain`](Self::drain)) and the
///   worker keeps serving (no poisoned workers);
/// * **graceful drain** — [`drain`](Self::drain) closes the queue, lets
///   the workers finish everything already admitted, and joins them.
pub struct TaskPool {
    tx: Option<std::sync::mpsc::SyncSender<Task>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    panics: std::sync::Arc<AtomicUsize>,
}

impl TaskPool {
    /// Starts `workers` threads (at least 1) over a queue of `queue_depth`
    /// slots (at least 1).
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Task>(queue_depth.max(1));
        let rx = std::sync::Arc::new(Mutex::new(rx));
        let panics = std::sync::Arc::new(AtomicUsize::new(0));
        let handles = (0..workers.max(1))
            .map(|_| {
                let rx = std::sync::Arc::clone(&rx);
                let panics = std::sync::Arc::clone(&panics);
                std::thread::spawn(move || loop {
                    // Hold the receiver lock only while dequeueing, not
                    // while running the task.
                    let task = match rx.lock() {
                        Ok(guard) => guard.recv(),
                        Err(_) => return,
                    };
                    match task {
                        Ok(task) => {
                            if catch_unwind(AssertUnwindSafe(task)).is_err() {
                                panics.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => return, // queue closed: drain complete
                    }
                })
            })
            .collect();
        TaskPool {
            tx: Some(tx),
            workers: handles,
            panics,
        }
    }

    /// Submits a task without blocking.
    ///
    /// # Errors
    ///
    /// [`PoolBusy`] when every queue slot is taken; the task is dropped.
    pub fn try_execute(&self, task: Task) -> Result<(), PoolBusy> {
        let tx = self.tx.as_ref().expect("queue open until drain");
        tx.try_send(task).map_err(|_| PoolBusy)
    }

    /// Closes the queue, lets workers finish every admitted task, and
    /// joins them. Returns the final panic count.
    pub fn drain(mut self) -> usize {
        drop(self.tx.take());
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.panics.load(Ordering::Relaxed)
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        // Dropping without `drain()` still shuts down cleanly: close the
        // queue and detach the workers (they exit once it empties).
        drop(self.tx.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Submits `task`, re-boxing a fresh copy while the queue is full:
    /// for tests about execution, not shedding.
    fn submit(pool: &TaskPool, task: impl FnOnce() + Clone + Send + 'static) {
        while pool.try_execute(Box::new(task.clone())).is_err() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..257).collect();
        // Uneven per-item cost exercises the work-stealing cursor.
        let out = par_map(&items, |&i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i * 2
        });
        assert_eq!(out, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = par_map(&[] as &[u32], |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_serially() {
        assert_eq!(par_map(&[41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        let items: Vec<usize> = (0..64).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, |&i| {
                if i == 13 || i == 40 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        let payload = caught.expect_err("the panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        // First panicking item in input order wins, deterministically.
        assert_eq!(msg, "boom at 13");
    }

    #[test]
    fn jobs_is_at_least_one() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn task_pool_runs_admitted_tasks() {
        let pool = TaskPool::new(4, 8);
        let counter = std::sync::Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let c = std::sync::Arc::clone(&counter);
            // A full queue is possible with 8 submissions racing 4
            // workers.
            submit(&pool, move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(pool.drain(), 0);
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn task_pool_sheds_when_the_queue_is_full() {
        // One worker, one queue slot, and the worker is pinned on a gate:
        // the first task occupies the worker, the second the queue slot,
        // and the third must come back as PoolBusy.
        let gate = std::sync::Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let started = std::sync::Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let pool = TaskPool::new(1, 1);
        let (g, s) = (
            std::sync::Arc::clone(&gate),
            std::sync::Arc::clone(&started),
        );
        pool.try_execute(Box::new(move || {
            let (lock, cvar) = &*s;
            *lock.lock().expect("started lock") = true;
            cvar.notify_all();
            let (lock, cvar) = &*g;
            let mut open = lock.lock().expect("gate lock");
            while !*open {
                open = cvar.wait(open).expect("gate wait");
            }
        }))
        .expect("first task admitted");
        // Wait until the worker has actually dequeued the first task so
        // the single queue slot is free for the second.
        {
            let (lock, cvar) = &*started;
            let mut s = lock.lock().expect("started lock");
            while !*s {
                s = cvar.wait(s).expect("started wait");
            }
        }
        pool.try_execute(Box::new(|| {})).expect("queue slot free");
        let shed = pool.try_execute(Box::new(|| {}));
        assert!(shed.is_err(), "third task must be shed, not queued");
        let (lock, cvar) = &*gate;
        *lock.lock().expect("gate lock") = true;
        cvar.notify_all();
        assert_eq!(pool.drain(), 0);
    }

    #[test]
    fn task_pool_contains_panics_and_keeps_serving() {
        let pool = TaskPool::new(1, 4);
        pool.try_execute(Box::new(|| panic!("contained")))
            .expect("admitted");
        let done = std::sync::Arc::new(AtomicUsize::new(0));
        let d = std::sync::Arc::clone(&done);
        // Submitted after the panicking task on the same single worker:
        // running at all proves the worker survived.
        submit(&pool, move || {
            d.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(pool.drain(), 1);
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn task_pool_drain_completes_queued_work() {
        let pool = TaskPool::new(2, 16);
        let counter = std::sync::Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let c = std::sync::Arc::clone(&counter);
            submit(&pool, move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.drain();
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }
}
