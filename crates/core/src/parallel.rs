//! A minimal `std::thread`-based worker pool for embarrassingly parallel,
//! deterministic workloads — no external dependencies, matching the workspace's
//! zero-dependency policy.
//!
//! The paper's evaluation pipeline compiles **one d-tree per result tuple** (§5, §7):
//! tuples never share mutable state beyond the compilation cache, so per-tuple work
//! is an independently schedulable unit. The helpers here exploit that:
//!
//! * [`resolve_threads`] maps a user-facing thread knob (`0` = auto) to a concrete
//!   worker count;
//! * [`OrderedReassembly`] re-establishes input order over an out-of-order stream of
//!   `(start, items)` ranges — the building block for streaming consumers that must
//!   observe a deterministic tuple order while workers finish in any order, and
//!   that are handed a morsel of consecutive tuples per message rather than one;
//! * [`WorkerPool`] is a fixed set of long-lived threads pulling jobs from a shared
//!   queue — the only place this workspace's libraries start threads. A serving
//!   process creates one and pays thread start-up once instead of once per query
//!   (see the `pvc-serve` crate); a one-off parallel execution in `pvc-db` starts
//!   one for itself and joins it when done.
//!
//! Determinism contract: as long as a tuple's result is a pure function of the
//! tuple (which per-tuple compilation is — cache hits only ever substitute a value
//! that the computation would have produced anyway), the output of an
//! [`OrderedReassembly`]-driven stream does not depend on the number of workers or
//! on scheduling.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Resolve a user-facing thread-count knob to a concrete worker count.
///
/// `0` selects the machine's available parallelism (falling back to 1 when it
/// cannot be determined); any other value is used as-is. The result is always at
/// least 1 and never exceeds `work_items` (spawning more workers than items only
/// costs thread start-up time).
pub fn resolve_threads(requested: usize, work_items: usize) -> usize {
    let n = if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    };
    n.clamp(1, work_items.max(1))
}

/// Re-establish input order over an out-of-order stream of `(start, items)`
/// ranges.
///
/// Workers finishing in arbitrary order feed [`push_range`](Self::push_range) with
/// the consecutive items `start, start + 1, …` they computed; the consumer drains
/// [`pop`](Self::pop), which only yields item `k` once items `0..k` have been
/// yielded. The unit of bookkeeping is the range, not the item: a range costs one
/// map insert and one remove however many items it holds, and is drained where it
/// stands. Early ranges are buffered (bounded by how far ahead the workers can
/// run, which a bounded channel in turn limits). A range of one item is the
/// degenerate case.
#[derive(Debug)]
pub struct OrderedReassembly<T> {
    /// Index of the next item [`pop`](Self::pop) yields.
    next: usize,
    /// What is left of the in-order range being drained; its first item is `next`.
    current: std::vec::IntoIter<T>,
    /// Ranges not yet being drained, by start index.
    pending: std::collections::BTreeMap<usize, Vec<T>>,
}

impl<T> OrderedReassembly<T> {
    /// An empty buffer expecting index 0 first.
    pub fn new() -> Self {
        OrderedReassembly {
            next: 0,
            current: Vec::new().into_iter(),
            pending: std::collections::BTreeMap::new(),
        }
    }

    /// Record the completed items `start..start + items.len()`. Ranges must not
    /// overlap; an empty one is ignored.
    pub fn push_range(&mut self, start: usize, items: Vec<T>) {
        debug_assert!(start >= self.next, "index {start} already emitted");
        if !items.is_empty() {
            self.pending.insert(start, items);
        }
    }

    /// The next in-order item, if it has arrived.
    pub fn pop(&mut self) -> Option<T> {
        if self.current.len() == 0 {
            self.current = self.pending.remove(&self.next)?.into_iter();
        }
        let item = self.current.next()?;
        self.next += 1;
        Some(item)
    }

    /// The index the next [`pop`](Self::pop) will yield.
    pub fn next_index(&self) -> usize {
        self.next
    }

    /// Number of buffered ranges not yet being drained.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }
}

impl<T> Default for OrderedReassembly<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A unit of work submitted to a [`WorkerPool`].
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared state between a [`WorkerPool`] handle and its worker threads.
struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when a job is enqueued or shutdown begins.
    work_ready: Condvar,
    shutdown: AtomicBool,
    /// Jobs fully executed (including ones that panicked), for observability.
    executed: AtomicU64,
    /// Jobs whose closure panicked. The panic is contained — the worker thread
    /// survives and keeps serving — but callers can detect the bug here.
    panicked: AtomicU64,
}

impl PoolShared {
    /// Begin shutdown and wake every idle worker. The flag is set **under the
    /// queue lock**: a worker checks it under that lock before it waits, so it
    /// either sees the flag or is already waiting when the notification goes
    /// out — set outside the lock, the store and the wake-up could both fall
    /// between a worker's check and its wait, and the join would hang. Runs
    /// from `Drop`, so a poisoned lock is held as it is rather than unwrapped.
    fn close(&self) {
        let queue = self.queue.lock();
        self.shutdown.store(true, Ordering::SeqCst);
        drop(queue);
        self.work_ready.notify_all();
    }
}

impl std::fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolShared")
            .field("queued", &self.queue.lock().map(|q| q.len()).unwrap_or(0))
            .field("shutdown", &self.shutdown.load(Ordering::Relaxed))
            .field("executed", &self.executed.load(Ordering::Relaxed))
            .field("panicked", &self.panicked.load(Ordering::Relaxed))
            .finish()
    }
}

/// A worker pool: a fixed set of long-lived threads executing submitted jobs in
/// FIFO order.
///
/// Starting (and joining) threads once per execution is the right trade-off for a
/// library call — what `pvc-db` does with a pool of its own when the caller shares
/// none — and measurably wrong for a serving process handling thousands of small
/// requests. There a `WorkerPool` is created once, reused by every execution
/// (`EvalOptions::with_pool` in `pvc-db` routes the per-tuple pipeline onto it),
/// and joined exactly once at shutdown.
///
/// Determinism: the pool only changes *where* a job runs, never what it computes;
/// executions on a shared pool are bit-identical to executions on a pool of their
/// own (pinned by `shared_pool_execution_is_bit_identical_to_owned_pool` in
/// `pvc-db`).
///
/// Panic containment: a panicking job is caught, counted in
/// [`panicked_jobs`](Self::panicked_jobs), and the worker thread keeps serving —
/// one buggy request cannot take capacity away from a long-lived server.
///
/// Shutdown: [`shutdown`](Self::shutdown) (or `Drop`) marks the pool closed,
/// wakes every idle worker and **joins them all**; jobs still queued at that
/// point are executed first (drain semantics), so no submitted work is silently
/// discarded.
#[derive(Debug)]
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Start a pool with `threads` workers (`0` = one per available core, the
    /// serving default). Fails only when the OS refuses to spawn threads; workers
    /// already started are joined before the error is returned.
    pub fn new(threads: usize) -> std::io::Result<WorkerPool> {
        let threads = resolve_threads(threads, usize::MAX);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            executed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("pvc-pool-worker-{i}"))
                .spawn(move || pool_worker_loop(&worker_shared));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    shared.close();
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(WorkerPool {
            shared,
            workers,
            threads,
        })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Submit a job. Jobs run in FIFO order across the workers; a job submitted
    /// after [`shutdown`](Self::shutdown) began is dropped without running (the
    /// pool can no longer guarantee a worker will pick it up).
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        // With metrics on, wrap the job to time its queue wait (enqueue to
        // start) and run time; when disabled the job is boxed exactly as
        // before, so the hot path pays one relaxed flag load.
        let metrics = crate::obs::core_metrics();
        let job: Job = if metrics.pool_queue_wait_us.is_enabled() {
            let enqueued = std::time::Instant::now();
            Box::new(move || {
                let metrics = crate::obs::core_metrics();
                metrics
                    .pool_queue_wait_us
                    .record(enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64);
                let started = std::time::Instant::now();
                job();
                metrics
                    .pool_run_us
                    .record(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
            })
        } else {
            Box::new(job)
        };
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        queue.push_back(job);
        drop(queue);
        self.shared.work_ready.notify_one();
    }

    /// Jobs fully executed so far (including panicked ones).
    pub fn executed_jobs(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Jobs whose closure panicked (the workers survived).
    pub fn panicked_jobs(&self) -> u64 {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Jobs queued but not yet claimed by a worker.
    pub fn queued_jobs(&self) -> usize {
        self.shared.queue.lock().expect("pool queue poisoned").len()
    }

    /// Drain the queue, stop and **join** every worker. Queued jobs run to
    /// completion first. Called implicitly on `Drop`; the explicit form exists so
    /// servers can put "all workers joined" in their shutdown path visibly.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn pool_worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.work_ready.wait(queue).expect("pool queue poisoned");
            }
        };
        // Contain panics: the job owner observes failures through its own channel
        // (e.g. the TupleStream surfaces Error::Worker); the pool thread must
        // survive to serve the next request.
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
            shared.panicked.fetch_add(1, Ordering::Relaxed);
        }
        shared.executed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn resolve_threads_clamps() {
        assert_eq!(resolve_threads(4, 100), 4);
        assert_eq!(resolve_threads(8, 3), 3);
        assert_eq!(resolve_threads(2, 0), 1);
        assert!(resolve_threads(0, 100) >= 1);
    }

    #[test]
    fn worker_pool_executes_jobs_and_joins_on_shutdown() {
        let pool = WorkerPool::new(3).unwrap();
        assert_eq!(pool.threads(), 3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Shutdown drains the queue: every submitted job ran exactly once.
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn shutdown_reaches_a_worker_that_is_about_to_wait() {
        // A worker that has found the queue empty and checked the flag, but not
        // yet started waiting, must not miss the shutdown signal (it used to: the
        // flag was set outside the queue lock, and the join then hung — one
        // stream drop in a few thousand). Dropping pools whose workers have just
        // started lands in that window often; a watchdog turns a hang into a
        // failure.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..3_000 {
                drop(WorkerPool::new(2).unwrap());
            }
            let _ = done.send(());
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("a pool's drop never joined its workers");
    }

    #[test]
    fn worker_pool_survives_panicking_jobs() {
        let pool = WorkerPool::new(2).unwrap();
        let ok = Arc::new(AtomicUsize::new(0));
        for i in 0..20 {
            let ok = Arc::clone(&ok);
            pool.execute(move || {
                if i % 5 == 0 {
                    panic!("job bug");
                }
                ok.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Wait for the queue to drain without shutting down: the panicking jobs
        // must not have killed the workers.
        while pool.executed_jobs() < 20 {
            std::thread::yield_now();
        }
        assert_eq!(pool.panicked_jobs(), 4);
        assert_eq!(ok.load(Ordering::Relaxed), 16);
        // The pool still serves new jobs after the panics.
        let after = Arc::new(AtomicUsize::new(0));
        let after_clone = Arc::clone(&after);
        pool.execute(move || {
            after_clone.store(7, Ordering::Relaxed);
        });
        pool.shutdown();
        assert_eq!(after.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn worker_pool_resolves_zero_to_per_core() {
        let pool = WorkerPool::new(0).unwrap();
        assert!(pool.threads() >= 1);
        assert_eq!(pool.queued_jobs(), 0);
    }

    #[test]
    fn ordered_reassembly_reorders() {
        let mut r = OrderedReassembly::new();
        r.push_range(2, vec!["c"]);
        r.push_range(0, vec!["a"]);
        assert_eq!(r.pop(), Some("a"));
        assert_eq!(r.pop(), None); // 1 has not arrived
        assert_eq!(r.buffered(), 1);
        r.push_range(1, vec!["b"]);
        assert_eq!(r.pop(), Some("b"));
        assert_eq!(r.pop(), Some("c"));
        assert_eq!(r.pop(), None);
        assert_eq!(r.next_index(), 3);
    }

    #[test]
    fn ordered_reassembly_drains_ranges_in_index_order() {
        // Ranges of 1, 2, 3 and 4 items, pushed in every one of the 24 orders,
        // with pops interleaved: the items come out 0..10 each time, and an item
        // is never yielded before every item below it.
        let ranges: [(usize, usize); 4] = [(0, 1), (1, 2), (3, 3), (6, 4)];
        let mut orders = vec![vec![]];
        for _ in 0..ranges.len() {
            orders = orders
                .into_iter()
                .flat_map(|order: Vec<usize>| {
                    (0..ranges.len())
                        .filter(|i| !order.contains(i))
                        .map(|i| [&order[..], &[i]].concat())
                        .collect::<Vec<_>>()
                })
                .collect();
        }
        assert_eq!(orders.len(), 24);
        for order in orders {
            let mut r = OrderedReassembly::new();
            let mut seen = Vec::new();
            for &i in &order {
                let (start, len) = ranges[i];
                r.push_range(start, (start..start + len).collect());
                r.push_range(start + len, Vec::new()); // ignored
                while let Some(item) = r.pop() {
                    seen.push(item);
                }
                assert_eq!(r.next_index(), seen.len(), "{order:?}");
            }
            assert_eq!(seen, (0..10).collect::<Vec<_>>(), "{order:?}");
            assert_eq!(r.buffered(), 0, "{order:?}");
        }
    }
}
