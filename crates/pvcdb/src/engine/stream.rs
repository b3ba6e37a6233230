//! The streaming executor: step II of one execution as jobs on a [`WorkerPool`] —
//! the caller's shared one, or one the stream owns — feeding a [`TupleStream`]
//! that yields tuples in deterministic order and quiesces its jobs when dropped.
//!
//! **The hand-off is a morsel, not a tuple.** A job claims a *range* of
//! consecutive tuple indices from the shared cursor with one atomic, computes it
//! tuple by tuple through [`StepTwo::tuple`] (cancel flag and `catch_unwind` per
//! tuple, so a drop waits for at most one tuple and a panic is that index's
//! [`Error::Worker`] with its neighbours intact) and sends the range's results as
//! **one** message; the consumer reassembles by range start. A range that starts
//! at index `s` holds `clamp(s / jobs, 1, 16)` tuples ([`morsel_len`]): the first
//! tuples of a stream are messages of one, so the first result is not held back
//! by fifteen others, and the steady state is [`MORSEL_TUPLES`] per wake-up of
//! the consumer. The channel holds `2·jobs + 2` messages and each job can hold
//! one more, so workers run at most `(3·jobs + 2) · 16` tuples ahead of a slow
//! consumer.

use super::options::EvalOptions;
use super::step_two::{StepTwo, TupleCounters, TupleProfile};
use super::Rewritten;
use crate::database::Database;
use crate::error::Error;
use crate::prob_eval::ProbTuple;
use pvc_core::obs;
use pvc_core::parallel::{OrderedReassembly, WorkerPool};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Most tuples one message carries. A wake-up of the blocked consumer (futex,
/// inter-CPU interrupt, context switch) costs about what one TPC-H Q2 tuple does
/// (≈ 9 µs), so 16 tuples per message put the hand-off near 6 % of the work; and
/// with the channel's `2·jobs + 2` messages a slow consumer of two jobs can force
/// about a hundred buffered tuples and no more — still the "small window" a
/// stream promises. The sweep on `tpch_q2` that chose it is in
/// `docs/ARCHITECTURE.md`, "The streaming executor" (per operation: 1 → 7.6 ms,
/// 4 → 6.1 ms, 16 → 5.5 ms), with what keeps it from being larger.
const MORSEL_TUPLES: usize = 16;

/// Length of the range a claim starting at tuple `start` takes when `jobs` jobs
/// share the cursor: one tuple each for the first `2·jobs` claims — a stream's
/// first result is never held back by the rest of a morsel — then growing with
/// the distance from the start up to [`MORSEL_TUPLES`].
fn morsel_len(start: usize, jobs: usize) -> usize {
    (start / jobs).clamp(1, MORSEL_TUPLES)
}

/// One worker-to-consumer message: the outcomes of the consecutive tuples from
/// `start` on, and their profile fragments (profile mode only) in the same order.
struct Morsel {
    start: usize,
    results: Vec<Result<ProbTuple, Error>>,
    profiles: Vec<TupleProfile>,
}

/// Lifecycle state of one stream's pool jobs: how many are currently running, and
/// whether the stream was cancelled before they started.
#[derive(Debug, Default)]
struct GateState {
    cancelled: bool,
    active: usize,
}

/// The quiescence gate of one stream. Pool jobs have no handle to join, so
/// dropping the stream waits here until every started job has exited
/// (queued-but-unstarted jobs observe `cancelled` under this lock and become
/// no-ops). Checking the flag and counting the job under **one** lock is what
/// makes the drop race-free: a job either sees the cancellation or is counted
/// before the drop starts waiting.
///
/// The gate lives in an `Arc` of its own, apart from [`StreamShared`]: a job owns
/// the gate but only a `Weak` to the shared state, which it upgrades *inside* the
/// gated scope. Once the stream's drop returns, no job — finished, or still queued
/// on the pool — keeps the `Arc<Database>` alive, so
/// [`Engine::into_database`](super::Engine::into_database) after a drained stream
/// hands the database back instead of cloning it.
#[derive(Debug, Default)]
struct StreamGate {
    state: Mutex<GateState>,
    /// Signalled whenever `state.active` reaches zero.
    quiesced: Condvar,
}

impl StreamGate {
    /// Register one pool job as running; `false` means the stream was already
    /// cancelled and the job must not touch any work.
    fn enter(&self) -> bool {
        let mut state = self.state.lock().expect("stream gate poisoned");
        if state.cancelled {
            return false;
        }
        state.active += 1;
        true
    }

    /// Turn queued-but-unstarted jobs into no-ops and wait until every started
    /// job has exited.
    fn cancel_and_wait(&self) {
        let mut state = self.state.lock().expect("stream gate poisoned");
        state.cancelled = true;
        while state.active > 0 {
            state = self.quiesced.wait(state).expect("stream gate poisoned");
        }
    }
}

/// State shared between the consumer of a [`TupleStream`] and its workers: the
/// owned parts of the execution's [`StepTwo`] context, and the work distribution.
#[derive(Debug)]
struct StreamShared {
    db: Arc<Database>,
    options: EvalOptions,
    step: Rewritten,
    counters: TupleCounters,
    /// Set when the stream is dropped: workers stop before their next tuple.
    cancel: AtomicBool,
    /// The next unclaimed tuple index (dynamic work distribution).
    cursor: AtomicUsize,
    /// Jobs sharing the cursor, which sets how fast claimed ranges ramp up.
    jobs: usize,
}

impl StreamShared {
    /// Lend a worker the execution's step-II context.
    fn context(&self) -> StepTwo<'_> {
        StepTwo {
            db: &self.db,
            options: &self.options,
            step: &self.step,
            counters: &self.counters,
        }
    }

    /// Claim the next range of unclaimed tuple indices — one atomic per morsel.
    /// Every range is a function of its start alone, so the sequence of ranges
    /// does not depend on which job claims which. `Relaxed` as before: the cursor
    /// publishes nothing but itself, results travel through the channel.
    fn claim(&self) -> Option<Range<usize>> {
        let total = self.step.table.tuples.len();
        let end = |start: usize| total.min(start + morsel_len(start, self.jobs));
        let start = self
            .cursor
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |start| {
                (start < total).then(|| end(start))
            })
            .ok()?;
        Some(start..end(start))
    }
}

/// Decrements the gate when a pool job exits — by any path, panic included
/// (the guard lives across the worker loop, so unwinding still releases the
/// stream's drop from its wait).
struct GateGuard<'g>(&'g StreamGate);

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock().expect("stream gate poisoned");
        state.active -= 1;
        if state.active == 0 {
            self.0.quiesced.notify_all();
        }
    }
}

fn worker_loop(shared: &StreamShared, sender: &SyncSender<Morsel>) {
    let step_two = shared.context();
    while let Some(range) = shared.claim() {
        let mut morsel = Morsel {
            start: range.start,
            results: Vec::with_capacity(range.len()),
            profiles: Vec::new(),
        };
        for index in range {
            if shared.cancel.load(Ordering::Relaxed) {
                return;
            }
            // A panic inside per-tuple evaluation (a bug) must still deliver *some*
            // item for the claimed index: if it were swallowed, the consumer would
            // keep buffering every later range waiting for this one — unbounded
            // memory and an arbitrarily late error. Caught here, it surfaces as an
            // in-order `Error::Worker` for this index, between its neighbours.
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| step_two.tuple(index)))
                    .unwrap_or_else(|panic| {
                        let detail = panic
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| panic.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "worker panicked".to_string());
                        Err(Error::Worker(format!(
                            "panic while computing tuple {index}: {detail}"
                        )))
                    });
            morsel.results.push(match outcome {
                Ok((tuple, profile)) => {
                    morsel.profiles.extend(profile);
                    Ok(tuple)
                }
                Err(e) => Err(e),
            });
        }
        // A send error means the consumer dropped the stream: stop quietly.
        if sender.send(morsel).is_err() {
            return;
        }
    }
}

/// Start step II of one execution on a worker pool and wrap it in a
/// [`TupleStream`]: on [`EvalOptions::pool`] when the caller shares one, otherwise
/// on a pool of `step.threads` workers that the stream owns and joins when dropped.
/// An empty result starts nothing — no pool of its own, no job on a shared one.
pub(super) fn spawn_stream(
    db: Arc<Database>,
    options: &EvalOptions,
    step: Rewritten,
) -> Result<TupleStream, Error> {
    let threads = step.threads;
    let columns = super::column_names(&step.table);
    // Take the pool handle *out* of the options the stream retains: jobs hold
    // `Arc<StreamShared>`, and a pool must never be kept alive (and eventually
    // dropped, which joins its workers) from one of its own worker threads. An
    // owned pool stays on the consumer side for the same reason.
    let mut options = options.clone();
    let shared_pool = options.pool.take();
    let empty = step.table.tuples.is_empty();
    let owned_pool = if shared_pool.is_none() && !empty {
        let pool = WorkerPool::new(threads)
            .map_err(|e| Error::Worker(format!("failed to spawn worker thread: {e}")))?;
        Some(pool)
    } else {
        None
    };
    let pool = shared_pool
        .as_deref()
        .or(owned_pool.as_ref())
        .filter(|_| !empty);
    // More jobs than pool workers cannot run concurrently (they would only claim
    // an empty cursor after the loop ends), so cap at the pool width.
    let jobs = pool.map_or(0, |pool| threads.min(pool.threads()).max(1));
    let shared = Arc::new(StreamShared {
        db,
        options,
        step,
        counters: TupleCounters::default(),
        cancel: AtomicBool::new(false),
        cursor: AtomicUsize::new(0),
        jobs,
    });
    let gate = Arc::new(StreamGate::default());
    // Bounded channel: workers run at most a small window ahead of the consumer,
    // so a slow consumer of a huge result does not buffer the whole result set.
    // Sized from the jobs that run, not the threads asked for: `with_threads(64)`
    // on a pool of two must not look 130 messages ahead.
    let (sender, receiver) = std::sync::mpsc::sync_channel::<Morsel>(jobs * 2 + 2);
    for _ in 0..jobs {
        let worker_gate = Arc::clone(&gate);
        let worker_shared = Arc::downgrade(&shared);
        let worker_sender = sender.clone();
        let job = move || {
            if !worker_gate.enter() {
                return;
            }
            // Declared before the upgrade, so dropped after it: the stream's
            // drop is released only once this job holds the shared state (and
            // with it the database) no more.
            let _guard = GateGuard(&worker_gate);
            if let Some(shared) = worker_shared.upgrade() {
                worker_loop(&shared, &worker_sender);
            }
        };
        pool.expect("jobs run on a pool").execute(job);
    }
    drop(sender);
    Ok(TupleStream {
        columns,
        threads: jobs,
        receiver: (jobs > 0).then_some(receiver),
        reassembly: OrderedReassembly::new(),
        profiles: Vec::new(),
        shared,
        gate,
        owned_pool,
        poisoned: false,
    })
}

/// A streaming query result: an iterator over `Result<ProbTuple, Error>` that
/// yields tuples **in deterministic tuple order** while background workers compute
/// them (see
/// [`PreparedQuery::execute_streaming`](super::PreparedQuery::execute_streaming)).
///
/// * Partial consumption is safe: dropping the stream sets a cancel flag, closes
///   the channel and waits until every started pool job has exited (then joins the
///   pool, when the stream started one of its own) — no work outlives it.
/// * An `Err` item reports the failure of that specific tuple (e.g. a node-budget
///   abort); later tuples may still follow.
/// * Backpressure: results travel in ranges of up to 16 consecutive tuples over a
///   channel of `2·jobs + 2` messages, so workers compute at most
///   `(3·jobs + 2) · 16` tuples ahead of a consumer that stops pulling.
/// * After the stream is exhausted, [`fast_path_hits`](Self::fast_path_hits) /
///   [`agg_fast_path_hits`](Self::agg_fast_path_hits) report the execution's
///   fast-path counters.
#[derive(Debug)]
pub struct TupleStream {
    columns: Vec<String>,
    threads: usize,
    receiver: Option<Receiver<Morsel>>,
    reassembly: OrderedReassembly<Result<ProbTuple, Error>>,
    /// Per-tuple profile fragments received so far (profile mode only), one entry
    /// per message keyed by its range start — arrival order is nondeterministic,
    /// so they are sorted when taken.
    profiles: Vec<(usize, Vec<TupleProfile>)>,
    shared: Arc<StreamShared>,
    gate: Arc<StreamGate>,
    /// The pool this stream started for itself because the caller shared none;
    /// its drop joins the workers.
    owned_pool: Option<WorkerPool>,
    poisoned: bool,
}

impl TupleStream {
    /// Column names of the result.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Wall-clock time of step I (the rewriting), which ran before the stream was
    /// returned.
    pub fn rewrite_time(&self) -> Duration {
        self.shared.step.rewrite_time
    }

    /// Total number of result tuples this stream will yield.
    pub fn total_tuples(&self) -> usize {
        self.shared.step.table.tuples.len()
    }

    /// Number of worker threads computing tuples (none for an empty result).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Tuple confidences computed by the §6 read-once fast path **so far** (final
    /// once the stream is exhausted).
    pub fn fast_path_hits(&self) -> usize {
        self.shared.counters.fast_path_hits.load(Ordering::Relaxed)
    }

    /// Aggregate distributions assembled by the Proposition 1 closed form so far.
    pub fn agg_fast_path_hits(&self) -> usize {
        self.shared
            .counters
            .agg_fast_path_hits
            .load(Ordering::Relaxed)
    }

    /// Take the per-tuple profile fragments received so far, in tuple order
    /// (only populated when the stream runs with `EvalOptions::profile`).
    pub(super) fn take_profiles(&mut self) -> Vec<TupleProfile> {
        let mut profiles = std::mem::take(&mut self.profiles);
        profiles.sort_by_key(|(start, _)| *start);
        profiles.into_iter().flat_map(|(_, range)| range).collect()
    }
}

impl Iterator for TupleStream {
    type Item = Result<ProbTuple, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.poisoned || self.reassembly.next_index() >= self.total_tuples() {
            return None;
        }
        loop {
            if let Some(item) = self.reassembly.pop() {
                return Some(item);
            }
            let receiver = self.receiver.as_ref()?;
            match receiver.recv() {
                Ok(morsel) => {
                    let metrics = obs::core_metrics();
                    metrics.stream_messages.inc();
                    metrics
                        .stream_message_tuples
                        .record(morsel.results.len() as u64);
                    if !morsel.profiles.is_empty() {
                        self.profiles.push((morsel.start, morsel.profiles));
                    }
                    self.reassembly.push_range(morsel.start, morsel.results)
                }
                Err(_) => {
                    // Every sender hung up before all tuples were delivered: a
                    // worker panicked. Surface it instead of silently truncating.
                    self.poisoned = true;
                    return Some(Err(Error::Worker(format!(
                        "worker thread exited before delivering tuple {} of {}",
                        self.reassembly.next_index(),
                        self.total_tuples()
                    ))));
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.poisoned {
            return (0, Some(0));
        }
        let remaining = self.total_tuples() - self.reassembly.next_index();
        (remaining, Some(remaining))
    }
}

impl Drop for TupleStream {
    fn drop(&mut self) {
        self.shared.cancel.store(true, Ordering::Relaxed);
        // Closing the receiver unblocks any worker waiting on the bounded channel;
        // each then observes the send error (or the cancel flag) and exits.
        self.receiver = None;
        // Pool jobs have no handles to join: mark the gate cancelled (so
        // queued-but-unstarted jobs become no-ops) and wait until every started
        // job has exited. Only then is it safe to release the stream's shared
        // state — a shared pool outlives the stream, the stream's jobs must not.
        self.gate.cancel_and_wait();
        // An owned pool has nothing left to run; dropping it joins its workers.
        self.owned_pool = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::exec::tests::{figure1_db, paper_q1};
    use crate::query::Query;
    use crate::schema::Schema;
    use pvc_expr::{SemiringExpr, Var};

    /// A database with one table `T` of `rows` tuple-independent rows, so
    /// `Query::table("T")` has `rows` cheap result tuples in row order.
    fn rows_db(rows: usize) -> Database {
        let mut db = Database::new();
        db.create_table("T", Schema::new(["id"]));
        let (t, vars) = db.table_and_vars_mut("T").unwrap();
        for i in 0..rows {
            t.push_independent(vec![(i as i64).into()], 0.25 + (i % 7) as f64 / 16.0, vars);
        }
        db
    }

    #[test]
    fn claimed_ranges_ramp_from_one_to_the_cap_and_tile_the_table() {
        // The first 2·jobs claims are single tuples, sizes never shrink before
        // the tail, and none exceeds the cap.
        for jobs in [1, 2, 4] {
            assert!((0..2 * jobs).all(|start| morsel_len(start, jobs) == 1));
            assert_eq!(morsel_len(MORSEL_TUPLES * jobs, jobs), MORSEL_TUPLES);
            assert_eq!(morsel_len(usize::MAX, jobs), MORSEL_TUPLES);
        }
        // Whatever the interleaving of the claiming jobs, the ranges are the same
        // ones and cover every index once: 100 tuples on two jobs are 14 messages.
        let engine = Engine::new(rows_db(100));
        let prepared = engine.prepare(&Query::table("T")).unwrap();
        let pool = Arc::new(WorkerPool::new(2).unwrap());
        let options = EvalOptions::default().with_threads(2).with_pool(pool);
        let mut stream = prepared.execute_streaming(&options).unwrap();
        // Take the cursor over from the workers: cancel them, close the channel
        // (one may be blocked sending into it), wait them out, then claim here.
        stream.shared.cancel.store(true, Ordering::Relaxed);
        stream.receiver = None;
        stream.gate.cancel_and_wait();
        stream.shared.cursor.store(0, Ordering::Relaxed);
        let ranges: Vec<Range<usize>> = std::iter::from_fn(|| stream.shared.claim()).collect();
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(lens, [1, 1, 1, 1, 2, 3, 4, 6, 9, 14, 16, 16, 16, 10]);
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, 100);
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        assert_eq!(stream.shared.claim(), None);
    }

    #[test]
    fn look_ahead_is_bounded_by_running_jobs() {
        // `with_threads(64)` on a pool of two runs two jobs: the window a slow
        // consumer leaves them is the channel's 2·jobs + 2 messages plus the one
        // each job holds, not the 130 messages the asked-for threads would size.
        let engine = Engine::new(rows_db(4_000));
        let prepared = engine.prepare(&Query::table("T")).unwrap();
        let pool = Arc::new(WorkerPool::new(2).unwrap());
        let options = EvalOptions::default().with_threads(64).with_pool(pool);
        let mut stream = prepared.execute_streaming(&options).unwrap();
        let jobs = stream.threads();
        assert_eq!(jobs, 2);
        // The claimed ranges are a function of their starts alone.
        let starts: Vec<usize> = std::iter::successors(Some(0), |&s| Some(s + morsel_len(s, jobs)))
            .take_while(|&s| s < 4_000)
            .collect();
        // Take tuples until nothing received is left undrained: a job that
        // claimed an early range and lost its CPU lets the other job's later
        // ranges arrive first, and the consumer buffers them while it waits.
        // Buffered ranges were claimed but not taken, so only once none is
        // left does `next_index()` count everything pulled off the channel.
        let mut taken = 0;
        loop {
            stream.next().unwrap().unwrap();
            taken += 1;
            let next = stream.reassembly.next_index();
            if stream.reassembly.buffered() == 0 && starts.binary_search(&next).is_ok() {
                break;
            }
            assert!(
                taken < 2_000,
                "the consumer never caught up with the workers"
            );
        }
        // The consumer now stalls. The workers claim until both are blocked —
        // the channel full and each job holding one more range — so the cursor
        // stops at the end of the `2·jobs + 2 + jobs`-th range past the
        // consumer's; wait until it stands there.
        let next = stream.reassembly.next_index();
        let first = starts.binary_search(&next).unwrap();
        let stop = starts
            .get(first + 2 * jobs + 2 + jobs)
            .copied()
            .unwrap_or(4_000);
        let cursor = || stream.shared.cursor.load(Ordering::Relaxed);
        let waited = std::time::Instant::now();
        while cursor() < stop {
            assert!(
                waited.elapsed() < Duration::from_secs(60),
                "workers stopped claiming at {} before the window's end {stop}",
                cursor()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let last = cursor();
        assert_eq!(last, stop, "workers claimed past both of them blocking");
        let window = (2 * jobs + 2 + jobs) * MORSEL_TUPLES;
        assert!(
            last <= next + window,
            "workers claimed {last} tuples ahead of a consumer that took {next} (window {window})"
        );
        // The rest still arrives, in order.
        assert_eq!(stream.by_ref().map(Result::unwrap).count(), 4_000 - taken);
    }

    #[test]
    fn an_empty_result_starts_no_pool_and_queues_no_job() {
        let query = Query::table("T");
        // No pool shared: none is started, and there is nothing to join.
        let engine = Engine::new(rows_db(0));
        let mut stream = engine
            .prepare(&query)
            .unwrap()
            .execute_streaming(&EvalOptions::default().with_threads(4))
            .unwrap();
        assert!(stream.owned_pool.is_none() && stream.receiver.is_none());
        assert_eq!((stream.total_tuples(), stream.threads()), (0, 0));
        assert_eq!(stream.size_hint(), (0, Some(0)));
        assert!(stream.next().is_none());
        drop(stream);
        // A shared pool is handed no job, and the database comes back uncopied.
        let pool = Arc::new(WorkerPool::new(2).unwrap());
        let options = EvalOptions::default()
            .with_threads(2)
            .with_pool(Arc::clone(&pool));
        let db = engine.into_database();
        let table = db.table("T").unwrap() as *const _;
        let engine = Engine::new(db);
        let mut stream = engine
            .prepare(&query)
            .unwrap()
            .execute_streaming(&options)
            .unwrap();
        assert!(stream.next().is_none());
        drop(stream);
        assert_eq!((pool.executed_jobs(), pool.queued_jobs()), (0, 0));
        let db = engine.into_database();
        assert_eq!(
            db.table("T").unwrap() as *const _,
            table,
            "the database was deep-copied"
        );
    }

    #[test]
    fn a_panicking_tuple_mid_range_is_that_index_error_only() {
        // Row 50's annotation names a variable the database does not have, which
        // panics inside step II (a bug by construction). With two jobs index 50
        // sits inside the range 42..58: the tuples before and after it in that
        // range, and every other range, must arrive intact.
        let mut db = rows_db(100);
        let (t, _) = db.table_and_vars_mut("T").unwrap();
        t.tuples[50].annotation = SemiringExpr::Var(Var(u32::MAX));
        let engine = Engine::new(db);
        let prepared = engine.prepare(&Query::table("T")).unwrap();
        let reference = Engine::new(rows_db(100));
        let reference = reference
            .prepare(&Query::table("T"))
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        let pool = Arc::new(WorkerPool::new(2).unwrap());
        for shared in [false, true] {
            let mut options = EvalOptions::default().with_threads(2);
            if shared {
                options = options.with_pool(Arc::clone(&pool));
            }
            let items: Vec<_> = prepared.execute_streaming(&options).unwrap().collect();
            assert_eq!(items.len(), 100);
            for (index, (item, expected)) in items.iter().zip(&reference.tuples).enumerate() {
                match item {
                    Err(Error::Worker(detail)) => {
                        assert_eq!(index, 50, "{detail}");
                        assert!(
                            detail.contains("panic while computing tuple 50"),
                            "{detail}"
                        );
                    }
                    Err(other) => panic!("tuple {index}: {other}"),
                    Ok(tuple) => {
                        assert_ne!(index, 50);
                        assert_eq!(tuple.values, expected.values);
                        assert_eq!(tuple.confidence.to_bits(), expected.confidence.to_bits());
                    }
                }
            }
        }
        // The panic was caught per tuple, inside the job: the pool saw none.
        assert_eq!(pool.panicked_jobs(), 0);
    }
    #[test]
    fn streaming_yields_tuples_in_order() {
        let db = figure1_db();
        let engine = Engine::new(db);
        let prepared = engine.prepare(&paper_q1()).unwrap();
        let reference = prepared.execute(&EvalOptions::default()).unwrap();
        for threads in [1, 4] {
            let stream = prepared
                .execute_streaming(&EvalOptions::default().with_threads(threads))
                .unwrap();
            assert_eq!(stream.total_tuples(), reference.tuples.len());
            assert_eq!(stream.columns(), &reference.columns[..]);
            let tuples: Vec<ProbTuple> = stream.map(|t| t.unwrap()).collect();
            assert_eq!(tuples.len(), reference.tuples.len());
            for (s, r) in tuples.iter().zip(&reference.tuples) {
                assert_eq!(s.values, r.values);
                assert_eq!(s.confidence.to_bits(), r.confidence.to_bits());
            }
        }
    }

    #[test]
    fn streaming_partial_consumption_cancels_cleanly() {
        let db = figure1_db();
        let engine = Engine::new(db);
        let prepared = engine.prepare(&paper_q1()).unwrap();
        let mut stream = prepared
            .execute_streaming(&EvalOptions::default().with_threads(2))
            .unwrap();
        let first = stream.next().unwrap().unwrap();
        assert!(first.confidence > 0.0);
        drop(stream); // must cancel and join workers without deadlocking
                      // The engine stays fully usable afterwards.
        let result = prepared.execute(&EvalOptions::default()).unwrap();
        assert_eq!(result.tuples.len(), 9);
    }

    #[test]
    fn shared_pool_execution_is_bit_identical_to_owned_pool() {
        let db = figure1_db();
        let engine = Engine::new(db);
        let prepared = engine.prepare(&paper_q1()).unwrap();
        // No pool supplied: the execution starts, owns and joins one of its own.
        let owned = prepared
            .execute(&EvalOptions::default().with_threads(4))
            .unwrap();
        let pool = Arc::new(WorkerPool::new(4).unwrap());
        // Several executions reuse the same pool — the serving pattern.
        for _ in 0..3 {
            let pooled = prepared
                .execute(
                    &EvalOptions::default()
                        .with_threads(4)
                        .with_pool(Arc::clone(&pool)),
                )
                .unwrap();
            assert_eq!(owned.tuples.len(), pooled.tuples.len());
            for (a, b) in owned.tuples.iter().zip(&pooled.tuples) {
                assert_eq!(a.values, b.values);
                assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
                assert_eq!(a.aggregate_distributions, b.aggregate_distributions);
            }
        }
        assert!(pool.executed_jobs() > 0, "work must run on the pool");
        assert_eq!(pool.panicked_jobs(), 0);
    }

    #[test]
    fn pooled_stream_drop_mid_stream_quiesces_and_pool_survives() {
        let db = figure1_db();
        let engine = Engine::new(db);
        let prepared = engine.prepare(&paper_q1()).unwrap();
        let pool = Arc::new(WorkerPool::new(2).unwrap());
        let options = EvalOptions::default()
            .with_threads(2)
            .with_pool(Arc::clone(&pool));
        let mut stream = prepared.execute_streaming(&options).unwrap();
        let first = stream.next().unwrap().unwrap();
        assert!(first.confidence > 0.0);
        // Dropping mid-stream must cancel the pool jobs and wait them out —
        // without killing the pool, which keeps serving later executions.
        drop(stream);
        let result = prepared.execute(&options).unwrap();
        assert_eq!(result.tuples.len(), 9);
        assert_eq!(pool.panicked_jobs(), 0);
        // Pool shutdown drains and joins cleanly afterwards (no leaked jobs;
        // stream state never retains the pool handle, so dropping the options
        // leaves this as the only reference).
        drop(options);
        Arc::try_unwrap(pool)
            .expect("no job may still hold the pool")
            .shutdown();
    }

    #[test]
    fn into_database_after_a_drained_pooled_stream_does_not_copy() {
        // A pool job that still held the stream's `Arc<Database>` once the drained
        // stream was dropped made `into_database` clone the whole database.
        let pool = Arc::new(WorkerPool::new(2).unwrap());
        let shared = EvalOptions::default()
            .with_threads(2)
            .with_pool(Arc::clone(&pool));
        let owned = EvalOptions::default().with_threads(4);
        let query = paper_q1();
        let mut db = figure1_db();
        for (options, owns_its_pool) in [(&shared, false), (&owned, true)] {
            for iteration in 0..200 {
                let tuples = db.table("PS").unwrap().tuples.as_ptr();
                let engine = Engine::new(db);
                let mut stream = engine
                    .prepare(&query)
                    .unwrap()
                    .execute_streaming(options)
                    .unwrap();
                assert_eq!(stream.owned_pool.is_some(), owns_its_pool);
                let gate = Arc::downgrade(&stream.gate);
                assert_eq!(stream.by_ref().map(Result::unwrap).count(), 9);
                drop(stream);
                // A job's closure holds the gate until the worker that ran it lets
                // go, which is after the gate released the stream's drop: with the
                // owned pool's workers joined, none can be left. (A shared pool's
                // workers live on, and may let go a moment later.)
                if owns_its_pool {
                    assert!(
                        gate.upgrade().is_none(),
                        "iteration {iteration}: a worker of the owned pool outlived the stream"
                    );
                }
                db = engine.into_database();
                assert_eq!(
                    db.table("PS").unwrap().tuples.as_ptr(),
                    tuples,
                    "iteration {iteration}: the database was deep-copied"
                );
            }
        }
    }
}
