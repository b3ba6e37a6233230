//! # pvc-serve
//!
//! The long-lived serving runtime over the [`pvc_db::Engine`]: what turns the
//! paper's two-step pipeline from a per-call library into a process that holds
//! sustained, multi-tenant query traffic.
//!
//! A [`Server`] owns:
//!
//! * a **persistent worker pool** ([`pvc_core::WorkerPool`], `threads: 0` =
//!   one per core — the serving default) that every execution's step-II worker
//!   loops run on, instead of spawning fresh threads per query;
//! * a **bounded submission queue with admission control**: past
//!   [`ServeConfig::queue_depth`] pending requests, [`Server::submit`] returns
//!   the typed [`ServeError::Overloaded`] instead of queueing unboundedly, and
//!   an optional per-request compile budget caps pathological queries;
//! * a **cross-query batch scheduler**: each batch is stably grouped by
//!   (tenant, [`Query::structural_key`]) so structurally-related queries run
//!   back-to-back and the interner/artifact caches stay hot;
//! * **backpressure-aware streaming**: results are handed back as a
//!   [`ResultStream`] layered on the engine's bounded [`TupleStream`] channel —
//!   a slow consumer stalls its own workers, never the server's memory;
//! * per-tenant [`SharedArtifacts`] with **generation-based compaction**
//!   ([`Engine::compact_artifacts`]) run strictly between batches, so a
//!   long-lived process's expression arena stays bounded, not just its caches;
//! * a **typed write path** ([`Server::apply_delta`]): a [`pvc_db::Delta`]
//!   is admitted only while the tenant is idle (the compaction gate) and
//!   invalidates selectively, so cached artifacts over untouched tables keep
//!   answering warm across updates;
//! * a **background snapshot thread** doing periodic, atomic
//!   (temp-file + `rename`) [`Engine::save_artifacts`] saves — with
//!   retry-and-backoff and graceful degradation to WAL-only durability when
//!   storage misbehaves — so a crashed or killed server restarts **warm**
//!   from the last complete snapshot;
//! * **crash-safe durability** (see `docs/DURABILITY.md`): every acknowledged
//!   delta is appended to a per-tenant write-ahead log *before* it is applied
//!   (fsync discipline per [`ServeConfig::durability`]), logs rotate after
//!   each successful snapshot, and [`Server::start`] sweeps stale temp files,
//!   restores the newest snapshot and replays the log past its high-water
//!   mark — so a `kill -9` at any point loses no acknowledged write.
//!
//! The request lifecycle is `submit → admit → batch → pool → stream`: a
//! submitted query is admission-checked, queued, picked up by the scheduler in
//! a locality-sorted batch, executed on the shared pool, and streamed back
//! through the [`Ticket`] the submitter holds.
//!
//! ```
//! use pvc_db::{Database, Query, Schema};
//! use pvc_serve::{ServeConfig, Server};
//!
//! let mut db = Database::new();
//! db.create_table("S", Schema::new(["sid", "shop"]));
//! let (s, vars) = db.table_and_vars_mut("S").unwrap();
//! s.push_independent(vec![1i64.into(), "M&S".into()], 0.4, vars);
//!
//! let server = Server::start(vec![("t0".into(), db)], ServeConfig::default())?;
//! let ticket = server.submit("t0", Query::table("S").project(["shop"]))?;
//! let stream = ticket.wait()?;
//! let tuples: Vec<_> = stream.collect::<Result<_, _>>().unwrap();
//! assert_eq!(tuples.len(), 1);
//! assert!((tuples[0].confidence - 0.4).abs() < 1e-12);
//! server.shutdown();
//! # Ok::<(), pvc_serve::ServeError>(())
//! ```
//!
//! [`SharedArtifacts`]: pvc_core::SharedArtifacts
//! [`Engine::compact_artifacts`]: pvc_db::Engine::compact_artifacts
//! [`Engine::save_artifacts`]: pvc_db::Engine::save_artifacts
//! [`Query::structural_key`]: pvc_db::Query::structural_key
//! [`TupleStream`]: pvc_db::TupleStream

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loadgen;

use pvc_core::persist::storage::sweep_stale_temps;
use pvc_core::{obs, CacheConfig, CompactionStats, Durability, FsStorage, Storage, WorkerPool};
use pvc_db::{
    CacheStats, Database, Delta, DeltaStats, Engine, Error as DbError, EvalOptions, ProbTuple,
    Query, RecoverOptions, RecoveryReport,
};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker-pool width shared by every execution: `0` (the serving default)
    /// resolves to one worker per available core.
    pub threads: usize,
    /// Admission-control bound: a submit finding this many requests already
    /// pending is rejected with [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Maximum requests dispatched per scheduler batch (a batch is also the
    /// compaction epoch; smaller batches compact more often).
    pub batch_max: usize,
    /// Optional per-request d-tree node budget. A query exceeding it fails with
    /// a typed compile error instead of monopolising the pool. Note the engine
    /// answers each budgeted execution through a private artifact store of its
    /// own, not the tenant's (a cached unbudgeted success must not mask the
    /// budget error), so this trades cache reuse for worst-case latency bounds.
    pub compile_budget: Option<usize>,
    /// Compact every tenant's artifact store after this many batches
    /// (`0` = never). Compaction only runs for tenants with no in-flight
    /// streams — see [`Engine::compact_artifacts`](pvc_db::Engine::compact_artifacts).
    pub compact_every: u64,
    /// Entry/byte bounds for each tenant's artifact caches (and, via the
    /// engine, its step-I rewrite cache).
    pub cache: CacheConfig,
    /// Directory for durable state: periodic artifact snapshots
    /// (`<dir>/<tenant>.snap`) **and** per-tenant delta write-ahead logs
    /// (`<dir>/<tenant>.wal`). `None` disables both. On start, tenants restore
    /// warm from an existing readable snapshot and replay logged deltas past
    /// its high-water mark; an unreadable or mismatched snapshot falls back to
    /// a cold start with full replay (never an aborted server).
    pub snapshot_dir: Option<PathBuf>,
    /// Interval between background snapshot passes (ignored without
    /// [`ServeConfig::snapshot_dir`]).
    pub snapshot_interval: Duration,
    /// Fsync discipline of the per-tenant write-ahead logs (ignored without
    /// [`ServeConfig::snapshot_dir`]). [`Durability::Always`] — the default —
    /// fsyncs before a delta is acknowledged; [`Durability::Batch`] defers the
    /// fsync to the next snapshot pass or shutdown; [`Durability::None`]
    /// leaves flushing to the OS.
    pub durability: Durability,
    /// Additional attempts per tenant when a background snapshot save fails
    /// transiently (capped exponential backoff between attempts). After the
    /// last attempt the server degrades to WAL-only durability for that pass
    /// — surfaced as `persist.degraded` in [`Server::metrics_snapshot`] — and
    /// keeps serving.
    pub snapshot_retries: u32,
    /// The storage backend every durable write goes through. The default
    /// [`FsStorage`] is the real filesystem; tests inject
    /// [`pvc_core::FaultyStorage`] to exercise crash/fault paths.
    pub storage: Arc<dyn Storage>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 0,
            queue_depth: 64,
            batch_max: 32,
            compile_budget: None,
            compact_every: 8,
            cache: CacheConfig::default(),
            snapshot_dir: None,
            snapshot_interval: Duration::from_secs(30),
            durability: Durability::Always,
            snapshot_retries: 2,
            storage: FsStorage::shared(),
        }
    }
}

impl ServeConfig {
    /// Set the worker-pool width (`0` = per core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the admission-control queue depth.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Set the per-request compile budget.
    pub fn with_compile_budget(mut self, budget: usize) -> Self {
        self.compile_budget = Some(budget);
        self
    }

    /// Compact tenant artifact stores every `batches` batches (`0` = never).
    pub fn with_compact_every(mut self, batches: u64) -> Self {
        self.compact_every = batches;
        self
    }

    /// Set the artifact-cache bounds applied to every tenant.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Enable periodic snapshots into the given directory.
    pub fn with_snapshot_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self
    }

    /// Set the background snapshot interval.
    pub fn with_snapshot_interval(mut self, interval: Duration) -> Self {
        self.snapshot_interval = interval;
        self
    }

    /// Set the write-ahead-log fsync discipline.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Set the per-tenant snapshot retry count.
    pub fn with_snapshot_retries(mut self, retries: u32) -> Self {
        self.snapshot_retries = retries;
        self
    }

    /// Set the storage backend for snapshots and write-ahead logs.
    pub fn with_storage(mut self, storage: Arc<dyn Storage>) -> Self {
        self.storage = storage;
        self
    }
}

/// Typed failures of the serving runtime.
#[derive(Debug)]
pub enum ServeError {
    /// The submission queue was at [`ServeConfig::queue_depth`]: the request
    /// was rejected, not queued. Back off and retry.
    Overloaded {
        /// Requests pending when the submit was rejected.
        queued: usize,
        /// The configured admission bound.
        limit: usize,
    },
    /// The tenant name is not one the server was started with.
    UnknownTenant(String),
    /// The server is shutting down and no longer accepts or answers requests.
    ShuttingDown,
    /// A write ([`Server::apply_delta`]) found the tenant with live result
    /// streams. Deltas only run on idle tenants (like compaction); drain or
    /// drop the streams and retry.
    TenantBusy {
        /// Result streams alive when the write was rejected.
        in_flight: usize,
    },
    /// [`Ticket::wait_timeout`] gave up before the scheduler dispatched the
    /// request. The request itself is **still queued** and will execute; only
    /// this waiter stopped listening (its result stream is dropped on arrival,
    /// cancelling the work).
    Timeout {
        /// How long the waiter was prepared to wait.
        waited: Duration,
    },
    /// The underlying engine failed (validation, compile budget, worker error…).
    Engine(DbError),
    /// The runtime itself failed to start (e.g. thread spawning).
    Runtime(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { queued, limit } => write!(
                f,
                "submission rejected: {queued} requests pending (admission limit {limit})"
            ),
            ServeError::UnknownTenant(name) => write!(f, "unknown tenant {name:?}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::TenantBusy { in_flight } => write!(
                f,
                "write rejected: tenant has {in_flight} live result streams (drain and retry)"
            ),
            ServeError::Timeout { waited } => {
                write!(f, "request not dispatched within {waited:?}")
            }
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::Runtime(msg) => write!(f, "serving runtime error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DbError> for ServeError {
    fn from(e: DbError) -> Self {
        ServeError::Engine(e)
    }
}

/// Process-wide serving metrics handles (see `docs/OBSERVABILITY.md` for the
/// catalog). Registered once; every handle is a near-no-op while metrics are
/// disabled.
struct ServeMetrics {
    /// `serve.admission.rejected` — submissions rejected with
    /// [`ServeError::Overloaded`], across all tenants.
    admission_rejected: obs::Counter,
    /// `serve.queue.depth` — submission-queue depth observed at each admit
    /// (its high-water mark is the deepest the queue ever got).
    queue_depth: obs::Gauge,
    /// `serve.batch.size` — scheduler batch sizes.
    batch_size: obs::Histogram,
    /// `persist.snapshot_failures` — failed snapshot save attempts (each retry
    /// that fails counts), across all tenants.
    snapshot_failures: obs::Counter,
    /// `persist.degraded` — 1 while the server is degraded to WAL-only
    /// durability (the last snapshot pass left at least one tenant without a
    /// fresh snapshot), 0 once a pass fully succeeds again.
    degraded: obs::Gauge,
}

fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = obs::global();
        ServeMetrics {
            admission_rejected: registry.counter("serve.admission.rejected"),
            queue_depth: registry.gauge("serve.queue.depth"),
            batch_size: registry.histogram("serve.batch.size"),
            snapshot_failures: registry.counter("persist.snapshot_failures"),
            degraded: registry.gauge("persist.degraded"),
        }
    })
}

/// Minimal JSON string escaping for tenant names in [`Server::metrics_snapshot`].
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One queued request: where it goes, what it runs, and the channel its
/// [`ResultStream`] travels back on.
struct Request {
    tenant: String,
    query: Query,
    reply: SyncSender<Result<ResultStream, ServeError>>,
}

impl fmt::Debug for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Request")
            .field("tenant", &self.tenant)
            .finish_non_exhaustive()
    }
}

/// The submission queue guarded by [`ServerShared::queue`].
#[derive(Debug, Default)]
struct SubmitQueue {
    pending: VecDeque<Request>,
    shutdown: bool,
}

/// Admission decision for one request: queue it or reject it. Factored out of
/// [`Server::submit`] so the policy is unit-testable without thread timing.
fn admit(queue: &mut SubmitQueue, limit: usize, request: Request) -> Result<(), ServeError> {
    if queue.shutdown {
        return Err(ServeError::ShuttingDown);
    }
    let queued = queue.pending.len();
    if queued >= limit {
        return Err(ServeError::Overloaded { queued, limit });
    }
    queue.pending.push_back(request);
    Ok(())
}

/// Per-tenant serving state.
#[derive(Debug)]
struct Tenant {
    /// The tenant's engine. The scheduler locks it per dispatch;
    /// [`Server::apply_delta`] locks it for the whole write, and its idle
    /// check runs under this lock so it can never race a dispatch.
    engine: Mutex<Engine>,
    /// Live [`ResultStream`]s of this tenant. Compaction remaps interned ids,
    /// so it only runs when this is zero (each stream's drop has already
    /// quiesced its pool jobs by the time it decrements).
    in_flight: Arc<AtomicUsize>,
    /// Batches dispatched since this tenant's store was last compacted; a
    /// compaction becomes *due* at [`ServeConfig::compact_every`] and runs at
    /// the next between-batch point that finds the tenant idle.
    batches_since_compaction: AtomicU64,
    /// The most recent compaction's before/after sizes.
    last_compaction: Mutex<Option<CompactionStats>>,
    /// Submissions for this tenant rejected with [`ServeError::Overloaded`].
    /// Always-on (one relaxed add per rejection) so [`Server::metrics_snapshot`]
    /// reports tenants even when the global registry is disabled.
    rejected: AtomicU64,
    /// High-water mark of this tenant's pending requests in the submission
    /// queue, observed at each successful admit.
    queue_hwm: AtomicUsize,
    /// Registry mirror of `rejected` (`serve.tenant.<name>.rejected`).
    rejected_metric: obs::Counter,
    /// Registry mirror of `queue_hwm` (`serve.tenant.<name>.queue_hwm`).
    queue_hwm_metric: obs::Gauge,
    /// What crash recovery found for this tenant at start (all-default when
    /// durability is disabled). Immutable after construction.
    recovery: RecoveryReport,
}

#[derive(Debug, Default)]
struct ServerCounters {
    submitted: AtomicU64,
    served: AtomicU64,
    rejected: AtomicU64,
    engine_errors: AtomicU64,
    batches: AtomicU64,
    compactions: AtomicU64,
    deltas: AtomicU64,
    snapshots: AtomicU64,
    snapshot_failures: AtomicU64,
    /// 1 while the last snapshot pass left a tenant unsaved (WAL-only
    /// durability), 0 otherwise. Gauge semantics in an atomic.
    degraded: AtomicU64,
    swept_temps: AtomicU64,
    wal_replayed: AtomicU64,
}

/// State shared by the public handle, the scheduler and the snapshot thread.
#[derive(Debug)]
struct ServerShared {
    tenants: BTreeMap<String, Tenant>,
    queue: Mutex<SubmitQueue>,
    work_ready: Condvar,
    pool: Arc<WorkerPool>,
    config: ServeConfig,
    counters: ServerCounters,
    /// Snapshot-thread control: `true` = stop; the condvar interrupts the
    /// interval sleep so shutdown is prompt.
    snapshot_stop: Mutex<bool>,
    snapshot_wake: Condvar,
}

/// Counters and sizes of a running [`Server`] (see [`Server::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests accepted by admission control.
    pub submitted: u64,
    /// Requests whose [`ResultStream`] was handed to the submitter.
    pub served: u64,
    /// Requests rejected with [`ServeError::Overloaded`].
    pub rejected: u64,
    /// Requests that failed in the engine (validation, budget, …).
    pub engine_errors: u64,
    /// Scheduler batches dispatched.
    pub batches: u64,
    /// Tenant artifact-store compactions performed.
    pub compactions: u64,
    /// Deltas applied through [`Server::apply_delta`].
    pub deltas: u64,
    /// Tenant snapshots written (background + explicit).
    pub snapshots: u64,
    /// Snapshot attempts that failed (the previous snapshot stays intact).
    pub snapshot_failures: u64,
    /// Whether the server is currently degraded to WAL-only durability (the
    /// last snapshot pass could not save every tenant even with retries).
    pub degraded: bool,
    /// Stale temp files (`*.tmp.<pid>`) swept from the snapshot directory at
    /// start — litter from a previous process killed mid-publish.
    pub swept_temps: u64,
    /// Write-ahead-log records replayed across all tenants at start.
    pub wal_replayed: u64,
    /// Requests currently pending in the submission queue.
    pub queued: usize,
    /// Width of the persistent worker pool.
    pub pool_threads: usize,
    /// Jobs the pool has executed since start.
    pub pool_executed_jobs: u64,
}

/// The long-lived serving runtime. See the crate docs for the architecture.
#[derive(Debug)]
pub struct Server {
    shared: Arc<ServerShared>,
    scheduler: Option<JoinHandle<()>>,
    snapshotter: Option<JoinHandle<()>>,
}

/// The submitter's half of one request: blocks until the scheduler has
/// dispatched it (or failed it).
#[derive(Debug)]
pub struct Ticket {
    receiver: Receiver<Result<ResultStream, ServeError>>,
}

impl Ticket {
    /// Wait for the request to be dispatched, returning its result stream.
    pub fn wait(self) -> Result<ResultStream, ServeError> {
        self.receiver
            .recv()
            .unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Wait at most `timeout` for the request to be dispatched. On expiry the
    /// ticket is consumed and [`ServeError::Timeout`] is returned; the request
    /// stays queued, but its result stream is dropped on arrival (cancelling
    /// the work) since nobody holds the receiver anymore.
    pub fn wait_timeout(self, timeout: Duration) -> Result<ResultStream, ServeError> {
        use std::sync::mpsc::RecvTimeoutError;
        match self.receiver.recv_timeout(timeout) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => Err(ServeError::Timeout { waited: timeout }),
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::ShuttingDown),
        }
    }
}

/// Decrements the owning tenant's in-flight count when the stream goes away.
#[derive(Debug)]
struct InFlightGuard(Arc<AtomicUsize>);

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A served query result: the engine's deterministic-order tuple stream plus
/// the server-side lifecycle accounting.
///
/// Backpressure is inherited from [`pvc_db::TupleStream`]'s bounded channel:
/// workers compute at most a small window ahead of this iterator, so a slow
/// consumer stalls its own pool jobs rather than buffering the result in the
/// server. Dropping the stream cancels the remaining work.
#[derive(Debug)]
pub struct ResultStream {
    // Field order matters: the inner stream must drop (cancelling and
    // quiescing its pool jobs) *before* the guard decrements the in-flight
    // count that gates compaction.
    inner: pvc_db::TupleStream,
    _in_flight: InFlightGuard,
}

impl ResultStream {
    /// Column names of the result.
    pub fn columns(&self) -> &[String] {
        self.inner.columns()
    }

    /// Total number of tuples this stream will yield.
    pub fn total_tuples(&self) -> usize {
        self.inner.total_tuples()
    }
}

impl Iterator for ResultStream {
    type Item = Result<ProbTuple, DbError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl Server {
    /// Start a server over the given tenants (name → database).
    ///
    /// When [`ServeConfig::snapshot_dir`] is set, start first sweeps stale
    /// temp files a killed predecessor left behind, then recovers each tenant:
    /// restore **warm** from `<dir>/<tenant>.snap` when it exists and
    /// verifies, replay the write-ahead log `<dir>/<tenant>.wal` past the
    /// snapshot's high-water mark, and keep the log attached for future
    /// writes. A missing, truncated or mismatched snapshot falls back to a
    /// cold start with full replay (the server still starts); only a WAL whose
    /// acknowledged records cannot be re-applied fails the start — serving a
    /// silently stale database would be data loss. The worker pool, scheduler
    /// thread and — with a snapshot dir — the background snapshot thread are
    /// all running when this returns.
    pub fn start(
        tenants: Vec<(String, Database)>,
        config: ServeConfig,
    ) -> Result<Server, ServeError> {
        let pool = Arc::new(
            WorkerPool::new(config.threads)
                .map_err(|e| ServeError::Runtime(format!("failed to start worker pool: {e}")))?,
        );
        let mut swept_temps = 0u64;
        if let Some(dir) = config.snapshot_dir.as_ref() {
            let _ = std::fs::create_dir_all(dir);
            // Litter from a process killed between staging and rename; the
            // rename either happened (the snapshot is whole) or did not (the
            // old snapshot is whole), so temps are always safe to delete.
            swept_temps = sweep_stale_temps(config.storage.as_ref(), dir).unwrap_or(0) as u64;
        }
        let mut wal_replayed = 0u64;
        let mut tenant_map = BTreeMap::new();
        for (name, db) in tenants {
            let (engine, recovery) = match wal_path(&config, &name) {
                Some(wal) => {
                    let mut options = RecoverOptions::new(wal)
                        .with_durability(config.durability)
                        .with_cache(config.cache)
                        .with_tenant(name.clone());
                    if let Some(snap) = snapshot_path(&config, &name) {
                        options = options.with_snapshot(snap);
                    }
                    Engine::recover_with(Arc::clone(&config.storage), db, &options)
                        .map_err(ServeError::Engine)?
                }
                None => (
                    Engine::with_cache_config(db, config.cache),
                    RecoveryReport::default(),
                ),
            };
            wal_replayed += recovery.wal_replayed as u64;
            let rejected_metric = obs::global().counter(&format!("serve.tenant.{name}.rejected"));
            let queue_hwm_metric = obs::global().gauge(&format!("serve.tenant.{name}.queue_hwm"));
            tenant_map.insert(
                name,
                Tenant {
                    engine: Mutex::new(engine),
                    in_flight: Arc::new(AtomicUsize::new(0)),
                    batches_since_compaction: AtomicU64::new(0),
                    last_compaction: Mutex::new(None),
                    rejected: AtomicU64::new(0),
                    queue_hwm: AtomicUsize::new(0),
                    rejected_metric,
                    queue_hwm_metric,
                    recovery,
                },
            );
        }
        let counters = ServerCounters::default();
        counters.swept_temps.store(swept_temps, Ordering::Relaxed);
        counters.wal_replayed.store(wal_replayed, Ordering::Relaxed);
        let shared = Arc::new(ServerShared {
            tenants: tenant_map,
            queue: Mutex::new(SubmitQueue::default()),
            work_ready: Condvar::new(),
            pool,
            config,
            counters,
            snapshot_stop: Mutex::new(false),
            snapshot_wake: Condvar::new(),
        });
        let scheduler_shared = Arc::clone(&shared);
        let scheduler = std::thread::Builder::new()
            .name("pvc-serve-scheduler".to_string())
            .spawn(move || scheduler_loop(&scheduler_shared))
            .map_err(|e| ServeError::Runtime(format!("failed to spawn scheduler: {e}")))?;
        let snapshotter = if shared.config.snapshot_dir.is_some() {
            let snapshot_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name("pvc-serve-snapshot".to_string())
                .spawn(move || snapshot_loop(&snapshot_shared));
            match spawned {
                Ok(handle) => Some(handle),
                Err(e) => {
                    // The scheduler is already running; stop and join it
                    // before reporting, so a failed start leaks nothing.
                    shutdown_threads(&shared);
                    let _ = scheduler.join();
                    return Err(ServeError::Runtime(format!(
                        "failed to spawn snapshot thread: {e}"
                    )));
                }
            }
        } else {
            None
        };
        Ok(Server {
            shared,
            scheduler: Some(scheduler),
            snapshotter,
        })
    }

    /// Submit a query for a tenant. Admission control runs here: an unknown
    /// tenant or a full queue returns the typed error immediately; an accepted
    /// request returns a [`Ticket`] to wait on.
    pub fn submit(&self, tenant: &str, query: Query) -> Result<Ticket, ServeError> {
        let Some(tenant_state) = self.shared.tenants.get(tenant) else {
            return Err(ServeError::UnknownTenant(tenant.to_string()));
        };
        // One slot: the scheduler's reply send never blocks.
        let (reply, receiver) = std::sync::mpsc::sync_channel(1);
        let request = Request {
            tenant: tenant.to_string(),
            query,
            reply,
        };
        {
            let mut queue = self.shared.queue.lock().expect("submit queue poisoned");
            if let Err(e) = admit(&mut queue, self.shared.config.queue_depth, request) {
                if matches!(e, ServeError::Overloaded { .. }) {
                    self.shared
                        .counters
                        .rejected
                        .fetch_add(1, Ordering::Relaxed);
                    tenant_state.rejected.fetch_add(1, Ordering::Relaxed);
                    tenant_state.rejected_metric.inc();
                    serve_metrics().admission_rejected.inc();
                }
                return Err(e);
            }
            // Still under the queue lock: observe the depth this admit produced
            // (queues are bounded by `queue_depth`, so the scan is cheap).
            let depth = queue.pending.len();
            serve_metrics().queue_depth.set(depth as u64);
            let tenant_pending = queue.pending.iter().filter(|r| r.tenant == tenant).count();
            tenant_state
                .queue_hwm
                .fetch_max(tenant_pending, Ordering::Relaxed);
            tenant_state.queue_hwm_metric.set(tenant_pending as u64);
        }
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared.work_ready.notify_one();
        Ok(Ticket { receiver })
    }

    /// Current serving counters and sizes.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        ServerStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            served: c.served.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            engine_errors: c.engine_errors.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            compactions: c.compactions.load(Ordering::Relaxed),
            deltas: c.deltas.load(Ordering::Relaxed),
            snapshots: c.snapshots.load(Ordering::Relaxed),
            snapshot_failures: c.snapshot_failures.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed) != 0,
            swept_temps: c.swept_temps.load(Ordering::Relaxed),
            wal_replayed: c.wal_replayed.load(Ordering::Relaxed),
            queued: self
                .shared
                .queue
                .lock()
                .expect("submit queue poisoned")
                .pending
                .len(),
            pool_threads: self.shared.pool.threads(),
            pool_executed_jobs: self.shared.pool.executed_jobs(),
        }
    }

    /// A tenant-tagged JSON snapshot of the process-wide observability state:
    /// every registered metric (cache, kernel, arena, pool, persist, serve and
    /// span counters — see `docs/OBSERVABILITY.md`) plus per-tenant admission
    /// accounting. The per-tenant section is always populated, even while the
    /// metrics registry is disabled. The JSON uses the bench dialect (objects,
    /// strings, integers) and parses with `pvc_bench::json`.
    ///
    /// Shape:
    ///
    /// ```json
    /// {"metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
    ///  "tenants": {"t0": {"queue_hwm": 3, "rejected": 1, "in_flight": 0}}}
    /// ```
    pub fn metrics_snapshot(&self) -> String {
        let mut out = String::from("{\"metrics\": ");
        out.push_str(&obs::metrics_json());
        out.push_str(", \"tenants\": {");
        for (i, (name, tenant)) in self.shared.tenants.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"queue_hwm\": {}, \"rejected\": {}, \"in_flight\": {}}}",
                json_escape(name),
                tenant.queue_hwm.load(Ordering::Relaxed),
                tenant.rejected.load(Ordering::Relaxed),
                tenant.in_flight.load(Ordering::SeqCst),
            ));
        }
        out.push_str("}}");
        out
    }

    /// Apply a typed [`Delta`] to one tenant's database between batches.
    ///
    /// The write runs under the tenant's engine lock and only when the tenant
    /// is **idle** (`in_flight == 0`, the same gate as compaction): a tenant
    /// with live [`ResultStream`]s returns [`ServeError::TenantBusy`] without
    /// touching anything — drain or drop the streams and retry. Queued but
    /// not-yet-dispatched requests are fine; they simply execute against the
    /// post-delta database. Cached artifacts whose variables are disjoint
    /// from the delta survive, so the next queries over untouched tables stay
    /// warm (see [`Engine::apply_delta`]).
    ///
    /// With a [`ServeConfig::snapshot_dir`], the delta is appended to the
    /// tenant's write-ahead log **before** it is applied: under
    /// [`Durability::Always`] an `Ok` here means the write is on stable
    /// storage and survives any crash; under [`Durability::Batch`] it is
    /// logged but only fsynced at the next snapshot pass or shutdown. An
    /// append failure refuses the delta atomically ([`ServeError::Engine`]
    /// wrapping [`pvc_db::Error::Wal`]) without touching the database.
    pub fn apply_delta(&self, tenant: &str, delta: Delta) -> Result<DeltaStats, ServeError> {
        let tenant_state = self
            .shared
            .tenants
            .get(tenant)
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))?;
        let mut engine = tenant_state.engine.lock().expect("tenant engine poisoned");
        // Sound for the same reason as compaction: dispatch increments
        // in-flight while holding the engine lock, so under this lock zero
        // means no stream's workers can be touching the artifact store.
        let in_flight = tenant_state.in_flight.load(Ordering::SeqCst);
        if in_flight > 0 {
            return Err(ServeError::TenantBusy { in_flight });
        }
        let stats = engine.apply_delta(delta)?;
        self.shared.counters.deltas.fetch_add(1, Ordering::Relaxed);
        Ok(stats)
    }

    /// Cache statistics of one tenant's engine.
    pub fn cache_stats(&self, tenant: &str) -> Result<CacheStats, ServeError> {
        self.shared
            .tenants
            .get(tenant)
            .map(|t| {
                t.engine
                    .lock()
                    .expect("tenant engine poisoned")
                    .cache_stats()
            })
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))
    }

    /// What crash recovery found for one tenant at start: whether the
    /// snapshot restored, how many logged deltas replayed, and how many torn
    /// bytes the write-ahead-log open truncated. All-default when the server
    /// runs without a [`ServeConfig::snapshot_dir`].
    pub fn recovery_report(&self, tenant: &str) -> Result<RecoveryReport, ServeError> {
        self.shared
            .tenants
            .get(tenant)
            .map(|t| t.recovery.clone())
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))
    }

    /// The most recent compaction of one tenant's artifact store, if any.
    pub fn last_compaction(&self, tenant: &str) -> Result<Option<CompactionStats>, ServeError> {
        self.shared
            .tenants
            .get(tenant)
            .map(|t| *t.last_compaction.lock().expect("compaction stats poisoned"))
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))
    }

    /// Snapshot every tenant now (atomic per tenant), returning how many were
    /// written. Requires [`ServeConfig::snapshot_dir`].
    pub fn snapshot_now(&self) -> Result<usize, ServeError> {
        if self.shared.config.snapshot_dir.is_none() {
            return Err(ServeError::Runtime(
                "snapshotting is disabled (no snapshot_dir configured)".to_string(),
            ));
        }
        Ok(snapshot_all(&self.shared))
    }

    /// Shut down: stop accepting requests, let the scheduler drain what was
    /// already admitted, stop the snapshot thread (after one final save), join
    /// both, and release the worker pool. Returns the final counters.
    ///
    /// Releasing the pool waits for the jobs of still-live [`ResultStream`]s;
    /// drain or drop outstanding streams before calling this, or shutdown
    /// blocks until their consumers do.
    pub fn shutdown(mut self) -> ServerStats {
        shutdown_threads(&self.shared);
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.snapshotter.take() {
            let _ = handle.join();
        }
        if self.shared.config.snapshot_dir.is_some() {
            // One final save so a clean shutdown restarts maximally warm.
            snapshot_all(&self.shared);
        }
        self.stats()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        shutdown_threads(&self.shared);
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.snapshotter.take() {
            let _ = handle.join();
        }
    }
}

/// The per-tenant snapshot file, when snapshotting is configured.
fn snapshot_path(config: &ServeConfig, tenant: &str) -> Option<PathBuf> {
    config
        .snapshot_dir
        .as_ref()
        .map(|dir| dir.join(format!("{tenant}.snap")))
}

/// The per-tenant write-ahead log, when durability is configured.
fn wal_path(config: &ServeConfig, tenant: &str) -> Option<PathBuf> {
    config
        .snapshot_dir
        .as_ref()
        .map(|dir| dir.join(format!("{tenant}.wal")))
}

/// Flag both background threads to stop and wake them.
fn shutdown_threads(shared: &ServerShared) {
    {
        let mut queue = shared.queue.lock().expect("submit queue poisoned");
        queue.shutdown = true;
    }
    shared.work_ready.notify_all();
    {
        let mut stop = shared
            .snapshot_stop
            .lock()
            .expect("snapshot control poisoned");
        *stop = true;
    }
    shared.snapshot_wake.notify_all();
}

/// The scheduler: drain batches off the submission queue, sort each for cache
/// locality, dispatch every request onto the pool, compact between batches.
/// Exits once the queue is empty *and* shutdown was requested (admitted
/// requests are always served).
fn scheduler_loop(shared: &ServerShared) {
    loop {
        let mut batch: Vec<Request> = {
            let mut queue = shared.queue.lock().expect("submit queue poisoned");
            loop {
                if !queue.pending.is_empty() {
                    let take = queue.pending.len().min(shared.config.batch_max);
                    break queue.pending.drain(..take).collect();
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .expect("submit queue poisoned");
            }
        };
        // Between batches and *before* dispatching the next one is the point
        // most likely to find tenants idle (clients have drained the previous
        // wave): run every compaction that has come due.
        compact_due_tenants(shared);
        // Cross-query batch scheduling: a stable sort groups requests by
        // tenant and structural key, so repeated/structurally-equal queries
        // run back-to-back and hit the interner & artifact caches while hot.
        // Within one group the original submission order is preserved.
        serve_metrics().batch_size.record(batch.len() as u64);
        batch.sort_by_cached_key(|r| (r.tenant.clone(), r.query.structural_key()));
        for request in batch {
            dispatch(shared, request);
        }
        shared.counters.batches.fetch_add(1, Ordering::Relaxed);
        for tenant in shared.tenants.values() {
            tenant
                .batches_since_compaction
                .fetch_add(1, Ordering::Relaxed);
        }
        // A second chance right after the batch: catches tenants whose
        // streams were already dropped (e.g. abandoned tickets).
        compact_due_tenants(shared);
    }
}

/// Execute one request on its tenant's engine and hand the stream back.
fn dispatch(shared: &ServerShared, request: Request) {
    let tenant = shared
        .tenants
        .get(&request.tenant)
        .expect("tenant validated at submit");
    let mut options = EvalOptions::default()
        .with_threads(shared.config.threads)
        .with_pool(Arc::clone(&shared.pool));
    if let Some(budget) = shared.config.compile_budget {
        options = options.with_node_budget(budget);
    }
    let engine = tenant.engine.lock().expect("tenant engine poisoned");
    let outcome = engine
        .prepare(&request.query)
        .and_then(|prepared| prepared.execute_streaming(&options));
    match outcome {
        Ok(stream) => {
            // Increment in-flight *before* releasing the engine lock:
            // `Server::apply_delta` checks idleness under the same lock, so a
            // just-dispatched stream can never be missed by its gate.
            tenant.in_flight.fetch_add(1, Ordering::SeqCst);
            drop(engine);
            let stream = ResultStream {
                inner: stream,
                _in_flight: InFlightGuard(Arc::clone(&tenant.in_flight)),
            };
            shared.counters.served.fetch_add(1, Ordering::Relaxed);
            // A send error means the submitter dropped the ticket: dropping
            // the stream here cancels its pool jobs and releases the guard.
            let _ = request.reply.send(Ok(stream));
        }
        Err(e) => {
            shared
                .counters
                .engine_errors
                .fetch_add(1, Ordering::Relaxed);
            let _ = request.reply.send(Err(ServeError::Engine(e)));
        }
    }
}

/// Compact every tenant whose compaction is due **and** whose streams have all
/// quiesced. Busy tenants are skipped (not blocked on): their compaction stays
/// due and runs at the next between-batch point that finds them idle. Sound
/// because only this scheduler thread dispatches — `in_flight == 0` here means
/// no evaluation can touch the store until the next `dispatch`.
fn compact_due_tenants(shared: &ServerShared) {
    let every = shared.config.compact_every;
    if every == 0 {
        return;
    }
    for tenant in shared.tenants.values() {
        if tenant.batches_since_compaction.load(Ordering::Relaxed) >= every
            && tenant.in_flight.load(Ordering::SeqCst) == 0
        {
            let stats = tenant
                .engine
                .lock()
                .expect("tenant engine poisoned")
                .compact_artifacts();
            *tenant
                .last_compaction
                .lock()
                .expect("compaction stats poisoned") = Some(stats);
            tenant.batches_since_compaction.store(0, Ordering::Relaxed);
            shared.counters.compactions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Base backoff between snapshot retry attempts (doubled per retry, capped).
const SNAPSHOT_BACKOFF_BASE: Duration = Duration::from_millis(25);
const SNAPSHOT_BACKOFF_CAP: Duration = Duration::from_millis(500);

/// Save one tenant's snapshot with retry-and-backoff, rotating its
/// write-ahead log past the snapshotted high-water mark on success. Every
/// failed attempt counts in `snapshot_failures`; the engine lock is released
/// between attempts so serving continues while this backs off.
fn snapshot_tenant(shared: &ServerShared, tenant: &Tenant, path: &std::path::Path) -> bool {
    let mut backoff = SNAPSHOT_BACKOFF_BASE;
    for attempt in 0..=shared.config.snapshot_retries {
        let saved = {
            let mut engine = tenant.engine.lock().expect("tenant engine poisoned");
            // Flush pending Batch-durability appends first: the snapshot's
            // high-water mark must never be ahead of the durable log.
            engine
                .sync_wal()
                .and_then(|_| {
                    engine.save_artifacts_with(shared.config.storage.as_ref(), path)?;
                    Ok(engine.wal_high_water())
                })
                .map(|hwm| {
                    // The snapshot at `path` now durably covers every record
                    // up to `hwm`: drop them from the log. A rotation failure
                    // (or a crash mid-rotation) only leaves the log longer
                    // than needed — replay filters on the high-water mark, so
                    // it stays idempotent.
                    if let Some(wal) = engine.wal_mut() {
                        let _ = wal.rotate(hwm);
                    }
                })
        };
        match saved {
            Ok(()) => return true,
            Err(_) => {
                shared
                    .counters
                    .snapshot_failures
                    .fetch_add(1, Ordering::Relaxed);
                serve_metrics().snapshot_failures.inc();
                if attempt < shared.config.snapshot_retries {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(SNAPSHOT_BACKOFF_CAP);
                }
            }
        }
    }
    false
}

/// Write one snapshot per tenant (each atomic: temp file + rename, with
/// retries — see [`snapshot_tenant`]), returning how many succeeded. A tenant
/// whose save keeps failing leaves its previous snapshot intact and degrades
/// to WAL-only durability until the next pass: the server keeps serving, with
/// `persist.degraded` set to 1 so operators can see the state.
fn snapshot_all(shared: &ServerShared) -> usize {
    let mut written = 0usize;
    let mut failed = 0usize;
    for (name, tenant) in &shared.tenants {
        let Some(path) = snapshot_path(&shared.config, name) else {
            continue;
        };
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if snapshot_tenant(shared, tenant, &path) {
            written += 1;
            shared.counters.snapshots.fetch_add(1, Ordering::Relaxed);
        } else {
            failed += 1;
        }
    }
    let degraded = failed > 0;
    shared
        .counters
        .degraded
        .store(degraded as u64, Ordering::Relaxed);
    serve_metrics().degraded.set(degraded as u64);
    written
}

/// The background snapshot thread: save every tenant each interval, promptly
/// interruptible by shutdown.
fn snapshot_loop(shared: &ServerShared) {
    let mut stop = shared
        .snapshot_stop
        .lock()
        .expect("snapshot control poisoned");
    loop {
        if *stop {
            return;
        }
        let (guard, _) = shared
            .snapshot_wake
            .wait_timeout(stop, shared.config.snapshot_interval)
            .expect("snapshot control poisoned");
        stop = guard;
        if *stop {
            // The final save belongs to `shutdown` (after the scheduler has
            // drained), not to this thread racing it.
            return;
        }
        drop(stop);
        snapshot_all(shared);
        stop = shared
            .snapshot_stop
            .lock()
            .expect("snapshot control poisoned");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_request() -> Request {
        let (reply, _receiver) = std::sync::mpsc::sync_channel(1);
        Request {
            tenant: "t".to_string(),
            query: Query::table("S"),
            reply,
        }
    }

    #[test]
    fn admission_policy_is_deterministic() {
        let mut queue = SubmitQueue::default();
        // Exactly `limit` requests are admitted; the next is rejected with the
        // observed depth, deterministically.
        for i in 0..3 {
            assert!(admit(&mut queue, 3, dummy_request()).is_ok(), "request {i}");
        }
        match admit(&mut queue, 3, dummy_request()) {
            Err(ServeError::Overloaded { queued, limit }) => {
                assert_eq!((queued, limit), (3, 3));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Draining one slot re-admits exactly one request.
        queue.pending.pop_front();
        assert!(admit(&mut queue, 3, dummy_request()).is_ok());
        assert!(matches!(
            admit(&mut queue, 3, dummy_request()),
            Err(ServeError::Overloaded { .. })
        ));
        // Shutdown beats fullness.
        queue.shutdown = true;
        assert!(matches!(
            admit(&mut queue, 3, dummy_request()),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn ticket_wait_timeout_returns_typed_errors() {
        // Nobody ever replies: the wait must come back as a typed Timeout
        // carrying the bound it honoured, not block or panic.
        let (reply, receiver) = std::sync::mpsc::sync_channel(1);
        let ticket = Ticket { receiver };
        let bound = Duration::from_millis(10);
        match ticket.wait_timeout(bound) {
            Err(ServeError::Timeout { waited }) => assert_eq!(waited, bound),
            other => panic!("expected Timeout, got {other:?}"),
        }
        drop(reply);

        // A dropped reply half (server tore down the queue) is ShuttingDown,
        // distinguishable from expiry.
        let (reply, receiver) =
            std::sync::mpsc::sync_channel::<Result<ResultStream, ServeError>>(1);
        drop(reply);
        let ticket = Ticket { receiver };
        assert!(matches!(
            ticket.wait_timeout(Duration::from_secs(1)),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn depth_zero_rejects_everything() {
        let mut queue = SubmitQueue::default();
        match admit(&mut queue, 0, dummy_request()) {
            Err(ServeError::Overloaded { queued, limit }) => {
                assert_eq!((queued, limit), (0, 0));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }
}
