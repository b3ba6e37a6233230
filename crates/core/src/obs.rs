//! # Observability: metrics registry, span tracing and execution profiles
//!
//! A zero-dependency observability subsystem shared by every layer of the
//! engine (re-exported as `pvc_suite::obs`). Three coordinated pieces:
//!
//! 1. **[`MetricsRegistry`]** — a process-wide registry of named [`Counter`]s,
//!    [`Gauge`]s and log-bucketed [`Histogram`]s. Registration (name → handle)
//!    takes a lock; the handles themselves touch only atomics, and every
//!    `inc`/`record` call first checks a shared *enabled* flag with one relaxed
//!    load, so a disabled registry costs nothing measurable on the hot path.
//!    Counters are sharded across cache-line-padded cells to avoid write
//!    contention from the worker pool.
//! 2. **[`Trace`] / [`SpanGuard`]** — lightweight span tracing with monotonic
//!    clocks, RAII finish, and a bounded ring buffer of finished spans that
//!    drops the oldest entries instead of growing. A trace is installed
//!    per-thread with [`with_trace`]; instrumented code opens spans with
//!    [`span`], which is a near-no-op when no trace is installed and global
//!    tracing is off.
//! 3. **[`ExecutionProfile`]** — a per-query span tree assembled by the engine
//!    when `EvalOptions::profile` is set, with a human-readable
//!    [`render`](ExecutionProfile::render) and a duration-free
//!    [`shape`](ExecutionProfile::shape) that is deterministic (so tests can
//!    pin it across runs and thread counts).
//!
//! ## Modes
//!
//! * **Disabled** (default): every instrumentation site reduces to a relaxed
//!   atomic or thread-local flag check. Results are bit-identical to an
//!   uninstrumented build, and this is the mode every bounded metric of
//!   `BENCHMARK.json` is measured in.
//! * **Metrics only** ([`set_metrics_enabled`]): counters/gauges/histograms
//!   accumulate; no spans are recorded.
//! * **Full tracing** ([`set_tracing_enabled`], implies metrics for the span
//!   counters to land anywhere): every [`span`] site additionally increments a
//!   `span.<name>` counter, so long-running servers expose lifecycle activity
//!   without allocating traces.
//!
//! `pvc_prob` sits below this crate and keeps its own kernel-dispatch atomics
//! (`pvc_prob::stats`); [`snapshot`] bridges them into the `kernel.*` metric
//! names so one JSON document covers every layer. See `docs/OBSERVABILITY.md`
//! for the full metric-name catalog and the span hierarchy.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// Shards per counter; writers pick a cache-line-padded cell by a sticky
/// per-thread id, so pool workers do not contend on one atomic.
const COUNTER_SHARDS: usize = 8;

/// Histogram buckets: bucket 0 holds the value 0, bucket `b > 0` holds values
/// in `[2^(b-1), 2^b − 1]`, and the last bucket absorbs everything larger.
const HIST_BUCKETS: usize = 65;

#[repr(align(64))]
#[derive(Debug)]
struct PaddedCell(AtomicU64);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn shard_id() -> usize {
    SHARD.with(|s| {
        let mut id = s.get();
        if id == usize::MAX {
            id = NEXT_SHARD.fetch_add(1, Ordering::Relaxed);
            s.set(id);
        }
        id % COUNTER_SHARDS
    })
}

#[derive(Debug)]
struct CounterCore {
    enabled: Arc<AtomicBool>,
    shards: [PaddedCell; COUNTER_SHARDS],
}

/// A monotonically increasing, sharded atomic counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<CounterCore>);

impl Counter {
    /// Add 1 (no-op while the owning registry is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` (no-op while the owning registry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if self.0.enabled.load(Ordering::Relaxed) {
            self.0.shards[shard_id()].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current total across all shards.
    pub fn value(&self) -> u64 {
        self.0
            .shards
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether recording is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        for cell in &self.0.shards {
            cell.0.store(0, Ordering::Relaxed);
        }
    }
}

#[derive(Debug)]
struct GaugeCore {
    enabled: Arc<AtomicBool>,
    value: AtomicU64,
    hwm: AtomicU64,
}

/// A last-value gauge that also tracks its high-water mark.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<GaugeCore>);

impl Gauge {
    /// Set the current value and raise the high-water mark if exceeded.
    #[inline]
    pub fn set(&self, v: u64) {
        if self.0.enabled.load(Ordering::Relaxed) {
            self.0.value.store(v, Ordering::Relaxed);
            self.0.hwm.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Last value set.
    pub fn value(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// Highest value ever set.
    pub fn hwm(&self) -> u64 {
        self.0.hwm.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.value.store(0, Ordering::Relaxed);
        self.0.hwm.store(0, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct HistogramCore {
    enabled: Arc<AtomicBool>,
    buckets: Vec<AtomicU64>, // HIST_BUCKETS cells
    count: AtomicU64,
    sum: AtomicU64,
}

/// A lock-free histogram with power-of-two (log2) buckets.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

fn hist_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of a log2 bucket index.
fn bucket_upper_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// Record one sample (no-op while the owning registry is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if self.0.enabled.load(Ordering::Relaxed) {
            self.0.buckets[hist_bucket(v)].fetch_add(1, Ordering::Relaxed);
            self.0.count.fetch_add(1, Ordering::Relaxed);
            self.0.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Whether recording is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        for b in &self.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.0.count.store(0, Ordering::Relaxed);
        self.0.sum.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_upper_bound(i), n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics sharing one enabled flag.
///
/// Registration takes a lock (cold path); recording through the returned
/// handles is lock-free. The process-wide instance is [`global`]; separate
/// instances can be created for tests.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A fresh, disabled registry.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: Arc::new(AtomicBool::new(false)),
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// Enable or disable recording for every handle of this registry.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let entry = metrics.entry(name.to_string()).or_insert_with(|| {
            Metric::Counter(Counter(Arc::new(CounterCore {
                enabled: Arc::clone(&self.enabled),
                shards: std::array::from_fn(|_| PaddedCell(AtomicU64::new(0))),
            })))
        });
        match entry {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Get or register the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let entry = metrics.entry(name.to_string()).or_insert_with(|| {
            Metric::Gauge(Gauge(Arc::new(GaugeCore {
                enabled: Arc::clone(&self.enabled),
                value: AtomicU64::new(0),
                hwm: AtomicU64::new(0),
            })))
        });
        match entry {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Get or register the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let entry = metrics.entry(name.to_string()).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(HistogramCore {
                enabled: Arc::clone(&self.enabled),
                buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            })))
        });
        match entry {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Zero every registered metric (handles stay valid).
    pub fn reset(&self) {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        for metric in metrics.values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.value());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), (g.value(), g.hwm()));
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Non-empty log2 buckets as `(inclusive_upper_bound, count)` pairs.
    pub buckets: Vec<(u64, u64)>,
}

/// A point-in-time copy of a [`MetricsRegistry`] (plus, for [`snapshot`], the
/// bridged `kernel.*` statistics from `pvc_prob`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name as `(value, high_water_mark)`.
    pub gauges: BTreeMap<String, (u64, u64)>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl MetricsSnapshot {
    /// Serialise in the bench JSON dialect (parses with `pvc_bench::json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\": {");
        let mut first = true;
        for (name, value) in &self.counters {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("\"{}\": {}", json_escape(name), value));
        }
        out.push_str("}, \"gauges\": {");
        first = true;
        for (name, (value, hwm)) in &self.gauges {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"hwm\": {}}}",
                json_escape(name),
                value,
                hwm
            ));
        }
        out.push_str("}, \"histograms\": {");
        first = true;
        for (name, hist) in &self.histograms {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let buckets: Vec<String> = hist
                .buckets
                .iter()
                .map(|(le, n)| format!("[{le}, {n}]"))
                .collect();
            out.push_str(&format!(
                "\"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                json_escape(name),
                hist.count,
                hist.sum,
                buckets.join(", ")
            ));
        }
        out.push_str("}}");
        out
    }
}

/// The process-wide registry that all built-in instrumentation records into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Enable or disable the global metrics registry **and** the `pvc_prob`
/// kernel-dispatch statistics it bridges.
pub fn set_metrics_enabled(enabled: bool) {
    global().set_enabled(enabled);
    pvc_prob::set_kernel_stats_enabled(enabled);
}

/// Whether the global metrics registry is enabled.
pub fn metrics_enabled() -> bool {
    global().enabled()
}

static TRACING: AtomicBool = AtomicBool::new(false);

/// Enable or disable global span-counting mode ("full tracing"). While on,
/// every [`span`] site increments a `span.<name>` counter in the global
/// registry — enable metrics too, or the counts are dropped.
pub fn set_tracing_enabled(enabled: bool) {
    TRACING.store(enabled, Ordering::Relaxed);
}

/// Whether global span-counting mode is on.
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Zero the global registry and the bridged kernel statistics.
pub fn reset() {
    global().reset();
    pvc_prob::reset_kernel_stats();
}

/// Snapshot the global registry, bridging in the `kernel.*` statistics kept by
/// `pvc_prob` (which cannot depend on this crate).
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = global().snapshot();
    let kernel = pvc_prob::kernel_stats();
    snap.counters
        .insert("kernel.conv.dense".into(), kernel.conv_dense);
    snap.counters
        .insert("kernel.conv.sparse".into(), kernel.conv_sparse);
    snap.counters
        .insert("kernel.conv.fft".into(), kernel.conv_fft);
    snap.counters
        .insert("kernel.fft.fallbacks".into(), kernel.fft_fallbacks);
    snap.counters.insert(
        "kernel.dense_chain.extends".into(),
        kernel.dense_chain_extends,
    );
    snap.counters.insert(
        "kernel.dense_chain.breaks".into(),
        kernel.dense_chain_breaks,
    );
    let buckets = kernel
        .support_buckets
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(i, &n)| (bucket_upper_bound(i), n))
        .collect();
    snap.histograms.insert(
        "kernel.conv.support".into(),
        HistogramSnapshot {
            count: kernel.support_count,
            sum: kernel.support_sum,
            buckets,
        },
    );
    snap
}

/// [`snapshot`] serialised in the bench JSON dialect.
pub fn metrics_json() -> String {
    snapshot().to_json()
}

// ---------------------------------------------------------------------------
// Pre-registered handles for this crate's instrumentation
// ---------------------------------------------------------------------------

/// Handles for the metrics recorded by `pvc-core` itself (cache, arena, pool,
/// persist) and the two `stream.*` ones the consumer side of `pvc-db`'s tuple
/// stream records, resolved once against the [`global`] registry.
#[derive(Debug)]
pub struct CoreMetrics {
    /// `cache.semiring.hit`
    pub cache_semiring_hit: Counter,
    /// `cache.semiring.miss`
    pub cache_semiring_miss: Counter,
    /// `cache.aggregate.hit`
    pub cache_aggregate_hit: Counter,
    /// `cache.aggregate.miss`
    pub cache_aggregate_miss: Counter,
    /// `cache.arena.miss` — one per circuit compiled through the artifact store.
    pub cache_arena_miss: Counter,
    /// `cache.eviction`
    pub cache_eviction: Counter,
    /// `arena.nodes` — d-tree arena sizes at build time.
    pub arena_nodes: Histogram,
    /// `arena.eval.stack_depth` — evaluator value-stack high-water marks.
    pub eval_stack_depth: Histogram,
    /// `pool.queue_wait_us` — enqueue-to-start wait per pool job.
    pub pool_queue_wait_us: Histogram,
    /// `pool.run_us` — run time per pool job.
    pub pool_run_us: Histogram,
    /// `stream.messages` — worker-to-consumer messages a tuple stream received.
    pub stream_messages: Counter,
    /// `stream.message.tuples` — result tuples carried per received message.
    pub stream_message_tuples: Histogram,
    /// `persist.save.bytes`
    pub persist_save_bytes: Histogram,
    /// `persist.save.us`
    pub persist_save_us: Histogram,
    /// `persist.restore.bytes`
    pub persist_restore_bytes: Histogram,
    /// `persist.restore.us`
    pub persist_restore_us: Histogram,
    /// `persist.wal.append.bytes` — framed record sizes appended to the WAL.
    pub wal_append_bytes: Histogram,
    /// `persist.wal.append.us` — append latency including any fsync.
    pub wal_append_us: Histogram,
    /// `persist.wal.replayed` — records recovered from WAL files at open.
    pub wal_replayed_records: Counter,
    /// `persist.wal.torn_tails` — WAL opens that found (and amputated) a torn
    /// or corrupt tail.
    pub wal_torn_tails: Counter,
    /// `persist.wal.rotations` — post-snapshot log rotations.
    pub wal_rotations: Counter,
}

/// The lazily-registered [`CoreMetrics`] handles.
pub fn core_metrics() -> &'static CoreMetrics {
    static CORE: OnceLock<CoreMetrics> = OnceLock::new();
    CORE.get_or_init(|| {
        let r = global();
        CoreMetrics {
            cache_semiring_hit: r.counter("cache.semiring.hit"),
            cache_semiring_miss: r.counter("cache.semiring.miss"),
            cache_aggregate_hit: r.counter("cache.aggregate.hit"),
            cache_aggregate_miss: r.counter("cache.aggregate.miss"),
            cache_arena_miss: r.counter("cache.arena.miss"),
            cache_eviction: r.counter("cache.eviction"),
            arena_nodes: r.histogram("arena.nodes"),
            eval_stack_depth: r.histogram("arena.eval.stack_depth"),
            pool_queue_wait_us: r.histogram("pool.queue_wait_us"),
            pool_run_us: r.histogram("pool.run_us"),
            stream_messages: r.counter("stream.messages"),
            stream_message_tuples: r.histogram("stream.message.tuples"),
            persist_save_bytes: r.histogram("persist.save.bytes"),
            persist_save_us: r.histogram("persist.save.us"),
            persist_restore_bytes: r.histogram("persist.restore.bytes"),
            persist_restore_us: r.histogram("persist.restore.us"),
            wal_append_bytes: r.histogram("persist.wal.append.bytes"),
            wal_append_us: r.histogram("persist.wal.append.us"),
            wal_replayed_records: r.counter("persist.wal.replayed"),
            wal_torn_tails: r.counter("persist.wal.torn_tails"),
            wal_rotations: r.counter("persist.wal.rotations"),
        }
    })
}

// ---------------------------------------------------------------------------
// Span tracing
// ---------------------------------------------------------------------------

/// Every span name used by the built-in instrumentation, in lifecycle order.
pub const SPAN_NAMES: &[&str] = &[
    "prepare",
    "query",
    "rewrite",
    "evaluate",
    "tuple",
    "confidence",
    "aggregate",
    "intern",
    "subtree",
    "fold",
    "compile",
];

fn span_counters() -> &'static Vec<(&'static str, Counter)> {
    static COUNTERS: OnceLock<Vec<(&'static str, Counter)>> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        SPAN_NAMES
            .iter()
            .map(|&name| (name, global().counter(&format!("span.{name}"))))
            .collect()
    })
}

fn count_span(name: &'static str) {
    if let Some((_, counter)) = span_counters().iter().find(|(n, _)| *n == name) {
        counter.inc();
    }
}

/// One finished span copied out of a [`Trace`].
#[derive(Debug, Clone)]
pub struct FinishedSpan {
    /// Start-order sequence number, unique within the trace.
    pub seq: usize,
    /// Sequence number of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Static span name (one of [`SPAN_NAMES`] for built-in sites).
    pub name: &'static str,
    /// Key/value attributes attached while the span was open.
    pub attrs: Vec<(&'static str, String)>,
    /// Wall-clock duration in nanoseconds (monotonic clock).
    pub dur_ns: u64,
}

#[derive(Debug)]
struct OpenSpan {
    seq: usize,
    parent: Option<usize>,
    name: &'static str,
    attrs: Vec<(&'static str, String)>,
    start: Instant,
}

#[derive(Debug, Default)]
struct TraceInner {
    next_seq: usize,
    open: Vec<OpenSpan>,
    finished: VecDeque<FinishedSpan>,
    dropped: u64,
}

/// A single-threaded span collector with a bounded ring of finished spans.
///
/// Not `Sync`: one trace belongs to one thread (install it with
/// [`with_trace`]). When the ring is full the **oldest** finished span is
/// dropped and counted in [`dropped`](Trace::dropped) — tracing never panics
/// or grows without bound.
#[derive(Debug)]
pub struct Trace {
    cap: usize,
    inner: RefCell<TraceInner>,
}

/// Default capacity of a trace's finished-span ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

impl Trace {
    /// A trace whose finished-span ring holds at most `capacity` spans
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Trace {
        Trace {
            cap: capacity.max(1),
            inner: RefCell::new(TraceInner::default()),
        }
    }

    /// Open a span; the most recently opened unfinished span becomes its
    /// parent. Returns the span's sequence number.
    pub fn start(&self, name: &'static str) -> usize {
        let mut inner = self.inner.borrow_mut();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let parent = inner.open.last().map(|s| s.seq);
        inner.open.push(OpenSpan {
            seq,
            parent,
            name,
            attrs: Vec::new(),
            start: Instant::now(),
        });
        seq
    }

    /// Attach an attribute to the open span `seq` (no-op if already finished).
    pub fn attr(&self, seq: usize, key: &'static str, value: String) {
        let mut inner = self.inner.borrow_mut();
        if let Some(span) = inner.open.iter_mut().rev().find(|s| s.seq == seq) {
            span.attrs.push((key, value));
        }
    }

    /// Finish the open span `seq`, moving it into the bounded ring. Finishing
    /// an unknown or already-finished span is a no-op.
    pub fn finish(&self, seq: usize) {
        let mut inner = self.inner.borrow_mut();
        let Some(pos) = inner.open.iter().rposition(|s| s.seq == seq) else {
            return;
        };
        let span = inner.open.remove(pos);
        let dur_ns = span.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        inner.finished.push_back(FinishedSpan {
            seq: span.seq,
            parent: span.parent,
            name: span.name,
            attrs: span.attrs,
            dur_ns,
        });
        if inner.finished.len() > self.cap {
            inner.finished.pop_front();
            inner.dropped += 1;
        }
    }

    /// Whether a span named `name` was opened and finished inside the still-open
    /// span `seq`. Spans nest, so everything that finished since `seq` opened —
    /// the tail of the ring with larger sequence numbers — is its descendant.
    pub fn finished_inside(&self, seq: usize, name: &str) -> bool {
        let inner = self.inner.borrow();
        inner
            .finished
            .iter()
            .rev()
            .take_while(|s| s.seq > seq)
            .any(|s| s.name == name)
    }

    /// Copy out the finished spans, in finish order.
    pub fn spans(&self) -> Vec<FinishedSpan> {
        self.inner.borrow().finished.iter().cloned().collect()
    }

    /// Number of finished spans currently held.
    pub fn len(&self) -> usize {
        self.inner.borrow().finished.len()
    }

    /// True when no finished span is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finished spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }
}

/// RAII handle for an open span: finishes it on drop.
#[derive(Debug)]
pub struct SpanGuard {
    trace: Rc<Trace>,
    seq: usize,
}

impl SpanGuard {
    /// Attach a key/value attribute to this span.
    pub fn attr(&self, key: &'static str, value: String) {
        self.trace.attr(self.seq, key, value);
    }

    /// Whether a span named `name` has finished inside this one so far.
    pub fn enclosed(&self, name: &str) -> bool {
        self.trace.finished_inside(self.seq, name)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.trace.finish(self.seq);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<Trace>>> = const { RefCell::new(None) };
    static HAS_TRACE: Cell<bool> = const { Cell::new(false) };
}

/// Install `trace` as this thread's current trace for the duration of `f`;
/// [`span`] calls made inside (at any depth) record into it. The previous
/// trace, if any, is restored afterwards — even on unwind.
pub fn with_trace<R>(trace: Rc<Trace>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Rc<Trace>>, bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
            HAS_TRACE.with(|h| h.set(self.1));
        }
    }
    let prev = CURRENT.with(|c| c.borrow_mut().replace(trace));
    let prev_flag = HAS_TRACE.with(|h| h.replace(true));
    let _restore = Restore(prev, prev_flag);
    f()
}

/// Open a span named `name` in this thread's current trace.
///
/// Near-free when observability is off: one thread-local flag read plus one
/// relaxed atomic load. Returns `None` (and records nothing) when no trace is
/// installed; if global tracing mode is on, the `span.<name>` counter is
/// incremented either way.
#[inline]
pub fn span(name: &'static str) -> Option<SpanGuard> {
    let has_trace = HAS_TRACE.with(Cell::get);
    let tracing = TRACING.load(Ordering::Relaxed);
    if !has_trace && !tracing {
        return None;
    }
    if tracing {
        count_span(name);
    }
    if !has_trace {
        return None;
    }
    CURRENT.with(|c| {
        let borrow = c.borrow();
        let trace = borrow.as_ref()?;
        let seq = trace.start(name);
        Some(SpanGuard {
            trace: Rc::clone(trace),
            seq,
        })
    })
}

// ---------------------------------------------------------------------------
// Execution profiles
// ---------------------------------------------------------------------------

/// One node of a profile tree: a span with its attributes, duration and
/// children (in span-start order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Span name.
    pub name: String,
    /// Attributes attached to the span.
    pub attrs: Vec<(String, String)>,
    /// Duration in nanoseconds. Excluded from [`ExecutionProfile::shape`].
    pub dur_ns: u64,
    /// Child spans in start order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// A node with no attributes or children.
    pub fn new(name: impl Into<String>) -> ProfileNode {
        ProfileNode {
            name: name.into(),
            attrs: Vec::new(),
            dur_ns: 0,
            children: Vec::new(),
        }
    }

    fn render_into(&self, depth: usize, with_durations: bool, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        if !self.attrs.is_empty() {
            out.push_str(" [");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&format!("{k}={v}"));
            }
            out.push(']');
        }
        if with_durations {
            out.push_str(&format!(" ({:.3}ms)", self.dur_ns as f64 / 1e6));
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(depth + 1, with_durations, out);
        }
    }
}

/// The span tree of one query execution, attached to `QueryResult` when
/// `EvalOptions::profile` is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionProfile {
    /// The root span (named `query`).
    pub root: ProfileNode,
    /// Spans lost to per-tuple ring-buffer overflow across the execution.
    pub dropped_spans: u64,
}

impl ExecutionProfile {
    /// Human-readable indented tree **with** durations (not deterministic).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.render_into(0, true, &mut out);
        if self.dropped_spans > 0 {
            out.push_str(&format!("({} spans dropped)\n", self.dropped_spans));
        }
        out
    }

    /// The same tree **without** durations: deterministic across runs and
    /// thread counts (given identical cache state), so tests can pin it.
    pub fn shape(&self) -> String {
        let mut out = String::new();
        self.root.render_into(0, false, &mut out);
        if self.dropped_spans > 0 {
            out.push_str(&format!("({} spans dropped)\n", self.dropped_spans));
        }
        out
    }
}

/// Assemble a trace's finished spans into root [`ProfileNode`]s (children in
/// span-start order). Spans whose parents were evicted from the ring become
/// roots themselves; the second value is the trace's dropped-span count.
pub fn profile_nodes(trace: &Trace) -> (Vec<ProfileNode>, u64) {
    let spans = trace.spans();
    let mut by_seq: BTreeMap<usize, &FinishedSpan> = BTreeMap::new();
    for span in &spans {
        by_seq.insert(span.seq, span);
    }
    // Children grouped by parent, in start (seq) order thanks to the BTreeMap.
    let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (&seq, span) in &by_seq {
        match span.parent {
            Some(parent) if by_seq.contains_key(&parent) => {
                children.entry(parent).or_default().push(seq);
            }
            _ => roots.push(seq),
        }
    }
    fn build(
        seq: usize,
        by_seq: &BTreeMap<usize, &FinishedSpan>,
        children: &BTreeMap<usize, Vec<usize>>,
    ) -> ProfileNode {
        let span = by_seq[&seq];
        ProfileNode {
            name: span.name.to_string(),
            attrs: span
                .attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            dur_ns: span.dur_ns,
            children: children
                .get(&seq)
                .map(|kids| {
                    kids.iter()
                        .map(|&kid| build(kid, by_seq, children))
                        .collect()
                })
                .unwrap_or_default(),
        }
    }
    let nodes = roots
        .into_iter()
        .map(|seq| build(seq, &by_seq, &children))
        .collect();
    (nodes, trace.dropped())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_shard_and_sum() {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("t.counter");
        counter.inc(); // disabled: dropped
        assert_eq!(counter.value(), 0);
        registry.set_enabled(true);
        counter.add(3);
        counter.inc();
        assert_eq!(counter.value(), 4);
        // The same name returns the same underlying metric.
        assert_eq!(registry.counter("t.counter").value(), 4);
        registry.reset();
        assert_eq!(counter.value(), 0);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let registry = MetricsRegistry::new();
        registry.set_enabled(true);
        let gauge = registry.gauge("t.gauge");
        gauge.set(5);
        gauge.set(2);
        assert_eq!(gauge.value(), 2);
        assert_eq!(gauge.hwm(), 5);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let registry = MetricsRegistry::new();
        registry.set_enabled(true);
        let hist = registry.histogram("t.hist");
        for v in [0, 1, 2, 3, 1000] {
            hist.record(v);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1006);
        // 0 → le 0; 1 → le 1; {2,3} → le 3; 1000 → le 1023.
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (3, 2), (1023, 1)]);
    }

    #[test]
    fn snapshot_json_is_valid_dialect() {
        let registry = MetricsRegistry::new();
        registry.set_enabled(true);
        registry.counter("a.count").add(7);
        registry.gauge("b.gauge").set(3);
        registry.histogram("c.hist").record(5);
        let json = registry.snapshot().to_json();
        assert!(json.contains("\"a.count\": 7"));
        assert!(json.contains("\"value\": 3"));
        assert!(json.contains("\"buckets\": [[7, 1]]"));
    }

    #[test]
    fn trace_ring_drops_oldest_without_panic() {
        let trace = Trace::new(2);
        for i in 0..5 {
            let seq = trace.start(if i % 2 == 0 { "tuple" } else { "compile" });
            trace.finish(seq);
        }
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped(), 3);
        // The survivors are the two newest.
        let spans = trace.spans();
        assert_eq!(spans[0].seq, 3);
        assert_eq!(spans[1].seq, 4);
        // Finishing an evicted/unknown span is a no-op.
        trace.finish(0);
        trace.finish(99);
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn spans_nest_and_build_profile_trees() {
        let trace = Rc::new(Trace::new(64));
        with_trace(Rc::clone(&trace), || {
            let query = span("query").expect("trace installed");
            query.attr("structural_key", "abcd".into());
            {
                let _rewrite = span("rewrite");
            }
            {
                let _eval = span("evaluate");
                let _tuple = span("tuple");
            }
        });
        let (roots, dropped) = profile_nodes(&trace);
        assert_eq!(dropped, 0);
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        assert_eq!(root.name, "query");
        assert_eq!(root.attrs, vec![("structural_key".into(), "abcd".into())]);
        let names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["rewrite", "evaluate"]);
        assert_eq!(root.children[1].children[0].name, "tuple");
    }

    #[test]
    fn a_guard_sees_what_finished_inside_it_and_nothing_before() {
        let trace = Rc::new(Trace::new(64));
        with_trace(Rc::clone(&trace), || {
            drop(span("compile")); // an earlier sibling
            let aggregate = span("aggregate").expect("trace installed");
            assert!(!aggregate.enclosed("compile"));
            {
                let _subtree = span("subtree");
                let _compile = span("compile");
                assert!(!aggregate.enclosed("compile"), "still open");
            }
            assert!(aggregate.enclosed("compile"));
            assert!(aggregate.enclosed("subtree"));
            assert!(!aggregate.enclosed("fold"));
        });
    }

    #[test]
    fn span_without_trace_or_tracing_is_none() {
        assert!(span("query").is_none());
    }

    #[test]
    fn profile_shape_strips_durations() {
        let profile = ExecutionProfile {
            root: ProfileNode {
                name: "query".into(),
                attrs: vec![("k".into(), "v".into())],
                dur_ns: 1_500_000,
                children: vec![ProfileNode::new("rewrite")],
            },
            dropped_spans: 0,
        };
        assert_eq!(profile.shape(), "query [k=v]\n  rewrite\n");
        assert!(profile.render().contains("(1.500ms)"));
    }

    #[test]
    fn nested_with_trace_restores_the_outer_trace() {
        let outer = Rc::new(Trace::new(8));
        let inner = Rc::new(Trace::new(8));
        with_trace(Rc::clone(&outer), || {
            with_trace(Rc::clone(&inner), || {
                let _s = span("compile");
            });
            let _s = span("tuple");
        });
        assert_eq!(inner.spans().len(), 1);
        assert_eq!(inner.spans()[0].name, "compile");
        assert_eq!(outer.spans().len(), 1);
        assert_eq!(outer.spans()[0].name, "tuple");
    }
}
