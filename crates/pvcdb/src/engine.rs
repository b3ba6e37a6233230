//! The query engine: a fallible, plan-aware, reusable front-end over the two-step
//! evaluation pipeline of the paper (step I: the `⟦·⟧` rewriting of Fig. 4; step II:
//! d-tree compilation and probability computation, §5).
//!
//! The flow is *prepare once, execute many*:
//!
//! 1. [`Engine::new`] takes ownership of a [`Database`] and sets up the engine's
//!    compile-artifact caches;
//! 2. [`Engine::prepare`] validates a query **once** (the well-formedness checks of
//!    Definition 5), computes its output schema, classifies it against the
//!    tractability classes of §6 (`Q_ind` / `Q_hie` / general) and records the chosen
//!    evaluation strategy in an inspectable [`Plan`];
//! 3. [`PreparedQuery::execute`] runs steps I+II under explicit [`EvalOptions`],
//!    reusing the cached rewrite of the same query and the cached confidences /
//!    aggregate distributions of previously compiled expressions.
//!
//! For queries classified `Q_ind`/`Q_hie` over a Boolean tuple-independent database,
//! tuple confidences are computed by a **read-once fast path** that never builds a
//! d-tree: the provenance of hierarchical non-repeating queries factorises into
//! variable-disjoint sums and products, whose probabilities multiply directly. The
//! same gate covers MIN/MAX aggregate distributions over pairwise-independent terms,
//! which are assembled by the Proposition 1 closed form instead of a d-tree. The
//! fast path is self-checking (it bails out to full compilation on any expression
//! that is not of the required shape), so enabling it never changes results — only
//! speed.
//!
//! ## Parallel and streaming execution
//!
//! Step II compiles **one d-tree per result tuple** — an embarrassingly parallel
//! workload. [`EvalOptions::threads`] selects how many worker threads share it
//! (`1` = sequential, `0` = one per core), and
//! [`PreparedQuery::execute_streaming`] returns a [`TupleStream`] that yields
//! [`ProbTuple`]s **in deterministic tuple order as they are computed**, so large
//! results can be consumed incrementally. [`PreparedQuery::execute`] is the
//! materialising wrapper over the same per-tuple pipeline. Parallel output is
//! bit-identical to sequential output: tuples are pure functions of their
//! annotations, workers only share the compile-artifact caches (which can only
//! substitute values the computation would have produced anyway), and the stream
//! re-establishes tuple order before yielding.
//!
//! ## Caching & reuse
//!
//! The engine's compile-artifact caches are built on the hash-consed expression
//! arena of [`pvc_expr::intern`] and the bounded cache of [`pvc_core::cache`],
//! combined into a thread-safe, `Arc`-shared [`SharedArtifacts`] store: every
//! annotation and aggregate expression is interned into a **canonical id** (stable
//! under commutative operand reordering), and the computed distributions are
//! memoised under that id with an LRU entry/byte bound ([`CacheConfig`], see
//! [`Engine::with_cache_config`]). Structurally-equal provenance therefore shares
//! one cache entry even when different queries render it in different operand
//! orders, and [`CacheStats`] reports hits, misses, evictions and *cross-query*
//! hits. One `Arc<SharedArtifacts>` can back several engines
//! ([`Engine::with_shared_artifacts`]) for multi-tenant serving over a shared
//! database. Step-I rewrites are cached per engine under the query's
//! [canonical structural key](Query::structural_key).
//!
//! ## Persistence (warm restarts)
//!
//! All of the above survives a process restart: [`Engine::save_artifacts`]
//! snapshots the arena, the artifact cache and the rewrite cache into one
//! versioned, checksummed file, and [`Engine::with_artifacts_from`] brings a
//! fresh engine up warm from it (fingerprint-gated to the exact database, with
//! interned-id remapping so [`Engine::restore_artifacts`] can also merge into a
//! live store). See `docs/SNAPSHOT_FORMAT.md`.

use crate::database::Database;
use crate::error::Error;
use crate::prob_eval::{ProbTuple, QueryResult};
use crate::query::Query;
use crate::relation::PvcTable;
use crate::schema::Schema;
use crate::tractable::{classify, QueryClass};
use crate::value::Value;
use crate::wal::DeltaWal;
use pvc_algebra::{AggOp, MonoidValue, SemiringKind, SemiringValue};
use pvc_core::obs;
use pvc_core::parallel::{resolve_threads, OrderedReassembly, WorkerPool};
use pvc_core::{
    confidence_of, CacheConfig, CompactionStats, CompileOptions, Compiler, SharedArtifacts,
};
use pvc_expr::{SemimoduleExpr, SemiringExpr, VarSet, VarTable};
use pvc_prob::{Dist, MonoidDist, SemiringDist};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Options controlling one execution of a prepared query: how expressions are
/// compiled, whether the §6 tractable fast path may be used, how many worker
/// threads share the per-tuple work, and how much of the result is materialised.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Options forwarded to the d-tree compiler (rule selection, node budget).
    pub compile: CompileOptions,
    /// Allow the read-once fast path for tuple confidences when the plan classified
    /// the query as tractable (`Q_ind`/`Q_hie`). On by default; results are identical
    /// either way.
    pub tractable_fast_path: bool,
    /// Materialise the exact distribution of every aggregation attribute. Disable
    /// (see [`EvalOptions::confidence_only`]) to skip the semimodule compilation when
    /// only tuple confidences are needed.
    pub aggregate_distributions: bool,
    /// Worker threads for step II (per-tuple d-tree compilation): `1` (the default)
    /// runs sequentially in the calling thread, `0` spawns one worker per available
    /// core, any other value spawns exactly that many workers. Results are
    /// **bit-identical** for every setting — tuple order, confidences and aggregate
    /// distributions do not depend on the worker count.
    pub threads: usize,
    /// Collect a per-query [`ExecutionProfile`](obs::ExecutionProfile) on the
    /// returned [`QueryResult`]: a span tree covering the rewrite and the
    /// per-tuple evaluation, with cache outcomes per independent sub-d-tree and
    /// the kernel path taken per tuple. Off by default; results are bit-identical
    /// either way, and the profile's [`shape`](obs::ExecutionProfile::shape) is
    /// deterministic across runs and thread counts (given identical cache state).
    pub profile: bool,
    /// A persistent [`WorkerPool`] to run step II on instead of spawning fresh
    /// threads per execution. When set, parallel executions submit their worker
    /// loops as pool jobs (at most [`WorkerPool::threads`] of them), amortising
    /// thread start-up across every query of a long-lived process — the serving
    /// default (`pvc-serve` sets this together with `threads: 0`). Results remain
    /// bit-identical to the spawning path; `None` (the default) preserves the
    /// per-execution spawn behaviour.
    pub pool: Option<Arc<WorkerPool>>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalOptions {
    /// The default options: full compilation rules, fast path enabled, aggregate
    /// distributions materialised, sequential execution.
    pub fn new() -> Self {
        EvalOptions {
            compile: CompileOptions::default(),
            tractable_fast_path: true,
            aggregate_distributions: true,
            threads: 1,
            profile: false,
            pool: None,
        }
    }

    /// Compute tuple confidences only, skipping aggregate-distribution compilation —
    /// the cheapest useful result shape.
    pub fn confidence_only() -> Self {
        EvalOptions {
            aggregate_distributions: false,
            ..Self::new()
        }
    }

    /// Replace the compiler options (e.g. for ablations or to set a node budget).
    pub fn with_compile(mut self, compile: CompileOptions) -> Self {
        self.compile = compile;
        self
    }

    /// Set a d-tree node budget; compilation beyond it returns [`Error::Compile`].
    pub fn with_node_budget(mut self, budget: usize) -> Self {
        self.compile.node_budget = Some(budget);
        self
    }

    /// Disable the tractable fast path (every confidence goes through a d-tree).
    pub fn without_fast_path(mut self) -> Self {
        self.tractable_fast_path = false;
        self
    }

    /// Set the worker-thread count for step II (`0` = one per available core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Run step II on a persistent [`WorkerPool`] instead of spawning threads per
    /// execution (see [`EvalOptions::pool`]).
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Collect a per-query [`ExecutionProfile`](obs::ExecutionProfile) on the
    /// result (see [`EvalOptions::profile`]).
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }
}

/// The evaluation strategy recorded in a [`Plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The query is in `Q_ind` (Definition 8): result tuples are pairwise
    /// independent and confidences are computed by read-once evaluation.
    IndependentFastPath,
    /// The query is in `Q_hie` (Definition 9): hierarchical provenance, compiled
    /// without Shannon expansion (read-once fast path for confidences).
    HierarchicalFastPath,
    /// No syntactic tractability guarantee: full knowledge compilation (which may
    /// still be fast — the classification is conservative).
    GeneralCompilation,
}

impl Strategy {
    /// True for the two strategies backed by the §6 tractability results.
    pub fn is_tractable(self) -> bool {
        !matches!(self, Strategy::GeneralCompilation)
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::IndependentFastPath => write!(f, "independent fast path (Q_ind)"),
            Strategy::HierarchicalFastPath => write!(f, "hierarchical fast path (Q_hie)"),
            Strategy::GeneralCompilation => write!(f, "general knowledge compilation"),
        }
    }
}

/// The inspectable plan produced by [`Engine::prepare`]: what the validator and the
/// tractability analysis concluded about a query, before anything is executed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The syntactic tractability class of §6.
    pub class: QueryClass,
    /// The evaluation strategy the engine will use.
    pub strategy: Strategy,
    /// The validated output schema.
    pub schema: Schema,
    /// Base tables referenced by the query, with multiplicity.
    pub base_tables: Vec<String>,
    /// Whether no base table occurs more than once (precondition of §6).
    pub non_repeating: bool,
    /// Whether every referenced base table is tuple-independent (precondition of §6).
    pub tuple_independent_input: bool,
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan: {}", self.strategy)?;
        writeln!(f, "  class:  {:?}", self.class)?;
        writeln!(f, "  schema: {}", self.schema)?;
        writeln!(
            f,
            "  tables: {:?} (non-repeating: {}, tuple-independent: {})",
            self.base_tables, self.non_repeating, self.tuple_independent_input
        )
    }
}

/// Sizes and behaviour counters of the engine's compile-artifact caches (see
/// [`Engine::cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Cached step-I rewrites, keyed by the query's canonical structural key.
    pub rewrites: usize,
    /// Approximate (serialized-size) bytes held by the step-I rewrite cache,
    /// bounded by the same [`CacheConfig`] as the artifact caches.
    pub rewrite_bytes: usize,
    /// Cached annotation distributions/confidences, keyed by canonical expression id.
    pub confidences: usize,
    /// Cached aggregate distributions, keyed by canonical semimodule-expression id.
    pub aggregates: usize,
    /// Distinct nodes in the hash-consed expression arena (semiring + semimodule).
    pub interned: usize,
    /// Approximate payload bytes held by the artifact caches.
    pub bytes: usize,
    /// Artifact-cache lookups answered from the cache.
    pub hits: u64,
    /// Artifact-cache lookups that had to compute.
    pub misses: u64,
    /// Hits whose entry was inserted while executing a *different* query — the
    /// cross-query reuse enabled by canonical interning.
    pub cross_query_hits: u64,
    /// Entries evicted by the LRU bounds.
    pub evictions: u64,
    /// Cached compiled d-tree arenas (flattened evaluation artifacts).
    pub arenas: usize,
    /// Arena lookups answered from the cache (each hit skips a full d-tree
    /// compilation; only the arena evaluation runs).
    pub arena_hits: u64,
    /// Arena lookups that had to compile.
    pub arena_misses: u64,
}

/// What one snapshot save or restore moved between the engine and disk (see
/// [`Engine::save_artifacts`] / [`Engine::restore_artifacts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotStats {
    /// Interned expression nodes (semiring + semimodule) written / replayed.
    pub interned: usize,
    /// Cached distributions (confidences + aggregates) written / inserted.
    pub distributions: usize,
    /// Compiled d-tree arenas written / inserted.
    pub arenas: usize,
    /// Step-I rewrite tables written / installed.
    pub rewrites: usize,
    /// Total snapshot size in bytes.
    pub bytes: usize,
}

/// Where [`Engine::recover_with`] looks for durable state and how it opens
/// the log.
#[derive(Debug, Clone)]
pub struct RecoverOptions {
    /// The snapshot to restore warm from, if one may exist. `None` (or a
    /// missing/invalid file) starts cold and replays the whole log.
    pub snapshot_path: Option<std::path::PathBuf>,
    /// The delta write-ahead log (created if missing).
    pub wal_path: std::path::PathBuf,
    /// Fsync discipline for the re-opened log.
    pub durability: pvc_core::Durability,
    /// Cache bounds for a **cold** start (a restored snapshot carries its own).
    pub cache: CacheConfig,
    /// Tenant tag for records appended after recovery.
    pub tenant: String,
}

impl RecoverOptions {
    /// Options with the given log path, no snapshot, default cache bounds,
    /// [`pvc_core::Durability::Always`] and an empty tenant tag.
    pub fn new(wal_path: impl Into<std::path::PathBuf>) -> Self {
        RecoverOptions {
            snapshot_path: None,
            wal_path: wal_path.into(),
            durability: pvc_core::Durability::Always,
            cache: CacheConfig::default(),
            tenant: String::new(),
        }
    }

    /// Restore from this snapshot when it exists and verifies.
    pub fn with_snapshot(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.snapshot_path = Some(path.into());
        self
    }

    /// Set the log's fsync discipline.
    pub fn with_durability(mut self, durability: pvc_core::Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Set the cold-start cache bounds.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Set the tenant tag.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }
}

/// What [`Engine::recover_with`] found and did: whether the snapshot served,
/// what the WAL contributed, and where the durable high-water mark ended up.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// True when the snapshot existed, verified and restored warm.
    pub snapshot_restored: bool,
    /// The typed error (rendered) when a snapshot existed but was refused —
    /// recovery then proceeded **cold-with-replay** instead of failing.
    pub snapshot_error: Option<String>,
    /// Logged deltas re-applied (sequence numbers past the snapshot's
    /// high-water mark).
    pub wal_replayed: usize,
    /// Logged deltas skipped because the snapshot already contained them.
    pub wal_skipped: usize,
    /// Bytes amputated from the log as a torn/corrupt tail.
    pub wal_tail_dropped_bytes: u64,
    /// The durable high-water mark after recovery (next append is `+1`).
    pub high_water: u64,
}

/// A typed batch of mutations against the engine's database, built with
/// [`Delta::insert`] / [`Delta::delete`] / [`Delta::set_probability`] and applied
/// atomically by [`Engine::apply_delta`].
///
/// Row indices refer to the table **as it is when the delta is applied** (before
/// any of the delta's own operations): probability updates run first, then
/// deletes (highest row first, so the indices stay meaningful), then inserts are
/// appended. Validation runs before anything is mutated, so an `Err` from
/// `apply_delta` leaves the database and every cache untouched.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    pub(crate) ops: Vec<DeltaOp>,
}

#[derive(Debug, Clone)]
pub(crate) struct DeltaOp {
    pub(crate) table: String,
    pub(crate) kind: DeltaKind,
}

#[derive(Debug, Clone)]
pub(crate) enum DeltaKind {
    Insert {
        values: Vec<Value>,
        probability: f64,
    },
    Delete {
        row: usize,
    },
    SetProbability {
        row: usize,
        probability: f64,
    },
}

impl Delta {
    /// An empty delta (applying it is a no-op).
    pub fn new() -> Self {
        Delta::default()
    }

    /// Append a tuple-independent insert: a fresh presence variable with
    /// `P[⊤] = probability` annotates `values` (exactly like
    /// [`PvcTable::push_independent`]).
    pub fn insert(
        mut self,
        table: impl Into<String>,
        values: Vec<Value>,
        probability: f64,
    ) -> Self {
        self.ops.push(DeltaOp {
            table: table.into(),
            kind: DeltaKind::Insert {
                values,
                probability,
            },
        });
        self
    }

    /// Delete the tuple at `row` (pre-delta index). The tuple's presence
    /// variable stays registered — interned expressions may still mention it —
    /// but no longer annotates anything.
    pub fn delete(mut self, table: impl Into<String>, row: usize) -> Self {
        self.ops.push(DeltaOp {
            table: table.into(),
            kind: DeltaKind::Delete { row },
        });
        self
    }

    /// Re-weight the tuple at `row` (pre-delta index) to `P[⊤] = probability`.
    /// The tuple's annotation must be a single presence variable (as produced by
    /// [`PvcTable::push_independent`]); anything else is a validation error.
    pub fn set_probability(
        mut self,
        table: impl Into<String>,
        row: usize,
        probability: f64,
    ) -> Self {
        self.ops.push(DeltaOp {
            table: table.into(),
            kind: DeltaKind::SetProbability { row, probability },
        });
        self
    }

    /// True when the delta holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of operations in the delta.
    pub fn len(&self) -> usize {
        self.ops.len()
    }
}

/// What one [`Engine::apply_delta`] changed and — the point of the API — what it
/// managed to **keep**: every cache entry whose variable set (artifacts) or base
/// tables (rewrites) were disjoint from the delta survives verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Tuples inserted.
    pub inserted: usize,
    /// Tuples deleted.
    pub deleted: usize,
    /// Tuples whose presence probability was updated.
    pub reprobed: usize,
    /// Distinct tables the delta touched.
    pub tables_touched: usize,
    /// Size of the touched variable set (`set_probability` targets plus the
    /// variables of deleted tuples; inserts only create fresh variables and
    /// touch nothing).
    pub touched_vars: usize,
    /// Artifact-cache entries (distributions + compiled arenas) evicted because
    /// their variable set intersected the delta.
    pub evicted_artifacts: usize,
    /// Artifact-cache entries kept (disjoint variable sets).
    pub kept_artifacts: usize,
    /// Step-I rewrites evicted because a base table was touched.
    pub evicted_rewrites: usize,
    /// Step-I rewrites kept.
    pub kept_rewrites: usize,
}

/// Cumulative [`Engine::apply_delta`] activity (see [`EngineStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaTotals {
    /// Deltas applied successfully.
    pub applied: u64,
    /// Tuples inserted across all deltas.
    pub inserted: u64,
    /// Tuples deleted across all deltas.
    pub deleted: u64,
    /// Probability updates across all deltas.
    pub reprobed: u64,
    /// Artifact-cache entries evicted by delta invalidation.
    pub evicted_artifacts: u64,
    /// Step-I rewrites evicted by delta invalidation.
    pub evicted_rewrites: u64,
}

/// Cumulative snapshot activity of this engine (see [`EngineStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotTotals {
    /// Snapshot files written by [`Engine::save_artifacts`].
    pub saves: u64,
    /// Snapshots loaded into this engine ([`Engine::with_artifacts_from`] counts
    /// as one restore on the new engine).
    pub restores: u64,
    /// Bytes written across all saves.
    pub bytes_written: u64,
    /// Bytes read across all restores.
    pub bytes_read: u64,
}

/// Every counter the engine keeps, in one struct: cache/arena behaviour, delta
/// activity and snapshot activity (see [`Engine::stats`]). The older
/// [`Engine::cache_stats`] getter remains as a thin delegate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Sizes and hit/miss/eviction counters of the compile-artifact caches.
    pub cache: CacheStats,
    /// Cumulative [`Engine::apply_delta`] counters.
    pub deltas: DeltaTotals,
    /// Cumulative snapshot save/restore counters.
    pub snapshots: SnapshotTotals,
}

/// Interior-mutability counters backing [`EngineStats`] (updated from `&self`
/// methods like [`Engine::save_artifacts`]).
#[derive(Debug, Default)]
struct EngineCounters {
    deltas_applied: std::sync::atomic::AtomicU64,
    delta_inserted: std::sync::atomic::AtomicU64,
    delta_deleted: std::sync::atomic::AtomicU64,
    delta_reprobed: std::sync::atomic::AtomicU64,
    delta_evicted_artifacts: std::sync::atomic::AtomicU64,
    delta_evicted_rewrites: std::sync::atomic::AtomicU64,
    snapshot_saves: std::sync::atomic::AtomicU64,
    snapshot_restores: std::sync::atomic::AtomicU64,
    snapshot_bytes_written: std::sync::atomic::AtomicU64,
    snapshot_bytes_read: std::sync::atomic::AtomicU64,
}

impl EngineCounters {
    fn add(counter: &std::sync::atomic::AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// One step-I rewrite held by the bounded [`RewriteCache`].
#[derive(Debug)]
struct RewriteEntry {
    table: Arc<PvcTable>,
    /// The base tables the rewrite was computed from (the plan's, with
    /// multiplicity collapsed) — the invalidation key for [`Engine::apply_delta`]:
    /// a delta against any of them evicts this entry, a delta against none keeps
    /// it verbatim.
    base_tables: Vec<String>,
    /// Serialized size, the byte measure charged against the cache bound.
    bytes: usize,
    /// Recency stamp for LRU eviction (monotone per cache).
    last_used: u64,
}

/// The step-I rewrite cache, keyed by [`Query::structural_key`] and bounded by
/// the **same** entry/byte [`CacheConfig`] as the artifact caches — a long-lived
/// serving process running an open-ended query mix must not grow it without
/// bound. Eviction is least-recently-used; a `get` refreshes recency.
#[derive(Debug)]
struct RewriteCache {
    entries: BTreeMap<Vec<u8>, RewriteEntry>,
    bytes: usize,
    stamp: u64,
    config: CacheConfig,
}

impl RewriteCache {
    fn new(config: CacheConfig) -> Self {
        RewriteCache {
            entries: BTreeMap::new(),
            bytes: 0,
            stamp: 0,
            config,
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn bytes(&self) -> usize {
        self.bytes
    }

    fn get(&mut self, key: &[u8]) -> Option<Arc<PvcTable>> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.entries.get_mut(key).map(|e| {
            e.last_used = stamp;
            Arc::clone(&e.table)
        })
    }

    fn insert(&mut self, key: Vec<u8>, table: Arc<PvcTable>, base_tables: Vec<String>) {
        self.stamp += 1;
        let bytes = crate::snapshot::table_bytes(&table);
        if let Some(old) = self.entries.insert(
            key,
            RewriteEntry {
                table,
                base_tables,
                bytes,
                last_used: self.stamp,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.evict_to_bounds();
    }

    /// Insert only if the key is absent (snapshot restore must not displace live
    /// entries), still charging the bounds.
    fn insert_if_absent(&mut self, key: Vec<u8>, table: Arc<PvcTable>, base_tables: Vec<String>) {
        if !self.entries.contains_key(&key) {
            self.insert(key, table, base_tables);
        }
    }

    /// Drop every entry whose base tables intersect `touched`, keep the rest
    /// verbatim — the step-I half of delta invalidation. Returns
    /// `(evicted, kept)`.
    fn evict_tables(&mut self, touched: &std::collections::BTreeSet<String>) -> (usize, usize) {
        let before = self.entries.len();
        let mut freed = 0usize;
        self.entries.retain(|_, e| {
            let stale = e.base_tables.iter().any(|t| touched.contains(t));
            if stale {
                freed += e.bytes;
            }
            !stale
        });
        self.bytes -= freed;
        (before - self.entries.len(), self.entries.len())
    }

    /// Evict least-recently-used entries until both bounds hold. An entry larger
    /// than `max_bytes` on its own is evicted too — the bound is honoured even
    /// when that means not caching at all.
    fn evict_to_bounds(&mut self) {
        while self.entries.len() > self.config.max_entries || self.bytes > self.config.max_bytes {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                return;
            };
            if let Some(evicted) = self.entries.remove(&oldest) {
                self.bytes -= evicted.bytes;
            }
        }
    }

    /// A snapshot view for the persistence codec (cheap: clones `Arc`s only).
    fn tables(&self) -> BTreeMap<Vec<u8>, (Arc<PvcTable>, Vec<String>)> {
        self.entries
            .iter()
            .map(|(k, e)| (k.clone(), (Arc::clone(&e.table), e.base_tables.clone())))
            .collect()
    }
}

#[derive(Debug)]
struct Caches {
    /// Step-I rewrites, keyed by [`Query::structural_key`], LRU-bounded. Behind a
    /// `Mutex` (reads refresh recency, so even lookups write); held only for
    /// map operations, never across a rewrite computation.
    rewrites: Mutex<RewriteCache>,
    /// The thread-safe artifact store, shared with every worker thread (and
    /// possibly with other engines, see [`Engine::with_shared_artifacts`]).
    artifacts: Arc<SharedArtifacts>,
}

impl Default for Caches {
    fn default() -> Self {
        Self::with_artifacts(Arc::new(SharedArtifacts::default()))
    }
}

impl Caches {
    fn with_artifacts(artifacts: Arc<SharedArtifacts>) -> Self {
        Caches {
            rewrites: Mutex::new(RewriteCache::new(artifacts.config())),
            artifacts,
        }
    }

    fn with_config(config: CacheConfig) -> Self {
        Self::with_artifacts(Arc::new(SharedArtifacts::new(config)))
    }

    fn rewrites(&self) -> std::sync::MutexGuard<'_, RewriteCache> {
        self.rewrites.lock().expect("rewrite cache lock poisoned")
    }
}

/// FNV-1a over a byte string: the stable scope tag used to attribute cache entries
/// to the query that inserted them (for cross-query hit accounting).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The table names on which a saved per-table fingerprint vector disagrees with
/// the live one: differing digests, or present on only one side. Empty iff the
/// vectors agree entry-for-entry.
fn mismatched_tables(saved: &[(String, u64)], live: &[(String, u64)]) -> BTreeSet<String> {
    let saved_map: BTreeMap<&str, u64> = saved.iter().map(|(n, f)| (n.as_str(), *f)).collect();
    let live_map: BTreeMap<&str, u64> = live.iter().map(|(n, f)| (n.as_str(), *f)).collect();
    let mut mismatch = BTreeSet::new();
    for (name, fp) in &saved_map {
        if live_map.get(name) != Some(fp) {
            mismatch.insert(name.to_string());
        }
    }
    for name in live_map.keys() {
        if !saved_map.contains_key(name) {
            mismatch.insert(name.to_string());
        }
    }
    mismatch
}

/// Decide how much of a snapshot is loadable against `db`: `Ok(empty set)` for
/// an exact fingerprint match, `Ok(mismatched tables)` for a usable partial
/// per-table match (at least one live table agrees), `Err` when nothing is
/// salvageable — every table diverged, or the divergence is invisible to the
/// per-table vector (e.g. a different semiring kind).
fn partial_match(
    snapshot: &pvc_core::Snapshot,
    db: &Database,
    fingerprint: u64,
) -> Result<BTreeSet<String>, Error> {
    if snapshot.fingerprint() == fingerprint {
        return Ok(BTreeSet::new());
    }
    let live = crate::snapshot::database_table_fingerprints(db);
    let mismatch = mismatched_tables(snapshot.table_fingerprints(), &live);
    let matched = live.iter().filter(|(n, _)| !mismatch.contains(n)).count();
    if mismatch.is_empty() || matched == 0 {
        // Refuse with the honest fingerprint diagnosis.
        snapshot.verify_fingerprint(fingerprint)?;
    }
    Ok(mismatch)
}

/// The union of the variable sets of the **live** mismatched tables: every
/// variable a snapshot/database divergence can possibly have re-weighted.
/// (Variables referenced by no live table cannot appear in any future query's
/// provenance, so entries over them are unreachable and need no eviction.)
fn mismatch_var_set(db: &Database, mismatch: &BTreeSet<String>) -> VarSet {
    let mut touched = VarSet::new();
    for name in mismatch {
        if let Some(table) = db.table(name) {
            touched = touched.union(&crate::snapshot::table_var_set(table));
        }
    }
    touched
}

/// The query engine: owns a [`Database`] and a cache of compile artifacts, and hands
/// out validated [`PreparedQuery`] values.
#[derive(Debug)]
pub struct Engine {
    db: Arc<Database>,
    caches: Caches,
    counters: EngineCounters,
    /// The attached delta write-ahead log, if any ([`Engine::attach_wal`]).
    wal: Option<DeltaWal>,
    /// High-water mark of the durable state this engine was built from: the
    /// last WAL sequence number already reflected in the database (restored
    /// snapshot hwm, advanced by replay and by logged applies). Atomic so the
    /// `&self` snapshot/restore paths can read and advance it.
    wal_seq: std::sync::atomic::AtomicU64,
    /// Every delta applied since the base database, with its sequence number:
    /// restored from a snapshot's extra section, extended by replay and by
    /// [`Engine::apply_delta`]. Snapshots embed this journal so a restart
    /// handed the base database can re-derive the snapshotted state — without
    /// it, rotating the WAL after a snapshot would discard the only durable
    /// record of those deltas.
    journal: Vec<(u64, Delta)>,
}

impl Engine {
    /// Create an engine owning the given database (default cache bounds).
    pub fn new(db: Database) -> Self {
        Engine {
            db: Arc::new(db),
            caches: Caches::default(),
            counters: EngineCounters::default(),
            wal: None,
            wal_seq: std::sync::atomic::AtomicU64::new(0),
            journal: Vec::new(),
        }
    }

    /// Create an engine with explicit compile-artifact cache bounds (entry and byte
    /// LRU limits; see [`CacheConfig`]).
    pub fn with_cache_config(db: Database, config: CacheConfig) -> Self {
        Engine {
            db: Arc::new(db),
            caches: Caches::with_config(config),
            counters: EngineCounters::default(),
            wal: None,
            wal_seq: std::sync::atomic::AtomicU64::new(0),
            journal: Vec::new(),
        }
    }

    /// Create an engine backed by an **existing** artifact store, so several engines
    /// over the same database share one arena and one artifact cache (the
    /// multi-tenant serving setup).
    ///
    /// Correctness contract: cached artifacts are functions of (expression
    /// structure, variable distributions, semiring). Sharing is only sound between
    /// engines whose databases agree on the variable table and semiring — e.g.
    /// clones of one database.
    pub fn with_shared_artifacts(db: Database, artifacts: Arc<SharedArtifacts>) -> Self {
        Engine {
            db: Arc::new(db),
            caches: Caches::with_artifacts(artifacts),
            counters: EngineCounters::default(),
            wal: None,
            wal_seq: std::sync::atomic::AtomicU64::new(0),
            journal: Vec::new(),
        }
    }

    /// A handle to the engine's thread-safe artifact store, for sharing with other
    /// engines (see [`Engine::with_shared_artifacts`]).
    pub fn shared_artifacts(&self) -> Arc<SharedArtifacts> {
        Arc::clone(&self.caches.artifacts)
    }

    /// The owned database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Apply a typed batch of mutations — inserts, deletes, probability updates
    /// (see [`Delta`]) — and invalidate **only** what the delta can have touched:
    ///
    /// * artifact-cache entries (cached distributions and compiled d-tree
    ///   arenas) are evicted iff their interned variable set intersects the
    ///   delta's touched variables (`set_probability` targets and the variables
    ///   of deleted tuples; inserts create only fresh variables and touch
    ///   nothing), via [`SharedArtifacts::evict_touching`];
    /// * step-I rewrites are evicted iff one of their base tables was mutated
    ///   (a rewrite depends on table *content*, so any mutation of a base table
    ///   invalidates it);
    /// * everything else — the overwhelming majority under localized updates —
    ///   is kept verbatim, so a prepared query over untouched tables answers
    ///   with zero recompilations.
    ///
    /// Validation runs first and nothing is mutated on error. Ordering within
    /// one delta: probability updates, then deletes (descending row order), then
    /// inserts; all row indices refer to the pre-delta tables.
    ///
    /// Concurrency contract (as for [`Engine::compact_artifacts`]): when the
    /// artifact store is shared via [`Engine::with_shared_artifacts`], no
    /// execution may be in flight on any sharer while a delta that deletes or
    /// re-weights tuples is applied — a concurrent worker could re-insert a
    /// distribution computed from the pre-delta variable table. Insert-only
    /// deltas are safe under sharing (fresh variables cannot collide).
    /// `pvc-serve` enforces this by gating writes on `in_flight == 0`.
    pub fn apply_delta(&mut self, delta: Delta) -> Result<DeltaStats, Error> {
        if delta.is_empty() {
            return Ok(DeltaStats::default());
        }

        // -- Validate everything against the pre-delta database; build the
        // -- mutation plan. Nothing is mutated until validation has passed.
        fn valid_probability(p: f64) -> bool {
            p.is_finite() && (0.0..=1.0).contains(&p)
        }
        let mut inserts: Vec<(String, Vec<Value>, f64)> = Vec::new();
        let mut deletes: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut reprobes: Vec<(pvc_expr::Var, f64)> = Vec::new();
        let mut touched_tables: BTreeSet<String> = BTreeSet::new();
        let mut touched = VarSet::new();
        for op in &delta.ops {
            let table = self.db.table_or_err(&op.table)?;
            touched_tables.insert(op.table.clone());
            let delta_err = |message: String| Error::Delta {
                table: op.table.clone(),
                message,
            };
            match &op.kind {
                DeltaKind::Insert {
                    values,
                    probability,
                } => {
                    if values.len() != table.schema.arity() {
                        return Err(delta_err(format!(
                            "insert arity {} does not match schema arity {}",
                            values.len(),
                            table.schema.arity()
                        )));
                    }
                    if !valid_probability(*probability) {
                        return Err(delta_err(format!(
                            "insert probability {probability} is not in [0, 1]"
                        )));
                    }
                    inserts.push((op.table.clone(), values.clone(), *probability));
                }
                DeltaKind::Delete { row } => {
                    if *row >= table.len() {
                        return Err(delta_err(format!(
                            "delete row {row} out of range (table has {} tuples)",
                            table.len()
                        )));
                    }
                    let rows = deletes.entry(op.table.clone()).or_default();
                    if rows.contains(row) {
                        return Err(delta_err(format!("row {row} deleted twice")));
                    }
                    rows.push(*row);
                    let tuple = &table.tuples[*row];
                    touched = touched.union(&tuple.annotation.vars());
                    for value in &tuple.values {
                        if let Value::Agg(agg) = value {
                            for term in &agg.terms {
                                touched = touched.union(&term.vars());
                            }
                        }
                    }
                }
                DeltaKind::SetProbability { row, probability } => {
                    if *row >= table.len() {
                        return Err(delta_err(format!(
                            "set_probability row {row} out of range (table has {} tuples)",
                            table.len()
                        )));
                    }
                    if !valid_probability(*probability) {
                        return Err(delta_err(format!(
                            "probability {probability} is not in [0, 1]"
                        )));
                    }
                    let var = match &table.tuples[*row].annotation {
                        SemiringExpr::Var(v) => *v,
                        other => {
                            return Err(delta_err(format!(
                                "set_probability requires a single presence variable; \
                                 row {row} is annotated with {other}"
                            )));
                        }
                    };
                    if self.db.vars.kind(var) != SemiringKind::Bool {
                        return Err(delta_err(format!(
                            "set_probability requires a Boolean presence variable; \
                             `{}` is natural-valued",
                            self.db.vars.name(var)
                        )));
                    }
                    reprobes.push((var, *probability));
                    touched.insert(var);
                }
            }
        }

        // -- WAL-before-apply: the validated delta reaches the log (and, under
        // -- `Durability::Always`, stable storage) before any mutation. An
        // -- append failure refuses the whole delta — the database never holds
        // -- state the log does not, so every acknowledged delta is replayable.
        let seq = match self.wal.as_mut() {
            Some(wal) => wal.log(&delta)?,
            // No log attached (plain engines, and replay — which must not
            // re-log): the delta still gets the next sequence number, so the
            // journal and high-water mark stay aligned with any log attached
            // later ([`Engine::attach_wal`] seeds the log from `wal_seq`).
            None => self.wal_seq.load(std::sync::atomic::Ordering::Relaxed) + 1,
        };
        self.wal_seq
            .fetch_max(seq, std::sync::atomic::Ordering::Relaxed);

        // -- Mutate (clone-on-write if the database Arc is shared with streams).
        let stats_reprobed = reprobes.len();
        let mut stats_deleted = 0usize;
        let db = Arc::make_mut(&mut self.db);
        for (var, p) in reprobes {
            db.vars.set_dist(var, pvc_prob::make::bernoulli(p));
        }
        for (name, mut rows) in deletes {
            rows.sort_unstable_by(|a, b| b.cmp(a)); // descending: indices stay valid
            let table = db.table_mut(&name).expect("validated table exists");
            for row in rows {
                table.tuples.remove(row);
                stats_deleted += 1;
            }
        }
        let stats_inserted = inserts.len();
        for (name, values, p) in inserts {
            let (table, vars) = db
                .table_and_vars_mut(&name)
                .expect("validated table exists");
            table.push_independent(values, p, vars);
        }

        // -- Invalidate selectively: artifacts by variable set, rewrites by base
        // -- table. Disjoint entries survive verbatim.
        let eviction = self.caches.artifacts.evict_touching(&touched);
        let (evicted_rewrites, kept_rewrites) =
            self.caches.rewrites().evict_tables(&touched_tables);

        self.journal.push((seq, delta));
        EngineCounters::add(&self.counters.deltas_applied, 1);
        EngineCounters::add(&self.counters.delta_inserted, stats_inserted as u64);
        EngineCounters::add(&self.counters.delta_deleted, stats_deleted as u64);
        EngineCounters::add(&self.counters.delta_reprobed, stats_reprobed as u64);
        EngineCounters::add(
            &self.counters.delta_evicted_artifacts,
            eviction.evicted as u64,
        );
        EngineCounters::add(
            &self.counters.delta_evicted_rewrites,
            evicted_rewrites as u64,
        );
        Ok(DeltaStats {
            inserted: stats_inserted,
            deleted: stats_deleted,
            reprobed: stats_reprobed,
            tables_touched: touched_tables.len(),
            touched_vars: touched.len(),
            evicted_artifacts: eviction.evicted,
            kept_artifacts: eviction.kept,
            evicted_rewrites,
            kept_rewrites,
        })
    }

    /// Attach a delta write-ahead log: every subsequent [`Engine::apply_delta`]
    /// appends the validated delta to `wal` **before** mutating the database
    /// (see [`crate::wal`] for the ordering argument). The log's sequence
    /// counter is advanced to this engine's durable high-water mark first, so
    /// appends never reuse a sequence number an earlier snapshot already
    /// covers.
    pub fn attach_wal(&mut self, mut wal: DeltaWal) {
        wal.set_last_seq(self.wal_seq.load(Ordering::Relaxed));
        self.wal_seq.fetch_max(wal.last_seq(), Ordering::Relaxed);
        self.wal = Some(wal);
    }

    /// Detach and return the write-ahead log (subsequent deltas are no longer
    /// logged).
    pub fn detach_wal(&mut self) -> Option<DeltaWal> {
        self.wal.take()
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&DeltaWal> {
        self.wal.as_ref()
    }

    /// Mutable access to the attached log (e.g. to [`DeltaWal::sync`] a batch
    /// or [`DeltaWal::rotate`] it after an external snapshot).
    pub fn wal_mut(&mut self) -> Option<&mut DeltaWal> {
        self.wal.as_mut()
    }

    /// The last WAL sequence number reflected in this engine's database: the
    /// restored snapshot's high-water mark, advanced by replay and by every
    /// logged [`Engine::apply_delta`]. Embedded in snapshots so a restart
    /// knows where replay starts.
    pub fn wal_high_water(&self) -> u64 {
        self.wal_seq.load(Ordering::Relaxed)
    }

    /// Flush pending WAL appends to stable storage — a no-op unless the
    /// attached log runs under [`pvc_core::persist::wal::Durability::Batch`]
    /// with unsynced appends (the serve layer calls this once per mutation
    /// batch).
    pub fn sync_wal(&mut self) -> Result<(), Error> {
        match self.wal.as_mut() {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// Crash recovery: rebuild a warm engine from the newest snapshot (when
    /// one exists and is valid), replay every delta in the WAL past the
    /// snapshot's high-water mark, and attach the log for future writes.
    ///
    /// Degradation is graceful at every stage, never silent:
    /// * a missing snapshot starts cold (all WAL records replay);
    /// * a torn/corrupt/mismatched snapshot also starts **cold-with-replay**,
    ///   and the typed error is reported in [`RecoveryReport::snapshot_error`];
    /// * a torn WAL tail is truncated by the open (counted in
    ///   [`RecoveryReport::wal_tail_dropped_bytes`]);
    /// * a logged delta that fails to re-apply is a hard [`Error`] — that is
    ///   acknowledged data the engine cannot reconstruct, and serving a
    ///   silently stale database would be wrong in exactly the way this
    ///   subsystem exists to prevent.
    pub fn recover_with(
        storage: Arc<dyn pvc_core::Storage>,
        db: Database,
        options: &RecoverOptions,
    ) -> Result<(Engine, RecoveryReport), Error> {
        let mut report = RecoveryReport::default();
        let mut engine = match options.snapshot_path.as_deref() {
            Some(path) if storage.exists(path) => {
                match Engine::with_artifacts_from_storage(db.clone(), path, storage.as_ref()) {
                    Ok(engine) => {
                        report.snapshot_restored = true;
                        engine
                    }
                    Err(e) => {
                        report.snapshot_error = Some(e.to_string());
                        Engine::with_cache_config(db, options.cache)
                    }
                }
            }
            _ => Engine::with_cache_config(db, options.cache),
        };
        let hwm = engine.wal_high_water();
        let (mut wal, logged) = DeltaWal::open(
            storage,
            &options.wal_path,
            options.tenant.clone(),
            options.durability,
        )?;
        report.wal_tail_dropped_bytes = wal.recovered_tail_dropped_bytes();
        for entry in logged {
            if entry.seq <= hwm {
                report.wal_skipped += 1;
                continue;
            }
            // No WAL is attached yet, so replay applies without re-logging;
            // pre-advancing the counter journals the delta under its original
            // sequence number.
            engine.wal_seq.fetch_max(entry.seq - 1, Ordering::Relaxed);
            engine.apply_delta(entry.delta)?;
            report.wal_replayed += 1;
        }
        report.high_water = engine.wal_high_water().max(wal.last_seq()).max(hwm);
        wal.set_last_seq(report.high_water);
        engine.attach_wal(wal);
        Ok((engine, report))
    }

    /// Consume the engine, returning the database.
    pub fn into_database(self) -> Database {
        Arc::try_unwrap(self.db).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Compact this engine's artifact store: rebuild the hash-consed expression
    /// arena from the **live** cache entries only, retiring every interned node
    /// that no longer backs a cached distribution or compiled d-tree arena (see
    /// [`SharedArtifacts::compact`]). This is what keeps a long-lived serving
    /// process bounded: the LRU bounds cap the *cache* maps, compaction caps the
    /// *arena* they interned into.
    ///
    /// Returns before/after sizes and the new compaction generation.
    ///
    /// Concurrency contract (inherited from [`SharedArtifacts::compact`]): no
    /// execution may be in flight on this store — interned ids are remapped by
    /// the rebuild. `pvc-serve` calls this strictly between batches; with plain
    /// engines, do not call it while a [`TupleStream`] is live.
    pub fn compact_artifacts(&self) -> CompactionStats {
        self.caches.artifacts.compact()
    }

    /// Every counter the engine keeps, in one struct: cache/arena sizes and
    /// behaviour, cumulative delta activity and cumulative snapshot activity.
    /// This is the consolidated retrieval surface; [`Engine::cache_stats`]
    /// remains as a thin delegate to the `cache` section.
    pub fn stats(&self) -> EngineStats {
        let artifacts = &self.caches.artifacts;
        let counters = artifacts.counters();
        let (rewrites, rewrite_bytes) = {
            let rw = self.caches.rewrites();
            (rw.len(), rw.bytes())
        };
        let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        EngineStats {
            cache: CacheStats {
                rewrites,
                rewrite_bytes,
                confidences: artifacts.semiring_entries(),
                aggregates: artifacts.aggregate_entries(),
                interned: artifacts.interned_nodes(),
                bytes: artifacts.bytes(),
                hits: counters.hits,
                misses: counters.misses,
                cross_query_hits: counters.cross_scope_hits,
                evictions: counters.evictions,
                arenas: artifacts.arena_entries(),
                arena_hits: counters.arena_hits,
                arena_misses: counters.arena_misses,
            },
            deltas: DeltaTotals {
                applied: load(&self.counters.deltas_applied),
                inserted: load(&self.counters.delta_inserted),
                deleted: load(&self.counters.delta_deleted),
                reprobed: load(&self.counters.delta_reprobed),
                evicted_artifacts: load(&self.counters.delta_evicted_artifacts),
                evicted_rewrites: load(&self.counters.delta_evicted_rewrites),
            },
            snapshots: SnapshotTotals {
                saves: load(&self.counters.snapshot_saves),
                restores: load(&self.counters.snapshot_restores),
                bytes_written: load(&self.counters.snapshot_bytes_written),
                bytes_read: load(&self.counters.snapshot_bytes_read),
            },
        }
    }

    /// Current sizes and behaviour counters of the compile-artifact caches
    /// (the `cache` section of [`Engine::stats`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.stats().cache
    }

    /// Persist every compile artifact of this engine — the hash-consed
    /// expression arena, the cached distributions and compiled d-tree arenas
    /// (respecting the LRU bounds: only what is cached is written), and the
    /// step-I rewrite cache — into a versioned, checksummed snapshot file, so a
    /// restarted process can come back **warm**
    /// (see [`Engine::with_artifacts_from`]).
    ///
    /// The snapshot embeds a fingerprint of the database (semiring, variable
    /// distributions, table contents); loading it against any other database is
    /// refused with [`Error::Snapshot`]. The format is documented in
    /// `docs/SNAPSHOT_FORMAT.md`.
    ///
    /// ```
    /// use pvc_db::{Database, Engine, EvalOptions, Query, Schema};
    ///
    /// // Deterministic loading code: both "processes" build the same database.
    /// fn build_db() -> Database {
    ///     let mut db = Database::new();
    ///     db.create_table("offers", Schema::new(["shop", "price"]));
    ///     let (offers, vars) = db.table_and_vars_mut("offers").unwrap();
    ///     offers.push_independent(vec!["M&S".into(), 10i64.into()], 0.9, vars);
    ///     offers.push_independent(vec!["Gap".into(), 12i64.into()], 0.8, vars);
    ///     db
    /// }
    ///
    /// let path = std::env::temp_dir().join(format!("pvc-doc-{}.snap", std::process::id()));
    /// let query = Query::table("offers").project(["shop"]);
    ///
    /// // First process: serve traffic, then snapshot the warmed-up artifacts.
    /// let engine = Engine::new(build_db());
    /// let cold = engine.prepare(&query)?.execute(&EvalOptions::default())?;
    /// let stats = engine.save_artifacts(&path)?;
    /// assert!(stats.rewrites >= 1 && stats.bytes > 0);
    ///
    /// // "Restart": a fresh engine starts warm from the snapshot.
    /// let restarted = Engine::with_artifacts_from(build_db(), &path)?;
    /// let warm = restarted.prepare(&query)?.execute(&EvalOptions::default())?;
    /// assert_eq!(cold.tuples.len(), warm.tuples.len());
    /// for (a, b) in cold.tuples.iter().zip(&warm.tuples) {
    ///     assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
    /// }
    /// assert_eq!(restarted.cache_stats().misses, 0); // served entirely from the snapshot
    /// std::fs::remove_file(&path).ok();
    /// # Ok::<(), pvc_db::Error>(())
    /// ```
    pub fn save_artifacts(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<SnapshotStats, Error> {
        self.save_artifacts_with(&pvc_core::FsStorage, path.as_ref())
    }

    /// [`Engine::save_artifacts`] through a pluggable [`pvc_core::Storage`] —
    /// the variant the serve runtime uses so snapshot writes are exercisable
    /// under fault injection. The snapshot records the engine's WAL high-water
    /// mark in its extra section; after the write succeeds the caller may
    /// [`DeltaWal::rotate`] the log up to that mark.
    pub fn save_artifacts_with(
        &self,
        storage: &dyn pvc_core::Storage,
        path: &std::path::Path,
    ) -> Result<SnapshotStats, Error> {
        let fingerprint = crate::snapshot::database_fingerprint(&self.db);
        let table_fps = crate::snapshot::database_table_fingerprints(&self.db);
        let tables = self.caches.rewrites().tables();
        let extra = crate::snapshot::encode_extra(self.wal_high_water(), &self.journal, &tables);
        let n_rewrites = tables.len();
        drop(tables);
        // The counts come from the same locked view as the bytes, so they are
        // exact even when another engine shares (and keeps filling) the store.
        let (bytes, counts) =
            self.caches
                .artifacts
                .snapshot_bytes(fingerprint, &table_fps, Some(&extra));
        pvc_core::persist::write_snapshot_file_with(storage, path, &bytes)?;
        EngineCounters::add(&self.counters.snapshot_saves, 1);
        EngineCounters::add(&self.counters.snapshot_bytes_written, bytes.len() as u64);
        Ok(SnapshotStats {
            interned: counts.interned_exprs + counts.interned_aggs,
            distributions: counts.distributions,
            arenas: counts.arenas,
            rewrites: n_rewrites,
            bytes: bytes.len(),
        })
    }

    /// Create an engine that starts **warm from disk**: a fresh artifact store
    /// (with the snapshot's cache bounds) and rewrite cache are rebuilt from a
    /// snapshot previously written by [`Engine::save_artifacts`].
    ///
    /// `db` must be the same database the snapshot was recorded against
    /// (typically rebuilt by the same deterministic loading code); a fingerprint
    /// mismatch, corrupted/truncated file or unsupported format version is
    /// refused with a typed [`Error::Snapshot`] — never a panic, and never a
    /// silently-wrong warm cache. Results are bit-identical to a cold engine;
    /// only the first-query latency changes. See [`Engine::save_artifacts`] for
    /// a runnable end-to-end example and [`Engine::restore_artifacts`] for
    /// merging a snapshot into an already-running engine.
    /// **Delta survival**: when the database diverges from the snapshot on only
    /// *some* tables (the typical post-[`Engine::apply_delta`] restart), the
    /// snapshot's per-table fingerprint vector pinpoints them, and the load
    /// proceeds **partially**: artifacts over the mismatched tables' variables
    /// and rewrites over mismatched base tables are dropped, everything else is
    /// restored warm. Only when *no* table matches (a genuinely different
    /// database) is the snapshot refused outright.
    pub fn with_artifacts_from(
        db: Database,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Engine, Error> {
        Engine::with_artifacts_from_storage(db, path.as_ref(), &pvc_core::FsStorage)
    }

    /// [`Engine::with_artifacts_from`] through a pluggable
    /// [`pvc_core::Storage`]. Also restores the snapshot's WAL high-water mark
    /// (see [`Engine::wal_high_water`]), which [`Engine::recover_with`] uses to
    /// decide where log replay starts.
    pub fn with_artifacts_from_storage(
        db: Database,
        path: &std::path::Path,
        storage: &dyn pvc_core::Storage,
    ) -> Result<Engine, Error> {
        let bytes = pvc_core::persist::read_snapshot_file_with(storage, path)?;
        let snapshot = pvc_core::persist::decode_snapshot(&bytes)?;
        let (hwm, journal, rewrite_bytes) = match snapshot.extra() {
            Some(extra) => {
                let (hwm, journal_bytes, rewrite_bytes) = crate::snapshot::decode_extra(extra)?;
                let journal = crate::snapshot::decode_journal(journal_bytes)?;
                (hwm, journal, Some(rewrite_bytes))
            }
            None => (0, Vec::new(), None),
        };
        // A snapshot taken after deltas fingerprints the *mutated* database,
        // while crash recovery is handed the deterministically-reloaded base
        // one (tenant rows are never persisted in artifact snapshots). When
        // the fingerprints disagree and the snapshot carries a journal,
        // re-derive the snapshotted state by replaying the journal onto the
        // base — this, not the (possibly rotated) WAL, is the durable record
        // of those acknowledged deltas. A database that already matches
        // (live restart with the mutated state in hand) skips the replay:
        // applying the journal twice would corrupt it.
        let direct = crate::snapshot::database_fingerprint(&db);
        let db = if journal.is_empty() || direct == snapshot.fingerprint() {
            db
        } else {
            let mut replayer = Engine::new(db);
            for (_, delta) in &journal {
                replayer.apply_delta(delta.clone()).map_err(|e| {
                    Error::Snapshot(pvc_core::PersistError::Format(format!(
                        "snapshot delta journal does not re-apply to the provided database \
                         (is it the original base?): {e}"
                    )))
                })?;
            }
            replayer.into_database()
        };
        // Fingerprint next (the honest-mismatch diagnosis), then the variable
        // bound (defence in depth against crafted files — the checksum is
        // integrity, not authentication).
        let fingerprint = crate::snapshot::database_fingerprint(&db);
        let mismatch = partial_match(&snapshot, &db, fingerprint)?;
        snapshot.verify_variables(db.vars.len())?;
        let (store, _) = SharedArtifacts::from_snapshot(&snapshot, snapshot.fingerprint())?;
        if !mismatch.is_empty() {
            store.evict_touching(&mismatch_var_set(&db, &mismatch));
        }
        let mut engine = Engine::with_shared_artifacts(db, Arc::new(store));
        engine.wal_seq.fetch_max(hwm, Ordering::Relaxed);
        engine.journal = journal;
        if let Some(rewrite_bytes) = rewrite_bytes {
            let rewrites = crate::snapshot::decode_rewrites(rewrite_bytes, engine.db.vars.len())?;
            let mut live = engine.caches.rewrites();
            for (key, (table, bases)) in rewrites {
                if bases.iter().any(|b| mismatch.contains(b)) {
                    continue; // rewrites depend on base-table content
                }
                live.insert(key, table, bases);
            }
            drop(live);
        }
        EngineCounters::add(&engine.counters.snapshot_restores, 1);
        EngineCounters::add(&engine.counters.snapshot_bytes_read, bytes.len() as u64);
        Ok(engine)
    }

    /// Merge a snapshot into this engine's **live** store: interned ids are
    /// remapped onto the live arena (shared structure deduplicates), cache
    /// entries are inserted under this engine's LRU bounds, and restored
    /// rewrites fill gaps without displacing live entries. The snapshot's
    /// fingerprint must match this engine's database.
    ///
    /// This is the multi-tenant / already-running variant of
    /// [`Engine::with_artifacts_from`]; every engine sharing this store (via
    /// [`Engine::with_shared_artifacts`]) sees the restored artifacts.
    /// Like [`Engine::with_artifacts_from`], a **partial** per-table fingerprint
    /// match is honoured: entries over diverged tables are skipped/evicted, the
    /// rest merges in warm.
    pub fn restore_artifacts(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<SnapshotStats, Error> {
        let bytes = pvc_core::persist::read_snapshot_file(path)?;
        let snapshot = pvc_core::persist::decode_snapshot(&bytes)?;
        let fingerprint = crate::snapshot::database_fingerprint(&self.db);
        let mismatch = partial_match(&snapshot, &self.db, fingerprint)?;
        snapshot.verify_variables(self.db.vars.len())?;
        let stats = self
            .caches
            .artifacts
            .restore_snapshot(&snapshot, snapshot.fingerprint())?;
        if !mismatch.is_empty() {
            self.caches
                .artifacts
                .evict_touching(&mismatch_var_set(&self.db, &mismatch));
        }
        let mut rewrites = 0usize;
        if let Some(extra) = snapshot.extra() {
            // The delta journal is recovery-only (see
            // [`Engine::with_artifacts_from_storage`]): a live merge cannot
            // re-apply deltas to a database that is already serving. The
            // high-water mark is honoured only on an exact match — under a
            // partial match this engine's database provably does not contain
            // everything the snapshot's mark covers.
            let (hwm, _journal_bytes, rewrite_bytes) = crate::snapshot::decode_extra(extra)?;
            if mismatch.is_empty() {
                self.wal_seq.fetch_max(hwm, Ordering::Relaxed);
            }
            let restored = crate::snapshot::decode_rewrites(rewrite_bytes, self.db.vars.len())?;
            let mut live = self.caches.rewrites();
            for (key, (table, bases)) in restored {
                if bases.iter().any(|b| mismatch.contains(b)) {
                    continue;
                }
                rewrites += 1;
                live.insert_if_absent(key, table, bases);
            }
        }
        EngineCounters::add(&self.counters.snapshot_restores, 1);
        EngineCounters::add(&self.counters.snapshot_bytes_read, bytes.len() as u64);
        Ok(SnapshotStats {
            interned: stats.interned_exprs + stats.interned_aggs,
            distributions: stats.distributions,
            arenas: stats.arenas,
            rewrites,
            bytes: bytes.len(),
        })
    }

    /// Validate a query, compute its output schema, classify it against the §6
    /// tractability classes, and record the chosen strategy in a [`Plan`].
    ///
    /// Returns [`Error::Validation`] for every query that violates Definition 5 or
    /// references unknown tables/columns — nothing in the prepared pipeline panics on
    /// malformed input.
    ///
    /// ```
    /// use pvc_db::{Database, Engine, EvalOptions, Query, Schema, Strategy};
    ///
    /// let mut db = Database::new();
    /// db.create_table("S", Schema::new(["sid", "shop"]));
    /// let (s, vars) = db.table_and_vars_mut("S")?;
    /// s.push_independent(vec![1i64.into(), "M&S".into()], 0.4, vars);
    ///
    /// let engine = Engine::new(db);
    /// let prepared = engine.prepare(&Query::table("S").project(["shop"]))?;
    /// // A projection of a tuple-independent table is in Q_ind (Definition 8).
    /// assert_eq!(prepared.plan().strategy, Strategy::IndependentFastPath);
    /// assert_eq!(prepared.schema().names(), vec!["shop"]);
    /// let result = prepared.execute(&EvalOptions::default())?;
    /// assert!((result.tuples[0].confidence - 0.4).abs() < 1e-12);
    /// // Unknown tables surface as typed validation errors, not panics.
    /// assert!(engine.prepare(&Query::table("missing")).is_err());
    /// # Ok::<(), pvc_db::Error>(())
    /// ```
    pub fn prepare(&self, query: &Query) -> Result<PreparedQuery<'_>, Error> {
        let _span = obs::span("prepare");
        let plan = plan_query(&self.db, query)?;
        Ok(PreparedQuery {
            engine: self,
            query: query.clone(),
            plan,
        })
    }

    /// One-shot evaluation without an engine (no caching): validate, rewrite,
    /// compute probabilities. Prefer [`Engine::prepare`] for anything executed
    /// more than once.
    ///
    /// [`EvalOptions::threads`] is honoured; parallel workers need owning handles,
    /// so the database is cloned once — but only when the execution actually runs
    /// on more than one worker (a request for `threads = 0` on a single-core
    /// machine, or a result too small to share, stays clone-free).
    pub fn execute_once(
        db: &Database,
        query: &Query,
        options: &EvalOptions,
    ) -> Result<QueryResult, Error> {
        let plan = plan_query(db, query)?;
        let query_span = obs::span("query");
        let (table, scope, rewrite_time) = {
            let _s = obs::span("rewrite");
            step_one(db, query, &plan, None)?
        };
        if let Some(s) = &query_span {
            s.attr("structural_key", format!("{scope:016x}"));
        }
        let try_fast = allow_fast_path(db, &plan, options);
        let threads = resolve_threads(options.threads, table.tuples.len());
        if threads <= 1 {
            run_sequential(db, &table, options, try_fast, None, scope, rewrite_time)
        } else {
            run_parallel(
                Arc::new(db.clone()),
                table,
                options,
                try_fast,
                None,
                scope,
                rewrite_time,
                threads,
            )
        }
    }
}

/// A query that has been validated and planned by [`Engine::prepare`], ready for
/// (repeated) execution.
#[derive(Debug)]
pub struct PreparedQuery<'e> {
    engine: &'e Engine,
    query: Query,
    plan: Plan,
}

impl PreparedQuery<'_> {
    /// The plan recorded at preparation time.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The validated output schema.
    pub fn schema(&self) -> &Schema {
        &self.plan.schema
    }

    /// The prepared query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Run steps I+II under the given options, materialising the whole result.
    /// Step I is cached across executions of the same query on this engine; step II
    /// reuses previously compiled confidences and aggregate distributions, and runs
    /// on [`EvalOptions::threads`] workers. Implemented over the same per-tuple
    /// pipeline as [`execute_streaming`](Self::execute_streaming), so results are
    /// identical for every thread count.
    pub fn execute(&self, options: &EvalOptions) -> Result<QueryResult, Error> {
        execute_pipeline(
            &self.engine.db,
            &self.query,
            &self.plan,
            options,
            Some(&self.engine.caches),
        )
    }

    /// Run steps I+II, returning a [`TupleStream`] that yields result tuples **in
    /// deterministic tuple order, as they are computed** by background workers.
    ///
    /// Step I (the rewriting) runs synchronously before this returns — it is
    /// inherently sequential and produces the tuple list the workers share. Step II
    /// is then computed by [`EvalOptions::threads`] worker threads (at least one:
    /// even `threads = 1` computes in the background, overlapping production with
    /// consumption). Dropping the stream cancels the remaining work and joins the
    /// workers; consuming it fully yields exactly the tuples
    /// [`execute`](Self::execute) would have returned.
    ///
    /// ```
    /// use pvc_db::{Database, Engine, EvalOptions, Query, Schema};
    ///
    /// let mut db = Database::new();
    /// db.create_table("S", Schema::new(["sid"]));
    /// let (s, vars) = db.table_and_vars_mut("S")?;
    /// for i in 0..10 {
    ///     s.push_independent(vec![(i as i64).into()], 0.5, vars);
    /// }
    ///
    /// let engine = Engine::new(db);
    /// let prepared = engine.prepare(&Query::table("S"))?;
    /// let stream = prepared.execute_streaming(&EvalOptions::default().with_threads(2))?;
    /// assert_eq!(stream.total_tuples(), 10);
    /// // Tuples arrive in deterministic order as workers finish them.
    /// let confidences: Vec<f64> = stream
    ///     .map(|tuple| tuple.map(|t| t.confidence))
    ///     .collect::<Result<_, _>>()?;
    /// assert_eq!(confidences.len(), 10);
    /// # Ok::<(), pvc_db::Error>(())
    /// ```
    pub fn execute_streaming(&self, options: &EvalOptions) -> Result<TupleStream, Error> {
        let engine = self.engine;
        let query_span = obs::span("query");
        let (table, scope, rewrite_time) = {
            let _s = obs::span("rewrite");
            step_one(&engine.db, &self.query, &self.plan, Some(&engine.caches))?
        };
        if let Some(s) = &query_span {
            s.attr("structural_key", format!("{scope:016x}"));
        }
        // Workers run per-tuple spans; the coordinator-level evaluate span is
        // counted here once (the stream outlives this call).
        let _evaluate_span = obs::span("evaluate");
        let artifacts = artifact_handle(options, Some(&engine.caches));
        let try_fast = allow_fast_path(&engine.db, &self.plan, options);
        let threads = resolve_threads(options.threads, table.tuples.len());
        spawn_stream(
            Arc::clone(&engine.db),
            table,
            options.clone(),
            try_fast,
            artifacts,
            scope,
            rewrite_time,
            threads,
        )
    }
}

/// Validate + classify: the planning half of `prepare`.
fn plan_query(db: &Database, query: &Query) -> Result<Plan, Error> {
    let schema = query.output_schema(db).map_err(Error::Validation)?;
    let class = classify(query, db);
    // Once per distinct table: the check scans every tuple, and a query may mention
    // a table several times.
    let base_tables = query.base_tables();
    let mut distinct = base_tables.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let tuple_independent_input = distinct.iter().all(|name| {
        db.table(name)
            .map(PvcTable::is_tuple_independent)
            .unwrap_or(false)
    });
    let strategy = match class {
        QueryClass::Qind => Strategy::IndependentFastPath,
        QueryClass::Qhie => Strategy::HierarchicalFastPath,
        QueryClass::General => Strategy::GeneralCompilation,
    };
    Ok(Plan {
        class,
        strategy,
        schema,
        non_repeating: distinct.len() == base_tables.len(),
        base_tables: base_tables.iter().map(|s| s.to_string()).collect(),
        tuple_independent_input,
    })
}

/// Whether this execution may use the §6 read-once fast paths.
fn allow_fast_path(db: &Database, plan: &Plan, options: &EvalOptions) -> bool {
    options.tractable_fast_path && plan.strategy.is_tractable() && db.kind == SemiringKind::Bool
}

/// The artifact store this execution should use: `None` when a node budget makes
/// compilation observably fallible (cached successes computed without — or with a
/// different — budget must not mask the error), the engine's shared store
/// otherwise. Every other option only changes *how* the exact result is computed,
/// never the result.
fn artifact_handle(options: &EvalOptions, caches: Option<&Caches>) -> Option<Arc<SharedArtifacts>> {
    if options.compile.node_budget.is_some() {
        None
    } else {
        caches.map(|c| Arc::clone(&c.artifacts))
    }
}

/// Step I: the rewriting `⟦·⟧`, cached per canonical query key. The query was
/// already validated by `prepare`, so the cold path skips re-validation and stamps
/// the plan's schema directly. Returns the result table, the scope tag attributing
/// artifact-cache inserts to this query, and the elapsed time.
fn step_one(
    db: &Database,
    query: &Query,
    plan: &Plan,
    caches: Option<&Caches>,
) -> Result<(Arc<PvcTable>, u64, Duration), Error> {
    let start = Instant::now();
    let key = query.structural_key();
    let scope = fnv64(&key);
    let cached = caches.and_then(|c| c.rewrites().get(&key));
    let table = match cached {
        Some(table) => table,
        None => {
            let mut table = crate::exec::rewrite_planned(db, query)?;
            table.schema = plan.schema.clone();
            table.name = "result".to_string();
            let table = Arc::new(table);
            if let Some(c) = caches {
                c.rewrites()
                    .insert(key, Arc::clone(&table), plan.base_tables.clone());
            }
            table
        }
    };
    Ok((table, scope, start.elapsed()))
}

/// Per-execution fast-path counters, shared across workers.
#[derive(Debug, Default)]
struct TupleCounters {
    fast_path_hits: AtomicUsize,
    agg_fast_path_hits: AtomicUsize,
}

/// A per-tuple profile fragment: the tuple's span tree plus the number of spans
/// its bounded ring dropped.
type TupleProfile = (obs::ProfileNode, u64);

/// One streamed worker result: tuple index, outcome, and its profile fragment.
type StreamedTuple = (usize, Result<ProbTuple, Error>, Option<TupleProfile>);

/// [`tuple_result`] wrapped in per-tuple observability: a `tuple` span (counted
/// in global tracing mode), and — in profile mode — a thread-local [`obs::Trace`]
/// capturing the tuple's full span tree, with the kernel dispatch counts
/// (dense/sparse) attributed deterministically via `pvc_prob`'s thread-local
/// capture. Per-tuple work is single-threaded regardless of `threads`, so the
/// resulting tree does not depend on the worker count.
#[allow(clippy::too_many_arguments)]
fn tuple_result_traced(
    db: &Database,
    table: &PvcTable,
    index: usize,
    options: &EvalOptions,
    try_fast: bool,
    artifacts: Option<&SharedArtifacts>,
    scope: u64,
    counters: &TupleCounters,
) -> Result<(ProbTuple, Option<TupleProfile>), Error> {
    if !options.profile {
        let _span = obs::span("tuple");
        let tuple = tuple_result(
            db, table, index, options, try_fast, artifacts, scope, counters,
        )?;
        return Ok((tuple, None));
    }
    let trace = Rc::new(obs::Trace::new(obs::DEFAULT_TRACE_CAPACITY));
    let result = obs::with_trace(Rc::clone(&trace), || {
        let span = obs::span("tuple");
        let prior = pvc_prob::begin_tuple_capture();
        let result = tuple_result(
            db, table, index, options, try_fast, artifacts, scope, counters,
        );
        let (dense, sparse) = pvc_prob::take_tuple_capture(prior);
        if let Some(s) = &span {
            s.attr("index", index.to_string());
            s.attr("kernel_dense", dense.to_string());
            s.attr("kernel_sparse", sparse.to_string());
        }
        result
    });
    let tuple = result?;
    let (mut roots, dropped) = obs::profile_nodes(&trace);
    let node = if roots.len() == 1 {
        roots.pop().expect("one root")
    } else {
        // Ring overflow orphaned some spans: collect them under a synthetic node.
        let mut node = obs::ProfileNode::new("tuple");
        node.children = roots;
        node
    };
    Ok((tuple, Some((node, dropped))))
}

/// Compute one result tuple: its confidence and (when requested) the distribution
/// of every aggregation attribute. This is the per-tuple unit of work shared by the
/// sequential path and every parallel worker — a pure function of the tuple, so
/// output does not depend on which thread runs it.
#[allow(clippy::too_many_arguments)]
fn tuple_result(
    db: &Database,
    table: &PvcTable,
    index: usize,
    options: &EvalOptions,
    try_fast: bool,
    artifacts: Option<&SharedArtifacts>,
    scope: u64,
    counters: &TupleCounters,
) -> Result<ProbTuple, Error> {
    let tuple = &table.tuples[index];
    let confidence = tuple_confidence(
        db,
        &tuple.annotation,
        options,
        try_fast,
        artifacts,
        scope,
        counters,
    )?;
    let mut aggregate_distributions = BTreeMap::new();
    if options.aggregate_distributions {
        for (column, value) in table.schema.columns().iter().zip(&tuple.values) {
            if let Value::Agg(expr) = value {
                let dist = aggregate_distribution(
                    db, expr, options, try_fast, artifacts, scope, counters,
                )?;
                aggregate_distributions.insert(column.name.clone(), dist);
            }
        }
    }
    Ok(ProbTuple {
        values: tuple.values.clone(),
        confidence,
        aggregate_distributions,
    })
}

/// Assemble the final [`QueryResult`] from drained tuples, timings and final
/// fast-path counts.
fn assemble_result(
    table: &PvcTable,
    tuples: Vec<ProbTuple>,
    rewrite_time: Duration,
    probability_time: Duration,
    fast_path_hits: usize,
    agg_fast_path_hits: usize,
    threads: usize,
) -> QueryResult {
    QueryResult {
        columns: table
            .schema
            .names()
            .into_iter()
            .map(str::to_string)
            .collect(),
        tuples,
        rewrite_time,
        probability_time,
        fast_path_hits,
        agg_fast_path_hits,
        threads,
        profile: None,
    }
}

/// Assemble the [`obs::ExecutionProfile`] of one materialising execution from the
/// coordinator timings and the per-tuple span trees (in tuple order).
fn build_profile(
    scope: u64,
    rewrite_time: Duration,
    probability_time: Duration,
    tuple_profiles: Vec<TupleProfile>,
) -> obs::ExecutionProfile {
    let mut dropped_spans = 0;
    let mut evaluate = obs::ProfileNode::new("evaluate");
    evaluate.dur_ns = probability_time.as_nanos().min(u64::MAX as u128) as u64;
    for (node, dropped) in tuple_profiles {
        dropped_spans += dropped;
        evaluate.children.push(node);
    }
    let mut rewrite = obs::ProfileNode::new("rewrite");
    rewrite.dur_ns = rewrite_time.as_nanos().min(u64::MAX as u128) as u64;
    let mut root = obs::ProfileNode::new("query");
    root.attrs
        .push(("structural_key".to_string(), format!("{scope:016x}")));
    root.dur_ns = rewrite.dur_ns.saturating_add(evaluate.dur_ns);
    root.children = vec![rewrite, evaluate];
    obs::ExecutionProfile {
        root,
        dropped_spans,
    }
}

/// Step II inline in the calling thread — no worker threads, no channel — so
/// cheap executions pay no spawn overhead. Shared by [`execute_pipeline`]'s
/// single-thread branch and [`Engine::execute_once`].
fn run_sequential(
    db: &Database,
    table: &PvcTable,
    options: &EvalOptions,
    try_fast: bool,
    artifacts: Option<&SharedArtifacts>,
    scope: u64,
    rewrite_time: Duration,
) -> Result<QueryResult, Error> {
    let start = Instant::now();
    let counters = TupleCounters::default();
    let mut tuples = Vec::with_capacity(table.tuples.len());
    let mut tuple_profiles: Vec<TupleProfile> = Vec::new();
    {
        let _evaluate_span = obs::span("evaluate");
        for index in 0..table.tuples.len() {
            let (tuple, profile) = tuple_result_traced(
                db, table, index, options, try_fast, artifacts, scope, &counters,
            )?;
            tuples.push(tuple);
            if let Some(p) = profile {
                tuple_profiles.push(p);
            }
        }
    }
    let probability_time = start.elapsed();
    let mut result = assemble_result(
        table,
        tuples,
        rewrite_time,
        probability_time,
        counters.fast_path_hits.load(Ordering::Relaxed),
        counters.agg_fast_path_hits.load(Ordering::Relaxed),
        1,
    );
    if options.profile {
        result.profile = Some(build_profile(
            scope,
            rewrite_time,
            probability_time,
            tuple_profiles,
        ));
    }
    Ok(result)
}

/// Step II on `threads` workers: spawn a stream and drain it. Shared by
/// [`execute_pipeline`]'s parallel branch and [`Engine::execute_once`].
#[allow(clippy::too_many_arguments)]
fn run_parallel(
    db: Arc<Database>,
    table: Arc<PvcTable>,
    options: &EvalOptions,
    try_fast: bool,
    artifacts: Option<Arc<SharedArtifacts>>,
    scope: u64,
    rewrite_time: Duration,
    threads: usize,
) -> Result<QueryResult, Error> {
    let start = Instant::now();
    let mut stream = spawn_stream(
        db,
        Arc::clone(&table),
        options.clone(),
        try_fast,
        artifacts,
        scope,
        rewrite_time,
        threads,
    )?;
    let mut tuples = Vec::with_capacity(stream.total_tuples());
    {
        let _evaluate_span = obs::span("evaluate");
        for item in &mut stream {
            // The first error (in tuple order) wins, exactly as in the sequential
            // loop; dropping the stream cancels and joins the workers.
            tuples.push(item?);
        }
    }
    let probability_time = start.elapsed();
    let (fast, agg) = (stream.fast_path_hits(), stream.agg_fast_path_hits());
    let tuple_profiles = options.profile.then(|| stream.take_profiles());
    let mut result = assemble_result(
        &table,
        tuples,
        rewrite_time,
        probability_time,
        fast,
        agg,
        threads,
    );
    if let Some(profiles) = tuple_profiles {
        result.profile = Some(build_profile(
            scope,
            rewrite_time,
            probability_time,
            profiles,
        ));
    }
    Ok(result)
}

/// Steps I+II with optional caching, materialising the whole result.
fn execute_pipeline(
    db: &Arc<Database>,
    query: &Query,
    plan: &Plan,
    options: &EvalOptions,
    caches: Option<&Caches>,
) -> Result<QueryResult, Error> {
    let query_span = obs::span("query");
    let (table, scope, rewrite_time) = {
        let _s = obs::span("rewrite");
        step_one(db, query, plan, caches)?
    };
    if let Some(s) = &query_span {
        s.attr("structural_key", format!("{scope:016x}"));
    }
    let artifacts = artifact_handle(options, caches);
    let try_fast = allow_fast_path(db, plan, options);
    let threads = resolve_threads(options.threads, table.tuples.len());
    if threads <= 1 {
        run_sequential(
            db,
            &table,
            options,
            try_fast,
            artifacts.as_deref(),
            scope,
            rewrite_time,
        )
    } else {
        run_parallel(
            Arc::clone(db),
            table,
            options,
            try_fast,
            artifacts,
            scope,
            rewrite_time,
            threads,
        )
    }
}

/// Pooled-mode lifecycle state: how many pool jobs of this stream are currently
/// running, and whether the stream was cancelled before they started.
#[derive(Debug, Default)]
struct GateState {
    cancelled: bool,
    active: usize,
}

/// Pooled-mode quiescence gate. Spawned threads are joined by handle; pool
/// jobs have no handle, so dropping the stream instead waits here until
/// every started job has exited (queued-but-unstarted jobs observe
/// `cancelled` under this lock and become no-ops). Checking the flag and
/// counting the job under **one** lock is what makes the drop race-free: a
/// job either sees the cancellation or is counted before the drop starts
/// waiting.
///
/// The gate lives in an `Arc` of its own, apart from [`StreamShared`]: a job owns
/// the gate but only a `Weak` to the shared state, which it upgrades *inside* the
/// gated scope. Once the stream's drop returns, no job — finished, or still queued
/// on the pool — keeps the `Arc<Database>` alive, so [`Engine::into_database`]
/// after a drained stream hands the database back instead of cloning it.
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

/// State shared between the consumer of a [`TupleStream`] and its workers.
#[derive(Debug)]
struct StreamShared {
    db: Arc<Database>,
    table: Arc<PvcTable>,
    options: EvalOptions,
    try_fast: bool,
    artifacts: Option<Arc<SharedArtifacts>>,
    scope: u64,
    counters: TupleCounters,
    /// Set when the stream is dropped: workers stop claiming tuples.
    cancel: AtomicBool,
    /// The next unclaimed tuple index (dynamic work distribution).
    cursor: AtomicUsize,
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

fn worker_loop(shared: &StreamShared, sender: &SyncSender<StreamedTuple>) {
    loop {
        if shared.cancel.load(Ordering::Relaxed) {
            return;
        }
        let index = shared.cursor.fetch_add(1, Ordering::Relaxed);
        if index >= shared.table.tuples.len() {
            return;
        }
        // A panic inside per-tuple evaluation (a bug) must still deliver *some*
        // item for the claimed index: if it were swallowed, the consumer would
        // keep buffering every later tuple waiting for this one — unbounded
        // memory and an arbitrarily late error. Caught here, it surfaces as an
        // in-order `Error::Worker` instead.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tuple_result_traced(
                &shared.db,
                &shared.table,
                index,
                &shared.options,
                shared.try_fast,
                shared.artifacts.as_deref(),
                shared.scope,
                &shared.counters,
            )
        }))
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
        let (result, profile) = match outcome {
            Ok((tuple, profile)) => (Ok(tuple), profile),
            Err(e) => (Err(e), None),
        };
        // A send error means the consumer dropped the stream: stop quietly.
        if sender.send((index, result, profile)).is_err() {
            return;
        }
    }
}

/// Spawn the worker pool for one execution and wrap it in a [`TupleStream`].
#[allow(clippy::too_many_arguments)]
fn spawn_stream(
    db: Arc<Database>,
    table: Arc<PvcTable>,
    mut options: EvalOptions,
    try_fast: bool,
    artifacts: Option<Arc<SharedArtifacts>>,
    scope: u64,
    rewrite_time: Duration,
    threads: usize,
) -> Result<TupleStream, Error> {
    let total = table.tuples.len();
    let columns = table
        .schema
        .names()
        .into_iter()
        .map(str::to_string)
        .collect();
    // Take the pool handle *out* of the options the stream retains: jobs hold
    // `Arc<StreamShared>`, and a pool must never be kept alive (and eventually
    // dropped, which joins its workers) from one of its own worker threads.
    let pool = options.pool.take();
    let shared = Arc::new(StreamShared {
        db,
        table,
        options,
        try_fast,
        artifacts,
        scope,
        counters: TupleCounters::default(),
        cancel: AtomicBool::new(false),
        cursor: AtomicUsize::new(0),
    });
    let gate = Arc::new(StreamGate::default());
    // Bounded channel: workers run at most a small window ahead of the consumer,
    // so a slow consumer of a huge result does not buffer the whole result set.
    let (sender, receiver) =
        std::sync::mpsc::sync_channel::<(usize, Result<ProbTuple, Error>, Option<TupleProfile>)>(
            threads * 2 + 2,
        );
    if let Some(pool) = pool {
        // Pooled mode: submit the worker loops as jobs on the persistent pool
        // instead of spawning threads. More jobs than pool workers cannot run
        // concurrently (they would only claim an empty cursor after the loop
        // ends), so cap at the pool width.
        let jobs = threads.min(pool.threads()).max(1);
        for _ in 0..jobs {
            let worker_gate = Arc::clone(&gate);
            let worker_shared = Arc::downgrade(&shared);
            let worker_sender = sender.clone();
            pool.execute(move || {
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
            });
        }
        drop(sender);
        return Ok(TupleStream {
            columns,
            rewrite_time,
            total,
            threads: jobs,
            receiver: Some(receiver),
            reassembly: OrderedReassembly::new(),
            profiles: Vec::new(),
            shared,
            gate,
            workers: Vec::new(),
            poisoned: false,
        });
    }
    let mut workers = Vec::with_capacity(threads);
    for worker in 0..threads {
        let worker_shared = Arc::clone(&shared);
        let worker_sender = sender.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("pvc-tuple-worker-{worker}"))
            .spawn(move || worker_loop(&worker_shared, &worker_sender));
        match spawned {
            Ok(handle) => workers.push(handle),
            Err(e) => {
                // Honour the no-detached-threads contract even on a failed spawn
                // (typically thread-limit exhaustion — exactly when strays hurt):
                // stop and join the workers that did start before reporting.
                shared.cancel.store(true, Ordering::Relaxed);
                drop(sender);
                drop(receiver);
                for handle in workers {
                    let _ = handle.join();
                }
                return Err(Error::Worker(format!("failed to spawn worker thread: {e}")));
            }
        }
    }
    drop(sender);
    Ok(TupleStream {
        columns,
        rewrite_time,
        total,
        threads,
        receiver: Some(receiver),
        reassembly: OrderedReassembly::new(),
        profiles: Vec::new(),
        shared,
        gate,
        workers,
        poisoned: false,
    })
}

/// A streaming query result: an iterator over `Result<ProbTuple, Error>` that
/// yields tuples **in deterministic tuple order** while background workers compute
/// them (see [`PreparedQuery::execute_streaming`]).
///
/// * Partial consumption is safe: dropping the stream sets a cancel flag, closes
///   the channel and joins every worker — no detached threads outlive it.
/// * An `Err` item reports the failure of that specific tuple (e.g. a node-budget
///   abort); later tuples may still follow.
/// * After the stream is exhausted, [`fast_path_hits`](Self::fast_path_hits) /
///   [`agg_fast_path_hits`](Self::agg_fast_path_hits) report the execution's
///   fast-path counters.
#[derive(Debug)]
pub struct TupleStream {
    columns: Vec<String>,
    rewrite_time: Duration,
    total: usize,
    threads: usize,
    receiver: Option<Receiver<StreamedTuple>>,
    reassembly: OrderedReassembly<Result<ProbTuple, Error>>,
    /// Per-tuple profile fragments received so far (profile mode only), keyed by
    /// tuple index — arrival order is nondeterministic, so they are sorted when
    /// taken.
    profiles: Vec<(usize, TupleProfile)>,
    shared: Arc<StreamShared>,
    gate: Arc<StreamGate>,
    workers: Vec<JoinHandle<()>>,
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
        self.rewrite_time
    }

    /// Total number of result tuples this stream will yield.
    pub fn total_tuples(&self) -> usize {
        self.total
    }

    /// Number of worker threads computing tuples.
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
    pub(crate) fn take_profiles(&mut self) -> Vec<TupleProfile> {
        let mut profiles = std::mem::take(&mut self.profiles);
        profiles.sort_by_key(|(index, _)| *index);
        profiles.into_iter().map(|(_, profile)| profile).collect()
    }
}

impl Iterator for TupleStream {
    type Item = Result<ProbTuple, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.poisoned || self.reassembly.next_index() >= self.total {
            return None;
        }
        loop {
            if let Some(item) = self.reassembly.pop() {
                return Some(item);
            }
            let receiver = self.receiver.as_ref()?;
            match receiver.recv() {
                Ok((index, result, profile)) => {
                    if let Some(profile) = profile {
                        self.profiles.push((index, profile));
                    }
                    self.reassembly.push(index, result)
                }
                Err(_) => {
                    // Every sender hung up before all tuples were delivered: a
                    // worker panicked. Surface it instead of silently truncating.
                    self.poisoned = true;
                    return Some(Err(Error::Worker(format!(
                        "worker thread exited before delivering tuple {} of {}",
                        self.reassembly.next_index(),
                        self.total
                    ))));
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.poisoned {
            return (0, Some(0));
        }
        let remaining = self.total - self.reassembly.next_index();
        (remaining, Some(remaining))
    }
}

impl Drop for TupleStream {
    fn drop(&mut self) {
        self.shared.cancel.store(true, Ordering::Relaxed);
        // Closing the receiver unblocks any worker waiting on the bounded channel;
        // each then observes the send error (or the cancel flag) and exits.
        self.receiver = None;
        for handle in self.workers.drain(..) {
            // A worker that panicked already surfaced as Error::Worker during
            // iteration; nothing useful to do with the panic payload here.
            let _ = handle.join();
        }
        // Pooled mode has no handles to join: mark the gate cancelled (so
        // queued-but-unstarted jobs become no-ops) and wait until every started
        // job has exited. Only then is it safe to release the stream's shared
        // state — the pool outlives the stream, the stream's jobs must not.
        self.gate.cancel_and_wait();
    }
}

/// The confidence of one annotation: canonical cache, then read-once fast path,
/// then cache-aware compilation.
#[allow(clippy::too_many_arguments)]
fn tuple_confidence(
    db: &Database,
    annotation: &SemiringExpr,
    options: &EvalOptions,
    try_fast: bool,
    artifacts: Option<&SharedArtifacts>,
    scope: u64,
    counters: &TupleCounters,
) -> Result<f64, Error> {
    let span = obs::span("confidence");
    if let Some(arts) = artifacts {
        let id = {
            let _intern_span = obs::span("intern");
            arts.intern(annotation)
        };
        // Warm path: reduce the cached distribution to its confidence under the
        // lock — no per-tuple clone.
        if let Some(p) = arts.map_semiring(id, scope, confidence_of) {
            if let Some(s) = &span {
                s.attr("path", "cache".into());
            }
            return Ok(p);
        }
        if try_fast {
            if let Some(p) = read_once_confidence(annotation, &db.vars) {
                counters.fast_path_hits.fetch_add(1, Ordering::Relaxed);
                // The fast path only runs over the Boolean semiring, so the
                // confidence determines the full distribution — cache it so later
                // lookups (and sub-d-tree composition) can reuse it.
                let dist: SemiringDist = Dist::from_pairs([
                    (SemiringValue::Bool(true), p),
                    (SemiringValue::Bool(false), 1.0 - p),
                ]);
                arts.insert_semiring(id, scope, &dist);
                if let Some(s) = &span {
                    s.attr("path", "fast".into());
                }
                return Ok(p);
            }
        }
        if let Some(s) = &span {
            s.attr("path", "compile".into());
        }
        // The lookup above already recorded the miss; fill without re-checking.
        let dist = arts.fill_semiring(id, &db.vars, db.kind, &options.compile, scope)?;
        return Ok(confidence_of(&dist));
    }
    if try_fast {
        if let Some(p) = read_once_confidence(annotation, &db.vars) {
            counters.fast_path_hits.fetch_add(1, Ordering::Relaxed);
            if let Some(s) = &span {
                s.attr("path", "fast".into());
            }
            return Ok(p);
        }
    }
    if let Some(s) = &span {
        s.attr("path", "compile".into());
    }
    compiled_confidence(db, annotation, options)
}

/// Full step-II confidence: compile the annotation into a d-tree and sum the mass of
/// the non-zero semiring values.
fn compiled_confidence(
    db: &Database,
    annotation: &SemiringExpr,
    options: &EvalOptions,
) -> Result<f64, Error> {
    let mut compiler = Compiler::with_options(&db.vars, db.kind, options.compile.clone());
    let tree = compiler.compile_semiring(annotation)?;
    let dist = tree.semiring_distribution(&db.vars, db.kind)?;
    Ok(dist
        .iter()
        .filter(|(v, _)| !v.is_zero())
        .map(|(_, p)| p)
        .sum())
}

/// The exact distribution of one aggregate: canonical cache, then the MIN/MAX
/// read-once closed form, then cache-aware compilation.
#[allow(clippy::too_many_arguments)]
fn aggregate_distribution(
    db: &Database,
    expr: &SemimoduleExpr,
    options: &EvalOptions,
    try_fast: bool,
    artifacts: Option<&SharedArtifacts>,
    scope: u64,
    counters: &TupleCounters,
) -> Result<MonoidDist, Error> {
    let span = obs::span("aggregate");
    if let Some(arts) = artifacts {
        let id = {
            let _intern_span = obs::span("intern");
            arts.intern_semimodule(expr)
        };
        if let Some(d) = arts.get_aggregate(id, scope) {
            if let Some(s) = &span {
                s.attr("path", "cache".into());
            }
            return Ok(d);
        }
        if try_fast {
            if let Some(d) = min_max_read_once_distribution(expr, &db.vars) {
                counters.agg_fast_path_hits.fetch_add(1, Ordering::Relaxed);
                arts.insert_aggregate(id, scope, &d);
                if let Some(s) = &span {
                    s.attr("path", "fast".into());
                }
                return Ok(d);
            }
        }
        if let Some(s) = &span {
            s.attr("path", "compile".into());
        }
        // The lookup above already recorded the miss; fill without re-checking.
        return Ok(arts.fill_aggregate(id, &db.vars, db.kind, &options.compile, scope)?);
    }
    if try_fast {
        if let Some(d) = min_max_read_once_distribution(expr, &db.vars) {
            counters.agg_fast_path_hits.fetch_add(1, Ordering::Relaxed);
            if let Some(s) = &span {
                s.attr("path", "fast".into());
            }
            return Ok(d);
        }
    }
    if let Some(s) = &span {
        s.attr("path", "compile".into());
    }
    let mut compiler = Compiler::with_options(&db.vars, db.kind, options.compile.clone());
    let tree = compiler.compile_semimodule(expr)?;
    Ok(tree.monoid_distribution(&db.vars, db.kind)?)
}

/// Read-once confidence evaluation over the Boolean semiring: the probability that a
/// sum/product of *variable-disjoint* subexpressions is non-zero multiplies out
/// directly, with no d-tree. Returns `None` whenever the expression is not of that
/// shape (shared variables, comparisons, non-Boolean variables) — the caller then
/// falls back to full compilation, so this is always sound.
fn read_once_confidence(expr: &SemiringExpr, vars: &VarTable) -> Option<f64> {
    match expr {
        SemiringExpr::Const(c) => Some(if c.is_zero() { 0.0 } else { 1.0 }),
        SemiringExpr::Var(v) => {
            if vars.kind(*v) == SemiringKind::Bool {
                Some(vars.prob_true(*v))
            } else {
                None
            }
        }
        SemiringExpr::Mul(children) => {
            pairwise_var_disjoint(children)?;
            let mut p = 1.0;
            for child in children {
                p *= read_once_confidence(child, vars)?;
            }
            Some(p)
        }
        SemiringExpr::Add(children) => {
            pairwise_var_disjoint(children)?;
            let mut q = 1.0;
            for child in children {
                q *= 1.0 - read_once_confidence(child, vars)?;
            }
            Some(1.0 - q)
        }
        // Comparisons need the full machinery (pruning, convolution).
        SemiringExpr::CmpSS(..) | SemiringExpr::CmpMM(..) => None,
    }
}

/// Read-once fast path for MIN/MAX aggregate distributions (Proposition 1 of the
/// paper): when the terms `Φ_i ⊗ m_i` of a MIN/MAX semimodule expression have
/// pairwise variable-disjoint, read-once Boolean coefficients, the terms are
/// independent and the distribution has the closed form
///
/// ```text
/// P[MIN = v] = Π_{m_i < v} (1 − p_i) · (1 − Π_{m_i = v} (1 − p_i)),
/// P[MIN = 0_M] = Π_i (1 − p_i)            (no term present)
/// ```
///
/// with `p_i = P[Φ_i ≠ ⊥]` (symmetrically for MAX with `>` in place of `<`). The
/// result has at most `n + 1` support values and is computed in `O(n log n)` — no
/// d-tree, no convolution. Returns `None` whenever the expression is not of that
/// shape (SUM/COUNT/PROD, shared variables, non-read-once coefficients); the caller
/// then falls back to full compilation, so this is always sound.
fn min_max_read_once_distribution(expr: &SemimoduleExpr, vars: &VarTable) -> Option<MonoidDist> {
    if !matches!(expr.op, AggOp::Min | AggOp::Max) {
        return None;
    }
    if expr.terms.is_empty() {
        return Some(Dist::point(expr.op.identity()));
    }
    // Terms must be pairwise variable-disjoint to be independent.
    pairwise_disjoint_sets(expr.terms.iter().map(|t| t.vars()))?;
    let mut present: Vec<(MonoidValue, f64)> = Vec::with_capacity(expr.terms.len());
    for t in &expr.terms {
        present.push((t.value, read_once_confidence(&t.coeff, vars)?));
    }
    // Winning value first: ascending for MIN, descending for MAX.
    match expr.op {
        AggOp::Min => present.sort_by_key(|t| t.0),
        _ => present.sort_by_key(|t| std::cmp::Reverse(t.0)),
    }
    let mut pairs = Vec::with_capacity(present.len() + 1);
    // Probability that every term strictly better than the current value is absent.
    let mut p_better_absent = 1.0;
    let mut i = 0;
    while i < present.len() {
        let value = present[i].0;
        let mut p_absent_here = 1.0;
        while i < present.len() && present[i].0 == value {
            p_absent_here *= 1.0 - present[i].1;
            i += 1;
        }
        pairs.push((value, p_better_absent * (1.0 - p_absent_here)));
        p_better_absent *= p_absent_here;
    }
    // No term present: the monoid's neutral element.
    pairs.push((expr.op.identity(), p_better_absent));
    Some(Dist::from_pairs(pairs))
}

/// `Some(())` iff the given variable sets are pairwise disjoint (the sum of the
/// sizes equals the size of the union).
fn pairwise_disjoint_sets(sets: impl Iterator<Item = VarSet>) -> Option<()> {
    let mut total = 0usize;
    let mut all = VarSet::new();
    for vs in sets {
        total += vs.len();
        all = all.union(&vs);
    }
    (all.len() == total).then_some(())
}

/// `Some(())` iff the children mention pairwise disjoint variable sets.
fn pairwise_var_disjoint(children: &[SemiringExpr]) -> Option<()> {
    pairwise_disjoint_sets(children.iter().map(|c| c.vars()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{figure1_db, paper_q1};
    use crate::query::{AggSpec, Predicate, Query, QueryError};
    use pvc_algebra::{AggOp, CmpOp};
    use pvc_expr::oracle;

    #[test]
    fn prepare_validates_and_classifies() {
        let db = figure1_db();
        let engine = Engine::new(db);
        // A tuple-independent base table is Q_ind.
        let prepared = engine.prepare(&Query::table("S")).unwrap();
        assert_eq!(prepared.plan().class, QueryClass::Qind);
        assert_eq!(prepared.plan().strategy, Strategy::IndependentFastPath);
        assert!(prepared.plan().strategy.is_tractable());
        assert!(prepared.plan().tuple_independent_input);
        assert_eq!(prepared.schema().names(), vec!["sid", "shop"]);
        // Unknown tables are validation errors.
        let err = engine.prepare(&Query::table("missing")).unwrap_err();
        assert!(matches!(
            err,
            Error::Validation(QueryError::UnknownTable(_))
        ));
    }

    #[test]
    fn execute_matches_oracle_and_uses_fast_path() {
        let db = figure1_db();
        let engine = Engine::new(db);
        // π_shop(S) is Q_ind with read-once annotations (x1+x2+x3 per shop).
        let q = Query::table("S").project(["shop"]);
        let prepared = engine.prepare(&q).unwrap();
        assert_eq!(prepared.plan().class, QueryClass::Qind);
        let result = prepared.execute(&EvalOptions::default()).unwrap();
        assert_eq!(result.tuples.len(), 2);
        assert_eq!(result.fast_path_hits, 2);
        let table = crate::exec::try_evaluate(engine.database(), &q).unwrap();
        for (prob, tuple) in result.tuples.iter().zip(&table.tuples) {
            let expected = oracle::confidence_by_enumeration(
                &tuple.annotation,
                &engine.database().vars,
                SemiringKind::Bool,
            );
            assert!((prob.confidence - expected).abs() < 1e-9);
        }
        // Disabling the fast path must give identical confidences.
        let slow = prepared
            .execute(&EvalOptions::default().without_fast_path())
            .unwrap();
        for (a, b) in result.tuples.iter().zip(&slow.tuples) {
            assert!((a.confidence - b.confidence).abs() < 1e-12);
        }
    }

    #[test]
    fn caches_fill_and_invalidate() {
        let db = figure1_db();
        let mut engine = Engine::new(db);
        let q = paper_q1();
        let prepared = engine.prepare(&q).unwrap();
        assert_eq!(engine.cache_stats(), CacheStats::default());
        prepared.execute(&EvalOptions::default()).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.rewrites, 1);
        assert!(stats.confidences >= 1);
        assert!(stats.interned >= 1);
        assert!(stats.misses >= 1);
        // A second execution answers every annotation from the cache: no new
        // entries, no new misses, strictly more hits. Re-running the *same* query
        // is not cross-query reuse.
        let again = prepared.execute(&EvalOptions::default()).unwrap();
        assert_eq!(again.tuples.len(), 9);
        let warm = engine.cache_stats();
        assert_eq!(warm.confidences, stats.confidences);
        assert_eq!(warm.misses, stats.misses);
        assert!(warm.hits > stats.hits);
        assert_eq!(warm.cross_query_hits, stats.cross_query_hits);
        drop(prepared);

        // The typed update path invalidates *selectively*: a delta against S
        // evicts the paper_q1 rewrite (S is a base table) and the artifacts over
        // S's variables, but artifacts over PS/P1/P2-only provenance survive.
        let delta_stats = engine
            .apply_delta(Delta::new().insert("S", vec![6i64.into(), "Gap".into()], 0.5))
            .unwrap();
        assert_eq!(delta_stats.inserted, 1);
        assert_eq!(delta_stats.evicted_rewrites, 1);
        assert_eq!(delta_stats.kept_rewrites, 0);
        // An insert touches no existing variable, so every artifact survives.
        assert_eq!(delta_stats.touched_vars, 0);
        assert_eq!(delta_stats.evicted_artifacts, 0);
        let after_delta = engine.cache_stats();
        assert_eq!(after_delta.rewrites, 0);
        assert_eq!(after_delta.confidences, warm.confidences);
    }

    #[test]
    fn unrelated_insert_keeps_other_tables_warm() {
        // The acceptance scenario: after a 1-tuple insert into one table, a
        // prepared query over *other* tables answers with zero recompilations.
        let mut engine = Engine::new(figure1_db());
        let q = Query::table("S").project(["shop"]);
        engine
            .prepare(&q)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        let warm = engine.cache_stats();
        assert!(warm.misses + warm.hits > 0);

        let stats = engine
            .apply_delta(Delta::new().insert("P1", vec![9i64.into(), 99i64.into()], 0.25))
            .unwrap();
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.evicted_artifacts, 0);
        assert_eq!(stats.evicted_rewrites, 0);
        assert_eq!(stats.kept_rewrites, 1, "the S rewrite must survive");

        let reference = engine
            .prepare(&q)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        let after = engine.cache_stats();
        // Exact counters: not a single recomputation — no new misses, no new
        // rewrite entries, only hits.
        assert_eq!(after.misses, warm.misses);
        assert_eq!(after.arena_misses, warm.arena_misses);
        assert_eq!(after.rewrites, warm.rewrites);
        assert_eq!(after.confidences, warm.confidences);
        assert!(after.hits > warm.hits);
        // And the answers match a cold engine on the mutated database exactly.
        let cold = Engine::new(engine.database().clone());
        let cold_result = cold
            .prepare(&q)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        assert_eq!(reference.tuples.len(), cold_result.tuples.len());
        for (a, b) in reference.tuples.iter().zip(&cold_result.tuples) {
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
    }

    #[test]
    fn apply_delta_is_bit_identical_to_cold_rebuild() {
        // All three strategies, sequential and parallel: results after a mixed
        // delta must be bit-identical to a cold engine built on the mutated
        // database — surviving cache entries never leak pre-delta state.
        let queries = [
            Query::table("S").project(["shop"]), // Q_ind
            Query::table("S")
                .join(Query::table("PS"), &[("sid", "ps_sid")])
                .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")]), // Q_hie
            paper_q1()
                .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")])
                .select(Predicate::AggCmpConst("P".into(), CmpOp::Le, 50))
                .project(["shop"]), // general
        ];
        let mut engine = Engine::new(figure1_db());
        let mut strategies = std::collections::BTreeSet::new();
        // Warm every query pre-delta so stale entries would be caught.
        for q in &queries {
            let prepared = engine.prepare(q).unwrap();
            strategies.insert(format!("{:?}", prepared.plan().strategy));
            prepared.execute(&EvalOptions::default()).unwrap();
        }
        assert_eq!(strategies.len(), 3, "queries must cover all strategies");

        let delta = Delta::new()
            .insert("S", vec![6i64.into(), "Gap".into()], 0.7)
            .set_probability("PS", 0, 0.9)
            .delete("P1", 1);
        let stats = engine.apply_delta(delta).unwrap();
        assert_eq!(stats.tables_touched, 3);
        assert!(stats.touched_vars >= 2);

        let cold = Engine::new(engine.database().clone());
        for q in &queries {
            for threads in [1, 4] {
                let options = EvalOptions::default().with_threads(threads);
                let warm = engine.prepare(q).unwrap().execute(&options).unwrap();
                let reference = cold.prepare(q).unwrap().execute(&options).unwrap();
                assert_eq!(warm.tuples.len(), reference.tuples.len());
                for (a, b) in warm.tuples.iter().zip(&reference.tuples) {
                    assert_eq!(a.values, b.values);
                    assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
                    assert_eq!(a.aggregate_distributions, b.aggregate_distributions);
                }
            }
        }
    }

    #[test]
    fn delta_validation_is_atomic_and_typed() {
        let mut engine = Engine::new(figure1_db());
        let q = paper_q1();
        engine
            .prepare(&q)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        let warm = engine.cache_stats();
        let tuples_before = engine.database().total_tuples();

        // A delta with one valid and one invalid op must change *nothing*.
        let cases = [
            Delta::new()
                .insert("S", vec![7i64.into(), "Gap".into()], 0.5)
                .insert("missing", vec![1i64.into()], 0.5),
            Delta::new().insert("S", vec![7i64.into()], 0.5), // arity
            Delta::new().insert("S", vec![7i64.into(), "Gap".into()], 1.5), // probability
            Delta::new().delete("S", 99),                     // range
            Delta::new().delete("S", 0).delete("S", 0),       // duplicate
            Delta::new().set_probability("S", 0, f64::NAN),   // NaN
        ];
        for delta in cases {
            let err = engine.apply_delta(delta).unwrap_err();
            assert!(
                matches!(err, Error::Delta { .. } | Error::UnknownTable { .. }),
                "unexpected error: {err}"
            );
            assert_eq!(engine.database().total_tuples(), tuples_before);
            assert_eq!(engine.cache_stats(), warm);
        }
        assert_eq!(engine.stats().deltas.applied, 0);

        // An empty delta is a no-op, not an error.
        let stats = engine.apply_delta(Delta::new()).unwrap();
        assert_eq!(stats, DeltaStats::default());
    }

    #[test]
    fn set_probability_evicts_only_intersecting_artifacts() {
        let mut engine = Engine::new(figure1_db());
        let q_s = Query::table("S").project(["shop"]);
        let q_p = Query::table("P1").project(["pid"]);
        for q in [&q_s, &q_p] {
            engine
                .prepare(q)
                .unwrap()
                .execute(&EvalOptions::default())
                .unwrap();
        }
        let warm = engine.cache_stats();

        // Re-weight one S tuple: S-provenance artifacts go, P1's survive, and
        // the P1 query stays miss-free while the S query recomputes.
        let stats = engine
            .apply_delta(Delta::new().set_probability("S", 0, 0.9))
            .unwrap();
        assert_eq!(stats.reprobed, 1);
        assert_eq!(stats.touched_vars, 1);
        assert!(stats.evicted_artifacts >= 1);
        assert!(stats.kept_artifacts >= 1);
        assert_eq!(stats.evicted_rewrites, 1);
        assert_eq!(stats.kept_rewrites, 1);

        let p_warm = engine
            .prepare(&q_p)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        assert_eq!(engine.cache_stats().misses, warm.misses, "P1 stays warm");
        assert_eq!(p_warm.tuples.len(), 4);

        let s_result = engine
            .prepare(&q_s)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        // The M&S tuple's confidence reflects the new probability exactly as a
        // cold engine computes it.
        let cold = Engine::new(engine.database().clone());
        let s_cold = cold
            .prepare(&q_s)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        for (a, b) in s_result.tuples.iter().zip(&s_cold.tuples) {
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
    }

    #[test]
    fn set_probability_on_a_leaf_variable_evicts_its_group_aggregate() {
        // Every term of these per-supplier SUMs is a single-variable component,
        // evaluated inline with no cache entry of its own: the delta must still
        // find the group's aggregate through its var-set.
        let mut engine = Engine::new(figure1_db());
        let q = Query::table("PS")
            .group_agg(["ps_sid"], vec![AggSpec::new(AggOp::Sum, "price", "total")]);
        let options = EvalOptions::default();
        engine.prepare(&q).unwrap().execute(&options).unwrap();
        let stats = engine
            .apply_delta(Delta::new().set_probability("PS", 0, 0.9))
            .unwrap();
        assert!(stats.evicted_artifacts >= 1, "{stats:?}");
        assert!(stats.kept_artifacts >= 1, "{stats:?}");
        let warm = engine.prepare(&q).unwrap().execute(&options).unwrap();
        let cold = Engine::new(engine.database().clone());
        let reference = cold.prepare(&q).unwrap().execute(&options).unwrap();
        assert_eq!(warm.tuples.len(), reference.tuples.len());
        for (a, b) in warm.tuples.iter().zip(&reference.tuples) {
            assert_eq!(a.values, b.values);
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
            assert_eq!(a.aggregate_distributions, b.aggregate_distributions);
        }
    }

    #[test]
    fn engine_stats_consolidates_the_scattered_getters() {
        let mut engine = Engine::new(figure1_db());
        assert_eq!(engine.stats(), EngineStats::default());
        engine
            .prepare(&paper_q1())
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        let stats = engine.stats();
        // The old getter is a thin delegate of the consolidated struct.
        assert_eq!(stats.cache, engine.cache_stats());
        assert_eq!(stats.deltas, DeltaTotals::default());
        engine
            .apply_delta(Delta::new().insert("P2", vec![9i64.into(), 9i64.into()], 0.5))
            .unwrap();
        let after = engine.stats();
        assert_eq!(after.deltas.applied, 1);
        assert_eq!(after.deltas.inserted, 1);
        assert_eq!(after.deltas.evicted_rewrites, 1); // paper_q1 reads P2
        let dir = std::env::temp_dir().join(format!("pvc-stats-{}.snap", std::process::id()));
        engine.save_artifacts(&dir).unwrap();
        let saved = engine.stats().snapshots;
        assert_eq!(saved.saves, 1);
        assert!(saved.bytes_written > 0);
        engine.restore_artifacts(&dir).unwrap();
        let restored = engine.stats().snapshots;
        assert_eq!(restored.restores, 1);
        assert!(restored.bytes_read > 0);
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn snapshot_survives_compatible_delta() {
        // Disk-warm restart across a delta: snapshot before, mutate, reload on
        // the mutated database — unaffected tables come back warm.
        let path = std::env::temp_dir().join(format!("pvc-delta-{}.snap", std::process::id()));
        let q_s = Query::table("S").project(["shop"]);
        let q_p = Query::table("P1").project(["pid"]);
        let mut engine = Engine::new(figure1_db());
        for q in [&q_s, &q_p] {
            engine
                .prepare(q)
                .unwrap()
                .execute(&EvalOptions::default())
                .unwrap();
        }
        engine.save_artifacts(&path).unwrap();
        engine
            .apply_delta(Delta::new().insert("P1", vec![9i64.into(), 99i64.into()], 0.25))
            .unwrap();
        let mutated = engine.database().clone();

        // Partial restore: P1 diverged (its rewrite and artifacts are dropped),
        // S matches (restored warm: the S query runs without a single miss).
        let restarted = Engine::with_artifacts_from(mutated.clone(), &path).unwrap();
        let warm = restarted
            .prepare(&q_s)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        let stats = restarted.cache_stats();
        assert_eq!(stats.misses, 0, "S must be answered from the snapshot");
        assert!(stats.hits > 0);
        let cold = Engine::new(mutated.clone());
        let cold_s = cold
            .prepare(&q_s)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        for (a, b) in warm.tuples.iter().zip(&cold_s.tuples) {
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
        // The P1 query recomputes (its artifacts were selectively dropped) and
        // agrees with the cold engine bit-for-bit.
        let p_warm = restarted
            .prepare(&q_p)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        let p_cold = cold
            .prepare(&q_p)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        assert_eq!(p_warm.tuples.len(), 5);
        for (a, b) in p_warm.tuples.iter().zip(&p_cold.tuples) {
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }

        // A fully diverged database (fresh ids, every table different) is still
        // refused outright — the cold-start fallback, never a wrong warm cache.
        let mut other = Database::new();
        other.create_table("S", crate::schema::Schema::new(["sid", "shop"]));
        let (s, vars) = other.table_and_vars_mut("S").unwrap();
        s.push_independent(vec![1i64.into(), "X".into()], 0.1, vars);
        assert!(matches!(
            Engine::with_artifacts_from(other, &path),
            Err(Error::Snapshot(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn structurally_equal_renderings_hit_across_queries() {
        // P1 ∪ P2 and P2 ∪ P1 are different queries whose rewritings render the
        // same provenance with summands in opposite orders; canonical interning
        // must make the second execution hit the first's cache entries.
        let db = figure1_db();
        let engine = Engine::new(db);
        let qa = Query::table("P1")
            .union(Query::table("P2"))
            .project(["pid"]);
        let qb = Query::table("P2")
            .union(Query::table("P1"))
            .project(["pid"]);
        let ra = engine
            .prepare(&qa)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        assert_eq!(engine.cache_stats().cross_query_hits, 0);
        let rb = engine
            .prepare(&qb)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        let stats = engine.cache_stats();
        assert!(
            stats.cross_query_hits >= 1,
            "expected cross-query reuse, got {stats:?}"
        );
        for (a, b) in ra.tuples.iter().zip(&rb.tuples) {
            assert!((a.confidence - b.confidence).abs() < 1e-12);
        }
    }

    #[test]
    fn structural_keys_distinguish_queries_and_are_stable() {
        let qa = Query::table("P1")
            .union(Query::table("P2"))
            .project(["pid"]);
        let qb = Query::table("P2")
            .union(Query::table("P1"))
            .project(["pid"]);
        // Stable for equal queries, distinct for different renderings (the rewrite
        // materialises their tuples in different orders, so they must not share a
        // step-I cache entry).
        assert_eq!(qa.structural_key(), qa.clone().structural_key());
        assert_ne!(qa.structural_key(), qb.structural_key());
        // Spot-check that predicates and aggregations feed the key.
        let base = paper_q1();
        let with_pred = paper_q1().select(Predicate::AggCmpConst("price".into(), CmpOp::Le, 50));
        assert_ne!(base.structural_key(), with_pred.structural_key());
    }

    #[test]
    fn lru_bound_evicts_but_preserves_results() {
        let db = figure1_db();
        let engine = Engine::with_cache_config(
            figure1_db(),
            CacheConfig {
                max_entries: 2,
                max_bytes: usize::MAX,
            },
        );
        let reference = Engine::new(db);
        let q = paper_q1();
        let bounded = engine
            .prepare(&q)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        let unbounded = reference
            .prepare(&q)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        let stats = engine.cache_stats();
        assert!(stats.confidences <= 2);
        assert!(stats.evictions > 0, "expected evictions, got {stats:?}");
        for (a, b) in bounded.tuples.iter().zip(&unbounded.tuples) {
            assert!((a.confidence - b.confidence).abs() < 1e-12);
        }
    }

    #[test]
    fn confidence_only_skips_aggregates() {
        let db = figure1_db();
        let engine = Engine::new(db);
        let q = Query::table("P1").group_agg(
            Vec::<String>::new(),
            vec![AggSpec::new(AggOp::Min, "weight", "m")],
        );
        let prepared = engine.prepare(&q).unwrap();
        let full = prepared.execute(&EvalOptions::default()).unwrap();
        assert!(full.tuples[0].aggregate_distributions.contains_key("m"));
        let slim = prepared.execute(&EvalOptions::confidence_only()).unwrap();
        assert!(slim.tuples[0].aggregate_distributions.is_empty());
        assert!((slim.tuples[0].confidence - full.tuples[0].confidence).abs() < 1e-12);
    }

    #[test]
    fn node_budget_surfaces_as_compile_error() {
        let db = figure1_db();
        let engine = Engine::new(db);
        let q2 = paper_q1()
            .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")])
            .select(Predicate::AggCmpConst("P".into(), CmpOp::Le, 50))
            .project(["shop"]);
        let prepared = engine.prepare(&q2).unwrap();
        let err = prepared
            .execute(
                &EvalOptions::default()
                    .with_node_budget(1)
                    .without_fast_path(),
            )
            .unwrap_err();
        assert!(matches!(err, Error::Compile(_)));
        // The budget must also be enforced on a *warm* engine: a prior unbudgeted
        // success must not be served from the cache in place of the error.
        prepared.execute(&EvalOptions::default()).unwrap();
        assert!(engine.cache_stats().confidences > 0);
        let err = prepared
            .execute(
                &EvalOptions::default()
                    .with_node_budget(1)
                    .without_fast_path(),
            )
            .unwrap_err();
        assert!(matches!(err, Error::Compile(_)));
        // Parallel execution reports the same first-in-order error.
        let err = prepared
            .execute(
                &EvalOptions::default()
                    .with_node_budget(1)
                    .without_fast_path()
                    .with_threads(4),
            )
            .unwrap_err();
        assert!(matches!(err, Error::Compile(_)));
    }

    #[test]
    fn q2_is_planned_hierarchical() {
        let db = figure1_db();
        let engine = Engine::new(db);
        let agg = Query::table("S")
            .join(Query::table("PS"), &[("sid", "ps_sid")])
            .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")]);
        let prepared = engine.prepare(&agg).unwrap();
        assert_eq!(prepared.plan().class, QueryClass::Qhie);
        assert_eq!(prepared.plan().strategy, Strategy::HierarchicalFastPath);
        let rendered = prepared.plan().to_string();
        assert!(rendered.contains("hierarchical fast path"));
    }

    #[test]
    fn min_max_aggregate_fast_path_matches_compilation() {
        let db = figure1_db();
        let engine = Engine::new(db);
        // MIN/MAX over P1's four independent weights: Q_ind, disjoint coefficients.
        for op in [AggOp::Min, AggOp::Max] {
            let q = Query::table("P1")
                .group_agg(Vec::<String>::new(), vec![AggSpec::new(op, "weight", "m")]);
            let prepared = engine.prepare(&q).unwrap();
            assert!(prepared.plan().strategy.is_tractable());
            let fast = prepared.execute(&EvalOptions::default()).unwrap();
            assert_eq!(
                fast.agg_fast_path_hits, 1,
                "{op:?} should use the closed form"
            );
            // A fresh engine without the fast path must produce the same
            // distribution via full compilation.
            let slow_engine = Engine::new(figure1_db());
            let slow = slow_engine
                .prepare(&q)
                .unwrap()
                .execute(&EvalOptions::default().without_fast_path())
                .unwrap();
            assert_eq!(slow.agg_fast_path_hits, 0);
            let df = &fast.tuples[0].aggregate_distributions["m"];
            let ds = &slow.tuples[0].aggregate_distributions["m"];
            assert!(df.approx_eq(ds, 1e-9), "{op:?}: {df} vs {ds}");
        }
    }

    #[test]
    fn min_max_closed_form_agrees_with_oracle() {
        let mut vars = VarTable::new();
        let x = vars.boolean("x", 0.3);
        let y = vars.boolean("y", 0.6);
        let z = vars.boolean("z", 0.8);
        // Duplicate values across terms exercise the same-value grouping.
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Min,
            vec![
                (SemiringExpr::Var(x), MonoidValue::Fin(10)),
                (SemiringExpr::Var(y), MonoidValue::Fin(10)),
                (SemiringExpr::Var(z), MonoidValue::Fin(25)),
            ],
        );
        let dist = min_max_read_once_distribution(&alpha, &vars).unwrap();
        let expected = oracle::semimodule_dist_by_enumeration(&alpha, &vars, SemiringKind::Bool);
        assert!(dist.approx_eq(&expected, 1e-9), "{dist} vs {expected}");
        // Shared variables must bail out.
        let shared = SemimoduleExpr::from_terms(
            AggOp::Max,
            vec![
                (SemiringExpr::Var(x), MonoidValue::Fin(1)),
                (
                    SemiringExpr::Var(x) * SemiringExpr::Var(y),
                    MonoidValue::Fin(2),
                ),
            ],
        );
        assert!(min_max_read_once_distribution(&shared, &vars).is_none());
        // SUM is not covered by Proposition 1's closed form.
        let sum = SemimoduleExpr::from_terms(
            AggOp::Sum,
            vec![(SemiringExpr::Var(x), MonoidValue::Fin(1))],
        );
        assert!(min_max_read_once_distribution(&sum, &vars).is_none());
    }

    #[test]
    fn read_once_confidence_agrees_with_oracle() {
        let mut vars = VarTable::new();
        let x = vars.boolean("x", 0.3);
        let y = vars.boolean("y", 0.6);
        let z = vars.boolean("z", 0.8);
        // x·(y + z): read-once.
        let expr = SemiringExpr::Var(x) * (SemiringExpr::Var(y) + SemiringExpr::Var(z));
        let p = read_once_confidence(&expr, &vars).unwrap();
        let expected = oracle::confidence_by_enumeration(&expr, &vars, SemiringKind::Bool);
        assert!((p - expected).abs() < 1e-12);
        // x·y + x·z shares x between summands: not read-once, must bail out.
        let shared = SemiringExpr::Var(x) * SemiringExpr::Var(y)
            + SemiringExpr::Var(x) * SemiringExpr::Var(z);
        assert!(read_once_confidence(&shared, &vars).is_none());
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
    fn parallel_execution_is_bit_identical() {
        let db = figure1_db();
        let engine = Engine::new(db);
        let prepared = engine.prepare(&paper_q1()).unwrap();
        let seq = prepared
            .execute(&EvalOptions::default().with_threads(1))
            .unwrap();
        assert_eq!(seq.threads, 1);
        let par = prepared
            .execute(&EvalOptions::default().with_threads(4))
            .unwrap();
        assert_eq!(par.threads, 4.min(seq.tuples.len()));
        assert_eq!(seq.tuples.len(), par.tuples.len());
        for (a, b) in seq.tuples.iter().zip(&par.tuples) {
            assert_eq!(a.values, b.values);
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
            assert_eq!(a.aggregate_distributions, b.aggregate_distributions);
        }
    }

    #[test]
    fn pooled_execution_is_bit_identical_to_spawning() {
        let db = figure1_db();
        let engine = Engine::new(db);
        let prepared = engine.prepare(&paper_q1()).unwrap();
        let spawned = prepared
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
            assert_eq!(spawned.tuples.len(), pooled.tuples.len());
            for (a, b) in spawned.tuples.iter().zip(&pooled.tuples) {
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
        let options = EvalOptions::default()
            .with_threads(2)
            .with_pool(Arc::clone(&pool));
        let query = paper_q1();
        let mut db = figure1_db();
        for iteration in 0..200 {
            let tuples = db.table("PS").unwrap().tuples.as_ptr();
            let engine = Engine::new(db);
            let stream = engine
                .prepare(&query)
                .unwrap()
                .execute_streaming(&options)
                .unwrap();
            assert_eq!(stream.map(Result::unwrap).count(), 9);
            db = engine.into_database();
            assert_eq!(
                db.table("PS").unwrap().tuples.as_ptr(),
                tuples,
                "iteration {iteration}: the database was deep-copied"
            );
        }
    }

    #[test]
    fn rewrite_cache_is_lru_bounded() {
        let engine = Engine::with_cache_config(
            figure1_db(),
            CacheConfig {
                max_entries: 2,
                max_bytes: usize::MAX,
            },
        );
        // Four distinct queries → four distinct structural keys.
        let queries = [
            Query::table("S").project(["shop"]),
            Query::table("S").project(["sid"]),
            Query::table("P1").project(["pid"]),
            Query::table("P2").project(["pid"]),
        ];
        for q in &queries {
            engine
                .prepare(q)
                .unwrap()
                .execute(&EvalOptions::default())
                .unwrap();
            let stats = engine.cache_stats();
            assert!(
                stats.rewrites <= 2,
                "rewrite cache exceeded bound: {stats:?}"
            );
            assert!(stats.rewrite_bytes > 0);
        }
        // Re-running an evicted query still gives correct results (recomputed).
        let again = engine
            .prepare(&queries[0])
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        assert_eq!(again.tuples.len(), 2);
    }

    #[test]
    fn compact_artifacts_bounds_interner_and_preserves_results() {
        let engine = Engine::with_cache_config(
            figure1_db(),
            CacheConfig {
                max_entries: 4,
                max_bytes: usize::MAX,
            },
        );
        let q = paper_q1();
        let prepared = engine.prepare(&q).unwrap();
        let reference = prepared.execute(&EvalOptions::default()).unwrap();
        let before = engine.cache_stats();
        let stats = engine.compact_artifacts();
        assert_eq!(stats.generation, 1);
        assert!(
            stats.interned_after <= stats.interned_before,
            "compaction must not grow the arena: {stats:?}"
        );
        // LRU-evicted entries left dead interner nodes behind; with the small
        // bound above, compaction must actually retire some of them.
        assert!(before.interned >= stats.interned_after);
        let after = prepared.execute(&EvalOptions::default()).unwrap();
        for (a, b) in reference.tuples.iter().zip(&after.tuples) {
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
    }

    #[test]
    fn shared_artifacts_across_engines_reuse_compilations() {
        let db = figure1_db();
        let engine_a = Engine::new(db.clone());
        let engine_b = Engine::with_shared_artifacts(db, engine_a.shared_artifacts());
        let q = paper_q1();
        engine_a
            .prepare(&q)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        let misses_after_a = engine_a.cache_stats().misses;
        // Engine B executes the same query: every artifact is already cached.
        engine_b
            .prepare(&q)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        let stats = engine_b.cache_stats();
        assert_eq!(
            stats.misses, misses_after_a,
            "engine B should not recompute"
        );
        assert!(stats.hits > 0);
    }

    #[test]
    fn apply_delta_on_a_shared_store_keeps_disjoint_entries() {
        // The store stays shared, and only intersecting entries are evicted —
        // for an insert-only delta, none. (Deltas that re-weight or delete run
        // strictly between batches; see the `apply_delta` concurrency contract.)
        let db = figure1_db();
        let mut engine_a = Engine::new(db.clone());
        let engine_b = Engine::with_shared_artifacts(db, engine_a.shared_artifacts());
        let q = paper_q1();
        engine_b
            .prepare(&q)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        let b_before = engine_b.cache_stats();
        let stats = engine_a
            .apply_delta(Delta::new().insert("S", vec![6i64.into(), "Gap".into()], 0.4))
            .unwrap();
        assert_eq!(stats.evicted_artifacts, 0);
        // Still the same store, with every artifact intact: B's view of the
        // artifact caches is unchanged (hit/miss counters included).
        assert!(Arc::ptr_eq(
            &engine_a.shared_artifacts(),
            &engine_b.shared_artifacts()
        ));
        assert_eq!(engine_b.cache_stats(), b_before);
        // A's next execution of the same query re-runs step I (its rewrite was
        // evicted — S changed) but reuses every artifact whose provenance did
        // not gain the new tuple's variable.
        let result = engine_a
            .prepare(&q)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        // The new S tuple (sid 6) has no PS join partner: still 9 result tuples.
        assert_eq!(result.tuples.len(), 9);
    }

    /// A scratch directory unique to one test, cleaned before use.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pvc-engine-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn confidences(engine: &Engine, q: &Query) -> Vec<u64> {
        engine
            .prepare(q)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap()
            .tuples
            .iter()
            .map(|t| t.confidence.to_bits())
            .collect()
    }

    #[test]
    fn recovery_replays_acknowledged_deltas_bit_identically() {
        let dir = scratch_dir("recover");
        let wal = dir.join("t.wal");
        let storage = pvc_core::FsStorage::shared();
        let options = RecoverOptions::new(&wal).with_snapshot(dir.join("t.snap"));
        let q = Query::table("P1").project(["pid"]);

        let deltas = [
            Delta::new().insert("P1", vec![100i64.into(), 1i64.into()], 0.3),
            Delta::new().insert("P1", vec![101i64.into(), 2i64.into()], 0.6),
            Delta::new().set_probability("P1", 0, 0.9),
        ];
        // First "process": cold start (no snapshot, empty log), acknowledge
        // three deltas, then crash without saving anything.
        {
            let (mut engine, report) =
                Engine::recover_with(Arc::clone(&storage), figure1_db(), &options).unwrap();
            assert_eq!(report, RecoveryReport::default());
            for delta in &deltas {
                engine.apply_delta(delta.clone()).unwrap();
            }
            assert_eq!(engine.wal_high_water(), 3);
        } // drop = kill -9 as far as durable state is concerned

        // Second "process": every acknowledged delta replays from the log, and
        // the results are bit-identical to a never-crashed engine.
        let (engine, report) =
            Engine::recover_with(Arc::clone(&storage), figure1_db(), &options).unwrap();
        assert!(!report.snapshot_restored);
        assert_eq!(report.wal_replayed, 3);
        assert_eq!(report.wal_skipped, 0);
        assert_eq!(report.high_water, 3);
        let mut reference = Engine::new(figure1_db());
        for delta in &deltas {
            reference.apply_delta(delta.clone()).unwrap();
        }
        assert_eq!(confidences(&engine, &q), confidences(&reference, &q));

        // Third "process", after a snapshot: the snapshot carries the
        // high-water mark, the log rotates empty, nothing replays twice.
        engine
            .save_artifacts_with(storage.as_ref(), &dir.join("t.snap"))
            .unwrap();
        let mut engine = engine;
        engine.wal_mut().unwrap().rotate(3).unwrap();
        drop(engine);
        let (engine, report) =
            Engine::recover_with(Arc::clone(&storage), figure1_db(), &options).unwrap();
        assert!(report.snapshot_restored);
        assert_eq!(report.wal_replayed, 0);
        assert_eq!(report.high_water, 3);
        // New appends continue past the snapshotted prefix, never reusing a
        // sequence number.
        let mut engine = engine;
        engine
            .apply_delta(Delta::new().insert("P1", vec![102i64.into(), 3i64.into()], 0.5))
            .unwrap();
        assert_eq!(engine.wal_high_water(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_loses_only_the_unacknowledged_record() {
        let dir = scratch_dir("torn-tail");
        let wal = dir.join("t.wal");
        let storage = pvc_core::FsStorage::shared();
        let options = RecoverOptions::new(&wal);
        {
            let (mut engine, _) =
                Engine::recover_with(Arc::clone(&storage), figure1_db(), &options).unwrap();
            engine
                .apply_delta(Delta::new().insert("P1", vec![100i64.into(), 1i64.into()], 0.3))
                .unwrap();
            engine
                .apply_delta(Delta::new().insert("P1", vec![101i64.into(), 2i64.into()], 0.6))
                .unwrap();
        }
        // Simulate a crash mid-append: amputate the last 5 bytes.
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();
        let (engine, report) =
            Engine::recover_with(Arc::clone(&storage), figure1_db(), &options).unwrap();
        assert_eq!(report.wal_replayed, 1, "only the whole record replays");
        assert!(report.wal_tail_dropped_bytes > 0);
        // The recovered engine matches a reference that saw only delta 1.
        let mut reference = Engine::new(figure1_db());
        reference
            .apply_delta(Delta::new().insert("P1", vec![100i64.into(), 1i64.into()], 0.3))
            .unwrap();
        let q = Query::table("P1").project(["pid"]);
        assert_eq!(confidences(&engine, &q), confidences(&reference, &q));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_append_failure_refuses_the_delta_atomically() {
        let dir = scratch_dir("refuse");
        let options = RecoverOptions::new(dir.join("t.wal"));
        let faulty: Arc<dyn pvc_core::Storage> = Arc::new(pvc_core::FaultyStorage::new(
            11,
            pvc_core::FaultConfig {
                transient: 1.0,
                ..pvc_core::FaultConfig::none()
            },
        ));

        // An empty log cannot even be created on all-faulty storage: the
        // typed WAL error surfaces, never a panic.
        let err = Engine::recover_with(Arc::clone(&faulty), figure1_db(), &options).unwrap_err();
        assert!(matches!(err, Error::Wal(_)), "got {err:?}");

        // Seed a clean one-record log through healthy storage first.
        {
            let (mut engine, _) =
                Engine::recover_with(pvc_core::FsStorage::shared(), figure1_db(), &options)
                    .unwrap();
            engine
                .apply_delta(Delta::new().insert("P1", vec![100i64.into(), 1i64.into()], 0.3))
                .unwrap();
        }
        // Re-opening a clean log needs no writes, so recovery succeeds even on
        // the faulty storage — but the next append fails, and WAL-before-apply
        // must refuse the delta without touching the database.
        let (mut engine, report) =
            Engine::recover_with(Arc::clone(&faulty), figure1_db(), &options).unwrap();
        assert_eq!(report.wal_replayed, 1);
        let rows_before = engine.database().table("P1").unwrap().len();
        let hwm_before = engine.wal_high_water();
        let err = engine
            .apply_delta(Delta::new().insert("P1", vec![101i64.into(), 2i64.into()], 0.5))
            .unwrap_err();
        assert!(matches!(err, Error::Wal(_)), "got {err:?}");
        assert_eq!(engine.database().table("P1").unwrap().len(), rows_before);
        assert_eq!(engine.wal_high_water(), hwm_before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
