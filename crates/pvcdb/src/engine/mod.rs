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
//! (`1` = sequential, `0` = one per core) — as jobs on the shared pool of
//! [`EvalOptions::pool`], or on a pool the execution starts and joins itself — and
//! [`PreparedQuery::execute_streaming`] returns a [`TupleStream`] that yields
//! [`ProbTuple`](crate::ProbTuple)s **in deterministic tuple order as they are
//! computed**, so large results can be consumed incrementally.
//! [`PreparedQuery::execute`] is the
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

mod delta;
mod options;
mod recover;
mod rewrite_cache;
mod snapshot;
mod stats;
mod step_two;
mod stream;

pub use delta::{Delta, DeltaStats};
pub(crate) use delta::{DeltaKind, DeltaOp};
pub use options::{EvalOptions, Plan, Strategy};
pub use recover::{RecoverOptions, RecoveryReport};
pub use snapshot::SnapshotStats;
pub use stats::{CacheStats, DeltaTotals, EngineStats, SnapshotTotals};
pub use stream::TupleStream;

use crate::database::Database;
use crate::error::Error;
use crate::prob_eval::QueryResult;
use crate::query::Query;
use crate::relation::PvcTable;
use crate::schema::Schema;
use crate::wal::DeltaWal;
use options::plan_query;
use pvc_algebra::SemiringKind;
use pvc_core::obs;
use pvc_core::parallel::resolve_threads;
use pvc_core::persist::fnv64;
use pvc_core::{CacheConfig, CompactionStats, SharedArtifacts};
use rewrite_cache::RewriteCache;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use step_two::{StepTwo, TupleCounters, TupleProfile};
use stream::spawn_stream;

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

impl Caches {
    /// Empty caches over `artifacts`, the rewrite cache under the same bounds.
    fn new(artifacts: Arc<SharedArtifacts>) -> Self {
        Caches {
            rewrites: Mutex::new(RewriteCache::new(artifacts.config())),
            artifacts,
        }
    }

    fn rewrites(&self) -> std::sync::MutexGuard<'_, RewriteCache> {
        self.rewrites.lock().expect("rewrite cache lock poisoned")
    }
}

/// The query engine: owns a [`Database`] and a cache of compile artifacts, and hands
/// out validated [`PreparedQuery`] values.
#[derive(Debug)]
pub struct Engine {
    db: Arc<Database>,
    caches: Caches,
    /// Cumulative [`Engine::apply_delta`] activity.
    delta_totals: DeltaTotals,
    /// Cumulative snapshot activity; locked because saves and restores take `&self`.
    snapshot_totals: Mutex<SnapshotTotals>,
    /// The attached delta write-ahead log, if any ([`Engine::attach_wal`]).
    wal: Option<DeltaWal>,
    /// High-water mark of the durable state this engine was built from: the
    /// last WAL sequence number already reflected in the database (restored
    /// snapshot hwm, advanced by replay and by logged applies). Atomic so the
    /// `&self` snapshot/restore paths can read and advance it.
    wal_seq: AtomicU64,
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
        Engine::with_cache_config(db, CacheConfig::default())
    }

    /// Create an engine with explicit compile-artifact cache bounds (entry and byte
    /// LRU limits; see [`CacheConfig`]).
    pub fn with_cache_config(db: Database, config: CacheConfig) -> Self {
        Engine::with_shared_artifacts(db, Arc::new(SharedArtifacts::new(config)))
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
            caches: Caches::new(artifacts),
            delta_totals: DeltaTotals::default(),
            snapshot_totals: Mutex::default(),
            wal: None,
            wal_seq: AtomicU64::new(0),
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

    /// Consume the engine, returning the database.
    pub fn into_database(self) -> Database {
        Arc::try_unwrap(self.db).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Compact this engine's artifact store: rebuild the hash-consed expression
    /// arena from the **live** cache entries only, retiring every interned node
    /// that no longer backs a cached distribution (see
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

    /// One-shot evaluation without an engine: validate, rewrite, compute
    /// probabilities — the pipeline of [`PreparedQuery::execute`] on caches of
    /// its own (default bounds), dropped on return. Prefer [`Engine::prepare`]
    /// for anything executed more than once.
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
        let share = || Arc::new(db.clone());
        let caches = Caches::new(Arc::new(SharedArtifacts::new(CacheConfig::default())));
        execute_pipeline(db, &share, query, &plan, options, &caches)
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
        let engine = self.engine;
        let share = || Arc::clone(&engine.db);
        let caches = &engine.caches;
        execute_pipeline(&engine.db, &share, &self.query, &self.plan, options, caches)
    }

    /// Run steps I+II, returning a [`TupleStream`] that yields result tuples **in
    /// deterministic tuple order, as they are computed** by background workers.
    ///
    /// Step I (the rewriting) runs synchronously before this returns — it is
    /// inherently sequential and produces the tuple list the workers share. Step II
    /// is then computed by [`EvalOptions::threads`] worker threads (at least one:
    /// even `threads = 1` computes in the background, overlapping production with
    /// consumption — unless the result is empty, which starts none), each handing
    /// over a range of consecutive tuples per message: one at a time at the start
    /// of the stream, so the first tuple is not held back, sixteen in the steady
    /// state. Dropping the stream cancels the remaining work and joins the
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
        let caches = &engine.caches;
        let (_query_span, step) = step_one(&engine.db, &self.query, &self.plan, options, caches)?;
        // Workers run per-tuple spans; the coordinator-level evaluate span is
        // counted here once (the stream outlives this call).
        let _evaluate_span = obs::span("evaluate");
        spawn_stream(Arc::clone(&engine.db), options, step)
    }
}

/// What step I, the plan and the options hand to step II of one execution.
#[derive(Debug)]
struct Rewritten {
    /// The step-I result table.
    table: Arc<PvcTable>,
    /// Attributes artifact-cache inserts to this query (for cross-query hit
    /// accounting): the FNV-1a digest of its structural key.
    scope: u64,
    rewrite_time: Duration,
    /// Whether this execution may use the §6 read-once fast paths.
    try_fast: bool,
    /// The artifact store that answers every confidence and aggregate of this
    /// execution: the engine's shared store, or — under a node budget, which makes
    /// compilation observably fallible — a fresh store with the same bounds,
    /// private to this execution, so no success cached without that budget (or
    /// under another one) can mask the error. Every other option only changes
    /// *how* the exact result is computed, never the result.
    artifacts: Arc<SharedArtifacts>,
    /// Resolved worker count: at least 1, at most one per result tuple.
    threads: usize,
}

/// Step I under its `query` / `rewrite` spans: the rewriting `⟦·⟧`, cached per
/// canonical query key. The query was already validated by `prepare`, so the cold
/// path skips re-validation and stamps the plan's schema directly. The returned
/// `query` span stays open over the caller's step II.
fn step_one(
    db: &Database,
    query: &Query,
    plan: &Plan,
    options: &EvalOptions,
    caches: &Caches,
) -> Result<(Option<obs::SpanGuard>, Rewritten), Error> {
    let query_span = obs::span("query");
    let rewrite_span = obs::span("rewrite");
    let start = Instant::now();
    let key = query.structural_key();
    let scope = fnv64(&key);
    let cached = caches.rewrites().get(&key);
    let table = match cached {
        Some(table) => table,
        None => {
            let mut table = crate::exec::rewrite_planned(db, query)?;
            table.schema = plan.schema.clone();
            table.name = "result".to_string();
            let table = Arc::new(table);
            caches
                .rewrites()
                .insert(key, Arc::clone(&table), plan.base_tables.clone());
            table
        }
    };
    let rewrite_time = start.elapsed();
    drop(rewrite_span);
    if let Some(s) = &query_span {
        s.attr("structural_key", format!("{scope:016x}"));
    }
    let step = Rewritten {
        scope,
        rewrite_time,
        try_fast: options.tractable_fast_path
            && plan.strategy.is_tractable()
            && db.kind == SemiringKind::Bool,
        artifacts: match options.compile.node_budget {
            Some(_) => Arc::new(SharedArtifacts::new(caches.artifacts.config())),
            None => Arc::clone(&caches.artifacts),
        },
        threads: resolve_threads(options.threads, table.tuples.len()),
        table,
    };
    Ok((query_span, step))
}

/// Column names of a result table.
fn column_names(table: &PvcTable) -> Vec<String> {
    table
        .schema
        .names()
        .into_iter()
        .map(str::to_string)
        .collect()
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

/// Steps I+II over `caches`, materialising the whole result. Step II runs
/// inline in the calling thread when one worker is asked for — no thread, no
/// channel, so cheap executions pay no hand-off — and as a drained [`TupleStream`]
/// otherwise; both feed one epilogue. `share` hands out the owning handle to `db`
/// that workers need and is asked only then, which keeps [`Engine::execute_once`]
/// (whose `share` clones the database) copy-free on one worker.
fn execute_pipeline(
    db: &Database,
    share: &dyn Fn() -> Arc<Database>,
    query: &Query,
    plan: &Plan,
    options: &EvalOptions,
    caches: &Caches,
) -> Result<QueryResult, Error> {
    let (_query_span, step) = step_one(db, query, plan, options, caches)?;
    let (scope, rewrite_time, threads) = (step.scope, step.rewrite_time, step.threads);
    let columns = column_names(&step.table);
    let total = step.table.tuples.len();
    let start = Instant::now();
    let mut tuples = Vec::with_capacity(total);
    let (probability_time, profiles, fast_path_hits, agg_fast_path_hits) = if threads <= 1 {
        let counters = TupleCounters::default();
        let step_two = StepTwo {
            db,
            options,
            step: &step,
            counters: &counters,
        };
        let mut profiles: Vec<TupleProfile> = Vec::new();
        {
            let _evaluate_span = obs::span("evaluate");
            for index in 0..total {
                let (tuple, profile) = step_two.tuple(index)?;
                tuples.push(tuple);
                profiles.extend(profile);
            }
        }
        let probability_time = start.elapsed();
        let fast = counters.fast_path_hits.load(Ordering::Relaxed);
        let agg = counters.agg_fast_path_hits.load(Ordering::Relaxed);
        (probability_time, profiles, fast, agg)
    } else {
        let mut stream = spawn_stream(share(), options, step)?;
        {
            let _evaluate_span = obs::span("evaluate");
            for item in &mut stream {
                // The first error (in tuple order) wins, exactly as in the inline
                // loop; dropping the stream cancels and quiesces the workers.
                tuples.push(item?);
            }
        }
        // Read the clock before the stream's drop joins anything.
        let probability_time = start.elapsed();
        let (fast, agg) = (stream.fast_path_hits(), stream.agg_fast_path_hits());
        (probability_time, stream.take_profiles(), fast, agg)
    };
    Ok(QueryResult {
        columns,
        tuples,
        rewrite_time,
        probability_time,
        fast_path_hits,
        agg_fast_path_hits,
        threads,
        profile: options
            .profile
            .then(|| build_profile(scope, rewrite_time, probability_time, profiles)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{figure1_db, paper_q1};
    use crate::query::QueryError;
    use crate::tractable::QueryClass;

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
}
