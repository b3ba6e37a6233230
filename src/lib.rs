//! # pvc-suite
//!
//! Umbrella crate for the reproduction of *"Aggregation in Probabilistic Databases via
//! Knowledge Compilation"* (Fink, Han, Olteanu, VLDB 2012): it re-exports the public
//! API of all member crates so that applications can depend on a single crate.
//!
//! ## The engine flow
//!
//! The public entry point is the **`Engine` / prepared-query API** of [`db`]:
//!
//! ```
//! use pvc_suite::prelude::*;
//!
//! // 1. Build a probabilistic database of tuple-independent tables.
//! let mut db = Database::new();
//! db.create_table("offers", Schema::new(["shop", "price"]));
//! let (offers, vars) = db.table_and_vars_mut("offers")?;
//! offers.push_independent(vec!["M&S".into(), 10i64.into()], 0.9, vars);
//! offers.push_independent(vec!["Gap".into(), 12i64.into()], 0.8, vars);
//!
//! // 2. The engine owns the database plus a cache of compile artifacts.
//! let engine = Engine::new(db);
//!
//! // 3. `prepare` validates once, computes the schema and classifies the query
//! //    against the §6 tractability classes — inspect the result via `Plan`.
//! let query = Query::table("offers").group_agg(
//!     ["shop"],
//!     vec![AggSpec::new(AggOp::Min, "price", "cheapest")],
//! );
//! let prepared = engine.prepare(&query)?;
//! assert!(prepared.plan().strategy.is_tractable());
//!
//! // 4. `execute` runs the ⟦·⟧ rewriting and d-tree compilation; invalid input
//! //    and exceeded budgets surface as `Err(pvc_db::Error)`, never a panic.
//! let result = prepared.execute(&EvalOptions::default())?;
//! assert_eq!(result.tuples.len(), 2);
//! # Ok::<(), pvc_suite::db::Error>(())
//! ```
//!
//! ## Caching & reuse
//!
//! Identical sub-provenance recurs constantly across tuples, executions and queries,
//! so the engine memoises compilation artifacts in a shared, bounded subsystem:
//!
//! * **hash-consed expression arena** ([`expr::intern`]) — every annotation and
//!   aggregate expression is interned into a canonical id with O(1) structural
//!   equality and a 64-bit hash that is stable under commutative operand
//!   reordering, so `x·(y + z)` and `(z + y)·x` share one identity;
//! * **canonical compilation cache** ([`core::cache`]) — distributions and
//!   confidences are memoised under those ids in an LRU store with configurable
//!   entry/byte bounds (`CacheConfig`), one entry per expression computed;
//! * **engine integration** — [`db::Engine`] owns one arena + cache pair; repeated
//!   executions and *structurally equal queries under different renderings* hit the
//!   same entries. [`db::CacheStats`] reports entries, bytes, hits, misses,
//!   evictions and cross-query hits; `Engine::with_cache_config` bounds the
//!   artifact payloads (the heavy part — distributions). The arena itself and
//!   the per-query rewrite cache grow with the number of distinct
//!   expressions/queries seen.
//!
//! ## Updates
//!
//! Databases are mutated through the typed **delta API**: `Delta` is a
//! validated, atomic batch of inserts, deletes and variable re-weightings that
//! `Engine::apply_delta` applies with **selective invalidation** — only cached
//! artifacts whose variable set intersects the delta (and step-I rewrites
//! whose base tables were touched) are evicted, so queries over untouched
//! tables keep answering with zero recompilations ([`db::DeltaStats`] counts
//! exactly what was evicted vs. kept). Under serving,
//! `serve::Server::apply_delta` applies a delta to an idle tenant between
//! batches; see `docs/ARCHITECTURE.md` §"Updates and invalidation".
//!
//! For tractable plans the engine also skips compilation entirely where closed
//! forms exist: read-once confidences, and MIN/MAX aggregate distributions over
//! independent terms (Proposition 1 of the paper).
//!
//! ## Member crates
//!
//! * [`algebra`] — the `B` / `N` semiring values, aggregation monoids and their
//!   semimodule action (§2.2);
//! * [`prob`] — discrete distributions, convolution (§2.1) and the seeded RNG;
//! * [`expr`] — semiring/semimodule expressions over random variables (Fig. 2);
//! * [`core`] — decomposition trees and the compilation algorithm (§5);
//! * [`db`] — pvc-tables, the query language `Q` with the `⟦·⟧` rewriting (§3–4),
//!   the tractability classes of §6 and the [`db::Engine`] described above;
//! * [`serve`] — the long-lived serving runtime (not in the paper): a
//!   [`serve::Server`] owning one engine per tenant, a persistent worker pool,
//!   admission control, cross-query batch scheduling, idle-time artifact
//!   compaction and background snapshots for warm restarts;
//! * [`workload`] — the synthetic expression generator of the experiments (§7.1);
//! * [`tpch`] — the TPC-H-like data generator and queries Q1/Q2 (§7.2).
//!
//! See `examples/quickstart.rs` for a five-minute tour of the engine flow, and
//! `tests/api_errors.rs` for the error contract of `prepare`/`execute`.

#![forbid(unsafe_code)]

pub use pvc_algebra as algebra;
pub use pvc_core as core;
pub use pvc_core::obs;
pub use pvc_db as db;
pub use pvc_expr as expr;
pub use pvc_prob as prob;
pub use pvc_serve as serve;
pub use pvc_tpch as tpch;
pub use pvc_workload as workload;

/// The most commonly used items, for `use pvc_suite::prelude::*`.
pub mod prelude {
    pub use pvc_algebra::{AggOp, CmpOp, MonoidValue, SemiringKind, SemiringValue};
    pub use pvc_core::{
        confidence, semimodule_distribution, semiring_distribution, CompileOptions, Compiler,
        DTreeArena, ExecutionProfile,
    };
    pub use pvc_db::{
        classify, try_evaluate, try_tuple_confidences, AggSpec, CacheConfig, CacheStats, Database,
        Delta, DeltaStats, DeltaTotals, Engine, EngineStats, Error, EvalOptions, PersistError,
        Plan, Predicate, PreparedQuery, ProbTuple, PvcTable, Query, QueryClass, QueryResult,
        Schema, SharedArtifacts, SnapshotStats, SnapshotTotals, Strategy, TupleStream, Value,
    };
    pub use pvc_expr::{Interner, SemimoduleExpr, SemiringExpr, Var, VarTable};
    pub use pvc_prob::{Dist, MonoidDist, SemiringDist};
    pub use pvc_serve::{ResultStream, ServeConfig, ServeError, Server, ServerStats, Ticket};
}
