//! # pvc-db
//!
//! **pvc-tables** (probabilistic value-conditioned tables, §3 of the paper), a
//! positive relational algebra with grouping/aggregation over them, and the query
//! **engine** that evaluates it:
//!
//! * [`PvcTable`] / [`Database`] — relations with an annotation column of semiring
//!   expressions and (after aggregation) semimodule expressions as values;
//! * [`Query`] — the query language `Q` of Definition 5, with well-formedness checks;
//! * [`Engine`] / [`PreparedQuery`] — the public entry point: `prepare` validates a
//!   query once, classifies it against the tractability classes of §6 and records an
//!   inspectable [`Plan`]; `execute` runs the two evaluation steps under explicit
//!   [`EvalOptions`], with compile-artifact caching and a read-once fast path for
//!   tractable queries;
//! * [`Engine::save_artifacts`] / [`Engine::with_artifacts_from`] — persistent
//!   compile-artifact snapshots: a restarted process reloads the interned
//!   expressions, cached distributions, compiled d-tree arenas and step-I
//!   rewrites and answers its first query warm (see `docs/SNAPSHOT_FORMAT.md`);
//! * [`Error`] — the single error enum of every fallible entry point;
//! * [`exec::try_evaluate`] — step I of query evaluation: the rewriting `⟦·⟧` of
//!   Fig. 4, computing result tuples together with their annotations;
//! * [`prob_eval`] — the result types of step II: per-tuple confidences and
//!   aggregate distributions, which the engine computes by compiling annotations
//!   and aggregates into decomposition trees (via `pvc-core`);
//! * [`tractable`] — the syntactic tractability classes `Q_ind` / `Q_hie` of §6.
//!
//! ```
//! use pvc_db::{Database, Engine, EvalOptions, Query, Schema};
//!
//! let mut db = Database::new();
//! db.create_table("S", Schema::new(["sid", "shop"]));
//! let (table, vars) = db.table_and_vars_mut("S")?;
//! table.push_independent(vec![1i64.into(), "M&S".into()], 0.4, vars);
//!
//! let engine = Engine::new(db);
//! let prepared = engine.prepare(&Query::table("S").project(["shop"]))?;
//! assert!(prepared.plan().strategy.is_tractable());
//! let result = prepared.execute(&EvalOptions::default())?;
//! assert!((result.tuples[0].confidence - 0.4).abs() < 1e-12);
//! # Ok::<(), pvc_db::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
pub mod engine;
pub mod error;
pub mod exec;
pub mod prob_eval;
pub mod query;
pub mod relation;
pub mod schema;
pub(crate) mod snapshot;
pub mod tractable;
pub mod value;
pub mod wal;

pub use database::Database;
pub use engine::{
    CacheStats, Delta, DeltaStats, DeltaTotals, Engine, EngineStats, EvalOptions, Plan,
    PreparedQuery, RecoverOptions, RecoveryReport, SnapshotStats, SnapshotTotals, Strategy,
    TupleStream,
};
pub use error::Error;
pub use exec::try_evaluate;
pub use prob_eval::{ProbTuple, QueryResult};
// Re-exported so engine users can bound/share the caches (and inspect snapshot
// failures) without depending on `pvc-core`.
pub use pvc_core::{CacheConfig, Durability, PersistError, SharedArtifacts, Storage};
pub use query::{AggSpec, Predicate, Query, QueryError};
pub use relation::{PvcTable, Tuple};
pub use schema::{Column, Schema};
pub use tractable::{classify, flatten_spj, QueryClass, SpjBlock};
pub use value::{KeyValue, Value};
pub use wal::{DeltaWal, LoggedDelta};
