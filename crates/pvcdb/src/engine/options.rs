//! What the caller chooses and what `prepare` concludes: [`EvalOptions`] for one
//! execution, and the [`Plan`] (tractability class, [`Strategy`], validated schema)
//! that [`Engine::prepare`](super::Engine::prepare) records before anything runs.

use crate::database::Database;
use crate::error::Error;
use crate::query::Query;
use crate::schema::Schema;
use crate::tractable::{classify, QueryClass};
use pvc_core::parallel::WorkerPool;
use pvc_core::CompileOptions;
use std::fmt;
use std::sync::Arc;

/// Options controlling one execution of a prepared query: how expressions are
/// compiled, whether the §6 tractable fast path may be used, how many worker
/// threads share the per-tuple work, and how much of the result is materialised.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Options forwarded to the d-tree compiler (rule selection, node budget).
    pub compile: CompileOptions,
    /// Allow the §6 closed forms — read-once tuple confidences and Proposition 1's
    /// MIN/MAX distributions — when the plan classified the query as tractable
    /// (`Q_ind`/`Q_hie`). On by default. Results agree either way up to the
    /// compiled circuit's drop rule, **not** bit for bit: the circuit drops
    /// cells below `PROB_EPS` at every step and the closed forms do not, so they
    /// keep mass the circuit loses (one group of 1 000 independent rows: MIN
    /// misses 1.6e-9 of its mass in closed form, 7.2e-8 through the circuit;
    /// the group's confidence is exactly 1.0 vs 1 − 6.5e-10). See
    /// `docs/ARCHITECTURE.md`, "The §6 closed forms".
    pub tractable_fast_path: bool,
    /// Materialise the exact distribution of every aggregation attribute. Disable
    /// (see [`EvalOptions::confidence_only`]) to skip the semimodule compilation when
    /// only tuple confidences are needed.
    pub aggregate_distributions: bool,
    /// Worker threads for step II (per-tuple d-tree compilation): `1` (the default)
    /// runs sequentially in the calling thread, `0` asks for one worker per available
    /// core, any other value for exactly that many (never more than there are result
    /// tuples). The workers are those of [`pool`](Self::pool) when one is set, and of
    /// a [`WorkerPool`] the execution starts, owns and joins otherwise. Results are
    /// **bit-identical** for every setting — tuple order, confidences and aggregate
    /// distributions do not depend on the worker count.
    pub threads: usize,
    /// Collect a per-query [`ExecutionProfile`](pvc_core::obs::ExecutionProfile)
    /// on the returned [`QueryResult`](crate::QueryResult): a span tree covering
    /// the rewrite and the per-tuple evaluation, with the path that answered each
    /// annotation and aggregate (cache, fast path, fold or compilation) and the
    /// kernel path taken per tuple. Off by default; results are bit-identical
    /// either way, and the profile's [`shape`](pvc_core::obs::ExecutionProfile::shape) is
    /// deterministic across runs and thread counts (given identical cache state).
    pub profile: bool,
    /// A persistent, shared [`WorkerPool`] to run step II on. Parallel executions
    /// always submit their worker loops as pool jobs; when this is set they go to
    /// this pool (at most [`WorkerPool::threads`] of them), amortising thread
    /// start-up across every query of a long-lived process — the serving default
    /// (`pvc-serve` sets this together with `threads: 0`). `None` (the default)
    /// makes each parallel execution start a pool of [`threads`](Self::threads)
    /// workers of its own and join it when the execution (or its
    /// [`TupleStream`](super::TupleStream)) ends. Results are bit-identical either
    /// way.
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

    /// Set a d-tree node budget; compilation beyond it returns [`Error::Compile`].
    ///
    /// A budgeted execution answers through a fresh artifact store with the
    /// engine's bounds, private to it and dropped when it ends, so no
    /// distribution cached without this budget (or under another one) hides
    /// the error; that store compiles every root, never folding a leaf list
    /// the budget would have to bound. The engine's own store is neither read
    /// nor filled; the step-I rewrite cache is shared as usual.
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

    /// Run step II on a persistent, shared [`WorkerPool`] instead of one the
    /// execution starts for itself (see [`EvalOptions::pool`]).
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Collect a per-query [`ExecutionProfile`](pvc_core::obs::ExecutionProfile) on the
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

/// The inspectable plan produced by [`Engine::prepare`](super::Engine::prepare): what
/// the validator and the tractability analysis concluded about a query, before
/// anything is executed.
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

/// Validate + classify: the planning half of `prepare`.
pub(super) fn plan_query(db: &Database, query: &Query) -> Result<Plan, Error> {
    let schema = query.output_schema(db).map_err(Error::Validation)?;
    let class = classify(query, db);
    let base_tables = query.base_tables();
    let mut distinct = base_tables.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let tuple_independent_input = distinct
        .iter()
        .all(|name| db.is_table_tuple_independent(name));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::exec::tests::figure1_db;
    use crate::query::AggSpec;
    use pvc_algebra::AggOp;

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
}
