//! Typed mutations: the [`Delta`] batch, [`Engine::apply_delta`] with its selective
//! cache invalidation, and the write-ahead log the engine appends to *before* it
//! mutates ([`Engine::attach_wal`]; see [`crate::wal`] for the ordering argument).

use super::Engine;
use crate::error::Error;
use crate::value::Value;
use crate::wal::DeltaWal;
use pvc_algebra::SemiringKind;
use pvc_expr::{SemiringExpr, VarSet};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

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
    /// [`PvcTable::push_independent`](crate::PvcTable::push_independent)).
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
    /// [`PvcTable::push_independent`](crate::PvcTable::push_independent));
    /// anything else is a validation error.
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

impl Engine {
    /// Apply a typed batch of mutations — inserts, deletes, probability updates
    /// (see [`Delta`]) — and invalidate **only** what the delta can have touched:
    ///
    /// * artifact-cache entries (cached distributions and compiled d-tree
    ///   arenas) are evicted iff their interned variable set intersects the
    ///   delta's touched variables (`set_probability` targets and the variables
    ///   of deleted tuples; inserts create only fresh variables and touch
    ///   nothing), via
    ///   [`SharedArtifacts::evict_touching`](pvc_core::SharedArtifacts::evict_touching);
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
            None => self.wal_seq.load(Ordering::Relaxed) + 1,
        };
        self.wal_seq.fetch_max(seq, Ordering::Relaxed);

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
        let totals = &mut self.delta_totals;
        totals.applied += 1;
        totals.inserted += stats_inserted as u64;
        totals.deleted += stats_deleted as u64;
        totals.reprobed += stats_reprobed as u64;
        totals.evicted_artifacts += eviction.evicted as u64;
        totals.evicted_rewrites += evicted_rewrites as u64;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DeltaStats, EvalOptions};
    use crate::exec::tests::{figure1_db, paper_q1};
    use crate::query::{AggSpec, Predicate, Query};
    use pvc_algebra::{AggOp, CmpOp};

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
}
