//! Step II for one result tuple (§5): its confidence and the distribution of each
//! of its aggregation attributes, each through the same three stages — canonical
//! cache, §6 closed form, the artifact store's fold or compilation — behind one
//! borrowed [`StepTwo`] context per execution.

use super::options::EvalOptions;
use super::Rewritten;
use crate::database::Database;
use crate::error::Error;
use crate::prob_eval::ProbTuple;
use crate::value::Value;
use pvc_algebra::{AggOp, MonoidValue, SemiringKind, SemiringValue};
use pvc_core::{confidence_of, obs};
use pvc_expr::{SemimoduleExpr, SemiringExpr, VarTable};
use pvc_prob::{Dist, MonoidDist, SemiringDist};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-execution fast-path counters, shared across workers.
#[derive(Debug, Default)]
pub(super) struct TupleCounters {
    pub(super) fast_path_hits: AtomicUsize,
    pub(super) agg_fast_path_hits: AtomicUsize,
}

/// A per-tuple profile fragment: the tuple's span tree plus the number of spans
/// its bounded ring dropped.
pub(super) type TupleProfile = (obs::ProfileNode, u64);

/// Everything step II needs to compute any tuple of one execution, borrowed: built
/// once per execution by the inline loop, lent by a stream to each of its workers.
/// A tuple is a pure function of this context and its index, so output does not
/// depend on which thread asks.
pub(super) struct StepTwo<'a> {
    pub(super) db: &'a Database,
    pub(super) options: &'a EvalOptions,
    pub(super) step: &'a Rewritten,
    pub(super) counters: &'a TupleCounters,
}

impl StepTwo<'_> {
    /// Result tuple `index` wrapped in per-tuple observability: a `tuple` span
    /// (counted in global tracing mode), and — in profile mode — a thread-local
    /// [`obs::Trace`] capturing the tuple's full span tree, with the kernel dispatch
    /// counts (dense/sparse) attributed deterministically via `pvc_prob`'s
    /// thread-local capture. Per-tuple work is single-threaded regardless of
    /// `threads`, so the resulting tree does not depend on the worker count.
    pub(super) fn tuple(&self, index: usize) -> Result<(ProbTuple, Option<TupleProfile>), Error> {
        if !self.options.profile {
            let _span = obs::span("tuple");
            return Ok((self.evaluate(index)?, None));
        }
        let trace = Rc::new(obs::Trace::new(obs::DEFAULT_TRACE_CAPACITY));
        let result = obs::with_trace(Rc::clone(&trace), || {
            let span = obs::span("tuple");
            let prior = pvc_prob::begin_tuple_capture();
            let result = self.evaluate(index);
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

    /// Compute one result tuple: its confidence and (when requested) the
    /// distribution of every aggregation attribute.
    fn evaluate(&self, index: usize) -> Result<ProbTuple, Error> {
        let table = &self.step.table;
        let tuple = &table.tuples[index];
        let confidence = self.confidence(&tuple.annotation)?;
        let mut aggregate_distributions = BTreeMap::new();
        if self.options.aggregate_distributions {
            for (column, value) in table.schema.columns().iter().zip(&tuple.values) {
                if let Value::Agg(expr) = value {
                    aggregate_distributions.insert(column.name.clone(), self.aggregate(expr)?);
                }
            }
        }
        Ok(ProbTuple {
            values: tuple.values.clone(),
            confidence,
            aggregate_distributions,
        })
    }

    /// The confidence of one annotation: canonical cache, then read-once fast path,
    /// then the store's fold or compilation.
    fn confidence(&self, annotation: &SemiringExpr) -> Result<f64, Error> {
        let span = obs::span("confidence");
        let (db, scope, arts) = (self.db, self.step.scope, &self.step.artifacts);
        let id = {
            let _intern_span = obs::span("intern");
            arts.intern(annotation)
        };
        // Warm path: reduce the cached distribution to its confidence under the
        // lock — no per-tuple clone.
        if let Some(p) = arts.map_semiring(id, scope, confidence_of) {
            record_path(&span, "cache");
            return Ok(p);
        }
        if self.step.try_fast {
            if let Some(p) = read_once_confidence(annotation, &db.vars) {
                self.counters.fast_path_hits.fetch_add(1, Ordering::Relaxed);
                // The fast path only runs over the Boolean semiring, so the
                // confidence determines the full distribution — cache it so later
                // lookups can reuse it.
                let dist: SemiringDist = Dist::from_pairs([
                    (SemiringValue::Bool(true), p),
                    (SemiringValue::Bool(false), 1.0 - p),
                ]);
                arts.insert_semiring(id, scope, &dist);
                record_path(&span, "fast");
                return Ok(p);
            }
        }
        // The lookup above already recorded the miss; fill without re-checking.
        let compile = &self.options.compile;
        let dist = arts.fill_semiring(id, &db.vars, db.kind, compile, scope)?;
        record_computed_path(&span);
        Ok(confidence_of(&dist))
    }

    /// The exact distribution of one aggregate: canonical cache, then the MIN/MAX
    /// read-once closed form, then the store's fold or compilation.
    fn aggregate(&self, expr: &SemimoduleExpr) -> Result<MonoidDist, Error> {
        let span = obs::span("aggregate");
        let (db, scope, arts) = (self.db, self.step.scope, &self.step.artifacts);
        let id = {
            let _intern_span = obs::span("intern");
            arts.intern_semimodule(expr)
        };
        if let Some(d) = arts.get_aggregate(id, scope) {
            record_path(&span, "cache");
            return Ok(d);
        }
        if self.step.try_fast {
            if let Some(d) = min_max_read_once_distribution(expr, &db.vars) {
                self.counters
                    .agg_fast_path_hits
                    .fetch_add(1, Ordering::Relaxed);
                arts.insert_aggregate(id, scope, &d);
                record_path(&span, "fast");
                return Ok(d);
            }
        }
        // The lookup above already recorded the miss; fill without re-checking.
        let compile = &self.options.compile;
        let dist = arts.fill_aggregate(id, &db.vars, db.kind, compile, scope)?;
        record_computed_path(&span);
        Ok(dist)
    }
}

/// Record on a `confidence` / `aggregate` span which stage answered: `cache`, `fast`,
/// `fold` or `compile`.
fn record_path(span: &Option<obs::SpanGuard>, path: &str) {
    if let Some(s) = span {
        s.attr("path", path.into());
    }
}

/// The path of an answer the store computed rather than found: `compile` when it
/// compiled a d-tree for it (always under a node budget), `fold` when it folded
/// it as a leaf list.
fn record_computed_path(span: &Option<obs::SpanGuard>) {
    if let Some(s) = span {
        let path = if s.enclosed("compile") {
            "compile"
        } else {
            "fold"
        };
        s.attr("path", path.into());
    }
}

/// Read-once confidence evaluation over the Boolean semiring: the probability that a
/// sum/product of *variable-disjoint* subexpressions is non-zero multiplies out
/// directly, with no d-tree. Returns `None` whenever the expression is not of that
/// shape (shared variables, comparisons, non-Boolean variables) — the caller then
/// falls back to full compilation, so this is always sound.
fn read_once_confidence(expr: &SemiringExpr, vars: &VarTable) -> Option<f64> {
    let p = independent_confidence(expr, vars)?;
    distinct_variables([expr])?;
    Some(p)
}

/// The shape half of [`read_once_confidence`]: the closed form over sums and
/// products of Boolean variables and constants, computed as if every variable
/// occurred once — `None` on any other shape. Disjointness is checked once for
/// the whole expression, afterwards: children are pairwise variable-disjoint at
/// every level iff no variable occurs twice in the whole.
fn independent_confidence(expr: &SemiringExpr, vars: &VarTable) -> Option<f64> {
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
            let mut p = 1.0;
            for child in children {
                p *= independent_confidence(child, vars)?;
            }
            Some(p)
        }
        SemiringExpr::Add(children) => {
            let mut q = 1.0;
            for child in children {
                q *= 1.0 - independent_confidence(child, vars)?;
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
    let mut present: Vec<(MonoidValue, f64)> = Vec::with_capacity(expr.terms.len());
    for t in &expr.terms {
        present.push((t.value, independent_confidence(&t.coeff, vars)?));
    }
    // Read-once coefficients, pairwise disjoint, so the terms are independent.
    distinct_variables(expr.terms.iter().map(|t| &t.coeff))?;
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

/// `Some(())` iff no variable occurs twice across `exprs`: one sort of every
/// occurrence and a look for an adjacent duplicate, `O(n log n)` in the number
/// of occurrences.
fn distinct_variables<'a>(exprs: impl IntoIterator<Item = &'a SemiringExpr>) -> Option<()> {
    let mut occurrences = Vec::new();
    for expr in exprs {
        expr.collect_vars(&mut occurrences);
    }
    occurrences.sort_unstable();
    occurrences.windows(2).all(|w| w[0] != w[1]).then_some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CacheStats, Engine};
    use crate::exec::tests::{figure1_db, paper_q1};
    use crate::query::{AggSpec, Predicate, Query};
    use crate::schema::Schema;
    use crate::tractable::QueryClass;
    use pvc_algebra::CmpOp;
    use pvc_core::Compiler;
    use pvc_expr::oracle;
    use pvc_prob::SeededRng;

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
    fn a_budget_compiles_leaf_lists_in_a_private_store() {
        // TPC-H Q1's shape: COUNT per group over independent rows. Every root —
        // a group confidence [Σ xᵢ ≠ 0], a COUNT over its rows — is a leaf list
        // the store folds without compiling; under a budget below a group's
        // chain the compiler runs instead and fails, on a cold engine and a
        // warm one, and a budgeted execution leaves the engine's store as it
        // found it.
        let mut db = Database::new();
        db.create_table("L", Schema::new(["g", "v"]));
        let (rows, vars) = db.table_and_vars_mut("L").unwrap();
        for i in 0..24i64 {
            rows.push_independent(vec![(i % 3).into(), i.into()], 0.5, vars);
        }
        let engine = Engine::new(db);
        let q = Query::table("L").group_agg(["g"], vec![AggSpec::count("c")]);
        let prepared = engine.prepare(&q).unwrap();
        let budgeted = EvalOptions::default().with_node_budget(4);
        let artifacts = |s: CacheStats| {
            let counts = (s.confidences, s.aggregates, s.interned, s.bytes);
            (counts, s.hits, s.misses, s.arena_misses)
        };
        let err = prepared.execute(&budgeted).unwrap_err();
        assert!(matches!(err, Error::Compile(_)), "cold: {err}");
        assert_eq!(
            artifacts(engine.cache_stats()),
            artifacts(CacheStats::default())
        );
        let unbudgeted = prepared.execute(&EvalOptions::default()).unwrap();
        assert_eq!(unbudgeted.tuples.len(), 3);
        let warm = engine.cache_stats();
        assert_eq!(warm.confidences + warm.aggregates, 6);
        assert_eq!(warm.arena_misses, 0, "every root was folded");
        let err = prepared.execute(&budgeted).unwrap_err();
        assert!(matches!(err, Error::Compile(_)), "warm: {err}");
        let unbounded = EvalOptions::default().with_node_budget(usize::MAX);
        let compiled = prepared.execute(&unbounded).unwrap();
        assert_eq!(engine.cache_stats(), warm);
        for (a, b) in compiled.tuples.iter().zip(&unbudgeted.tuples) {
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
            assert_eq!(a.aggregate_distributions, b.aggregate_distributions);
        }
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
    fn the_closed_forms_check_disjointness_in_one_sort() {
        // One group of n independent tuples through each closed form. The
        // variables are checked for repeats with one sort, not a union grown
        // over every term: octupling n must cost well under the 64× of a
        // quadratic check (n log n predicts ≈ 9×). Each side is the best of
        // nine wall-clock runs, and the runs of the two sides alternate, so a
        // stretch in which other work holds the cores slows both sides' runs
        // or neither's, and a side's best run is one that ran alone.
        fn input(n: i64) -> (VarTable, SemimoduleExpr, SemiringExpr) {
            let mut vars = VarTable::new();
            let xs: Vec<SemiringExpr> = (0..n)
                .map(|_| SemiringExpr::Var(vars.boolean("", 0.5)))
                .collect();
            let alpha = SemimoduleExpr::from_terms(
                AggOp::Min,
                xs.iter()
                    .zip(0..)
                    .map(|(x, i)| (x.clone(), MonoidValue::Fin(i)))
                    .collect(),
            );
            (vars, alpha, SemiringExpr::sum(xs))
        }
        fn timed((vars, alpha, sum): &(VarTable, SemimoduleExpr, SemiringExpr), min: bool) -> f64 {
            let start = std::time::Instant::now();
            let answered = match min {
                true => min_max_read_once_distribution(alpha, vars).is_some(),
                false => read_once_confidence(sum, vars).is_some(),
            };
            let elapsed = start.elapsed().as_secs_f64();
            assert!(answered, "independent terms are read-once");
            elapsed
        }
        let n = 4_000;
        let (small_input, large_input) = (input(n), input(8 * n));
        for min in [false, true] {
            let (mut small, mut large) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..9 {
                small = small.min(timed(&small_input, min));
                large = large.min(timed(&large_input, min));
            }
            let ratio = large / small;
            assert!(
                ratio < 24.0,
                "min={min}: {} terms took {large:.6} s, {n} terms {small:.6} s: ratio {ratio:.1}",
                8 * n
            );
        }
    }

    /// A read-once expression over fresh Boolean variables: a variable, or a sum
    /// or product of two to four such expressions over disjoint variables. With
    /// `P[⊤]` in `[0.3, 0.7]` and at most sixteen variables no cell of any node
    /// comes near `PROB_EPS`, so the drop rule stays out of the comparison.
    fn read_once_shape(rng: &mut SeededRng, vars: &mut VarTable, depth: u32) -> SemiringExpr {
        if depth == 0 || rng.gen_range(0usize..4) == 0 {
            let p = 0.3 + 0.4 * rng.next_f64();
            return SemiringExpr::Var(vars.boolean("", p));
        }
        let children = (0..rng.gen_range(2usize..5))
            .map(|_| read_once_shape(rng, vars, depth - 1))
            .collect();
        if rng.gen_range(0usize..2) == 0 {
            SemiringExpr::sum(children)
        } else {
            SemiringExpr::product(children)
        }
    }

    #[test]
    fn read_once_annotations_compile_without_case_splits_to_the_closed_form() {
        // What the closed form accepts, the compiler handles by independence
        // splits alone, and the circuit's one pass gives the same confidence up
        // to the order of the multiplications.
        let db = figure1_db();
        let shops = crate::exec::try_evaluate(&db, &Query::table("S").project(["shop"])).unwrap();
        let mut cases: Vec<(SemiringExpr, VarTable)> = shops
            .iter()
            .map(|t| (t.annotation.clone(), db.vars.clone()))
            .collect();
        let mut rng = SeededRng::seed_from_u64(0x4ead_0ce5);
        for _ in 0..60 {
            let mut vars = VarTable::new();
            let expr = read_once_shape(&mut rng, &mut vars, 2);
            cases.push((expr, vars));
        }
        let mut nodes = 0;
        for (expr, vars) in &cases {
            let closed = read_once_confidence(expr, vars).expect("a read-once shape");
            // … and the same under `[· ≠ 0_B]`, which the closed form declines.
            let wrapped = SemiringExpr::cmp_ss(
                CmpOp::Ne,
                expr.clone(),
                SemiringExpr::zero(SemiringKind::Bool),
            );
            assert_eq!(read_once_confidence(&wrapped, vars), None);
            for annotation in [expr, &wrapped] {
                let mut compiler = Compiler::new(vars, SemiringKind::Bool);
                let arena = compiler.emit_semiring(annotation).unwrap();
                nodes += arena.len();
                let dist = arena
                    .semiring_distribution(vars, SemiringKind::Bool)
                    .unwrap();
                assert!(
                    (confidence_of(&dist) - closed).abs() < 1e-12,
                    "{annotation}: {} vs {closed}",
                    confidence_of(&dist)
                );
                assert_eq!(compiler.stats().exclusive_expansions, 0, "{annotation}");
            }
        }
        assert!(nodes > 1_000, "{nodes} d-tree nodes went through");
        // Where they part: thirty-two unlikely factors multiply to 2⁻³², which the
        // closed form returns and the circuit's drop rule rounds to "never".
        let mut vars = VarTable::new();
        let unlikely = SemiringExpr::product(
            (0..32)
                .map(|_| SemiringExpr::Var(vars.boolean("", 0.5)))
                .collect(),
        );
        let closed = read_once_confidence(&unlikely, &vars).unwrap();
        assert!(closed > 0.0 && closed < pvc_prob::PROB_EPS);
        assert_eq!(
            pvc_core::confidence(&unlikely, &vars, SemiringKind::Bool),
            0.0
        );
    }
}
