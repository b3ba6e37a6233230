//! The result types of query evaluation, step II (§5 of the paper): one
//! [`ProbTuple`] per answer tuple and the [`QueryResult`] that carries them.
//! [`crate::Engine`] computes them.

use crate::value::Value;
use pvc_prob::MonoidDist;
use std::collections::BTreeMap;
use std::time::Duration;

/// One result tuple with its probabilistic interpretation.
#[derive(Debug, Clone)]
pub struct ProbTuple {
    /// The data values of the tuple (aggregation columns show their expressions).
    pub values: Vec<Value>,
    /// The probability that the tuple is present (annotation ≠ `0_S`).
    ///
    /// Its absolute error is at most the mass the `PROB_EPS` (1e-9) drop rule
    /// removed while computing it; its relative error below 1e-9 is
    /// unbounded — a tuple whose exact confidence is at or below `PROB_EPS`
    /// may read 0.0 (see "The numerics contract" in `docs/ARCHITECTURE.md`).
    pub confidence: f64,
    /// For every aggregation column: the exact distribution of the aggregate value.
    /// Empty when the result was requested confidence-only
    /// (see [`crate::EvalOptions::confidence_only`]).
    pub aggregate_distributions: BTreeMap<String, MonoidDist>,
}

/// The fully evaluated result of a query: tuples, confidences and aggregate
/// distributions, plus timing of the two evaluation phases.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Column names of the result.
    pub columns: Vec<String>,
    /// The result tuples.
    pub tuples: Vec<ProbTuple>,
    /// Wall-clock time of step I (tuple and expression construction, `⟦·⟧`).
    pub rewrite_time: Duration,
    /// Wall-clock time of step II (d-tree compilation and probability computation).
    pub probability_time: Duration,
    /// How many tuple confidences were computed by the tractable fast path of §6
    /// (read-once evaluation, no d-tree built). Zero when the fast path was disabled
    /// or the query was not classified as tractable.
    pub fast_path_hits: usize,
    /// How many aggregate distributions were assembled by the Proposition 1 closed
    /// form for MIN/MAX over independent read-once terms (no d-tree built). Zero
    /// when the fast path was disabled or the query was not classified as tractable.
    pub agg_fast_path_hits: usize,
    /// How many worker threads computed step II (see [`crate::EvalOptions::threads`]; `1`
    /// means the sequential in-thread path). Purely informational — results are
    /// identical for every thread count.
    pub threads: usize,
    /// The execution's span tree, collected only when [`crate::EvalOptions::profile`]
    /// is set (`None` otherwise). See `pvc_core::obs` and `docs/OBSERVABILITY.md`.
    pub profile: Option<pvc_core::obs::ExecutionProfile>,
}

impl QueryResult {
    /// The confidence of the tuple whose data values match `key` (compared by display
    /// form), if any.
    pub fn confidence_of(&self, key: &[&str]) -> Option<f64> {
        self.tuples
            .iter()
            .find(|t| {
                key.len() <= t.values.len()
                    && key.iter().zip(&t.values).all(|(k, v)| v.to_string() == *k)
            })
            .map(|t| t.confidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::engine::{Engine, EvalOptions};
    use crate::exec::tests::{figure1_db, paper_q1};
    use crate::exec::try_evaluate;
    use crate::query::{AggSpec, Predicate, Query};
    use pvc_algebra::{AggOp, CmpOp, MonoidValue, SemiringKind};
    use pvc_expr::oracle;

    fn run(db: &Database, query: &Query) -> QueryResult {
        Engine::execute_once(db, query, &EvalOptions::default()).unwrap()
    }

    #[test]
    fn q1_tuple_confidences_match_oracle() {
        let db = figure1_db();
        let result = run(&db, &paper_q1());
        assert_eq!(result.tuples.len(), 9);
        // Cross-check every confidence against brute-force enumeration.
        let table = try_evaluate(&db, &paper_q1()).unwrap();
        for (prob_tuple, tuple) in result.tuples.iter().zip(&table.tuples) {
            let expected =
                oracle::confidence_by_enumeration(&tuple.annotation, &db.vars, SemiringKind::Bool);
            assert!((prob_tuple.confidence - expected).abs() < 1e-9);
        }
        assert!(result.confidence_of(&["M&S", "10"]).is_some());
    }

    #[test]
    fn q2_shop_probabilities_match_oracle() {
        // The paper's Q2: shops whose maximal price is at most 50.
        let db = figure1_db();
        let q2 = paper_q1()
            .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")])
            .select(Predicate::AggCmpConst("P".into(), CmpOp::Le, 50))
            .project(["shop"]);
        let result = run(&db, &q2);
        assert_eq!(result.tuples.len(), 2);
        let table = try_evaluate(&db, &q2).unwrap();
        for (prob_tuple, tuple) in result.tuples.iter().zip(&table.tuples) {
            let expected =
                oracle::confidence_by_enumeration(&tuple.annotation, &db.vars, SemiringKind::Bool);
            assert!(
                (prob_tuple.confidence - expected).abs() < 1e-9,
                "mismatch for {:?}: got {}, expected {}",
                prob_tuple.values[0].to_string(),
                prob_tuple.confidence,
                expected
            );
        }
    }

    #[test]
    fn aggregate_distributions_are_reported() {
        let db = figure1_db();
        let q = Query::table("P1").group_agg(
            Vec::<String>::new(),
            vec![
                AggSpec::new(AggOp::Min, "weight", "min_w"),
                AggSpec::count("cnt"),
            ],
        );
        let result = run(&db, &q);
        assert_eq!(result.tuples.len(), 1);
        let t = &result.tuples[0];
        assert!((t.confidence - 1.0).abs() < 1e-12);
        let min_dist = &t.aggregate_distributions["min_w"];
        // MIN over four optional weights 4, 8, 7, 6 each present with probability 1/2.
        assert!((min_dist.prob(&MonoidValue::Fin(4)) - 0.5).abs() < 1e-9);
        assert!((min_dist.prob(&MonoidValue::PosInf) - 0.0625).abs() < 1e-9);
        let cnt_dist = &t.aggregate_distributions["cnt"];
        assert!((cnt_dist.prob(&MonoidValue::Fin(2)) - 6.0 / 16.0).abs() < 1e-9);
        // Cross-check the COUNT distribution against the oracle.
        let table = try_evaluate(&db, &q).unwrap();
        let expr = table.tuples[0].values[1].as_agg().unwrap();
        let oracle_dist =
            oracle::semimodule_dist_by_enumeration(expr, &db.vars, SemiringKind::Bool);
        assert!(cnt_dist.approx_eq(&oracle_dist, 1e-9));
    }

    #[test]
    fn timings_are_recorded() {
        let db = figure1_db();
        let result = run(&db, &paper_q1());
        assert!(result.rewrite_time > Duration::ZERO);
        assert!(result.probability_time > Duration::ZERO);
        assert_eq!(result.columns, vec!["shop", "price"]);
    }
}
