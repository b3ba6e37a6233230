//! Cache-correctness contract of the hash-consed arena + compilation cache:
//!
//! * cold vs. warm equivalence — the same `QueryResult` with and without cache,
//!   across all `Strategy` variants (Q_ind, Q_hie, general compilation);
//! * canonical interning — structurally-equal queries under *different renderings*
//!   (commuted operands) share cache entries, observable as cross-query hits;
//! * no recompilation — warm runs and the commuted rendering are answered from
//!   the stored distributions and compile no circuit a second time, with one
//!   worker thread or four;
//! * LRU eviction — a tiny entry bound evicts but never changes results.

use pvc_suite::prelude::*;

/// A Figure-1-style database: suppliers, offers, and two product tables.
fn shop_db() -> Database {
    let mut db = Database::new();
    db.create_table("S", Schema::new(["sid", "shop"]));
    db.create_table("PS", Schema::new(["ps_sid", "ps_pid", "price"]));
    db.create_table("P1", Schema::new(["pid", "weight"]));
    db.create_table("P2", Schema::new(["pid", "weight"]));
    {
        let (s, vars) = db.table_and_vars_mut("S").unwrap();
        for (sid, shop) in [(1, "M&S"), (2, "M&S"), (3, "Gap"), (4, "Gap")] {
            s.push_independent(vec![(sid as i64).into(), shop.into()], 0.6, vars);
        }
    }
    {
        let (ps, vars) = db.table_and_vars_mut("PS").unwrap();
        for (sid, pid, price) in [
            (1, 1, 10),
            (1, 2, 50),
            (2, 1, 11),
            (3, 3, 15),
            (3, 1, 60),
            (4, 2, 10),
        ] {
            ps.push_independent(
                vec![
                    (sid as i64).into(),
                    (pid as i64).into(),
                    (price as i64).into(),
                ],
                0.5,
                vars,
            );
        }
    }
    {
        let (p1, vars) = db.table_and_vars_mut("P1").unwrap();
        for (pid, weight) in [(1, 4), (2, 8), (3, 7)] {
            p1.push_independent(vec![(pid as i64).into(), (weight as i64).into()], 0.7, vars);
        }
    }
    {
        let (p2, vars) = db.table_and_vars_mut("P2").unwrap();
        p2.push_independent(vec![1i64.into(), 5i64.into()], 0.4, vars);
    }
    db
}

/// Queries covering every `Strategy` variant.
fn strategy_workload() -> Vec<(Query, Strategy)> {
    vec![
        // Q_ind: projection over a tuple-independent table.
        (
            Query::table("S").project(["shop"]),
            Strategy::IndependentFastPath,
        ),
        // Q_hie: join + grouped MAX aggregation.
        (
            Query::table("S")
                .join(Query::table("PS"), &[("sid", "ps_sid")])
                .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")]),
            Strategy::HierarchicalFastPath,
        ),
        // General: the same base table used twice (repeating, so no §6 guarantee).
        (
            Query::table("PS")
                .rename(&[
                    ("ps_sid", "a_sid"),
                    ("ps_pid", "a_pid"),
                    ("price", "a_price"),
                ])
                .join(Query::table("PS"), &[("a_pid", "ps_pid")])
                .project(["a_sid"]),
            Strategy::GeneralCompilation,
        ),
    ]
}

fn assert_same_result(a: &QueryResult, b: &QueryResult) {
    assert_eq!(a.tuples.len(), b.tuples.len());
    for (ta, tb) in a.tuples.iter().zip(&b.tuples) {
        assert!(
            (ta.confidence - tb.confidence).abs() < 1e-12,
            "confidence mismatch: {} vs {}",
            ta.confidence,
            tb.confidence
        );
        assert_eq!(
            ta.aggregate_distributions.len(),
            tb.aggregate_distributions.len()
        );
        for (col, da) in &ta.aggregate_distributions {
            let db_ = &tb.aggregate_distributions[col];
            assert!(da.approx_eq(db_, 1e-9), "{col}: {da} vs {db_}");
        }
    }
}

#[test]
fn cold_and_warm_executions_agree_across_strategies() {
    for (query, strategy) in strategy_workload() {
        let engine = Engine::new(shop_db());
        let prepared = engine.prepare(&query).unwrap();
        assert_eq!(prepared.plan().strategy, strategy);
        let cold = prepared.execute(&EvalOptions::default()).unwrap();
        let warm = prepared.execute(&EvalOptions::default()).unwrap();
        assert_same_result(&cold, &warm);
        // The warm run answers from the cache.
        assert!(
            engine.cache_stats().hits > 0,
            "{strategy:?}: warm run should hit the cache"
        );
        // One-shot (cache-less) execution agrees too.
        let once =
            Engine::execute_once(engine.database(), &query, &EvalOptions::default()).unwrap();
        assert_same_result(&cold, &once);
        // And so does compilation with the fast path disabled.
        let slow = prepared
            .execute(&EvalOptions::default().without_fast_path())
            .unwrap();
        assert_same_result(&cold, &slow);
    }
}

#[test]
fn commuted_renderings_share_cache_entries() {
    // Two renderings of the same query: union operands swapped. The rewriting
    // enumerates summands in opposite orders, so only canonical interning makes
    // them structurally equal.
    let engine = Engine::new(shop_db());
    let qa = Query::table("S")
        .join(Query::table("PS"), &[("sid", "ps_sid")])
        .join(
            Query::table("P1")
                .union(Query::table("P2"))
                .rename(&[("pid", "p_pid"), ("weight", "p_weight")]),
            &[("ps_pid", "p_pid")],
        )
        .project(["shop", "price"]);
    let qb = Query::table("S")
        .join(Query::table("PS"), &[("sid", "ps_sid")])
        .join(
            Query::table("P2")
                .union(Query::table("P1"))
                .rename(&[("pid", "p_pid"), ("weight", "p_weight")]),
            &[("ps_pid", "p_pid")],
        )
        .project(["shop", "price"]);
    assert_ne!(format!("{qa:?}"), format!("{qb:?}"), "distinct renderings");

    let ra = engine
        .prepare(&qa)
        .unwrap()
        .execute(&EvalOptions::default())
        .unwrap();
    let stats_after_a = engine.cache_stats();
    assert_eq!(stats_after_a.cross_query_hits, 0);

    let rb = engine
        .prepare(&qb)
        .unwrap()
        .execute(&EvalOptions::default())
        .unwrap();
    let stats_after_b = engine.cache_stats();
    assert!(
        stats_after_b.cross_query_hits >= 1,
        "expected cross-query hits from the commuted rendering, got {stats_after_b:?}"
    );
    // No new artifact entries were needed for the second rendering's annotations.
    assert_eq!(stats_after_b.confidences, stats_after_a.confidences);
    assert_same_result(&ra, &rb);
}

/// The paper's Q2 shape (shops whose maximal price is bounded) over `P1 ∪ P2`, or
/// over `P2 ∪ P1` when `swapped`: equal provenance up to summand order.
fn max_price_query(swapped: bool) -> Query {
    let products = if swapped {
        Query::table("P2").union(Query::table("P1"))
    } else {
        Query::table("P1").union(Query::table("P2"))
    };
    Query::table("S")
        .join(Query::table("PS"), &[("sid", "ps_sid")])
        .join(
            products.rename(&[("pid", "p_pid"), ("weight", "p_weight")]),
            &[("ps_pid", "p_pid")],
        )
        .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")])
        .select(Predicate::AggCmpConst("P".into(), CmpOp::Le, 60))
        .project(["shop"])
}

#[test]
fn warm_and_commuted_runs_compile_nothing() {
    // With several workers filling the shared store the reuse must hold as well.
    for threads in [1, 4] {
        let options = EvalOptions::default().with_threads(threads);
        let engine = Engine::new(shop_db());
        let prepared = engine.prepare(&max_price_query(false)).unwrap();
        let cold = prepared.execute(&options).unwrap();
        assert!(!cold.tuples.is_empty());
        let after_cold = engine.cache_stats();
        assert!(
            after_cold.arena_misses > 0,
            "nothing compiled: {after_cold:?}"
        );
        assert!(after_cold.confidences > 0, "nothing stored: {after_cold:?}");

        for _ in 0..5 {
            assert_same_result(&cold, &prepared.execute(&options).unwrap());
        }
        let commuted = engine
            .prepare(&max_price_query(true))
            .unwrap()
            .execute(&options)
            .unwrap();
        assert_same_result(&cold, &commuted);

        let stats = engine.cache_stats();
        assert_eq!(
            stats.arena_misses, after_cold.arena_misses,
            "threads={threads}: a warm or commuted run compiled a circuit again: {stats:?}"
        );
        assert!(stats.cross_query_hits >= 1, "threads={threads}: {stats:?}");
    }
}

#[test]
fn interner_canonicalises_commuted_operands() {
    let mut vars = VarTable::new();
    let x = vars.boolean("x", 0.5);
    let y = vars.boolean("y", 0.5);
    let z = vars.boolean("z", 0.5);
    let mut interner = Interner::new();
    let a =
        interner.intern(&(SemiringExpr::Var(x) * (SemiringExpr::Var(y) + SemiringExpr::Var(z))));
    let b =
        interner.intern(&((SemiringExpr::Var(z) + SemiringExpr::Var(y)) * SemiringExpr::Var(x)));
    assert_eq!(a, b, "commuted operands must intern to the same id");
    assert_eq!(interner.hash(a), interner.hash(b));
}

#[test]
fn tiny_lru_bound_evicts_without_changing_results() {
    let config = CacheConfig {
        max_entries: 2,
        max_bytes: usize::MAX,
    };
    for (query, _) in strategy_workload() {
        let bounded = Engine::with_cache_config(shop_db(), config);
        let unbounded = Engine::new(shop_db());
        let rb = bounded
            .prepare(&query)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        let ru = unbounded
            .prepare(&query)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        assert_same_result(&rb, &ru);
        let stats = bounded.cache_stats();
        assert!(stats.confidences <= 2);
        assert!(stats.aggregates <= 2);
        // Warm re-execution still agrees even when entries were evicted.
        let again = bounded
            .prepare(&query)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        assert_same_result(&ru, &again);
    }
}

#[test]
fn eviction_counter_reports_lru_pressure() {
    let engine = Engine::with_cache_config(
        shop_db(),
        CacheConfig {
            max_entries: 1,
            max_bytes: usize::MAX,
        },
    );
    // A query with several distinct annotations forces evictions at bound 1.
    let q = Query::table("PS").project(["ps_sid"]);
    engine
        .prepare(&q)
        .unwrap()
        .execute(&EvalOptions::default())
        .unwrap();
    let stats = engine.cache_stats();
    assert!(stats.confidences <= 1);
    assert!(
        stats.evictions > 0,
        "bound 1 must evict on a multi-annotation query: {stats:?}"
    );
}
