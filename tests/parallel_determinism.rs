//! Determinism contract of parallel and streaming execution:
//!
//! * `execute` with `threads = 1` and `threads = N` produces **identical**
//!   `QueryResult`s — bit-equal confidences, equal tuple order, equal aggregate
//!   distributions — across all three `Strategy` variants, at several database
//!   sizes (a property-style sweep over seeded instances);
//! * cache-stat invariants hold regardless of the worker count: the same set of
//!   canonical artifacts is cached, re-execution is pure hits, and cross-thread
//!   sharing means a parallel cold run warms the cache for everyone;
//! * streaming yields tuples in deterministic order, supports partial consumption
//!   without deadlocking or leaking workers, and agrees with `execute` — at every
//!   result size around the boundaries of the tuple ranges workers hand over, and
//!   with a failing tuple in the middle of a range.

use pvc_suite::core::WorkerPool;
use pvc_suite::prelude::*;
use std::sync::Arc;

/// A seeded shop/offer/product database; `shops`/`per_shop` scale the instance,
/// `seed` perturbs probabilities and prices deterministically (no RNG needed —
/// arithmetic mixing keeps instances reproducible).
fn workload_db(shops: usize, per_shop: usize, seed: u64) -> Database {
    let mut db = Database::new();
    db.create_table("S", Schema::new(["sid", "shop"]));
    db.create_table("PS", Schema::new(["ps_sid", "ps_pid", "price"]));
    db.create_table("P1", Schema::new(["pid", "weight"]));
    db.create_table("P2", Schema::new(["pid", "weight"]));
    let num_products = (shops * per_shop / 2).max(1);
    let prob = |i: u64| 0.2 + 0.6 * ((i.wrapping_mul(seed | 1).wrapping_add(7) % 97) as f64 / 97.0);
    {
        let (s, vars) = db.table_and_vars_mut("S").unwrap();
        for i in 0..shops {
            s.push_independent(
                vec![(i as i64).into(), format!("shop{i}").as_str().into()],
                prob(i as u64),
                vars,
            );
        }
    }
    {
        let (ps, vars) = db.table_and_vars_mut("PS").unwrap();
        for i in 0..shops {
            for j in 0..per_shop {
                let pid = (i * 31 + j * 7) % num_products;
                let price = 10 + ((i * 13 + j * 29 + seed as usize) % 90) as i64;
                ps.push_independent(
                    vec![(i as i64).into(), (pid as i64).into(), price.into()],
                    prob((i * per_shop + j) as u64 + 1000),
                    vars,
                );
            }
        }
    }
    for table in ["P1", "P2"] {
        let (p, vars) = db.table_and_vars_mut(table).unwrap();
        for pid in 0..num_products {
            p.push_independent(
                vec![(pid as i64).into(), ((pid % 17) as i64).into()],
                prob(pid as u64 + 5000),
                vars,
            );
        }
    }
    db
}

/// Queries covering every `Strategy` variant over the workload database.
fn strategy_workload() -> Vec<(Query, Strategy)> {
    vec![
        // Q_ind: projection over a tuple-independent table.
        (
            Query::table("PS").project(["ps_pid"]),
            Strategy::IndependentFastPath,
        ),
        // Q_hie: join + grouped MAX aggregation.
        (
            Query::table("S")
                .join(Query::table("PS"), &[("sid", "ps_sid")])
                .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")]),
            Strategy::HierarchicalFastPath,
        ),
        // General: union of products joined in (repeats nothing but the selection
        // on an aggregation attribute leaves §6), the paper's Q2 shape.
        (
            Query::table("S")
                .join(Query::table("PS"), &[("sid", "ps_sid")])
                .join(
                    Query::table("P1")
                        .union(Query::table("P2"))
                        .rename(&[("pid", "p_pid"), ("weight", "p_weight")]),
                    &[("ps_pid", "p_pid")],
                )
                .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")])
                .select(Predicate::AggCmpConst("P".into(), CmpOp::Le, 60))
                .project(["shop"]),
            Strategy::GeneralCompilation,
        ),
    ]
}

/// Assert two results are **identical**: same order, bit-equal confidences, equal
/// aggregate distributions.
fn assert_identical(a: &QueryResult, b: &QueryResult, context: &str) {
    assert_eq!(a.columns, b.columns, "{context}: columns");
    assert_identical_tuples(&a.tuples, &b.tuples, context);
}

/// The per-tuple half of [`assert_identical`], for streamed tuples.
fn assert_identical_tuples(a: &[ProbTuple], b: &[ProbTuple], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: tuple count");
    for (i, (ta, tb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ta.values, tb.values, "{context}: tuple {i} values");
        assert_eq!(
            ta.confidence.to_bits(),
            tb.confidence.to_bits(),
            "{context}: tuple {i} confidence {} vs {}",
            ta.confidence,
            tb.confidence
        );
        assert_eq!(
            ta.aggregate_distributions, tb.aggregate_distributions,
            "{context}: tuple {i} aggregates"
        );
    }
}

#[test]
fn parallel_equals_sequential_across_strategies_and_sizes() {
    // Property-style sweep: strategies × instance sizes × seeds × thread counts.
    for (query, strategy) in strategy_workload() {
        for (shops, per_shop, seed) in [(4, 3, 1u64), (8, 4, 42), (12, 5, 7)] {
            let sequential_engine = Engine::new(workload_db(shops, per_shop, seed));
            let prepared = sequential_engine.prepare(&query).unwrap();
            assert_eq!(prepared.plan().strategy, strategy);
            let reference = prepared
                .execute(&EvalOptions::default().with_threads(1))
                .unwrap();
            let seq_stats = sequential_engine.cache_stats();
            for threads in [2, 4, 0] {
                // Fresh engine per thread count: a *cold* parallel run must match
                // the cold sequential run exactly.
                let engine = Engine::new(workload_db(shops, per_shop, seed));
                let prepared = engine.prepare(&query).unwrap();
                let result = prepared
                    .execute(&EvalOptions::default().with_threads(threads))
                    .unwrap();
                let context =
                    format!("{strategy:?} shops={shops} per_shop={per_shop} threads={threads}");
                assert_identical(&reference, &result, &context);
                // Both runs were cold, so the fast-path counters must agree too
                // (warm runs legitimately answer from the cache instead).
                assert_eq!(result.fast_path_hits, reference.fast_path_hits, "{context}");
                assert_eq!(
                    result.agg_fast_path_hits, reference.agg_fast_path_hits,
                    "{context}"
                );
                // Cache-stat invariants: the same canonical artifacts end up
                // cached no matter how many workers raced to fill them (racing
                // workers may duplicate a computation — more misses — but never
                // add or lose entries), and the arena interned the same nodes.
                let stats = engine.cache_stats();
                assert_eq!(stats.confidences, seq_stats.confidences, "{context}");
                assert_eq!(stats.aggregates, seq_stats.aggregates, "{context}");
                assert_eq!(stats.interned, seq_stats.interned, "{context}");
                assert!(stats.misses >= seq_stats.misses, "{context}");
                // Re-execution is answered entirely from the warm shared cache.
                let warm_before = stats.misses;
                let again = prepared
                    .execute(&EvalOptions::default().with_threads(threads))
                    .unwrap();
                assert_identical(&reference, &again, &format!("{context} warm"));
                assert_eq!(engine.cache_stats().misses, warm_before, "{context} warm");
            }
        }
    }
}

#[test]
fn parallel_cold_run_warms_cache_for_sequential_use() {
    // Cross-thread cache sharing: artifacts inserted by worker threads must be
    // visible to later executions on the calling thread.
    let engine = Engine::new(workload_db(8, 4, 3));
    let (query, _) = strategy_workload().pop().unwrap();
    let prepared = engine.prepare(&query).unwrap();
    prepared
        .execute(&EvalOptions::default().with_threads(4))
        .unwrap();
    let cold = engine.cache_stats();
    assert!(cold.confidences > 0, "parallel run must fill the cache");
    prepared
        .execute(&EvalOptions::default().with_threads(1))
        .unwrap();
    let warm = engine.cache_stats();
    assert_eq!(
        warm.misses, cold.misses,
        "sequential rerun must be all hits"
    );
    assert!(warm.hits > cold.hits);
}

#[test]
fn streaming_matches_execute_and_reports_counters() {
    for (query, _) in strategy_workload() {
        // Fresh engine per query so both the reference and the stream run against
        // a cold cache — the fast-path counters are then comparable.
        let engine = Engine::new(workload_db(8, 4, 9));
        let prepared = engine.prepare(&query).unwrap();
        let cold_engine = Engine::new(workload_db(8, 4, 9));
        let cold_prepared = cold_engine.prepare(&query).unwrap();
        let reference = cold_prepared.execute(&EvalOptions::default()).unwrap();
        let mut stream = prepared
            .execute_streaming(&EvalOptions::default().with_threads(3))
            .unwrap();
        assert_eq!(stream.total_tuples(), reference.tuples.len());
        let mut streamed = Vec::new();
        for item in &mut stream {
            streamed.push(item.unwrap());
        }
        assert_eq!(streamed.len(), reference.tuples.len());
        for (s, r) in streamed.iter().zip(&reference.tuples) {
            assert_eq!(s.values, r.values);
            assert_eq!(s.confidence.to_bits(), r.confidence.to_bits());
            assert_eq!(s.aggregate_distributions, r.aggregate_distributions);
        }
        // Counters are final once the stream is exhausted.
        assert_eq!(stream.fast_path_hits() > 0, reference.fast_path_hits > 0);
    }
}

#[test]
fn streaming_partial_consumption_does_not_deadlock_or_leak() {
    // A bounded channel plus eager workers: dropping the stream after consuming a
    // prefix must cancel the remaining work, unblock senders and join every
    // worker. Repeat enough times that a leaked/deadlocked worker would show up.
    let engine = Engine::new(workload_db(10, 5, 11));
    let (query, _) = strategy_workload().into_iter().nth(1).unwrap();
    let prepared = engine.prepare(&query).unwrap();
    for round in 0..10 {
        let mut stream = prepared
            .execute_streaming(&EvalOptions::default().with_threads(4))
            .unwrap();
        let take = round % 3; // sometimes consume nothing at all
        for _ in 0..take {
            if let Some(item) = stream.next() {
                item.unwrap();
            }
        }
        drop(stream);
    }
    // The engine is still fully functional afterwards.
    let result = prepared.execute(&EvalOptions::default()).unwrap();
    assert!(!result.tuples.is_empty());
}

#[test]
fn streaming_with_one_thread_still_streams() {
    let engine = Engine::new(workload_db(6, 3, 5));
    let (query, _) = strategy_workload().into_iter().next().unwrap();
    let prepared = engine.prepare(&query).unwrap();
    let stream = prepared
        .execute_streaming(&EvalOptions::default().with_threads(1))
        .unwrap();
    assert_eq!(stream.threads(), 1);
    let reference = prepared.execute(&EvalOptions::default()).unwrap();
    let streamed: Vec<ProbTuple> = stream.map(|t| t.unwrap()).collect();
    assert_eq!(streamed.len(), reference.tuples.len());
    for (s, r) in streamed.iter().zip(&reference.tuples) {
        assert_eq!(s.confidence.to_bits(), r.confidence.to_bits());
    }
}

#[test]
fn shared_artifacts_serve_multiple_engines() {
    // The Arc-based handle backs several engines over clones of one database; the
    // second engine's cold run is served from the first engine's artifacts.
    let db = workload_db(8, 4, 13);
    let engine_a = Engine::new(db.clone());
    let shared: Arc<SharedArtifacts> = engine_a.shared_artifacts();
    let engine_b = Engine::with_shared_artifacts(db, Arc::clone(&shared));
    let (query, _) = strategy_workload().into_iter().nth(2).unwrap();
    let ra = engine_a
        .prepare(&query)
        .unwrap()
        .execute(&EvalOptions::default().with_threads(2))
        .unwrap();
    let misses_after_a = engine_a.cache_stats().misses;
    let rb = engine_b
        .prepare(&query)
        .unwrap()
        .execute(&EvalOptions::default().with_threads(2))
        .unwrap();
    assert_identical(&ra, &rb, "shared artifacts across engines");
    let stats = engine_b.cache_stats();
    assert_eq!(
        stats.misses, misses_after_a,
        "engine B must not recompute what engine A cached"
    );
}

#[test]
fn node_budget_error_is_deterministic_under_parallelism() {
    let engine = Engine::new(workload_db(8, 4, 17));
    let (query, _) = strategy_workload().pop().unwrap();
    let prepared = engine.prepare(&query).unwrap();
    let seq = prepared
        .execute(
            &EvalOptions::default()
                .with_node_budget(1)
                .without_fast_path(),
        )
        .unwrap_err();
    for threads in [2, 4] {
        let par = prepared
            .execute(
                &EvalOptions::default()
                    .with_node_budget(1)
                    .without_fast_path()
                    .with_threads(threads),
            )
            .unwrap_err();
        assert_eq!(
            format!("{seq}"),
            format!("{par}"),
            "first-in-order error must not depend on the worker count"
        );
    }
}

#[test]
fn streams_of_every_size_around_a_range_boundary_equal_inline_execute() {
    // Workers hand over ranges of 1, …, 16 tuples; the sizes below end a stream
    // before the first range, inside the ramp, one short of, at and one past a
    // full range, and well into the steady state. Every item — values, confidence
    // bits, aggregate cells — must equal the inline loop's, for every worker
    // count, on a pool of the stream's own and on a shared one.
    let (query, _) = strategy_workload().into_iter().nth(1).unwrap();
    let pool = Arc::new(WorkerPool::new(2).unwrap());
    for shops in [0, 1, 2, 3, 15, 16, 17, 33, 100] {
        let engine = Engine::new(workload_db(shops, 2, 23));
        let prepared = engine.prepare(&query).unwrap();
        let inline = prepared.execute(&EvalOptions::default()).unwrap();
        assert_eq!(inline.tuples.len(), shops);
        for threads in [1, 2, 4] {
            for shared in [false, true] {
                let mut options = EvalOptions::default().with_threads(threads);
                if shared {
                    options = options.with_pool(Arc::clone(&pool));
                }
                let context = format!("{shops} tuples, {threads} threads, shared pool: {shared}");
                let stream = prepared.execute_streaming(&options).unwrap();
                assert_eq!(stream.total_tuples(), shops, "{context}");
                let streamed: Vec<ProbTuple> = stream.map(Result::unwrap).collect();
                assert_identical_tuples(&streamed, &inline.tuples, &context);
                // The materialising driver drains the same stream.
                let materialised = prepared.execute(&options).unwrap();
                assert_identical(&inline, &materialised, &context);
            }
        }
    }
    assert_eq!(pool.panicked_jobs(), 0);
}

#[test]
fn node_budget_error_mid_range_arrives_at_its_index() {
    // Forty products with one offer each, except product 25 with six: under a
    // small node budget only its six-variable disjunction fails to compile. With
    // two or four workers index 25 lies strictly inside a claimed range (19..28,
    // 22..27), so the error must come out as item 25, between the intact results
    // of the tuples computed before and after it in the same message.
    let mut db = Database::new();
    db.create_table("O", Schema::new(["pid", "offer"]));
    {
        let (offers, vars) = db.table_and_vars_mut("O").unwrap();
        for pid in 0..40i64 {
            for offer in 0..if pid == 25 { 6i64 } else { 1 } {
                offers.push_independent(vec![pid.into(), offer.into()], 0.5, vars);
            }
        }
    }
    let engine = Engine::new(db);
    let prepared = engine.prepare(&Query::table("O").project(["pid"])).unwrap();
    let unbounded = prepared
        .execute(&EvalOptions::default().without_fast_path())
        .unwrap();
    assert_eq!(unbounded.tuples.len(), 40);
    let budgeted = EvalOptions::default()
        .with_node_budget(3)
        .without_fast_path();
    let inline_error = prepared.execute(&budgeted).unwrap_err();
    let pool = Arc::new(WorkerPool::new(4).unwrap());
    for threads in [1, 2, 4] {
        for shared in [false, true] {
            let mut options = budgeted.clone().with_threads(threads);
            if shared {
                options = options.with_pool(Arc::clone(&pool));
            }
            let items: Vec<_> = prepared.execute_streaming(&options).unwrap().collect();
            assert_eq!(items.len(), 40);
            for (index, (item, expected)) in items.iter().zip(&unbounded.tuples).enumerate() {
                match item {
                    Err(e) => {
                        assert_eq!(index, 25, "threads {threads}: {e}");
                        assert_eq!(format!("{e}"), format!("{inline_error}"));
                    }
                    Ok(tuple) => {
                        assert_ne!(index, 25, "threads {threads}: the budget did not bite");
                        let context = format!("threads {threads}, tuple {index}");
                        assert_identical_tuples(
                            std::slice::from_ref(tuple),
                            std::slice::from_ref(expected),
                            &context,
                        );
                    }
                }
            }
        }
    }
}
