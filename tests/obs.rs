//! Contract of the observability layer (`pvc_suite::obs`):
//!
//! * **zero-cost when off** — results are bit-identical whether metrics,
//!   tracing and per-query profiles are enabled or not;
//! * **deterministic profiles** — `ExecutionProfile::shape()` is identical
//!   across repeated warm runs and across `threads = 1` vs `threads = 4`;
//! * **coverage** — a Q2-shaped query's profile covers the rewrite, the
//!   evaluation and every tuple's confidence/compile path, with each compiled
//!   root's node count on a cold run; a group SUM's profile attributes its time to
//!   the independence `fold` and the arena's `evaluate` pass, not to a
//!   compilation that never ran;
//! * **bounded tracing** — a tiny span ring drops oldest spans, never panics;
//! * **catalog** — every metric the pipeline emits uses a documented prefix;
//! * **hand-off granularity** — `stream.messages` / `stream.message.tuples` count
//!   the ramped tuple ranges a stream's consumer received, an empty result moves
//!   neither them nor `pool.run_us`, and profile fragments that arrive a range at
//!   a time still come back in tuple order.
//!
//! Tests that flip the process-wide flags — or run pooled executions, which
//! record into the registry while another test has it enabled — serialise on one
//! mutex: Rust runs `#[test]`s concurrently in one process, and the flags are
//! global.

use pvc_suite::core::WorkerPool;
use pvc_suite::obs;
use pvc_suite::prelude::*;
use std::sync::{Arc, Mutex};

/// Serialises every test that touches the global metrics/tracing flags.
static OBS_FLAGS: Mutex<()> = Mutex::new(());

/// The paper's Figure-1-style database: suppliers, offers, two product tables.
fn shop_db() -> Database {
    let mut db = Database::new();
    db.create_table("S", Schema::new(["sid", "shop"]));
    db.create_table("PS", Schema::new(["ps_sid", "ps_pid", "price"]));
    db.create_table("P1", Schema::new(["pid", "weight"]));
    db.create_table("P2", Schema::new(["pid", "weight"]));
    {
        let (s, vars) = db.table_and_vars_mut("S").unwrap();
        for (sid, shop) in [(1, "M&S"), (2, "M&S"), (3, "Gap"), (4, "Gap"), (5, "B&Q")] {
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
            (5, 3, 70),
            (5, 1, 20),
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
    for table in ["P1", "P2"] {
        let (p, vars) = db.table_and_vars_mut(table).unwrap();
        for pid in 1..=3 {
            p.push_independent(
                vec![(pid as i64).into(), (pid as i64 * 2).into()],
                0.7,
                vars,
            );
        }
    }
    db
}

/// The paper's Q2 shape: join + union + aggregate + having.
fn q2() -> Query {
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
}

fn assert_bit_identical(a: &QueryResult, b: &QueryResult) {
    assert_eq!(a.tuples.len(), b.tuples.len());
    for (x, y) in a.tuples.iter().zip(&b.tuples) {
        assert_eq!(x.values, y.values);
        assert_eq!(x.confidence.to_bits(), y.confidence.to_bits());
        assert_eq!(
            x.aggregate_distributions.len(),
            y.aggregate_distributions.len()
        );
    }
}

#[test]
fn profiles_are_deterministic_across_runs_and_thread_counts() {
    let _guard = OBS_FLAGS.lock().unwrap();
    let engine = Engine::new(shop_db());
    let prepared = engine.prepare(&q2()).unwrap();
    // Warm the caches first: on a warm engine every run observes the same
    // cache outcomes, so the span-tree shape must be identical — across
    // repeated runs and across worker-thread counts.
    prepared.execute(&EvalOptions::default()).unwrap();

    let profile_shape = |threads: usize| {
        let options = EvalOptions::default().with_threads(threads).with_profile();
        let result = prepared.execute(&options).unwrap();
        let profile = result.profile.expect("profile requested");
        assert_eq!(profile.dropped_spans, 0, "warm Q2 fits the default ring");
        profile.shape()
    };

    let first = profile_shape(1);
    let again = profile_shape(1);
    assert_eq!(first, again, "same warm run must produce the same shape");
    let parallel = profile_shape(4);
    assert_eq!(
        first, parallel,
        "threads=4 must profile identically to threads=1 on a warm engine"
    );
}

#[test]
fn cold_q2_profile_covers_rewrite_compile_and_evaluate() {
    let engine = Engine::new(shop_db());
    let prepared = engine.prepare(&q2()).unwrap();
    let result = prepared
        .execute(&EvalOptions::default().with_profile())
        .unwrap();
    let profile = result.profile.expect("profile requested");

    assert_eq!(profile.root.name, "query");
    assert!(
        profile
            .root
            .attrs
            .iter()
            .any(|(k, _)| k == "structural_key"),
        "query root carries the structural key"
    );
    let names: Vec<&str> = profile
        .root
        .children
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(names, ["rewrite", "evaluate"]);
    let evaluate = &profile.root.children[1];
    assert_eq!(
        evaluate.children.len(),
        result.tuples.len(),
        "one tuple span per result tuple"
    );

    let shape = profile.shape();
    let render = profile.render();
    // Every tuple records its kernel dispatch counts and its aggregate's path.
    assert!(shape.contains("kernel_dense="), "{shape}");
    assert!(shape.contains("aggregate"), "{shape}");
    assert!(shape.contains("path="), "{shape}");
    // The cold run compiled at least one root, recording its node count.
    assert!(shape.contains("compile"), "{shape}");
    assert!(shape.contains("nodes="), "{shape}");
    // render() adds durations on top of the same tree.
    assert!(render.contains("query"), "{render}");
    assert!(render.contains("ms)"), "{render}");

    // A second, warm execution observes cache hits on the same roots.
    let warm = prepared
        .execute(&EvalOptions::default().with_profile())
        .unwrap();
    let warm_shape = warm.profile.expect("profile requested").shape();
    assert!(warm_shape.contains("path=cache"), "{warm_shape}");
}

#[test]
fn group_sum_profile_names_both_folds() {
    // Two groups of independent rows: every SUM term is a leaf component, so
    // the aggregate is answered by the fold alone (nothing compiled, nothing
    // memoised below it). The group's confidence `[Σ xᵢ ≠ 0]` is folded by
    // the store too — rule 5 over the sum's leaf components — so neither
    // answer compiles a circuit, and each names its fold.
    let mut db = Database::new();
    db.create_table("T", Schema::new(["g", "v"]));
    let (t, vars) = db.table_and_vars_mut("T").unwrap();
    for i in 0..6i64 {
        let group = if i < 4 { "A" } else { "B" };
        t.push_independent(vec![group.into(), (i + 1).into()], 0.5, vars);
    }
    let query = Query::table("T").group_agg(["g"], vec![AggSpec::new(AggOp::Sum, "v", "m")]);
    let engine = Engine::new(db);
    let prepared = engine.prepare(&query).unwrap();
    let cold = prepared
        .execute(&EvalOptions::default().with_profile())
        .unwrap();
    let shape = cold.profile.expect("profile requested").shape();
    let tuple = |index: usize, dense: usize, terms: usize| {
        format!(
            "    tuple [index={index} kernel_dense={dense} kernel_sparse=0]
      confidence [path=fold]
        intern
        fold [components={terms} leaves={terms}]
      aggregate [path=fold]
        intern
        fold [components={terms} leaves={terms}]
"
        )
    };
    let (first, second) = (tuple(0, 3, 4), tuple(1, 1, 2));
    assert!(
        shape.ends_with(&format!("  rewrite\n  evaluate\n{first}{second}")),
        "{shape}"
    );
    // Warm: both answers come from the cache, and say so.
    let warm = prepared
        .execute(&EvalOptions::default().with_profile())
        .unwrap();
    let warm_shape = warm.profile.expect("profile requested").shape();
    assert!(!warm_shape.contains("fold"), "{warm_shape}");
    assert_eq!(warm_shape.matches("path=cache").count(), 4, "{warm_shape}");
}

#[test]
fn observability_never_changes_results() {
    let _guard = OBS_FLAGS.lock().unwrap();
    let engine = Engine::new(shop_db());
    let prepared = engine.prepare(&q2()).unwrap();

    obs::set_metrics_enabled(false);
    obs::set_tracing_enabled(false);
    let off = prepared.execute(&EvalOptions::default()).unwrap();

    // Metrics + global tracing on: same bits.
    obs::set_metrics_enabled(true);
    obs::set_tracing_enabled(true);
    let on = prepared.execute(&EvalOptions::default()).unwrap();
    assert_bit_identical(&off, &on);
    assert!(on.profile.is_none(), "profiles are opt-in per query");

    // Full per-query profiling, sequential and parallel: same bits.
    let profiled = prepared
        .execute(&EvalOptions::default().with_profile())
        .unwrap();
    assert_bit_identical(&off, &profiled);
    let profiled_mt = prepared
        .execute(&EvalOptions::default().with_threads(4).with_profile())
        .unwrap();
    assert_bit_identical(&off, &profiled_mt);

    obs::set_metrics_enabled(false);
    obs::set_tracing_enabled(false);
    obs::reset();
}

#[test]
fn tiny_span_ring_drops_oldest_without_panic() {
    let trace = obs::Trace::new(2);
    let seqs: Vec<usize> = (0..100).map(|_| trace.start("tuple")).collect();
    for seq in seqs {
        trace.finish(seq);
    }
    assert_eq!(trace.len(), 2, "ring keeps only the newest spans");
    assert_eq!(trace.dropped(), 98);
    // Building profile trees from a truncated ring must not panic; the
    // dropped count survives into the profile.
    let (roots, dropped) = obs::profile_nodes(&trace);
    assert!(!roots.is_empty());
    assert_eq!(dropped, 98);
}

#[test]
fn emitted_metrics_match_the_documented_catalog() {
    let _guard = OBS_FLAGS.lock().unwrap();
    obs::reset();
    obs::set_metrics_enabled(true);
    obs::set_tracing_enabled(true);

    let engine = Engine::new(shop_db());
    let prepared = engine.prepare(&q2()).unwrap();
    prepared.execute(&EvalOptions::default()).unwrap();
    prepared
        .execute(&EvalOptions::default().with_threads(2))
        .unwrap();

    obs::set_metrics_enabled(false);
    obs::set_tracing_enabled(false);

    let snapshot = obs::snapshot();
    let documented = |name: &str| {
        [
            "cache.", "kernel.", "arena.", "pool.", "stream.", "persist.", "serve.", "span.",
        ]
        .iter()
        .any(|prefix| name.starts_with(prefix))
    };
    for name in snapshot.counters.keys() {
        assert!(documented(name), "undocumented counter {name}");
    }
    for name in snapshot.gauges.keys() {
        assert!(documented(name), "undocumented gauge {name}");
    }
    for name in snapshot.histograms.keys() {
        assert!(documented(name), "undocumented histogram {name}");
    }
    // The lifecycle spans of this execution were all counted.
    let count = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n.as_str() == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    for span in [
        "span.prepare",
        "span.query",
        "span.rewrite",
        "span.evaluate",
    ] {
        assert!(count(span) > 0, "{span} never fired");
    }
    assert!(count("span.tuple") > 0);
    assert!(count("cache.semiring.miss") + count("cache.semiring.hit") > 0);
    obs::reset();
}

#[test]
fn stream_metrics_count_the_ramped_messages_and_an_empty_result_moves_nothing() {
    let _guard = OBS_FLAGS.lock().unwrap();
    obs::reset();
    obs::set_metrics_enabled(true);

    let mut db = Database::new();
    db.create_table("T", Schema::new(["id"]));
    let (t, vars) = db.table_and_vars_mut("T").unwrap();
    for i in 0..100i64 {
        t.push_independent(vec![i.into()], 0.5, vars);
    }
    let engine = Engine::new(db);
    let pool = Arc::new(WorkerPool::new(2).unwrap());
    let pooled = EvalOptions::default()
        .with_threads(2)
        .with_pool(Arc::clone(&pool));
    let handoff = || {
        let snapshot = obs::snapshot();
        let tuples = &snapshot.histograms["stream.message.tuples"];
        let jobs = snapshot
            .histograms
            .get("pool.run_us")
            .map_or(0, |h| h.count);
        (
            snapshot.counters["stream.messages"],
            tuples.count,
            tuples.sum,
            jobs,
        )
    };

    // 100 tuples on two jobs: a range starting at `s` holds clamp(s / 2, 1, 16)
    // tuples, i.e. 1 1 1 1 2 3 4 6 9 14 16 16 16 10 — fourteen messages, whichever
    // job claimed which.
    let all = engine.prepare(&Query::table("T")).unwrap();
    assert_eq!(all.execute_streaming(&pooled).unwrap().count(), 100);
    // A job's run time is recorded once it has let go of the stream, which the
    // stream's drop does not wait for; the pool counts it as executed after that.
    while pool.executed_jobs() < 2 {
        std::thread::yield_now();
    }
    assert_eq!(handoff(), (14, 14, 100, 2));

    // A selection that matches no row: no message, and no job on either kind of
    // pool (the stream does not start one of its own to find that out).
    let none = engine
        .prepare(&Query::table("T").select(Predicate::eq_const("id", -1i64)))
        .unwrap();
    for options in [&pooled, &EvalOptions::default().with_threads(2)] {
        let stream = none.execute_streaming(options).unwrap();
        assert_eq!((stream.total_tuples(), stream.count()), (0, 0));
    }
    assert_eq!(handoff(), (14, 14, 100, 2));
    assert_eq!(pool.executed_jobs(), 2);

    // Profile fragments travel a range per message and ranges arrive in any
    // order: the profile still lists the tuples by index.
    let profiled = all.execute(&pooled.clone().with_profile()).unwrap();
    let profile = profiled.profile.expect("profile requested");
    let indices: Vec<String> = profile.root.children[1]
        .children
        .iter()
        .map(|tuple| {
            let index = tuple.attrs.iter().find(|(key, _)| key == "index");
            index.expect("tuple spans carry their index").1.clone()
        })
        .collect();
    let expected: Vec<String> = (0..100).map(|i| i.to_string()).collect();
    assert_eq!(indices, expected);

    obs::set_metrics_enabled(false);
    obs::reset();
}
