//! Persistence contract of the compile-artifact snapshot subsystem
//! (`pvc_core::persist` + `Engine::save_artifacts` / `with_artifacts_from`):
//!
//! * **round-trip fidelity** — a warm-from-disk engine produces bit-identical
//!   results to both the engine that wrote the snapshot and a never-persisted
//!   cold engine, across all three `Strategy` variants, without recompiling a
//!   single d-tree;
//! * **typed failure** — corrupted, truncated and wrong-version snapshots are
//!   refused with `Error::Snapshot`, never a panic; a partially diverged
//!   database restores warm for the tables that still match (evicting only
//!   artifacts over the diverged tables' variables), and is refused outright
//!   only when no table matches;
//! * **bounds** — restoring honours the target engine's LRU bounds;
//! * **sharing** — one restored `SharedArtifacts` store serves several engines.

use pvc_suite::prelude::*;
use std::path::PathBuf;

/// A scratch snapshot path, removed on drop so test runs do not accumulate.
struct TempSnapshot(PathBuf);

impl TempSnapshot {
    fn new(tag: &str) -> Self {
        TempSnapshot(
            std::env::temp_dir().join(format!("pvc-persistence-{tag}-{}.snap", std::process::id())),
        )
    }
}

impl Drop for TempSnapshot {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// A Figure-1-style database covering every strategy; deterministic, so two
/// calls fingerprint identically (the warm-restart precondition).
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
        for (sid, pid, price) in [(1, 1, 10), (1, 2, 50), (2, 1, 11), (3, 3, 15), (3, 1, 60)] {
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

/// Queries covering every `Strategy` variant (and the aggregate pipeline).
fn workload() -> Vec<Query> {
    vec![
        // Q_ind: projection of a tuple-independent table.
        Query::table("S").project(["shop"]),
        // Q_hie: hierarchical join + aggregation.
        Query::table("S")
            .join(Query::table("PS"), &[("sid", "ps_sid")])
            .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")]),
        general_query(Query::table("P1").union(Query::table("P2"))),
    ]
}

/// General compilation: repeated table through a union + a θ-predicate. The two
/// orders of the union's operands are different renderings of one query.
fn general_query(products: Query) -> Query {
    Query::table("S")
        .join(Query::table("PS"), &[("sid", "ps_sid")])
        .join(
            products.rename(&[("pid", "p_pid"), ("weight", "p_weight")]),
            &[("ps_pid", "p_pid")],
        )
        .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")])
        .select(Predicate::AggCmpConst("P".into(), CmpOp::Le, 55))
        .project(["shop"])
}

fn run_all(engine: &Engine) -> Vec<QueryResult> {
    workload()
        .iter()
        .map(|q| {
            engine
                .prepare(q)
                .expect("workload prepares")
                .execute(&EvalOptions::default())
                .expect("workload executes")
        })
        .collect()
}

fn assert_bit_identical(a: &[QueryResult], b: &[QueryResult]) {
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.tuples.len(), rb.tuples.len());
        for (ta, tb) in ra.tuples.iter().zip(&rb.tuples) {
            assert_eq!(ta.values, tb.values);
            assert_eq!(
                ta.confidence.to_bits(),
                tb.confidence.to_bits(),
                "confidences must be bit-identical"
            );
            assert_eq!(
                ta.aggregate_distributions, tb.aggregate_distributions,
                "aggregate distributions must be identical"
            );
        }
    }
}

#[test]
fn roundtrip_is_bit_identical_across_all_strategies() {
    let snap = TempSnapshot::new("roundtrip");
    // Reference: a never-persisted engine.
    let reference = run_all(&Engine::new(shop_db()));

    let writer = Engine::new(shop_db());
    let written = run_all(&writer);
    assert_bit_identical(&reference, &written);
    let stats = writer.save_artifacts(&snap.0).unwrap();
    assert!(stats.interned > 0 && stats.distributions > 0);
    assert!(
        writer.cache_stats().arena_misses > 0,
        "general compilation must compile circuits"
    );
    assert_eq!(stats.rewrites, workload().len());
    assert_eq!(
        stats.bytes,
        std::fs::metadata(&snap.0).unwrap().len() as usize
    );

    // "Restart": identical database rebuilt, artifacts loaded from disk.
    let restarted = Engine::with_artifacts_from(shop_db(), &snap.0).unwrap();
    let restored_stats = restarted.cache_stats();
    assert_eq!(restored_stats.rewrites, workload().len());
    assert!(restored_stats.confidences > 0);
    let warm = run_all(&restarted);
    assert_bit_identical(&reference, &warm);
    // The warm run recompiled nothing: no distribution misses, no circuits.
    let after = restarted.cache_stats();
    assert_eq!(after.misses, 0, "warm-from-disk run must not recompute");
    assert_eq!(
        after.arena_misses, 0,
        "warm-from-disk run must not recompile"
    );
    assert!(after.hits > 0);

    // The general query with its union operands commuted is a different query
    // scope; restored entries must serve it across scopes.
    let commuted = general_query(Query::table("P2").union(Query::table("P1")));
    let result = restarted
        .prepare(&commuted)
        .unwrap()
        .execute(&EvalOptions::default())
        .unwrap();
    assert_bit_identical(&reference[2..], &[result]);
    let cross = restarted.cache_stats();
    assert!(
        cross.cross_query_hits >= 1,
        "scope tags or canonical ids did not survive the round trip: {cross:?}"
    );
}

#[test]
fn corrupt_truncated_and_wrong_version_snapshots_are_typed_errors() {
    let snap = TempSnapshot::new("corrupt");
    let engine = Engine::new(shop_db());
    run_all(&engine);
    engine.save_artifacts(&snap.0).unwrap();
    let bytes = std::fs::read(&snap.0).unwrap();

    // Missing file.
    let missing = Engine::with_artifacts_from(shop_db(), snap.0.with_extension("nope"));
    assert!(matches!(missing, Err(Error::Snapshot(PersistError::Io(_)))));

    // Flip one payload byte: checksum failure.
    let mut corrupt = bytes.clone();
    corrupt[bytes.len() / 2] ^= 0x40;
    std::fs::write(&snap.0, &corrupt).unwrap();
    match Engine::with_artifacts_from(shop_db(), &snap.0) {
        Err(Error::Snapshot(PersistError::Checksum { .. })) => {}
        other => panic!("expected checksum error, got {other:?}"),
    }

    // Truncations at every kind of boundary: typed errors, no panic.
    for cut in [4usize, 19, bytes.len() / 3, bytes.len() - 1] {
        std::fs::write(&snap.0, &bytes[..cut]).unwrap();
        match Engine::with_artifacts_from(shop_db(), &snap.0) {
            Err(Error::Snapshot(_)) => {}
            other => panic!("truncated at {cut}: expected snapshot error, got {other:?}"),
        }
    }

    // A future format version is refused (checksum fixed up so the version
    // gate, not the checksum, decides).
    let mut future = bytes.clone();
    future[8] = 0xfe;
    let n = future.len();
    let h = pvc_suite::core::persist::fnv64(&future[..n - 8]);
    future[n - 8..].copy_from_slice(&h.to_le_bytes());
    std::fs::write(&snap.0, &future).unwrap();
    match Engine::with_artifacts_from(shop_db(), &snap.0) {
        Err(Error::Snapshot(PersistError::Version { found, .. })) => assert_eq!(found, 0xfe),
        other => panic!("expected version error, got {other:?}"),
    }
}

#[test]
fn diverged_databases_restore_partially_or_are_refused() {
    let snap = TempSnapshot::new("fingerprint");
    let engine = Engine::new(shop_db());
    run_all(&engine);
    // Warm one query whose lineage never touches S: its artifacts must
    // survive a divergence that is confined to S.
    let p1_only = Query::table("P1").project(["pid"]);
    engine
        .prepare(&p1_only)
        .unwrap()
        .execute(&EvalOptions::default())
        .unwrap();
    engine.save_artifacts(&snap.0).unwrap();

    // One table grew a tuple: the per-table fingerprint vector pinpoints the
    // divergence to S, so the snapshot loads *partially* — artifacts disjoint
    // from S's variables survive, the rest are evicted — and results are still
    // exact: bit-identical to a cold engine over the same grown database.
    let grown = || {
        let mut db = shop_db();
        let (s, vars) = db.table_and_vars_mut("S").unwrap();
        s.push_independent(vec![9i64.into(), "Zara".into()], 0.3, vars);
        db
    };
    let warm = Engine::with_artifacts_from(grown(), &snap.0).unwrap();
    let stats = warm.cache_stats();
    assert!(
        stats.confidences + stats.aggregates > 0,
        "artifacts disjoint from the diverged table must survive a partial restore"
    );
    let cold = Engine::new(grown());
    assert_bit_identical(&run_all(&warm), &run_all(&cold));

    // Every table diverged: nothing is salvageable, so the load is refused —
    // a cold start beats a silently wrong warm cache.
    let mut other = shop_db();
    for name in ["S", "PS", "P1", "P2"] {
        let (table, vars) = other.table_and_vars_mut(name).unwrap();
        let arity = table.schema.columns().len();
        table.push_independent(vec![99i64.into(); arity], 0.5, vars);
    }
    match Engine::with_artifacts_from(other, &snap.0) {
        Err(Error::Snapshot(PersistError::Fingerprint { .. })) => {}
        other => panic!("expected fingerprint error, got {other:?}"),
    }
}

#[test]
fn restore_honours_lru_bounds_and_merges_into_live_engines() {
    let snap = TempSnapshot::new("bounds");
    let writer = Engine::new(shop_db());
    let reference = run_all(&writer);
    writer.save_artifacts(&snap.0).unwrap();

    // Restore into a tightly bounded live engine: entries beyond the bound are
    // evicted, results are still exact (recomputed where evicted).
    let bounded = Engine::with_cache_config(
        shop_db(),
        CacheConfig {
            max_entries: 2,
            max_bytes: usize::MAX,
        },
    );
    let stats = bounded.restore_artifacts(&snap.0).unwrap();
    assert!(stats.distributions > 0);
    assert!(bounded.cache_stats().confidences <= 2);
    assert!(bounded.cache_stats().evictions > 0);
    assert_bit_identical(&reference, &run_all(&bounded));

    // Merging into an engine that is already warm keeps working (ids remap onto
    // the live arena) and fills only the gaps.
    let live = Engine::new(shop_db());
    let q = &workload()[0];
    live.prepare(q)
        .unwrap()
        .execute(&EvalOptions::default())
        .unwrap();
    let rewrites_before = live.cache_stats().rewrites;
    live.restore_artifacts(&snap.0).unwrap();
    assert!(live.cache_stats().rewrites > rewrites_before);
    assert_bit_identical(&reference, &run_all(&live));
}

#[test]
fn one_restored_store_serves_several_engines() {
    let snap = TempSnapshot::new("shared");
    let writer = Engine::new(shop_db());
    let reference = run_all(&writer);
    writer.save_artifacts(&snap.0).unwrap();

    let first = Engine::with_artifacts_from(shop_db(), &snap.0).unwrap();
    let second = Engine::with_shared_artifacts(shop_db(), first.shared_artifacts());
    assert_bit_identical(&reference, &run_all(&second));
    // The second tenant was served from the restored store: no recomputation.
    assert_eq!(second.cache_stats().misses, 0);
    assert_bit_identical(&reference, &run_all(&first));
}

#[test]
fn saving_and_reloading_an_empty_engine_works() {
    let snap = TempSnapshot::new("empty");
    let engine = Engine::new(shop_db());
    let stats = engine.save_artifacts(&snap.0).unwrap();
    assert_eq!(stats.distributions, 0);
    let restarted = Engine::with_artifacts_from(shop_db(), &snap.0).unwrap();
    assert_eq!(restarted.cache_stats(), CacheStats::default());
    // And it still executes normally afterwards.
    assert_eq!(run_all(&restarted).len(), workload().len());
}
