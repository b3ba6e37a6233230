//! Warm restart: persist compile artifacts to disk, "restart", and serve the
//! first query warm.
//!
//! The engine's speed story rests on reusing compiled artifacts — interned
//! expressions, memoised distributions, cached step-I rewrites. This example
//! closes the loop across a process restart:
//!
//! 1. build a database and run a workload cold (every d-tree compiled);
//! 2. run it again warm (everything served from the in-process caches);
//! 3. `Engine::save_artifacts` — snapshot the caches into one versioned,
//!    checksummed file;
//! 4. "restart": rebuild the database from scratch (same deterministic loading
//!    code) and bring up a fresh engine with `Engine::with_artifacts_from`;
//! 5. the restarted engine's *first* query runs at warm speed — zero misses,
//!    zero compilations, bit-identical results.
//!
//! A snapshot is refused (with a typed `Error::Snapshot`) when it is corrupted,
//! written by another format version, or recorded against a database that no
//! longer matches in any table — a warm cache that silently served wrong
//! numbers would be far worse than a cold start. When only *some* tables
//! diverged, the per-table fingerprint vector lets the loader restore
//! partially: artifacts over the unchanged tables stay warm, the rest are
//! dropped and recomputed on demand.
//!
//! Run with: `cargo run --release --example warm_restart`

use pvc_suite::prelude::*;
use std::time::Instant;

/// Deterministic loading code: every "process" builds the same database, so the
/// snapshot's database fingerprint matches after the restart.
fn build_database() -> Result<Database, Error> {
    let mut db = Database::new();
    db.create_table("S", Schema::new(["sid", "shop"]));
    db.create_table("PS", Schema::new(["ps_sid", "ps_pid", "price"]));
    db.create_table("P", Schema::new(["pid", "weight"]));
    {
        let (s, vars) = db.table_and_vars_mut("S")?;
        for i in 0..24i64 {
            s.push_independent(vec![i.into(), format!("shop{i}").into()], 0.6, vars);
        }
    }
    {
        let (ps, vars) = db.table_and_vars_mut("PS")?;
        for i in 0..24i64 {
            for j in 0..5i64 {
                let pid = (i * 31 + j * 7) % 60;
                let price = 10 + (i * 13 + j * 29) % 90;
                ps.push_independent(vec![i.into(), pid.into(), price.into()], 0.5, vars);
            }
        }
    }
    {
        let (p, vars) = db.table_and_vars_mut("P")?;
        for pid in 0..60i64 {
            p.push_independent(vec![pid.into(), (pid % 17).into()], 0.7, vars);
        }
    }
    Ok(db)
}

/// The serving workload: shops whose maximal price stays under a bound.
fn workload() -> Query {
    Query::table("S")
        .join(Query::table("PS"), &[("sid", "ps_sid")])
        .join(
            Query::table("P").rename(&[("pid", "p_pid"), ("weight", "p_weight")]),
            &[("ps_pid", "p_pid")],
        )
        .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")])
        .select(Predicate::AggCmpConst("P".into(), CmpOp::Le, 60))
        .project(["shop"])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let snapshot_path =
        std::env::temp_dir().join(format!("pvc-warm-restart-{}.snap", std::process::id()));
    let options = EvalOptions::default();
    let query = workload();

    // --- process one: serve cold, then warm, then snapshot. -------------------
    let engine = Engine::new(build_database()?);
    let prepared = engine.prepare(&query)?;

    let start = Instant::now();
    let cold = prepared.execute(&options)?;
    let cold_time = start.elapsed();
    println!(
        "cold first query:       {cold_time:>10.2?}  ({} tuples, every d-tree compiled)",
        cold.tuples.len()
    );

    let start = Instant::now();
    prepared.execute(&options)?;
    let warm_live = start.elapsed();
    println!("warm (same process):    {warm_live:>10.2?}  (served from in-process caches)");

    // Also warm a query whose lineage never touches S — it demonstrates the
    // partial-restore path at the end of this example.
    let p_only = Query::table("P").project(["pid"]);
    engine.prepare(&p_only)?.execute(&options)?;

    let start = Instant::now();
    let stats = engine.save_artifacts(&snapshot_path)?;
    println!(
        "save_artifacts:         {:>10.2?}  ({} bytes: {} interned nodes, {} distributions, \
         {} rewrites)",
        start.elapsed(),
        stats.bytes,
        stats.interned,
        stats.distributions,
        stats.rewrites
    );
    drop(engine); // the "process" exits; only the snapshot file survives

    // --- process two: rebuild the database, restore the artifacts. ------------
    let start = Instant::now();
    let restarted = Engine::with_artifacts_from(build_database()?, &snapshot_path)?;
    println!(
        "with_artifacts_from:    {:>10.2?}  (decode + replay)",
        start.elapsed()
    );

    let prepared = restarted.prepare(&query)?;
    let start = Instant::now();
    let warm_disk = prepared.execute(&options)?;
    let warm_disk_time = start.elapsed();
    println!("warm-from-disk query:   {warm_disk_time:>10.2?}  (first query after the restart)");

    // Results are bit-identical to the cold run; nothing was recompiled.
    assert_eq!(cold.tuples.len(), warm_disk.tuples.len());
    for (a, b) in cold.tuples.iter().zip(&warm_disk.tuples) {
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
    }
    let cache = restarted.cache_stats();
    println!(
        "restored CacheStats:    hits {} / misses {} / compilations {} / rewrites {}",
        cache.hits, cache.misses, cache.arena_misses, cache.rewrites
    );
    assert_eq!(cache.misses, 0, "warm-from-disk must not recompute");
    assert_eq!(cache.arena_misses, 0, "warm-from-disk must not recompile");
    println!(
        "\ncold / warm-from-disk speedup: {:.0}x (bit-identical results)",
        cold_time.as_secs_f64() / warm_disk_time.as_secs_f64().max(1e-9)
    );

    // A database that diverged in one table still restores *partially*: the
    // per-table fingerprint vector pinpoints the divergence, artifacts over
    // the untouched tables stay warm, and only those touching the mutated
    // table's variables are dropped (recomputed on demand — never served
    // stale).
    let mut grown = build_database()?;
    {
        let (s, vars) = grown.table_and_vars_mut("S")?;
        s.push_independent(vec![99i64.into(), "new-shop".into()], 0.5, vars);
    }
    let partial = Engine::with_artifacts_from(grown, &snapshot_path)?;
    let stats = partial.cache_stats();
    println!(
        "partial restore after mutating S: {} confidence artifacts kept warm \
         (the P-only query's), the S-touching rest dropped",
        stats.confidences
    );
    assert!(stats.confidences > 0, "P-only artifacts must survive");

    std::fs::remove_file(&snapshot_path).ok();
    Ok(())
}
