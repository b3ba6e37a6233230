//! Crash-recovery smoke: SIGKILL a delta-applying process at seeded random
//! points and prove that restart recovers **every acknowledged delta** with
//! bit-identical query results — the CI teeth behind `docs/DURABILITY.md`.
//!
//! The binary re-executes itself as the victim. The child recovers whatever
//! state the scratch directory holds (snapshot + WAL), then applies the
//! deterministic delta stream under `Durability::Always`, appending each
//! acknowledged sequence number to `acked.log` *after* `apply_delta` returns —
//! so the log of acks can only ever lag durable state, never lead it. Every
//! 25 deltas it snapshots and rotates the WAL, putting kill points inside the
//! append, publish and rotate windows alike. The parent kills it after a
//! seeded random delay, re-runs recovery in-process, and asserts:
//!
//! * recovered high-water ≥ the last acknowledged sequence (no silent loss);
//! * a `P1` scan is bit-identical to a fresh engine that applied the same
//!   prefix of the stream (no corruption);
//! * stale temp litter never accumulates past the sweep.
//!
//! Knobs: `PVC_CRASH_TRIALS` (default 6 kills), `PVC_CRASH_DELTAS` (default
//! 2000 — roughly a second of appends, so the seeded kills land mid-stream),
//! `PVC_CRASH_SEED` (default 0xC0FFEE).

use pvc_core::persist::storage::sweep_stale_temps;
use pvc_db::{Database, Delta, Durability, Engine, EvalOptions, Query, RecoverOptions};
use pvc_prob::SeededRng;
use pvc_serve::loadgen::workload_db;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SNAPSHOT_EVERY: u64 = 25;

fn base_db() -> Database {
    workload_db(12, 3)
}

/// The deterministic delta stream: `seq` is 1-based (WAL numbering).
fn delta_for(seq: u64) -> Delta {
    Delta::new().insert(
        "P1",
        vec![(200_000 + seq as i64).into(), ((seq % 11) as i64).into()],
        0.2 + (seq % 60) as f64 / 100.0,
    )
}

fn scan_query() -> Query {
    Query::table("P1").project(["pid", "weight"])
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn recover(dir: &Path) -> (Engine, pvc_db::RecoveryReport) {
    let storage = pvc_core::FsStorage::shared();
    sweep_stale_temps(storage.as_ref(), dir).expect("sweep succeeds");
    let mut options = RecoverOptions::new(dir.join("t.wal")).with_durability(Durability::Always);
    let snap = dir.join("t.snap");
    if snap.exists() {
        options = options.with_snapshot(&snap);
    }
    Engine::recover_with(Arc::clone(&storage), base_db(), &options).expect("recovery succeeds")
}

/// The victim: recover, then apply the stream from wherever durable state
/// ends, acknowledging each delta only after `apply_delta` returned.
fn run_child(dir: &Path, total: u64) {
    let storage = pvc_core::FsStorage::shared();
    let (mut engine, report) = recover(dir);
    let mut acked = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("acked.log"))
        .expect("acked log opens");
    let snap = dir.join("t.snap");
    for seq in report.high_water + 1..=total {
        engine.apply_delta(delta_for(seq)).expect("delta applies");
        writeln!(acked, "{seq}").expect("ack writes");
        acked.sync_all().expect("ack syncs");
        if seq % SNAPSHOT_EVERY == 0 {
            engine
                .save_artifacts_with(storage.as_ref(), &snap)
                .expect("snapshot saves");
            let hwm = engine.wal_high_water();
            engine
                .wal_mut()
                .expect("wal attached")
                .rotate(hwm)
                .expect("log rotates");
        }
    }
}

/// Last fully-written (newline-terminated) sequence number in `acked.log` —
/// a kill can tear the final line, which simply means that delta was durable
/// but never acknowledged.
fn last_acked(dir: &Path) -> u64 {
    let Ok(text) = std::fs::read_to_string(dir.join("acked.log")) else {
        return 0;
    };
    text.split_inclusive('\n')
        .filter(|line| line.ends_with('\n'))
        .filter_map(|line| line.trim().parse().ok())
        .next_back()
        .unwrap_or(0)
}

/// Bits of the `P1` scan under default evaluation options.
fn scan_bits(engine: &Engine) -> Vec<u64> {
    engine
        .prepare(&scan_query())
        .expect("scan prepares")
        .execute(&EvalOptions::default())
        .expect("scan executes")
        .tuples
        .iter()
        .map(|t| t.confidence.to_bits())
        .collect()
}

/// Assert recovery holds exactly the first `high_water` deltas, bit-identically.
fn verify(dir: &Path, acked: u64) -> u64 {
    let (engine, report) = recover(dir);
    let recovered = report.high_water;
    assert!(
        recovered >= acked,
        "acknowledged delta lost: recovered only seq <= {recovered} of {acked} acked \
         (report: {report:?})"
    );
    let mut reference = Engine::new(base_db());
    for seq in 1..=recovered {
        reference
            .apply_delta(delta_for(seq))
            .expect("reference applies");
    }
    assert_eq!(
        scan_bits(&engine),
        scan_bits(&reference),
        "recovered state diverges from a clean re-application of seq 1..={recovered}"
    );
    recovered
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("child") {
        let dir = PathBuf::from(args.get(2).expect("child needs the scratch dir"));
        let total = args
            .get(3)
            .and_then(|v| v.parse().ok())
            .expect("child needs the delta count");
        run_child(&dir, total);
        return;
    }

    let trials = env_u64("PVC_CRASH_TRIALS", 6);
    let total = env_u64("PVC_CRASH_DELTAS", 2000);
    let seed = env_u64("PVC_CRASH_SEED", 0xC0FFEE);
    let mut rng = SeededRng::seed_from_u64(seed);
    let dir = std::env::temp_dir().join(format!("pvc-crash-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let exe = std::env::current_exe().expect("own path");

    for trial in 1..=trials {
        let mut child = std::process::Command::new(&exe)
            .arg("child")
            .arg(&dir)
            .arg(total.to_string())
            .spawn()
            .expect("child spawns");
        // Long enough to reach the apply loop, short enough to land kills
        // inside appends, snapshot publishes and rotations.
        let delay_ms = rng.gen_range(5..160u32) as u64;
        std::thread::sleep(std::time::Duration::from_millis(delay_ms));
        let _ = child.kill(); // SIGKILL; may race a clean exit — both are fine
        let status = child.wait().expect("child reaped");
        let acked = last_acked(&dir);
        let recovered = verify(&dir, acked);
        println!(
            "trial {trial}/{trials}: killed after {delay_ms}ms ({status}), acked {acked}, \
             recovered {recovered} — consistent"
        );
        if recovered >= total {
            break;
        }
    }

    // Final uninterrupted run: the stream must complete and recover exactly.
    let status = std::process::Command::new(&exe)
        .arg("child")
        .arg(&dir)
        .arg(total.to_string())
        .status()
        .expect("final child runs");
    assert!(status.success(), "uninterrupted child failed: {status}");
    let acked = last_acked(&dir);
    assert_eq!(acked, total, "clean run must acknowledge every delta");
    let recovered = verify(&dir, acked);
    assert_eq!(recovered, total);
    let _ = std::fs::remove_dir_all(&dir);
    println!("crash-recovery smoke OK: {total} deltas survived {trials} seeded kills");
}
