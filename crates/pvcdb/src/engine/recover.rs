//! Crash recovery: [`Engine::recover_with`] rebuilds an engine from the newest
//! snapshot plus the write-ahead log's tail, and says what it found in a
//! [`RecoveryReport`].

use super::Engine;
use crate::database::Database;
use crate::error::Error;
use crate::wal::DeltaWal;
use pvc_core::CacheConfig;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Where [`Engine::recover_with`] looks for durable state and how it opens
/// the log.
#[derive(Debug, Clone)]
pub struct RecoverOptions {
    /// The snapshot to restore warm from, if one may exist. `None` (or a
    /// missing/invalid file) starts cold and replays the whole log.
    pub snapshot_path: Option<std::path::PathBuf>,
    /// The delta write-ahead log (created if missing).
    pub wal_path: std::path::PathBuf,
    /// Fsync discipline for the re-opened log.
    pub durability: pvc_core::Durability,
    /// Cache bounds for a **cold** start (a restored snapshot carries its own).
    pub cache: CacheConfig,
    /// Tenant tag for records appended after recovery.
    pub tenant: String,
}

impl RecoverOptions {
    /// Options with the given log path, no snapshot, default cache bounds,
    /// [`pvc_core::Durability::Always`] and an empty tenant tag.
    pub fn new(wal_path: impl Into<std::path::PathBuf>) -> Self {
        RecoverOptions {
            snapshot_path: None,
            wal_path: wal_path.into(),
            durability: pvc_core::Durability::Always,
            cache: CacheConfig::default(),
            tenant: String::new(),
        }
    }

    /// Restore from this snapshot when it exists and verifies.
    pub fn with_snapshot(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.snapshot_path = Some(path.into());
        self
    }

    /// Set the log's fsync discipline.
    pub fn with_durability(mut self, durability: pvc_core::Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Set the cold-start cache bounds.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Set the tenant tag.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }
}

/// What [`Engine::recover_with`] found and did: whether the snapshot served,
/// what the WAL contributed, and where the durable high-water mark ended up.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// True when the snapshot existed, verified and restored warm.
    pub snapshot_restored: bool,
    /// The typed error (rendered) when a snapshot existed but was refused —
    /// recovery then proceeded **cold-with-replay** instead of failing.
    pub snapshot_error: Option<String>,
    /// Logged deltas re-applied (sequence numbers past the snapshot's
    /// high-water mark).
    pub wal_replayed: usize,
    /// Logged deltas skipped because the snapshot already contained them.
    pub wal_skipped: usize,
    /// Bytes amputated from the log as a torn/corrupt tail.
    pub wal_tail_dropped_bytes: u64,
    /// The durable high-water mark after recovery (next append is `+1`).
    pub high_water: u64,
}

impl Engine {
    /// Crash recovery: rebuild a warm engine from the newest snapshot (when
    /// one exists and is valid), replay every delta in the WAL past the
    /// snapshot's high-water mark, and attach the log for future writes.
    ///
    /// Degradation is graceful at every stage, never silent:
    /// * a missing snapshot starts cold (all WAL records replay);
    /// * a torn/corrupt/mismatched snapshot also starts **cold-with-replay**,
    ///   and the typed error is reported in [`RecoveryReport::snapshot_error`];
    /// * a torn WAL tail is truncated by the open (counted in
    ///   [`RecoveryReport::wal_tail_dropped_bytes`]);
    /// * a logged delta that fails to re-apply is a hard [`Error`] — that is
    ///   acknowledged data the engine cannot reconstruct, and serving a
    ///   silently stale database would be wrong in exactly the way this
    ///   subsystem exists to prevent.
    pub fn recover_with(
        storage: Arc<dyn pvc_core::Storage>,
        db: Database,
        options: &RecoverOptions,
    ) -> Result<(Engine, RecoveryReport), Error> {
        let mut report = RecoveryReport::default();
        let mut engine = match options.snapshot_path.as_deref() {
            Some(path) if storage.exists(path) => {
                match Engine::with_artifacts_from_storage(db.clone(), path, storage.as_ref()) {
                    Ok(engine) => {
                        report.snapshot_restored = true;
                        engine
                    }
                    Err(e) => {
                        report.snapshot_error = Some(e.to_string());
                        Engine::with_cache_config(db, options.cache)
                    }
                }
            }
            _ => Engine::with_cache_config(db, options.cache),
        };
        let hwm = engine.wal_high_water();
        let (mut wal, logged) = DeltaWal::open(
            storage,
            &options.wal_path,
            options.tenant.clone(),
            options.durability,
        )?;
        report.wal_tail_dropped_bytes = wal.recovered_tail_dropped_bytes();
        for entry in logged {
            if entry.seq <= hwm {
                report.wal_skipped += 1;
                continue;
            }
            // No WAL is attached yet, so replay applies without re-logging;
            // pre-advancing the counter journals the delta under its original
            // sequence number.
            engine.wal_seq.fetch_max(entry.seq - 1, Ordering::Relaxed);
            engine.apply_delta(entry.delta)?;
            report.wal_replayed += 1;
        }
        report.high_water = engine.wal_high_water().max(wal.last_seq()).max(hwm);
        wal.set_last_seq(report.high_water);
        engine.attach_wal(wal);
        Ok((engine, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Delta, EvalOptions};
    use crate::exec::tests::figure1_db;
    use crate::query::Query;

    /// A scratch directory unique to one test, cleaned before use.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pvc-engine-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn confidences(engine: &Engine, q: &Query) -> Vec<u64> {
        engine
            .prepare(q)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap()
            .tuples
            .iter()
            .map(|t| t.confidence.to_bits())
            .collect()
    }

    #[test]
    fn recovery_replays_acknowledged_deltas_bit_identically() {
        let dir = scratch_dir("recover");
        let wal = dir.join("t.wal");
        let storage = pvc_core::FsStorage::shared();
        let options = RecoverOptions::new(&wal).with_snapshot(dir.join("t.snap"));
        let q = Query::table("P1").project(["pid"]);

        let deltas = [
            Delta::new().insert("P1", vec![100i64.into(), 1i64.into()], 0.3),
            Delta::new().insert("P1", vec![101i64.into(), 2i64.into()], 0.6),
            Delta::new().set_probability("P1", 0, 0.9),
        ];
        // First "process": cold start (no snapshot, empty log), acknowledge
        // three deltas, then crash without saving anything.
        {
            let (mut engine, report) =
                Engine::recover_with(Arc::clone(&storage), figure1_db(), &options).unwrap();
            assert_eq!(report, RecoveryReport::default());
            for delta in &deltas {
                engine.apply_delta(delta.clone()).unwrap();
            }
            assert_eq!(engine.wal_high_water(), 3);
        } // drop = kill -9 as far as durable state is concerned

        // Second "process": every acknowledged delta replays from the log, and
        // the results are bit-identical to a never-crashed engine.
        let (engine, report) =
            Engine::recover_with(Arc::clone(&storage), figure1_db(), &options).unwrap();
        assert!(!report.snapshot_restored);
        assert_eq!(report.wal_replayed, 3);
        assert_eq!(report.wal_skipped, 0);
        assert_eq!(report.high_water, 3);
        let mut reference = Engine::new(figure1_db());
        for delta in &deltas {
            reference.apply_delta(delta.clone()).unwrap();
        }
        assert_eq!(confidences(&engine, &q), confidences(&reference, &q));

        // Third "process", after a snapshot: the snapshot carries the
        // high-water mark, the log rotates empty, nothing replays twice.
        engine
            .save_artifacts_with(storage.as_ref(), &dir.join("t.snap"))
            .unwrap();
        let mut engine = engine;
        engine.wal_mut().unwrap().rotate(3).unwrap();
        drop(engine);
        let (engine, report) =
            Engine::recover_with(Arc::clone(&storage), figure1_db(), &options).unwrap();
        assert!(report.snapshot_restored);
        assert_eq!(report.wal_replayed, 0);
        assert_eq!(report.high_water, 3);
        // New appends continue past the snapshotted prefix, never reusing a
        // sequence number.
        let mut engine = engine;
        engine
            .apply_delta(Delta::new().insert("P1", vec![102i64.into(), 3i64.into()], 0.5))
            .unwrap();
        assert_eq!(engine.wal_high_water(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_loses_only_the_unacknowledged_record() {
        let dir = scratch_dir("torn-tail");
        let wal = dir.join("t.wal");
        let storage = pvc_core::FsStorage::shared();
        let options = RecoverOptions::new(&wal);
        {
            let (mut engine, _) =
                Engine::recover_with(Arc::clone(&storage), figure1_db(), &options).unwrap();
            engine
                .apply_delta(Delta::new().insert("P1", vec![100i64.into(), 1i64.into()], 0.3))
                .unwrap();
            engine
                .apply_delta(Delta::new().insert("P1", vec![101i64.into(), 2i64.into()], 0.6))
                .unwrap();
        }
        // Simulate a crash mid-append: amputate the last 5 bytes.
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();
        let (engine, report) =
            Engine::recover_with(Arc::clone(&storage), figure1_db(), &options).unwrap();
        assert_eq!(report.wal_replayed, 1, "only the whole record replays");
        assert!(report.wal_tail_dropped_bytes > 0);
        // The recovered engine matches a reference that saw only delta 1.
        let mut reference = Engine::new(figure1_db());
        reference
            .apply_delta(Delta::new().insert("P1", vec![100i64.into(), 1i64.into()], 0.3))
            .unwrap();
        let q = Query::table("P1").project(["pid"]);
        assert_eq!(confidences(&engine, &q), confidences(&reference, &q));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_append_failure_refuses_the_delta_atomically() {
        let dir = scratch_dir("refuse");
        let options = RecoverOptions::new(dir.join("t.wal"));
        let faulty: Arc<dyn pvc_core::Storage> = Arc::new(pvc_core::FaultyStorage::new(
            11,
            pvc_core::FaultConfig {
                transient: 1.0,
                ..pvc_core::FaultConfig::none()
            },
        ));

        // An empty log cannot even be created on all-faulty storage: the
        // typed WAL error surfaces, never a panic.
        let err = Engine::recover_with(Arc::clone(&faulty), figure1_db(), &options).unwrap_err();
        assert!(matches!(err, Error::Wal(_)), "got {err:?}");

        // Seed a clean one-record log through healthy storage first.
        {
            let (mut engine, _) =
                Engine::recover_with(pvc_core::FsStorage::shared(), figure1_db(), &options)
                    .unwrap();
            engine
                .apply_delta(Delta::new().insert("P1", vec![100i64.into(), 1i64.into()], 0.3))
                .unwrap();
        }
        // Re-opening a clean log needs no writes, so recovery succeeds even on
        // the faulty storage — but the next append fails, and WAL-before-apply
        // must refuse the delta without touching the database.
        let (mut engine, report) =
            Engine::recover_with(Arc::clone(&faulty), figure1_db(), &options).unwrap();
        assert_eq!(report.wal_replayed, 1);
        let rows_before = engine.database().table("P1").unwrap().len();
        let hwm_before = engine.wal_high_water();
        let err = engine
            .apply_delta(Delta::new().insert("P1", vec![101i64.into(), 2i64.into()], 0.5))
            .unwrap_err();
        assert!(matches!(err, Error::Wal(_)), "got {err:?}");
        assert_eq!(engine.database().table("P1").unwrap().len(), rows_before);
        assert_eq!(engine.wal_high_water(), hwm_before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
