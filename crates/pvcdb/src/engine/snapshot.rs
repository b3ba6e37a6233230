//! Warm restarts: [`Engine::save_artifacts`] writes the arena, the artifact cache
//! and the rewrite cache into one versioned, checksummed file, and
//! [`Engine::with_artifacts_from`] / [`Engine::restore_artifacts`] load it back —
//! into a fresh store or the live one — through one restore routine that honours a
//! partial per-table fingerprint match. The format is `docs/SNAPSHOT_FORMAT.md`.

use super::Engine;
use crate::database::Database;
use crate::error::Error;
use pvc_core::SharedArtifacts;
use pvc_expr::VarSet;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What one snapshot save or restore moved between the engine and disk (see
/// [`Engine::save_artifacts`] / [`Engine::restore_artifacts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotStats {
    /// Interned expression nodes (semiring + semimodule) written / replayed.
    pub interned: usize,
    /// Cached distributions (confidences + aggregates) written / inserted.
    pub distributions: usize,
    /// Step-I rewrite tables written / installed.
    pub rewrites: usize,
    /// Total snapshot size in bytes.
    pub bytes: usize,
}

/// The table names on which a saved per-table fingerprint vector disagrees with
/// the live one: differing digests, or present on only one side. Empty iff the
/// vectors agree entry-for-entry.
fn mismatched_tables(saved: &[(String, u64)], live: &[(String, u64)]) -> BTreeSet<String> {
    let saved_map: BTreeMap<&str, u64> = saved.iter().map(|(n, f)| (n.as_str(), *f)).collect();
    let live_map: BTreeMap<&str, u64> = live.iter().map(|(n, f)| (n.as_str(), *f)).collect();
    let mut mismatch = BTreeSet::new();
    for (name, fp) in &saved_map {
        if live_map.get(name) != Some(fp) {
            mismatch.insert(name.to_string());
        }
    }
    for name in live_map.keys() {
        if !saved_map.contains_key(name) {
            mismatch.insert(name.to_string());
        }
    }
    mismatch
}

/// Decide how much of a snapshot is loadable against `db`: `Ok(empty set)` for
/// an exact fingerprint match, `Ok(mismatched tables)` for a usable partial
/// per-table match (at least one live table agrees), `Err` when nothing is
/// salvageable — every table diverged, or the divergence is invisible to the
/// per-table vector (e.g. a different semiring kind).
fn partial_match(snapshot: &pvc_core::Snapshot, db: &Database) -> Result<BTreeSet<String>, Error> {
    let fingerprint = crate::snapshot::database_fingerprint(db);
    if snapshot.fingerprint() == fingerprint {
        return Ok(BTreeSet::new());
    }
    let live = crate::snapshot::database_table_fingerprints(db);
    let mismatch = mismatched_tables(snapshot.table_fingerprints(), &live);
    let matched = live.iter().filter(|(n, _)| !mismatch.contains(n)).count();
    if mismatch.is_empty() || matched == 0 {
        // Refuse with the honest fingerprint diagnosis.
        snapshot.verify_fingerprint(fingerprint)?;
    }
    Ok(mismatch)
}

/// The union of the variable sets of the **live** mismatched tables: every
/// variable a snapshot/database divergence can possibly have re-weighted.
/// (Variables referenced by no live table cannot appear in any future query's
/// provenance, so entries over them are unreachable and need no eviction.)
fn mismatch_var_set(db: &Database, mismatch: &BTreeSet<String>) -> VarSet {
    let mut touched = VarSet::new();
    for name in mismatch {
        if let Some(table) = db.table(name) {
            touched = touched.union(&crate::snapshot::table_var_set(table));
        }
    }
    touched
}

impl Engine {
    /// Persist every compile artifact of this engine — the hash-consed
    /// expression arena, the cached distributions (respecting the LRU bounds:
    /// only what is cached is written), and the step-I rewrite cache — into a
    /// versioned, checksummed snapshot file, so a restarted process can come
    /// back **warm** (see [`Engine::with_artifacts_from`]).
    ///
    /// The snapshot embeds a fingerprint of the database (semiring, variable
    /// distributions, table contents); loading it against any other database is
    /// refused with [`Error::Snapshot`]. The format is documented in
    /// `docs/SNAPSHOT_FORMAT.md`.
    ///
    /// ```
    /// use pvc_db::{Database, Engine, EvalOptions, Query, Schema};
    ///
    /// // Deterministic loading code: both "processes" build the same database.
    /// fn build_db() -> Database {
    ///     let mut db = Database::new();
    ///     db.create_table("offers", Schema::new(["shop", "price"]));
    ///     let (offers, vars) = db.table_and_vars_mut("offers").unwrap();
    ///     offers.push_independent(vec!["M&S".into(), 10i64.into()], 0.9, vars);
    ///     offers.push_independent(vec!["Gap".into(), 12i64.into()], 0.8, vars);
    ///     db
    /// }
    ///
    /// let path = std::env::temp_dir().join(format!("pvc-doc-{}.snap", std::process::id()));
    /// let query = Query::table("offers").project(["shop"]);
    ///
    /// // First process: serve traffic, then snapshot the warmed-up artifacts.
    /// let engine = Engine::new(build_db());
    /// let cold = engine.prepare(&query)?.execute(&EvalOptions::default())?;
    /// let stats = engine.save_artifacts(&path)?;
    /// assert!(stats.rewrites >= 1 && stats.bytes > 0);
    ///
    /// // "Restart": a fresh engine starts warm from the snapshot.
    /// let restarted = Engine::with_artifacts_from(build_db(), &path)?;
    /// let warm = restarted.prepare(&query)?.execute(&EvalOptions::default())?;
    /// assert_eq!(cold.tuples.len(), warm.tuples.len());
    /// for (a, b) in cold.tuples.iter().zip(&warm.tuples) {
    ///     assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
    /// }
    /// assert_eq!(restarted.cache_stats().misses, 0); // served entirely from the snapshot
    /// std::fs::remove_file(&path).ok();
    /// # Ok::<(), pvc_db::Error>(())
    /// ```
    pub fn save_artifacts(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<SnapshotStats, Error> {
        self.save_artifacts_with(&pvc_core::FsStorage, path.as_ref())
    }

    /// [`Engine::save_artifacts`] through a pluggable [`pvc_core::Storage`] —
    /// the variant the serve runtime uses so snapshot writes are exercisable
    /// under fault injection. The snapshot records the engine's WAL high-water
    /// mark in its extra section; after the write succeeds the caller may
    /// [`DeltaWal::rotate`](crate::wal::DeltaWal::rotate) the log up to that mark.
    pub fn save_artifacts_with(
        &self,
        storage: &dyn pvc_core::Storage,
        path: &std::path::Path,
    ) -> Result<SnapshotStats, Error> {
        let fingerprint = crate::snapshot::database_fingerprint(&self.db);
        let table_fps = crate::snapshot::database_table_fingerprints(&self.db);
        let tables = self.caches.rewrites().tables();
        let extra = crate::snapshot::encode_extra(self.wal_high_water(), &self.journal, &tables);
        let n_rewrites = tables.len();
        drop(tables);
        // The counts come from the same locked view as the bytes, so they are
        // exact even when another engine shares (and keeps filling) the store.
        let (bytes, counts) =
            self.caches
                .artifacts
                .snapshot_bytes(fingerprint, &table_fps, Some(&extra));
        pvc_core::persist::write_snapshot_file_with(storage, path, &bytes)?;
        let mut totals = self.snapshot_totals();
        totals.saves += 1;
        totals.bytes_written += bytes.len() as u64;
        Ok(SnapshotStats {
            interned: counts.interned_exprs + counts.interned_aggs,
            distributions: counts.distributions,
            rewrites: n_rewrites,
            bytes: bytes.len(),
        })
    }

    /// Create an engine that starts **warm from disk**: a fresh artifact store
    /// (with the snapshot's cache bounds) and rewrite cache are rebuilt from a
    /// snapshot previously written by [`Engine::save_artifacts`].
    ///
    /// `db` must be the same database the snapshot was recorded against
    /// (typically rebuilt by the same deterministic loading code); a fingerprint
    /// mismatch, corrupted/truncated file or unsupported format version is
    /// refused with a typed [`Error::Snapshot`] — never a panic, and never a
    /// silently-wrong warm cache. Results are bit-identical to a cold engine;
    /// only the first-query latency changes. See [`Engine::save_artifacts`] for
    /// a runnable end-to-end example and [`Engine::restore_artifacts`] for
    /// merging a snapshot into an already-running engine.
    /// **Delta survival**: when the database diverges from the snapshot on only
    /// *some* tables (the typical post-[`Engine::apply_delta`] restart), the
    /// snapshot's per-table fingerprint vector pinpoints them, and the load
    /// proceeds **partially**: artifacts over the mismatched tables' variables
    /// and rewrites over mismatched base tables are dropped, everything else is
    /// restored warm. Only when *no* table matches (a genuinely different
    /// database) is the snapshot refused outright.
    pub fn with_artifacts_from(
        db: Database,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Engine, Error> {
        Engine::with_artifacts_from_storage(db, path.as_ref(), &pvc_core::FsStorage)
    }

    /// [`Engine::with_artifacts_from`] through a pluggable
    /// [`pvc_core::Storage`]. Also restores the snapshot's WAL high-water mark
    /// (see [`Engine::wal_high_water`]), which [`Engine::recover_with`] uses to
    /// decide where log replay starts.
    pub fn with_artifacts_from_storage(
        db: Database,
        path: &std::path::Path,
        storage: &dyn pvc_core::Storage,
    ) -> Result<Engine, Error> {
        let bytes = pvc_core::persist::read_snapshot_file_with(storage, path)?;
        let snapshot = pvc_core::persist::decode_snapshot(&bytes)?;
        let (hwm, journal, rewrite_bytes) = match snapshot.extra() {
            Some(extra) => {
                let (hwm, journal_bytes, rewrite_bytes) = crate::snapshot::decode_extra(extra)?;
                let journal = crate::snapshot::decode_journal(journal_bytes)?;
                (hwm, journal, Some(rewrite_bytes))
            }
            None => (0, Vec::new(), None),
        };
        // A snapshot taken after deltas fingerprints the *mutated* database,
        // while crash recovery is handed the deterministically-reloaded base
        // one (tenant rows are never persisted in artifact snapshots). When
        // the fingerprints disagree and the snapshot carries a journal,
        // re-derive the snapshotted state by replaying the journal onto the
        // base — this, not the (possibly rotated) WAL, is the durable record
        // of those acknowledged deltas. A database that already matches
        // (live restart with the mutated state in hand) skips the replay:
        // applying the journal twice would corrupt it.
        let direct = crate::snapshot::database_fingerprint(&db);
        let db = if journal.is_empty() || direct == snapshot.fingerprint() {
            db
        } else {
            let mut replayer = Engine::new(db);
            for (_, delta) in &journal {
                replayer.apply_delta(delta.clone()).map_err(|e| {
                    Error::Snapshot(pvc_core::PersistError::Format(format!(
                        "snapshot delta journal does not re-apply to the provided database \
                         (is it the original base?): {e}"
                    )))
                })?;
            }
            replayer.into_database()
        };
        // A fresh store and rewrite cache, with the snapshot's cache bounds.
        let store = SharedArtifacts::new(snapshot.config());
        let mut engine = Engine::with_shared_artifacts(db, Arc::new(store));
        engine.restore_snapshot(&snapshot, rewrite_bytes, bytes.len())?;
        engine.wal_seq.fetch_max(hwm, Ordering::Relaxed);
        engine.journal = journal;
        Ok(engine)
    }

    /// Merge a snapshot into this engine's **live** store: interned ids are
    /// remapped onto the live arena (shared structure deduplicates), cache
    /// entries are inserted under this engine's LRU bounds, and restored
    /// rewrites fill gaps without displacing live entries. The snapshot's
    /// fingerprint must match this engine's database.
    ///
    /// This is the multi-tenant / already-running variant of
    /// [`Engine::with_artifacts_from`]; every engine sharing this store (via
    /// [`Engine::with_shared_artifacts`]) sees the restored artifacts.
    /// Like [`Engine::with_artifacts_from`], a **partial** per-table fingerprint
    /// match is honoured: entries over diverged tables are skipped/evicted, the
    /// rest merges in warm.
    pub fn restore_artifacts(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<SnapshotStats, Error> {
        let bytes = pvc_core::persist::read_snapshot_file(path)?;
        let snapshot = pvc_core::persist::decode_snapshot(&bytes)?;
        let extra = snapshot
            .extra()
            .map(crate::snapshot::decode_extra)
            .transpose()?;
        let rewrite_bytes = extra.map(|(_, _, rewrite_bytes)| rewrite_bytes);
        let (stats, exact) = self.restore_snapshot(&snapshot, rewrite_bytes, bytes.len())?;
        // The delta journal is recovery-only (see
        // [`Engine::with_artifacts_from_storage`]): a live merge cannot
        // re-apply deltas to a database that is already serving. The
        // high-water mark is honoured only on an exact match — under a
        // partial match this engine's database provably does not contain
        // everything the snapshot's mark covers.
        if let (Some((hwm, _, _)), true) = (extra, exact) {
            self.wal_seq.fetch_max(hwm, Ordering::Relaxed);
        }
        Ok(stats)
    }

    /// The routine both restore paths end in, over this engine's store — fresh
    /// for [`Engine::with_artifacts_from`], live for
    /// [`Engine::restore_artifacts`]. Decides how much of `snapshot` is loadable
    /// (the honest-mismatch diagnosis comes first), checks the variable bound
    /// (defence in depth against crafted files — the checksum is integrity, not
    /// authentication), merges the artifacts, evicts what a partial match
    /// invalidates, and installs the step-I rewrites whose base tables all match
    /// without displacing a live entry (a fresh cache has none: decoded keys are
    /// distinct). Returns what was installed and whether the match was exact.
    fn restore_snapshot(
        &self,
        snapshot: &pvc_core::Snapshot,
        rewrite_bytes: Option<&[u8]>,
        file_len: usize,
    ) -> Result<(SnapshotStats, bool), Error> {
        let db = &*self.db;
        let mismatch = partial_match(snapshot, db)?;
        snapshot.verify_variables(db.vars.len())?;
        let artifacts = &self.caches.artifacts;
        let stats = artifacts.restore_snapshot(snapshot, snapshot.fingerprint())?;
        if !mismatch.is_empty() {
            artifacts.evict_touching(&mismatch_var_set(db, &mismatch));
        }
        let mut rewrites = 0usize;
        if let Some(bytes) = rewrite_bytes {
            let restored = crate::snapshot::decode_rewrites(bytes, db.vars.len())?;
            let mut live = self.caches.rewrites();
            for (key, (table, bases)) in restored {
                // Rewrites depend on base-table content.
                let matches = !bases.iter().any(|b| mismatch.contains(b));
                if matches && live.insert_if_absent(key, table, bases) {
                    rewrites += 1;
                }
            }
        }
        let mut totals = self.snapshot_totals();
        totals.restores += 1;
        totals.bytes_read += file_len as u64;
        Ok((
            SnapshotStats {
                interned: stats.interned_exprs + stats.interned_aggs,
                distributions: stats.distributions,
                rewrites,
                bytes: file_len,
            },
            mismatch.is_empty(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Delta, EvalOptions};
    use crate::exec::tests::figure1_db;
    use crate::query::Query;

    #[test]
    fn snapshot_survives_compatible_delta() {
        // Disk-warm restart across a delta: snapshot before, mutate, reload on
        // the mutated database — unaffected tables come back warm.
        let path = std::env::temp_dir().join(format!("pvc-delta-{}.snap", std::process::id()));
        let q_s = Query::table("S").project(["shop"]);
        let q_p = Query::table("P1").project(["pid"]);
        let mut engine = Engine::new(figure1_db());
        for q in [&q_s, &q_p] {
            engine
                .prepare(q)
                .unwrap()
                .execute(&EvalOptions::default())
                .unwrap();
        }
        engine.save_artifacts(&path).unwrap();
        engine
            .apply_delta(Delta::new().insert("P1", vec![9i64.into(), 99i64.into()], 0.25))
            .unwrap();
        let mutated = engine.database().clone();

        // Partial restore: P1 diverged (its rewrite and artifacts are dropped),
        // S matches (restored warm: the S query runs without a single miss).
        let restarted = Engine::with_artifacts_from(mutated.clone(), &path).unwrap();
        let warm = restarted
            .prepare(&q_s)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        let stats = restarted.cache_stats();
        assert_eq!(stats.misses, 0, "S must be answered from the snapshot");
        assert!(stats.hits > 0);
        let cold = Engine::new(mutated.clone());
        let cold_s = cold
            .prepare(&q_s)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        for (a, b) in warm.tuples.iter().zip(&cold_s.tuples) {
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
        // The P1 query recomputes (its artifacts were selectively dropped) and
        // agrees with the cold engine bit-for-bit.
        let p_warm = restarted
            .prepare(&q_p)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        let p_cold = cold
            .prepare(&q_p)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        assert_eq!(p_warm.tuples.len(), 5);
        for (a, b) in p_warm.tuples.iter().zip(&p_cold.tuples) {
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }

        // A fully diverged database (fresh ids, every table different) is still
        // refused outright — the cold-start fallback, never a wrong warm cache.
        let mut other = Database::new();
        other.create_table("S", crate::schema::Schema::new(["sid", "shop"]));
        let (s, vars) = other.table_and_vars_mut("S").unwrap();
        s.push_independent(vec![1i64.into(), "X".into()], 0.1, vars);
        assert!(matches!(
            Engine::with_artifacts_from(other, &path),
            Err(Error::Snapshot(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_artifacts_counts_only_installed_rewrites() {
        let path = std::env::temp_dir().join(format!("pvc-count-{}.snap", std::process::id()));
        let q = Query::table("S").project(["shop"]);
        let engine = Engine::new(figure1_db());
        engine
            .prepare(&q)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        assert_eq!(engine.save_artifacts(&path).unwrap().rewrites, 1);
        // The saving engine still holds the rewrite: nothing is displaced, so
        // nothing was installed.
        assert_eq!(engine.restore_artifacts(&path).unwrap().rewrites, 0);
        assert_eq!(engine.cache_stats().rewrites, 1);
        // A fresh engine over the same database has the gap to fill.
        let fresh = Engine::new(figure1_db());
        assert_eq!(fresh.restore_artifacts(&path).unwrap().rewrites, 1);
        assert_eq!(fresh.cache_stats().rewrites, 1);
        std::fs::remove_file(&path).ok();
    }
}
