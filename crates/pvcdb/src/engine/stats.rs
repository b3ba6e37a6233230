//! Every counter the engine reports — cache behaviour, cumulative delta and
//! snapshot activity — and the one getter that gathers them, [`Engine::stats`].

use super::Engine;
use std::sync::MutexGuard;

/// Sizes and behaviour counters of the engine's compile-artifact caches (see
/// [`Engine::cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Cached step-I rewrites, keyed by the query's canonical structural key.
    pub rewrites: usize,
    /// Approximate (serialized-size) bytes held by the step-I rewrite cache,
    /// bounded by the same [`CacheConfig`](pvc_core::CacheConfig) as the artifact caches.
    pub rewrite_bytes: usize,
    /// Cached annotation distributions/confidences, keyed by canonical expression id.
    pub confidences: usize,
    /// Cached aggregate distributions, keyed by canonical semimodule-expression id.
    pub aggregates: usize,
    /// Distinct nodes in the hash-consed expression arena (semiring + semimodule).
    pub interned: usize,
    /// Approximate payload bytes held by the artifact caches.
    pub bytes: usize,
    /// Artifact-cache lookups answered from the cache.
    pub hits: u64,
    /// Artifact-cache lookups that had to compute.
    pub misses: u64,
    /// Hits whose entry was inserted while executing a *different* query — the
    /// cross-query reuse enabled by canonical interning.
    pub cross_query_hits: u64,
    /// Entries evicted by the LRU bounds.
    pub evictions: u64,
    /// Circuits compiled through the artifact store (see
    /// [`CacheCounters::arena_misses`](pvc_core::CacheCounters::arena_misses)).
    pub arena_misses: u64,
}

/// Cumulative [`Engine::apply_delta`] activity (see [`EngineStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaTotals {
    /// Deltas applied successfully.
    pub applied: u64,
    /// Tuples inserted across all deltas.
    pub inserted: u64,
    /// Tuples deleted across all deltas.
    pub deleted: u64,
    /// Probability updates across all deltas.
    pub reprobed: u64,
    /// Artifact-cache entries evicted by delta invalidation.
    pub evicted_artifacts: u64,
    /// Step-I rewrites evicted by delta invalidation.
    pub evicted_rewrites: u64,
}

/// Cumulative snapshot activity of this engine (see [`EngineStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotTotals {
    /// Snapshot files written by [`Engine::save_artifacts`].
    pub saves: u64,
    /// Snapshots loaded into this engine ([`Engine::with_artifacts_from`] counts
    /// as one restore on the new engine).
    pub restores: u64,
    /// Bytes written across all saves.
    pub bytes_written: u64,
    /// Bytes read across all restores.
    pub bytes_read: u64,
}

/// Every counter the engine keeps, in one struct: cache behaviour, delta
/// activity and snapshot activity (see [`Engine::stats`]). The older
/// [`Engine::cache_stats`] getter remains as a thin delegate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Sizes and hit/miss/eviction counters of the compile-artifact caches.
    pub cache: CacheStats,
    /// Cumulative [`Engine::apply_delta`] counters.
    pub deltas: DeltaTotals,
    /// Cumulative snapshot save/restore counters.
    pub snapshots: SnapshotTotals,
}

impl Engine {
    /// Every counter the engine keeps, in one struct: cache sizes and
    /// behaviour, cumulative delta activity and cumulative snapshot activity.
    /// This is the consolidated retrieval surface; [`Engine::cache_stats`]
    /// remains as a thin delegate to the `cache` section.
    pub fn stats(&self) -> EngineStats {
        let artifacts = &self.caches.artifacts;
        let counters = artifacts.counters();
        let (rewrites, rewrite_bytes) = {
            let rw = self.caches.rewrites();
            (rw.len(), rw.bytes())
        };
        EngineStats {
            cache: CacheStats {
                rewrites,
                rewrite_bytes,
                confidences: artifacts.semiring_entries(),
                aggregates: artifacts.aggregate_entries(),
                interned: artifacts.interned_nodes(),
                bytes: artifacts.bytes(),
                hits: counters.hits,
                misses: counters.misses,
                cross_query_hits: counters.cross_scope_hits,
                evictions: counters.evictions,
                arena_misses: counters.arena_misses,
            },
            deltas: self.delta_totals,
            snapshots: *self.snapshot_totals(),
        }
    }

    /// The snapshot counters, locked: saves and restores advance them through
    /// `&self`.
    pub(super) fn snapshot_totals(&self) -> MutexGuard<'_, SnapshotTotals> {
        self.snapshot_totals
            .lock()
            .expect("snapshot counters lock poisoned")
    }

    /// Current sizes and behaviour counters of the compile-artifact caches
    /// (the `cache` section of [`Engine::stats`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.stats().cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Delta, EvalOptions};
    use crate::exec::tests::{figure1_db, paper_q1};

    #[test]
    fn engine_stats_consolidates_the_scattered_getters() {
        let mut engine = Engine::new(figure1_db());
        assert_eq!(engine.stats(), EngineStats::default());
        engine
            .prepare(&paper_q1())
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        let stats = engine.stats();
        // The old getter is a thin delegate of the consolidated struct.
        assert_eq!(stats.cache, engine.cache_stats());
        assert_eq!(stats.deltas, DeltaTotals::default());
        engine
            .apply_delta(Delta::new().insert("P2", vec![9i64.into(), 9i64.into()], 0.5))
            .unwrap();
        let after = engine.stats();
        assert_eq!(after.deltas.applied, 1);
        assert_eq!(after.deltas.inserted, 1);
        assert_eq!(after.deltas.evicted_rewrites, 1); // paper_q1 reads P2
        let dir = std::env::temp_dir().join(format!("pvc-stats-{}.snap", std::process::id()));
        engine.save_artifacts(&dir).unwrap();
        let saved = engine.stats().snapshots;
        assert_eq!(saved.saves, 1);
        assert!(saved.bytes_written > 0);
        engine.restore_artifacts(&dir).unwrap();
        let restored = engine.stats().snapshots;
        assert_eq!(restored.restores, 1);
        assert!(restored.bytes_read > 0);
        std::fs::remove_file(&dir).ok();
    }
}
