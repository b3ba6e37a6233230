//! The bounded step-I rewrite cache: result tables of the `⟦·⟧` rewriting, keyed by
//! the query's [canonical structural key](crate::Query::structural_key).

use crate::relation::PvcTable;
use pvc_core::CacheConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One step-I rewrite held by the bounded [`RewriteCache`].
#[derive(Debug)]
struct RewriteEntry {
    table: Arc<PvcTable>,
    /// The base tables the rewrite was computed from (the plan's, with
    /// multiplicity collapsed) — the invalidation key for
    /// [`Engine::apply_delta`](super::Engine::apply_delta):
    /// a delta against any of them evicts this entry, a delta against none keeps
    /// it verbatim.
    base_tables: Vec<String>,
    /// Serialized size, the byte measure charged against the cache bound.
    bytes: usize,
    /// Recency stamp for LRU eviction (monotone per cache).
    last_used: u64,
}

/// The step-I rewrite cache, keyed by
/// [`Query::structural_key`](crate::Query::structural_key) and bounded by the
/// **same** entry/byte [`CacheConfig`] as the artifact caches — a long-lived serving
/// process running an open-ended query mix must not grow it without bound. Eviction
/// is least-recently-used; a `get` refreshes recency.
#[derive(Debug)]
pub(super) struct RewriteCache {
    entries: BTreeMap<Vec<u8>, RewriteEntry>,
    bytes: usize,
    stamp: u64,
    config: CacheConfig,
}

impl RewriteCache {
    pub(super) fn new(config: CacheConfig) -> Self {
        RewriteCache {
            entries: BTreeMap::new(),
            bytes: 0,
            stamp: 0,
            config,
        }
    }

    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(super) fn bytes(&self) -> usize {
        self.bytes
    }

    pub(super) fn get(&mut self, key: &[u8]) -> Option<Arc<PvcTable>> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.entries.get_mut(key).map(|e| {
            e.last_used = stamp;
            Arc::clone(&e.table)
        })
    }

    pub(super) fn insert(&mut self, key: Vec<u8>, table: Arc<PvcTable>, base_tables: Vec<String>) {
        self.stamp += 1;
        let bytes = crate::snapshot::table_bytes(&table);
        if let Some(old) = self.entries.insert(
            key,
            RewriteEntry {
                table,
                base_tables,
                bytes,
                last_used: self.stamp,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.evict_to_bounds();
    }

    /// Insert only if the key is absent (snapshot restore must not displace live
    /// entries), still charging the bounds. Returns whether it inserted.
    pub(super) fn insert_if_absent(
        &mut self,
        key: Vec<u8>,
        table: Arc<PvcTable>,
        base_tables: Vec<String>,
    ) -> bool {
        let absent = !self.entries.contains_key(&key);
        if absent {
            self.insert(key, table, base_tables);
        }
        absent
    }

    /// Drop every entry whose base tables intersect `touched`, keep the rest
    /// verbatim — the step-I half of delta invalidation. Returns
    /// `(evicted, kept)`.
    pub(super) fn evict_tables(&mut self, touched: &BTreeSet<String>) -> (usize, usize) {
        let before = self.entries.len();
        let mut freed = 0usize;
        self.entries.retain(|_, e| {
            let stale = e.base_tables.iter().any(|t| touched.contains(t));
            if stale {
                freed += e.bytes;
            }
            !stale
        });
        self.bytes -= freed;
        (before - self.entries.len(), self.entries.len())
    }

    /// Evict least-recently-used entries until both bounds hold. An entry larger
    /// than `max_bytes` on its own is evicted too — the bound is honoured even
    /// when that means not caching at all.
    fn evict_to_bounds(&mut self) {
        while self.entries.len() > self.config.max_entries || self.bytes > self.config.max_bytes {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                return;
            };
            if let Some(evicted) = self.entries.remove(&oldest) {
                self.bytes -= evicted.bytes;
            }
        }
    }

    /// A snapshot view for the persistence codec (cheap: clones `Arc`s only).
    pub(super) fn tables(&self) -> BTreeMap<Vec<u8>, (Arc<PvcTable>, Vec<String>)> {
        self.entries
            .iter()
            .map(|(k, e)| (k.clone(), (Arc::clone(&e.table), e.base_tables.clone())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EvalOptions};
    use crate::exec::tests::{figure1_db, paper_q1};
    use crate::query::{Predicate, Query};
    use pvc_algebra::CmpOp;

    #[test]
    fn structural_keys_distinguish_queries_and_are_stable() {
        let qa = Query::table("P1")
            .union(Query::table("P2"))
            .project(["pid"]);
        let qb = Query::table("P2")
            .union(Query::table("P1"))
            .project(["pid"]);
        // Stable for equal queries, distinct for different renderings (the rewrite
        // materialises their tuples in different orders, so they must not share a
        // step-I cache entry).
        assert_eq!(qa.structural_key(), qa.clone().structural_key());
        assert_ne!(qa.structural_key(), qb.structural_key());
        // Spot-check that predicates and aggregations feed the key.
        let base = paper_q1();
        let with_pred = paper_q1().select(Predicate::AggCmpConst("price".into(), CmpOp::Le, 50));
        assert_ne!(base.structural_key(), with_pred.structural_key());
    }

    #[test]
    fn rewrite_cache_is_lru_bounded() {
        let engine = Engine::with_cache_config(
            figure1_db(),
            CacheConfig {
                max_entries: 2,
                max_bytes: usize::MAX,
            },
        );
        // Four distinct queries → four distinct structural keys.
        let queries = [
            Query::table("S").project(["shop"]),
            Query::table("S").project(["sid"]),
            Query::table("P1").project(["pid"]),
            Query::table("P2").project(["pid"]),
        ];
        for q in &queries {
            engine
                .prepare(q)
                .unwrap()
                .execute(&EvalOptions::default())
                .unwrap();
            let stats = engine.cache_stats();
            assert!(
                stats.rewrites <= 2,
                "rewrite cache exceeded bound: {stats:?}"
            );
            assert!(stats.rewrite_bytes > 0);
        }
        // Re-running an evicted query still gives correct results (recomputed).
        let again = engine
            .prepare(&queries[0])
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        assert_eq!(again.tuples.len(), 2);
    }
}
