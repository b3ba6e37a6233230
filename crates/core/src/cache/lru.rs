//! The store's LRU map from `u32` canonical ids to artifacts. Every use of a
//! key appends `(tick, key)` to a queue and records the tick in the key's
//! entry, so the queue lists the keys oldest use first, each live at its last
//! use; older pairs of a key are stale and are skipped. Promotion is one push,
//! eviction pops from the front, and the stale pairs are swept out whenever
//! they outnumber the live ones, so every operation is O(1) amortised. The map
//! hashes with the interner's [`IdHasher`]: the keys are ids this program
//! issued, so SipHash's protection buys nothing there.

use super::CacheConfig;
use pvc_expr::intern::IdHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

#[derive(Debug)]
pub(crate) struct Lru<V> {
    map: HashMap<u32, LruEntry<V>, BuildHasherDefault<IdHasher>>,
    uses: VecDeque<(u64, u32)>,
    tick: u64,
    bytes: usize,
}

#[derive(Debug)]
struct LruEntry<V> {
    value: V,
    bytes: usize,
    scope: u64,
    /// The tick of the last use.
    used: u64,
}

impl<V> Lru<V> {
    pub(super) fn new() -> Self {
        Lru {
            map: HashMap::default(),
            uses: VecDeque::new(),
            tick: 0,
            bytes: 0,
        }
    }

    pub(super) fn len(&self) -> usize {
        self.map.len()
    }

    pub(super) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Record a use of `key` and return its tick.
    fn touch(&mut self, key: u32) -> u64 {
        if self.uses.len() > 2 * self.map.len() + 16 {
            let map = &self.map;
            self.uses
                .retain(|&(tick, key)| map.get(&key).is_some_and(|e| e.used == tick));
        }
        self.tick += 1;
        self.uses.push_back((self.tick, key));
        self.tick
    }

    /// Look up and promote to most-recently-used. Returns the value and the scope
    /// the entry was inserted under.
    pub(super) fn get(&mut self, key: u32) -> Option<(&V, u64)> {
        self.map.get(&key)?;
        let used = self.touch(key);
        let e = self.map.get_mut(&key).expect("present above");
        e.used = used;
        Some((&e.value, e.scope))
    }

    /// Every entry as `(key, scope, value)`, least-recently-used first — the
    /// order the snapshot codec replays inserts in, so restoring reproduces the
    /// recency order. Does not promote.
    pub(crate) fn entries_oldest_first(&self) -> Vec<(u32, u64, &V)> {
        let live = |&(tick, key): &(u64, u32)| {
            let e = self.map.get(&key).filter(|e| e.used == tick)?;
            Some((key, e.scope, &e.value))
        };
        self.uses.iter().filter_map(live).collect()
    }

    /// Remove one entry by key, leaving the recency order of the others intact.
    /// Returns true if the key was present.
    pub(super) fn remove(&mut self, key: u32) -> bool {
        let Some(e) = self.map.remove(&key) else {
            return false;
        };
        self.bytes -= e.bytes;
        true
    }

    /// Remove every entry whose key `doomed` picks; returns how many.
    pub(super) fn remove_if(&mut self, doomed: impl Fn(u32) -> bool) -> usize {
        let keys: Vec<u32> = self.map.keys().copied().filter(|&k| doomed(k)).collect();
        for &key in &keys {
            self.remove(key);
        }
        keys.len()
    }

    /// A copy under the keys `rekey` maps the keys to, in the same recency
    /// order.
    pub(super) fn rekeyed(&self, config: &CacheConfig, mut rekey: impl FnMut(u32) -> u32) -> Lru<V>
    where
        V: Clone,
    {
        let mut copy = Lru::new();
        for (key, scope, value) in self.entries_oldest_first() {
            let bytes = self.map[&key].bytes;
            copy.insert(rekey(key), value.clone(), bytes, scope, config);
        }
        copy
    }

    /// Insert or replace, as the most recently used entry; evicts
    /// least-recently-used entries beyond the bounds. Returns the number of
    /// evictions performed.
    pub(super) fn insert(
        &mut self,
        key: u32,
        value: V,
        bytes: usize,
        scope: u64,
        config: &CacheConfig,
    ) -> u64 {
        self.remove(key);
        let used = self.touch(key);
        let entry = LruEntry {
            value,
            bytes,
            scope,
            used,
        };
        self.map.insert(key, entry);
        self.bytes += bytes;
        let mut evictions = 0;
        while self.len() > 1 && (self.len() > config.max_entries || self.bytes > config.max_bytes) {
            let (tick, victim) = self.uses.pop_front().expect("a live entry has a use");
            if self.map.get(&victim).is_some_and(|e| e.used == tick) {
                self.remove(victim);
                evictions += 1;
            }
        }
        evictions
    }
}
