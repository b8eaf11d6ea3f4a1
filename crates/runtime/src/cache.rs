//! A deterministic LRU result cache.
//!
//! Every result in this workspace is a pure function of
//! `(canonical key, seed, policy)`, so a cached value is byte-identical to
//! recomputation — the cache trades memory for device time, never for
//! fidelity. The implementation is deliberately boring and deterministic:
//! a `BTreeMap` store plus a `BTreeMap` recency index driven by a logical
//! tick counter. No wall clock, no pointer identity, no hash-order
//! iteration — the same access sequence always produces the same hits,
//! misses, and evictions (the eviction order is part of the serving
//! system's reproducibility contract, not an implementation detail).
//!
//! The cache is generic over key and value so its unit tests need no job
//! state; the engine instantiates it with its stored-outcome type.

// Serving-path state every submitter touches: panic hygiene (DESIGN.md §8).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct Slot<V> {
    value: V,
    tick: u64,
}

/// A least-recently-used cache with deterministic eviction order.
///
/// Capacity `0` disables the cache entirely: every lookup misses and
/// inserts are dropped.
#[derive(Debug, Clone)]
pub(crate) struct ResultCache<K: Ord + Clone, V: Clone> {
    capacity: usize,
    slots: BTreeMap<K, Slot<V>>,
    /// Recency index: logical tick → key. The smallest tick is the
    /// least-recently-used entry.
    recency: BTreeMap<u64, K>,
    tick: u64,
}

impl<K: Ord + Clone, V: Clone> ResultCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    #[must_use]
    pub(crate) fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            slots: BTreeMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick = self.tick.wrapping_add(1);
        self.tick
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        let tick = self.next_tick();
        if let Some(slot) = self.slots.get_mut(key) {
            let stale = std::mem::replace(&mut slot.tick, tick);
            let value = slot.value.clone();
            self.recency.remove(&stale);
            self.recency.insert(tick, key.clone());
            Some(value)
        } else {
            None
        }
    }

    /// Stores `value` under `key`, evicting the least-recently-used entry
    /// if the cache is full. Returns how many entries were evicted (0 or
    /// 1; re-inserting an existing key evicts nothing).
    pub(crate) fn insert(&mut self, key: K, value: V) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let tick = self.next_tick();
        if let Some(slot) = self.slots.get_mut(&key) {
            let stale = std::mem::replace(&mut slot.tick, tick);
            slot.value = value;
            self.recency.remove(&stale);
            self.recency.insert(tick, key);
            return 0;
        }
        let mut evicted = 0;
        while self.slots.len() >= self.capacity {
            let Some((&oldest, _)) = self.recency.iter().next() else {
                break;
            };
            if let Some(victim) = self.recency.remove(&oldest) {
                self.slots.remove(&victim);
                evicted += 1;
            }
        }
        self.slots.insert(key.clone(), Slot { value, tick });
        self.recency.insert(tick, key);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c: ResultCache<u32, &str> = ResultCache::new(4);
        assert_eq!(c.get(&1), None);
        c.insert(1, "one");
        assert_eq!(c.get(&1), Some("one"));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut c: ResultCache<u32, u32> = ResultCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.insert(3, 30), 1);
        assert_eq!(c.get(&2), None, "2 was least recently used");
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let mut c: ResultCache<u32, u32> = ResultCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), 0);
        assert_eq!(c.insert(3, 30), 1);
        // 2 was LRU after 1's refresh.
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(11));
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let mut c: ResultCache<u32, u32> = ResultCache::new(0);
        assert_eq!(c.insert(1, 10), 0);
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn eviction_order_is_deterministic() {
        let run = || {
            let mut c: ResultCache<u32, u32> = ResultCache::new(3);
            let mut trace = Vec::new();
            for i in 0..10u32 {
                trace.push(c.insert(i, i));
                trace.push(u64::from(c.get(&(i / 2)).is_some()));
            }
            trace
        };
        assert_eq!(run(), run());
    }
}
