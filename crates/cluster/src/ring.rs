//! A consistent-hash ring for placing canonical keys on shards.
//!
//! Classic Karger-style consistent hashing: each shard owns [`REPLICAS`]
//! pseudo-random points on a `u64` circle, and a key routes to the owner
//! of the first point at or clockwise past the key's hash. Adding or
//! removing one shard relocates only the keys in the arcs that shard's
//! points bound — about `K/N` of them — so a scaled cluster keeps most
//! shard-local caches warm. The routing input is
//! [`admission::CanonicalKey::routing_hash`], which is why duplicate
//! submissions of one canonical kernel keep landing on the same shard's
//! result cache.
//!
//! Point placement is pure FNV-1a over `(shard id, replica index)` — no
//! ambient entropy — so every router in a cluster derives the identical
//! ring from the identical shard list.

use numerics::hash::Fnv1a;
use std::collections::BTreeSet;

/// Virtual points per shard. More points smooth the load split between
/// shards at the cost of a larger sorted table; 64 keeps the worst-case
/// imbalance low for single-digit shard counts while the whole table
/// still fits in a few cache lines.
pub(crate) const REPLICAS: u32 = 64;

/// A consistent-hash ring over `u32` shard ids.
#[derive(Debug, Clone, Default)]
pub struct HashRing {
    /// `(point hash, shard)` sorted ascending; ties broken by shard id so
    /// the ring is identical no matter the insertion order.
    points: Vec<(u64, u32)>,
    shards: BTreeSet<u32>,
}

impl HashRing {
    /// An empty ring; each shard added gets `REPLICAS` points.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a shard's points. Idempotent.
    pub fn add_shard(&mut self, shard: u32) {
        if !self.shards.insert(shard) {
            return;
        }
        for replica in 0..REPLICAS {
            self.points.push((point_hash(shard, replica), shard));
        }
        self.points.sort_unstable();
    }

    /// Removes a shard's points. Idempotent.
    pub fn remove_shard(&mut self, shard: u32) {
        if !self.shards.remove(&shard) {
            return;
        }
        self.points.retain(|&(_, s)| s != shard);
    }

    /// The shard owning `hash`: the first point at or clockwise past it,
    /// wrapping at the top of the `u64` circle. `None` on an empty ring.
    #[must_use]
    pub fn route(&self, hash: u64) -> Option<u32> {
        self.route_filtered(hash, |_| true)
    }

    /// Like [`HashRing::route`], but walks clockwise past shards the
    /// predicate rejects (quarantined, disconnected), returning the first
    /// acceptable owner. `None` when no shard passes.
    #[must_use]
    pub fn route_filtered(&self, hash: u64, accept: impl Fn(u32) -> bool) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.partition_point(|&(h, _)| h < hash);
        let n = self.points.len();
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        for step in 0..n {
            let idx = (start + step) % n;
            let &(_, shard) = self.points.get(idx)?;
            if seen.insert(shard) && accept(shard) {
                return Some(shard);
            }
            if seen.len() == self.shards.len() {
                break;
            }
        }
        None
    }
}

/// FNV-1a over the big-endian bytes of `(shard, replica)`, finalized
/// with a splitmix-style bit mix. The finalizer matters: ring placement
/// orders points by the *high* bits of the hash, and plain FNV over
/// short, near-identical inputs leaves those bits weakly mixed — points
/// would clump and the load split would skew badly.
fn point_hash(shard: u32, replica: u32) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(&shard.to_be_bytes());
    h.bytes(&replica.to_be_bytes());
    let mut h = h.finish();
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> impl Iterator<Item = u64> {
        // A cheap splitmix-style sequence: deterministic, well spread.
        (0..n).map(|i| {
            let mut z = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 27)
        })
    }

    #[test]
    fn routing_is_deterministic_and_insertion_order_free() {
        let mut a = HashRing::new();
        for s in [0, 1, 2, 3] {
            a.add_shard(s);
        }
        let mut b = HashRing::new();
        for s in [3, 1, 0, 2] {
            b.add_shard(s);
        }
        for k in keys(2000) {
            assert_eq!(a.route(k), b.route(k));
        }
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::new();
        assert_eq!(ring.route(42), None);
        let mut ring = HashRing::new();
        ring.add_shard(0);
        ring.remove_shard(0);
        assert_eq!(ring.route(42), None);
    }

    #[test]
    fn filtered_routing_skips_rejected_shards_only() {
        let mut ring = HashRing::new();
        for s in 0..4 {
            ring.add_shard(s);
        }
        for k in keys(2000) {
            let owner = ring.route(k).unwrap();
            let rerouted = ring.route_filtered(k, |s| s != owner).unwrap();
            assert_ne!(rerouted, owner);
            // A key whose owner is acceptable never moves.
            assert_eq!(ring.route_filtered(k, |_| true).unwrap(), owner);
        }
        assert_eq!(ring.route_filtered(7, |_| false), None);
    }

    #[test]
    fn removing_a_shard_relocates_only_its_keys() {
        let mut ring = HashRing::new();
        for s in 0..5 {
            ring.add_shard(s);
        }
        let before: Vec<(u64, u32)> = keys(4000).map(|k| (k, ring.route(k).unwrap())).collect();
        ring.remove_shard(2);
        for (k, owner) in before {
            let after = ring.route(k).unwrap();
            if owner == 2 {
                assert_ne!(after, 2);
            } else {
                assert_eq!(after, owner, "key {k} moved despite its shard surviving");
            }
        }
    }

    #[test]
    fn adding_a_shard_steals_keys_only_for_itself() {
        let mut ring = HashRing::new();
        for s in 0..4 {
            ring.add_shard(s);
        }
        let before: Vec<(u64, u32)> = keys(4000).map(|k| (k, ring.route(k).unwrap())).collect();
        ring.add_shard(9);
        let mut moved = 0u64;
        for (k, owner) in &before {
            let after = ring.route(*k).unwrap();
            if after != *owner {
                assert_eq!(after, 9, "key moved to a pre-existing shard");
                moved += 1;
            }
        }
        // Expect roughly K/N keys to move (1/5 of 4000 = 800); allow a
        // generous band for hash-placement variance.
        assert!(moved > 0, "new shard took nothing");
        assert!(
            moved < before.len() as u64 / 2,
            "new shard took {moved} of {} keys",
            before.len()
        );
    }

    #[test]
    fn load_split_is_roughly_even() {
        let mut ring = HashRing::new();
        for s in 0..4 {
            ring.add_shard(s);
        }
        let mut counts = [0u64; 4];
        let total = 8000u64;
        for k in keys(total) {
            counts[ring.route(k).unwrap() as usize] += 1;
        }
        let expected = total / 4;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > expected / 3 && c < expected * 3,
                "shard {s} owns {c} of {total} keys"
            );
        }
    }
}
