//! The admission tier: what happens to a job *before* it reaches the
//! planner.
//!
//! At serving scale most traffic is near-duplicate, yet every submission
//! would otherwise pay full planner + backend cost. This crate supplies the
//! three deduplication mechanisms the serving runtime layers between
//! submission and dispatch:
//!
//! * [`canonical`] — a canonical form per kernel family and an FNV-1a
//!   [`canonical::CanonicalKey`], so syntactic variants of the same
//!   computation collapse onto one identity. The runtime executes the
//!   canonical form itself, which is what makes the central invariant hold:
//!   *canonicalization preserves results byte-for-byte under the same
//!   seed*.
//! * [`cache`] — a seeded-deterministic LRU result cache keyed on
//!   `(canonical key, seed, policy)`. Results in this workspace are pure
//!   functions of that triple, so a hit is byte-identical to recomputation.
//! * [`singleflight`] — coalescing for identical in-flight submissions:
//!   one execution, many waiters, with per-waiter cancellation that never
//!   leaks to peers.
//!
//! The types here are deliberately generic over the stored value and the
//! waiter handle: the `runtime` crate instantiates them with its own job
//! state, keeping this crate free of any dependency on the serving engine
//! (the dependency points the other way).
//!
//! Everything is deterministic by construction — `BTreeMap` recency and
//! flight tables (no hash-order iteration), a logical clock instead of
//! wall time, and no OS entropy anywhere.

pub mod cache;
pub mod canonical;
pub mod singleflight;

pub use cache::{CacheCounters, ResultCache};
pub use canonical::{admit, canonical_key, canonicalize, routing_hash, CanonicalKey};
pub use singleflight::SingleFlight;

/// Configuration for the runtime's admission tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Result-cache capacity in entries. `0` disables the cache.
    pub cache_capacity: usize,
    /// Whether identical in-flight `(canonical key, seed, policy)`
    /// submissions coalesce onto one execution.
    pub coalesce: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            cache_capacity: 256,
            coalesce: true,
        }
    }
}

impl AdmissionConfig {
    /// A configuration with every admission mechanism switched off:
    /// no cache, no coalescing. Every submission recomputes.
    #[must_use]
    pub fn disabled() -> Self {
        AdmissionConfig {
            cache_capacity: 0,
            coalesce: false,
        }
    }

    /// Whether any admission mechanism is active.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.cache_capacity > 0 || self.coalesce
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_caches_and_coalesces() {
        let c = AdmissionConfig::default();
        assert!(c.cache_capacity > 0);
        assert!(c.coalesce);
        assert!(c.is_enabled());
    }

    #[test]
    fn disabled_config_is_inert() {
        let c = AdmissionConfig::disabled();
        assert!(!c.is_enabled());
        assert_eq!(c.cache_capacity, 0);
        assert!(!c.coalesce);
    }
}
