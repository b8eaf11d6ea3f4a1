//! The admission tier: what happens to a job *before* it reaches the
//! planner.
//!
//! At serving scale most traffic is near-duplicate, yet every submission
//! would otherwise pay full planner + backend cost. This crate supplies the
//! three deduplication mechanisms the serving runtime layers between
//! submission and dispatch, plus the configuration for hedged dispatch:
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
    /// Hedged portfolio dispatch for SAT-shaped kernels; `None` dispatches
    /// every job down the single planner-ranked walk.
    pub hedge: Option<HedgeConfig>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            cache_capacity: 256,
            coalesce: true,
            hedge: None,
        }
    }
}

impl AdmissionConfig {
    /// A configuration with every admission mechanism switched off:
    /// no cache, no coalescing, no hedging. Every submission recomputes.
    #[must_use]
    pub fn disabled() -> Self {
        AdmissionConfig {
            cache_capacity: 0,
            coalesce: false,
            hedge: None,
        }
    }

    /// Whether any admission mechanism is active.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.cache_capacity > 0 || self.coalesce || self.hedge.is_some()
    }
}

/// Configuration for hedged portfolio dispatch of SAT kernels: the
/// dispatch walk takes the planner's ranking `top_k` backends at a time
/// (DMM vs WalkSAT vs DPLL paths), races each wave, keeps the
/// highest-ranked success, and cancels the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeConfig {
    /// How many planner-ranked candidates each wave of the walk races —
    /// the runtime passes it down as `DispatchRequest::width` (clamped to
    /// at least 1; with 1 the dispatch is the ordinary planned walk).
    pub top_k: usize,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig { top_k: 2 }
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
        assert!(c.hedge.is_none());
        assert!(c.is_enabled());
    }

    #[test]
    fn disabled_config_is_inert() {
        let c = AdmissionConfig::disabled();
        assert!(!c.is_enabled());
        assert_eq!(c.cache_capacity, 0);
        assert!(!c.coalesce);
    }

    #[test]
    fn hedge_default_races_two() {
        assert_eq!(HedgeConfig::default().top_k, 2);
    }
}
