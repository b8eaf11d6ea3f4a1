//! Single-flight coalescing for identical in-flight submissions.
//!
//! When a submission's `(canonical key, seed, policy)` identity matches a
//! job already queued or executing, running it again is pure waste: the
//! result will be byte-identical. Instead the duplicate *attaches* to the
//! in-flight execution as a waiter, and the serving runtime publishes the
//! one outcome to every attached handle when the lead job completes.
//!
//! The registry itself is deliberately dumb: a `BTreeMap` from key to
//! waiter list plus counters. All the delicate semantics — a waiter
//! cancelling without cancelling its peers, the lead being cancelled while
//! live waiters remain, waiters attaching while the lead is already on a
//! backend — live in [`crate::engine`], which owns the job states. The
//! registry only guarantees that between `lead` and `complete` every
//! attach lands in the drained list exactly once.

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

/// An in-flight registry mapping a key to the waiters coalesced behind
/// its lead execution.
#[derive(Debug, Clone)]
pub(crate) struct SingleFlight<K: Ord + Clone, W> {
    flights: BTreeMap<K, Vec<W>>,
}

impl<K: Ord + Clone, W> Default for SingleFlight<K, W> {
    fn default() -> Self {
        SingleFlight::new()
    }
}

impl<K: Ord + Clone, W> SingleFlight<K, W> {
    /// An empty registry.
    #[must_use]
    pub(crate) fn new() -> Self {
        SingleFlight {
            flights: BTreeMap::new(),
        }
    }

    /// Registers `key` as in flight with an empty waiter list. Returns
    /// `true` if this call created the flight (the caller becomes the
    /// lead), `false` if the key was already in flight.
    pub(crate) fn lead(&mut self, key: K) -> bool {
        if self.flights.contains_key(&key) {
            return false;
        }
        self.flights.insert(key, Vec::new());
        true
    }

    /// Attaches a waiter to an in-flight key. Returns `false` (and hands
    /// the waiter back) when nothing is in flight under `key` — the caller
    /// should then become the lead.
    pub(crate) fn attach(&mut self, key: &K, waiter: W) -> Result<(), W> {
        match self.flights.get_mut(key) {
            Some(waiters) => {
                waiters.push(waiter);
                Ok(())
            }
            None => Err(waiter),
        }
    }

    /// The waiters currently attached to `key` (empty when not in flight).
    #[must_use]
    pub(crate) fn waiters(&self, key: &K) -> &[W] {
        self.flights.get(key).map_or(&[], Vec::as_slice)
    }

    /// Ends the flight, returning every attached waiter. Waiters that
    /// attach after this call start a new flight via [`SingleFlight::lead`].
    pub(crate) fn complete(&mut self, key: &K) -> Vec<W> {
        self.flights.remove(key).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_caller_leads_duplicates_attach() {
        let mut sf: SingleFlight<u64, &str> = SingleFlight::new();
        assert!(sf.lead(7));
        assert!(!sf.lead(7));
        assert!(sf.attach(&7, "a").is_ok());
        assert!(sf.attach(&7, "b").is_ok());
        assert_eq!(sf.waiters(&7), &["a", "b"]);
    }

    #[test]
    fn complete_drains_and_releases_the_key() {
        let mut sf: SingleFlight<u64, u32> = SingleFlight::new();
        assert!(sf.lead(1));
        sf.attach(&1, 10).unwrap();
        assert_eq!(sf.complete(&1), vec![10]);
        // A post-completion duplicate starts a fresh flight.
        assert!(sf.lead(1));
        assert_eq!(sf.waiters(&1), &[] as &[u32]);
    }

    #[test]
    fn attach_without_flight_hands_the_waiter_back() {
        let mut sf: SingleFlight<u64, u32> = SingleFlight::new();
        assert_eq!(sf.attach(&9, 99), Err(99));
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let mut sf: SingleFlight<(u64, u64), u32> = SingleFlight::new();
        assert!(sf.lead((1, 1)));
        assert!(sf.lead((1, 2)));
        sf.attach(&(1, 1), 5).unwrap();
        assert_eq!(sf.complete(&(1, 2)), vec![]);
        assert_eq!(sf.complete(&(1, 1)), vec![5]);
    }
}
