//! Per-shard health: alive / suspect / quarantined, with deterministic
//! probe scheduling and epoch-merged gossip.
//!
//! The math is the in-process planner's [`accel::host::QuarantinePolicy`]
//! lifted one level up: where the dispatcher quarantines a *backend*
//! after `threshold` consecutive fault-exhausted dispatches and probes it
//! every `probe_interval`-th skip, the router quarantines a *shard* after
//! `threshold` consecutive connection/submission failures and probes it
//! every `probe_interval`-th heartbeat tick. One policy type, one mental
//! model, two scales.
//!
//! # Determinism
//!
//! Probe scheduling is a pure function of `(seed, shard, tick)`: each
//! shard gets an FNV-derived phase offset within the probe interval, so
//! probes are staggered (no reconnect stampede at tick boundaries) yet a
//! replayed chaos run probes on exactly the same ticks. Observations are
//! versioned with a monotonically increasing `epoch`; gossip merge keeps
//! whichever entry has the higher epoch, making merges commutative,
//! associative, and idempotent — the usual last-writer-wins CRDT shape.

use accel::host::QuarantinePolicy;
use numerics::hash::Fnv1a;
use std::collections::BTreeMap;
use wire::{GossipEntry, GOSSIP_ALIVE, GOSSIP_QUARANTINED, GOSSIP_SUSPECT};

/// A shard's health classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShardStatus {
    /// Serving normally.
    Alive,
    /// Some consecutive failures, but fewer than the quarantine
    /// threshold; still routable.
    Suspect,
    /// At or past the threshold: taken out of routing until a probe
    /// succeeds.
    Quarantined,
}

impl ShardStatus {
    /// The wire encoding of this status for gossip entries.
    #[must_use]
    pub fn to_wire(self) -> u8 {
        match self {
            ShardStatus::Alive => GOSSIP_ALIVE,
            ShardStatus::Suspect => GOSSIP_SUSPECT,
            ShardStatus::Quarantined => GOSSIP_QUARANTINED,
        }
    }

    /// Decodes a wire status byte (already validated by the wire layer;
    /// unknown bytes conservatively map to `Quarantined`).
    #[must_use]
    pub fn from_wire(status: u8) -> Self {
        match status {
            GOSSIP_ALIVE => ShardStatus::Alive,
            GOSSIP_SUSPECT => ShardStatus::Suspect,
            _ => ShardStatus::Quarantined,
        }
    }
}

/// One shard's health record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealth {
    /// Current classification.
    pub status: ShardStatus,
    /// Consecutive failures since the last success.
    pub consecutive_failures: u32,
    /// Observation version; higher is fresher. Bumped on every local
    /// observation, taken from the remote on merge.
    pub epoch: u64,
}

impl ShardHealth {
    fn new() -> Self {
        ShardHealth {
            status: ShardStatus::Alive,
            consecutive_failures: 0,
            epoch: 0,
        }
    }
}

/// The health table one router (or shard) keeps for every shard it knows.
#[derive(Debug, Clone)]
pub struct HealthBoard {
    policy: QuarantinePolicy,
    seed: u64,
    tick: u64,
    shards: BTreeMap<u32, ShardHealth>,
}

impl HealthBoard {
    /// A board tracking `shards`, all initially alive.
    #[must_use]
    pub fn new(policy: QuarantinePolicy, seed: u64, shards: impl IntoIterator<Item = u32>) -> Self {
        let shards = shards
            .into_iter()
            .map(|s| (s, ShardHealth::new()))
            .collect();
        HealthBoard {
            policy,
            seed,
            tick: 0,
            shards,
        }
    }

    /// The policy this board classifies with.
    #[must_use]
    pub fn policy(&self) -> QuarantinePolicy {
        self.policy
    }

    /// The health record for `shard`, if tracked.
    #[must_use]
    pub fn get(&self, shard: u32) -> Option<ShardHealth> {
        self.shards.get(&shard).copied()
    }

    /// Whether `shard` may receive new submissions (alive or suspect;
    /// quarantined shards only see probes).
    #[must_use]
    pub fn is_routable(&self, shard: u32) -> bool {
        self.shards
            .get(&shard)
            .is_some_and(|h| h.status != ShardStatus::Quarantined)
    }

    /// Shard ids currently routable, ascending.
    #[must_use]
    pub fn routable(&self) -> Vec<u32> {
        self.shards
            .iter()
            .filter(|(_, h)| h.status != ShardStatus::Quarantined)
            .map(|(&s, _)| s)
            .collect()
    }

    /// Records a successful exchange with `shard`: failures reset, the
    /// shard returns to `Alive` (lifting any quarantine).
    pub fn record_success(&mut self, shard: u32) {
        let entry = self.shards.entry(shard).or_insert_with(ShardHealth::new);
        entry.consecutive_failures = 0;
        entry.status = ShardStatus::Alive;
        entry.epoch += 1;
    }

    /// Records a failed exchange with `shard`: the failure counter
    /// advances and the status follows the policy threshold.
    pub fn record_failure(&mut self, shard: u32) {
        let threshold = self.policy.threshold;
        let entry = self.shards.entry(shard).or_insert_with(ShardHealth::new);
        entry.consecutive_failures = entry.consecutive_failures.saturating_add(1);
        entry.status = if entry.consecutive_failures >= threshold {
            ShardStatus::Quarantined
        } else {
            ShardStatus::Suspect
        };
        entry.epoch += 1;
    }

    /// Advances the heartbeat clock one tick and returns the quarantined
    /// shards whose probe is due this tick, ascending.
    ///
    /// Each shard probes every `probe_interval` ticks at a seeded phase
    /// offset, so probes stagger deterministically instead of
    /// stampeding together.
    pub fn tick(&mut self) -> Vec<u32> {
        self.tick += 1;
        if !self.policy.is_enabled() {
            return Vec::new();
        }
        let interval = self.policy.probe_interval.max(1);
        let tick = self.tick;
        let seed = self.seed;
        self.shards
            .iter()
            .filter(|(_, h)| h.status == ShardStatus::Quarantined)
            .filter(|(&s, _)| (tick + probe_phase(seed, s, interval)).is_multiple_of(interval))
            .map(|(&s, _)| s)
            .collect()
    }

    /// The current tick count.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Folds one gossiped observation in: the higher epoch wins; ties
    /// keep the local record (merge is idempotent).
    pub fn merge_remote(&mut self, entry: &GossipEntry) {
        let local = self
            .shards
            .entry(entry.shard)
            .or_insert_with(ShardHealth::new);
        if entry.epoch > local.epoch {
            local.status = ShardStatus::from_wire(entry.status);
            local.consecutive_failures = entry.failures;
            local.epoch = entry.epoch;
        }
    }

    /// This board's view as gossip entries, one per tracked shard,
    /// ascending by shard id.
    #[must_use]
    pub fn to_gossip(&self) -> Vec<GossipEntry> {
        self.shards
            .iter()
            .map(|(&shard, h)| GossipEntry {
                shard,
                status: h.status.to_wire(),
                failures: h.consecutive_failures,
                epoch: h.epoch,
            })
            .collect()
    }
}

/// A shard's deterministic phase offset within the probe interval.
fn probe_phase(seed: u64, shard: u32, interval: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.u64(seed);
    h.u64(u64::from(shard));
    h.finish() % interval
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board() -> HealthBoard {
        HealthBoard::new(
            QuarantinePolicy {
                threshold: 3,
                probe_interval: 4,
            },
            2019,
            0..3,
        )
    }

    #[test]
    fn failures_walk_alive_suspect_quarantined() {
        let mut b = board();
        assert_eq!(b.get(1).unwrap().status, ShardStatus::Alive);
        b.record_failure(1);
        assert_eq!(b.get(1).unwrap().status, ShardStatus::Suspect);
        assert!(b.is_routable(1));
        b.record_failure(1);
        assert_eq!(b.get(1).unwrap().status, ShardStatus::Suspect);
        b.record_failure(1);
        assert_eq!(b.get(1).unwrap().status, ShardStatus::Quarantined);
        assert!(!b.is_routable(1));
        assert_eq!(b.routable(), vec![0, 2]);
        b.record_success(1);
        assert_eq!(b.get(1).unwrap().status, ShardStatus::Alive);
        assert_eq!(b.get(1).unwrap().consecutive_failures, 0);
    }

    #[test]
    fn probe_schedule_is_deterministic_and_periodic() {
        let run = || {
            let mut b = board();
            for _ in 0..3 {
                b.record_failure(1);
            }
            let mut probes = Vec::new();
            for t in 1..=16u64 {
                for s in b.tick() {
                    probes.push((t, s));
                }
            }
            probes
        };
        let a = run();
        assert_eq!(a, run(), "probe schedule must replay identically");
        assert!(!a.is_empty());
        assert!(a.iter().all(|&(_, s)| s == 1), "only quarantined probe");
        // Periodic: consecutive probe ticks are one interval apart.
        let ticks: Vec<u64> = a.iter().map(|&(t, _)| t).collect();
        for pair in ticks.windows(2) {
            if let [x, y] = pair {
                assert_eq!(y - x, 4);
            }
        }
    }

    #[test]
    fn probe_phases_stagger_across_shards() {
        let policy = QuarantinePolicy {
            threshold: 1,
            probe_interval: 8,
        };
        let mut b = HealthBoard::new(policy, 2019, 0..8);
        for s in 0..8 {
            b.record_failure(s);
        }
        let mut per_tick = Vec::new();
        for _ in 1..=8u64 {
            per_tick.push(b.tick().len());
        }
        // All 8 shards probe exactly once per interval...
        assert_eq!(per_tick.iter().sum::<usize>(), 8);
        // ...and the seeded phases spread them over more than one tick.
        assert!(per_tick.iter().filter(|&&n| n > 0).count() > 1);
    }

    #[test]
    fn disabled_policy_never_probes() {
        let mut b = HealthBoard::new(QuarantinePolicy::disabled(), 7, 0..2);
        for _ in 0..100 {
            b.record_failure(0);
        }
        // u32::MAX threshold is unreachable; shard stays suspect.
        assert_eq!(b.get(0).unwrap().status, ShardStatus::Suspect);
        for _ in 0..32 {
            assert!(b.tick().is_empty());
        }
    }

    #[test]
    fn merge_keeps_the_higher_epoch() {
        let mut b = board();
        b.record_failure(2);
        let local_epoch = b.get(2).unwrap().epoch;
        // A stale remote entry loses...
        b.merge_remote(&GossipEntry {
            shard: 2,
            status: GOSSIP_ALIVE,
            failures: 0,
            epoch: 0,
        });
        assert_eq!(b.get(2).unwrap().status, ShardStatus::Suspect);
        // ...a fresher one wins...
        let fresh = GossipEntry {
            shard: 2,
            status: GOSSIP_QUARANTINED,
            failures: 9,
            epoch: local_epoch + 5,
        };
        b.merge_remote(&fresh);
        assert_eq!(b.get(2).unwrap().status, ShardStatus::Quarantined);
        assert_eq!(b.get(2).unwrap().epoch, local_epoch + 5);
        // ...and merging is idempotent.
        let snapshot = b.get(2).unwrap();
        b.merge_remote(&fresh);
        assert_eq!(b.get(2).unwrap(), snapshot);
    }

    #[test]
    fn merge_learns_previously_unknown_shards() {
        let mut b = board();
        b.merge_remote(&GossipEntry {
            shard: 7,
            status: GOSSIP_SUSPECT,
            failures: 1,
            epoch: 3,
        });
        assert_eq!(b.get(7).unwrap().status, ShardStatus::Suspect);
        assert!(b.to_gossip().iter().any(|e| e.shard == 7));
    }

    #[test]
    fn gossip_round_trips_through_wire_entries() {
        let mut a = board();
        a.record_failure(0);
        a.record_failure(0);
        a.record_success(2);
        let mut b = board();
        for e in a.to_gossip() {
            b.merge_remote(&e);
        }
        assert_eq!(a.to_gossip(), b.to_gossip());
    }
}
