//! Per-shard health: alive / suspect / quarantined, with deterministic
//! probe scheduling.
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
//! replayed chaos run probes on exactly the same ticks.
//!
//! Each router keeps its own board and learns only from its own links,
//! probes and quarantine; routers exchange no health state.

use accel::host::QuarantinePolicy;
use numerics::hash::Fnv1a;
use std::collections::BTreeMap;

/// A shard's health classification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShardStatus {
    /// Serving normally.
    #[default]
    Alive,
    /// Some consecutive failures, but fewer than the quarantine
    /// threshold; still routable.
    Suspect,
    /// At or past the threshold: taken out of routing until a probe
    /// succeeds.
    Quarantined,
}

/// One shard's health record; the default is alive with no failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardHealth {
    /// Current classification.
    pub status: ShardStatus,
    /// Consecutive failures since the last success.
    pub consecutive_failures: u32,
}

/// The health table one router keeps for every shard it knows.
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
    pub(crate) fn new(
        policy: QuarantinePolicy,
        seed: u64,
        shards: impl IntoIterator<Item = u32>,
    ) -> Self {
        let shards = shards.into_iter().map(|s| (s, ShardHealth::default()));
        HealthBoard {
            policy,
            seed,
            tick: 0,
            shards: shards.collect(),
        }
    }

    /// The health record for `shard`, if tracked.
    #[must_use]
    pub fn get(&self, shard: u32) -> Option<ShardHealth> {
        self.shards.get(&shard).copied()
    }

    /// Whether `shard` may receive new submissions (alive or suspect;
    /// quarantined shards only see probes).
    #[must_use]
    pub(crate) fn is_routable(&self, shard: u32) -> bool {
        self.shards
            .get(&shard)
            .is_some_and(|h| h.status != ShardStatus::Quarantined)
    }

    /// Records a successful exchange with `shard`: failures reset, the
    /// shard returns to `Alive` (lifting any quarantine).
    pub(crate) fn record_success(&mut self, shard: u32) {
        self.shards.insert(shard, ShardHealth::default());
    }

    /// Records a failed exchange with `shard`: the failure counter
    /// advances and the status follows the policy threshold.
    pub(crate) fn record_failure(&mut self, shard: u32) {
        let threshold = self.policy.threshold;
        let entry = self.shards.entry(shard).or_default();
        entry.consecutive_failures = entry.consecutive_failures.saturating_add(1);
        entry.status = if entry.consecutive_failures >= threshold {
            ShardStatus::Quarantined
        } else {
            ShardStatus::Suspect
        };
    }

    /// Advances the heartbeat clock one tick and returns the quarantined
    /// shards whose probe is due this tick, ascending.
    ///
    /// Each shard probes every `probe_interval` ticks at a seeded phase
    /// offset, so probes stagger deterministically instead of
    /// stampeding together.
    pub(crate) fn tick(&mut self) -> Vec<u32> {
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
        assert!(b.is_routable(0) && b.is_routable(2));
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
}
