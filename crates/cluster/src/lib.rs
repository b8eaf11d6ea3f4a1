//! The cluster serving tier: consistent-hash router and per-shard health,
//! in front of N single-node [`server::Server`]s.
//!
//! The paper's closing argument is that post-CMOS accelerators will be
//! reached *as services* long before they are linked as libraries — which
//! means the serving layer in front of them has to scale past one host.
//! This crate supplies the pieces of that tier, all `std`-only and fully
//! offline:
//!
//! * `router` — a front-end that shards submissions across N runtime
//!   shards by [`admission::CanonicalKey`] on a consistent-hash
//!   [`ring::HashRing`], so duplicate submissions of one canonical kernel
//!   land on the same shard's result cache. Unkeyed and `DeadlineAware`
//!   jobs round-robin instead. Each shard connection is a
//!   [`server::link::Link`], the connection type [`server::Client`] wraps
//!   too, and keeps a bounded in-flight window that surfaces `Busy`
//!   instead of queueing unboundedly.
//! * `health` — per-shard alive/suspect/quarantined state driven by
//!   seeded-deterministic heartbeat ticks and consecutive-failure
//!   counters (the same [`accel::host::QuarantinePolicy`] math the
//!   in-process planner uses). Each router learns it from its own links,
//!   probes and quarantine; routers share no health state.
//!
//! # Determinism contract
//!
//! The cluster tier routes and retries; it never computes. A job's result
//! bytes remain a pure function of (canonical kernel, explicit seed,
//! policy) no matter which shard executes it, so re-routing after a shard
//! death cannot change outcomes — only placement. Everything that *is*
//! cluster-local state (health transitions, probe schedules, reconnect
//! jitter) derives from explicit seeds, so a chaos run replays exactly.

mod health;
mod ring;
mod router;

pub use health::{HealthBoard, ShardHealth, ShardStatus};
pub use ring::HashRing;
pub use router::{ClusterStats, Router, RouterConfig, RouterError};
