//! The cluster serving tier: event loop, client link, consistent-hash
//! router, and per-shard health.
//!
//! The paper's closing argument is that post-CMOS accelerators will be
//! reached *as services* long before they are linked as libraries — which
//! means the serving layer in front of them has to scale past one host.
//! This crate supplies the pieces of that tier, all `std`-only and fully
//! offline:
//!
//! * [`poll`] — a readiness-driven event loop over non-blocking TCP (an
//!   own miniature mio over `poll(2)`: tokens, an event queue, a
//!   cross-thread waker).
//! * [`link`] — [`Link`], the one client connection type: connect plus
//!   handshake under a timeout, whole-frame non-blocking sends, and
//!   replies reassembled in a [`wire::FrameBuffer`]. `server::Client` is
//!   a `Link`, and so is each of the router's shard connections.
//! * [`router`] — a front-end that shards submissions across N runtime
//!   shards by [`admission::CanonicalKey`] on a consistent-hash
//!   [`ring::HashRing`], so duplicate submissions of one canonical kernel
//!   land on the same shard's result cache. Unkeyed and `DeadlineAware`
//!   jobs round-robin instead. Each shard link keeps a bounded in-flight
//!   window and surfaces `Busy` instead of queueing unboundedly.
//! * [`health`] — per-shard alive/suspect/quarantined state driven by
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

pub mod health;
pub mod link;
pub mod poll;
pub mod ring;
pub mod router;

pub use health::{HealthBoard, ShardHealth, ShardStatus};
pub use link::Link;
pub use poll::{Event, Poll, Token, Waker};
pub use ring::HashRing;
pub use router::{ClusterStats, Router, RouterConfig, RouterError};
