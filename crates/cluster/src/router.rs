//! The cluster front-end: consistent-hash routing of submissions across
//! runtime shards, with bounded in-flight windows, failure re-routing,
//! and per-shard health.
//!
//! A [`Router`] owns one non-blocking [`Link`] per shard (a running
//! [`server::Server`] over the wire protocol). Submissions are canonical-
//! key sharded: the kernel's [`admission::routing_hash`] (canonicalize,
//! then key, then mix — so every syntactic variant hashes alike) picks
//! the shard on a [`crate::HashRing`], so duplicate submissions of
//! one canonical kernel keep hitting the same shard's result cache and
//! the cluster-wide hit rate survives sharding. Two classes round-robin
//! instead:
//!
//! * submissions without an explicit seed — their results depend on the
//!   executing runtime's master seed, so cache identity is not portable
//!   and placement may as well balance load;
//! * `DeadlineAware` submissions — latency-critical by declaration, they
//!   go wherever the shortest queue is rather than wherever their key
//!   lives.
//!
//! # Tickets and demux
//!
//! Every submission gets a router-wide unique ticket that is *also* the
//! wire `request_id` on whichever shard executes it — so responses demux
//! by ticket alone, and a job re-routed after a shard death keeps its
//! ticket. Per-shard in-flight windows are bounded; a submission that
//! finds its shard's window full (after one drain attempt) fails fast
//! with [`RouterError::Busy`] instead of queueing unboundedly.
//!
//! # Failure handling
//!
//! A dead link marks the shard failed in the [`crate::HealthBoard`]
//! (consecutive failures walk it alive → suspect → quarantined, exactly
//! the planner's backend-quarantine math) and every in-flight ticket on
//! it re-routes to the next live shard on the ring. Determinism holds
//! through the move: results are pure functions of (canonical kernel,
//! explicit seed, policy), so re-execution elsewhere returns the same
//! bytes. Quarantined shards are probed on seeded heartbeat ticks and
//! rejoin routing when a reconnect succeeds.

use crate::health::HealthBoard;
use crate::ring::HashRing;
use accel::host::{DispatchPolicy, QuarantinePolicy};
use accel::kernel::Kernel;
use admission::routing_hash;
use runtime::{JobOptions, RuntimeStats};
use server::link::{Link, SEND_TIMEOUT};
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use wire::{ErrorCode, Request, Response, WireError, WireOutcome};

/// One pump slice while blocking in [`Router::wait`].
const PUMP_SLICE: Duration = Duration::from_millis(20);

/// Router configuration.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Max in-flight submissions per shard before [`RouterError::Busy`].
    pub window: usize,
    /// Shard quarantine math (threshold of consecutive failures, probe
    /// cadence in heartbeat ticks) — the planner's
    /// [`QuarantinePolicy`] one level up.
    pub quarantine: QuarantinePolicy,
    /// Seed for the deterministic probe phases.
    pub seed: u64,
    /// Default timeout for [`Router::wait`].
    pub wait_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            window: 64,
            quarantine: QuarantinePolicy {
                threshold: 2,
                probe_interval: 4,
            },
            seed: 0,
            wait_timeout: Duration::from_secs(60),
        }
    }
}

/// Why a router call failed.
#[derive(Debug)]
pub enum RouterError {
    /// A transport failure talking to a shard.
    Io(io::Error),
    /// A codec failure.
    Wire(WireError),
    /// A shard handshake was rejected.
    Handshake(String),
    /// No shard is currently connected and routable.
    NoLiveShards,
    /// The target shard's in-flight window is full; retry after draining.
    Busy,
    /// A shard rejected this specific request.
    Rejected {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The ticket is not in flight (never issued, or already redeemed).
    UnknownTicket(u64),
    /// [`Router::wait`] hit its deadline before the result arrived.
    WaitTimeout(u64),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Io(e) => write!(f, "router i/o error: {e}"),
            RouterError::Wire(e) => write!(f, "router wire error: {e}"),
            RouterError::Handshake(msg) => write!(f, "shard handshake failed: {msg}"),
            RouterError::NoLiveShards => write!(f, "no live shards"),
            RouterError::Busy => write!(f, "shard in-flight window full"),
            RouterError::Rejected { code, message } => {
                write!(f, "shard rejected request ({code}): {message}")
            }
            RouterError::UnknownTicket(t) => write!(f, "unknown ticket {t}"),
            RouterError::WaitTimeout(t) => write!(f, "timed out waiting on ticket {t}"),
        }
    }
}

impl std::error::Error for RouterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouterError::Io(e) => Some(e),
            RouterError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RouterError {
    fn from(e: io::Error) -> Self {
        RouterError::Io(e)
    }
}

impl From<WireError> for RouterError {
    fn from(e: WireError) -> Self {
        RouterError::Wire(e)
    }
}

/// A cluster-wide stats snapshot: each shard's own counters plus the
/// merged view ([`RuntimeStats::absorb`] across shards).
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// `(shard id, that shard's snapshot)`, ascending by shard.
    pub per_shard: Vec<(u32, RuntimeStats)>,
    /// All shards folded together.
    pub merged: RuntimeStats,
}

/// One in-flight submission (kept so a shard death can replay it).
#[derive(Debug, Clone)]
struct Pending {
    shard: u32,
    kernel: Kernel,
    options: JobOptions,
}

/// The cluster router. Single-threaded by design: every method takes
/// `&mut self`, so there are no locks to order and no poisoning to
/// recover — callers wanting concurrency put a router behind their own
/// mutex or run one per thread.
#[derive(Debug)]
pub struct Router {
    addrs: Vec<SocketAddr>,
    links: BTreeMap<u32, Link>,
    ring: HashRing,
    health: HealthBoard,
    window: usize,
    wait_timeout: Duration,
    next_ticket: u64,
    rr: u64,
    inflight: BTreeMap<u64, Pending>,
    shard_inflight: BTreeMap<u32, usize>,
    /// Replies not yet claimed, by ticket: a settled job's `JobResult` or
    /// `Error` (synthesized when a re-route finds no live shard), and the
    /// answers to `Cancel` and `GetStats`.
    replies: BTreeMap<u64, Response>,
    /// Tickets re-routed after shard deaths (a router-side counter, the
    /// cluster analogue of the runtime's `reroutes`).
    reroutes: u64,
}

impl Router {
    /// Connects to every shard and performs the handshakes. Shard `i` in
    /// `addrs` becomes shard id `i` on the ring. Fails if *no* shard is
    /// reachable; individual unreachable shards start out quarantined.
    pub fn connect(addrs: &[SocketAddr], config: RouterConfig) -> Result<Self, RouterError> {
        if addrs.is_empty() {
            return Err(RouterError::NoLiveShards);
        }
        let shard_ids: Vec<u32> = (0..addrs.len() as u32).collect();
        let mut ring = HashRing::new();
        for &s in &shard_ids {
            ring.add_shard(s);
        }
        let mut health = HealthBoard::new(config.quarantine, config.seed, shard_ids.clone());
        let mut links = BTreeMap::new();
        for (&shard, &addr) in shard_ids.iter().zip(addrs) {
            match Link::connect(addr) {
                Ok(link) => {
                    links.insert(shard, link);
                }
                Err(_) => {
                    // Walk straight to quarantine: the shard was dead on
                    // arrival, probes will pick it up if it comes back.
                    for _ in 0..config.quarantine.threshold.max(1) {
                        health.record_failure(shard);
                    }
                }
            }
        }
        if links.is_empty() {
            return Err(RouterError::NoLiveShards);
        }
        Ok(Router {
            addrs: addrs.to_vec(),
            links,
            ring,
            health,
            window: config.window.max(1),
            wait_timeout: config.wait_timeout,
            next_ticket: 1, // ticket 0 is the wire's connection-error id
            rr: 0,
            inflight: BTreeMap::new(),
            shard_inflight: BTreeMap::new(),
            replies: BTreeMap::new(),
            reroutes: 0,
        })
    }

    /// The health board (read-only view for callers and tests).
    #[must_use]
    pub fn health(&self) -> &HealthBoard {
        &self.health
    }

    /// Shards currently connected, ascending.
    #[must_use]
    pub fn connected(&self) -> Vec<u32> {
        self.links.keys().copied().collect()
    }

    /// How many tickets are re-routed so far after shard deaths.
    #[must_use]
    pub fn reroutes(&self) -> u64 {
        self.reroutes
    }

    /// Where a submission would go right now, without sending anything.
    /// `None` when no shard is connected and routable.
    #[must_use]
    pub fn route_for(&self, kernel: &Kernel, options: &JobOptions) -> Option<u32> {
        let keyed = options.seed.is_some() && options.policy != Some(DispatchPolicy::DeadlineAware);
        if keyed {
            let hash = routing_hash(kernel);
            self.ring.route_filtered(hash, |s| self.is_dispatchable(s))
        } else {
            // Round-robin preview: the shard the next unkeyed submission
            // would take (submit advances the cursor).
            let candidates = self.dispatchable();
            let n = candidates.len() as u64;
            if n == 0 {
                return None;
            }
            candidates.get((self.rr % n) as usize).copied()
        }
    }

    /// Submits a kernel; returns its ticket. The shard choice is
    /// canonical-key consistent hashing (see the module docs), the window
    /// bound is enforced with one drain attempt before [`RouterError::Busy`].
    pub fn submit(&mut self, kernel: Kernel, options: JobOptions) -> Result<u64, RouterError> {
        let shard = self
            .route_for(&kernel, &options)
            .ok_or(RouterError::NoLiveShards)?;
        if self.shard_load(shard) >= self.window {
            self.pump_shard(shard, Duration::ZERO);
            if self.shard_load(shard) >= self.window {
                return Err(RouterError::Busy);
            }
        }
        self.dispatch(shard, kernel, options)
    }

    /// Like [`Router::submit`], but pumps the target shard until its
    /// window has room instead of failing with `Busy`.
    pub fn submit_blocking(
        &mut self,
        kernel: Kernel,
        options: JobOptions,
    ) -> Result<u64, RouterError> {
        loop {
            match self.submit(kernel.clone(), options) {
                Err(RouterError::Busy) => {
                    let shard = self
                        .route_for(&kernel, &options)
                        .ok_or(RouterError::NoLiveShards)?;
                    self.pump_shard(shard, PUMP_SLICE);
                }
                other => return other,
            }
        }
    }

    /// Blocks until `ticket`'s outcome arrives (or the configured wait
    /// timeout passes), pumping the owning shard and re-routing through
    /// any shard deaths along the way.
    pub fn wait(&mut self, ticket: u64) -> Result<WireOutcome, RouterError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "wait-deadline accounting; never feeds a result"
        )]
        let start = Instant::now();
        loop {
            match self.replies.remove(&ticket) {
                Some(Response::JobResult { outcome, .. }) => return Ok(outcome),
                Some(Response::Error { code, message, .. }) => {
                    return Err(RouterError::Rejected { code, message })
                }
                // Nothing yet, or a timed-out cancel's late answer.
                _ => {}
            }
            let shard = match self.inflight.get(&ticket) {
                Some(p) => p.shard,
                None => return Err(RouterError::UnknownTicket(ticket)),
            };
            if start.elapsed() >= self.wait_timeout {
                return Err(RouterError::WaitTimeout(ticket));
            }
            self.pump_shard(shard, PUMP_SLICE);
        }
    }

    /// One heartbeat: advances the health clock and probes quarantined
    /// shards whose deterministic phase is due (a probe is a reconnect
    /// plus handshake; success lifts the quarantine).
    ///
    /// Shards that lost their link without reaching the quarantine
    /// threshold are probed every tick: they are still nominally
    /// routable, so the sooner the link is back the better.
    pub fn heartbeat(&mut self) {
        let mut due = self.health.tick();
        for shard in 0..self.addrs.len() as u32 {
            if !self.links.contains_key(&shard)
                && self.health.is_routable(shard)
                && !due.contains(&shard)
            {
                due.push(shard);
            }
        }
        for shard in due {
            let Some(&addr) = self.addrs.get(shard as usize) else {
                continue;
            };
            match Link::connect(addr) {
                Ok(link) => {
                    self.links.insert(shard, link);
                    self.health.record_success(shard);
                }
                Err(_) => self.health.record_failure(shard),
            }
        }
    }

    /// Fetches every connected shard's stats and the merged cluster view.
    pub fn stats(&mut self) -> Result<ClusterStats, RouterError> {
        let shards: Vec<u32> = self.links.keys().copied().collect();
        let mut per_shard = Vec::new();
        let mut merged = RuntimeStats::default();
        for shard in shards {
            let reply = self.ask(shard, |request_id| Request::GetStats { request_id });
            if let Some(Response::Stats { stats, .. }) = reply {
                merged.absorb(&stats);
                per_shard.push((shard, stats));
            }
        }
        Ok(ClusterStats { per_shard, merged })
    }

    // ---- internals ------------------------------------------------------

    fn alloc_ticket(&mut self) -> u64 {
        let t = self.next_ticket;
        self.next_ticket += 1;
        t
    }

    /// Connected and not quarantined.
    fn is_dispatchable(&self, shard: u32) -> bool {
        self.links.contains_key(&shard) && self.health.is_routable(shard)
    }

    fn dispatchable(&self) -> Vec<u32> {
        self.links
            .keys()
            .copied()
            .filter(|&s| self.health.is_routable(s))
            .collect()
    }

    fn shard_load(&self, shard: u32) -> usize {
        self.shard_inflight.get(&shard).copied().unwrap_or(0)
    }

    fn dispatch(
        &mut self,
        shard: u32,
        kernel: Kernel,
        options: JobOptions,
    ) -> Result<u64, RouterError> {
        let ticket = self.alloc_ticket();
        self.inflight.insert(
            ticket,
            Pending {
                shard,
                kernel: kernel.clone(),
                options,
            },
        );
        *self.shard_inflight.entry(shard).or_insert(0) += 1;
        self.rr += 1;
        let request = submit_request(ticket, &kernel, options);
        // A failed send has already torn the shard down and re-routed its
        // tickets: this one is either live on another shard or, with no
        // live shard left, holds a stashed failure. Both surface through
        // the normal wait path, so the ticket is returned regardless.
        let _ = self.send_to(shard, &request);
        Ok(ticket)
    }

    /// Sends on a shard's link; a dead link triggers the shard-down path
    /// (health demotion plus re-route of its in-flight tickets).
    fn send_to(&mut self, shard: u32, request: &Request) -> Result<(), RouterError> {
        let Some(link) = self.links.get_mut(&shard) else {
            return Err(RouterError::NoLiveShards);
        };
        link.send(request).map_err(|e| {
            self.on_shard_down(shard);
            RouterError::Wire(e)
        })
    }

    /// Sends `shard` the request `build` makes for a fresh ticket and
    /// takes its reply, if one comes within [`SEND_TIMEOUT`].
    fn ask(&mut self, shard: u32, build: impl FnOnce(u64) -> Request) -> Option<Response> {
        let ticket = self.alloc_ticket();
        self.send_to(shard, &build(ticket)).ok()?;
        self.await_reply(shard, ticket, SEND_TIMEOUT);
        self.replies.remove(&ticket)
    }

    /// Pumps `shard` until a reply to `ticket` is stored, the shard's
    /// link drops, or `timeout` passes; `true` when the reply is there.
    fn await_reply(&mut self, shard: u32, ticket: u64, timeout: Duration) -> bool {
        #[expect(
            clippy::disallowed_methods,
            reason = "reply-wait deadline; never feeds a result"
        )]
        let start = Instant::now();
        while !self.replies.contains_key(&ticket) {
            if start.elapsed() >= timeout || !self.links.contains_key(&shard) {
                return false;
            }
            self.pump_shard(shard, PUMP_SLICE);
        }
        true
    }

    /// Handles every response `shard` has ready, first waiting up to
    /// `wait` for one when none is.
    fn pump_shard(&mut self, shard: u32, wait: Duration) {
        let mut wait = Some(wait);
        while let Some(link) = self.links.get_mut(&shard) {
            let step = match wait.take() {
                Some(wait) => link.recv(Some(wait)),
                None => link.try_recv(),
            };
            match step {
                Ok(Some(response)) => self.handle_response(shard, response),
                Ok(None) => return,
                Err(_) => return self.on_shard_down(shard),
            }
        }
    }

    fn handle_response(&mut self, shard: u32, response: Response) {
        match response {
            Response::JobResult { request_id, .. } => {
                if let Some(pending) = self.inflight.remove(&request_id) {
                    self.dec_load(pending.shard);
                    self.health.record_success(shard);
                    self.replies.insert(request_id, response);
                }
            }
            // Connection-level error: the shard is telling us the link is
            // done (shutting down, malformed stream).
            Response::Error { request_id: 0, .. } => self.on_shard_down(shard),
            Response::Error {
                request_id,
                code: ErrorCode::ShuttingDown,
                ..
            } if self.inflight.contains_key(&request_id) => {
                // The shard is draining and refused the submission; it
                // will refuse everything else too. Tear it down so the
                // re-route replays this ticket (and its siblings) on a
                // live shard — a draining shard is not a job failure.
                self.on_shard_down(shard);
            }
            Response::Error { request_id, .. } => {
                if let Some(pending) = self.inflight.remove(&request_id) {
                    self.dec_load(pending.shard);
                    self.replies.insert(request_id, response);
                }
            }
            Response::Stats { request_id, .. } => {
                self.replies.insert(request_id, response);
            }
            // The router sends no cancels, so a `CancelResult` is noise.
            Response::Pong { .. } | Response::HelloAck { .. } | Response::CancelResult { .. } => {}
        }
    }

    fn dec_load(&mut self, shard: u32) {
        if let Some(load) = self.shard_inflight.get_mut(&shard) {
            *load = load.saturating_sub(1);
        }
    }

    /// Tears down a dead shard: drop the link, demote its health, and
    /// replay every in-flight ticket it carried onto the next live shard
    /// on the ring (same tickets, so callers' waits keep working).
    fn on_shard_down(&mut self, shard: u32) {
        self.links.remove(&shard);
        self.health.record_failure(shard);
        self.shard_inflight.insert(shard, 0);
        let mut orphans: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, p)| p.shard == shard)
            .map(|(&t, _)| t)
            .collect();
        while let Some(ticket) = orphans.pop() {
            let Some(pending) = self.inflight.get(&ticket).cloned() else {
                continue;
            };
            let target = self.failover_target(&pending);
            let Some(target) = target else {
                self.inflight.remove(&ticket);
                self.replies.insert(
                    ticket,
                    Response::Error {
                        request_id: ticket,
                        code: ErrorCode::Internal,
                        message: "no live shards to re-route the job to".to_owned(),
                    },
                );
                continue;
            };
            if let Some(p) = self.inflight.get_mut(&ticket) {
                p.shard = target;
            }
            *self.shard_inflight.entry(target).or_insert(0) += 1;
            self.reroutes += 1;
            let request = submit_request(ticket, &pending.kernel, pending.options);
            let sent = self
                .links
                .get_mut(&target)
                .is_some_and(|link| link.send(&request).is_ok());
            if !sent {
                // The failover target died too: demote it and sweep its
                // tickets (including this one) into the worklist.
                self.links.remove(&target);
                self.health.record_failure(target);
                self.shard_inflight.insert(target, 0);
                for (&t, p) in &self.inflight {
                    if p.shard == target && !orphans.contains(&t) {
                        orphans.push(t);
                    }
                }
            }
        }
    }

    /// The next shard for a replayed ticket: keyed jobs walk the ring
    /// past dead shards, unkeyed jobs take the least-loaded live shard.
    fn failover_target(&self, pending: &Pending) -> Option<u32> {
        let keyed = pending.options.seed.is_some()
            && pending.options.policy != Some(DispatchPolicy::DeadlineAware);
        if keyed {
            let hash = routing_hash(&pending.kernel);
            self.ring.route_filtered(hash, |s| self.is_dispatchable(s))
        } else {
            self.dispatchable()
                .into_iter()
                .min_by_key(|&s| self.shard_load(s))
        }
    }
}

/// Builds the wire `Submit` for a ticket (used for both first dispatch
/// and failover replays — identical bytes either way, which is what
/// keeps re-routed results identical too).
fn submit_request(ticket: u64, kernel: &Kernel, options: JobOptions) -> Request {
    Request::Submit {
        request_id: ticket,
        timeout_ms: options
            .timeout
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
        seed: options.seed,
        policy: options.policy,
        kernel: kernel.clone(),
    }
}
