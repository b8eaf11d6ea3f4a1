//! A blocking client with ticket-based pipelining.
//!
//! [`Client::submit`] writes the request and returns a ticket without
//! waiting; [`Client::wait`] reads frames until that ticket's result
//! arrives, stashing any other replies it sees along the way. Many
//! submissions can therefore be in flight on one connection, and results
//! may arrive in any order. The connection itself is a [`Link`],
//! the same type the cluster router holds per shard.

use crate::link::Link;
use accel::host::{DispatchPolicy, RetryPolicy};
use accel::kernel::Kernel;
use numerics::hash::Fnv1a;
use numerics::rng::{Rng, StdRng};
use runtime::RuntimeStats;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;
use wire::{ErrorCode, HandshakeError, Request, Response, WireError, WireOutcome};

/// Reconnect schedule: capped exponential backoff between attempts.
/// Combined with per-client jitter, a fleet of routers reconnecting to a
/// recovered shard spreads out instead of arriving as a thundering herd.
const RECONNECT_POLICY: RetryPolicy = RetryPolicy {
    max_retries: 4,
    base_backoff: Duration::from_millis(10),
    max_backoff: Duration::from_millis(320),
};

/// Per-submission knobs, mirroring [`runtime::JobOptions`] across the
/// wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Queue deadline in milliseconds; `None` uses the server default.
    pub timeout_ms: Option<u64>,
    /// Explicit backend seed; `None` derives one from the job id.
    pub seed: Option<u64>,
    /// Per-job dispatch-policy override.
    pub policy: Option<DispatchPolicy>,
}

impl SubmitOptions {
    /// Options carrying an explicit backend seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        SubmitOptions {
            seed: Some(seed),
            ..SubmitOptions::default()
        }
    }

    /// Returns a copy with the policy override set.
    #[must_use]
    pub fn policy(mut self, policy: DispatchPolicy) -> Self {
        self.policy = Some(policy);
        self
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// A transport or codec failure.
    Wire(WireError),
    /// The server turned the connection away at its connection limit.
    Busy(String),
    /// The peer does not speak [`wire::PROTOCOL_VERSION`]: it refused our `Hello`
    /// or acknowledged some other version.
    VersionRejected(String),
    /// The server rejected one specific request.
    Rejected {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server reported a connection-level error; the connection is
    /// unusable.
    Connection {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server said something the protocol state machine does not
    /// allow here.
    UnexpectedResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Busy(msg) => write!(f, "server busy: {msg}"),
            ClientError::VersionRejected(msg) => write!(f, "version rejected: {msg}"),
            ClientError::Rejected { code, message } => {
                write!(f, "request rejected ({code}): {message}")
            }
            ClientError::Connection { code, message } => {
                write!(f, "connection error ({code}): {message}")
            }
            ClientError::UnexpectedResponse(msg) => write!(f, "unexpected response: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

impl ClientError {
    /// Whether this error means the connection itself died (EOF, reset,
    /// broken pipe) — the signal that [`Client::reconnect`] is worth
    /// trying, as opposed to a protocol-level rejection that a fresh
    /// connection would only repeat.
    #[must_use]
    pub fn is_disconnect(&self) -> bool {
        matches!(self, ClientError::Wire(e) if e.is_disconnect())
    }
}

/// A blocking connection to a [`crate::Server`]. See the [crate
/// docs](crate) for the pipelining model.
pub struct Client {
    link: Link,
    /// The peer address from connect time, kept so [`Client::reconnect`]
    /// can redo the handshake after a mid-stream disconnect.
    peer: SocketAddr,
    next_id: u64,
    /// Seeded jitter source for reconnect backoff: derived from the
    /// connection's port pair, so delays are reproducible for a given
    /// socket assignment yet distinct across concurrent clients.
    jitter: StdRng,
    /// Replies read while awaiting another, by request id.
    unclaimed: HashMap<u64, Response>,
}

impl Client {
    /// Connects and performs the version handshake, trying each address
    /// `addr` resolves to until one answers. Connect and handshake are
    /// bounded by [`crate::link::CONNECT_TIMEOUT`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Busy`] when turned away at the connection limit,
    /// [`ClientError::VersionRejected`] when the peer does not speak
    /// [`wire::PROTOCOL_VERSION`], or a transport error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        let mut last = io::Error::new(io::ErrorKind::InvalidInput, "no address").into();
        for peer in addr.to_socket_addrs()? {
            match Link::connect(peer) {
                Ok(link) => {
                    let jitter = StdRng::seed_from_u64(jitter_seed(&link, peer));
                    return Ok(Client {
                        link,
                        peer,
                        next_id: 1, // id 0 is reserved for connection-level errors
                        jitter,
                        unclaimed: HashMap::new(),
                    });
                }
                // The peer answered: another address would not help.
                Err(refused @ HandshakeError::Refused(_)) => return Err(refusal(refused)),
                Err(e) => last = refusal(e),
            }
        }
        Err(last)
    }

    /// Drops the current connection and performs a fresh connect plus
    /// handshake against the same peer, retrying with capped exponential
    /// backoff and seeded jitter when the peer is not (yet) reachable.
    ///
    /// In-flight tickets do not survive: the server binds jobs to their
    /// connection, so every unclaimed reply is dropped and unredeemed
    /// tickets are gone. Ticket numbering continues from where it was,
    /// keeping old and new tickets distinguishable.
    ///
    /// # Errors
    ///
    /// Same as [`Client::connect`], after the retry budget is spent. A
    /// version rejection returns immediately — a fresh connection would
    /// only repeat it.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        self.unclaimed.clear();
        let mut attempt = 0u32;
        loop {
            match Link::connect(self.peer).map_err(refusal) {
                Ok(link) => {
                    self.link = link;
                    return Ok(());
                }
                Err(e @ ClientError::VersionRejected(_)) => return Err(e),
                Err(e) => {
                    if attempt >= RECONNECT_POLICY.max_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    let base = RECONNECT_POLICY.backoff(attempt);
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "reconnect backoff in the blocking client, which no server loop calls"
                    )]
                    std::thread::sleep(jittered(base, &mut self.jitter));
                }
            }
        }
    }

    /// Submits a kernel and returns its ticket immediately (pipelined);
    /// redeem it with [`Client::wait`].
    ///
    /// # Errors
    ///
    /// Transport errors — server-side rejection surfaces at `wait`.
    pub fn submit(&mut self, kernel: Kernel, options: SubmitOptions) -> Result<u64, ClientError> {
        let ticket = self.next_ticket();
        self.link.send(&Request::Submit {
            request_id: ticket,
            timeout_ms: options.timeout_ms,
            seed: options.seed,
            policy: options.policy,
            kernel,
        })?;
        Ok(ticket)
    }

    /// Blocks until the given ticket's job reaches a terminal outcome.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] if the server refused this submission,
    /// [`ClientError::Connection`] for connection-level failures, or a
    /// transport error.
    pub fn wait(&mut self, ticket: u64) -> Result<WireOutcome, ClientError> {
        match self.reply(ticket)? {
            Response::JobResult { outcome, .. } => Ok(outcome),
            other => Err(unexpected(&other, ticket)),
        }
    }

    /// Submit-and-wait convenience for unpipelined callers.
    ///
    /// # Errors
    ///
    /// Union of [`Client::submit`] and [`Client::wait`].
    pub fn run(
        &mut self,
        kernel: Kernel,
        options: SubmitOptions,
    ) -> Result<WireOutcome, ClientError> {
        let ticket = self.submit(kernel, options)?;
        self.wait(ticket)
    }

    /// Asks the server to cancel an in-flight ticket; `true` means the
    /// cancellation landed before the job finished.
    ///
    /// # Errors
    ///
    /// Transport or connection-level errors.
    pub fn cancel(&mut self, ticket: u64) -> Result<bool, ClientError> {
        self.link.send(&Request::Cancel { request_id: ticket })?;
        // The job's own result shares the ticket, so the answer is taken
        // off the link rather than out of `unclaimed`.
        match self.await_reply(
            |r| matches!(r, Response::CancelResult { request_id, .. } if *request_id == ticket),
        )? {
            Response::CancelResult { cancelled, .. } => Ok(cancelled),
            other => Err(unexpected(&other, ticket)),
        }
    }

    /// Round-trips a liveness probe.
    ///
    /// # Errors
    ///
    /// Transport or connection-level errors.
    pub fn ping(&mut self, token: u64) -> Result<(), ClientError> {
        self.link.send(&Request::Ping { token })?;
        self.await_reply(|r| matches!(r, Response::Pong { token: t } if *t == token))?;
        Ok(())
    }

    /// Fetches a [`RuntimeStats`] snapshot from the server.
    ///
    /// # Errors
    ///
    /// Transport or connection-level errors.
    pub fn stats(&mut self) -> Result<RuntimeStats, ClientError> {
        let ticket = self.next_ticket();
        self.link.send(&Request::GetStats { request_id: ticket })?;
        match self.reply(ticket)? {
            Response::Stats { stats, .. } => Ok(stats),
            other => Err(unexpected(&other, ticket)),
        }
    }

    fn next_ticket(&mut self) -> u64 {
        let ticket = self.next_id;
        self.next_id += 1;
        ticket
    }

    /// The reply to `ticket`, unclaimed or off the link; an `Error` reply
    /// is the server rejecting the request.
    fn reply(&mut self, ticket: u64) -> Result<Response, ClientError> {
        let reply = match self.unclaimed.remove(&ticket) {
            Some(reply) => reply,
            None => self.await_reply(|r| request_id(r) == Some(ticket))?,
        };
        match reply {
            Response::Error { code, message, .. } => Err(ClientError::Rejected { code, message }),
            reply => Ok(reply),
        }
    }

    /// Reads responses until `wanted` accepts one, keeping every other
    /// reply in `unclaimed` by its request id.
    fn await_reply(&mut self, wanted: impl Fn(&Response) -> bool) -> Result<Response, ClientError> {
        loop {
            let Some(response) = self.link.recv(None)? else {
                continue;
            };
            match response {
                Response::Error {
                    request_id: 0,
                    code,
                    message,
                } => return Err(ClientError::Connection { code, message }),
                // A second ack.
                response @ Response::HelloAck { .. } => {
                    return Err(ClientError::UnexpectedResponse(format!(
                        "unsolicited {response:?}"
                    )))
                }
                response if wanted(&response) => return Ok(response),
                response => {
                    // Only a ping abandoned mid-wait leaves a pong with no
                    // request id; nobody will ask for it.
                    if let Some(id) = request_id(&response) {
                        self.unclaimed.insert(id, response);
                    }
                }
            }
        }
    }
}

/// The request id a reply answers; `None` for the handshake's `HelloAck`
/// and for `Pong`, which carries the ping's token instead.
fn request_id(response: &Response) -> Option<u64> {
    match response {
        Response::JobResult { request_id, .. }
        | Response::CancelResult { request_id, .. }
        | Response::Stats { request_id, .. }
        | Response::Error { request_id, .. } => Some(*request_id),
        Response::Pong { .. } | Response::HelloAck { .. } => None,
    }
}

/// A reply of the wrong kind for the request it answers.
fn unexpected(response: &Response, ticket: u64) -> ClientError {
    ClientError::UnexpectedResponse(format!("{response:?} in reply to request {ticket}"))
}

/// What a failed connect or handshake means to a client caller.
fn refusal(e: HandshakeError) -> ClientError {
    let text = e.to_string();
    match e {
        HandshakeError::Wire(e) => ClientError::Wire(e),
        HandshakeError::Refused(response) => match *response {
            Response::Error { code, message, .. } => match code {
                ErrorCode::Busy => ClientError::Busy(message),
                ErrorCode::UnsupportedVersion => ClientError::VersionRejected(message),
                _ => ClientError::Connection { code, message },
            },
            Response::HelloAck { .. } => ClientError::VersionRejected(text),
            _ => ClientError::UnexpectedResponse(text),
        },
    }
}

/// FNV-1a over the connection's local and peer ports. Stable for a given
/// socket pair (reproducible delays), distinct across clients (each gets
/// its own ephemeral port, so reconnect storms decorrelate).
fn jitter_seed(link: &Link, peer: SocketAddr) -> u64 {
    let local = link.local_addr().map(|a| a.port()).unwrap_or(0);
    let mut h = Fnv1a::new();
    h.bytes(&local.to_be_bytes());
    h.bytes(&peer.port().to_be_bytes());
    h.finish()
}

/// Half the base delay guaranteed plus a uniform random half: keeps the
/// expected wait near the schedule while decorrelating concurrent
/// reconnectors.
fn jittered(base: Duration, rng: &mut impl Rng) -> Duration {
    let half = base / 2;
    half + half.mul_f64(rng.next_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_options_carry_seed() {
        let opts = SubmitOptions::with_seed(9);
        assert_eq!(opts.seed, Some(9));
        assert_eq!(opts.timeout_ms, None);
        assert_eq!(opts.policy, None);
        assert_eq!(SubmitOptions::default().seed, None);
    }

    #[test]
    fn submit_options_carry_policy() {
        let opts = SubmitOptions {
            policy: Some(DispatchPolicy::MinPredictedEnergy),
            ..SubmitOptions::default()
        };
        assert_eq!(opts.policy, Some(DispatchPolicy::MinPredictedEnergy));
        let opts = SubmitOptions::with_seed(4).policy(DispatchPolicy::DeadlineAware);
        assert_eq!(opts.seed, Some(4));
        assert_eq!(opts.policy, Some(DispatchPolicy::DeadlineAware));
    }

    #[test]
    fn disconnect_classification() {
        let e = ClientError::Wire(WireError::Io(io::Error::new(
            io::ErrorKind::ConnectionReset,
            "reset",
        )));
        assert!(e.is_disconnect());
        let e = ClientError::Busy("limit reached".into());
        assert!(!e.is_disconnect());
        let e = ClientError::Wire(WireError::Truncated { context: "tag" });
        assert!(!e.is_disconnect());
    }

    #[test]
    fn errors_display() {
        let e = ClientError::Busy("limit reached".into());
        assert!(e.to_string().contains("limit reached"));
        let e = ClientError::Rejected {
            code: ErrorCode::InvalidKernel,
            message: "factor target must be at least 4".into(),
        };
        assert!(e.to_string().contains("invalid kernel"));
        let e = ClientError::from(WireError::Truncated { context: "tag" });
        assert!(e.to_string().contains("truncated"));
    }

    #[test]
    fn connect_to_dead_port_errors() {
        // Port 1 on localhost is essentially never listening.
        let result = Client::connect("127.0.0.1:1");
        assert!(matches!(result, Err(ClientError::Wire(WireError::Io(_)))));
    }

    #[test]
    fn jittered_backoff_stays_within_bounds_and_is_seeded() {
        let base = Duration::from_millis(100);
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            let d = jittered(base, &mut a);
            assert!(d >= base / 2, "jitter below the guaranteed half: {d:?}");
            assert!(d <= base, "jitter above the base delay: {d:?}");
            assert_eq!(d, jittered(base, &mut b), "same seed, different delay");
        }
        // Different seeds decorrelate the schedules.
        let mut c = StdRng::seed_from_u64(8);
        let schedule_a: Vec<_> = (0..8).map(|_| jittered(base, &mut a)).collect();
        let schedule_c: Vec<_> = (0..8).map(|_| jittered(base, &mut c)).collect();
        assert_ne!(schedule_a, schedule_c);
    }

    #[test]
    fn reconnect_backoff_schedule_is_capped() {
        let policy = RECONNECT_POLICY;
        let mut prev = Duration::ZERO;
        for attempt in 1..=policy.max_retries {
            let delay = policy.backoff(attempt);
            assert!(delay >= prev, "backoff shrank at attempt {attempt}");
            assert!(delay <= policy.max_backoff);
            prev = delay;
        }
    }
}
