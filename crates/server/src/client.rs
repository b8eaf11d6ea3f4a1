//! A blocking client with ticket-based pipelining.
//!
//! [`Client::submit`] writes the request and returns a ticket without
//! waiting; [`Client::wait`] reads frames until that ticket's result
//! arrives, stashing any other responses it sees along the way. Many
//! submissions can therefore be in flight on one connection, and results
//! may arrive in any order.

use accel::host::{DispatchPolicy, RetryPolicy};
use accel::kernel::Kernel;
use numerics::hash::Fnv1a;
use numerics::rng::{Rng, StdRng};
use runtime::RuntimeStats;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use wire::{
    decode_response, encode_request, read_frame, write_frame, ErrorCode, HandshakeError, Request,
    Response, WireError, WireOutcome,
};

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

    /// Options carrying a per-job dispatch-policy override.
    #[must_use]
    pub fn with_policy(policy: DispatchPolicy) -> Self {
        SubmitOptions {
            policy: Some(policy),
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

/// A blocking connection to a [`crate::Server`]. See the [module
/// docs](self) for the pipelining model.
pub struct Client {
    stream: TcpStream,
    /// The peer address from connect time, kept so [`Client::reconnect`]
    /// can redo the handshake after a mid-stream disconnect.
    peer: SocketAddr,
    next_id: u64,
    /// Seeded jitter source for reconnect backoff: derived from the
    /// connection's port pair, so delays are reproducible for a given
    /// socket assignment yet distinct across concurrent clients.
    jitter: StdRng,
    results: HashMap<u64, WireOutcome>,
    cancels: HashMap<u64, bool>,
    stats: HashMap<u64, RuntimeStats>,
    errors: HashMap<u64, (ErrorCode, String)>,
    pongs: HashMap<u64, ()>,
}

impl Client {
    /// Connects and performs the version handshake.
    ///
    /// # Errors
    ///
    /// [`ClientError::Busy`] when turned away at the connection limit,
    /// [`ClientError::VersionRejected`] when the peer does not speak
    /// [`wire::PROTOCOL_VERSION`], or a transport error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
        let peer = stream.peer_addr().map_err(WireError::Io)?;
        let _ = stream.set_nodelay(true);
        let jitter = StdRng::seed_from_u64(jitter_seed(&stream, peer));
        let mut client = Client {
            stream,
            peer,
            next_id: 1, // id 0 is reserved for connection-level errors
            jitter,
            results: HashMap::new(),
            cancels: HashMap::new(),
            stats: HashMap::new(),
            errors: HashMap::new(),
            pongs: HashMap::new(),
        };
        client.handshake()?;
        Ok(client)
    }

    /// Drops the current connection and performs a fresh connect plus
    /// handshake against the same peer, retrying with capped exponential
    /// backoff and seeded jitter when the peer is not (yet) reachable.
    ///
    /// In-flight tickets do not survive: the server binds jobs to their
    /// connection, so every stash is cleared and unredeemed tickets are
    /// gone. Ticket numbering continues from where it was, keeping old
    /// and new tickets distinguishable.
    ///
    /// # Errors
    ///
    /// Same as [`Client::connect`], after the retry budget is spent. A
    /// version rejection returns immediately — a fresh connection would
    /// only repeat it.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.reconnect_once() {
                Ok(()) => return Ok(()),
                Err(e @ ClientError::VersionRejected(_)) => return Err(e),
                Err(e) => {
                    if attempt >= RECONNECT_POLICY.max_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    let base = RECONNECT_POLICY.backoff(attempt);
                    std::thread::sleep(jittered(base, &mut self.jitter));
                }
            }
        }
    }

    /// One reconnect attempt: fresh connect, cleared stashes, handshake.
    fn reconnect_once(&mut self) -> Result<(), ClientError> {
        let stream = TcpStream::connect(self.peer).map_err(WireError::Io)?;
        let _ = stream.set_nodelay(true);
        self.stream = stream;
        self.results.clear();
        self.cancels.clear();
        self.stats.clear();
        self.errors.clear();
        self.pongs.clear();
        self.handshake()
    }

    fn handshake(&mut self) -> Result<(), ClientError> {
        wire::handshake(&mut self.stream).map_err(|e| {
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
        })
    }

    /// Submits a kernel and returns its ticket immediately (pipelined);
    /// redeem it with [`Client::wait`].
    ///
    /// # Errors
    ///
    /// Transport errors — server-side rejection surfaces at `wait`.
    pub fn submit(&mut self, kernel: Kernel, options: SubmitOptions) -> Result<u64, ClientError> {
        let ticket = self.next_id;
        self.next_id += 1;
        self.write_request(&Request::Submit {
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
        loop {
            if let Some(outcome) = self.results.remove(&ticket) {
                return Ok(outcome);
            }
            if let Some((code, message)) = self.errors.remove(&ticket) {
                return Err(ClientError::Rejected { code, message });
            }
            self.pump()?;
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
        self.write_request(&Request::Cancel { request_id: ticket })?;
        loop {
            if let Some(cancelled) = self.cancels.remove(&ticket) {
                return Ok(cancelled);
            }
            self.pump()?;
        }
    }

    /// Round-trips a liveness probe.
    ///
    /// # Errors
    ///
    /// Transport or connection-level errors.
    pub fn ping(&mut self, token: u64) -> Result<(), ClientError> {
        self.write_request(&Request::Ping { token })?;
        loop {
            if self.pongs.remove(&token).is_some() {
                return Ok(());
            }
            self.pump()?;
        }
    }

    /// Fetches a [`RuntimeStats`] snapshot from the server.
    ///
    /// # Errors
    ///
    /// Transport or connection-level errors.
    pub fn stats(&mut self) -> Result<RuntimeStats, ClientError> {
        let ticket = self.next_id;
        self.next_id += 1;
        self.write_request(&Request::GetStats { request_id: ticket })?;
        loop {
            if let Some(stats) = self.stats.remove(&ticket) {
                return Ok(stats);
            }
            if let Some((code, message)) = self.errors.remove(&ticket) {
                return Err(ClientError::Rejected { code, message });
            }
            self.pump()?;
        }
    }

    /// Reads one response and routes it into the right stash.
    fn pump(&mut self) -> Result<(), ClientError> {
        match self.read_response()? {
            Response::JobResult {
                request_id,
                outcome,
            } => {
                self.results.insert(request_id, outcome);
            }
            Response::CancelResult {
                request_id,
                cancelled,
            } => {
                self.cancels.insert(request_id, cancelled);
            }
            Response::Stats { request_id, stats } => {
                self.stats.insert(request_id, stats);
            }
            Response::Pong { token } => {
                self.pongs.insert(token, ());
            }
            Response::Error {
                request_id: 0,
                code,
                message,
            } => return Err(ClientError::Connection { code, message }),
            Response::Error {
                request_id,
                code,
                message,
            } => {
                self.errors.insert(request_id, (code, message));
            }
            Response::HelloAck { version } => {
                return Err(ClientError::UnexpectedResponse(format!(
                    "HelloAck({version}) after the handshake"
                )))
            }
            // This client never gossips; routers speak that dialect.
            Response::GossipAck { request_id, .. } => {
                return Err(ClientError::UnexpectedResponse(format!(
                    "unsolicited GossipAck for request {request_id}"
                )))
            }
        }
        Ok(())
    }

    fn write_request(&mut self, request: &Request) -> Result<(), ClientError> {
        let payload = encode_request(request)?;
        write_frame(&mut self.stream, &payload)?;
        Ok(())
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        let payload = read_frame(&mut self.stream)?;
        Ok(decode_response(&payload)?)
    }
}

/// FNV-1a over the connection's local and peer ports. Stable for a given
/// socket pair (reproducible delays), distinct across clients (each gets
/// its own ephemeral port, so reconnect storms decorrelate).
fn jitter_seed(stream: &TcpStream, peer: SocketAddr) -> u64 {
    let local = stream.local_addr().map(|a| a.port()).unwrap_or(0);
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
        let opts = SubmitOptions::with_policy(DispatchPolicy::MinPredictedEnergy);
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
