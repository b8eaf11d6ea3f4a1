//! The listener: readiness event loop, connection limit, draining
//! shutdown.
//!
//! One `server-loop` thread owns a [`cluster::Poll`] with the listener
//! and every connection registered on it. Each loop tick: drain
//! readiness events (accepts, readable connections), drain the
//! completion queue (finished jobs' outcomes, encoded here like every
//! other response), retry parked submits, flush outboxes, and tear down
//! finished connections. There is no accept sleep-poll and no
//! thread-per-connection — idle time is spent blocked in `poll(2)`, which
//! a socket becoming ready ends, and so do job completions and shutdown
//! through a [`cluster::Waker`]. A running server owns exactly this
//! thread and its runtime's workers.

use crate::connection::{encode_frame, Conn};
use crate::sync::lock_or_recover;
use cluster::{Event, Poll, Token, Waker};
use runtime::{Runtime, RuntimeConfig, RuntimeError, RuntimeStats};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use wire::{ErrorCode, Response, WireOutcome};

/// Upper bound on one poll wait while a submit is parked: it caps how
/// long the retry can lag behind the queue room that lets it land. With
/// nothing parked the loop waits without a bound, since sockets,
/// completions and shutdown all wake it.
const POLL_TIMEOUT: Duration = Duration::from_millis(25);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Port 0 picks a free port; read it back with
    /// [`Server::local_addr`].
    pub addr: String,
    /// Connections served concurrently before new ones are turned away
    /// with a graceful [`ErrorCode::Busy`] frame. Must be ≥ 1.
    pub max_connections: usize,
    /// The runtime the server fronts.
    pub runtime: RuntimeConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 32,
            runtime: RuntimeConfig::default(),
        }
    }
}

/// Why the server could not start.
#[derive(Debug)]
pub enum ServerError {
    /// Binding the listener failed.
    Io(io::Error),
    /// Starting the runtime failed.
    Runtime(RuntimeError),
    /// The configuration is unusable.
    Config(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server i/o error: {e}"),
            ServerError::Runtime(e) => write!(f, "server runtime error: {e}"),
            ServerError::Config(msg) => write!(f, "invalid server config: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Runtime(e) => Some(e),
            ServerError::Config(_) => None,
        }
    }
}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// State shared between the loop thread, the public [`Server`] handle,
/// and the shutdown path. Job-completion machinery lives in
/// [`LoopShared`] instead, so in-flight watchers never keep this alive
/// past the loop join (shutdown unwraps it to consume the runtime).
pub(crate) struct ServerShared {
    pub(crate) runtime: Runtime,
    pub(crate) running: AtomicBool,
    pub(crate) active: AtomicUsize,
}

impl ServerShared {
    pub(crate) fn is_running(&self) -> bool {
        self.running.load(Ordering::Acquire)
    }
}

/// A finished job's outcome, in transit from the thread that settled it
/// back to the loop thread, which encodes and queues the `JobResult`.
pub(crate) struct Completion {
    pub(crate) conn_id: u64,
    pub(crate) request_id: u64,
    pub(crate) outcome: WireOutcome,
}

/// Completion plumbing shared by the loop thread and job watchers. Kept
/// separate from [`ServerShared`] so a job that outlives its connection
/// (watcher still registered) cannot block shutdown's `Arc::try_unwrap`
/// on the runtime.
pub(crate) struct LoopShared {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl LoopShared {
    /// Queues a completion and wakes the loop to deliver it.
    pub(crate) fn complete(&self, completion: Completion) {
        let mut queue = lock_or_recover(&self.completions);
        queue.push(completion);
        drop(queue);
        self.waker.wake();
    }

    /// Takes everything queued so far.
    fn drain(&self) -> Vec<Completion> {
        // lint:allow(eventloop, reason = "bounded hold: producers only push-and-wake, the loop swaps the Vec out")
        let mut queue = lock_or_recover(&self.completions);
        std::mem::take(&mut *queue)
    }
}

/// A TCP front-end serving the wire protocol over a [`Runtime`].
///
/// See the [crate docs](crate) for the serving model and an example.
pub struct Server {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    loop_handle: Option<JoinHandle<()>>,
    waker: Waker,
}

impl Server {
    /// Binds the listener, starts the runtime, and spawns the event
    /// loop.
    ///
    /// # Errors
    ///
    /// [`ServerError::Config`] for a zero connection limit,
    /// [`ServerError::Io`] if binding fails, [`ServerError::Runtime`] if
    /// the runtime cannot start.
    pub fn start(config: ServerConfig) -> Result<Self, ServerError> {
        if config.max_connections == 0 {
            return Err(ServerError::Config(
                "connection limit must be at least 1".into(),
            ));
        }
        let max_connections = config.max_connections;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let runtime = Runtime::start(config.runtime).map_err(ServerError::Runtime)?;
        let mut poll = Poll::new()?;
        let listener_token = poll.register_listener(listener)?;
        let waker = poll.waker();
        let shared = Arc::new(ServerShared {
            runtime,
            running: AtomicBool::new(true),
            active: AtomicUsize::new(0),
        });
        let loop_shared = Arc::new(LoopShared {
            completions: Mutex::new(Vec::new()),
            waker: waker.clone(),
        });
        let loop_handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("server-loop".into())
                .spawn(move || {
                    event_loop(poll, listener_token, &shared, &loop_shared, max_connections);
                })
                .map_err(ServerError::Io)?
        };
        Ok(Server {
            shared,
            local_addr,
            loop_handle: Some(loop_handle),
            waker,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently being served.
    #[must_use]
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// A point-in-time snapshot of the fronted runtime's statistics.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.shared.runtime.stats()
    }

    /// Gracefully drains and stops the server, returning final runtime
    /// statistics.
    ///
    /// Ordering matters: stop accepting, then let the loop keep serving
    /// until every connection's in-flight jobs complete and flush (the
    /// runtime is still alive, so results execute and reach their
    /// clients; cancels are still answered), join the loop, and only
    /// then shut the runtime down.
    #[must_use]
    pub fn shutdown(mut self) -> RuntimeStats {
        self.stop();
        let shared = Arc::clone(&self.shared);
        drop(self); // releases this handle's Arc before the unwrap below
        match Arc::try_unwrap(shared) {
            Ok(shared) => shared.runtime.shutdown(),
            // Something leaked an Arc (should be impossible once the
            // loop is joined); fall back to a snapshot.
            Err(shared) => shared.runtime.stats(),
        }
    }

    fn stop(&mut self) {
        self.shared.running.store(false, Ordering::Release);
        self.waker.wake();
        if let Some(handle) = self.loop_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The loop body: owns the poll and every connection until drain
/// completes.
fn event_loop(
    mut poll: Poll,
    listener_token: Token,
    shared: &Arc<ServerShared>,
    loop_shared: &Arc<LoopShared>,
    max_connections: usize,
) {
    let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut draining = false;
    loop {
        events.clear();
        let timeout = conns.values().any(Conn::is_parked).then_some(POLL_TIMEOUT);
        let _ = poll.poll(&mut events, timeout);
        // Checked after the wait, which shutdown's wake ends, so this very
        // tick already closes the connections that owe nothing.
        if !draining && !shared.is_running() {
            // Drain mode: stop accepting, keep serving until every
            // connection's pending work flushes. Cancels, pings, and
            // stats still get answers; new submits are refused.
            draining = true;
            let _ = poll.deregister_listener(listener_token);
        }
        for event in events.drain(..) {
            match event {
                Event::Accepted { stream, peer, .. } => {
                    if draining || conns.len() >= max_connections {
                        reject_busy(stream, max_connections);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if let Ok(token) = poll.register_stream(stream) {
                        conns.insert(token.0, Conn::new(token, peer));
                    }
                }
                Event::Readable(token) => {
                    if let Some(conn) = conns.get_mut(&token.0) {
                        conn.on_readable(&mut poll, shared, loop_shared, draining);
                    }
                }
                Event::Closed(token) => {
                    if let Some(conn) = conns.get_mut(&token.0) {
                        conn.mark_read_closed(&mut poll);
                    }
                }
                // Every outbox is flushed below, this one included.
                Event::Writable(_) => {}
            }
        }
        for completion in loop_shared.drain() {
            if let Some(conn) = conns.get_mut(&completion.conn_id) {
                conn.on_completion(completion);
            }
            // A completion for a connection already torn down just drops;
            // the job ran, the peer is gone.
        }
        for conn in conns.values_mut() {
            conn.retry_parked(&mut poll, shared, loop_shared, draining);
        }
        let mut dead = Vec::new();
        for (&id, conn) in &mut conns {
            match conn.flush(&mut poll) {
                Ok(flushed) => {
                    // A connection closes once it owes nothing: no jobs
                    // in flight, no parked submit, outbox flushed — and
                    // either the peer is done (read side closed), a
                    // violation was answered, or the server is draining.
                    let finished = flushed && !conn.has_work();
                    if finished && (conn.close_after_flush || conn.read_closed || draining) {
                        dead.push(id);
                    }
                }
                Err(_) => dead.push(id),
            }
        }
        for id in dead {
            if let Some(stream) = poll.deregister(Token(id)) {
                let _ = stream.shutdown(Shutdown::Both);
            }
            conns.remove(&id);
        }
        shared.active.store(conns.len(), Ordering::Release);
        if draining && conns.is_empty() {
            return;
        }
    }
}

/// Turns a connection away with a connection-level busy frame instead of
/// a silent hangup, so clients can distinguish "try later" from a crash.
/// The accepted stream is already non-blocking and its send buffer is
/// empty, so the farewell is one best-effort write: a peer that cannot
/// take ~60 bytes right now sees the hangup alone, and the loop never
/// waits on it.
fn reject_busy(mut stream: TcpStream, max_connections: usize) {
    let response = Response::Error {
        request_id: 0,
        code: ErrorCode::Busy,
        message: format!("server at its {max_connections}-connection limit"),
    };
    if let Some(frame) = encode_frame(&response) {
        let _ = stream.write(&frame);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, SubmitOptions};
    use accel::kernel::Kernel;

    #[test]
    fn rejects_zero_connection_limit() {
        let config = ServerConfig {
            max_connections: 0,
            ..ServerConfig::default()
        };
        assert!(matches!(Server::start(config), Err(ServerError::Config(_))));
    }

    #[test]
    fn binds_ephemeral_port_and_shuts_down() {
        let server = Server::start(ServerConfig::default()).unwrap();
        assert_ne!(server.local_addr().port(), 0);
        assert_eq!(server.active_connections(), 0);
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 0);
    }

    #[test]
    fn completions_raised_on_the_loop_thread_are_answered() {
        // A cache hit settles inside `try_submit` and a winning cancel
        // inside `serve_request`: both watchers run on the loop thread and
        // push onto the queue that same thread drains later in the tick.
        let server = Server::start(ServerConfig {
            runtime: RuntimeConfig {
                workers: 1,
                ..RuntimeConfig::default()
            },
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let kernel = Kernel::Compare { x: 0.25, y: 0.75 };
        for _ in 0..2 {
            let outcome = client
                .run(kernel.clone(), SubmitOptions::with_seed(11))
                .unwrap();
            assert!(outcome.is_completed());
        }

        // Occupy the only worker, then cancel the job queued behind it.
        // The cancel can lose to a fast worker; one win is what is needed.
        // Order finding keeps the worker busy for milliseconds; a Grover
        // search no longer does (it runs in its invariant plane).
        let won = (0..20).any(|round| {
            let busy = client
                .submit(Kernel::Factor { n: 35 }, SubmitOptions::with_seed(round))
                .unwrap();
            let victim = client
                .submit(
                    Kernel::Compare { x: 0.1, y: 0.9 },
                    SubmitOptions::with_seed(round),
                )
                .unwrap();
            let cancelled = client.cancel(victim).unwrap();
            let outcome = client.wait(victim).unwrap();
            assert_eq!(cancelled, outcome == WireOutcome::Cancelled);
            assert!(client.wait(busy).unwrap().is_completed());
            cancelled
        });
        assert!(won, "no cancel beat a queued job in 20 rounds");

        client.ping(5).unwrap();
        drop(client);
        let stats = server.shutdown();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cancelled, 1);
    }

    #[test]
    fn errors_display() {
        let e = ServerError::Config("connection limit must be at least 1".into());
        assert!(e.to_string().contains("connection limit"));
        let e = ServerError::from(io::Error::new(io::ErrorKind::AddrInUse, "taken"));
        assert!(e.to_string().contains("taken"));
    }
}
