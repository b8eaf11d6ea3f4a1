//! TCP serving front-end over the concurrent [`runtime`].
//!
//! The paper's heterogeneous machine only earns its keep when it serves
//! traffic, so this crate puts the runtime behind a socket:
//!
//! * [`poll`] — a readiness-driven event loop over non-blocking TCP (an
//!   own miniature mio over `poll(2)`: tokens, an event queue, a
//!   cross-thread waker);
//! * [`link`] — [`link::Link`], the one client connection type: connect
//!   plus handshake under a timeout, whole-frame non-blocking sends, and
//!   replies reassembled in a [`wire::FrameBuffer`]. [`Client`] wraps a
//!   `Link`, and so does each of the cluster router's shard connections;
//! * `server` — [`Server`]: a single readiness-driven event loop
//!   (built on [`poll::Poll`]) owning the listener and every
//!   connection, a connection limit with graceful "server busy"
//!   rejection, and a draining shutdown that lets every in-flight job
//!   finish and flush its response before the runtime stops;
//! * `connection` — the per-connection state machine: the version
//!   check, pipelined requests (many submissions in flight,
//!   responses written as each job finishes, in completion order),
//!   per-request deadlines mapped onto [`runtime::JobOptions`] timeouts,
//!   cancellation, and a stats endpoint;
//! * `client` — [`Client`]: a blocking client with ticket-based
//!   pipelining (`submit` returns immediately; `wait` demultiplexes
//!   out-of-order responses).
//!
//! Everything speaks the [`wire`] protocol and is std-only.
//!
//! # Example
//!
//! ```
//! use accel::kernel::{Kernel, KernelResult};
//! use server::{Client, Server, ServerConfig, SubmitOptions};
//!
//! let server = Server::start(ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let outcome = client.run(Kernel::Factor { n: 35 }, SubmitOptions::default())?;
//! match outcome {
//!     wire::WireOutcome::Completed { result, .. } => match result {
//!         KernelResult::Factors(p, q) => assert_eq!(p * q, 35),
//!         other => panic!("unexpected {other:?}"),
//!     },
//!     other => panic!("unexpected {other:?}"),
//! }
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod client;
mod connection;
pub mod link;
pub mod poll;
mod server;

pub(crate) mod sync {
    //! Poison-tolerant locking for the serving surfaces.
    //!
    //! A runtime-watcher thread that panics while holding one of the
    //! server's registries poisons the mutex; every registry here stays
    //! structurally valid mid-update (plain pushes and map inserts), so
    //! serving must outlive the panic rather than cascade it.

    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Locks `m`, recovering the guard if a previous holder panicked.
    pub(crate) fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

pub use client::{Client, ClientError, SubmitOptions};
pub use server::{Server, ServerConfig, ServerError};
