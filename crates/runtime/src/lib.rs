//! A concurrent job-serving engine over the heterogeneous accelerator pool.
//!
//! The paper's system view (Fig. 1) puts quantum, analog-oscillator and
//! memcomputing accelerators alongside the CPU in one machine. The `accel`
//! crate makes a *single-threaded* host that dispatches kernels across such
//! a pool; this crate turns that host into a serving engine — the shape a
//! heterogeneous machine actually runs under load:
//!
//! * `queue` — a bounded MPMC `JobQueue` providing backpressure:
//!   blocking `push` for producers that should slow down, `try_push` for
//!   producers that should shed load;
//! * `job` — the job lifecycle: [`JobHandle`] with `wait` /
//!   `wait_timeout` / `try_result`, queue deadlines, and cooperative
//!   cancellation that races completion;
//! * `engine` — [`Runtime`]: N worker threads, each owning a full
//!   backend pool (backends are `Send`, not `Sync`), draining the shared
//!   queue and routing each kernel by the host's
//!   [`accel::host::DispatchPolicy`];
//! * the admission tier — a seeded LRU result cache and single-flight
//!   coalescing of identical in-flight jobs, both keyed on the
//!   [`admission`] identity and set by [`AdmissionConfig`];
//! * [`stats`] — [`stats::RuntimeStats`]: queue depth, per-backend
//!   throughput, a fixed-bucket latency histogram, and rejected /
//!   timed-out / cancelled counters.
//!
//! Everything is std-only: `std::thread`, `Mutex`, `Condvar`, atomics.
//!
//! Results are deterministic despite concurrency: each job's backend is
//! reseeded from `(master seed, job id)` right before execution, so an
//! N-worker runtime reproduces a 1-worker runtime's results exactly.
//!
//! # Example
//!
//! ```
//! use accel::kernel::{Kernel, KernelResult};
//! use runtime::{JobOutcome, Runtime, RuntimeConfig};
//!
//! let rt = Runtime::start(RuntimeConfig::default())?;
//! let job = rt.submit(Kernel::Factor { n: 21 })?;
//! match job.wait() {
//!     JobOutcome::Completed { execution, .. } => match execution.result {
//!         KernelResult::Factors(p, q) => assert_eq!(p * q, 21),
//!         other => panic!("unexpected {other:?}"),
//!     },
//!     other => panic!("unexpected {other:?}"),
//! }
//! let stats = rt.shutdown();
//! assert_eq!(stats.completed, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod cache;
mod engine;
mod job;
mod queue;
mod singleflight;
pub mod stats;

pub use engine::{AdmissionConfig, Runtime, RuntimeConfig, SubmitError};
pub use job::{JobHandle, JobOptions, JobOutcome};
pub use stats::{BackendThroughput, LatencyHistogram, RuntimeStats};

// Re-exported so serving callers can pick a routing policy, seed the
// planner's cost corrections, configure fault injection and failover,
// and match on submission-validation failures without depending on
// `accel` directly.
pub use accel::host::{CorrectionTable, DispatchPolicy, QuarantinePolicy, RetryPolicy};

/// Crate-wide error type.
#[derive(Debug)]
pub enum RuntimeError {
    /// The configuration is unusable (zero workers or queue capacity).
    Config(String),
    /// Building a worker's backend pool failed.
    Backend(accel::AccelError),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Config(msg) => write!(f, "invalid runtime config: {msg}"),
            RuntimeError::Backend(e) => write!(f, "backend pool construction failed: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Backend(e) => Some(e),
            RuntimeError::Config(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = RuntimeError::Config("worker count must be at least 1".into());
        assert!(e.to_string().contains("worker count"));
        let e = RuntimeError::Backend(accel::AccelError::NoBackend {
            kernel: "factor(15)".into(),
            tried: vec![],
        });
        assert!(e.to_string().contains("factor(15)"));
    }

    #[test]
    fn public_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Runtime>();
        assert_send::<JobHandle>();
        assert_send::<RuntimeStats>();
        assert_send::<SubmitError>();
        assert_send::<RuntimeError>();
    }
}
