//! Heterogeneous-accelerator substrate (paper Figs. 1–2).
//!
//! The paper's framing device: "a heterogeneous multi-core system
//! architecture … in which GPUs, FPGAs, TPUs and now also quantum
//! accelerators can all be used", with the quantum accelerator itself a
//! layered stack from application down to chip. This crate makes the
//! framing executable:
//!
//! * [`kernel`] — work items spanning the three paradigms (factoring,
//!   search, DNA similarity, SAT, analog vector comparison);
//! * [`accelerator`] — the [`accelerator::Accelerator`] trait and a CPU
//!   reference backend implementing every kernel classically;
//! * [`backends`] — the quantum, coupled-oscillator, and memcomputing
//!   backends built on the workspace's simulators;
//! * [`codec`] — the workspace's one bounds-checked byte reader/writer,
//!   shared by the wire protocol and the family body codecs;
//! * [`host`] — the host runtime that dispatches kernels to backends and
//!   accounts device time per backend (Fig. 1's system view);
//! * [`stack`] — the Fig. 2 layer model: per-layer latency accounting for
//!   a quantum job travelling application → … → chip.
//!
//! # Example
//!
//! ```
//! use accel::accelerator::{Accelerator, CpuBackend};
//! use accel::kernel::Kernel;
//!
//! let mut cpu = CpuBackend::new(1);
//! let run = cpu.execute(&Kernel::Factor { n: 21 })?;
//! # Ok::<(), accel::AccelError>(())
//! ```

#![allow(
    clippy::neg_cmp_op_on_partial_ord,
    clippy::needless_range_loop,
    clippy::manual_is_multiple_of,
    clippy::field_reassign_with_default,
    reason = "numerical style: `!(x > 0.0)` also rejects NaN, and indexed loops mirror the mathematics"
)]
pub mod accelerator;
pub mod backends;
pub mod codec;
pub mod family;
pub mod fault;
pub mod host;
pub mod kernel;
pub mod stack;

/// Crate-wide error type.
#[derive(Debug)]
pub enum AccelError {
    /// The kernel is not supported by the chosen backend.
    Unsupported {
        /// Backend name.
        backend: String,
        /// Kernel description.
        kernel: String,
    },
    /// No backend in the host runtime runs the kernel: none estimates it.
    NoBackend {
        /// Kernel description.
        kernel: String,
        /// Names of the candidate backends that were considered (or
        /// attempted and refused the kernel), in the order tried.
        tried: Vec<String>,
    },
    /// Every candidate backend's corrected cost estimate exceeds the job's
    /// deadline budget (the `DeadlineAware` policy refuses to start work
    /// it predicts cannot finish in time).
    DeadlineUnmeetable {
        /// Kernel description.
        kernel: String,
        /// The job's device-time budget in seconds.
        deadline_seconds: f64,
        /// The smallest corrected estimate among the candidates, seconds.
        best_seconds: f64,
    },
    /// A backend failed while executing.
    Backend {
        /// Backend name.
        backend: String,
        /// Underlying error.
        source: Box<dyn std::error::Error + Send + Sync + 'static>,
    },
    /// The device itself faulted during execution — the error class the
    /// dispatcher's retry/failover machinery handles (see
    /// [`host::RetryPolicy`] and [`fault::FaultPlan`]). Transient faults
    /// are retried on the same backend with capped exponential backoff;
    /// permanent faults (and exhausted retries) fail over to the
    /// next-ranked candidate.
    DeviceFault {
        /// Backend name.
        backend: String,
        /// Whether the fault is expected to clear on retry.
        transient: bool,
        /// Human-readable fault description.
        detail: String,
    },
}

impl std::fmt::Display for AccelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccelError::Unsupported { backend, kernel } => {
                write!(f, "backend `{backend}` does not support kernel {kernel}")
            }
            AccelError::NoBackend { kernel, tried } => {
                if tried.is_empty() {
                    write!(f, "no backend supports kernel {kernel}")
                } else {
                    write!(
                        f,
                        "no backend supports kernel {kernel} (tried: {})",
                        tried.join(", ")
                    )
                }
            }
            AccelError::DeadlineUnmeetable {
                kernel,
                deadline_seconds,
                best_seconds,
            } => {
                write!(
                    f,
                    "no backend can meet the {deadline_seconds:.3e}s deadline for kernel \
                     {kernel} (best estimate {best_seconds:.3e}s)"
                )
            }
            AccelError::Backend { backend, source } => {
                write!(f, "backend `{backend}` failed: {source}")
            }
            AccelError::DeviceFault {
                backend,
                transient,
                detail,
            } => {
                let kind = if *transient { "transient" } else { "permanent" };
                write!(f, "backend `{backend}` {kind} device fault: {detail}")
            }
        }
    }
}

impl std::error::Error for AccelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AccelError::Backend { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl AccelError {
    /// Wraps a backend failure.
    pub(crate) fn backend<E: std::error::Error + Send + Sync + 'static>(
        backend: &str,
        source: E,
    ) -> Self {
        AccelError::Backend {
            backend: backend.to_string(),
            source: Box::new(source),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = AccelError::NoBackend {
            kernel: "factor(15)".into(),
            tried: vec![],
        };
        assert!(e.to_string().contains("factor(15)"));
        let e = AccelError::NoBackend {
            kernel: "factor(15)".into(),
            tried: vec!["quantum".into(), "memcomputing".into()],
        };
        let text = e.to_string();
        assert!(text.contains("tried: quantum, memcomputing"), "{text}");
        let e = AccelError::DeadlineUnmeetable {
            kernel: "compare(0.100, 0.200)".into(),
            deadline_seconds: 1e-9,
            best_seconds: 3e-9,
        };
        assert!(e.to_string().contains("deadline"), "{e}");
        let e = AccelError::DeviceFault {
            backend: "quantum".into(),
            transient: true,
            detail: "injected".into(),
        };
        let text = e.to_string();
        assert!(text.contains("transient device fault"), "{text}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AccelError>();
    }
}
