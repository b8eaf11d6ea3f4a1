//! Integration tests for the concurrent serving engine: backpressure,
//! queue timeouts, cancellation racing completion, and end-to-end mixed
//! workloads on the real heterogeneous pool.
//!
//! The concurrency-control paths are exercised with a deliberately slow
//! backend injected through `Runtime::with_backend_factory`, so the tests
//! control exactly how long workers stay busy.

use accel::accelerator::Accelerator;
use accel::kernel::{CostEstimate, CostReport, Kernel, KernelExecution, KernelResult};
use accel::AccelError;
use runtime::{DispatchPolicy, JobOptions, JobOutcome, Runtime, RuntimeConfig, SubmitError};
use std::time::{Duration, Instant};

/// A backend that sleeps for a fixed wall time on every kernel.
struct SlowBackend {
    delay: Duration,
}

impl Accelerator for SlowBackend {
    fn name(&self) -> &str {
        "slow"
    }

    fn estimate(&self, _kernel: &Kernel) -> Option<CostEstimate> {
        let seconds = self.delay.as_secs_f64();
        Some(CostEstimate {
            device_seconds: seconds,
            energy_joules: seconds,
        })
    }

    fn execute(&mut self, _kernel: &Kernel) -> Result<KernelExecution, AccelError> {
        std::thread::sleep(self.delay);
        Ok(KernelExecution {
            result: KernelResult::Distance(0.0),
            cost: CostReport {
                device_seconds: self.delay.as_secs_f64(),
                operations: 1,
            },
        })
    }
}

fn slow_runtime(workers: usize, queue_capacity: usize, delay: Duration) -> Runtime {
    let config = RuntimeConfig {
        workers,
        queue_capacity,
        policy: DispatchPolicy::PreferSpecialized,
        seed: 1,
        ..RuntimeConfig::default()
    };
    Runtime::with_backend_factory(config, move |_seed| {
        Ok(vec![Box::new(SlowBackend { delay }) as Box<dyn Accelerator>])
    })
    .expect("runtime should start")
}

fn probe() -> Kernel {
    Kernel::Compare { x: 0.0, y: 1.0 }
}

/// A full queue rejects non-blocking submissions and counts them.
#[test]
fn backpressure_try_submit_rejects_when_full() {
    let rt = slow_runtime(1, 2, Duration::from_millis(200));
    // First job occupies the worker; the next two fill the queue. Keep
    // submitting until the queue is actually full (the worker may not have
    // popped the first job yet, so the exact fill point can vary by one).
    let mut accepted = Vec::new();
    let rejected;
    loop {
        match rt.try_submit(probe()) {
            Ok(h) => accepted.push(h),
            Err(e) => {
                rejected = e;
                break;
            }
        }
        assert!(accepted.len() <= 4, "queue of 2 accepted too many jobs");
    }
    assert_eq!(rejected, SubmitError::QueueFull);
    let stats = rt.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.submitted, accepted.len() as u64);
    // The accepted jobs all drain and complete.
    for h in &accepted {
        assert!(h.wait().is_completed());
    }
    let stats = rt.shutdown();
    assert_eq!(stats.completed, accepted.len() as u64);
}

/// A blocking submit stalls on a full queue instead of rejecting, then
/// proceeds once the worker frees a slot — the backpressure contract.
#[test]
fn backpressure_submit_blocks_until_space() {
    let rt = slow_runtime(1, 1, Duration::from_millis(150));
    let first = rt.submit(probe()).unwrap();
    // Let the worker pick `first` up so it is mid-execution, then fill the
    // single queue slot.
    std::thread::sleep(Duration::from_millis(30));
    while rt.try_submit(probe()).is_ok() {}
    let started = Instant::now();
    let blocked = rt.submit(probe()).unwrap();
    let waited = started.elapsed();
    assert!(
        waited >= Duration::from_millis(50),
        "blocking submit returned after {waited:?}; expected to wait for a slot"
    );
    assert!(first.wait().is_completed());
    assert!(blocked.wait().is_completed());
    drop(rt);
}

/// Jobs whose queue deadline passes before a worker frees up time out.
#[test]
fn queued_jobs_time_out_past_deadline() {
    let rt = slow_runtime(1, 8, Duration::from_millis(200));
    // Occupy the worker, then queue a job that can only wait 10 ms.
    let busy = rt.submit(probe()).unwrap();
    let hurried = rt
        .submit_with(probe(), JobOptions::with_timeout(Duration::from_millis(10)))
        .unwrap();
    let patient = rt
        .submit_with(probe(), JobOptions::with_timeout(Duration::from_secs(60)))
        .unwrap();
    assert_eq!(hurried.wait(), JobOutcome::TimedOut);
    assert!(busy.wait().is_completed());
    assert!(patient.wait().is_completed());
    let stats = rt.shutdown();
    assert_eq!(stats.timed_out, 1);
    assert_eq!(stats.completed, 2);
}

/// Cancelling a queued job settles it as `Cancelled` and the worker skips
/// its execution.
#[test]
fn cancel_queued_job_before_pickup() {
    let rt = slow_runtime(1, 8, Duration::from_millis(150));
    let busy = rt.submit(probe()).unwrap();
    let doomed = rt.submit(probe()).unwrap();
    assert!(doomed.cancel(), "cancel should win while the job is queued");
    assert_eq!(doomed.wait(), JobOutcome::Cancelled);
    assert!(busy.wait().is_completed());
    let stats = rt.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
}

/// Cancellation racing completion settles exactly one way, and both sides
/// observe the same agreed outcome.
#[test]
fn cancel_races_completion_consistently() {
    for trial in 0..20u64 {
        let rt = slow_runtime(1, 4, Duration::from_millis(2));
        let h = rt.submit(probe()).unwrap();
        // Jitter the cancel point across trials to land on both sides of
        // the completion boundary.
        std::thread::sleep(Duration::from_micros(trial * 300));
        let cancel_won = h.cancel();
        let outcome = h.wait();
        if cancel_won {
            assert_eq!(outcome, JobOutcome::Cancelled, "trial {trial}");
        } else {
            assert!(
                outcome.is_completed(),
                "trial {trial}: cancel lost but outcome is {outcome:?}"
            );
        }
        let stats = rt.shutdown();
        assert_eq!(stats.cancelled + stats.completed, 1, "trial {trial}");
        assert_eq!(
            u64::from(cancel_won),
            stats.cancelled,
            "trial {trial}: stats must agree with the race winner"
        );
    }
}

/// A cancelled handle reports `false` from a second cancel call.
#[test]
fn cancel_is_idempotent() {
    let rt = slow_runtime(1, 4, Duration::from_millis(100));
    let _busy = rt.submit(probe()).unwrap();
    let h = rt.submit(probe()).unwrap();
    assert!(h.cancel());
    assert!(!h.cancel());
    assert_eq!(h.try_result(), Some(JobOutcome::Cancelled));
    drop(rt);
}

/// `wait_timeout` returns `None` while a job is still queued, without
/// consuming the result.
#[test]
fn wait_timeout_leaves_pending_job_intact() {
    let rt = slow_runtime(1, 4, Duration::from_millis(120));
    let _busy = rt.submit(probe()).unwrap();
    let h = rt.submit(probe()).unwrap();
    assert_eq!(h.wait_timeout(Duration::from_millis(5)), None);
    assert!(h.wait().is_completed());
    drop(rt);
}

/// One job, two doors. With admission keying the runtime canonicalizes a
/// search's marked list (sorted, deduplicated) before a backend sees it; a
/// `DeadlineAware` job stays raw, because its routing depends on a budget
/// the admission identity does not carry. Both must find the same item —
/// which they did not while Grover's oracle flipped a repeated item's sign
/// back.
#[test]
fn a_repeated_marked_item_is_served_alike_through_both_doors() {
    let quantum_only = |policy| {
        Runtime::with_backend_factory(
            RuntimeConfig {
                workers: 1,
                policy,
                seed: 3,
                ..RuntimeConfig::default()
            },
            |seed| {
                Ok(vec![
                    Box::new(accel::backends::QuantumBackend::new(seed)) as Box<dyn Accelerator>
                ])
            },
        )
        .expect("runtime should start")
    };
    let kernel = Kernel::Search {
        n_qubits: 6,
        marked: vec![37, 37],
    };
    let found = |rt: Runtime| {
        let options = JobOptions {
            seed: Some(77),
            ..JobOptions::default()
        };
        let outcome = rt.submit_with(kernel.clone(), options).unwrap().wait();
        assert_eq!(rt.shutdown().completed, 1);
        match outcome {
            JobOutcome::Completed {
                backend, execution, ..
            } => {
                assert_eq!(backend, "quantum");
                execution.result
            }
            other => panic!("unexpected {other:?}"),
        }
    };
    let keyed = found(quantum_only(DispatchPolicy::PreferSpecialized));
    let raw = found(quantum_only(DispatchPolicy::DeadlineAware));
    assert_eq!(keyed, KernelResult::Found(37));
    assert_eq!(raw, keyed);
}

/// The real heterogeneous pool serves a mixed workload concurrently and
/// routes each kernel class to its specialized backend.
#[test]
fn mixed_workload_routes_to_specialized_backends() {
    let rt = Runtime::start(RuntimeConfig {
        workers: 2,
        queue_capacity: 16,
        policy: DispatchPolicy::PreferSpecialized,
        seed: 9,
        ..RuntimeConfig::default()
    })
    .expect("standard pool should start");
    let sat = mem::generators::planted_3sat(10, 3.5, 11).unwrap();
    let jobs = vec![
        (Kernel::Factor { n: 15 }, "quantum"),
        (Kernel::Compare { x: 0.2, y: 0.7 }, "oscillator"),
        (
            Kernel::SolveSat {
                formula: sat.formula,
            },
            "memcomputing",
        ),
    ];
    for (kernel, expected_backend) in jobs {
        let h = rt.submit(kernel).unwrap();
        match h.wait() {
            JobOutcome::Completed { backend, .. } => assert_eq!(backend, expected_backend),
            other => panic!("unexpected {other:?}"),
        }
    }
    let stats = rt.shutdown();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.per_backend.len(), 3);
    assert!(stats
        .per_backend
        .values()
        .all(|t| t.jobs == 1 && t.busy_seconds > 0.0));
}
