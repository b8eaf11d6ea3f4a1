//! The serving engine: worker pool, submission paths, shutdown.
//!
//! [`Runtime::start`] builds one full heterogeneous backend pool *per
//! worker thread* (backends are `Send`, not `Sync`, so each worker owns its
//! own [`HostRuntime`]) and spawns the workers over a shared bounded
//! [`JobQueue`]. Affinity routing reuses the host's
//! [`DispatchPolicy`] — a SAT job lands on that worker's memcomputing
//! backend, a comparison on its oscillator, and so on.
//!
//! # Determinism under concurrency
//!
//! Every job gets a seed derived from the runtime's master seed and the
//! job id, and the selected backend is reseeded with it immediately before
//! execution. A job's result is therefore a pure function of
//! `(kernel, master seed, job id)` — independent of which worker ran it,
//! in what order, or how many workers exist. A 6-worker runtime and a
//! 1-worker runtime given the same submission sequence produce identical
//! results (see `tests/chaos_serving.rs`, which replays 3- and 4-worker
//! runs against a 1-worker one).

use crate::cache::ResultCache;
use crate::job::{JobHandle, JobOptions, JobOutcome, JobState};
use crate::queue::{JobQueue, PushError};
use crate::singleflight::SingleFlight;
use crate::stats::{RuntimeStats, StatsCollector};
use crate::RuntimeError;
use accel::accelerator::Accelerator;
use accel::family::{canonical_key, canonicalize};
use accel::fault::FaultPlan;
use accel::host::{
    CorrectionTable, DispatchPolicy, DispatchRequest, HostRuntime, QuarantinePolicy, RetryPolicy,
};
use accel::kernel::{InvalidKernel, Kernel, KernelExecution};
use accel::AccelError;
use admission::CanonicalKey;
use numerics::rng::SeedStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// Non-blocking submission found the queue at capacity.
    QueueFull,
    /// The runtime is shutting down.
    ShutDown,
    /// The kernel failed submission-time validation and never entered the
    /// queue (counted in [`RuntimeStats::invalid`]).
    Invalid(InvalidKernel),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "job queue is full"),
            SubmitError::ShutDown => write!(f, "runtime is shut down"),
            SubmitError::Invalid(e) => write!(f, "invalid kernel: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SubmitError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

/// Serving-engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Worker threads, each owning a full backend pool. Must be ≥ 1.
    pub workers: usize,
    /// Bounded queue capacity (backpressure threshold). Must be ≥ 1.
    pub queue_capacity: usize,
    /// How each worker routes kernels to its backends.
    pub policy: DispatchPolicy,
    /// Master seed; every job's execution seed derives from it.
    pub seed: u64,
    /// Cost-model correction factors every worker's planner is *frozen*
    /// with. Workers never adapt corrections mid-run — routing must stay a
    /// pure function of the submission for reproducibility — but observed
    /// ratios accumulate in [`RuntimeStats`], and
    /// [`RuntimeStats::calibrated`] folds them into the table for the next
    /// runtime.
    pub corrections: CorrectionTable,
    /// Optional deterministic fault-injection plan. When set, every
    /// worker's backends are wrapped in `accel::fault::FaultyBackend`
    /// (per the plan's per-backend specs) and workers stall per the plan's
    /// worker-stall schedule. Fault decisions are pure functions of
    /// `(plan seed, backend name, job seed)`, so chaos runs reproduce
    /// byte-for-byte across worker counts.
    pub faults: Option<FaultPlan>,
    /// Retry/backoff schedule each worker's dispatcher applies to
    /// transient device faults before failing over.
    pub retry: RetryPolicy,
    /// When repeated fault-exhausted dispatches quarantine a backend, and
    /// how often quarantined backends are probed for recovery. Quarantine
    /// is history-dependent: runs that must reproduce byte-for-byte across
    /// worker counts should use [`QuarantinePolicy::disabled`].
    pub quarantine: QuarantinePolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 2,
            queue_capacity: 64,
            policy: DispatchPolicy::PreferSpecialized,
            seed: 0,
            corrections: CorrectionTable::new(),
            faults: None,
            retry: RetryPolicy::default(),
            quarantine: QuarantinePolicy::default(),
        }
    }
}

/// Entries in each runtime's admission result cache (LRU past this).
///
/// The admission tier keys every job whose policy is not `DeadlineAware`,
/// then serves it from this cache or coalesces it onto an identical
/// in-flight job; only a job that runs is canonicalized. Every result is a
/// pure function of `(canonical kernel, seed, policy)`, so a hit or a
/// coalesced serve is byte-identical to recomputation. `DeadlineAware`
/// jobs bypass both: their routing depends on the deadline budget, which
/// is not part of the admission identity.
const CACHE_CAPACITY: usize = 256;

/// The admission identity of a job: canonical kernel key, execution seed,
/// and routing policy (the same kernel and seed route — and may therefore
/// resolve — differently under different policies). Two submissions with
/// the same identity are guaranteed byte-identical results.
type AdmissionKey = (CanonicalKey, u64, DispatchPolicy);

/// The outcome payload the admission cache stores: enough to replay a
/// `JobOutcome::Completed` without re-executing.
#[derive(Debug, Clone)]
struct CachedOutcome {
    backend: String,
    execution: KernelExecution,
}

/// A submission coalesced behind an identical in-flight job. The lead's
/// worker publishes the shared outcome to every waiter when the flight
/// completes; a waiter that cancels first simply wins its own
/// write-once publish race and is skipped.
struct Waiter {
    state: Arc<JobState>,
    enqueued: Instant,
    deadline: Option<Instant>,
}

/// The mutexed admission state shared by submitters and workers.
struct AdmissionTier {
    cache: ResultCache<AdmissionKey, CachedOutcome>,
    inflight: SingleFlight<AdmissionKey, Waiter>,
}

fn lock_tier(tier: &Mutex<AdmissionTier>) -> MutexGuard<'_, AdmissionTier> {
    tier.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One queued job envelope.
struct QueuedJob {
    /// The kernel as submitted, until admission makes a keyed job the lead
    /// of its key: from then on it is the canonical form, which is what
    /// executes. A cache hit or a coalesced waiter never gets one.
    kernel: Kernel,
    seed: u64,
    policy: Option<DispatchPolicy>,
    /// The job's timeout budget, doubling as the `DeadlineAware` planner's
    /// device-time budget (see [`JobOptions::timeout`]).
    budget: Option<Duration>,
    state: Arc<JobState>,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// The job's admission identity, unless its policy is `DeadlineAware`.
    admission_key: Option<AdmissionKey>,
}

/// State shared between the submission side and the workers.
struct Shared {
    queue: JobQueue<QueuedJob>,
    stats: StatsCollector,
    workers: usize,
    /// The fault plan, if chaos is on — consulted per job for worker
    /// stalls (backend faults live inside the wrapped backends).
    faults: Option<FaultPlan>,
    /// The admission tier: result cache + single-flight registry.
    admission: Mutex<AdmissionTier>,
}

/// The concurrent job-serving engine. See the [crate docs](crate).
pub struct Runtime {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    seed: u64,
    policy: DispatchPolicy,
}

impl Runtime {
    /// Starts a runtime whose workers each own the standard heterogeneous
    /// pool (quantum, oscillator, memcomputing, CPU fallback).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Config`] for a zero worker count or queue capacity;
    /// [`RuntimeError::Backend`] if building a backend pool fails.
    pub fn start(config: RuntimeConfig) -> Result<Self, RuntimeError> {
        Self::with_backend_factory(config, accel::backends::standard_pool)
    }

    /// Starts a runtime whose workers build their backend pools through
    /// `factory`, called once per worker with that worker's pool seed.
    /// This is the hook tests use to inject slow or failing backends.
    ///
    /// # Errors
    ///
    /// Same contract as [`Runtime::start`].
    pub fn with_backend_factory<F>(config: RuntimeConfig, factory: F) -> Result<Self, RuntimeError>
    where
        F: Fn(u64) -> Result<Vec<Box<dyn Accelerator>>, AccelError>,
    {
        if config.workers == 0 {
            return Err(RuntimeError::Config(
                "worker count must be at least 1".into(),
            ));
        }
        if config.queue_capacity == 0 {
            return Err(RuntimeError::Config(
                "queue capacity must be at least 1".into(),
            ));
        }
        // Build every pool up front so factory errors surface here, in the
        // caller, rather than dying silently inside a worker thread.
        let mut pool_seeds = SeedStream::new(config.seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut hosts = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let mut host = HostRuntime::with_corrections(config.policy, config.corrections.clone());
            host.set_retry_policy(config.retry);
            host.set_quarantine_policy(config.quarantine);
            for backend in factory(pool_seeds.next_seed()).map_err(RuntimeError::Backend)? {
                let backend = match &config.faults {
                    Some(plan) => plan.wrap(backend),
                    None => backend,
                };
                host.register(backend);
            }
            hosts.push(host);
        }
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            stats: StatsCollector::new(),
            workers: config.workers,
            faults: config.faults,
            admission: Mutex::new(AdmissionTier {
                cache: ResultCache::new(CACHE_CAPACITY),
                inflight: SingleFlight::new(),
            }),
        });
        let handles = hosts
            .into_iter()
            .enumerate()
            .map(|(i, host)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("runtime-worker-{i}"))
                    .spawn(move || worker_loop(&shared, host))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Ok(Runtime {
            shared,
            handles,
            next_id: AtomicU64::new(0),
            seed: config.seed,
            policy: config.policy,
        })
    }

    /// Submits a job with default options, blocking while the queue is
    /// full (backpressure).
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShutDown`] if the runtime stopped accepting work.
    pub fn submit(&self, kernel: Kernel) -> Result<JobHandle, SubmitError> {
        self.submit_with(kernel, JobOptions::default())
    }

    /// Submits a job, blocking while the queue is full (backpressure).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] for a kernel that fails submission-time
    /// validation; [`SubmitError::ShutDown`] if the runtime stopped
    /// accepting work.
    pub fn submit_with(
        &self,
        kernel: Kernel,
        options: JobOptions,
    ) -> Result<JobHandle, SubmitError> {
        self.validate(&kernel)?;
        let (job, handle) = self.prepare(kernel, options);
        let Some(job) = self.admission_intercept(job) else {
            return Ok(handle);
        };
        let key = job.admission_key;
        match self.shared.queue.push(job) {
            Ok(()) => {
                self.shared.stats.record_submitted();
                Ok(handle)
            }
            Err(PushError::Closed(_) | PushError::Full(_)) => {
                self.abort_lead(key.as_ref());
                Err(SubmitError::ShutDown)
            }
        }
    }

    /// Submits a job without blocking: a full queue rejects immediately.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] (counted in
    /// [`RuntimeStats::rejected`]) or [`SubmitError::ShutDown`].
    pub fn try_submit(&self, kernel: Kernel) -> Result<JobHandle, SubmitError> {
        self.try_submit_with(kernel, JobOptions::default())
    }

    /// Non-blocking submission with explicit options.
    ///
    /// # Errors
    ///
    /// Same contract as [`Runtime::try_submit`].
    pub fn try_submit_with(
        &self,
        kernel: Kernel,
        options: JobOptions,
    ) -> Result<JobHandle, SubmitError> {
        self.validate(&kernel)?;
        let (job, handle) = self.prepare(kernel, options);
        let Some(job) = self.admission_intercept(job) else {
            return Ok(handle);
        };
        let key = job.admission_key;
        match self.shared.queue.try_push(job) {
            Ok(()) => {
                self.shared.stats.record_submitted();
                Ok(handle)
            }
            Err(PushError::Full(_)) => {
                self.abort_lead(key.as_ref());
                self.shared.stats.record_rejected();
                Err(SubmitError::QueueFull)
            }
            Err(PushError::Closed(_)) => {
                self.abort_lead(key.as_ref());
                Err(SubmitError::ShutDown)
            }
        }
    }

    /// Rejects malformed kernels before they consume a queue slot or a
    /// job id (see [`Kernel::validate`]).
    fn validate(&self, kernel: &Kernel) -> Result<(), SubmitError> {
        kernel.validate().map_err(|e| {
            self.shared.stats.record_invalid();
            SubmitError::Invalid(e)
        })
    }

    fn prepare(&self, kernel: Kernel, options: JobOptions) -> (QueuedJob, JobHandle) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(JobState::new());
        let handle = JobHandle::new(Arc::clone(&state));
        #[expect(
            clippy::disallowed_methods,
            reason = "queue-time/deadline stamping only; job seeds and payloads never derive from it"
        )]
        let now = Instant::now();
        let seed = options.seed.unwrap_or_else(|| job_seed(self.seed, id));
        // Admission-keyed jobs are keyed at the door from the kernel as
        // submitted; a lead executes the canonical form (see
        // `admission_intercept`), so cold runs, cache hits, and coalesced
        // serves all resolve the identical kernel. `DeadlineAware` routing
        // depends on the deadline budget, which the admission identity
        // does not capture, so such jobs stay raw and uncached.
        let effective_policy = options.policy.unwrap_or(self.policy);
        let admission_key = (effective_policy != DispatchPolicy::DeadlineAware)
            .then(|| (canonical_key(&kernel), seed, effective_policy));
        let job = QueuedJob {
            kernel,
            seed,
            policy: options.policy,
            budget: options.timeout,
            state,
            enqueued: now,
            deadline: options.timeout.map(|t| now + t),
            admission_key,
        };
        (job, handle)
    }

    /// Tries to settle a keyed job at admission: a cache hit publishes the
    /// stored outcome immediately, and a duplicate of an in-flight job
    /// attaches as a waiter behind the lead execution. Returns the job
    /// back when it must actually queue (it missed, and now leads any
    /// duplicates that arrive while it runs), carrying the canonical form:
    /// only a lead builds one.
    fn admission_intercept(&self, mut job: QueuedJob) -> Option<QueuedJob> {
        let Some(key) = job.admission_key else {
            return Some(job);
        };
        let mut tier = lock_tier(&self.shared.admission);
        if let Some(cached) = tier.cache.get(&key) {
            drop(tier);
            self.shared.stats.record_submitted();
            self.shared.stats.record_cache_hit();
            publish_cached(&self.shared, &job.state, cached);
            return None;
        }
        if !tier.inflight.lead(key) {
            let waiter = Waiter {
                state: Arc::clone(&job.state),
                enqueued: job.enqueued,
                deadline: job.deadline,
            };
            if tier.inflight.attach(&key, waiter).is_ok() {
                drop(tier);
                self.shared.stats.record_submitted();
                self.shared.stats.record_coalesced();
                return None;
            }
        }
        drop(tier);
        // Only leads count as misses, so every keyed submission lands in
        // exactly one of cache_hits / coalesced / cache_misses.
        self.shared.stats.record_cache_miss();
        job.kernel = canonicalize(&job.kernel);
        Some(job)
    }

    /// Unwinds a lead registration whose queue push was refused. Any
    /// waiters that raced in behind the doomed lead are failed rather than
    /// left dangling (their submissions were already acknowledged).
    fn abort_lead(&self, key: Option<&AdmissionKey>) {
        let Some(key) = key else { return };
        let waiters = lock_tier(&self.shared.admission).inflight.complete(key);
        for waiter in waiters {
            let installed = waiter.state.finish_then(
                JobOutcome::Failed("coalesced lead was refused by the queue".into()),
                |_| self.shared.stats.record_failed(),
            );
            if !installed {
                self.shared.stats.record_cancelled();
            }
        }
    }

    /// A point-in-time statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.shared
            .stats
            .snapshot(self.shared.queue.len(), self.shared.workers)
    }

    /// Stops accepting work, drains the queue, joins every worker, and
    /// returns the final statistics. Queued jobs still execute; only new
    /// submissions are refused.
    #[must_use]
    pub fn shutdown(mut self) -> RuntimeStats {
        self.stop_and_join();
        self.shared.stats.snapshot(0, self.shared.workers)
    }

    fn stop_and_join(&mut self) {
        self.shared.queue.close();
        for handle in self.handles.drain(..) {
            // A worker that panicked already poisoned nothing shared
            // beyond its own jobs; surface the panic here.
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Mixes the master seed and job id into the job's execution seed.
fn job_seed(master: u64, id: u64) -> u64 {
    SeedStream::new(master ^ id.wrapping_mul(0xd134_2543_de82_ef95)).next_seed()
}

/// One worker: drain the queue until it is closed and empty.
fn worker_loop(shared: &Shared, mut host: HostRuntime) {
    while let Some(job) = shared.queue.pop() {
        serve_one(shared, &mut host, &job);
    }
}

/// Publishes a cache hit straight from the submission path: the job never
/// queues, its result is the stored execution, byte-identical to what
/// recomputation under the same `(canonical kernel, seed, policy)` would
/// produce.
fn publish_cached(shared: &Shared, state: &Arc<JobState>, cached: CachedOutcome) {
    let outcome = JobOutcome::Completed {
        backend: cached.backend,
        execution: cached.execution,
        wall: Duration::ZERO,
    };
    let installed = state.finish_then(outcome, |_| {
        shared.stats.record_served_derived(Duration::ZERO);
    });
    if !installed {
        shared.stats.record_cancelled();
    }
}

/// Publishes the flight's shared outcome to one coalesced waiter. A waiter
/// that already cancelled wins its own write-once publish race and is only
/// counted, never overwritten — cancelling one waiter never affects its
/// peers or the lead.
fn publish_to_waiter(shared: &Shared, waiter: &Waiter, outcome: &JobOutcome) {
    #[expect(
        clippy::disallowed_methods,
        reason = "waiter deadline check and latency accounting; the shared result is already computed"
    )]
    let now = Instant::now();
    let resolved = match outcome {
        JobOutcome::Completed {
            backend,
            execution,
            wall,
        } => {
            if waiter.deadline.is_some_and(|d| now >= d) {
                JobOutcome::TimedOut
            } else {
                JobOutcome::Completed {
                    backend: backend.clone(),
                    execution: execution.clone(),
                    wall: *wall,
                }
            }
        }
        JobOutcome::Failed(msg) => JobOutcome::Failed(msg.clone()),
        // The flight resolved without executing (lead blocked, no live
        // waiters) — anything drained here is itself already settled.
        JobOutcome::TimedOut | JobOutcome::Cancelled => JobOutcome::Cancelled,
    };
    let latency = now.duration_since(waiter.enqueued);
    let installed = waiter.state.finish_then(resolved, |visible| match visible {
        JobOutcome::Completed { .. } => shared.stats.record_served_derived(latency),
        JobOutcome::Failed(_) => shared.stats.record_failed(),
        JobOutcome::TimedOut => shared.stats.record_timed_out(),
        JobOutcome::Cancelled => shared.stats.record_cancelled(),
    });
    if !installed {
        shared.stats.record_cancelled();
    }
}

/// Resolves one popped job and records exactly one terminal statistic,
/// chosen by whichever outcome actually won the installation race. When
/// the job is a coalesced-flight lead, its execution is also stored in the
/// admission cache and published to every waiter.
fn serve_one(shared: &Shared, host: &mut HostRuntime, job: &QueuedJob) {
    #[expect(
        clippy::disallowed_methods,
        reason = "deadline check and latency accounting; results are pure functions of the job seed"
    )]
    let picked_up = Instant::now();
    let mut predicted_estimate = None;
    // The lead's own pre-dispatch verdict.
    let blocked = if job.deadline.is_some_and(|d| picked_up >= d) {
        Some(JobOutcome::TimedOut)
    } else if job.state.cancel_requested() || job.state.outcome().is_some() {
        Some(JobOutcome::Cancelled)
    } else {
        None
    };
    // A blocked lead with live coalesced waiters still executes: a
    // waiter's result must not depend on the lead's deadline expiring or
    // on a peer cancelling first.
    let waiters_pending = blocked.is_some()
        && job.admission_key.as_ref().is_some_and(|key| {
            lock_tier(&shared.admission)
                .inflight
                .waiters(key)
                .iter()
                .any(|w| w.state.outcome().is_none() && !w.state.cancel_requested())
        });
    let executed = if blocked.is_none() || waiters_pending {
        // An injected worker stall delays the job but never changes its
        // outcome: it runs after the deadline/cancel checks, and results
        // are pure functions of the job seed regardless of timing.
        if let Some(stall) = shared
            .faults
            .as_ref()
            .and_then(|p| p.worker_stall(job.seed))
        {
            std::thread::sleep(stall);
        }
        let request = DispatchRequest {
            reseed: Some(job.seed),
            policy: job.policy,
            deadline_seconds: job.budget.map(|t| t.as_secs_f64()),
        };
        let dispatched = host.dispatch_planned(&job.kernel, &request);
        // Failed dispatches return no report, so fault accounting drains
        // from the host's ledger on both paths.
        shared.stats.record_faults(&host.drain_faults());
        Some(match dispatched {
            Ok(report) => {
                predicted_estimate = Some(report.estimate);
                JobOutcome::Completed {
                    backend: report.backend,
                    execution: report.execution,
                    wall: picked_up.elapsed(),
                }
            }
            Err(err) => JobOutcome::Failed(err.to_string()),
        })
    } else {
        None
    };
    // Resolve the admission flight: store a completed execution in the
    // cache, then publish the shared outcome to every coalesced waiter.
    if let Some(key) = &job.admission_key {
        let waiters = {
            let mut tier = lock_tier(&shared.admission);
            if let Some(JobOutcome::Completed {
                backend, execution, ..
            }) = &executed
            {
                let evicted = tier.cache.insert(
                    *key,
                    CachedOutcome {
                        backend: backend.clone(),
                        execution: execution.clone(),
                    },
                );
                shared.stats.record_cache_evictions(evicted);
            }
            tier.inflight.complete(key)
        };
        if let Some(outcome) = executed.as_ref().or(blocked.as_ref()) {
            for waiter in &waiters {
                publish_to_waiter(shared, waiter, outcome);
            }
        }
    }
    let outcome = match (blocked, executed) {
        (Some(verdict), _) => verdict,
        (None, Some(served)) => served,
        // Unreachable: one of the two is always Some.
        (None, None) => JobOutcome::Cancelled,
    };
    // Account the outcome *before* it becomes visible (under the state
    // lock): a caller that has observed its result is guaranteed to find
    // the job already counted in the statistics.
    let installed = job.state.finish_then(outcome, |visible| match visible {
        JobOutcome::Completed {
            execution,
            wall,
            backend,
        } => shared.stats.record_completed(
            backend,
            execution.cost.device_seconds,
            execution.cost.operations,
            predicted_estimate,
            *wall,
            job.enqueued.elapsed(),
        ),
        JobOutcome::Failed(_) => shared.stats.record_failed(),
        JobOutcome::TimedOut => shared.stats.record_timed_out(),
        JobOutcome::Cancelled => shared.stats.record_cancelled(),
    });
    if !installed {
        // A late-arriving cancel won the publish race; it is the only
        // external installer, and cancellers never touch the stats.
        shared.stats.record_cancelled();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel::accelerator::CpuBackend;
    use accel::kernel::KernelResult;

    fn cpu_pool(seed: u64) -> Result<Vec<Box<dyn Accelerator>>, AccelError> {
        Ok(vec![Box::new(CpuBackend::new(seed))])
    }

    fn small() -> RuntimeConfig {
        RuntimeConfig {
            workers: 2,
            queue_capacity: 8,
            policy: DispatchPolicy::CpuOnly,
            seed: 42,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        let mut c = small();
        c.workers = 0;
        assert!(matches!(
            Runtime::with_backend_factory(c, cpu_pool),
            Err(RuntimeError::Config(_))
        ));
        let mut c = small();
        c.queue_capacity = 0;
        assert!(matches!(
            Runtime::with_backend_factory(c, cpu_pool),
            Err(RuntimeError::Config(_))
        ));
    }

    #[test]
    fn serves_jobs_to_completion() {
        let rt = Runtime::with_backend_factory(small(), cpu_pool).unwrap();
        let handles: Vec<_> = (0..20)
            .map(|i| {
                rt.submit(Kernel::Compare {
                    x: i as f64 / 20.0,
                    y: 0.5,
                })
                .unwrap()
            })
            .collect();
        for (i, h) in handles.iter().enumerate() {
            match h.wait() {
                JobOutcome::Completed {
                    execution, backend, ..
                } => {
                    assert_eq!(backend, "cpu");
                    let expected = (i as f64 / 20.0 - 0.5).abs();
                    match execution.result {
                        KernelResult::Distance(d) => {
                            assert!((d - expected).abs() < 1e-12);
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let stats = rt.shutdown();
        assert_eq!(stats.submitted, 20);
        assert_eq!(stats.completed, 20);
        assert_eq!(stats.settled(), 20);
        assert_eq!(stats.per_backend["cpu"].jobs, 20);
        assert_eq!(stats.latency.total(), 20);
    }

    #[test]
    fn backend_errors_become_failed_outcomes() {
        let rt = Runtime::with_backend_factory(small(), cpu_pool).unwrap();
        // 13 is prime: the CPU factoring kernel errors.
        let h = rt.submit(Kernel::Factor { n: 13 }).unwrap();
        match h.wait() {
            JobOutcome::Failed(msg) => assert!(msg.contains("13")),
            other => panic!("unexpected {other:?}"),
        }
        let stats = rt.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn zero_timeout_always_expires() {
        let rt = Runtime::with_backend_factory(small(), cpu_pool).unwrap();
        let h = rt
            .submit_with(
                Kernel::Compare { x: 0.0, y: 1.0 },
                JobOptions::with_timeout(Duration::ZERO),
            )
            .unwrap();
        assert_eq!(h.wait(), JobOutcome::TimedOut);
        assert_eq!(rt.shutdown().timed_out, 1);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let mut config = small();
        config.workers = 1;
        let rt = Runtime::with_backend_factory(config, cpu_pool).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|_| rt.submit(Kernel::Factor { n: 1_000_003 * 997 }).unwrap())
            .collect();
        let stats = rt.shutdown();
        assert_eq!(stats.completed, 8);
        assert!(handles.iter().all(|h| h.wait().is_completed()));
    }

    #[test]
    fn submit_after_shutdown_refused() {
        let rt = Runtime::with_backend_factory(small(), cpu_pool).unwrap();
        let shared = Arc::clone(&rt.shared);
        let _ = rt.shutdown();
        // The runtime value is consumed; exercise the closed-queue path
        // through the surviving shared state the way a racing submitter
        // would observe it.
        assert!(shared.queue.is_closed());
    }

    #[test]
    fn results_independent_of_worker_count() {
        let run = |workers: usize| -> Vec<JobOutcome> {
            let config = RuntimeConfig {
                workers,
                queue_capacity: 32,
                policy: DispatchPolicy::CpuOnly,
                seed: 7,
                ..RuntimeConfig::default()
            };
            let rt = Runtime::with_backend_factory(config, cpu_pool).unwrap();
            let handles: Vec<_> = (0..24)
                .map(|i| {
                    rt.submit(Kernel::Compare {
                        x: (i % 7) as f64 / 7.0,
                        y: (i % 5) as f64 / 5.0,
                    })
                    .unwrap()
                })
                .collect();
            let outcomes = handles.iter().map(JobHandle::wait).collect();
            drop(rt);
            outcomes
        };
        let solo = run(1);
        let pooled = run(4);
        for (a, b) in solo.iter().zip(&pooled) {
            let (ra, rb) = match (a, b) {
                (
                    JobOutcome::Completed { execution: ea, .. },
                    JobOutcome::Completed { execution: eb, .. },
                ) => (&ea.result, &eb.result),
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn invalid_kernels_rejected_at_submission() {
        let rt = Runtime::with_backend_factory(small(), cpu_pool).unwrap();
        let dna = |a: &str, k| Kernel::DnaSimilarity {
            a: a.into(),
            b: "ACGTACGTACGTACGT".into(),
            k,
        };
        let cases = vec![
            Kernel::Factor { n: 3 },
            Kernel::Search {
                n_qubits: 0,
                marked: vec![],
            },
            Kernel::Search {
                n_qubits: 2,
                marked: vec![4],
            },
            Kernel::Search {
                n_qubits: 64,
                marked: vec![0],
            },
            Kernel::Search {
                n_qubits: 40,
                marked: vec![],
            },
            Kernel::DnaSimilarity {
                a: "ACGT".into(),
                b: "ACGT".into(),
                k: 0,
            },
            Kernel::DnaSimilarity {
                a: "AC".into(),
                b: "ACGT".into(),
                k: 3,
            },
            // Unrunnable DNA: no backend profiles k > 8 or a non-ACGT base.
            dna("ACGTACGTACGTACGT", 9),
            dna("ACGTXCGTACGTACGT", 4),
            dna("ACGTACGTACGTACGé", 4),
            Kernel::Compare {
                x: f64::NAN,
                y: 0.5,
            },
            Kernel::Compare { x: 0.5, y: 2.0 },
        ];
        let n = cases.len() as u64;
        for kernel in cases {
            let desc = kernel.describe();
            assert!(
                matches!(rt.submit(kernel.clone()), Err(SubmitError::Invalid(_))),
                "blocking submit accepted {desc}"
            );
            assert!(
                matches!(rt.try_submit(kernel), Err(SubmitError::Invalid(_))),
                "non-blocking submit accepted {desc}"
            );
        }
        let stats = rt.shutdown();
        assert_eq!(stats.invalid, 2 * n);
        assert_eq!((stats.submitted, stats.failed), (0, 0));
    }

    #[test]
    fn explicit_seed_overrides_derived_seed() {
        // The same kernel submitted under different job ids but the same
        // explicit seed must produce identical results, and the explicit
        // seed must reproduce a derived-seed run that used the same value.
        let rt = Runtime::with_backend_factory(small(), cpu_pool).unwrap();
        let kernel = Kernel::DnaSimilarity {
            a: "ACGTACGTACGT".into(),
            b: "ACGTTCGTACGA".into(),
            k: 2,
        };
        let opts = JobOptions::with_seed(12345);
        let first = rt.submit_with(kernel.clone(), opts).unwrap().wait();
        // Burn job ids so the derived seed would differ.
        for _ in 0..5 {
            let _ = rt.submit(Kernel::Compare { x: 0.1, y: 0.9 }).unwrap();
        }
        let again = rt.submit_with(kernel, opts).unwrap().wait();
        match (&first, &again) {
            (
                JobOutcome::Completed { execution: a, .. },
                JobOutcome::Completed { execution: b, .. },
            ) => assert_eq!(a.result, b.result),
            other => panic!("unexpected {other:?}"),
        }
        drop(rt);
    }

    #[test]
    fn job_seeds_differ_across_ids() {
        let a = job_seed(1, 0);
        let b = job_seed(1, 1);
        let c = job_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And are stable.
        assert_eq!(a, job_seed(1, 0));
    }

    #[test]
    fn per_job_policy_override_reroutes() {
        let config = RuntimeConfig {
            workers: 1,
            queue_capacity: 8,
            policy: DispatchPolicy::PreferSpecialized,
            seed: 3,
            ..RuntimeConfig::default()
        };
        let rt = Runtime::start(config).unwrap();
        let kernel = Kernel::Compare { x: 0.25, y: 0.5 };
        let default_run = rt.submit(kernel.clone()).unwrap().wait();
        let overridden = rt
            .submit_with(
                kernel,
                JobOptions {
                    policy: Some(DispatchPolicy::MinPredictedLatency),
                    ..JobOptions::default()
                },
            )
            .unwrap()
            .wait();
        match (&default_run, &overridden) {
            (
                JobOutcome::Completed { backend: a, .. },
                JobOutcome::Completed { backend: b, .. },
            ) => {
                assert_eq!(a, "oscillator");
                assert_eq!(b, "cpu", "min-latency must reroute Compare to the CPU");
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = rt.shutdown();
        assert!(
            stats.total_predicted_device_seconds() > 0.0,
            "completions must carry planner predictions into the stats"
        );
    }

    #[test]
    fn transient_chaos_retries_and_still_completes_everything() {
        use accel::fault::{FaultPlan, FaultSpec};
        let config = RuntimeConfig {
            workers: 2,
            queue_capacity: 32,
            policy: DispatchPolicy::CpuOnly,
            seed: 9,
            faults: Some(FaultPlan::new(17).with_backend("cpu", FaultSpec::transient(1.0, 2))),
            retry: accel::host::RetryPolicy::no_backoff(2),
            quarantine: accel::host::QuarantinePolicy::disabled(),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::with_backend_factory(config, cpu_pool).unwrap();
        let handles: Vec<_> = (0..16)
            .map(|i| {
                rt.submit(Kernel::Compare {
                    x: i as f64 / 16.0,
                    y: 0.25,
                })
                .unwrap()
            })
            .collect();
        for h in &handles {
            assert!(h.wait().is_completed());
        }
        let stats = rt.shutdown();
        assert_eq!(stats.completed, 16);
        assert!(
            stats.backend_faults >= 16,
            "every job faulted at least once"
        );
        assert_eq!(stats.retries, stats.backend_faults);
        assert_eq!(stats.reroutes, 0, "single-backend pool cannot reroute");
        assert_eq!(stats.per_backend["cpu"].faults, stats.backend_faults);
    }

    #[test]
    fn permanent_chaos_reroutes_to_healthy_backend() {
        use accel::fault::{FaultPlan, FaultSpec};
        let config = RuntimeConfig {
            workers: 1,
            queue_capacity: 16,
            policy: DispatchPolicy::PreferSpecialized,
            seed: 5,
            faults: Some(FaultPlan::new(3).with_backend("quantum", FaultSpec::permanent(1.0))),
            quarantine: accel::host::QuarantinePolicy::disabled(),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::start(config).unwrap();
        let handles: Vec<_> = (0..6)
            .map(|_| rt.submit(Kernel::Factor { n: 15 }).unwrap())
            .collect();
        for h in &handles {
            match h.wait() {
                JobOutcome::Completed { backend, .. } => {
                    assert_eq!(backend, "cpu", "quantum is dead; cpu must absorb the work");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let stats = rt.shutdown();
        assert_eq!(stats.reroutes, 6);
        assert_eq!(stats.per_backend["quantum"].faults, 6);
        assert_eq!(stats.quarantine_events, 0);
    }

    #[test]
    fn chaos_results_match_clean_baseline() {
        use accel::fault::{FaultPlan, FaultSpec};
        // Transient faults + worker stalls delay jobs but never perturb
        // results: the faulty wrapper re-reseeds the inner backend before
        // the delegated attempt.
        let run = |faults: Option<FaultPlan>, workers: usize| -> Vec<JobOutcome> {
            let config = RuntimeConfig {
                workers,
                queue_capacity: 32,
                policy: DispatchPolicy::CpuOnly,
                seed: 11,
                faults,
                retry: accel::host::RetryPolicy::no_backoff(3),
                quarantine: accel::host::QuarantinePolicy::disabled(),
                ..RuntimeConfig::default()
            };
            let rt = Runtime::with_backend_factory(config, cpu_pool).unwrap();
            let handles: Vec<_> = (0..12)
                .map(|i| {
                    rt.submit(Kernel::DnaSimilarity {
                        a: "ACGTACGTACGTACGT".into(),
                        b: "ACGTTCGTACGAACGT".into(),
                        k: 2 + (i % 3),
                    })
                    .unwrap()
                })
                .collect();
            handles.iter().map(JobHandle::wait).collect()
        };
        let plan = FaultPlan::new(23)
            .with_backend("cpu", FaultSpec::transient(0.8, 3))
            .with_worker_stall(0.5, Duration::from_micros(200));
        let clean = run(None, 1);
        let chaotic = run(Some(plan), 4);
        for (a, b) in clean.iter().zip(&chaotic) {
            match (a, b) {
                (
                    JobOutcome::Completed { execution: ea, .. },
                    JobOutcome::Completed { execution: eb, .. },
                ) => assert_eq!(ea.result, eb.result),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_submissions_hit_the_cache() {
        let rt = Runtime::with_backend_factory(small(), cpu_pool).unwrap();
        let kernel = Kernel::DnaSimilarity {
            a: "ACGTACGTACGTACGT".into(),
            b: "ACGTTCGTACGAACGT".into(),
            k: 3,
        };
        let opts = JobOptions::with_seed(77);
        let cold = rt.submit_with(kernel.clone(), opts).unwrap().wait();
        let warm = rt.submit_with(kernel.clone(), opts).unwrap().wait();
        // The same kernel and seed under another policy is another
        // admission identity, so another cache entry, even though both
        // policies route it to the one CPU backend.
        let rerouted = JobOptions {
            policy: Some(DispatchPolicy::PreferSpecialized),
            ..opts
        };
        assert!(rt
            .submit_with(kernel, rerouted)
            .unwrap()
            .wait()
            .is_completed());
        match (&cold, &warm) {
            (
                JobOutcome::Completed {
                    execution: a,
                    backend: ba,
                    ..
                },
                JobOutcome::Completed {
                    execution: b,
                    backend: bb,
                    ..
                },
            ) => {
                assert_eq!(a, b, "cached result must be byte-identical");
                assert_eq!(ba, bb);
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = rt.shutdown();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 2, "one entry per policy");
        assert_eq!(stats.completed, 3);
        assert_eq!(
            stats.per_backend["cpu"].jobs, 2,
            "the hit must not re-execute"
        );
    }

    #[test]
    fn the_cache_holds_256_results_and_evicts_the_oldest() {
        let rt = Runtime::with_backend_factory(small(), cpu_pool).unwrap();
        // Distinct keys, each settled before the next so none coalesces.
        let serve = |i: u32| {
            let kernel = Kernel::Compare {
                x: f64::from(i) / 512.0,
                y: 0.5,
            };
            let handle = rt.submit_with(kernel, JobOptions::with_seed(5)).unwrap();
            assert!(handle.wait().is_completed());
        };
        // One past the capacity: the 257th insert evicts the first key.
        (0..257).for_each(serve);
        let stats = rt.stats();
        assert_eq!((stats.cache_misses, stats.cache_evictions), (257, 1));
        serve(0);
        serve(256);
        let stats = rt.shutdown();
        assert_eq!(stats.cache_misses, 258, "the first key was evicted");
        assert_eq!(stats.cache_hits, 1, "the last key is still cached");
        assert_eq!(stats.per_backend["cpu"].jobs, 258);
    }

    #[test]
    fn clause_permuted_sat_duplicates_share_one_entry() {
        use mem::cnf::Formula;
        use mem::generators::planted_3sat;
        let base = planted_3sat(10, 3.8, 41).unwrap().formula;
        let mut reversed_clauses: Vec<_> = base.clauses().to_vec();
        reversed_clauses.reverse();
        let reversed = Formula::new(base.n_vars(), reversed_clauses).unwrap();
        let rt = Runtime::with_backend_factory(small(), cpu_pool).unwrap();
        let opts = JobOptions::with_seed(13);
        let a = rt
            .submit_with(Kernel::SolveSat { formula: base }, opts)
            .unwrap()
            .wait();
        let b = rt
            .submit_with(Kernel::SolveSat { formula: reversed }, opts)
            .unwrap()
            .wait();
        match (&a, &b) {
            (
                JobOutcome::Completed { execution: ea, .. },
                JobOutcome::Completed { execution: eb, .. },
            ) => assert_eq!(ea, eb, "clause order is not part of the identity"),
            other => panic!("unexpected {other:?}"),
        }
        let stats = rt.shutdown();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.per_backend["cpu"].jobs, 1);
    }

    /// A CPU backend whose executions block until the test releases it —
    /// the deterministic way to hold a flight open while duplicates and
    /// cancellations arrive.
    struct GatedCpu {
        gate: Arc<std::sync::atomic::AtomicBool>,
        inner: CpuBackend,
    }

    impl Accelerator for GatedCpu {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn reseed(&mut self, seed: u64) {
            self.inner.reseed(seed);
        }
        fn estimate(&self, kernel: &Kernel) -> Option<accel::kernel::CostEstimate> {
            self.inner.estimate(kernel)
        }
        fn execute(
            &mut self,
            kernel: &Kernel,
        ) -> Result<accel::kernel::KernelExecution, AccelError> {
            while !self.gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.inner.execute(kernel)
        }
    }

    #[test]
    fn in_flight_duplicates_coalesce_and_cancel_independently() {
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let factory_gate = Arc::clone(&gate);
        let config = RuntimeConfig {
            workers: 1,
            queue_capacity: 16,
            policy: DispatchPolicy::CpuOnly,
            seed: 2,
            ..RuntimeConfig::default()
        };
        let rt = Runtime::with_backend_factory(config, move |seed| {
            Ok(vec![Box::new(GatedCpu {
                gate: Arc::clone(&factory_gate),
                inner: CpuBackend::new(seed),
            })])
        })
        .unwrap();
        let kernel = Kernel::DnaSimilarity {
            a: "ACGTACGTACGT".into(),
            b: "TTGTACGAACGA".into(),
            k: 2,
        };
        let opts = JobOptions::with_seed(99);
        // The lead blocks inside the gated backend; the duplicates attach
        // to its flight instead of queueing executions of their own.
        let lead = rt.submit_with(kernel.clone(), opts).unwrap();
        let kept = rt.submit_with(kernel.clone(), opts).unwrap();
        let dropped = rt.submit_with(kernel, opts).unwrap();
        // Cancelling one waiter must not leak to the lead or its peer.
        assert!(dropped.cancel());
        gate.store(true, Ordering::SeqCst);
        let lead_outcome = lead.wait();
        let kept_outcome = kept.wait();
        assert_eq!(dropped.wait(), JobOutcome::Cancelled);
        match (&lead_outcome, &kept_outcome) {
            (
                JobOutcome::Completed { execution: a, .. },
                JobOutcome::Completed { execution: b, .. },
            ) => assert_eq!(a, b, "waiter must receive the lead's exact result"),
            other => panic!("unexpected {other:?}"),
        }
        let stats = rt.shutdown();
        assert_eq!(stats.coalesced, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.settled(), 3);
        assert_eq!(
            stats.per_backend["cpu"].jobs, 1,
            "one execution served the whole flight"
        );
    }

    #[test]
    fn factory_error_surfaces_at_start() {
        let failing = |_seed: u64| -> Result<Vec<Box<dyn Accelerator>>, AccelError> {
            Err(AccelError::NoBackend {
                kernel: "pool construction".into(),
                tried: vec![],
            })
        };
        assert!(matches!(
            Runtime::with_backend_factory(small(), failing),
            Err(RuntimeError::Backend(_))
        ));
    }
}
