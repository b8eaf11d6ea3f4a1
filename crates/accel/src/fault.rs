//! Deterministic fault injection for chaos testing.
//!
//! Post-CMOS devices are unreliable by construction — Britt & Humble's
//! survey of quantum accelerators for HPC treats device failure as a
//! first-class event the host stack must absorb, and the oscillator and
//! memcomputing literature assumes noisy, drifting hardware. This module
//! makes that unreliability *injectable and reproducible*: a [`FaultPlan`]
//! seeded through `numerics::rng` decides, as a pure function of
//! `(plan seed, backend name, job seed)`, whether a given execution
//! suffers a transient fault burst, a permanent device failure, a latency
//! spike, or a corrupted cost estimate. Two runs with the same plan and
//! the same job seeds inject byte-for-byte identical fault schedules, so
//! chaos tests can assert exact counters and identical outcomes.
//!
//! [`FaultyBackend`] wraps any [`Accelerator`] with a plan. The host's
//! dispatch loop (see [`crate::host::HostRuntime::dispatch_planned`])
//! turns the injected [`AccelError::DeviceFault`]s into retries with
//! capped exponential backoff, failover down the ranked plan, and
//! quarantine with recovery probes.
//!
//! # Example
//!
//! ```
//! use accel::accelerator::{Accelerator, CpuBackend};
//! use accel::fault::{FaultPlan, FaultSpec};
//! use accel::kernel::Kernel;
//!
//! let plan = FaultPlan::new(7).with_backend("cpu", FaultSpec::transient(1.0, 1));
//! let mut cpu = plan.wrap(Box::new(CpuBackend::new(1)));
//! cpu.reseed(99);
//! // First attempt faults, the retry succeeds: a transient burst.
//! assert!(cpu.execute(&Kernel::Factor { n: 15 }).is_err());
//! assert!(cpu.execute(&Kernel::Factor { n: 15 }).is_ok());
//! ```

use crate::accelerator::Accelerator;
use crate::kernel::{CostEstimate, Kernel, KernelExecution};
use crate::AccelError;
use numerics::hash::fnv1a;
use numerics::rng::{rng_from_seed, Rng, SeedStream};
use std::collections::BTreeMap;
use std::time::Duration;

/// Domain-separation constants so execution faults, estimate skew, and
/// worker stalls draw from independent streams of the same plan seed.
const SCOPE_EXECUTE: u64 = 0x45584543; // "EXEC"
const SCOPE_ESTIMATE: u64 = 0x45535449; // "ESTI"
const SCOPE_STALL: u64 = 0x5354414c; // "STAL"

/// Per-backend fault probabilities and magnitudes.
///
/// All rates are probabilities in `[0, 1]` evaluated once per job (per
/// reseed), not per attempt: a job that draws a transient burst fails a
/// fixed number of attempts and then succeeds, so retry behaviour is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Probability that a job sees a transient fault burst on this
    /// backend.
    pub transient_rate: f64,
    /// Length of a transient burst: the number of consecutive attempts
    /// that fail before the backend recovers (sampled uniformly in
    /// `1..=max_transient_attempts` when a burst fires).
    pub max_transient_attempts: u32,
    /// Probability that the backend is permanently faulted for a job
    /// (every attempt fails; the dispatcher must fail over).
    pub permanent_rate: f64,
    /// Probability of a latency spike on a successful execution.
    pub latency_spike_rate: f64,
    /// Wall-clock duration of a latency spike. Spikes delay execution but
    /// never change results.
    pub latency_spike: Duration,
    /// Probability that this backend's cost estimate for a kernel is
    /// corrupted (decided per kernel description, so planning stays a
    /// pure function of the kernel).
    pub estimate_skew_rate: f64,
    /// Multiplier applied to a corrupted estimate.
    pub estimate_skew: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            transient_rate: 0.0,
            max_transient_attempts: 1,
            permanent_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike: Duration::ZERO,
            estimate_skew_rate: 0.0,
            estimate_skew: 1.0,
        }
    }
}

impl FaultSpec {
    /// A spec that injects transient bursts of up to `max_attempts`
    /// failing attempts with probability `rate` per job.
    #[must_use]
    pub fn transient(rate: f64, max_attempts: u32) -> Self {
        FaultSpec {
            transient_rate: rate,
            max_transient_attempts: max_attempts.max(1),
            ..FaultSpec::default()
        }
    }

    /// A spec that permanently faults the backend for a job with
    /// probability `rate`.
    #[must_use]
    pub fn permanent(rate: f64) -> Self {
        FaultSpec {
            permanent_rate: rate,
            ..FaultSpec::default()
        }
    }

    /// Adds a permanent-fault probability to this spec.
    #[must_use]
    pub fn with_permanent(mut self, rate: f64) -> Self {
        self.permanent_rate = rate;
        self
    }

    /// Adds latency spikes: with probability `rate`, a successful
    /// execution sleeps for `spike` first.
    #[must_use]
    pub fn with_latency_spike(mut self, rate: f64, spike: Duration) -> Self {
        self.latency_spike_rate = rate;
        self.latency_spike = spike;
        self
    }

    /// Adds estimate corruption: with probability `rate` (per kernel),
    /// the backend's cost estimate is scaled by `factor`.
    #[must_use]
    pub fn with_estimate_skew(mut self, rate: f64, factor: f64) -> Self {
        self.estimate_skew_rate = rate;
        self.estimate_skew = factor;
        self
    }
}

/// What the plan decided for one `(backend, job seed)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultDecision {
    /// Every attempt fails; the dispatcher must fail over.
    pub permanent: bool,
    /// Number of leading attempts that fail before the backend recovers
    /// (0 = no transient burst).
    pub transient_attempts: u32,
    /// Whether a successful execution sleeps for the spec's spike first.
    pub latency_spike: bool,
}

/// A seeded, deterministic schedule of injected faults.
///
/// Every decision the plan makes is a pure function of the plan seed and
/// the identifiers involved (backend name, job seed, kernel description),
/// so re-running a chaos workload with the same plan and the same job
/// seeds reproduces the exact same faults — the property that lets chaos
/// tests assert byte-for-byte identical outcomes and exact counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    backends: BTreeMap<String, FaultSpec>,
    worker_stall_rate: f64,
    worker_stall: Duration,
}

impl FaultPlan {
    /// An empty plan (no faults) rooted at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The plan's master seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Installs a fault spec for the backend named `name`.
    #[must_use]
    pub fn with_backend(mut self, name: &str, spec: FaultSpec) -> Self {
        self.backends.insert(name.to_string(), spec);
        self
    }

    /// Adds worker stalls: with probability `rate` per job, the serving
    /// worker sleeps for `stall` before dispatching. Stalls delay jobs
    /// (exercising queue pressure) but never change outcomes.
    #[must_use]
    pub fn with_worker_stall(mut self, rate: f64, stall: Duration) -> Self {
        self.worker_stall_rate = rate;
        self.worker_stall = stall;
        self
    }

    /// The canonical moderate chaos plan of `tests/chaos_serving.rs`: every
    /// specialist suffers transient bursts, occasional permanent faults,
    /// latency spikes, and skewed estimates; the CPU fallback only ever
    /// faults transiently (within the default retry budget), so the pool
    /// degrades instead of dying and every job still completes.
    #[must_use]
    pub fn chaos(seed: u64) -> Self {
        let specialist = FaultSpec::transient(0.35, 2)
            .with_permanent(0.15)
            .with_latency_spike(0.10, Duration::from_micros(200))
            .with_estimate_skew(0.20, 6.0);
        FaultPlan::new(seed)
            .with_backend("quantum", specialist.clone())
            .with_backend("oscillator", specialist.clone())
            .with_backend("memcomputing", specialist)
            .with_backend("cpu", FaultSpec::transient(0.10, 1))
            .with_worker_stall(0.05, Duration::from_micros(300))
    }

    /// The spec installed for `backend`, if any.
    #[must_use]
    pub fn spec(&self, backend: &str) -> Option<&FaultSpec> {
        self.backends.get(backend)
    }

    /// Mixes the plan seed, a domain scope, a backend name, and a payload
    /// seed into one decision seed.
    fn mix(&self, scope: u64, backend: &str, seed: u64) -> u64 {
        // FNV-1a over the backend name keeps distinct names independent.
        let h = fnv1a(backend.as_bytes());
        let mut stream = SeedStream::new(self.seed ^ scope.rotate_left(32) ^ h);
        let domain = stream.next_seed();
        SeedStream::new(domain ^ seed).next_seed()
    }

    /// What this plan injects for one job (identified by its execution
    /// seed) on one backend. Pure: same inputs, same decision.
    #[must_use]
    pub fn decision(&self, backend: &str, job_seed: u64) -> FaultDecision {
        let Some(spec) = self.backends.get(backend) else {
            return FaultDecision::default();
        };
        let mut rng = rng_from_seed(self.mix(SCOPE_EXECUTE, backend, job_seed));
        // Fixed draw order keeps decisions independent of rate values.
        let permanent_draw = rng.gen_bool(spec.permanent_rate);
        let transient_draw = rng.gen_bool(spec.transient_rate);
        let burst = rng.gen_range(1..=spec.max_transient_attempts.max(1));
        let spike_draw = rng.gen_bool(spec.latency_spike_rate);
        FaultDecision {
            permanent: permanent_draw,
            transient_attempts: if transient_draw && !permanent_draw {
                burst
            } else {
                0
            },
            latency_spike: spike_draw,
        }
    }

    /// The multiplicative estimate skew for `backend` on a kernel
    /// description (1.0 = uncorrupted). Pure per kernel so planning stays
    /// deterministic.
    #[must_use]
    pub fn estimate_skew(&self, backend: &str, kernel_desc: &str) -> f64 {
        let Some(spec) = self.backends.get(backend) else {
            return 1.0;
        };
        if spec.estimate_skew_rate <= 0.0 {
            return 1.0;
        }
        let desc_hash = fnv1a(kernel_desc.as_bytes());
        let mut rng = rng_from_seed(self.mix(SCOPE_ESTIMATE, backend, desc_hash));
        if rng.gen_bool(spec.estimate_skew_rate) {
            spec.estimate_skew
        } else {
            1.0
        }
    }

    /// How long (if at all) a serving worker should stall before
    /// dispatching the job with this execution seed.
    #[must_use]
    pub fn worker_stall(&self, job_seed: u64) -> Option<Duration> {
        if self.worker_stall_rate <= 0.0 || self.worker_stall.is_zero() {
            return None;
        }
        let mut rng = rng_from_seed(self.mix(SCOPE_STALL, "worker", job_seed));
        rng.gen_bool(self.worker_stall_rate)
            .then_some(self.worker_stall)
    }

    /// Wraps one backend with this plan. Backends with no spec installed
    /// are returned unwrapped (zero overhead).
    #[must_use]
    pub fn wrap(&self, backend: Box<dyn Accelerator>) -> Box<dyn Accelerator> {
        if self.backends.contains_key(backend.name()) {
            Box::new(FaultyBackend::new(self.clone(), backend))
        } else {
            backend
        }
    }

    /// Wraps every backend in a pool that has a spec installed.
    #[must_use]
    pub fn instrument(&self, pool: Vec<Box<dyn Accelerator>>) -> Vec<Box<dyn Accelerator>> {
        pool.into_iter().map(|b| self.wrap(b)).collect()
    }
}

/// An [`Accelerator`] wrapper that injects the faults a [`FaultPlan`]
/// schedules for it.
///
/// The wrapper derives its fault decision at [`Accelerator::reseed`] time
/// (once per job) and counts attempts across retries, so a transient
/// burst fails exactly `transient_attempts` executions and then recovers.
/// Before delegating a successful execution it re-reseeds the inner
/// backend, keeping the inner result a pure function of `(kernel, seed)`
/// even when earlier attempts consumed backend state.
pub struct FaultyBackend {
    plan: FaultPlan,
    inner: Box<dyn Accelerator>,
    name: String,
    seed: Option<u64>,
    attempts: u32,
    decision: FaultDecision,
    /// Fallback decision stream for callers that never reseed.
    unseeded_jobs: u64,
    job_active: bool,
}

impl FaultyBackend {
    /// Wraps `inner` under `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan, inner: Box<dyn Accelerator>) -> Self {
        let name = inner.name().to_string();
        FaultyBackend {
            plan,
            inner,
            name,
            seed: None,
            attempts: 0,
            decision: FaultDecision::default(),
            unseeded_jobs: 0,
            job_active: false,
        }
    }

    fn begin_job(&mut self, seed: u64) {
        self.decision = self.plan.decision(&self.name, seed);
        self.attempts = 0;
        self.job_active = true;
    }

    fn ensure_job(&mut self) {
        if !self.job_active {
            // No reseed since the last job: derive a deterministic
            // per-execution seed from a local counter instead.
            self.unseeded_jobs += 1;
            let seed = self.seed.unwrap_or(0) ^ self.unseeded_jobs;
            self.begin_job(seed);
        }
    }
}

impl Accelerator for FaultyBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn supports(&self, kernel: &Kernel) -> bool {
        self.inner.supports(kernel)
    }

    fn estimate(&self, kernel: &Kernel) -> Option<CostEstimate> {
        self.inner
            .estimate(kernel)
            .map(|e| e.scaled(self.plan.estimate_skew(&self.name, &kernel.describe())))
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = Some(seed);
        self.begin_job(seed);
        self.inner.reseed(seed);
    }

    fn execute(&mut self, kernel: &Kernel) -> Result<KernelExecution, AccelError> {
        self.ensure_job();
        self.attempts += 1;
        if self.decision.permanent {
            self.job_active = false;
            return Err(AccelError::DeviceFault {
                backend: self.name.clone(),
                transient: false,
                detail: format!(
                    "injected permanent device fault (plan seed {})",
                    self.plan.seed
                ),
            });
        }
        if self.attempts <= self.decision.transient_attempts {
            return Err(AccelError::DeviceFault {
                backend: self.name.clone(),
                transient: true,
                detail: format!(
                    "injected transient device fault, attempt {}/{} (plan seed {})",
                    self.attempts, self.decision.transient_attempts, self.plan.seed
                ),
            });
        }
        if self.decision.latency_spike {
            if let Some(spec) = self.plan.spec(&self.name) {
                if !spec.latency_spike.is_zero() {
                    std::thread::sleep(spec.latency_spike);
                }
            }
        }
        // Earlier (faulted) attempts may have consumed inner RNG state;
        // re-reseed so the delegated result stays a pure function of
        // (kernel, seed) regardless of how many retries preceded it.
        if let Some(seed) = self.seed {
            self.inner.reseed(seed);
        }
        let result = self.inner.execute(kernel);
        self.job_active = false;
        result
    }
}

impl std::fmt::Debug for FaultyBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyBackend")
            .field("name", &self.name)
            .field("plan_seed", &self.plan.seed)
            .field("decision", &self.decision)
            .field("attempts", &self.attempts)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::CpuBackend;

    fn kernel() -> Kernel {
        Kernel::Factor { n: 15 }
    }

    #[test]
    fn decisions_are_pure_functions_of_inputs() {
        let plan = FaultPlan::chaos(42);
        for seed in [0u64, 1, 99, u64::MAX] {
            for backend in ["quantum", "oscillator", "memcomputing", "cpu"] {
                assert_eq!(
                    plan.decision(backend, seed),
                    plan.decision(backend, seed),
                    "{backend}/{seed}"
                );
            }
        }
        // Distinct plan seeds give distinct schedules somewhere.
        let other = FaultPlan::chaos(43);
        let differs = (0..64).any(|s| plan.decision("quantum", s) != other.decision("quantum", s));
        assert!(differs, "two plan seeds produced identical schedules");
    }

    #[test]
    fn rates_behave_like_probabilities() {
        let plan = FaultPlan::new(7)
            .with_backend("cpu", FaultSpec::transient(0.5, 3).with_permanent(0.25));
        let n = 4000;
        let mut permanent = 0usize;
        let mut transient = 0usize;
        for seed in 0..n {
            let d = plan.decision("cpu", seed);
            if d.permanent {
                permanent += 1;
                assert_eq!(d.transient_attempts, 0, "permanent excludes transient");
            } else if d.transient_attempts > 0 {
                transient += 1;
                assert!(d.transient_attempts <= 3);
            }
        }
        let p = permanent as f64 / n as f64;
        assert!((p - 0.25).abs() < 0.05, "permanent rate {p}");
        // Transient fires on the non-permanent 75% at rate 0.5 ⇒ ~37.5%.
        let t = transient as f64 / n as f64;
        assert!((t - 0.375).abs() < 0.05, "transient rate {t}");
    }

    #[test]
    fn zero_rate_plan_never_faults() {
        let plan = FaultPlan::new(1).with_backend("cpu", FaultSpec::default());
        for seed in 0..256 {
            assert_eq!(plan.decision("cpu", seed), FaultDecision::default());
        }
        assert_eq!(plan.worker_stall(3), None);
        assert_eq!(plan.estimate_skew("cpu", "factor(15)"), 1.0);
    }

    #[test]
    fn unlisted_backend_is_left_unwrapped_and_unfaulted() {
        let plan = FaultPlan::new(5).with_backend("quantum", FaultSpec::permanent(1.0));
        assert_eq!(plan.decision("cpu", 9), FaultDecision::default());
        let mut cpu = plan.wrap(Box::new(CpuBackend::new(1)));
        cpu.reseed(9);
        assert!(cpu.execute(&kernel()).is_ok());
    }

    #[test]
    fn transient_burst_fails_then_recovers_with_pure_result() {
        let plan = FaultPlan::new(3).with_backend("cpu", FaultSpec::transient(1.0, 2));
        let mut faulty = plan.wrap(Box::new(CpuBackend::new(1)));
        let mut clean = CpuBackend::new(1);
        clean.reseed(77);
        let expected = clean.execute(&kernel()).unwrap();

        faulty.reseed(77);
        let burst = plan.decision("cpu", 77).transient_attempts;
        assert!(burst >= 1);
        for attempt in 0..burst {
            match faulty.execute(&kernel()) {
                Err(AccelError::DeviceFault {
                    transient: true, ..
                }) => {}
                other => panic!("attempt {attempt}: expected transient fault, got {other:?}"),
            }
        }
        let run = faulty.execute(&kernel()).unwrap();
        assert_eq!(
            run.result, expected.result,
            "retry must not perturb the result"
        );
    }

    #[test]
    fn permanent_fault_fails_every_attempt() {
        let plan = FaultPlan::new(11).with_backend("cpu", FaultSpec::permanent(1.0));
        let mut faulty = plan.wrap(Box::new(CpuBackend::new(1)));
        faulty.reseed(5);
        for _ in 0..4 {
            match faulty.execute(&kernel()) {
                Err(AccelError::DeviceFault {
                    transient: false, ..
                }) => {}
                other => panic!("expected permanent fault, got {other:?}"),
            }
        }
    }

    #[test]
    fn estimate_skew_is_deterministic_and_scales() {
        let plan = FaultPlan::new(2)
            .with_backend("cpu", FaultSpec::default().with_estimate_skew(1.0, 8.0));
        let faulty = plan.wrap(Box::new(CpuBackend::new(1)));
        let clean = CpuBackend::new(1);
        let k = kernel();
        let raw = clean.estimate(&k).unwrap();
        let skewed = faulty.estimate(&k).unwrap();
        assert!((skewed.device_seconds - 8.0 * raw.device_seconds).abs() < 1e-18);
        assert_eq!(
            faulty.estimate(&k).unwrap().device_seconds,
            skewed.device_seconds
        );
    }

    #[test]
    fn worker_stall_fires_at_configured_rate() {
        let plan = FaultPlan::new(9).with_worker_stall(0.5, Duration::from_micros(10));
        let hits = (0..2000)
            .filter(|&s| plan.worker_stall(s).is_some())
            .count();
        let rate = hits as f64 / 2000.0;
        assert!((rate - 0.5).abs() < 0.05, "stall rate {rate}");
        assert_eq!(plan.worker_stall(0), plan.worker_stall(0));
    }

    #[test]
    fn instrument_wraps_only_listed_backends() {
        let plan = FaultPlan::new(4).with_backend("cpu", FaultSpec::permanent(1.0));
        let pool: Vec<Box<dyn Accelerator>> = vec![
            Box::new(CpuBackend::new(1)),
            Box::new(crate::backends::QuantumBackend::new(2)),
        ];
        let pool = plan.instrument(pool);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool[0].name(), "cpu");
        assert_eq!(pool[1].name(), "quantum");
    }
}
