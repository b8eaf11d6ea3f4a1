//! The host runtime (paper Fig. 1).
//!
//! Owns a set of [`Accelerator`] backends and dispatches kernels to them —
//! "end-user application developers are capable of programming their source
//! code to be compiled and executed on the quantum device" — while keeping
//! per-backend utilization accounting so the heterogeneous-speedup
//! experiment (E12) can compare specialized dispatch against a CPU-only
//! configuration.
//!
//! # Example
//!
//! ```
//! use accel::accelerator::CpuBackend;
//! use accel::host::{DispatchPolicy, HostRuntime};
//! use accel::kernel::Kernel;
//!
//! let mut host = HostRuntime::new(DispatchPolicy::PreferSpecialized);
//! host.register(Box::new(CpuBackend::new(1)));
//! let run = host.dispatch(&Kernel::Factor { n: 15 })?;
//! # Ok::<(), accel::AccelError>(())
//! ```

// Dispatch and byte parsing face hostile input: panic hygiene (DESIGN.md §8).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::accelerator::Accelerator;
use crate::kernel::{CostEstimate, Kernel, KernelExecution};
use crate::AccelError;
use std::collections::BTreeMap;
use std::time::Duration;

/// How the host picks a backend for a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DispatchPolicy {
    /// Use the first non-CPU backend that estimates the kernel, falling
    /// back to any backend that does (the heterogeneous configuration).
    PreferSpecialized,
    /// Use only the backend named "cpu" (the von Neumann baseline).
    CpuOnly,
    /// Pick the backend with the smallest corrected predicted device time.
    MinPredictedLatency,
    /// Pick the backend with the smallest corrected predicted energy.
    MinPredictedEnergy,
    /// Prefer the specialized backend, but fall back to the cheapest
    /// backend (typically the CPU) whenever the specialist's corrected
    /// estimate would blow the job's deadline budget. With no deadline this
    /// behaves like [`DispatchPolicy::MinPredictedLatency`].
    DeadlineAware,
}

/// The EWMA smoothing weight for predicted-vs-actual corrections.
pub const CORRECTION_ALPHA: f64 = 0.25;

/// Per-backend multiplicative correction factors on cost estimates,
/// learned from predicted-vs-actual device time.
///
/// A factor of 1.0 means the model is trusted as-is; 2.0 means the backend
/// has been running twice as slow as predicted, so estimates are doubled
/// before ranking. Unknown backends default to 1.0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorrectionTable {
    factors: BTreeMap<String, f64>,
}

impl CorrectionTable {
    /// An identity table (every factor 1.0).
    #[must_use]
    pub fn new() -> Self {
        CorrectionTable::default()
    }

    /// The correction factor for a backend (1.0 when unknown).
    #[must_use]
    pub fn factor(&self, backend: &str) -> f64 {
        self.factors.get(backend).copied().unwrap_or(1.0)
    }

    /// Pins a backend's correction factor (non-finite or non-positive
    /// values are ignored).
    pub fn set(&mut self, backend: &str, factor: f64) {
        if factor.is_finite() && factor > 0.0 {
            self.factors.insert(backend.to_string(), factor);
        }
    }
}

/// One ranked dispatch plan: the backends to try, best first, with the
/// corrected estimate the ranking used for each.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// `(backend index, corrected estimate)` in the order dispatch should
    /// attempt execution.
    pub ranked: Vec<(usize, CostEstimate)>,
}

/// The predictive dispatch planner: ranks candidate backends for a kernel
/// under a policy, using each backend's [`CostEstimate`] scaled by a fixed
/// [`CorrectionTable`].
///
/// The planner never mutates its table, so routing is a pure function of
/// `(kernel, policy, deadline)` — the property the concurrent `runtime`
/// crate needs so that results do not depend on scheduling history.
/// Corrections are calibrated *between* runs: harvest the observed
/// predicted-vs-actual ratios from run N's stats
/// (`runtime::stats::observe_prediction`) and construct run N+1's planner
/// with them.
#[derive(Debug, Clone)]
pub struct Planner {
    corrections: CorrectionTable,
}

impl Planner {
    /// A planner with fixed corrections; routing never drifts mid-run.
    #[must_use]
    pub fn frozen(corrections: CorrectionTable) -> Self {
        Planner { corrections }
    }

    /// Ranks the backends that should execute `kernel` under `policy`:
    /// those that estimate it, each estimate scaled by the backend's
    /// correction factor.
    ///
    /// `deadline_seconds` is the job's device-time budget, consulted only
    /// by [`DispatchPolicy::DeadlineAware`].
    ///
    /// # Errors
    ///
    /// * [`AccelError::NoBackend`] when no registered backend estimates
    ///   the kernel under the policy (`tried` lists every registered name).
    /// * [`AccelError::DeadlineUnmeetable`] when candidates exist but none
    ///   is predicted to finish inside the deadline budget.
    pub fn plan(
        &self,
        backends: &[Box<dyn Accelerator>],
        kernel: &Kernel,
        policy: DispatchPolicy,
        deadline_seconds: Option<f64>,
    ) -> Result<Plan, AccelError> {
        let mut ranked: Vec<(usize, CostEstimate)> = backends
            .iter()
            .enumerate()
            .filter(|(_, b)| policy != DispatchPolicy::CpuOnly || b.name() == "cpu")
            .filter_map(|(i, b)| {
                let factor = self.corrections.factor(b.name());
                b.estimate(kernel).map(|e| (i, e.scaled(factor)))
            })
            .collect();
        if ranked.is_empty() {
            return Err(AccelError::NoBackend {
                kernel: kernel.describe(),
                tried: backends.iter().map(|b| b.name().to_string()).collect(),
            });
        }

        // The stable sorts keep ties in registration order, preserving
        // determinism.
        let by_latency = |a: &(usize, CostEstimate), b: &(usize, CostEstimate)| {
            a.1.device_seconds.total_cmp(&b.1.device_seconds)
        };

        match policy {
            DispatchPolicy::CpuOnly => {}
            DispatchPolicy::PreferSpecialized => {
                // Compatibility ordering: non-CPU backends in registration
                // order first, then the rest.
                #[expect(
                    clippy::indexing_slicing,
                    reason = "candidate indices come from enumerate over backends"
                )]
                ranked.sort_by_key(|&(i, _)| backends[i].name() == "cpu");
            }
            DispatchPolicy::MinPredictedLatency => ranked.sort_by(by_latency),
            DispatchPolicy::MinPredictedEnergy => {
                ranked.sort_by(|a, b| a.1.energy_joules.total_cmp(&b.1.energy_joules));
            }
            DispatchPolicy::DeadlineAware => {
                ranked.sort_by(by_latency);
                if let Some(budget) = deadline_seconds {
                    let best = ranked.first().map_or(f64::INFINITY, |r| r.1.device_seconds);
                    ranked.retain(|(_, e)| e.device_seconds <= budget);
                    if ranked.is_empty() {
                        return Err(AccelError::DeadlineUnmeetable {
                            kernel: kernel.describe(),
                            deadline_seconds: budget,
                            best_seconds: best,
                        });
                    }
                    // Among the backends that fit, keep the specialist
                    // preference: the whole point of the deadline check is
                    // to fall back only when the specialist cannot finish.
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "candidate indices come from enumerate over backends"
                    )]
                    ranked.sort_by_key(|&(i, _)| backends[i].name() == "cpu");
                }
            }
        }
        Ok(Plan { ranked })
    }
}

/// How the dispatcher retries a backend that reports a *transient*
/// [`AccelError::DeviceFault`] before failing over to the next-ranked
/// candidate.
///
/// Retry `k` (1-based) sleeps `min(base_backoff · 2^(k−1), max_backoff)`
/// first — capped exponential backoff. Permanent faults are never
/// retried; they fail over immediately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first faulted attempt (0 = fail over at once).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(5),
        }
    }
}

impl RetryPolicy {
    /// A policy that retries without sleeping — what deterministic tests
    /// and bounded-wall-clock chaos runs use.
    #[must_use]
    pub fn no_backoff(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// The backoff before retry number `retry` (1-based).
    #[must_use]
    pub fn backoff(&self, retry: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let shift = retry.saturating_sub(1).min(16);
        self.base_backoff
            .saturating_mul(1u32 << shift)
            .min(self.max_backoff)
    }
}

/// When the dispatcher quarantines a backend and how often it probes for
/// recovery.
///
/// A backend that fault-exhausts `threshold` consecutive dispatches is
/// quarantined: the dispatch walk skips it so the pool degrades
/// gracefully instead of burning retries on dead hardware. Every
/// `probe_interval`-th dispatch that would have used the backend probes
/// it instead; a successful probe lifts the quarantine.
///
/// Quarantine is history-dependent: with it enabled, routing depends on
/// the order dispatches were served, so workloads that need routing to be
/// a pure function of the job (e.g. byte-for-byte determinism checks
/// across worker counts) should use [`QuarantinePolicy::disabled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinePolicy {
    /// Consecutive fault-exhausted dispatches before quarantine
    /// (`u32::MAX` disables quarantine entirely).
    pub threshold: u32,
    /// Quarantined-candidate dispatches between recovery probes.
    pub probe_interval: u64,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy {
            threshold: 2,
            probe_interval: 8,
        }
    }
}

impl QuarantinePolicy {
    /// Never quarantine (routing stays a pure function of the job).
    #[must_use]
    pub fn disabled() -> Self {
        QuarantinePolicy {
            threshold: u32::MAX,
            probe_interval: u64::MAX,
        }
    }

    /// Whether this policy can ever quarantine a backend.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.threshold != u32::MAX
    }
}

/// Fault and failover counters the host accumulates across dispatches.
///
/// The serving runtime drains this after every dispatch (success *or*
/// failure — a failed dispatch returns no report to hang counters on) and
/// folds it into `RuntimeStats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLedger {
    /// Faulted execution attempts per backend name.
    pub faults_by_backend: BTreeMap<String, u64>,
    /// Same-backend retries performed after transient faults.
    pub retries: u64,
    /// Jobs that completed on a backend other than their first-ranked
    /// candidate because an earlier candidate faulted or was quarantined.
    pub reroutes: u64,
    /// Backends newly placed under quarantine.
    pub quarantine_events: u64,
    /// Recovery probes sent to quarantined backends.
    pub recovery_probes: u64,
}

impl FaultLedger {
    /// Whether anything has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults_by_backend.is_empty()
            && self.retries == 0
            && self.reroutes == 0
            && self.quarantine_events == 0
            && self.recovery_probes == 0
    }
}

/// Per-backend quarantine bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct QuarantineEntry {
    consecutive_exhausted: u32,
    quarantined: bool,
    since_probe: u64,
}

/// Per-backend aggregate statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendStats {
    /// Kernels executed on this backend.
    pub kernels: u64,
    /// Total modelled device time (seconds).
    pub device_seconds: f64,
    /// Total backend operations.
    pub operations: u64,
}

/// A completed dispatch: which backend ran the kernel, and the execution.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchReport {
    /// Name of the backend that executed the kernel.
    pub backend: String,
    /// The execution result and cost.
    pub execution: KernelExecution,
    /// The corrected cost estimate the planner ranked this backend with.
    pub estimate: CostEstimate,
    /// Execution attempts this dispatch made, including faulted ones.
    pub attempts: u32,
    /// Faulted attempts encountered along the way (0 = clean dispatch).
    pub faults: u32,
    /// Whether the job landed on a backend other than its first-ranked
    /// candidate because an earlier candidate faulted or was quarantined.
    pub rerouted: bool,
}

/// Per-dispatch overrides threaded down from the serving layers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DispatchRequest {
    /// Reseed each candidate before executing it, making the result a
    /// pure function of `(kernel, seed)` rather than of the backend's
    /// execution history — what concurrent workers need for results that
    /// do not depend on scheduling order.
    pub reseed: Option<u64>,
    /// Override the host's default policy for this kernel only.
    pub policy: Option<DispatchPolicy>,
    /// Device-time budget in seconds for
    /// [`DispatchPolicy::DeadlineAware`].
    pub deadline_seconds: Option<f64>,
}

/// How one candidate's run through the retry loop ended.
enum AttemptEnd {
    Done(KernelExecution),
    /// Fault-exhausted: a permanent fault, or transient retries used up.
    Fault(AccelError),
    /// Estimated the kernel at planning time, refused it at execution.
    Refused,
    /// Any other backend error.
    Broken(AccelError),
}

/// One candidate's run through the retry loop.
struct Attempt {
    executions: u32,
    faults: u32,
    retries: u32,
    end: AttemptEnd,
}

/// Runs `kernel` on one candidate: the workspace's one retry loop.
///
/// A *transient* [`AccelError::DeviceFault`] is retried under `retry`'s
/// capped exponential backoff; a permanent fault or an exhausted budget
/// ends the attempt.
fn attempt(
    backend: &mut dyn Accelerator,
    kernel: &Kernel,
    reseed: Option<u64>,
    retry: RetryPolicy,
) -> Attempt {
    if let Some(seed) = reseed {
        backend.reseed(seed);
    }
    let (mut executions, mut faults, mut retries) = (0u32, 0u32, 0u32);
    let end = loop {
        executions += 1;
        match backend.execute(kernel) {
            Ok(execution) => break AttemptEnd::Done(execution),
            Err(AccelError::Unsupported { .. }) => break AttemptEnd::Refused,
            Err(error @ AccelError::DeviceFault { transient, .. }) => {
                faults += 1;
                if !transient || retries >= retry.max_retries {
                    break AttemptEnd::Fault(error);
                }
                retries += 1;
                let backoff = retry.backoff(retries);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            Err(error) => break AttemptEnd::Broken(error),
        }
    };
    Attempt {
        executions,
        faults,
        retries,
        end,
    }
}

/// One plan entry that passed the quarantine gate and ran.
struct Candidate {
    name: String,
    estimate: CostEstimate,
    run: Attempt,
}

/// What the dispatch walk has established so far, folded one candidate at
/// a time in rank order.
#[derive(Default)]
struct Walk {
    executions: u32,
    faults: u32,
    /// Whether a candidate ranked above the current one was quarantined
    /// or fault-exhausted.
    diverted: bool,
    tried: Vec<String>,
    last_fault: Option<AccelError>,
}

/// The host runtime: backends + planner + dispatch accounting.
pub struct HostRuntime {
    policy: DispatchPolicy,
    backends: Vec<Box<dyn Accelerator>>,
    stats: BTreeMap<String, BackendStats>,
    planner: Planner,
    retry: RetryPolicy,
    quarantine: QuarantinePolicy,
    quarantine_state: BTreeMap<String, QuarantineEntry>,
    ledger: FaultLedger,
}

impl std::fmt::Debug for HostRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostRuntime")
            .field("policy", &self.policy)
            .field(
                "backends",
                &self
                    .backends
                    .iter()
                    .map(|b| b.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .field("stats", &self.stats)
            .finish()
    }
}

impl HostRuntime {
    /// Creates an empty host with the given policy that plans with the
    /// cost models as they are (an identity [`CorrectionTable`]).
    #[must_use]
    pub fn new(policy: DispatchPolicy) -> Self {
        HostRuntime::with_corrections(policy, CorrectionTable::new())
    }

    /// Creates an empty host whose planner scales each backend's estimates
    /// by `corrections`. Routing stays a pure function of
    /// `(kernel, policy, deadline)`, as the concurrent `runtime` workers
    /// require for reproducible results.
    #[must_use]
    pub fn with_corrections(policy: DispatchPolicy, corrections: CorrectionTable) -> Self {
        HostRuntime {
            policy,
            backends: Vec::new(),
            stats: BTreeMap::new(),
            planner: Planner::frozen(corrections),
            retry: RetryPolicy::default(),
            quarantine: QuarantinePolicy::default(),
            quarantine_state: BTreeMap::new(),
            ledger: FaultLedger::default(),
        }
    }

    /// Sets how transient device faults are retried.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Sets when faulting backends are quarantined and probed.
    pub fn set_quarantine_policy(&mut self, quarantine: QuarantinePolicy) {
        self.quarantine = quarantine;
    }

    /// Takes the fault/failover counters accumulated since the last
    /// drain, leaving the ledger empty. The serving runtime calls this
    /// after every dispatch and folds the result into its statistics.
    pub fn drain_faults(&mut self) -> FaultLedger {
        std::mem::take(&mut self.ledger)
    }

    /// Whether the dispatch walk should skip this quarantined candidate,
    /// counting down to (and accounting for) recovery probes.
    fn quarantine_gate(&mut self, name: &str) -> bool {
        if !self.quarantine.is_enabled() {
            return false;
        }
        let interval = self.quarantine.probe_interval.max(1);
        let Some(entry) = self.quarantine_state.get_mut(name) else {
            return false;
        };
        if !entry.quarantined {
            return false;
        }
        entry.since_probe += 1;
        if entry.since_probe >= interval {
            entry.since_probe = 0;
            self.ledger.recovery_probes += 1;
            false
        } else {
            true
        }
    }

    /// A successful execution clears the backend's fault history and any
    /// quarantine.
    fn note_success(&mut self, name: &str) {
        if let Some(entry) = self.quarantine_state.get_mut(name) {
            *entry = QuarantineEntry::default();
        }
    }

    /// A fault-exhausted dispatch (permanent fault, or transient retries
    /// used up) is a strike; enough consecutive strikes quarantine the
    /// backend.
    fn note_fault_exhausted(&mut self, name: &str) {
        if !self.quarantine.is_enabled() {
            return;
        }
        let threshold = self.quarantine.threshold;
        let entry = self.quarantine_state.entry(name.to_string()).or_default();
        entry.consecutive_exhausted = entry.consecutive_exhausted.saturating_add(1);
        if !entry.quarantined && entry.consecutive_exhausted >= threshold {
            entry.quarantined = true;
            entry.since_probe = 0;
            self.ledger.quarantine_events += 1;
        }
    }

    /// Registers a backend (later registrations have lower priority).
    pub fn register(&mut self, backend: Box<dyn Accelerator>) {
        self.stats.entry(backend.name().to_string()).or_default();
        self.backends.push(backend);
    }

    /// The registered backend names, in priority order.
    #[must_use]
    pub fn backend_names(&self) -> Vec<String> {
        self.backends.iter().map(|b| b.name().to_string()).collect()
    }

    /// Ranks the backends for `kernel` without executing anything.
    ///
    /// # Errors
    ///
    /// Same planning contract as [`Planner::plan`].
    pub fn plan(
        &self,
        kernel: &Kernel,
        policy: Option<DispatchPolicy>,
        deadline_seconds: Option<f64>,
    ) -> Result<Plan, AccelError> {
        self.planner.plan(
            &self.backends,
            kernel,
            policy.unwrap_or(self.policy),
            deadline_seconds,
        )
    }

    /// Dispatches one kernel according to the policy.
    ///
    /// # Errors
    ///
    /// * [`AccelError::NoBackend`] when no backend estimates the kernel
    ///   under the policy, listing the backends considered.
    /// * [`AccelError::DeadlineUnmeetable`] from deadline-aware planning.
    /// * Propagates backend execution failures.
    pub fn dispatch(&mut self, kernel: &Kernel) -> Result<KernelExecution, AccelError> {
        self.dispatch_planned(kernel, &DispatchRequest::default())
            .map(|r| r.execution)
    }

    /// Dispatches one kernel with full per-job overrides: the planner
    /// ranks the candidates, then execution walks the ranking with fault
    /// tolerance. This is the only dispatch walk.
    ///
    /// Candidates are tried one at a time, in rank order, on the calling
    /// thread. A quarantined backend is skipped (except on recovery
    /// probes). A *transient* [`AccelError::DeviceFault`] is retried on
    /// the same backend under the [`RetryPolicy`]'s capped exponential
    /// backoff; a permanent fault — or exhausted retries — counts a strike
    /// toward quarantine and the walk moves on; a backend that refuses the
    /// kernel at execution time ([`AccelError::Unsupported`]) is passed
    /// over without a strike. The walk stops at the first success or
    /// non-fault error, so the result is the execution of the
    /// highest-ranked candidate that succeeds.
    ///
    /// Accounting: the winning execution is recorded in the per-backend
    /// stats (serving runtimes fold the report's `estimate` into their
    /// per-backend predicted-vs-actual rows through `observe_prediction`
    /// and calibrate between runs from those); every fault, retry,
    /// reroute, quarantine event and probe lands in the [`FaultLedger`]
    /// (see [`HostRuntime::drain_faults`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`HostRuntime::dispatch`]: a non-fault backend
    /// error surfaces as-is at its rank position; when every planned
    /// backend refuses the kernel at execution time, the returned
    /// [`AccelError::NoBackend`] lists them in `tried`; and when the walk
    /// ends on faults the last [`AccelError::DeviceFault`] in rank order
    /// is returned.
    pub fn dispatch_planned(
        &mut self,
        kernel: &Kernel,
        request: &DispatchRequest,
    ) -> Result<DispatchReport, AccelError> {
        let policy = request.policy.unwrap_or(self.policy);
        let plan = self
            .planner
            .plan(&self.backends, kernel, policy, request.deadline_seconds)?;
        let mut walk = Walk::default();
        for (idx, estimate) in plan.ranked {
            let name = Self::planned(&mut self.backends, idx).name().to_string();
            if self.quarantine_gate(&name) {
                walk.diverted = true;
                walk.tried.push(name);
                continue;
            }
            let backend = Self::planned(&mut self.backends, idx);
            let run = attempt(backend, kernel, request.reseed, self.retry);
            let candidate = Candidate {
                name,
                estimate,
                run,
            };
            if let Some(verdict) = self.settle(candidate, &mut walk) {
                return verdict;
            }
        }
        Err(walk.last_fault.unwrap_or_else(|| AccelError::NoBackend {
            kernel: kernel.describe(),
            tried: walk.tried,
        }))
    }

    /// The backend a plan entry refers to.
    fn planned(backends: &mut [Box<dyn Accelerator>], idx: usize) -> &mut dyn Accelerator {
        #[expect(
            clippy::indexing_slicing,
            reason = "plan indices come from enumerate over self.backends"
        )]
        backends[idx].as_mut()
    }

    /// Folds one candidate that ran into the walk: the one place a
    /// dispatch touches the ledger, the stats and the quarantine state.
    /// Returns the dispatch's verdict — the first success or non-fault
    /// error — or `None` to go on walking.
    fn settle(
        &mut self,
        candidate: Candidate,
        walk: &mut Walk,
    ) -> Option<Result<DispatchReport, AccelError>> {
        let Candidate {
            name,
            estimate,
            run,
        } = candidate;
        walk.executions += run.executions;
        walk.faults += run.faults;
        self.ledger.retries += u64::from(run.retries);
        if run.faults > 0 {
            *self
                .ledger
                .faults_by_backend
                .entry(name.clone())
                .or_default() += u64::from(run.faults);
        }
        match run.end {
            AttemptEnd::Done(execution) => {
                let entry = self.stats.entry(name.clone()).or_default();
                entry.kernels += 1;
                entry.device_seconds += execution.cost.device_seconds;
                entry.operations += execution.cost.operations;
                self.note_success(&name);
                if walk.diverted {
                    self.ledger.reroutes += 1;
                }
                Some(Ok(DispatchReport {
                    backend: name,
                    execution,
                    estimate,
                    attempts: walk.executions,
                    faults: walk.faults,
                    rerouted: walk.diverted,
                }))
            }
            AttemptEnd::Fault(error) => {
                self.note_fault_exhausted(&name);
                walk.diverted = true;
                walk.tried.push(name);
                walk.last_fault = Some(error);
                None
            }
            // Not a fault, so neither a strike nor a reroute.
            AttemptEnd::Refused => {
                walk.tried.push(name);
                None
            }
            AttemptEnd::Broken(error) => Some(Err(error)),
        }
    }

    /// Runs a workload of kernels, returning the executions in order.
    ///
    /// # Errors
    ///
    /// Fails on the first kernel that cannot be dispatched or executed.
    pub fn run_workload(&mut self, kernels: &[Kernel]) -> Result<Vec<KernelExecution>, AccelError> {
        kernels.iter().map(|k| self.dispatch(k)).collect()
    }

    /// Per-backend aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> &BTreeMap<String, BackendStats> {
        &self.stats
    }

    /// Total modelled device time across backends.
    #[must_use]
    pub fn total_device_seconds(&self) -> f64 {
        self.stats.values().map(|s| s.device_seconds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::CpuBackend;
    use crate::backends::{standard_pool, MemBackend, QuantumBackend};
    use crate::kernel::KernelResult;
    use mem::generators::planted_3sat;

    fn hetero_host() -> HostRuntime {
        let mut host = HostRuntime::new(DispatchPolicy::PreferSpecialized);
        host.register(Box::new(QuantumBackend::new(1)));
        host.register(Box::new(MemBackend::new(2)));
        host.register(Box::new(CpuBackend::new(3)));
        host
    }

    /// One dispatch, optionally reseeded, with the full report.
    fn traced(
        host: &mut HostRuntime,
        kernel: &Kernel,
        reseed: Option<u64>,
    ) -> Result<DispatchReport, AccelError> {
        host.dispatch_planned(
            kernel,
            &DispatchRequest {
                reseed,
                ..DispatchRequest::default()
            },
        )
    }

    fn full_host(policy: DispatchPolicy) -> HostRuntime {
        let mut host = HostRuntime::new(policy);
        for backend in standard_pool(7).unwrap() {
            host.register(backend);
        }
        host
    }

    #[test]
    fn specialized_dispatch_routes_by_class() {
        let mut host = hetero_host();
        host.dispatch(&Kernel::Factor { n: 15 }).unwrap();
        let inst = planted_3sat(12, 3.5, 1).unwrap();
        host.dispatch(&Kernel::SolveSat {
            formula: inst.formula,
        })
        .unwrap();
        let stats = host.stats();
        assert_eq!(stats["quantum"].kernels, 1);
        assert_eq!(stats["memcomputing"].kernels, 1);
        assert_eq!(stats["cpu"].kernels, 0);
    }

    #[test]
    fn cpu_fallback_for_unclaimed_kernels() {
        let mut host = hetero_host();
        // No oscillator backend registered: Compare falls back to CPU.
        let run = host.dispatch(&Kernel::Compare { x: 0.2, y: 0.7 }).unwrap();
        match run.result {
            KernelResult::Distance(d) => assert!((d - 0.5).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(host.stats()["cpu"].kernels, 1);
    }

    #[test]
    fn cpu_only_policy_ignores_specialized() {
        let mut host = HostRuntime::new(DispatchPolicy::CpuOnly);
        host.register(Box::new(QuantumBackend::new(1)));
        host.register(Box::new(CpuBackend::new(2)));
        host.dispatch(&Kernel::Factor { n: 21 }).unwrap();
        assert_eq!(host.stats()["cpu"].kernels, 1);
        assert_eq!(host.stats()["quantum"].kernels, 0);
    }

    #[test]
    fn no_backend_error() {
        let mut host = HostRuntime::new(DispatchPolicy::CpuOnly);
        host.register(Box::new(QuantumBackend::new(1)));
        assert!(matches!(
            host.dispatch(&Kernel::Factor { n: 15 }),
            Err(AccelError::NoBackend { .. })
        ));
    }

    #[test]
    fn workload_accumulates_stats() {
        let mut host = hetero_host();
        let kernels = vec![
            Kernel::Factor { n: 15 },
            Kernel::Search {
                n_qubits: 5,
                marked: vec![7],
            },
            Kernel::Compare { x: 0.1, y: 0.3 },
        ];
        let runs = host.run_workload(&kernels).unwrap();
        assert_eq!(runs.len(), 3);
        assert!(host.total_device_seconds() > 0.0);
        assert_eq!(host.stats()["quantum"].kernels, 2);
    }

    #[test]
    fn backend_names_in_priority_order() {
        let host = hetero_host();
        assert_eq!(host.backend_names(), vec!["quantum", "memcomputing", "cpu"]);
    }

    #[test]
    fn prefer_specialized_respects_registration_order() {
        // Quantum registered after mem: still wins Factor because it is
        // the first non-CPU backend that estimates it; mem never does.
        let mut host = HostRuntime::new(DispatchPolicy::PreferSpecialized);
        host.register(Box::new(MemBackend::new(1)));
        host.register(Box::new(QuantumBackend::new(2)));
        host.register(Box::new(CpuBackend::new(3)));
        host.dispatch(&Kernel::Factor { n: 15 }).unwrap();
        assert_eq!(host.stats()["quantum"].kernels, 1);
        assert_eq!(host.stats()["memcomputing"].kernels, 0);
    }

    #[test]
    fn prefer_specialized_falls_back_to_cpu_in_order() {
        // No specialized backend estimates Compare: the fallback scan must
        // pick the first backend overall that does, which is the CPU.
        let mut host = hetero_host();
        let report = traced(&mut host, &Kernel::Compare { x: 0.25, y: 0.75 }, None).unwrap();
        assert_eq!(report.backend, "cpu");
    }

    #[test]
    fn cpu_only_baseline_runs_every_kernel_class() {
        let mut host = HostRuntime::new(DispatchPolicy::CpuOnly);
        host.register(Box::new(QuantumBackend::new(1)));
        host.register(Box::new(MemBackend::new(2)));
        host.register(Box::new(CpuBackend::new(3)));
        let inst = planted_3sat(10, 3.5, 7).unwrap();
        let kernels = vec![
            Kernel::Factor { n: 15 },
            Kernel::Search {
                n_qubits: 4,
                marked: vec![3],
            },
            Kernel::SolveSat {
                formula: inst.formula,
            },
            Kernel::Compare { x: 0.1, y: 0.6 },
        ];
        let runs = host.run_workload(&kernels).unwrap();
        assert_eq!(runs.len(), 4);
        assert_eq!(host.stats()["cpu"].kernels, 4);
        assert_eq!(host.stats()["quantum"].kernels, 0);
        assert_eq!(host.stats()["memcomputing"].kernels, 0);
    }

    #[test]
    fn unsupported_kernel_errors_not_panics() {
        // A host with only specialized backends and a kernel none runs.
        let mut host = HostRuntime::new(DispatchPolicy::PreferSpecialized);
        host.register(Box::new(QuantumBackend::new(1)));
        host.register(Box::new(MemBackend::new(2)));
        let err = host
            .dispatch(&Kernel::Compare { x: 0.0, y: 1.0 })
            .unwrap_err();
        assert!(matches!(err, AccelError::NoBackend { .. }));
        assert!(err.to_string().contains("compare"));
    }

    #[test]
    fn stats_accounting_sums_costs() {
        let mut host = hetero_host();
        let a = host.dispatch(&Kernel::Factor { n: 15 }).unwrap();
        let b = host.dispatch(&Kernel::Factor { n: 21 }).unwrap();
        let s = host.stats()["quantum"];
        assert_eq!(s.kernels, 2);
        assert_eq!(s.operations, a.cost.operations + b.cost.operations);
        let expected = a.cost.device_seconds + b.cost.device_seconds;
        assert!((s.device_seconds - expected).abs() < 1e-15);
        assert!((host.total_device_seconds() - expected).abs() < 1e-15);
    }

    #[test]
    fn min_latency_routes_cheap_kernels_to_cpu() {
        // The crossover story: tiny problem sizes never pay for the
        // specialist. A semiprime factorization and a scalar comparison
        // are both predicted cheaper on the CPU than the quantum and
        // oscillator paths.
        let mut host = full_host(DispatchPolicy::MinPredictedLatency);
        let a = traced(&mut host, &Kernel::Factor { n: 15 }, None).unwrap();
        assert_eq!(a.backend, "cpu");
        let b = traced(&mut host, &Kernel::Compare { x: 0.2, y: 0.6 }, None).unwrap();
        assert_eq!(b.backend, "cpu");
        assert!(a.estimate.device_seconds > 0.0);
    }

    #[test]
    fn min_energy_routes_compare_to_oscillator() {
        // §III: the FAST block at 0.936 mW beats a ~1 W core on energy
        // even though its readout window is slower than three CPU ops.
        let mut host = full_host(DispatchPolicy::MinPredictedEnergy);
        let report = traced(&mut host, &Kernel::Compare { x: 0.2, y: 0.6 }, None).unwrap();
        assert_eq!(report.backend, "oscillator");
        let latency_choice = full_host(DispatchPolicy::MinPredictedLatency)
            .plan(&Kernel::Compare { x: 0.2, y: 0.6 }, None, None)
            .unwrap();
        assert_ne!(
            latency_choice.ranked[0].0, 1,
            "latency and energy policies should disagree on Compare"
        );
    }

    #[test]
    fn per_job_policy_override_wins() {
        let mut host = full_host(DispatchPolicy::PreferSpecialized);
        let report = host
            .dispatch_planned(
                &Kernel::Compare { x: 0.1, y: 0.9 },
                &DispatchRequest {
                    policy: Some(DispatchPolicy::CpuOnly),
                    ..DispatchRequest::default()
                },
            )
            .unwrap();
        assert_eq!(report.backend, "cpu");
        // The override is per job: the host's own policy is untouched.
        let report = traced(&mut host, &Kernel::Compare { x: 0.1, y: 0.9 }, None).unwrap();
        assert_eq!(report.backend, "oscillator");
    }

    #[test]
    fn deadline_aware_prefers_specialist_within_budget() {
        let mut host = full_host(DispatchPolicy::DeadlineAware);
        // A one-second device budget is astronomically generous here.
        let report = host
            .dispatch_planned(
                &Kernel::Factor { n: 15 },
                &DispatchRequest {
                    deadline_seconds: Some(1.0),
                    ..DispatchRequest::default()
                },
            )
            .unwrap();
        assert_eq!(report.backend, "quantum");
        assert!(report.estimate.device_seconds <= 1.0);
    }

    #[test]
    fn deadline_aware_falls_back_to_cpu_on_tight_budget() {
        let mut host = full_host(DispatchPolicy::DeadlineAware);
        // Quantum factoring is predicted in the tens of microseconds; a
        // 1 µs budget leaves only the CPU's few nanoseconds.
        let report = host
            .dispatch_planned(
                &Kernel::Factor { n: 15 },
                &DispatchRequest {
                    deadline_seconds: Some(1e-6),
                    ..DispatchRequest::default()
                },
            )
            .unwrap();
        assert_eq!(report.backend, "cpu");
        assert!(report.estimate.device_seconds <= 1e-6);
    }

    #[test]
    fn deadline_aware_rejects_unmeetable_budget() {
        let mut host = full_host(DispatchPolicy::DeadlineAware);
        let err = host
            .dispatch_planned(
                &Kernel::Factor { n: 15 },
                &DispatchRequest {
                    deadline_seconds: Some(1e-15),
                    ..DispatchRequest::default()
                },
            )
            .unwrap_err();
        assert!(
            matches!(err, AccelError::DeadlineUnmeetable { .. }),
            "{err}"
        );
    }

    #[test]
    fn no_backend_error_lists_candidates_tried() {
        /// Estimates everything, refuses everything at execution time —
        /// the pathological case the `tried` list exists for.
        struct Liar(&'static str);
        impl Accelerator for Liar {
            fn name(&self) -> &str {
                self.0
            }
            fn estimate(&self, _kernel: &Kernel) -> Option<CostEstimate> {
                Some(CostEstimate {
                    device_seconds: 1.0,
                    energy_joules: 1.0,
                })
            }
            fn execute(&mut self, kernel: &Kernel) -> Result<KernelExecution, AccelError> {
                Err(AccelError::Unsupported {
                    backend: self.0.into(),
                    kernel: kernel.describe(),
                })
            }
        }
        let mut host = HostRuntime::new(DispatchPolicy::PreferSpecialized);
        host.register(Box::new(Liar("alpha")));
        host.register(Box::new(Liar("beta")));
        let err = host
            .dispatch(&Kernel::Compare { x: 0.1, y: 0.2 })
            .unwrap_err();
        match err {
            AccelError::NoBackend { kernel, tried } => {
                assert!(kernel.contains("compare"));
                assert_eq!(tried, vec!["alpha".to_string(), "beta".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn corrections_steer_routing() {
        // Pin the CPU's factor up so its (truly cheap) Compare estimate
        // ranks *worse* than the oscillator window: routing must follow.
        let mut table = CorrectionTable::new();
        table.set("cpu", 1e6);
        let mut host = HostRuntime::with_corrections(DispatchPolicy::MinPredictedLatency, table);
        for backend in standard_pool(3).unwrap() {
            host.register(backend);
        }
        let report = traced(&mut host, &Kernel::Compare { x: 0.3, y: 0.4 }, None).unwrap();
        assert_eq!(report.backend, "oscillator");
    }

    /// Faults permanently for the first `fail_jobs` executions, then
    /// delegates to a healthy CPU backend.
    struct FaultyStub {
        name: &'static str,
        fail_jobs: u64,
        executions: u64,
        inner: CpuBackend,
    }

    impl FaultyStub {
        fn new(name: &'static str, fail_jobs: u64) -> Self {
            FaultyStub {
                name,
                fail_jobs,
                executions: 0,
                inner: CpuBackend::new(1),
            }
        }
    }

    impl Accelerator for FaultyStub {
        fn name(&self) -> &str {
            self.name
        }
        fn estimate(&self, kernel: &Kernel) -> Option<CostEstimate> {
            self.inner.estimate(kernel)
        }
        fn execute(&mut self, kernel: &Kernel) -> Result<KernelExecution, AccelError> {
            self.executions += 1;
            if self.executions <= self.fail_jobs {
                Err(AccelError::DeviceFault {
                    backend: self.name.to_string(),
                    transient: false,
                    detail: "stub fault".into(),
                })
            } else {
                self.inner.execute(kernel)
            }
        }
    }

    #[test]
    fn transient_faults_retry_on_the_same_backend() {
        use crate::fault::{FaultPlan, FaultSpec};
        let plan = FaultPlan::new(13).with_backend("cpu", FaultSpec::transient(1.0, 2));
        let mut host = HostRuntime::new(DispatchPolicy::CpuOnly);
        host.set_retry_policy(RetryPolicy::no_backoff(2));
        host.register(plan.wrap(Box::new(CpuBackend::new(1))));
        let burst = plan.decision("cpu", 55).transient_attempts;
        assert!(burst >= 1);
        let report = traced(&mut host, &Kernel::Factor { n: 15 }, Some(55)).unwrap();
        assert_eq!(report.backend, "cpu");
        assert_eq!(report.faults, burst);
        assert_eq!(report.attempts, burst + 1);
        assert!(!report.rerouted);
        let ledger = host.drain_faults();
        assert_eq!(ledger.retries, u64::from(burst));
        assert_eq!(ledger.reroutes, 0);
        assert_eq!(ledger.faults_by_backend["cpu"], u64::from(burst));
        assert!(
            host.drain_faults().is_empty(),
            "drain must reset the ledger"
        );
    }

    #[test]
    fn permanent_fault_fails_over_to_next_candidate() {
        let mut host = HostRuntime::new(DispatchPolicy::PreferSpecialized);
        host.register(Box::new(FaultyStub::new("flaky", u64::MAX)));
        host.register(Box::new(CpuBackend::new(2)));
        let report = traced(&mut host, &Kernel::Factor { n: 15 }, Some(7)).unwrap();
        assert_eq!(report.backend, "cpu");
        assert!(report.rerouted);
        assert_eq!(report.faults, 1, "permanent faults are not retried");
        let ledger = host.drain_faults();
        assert_eq!(ledger.faults_by_backend["flaky"], 1);
        assert_eq!(ledger.reroutes, 1);
        assert_eq!(ledger.retries, 0);
    }

    #[test]
    fn exhausted_retries_fail_over() {
        use crate::fault::{FaultPlan, FaultSpec};
        // A burst longer than the retry budget: the dispatcher gives up
        // on the faulty backend and lands on the healthy one.
        let plan = FaultPlan::new(21).with_backend("flaky", FaultSpec::transient(1.0, 1));
        let mut host = HostRuntime::new(DispatchPolicy::PreferSpecialized);
        host.set_retry_policy(RetryPolicy::no_backoff(0));
        host.register(plan.wrap(Box::new(FaultyStub::new("flaky", 0))));
        host.register(Box::new(CpuBackend::new(2)));
        let report = traced(&mut host, &Kernel::Factor { n: 15 }, Some(9)).unwrap();
        assert_eq!(report.backend, "cpu");
        assert!(report.rerouted);
        let ledger = host.drain_faults();
        assert_eq!(ledger.retries, 0);
        assert_eq!(ledger.reroutes, 1);
    }

    #[test]
    fn every_candidate_faulted_returns_device_fault() {
        let mut host = HostRuntime::new(DispatchPolicy::CpuOnly);
        host.set_retry_policy(RetryPolicy::no_backoff(1));
        host.register(Box::new(FaultyStub::new("cpu", u64::MAX)));
        let err = traced(&mut host, &Kernel::Factor { n: 15 }, Some(3)).unwrap_err();
        assert!(
            matches!(
                err,
                AccelError::DeviceFault {
                    transient: false,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(host.drain_faults().faults_by_backend["cpu"], 1);
    }

    #[test]
    fn quarantine_skips_dead_backend_and_probes_for_recovery() {
        let mut host = HostRuntime::new(DispatchPolicy::PreferSpecialized);
        host.set_retry_policy(RetryPolicy::no_backoff(0));
        host.set_quarantine_policy(QuarantinePolicy {
            threshold: 2,
            probe_interval: 3,
        });
        host.register(Box::new(FaultyStub::new("dead", u64::MAX)));
        host.register(Box::new(CpuBackend::new(2)));
        for seed in 0..10u64 {
            let report = traced(&mut host, &Kernel::Factor { n: 15 }, Some(seed)).unwrap();
            assert_eq!(report.backend, "cpu");
            assert!(report.rerouted);
        }
        let ledger = host.drain_faults();
        // Dispatches 1–2 strike the dead backend and quarantine it; the
        // walk then skips it except on every 3rd would-be use (probes at
        // dispatches 5 and 8), which fault again and keep it quarantined.
        assert_eq!(ledger.faults_by_backend["dead"], 4);
        assert_eq!(ledger.quarantine_events, 1);
        assert_eq!(ledger.recovery_probes, 2);
        assert_eq!(ledger.reroutes, 10);
    }

    #[test]
    fn successful_probe_lifts_quarantine() {
        let mut host = HostRuntime::new(DispatchPolicy::PreferSpecialized);
        host.set_retry_policy(RetryPolicy::no_backoff(0));
        host.set_quarantine_policy(QuarantinePolicy {
            threshold: 2,
            probe_interval: 1,
        });
        // Faults twice, then heals.
        host.register(Box::new(FaultyStub::new("healing", 2)));
        host.register(Box::new(CpuBackend::new(2)));
        for seed in 0..4u64 {
            let report = traced(&mut host, &Kernel::Factor { n: 15 }, Some(seed)).unwrap();
            match seed {
                0 | 1 => assert_eq!(report.backend, "cpu"),
                // Dispatch 3 probes immediately (interval 1), the backend
                // has healed, and the quarantine lifts.
                _ => assert_eq!(report.backend, "healing"),
            }
        }
        let ledger = host.drain_faults();
        assert_eq!(ledger.quarantine_events, 1);
        assert_eq!(ledger.recovery_probes, 1);
        assert_eq!(ledger.faults_by_backend["healing"], 2);
    }

    #[test]
    fn disabled_quarantine_keeps_routing_pure() {
        let mut host = HostRuntime::new(DispatchPolicy::PreferSpecialized);
        host.set_retry_policy(RetryPolicy::no_backoff(0));
        host.set_quarantine_policy(QuarantinePolicy::disabled());
        host.register(Box::new(FaultyStub::new("dead", u64::MAX)));
        host.register(Box::new(CpuBackend::new(2)));
        for seed in 0..6u64 {
            let report = traced(&mut host, &Kernel::Factor { n: 15 }, Some(seed)).unwrap();
            assert_eq!(report.backend, "cpu");
        }
        let ledger = host.drain_faults();
        // Every dispatch tried the dead backend: no skips, no probes.
        assert_eq!(ledger.faults_by_backend["dead"], 6);
        assert_eq!(ledger.quarantine_events, 0);
        assert_eq!(ledger.recovery_probes, 0);
    }

    #[test]
    fn the_walk_goes_on_past_two_dead_candidates() {
        let mut host = HostRuntime::new(DispatchPolicy::PreferSpecialized);
        host.set_retry_policy(RetryPolicy::no_backoff(0));
        host.set_quarantine_policy(QuarantinePolicy {
            threshold: 1,
            probe_interval: 8,
        });
        host.register(Box::new(FaultyStub::new("a", u64::MAX)));
        host.register(Box::new(FaultyStub::new("b", u64::MAX)));
        host.register(Box::new(CpuBackend::new(2)));
        let report = traced(&mut host, &Kernel::Factor { n: 15 }, Some(7)).unwrap();
        assert_eq!(report.backend, "cpu");
        assert!(report.rerouted);
        assert_eq!(report.faults, 2);
        assert_eq!(report.attempts, 3);
        let ledger = host.drain_faults();
        assert_eq!(ledger.reroutes, 1);
        // Threshold 1: both dead candidates are quarantined.
        assert_eq!(ledger.quarantine_events, 2);
    }

    #[test]
    fn two_dead_candidates_and_no_fallback_return_the_last_fault() {
        let mut host = HostRuntime::new(DispatchPolicy::PreferSpecialized);
        host.set_retry_policy(RetryPolicy::no_backoff(0));
        host.register(Box::new(FaultyStub::new("a", u64::MAX)));
        host.register(Box::new(FaultyStub::new("b", u64::MAX)));
        let err = traced(&mut host, &Kernel::Factor { n: 15 }, None).unwrap_err();
        assert!(
            matches!(&err, AccelError::DeviceFault { backend, .. } if backend == "b"),
            "{err}"
        );
        let ledger = host.drain_faults();
        assert_eq!(ledger.faults_by_backend["a"], 1);
        assert_eq!(ledger.faults_by_backend["b"], 1);
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let retry = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
        };
        assert_eq!(retry.backoff(1), Duration::from_millis(1));
        assert_eq!(retry.backoff(2), Duration::from_millis(2));
        assert_eq!(retry.backoff(3), Duration::from_millis(4));
        assert_eq!(retry.backoff(10), Duration::from_millis(4));
        assert_eq!(RetryPolicy::no_backoff(2).backoff(1), Duration::ZERO);
    }

    #[test]
    fn a_huge_base_backoff_saturates_to_the_cap() {
        let retry = RetryPolicy {
            max_retries: 20,
            base_backoff: Duration::from_secs(u64::MAX / 1000),
            max_backoff: Duration::from_millis(5),
        };
        assert_eq!(retry.backoff(17), Duration::from_millis(5));
    }

    #[test]
    fn seeded_dispatch_is_reproducible() {
        // Same (kernel, seed) must yield identical results regardless of
        // how many executions the backend ran before — the property the
        // concurrent runtime depends on.
        let kernel = Kernel::DnaSimilarity {
            a: "ACGTACGTACGT".into(),
            b: "ACGTTCGTACGA".into(),
            k: 2,
        };
        let mut host = hetero_host();
        let first = traced(&mut host, &kernel, Some(99)).unwrap();
        // Burn executions to advance backend state.
        host.dispatch(&Kernel::Factor { n: 15 }).unwrap();
        traced(&mut host, &kernel, Some(11)).unwrap();
        let again = traced(&mut host, &kernel, Some(99)).unwrap();
        assert_eq!(first.backend, again.backend);
        assert_eq!(first.execution.result, again.execution.result);
    }
}
