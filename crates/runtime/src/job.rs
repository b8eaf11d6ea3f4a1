//! Job lifecycle: submission options, outcomes, and the caller-side handle.
//!
//! A submitted job is shared between the submitting thread and the worker
//! that eventually executes it through a `JobState` cell: one `Mutex` over
//! the outcome and the completion callbacks still waiting for it, a
//! `Condvar` for blocked waiters, and an atomic cancellation flag. Exactly
//! one party installs the outcome — whoever wins the race between
//! completion, timeout, and cancellation — and the cell is write-once
//! thereafter.

use accel::host::DispatchPolicy;
use accel::kernel::KernelExecution;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Per-job submission options.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobOptions {
    /// Maximum time the job may spend *queued*. A job still waiting when
    /// its deadline passes resolves to [`JobOutcome::TimedOut`] instead of
    /// executing. `None` falls back to the runtime's default timeout.
    ///
    /// The timeout doubles as the job's device-time budget under
    /// [`DispatchPolicy::DeadlineAware`]: the planner refuses backends
    /// whose corrected estimate exceeds it. Using the *budget* (not
    /// remaining wall time) keeps routing a pure function of the
    /// submission, independent of queueing delays.
    pub timeout: Option<Duration>,
    /// Explicit execution seed. When set, the backend is reseeded with
    /// exactly this value instead of one derived from
    /// `(master seed, job id)`, making the result a pure function of
    /// `(kernel, seed)` regardless of submission order — which is what
    /// remote callers racing each other over the network need for
    /// reproducible runs.
    pub seed: Option<u64>,
    /// Per-job dispatch policy override. `None` uses the runtime's
    /// configured policy; `Some` reroutes just this job — e.g. a
    /// latency-critical request on a throughput-tuned runtime.
    pub policy: Option<DispatchPolicy>,
}

impl JobOptions {
    /// Options with an explicit queue timeout.
    #[must_use]
    pub fn with_timeout(timeout: Duration) -> Self {
        JobOptions {
            timeout: Some(timeout),
            ..Self::default()
        }
    }

    /// Options with an explicit execution seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        JobOptions {
            seed: Some(seed),
            ..Self::default()
        }
    }
}

/// The terminal state of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The kernel executed.
    Completed {
        /// Name of the backend that ran the kernel.
        backend: String,
        /// The kernel result and modelled device cost.
        execution: KernelExecution,
        /// Host wall-clock time spent executing (not queueing).
        wall: Duration,
    },
    /// The backend returned an error (rendered, since backend errors are
    /// not `Clone` and an outcome may be read by several waiters).
    Failed(String),
    /// The job's queue deadline passed before a worker picked it up.
    TimedOut,
    /// The job was cancelled before it completed.
    Cancelled,
}

impl JobOutcome {
    /// Whether the job produced a kernel execution.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed { .. })
    }
}

/// The shared completion cell. Crate-internal; callers interact through
/// [`JobHandle`].
#[derive(Debug)]
pub(crate) struct JobState {
    cancel_requested: AtomicBool,
    slot: Mutex<Slot>,
    /// Waits on `slot`; notified once the outcome is installed.
    done: Condvar,
}

/// What [`JobState`]'s one lock guards.
#[derive(Default)]
struct Slot {
    outcome: Option<JobOutcome>,
    /// Completion callbacks registered through [`JobHandle::on_finish`]
    /// while the job was pending, run exactly once by whichever party
    /// installs the outcome.
    watchers: Vec<Watcher>,
}

type Watcher = Box<dyn FnOnce(&JobOutcome) + Send>;

/// Only a `before_publish` hook runs while the slot is locked, so only a
/// panicking hook poisons it.
const POISONED: &str = "job slot poisoned by a panicking before_publish hook";

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("outcome", &self.outcome)
            .field("watchers", &self.watchers.len())
            .finish()
    }
}

impl JobState {
    pub(crate) fn new() -> Self {
        JobState {
            cancel_requested: AtomicBool::new(false),
            slot: Mutex::new(Slot::default()),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().expect(POISONED)
    }

    /// Installs `outcome` if no outcome is set yet, waking all waiters.
    /// Returns whether this call won the installation race.
    pub(crate) fn finish(&self, outcome: JobOutcome) -> bool {
        self.finish_then(outcome, |_| {})
    }

    /// Like [`JobState::finish`], but runs `before_publish` on the
    /// outcome while still holding the state lock — i.e. strictly before
    /// any waiter can observe it. Workers use this to account a job in
    /// the runtime statistics so a caller that has seen the result is
    /// guaranteed to see it counted.
    pub(crate) fn finish_then(
        &self,
        outcome: JobOutcome,
        before_publish: impl FnOnce(&JobOutcome),
    ) -> bool {
        let mut slot = self.lock();
        if slot.outcome.is_some() {
            return false;
        }
        before_publish(&outcome);
        slot.outcome = Some(outcome.clone());
        // Registration checks the outcome under the same lock, so every
        // callback either is drained here or sees the outcome installed.
        let watchers = std::mem::take(&mut slot.watchers);
        drop(slot);
        self.done.notify_all();
        // Callbacks run outside the lock: they may take other locks, or
        // read this job again.
        for watcher in watchers {
            watcher(&outcome);
        }
        true
    }

    pub(crate) fn cancel_requested(&self) -> bool {
        self.cancel_requested.load(Ordering::Acquire)
    }

    pub(crate) fn outcome(&self) -> Option<JobOutcome> {
        self.lock().outcome.clone()
    }
}

/// The caller's view of a submitted job.
///
/// Cloneable so several threads can await the same job; all clones observe
/// the same outcome.
#[derive(Debug, Clone)]
pub struct JobHandle {
    pub(crate) state: Arc<JobState>,
}

impl JobHandle {
    pub(crate) fn new(state: Arc<JobState>) -> Self {
        JobHandle { state }
    }

    /// The outcome, if the job has finished; `None` while pending.
    ///
    /// # Panics
    ///
    /// Panics if the job's state mutex was poisoned.
    #[must_use]
    pub fn try_result(&self) -> Option<JobOutcome> {
        self.state.outcome()
    }

    /// Blocks until the job finishes and returns its outcome.
    ///
    /// # Panics
    ///
    /// Panics if the job's state mutex was poisoned.
    #[must_use]
    pub fn wait(&self) -> JobOutcome {
        let mut slot = self.state.lock();
        loop {
            if let Some(outcome) = &slot.outcome {
                return outcome.clone();
            }
            slot = self.state.done.wait(slot).expect(POISONED);
        }
    }

    /// Blocks up to `timeout` for the job to finish; `None` if it is still
    /// pending when the wait expires.
    ///
    /// # Panics
    ///
    /// Panics if the job's state mutex was poisoned.
    #[must_use]
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        #[expect(
            clippy::disallowed_methods,
            reason = "caller-side wait deadline; never enters the job result"
        )]
        let deadline = std::time::Instant::now() + timeout;
        let mut slot = self.state.lock();
        loop {
            if slot.outcome.is_some() {
                return slot.outcome.clone();
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "caller-side wait deadline; never enters the job result"
            )]
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timed_out) = self
                .state
                .done
                .wait_timeout(slot, deadline - now)
                .expect(POISONED);
            slot = guard;
        }
    }

    /// Registers a completion callback, run exactly once with the job's
    /// outcome: immediately on this thread if the job already finished,
    /// otherwise on whichever thread later installs the outcome (worker,
    /// canceller, or timeout path). Event-driven callers — the cluster
    /// tier's event-loop server — use this instead of parking a waiter
    /// thread per job; callbacks must therefore be short and non-blocking.
    ///
    /// # Panics
    ///
    /// Panics if the job's state mutex was poisoned.
    pub fn on_finish(&self, callback: impl FnOnce(&JobOutcome) + Send + 'static) {
        let mut slot = self.state.lock();
        match slot.outcome.clone() {
            Some(outcome) => {
                drop(slot);
                callback(&outcome);
            }
            None => slot.watchers.push(Box::new(callback)),
        }
    }

    /// Requests cooperative cancellation.
    ///
    /// Returns `true` iff this call settled the job as
    /// [`JobOutcome::Cancelled`] — i.e. cancellation won the race against
    /// completion. A `false` return means the job had already finished (or
    /// another canceller won), and [`JobHandle::try_result`] shows the
    /// actual outcome. A job already picked up by a worker is not
    /// preempted: if its execution finishes after this call, the worker's
    /// result loses the race and is discarded.
    pub fn cancel(&self) -> bool {
        self.state.cancel_requested.store(true, Ordering::Release);
        self.state.finish(JobOutcome::Cancelled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn handle() -> JobHandle {
        JobHandle::new(Arc::new(JobState::new()))
    }

    #[test]
    fn outcome_installs_once() {
        let h = handle();
        assert!(h.state.finish(JobOutcome::TimedOut));
        assert!(!h.state.finish(JobOutcome::Cancelled));
        assert_eq!(h.try_result(), Some(JobOutcome::TimedOut));
    }

    #[test]
    fn pending_job_reports_none() {
        let h = handle();
        assert_eq!(h.try_result(), None);
        assert_eq!(h.wait_timeout(Duration::from_millis(10)), None);
    }

    #[test]
    fn wait_unblocks_on_finish() {
        let h = handle();
        let waiter = {
            let h = h.clone();
            thread::spawn(move || h.wait())
        };
        thread::sleep(Duration::from_millis(20));
        assert!(h.state.finish(JobOutcome::Failed("boom".into())));
        assert_eq!(waiter.join().unwrap(), JobOutcome::Failed("boom".into()));
    }

    #[test]
    fn cancel_before_finish_wins() {
        let h = handle();
        assert!(h.cancel());
        assert!(h.state.cancel_requested());
        // A worker finishing late loses the race.
        assert!(!h.state.finish(JobOutcome::TimedOut));
        assert_eq!(h.try_result(), Some(JobOutcome::Cancelled));
    }

    #[test]
    fn cancel_after_finish_loses() {
        let h = handle();
        assert!(h.state.finish(JobOutcome::TimedOut));
        assert!(!h.cancel());
        assert_eq!(h.try_result(), Some(JobOutcome::TimedOut));
    }

    #[test]
    fn on_finish_fires_when_outcome_installs() {
        use std::sync::mpsc;
        let h = handle();
        let (tx, rx) = mpsc::channel();
        h.on_finish(move |o| tx.send(o.clone()).unwrap());
        assert!(rx.try_recv().is_err(), "must not fire before completion");
        assert!(h.state.finish(JobOutcome::TimedOut));
        assert_eq!(rx.recv().unwrap(), JobOutcome::TimedOut);
    }

    #[test]
    fn on_finish_after_completion_fires_immediately() {
        use std::sync::mpsc;
        let h = handle();
        assert!(h.cancel());
        let (tx, rx) = mpsc::channel();
        h.on_finish(move |o| tx.send(o.clone()).unwrap());
        assert_eq!(rx.try_recv().unwrap(), JobOutcome::Cancelled);
    }

    #[test]
    fn on_finish_races_with_finish_never_lose_a_callback() {
        use std::sync::atomic::AtomicUsize;
        for _ in 0..64 {
            let h = handle();
            let fired = Arc::new(AtomicUsize::new(0));
            let finisher = {
                let h = h.clone();
                thread::spawn(move || h.state.finish(JobOutcome::TimedOut))
            };
            let registrar = {
                let h = h.clone();
                let fired = Arc::clone(&fired);
                thread::spawn(move || {
                    h.on_finish(move |_| {
                        fired.fetch_add(1, Ordering::SeqCst);
                    });
                })
            };
            finisher.join().unwrap();
            registrar.join().unwrap();
            assert_eq!(fired.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn a_callback_may_read_its_own_job() {
        // Callbacks run outside the slot lock, whether the job was pending
        // or already settled when they registered. A callback run under
        // the lock deadlocks its thread, so the reads are awaited with a
        // timeout.
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel();
        let worker = thread::spawn(move || {
            let h = handle();
            let (pending, settled, early) = (h.clone(), h.clone(), tx.clone());
            h.on_finish(move |_| early.send(pending.try_result()).unwrap());
            h.state.finish(JobOutcome::TimedOut);
            h.on_finish(move |_| tx.send(settled.try_result()).unwrap());
        });
        for _ in 0..2 {
            let read = rx.recv_timeout(Duration::from_secs(5));
            assert_eq!(read, Ok(Some(JobOutcome::TimedOut)));
        }
        worker.join().unwrap();
    }

    #[test]
    fn a_callback_registered_during_publication_fires_once() {
        // The registrar starts while the publisher holds the slot lock
        // (`before_publish` runs under it), and must get the outcome once
        // the publisher lets go, not deadlock against it. The short sleep
        // after the handshake lets the registrar reach the lock; the
        // outcome is the same if it has not.
        use std::sync::mpsc;
        let h = handle();
        let registrant = h.clone();
        let (tx, rx) = mpsc::channel();
        let publisher = thread::spawn(move || {
            let mut registrar = None;
            let installed = h.state.finish_then(JobOutcome::TimedOut, |_| {
                let (ready_tx, ready_rx) = mpsc::channel();
                registrar = Some(thread::spawn(move || {
                    ready_tx.send(()).unwrap();
                    registrant.on_finish(move |o| tx.send(o.clone()).unwrap());
                }));
                ready_rx.recv().unwrap();
                thread::sleep(Duration::from_millis(20));
            });
            (installed, registrar)
        });
        let fired = rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(fired, Ok(JobOutcome::TimedOut));
        let (installed, registrar) = publisher.join().unwrap();
        assert!(installed);
        registrar.unwrap().join().unwrap();
        assert!(rx.recv().is_err(), "the callback fired twice");
    }

    #[test]
    fn clones_observe_same_outcome() {
        let h = handle();
        let h2 = h.clone();
        assert!(h.state.finish(JobOutcome::TimedOut));
        assert_eq!(h2.wait(), JobOutcome::TimedOut);
    }
}
