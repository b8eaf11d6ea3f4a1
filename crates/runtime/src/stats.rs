//! Serving statistics: counters, per-backend throughput, latency histogram.
//!
//! Workers record into a shared `StatsCollector` (a mutexed accumulator);
//! [`crate::Runtime::stats`] snapshots it into an owned [`RuntimeStats`]
//! that renders as a small serving report.
//!
//! Every field a snapshot carries is a row of one table:
//! [`RUNTIME_FIELDS`] for [`RuntimeStats`], [`BACKEND_FIELDS`] for each
//! [`BackendThroughput`]. The wire's stats codec and [`RuntimeStats::absorb`]
//! both walk those tables, so a new counter is one field plus one row.

use accel::host::{CorrectionTable, FaultLedger, CORRECTION_ALPHA};
use accel::kernel::CostEstimate;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;
use std::time::Duration;

/// Upper bounds (inclusive, microseconds) of the latency histogram buckets;
/// one extra unbounded bucket catches everything slower.
pub const LATENCY_BOUNDS_US: [u64; 7] = [10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Number of histogram buckets ([`LATENCY_BOUNDS_US`] plus the overflow).
pub const LATENCY_BUCKETS: usize = LATENCY_BOUNDS_US.len() + 1;

/// A fixed-bucket latency histogram over power-of-ten microsecond bounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A histogram with the given per-bucket counts (lowest bucket
    /// first) — the constructor wire decoders use to rebuild a snapshot.
    #[must_use]
    pub fn from_counts(counts: [u64; LATENCY_BUCKETS]) -> Self {
        LatencyHistogram { counts }
    }

    /// Adds every observation of `other` into this histogram, bucket by
    /// bucket (used to aggregate per-client histograms). A bucket
    /// saturates at `u64::MAX`: `other` may come off the wire.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = LATENCY_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.counts[idx] += 1;
    }

    /// Per-bucket observation counts, lowest bucket first.
    #[must_use]
    pub fn counts(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.counts
    }

    /// Total observations, saturating at `u64::MAX`.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().fold(0, |sum, &c| sum.saturating_add(c))
    }

    /// Human label for bucket `idx`, e.g. `"≤1ms"` or `">10s"`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= LATENCY_BUCKETS`.
    #[must_use]
    pub(crate) fn bucket_label(idx: usize) -> String {
        fn us_label(us: u64) -> String {
            match us {
                us if us >= 1_000_000 => format!("{}s", us / 1_000_000),
                us if us >= 1_000 => format!("{}ms", us / 1_000),
                us => format!("{us}\u{00b5}s"),
            }
        }
        assert!(idx < LATENCY_BUCKETS, "bucket index out of range");
        if idx < LATENCY_BOUNDS_US.len() {
            format!("\u{2264}{}", us_label(LATENCY_BOUNDS_US[idx]))
        } else {
            format!(
                ">{}",
                us_label(LATENCY_BOUNDS_US[LATENCY_BOUNDS_US.len() - 1])
            )
        }
    }
}

/// Where one field of a stats struct `T` lives, in both borrows, and how
/// two snapshots of it merge.
pub enum Slot<T> {
    /// A `u64` count: merged snapshots add, saturating at `u64::MAX`.
    Count(fn(&T) -> &u64, fn(&mut T) -> &mut u64),
    /// An `f64` total: merged snapshots add.
    Total(fn(&T) -> &f64, fn(&mut T) -> &mut f64),
    /// An `f64` per-job average: merged rows weigh it by their jobs
    /// (`BackendThroughput::absorb`).
    Mean(fn(&T) -> &f64, fn(&mut T) -> &mut f64),
    /// A latency histogram: merged snapshots add bucket by bucket.
    Histogram(
        fn(&T) -> &LatencyHistogram,
        fn(&mut T) -> &mut LatencyHistogram,
    ),
}

/// One row of a stats table: a field's wire name and its [`Slot`].
pub struct Field<T> {
    /// The name the field travels under (its Rust name).
    pub name: &'static str,
    /// Where the field lives and how it merges.
    pub slot: Slot<T>,
}

impl<T> Field<T> {
    /// Whether `a` and `b` hold the same bits in this field. An encoder
    /// leaves out a field that is still at its default.
    pub fn same(&self, a: &T, b: &T) -> bool {
        match self.slot {
            Slot::Count(get, _) => get(a) == get(b),
            Slot::Total(get, _) | Slot::Mean(get, _) => get(a).to_bits() == get(b).to_bits(),
            Slot::Histogram(get, _) => get(a) == get(b),
        }
    }
}

/// A field table: one `Slot kind field` row per field, named after it.
macro_rules! fields {
    ($($slot:ident $field:ident),* $(,)?) => {
        &[$(Field {
            name: stringify!($field),
            slot: Slot::$slot(|s| &s.$field, |s| &mut s.$field),
        }),*]
    };
}

/// Every field of [`RuntimeStats`] but `per_backend`, in wire order.
pub const RUNTIME_FIELDS: &[Field<RuntimeStats>] = fields![
    Count submitted,
    Count completed,
    Count failed,
    Count rejected,
    Count invalid,
    Count timed_out,
    Count cancelled,
    Count queue_depth,
    Count workers,
    Count backend_faults,
    Count retries,
    Count reroutes,
    Count quarantine_events,
    Count recovery_probes,
    Count cache_hits,
    Count cache_misses,
    Count cache_evictions,
    Count coalesced,
    Histogram latency,
];

/// Every field of [`BackendThroughput`], in wire order.
pub const BACKEND_FIELDS: &[Field<BackendThroughput>] = fields![
    Count jobs,
    Total device_seconds,
    Count operations,
    Total busy_seconds,
    Total predicted_device_seconds,
    Mean ewma_correction,
    Mean ewma_error,
    Count faults,
];

/// Folds `other` into `into` row by row: counts add (saturating), totals
/// add, histograms merge, and each mean becomes `mean(mine, theirs)`.
fn absorb_fields<T>(fields: &[Field<T>], into: &mut T, other: &T, mean: impl Fn(f64, f64) -> f64) {
    for field in fields {
        match field.slot {
            Slot::Count(get, set) => {
                let mine = set(into);
                *mine = mine.saturating_add(*get(other));
            }
            Slot::Total(get, set) => *set(into) += *get(other),
            Slot::Mean(get, set) => {
                let mine = set(into);
                *mine = mean(*mine, *get(other));
            }
            Slot::Histogram(get, set) => set(into).merge(get(other)),
        }
    }
}

/// Aggregate work routed to one backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendThroughput {
    /// Jobs completed on this backend.
    pub jobs: u64,
    /// Total modelled device time (seconds).
    pub device_seconds: f64,
    /// Total backend operations.
    pub operations: u64,
    /// Host wall-clock seconds the backend spent executing.
    pub busy_seconds: f64,
    /// Total device time the planner *predicted* for the jobs it routed
    /// here (corrected estimates, as used for ranking). Comparing this
    /// against [`BackendThroughput::device_seconds`] is the
    /// predicted-vs-actual ledger of the cost model.
    pub predicted_device_seconds: f64,
    /// EWMA of the per-job actual/predicted device-time ratio: the
    /// correction factor a follow-up run should fold into its planner
    /// (1.0 means the model has been spot-on as corrected).
    pub ewma_correction: f64,
    /// EWMA of the per-job relative prediction error
    /// `|predicted − actual| / actual`; shrinks as calibration converges.
    pub ewma_error: f64,
    /// Device faults this backend raised during dispatch (transient and
    /// permanent alike, including faults on attempts that were later
    /// retried or failed over). A backend can accumulate faults without
    /// completing any jobs.
    pub faults: u64,
}

impl Default for BackendThroughput {
    fn default() -> Self {
        BackendThroughput {
            jobs: 0,
            device_seconds: 0.0,
            operations: 0,
            busy_seconds: 0.0,
            predicted_device_seconds: 0.0,
            ewma_correction: 1.0,
            ewma_error: 0.0,
            faults: 0,
        }
    }
}

impl BackendThroughput {
    /// Completed jobs per host wall-clock second spent on this backend
    /// (0 when the backend never ran).
    #[must_use]
    pub(crate) fn jobs_per_second(&self) -> f64 {
        if self.busy_seconds > 0.0 {
            self.jobs as f64 / self.busy_seconds
        } else {
            0.0
        }
    }

    /// Folds another shard's row for the same backend into this one.
    /// Counters add; the EWMA calibration pair becomes the jobs-weighted
    /// mean (each shard's EWMA summarises its own job stream, so weighting
    /// by jobs keeps the merged value an honest average observation).
    pub(crate) fn absorb(&mut self, other: &BackendThroughput) {
        let total = self.jobs as f64 + other.jobs as f64;
        let mine = self.jobs as f64 / total;
        let theirs = other.jobs as f64 / total;
        absorb_fields(BACKEND_FIELDS, self, other, |a, b| {
            if total > 0.0 {
                mine * a + theirs * b
            } else {
                a
            }
        });
    }

    fn observe_prediction(&mut self, predicted: CostEstimate, actual_seconds: f64) {
        self.predicted_device_seconds += predicted.device_seconds;
        if predicted.device_seconds > 0.0 && actual_seconds.is_finite() && actual_seconds >= 0.0 {
            let ratio = (actual_seconds / predicted.device_seconds).clamp(1e-3, 1e3);
            self.ewma_correction =
                (1.0 - CORRECTION_ALPHA) * self.ewma_correction + CORRECTION_ALPHA * ratio;
            let rel_err = (predicted.device_seconds - actual_seconds).abs()
                / actual_seconds.max(f64::MIN_POSITIVE);
            self.ewma_error =
                (1.0 - CORRECTION_ALPHA) * self.ewma_error + CORRECTION_ALPHA * rel_err.min(1e3);
        }
    }
}

/// A point-in-time snapshot of the serving engine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs that executed and returned a result.
    pub completed: u64,
    /// Jobs whose backend returned an error.
    pub failed: u64,
    /// Non-blocking submissions rejected because the queue was full.
    pub rejected: u64,
    /// Submissions rejected by kernel validation before queueing.
    pub invalid: u64,
    /// Jobs whose queue deadline expired before execution.
    pub timed_out: u64,
    /// Jobs cancelled before completion.
    pub cancelled: u64,
    /// Items waiting in the queue at snapshot time.
    pub queue_depth: u64,
    /// Worker threads serving the queue.
    pub workers: u64,
    /// Completed-job accounting per backend name.
    pub per_backend: BTreeMap<String, BackendThroughput>,
    /// Queue-to-completion latency of completed jobs.
    pub latency: LatencyHistogram,
    /// Device faults raised by backends during dispatch (sum of the
    /// per-backend [`BackendThroughput::faults`] counters).
    pub backend_faults: u64,
    /// Same-backend retries after transient faults.
    pub retries: u64,
    /// Jobs that completed on a different backend than first tried
    /// because an earlier candidate faulted or was quarantined.
    pub reroutes: u64,
    /// Backends placed under quarantine after repeated fault-exhausted
    /// dispatches.
    pub quarantine_events: u64,
    /// Recovery probes sent to quarantined backends.
    pub recovery_probes: u64,
    /// Submissions served straight from the admission tier's result cache
    /// (counted in [`RuntimeStats::completed`] but never in
    /// [`RuntimeStats::per_backend`]: no backend executed).
    pub cache_hits: u64,
    /// Cacheable submissions that found nothing stored and queued as the
    /// lead execution for their key. Every keyed submission lands in
    /// exactly one of [`RuntimeStats::cache_hits`],
    /// [`RuntimeStats::coalesced`], or this counter.
    pub cache_misses: u64,
    /// Cache entries displaced by capacity pressure.
    pub cache_evictions: u64,
    /// Submissions that attached as waiters to an identical in-flight
    /// job instead of queueing their own execution.
    pub coalesced: u64,
}

impl RuntimeStats {
    /// Jobs that reached a terminal state (any kind).
    #[must_use]
    pub fn settled(&self) -> u64 {
        [self.failed, self.timed_out, self.cancelled]
            .iter()
            .fold(self.completed, |sum, &n| sum.saturating_add(n))
    }

    /// Total predicted device time across backends (corrected estimates).
    #[must_use]
    pub fn total_predicted_device_seconds(&self) -> f64 {
        self.per_backend
            .values()
            .map(|t| t.predicted_device_seconds)
            .sum()
    }

    /// Total actual device time across backends.
    #[must_use]
    pub fn total_device_seconds(&self) -> f64 {
        self.per_backend.values().map(|t| t.device_seconds).sum()
    }

    /// Folds another runtime's snapshot into this one — the cluster-level
    /// aggregation a router uses to present N shards as one logical
    /// runtime. Every row of [`RUNTIME_FIELDS`] adds (counters saturate:
    /// a shard's snapshot comes off the wire), the latency histograms
    /// merge bucket-wise, and per-backend rows with the same name are
    /// combined with `BackendThroughput::absorb`.
    pub fn absorb(&mut self, other: &RuntimeStats) {
        absorb_fields(RUNTIME_FIELDS, self, other, |mine, _| mine);
        for (name, theirs) in &other.per_backend {
            self.per_backend
                .entry(name.clone())
                .or_default()
                .absorb(theirs);
        }
    }

    /// Folds the observed per-backend correction ratios into `base`,
    /// producing the correction table a follow-up run should plan with.
    ///
    /// The workers route with *frozen* corrections (so routing stays
    /// reproducible), which makes this the calibration loop's hand-off
    /// point: run with `base`, snapshot, and start the next run with
    /// `snapshot.calibrated(&base)`. Since predictions were already
    /// scaled by `base`, the observed ratio composes multiplicatively.
    #[must_use]
    pub fn calibrated(&self, base: &CorrectionTable) -> CorrectionTable {
        let mut table = base.clone();
        for (name, t) in &self.per_backend {
            if t.jobs > 0 {
                table.set(name, base.factor(name) * t.ewma_correction);
            }
        }
        table
    }
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "runtime: {} workers, queue depth {}",
            self.workers, self.queue_depth
        )?;
        writeln!(
            f,
            "jobs: {} submitted | {} completed | {} failed | {} timed out | {} cancelled | {} rejected | {} invalid",
            self.submitted,
            self.completed,
            self.failed,
            self.timed_out,
            self.cancelled,
            self.rejected,
            self.invalid
        )?;
        if self.backend_faults > 0 || self.reroutes > 0 || self.quarantine_events > 0 {
            writeln!(
                f,
                "faults: {} device faults | {} retries | {} reroutes | {} quarantines | {} probes",
                self.backend_faults,
                self.retries,
                self.reroutes,
                self.quarantine_events,
                self.recovery_probes
            )?;
        }
        if self.cache_hits > 0 || self.cache_misses > 0 || self.coalesced > 0 {
            writeln!(
                f,
                "admission: {} cache hits | {} misses | {} evictions | {} coalesced",
                self.cache_hits, self.cache_misses, self.cache_evictions, self.coalesced
            )?;
        }
        writeln!(f, "per-backend throughput:")?;
        for (name, t) in &self.per_backend {
            writeln!(
                f,
                "  {:<14} {:>6} jobs  {:>10.1} jobs/s  {:>12.6} device-s  {:>12.6} predicted-s  {:>10} ops  ewma-corr {:>6.3}",
                name,
                t.jobs,
                t.jobs_per_second(),
                t.device_seconds,
                t.predicted_device_seconds,
                t.operations,
                t.ewma_correction
            )?;
        }
        writeln!(f, "completion latency:")?;
        for (idx, &count) in self.latency.counts().iter().enumerate() {
            if count > 0 {
                writeln!(f, "  {:<8} {count}", LatencyHistogram::bucket_label(idx))?;
            }
        }
        Ok(())
    }
}

/// The workers' shared accumulator behind a mutex: a [`RuntimeStats`]
/// whose two live fields (`queue_depth`, `workers`) stay zero until
/// [`StatsCollector::snapshot`] fills them in.
#[derive(Debug, Default)]
pub(crate) struct StatsCollector {
    inner: Mutex<RuntimeStats>,
}

impl StatsCollector {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_submitted(&self) {
        self.inner.lock().unwrap().submitted += 1;
    }

    pub(crate) fn record_rejected(&self) {
        self.inner.lock().unwrap().rejected += 1;
    }

    pub(crate) fn record_invalid(&self) {
        self.inner.lock().unwrap().invalid += 1;
    }

    pub(crate) fn record_failed(&self) {
        self.inner.lock().unwrap().failed += 1;
    }

    pub(crate) fn record_timed_out(&self) {
        self.inner.lock().unwrap().timed_out += 1;
    }

    pub(crate) fn record_cancelled(&self) {
        self.inner.lock().unwrap().cancelled += 1;
    }

    pub(crate) fn record_completed(
        &self,
        backend: &str,
        device_seconds: f64,
        operations: u64,
        predicted: Option<CostEstimate>,
        busy: Duration,
        latency: Duration,
    ) {
        let mut inner = self.inner.lock().unwrap();
        inner.completed += 1;
        let entry = inner.per_backend.entry(backend.to_string()).or_default();
        entry.jobs += 1;
        entry.device_seconds += device_seconds;
        entry.operations += operations;
        entry.busy_seconds += busy.as_secs_f64();
        if let Some(predicted) = predicted {
            entry.observe_prediction(predicted, device_seconds);
        }
        inner.latency.record(latency);
    }

    /// A job settled without its own backend execution — served from the
    /// result cache or published by the lead of its coalesced flight. It
    /// counts as completed with a queue-to-result latency, but touches no
    /// per-backend row: those account actual executions only.
    pub(crate) fn record_served_derived(&self, latency: Duration) {
        let mut inner = self.inner.lock().unwrap();
        inner.completed += 1;
        inner.latency.record(latency);
    }

    pub(crate) fn record_cache_hit(&self) {
        self.inner.lock().unwrap().cache_hits += 1;
    }

    pub(crate) fn record_cache_miss(&self) {
        self.inner.lock().unwrap().cache_misses += 1;
    }

    pub(crate) fn record_cache_evictions(&self, evicted: u64) {
        if evicted > 0 {
            self.inner.lock().unwrap().cache_evictions += evicted;
        }
    }

    pub(crate) fn record_coalesced(&self) {
        self.inner.lock().unwrap().coalesced += 1;
    }

    /// Folds one dispatch's drained [`FaultLedger`] into the counters.
    pub(crate) fn record_faults(&self, ledger: &FaultLedger) {
        if ledger.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        for (backend, &count) in &ledger.faults_by_backend {
            inner.backend_faults += count;
            inner.per_backend.entry(backend.clone()).or_default().faults += count;
        }
        inner.retries += ledger.retries;
        inner.reroutes += ledger.reroutes;
        inner.quarantine_events += ledger.quarantine_events;
        inner.recovery_probes += ledger.recovery_probes;
    }

    pub(crate) fn snapshot(&self, queue_depth: usize, workers: usize) -> RuntimeStats {
        RuntimeStats {
            queue_depth: queue_depth as u64,
            workers: workers as u64,
            ..self.inner.lock().unwrap().clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_magnitude() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(3)); // ≤10µs
        h.record(Duration::from_micros(10)); // ≤10µs (inclusive)
        h.record(Duration::from_micros(11)); // ≤100µs
        h.record(Duration::from_millis(5)); // ≤10ms
        h.record(Duration::from_secs(100)); // >10s overflow
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[3], 1);
        assert_eq!(h.counts()[LATENCY_BUCKETS - 1], 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn bucket_labels_scale_units() {
        assert_eq!(LatencyHistogram::bucket_label(0), "\u{2264}10\u{00b5}s");
        assert_eq!(LatencyHistogram::bucket_label(2), "\u{2264}1ms");
        assert_eq!(LatencyHistogram::bucket_label(6), "\u{2264}10s");
        assert_eq!(LatencyHistogram::bucket_label(LATENCY_BUCKETS - 1), ">10s");
    }

    #[test]
    fn throughput_rate() {
        let t = BackendThroughput {
            jobs: 10,
            busy_seconds: 2.0,
            ..Default::default()
        };
        assert!((t.jobs_per_second() - 5.0).abs() < 1e-12);
        assert_eq!(BackendThroughput::default().jobs_per_second(), 0.0);
    }

    #[test]
    fn collector_snapshot_roundtrip() {
        let c = StatsCollector::new();
        c.record_submitted();
        c.record_submitted();
        c.record_rejected();
        c.record_completed(
            "quantum",
            1e-6,
            40,
            Some(CostEstimate {
                device_seconds: 2e-6,
                energy_joules: 5e-5,
            }),
            Duration::from_millis(2),
            Duration::from_millis(3),
        );
        c.record_timed_out();
        let s = c.snapshot(5, 3);
        assert_eq!(s.submitted, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.completed, 1);
        assert_eq!(s.timed_out, 1);
        assert_eq!(s.settled(), 2);
        assert_eq!(s.queue_depth, 5);
        assert_eq!(s.workers, 3);
        assert_eq!(s.per_backend["quantum"].jobs, 1);
        assert!(s.per_backend["quantum"].jobs_per_second() > 0.0);
        assert_eq!(s.latency.total(), 1);
    }

    #[test]
    fn prediction_tracking_converges_and_calibrates() {
        let c = StatsCollector::new();
        // The model consistently predicts half the actual device time.
        for _ in 0..64 {
            c.record_completed(
                "quantum",
                2e-6,
                10,
                Some(CostEstimate {
                    device_seconds: 1e-6,
                    energy_joules: 1e-5,
                }),
                Duration::from_micros(10),
                Duration::from_micros(20),
            );
        }
        let s = c.snapshot(0, 1);
        let t = s.per_backend["quantum"];
        assert!((t.predicted_device_seconds - 64e-6).abs() < 1e-12);
        assert!(
            (t.ewma_correction - 2.0).abs() < 1e-3,
            "{}",
            t.ewma_correction
        );
        assert!((t.ewma_error - 0.5).abs() < 1e-3, "{}", t.ewma_error);
        assert!(s.total_predicted_device_seconds() > 0.0);
        assert!(s.total_device_seconds() > s.total_predicted_device_seconds());

        // Harvesting folds the observed ratio into the base table.
        let mut base = CorrectionTable::new();
        base.set("quantum", 3.0);
        let next = s.calibrated(&base);
        assert!((next.factor("quantum") - 6.0).abs() < 1e-2);
        // Backends with no completed jobs keep their base factor.
        assert!((next.factor("cpu") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fault_ledgers_accumulate_into_counters() {
        let c = StatsCollector::new();
        let mut ledger = FaultLedger::default();
        ledger.faults_by_backend.insert("quantum".into(), 3);
        ledger.faults_by_backend.insert("cpu".into(), 1);
        ledger.retries = 2;
        ledger.reroutes = 1;
        c.record_faults(&ledger);
        let mut second = FaultLedger::default();
        second.faults_by_backend.insert("quantum".into(), 1);
        second.quarantine_events = 1;
        second.recovery_probes = 2;
        c.record_faults(&second);
        c.record_faults(&FaultLedger::default()); // no-op
        let s = c.snapshot(0, 1);
        assert_eq!(s.backend_faults, 5);
        assert_eq!(s.retries, 2);
        assert_eq!(s.reroutes, 1);
        assert_eq!(s.quarantine_events, 1);
        assert_eq!(s.recovery_probes, 2);
        assert_eq!(s.per_backend["quantum"].faults, 4);
        assert_eq!(s.per_backend["cpu"].faults, 1);
        // Faulted-only backends appear with zero completed jobs.
        assert_eq!(s.per_backend["quantum"].jobs, 0);
        let text = s.to_string();
        assert!(text.contains("5 device faults"), "{text}");
        assert!(text.contains("1 reroutes"), "{text}");
    }

    #[test]
    fn admission_counters_accumulate_and_display() {
        let c = StatsCollector::new();
        c.record_cache_miss();
        c.record_cache_hit();
        c.record_served_derived(Duration::from_micros(2));
        c.record_coalesced();
        c.record_served_derived(Duration::from_micros(4));
        c.record_cache_evictions(3);
        c.record_cache_evictions(0); // no-op
        let s = c.snapshot(0, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_evictions, 3);
        assert_eq!(s.coalesced, 1);
        assert_eq!(s.completed, 2, "cached + coalesced serves both complete");
        assert_eq!(s.latency.total(), 2);
        assert!(
            s.per_backend.is_empty(),
            "cache hits and coalesced serves execute on no backend"
        );
        let text = s.to_string();
        assert!(text.contains("1 cache hits"), "{text}");
        assert!(text.contains("1 coalesced"), "{text}");
    }

    #[test]
    fn absorb_merges_shard_snapshots() {
        let a_coll = StatsCollector::new();
        a_coll.record_submitted();
        a_coll.record_completed(
            "quantum",
            1e-6,
            10,
            None,
            Duration::from_micros(10),
            Duration::from_micros(20),
        );
        a_coll.record_cache_hit();
        let b_coll = StatsCollector::new();
        b_coll.record_submitted();
        b_coll.record_submitted();
        b_coll.record_completed(
            "quantum",
            3e-6,
            30,
            None,
            Duration::from_micros(10),
            Duration::from_millis(2),
        );
        b_coll.record_completed(
            "cpu",
            2e-6,
            5,
            None,
            Duration::from_micros(10),
            Duration::from_micros(20),
        );
        b_coll.record_timed_out();
        let mut merged = a_coll.snapshot(1, 2);
        let b = b_coll.snapshot(3, 4);
        merged.absorb(&b);
        assert_eq!(merged.submitted, 3);
        assert_eq!(merged.completed, 3);
        assert_eq!(merged.timed_out, 1);
        assert_eq!(merged.cache_hits, 1);
        assert_eq!(merged.queue_depth, 4);
        assert_eq!(merged.workers, 6);
        assert_eq!(merged.per_backend["quantum"].jobs, 2);
        assert!((merged.per_backend["quantum"].device_seconds - 4e-6).abs() < 1e-15);
        assert_eq!(merged.per_backend["cpu"].jobs, 1);
        assert_eq!(merged.latency.total(), 3);
        // Jobs-weighted EWMA: both shards default to 1.0 → stays 1.0.
        assert!((merged.per_backend["quantum"].ewma_correction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_weighs_ewma_by_jobs() {
        let mut a = BackendThroughput {
            jobs: 3,
            ewma_correction: 2.0,
            ewma_error: 0.3,
            ..Default::default()
        };
        let b = BackendThroughput {
            jobs: 1,
            ewma_correction: 6.0,
            ewma_error: 0.7,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.jobs, 4);
        assert!((a.ewma_correction - 3.0).abs() < 1e-12);
        assert!((a.ewma_error - 0.4).abs() < 1e-12);
        // Absorbing an empty row is a no-op on the EWMA pair.
        let before = a;
        a.absorb(&BackendThroughput::default());
        assert_eq!(a, before);
    }

    #[test]
    fn display_mentions_backends_and_counters() {
        let c = StatsCollector::new();
        c.record_submitted();
        c.record_completed(
            "oscillator",
            1e-6,
            1,
            None,
            Duration::from_micros(50),
            Duration::from_micros(80),
        );
        c.record_invalid();
        let text = c.snapshot(0, 2).to_string();
        assert!(text.contains("oscillator"));
        assert!(text.contains("1 submitted"));
        assert!(text.contains("1 invalid"));
        assert!(text.contains("jobs/s"));
    }
}
