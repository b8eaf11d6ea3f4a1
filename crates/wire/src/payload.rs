//! Payload codecs: kernels, results, costs, formulas, outcomes, stats.
//!
//! Every codec is a `put_*` / `get_*` pair over the bounds-checked
//! [`ByteWriter`] / [`ByteReader`]. Variant tags are one byte; collection
//! lengths are validated against protocol maxima *and* remaining input
//! before allocation; formulas are rebuilt through `mem::cnf`'s validating
//! constructors so a decoded formula is structurally sound by construction.

use crate::codec::{ByteReader, ByteWriter};
use crate::{WireError, MAX_CLAUSES, MAX_CLAUSE_WIDTH, MAX_FAMILY_BODY, MAX_SEQUENCE_LEN};
use accel::host::DispatchPolicy;
use accel::kernel::{CostReport, Kernel, KernelResult};
use mem::cnf::{Clause, Formula, Literal};
use runtime::stats::{BackendThroughput, LatencyHistogram, LATENCY_BUCKETS};
use runtime::{JobOutcome, RuntimeStats};
use std::collections::BTreeMap;

/// A job outcome as it travels the wire.
///
/// Mirrors [`runtime::JobOutcome`] but replaces the host-side
/// `KernelExecution` wrapper with its flattened fields and carries the
/// execution wall time in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub enum WireOutcome {
    /// The kernel executed.
    Completed {
        /// Name of the backend that ran the kernel.
        backend: String,
        /// The result payload.
        result: KernelResult,
        /// The modelled device cost.
        cost: CostReport,
        /// Host wall-clock execution time, in nanoseconds.
        wall_nanos: u64,
    },
    /// The backend returned an error (rendered).
    Failed(String),
    /// The job's queue deadline passed before a worker picked it up.
    TimedOut,
    /// The job was cancelled before it completed.
    Cancelled,
}

impl WireOutcome {
    /// Whether the outcome carries a kernel result.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        matches!(self, WireOutcome::Completed { .. })
    }
}

impl From<&JobOutcome> for WireOutcome {
    fn from(outcome: &JobOutcome) -> Self {
        match outcome {
            JobOutcome::Completed {
                backend,
                execution,
                wall,
            } => WireOutcome::Completed {
                backend: backend.clone(),
                result: execution.result.clone(),
                cost: execution.cost,
                wall_nanos: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
            },
            JobOutcome::Failed(msg) => WireOutcome::Failed(msg.clone()),
            JobOutcome::TimedOut => WireOutcome::TimedOut,
            JobOutcome::Cancelled => WireOutcome::Cancelled,
        }
    }
}

// ---------------------------------------------------------------- kernels

pub(crate) fn put_kernel(w: &mut ByteWriter, kernel: &Kernel) -> Result<(), WireError> {
    match kernel {
        Kernel::Factor { n } => {
            w.put_u8(0);
            w.put_u64(*n);
        }
        Kernel::Search { n_qubits, marked } => {
            w.put_u8(1);
            w.put_u32(u32::try_from(*n_qubits).map_err(|_| too_large("search width"))?);
            put_seq_len(w, marked.len(), "marked items")?;
            for &item in marked {
                w.put_u64(item as u64);
            }
        }
        Kernel::DnaSimilarity { a, b, k } => {
            w.put_u8(2);
            w.put_str(a)?;
            w.put_str(b)?;
            w.put_u64(*k as u64);
        }
        Kernel::SolveSat { formula } => {
            w.put_u8(3);
            put_formula(w, formula)?;
        }
        Kernel::Compare { x, y } => {
            w.put_u8(4);
            w.put_f64(*x);
            w.put_f64(*y);
        }
        Kernel::Family(_) => {
            let (tag, body) = accel::family::encode_kernel_body(kernel)?;
            w.put_u8(5);
            put_family_body(w, tag, &body)?;
        }
    }
    Ok(())
}

pub(crate) fn get_kernel(r: &mut ByteReader<'_>) -> Result<Kernel, WireError> {
    match r.get_u8("kernel tag")? {
        0 => Ok(Kernel::Factor {
            n: r.get_u64("factor n")?,
        }),
        1 => {
            let n_qubits = r.get_u32("search width")? as usize;
            let count = r.get_count(MAX_SEQUENCE_LEN, 8, "marked items")?;
            let mut marked = Vec::with_capacity(count);
            for _ in 0..count {
                marked.push(r.get_usize("marked item")?);
            }
            Ok(Kernel::Search { n_qubits, marked })
        }
        2 => Ok(Kernel::DnaSimilarity {
            a: r.get_str("dna sequence a")?,
            b: r.get_str("dna sequence b")?,
            k: r.get_usize("dna k")?,
        }),
        3 => Ok(Kernel::SolveSat {
            formula: get_formula(r)?,
        }),
        4 => Ok(Kernel::Compare {
            x: r.get_f64("compare x")?,
            y: r.get_f64("compare y")?,
        }),
        5 => {
            let (tag, body) = get_family_body(r)?;
            Ok(accel::family::decode_kernel_body(tag, body)?)
        }
        tag => Err(WireError::UnknownTag {
            context: "kernel",
            tag,
        }),
    }
}

/// Encodes one kernel to a standalone byte buffer.
///
/// # Errors
///
/// [`WireError::TooLarge`] for out-of-bounds field sizes.
pub fn encode_kernel(kernel: &Kernel) -> Result<Vec<u8>, WireError> {
    let mut w = ByteWriter::new();
    put_kernel(&mut w, kernel)?;
    Ok(w.into_bytes())
}

/// Decodes one kernel from a standalone byte buffer, rejecting trailing
/// bytes.
///
/// # Errors
///
/// Any [`WireError`] decoding variant.
pub fn decode_kernel(bytes: &[u8]) -> Result<Kernel, WireError> {
    let mut r = ByteReader::new(bytes);
    let kernel = get_kernel(&mut r)?;
    r.finish()?;
    Ok(kernel)
}

// ---------------------------------------------------------------- results

pub(crate) fn put_kernel_result(
    w: &mut ByteWriter,
    result: &KernelResult,
) -> Result<(), WireError> {
    match result {
        KernelResult::Factors(p, q) => {
            w.put_u8(0);
            w.put_u64(*p);
            w.put_u64(*q);
        }
        KernelResult::Found(item) => {
            w.put_u8(1);
            w.put_u64(*item as u64);
        }
        KernelResult::Similarity(s) => {
            w.put_u8(2);
            w.put_f64(*s);
        }
        KernelResult::SatSolution(solution) => {
            w.put_u8(3);
            match solution {
                Some(bits) => {
                    w.put_u8(1);
                    put_seq_len(w, bits.len(), "sat assignment")?;
                    for &bit in bits {
                        w.put_u8(u8::from(bit));
                    }
                }
                None => w.put_u8(0),
            }
        }
        KernelResult::Distance(d) => {
            w.put_u8(4);
            w.put_f64(*d);
        }
        KernelResult::Family(family_result) => {
            let (tag, body) = accel::family::encode_result_body(family_result)?;
            w.put_u8(5);
            put_family_body(w, tag, &body)?;
        }
    }
    Ok(())
}

pub(crate) fn get_kernel_result(r: &mut ByteReader<'_>) -> Result<KernelResult, WireError> {
    match r.get_u8("result tag")? {
        0 => Ok(KernelResult::Factors(
            r.get_u64("factor p")?,
            r.get_u64("factor q")?,
        )),
        1 => Ok(KernelResult::Found(r.get_usize("found item")?)),
        2 => Ok(KernelResult::Similarity(r.get_f64("similarity")?)),
        3 => match r.get_u8("sat solution flag")? {
            0 => Ok(KernelResult::SatSolution(None)),
            1 => {
                let count = r.get_count(MAX_SEQUENCE_LEN, 1, "sat assignment")?;
                let mut bits = Vec::with_capacity(count);
                for _ in 0..count {
                    match r.get_u8("sat assignment bit")? {
                        0 => bits.push(false),
                        1 => bits.push(true),
                        bit => {
                            return Err(WireError::Invalid {
                                context: "sat assignment bit",
                                detail: format!("expected 0 or 1, got {bit}"),
                            })
                        }
                    }
                }
                Ok(KernelResult::SatSolution(Some(bits)))
            }
            flag => Err(WireError::Invalid {
                context: "sat solution flag",
                detail: format!("expected 0 or 1, got {flag}"),
            }),
        },
        4 => Ok(KernelResult::Distance(r.get_f64("distance")?)),
        5 => {
            let (tag, body) = get_family_body(r)?;
            Ok(accel::family::decode_result_body(tag, body)?)
        }
        tag => Err(WireError::UnknownTag {
            context: "kernel result",
            tag,
        }),
    }
}

/// Encodes one kernel result to a standalone byte buffer — also the
/// canonical byte representation the load generator compares for its
/// byte-for-byte cross-wire determinism check.
///
/// # Errors
///
/// [`WireError::TooLarge`] for out-of-bounds field sizes.
pub fn encode_kernel_result(result: &KernelResult) -> Result<Vec<u8>, WireError> {
    let mut w = ByteWriter::new();
    put_kernel_result(&mut w, result)?;
    Ok(w.into_bytes())
}

/// Decodes one kernel result from a standalone byte buffer, rejecting
/// trailing bytes.
///
/// # Errors
///
/// Any [`WireError`] decoding variant.
pub fn decode_kernel_result(bytes: &[u8]) -> Result<KernelResult, WireError> {
    let mut r = ByteReader::new(bytes);
    let result = get_kernel_result(&mut r)?;
    r.finish()?;
    Ok(result)
}

// ------------------------------------------------------------------ costs

pub(crate) fn put_cost(w: &mut ByteWriter, cost: &CostReport) {
    w.put_f64(cost.device_seconds);
    w.put_u64(cost.operations);
}

pub(crate) fn get_cost(r: &mut ByteReader<'_>) -> Result<CostReport, WireError> {
    Ok(CostReport {
        device_seconds: r.get_f64("cost device seconds")?,
        operations: r.get_u64("cost operations")?,
    })
}

// --------------------------------------------------------------- policies

/// One byte: 0 = no override, 1..=5 = the five [`DispatchPolicy`]
/// variants.
pub(crate) fn put_policy(w: &mut ByteWriter, policy: Option<DispatchPolicy>) {
    let code = match policy {
        None => 0u8,
        Some(DispatchPolicy::PreferSpecialized) => 1,
        Some(DispatchPolicy::CpuOnly) => 2,
        Some(DispatchPolicy::MinPredictedLatency) => 3,
        Some(DispatchPolicy::MinPredictedEnergy) => 4,
        Some(DispatchPolicy::DeadlineAware) => 5,
    };
    w.put_u8(code);
}

pub(crate) fn get_policy(r: &mut ByteReader<'_>) -> Result<Option<DispatchPolicy>, WireError> {
    match r.get_u8("dispatch policy")? {
        0 => Ok(None),
        1 => Ok(Some(DispatchPolicy::PreferSpecialized)),
        2 => Ok(Some(DispatchPolicy::CpuOnly)),
        3 => Ok(Some(DispatchPolicy::MinPredictedLatency)),
        4 => Ok(Some(DispatchPolicy::MinPredictedEnergy)),
        5 => Ok(Some(DispatchPolicy::DeadlineAware)),
        tag => Err(WireError::UnknownTag {
            context: "dispatch policy",
            tag,
        }),
    }
}

// --------------------------------------------------------------- formulas

pub(crate) fn put_formula(w: &mut ByteWriter, formula: &Formula) -> Result<(), WireError> {
    w.put_u32(u32::try_from(formula.n_vars()).map_err(|_| too_large("formula variables"))?);
    let clauses = formula.clauses();
    if clauses.len() as u64 > u64::from(MAX_CLAUSES) {
        return Err(WireError::TooLarge {
            context: "formula clauses",
            len: clauses.len() as u64,
            max: u64::from(MAX_CLAUSES),
        });
    }
    w.put_u32(clauses.len() as u32);
    for clause in clauses {
        if clause.len() as u64 > u64::from(MAX_CLAUSE_WIDTH) {
            return Err(WireError::TooLarge {
                context: "clause width",
                len: clause.len() as u64,
                max: u64::from(MAX_CLAUSE_WIDTH),
            });
        }
        w.put_u32(clause.len() as u32);
        for lit in clause.literals() {
            w.put_i64(lit.to_dimacs());
        }
    }
    Ok(())
}

pub(crate) fn get_formula(r: &mut ByteReader<'_>) -> Result<Formula, WireError> {
    let n_vars = r.get_u32("formula variables")? as usize;
    // Each clause needs at least a length word plus one literal.
    let clause_count = r.get_count(MAX_CLAUSES, 12, "formula clauses")?;
    let mut clauses = Vec::with_capacity(clause_count);
    for _ in 0..clause_count {
        let width = r.get_count(MAX_CLAUSE_WIDTH, 8, "clause width")?;
        let mut literals = Vec::with_capacity(width);
        for _ in 0..width {
            let code = r.get_i64("literal")?;
            literals.push(Literal::from_dimacs(code).map_err(|e| WireError::Invalid {
                context: "literal",
                detail: e.to_string(),
            })?);
        }
        clauses.push(Clause::new(literals).map_err(|e| WireError::Invalid {
            context: "clause",
            detail: e.to_string(),
        })?);
    }
    Formula::new(n_vars, clauses).map_err(|e| WireError::Invalid {
        context: "formula",
        detail: e.to_string(),
    })
}

// --------------------------------------------------------------- outcomes

pub(crate) fn put_outcome(w: &mut ByteWriter, outcome: &WireOutcome) -> Result<(), WireError> {
    match outcome {
        WireOutcome::Completed {
            backend,
            result,
            cost,
            wall_nanos,
        } => {
            w.put_u8(0);
            w.put_str(backend)?;
            put_kernel_result(w, result)?;
            put_cost(w, cost);
            w.put_u64(*wall_nanos);
        }
        WireOutcome::Failed(msg) => {
            w.put_u8(1);
            w.put_str(msg)?;
        }
        WireOutcome::TimedOut => w.put_u8(2),
        WireOutcome::Cancelled => w.put_u8(3),
    }
    Ok(())
}

pub(crate) fn get_outcome(r: &mut ByteReader<'_>) -> Result<WireOutcome, WireError> {
    match r.get_u8("outcome tag")? {
        0 => Ok(WireOutcome::Completed {
            backend: r.get_str("backend name")?,
            result: get_kernel_result(r)?,
            cost: get_cost(r)?,
            wall_nanos: r.get_u64("wall nanos")?,
        }),
        1 => Ok(WireOutcome::Failed(r.get_str("failure message")?)),
        2 => Ok(WireOutcome::TimedOut),
        3 => Ok(WireOutcome::Cancelled),
        tag => Err(WireError::UnknownTag {
            context: "outcome",
            tag,
        }),
    }
}

// ------------------------------------------------------------------ stats

/// Encodes a stats snapshot: the global job counters, the fault-counter
/// block, the admission-counter block, one row per backend (throughput,
/// the prediction-tracking triple, its fault count), then the latency
/// histogram.
pub(crate) fn put_stats(w: &mut ByteWriter, stats: &RuntimeStats) -> Result<(), WireError> {
    w.put_u64(stats.submitted);
    w.put_u64(stats.completed);
    w.put_u64(stats.failed);
    w.put_u64(stats.rejected);
    w.put_u64(stats.invalid);
    w.put_u64(stats.timed_out);
    w.put_u64(stats.cancelled);
    w.put_u64(stats.queue_depth as u64);
    w.put_u64(stats.workers as u64);
    w.put_u64(stats.backend_faults);
    w.put_u64(stats.retries);
    w.put_u64(stats.reroutes);
    w.put_u64(stats.quarantine_events);
    w.put_u64(stats.recovery_probes);
    w.put_u64(stats.cache_hits);
    w.put_u64(stats.cache_misses);
    w.put_u64(stats.cache_evictions);
    w.put_u64(stats.coalesced);
    w.put_u64(stats.hedged);
    w.put_u64(stats.hedge_cancelled);
    if stats.per_backend.len() as u64 > u64::from(MAX_SEQUENCE_LEN) {
        return Err(WireError::TooLarge {
            context: "backend table",
            len: stats.per_backend.len() as u64,
            max: u64::from(MAX_SEQUENCE_LEN),
        });
    }
    w.put_u32(stats.per_backend.len() as u32);
    for (name, t) in &stats.per_backend {
        w.put_str(name)?;
        w.put_u64(t.jobs);
        w.put_f64(t.device_seconds);
        w.put_u64(t.operations);
        w.put_f64(t.busy_seconds);
        w.put_f64(t.predicted_device_seconds);
        w.put_f64(t.ewma_correction);
        w.put_f64(t.ewma_error);
        w.put_u64(t.faults);
    }
    w.put_u32(LATENCY_BUCKETS as u32);
    for &count in stats.latency.counts() {
        w.put_u64(count);
    }
    Ok(())
}

pub(crate) fn get_stats(r: &mut ByteReader<'_>) -> Result<RuntimeStats, WireError> {
    let submitted = r.get_u64("stats submitted")?;
    let completed = r.get_u64("stats completed")?;
    let failed = r.get_u64("stats failed")?;
    let rejected = r.get_u64("stats rejected")?;
    let invalid = r.get_u64("stats invalid")?;
    let timed_out = r.get_u64("stats timed out")?;
    let cancelled = r.get_u64("stats cancelled")?;
    let queue_depth = r.get_usize("stats queue depth")?;
    let workers = r.get_usize("stats workers")?;
    let backend_faults = r.get_u64("stats backend faults")?;
    let retries = r.get_u64("stats retries")?;
    let reroutes = r.get_u64("stats reroutes")?;
    let quarantine_events = r.get_u64("stats quarantine events")?;
    let recovery_probes = r.get_u64("stats recovery probes")?;
    let cache_hits = r.get_u64("stats cache hits")?;
    let cache_misses = r.get_u64("stats cache misses")?;
    let cache_evictions = r.get_u64("stats cache evictions")?;
    let coalesced = r.get_u64("stats coalesced")?;
    let hedged = r.get_u64("stats hedged")?;
    let hedge_cancelled = r.get_u64("stats hedge cancelled")?;
    let backend_count = r.get_count(MAX_SEQUENCE_LEN, 37, "backend table")?;
    let mut per_backend = BTreeMap::new();
    for _ in 0..backend_count {
        let name = r.get_str("backend name")?;
        let t = BackendThroughput {
            jobs: r.get_u64("backend jobs")?,
            device_seconds: r.get_f64("backend device seconds")?,
            operations: r.get_u64("backend operations")?,
            busy_seconds: r.get_f64("backend busy seconds")?,
            predicted_device_seconds: r.get_f64("backend predicted seconds")?,
            ewma_correction: r.get_f64("backend ewma correction")?,
            ewma_error: r.get_f64("backend ewma error")?,
            faults: r.get_u64("backend faults")?,
        };
        per_backend.insert(name, t);
    }
    let bucket_count = r.get_count(MAX_SEQUENCE_LEN, 8, "latency buckets")?;
    if bucket_count != LATENCY_BUCKETS {
        return Err(WireError::Invalid {
            context: "latency buckets",
            detail: format!("expected {LATENCY_BUCKETS} buckets, got {bucket_count}"),
        });
    }
    let mut counts = [0u64; LATENCY_BUCKETS];
    for slot in &mut counts {
        *slot = r.get_u64("latency bucket count")?;
    }
    Ok(RuntimeStats {
        submitted,
        completed,
        failed,
        rejected,
        invalid,
        timed_out,
        cancelled,
        queue_depth,
        workers,
        per_backend,
        latency: LatencyHistogram::from_counts(counts),
        backend_faults,
        retries,
        reroutes,
        quarantine_events,
        recovery_probes,
        cache_hits,
        cache_misses,
        cache_evictions,
        coalesced,
        hedged,
        hedge_cancelled,
    })
}

// --------------------------------------------------------- family frames

/// Writes the generic family frame: u16 registry family tag, u32 body length, then the family-owned body
/// bytes (encoded by the family's registry entry, opaque to this layer).
fn put_family_body(w: &mut ByteWriter, tag: u16, body: &[u8]) -> Result<(), WireError> {
    if body.len() as u64 > u64::from(MAX_FAMILY_BODY) {
        return Err(WireError::TooLarge {
            context: "family body",
            len: body.len() as u64,
            max: u64::from(MAX_FAMILY_BODY),
        });
    }
    w.put_u16(tag);
    w.put_u32(body.len() as u32);
    w.put_bytes(body);
    Ok(())
}

/// Reads one generic family frame: the registry tag plus the exact body
/// slice. The length prefix is validated against [`MAX_FAMILY_BODY`] and
/// the remaining input before the slice is taken.
fn get_family_body<'a>(r: &mut ByteReader<'a>) -> Result<(u16, &'a [u8]), WireError> {
    let tag = r.get_u16("family tag")?;
    let len = r.get_count(MAX_FAMILY_BODY, 1, "family body")?;
    let body = r.get_bytes(len, "family body")?;
    Ok((tag, body))
}

// ---------------------------------------------------------------- helpers

fn put_seq_len(w: &mut ByteWriter, len: usize, context: &'static str) -> Result<(), WireError> {
    if len as u64 > u64::from(MAX_SEQUENCE_LEN) {
        return Err(WireError::TooLarge {
            context,
            len: len as u64,
            max: u64::from(MAX_SEQUENCE_LEN),
        });
    }
    w.put_u32(len as u32);
    Ok(())
}

fn too_large(context: &'static str) -> WireError {
    WireError::TooLarge {
        context,
        len: u64::MAX,
        max: u64::from(u32::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel::family::{ColoringSpec, FamilyKernel, FamilyResult, QuboSpec};
    use mem::generators::planted_3sat;
    use std::time::Duration;

    fn round_trip_kernel(kernel: &Kernel) -> Kernel {
        decode_kernel(&encode_kernel(kernel).unwrap()).unwrap()
    }

    fn round_trip_result(result: &KernelResult) -> KernelResult {
        decode_kernel_result(&encode_kernel_result(result).unwrap()).unwrap()
    }

    #[test]
    fn kernels_round_trip() {
        let sat = planted_3sat(12, 3.5, 3).unwrap();
        let kernels = vec![
            Kernel::Factor { n: 91 },
            Kernel::Search {
                n_qubits: 6,
                marked: vec![0, 17, 63],
            },
            Kernel::DnaSimilarity {
                a: "ACGTACGT".into(),
                b: "TTGCACGA".into(),
                k: 3,
            },
            Kernel::SolveSat {
                formula: sat.formula,
            },
            Kernel::Compare { x: 0.25, y: 0.75 },
        ];
        for kernel in &kernels {
            assert_eq!(&round_trip_kernel(kernel), kernel);
        }
    }

    #[test]
    fn results_round_trip() {
        let results = vec![
            KernelResult::Factors(7, 13),
            KernelResult::Found(42),
            KernelResult::Similarity(0.815),
            KernelResult::SatSolution(None),
            KernelResult::SatSolution(Some(vec![true, false, true])),
            KernelResult::Distance(1.0 / 3.0),
        ];
        for result in &results {
            assert_eq!(&round_trip_result(result), result);
        }
    }

    #[test]
    fn float_payloads_are_byte_exact() {
        let tricky = [0.1 + 0.2, f64::MIN_POSITIVE, -0.0, 1e-300];
        for &v in &tricky {
            let bytes = encode_kernel_result(&KernelResult::Distance(v)).unwrap();
            match decode_kernel_result(&bytes).unwrap() {
                KernelResult::Distance(back) => assert_eq!(back.to_bits(), v.to_bits()),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn outcomes_round_trip() {
        let outcomes = vec![
            WireOutcome::Completed {
                backend: "quantum".into(),
                result: KernelResult::Factors(3, 5),
                cost: CostReport {
                    device_seconds: 1.5e-6,
                    operations: 240,
                },
                wall_nanos: 81_000,
            },
            WireOutcome::Failed("backend exploded".into()),
            WireOutcome::TimedOut,
            WireOutcome::Cancelled,
        ];
        for outcome in &outcomes {
            let mut w = ByteWriter::new();
            put_outcome(&mut w, outcome).unwrap();
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(&get_outcome(&mut r).unwrap(), outcome);
            r.finish().unwrap();
        }
    }

    #[test]
    fn job_outcome_conversion() {
        let wall = Duration::from_micros(55);
        let outcome = JobOutcome::Completed {
            backend: "cpu".into(),
            execution: accel::kernel::KernelExecution {
                result: KernelResult::Found(9),
                cost: CostReport {
                    device_seconds: 0.5,
                    operations: 3,
                },
            },
            wall,
        };
        match WireOutcome::from(&outcome) {
            WireOutcome::Completed {
                backend,
                result,
                wall_nanos,
                ..
            } => {
                assert_eq!(backend, "cpu");
                assert_eq!(result, KernelResult::Found(9));
                assert_eq!(wall_nanos, 55_000);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            WireOutcome::from(&JobOutcome::TimedOut),
            WireOutcome::TimedOut
        );
        assert!(!WireOutcome::Cancelled.is_completed());
    }

    fn sample_stats() -> RuntimeStats {
        let mut per_backend = BTreeMap::new();
        per_backend.insert(
            "memcomputing".to_string(),
            BackendThroughput {
                jobs: 12,
                device_seconds: 3.5e-3,
                operations: 90_000,
                busy_seconds: 0.82,
                predicted_device_seconds: 3.1e-3,
                ewma_correction: 1.13,
                ewma_error: 0.11,
                faults: 5,
            },
        );
        let mut counts = [0u64; LATENCY_BUCKETS];
        counts[2] = 7;
        RuntimeStats {
            submitted: 20,
            completed: 12,
            failed: 1,
            rejected: 2,
            invalid: 3,
            timed_out: 1,
            cancelled: 1,
            queue_depth: 4,
            workers: 6,
            per_backend,
            latency: LatencyHistogram::from_counts(counts),
            backend_faults: 5,
            retries: 3,
            reroutes: 2,
            quarantine_events: 1,
            recovery_probes: 4,
            cache_hits: 9,
            cache_misses: 11,
            cache_evictions: 2,
            coalesced: 6,
            hedged: 5,
            hedge_cancelled: 3,
        }
    }

    #[test]
    fn stats_round_trip() {
        let stats = sample_stats();
        let mut w = ByteWriter::new();
        put_stats(&mut w, &stats).unwrap();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(get_stats(&mut r).unwrap(), stats);
        r.finish().unwrap();
    }

    #[test]
    fn policies_round_trip() {
        let policies = [
            None,
            Some(DispatchPolicy::PreferSpecialized),
            Some(DispatchPolicy::CpuOnly),
            Some(DispatchPolicy::MinPredictedLatency),
            Some(DispatchPolicy::MinPredictedEnergy),
            Some(DispatchPolicy::DeadlineAware),
        ];
        for policy in policies {
            let mut w = ByteWriter::new();
            put_policy(&mut w, policy);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(get_policy(&mut r).unwrap(), policy);
            r.finish().unwrap();
        }
        let mut r = ByteReader::new(&[6]);
        assert!(matches!(
            get_policy(&mut r),
            Err(WireError::UnknownTag {
                context: "dispatch policy",
                tag: 6,
            })
        ));
    }

    #[test]
    fn malformed_formula_rejected() {
        // An empty clause is structurally invalid and must be caught by
        // the validating constructors, not panic downstream.
        let mut w = ByteWriter::new();
        w.put_u32(3); // n_vars
        w.put_u32(1); // one clause
        w.put_u32(0); // of width zero
        w.put_u64(0); // padding past the per-clause size floor
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            get_formula(&mut r),
            Err(WireError::Invalid { .. })
        ));
        // Literal 0 is the DIMACS terminator, never a literal.
        let mut w = ByteWriter::new();
        w.put_u32(3);
        w.put_u32(1);
        w.put_u32(1);
        w.put_i64(0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            get_formula(&mut r),
            Err(WireError::Invalid { .. })
        ));
        // Out-of-range variable index.
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_u32(1);
        w.put_u32(1);
        w.put_i64(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            get_formula(&mut r),
            Err(WireError::Invalid { .. })
        ));
    }

    #[test]
    fn hostile_clause_count_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(3);
        w.put_u32(u32::MAX); // claims 4 billion clauses with no bytes behind it
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let err = get_formula(&mut r).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::TooLarge { .. } | WireError::Truncated { .. }
            ),
            "unexpected {err}"
        );
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(matches!(
            decode_kernel(&[200]),
            Err(WireError::UnknownTag {
                context: "kernel",
                tag: 200,
            })
        ));
        assert!(matches!(
            decode_kernel_result(&[99]),
            Err(WireError::UnknownTag { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_kernel(&Kernel::Factor { n: 15 }).unwrap();
        bytes.push(0);
        assert!(matches!(
            decode_kernel(&bytes),
            Err(WireError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn bad_sat_bits_rejected() {
        let mut w = ByteWriter::new();
        w.put_u8(3); // SatSolution
        w.put_u8(1); // present
        w.put_u32(1); // one bit
        w.put_u8(7); // not a bool
        let bytes = w.into_bytes();
        assert!(matches!(
            decode_kernel_result(&bytes),
            Err(WireError::Invalid { .. })
        ));
    }

    fn coloring_kernel() -> Kernel {
        Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
            n_vertices: 4,
            n_colors: 2,
            edges: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
        }))
    }

    fn qubo_kernel() -> Kernel {
        Kernel::Family(FamilyKernel::Qubo(QuboSpec {
            n_vars: 3,
            linear: vec![(0, 1.5), (2, -0.25)],
            quadratic: vec![(0, 1, -2.0), (1, 2, 0.5)],
        }))
    }

    #[test]
    fn family_kernels_round_trip() {
        for kernel in [coloring_kernel(), qubo_kernel()] {
            assert_eq!(round_trip_kernel(&kernel), kernel);
        }
    }

    #[test]
    fn family_results_round_trip() {
        let results = vec![
            KernelResult::Family(FamilyResult::Coloring {
                colors: vec![0, 1, 0, 1],
                conflicts: 0,
            }),
            KernelResult::Family(FamilyResult::Qubo {
                bits: vec![true, false, true],
                energy: -1.75,
            }),
        ];
        for result in &results {
            assert_eq!(&round_trip_result(result), result);
        }
    }

    #[test]
    fn family_frame_layout_is_tag_then_length_prefixed_body() {
        let bytes = encode_kernel(&coloring_kernel()).unwrap();
        assert_eq!(bytes[0], 5, "generic family frames use kernel tag 5");
        assert_eq!(
            u16::from_be_bytes([bytes[1], bytes[2]]),
            6,
            "coloring carries registry family tag 6"
        );
        let body_len = u32::from_be_bytes([bytes[3], bytes[4], bytes[5], bytes[6]]) as usize;
        assert_eq!(bytes.len(), 7 + body_len, "body length prefix is exact");
    }

    #[test]
    fn unknown_family_tag_rejected() {
        let mut w = ByteWriter::new();
        w.put_u8(5); // family frame
        w.put_u16(999); // no such family
        w.put_u32(1);
        w.put_u8(0);
        let bytes = w.into_bytes();
        assert!(matches!(
            decode_kernel(&bytes),
            Err(WireError::Invalid {
                context: "family tag",
                ..
            })
        ));
    }

    #[test]
    fn legacy_families_refuse_generic_framing() {
        // Registry tag 1 is Factor, which is natively framed (kernel tag
        // 0); smuggling it through a family frame must be rejected, not
        // silently accepted as a second encoding of the same kernel.
        let mut w = ByteWriter::new();
        w.put_u8(5);
        w.put_u16(1);
        w.put_u32(8);
        w.put_u64(21);
        let bytes = w.into_bytes();
        assert!(matches!(
            decode_kernel(&bytes),
            Err(WireError::Invalid {
                context: "family frame",
                ..
            })
        ));
    }

    #[test]
    fn truncated_family_frames_error_not_panic() {
        for kernel in [coloring_kernel(), qubo_kernel()] {
            let full = encode_kernel(&kernel).unwrap();
            for cut in 0..full.len() {
                assert!(
                    decode_kernel(&full[..cut]).is_err(),
                    "truncation at {cut} must error"
                );
            }
        }
        let full = encode_kernel_result(&KernelResult::Family(FamilyResult::Qubo {
            bits: vec![true, false],
            energy: 0.5,
        }))
        .unwrap();
        for cut in 0..full.len() {
            assert!(
                decode_kernel_result(&full[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
    }

    #[test]
    fn hostile_family_body_length_rejected() {
        // A body length claiming more bytes than remain must fail before
        // any allocation.
        let mut w = ByteWriter::new();
        w.put_u8(5);
        w.put_u16(6);
        w.put_u32(u32::MAX);
        w.put_u8(0);
        let bytes = w.into_bytes();
        let err = decode_kernel(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::TooLarge { .. } | WireError::Truncated { .. }
            ),
            "unexpected {err}"
        );
    }

    #[test]
    fn family_body_trailing_bytes_rejected() {
        // Pad a valid coloring body with one extra byte inside the
        // length-prefixed region: the family decoder must reject it.
        let (tag, mut body) = accel::family::encode_kernel_body(&coloring_kernel()).unwrap();
        body.push(0);
        let mut w = ByteWriter::new();
        w.put_u8(5);
        w.put_u16(tag);
        w.put_u32(body.len() as u32);
        w.put_bytes(&body);
        let bytes = w.into_bytes();
        assert!(matches!(
            decode_kernel(&bytes),
            Err(WireError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn family_frames_are_deterministic() {
        for kernel in [coloring_kernel(), qubo_kernel()] {
            assert_eq!(
                encode_kernel(&kernel).unwrap(),
                encode_kernel(&kernel).unwrap()
            );
        }
    }
}
