//! Payload codecs: kernel and result frames, costs, outcomes, stats.
//!
//! Every codec is a `put_*` / `get_*` pair over the bounds-checked
//! [`ByteWriter`] / [`ByteReader`]. Variant tags are one byte; collection
//! lengths are validated against protocol maxima *and* remaining input
//! before allocation. Kernels and results travel in one frame shape whose
//! body belongs to the kernel's family ([`accel::family::encode_body`]
//! and its siblings): this module writes and reads the frame and knows no
//! family.
//!
//! A stats snapshot travels as a row of `(name, kind, value)` entries,
//! after a `u32` count. The kinds are `0` `u64`, `1` `f64`, `2` histogram
//! (a counted list of `u64` bounds, then a counted list of `u64` counts),
//! and `3` group (a nested entry row, one per backend, named after it;
//! groups do not nest). The names and the order come from the tables in
//! [`runtime::stats`]. A field at its default is not written and reads
//! back as its default; an entry whose name and kind match no field is
//! skipped. So adding a counter is one field plus one table row: no
//! version bump, and no existing byte moves.

use crate::{WireError, MAX_FAMILY_BODY, MAX_SEQUENCE_LEN};
use accel::codec::CodecError;
use accel::codec::{ByteReader, ByteWriter};
use accel::family::{self, FamilyInfo, FAMILIES, GENERIC_FRAME};
use accel::host::DispatchPolicy;
use accel::kernel::{CostReport, Kernel, KernelResult};
use runtime::stats::{
    Field, LatencyHistogram, Slot, BACKEND_FIELDS, LATENCY_BOUNDS_US, LATENCY_BUCKETS,
    RUNTIME_FIELDS,
};
use runtime::{JobOutcome, RuntimeStats};
use std::collections::{BTreeMap, BTreeSet};

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

    /// The bytes that must be identical across reruns, worker counts and
    /// transports — the comparand of every determinism check: variant
    /// tag, backend, and the wire encoding of the result, or the failure
    /// message. Wall-clock time and cost are deliberately left out.
    ///
    /// # Errors
    ///
    /// [`WireError::TooLarge`] for a result beyond its wire caps.
    pub fn fingerprint(&self) -> Result<Vec<u8>, WireError> {
        let mut w = ByteWriter::new();
        match self {
            WireOutcome::Completed {
                backend, result, ..
            } => {
                w.put_u8(0);
                w.put_bytes(backend.as_bytes());
                w.put_u8(0);
                put_kernel_result(&mut w, result)?;
            }
            WireOutcome::Failed(msg) => {
                w.put_u8(1);
                w.put_bytes(msg.as_bytes());
            }
            WireOutcome::TimedOut => w.put_u8(2),
            WireOutcome::Cancelled => w.put_u8(3),
        }
        Ok(w.into_bytes())
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

// ----------------------------------------------------------------- frames

/// Writes one kernel or result frame: the family's frame byte, then the
/// family-owned body — inline for the five families that predate the
/// generic frame, behind the u16 family tag and a u32 length for every
/// later one.
fn put_frame(
    w: &mut ByteWriter,
    family: &FamilyInfo,
    body: impl FnOnce(&mut ByteWriter) -> Result<(), CodecError>,
) -> Result<(), WireError> {
    w.put_u8(family.frame);
    if family.frame != GENERIC_FRAME {
        return Ok(body(w)?);
    }
    let mut inner = ByteWriter::new();
    body(&mut inner)?;
    let bytes = inner.into_bytes();
    w.put_u16(family.tag);
    w.put_count(bytes.len(), MAX_FAMILY_BODY, "family body")?;
    w.put_bytes(&bytes);
    Ok(())
}

/// Reads one kernel or result frame and hands its body to the family it
/// names in [`FAMILIES`]. A generic frame names its family by tag and
/// must be consumed exactly; its length is validated against
/// [`MAX_FAMILY_BODY`] and the remaining input before the slice is taken.
/// A family with a frame byte of its own is not reachable through the
/// generic frame — one kernel, one encoding.
fn get_frame<T>(
    r: &mut ByteReader<'_>,
    what: &'static str,
    decode: impl FnOnce(&FamilyInfo, &mut ByteReader<'_>) -> Result<T, CodecError>,
) -> Result<T, WireError> {
    let frame = r.get_u8(what)?;
    if frame != GENERIC_FRAME {
        let family = FAMILIES
            .iter()
            .find(|f| f.frame == frame)
            .ok_or(WireError::UnknownTag {
                context: what,
                tag: frame,
            })?;
        return Ok(decode(family, r)?);
    }
    let tag = r.get_u16("family tag")?;
    let len = r.get_count(MAX_FAMILY_BODY, 1, "family body")?;
    let mut body = ByteReader::new(r.get_bytes(len, "family body")?);
    // A family tag is a u16: it cannot ride the u8 unknown-tag slot.
    let family = FAMILIES
        .iter()
        .find(|f| f.tag == tag)
        .ok_or_else(|| WireError::Invalid {
            context: "family tag",
            detail: format!("unknown kernel family tag {tag}"),
        })?;
    if family.frame != GENERIC_FRAME {
        return Err(WireError::Invalid {
            context: "family frame",
            detail: format!("family `{}` has its own frame byte", family.name),
        });
    }
    let value = decode(family, &mut body)?;
    body.finish()?;
    Ok(value)
}

pub(crate) fn put_kernel(w: &mut ByteWriter, kernel: &Kernel) -> Result<(), WireError> {
    put_frame(w, family::family_of(kernel), |w| {
        family::encode_body(kernel, w)
    })
}

pub(crate) fn get_kernel(r: &mut ByteReader<'_>) -> Result<Kernel, WireError> {
    get_frame(r, "kernel", family::decode_body)
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

pub(crate) fn put_kernel_result(
    w: &mut ByteWriter,
    result: &KernelResult,
) -> Result<(), WireError> {
    put_frame(w, family::family_of_result(result), |w| {
        family::encode_result_body(result, w)
    })
}

pub(crate) fn get_kernel_result(r: &mut ByteReader<'_>) -> Result<KernelResult, WireError> {
    get_frame(r, "kernel result", family::decode_result_body)
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

/// The kind bytes of a stats entry, by what its value is: one `u64`, one
/// `f64`, a histogram (its bounds, then its counts), or a group of
/// entries (one per backend row).
const KIND_U64: u8 = 0;
const KIND_F64: u8 = 1;
const KIND_HISTOGRAM: u8 = 2;
const KIND_GROUP: u8 = 3;
/// The fewest bytes an entry takes: a name length, a kind byte, and the
/// first count of a group or histogram.
const MIN_ENTRY_LEN: usize = 4 + 1 + 4;

/// Encodes a stats snapshot as a self-describing row: one entry per row
/// of [`RUNTIME_FIELDS`] that is off its default, then one group per
/// backend holding its [`BACKEND_FIELDS`] entries the same way.
pub(crate) fn put_stats(w: &mut ByteWriter, stats: &RuntimeStats) -> Result<(), WireError> {
    put_entries(w, RUNTIME_FIELDS, stats, stats.per_backend.len())?;
    for (name, row) in &stats.per_backend {
        w.put_str(name)?;
        w.put_u8(KIND_GROUP);
        put_entries(w, BACKEND_FIELDS, row, 0)?;
    }
    Ok(())
}

/// Writes the entry count (the fields off their default, plus the
/// `groups` the caller writes next) and those fields' entries.
fn put_entries<T: Default>(
    w: &mut ByteWriter,
    fields: &[Field<T>],
    value: &T,
    groups: usize,
) -> Result<(), WireError> {
    let default = T::default();
    let set: Vec<&Field<T>> = fields.iter().filter(|f| !f.same(value, &default)).collect();
    w.put_count(set.len() + groups, MAX_SEQUENCE_LEN, "stats entries")?;
    for field in set {
        w.put_str(field.name)?;
        match field.slot {
            Slot::Count(get, _) => {
                w.put_u8(KIND_U64);
                w.put_u64(*get(value));
            }
            Slot::Total(get, _) | Slot::Mean(get, _) => {
                w.put_u8(KIND_F64);
                w.put_f64(*get(value));
            }
            Slot::Histogram(get, _) => {
                w.put_u8(KIND_HISTOGRAM);
                for column in [LATENCY_BOUNDS_US.as_slice(), get(value).counts()] {
                    w.put_count(column.len(), MAX_SEQUENCE_LEN, "histogram length")?;
                    column.iter().for_each(|&n| w.put_u64(n));
                }
            }
        }
    }
    Ok(())
}

pub(crate) fn get_stats(r: &mut ByteReader<'_>) -> Result<RuntimeStats, WireError> {
    let mut per_backend = BTreeMap::new();
    let mut stats = get_entries(r, RUNTIME_FIELDS, |name, r| {
        let row = get_entries(r, BACKEND_FIELDS, |name, _| {
            Err(WireError::Invalid {
                context: "stats group",
                detail: format!("group `{name}` nested inside a group"),
            })
        })?;
        per_backend.insert(name.to_owned(), row);
        Ok(())
    })?;
    stats.per_backend = per_backend;
    Ok(stats)
}

/// Reads one entry list into a `T` that starts at its default. An entry
/// whose name and kind match no row of `fields` is skipped; a group is
/// handed to `group`; a name repeated within one kind is refused.
fn get_entries<T: Default>(
    r: &mut ByteReader<'_>,
    fields: &[Field<T>],
    mut group: impl FnMut(&str, &mut ByteReader<'_>) -> Result<(), WireError>,
) -> Result<T, WireError> {
    let mut value = T::default();
    let mut seen = BTreeSet::new();
    for _ in 0..r.get_count(MAX_SEQUENCE_LEN, MIN_ENTRY_LEN, "stats entries")? {
        let name = r.get_str("stats entry name")?;
        let kind = r.get_u8("stats entry kind")?;
        if !seen.insert((kind, name.clone())) {
            return Err(WireError::Invalid {
                context: "stats entry",
                detail: format!("`{name}` appears twice"),
            });
        }
        let slot = fields.iter().find(|f| f.name == name).map(|f| &f.slot);
        match (kind, slot) {
            (KIND_U64, slot) => {
                let n = r.get_u64("stats u64")?;
                if let Some(&Slot::Count(_, set)) = slot {
                    *set(&mut value) = n;
                }
            }
            (KIND_F64, slot) => {
                let x = r.get_f64("stats f64")?;
                if let Some(&(Slot::Total(_, set) | Slot::Mean(_, set))) = slot {
                    *set(&mut value) = x;
                }
            }
            (KIND_HISTOGRAM, slot) => {
                let (bounds, counts) = get_histogram(r)?;
                if let Some(&Slot::Histogram(_, set)) = slot {
                    *set(&mut value) = latency_histogram(&bounds, counts)?;
                }
            }
            (KIND_GROUP, _) => group(&name, r)?,
            (tag, _) => {
                return Err(WireError::UnknownTag {
                    context: "stats entry kind",
                    tag,
                })
            }
        }
    }
    Ok(value)
}

/// Reads a histogram entry's value: its bounds, then its counts, never
/// fewer counts than bounds.
fn get_histogram(r: &mut ByteReader<'_>) -> Result<(Vec<u64>, Vec<u64>), WireError> {
    let mut column = || -> Result<Vec<u64>, WireError> {
        let len = r.get_count(MAX_SEQUENCE_LEN, 8, "histogram length")?;
        (0..len)
            .map(|_| Ok(r.get_u64("histogram value")?))
            .collect()
    };
    let bounds = column()?;
    let counts = column()?;
    if bounds.len() > counts.len() {
        return Err(WireError::Invalid {
            context: "histogram",
            detail: format!("{} bounds but {} counts", bounds.len(), counts.len()),
        });
    }
    Ok((bounds, counts))
}

/// The latency histogram a histogram entry names, which must have this
/// build's buckets.
fn latency_histogram(bounds: &[u64], counts: Vec<u64>) -> Result<LatencyHistogram, WireError> {
    match <[u64; LATENCY_BUCKETS]>::try_from(counts) {
        Ok(counts) if bounds == LATENCY_BOUNDS_US => Ok(LatencyHistogram::from_counts(counts)),
        _ => Err(WireError::Invalid {
            context: "latency buckets",
            detail: format!("expected bounds {LATENCY_BOUNDS_US:?}, got {bounds:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel::family::{ColoringSpec, FamilyKernel, FamilyResult, QuboSpec};
    use mem::generators::planted_3sat;
    use std::time::Duration;

    /// One kernel and one result per family, by tag. A family in
    /// [`FAMILIES`] without a row here fails the table test.
    fn samples(tag: u16) -> (Kernel, KernelResult) {
        match tag {
            1 => (Kernel::Factor { n: 91 }, KernelResult::Factors(7, 13)),
            2 => (
                Kernel::Search {
                    n_qubits: 6,
                    marked: vec![0, 17, 63],
                },
                KernelResult::Found(42),
            ),
            3 => (
                Kernel::DnaSimilarity {
                    a: "ACGTACGT".into(),
                    b: "TTGCACGA".into(),
                    k: 3,
                },
                KernelResult::Similarity(0.815),
            ),
            4 => (
                Kernel::SolveSat {
                    formula: planted_3sat(12, 3.5, 3).unwrap().formula,
                },
                KernelResult::SatSolution(Some(vec![true, false, true])),
            ),
            5 => (
                Kernel::Compare { x: 0.25, y: 0.75 },
                KernelResult::Distance(1.0 / 3.0),
            ),
            6 => (
                coloring_kernel(),
                KernelResult::Family(FamilyResult::Coloring {
                    colors: vec![0, 1, 0, 1],
                    conflicts: 0,
                }),
            ),
            7 => (
                qubo_kernel(),
                KernelResult::Family(FamilyResult::Qubo {
                    bits: vec![true, false, true],
                    energy: -1.75,
                }),
            ),
            other => panic!("family tag {other} has no codec sample"),
        }
    }

    /// `value` encodes to a frame opening with `frame` that decodes back
    /// to it, and to nothing else: every strict prefix and one trailing
    /// byte are errors.
    fn assert_strict_round_trip<T: PartialEq + std::fmt::Debug>(
        value: &T,
        frame: u8,
        encode: fn(&T) -> Result<Vec<u8>, WireError>,
        decode: fn(&[u8]) -> Result<T, WireError>,
    ) {
        let mut bytes = encode(value).unwrap();
        assert_eq!(bytes[0], frame, "{value:?}");
        assert_eq!(&decode(&bytes).unwrap(), value);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "{value:?} cut at {cut}");
        }
        bytes.push(0);
        assert!(
            matches!(decode(&bytes), Err(WireError::TrailingBytes { count: 1 })),
            "{value:?}"
        );
    }

    #[test]
    fn every_family_round_trips_through_the_one_frame_path() {
        for info in &FAMILIES {
            let (kernel, result) = samples(info.tag);
            assert_eq!(family::family_of(&kernel), info);
            assert_eq!(family::family_of_result(&result), info);
            assert_strict_round_trip(&kernel, info.frame, encode_kernel, decode_kernel);
            assert_strict_round_trip(
                &result,
                info.frame,
                encode_kernel_result,
                decode_kernel_result,
            );
        }
        // The one result layout with a second shape.
        let unsolved = KernelResult::SatSolution(None);
        assert_strict_round_trip(&unsolved, 3, encode_kernel_result, decode_kernel_result);
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
        w.put_u8(3); // SAT frame
        w.put_u32(3); // n_vars
        w.put_u32(1); // one clause
        w.put_u32(0); // of width zero
        w.put_u64(0); // padding past the per-clause size floor
        assert!(matches!(
            decode_kernel(&w.into_bytes()),
            Err(WireError::Invalid {
                context: "clause",
                ..
            })
        ));
        // Literal 0 is the DIMACS terminator, never a literal.
        let mut w = ByteWriter::new();
        w.put_u8(3);
        w.put_u32(3);
        w.put_u32(1);
        w.put_u32(1);
        w.put_i64(0);
        assert!(matches!(
            decode_kernel(&w.into_bytes()),
            Err(WireError::Invalid {
                context: "literal",
                ..
            })
        ));
        // Out-of-range variable index.
        let mut w = ByteWriter::new();
        w.put_u8(3);
        w.put_u32(2);
        w.put_u32(1);
        w.put_u32(1);
        w.put_i64(5);
        assert!(matches!(
            decode_kernel(&w.into_bytes()),
            Err(WireError::Invalid {
                context: "formula",
                ..
            })
        ));
    }

    #[test]
    fn hostile_clause_count_rejected() {
        let mut w = ByteWriter::new();
        w.put_u8(3); // SAT frame
        w.put_u32(3);
        w.put_u32(u32::MAX); // claims 4 billion clauses with no bytes behind it
        let err = decode_kernel(&w.into_bytes()).unwrap_err();
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
    fn family_frame_layout_is_tag_then_length_prefixed_body() {
        let bytes = encode_kernel(&coloring_kernel()).unwrap();
        assert_eq!(bytes[0], 5, "generic family frames use kernel tag 5");
        assert_eq!(
            u16::from_be_bytes([bytes[1], bytes[2]]),
            6,
            "coloring carries family tag 6"
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
        // Registry tags 1–5 have frame bytes of their own (tag 1 is
        // Factor, frame 0); smuggling one through the generic frame must
        // be rejected for kernels and results alike, not silently accepted
        // as a second encoding of the same value.
        for tag in 1..=5 {
            let mut w = ByteWriter::new();
            w.put_u8(5);
            w.put_u16(tag);
            w.put_u32(8);
            w.put_u64(21);
            let bytes = w.into_bytes();
            for err in [
                decode_kernel(&bytes).unwrap_err(),
                decode_kernel_result(&bytes).unwrap_err(),
            ] {
                assert!(
                    matches!(
                        err,
                        WireError::Invalid {
                            context: "family frame",
                            ..
                        }
                    ),
                    "tag {tag}: {err}"
                );
            }
        }
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
        let frame = encode_kernel(&coloring_kernel()).unwrap();
        let mut body = frame[7..].to_vec();
        body.push(0);
        let mut w = ByteWriter::new();
        w.put_bytes(&frame[..3]); // frame byte + family tag
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
