//! The quantum micro-architecture.
//!
//! Fig. 2's micro-architecture layer "executes a well-defined set of
//! quantum instructions". [`execute`] decodes a QISA [`Program`],
//! schedules its gates ASAP (gates on disjoint qubits run in parallel, as
//! on a real control stack), applies them to the state-vector "chip", and
//! accounts wall-clock time with the machine's per-operation latencies
//! below (superconducting-transmon scale). The latencies are properties of
//! the one machine modelled, not per-run options; the quantum backend's
//! device time reads the same constants.
//!
//! # Example
//!
//! ```
//! use quantum::isa::assemble;
//! use quantum::microarch;
//! use numerics::rng::rng_from_seed;
//!
//! let program = assemble("qubits 2\nh q0\ncnot q0, q1\nmeasure_all\n")?;
//! let mut rng = rng_from_seed(1);
//! let report = microarch::execute(&program, &mut rng)?;
//! assert!(report.duration_ns > 0.0);
//! assert!(report.measured.is_some());
//! # Ok::<(), quantum::QuantumError>(())
//! ```

use crate::isa::{Instruction, Program};
use crate::state::StateVector;
use crate::QuantumError;
use numerics::rng::Rng;

/// Single-qubit gate latency, nanoseconds.
const SINGLE_QUBIT_NS: f64 = 20.0;
/// Two-qubit gate latency, nanoseconds.
pub const TWO_QUBIT_NS: f64 = 40.0;
/// Three-qubit gate latency (executed natively), nanoseconds.
const THREE_QUBIT_NS: f64 = 120.0;
/// Measurement (readout) latency, nanoseconds.
pub const MEASURE_NS: f64 = 300.0;
/// Reset/preparation latency, nanoseconds.
const PREP_NS: f64 = 200.0;
/// Classical decode/issue overhead per instruction, nanoseconds.
pub const DECODE_NS: f64 = 2.0;

fn latency(instr: &Instruction) -> f64 {
    match instr {
        Instruction::Gate(g) => match g.arity() {
            1 => SINGLE_QUBIT_NS,
            2 => TWO_QUBIT_NS,
            _ => THREE_QUBIT_NS,
        },
        Instruction::PrepZ(_) => PREP_NS,
        Instruction::Measure(_) | Instruction::MeasureAll => MEASURE_NS,
    }
}

/// Execution report of one program run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Total scheduled duration (critical path + decode), nanoseconds.
    pub duration_ns: f64,
    /// Sum of all instruction latencies if run fully serially — the
    /// parallelism headroom is `serial_ns / duration_ns`.
    pub serial_ns: f64,
    /// Number of instructions decoded.
    pub instructions: usize,
    /// Counts by class: `(single, double, triple, prep, measure)`.
    pub class_counts: (usize, usize, usize, usize, usize),
    /// Final register measurement, when the program ended with
    /// `measure_all` (basis index).
    pub measured: Option<usize>,
    /// Individual qubit measurement outcomes, in program order.
    pub qubit_measurements: Vec<(usize, bool)>,
    /// The final quantum state (post-measurement collapse included).
    pub final_state: StateVector,
}

/// Decodes, schedules, and executes a program.
///
/// Scheduling is ASAP: an instruction starts when all its operand
/// qubits are free; `measure_all` and `prep_z` act as full or single
/// qubit barriers respectively.
///
/// # Errors
///
/// Propagates gate-application errors from the state-vector backend.
pub fn execute<R: Rng>(program: &Program, rng: &mut R) -> Result<ExecutionReport, QuantumError> {
    let n = program.n_qubits();
    let mut state = StateVector::try_zero(n)?;
    let mut qubit_free_at = vec![0.0f64; n];
    let mut serial_ns = 0.0;
    let mut class_counts = (0, 0, 0, 0, 0);
    let mut measured = None;
    let mut qubit_measurements = Vec::new();
    let mut critical_path: f64 = 0.0;

    for instr in program.instructions() {
        let latency = latency(instr);
        serial_ns += latency + DECODE_NS;
        let touched: Vec<usize> = match instr {
            Instruction::Gate(g) => {
                match g.arity() {
                    1 => class_counts.0 += 1,
                    2 => class_counts.1 += 1,
                    _ => class_counts.2 += 1,
                }
                g.apply(&mut state)?;
                g.qubits()
            }
            Instruction::PrepZ(q) => {
                class_counts.3 += 1;
                // Measure and conditionally flip — the standard active
                // reset.
                if state.measure_qubit(*q, rng)? {
                    crate::gate::Gate::X(*q).apply(&mut state)?;
                }
                vec![*q]
            }
            Instruction::Measure(q) => {
                class_counts.4 += 1;
                let outcome = state.measure_qubit(*q, rng)?;
                qubit_measurements.push((*q, outcome));
                vec![*q]
            }
            Instruction::MeasureAll => {
                class_counts.4 += 1;
                measured = Some(state.measure_all(rng));
                (0..n).collect()
            }
        };
        let start = touched
            .iter()
            .map(|&q| qubit_free_at[q])
            .fold(0.0f64, f64::max);
        let finish = start + latency;
        for &q in &touched {
            qubit_free_at[q] = finish;
        }
        critical_path = critical_path.max(finish);
    }
    let decode_total = program.instructions().len() as f64 * DECODE_NS;
    Ok(ExecutionReport {
        duration_ns: critical_path + decode_total,
        serial_ns,
        instructions: program.instructions().len(),
        class_counts,
        measured,
        qubit_measurements,
        final_state: state,
    })
}

/// Runs a program `shots` times and histograms the `measure_all`
/// outcomes.
///
/// # Errors
///
/// * [`QuantumError::Algorithm`] when the program has no `measure_all`.
/// * Propagates execution errors.
pub fn sample<R: Rng>(
    program: &Program,
    shots: usize,
    rng: &mut R,
) -> Result<Vec<(usize, usize)>, QuantumError> {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
    for _ in 0..shots {
        let report = execute(program, rng)?;
        let outcome = report.measured.ok_or_else(|| QuantumError::Algorithm {
            reason: "program has no measure_all".into(),
        })?;
        *counts.entry(outcome).or_insert(0) += 1;
    }
    Ok(counts.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::assemble;
    use numerics::rng::rng_from_seed;

    #[test]
    fn bell_pair_statistics() {
        let program = assemble("qubits 2\nh q0\ncnot q0, q1\nmeasure_all\n").unwrap();
        let mut rng = rng_from_seed(1);
        let counts = sample(&program, 400, &mut rng).unwrap();
        let total: usize = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 400);
        for (outcome, count) in counts {
            assert!(outcome == 0 || outcome == 3, "impossible outcome {outcome}");
            assert!(count > 120, "lopsided Bell statistics: {count}");
        }
    }

    #[test]
    fn parallel_gates_share_time() {
        // Two independent Hadamards: critical path one gate, serial two.
        let program = assemble("qubits 2\nh q0\nh q1\n").unwrap();
        let mut rng = rng_from_seed(2);
        let report = execute(&program, &mut rng).unwrap();
        let expected = SINGLE_QUBIT_NS + 2.0 * DECODE_NS;
        assert!((report.duration_ns - expected).abs() < 1e-9);
        assert!(report.serial_ns > report.duration_ns);
    }

    #[test]
    fn dependent_gates_serialize() {
        let program = assemble("qubits 2\nh q0\ncnot q0, q1\n").unwrap();
        let mut rng = rng_from_seed(3);
        let report = execute(&program, &mut rng).unwrap();
        let expected = SINGLE_QUBIT_NS + TWO_QUBIT_NS + 2.0 * DECODE_NS;
        assert!((report.duration_ns - expected).abs() < 1e-9);
    }

    #[test]
    fn measure_dominates_latency() {
        let program = assemble("qubits 1\nh q0\nmeasure q0\n").unwrap();
        let mut rng = rng_from_seed(4);
        let report = execute(&program, &mut rng).unwrap();
        assert!(report.duration_ns > MEASURE_NS);
        assert_eq!(report.qubit_measurements.len(), 1);
    }

    #[test]
    fn prep_z_resets() {
        let program = assemble("qubits 1\nx q0\nprep_z q0\nmeasure q0\n").unwrap();
        let mut rng = rng_from_seed(5);
        let report = execute(&program, &mut rng).unwrap();
        assert_eq!(report.qubit_measurements, vec![(0, false)]);
    }

    #[test]
    fn class_counts_tallied() {
        let program =
            assemble("qubits 3\nh q0\nx q1\ncnot q0, q1\ntoffoli q0, q1, q2\nmeasure_all\n")
                .unwrap();
        let mut rng = rng_from_seed(6);
        let report = execute(&program, &mut rng).unwrap();
        assert_eq!(report.class_counts, (2, 1, 1, 0, 1));
        assert_eq!(report.instructions, 5);
    }

    #[test]
    fn sample_requires_measure_all() {
        let program = assemble("qubits 1\nh q0\n").unwrap();
        let mut rng = rng_from_seed(7);
        assert!(sample(&program, 3, &mut rng).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let program = assemble("qubits 2\nh q0\ncnot q0, q1\nmeasure_all\n").unwrap();
        let a = execute(&program, &mut rng_from_seed(9)).unwrap().measured;
        let b = execute(&program, &mut rng_from_seed(9)).unwrap().measured;
        assert_eq!(a, b);
    }
}
