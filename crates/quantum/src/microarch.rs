//! The quantum micro-architecture.
//!
//! Fig. 2's micro-architecture layer "executes a well-defined set of
//! quantum instructions". [`Microarchitecture`] decodes a QISA
//! [`Program`], schedules its gates ASAP (gates on disjoint qubits run in
//! parallel, as on a real control stack), applies them to the state-vector
//! "chip", and accounts wall-clock time with realistic per-operation
//! latencies (superconducting-transmon-scale defaults).
//!
//! # Example
//!
//! ```
//! use quantum::isa::assemble;
//! use quantum::microarch::{Microarchitecture, TimingModel};
//! use numerics::rng::rng_from_seed;
//!
//! let program = assemble("qubits 2\nh q0\ncnot q0, q1\nmeasure_all\n")?;
//! let arch = Microarchitecture::new(TimingModel::default());
//! let mut rng = rng_from_seed(1);
//! let report = arch.execute(&program, &mut rng)?;
//! assert!(report.duration_ns > 0.0);
//! assert!(report.measured.is_some());
//! # Ok::<(), quantum::QuantumError>(())
//! ```

use crate::isa::{Instruction, Program};
use crate::state::StateVector;
use crate::QuantumError;
use numerics::rng::Rng;

/// Per-operation latencies in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Single-qubit gate latency.
    pub single_qubit_ns: f64,
    /// Two-qubit gate latency.
    pub two_qubit_ns: f64,
    /// Three-qubit gate latency (if executed natively).
    pub three_qubit_ns: f64,
    /// Measurement latency.
    pub measure_ns: f64,
    /// Reset/preparation latency.
    pub prep_ns: f64,
    /// Classical decode/issue overhead per instruction.
    pub decode_ns: f64,
}

impl Default for TimingModel {
    fn default() -> Self {
        // Transmon-scale numbers: 20 ns 1q, 40 ns 2q, 300 ns readout.
        TimingModel {
            single_qubit_ns: 20.0,
            two_qubit_ns: 40.0,
            three_qubit_ns: 120.0,
            measure_ns: 300.0,
            prep_ns: 200.0,
            decode_ns: 2.0,
        }
    }
}

impl TimingModel {
    fn latency(&self, instr: &Instruction) -> f64 {
        match instr {
            Instruction::Gate(g) => match g.arity() {
                1 => self.single_qubit_ns,
                2 => self.two_qubit_ns,
                _ => self.three_qubit_ns,
            },
            Instruction::PrepZ(_) => self.prep_ns,
            Instruction::Measure(_) | Instruction::MeasureAll => self.measure_ns,
        }
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

/// The micro-architecture executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Microarchitecture {
    timing: TimingModel,
}

impl Microarchitecture {
    /// Creates an executor with the given timing model.
    #[must_use]
    pub fn new(timing: TimingModel) -> Self {
        Microarchitecture { timing }
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
    pub fn execute<R: Rng>(
        &self,
        program: &Program,
        rng: &mut R,
    ) -> Result<ExecutionReport, QuantumError> {
        let n = program.n_qubits();
        let mut state = StateVector::try_zero(n)?;
        let mut qubit_free_at = vec![0.0f64; n];
        let mut serial_ns = 0.0;
        let mut class_counts = (0, 0, 0, 0, 0);
        let mut measured = None;
        let mut qubit_measurements = Vec::new();
        let mut critical_path: f64 = 0.0;

        for instr in program.instructions() {
            let latency = self.timing.latency(instr);
            serial_ns += latency + self.timing.decode_ns;
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
        let decode_total = program.instructions().len() as f64 * self.timing.decode_ns;
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
        &self,
        program: &Program,
        shots: usize,
        rng: &mut R,
    ) -> Result<Vec<(usize, usize)>, QuantumError> {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
        for _ in 0..shots {
            let report = self.execute(program, rng)?;
            let outcome = report.measured.ok_or_else(|| QuantumError::Algorithm {
                reason: "program has no measure_all".into(),
            })?;
            *counts.entry(outcome).or_insert(0) += 1;
        }
        Ok(counts.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::assemble;
    use numerics::rng::rng_from_seed;

    fn arch() -> Microarchitecture {
        Microarchitecture::new(TimingModel::default())
    }

    #[test]
    fn bell_pair_statistics() {
        let program = assemble("qubits 2\nh q0\ncnot q0, q1\nmeasure_all\n").unwrap();
        let mut rng = rng_from_seed(1);
        let counts = arch().sample(&program, 400, &mut rng).unwrap();
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
        let report = arch().execute(&program, &mut rng).unwrap();
        let t = TimingModel::default();
        let expected = t.single_qubit_ns + 2.0 * t.decode_ns;
        assert!((report.duration_ns - expected).abs() < 1e-9);
        assert!(report.serial_ns > report.duration_ns);
    }

    #[test]
    fn dependent_gates_serialize() {
        let program = assemble("qubits 2\nh q0\ncnot q0, q1\n").unwrap();
        let mut rng = rng_from_seed(3);
        let report = arch().execute(&program, &mut rng).unwrap();
        let t = TimingModel::default();
        let expected = t.single_qubit_ns + t.two_qubit_ns + 2.0 * t.decode_ns;
        assert!((report.duration_ns - expected).abs() < 1e-9);
    }

    #[test]
    fn measure_dominates_latency() {
        let program = assemble("qubits 1\nh q0\nmeasure q0\n").unwrap();
        let mut rng = rng_from_seed(4);
        let report = arch().execute(&program, &mut rng).unwrap();
        assert!(report.duration_ns > TimingModel::default().measure_ns);
        assert_eq!(report.qubit_measurements.len(), 1);
    }

    #[test]
    fn prep_z_resets() {
        let program = assemble("qubits 1\nx q0\nprep_z q0\nmeasure q0\n").unwrap();
        let mut rng = rng_from_seed(5);
        let report = arch().execute(&program, &mut rng).unwrap();
        assert_eq!(report.qubit_measurements, vec![(0, false)]);
    }

    #[test]
    fn class_counts_tallied() {
        let program =
            assemble("qubits 3\nh q0\nx q1\ncnot q0, q1\ntoffoli q0, q1, q2\nmeasure_all\n")
                .unwrap();
        let mut rng = rng_from_seed(6);
        let report = arch().execute(&program, &mut rng).unwrap();
        assert_eq!(report.class_counts, (2, 1, 1, 0, 1));
        assert_eq!(report.instructions, 5);
    }

    #[test]
    fn sample_requires_measure_all() {
        let program = assemble("qubits 1\nh q0\n").unwrap();
        let mut rng = rng_from_seed(7);
        assert!(arch().sample(&program, 3, &mut rng).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let program = assemble("qubits 2\nh q0\ncnot q0, q1\nmeasure_all\n").unwrap();
        let a = arch()
            .execute(&program, &mut rng_from_seed(9))
            .unwrap()
            .measured;
        let b = arch()
            .execute(&program, &mut rng_from_seed(9))
            .unwrap()
            .measured;
        assert_eq!(a, b);
    }
}
