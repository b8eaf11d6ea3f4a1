//! A textual quantum instruction-set architecture (QISA).
//!
//! Fig. 2 places "a well-defined set of quantum instructions" at the heart
//! of the accelerator stack. This module defines a small cQASM-flavoured
//! assembly:
//!
//! ```text
//! # comments with '#'
//! qubits 3
//! prep_z q0
//! h q0
//! cnot q0, q1
//! rz q2, 1.5707963
//! toffoli q0, q1, q2
//! measure q0
//! measure_all
//! ```
//!
//! [`assemble`] parses text into a [`Program`]; [`Program::disassemble`]
//! round-trips it. The micro-architecture ([`crate::microarch`]) executes
//! programs.
//!
//! # Example
//!
//! ```
//! use quantum::isa::assemble;
//!
//! let program = assemble("qubits 2\nh q0\ncnot q0, q1\nmeasure_all\n")?;
//! assert_eq!(program.n_qubits(), 2);
//! assert_eq!(program.instructions().len(), 3);
//! # Ok::<(), quantum::QuantumError>(())
//! ```

use crate::gate::Gate;
use crate::QuantumError;

/// One QISA instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instruction {
    /// A unitary gate.
    Gate(Gate),
    /// Reset a qubit to `|0⟩` in the Z basis.
    PrepZ(usize),
    /// Measure one qubit in the Z basis.
    Measure(usize),
    /// Measure the whole register.
    MeasureAll,
}

impl std::fmt::Display for Instruction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Instruction::Gate(g) => write!(f, "{g}"),
            Instruction::PrepZ(q) => write!(f, "prep_z q{q}"),
            Instruction::Measure(q) => write!(f, "measure q{q}"),
            Instruction::MeasureAll => write!(f, "measure_all"),
        }
    }
}

/// An assembled QISA program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    n_qubits: usize,
    instructions: Vec<Instruction>,
}

impl Program {
    /// Builds a program from parts, validating qubit indices.
    ///
    /// # Errors
    ///
    /// * [`QuantumError::BadRegisterWidth`] for a zero width.
    /// * [`QuantumError::QubitOutOfRange`] for any out-of-range operand.
    pub(crate) fn new(
        n_qubits: usize,
        instructions: Vec<Instruction>,
    ) -> Result<Self, QuantumError> {
        if n_qubits == 0 {
            return Err(QuantumError::BadRegisterWidth { n_qubits });
        }
        for instr in &instructions {
            let qubits = match instr {
                Instruction::Gate(g) => g.qubits(),
                Instruction::PrepZ(q) | Instruction::Measure(q) => vec![*q],
                Instruction::MeasureAll => vec![],
            };
            for q in qubits {
                if q >= n_qubits {
                    return Err(QuantumError::QubitOutOfRange { qubit: q, n_qubits });
                }
            }
        }
        Ok(Program {
            n_qubits,
            instructions,
        })
    }

    /// Register width.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The instruction list.
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Emits assembly text that [`assemble`] re-parses to an equal program.
    #[must_use]
    pub fn disassemble(&self) -> String {
        let mut out = format!("qubits {}\n", self.n_qubits);
        for instr in &self.instructions {
            out.push_str(&instr.to_string());
            out.push('\n');
        }
        out
    }

    /// Converts a [`crate::circuit::Circuit`] into a program (gates +
    /// optional trailing `measure_all`).
    #[must_use]
    pub fn from_circuit(circuit: &crate::circuit::Circuit, measure_all: bool) -> Program {
        let mut instructions: Vec<Instruction> = circuit
            .gates()
            .iter()
            .copied()
            .map(Instruction::Gate)
            .collect();
        if measure_all {
            instructions.push(Instruction::MeasureAll);
        }
        Program {
            n_qubits: circuit.n_qubits(),
            instructions,
        }
    }
}

fn parse_qubit(token: &str, line: usize) -> Result<usize, QuantumError> {
    let t = token.trim();
    let body = t.strip_prefix('q').ok_or_else(|| QuantumError::Assembly {
        line,
        reason: format!("expected qubit operand like `q0`, got `{t}`"),
    })?;
    body.parse().map_err(|_| QuantumError::Assembly {
        line,
        reason: format!("bad qubit index `{t}`"),
    })
}

fn parse_angle(token: &str, line: usize) -> Result<f64, QuantumError> {
    token.trim().parse().map_err(|_| QuantumError::Assembly {
        line,
        reason: format!("bad angle `{}`", token.trim()),
    })
}

/// Assembles QISA text into a [`Program`].
///
/// # Errors
///
/// Returns [`QuantumError::Assembly`] with the offending line number for any
/// syntax problem, and propagates `Program::new` validation.
pub fn assemble(source: &str) -> Result<Program, QuantumError> {
    let mut n_qubits: Option<usize> = None;
    let mut instructions = Vec::new();
    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (mnemonic, rest) = match line.split_once(char::is_whitespace) {
            Some((m, r)) => (m.to_ascii_lowercase(), r.trim()),
            None => (line.to_ascii_lowercase(), ""),
        };
        let operands: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };
        let expect = |n: usize| -> Result<(), QuantumError> {
            if operands.len() != n {
                return Err(QuantumError::Assembly {
                    line: line_no,
                    reason: format!(
                        "`{mnemonic}` expects {n} operand(s), got {}",
                        operands.len()
                    ),
                });
            }
            Ok(())
        };
        match mnemonic.as_str() {
            "qubits" => {
                expect(1)?;
                let n = operands[0].parse().map_err(|_| QuantumError::Assembly {
                    line: line_no,
                    reason: format!("bad register width `{}`", operands[0]),
                })?;
                if n_qubits.replace(n).is_some() {
                    return Err(QuantumError::Assembly {
                        line: line_no,
                        reason: "duplicate `qubits` declaration".into(),
                    });
                }
            }
            "h" | "x" | "y" | "z" | "s" | "sdg" | "t" | "tdg" => {
                expect(1)?;
                let q = parse_qubit(operands[0], line_no)?;
                let gate = match mnemonic.as_str() {
                    "h" => Gate::H(q),
                    "x" => Gate::X(q),
                    "y" => Gate::Y(q),
                    "z" => Gate::Z(q),
                    "s" => Gate::S(q),
                    "sdg" => Gate::Sdg(q),
                    "t" => Gate::T(q),
                    _ => Gate::Tdg(q),
                };
                instructions.push(Instruction::Gate(gate));
            }
            "rx" | "ry" | "rz" | "p" => {
                expect(2)?;
                let q = parse_qubit(operands[0], line_no)?;
                let theta = parse_angle(operands[1], line_no)?;
                let gate = match mnemonic.as_str() {
                    "rx" => Gate::Rx(q, theta),
                    "ry" => Gate::Ry(q, theta),
                    "rz" => Gate::Rz(q, theta),
                    _ => Gate::Phase(q, theta),
                };
                instructions.push(Instruction::Gate(gate));
            }
            "cnot" | "cx" | "cz" | "swap" => {
                expect(2)?;
                let a = parse_qubit(operands[0], line_no)?;
                let b = parse_qubit(operands[1], line_no)?;
                let gate = match mnemonic.as_str() {
                    "cnot" | "cx" => Gate::CX(a, b),
                    "cz" => Gate::CZ(a, b),
                    _ => Gate::Swap(a, b),
                };
                instructions.push(Instruction::Gate(gate));
            }
            "cp" => {
                expect(3)?;
                let a = parse_qubit(operands[0], line_no)?;
                let b = parse_qubit(operands[1], line_no)?;
                let theta = parse_angle(operands[2], line_no)?;
                instructions.push(Instruction::Gate(Gate::CPhase(a, b, theta)));
            }
            "toffoli" | "ccx" => {
                expect(3)?;
                let a = parse_qubit(operands[0], line_no)?;
                let b = parse_qubit(operands[1], line_no)?;
                let c = parse_qubit(operands[2], line_no)?;
                instructions.push(Instruction::Gate(Gate::Toffoli(a, b, c)));
            }
            "prep_z" => {
                expect(1)?;
                instructions.push(Instruction::PrepZ(parse_qubit(operands[0], line_no)?));
            }
            "measure" => {
                expect(1)?;
                instructions.push(Instruction::Measure(parse_qubit(operands[0], line_no)?));
            }
            "measure_all" => {
                expect(0)?;
                instructions.push(Instruction::MeasureAll);
            }
            other => {
                return Err(QuantumError::Assembly {
                    line: line_no,
                    reason: format!("unknown mnemonic `{other}`"),
                });
            }
        }
    }
    let n = n_qubits.ok_or(QuantumError::Assembly {
        line: 0,
        reason: "missing `qubits N` declaration".into(),
    })?;
    Program::new(n, instructions)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BELL: &str = "\
# Bell pair
qubits 2
h q0
cnot q0, q1
measure_all
";

    #[test]
    fn assembles_bell() {
        let p = assemble(BELL).unwrap();
        assert_eq!(p.n_qubits(), 2);
        assert_eq!(
            p.instructions(),
            &[
                Instruction::Gate(Gate::H(0)),
                Instruction::Gate(Gate::CX(0, 1)),
                Instruction::MeasureAll,
            ]
        );
    }

    #[test]
    fn roundtrip_disassemble() {
        let src = "\
qubits 3
prep_z q0
h q0
rz q1, 0.5
cp q0, q2, 0.25
toffoli q0, q1, q2
swap q1, q2
measure q2
measure_all
";
        let p = assemble(src).unwrap();
        let text = p.disassemble();
        let p2 = assemble(&text).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = assemble("qubits 1\n\n# nothing\nh q0 # trailing\n").unwrap();
        assert_eq!(p.instructions().len(), 1);
    }

    #[test]
    fn missing_qubits_rejected() {
        let err = assemble("h q0\n");
        assert!(matches!(err, Err(QuantumError::Assembly { .. })));
    }

    #[test]
    fn duplicate_qubits_rejected() {
        assert!(assemble("qubits 2\nqubits 3\n").is_err());
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let err = assemble("qubits 1\nfoo q0\n").unwrap_err();
        match err {
            QuantumError::Assembly { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn operand_count_checked() {
        assert!(assemble("qubits 2\ncnot q0\n").is_err());
        assert!(assemble("qubits 2\nh q0, q1\n").is_err());
        assert!(assemble("qubits 2\nrz q0\n").is_err());
    }

    #[test]
    fn qubit_range_checked() {
        assert!(matches!(
            assemble("qubits 2\nh q5\n"),
            Err(QuantumError::QubitOutOfRange { qubit: 5, .. })
        ));
    }

    #[test]
    fn bad_operand_syntax() {
        assert!(assemble("qubits 2\nh 0\n").is_err());
        assert!(assemble("qubits 2\nrz q0, abc\n").is_err());
    }

    #[test]
    fn from_circuit_roundtrip() {
        let mut c = crate::circuit::Circuit::new(2).unwrap();
        c.h(0).unwrap().cx(0, 1).unwrap();
        let p = Program::from_circuit(&c, true);
        assert_eq!(p.instructions().len(), 3);
        let text = p.disassemble();
        assert_eq!(assemble(&text).unwrap(), p);
    }
}
