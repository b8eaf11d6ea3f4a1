//! The layered quantum-accelerator stack (paper Fig. 2).
//!
//! "Figure 2 shows the full system stack that any quantum accelerator
//! should have": application → algorithm → programming language/compiler →
//! runtime → QISA → micro-architecture → quantum chip. [`StackModel`] walks
//! a QISA program through those layers, charging each a latency from an
//! analytical model (compilation and routing per gate, decode per
//! instruction, chip time from the micro-architecture's ASAP schedule), and
//! reports where a job's time actually goes.
//!
//! # Example
//!
//! ```
//! use accel::stack::StackModel;
//! use quantum::isa::assemble;
//! use numerics::rng::rng_from_seed;
//!
//! let program = assemble("qubits 2\nh q0\ncnot q0, q1\nmeasure_all\n")?;
//! let model = StackModel::default();
//! let mut rng = rng_from_seed(1);
//! let report = model.run(&program, &mut rng)?;
//! assert!(report.total_ns() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use numerics::rng::Rng;
use quantum::isa::Program;
use quantum::microarch::{ExecutionReport, Microarchitecture, TimingModel};
use quantum::QuantumError;

/// The layers of Fig. 2, top to bottom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// End-user application logic.
    Application,
    /// Algorithm selection/specialization.
    Algorithm,
    /// Language/compiler (including mapping & routing).
    Compiler,
    /// Classical runtime management.
    Runtime,
    /// Instruction-set encoding/decoding.
    Qisa,
    /// Micro-architecture control.
    Microarchitecture,
    /// The quantum chip itself.
    Chip,
}

impl Layer {
    /// All layers, top to bottom.
    pub const ALL: [Layer; 7] = [
        Layer::Application,
        Layer::Algorithm,
        Layer::Compiler,
        Layer::Runtime,
        Layer::Qisa,
        Layer::Microarchitecture,
        Layer::Chip,
    ];
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Layer::Application => "application",
            Layer::Algorithm => "algorithm",
            Layer::Compiler => "compiler",
            Layer::Runtime => "runtime",
            Layer::Qisa => "qisa",
            Layer::Microarchitecture => "micro-architecture",
            Layer::Chip => "chip",
        };
        f.write_str(s)
    }
}

/// Analytic per-layer latency coefficients (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackModel {
    /// Fixed application-layer overhead per job.
    pub application_ns: f64,
    /// Fixed algorithm-selection overhead per job.
    pub algorithm_ns: f64,
    /// Compiler cost per instruction (parsing, scheduling, routing).
    pub compile_per_instr_ns: f64,
    /// Runtime invocation overhead per job.
    pub runtime_ns: f64,
    /// QISA encode/decode per instruction.
    pub qisa_per_instr_ns: f64,
    /// The micro-architecture timing model (controls both the control
    /// overhead and the chip time).
    pub timing: TimingModel,
}

impl Default for StackModel {
    fn default() -> Self {
        StackModel {
            application_ns: 10_000.0,
            algorithm_ns: 5_000.0,
            compile_per_instr_ns: 500.0,
            runtime_ns: 2_000.0,
            qisa_per_instr_ns: 10.0,
            timing: TimingModel::default(),
        }
    }
}

/// Where a job's time went, layer by layer.
#[derive(Debug, Clone, PartialEq)]
pub struct StackReport {
    layers: Vec<(Layer, f64)>,
    /// The chip-level execution report.
    pub execution: ExecutionReport,
}

impl StackReport {
    /// Total job latency in nanoseconds.
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        self.layers.iter().map(|(_, t)| t).sum()
    }

    /// The latency charged to one layer.
    #[must_use]
    pub fn layer_ns(&self, layer: Layer) -> f64 {
        self.layers
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, t)| *t)
    }

    /// Fraction of the total spent on the chip itself — the figure of merit
    /// for how much of the stack is classical overhead.
    #[must_use]
    pub fn chip_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total <= 0.0 {
            return 0.0;
        }
        self.layer_ns(Layer::Chip) / total
    }
}

impl std::fmt::Display for StackReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (layer, ns) in &self.layers {
            writeln!(f, "{layer:>20}: {ns:>12.1} ns")?;
        }
        writeln!(f, "{:>20}: {:>12.1} ns", "total", self.total_ns())
    }
}

impl StackModel {
    /// Runs a program through every layer, executing it once on the
    /// simulated chip at the bottom.
    ///
    /// # Errors
    ///
    /// Propagates micro-architecture execution errors.
    pub fn run<R: Rng>(&self, program: &Program, rng: &mut R) -> Result<StackReport, QuantumError> {
        self.run_shots(program, 1, rng)
    }

    /// Runs a program through every layer with `shots` repeated executions:
    /// the classical layers (application through QISA encoding) are paid
    /// once per job, while the micro-architecture and chip layers repeat
    /// per shot — the standard accelerator usage pattern, under which the
    /// chip fraction grows with both circuit size and shot count.
    ///
    /// The returned [`StackReport::execution`] holds the final shot.
    ///
    /// # Errors
    ///
    /// Propagates micro-architecture execution errors; `shots` is clamped
    /// to at least 1.
    pub fn run_shots<R: Rng>(
        &self,
        program: &Program,
        shots: usize,
        rng: &mut R,
    ) -> Result<StackReport, QuantumError> {
        let shots = shots.max(1);
        let n_instr = program.instructions().len() as f64;
        let arch = Microarchitecture::new(self.timing);
        let mut execution = arch.execute(program, rng)?;
        for _ in 1..shots {
            execution = arch.execute(program, rng)?;
        }
        // The micro-architecture layer is the decode/issue overhead; the
        // chip layer is the quantum critical path. Both repeat per shot.
        let decode_ns = n_instr * self.timing.decode_ns * shots as f64;
        let chip_ns =
            (execution.duration_ns - n_instr * self.timing.decode_ns).max(0.0) * shots as f64;
        let layers = vec![
            (Layer::Application, self.application_ns),
            (Layer::Algorithm, self.algorithm_ns),
            (Layer::Compiler, n_instr * self.compile_per_instr_ns),
            (Layer::Runtime, self.runtime_ns),
            (Layer::Qisa, n_instr * self.qisa_per_instr_ns),
            (Layer::Microarchitecture, decode_ns),
            (Layer::Chip, chip_ns),
        ];
        Ok(StackReport { layers, execution })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numerics::rng::rng_from_seed;
    use quantum::isa::assemble;

    fn bell() -> Program {
        assemble("qubits 2\nh q0\ncnot q0, q1\nmeasure_all\n").unwrap()
    }

    #[test]
    fn report_covers_all_layers() {
        let mut rng = rng_from_seed(1);
        let report = StackModel::default().run(&bell(), &mut rng).unwrap();
        assert_eq!(report.layers.len(), Layer::ALL.len());
        for layer in Layer::ALL {
            assert!(report.layer_ns(layer) >= 0.0);
        }
    }

    #[test]
    fn total_is_sum_of_layers() {
        let mut rng = rng_from_seed(2);
        let report = StackModel::default().run(&bell(), &mut rng).unwrap();
        let sum: f64 = Layer::ALL.iter().map(|&l| report.layer_ns(l)).sum();
        assert!((report.total_ns() - sum).abs() < 1e-9);
    }

    #[test]
    fn small_jobs_dominated_by_classical_overhead() {
        // The practical point of Fig. 2: for small circuits, the classical
        // stack dwarfs the chip time.
        let mut rng = rng_from_seed(3);
        let report = StackModel::default().run(&bell(), &mut rng).unwrap();
        assert!(
            report.chip_fraction() < 0.5,
            "chip fraction {}",
            report.chip_fraction()
        );
    }

    #[test]
    fn bigger_programs_cost_more_compile_time() {
        let mut rng = rng_from_seed(4);
        let small = StackModel::default().run(&bell(), &mut rng).unwrap();
        let big_src = {
            let mut s = String::from("qubits 4\n");
            for _ in 0..50 {
                s.push_str("h q0\ncnot q0, q1\ncnot q1, q2\ncnot q2, q3\n");
            }
            s.push_str("measure_all\n");
            s
        };
        let big = StackModel::default()
            .run(&assemble(&big_src).unwrap(), &mut rng)
            .unwrap();
        assert!(big.layer_ns(Layer::Compiler) > small.layer_ns(Layer::Compiler));
        assert!(big.layer_ns(Layer::Chip) > small.layer_ns(Layer::Chip));
    }

    #[test]
    fn display_renders_every_layer() {
        let mut rng = rng_from_seed(5);
        let report = StackModel::default().run(&bell(), &mut rng).unwrap();
        let text = report.to_string();
        for layer in Layer::ALL {
            assert!(text.contains(&layer.to_string()), "missing {layer}");
        }
        assert!(text.contains("total"));
    }

    #[test]
    fn shots_grow_chip_fraction() {
        let mut rng = rng_from_seed(9);
        let model = StackModel::default();
        let one = model.run_shots(&bell(), 1, &mut rng).unwrap();
        let many = model.run_shots(&bell(), 1000, &mut rng).unwrap();
        assert!(
            many.chip_fraction() > one.chip_fraction() * 5.0,
            "1 shot {} vs 1000 shots {}",
            one.chip_fraction(),
            many.chip_fraction()
        );
    }

    #[test]
    fn layer_display_names_distinct() {
        let names: std::collections::BTreeSet<String> =
            Layer::ALL.iter().map(Layer::to_string).collect();
        assert_eq!(names.len(), Layer::ALL.len());
    }
}
