//! Kernels: the work items a heterogeneous host dispatches.
//!
//! One kernel per headline capability of the paper's three paradigms, plus
//! the result and cost-report types every backend returns.
//!
//! # Example
//!
//! ```
//! use accel::kernel::Kernel;
//!
//! let k = Kernel::Factor { n: 15 };
//! assert_eq!(k.describe(), "factor(15)");
//! ```

use mem::cnf::Formula;

/// Why a kernel was rejected at submission time, before reaching any
/// backend.
///
/// Submission-time validation keeps malformed work out of the serving
/// queue entirely: the runtime and the network server both reject these
/// kernels with a typed error instead of letting them fail (or worse,
/// panic) deep inside a backend.
#[derive(Debug, Clone, PartialEq)]
pub enum InvalidKernel {
    /// `Factor { n }` with `n < 4`: no nontrivial factorization exists.
    FactorTooSmall {
        /// The rejected composite.
        n: u64,
    },
    /// `Search` over zero qubits: the search space is empty.
    EmptySearchSpace,
    /// A `Search` marked item outside `0..2^n_qubits`.
    MarkedOutOfRange {
        /// The offending marked item.
        item: usize,
        /// The search-space width in qubits.
        n_qubits: usize,
    },
    /// `DnaSimilarity` with `k == 0`: k-mers must be non-empty.
    ZeroKmer,
    /// `DnaSimilarity` with `k` longer than the shorter sequence: no
    /// k-mer can be extracted.
    KmerTooLong {
        /// The rejected k-mer length.
        k: usize,
        /// Length of the shorter sequence.
        shorter: usize,
    },
    /// A `DnaSimilarity` sequence holds a character outside the ACGT
    /// alphabet (either case).
    DnaInvalidBase {
        /// The offending character.
        base: char,
    },
    /// A `Compare` operand is NaN or infinite.
    CompareNotFinite {
        /// First operand.
        x: f64,
        /// Second operand.
        y: f64,
    },
    /// A `Compare` operand lies outside the normalized range `[0, 1]`.
    CompareOutOfRange {
        /// First operand.
        x: f64,
        /// Second operand.
        y: f64,
    },
    /// A kernel exceeds its family's serving cap.
    FamilyTooLarge {
        /// The family name.
        family: &'static str,
        /// Which field overflowed.
        field: &'static str,
        /// The submitted size.
        len: usize,
        /// The serving cap.
        max: usize,
    },
    /// A coloring instance too small or with an unusable palette.
    ColoringDegenerate {
        /// Vertex count.
        n_vertices: usize,
        /// Palette size.
        n_colors: usize,
    },
    /// A coloring edge with an out-of-range endpoint or a self-loop.
    ColoringEdgeInvalid {
        /// First endpoint.
        a: usize,
        /// Second endpoint.
        b: usize,
        /// Vertex count.
        n_vertices: usize,
    },
    /// A QUBO over zero variables.
    QuboEmpty,
    /// A QUBO term indexing outside `0..n_vars`, or a diagonal quadratic
    /// term (diagonal weight belongs in the linear part: `x·x = x`).
    QuboIndexInvalid {
        /// First index.
        i: usize,
        /// Second index (equal to `i` for linear terms).
        j: usize,
        /// Variable count.
        n_vars: usize,
    },
    /// A QUBO coefficient is NaN or infinite.
    QuboCoefficientNotFinite {
        /// First index.
        i: usize,
        /// Second index (equal to `i` for linear terms).
        j: usize,
    },
}

impl std::fmt::Display for InvalidKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidKernel::FactorTooSmall { n } => {
                write!(
                    f,
                    "factor({n}): composites below 4 have no nontrivial factors"
                )
            }
            InvalidKernel::EmptySearchSpace => {
                write!(f, "search over 0 qubits: the search space is empty")
            }
            InvalidKernel::MarkedOutOfRange { item, n_qubits } => {
                write!(f, "marked item {item} outside search space 0..2^{n_qubits}")
            }
            InvalidKernel::ZeroKmer => write!(f, "dna similarity with k = 0"),
            InvalidKernel::KmerTooLong { k, shorter } => write!(
                f,
                "dna similarity k-mer length {k} exceeds shorter sequence length {shorter}"
            ),
            InvalidKernel::DnaInvalidBase { base } => {
                write!(
                    f,
                    "dna similarity sequence holds `{base}`, not a nucleotide (ACGT)"
                )
            }
            InvalidKernel::CompareNotFinite { x, y } => {
                write!(f, "compare operands ({x}, {y}) must be finite")
            }
            InvalidKernel::CompareOutOfRange { x, y } => {
                write!(f, "compare operands ({x}, {y}) must lie in [0, 1]")
            }
            InvalidKernel::FamilyTooLarge {
                family,
                field,
                len,
                max,
            } => {
                write!(
                    f,
                    "{family}: {len} {field} exceeds the serving cap of {max}"
                )
            }
            InvalidKernel::ColoringDegenerate {
                n_vertices,
                n_colors,
            } => {
                write!(
                    f,
                    "coloring over {n_vertices} vertices with {n_colors} colors is degenerate \
                     (need 2 <= colors <= vertices)"
                )
            }
            InvalidKernel::ColoringEdgeInvalid { a, b, n_vertices } => {
                write!(
                    f,
                    "coloring edge ({a}, {b}) invalid for {n_vertices} vertices \
                     (endpoints must be distinct and in range)"
                )
            }
            InvalidKernel::QuboEmpty => write!(f, "qubo over 0 variables"),
            InvalidKernel::QuboIndexInvalid { i, j, n_vars } => {
                write!(
                    f,
                    "qubo term ({i}, {j}) invalid for {n_vars} variables \
                     (indices must be distinct and in range)"
                )
            }
            InvalidKernel::QuboCoefficientNotFinite { i, j } => {
                write!(f, "qubo coefficient at ({i}, {j}) must be finite")
            }
        }
    }
}

impl std::error::Error for InvalidKernel {}

/// A dispatchable unit of work.
#[derive(Debug, Clone, PartialEq)]
pub enum Kernel {
    /// Factor an integer (the cryptography killer app, §II-C).
    Factor {
        /// The composite to factor.
        n: u64,
    },
    /// Unstructured search for any marked item in `0..2^n_qubits`.
    Search {
        /// Search-space width in qubits.
        n_qubits: usize,
        /// Marked items.
        marked: Vec<usize>,
    },
    /// DNA sequence similarity (the genomics discussion, §II-C).
    DnaSimilarity {
        /// First sequence (ACGT alphabet).
        a: String,
        /// Second sequence.
        b: String,
        /// k-mer length.
        k: usize,
    },
    /// Solve a SAT instance (the memcomputing workload, §IV).
    SolveSat {
        /// The CNF formula.
        formula: Formula,
    },
    /// Analog distance between two normalized scalars in `[0, 1]` (the
    /// coupled-oscillator comparison primitive, §III).
    Compare {
        /// First operand.
        x: f64,
        /// Second operand.
        y: f64,
    },
    /// A later family's workload (coloring, QUBO, and every family added
    /// after the first five — see [`crate::family`]).
    Family(crate::family::FamilyKernel),
}

impl Kernel {
    /// A short human-readable description (used in errors and reports).
    #[must_use]
    pub fn describe(&self) -> String {
        crate::family::describe(self)
    }

    /// Validates the kernel's inputs, as done at submission time by the
    /// serving layer (see [`InvalidKernel`]).
    ///
    /// # Errors
    ///
    /// The specific [`InvalidKernel`] variant describing the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), InvalidKernel> {
        crate::family::validate(self)
    }

    /// A coarse class tag for dispatch policies: the class of the
    /// kernel's row in [`crate::family::FAMILIES`].
    #[must_use]
    pub fn class(&self) -> KernelClass {
        crate::family::family_of(self).class
    }
}

/// Coarse kernel classes used for dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Quantum-algorithm-shaped work.
    Quantum,
    /// Combinatorial optimization.
    Optimization,
    /// Analog comparison primitives.
    Analog,
}

impl std::fmt::Display for KernelClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            KernelClass::Quantum => "quantum",
            KernelClass::Optimization => "optimization",
            KernelClass::Analog => "analog",
        };
        f.write_str(s)
    }
}

/// The result payload of a kernel execution.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelResult {
    /// Nontrivial factors `(p, q)` with `p·q = n`.
    Factors(u64, u64),
    /// The found item of a search.
    Found(usize),
    /// A similarity score in `[0, 1]`.
    Similarity(f64),
    /// A SAT solution as booleans, or `None` when unsolved.
    SatSolution(Option<Vec<bool>>),
    /// An analog distance measure.
    Distance(f64),
    /// A later family's result payload (see [`crate::family`]).
    Family(crate::family::FamilyResult),
}

/// Device-time and work accounting for one execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// Modelled device time in seconds (simulated physical time on the
    /// backend's substrate, not wall-clock of the simulator).
    pub device_seconds: f64,
    /// Abstract operation count on the backend (gates, integration steps,
    /// comparisons, instructions — backend-specific units).
    pub operations: u64,
}

/// An a-priori prediction of what executing a kernel will cost on one
/// backend, made *before* dispatch.
///
/// This is the planner's currency: where [`CostReport`] accounts for what
/// an execution *did* cost, a `CostEstimate` predicts what it *will* cost,
/// so the host can route on predicted latency or energy instead of
/// registration order. Estimates are model outputs, not measurements —
/// the dispatch layer tracks predicted-vs-actual error and applies an
/// EWMA correction factor to keep them honest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Predicted device time in seconds (same modelled-substrate clock as
    /// [`CostReport::device_seconds`]).
    pub device_seconds: f64,
    /// Predicted energy in joules (device power × predicted device time).
    pub energy_joules: f64,
}

impl CostEstimate {
    /// Scales both the time and energy prediction by a correction factor.
    #[must_use]
    pub(crate) fn scaled(self, factor: f64) -> CostEstimate {
        CostEstimate {
            device_seconds: self.device_seconds * factor,
            energy_joules: self.energy_joules * factor,
        }
    }
}

/// A completed execution: payload + cost.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelExecution {
    /// The result payload.
    pub result: KernelResult,
    /// The cost accounting.
    pub cost: CostReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem::generators::random_ksat;

    #[test]
    fn descriptions() {
        assert_eq!(Kernel::Factor { n: 21 }.describe(), "factor(21)");
        let k = Kernel::Search {
            n_qubits: 6,
            marked: vec![1, 2],
        };
        assert!(k.describe().contains("2^6"));
        let f = random_ksat(5, 3, 2.0, 1).unwrap();
        assert!(Kernel::SolveSat { formula: f }
            .describe()
            .contains("5 vars"));
    }

    #[test]
    fn classes() {
        assert_eq!(Kernel::Factor { n: 15 }.class(), KernelClass::Quantum);
        assert_eq!(
            Kernel::Compare { x: 0.1, y: 0.2 }.class(),
            KernelClass::Analog
        );
        let f = random_ksat(4, 3, 2.0, 2).unwrap();
        assert_eq!(
            Kernel::SolveSat { formula: f }.class(),
            KernelClass::Optimization
        );
    }

    #[test]
    fn class_display() {
        assert_eq!(KernelClass::Analog.to_string(), "analog");
    }

    #[test]
    fn validate_accepts_well_formed_kernels() {
        let f = random_ksat(5, 3, 2.0, 1).unwrap();
        for k in [
            Kernel::Factor { n: 4 },
            Kernel::Factor { n: 21 },
            Kernel::Search {
                n_qubits: 3,
                marked: vec![0, 7],
            },
            Kernel::DnaSimilarity {
                a: "ACGT".into(),
                b: "ACGA".into(),
                k: 4,
            },
            Kernel::SolveSat { formula: f },
            Kernel::Compare { x: 0.0, y: 1.0 },
        ] {
            assert_eq!(k.validate(), Ok(()), "{}", k.describe());
        }
    }

    #[test]
    fn validate_rejects_small_factor() {
        for n in 0..4 {
            assert_eq!(
                Kernel::Factor { n }.validate(),
                Err(InvalidKernel::FactorTooSmall { n })
            );
        }
    }

    #[test]
    fn validate_rejects_degenerate_search() {
        assert_eq!(
            Kernel::Search {
                n_qubits: 0,
                marked: vec![],
            }
            .validate(),
            Err(InvalidKernel::EmptySearchSpace)
        );
        assert_eq!(
            Kernel::Search {
                n_qubits: 3,
                marked: vec![1, 8],
            }
            .validate(),
            Err(InvalidKernel::MarkedOutOfRange {
                item: 8,
                n_qubits: 3,
            })
        );
        for (n_qubits, marked) in [(64, vec![0]), (40, vec![])] {
            assert_eq!(
                Kernel::Search { n_qubits, marked }.validate(),
                Err(InvalidKernel::FamilyTooLarge {
                    family: "search",
                    field: "qubits",
                    len: n_qubits,
                    max: quantum::MAX_QUBITS,
                })
            );
        }
    }

    #[test]
    fn validate_rejects_degenerate_dna() {
        assert_eq!(
            Kernel::DnaSimilarity {
                a: "ACGT".into(),
                b: "ACGT".into(),
                k: 0,
            }
            .validate(),
            Err(InvalidKernel::ZeroKmer)
        );
        assert_eq!(
            Kernel::DnaSimilarity {
                a: "ACGTACGT".into(),
                b: "ACG".into(),
                k: 4,
            }
            .validate(),
            Err(InvalidKernel::KmerTooLong { k: 4, shorter: 3 })
        );
        // What no backend can run is refused here, not failed there:
        // `quantum::dna::kmer_profile` takes k ≤ 8 over ACGT only.
        let dna = |a: &str, k| Kernel::DnaSimilarity {
            a: a.into(),
            b: "ACGTACGTACGTACGT".into(),
            k,
        };
        assert_eq!(
            dna("ACGTACGTACGTACGT", 9).validate(),
            Err(InvalidKernel::FamilyTooLarge {
                family: "dna-similarity",
                field: "k",
                len: 9,
                max: quantum::dna::MAX_KMER,
            })
        );
        assert_eq!(
            dna("ACGTXCGTACGTACGT", 4).validate(),
            Err(InvalidKernel::DnaInvalidBase { base: 'X' })
        );
        assert_eq!(
            dna("ACGTACGTACGTACGé", 4).validate(),
            Err(InvalidKernel::DnaInvalidBase { base: 'é' })
        );
        assert_eq!(dna("acgtACGTacgtACGT", 8).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_compare_operands() {
        // NaN != NaN under PartialEq, so match on the variant.
        assert!(matches!(
            Kernel::Compare {
                x: f64::NAN,
                y: 0.5,
            }
            .validate(),
            Err(InvalidKernel::CompareNotFinite { y, .. }) if y == 0.5
        ));
        assert!(matches!(
            Kernel::Compare {
                x: f64::INFINITY,
                y: 0.5,
            }
            .validate(),
            Err(InvalidKernel::CompareNotFinite { .. })
        ));
        assert_eq!(
            Kernel::Compare { x: -0.1, y: 0.5 }.validate(),
            Err(InvalidKernel::CompareOutOfRange { x: -0.1, y: 0.5 })
        );
        assert_eq!(
            Kernel::Compare { x: 0.5, y: 1.5 }.validate(),
            Err(InvalidKernel::CompareOutOfRange { x: 0.5, y: 1.5 })
        );
    }

    #[test]
    fn invalid_kernel_messages_name_the_constraint() {
        assert!(InvalidKernel::FactorTooSmall { n: 2 }
            .to_string()
            .contains("factor(2)"));
        assert!(InvalidKernel::KmerTooLong { k: 9, shorter: 4 }
            .to_string()
            .contains("9"));
        assert!(InvalidKernel::CompareOutOfRange { x: 2.0, y: 0.0 }
            .to_string()
            .contains("[0, 1]"));
    }
}
