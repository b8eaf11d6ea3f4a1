//! The generator the integration tests share.
//!
//! One deterministic set of kernels and per-job seeds feeds both the
//! over-the-wire runs in `tests/` and their direct-runtime replays, so
//! the two can compare results byte for byte. Load generation with a
//! metric contract lives in `benchmark/`, not here.

use accel::family::{ColoringSpec, FamilyKernel, QuboSpec};
use accel::kernel::Kernel;
use mem::generators::planted_3sat;
use mem::MemError;
use numerics::hash::Fnv1a;
use numerics::rng::{rng_from_seed, Rng, SeedStream};

/// A deterministic mixed workload touching every paradigm: integer
/// factoring, oscillator comparison, SAT solving, and DNA similarity,
/// interleaved round-robin.
///
/// # Errors
///
/// Propagates [`MemError`] from SAT instance generation (cannot happen
/// for the sizes used here).
pub fn mixed_workload(jobs: usize, master_seed: u64) -> Result<Vec<Kernel>, MemError> {
    let mut rng = rng_from_seed(master_seed);
    let semiprimes = [15u64, 21, 33, 35, 55, 77];
    let bases = ['A', 'C', 'G', 'T'];
    let mut kernels = Vec::with_capacity(jobs);
    for i in 0..jobs {
        kernels.push(match i % 4 {
            0 => Kernel::Factor {
                n: semiprimes[rng.gen_range(0..semiprimes.len())],
            },
            1 => Kernel::Compare {
                x: rng.gen_range(0.0..1.0),
                y: rng.gen_range(0.0..1.0),
            },
            2 => {
                let sat = planted_3sat(12, 3.8, rng.gen::<u64>())?;
                Kernel::SolveSat {
                    formula: sat.formula,
                }
            }
            _ => {
                let mut seq = |len: usize| -> String {
                    (0..len)
                        .map(|_| bases[rng.gen_range(0..bases.len())])
                        .collect()
                };
                let a = seq(12);
                let b = seq(12);
                Kernel::DnaSimilarity { a, b, k: 2 }
            }
        });
    }
    Ok(kernels)
}

/// One legacy kernel for the thin interleave stream of the family-heavy
/// mixes, so later-family frames and legacy frames share every
/// connection.
fn legacy_filler(slot: usize, rng: &mut impl Rng) -> Result<Kernel, MemError> {
    let semiprimes = [15u64, 21, 33, 35, 55, 77];
    Ok(match slot % 3 {
        0 => Kernel::Factor {
            n: semiprimes[rng.gen_range(0..semiprimes.len())],
        },
        1 => Kernel::Compare {
            x: rng.gen_range(0.0..1.0),
            y: rng.gen_range(0.0..1.0),
        },
        _ => {
            let sat = planted_3sat(12, 3.8, rng.gen::<u64>())?;
            Kernel::SolveSat {
                formula: sat.formula,
            }
        }
    })
}

/// A coloring-heavy workload: three of every four jobs are phase-dynamics vertex-coloring kernels
/// (a ring plus a few random chords, 3 colors); the fourth is a rotating
/// legacy kernel, so both kinds of frame share every connection and the
/// byte-for-byte replay covers them together.
///
/// # Errors
///
/// Propagates [`MemError`] from SAT instance generation in the legacy
/// interleave (cannot happen for the sizes used here).
pub fn coloring_heavy_workload(jobs: usize, master_seed: u64) -> Result<Vec<Kernel>, MemError> {
    let mut rng = rng_from_seed(master_seed ^ 0x636f_6c6f_7269_6e67);
    let mut kernels = Vec::with_capacity(jobs);
    for i in 0..jobs {
        if i % 4 == 3 {
            kernels.push(legacy_filler(i / 4, &mut rng)?);
            continue;
        }
        let n_vertices = rng.gen_range(6..14);
        // A ring guarantees a connected conflict graph; chords make some
        // instances genuinely frustrated under 3 colors.
        let mut edges: Vec<(usize, usize)> =
            (0..n_vertices).map(|v| (v, (v + 1) % n_vertices)).collect();
        for _ in 0..rng.gen_range(0..4) {
            let a = rng.gen_range(0..n_vertices);
            let b = rng.gen_range(0..n_vertices);
            if a != b {
                edges.push((a, b));
            }
        }
        kernels.push(Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
            n_vertices,
            n_colors: 3,
            edges,
        })));
    }
    Ok(kernels)
}

/// A QUBO-heavy workload: three of every four jobs are Ising/QUBO energy minimizations (dense
/// linear terms, sparse random couplings), interleaved with rotating
/// legacy kernels exactly like
/// [`coloring_heavy_workload`].
///
/// # Errors
///
/// Propagates [`MemError`] from SAT instance generation in the legacy
/// interleave (cannot happen for the sizes used here).
pub fn qubo_heavy_workload(jobs: usize, master_seed: u64) -> Result<Vec<Kernel>, MemError> {
    let mut rng = rng_from_seed(master_seed ^ 0x7175_626f_2121_2121);
    let mut kernels = Vec::with_capacity(jobs);
    for i in 0..jobs {
        if i % 4 == 3 {
            kernels.push(legacy_filler(i / 4, &mut rng)?);
            continue;
        }
        let n_vars = rng.gen_range(4..12);
        let linear: Vec<(usize, f64)> =
            (0..n_vars).map(|v| (v, rng.gen_range(-1.0..1.0))).collect();
        let mut quadratic = Vec::with_capacity(n_vars);
        for _ in 0..n_vars {
            let i = rng.gen_range(0..n_vars);
            let j = rng.gen_range(0..n_vars);
            if i != j {
                quadratic.push((i, j, rng.gen_range(-1.0..1.0)));
            }
        }
        kernels.push(Kernel::Family(FamilyKernel::Qubo(QuboSpec {
            n_vars,
            linear,
            quadratic,
        })));
    }
    Ok(kernels)
}

/// One explicit execution seed per job, derived from the master seed.
///
/// Concurrent clients reach the server in nondeterministic order, so
/// server-assigned job ids differ run to run; pinning each job's seed by
/// *workload index* instead makes every result a pure function of
/// `(kernel, seed)` regardless of arrival order, worker count, or
/// transport.
#[must_use]
pub fn job_seeds(jobs: usize, master_seed: u64) -> Vec<u64> {
    let mut stream = SeedStream::new(master_seed ^ 0xa076_1d64_78bd_642f);
    (0..jobs).map(|_| stream.next_seed()).collect()
}

/// FNV-1a over every outcome fingerprint (`wire::WireOutcome::fingerprint`)
/// in workload order, length-prefixed so adjacent fingerprints cannot
/// alias. Two runs with the same seed must produce the same digest;
/// `tests/chaos_serving.rs` pins one as a literal.
#[must_use]
pub fn digest(fingerprints: &[Vec<u8>]) -> u64 {
    let mut h = Fnv1a::new();
    for fp in fingerprints {
        h.bytes(&(fp.len() as u64).to_le_bytes());
        h.bytes(fp);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_mixed() {
        let a = mixed_workload(24, 7).unwrap();
        let b = mixed_workload(24, 7).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().any(|k| matches!(k, Kernel::Factor { .. })));
        assert!(a.iter().any(|k| matches!(k, Kernel::Compare { .. })));
        assert!(a.iter().any(|k| matches!(k, Kernel::SolveSat { .. })));
        assert!(a.iter().any(|k| matches!(k, Kernel::DnaSimilarity { .. })));
        let c = mixed_workload(24, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn workload_kernels_pass_validation() {
        for kernel in mixed_workload(48, 2019).unwrap() {
            kernel.validate().unwrap();
        }
    }

    #[test]
    fn family_heavy_workloads_mix_frames_and_validate() {
        for (name, workload) in [
            ("coloring", coloring_heavy_workload(32, 7).unwrap()),
            ("qubo", qubo_heavy_workload(32, 7).unwrap()),
        ] {
            let family = workload
                .iter()
                .filter(|k| matches!(k, Kernel::Family(_)))
                .count();
            let legacy = workload.len() - family;
            assert_eq!(family, 24, "{name}: 3 of 4 jobs are a later family");
            assert_eq!(legacy, 8, "{name}: 1 of 4 jobs is a legacy kernel");
            for kernel in &workload {
                kernel.validate().unwrap();
            }
        }
        assert_eq!(
            coloring_heavy_workload(32, 7).unwrap(),
            coloring_heavy_workload(32, 7).unwrap()
        );
        assert_eq!(
            qubo_heavy_workload(32, 7).unwrap(),
            qubo_heavy_workload(32, 7).unwrap()
        );
        assert_ne!(
            coloring_heavy_workload(32, 7).unwrap(),
            coloring_heavy_workload(32, 8).unwrap()
        );
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let a = job_seeds(16, 1);
        assert_eq!(a, job_seeds(16, 1));
        assert_ne!(a, job_seeds(16, 2));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "seeds must not collide");
    }
}
