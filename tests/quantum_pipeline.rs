//! Integration: the full Fig. 2 quantum-accelerator pipeline — assembly →
//! mapping/routing → micro-architecture execution → results — plus Shor and
//! Grover end to end.

use numerics::rng::rng_from_seed;
use quantum::circuit::Circuit;
use quantum::isa::{assemble, Program};
use quantum::mapping::{check_routed, route, CouplingGraph, RoutingStrategy};
use quantum::microarch;
use quantum::state::StateVector;

#[test]
fn assembly_to_execution_pipeline() {
    let source = "\
qubits 3
h q0
cnot q0, q1
cnot q1, q2
measure_all
";
    let program = assemble(source).expect("assembles");
    let mut rng = rng_from_seed(1);
    let counts = microarch::sample(&program, 300, &mut rng).expect("samples");
    // GHZ: only |000> and |111>.
    for (outcome, count) in counts {
        assert!(outcome == 0 || outcome == 7, "outcome {outcome:03b}");
        assert!(count > 80);
    }
}

#[test]
fn mapped_and_routed_circuit_preserves_ghz_statistics() {
    // Logical GHZ needing routing on a line.
    let mut c = Circuit::new(4).unwrap();
    c.h(0)
        .unwrap()
        .cx(0, 3)
        .unwrap()
        .cx(3, 1)
        .unwrap()
        .cx(1, 2)
        .unwrap();
    let graph = CouplingGraph::line(4);
    let routed = route(&c, &graph, RoutingStrategy::Lookahead { window: 4 }).unwrap();
    check_routed(&routed.circuit, &graph).unwrap();

    let logical = c.run(StateVector::zero(4)).unwrap();
    let physical = routed.circuit.run(StateVector::zero(4)).unwrap();
    for basis in 0..16usize {
        let mut phys_basis = 0usize;
        for (l, &p) in routed.final_layout.iter().take(4).enumerate() {
            if basis >> l & 1 == 1 {
                phys_basis |= 1 << p;
            }
        }
        let pl = logical.probability(basis).unwrap();
        let pp = physical.probability(phys_basis).unwrap();
        assert!((pl - pp).abs() < 1e-10, "basis {basis:04b}");
    }
}

#[test]
fn routed_program_executes_on_microarchitecture() {
    let mut c = Circuit::new(3).unwrap();
    c.h(0).unwrap().cx(0, 2).unwrap();
    let graph = CouplingGraph::line(3);
    let routed = route(&c, &graph, RoutingStrategy::Greedy).unwrap();
    let program = Program::from_circuit(&routed.circuit, true);
    let mut rng = rng_from_seed(2);
    let report = microarch::execute(&program, &mut rng).unwrap();
    assert!(report.measured.is_some());
    assert!(report.duration_ns > 0.0);
    // Routing cost shows up as extra 2-qubit gates.
    assert!(report.class_counts.1 > routed.swap_count);
}

#[test]
fn shor_factors_semiprimes_end_to_end() {
    let mut rng = rng_from_seed(3);
    for n in [15u64, 21] {
        let outcome = quantum::shor::factor(n, &mut rng, 40).expect("factors");
        let (p, q) = outcome.factors;
        assert_eq!(p * q, n);
        assert!(p > 1 && q > 1);
    }
}

#[test]
fn grover_beats_classical_scan_in_oracle_calls() {
    let mut rng = rng_from_seed(5);
    let n_qubits = 8;
    let marked = vec![200usize];
    let run = quantum::grover::search(n_qubits, &marked, &mut rng).unwrap();
    assert!(run.hit);
    let classical = quantum::grover::classical_expected_probes(n_qubits, 1);
    assert!(
        (run.iterations as f64) < classical / 4.0,
        "quantum {} vs classical {classical}",
        run.iterations
    );
}
