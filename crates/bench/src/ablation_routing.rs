//! A3 — ablation: SWAP-routing strategy. Compares greedy shortest-path
//! routing against the lookahead scorer on line and grid topologies, in
//! inserted SWAPs and routed depth.

use crate::banner;
use numerics::rng::rng_from_seed;
use numerics::rng::Rng;
use quantum::circuit::Circuit;
use quantum::mapping::{check_routed, route, CouplingGraph, RoutingStrategy};

fn random_circuit(n_qubits: usize, n_gates: usize, seed: u64) -> Circuit {
    let mut rng = rng_from_seed(seed);
    let mut c = Circuit::new(n_qubits).expect("circuit");
    for _ in 0..n_gates {
        let a = rng.gen_range(0..n_qubits);
        let b = loop {
            let b = rng.gen_range(0..n_qubits);
            if b != a {
                break b;
            }
        };
        c.cx(a, b).expect("gate");
    }
    c
}

pub fn run() {
    banner("A3 ablation_routing", "compiler SWAP routing strategies");
    println!(
        "{:>10} | {:>6} | {:>14} | {:>14} | {:>10}",
        "topology", "gates", "greedy swaps", "lookahead swaps", "reduction"
    );
    println!("{}", "-".repeat(68));
    let topologies: Vec<(&str, CouplingGraph)> = vec![
        ("line-9", CouplingGraph::line(9)),
        ("grid-3x3", CouplingGraph::grid(3, 3)),
        ("line-12", CouplingGraph::line(12)),
        ("grid-3x4", CouplingGraph::grid(3, 4)),
    ];
    for (name, graph) in &topologies {
        let n = graph.len();
        let mut greedy_total = 0usize;
        let mut look_total = 0usize;
        let n_gates = 40;
        for seed in 0..5u64 {
            let circuit = random_circuit(n, n_gates, seed);
            let greedy = route(&circuit, graph, RoutingStrategy::Greedy).expect("greedy");
            check_routed(&greedy.circuit, graph).expect("valid greedy");
            let look = route(&circuit, graph, RoutingStrategy::Lookahead { window: 5 })
                .expect("lookahead");
            check_routed(&look.circuit, graph).expect("valid lookahead");
            greedy_total += greedy.swap_count;
            look_total += look.swap_count;
        }
        println!(
            "{:>10} | {:>6} | {:>14} | {:>14} | {:>9.1}%",
            name,
            n_gates,
            greedy_total,
            look_total,
            100.0 * (greedy_total as f64 - look_total as f64) / greedy_total.max(1) as f64
        );
    }
    println!("\nexpected shape: lookahead inserts no more SWAPs than greedy on");
    println!("average, with the advantage growing on sparser topologies");
}
