//! Graph vertex coloring by coupled-oscillator phase dynamics (the §III
//! application cited from ref. [42]).
//!
//! Run with: `cargo run --release --example vertex_coloring`

use osc::coloring::{color_graph, ColoringConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    type Case = (&'static str, usize, Vec<(usize, usize)>, usize);
    let cases: Vec<Case> = vec![
        ("edge (K2)", 2, vec![(0, 1)], 2),
        ("path P4", 4, vec![(0, 1), (1, 2), (2, 3)], 2),
        ("cycle C4", 4, vec![(0, 1), (1, 2), (2, 3), (3, 0)], 2),
        (
            "cycle C6",
            6,
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
            2,
        ),
        ("triangle K3", 3, vec![(0, 1), (1, 2), (0, 2)], 3),
        (
            "bipartite K2,3",
            5,
            vec![(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)],
            2,
        ),
    ];
    println!(
        "{:>14} | {:>7} | {:>16} | {:>9}",
        "graph", "colors", "assignment", "conflicts"
    );
    println!("{}", "-".repeat(58));
    for (name, n, edges, k) in cases {
        let config = ColoringConfig {
            n_colors: k,
            ..ColoringConfig::default()
        };
        let result = color_graph(n, &edges, &config)?;
        let assignment: String = result
            .colors
            .iter()
            .map(|c| char::from(b'A' + *c as u8))
            .collect();
        println!(
            "{:>14} | {:>7} | {:>16} | {:>9}",
            name, k, assignment, result.conflicts
        );
    }
    // The served shape: 16-vertex rings with chords, three colours, one
    // run per seed, as the oscillator backend runs a job.
    println!(
        "\n{:>22} | {:>4} | {:>16} | {:>9}",
        "ring + chords", "seed", "assignment", "conflicts"
    );
    println!("{}", "-".repeat(62));
    let chord_sets: [&[(usize, usize)]; 4] = [
        &[],
        &[(0, 5)],
        &[(0, 5), (3, 11)],
        &[(0, 5), (3, 11), (8, 14)],
    ];
    for chords in chord_sets {
        let mut edges: Vec<(usize, usize)> = (0..16).map(|v| (v, (v + 1) % 16)).collect();
        edges.extend_from_slice(chords);
        for seed in [1, 2] {
            let config = ColoringConfig {
                n_colors: 3,
                seed,
                ..ColoringConfig::default()
            };
            let result = color_graph(16, &edges, &config)?;
            let assignment: String = result
                .colors
                .iter()
                .map(|c| char::from(b'A' + *c as u8))
                .collect();
            println!(
                "{:>22} | {:>4} | {:>16} | {:>9}",
                format!("C16 + {} chords", chords.len()),
                seed,
                assignment,
                result.conflicts
            );
        }
    }
    println!("\nIdentical oscillators coupled along graph edges phase-repel; a");
    println!("weak k-th harmonic injection locks the phases to k sectors, and");
    println!("rounding into those sectors colours the graph. Like the hardware");
    println!("heuristic of ref. [42], success is not guaranteed on every graph:");
    println!("conflicts report the miss distance, and another seed is another try.");
    Ok(())
}
