//! E10 — §II-C genomics killer app: whole k-mer profiles encoded "as a
//! superposition of a single wave function", compared by swap test, with
//! ranking agreement against classical measures.

use crate::banner;
use numerics::rng::rng_from_seed;
use quantum::dna;

pub fn run() {
    banner(
        "E10 dna_similarity",
        "§II-C DNA similarity on superposed data",
    );
    let mut rng = rng_from_seed(23);
    let reference = dna::random_sequence(&mut rng, 150);
    println!(
        "{:>9} | {:>10} | {:>12} | {:>9} | {:>9}",
        "mutation", "swap test", "exact |ab|^2", "cosine", "edit dist"
    );
    println!("{}", "-".repeat(60));
    let mut quantum_sims = Vec::new();
    let mut edit_dists = Vec::new();
    for rate in [0.01, 0.03, 0.07, 0.15, 0.3, 0.5] {
        let mutated = dna::mutate_sequence(&mut rng, &reference, rate);
        let sampled =
            dna::quantum_similarity(&reference, &mutated, 3, 600, &mut rng).expect("swap test");
        let exact = dna::exact_similarity(&reference, &mutated, 3).expect("exact");
        let cosine = dna::cosine_similarity(&reference, &mutated, 3).expect("cosine");
        let edit = dna::edit_distance(&reference, &mutated);
        quantum_sims.push(sampled);
        edit_dists.push(edit as f64);
        println!(
            "{:>8.0}% | {:>10.4} | {:>12.4} | {:>9.4} | {:>9}",
            rate * 100.0,
            sampled,
            exact,
            cosine,
            edit
        );
    }
    // Ranking agreement: the swap-test estimate must decrease as edit
    // distance increases (count concordant pairs).
    let mut concordant = 0;
    let mut pairs = 0;
    for i in 0..quantum_sims.len() {
        for j in i + 1..quantum_sims.len() {
            if edit_dists[i] == edit_dists[j] {
                continue;
            }
            pairs += 1;
            if (quantum_sims[i] > quantum_sims[j]) == (edit_dists[i] < edit_dists[j]) {
                concordant += 1;
            }
        }
    }
    println!("\nranking agreement with edit distance: {concordant}/{pairs} concordant pairs");
}
