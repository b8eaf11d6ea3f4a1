//! A1 — ablation: gate-basis freedom. The paper notes "the corresponding
//! Boolean circuit is not even unique, in view of the freedom available in
//! choosing different logic gates as the basis" (ref. \[49\]). This ablation
//! re-encodes each 3-literal OR-SOLG as a pair of smaller gates via an
//! auxiliary variable — `(a ∨ b ∨ c)  →  (a ∨ x) ∧ (¬x ∨ b ∨ c)` — an
//! equisatisfiable decomposition over a different gate basis — and measures
//! the effect on DMM convergence.

use crate::banner;
use mem::cnf::{Clause, Formula, Literal};
use mem::dmm::{DmmParams, DmmSolver};
use mem::generators::planted_3sat;
use numerics::stats::median;

/// Splits every 3-literal clause with a fresh auxiliary variable.
fn split_basis(formula: &Formula) -> Formula {
    let mut n_vars = formula.n_vars();
    let mut clauses = Vec::new();
    for clause in formula.clauses() {
        let lits = clause.literals();
        if lits.len() == 3 {
            let aux = n_vars;
            n_vars += 1;
            clauses.push(Clause::new(vec![lits[0], Literal::positive(aux)]).expect("clause"));
            clauses
                .push(Clause::new(vec![Literal::negative(aux), lits[1], lits[2]]).expect("clause"));
        } else {
            clauses.push(clause.clone());
        }
    }
    Formula::new(n_vars, clauses).expect("formula")
}

pub fn run() {
    banner("A1 ablation_basis", "§IV gate-basis freedom (ref. 49)");
    let solver = DmmSolver::new(DmmParams {
        max_steps: 1_000_000,
        ..DmmParams::default()
    });
    println!(
        "{:>5} | {:>16} | {:>16} | {:>8}",
        "N", "3-OR basis steps", "split basis steps", "ratio"
    );
    println!("{}", "-".repeat(56));
    for n in [20usize, 40, 60] {
        let mut direct = Vec::new();
        let mut split = Vec::new();
        for seed in 0..5u64 {
            let inst = planted_3sat(n, 4.0, 600 + seed).expect("instance");
            let d = solver.solve(&inst.formula, seed).expect("direct");
            assert!(d.solution.is_some(), "direct timeout N={n}");
            direct.push(d.steps as f64);
            let split_formula = split_basis(&inst.formula);
            let s = solver.solve(&split_formula, seed).expect("split");
            assert!(s.solution.is_some(), "split timeout N={n}");
            // Verify the split solution restricted to original vars solves
            // the original formula.
            let bits = s.solution.as_ref().expect("some").to_bools();
            let restricted =
                mem::assignment::Assignment::from_bools(&bits[..inst.formula.n_vars()]);
            assert!(
                inst.formula.is_satisfied(&restricted),
                "split solution invalid on original formula"
            );
            split.push(s.steps as f64);
        }
        let (dm, sm) = (median(&direct).expect("med"), median(&split).expect("med"));
        println!("{n:>5} | {dm:>16.0} | {sm:>16.0} | {:>7.2}x", sm / dm);
    }
    println!("\nreading: both bases self-organize to valid solutions; the");
    println!("decomposed basis pays extra variables/clauses for the same problem");
}
