//! Quickstart: one tour through all three post-von-Neumann paradigms.
//!
//! Run with: `cargo run --release --example quickstart`

use device::units::Volts;
use mem::dmm::{DmmParams, DmmSolver};
use mem::walksat::{WalkSat, WalkSatParams};
use osc::norms::NormRegime;
use osc::pair::CoupledPair;
use quantum::circuit::Circuit;
use quantum::state::StateVector;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "== Cadareanu et al., \"Rebooting Our Computing Models\", DATE 2019, pp. 1469-1476 ==\n"
    );

    // ------------------------------------------------------------------
    // §II — Quantum computing as an accelerator: entangle, then factor.
    // ------------------------------------------------------------------
    println!("[quantum] preparing a Bell pair …");
    let mut circuit = Circuit::new(2)?;
    circuit.h(0)?.cx(0, 1)?;
    let state = circuit.run(StateVector::zero(2))?;
    println!(
        "  P(|00>) = {:.3}, P(|11>) = {:.3}",
        state.probability(0b00)?,
        state.probability(0b11)?
    );

    let mut rng = numerics::rng::rng_from_seed(7);
    let outcome = quantum::shor::factor(15, &mut rng, 30)?;
    println!(
        "  Shor: 15 = {} x {} ({} order-finding calls)\n",
        outcome.factors.0, outcome.factors.1, outcome.quantum_calls
    );

    // ------------------------------------------------------------------
    // §III — Coupled VO2 oscillators: frequency locking + distance norm.
    // ------------------------------------------------------------------
    println!("[oscillator] coupling two VO2 relaxation oscillators …");
    let config = NormRegime::Shallow.config();
    let pair = CoupledPair::new(config, Volts(0.62), Volts(0.625))?;
    let run = pair.simulate_default()?;
    println!(
        "  f1 = {:.2} MHz, f2 = {:.2} MHz, locked = {}",
        run.frequency(0)? / 1e6,
        run.frequency(1)? / 1e6,
        run.is_locked(0.01)?
    );
    let same = CoupledPair::new(config, Volts(0.62), Volts(0.62))?
        .simulate_default()?
        .xor_measure()?;
    println!(
        "  XOR distance measure: {:.3} at dVgs = 0, {:.3} at dVgs = 5 mV\n",
        same,
        run.xor_measure()?
    );

    // ------------------------------------------------------------------
    // §IV — Digital memcomputing: solve a hard random 3-SAT instance.
    // ------------------------------------------------------------------
    println!("[memcomputing] solving planted 3-SAT (40 vars, ratio 4.2) …");
    let instance = mem::generators::planted_3sat(40, 4.2, 42)?;
    let dmm = DmmSolver::new(DmmParams::default());
    let result = dmm.solve(&instance.formula, 1)?;
    match &result.solution {
        Some(solution) => println!(
            "  solved in {} integration steps (t = {:.1} time units); valid = {}",
            result.steps,
            result.time,
            instance.formula.is_satisfied(solution)
        ),
        None => println!("  gave up after {} steps", result.steps),
    }
    let walksat = WalkSat::new(WalkSatParams::default()).solve(&instance.formula, 1);
    println!(
        "  WalkSAT baseline: solved = {}, flips = {}",
        walksat.solution.is_some(),
        walksat.flips
    );

    Ok(())
}
