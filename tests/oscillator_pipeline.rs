//! Integration: the §III oscillator-computing pipeline — device model →
//! coupled pair → locking → norms → FAST corner detection → power.

use device::units::{Seconds, Volts};
use osc::locking::LockingSweep;
use osc::norms::{NormRegime, NormSweep, OscillatorDistance};
use osc::pair::{CoupledPair, PairConfig};
use vision::energy::compare_power;
use vision::metrics::{match_against_ground_truth, match_corners};
use vision::osc_fast::OscFastDetector;
use vision::synth::benchmark_scene;

fn quick(regime: NormRegime) -> PairConfig {
    let mut cfg = regime.config();
    cfg.sim.duration = Seconds(2e-6);
    cfg
}

#[test]
fn locking_plateau_exists_and_is_finite() {
    let sweep = LockingSweep::new(quick(NormRegime::Shallow));
    let curve = sweep.run(0.62, 0.05, 11).expect("sweep");
    let range = curve.locking_range(0.01).expect("locks at zero detuning");
    assert!(range.0 < 0.0 && range.1 > 0.0, "range {range:?}");
    // And some swept detunings must NOT lock (finite Arnold tongue).
    assert!(curve.locked_fraction(0.01) < 1.0);
}

#[test]
fn norm_exponent_orders_across_regimes() {
    // The Fig. 5 family: the fitted exponent must increase from the shallow
    // to the steep regime.
    let mut exponents = Vec::new();
    for regime in [NormRegime::Shallow, NormRegime::Steep] {
        let sweep = NormSweep::new(quick(regime)).unwrap();
        let curve = sweep.run(0.62, 0.012, 8).unwrap();
        let fit = curve.fit_exponent(0.3, 6.0).unwrap();
        exponents.push(fit.exponent);
    }
    assert!(
        exponents[1] > exponents[0],
        "steep ({}) should exceed shallow ({})",
        exponents[1],
        exponents[0]
    );
}

#[test]
fn oscillator_fast_matches_digital_fast_on_benchmark_scene() {
    let scene = benchmark_scene(48);
    let img = scene.build();
    let digital = vision::fast::detect(&img);
    let distance = OscillatorDistance::calibrate(quick(NormRegime::Shallow), 0.62, 0.02, 7)
        .expect("calibrates");
    let osc_out = OscFastDetector::new(distance).detect(&img);
    let agreement = match_corners(&digital, &osc_out.corners, 2);
    assert!(
        agreement.f1() > 0.7,
        "agreement {} (digital {}, oscillator {})",
        agreement,
        digital.len(),
        osc_out.corners.len()
    );
    // Both should recover most ground-truth corners.
    let truth = scene.ground_truth_corners();
    let vs_truth = match_against_ground_truth(&truth, &osc_out.corners, 2);
    assert!(vs_truth.recall() > 0.5, "recall {}", vs_truth.recall());
}

#[test]
fn power_comparison_favors_oscillator_block() {
    let img = benchmark_scene(48).build();
    let cmp = compare_power(&img).expect("comparison");
    assert!(cmp.ratio() > 1.0, "{cmp}");
    assert!(cmp.agreement_f1 > 0.6, "{cmp}");
    // Same order of magnitude as the paper's numbers (sub-10 mW blocks).
    assert!(cmp.oscillator.0 < 10e-3);
    assert!(cmp.cmos.0 < 100e-3);
}

#[test]
fn distance_primitive_consistent_with_full_simulation() {
    let distance = OscillatorDistance::calibrate(quick(NormRegime::Shallow), 0.62, 0.016, 9)
        .expect("calibrates");
    // Spot-check the calibrated LUT against a fresh full-physics run.
    let lut = distance.distance(0.5, 0.75);
    let exact = distance.distance_exact(0.5, 0.75).expect("simulates");
    assert!(
        (lut - exact).abs() < 0.15,
        "calibration drift: lut {lut} vs exact {exact}"
    );
}

#[test]
fn pair_locks_and_unlocks_across_detuning() {
    let cfg = quick(NormRegime::Shallow);
    let locked = CoupledPair::new(cfg, Volts(0.62), Volts(0.622))
        .unwrap()
        .simulate_default()
        .unwrap();
    assert!(locked.is_locked(0.01).unwrap());
    let unlocked = CoupledPair::new(cfg, Volts(0.58), Volts(0.68))
        .unwrap()
        .simulate_default()
        .unwrap();
    assert!(!unlocked.is_locked(0.005).unwrap());
}
