//! Power accounting of the oscillator computing block.
//!
//! The paper's §III-B headline comparison: "The power consumption of the
//! coupled oscillator-based block designed in this example to identify
//! corners is 0.936 mW (including the XOR readout), whereas the power
//! consumption of the corresponding CMOS implementation at the 32 nm process
//! node is 3 mW."
//!
//! The oscillator side has two components, both computed here:
//!
//! * **analog power** — supply current drawn by the cells, integrated from
//!   the simulated waveforms: `P = V_DD · ⟨Σᵢ (V_DD − vᵢ)/R_sᵢ⟩`;
//! * **readout power** — the small digital XOR-readout circuit, costed with
//!   the [`device::cmos`] energy model at a readout clock derived from the
//!   oscillation frequency.
//!
//! # Example
//!
//! ```
//! use osc::pair::{CoupledPair, PairConfig};
//! use osc::power;
//! use device::cmos::{CmosEnergyModel, ProcessNode};
//! use device::units::Volts;
//!
//! let pair = CoupledPair::new(PairConfig::default(), Volts(0.62), Volts(0.63))?;
//! let run = pair.simulate_default()?;
//! let model = CmosEnergyModel::new(ProcessNode::Nm32);
//! let block = power::block_power(&pair, &run, &model, 8.0)?;
//! assert!(block.total().0 > 0.0);
//! assert!(block.analog.0 > block.readout.0, "analog should dominate");
//! # Ok::<(), osc::OscError>(())
//! ```

use crate::pair::{CoupledPair, PairRun};
use crate::readout::readout_op_counts;
use crate::OscError;
use device::cmos::CmosEnergyModel;
use device::units::{Seconds, Watts};

/// Power breakdown of one coupled-pair comparison block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OscillatorBlockPower {
    /// Supply power of the two analog cells.
    pub analog: Watts,
    /// Power of the digital XOR readout.
    pub readout: Watts,
}

impl OscillatorBlockPower {
    /// Total block power.
    #[must_use]
    pub fn total(&self) -> Watts {
        self.analog + self.readout
    }
}

impl std::fmt::Display for OscillatorBlockPower {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "analog {:.3} mW + readout {:.3} mW = {:.3} mW",
            self.analog.0 * 1e3,
            self.readout.0 * 1e3,
            self.total().0 * 1e3
        )
    }
}

/// Average supply power of the two cells over a recorded run.
///
/// # Errors
///
/// Propagates waveform-access errors.
pub fn analog_power(pair: &CoupledPair, run: &PairRun) -> Result<Watts, OscError> {
    let params = pair.config().osc;
    let (v_gs1, v_gs2) = pair.inputs();
    let r1 = params.series_resistance(v_gs1)?.0;
    let r2 = params.series_resistance(v_gs2)?.0;
    let mut total = 0.0;
    let mut count = 0usize;
    for (idx, r) in [(0usize, r1), (1usize, r2)] {
        let wf = run.waveform(idx)?;
        let mean_i: f64 =
            wf.iter().map(|&v| (params.vdd.0 - v) / r).sum::<f64>() / wf.len().max(1) as f64;
        total += params.vdd.0 * mean_i;
        count += 1;
    }
    debug_assert_eq!(count, 2);
    Ok(Watts(total))
}

/// Power of the XOR readout, clocked at `oversample ×` the oscillation
/// frequency of the recorded pair.
///
/// # Errors
///
/// Propagates frequency-estimation errors (the run must contain ≥ 2 cycles).
pub fn readout_power(
    run: &PairRun,
    model: &CmosEnergyModel,
    oversample: f64,
) -> Result<Watts, OscError> {
    let f_osc = run.frequency(0)?;
    let f_clock = f_osc * oversample.max(1.0);
    // Energy of one second of readout activity.
    let counts = readout_op_counts(f_clock.round() as u64);
    Ok(model.average_power(&counts, Seconds(1.0)))
}

/// Full block power: analog cells + XOR readout.
///
/// # Errors
///
/// Propagates [`analog_power`] and [`readout_power`] errors.
pub fn block_power(
    pair: &CoupledPair,
    run: &PairRun,
    model: &CmosEnergyModel,
    oversample: f64,
) -> Result<OscillatorBlockPower, OscError> {
    Ok(OscillatorBlockPower {
        analog: analog_power(pair, run)?,
        readout: readout_power(run, model, oversample)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::PairConfig;
    use device::cmos::ProcessNode;
    use device::units::Volts;

    fn setup() -> (CoupledPair, PairRun) {
        let pair = CoupledPair::new(PairConfig::default(), Volts(0.62), Volts(0.63)).unwrap();
        let run = pair.simulate_default().unwrap();
        (pair, run)
    }

    #[test]
    fn analog_power_in_plausible_range() {
        let (pair, run) = setup();
        let p = analog_power(&pair, &run).unwrap();
        // Two cells at ~2.5 V with tens-of-kΩ loads: tens to hundreds of µW.
        assert!(
            (1e-6..10e-3).contains(&p.0),
            "analog power {} W implausible",
            p.0
        );
    }

    #[test]
    fn readout_power_small_but_positive() {
        let (_, run) = setup();
        let model = CmosEnergyModel::new(ProcessNode::Nm32);
        let p = readout_power(&run, &model, 8.0).unwrap();
        assert!(p.0 > 0.0);
        assert!(p.0 < 1e-3, "readout power {} W too large", p.0);
    }

    #[test]
    fn block_total_is_sum() {
        let (pair, run) = setup();
        let model = CmosEnergyModel::new(ProcessNode::Nm32);
        let block = block_power(&pair, &run, &model, 8.0).unwrap();
        assert!((block.total().0 - (block.analog.0 + block.readout.0)).abs() < 1e-18);
    }

    #[test]
    fn higher_oversample_costs_more_readout_power() {
        let (_, run) = setup();
        let model = CmosEnergyModel::new(ProcessNode::Nm32);
        let p8 = readout_power(&run, &model, 8.0).unwrap();
        let p32 = readout_power(&run, &model, 32.0).unwrap();
        assert!(p32.0 > p8.0);
    }

    #[test]
    fn display_formats_milliwatts() {
        let block = OscillatorBlockPower {
            analog: Watts(0.5e-3),
            readout: Watts(0.1e-3),
        };
        let s = block.to_string();
        assert!(s.contains("0.500 mW"), "{s}");
        assert!(s.contains("0.600 mW"), "{s}");
    }
}
