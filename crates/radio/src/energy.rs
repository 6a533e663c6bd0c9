//! Radio energy accounting.
//!
//! The sender's radio is modeled as a three-state machine (transmit at a PA
//! level, receive/listen, idle); the meter integrates the CC2420 datasheet
//! power drains over the time spent in each state. This gives the *measured*
//! energy figure that the paper's empirical model (Eq. 2) is later compared
//! against.

use serde::{Deserialize, Serialize};

use wsn_params::types::PowerLevel;
use wsn_sim_engine::time::SimDuration;

use crate::cc2420;

/// Cumulative energy breakdown of one radio, joules.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Energy spent transmitting.
    pub tx_j: f64,
    /// Energy spent listening (CCA, ACK wait, RX).
    pub rx_j: f64,
    /// Energy spent idle.
    pub idle_j: f64,
}

impl EnergyBreakdown {
    /// Total energy across all states, joules.
    pub fn total_j(&self) -> f64 {
        self.tx_j + self.rx_j + self.idle_j
    }
}

/// Integrates radio power drain over simulated time.
///
/// ```
/// use wsn_params::types::PowerLevel;
/// use wsn_sim_engine::time::SimDuration;
/// use wsn_radio::energy::EnergyMeter;
///
/// let mut meter = EnergyMeter::new();
/// meter.add_tx(PowerLevel::MAX, SimDuration::from_millis(4));
/// meter.add_rx(SimDuration::from_millis(8));
/// let e = meter.breakdown();
/// assert!(e.tx_j > 0.0 && e.rx_j > e.tx_j); // RX drain > TX drain on CC2420
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyMeter {
    breakdown: EnergyBreakdown,
    tx_time_us: u64,
    rx_time_us: u64,
    idle_time_us: u64,
}

impl EnergyMeter {
    /// A meter with no accumulated energy.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Accounts `duration` of transmission at `level`.
    pub fn add_tx(&mut self, level: PowerLevel, duration: SimDuration) {
        self.add_tx_w(cc2420::tx_power_w(level), duration);
    }

    /// Accounts `duration` of transmission at a drain of `power_w` watts,
    /// for callers that looked up [`cc2420::tx_power_w`] once per run.
    pub fn add_tx_w(&mut self, power_w: f64, duration: SimDuration) {
        self.breakdown.tx_j += power_w * duration.as_secs_f64();
        self.tx_time_us += duration.as_micros();
    }

    /// Accounts `duration` of listening / receiving.
    pub fn add_rx(&mut self, duration: SimDuration) {
        self.breakdown.rx_j += cc2420::rx_power_w() * duration.as_secs_f64();
        self.rx_time_us += duration.as_micros();
    }

    /// Accounts `duration` of idle time.
    pub fn add_idle(&mut self, duration: SimDuration) {
        self.breakdown.idle_j += cc2420::idle_power_w() * duration.as_secs_f64();
        self.idle_time_us += duration.as_micros();
    }

    /// The accumulated energy breakdown.
    pub fn breakdown(&self) -> EnergyBreakdown {
        self.breakdown
    }

    /// Total accumulated energy, joules.
    pub fn total_j(&self) -> f64 {
        self.breakdown.total_j()
    }

    /// Total time accounted in any state.
    pub fn accounted_time(&self) -> SimDuration {
        SimDuration::from_micros(self.tx_time_us + self.rx_time_us + self.idle_time_us)
    }

    /// Time spent transmitting.
    pub fn tx_time(&self) -> SimDuration {
        SimDuration::from_micros(self.tx_time_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_energy_matches_hand_computation() {
        let mut m = EnergyMeter::new();
        m.add_tx(PowerLevel::MAX, SimDuration::from_millis(10));
        // 3 V * 17.4 mA * 10 ms = 522 µJ.
        assert!((m.total_j() - 522e-6).abs() < 1e-12);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let mut m = EnergyMeter::new();
        m.add_tx(PowerLevel::new(7).unwrap(), SimDuration::from_millis(3));
        m.add_rx(SimDuration::from_millis(5));
        m.add_idle(SimDuration::from_secs(1));
        let b = m.breakdown();
        assert!((b.tx_j + b.rx_j + b.idle_j - m.total_j()).abs() < 1e-18);
        assert_eq!(m.accounted_time(), SimDuration::from_micros(1_008_000));
    }

    #[test]
    fn higher_power_level_costs_more() {
        let mut low = EnergyMeter::new();
        let mut high = EnergyMeter::new();
        low.add_tx(PowerLevel::new(3).unwrap(), SimDuration::from_millis(4));
        high.add_tx(PowerLevel::new(31).unwrap(), SimDuration::from_millis(4));
        assert!(high.total_j() > low.total_j());
    }

    #[test]
    fn idle_is_cheap() {
        let mut idle = EnergyMeter::new();
        let mut rx = EnergyMeter::new();
        idle.add_idle(SimDuration::from_secs(1));
        rx.add_rx(SimDuration::from_secs(1));
        assert!(idle.total_j() < rx.total_j() / 10.0);
    }

    #[test]
    fn meter_is_additive() {
        let mut m = EnergyMeter::new();
        for _ in 0..10 {
            m.add_tx(PowerLevel::MAX, SimDuration::from_millis(1));
        }
        let mut once = EnergyMeter::new();
        once.add_tx(PowerLevel::MAX, SimDuration::from_millis(10));
        assert!((m.total_j() - once.total_j()).abs() < 1e-15);
        assert_eq!(m.tx_time(), once.tx_time());
    }
}
