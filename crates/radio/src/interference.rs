//! Concurrent-transmission interference.
//!
//! The paper's discussion (Sec. VIII-D) names concurrent transmission —
//! "which can cause extra packet loss due to packet collisions" — as the
//! first factor its single-link study excludes. This module models a
//! bursty external interferer (another 802.15.4 link, or WiFi activity in
//! the same 2.4 GHz band):
//!
//! * with probability `duty_cycle` the interferer is active during a
//!   transmission attempt, raising the effective noise floor by its
//!   received power (energy-sum in linear space → SINR instead of SNR);
//! * if the interferer is CCA-detectable, the sender's clear-channel
//!   assessment reports *busy* while it is active, triggering congestion
//!   backoff instead of a collision.

use serde::{Deserialize, Serialize};

/// An on/off external interferer at the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterferenceModel {
    /// Fraction of time the interferer is active, `0.0..=1.0`.
    pub duty_cycle: f64,
    /// Interference power received at the victim receiver, dBm.
    pub power_dbm: f64,
    /// Whether the victim *sender* can hear the interferer on CCA.
    /// Hidden-terminal interferers (`false`) collide instead of deferring.
    pub cca_detectable: bool,
    /// Mean length of one interferer burst, milliseconds (renewal model).
    pub mean_busy_ms: f64,
}

/// Worst-case victim frame time used by the post-CCA overlap
/// approximation: a maximum-length 802.15.4 frame (133 B at 250 kb/s).
const MAX_FRAME_S: f64 = 4.256e-3;

impl InterferenceModel {
    /// No interference — the paper's measured deployment.
    pub fn none() -> Self {
        InterferenceModel {
            duty_cycle: 0.0,
            power_dbm: -120.0,
            cca_detectable: false,
            mean_busy_ms: 10.0,
        }
    }

    /// Moderate co-channel WiFi: ~10 % airtime at −85 dBm, not visible to
    /// the 802.15.4 CCA (WiFi slots are shorter than the CCA window).
    pub fn wifi_moderate() -> Self {
        InterferenceModel {
            duty_cycle: 0.10,
            power_dbm: -85.0,
            cca_detectable: false,
            mean_busy_ms: 2.0,
        }
    }

    /// A co-located 802.15.4 link with the given airtime: CCA-detectable,
    /// received at −70 dBm (a neighbour a few meters away).
    ///
    /// # Panics
    ///
    /// Panics if `airtime` is outside `[0, 1]`.
    pub fn zigbee_neighbor(airtime: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&airtime),
            "airtime must be in [0, 1], got {airtime}"
        );
        InterferenceModel {
            duty_cycle: airtime,
            power_dbm: -70.0,
            cca_detectable: true,
            mean_busy_ms: 10.0,
        }
    }

    /// Probability that an attempt overlaps the interferer.
    ///
    /// For a hidden interferer this is simply the duty cycle. For a
    /// CCA-detectable one, the victim only transmits after a *clear* CCA,
    /// so a collision requires the interferer to **turn on during the
    /// frame**: under a renewal on/off model with mean busy period
    /// `mean_busy_ms`, the mean idle period is `busy·(1−d)/d` and the
    /// turn-on probability over a max-length frame is
    /// `1 − exp(−T_frame / mean_idle)`.
    pub fn collision_probability(&self) -> f64 {
        if self.duty_cycle <= 0.0 {
            return 0.0;
        }
        if !self.cca_detectable {
            return self.duty_cycle.clamp(0.0, 1.0);
        }
        let d = self.duty_cycle.clamp(0.0, 1.0);
        if d >= 1.0 {
            // Always-on detectable interferer: CCA never clears; the MAC
            // transmits after its retry budget straight into the jammer.
            return 1.0;
        }
        let mean_idle_s = self.mean_busy_ms * 1e-3 * (1.0 - d) / d;
        1.0 - (-MAX_FRAME_S / mean_idle_s).exp()
    }

    /// True if this model can never affect the link.
    pub fn is_none(&self) -> bool {
        self.duty_cycle <= 0.0
    }

    /// The probability that the sender's CCA reports busy.
    pub fn cca_busy_probability(&self) -> f64 {
        if self.cca_detectable {
            self.duty_cycle.clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// Combines the thermal noise floor with the interference power
    /// (linear energy sum), dBm.
    pub fn effective_noise_dbm(&self, noise_dbm: f64) -> f64 {
        combine_dbm(noise_dbm, self.power_dbm)
    }
}

impl Default for InterferenceModel {
    fn default() -> Self {
        InterferenceModel::none()
    }
}

/// Energy-sum of two powers given in dBm.
pub fn combine_dbm(a_dbm: f64, b_dbm: f64) -> f64 {
    let lin = 10f64.powf(a_dbm / 10.0) + 10f64.powf(b_dbm / 10.0);
    10.0 * lin.log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, ChannelConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wsn_params::types::{Distance, PowerLevel};

    #[test]
    fn combine_dbm_basics() {
        // Equal powers add 3 dB.
        assert!((combine_dbm(-90.0, -90.0) - -86.99).abs() < 0.02);
        // A negligible term changes nothing.
        assert!((combine_dbm(-90.0, -150.0) - -90.0).abs() < 1e-3);
        // Commutative.
        assert_eq!(combine_dbm(-85.0, -95.0), combine_dbm(-95.0, -85.0));
    }

    #[test]
    fn none_is_inert() {
        let m = InterferenceModel::none();
        assert!(m.is_none());
        assert_eq!(m.cca_busy_probability(), 0.0);
        assert_eq!(m.collision_probability(), 0.0);
        // −120 dBm on top of −95 dBm is invisible (< 0.02 dB shift).
        assert!((m.effective_noise_dbm(-95.0) - -95.0).abs() < 0.02);
    }

    #[test]
    fn hidden_interferer_collides_at_duty_cycle_rate() {
        let mut m = InterferenceModel::zigbee_neighbor(0.3);
        m.cca_detectable = false;
        let mut config = ChannelConfig::ideal();
        config.interference = m;
        let mut channel = Channel::new(
            config,
            PowerLevel::MAX,
            Distance::from_meters(10.0).unwrap(),
            StdRng::seed_from_u64(1),
            StdRng::seed_from_u64(2),
        );
        let n = 50_000;
        let active = (0..n).filter(|_| channel.observe().interfered).count() as f64 / n as f64;
        assert!((active - 0.3).abs() < 0.01, "active={active}");
        assert_eq!(m.collision_probability(), 0.3);
    }

    #[test]
    fn cca_deferral_reduces_collision_probability() {
        let polite = InterferenceModel::zigbee_neighbor(0.5);
        let mut hidden = polite;
        hidden.cca_detectable = false;
        // Post-CCA turn-on probability over one frame is well below the
        // raw 50 % airtime: 1 − exp(−4.256/10) ≈ 0.347.
        assert!(polite.collision_probability() < hidden.collision_probability());
        assert!((polite.collision_probability() - 0.347).abs() < 0.01);
    }

    #[test]
    fn always_on_detectable_interferer_jams() {
        let mut m = InterferenceModel::zigbee_neighbor(1.0);
        assert_eq!(m.collision_probability(), 1.0);
        m.cca_detectable = false;
        assert_eq!(m.collision_probability(), 1.0);
    }

    #[test]
    fn strong_interferer_dominates_the_floor() {
        let m = InterferenceModel::zigbee_neighbor(0.5);
        // −70 dBm interference over −95 dBm noise: effective ≈ −70 dBm,
        // a 25 dB SINR penalty.
        let eff = m.effective_noise_dbm(-95.0);
        assert!((eff - -69.99).abs() < 0.1, "eff={eff}");
    }

    #[test]
    fn cca_detectability() {
        assert_eq!(
            InterferenceModel::zigbee_neighbor(0.25).cca_busy_probability(),
            0.25
        );
        assert_eq!(
            InterferenceModel::wifi_moderate().cca_busy_probability(),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "airtime")]
    fn invalid_airtime_rejected() {
        let _ = InterferenceModel::zigbee_neighbor(1.5);
    }
}
