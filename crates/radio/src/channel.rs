//! The composed link channel: path loss + correlated shadowing + sampled
//! noise floor + a PER backend, observed one transmission attempt at a time.

use rand::Rng;
use serde::{Deserialize, Serialize};

use wsn_params::types::{Distance, PayloadSize, PowerLevel};
use wsn_sim_engine::rng::NormalSampler;

use crate::budget::LinkBudget;
use crate::interference::InterferenceModel;
use crate::noise::NoiseModel;
use crate::pathloss::PathLoss;
use crate::per::{PerBackend, PerCache, PerModel};
use crate::shadowing::{Shadowing, SigmaProfile};

/// Static description of the propagation environment (shared across all
/// configurations of one experiment campaign).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelConfig {
    /// Large-scale path loss model.
    pub pathloss: PathLoss,
    /// Distance-dependent shadowing deviations.
    pub sigma_profile: SigmaProfile,
    /// AR(1) correlation between consecutive shadowing samples.
    pub fading_correlation: f64,
    /// Noise-floor model.
    pub noise: NoiseModel,
    /// Packet-corruption backend.
    pub per_backend: PerBackend,
    /// Whether acknowledgement frames can also be lost.
    pub ack_loss: bool,
    /// External concurrent-transmission interference (Sec. VIII-D
    /// extension; [`InterferenceModel::none`] matches the paper's
    /// interference-free deployment).
    pub interference: InterferenceModel,
}

impl ChannelConfig {
    /// The hallway environment reconstructed from the paper's Sec. III
    /// measurements; the default for all experiments.
    pub fn paper_hallway() -> Self {
        ChannelConfig {
            pathloss: PathLoss::paper_hallway(),
            sigma_profile: SigmaProfile::paper_hallway(),
            fading_correlation: 0.9,
            noise: NoiseModel::paper_hallway(),
            per_backend: PerBackend::paper(),
            ack_loss: true,
            interference: InterferenceModel::none(),
        }
    }

    /// The channel of the paper's Sec. VIII case study: the hallway with
    /// ~23 dB of extra shadowing so that the 35 m link reaches only 6 dB
    /// SNR at maximum power (matching `LinkBudget::case_study`).
    pub fn case_study() -> Self {
        let mut channel = Self::paper_hallway();
        channel.pathloss.reference_loss_db = 55.2;
        channel
    }

    /// An idealised environment without fading or noise variation, with a
    /// constant −95 dBm floor. Used by ablations and calibration tests that
    /// need the mean SNR to be exact.
    pub fn ideal() -> Self {
        ChannelConfig {
            pathloss: PathLoss::paper_hallway(),
            sigma_profile: SigmaProfile::none(),
            fading_correlation: 0.9,
            noise: NoiseModel::constant_default(),
            per_backend: PerBackend::paper(),
            ack_loss: false,
            interference: InterferenceModel::none(),
        }
    }
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig::paper_hallway()
    }
}

/// One per-attempt channel observation, mirroring the metadata columns of
/// the paper's public dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Received signal strength, dBm (CC2420 reports integers; we keep the
    /// unquantized value and expose quantization separately).
    pub rssi_dbm: f64,
    /// Noise floor at the receiver, dBm.
    pub noise_dbm: f64,
    /// Signal-to-noise(-plus-interference) ratio, dB.
    pub snr_db: f64,
    /// Synthesised CC2420 link-quality indicator (≈ 50…110).
    pub lqi: u8,
    /// Whether an external interferer was active during this attempt.
    pub interfered: bool,
}

impl Observation {
    /// The RSSI as the CC2420 would report it (integer dBm).
    pub fn rssi_reported(&self) -> i8 {
        self.rssi_dbm.round().clamp(-128.0, 127.0) as i8
    }
}

/// Synthesises a CC2420-style LQI value from SNR.
///
/// The CC2420 LQI correlates with chip correlation quality; empirically it
/// saturates near 110 on good links and falls towards ~50 at the
/// sensitivity threshold. A linear map of SNR onto that range reproduces
/// the qualitative behaviour.
pub fn lqi_from_snr(snr_db: f64) -> u8 {
    (50.0 + 3.0 * snr_db).clamp(40.0, 110.0).round() as u8
}

/// A live channel between one sender–receiver pair at a fixed distance and
/// power level.
///
/// The channel is observed once per *transmission attempt*; consecutive
/// observations are correlated through the AR(1) shadowing process.
///
/// ```
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
/// use wsn_params::types::{Distance, PayloadSize, PowerLevel};
/// use wsn_radio::channel::{Channel, ChannelConfig};
///
/// let mut ch = Channel::new(
///     ChannelConfig::paper_hallway(),
///     PowerLevel::new(23)?,
///     Distance::from_meters(20.0)?,
/// );
/// let mut fading = StdRng::seed_from_u64(1);
/// let mut noise = StdRng::seed_from_u64(2);
/// let mut delivery = StdRng::seed_from_u64(3);
///
/// let obs = ch.observe(&mut fading, &mut noise);
/// let ok = ch.data_success(&obs, PayloadSize::new(110)?, &mut delivery);
/// assert!(obs.snr_db > 0.0 || !ok); // no delivery guarantee below the floor
/// # Ok::<(), wsn_params::error::InvalidParam>(())
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    config: ChannelConfig,
    mean_rssi_dbm: f64,
    shadowing: Shadowing,
    per_cache: PerCache,
}

impl Channel {
    /// Creates the channel for one `(power, distance)` operating point.
    pub fn new(config: ChannelConfig, power: PowerLevel, distance: Distance) -> Self {
        let mean_rssi_dbm = config.pathloss.mean_rssi_dbm(power, distance);
        let shadowing = Shadowing::new(config.sigma_profile, config.fading_correlation, distance);
        Channel {
            config,
            mean_rssi_dbm,
            shadowing,
            per_cache: PerCache::new(),
        }
    }

    /// Creates the channel from a memoized [`LinkBudget`] (see
    /// [`crate::budget::LinkBudgetTable`]). Produces a channel bit-identical
    /// to [`Channel::new`] when the budget was computed for the same
    /// operating point under the same `config`.
    pub fn from_budget(config: ChannelConfig, budget: LinkBudget) -> Self {
        Channel {
            config,
            mean_rssi_dbm: budget.mean_rssi_dbm,
            shadowing: Shadowing::with_sigma_db(budget.sigma_db, config.fading_correlation),
            per_cache: PerCache::new(),
        }
    }

    /// The configured environment.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// Mean (un-faded) RSSI of this operating point, dBm.
    pub fn mean_rssi_dbm(&self) -> f64 {
        self.mean_rssi_dbm
    }

    /// Mean SNR against the average noise floor, dB.
    pub fn mean_snr_db(&self) -> f64 {
        self.mean_rssi_dbm - self.config.noise.mean_dbm()
    }

    /// Draws the channel state for the next transmission attempt.
    ///
    /// Generic over [`NormalSampler`] — the engine-mode sampling seam: the
    /// golden engine passes `StdRng` streams (polar Box–Muller, pinned by
    /// the golden fixtures), the fast engine passes
    /// [`FastRng`](wsn_sim_engine::rng::FastRng) streams (Ziggurat), and
    /// both sample exactly the same shadowing/noise process.
    pub fn observe<RF, RN>(&mut self, fading_rng: &mut RF, noise_rng: &mut RN) -> Observation
    where
        RF: NormalSampler + ?Sized,
        RN: NormalSampler + ?Sized,
    {
        let deviation = self.shadowing.next_deviation_db(fading_rng);
        let rssi_dbm = self.mean_rssi_dbm + deviation;
        let mut noise_dbm = self.config.noise.sample_dbm(noise_rng);
        let interfered = self.config.interference.sample_active(noise_rng);
        if interfered {
            noise_dbm = self.config.interference.effective_noise_dbm(noise_dbm);
        }
        let snr_db = rssi_dbm - noise_dbm;
        Observation {
            rssi_dbm,
            noise_dbm,
            snr_db,
            lqi: lqi_from_snr(snr_db),
            interfered,
        }
    }

    /// Probability that the sender's CCA reports a busy channel.
    pub fn cca_busy_probability(&self) -> f64 {
        self.config.interference.cca_busy_probability()
    }

    /// Retargets the channel to a new geometry (mobility support): the
    /// mean RSSI follows the new distance while the shadowing process
    /// keeps its state, so motion and fading compose naturally.
    pub fn retarget(&mut self, power: PowerLevel, distance: Distance) {
        self.mean_rssi_dbm = self.config.pathloss.mean_rssi_dbm(power, distance);
    }

    /// Whether a data frame with `payload` survives the attempt described
    /// by `obs`.
    pub fn data_success<R: Rng + ?Sized>(
        &self,
        obs: &Observation,
        payload: PayloadSize,
        delivery_rng: &mut R,
    ) -> bool {
        let per = self
            .config
            .per_backend
            .per_cached(&self.per_cache, obs.snr_db, payload);
        delivery_rng.gen::<f64>() >= per
    }

    /// Whether the acknowledgement for a delivered frame survives the
    /// reverse path.
    pub fn ack_success<R: Rng + ?Sized>(&self, obs: &Observation, delivery_rng: &mut R) -> bool {
        if !self.config.ack_loss {
            return true;
        }
        let per = self
            .config
            .per_backend
            .ack_per_cached(&self.per_cache, obs.snr_db);
        delivery_rng.gen::<f64>() >= per
    }

    /// Per-transmission data-frame error probability at `snr_db` under this
    /// channel's backend (exposed for model validation).
    pub fn per_at(&self, snr_db: f64, payload: PayloadSize) -> f64 {
        self.config.per_backend.per(snr_db, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mk(power: u8, dist: f64, cfg: ChannelConfig) -> Channel {
        Channel::new(
            cfg,
            PowerLevel::new(power).unwrap(),
            Distance::from_meters(dist).unwrap(),
        )
    }

    #[test]
    fn ideal_channel_observation_is_deterministic_mean() {
        let mut ch = mk(23, 20.0, ChannelConfig::ideal());
        let mut f = StdRng::seed_from_u64(1);
        let mut n = StdRng::seed_from_u64(2);
        let obs = ch.observe(&mut f, &mut n);
        assert!((obs.rssi_dbm - ch.mean_rssi_dbm()).abs() < 1e-12);
        assert_eq!(obs.noise_dbm, -95.0);
        assert!((obs.snr_db - ch.mean_snr_db()).abs() < 1e-12);
    }

    #[test]
    fn case_study_channel_is_attenuated() {
        let normal = ChannelConfig::paper_hallway();
        let weak = ChannelConfig::case_study();
        assert!(weak.pathloss.reference_loss_db > normal.pathloss.reference_loss_db + 20.0);
    }

    #[test]
    fn hallway_observations_fluctuate_around_mean() {
        let mut ch = mk(23, 20.0, ChannelConfig::paper_hallway());
        let mut f = StdRng::seed_from_u64(1);
        let mut n = StdRng::seed_from_u64(2);
        let n_samples = 50_000;
        let mean_snr: f64 = (0..n_samples)
            .map(|_| ch.observe(&mut f, &mut n).snr_db)
            .sum::<f64>()
            / n_samples as f64;
        assert!((mean_snr - ch.mean_snr_db()).abs() < 0.2, "mean={mean_snr}");
    }

    #[test]
    fn delivery_rate_tracks_per_backend() {
        let mut ch = mk(31, 35.0, ChannelConfig::ideal());
        let payload = PayloadSize::new(110).unwrap();
        let mut f = StdRng::seed_from_u64(1);
        let mut n = StdRng::seed_from_u64(2);
        let mut d = StdRng::seed_from_u64(3);
        let trials = 40_000;
        let mut ok = 0;
        let mut expected = 0.0;
        for _ in 0..trials {
            let obs = ch.observe(&mut f, &mut n);
            expected += 1.0 - ch.per_at(obs.snr_db, payload);
            if ch.data_success(&obs, payload, &mut d) {
                ok += 1;
            }
        }
        let measured = ok as f64 / trials as f64;
        let expected = expected / trials as f64;
        assert!(
            (measured - expected).abs() < 0.01,
            "{measured} vs {expected}"
        );
    }

    #[test]
    fn ack_never_lost_when_ack_loss_disabled() {
        let mut cfg = ChannelConfig::paper_hallway();
        cfg.ack_loss = false;
        let mut ch = mk(3, 35.0, cfg);
        let mut f = StdRng::seed_from_u64(1);
        let mut n = StdRng::seed_from_u64(2);
        let mut d = StdRng::seed_from_u64(3);
        for _ in 0..64 {
            let obs = ch.observe(&mut f, &mut n);
            assert!(ch.ack_success(&obs, &mut d));
        }
    }

    #[test]
    fn lqi_saturates_at_both_ends() {
        assert_eq!(lqi_from_snr(40.0), 110);
        assert_eq!(lqi_from_snr(-10.0), 40);
        assert_eq!(lqi_from_snr(10.0), 80);
    }

    #[test]
    fn reported_rssi_is_integer_dbm() {
        let obs = Observation {
            rssi_dbm: -76.4,
            noise_dbm: -95.0,
            snr_db: 18.6,
            lqi: 100,
            interfered: false,
        };
        assert_eq!(obs.rssi_reported(), -76);
    }

    #[test]
    fn interference_degrades_snr_when_active() {
        use crate::interference::InterferenceModel;
        let mut cfg = ChannelConfig::ideal();
        cfg.interference = InterferenceModel::zigbee_neighbor(0.5);
        let mut ch = mk(31, 10.0, cfg);
        let mut f = StdRng::seed_from_u64(1);
        let mut n = StdRng::seed_from_u64(2);
        let mut clean = Vec::new();
        let mut hit = Vec::new();
        for _ in 0..2000 {
            let obs = ch.observe(&mut f, &mut n);
            if obs.interfered {
                hit.push(obs.snr_db);
            } else {
                clean.push(obs.snr_db);
            }
        }
        assert!(!hit.is_empty() && !clean.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // −70 dBm interference over the −95 dBm floor costs ~25 dB of SINR.
        assert!(mean(&clean) - mean(&hit) > 15.0);
        assert!((ch.cca_busy_probability() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn higher_power_gives_higher_mean_snr() {
        let lo = mk(3, 35.0, ChannelConfig::paper_hallway());
        let hi = mk(31, 35.0, ChannelConfig::paper_hallway());
        assert!(hi.mean_snr_db() > lo.mean_snr_db());
    }
}
