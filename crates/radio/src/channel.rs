//! The composed link channel: path loss + correlated shadowing + sampled
//! noise floor + a PER backend, observed one transmission attempt at a time.

use rand::rngs::StdRng;
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
///
/// Rounds half away from zero without a libm call: the clamped value lies
/// in `[40, 110]`, where adding 0.5 rounds no value across an integer, so
/// truncating the sum equals `.round()` (NaN still maps to 0).
#[inline]
pub fn lqi_from_snr(snr_db: f64) -> u8 {
    ((50.0 + 3.0 * snr_db).clamp(40.0, 110.0) + 0.5) as u8
}

/// Observations per block, for a generator that
/// [draws ahead](NormalSampler::DRAW_AHEAD).
const BLOCK: usize = 16;

/// One observation's random draws. A draw the model does not take keeps
/// its default.
#[derive(Debug, Clone, Copy, Default)]
struct Raw<D> {
    /// Shadowing innovation, from the fading stream.
    fading: D,
    /// Noise-mixture mode uniform, from the noise stream.
    mode_u: f64,
    /// Noise-mixture normal, from the noise stream.
    noise: D,
    /// Interferer coin, from the noise stream.
    coin: f64,
}

/// One observation finished but for the geometry: the mean RSSI is added
/// when the observation is taken, so a [`Channel::retarget`] between two
/// observations of a block still moves the second.
#[derive(Debug, Clone, Copy, Default)]
struct Drawn {
    deviation_db: f64,
    noise_dbm: f64,
    interfered: bool,
}

impl Drawn {
    /// The observation at mean RSSI `mean_rssi_dbm`.
    #[inline(always)]
    fn at(self, mean_rssi_dbm: f64) -> Observation {
        let rssi_dbm = mean_rssi_dbm + self.deviation_db;
        let snr_db = rssi_dbm - self.noise_dbm;
        Observation {
            rssi_dbm,
            noise_dbm: self.noise_dbm,
            snr_db,
            lqi: lqi_from_snr(snr_db),
            interfered: self.interfered,
        }
    }
}

/// The random half of a channel: the shadowing process and the two
/// streams its observations are drawn from.
#[derive(Debug, Clone)]
struct Draws<R> {
    shadowing: Shadowing,
    /// [`InterferenceModel::collision_probability`], hoisted out of the
    /// per-attempt draw.
    collision_prob: f64,
    fading_rng: R,
    noise_rng: R,
}

impl<R: NormalSampler> Draws<R> {
    /// Takes one observation's draws: the shadowing innovation from the
    /// fading stream; the mixture's mode and normal, then the
    /// interferer's coin, from the noise stream. A draw is skipped where
    /// the model has nothing random to draw.
    #[inline(always)]
    fn draw(&mut self, config: &ChannelConfig) -> Raw<R::NormalDraw> {
        let mut raw = Raw::default();
        if self.shadowing.draws() {
            raw.fading = self.fading_rng.draw_normal();
        }
        if config.noise.draws() {
            raw.mode_u = self.noise_rng.gen::<f64>();
            raw.noise = self.noise_rng.draw_normal();
        }
        if self.collision_prob > 0.0 {
            raw.coin = self.noise_rng.gen::<f64>();
        }
        raw
    }

    /// Finishes one observation's draws, stepping the shadowing process.
    #[inline(always)]
    fn finish(&mut self, config: &ChannelConfig, raw: Raw<R::NormalDraw>) -> Drawn {
        let deviation_db = if self.shadowing.draws() {
            self.shadowing
                .next_deviation_db(R::finish_normal(raw.fading))
        } else {
            0.0
        };
        let z = if config.noise.draws() {
            R::finish_normal(raw.noise)
        } else {
            0.0
        };
        let floor_dbm = config.noise.finish_dbm(raw.mode_u, z);
        let interfered = self.collision_prob > 0.0 && raw.coin < self.collision_prob;
        Drawn {
            deviation_db,
            noise_dbm: if interfered {
                config.interference.effective_noise_dbm(floor_dbm)
            } else {
                floor_dbm
            },
            interfered,
        }
    }
}

/// A live channel between one sender–receiver pair at a fixed distance and
/// power level, with the two random streams it observes from.
///
/// The channel is observed once per *transmission attempt*; consecutive
/// observations are correlated through the AR(1) shadowing process.
///
/// The channel owns its fading and noise streams, so every observation
/// comes from the same pair of streams: a generator that
/// [draws ahead](NormalSampler::DRAW_AHEAD) is drawn sixteen observations
/// at a time, and a block drawn from one pair can never be handed out
/// against another. Drawing ahead changes no bit of any observation (the
/// streams feed nothing else), only how far the streams have advanced
/// between observations. Either way each observation is drawn by one
/// routine and finished by another; a block only runs all the draws
/// before all the finishes.
///
/// Generic over [`NormalSampler`] — the engine-mode sampling seam: the
/// golden engine's `StdRng` streams draw polar Box–Muller normals, pinned
/// by the golden fixtures, sixteen observations per block; the fast
/// engine's [`FastRng`](wsn_sim_engine::rng::FastRng) streams draw
/// Ziggurat normals one observation at a time. Both sample exactly the
/// same shadowing/noise process.
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
///     StdRng::seed_from_u64(1),
///     StdRng::seed_from_u64(2),
/// );
/// let mut delivery = StdRng::seed_from_u64(3);
///
/// let obs = ch.observe();
/// let ok = ch.data_success(&obs, PayloadSize::new(110)?, &mut delivery);
/// assert!(obs.snr_db > 0.0 || !ok); // no delivery guarantee below the floor
/// # Ok::<(), wsn_params::error::InvalidParam>(())
/// ```
#[derive(Debug, Clone)]
pub struct Channel<R: NormalSampler = StdRng> {
    config: ChannelConfig,
    mean_rssi_dbm: f64,
    per_cache: PerCache,
    draws: Draws<R>,
    /// The observations drawn ahead (unused by a generator that does not
    /// draw ahead).
    block: [Drawn; BLOCK],
    /// Next unread observation of `block`; `BLOCK` when it is used up.
    next: usize,
}

impl<R: NormalSampler> Channel<R> {
    /// Creates the channel for one `(power, distance)` operating point,
    /// observed from the `fading_rng` and `noise_rng` streams.
    pub fn new(
        config: ChannelConfig,
        power: PowerLevel,
        distance: Distance,
        fading_rng: R,
        noise_rng: R,
    ) -> Self {
        let mean_rssi_dbm = config.pathloss.mean_rssi_dbm(power, distance);
        let shadowing = Shadowing::new(config.sigma_profile, config.fading_correlation, distance);
        Channel::with_parts(config, mean_rssi_dbm, shadowing, fading_rng, noise_rng)
    }

    /// Creates the channel from a memoized [`LinkBudget`] (see
    /// [`crate::budget::LinkBudgetTable`]). Produces a channel bit-identical
    /// to [`Channel::new`] when the budget was computed for the same
    /// operating point under the same `config`.
    pub fn from_budget(
        config: ChannelConfig,
        budget: LinkBudget,
        fading_rng: R,
        noise_rng: R,
    ) -> Self {
        let shadowing = Shadowing::with_sigma_db(budget.sigma_db, config.fading_correlation);
        Channel::with_parts(
            config,
            budget.mean_rssi_dbm,
            shadowing,
            fading_rng,
            noise_rng,
        )
    }

    fn with_parts(
        config: ChannelConfig,
        mean_rssi_dbm: f64,
        shadowing: Shadowing,
        fading_rng: R,
        noise_rng: R,
    ) -> Self {
        Channel {
            config,
            mean_rssi_dbm,
            per_cache: PerCache::new(),
            draws: Draws {
                shadowing,
                collision_prob: config.interference.collision_probability(),
                fading_rng,
                noise_rng,
            },
            block: [Drawn::default(); BLOCK],
            next: BLOCK,
        }
    }

    /// Draws the channel state for the next transmission attempt: from
    /// the block drawn ahead when the generator
    /// [draws ahead](NormalSampler::DRAW_AHEAD), otherwise drawn and
    /// finished on the spot.
    #[inline]
    pub fn observe(&mut self) -> Observation {
        if !R::DRAW_AHEAD {
            let raw = self.draws.draw(&self.config);
            return self.draws.finish(&self.config, raw).at(self.mean_rssi_dbm);
        }
        if self.next == BLOCK {
            self.refill();
        }
        let i = self.next;
        self.next = i + 1;
        self.block[i].at(self.mean_rssi_dbm)
    }

    /// Draws the next block: every observation's draws first, then the
    /// finishes in a loop of their own, so that the finishes' serial
    /// chains (polar: `ln`, a division, `sqrt`) of independent
    /// observations overlap. Out of line, so that
    /// [`observe`](Self::observe) stays small enough to inline into the
    /// engines' attempt loops.
    #[inline(never)]
    fn refill(&mut self) {
        let mut raws = [Raw::default(); BLOCK];
        for raw in &mut raws {
            *raw = self.draws.draw(&self.config);
        }
        for (drawn, raw) in self.block.iter_mut().zip(raws) {
            *drawn = self.draws.finish(&self.config, raw);
        }
        self.next = 0;
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
    pub fn data_success<D: Rng + ?Sized>(
        &self,
        obs: &Observation,
        payload: PayloadSize,
        delivery_rng: &mut D,
    ) -> bool {
        let per = self
            .config
            .per_backend
            .per_cached(&self.per_cache, obs.snr_db, payload);
        delivery_rng.gen::<f64>() >= per
    }

    /// Whether the acknowledgement for a delivered frame survives the
    /// reverse path.
    pub fn ack_success<D: Rng + ?Sized>(&self, obs: &Observation, delivery_rng: &mut D) -> bool {
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
    use rand::SeedableRng;
    use wsn_sim_engine::rng::FastRng;

    use crate::interference::{combine_dbm, InterferenceModel};
    use crate::noise::NoiseModel;

    fn mk(power: u8, dist: f64, cfg: ChannelConfig) -> Channel {
        Channel::new(
            cfg,
            PowerLevel::new(power).unwrap(),
            Distance::from_meters(dist).unwrap(),
            StdRng::seed_from_u64(1),
            StdRng::seed_from_u64(2),
        )
    }

    #[test]
    fn ideal_channel_observation_is_deterministic_mean() {
        let mut ch = mk(23, 20.0, ChannelConfig::ideal());
        let obs = ch.observe();
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
        let n_samples = 50_000;
        let mean_snr: f64 =
            (0..n_samples).map(|_| ch.observe().snr_db).sum::<f64>() / n_samples as f64;
        assert!((mean_snr - ch.mean_snr_db()).abs() < 0.2, "mean={mean_snr}");
    }

    #[test]
    fn delivery_rate_tracks_per_backend() {
        let mut ch = mk(31, 35.0, ChannelConfig::ideal());
        let payload = PayloadSize::new(110).unwrap();
        let mut d = StdRng::seed_from_u64(3);
        let trials = 40_000;
        let mut ok = 0;
        let mut expected = 0.0;
        for _ in 0..trials {
            let obs = ch.observe();
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
        let mut d = StdRng::seed_from_u64(3);
        for _ in 0..64 {
            let obs = ch.observe();
            assert!(ch.ack_success(&obs, &mut d));
        }
    }

    #[test]
    fn lqi_saturates_at_both_ends() {
        assert_eq!(lqi_from_snr(40.0), 110);
        assert_eq!(lqi_from_snr(-10.0), 40);
        assert_eq!(lqi_from_snr(10.0), 80);
    }

    /// The LQI map as first written, rounding through libm.
    fn lqi_by_round(snr_db: f64) -> u8 {
        (50.0 + 3.0 * snr_db).clamp(40.0, 110.0).round() as u8
    }

    #[test]
    fn lqi_truncation_equals_libm_rounding() {
        // A dense sweep across the whole clamped range and beyond.
        let mut snr = -30.0;
        while snr <= 40.0 {
            assert_eq!(lqi_from_snr(snr), lqi_by_round(snr), "snr {snr}");
            snr += 1.0 / 4096.0;
        }
        // Every half-integer LQI boundary k + 0.5, reached through the SNR
        // map, and the neighbouring floats on both sides of it.
        for k in 40..110 {
            let snr = (k as f64 + 0.5 - 50.0) / 3.0;
            let mut below = snr;
            let mut above = snr;
            for _ in 0..4 {
                for s in [below, snr, above] {
                    assert_eq!(lqi_from_snr(s), lqi_by_round(s), "snr {s:e}");
                }
                below = f64::from_bits(below.to_bits() - 1);
                above = f64::from_bits(above.to_bits() + 1);
            }
        }
        // The values that clamp, and NaN.
        for s in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
        ] {
            assert_eq!(lqi_from_snr(s), lqi_by_round(s), "snr {s}");
        }
        assert_eq!(lqi_from_snr(f64::NAN), 0);
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
        let mut cfg = ChannelConfig::ideal();
        cfg.interference = InterferenceModel::zigbee_neighbor(0.5);
        let mut ch = mk(31, 10.0, cfg);
        let mut clean = Vec::new();
        let mut hit = Vec::new();
        for _ in 0..2000 {
            let obs = ch.observe();
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

    /// The observation as it was drawn before blocks: each draw taken from
    /// the streams at the moment of the observation and finished on the
    /// spot, the interference probability recomputed every time.
    struct OneAtATime<R> {
        config: ChannelConfig,
        mean_rssi_dbm: f64,
        shadowing: Shadowing,
        fading: R,
        noise: R,
    }

    impl<R: NormalSampler> OneAtATime<R> {
        fn observe(&mut self) -> Observation {
            let deviation = if self.shadowing.draws() {
                let z = self.fading.sample_standard_normal();
                self.shadowing.next_deviation_db(z)
            } else {
                0.0
            };
            let rssi_dbm = self.mean_rssi_dbm + deviation;
            let mut noise_dbm = match self.config.noise {
                NoiseModel::Constant { floor_dbm } => floor_dbm,
                NoiseModel::Mixture {
                    quiet_mean_dbm,
                    quiet_sigma_db,
                    busy_mean_dbm,
                    busy_sigma_db,
                    busy_prob,
                } => {
                    let (mean, sigma) = if self.noise.gen::<f64>() < busy_prob {
                        (busy_mean_dbm, busy_sigma_db)
                    } else {
                        (quiet_mean_dbm, quiet_sigma_db)
                    };
                    mean + sigma * self.noise.sample_standard_normal()
                }
            };
            let p = self.config.interference.collision_probability();
            let interfered = p > 0.0 && self.noise.gen::<f64>() < p;
            if interfered {
                noise_dbm = combine_dbm(noise_dbm, self.config.interference.power_dbm);
            }
            let snr_db = rssi_dbm - noise_dbm;
            Observation {
                rssi_dbm,
                noise_dbm,
                snr_db,
                lqi: (50.0 + 3.0 * snr_db).clamp(40.0, 110.0).round() as u8,
                interfered,
            }
        }
    }

    /// Takes `len` observations from a block-drawing channel and from the
    /// one-at-a-time reference on identical streams, retargeting both
    /// halfway, and requires every field to match bit for bit.
    fn assert_blocks_match<R: NormalSampler + Clone>(
        config: ChannelConfig,
        distance_m: f64,
        fading: R,
        noise: R,
        len: usize,
    ) {
        let power = PowerLevel::new(11).unwrap();
        let distance = Distance::from_meters(distance_m).unwrap();
        let mut blocked = Channel::new(config, power, distance, fading.clone(), noise.clone());
        let mut reference = OneAtATime {
            config,
            mean_rssi_dbm: config.pathloss.mean_rssi_dbm(power, distance),
            shadowing: Shadowing::new(config.sigma_profile, config.fading_correlation, distance),
            fading,
            noise,
        };
        let moved = Distance::from_meters(distance_m + 7.5).unwrap();
        for k in 0..len {
            if k == len / 2 {
                blocked.retarget(power, moved);
                reference.mean_rssi_dbm = config.pathloss.mean_rssi_dbm(power, moved);
            }
            let a = blocked.observe();
            let b = reference.observe();
            let what = format!("{config:?} at {distance_m} m, observation {k} of {len}");
            assert_eq!(a.rssi_dbm.to_bits(), b.rssi_dbm.to_bits(), "rssi: {what}");
            assert_eq!(
                a.noise_dbm.to_bits(),
                b.noise_dbm.to_bits(),
                "noise: {what}"
            );
            assert_eq!(a.snr_db.to_bits(), b.snr_db.to_bits(), "snr: {what}");
            assert_eq!(a.lqi, b.lqi, "lqi: {what}");
            assert_eq!(a.interfered, b.interfered, "interfered: {what}");
        }
    }

    #[test]
    fn block_drawn_observations_equal_one_at_a_time_draws() {
        let mut configs = Vec::new();
        for noise in [NoiseModel::paper_hallway(), NoiseModel::constant_default()] {
            for interference in [
                InterferenceModel::none(),
                InterferenceModel::wifi_moderate(),
                InterferenceModel::zigbee_neighbor(0.3),
            ] {
                for sigma in [SigmaProfile::none(), SigmaProfile::paper_hallway()] {
                    configs.push(ChannelConfig {
                        noise,
                        interference,
                        sigma_profile: sigma,
                        ..ChannelConfig::paper_hallway()
                    });
                }
            }
        }
        for (c, config) in configs.into_iter().enumerate() {
            for len in [1, 15, 16, 17, 33] {
                // 20 m is quiet, 35 m the shadowed position.
                for distance_m in [20.0, 35.0] {
                    let seed = 100 * c as u64 + len as u64;
                    assert_blocks_match(
                        config,
                        distance_m,
                        StdRng::seed_from_u64(seed),
                        StdRng::seed_from_u64(!seed),
                        len,
                    );
                    assert_blocks_match(
                        config,
                        distance_m,
                        FastRng::new(seed),
                        FastRng::new(!seed),
                        len,
                    );
                }
            }
        }
    }
}
