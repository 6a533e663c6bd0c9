//! Receiver noise-floor model.
//!
//! Sec. III-A analyses ~24 million noise-floor samples and finds the noise
//! floor is **not** constant: its distribution has a dominant mode around
//! −95 dBm plus a heavier high-noise tail (bursty 2.4 GHz interference,
//! e.g. WiFi). Fig. 5 contrasts the "real SNR" distribution with the SNR
//! obtained by assuming a constant −95 dBm floor.
//!
//! We model the floor as a two-component Gaussian mixture whose mean is
//! −95 dBm, and also provide the constant-floor variant as the ablation the
//! paper plots.

use serde::{Deserialize, Serialize};

/// The constant noise-floor average the paper quotes, dBm.
pub const NOISE_FLOOR_MEAN_DBM: f64 = -95.0;

/// Noise-floor model: constant, or a two-component Gaussian mixture.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NoiseModel {
    /// A fixed floor (the "assuming constant noise" curve of Fig. 5).
    Constant {
        /// The fixed floor value, dBm.
        floor_dbm: f64,
    },
    /// Quiet mode + interference tail.
    Mixture {
        /// Mean of the quiet mode, dBm.
        quiet_mean_dbm: f64,
        /// Deviation of the quiet mode, dB.
        quiet_sigma_db: f64,
        /// Mean of the interference mode, dBm.
        busy_mean_dbm: f64,
        /// Deviation of the interference mode, dB.
        busy_sigma_db: f64,
        /// Probability of drawing from the interference mode.
        busy_prob: f64,
    },
}

impl NoiseModel {
    /// Constant −95 dBm floor.
    pub fn constant_default() -> Self {
        NoiseModel::Constant {
            floor_dbm: NOISE_FLOOR_MEAN_DBM,
        }
    }

    /// The hallway mixture: 90 % quiet `N(−95.5, 0.8²)`,
    /// 10 % interfered `N(−90.5, 1.5²)`; overall mean −95.0 dBm.
    pub fn paper_hallway() -> Self {
        NoiseModel::Mixture {
            quiet_mean_dbm: -95.5,
            quiet_sigma_db: 0.8,
            busy_mean_dbm: -90.5,
            busy_sigma_db: 1.5,
            busy_prob: 0.1,
        }
    }

    /// Whether a sample consumes draws: a mixture takes a uniform that
    /// picks its mode, then a standard normal; a constant floor takes none.
    pub fn draws(&self) -> bool {
        matches!(self, NoiseModel::Mixture { .. })
    }

    /// Finishes one noise-floor sample from its draws, dBm: `mode_u`
    /// (uniform in `[0, 1)`) picks the interference mode below
    /// `busy_prob`, and `z` is the standard normal scaled into that mode.
    /// A constant floor ignores both.
    ///
    /// The caller draws `z` with its generator's
    /// [`NormalSampler`](wsn_sim_engine::rng::NormalSampler): Box–Muller
    /// for the golden `StdRng`, Ziggurat for the fast
    /// [`FastRng`](wsn_sim_engine::rng::FastRng).
    pub fn finish_dbm(&self, mode_u: f64, z: f64) -> f64 {
        match *self {
            NoiseModel::Constant { floor_dbm } => floor_dbm,
            NoiseModel::Mixture {
                quiet_mean_dbm,
                quiet_sigma_db,
                busy_mean_dbm,
                busy_sigma_db,
                busy_prob,
            } => {
                let (mean, sigma) = if mode_u < busy_prob {
                    (busy_mean_dbm, busy_sigma_db)
                } else {
                    (quiet_mean_dbm, quiet_sigma_db)
                };
                mean + sigma * z
            }
        }
    }

    /// The expected value of the floor, dBm.
    pub fn mean_dbm(&self) -> f64 {
        match *self {
            NoiseModel::Constant { floor_dbm } => floor_dbm,
            NoiseModel::Mixture {
                quiet_mean_dbm,
                busy_mean_dbm,
                busy_prob,
                ..
            } => (1.0 - busy_prob) * quiet_mean_dbm + busy_prob * busy_mean_dbm,
        }
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::paper_hallway()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wsn_sim_engine::rng::NormalSampler;

    /// One sample, drawn as a channel draws it.
    fn sample(m: &NoiseModel, rng: &mut StdRng) -> f64 {
        if m.draws() {
            let mode_u = rng.gen::<f64>();
            m.finish_dbm(mode_u, rng.sample_standard_normal())
        } else {
            m.finish_dbm(0.0, 0.0)
        }
    }

    #[test]
    fn constant_model_is_constant() {
        let m = NoiseModel::constant_default();
        assert!(!m.draws());
        for (u, z) in [(0.0, 0.0), (0.05, -3.0), (0.99, 2.5)] {
            assert_eq!(m.finish_dbm(u, z), -95.0);
        }
        assert_eq!(m.mean_dbm(), -95.0);
    }

    #[test]
    fn mixture_mean_is_minus_95() {
        assert!((NoiseModel::paper_hallway().mean_dbm() - -95.0).abs() < 1e-9);
    }

    #[test]
    fn mixture_mode_draw_picks_the_component() {
        let m = NoiseModel::paper_hallway();
        assert!(m.draws());
        assert_eq!(m.finish_dbm(0.05, 1.0), -90.5 + 1.5);
        assert_eq!(m.finish_dbm(0.5, 1.0), -95.5 + 0.8);
    }

    #[test]
    fn mixture_sample_mean_matches_analytic_mean() {
        let m = NoiseModel::paper_hallway();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let mean = (0..n).map(|_| sample(&m, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - m.mean_dbm()).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn mixture_has_a_high_noise_tail() {
        let m = NoiseModel::paper_hallway();
        let mut rng = StdRng::seed_from_u64(13);
        let n = 50_000;
        let above_minus_92 = (0..n)
            .map(|_| sample(&m, &mut rng))
            .filter(|&x| x > -92.0)
            .count() as f64
            / n as f64;
        // ~10 % busy mode centred at −90.5 ⇒ a solid tail above −92 dBm,
        // which a constant model has none of.
        assert!(
            above_minus_92 > 0.05 && above_minus_92 < 0.2,
            "tail={above_minus_92}"
        );
    }
}
