//! Temporally-correlated shadowing (slow fading).
//!
//! Sec. III-A of the paper observes that indoor RSSI is unstable, that the
//! deviation shows **no consistent correlation with output power**, and that
//! the 35 m position suffers extra human-shadowing (a kitchen and a meeting
//! room nearby), *except* at PA level 3 where the signal sits at the
//! receiver sensitivity and the reported deviation collapses.
//!
//! We reproduce those statistics with a first-order autoregressive (AR(1))
//! Gauss–Markov process — the standard discrete-time model for shadowing
//! with exponential autocorrelation (Gudmundson's model):
//!
//! ```text
//! X_k = ρ · X_{k-1} + sqrt(1 − ρ²) · σ(d) · ε_k ,   ε_k ~ N(0, 1)
//! ```
//!
//! whose stationary distribution is `N(0, σ(d)²)` independent of `ρ`.

use serde::{Deserialize, Serialize};

use wsn_params::types::Distance;

/// Distance-dependent shadowing deviation profile, dB.
///
/// Matches Fig. 4: a baseline deviation everywhere, with an elevated value
/// at the 35 m position (human shadowing near the kitchen / meeting room).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SigmaProfile {
    /// Deviation at all "quiet" positions, dB.
    pub base_db: f64,
    /// Deviation at positions with heavy human shadowing, dB.
    pub shadowed_db: f64,
    /// Distance (meters) at and beyond which the shadowed deviation applies.
    pub shadowed_from_m: f64,
}

impl SigmaProfile {
    /// The hallway profile used throughout the reproduction:
    /// σ = 1.8 dB below 35 m, σ = 3.5 dB at 35 m.
    pub fn paper_hallway() -> Self {
        SigmaProfile {
            base_db: 1.8,
            shadowed_db: 3.5,
            shadowed_from_m: 35.0,
        }
    }

    /// No fading at all (ablation baseline).
    pub fn none() -> Self {
        SigmaProfile {
            base_db: 0.0,
            shadowed_db: 0.0,
            shadowed_from_m: f64::INFINITY,
        }
    }

    /// The deviation applicable at `distance`, dB.
    pub fn sigma_db(&self, distance: Distance) -> f64 {
        if distance.meters() >= self.shadowed_from_m {
            self.shadowed_db
        } else {
            self.base_db
        }
    }
}

impl Default for SigmaProfile {
    fn default() -> Self {
        SigmaProfile::paper_hallway()
    }
}

/// AR(1) shadowing process producing one correlated RSSI deviation per
/// channel observation.
///
/// ```
/// use rand::SeedableRng;
/// use wsn_params::types::Distance;
/// use wsn_sim_engine::rng::NormalSampler;
/// use wsn_radio::shadowing::{Shadowing, SigmaProfile};
///
/// let mut fading = Shadowing::new(
///     SigmaProfile::paper_hallway(),
///     0.9,
///     Distance::from_meters(20.0)?,
/// );
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let dev = fading.next_deviation_db(rng.sample_standard_normal());
/// assert!(dev.abs() < 20.0); // a few dB, not tens
/// # Ok::<(), wsn_params::error::InvalidParam>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Shadowing {
    sigma_db: f64,
    correlation: f64,
    /// `sqrt(1 − ρ²) · σ`, hoisted out of the per-attempt draw. The
    /// product keeps the draw's original association, so cached and
    /// recomputed deviations are bit-identical.
    innovation_scale: f64,
    state_db: f64,
    initialised: bool,
}

impl Shadowing {
    /// Creates the process for one link.
    ///
    /// # Panics
    ///
    /// Panics if `correlation` is outside `[0, 1)`.
    pub fn new(profile: SigmaProfile, correlation: f64, distance: Distance) -> Self {
        assert!(
            (0.0..1.0).contains(&correlation),
            "AR(1) correlation must be in [0, 1), got {correlation}"
        );
        Shadowing::with_sigma_db(profile.sigma_db(distance), correlation)
    }

    /// Creates the process from an already-computed deviation (the
    /// memoized-budget path). Equivalent to [`Shadowing::new`] when
    /// `sigma_db == profile.sigma_db(distance)`.
    ///
    /// # Panics
    ///
    /// Panics if `correlation` is outside `[0, 1)`.
    pub fn with_sigma_db(sigma_db: f64, correlation: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&correlation),
            "AR(1) correlation must be in [0, 1), got {correlation}"
        );
        Shadowing {
            sigma_db,
            correlation,
            innovation_scale: (1.0 - correlation * correlation).sqrt() * sigma_db,
            state_db: 0.0,
            initialised: false,
        }
    }

    /// The stationary deviation of the process, dB.
    pub fn sigma_db(&self) -> f64 {
        self.sigma_db
    }

    /// Whether a step of the process consumes an innovation: false when
    /// the deviation is zero and the process stays at 0 dB.
    pub fn draws(&self) -> bool {
        self.sigma_db != 0.0
    }

    /// Advances the process by one standard-normal innovation `z` and
    /// returns the new deviation, dB. The first step starts the process in
    /// its stationary distribution. A process that does not
    /// [`draw`](Self::draws) ignores `z` and stays at 0 dB.
    ///
    /// The caller draws `z`: the golden engine's `StdRng` with the polar
    /// Box–Muller transform, the fast engine's
    /// [`FastRng`](wsn_sim_engine::rng::FastRng) with the Ziggurat sampler
    /// of the same `N(0, 1)` distribution (see
    /// [`NormalSampler`](wsn_sim_engine::rng::NormalSampler)).
    pub fn next_deviation_db(&mut self, z: f64) -> f64 {
        if self.sigma_db == 0.0 {
            return 0.0;
        }
        if !self.initialised {
            // Start in the stationary distribution.
            self.state_db = self.sigma_db * z;
            self.initialised = true;
        } else {
            let innovation = self.innovation_scale * z;
            self.state_db = self.correlation * self.state_db + innovation;
        }
        self.state_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wsn_sim_engine::rng::NormalSampler;

    fn d(m: f64) -> Distance {
        Distance::from_meters(m).unwrap()
    }

    #[test]
    fn profile_is_elevated_at_35m() {
        let p = SigmaProfile::paper_hallway();
        assert_eq!(p.sigma_db(d(10.0)), 1.8);
        assert_eq!(p.sigma_db(d(34.9)), 1.8);
        assert_eq!(p.sigma_db(d(35.0)), 3.5);
    }

    #[test]
    fn stationary_variance_matches_sigma() {
        let mut fading = Shadowing::new(SigmaProfile::paper_hallway(), 0.9, d(35.0));
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| fading.next_deviation_db(rng.sample_standard_normal()))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.15, "mean={mean}");
        assert!((var.sqrt() - 3.5).abs() < 0.2, "std={}", var.sqrt());
    }

    #[test]
    fn consecutive_samples_are_positively_correlated() {
        let mut fading = Shadowing::new(SigmaProfile::paper_hallway(), 0.9, d(20.0));
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..100_000)
            .map(|_| fading.next_deviation_db(rng.sample_standard_normal()))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        let cov = samples
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (samples.len() - 1) as f64;
        let rho = cov / var;
        assert!((rho - 0.9).abs() < 0.02, "rho={rho}");
    }

    #[test]
    fn zero_sigma_yields_zero_deviation() {
        let mut fading = Shadowing::new(SigmaProfile::none(), 0.9, d(35.0));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..32 {
            assert_eq!(fading.next_deviation_db(rng.sample_standard_normal()), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "correlation")]
    fn correlation_of_one_is_rejected() {
        let _ = Shadowing::new(SigmaProfile::paper_hallway(), 1.0, d(10.0));
    }

    #[test]
    fn with_sigma_db_matches_profile_construction() {
        let profile = SigmaProfile::paper_hallway();
        let mut a = Shadowing::new(profile, 0.9, d(35.0));
        let mut b = Shadowing::with_sigma_db(profile.sigma_db(d(35.0)), 0.9);
        assert_eq!(a, b);
        let mut r1 = StdRng::seed_from_u64(11);
        let mut r2 = StdRng::seed_from_u64(11);
        for _ in 0..128 {
            assert_eq!(
                a.next_deviation_db(r1.sample_standard_normal()).to_bits(),
                b.next_deviation_db(r2.sample_standard_normal()).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "correlation")]
    fn with_sigma_db_rejects_bad_correlation() {
        let _ = Shadowing::with_sigma_db(1.8, -0.1);
    }
}
