//! Deterministic random-number streams.
//!
//! Every stochastic component of the simulator (channel fading, noise floor,
//! CSMA backoff, packet jitter, …) draws from its own named stream derived
//! from a single experiment seed. This gives two properties the experiment
//! harness relies on:
//!
//! 1. **Reproducibility** — the same seed regenerates the same 48k-config
//!    campaign bit-for-bit.
//! 2. **Variance isolation** — changing one parameter (say `NmaxTries`) does
//!    not perturb the random sequence seen by unrelated components, which is
//!    the discrete-event analogue of common random numbers in simulation
//!    methodology.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Identifies an independent random stream within one simulation.
///
/// Streams are derived by mixing the stream label into the experiment seed
/// with SplitMix64, so any two distinct labels yield statistically
/// independent `StdRng` instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamId {
    /// Slow-fading (shadowing) deviations of the channel.
    Fading,
    /// Noise-floor sampling at the receiver.
    Noise,
    /// Per-bit / per-packet delivery coin flips.
    Delivery,
    /// CSMA-CA backoff draws at the sender MAC.
    Backoff,
    /// Application traffic jitter.
    Traffic,
    /// Anything else; carries a caller-chosen discriminator.
    Custom(u64),
}

impl StreamId {
    fn label(self) -> u64 {
        match self {
            StreamId::Fading => 0x01,
            StreamId::Noise => 0x02,
            StreamId::Delivery => 0x03,
            StreamId::Backoff => 0x04,
            StreamId::Traffic => 0x05,
            StreamId::Custom(x) => 0x1000_0000_0000_0000 ^ x,
        }
    }
}

/// SplitMix64 step: adds the golden-ratio increment and applies the
/// finalizer — a high-quality 64-bit mixing function. Public because seed
/// derivation schemes across the workspace (per-stream seeds here,
/// per-configuration fast-mode seeds in the link simulator) chain it over
/// their identifying bits.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Factory for the named deterministic streams of one simulation run.
///
/// ```
/// use wsn_sim_engine::rng::{RngFactory, StreamId};
/// use rand::Rng;
///
/// let factory = RngFactory::new(42);
/// let mut a = factory.stream(StreamId::Backoff);
/// let mut b = factory.stream(StreamId::Backoff);
/// // Same seed + same stream => identical sequences.
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    seed: u64,
}

impl RngFactory {
    /// Creates a factory for the given experiment seed.
    pub fn new(seed: u64) -> Self {
        RngFactory { seed }
    }

    /// The experiment seed this factory derives streams from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Instantiates the RNG for `stream`.
    pub fn stream(&self, stream: StreamId) -> StdRng {
        let mixed = splitmix64(self.seed ^ splitmix64(stream.label()));
        StdRng::seed_from_u64(mixed)
    }

    /// Derives a sub-factory, e.g. one per simulated configuration, so each
    /// grid point gets independent streams while remaining reproducible.
    pub fn derive(&self, index: u64) -> RngFactory {
        RngFactory {
            seed: splitmix64(self.seed.wrapping_add(splitmix64(index))),
        }
    }
}

/// The fast-mode generator: xoshiro256++ seeded by a SplitMix64 chain.
///
/// `StdRng` (ChaCha12) is the golden path's generator — cryptographic
/// quality, but ~10 rounds of ARX per block. The fast engine does not need
/// unpredictability, only statistical quality and speed, which is exactly
/// the xoshiro256++ design point. Seeding expands one `u64` through
/// iterated [`splitmix64`] (the construction recommended by the xoshiro
/// authors), so low-entropy seeds still yield well-mixed states and the
/// all-zero state is unreachable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastRng {
    s: [u64; 4],
}

impl FastRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            z = splitmix64(z);
            *slot = z;
        }
        FastRng { s }
    }
}

impl rand::RngCore for FastRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.s = s;
        result
    }
}

/// A generator that also knows how to produce standard-normal variates.
///
/// This is the engine-mode seam at the sampling layer: the radio models
/// (shadowing, noise) are generic over `NormalSampler` instead of calling a
/// fixed transform, so the *generator type* selects the algorithm.
/// [`StdRng`] keeps the golden path's polar Box–Muller bit-for-bit, while
/// [`FastRng`] substitutes the Ziggurat method — both are exact samplers of
/// `N(0, 1)`, so swapping them changes the draw sequence but not the
/// distribution.
///
/// A variate is split into its random draws ([`draw_normal`]) and a
/// deterministic finish ([`finish_normal`]), so that a consumer that
/// [`DRAW_AHEAD`]s can take a block of variates' draws back to back and
/// finish them in a separate loop. The split never changes a bit: the
/// finish is the very expression the one-at-a-time sampler ends with.
///
/// [`draw_normal`]: Self::draw_normal
/// [`finish_normal`]: Self::finish_normal
/// [`DRAW_AHEAD`]: Self::DRAW_AHEAD
pub trait NormalSampler: Rng {
    /// What [`draw_normal`](Self::draw_normal) takes from the stream.
    type NormalDraw: Copy + Default;

    /// Whether a consumer should draw a block of variates ahead. Worth it
    /// only when the finish is a long serial chain that independent
    /// variates can overlap (polar: `ln`, then a division, then `sqrt`);
    /// not when the finish is free, so the generator pays for no buffer.
    const DRAW_AHEAD: bool;

    /// Takes one variate's random draws from the stream.
    fn draw_normal(&mut self) -> Self::NormalDraw;

    /// Turns one variate's draws into the standard-normal value.
    fn finish_normal(draw: Self::NormalDraw) -> f64;

    /// Draws one standard-normal variate.
    fn sample_standard_normal(&mut self) -> f64 {
        Self::finish_normal(self.draw_normal())
    }
}

impl NormalSampler for StdRng {
    type NormalDraw = PolarDraw;
    const DRAW_AHEAD: bool = true;

    fn draw_normal(&mut self) -> PolarDraw {
        polar_draw(self)
    }

    fn finish_normal(draw: PolarDraw) -> f64 {
        polar_finish(draw)
    }
}

impl NormalSampler for FastRng {
    /// The Ziggurat is cheap and mostly branch-free, so its draw is the
    /// finished variate.
    type NormalDraw = f64;
    const DRAW_AHEAD: bool = false;

    fn draw_normal(&mut self) -> f64 {
        standard_normal_ziggurat(self)
    }

    fn finish_normal(draw: f64) -> f64 {
        draw
    }
}

/// A generator constructible from a factory and a stream label — the
/// engine-mode seam at the *construction* layer, completing what
/// [`NormalSampler`] does at the sampling layer: code generic over
/// `R: FactoryStream` can build its named streams without knowing whether
/// it runs the golden (`StdRng`) or fast (`FastRng`) generator.
///
/// Both impls mix the label into the factory seed with the identical
/// SplitMix64 chain [`RngFactory::stream`] uses, so distinct labels stay
/// independent under either generator.
pub trait FactoryStream: NormalSampler + Sized {
    /// Instantiates this generator for `stream` of `factory`.
    fn from_factory(factory: &RngFactory, stream: StreamId) -> Self;
}

impl FactoryStream for StdRng {
    fn from_factory(factory: &RngFactory, stream: StreamId) -> Self {
        factory.stream(stream)
    }
}

impl FactoryStream for FastRng {
    fn from_factory(factory: &RngFactory, stream: StreamId) -> Self {
        FastRng::new(splitmix64(factory.seed ^ splitmix64(stream.label())))
    }
}

/// Marsaglia–Tsang Ziggurat tables for the standard normal, 128 layers.
///
/// Layer 0 is the base strip (its rectangle is widened to also cover the
/// `|x| > R` tail), layers 1–127 climb the density towards the peak.
/// `x[i]` is the layer's right edge, `f[i] = exp(-x[i]²/2)` its density,
/// and `ratio[i] = x[i-1]/x[i]` the quick-accept threshold (a sample drawn
/// uniformly across layer `i` that lands inside the next-narrower layer is
/// certainly under the curve).
struct ZigguratTables {
    x: [f64; 128],
    f: [f64; 128],
    ratio: [f64; 128],
}

/// Right edge of the bottom layer (the tail boundary).
const ZIG_R: f64 = 3.442_619_855_899;
/// Area of each of the 128 layers (the base strip's includes the tail).
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

fn ziggurat_tables() -> &'static ZigguratTables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<ZigguratTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let f_r = (-0.5 * ZIG_R * ZIG_R).exp();
        let mut x = [0.0f64; 128];
        let mut f = [0.0f64; 128];
        // Base strip: virtual width V/f(R) so that a uniform draw over it
        // covers both the rectangle [0, R] and the tail mass beyond R.
        x[0] = ZIG_V / f_r;
        f[0] = 1.0; // paired with layer 1's wedge top (the peak, f(0) = 1)
        x[127] = ZIG_R;
        f[127] = f_r;
        let mut edge = ZIG_R;
        for i in (1..=126).rev() {
            // Each layer has area V: x_i · (f(x_i) − f(x_{i+1})) = V.
            edge = (-2.0 * (ZIG_V / edge + (-0.5 * edge * edge).exp()).ln()).sqrt();
            x[i] = edge;
            f[i] = (-0.5 * edge * edge).exp();
        }
        let mut ratio = [0.0f64; 128];
        ratio[0] = ZIG_R / x[0];
        // Layer 1 is the peak layer; it has no narrower neighbour, so it
        // never quick-accepts and always takes the wedge test.
        ratio[1] = 0.0;
        for i in 2..128 {
            ratio[i] = x[i - 1] / x[i];
        }
        ZigguratTables { x, f, ratio }
    })
}

/// Uniform in `(0, 1]` — the `ln`-safe open-at-zero unit draw.
#[inline]
fn unit_open_zero<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Draws a standard-normal variate with the Ziggurat method (128 layers).
///
/// One `u64` suffices for ~98.8 % of draws: 7 bits pick the layer, the
/// remaining 53 form the position within it. The wedge and tail cases are
/// exact rejection steps, so the output distribution is exactly `N(0, 1)`
/// — the same distribution as [`standard_normal`], by a different (and
/// roughly 5× cheaper) route.
pub fn standard_normal_ziggurat<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    let tables = ziggurat_tables();
    loop {
        let bits = rng.next_u64();
        let layer = (bits & 127) as usize;
        // Signed uniform in [-1, 1): 53-bit mantissa, disjoint from the
        // 7 layer bits.
        let u = ((bits >> 11) as i64).wrapping_sub(1 << 52) as f64 * (1.0 / (1u64 << 52) as f64);
        if u.abs() < tables.ratio[layer] {
            return u * tables.x[layer];
        }
        if layer == 0 {
            // Tail beyond R: Marsaglia's exponential-rejection tail method.
            let sign = if u < 0.0 { -1.0 } else { 1.0 };
            loop {
                let e1 = -unit_open_zero(rng).ln() / ZIG_R;
                let e2 = -unit_open_zero(rng).ln();
                if e2 + e2 > e1 * e1 {
                    return sign * (ZIG_R + e1);
                }
            }
        }
        // Wedge: uniform height within the layer, accept under the curve.
        let x = u * tables.x[layer];
        let height =
            tables.f[layer] + unit_open_zero(rng) * (tables.f[layer - 1] - tables.f[layer]);
        if height < (-0.5 * x * x).exp() {
            return x;
        }
    }
}

/// The random half of one polar Box–Muller variate: the first coordinate
/// `u` of the accepted point and its squared radius `s`, `0 < s < 1`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PolarDraw {
    /// First coordinate of the accepted point, in `(-1, 1)`.
    pub u: f64,
    /// `u² + v²` of the accepted point, in `(0, 1)`.
    pub s: f64,
}

/// Draws points uniformly in the square `[-1, 1)²` until one falls inside
/// the unit disc (and off its centre).
pub fn polar_draw<R: Rng + ?Sized>(rng: &mut R) -> PolarDraw {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return PolarDraw { u, s };
        }
    }
}

/// Finishes a polar draw into its standard-normal value, `u·√(−2 ln s / s)`.
#[inline]
pub fn polar_finish(draw: PolarDraw) -> f64 {
    draw.u * (-2.0 * draw.s.ln() / draw.s).sqrt()
}

/// Draws a standard-normal variate using the Box–Muller transform.
///
/// Implemented here rather than pulling in `rand_distr`; the polar rejection
/// form is used for numerical robustness.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    polar_finish(polar_draw(rng))
}

/// Draws a normal variate with the given mean and standard deviation.
///
/// # Panics
///
/// Panics if `std_dev` is negative or not finite.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(
        std_dev.is_finite() && std_dev >= 0.0,
        "std_dev must be finite and non-negative, got {std_dev}"
    );
    mean + std_dev * standard_normal(rng)
}

/// Draws an exponential variate with the given mean (`1/λ`).
///
/// # Panics
///
/// Panics if `mean` is non-positive or not finite.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(
        mean.is_finite() && mean > 0.0,
        "exponential mean must be finite and positive, got {mean}"
    );
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_is_deterministic() {
        let f1 = RngFactory::new(7);
        let f2 = RngFactory::new(7);
        let xs: Vec<u64> = {
            let mut r = f1.stream(StreamId::Noise);
            (0..16).map(|_| r.gen()).collect()
        };
        let ys: Vec<u64> = {
            let mut r = f2.stream(StreamId::Noise);
            (0..16).map(|_| r.gen()).collect()
        };
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_streams_differ() {
        let f = RngFactory::new(7);
        let mut a = f.stream(StreamId::Noise);
        let mut b = f.stream(StreamId::Fading);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RngFactory::new(1).stream(StreamId::Delivery);
        let mut b = RngFactory::new(2).stream(StreamId::Delivery);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn derived_factories_are_deterministic_and_distinct() {
        let f = RngFactory::new(99);
        assert_eq!(f.derive(3), f.derive(3));
        assert_ne!(f.derive(3), f.derive(4));
        assert_ne!(f.derive(3).seed(), f.seed());
    }

    #[test]
    fn custom_streams_with_distinct_labels_differ() {
        let f = RngFactory::new(5);
        let mut a = f.stream(StreamId::Custom(10));
        let mut b = f.stream(StreamId::Custom(11));
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = RngFactory::new(123).stream(StreamId::Custom(0));
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut rng = RngFactory::new(321).stream(StreamId::Custom(1));
        let n = 20_000;
        let mean = (0..n).map(|_| exponential(&mut rng, 5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.25, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "std_dev")]
    fn negative_std_dev_panics() {
        let mut rng = RngFactory::new(0).stream(StreamId::Custom(9));
        let _ = normal(&mut rng, 0.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "exponential mean")]
    fn non_positive_exponential_mean_panics() {
        let mut rng = RngFactory::new(0).stream(StreamId::Custom(9));
        let _ = exponential(&mut rng, 0.0);
    }

    #[test]
    fn fast_rng_is_deterministic_and_seed_sensitive() {
        let mut a = FastRng::new(42);
        let mut b = FastRng::new(42);
        let mut c = FastRng::new(43);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn fast_rng_unit_floats_are_uniform_enough() {
        let mut rng = FastRng::new(7);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean={mean}");
    }

    #[test]
    fn ziggurat_moments_match_standard_normal() {
        let mut rng = FastRng::new(0xFA57);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal_ziggurat(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let skew =
            samples.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / (n as f64 * var.powf(1.5));
        let kurt = samples.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / (n as f64 * var * var);
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
        assert!(skew.abs() < 0.03, "skew={skew}");
        assert!((kurt - 3.0).abs() < 0.1, "kurtosis={kurt}");
    }

    #[test]
    fn ziggurat_tail_mass_is_correct() {
        // P(|X| > R) with R = 3.4426… is ≈ 5.76e-4; the tail path must
        // produce it (a broken tail would show up as ~0 or ~2×).
        let mut rng = FastRng::new(0x7A11);
        let n = 2_000_000u64;
        let beyond = (0..n)
            .filter(|_| standard_normal_ziggurat(&mut rng).abs() > 3.442_619_855_899)
            .count() as f64;
        let p = beyond / n as f64;
        assert!(
            (4.0e-4..8.0e-4).contains(&p),
            "tail probability {p:.2e} (expected ≈ 5.8e-4)"
        );
    }

    #[test]
    fn normal_sampler_trait_selects_by_generator() {
        // StdRng keeps Box–Muller bit-for-bit: the trait method and the
        // free function must agree draw-for-draw on identical streams.
        let mut via_trait = RngFactory::new(5).stream(StreamId::Fading);
        let mut via_fn = RngFactory::new(5).stream(StreamId::Fading);
        for _ in 0..64 {
            assert_eq!(
                via_trait.sample_standard_normal().to_bits(),
                standard_normal(&mut via_fn).to_bits()
            );
        }
    }
}
