//! Numeric helpers for the closed-form evaluator: an `erf`
//! approximation (libm is unavailable in `std` Rust), Gaussian quadrature
//! nodes, and quantiles of normal mixtures.

use std::f64::consts::SQRT_2;

/// Error function, Abramowitz & Stegun 7.1.26 (|error| < 1.5 × 10⁻⁷ —
/// three orders of magnitude below the analytic-vs-sim error budget).
///
/// For `|x| ≥ 6` the formula's correction term is below half an ulp of
/// 1.0, so it rounds to exactly `±1.0`; that tail returns the sign at once
/// instead of paying for an `exp` (mixture quantiles evaluate it for every
/// component many σ from the bisection point). Bit-identical to the full
/// formula, pinned by a test.
pub fn erf(x: f64) -> f64 {
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    if x >= 6.0 {
        return sign;
    }
    let t = 1.0 / (1.0 + P * x);
    let poly = ((((A5 * t + A4) * t + A3) * t + A2) * t + A1) * t;
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal CDF `Φ(z)`.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / SQRT_2))
}

/// Quadrature nodes `(z, w)` for `E[f(Z)]`, `Z ~ N(0, 1)`: composite
/// Simpson over `z ∈ [−4, 4]` with the Gaussian density folded into the
/// weights, renormalized so `Σw = 1` (the ±4σ truncation carries
/// 6 × 10⁻⁵ of mass; renormalizing removes the bias).
///
/// `points` is rounded up to the next odd count (Simpson needs an even
/// number of intervals).
pub fn std_normal_nodes(points: usize) -> Vec<(f64, f64)> {
    let n = if points.is_multiple_of(2) {
        points + 1
    } else {
        points.max(3)
    };
    let h = 8.0 / (n - 1) as f64;
    let mut nodes = Vec::with_capacity(n);
    let mut total = 0.0;
    for i in 0..n {
        let z = -4.0 + i as f64 * h;
        let simpson = if i == 0 || i == n - 1 {
            1.0
        } else if i % 2 == 1 {
            4.0
        } else {
            2.0
        };
        let density = (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let w = simpson * h / 3.0 * density;
        total += w;
        nodes.push((z, w));
    }
    for node in &mut nodes {
        node.1 /= total;
    }
    nodes
}

/// One component of a normal mixture (a degenerate `sd == 0` component is
/// a point mass).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixtureComponent {
    /// Component weight (the caller normalizes the mixture).
    pub weight: f64,
    /// Component mean.
    pub mean: f64,
    /// Component standard deviation (0 = point mass).
    pub sd: f64,
}

/// CDF of a normal mixture at `t` (weights assumed to sum to 1).
pub fn mixture_cdf(components: &[MixtureComponent], t: f64) -> f64 {
    let mut acc = 0.0;
    for c in components {
        if c.weight == 0.0 {
            continue;
        }
        acc += if c.sd == 0.0 {
            if t >= c.mean {
                c.weight
            } else {
                0.0
            }
        } else {
            c.weight * normal_cdf((t - c.mean) / c.sd)
        };
    }
    acc
}

/// `q`-quantile of a normal mixture by bisection over `[lo, hi]`.
pub fn mixture_quantile(components: &[MixtureComponent], q: f64, lo: f64, hi: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let (mut lo, mut hi) = (lo, hi);
    for _ in 0..64 {
        if hi - lo < 1e-9 * hi.abs().max(1.0) {
            break;
        }
        let mid = 0.5 * (lo + hi);
        if mixture_cdf(components, mid) < q {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The A&S 7.1.26 formula exactly as `erf` evaluates it, minus the
    /// `|x| ≥ 6` shortcut: the reference the shortcut must reproduce.
    fn erf_formula(x: f64) -> f64 {
        const A1: f64 = 0.254829592;
        const A2: f64 = -0.284496736;
        const A3: f64 = 1.421413741;
        const A4: f64 = -1.453152027;
        const A5: f64 = 1.061405429;
        const P: f64 = 0.3275911;
        let sign = if x < 0.0 { -1.0 } else { 1.0 };
        let x = x.abs();
        let t = 1.0 / (1.0 + P * x);
        let poly = ((((A5 * t + A4) * t + A3) * t + A2) * t + A1) * t;
        sign * (1.0 - poly * (-x * x).exp())
    }

    fn assert_same_bits(x: f64) {
        for x in [x, -x] {
            assert_eq!(erf(x).to_bits(), erf_formula(x).to_bits(), "erf({x:e})");
        }
    }

    #[test]
    fn erf_tail_shortcut_is_bit_identical_to_the_formula() {
        // A dense sweep of [0, 64], which also catches a cut-off moved
        // below the point where the formula reaches ±1.0 …
        for i in 0..=640_000u32 {
            assert_same_bits(f64::from(i) * 1e-4);
        }
        // … every one of the 10 M doubles just above the cut-off …
        let mut x = 6.0f64;
        for _ in 0..10_000_000 {
            assert_same_bits(x);
            x = f64::from_bits(x.to_bits() + 1);
        }
        // … and the extremes. NaN stays NaN.
        for x in [64.0, 1e10, 1e300, f64::MAX, f64::INFINITY] {
            assert_same_bits(x);
        }
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
        assert!(erf(f64::NAN).is_nan());
        assert!(erf_formula(f64::NAN).is_nan());
    }

    #[test]
    fn erf_matches_reference_values() {
        // (x, erf(x)) reference pairs.
        for (x, want) in [
            (0.0, 0.0),
            (0.5, 0.5204998778),
            (1.0, 0.8427007929),
            (2.0, 0.9953222650),
            (-1.0, -0.8427007929),
        ] {
            assert!(
                (erf(x) - want).abs() < 2e-7,
                "erf({x}) = {} want {want}",
                erf(x)
            );
        }
    }

    #[test]
    fn nodes_reproduce_gaussian_moments() {
        let nodes = std_normal_nodes(17);
        let m0: f64 = nodes.iter().map(|(_, w)| w).sum();
        let m1: f64 = nodes.iter().map(|(z, w)| w * z).sum();
        let m2: f64 = nodes.iter().map(|(z, w)| w * z * z).sum();
        assert!((m0 - 1.0).abs() < 1e-12);
        assert!(m1.abs() < 1e-12);
        // The ±4σ window clips ~1e-3 of z²-weighted mass; bounded
        // integrands (the PER curve) see only the 6e-5 tail.
        assert!((m2 - 1.0).abs() < 2e-3, "second moment {m2}");
    }

    #[test]
    fn nodes_integrate_smooth_functionals() {
        // E[e^{aZ}] = e^{a²/2}, the lognormal identity the PER curve hits.
        let nodes = std_normal_nodes(17);
        for a in [0.25, 0.5, 1.0] {
            let got: f64 = nodes.iter().map(|(z, w)| w * (a * z).exp()).sum();
            let want = (a * a / 2.0).exp();
            // e^z grows through the ±4σ clip, so the tolerance reflects
            // truncation, not Simpson error.
            assert!((got - want).abs() / want < 5e-3, "a={a}: {got} vs {want}");
        }
    }

    #[test]
    fn single_normal_quantiles_invert_the_cdf() {
        let comps = [MixtureComponent {
            weight: 1.0,
            mean: 10.0,
            sd: 2.0,
        }];
        let p50 = mixture_quantile(&comps, 0.5, 0.0, 100.0);
        let p95 = mixture_quantile(&comps, 0.95, 0.0, 100.0);
        assert!((p50 - 10.0).abs() < 1e-6);
        assert!((p95 - (10.0 + 1.6448536 * 2.0)).abs() < 1e-4, "p95={p95}");
    }

    #[test]
    fn point_mass_mixture_quantiles_are_exact() {
        let comps = [
            MixtureComponent {
                weight: 0.8,
                mean: 5.0,
                sd: 0.0,
            },
            MixtureComponent {
                weight: 0.2,
                mean: 20.0,
                sd: 0.0,
            },
        ];
        assert!((mixture_quantile(&comps, 0.5, 0.0, 30.0) - 5.0).abs() < 1e-6);
        assert!((mixture_quantile(&comps, 0.9, 0.0, 30.0) - 20.0).abs() < 1e-6);
    }
}
