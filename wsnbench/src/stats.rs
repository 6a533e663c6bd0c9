//! Exact sample statistics, the sweep's metric digest, the seeded input
//! generator and the process's peak resident set.

use wsn_link_sim::metrics::LinkMetrics;

/// Raw samples of one timing, kept whole so quantiles are exact. Values
/// are stored as `f32` (24-bit mantissa: 0.1 ns at 1 ms), halving the
/// buffer that the peak-RSS figure has to carry.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f32>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set with room for `n` values.
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            values: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// An empty sample set whose room for `n` values is already
    /// resident, so recording up to `n` samples leaves the process's
    /// resident set unchanged however many arrive.
    pub fn resident(n: usize) -> Self {
        let mut values = vec![0.0f32; n];
        // A zeroed allocation may be mapped lazily: write to every page.
        for v in values.iter_mut().step_by(1024) {
            *v = std::hint::black_box(0.0);
        }
        values.clear();
        Samples {
            values,
            sorted: true,
        }
    }

    /// Records one sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value as f32);
        self.sorted = false;
    }

    /// How many samples were recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The samples, in recording order until a quantile sorts them.
    pub fn as_slice(&self) -> &[f32] {
        &self.values
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The exact `q` quantile (`0 ≤ q ≤ 1`) by linear interpolation
    /// between the two closest ranks; NaN when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        if !self.sorted {
            self.values.sort_by(f32::total_cmp);
            self.sorted = true;
        }
        let rank = q.clamp(0.0, 1.0) * (self.values.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        let (lo, hi) = (f64::from(self.values[lo]), f64::from(self.values[hi]));
        lo + (hi - lo) * frac
    }

    /// The exact median.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// The arithmetic mean; NaN when empty.
    pub fn mean(&self) -> f64 {
        self.values.iter().map(|&v| f64::from(v)).sum::<f64>() / self.values.len() as f64
    }
}

/// Operations completed per fixed-width time window since a start
/// instant. The median window rate is the run's throughput: a stall of
/// the host moves a few windows, not the median.
#[derive(Debug, Clone)]
pub struct Windows {
    start: std::time::Instant,
    width_s: f64,
    counts: Vec<u32>,
}

impl Windows {
    /// Windows of `width_s` seconds from now, with room for `seconds`.
    pub fn start(width_s: f64, seconds: f64) -> Self {
        Windows {
            start: std::time::Instant::now(),
            width_s,
            counts: Vec::with_capacity((seconds / width_s) as usize + 2),
        }
    }

    /// Counts one completed operation at the current instant.
    pub fn tick(&mut self) {
        let w = (self.start.elapsed().as_secs_f64() / self.width_s) as usize;
        if self.counts.len() <= w {
            self.counts.resize(w + 1, 0);
        }
        self.counts[w] += 1;
    }

    /// Median operations per second over the windows completed within
    /// `elapsed` of the start (the trailing partial window is left out);
    /// NaN with none complete.
    pub fn median_rate(&self, elapsed: std::time::Duration) -> f64 {
        let complete = (elapsed.as_secs_f64() / self.width_s) as usize;
        let mut rates = Samples::with_capacity(complete);
        for &c in self.counts.iter().take(complete) {
            rates.push(f64::from(c) / self.width_s);
        }
        // Windows after the last operation are complete and empty.
        for _ in self.counts.len()..complete {
            rates.push(0.0);
        }
        rates.median()
    }
}

/// FNV-1a over the bit patterns of every field of a [`LinkMetrics`]:
/// equal digests mean bit-identical metrics (up to hash collisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// The running value.
    pub fn value(self) -> u64 {
        self.0
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one configuration's metrics into the digest.
    pub fn fold(&mut self, m: &LinkMetrics) {
        // Exhaustive destructuring: a field added to `LinkMetrics` fails
        // to compile here instead of silently escaping the check.
        let LinkMetrics {
            duration_s,
            generated,
            queue_dropped,
            radio_lost,
            delivered,
            acked,
            residual,
            attempts,
            attempts_unacked,
            duplicates,
            mean_tries,
            goodput_bps,
            offered_bps,
            delay_mean_ms,
            delay_p50_ms,
            delay_p95_ms,
            delay_p99_ms,
            service_mean_ms,
            queueing_mean_ms,
            u_eng_uj_per_bit,
            total_energy_uj_per_bit,
            energy,
            plr_queue,
            plr_radio,
            per,
            mean_snr_db,
            mean_rssi_dbm,
            utilization,
        } = m;
        for w in [
            *generated,
            *queue_dropped,
            *radio_lost,
            *delivered,
            *acked,
            *residual,
            *attempts,
            *attempts_unacked,
            *duplicates,
        ] {
            self.word(w);
        }
        for x in [
            duration_s,
            mean_tries,
            goodput_bps,
            offered_bps,
            delay_mean_ms,
            delay_p50_ms,
            delay_p95_ms,
            delay_p99_ms,
            service_mean_ms,
            queueing_mean_ms,
            u_eng_uj_per_bit,
            total_energy_uj_per_bit,
            &energy.tx_j,
            &energy.rx_j,
            &energy.idle_j,
            plr_queue,
            plr_radio,
            per,
            mean_snr_db,
            mean_rssi_dbm,
            utilization,
        ] {
            self.word(x.to_bits());
        }
    }
}

/// splitmix64: the benchmark's only source of pseudo-randomness, so every
/// input is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed` and a per-stream `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The splitmix64 finalizer — a bijection on `u64`, so distinct inputs
/// always give distinct outputs.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_and_interpolated() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.quantile(0.25), 2.0);
        assert_eq!(s.mean(), 3.0);
        s.push(6.0);
        // Even count: halfway between the 3rd and 4th values.
        assert_eq!(s.median(), 3.5);
        assert!((s.quantile(0.9) - 5.5).abs() < 1e-12);
        assert!(Samples::default().median().is_nan());
    }

    #[test]
    fn window_rates_are_medians_over_complete_windows() {
        use std::time::Duration;
        // 100 s windows: the ticks below surely land in the first one.
        let mut w = Windows::start(100.0, 1000.0);
        for _ in 0..5 {
            w.tick();
        }
        // Two complete windows, 5 ops then none: the median of two is
        // their mean, 0.025 ops/s; the partial third window is left out.
        let rate = w.median_rate(Duration::from_secs(250));
        assert!((rate - 0.025).abs() < 1e-9, "{rate}");
        // Three complete windows: 5, 0, 0.
        assert_eq!(w.median_rate(Duration::from_secs(300)), 0.0);
        assert!(w.median_rate(Duration::from_secs(99)).is_nan());
    }

    #[test]
    fn resident_samples_start_empty() {
        let mut s = Samples::resident(5000);
        assert!(s.is_empty());
        s.push(2.5);
        assert_eq!(s.median(), 2.5);
    }

    #[test]
    fn one_sample_is_every_quantile() {
        let mut s = Samples::default();
        s.push(7.5);
        assert_eq!(s.quantile(0.01), 7.5);
        assert_eq!(s.quantile(0.99), 7.5);
    }

    fn metrics() -> LinkMetrics {
        use wsn_link_sim::simulation::{LinkSimulation, SimOptions};
        use wsn_params::config::StackConfig;
        LinkSimulation::new(StackConfig::default(), SimOptions::quick(40))
            .run()
            .metrics()
            .clone()
    }

    #[test]
    fn digest_depends_on_every_bit_and_on_order() {
        let a = metrics();
        let mut b = a.clone();
        b.delay_mean_ms = f64::from_bits(a.delay_mean_ms.to_bits() ^ 1);
        let digest = |ms: &[&LinkMetrics]| {
            let mut d = Digest::default();
            for m in ms {
                d.fold(m);
            }
            d.value()
        };
        assert_eq!(digest(&[&a, &b]), digest(&[&a, &b]));
        assert_ne!(digest(&[&a]), digest(&[&b]));
        assert_ne!(digest(&[&a, &b]), digest(&[&b, &a]));
        assert_ne!(digest(&[]), digest(&[&a]));
    }

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 2), draw(1, 2));
        assert_ne!(draw(1, 2), draw(2, 2));
        assert_ne!(draw(1, 2), draw(1, 3));
        let mut r = Rng::new(9, 0);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
