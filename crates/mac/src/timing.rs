//! TinyOS 2.1 / CC2420 MAC timing.
//!
//! These are the constants the paper lists when deriving its service-time
//! model (Sec. V-B):
//!
//! * `T_TR` — radio turnaround time: **0.224 ms**,
//! * `T_BO` — initial backoff, average **5.28 ms** (uniform over 1..=32
//!   backoff units of 320 µs — mean 16.5 × 320 µs = 5.28 ms),
//! * `T_ACK` — time until the software ACK is received: **≈ 1.96 ms**,
//! * `T_waitACK` — software ACK wait timeout: **8.192 ms**,
//! * `T_SPI` — one-time SPI bus loading of the frame. The paper does not
//!   publish a formula; we use an affine model in the MPDU length,
//!   `T_SPI = 1.5 ms + 45 µs/byte`, calibrated so the reproduced service
//!   times match the paper's Table II (e.g. 110-byte payload at SNR 20 dB,
//!   `NmaxTries = 3` → ≈ 21.4 ms).

use rand::Rng;

use wsn_params::config::StackConfig;
use wsn_params::frame::FrameGeometry;
use wsn_params::types::PayloadSize;
use wsn_sim_engine::time::SimDuration;

/// Radio turnaround time `T_TR` (RX→TX switch), 224 µs.
pub const TURNAROUND: SimDuration = SimDuration::from_micros(224);

/// One CSMA backoff unit (20 symbols at 16 µs), 320 µs.
pub const BACKOFF_UNIT: SimDuration = SimDuration::from_micros(320);

/// Initial backoff is uniform over `1..=INITIAL_BACKOFF_MAX_UNITS` units.
pub const INITIAL_BACKOFF_MAX_UNITS: u32 = 32;

/// Mean initial backoff `T_BO` = 16.5 × 320 µs = 5.28 ms.
pub const MEAN_INITIAL_BACKOFF: SimDuration = SimDuration::from_micros(5_280);

/// One clear-channel assessment (8 symbols of listening), 128 µs.
pub const CCA_TIME: SimDuration = SimDuration::from_micros(128);

/// Congestion backoff (after busy CCA) is uniform over `1..=8` units.
pub const CONGESTION_BACKOFF_MAX_UNITS: u32 = 8;

/// Time from end of data frame until the software ACK has been received,
/// `T_ACK` ≈ 1.96 ms (measured by the paper's authors).
pub const ACK_RECEIVE: SimDuration = SimDuration::from_micros(1_960);

/// Software ACK wait timeout `T_waitACK` = 8.192 ms.
pub const ACK_TIMEOUT: SimDuration = SimDuration::from_micros(8_192);

/// Fixed part of the SPI frame-loading time, µs.
pub const SPI_BASE_US: u64 = 1_500;

/// Per-MPDU-byte part of the SPI frame-loading time, µs.
pub const SPI_PER_BYTE_US: u64 = 45;

/// SPI bus loading time `T_SPI` for a frame carrying `payload`.
///
/// ```
/// use wsn_params::types::PayloadSize;
/// use wsn_mac::timing::spi_load;
///
/// // 110-byte payload → 123-byte MPDU → 1.5 ms + 123·45 µs ≈ 7.0 ms.
/// let t = spi_load(PayloadSize::new(110)?);
/// assert_eq!(t.as_micros(), 1_500 + 123 * 45);
/// # Ok::<(), wsn_params::error::InvalidParam>(())
/// ```
pub fn spi_load(payload: PayloadSize) -> SimDuration {
    let mpdu = FrameGeometry::for_payload(payload).mpdu_bytes() as u64;
    SimDuration::from_micros(SPI_BASE_US + SPI_PER_BYTE_US * mpdu)
}

/// On-air transmission time `T_frame` of the data frame for `payload`.
pub fn frame_time(payload: PayloadSize) -> SimDuration {
    SimDuration::from_micros(FrameGeometry::for_payload(payload).air_time_us() as u64)
}

/// Draws an initial backoff: uniform over 1..=32 backoff units.
pub fn draw_initial_backoff<R: Rng + ?Sized>(rng: &mut R) -> SimDuration {
    BACKOFF_UNIT * rng.gen_range(1..=INITIAL_BACKOFF_MAX_UNITS) as u64
}

/// Draws a congestion backoff: uniform over 1..=8 backoff units.
pub fn draw_congestion_backoff<R: Rng + ?Sized>(rng: &mut R) -> SimDuration {
    BACKOFF_UNIT * rng.gen_range(1..=CONGESTION_BACKOFF_MAX_UNITS) as u64
}

/// Mean and variance of a random duration, in µs / µs².
///
/// The analytic engine composes per-attempt service times from these
/// instead of drawing them; keeping the moments next to the draw
/// functions pins both to the same distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingMoments {
    /// Mean, µs.
    pub mean_us: f64,
    /// Variance, µs².
    pub var_us2: f64,
}

impl TimingMoments {
    /// A deterministic duration: mean `us`, zero variance.
    pub fn exact(us: f64) -> TimingMoments {
        TimingMoments {
            mean_us: us,
            var_us2: 0.0,
        }
    }

    /// Second raw moment `E[T²]`, µs².
    pub fn second_moment_us2(self) -> f64 {
        self.var_us2 + self.mean_us * self.mean_us
    }
}

/// Moments of a backoff uniform over `1..=max_units` units of 320 µs —
/// the distribution [`draw_initial_backoff`] / [`draw_congestion_backoff`]
/// sample from.
///
/// For a discrete uniform on `{1, …, N}` scaled by `u` = 320 µs:
/// mean `u·(N+1)/2`, variance `u²·(N²−1)/12`.
pub fn uniform_backoff_moments(max_units: u32) -> TimingMoments {
    let unit = BACKOFF_UNIT.as_micros() as f64;
    let n = max_units as f64;
    TimingMoments {
        mean_us: unit * (n + 1.0) / 2.0,
        var_us2: unit * unit * (n * n - 1.0) / 12.0,
    }
}

/// Moments of the initial backoff (uniform over 1..=32 units; mean 5.28 ms).
pub fn initial_backoff_moments() -> TimingMoments {
    uniform_backoff_moments(INITIAL_BACKOFF_MAX_UNITS)
}

/// Moments of the congestion backoff (uniform over 1..=8 units).
pub fn congestion_backoff_moments() -> TimingMoments {
    uniform_backoff_moments(CONGESTION_BACKOFF_MAX_UNITS)
}

/// The retry delay `Dretry` of a configuration as a simulation duration.
pub fn retry_delay(config: &StackConfig) -> SimDuration {
    SimDuration::from_millis(config.retry_delay.millis() as u64)
}

/// The packet inter-arrival time `Tpkt` of a configuration as a duration.
pub fn packet_interval(config: &StackConfig) -> SimDuration {
    SimDuration::from_millis(config.packet_interval.millis() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_constants() {
        assert_eq!(TURNAROUND.as_micros(), 224);
        assert_eq!(MEAN_INITIAL_BACKOFF.as_micros(), 5_280);
        assert_eq!(ACK_RECEIVE.as_micros(), 1_960);
        assert_eq!(ACK_TIMEOUT.as_micros(), 8_192);
    }

    #[test]
    fn initial_backoff_mean_is_5_28ms() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000;
        let total: u64 = (0..n)
            .map(|_| draw_initial_backoff(&mut rng).as_micros())
            .sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 5_280.0).abs() < 30.0, "mean={mean}");
    }

    #[test]
    fn initial_backoff_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let b = draw_initial_backoff(&mut rng).as_micros();
            assert!((320..=32 * 320).contains(&b));
            assert_eq!(b % 320, 0);
        }
    }

    #[test]
    fn congestion_backoff_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let b = draw_congestion_backoff(&mut rng).as_micros();
            assert!((320..=8 * 320).contains(&b));
        }
    }

    #[test]
    fn frame_time_matches_250kbps() {
        let t = frame_time(PayloadSize::new(110).unwrap());
        // (6 + 11 + 110 + 2) bytes × 32 µs = 4.128 ms.
        assert_eq!(t.as_micros(), 4_128);
    }

    #[test]
    fn spi_load_grows_with_payload() {
        let small = spi_load(PayloadSize::new(5).unwrap());
        let large = spi_load(PayloadSize::new(110).unwrap());
        assert!(large > small);
        assert_eq!(small.as_micros(), 1_500 + 18 * 45);
    }

    #[test]
    fn backoff_moments_match_empirical_draws() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let draws: Vec<f64> = (0..n)
            .map(|_| draw_initial_backoff(&mut rng).as_micros() as f64)
            .collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n as f64;
        let m = initial_backoff_moments();
        assert!(
            (mean - m.mean_us).abs() / m.mean_us < 0.01,
            "mean={mean} vs {}",
            m.mean_us
        );
        assert!(
            (var - m.var_us2).abs() / m.var_us2 < 0.02,
            "var={var} vs {}",
            m.var_us2
        );
    }

    #[test]
    fn moment_helpers_pin_paper_values() {
        let init = initial_backoff_moments();
        assert_eq!(init.mean_us, 5_280.0); // T_BO = 5.28 ms
        let cong = congestion_backoff_moments();
        assert_eq!(cong.mean_us, 320.0 * 4.5);
        let exact = TimingMoments::exact(224.0);
        assert_eq!(exact.var_us2, 0.0);
        assert_eq!(exact.second_moment_us2(), 224.0 * 224.0);
    }

    #[test]
    fn config_durations() {
        let cfg = StackConfig::default(); // Dretry=30ms, Tpkt=30ms
        assert_eq!(retry_delay(&cfg).as_millis(), 30);
        assert_eq!(packet_interval(&cfg).as_millis(), 30);
    }
}
