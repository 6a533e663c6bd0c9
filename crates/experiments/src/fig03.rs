//! Fig. 3 — RSSI attenuation with distance and the log-normal fit.
//!
//! The paper fits its hallway path loss with exponent `n = 2.19` and
//! shadowing deviation `σ = 3.2 dB`. This experiment samples the synthetic
//! channel at every grid distance, then **re-fits** the log-distance model
//! with ordinary least squares, confirming the channel reproduces the
//! published statistics.

use rand::SeedableRng;

use wsn_models::fit::linear_fit;
use wsn_params::types::{Distance, PowerLevel};
use wsn_radio::channel::{Channel, ChannelConfig};

use crate::campaign::Scale;
use crate::report::{fnum, Report, Table};
use crate::sweep::{mean_of, std_of};

/// Distances sampled for the path-loss fit, meters.
pub const FIT_DISTANCES: [f64; 7] = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0];

/// Runs the Fig. 3 reproduction.
pub fn run(scale: Scale) -> Report {
    let samples_per_distance = match scale {
        Scale::Bench => 500usize,
        Scale::Quick => 2_000,
        Scale::Full => 20_000,
    };
    let power = PowerLevel::MAX; // 0 dBm, so RSSI = −PL(d) + fading

    let mut table = Table::new(vec!["distance_m", "mean_rssi_dbm", "rssi_std_db"]);
    let mut xs = Vec::new(); // 10 · log10(d)
    let mut ys = Vec::new(); // mean RSSI
    let mut pooled_residual_samples: Vec<f64> = Vec::new();

    for (i, &d) in FIT_DISTANCES.iter().enumerate() {
        let distance = Distance::from_meters(d).expect("positive distance");
        let mut channel = Channel::new(
            ChannelConfig::paper_hallway(),
            power,
            distance,
            rand::rngs::StdRng::seed_from_u64(100 + i as u64),
            rand::rngs::StdRng::seed_from_u64(200 + i as u64),
        );
        let rssi: Vec<f64> = (0..samples_per_distance)
            .map(|_| channel.observe().rssi_dbm)
            .collect();
        let mean = mean_of(rssi.iter().copied());
        let std = std_of(&rssi);
        table.push_row(vec![fnum(d), fnum(mean), fnum(std)]);
        xs.push(10.0 * d.log10());
        ys.push(mean);
        pooled_residual_samples.extend(rssi.iter().map(|r| r - mean));
    }

    let fit = linear_fit(&xs, &ys).expect("seven distinct distances");
    let fitted_n = -fit.slope;
    let shadowing_sigma = std_of(&pooled_residual_samples);

    let mut fit_table = Table::new(vec!["quantity", "paper", "reproduced"]);
    fit_table.push_row(vec![
        "path-loss exponent n".to_string(),
        "2.19".to_string(),
        fnum(fitted_n),
    ]);
    fit_table.push_row(vec![
        "shadowing sigma (dB)".to_string(),
        "3.2 (pooled)".to_string(),
        fnum(shadowing_sigma),
    ]);
    fit_table.push_row(vec![
        "fit R^2".to_string(),
        "(log-normal fits well)".to_string(),
        fnum(fit.r_squared),
    ]);

    let mut report = Report::new(
        "fig03",
        "Fig. 3: log-normal path loss (n = 2.19, sigma = 3.2 dB)",
    );
    report.push(
        "Mean RSSI vs distance at Ptx = 31 (0 dBm)",
        table,
        vec!["RSSI falls linearly in 10·log10(d), matching the log-distance model.".into()],
    );
    report.push(
        "OLS re-fit of the path-loss model",
        fit_table,
        vec![format!(
            "reproduced n = {:.2} vs paper 2.19; per-sample deviation reflects the AR(1) shadowing profile",
            fitted_n
        )],
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refit_recovers_the_planted_exponent() {
        let report = run(Scale::Quick);
        let fit_rows = &report.sections[1].table.rows;
        let n: f64 = fit_rows[0][2].parse().unwrap();
        assert!((n - 2.19).abs() < 0.15, "n={n}");
        let r2: f64 = fit_rows[2][2].parse().unwrap();
        assert!(r2 > 0.98, "r2={r2}");
    }

    #[test]
    fn rssi_decreases_with_distance() {
        let report = run(Scale::Quick);
        let rows = &report.sections[0].table.rows;
        let means: Vec<f64> = rows.iter().map(|r| r[1].parse().unwrap()).collect();
        for pair in means.windows(2) {
            assert!(pair[0] > pair[1], "RSSI not monotone: {means:?}");
        }
    }
}
