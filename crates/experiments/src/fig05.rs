//! Fig. 5 — the SNR distribution under the real (sampled) noise floor
//! versus the constant −95 dBm assumption.
//!
//! The paper analysed ~24 million noise samples and shows that assuming a
//! constant floor shifts and narrows the SNR distribution. We reproduce the
//! comparison by histogramming the SNR of one operating point under both
//! noise models.

use rand::SeedableRng;

use wsn_params::types::{Distance, PowerLevel};
use wsn_radio::channel::{Channel, ChannelConfig};
use wsn_radio::noise::NoiseModel;

use crate::campaign::Scale;
use crate::report::{fnum, Report, Table};
use crate::sweep::{mean_of, std_of};

fn snr_samples(channel_cfg: ChannelConfig, n: usize, seed: u64) -> Vec<f64> {
    let mut channel = Channel::new(
        channel_cfg,
        PowerLevel::new(19).expect("valid"),
        Distance::from_meters(30.0).expect("valid"),
        rand::rngs::StdRng::seed_from_u64(seed),
        rand::rngs::StdRng::seed_from_u64(seed ^ 0xF00D),
    );
    (0..n).map(|_| channel.observe().snr_db).collect()
}

fn histogram(samples: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<f64> {
    let mut counts = vec![0usize; bins];
    for &s in samples {
        let idx = (((s - lo) / (hi - lo)) * bins as f64).floor();
        let idx = idx.clamp(0.0, bins as f64 - 1.0) as usize;
        counts[idx] += 1;
    }
    counts
        .into_iter()
        .map(|c| c as f64 / samples.len() as f64)
        .collect()
}

/// Runs the Fig. 5 reproduction.
pub fn run(scale: Scale) -> Report {
    let n = match scale {
        Scale::Bench => 10_000usize,
        Scale::Quick => 50_000,
        Scale::Full => 1_000_000,
    };

    let real = snr_samples(ChannelConfig::paper_hallway(), n, 7);
    let mut const_cfg = ChannelConfig::paper_hallway();
    const_cfg.noise = NoiseModel::constant_default();
    let constant = snr_samples(const_cfg, n, 7);

    let lo = 10.0;
    let hi = 30.0;
    let bins = 20;
    let h_real = histogram(&real, lo, hi, bins);
    let h_const = histogram(&constant, lo, hi, bins);

    let mut table = Table::new(vec!["snr_bin_db", "real_noise_frac", "const_noise_frac"]);
    for b in 0..bins {
        let left = lo + (hi - lo) * b as f64 / bins as f64;
        table.push_row(vec![
            format!("{:.0}-{:.0}", left, left + 1.0),
            fnum(h_real[b]),
            fnum(h_const[b]),
        ]);
    }

    let mut summary = Table::new(vec!["noise model", "mean_snr_db", "snr_std_db"]);
    summary.push_row(vec![
        "sampled (mixture)".to_string(),
        fnum(mean_of(real.iter().copied())),
        fnum(std_of(&real)),
    ]);
    summary.push_row(vec![
        "constant -95 dBm".to_string(),
        fnum(mean_of(constant.iter().copied())),
        fnum(std_of(&constant)),
    ]);

    let mut report = Report::new(
        "fig05",
        "Fig. 5: real SNR distribution vs the constant-noise assumption",
    );
    report.push(
        "SNR histogram (Ptx = 19 at 30 m)",
        table,
        vec![
            "The interference tail of the real floor widens and left-shifts the SNR distribution."
                .into(),
        ],
    );
    report.push("Distribution summary", summary, vec![]);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_noise_widens_the_snr_distribution() {
        let report = run(Scale::Quick);
        let rows = &report.sections[1].table.rows;
        let real_std: f64 = rows[0][2].parse().unwrap();
        let const_std: f64 = rows[1][2].parse().unwrap();
        assert!(real_std > const_std, "{real_std} !> {const_std}");
    }

    #[test]
    fn means_are_near_the_budget_snr() {
        let report = run(Scale::Quick);
        let rows = &report.sections[1].table.rows;
        let real_mean: f64 = rows[0][1].parse().unwrap();
        // Ptx 19 (−5 dBm) at 30 m: PL = 32.2 + 21.9·log10(30) = 64.5;
        // SNR ≈ −5 − 64.5 + 95 = 25.5 dB.
        assert!((real_mean - 25.5).abs() < 1.0, "mean={real_mean}");
    }

    #[test]
    fn histogram_fractions_sum_to_about_one() {
        let report = run(Scale::Quick);
        let total: f64 = report.sections[0]
            .table
            .rows
            .iter()
            .map(|r| r[1].parse::<f64>().unwrap())
            .sum();
        // Cells are rendered with 4 decimals, so allow rounding slack.
        assert!((total - 1.0).abs() < 0.01, "total={total}");
    }
}
