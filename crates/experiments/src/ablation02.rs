//! Ablation 2: the cost of assuming a constant noise floor.
//!
//! Fig. 5's point, taken further: if an adaptive protocol estimates SNR
//! with the constant −95 dBm assumption, how wrong do its PER predictions
//! get? We compare the Eq. 3 prediction fed with "assumed" SNR (constant
//! floor) against the loss actually produced by the mixture floor.

use rand::SeedableRng;

use wsn_models::surface::ExpSurface;
use wsn_params::types::{Distance, PayloadSize, PowerLevel};
use wsn_radio::channel::{Channel, ChannelConfig};
use wsn_radio::shadowing::SigmaProfile;

use crate::campaign::Scale;
use crate::report::{fnum, Report, Table};

/// Power levels probed (each maps to one assumed-SNR operating point).
pub const POWERS: [u8; 5] = [3, 7, 11, 15, 19];

/// Runs the constant-noise ablation.
pub fn run(scale: Scale) -> Report {
    let trials = match scale {
        Scale::Bench => 1_000usize,
        Scale::Quick => 8_000,
        Scale::Full => 60_000,
    };
    let payload = PayloadSize::new(110).expect("valid");
    let per_model = ExpSurface::new(0.0128, -0.15);
    let distance = Distance::from_meters(35.0).expect("valid");

    // Real channel: mixture noise; no fading so the noise effect isolates.
    let mut real_cfg = ChannelConfig::paper_hallway();
    real_cfg.sigma_profile = SigmaProfile::none();
    real_cfg.ack_loss = false;

    let mut table = Table::new(vec![
        "Ptx",
        "assumed_snr_db",
        "predicted_per",
        "actual_per",
        "underestimate_pct",
    ]);
    let mut worst_under = 0.0f64;
    for (i, &p) in POWERS.iter().enumerate() {
        let power = PowerLevel::new(p).expect("valid");
        let mut channel = Channel::new(
            real_cfg,
            power,
            distance,
            rand::rngs::StdRng::seed_from_u64(1 + i as u64),
            rand::rngs::StdRng::seed_from_u64(11 + i as u64),
        );
        // "Assumed" SNR: RSSI minus the constant −95 dBm floor.
        let assumed_snr = channel.mean_rssi_dbm() - -95.0;
        let predicted = per_model.eval_prob(payload, assumed_snr);

        let mut delivery = rand::rngs::StdRng::seed_from_u64(21 + i as u64);
        let mut lost = 0usize;
        for _ in 0..trials {
            let obs = channel.observe();
            if !channel.data_success(&obs, payload, &mut delivery) {
                lost += 1;
            }
        }
        let actual = lost as f64 / trials as f64;
        let under = if actual > 0.0 {
            (actual - predicted) / actual * 100.0
        } else {
            0.0
        };
        worst_under = worst_under.max(under);
        table.push_row(vec![
            format!("{p}"),
            fnum(assumed_snr),
            fnum(predicted),
            fnum(actual),
            fnum(under),
        ]);
    }

    let mut report = Report::new(
        "ablation02",
        "Ablation: PER prediction error under the constant-noise assumption",
    );
    report.push(
        "Eq. 3 fed with constant-floor SNR vs actual loss under the mixture floor (lD = 110, 35 m)",
        table,
        vec![
            format!(
                "The interference tail makes the constant-floor predictor optimistic by up to {worst_under:.0}% of the actual loss."
            ),
            "This is why Sec. III-A insists on measuring the real noise distribution (Fig. 5).".into(),
        ],
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_floor_underestimates_loss() {
        let report = run(Scale::Quick);
        // On at least one mid-quality operating point the predictor must be
        // noticeably optimistic (actual > predicted).
        let optimistic = report.sections[0].table.rows.iter().any(|row| {
            let predicted: f64 = row[2].parse().unwrap();
            let actual: f64 = row[3].parse().unwrap();
            actual > predicted * 1.1 && actual > 0.01
        });
        assert!(optimistic, "constant-floor prediction was never optimistic");
    }

    #[test]
    fn per_still_falls_with_power() {
        let report = run(Scale::Quick);
        let rows = &report.sections[0].table.rows;
        let first: f64 = rows[0][3].parse().unwrap();
        let last: f64 = rows[rows.len() - 1][3].parse().unwrap();
        assert!(first > last);
    }
}
