//! Extension 7: statistical confidence for the headline claim.
//!
//! The paper's Table IV reports single measurements. This experiment
//! replicates the case-study comparison under independent seeds and
//! reports 95 % confidence intervals, verifying the joint-tuning
//! dominance is not seed luck: the joint configuration's goodput CI
//! sits strictly above — and its energy CI strictly below — every
//! baseline's.

use wsn_link_sim::traffic::TrafficModel;
use wsn_models::baselines::Baseline;
use wsn_models::optimize::Optimizer;
use wsn_models::predict::{LinkBudget, Predictor};
use wsn_params::config::StackConfig;
use wsn_radio::channel::ChannelConfig;

use crate::campaign::{Campaign, Scale};
use crate::report::{fnum, Report, Table};
use crate::stats::{MetricCi, Replicates};
use crate::table04::{base_config, joint_grid};

/// Replicates per configuration.
pub const REPLICATES: usize = 8;

fn measure(campaign: &Campaign, config: StackConfig) -> (MetricCi, MetricCi) {
    let reps = Replicates::collect(campaign, config, REPLICATES);
    (
        reps.ci_of(|m| m.goodput_bps / 1e3),
        reps.ci_of(|m| m.u_eng_uj_per_bit),
    )
}

/// Runs the replication experiment.
pub fn run(scale: Scale) -> Report {
    let campaign = Campaign::new(scale)
        .with_channel(ChannelConfig::case_study())
        .with_traffic(TrafficModel::Saturating);

    let mut predictor = Predictor::paper();
    predictor.budget = LinkBudget::case_study();
    let joint = Optimizer { predictor }
        .joint_energy_goodput(&joint_grid(), 1.2)
        .expect("feasible grid");

    let mut entries: Vec<(String, StackConfig)> = Vec::new();
    for b in Baseline::all() {
        entries.push((b.label().to_string(), b.apply(&base_config())));
    }
    entries.push(("Joint (this work)".to_string(), joint.config));

    let mut table = Table::new(vec![
        "method",
        "goodput_kbps_mean",
        "goodput_ci95",
        "uJ_per_bit_mean",
        "uJ_ci95",
    ]);
    let mut cis = Vec::new();
    for (label, config) in &entries {
        let (goodput, energy) = measure(&campaign, *config);
        table.push_row(vec![
            label.clone(),
            fnum(goodput.mean),
            fnum(goodput.half_width),
            fnum(energy.mean),
            fnum(energy.half_width),
        ]);
        cis.push((label.clone(), goodput, energy));
    }

    // Dominance with non-overlapping CIs.
    let (_, joint_goodput, joint_energy) = cis.last().expect("joint entry").clone();
    let mut verdicts = Table::new(vec!["baseline", "goodput_separated", "energy_separated"]);
    for (label, goodput, energy) in &cis[..cis.len() - 1] {
        verdicts.push_row(vec![
            label.clone(),
            format!(
                "{}",
                joint_goodput.clearly_differs_from(goodput) && joint_goodput.mean > goodput.mean
            ),
            format!(
                "{}",
                joint_energy.clearly_differs_from(energy) && joint_energy.mean < energy.mean
            ),
        ]);
    }

    let mut report = Report::new(
        "ext07",
        "Extension: replicated case study with 95% confidence intervals",
    );
    report.push(
        &format!("Table IV under {REPLICATES} independent seeds"),
        table,
        vec!["Means ± 1.96·s/√n over independent replicate campaigns.".into()],
    );
    report.push(
        "CI separation: does joint tuning beat each baseline beyond seed noise?",
        verdicts,
        vec!["true in both columns = dominance holds with non-overlapping 95% CIs.".into()],
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joint_dominance_survives_replication() {
        let report = run(Scale::Quick);
        for row in &report.sections[1].table.rows {
            assert_eq!(row[1], "true", "goodput not separated for {}", row[0]);
            assert_eq!(row[2], "true", "energy not separated for {}", row[0]);
        }
    }

    #[test]
    fn confidence_intervals_are_tight_relative_to_means() {
        let report = run(Scale::Quick);
        for row in &report.sections[0].table.rows {
            let mean: f64 = row[1].parse().unwrap();
            let hw: f64 = row[2].parse().unwrap();
            // Grey-zone configurations are noisy (correlated fading), so
            // allow up to 30 % relative half-width.
            assert!(
                hw < mean * 0.3,
                "{}: CI half-width {hw} vs mean {mean}",
                row[0]
            );
        }
    }
}
