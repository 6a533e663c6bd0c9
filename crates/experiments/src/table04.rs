//! Table IV — single-parameter adjustment vs multi-layer joint adjustment
//! on the case-study link (also the data behind Fig. 1).
//!
//! The scenario (Sec. VIII-C): an indoor sensor must bulk-transfer data
//! over a shadowed 35 m link where even maximum power only reaches ≈6 dB
//! SNR. Four literature baselines each tune one knob; the joint optimizer
//! tunes power, payload and retransmissions together via the
//! epsilon-constraint method, and both wins more goodput *and* spends less
//! energy per delivered bit.

use wsn_link_sim::traffic::TrafficModel;
use wsn_models::baselines::Baseline;
use wsn_models::optimize::Optimizer;
use wsn_models::predict::{LinkBudget, Predictor};
use wsn_params::config::StackConfig;
use wsn_params::grid::ParamGrid;
use wsn_radio::channel::ChannelConfig;

use crate::campaign::{Campaign, Scale};
use crate::report::{fnum, Report, Table};

/// One row of the case-study comparison.
#[derive(Debug, Clone)]
pub struct CaseRow {
    /// Method label (`[11]-Tuning power`, …, `Joint (this work)`).
    pub label: String,
    /// The tuned configuration.
    pub config: StackConfig,
    /// Simulated goodput under a backlogged sender, kb/s.
    pub sim_goodput_kbps: f64,
    /// Simulated energy per delivered information bit, µJ/bit.
    pub sim_u_eng: f64,
    /// Model-predicted maximum goodput, kb/s.
    pub pred_goodput_kbps: f64,
    /// Model-predicted `U_eng`, µJ/bit.
    pub pred_u_eng: f64,
}

/// The case-study starting point: `Ptx = 23`, `lD = 114`, no
/// retransmissions.
pub fn base_config() -> StackConfig {
    StackConfig::builder()
        .distance_m(35.0)
        .power_level(23)
        .payload_bytes(114)
        .max_tries(1)
        .retry_delay_ms(0)
        .queue_cap(30)
        .packet_interval_ms(30)
        .build()
        .expect("constants are valid")
}

/// The grid the joint optimizer searches: the Table I axes restricted to
/// the case-study distance and load.
pub fn joint_grid() -> ParamGrid {
    ParamGrid {
        distances_m: vec![35.0],
        queue_caps: vec![30],
        packet_intervals_ms: vec![30],
        ..ParamGrid::paper()
    }
}

/// Computes all comparison rows: base, four baselines, joint optimum.
pub fn case_study_rows(scale: Scale) -> Vec<CaseRow> {
    let base = base_config();
    let mut predictor = Predictor::paper();
    predictor.budget = LinkBudget::case_study();
    let optimizer = Optimizer { predictor };

    let mut entries: Vec<(String, StackConfig)> = vec![("No tuning".to_string(), base)];
    for b in Baseline::all() {
        entries.push((b.label().to_string(), b.apply(&base)));
    }
    let joint = optimizer
        .joint_energy_goodput(&joint_grid(), 1.2)
        .expect("the case-study grid has feasible points");
    entries.push(("Joint (this work)".to_string(), joint.config));

    let configs: Vec<StackConfig> = entries.iter().map(|(_, c)| *c).collect();
    let campaign = Campaign::new(scale)
        .with_channel(ChannelConfig::case_study())
        .with_traffic(TrafficModel::Saturating);
    let results = campaign.run_configs(&configs);

    entries
        .into_iter()
        .zip(results)
        .map(|((label, config), result)| {
            let pred = predictor.evaluate(&config);
            CaseRow {
                label,
                config,
                sim_goodput_kbps: result.metrics.goodput_bps / 1e3,
                sim_u_eng: result.metrics.u_eng_uj_per_bit,
                pred_goodput_kbps: pred.max_goodput_bps / 1e3,
                pred_u_eng: pred.u_eng_uj_per_bit,
            }
        })
        .collect()
}

/// Runs the Table IV reproduction.
pub fn run(scale: Scale) -> Report {
    let rows = case_study_rows(scale);
    let mut table = Table::new(vec![
        "method",
        "Ptx",
        "lD_B",
        "NmaxTries",
        "sim_goodput_kbps",
        "sim_U_uJ_per_bit",
        "pred_goodput_kbps",
        "pred_U_uJ_per_bit",
    ]);
    for r in &rows {
        table.push_row(vec![
            r.label.clone(),
            format!("{}", r.config.power.level()),
            format!("{}", r.config.payload.bytes()),
            format!("{}", r.config.max_tries.get()),
            fnum(r.sim_goodput_kbps),
            fnum(r.sim_u_eng),
            fnum(r.pred_goodput_kbps),
            fnum(r.pred_u_eng),
        ]);
    }

    let mut report = Report::new(
        "table04",
        "Table IV: single-parameter vs multi-layer joint parameter adjustment",
    );
    report.push(
        "Case study on the shadowed 35 m link (bulk transfer)",
        table,
        vec![
            "Paper's joint row: Ptx=31, lD=68, N=3 → 22.28 kbps at 0.24 uJ/bit.".into(),
            "Joint tuning must dominate every single-parameter baseline on both axes.".into(),
        ],
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joint_dominates_every_baseline() {
        let rows = case_study_rows(Scale::Quick);
        let joint = rows.last().unwrap();
        assert!(joint.label.contains("Joint"));
        for r in &rows[..rows.len() - 1] {
            assert!(
                joint.sim_goodput_kbps > r.sim_goodput_kbps * 0.95,
                "joint {} kbps vs {} {} kbps",
                joint.sim_goodput_kbps,
                r.label,
                r.sim_goodput_kbps
            );
            assert!(
                joint.sim_u_eng < r.sim_u_eng * 1.05,
                "joint {} uJ vs {} {} uJ",
                joint.sim_u_eng,
                r.label,
                r.sim_u_eng
            );
        }
    }

    #[test]
    fn joint_uses_multiple_knobs() {
        let rows = case_study_rows(Scale::Quick);
        let base = base_config();
        let joint = &rows.last().unwrap().config;
        let mut changed = 0;
        if joint.power != base.power {
            changed += 1;
        }
        if joint.payload != base.payload {
            changed += 1;
        }
        if joint.max_tries != base.max_tries {
            changed += 1;
        }
        assert!(changed >= 2, "joint tuning changed only {changed} knobs");
    }

    #[test]
    fn joint_shape_matches_paper() {
        // Paper: Ptx=31 (max), interior payload, retransmissions on.
        let rows = case_study_rows(Scale::Quick);
        let joint = &rows.last().unwrap().config;
        assert_eq!(joint.power.level(), 31);
        assert!(joint.payload.bytes() < 114 && joint.payload.bytes() > 20);
        assert!(joint.max_tries.get() > 1);
    }

    #[test]
    fn power_baseline_beats_no_tuning_on_goodput() {
        let rows = case_study_rows(Scale::Quick);
        let base = &rows[0];
        let power = rows.iter().find(|r| r.label.contains("[11]")).unwrap();
        assert!(power.sim_goodput_kbps > base.sim_goodput_kbps);
    }
}
