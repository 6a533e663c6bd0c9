//! Extension 8: node mobility.
//!
//! Sec. VIII-D's final deferred factor: "the mobility of a node also
//! \[has\] a possibly large impact on the performance". A sender walks down
//! the hallway away from the receiver while streaming; the windowed PRR
//! time series shows the link sliding through the Fig. 6(d) zones, and a
//! patrol trajectory shows the periodic quality swings that static tuning
//! cannot follow.

use wsn_link_sim::analysis::DeliverySequence;
use wsn_link_sim::simulation::{LinkSimulation, SimOptions};
use wsn_params::config::StackConfig;
use wsn_params::motion::Trajectory;

use crate::campaign::Scale;
use crate::report::{fnum, Report, Table};

fn config() -> StackConfig {
    StackConfig::builder()
        .distance_m(5.0) // starting point; the trajectory overrides motion
        .power_level(3)
        .payload_bytes(110)
        .max_tries(1) // raw channel view for the PRR series
        .retry_delay_ms(0)
        .queue_cap(30)
        .packet_interval_ms(50)
        .build()
        .expect("valid constants")
}

fn windowed_prr(trajectory: Trajectory, packets: u64, seed: u64, windows: usize) -> Vec<f64> {
    let outcome = LinkSimulation::new(
        config(),
        SimOptions::quick(packets)
            .with_seed(seed)
            .with_trajectory(trajectory),
    )
    .run();
    let records = outcome.records.as_ref().expect("records requested");
    let sequence = DeliverySequence::from_records(records);
    let window = (sequence.len() / windows).max(1);
    sequence.windowed_prr(window)
}

/// Runs the mobility extension experiment.
pub fn run(scale: Scale) -> Report {
    let packets = (scale.packets() * 2).max(400);
    let windows = 10;

    // Walk 5 m → 60 m: the link must traverse all three zones and die.
    let walk_duration = packets as f64 * 0.05; // matches Tpkt = 50 ms
    let walk = Trajectory::Linear {
        start_m: 5.0,
        end_m: 60.0,
        duration_s: walk_duration,
    };
    let walk_prr = windowed_prr(walk, packets, 11, windows);

    // Patrol 10 m ↔ 35 m: periodic quality swings.
    let patrol = Trajectory::Patrol {
        near_m: 10.0,
        far_m: 35.0,
        leg_s: walk_duration / 4.0,
    };
    let patrol_prr = windowed_prr(patrol, packets, 13, windows);

    // Stationary control at the starting distance.
    let still_prr = windowed_prr(Trajectory::Stationary, packets, 17, windows);

    let mut table = Table::new(vec![
        "window",
        "stationary_prr",
        "walk_away_prr",
        "patrol_prr",
    ]);
    for w in 0..windows {
        table.push_row(vec![
            format!("{w}"),
            still_prr.get(w).copied().map_or("-".into(), fnum),
            walk_prr.get(w).copied().map_or("-".into(), fnum),
            patrol_prr.get(w).copied().map_or("-".into(), fnum),
        ]);
    }

    let mut report = Report::new("ext08", "Extension: node mobility (Sec. VIII-D)");
    report.push(
        "Windowed PRR over time (Ptx = 3, lD = 110, single transmission)",
        table,
        vec![
            "Walking away drags the link from lossless through the grey zone to outage within one trace.".into(),
            "The patrol trajectory produces periodic PRR swings — the regime where the ext03 adaptive tuner pays off.".into(),
        ],
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walking_away_degrades_prr_monotonically_ish() {
        let report = run(Scale::Quick);
        let rows = &report.sections[0].table.rows;
        let first: f64 = rows[0][2].parse().unwrap();
        let last: f64 = rows[rows.len() - 1][2].parse().unwrap();
        assert!(first > 0.9, "start PRR {first}");
        assert!(last < 0.3, "end PRR {last}");
    }

    #[test]
    fn stationary_control_stays_healthy() {
        let report = run(Scale::Quick);
        for row in &report.sections[0].table.rows {
            let prr: f64 = row[1].parse().unwrap();
            assert!(prr > 0.85, "stationary PRR {prr}");
        }
    }

    #[test]
    fn patrol_prr_swings_with_position() {
        let report = run(Scale::Quick);
        let prrs: Vec<f64> = report.sections[0]
            .table
            .rows
            .iter()
            .map(|r| r[3].parse().unwrap())
            .collect();
        let max = prrs.iter().cloned().fold(f64::MIN, f64::max);
        let min = prrs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min > 0.1, "patrol PRR flat: {prrs:?}");
    }
}
