//! `repro timeline` — replay a topology timeline over a catalog scenario.
//!
//! The timeline is either a builtin id (see
//! [`all_timelines`]) or a path to a
//! JSON file holding a [`ScenarioTimeline`] (the same externally-tagged
//! event array `serde_json` round-trips). The run replays the events over
//! the named scenario with per-epoch progress snapshots, renders the
//! epoch series as a report, and streams one structured `epoch` event per
//! snapshot through the observability layer (`--log PATH`).

use std::path::Path;

use wsn_link_sim::catalog::{all_scenarios, all_timelines, build_scenario, build_timeline};
use wsn_link_sim::network::{NetOptions, NetworkSimulation};
use wsn_obs::log::EventLog;
use wsn_params::scenario::Scenario;
use wsn_params::timeline::ScenarioTimeline;
use wsn_sim_engine::mode::EngineMode;
use wsn_sim_engine::time::SimDuration;

use crate::campaign::Scale;
use crate::report::{fnum, Report, Table};

/// Replay horizon, seconds: long enough for the builtin storm (leave at
/// 10 s, rejoin at 18 s) to show its full drop-and-recover arc.
const HORIZON_S: f64 = 30.0;

/// Snapshot period, seconds.
const EPOCH_S: f64 = 1.0;

/// The shared experiment seed (same as the scenario catalog runs).
const SEED: u64 = 0x5EED;

/// Failure classes of a timeline replay. The `repro` binary maps them to
/// its documented exit codes: unknown scenario/timeline ids are exit 2,
/// unreadable timeline files exit 3, malformed or invalid timelines
/// exit 1.
#[derive(Debug)]
pub enum TimelineError {
    /// The scenario id is not in the catalog.
    UnknownScenario(String),
    /// The timeline argument is neither a builtin id nor an existing file.
    UnknownTimeline(String),
    /// The timeline file exists but cannot be read.
    Io(String),
    /// The timeline parsed but is malformed (bad JSON, out-of-range link
    /// indices, invalid power levels, …).
    Invalid(String),
}

impl std::fmt::Display for TimelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimelineError::UnknownScenario(msg)
            | TimelineError::UnknownTimeline(msg)
            | TimelineError::Io(msg)
            | TimelineError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

/// Resolves the timeline argument: builtin id first, then a JSON file.
fn resolve_timeline(arg: &str, scenario: &Scenario) -> Result<ScenarioTimeline, TimelineError> {
    if let Some(timeline) = build_timeline(arg, scenario) {
        return Ok(timeline);
    }
    let path = Path::new(arg);
    if !path.exists() {
        let known: Vec<&str> = all_timelines().iter().map(|(n, _)| *n).collect();
        return Err(TimelineError::UnknownTimeline(format!(
            "unknown timeline '{arg}' (not a builtin id, and no such file); known ids: {}",
            known.join(", ")
        )));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| TimelineError::Io(format!("cannot read {}: {e}", path.display())))?;
    let timeline: ScenarioTimeline = serde_json::from_str(&text).map_err(|e| {
        TimelineError::Invalid(format!("{} is not a timeline: {e}", path.display()))
    })?;
    timeline
        .validate(scenario.len())
        .map_err(|e| TimelineError::Invalid(format!("{}: {e}", path.display())))?;
    Ok(timeline)
}

/// Sums one epoch snapshot's per-link counters.
fn totals(links: &[wsn_link_sim::network::EpochLink]) -> (u64, u64, u64, u64) {
    links.iter().fold((0, 0, 0, 0), |acc, l| {
        (
            acc.0 + l.generated,
            acc.1 + l.delivered,
            acc.2 + l.radio_lost,
            acc.3 + l.queue_dropped,
        )
    })
}

/// Runs `repro timeline <scenario> <timeline>`: replays the resolved
/// timeline over the catalog scenario with 1 s epoch snapshots over a
/// 30 s horizon and reports the per-epoch series.
///
/// # Errors
///
/// See [`TimelineError`] for the failure classes and their exit codes.
pub fn run_timeline(
    scenario_id: &str,
    timeline_arg: &str,
    scale: Scale,
    engine: EngineMode,
    log: &EventLog,
) -> Result<Report, TimelineError> {
    let scenario = build_scenario(scenario_id).ok_or_else(|| {
        let known: Vec<&str> = all_scenarios().iter().map(|(n, _)| *n).collect();
        TimelineError::UnknownScenario(format!(
            "unknown scenario '{scenario_id}'; known: {}",
            known.join(", ")
        ))
    })?;
    let timeline = resolve_timeline(timeline_arg, &scenario)?;
    let digest = timeline.digest();
    let payload_bits: f64 = scenario
        .links
        .iter()
        .map(|l| l.config.payload.bytes() as f64 * 8.0)
        .sum::<f64>()
        / scenario.len().max(1) as f64;

    // Enough per-link traffic to span the horizon (50 ms intervals need
    // 600 packets for 30 s), whatever the scale.
    let packets = scale.packets().max(650);
    let options = NetOptions {
        seed: SEED,
        horizon: Some(SimDuration::from_secs_f64(HORIZON_S)),
        epoch: Some(SimDuration::from_secs_f64(EPOCH_S)),
        engine,
        ..NetOptions::quick(packets)
    };
    log.info("timeline_run")
        .str("scenario", scenario_id)
        .str("timeline", timeline_arg)
        .str("engine", engine.name())
        .u64("events", timeline.len() as u64)
        .u64("digest", digest)
        .emit();
    let outcome = NetworkSimulation::new(scenario, options)
        .with_timeline(timeline)
        .run();

    let mut table = Table::new(vec![
        "t_s",
        "generated",
        "delivered",
        "radio_lost",
        "queue_dropped",
        "epoch_goodput_bps",
    ]);
    let mut prev = (0u64, 0u64, 0u64, 0u64);
    for snap in &outcome.epochs {
        let now = totals(&snap.links);
        let delivered_delta = now.1 - prev.1;
        let goodput = delivered_delta as f64 * payload_bits / EPOCH_S;
        table.push_row(vec![
            fnum(snap.t_s),
            format!("{}", now.0),
            format!("{}", now.1),
            format!("{}", now.2),
            format!("{}", now.3),
            fnum(goodput),
        ]);
        log.info("epoch")
            .f64("t_s", snap.t_s)
            .u64("generated", now.0)
            .u64("delivered", now.1)
            .u64("radio_lost", now.2)
            .u64("queue_dropped", now.3)
            .f64("epoch_goodput_bps", goodput)
            .emit();
        prev = now;
    }
    log.info("timeline_done")
        .u64("joins", outcome.topo.joins)
        .u64("leaves", outcome.topo.leaves)
        .u64("moves", outcome.topo.moves)
        .u64("power_changes", outcome.topo.power_changes)
        .u64("neighbor_updates", outcome.topo.neighbor_updates)
        .f64("plr_radio", outcome.plr_radio())
        .emit();

    let mut report = Report::new(
        "timeline",
        "Topology-timeline replay (per-epoch link metrics)",
    );
    report.push(
        &format!(
            "{scenario_id} + {timeline_arg} — {} engine, {HORIZON_S:.0} s horizon, {EPOCH_S:.0} s epochs",
            engine.name()
        ),
        table,
        vec![
            format!(
                "Timeline digest {digest:016x}: {} joins, {} leaves, {} moves, {} power changes; {} neighborhood edges touched.",
                outcome.topo.joins,
                outcome.topo.leaves,
                outcome.topo.moves,
                outcome.topo.power_changes,
                outcome.topo.neighbor_updates
            ),
            format!(
                "Whole-run radio loss {:.4}, aggregate goodput {:.0} bit/s.",
                outcome.plr_radio(),
                outcome.goodput_bps()
            ),
        ],
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_storm_replays_over_parallel_4() {
        let log = EventLog::disabled();
        let report = run_timeline(
            "parallel-4",
            "storm20",
            Scale::Bench,
            EngineMode::Golden,
            &log,
        )
        .expect("builtin ids resolve");
        assert_eq!(report.sections[0].table.rows.len(), 30, "one row per epoch");
        assert!(report.sections[0].notes[0].contains("leaves"));
    }

    #[test]
    fn unknown_ids_are_distinct_errors() {
        let log = EventLog::disabled();
        match run_timeline("nope", "storm20", Scale::Bench, EngineMode::Golden, &log) {
            Err(TimelineError::UnknownScenario(msg)) => assert!(msg.contains("nope")),
            other => panic!("want UnknownScenario, got {other:?}"),
        }
        match run_timeline("single", "nope", Scale::Bench, EngineMode::Golden, &log) {
            Err(TimelineError::UnknownTimeline(msg)) => assert!(msg.contains("storm20")),
            other => panic!("want UnknownTimeline, got {other:?}"),
        }
    }

    #[test]
    fn timeline_file_round_trips_through_the_cli_path() {
        let scenario = build_scenario("parallel-4").unwrap();
        let timeline = build_timeline("storm20", &scenario).unwrap();
        let dir = std::env::temp_dir().join("wsn-dynamics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("storm.json");
        std::fs::write(&path, serde_json::to_string(&timeline).unwrap()).unwrap();

        let resolved = resolve_timeline(path.to_str().unwrap(), &scenario).unwrap();
        assert_eq!(resolved.digest(), timeline.digest());

        std::fs::write(&path, "{not json").unwrap();
        match resolve_timeline(path.to_str().unwrap(), &scenario) {
            Err(TimelineError::Invalid(_)) => {}
            other => panic!("want Invalid, got {other:?}"),
        }
    }
}
