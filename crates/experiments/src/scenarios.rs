//! Named multi-link scenarios (`repro scenario <id>`): running and report
//! rendering over the scenario catalog that ships with the network
//! simulator.
//!
//! The catalog itself ([`all_scenarios`]/[`build_scenario`]) moved to
//! [`wsn_link_sim::catalog`] so non-harness consumers (the `wsn-serve`
//! query service, library users) can resolve scenario ids too; this module
//! re-exports it.

use wsn_link_sim::network::{NetOptions, NetworkOutcome, NetworkSimulation};

use crate::campaign::Scale;
use crate::report::{fnum, Report, Table};

pub use wsn_link_sim::catalog::{all_scenarios, build_scenario};

/// The campaign seed, shared with [`Campaign`](crate::campaign::Campaign).
const SEED: u64 = 0x5EED;

/// Simulates one builtin scenario at `scale` packets per link.
pub fn simulate(id: &str, scale: Scale) -> Option<NetworkOutcome> {
    let scenario = build_scenario(id)?;
    let options = NetOptions {
        seed: SEED,
        ..NetOptions::quick(scale.packets())
    };
    Some(NetworkSimulation::new(scenario, options).run())
}

/// Runs one builtin scenario and renders it as a report.
///
/// # Errors
///
/// Returns the list of known scenario ids when `id` is unknown.
pub fn run_scenario(id: &str, scale: Scale) -> Result<Report, String> {
    let Some(outcome) = simulate(id, scale) else {
        let known: Vec<&str> = all_scenarios().iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown scenario '{id}'; known: {}",
            known.join(", ")
        ));
    };
    let description = all_scenarios()
        .iter()
        .find(|(n, _)| *n == id)
        .map(|(_, d)| *d)
        .unwrap_or_default();

    let mut table = Table::new(vec![
        "link",
        "d_m",
        "Ptx",
        "generated",
        "delivered",
        "plr_radio",
        "goodput_bps",
        "frames_interfered",
        "capture_lost",
    ]);
    for (i, link) in outcome.links.iter().enumerate() {
        table.push_row(vec![
            format!("{i}"),
            fnum(link.config.distance.meters()),
            format!("{}", link.config.power.level()),
            format!("{}", link.metrics.generated),
            format!("{}", link.metrics.delivered),
            fnum(link.metrics.plr_radio),
            fnum(link.metrics.goodput_bps),
            format!("{}", link.frames_interfered),
            format!("{}", link.frames_capture_lost),
        ]);
    }

    let mut report = Report::new(
        &format!("scenario-{id}"),
        &format!("Multi-link scenario: {id}"),
    );
    report.push(
        &format!(
            "{} links, {} packets/link",
            outcome.links.len(),
            scale.packets()
        ),
        table,
        vec![
            description.to_string(),
            format!(
                "shared air: {} frames, {} overlapped, {} CCA busy deferrals",
                outcome.air.frames, outcome.air.overlapped_frames, outcome.air.cca_busy_hits
            ),
            format!(
                "network: plr_radio {:.4}, aggregate goodput {:.0} bit/s",
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
    fn every_builtin_scenario_builds_and_runs() {
        for (id, _) in all_scenarios() {
            let outcome = simulate(id, Scale::Bench).unwrap_or_else(|| panic!("{id} missing"));
            assert!(!outcome.links.is_empty(), "{id} has no links");
            assert!(outcome.air.frames > 0, "{id} put no frames on the air");
        }
    }

    #[test]
    fn unknown_scenario_lists_alternatives() {
        let err = run_scenario("nope", Scale::Bench).unwrap_err();
        assert!(err.contains("nope"));
        assert!(err.contains("hidden-pair"));
    }

    #[test]
    fn scenario_report_renders() {
        let report = run_scenario("hidden-pair", Scale::Bench).unwrap();
        let text = report.render();
        assert!(text.contains("plr_radio"));
        assert!(text.contains("shared air"));
    }
}
