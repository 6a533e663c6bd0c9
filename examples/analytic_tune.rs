//! Analytic tune pre-scan: the paper's Table IV case-study pick in
//! microseconds per candidate.
//!
//! The case study (Sec. VIII-C) bulk-transfers over a shadowed 35 m link
//! and asks for the most goodput whose energy per bit stays within 20 %
//! of the best achievable anywhere on the grid. Table IV answers it with
//! the fitted-model optimizer; this example answers it with the analytic
//! M/G/1 engine instead — every candidate of the joint grid evaluated in
//! closed form (the same pre-scan `repro serve` runs for
//! `{"op":"tune","engine":"analytic"}`) — and then cross-checks the one
//! winning configuration against the golden event-driven simulator.
//!
//! ```sh
//! cargo run --release --example analytic_tune
//! ```

use std::time::Instant;

use wsn_linkconf::analytic::runner::EngineRunner;
use wsn_linkconf::experiments::campaign::{Campaign, Scale};
use wsn_linkconf::experiments::table04;
use wsn_linkconf::link::traffic::TrafficModel;
use wsn_linkconf::models::optimize::GridScan;
use wsn_linkconf::radio::channel::ChannelConfig;

fn main() {
    // The Table IV search space: the paper grid's power × payload ×
    // retry axes, pinned to the case-study distance and load.
    let grid = table04::joint_grid();
    println!(
        "case study: shadowed 35 m link, {} candidate configurations",
        grid.len()
    );

    // 1. Analytic pre-scan under a backlogged sender (the case study is a
    //    bulk transfer), solving the paper's joint formulation: max
    //    goodput subject to energy within 20 % of the best energy
    //    anywhere on the grid.
    let runner = EngineRunner::new(ChannelConfig::case_study(), TrafficModel::Saturating);
    let scan = runner.analytic_scan(Scale::Quick.packets());
    let t0 = Instant::now();
    let Ok(pick) = scan.joint_energy_goodput(&grid, 1.2);
    let elapsed = t0.elapsed();
    println!(
        "analytic pre-scan: {} configs in {:.1} ms ({:.1} µs/config)",
        grid.len(),
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e6 / grid.len() as f64,
    );
    let config = pick.expect("the case-study grid has feasible points");
    // A memo hit: the scan already evaluated the winner.
    let metrics = scan.metrics(config);
    println!(
        "\nanalytic pick: Ptx={}, lD={} B, NmaxTries={}",
        config.power.level(),
        config.payload.bytes(),
        config.max_tries.get(),
    );
    println!(
        "  predicted: {:.2} kb/s at {:.3} µJ/bit",
        metrics.goodput_bps / 1e3,
        metrics.u_eng_uj_per_bit,
    );
    println!("  paper's joint row (Table IV): Ptx=31, lD=68 B, N=3 — 22.28 kb/s at 0.24 µJ/bit");

    // 2. Cross-check: only the winner is re-simulated, through the golden
    //    event-driven engine.
    let golden = Campaign::new(Scale::Quick)
        .with_channel(ChannelConfig::case_study())
        .with_traffic(TrafficModel::Saturating);
    let t0 = Instant::now();
    let simulated = &golden.run_configs(&[config])[0];
    let sim = t0.elapsed();
    println!(
        "\ngolden cross-check of the winner ({:.0} ms): {:.2} kb/s at {:.3} µJ/bit",
        sim.as_secs_f64() * 1e3,
        simulated.metrics.goodput_bps / 1e3,
        simulated.metrics.u_eng_uj_per_bit,
    );
    let rel = |a: f64, b: f64| ((a - b) / b.abs().max(1e-12)).abs();
    println!(
        "  deviation: goodput {:.1} %, energy {:.1} % — the pre-scan ranked \
         {} candidates for less than the cost of simulating this one",
        rel(metrics.goodput_bps, simulated.metrics.goodput_bps) * 100.0,
        rel(metrics.u_eng_uj_per_bit, simulated.metrics.u_eng_uj_per_bit) * 100.0,
        grid.len(),
    );
}
