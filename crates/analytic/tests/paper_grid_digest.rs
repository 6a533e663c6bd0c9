//! Pins every analytic evaluation of the paper grid to a digest.
//!
//! The digest folds the float bits (and counts) of each `(LinkMetrics,
//! AnalyticReport)` pair over `ParamGrid::paper()` × the three traffic
//! models at the serve default of 400 packets. It was recorded from the
//! single-pass evaluator, before the link/queue split, so it holds the
//! split — and every later refactor — to bit identity. The scan goes
//! through an `AnalyticTable`, so the test pays for one link stage per
//! link tuple (3,456) rather than one full evaluation per row (145,152).

use wsn_analytic::table::AnalyticTable;
use wsn_analytic::AnalyticReport;
use wsn_link_sim::metrics::LinkMetrics;
use wsn_link_sim::simulation::SimOptions;
use wsn_link_sim::traffic::TrafficModel;
use wsn_params::grid::ParamGrid;
use wsn_radio::budget::LinkBudget;

/// The serve layer's default packet budget.
const PACKETS: u64 = 400;

/// FNV-1a, 64-bit, over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn evaluation(&mut self, m: &LinkMetrics, r: &AnalyticReport) {
        for x in [
            m.duration_s,
            m.mean_tries,
            m.goodput_bps,
            m.offered_bps,
            m.delay_mean_ms,
            m.delay_p50_ms,
            m.delay_p95_ms,
            m.delay_p99_ms,
            m.service_mean_ms,
            m.queueing_mean_ms,
            m.u_eng_uj_per_bit,
            m.total_energy_uj_per_bit,
            m.energy.tx_j,
            m.energy.rx_j,
            m.energy.idle_j,
            m.plr_queue,
            m.plr_radio,
            m.per,
            m.mean_snr_db,
            m.mean_rssi_dbm,
            m.utilization,
            r.rho,
            r.service_mean_ms,
            r.service_scv,
            r.wait_mean_ms,
            r.delay_min_ms,
            r.delay_max_ms,
            r.p_radio_loss,
            r.expected_attempts,
        ] {
            self.float(x);
        }
        for n in [
            m.generated,
            m.queue_dropped,
            m.radio_lost,
            m.delivered,
            m.acked,
            m.residual,
            m.attempts,
            m.attempts_unacked,
            m.duplicates,
            u64::from(r.saturated),
        ] {
            self.word(n);
        }
    }
}

#[test]
fn paper_grid_evaluations_match_the_pinned_digest() {
    let grid = ParamGrid::paper();
    let base = SimOptions::paper(0);
    let table = AnalyticTable::new(base.channel);
    let mut digest = Fnv::new();
    for traffic in [
        TrafficModel::Periodic,
        TrafficModel::Poisson,
        TrafficModel::Saturating,
    ] {
        let options = SimOptions {
            packets: PACKETS,
            traffic,
            ..base.clone()
        };
        for config in grid.iter() {
            let (metrics, report) = table.lookup_or_eval(&config, &options, || {
                LinkBudget::compute(&options.channel, config.power, config.distance)
            });
            digest.evaluation(&metrics, &report);
        }
    }
    assert_eq!(digest.0, 0xa1ec_50c4_3a54_998a, "digest {:#018x}", digest.0);
}
