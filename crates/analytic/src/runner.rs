//! One single-link run under any of the three engines.
//!
//! The campaign runner, the serve engine and the experiments all ask the
//! same question — "these metrics for this configuration, engine, packet
//! count and seed" — so they all ask it here. An [`EngineRunner`] pins the
//! channel and traffic model and carries the two memo tables keyed to that
//! channel: the link-budget table the sampling engines draw from and the
//! analytic link-stage memo. [`EngineRunner::analytic_scan`] asks the
//! same question of every configuration of a grid at once.

use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::Arc;

use wsn_link_sim::fast::FastLinkSimulation;
use wsn_link_sim::metrics::LinkMetrics;
use wsn_link_sim::simulation::{LinkSimulation, SimOptions};
use wsn_link_sim::traffic::TrafficModel;
use wsn_models::optimize::{GridScan, Metric};
use wsn_params::config::StackConfig;
use wsn_params::grid::ParamGrid;
use wsn_radio::budget::LinkBudgetTable;
use wsn_radio::channel::ChannelConfig;
use wsn_sim_engine::mode::EngineMode;

use crate::table::AnalyticTable;
use crate::{link_stage, queue_stage, AnalyticOutcome, LinkStage};

/// Runs single links on one channel and traffic model.
#[derive(Debug, Clone)]
pub struct EngineRunner {
    channel: ChannelConfig,
    traffic: TrafficModel,
    budgets: Arc<LinkBudgetTable>,
    analytic: Arc<AnalyticTable>,
}

impl EngineRunner {
    /// A runner with empty memo tables.
    pub fn new(channel: ChannelConfig, traffic: TrafficModel) -> Self {
        Self::with_analytic(channel, traffic, Arc::new(AnalyticTable::new(channel)))
    }

    /// A runner with an empty budget table that shares `analytic`. The
    /// memo is consulted only while its channel is `channel`.
    pub fn with_analytic(
        channel: ChannelConfig,
        traffic: TrafficModel,
        analytic: Arc<AnalyticTable>,
    ) -> Self {
        EngineRunner {
            channel,
            traffic,
            budgets: Arc::new(LinkBudgetTable::new(channel)),
            analytic,
        }
    }

    /// The link-budget memo, for prewarming before [`fork`](Self::fork).
    pub fn budgets(&self) -> &LinkBudgetTable {
        &self.budgets
    }

    /// A runner for one worker thread: a private copy of the budget table,
    /// so no lock is shared mid-run, and the same analytic memo.
    pub fn fork(&self) -> Self {
        EngineRunner {
            budgets: Arc::new(self.budgets.clone_table()),
            ..self.clone()
        }
    }

    fn options(&self, packets: u64, seed: u64) -> SimOptions {
        SimOptions {
            packets,
            channel: self.channel,
            traffic: self.traffic,
            ..SimOptions::paper(seed)
        }
    }

    /// Runs `config` for `packets` packets on `engine`. The golden engine
    /// draws every stream from `seed`; the fast engine derives its streams
    /// from `(config, seed)`; the analytic engine ignores `seed`.
    pub fn run(
        &self,
        engine: EngineMode,
        config: StackConfig,
        packets: u64,
        seed: u64,
    ) -> LinkMetrics {
        let options = self.options(packets, seed);
        match engine {
            EngineMode::Golden => LinkSimulation::new(config, options)
                .with_budget_table(Arc::clone(&self.budgets))
                .run()
                .metrics()
                .clone(),
            EngineMode::Fast => FastLinkSimulation::new(config, options)
                .with_budget_table(Arc::clone(&self.budgets))
                .run()
                .into_metrics(),
            EngineMode::Analytic => self.analytic(config, packets).into_metrics(),
        }
    }

    /// One closed-form evaluation, with its report, through the memo.
    pub fn analytic(&self, config: StackConfig, packets: u64) -> AnalyticOutcome {
        let options = self.options(packets, 0);
        let (metrics, report) = queue_stage(&config, &options, &self.link_stage(&config));
        AnalyticOutcome {
            config,
            metrics,
            report,
        }
    }

    /// The analytic link stage of `config`, through the memo while it is on
    /// this runner's channel.
    fn link_stage(&self, config: &StackConfig) -> LinkStage {
        let budget = || self.budgets.budget(config.power, config.distance);
        if *self.analytic.config() == self.channel {
            self.analytic.stage(config, budget)
        } else {
            link_stage(config, &self.channel, budget())
        }
    }

    /// The analytic engine at `packets` packets as a [`GridScan`].
    pub fn analytic_scan(&self, packets: u64) -> AnalyticScan<'_> {
        AnalyticScan {
            runner: self,
            packets,
        }
    }
}

/// The analytic engine at one packet count as a [`GridScan`]: each score
/// is [`EngineRunner::analytic`]'s metrics, bit for bit, but a scan takes
/// each link stage from the runner's memo once per link tuple of
/// [`ParamGrid::walk`] and runs only the queue stage per configuration.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticScan<'a> {
    runner: &'a EngineRunner,
    packets: u64,
}

impl AnalyticScan<'_> {
    /// The metrics of one configuration, through the memo.
    pub fn metrics(&self, config: StackConfig) -> LinkMetrics {
        self.runner.analytic(config, self.packets).into_metrics()
    }
}

impl GridScan for AnalyticScan<'_> {
    type Score = LinkMetrics;
    type Stop = Infallible;

    fn value(score: &LinkMetrics, metric: Metric) -> f64 {
        match metric {
            Metric::Energy => score.u_eng_uj_per_bit,
            Metric::Goodput => -score.goodput_bps,
            Metric::Delay => score.delay_mean_ms,
            Metric::Loss => score.plr_total(),
        }
    }

    fn scan<B>(
        &self,
        grid: &ParamGrid,
        mut visit: impl FnMut(&StackConfig, &LinkMetrics) -> ControlFlow<B>,
    ) -> Result<ControlFlow<B>, Infallible> {
        let options = self.runner.options(self.packets, 0);
        Ok(grid.walk(
            |link| self.runner.link_stage(link),
            |config, link| visit(config, &queue_stage(config, &options, link).0),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PACKETS: u64 = 400;

    /// Every number of a metric set, floats as their bits.
    fn bits(m: &LinkMetrics) -> Vec<u64> {
        let floats = [
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
        ];
        let counts = [
            m.generated,
            m.queue_dropped,
            m.radio_lost,
            m.delivered,
            m.acked,
            m.residual,
            m.attempts,
            m.attempts_unacked,
            m.duplicates,
        ];
        floats.iter().map(|x| x.to_bits()).chain(counts).collect()
    }

    #[test]
    fn analytic_scan_equals_per_config_runs_bit_for_bit() {
        let grid = ParamGrid::paper();
        let hallway = ChannelConfig::paper_hallway();
        let cases = [
            (hallway, TrafficModel::Periodic),
            (hallway, TrafficModel::Poisson),
            (hallway, TrafficModel::Saturating),
            (ChannelConfig::case_study(), TrafficModel::Saturating),
        ];
        std::thread::scope(|s| {
            for (channel, traffic) in cases {
                let grid = &grid;
                s.spawn(move || {
                    // The reference runs on a runner of its own, so it
                    // computes every link stage itself.
                    let scanner = EngineRunner::new(channel, traffic);
                    let reference = EngineRunner::new(channel, traffic);
                    let mut configs = grid.iter();
                    let Ok(flow) = scanner
                        .analytic_scan(PACKETS)
                        .scan(grid, |config, metrics| {
                            assert_eq!(Some(*config), configs.next());
                            let expected = reference.analytic(*config, PACKETS).into_metrics();
                            assert_eq!(bits(metrics), bits(&expected), "{config} {traffic:?}");
                            ControlFlow::<()>::Continue(())
                        });
                    assert_eq!(flow, ControlFlow::Continue(()));
                    assert!(configs.next().is_none(), "the scan visits the whole grid");
                    // One memoized link stage per link tuple.
                    assert_eq!(scanner.analytic.len(), grid.len() / 14);
                });
            }
        });
    }

    #[test]
    fn analytic_scan_stops_at_the_first_break() {
        let grid = ParamGrid::paper();
        let runner = EngineRunner::new(ChannelConfig::paper_hallway(), TrafficModel::Periodic);
        let mut visited = 0usize;
        let Ok(flow) = runner.analytic_scan(PACKETS).scan(&grid, |config, _| {
            visited += 1;
            if visited == 100 {
                ControlFlow::Break(*config)
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(flow, ControlFlow::Break(grid.config_at(99)));
        assert_eq!(visited, 100);
        // The winner's re-render is a memo hit: the scan stored the link
        // stages of the tuples it reached, and no more.
        assert_eq!(runner.analytic.len(), grid.payloads.len());
        runner.analytic(grid.config_at(99), PACKETS);
        assert_eq!(runner.analytic.len(), grid.payloads.len());
    }
}
