//! One single-link run under any of the three engines.
//!
//! The campaign runner, the serve engine and the experiments all ask the
//! same question — "these metrics for this configuration, engine, packet
//! count and seed" — so they all ask it here. An [`EngineRunner`] pins the
//! channel and traffic model and carries the two memo tables keyed to that
//! channel: the link-budget table the sampling engines draw from and the
//! analytic link-stage memo.

use std::sync::Arc;

use wsn_link_sim::fast::FastLinkSimulation;
use wsn_link_sim::metrics::LinkMetrics;
use wsn_link_sim::simulation::{LinkSimulation, SimOptions};
use wsn_link_sim::traffic::TrafficModel;
use wsn_params::config::StackConfig;
use wsn_radio::budget::LinkBudgetTable;
use wsn_radio::channel::ChannelConfig;
use wsn_sim_engine::executor::ExecStats;
use wsn_sim_engine::mode::EngineMode;

use crate::table::AnalyticTable;
use crate::{AnalyticLinkSimulation, AnalyticOutcome};

/// What one [`EngineRunner::run`] measured.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The run's summary metrics.
    pub metrics: LinkMetrics,
    /// Event-loop statistics; only the golden engine has an event loop.
    pub exec: Option<ExecStats>,
}

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
    ) -> RunOutcome {
        let options = self.options(packets, seed);
        match engine {
            EngineMode::Golden => {
                let outcome = LinkSimulation::new(config, options)
                    .with_budget_table(Arc::clone(&self.budgets))
                    .run();
                RunOutcome {
                    metrics: outcome.metrics().clone(),
                    exec: Some(outcome.exec),
                }
            }
            EngineMode::Fast => RunOutcome {
                metrics: FastLinkSimulation::new(config, options)
                    .with_budget_table(Arc::clone(&self.budgets))
                    .run()
                    .into_metrics(),
                exec: None,
            },
            EngineMode::Analytic => RunOutcome {
                metrics: self.analytic(config, packets).into_metrics(),
                exec: None,
            },
        }
    }

    /// One closed-form evaluation, with its report, through the memo.
    pub fn analytic(&self, config: StackConfig, packets: u64) -> AnalyticOutcome {
        AnalyticLinkSimulation::new(config, self.options(packets, 0))
            .with_budget_table(Arc::clone(&self.budgets))
            .with_cache(Arc::clone(&self.analytic))
            .run()
    }
}
