//! The experiment campaign runner: simulates sets of configurations with
//! per-configuration derived seeds, optionally across threads.
//!
//! Results stream **in configuration order** to a
//! [`CampaignSink`]; workers claim work from a
//! lock-free atomic index and hand finished results to a bounded reorder
//! buffer, so peak memory is O(threads) regardless of grid size. The
//! historical collect-everything API ([`Campaign::run_configs`]) remains as
//! a thin wrapper over a
//! [`CollectSink`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use serde::{Deserialize, Serialize};

use wsn_analytic::table::AnalyticTable;
use wsn_analytic::AnalyticLinkSimulation;
use wsn_link_sim::fast::FastLinkSimulation;
use wsn_link_sim::metrics::LinkMetrics;
use wsn_link_sim::simulation::{LinkSimulation, SimOptions};
use wsn_link_sim::traffic::TrafficModel;
use wsn_params::config::StackConfig;
use wsn_params::grid::ParamGrid;
use wsn_radio::budget::LinkBudgetTable;
use wsn_radio::channel::ChannelConfig;
use wsn_sim_engine::batch::BatchExecutor;
use wsn_sim_engine::mode::EngineMode;
use wsn_sim_engine::rng::RngFactory;

use crate::stream::{CampaignSink, CollectSink, StreamStats};

/// How much measurement to buy per experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Tiny packet counts for benchmark harnesses and smoke tests.
    Bench,
    /// Reduced packet counts; sub-minute figure regeneration.
    Quick,
    /// The paper's protocol: 4500 packets per configuration.
    Full,
}

impl Scale {
    /// Packets per configuration at this scale.
    pub fn packets(self) -> u64 {
        match self {
            Scale::Bench => 60,
            Scale::Quick => 400,
            Scale::Full => 4500,
        }
    }
}

/// One `(configuration, metrics)` measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigResult {
    /// The simulated configuration.
    pub config: StackConfig,
    /// Its measured summary metrics.
    pub metrics: LinkMetrics,
}

/// Campaign settings shared by all configurations of one run.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Base experiment seed; each configuration derives its own streams.
    pub seed: u64,
    /// Packets per configuration.
    pub packets: u64,
    /// Propagation environment.
    pub channel: ChannelConfig,
    /// Arrival process.
    pub traffic: TrafficModel,
    /// Worker threads (1 = run inline).
    pub threads: usize,
    /// Simulation backend: the bit-reproducible golden engine (default),
    /// the statistically-equivalent fast engine, or the closed-form
    /// analytic engine.
    pub engine: EngineMode,
    /// Result memo for the analytic engine, shared across runs of this
    /// campaign value (the analytic evaluator is seed-free and
    /// deterministic, so reuse is bit-identical to recomputation). The
    /// sampling engines never touch it. Lookups are skipped automatically
    /// if [`Campaign::channel`] is reassigned away from the table's
    /// channel; use [`Campaign::with_channel`] to re-key it instead.
    pub analytic: Arc<AnalyticTable>,
}

impl PartialEq for Campaign {
    /// Campaign identity is its six run-defining settings; the analytic
    /// memo is a cache and never affects results.
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed
            && self.packets == other.packets
            && self.channel == other.channel
            && self.traffic == other.traffic
            && self.threads == other.threads
            && self.engine == other.engine
    }
}

impl Campaign {
    /// A campaign at the given scale on the paper's hallway channel.
    pub fn new(scale: Scale) -> Self {
        let channel = ChannelConfig::paper_hallway();
        Campaign {
            seed: 0x5EED,
            packets: scale.packets(),
            channel,
            traffic: TrafficModel::Periodic,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            engine: EngineMode::Golden,
            analytic: Arc::new(AnalyticTable::new(channel)),
        }
    }

    /// Returns the campaign with a different simulation engine.
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// Returns the campaign with a different channel (builder-style),
    /// re-keying the analytic memo to it.
    pub fn with_channel(mut self, channel: ChannelConfig) -> Self {
        self.channel = channel;
        self.analytic = Arc::new(AnalyticTable::new(channel));
        self
    }

    /// Returns the campaign with a different traffic model.
    pub fn with_traffic(mut self, traffic: TrafficModel) -> Self {
        self.traffic = traffic;
        self
    }

    /// Returns the campaign with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// State shared by every configuration of one campaign run, computed
    /// once instead of per configuration: the base RNG factory (seed
    /// derivation starts from it) and the memoized link-budget table.
    fn shared(&self) -> SharedRun {
        SharedRun {
            base: RngFactory::new(self.seed),
            budgets: Arc::new(LinkBudgetTable::new(self.channel)),
        }
    }

    /// Simulation options for the configuration at `index`, deriving its
    /// seed from the run's `base` factory (hoisted out of the
    /// per-configuration path — see [`Campaign::shared`]).
    fn options_with(&self, base: RngFactory, index: u64) -> SimOptions {
        SimOptions {
            packets: self.packets,
            seed: base.derive(index).seed(),
            channel: self.channel,
            traffic: self.traffic,
            record_packets: false,
            horizon: None,
            trajectory: wsn_params::motion::Trajectory::Stationary,
        }
    }

    /// Simulates one configuration (with the seed it would get inside a
    /// grid run at `index`).
    ///
    /// Fast-engine runs ignore `index`: their streams derive from
    /// `(config, seed)` alone (see [`wsn_link_sim::fast::fast_seed`]), so a
    /// configuration's fast result is the same at any grid position.
    pub fn run_one(&self, config: StackConfig, index: u64) -> ConfigResult {
        self.run_one_shared(config, index, &self.shared())
    }

    /// The worker body: one configuration, using the run-shared state.
    fn run_one_shared(&self, config: StackConfig, index: u64, shared: &SharedRun) -> ConfigResult {
        match self.engine {
            EngineMode::Golden => {
                let outcome = LinkSimulation::new(config, self.options_with(shared.base, index))
                    .with_budget_table(Arc::clone(&shared.budgets))
                    .run();
                ConfigResult {
                    config,
                    metrics: outcome.metrics().clone(),
                }
            }
            EngineMode::Fast => self.run_one_fast(config, &shared.budgets),
            EngineMode::Analytic => self.run_one_analytic(config, &shared.budgets),
        }
    }

    /// One configuration on the fast engine. The options carry the
    /// campaign seed verbatim; per-configuration stream derivation happens
    /// inside the fast engine via `fast_seed(config, seed)`.
    fn run_one_fast(&self, config: StackConfig, budgets: &Arc<LinkBudgetTable>) -> ConfigResult {
        let options = SimOptions {
            packets: self.packets,
            seed: self.seed,
            channel: self.channel,
            traffic: self.traffic,
            record_packets: false,
            horizon: None,
            trajectory: wsn_params::motion::Trajectory::Stationary,
        };
        let outcome = FastLinkSimulation::new(config, options)
            .with_budget_table(Arc::clone(budgets))
            .run();
        ConfigResult {
            config,
            metrics: outcome.into_metrics(),
        }
    }

    /// One configuration on the closed-form analytic engine. The seed is
    /// carried but ignored (the evaluator is deterministic); repeated
    /// evaluations hit the campaign's shared [`AnalyticTable`] memo.
    ///
    /// The constructor and [`with_channel`](Self::with_channel) keep the
    /// memo keyed to the campaign channel, so the normal path goes
    /// straight to the table — a warm config costs one hash, one
    /// shared-lock read and one clone, with the link budget resolved only
    /// on a miss. The equality check guards direct field mutation of the
    /// `pub channel` (which bypasses the re-keying builder).
    fn run_one_analytic(
        &self,
        config: StackConfig,
        budgets: &Arc<LinkBudgetTable>,
    ) -> ConfigResult {
        let options = SimOptions {
            packets: self.packets,
            seed: self.seed,
            channel: self.channel,
            traffic: self.traffic,
            record_packets: false,
            horizon: None,
            trajectory: wsn_params::motion::Trajectory::Stationary,
        };
        let metrics = if *self.analytic.config() == self.channel {
            self.analytic
                .lookup_or_eval(&config, &options, || {
                    budgets.budget(config.power, config.distance)
                })
                .0
        } else {
            AnalyticLinkSimulation::new(config, options)
                .with_budget_table(Arc::clone(budgets))
                .run()
                .into_metrics()
        };
        ConfigResult { config, metrics }
    }

    /// Simulates every configuration in `configs`, preserving order.
    ///
    /// Compatibility wrapper: streams through a [`CollectSink`], so the
    /// whole result vector is held in memory. Prefer
    /// [`run_streamed`](Self::run_streamed) when results can be consumed
    /// incrementally.
    pub fn run_configs(&self, configs: &[StackConfig]) -> Vec<ConfigResult> {
        let mut sink = CollectSink::new();
        self.run_streamed(configs, &mut sink);
        sink.into_results()
    }

    /// Simulates every configuration in `configs`, delivering each result
    /// to `sink` in configuration order as soon as it (and all its
    /// predecessors) finish. Returns delivery statistics.
    ///
    /// Work distribution is an atomic claim index; in-order delivery uses a
    /// reorder buffer bounded by `2 × threads` entries — workers that race
    /// too far ahead of the slowest in-flight configuration wait, so peak
    /// memory is O(threads), independent of `configs.len()`.
    pub fn run_streamed<S: CampaignSink + Send>(
        &self,
        configs: &[StackConfig],
        sink: &mut S,
    ) -> StreamStats {
        self.run_span(configs, 0, sink)
    }

    /// Like [`run_streamed`](Self::run_streamed), but configuration `i` of
    /// the slice is treated as global index `base + i` for seed derivation
    /// and sink delivery. This is what shard runners use so a shard's
    /// results are bit-identical to the same span of a whole-grid run.
    pub fn run_span<S: CampaignSink + Send>(
        &self,
        configs: &[StackConfig],
        base: usize,
        sink: &mut S,
    ) -> StreamStats {
        let total = configs.len();
        let threads = self.threads.min(total).max(1);
        let shared = self.shared();

        if threads <= 1 || total < 4 {
            for (i, &config) in configs.iter().enumerate() {
                let result = self.run_one_shared(config, (base + i) as u64, &shared);
                sink.on_result(base + i, &result);
            }
            sink.on_complete(total);
            return StreamStats {
                delivered: total,
                max_pending: if total == 0 { 0 } else { 1 },
            };
        }

        // Populate the budget memo serially, before any worker exists:
        // each worker then gets its own fully-warm copy of the table and
        // never touches a shared lock mid-run. (The shared-`Mutex` table
        // was the cause of the campaign's *negative* thread scaling — at
        // sub-5 µs per fast config, even an uncontended lock per run
        // showed up; contended, it inverted the scaling curve.)
        shared
            .budgets
            .prewarm(configs.iter().map(|c| (c.power, c.distance)));

        if self.engine != EngineMode::Golden {
            return self.run_span_batch_parallel(configs, base, sink, threads, &shared);
        }

        // Workers that finish ahead of the in-order frontier may run at
        // most `window` configs past it before waiting, which bounds the
        // reorder buffer.
        let window = threads * 2;
        let next_claim = AtomicUsize::new(0);
        let delivery = Mutex::new(Delivery {
            next_deliver: 0,
            pending: BTreeMap::new(),
            max_pending: 0,
        });
        let frontier_moved = Condvar::new();
        // The sink itself stays outside worker reach between deliveries;
        // it is only touched under the delivery lock.
        let sink = Mutex::new(sink);

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    // Per-worker copy of the run-shared state: same seed
                    // derivation, private (pre-warmed) budget table.
                    let local = SharedRun {
                        base: shared.base,
                        budgets: Arc::new(shared.budgets.clone_table()),
                    };
                    loop {
                        let i = next_claim.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            return;
                        }
                        // Throttle: don't run more than `window` ahead of
                        // the delivery frontier.
                        {
                            let guard = delivery.lock().expect("delivery lock");
                            let _unused = frontier_moved
                                .wait_while(guard, |d| i >= d.next_deliver + window)
                                .expect("delivery lock");
                        }
                        let result = self.run_one_shared(configs[i], (base + i) as u64, &local);
                        let mut d = delivery.lock().expect("delivery lock");
                        d.pending.insert(i, result);
                        d.max_pending = d.max_pending.max(d.pending.len());
                        if d.pending.contains_key(&d.next_deliver) {
                            let mut out = sink.lock().expect("sink lock");
                            loop {
                                let due = d.next_deliver;
                                let Some(r) = d.pending.remove(&due) else {
                                    break;
                                };
                                out.on_result(base + due, &r);
                                d.next_deliver += 1;
                            }
                            drop(out);
                            drop(d);
                            frontier_moved.notify_all();
                        }
                    }
                });
            }
        });

        let d = delivery.into_inner().expect("threads joined");
        debug_assert_eq!(d.next_deliver, total, "every result was delivered");
        debug_assert!(d.pending.is_empty());
        let out = sink.into_inner().expect("threads joined");
        out.on_complete(total);
        StreamStats {
            delivered: total,
            max_pending: d.max_pending,
        }
    }

    /// The parallel span runner for the cheap engines (fast and
    /// analytic): a chunk-claiming [`BatchExecutor`] with one pre-warmed
    /// budget-table copy per worker, no condition variables and no mid-run
    /// locking. Results are collected and delivered to `sink` in order
    /// afterwards — at a few µs per config the reorder machinery of the
    /// golden path would cost more than the simulations, and holding
    /// `O(total)` summaries (a few hundred bytes each) is cheap. (The
    /// analytic workers do share the campaign's memo table; its `RwLock`
    /// is read-mostly and uncontended after first sight of a config.)
    fn run_span_batch_parallel<S: CampaignSink + Send>(
        &self,
        configs: &[StackConfig],
        base: usize,
        sink: &mut S,
        threads: usize,
        shared: &SharedRun,
    ) -> StreamStats {
        let total = configs.len();
        let exec = BatchExecutor::new(threads);
        let results = exec.map_init(
            configs,
            || Arc::new(shared.budgets.clone_table()),
            |budgets, _i, config| match self.engine {
                EngineMode::Fast => self.run_one_fast(*config, budgets),
                EngineMode::Analytic => self.run_one_analytic(*config, budgets),
                EngineMode::Golden => unreachable!("golden uses the reorder-window path"),
            },
        );
        for (i, result) in results.iter().enumerate() {
            sink.on_result(base + i, result);
        }
        sink.on_complete(total);
        StreamStats {
            delivered: total,
            max_pending: total,
        }
    }

    /// Simulates every configuration of a grid.
    pub fn run_grid(&self, grid: &ParamGrid) -> Vec<ConfigResult> {
        let configs: Vec<StackConfig> = grid.iter().collect();
        self.run_configs(&configs)
    }
}

/// Run-wide shared state: every configuration derives its seed from the
/// same base factory and draws link budgets from the same memo table.
struct SharedRun {
    base: RngFactory,
    budgets: Arc<LinkBudgetTable>,
}

/// In-order delivery state shared by workers.
struct Delivery {
    /// Next index due for the sink (the in-order frontier).
    next_deliver: usize,
    /// Finished results waiting for their predecessors.
    pending: BTreeMap<usize, ConfigResult>,
    /// High-water mark of `pending`, reported via [`StreamStats`].
    max_pending: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> ParamGrid {
        ParamGrid {
            distances_m: vec![20.0, 35.0],
            power_levels: vec![11, 31],
            max_tries: vec![1, 3],
            retry_delays_ms: vec![0],
            queue_caps: vec![30],
            packet_intervals_ms: vec![50],
            payloads: vec![50],
        }
    }

    #[test]
    fn grid_run_preserves_order_and_length() {
        let campaign = Campaign {
            packets: 60,
            threads: 4,
            ..Campaign::new(Scale::Quick)
        };
        let grid = tiny_grid();
        let results = campaign.run_grid(&grid);
        assert_eq!(results.len(), grid.len());
        for (r, expected) in results.iter().zip(grid.iter()) {
            assert_eq!(r.config, expected);
            assert!(r.metrics.conserves_packets());
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let grid = tiny_grid();
        let serial = Campaign {
            packets: 60,
            threads: 1,
            ..Campaign::new(Scale::Quick)
        }
        .run_grid(&grid);
        let parallel = Campaign {
            packets: 60,
            threads: 8,
            ..Campaign::new(Scale::Quick)
        }
        .run_grid(&grid);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn streamed_delivery_is_in_order_and_bounded() {
        // A grid much larger than the claim-ahead window, so the bound is
        // actually exercised rather than trivially satisfied.
        let grid = ParamGrid {
            distances_m: vec![10.0, 20.0, 30.0, 35.0],
            power_levels: vec![3, 7, 11, 31],
            max_tries: vec![1, 3],
            retry_delays_ms: vec![0],
            queue_caps: vec![30],
            packet_intervals_ms: vec![50],
            payloads: vec![50],
        };
        let configs: Vec<StackConfig> = grid.iter().collect();
        let campaign = Campaign {
            packets: 30,
            threads: 4,
            ..Campaign::new(Scale::Bench)
        };
        let mut indices = Vec::new();
        let mut sink = crate::stream::SinkFn::new(|i: usize, _r: &ConfigResult| indices.push(i));
        let stats = campaign.run_streamed(&configs, &mut sink);
        assert_eq!(indices, (0..configs.len()).collect::<Vec<_>>());
        assert_eq!(stats.delivered, configs.len());
        // Peak reorder-buffer occupancy is O(threads), not O(grid).
        assert!(
            stats.max_pending <= campaign.threads * 2,
            "max_pending {} exceeds window {}",
            stats.max_pending,
            campaign.threads * 2
        );
    }

    #[test]
    fn per_config_seeds_differ_but_are_stable() {
        let campaign = Campaign {
            packets: 60,
            ..Campaign::new(Scale::Quick)
        };
        let base = RngFactory::new(campaign.seed);
        let a = campaign.options_with(base, 0).seed;
        let b = campaign.options_with(base, 1).seed;
        assert_ne!(a, b);
        assert_eq!(a, campaign.options_with(base, 0).seed);
    }

    #[test]
    fn scale_packet_counts() {
        assert_eq!(Scale::Quick.packets(), 400);
        assert_eq!(Scale::Full.packets(), 4500);
    }

    #[test]
    fn fast_parallel_equals_serial() {
        let grid = tiny_grid();
        let serial = Campaign {
            packets: 60,
            threads: 1,
            ..Campaign::new(Scale::Quick)
        }
        .with_engine(EngineMode::Fast)
        .run_grid(&grid);
        let parallel = Campaign {
            packets: 60,
            threads: 8,
            ..Campaign::new(Scale::Quick)
        }
        .with_engine(EngineMode::Fast)
        .run_grid(&grid);
        assert_eq!(serial, parallel);
        for r in &serial {
            assert!(r.metrics.conserves_packets());
        }
    }

    #[test]
    fn fast_results_are_reproducible_and_index_independent() {
        let campaign = Campaign {
            packets: 60,
            threads: 1,
            ..Campaign::new(Scale::Quick)
        }
        .with_engine(EngineMode::Fast);
        let config = tiny_grid().iter().next().unwrap();
        // Grid position must not matter: fast streams derive from
        // (config, seed), not from the index.
        let at_0 = campaign.run_one(config, 0);
        let at_7 = campaign.run_one(config, 7);
        assert_eq!(at_0, at_7);
        // But the campaign seed must.
        let reseeded = campaign.clone().with_seed(99).run_one(config, 0);
        assert_ne!(at_0.metrics.goodput_bps, reseeded.metrics.goodput_bps);
    }

    #[test]
    fn analytic_parallel_equals_serial_and_is_seed_free() {
        let grid = tiny_grid();
        let serial = Campaign {
            packets: 60,
            threads: 1,
            ..Campaign::new(Scale::Quick)
        }
        .with_engine(EngineMode::Analytic)
        .run_grid(&grid);
        let parallel = Campaign {
            packets: 60,
            threads: 8,
            ..Campaign::new(Scale::Quick)
        }
        .with_engine(EngineMode::Analytic)
        .run_grid(&grid);
        assert_eq!(serial, parallel);
        for r in &serial {
            assert!(r.metrics.conserves_packets());
            assert!(r.metrics.goodput_bps > 0.0);
        }
        // The closed form has no random draws: re-seeding the campaign
        // changes nothing (unlike golden/fast, where it must).
        let reseeded = Campaign {
            packets: 60,
            threads: 1,
            ..Campaign::new(Scale::Quick)
        }
        .with_engine(EngineMode::Analytic)
        .with_seed(99)
        .run_grid(&grid);
        assert_eq!(serial, reseeded);
    }

    #[test]
    fn analytic_memo_survives_repeat_runs_bit_identically() {
        let grid = tiny_grid();
        let campaign = Campaign {
            packets: 60,
            threads: 1,
            ..Campaign::new(Scale::Quick)
        }
        .with_engine(EngineMode::Analytic);
        let cold = campaign.run_grid(&grid);
        assert_eq!(campaign.analytic.len(), grid.len());
        // The second sweep is answered from the memo table — and must be
        // indistinguishable from recomputation.
        let warm = campaign.run_grid(&grid);
        assert_eq!(cold, warm);
        assert_eq!(campaign.analytic.len(), grid.len());
    }

    #[test]
    fn engines_disagree_bitwise_but_agree_on_packet_conservation() {
        let grid = tiny_grid();
        let golden = Campaign {
            packets: 60,
            threads: 1,
            ..Campaign::new(Scale::Quick)
        }
        .run_grid(&grid);
        let fast = Campaign {
            packets: 60,
            threads: 1,
            ..Campaign::new(Scale::Quick)
        }
        .with_engine(EngineMode::Fast)
        .run_grid(&grid);
        assert_eq!(golden.len(), fast.len());
        // Different engines, different draw orders: bitwise equality would
        // mean the fast path secretly ran the golden one.
        assert!(golden
            .iter()
            .zip(&fast)
            .any(|(g, f)| g.metrics.goodput_bps != f.metrics.goodput_bps));
        for (g, f) in golden.iter().zip(&fast) {
            assert_eq!(g.config, f.config);
            assert!(f.metrics.conserves_packets());
        }
    }
}
