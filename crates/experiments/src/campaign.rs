//! The experiment campaign runner: simulates sets of configurations with
//! per-configuration derived seeds, optionally across threads.
//!
//! Results stream **in configuration order** to a [`CampaignSink`]. This
//! is the one parallel runner for every engine: workers claim chunks of
//! consecutive configurations from a lock-free atomic index and hand
//! finished chunks to a reorder buffer that may hold at most
//! `2 × threads` chunks, so peak memory is O(threads × chunk) regardless
//! of grid size. The chunk is one configuration on the golden engine and
//! 64 on the fast and analytic engines. The historical collect-everything
//! API ([`Campaign::run_configs`]) remains as a thin wrapper over a
//! [`CollectSink`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use serde::{Deserialize, Serialize};

use wsn_analytic::runner::EngineRunner;
use wsn_analytic::table::AnalyticTable;
use wsn_link_sim::metrics::LinkMetrics;
use wsn_link_sim::traffic::TrafficModel;
use wsn_params::config::StackConfig;
use wsn_params::grid::ParamGrid;
use wsn_radio::channel::ChannelConfig;
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

    /// The runner of one campaign run: a fresh link-budget memo on the
    /// campaign channel and the campaign's shared analytic memo.
    fn runner(&self) -> EngineRunner {
        EngineRunner::with_analytic(self.channel, self.traffic, Arc::clone(&self.analytic))
    }

    /// The seed the configuration at grid position `index` runs with: the
    /// golden engine derives one per index from the campaign seed, the
    /// fast engine takes the campaign seed verbatim (its streams derive
    /// from `(config, seed)` inside the engine, see
    /// [`wsn_link_sim::fast::fast_seed`]), and the analytic engine ignores
    /// it. Every consumer of campaign results that needs the seed — shard
    /// warm-up of a serve cache included — asks here.
    pub fn seed_for(&self, index: u64) -> u64 {
        match self.engine {
            EngineMode::Golden => RngFactory::new(self.seed).derive(index).seed(),
            EngineMode::Fast | EngineMode::Analytic => self.seed,
        }
    }

    /// Simulates one configuration (with the seed it would get inside a
    /// grid run at `index`).
    pub fn run_one(&self, config: StackConfig, index: u64) -> ConfigResult {
        self.run_one_shared(config, index, &self.runner())
    }

    /// The worker body: one configuration on the run's `runner`.
    fn run_one_shared(
        &self,
        config: StackConfig,
        index: u64,
        runner: &EngineRunner,
    ) -> ConfigResult {
        ConfigResult {
            config,
            metrics: runner.run(self.engine, config, self.packets, self.seed_for(index)),
        }
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
    /// Work distribution is an atomic claim index handing out chunks of
    /// consecutive configurations; in-order delivery uses a reorder buffer
    /// bounded by `2 × threads` chunks — workers that race too far ahead of
    /// the slowest in-flight chunk wait, so peak memory is
    /// O(threads × chunk), independent of `configs.len()`. A span no larger
    /// than one chunk runs inline on the caller's thread.
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
        let chunk = claim_chunk(self.engine);
        let threads = self.threads.min(total.div_ceil(chunk)).max(1);
        let runner = self.runner();

        if threads <= 1 || total < 4 {
            for (i, &config) in configs.iter().enumerate() {
                let result = self.run_one_shared(config, (base + i) as u64, &runner);
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
        // The analytic engine never reads the budget table, so it skips the
        // prewarm and the per-worker copies.
        let analytic = self.engine == EngineMode::Analytic;
        if !analytic {
            runner
                .budgets()
                .prewarm(configs.iter().map(|c| (c.power, c.distance)));
        }

        // Workers that finish ahead of the in-order frontier may claim at
        // most `window` configs past it before waiting, which bounds the
        // reorder buffer. Chunks start at multiples of `chunk` and the
        // frontier moves a whole chunk at a time, so at most `2 × threads`
        // chunks are ever pending.
        let window = threads * 2 * chunk;
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
                    // Per-worker runner: a private (pre-warmed) budget table.
                    let local = if analytic {
                        runner.clone()
                    } else {
                        runner.fork()
                    };
                    let mut finished = Vec::with_capacity(chunk);
                    loop {
                        let start = next_claim.fetch_add(chunk, Ordering::Relaxed);
                        if start >= total {
                            return;
                        }
                        // Throttle: don't run more than `window` ahead of
                        // the delivery frontier.
                        {
                            let guard = delivery.lock().expect("delivery lock");
                            let _unused = frontier_moved
                                .wait_while(guard, |d| start >= d.next_deliver + window)
                                .expect("delivery lock");
                        }
                        let end = (start + chunk).min(total);
                        for (i, &config) in (start..end).zip(&configs[start..end]) {
                            let result = self.run_one_shared(config, (base + i) as u64, &local);
                            finished.push((i, result));
                        }
                        let mut d = delivery.lock().expect("delivery lock");
                        d.pending.extend(finished.drain(..));
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

    /// Simulates every configuration of a grid.
    pub fn run_grid(&self, grid: &ParamGrid) -> Vec<ConfigResult> {
        let configs: Vec<StackConfig> = grid.iter().collect();
        self.run_configs(&configs)
    }
}

/// Configurations a worker claims at once on `engine`. A golden run costs
/// tens of microseconds or more, so claiming one at a time keeps the
/// reorder window tight; a fast or analytic run costs a few microseconds,
/// where a claim, a reorder insert and a wake per configuration would cost
/// as much as the run itself.
fn claim_chunk(engine: EngineMode) -> usize {
    match engine {
        EngineMode::Golden => 1,
        EngineMode::Fast | EngineMode::Analytic => 64,
    }
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
    fn every_engine_streams_in_order_within_its_claim_window() {
        // 1,024 configs: more than the 2 × threads chunks of 64 the fast
        // and analytic engines may hold, so each engine's bound is
        // exercised rather than trivially satisfied (the 8-config grid of
        // the other parallel tests runs those engines inline).
        let grid = ParamGrid {
            distances_m: vec![10.0, 20.0, 30.0, 35.0],
            power_levels: vec![3, 7, 11, 15, 19, 23, 27, 31],
            max_tries: vec![1, 3],
            retry_delays_ms: vec![0, 30],
            queue_caps: vec![1, 30],
            packet_intervals_ms: vec![50, 100],
            payloads: vec![20, 110],
        };
        let configs: Vec<StackConfig> = grid.iter().collect();
        assert_eq!(configs.len(), 1024);
        for engine in EngineMode::ALL {
            let campaign = Campaign {
                packets: 30,
                threads: 4,
                ..Campaign::new(Scale::Bench)
            }
            .with_engine(engine);
            let bound = campaign.threads * 2 * claim_chunk(engine);
            assert!(
                bound < configs.len(),
                "{engine:?}: the window covers the grid"
            );
            let mut indices = Vec::new();
            let mut results = Vec::new();
            let mut sink = crate::stream::SinkFn::new(|i: usize, r: &ConfigResult| {
                indices.push(i);
                results.push(r.clone());
            });
            let stats = campaign.run_streamed(&configs, &mut sink);
            assert_eq!(
                indices,
                (0..configs.len()).collect::<Vec<_>>(),
                "{engine:?}"
            );
            assert_eq!(stats.delivered, configs.len());
            assert!(
                stats.max_pending <= bound,
                "{engine:?}: max_pending {} exceeds 2 × threads × chunk = {bound}",
                stats.max_pending
            );
            // Chunked claims change who runs a config, never its result.
            // A fresh campaign, so the analytic engine recomputes rather
            // than reading the memo the parallel run filled.
            let serial = Campaign {
                packets: 30,
                threads: 1,
                ..Campaign::new(Scale::Bench)
            }
            .with_engine(engine);
            assert!(
                results == serial.run_configs(&configs),
                "{engine:?}: parallel results differ from serial"
            );
        }
    }

    #[test]
    fn per_config_seeds_differ_but_are_stable() {
        let golden = Campaign::new(Scale::Quick);
        let (a, b) = (golden.seed_for(0), golden.seed_for(1));
        assert_ne!(a, b);
        assert_eq!(a, golden.seed_for(0));
        // The fast and analytic engines take the campaign seed verbatim.
        for engine in [EngineMode::Fast, EngineMode::Analytic] {
            let campaign = golden.clone().with_engine(engine);
            assert_eq!(campaign.seed_for(0), campaign.seed);
            assert_eq!(campaign.seed_for(7), campaign.seed);
        }
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
        // The memo holds one link stage per (d, Ptx, NmaxTries, Dretry, lD).
        let link_tuples: std::collections::HashSet<_> = grid
            .iter()
            .map(|c| {
                (
                    c.distance.meters().to_bits(),
                    c.power,
                    c.max_tries,
                    c.retry_delay,
                    c.payload,
                )
            })
            .collect();
        let cold = campaign.run_grid(&grid);
        assert_eq!(campaign.analytic.len(), link_tuples.len());
        // The second sweep is answered from the memo table — and must be
        // indistinguishable from recomputation.
        let warm = campaign.run_grid(&grid);
        assert_eq!(cold, warm);
        assert_eq!(campaign.analytic.len(), link_tuples.len());
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
