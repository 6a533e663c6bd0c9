//! A shared memo of analytic link stages.
//!
//! The evaluator splits at the queue: [`link_stage`] reads only the link
//! (distance, power, `NmaxTries`, `Dretry`, payload) and the channel, and
//! [`queue_stage`] adds `Tpkt`, `Qmax`, the traffic model and the packet
//! count in closed form. Both are pure — the campaign seed never enters
//! them — so memoizing the link stage is semantically invisible: a hit is
//! one lookup plus the queue stage, bit-identical to a recomputation. The
//! paper grid's 48,384 configurations share 3,456 link stages (576 per
//! distance), so a whole-grid scan pays for each link stage once and
//! every other configuration, traffic model or packet count is a hit. A
//! grid scan ([`AnalyticScan`](crate::runner::AnalyticScan)) asks the
//! table once per link tuple, not once per configuration.
//!
//! Like [`LinkBudgetTable`](wsn_radio::budget::LinkBudgetTable), the table
//! is pinned to one [`ChannelConfig`]; callers must check
//! [`AnalyticTable::config`] before trusting a lookup for their channel
//! (an [`EngineRunner`](crate::runner::EngineRunner) does).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::RwLock;

use wsn_link_sim::metrics::LinkMetrics;
use wsn_link_sim::simulation::SimOptions;
use wsn_params::config::StackConfig;
use wsn_radio::budget::LinkBudget;
use wsn_radio::channel::ChannelConfig;
use wsn_sim_engine::rng::splitmix64;

use crate::{link_stage, queue_stage, AnalyticReport, LinkStage};

/// Entry cap; past it the table is cleared wholesale. The whole paper grid
/// needs 3,456 link stages, so eviction is a backstop against unbounded
/// serve workloads (arbitrary distances and payloads), not a tuning knob.
const MAX_ENTRIES: usize = 16_384;

/// A splitmix64-chained hasher: the keys are already uniformly-distributed
/// words (float bits, counters), so one multiply-xor round per word
/// replaces SipHash without losing spread — and the memo lookup is on the
/// bench-critical path.
#[derive(Default)]
pub struct SplitmixHasher(u64);

impl Hasher for SplitmixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = splitmix64(self.0 ^ u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = splitmix64(self.0 ^ v);
    }
}

/// The identity of one link stage: the five link words of the
/// configuration (the same canonicalization `fast_seed` hashes). `Tpkt`,
/// `Qmax`, packets, traffic, seed, horizon and trajectory are excluded
/// because the link stage does not read them.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    words: [u64; 5],
}

fn key_of(config: &StackConfig) -> Key {
    Key {
        words: [
            config.distance.meters().to_bits(),
            config.power.level() as u64,
            config.max_tries.get() as u64,
            config.retry_delay.millis() as u64,
            config.payload.bytes() as u64,
        ],
    }
}

/// A concurrent memo of link stages for one channel.
pub struct AnalyticTable {
    config: ChannelConfig,
    entries: RwLock<HashMap<Key, LinkStage, BuildHasherDefault<SplitmixHasher>>>,
}

impl AnalyticTable {
    /// An empty table pinned to `config`.
    pub fn new(config: ChannelConfig) -> Self {
        AnalyticTable {
            config,
            entries: RwLock::new(HashMap::default()),
        }
    }

    /// The channel this table's entries were evaluated under.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// Number of memoized link stages.
    pub fn len(&self) -> usize {
        self.entries.read().expect("analytic table poisoned").len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The link stage of `config`'s link tuple: memoized, or computed
    /// from `budget()` and stored on first sight.
    ///
    /// `budget` is only called on a miss, and must describe `config`'s
    /// operating point under [`AnalyticTable::config`].
    pub fn stage(&self, config: &StackConfig, budget: impl FnOnce() -> LinkBudget) -> LinkStage {
        let key = key_of(config);
        let hit = self
            .entries
            .read()
            .expect("analytic table poisoned")
            .get(&key)
            .copied();
        hit.unwrap_or_else(|| {
            let link = link_stage(config, &self.config, budget());
            let mut entries = self.entries.write().expect("analytic table poisoned");
            if entries.len() >= MAX_ENTRIES {
                entries.clear();
            }
            entries.insert(key, link);
            link
        })
    }

    /// Evaluates `config` under `options`, whose channel must be the
    /// table's: [`stage`](Self::stage), then the closed-form
    /// [`queue_stage`]. A warm lookup never computes a link budget.
    pub fn lookup_or_eval(
        &self,
        config: &StackConfig,
        options: &SimOptions,
        budget: impl FnOnce() -> LinkBudget,
    ) -> (LinkMetrics, AnalyticReport) {
        queue_stage(config, options, &self.stage(config, budget))
    }
}

impl std::fmt::Debug for AnalyticTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalyticTable")
            .field("config", &self.config)
            .field("entries", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use wsn_link_sim::traffic::TrafficModel;
    use wsn_params::types::{MaxTries, PacketInterval, PayloadSize, QueueCap, RetryDelay};

    fn cfg(power: u8, dist: f64) -> StackConfig {
        StackConfig::builder()
            .distance_m(dist)
            .power_level(power)
            .build()
            .unwrap()
    }

    fn budget_for(options: &SimOptions, config: &StackConfig) -> LinkBudget {
        LinkBudget::compute(&options.channel, config.power, config.distance)
    }

    #[test]
    fn lookup_memoizes_and_repeats_bit_identically() {
        let options = SimOptions::quick(200);
        let table = AnalyticTable::new(options.channel);
        let config = cfg(23, 30.0);
        let budget = budget_for(&options, &config);
        let first = table.lookup_or_eval(&config, &options, || budget);
        assert_eq!(table.len(), 1);
        let second = table.lookup_or_eval(&config, &options, || budget);
        assert_eq!(table.len(), 1);
        assert_eq!(first, second);
    }

    #[test]
    fn key_distinguishes_every_semantic_dimension() {
        let options = SimOptions::quick(200);
        let table = AnalyticTable::new(options.channel);
        let base = cfg(23, 30.0);
        let budget = budget_for(&options, &base);
        let reference = table.lookup_or_eval(&base, &options, || budget);
        assert_eq!(table.len(), 1);

        // Tpkt, Qmax, the packet budget and the traffic model share the
        // link stage, yet each still yields its own metrics.
        let mut queue_side = Vec::new();
        let mut slower = base;
        slower.packet_interval = PacketInterval::from_millis(200).unwrap();
        queue_side.push((slower, options.clone()));
        let mut shallow = base;
        shallow.queue_cap = QueueCap::new(1).unwrap();
        queue_side.push((shallow, options.clone()));
        queue_side.push((base, SimOptions::quick(400)));
        queue_side.push((base, options.clone().with_traffic(TrafficModel::Poisson)));
        queue_side.push((base, options.clone().with_traffic(TrafficModel::Saturating)));
        for (config, opts) in &queue_side {
            let shared = table.lookup_or_eval(config, opts, || panic!("link stage is memoized"));
            assert_ne!(shared, reference, "{config} must not reuse the metrics");
            assert_eq!(
                shared,
                evaluate(config, opts, budget),
                "hit == recomputation"
            );
        }
        assert_eq!(table.len(), 1);
        // A different seed is the same evaluation.
        let reseeded = options.clone().with_seed(77);
        assert_eq!(table.lookup_or_eval(&base, &reseeded, || budget), reference);
        assert_eq!(table.len(), 1);

        // Each link word claims its own slot.
        let mut link_side = Vec::new();
        link_side.push(cfg(23, 35.0));
        link_side.push(cfg(31, 30.0));
        let mut retried = base;
        retried.max_tries = MaxTries::new(8).unwrap();
        link_side.push(retried);
        let mut delayed = base;
        delayed.retry_delay = RetryDelay::from_millis(100);
        link_side.push(delayed);
        let mut short = base;
        short.payload = PayloadSize::new(5).unwrap();
        link_side.push(short);
        for (i, config) in link_side.iter().enumerate() {
            table.lookup_or_eval(config, &options, || budget_for(&options, config));
            assert_eq!(table.len(), i + 2, "{config} needs its own link stage");
        }
    }
}
