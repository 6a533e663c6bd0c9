//! A shared memo of analytic evaluations.
//!
//! The evaluator is a pure function of `(config, channel, traffic,
//! packets)` — the campaign seed never enters it — so caching results is
//! semantically invisible: a hit is bit-identical to a recomputation.
//! This table is what turns the analytic engine's "microseconds per
//! configuration" into "nanoseconds per repeat": grid scans, benchmark
//! reps and serve traffic all revisit the same configurations, and a
//! revisit is one hash and one clone.
//!
//! Like [`LinkBudgetTable`](wsn_radio::budget::LinkBudgetTable), the table
//! is pinned to one [`ChannelConfig`]; callers must check
//! [`AnalyticTable::config`] before trusting a lookup for their channel
//! ([`AnalyticLinkSimulation::run`](crate::AnalyticLinkSimulation::run),
//! which every [`EngineRunner`](crate::runner::EngineRunner) goes through,
//! does).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::RwLock;

use wsn_link_sim::metrics::LinkMetrics;
use wsn_link_sim::simulation::SimOptions;
use wsn_link_sim::traffic::TrafficModel;
use wsn_params::config::StackConfig;
use wsn_radio::budget::LinkBudget;
use wsn_radio::channel::ChannelConfig;
use wsn_sim_engine::rng::splitmix64;

use crate::{evaluate, AnalyticReport};

/// Entry cap; past it the table is cleared wholesale. Grid campaigns top
/// out at a few thousand configurations, so eviction is a backstop against
/// unbounded serve workloads, not a tuning knob.
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

/// The semantic identity of one evaluation: the seven configuration words
/// (the same canonicalization `fast_seed` hashes), the packet budget and
/// the traffic model. Seed, horizon and trajectory are excluded because
/// the evaluator ignores them.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    words: [u64; 9],
}

fn key_of(config: &StackConfig, options: &SimOptions) -> Key {
    let traffic = match options.traffic {
        TrafficModel::Periodic => 0u64,
        TrafficModel::Poisson => 1,
        TrafficModel::Saturating => 2,
    };
    Key {
        words: [
            config.distance.meters().to_bits(),
            config.power.level() as u64,
            config.max_tries.get() as u64,
            config.retry_delay.millis() as u64,
            config.queue_cap.get() as u64,
            config.packet_interval.millis() as u64,
            config.payload.bytes() as u64,
            options.packets,
            traffic,
        ],
    }
}

/// A concurrent memo of `(config, packets, traffic) → (metrics, report)`
/// for one channel.
pub struct AnalyticTable {
    config: ChannelConfig,
    entries:
        RwLock<HashMap<Key, (LinkMetrics, AnalyticReport), BuildHasherDefault<SplitmixHasher>>>,
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

    /// Number of memoized evaluations.
    pub fn len(&self) -> usize {
        self.entries.read().expect("analytic table poisoned").len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the memoized evaluation of `config` under `options`,
    /// computing and storing it on first sight.
    ///
    /// `budget` is only called on a miss — a warm lookup costs one hash,
    /// one shared-lock read and one clone, never a link-budget
    /// computation. The caller is responsible for two contracts:
    /// `options.channel` matches [`AnalyticTable::config`], and the
    /// closure's budget describes `config`'s operating point under that
    /// channel.
    pub fn lookup_or_eval(
        &self,
        config: &StackConfig,
        options: &SimOptions,
        budget: impl FnOnce() -> LinkBudget,
    ) -> (LinkMetrics, AnalyticReport) {
        let key = key_of(config, options);
        if let Some(hit) = self
            .entries
            .read()
            .expect("analytic table poisoned")
            .get(&key)
        {
            return hit.clone();
        }
        let value = evaluate(config, options, budget());
        let mut entries = self.entries.write().expect("analytic table poisoned");
        if entries.len() >= MAX_ENTRIES {
            entries.clear();
        }
        entries.insert(key, value.clone());
        value
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
        table.lookup_or_eval(&base, &options, || budget);

        // A different configuration, packet budget or traffic model each
        // claims its own slot.
        let far = cfg(23, 35.0);
        table.lookup_or_eval(&far, &options, || budget_for(&options, &far));
        let more = SimOptions::quick(400);
        table.lookup_or_eval(&base, &more, || budget);
        let poisson = SimOptions::quick(200).with_traffic(TrafficModel::Poisson);
        table.lookup_or_eval(&base, &poisson, || budget);
        assert_eq!(table.len(), 4);

        // A different seed is the same evaluation.
        let reseeded = SimOptions::quick(200).with_seed(77);
        table.lookup_or_eval(&base, &reseeded, || budget);
        assert_eq!(table.len(), 4);
    }
}
