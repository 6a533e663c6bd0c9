//! Campaign-shared memoization of deterministic link budgets.
//!
//! Every configuration of a campaign grid that shares a `(power, distance)`
//! operating point has the same mean RSSI (path loss), shadowing deviation
//! and mean noise floor — the paper's Table I grid re-uses each of its
//! 6 × 8 operating points 1008 times. [`LinkBudgetTable`] computes each
//! [`LinkBudget`] once and hands out [`Channel`]s built from the memo.
//!
//! **Bit-for-bit contract:** the memoized values are produced by exactly
//! the same code paths [`Channel::new`] runs
//! ([`PathLoss::mean_rssi_dbm`](crate::pathloss::PathLoss::mean_rssi_dbm),
//! [`SigmaProfile::sigma_db`](crate::shadowing::SigmaProfile::sigma_db),
//! [`NoiseModel::mean_dbm`](crate::noise::NoiseModel::mean_dbm)), so a
//! channel obtained through the table is indistinguishable from one built
//! directly — same fields, same observation stream. A test below pins this.

use std::collections::HashMap;
use std::sync::Mutex;

use wsn_params::types::{Distance, PowerLevel};
use wsn_sim_engine::rng::NormalSampler;

use crate::channel::{Channel, ChannelConfig};

/// The deterministic per-`(power, distance)` terms of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    /// Mean (un-faded) received signal strength, dBm.
    pub mean_rssi_dbm: f64,
    /// Stationary shadowing deviation at this distance, dB.
    pub sigma_db: f64,
    /// Expected noise floor, dBm.
    pub noise_mean_dbm: f64,
}

impl LinkBudget {
    /// Computes the budget for one operating point, via the identical
    /// code paths [`Channel::new`] uses.
    pub fn compute(config: &ChannelConfig, power: PowerLevel, distance: Distance) -> Self {
        LinkBudget {
            mean_rssi_dbm: config.pathloss.mean_rssi_dbm(power, distance),
            sigma_db: config.sigma_profile.sigma_db(distance),
            noise_mean_dbm: config.noise.mean_dbm(),
        }
    }
}

/// A thread-shared memo of [`LinkBudget`]s for one propagation environment.
///
/// Wrap it in an `Arc` and hand clones to campaign workers: the first
/// worker to simulate an operating point pays for the `log10` and mixture
/// arithmetic, every later configuration at the same point reuses the
/// entry. Lock contention is negligible — the lock is taken once per
/// *simulation run*, not per packet.
#[derive(Debug, Default)]
pub struct LinkBudgetTable {
    config: ChannelConfig,
    /// Keyed by `(PA level, distance bits)`; distances come from a finite
    /// experiment grid, so exact-bits keying is both correct and complete.
    cache: Mutex<HashMap<(u8, u64), LinkBudget>>,
}

impl LinkBudgetTable {
    /// Creates an empty table for `config`.
    pub fn new(config: ChannelConfig) -> Self {
        LinkBudgetTable {
            config,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The propagation environment this table memoizes.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// The budget for one operating point, computed at most once.
    pub fn budget(&self, power: PowerLevel, distance: Distance) -> LinkBudget {
        let key = (power.level(), distance.meters().to_bits());
        let mut cache = self.cache.lock().expect("budget cache lock");
        *cache
            .entry(key)
            .or_insert_with(|| LinkBudget::compute(&self.config, power, distance))
    }

    /// A live channel for one operating point, built from the memoized
    /// budget and observed from `fading_rng` and `noise_rng`; identical to
    /// `Channel::new(*self.config(), power, distance, fading_rng, noise_rng)`.
    pub fn channel<R: NormalSampler>(
        &self,
        power: PowerLevel,
        distance: Distance,
        fading_rng: R,
        noise_rng: R,
    ) -> Channel<R> {
        Channel::from_budget(
            self.config,
            self.budget(power, distance),
            fading_rng,
            noise_rng,
        )
    }

    /// Computes (and memoizes) the budgets for every operating point in
    /// `points` up front. Campaign runners call this once, serially,
    /// before spawning workers, so that per-worker table clones (see
    /// [`clone_table`](Self::clone_table)) start fully populated and no
    /// worker ever contends on a shared lock mid-run.
    pub fn prewarm<I>(&self, points: I)
    where
        I: IntoIterator<Item = (PowerLevel, Distance)>,
    {
        for (power, distance) in points {
            let _ = self.budget(power, distance);
        }
    }

    /// A deep copy of this table: same environment, same memoized budgets,
    /// its own uncontended lock. Budgets are pure functions of
    /// `(config, power, distance)`, so clones are interchangeable with the
    /// original — handing each campaign worker its own clone removes the
    /// shared-lock contention without perturbing a single bit of output.
    pub fn clone_table(&self) -> LinkBudgetTable {
        LinkBudgetTable {
            config: self.config,
            cache: Mutex::new(self.cache.lock().expect("budget cache lock").clone()),
        }
    }

    /// Number of distinct operating points memoized so far.
    pub fn len(&self) -> usize {
        self.cache.lock().expect("budget cache lock").len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wsn_params::types::PayloadSize;

    fn pt(power: u8, dist: f64) -> (PowerLevel, Distance) {
        (
            PowerLevel::new(power).unwrap(),
            Distance::from_meters(dist).unwrap(),
        )
    }

    #[test]
    fn table_channel_is_bit_identical_to_direct_construction() {
        let config = ChannelConfig::paper_hallway();
        let table = LinkBudgetTable::new(config);
        let payload = PayloadSize::new(110).unwrap();
        for (power, dist) in [(3u8, 35.0), (11, 20.0), (31, 10.0), (7, 35.0)] {
            let (p, d) = pt(power, dist);
            // Identical observation + delivery streams under identical RNGs.
            let streams = || (StdRng::seed_from_u64(1), StdRng::seed_from_u64(2));
            let (f1, n1) = streams();
            let (f2, n2) = streams();
            let mut direct = Channel::new(config, p, d, f1, n1);
            let mut memoized = table.channel(p, d, f2, n2);
            assert_eq!(
                direct.mean_rssi_dbm().to_bits(),
                memoized.mean_rssi_dbm().to_bits()
            );
            let mut d1 = StdRng::seed_from_u64(3);
            let mut d2 = StdRng::seed_from_u64(3);
            for _ in 0..64 {
                let a = direct.observe();
                let b = memoized.observe();
                assert_eq!(a.rssi_dbm.to_bits(), b.rssi_dbm.to_bits());
                assert_eq!(a.snr_db.to_bits(), b.snr_db.to_bits());
                assert_eq!(a.noise_dbm.to_bits(), b.noise_dbm.to_bits());
                assert_eq!(a.lqi, b.lqi);
                assert_eq!(
                    direct.data_success(&a, payload, &mut d1),
                    memoized.data_success(&b, payload, &mut d2)
                );
            }
        }
    }

    #[test]
    fn repeated_lookups_hit_the_memo() {
        let table = LinkBudgetTable::new(ChannelConfig::paper_hallway());
        assert!(table.is_empty());
        let (p, d) = pt(11, 35.0);
        let first = table.budget(p, d);
        assert_eq!(table.len(), 1);
        for _ in 0..10 {
            assert_eq!(table.budget(p, d), first);
        }
        assert_eq!(table.len(), 1, "same operating point must not re-insert");
        let (p2, d2) = pt(19, 35.0);
        let other = table.budget(p2, d2);
        assert_eq!(table.len(), 2);
        assert_ne!(first.mean_rssi_dbm, other.mean_rssi_dbm);
        // Same distance ⇒ same sigma and noise terms.
        assert_eq!(first.sigma_db, other.sigma_db);
        assert_eq!(first.noise_mean_dbm, other.noise_mean_dbm);
    }

    #[test]
    fn prewarmed_clone_matches_original_without_recomputing() {
        let table = LinkBudgetTable::new(ChannelConfig::paper_hallway());
        let points: Vec<_> = [(3u8, 10.0), (11, 20.0), (31, 35.0)]
            .iter()
            .map(|&(p, d)| pt(p, d))
            .collect();
        table.prewarm(points.iter().copied());
        assert_eq!(table.len(), 3);
        let clone = table.clone_table();
        assert_eq!(clone.len(), 3, "clone starts fully populated");
        for &(p, d) in &points {
            let a = table.budget(p, d);
            let b = clone.budget(p, d);
            assert_eq!(a.mean_rssi_dbm.to_bits(), b.mean_rssi_dbm.to_bits());
            assert_eq!(a.sigma_db.to_bits(), b.sigma_db.to_bits());
            assert_eq!(a.noise_mean_dbm.to_bits(), b.noise_mean_dbm.to_bits());
        }
        // New points memoize independently in each copy.
        let (p, d) = pt(19, 10.0);
        let _ = clone.budget(p, d);
        assert_eq!(clone.len(), 4);
        assert_eq!(table.len(), 3, "original unaffected by clone lookups");
    }

    #[test]
    fn budget_matches_hand_computation() {
        let config = ChannelConfig::paper_hallway();
        let (p, d) = pt(23, 35.0);
        let b = LinkBudget::compute(&config, p, d);
        assert_eq!(
            b.mean_rssi_dbm.to_bits(),
            config.pathloss.mean_rssi_dbm(p, d).to_bits()
        );
        assert_eq!(b.sigma_db, 3.5);
        assert!((b.noise_mean_dbm - -95.0).abs() < 1e-9);
    }
}
