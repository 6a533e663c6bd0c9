//! The experiment parameter grid (Table I) and its configuration iterator.
//!
//! The paper iterated, for each of 6 distances, **all combinations** of the
//! remaining 6 parameters — 8064 settings per distance, 48,384 in total
//! ("close to 50 thousand"). [`ParamGrid::paper`] reconstructs that grid;
//! [`ParamGrid`] also serves as a general axis-restriction mechanism for the
//! per-figure experiment sweeps.

use std::ops::ControlFlow;

use serde::{Deserialize, Serialize};

use crate::config::StackConfig;
use crate::error::InvalidParam;
use crate::types::{
    Distance, MaxTries, PacketInterval, PayloadSize, PowerLevel, QueueCap, RetryDelay,
};

/// Value axes of the exploration grid, one `Vec` per stack parameter.
///
/// The Cartesian product of the axes is the set of experimented
/// configurations; [`ParamGrid::iter`] yields them in a fixed lexicographic
/// order (distance slowest, payload fastest), mirroring the paper's protocol
/// of finishing all combinations at one distance before moving the motes.
///
/// ```
/// use wsn_params::grid::ParamGrid;
///
/// let grid = ParamGrid::paper();
/// assert_eq!(grid.per_distance_count(), 8064);
/// assert_eq!(grid.len(), 48_384); // "close to 50 thousand"
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamGrid {
    /// Distances in meters.
    pub distances_m: Vec<f64>,
    /// CC2420 PA levels.
    pub power_levels: Vec<u8>,
    /// Maximum transmission counts.
    pub max_tries: Vec<u8>,
    /// Retry delays in milliseconds.
    pub retry_delays_ms: Vec<u32>,
    /// Queue capacities in packets.
    pub queue_caps: Vec<u16>,
    /// Packet inter-arrival times in milliseconds.
    pub packet_intervals_ms: Vec<u32>,
    /// Payload sizes in bytes.
    pub payloads: Vec<u16>,
}

impl ParamGrid {
    /// The reconstructed Table I grid: 8 × 3 × 3 × 2 × 7 × 8 = 8064
    /// configurations per distance, at 6 distances.
    pub fn paper() -> Self {
        ParamGrid {
            distances_m: vec![10.0, 15.0, 20.0, 25.0, 30.0, 35.0],
            power_levels: vec![3, 7, 11, 15, 19, 23, 27, 31],
            max_tries: vec![1, 3, 8],
            retry_delays_ms: vec![0, 30, 100],
            queue_caps: vec![1, 30],
            packet_intervals_ms: vec![10, 20, 30, 50, 100, 200, 500],
            payloads: vec![5, 20, 35, 50, 65, 80, 95, 110],
        }
    }

    /// A single-configuration grid around `cfg` (useful as a sweep seed).
    pub fn singleton(cfg: &StackConfig) -> Self {
        ParamGrid {
            distances_m: vec![cfg.distance.meters()],
            power_levels: vec![cfg.power.level()],
            max_tries: vec![cfg.max_tries.get()],
            retry_delays_ms: vec![cfg.retry_delay.millis()],
            queue_caps: vec![cfg.queue_cap.get()],
            packet_intervals_ms: vec![cfg.packet_interval.millis()],
            payloads: vec![cfg.payload.bytes()],
        }
    }

    /// Number of configurations per distance.
    pub fn per_distance_count(&self) -> usize {
        self.power_levels.len()
            * self.max_tries.len()
            * self.retry_delays_ms.len()
            * self.queue_caps.len()
            * self.packet_intervals_ms.len()
            * self.payloads.len()
    }

    /// Total number of configurations in the grid.
    pub fn len(&self) -> usize {
        self.distances_m.len() * self.per_distance_count()
    }

    /// True if any axis is empty (the grid generates nothing).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates every axis value.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvalidParam`] found on any axis.
    pub fn validate(&self) -> Result<(), InvalidParam> {
        axis(&self.distances_m, Distance::from_meters)?;
        axis(&self.power_levels, PowerLevel::new)?;
        axis(&self.max_tries, MaxTries::new)?;
        axis(&self.queue_caps, QueueCap::new)?;
        axis(&self.packet_intervals_ms, PacketInterval::from_millis)?;
        axis(&self.payloads, PayloadSize::new)?;
        Ok(())
    }

    /// Walks every configuration in [`iter`](Self::iter) order until
    /// `visit` breaks. `link` runs once per link tuple `(d, Ptx,
    /// NmaxTries, Dretry, lD)`, on its first configuration (whose `Qmax`
    /// and `Tpkt` it must not read), and `visit` gets each configuration
    /// with its tuple's value. The axes are validated before anything runs.
    ///
    /// # Panics
    ///
    /// Panics on an invalid axis value, like [`iter`](Self::iter).
    pub fn walk<L, B>(
        &self,
        mut link: impl FnMut(&StackConfig) -> L,
        mut visit: impl FnMut(&StackConfig, &L) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        if self.is_empty() {
            return ControlFlow::Continue(());
        }
        let valid = "grid axis values must be valid";
        let distances = axis(&self.distances_m, Distance::from_meters).expect(valid);
        let powers = axis(&self.power_levels, PowerLevel::new).expect(valid);
        let tries = axis(&self.max_tries, MaxTries::new).expect(valid);
        let retries =
            axis(&self.retry_delays_ms, |ms| Ok(RetryDelay::from_millis(ms))).expect(valid);
        let caps = axis(&self.queue_caps, QueueCap::new).expect(valid);
        let intervals = axis(&self.packet_intervals_ms, PacketInterval::from_millis).expect(valid);
        let payloads = axis(&self.payloads, PayloadSize::new).expect(valid);

        let mut links = Vec::with_capacity(payloads.len());
        for &distance in &distances {
            for &power in &powers {
                for &max_tries in &tries {
                    for &retry_delay in &retries {
                        let config = |queue_cap, packet_interval, payload| StackConfig {
                            distance,
                            power,
                            max_tries,
                            retry_delay,
                            queue_cap,
                            packet_interval,
                            payload,
                        };
                        links.clear();
                        links.extend(
                            payloads
                                .iter()
                                .map(|&payload| link(&config(caps[0], intervals[0], payload))),
                        );
                        for &queue_cap in &caps {
                            for &packet_interval in &intervals {
                                for (&payload, value) in payloads.iter().zip(&links) {
                                    visit(&config(queue_cap, packet_interval, payload), value)?;
                                }
                            }
                        }
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Iterates all configurations in lexicographic order
    /// (distance, power, tries, retry delay, queue, interval, payload).
    ///
    /// # Panics
    ///
    /// The iterator panics on the first invalid axis value; call
    /// [`validate`](Self::validate) first for a `Result`-based check.
    pub fn iter(&self) -> GridIter<'_> {
        GridIter {
            grid: self,
            next_index: 0,
            total: self.len(),
        }
    }

    /// The configuration at lexicographic position `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()` or an axis value is invalid.
    pub fn config_at(&self, index: usize) -> StackConfig {
        assert!(index < self.len(), "grid index {index} out of bounds");
        let mut rest = index;
        let pick = |rest: &mut usize, len: usize| {
            let i = *rest % len;
            *rest /= len;
            i
        };
        // Fastest-varying axis last in the tuple order: payload.
        let l = pick(&mut rest, self.payloads.len());
        let t = pick(&mut rest, self.packet_intervals_ms.len());
        let q = pick(&mut rest, self.queue_caps.len());
        let r = pick(&mut rest, self.retry_delays_ms.len());
        let n = pick(&mut rest, self.max_tries.len());
        let p = pick(&mut rest, self.power_levels.len());
        let d = pick(&mut rest, self.distances_m.len());
        StackConfig::builder()
            .distance_m(self.distances_m[d])
            .power_level(self.power_levels[p])
            .max_tries(self.max_tries[n])
            .retry_delay_ms(self.retry_delays_ms[r])
            .queue_cap(self.queue_caps[q])
            .packet_interval_ms(self.packet_intervals_ms[t])
            .payload_bytes(self.payloads[l])
            .build()
            .expect("grid axis values must be valid")
    }
}

/// One axis as parameter values, or its first invalid value's error.
fn axis<V: Copy, T>(
    values: &[V],
    make: impl Fn(V) -> Result<T, InvalidParam>,
) -> Result<Vec<T>, InvalidParam> {
    values.iter().map(|&v| make(v)).collect()
}

/// Iterator over every [`StackConfig`] in a [`ParamGrid`].
#[derive(Debug, Clone)]
pub struct GridIter<'a> {
    grid: &'a ParamGrid,
    next_index: usize,
    total: usize,
}

impl Iterator for GridIter<'_> {
    type Item = StackConfig;

    fn next(&mut self) -> Option<StackConfig> {
        if self.next_index >= self.total {
            return None;
        }
        let cfg = self.grid.config_at(self.next_index);
        self.next_index += 1;
        Some(cfg)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.total - self.next_index;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for GridIter<'_> {}

impl<'a> IntoIterator for &'a ParamGrid {
    type Item = StackConfig;
    type IntoIter = GridIter<'a>;
    fn into_iter(self) -> GridIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn paper_grid_matches_the_papers_counts() {
        let g = ParamGrid::paper();
        assert_eq!(g.per_distance_count(), 8064);
        assert_eq!(g.len(), 48_384);
        assert!(!g.is_empty());
        g.validate().unwrap();
    }

    #[test]
    fn iterator_yields_exactly_len_unique_configs() {
        // Use a smaller grid to keep the uniqueness check cheap.
        let g = ParamGrid {
            distances_m: vec![10.0, 35.0],
            power_levels: vec![3, 31],
            max_tries: vec![1, 8],
            retry_delays_ms: vec![0, 30],
            queue_caps: vec![1, 30],
            packet_intervals_ms: vec![10, 500],
            payloads: vec![5, 110],
        };
        let configs: Vec<_> = g.iter().collect();
        assert_eq!(configs.len(), g.len());
        assert_eq!(g.iter().len(), g.len());
        let unique: HashSet<String> = configs.iter().map(|c| c.to_string()).collect();
        assert_eq!(unique.len(), g.len());
    }

    #[test]
    fn order_is_lexicographic_distance_slowest_payload_fastest() {
        let g = ParamGrid {
            distances_m: vec![10.0, 20.0],
            power_levels: vec![3],
            max_tries: vec![1],
            retry_delays_ms: vec![0],
            queue_caps: vec![1],
            packet_intervals_ms: vec![10],
            payloads: vec![5, 110],
        };
        let configs: Vec<_> = g.iter().collect();
        assert_eq!(configs[0].distance.meters(), 10.0);
        assert_eq!(configs[0].payload.bytes(), 5);
        assert_eq!(configs[1].distance.meters(), 10.0);
        assert_eq!(configs[1].payload.bytes(), 110);
        assert_eq!(configs[2].distance.meters(), 20.0);
        assert_eq!(configs[2].payload.bytes(), 5);
    }

    #[test]
    fn config_at_agrees_with_iterator() {
        let g = ParamGrid {
            distances_m: vec![10.0, 20.0],
            power_levels: vec![3, 7, 11],
            max_tries: vec![1, 3],
            retry_delays_ms: vec![0],
            queue_caps: vec![1, 30],
            packet_intervals_ms: vec![10, 30],
            payloads: vec![5, 50, 110],
        };
        for (i, cfg) in g.iter().enumerate() {
            assert_eq!(g.config_at(i), cfg);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn config_at_out_of_bounds_panics() {
        let g = ParamGrid::singleton(&StackConfig::default());
        let _ = g.config_at(1);
    }

    #[test]
    fn singleton_round_trips() {
        let cfg = StackConfig::default();
        let g = ParamGrid::singleton(&cfg);
        assert_eq!(g.len(), 1);
        assert_eq!(g.iter().next().unwrap(), cfg);
    }

    #[test]
    fn validate_catches_bad_axis_values() {
        let mut g = ParamGrid::paper();
        g.power_levels.push(0);
        assert!(g.validate().is_err());
    }

    #[test]
    fn walk_visits_the_iter_sequence_with_one_link_value_per_tuple() {
        let single = ParamGrid::singleton(&StackConfig::default());
        for g in [ParamGrid::paper(), single] {
            let mut expected = g.iter();
            let mut links = 0usize;
            let flow: ControlFlow<()> = g.walk(
                |first| {
                    links += 1;
                    *first
                },
                |config, first| {
                    assert_eq!(Some(*config), expected.next());
                    let tuple = |c: &StackConfig| {
                        (c.distance, c.power, c.max_tries, c.retry_delay, c.payload)
                    };
                    assert_eq!(tuple(first), tuple(config));
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(flow, ControlFlow::Continue(()));
            assert!(expected.next().is_none(), "the walk visits the whole grid");
            assert_eq!(
                links * g.queue_caps.len() * g.packet_intervals_ms.len(),
                g.len()
            );
        }
    }

    #[test]
    fn empty_axis_empties_the_grid() {
        let mut g = ParamGrid::paper();
        g.payloads.clear();
        assert!(g.is_empty());
        assert_eq!(g.iter().count(), 0);
    }
}
