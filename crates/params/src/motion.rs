//! Node mobility — the last factor the paper's discussion defers ("the
//! mobility of a node also \[has\] a possibly large impact on the
//! performance").
//!
//! A [`Trajectory`] maps simulation time to sender–receiver distance; the
//! link simulator retargets the channel before every transmission attempt,
//! so the mean RSSI follows the motion while shadowing and noise keep
//! their own dynamics. The type lives here (rather than in `wsn-radio`,
//! which re-exports it) so [`scenario`](crate::scenario) link descriptions
//! can carry a motion profile without a dependency cycle.

use serde::{Deserialize, Serialize};

use crate::types::Distance;

/// A deterministic distance-over-time profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum Trajectory {
    /// Stationary at the configuration's distance (the paper's setup).
    #[default]
    Stationary,
    /// Linear motion from `start_m` to `end_m` over `duration_s`, then
    /// holding at `end_m`.
    Linear {
        /// Distance at t = 0, meters.
        start_m: f64,
        /// Distance at `duration_s` and after, meters.
        end_m: f64,
        /// Time to cover the segment, seconds.
        duration_s: f64,
    },
    /// Back-and-forth patrol between `near_m` and `far_m` with the given
    /// one-way leg time (triangle wave).
    Patrol {
        /// Closest approach, meters.
        near_m: f64,
        /// Farthest point, meters.
        far_m: f64,
        /// One-way leg duration, seconds.
        leg_s: f64,
    },
}

impl Trajectory {
    /// A pedestrian (1.4 m/s) walking from `start_m` to `end_m`.
    ///
    /// # Panics
    ///
    /// Panics if either distance is non-positive.
    pub fn walk(start_m: f64, end_m: f64) -> Self {
        assert!(start_m > 0.0 && end_m > 0.0, "distances must be positive");
        Trajectory::Linear {
            start_m,
            end_m,
            duration_s: (end_m - start_m).abs() / 1.4,
        }
    }

    /// The distance at time `t_s` seconds, given the configured fallback
    /// distance for [`Trajectory::Stationary`].
    ///
    /// The result is clamped to at least 0.1 m so the path-loss model
    /// never sees a degenerate geometry.
    pub fn distance_at(&self, t_s: f64, configured: Distance) -> Distance {
        let meters = match *self {
            Trajectory::Stationary => configured.meters(),
            Trajectory::Linear {
                start_m,
                end_m,
                duration_s,
            } => {
                if duration_s <= 0.0 || t_s >= duration_s {
                    end_m
                } else {
                    start_m + (end_m - start_m) * (t_s / duration_s).max(0.0)
                }
            }
            Trajectory::Patrol {
                near_m,
                far_m,
                leg_s,
            } => {
                if leg_s <= 0.0 {
                    near_m
                } else {
                    let phase = (t_s / leg_s).rem_euclid(2.0);
                    let frac = if phase < 1.0 { phase } else { 2.0 - phase };
                    near_m + (far_m - near_m) * frac
                }
            }
        };
        Distance::from_meters(meters.max(0.1)).expect("clamped positive")
    }

    /// True for the paper's stationary setup (lets the simulator skip the
    /// per-attempt retarget).
    pub fn is_stationary(&self) -> bool {
        matches!(self, Trajectory::Stationary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(m: f64) -> Distance {
        Distance::from_meters(m).unwrap()
    }

    #[test]
    fn stationary_returns_configured_distance() {
        let t = Trajectory::Stationary;
        assert!(t.is_stationary());
        assert_eq!(t.distance_at(123.0, d(35.0)).meters(), 35.0);
    }

    #[test]
    fn linear_interpolates_and_holds() {
        let t = Trajectory::Linear {
            start_m: 5.0,
            end_m: 35.0,
            duration_s: 30.0,
        };
        assert_eq!(t.distance_at(0.0, d(1.0)).meters(), 5.0);
        assert_eq!(t.distance_at(15.0, d(1.0)).meters(), 20.0);
        assert_eq!(t.distance_at(30.0, d(1.0)).meters(), 35.0);
        assert_eq!(t.distance_at(100.0, d(1.0)).meters(), 35.0);
    }

    #[test]
    fn walk_uses_pedestrian_speed() {
        let t = Trajectory::walk(5.0, 33.0);
        match t {
            Trajectory::Linear { duration_s, .. } => {
                assert!((duration_s - 20.0).abs() < 1e-9);
            }
            _ => panic!("walk must be linear"),
        }
    }

    #[test]
    fn patrol_triangle_wave() {
        let t = Trajectory::Patrol {
            near_m: 10.0,
            far_m: 30.0,
            leg_s: 10.0,
        };
        assert_eq!(t.distance_at(0.0, d(1.0)).meters(), 10.0);
        assert_eq!(t.distance_at(5.0, d(1.0)).meters(), 20.0);
        assert_eq!(t.distance_at(10.0, d(1.0)).meters(), 30.0);
        assert_eq!(t.distance_at(15.0, d(1.0)).meters(), 20.0);
        assert_eq!(t.distance_at(20.0, d(1.0)).meters(), 10.0);
        // Periodic.
        assert_eq!(
            t.distance_at(25.0, d(1.0)).meters(),
            t.distance_at(5.0, d(1.0)).meters()
        );
    }

    #[test]
    fn distances_are_clamped_positive() {
        let t = Trajectory::Linear {
            start_m: 1.0,
            end_m: 0.0001,
            duration_s: 1.0,
        };
        assert!(t.distance_at(1.0, d(1.0)).meters() >= 0.1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn walk_rejects_non_positive() {
        let _ = Trajectory::walk(0.0, 10.0);
    }
}
