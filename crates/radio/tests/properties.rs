//! Property tests for the radio substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use wsn_params::types::{Distance, PayloadSize, PowerLevel};
use wsn_radio::channel::{Channel, ChannelConfig};
use wsn_radio::interference::{combine_dbm, InterferenceModel};
use wsn_radio::pathloss::PathLoss;
use wsn_radio::per::{DsssPer, EmpiricalPer, PerModel};

proptest! {
    #[test]
    fn pathloss_monotone_in_distance(
        d1 in 1.0f64..100.0,
        delta in 0.1f64..50.0,
    ) {
        let pl = PathLoss::paper_hallway();
        let near = Distance::from_meters(d1).unwrap();
        let far = Distance::from_meters(d1 + delta).unwrap();
        prop_assert!(pl.loss_db(far) > pl.loss_db(near));
        let p = PowerLevel::new(19).unwrap();
        prop_assert!(pl.mean_rssi_dbm(p, far) < pl.mean_rssi_dbm(p, near));
    }

    #[test]
    fn pathloss_monotone_in_power(level in 1u8..=30, d in 1.0f64..60.0) {
        let pl = PathLoss::paper_hallway();
        let dist = Distance::from_meters(d).unwrap();
        let lo = PowerLevel::new(level).unwrap();
        let hi = PowerLevel::new(level + 1).unwrap();
        prop_assert!(pl.mean_rssi_dbm(hi, dist) >= pl.mean_rssi_dbm(lo, dist));
    }

    #[test]
    fn per_backends_are_probabilities(
        snr in -30.0f64..50.0,
        payload in 1u16..=114,
    ) {
        let payload = PayloadSize::new(payload).unwrap();
        for per in [
            EmpiricalPer::paper().per(snr, payload),
            DsssPer.per(snr, payload),
            EmpiricalPer::paper().ack_per(snr),
            DsssPer.ack_per(snr),
        ] {
            prop_assert!((0.0..=1.0).contains(&per), "per={per}");
        }
    }

    #[test]
    fn per_monotone_in_payload(
        snr in -10.0f64..40.0,
        payload in 1u16..=113,
    ) {
        let small = PayloadSize::new(payload).unwrap();
        let large = PayloadSize::new(payload + 1).unwrap();
        prop_assert!(
            EmpiricalPer::paper().per(snr, large) >= EmpiricalPer::paper().per(snr, small)
        );
        prop_assert!(DsssPer.per(snr, large) >= DsssPer.per(snr, small) - 1e-15);
    }

    #[test]
    fn combine_dbm_dominates_both_terms(a in -120.0f64..0.0, b in -120.0f64..0.0) {
        let c = combine_dbm(a, b);
        prop_assert!(c >= a.max(b) - 1e-9);
        prop_assert!(c <= a.max(b) + 3.02); // equal powers add 3.01 dB
    }

    #[test]
    fn interference_collision_probability_bounded(
        duty in 0.0f64..=1.0,
        busy_ms in 0.5f64..50.0,
        detectable in any::<bool>(),
    ) {
        let m = InterferenceModel {
            duty_cycle: duty,
            power_dbm: -75.0,
            cca_detectable: detectable,
            mean_busy_ms: busy_ms,
        };
        let p = m.collision_probability();
        prop_assert!((0.0..=1.0).contains(&p));
        // Deferral helps when bursts are long relative to one frame
        // (mean idle gap ≥ frame time ⟺ busy·(1−d) ≥ 4.256 ms). Against
        // many short bursts even a clear CCA cannot protect the frame —
        // the model correctly lets p exceed the raw duty cycle there.
        if detectable && duty > 0.0 && duty < 1.0 && busy_ms * (1.0 - duty) >= 4.256 {
            prop_assert!(p <= duty + 1e-12, "p={} duty={}", p, duty);
        }
    }

    #[test]
    fn channel_observations_center_on_budget(
        level in prop::sample::select(vec![3u8, 11, 19, 27]),
        d in 5.0f64..35.0,
        seed in 0u64..500,
    ) {
        let mut ch = Channel::new(
            ChannelConfig::paper_hallway(),
            PowerLevel::new(level).unwrap(),
            Distance::from_meters(d).unwrap(),
            StdRng::seed_from_u64(seed),
            StdRng::seed_from_u64(seed ^ 0xA5A5),
        );
        let n = 4000;
        let mean_rssi: f64 = (0..n)
            .map(|_| ch.observe().rssi_dbm)
            .sum::<f64>() / n as f64;
        prop_assert!(
            (mean_rssi - ch.mean_rssi_dbm()).abs() < 0.6,
            "mean {mean_rssi} vs budget {}",
            ch.mean_rssi_dbm()
        );
    }
}
