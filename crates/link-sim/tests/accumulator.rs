//! The streaming `MetricsAccumulator` against the historical batch path,
//! `summarise_records`, on random record streams: ties, zero delays,
//! queue drops and in-flight residuals must all summarise bit for bit.

use proptest::prelude::*;

use wsn_link_sim::metrics::{summarise_records, MetricsAccumulator, RunTotals};
use wsn_link_sim::record::{PacketFate, PacketRecord};
use wsn_radio::energy::EnergyBreakdown;
use wsn_sim_engine::time::{SimDuration, SimTime};

/// One record from `(fate, arrival µs, wait µs, service µs, tries, acked)`.
fn record(seq: u64, (fate, arrival, wait, service, tries, acked): RecordParts) -> PacketRecord {
    let fate = [
        PacketFate::QueueDropped,
        PacketFate::RadioLost,
        PacketFate::Delivered,
    ][fate as usize];
    let t_arrival = SimTime::ZERO + SimDuration::from_micros(arrival);
    let (t_service_start, t_done, tries) = if fate == PacketFate::QueueDropped {
        (None, None, 0)
    } else {
        let start = t_arrival + SimDuration::from_micros(wait);
        (
            Some(start),
            Some(start + SimDuration::from_micros(service)),
            tries,
        )
    };
    PacketRecord {
        seq,
        t_arrival,
        t_service_start,
        t_done,
        tries,
        queue_depth: 0,
        fate,
        sender_acked: acked && fate != PacketFate::QueueDropped,
        last_rssi_dbm: -80.0,
        last_snr_db: 15.0,
        last_lqi: 100,
    }
}

type RecordParts = (u8, u64, u64, u64, u8, bool);

/// Delays drawn from a narrow range collide often (ties), and zero waits
/// and services give zero delays; the wide range covers long runs.
fn parts() -> impl Strategy<Value = RecordParts> {
    (
        0u8..3,
        prop::sample::select(vec![0u64, 1_000, 999_999, 3_600_000_000]),
        prop::sample::select(vec![0u64, 1, 7, 250, 12_345]),
        0u64..40,
        1u8..=8,
        any::<bool>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn streaming_fold_equals_the_batch_summary_bit_for_bit(
        stream in prop::collection::vec(parts(), 0..400),
        residual in 0u64..5,
        with_hint in any::<bool>(),
    ) {
        let records: Vec<PacketRecord> = stream
            .into_iter()
            .enumerate()
            .map(|(seq, p)| record(seq as u64, p))
            .collect();
        let totals = RunTotals {
            duration: SimDuration::from_secs_f64(3_700.0),
            generated: records.len() as u64 + residual,
            attempts: 500,
            attempts_unacked: 120,
            duplicates: 3,
            snr_sum: 7_000.0,
            rssi_sum: -40_000.0,
            busy: SimDuration::from_secs_f64(1_200.0),
            energy: EnergyBreakdown {
                tx_j: 0.5,
                rx_j: 1.5,
                idle_j: 0.25,
            },
            payload_bits: 800,
            offered_bps: 8_000.0,
            fallback_snr_db: 12.0,
            fallback_rssi_dbm: -85.0,
        };
        let mut acc = if with_hint {
            MetricsAccumulator::with_packet_hint(records.len() as u64)
        } else {
            MetricsAccumulator::new()
        };
        for r in &records {
            acc.observe(r);
        }
        let streamed = acc.finish(&totals);
        let batch = summarise_records(&records, &totals);
        // `Debug` prints every float in its shortest round-trip form, so
        // equal text means equal bits (and tells -0.0 from 0.0).
        prop_assert_eq!(format!("{streamed:?}"), format!("{batch:?}"));
    }
}
