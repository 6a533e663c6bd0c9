//! Per-configuration summary metrics — the four performance dimensions the
//! paper studies (energy, goodput, delay, loss) plus the intermediate
//! quantities its models are built from (PER, tries, service time,
//! utilization).

use serde::{Deserialize, Serialize};

use wsn_radio::energy::EnergyBreakdown;
use wsn_sim_engine::time::SimDuration;

use crate::record::{PacketFate, PacketRecord};

/// Summary statistics of one simulated configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkMetrics {
    /// Wall-clock length of the simulated window, seconds.
    pub duration_s: f64,

    // ── packet accounting ────────────────────────────────────────────
    /// Packets generated by the application.
    pub generated: u64,
    /// Packets dropped at the transmit queue.
    pub queue_dropped: u64,
    /// Packets that exhausted `NmaxTries` without reaching the receiver.
    pub radio_lost: u64,
    /// Packets received at least once at the receiver.
    pub delivered: u64,
    /// Packets acknowledged at the sender.
    pub acked: u64,
    /// Packets still in flight when the window closed.
    pub residual: u64,

    // ── transmission accounting ──────────────────────────────────────
    /// Individual frame transmissions.
    pub attempts: u64,
    /// Transmissions not followed by an ACK (numerator of Eq. 1).
    pub attempts_unacked: u64,
    /// Extra copies received because an ACK was lost and the sender
    /// retransmitted an already-delivered frame.
    pub duplicates: u64,
    /// Mean transmissions per completed packet (`N̄tries`).
    pub mean_tries: f64,

    // ── the four performance metrics ─────────────────────────────────
    /// Application-level throughput, bits of delivered payload per second.
    pub goodput_bps: f64,
    /// Offered application load, bits per second.
    pub offered_bps: f64,
    /// Mean end-to-end delay of delivered packets, milliseconds.
    pub delay_mean_ms: f64,
    /// Median delay, ms.
    pub delay_p50_ms: f64,
    /// 95th-percentile delay, ms.
    pub delay_p95_ms: f64,
    /// 99th-percentile delay, ms.
    pub delay_p99_ms: f64,
    /// Mean MAC service time of completed packets, ms.
    pub service_mean_ms: f64,
    /// Mean queueing (waiting) time, ms.
    pub queueing_mean_ms: f64,
    /// Energy per delivered information bit counting frame transmissions
    /// only — directly comparable to the paper's `U_eng` (Eq. 2), µJ/bit.
    pub u_eng_uj_per_bit: f64,
    /// Energy per delivered information bit counting the whole radio
    /// (TX + listen + idle), µJ/bit.
    pub total_energy_uj_per_bit: f64,
    /// Radio energy breakdown over the window, joules.
    pub energy: EnergyBreakdown,

    // ── loss decomposition (Sec. VII) ────────────────────────────────
    /// Queue-overflow loss rate (`PLR_queue`).
    pub plr_queue: f64,
    /// Radio loss rate (`PLR_radio`).
    pub plr_radio: f64,
    /// Packet error rate over attempts (Eq. 1).
    pub per: f64,

    // ── link-state observations ──────────────────────────────────────
    /// Mean SNR over all attempts, dB.
    pub mean_snr_db: f64,
    /// Mean RSSI over all attempts, dBm.
    pub mean_rssi_dbm: f64,
    /// Fraction of the window the MAC was serving a packet (measured
    /// utilization ρ).
    pub utilization: f64,
}

impl LinkMetrics {
    /// Total packet loss rate: queue loss + radio loss (Sec. VII).
    pub fn plr_total(&self) -> f64 {
        self.plr_queue + self.plr_radio
    }

    /// Delivery ratio (1 − total loss, ignoring residual in-flight packets).
    pub fn delivery_ratio(&self) -> f64 {
        (1.0 - self.plr_total()).clamp(0.0, 1.0)
    }

    /// Energy efficiency `Ueff = 1 / U_eng`, delivered bits per µJ.
    pub fn energy_efficiency_bits_per_uj(&self) -> f64 {
        if self.u_eng_uj_per_bit > 0.0 {
            1.0 / self.u_eng_uj_per_bit
        } else {
            0.0
        }
    }

    /// Packet conservation check:
    /// `generated = queue_dropped + radio_lost + delivered_or_acked + residual`.
    ///
    /// Delivered-but-unACKed packets are counted once (by receiver fate), so
    /// the invariant uses the completed-packet count.
    pub fn conserves_packets(&self) -> bool {
        self.generated == self.queue_dropped + self.radio_lost + self.delivered + self.residual
    }
}

/// Linear-interpolated percentile of a **sorted** slice (`q` in `[0, 1]`).
///
/// Returns 0.0 for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    percentile_of(sorted.len(), q, |i| sorted[i])
}

/// [`percentile`] of the sorted sequence whose `i`-th value is `at(i)`.
fn percentile_of(len: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    match len {
        0 => 0.0,
        1 => at(0),
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            at(lo) + frac * (at(hi) - at(lo))
        }
    }
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    mean_of(values.iter().copied())
}

/// [`mean`] of a sequence, summed in iteration order.
fn mean_of(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len();
    if n == 0 {
        0.0
    } else {
        values.sum::<f64>() / n as f64
    }
}

/// Mean and p50/p95/p99 of a run's delivered delays, ms.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DelayStats {
    mean_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

impl DelayStats {
    /// Folds delays given as integer µs, in any order. Sorting the
    /// integers and converting afterwards gives the sorted ms values
    /// exactly (the conversion is monotone), and the mean adds them one
    /// by one in ascending order, so every statistic has the bits of
    /// [`mean`] and [`percentile`] over the sorted ms values.
    fn of_micros(delays_us: &mut [u64]) -> DelayStats {
        let mut scratch = Vec::new();
        let sorted = radix_sort(delays_us, &mut scratch);
        let ms = |i: usize| SimDuration::from_micros(sorted[i]).as_millis_f64();
        DelayStats {
            mean_ms: mean_of((0..sorted.len()).map(ms)),
            p50_ms: percentile_of(sorted.len(), 0.50, ms),
            p95_ms: percentile_of(sorted.len(), 0.95, ms),
            p99_ms: percentile_of(sorted.len(), 0.99, ms),
        }
    }
}

/// Sorts `keys` ascending with a least-significant-digit radix sort on
/// bytes, skipping every byte that all keys share, and returns the sorted
/// keys: in `keys` itself or in `scratch`, whichever the last pass wrote.
///
/// A run's delays are a few hundred keys with few distinct values that
/// differ only in their low three or four bytes, so this takes three or
/// four linear passes where a comparison sort takes `n log n` branches.
fn radix_sort<'a>(keys: &'a mut [u64], scratch: &'a mut Vec<u64>) -> &'a [u64] {
    let Some(&first) = keys.first() else {
        return keys;
    };
    let varying = keys.iter().fold(0, |acc, &k| acc | (k ^ first));
    let mut shifts = [0u32; 8];
    let mut passes = 0;
    for byte in 0..8 {
        if (varying >> (8 * byte)) & 0xFF != 0 {
            shifts[passes] = 8 * byte;
            passes += 1;
        }
    }
    let shifts = &shifts[..passes];
    if passes == 0 {
        return keys;
    }
    let mut counts = [[0u32; 256]; 8];
    for &k in keys.iter() {
        for (count, &shift) in counts.iter_mut().zip(shifts) {
            count[(k >> shift) as u8 as usize] += 1;
        }
    }
    scratch.resize(keys.len(), 0);
    let (mut src, mut dst): (&mut [u64], &mut [u64]) = (keys, scratch);
    for (count, &shift) in counts.iter().zip(shifts) {
        let mut next = [0u32; 256];
        let mut at = 0;
        for (slot, &c) in next.iter_mut().zip(count) {
            *slot = at;
            at += c;
        }
        for &k in src.iter() {
            let digit = (k >> shift) as u8 as usize;
            dst[next[digit] as usize] = k;
            next[digit] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// Model-side aggregate counters a [`MetricsAccumulator`] cannot derive from
/// packet records alone: the simulated window, attempt-level link
/// observations, the energy meter, and the configuration's load constants.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTotals {
    /// Length of the simulated window.
    pub duration: SimDuration,
    /// Packets generated by the application (records may be fewer: packets
    /// still in flight when the window closed produce no record).
    pub generated: u64,
    /// Individual frame transmissions.
    pub attempts: u64,
    /// Transmissions not followed by an ACK.
    pub attempts_unacked: u64,
    /// Receiver duplicates caused by lost ACKs.
    pub duplicates: u64,
    /// Sum of per-attempt SNR observations, dB.
    pub snr_sum: f64,
    /// Sum of per-attempt RSSI observations, dBm.
    pub rssi_sum: f64,
    /// Time the MAC spent serving packets.
    pub busy: SimDuration,
    /// Radio energy over the window.
    pub energy: EnergyBreakdown,
    /// Payload bits per packet (`lD`).
    pub payload_bits: u32,
    /// Offered application load, bits per second.
    pub offered_bps: f64,
    /// Channel-model mean SNR, used when no attempt was ever made.
    pub fallback_snr_db: f64,
    /// Channel-model mean RSSI, used when no attempt was ever made.
    pub fallback_rssi_dbm: f64,
}

/// Streaming fold of [`PacketRecord`]s into [`LinkMetrics`].
///
/// [`observe`](Self::observe) ingests records one at a time;
/// [`finish`](Self::finish) combines the fold with the model-side
/// [`RunTotals`] into the final summary. Only delivered-packet delays are
/// buffered (as integer µs, to keep percentiles exact and the sort a
/// radix sort); everything else is O(1) state, so memory is bounded by
/// the delivered count — at most the per-configuration packet budget (4500
/// in the paper's protocol) — rather than by total records retained.
///
/// The fold performs the same floating-point operations in the same order
/// as the historical batch summariser, so the resulting [`LinkMetrics`] are
/// bit-for-bit identical (see `summarise_records`): the delays are sorted
/// as integers and only then converted to ms, and the conversion is
/// monotone, so the sorted ms values are the batch path's exactly.
#[derive(Debug, Clone, Default)]
pub struct MetricsAccumulator {
    queue_dropped: u64,
    radio_lost: u64,
    delivered: u64,
    acked: u64,
    delays_us: Vec<u64>,
    services_sum_ms: f64,
    waits_sum_ms: f64,
    waits_count: u64,
    tries_sum: u64,
    completed: u64,
    observed: u64,
}

impl MetricsAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty accumulator with the delivered-delay buffer sized
    /// for up to `packets` deliveries, so the fold never reallocates
    /// mid-run. Purely a capacity hint: the fold itself is unchanged.
    pub fn with_packet_hint(packets: u64) -> Self {
        MetricsAccumulator {
            delays_us: Vec::with_capacity(usize::try_from(packets).unwrap_or(usize::MAX)),
            ..Self::default()
        }
    }

    /// Records observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Running fate counters `(queue_dropped, radio_lost, delivered)` —
    /// read mid-run by the network simulator's epoch snapshots.
    pub(crate) fn counts(&self) -> (u64, u64, u64) {
        (self.queue_dropped, self.radio_lost, self.delivered)
    }

    /// Folds one record into the running summary.
    pub fn observe(&mut self, r: &PacketRecord) {
        self.observed += 1;
        match r.fate {
            PacketFate::QueueDropped => self.queue_dropped += 1,
            PacketFate::RadioLost => self.radio_lost += 1,
            PacketFate::Delivered => self.delivered += 1,
        }
        if r.sender_acked {
            self.acked += 1;
        }
        if let Some(d) = r.delay() {
            if r.fate == PacketFate::Delivered {
                self.delays_us.push(d.as_micros());
            }
        }
        if let Some(s) = r.service_time() {
            self.services_sum_ms += s.as_millis_f64();
            self.tries_sum += r.tries as u64;
            self.completed += 1;
        }
        if let Some(w) = r.queueing_time() {
            self.waits_sum_ms += w.as_millis_f64();
            self.waits_count += 1;
        }
    }

    /// Completes the fold into a [`LinkMetrics`] summary.
    pub fn finish(mut self, t: &RunTotals) -> LinkMetrics {
        let duration_s = t.duration.as_secs_f64().max(f64::MIN_POSITIVE);
        let delays = DelayStats::of_micros(&mut self.delays_us);

        let residual = t.generated - self.queue_dropped - self.radio_lost - self.delivered;
        let delivered_bits = self.delivered as f64 * t.payload_bits as f64;
        let u_eng_uj = if delivered_bits > 0.0 {
            t.energy.tx_j * 1e6 / delivered_bits
        } else {
            f64::INFINITY
        };
        let total_uj = if delivered_bits > 0.0 {
            t.energy.total_j() * 1e6 / delivered_bits
        } else {
            f64::INFINITY
        };
        let denom = t.generated.max(1) as f64;

        LinkMetrics {
            duration_s,
            generated: t.generated,
            queue_dropped: self.queue_dropped,
            radio_lost: self.radio_lost,
            delivered: self.delivered,
            acked: self.acked,
            residual,
            attempts: t.attempts,
            attempts_unacked: t.attempts_unacked,
            duplicates: t.duplicates,
            mean_tries: if self.completed > 0 {
                self.tries_sum as f64 / self.completed as f64
            } else {
                0.0
            },
            goodput_bps: delivered_bits / duration_s,
            offered_bps: t.offered_bps,
            delay_mean_ms: delays.mean_ms,
            delay_p50_ms: delays.p50_ms,
            delay_p95_ms: delays.p95_ms,
            delay_p99_ms: delays.p99_ms,
            service_mean_ms: if self.completed > 0 {
                self.services_sum_ms / self.completed as f64
            } else {
                0.0
            },
            queueing_mean_ms: if self.waits_count > 0 {
                self.waits_sum_ms / self.waits_count as f64
            } else {
                0.0
            },
            u_eng_uj_per_bit: u_eng_uj,
            total_energy_uj_per_bit: total_uj,
            energy: t.energy,
            plr_queue: self.queue_dropped as f64 / denom,
            plr_radio: self.radio_lost as f64 / denom,
            per: if t.attempts > 0 {
                t.attempts_unacked as f64 / t.attempts as f64
            } else {
                0.0
            },
            mean_snr_db: if t.attempts > 0 {
                t.snr_sum / t.attempts as f64
            } else {
                t.fallback_snr_db
            },
            mean_rssi_dbm: if t.attempts > 0 {
                t.rssi_sum / t.attempts as f64
            } else {
                t.fallback_rssi_dbm
            },
            utilization: t.busy.as_secs_f64() / duration_s,
        }
    }
}

/// Batch summary of a complete record slice — the historical (pre-streaming)
/// code path, kept as an independent implementation so tests can pin the
/// streaming [`MetricsAccumulator`] against it bit-for-bit.
pub fn summarise_records(records: &[PacketRecord], t: &RunTotals) -> LinkMetrics {
    let duration_s = t.duration.as_secs_f64().max(f64::MIN_POSITIVE);

    let mut queue_dropped = 0u64;
    let mut radio_lost = 0u64;
    let mut delivered = 0u64;
    let mut acked = 0u64;
    let mut delays_ms = Vec::new();
    let mut services_ms = Vec::new();
    let mut waits_ms = Vec::new();
    let mut tries_sum = 0u64;
    let mut completed = 0u64;
    for r in records {
        match r.fate {
            PacketFate::QueueDropped => queue_dropped += 1,
            PacketFate::RadioLost => radio_lost += 1,
            PacketFate::Delivered => delivered += 1,
        }
        if r.sender_acked {
            acked += 1;
        }
        if let Some(d) = r.delay() {
            if r.fate == PacketFate::Delivered {
                delays_ms.push(d.as_millis_f64());
            }
        }
        if let Some(s) = r.service_time() {
            services_ms.push(s.as_millis_f64());
            tries_sum += r.tries as u64;
            completed += 1;
        }
        if let Some(w) = r.queueing_time() {
            waits_ms.push(w.as_millis_f64());
        }
    }
    delays_ms.sort_by(|a, b| a.partial_cmp(b).expect("delays are finite"));

    let residual = t.generated - queue_dropped - radio_lost - delivered;
    let delivered_bits = delivered as f64 * t.payload_bits as f64;
    let u_eng_uj = if delivered_bits > 0.0 {
        t.energy.tx_j * 1e6 / delivered_bits
    } else {
        f64::INFINITY
    };
    let total_uj = if delivered_bits > 0.0 {
        t.energy.total_j() * 1e6 / delivered_bits
    } else {
        f64::INFINITY
    };
    let denom = t.generated.max(1) as f64;

    LinkMetrics {
        duration_s,
        generated: t.generated,
        queue_dropped,
        radio_lost,
        delivered,
        acked,
        residual,
        attempts: t.attempts,
        attempts_unacked: t.attempts_unacked,
        duplicates: t.duplicates,
        mean_tries: if completed > 0 {
            tries_sum as f64 / completed as f64
        } else {
            0.0
        },
        goodput_bps: delivered_bits / duration_s,
        offered_bps: t.offered_bps,
        delay_mean_ms: mean(&delays_ms),
        delay_p50_ms: percentile(&delays_ms, 0.50),
        delay_p95_ms: percentile(&delays_ms, 0.95),
        delay_p99_ms: percentile(&delays_ms, 0.99),
        service_mean_ms: mean(&services_ms),
        queueing_mean_ms: mean(&waits_ms),
        u_eng_uj_per_bit: u_eng_uj,
        total_energy_uj_per_bit: total_uj,
        energy: t.energy,
        plr_queue: queue_dropped as f64 / denom,
        plr_radio: radio_lost as f64 / denom,
        per: if t.attempts > 0 {
            t.attempts_unacked as f64 / t.attempts as f64
        } else {
            0.0
        },
        mean_snr_db: if t.attempts > 0 {
            t.snr_sum / t.attempts as f64
        } else {
            t.fallback_snr_db
        },
        mean_rssi_dbm: if t.attempts > 0 {
            t.rssi_sum / t.attempts as f64
        } else {
            t.fallback_rssi_dbm
        },
        utilization: t.busy.as_secs_f64() / duration_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert!((percentile(&v, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn percentile_rejects_bad_quantile() {
        let _ = percentile(&[1.0], 1.5);
    }

    /// The delay fold as first written: a comparison sort, then every
    /// delay converted into a ms vector that `mean` and `percentile` read.
    fn delay_stats_by_comparison_sort(delays_us: &[u64]) -> DelayStats {
        let mut sorted = delays_us.to_vec();
        sorted.sort_unstable();
        let ms: Vec<f64> = sorted
            .iter()
            .map(|&us| SimDuration::from_micros(us).as_millis_f64())
            .collect();
        DelayStats {
            mean_ms: mean(&ms),
            p50_ms: percentile(&ms, 0.50),
            p95_ms: percentile(&ms, 0.95),
            p99_ms: percentile(&ms, 0.99),
        }
    }

    #[test]
    fn radix_delay_fold_equals_comparison_sort_fold() {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = wsn_sim_engine::rng::splitmix64(state);
            state
        };
        for n in [0usize, 1, 2, 3, 400, 4_500] {
            // Keys up to 2^40, up to 2^20, and heavy ties: a handful of
            // distinct values (as a config's service times give), or one.
            for (bits, distinct) in [(40u32, 0u64), (20, 0), (24, 5), (33, 1), (40, 64)] {
                let mut delays: Vec<u64> = (0..n)
                    .map(|_| {
                        let key = next() >> (64 - bits);
                        if distinct == 0 {
                            key
                        } else {
                            (key % distinct) * 320 + (1 << (bits - 1))
                        }
                    })
                    .collect();
                let mut expected_order = delays.clone();
                expected_order.sort_unstable();
                let expected = delay_stats_by_comparison_sort(&delays);
                let mut scratch = Vec::new();
                assert_eq!(
                    radix_sort(&mut delays.clone(), &mut scratch),
                    expected_order
                );
                let got = DelayStats::of_micros(&mut delays);
                let what = format!("n={n} bits={bits} distinct={distinct}");
                for (a, b) in [
                    (got.mean_ms, expected.mean_ms),
                    (got.p50_ms, expected.p50_ms),
                    (got.p95_ms, expected.p95_ms),
                    (got.p99_ms, expected.p99_ms),
                ] {
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    fn metrics() -> LinkMetrics {
        LinkMetrics {
            duration_s: 10.0,
            generated: 100,
            queue_dropped: 10,
            radio_lost: 5,
            delivered: 84,
            acked: 80,
            residual: 1,
            attempts: 120,
            attempts_unacked: 40,
            duplicates: 2,
            mean_tries: 1.35,
            goodput_bps: 7_000.0,
            offered_bps: 8_800.0,
            delay_mean_ms: 25.0,
            delay_p50_ms: 20.0,
            delay_p95_ms: 60.0,
            delay_p99_ms: 90.0,
            service_mean_ms: 18.0,
            queueing_mean_ms: 7.0,
            u_eng_uj_per_bit: 0.4,
            total_energy_uj_per_bit: 2.0,
            energy: EnergyBreakdown::default(),
            plr_queue: 0.10,
            plr_radio: 0.05,
            per: 0.333,
            mean_snr_db: 15.0,
            mean_rssi_dbm: -80.0,
            utilization: 0.6,
        }
    }

    #[test]
    fn plr_total_sums_components() {
        let m = metrics();
        assert!((m.plr_total() - 0.15).abs() < 1e-12);
        assert!((m.delivery_ratio() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn conservation_invariant() {
        let m = metrics();
        assert!(m.conserves_packets());
        let mut bad = metrics();
        bad.delivered -= 1;
        assert!(!bad.conserves_packets());
    }

    #[test]
    fn efficiency_is_reciprocal_of_u_eng() {
        let m = metrics();
        assert!((m.energy_efficiency_bits_per_uj() - 2.5).abs() < 1e-12);
    }
}
