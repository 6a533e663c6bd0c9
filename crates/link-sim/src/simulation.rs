//! The composed link simulation: traffic source → `Qmax` queue → CSMA-CA
//! MAC → channel → receiver, with streamed per-packet records and energy
//! metering.
//!
//! This is the golden engine. It composes the run packet by packet, in the
//! shape of the fast engine's per-packet service loop, but it draws every
//! random number from the same five named `StdRng` streams, in the same
//! order, that the event-driven [`network`](crate::network) simulator's
//! per-link core draws for a lone link. A one-link scenario therefore
//! reproduces a [`LinkSimulation`] bit for bit, and
//! `tests/network_equivalence.rs` holds the two paths to that.
//!
//! No event queue is involved. A link has at most two pending events: the
//! next arrival and the end of the current MAC phase. The run keeps only
//! the first as state and walks the second through straight-line code, so
//! the scheduler's rules are applied directly:
//!
//! - service starts at `max(arrival, previous departure)`;
//! - each MAC phase is metered when it begins, as the event path meters it;
//! - an arrival and a phase end at the same instant are ordered by the
//!   scheduler's `(time, sequence)` rule, and the run counts scheduler
//!   pushes to know each event's sequence number;
//! - a horizon stops the run at the first event due after it.
//!
//! Records stream to a [`PacketSink`] as each packet's fate is decided;
//! summary metrics are folded incrementally by a
//! [`MetricsAccumulator`], so a run holds O(delivered) state instead of
//! every record.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::Rng;

use wsn_mac::queue::{Admission, TxQueue};
use wsn_mac::timing;
use wsn_mac::transaction::Transaction;
use wsn_params::config::StackConfig;
use wsn_params::motion::Trajectory;
use wsn_radio::budget::LinkBudgetTable;
use wsn_radio::cc2420;
use wsn_radio::channel::{Channel, ChannelConfig};
use wsn_radio::energy::EnergyMeter;
use wsn_sim_engine::executor::{ExecStats, StopReason};
use wsn_sim_engine::rng::{RngFactory, StreamId};
use wsn_sim_engine::time::{SimDuration, SimTime};

use crate::metrics::{LinkMetrics, MetricsAccumulator, RunTotals};
use crate::record::{PacketFate, PacketRecord};
use crate::sink::{NullSink, PacketSink, VecSink};
use crate::traffic::TrafficModel;

/// Options controlling one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Packets the application generates (the paper used 4500 per
    /// configuration).
    pub packets: u64,
    /// Experiment seed; identical seeds reproduce runs bit-for-bit.
    pub seed: u64,
    /// Propagation environment.
    pub channel: ChannelConfig,
    /// Arrival process (the paper's grid uses [`TrafficModel::Periodic`]).
    pub traffic: TrafficModel,
    /// Keep per-packet records in the outcome (memory ∝ packets).
    pub record_packets: bool,
    /// Optional hard cap on simulated time.
    pub horizon: Option<SimDuration>,
    /// Sender motion profile; [`Trajectory::Stationary`] matches the
    /// paper's fixed-mote setup.
    pub trajectory: Trajectory,
}

impl SimOptions {
    /// The paper's protocol: 4500 packets per configuration on the hallway
    /// channel with periodic traffic.
    pub fn paper(seed: u64) -> Self {
        SimOptions {
            packets: 4500,
            seed,
            channel: ChannelConfig::paper_hallway(),
            traffic: TrafficModel::Periodic,
            record_packets: false,
            horizon: None,
            trajectory: Trajectory::Stationary,
        }
    }

    /// A reduced-size run for tests and examples.
    pub fn quick(packets: u64) -> Self {
        SimOptions {
            packets,
            seed: 0x00C0_FFEE,
            channel: ChannelConfig::paper_hallway(),
            traffic: TrafficModel::Periodic,
            record_packets: true,
            horizon: None,
            trajectory: Trajectory::Stationary,
        }
    }

    /// Returns the options with a different seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the options with a different channel.
    pub fn with_channel(mut self, channel: ChannelConfig) -> Self {
        self.channel = channel;
        self
    }

    /// Returns the options with a different traffic model.
    pub fn with_traffic(mut self, traffic: TrafficModel) -> Self {
        self.traffic = traffic;
        self
    }

    /// Returns the options with a motion profile.
    pub fn with_trajectory(mut self, trajectory: Trajectory) -> Self {
        self.trajectory = trajectory;
        self
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions::paper(0)
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// The simulated configuration.
    pub config: StackConfig,
    /// Summary metrics.
    metrics: LinkMetrics,
    /// Per-packet records if requested in [`SimOptions::record_packets`].
    /// Runs through [`LinkSimulation::run_with_sink`] leave this `None`;
    /// the records went to the sink instead.
    pub records: Option<Vec<PacketRecord>>,
    /// Why the run ended.
    pub stop: StopReason,
    /// Final simulation clock.
    pub end_time: SimTime,
    /// Executor statistics. A single link runs without an executor, so
    /// every event count is zero and `sim_elapsed` is the run's length.
    pub exec: ExecStats,
}

impl SimOutcome {
    /// The summary metrics of the run.
    pub fn metrics(&self) -> &LinkMetrics {
        &self.metrics
    }
}

/// A configured, runnable link simulation.
///
/// ```
/// use wsn_link_sim::prelude::*;
/// use wsn_params::prelude::*;
///
/// let cfg = StackConfig::builder()
///     .distance_m(20.0)
///     .power_level(27)
///     .payload_bytes(50)
///     .build()?;
/// let outcome = LinkSimulation::new(cfg, SimOptions::quick(200)).run();
/// let m = outcome.metrics();
/// assert_eq!(m.generated, 200);
/// assert!(m.conserves_packets());
/// # Ok::<(), wsn_params::error::InvalidParam>(())
/// ```
#[derive(Debug, Clone)]
pub struct LinkSimulation {
    config: StackConfig,
    options: SimOptions,
    budgets: Option<Arc<LinkBudgetTable>>,
}

impl LinkSimulation {
    /// Creates a simulation of `config` under `options`.
    pub fn new(config: StackConfig, options: SimOptions) -> Self {
        LinkSimulation {
            config,
            options,
            budgets: None,
        }
    }

    /// Attaches a campaign-shared [`LinkBudgetTable`]: the deterministic
    /// per-`(power, distance)` link-budget terms come from the memo instead
    /// of being recomputed per run. Results are bit-for-bit identical (see
    /// [`Channel::from_budget`]); the table is consulted only when its
    /// environment matches this run's [`SimOptions::channel`], so a
    /// mismatched table is safely ignored.
    pub fn with_budget_table(mut self, table: Arc<LinkBudgetTable>) -> Self {
        self.budgets = Some(table);
        self
    }

    /// Runs the simulation to completion and summarises it.
    ///
    /// Honors [`SimOptions::record_packets`]: when set, records are
    /// collected through a [`VecSink`] and returned on the outcome. Prefer
    /// [`run_with_sink`](Self::run_with_sink) for bounded-memory streaming.
    pub fn run(self) -> SimOutcome {
        if self.options.record_packets {
            let mut sink = VecSink::new();
            let mut outcome = self.run_with_sink(&mut sink);
            outcome.records = Some(sink.into_records());
            outcome
        } else {
            self.run_with_sink(&mut NullSink)
        }
    }

    /// Runs the simulation, streaming each [`PacketRecord`] to `sink` the
    /// moment the packet's fate is decided. The outcome carries full
    /// summary metrics but no record vector; peak memory is O(delivered)
    /// (the exact-percentile delay buffer) regardless of packet count.
    pub fn run_with_sink<S: PacketSink>(self, sink: &mut S) -> SimOutcome {
        let factory = RngFactory::new(self.options.seed);
        let fading = factory.stream(StreamId::Fading);
        let noise = factory.stream(StreamId::Noise);
        let (power, distance) = (self.config.power, self.config.distance);
        let channel = match &self.budgets {
            Some(table) if *table.config() == self.options.channel => {
                table.channel(power, distance, fading, noise)
            }
            _ => Channel::new(self.options.channel, power, distance, fading, noise),
        };
        let mut run = GoldenRun::new(self.config, channel, &factory, &self.options, sink);
        let stop = match run.drive() {
            Ok(()) => StopReason::QueueEmpty,
            Err(HorizonReached) => {
                run.now = run.horizon;
                StopReason::HorizonReached
            }
        };
        let end_time = run.now;
        let metrics = run.finalize(end_time - SimTime::ZERO);
        SimOutcome {
            config: self.config,
            metrics,
            records: None,
            stop,
            end_time,
            exec: ExecStats {
                events_handled: 0,
                events_scheduled: 0,
                queue_high_water: 0,
                sim_elapsed: end_time - SimTime::ZERO,
                wall_elapsed: Duration::ZERO,
            },
        }
    }
}

/// The key of "no pending arrival": orders after every real event.
const NO_ARRIVAL: (SimTime, u64) = (SimTime::MAX, u64::MAX);

/// The first event due after the horizon was reached; the run stops there.
struct HorizonReached;

/// A packet admitted to the queue; the head stays queued, holding its
/// `Qmax` slot, until its transaction completes.
#[derive(Debug, Clone, Copy)]
struct Pending {
    seq: u64,
    t_arrival: SimTime,
    /// Queue depth the packet saw on admission, itself included.
    queue_depth: usize,
}

/// The mutable state of one golden run.
///
/// Event order is kept as the scheduler would keep it: every event the
/// event path would push (one per arrival, one per MAC phase) takes the
/// next value of `pushes` as its sequence number, and events are handled
/// in `(time, sequence)` order.
struct GoldenRun<'s, S> {
    cfg: StackConfig,
    /// The channel, with the fading and noise streams it observes from.
    channel: Channel<StdRng>,
    rng_delivery: StdRng,
    rng_backoff: StdRng,
    rng_traffic: StdRng,
    traffic: TrafficModel,
    trajectory: Trajectory,
    interval: SimDuration,
    spi_load: SimDuration,
    frame_time: SimDuration,
    retry_delay: SimDuration,
    /// The PA drain at the configured level, watts.
    tx_power_w: f64,
    cca_busy_prob: f64,
    budget: u64,
    horizon: SimTime,
    queue: TxQueue<Pending>,
    /// The instant of the last handled event.
    now: SimTime,
    /// `(time, sequence)` of the pending arrival, or [`NO_ARRIVAL`].
    arrival: (SimTime, u64),
    /// Events pushed so far: the next event's sequence number.
    pushes: u64,
    acc: MetricsAccumulator,
    energy: EnergyMeter,
    attempts: u64,
    attempts_unacked: u64,
    snr_sum: f64,
    rssi_sum: f64,
    busy: SimDuration,
    generated: u64,
    duplicates: u64,
    sink: &'s mut S,
    /// [`PacketSink::wants_records`], read once at start-up.
    sink_wants: bool,
}

impl<'s, S: PacketSink> GoldenRun<'s, S> {
    fn new(
        cfg: StackConfig,
        channel: Channel<StdRng>,
        factory: &RngFactory,
        options: &SimOptions,
        sink: &'s mut S,
    ) -> Self {
        let sink_wants = sink.wants_records();
        GoldenRun {
            rng_delivery: factory.stream(StreamId::Delivery),
            rng_backoff: factory.stream(StreamId::Backoff),
            rng_traffic: factory.stream(StreamId::Traffic),
            cca_busy_prob: channel.cca_busy_probability(),
            channel,
            traffic: options.traffic,
            trajectory: options.trajectory,
            interval: timing::packet_interval(&cfg),
            spi_load: timing::spi_load(cfg.payload),
            frame_time: timing::frame_time(cfg.payload),
            retry_delay: timing::retry_delay(&cfg),
            tx_power_w: cc2420::tx_power_w(cfg.power),
            budget: options.packets,
            horizon: options.horizon.map_or(SimTime::MAX, |h| SimTime::ZERO + h),
            queue: TxQueue::new(cfg.queue_cap),
            now: SimTime::ZERO,
            arrival: NO_ARRIVAL,
            pushes: 0,
            acc: MetricsAccumulator::with_packet_hint(options.packets),
            energy: EnergyMeter::new(),
            attempts: 0,
            attempts_unacked: 0,
            snr_sum: 0.0,
            rssi_sum: 0.0,
            busy: SimDuration::ZERO,
            generated: 0,
            duplicates: 0,
            sink,
            sink_wants,
            cfg,
        }
    }

    /// Runs until no event is pending or the horizon is passed. Between
    /// busy periods the link is idle, so the next event is an arrival, and
    /// that arrival finds the queue empty and starts service.
    fn drive(&mut self) -> Result<(), HorizonReached> {
        // The seed arrival at t = 0 is the first push.
        self.arrival = self.push(SimTime::ZERO);
        while self.arrival != NO_ARRIVAL {
            if self.arrival.0 > self.horizon {
                return Err(HorizonReached);
            }
            self.now = self.arrival.0;
            self.arrive();
            while !self.queue.is_empty() {
                self.serve()?;
            }
        }
        Ok(())
    }

    /// Gives the next event due at `at` its sequence number.
    fn push(&mut self, at: SimTime) -> (SimTime, u64) {
        let key = (at, self.pushes);
        self.pushes += 1;
        key
    }

    /// Handles the pending arrival at `self.now`: admits traffic and
    /// pushes the next arrival. A saturating source fills the queue
    /// instead and never arrives again.
    fn arrive(&mut self) {
        if self.traffic.is_saturating() {
            self.saturate();
            self.arrival = NO_ARRIVAL;
            return;
        }
        self.admit_one();
        self.arrival = if self.generated < self.budget {
            let gap = self
                .traffic
                .next_gap(self.interval, &mut self.rng_traffic)
                .expect("interval-based traffic always yields a gap");
            self.push(self.now + gap)
        } else {
            NO_ARRIVAL
        };
    }

    /// A MAC phase of `duration` begins at `self.now` (already metered by
    /// the caller). Handles every arrival ordered before the phase's end,
    /// then moves the clock to that end.
    #[inline]
    fn wait(&mut self, duration: SimDuration) -> Result<(), HorizonReached> {
        let end = self.push(self.now + duration);
        while self.arrival < end {
            if self.arrival.0 > self.horizon {
                return Err(HorizonReached);
            }
            self.now = self.arrival.0;
            self.arrive();
        }
        if end.0 > self.horizon {
            return Err(HorizonReached);
        }
        self.now = end.0;
        Ok(())
    }

    /// Admits one packet to the queue, recording a drop if it overflows.
    fn admit_one(&mut self) {
        let seq = self.generated;
        self.generated += 1;
        let meta = Pending {
            seq,
            t_arrival: self.now,
            queue_depth: self.queue.len() + 1,
        };
        if self.queue.offer(meta) == Admission::Dropped {
            self.emit(PacketRecord {
                seq,
                t_arrival: self.now,
                t_service_start: None,
                t_done: None,
                tries: 0,
                queue_depth: self.queue.len(),
                fate: PacketFate::QueueDropped,
                sender_acked: false,
                last_rssi_dbm: f64::NAN,
                last_snr_db: f64::NAN,
                last_lqi: 0,
            });
        }
    }

    /// For the saturating source: keep the queue full while budget remains.
    fn saturate(&mut self) {
        while self.generated < self.budget && self.queue.len() < self.queue.capacity() {
            self.admit_one();
        }
    }

    /// Serves the queue head from `self.now` to its completion, phase by
    /// phase in [`Transaction`]'s order: SPI load, then per attempt the
    /// initial backoff, clear-channel assessments (each busy one followed
    /// by a congestion backoff), turnaround, frame airtime, the channel
    /// draws, and the ACK wait or timeout, with the retry delay between
    /// attempts.
    fn serve(&mut self) -> Result<(), HorizonReached> {
        let head = *self.queue.peek().expect("serve runs on a non-empty queue");
        let start = self.now;
        self.energy.add_idle(self.spi_load);
        self.wait(self.spi_load)?;
        let max_tries = self.cfg.max_tries.get();
        let mut tries = 0u8;
        let mut copies = 0u32;
        let (acked, obs) = loop {
            let backoff = timing::draw_initial_backoff(&mut self.rng_backoff);
            self.energy.add_rx(backoff);
            self.wait(backoff)?;
            // The draw is skipped on a zero busy probability and once the
            // transmit-anyway budget is spent, as `sample_cca_busy` does.
            let mut busy_ccas = 0;
            while self.cca_busy_prob > 0.0
                && busy_ccas < Transaction::MAX_CCA_RETRIES
                && self.rng_backoff.gen::<f64>() < self.cca_busy_prob
            {
                busy_ccas += 1;
                self.energy.add_rx(timing::CCA_TIME);
                self.wait(timing::CCA_TIME)?;
                let congestion = timing::draw_congestion_backoff(&mut self.rng_backoff);
                self.energy.add_rx(congestion);
                self.wait(congestion)?;
            }
            self.energy.add_rx(timing::TURNAROUND);
            self.wait(timing::TURNAROUND)?;
            self.energy.add_tx_w(self.tx_power_w, self.frame_time);
            self.wait(self.frame_time)?;

            // The frame has landed: a moving sender's channel follows it.
            if !self.trajectory.is_stationary() {
                let here = self
                    .trajectory
                    .distance_at(self.now.as_secs_f64(), self.cfg.distance);
                self.channel.retarget(self.cfg.power, here);
            }
            let obs = self.channel.observe();
            let delivered =
                self.channel
                    .data_success(&obs, self.cfg.payload, &mut self.rng_delivery);
            let acked = delivered && self.channel.ack_success(&obs, &mut self.rng_delivery);
            tries += 1;
            self.attempts += 1;
            if !acked {
                self.attempts_unacked += 1;
            }
            self.snr_sum += obs.snr_db;
            self.rssi_sum += obs.rssi_dbm;
            if delivered {
                copies += 1;
            }
            if acked {
                self.energy.add_rx(timing::ACK_RECEIVE);
                self.wait(timing::ACK_RECEIVE)?;
                break (true, obs);
            }
            self.energy.add_rx(timing::ACK_TIMEOUT);
            self.wait(timing::ACK_TIMEOUT)?;
            if tries >= max_tries {
                break (false, obs);
            }
            self.energy.add_idle(self.retry_delay);
            self.wait(self.retry_delay)?;
        };

        // Completion frees the head's slot; a saturating source refills it
        // before the next service starts at the same instant.
        self.queue.pop();
        self.duplicates += copies.saturating_sub(1) as u64;
        self.busy += self.now - start;
        self.emit(PacketRecord {
            seq: head.seq,
            t_arrival: head.t_arrival,
            t_service_start: Some(start),
            t_done: Some(self.now),
            tries,
            queue_depth: head.queue_depth,
            fate: if copies > 0 {
                PacketFate::Delivered
            } else {
                PacketFate::RadioLost
            },
            sender_acked: acked,
            last_rssi_dbm: obs.rssi_dbm,
            last_snr_db: obs.snr_db,
            last_lqi: obs.lqi,
        });
        if self.traffic.is_saturating() {
            self.saturate();
        }
        Ok(())
    }

    /// Folds a finished record into the running metrics and streams it on.
    fn emit(&mut self, record: PacketRecord) {
        self.acc.observe(&record);
        if self.sink_wants {
            self.sink.on_packet(&record);
        }
    }

    /// Closes the books on the run: accounts the radio-idle residual over
    /// `total` simulated time and folds the final metrics.
    fn finalize(mut self, total: SimDuration) -> LinkMetrics {
        let accounted = self.energy.accounted_time();
        if total > accounted {
            self.energy.add_idle(total - accounted);
        }
        let totals = RunTotals {
            duration: total,
            generated: self.generated,
            attempts: self.attempts,
            attempts_unacked: self.attempts_unacked,
            duplicates: self.duplicates,
            snr_sum: self.snr_sum,
            rssi_sum: self.rssi_sum,
            busy: self.busy,
            energy: self.energy.breakdown(),
            payload_bits: self.cfg.payload.bits(),
            offered_bps: self.cfg.offered_load_bps(),
            fallback_snr_db: self.channel.mean_snr_db(),
            fallback_rssi_dbm: self.channel.mean_rssi_dbm(),
        };
        self.acc.finish(&totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunTotals;
    use crate::record::PacketFate;
    use wsn_radio::per::{EmpiricalPer, PerBackend};

    fn cfg(power: u8, dist: f64) -> StackConfig {
        StackConfig::builder()
            .distance_m(dist)
            .power_level(power)
            .payload_bytes(50)
            .max_tries(3)
            .retry_delay_ms(0)
            .queue_cap(30)
            .packet_interval_ms(50)
            .build()
            .unwrap()
    }

    #[test]
    fn good_link_delivers_nearly_everything() {
        let outcome = LinkSimulation::new(cfg(31, 10.0), SimOptions::quick(300)).run();
        let m = outcome.metrics();
        assert_eq!(m.generated, 300);
        assert!(m.conserves_packets());
        assert!(m.plr_total() < 0.02, "plr={}", m.plr_total());
        assert!(m.goodput_bps > 0.9 * m.offered_bps);
    }

    #[test]
    fn weak_link_loses_packets_over_radio() {
        let outcome = LinkSimulation::new(cfg(3, 35.0), SimOptions::quick(300)).run();
        let m = outcome.metrics();
        assert!(m.conserves_packets());
        assert!(m.plr_radio > 0.01, "plr_radio={}", m.plr_radio);
        assert!(m.per > 0.05, "per={}", m.per);
        assert!(m.mean_tries > 1.05, "tries={}", m.mean_tries);
    }

    #[test]
    fn same_seed_is_bit_reproducible() {
        let a = LinkSimulation::new(cfg(23, 35.0), SimOptions::quick(150)).run();
        let b = LinkSimulation::new(cfg(23, 35.0), SimOptions::quick(150)).run();
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.records.unwrap().len(), b.records.unwrap().len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = LinkSimulation::new(cfg(23, 35.0), SimOptions::quick(150)).run();
        let b = LinkSimulation::new(cfg(23, 35.0), SimOptions::quick(150).with_seed(99)).run();
        assert_ne!(a.metrics().goodput_bps, b.metrics().goodput_bps);
    }

    #[test]
    fn queue_cap_one_drops_arrivals_during_service() {
        // Very fast arrivals (10 ms) with a slow weak link and Qmax=1: most
        // arrivals find the server busy and are dropped at the queue.
        let cfg = StackConfig::builder()
            .distance_m(35.0)
            .power_level(3)
            .payload_bytes(110)
            .max_tries(8)
            .retry_delay_ms(30)
            .queue_cap(1)
            .packet_interval_ms(10)
            .build()
            .unwrap();
        let m = LinkSimulation::new(cfg, SimOptions::quick(300)).run();
        let m = m.metrics().clone();
        assert!(m.conserves_packets());
        assert!(m.plr_queue > 0.4, "plr_queue={}", m.plr_queue);
    }

    #[test]
    fn saturating_traffic_keeps_link_busy() {
        let outcome = LinkSimulation::new(
            cfg(31, 10.0),
            SimOptions::quick(200).with_traffic(TrafficModel::Saturating),
        )
        .run();
        let m = outcome.metrics();
        assert_eq!(m.generated, 200);
        assert!(m.conserves_packets());
        assert!(m.utilization > 0.95, "util={}", m.utilization);
    }

    #[test]
    fn perfect_channel_never_loses() {
        let mut channel = ChannelConfig::ideal();
        channel.per_backend = PerBackend::Empirical(EmpiricalPer::new(0.0, -0.15));
        let outcome =
            LinkSimulation::new(cfg(31, 10.0), SimOptions::quick(200).with_channel(channel)).run();
        let m = outcome.metrics();
        assert_eq!(m.delivered, 200);
        assert_eq!(m.plr_total(), 0.0);
        assert!((m.mean_tries - 1.0).abs() < 1e-12);
        assert_eq!(m.per, 0.0);
    }

    #[test]
    fn records_match_aggregates() {
        let outcome = LinkSimulation::new(cfg(23, 35.0), SimOptions::quick(250)).run();
        let m = outcome.metrics().clone();
        let records = outcome.records.unwrap();
        let delivered = records
            .iter()
            .filter(|r| r.fate == PacketFate::Delivered)
            .count() as u64;
        assert_eq!(delivered, m.delivered);
        let tries: u64 = records.iter().map(|r| r.tries as u64).sum();
        assert_eq!(tries, m.attempts);
    }

    #[test]
    fn u_eng_matches_hand_computed_tx_energy() {
        // On an ideal perfect channel every packet takes exactly one
        // transmission, so U_eng = Etx · (l0 + lD) / lD.
        let mut channel = ChannelConfig::ideal();
        channel.per_backend = PerBackend::Empirical(EmpiricalPer::new(0.0, -0.15));
        let cfg = StackConfig::builder()
            .distance_m(10.0)
            .power_level(31)
            .payload_bytes(114)
            .max_tries(1)
            .queue_cap(30)
            .packet_interval_ms(50)
            .build()
            .unwrap();
        let m = LinkSimulation::new(cfg, SimOptions::quick(100).with_channel(channel)).run();
        let etx = wsn_radio::cc2420::tx_energy_per_bit_j(cfg.power) * 1e6;
        let expected = etx * 133.0 / 114.0; // (l0 + lD)/lD with l0 = 19
        let got = m.metrics().u_eng_uj_per_bit;
        assert!(
            (got - expected).abs() / expected < 1e-6,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn ack_loss_produces_duplicates() {
        // A weak link with a big retry budget: some delivered frames lose
        // their ACK and get retransmitted, creating receiver duplicates.
        let cfg = StackConfig::builder()
            .distance_m(35.0)
            .power_level(3)
            .payload_bytes(110)
            .max_tries(8)
            .retry_delay_ms(0)
            .queue_cap(30)
            .packet_interval_ms(200)
            .build()
            .unwrap();
        let m = LinkSimulation::new(cfg, SimOptions::quick(500)).run();
        assert!(m.metrics().duplicates > 0, "no duplicates on a weak link");

        // With ACK loss disabled, duplicates are impossible.
        let mut ideal = ChannelConfig::paper_hallway();
        ideal.ack_loss = false;
        let m2 = LinkSimulation::new(cfg, SimOptions::quick(500).with_channel(ideal)).run();
        assert_eq!(m2.metrics().duplicates, 0);
    }

    #[test]
    fn horizon_leaves_residual_packets() {
        let options = SimOptions {
            horizon: Some(SimDuration::from_millis(40)),
            ..SimOptions::quick(1000)
        };
        let outcome = LinkSimulation::new(cfg(23, 35.0), options).run();
        assert_eq!(outcome.stop, StopReason::HorizonReached);
        let m = outcome.metrics();
        assert!(m.conserves_packets());
        assert!(m.generated < 1000);
    }

    #[test]
    fn streaming_metrics_match_batch_summary_bit_for_bit() {
        // The streaming MetricsAccumulator must reproduce the historical
        // batch summariser exactly: re-summarise the recorded packets with
        // the independent batch path and require full equality (LinkMetrics
        // is compared field-by-field via PartialEq on the raw floats).
        for (power, dist, packets) in [(31u8, 10.0, 200u64), (23, 35.0, 300), (3, 35.0, 250)] {
            let outcome = LinkSimulation::new(cfg(power, dist), SimOptions::quick(packets)).run();
            let streamed = outcome.metrics().clone();
            let records = outcome.records.expect("quick() records packets");

            // Rebuild RunTotals from the published metrics; every field is
            // carried through `finish` unchanged, so this reconstruction is
            // lossless for the comparison.
            let totals = RunTotals {
                duration: SimDuration::from_secs_f64(streamed.duration_s),
                generated: streamed.generated,
                attempts: streamed.attempts,
                attempts_unacked: streamed.attempts_unacked,
                duplicates: streamed.duplicates,
                snr_sum: streamed.mean_snr_db * streamed.attempts as f64,
                rssi_sum: streamed.mean_rssi_dbm * streamed.attempts as f64,
                busy: SimDuration::from_secs_f64(streamed.utilization * streamed.duration_s),
                energy: streamed.energy,
                payload_bits: outcome.config.payload.bits(),
                offered_bps: streamed.offered_bps,
                fallback_snr_db: streamed.mean_snr_db,
                fallback_rssi_dbm: streamed.mean_rssi_dbm,
            };
            let batch = crate::metrics::summarise_records(&records, &totals);

            // Fields derived purely from records must agree bit-for-bit.
            assert_eq!(batch.queue_dropped, streamed.queue_dropped);
            assert_eq!(batch.radio_lost, streamed.radio_lost);
            assert_eq!(batch.delivered, streamed.delivered);
            assert_eq!(batch.acked, streamed.acked);
            assert_eq!(batch.residual, streamed.residual);
            assert_eq!(batch.mean_tries.to_bits(), streamed.mean_tries.to_bits());
            assert_eq!(
                batch.delay_mean_ms.to_bits(),
                streamed.delay_mean_ms.to_bits()
            );
            assert_eq!(
                batch.delay_p50_ms.to_bits(),
                streamed.delay_p50_ms.to_bits()
            );
            assert_eq!(
                batch.delay_p95_ms.to_bits(),
                streamed.delay_p95_ms.to_bits()
            );
            assert_eq!(
                batch.delay_p99_ms.to_bits(),
                streamed.delay_p99_ms.to_bits()
            );
            assert_eq!(
                batch.service_mean_ms.to_bits(),
                streamed.service_mean_ms.to_bits()
            );
            assert_eq!(
                batch.queueing_mean_ms.to_bits(),
                streamed.queueing_mean_ms.to_bits()
            );
            assert_eq!(batch.goodput_bps.to_bits(), streamed.goodput_bps.to_bits());
        }
    }

    #[test]
    fn sink_run_equals_record_run() {
        // Streaming through an external VecSink must see exactly the
        // records (and metrics) the record_packets path produces.
        let recorded = LinkSimulation::new(cfg(23, 35.0), SimOptions::quick(200)).run();

        let mut sink = VecSink::new();
        let mut options = SimOptions::quick(200);
        options.record_packets = false;
        let streamed = LinkSimulation::new(cfg(23, 35.0), options).run_with_sink(&mut sink);

        assert_eq!(recorded.metrics(), streamed.metrics());
        assert!(streamed.records.is_none());
        assert_eq!(recorded.records.unwrap(), sink.into_records());
    }

    #[test]
    fn budget_table_run_is_bit_identical_to_direct_run() {
        let table = Arc::new(LinkBudgetTable::new(ChannelConfig::paper_hallway()));
        for (power, dist) in [(23u8, 35.0), (3, 35.0), (31, 10.0)] {
            let direct = LinkSimulation::new(cfg(power, dist), SimOptions::quick(200)).run();
            let memoized = LinkSimulation::new(cfg(power, dist), SimOptions::quick(200))
                .with_budget_table(Arc::clone(&table))
                .run();
            assert_eq!(direct.metrics(), memoized.metrics());
            assert_eq!(direct.records, memoized.records);
        }
        assert_eq!(table.len(), 3, "one memo entry per operating point");
    }

    #[test]
    fn mismatched_budget_table_is_ignored_not_wrong() {
        // A table built for a different environment must not leak its
        // budgets into the run.
        let table = Arc::new(LinkBudgetTable::new(ChannelConfig::ideal()));
        let direct = LinkSimulation::new(cfg(23, 35.0), SimOptions::quick(150)).run();
        let guarded = LinkSimulation::new(cfg(23, 35.0), SimOptions::quick(150))
            .with_budget_table(Arc::clone(&table))
            .run();
        assert_eq!(direct.metrics(), guarded.metrics());
        assert!(table.is_empty(), "mismatched table must stay untouched");
    }

    #[test]
    fn null_sink_run_matches_recording_run_metrics() {
        let with_records = LinkSimulation::new(cfg(31, 10.0), SimOptions::quick(150)).run();
        let mut options = SimOptions::quick(150);
        options.record_packets = false;
        let without = LinkSimulation::new(cfg(31, 10.0), options).run();
        assert_eq!(with_records.metrics(), without.metrics());
    }

    #[test]
    fn outcome_carries_exec_stats() {
        // No executor runs a single link: the counts are zero and the
        // simulated span is the run's length.
        let outcome = LinkSimulation::new(cfg(31, 10.0), SimOptions::quick(100)).run();
        assert_eq!(outcome.exec.events_handled, 0);
        assert_eq!(outcome.exec.events_scheduled, 0);
        assert_eq!(outcome.exec.queue_high_water, 0);
        assert_eq!(outcome.exec.sim_elapsed, outcome.end_time - SimTime::ZERO);
        assert!(outcome.end_time > SimTime::ZERO);
    }

    #[test]
    fn utilization_grows_with_load() {
        let slow = StackConfig::builder()
            .packet_interval_ms(500)
            .distance_m(20.0)
            .build()
            .unwrap();
        let fast = StackConfig::builder()
            .packet_interval_ms(20)
            .distance_m(20.0)
            .build()
            .unwrap();
        let u_slow = LinkSimulation::new(slow, SimOptions::quick(200)).run();
        let u_fast = LinkSimulation::new(fast, SimOptions::quick(200)).run();
        assert!(u_fast.metrics().utilization > u_slow.metrics().utilization);
    }
}
