//! The per-link simulation core of the event-driven multi-link
//! [`network`](crate::network) simulator.
//!
//! A [`LinkCore`] owns everything one sender→receiver pair needs — traffic
//! source, `Qmax` queue, CSMA-CA transaction, channel, RNG streams, energy
//! meter and streaming metrics fold. What it does *not* own is the medium:
//! every clear-channel assessment and every frame airtime is routed through
//! the [`Medium`] trait, which the network's shared air implements by
//! sampling *actual* channel occupancy and resolving overlapping frames by
//! SINR. A lone link's medium falls back to the configured
//! external-interferer CCA draw and never reports an overlap, so a
//! one-link scenario draws exactly what the golden single-link
//! [`simulation`](crate::simulation) draws, in the same order.

use rand::Rng;

use wsn_mac::queue::{Admission, TxQueue};
use wsn_mac::transaction::{Action, RadioActivity, Transaction, TxOutcome};
use wsn_params::config::StackConfig;
use wsn_params::motion::Trajectory;
use wsn_params::types::{Distance, PowerLevel};
use wsn_radio::channel::{lqi_from_snr, Channel, ChannelConfig, Observation};
use wsn_radio::energy::EnergyMeter;
use wsn_radio::interference::combine_dbm;
use wsn_sim_engine::executor::Scheduler;
use wsn_sim_engine::rng::{FactoryStream, NormalSampler, RngFactory, StreamId};
use wsn_sim_engine::time::{SimDuration, SimTime};

use crate::metrics::{LinkMetrics, MetricsAccumulator, RunTotals};
use crate::record::{PacketFate, PacketRecord};
use crate::traffic::TrafficModel;

/// The two per-link event kinds; the network model tags them with a link
/// index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkEv {
    /// An application packet arrives.
    Arrival,
    /// The current MAC wait phase elapsed.
    MacPhase,
}

/// The radio medium a [`LinkCore`] transmits into.
///
/// The contract that keeps N = 1 bit-identical: an implementation whose
/// `cca_busy` is exactly [`Transaction::sample_cca_busy`] and whose
/// `frame_interference_dbm` returns `None` reproduces the golden
/// single-link run, RNG draw order included.
pub(crate) trait Medium {
    /// One clear-channel assessment for `link` at time `now`. Called
    /// exactly once per CCA with the backoff RNG; implementations that
    /// consult real occupancy must still fall back to
    /// [`Transaction::sample_cca_busy`] so external-interferer
    /// probabilities keep their draws. Generic over the generator so the
    /// same medium serves the golden (`StdRng`) and fast (`FastRng`)
    /// engines.
    fn cca_busy<R: Rng + ?Sized>(
        &mut self,
        link: usize,
        now: SimTime,
        txn: &Transaction,
        rng: &mut R,
    ) -> bool;

    /// `link`'s data frame occupies the air over `[start, end)`.
    fn frame_on_air(&mut self, link: usize, start: SimTime, end: SimTime);

    /// Resolves `link`'s frame that just finished its airtime: the summed
    /// foreign power (dBm) that overlapped it at the receiver, or `None`
    /// if the frame flew alone.
    fn frame_interference_dbm(&mut self, link: usize, start: SimTime, end: SimTime) -> Option<f64>;

    /// Capture threshold, dB: an overlapped frame below this SINR is lost.
    fn capture_db(&self) -> f64;
}

/// Metadata of a packet waiting in (or at the head of) the queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pending {
    seq: u64,
    t_arrival: SimTime,
    queue_depth: usize,
}

/// The packet currently in MAC service. Its `Pending` stays at the queue
/// head (the in-service packet occupies a `Qmax` slot) and is popped on
/// completion.
#[derive(Debug, Clone)]
struct Active {
    txn: Transaction,
    meta: Pending,
    t_service_start: SimTime,
    receiver_got: bool,
    receiver_copies: u32,
    last_obs: Option<Observation>,
}

/// One sender→receiver link's complete simulation state.
///
/// Generic over the generator type `R` — the engine-mode seam of the
/// network path: `LinkCore<StdRng>` is the golden engine (ChaCha12 +
/// Box–Muller, bit-for-bit the single-link behavior) and
/// `LinkCore<FastRng>` the fast engine (xoshiro256++ + Ziggurat,
/// statistically equivalent).
pub(crate) struct LinkCore<R: NormalSampler> {
    /// This link's index in its scenario; passed to every [`Medium`] call.
    index: usize,
    cfg: StackConfig,
    /// The channel, with the fading and noise streams it observes from.
    channel: Channel<R>,
    /// Pristine per-packet MAC transaction, copied on each service start.
    txn_template: Transaction,
    rng_delivery: R,
    rng_backoff: R,
    rng_traffic: R,
    traffic: TrafficModel,
    queue: TxQueue<Pending>,
    current: Option<Active>,
    acc: MetricsAccumulator,
    energy: EnergyMeter,
    attempts: u64,
    attempts_unacked: u64,
    snr_sum: f64,
    rssi_sum: f64,
    busy: SimDuration,
    generated: u64,
    budget: u64,
    duplicates: u64,
    trajectory: Trajectory,
    /// Airtime of the frame currently on the air, set when its Transmit
    /// wait begins and resolved (against the medium) when it ends.
    current_frame: Option<(SimTime, SimTime)>,
    /// Set when the link leaves the scenario: no further packets are
    /// generated, but an in-flight MAC transaction still finishes.
    departed: bool,
    /// Frames that shared airtime with a foreign transmission.
    frames_interfered: u64,
    /// Interfered frames whose SINR fell below the capture threshold.
    frames_capture_lost: u64,
}

impl<R: NormalSampler> LinkCore<R> {
    /// Builds a link core on the `environment` channel with its five named
    /// RNG streams drawn from `factory` — the same streams the single-link
    /// simulator draws, which is what makes a 1-link scenario
    /// bit-identical to it.
    pub(crate) fn new(
        index: usize,
        cfg: StackConfig,
        environment: ChannelConfig,
        traffic: TrafficModel,
        trajectory: Trajectory,
        budget: u64,
        factory: &RngFactory,
    ) -> Self
    where
        R: FactoryStream,
    {
        let channel = Channel::new(
            environment,
            cfg.power,
            cfg.distance,
            R::from_factory(factory, StreamId::Fading),
            R::from_factory(factory, StreamId::Noise),
        );
        // The MAC transaction state machine starts every packet from the
        // same state; build it once and copy per packet instead of
        // re-deriving the CCA busy probability each service start.
        let mut txn_template = Transaction::new(
            cfg.payload,
            cfg.max_tries,
            SimDuration::from_millis(cfg.retry_delay.millis() as u64),
        );
        txn_template.set_cca_busy_probability(channel.cca_busy_probability());
        LinkCore {
            index,
            cfg,
            channel,
            txn_template,
            rng_delivery: R::from_factory(factory, StreamId::Delivery),
            rng_backoff: R::from_factory(factory, StreamId::Backoff),
            rng_traffic: R::from_factory(factory, StreamId::Traffic),
            traffic,
            queue: TxQueue::new(cfg.queue_cap),
            current: None,
            acc: MetricsAccumulator::with_packet_hint(budget),
            energy: EnergyMeter::new(),
            attempts: 0,
            attempts_unacked: 0,
            snr_sum: 0.0,
            rssi_sum: 0.0,
            busy: SimDuration::ZERO,
            generated: 0,
            budget,
            duplicates: 0,
            trajectory,
            current_frame: None,
            departed: false,
            frames_interfered: 0,
            frames_capture_lost: 0,
        }
    }

    /// The simulated configuration.
    pub(crate) fn config(&self) -> StackConfig {
        self.cfg
    }

    /// Frames that shared airtime with a foreign transmission.
    pub(crate) fn frames_interfered(&self) -> u64 {
        self.frames_interfered
    }

    /// Interfered frames lost to the capture threshold.
    pub(crate) fn frames_capture_lost(&self) -> u64 {
        self.frames_capture_lost
    }

    /// The link stops generating traffic (scenario churn). The in-flight
    /// MAC transaction, if any, still runs to completion.
    pub(crate) fn depart(&mut self) {
        self.departed = true;
    }

    /// Clears the departed flag so a later `Join` event resumes traffic
    /// generation (failure/recovery storms). A no-op for links that never
    /// departed, which is what keeps the compiled-timeline replay of a
    /// churn-free scenario bit-identical to the legacy seeding.
    pub(crate) fn rejoin(&mut self) {
        self.departed = false;
    }

    /// Re-targets the link's own budget to a new sender–receiver distance
    /// (a timeline `Move`). Degenerate geometry clamps to the 0.1 m floor
    /// the cross-link gain path already uses.
    pub(crate) fn set_distance(&mut self, meters: f64) {
        if let Ok(d) = Distance::from_meters(meters.max(0.1)) {
            self.cfg.distance = d;
            self.channel.retarget(self.cfg.power, d);
        }
    }

    /// Changes the transmit power (a timeline `PowerChange`): the link
    /// budget and the energy meter's TX draw both follow the new level.
    pub(crate) fn set_power(&mut self, power: PowerLevel) {
        self.cfg.power = power;
        self.channel.retarget(power, self.cfg.distance);
    }

    /// Cumulative per-link progress counters for epoch snapshots:
    /// `(generated, delivered, radio_lost, queue_dropped)`.
    pub(crate) fn progress(&self) -> (u64, u64, u64, u64) {
        let (queue_dropped, radio_lost, delivered) = self.acc.counts();
        (self.generated, delivered, radio_lost, queue_dropped)
    }

    /// Folds a finished record into the running metrics and streams it on.
    fn emit<F: FnMut(&PacketRecord)>(&mut self, record: PacketRecord, out: &mut F) {
        self.acc.observe(&record);
        out(&record);
    }

    /// Handles a [`LinkEv::Arrival`]: admit traffic, reschedule the next
    /// arrival through `wrap`, and kick the MAC if it is idle.
    pub(crate) fn on_arrival<E, M, W, F>(
        &mut self,
        sched: &mut Scheduler<'_, E>,
        wrap: &W,
        medium: &mut M,
        out: &mut F,
    ) where
        E: Eq,
        M: Medium,
        W: Fn(LinkEv) -> E,
        F: FnMut(&PacketRecord),
    {
        if self.departed {
            return;
        }
        if self.traffic.is_saturating() {
            self.saturate(sched.now(), out);
        } else {
            self.admit_one(sched.now(), out);
            if self.generated < self.budget {
                let gap = self
                    .traffic
                    .next_gap(
                        SimDuration::from_millis(self.cfg.packet_interval.millis() as u64),
                        &mut self.rng_traffic,
                    )
                    .expect("interval-based traffic always yields a gap");
                sched.schedule_in(gap, wrap(LinkEv::Arrival));
            }
        }
        if self.current.is_none() {
            self.start_next(sched.now());
            self.pump(sched, wrap, medium, out);
        }
    }

    /// Admits one packet to the queue, recording a drop if it overflows.
    fn admit_one<F: FnMut(&PacketRecord)>(&mut self, now: SimTime, out: &mut F) {
        let seq = self.generated;
        self.generated += 1;
        let meta = Pending {
            seq,
            t_arrival: now,
            // Depth the packet will observe if admitted (itself included).
            queue_depth: self.queue.len() + 1,
        };
        match self.queue.offer(meta) {
            Admission::Accepted { depth } => debug_assert_eq!(depth, meta.queue_depth),
            Admission::Dropped => self.emit(
                PacketRecord {
                    seq,
                    t_arrival: now,
                    t_service_start: None,
                    t_done: None,
                    tries: 0,
                    queue_depth: self.queue.len(),
                    fate: PacketFate::QueueDropped,
                    sender_acked: false,
                    last_rssi_dbm: f64::NAN,
                    last_snr_db: f64::NAN,
                    last_lqi: 0,
                },
                out,
            ),
        }
    }

    /// For the saturating source: keep the queue full while budget remains.
    fn saturate<F: FnMut(&PacketRecord)>(&mut self, now: SimTime, out: &mut F) {
        if self.departed {
            return;
        }
        while self.generated < self.budget && self.queue.len() < self.queue.capacity() {
            self.admit_one(now, out);
        }
    }

    /// Starts serving the queue-head packet if the MAC is idle.
    fn start_next(&mut self, now: SimTime) {
        if self.current.is_some() || self.queue.is_empty() {
            return;
        }
        // Copy the head's metadata; it stays queued (occupying its slot)
        // until the transaction terminates.
        let meta = *self.queue.peek().expect("non-empty queue has a head");
        self.current = Some(Active {
            txn: self.txn_template.clone(),
            meta,
            t_service_start: now,
            receiver_got: false,
            receiver_copies: 0,
            last_obs: None,
        });
    }

    /// Drives the active transaction until it blocks on a wait or finishes.
    pub(crate) fn pump<E, M, W, F>(
        &mut self,
        sched: &mut Scheduler<'_, E>,
        wrap: &W,
        medium: &mut M,
        out: &mut F,
    ) where
        E: Eq,
        M: Medium,
        W: Fn(LinkEv) -> E,
        F: FnMut(&PacketRecord),
    {
        loop {
            let link = self.index;
            let now = sched.now();
            let Some(active) = self.current.as_mut() else {
                return;
            };
            let step = active
                .txn
                .advance_with_cca(&mut self.rng_backoff, |txn, rng| {
                    medium.cca_busy(link, now, txn, rng)
                });
            match step {
                Action::Wait { duration, activity } => {
                    if activity == RadioActivity::Transmit {
                        // The data frame occupies the air for this wait.
                        let end = now + duration;
                        self.current_frame = Some((now, end));
                        medium.frame_on_air(link, now, end);
                    }
                    self.meter(activity, duration);
                    sched.schedule_in(duration, wrap(LinkEv::MacPhase));
                    return;
                }
                Action::Transmit { .. } => {
                    if !self.trajectory.is_stationary() {
                        let here = self
                            .trajectory
                            .distance_at(now.as_secs_f64(), self.cfg.distance);
                        self.channel.retarget(self.cfg.power, here);
                    }
                    let mut obs = self.channel.observe();
                    // Resolve the frame that just finished its airtime
                    // against the medium: overlapped frames see the summed
                    // foreign power as extra noise and are lost outright
                    // below the capture threshold.
                    let mut captured = true;
                    if let Some((start, end)) = self.current_frame.take() {
                        if let Some(foreign_dbm) = medium.frame_interference_dbm(link, start, end) {
                            self.frames_interfered += 1;
                            let noise_dbm = combine_dbm(obs.noise_dbm, foreign_dbm);
                            let snr_db = obs.rssi_dbm - noise_dbm;
                            obs = Observation {
                                rssi_dbm: obs.rssi_dbm,
                                noise_dbm,
                                snr_db,
                                lqi: lqi_from_snr(snr_db),
                                interfered: true,
                            };
                            if snr_db < medium.capture_db() {
                                captured = false;
                                self.frames_capture_lost += 1;
                            }
                        }
                    }
                    // The delivery draw happens whether or not the frame
                    // was captured, so RNG consumption does not depend on
                    // foreign traffic timing.
                    let clean =
                        self.channel
                            .data_success(&obs, self.cfg.payload, &mut self.rng_delivery);
                    let delivered = captured && clean;
                    let acked = delivered && self.channel.ack_success(&obs, &mut self.rng_delivery);
                    self.attempts += 1;
                    if !acked {
                        self.attempts_unacked += 1;
                    }
                    self.snr_sum += obs.snr_db;
                    self.rssi_sum += obs.rssi_dbm;
                    if delivered {
                        active.receiver_got = true;
                        active.receiver_copies += 1;
                    }
                    active.last_obs = Some(obs);
                    active.txn.on_tx_result(acked);
                }
                Action::Complete(outcome) => {
                    self.complete(outcome, now, out);
                }
            }
        }
    }

    fn complete<F: FnMut(&PacketRecord)>(&mut self, outcome: TxOutcome, now: SimTime, out: &mut F) {
        let active = self
            .current
            .take()
            .expect("complete only fires with an active transaction");
        // Free the queue slot the in-service packet was holding.
        let popped = self.queue.pop();
        debug_assert!(popped.is_some(), "in-service packet must be queued");

        let fate = if active.receiver_got {
            PacketFate::Delivered
        } else {
            PacketFate::RadioLost
        };
        self.duplicates += active.receiver_copies.saturating_sub(1) as u64;
        self.busy += now - active.t_service_start;
        let obs = active.last_obs;
        self.emit(
            PacketRecord {
                seq: active.meta.seq,
                t_arrival: active.meta.t_arrival,
                t_service_start: Some(active.t_service_start),
                t_done: Some(now),
                tries: outcome.tries(),
                queue_depth: active.meta.queue_depth,
                fate,
                sender_acked: outcome.is_delivered(),
                last_rssi_dbm: obs.map_or(f64::NAN, |o| o.rssi_dbm),
                last_snr_db: obs.map_or(f64::NAN, |o| o.snr_db),
                last_lqi: obs.map_or(0, |o| o.lqi),
            },
            out,
        );

        if self.traffic.is_saturating() {
            self.saturate(now, out);
        }
        self.start_next(now);
    }

    fn meter(&mut self, activity: RadioActivity, duration: SimDuration) {
        match activity {
            RadioActivity::SpiLoad | RadioActivity::Idle => self.energy.add_idle(duration),
            RadioActivity::Listen | RadioActivity::TxPrep => self.energy.add_rx(duration),
            RadioActivity::Transmit => self.energy.add_tx(self.cfg.power, duration),
        }
    }

    /// Snapshots the model-side counters needed to finish the metrics fold.
    fn totals(&self, duration: SimDuration) -> RunTotals {
        RunTotals {
            duration,
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
        }
    }

    /// Closes the books on the run: accounts the radio-idle residual over
    /// `total` simulated time and folds the final metrics.
    pub(crate) fn finalize(&mut self, total: SimDuration) -> LinkMetrics {
        let accounted = self.energy.accounted_time();
        if total > accounted {
            self.energy.add_idle(total - accounted);
        }
        let totals = self.totals(total);
        std::mem::take(&mut self.acc).finish(&totals)
    }
}
