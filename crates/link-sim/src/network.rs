//! The shared-channel multi-link network simulator: N sender→receiver
//! links from one [`Scenario`] run in a single event loop against a
//! `SharedAir` that tracks who is transmitting when.
//!
//! Where the single-link [`simulation`](crate::simulation) folds all
//! contention into a fixed CCA busy probability, here both contention
//! mechanisms *emerge* from geometry:
//!
//! * **Carrier sense** — a CCA samples actual occupancy: it reports busy
//!   when any foreign frame is on the air whose sender is received above
//!   the scenario's carrier-sense threshold at this link's sender. Senders
//!   too far apart to hear each other (the hidden-terminal geometry) pass
//!   CCA and collide.
//! * **Capture** — frames that overlap at a receiver resolve by SINR: the
//!   foreign mean powers are energy-summed ([`combine_dbm`]) into the
//!   noise floor, and a frame whose SINR falls below the scenario's
//!   capture threshold is lost outright. Above it, the frame survives with
//!   a degraded observation.
//!
//! Two axes of scale were added by the dynamic-topology refactor:
//!
//! * **Timelines** — the run replays a
//!   [`ScenarioTimeline`]: the
//!   scenario's own `join_s`/`leave_s` churn compiles into `Join`/`Leave`
//!   events, and callers can merge explicit `Move`/`PowerChange`/storm
//!   streams on top ([`NetworkSimulation::with_timeline`]). Events apply
//!   between MAC transactions; a frame already on the air resolves under
//!   the neighborhood it started with.
//! * **Sparse neighborhoods** — instead of dense N×N gain matrices, each
//!   link keeps only the neighbors received above
//!   [`NetOptions::prune_floor_dbm`] at its receiver (interference set)
//!   and above the carrier-sense threshold at its sender (CCA set), found
//!   through a uniform spatial grid. A `Move` re-derives one link's
//!   in/out edges in O(neighborhood) via reverse indexes — not O(N²) —
//!   which is what lets ext13 run 1024 links. The default floor is
//!   `-inf` (no pruning): neighbor sets then equal the dense matrix row
//!   by construction, keeping every pre-refactor scenario byte-identical.
//!
//! **N = 1 equivalence contract**: a churn-free single-link scenario
//! reproduces [`LinkSimulation`](crate::simulation::LinkSimulation)
//! bit-for-bit — same RNG streams (link 0 uses the undérived factory),
//! same event ordering, and a shared air that never reports occupancy or
//! overlap for a lone link. `tests/network_equivalence.rs` pins this
//! against the golden fixtures, and pins the catalog scenarios through
//! the sparse path against `tests/golden/scenarios.jsonl`.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use wsn_params::config::StackConfig;
use wsn_params::scenario::{Position, Scenario};
use wsn_params::timeline::{ScenarioTimeline, TopologyAction};
use wsn_params::types::{Distance, PowerLevel};
use wsn_radio::channel::ChannelConfig;
use wsn_radio::interference::InterferenceModel;
use wsn_sim_engine::executor::{ExecStats, Executor, Model, Scheduler, StopReason};
use wsn_sim_engine::mode::EngineMode;
use wsn_sim_engine::rng::{splitmix64, FactoryStream, FastRng, NormalSampler, RngFactory};
use wsn_sim_engine::time::{SimDuration, SimTime};

use rand::rngs::StdRng;
use rand::Rng;

use wsn_mac::transaction::Transaction;
use wsn_radio::interference::combine_dbm;

use crate::link::{LinkCore, LinkEv, Medium};
use crate::metrics::LinkMetrics;
use crate::record::PacketRecord;
use crate::traffic::TrafficModel;

/// Options controlling one network run. Mirrors
/// [`SimOptions`](crate::simulation::SimOptions) minus the trajectory
/// (which is per-link, on the [`Scenario`]'s link specs).
#[derive(Debug, Clone, PartialEq)]
pub struct NetOptions {
    /// Packets each link's application generates.
    pub packets: u64,
    /// Experiment seed; link `i` draws its RNG streams from the factory
    /// derived at index `i` (link 0 uses the base factory, preserving the
    /// single-link seeding).
    pub seed: u64,
    /// Propagation environment, shared by every link.
    pub channel: ChannelConfig,
    /// Arrival process, shared by every link.
    pub traffic: TrafficModel,
    /// Keep per-packet records in the outcome (memory ∝ packets × links).
    pub record_packets: bool,
    /// Optional hard cap on simulated time.
    pub horizon: Option<SimDuration>,
    /// Simulation engine: [`EngineMode::Golden`] (`StdRng`, bit-for-bit
    /// the reference) or [`EngineMode::Fast`] (`FastRng` + Ziggurat,
    /// statistically equivalent, for large fleets). The analytic engine
    /// has no network path.
    pub engine: EngineMode,
    /// RSSI pruning floor, dBm: a foreign sender received below this at a
    /// link's receiver is dropped from that link's interference set (and
    /// the CCA set prunes at `max(floor, cca_threshold)`, which is exact —
    /// a sender below the carrier-sense threshold can never flip a CCA).
    /// The default [`NetOptions::NO_PRUNING`] keeps every pair, making the
    /// sparse store equal the dense matrix and legacy runs byte-identical;
    /// density sweeps raise it (ext13 uses −85 dBm) to bound neighborhoods.
    pub prune_floor_dbm: f64,
    /// When set (and a [`horizon`](Self::horizon) exists), snapshot every
    /// link's cumulative progress counters at this period into
    /// [`NetworkOutcome::epochs`] — the per-epoch series the recovery-time
    /// analysis and `repro timeline` stream through the obs layer.
    pub epoch: Option<SimDuration>,
}

impl NetOptions {
    /// The default pruning floor: keep every pair, however faint. With
    /// this floor the sparse neighborhoods are exactly the dense-matrix
    /// rows, so pre-refactor scenarios replay byte-identically.
    pub const NO_PRUNING: f64 = f64::NEG_INFINITY;

    /// A reduced-size run for tests and examples.
    pub fn quick(packets: u64) -> Self {
        NetOptions {
            packets,
            seed: 0x00C0_FFEE,
            channel: ChannelConfig::paper_hallway(),
            traffic: TrafficModel::Periodic,
            record_packets: false,
            horizon: None,
            engine: EngineMode::Golden,
            prune_floor_dbm: Self::NO_PRUNING,
            epoch: None,
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

    /// Returns the options with a different engine.
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// Returns the options with an RSSI pruning floor, dBm.
    pub fn with_prune_floor_dbm(mut self, dbm: f64) -> Self {
        self.prune_floor_dbm = dbm;
        self
    }
}

/// Aggregate shared-air counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AirStats {
    /// Data frames put on the air across all links.
    pub frames: u64,
    /// Frames that shared airtime with at least one foreign frame.
    pub overlapped_frames: u64,
    /// CCAs that found the channel genuinely occupied (deferrals caused by
    /// carrier-sensing a real neighbor, not the probabilistic model).
    pub cca_busy_hits: u64,
}

/// Topology-dynamics counters for one run: how many timeline events of
/// each kind applied, and what the incremental neighborhood maintenance
/// cost. `neighbor_updates / (moves + power_changes)` is the mean edges
/// touched per geometry event — the quantity that stays O(neighborhood)
/// on the sparse path where a dense recompute would be O(N²).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopoStats {
    /// `Join` events applied (including the compiled t = 0 joins).
    pub joins: u64,
    /// `Leave` events applied.
    pub leaves: u64,
    /// `Move` events applied.
    pub moves: u64,
    /// `PowerChange` events applied.
    pub power_changes: u64,
    /// Neighborhood edges removed or re-derived across all `Move` and
    /// `PowerChange` events.
    pub neighbor_updates: u64,
}

/// One link's cumulative progress counters at an epoch boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochLink {
    /// Packets generated so far.
    pub generated: u64,
    /// Packets delivered so far.
    pub delivered: u64,
    /// Packets lost to the radio so far.
    pub radio_lost: u64,
    /// Packets dropped at the queue so far.
    pub queue_dropped: u64,
}

/// All links' progress at one epoch boundary. Counters are cumulative;
/// per-epoch rates are first differences between consecutive snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochSnapshot {
    /// Epoch boundary, seconds of simulated time. Snapshots observe
    /// *after* any topology event scheduled at the same instant.
    pub t_s: f64,
    /// Per-link cumulative counters, in scenario order.
    pub links: Vec<EpochLink>,
}

/// One link's slice of a [`NetworkOutcome`].
#[derive(Debug, Clone)]
pub struct LinkOutcome {
    /// The link's stack configuration.
    pub config: StackConfig,
    /// Summary metrics, identical in shape to the single-link run.
    pub metrics: LinkMetrics,
    /// Frames of this link that shared airtime with a foreign frame.
    pub frames_interfered: u64,
    /// Interfered frames lost below the capture threshold.
    pub frames_capture_lost: u64,
    /// Per-packet records if requested in [`NetOptions::record_packets`].
    pub records: Option<Vec<PacketRecord>>,
}

/// Result of one network run.
#[derive(Debug, Clone)]
pub struct NetworkOutcome {
    /// Per-link results, in scenario order.
    pub links: Vec<LinkOutcome>,
    /// Shared-air counters.
    pub air: AirStats,
    /// Topology-dynamics counters (all zero for a static scenario except
    /// the compiled t = 0 joins).
    pub topo: TopoStats,
    /// Per-epoch progress snapshots; empty unless [`NetOptions::epoch`]
    /// and a horizon were set.
    pub epochs: Vec<EpochSnapshot>,
    /// Why the run ended.
    pub stop: StopReason,
    /// Final simulation clock.
    pub end_time: SimTime,
    /// Executor statistics for the whole network.
    pub exec: ExecStats,
}

impl NetworkOutcome {
    /// Total packets lost to the radio across all links, over total
    /// generated — the network-wide radio loss rate.
    pub fn plr_radio(&self) -> f64 {
        let lost: u64 = self.links.iter().map(|l| l.metrics.radio_lost).sum();
        let generated: u64 = self.links.iter().map(|l| l.metrics.generated).sum();
        if generated == 0 {
            0.0
        } else {
            lost as f64 / generated as f64
        }
    }

    /// Sum of per-link goodputs, bit/s.
    pub fn goodput_bps(&self) -> f64 {
        self.links.iter().map(|l| l.metrics.goodput_bps).sum()
    }
}

/// A configured, runnable multi-link simulation.
///
/// ```
/// use wsn_link_sim::prelude::*;
/// use wsn_params::prelude::*;
///
/// let cfg = StackConfig::builder()
///     .distance_m(20.0)
///     .power_level(31)
///     .payload_bytes(50)
///     .build()?;
/// let outcome = NetworkSimulation::new(
///     Scenario::parallel(&[cfg, cfg], 2.0),
///     NetOptions::quick(100),
/// )
/// .run();
/// assert_eq!(outcome.links.len(), 2);
/// assert!(outcome.air.frames > 0);
/// # Ok::<(), wsn_params::error::InvalidParam>(())
/// ```
#[derive(Debug, Clone)]
pub struct NetworkSimulation {
    scenario: Scenario,
    options: NetOptions,
    timeline: Option<ScenarioTimeline>,
}

impl NetworkSimulation {
    /// Creates a simulation of `scenario` under `options`.
    pub fn new(scenario: Scenario, options: NetOptions) -> Self {
        NetworkSimulation {
            scenario,
            options,
            timeline: None,
        }
    }

    /// Attaches an explicit topology timeline, merged on top of the
    /// scenario's compiled `join_s`/`leave_s` churn (compiled events win
    /// full `(t, id)` ties).
    pub fn with_timeline(mut self, timeline: ScenarioTimeline) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// The full timeline this run will replay: the scenario's compiled
    /// churn merged with the explicit timeline, if any.
    pub fn effective_timeline(&self) -> ScenarioTimeline {
        let compiled = ScenarioTimeline::compile(&self.scenario);
        match &self.timeline {
            Some(extra) => compiled.merge(extra),
            None => compiled,
        }
    }

    /// Runs every link of the scenario to completion in one event loop.
    ///
    /// # Panics
    ///
    /// Panics when the attached timeline references links outside the
    /// scenario or carries invalid timestamps/power levels (callers that
    /// accept untrusted timelines validate with
    /// [`ScenarioTimeline::validate`] first), and when
    /// [`NetOptions::engine`] is [`EngineMode::Analytic`], which has no
    /// network path.
    pub fn run(self) -> NetworkOutcome {
        match self.options.engine {
            EngineMode::Golden => self.run_with::<StdRng>(),
            EngineMode::Fast => self.run_with::<FastRng>(),
            EngineMode::Analytic => {
                panic!("the analytic engine has no multi-link network path; use golden or fast")
            }
        }
    }

    fn run_with<R: FactoryStream>(self) -> NetworkOutcome {
        let n = self.scenario.len();
        let timeline = self.effective_timeline();
        timeline
            .validate(n)
            .unwrap_or_else(|e| panic!("invalid scenario timeline: {e}"));
        // The fast engine re-roots the seed exactly like the single-link
        // fast path: a distinct splitmix64 lane per engine, so golden and
        // fast never share stream states.
        let root = match self.options.engine {
            EngineMode::Fast => {
                splitmix64(self.options.seed ^ splitmix64(EngineMode::Fast.seed_tag()))
            }
            _ => self.options.seed,
        };
        let base = RngFactory::new(root);
        let links: Vec<LinkCore<R>> = self
            .scenario
            .links
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                // Link 0 keeps the base factory so a 1-link scenario is
                // bit-identical to the direct single-link simulation.
                let factory = if i == 0 {
                    RngFactory::new(root)
                } else {
                    base.derive(i as u64)
                };
                LinkCore::new(
                    i,
                    spec.config,
                    self.options.channel,
                    self.options.traffic,
                    spec.trajectory,
                    self.options.packets,
                    &factory,
                )
            })
            .collect();
        let air = SharedAir::new(
            &self.scenario,
            &self.options.channel,
            self.options.prune_floor_dbm,
            &timeline,
        );
        let record = self.options.record_packets;
        // Seed schedule first (times/links/ordinals), since the timeline
        // itself moves into the model.
        let seeds: Vec<(f64, u32)> = timeline.events().iter().map(|e| (e.t_s, e.link)).collect();
        let model = NetModel {
            links,
            air,
            timeline,
            records: (0..n).map(|_| Vec::new()).collect(),
            record,
            topo: TopoStats::default(),
            epochs: Vec::new(),
        };
        let mut exec = Executor::new(model);
        if let Some(h) = self.options.horizon {
            exec = exec.with_horizon(SimTime::ZERO + h);
        }
        // Timeline events seed in (t, id) order; among same-instant seeds
        // the event-queue FIFO tiebreak then replays them in exactly that
        // order — the compiled stream reproduces the legacy seeding.
        for (k, (t_s, link)) in seeds.iter().enumerate() {
            exec.seed_at(
                SimTime::ZERO + SimDuration::from_secs_f64(*t_s),
                NetEv {
                    link: *link,
                    kind: NetKind::Topology(k as u32),
                },
            );
        }
        // Epoch ticks seed after the topology events, so a snapshot at an
        // event's exact instant observes the post-event state.
        if let (Some(epoch), Some(h)) = (self.options.epoch, self.options.horizon) {
            if epoch > SimDuration::ZERO {
                let mut t = SimTime::ZERO + epoch;
                let end = SimTime::ZERO + h;
                while t <= end {
                    exec.seed_at(
                        t,
                        NetEv {
                            link: 0,
                            kind: NetKind::EpochTick,
                        },
                    );
                    t += epoch;
                }
            }
        }
        let (stop, end_time) = exec.run_observed(&mut ());
        let exec_stats = *exec.last_stats().expect("run records stats");
        let mut model = exec.into_model();

        let total = end_time - SimTime::ZERO;
        let mut outcomes = Vec::with_capacity(n);
        for (core, records) in model.links.iter_mut().zip(model.records.drain(..)) {
            let metrics = core.finalize(total);
            outcomes.push(LinkOutcome {
                config: core.config(),
                metrics,
                frames_interfered: core.frames_interfered(),
                frames_capture_lost: core.frames_capture_lost(),
                records: record.then_some(records),
            });
        }
        NetworkOutcome {
            links: outcomes,
            air: model.air.stats(),
            topo: model.topo,
            epochs: model.epochs,
            stop,
            end_time,
            exec: exec_stats,
        }
    }
}

/// A network event: which link, and which of its per-link events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NetEv {
    link: u32,
    kind: NetKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetKind {
    Arrival,
    MacPhase,
    /// The k-th event of the run's effective timeline (index into its
    /// normalized stream).
    Topology(u32),
    /// A progress-snapshot boundary ([`NetOptions::epoch`]).
    EpochTick,
}

struct NetModel<R: NormalSampler> {
    links: Vec<LinkCore<R>>,
    air: SharedAir,
    timeline: ScenarioTimeline,
    records: Vec<Vec<PacketRecord>>,
    record: bool,
    topo: TopoStats,
    epochs: Vec<EpochSnapshot>,
}

impl<R: NormalSampler> Model for NetModel<R> {
    type Event = NetEv;

    fn handle(&mut self, event: NetEv, sched: &mut Scheduler<'_, NetEv>) {
        let NetModel {
            links,
            air,
            timeline,
            records,
            record,
            topo,
            epochs,
        } = self;
        let i = event.link as usize;
        let wrap = |e: LinkEv| NetEv {
            link: event.link,
            kind: match e {
                LinkEv::Arrival => NetKind::Arrival,
                LinkEv::MacPhase => NetKind::MacPhase,
            },
        };
        let mut out = |r: &PacketRecord| {
            if *record {
                records[i].push(*r);
            }
        };
        match event.kind {
            NetKind::Arrival => links[i].on_arrival(sched, &wrap, air, &mut out),
            NetKind::MacPhase => links[i].pump(sched, &wrap, air, &mut out),
            NetKind::Topology(k) => match timeline.events()[k as usize].action {
                TopologyAction::Join => {
                    topo.joins += 1;
                    links[i].rejoin();
                    links[i].on_arrival(sched, &wrap, air, &mut out);
                }
                TopologyAction::Leave => {
                    topo.leaves += 1;
                    links[i].depart();
                }
                TopologyAction::Move { sender, receiver } => {
                    topo.moves += 1;
                    topo.neighbor_updates += air.move_link(i, sender, receiver);
                    links[i].set_distance(sender.distance_m(&receiver));
                }
                TopologyAction::PowerChange { power_level } => {
                    // Validated before the run; re-checked cheaply here.
                    if let Ok(power) = PowerLevel::new(power_level) {
                        topo.power_changes += 1;
                        topo.neighbor_updates += air.set_power(i, power);
                        links[i].set_power(power);
                    }
                }
            },
            NetKind::EpochTick => epochs.push(EpochSnapshot {
                t_s: sched.now().as_secs_f64(),
                links: links
                    .iter()
                    .map(|c| {
                        let (generated, delivered, radio_lost, queue_dropped) = c.progress();
                        EpochLink {
                            generated,
                            delivered,
                            radio_lost,
                            queue_dropped,
                        }
                    })
                    .collect(),
            }),
        }
    }
}

/// One frame's airtime interval.
#[derive(Debug, Clone, Copy)]
struct Frame {
    start: SimTime,
    end: SimTime,
}

/// A uniform-cell point index over one class of nodes (all senders, or
/// all receivers). Purely a *candidate* filter: queries return every link
/// whose indexed point lies within one cell ring of the probe — a
/// superset of the true neighborhood whenever the cell size is at least
/// the maximum audible range — and the caller applies the exact gain
/// test. Neighbor sets therefore never depend on the grid geometry.
struct PointGrid {
    cell_m: f64,
    cells: HashMap<(i64, i64), Vec<u32>>,
}

impl PointGrid {
    fn new(cell_m: f64) -> Self {
        PointGrid {
            cell_m,
            cells: HashMap::new(),
        }
    }

    fn key(&self, p: Position) -> (i64, i64) {
        // An infinite cell (no pruning) maps everything to cell (0, 0).
        let k = |v: f64| {
            let c = (v / self.cell_m).floor();
            if c.is_finite() {
                c as i64
            } else {
                0
            }
        };
        (k(p.x_m), k(p.y_m))
    }

    fn insert(&mut self, link: u32, p: Position) {
        self.cells.entry(self.key(p)).or_default().push(link);
    }

    fn remove(&mut self, link: u32, p: Position) {
        let key = self.key(p);
        if let Some(v) = self.cells.get_mut(&key) {
            v.retain(|&x| x != link);
            if v.is_empty() {
                self.cells.remove(&key);
            }
        }
    }

    /// All links indexed within one cell ring of `p`, in a deterministic
    /// (cell-scan, then insertion) order.
    fn candidates(&self, p: Position, out: &mut Vec<u32>) {
        out.clear();
        let (cx, cy) = self.key(p);
        for dx in -1..=1i64 {
            for dy in -1..=1i64 {
                if let Some(v) = self.cells.get(&(cx + dx, cy + dy)) {
                    out.extend_from_slice(v);
                }
            }
        }
    }
}

/// The sender/receiver geometry the medium derives gains from.
#[derive(Clone, Copy)]
struct NodeGeom {
    sender: Position,
    receiver: Position,
    power: PowerLevel,
}

/// The shared radio channel, sparse edition: per-link neighbor lists of
/// `(source, mean power)` pairs derived from geometry, the set of frames
/// currently on the air, and per-frame overlap hit lists resolved at each
/// frame's end.
///
/// Cross-link gains use the *mean* path loss (no per-pair shadowing), so
/// the medium stays deterministic; the in-edge lists are kept sorted by
/// source index so interference folds in ascending-index order — the same
/// float accumulation order as the dense matrix scan, which is what makes
/// a no-pruning run byte-identical to the pre-refactor medium.
struct SharedAir {
    channel: ChannelConfig,
    capture_db: f64,
    /// Interference-edge floor, dBm ([`NetOptions::prune_floor_dbm`]).
    rx_floor_dbm: f64,
    /// CCA-edge floor: `max(rx_floor, cca_threshold)` — exact, because a
    /// sender below the carrier-sense threshold can never flip a CCA.
    cs_floor_dbm: f64,
    nodes: Vec<NodeGeom>,
    /// `rx_in[i]`: senders audible above the floor at `i`'s receiver,
    /// `(j, mean power dBm)`, sorted by `j`.
    rx_in: Vec<Vec<(u32, f64)>>,
    /// Reverse index: `rx_out[j]` lists every `i` with `j ∈ rx_in[i]`.
    rx_out: Vec<Vec<u32>>,
    /// `cs_in[i]`: senders audible above the CCA floor at `i`'s sender,
    /// sorted.
    cs_in: Vec<Vec<u32>>,
    /// Reverse index of `cs_in`.
    cs_out: Vec<Vec<u32>>,
    /// Spatial candidate indexes over sender and receiver points.
    senders: PointGrid,
    receivers: PointGrid,
    /// Scratch buffer for grid queries.
    scratch: Vec<u32>,
    /// The frame each link currently has on the air, if any.
    on_air: Vec<Option<Frame>>,
    /// Links with a frame on the air (swap-remove set + position index),
    /// so flagging can iterate whichever of {active set, neighborhood} is
    /// smaller.
    active: Vec<u32>,
    active_pos: Vec<u32>,
    /// `hits[i]`: foreign frames that overlapped `i`'s current frame, with
    /// the interfering power latched at flag time (a frame resolves under
    /// the neighborhood it started with, even across a mid-flight `Move`).
    hits: Vec<Vec<(u32, f64)>>,
    frames: u64,
    overlapped_frames: u64,
    cca_busy_hits: u64,
}

impl SharedAir {
    fn new(
        scenario: &Scenario,
        channel: &ChannelConfig,
        prune_floor_dbm: f64,
        timeline: &ScenarioTimeline,
    ) -> Self {
        let n = scenario.len();
        let cs_floor_dbm = prune_floor_dbm.max(scenario.cca_threshold_dbm);
        // Candidate radius: the farthest any sender could *ever* be heard
        // above the interference floor — over the initial powers and every
        // `PowerChange` the timeline can apply, so the grids stay a
        // conservative candidate superset for the whole run (the exact
        // gain test decides membership; the cell size only bounds the
        // scan). A low-power fleet thus gets proportionally small cells
        // instead of paying the all-N scan PA 31 would imply. Infinite
        // (no pruning) collapses the grids to a single cell — an O(N)
        // candidate scan, i.e. exactly the dense behavior.
        let power_ceiling = scenario
            .links
            .iter()
            .map(|l| l.config.power)
            .chain(timeline.events().iter().filter_map(|e| match e.action {
                TopologyAction::PowerChange { power_level } => PowerLevel::new(power_level).ok(),
                _ => None,
            }))
            .max_by_key(|p| p.level())
            .unwrap_or(PowerLevel::MAX);
        let cell_m = channel
            .pathloss
            .range_for_rssi_m(power_ceiling, prune_floor_dbm)
            .max(1.0);
        let mut air = SharedAir {
            channel: *channel,
            capture_db: scenario.capture_db,
            rx_floor_dbm: prune_floor_dbm,
            cs_floor_dbm,
            nodes: scenario
                .links
                .iter()
                .map(|l| NodeGeom {
                    sender: l.sender,
                    receiver: l.receiver,
                    power: l.config.power,
                })
                .collect(),
            rx_in: vec![Vec::new(); n],
            rx_out: vec![Vec::new(); n],
            cs_in: vec![Vec::new(); n],
            cs_out: vec![Vec::new(); n],
            senders: PointGrid::new(cell_m),
            receivers: PointGrid::new(cell_m),
            scratch: Vec::new(),
            on_air: vec![None; n],
            active: Vec::new(),
            active_pos: vec![u32::MAX; n],
            hits: vec![Vec::new(); n],
            frames: 0,
            overlapped_frames: 0,
            cca_busy_hits: 0,
        };
        for (i, node) in air.nodes.iter().enumerate() {
            air.senders.insert(i as u32, node.sender);
            air.receivers.insert(i as u32, node.receiver);
        }
        for i in 0..n {
            air.build_in_edges(i);
        }
        air
    }

    /// Mean received power of `from`'s sender at `to`, dBm (same clamp
    /// and path-loss model as the link's own budget).
    fn gain(&self, from: usize, to: Position) -> f64 {
        let g = &self.nodes[from];
        let meters = g.sender.distance_m(&to).max(0.1);
        self.channel.pathloss.mean_rssi_dbm(
            g.power,
            Distance::from_meters(meters).expect("clamped positive"),
        )
    }

    /// Derives `i`'s in-edges (rx and cs) from the grids and appends the
    /// reverse-index entries. Returns edges touched.
    fn build_in_edges(&mut self, i: usize) -> u64 {
        let mut touched = 0u64;
        let mut scratch = std::mem::take(&mut self.scratch);

        self.senders
            .candidates(self.nodes[i].receiver, &mut scratch);
        scratch.sort_unstable();
        for &j in &scratch {
            if j as usize == i {
                continue;
            }
            let p = self.gain(j as usize, self.nodes[i].receiver);
            if p >= self.rx_floor_dbm {
                self.rx_in[i].push((j, p));
                self.rx_out[j as usize].push(i as u32);
                touched += 1;
            }
        }

        self.senders.candidates(self.nodes[i].sender, &mut scratch);
        scratch.sort_unstable();
        for &j in &scratch {
            if j as usize == i {
                continue;
            }
            if self.gain(j as usize, self.nodes[i].sender) >= self.cs_floor_dbm {
                self.cs_in[i].push(j);
                self.cs_out[j as usize].push(i as u32);
                touched += 1;
            }
        }

        self.scratch = scratch;
        touched
    }

    /// Derives `i`'s out-edges (who hears `i`) from the grids. Returns
    /// edges touched.
    fn build_out_edges(&mut self, i: usize) -> u64 {
        let mut touched = 0u64;
        let mut scratch = std::mem::take(&mut self.scratch);

        self.receivers
            .candidates(self.nodes[i].sender, &mut scratch);
        scratch.sort_unstable();
        for &v in &scratch {
            if v as usize == i {
                continue;
            }
            let p = self.gain(i, self.nodes[v as usize].receiver);
            if p >= self.rx_floor_dbm {
                insert_sorted(&mut self.rx_in[v as usize], i as u32, p);
                self.rx_out[i].push(v);
                touched += 1;
            }
        }

        self.senders.candidates(self.nodes[i].sender, &mut scratch);
        scratch.sort_unstable();
        for &v in &scratch {
            if v as usize == i {
                continue;
            }
            if self.gain(i, self.nodes[v as usize].sender) >= self.cs_floor_dbm {
                if let Err(pos) = self.cs_in[v as usize].binary_search(&(i as u32)) {
                    self.cs_in[v as usize].insert(pos, i as u32);
                }
                self.cs_out[i].push(v);
                touched += 1;
            }
        }

        self.scratch = scratch;
        touched
    }

    /// Drops every edge incident to `i` (both directions) via the reverse
    /// indexes — O(neighborhood). Returns edges touched.
    fn drop_edges(&mut self, i: usize) -> u64 {
        let mut touched = 0u64;
        for (j, _) in self.rx_in[i].drain(..) {
            self.rx_out[j as usize].retain(|&x| x as usize != i);
            touched += 1;
        }
        for j in self.cs_in[i].drain(..) {
            self.cs_out[j as usize].retain(|&x| x as usize != i);
            touched += 1;
        }
        let victims = std::mem::take(&mut self.rx_out[i]);
        for v in &victims {
            if let Ok(pos) = self.rx_in[*v as usize].binary_search_by_key(&(i as u32), |e| e.0) {
                self.rx_in[*v as usize].remove(pos);
            }
            touched += 1;
        }
        let listeners = std::mem::take(&mut self.cs_out[i]);
        for v in &listeners {
            if let Ok(pos) = self.cs_in[*v as usize].binary_search(&(i as u32)) {
                self.cs_in[*v as usize].remove(pos);
            }
            touched += 1;
        }
        touched
    }

    /// Applies a `Move` of link `i`: re-index its points and re-derive its
    /// neighborhood incrementally. Cost (and return value) is the number
    /// of edges touched — O(neighborhood), never O(N²).
    fn move_link(&mut self, i: usize, sender: Position, receiver: Position) -> u64 {
        let mut touched = self.drop_edges(i);
        let old = self.nodes[i];
        self.senders.remove(i as u32, old.sender);
        self.receivers.remove(i as u32, old.receiver);
        self.nodes[i].sender = sender;
        self.nodes[i].receiver = receiver;
        self.senders.insert(i as u32, sender);
        self.receivers.insert(i as u32, receiver);
        touched += self.build_in_edges(i);
        touched += self.build_out_edges(i);
        touched
    }

    /// Applies a `PowerChange` of link `i`: only its out-edges (who hears
    /// it) depend on its power, so the in-edges stay untouched.
    fn set_power(&mut self, i: usize, power: PowerLevel) -> u64 {
        let mut touched = 0u64;
        // Drop only the outgoing half of the neighborhood.
        let victims = std::mem::take(&mut self.rx_out[i]);
        for v in &victims {
            if let Ok(pos) = self.rx_in[*v as usize].binary_search_by_key(&(i as u32), |e| e.0) {
                self.rx_in[*v as usize].remove(pos);
            }
            touched += 1;
        }
        let listeners = std::mem::take(&mut self.cs_out[i]);
        for v in &listeners {
            if let Ok(pos) = self.cs_in[*v as usize].binary_search(&(i as u32)) {
                self.cs_in[*v as usize].remove(pos);
            }
            touched += 1;
        }
        self.nodes[i].power = power;
        touched += self.build_out_edges(i);
        touched
    }

    fn activate(&mut self, link: usize) {
        self.active_pos[link] = self.active.len() as u32;
        self.active.push(link as u32);
    }

    fn deactivate(&mut self, link: usize) {
        let pos = self.active_pos[link] as usize;
        self.active.swap_remove(pos);
        if pos < self.active.len() {
            self.active_pos[self.active[pos] as usize] = pos as u32;
        }
        self.active_pos[link] = u32::MAX;
    }

    fn stats(&self) -> AirStats {
        AirStats {
            frames: self.frames,
            overlapped_frames: self.overlapped_frames,
            cca_busy_hits: self.cca_busy_hits,
        }
    }
}

/// Inserts `(j, p)` into a by-`j` sorted edge list, replacing an existing
/// entry for `j` if present.
fn insert_sorted(edges: &mut Vec<(u32, f64)>, j: u32, p: f64) {
    match edges.binary_search_by_key(&j, |e| e.0) {
        Ok(pos) => edges[pos] = (j, p),
        Err(pos) => edges.insert(pos, (j, p)),
    }
}

/// Appends `(j, p)` to a hit list unless `j` is already recorded (a frame
/// overlaps a given foreign frame at most once).
fn push_hit(hits: &mut Vec<(u32, f64)>, j: u32, p: f64) {
    if !hits.iter().any(|&(x, _)| x == j) {
        hits.push((j, p));
    }
}

impl Medium for SharedAir {
    fn cca_busy<R: Rng + ?Sized>(
        &mut self,
        link: usize,
        now: SimTime,
        txn: &Transaction,
        rng: &mut R,
    ) -> bool {
        // Real occupancy first: any foreign frame on the air right now
        // whose sender this link receives above the carrier-sense
        // threshold. `cs_in` holds exactly those senders (pruned at
        // `max(floor, threshold)`), sorted by index, so the first hit is
        // the same lowest-index hit the dense scan found. The
        // transmit-anyway budget still applies — after MAX_CCA_RETRIES
        // deferrals the MAC sends regardless, like the congestion-override
        // path.
        if txn.cca_retries() < Transaction::MAX_CCA_RETRIES {
            for &j in &self.cs_in[link] {
                if let Some(f) = self.on_air[j as usize] {
                    if f.start <= now && now < f.end {
                        self.cca_busy_hits += 1;
                        return true;
                    }
                }
            }
        }
        // Fall back to the probabilistic model so configured *external*
        // interference (WiFi and friends) still registers.
        Transaction::sample_cca_busy(txn, rng)
    }

    fn frame_on_air(&mut self, link: usize, start: SimTime, end: SimTime) {
        self.frames += 1;
        self.hits[link].clear();
        // Every frame still on the air overlaps the new one: flag both
        // directions with powers latched now, so each victim resolves the
        // overlap at its own frame end. Iterate whichever is smaller —
        // the set of live frames or this link's neighborhood — the sets
        // flagged are identical either way.
        if self.active.len() <= self.rx_in[link].len() + self.rx_out[link].len() {
            for idx in 0..self.active.len() {
                let j = self.active[idx] as usize;
                if j == link {
                    continue;
                }
                let f = self.on_air[j].expect("active links have a frame on the air");
                if f.end > start {
                    if let Ok(pos) = self.rx_in[link].binary_search_by_key(&(j as u32), |e| e.0) {
                        let p = self.rx_in[link][pos].1;
                        push_hit(&mut self.hits[link], j as u32, p);
                    }
                    if let Ok(pos) = self.rx_in[j].binary_search_by_key(&(link as u32), |e| e.0) {
                        let p = self.rx_in[j][pos].1;
                        push_hit(&mut self.hits[j], link as u32, p);
                    }
                }
            }
        } else {
            for idx in 0..self.rx_in[link].len() {
                let (j, p) = self.rx_in[link][idx];
                if let Some(f) = self.on_air[j as usize] {
                    if f.end > start {
                        push_hit(&mut self.hits[link], j, p);
                    }
                }
            }
            for idx in 0..self.rx_out[link].len() {
                let v = self.rx_out[link][idx] as usize;
                if let Some(f) = self.on_air[v] {
                    if f.end > start {
                        let p = self.rx_in[v]
                            .binary_search_by_key(&(link as u32), |e| e.0)
                            .map(|pos| self.rx_in[v][pos].1)
                            .expect("reverse index mirrors rx_in");
                        push_hit(&mut self.hits[v], link as u32, p);
                    }
                }
            }
        }
        if self.on_air[link].is_none() {
            self.activate(link);
        }
        self.on_air[link] = Some(Frame { start, end });
    }

    fn frame_interference_dbm(
        &mut self,
        link: usize,
        _start: SimTime,
        _end: SimTime,
    ) -> Option<f64> {
        if self.on_air[link].take().is_some() {
            self.deactivate(link);
        }
        // Fold in ascending source order — the dense scan's accumulation
        // order, so the energy sum is bit-identical.
        let mut hits = std::mem::take(&mut self.hits[link]);
        hits.sort_unstable_by_key(|&(j, _)| j);
        let mut foreign: Option<f64> = None;
        for &(_, p) in &hits {
            foreign = Some(match foreign {
                None => p,
                Some(acc) => combine_dbm(acc, p),
            });
        }
        hits.clear();
        self.hits[link] = hits;
        if foreign.is_some() {
            self.overlapped_frames += 1;
        }
        foreign
    }

    fn capture_db(&self) -> f64 {
        self.capture_db
    }
}

/// Promotes a configured [`InterferenceModel`] into an explicit in-network
/// interferer link, so the shared-channel machinery (real CCA deferral,
/// SINR capture) replaces the probabilistic approximation.
///
/// Returns `None` when the model has no shared-channel equivalent: an
/// inactive model, or a non-CCA-detectable one (broadband WiFi noise below
/// the 802.15.4 carrier-sense floor — that stays on the legacy
/// probabilistic path, as exercised by `examples/interference_study.rs`).
///
/// The interferer is placed so its mean received power at the victim's
/// receiver equals the model's `power_dbm`, and its traffic is periodic
/// with the packet interval chosen so its airtime duty cycle matches the
/// model's `duty_cycle`.
pub fn scenario_from_interference(
    victim: StackConfig,
    model: &InterferenceModel,
    channel: &ChannelConfig,
) -> Option<Scenario> {
    use wsn_params::scenario::LinkSpec;

    if model.is_none() || !model.cca_detectable {
        return None;
    }
    // Range at which the interferer's transmissions land on the victim
    // receiver at the modeled power.
    let range_m = channel
        .pathloss
        .range_for_rssi_m(victim.power, model.power_dbm)
        .max(0.1);
    // One frame airtime at 250 kbit/s is 32 µs per air byte; a periodic
    // source with interval = airtime / duty reproduces the duty cycle.
    let frame_s = victim.frame().air_bytes() as f64 * 32e-6;
    let duty = model.duty_cycle.clamp(1e-4, 1.0);
    let interval_ms = ((frame_s / duty) * 1e3).round().clamp(1.0, u32::MAX as f64) as u32;
    let interferer = StackConfig::builder()
        .distance_m(2.0)
        .power_level(victim.power.level())
        .payload_bytes(victim.payload.bytes())
        .max_tries(1)
        .retry_delay_ms(0)
        .queue_cap(1)
        .packet_interval_ms(interval_ms)
        .build()
        .ok()?;

    let d = victim.distance.meters();
    Some(Scenario::new(vec![
        // The victim link along the x-axis.
        LinkSpec::along_x(victim, 0.0),
        // The interferer `range_m` off the victim's receiver, its own
        // receiver 2 m further out.
        LinkSpec::at(
            Position::new(d, range_m),
            Position::new(d + 2.0, range_m),
            interferer,
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::{LinkSimulation, SimOptions};
    use wsn_params::scenario::Scenario;
    use wsn_params::timeline::TopologyEvent;

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

    fn sim_options(net: &NetOptions) -> SimOptions {
        SimOptions {
            packets: net.packets,
            seed: net.seed,
            channel: net.channel,
            traffic: net.traffic,
            record_packets: net.record_packets,
            horizon: net.horizon,
            trajectory: wsn_params::motion::Trajectory::Stationary,
        }
    }

    #[test]
    fn single_link_scenario_matches_direct_simulation_bit_for_bit() {
        for (power, dist) in [(31u8, 10.0), (23, 35.0), (3, 35.0)] {
            let options = NetOptions::quick(200).with_seed(0x5EED);
            let direct = LinkSimulation::new(cfg(power, dist), sim_options(&options)).run();
            let net = NetworkSimulation::new(Scenario::single(cfg(power, dist)), options).run();
            assert_eq!(net.links.len(), 1);
            assert_eq!(direct.metrics(), &net.links[0].metrics);
            assert_eq!(net.links[0].frames_interfered, 0);
            assert_eq!(net.air.overlapped_frames, 0);
            assert_eq!(net.air.cca_busy_hits, 0);
        }
    }

    #[test]
    fn single_link_records_match_direct_simulation() {
        let mut options = NetOptions::quick(150).with_seed(7);
        options.record_packets = true;
        let direct = LinkSimulation::new(cfg(23, 35.0), sim_options(&options)).run();
        let net = NetworkSimulation::new(Scenario::single(cfg(23, 35.0)), options).run();
        assert_eq!(direct.records, net.links[0].records);
    }

    #[test]
    fn hidden_pair_loses_more_than_exposed_pair() {
        let c = cfg(11, 35.0);
        let hidden = NetworkSimulation::new(Scenario::hidden_pair(c), NetOptions::quick(300)).run();
        let exposed =
            NetworkSimulation::new(Scenario::exposed_pair(c), NetOptions::quick(300)).run();
        // Hidden senders cannot carrier-sense each other: no real CCA
        // deferrals, plenty of overlaps.
        assert_eq!(hidden.air.cca_busy_hits, 0, "hidden senders must not CS");
        assert!(
            hidden.air.overlapped_frames > exposed.air.overlapped_frames,
            "hidden {} vs exposed {} overlaps",
            hidden.air.overlapped_frames,
            exposed.air.overlapped_frames
        );
        // Exposed senders defer instead of colliding.
        assert!(exposed.air.cca_busy_hits > 0, "exposed senders must defer");
        assert!(
            hidden.plr_radio() > exposed.plr_radio(),
            "hidden plr {} vs exposed plr {}",
            hidden.plr_radio(),
            exposed.plr_radio()
        );
    }

    #[test]
    fn network_run_is_bit_reproducible() {
        let c = cfg(11, 35.0);
        let a = NetworkSimulation::new(Scenario::hidden_pair(c), NetOptions::quick(200)).run();
        let b = NetworkSimulation::new(Scenario::hidden_pair(c), NetOptions::quick(200)).run();
        for (la, lb) in a.links.iter().zip(&b.links) {
            assert_eq!(la.metrics, lb.metrics);
        }
        assert_eq!(a.air, b.air);
        assert_eq!(a.topo, b.topo);
    }

    #[test]
    fn churn_reduces_generated_traffic() {
        let c = cfg(31, 10.0);
        let mut scenario = Scenario::parallel(&[c, c], 2.0);
        // Link 1 joins late and leaves early; with 50 ms intervals and a
        // 400-packet budget it cannot generate its full budget.
        scenario.links[1] = scenario.links[1].joining_at(5.0).leaving_at(10.0);
        let options = NetOptions {
            horizon: Some(SimDuration::from_secs_f64(30.0)),
            ..NetOptions::quick(400)
        };
        let out = NetworkSimulation::new(scenario, options).run();
        assert_eq!(out.links[0].metrics.generated, 400);
        assert!(
            out.links[1].metrics.generated < 400,
            "churned link generated {}",
            out.links[1].metrics.generated
        );
        assert!(out.links[1].metrics.generated > 0);
        // The compiled timeline accounts the churn: two joins, one leave.
        assert_eq!(out.topo.joins, 2);
        assert_eq!(out.topo.leaves, 1);
    }

    #[test]
    fn explicit_leave_timeline_matches_legacy_leave_field() {
        let c = cfg(31, 10.0);
        let options = NetOptions {
            horizon: Some(SimDuration::from_secs_f64(30.0)),
            ..NetOptions::quick(400)
        };
        let mut legacy = Scenario::parallel(&[c, c], 2.0);
        legacy.links[1] = legacy.links[1].leaving_at(10.0);
        let a = NetworkSimulation::new(legacy, options.clone()).run();

        let timeline = ScenarioTimeline::new(vec![TopologyEvent {
            t_s: 10.0,
            link: 1,
            id: 0,
            action: TopologyAction::Leave,
        }]);
        let b = NetworkSimulation::new(Scenario::parallel(&[c, c], 2.0), options)
            .with_timeline(timeline)
            .run();

        // Same dynamics expressed two ways: bit-identical outcome.
        for (la, lb) in a.links.iter().zip(&b.links) {
            assert_eq!(la.metrics, lb.metrics);
        }
        assert_eq!(a.air, b.air);
        assert_eq!(a.end_time, b.end_time);
    }

    #[test]
    fn storm_timeline_drops_and_recovers_links() {
        let c = cfg(31, 10.0);
        let scenario = Scenario::grid(c, 8, 25.0);
        let storm = wsn_params::timeline::failure_storm(8, 0.25, 2.0, 6.0, 0xBAD);
        let options = NetOptions {
            horizon: Some(SimDuration::from_secs_f64(12.0)),
            epoch: Some(SimDuration::from_secs_f64(1.0)),
            ..NetOptions::quick(400)
        };
        let out = NetworkSimulation::new(scenario, options)
            .with_timeline(storm)
            .run();
        assert_eq!(out.topo.leaves, 2, "25% of 8 links storm");
        assert_eq!(out.topo.joins, 8 + 2, "initial joins plus recoveries");
        // Epoch snapshots exist, are cumulative, and cover the horizon.
        assert_eq!(out.epochs.len(), 12);
        for w in out.epochs.windows(2) {
            for (a, b) in w[0].links.iter().zip(&w[1].links) {
                assert!(b.generated >= a.generated);
                assert!(b.delivered >= a.delivered);
            }
        }
        // Stormed links generated less than untouched ones.
        let last = out.epochs.last().unwrap();
        let min = last.links.iter().map(|l| l.generated).min().unwrap();
        let max = last.links.iter().map(|l| l.generated).max().unwrap();
        assert!(min < max, "storm must cost its links traffic");
    }

    #[test]
    fn move_event_updates_neighborhoods_incrementally() {
        let c = cfg(11, 35.0);
        let scenario = Scenario::exposed_pair(c);
        let static_run = NetworkSimulation::new(scenario.clone(), NetOptions::quick(300)).run();
        // At t = 1 s, link 1 teleports 10 km away: carrier sense between
        // the pair must cease and deferrals drop accordingly.
        let timeline = ScenarioTimeline::new(vec![TopologyEvent {
            t_s: 1.0,
            link: 1,
            id: 0,
            action: TopologyAction::Move {
                sender: Position::new(10_000.0, 0.0),
                receiver: Position::new(10_035.0, 0.0),
            },
        }]);
        let moved = NetworkSimulation::new(scenario, NetOptions::quick(300))
            .with_timeline(timeline)
            .run();
        assert_eq!(moved.topo.moves, 1);
        assert!(moved.topo.neighbor_updates > 0);
        assert!(
            moved.air.cca_busy_hits < static_run.air.cca_busy_hits,
            "moved {} vs static {} deferrals",
            moved.air.cca_busy_hits,
            static_run.air.cca_busy_hits
        );
    }

    #[test]
    fn power_change_event_degrades_the_link() {
        let c = cfg(31, 35.0);
        let baseline = NetworkSimulation::new(Scenario::single(c), NetOptions::quick(300)).run();
        let timeline = ScenarioTimeline::new(vec![TopologyEvent {
            t_s: 0.5,
            link: 0,
            id: 0,
            action: TopologyAction::PowerChange { power_level: 3 },
        }]);
        let dropped = NetworkSimulation::new(Scenario::single(c), NetOptions::quick(300))
            .with_timeline(timeline)
            .run();
        assert_eq!(dropped.topo.power_changes, 1);
        assert!(
            dropped.plr_radio() > baseline.plr_radio(),
            "power drop must cost deliveries: {} vs {}",
            dropped.plr_radio(),
            baseline.plr_radio()
        );
    }

    #[test]
    fn conservative_prune_floor_is_bit_identical_to_no_pruning() {
        let c = cfg(11, 35.0);
        for make in [Scenario::hidden_pair, Scenario::exposed_pair] {
            let dense = NetworkSimulation::new(make(c), NetOptions::quick(250)).run();
            let sparse = NetworkSimulation::new(
                make(c),
                NetOptions::quick(250).with_prune_floor_dbm(-200.0),
            )
            .run();
            for (la, lb) in dense.links.iter().zip(&sparse.links) {
                assert_eq!(la.metrics, lb.metrics);
            }
            assert_eq!(dense.air, sparse.air);
        }
    }

    #[test]
    fn aggressive_prune_floor_silences_distant_neighbors() {
        let c = cfg(11, 35.0);
        // Exposed senders sit 1 m apart; at power 11 their mutual power is
        // well below −40 dBm, so a −40 dBm floor prunes the CS edge and
        // the deferrals disappear.
        let pruned = NetworkSimulation::new(
            Scenario::exposed_pair(c),
            NetOptions::quick(250).with_prune_floor_dbm(-40.0),
        )
        .run();
        assert_eq!(pruned.air.cca_busy_hits, 0);
        assert_eq!(pruned.air.overlapped_frames, 0);
    }

    #[test]
    fn fast_engine_runs_the_network_path() {
        let c = cfg(11, 35.0);
        let golden =
            NetworkSimulation::new(Scenario::exposed_pair(c), NetOptions::quick(300)).run();
        let fast = NetworkSimulation::new(
            Scenario::exposed_pair(c),
            NetOptions::quick(300).with_engine(EngineMode::Fast),
        )
        .run();
        assert_eq!(fast.links.len(), 2);
        for l in &fast.links {
            assert_eq!(l.metrics.generated, 300);
            assert!(l.metrics.conserves_packets());
        }
        assert!(fast.air.frames > 0);
        // Different generator, different draws — the engines must not
        // silently share streams.
        assert_ne!(
            golden.links[0].metrics.delay_mean_ms,
            fast.links[0].metrics.delay_mean_ms
        );
        // Reproducible under its own seed.
        let again = NetworkSimulation::new(
            Scenario::exposed_pair(c),
            NetOptions::quick(300).with_engine(EngineMode::Fast),
        )
        .run();
        assert_eq!(fast.links[0].metrics, again.links[0].metrics);
    }

    #[test]
    #[should_panic(expected = "invalid scenario timeline")]
    fn out_of_range_timeline_link_panics() {
        let c = cfg(11, 35.0);
        let timeline = ScenarioTimeline::new(vec![TopologyEvent {
            t_s: 1.0,
            link: 9,
            id: 0,
            action: TopologyAction::Leave,
        }]);
        let _ = NetworkSimulation::new(Scenario::single(c), NetOptions::quick(10))
            .with_timeline(timeline)
            .run();
    }

    #[test]
    fn interference_promotion_builds_two_link_scenario() {
        let victim = cfg(31, 20.0);
        let channel = ChannelConfig::paper_hallway();
        let model = InterferenceModel::zigbee_neighbor(0.1);
        let scenario = scenario_from_interference(victim, &model, &channel)
            .expect("detectable interferer promotes");
        assert_eq!(scenario.len(), 2);
        // The interferer's mean power at the victim receiver matches the
        // model within rounding.
        let rx = &scenario.links[0].receiver;
        let d = scenario.links[1].sender.distance_m(rx);
        let got = channel.pathloss.mean_rssi_dbm(
            scenario.links[1].config.power,
            Distance::from_meters(d).unwrap(),
        );
        assert!((got - model.power_dbm).abs() < 0.5, "rx power {got}");

        // Non-detectable (WiFi) and inactive models stay on the legacy
        // probabilistic path.
        assert!(
            scenario_from_interference(victim, &InterferenceModel::wifi_moderate(), &channel)
                .is_none()
        );
        assert!(scenario_from_interference(victim, &InterferenceModel::none(), &channel).is_none());
    }
}
