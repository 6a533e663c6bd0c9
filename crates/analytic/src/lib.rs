//! # wsn-analytic
//!
//! The analytic link engine: the third
//! [`EngineMode`](wsn_sim_engine::mode::EngineMode) next to the golden
//! event-driven simulator and the coalesced fast simulator. Instead of
//! sampling the CSMA-CA transaction, it *integrates* it — composing the
//! same per-attempt terms the fast engine draws (SPI load, uniform initial
//! backoff, geometric CCA busy loop, turnaround, frame airtime, ACK
//! receive/timeout, retry gap) as moments of a service-time distribution,
//! folding the paper's Eq. 3/7/8 loss chain through Gaussian quadrature
//! over the shadowing and noise mixtures, and feeding the first two service
//! moments into an M/G/1 queue (Pollaczek–Khinchine / Kingman, Eq. 9's ρ)
//! with an M/M/1/K blocking term for the finite transmit queue.
//!
//! The payoff is speed: a full [`LinkMetrics`] — loss split, goodput, the
//! delay distribution, utilization and energy per bit — in microseconds
//! per configuration instead of milliseconds, which turns exhaustive
//! parameter-grid scans (the `tune` pre-scan in `wsn-serve`) from a
//! simulation campaign into a function call.
//!
//! ## Where the closed form is honest — and where it approximates
//!
//! Exact (relative to the fast engine's sampling law):
//! - per-attempt timing terms and their first two moments,
//! - the truncated-geometric attempt count given per-attempt success
//!   probabilities,
//! - the M/M/1/K queue-blocking form (shared with [`wsn_models::predict`]).
//!
//! Approximate, by construction:
//! - **Quasi-static shadowing**: the simulators evolve shadowing as an
//!   AR(1) process *across attempts*; the analytic engine freezes one
//!   shadowing draw per packet (exact marginal, full intra-packet
//!   correlation). At the paper's 0.9 attempt-to-attempt correlation this
//!   brackets the truth from the correlated side.
//! - **Mean-wait queueing**: waiting time enters as its Kingman mean, so
//!   delay *quantiles* shift by the mean wait rather than convolving the
//!   wait distribution. In the stable region (ρ < 1) the service mixture
//!   dominates the quantiles.
//! - **Horizon and motion are ignored**: the evaluator assumes an
//!   unbounded window and the initial distance. Campaigns with
//!   [`SimOptions::horizon`] or a non-stationary trajectory should use a
//!   sampling engine.
//!
//! Experiment `ext12` (`wsn-experiments`) holds the engine to an explicit
//! error budget against the fast simulator across a stratified grid.
//!
//! ## Two stages, one memo
//!
//! [`evaluate`] is [`queue_stage`] of [`link_stage`]. The link stage — the
//! timing terms, the attempt algebra, the service moments and the
//! delivered-service quantiles — reads only distance, power, `NmaxTries`,
//! `Dretry`, payload and the channel; `Tpkt`, `Qmax`, the traffic model and
//! the packet count enter only in the closed-form queue stage. The paper
//! grid's 48,384 configurations therefore share 3,456 link stages, and
//! [`table::AnalyticTable`] memoizes exactly those: a hit is one lookup
//! plus the queue stage, and a grid scan
//! ([`runner::AnalyticScan`]) asks it once per link tuple.
//!
//! ## Determinism
//!
//! The evaluator is a pure function of `(config, options.channel,
//! options.traffic, options.packets)` — the seed never changes its output.
//! That purity is what makes the [`table::AnalyticTable`] memo safe: a
//! cache hit is bit-identical to a recomputation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod math;
pub mod runner;
pub mod table;

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use wsn_link_sim::metrics::LinkMetrics;
use wsn_link_sim::simulation::SimOptions;
use wsn_link_sim::traffic::TrafficModel;
use wsn_mac::timing;
use wsn_models::queueing::{finite_queue_outcome, QueueOutcome, ServiceMoments};
use wsn_params::config::StackConfig;
use wsn_radio::budget::LinkBudget;
use wsn_radio::channel::ChannelConfig;
use wsn_radio::energy::EnergyMeter;
use wsn_radio::per::PerModel;
use wsn_sim_engine::time::SimDuration;

use crate::math::MixtureComponent;

/// Convenient glob-import of the analytic engine.
pub mod prelude {
    pub use crate::runner::{AnalyticScan, EngineRunner, RunOutcome};
    pub use crate::table::AnalyticTable;
    pub use crate::{evaluate, AnalyticLinkSimulation, AnalyticOutcome, AnalyticReport};
}

/// Quadrature resolution over the shadowing marginal and over each
/// noise-mixture component.
const QUADRATURE_NODES: usize = 17;

/// The standard-normal quadrature nodes of [`QUADRATURE_NODES`] points.
/// They depend on nothing else, so they are built once per process rather
/// than in every evaluation.
fn quadrature_nodes() -> &'static [(f64, f64)] {
    static NODES: OnceLock<Vec<(f64, f64)>> = OnceLock::new();
    NODES.get_or_init(|| math::std_normal_nodes(QUADRATURE_NODES))
}

/// The CCA retry budget, mirroring `wsn_mac::transaction::MAX_CCA_RETRIES`
/// (and the fast engine's copy of it).
const MAX_CCA_RETRIES: u32 = 16;

/// CCA assessment-slot cost when the channel reads busy, µs.
const CCA_SLOT_US: f64 = 128.0;

/// Diagnostics the closed form produces beyond the [`LinkMetrics`] set —
/// the intermediate quantities a sampling engine can only estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalyticReport {
    /// Offered utilization `ρ = λ·E[S]` (may exceed 1; saturating traffic
    /// reports 1).
    pub rho: f64,
    /// True when the queue is driven at or beyond capacity (`ρ ≥ 1` or a
    /// saturating source): waiting time is the full-queue bound, not an
    /// equilibrium mean.
    pub saturated: bool,
    /// Mean MAC service time `E[S]`, ms.
    pub service_mean_ms: f64,
    /// Squared coefficient of variation of the service time.
    pub service_scv: f64,
    /// Mean queue waiting time, ms.
    pub wait_mean_ms: f64,
    /// Hard lower bound on any delivered packet's delay, ms.
    pub delay_min_ms: f64,
    /// Hard upper bound on any delivered packet's delay, ms
    /// (full queue ahead, every backoff and CCA loop maximal).
    pub delay_max_ms: f64,
    /// Probability an admitted packet exhausts `NmaxTries` undelivered
    /// (Eq. 8's radio loss, per admitted packet).
    pub p_radio_loss: f64,
    /// Expected transmissions per admitted packet (`N̄tries`).
    pub expected_attempts: f64,
}

/// Result of one analytic evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticOutcome {
    /// The evaluated configuration.
    pub config: StackConfig,
    metrics: LinkMetrics,
    /// Closed-form diagnostics alongside the standard metric set.
    pub report: AnalyticReport,
}

impl AnalyticOutcome {
    /// The summary metrics of the evaluation.
    pub fn metrics(&self) -> &LinkMetrics {
        &self.metrics
    }

    /// Consumes the outcome, returning the metrics.
    pub fn into_metrics(self) -> LinkMetrics {
        self.metrics
    }
}

/// A configured, runnable analytic evaluation of one link — the
/// closed-form sibling of `FastLinkSimulation`. It computes its link
/// budget and link stage afresh; an
/// [`EngineRunner`](runner::EngineRunner) memoizes both.
///
/// ```
/// use wsn_analytic::AnalyticLinkSimulation;
/// use wsn_link_sim::simulation::SimOptions;
/// use wsn_params::prelude::*;
///
/// let cfg = StackConfig::builder()
///     .distance_m(20.0)
///     .power_level(23)
///     .build()?;
/// let outcome = AnalyticLinkSimulation::new(cfg, SimOptions::quick(400)).run();
/// assert!(outcome.metrics().conserves_packets());
/// # Ok::<(), wsn_params::error::InvalidParam>(())
/// ```
#[derive(Debug, Clone)]
pub struct AnalyticLinkSimulation {
    config: StackConfig,
    options: SimOptions,
}

impl AnalyticLinkSimulation {
    /// Creates an evaluation of `config` under `options`.
    pub fn new(config: StackConfig, options: SimOptions) -> Self {
        AnalyticLinkSimulation { config, options }
    }

    /// Runs the evaluation.
    pub fn run(&self) -> AnalyticOutcome {
        let (config, channel) = (self.config, &self.options.channel);
        let budget = LinkBudget::compute(channel, config.power, config.distance);
        let (metrics, report) = evaluate(&config, &self.options, budget);
        AnalyticOutcome {
            config,
            metrics,
            report,
        }
    }
}

/// One noise-mixture branch after folding in the interference split.
struct NoiseComp {
    weight: f64,
    mean_dbm: f64,
    sigma_db: f64,
    /// An interferer is active: the sampled floor is lifted through
    /// [`InterferenceModel::effective_noise_dbm`] node by node.
    interfered: bool,
}

/// Expands the channel's noise model (and interference, if any) into
/// weighted Gaussian branches.
fn noise_components(channel: &ChannelConfig) -> Vec<NoiseComp> {
    let base: Vec<(f64, f64, f64)> = match channel.noise {
        wsn_radio::noise::NoiseModel::Constant { floor_dbm } => vec![(1.0, floor_dbm, 0.0)],
        wsn_radio::noise::NoiseModel::Mixture {
            quiet_mean_dbm,
            quiet_sigma_db,
            busy_mean_dbm,
            busy_sigma_db,
            busy_prob,
        } => vec![
            (1.0 - busy_prob, quiet_mean_dbm, quiet_sigma_db),
            (busy_prob, busy_mean_dbm, busy_sigma_db),
        ],
    };
    let mut comps = Vec::with_capacity(base.len() * 2);
    let collision = if channel.interference.is_none() {
        0.0
    } else {
        channel.interference.collision_probability()
    };
    for (weight, mean_dbm, sigma_db) in base {
        if weight == 0.0 {
            continue;
        }
        if collision > 0.0 {
            comps.push(NoiseComp {
                weight: weight * (1.0 - collision),
                mean_dbm,
                sigma_db,
                interfered: false,
            });
            comps.push(NoiseComp {
                weight: weight * collision,
                mean_dbm,
                sigma_db,
                interfered: true,
            });
        } else {
            comps.push(NoiseComp {
                weight,
                mean_dbm,
                sigma_db,
                interfered: false,
            });
        }
    }
    comps
}

/// Moments of the CCA busy-round count `M`: geometric with busy
/// probability `p`, truncated at [`MAX_CCA_RETRIES`] (after which the MAC
/// transmits anyway).
fn cca_round_moments(p: f64) -> (f64, f64) {
    if p <= 0.0 {
        return (0.0, 0.0);
    }
    let cap = MAX_CCA_RETRIES as i32;
    let mut mean = 0.0;
    let mut m2 = 0.0;
    // pmf: P(M = m) = p^m (1 − p) for m < cap, P(M = cap) = p^cap.
    for m in 0..cap {
        let w = p.powi(m) * (1.0 - p);
        mean += w * m as f64;
        m2 += w * (m as f64) * (m as f64);
    }
    let tail = p.powi(cap);
    mean += tail * cap as f64;
    m2 += tail * (cap as f64) * (cap as f64);
    (mean, (m2 - mean * mean).max(0.0))
}

/// Rounds a non-negative expectation into a count, clamped to `limit`.
fn count(expected: f64, limit: u64) -> u64 {
    (expected.max(0.0).round() as u64).min(limit)
}

/// Evaluates one configuration in closed form:
/// [`queue_stage`] of [`link_stage`].
///
/// `budget` must describe `config`'s operating point under
/// `options.channel` (use [`LinkBudget::compute`] or a
/// [`LinkBudgetTable`](wsn_radio::budget::LinkBudgetTable)). See the crate docs for the model's validity
/// envelope; `options.seed`, `options.horizon`, `options.record_packets`
/// and any motion profile are ignored.
pub fn evaluate(
    config: &StackConfig,
    options: &SimOptions,
    budget: LinkBudget,
) -> (LinkMetrics, AnalyticReport) {
    queue_stage(
        config,
        options,
        &link_stage(config, &options.channel, budget),
    )
}

/// The link stage of one evaluation: every term above the queue. It reads
/// only the link — distance and power (through the budget), `NmaxTries`,
/// `Dretry`, the payload and the channel — so it is shared by every
/// `Tpkt`, `Qmax`, traffic model and packet count, and it is what
/// [`AnalyticTable`](table::AnalyticTable) memoizes. Build one with [`link_stage`]; finish it
/// with [`queue_stage`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkStage {
    // Deterministic timing terms, µs.
    spi_us: f64,
    frame_us: f64,
    turnaround_us: f64,
    ack_rx_us: f64,
    ack_timeout_us: f64,
    retry_us: f64,
    /// Mean listening prologue (initial backoff + CCA loop), µs.
    r_mean: f64,
    /// Mean observed noise floor, dBm.
    mean_noise_dbm: f64,
    /// The budget's mean RSSI, dBm.
    mean_rssi_dbm: f64,
    // Per-packet attempt algebra.
    p_lost: f64,
    p_acked: f64,
    p_delivered: f64,
    e_attempts: f64,
    e_copies: f64,
    e_unacked_attempts: f64,
    snr_wsum: f64,
    rssi_wsum: f64,
    // Service time.
    service_mean_us: f64,
    service: ServiceMoments,
    service_min_us: f64,
    service_max_us: f64,
    /// The delivered-conditional service mixture, when any packet can be
    /// delivered.
    delivered: Option<DeliveredService>,
}

/// Mean and quantiles of the service time of a delivered packet, µs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DeliveredService {
    mean_us: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

/// Computes the link stage of `config` under `channel`.
///
/// `budget` must describe `config`'s operating point under `channel` (use
/// [`LinkBudget::compute`] or a [`LinkBudgetTable`](wsn_radio::budget::LinkBudgetTable)). `Tpkt` and `Qmax`
/// are not read.
pub fn link_stage(config: &StackConfig, channel: &ChannelConfig, budget: LinkBudget) -> LinkStage {
    let n = config.max_tries.get() as usize;
    let nf = n as f64;

    // ── deterministic timing terms, µs ───────────────────────────────
    let spi_us = timing::spi_load(config.payload).as_micros() as f64;
    let frame_us = timing::frame_time(config.payload).as_micros() as f64;
    let turnaround_us = timing::TURNAROUND.as_micros() as f64;
    let ack_rx_us = timing::ACK_RECEIVE.as_micros() as f64;
    let ack_timeout_us = timing::ACK_TIMEOUT.as_micros() as f64;
    let retry_us = config.retry_delay.millis() as f64 * 1_000.0;

    // ── per-attempt random part: initial backoff + CCA busy loop ─────
    let backoff = timing::initial_backoff_moments();
    let congestion = timing::congestion_backoff_moments();
    let cca_prob = channel.interference.cca_busy_probability();
    let (cca_rounds_mean, cca_rounds_var) = cca_round_moments(cca_prob);
    let round_mean = CCA_SLOT_US + congestion.mean_us;
    let cca_mean = cca_rounds_mean * round_mean;
    let cca_var = cca_rounds_mean * congestion.var_us2 + cca_rounds_var * round_mean * round_mean;
    // R = initial backoff + CCA loop: the listening prologue of an attempt.
    let r_mean = backoff.mean_us + cca_mean;
    let r_var = backoff.var_us2 + cca_var;

    // ── attempt-success probabilities under shadowing × noise ────────
    let comps = noise_components(channel);
    let noise_nodes = quadrature_nodes();
    let sigma_sh = budget.sigma_db;
    let shadow_nodes: &[(f64, f64)] = if sigma_sh > 0.0 {
        noise_nodes
    } else {
        &[(0.0, 1.0)]
    };
    // Mean *observed* noise floor (interference lift included), for the
    // SNR bookkeeping the simulators do per attempt.
    let mut mean_noise_dbm = 0.0;
    for c in &comps {
        if c.sigma_db == 0.0 {
            let v = if c.interfered {
                channel.interference.effective_noise_dbm(c.mean_dbm)
            } else {
                c.mean_dbm
            };
            mean_noise_dbm += c.weight * v;
        } else {
            for &(z, w) in noise_nodes {
                let raw = c.mean_dbm + z * c.sigma_db;
                let v = if c.interfered {
                    channel.interference.effective_noise_dbm(raw)
                } else {
                    raw
                };
                mean_noise_dbm += c.weight * w * v;
            }
        }
    }

    // Per-packet attempt algebra, marginalized over the shadowing draw X
    // (quasi-static: one X per packet, fresh noise per attempt).
    let mut acked_at = vec![0.0; n]; // P(first ACK at attempt k)
    let mut p_unacked = 0.0; // P(no ACK in n tries)
    let mut p_lost = 0.0; // P(no delivery in n tries)
    let mut e_attempts = 0.0; // E[transmissions]
    let mut e_copies = 0.0; // E[delivered copies]
    let mut snr_wsum = 0.0; // Σ w·E[A|X]·SNR(X)
    let mut rssi_wsum = 0.0; // Σ w·E[A|X]·RSSI(X)
    for &(z, wx) in shadow_nodes {
        let rssi_dbm = budget.mean_rssi_dbm + z * sigma_sh;
        // Per-attempt success probabilities at this shadowing level.
        let mut p_data = 0.0; // data frame received
        let mut p_joint = 0.0; // data received AND ACK received
        for c in &comps {
            let mut fold = |raw_noise: f64, w: f64| {
                let noise = if c.interfered {
                    channel.interference.effective_noise_dbm(raw_noise)
                } else {
                    raw_noise
                };
                let snr = rssi_dbm - noise;
                let qd = 1.0 - channel.per_backend.per(snr, config.payload);
                let qj = if channel.ack_loss {
                    qd * (1.0 - channel.per_backend.ack_per(snr))
                } else {
                    qd
                };
                p_data += w * qd;
                p_joint += w * qj;
            };
            if c.sigma_db == 0.0 {
                fold(c.mean_dbm, c.weight);
            } else {
                for &(zn, wn) in noise_nodes {
                    fold(c.mean_dbm + zn * c.sigma_db, c.weight * wn);
                }
            }
        }
        let fail = 1.0 - p_joint;
        let mut fail_pow = 1.0; // fail^(k−1)
        let mut e_attempts_x = 0.0;
        for slot in acked_at.iter_mut() {
            *slot += wx * fail_pow * p_joint;
            e_attempts_x += fail_pow;
            fail_pow *= fail;
        }
        // fail_pow is now fail^n.
        p_unacked += wx * fail_pow;
        p_lost += wx * (1.0 - p_data).powi(n as i32);
        e_attempts += wx * e_attempts_x;
        e_copies += wx * p_data * e_attempts_x;
        snr_wsum += wx * e_attempts_x * (rssi_dbm - mean_noise_dbm);
        rssi_wsum += wx * e_attempts_x * rssi_dbm;
    }
    let p_acked = 1.0 - p_unacked;
    let p_delivered = 1.0 - p_lost;
    let e_unacked_attempts = (e_attempts - p_acked).max(0.0);
    // Delivered but never ACKed: the sender exhausts its tries yet at
    // least one copy landed (possible only when ACKs can be lost).
    let p_fail_delivered = (p_unacked - p_lost).max(0.0);

    // ── service-time mixture over the attempt count ──────────────────
    // Conditioned on the attempt count, the service time no longer
    // depends on X, so the mixture has at most n + 1 components.
    let per_attempt_us = r_mean + turnaround_us + frame_us;
    let d_acked_us =
        |k: f64| spi_us + k * per_attempt_us + (k - 1.0) * (ack_timeout_us + retry_us) + ack_rx_us;
    let d_fail_us = spi_us + nf * per_attempt_us + nf * ack_timeout_us + (nf - 1.0) * retry_us;

    let mut service_mean_us = p_unacked * d_fail_us;
    let mut service_m2_us2 = p_unacked * (d_fail_us * d_fail_us + nf * r_var);
    for k in 1..=n {
        let w = acked_at[k - 1];
        let m = d_acked_us(k as f64);
        service_mean_us += w * m;
        service_m2_us2 += w * (m * m + k as f64 * r_var);
    }
    let service = ServiceMoments {
        mean_s: service_mean_us / 1e6,
        second_moment_s2: service_m2_us2 / 1e12,
    };

    // Hard bounds on one packet's service time.
    let backoff_max_us =
        (timing::INITIAL_BACKOFF_MAX_UNITS * timing::BACKOFF_UNIT.as_micros() as u32) as f64;
    let cca_max_us = if cca_prob > 0.0 {
        MAX_CCA_RETRIES as f64
            * (CCA_SLOT_US
                + (timing::CONGESTION_BACKOFF_MAX_UNITS * timing::BACKOFF_UNIT.as_micros() as u32)
                    as f64)
    } else {
        0.0
    };
    let service_min_us =
        spi_us + timing::BACKOFF_UNIT.as_micros() as f64 + turnaround_us + frame_us + ack_rx_us;
    let service_max_us = spi_us
        + nf * (backoff_max_us + cca_max_us + turnaround_us + frame_us)
        + nf * ack_timeout_us
        + (nf - 1.0).max(0.0) * retry_us
        + ack_rx_us;

    // ── the delivered-conditional service mixture ────────────────────
    let delivered = (p_delivered > 1e-12).then(|| {
        let mut mix = Vec::with_capacity(n + 1);
        let mut mean_us = 0.0;
        for k in 1..=n {
            let w = acked_at[k - 1] / p_delivered;
            let m = d_acked_us(k as f64);
            mean_us += w * m;
            mix.push(MixtureComponent {
                weight: w,
                mean: m,
                sd: (k as f64 * r_var).sqrt(),
            });
        }
        let w_fail = p_fail_delivered / p_delivered;
        mean_us += w_fail * d_fail_us;
        mix.push(MixtureComponent {
            weight: w_fail,
            mean: d_fail_us,
            sd: (nf * r_var).sqrt(),
        });
        let q = |q: f64| math::mixture_quantile(&mix, q, 0.0, service_max_us);
        DeliveredService {
            mean_us,
            p50_us: q(0.50),
            p95_us: q(0.95),
            p99_us: q(0.99),
        }
    });

    LinkStage {
        spi_us,
        frame_us,
        turnaround_us,
        ack_rx_us,
        ack_timeout_us,
        retry_us,
        r_mean,
        mean_noise_dbm,
        mean_rssi_dbm: budget.mean_rssi_dbm,
        p_lost,
        p_acked,
        p_delivered,
        e_attempts,
        e_copies,
        e_unacked_attempts,
        snr_wsum,
        rssi_wsum,
        service_mean_us,
        service,
        service_min_us,
        service_max_us,
        delivered,
    }
}

/// Finishes an evaluation from its link stage: the queue (`Tpkt`, `Qmax`,
/// `options.traffic`, `options.packets`), packet accounting, energy and
/// the metric set. `link` must be [`link_stage`] of `config` under
/// `options.channel`.
pub fn queue_stage(
    config: &StackConfig,
    options: &SimOptions,
    link: &LinkStage,
) -> (LinkMetrics, AnalyticReport) {
    let LinkStage {
        spi_us,
        frame_us,
        turnaround_us,
        ack_rx_us,
        ack_timeout_us,
        retry_us,
        r_mean,
        mean_noise_dbm,
        mean_rssi_dbm,
        p_lost,
        p_acked,
        p_delivered,
        e_attempts,
        e_copies,
        e_unacked_attempts,
        snr_wsum,
        rssi_wsum,
        service_mean_us,
        service,
        service_min_us,
        service_max_us,
        delivered: delivered_service,
    } = *link;
    let packets = options.packets;
    let packets_f = packets as f64;

    // ── queueing ─────────────────────────────────────────────────────
    let cap = config.queue_cap.get() as usize;
    let interval_s = config.packet_interval.millis() as f64 / 1e3;
    let (queue, wait_s, duration_s) = if options.traffic.is_saturating() {
        // The saturating source refills the queue on every departure:
        // back-to-back service, no drops (generation is slot-driven), and
        // a deterministic wait of (slots ahead)·E[S].
        let filled = cap.min(packets.max(1) as usize) as f64;
        let ramp = filled * (filled - 1.0) / 2.0;
        let steady = (packets_f - filled).max(0.0) * (filled - 1.0);
        let wait_s = (ramp + steady) / packets_f.max(1.0) * service.mean_s;
        let queue = QueueOutcome {
            rho: 1.0,
            wait_s,
            plr_queue: 0.0,
            saturated: true,
        };
        (queue, wait_s, packets_f * service.mean_s)
    } else {
        let lambda = 1.0 / interval_s;
        let ca2 = match options.traffic {
            TrafficModel::Periodic => 0.0,
            TrafficModel::Poisson => 1.0,
            TrafficModel::Saturating => unreachable!("handled above"),
        };
        let queue = finite_queue_outcome(ca2, lambda, service, cap);
        let wait_s = queue.wait_s;
        // Window length: last arrival plus its sojourn — unless the
        // backlog outlives it (ρ ≥ 1), where drain time dominates.
        let admitted_f = packets_f * (1.0 - queue.plr_queue);
        let span = (packets_f - 1.0).max(0.0) * interval_s + wait_s + service.mean_s;
        (queue, wait_s, span.max(admitted_f * service.mean_s))
    };

    // ── packet accounting (conservation by construction) ─────────────
    let queue_dropped = count(packets_f * queue.plr_queue, packets);
    let admitted = packets - queue_dropped;
    let admitted_f = admitted as f64;
    let radio_lost = count(admitted_f * p_lost, admitted);
    let delivered = admitted - radio_lost;
    let acked = count(admitted_f * p_acked, delivered);
    let attempts = count(admitted_f * e_attempts, u64::MAX);
    let attempts_unacked = count(admitted_f * e_unacked_attempts, attempts);
    let duplicates = count(admitted_f * (e_copies - p_delivered), u64::MAX);

    // ── energy: expected µs per radio state, scaled by admissions ────
    let tx_us = admitted_f * e_attempts * frame_us;
    let rx_us = admitted_f
        * (e_attempts * (r_mean + turnaround_us)
            + p_acked * ack_rx_us
            + e_unacked_attempts * ack_timeout_us);
    let idle_us = admitted_f * (spi_us + (e_attempts - 1.0).max(0.0) * retry_us);
    let duration = SimDuration::from_secs_f64(duration_s.max(0.0));
    let mut meter = EnergyMeter::new();
    meter.add_tx(
        config.power,
        SimDuration::from_micros(tx_us.max(0.0) as u64),
    );
    meter.add_rx(SimDuration::from_micros(rx_us.max(0.0) as u64));
    meter.add_idle(SimDuration::from_micros(idle_us.max(0.0) as u64));
    let accounted = meter.accounted_time();
    if duration > accounted {
        meter.add_idle(duration - accounted);
    }

    // ── delays: wait mean + the delivered-conditional service mixture ─
    let wait_ms = wait_s * 1e3;
    let (delay_mean_ms, delay_p50_ms, delay_p95_ms, delay_p99_ms) = match delivered_service {
        Some(d) if delivered > 0 => (
            wait_ms + d.mean_us / 1e3,
            wait_ms + d.p50_us / 1e3,
            wait_ms + d.p95_us / 1e3,
            wait_ms + d.p99_us / 1e3,
        ),
        _ => (0.0, 0.0, 0.0, 0.0),
    };

    // ── assembly, mirroring `MetricsAccumulator::finish` ─────────────
    let duration_metric_s = duration_s.max(f64::MIN_POSITIVE);
    let energy = meter.breakdown();
    let delivered_bits = delivered as f64 * config.payload.bits() as f64;
    let u_eng_uj_per_bit = if delivered_bits > 0.0 {
        energy.tx_j * 1e6 / delivered_bits
    } else {
        f64::INFINITY
    };
    let total_energy_uj_per_bit = if delivered_bits > 0.0 {
        energy.total_j() * 1e6 / delivered_bits
    } else {
        f64::INFINITY
    };
    let denom = packets.max(1) as f64;
    let busy_s = admitted_f * service.mean_s;

    let metrics = LinkMetrics {
        duration_s: duration_metric_s,
        generated: packets,
        queue_dropped,
        radio_lost,
        delivered,
        acked,
        residual: 0,
        attempts,
        attempts_unacked,
        duplicates,
        mean_tries: if admitted > 0 { e_attempts } else { 0.0 },
        goodput_bps: delivered_bits / duration_metric_s,
        offered_bps: config.offered_load_bps(),
        delay_mean_ms,
        delay_p50_ms,
        delay_p95_ms,
        delay_p99_ms,
        service_mean_ms: if admitted > 0 {
            service_mean_us / 1e3
        } else {
            0.0
        },
        queueing_mean_ms: if admitted > 0 { wait_ms } else { 0.0 },
        u_eng_uj_per_bit,
        total_energy_uj_per_bit,
        energy,
        plr_queue: queue_dropped as f64 / denom,
        plr_radio: radio_lost as f64 / denom,
        per: if attempts > 0 {
            e_unacked_attempts / e_attempts
        } else {
            0.0
        },
        mean_snr_db: if attempts > 0 {
            snr_wsum / e_attempts
        } else {
            mean_rssi_dbm - mean_noise_dbm
        },
        mean_rssi_dbm: if attempts > 0 {
            rssi_wsum / e_attempts
        } else {
            mean_rssi_dbm
        },
        utilization: (busy_s / duration_metric_s).min(1.0),
    };
    let report = AnalyticReport {
        rho: queue.rho,
        saturated: queue.saturated,
        service_mean_ms: service_mean_us / 1e3,
        service_scv: service.scv(),
        wait_mean_ms: wait_ms,
        delay_min_ms: service_min_us / 1e3,
        delay_max_ms: (cap as f64 * service_max_us) / 1e3,
        p_radio_loss: p_lost,
        expected_attempts: e_attempts,
    };
    (metrics, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EngineRunner;
    use crate::table::AnalyticTable;
    use std::sync::Arc;
    use wsn_link_sim::fast::FastLinkSimulation;

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

    fn run(config: StackConfig, options: SimOptions) -> AnalyticOutcome {
        AnalyticLinkSimulation::new(config, options).run()
    }

    #[test]
    fn evaluation_is_deterministic_and_seed_free() {
        let a = run(cfg(23, 35.0), SimOptions::quick(400));
        let b = run(cfg(23, 35.0), SimOptions::quick(400).with_seed(99));
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn conserves_packets_across_link_qualities() {
        for (power, dist) in [(31u8, 10.0), (23, 35.0), (3, 35.0)] {
            let out = run(cfg(power, dist), SimOptions::quick(300));
            assert_eq!(out.metrics().generated, 300);
            assert!(out.metrics().conserves_packets(), "{power}/{dist}");
        }
    }

    #[test]
    fn good_link_delivers_nearly_everything() {
        let out = run(cfg(31, 10.0), SimOptions::quick(300));
        assert!(
            out.metrics().plr_total() < 0.02,
            "plr={}",
            out.metrics().plr_total()
        );
        assert!(out.metrics().goodput_bps > 0.9 * out.metrics().offered_bps);
        assert!(!out.report.saturated);
    }

    #[test]
    fn weak_link_loses_packets_over_radio() {
        let out = run(cfg(3, 35.0), SimOptions::quick(300));
        assert!(
            out.metrics().plr_radio > 0.01,
            "plr_radio={}",
            out.metrics().plr_radio
        );
        assert!(
            out.metrics().mean_tries > 1.05,
            "tries={}",
            out.metrics().mean_tries
        );
        assert!(out.report.p_radio_loss > 0.01);
    }

    #[test]
    fn delay_quantiles_are_ordered_and_bounded() {
        let out = run(cfg(23, 30.0), SimOptions::quick(300));
        let m = out.metrics();
        assert!(m.delay_p50_ms <= m.delay_p95_ms && m.delay_p95_ms <= m.delay_p99_ms);
        assert!(
            m.delay_p50_ms >= out.report.delay_min_ms,
            "p50 below the hard floor"
        );
        assert!(
            m.delay_p99_ms <= out.report.delay_max_ms,
            "p99 above the hard ceiling"
        );
        assert!(m.delay_mean_ms > 0.0);
    }

    #[test]
    fn overload_reports_saturation_with_finite_fields() {
        // 50-byte frames retried up to 8 times every 10 ms cannot keep up.
        let config = StackConfig::builder()
            .distance_m(35.0)
            .power_level(3)
            .payload_bytes(110)
            .max_tries(8)
            .retry_delay_ms(0)
            .queue_cap(10)
            .packet_interval_ms(10)
            .build()
            .unwrap();
        let out = run(config, SimOptions::quick(300));
        assert!(out.report.saturated, "rho={}", out.report.rho);
        assert!(out.report.rho >= 1.0);
        let m = out.metrics();
        assert!(m.plr_queue > 0.1, "plr_queue={}", m.plr_queue);
        let json = serde_json::to_string(m).unwrap();
        assert!(!json.contains("NaN") && !json.contains("null") && !json.contains("inf"));
        assert!(m.conserves_packets());
    }

    #[test]
    fn saturating_source_pins_utilization() {
        let out = run(
            cfg(31, 10.0),
            SimOptions::quick(200).with_traffic(TrafficModel::Saturating),
        );
        assert!(out.report.saturated);
        assert!((out.metrics().utilization - 1.0).abs() < 1e-9);
        assert_eq!(out.metrics().queue_dropped, 0);
        assert!(out.metrics().conserves_packets());
    }

    /// A runner on `options`' channel and traffic sharing `cache`.
    fn runner(options: &SimOptions, cache: &Arc<AnalyticTable>) -> EngineRunner {
        EngineRunner::with_analytic(options.channel, options.traffic, Arc::clone(cache))
    }

    #[test]
    fn budget_table_run_matches_direct_run() {
        // A runner draws the budget from its table; a bare run computes it.
        let options = SimOptions::quick(300);
        let direct = run(cfg(23, 35.0), options.clone());
        let cache = Arc::new(AnalyticTable::new(options.channel));
        let via_table = runner(&options, &cache).analytic(cfg(23, 35.0), 300);
        assert_eq!(direct, via_table);
    }

    #[test]
    fn cache_hit_is_bit_identical_to_recomputation() {
        let options = SimOptions::quick(300);
        let cache = Arc::new(AnalyticTable::new(options.channel));
        let cold = runner(&options, &cache).analytic(cfg(23, 35.0), 300);
        assert_eq!(cache.len(), 1);
        let warm = runner(&options, &cache).analytic(cfg(23, 35.0), 300);
        assert_eq!(cache.len(), 1, "second run must be a lookup");
        assert_eq!(cold.metrics(), warm.metrics());
        let fresh = run(cfg(23, 35.0), options);
        assert_eq!(cold.metrics(), fresh.metrics());
    }

    #[test]
    fn agrees_loosely_with_the_fast_engine() {
        // The tight, stratified budget lives in experiment ext12; this is
        // the in-crate smoke version on one mid-quality link.
        let config = cfg(23, 30.0);
        let options = SimOptions::quick(2_000);
        let analytic = run(config, options.clone());
        let fast = FastLinkSimulation::new(config, options).run();
        let (a, f) = (analytic.metrics(), fast.metrics());
        assert!(
            (a.plr_total() - f.plr_total()).abs() < 0.05,
            "plr: analytic {} vs fast {}",
            a.plr_total(),
            f.plr_total()
        );
        let goodput_rel = (a.goodput_bps - f.goodput_bps).abs() / f.goodput_bps;
        assert!(goodput_rel < 0.15, "goodput rel err {goodput_rel}");
        let delay_rel = (a.delay_mean_ms - f.delay_mean_ms).abs() / f.delay_mean_ms;
        assert!(delay_rel < 0.25, "delay rel err {delay_rel}");
    }
}
