//! The `sweep` workload: the paper's characterisation campaign on one
//! thread over fixed slices of `ParamGrid::paper()` at `Scale::Quick`,
//! once on the golden engine and once on the fast engine, with every
//! slice's metric digest checked against the value recorded here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wsn_experiments::campaign::{Campaign, ConfigResult, Scale};
use wsn_experiments::stream::CampaignSink;
use wsn_link_sim::fast::FastLinkSimulation;
use wsn_link_sim::simulation::{LinkSimulation, SimOptions};
use wsn_params::config::StackConfig;
use wsn_params::grid::ParamGrid;
use wsn_params::motion::Trajectory;
use wsn_radio::budget::LinkBudgetTable;
use wsn_sim_engine::mode::EngineMode;
use wsn_sim_engine::rng::RngFactory;

use crate::stats::{peak_rss_mb, Digest, Samples, Windows};
use crate::trace::Tracer;
use crate::{time_setup, Measured, Metric, TraceReport, SETUPS, WINDOW_S};

/// Slices to choose from; `--seed` picks one.
pub const SLICES: u64 = 8;

/// Configurations per golden slice.
const GOLDEN_CONFIGS: u64 = 48;

/// Configurations per fast slice: sized so both engines take a
/// comparable share of a pass.
const FAST_CONFIGS: u64 = 150;

/// Grid stride inside a slice: coprime with the grid's 48,384 entries,
/// so a slice spreads over every axis.
const STRIDE: u64 = 10_007;

/// Untimed passes over both slices in each set-up: enough work (about
/// 4,000 configurations) that one set-up spans several of the host's
/// sub-second speed swings instead of landing inside one.
const WARMUP_PASSES: usize = 20;

/// The recorded `(golden, fast)` digests of each slice: the campaign's
/// own outputs at the time the benchmark was written. Both engines are
/// deterministic, so any change to a slice's metrics changes its digest.
const DIGESTS: [(u64, u64); SLICES as usize] = [
    (0xfde4_b9f0_05c8_5e56, 0xc1bc_fda8_c451_7b73),
    (0xe242_8594_787a_f73a, 0x1276_c846_eb9b_3a3a),
    (0xd5dc_2391_7a9e_883a, 0xe189_4ccc_b185_3c3f),
    (0x3c6d_6e59_3352_e39d, 0x78f2_f773_fbc2_ac83),
    (0x1fb3_cd94_3643_ac75, 0xcb55_2dcc_cf18_71cc),
    (0x8bde_a460_7b2a_c0b4, 0x92a0_6608_4fa3_0812),
    (0xe5c9_98f3_7e5e_29df, 0xdd8f_1b89_4f20_2778),
    (0x18ed_0836_1d0d_7af9, 0xc8db_2699_869d_4273),
];

/// One engine's half of a pass.
struct Phase {
    engine: EngineMode,
    campaign: Campaign,
    configs: Vec<StackConfig>,
    digest: u64,
}

impl Phase {
    fn name(&self) -> &'static str {
        match self.engine {
            EngineMode::Golden => "golden",
            _ => "fast",
        }
    }
}

/// The slice `seed` picks for `engine`.
pub fn slice(seed: u64, engine: EngineMode) -> Vec<StackConfig> {
    let grid = ParamGrid::paper();
    let len = grid.len() as u64;
    let which = seed % SLICES;
    let (start, n) = match engine {
        EngineMode::Golden => (which * 6_047, GOLDEN_CONFIGS),
        _ => (which * 6_047 + 3_001, FAST_CONFIGS),
    };
    (0..n)
        .map(|k| grid.config_at(((start + k * STRIDE) % len) as usize))
        .collect()
}

fn phases(seed: u64) -> [Phase; 2] {
    let (golden, fast) = DIGESTS[(seed % SLICES) as usize];
    [(EngineMode::Golden, golden), (EngineMode::Fast, fast)].map(|(engine, digest)| {
        let mut campaign = Campaign::new(Scale::Quick).with_engine(engine);
        campaign.threads = 1;
        Phase {
            engine,
            campaign,
            configs: slice(seed, engine),
            digest,
        }
    })
}

/// Timestamps each delivered configuration and folds its digest.
struct TimingSink<'a> {
    last: Instant,
    gaps_us: &'a mut Samples,
    windows: Option<&'a mut Windows>,
    digest: Digest,
}

impl CampaignSink for TimingSink<'_> {
    fn on_result(&mut self, _index: usize, result: &ConfigResult) {
        let now = Instant::now();
        self.gaps_us.push((now - self.last).as_secs_f64() * 1e6);
        self.last = now;
        if let Some(w) = self.windows.as_deref_mut() {
            w.tick();
        }
        self.digest.fold(&result.metrics);
    }
}

/// Runs one phase through `Campaign::run_streamed`; returns its digest.
fn run_phase(phase: &Phase, gaps_us: &mut Samples, windows: Option<&mut Windows>) -> u64 {
    let mut sink = TimingSink {
        last: Instant::now(),
        gaps_us,
        windows,
        digest: Digest::default(),
    };
    phase.campaign.run_streamed(&phase.configs, &mut sink);
    sink.digest.value()
}

/// Checks a phase digest; the message names the slice on failure.
fn check(phase: &Phase, digest: u64, seed: u64) -> Option<String> {
    (digest != phase.digest).then(|| {
        format!(
            "sweep slice {} {} digest {digest:#018x} != recorded {:#018x}",
            seed % SLICES,
            phase.name(),
            phase.digest
        )
    })
}

/// One sweep set-up: both campaigns and slices built, then every slice
/// run `WARMUP_PASSES` times untimed, digests checked.
fn sweep_setup(seed: u64, checks: &mut Vec<String>) -> [Phase; 2] {
    let phases = phases(seed);
    let mut warm = Samples::default();
    for _ in 0..WARMUP_PASSES {
        for phase in &phases {
            let digest = run_phase(phase, &mut warm, None);
            checks.extend(check(phase, digest, seed));
        }
    }
    phases
}

/// The `sweep` workload.
pub fn sweep(seed: u64, seconds: f64) -> Measured {
    let mut setup = Samples::default();
    let mut checks = Vec::new();
    let phases = time_setup(&mut setup, || sweep_setup(seed, &mut checks));
    // Room for 50k configurations/s (about twice the design host's rate)
    // is made resident up front, so the count never moves `peak_rss_mb`.
    let mut gaps_us = Samples::resident((seconds * 50_000.0) as usize);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut windows = Windows::start(WINDOW_S, seconds);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    while Instant::now() < until {
        for phase in &phases {
            let digest = run_phase(phase, &mut gaps_us, Some(&mut windows));
            let n = phase.configs.len() as u64;
            attempted += n;
            if let Some(msg) = check(phase, digest, seed) {
                failed += n;
                if checks.len() < 8 {
                    checks.push(msg);
                }
            }
        }
    }
    let elapsed = start.elapsed();
    let peak_rss_mb = peak_rss_mb();
    for _ in 1..SETUPS {
        time_setup(&mut setup, || sweep_setup(seed, &mut checks));
    }
    checks.truncate(8);
    Measured {
        setup_s: setup,
        peak_rss_mb,
        answers_per_s: windows.median_rate(elapsed),
        ok: attempted - failed,
        attempted,
        failed,
        elapsed,
        op_us: gaps_us,
        checks,
    }
}

/// The traced replay of `sweep`: the campaign's per-configuration work
/// repeated call by call (same seeds, same shared budget table), so the
/// digests must still match.
pub fn trace_sweep(seed: u64, seconds: f64) -> TraceReport {
    let phases = phases(seed);
    let mut failed = 0u64;
    // Untraced: the campaign itself, split by engine.
    let mut per_engine = [Samples::default(), Samples::default()];
    let mut configs = 0u64;
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds / 2.0);
    while Instant::now() < until {
        for (phase, gaps) in phases.iter().zip(per_engine.iter_mut()) {
            let digest = run_phase(phase, gaps, None);
            configs += phase.configs.len() as u64;
            failed += u64::from(check(phase, digest, seed).is_some());
        }
    }
    let untraced = configs as f64 / start.elapsed().as_secs_f64();

    let mut t = Tracer::default();
    let (mut golden, mut events, mut event_ns, mut high_water) = (0u64, 0u64, 0u128, 0usize);
    let (mut attempts, mut generated) = (0u64, 0u64);
    let mut done = 0u64;
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds / 2.0);
    while Instant::now() < until {
        for phase in &phases {
            let c = &phase.campaign;
            let budgets = Arc::new(LinkBudgetTable::new(c.channel));
            let base = RngFactory::new(c.seed);
            let mut digest = Digest::default();
            for (i, config) in phase.configs.iter().enumerate() {
                let options = SimOptions {
                    packets: c.packets,
                    seed: match phase.engine {
                        EngineMode::Golden => base.derive(i as u64).seed(),
                        _ => c.seed,
                    },
                    channel: c.channel,
                    traffic: c.traffic,
                    record_packets: false,
                    horizon: None,
                    trajectory: Trajectory::Stationary,
                };
                t.enter("config", done);
                let metrics = if phase.engine == EngineMode::Golden {
                    let outcome = t.span("link_sim.golden", || {
                        LinkSimulation::new(*config, options)
                            .with_budget_table(Arc::clone(&budgets))
                            .run()
                    });
                    golden += 1;
                    events += outcome.exec.events_handled;
                    event_ns += outcome.exec.wall_elapsed.as_nanos();
                    high_water = high_water.max(outcome.exec.queue_high_water);
                    attempts += outcome.metrics().attempts;
                    generated += outcome.metrics().generated;
                    outcome.metrics().clone()
                } else {
                    t.span("link_sim.fast", || {
                        FastLinkSimulation::new(*config, options)
                            .with_budget_table(Arc::clone(&budgets))
                            .run()
                            .into_metrics()
                    })
                };
                t.span("radio.budget", || {
                    budgets.budget(config.power, config.distance)
                });
                t.span("bench.digest", || digest.fold(&metrics));
                t.exit();
                done += 1;
            }
            failed += u64::from(check(phase, digest.value(), seed).is_some());
        }
    }
    let wall = start.elapsed();
    let [mut golden_gaps, mut fast_gaps] = per_engine;
    let metrics = vec![
        Metric::new("link_sim.golden_us_per_config", golden_gaps.median(), "us"),
        Metric::new("link_sim.fast_us_per_config", fast_gaps.median(), "us"),
        Metric::new(
            "sim_engine.events_per_config",
            events as f64 / golden.max(1) as f64,
            "count",
        ),
        Metric::new(
            "sim_engine.ns_per_event",
            event_ns as f64 / events.max(1) as f64,
            "ns",
        ),
        Metric::new("sim_engine.queue_high_water", high_water as f64, "count"),
        Metric::new(
            "mac.attempts_per_packet",
            attempts as f64 / generated.max(1) as f64,
            "count",
        ),
        Metric::new("radio.budget_ns", t.mean_ns("radio.budget"), "ns"),
    ];
    let notes = if failed > 0 {
        vec![format!(
            "CHECK FAILED: {failed} sweep passes with a wrong digest"
        )]
    } else {
        Vec::new()
    };
    TraceReport {
        workload: "sweep",
        tracer: t,
        wall,
        done,
        untraced_aps: untraced,
        failed,
        metrics,
        notes,
    }
}
