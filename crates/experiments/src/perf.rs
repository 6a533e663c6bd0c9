//! Campaign throughput measurement (`repro bench`).
//!
//! Times [`Campaign::run_streamed`] over the 32-configuration
//! `Scale::Bench` grid of [`bench_grid`] at several worker-thread counts
//! and under every engine, plus the warm analytic prediction, multi-link
//! scenarios, the sparse-medium density ladder and cold serve `tune`
//! scans. Every row goes through
//! one timing loop: warm up, size a batch from one calibration call, keep
//! the fastest of `reps` batches. The JSON form of [`BenchReport`] is the
//! repository's machine-readable perf trajectory (`BENCH_campaign.json`).

use std::time::Instant;

use serde::{Deserialize, Serialize};

use wsn_link_sim::network::{NetOptions, NetworkSimulation};
use wsn_params::config::StackConfig;
use wsn_params::grid::ParamGrid;
use wsn_params::scenario::Scenario;
use wsn_serve::engine::Engine;
use wsn_serve::protocol::parse_request;

use wsn_sim_engine::mode::EngineMode;

use crate::campaign::{Campaign, ConfigResult, Scale};
use crate::stream::SinkFn;

/// The benchmark grid: 4 distances × 4 powers × 2 retry budgets, 32
/// configurations; each `results` row of [`campaign_throughput`] runs it.
pub fn bench_grid() -> ParamGrid {
    ParamGrid {
        distances_m: vec![10.0, 20.0, 30.0, 35.0],
        power_levels: vec![3, 7, 11, 31],
        max_tries: vec![1, 3],
        retry_delays_ms: vec![0],
        queue_caps: vec![30],
        packet_intervals_ms: vec![50],
        payloads: vec![50],
    }
}

/// Throughput at one worker-thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadThroughput {
    /// Engine mode the row was measured under (`"golden"`, `"fast"`, or
    /// `"analytic"`).
    pub mode: String,
    /// Campaign worker threads.
    pub threads: usize,
    /// Grid configurations simulated per wall-clock second (best batch).
    pub configs_per_sec: f64,
    /// Wall-clock seconds of the best timed batch.
    pub elapsed_s: f64,
    /// Full-grid iterations per timed batch.
    pub iters: usize,
}

/// Throughput of the multi-link network simulator at one scenario size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioThroughput {
    /// Links in the scenario.
    pub links: usize,
    /// Full scenario runs per wall-clock second (best batch).
    pub runs_per_sec: f64,
    /// Wall-clock seconds of the best timed batch.
    pub elapsed_s: f64,
    /// Scenario runs per timed batch.
    pub iters: usize,
}

/// Throughput of the sparse-medium network simulator at one
/// `(engine, link count)` point of the dynamic-topology density ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DensityThroughput {
    /// Engine mode the row was measured under (`"golden"` or `"fast"`).
    pub mode: String,
    /// Node placement, e.g. `"grid-25m"` (25 m constant-density cells).
    pub placement: String,
    /// Links in the scenario.
    pub links: usize,
    /// Full scenario runs per wall-clock second (best batch).
    pub runs_per_sec: f64,
    /// Wall-clock seconds of the best timed batch.
    pub elapsed_s: f64,
    /// Scenario runs per timed batch.
    pub iters: usize,
}

/// Cold latency of one serve `tune` scan: a fresh engine per call, so
/// neither the response cache nor the analytic memo holds anything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneLatency {
    /// Engine mode of the request (`"golden"` ranks predictions,
    /// `"analytic"` ranks closed-form evaluations).
    pub mode: String,
    /// The scanned slice: `"35m"` (8,064 configurations) or `"grid"`
    /// (all 48,384).
    pub scope: String,
    /// Milliseconds per cold `tune`, engine construction included (best
    /// batch).
    pub cold_ms: f64,
    /// Cold `tune` calls per timed batch.
    pub iters: usize,
}

/// One `repro bench` measurement: the workload identity plus per-thread
/// throughput numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Benchmark id (always `"campaign_throughput"`).
    pub bench: String,
    /// Measurement scale name.
    pub scale: String,
    /// Configurations in the benchmark grid.
    pub grid_configs: usize,
    /// Packets simulated per configuration.
    pub packets_per_config: u64,
    /// Throughput per thread count, in the order measured.
    pub results: Vec<ThreadThroughput>,
    /// Warm single-configuration latency of one analytic prediction
    /// (memo-table hit), nanoseconds — the serve `predict`/`tune`
    /// pre-scan cost per candidate.
    pub analytic_predict_ns: f64,
    /// Multi-link shared-channel throughput per scenario size.
    pub scenarios: Vec<ScenarioThroughput>,
    /// Sparse-medium density ladder (grid placement, −85 dBm pruning):
    /// throughput per `(engine, link count)`.
    pub density: Vec<DensityThroughput>,
    /// Cold serve `tune` latency per `(engine, scope)`.
    pub tune: Vec<TuneLatency>,
}

impl BenchReport {
    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} — {} configs × {} packets\n",
            self.bench, self.grid_configs, self.packets_per_config
        );
        for r in &self.results {
            out.push_str(&format!(
                "  {:<6} {:>2} thread{}: {:>9.0} configs/sec  ({} iters, {:.3}s)\n",
                r.mode,
                r.threads,
                if r.threads == 1 { " " } else { "s" },
                r.configs_per_sec,
                r.iters,
                r.elapsed_s,
            ));
        }
        out.push_str(&format!(
            "  analytic predict (warm): {:>7.0} ns\n",
            self.analytic_predict_ns
        ));
        for s in &self.scenarios {
            out.push_str(&format!(
                "  {:>2}-link scenario: {:>7.0} runs/sec  ({} iters, {:.3}s)\n",
                s.links, s.runs_per_sec, s.iters, s.elapsed_s,
            ));
        }
        for d in &self.density {
            out.push_str(&format!(
                "  {:<6} {:>4}-link {}: {:>8.2} runs/sec  ({} iters, {:.3}s)\n",
                d.mode, d.links, d.placement, d.runs_per_sec, d.iters, d.elapsed_s,
            ));
        }
        for t in &self.tune {
            out.push_str(&format!(
                "  {:<8} tune ({:>4}, cold): {:>8.2} ms  ({} iters)\n",
                t.mode, t.scope, t.cold_ms, t.iters,
            ));
        }
        out
    }
}

/// Measures one cold serve `tune` (energy objective) per engine mode at
/// 35 m and over the whole paper grid. Each call builds a fresh
/// [`Engine`], so every call scans from scratch.
pub fn tune_latency(reps: usize, min_batch_s: f64) -> Vec<TuneLatency> {
    let mut out = Vec::with_capacity(4);
    for engine in [EngineMode::Golden, EngineMode::Analytic] {
        for (scope, distance) in [("35m", r#","distance_m":35.0"#), ("grid", "")] {
            let line = format!(
                r#"{{"op":"tune","objective":"energy","engine":"{}"{distance}}}"#,
                engine.name()
            );
            let body = parse_request(&line).expect("a valid tune request").body;
            let (iters, best) = best_batch(reps, min_batch_s, 1, || {
                let answer = Engine::new(1).execute(&body).expect("tune answers");
                std::hint::black_box(answer.body.len());
            });
            out.push(TuneLatency {
                mode: engine.name().to_string(),
                scope: scope.to_string(),
                cold_ms: best * 1e3 / iters as f64,
                iters,
            });
        }
    }
    out
}

/// Measures multi-link network throughput at each of `link_counts`:
/// parallel 20 m links, 2 m spacing, `Scale::Bench` packets per link.
pub fn scenario_throughput(
    link_counts: &[usize],
    reps: usize,
    min_batch_s: f64,
) -> Vec<ScenarioThroughput> {
    let config = StackConfig::builder()
        .distance_m(20.0)
        .power_level(31)
        .payload_bytes(50)
        .max_tries(3)
        .retry_delay_ms(0)
        .queue_cap(30)
        .packet_interval_ms(50)
        .build()
        .expect("valid constants");
    let mut out = Vec::with_capacity(link_counts.len());
    for &links in link_counts {
        let scenario = Scenario::parallel(&vec![config; links], 2.0);
        let (iters, best) = best_batch(reps, min_batch_s, 1, || {
            let options = NetOptions {
                seed: 0x5EED,
                ..NetOptions::quick(Scale::Bench.packets())
            };
            let outcome = NetworkSimulation::new(scenario.clone(), options).run();
            std::hint::black_box(outcome.goodput_bps());
        });
        out.push(ScenarioThroughput {
            links,
            runs_per_sec: iters as f64 / best,
            elapsed_s: best,
            iters,
        });
    }
    out
}

/// Measures the sparse-medium density ladder: constant-density grids
/// (25 m cells) at each of `link_counts`, −85 dBm interference pruning,
/// under both sampling engines. The fast-engine run-time ratio between
/// the 256- and 16-link rows is the repository's evidence that per-link
/// cost stays bounded by the neighborhood (a dense N×N medium scales the
/// ratio with N, not with density).
///
/// The workload is a low-power dense deployment — 10 m links at PA
/// level 5 (−20 dBm) — where the −85 dBm floor corresponds to a ~31 m
/// audible radius (hallway fit, `n = 2.19`), i.e. a genuinely bounded
/// neighborhood on 25 m cells. At PA 31 the same floor reaches ~260 m
/// and nothing on a 256-link grid is prunable, which benchmarks the
/// channel, not the store.
pub fn density_throughput(
    link_counts: &[usize],
    reps: usize,
    min_batch_s: f64,
) -> Vec<DensityThroughput> {
    let config = StackConfig::builder()
        .distance_m(10.0)
        .power_level(5)
        .payload_bytes(50)
        .max_tries(3)
        .retry_delay_ms(0)
        .queue_cap(30)
        .packet_interval_ms(50)
        .build()
        .expect("valid constants");
    let mut out = Vec::with_capacity(2 * link_counts.len());
    for engine in [EngineMode::Golden, EngineMode::Fast] {
        for &links in link_counts {
            let scenario = Scenario::grid(config, links, 25.0);
            let (iters, best) = best_batch(reps, min_batch_s, 1, || {
                let options = NetOptions {
                    seed: 0x5EED,
                    engine,
                    ..NetOptions::quick(Scale::Bench.packets())
                }
                .with_prune_floor_dbm(-85.0);
                let outcome = NetworkSimulation::new(scenario.clone(), options).run();
                std::hint::black_box(outcome.goodput_bps());
            });
            out.push(DensityThroughput {
                mode: engine.name().to_string(),
                placement: "grid-25m".to_string(),
                links,
                runs_per_sec: iters as f64 / best,
                elapsed_s: best,
                iters,
            });
        }
    }
    out
}

/// Measures campaign throughput at each of `thread_counts` under every
/// engine, then the analytic, scenario and density rows: every row keeps
/// the fastest of `reps` batches, each sized to run ≥ `min_batch_s`.
pub fn campaign_throughput(thread_counts: &[usize], reps: usize, min_batch_s: f64) -> BenchReport {
    let configs: Vec<StackConfig> = bench_grid().iter().collect();
    let mut results = Vec::with_capacity(EngineMode::ALL.len() * thread_counts.len());
    for engine in EngineMode::ALL {
        for &threads in thread_counts {
            let campaign = Campaign {
                threads,
                ..Campaign::new(Scale::Bench)
            }
            .with_engine(engine);
            let (iters, best) = best_batch(reps, min_batch_s, 1, || {
                let mut sink = SinkFn::new(|_i: usize, r: &ConfigResult| {
                    std::hint::black_box(r.metrics.goodput_bps);
                });
                campaign.run_streamed(&configs, &mut sink);
            });
            results.push(ThreadThroughput {
                mode: engine.name().to_string(),
                threads,
                configs_per_sec: (iters * configs.len()) as f64 / best,
                elapsed_s: best,
                iters,
            });
        }
    }
    BenchReport {
        bench: "campaign_throughput".into(),
        scale: "bench".into(),
        grid_configs: configs.len(),
        packets_per_config: Scale::Bench.packets(),
        results,
        analytic_predict_ns: analytic_predict_latency_ns(reps, min_batch_s),
        scenarios: scenario_throughput(&[2, 8], reps, min_batch_s),
        density: density_throughput(&[16, 64, 256], reps, min_batch_s),
        tune: tune_latency(reps, min_batch_s),
    }
}

/// Warm per-prediction latency of the analytic engine, nanoseconds: one
/// configuration asked for over and over against a populated memo table —
/// the steady-state cost serve's analytic `predict` (and each `tune`
/// pre-scan candidate after the first sweep) pays.
pub fn analytic_predict_latency_ns(reps: usize, min_batch_s: f64) -> f64 {
    let campaign = Campaign::new(Scale::Bench).with_engine(EngineMode::Analytic);
    let config = bench_grid().iter().next().expect("non-empty grid");
    // The warm-up call populates the memo, so every timed call is a hit.
    let (iters, best) = best_batch(reps, min_batch_s, 1000, || {
        let result = campaign.run_one(config, 0);
        std::hint::black_box(result.metrics.goodput_bps);
    });
    best * 1e9 / iters as f64
}

/// The one timing loop behind every `repro bench` row: one warm-up call,
/// one calibration call that sizes the batch to ≥ `min_batch_s` and ≥
/// `min_iters` calls, then `reps` (at least one) timed batches. Returns the
/// batch size and the fastest batch's seconds, the standard minimum-of-k
/// estimator for the noise-free cost.
fn best_batch(
    reps: usize,
    min_batch_s: f64,
    min_iters: usize,
    mut run: impl FnMut(),
) -> (usize, f64) {
    run();
    let t0 = Instant::now();
    run();
    let per_run = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = (min_batch_s / per_run).ceil().max(min_iters as f64) as usize;

    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        for _ in 0..iters {
            run();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (iters, best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_measures_and_renders() {
        // Tiny batches: correctness of the plumbing, not the numbers.
        let report = campaign_throughput(&[1, 2], 1, 0.0);
        assert_eq!(report.grid_configs, 32);
        // One row per (mode, thread count): golden rows first, then fast,
        // then analytic.
        assert_eq!(report.results.len(), 6);
        assert!(report.results.iter().all(|r| r.configs_per_sec > 0.0));
        assert_eq!(report.results[0].mode, "golden");
        assert_eq!(report.results[2].mode, "fast");
        assert_eq!(report.results[4].mode, "analytic");
        assert_eq!(report.results[0].threads, 1);
        assert_eq!(report.results[5].threads, 2);
        assert!(report.analytic_predict_ns > 0.0);
        assert_eq!(report.scenarios.len(), 2);
        assert_eq!(report.scenarios[0].links, 2);
        assert_eq!(report.scenarios[1].links, 8);
        assert!(report.scenarios.iter().all(|s| s.runs_per_sec > 0.0));
        // Density ladder: golden rows then fast rows, 16/64/256 each.
        assert_eq!(report.density.len(), 6);
        assert_eq!(report.density[0].mode, "golden");
        assert_eq!(report.density[3].mode, "fast");
        assert_eq!(report.density[0].links, 16);
        assert_eq!(report.density[5].links, 256);
        assert!(report.density.iter().all(|d| d.runs_per_sec > 0.0));
        assert!(report.density.iter().all(|d| d.placement == "grid-25m"));
        // Cold tune: golden then analytic, 35 m then the whole grid.
        let tune: Vec<(&str, &str)> = report
            .tune
            .iter()
            .map(|t| (t.mode.as_str(), t.scope.as_str()))
            .collect();
        assert_eq!(
            tune,
            [
                ("golden", "35m"),
                ("golden", "grid"),
                ("analytic", "35m"),
                ("analytic", "grid")
            ]
        );
        assert!(report.tune.iter().all(|t| t.cold_ms > 0.0));
        let text = report.render();
        assert!(text.contains("campaign_throughput"));
        assert!(text.contains("configs/sec"));
        assert!(text.contains("-link scenario"));
        assert!(text.contains("grid-25m"));
        assert!(text.contains("tune ( 35m, cold)"));
        let json = serde_json::to_string(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
