//! Lock-free service counters behind the `stats` op.
//!
//! Every counter is a relaxed atomic — workers never take a lock to
//! record a request. Latencies land in `wsn-obs` log-linear histograms
//! (≤ 12.5 % bucket width, interpolated quantiles), one per distribution:
//!
//! * `exec_us` — pop-to-answer execution time of requests that actually
//!   ran (parse time and queue time excluded, deadline-expired jobs
//!   excluded), plus the probe-to-answer time of memory-tier hits and the
//!   execution-to-answer time of bounded-cost misses the front end
//!   answered inline.
//! * `queue_wait_us` — enqueue-to-pop wait of every job a worker popped,
//!   including ones that then died of their deadline. Inline answers never
//!   queue and draw no sample here.
//!
//! Keeping the two apart is the point: under overload the old combined
//! "service time" mixed ~0 µs deadline corpses into the execution
//! distribution and dragged p50 down exactly when the operator most
//! needed the truth.

use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use wsn_obs::hist::LogLinearHistogram;
use wsn_obs::metrics::{Counter, Gauge, Registry};
use wsn_sim_engine::executor::ExecStats;
use wsn_sim_engine::obs::ExecGauges;

use crate::protocol::Op;

/// Live counters for one server instance.
///
/// All recording paths are wait-free; only [`snapshot`](Self::snapshot)
/// and metric registration take the registry lock.
#[derive(Debug)]
pub struct ServeStats {
    started: Instant,
    registry: Registry,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    rejected: Arc<Counter>,
    by_op: [Arc<Counter>; Op::COUNT],
    exec_us: Arc<LogLinearHistogram>,
    queue_wait_us: Arc<LogLinearHistogram>,
    queue_depth: Arc<Gauge>,
    sim: ExecGauges,
}

impl ServeStats {
    /// Fresh counters, starting the uptime clock now.
    pub fn new() -> Self {
        let registry = Registry::new();
        let ops = [
            Op::Simulate,
            Op::Predict,
            Op::Tune,
            Op::Scenario,
            Op::Stats,
            Op::Cache,
            Op::Shutdown,
            Op::Pareto,
            Op::Explore,
        ];
        let by_op =
            std::array::from_fn(|i| registry.counter(&format!("serve.op.{}", ops[i].name())));
        ServeStats {
            started: Instant::now(),
            requests: registry.counter("serve.requests"),
            errors: registry.counter("serve.errors"),
            deadline_exceeded: registry.counter("serve.deadline_exceeded"),
            rejected: registry.counter("serve.rejected"),
            by_op,
            exec_us: registry.histogram("serve.exec_us"),
            queue_wait_us: registry.histogram("serve.queue_wait_us"),
            queue_depth: registry.gauge("serve.queue_depth"),
            sim: ExecGauges::register(&registry, "sim"),
            registry,
        }
    }

    /// The underlying metric registry (for embedding servers that want to
    /// render every metric, e.g. as JSON via
    /// [`Registry::to_json`]).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A job entered the queue.
    pub fn record_enqueued(&self) {
        self.queue_depth.inc();
    }

    /// A job left the queue after waiting `queue_wait_us`. Called for
    /// *every* popped job, including ones that then exceed their deadline
    /// — queue wait is a property of the queue, not of the outcome.
    pub fn record_dequeued(&self, queue_wait_us: u64) {
        self.queue_depth.dec();
        self.queue_wait_us.record(queue_wait_us);
    }

    /// A job that was pushed but never made it into the queue (push
    /// refused); undoes the matching [`record_enqueued`](Self::record_enqueued).
    pub fn record_push_refused(&self) {
        self.queue_depth.dec();
    }

    /// A request ran to completion: its op, whether it produced an error
    /// response, and its execution time (pop-to-answer for a worker,
    /// probe-to-answer for an inline memory-tier hit, execution-to-answer
    /// for an inline miss).
    pub fn record_done(&self, op: Op, ok: bool, exec_us: u64) {
        self.requests.inc();
        if !ok {
            self.errors.inc();
        }
        self.by_op[op.index()].inc();
        self.exec_us.record(exec_us);
    }

    /// A request was refused before execution (parse error, oversized
    /// line, full queue). No latency sample is recorded — a refusal has
    /// no execution time, and recording 0 µs would poison the quantiles.
    pub fn record_rejected(&self, op: Option<Op>) {
        self.requests.inc();
        self.errors.inc();
        self.rejected.inc();
        if let Some(op) = op {
            self.by_op[op.index()].inc();
        }
    }

    /// A job outlived its deadline in the queue and was answered with an
    /// error instead of executing. Counted on its own — **not** as an
    /// execution-time sample (its queue wait was already recorded by
    /// [`record_dequeued`](Self::record_dequeued)).
    pub fn record_deadline_exceeded(&self, op: Op) {
        self.requests.inc();
        self.errors.inc();
        self.deadline_exceeded.inc();
        self.by_op[op.index()].inc();
    }

    /// Folds one simulation run's executor statistics into the `sim.*`
    /// gauges surfaced by the `stats` op.
    pub fn observe_exec(&self, stats: &ExecStats) {
        self.sim.observe(stats);
    }

    /// Jobs currently sitting in the queue (enqueued, not yet popped).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.get().max(0) as u64
    }

    /// Total deadline-exceeded refusals so far.
    pub fn deadline_exceeded(&self) -> u64 {
        self.deadline_exceeded.get()
    }

    /// A serializable snapshot of every counter, given the cache's own
    /// counters.
    pub fn snapshot(
        &self,
        cache_hits: u64,
        cache_misses: u64,
        cache_entries: usize,
        cache_evictions: u64,
    ) -> StatsSnapshot {
        let lookups = cache_hits + cache_misses;
        StatsSnapshot {
            uptime_s: self.started.elapsed().as_secs_f64(),
            requests: self.requests.get(),
            errors: self.errors.get(),
            deadline_exceeded: self.deadline_exceeded.get(),
            rejected: self.rejected.get(),
            queue_depth: self.queue_depth(),
            cache_hits,
            cache_misses,
            cache_hit_rate: if lookups == 0 {
                0.0
            } else {
                cache_hits as f64 / lookups as f64
            },
            cache_entries: cache_entries as u64,
            cache_evictions,
            by_op: OpCounts {
                simulate: self.by_op[Op::Simulate.index()].get(),
                predict: self.by_op[Op::Predict.index()].get(),
                tune: self.by_op[Op::Tune.index()].get(),
                pareto: self.by_op[Op::Pareto.index()].get(),
                explore: self.by_op[Op::Explore.index()].get(),
                scenario: self.by_op[Op::Scenario.index()].get(),
                stats: self.by_op[Op::Stats.index()].get(),
                cache: self.by_op[Op::Cache.index()].get(),
                shutdown: self.by_op[Op::Shutdown.index()].get(),
            },
            exec_us: LatencyQuantiles::of(&self.exec_us),
            queue_wait_us: LatencyQuantiles::of(&self.queue_wait_us),
            sim: SimCounters {
                runs: self.sim.runs(),
                events_handled: self.sim.events_handled(),
                events_scheduled: self.sim.events_scheduled(),
                queue_high_water: self.sim.queue_high_water(),
            },
        }
    }
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats::new()
    }
}

/// Requests handled per op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounts {
    /// `simulate` requests.
    pub simulate: u64,
    /// `predict` requests.
    pub predict: u64,
    /// `tune` requests.
    pub tune: u64,
    /// `pareto` requests.
    pub pareto: u64,
    /// `explore` requests.
    pub explore: u64,
    /// `scenario` requests.
    pub scenario: u64,
    /// `stats` requests.
    pub stats: u64,
    /// `cache` requests.
    pub cache: u64,
    /// `shutdown` requests.
    pub shutdown: u64,
}

/// Interpolated quantiles of one latency distribution, microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyQuantiles {
    /// Samples recorded.
    pub count: u64,
    /// Median (interpolated within a ≤ 12.5 %-wide bucket).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

impl LatencyQuantiles {
    fn of(hist: &LogLinearHistogram) -> Self {
        LatencyQuantiles {
            count: hist.count(),
            p50: hist.quantile(0.50),
            p90: hist.quantile(0.90),
            p99: hist.quantile(0.99),
            max: hist.max(),
        }
    }
}

/// Accumulated discrete-event-executor load across every simulation the
/// server has run (`simulate` and `scenario` cache misses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimCounters {
    /// Simulation runs executed.
    pub runs: u64,
    /// Events handled across all runs.
    pub events_handled: u64,
    /// Events scheduled across all runs.
    pub events_scheduled: u64,
    /// Largest pending-event-queue length any run reached.
    pub queue_high_water: u64,
}

/// What the `stats` op returns.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Requests handled (including failed and refused ones).
    pub requests: u64,
    /// Requests that produced an error response (any cause).
    pub errors: u64,
    /// Requests that spent their whole deadline budget in the queue.
    pub deadline_exceeded: u64,
    /// Requests refused before execution (parse error, oversized line,
    /// full queue).
    pub rejected: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses (cacheable requests that had to compute).
    pub cache_misses: u64,
    /// `hits / (hits + misses)`, 0.0 before the first cacheable lookup.
    pub cache_hit_rate: f64,
    /// Result-cache entries currently resident.
    pub cache_entries: u64,
    /// Result-cache shard clears (epoch evictions).
    pub cache_evictions: u64,
    /// Per-op request counts.
    pub by_op: OpCounts,
    /// Execution-time distribution (pop to answer, executed requests
    /// only).
    pub exec_us: LatencyQuantiles,
    /// Queue-wait distribution (enqueue to pop, every popped job).
    pub queue_wait_us: LatencyQuantiles,
    /// Discrete-event-executor load across the server's simulations.
    pub sim: SimCounters,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(stats: &ServeStats) -> StatsSnapshot {
        stats.snapshot(0, 0, 0, 0)
    }

    #[test]
    fn quantiles_split_fast_and_slow() {
        let stats = ServeStats::new();
        // One sub-millisecond hit, one multi-millisecond simulation.
        stats.record_done(Op::Simulate, true, 300);
        stats.record_done(Op::Simulate, true, 8_000);
        let snap = stats.snapshot(1, 1, 1, 0);
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.by_op.simulate, 2);
        assert_eq!(snap.exec_us.count, 2);
        assert!(snap.exec_us.p50 < 1_000, "p50 {}", snap.exec_us.p50);
        // The interpolated p99 must be within a bucket of the slow truth —
        // the old histogram would have said 16384 here.
        assert!(
            (snap.exec_us.p99 as f64 - 8_000.0).abs() / 8_000.0 <= 0.125,
            "p99 {}",
            snap.exec_us.p99
        );
        assert_eq!(snap.exec_us.max, 8_000);
        assert!((snap.cache_hit_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deadline_corpses_do_not_contaminate_exec_times() {
        let stats = ServeStats::new();
        // Healthy requests around 5 ms…
        for _ in 0..10 {
            stats.record_done(Op::Predict, true, 5_000);
        }
        // …then an overload burst: 10 jobs die in the queue. The old code
        // recorded each as a ~0 µs "service time", halving the reported
        // median exactly when the server was drowning.
        for _ in 0..10 {
            stats.record_dequeued(120_000);
            stats.record_deadline_exceeded(Op::Predict);
        }
        let s = snap(&stats);
        assert_eq!(s.requests, 20);
        assert_eq!(s.deadline_exceeded, 10);
        assert_eq!(s.exec_us.count, 10, "corpses must not be exec samples");
        assert!(
            (4_500..=5_500).contains(&s.exec_us.p50),
            "p50 {} dragged off 5000",
            s.exec_us.p50
        );
        assert_eq!(s.queue_wait_us.count, 10);
        assert!(s.queue_wait_us.p50 >= 110_000);
    }

    #[test]
    fn queue_wait_and_depth_are_tracked() {
        let stats = ServeStats::new();
        stats.record_enqueued();
        stats.record_enqueued();
        assert_eq!(stats.queue_depth(), 2);
        stats.record_dequeued(250);
        assert_eq!(stats.queue_depth(), 1);
        stats.record_enqueued();
        stats.record_push_refused(); // queue-full bounce
        let s = snap(&stats);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.queue_wait_us.count, 1);
        assert!(
            (225..=251).contains(&s.queue_wait_us.p50),
            "{}",
            s.queue_wait_us.p50
        );
    }

    #[test]
    fn rejections_count_but_leave_no_latency_sample() {
        let stats = ServeStats::new();
        stats.record_rejected(None);
        stats.record_rejected(Some(Op::Tune));
        let s = snap(&stats);
        assert_eq!(s.requests, 2);
        assert_eq!(s.errors, 2);
        assert_eq!(s.rejected, 2);
        assert_eq!(s.by_op.tune, 1);
        assert_eq!(s.exec_us.count, 0);
        assert_eq!(s.exec_us.p50, 0);
    }

    #[test]
    fn sim_counters_accumulate_from_exec_stats() {
        use wsn_sim_engine::time::SimDuration;
        let stats = ServeStats::new();
        let run = ExecStats {
            events_handled: 100,
            events_scheduled: 120,
            queue_high_water: 9,
            sim_elapsed: SimDuration::from_millis(5),
            wall_elapsed: std::time::Duration::from_micros(50),
        };
        stats.observe_exec(&run);
        stats.observe_exec(&run);
        let s = snap(&stats);
        assert_eq!(s.sim.runs, 2);
        assert_eq!(s.sim.events_handled, 200);
        assert_eq!(s.sim.queue_high_water, 9);
    }

    #[test]
    fn empty_histograms_report_zero() {
        let s = snap(&ServeStats::new());
        assert_eq!(s.exec_us.p50, 0);
        assert_eq!(s.exec_us.p99, 0);
        assert_eq!(s.queue_wait_us.p50, 0);
        assert_eq!(s.cache_hit_rate, 0.0);
    }

    #[test]
    fn registry_renders_the_same_counters() {
        let stats = ServeStats::new();
        stats.record_done(Op::Stats, true, 42);
        let json = stats.registry().to_json();
        assert!(json.contains("\"serve.requests\":1"), "{json}");
        assert!(json.contains("\"serve.op.stats\":1"), "{json}");
        assert!(json.contains("\"serve.exec_us\":{\"count\":1"), "{json}");
    }
}
