//! Exposes [`ExecStats`] through the `wsn-obs` metrics registry.
//!
//! The executor already measures itself ([`ExecStats`]: events handled,
//! events scheduled, queue high-water); this module publishes those
//! numbers as long-lived gauges/counters so a serving layer can surface
//! engine load in its `stats` op without reaching into executor
//! internals. [`ExecGauges`] accumulates across runs — event counts add
//! up, the high-water mark is the maximum ever seen — which is the shape
//! an operator wants from a server that executes many simulations.

use wsn_obs::metrics::{Counter, Gauge, Registry};

use crate::executor::{ExecStats, ExecutorObserver};
use crate::time::SimTime;

use std::sync::Arc;

/// Obs handles for executor statistics, accumulated over many runs.
#[derive(Debug, Clone)]
pub struct ExecGauges {
    events_handled: Arc<Counter>,
    events_scheduled: Arc<Counter>,
    queue_high_water: Arc<Gauge>,
    runs: Arc<Counter>,
}

impl ExecGauges {
    /// Registers `<prefix>.events_handled`, `<prefix>.events_scheduled`,
    /// `<prefix>.queue_high_water`, and `<prefix>.runs` in `registry`.
    pub fn register(registry: &Registry, prefix: &str) -> Self {
        ExecGauges {
            events_handled: registry.counter(&format!("{prefix}.events_handled")),
            events_scheduled: registry.counter(&format!("{prefix}.events_scheduled")),
            queue_high_water: registry.gauge(&format!("{prefix}.queue_high_water")),
            runs: registry.counter(&format!("{prefix}.runs")),
        }
    }

    /// Folds one run's statistics in: counts accumulate, the high-water
    /// gauge keeps the maximum across runs.
    pub fn observe(&self, stats: &ExecStats) {
        self.events_handled.add(stats.events_handled);
        self.events_scheduled.add(stats.events_scheduled);
        self.queue_high_water
            .update_max(stats.queue_high_water.min(i64::MAX as usize) as i64);
        self.runs.inc();
    }

    /// Total events handled across observed runs.
    pub fn events_handled(&self) -> u64 {
        self.events_handled.get()
    }

    /// Total events scheduled across observed runs.
    pub fn events_scheduled(&self) -> u64 {
        self.events_scheduled.get()
    }

    /// Largest pending-queue length seen in any observed run.
    pub fn queue_high_water(&self) -> u64 {
        self.queue_high_water.get().max(0) as u64
    }

    /// Runs observed.
    pub fn runs(&self) -> u64 {
        self.runs.get()
    }
}

/// As an [`ExecutorObserver`], `ExecGauges` folds in each run's stats as
/// the run ends — hand `&mut gauges.clone()` to
/// [`Executor::run_observed`](crate::executor::Executor::run_observed)
/// and the shared counters update (handles are `Arc`s, so a clone
/// records into the same registry entries).
impl ExecutorObserver for ExecGauges {
    fn on_run_end(&mut self, stats: &ExecStats) {
        self.observe(stats);
    }
}

/// A tiny convenience for models that want progress heartbeats in an
/// event log: logs one `sim_progress` event every `every` handled events.
#[derive(Debug)]
pub struct LogObserver<'a> {
    log: &'a wsn_obs::log::EventLog,
    every: u64,
    seen: u64,
}

impl<'a> LogObserver<'a> {
    /// Logs to `log` every `every` events (clamped to ≥ 1).
    pub fn new(log: &'a wsn_obs::log::EventLog, every: u64) -> Self {
        LogObserver {
            log,
            every: every.max(1),
            seen: 0,
        }
    }
}

impl ExecutorObserver for LogObserver<'_> {
    fn on_event(&mut self, now: SimTime, pending: usize) {
        self.seen += 1;
        if self.seen.is_multiple_of(self.every) {
            self.log
                .debug("sim_progress")
                .u64("events", self.seen)
                .u64("sim_us", now.as_micros())
                .u64("pending", pending as u64)
                .emit();
        }
    }

    fn on_run_end(&mut self, stats: &ExecStats) {
        self.log
            .info("sim_run_end")
            .u64("events_handled", stats.events_handled)
            .u64("events_scheduled", stats.events_scheduled)
            .u64("queue_high_water", stats.queue_high_water as u64)
            .f64("sim_wall_ratio", stats.sim_wall_ratio())
            .emit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor, Model, Scheduler};
    use crate::time::SimDuration;

    struct Ticker(u32);
    impl Model for Ticker {
        type Event = ();
        fn handle(&mut self, _e: (), sched: &mut Scheduler<'_, ()>) {
            if self.0 > 0 {
                self.0 -= 1;
                sched.schedule_in(SimDuration::from_millis(1), ());
            }
        }
    }

    #[test]
    fn gauges_accumulate_across_runs() {
        let registry = Registry::new();
        let gauges = ExecGauges::register(&registry, "sim");
        let mut observer = gauges.clone();

        let mut exec = Executor::new(Ticker(3));
        exec.seed_at(SimTime::ZERO, ());
        exec.run_observed(&mut observer);
        assert_eq!(gauges.events_handled(), 4);
        assert_eq!(gauges.runs(), 1);

        let mut exec = Executor::new(Ticker(5));
        exec.seed_at(SimTime::ZERO, ());
        exec.run_observed(&mut observer);
        assert_eq!(gauges.events_handled(), 10);
        assert_eq!(gauges.runs(), 2);
        assert!(gauges.queue_high_water() >= 1);

        // The same numbers are visible through the registry rendering.
        let json = registry.to_json();
        assert!(json.contains("\"sim.events_handled\":10"), "{json}");
        assert!(json.contains("\"sim.runs\":2"), "{json}");
    }

    #[test]
    fn observe_folds_plain_stats() {
        let registry = Registry::new();
        let gauges = ExecGauges::register(&registry, "x");
        gauges.observe(&ExecStats {
            events_handled: 7,
            events_scheduled: 9,
            queue_high_water: 4,
            sim_elapsed: SimDuration::from_millis(1),
            wall_elapsed: std::time::Duration::from_micros(10),
        });
        assert_eq!(gauges.events_handled(), 7);
        assert_eq!(gauges.events_scheduled(), 9);
        assert_eq!(gauges.queue_high_water(), 4);
    }

    #[test]
    fn log_observer_heartbeats_and_summarizes() {
        use std::io::Write;
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Buf::default();
        let log =
            wsn_obs::log::EventLog::to_writer(Box::new(buf.clone()), wsn_obs::log::Level::Debug);
        let mut exec = Executor::new(Ticker(9));
        exec.seed_at(SimTime::ZERO, ());
        exec.run_observed(&mut LogObserver::new(&log, 4));
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("sim_progress"), "{text}");
        assert!(text.contains("\"event\":\"sim_run_end\""), "{text}");
        assert!(text.contains("\"events_handled\":10"), "{text}");
    }
}
