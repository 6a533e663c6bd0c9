//! The simulation executor: drives a [`Model`] by draining the event queue.

use std::time::{Duration, Instant};

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Handle through which a [`Model`] schedules future events while handling
/// the current one.
///
/// The scheduler enforces causality: events may only be scheduled at or after
/// the current instant.
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    stop_requested: &'a mut bool,
}

impl<'a, E: Eq> Scheduler<'a, E> {
    /// The current simulation instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` after now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (causality violation).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        self.queue.push(at, event);
    }

    /// Requests that the executor stop after the current event returns.
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// A discrete-event model: owns all mutable simulation state and reacts to
/// events by updating state and scheduling more events.
pub trait Model {
    /// The event alphabet of this model.
    type Event: Eq;

    /// Handles one event at its due time.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);
}

/// Statistics gathered by the executor over one [`Executor::run`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecStats {
    /// Events handled during the run.
    pub events_handled: u64,
    /// Events ever scheduled on the queue (including seeds and events left
    /// pending when the run stopped).
    pub events_scheduled: u64,
    /// Largest pending-queue length ever reached, tracked at push time —
    /// seed events scheduled before the first handled event count, so a
    /// run seeded with N simultaneous events reports at least N even if
    /// handling them never grows the queue.
    pub queue_high_water: usize,
    /// Simulated time that elapsed during the run.
    pub sim_elapsed: SimDuration,
    /// Wall-clock time the run took.
    pub wall_elapsed: Duration,
}

impl ExecStats {
    /// Simulated seconds advanced per wall-clock second; `f64::INFINITY`
    /// when the run finished faster than the clock resolution.
    pub fn sim_wall_ratio(&self) -> f64 {
        let wall = self.wall_elapsed.as_secs_f64();
        if wall > 0.0 {
            self.sim_elapsed.as_secs_f64() / wall
        } else {
            f64::INFINITY
        }
    }
}

/// Hook for watching an executor run without owning the model.
///
/// All methods default to no-ops, so an observer implements only what it
/// needs. With the no-op observer the calls compile away: [`Executor::run`]
/// costs the same as before the hook existed.
pub trait ExecutorObserver {
    /// Called after each handled event with the clock and the number of
    /// events still pending.
    fn on_event(&mut self, _now: SimTime, _pending: usize) {}

    /// Called once when the run stops, with the full run statistics.
    fn on_run_end(&mut self, _stats: &ExecStats) {}
}

/// The do-nothing observer used by [`Executor::run`].
impl ExecutorObserver for () {}

/// Why [`Executor::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained completely.
    QueueEmpty,
    /// The configured horizon was reached before the queue drained.
    HorizonReached,
    /// The model called [`Scheduler::stop`].
    ModelRequested,
    /// The event budget was exhausted (runaway-model guard).
    EventBudgetExhausted,
}

/// Drives a [`Model`] until the queue drains, a horizon passes, the model
/// stops itself, or an event budget runs out.
///
/// ```
/// use wsn_sim_engine::executor::{Executor, Model, Scheduler, StopReason};
/// use wsn_sim_engine::time::{SimDuration, SimTime};
///
/// struct Counter { ticks: u32 }
/// impl Model for Counter {
///     type Event = ();
///     fn handle(&mut self, _e: (), sched: &mut Scheduler<'_, ()>) {
///         self.ticks += 1;
///         if self.ticks < 5 {
///             sched.schedule_in(SimDuration::from_millis(1), ());
///         }
///     }
/// }
///
/// let mut exec = Executor::new(Counter { ticks: 0 });
/// exec.seed_at(SimTime::ZERO, ());
/// let (reason, end) = exec.run();
/// assert_eq!(reason, StopReason::QueueEmpty);
/// assert_eq!(exec.model().ticks, 5);
/// assert_eq!(end, SimTime::from_millis(4));
/// ```
#[derive(Debug)]
pub struct Executor<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    horizon: SimTime,
    event_budget: u64,
    events_handled: u64,
    last_stats: Option<ExecStats>,
}

impl<M: Model> Executor<M> {
    /// Default guard against runaway models: 2^40 events.
    pub const DEFAULT_EVENT_BUDGET: u64 = 1 << 40;

    /// Creates an executor with an unbounded horizon.
    pub fn new(model: M) -> Self {
        Executor {
            model,
            // Enough heap headroom behind the front slot for every model in
            // the workspace; sized once so steady-state scheduling never
            // reallocates.
            queue: EventQueue::with_capacity(8),
            now: SimTime::ZERO,
            horizon: SimTime::MAX,
            event_budget: Self::DEFAULT_EVENT_BUDGET,
            events_handled: 0,
            last_stats: None,
        }
    }

    /// Sets the latest instant at which events may still fire. Events due
    /// strictly after the horizon are left unprocessed.
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Caps the number of handled events (guards against runaway models).
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Schedules an initial event before the run starts.
    pub fn seed_at(&mut self, at: SimTime, event: M::Event) {
        self.queue.push(at, event);
    }

    /// The model under simulation.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consumes the executor and returns the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// The current clock value (end time after a run).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events handled so far.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Statistics from the most recent [`run`](Self::run) /
    /// [`run_observed`](Self::run_observed) call, if any.
    pub fn last_stats(&self) -> Option<&ExecStats> {
        self.last_stats.as_ref()
    }

    /// Runs to completion; returns why the run stopped and the final clock.
    pub fn run(&mut self) -> (StopReason, SimTime) {
        self.run_observed(&mut ())
    }

    /// Runs to completion while reporting progress to `observer`; returns
    /// why the run stopped and the final clock. Run statistics are also
    /// retained on the executor (see [`last_stats`](Self::last_stats)).
    pub fn run_observed<O: ExecutorObserver>(&mut self, observer: &mut O) -> (StopReason, SimTime) {
        let wall_start = Instant::now();
        let sim_start = self.now;
        let handled_before = self.events_handled;
        let mut stop_requested = false;
        let reason = loop {
            if self.events_handled >= self.event_budget {
                break StopReason::EventBudgetExhausted;
            }
            let Some(next_time) = self.queue.peek_time() else {
                break StopReason::QueueEmpty;
            };
            if next_time > self.horizon {
                // Leave post-horizon events unprocessed; clock stops at the
                // horizon so rate metrics use the intended window length.
                self.now = self.horizon;
                break StopReason::HorizonReached;
            }
            let scheduled = self.queue.pop().expect("peeked event must pop");
            debug_assert!(scheduled.time >= self.now, "event queue went backwards");
            self.now = scheduled.time;
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
                stop_requested: &mut stop_requested,
            };
            self.model.handle(scheduled.event, &mut sched);
            self.events_handled += 1;
            observer.on_event(self.now, self.queue.len());
            if stop_requested {
                break StopReason::ModelRequested;
            }
        };
        let stats = ExecStats {
            events_handled: self.events_handled - handled_before,
            events_scheduled: self.queue.scheduled_total(),
            queue_high_water: self.queue.high_water(),
            sim_elapsed: self.now - sim_start,
            wall_elapsed: wall_start.elapsed(),
        };
        observer.on_run_end(&stats);
        self.last_stats = Some(stats);
        (reason, self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that fires `n` ticks spaced 1 ms apart and records fire times.
    struct Ticker {
        remaining: u32,
        fired_at: Vec<SimTime>,
        stop_at_tick: Option<u32>,
    }

    impl Model for Ticker {
        type Event = u32;
        fn handle(&mut self, id: u32, sched: &mut Scheduler<'_, u32>) {
            self.fired_at.push(sched.now());
            if Some(id) == self.stop_at_tick {
                sched.stop();
                return;
            }
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.schedule_in(SimDuration::from_millis(1), id + 1);
            }
        }
    }

    fn ticker(n: u32) -> Executor<Ticker> {
        let mut exec = Executor::new(Ticker {
            remaining: n,
            fired_at: Vec::new(),
            stop_at_tick: None,
        });
        exec.seed_at(SimTime::ZERO, 0);
        exec
    }

    #[test]
    fn runs_until_queue_empty() {
        let mut exec = ticker(3);
        let (reason, end) = exec.run();
        assert_eq!(reason, StopReason::QueueEmpty);
        assert_eq!(end, SimTime::from_millis(3));
        assert_eq!(exec.model().fired_at.len(), 4);
        assert_eq!(exec.events_handled(), 4);
    }

    #[test]
    fn horizon_cuts_run_short_and_clamps_clock() {
        let mut exec = ticker(100).with_horizon(SimTime::from_millis(5));
        let (reason, end) = exec.run();
        assert_eq!(reason, StopReason::HorizonReached);
        assert_eq!(end, SimTime::from_millis(5));
        // ticks at 0..=5 ms fired; the 6 ms tick did not.
        assert_eq!(exec.model().fired_at.len(), 6);
    }

    #[test]
    fn model_can_stop_itself() {
        let mut exec = Executor::new(Ticker {
            remaining: 100,
            fired_at: Vec::new(),
            stop_at_tick: Some(2),
        });
        exec.seed_at(SimTime::ZERO, 0);
        let (reason, end) = exec.run();
        assert_eq!(reason, StopReason::ModelRequested);
        assert_eq!(end, SimTime::from_millis(2));
    }

    #[test]
    fn event_budget_guards_runaway() {
        let mut exec = ticker(1_000_000).with_event_budget(10);
        let (reason, _) = exec.run();
        assert_eq!(reason, StopReason::EventBudgetExhausted);
        assert_eq!(exec.events_handled(), 10);
    }

    #[test]
    fn clock_is_monotone() {
        let mut exec = ticker(50);
        exec.run();
        let times = &exec.model().fired_at;
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Observer that counts callbacks and tracks the reported high water.
    #[derive(Default)]
    struct Probe {
        events_seen: u64,
        max_pending: usize,
        run_ends: u32,
        final_stats: Option<ExecStats>,
    }

    impl ExecutorObserver for Probe {
        fn on_event(&mut self, _now: SimTime, pending: usize) {
            self.events_seen += 1;
            self.max_pending = self.max_pending.max(pending);
        }
        fn on_run_end(&mut self, stats: &ExecStats) {
            self.run_ends += 1;
            self.final_stats = Some(*stats);
        }
    }

    #[test]
    fn observer_sees_every_event_and_final_stats() {
        let mut exec = ticker(9);
        let mut probe = Probe::default();
        let (reason, end) = exec.run_observed(&mut probe);
        assert_eq!(reason, StopReason::QueueEmpty);
        assert_eq!(probe.events_seen, 10);
        assert_eq!(probe.run_ends, 1);
        let stats = probe.final_stats.expect("run end reported");
        assert_eq!(stats.events_handled, 10);
        assert_eq!(stats.events_scheduled, 10);
        assert_eq!(stats.sim_elapsed, end - SimTime::ZERO);
        assert!(stats.sim_wall_ratio() > 0.0);
        assert_eq!(exec.last_stats(), Some(&stats));
    }

    #[test]
    fn observer_queue_high_water_tracks_pending_events() {
        // Seed 7 simultaneous events; while handling the first, 6 remain
        // pending, so the high-water mark must be at least 6.
        let mut exec = Executor::new(Ticker {
            remaining: 0,
            fired_at: Vec::new(),
            stop_at_tick: None,
        });
        for i in 0..7 {
            exec.seed_at(SimTime::ZERO, i);
        }
        let mut probe = Probe::default();
        exec.run_observed(&mut probe);
        assert_eq!(probe.max_pending, 6);
        assert_eq!(probe.final_stats.unwrap().queue_high_water, 7);
    }

    #[test]
    fn plain_run_records_stats_too() {
        let mut exec = ticker(3);
        assert!(exec.last_stats().is_none());
        exec.run();
        let stats = exec.last_stats().expect("stats retained");
        assert_eq!(stats.events_handled, 4);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, _e: (), sched: &mut Scheduler<'_, ()>) {
                sched.schedule_at(SimTime::ZERO, ());
            }
        }
        let mut exec = Executor::new(Bad);
        exec.seed_at(SimTime::from_millis(1), ());
        exec.run();
    }
}
