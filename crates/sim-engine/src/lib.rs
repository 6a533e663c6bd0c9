//! # wsn-sim-engine
//!
//! A small, deterministic discrete-event simulation engine.
//!
//! This crate is the execution substrate for the WSN link simulator used to
//! reproduce *"Experimental Study for Multi-layer Parameter Configuration of
//! WSN Links"* (Fu et al., ICDCS 2015). It provides:
//!
//! * [`time`] — microsecond-resolution [`SimTime`](time::SimTime) /
//!   [`SimDuration`](time::SimDuration) newtypes,
//! * [`event`] — a time-ordered [`EventQueue`](event::EventQueue) with
//!   deterministic FIFO tie-breaking,
//! * [`executor`] — the [`Model`](executor::Model) trait and
//!   [`Executor`](executor::Executor) run loop with horizon and event-budget
//!   stop conditions,
//! * [`rng`] — named deterministic random streams
//!   ([`RngFactory`](rng::RngFactory)) so that each stochastic subsystem of a
//!   simulation draws from an independent, reproducible sequence.
//!
//! ## Example
//!
//! ```
//! use wsn_sim_engine::prelude::*;
//!
//! /// A Poisson-ish arrival process that counts arrivals in 1 second.
//! struct Arrivals { count: u64 }
//!
//! impl Model for Arrivals {
//!     type Event = ();
//!     fn handle(&mut self, _: (), sched: &mut Scheduler<'_, ()>) {
//!         self.count += 1;
//!         sched.schedule_in(SimDuration::from_millis(10), ());
//!     }
//! }
//!
//! let mut exec = Executor::new(Arrivals { count: 0 })
//!     .with_horizon(SimTime::from_secs(1));
//! exec.seed_at(SimTime::ZERO, ());
//! let (reason, _) = exec.run();
//! assert_eq!(reason, StopReason::HorizonReached);
//! assert_eq!(exec.model().count, 101); // t = 0, 10ms, ..., 1000ms
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod executor;
pub mod mode;
pub mod obs;
pub mod rng;
pub mod time;

/// Convenient glob-import of the engine's core types.
pub mod prelude {
    pub use crate::event::EventQueue;
    pub use crate::executor::{
        ExecStats, Executor, ExecutorObserver, Model, Scheduler, StopReason,
    };
    pub use crate::mode::EngineMode;
    pub use crate::rng::{FactoryStream, FastRng, NormalSampler, RngFactory, StreamId};
    pub use crate::time::{SimDuration, SimTime};
}
