//! # wsn-obs
//!
//! Structured observability for the serving and campaign layers, std-only
//! and dependency-free so every crate in the workspace can afford it:
//!
//! * [`log`] — a leveled JSONL event log: one self-describing JSON object
//!   per line, written atomically under a single writer lock, with a
//!   zero-cost disabled mode (no formatting happens when no writer is
//!   attached).
//! * [`trace`] — per-request trace ids: 64-bit, rendered as 16 hex chars,
//!   generated lock-free from a splitmix64 sequence so ids are unique
//!   within a process and well-mixed across shards/threads.
//! * [`metrics`] — a registry of named [`Counter`]s,
//!   [`Gauge`]s, and histograms, every one a relaxed
//!   atomic — recording never takes a lock.
//! * [`hist`] — the [`LogLinearHistogram`]:
//!   log₂ octaves split into 8 linear sub-buckets with interpolated
//!   quantiles, bounding relative quantile error at ~12.5 % where a plain
//!   power-of-two histogram is off by up to 2×.
//! * [`span`] — RAII timers that record their elapsed microseconds into a
//!   histogram when dropped (or explicitly finished).
//!
//! The crate deliberately has **no dependencies**: JSON strings are
//! escaped by hand (`log::escape_json`), timestamps come from
//! `SystemTime`, and everything else is atomics. That keeps it usable
//! from the innermost simulation crates without dragging serde into them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod log;
pub mod metrics;
pub mod span;
pub mod trace;

pub use hist::LogLinearHistogram;
pub use log::{EventLog, Level};
pub use metrics::{Counter, Gauge, Registry};
pub use span::Span;
pub use trace::{TraceId, TraceIdGen};
