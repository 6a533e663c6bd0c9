//! Streaming consumers of campaign results.
//!
//! A grid campaign produces one [`ConfigResult`] per configuration — up to
//! 48,384 for the paper's full grid. A [`CampaignSink`] receives each
//! result **in configuration order** as workers finish, so consumers
//! (progress lines, JSONL shard writers, collectors) never need the whole
//! result set in memory. The runner guarantees in-order delivery with a
//! bounded reorder buffer: at most `2 × threads` claims of `chunk`
//! configurations each are ever pending, on every engine (see
//! [`Campaign::run_streamed`](crate::campaign::Campaign::run_streamed)).

use std::io::Write;
use std::time::Instant;

use crate::campaign::ConfigResult;

/// An in-order streaming consumer of campaign results.
pub trait CampaignSink {
    /// Consumes the result for the configuration at `index`. Called exactly
    /// once per configuration, in strictly increasing index order.
    fn on_result(&mut self, index: usize, result: &ConfigResult);

    /// Called once after the last result.
    fn on_complete(&mut self, _total: usize) {}
}

impl<S: CampaignSink + ?Sized> CampaignSink for &mut S {
    fn on_result(&mut self, index: usize, result: &ConfigResult) {
        (**self).on_result(index, result);
    }
    fn on_complete(&mut self, total: usize) {
        (**self).on_complete(total);
    }
}

/// Adapts a closure into a sink: `SinkFn::new(|index, result| { … })`.
#[derive(Debug)]
pub struct SinkFn<F: FnMut(usize, &ConfigResult)>(F);

impl<F: FnMut(usize, &ConfigResult)> SinkFn<F> {
    /// Wraps `f` as a sink.
    pub fn new(f: F) -> Self {
        SinkFn(f)
    }
}

impl<F: FnMut(usize, &ConfigResult)> CampaignSink for SinkFn<F> {
    fn on_result(&mut self, index: usize, result: &ConfigResult) {
        (self.0)(index, result);
    }
}

/// Collects results in memory, in configuration order — the compatibility
/// sink behind [`Campaign::run_configs`](crate::campaign::Campaign::run_configs).
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    results: Vec<ConfigResult>,
}

impl CollectSink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The results collected so far.
    pub fn results(&self) -> &[ConfigResult] {
        &self.results
    }

    /// Consumes the sink, returning the ordered results.
    pub fn into_results(self) -> Vec<ConfigResult> {
        self.results
    }
}

impl CampaignSink for CollectSink {
    fn on_result(&mut self, index: usize, result: &ConfigResult) {
        debug_assert_eq!(index, self.results.len(), "delivery must be in order");
        self.results.push(result.clone());
    }
}

/// Statistics of one streaming run, for observability and memory-bound
/// assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Results delivered to the sink.
    pub delivered: usize,
    /// Largest number of finished-but-undelivered results ever held in the
    /// reorder buffer. Bounded by the runner's claim-ahead window of
    /// `2 × threads` claims of `chunk` configurations (1 on golden, 64 on
    /// fast and analytic), independent of grid size.
    pub max_pending: usize,
}

/// Decorator sink that writes a live progress line (rate + ETA) while
/// forwarding every result to an inner sink.
///
/// Progress is printed at most once per `report_every` results, so the
/// overhead is negligible even for fast Bench-scale configs.
pub struct ProgressSink<S, W: Write> {
    inner: S,
    out: W,
    total: usize,
    done: usize,
    report_every: usize,
    started: Instant,
}

impl<S: CampaignSink, W: Write> ProgressSink<S, W> {
    /// Wraps `inner`, reporting progress over `total` configurations to
    /// `out` every `report_every` results (clamped to ≥ 1).
    pub fn new(inner: S, out: W, total: usize, report_every: usize) -> Self {
        ProgressSink {
            inner,
            out,
            total,
            done: 0,
            report_every: report_every.max(1),
            started: Instant::now(),
        }
    }

    /// Consumes the decorator, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn print_line(&mut self, last: bool) {
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            self.done as f64 / elapsed
        } else {
            0.0
        };
        let remaining = self.total.saturating_sub(self.done);
        let eta_s = if rate > 0.0 {
            remaining as f64 / rate
        } else {
            0.0
        };
        let end = if last { '\n' } else { '\r' };
        let _ = write!(
            self.out,
            "config {}/{} ({rate:.1}/s, ETA {:02}:{:02}){end}",
            self.done,
            self.total,
            (eta_s as u64) / 60,
            (eta_s as u64) % 60,
        );
        let _ = self.out.flush();
    }
}

impl<S: CampaignSink, W: Write> CampaignSink for ProgressSink<S, W> {
    fn on_result(&mut self, index: usize, result: &ConfigResult) {
        self.inner.on_result(index, result);
        self.done += 1;
        if self.done.is_multiple_of(self.report_every) {
            self.print_line(false);
        }
    }

    fn on_complete(&mut self, total: usize) {
        self.print_line(true);
        self.inner.on_complete(total);
    }
}

/// Decorator sink that emits structured `campaign_progress` JSONL events
/// through a [`wsn_obs::log::EventLog`] while forwarding every result to
/// an inner sink — the machine-readable sibling of [`ProgressSink`]'s
/// terminal line, sharing one log file (and one event vocabulary) with
/// the serve access log and the shard runner.
pub struct EventLogSink<'a, S> {
    inner: S,
    log: &'a wsn_obs::log::EventLog,
    total: usize,
    done: usize,
    report_every: usize,
    started: Instant,
}

impl<'a, S: CampaignSink> EventLogSink<'a, S> {
    /// Wraps `inner`, logging progress over `total` configurations every
    /// `report_every` results (clamped to ≥ 1).
    pub fn new(
        inner: S,
        log: &'a wsn_obs::log::EventLog,
        total: usize,
        report_every: usize,
    ) -> Self {
        EventLogSink {
            inner,
            log,
            total,
            done: 0,
            report_every: report_every.max(1),
            started: Instant::now(),
        }
    }

    /// Consumes the decorator, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn emit(&self, event: &str) {
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            self.done as f64 / elapsed
        } else {
            0.0
        };
        self.log
            .info(event)
            .u64("done", self.done as u64)
            .u64("total", self.total as u64)
            .f64("rate_per_s", rate)
            .f64("elapsed_s", elapsed)
            .emit();
    }
}

impl<S: CampaignSink> CampaignSink for EventLogSink<'_, S> {
    fn on_result(&mut self, index: usize, result: &ConfigResult) {
        self.inner.on_result(index, result);
        self.done += 1;
        if self.done.is_multiple_of(self.report_every) {
            self.emit("campaign_progress");
        }
    }

    fn on_complete(&mut self, total: usize) {
        self.emit("campaign_complete");
        self.inner.on_complete(total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, Scale};
    use wsn_params::config::StackConfig;

    fn result() -> ConfigResult {
        Campaign {
            packets: 30,
            threads: 1,
            ..Campaign::new(Scale::Bench)
        }
        .run_one(StackConfig::default(), 0)
    }

    #[test]
    fn collect_sink_preserves_order() {
        let r = result();
        let mut sink = CollectSink::new();
        sink.on_result(0, &r);
        sink.on_result(1, &r);
        assert_eq!(sink.results().len(), 2);
        assert_eq!(sink.into_results().len(), 2);
    }

    #[test]
    fn closure_is_a_sink() {
        let r = result();
        let mut seen = Vec::new();
        {
            let mut sink = SinkFn::new(|index: usize, _r: &ConfigResult| seen.push(index));
            sink.on_result(0, &r);
            sink.on_result(1, &r);
        }
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn event_log_sink_emits_progress_and_completion() {
        use std::io;
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl io::Write for Buf {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let r = result();
        let buf = Buf::default();
        let log =
            wsn_obs::log::EventLog::to_writer(Box::new(buf.clone()), wsn_obs::log::Level::Info);
        let mut sink = EventLogSink::new(CollectSink::new(), &log, 4, 2);
        for i in 0..4 {
            sink.on_result(i, &r);
        }
        sink.on_complete(4);
        assert_eq!(sink.into_inner().into_results().len(), 4);

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let progress_lines = text
            .lines()
            .filter(|l| l.contains("\"event\":\"campaign_progress\""))
            .count();
        assert_eq!(progress_lines, 2, "every 2nd of 4 results: {text}");
        assert!(text.contains("\"event\":\"campaign_complete\""), "{text}");
        assert!(text.contains("\"done\":4,\"total\":4"), "{text}");
    }

    #[test]
    fn progress_sink_reports_rate_and_eta() {
        let r = result();
        let mut sink = ProgressSink::new(CollectSink::new(), Vec::new(), 3, 1);
        sink.on_result(0, &r);
        sink.on_result(1, &r);
        sink.on_result(2, &r);
        sink.on_complete(3);
        let text = String::from_utf8(std::mem::take(&mut sink.out)).unwrap();
        assert!(text.contains("config 3/3"), "got: {text}");
        assert!(text.contains("ETA"), "got: {text}");
        assert_eq!(sink.into_inner().into_results().len(), 3);
    }
}
