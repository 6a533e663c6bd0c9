//! `wsnbench`: the end-to-end and per-layer benchmark of the serve stack
//! and the characterisation sweep.
//!
//! ```text
//! wsnbench --workload <serve-hot|serve-cold|sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` one workload runs untraced and the last line of
//! standard output is a JSON object with its end-to-end metrics. With
//! `--trace 1` each workload's inputs are replayed call by call with a
//! span around every layer (the named workload for `--seconds`, the
//! others briefly), and the JSON carries the per-layer metrics. See
//! `README.md` beside this crate.

use std::borrow::Cow;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

mod serve;
mod stats;
mod sweep;
mod trace;

use stats::Samples;
use trace::Tracer;

/// The workloads, in the order the traced run reports them.
const WORKLOADS: [&str; 3] = ["serve-hot", "serve-cold", "sweep"];

/// How long the traced run replays each workload other than the named
/// one, seconds (half untraced, half traced).
const SIDE_SECONDS: f64 = 2.0;

/// Independent set-ups per untraced run; `setup_s` is their median. The
/// first one prepares the timed phase; the others run after it (and
/// after the peak-RSS reading, so repeating set-ups cannot move the
/// memory figure) and are torn down at once.
pub const SETUPS: usize = 7;

/// Width of the throughput windows, seconds: `answers_per_s` is the
/// median rate over the timed phase's windows.
pub const WINDOW_S: f64 = 0.1;

/// Runs `setup` once, recording its wall time in `samples`.
pub fn time_setup<T>(samples: &mut Samples, setup: impl FnOnce() -> T) -> T {
    let t0 = std::time::Instant::now();
    let out = setup();
    samples.push(t0.elapsed().as_secs_f64());
    out
}

/// What an untraced workload run measured.
pub struct Measured {
    /// Wall time of each independent set-up, seconds.
    pub setup_s: Samples,
    /// Peak resident set at the end of the timed phase, MiB.
    pub peak_rss_mb: f64,
    /// Median rate of passing operations over the timed phase's windows.
    pub answers_per_s: f64,
    /// Operations whose output check passed.
    pub ok: u64,
    /// Operations timed.
    pub attempted: u64,
    /// Operations that failed or failed their check.
    pub failed: u64,
    /// Length of the timed phase.
    pub elapsed: Duration,
    /// Per-operation time of every passing operation, µs.
    pub op_us: Samples,
    /// Failed whole-run checks.
    pub checks: Vec<String>,
}

/// One named, unit-tagged value.
pub struct Metric {
    name: Cow<'static, str>,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric with a fixed name.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: Cow::Borrowed(name),
            value,
            unit,
        }
    }

    /// A metric with a built name.
    pub fn owned(name: String, value: f64, unit: &'static str) -> Self {
        Metric {
            name: Cow::Owned(name),
            value,
            unit,
        }
    }
}

/// What a traced replay of one workload measured.
pub struct TraceReport {
    /// Workload name.
    pub workload: &'static str,
    /// The recorded spans.
    pub tracer: Tracer,
    /// Wall time of the traced phase.
    pub wall: Duration,
    /// Operations replayed under tracing.
    pub done: u64,
    /// Untraced answers per second, measured in the same process.
    pub untraced_aps: f64,
    /// Operations (traced or untraced) that failed their check.
    pub failed: u64,
    /// This workload's per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Extra lines for the report.
    pub notes: Vec<String>,
}

impl TraceReport {
    /// Prints the self-time table and returns every per-layer metric:
    /// the workload's own, one `share.<workload>.<layer>` per layer (the
    /// unattributed remainder included) and the tracing slowdown.
    fn finish(mut self) -> Vec<Metric> {
        let wall_ns = self.wall.as_nanos() as u64;
        let traced_aps = self.done as f64 / self.wall.as_secs_f64();
        println!(
            "== {} traced: {} operations in {:.3} s",
            self.workload,
            self.done,
            self.wall.as_secs_f64()
        );
        println!(
            "   {:<34} {:>8} {:>12} {:>8}",
            "layer", "self %", "p50 ns", "spans"
        );
        let shares = self.tracer.shares(wall_ns);
        for (name, share) in &shares {
            let (p50, n) = match self.tracer.layers().get_mut(name.as_str()) {
                Some(l) => (l.durations.median(), l.durations.len()),
                None => (f64::NAN, 0),
            };
            println!("   {name:<34} {:>8.2} {p50:>12.0} {n:>8}", share * 100.0);
        }
        for m in &self.metrics {
            println!("   {:<34} {:.4} {}", m.name, m.value, m.unit);
        }
        let slowdown = self.untraced_aps / traced_aps;
        println!(
            "   tracing overhead: untraced {:.1} answers/s, traced {traced_aps:.1} answers/s ({slowdown:.2}x)",
            self.untraced_aps
        );
        for note in &self.notes {
            println!("   {note}");
        }
        let path = Path::new(".wsnbench_trace").join(format!("{}.jsonl", self.workload));
        match self.tracer.write(&path) {
            Ok(()) => println!("   spans written to {}", path.display()),
            Err(e) => println!("   spans not written: {e}"),
        }
        let mut out = self.metrics;
        for (layer, share) in shares {
            out.push(Metric::owned(
                format!("share.{}.{layer}", self.workload),
                share,
                "ratio",
            ));
        }
        out.push(Metric::owned(
            format!("trace.{}.slowdown", self.workload),
            slowdown,
            "x",
        ));
        out
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"value":{:?},"unit":"{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        body.join(",")
    )
}

fn run_untraced(args: &Args) -> (bool, u64, u64, Vec<Metric>) {
    let mut m = match args.workload.as_str() {
        "serve-hot" => serve::serve_hot(args.seed, args.seconds),
        "serve-cold" => serve::serve_cold(args.seed, args.seconds),
        _ => sweep::sweep(args.seed, args.seconds),
    };
    let op = if args.workload == "sweep" {
        "sweep.config"
    } else {
        "client"
    };
    // The tail is a diagnostic: it does not repeat from run to run.
    println!(
        "{op}.p99_us {:.2} (n={}; p50 {:.2})",
        m.op_us.quantile(0.99),
        m.op_us.len(),
        m.op_us.median()
    );
    println!("setup_s each {:?}", m.setup_s.as_slice());
    println!(
        "mean rate {:.1} answers/s ({} in {:.3} s); median window rate {:.1}",
        m.ok as f64 / m.elapsed.as_secs_f64(),
        m.ok,
        m.elapsed.as_secs_f64(),
        m.answers_per_s
    );
    for check in &m.checks {
        println!("CHECK FAILED: {check}");
    }
    let metrics = vec![
        Metric::new("setup_s", m.setup_s.median(), "s"),
        Metric::new("answers_per_s", m.answers_per_s, "1/s"),
        Metric::new("p50_us", m.op_us.median(), "us"),
        Metric::new("peak_rss_mb", m.peak_rss_mb, "MiB"),
    ];
    let correct = m.failed == 0 && m.checks.is_empty() && m.attempted > 0;
    (correct, m.attempted.max(1), m.failed, metrics)
}

fn run_traced(args: &Args) -> (bool, u64, u64, Vec<Metric>) {
    let seconds = |w: &str| {
        if w == args.workload {
            args.seconds
        } else {
            SIDE_SECONDS
        }
    };
    let reports = [
        serve::trace_hot(args.seed, seconds("serve-hot")),
        serve::trace_cold(args.seed, seconds("serve-cold")),
        sweep::trace_sweep(args.seed, seconds("sweep")),
    ];
    let attempted: u64 = reports.iter().map(|r| r.done).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let metrics: Vec<Metric> = reports.into_iter().flat_map(TraceReport::finish).collect();
    (failed == 0, attempted.max(1), failed, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wsnbench: {e}");
            eprintln!(
                "usage: wsnbench --workload <serve-hot|serve-cold|sweep> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let (mut correct, attempted, failed, metrics) = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            println!("CHECK FAILED: metric {} is {}", m.name, m.value);
            correct = false;
        }
    }
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { -1.0 },
            ..m
        })
        .collect();
    println!("{}", result_json(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
