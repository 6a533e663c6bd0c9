//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro all [--full] [--out DIR]     run every experiment
//! repro <id> [...]                   run selected experiments (fig06 table04 …)
//! repro list                         list experiment ids
//! repro campaign [--full] [--engine golden|fast|analytic] [--out DIR [--resume]]
//!                [--shards N] [--log PATH]
//!                                    run the whole ~48k-configuration grid,
//!                                    streaming results + live progress;
//!                                    --engine fast swaps in the
//!                                    statistically-equivalent coalesced
//!                                    engine (~an order of magnitude faster;
//!                                    not bit-comparable to golden runs);
//!                                    --engine analytic swaps in the seed-free
//!                                    M/G/1 closed form (microseconds per
//!                                    configuration; an approximation, not a
//!                                    sampler — see DESIGN.md §13);
//!                                    with --out, checkpoint JSONL shards;
//!                                    with --log, append structured JSONL
//!                                    progress/checkpoint events to PATH
//! repro scenario [ID...]             run multi-link shared-channel scenarios
//!                                    (all of them when no ID is given;
//!                                    `repro scenario list` lists ids)
//! repro timeline <SCENARIO> <TIMELINE> [--engine golden|fast] [--log PATH]
//!                                    replay a topology timeline over a
//!                                    catalog scenario with per-epoch link
//!                                    metrics (TIMELINE is a builtin id —
//!                                    `repro timeline list` — or a JSON
//!                                    file holding a ScenarioTimeline;
//!                                    --log streams one structured epoch
//!                                    event per snapshot)
//! repro serve [--addr HOST:PORT] [--threads N] [--access-log PATH] [--slow-ms N]
//!             [--store DIR]
//!             [--warm-from-campaign DIR [--warm-engine E] [--warm-packets N]]
//!                                    start the JSON-lines query service
//!                                    (docs/SERVE.md; port 0 picks a free port;
//!                                    --access-log appends one JSONL record per
//!                                    request, --slow-ms sets the slow-request
//!                                    warning threshold, 0 disables it; --store
//!                                    persists the result cache across restarts;
//!                                    --warm-from-campaign seeds the cache from
//!                                    a sharded campaign checkpoint directory)
//! repro loadgen [--duration SECS] [--connections N] [--senders N] [--rate RPS]
//!               [--arrivals poisson|fixed] [--addr HOST:PORT] [--json PATH]
//!               [--label STR]
//!                                    open-loop load benchmark of the query
//!                                    service: spawns one `repro serve` (or
//!                                    targets --addr), parks idle
//!                                    connections, calibrates capacity, then
//!                                    drives 1x/2x/4x phases and reports
//!                                    QPS/p50/p99/p999 + error/deadline rates
//!                                    (BENCH_serve.json with --json)
//! repro dataset --out DIR [--full]   export a per-packet trace (paper-style dataset)
//! repro verify [--full]              re-check every quantitative claim (PASS/FAIL)
//! repro bench [--json PATH] [--quick-bench]
//!                                    measure campaign + multi-link scenario
//!                                    throughput (BENCH_campaign.json)
//! ```
//!
//! `--full` switches from the quick scale (400 packets/config) to the
//! paper's protocol (4500 packets/config). `--out DIR` additionally writes
//! `<id>.txt`, `<id>.csv` and `<id>.json` into DIR.
//!
//! A sharded campaign (`--out DIR --shards N`) writes `shard-NNNN.jsonl`
//! files; re-running with `--resume` skips already-completed shards, so a
//! killed multi-hour grid loses at most one shard of work.
//!
//! Every failure path funnels through one [`CliError`] enum, so the exit
//! code mapping lives in exactly one place: `0` success, `1` generic
//! failure (bad flags, failed verify claims, malformed timeline files),
//! `2` unknown experiment, scenario, or timeline id, `3` I/O error
//! (including an unreadable timeline file), `4` query-service failure
//! (bind error or a fatal socket error in the accept loop).

use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use wsn_experiments::campaign::{Campaign, ConfigResult, Scale};
use wsn_experiments::dynamics::TimelineError;
use wsn_experiments::loadgen::{Arrivals, LoadgenOptions};
use wsn_experiments::report::Report;
use wsn_experiments::shards::{read_shard_dir, run_sharded_logged};
use wsn_experiments::stream::{EventLogSink, ProgressSink, SinkFn};
use wsn_experiments::{all_experiments, run_experiment};
use wsn_obs::log::EventLog;
use wsn_params::config::StackConfig;
use wsn_params::grid::ParamGrid;
use wsn_serve::{ServeError, Server, ServerConfig};
use wsn_sim_engine::mode::EngineMode;

/// Everything that can end a `repro` invocation unsuccessfully, with the
/// exit-code policy in one match.
#[derive(Debug)]
enum CliError {
    /// Bad flags or arguments; the message is followed by usage text.
    Usage(String),
    /// A run that completed but failed (e.g. verify claims).
    Failure(String),
    /// Unknown experiment or scenario id.
    UnknownId(String),
    /// Filesystem failure while writing or reading results.
    Io(String),
    /// The query service could not bind or its socket died.
    Serve(ServeError),
}

impl CliError {
    /// The documented exit code for this failure class.
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) | CliError::Failure(_) => 1,
            CliError::UnknownId(_) => 2,
            CliError::Io(_) => 3,
            CliError::Serve(_) => 4,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}\n{}", usage()),
            CliError::Failure(msg) => write!(f, "{msg}"),
            CliError::UnknownId(msg) => write!(f, "{msg}"),
            CliError::Io(msg) => write!(f, "{msg}"),
            CliError::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> Self {
        CliError::Serve(e)
    }
}

fn usage() -> String {
    let ids: Vec<&str> = all_experiments().iter().map(|(n, _)| *n).collect();
    let scenario_ids: Vec<&str> = wsn_experiments::scenarios::all_scenarios()
        .iter()
        .map(|(n, _)| *n)
        .collect();
    let timeline_ids: Vec<&str> = wsn_link_sim::catalog::all_timelines()
        .iter()
        .map(|(n, _)| *n)
        .collect();
    format!(
        "usage: repro <all|list|campaign|scenario|timeline|serve|loadgen|verify|dataset|bench|ID...> \
         [--full] [--engine golden|fast|analytic] [--out DIR] [--resume] [--shards N] \
         [--log PATH] [--json PATH] [--quick-bench] [--addr HOST:PORT] [--threads N] \
         [--access-log PATH] [--slow-ms N] [--store DIR] \
         [--warm-from-campaign DIR] [--warm-engine golden|fast|analytic] [--warm-packets N] \
         [--duration SECS] [--connections N] [--senders N] [--rate RPS] \
         [--arrivals poisson|fixed] [--label STR]\n  \
         ids: {}\n  scenario ids: {}\n  timeline ids: {} (or a ScenarioTimeline JSON file)\n  \
         exit codes: 0 ok, 1 failure, 2 unknown id, 3 I/O error, 4 serve error",
        ids.join(", "),
        scenario_ids.join(", "),
        timeline_ids.join(", ")
    )
}

fn write_outputs(dir: &PathBuf, report: &Report) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{}.txt", report.id)), report.render())?;
    let mut csv = String::new();
    for section in &report.sections {
        csv.push_str(&format!("# {}\n", section.heading));
        csv.push_str(&section.table.to_csv());
    }
    std::fs::write(dir.join(format!("{}.csv", report.id)), csv)?;
    let json = serde_json::to_string_pretty(report).expect("reports serialize");
    std::fs::write(dir.join(format!("{}.json", report.id)), json)?;
    Ok(())
}

/// Running tallies for the campaign summary, folded one result at a time so
/// the grid never has to be collected in memory.
#[derive(Default)]
struct GridSummary {
    count: usize,
    generated: u64,
    delivered: u64,
    plr_sum: f64,
}

impl GridSummary {
    fn add(&mut self, result: &ConfigResult) {
        self.count += 1;
        self.generated += result.metrics.generated;
        self.delivered += result.metrics.delivered;
        self.plr_sum += result.metrics.plr_total();
    }

    fn print(&self, elapsed_s: f64) {
        println!("configurations: {}", self.count);
        println!(
            "packets generated: {}, delivered: {}",
            self.generated, self.delivered
        );
        println!(
            "mean total loss rate across the grid: {:.4}",
            self.plr_sum / self.count.max(1) as f64
        );
        println!("wall-clock: {elapsed_s:.1}s");
    }
}

fn run_campaign(
    scale: Scale,
    engine: EngineMode,
    out: Option<&Path>,
    resume: bool,
    shards: usize,
    log: &EventLog,
) -> Result<(), CliError> {
    let grid = ParamGrid::paper();
    eprintln!(
        "running the full Table I grid: {} configurations × {} packets ({} engine) …",
        grid.len(),
        scale.packets(),
        engine.name()
    );
    let campaign = Campaign::new(scale).with_engine(engine);
    let start = Instant::now();

    if let Some(dir) = out {
        if !resume {
            // A fresh run must not silently absorb stale checkpoints.
            if dir.exists() && dir.join("shard-0000.jsonl").exists() {
                return Err(CliError::Failure(format!(
                    "{} already holds shard files; pass --resume to continue that run \
                     or choose a fresh directory",
                    dir.display()
                )));
            }
        }
        let configs: Vec<StackConfig> = grid.iter().collect();
        let report = run_sharded_logged(&campaign, &configs, dir, shards, log)
            .map_err(|e| CliError::Io(format!("sharded campaign failed: {e}")))?;
        eprintln!(
            "shards: {} total, {} resumed from checkpoint, {} configs simulated",
            report.shards_total, report.shards_skipped, report.configs_simulated
        );
        let results = read_shard_dir(dir)
            .map_err(|e| CliError::Io(format!("cannot read completed shards back: {e}")))?;
        let mut summary = GridSummary::default();
        for r in &results {
            summary.add(r);
        }
        summary.print(start.elapsed().as_secs_f64());
        println!("shard files: {}", dir.display());
        return Ok(());
    }

    // No output directory: stream results straight into the running
    // summary with a live progress line — peak memory stays O(threads).
    let mut summary = GridSummary::default();
    let configs: Vec<StackConfig> = grid.iter().collect();
    {
        let every = (configs.len() / 100).max(1);
        let tally = SinkFn::new(|_i: usize, r: &ConfigResult| summary.add(r));
        let logged = EventLogSink::new(tally, log, configs.len(), every);
        let mut progress = ProgressSink::new(logged, std::io::stderr(), configs.len(), every);
        campaign.run_streamed(&configs, &mut progress);
    }
    summary.print(start.elapsed().as_secs_f64());
    Ok(())
}

/// `repro scenario [ID...]`: runs the named multi-link scenarios (all of
/// them when none is given; `list` prints the catalogue).
fn run_scenarios(
    requested: &[String],
    scale: Scale,
    out_dir: Option<&Path>,
) -> Result<(), CliError> {
    if requested.iter().any(|s| s == "list") {
        for (id, description) in wsn_experiments::scenarios::all_scenarios() {
            println!("{id}: {description}");
        }
        return Ok(());
    }
    let ids: Vec<String> = if requested.is_empty() {
        wsn_experiments::scenarios::all_scenarios()
            .iter()
            .map(|(n, _)| n.to_string())
            .collect()
    } else {
        requested.to_vec()
    };
    for id in &ids {
        let start = Instant::now();
        let report =
            wsn_experiments::scenarios::run_scenario(id, scale).map_err(CliError::UnknownId)?;
        print!("{}", report.render());
        println!(
            "[scenario {} completed in {:.1}s]\n",
            id,
            start.elapsed().as_secs_f64()
        );
        if let Some(dir) = out_dir {
            write_outputs(&dir.to_path_buf(), &report).map_err(|e| {
                CliError::Io(format!("failed to write outputs for scenario {id}: {e}"))
            })?;
        }
        let _ = std::io::stdout().flush();
    }
    Ok(())
}

/// `repro timeline <SCENARIO> <TIMELINE>`: replays a builtin or
/// file-provided topology timeline over a catalog scenario, with one
/// structured `epoch` obs event per snapshot when `--log` is given.
fn run_timeline(
    args: &[String],
    scale: Scale,
    engine: EngineMode,
    out_dir: Option<&Path>,
    log_path: Option<&Path>,
) -> Result<(), CliError> {
    if args.iter().any(|s| s == "list") {
        for (id, description) in wsn_link_sim::catalog::all_timelines() {
            println!("{id}: {description}");
        }
        return Ok(());
    }
    let [scenario_id, timeline_arg] = args else {
        return Err(CliError::Usage(
            "timeline needs exactly <SCENARIO> <TIMELINE> (or `timeline list`)".into(),
        ));
    };
    let log = match log_path {
        Some(path) => EventLog::to_file(path)
            .map_err(|e| CliError::Io(format!("cannot open {}: {e}", path.display())))?,
        None => EventLog::disabled(),
    };
    let start = Instant::now();
    let report =
        wsn_experiments::dynamics::run_timeline(scenario_id, timeline_arg, scale, engine, &log)
            .map_err(|e| match e {
                TimelineError::UnknownScenario(msg) | TimelineError::UnknownTimeline(msg) => {
                    CliError::UnknownId(msg)
                }
                TimelineError::Io(msg) => CliError::Io(msg),
                TimelineError::Invalid(msg) => CliError::Failure(msg),
            })?;
    print!("{}", report.render());
    println!(
        "[timeline {} + {} completed in {:.1}s]\n",
        scenario_id,
        timeline_arg,
        start.elapsed().as_secs_f64()
    );
    if let Some(dir) = out_dir {
        write_outputs(&dir.to_path_buf(), &report)
            .map_err(|e| CliError::Io(format!("failed to write timeline outputs: {e}")))?;
    }
    let _ = std::io::stdout().flush();
    Ok(())
}

/// `repro serve`: binds the query service and runs it until a client sends
/// `shutdown`. Prints the resolved address first so callers that bound
/// port 0 can discover the real port.
#[allow(clippy::too_many_arguments)]
fn run_serve(
    addr: String,
    threads: usize,
    access_log: Option<PathBuf>,
    slow_request_ms: u64,
    store: Option<PathBuf>,
    warm_from: Option<PathBuf>,
    warm_engine: EngineMode,
    warm_packets: u64,
) -> Result<(), CliError> {
    let server = Server::bind(ServerConfig {
        addr,
        threads,
        access_log,
        slow_request_ms,
        store,
        ..ServerConfig::default()
    })?;
    if let Some(dir) = &warm_from {
        let entries = wsn_experiments::shards::serve_warm_entries(dir, warm_engine, warm_packets)
            .map_err(CliError::Failure)?;
        let installed = server
            .warm(entries)
            .map_err(|e| CliError::Io(format!("cache warm-up failed: {e}")))?;
        eprintln!(
            "warmed {installed} cached results from {} ({} engine, {warm_packets} packets)",
            dir.display(),
            warm_engine.name()
        );
    }
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    eprintln!(
        "protocol: one JSON request per line (see docs/SERVE.md); op `shutdown` stops the server"
    );
    server.run()?;
    eprintln!("server drained, bye");
    Ok(())
}

/// `repro loadgen`: runs the open-loop benchmark and optionally writes
/// `BENCH_serve.json`.
fn run_loadgen(opts: &LoadgenOptions, json_path: Option<&Path>) -> Result<(), CliError> {
    let report = wsn_experiments::loadgen::run(opts).map_err(CliError::Failure)?;
    print!("{}", report.render());
    for run in &report.runs {
        if run.idle_alive < run.idle_probed {
            return Err(CliError::Failure(format!(
                "[{}] only {}/{} probed idle connections survived the load",
                run.io_model, run.idle_alive, run.idle_probed
            )));
        }
    }
    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&report).expect("loadgen report serializes");
        std::fs::write(path, json + "\n")
            .map_err(|e| CliError::Io(format!("cannot write {}: {e}", path.display())))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn run(args: Vec<String>) -> Result<(), CliError> {
    let mut scale = Scale::Quick;
    let mut engine = EngineMode::Golden;
    let mut out_dir: Option<PathBuf> = None;
    let mut resume = false;
    let mut shards = 16usize;
    let mut json_path: Option<PathBuf> = None;
    let mut quick_bench = false;
    let mut addr = "127.0.0.1:7878".to_string();
    let mut addr_given = false;
    let mut threads = 0usize;
    let mut log_path: Option<PathBuf> = None;
    let mut access_log: Option<PathBuf> = None;
    let mut slow_request_ms = 1_000u64;
    let mut store: Option<PathBuf> = None;
    let mut warm_from: Option<PathBuf> = None;
    let mut warm_engine = EngineMode::Golden;
    let mut warm_packets = 400u64;
    let mut duration_s = 10.0f64;
    let mut connections = 500usize;
    let mut senders = 8usize;
    let mut rate: Option<f64> = None;
    let mut arrivals = Arrivals::Poisson;
    let mut label = String::new();
    let mut selections: Vec<String> = Vec::new();

    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--engine" => match iter.next().and_then(|m| EngineMode::from_name(m)) {
                Some(mode) => engine = mode,
                None => {
                    return Err(CliError::Usage(
                        "--engine needs `golden`, `fast`, or `analytic`".into(),
                    ))
                }
            },
            "--resume" => resume = true,
            "--shards" => match iter.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => shards = n,
                _ => return Err(CliError::Usage("--shards needs a positive integer".into())),
            },
            "--out" => match iter.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => return Err(CliError::Usage("--out needs a directory".into())),
            },
            "--json" => match iter.next() {
                Some(path) => json_path = Some(PathBuf::from(path)),
                None => return Err(CliError::Usage("--json needs a file path".into())),
            },
            "--addr" => match iter.next() {
                Some(a) => {
                    addr = a.clone();
                    addr_given = true;
                }
                None => return Err(CliError::Usage("--addr needs HOST:PORT".into())),
            },
            "--threads" => match iter.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => threads = n,
                None => return Err(CliError::Usage("--threads needs an integer".into())),
            },
            "--log" => match iter.next() {
                Some(path) => log_path = Some(PathBuf::from(path)),
                None => return Err(CliError::Usage("--log needs a file path".into())),
            },
            "--access-log" => match iter.next() {
                Some(path) => access_log = Some(PathBuf::from(path)),
                None => return Err(CliError::Usage("--access-log needs a file path".into())),
            },
            "--slow-ms" => match iter.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => slow_request_ms = n,
                None => {
                    return Err(CliError::Usage(
                        "--slow-ms needs an integer (milliseconds; 0 disables)".into(),
                    ))
                }
            },
            "--quick-bench" => quick_bench = true,
            "--store" => match iter.next() {
                Some(dir) => store = Some(PathBuf::from(dir)),
                None => return Err(CliError::Usage("--store needs a directory".into())),
            },
            "--warm-from-campaign" => match iter.next() {
                Some(dir) => warm_from = Some(PathBuf::from(dir)),
                None => {
                    return Err(CliError::Usage(
                        "--warm-from-campaign needs a shard directory".into(),
                    ))
                }
            },
            "--warm-engine" => match iter.next().and_then(|m| EngineMode::from_name(m)) {
                Some(mode) => warm_engine = mode,
                None => {
                    return Err(CliError::Usage(
                        "--warm-engine needs `golden`, `fast`, or `analytic`".into(),
                    ))
                }
            },
            "--warm-packets" => match iter.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => warm_packets = n,
                _ => {
                    return Err(CliError::Usage(
                        "--warm-packets needs a positive integer".into(),
                    ))
                }
            },
            "--duration" => match iter
                .next()
                .map(|s| s.trim_end_matches('s'))
                .and_then(|s| s.parse::<f64>().ok())
            {
                Some(s) if s > 0.0 => duration_s = s,
                _ => {
                    return Err(CliError::Usage(
                        "--duration needs seconds (e.g. 10 or 3s)".into(),
                    ))
                }
            },
            "--connections" => match iter.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => connections = n,
                None => return Err(CliError::Usage("--connections needs an integer".into())),
            },
            "--senders" => match iter.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => senders = n,
                _ => return Err(CliError::Usage("--senders needs a positive integer".into())),
            },
            "--rate" => match iter.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(r) if r > 0.0 => rate = Some(r),
                _ => return Err(CliError::Usage("--rate needs requests/second".into())),
            },
            "--arrivals" => match iter.next().and_then(|m| Arrivals::from_name(m)) {
                Some(a) => arrivals = a,
                None => {
                    return Err(CliError::Usage(
                        "--arrivals needs `poisson` or `fixed`".into(),
                    ))
                }
            },
            "--label" => match iter.next() {
                Some(s) => label = s.clone(),
                None => return Err(CliError::Usage("--label needs a string".into())),
            },
            "-h" | "--help" => {
                println!("{}", usage());
                return Ok(());
            }
            other => selections.push(other.to_string()),
        }
    }

    if selections.is_empty() {
        return Err(CliError::Usage("no command given".into()));
    }

    if let Some(pos) = selections.iter().position(|s| s == "scenario") {
        return run_scenarios(&selections[pos + 1..], scale, out_dir.as_deref());
    }

    if let Some(pos) = selections.iter().position(|s| s == "timeline") {
        return run_timeline(
            &selections[pos + 1..],
            scale,
            engine,
            out_dir.as_deref(),
            log_path.as_deref(),
        );
    }

    if selections.iter().any(|s| s == "serve") {
        return run_serve(
            addr,
            threads,
            access_log,
            slow_request_ms,
            store,
            warm_from,
            warm_engine,
            warm_packets,
        );
    }

    if selections.iter().any(|s| s == "loadgen") {
        let opts = LoadgenOptions {
            duration: std::time::Duration::from_secs_f64(duration_s),
            connections,
            senders,
            rate,
            arrivals,
            addr: addr_given.then_some(addr),
            label,
            ..LoadgenOptions::default()
        };
        return run_loadgen(&opts, json_path.as_deref());
    }

    if selections.iter().any(|s| s == "list") {
        for (id, _) in all_experiments() {
            println!("{id}");
        }
        return Ok(());
    }

    if selections.iter().any(|s| s == "bench") {
        // `--quick-bench` shrinks the batches for CI smoke runs; the
        // default sizing is what BENCH_campaign.json numbers come from.
        let (reps, min_batch_s) = if quick_bench { (2, 0.2) } else { (5, 1.0) };
        let report = wsn_experiments::perf::campaign_throughput(&[1, 4, 8], reps, min_batch_s);
        print!("{}", report.render());
        if let Some(path) = &json_path {
            let json = serde_json::to_string_pretty(&report).expect("bench report serializes");
            std::fs::write(path, json + "\n")
                .map_err(|e| CliError::Io(format!("cannot write {}: {e}", path.display())))?;
            println!("wrote {}", path.display());
        }
        return Ok(());
    }

    if selections.iter().any(|s| s == "campaign") {
        if resume && out_dir.is_none() {
            return Err(CliError::Usage(
                "--resume needs --out DIR (that's where the checkpoints live)".into(),
            ));
        }
        let log = match &log_path {
            Some(path) => EventLog::to_file(path)
                .map_err(|e| CliError::Io(format!("cannot open {}: {e}", path.display())))?,
            None => EventLog::disabled(),
        };
        return run_campaign(scale, engine, out_dir.as_deref(), resume, shards, &log);
    }

    if selections.iter().any(|s| s == "verify") {
        let report = wsn_experiments::verify::run(scale);
        print!("{}", report.render());
        let failed = report.sections[0]
            .table
            .rows
            .iter()
            .filter(|r| r[0] == "FAIL")
            .count();
        return if failed == 0 {
            Ok(())
        } else {
            Err(CliError::Failure(format!("{failed} claim(s) failed")))
        };
    }

    if selections.iter().any(|s| s == "dataset") {
        let Some(dir) = &out_dir else {
            return Err(CliError::Usage("dataset export needs --out DIR".into()));
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Io(format!("cannot create {}: {e}", dir.display())))?;
        let path = dir.join("trace.csv");
        let config = wsn_params::config::StackConfig::default();
        let options = wsn_link_sim::simulation::SimOptions {
            packets: scale.packets(),
            ..wsn_link_sim::simulation::SimOptions::quick(scale.packets())
        };
        let n = wsn_experiments::dataset::export_to_file(config, options, &path)
            .map_err(|e| CliError::Io(format!("dataset export failed: {e}")))?;
        println!("wrote {n} per-packet records to {}", path.display());
        return Ok(());
    }

    let ids: Vec<String> = if selections.iter().any(|s| s == "all") {
        all_experiments()
            .iter()
            .map(|(n, _)| n.to_string())
            .collect()
    } else {
        selections
    };

    for id in &ids {
        let start = Instant::now();
        // The only runner error is an unknown experiment id.
        let report = run_experiment(id, scale).map_err(CliError::UnknownId)?;
        print!("{}", report.render());
        println!(
            "[{} completed in {:.1}s]\n",
            id,
            start.elapsed().as_secs_f64()
        );
        if let Some(dir) = &out_dir {
            write_outputs(dir, &report)
                .map_err(|e| CliError::Io(format!("failed to write outputs for {id}: {e}")))?;
        }
        let _ = std::io::stdout().flush();
    }
    Ok(())
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(e.exit_code())
        }
    }
}
