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
//!             [--warm-from-campaign DIR]
//!                                    start the JSON-lines query service
//!                                    (docs/SERVE.md; port 0 picks a free port;
//!                                    --access-log appends one JSONL record per
//!                                    request, --slow-ms sets the slow-request
//!                                    warning threshold, 0 disables it; --store
//!                                    persists the result cache across restarts;
//!                                    --warm-from-campaign seeds the cache from
//!                                    a campaign checkpoint directory, on the
//!                                    engine, packets and seed its
//!                                    campaign.json records)
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
//! A sharded campaign (`--out DIR --shards N`) writes its run identity to
//! `campaign.json` and its results to `shard-NNNN.jsonl` files; re-running
//! with `--resume` skips already-completed shards, so a killed multi-hour
//! grid loses at most one shard of work. A resume whose engine, scale,
//! seed or shard count differs from `campaign.json` is refused.
//!
//! Every failure path funnels through one [`CliError`] enum, so the exit
//! code mapping lives in exactly one place: `0` success, `1` generic
//! failure (bad or unknown flags, a flag the subcommand does not read,
//! failed verify claims, malformed timeline files), `2` unknown
//! experiment, scenario, or timeline id, `3` I/O error (including an
//! unreadable timeline file), `4` query-service failure (bind error or a
//! fatal socket error in the accept loop).

use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use wsn_experiments::campaign::{Campaign, ConfigResult, Scale};
use wsn_experiments::dynamics::TimelineError;
use wsn_experiments::loadgen::{Arrivals, LoadgenOptions};
use wsn_experiments::report::Report;
use wsn_experiments::shards::{read_shard_dir, run_sharded_logged, ShardError, MANIFEST_FILE};
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

/// The flags each subcommand reads, as `usage` prints them, in dispatch
/// order: the first of these words on the command line picks the
/// subcommand. Any other words are experiment ids (or `all`), which read
/// [`EXPERIMENT_FLAGS`]. A flag the chosen subcommand does not read is
/// refused; `-h`/`--help` is accepted everywhere.
const COMMAND_FLAGS: &[(&str, &str)] = &[
    ("scenario", "[--full] [--out DIR]"),
    (
        "timeline",
        "[--full] [--engine golden|fast] [--out DIR] [--log PATH]",
    ),
    (
        "serve",
        "[--addr HOST:PORT] [--threads N] [--access-log PATH] [--slow-ms N] \
         [--store DIR] [--warm-from-campaign DIR]",
    ),
    (
        "loadgen",
        "[--duration SECS] [--connections N] [--senders N] [--rate RPS] \
         [--arrivals poisson|fixed] [--addr HOST:PORT] [--json PATH] [--label STR]",
    ),
    ("list", ""),
    ("bench", "[--json PATH] [--quick-bench]"),
    (
        "campaign",
        "[--full] [--engine golden|fast|analytic] [--out DIR] [--resume] \
         [--shards N] [--log PATH]",
    ),
    ("verify", "[--full]"),
    ("dataset", "[--full] [--out DIR]"),
];

/// The flags an experiment run (`repro all`, `repro fig06 …`) reads.
const EXPERIMENT_FLAGS: &str = "[--full] [--out DIR]";

/// The flag names in a [`COMMAND_FLAGS`] spelling, without their values.
fn flag_names(flags: &str) -> impl Iterator<Item = &str> {
    flags
        .split('[')
        .filter_map(|f| f.split([' ', ']']).next())
        .filter(|f| !f.is_empty())
}

/// The subcommand `selections` names — its position there, its name and
/// the flags it reads — or `None` for a run of experiment ids.
fn find_command(selections: &[String]) -> Option<(usize, &'static str, &'static str)> {
    COMMAND_FLAGS.iter().find_map(|&(name, flags)| {
        let pos = selections.iter().position(|s| s == name)?;
        Some((pos, name, flags))
    })
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
    let mut text = String::from("usage:");
    for (command, flags) in COMMAND_FLAGS
        .iter()
        .chain([&("<all|ID...>", EXPERIMENT_FLAGS)])
    {
        text.push_str(format!("\n  repro {command} {flags}").trim_end());
    }
    text.push_str(&format!(
        "\n  ids: {}\n  scenario ids: {}\n  timeline ids: {} (or a ScenarioTimeline JSON file)\n  \
         exit codes: 0 ok, 1 failure, 2 unknown id, 3 I/O error, 4 serve error",
        ids.join(", "),
        scenario_ids.join(", "),
        timeline_ids.join(", ")
    ));
    text
}

fn write_outputs(dir: &Path, report: &Report) -> std::io::Result<()> {
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
            if dir.join(MANIFEST_FILE).exists() {
                return Err(CliError::Failure(format!(
                    "{} already holds a campaign checkpoint; pass --resume to continue \
                     that run or choose a fresh directory",
                    dir.display()
                )));
            }
        }
        let configs: Vec<StackConfig> = grid.iter().collect();
        let report =
            run_sharded_logged(&campaign, &configs, dir, shards, log).map_err(|e| match e {
                ShardError::Io(..) | ShardError::Serde(..) => {
                    CliError::Io(format!("sharded campaign failed: {e}"))
                }
                _ => CliError::Failure(e.to_string()),
            })?;
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
    // summary with a live progress line — at most 2 × threads claims of
    // `chunk` configs are held, whatever the engine.
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
            write_outputs(dir, &report).map_err(|e| {
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
    // A timeline replays a shared-channel network, which only the
    // sampling engines simulate.
    if engine == EngineMode::Analytic {
        return Err(CliError::Usage(
            "timeline needs --engine golden or fast (the analytic engine has no \
             multi-link network)"
                .into(),
        ));
    }
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
        write_outputs(dir, &report)
            .map_err(|e| CliError::Io(format!("failed to write timeline outputs: {e}")))?;
    }
    let _ = std::io::stdout().flush();
    Ok(())
}

/// `repro serve`: binds the query service and runs it until a client sends
/// `shutdown`. Prints the resolved address first so callers that bound
/// port 0 can discover the real port.
fn run_serve(
    addr: String,
    threads: usize,
    access_log: Option<PathBuf>,
    slow_request_ms: u64,
    store: Option<PathBuf>,
    warm_from: Option<PathBuf>,
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
        let (manifest, entries) =
            wsn_experiments::shards::serve_warm_entries(dir).map_err(CliError::Failure)?;
        let installed = server
            .warm(entries)
            .map_err(|e| CliError::Io(format!("cache warm-up failed: {e}")))?;
        eprintln!(
            "warmed {installed} cached results from {} ({} engine, {} packets)",
            dir.display(),
            manifest.engine.name(),
            manifest.packets
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
    let mut duration_s = 10.0f64;
    let mut connections = 500usize;
    let mut senders = 8usize;
    let mut rate: Option<f64> = None;
    let mut arrivals = Arrivals::Poisson;
    let mut label = String::new();
    let mut selections: Vec<String> = Vec::new();
    let mut given: Vec<&str> = Vec::new();

    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if arg.starts_with('-') {
            given.push(arg);
        }
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
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown flag `{flag}`")))
            }
            other => selections.push(other.to_string()),
        }
    }

    if selections.is_empty() {
        return Err(CliError::Usage("no command given".into()));
    }

    let command = find_command(&selections);
    let (name, reads) = match command {
        Some((_, name, flags)) => (name, flags),
        None => (selections[0].as_str(), EXPERIMENT_FLAGS),
    };
    if let Some(flag) = given
        .iter()
        .find(|&&flag| !flag_names(reads).any(|name| name == flag))
    {
        return Err(CliError::Usage(format!(
            "`{flag}` does not apply to `repro {name}`"
        )));
    }

    match command {
        Some((pos, "scenario", _)) => {
            run_scenarios(&selections[pos + 1..], scale, out_dir.as_deref())
        }
        Some((pos, "timeline", _)) => run_timeline(
            &selections[pos + 1..],
            scale,
            engine,
            out_dir.as_deref(),
            log_path.as_deref(),
        ),
        Some((_, "serve", _)) => {
            run_serve(addr, threads, access_log, slow_request_ms, store, warm_from)
        }
        Some((_, "loadgen", _)) => {
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
            run_loadgen(&opts, json_path.as_deref())
        }
        Some((_, "list", _)) => {
            for (id, _) in all_experiments() {
                println!("{id}");
            }
            Ok(())
        }
        Some((_, "bench", _)) => {
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
            Ok(())
        }
        Some((_, "campaign", _)) => {
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
            run_campaign(scale, engine, out_dir.as_deref(), resume, shards, &log)
        }
        Some((_, "verify", _)) => {
            let report = wsn_experiments::verify::run(scale);
            print!("{}", report.render());
            let failed = report.sections[0]
                .table
                .rows
                .iter()
                .filter(|r| r[0] == "FAIL")
                .count();
            if failed == 0 {
                Ok(())
            } else {
                Err(CliError::Failure(format!("{failed} claim(s) failed")))
            }
        }
        Some((_, "dataset", _)) => {
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
            Ok(())
        }
        Some((_, other, _)) => unreachable!("`{other}` has a COMMAND_FLAGS entry but no runner"),
        None => run_experiments(selections, scale, out_dir.as_deref()),
    }
}

/// `repro all` or `repro <ID...>`: runs the named experiments in turn.
fn run_experiments(
    selections: Vec<String>,
    scale: Scale,
    out_dir: Option<&Path>,
) -> Result<(), CliError> {
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
        if let Some(dir) = out_dir {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> Result<(), CliError> {
        run(args.iter().map(|a| a.to_string()).collect())
    }

    /// Asserts that `args` is refused as a usage error naming `flag`.
    fn assert_unknown_flag(args: &[&str], flag: &str) {
        match run_args(args) {
            Err(e @ CliError::Usage(_)) => {
                assert_eq!(e.exit_code(), 1);
                assert!(e.to_string().contains(&format!("`{flag}`")), "{e}");
            }
            other => panic!("{args:?} should be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn the_removed_io_model_flag_is_refused() {
        assert_unknown_flag(&["list", "--io-model", "threads"], "--io-model");
        // Refused while parsing, so no server is ever started.
        assert_unknown_flag(&["serve", "--io-model", "threads"], "--io-model");
    }

    #[test]
    fn the_removed_warm_flags_are_refused() {
        // Warm-up reads engine and packets from the checkpoint's
        // campaign.json instead.
        assert_unknown_flag(&["serve", "--warm-engine", "fast"], "--warm-engine");
        assert_unknown_flag(&["serve", "--warm-packets", "4500"], "--warm-packets");
    }

    #[test]
    fn a_misspelt_flag_is_refused() {
        assert_unknown_flag(&["serve", "--thread", "2"], "--thread");
        assert_unknown_flag(&["-x", "list"], "-x");
    }

    /// Asserts that `args` is refused as a usage error naming `flag` as
    /// not applying to `command`.
    fn assert_flag_does_not_apply(args: &[&str], flag: &str, command: &str) {
        match run_args(args) {
            Err(e @ CliError::Usage(_)) => {
                assert_eq!(e.exit_code(), 1);
                let text = e.to_string();
                assert!(
                    text.contains(&format!("`{flag}` does not apply to `repro {command}`")),
                    "{text}"
                );
            }
            other => panic!("{args:?} should be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn a_flag_the_subcommand_does_not_read_is_refused() {
        // Refused before anything runs: the first flag that does not apply
        // is named.
        assert_flag_does_not_apply(
            &["list", "--threads", "3", "--addr", "x", "--store", "y"],
            "--threads",
            "list",
        );
        // The campaign runs on every core; it has no thread-count flag.
        assert_flag_does_not_apply(&["campaign", "--threads", "1"], "--threads", "campaign");
        assert_flag_does_not_apply(&["serve", "--full"], "--full", "serve");
        assert_flag_does_not_apply(&["timeline", "--resume"], "--resume", "timeline");
        assert_flag_does_not_apply(&["bench", "--engine", "fast"], "--engine", "bench");
        assert_flag_does_not_apply(&["fig06", "--json", "f.json"], "--json", "fig06");
    }

    #[test]
    fn the_dispatch_order_picks_the_subcommand_whose_flags_apply() {
        let words = |w: &[&str]| w.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // `scenario list` and `timeline list` are not `list`.
        let scenario = find_command(&words(&["scenario", "list"]));
        assert_eq!(
            scenario.map(|(pos, name, _)| (pos, name)),
            Some((0, "scenario"))
        );
        let timeline = find_command(&words(&["timeline", "list"]));
        assert_eq!(
            timeline.map(|(pos, name, _)| (pos, name)),
            Some((0, "timeline"))
        );
        assert!(find_command(&words(&["fig06", "table04"])).is_none());
        // A flag the subcommand reads passes the check and reaches it.
        for (args, refusal) in [
            (&["campaign", "--resume"][..], "--resume needs --out"),
            (&["dataset", "--full"][..], "dataset export needs --out"),
        ] {
            match run_args(args) {
                Err(e @ CliError::Usage(_)) => assert!(e.to_string().contains(refusal), "{e}"),
                other => panic!("{args:?} should be refused by its runner, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_flag_in_the_table_is_one_the_parser_knows() {
        // `list` reads no flag, so a known one is refused as not applying
        // (or for its value), never as unknown.
        for (command, flags) in COMMAND_FLAGS {
            for flag in flag_names(flags) {
                match run_args(&["list", flag, "1"]) {
                    Err(CliError::Usage(msg)) => {
                        assert!(!msg.starts_with("unknown flag"), "{command}: {msg}")
                    }
                    other => panic!("{command} {flag}: expected a usage error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn timeline_refuses_the_analytic_engine_before_running() {
        match run_args(&["timeline", "hidden-pair", "storm20", "--engine", "analytic"]) {
            Err(e @ CliError::Usage(_)) => {
                assert_eq!(e.exit_code(), 1);
                assert!(e.to_string().contains("--engine golden or fast"), "{e}");
            }
            other => panic!("should be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn help_still_succeeds() {
        assert!(run_args(&["-h"]).is_ok());
        assert!(run_args(&["--help"]).is_ok());
        assert!(run_args(&["list", "--help"]).is_ok());
    }
}
