//! The two serve workloads: `serve-hot` (every timed answer a memory-tier
//! hit) and `serve-cold` (every request a key the server has never
//! seen), their request generators, the closed-loop client, and their
//! traced replays.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wsn_analytic::table::AnalyticTable;
use wsn_link_sim::simulation::SimOptions;
use wsn_link_sim::traffic::TrafficModel;
use wsn_models::optimize::Optimizer;
use wsn_params::config::StackConfig;
use wsn_params::grid::ParamGrid;
use wsn_radio::budget::LinkBudgetTable;
use wsn_radio::channel::ChannelConfig;
use wsn_serve::cache::ShardedCache;
use wsn_serve::engine::Engine;
use wsn_serve::protocol::{
    cache_key, envelope_ok, parse_request, RequestBody, DEFAULT_PACKETS, DEFAULT_SEED,
};
use wsn_serve::store::Store;
use wsn_serve::{ServeError, Server, ServerConfig};

use crate::stats::{mix, peak_rss_mb, Rng, Samples, Windows};
use crate::trace::Tracer;
use crate::{time_setup, Measured, Metric, TraceReport, SETUPS, WINDOW_S};

/// The request kinds of both mixes. Each is its own row of the traced
/// serve-cold run (`serve.miss_us.<name>`). Declaration order is the
/// order of [`Kind::ALL`], so `kind as usize` indexes per-kind arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `predict` on the analytic M/G/1 engine.
    PredictAnalytic,
    /// `predict` on the paper's closed-form models.
    PredictGolden,
    /// `simulate` on the golden event-replay engine.
    SimulateGolden,
    /// `simulate` on the fast sampler.
    SimulateFast,
    /// `scenario` over the hidden-pair topology.
    Scenario,
    /// `tune` (golden grid scan at one distance).
    Tune,
    /// `pareto` (golden grid scan at one distance).
    Pareto,
    /// `explore` (budgeted search).
    Explore,
}

impl Kind {
    /// Every kind, in reporting order.
    pub const ALL: [Kind; 8] = [
        Kind::PredictAnalytic,
        Kind::PredictGolden,
        Kind::SimulateGolden,
        Kind::SimulateFast,
        Kind::Scenario,
        Kind::Tune,
        Kind::Pareto,
        Kind::Explore,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PredictAnalytic => "predict_analytic",
            Kind::PredictGolden => "predict_golden",
            Kind::SimulateGolden => "simulate_golden",
            Kind::SimulateFast => "simulate_fast",
            Kind::Scenario => "scenario",
            Kind::Tune => "tune",
            Kind::Pareto => "pareto",
            Kind::Explore => "explore",
        }
    }

    /// The span name of an in-process miss of this kind.
    fn miss_span(self) -> &'static str {
        match self {
            Kind::PredictAnalytic => "serve.miss.predict_analytic",
            Kind::PredictGolden => "serve.miss.predict_golden",
            Kind::SimulateGolden => "serve.miss.simulate_golden",
            Kind::SimulateFast => "serve.miss.simulate_fast",
            Kind::Scenario => "serve.miss.scenario",
            Kind::Tune => "serve.miss.tune",
            Kind::Pareto => "serve.miss.pareto",
            Kind::Explore => "serve.miss.explore",
        }
    }
}

/// `repro loadgen`'s op weights (percent): analytic predict, golden
/// predict, golden simulate, fast simulate, scenario, tune, explore.
const HOT_WEIGHTS: [(Kind, u64); 7] = [
    (Kind::PredictAnalytic, 40),
    (Kind::PredictGolden, 20),
    (Kind::SimulateGolden, 15),
    (Kind::SimulateFast, 15),
    (Kind::Scenario, 5),
    (Kind::Tune, 3),
    (Kind::Explore, 2),
];

/// Serve-cold weights (per mille), chosen so golden simulate, fast
/// simulate, analytic predict and the grid scans (tune, pareto, explore)
/// each take about a quarter of server time. Per-request costs measured
/// by the traced run (`serve.miss_us.*`, 2-vCPU VM): analytic predict
/// 45 µs, golden simulate 42 µs, fast simulate 26 µs, tune 1.3 ms,
/// pareto 2.2 ms, explore 93 µs.
const COLD_WEIGHTS: [(Kind, u64); 8] = [
    (Kind::PredictAnalytic, 228),
    (Kind::PredictGolden, 70),
    (Kind::SimulateGolden, 244),
    (Kind::SimulateFast, 395),
    (Kind::Scenario, 35),
    (Kind::Tune, 2),
    (Kind::Pareto, 2),
    (Kind::Explore, 24),
];

/// Distinct keys in the serve-hot working set.
pub const HOT_KEYS: usize = 4096;

/// Untimed never-reused requests sent while setting up serve-cold.
const COLD_PREFIX: usize = 6_000;

/// Client connections (one request outstanding on each).
const CONNS: usize = 2;

/// Serve-cold requests re-executed on a fresh engine after timing.
const COLD_RECHECK: usize = 256;

fn pick(rng: &mut Rng, weights: &[(Kind, u64)]) -> Kind {
    let total: u64 = weights.iter().map(|w| w.1).sum();
    let mut roll = rng.below(total);
    for &(kind, w) in weights {
        if roll < w {
            return kind;
        }
        roll -= w;
    }
    unreachable!("roll is below the weight total")
}

/// The `config` object of a request, with every field explicit.
fn config_json(c: &StackConfig, distance_m: f64) -> String {
    format!(
        r#"{{"distance_m":{distance_m:?},"power_level":{},"max_tries":{},"retry_delay_ms":{},"queue_cap":{},"packet_interval_ms":{},"payload_bytes":{}}}"#,
        c.power.level(),
        c.max_tries.get(),
        c.retry_delay.millis(),
        c.queue_cap.get(),
        c.packet_interval.millis(),
        c.payload.bytes()
    )
}

/// One generated request line (newline-terminated) and its kind.
#[derive(Debug, Clone)]
pub struct Req {
    /// What the request asks for.
    pub kind: Kind,
    /// The wire line, `\n` included.
    pub line: String,
}

/// The free values of one request; which ones a kind uses is fixed.
struct Draw<'a> {
    config: &'a StackConfig,
    distance_m: f64,
    seed: u64,
    bound: f64,
}

fn request_line(id: u64, kind: Kind, d: &Draw) -> String {
    let cfg = || config_json(d.config, d.distance_m);
    let (seed, bound, dist) = (d.seed, d.bound, d.distance_m);
    let body = match kind {
        Kind::PredictAnalytic => {
            format!(r#""op":"predict","engine":"analytic","config":{}"#, cfg())
        }
        Kind::PredictGolden => format!(r#""op":"predict","config":{}"#, cfg()),
        Kind::SimulateGolden => {
            format!(
                r#""op":"simulate","packets":60,"seed":{seed},"config":{}"#,
                cfg()
            )
        }
        Kind::SimulateFast => format!(
            r#""op":"simulate","packets":60,"seed":{seed},"engine":"fast","config":{}"#,
            cfg()
        ),
        Kind::Scenario => {
            format!(r#""op":"scenario","scenario":"hidden-pair","packets":40,"seed":{seed}"#)
        }
        Kind::Tune => format!(
            r#""op":"tune","objective":"energy","constraints":[{{"metric":"loss","max":{bound:?}}}],"distance_m":{dist:?}"#
        ),
        Kind::Pareto => {
            format!(r#""op":"pareto","metrics":["energy","loss"],"distance_m":{dist:?}"#)
        }
        Kind::Explore => format!(
            r#""op":"explore","objective":"energy","budget":256,"constraints":[{{"metric":"loss","max":{bound:?}}}],"distance_m":{dist:?}"#
        ),
    };
    format!("{{\"id\":{id},{body}}}\n")
}

/// The canonical cache key of a generated line.
pub fn key_of(line: &str) -> String {
    let req = parse_request(line.trim_end()).expect("generated requests parse");
    cache_key(&req.body).expect("generated requests are cacheable")
}

/// The serve-hot working set: `n` requests with distinct cache keys,
/// drawn from the loadgen op weights over the paper grid. Line `i`
/// carries id `i`.
pub fn hot_pool(seed: u64, n: usize) -> Vec<Req> {
    let grid = ParamGrid::paper();
    let mut rng = Rng::new(seed, 0x4854);
    let mut seen = HashSet::with_capacity(n);
    let mut pool = Vec::with_capacity(n);
    while pool.len() < n {
        let kind = pick(&mut rng, &HOT_WEIGHTS);
        let config = grid.config_at(rng.below(grid.len() as u64) as usize);
        let draw = Draw {
            config: &config,
            distance_m: match kind {
                Kind::Tune | Kind::Explore => grid.distances_m[rng.below(6) as usize],
                _ => config.distance.meters(),
            },
            seed: rng.below(1 << 20),
            // Loose enough that every distance has a feasible winner.
            bound: 0.3 + rng.below(1000) as f64 * 1e-4,
        };
        let line = request_line(pool.len() as u64, kind, &draw);
        if seen.insert(key_of(&line)) {
            pool.push(Req { kind, line });
        }
    }
    pool
}

/// Endless serve-cold requests, each with a cache key never produced
/// before by the same generator:
/// - `simulate`/`scenario` get unique seeds (a bijection of a counter);
/// - `predict` walks the paper grid in a coprime stride, shifting the
///   distance by a millimetre on each wrap;
/// - `tune`/`explore` get unique constraint bounds and `pareto` a unique
///   distance.
#[derive(Debug)]
pub struct ColdGen {
    grid: ParamGrid,
    rng: Rng,
    salt: u64,
    starts: [u64; 2],
    counts: [u64; 8],
    next_id: u64,
}

/// Grid-walk stride: coprime with the grid's 48,384 = 2⁸·3³·7 entries.
const WALK_STRIDE: u64 = 10_007;

impl ColdGen {
    /// A generator for one server lifetime.
    pub fn new(seed: u64, stream: u64) -> Self {
        let grid = ParamGrid::paper();
        let mut rng = Rng::new(seed, 0x434f_4c44 ^ stream);
        let len = grid.len() as u64;
        ColdGen {
            salt: rng.next_u64(),
            starts: [rng.below(len), rng.below(len)],
            grid,
            rng,
            counts: [0; 8],
            next_id: 0,
        }
    }

    /// The next never-seen request.
    pub fn next_req(&mut self) -> Req {
        let kind = pick(&mut self.rng, &COLD_WEIGHTS);
        let n = self.counts[kind as usize];
        self.counts[kind as usize] += 1;
        let len = self.grid.len() as u64;
        let (config, distance_m) = match kind {
            Kind::PredictAnalytic | Kind::PredictGolden => {
                let start = self.starts[usize::from(kind == Kind::PredictGolden)];
                let config = self
                    .grid
                    .config_at(((start + n * WALK_STRIDE) % len) as usize);
                let d = config.distance.meters() + (n / len) as f64 * 1e-3;
                (config, d)
            }
            _ => {
                let config = self.grid.config_at(self.rng.below(len) as usize);
                let d = match kind {
                    Kind::Pareto => 10.0 + n as f64 * 1e-5,
                    Kind::Tune | Kind::Explore => self.grid.distances_m[self.rng.below(6) as usize],
                    _ => config.distance.meters(),
                };
                (config, d)
            }
        };
        let draw = Draw {
            config: &config,
            distance_m,
            seed: mix(self.salt.wrapping_add(n)),
            bound: 0.3 + n as f64 * 1e-7,
        };
        let line = request_line(self.next_id, kind, &draw);
        self.next_id += 1;
        Req { kind, line }
    }
}

/// The parts of a response envelope the checks need.
#[derive(Debug, PartialEq, Eq)]
pub struct Reply<'a> {
    /// The echoed id, raw JSON.
    pub id: &'a str,
    /// `"ok":true`.
    pub ok: bool,
    /// `"cached":true`.
    pub cached: bool,
    /// The `result` body, verbatim.
    pub result: &'a str,
}

/// Splits a success envelope (`{"proto":1,"id":…,"op":…,"ok":…,
/// "cached":…,"service_us":…,"trace":…,"result":…}`); `None` for
/// anything else, error envelopes included.
pub fn parse_reply(line: &str) -> Option<Reply<'_>> {
    let rest = line.strip_prefix(r#"{"proto":1,"id":"#)?;
    let (id, rest) = rest.split_once(r#","op":"#)?;
    let (_, rest) = rest.split_once(r#","ok":"#)?;
    let ok = rest.starts_with("true");
    let (_, rest) = rest.split_once(r#","cached":"#)?;
    let cached = rest.starts_with("true");
    let (_, result) = rest.split_once(r#","result":"#)?;
    Some(Reply {
        id,
        ok,
        cached,
        result: result.strip_suffix('}')?,
    })
}

/// One blocking client connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            buf: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())
    }

    fn recv(&mut self) -> std::io::Result<&str> {
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.buf.trim_end())
    }

    fn call(&mut self, line: &str) -> std::io::Result<&str> {
        self.send(line)?;
        self.recv()
    }
}

/// Closed loop over `conns`, one request outstanding on each: `next`
/// writes the next line into the buffer and returns its tag (or `None`
/// when there is no more work); no new request is sent after `until`.
/// `on_reply` gets each tag, reply line and round trip.
fn closed_loop(
    conns: &mut [Client],
    until: Instant,
    next: &mut dyn FnMut(&mut String) -> Option<u64>,
    on_reply: &mut dyn FnMut(u64, &str, Duration),
) -> std::io::Result<()> {
    let mut pending: Vec<Option<(u64, Instant)>> = vec![None; conns.len()];
    let mut line = String::new();
    for (conn, slot) in conns.iter_mut().zip(pending.iter_mut()) {
        line.clear();
        if let Some(tag) = next(&mut line) {
            let sent = Instant::now();
            conn.send(&line)?;
            *slot = Some((tag, sent));
        }
    }
    while pending.iter().any(Option::is_some) {
        for (conn, slot) in conns.iter_mut().zip(pending.iter_mut()) {
            let Some((tag, sent)) = slot.take() else {
                continue;
            };
            let reply = conn.recv()?;
            let now = Instant::now();
            on_reply(tag, reply, now - sent);
            if now >= until {
                continue;
            }
            line.clear();
            if let Some(tag) = next(&mut line) {
                let sent = Instant::now();
                conn.send(&line)?;
                *slot = Some((tag, sent));
            }
        }
    }
    Ok(())
}

/// An in-process server on 127.0.0.1 with default threads.
struct Running {
    addr: SocketAddr,
    handle: JoinHandle<Result<(), ServeError>>,
    store: Option<PathBuf>,
}

impl Running {
    fn start(store: Option<PathBuf>) -> Self {
        if let Some(dir) = &store {
            // Fresh every time: a leftover store would answer from disk.
            let _ = std::fs::remove_dir_all(dir);
        }
        let server = Server::bind(ServerConfig {
            store: store.clone(),
            ..ServerConfig::default()
        })
        .expect("bind an in-process server");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        Running {
            addr,
            handle,
            store,
        }
    }

    fn clients(&self, n: usize) -> Vec<Client> {
        (0..n)
            .map(|_| Client::connect(self.addr).expect("connect to the server"))
            .collect()
    }

    /// The result body of a control op (`stats`, `cache`).
    fn control(&self, op: &str) -> serde_json::Value {
        let mut c = Client::connect(self.addr).expect("connect to the server");
        let reply = c
            .call(&format!("{{\"id\":0,\"op\":\"{op}\"}}\n"))
            .expect("control op answered");
        let result = parse_reply(reply).expect("control op succeeds").result;
        serde_json::parse(result).expect("control result is JSON")
    }

    /// Memory-tier (hits, misses) so far.
    fn cache_counts(&self) -> (f64, f64) {
        let v = self.control("cache");
        let get = |k: &str| v.field("mem").field(k).as_f64().expect("cache op counts");
        (get("hits"), get("misses"))
    }

    /// The server's own (queue wait p50, exec p50), µs.
    fn stage_p50s(&self) -> (f64, f64) {
        let v = self.control("stats");
        let get = |k: &str| {
            v.field(k)
                .field("p50")
                .as_f64()
                .expect("stats op quantiles")
        };
        (get("queue_wait_us"), get("exec_us"))
    }

    fn stop(self) {
        let mut c = Client::connect(self.addr).expect("connect to the server");
        let _ = c.call("{\"id\":0,\"op\":\"shutdown\"}\n");
        drop(c);
        self.handle
            .join()
            .expect("server thread")
            .expect("server ran cleanly");
        if let Some(dir) = self.store {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Hit ratio between two `cache` readings.
fn hit_ratio(before: (f64, f64), after: (f64, f64)) -> f64 {
    let hits = after.0 - before.0;
    let misses = after.1 - before.1;
    hits / (hits + misses).max(1.0)
}

/// Where serve-cold puts its stores: inside the working directory,
/// removed by [`remove_scratch`] when the workload ends.
fn scratch_dir() -> PathBuf {
    Path::new(SCRATCH).join(std::process::id().to_string())
}

const SCRATCH: &str = ".wsnbench_tmp";

fn remove_scratch() {
    let _ = std::fs::remove_dir_all(scratch_dir());
    let _ = std::fs::remove_dir(SCRATCH); // only if now empty
}

/// Runs `pool` once through the server; returns each key's result body.
fn warm(server: &Running, pool: &[Req]) -> Vec<String> {
    let mut expected = vec![String::new(); pool.len()];
    let mut conns = server.clients(CONNS);
    let mut cursor = 0usize;
    let far = Instant::now() + Duration::from_secs(3600);
    closed_loop(
        &mut conns,
        far,
        &mut |buf| {
            let req = pool.get(cursor)?;
            buf.push_str(&req.line);
            cursor += 1;
            Some(cursor as u64 - 1)
        },
        &mut |tag, reply, _| {
            let r = parse_reply(reply).unwrap_or_else(|| panic!("warm-up failed: {reply}"));
            assert!(r.ok && !r.cached, "warm-up answer not fresh: {reply}");
            expected[tag as usize] = r.result.to_string();
        },
    )
    .expect("warm-up round trips");
    expected
}

/// Timed-phase bookkeeping shared by both serve workloads.
struct Tally {
    attempted: u64,
    failed: u64,
    rtt_us: Samples,
    windows: Windows,
}

impl Tally {
    /// Starts the clock. Room for 100k answers/s over `seconds` (above
    /// any rate seen on the design host) is made resident up front, so
    /// the sample count never moves `peak_rss_mb`.
    fn start(seconds: f64) -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            rtt_us: Samples::resident((seconds * 100_000.0) as usize),
            windows: Windows::start(WINDOW_S, seconds),
        }
    }

    fn record(&mut self, ok: bool, rtt: Duration) {
        self.attempted += 1;
        if ok {
            self.rtt_us.push(rtt.as_secs_f64() * 1e6);
            self.windows.tick();
        } else {
            self.failed += 1;
        }
    }

    fn into_measured(
        self,
        setup: Samples,
        elapsed: Duration,
        peak_rss_mb: f64,
        checks: Vec<String>,
    ) -> Measured {
        Measured {
            setup_s: setup,
            peak_rss_mb,
            answers_per_s: self.windows.median_rate(elapsed),
            ok: self.attempted - self.failed,
            attempted: self.attempted,
            failed: self.failed,
            elapsed,
            op_us: self.rtt_us,
            checks,
        }
    }
}

/// A hot answer passes when it is `ok`, `cached:true`, for the key that
/// was asked, and byte-identical to that key's set-up answer.
fn hot_answer_ok(reply: &str, key: usize, expected: &[String]) -> bool {
    parse_reply(reply)
        .is_some_and(|r| r.ok && r.cached && r.id.parse() == Ok(key) && r.result == expected[key])
}

/// Seed stream of the timed phase's key draws.
const HOT_DRAW_STREAM: u64 = 0x7069_636b;

/// The timed phase's next key: uniform over the warm set.
fn hot_draw(rng: &mut Rng, pool: &[Req]) -> usize {
    rng.below(pool.len() as u64) as usize
}

/// One serve-hot set-up: the working set, a fresh server, and every key
/// answered once; returns the server, the pool and each key's answer.
fn hot_setup(seed: u64) -> (Running, Vec<Req>, Vec<String>) {
    let pool = hot_pool(seed, HOT_KEYS);
    let server = Running::start(None);
    let expected = warm(&server, &pool);
    (server, pool, expected)
}

/// The `serve-hot` workload.
pub fn serve_hot(seed: u64, seconds: f64) -> Measured {
    let mut setup = Samples::default();
    let (server, pool, expected) = time_setup(&mut setup, || hot_setup(seed));
    let mut rng = Rng::new(seed, HOT_DRAW_STREAM);
    let mut conns = server.clients(CONNS);
    let before = server.cache_counts();
    let mut tally = Tally::start(seconds);
    let start = Instant::now();
    closed_loop(
        &mut conns,
        start + Duration::from_secs_f64(seconds),
        &mut |buf| {
            let k = hot_draw(&mut rng, &pool);
            buf.push_str(&pool[k].line);
            Some(k as u64)
        },
        &mut |k, reply, rtt| tally.record(hot_answer_ok(reply, k as usize, &expected), rtt),
    )
    .expect("timed round trips");
    let elapsed = start.elapsed();
    let ratio = hit_ratio(before, server.cache_counts());
    let peak = peak_rss_mb();
    drop(conns);
    server.stop();
    for _ in 1..SETUPS {
        time_setup(&mut setup, || hot_setup(seed)).0.stop();
    }
    let mut checks = Vec::new();
    if ratio != 1.0 {
        checks.push(format!("serve.cache_hit_ratio {ratio} != 1"));
    }
    println!("serve.cache_hit_ratio {ratio}");
    tally.into_measured(setup, elapsed, peak, checks)
}

/// A cold answer passes when it is `ok`, freshly computed, and for the
/// request that was asked.
fn cold_answer_ok(reply: &str, id: u64) -> Option<&str> {
    parse_reply(reply)
        .filter(|r| r.ok && !r.cached && r.id.parse() == Ok(id))
        .map(|r| r.result)
}

/// One serve-cold set-up: a fresh server over a fresh store, sent an
/// untimed prefix of never-reused requests; returns the server and the
/// generator, ready for the timed phase.
fn cold_setup(seed: u64, index: u64) -> (Running, ColdGen) {
    let server = Running::start(Some(scratch_dir().join(format!("store-{index}"))));
    let mut gen = ColdGen::new(seed, index);
    let mut conns = server.clients(CONNS);
    let mut sent = 0usize;
    closed_loop(
        &mut conns,
        Instant::now() + Duration::from_secs(3600),
        &mut |buf| {
            (sent < COLD_PREFIX).then(|| {
                sent += 1;
                buf.push_str(&gen.next_req().line);
                0
            })
        },
        &mut |_, reply, _| {
            let r = parse_reply(reply).unwrap_or_else(|| panic!("set-up failed: {reply}"));
            assert!(r.ok && !r.cached, "set-up answer not fresh: {reply}");
        },
    )
    .expect("set-up round trips");
    (server, gen)
}

/// The `serve-cold` workload.
pub fn serve_cold(seed: u64, seconds: f64) -> Measured {
    let mut setup = Samples::default();
    let (server, mut gen) = time_setup(&mut setup, || cold_setup(seed, 0));
    let mut conns = server.clients(CONNS);
    // Lines of requests picked for re-execution, until answered.
    let picked = std::cell::RefCell::new(std::collections::HashMap::new());
    let mut sent = 0u64;
    let mut sample: Vec<(String, String)> = Vec::new();
    let before = server.cache_counts();
    let mut tally = Tally::start(seconds);
    let start = Instant::now();
    closed_loop(
        &mut conns,
        start + Duration::from_secs_f64(seconds),
        &mut |buf| {
            let req = gen.next_req();
            buf.push_str(&req.line);
            let tag = sent;
            sent += 1;
            if tag.is_multiple_of(64) && tag / 64 < COLD_RECHECK as u64 {
                picked.borrow_mut().insert(tag, req.line);
            }
            Some(tag)
        },
        &mut |tag, reply, rtt| {
            let id = tag + (COLD_PREFIX as u64);
            let result = cold_answer_ok(reply, id);
            if let (Some(result), Some(line)) = (result, picked.borrow_mut().remove(&tag)) {
                sample.push((line, result.to_string()));
            }
            tally.record(result.is_some(), rtt);
        },
    )
    .expect("timed round trips");
    let elapsed = start.elapsed();
    let ratio = hit_ratio(before, server.cache_counts());
    let peak = peak_rss_mb();
    drop(conns);
    server.stop();
    for index in 1..SETUPS {
        time_setup(&mut setup, || cold_setup(seed, index as u64))
            .0
            .stop();
    }
    remove_scratch();
    let mut checks = Vec::new();
    if ratio != 0.0 {
        checks.push(format!("serve.cache_hit_ratio {ratio} != 0"));
    }
    println!("serve.cache_hit_ratio {ratio}");
    let fresh = Engine::new(ServerConfig::default().cache_shards);
    let mismatched = sample
        .iter()
        .filter(|(line, result)| {
            let req = parse_request(line.trim_end()).expect("generated requests parse");
            let answer = fresh.execute(&req.body).expect("re-execution succeeds");
            answer.body.as_str() != result
        })
        .count();
    println!(
        "serve-cold re-executed {} sampled answers on a fresh engine: {mismatched} differ",
        sample.len()
    );
    if mismatched > 0 || sample.is_empty() {
        checks.push(format!(
            "{mismatched} of {} re-executed answers differ",
            sample.len()
        ));
    }
    tally.into_measured(setup, elapsed, peak, checks)
}

/// Untraced throughput of one connection driving `next` for `seconds`
/// (answers per second, every answer checked by `ok`): the baseline of
/// the traced phase, which also runs one connection.
fn untraced_rate(
    server: &Running,
    seconds: f64,
    next: &mut dyn FnMut(&mut String) -> Option<u64>,
    ok: &mut dyn FnMut(u64, &str) -> bool,
) -> (f64, u64) {
    let mut conns = server.clients(1);
    let mut good = 0u64;
    let mut bad = 0u64;
    let start = Instant::now();
    closed_loop(
        &mut conns,
        start + Duration::from_secs_f64(seconds),
        next,
        &mut |tag, reply, _| {
            if ok(tag, reply) {
                good += 1;
            } else {
                bad += 1;
            }
        },
    )
    .expect("untraced round trips");
    (good as f64 / start.elapsed().as_secs_f64(), bad)
}

/// The traced replay of `serve-hot`.
pub fn trace_hot(seed: u64, seconds: f64) -> TraceReport {
    let pool = hot_pool(seed, HOT_KEYS);
    let server = Running::start(None);
    let expected = warm(&server, &pool);
    // The in-process twin: the same engine type, warmed with the same
    // keys, answers the replayed calls.
    let local = Engine::new(ServerConfig::default().cache_shards);
    for req in &pool {
        let body = parse_request(req.line.trim_end()).expect("parses").body;
        local.execute(&body).expect("warm-up succeeds");
    }
    let mut rng = Rng::new(seed, HOT_DRAW_STREAM);
    let before = server.cache_counts();
    let (untraced, mut failed) = untraced_rate(
        &server,
        seconds / 2.0,
        &mut |buf| {
            let k = hot_draw(&mut rng, &pool);
            buf.push_str(&pool[k].line);
            Some(k as u64)
        },
        &mut |k, reply| hot_answer_ok(reply, k as usize, &expected),
    );
    let ratio = hit_ratio(before, server.cache_counts());

    let mut t = Tracer::default();
    let mut conn = server.clients(1).pop().expect("one client");
    let mut done = 0u64;
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds / 2.0);
    while Instant::now() < until {
        let k = hot_draw(&mut rng, &pool);
        let line = &pool[k].line;
        t.enter("request", done);
        let req = t.span("serve.parse", || {
            parse_request(line.trim_end()).expect("parses")
        });
        let key = t.span("serve.cache_key", || {
            cache_key(&req.body).expect("cacheable")
        });
        let hit = t.span("serve.cache_get", || local.cache.get(&key));
        let answer = t.span("serve.engine_hit", || {
            local.execute_with_deadline(&req.body, None).expect("hit")
        });
        let envelope = t.span("serve.envelope", || {
            envelope_ok(
                &req.id,
                req.op,
                answer.cached,
                1,
                "0000000000000000",
                &answer.body,
            )
        });
        let ok = t.span("client.tcp_roundtrip", || {
            conn.call(line)
                .map(|reply| hot_answer_ok(reply, k, &expected))
        });
        let ok = t.span("client.check", || {
            ok.expect("round trip")
                && hit.is_some()
                && answer.cached
                && parse_reply(&envelope).is_some_and(|r| r.result == expected[k])
        });
        t.exit();
        done += 1;
        failed += u64::from(!ok);
    }
    let wall = start.elapsed();
    let (queue_wait, exec) = server.stage_p50s();
    server.stop();

    let tcp_us = t.p50_ns("client.tcp_roundtrip") / 1e3;
    let inproc_us =
        (t.p50_ns("serve.parse") + t.p50_ns("serve.engine_hit") + t.p50_ns("serve.envelope")) / 1e3;
    let metrics = vec![
        Metric::new("serve.parse_ns", t.mean_ns("serve.parse"), "ns"),
        Metric::new("serve.cache_key_ns", t.mean_ns("serve.cache_key"), "ns"),
        Metric::new("serve.envelope_ns", t.mean_ns("serve.envelope"), "ns"),
        Metric::new("serve.cache_get_ns", t.mean_ns("serve.cache_get"), "ns"),
        Metric::new("serve.engine_hit_ns", t.mean_ns("serve.engine_hit"), "ns"),
        Metric::new("serve.frontend_p50_us", tcp_us - inproc_us, "us"),
        Metric::new("serve.queue_wait_p50_us.hot", queue_wait, "us"),
        Metric::new("serve.exec_p50_us.hot", exec, "us"),
        Metric::new("serve.cache_hit_ratio.hot", ratio, "ratio"),
    ];
    let mut notes = vec![format!(
        "serve.frontend_p50_us = tcp p50 {tcp_us:.2} us - in-process parse+execute+envelope p50 {inproc_us:.2} us"
    )];
    if ratio != 1.0 {
        notes.push(format!(
            "CHECK FAILED: serve-hot cache hit ratio {ratio} != 1"
        ));
        failed += 1;
    }
    TraceReport {
        workload: "serve-hot",
        tracer: t,
        wall,
        done,
        untraced_aps: untraced,
        failed,
        metrics,
        notes,
    }
}

/// The traced replay of `serve-cold`.
pub fn trace_cold(seed: u64, seconds: f64) -> TraceReport {
    let dir = scratch_dir();
    let server = Running::start(Some(dir.join("server")));
    let mut gen = ColdGen::new(seed, 0x7472);
    let before = server.cache_counts();
    let mut sent = 0u64;
    let (untraced, mut failed) = untraced_rate(
        &server,
        seconds / 2.0,
        &mut |buf| {
            buf.push_str(&gen.next_req().line);
            sent += 1;
            Some(sent - 1)
        },
        &mut |id, reply| cold_answer_ok(reply, id).is_some(),
    );
    let ratio = hit_ratio(before, server.cache_counts());

    // In-process twins of each tier, timed one call at a time.
    let local = Engine::new(ServerConfig::default().cache_shards);
    let cache = ShardedCache::new(ServerConfig::default().cache_shards);
    let store_dir = dir.join("local");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = Store::open(&store_dir).expect("open a fresh store");
    let channel = ChannelConfig::paper_hallway();
    let table = AnalyticTable::new(channel);
    let budgets = Arc::new(LinkBudgetTable::new(channel));
    let predictor = Optimizer::paper().predictor;
    let options = SimOptions {
        packets: DEFAULT_PACKETS,
        record_packets: false,
        traffic: TrafficModel::Periodic,
        ..SimOptions::paper(DEFAULT_SEED)
    };
    let mut evaluations = Samples::default();

    let mut t = Tracer::default();
    let mut conn = server.clients(1).pop().expect("one client");
    let mut done = 0u64;
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds / 2.0);
    // Past the deadline, keep going until every kind has been timed once.
    let mut seen = [false; 8];
    while Instant::now() < until || seen.contains(&false) {
        let req_line = gen.next_req();
        seen[req_line.kind as usize] = true;
        let id = sent;
        sent += 1;
        let line = req_line.line.as_str();
        t.enter("request", done);
        let req = t.span("serve.parse", || {
            parse_request(line.trim_end()).expect("parses")
        });
        let key = t.span("serve.cache_key", || {
            cache_key(&req.body).expect("cacheable")
        });
        let answer = t.span(req_line.kind.miss_span(), || {
            local.execute_with_deadline(&req.body, None)
        });
        let answer = answer.expect("cold request succeeds");
        t.span("serve.cache_insert", || {
            cache.insert(key.clone(), Arc::clone(&answer.body))
        });
        let absent = t.span("serve.store_get_miss", || store.get(&key).is_none());
        t.span("serve.store_append", || store.append(&key, &answer.body))
            .expect("store append");
        let envelope = t.span("serve.envelope", || {
            envelope_ok(
                &req.id,
                req.op,
                answer.cached,
                1,
                "0000000000000000",
                &answer.body,
            )
        });
        match &req.body {
            RequestBody::Predict { config, .. } if req_line.kind == Kind::PredictAnalytic => {
                let budget = || budgets.budget(config.power, config.distance);
                t.span("analytic.eval", || {
                    table.lookup_or_eval(config, &options, budget)
                });
                t.span("analytic.hit", || {
                    table.lookup_or_eval(config, &options, budget)
                });
            }
            RequestBody::Predict { config, .. } => {
                t.span("models.predict", || predictor.evaluate(config));
            }
            _ => {}
        }
        let reply = t.span("client.tcp_roundtrip", || {
            conn.call(line)
                .map(|reply| cold_answer_ok(reply, id).map(str::to_string))
        });
        let ok = t.span("client.check", || {
            let remote = reply.expect("round trip");
            absent
                && !answer.cached
                && remote.as_deref() == Some(answer.body.as_str())
                && parse_reply(&envelope).is_some_and(|r| r.result == answer.body.as_str())
        });
        t.exit();
        if req_line.kind == Kind::Explore {
            let v = serde_json::parse(&answer.body).expect("JSON body");
            evaluations.push(
                v.field("evaluations")
                    .as_f64()
                    .expect("explore reports evaluations"),
            );
        }
        done += 1;
        failed += u64::from(!ok);
    }
    let wall = start.elapsed();
    let (queue_wait, exec) = server.stage_p50s();
    server.stop();
    let disk = store.stats();
    drop(store);
    remove_scratch();

    let mut metrics = vec![
        Metric::new("serve.queue_wait_p50_us.cold", queue_wait, "us"),
        Metric::new("serve.exec_p50_us.cold", exec, "us"),
        Metric::new("serve.cache_hit_ratio.cold", ratio, "ratio"),
    ];
    for kind in Kind::ALL {
        metrics.push(Metric::owned(
            format!("serve.miss_us.{}", kind.name()),
            t.mean_ns(kind.miss_span()) / 1e3,
            "us",
        ));
    }
    metrics.extend([
        Metric::new(
            "serve.cache_insert_ns",
            t.mean_ns("serve.cache_insert"),
            "ns",
        ),
        Metric::new(
            "serve.store_get_miss_ns",
            t.mean_ns("serve.store_get_miss"),
            "ns",
        ),
        Metric::new(
            "serve.store_append_us",
            t.mean_ns("serve.store_append") / 1e3,
            "us",
        ),
        Metric::new(
            "serve.store_bytes_per_record",
            disk.bytes as f64 / disk.records.max(1) as f64,
            "bytes",
        ),
        Metric::new("analytic.eval_us", t.mean_ns("analytic.eval") / 1e3, "us"),
        Metric::new("analytic.hit_ns", t.mean_ns("analytic.hit"), "ns"),
        Metric::new("models.predict_ns", t.mean_ns("models.predict"), "ns"),
        Metric::new("models.explore_evaluations", evaluations.mean(), "count"),
    ]);
    let mut notes = Vec::new();
    if ratio != 0.0 {
        notes.push(format!(
            "CHECK FAILED: serve-cold cache hit ratio {ratio} != 0"
        ));
        failed += 1;
    }
    TraceReport {
        workload: "serve-cold",
        tracer: t,
        wall,
        done,
        untraced_aps: untraced,
        failed,
        metrics,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_lines_never_repeat_a_key() {
        let mut gen = ColdGen::new(7, 0);
        let mut seen = HashSet::new();
        let mut kinds = HashSet::new();
        // Enough lines for analytic predict to walk past the whole grid,
        // so keys after the wrap's distance shift are covered too.
        for _ in 0..240_000 {
            let req = gen.next_req();
            kinds.insert(req.kind.name());
            assert!(seen.insert(key_of(&req.line)), "repeated: {}", req.line);
        }
        assert_eq!(kinds.len(), Kind::ALL.len());
        assert!(gen.counts[Kind::PredictAnalytic as usize] > ParamGrid::paper().len() as u64);
    }

    #[test]
    fn hot_lines_are_all_in_the_warm_set() {
        let pool = hot_pool(11, HOT_KEYS);
        let warm: HashSet<String> = pool.iter().map(|r| key_of(&r.line)).collect();
        assert_eq!(warm.len(), HOT_KEYS, "warm keys are distinct");
        // Every key the timed phase sends was answered during set-up.
        let mut rng = Rng::new(11, HOT_DRAW_STREAM);
        for _ in 0..10_000 {
            let k = hot_draw(&mut rng, &pool);
            assert!(warm.contains(&key_of(&pool[k].line)));
        }
        // Same seed, same inputs; another seed, other inputs.
        assert_eq!(pool[5].line, hot_pool(11, HOT_KEYS)[5].line);
        assert_ne!(pool[5].line, hot_pool(12, HOT_KEYS)[5].line);
    }

    #[test]
    fn replies_are_split_and_errors_rejected() {
        let ok = envelope_ok(
            "7",
            wsn_serve::protocol::Op::Predict,
            true,
            3,
            "ab",
            r#"{"x":1}"#,
        );
        assert_eq!(
            parse_reply(&ok),
            Some(Reply {
                id: "7",
                ok: true,
                cached: true,
                result: r#"{"x":1}"#
            })
        );
        let err = wsn_serve::protocol::envelope_err(
            "7",
            None,
            None,
            wsn_serve::protocol::ErrCode::BadRequest,
            "no",
        );
        assert_eq!(parse_reply(&err), None);
    }
}
