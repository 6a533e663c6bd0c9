//! The execution engine: turns a parsed request body into a serialized
//! `result` JSON string, consulting the sharded result cache first.
//!
//! The engine owns exactly the shared state every worker needs — one
//! evaluation context per [`Profile`] (an [`EngineRunner`] on its channel
//! and load, and the golden [`Predictor`]), one [`ShardedCache`], one
//! [`ServeStats`] —
//! and no per-connection state, so a single `Arc<Engine>` fans out to the
//! whole pool.
//!
//! `tune` and `pareto` run the shared selection rules of [`GridScan`] on
//! a closed-form scanner — the golden predictor or the analytic engine —
//! wrapped in an `Evaluator`, which counts candidates and stops the scan
//! at the request deadline. `explore` scores one candidate at a time
//! (the fast sampler included) and counts each against the same deadline.
//!
//! Caching contract: the cache stores the *serialized result string*, and
//! the envelope splices it in verbatim, so a repeat request returns a
//! byte-identical `result` by construction — there is no re-serialization
//! step that could reorder fields or reformat floats. Error results and
//! live ops (`stats`, `shutdown`) are never cached.

use std::cell::{Cell, RefCell};
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

use wsn_analytic::runner::{AnalyticScan, EngineRunner};
use wsn_analytic::AnalyticReport;
use wsn_link_sim::catalog::{all_scenarios, build_scenario};
use wsn_link_sim::metrics::LinkMetrics;
use wsn_link_sim::network::{AirStats, NetOptions, NetworkSimulation, TopoStats};
use wsn_models::explore::explore_grid;
use wsn_models::optimize::{knee, GridScan, Metric};
use wsn_models::predict::{LinkBudget, Predicted, Predictor};
use wsn_params::config::StackConfig;
use wsn_params::grid::ParamGrid;
use wsn_params::types::Distance;
use wsn_sim_engine::mode::EngineMode;

use serde::Serialize;

use crate::cache::ShardedCache;
use crate::protocol::{
    cache_key, metric_name, ErrCode, Profile, RequestBody, TimelineSpec, DEFAULT_PACKETS,
    DEFAULT_SEED,
};
use crate::stats::ServeStats;
use crate::store::Store;

/// A failed execution: the stable machine-readable code for the error
/// envelope plus the human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// The envelope's `"code"`.
    pub code: ErrCode,
    /// The envelope's `"error"`.
    pub message: String,
}

impl ExecError {
    /// The request was semantically wrong (unknown scenario, infeasible
    /// constraints, out-of-domain parameter).
    fn bad_request(message: String) -> Self {
        ExecError {
            code: ErrCode::BadRequest,
            message,
        }
    }

    /// The request's deadline expired mid-scan.
    fn deadline(scanned: u64) -> Self {
        ExecError {
            code: ErrCode::Deadline,
            message: format!("deadline expired after {scanned} candidate evaluations"),
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// The shared request executor.
#[derive(Debug)]
pub struct Engine {
    /// One evaluation context per [`Profile`], in declaration order.
    profiles: [ProfileCtx; 2],
    /// The in-memory result cache (tier 1).
    pub cache: ShardedCache,
    /// The optional persistent result store (tier 2).
    store: Option<Arc<Store>>,
    /// Service counters.
    pub stats: ServeStats,
}

/// How many candidate evaluations a grid scan runs between deadline
/// checks. A golden prediction costs ~20 ns; an analytic candidate costs
/// one queue stage, plus one link-stage lookup per 14 candidates (a cold
/// lookup computes the stage, ~15 µs). This stride bounds the overshoot
/// past an expired deadline to about a millisecond at worst while keeping
/// `Instant::now` off the hot path.
const DEADLINE_STRIDE: u64 = 64;

/// Everything a [`Profile`] pins: the engine runner on its channel and
/// load (the memo tables are valid for one channel only, hence one runner
/// per profile) and the golden predictor on its link budget.
#[derive(Debug)]
struct ProfileCtx {
    runner: EngineRunner,
    predictor: Predictor,
}

impl ProfileCtx {
    /// The paper profile's predictor uses the hallway budget; the case
    /// study's the shadowed 35 m budget of Sec. VIII-C, where the
    /// published winner (`Ptx=31`, interior payload, `N=3`) emerges.
    fn new(profile: Profile) -> Self {
        let mut predictor = Predictor::paper();
        predictor.budget = match profile {
            Profile::Paper => LinkBudget::paper_hallway(),
            Profile::CaseStudy => LinkBudget::case_study(),
        };
        ProfileCtx {
            runner: EngineRunner::new(profile.channel(), profile.traffic()),
            predictor,
        }
    }
}

/// Counts one candidate of a scan against the request's cooperative
/// deadline: errs with [`ErrCode::Deadline`] once the wall clock has passed
/// it, read every [`DEADLINE_STRIDE`] candidates. `None` never fires, so
/// undeadlined scans pay only the counter increment.
fn count(scanned: &Cell<u64>, deadline: Option<Instant>) -> Result<(), ExecError> {
    scanned.set(scanned.get() + 1);
    let expired = || deadline.is_some_and(|at| Instant::now() > at);
    if scanned.get().is_multiple_of(DEADLINE_STRIDE) && expired() {
        return Err(ExecError::deadline(scanned.get()));
    }
    Ok(())
}

/// A closed-form scanner under a request deadline: the [`GridScan`] that
/// `tune` and `pareto` run the shared selection rules on. It scores
/// exactly as the scanner it wraps, counts every candidate, and stops
/// with [`ExecError`] once the deadline has passed.
struct Evaluator<'a, S> {
    scanner: &'a S,
    deadline: Option<Instant>,
    scanned: Cell<u64>,
}

impl<'a, S> Evaluator<'a, S> {
    fn new(scanner: &'a S, deadline: Option<Instant>) -> Self {
        let scanned = Cell::new(0);
        Evaluator {
            scanner,
            deadline,
            scanned,
        }
    }
}

impl<S: GridScan<Stop = Infallible>> GridScan for Evaluator<'_, S> {
    type Score = S::Score;
    type Stop = ExecError;

    fn value(score: &S::Score, metric: Metric) -> f64 {
        S::value(score, metric)
    }

    fn scan<B>(
        &self,
        grid: &ParamGrid,
        mut visit: impl FnMut(&StackConfig, &S::Score) -> ControlFlow<B>,
    ) -> Result<ControlFlow<B>, ExecError> {
        let Ok(flow) = self.scanner.scan(grid, |config, score| {
            match count(&self.scanned, self.deadline) {
                Ok(()) => visit(config, score).map_break(Ok),
                Err(e) => ControlFlow::Break(Err(e)),
            }
        });
        match flow {
            ControlFlow::Continue(()) => Ok(ControlFlow::Continue(())),
            ControlFlow::Break(stop) => stop.map(ControlFlow::Break),
        }
    }
}

/// The paper grid, restricted to `distance_m` (validated) when given.
fn scan_grid(distance_m: Option<f64>) -> Result<ParamGrid, ExecError> {
    let mut grid = ParamGrid::paper();
    if let Some(d) = distance_m {
        Distance::from_meters(d).map_err(|e| ExecError::bad_request(e.to_string()))?;
        grid.distances_m = vec![d];
    }
    Ok(grid)
}

thread_local! {
    /// Per-thread scratch for [`render`]: it keeps the largest body this
    /// thread has rendered, so serializing grows no buffer in steady state.
    static RENDER_BUF: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Serializes a result body as compact JSON (the vendored writer cannot
/// fail) into an exact-size `String`: capacity equals length, so a cached
/// body holds only its own bytes and not a doubled growth buffer.
fn render(value: &impl Serialize) -> String {
    RENDER_BUF.with_borrow_mut(|buf| {
        buf.clear();
        value.serialize(&mut serde::Writer::compact(buf));
        buf.as_str().to_owned()
    })
}

/// The `result` body of a `shutdown` request.
pub(crate) const SHUTDOWN_BODY: &str = "{\"shutting_down\":true}";

/// How a request was answered: the serialized `result` body, and whether
/// it came from the cache.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The serialized result JSON, shared with the cache.
    pub body: Arc<String>,
    /// True when served from the cache.
    pub cached: bool,
}

#[derive(Serialize)]
struct SimulateResult {
    config: StackConfig,
    packets: u64,
    seed: u64,
    engine: String,
    metrics: LinkMetrics,
}

#[derive(Serialize)]
struct PredictResult {
    config: StackConfig,
    predicted: Predicted,
}

/// The `predict` result under `"engine":"analytic"`: the full simulated
/// metric set from the M/G/1 closed-form engine plus its diagnostic
/// report, at the default query scale (golden predict keeps its own
/// historical [`PredictResult`] shape, byte-identical to before).
#[derive(Serialize)]
struct AnalyticPredictResult {
    config: StackConfig,
    engine: String,
    packets: u64,
    metrics: LinkMetrics,
    report: AnalyticReport,
}

/// The analytic pre-scan block of a `tune` result: winner metrics and
/// diagnostics plus how many candidates the scan ranked.
#[derive(Serialize)]
struct AnalyticTuneDetail {
    candidates_ranked: u64,
    metrics: LinkMetrics,
    report: AnalyticReport,
}

#[derive(Serialize)]
struct ConstraintEcho {
    metric: String,
    max: f64,
}

#[derive(Serialize)]
struct TuneResult {
    objective: String,
    constraints: Vec<ConstraintEcho>,
    grid_configs: u64,
    engine: String,
    config: StackConfig,
    predicted: Predicted,
    /// Fast-engine check of the winner (the only candidate that is
    /// re-simulated): present under `"engine":"fast"` and `"analytic"`,
    /// `null` on the (default) predictor-only golden answer.
    simulated: Option<LinkMetrics>,
    /// The analytic pre-scan block, written under `"engine":"analytic"`
    /// only.
    #[serde(skip_serializing_if = "Option::is_none")]
    analytic: Option<AnalyticTuneDetail>,
}

/// One non-dominated configuration of a `pareto` result. `values` line up
/// with the request's metric order, in display sense (goodput positive).
#[derive(Serialize)]
struct FrontMember {
    config: StackConfig,
    values: Vec<f64>,
}

/// The Pareto front of one grid distance, sorted by the first metric
/// (minimization sense), plus the chord-rule knee when the front is
/// two-dimensional with at least 3 points.
#[derive(Serialize)]
struct DistanceFront {
    distance_m: f64,
    front: Vec<FrontMember>,
    knee: Option<FrontMember>,
}

#[derive(Serialize)]
struct ParetoResult {
    metrics: Vec<String>,
    engine: String,
    profile: String,
    grid_configs: u64,
    distances: Vec<DistanceFront>,
}

/// How an `explore` budget was spent across the three search phases.
#[derive(Serialize)]
struct ExploreStrategy {
    swept: u64,
    refined: u64,
    local: u64,
}

/// The `explore` result: the winner, scored by the backend that searched
/// — a closed-form prediction under golden, the full metric set under
/// analytic and fast. Exactly one of the two is written.
#[derive(Serialize)]
struct ExploreResult {
    objective: String,
    constraints: Vec<ConstraintEcho>,
    budget: u64,
    evaluations: u64,
    grid_configs: u64,
    engine: String,
    profile: String,
    strategy: ExploreStrategy,
    config: StackConfig,
    /// The winner's objective in display sense (goodput positive).
    objective_value: f64,
    #[serde(skip_serializing_if = "Option::is_none")]
    predicted: Option<Predicted>,
    #[serde(skip_serializing_if = "Option::is_none")]
    metrics: Option<LinkMetrics>,
}

#[derive(Serialize)]
struct ScenarioLinkResult {
    config: StackConfig,
    metrics: LinkMetrics,
    frames_interfered: u64,
    frames_capture_lost: u64,
}

#[derive(Serialize)]
struct ScenarioResult {
    scenario: String,
    description: String,
    packets: u64,
    seed: u64,
    /// The timeline's canonical digest (the same value that partitions
    /// the cache key) and the replayed topology counters, written only
    /// when a `timeline` rode along.
    #[serde(skip_serializing_if = "Option::is_none")]
    timeline_digest: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    topo: Option<TopoStats>,
    links: Vec<ScenarioLinkResult>,
    air: AirStats,
    plr_radio: f64,
    goodput_bps: f64,
}

/// The memory tier of a `cache` op result.
#[derive(Serialize)]
struct CacheTierMem {
    entries: u64,
    hits: u64,
    misses: u64,
    hit_rate: f64,
    evictions: u64,
    /// Key and body bytes held.
    bytes: u64,
}

/// The disk tier of a `cache` op result. All-zero with `enabled:false`
/// when the server runs without `--store`.
#[derive(Serialize)]
struct CacheTierDisk {
    enabled: bool,
    records: u64,
    segments: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    appends: u64,
}

/// What the `cache` op returns.
#[derive(Serialize)]
struct CacheOpResult {
    mem: CacheTierMem,
    disk: CacheTierDisk,
    flushed: bool,
    flushed_entries: u64,
}

/// Serializes the result body a `simulate` request for this exact
/// (`config`, `packets`, `seed`, `engine`) tuple would produce from
/// `metrics` — the warm-from-campaign path. Byte-identity with a live
/// answer is by construction: the live `simulate` op calls this too.
pub fn simulate_result_body(
    config: &StackConfig,
    packets: u64,
    seed: u64,
    engine: EngineMode,
    metrics: &LinkMetrics,
) -> String {
    render(&SimulateResult {
        config: *config,
        packets,
        seed,
        engine: engine.name().to_string(),
        metrics: metrics.clone(),
    })
}

/// The constraint echo block shared by `tune`/`explore` result bodies,
/// in request order.
fn constraint_echo(constraints: &[(Metric, f64)]) -> Vec<ConstraintEcho> {
    constraints
        .iter()
        .map(|(m, max)| ConstraintEcho {
            metric: metric_name(*m).to_string(),
            max: *max,
        })
        .collect()
}

/// The `pareto` front of every distance of `grid` under `scanner` and
/// `deadline`: each sorted by the first metric, values in display sense,
/// the chord-rule knee attached when the front is two-dimensional.
fn fronts<S: GridScan<Stop = Infallible>>(
    scanner: &S,
    deadline: Option<Instant>,
    grid: &ParamGrid,
    metrics: &[Metric],
) -> Result<Vec<DistanceFront>, ExecError> {
    let scanner = Evaluator::new(scanner, deadline);
    grid.distances_m
        .iter()
        .map(|&d| {
            let slice = ParamGrid {
                distances_m: vec![d],
                ..grid.clone()
            };
            let front = scanner.pareto_front(&slice, metrics)?;
            let member = |i: usize| FrontMember {
                config: front[i].0,
                values: (metrics.iter().zip(&front[i].1))
                    .map(|(m, v)| m.display_value(*v))
                    .collect(),
            };
            Ok(DistanceFront {
                distance_m: d,
                front: (0..front.len()).map(member).collect(),
                knee: knee(&front).map(member),
            })
        })
        .collect()
}

impl Engine {
    /// An engine on the paper's hallway channel with a `shards`-way result
    /// cache.
    pub fn new(shards: usize) -> Self {
        Engine {
            profiles: [Profile::Paper, Profile::CaseStudy].map(ProfileCtx::new),
            cache: ShardedCache::new(shards),
            store: None,
            stats: ServeStats::new(),
        }
    }

    /// Attaches a persistent store as the cache's second tier: memory
    /// misses fall through to disk (promoting hits back to memory), and
    /// freshly computed results are appended for the next restart.
    #[must_use]
    pub fn with_store(mut self, store: Store) -> Self {
        self.store = Some(Arc::new(store));
        self
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_deref()
    }

    /// Installs `body` as the answer for `key` in both tiers — the
    /// warm-from-campaign path. The memory tier always learns the entry;
    /// the disk tier is only appended when it does not already hold the
    /// key, so re-warming from the same campaign is idempotent on disk.
    ///
    /// # Errors
    ///
    /// Propagates store append failures.
    pub fn warm_insert(&self, key: &str, body: &str) -> std::io::Result<()> {
        if let Some(store) = &self.store {
            if store.get(key).is_none() {
                store.append(key, body)?;
            }
        }
        self.cache
            .insert(key.to_string(), Arc::new(body.to_string()));
        Ok(())
    }

    /// Executes `body`, serving from the cache when the canonical key has
    /// been answered before.
    ///
    /// # Errors
    ///
    /// Returns the error message for the client (`unknown scenario`,
    /// `no feasible configuration`, …). Errors are never cached, so a
    /// query that fails for transient semantic reasons (e.g. a tune that
    /// becomes feasible after loosening a constraint) is recomputed.
    pub fn execute(&self, body: &RequestBody) -> Result<Answer, ExecError> {
        self.execute_with_deadline(body, None)
    }

    /// [`Engine::execute`] under a cooperative deadline: long grid scans
    /// (`tune`, `pareto`, `explore`) check the clock between candidate
    /// evaluations and abort with [`ErrCode::Deadline`] instead of
    /// burning a worker past the client's patience. Cache hits ignore the
    /// deadline — a stored answer is free.
    ///
    /// # Errors
    ///
    /// As [`Engine::execute`], plus the `deadline` code on expiry.
    pub fn execute_with_deadline(
        &self,
        body: &RequestBody,
        deadline: Option<Instant>,
    ) -> Result<Answer, ExecError> {
        self.execute_keyed(body, cache_key(body), deadline)
    }

    /// [`Engine::execute_with_deadline`] with the body's [`cache_key`]
    /// already built — the server's front end builds it once, probes the
    /// memory tier with it, and hands it to the worker on a miss. The
    /// memory tier is looked up again here (a pipelined duplicate may have
    /// landed since the probe), and this lookup counts the hit or miss.
    pub(crate) fn execute_keyed(
        &self,
        body: &RequestBody,
        key: Option<String>,
        deadline: Option<Instant>,
    ) -> Result<Answer, ExecError> {
        if let Some(key) = &key {
            if let Some(hit) = self.cache.get(key) {
                return Ok(Answer {
                    body: hit,
                    cached: true,
                });
            }
            // Memory miss: consult the disk tier, promoting a hit back
            // into memory so the next lookup is one hash probe again.
            if let Some(store) = &self.store {
                if let Some(hit) = store.get(key) {
                    let hit = Arc::new(hit);
                    self.cache.insert(key.clone(), Arc::clone(&hit));
                    return Ok(Answer {
                        body: hit,
                        cached: true,
                    });
                }
            }
        }
        let body = Arc::new(self.compute(body, deadline)?);
        if let Some(key) = key {
            if let Some(store) = &self.store {
                // A store write failure must not fail the request — the
                // answer is correct, it just will not survive a restart.
                let _ = store.append(&key, &body);
            }
            self.cache.insert(key, Arc::clone(&body));
        }
        Ok(Answer {
            body,
            cached: false,
        })
    }

    fn compute(&self, body: &RequestBody, deadline: Option<Instant>) -> Result<String, ExecError> {
        match body {
            RequestBody::Simulate {
                config,
                packets,
                seed,
                engine,
            } => Ok(simulate_result_body(
                config,
                *packets,
                *seed,
                *engine,
                &self.simulate(*config, *packets, *seed, *engine),
            )),
            RequestBody::Predict { config, engine } => Ok(match engine {
                EngineMode::Analytic => {
                    let outcome = self.paper().runner.analytic(*config, DEFAULT_PACKETS);
                    render(&AnalyticPredictResult {
                        config: *config,
                        engine: engine.name().to_string(),
                        packets: DEFAULT_PACKETS,
                        report: outcome.report,
                        metrics: outcome.into_metrics(),
                    })
                }
                // Golden keeps the historical body, byte-identical.
                _ => render(&PredictResult {
                    config: *config,
                    predicted: self.paper().predictor.evaluate(config),
                }),
            }),
            RequestBody::Tune {
                objective,
                constraints,
                distance_m,
                engine,
            } => self.tune(*objective, constraints, *distance_m, *engine, deadline),
            RequestBody::Pareto {
                metrics,
                distance_m,
                engine,
                profile,
            } => self.pareto(metrics, *distance_m, *engine, *profile, deadline),
            RequestBody::Explore {
                objective,
                constraints,
                budget,
                distance_m,
                engine,
                profile,
            } => self.explore(
                *objective,
                constraints,
                *budget,
                *distance_m,
                *engine,
                *profile,
                deadline,
            ),
            RequestBody::Scenario {
                scenario,
                packets,
                seed,
                timeline,
            } => self.scenario(scenario, *packets, *seed, timeline.as_ref()),
            RequestBody::Cache { flush } => {
                // Flush first so the reported memory tier reflects the
                // state the client asked for.
                let flushed_entries = if *flush { self.cache.flush() as u64 } else { 0 };
                let hits = self.cache.hits();
                let misses = self.cache.misses();
                let lookups = hits + misses;
                let disk = match &self.store {
                    Some(store) => {
                        let s = store.stats();
                        CacheTierDisk {
                            enabled: true,
                            records: s.records,
                            segments: s.segments,
                            bytes: s.bytes,
                            hits: s.hits,
                            misses: s.misses,
                            appends: s.appends,
                        }
                    }
                    None => CacheTierDisk {
                        enabled: false,
                        records: 0,
                        segments: 0,
                        bytes: 0,
                        hits: 0,
                        misses: 0,
                        appends: 0,
                    },
                };
                Ok(render(&CacheOpResult {
                    mem: CacheTierMem {
                        entries: self.cache.len() as u64,
                        hits,
                        misses,
                        hit_rate: if lookups == 0 {
                            0.0
                        } else {
                            hits as f64 / lookups as f64
                        },
                        evictions: self.cache.evictions(),
                        bytes: self.cache.bytes() as u64,
                    },
                    disk,
                    flushed: *flush,
                    flushed_entries,
                }))
            }
            RequestBody::Stats => Ok(render(&self.stats.snapshot(
                self.cache.hits(),
                self.cache.misses(),
                self.cache.len(),
                self.cache.evictions(),
            ))),
            // The server answers shutdown itself; reaching here means a
            // worker was handed one anyway — answer it honestly.
            RequestBody::Shutdown => Ok(SHUTDOWN_BODY.to_string()),
        }
    }

    /// The paper profile's context: `simulate`, `predict` and `tune` run
    /// on the hallway channel only.
    fn paper(&self) -> &ProfileCtx {
        self.profile(Profile::Paper)
    }

    fn profile(&self, profile: Profile) -> &ProfileCtx {
        &self.profiles[profile as usize]
    }

    /// Runs one configuration under the requested engine mode. No
    /// single-link engine has an event loop, so only `scenario` runs feed
    /// the executor counters.
    fn simulate(
        &self,
        config: StackConfig,
        packets: u64,
        seed: u64,
        engine: EngineMode,
    ) -> LinkMetrics {
        self.paper().runner.run(engine, config, packets, seed)
    }

    /// The `tune` op: the ε-constraint optimum over the paper grid. The
    /// golden and fast engines rank closed-form predictions; the analytic
    /// engine ranks memoized M/G/1 evaluations at each candidate's own
    /// periodic operating point, so its goodput objective ranks
    /// *achieved* goodput where the predictor ranks the saturated maximum
    /// (Eq. 4). Fast and analytic then re-run the winner — and only the
    /// winner — through the fast sampler as an empirical cross-check.
    fn tune(
        &self,
        objective: Metric,
        constraints: &[(Metric, f64)],
        distance_m: Option<f64>,
        engine: EngineMode,
        deadline: Option<Instant>,
    ) -> Result<String, ExecError> {
        let grid = scan_grid(distance_m)?;
        let paper = self.paper();
        let winner = if engine == EngineMode::Analytic {
            let scan = paper.runner.analytic_scan(DEFAULT_PACKETS);
            Evaluator::new(&scan, deadline).epsilon_constraint(&grid, objective, constraints)
        } else {
            let predictor = &paper.predictor;
            Evaluator::new(predictor, deadline).epsilon_constraint(&grid, objective, constraints)
        }?;
        let config = winner.ok_or_else(|| {
            ExecError::bad_request("no feasible configuration on the grid".to_string())
        })?;
        let grid_configs = grid.len() as u64;
        // A memo hit: the scan already evaluated the winner.
        let analytic = (engine == EngineMode::Analytic).then(|| {
            let outcome = paper.runner.analytic(config, DEFAULT_PACKETS);
            AnalyticTuneDetail {
                candidates_ranked: grid_configs,
                report: outcome.report,
                metrics: outcome.into_metrics(),
            }
        });
        Ok(render(&TuneResult {
            objective: metric_name(objective).to_string(),
            constraints: constraint_echo(constraints),
            grid_configs,
            engine: engine.name().to_string(),
            config,
            predicted: paper.predictor.evaluate(&config),
            simulated: (engine != EngineMode::Golden).then(|| {
                paper
                    .runner
                    .run(EngineMode::Fast, config, DEFAULT_PACKETS, DEFAULT_SEED)
            }),
            analytic,
        }))
    }

    /// The `pareto` op: the exact non-dominated set of every requested
    /// distance, each front sorted by the first metric, the chord-rule
    /// knee attached when the front is two-dimensional. The golden
    /// backend ranks closed-form predictions; the analytic backend ranks
    /// memoized M/G/1 evaluations at each candidate's own operating
    /// point.
    fn pareto(
        &self,
        metrics: &[Metric],
        distance_m: Option<f64>,
        engine: EngineMode,
        profile: Profile,
        deadline: Option<Instant>,
    ) -> Result<String, ExecError> {
        let grid = scan_grid(distance_m)?;
        let ctx = self.profile(profile);
        let distances = if engine == EngineMode::Analytic {
            fronts(
                &ctx.runner.analytic_scan(DEFAULT_PACKETS),
                deadline,
                &grid,
                metrics,
            )
        } else {
            fronts(&ctx.predictor, deadline, &grid, metrics)
        }?;
        Ok(render(&ParetoResult {
            metrics: metrics
                .iter()
                .map(|m| metric_name(*m).to_string())
                .collect(),
            engine: engine.name().to_string(),
            profile: profile.name().to_string(),
            grid_configs: grid.len() as u64,
            distances,
        }))
    }

    /// The `explore` op: budgeted search through
    /// [`wsn_models::explore::explore_grid`] (coprime-stride sweep →
    /// successive halving → hill climb), never spending more candidate
    /// evaluations than `budget`. Each engine scores with its own
    /// backend, and the winner is re-rendered from that same backend.
    #[allow(clippy::too_many_arguments)]
    fn explore(
        &self,
        objective: Metric,
        constraints: &[(Metric, f64)],
        budget: u64,
        distance_m: Option<f64>,
        engine: EngineMode,
        profile: Profile,
        deadline: Option<Instant>,
    ) -> Result<String, ExecError> {
        let grid = scan_grid(distance_m)?;
        let ctx = self.profile(profile);
        let predictor = &ctx.predictor;
        // Golden searches with the predictor; analytic and fast with their
        // own engine at the default scale and seed.
        let simulate = |config: StackConfig| {
            ctx.runner
                .run(engine, config, DEFAULT_PACKETS, DEFAULT_SEED)
        };
        let scanned = Cell::new(0);
        let outcome = explore_grid(&grid, budget, |_, config| {
            count(&scanned, deadline)?;
            Ok(match engine {
                EngineMode::Golden => {
                    Predictor::feasible(&predictor.evaluate(config), objective, constraints)
                }
                _ => AnalyticScan::feasible(&simulate(*config), objective, constraints),
            })
        })?
        .ok_or_else(|| {
            ExecError::bad_request("no feasible configuration found within the budget".to_string())
        })?;
        let config = grid.config_at(outcome.best_index);
        // The winner is re-rendered uncounted: free (predictor, analytic
        // memo hit) or deterministic (fast sampler, fixed seed).
        let golden = engine == EngineMode::Golden;
        Ok(render(&ExploreResult {
            objective: metric_name(objective).to_string(),
            constraints: constraint_echo(constraints),
            budget,
            evaluations: outcome.evaluations,
            grid_configs: grid.len() as u64,
            engine: engine.name().to_string(),
            profile: profile.name().to_string(),
            strategy: ExploreStrategy {
                swept: outcome.swept,
                refined: outcome.refined,
                local: outcome.local,
            },
            config,
            objective_value: objective.display_value(outcome.best_value),
            predicted: golden.then(|| predictor.evaluate(&config)),
            metrics: (!golden).then(|| simulate(config)),
        }))
    }

    fn scenario(
        &self,
        id: &str,
        packets: u64,
        seed: u64,
        timeline: Option<&TimelineSpec>,
    ) -> Result<String, ExecError> {
        let scenario = build_scenario(id).ok_or_else(|| {
            let known: Vec<&str> = all_scenarios().iter().map(|(n, _)| *n).collect();
            ExecError::bad_request(format!(
                "unknown scenario '{id}'; known: {}",
                known.join(", ")
            ))
        })?;
        let description = all_scenarios()
            .iter()
            .find(|(n, _)| *n == id)
            .map(|(_, d)| *d)
            .unwrap_or_default();
        let options = NetOptions {
            seed,
            record_packets: false,
            ..NetOptions::quick(packets)
        };
        let timeline = match timeline {
            Some(spec) => Some(spec.resolve(id).map_err(ExecError::bad_request)?),
            None => None,
        };
        let mut sim = NetworkSimulation::new(scenario, options);
        let timeline_digest = timeline.as_ref().map(|t| format!("{:016x}", t.digest()));
        if let Some(timeline) = timeline {
            sim = sim.with_timeline(timeline);
        }
        let outcome = sim.run();
        self.stats.observe_exec(&outcome.exec);
        Ok(render(&ScenarioResult {
            scenario: id.to_string(),
            description: description.to_string(),
            packets,
            seed,
            topo: timeline_digest.is_some().then_some(outcome.topo),
            timeline_digest,
            plr_radio: outcome.plr_radio(),
            goodput_bps: outcome.goodput_bps(),
            links: outcome
                .links
                .into_iter()
                .map(|link| ScenarioLinkResult {
                    config: link.config,
                    metrics: link.metrics,
                    frames_interfered: link.frames_interfered,
                    frames_capture_lost: link.frames_capture_lost,
                })
                .collect(),
            air: outcome.air,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;
    use wsn_models::optimize::Optimizer;

    fn body(line: &str) -> RequestBody {
        parse_request(line).expect("valid request").body
    }

    #[test]
    fn simulate_is_cached_and_byte_identical() {
        let engine = Engine::new(4);
        let req = body(r#"{"op":"simulate","packets":40,"config":{"distance_m":20.0}}"#);
        let first = engine.execute(&req).unwrap();
        assert!(!first.cached);
        let second = engine.execute(&req).unwrap();
        assert!(second.cached);
        assert_eq!(first.body.as_str(), second.body.as_str());
        // The result parses and carries the echo fields.
        let v = serde_json::parse(&first.body).unwrap();
        assert_eq!(v.field("packets").as_u64(), Some(40));
        assert_eq!(v.field("config").field("distance").as_f64(), Some(20.0));
        assert!(v.field("metrics").field("generated").as_u64().unwrap() >= 40);
    }

    #[test]
    fn fast_and_golden_answers_never_share_a_cache_line() {
        let engine = Engine::new(4);
        let golden = body(r#"{"op":"simulate","packets":40,"config":{"distance_m":20.0}}"#);
        let fast =
            body(r#"{"op":"simulate","packets":40,"config":{"distance_m":20.0},"engine":"fast"}"#);
        let g = engine.execute(&golden).unwrap();
        assert!(!g.cached);
        // The fast request must recompute, not be served the golden body.
        let f = engine.execute(&fast).unwrap();
        assert!(!f.cached);
        let v = serde_json::parse(&f.body).unwrap();
        assert_eq!(v.field("engine").as_str(), Some("fast"));
        assert_eq!(v.field("metrics").field("generated").as_u64(), Some(40));
        // Each mode then hits its own line, byte-identically.
        assert!(engine.execute(&fast).unwrap().cached);
        let g2 = engine.execute(&golden).unwrap();
        assert!(g2.cached);
        assert_eq!(g2.body.as_str(), g.body.as_str());
        let vg = serde_json::parse(&g2.body).unwrap();
        assert_eq!(vg.field("engine").as_str(), Some("golden"));
    }

    #[test]
    fn fast_tune_simulates_the_analytic_winner() {
        let engine = Engine::new(4);
        let fast = body(r#"{"op":"tune","objective":"goodput","distance_m":20.0,"engine":"fast"}"#);
        let answer = engine.execute(&fast).unwrap();
        let v = serde_json::parse(&answer.body).unwrap();
        assert_eq!(v.field("engine").as_str(), Some("fast"));
        assert!(v.field("simulated").field("generated").as_u64().unwrap() > 0);

        // The golden tune stays analytic-only on a separate cache line.
        let golden = body(r#"{"op":"tune","objective":"goodput","distance_m":20.0}"#);
        let g = engine.execute(&golden).unwrap();
        assert!(!g.cached);
        let vg = serde_json::parse(&g.body).unwrap();
        assert_eq!(vg.field("engine").as_str(), Some("golden"));
        assert_eq!(vg.field("simulated").kind(), "null");
        assert_eq!(
            vg.field("config").field("distance").as_f64(),
            v.field("config").field("distance").as_f64()
        );
    }

    #[test]
    fn analytic_simulate_is_cached_on_its_own_line() {
        let engine = Engine::new(4);
        let golden = body(r#"{"op":"simulate","packets":40,"config":{"distance_m":20.0}}"#);
        let analytic = body(
            r#"{"op":"simulate","packets":40,"config":{"distance_m":20.0},"engine":"analytic"}"#,
        );
        engine.execute(&golden).unwrap();
        // The analytic request recomputes rather than borrowing the
        // golden body …
        let a = engine.execute(&analytic).unwrap();
        assert!(!a.cached);
        let v = serde_json::parse(&a.body).unwrap();
        assert_eq!(v.field("engine").as_str(), Some("analytic"));
        assert_eq!(v.field("metrics").field("generated").as_u64(), Some(40));
        // … and then hits its own cache line byte-identically.
        let repeat = engine.execute(&analytic).unwrap();
        assert!(repeat.cached);
        assert_eq!(repeat.body.as_str(), a.body.as_str());
    }

    #[test]
    fn analytic_predict_returns_full_metrics_and_report() {
        let engine = Engine::new(4);
        let golden = body(r#"{"op":"predict","config":{"distance_m":20.0}}"#);
        let analytic = body(r#"{"op":"predict","config":{"distance_m":20.0},"engine":"analytic"}"#);
        let g = engine.execute(&golden).unwrap();
        let a = engine.execute(&analytic).unwrap();
        assert!(!a.cached, "analytic predict must not reuse the golden line");

        // The golden body keeps its historical shape: no engine echo.
        let vg = serde_json::parse(&g.body).unwrap();
        assert_eq!(vg.field("engine").kind(), "null");
        assert!(vg.field("predicted").field("rho").as_f64().is_some());

        // The analytic body carries the full simulated metric set plus
        // the M/G/1 diagnostic report.
        let va = serde_json::parse(&a.body).unwrap();
        assert_eq!(va.field("engine").as_str(), Some("analytic"));
        assert!(va.field("metrics").field("goodput_bps").as_f64().unwrap() > 0.0);
        let report = va.field("report");
        assert!(report.field("rho").as_f64().unwrap() > 0.0);
        assert!(report.field("expected_attempts").as_f64().unwrap() >= 1.0);
        assert_eq!(report.field("saturated").as_bool(), Some(false));
    }

    #[test]
    fn analytic_tune_prescans_the_grid_and_simulates_only_the_winner() {
        let engine = Engine::new(4);
        let req = body(
            r#"{"op":"tune","objective":"energy","constraints":[{"metric":"loss","max":0.05}],"distance_m":20.0,"engine":"analytic"}"#,
        );
        let answer = engine.execute(&req).unwrap();
        let v = serde_json::parse(&answer.body).unwrap();
        assert_eq!(v.field("engine").as_str(), Some("analytic"));
        // Every candidate of the 20 m slice was ranked …
        let ranked = v.field("analytic").field("candidates_ranked").as_u64();
        assert_eq!(ranked, v.field("grid_configs").as_u64());
        assert!(ranked.unwrap() > 1000);
        // … the winner satisfies the constraint analytically …
        let m = v.field("analytic").field("metrics");
        let plr_q = m.field("plr_queue").as_f64().unwrap();
        let plr_r = m.field("plr_radio").as_f64().unwrap();
        assert!(plr_q + (1.0 - plr_q) * plr_r <= 0.05);
        // … and exactly one fast cross-check rode along.
        assert!(v.field("simulated").field("generated").as_u64().unwrap() > 0);

        // The golden tune of the same question lives on its own cache
        // line and keeps its historical shape (no analytic block).
        let golden = body(
            r#"{"op":"tune","objective":"energy","constraints":[{"metric":"loss","max":0.05}],"distance_m":20.0}"#,
        );
        let g = engine.execute(&golden).unwrap();
        assert!(!g.cached);
        let vg = serde_json::parse(&g.body).unwrap();
        assert_eq!(vg.field("analytic").kind(), "null");
    }

    #[test]
    fn predict_and_simulate_do_not_share_cache_lines() {
        let engine = Engine::new(4);
        let sim = body(r#"{"op":"simulate","packets":40}"#);
        let prd = body(r#"{"op":"predict"}"#);
        engine.execute(&sim).unwrap();
        let answer = engine.execute(&prd).unwrap();
        assert!(!answer.cached);
        let v = serde_json::parse(&answer.body).unwrap();
        assert!(
            v.field("predicted")
                .field("max_goodput_bps")
                .as_f64()
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn tune_respects_constraints_and_infeasible_is_an_error() {
        let engine = Engine::new(4);
        let req = body(
            r#"{"op":"tune","objective":"goodput","constraints":[{"metric":"loss","max":0.01}],"distance_m":20.0}"#,
        );
        let answer = engine.execute(&req).unwrap();
        let v = serde_json::parse(&answer.body).unwrap();
        let predicted = v.field("predicted");
        let plr_q = predicted.field("plr_queue").as_f64().unwrap();
        let plr_r = predicted.field("plr_radio").as_f64().unwrap();
        assert!(plr_q + (1.0 - plr_q) * plr_r <= 0.01);
        assert_eq!(v.field("config").field("distance").as_f64(), Some(20.0));

        let impossible = body(
            r#"{"op":"tune","objective":"energy","constraints":[{"metric":"loss","max":-1.0}]}"#,
        );
        let err = engine.execute(&impossible).unwrap_err();
        assert!(err.message.contains("no feasible"));
        // Errors are not cached: the same request recomputes.
        assert!(engine.execute(&impossible).is_err());
    }

    #[test]
    fn scenario_runs_and_unknown_id_lists_catalog() {
        let engine = Engine::new(4);
        let req = body(r#"{"op":"scenario","scenario":"hidden-pair","packets":40}"#);
        let answer = engine.execute(&req).unwrap();
        let v = serde_json::parse(&answer.body).unwrap();
        assert_eq!(v.field("links").as_array().unwrap().len(), 2);
        assert!(v.field("air").field("frames").as_u64().unwrap() > 0);

        let err = engine
            .execute(&body(r#"{"op":"scenario","scenario":"nope"}"#))
            .unwrap_err();
        assert!(err.message.contains("hidden-pair"));
        assert_eq!(err.code, crate::protocol::ErrCode::BadRequest);
    }

    #[test]
    fn timeline_scenario_runs_on_its_own_cache_line() {
        let engine = Engine::new(4);
        let static_req = body(r#"{"op":"scenario","scenario":"parallel-4","packets":60}"#);
        let storm =
            body(r#"{"op":"scenario","scenario":"parallel-4","packets":60,"timeline":"storm20"}"#);
        let s = engine.execute(&static_req).unwrap();
        assert!(!s.cached);
        // The static body keeps the historical shape: no timeline echo.
        let vs = serde_json::parse(&s.body).unwrap();
        assert_eq!(vs.field("timeline_digest").kind(), "null");

        // The timeline request recomputes rather than borrowing the
        // static body, and echoes the digest plus topology counters.
        let t = engine.execute(&storm).unwrap();
        assert!(!t.cached);
        let vt = serde_json::parse(&t.body).unwrap();
        assert_eq!(vt.field("timeline_digest").as_str().unwrap().len(), 16);
        assert!(vt.field("topo").field("leaves").as_u64().unwrap() > 0);
        assert_eq!(vt.field("links").as_array().unwrap().len(), 4);

        // Both then hit their own lines byte-identically.
        assert!(engine.execute(&static_req).unwrap().cached);
        let repeat = engine.execute(&storm).unwrap();
        assert!(repeat.cached);
        assert_eq!(repeat.body.as_str(), t.body.as_str());

        // An unknown timeline id errors (and is never cached).
        let err = engine
            .execute(&body(
                r#"{"op":"scenario","scenario":"parallel-4","timeline":"blizzard"}"#,
            ))
            .unwrap_err();
        assert!(err.message.contains("storm20"), "{err}");
    }

    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wsn-engine-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn cache_op_reports_both_tiers_and_flushes_only_memory() {
        let dir = temp_store_dir("cacheop");
        let engine = Engine::new(4).with_store(Store::open(&dir).expect("store"));
        let sim = body(r#"{"op":"simulate","packets":40}"#);
        let answer = engine.execute(&sim).unwrap();
        engine.execute(&sim).unwrap();

        let report = engine.execute(&body(r#"{"op":"cache"}"#)).unwrap();
        assert!(!report.cached, "cache op must never be cached");
        let v = serde_json::parse(&report.body).unwrap();
        assert_eq!(v.field("mem").field("entries").as_u64(), Some(1));
        let held = cache_key(&sim).unwrap().len() + answer.body.len();
        assert_eq!(v.field("mem").field("bytes").as_u64(), Some(held as u64));
        assert_eq!(v.field("mem").field("hits").as_u64(), Some(1));
        assert_eq!(v.field("disk").field("enabled").as_bool(), Some(true));
        assert_eq!(v.field("disk").field("records").as_u64(), Some(1));
        assert_eq!(v.field("disk").field("appends").as_u64(), Some(1));
        assert!(v.field("disk").field("bytes").as_u64().unwrap() > 0);
        assert_eq!(v.field("flushed").as_bool(), Some(false));

        let flushed = engine
            .execute(&body(r#"{"op":"cache","action":"flush"}"#))
            .unwrap();
        let v = serde_json::parse(&flushed.body).unwrap();
        assert_eq!(v.field("flushed").as_bool(), Some(true));
        assert_eq!(v.field("flushed_entries").as_u64(), Some(1));
        assert_eq!(v.field("mem").field("entries").as_u64(), Some(0));
        assert_eq!(v.field("mem").field("bytes").as_u64(), Some(0));
        // The disk tier is immutable under flush: the record survives,
        // and the next lookup is a disk-warm hit.
        assert_eq!(v.field("disk").field("records").as_u64(), Some(1));
        let after = engine.execute(&sim).unwrap();
        assert!(after.cached, "flush must not lose the disk tier");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn without_a_store_the_cache_op_reports_a_disabled_disk_tier() {
        let engine = Engine::new(4);
        let report = engine.execute(&body(r#"{"op":"cache"}"#)).unwrap();
        let v = serde_json::parse(&report.body).unwrap();
        assert_eq!(v.field("disk").field("enabled").as_bool(), Some(false));
        assert_eq!(v.field("disk").field("records").as_u64(), Some(0));
    }

    #[test]
    fn store_tier_answers_a_fresh_engine_byte_identically() {
        let dir = temp_store_dir("restart");
        let sim = body(r#"{"op":"simulate","packets":40,"config":{"distance_m":20.0}}"#);
        let first = {
            let engine = Engine::new(4).with_store(Store::open(&dir).expect("store"));
            engine.execute(&sim).unwrap().body.as_str().to_string()
        };
        // A fresh engine over the same store — the "restart" — answers
        // from disk without computing, byte-identically.
        let engine = Engine::new(4).with_store(Store::open(&dir).expect("reopen"));
        let again = engine.execute(&sim).unwrap();
        assert!(again.cached, "restart must serve the disk-warm hit");
        assert_eq!(again.body.as_str(), first);
        // The promotion seeded the memory tier: the disk tier is not
        // consulted twice.
        let hits_before = engine.store().unwrap().stats().hits;
        assert!(engine.execute(&sim).unwrap().cached);
        assert_eq!(engine.store().unwrap().stats().hits, hits_before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_insert_matches_a_live_answer_byte_for_byte() {
        let dir = temp_store_dir("warm");
        let sim = body(r#"{"op":"simulate","packets":40,"config":{"distance_m":20.0}}"#);
        let live = {
            let engine = Engine::new(4);
            engine.execute(&sim).unwrap().body.as_str().to_string()
        };
        let engine = Engine::new(4).with_store(Store::open(&dir).expect("store"));
        let key = cache_key(&sim).unwrap();
        engine.warm_insert(&key, &live).expect("warm");
        // Idempotent on disk: re-warming the same entry appends nothing.
        engine.warm_insert(&key, &live).expect("re-warm");
        assert_eq!(engine.store().unwrap().stats().records, 1);
        let answer = engine.execute(&sim).unwrap();
        assert!(answer.cached, "warmed entry must hit");
        assert_eq!(answer.body.as_str(), live);
        assert_eq!(answer.body.capacity(), answer.body.len(), "exact-size");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inline_tune_matches_the_optimizer_exactly() {
        // `tune` runs `epsilon_constraint` through the deadline wrapper; a
        // cached answer from `Optimizer` and a fresh one must pick the same
        // winner, ties included.
        let engine = Engine::new(4);
        let optimizer = Optimizer::paper();
        for (objective, constraints) in [
            (Metric::Energy, vec![]),
            (Metric::Goodput, vec![(Metric::Loss, 0.01)]),
            (Metric::Delay, vec![(Metric::Energy, 5.0)]),
        ] {
            let mut grid = ParamGrid::paper();
            grid.distances_m = vec![20.0];
            let expected = optimizer
                .epsilon_constraint(&grid, objective, &constraints)
                .expect("feasible");
            let cs: Vec<String> = constraints
                .iter()
                .map(|(m, max)| format!(r#"{{"metric":"{}","max":{max}}}"#, metric_name(*m)))
                .collect();
            let line = format!(
                r#"{{"op":"tune","objective":"{}","constraints":[{}],"distance_m":20.0}}"#,
                metric_name(objective),
                cs.join(",")
            );
            let answer = engine.execute(&body(&line)).unwrap();
            let v = serde_json::parse(&answer.body).unwrap();
            let cfg = v.field("config");
            assert_eq!(
                cfg.field("power").as_u64(),
                Some(u64::from(expected.config.power.level())),
                "{line}"
            );
            assert_eq!(
                cfg.field("payload").as_u64(),
                Some(u64::from(expected.config.payload.bytes())),
                "{line}"
            );
            assert_eq!(
                cfg.field("max_tries").as_u64(),
                Some(u64::from(expected.config.max_tries.get())),
                "{line}"
            );
        }
    }

    #[test]
    fn tune_accepts_off_grid_distances_on_both_engines() {
        // 17.5 m is between grid rows but a perfectly valid link; both
        // backends must scan the restricted grid there rather than error.
        let engine = Engine::new(4);
        for eng in ["golden", "analytic"] {
            let line = format!(
                r#"{{"op":"tune","objective":"energy","distance_m":17.5,"engine":"{eng}"}}"#
            );
            let answer = engine.execute(&body(&line)).unwrap();
            let v = serde_json::parse(&answer.body).unwrap();
            assert_eq!(
                v.field("config").field("distance").as_f64(),
                Some(17.5),
                "{eng}"
            );
            assert_eq!(v.field("grid_configs").as_u64(), Some(8064), "{eng}");
        }
        // And an invalid distance fails the same way on both.
        for eng in ["golden", "analytic"] {
            let line = format!(
                r#"{{"op":"tune","objective":"energy","distance_m":-3.0,"engine":"{eng}"}}"#
            );
            let err = engine.execute(&body(&line)).unwrap_err();
            assert_eq!(err.code, ErrCode::BadRequest, "{eng}");
            assert!(err.message.contains("-3"), "{eng}: {}", err.message);
        }
    }

    #[test]
    fn expired_deadline_aborts_the_scan_with_the_deadline_code() {
        let engine = Engine::new(4);
        let past = Instant::now() - std::time::Duration::from_millis(10);
        // Every scan op under every scorer it accepts. An explore budget
        // below one deadline stride (64) would never read the clock.
        for line in [
            r#"{"op":"tune","objective":"energy"}"#,
            r#"{"op":"tune","objective":"energy","distance_m":20.0,"engine":"fast"}"#,
            r#"{"op":"tune","objective":"energy","distance_m":20.0,"engine":"analytic"}"#,
            r#"{"op":"pareto","distance_m":20.0}"#,
            r#"{"op":"pareto","distance_m":20.0,"engine":"analytic","profile":"case-study"}"#,
            r#"{"op":"explore","objective":"energy","budget":64,"distance_m":20.0}"#,
            r#"{"op":"explore","objective":"energy","budget":64,"distance_m":20.0,"engine":"analytic"}"#,
            r#"{"op":"explore","objective":"energy","budget":64,"distance_m":20.0,"engine":"fast"}"#,
        ] {
            let req = body(line);
            let err = engine.execute_with_deadline(&req, Some(past)).unwrap_err();
            assert_eq!(err.code, ErrCode::Deadline, "{line}");
            assert!(
                err.message.contains("candidate evaluations"),
                "{line}: {}",
                err.message
            );
            // The abort was never cached: without a deadline the same
            // request computes and answers.
            let ok = engine.execute(&req).unwrap();
            assert!(!ok.cached, "{line}");
            // …and now that an answer is stored, even an expired deadline
            // is served from the cache — a stored answer is free.
            let hit = engine.execute_with_deadline(&req, Some(past)).unwrap();
            assert!(hit.cached, "{line}");
        }
    }

    #[test]
    fn predictor_tune_past_its_deadline_stops_after_one_stride() {
        let engine = Engine::new(4);
        let past = Instant::now() - std::time::Duration::from_millis(10);
        for line in [
            r#"{"op":"tune","objective":"energy"}"#,
            r#"{"op":"tune","objective":"energy","engine":"analytic"}"#,
        ] {
            let err = engine
                .execute_with_deadline(&body(line), Some(past))
                .unwrap_err();
            assert_eq!(err.code, ErrCode::Deadline, "{line}");
            assert_eq!(
                err.message,
                format!("deadline expired after {DEADLINE_STRIDE} candidate evaluations"),
                "{line}"
            );
        }
    }

    #[test]
    fn pareto_fronts_are_non_dominated_sorted_and_kneed() {
        let engine = Engine::new(4);
        let answer = engine
            .execute(&body(r#"{"op":"pareto","distance_m":20.0}"#))
            .unwrap();
        let v = serde_json::parse(&answer.body).unwrap();
        assert_eq!(v.field("grid_configs").as_u64(), Some(8064));
        let distances = v.field("distances").as_array().unwrap();
        assert_eq!(distances.len(), 1);
        let front = distances[0].field("front").as_array().unwrap();
        assert!(front.len() >= 3, "front has {} members", front.len());
        // Display sense: energy ascending means goodput must ascend too,
        // or the later member would be dominated.
        let rows: Vec<(f64, f64)> = front
            .iter()
            .map(|m| {
                let vals = m.field("values").as_array().unwrap();
                (vals[0].as_f64().unwrap(), vals[1].as_f64().unwrap())
            })
            .collect();
        for pair in rows.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "sorted by energy: {rows:?}");
            assert!(pair[0].1 < pair[1].1, "non-dominated: {rows:?}");
        }
        // The knee is one of the front members.
        let knee = distances[0].field("knee");
        let knee_vals = knee.field("values").as_array().unwrap();
        let kv = (
            knee_vals[0].as_f64().unwrap(),
            knee_vals[1].as_f64().unwrap(),
        );
        assert!(rows.contains(&kv), "knee {kv:?} not on front");
        // Byte-identical repeat from the cache.
        let again = engine
            .execute(&body(r#"{"op":"pareto","distance_m":20.0}"#))
            .unwrap();
        assert!(again.cached);
        assert_eq!(again.body.as_str(), answer.body.as_str());
    }

    #[test]
    fn pareto_reproduces_the_table_iv_case_study() {
        // The paper's Sec. VIII-C joint pick — minimize energy, then take
        // the best goodput within 20 % of that minimum — applied to the
        // served front must land on the published shape: Ptx=31, an
        // interior payload, NmaxTries=3 (examples/analytic_tune.rs runs
        // the same study through the campaign runner).
        let engine = Engine::new(4);
        let answer = engine
            .execute(&body(
                r#"{"op":"pareto","distance_m":35.0,"engine":"analytic","profile":"case-study"}"#,
            ))
            .unwrap();
        let v = serde_json::parse(&answer.body).unwrap();
        assert_eq!(v.field("profile").as_str(), Some("case-study"));
        let front = v.field("distances").as_array().unwrap()[0]
            .field("front")
            .as_array()
            .unwrap();
        let energy_of =
            |m: &serde_json::Value| m.field("values").as_array().unwrap()[0].as_f64().unwrap();
        let goodput_of =
            |m: &serde_json::Value| m.field("values").as_array().unwrap()[1].as_f64().unwrap();
        let best_energy = front.iter().map(energy_of).fold(f64::INFINITY, f64::min);
        let winner = front
            .iter()
            .filter(|m| energy_of(m) <= best_energy * 1.2)
            .max_by(|a, b| goodput_of(a).total_cmp(&goodput_of(b)))
            .expect("non-empty front");
        let cfg = winner.field("config");
        assert_eq!(cfg.field("power").as_u64(), Some(31));
        assert_eq!(cfg.field("max_tries").as_u64(), Some(3));
        let payload = cfg.field("payload").as_u64().unwrap();
        assert!(
            payload > 5 && payload < 110,
            "interior payload, got {payload}"
        );
    }

    #[test]
    fn explore_respects_the_budget_and_stays_near_the_exhaustive_winner() {
        let engine = Engine::new(4);
        // Exhaustive truth: the analytic tune scans all 8064 candidates.
        let tune = engine
            .execute(&body(
                r#"{"op":"tune","objective":"energy","distance_m":35.0,"engine":"analytic"}"#,
            ))
            .unwrap();
        let tv = serde_json::parse(&tune.body).unwrap();
        let exhaustive = tv
            .field("analytic")
            .field("metrics")
            .field("u_eng_uj_per_bit")
            .as_f64()
            .unwrap();
        // A quarter of the grid must land within 5 % objective regret.
        let budget = 8064 / 4;
        let line = format!(
            r#"{{"op":"explore","objective":"energy","budget":{budget},"distance_m":35.0,"engine":"analytic"}}"#
        );
        let answer = engine.execute(&body(&line)).unwrap();
        let v = serde_json::parse(&answer.body).unwrap();
        let evaluations = v.field("evaluations").as_u64().unwrap();
        assert!(
            evaluations <= budget,
            "spent {evaluations} of budget {budget}"
        );
        let found = v.field("objective_value").as_f64().unwrap();
        assert!(
            found <= exhaustive * 1.05,
            "explore {found} vs exhaustive {exhaustive}"
        );
        // The strategy breakdown accounts for every evaluation.
        let strategy = v.field("strategy");
        let spent = strategy.field("swept").as_u64().unwrap()
            + strategy.field("refined").as_u64().unwrap()
            + strategy.field("local").as_u64().unwrap();
        assert_eq!(spent, evaluations);
        // Repeat = cache hit, byte-identical.
        let again = engine.execute(&body(&line)).unwrap();
        assert!(again.cached);
        assert_eq!(again.body.as_str(), answer.body.as_str());
    }

    #[test]
    fn explore_golden_carries_the_prediction_and_profiles_partition() {
        let engine = Engine::new(4);
        let paper = engine
            .execute(&body(
                r#"{"op":"explore","objective":"goodput","budget":300,"distance_m":35.0}"#,
            ))
            .unwrap();
        let v = serde_json::parse(&paper.body).unwrap();
        assert_eq!(v.field("engine").as_str(), Some("golden"));
        assert!(
            v.field("predicted")
                .field("max_goodput_bps")
                .as_f64()
                .unwrap()
                > 0.0
        );
        assert!(v.field("objective_value").as_f64().unwrap() > 0.0);
        // The case-study profile answers from the shadowed channel — a
        // different cache line and a weaker link.
        let cs = engine
            .execute(&body(
                r#"{"op":"explore","objective":"goodput","budget":300,"distance_m":35.0,"profile":"case-study"}"#,
            ))
            .unwrap();
        assert!(!cs.cached);
        let vc = serde_json::parse(&cs.body).unwrap();
        assert_eq!(vc.field("profile").as_str(), Some("case-study"));
        assert!(
            vc.field("objective_value").as_f64().unwrap()
                < v.field("objective_value").as_f64().unwrap(),
            "shadowed link cannot beat the hallway"
        );
    }

    #[test]
    fn stats_reflect_cache_counters_and_are_never_cached() {
        let engine = Engine::new(4);
        let sim = body(r#"{"op":"simulate","packets":40}"#);
        engine.execute(&sim).unwrap();
        engine.execute(&sim).unwrap();
        let stats = engine.execute(&body(r#"{"op":"stats"}"#)).unwrap();
        assert!(!stats.cached);
        let v = serde_json::parse(&stats.body).unwrap();
        assert_eq!(v.field("cache_hits").as_u64(), Some(1));
        assert_eq!(v.field("cache_misses").as_u64(), Some(1));
        assert_eq!(v.field("cache_hit_rate").as_f64(), Some(0.5));
        assert_eq!(v.field("cache_entries").as_u64(), Some(1));
        // A single-link simulate runs without an executor …
        assert_eq!(v.field("sim").field("runs").as_u64(), Some(0));
        // … and the one executed scenario surfaces its executor load.
        let scenario = body(r#"{"op":"scenario","scenario":"hidden-pair","packets":40}"#);
        engine.execute(&scenario).unwrap();
        let stats = engine.execute(&body(r#"{"op":"stats"}"#)).unwrap();
        let v = serde_json::parse(&stats.body).unwrap();
        assert_eq!(v.field("sim").field("runs").as_u64(), Some(1));
        assert!(v.field("sim").field("events_handled").as_u64().unwrap() > 0);
    }
}
