//! The JSON-lines wire protocol: request parsing, canonical cache keys,
//! and response envelope rendering.
//!
//! One request per line, one response line per request. Requests are JSON
//! objects with an `"op"` field naming the operation plus op-specific
//! fields; responses echo the request's `"id"` (any string, number, or
//! `null`) so clients with several requests in flight on one connection
//! can route replies. The full schema lives in `docs/SERVE.md`.
//!
//! Parsing is strict: unknown top-level or config fields are rejected so a
//! typo (`"payload_byte"`) fails loudly instead of silently simulating the
//! default. The canonical [`cache_key`] is built from the exact bit
//! patterns of every parameter (`f64::to_bits` for distances), so the
//! result cache never conflates two requests that could differ in even the
//! last ulp.

use std::fmt::Write as _;

use wsn_link_sim::catalog::{all_timelines, build_scenario, build_timeline};
use wsn_link_sim::traffic::TrafficModel;
use wsn_models::optimize::Metric;
use wsn_params::config::StackConfig;
use wsn_params::timeline::{ScenarioTimeline, TopologyAction, TopologyEvent};
use wsn_radio::channel::ChannelConfig;
use wsn_sim_engine::mode::EngineMode;

use serde_json::Value;

/// Longest accepted request line, bytes (1 MiB). Longer lines draw an
/// error response and the connection is closed.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Most packets one `simulate`/`scenario` request may ask for — a single
/// query is a question, not a campaign (the paper's full protocol is 4500
/// packets per configuration; this leaves 20× headroom).
pub const MAX_PACKETS: u64 = 100_000;

/// Default packets per query, matching the harness's quick scale.
pub const DEFAULT_PACKETS: u64 = 400;

/// Default experiment seed, shared with the campaign runner.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// The protocol version this server speaks. Every response envelope
/// carries it as `"proto"`, and a request carrying a different `"proto"`
/// is rejected so a future client never silently misreads v1 answers.
pub const PROTO_VERSION: u64 = 1;

/// Stable machine-readable error codes, carried as `"code"` in every
/// `ok:false` envelope. Clients branch on these; the `"error"` string is
/// for humans and may change wording freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// The request parsed as JSON but something in it is wrong: unknown
    /// or ill-typed fields, out-of-range parameters, invalid JSON,
    /// unsupported `proto`, unknown scenario/timeline/metric ids.
    BadRequest,
    /// The `op` field names no known operation.
    UnknownOp,
    /// The `engine` field names no backend valid for this op.
    UnknownEngine,
    /// The request's deadline expired before a worker could answer it.
    Deadline,
    /// The bounded worker queue refused the request (full, or draining
    /// for shutdown).
    Overloaded,
    /// The request line exceeded [`MAX_LINE_BYTES`]; the connection is
    /// closed after this answer.
    Oversized,
    /// The server failed internally; never the client's fault. Reserved:
    /// result serialization cannot fail, so no code path emits it today.
    Internal,
}

impl ErrCode {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrCode::BadRequest => "bad_request",
            ErrCode::UnknownOp => "unknown_op",
            ErrCode::UnknownEngine => "unknown_engine",
            ErrCode::Deadline => "deadline",
            ErrCode::Overloaded => "overloaded",
            ErrCode::Oversized => "oversized",
            ErrCode::Internal => "internal",
        }
    }
}

/// The service's operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Run one configuration through the discrete-event link simulator.
    Simulate,
    /// Evaluate one configuration with the closed-form models (Eqs. 2–9).
    Predict,
    /// Constrained multi-objective search over the paper grid.
    Tune,
    /// The per-distance Pareto front (and knee) over selected metrics.
    Pareto,
    /// Budget-bounded search over the paper grid.
    Explore,
    /// Run a named multi-link scenario from the catalog.
    Scenario,
    /// Report service counters.
    Stats,
    /// Report tiered-cache stats; optionally flush the memory tier.
    Cache,
    /// Gracefully drain and stop the server.
    Shutdown,
}

impl Op {
    /// Number of operations (sizes the per-op counters).
    pub const COUNT: usize = 9;

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Simulate => "simulate",
            Op::Predict => "predict",
            Op::Tune => "tune",
            Op::Pareto => "pareto",
            Op::Explore => "explore",
            Op::Scenario => "scenario",
            Op::Stats => "stats",
            Op::Cache => "cache",
            Op::Shutdown => "shutdown",
        }
    }

    /// A dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            Op::Simulate => 0,
            Op::Predict => 1,
            Op::Tune => 2,
            Op::Scenario => 3,
            Op::Stats => 4,
            Op::Cache => 5,
            Op::Shutdown => 6,
            Op::Pareto => 7,
            Op::Explore => 8,
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "simulate" => Op::Simulate,
            "predict" => Op::Predict,
            "tune" => Op::Tune,
            "pareto" => Op::Pareto,
            "explore" => Op::Explore,
            "scenario" => Op::Scenario,
            "stats" => Op::Stats,
            "cache" => Op::Cache,
            "shutdown" => Op::Shutdown,
            _ => return None,
        })
    }
}

/// The evaluation context of an optimization op: the paper's default
/// hallway channel under periodic load, or the Sec. VIII-C case study —
/// a shadowed 35 m link carrying a bulk transfer (saturating traffic,
/// `LinkBudget::case_study` for the golden predictor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Profile {
    /// The hallway channel of Secs. III–VII (the default).
    #[default]
    Paper,
    /// The shadowed bulk-transfer case study of Sec. VIII-C.
    CaseStudy,
}

impl Profile {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Paper => "paper",
            Profile::CaseStudy => "case-study",
        }
    }

    /// The channel the profile's questions are asked on.
    pub fn channel(self) -> ChannelConfig {
        match self {
            Profile::Paper => ChannelConfig::paper_hallway(),
            Profile::CaseStudy => ChannelConfig::case_study(),
        }
    }

    /// The profile's load: each configuration's periodic operating point,
    /// or a saturating bulk transfer.
    pub fn traffic(self) -> TrafficModel {
        match self {
            Profile::Paper => TrafficModel::Periodic,
            Profile::CaseStudy => TrafficModel::Saturating,
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "paper" => Profile::Paper,
            "case-study" => Profile::CaseStudy,
            _ => return None,
        })
    }
}

/// A parsed, validated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The client's `"id"` value, re-rendered as canonical JSON for the
    /// response echo (`null` when absent).
    pub id: String,
    /// The operation.
    pub op: Op,
    /// Optional per-request deadline override, milliseconds from enqueue.
    pub deadline_ms: Option<u64>,
    /// The op-specific payload.
    pub body: RequestBody,
}

/// Op-specific request payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// `simulate`: one configuration through the event-driven simulator.
    Simulate {
        /// The stack configuration (missing fields take the defaults).
        config: StackConfig,
        /// Packets to generate.
        packets: u64,
        /// Experiment seed.
        seed: u64,
        /// Which simulation backend answers (`"golden"` default).
        engine: EngineMode,
    },
    /// `predict`: closed-form evaluation.
    Predict {
        /// The stack configuration.
        config: StackConfig,
        /// Which prediction backend answers: `"golden"` (default) is the
        /// paper's fitted models (Eqs. 2–9), `"analytic"` the M/G/1
        /// closed-form engine. `"fast"` is rejected — sampling backends
        /// belong to `simulate`.
        engine: EngineMode,
    },
    /// `tune`: epsilon-constrained optimization over the paper grid.
    Tune {
        /// Metric to minimize (goodput internally maximized).
        objective: Metric,
        /// `metric ≤ max` feasibility constraints.
        constraints: Vec<(Metric, f64)>,
        /// Restrict the grid to one distance (meters).
        distance_m: Option<f64>,
        /// Backend validating the winner (`"golden"` default).
        engine: EngineMode,
    },
    /// `pareto`: the non-dominated set per distance over chosen metrics.
    Pareto {
        /// Metrics spanning the front, in request order (2..=4, distinct).
        metrics: Vec<Metric>,
        /// Restrict the grid to one distance (meters).
        distance_m: Option<f64>,
        /// Backend evaluating the grid (`"golden"` default; fast rejected).
        engine: EngineMode,
        /// Channel/traffic context (`"paper"` default).
        profile: Profile,
    },
    /// `explore`: budget-bounded constrained search over the grid.
    Explore {
        /// Metric to minimize (goodput internally maximized).
        objective: Metric,
        /// `metric ≤ max` feasibility constraints.
        constraints: Vec<(Metric, f64)>,
        /// Hard cap on candidate evaluations.
        budget: u64,
        /// Restrict the grid to one distance (meters).
        distance_m: Option<f64>,
        /// Backend scoring candidates (`"golden"` default).
        engine: EngineMode,
        /// Channel/traffic context (`"paper"` default).
        profile: Profile,
    },
    /// `scenario`: a named multi-link topology from the catalog.
    Scenario {
        /// Catalog id (`"hidden-pair"`, …).
        scenario: String,
        /// Packets per link.
        packets: u64,
        /// Experiment seed.
        seed: u64,
        /// Optional topology timeline replayed over the scenario.
        timeline: Option<TimelineSpec>,
    },
    /// `stats`: service counters.
    Stats,
    /// `cache`: tiered-cache stats, optionally flushing the memory tier.
    Cache {
        /// True when the request carried `"action":"flush"`.
        flush: bool,
    },
    /// `shutdown`: graceful drain.
    Shutdown,
}

/// How a `scenario` request names its topology timeline: a catalog id
/// (`"storm20"`, `"waypoint"`) or an inline [`ScenarioTimeline`] carried
/// in the request body.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineSpec {
    /// A cataloged timeline id, built against the request's scenario.
    Id(String),
    /// A full timeline object (or bare event array) from the request.
    Inline(ScenarioTimeline),
}

impl TimelineSpec {
    /// Resolves the spec against a scenario id into a validated timeline.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown timeline id (with the known
    /// set) or the validation failure of an inline timeline.
    pub fn resolve(&self, scenario_id: &str) -> Result<ScenarioTimeline, String> {
        let scenario = build_scenario(scenario_id)
            .ok_or_else(|| format!("unknown scenario '{scenario_id}'"))?;
        let timeline = match self {
            TimelineSpec::Id(id) => build_timeline(id, &scenario).ok_or_else(|| {
                let known: Vec<&str> = all_timelines().iter().map(|(n, _)| *n).collect();
                format!("unknown timeline '{id}'; known: {}", known.join(", "))
            })?,
            TimelineSpec::Inline(timeline) => timeline.clone(),
        };
        timeline
            .validate(scenario.len())
            .map_err(|e| format!("invalid timeline: {e}"))?;
        Ok(timeline)
    }
}

/// A rejected request: the echoable id (always well-formed JSON), the
/// machine-readable code, and the human error message.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// Canonical id echo (`null` when the id was absent or unreadable).
    pub id: String,
    /// The stable error code.
    pub code: ErrCode,
    /// What was wrong.
    pub error: String,
}

impl Rejection {
    fn anonymous(error: String) -> Self {
        Rejection {
            id: "null".to_string(),
            code: ErrCode::BadRequest,
            error,
        }
    }
}

/// Renders a request `"id"` value back to canonical JSON for the echo.
fn canonical_id(value: &Value) -> Result<String, String> {
    match value {
        Value::Null => Ok("null".to_string()),
        Value::U64(x) => Ok(x.to_string()),
        Value::I64(x) => Ok(x.to_string()),
        Value::Str(s) => serde_json::to_string(s).map_err(|e| e.to_string()),
        Value::F64(x) => serde_json::to_string(x).map_err(|e| e.to_string()),
        other => Err(format!(
            "id must be a string, number, or null, got {}",
            other.kind()
        )),
    }
}

fn require_u64(value: &Value, what: &str) -> Result<u64, String> {
    value.as_u64().ok_or_else(|| {
        format!(
            "{what} must be a non-negative integer, got {}",
            value.kind()
        )
    })
}

fn require_f64(value: &Value, what: &str) -> Result<f64, String> {
    // `Value::as_f64` reads `null` as NaN (the store round-trips NaN
    // metrics that way) and an overflowing literal such as `1e999` as
    // ±inf; a request number must be written out, and finite.
    let number = match value {
        Value::Null => None,
        v => v.as_f64(),
    }
    .ok_or_else(|| format!("{what} must be a number, got {}", value.kind()))?;
    if number.is_finite() {
        Ok(number)
    } else {
        Err(format!("{what} must be a finite number, got {number}"))
    }
}

/// Builds a [`StackConfig`] from a request's `"config"` object. Missing
/// fields keep the paper's defaults; unknown fields are rejected.
fn parse_config(value: &Value) -> Result<StackConfig, String> {
    let entries = value
        .as_object()
        .ok_or_else(|| format!("config must be an object, got {}", value.kind()))?;
    let mut builder = StackConfig::builder();
    for (key, field) in entries {
        match key.as_str() {
            "distance_m" => {
                builder.distance_m(require_f64(field, "config.distance_m")?);
            }
            "power_level" => {
                let raw = require_u64(field, "config.power_level")?;
                builder.power_level(
                    u8::try_from(raw)
                        .map_err(|_| format!("config.power_level {raw} out of range"))?,
                );
            }
            "max_tries" => {
                let raw = require_u64(field, "config.max_tries")?;
                builder.max_tries(
                    u8::try_from(raw)
                        .map_err(|_| format!("config.max_tries {raw} out of range"))?,
                );
            }
            "retry_delay_ms" => {
                let raw = require_u64(field, "config.retry_delay_ms")?;
                builder.retry_delay_ms(
                    u32::try_from(raw)
                        .map_err(|_| format!("config.retry_delay_ms {raw} out of range"))?,
                );
            }
            "queue_cap" => {
                let raw = require_u64(field, "config.queue_cap")?;
                builder.queue_cap(
                    u16::try_from(raw)
                        .map_err(|_| format!("config.queue_cap {raw} out of range"))?,
                );
            }
            "packet_interval_ms" => {
                let raw = require_u64(field, "config.packet_interval_ms")?;
                builder.packet_interval_ms(
                    u32::try_from(raw)
                        .map_err(|_| format!("config.packet_interval_ms {raw} out of range"))?,
                );
            }
            "payload_bytes" => {
                let raw = require_u64(field, "config.payload_bytes")?;
                builder.payload_bytes(
                    u16::try_from(raw)
                        .map_err(|_| format!("config.payload_bytes {raw} out of range"))?,
                );
            }
            other => return Err(format!("unknown config field '{other}'")),
        }
    }
    builder.build().map_err(|e| e.to_string())
}

fn metric_from_name(name: &str) -> Result<Metric, String> {
    Ok(match name {
        "energy" => Metric::Energy,
        "goodput" => Metric::Goodput,
        "delay" => Metric::Delay,
        "loss" => Metric::Loss,
        other => {
            return Err(format!(
                "unknown metric '{other}'; known: energy, goodput, delay, loss"
            ))
        }
    })
}

/// The wire name of a metric (for cache keys and result bodies).
pub fn metric_name(metric: Metric) -> &'static str {
    match metric {
        Metric::Energy => "energy",
        Metric::Goodput => "goodput",
        Metric::Delay => "delay",
        Metric::Loss => "loss",
    }
}

fn parse_packets(value: Option<&Value>) -> Result<u64, String> {
    let packets = match value {
        Some(v) => require_u64(v, "packets")?,
        None => DEFAULT_PACKETS,
    };
    if packets == 0 {
        return Err("packets must be at least 1".to_string());
    }
    if packets > MAX_PACKETS {
        return Err(format!(
            "packets {packets} exceeds the per-request cap {MAX_PACKETS}"
        ));
    }
    Ok(packets)
}

/// Parses a `scenario` request's optional `"timeline"` field: a string
/// catalog id, a full `ScenarioTimeline` object, or a bare event array.
/// An inline event's `t_s` must be a finite number (a `null` would read
/// as NaN), with the text the timeline check gives it at run time.
fn parse_timeline(value: &Value) -> Result<Option<TimelineSpec>, String> {
    // A `null` number parses to NaN, so every float an event carries is
    // checked here: a NaN coordinate would otherwise run as a 0.1 m link.
    let inline = |timeline: ScenarioTimeline| {
        if let Some(e) = timeline.events().iter().find(|e| !e.t_s.is_finite()) {
            return Err(format!(
                "invalid timeline: event id {} has invalid timestamp {}",
                e.id, e.t_s
            ));
        }
        if let Some(e) = timeline.events().iter().find(|e| match e.action {
            TopologyAction::Move { sender, receiver } => {
                ![sender.x_m, sender.y_m, receiver.x_m, receiver.y_m]
                    .iter()
                    .all(|c| c.is_finite())
            }
            _ => false,
        }) {
            return Err(format!(
                "invalid timeline: event id {} moves to a non-finite position",
                e.id
            ));
        }
        Ok(Some(TimelineSpec::Inline(timeline)))
    };
    match value {
        Value::Null => Ok(None),
        Value::Str(id) => Ok(Some(TimelineSpec::Id(id.clone()))),
        Value::Object(_) => inline(
            serde_json::from_value(value)
                .map_err(|e| format!("timeline object does not parse: {e}"))?,
        ),
        Value::Array(_) => {
            let events: Vec<TopologyEvent> = serde_json::from_value(value)
                .map_err(|e| format!("timeline events do not parse: {e}"))?;
            inline(ScenarioTimeline::new(events))
        }
        other => Err(format!(
            "timeline must be a catalog id string, a timeline object, or an event array, got {}",
            other.kind()
        )),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a [`Rejection`] carrying the best-effort id echo and a message
/// describing the first problem found.
pub fn parse_request(line: &str) -> Result<Request, Rejection> {
    let root =
        serde_json::parse(line).map_err(|e| Rejection::anonymous(format!("invalid JSON: {e}")))?;
    let entries = root.as_object().ok_or_else(|| {
        Rejection::anonymous(format!("request must be an object, got {}", root.kind()))
    })?;

    let id = match canonical_id(root.field("id")) {
        Ok(id) => id,
        Err(e) => return Err(Rejection::anonymous(e)),
    };
    let reject_code = |code: ErrCode, error: String| Rejection {
        id: id.clone(),
        code,
        error,
    };
    let reject = |error: String| reject_code(ErrCode::BadRequest, error);
    // A top-level number given as `null` is refused, not read as absent:
    // `Value::field` reads both as `Null`, so presence comes from the
    // entries (first occurrence, as `field` finds it).
    let given = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);

    if let Some(v) = given("proto") {
        let proto = require_u64(v, "proto").map_err(&reject)?;
        if proto != PROTO_VERSION {
            return Err(reject(format!(
                "unsupported proto {proto}; this server speaks proto {PROTO_VERSION}"
            )));
        }
    }

    let op_value = root.field("op");
    let op_name = op_value
        .as_str()
        .ok_or_else(|| reject("missing or non-string 'op'".to_string()))?;
    let op = Op::from_name(op_name).ok_or_else(|| {
        reject_code(
            ErrCode::UnknownOp,
            format!(
                "unknown op '{op_name}'; known: simulate, predict, tune, pareto, explore, scenario, stats, cache, shutdown"
            ),
        )
    })?;

    let allowed: &[&str] = match op {
        Op::Simulate => &[
            "id",
            "op",
            "proto",
            "deadline_ms",
            "config",
            "packets",
            "seed",
            "engine",
        ],
        Op::Predict => &["id", "op", "proto", "deadline_ms", "config", "engine"],
        Op::Tune => &[
            "id",
            "op",
            "proto",
            "deadline_ms",
            "objective",
            "constraints",
            "distance_m",
            "engine",
        ],
        Op::Pareto => &[
            "id",
            "op",
            "proto",
            "deadline_ms",
            "metrics",
            "distance_m",
            "engine",
            "profile",
        ],
        Op::Explore => &[
            "id",
            "op",
            "proto",
            "deadline_ms",
            "objective",
            "constraints",
            "budget",
            "distance_m",
            "engine",
            "profile",
        ],
        Op::Scenario => &[
            "id",
            "op",
            "proto",
            "deadline_ms",
            "scenario",
            "packets",
            "seed",
            "timeline",
        ],
        Op::Cache => &["id", "op", "proto", "deadline_ms", "action"],
        Op::Stats | Op::Shutdown => &["id", "op", "proto", "deadline_ms"],
    };
    for (key, _) in entries {
        if !allowed.contains(&key.as_str()) {
            return Err(reject(format!("unknown field '{key}' for op '{op_name}'")));
        }
    }

    let deadline_ms = given("deadline_ms")
        .map(|v| require_u64(v, "deadline_ms"))
        .transpose()
        .map_err(&reject)?;

    let seed_of = || given("seed").map_or(Ok(DEFAULT_SEED), |v| require_u64(v, "seed"));
    let packets_field = given("packets");
    let engine_of = |root: &Value| -> Result<EngineMode, String> {
        match root.field("engine") {
            Value::Null => Ok(EngineMode::Golden),
            v => v
                .as_str()
                .and_then(EngineMode::from_name)
                .ok_or_else(|| "engine must be \"golden\", \"fast\", or \"analytic\"".to_string()),
        }
    };
    let profile_of = |root: &Value| -> Result<Profile, String> {
        match root.field("profile") {
            Value::Null => Ok(Profile::default()),
            v => v
                .as_str()
                .and_then(Profile::from_name)
                .ok_or_else(|| "profile must be \"paper\" or \"case-study\"".to_string()),
        }
    };
    let objective_of = |root: &Value, op: &str| -> Result<Metric, String> {
        root.field("objective")
            .as_str()
            .ok_or_else(|| format!("{op} needs a string 'objective'"))
            .and_then(metric_from_name)
    };
    let constraints_of = |root: &Value| -> Result<Vec<(Metric, f64)>, String> {
        let mut constraints = Vec::new();
        match root.field("constraints") {
            Value::Null => {}
            v => {
                let items = v
                    .as_array()
                    .ok_or_else(|| "constraints must be an array".to_string())?;
                for item in items {
                    let metric = item
                        .field("metric")
                        .as_str()
                        .ok_or_else(|| "each constraint needs a string 'metric'".to_string())
                        .and_then(metric_from_name)?;
                    let max = require_f64(item.field("max"), "constraint max")?;
                    constraints.push((metric, max));
                }
            }
        }
        Ok(constraints)
    };
    let distance_of = || {
        given("distance_m")
            .map(|v| require_f64(v, "distance_m"))
            .transpose()
    };

    let body = match op {
        Op::Simulate => RequestBody::Simulate {
            config: match root.field("config") {
                Value::Null => StackConfig::default(),
                v => parse_config(v).map_err(&reject)?,
            },
            packets: parse_packets(packets_field).map_err(&reject)?,
            seed: seed_of().map_err(&reject)?,
            engine: engine_of(&root).map_err(|e| reject_code(ErrCode::UnknownEngine, e))?,
        },
        Op::Predict => {
            let engine = engine_of(&root).map_err(|e| reject_code(ErrCode::UnknownEngine, e))?;
            if engine == EngineMode::Fast {
                return Err(reject(
                    "predict engine must be \"golden\" or \"analytic\"; \
                     \"fast\" is a sampling backend — use op \"simulate\""
                        .to_string(),
                ));
            }
            RequestBody::Predict {
                config: match root.field("config") {
                    Value::Null => StackConfig::default(),
                    v => parse_config(v).map_err(&reject)?,
                },
                engine,
            }
        }
        Op::Tune => RequestBody::Tune {
            objective: objective_of(&root, "tune").map_err(&reject)?,
            constraints: constraints_of(&root).map_err(&reject)?,
            distance_m: distance_of().map_err(&reject)?,
            engine: engine_of(&root).map_err(|e| reject_code(ErrCode::UnknownEngine, e))?,
        },
        Op::Pareto => {
            let engine = engine_of(&root).map_err(|e| reject_code(ErrCode::UnknownEngine, e))?;
            if engine == EngineMode::Fast {
                return Err(reject(
                    "pareto engine must be \"golden\" or \"analytic\"; \
                     \"fast\" samples one seed per config — use op \"simulate\""
                        .to_string(),
                ));
            }
            let metrics = match root.field("metrics") {
                Value::Null => vec![Metric::Energy, Metric::Goodput],
                v => {
                    let items = v
                        .as_array()
                        .ok_or_else(|| reject("metrics must be an array of names".to_string()))?;
                    let mut metrics = Vec::new();
                    for item in items {
                        let metric = item
                            .as_str()
                            .ok_or_else(|| reject("each metric must be a string".to_string()))
                            .and_then(|name| metric_from_name(name).map_err(&reject))?;
                        if metrics.contains(&metric) {
                            return Err(reject(format!(
                                "duplicate metric '{}'",
                                metric_name(metric)
                            )));
                        }
                        metrics.push(metric);
                    }
                    if metrics.len() < 2 {
                        return Err(reject(
                            "pareto needs at least 2 metrics (a 1-metric front is op \"tune\")"
                                .to_string(),
                        ));
                    }
                    metrics
                }
            };
            RequestBody::Pareto {
                metrics,
                distance_m: distance_of().map_err(&reject)?,
                engine,
                profile: profile_of(&root).map_err(&reject)?,
            }
        }
        Op::Explore => {
            let budget = match given("budget") {
                None => {
                    return Err(reject(
                        "explore needs a 'budget' (max candidate evaluations)".to_string(),
                    ))
                }
                Some(v) => require_u64(v, "budget").map_err(&reject)?,
            };
            if budget == 0 {
                return Err(reject("budget must be at least 1".to_string()));
            }
            RequestBody::Explore {
                objective: objective_of(&root, "explore").map_err(&reject)?,
                constraints: constraints_of(&root).map_err(&reject)?,
                budget,
                distance_m: distance_of().map_err(&reject)?,
                engine: engine_of(&root).map_err(|e| reject_code(ErrCode::UnknownEngine, e))?,
                profile: profile_of(&root).map_err(&reject)?,
            }
        }
        Op::Scenario => RequestBody::Scenario {
            scenario: root
                .field("scenario")
                .as_str()
                .ok_or_else(|| reject("scenario op needs a string 'scenario' id".to_string()))?
                .to_string(),
            packets: parse_packets(packets_field).map_err(&reject)?,
            seed: seed_of().map_err(&reject)?,
            timeline: parse_timeline(root.field("timeline")).map_err(&reject)?,
        },
        Op::Cache => RequestBody::Cache {
            flush: match root.field("action") {
                Value::Null => false,
                v => match v.as_str() {
                    Some("flush") => true,
                    _ => {
                        return Err(reject(format!(
                            "cache action must be \"flush\", got {}",
                            v.kind()
                        )))
                    }
                },
            },
        },
        Op::Stats => RequestBody::Stats,
        Op::Shutdown => RequestBody::Shutdown,
    };

    Ok(Request {
        id,
        op,
        deadline_ms,
        body,
    })
}

/// Room for the longest common key (a full-config `simulate` with an
/// engine suffix is ~90 bytes), so building one never reallocates.
const KEY_CAPACITY: usize = 128;

/// Appends the canonical bit-exact key of a configuration: `f64::to_bits`
/// for the distance, raw integers for everything else.
fn push_config_bits(key: &mut String, config: &StackConfig) {
    let _ = write!(
        key,
        "d:{:016x},p:{},t:{},r:{},q:{},i:{},l:{}",
        config.distance.meters().to_bits(),
        config.power.level(),
        config.max_tries.get(),
        config.retry_delay.millis(),
        config.queue_cap.get(),
        config.packet_interval.millis(),
        config.payload.bytes()
    );
}

/// Cache-key suffix partitioning the engine modes: empty for golden (so
/// every pre-engine key stays byte-identical) and `|e:fast` / `|e:analytic`
/// otherwise, which guarantees an answer from one backend can never be
/// served to a request for another.
fn engine_suffix(engine: EngineMode) -> &'static str {
    match engine {
        EngineMode::Golden => "",
        EngineMode::Fast => "|e:fast",
        EngineMode::Analytic => "|e:analytic",
    }
}

/// Cache-key suffix partitioning the evaluation profiles: empty for the
/// paper default so pre-profile keys stay byte-identical.
fn profile_suffix(profile: Profile) -> &'static str {
    match profile {
        Profile::Paper => "",
        Profile::CaseStudy => "|v:case-study",
    }
}

/// Appends the canonical `|c:metric<=bits` run of a constraint list:
/// sorted by metric name then bound bits, duplicates removed. Permuting
/// (or repeating) semantically identical constraints must produce the
/// same cache key, otherwise equal searches miss each other's answers.
fn push_constraints(key: &mut String, constraints: &[(Metric, f64)]) {
    let mut items: Vec<(&'static str, u64)> = constraints
        .iter()
        .map(|(metric, max)| (metric_name(*metric), max.to_bits()))
        .collect();
    items.sort_unstable();
    items.dedup();
    for (name, bits) in items {
        let _ = write!(key, "|c:{name}<={bits:016x}");
    }
}

/// Appends the `|d:bits` or `|d:-` run of an optional distance restriction.
fn push_distance(key: &mut String, distance_m: Option<f64>) {
    match distance_m {
        Some(d) => {
            let _ = write!(key, "|d:{:016x}", d.to_bits());
        }
        None => key.push_str("|d:-"),
    }
}

/// The canonical cache key of a request body, or `None` for ops whose
/// answers are live (`stats`, `cache`, `shutdown`). Each key is written
/// into one pre-sized buffer.
pub fn cache_key(body: &RequestBody) -> Option<String> {
    let mut key = String::with_capacity(KEY_CAPACITY);
    match body {
        RequestBody::Simulate {
            config,
            packets,
            seed,
            engine,
        } => {
            key.push_str("sim|");
            push_config_bits(&mut key, config);
            let _ = write!(key, "|n:{packets}|s:{seed:016x}");
            key.push_str(engine_suffix(*engine));
        }
        RequestBody::Predict { config, engine } => {
            key.push_str("prd|");
            push_config_bits(&mut key, config);
            key.push_str(engine_suffix(*engine));
        }
        RequestBody::Tune {
            objective,
            constraints,
            distance_m,
            engine,
        } => {
            key.push_str("tun|o:");
            key.push_str(metric_name(*objective));
            push_constraints(&mut key, constraints);
            push_distance(&mut key, *distance_m);
            key.push_str(engine_suffix(*engine));
        }
        RequestBody::Pareto {
            metrics,
            distance_m,
            engine,
            profile,
        } => {
            // Metric order stays in the key: it decides the result's value
            // columns and the front's sort axis, so permutations are
            // different answers (unlike constraint permutations).
            key.push_str("par|m:");
            for (i, metric) in metrics.iter().enumerate() {
                if i > 0 {
                    key.push(',');
                }
                key.push_str(metric_name(*metric));
            }
            push_distance(&mut key, *distance_m);
            key.push_str(profile_suffix(*profile));
            key.push_str(engine_suffix(*engine));
        }
        RequestBody::Explore {
            objective,
            constraints,
            budget,
            distance_m,
            engine,
            profile,
        } => {
            key.push_str("xpl|o:");
            key.push_str(metric_name(*objective));
            push_constraints(&mut key, constraints);
            let _ = write!(key, "|b:{budget}");
            push_distance(&mut key, *distance_m);
            key.push_str(profile_suffix(*profile));
            key.push_str(engine_suffix(*engine));
        }
        RequestBody::Scenario {
            scenario,
            packets,
            seed,
            timeline,
        } => {
            let _ = write!(key, "scn|{scenario}|n:{packets}|s:{seed:016x}");
            // Static scenario keys stay byte-identical to the pre-timeline
            // format; a timeline partitions the cache by its canonical
            // digest. An unresolvable spec gets a sentinel key — harmless,
            // because error responses are never cached.
            if let Some(spec) = timeline {
                match spec.resolve(scenario) {
                    Ok(timeline) => {
                        let _ = write!(key, "|t:{:016x}", timeline.digest());
                    }
                    Err(_) => key.push_str("|t:invalid"),
                }
            }
        }
        RequestBody::Stats | RequestBody::Cache { .. } | RequestBody::Shutdown => return None,
    }
    Some(key)
}

/// Renders a success envelope. `result` is spliced verbatim, so a cached
/// body reproduces the original response byte-for-byte (only `cached`,
/// `service_us`, and `trace` may differ between the first and repeat
/// responses). `service_us` is the pop-to-answer execution time (probe
/// to answer for a memory-tier hit answered on the front end); `trace`
/// is the request's 16-hex-char trace id, joining the response to the
/// server's access log.
pub fn envelope_ok(
    id: &str,
    op: Op,
    cached: bool,
    service_us: u64,
    trace: &str,
    result: &str,
) -> String {
    format!(
        "{{\"proto\":{PROTO_VERSION},\"id\":{id},\"op\":\"{}\",\"ok\":true,\"cached\":{cached},\"service_us\":{service_us},\"trace\":\"{trace}\",\"result\":{result}}}",
        op.name()
    )
}

/// Renders an error envelope. `trace` is `None` for failures that happen
/// before a trace id is assigned (parse errors, oversized lines); `code`
/// is the stable machine-readable classification of the failure.
pub fn envelope_err(
    id: &str,
    op: Option<Op>,
    trace: Option<&str>,
    code: ErrCode,
    error: &str,
) -> String {
    let op_name = op.map(Op::name).unwrap_or("unknown");
    let code = code.name();
    let message = serde_json::to_string(&error).unwrap_or_else(|_| "\"error\"".to_string());
    match trace {
        Some(trace) => format!(
            "{{\"proto\":{PROTO_VERSION},\"id\":{id},\"op\":\"{op_name}\",\"ok\":false,\"trace\":\"{trace}\",\"code\":\"{code}\",\"error\":{message}}}"
        ),
        None => format!(
            "{{\"proto\":{PROTO_VERSION},\"id\":{id},\"op\":\"{op_name}\",\"ok\":false,\"code\":\"{code}\",\"error\":{message}}}"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_request_parses_with_defaults() {
        let req = parse_request(r#"{"op":"simulate"}"#).unwrap();
        assert_eq!(req.op, Op::Simulate);
        assert_eq!(req.id, "null");
        match req.body {
            RequestBody::Simulate {
                config,
                packets,
                seed,
                engine,
            } => {
                assert_eq!(config, StackConfig::default());
                assert_eq!(packets, DEFAULT_PACKETS);
                assert_eq!(seed, DEFAULT_SEED);
                assert_eq!(engine, EngineMode::Golden);
            }
            other => panic!("wrong body {other:?}"),
        }
    }

    #[test]
    fn config_fields_and_id_are_honored() {
        let req = parse_request(
            r#"{"id":7,"op":"simulate","config":{"distance_m":20.0,"power_level":31,"payload_bytes":50},"packets":100,"seed":1}"#,
        )
        .unwrap();
        assert_eq!(req.id, "7");
        match req.body {
            RequestBody::Simulate {
                config,
                packets,
                seed,
                ..
            } => {
                assert_eq!(config.distance.meters(), 20.0);
                assert_eq!(config.power.level(), 31);
                assert_eq!(config.payload.bytes(), 50);
                assert_eq!(packets, 100);
                assert_eq!(seed, 1);
            }
            other => panic!("wrong body {other:?}"),
        }
    }

    #[test]
    fn unknown_fields_and_ops_are_rejected_with_id_echo() {
        let rej = parse_request(r#"{"id":"x","op":"simulate","packet":5}"#).unwrap_err();
        assert_eq!(rej.id, "\"x\"");
        assert!(
            rej.error.contains("unknown field 'packet'"),
            "{}",
            rej.error
        );

        let rej = parse_request(r#"{"id":3,"op":"simulify"}"#).unwrap_err();
        assert_eq!(rej.id, "3");
        assert!(rej.error.contains("unknown op"));

        let rej = parse_request("not json at all").unwrap_err();
        assert_eq!(rej.id, "null");
        assert!(rej.error.contains("invalid JSON"));
    }

    #[test]
    fn invalid_parameter_values_surface_the_domain_error() {
        let rej = parse_request(r#"{"op":"predict","config":{"power_level":0}}"#).unwrap_err();
        assert!(rej.error.contains("CC2420"), "{}", rej.error);
        let rej =
            parse_request(r#"{"op":"simulate","config":{"payload_bytes":4000}}"#).unwrap_err();
        assert!(rej.error.contains("outside"), "{}", rej.error);
        let rej =
            parse_request(r#"{"op":"simulate","config":{"payload_bytes":70000}}"#).unwrap_err();
        assert!(rej.error.contains("out of range"), "{}", rej.error);
        let rej = parse_request(r#"{"op":"simulate","packets":0}"#).unwrap_err();
        assert!(rej.error.contains("at least 1"));
        let rej = parse_request(&format!(
            r#"{{"op":"simulate","packets":{}}}"#,
            MAX_PACKETS + 1
        ))
        .unwrap_err();
        assert!(rej.error.contains("cap"));
    }

    /// Asserts that `line` is a `bad_request` whose error is `error`.
    fn assert_bad_request(line: &str, error: &str) {
        let rej = parse_request(line).unwrap_err();
        assert_eq!(rej.code, ErrCode::BadRequest, "{line}");
        assert_eq!(rej.error, error, "{line}");
    }

    #[test]
    fn a_null_top_level_number_is_refused_not_read_as_absent() {
        for (line, error) in [
            (
                r#"{"op":"tune","objective":"energy","distance_m":null}"#,
                "distance_m must be a number, got null",
            ),
            (
                r#"{"op":"pareto","distance_m":null}"#,
                "distance_m must be a number, got null",
            ),
            (
                r#"{"op":"explore","objective":"energy","budget":64,"distance_m":null}"#,
                "distance_m must be a number, got null",
            ),
            (
                r#"{"op":"simulate","seed":null}"#,
                "seed must be a non-negative integer, got null",
            ),
            (
                r#"{"op":"scenario","scenario":"parallel-4","seed":null}"#,
                "seed must be a non-negative integer, got null",
            ),
            (
                r#"{"op":"simulate","packets":null}"#,
                "packets must be a non-negative integer, got null",
            ),
            (
                r#"{"op":"stats","deadline_ms":null}"#,
                "deadline_ms must be a non-negative integer, got null",
            ),
            (
                r#"{"op":"explore","objective":"energy","budget":null}"#,
                "budget must be a non-negative integer, got null",
            ),
            (
                r#"{"op":"stats","proto":null}"#,
                "proto must be a non-negative integer, got null",
            ),
        ] {
            assert_bad_request(line, error);
        }
        // Absent still means the default.
        let req = parse_request(r#"{"op":"simulate"}"#).unwrap();
        assert_eq!(req.deadline_ms, None);
        match req.body {
            RequestBody::Simulate { packets, seed, .. } => {
                assert_eq!((packets, seed), (DEFAULT_PACKETS, DEFAULT_SEED));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn an_overflowing_number_is_refused_not_read_as_infinity() {
        for (line, error) in [
            (
                r#"{"op":"tune","objective":"energy","constraints":[{"metric":"loss","max":1e999}]}"#,
                "constraint max must be a finite number, got inf",
            ),
            (
                r#"{"op":"tune","objective":"energy","constraints":[{"metric":"loss","max":-1e999}]}"#,
                "constraint max must be a finite number, got -inf",
            ),
            (
                r#"{"op":"pareto","distance_m":1e999}"#,
                "distance_m must be a finite number, got inf",
            ),
            (
                r#"{"op":"simulate","config":{"distance_m":-1e999}}"#,
                "config.distance_m must be a finite number, got -inf",
            ),
        ] {
            assert_bad_request(line, error);
        }
    }

    #[test]
    fn an_inline_timeline_event_without_a_finite_time_is_refused() {
        let error = "invalid timeline: event id 9 has invalid timestamp NaN";
        assert_bad_request(
            r#"{"op":"scenario","scenario":"parallel-4","timeline":[{"t_s":null,"link":1,"id":9,"action":"Leave"}]}"#,
            error,
        );
        assert_bad_request(
            r#"{"op":"scenario","scenario":"parallel-4","timeline":{"events":[{"t_s":1.0,"link":1,"id":8,"action":"Leave"},{"t_s":null,"link":1,"id":9,"action":"Join"}]}}"#,
            error,
        );
    }

    #[test]
    fn tune_request_parses_objective_and_constraints() {
        let req = parse_request(
            r#"{"op":"tune","objective":"energy","constraints":[{"metric":"loss","max":0.01}],"distance_m":20.0}"#,
        )
        .unwrap();
        match req.body {
            RequestBody::Tune {
                objective,
                constraints,
                distance_m,
                engine,
            } => {
                assert_eq!(objective, Metric::Energy);
                assert_eq!(constraints, vec![(Metric::Loss, 0.01)]);
                assert_eq!(distance_m, Some(20.0));
                assert_eq!(engine, EngineMode::Golden);
            }
            other => panic!("wrong body {other:?}"),
        }
    }

    #[test]
    fn permuted_constraints_share_one_canonical_tune_key() {
        let ab = parse_request(
            r#"{"op":"tune","objective":"energy","constraints":[{"metric":"loss","max":0.01},{"metric":"delay","max":50.0}]}"#,
        )
        .unwrap();
        let ba = parse_request(
            r#"{"op":"tune","objective":"energy","constraints":[{"metric":"delay","max":50.0},{"metric":"loss","max":0.01}]}"#,
        )
        .unwrap();
        // Constraint order is irrelevant to the question being asked, so
        // permutations must hit the same cache line.
        assert_eq!(cache_key(&ab.body), cache_key(&ba.body));

        // So must a repeated constraint — `loss ≤ 0.01` twice is once.
        let dup = parse_request(
            r#"{"op":"tune","objective":"energy","constraints":[{"metric":"loss","max":0.01},{"metric":"loss","max":0.01},{"metric":"delay","max":50.0}]}"#,
        )
        .unwrap();
        assert_eq!(cache_key(&dup.body), cache_key(&ab.body));

        // A different bound is a different question.
        let other = parse_request(
            r#"{"op":"tune","objective":"energy","constraints":[{"metric":"loss","max":0.02},{"metric":"delay","max":50.0}]}"#,
        )
        .unwrap();
        assert_ne!(cache_key(&other.body), cache_key(&ab.body));

        // Single-constraint keys keep the historical byte layout, so
        // pre-canonicalization cache entries stay valid.
        let single = parse_request(
            r#"{"op":"tune","objective":"energy","constraints":[{"metric":"loss","max":0.01}],"distance_m":20.0}"#,
        )
        .unwrap();
        assert_eq!(
            cache_key(&single.body).unwrap(),
            format!(
                "tun|o:energy|c:loss<={:016x}|d:{:016x}",
                0.01f64.to_bits(),
                20.0f64.to_bits()
            )
        );
    }

    #[test]
    fn pareto_request_parses_metrics_profile_and_keys() {
        let req = parse_request(r#"{"op":"pareto"}"#).unwrap();
        match &req.body {
            RequestBody::Pareto {
                metrics,
                distance_m,
                engine,
                profile,
            } => {
                assert_eq!(metrics, &[Metric::Energy, Metric::Goodput]);
                assert_eq!(*distance_m, None);
                assert_eq!(*engine, EngineMode::Golden);
                assert_eq!(*profile, Profile::Paper);
            }
            other => panic!("wrong body {other:?}"),
        }
        assert_eq!(
            cache_key(&req.body).unwrap(),
            "par|m:energy,goodput|d:-".to_string()
        );

        // Metric order picks the value columns, so it stays in the key;
        // profile and engine partition their own cache lines.
        let swapped = parse_request(r#"{"op":"pareto","metrics":["goodput","energy"]}"#).unwrap();
        assert_ne!(cache_key(&swapped.body), cache_key(&req.body));
        let cs = parse_request(
            r#"{"op":"pareto","engine":"analytic","profile":"case-study","distance_m":35.0}"#,
        )
        .unwrap();
        assert_eq!(
            cache_key(&cs.body).unwrap(),
            format!(
                "par|m:energy,goodput|d:{:016x}|v:case-study|e:analytic",
                35.0f64.to_bits()
            )
        );

        let rej = parse_request(r#"{"op":"pareto","engine":"fast"}"#).unwrap_err();
        assert!(rej.error.contains("simulate"), "{}", rej.error);
        let rej = parse_request(r#"{"op":"pareto","metrics":["energy","energy"]}"#).unwrap_err();
        assert!(rej.error.contains("duplicate"), "{}", rej.error);
        let rej = parse_request(r#"{"op":"pareto","metrics":["energy"]}"#).unwrap_err();
        assert!(rej.error.contains("tune"), "{}", rej.error);
        let rej = parse_request(r#"{"op":"pareto","profile":"lab"}"#).unwrap_err();
        assert!(rej.error.contains("case-study"), "{}", rej.error);
    }

    #[test]
    fn explore_request_requires_budget_and_canonicalizes_keys() {
        let rej = parse_request(r#"{"op":"explore","objective":"energy"}"#).unwrap_err();
        assert!(rej.error.contains("budget"), "{}", rej.error);
        let rej = parse_request(r#"{"op":"explore","objective":"energy","budget":0}"#).unwrap_err();
        assert!(rej.error.contains("at least 1"), "{}", rej.error);

        let ab = parse_request(
            r#"{"op":"explore","objective":"energy","budget":100,"constraints":[{"metric":"loss","max":0.01},{"metric":"delay","max":50.0}]}"#,
        )
        .unwrap();
        let ba = parse_request(
            r#"{"op":"explore","objective":"energy","budget":100,"constraints":[{"metric":"delay","max":50.0},{"metric":"loss","max":0.01}]}"#,
        )
        .unwrap();
        assert_eq!(cache_key(&ab.body), cache_key(&ba.body));
        match &ab.body {
            RequestBody::Explore { budget, .. } => assert_eq!(*budget, 100),
            other => panic!("wrong body {other:?}"),
        }

        // The budget bounds the search, so it is part of the question.
        let wider = parse_request(r#"{"op":"explore","objective":"energy","budget":200,"constraints":[{"metric":"delay","max":50.0},{"metric":"loss","max":0.01}]}"#).unwrap();
        assert_ne!(cache_key(&wider.body), cache_key(&ab.body));

        let full = parse_request(
            r#"{"op":"explore","objective":"goodput","budget":64,"engine":"fast","profile":"case-study","distance_m":35.0}"#,
        )
        .unwrap();
        assert_eq!(
            cache_key(&full.body).unwrap(),
            format!(
                "xpl|o:goodput|b:64|d:{:016x}|v:case-study|e:fast",
                35.0f64.to_bits()
            )
        );
    }

    #[test]
    fn engine_field_parses_and_partitions_cache_keys() {
        let fast = parse_request(r#"{"op":"simulate","engine":"fast"}"#).unwrap();
        match &fast.body {
            RequestBody::Simulate { engine, .. } => assert_eq!(*engine, EngineMode::Fast),
            other => panic!("wrong body {other:?}"),
        }
        let golden = parse_request(r#"{"op":"simulate","engine":"golden"}"#).unwrap();
        let implicit = parse_request(r#"{"op":"simulate"}"#).unwrap();

        // Golden keys are byte-identical to the pre-engine format; the
        // fast key is a distinct cache line.
        assert_eq!(cache_key(&golden.body), cache_key(&implicit.body));
        assert!(!cache_key(&golden.body).unwrap().contains("|e:"));
        assert_ne!(cache_key(&fast.body), cache_key(&golden.body));
        assert!(cache_key(&fast.body).unwrap().ends_with("|e:fast"));

        let tune_fast =
            parse_request(r#"{"op":"tune","objective":"energy","engine":"fast"}"#).unwrap();
        let tune_golden = parse_request(r#"{"op":"tune","objective":"energy"}"#).unwrap();
        assert_ne!(cache_key(&tune_fast.body), cache_key(&tune_golden.body));
        assert!(!cache_key(&tune_golden.body).unwrap().contains("|e:"));

        let rej = parse_request(r#"{"op":"simulate","engine":"warp"}"#).unwrap_err();
        // Unknown engines draw the full valid set in the message.
        for name in ["golden", "fast", "analytic"] {
            assert!(rej.error.contains(name), "{}", rej.error);
        }
    }

    #[test]
    fn analytic_engine_parses_everywhere_and_partitions_cache_keys() {
        for op in ["simulate", "tune"] {
            let line = if op == "tune" {
                format!(r#"{{"op":"{op}","objective":"energy","engine":"analytic"}}"#)
            } else {
                format!(r#"{{"op":"{op}","engine":"analytic"}}"#)
            };
            let req = parse_request(&line).unwrap();
            let key = cache_key(&req.body).unwrap();
            assert!(key.ends_with("|e:analytic"), "{op}: {key}");
        }

        // predict accepts golden (default) and analytic; the analytic key
        // is a distinct cache line while the golden key stays byte-
        // identical to the historical `prd|…` format.
        let golden = parse_request(r#"{"op":"predict"}"#).unwrap();
        let explicit = parse_request(r#"{"op":"predict","engine":"golden"}"#).unwrap();
        let analytic = parse_request(r#"{"op":"predict","engine":"analytic"}"#).unwrap();
        assert_eq!(cache_key(&golden.body), cache_key(&explicit.body));
        assert!(!cache_key(&golden.body).unwrap().contains("|e:"));
        assert!(cache_key(&golden.body).unwrap().starts_with("prd|"));
        assert_ne!(cache_key(&analytic.body), cache_key(&golden.body));
        assert!(cache_key(&analytic.body).unwrap().ends_with("|e:analytic"));

        // predict is closed-form only: the sampling backend is refused
        // with a pointer at simulate.
        let rej = parse_request(r#"{"op":"predict","engine":"fast"}"#).unwrap_err();
        assert!(rej.error.contains("analytic"), "{}", rej.error);
        assert!(rej.error.contains("simulate"), "{}", rej.error);
    }

    #[test]
    fn cache_keys_distinguish_bitwise_different_requests() {
        let base = parse_request(r#"{"op":"simulate"}"#).unwrap();
        let same = parse_request(r#"{"id":99,"op":"simulate"}"#).unwrap();
        // The id is routing metadata, not part of the question.
        assert_eq!(cache_key(&base.body), cache_key(&same.body));

        let different =
            parse_request(r#"{"op":"simulate","config":{"distance_m":34.999999999999996}}"#)
                .unwrap();
        assert_ne!(cache_key(&base.body), cache_key(&different.body));

        let stats = parse_request(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(cache_key(&stats.body), None);
    }

    #[test]
    fn envelopes_are_valid_json() {
        let ok = envelope_ok(
            "42",
            Op::Simulate,
            true,
            17,
            "00c0ffee00c0ffee",
            "{\"x\":1}",
        );
        let v = serde_json::parse(&ok).unwrap();
        assert_eq!(v.field("proto").as_u64(), Some(PROTO_VERSION));
        assert_eq!(v.field("ok").as_bool(), Some(true));
        assert_eq!(v.field("cached").as_bool(), Some(true));
        assert_eq!(v.field("id").as_u64(), Some(42));
        assert_eq!(v.field("trace").as_str(), Some("00c0ffee00c0ffee"));
        assert_eq!(v.field("result").field("x").as_u64(), Some(1));

        let err = envelope_err(
            "null",
            None,
            None,
            ErrCode::BadRequest,
            "bad \"quoted\" thing\n",
        );
        let v = serde_json::parse(&err).unwrap();
        assert_eq!(v.field("proto").as_u64(), Some(PROTO_VERSION));
        assert_eq!(v.field("ok").as_bool(), Some(false));
        assert_eq!(v.field("code").as_str(), Some("bad_request"));
        assert!(v.field("error").as_str().unwrap().contains("quoted"));

        let err = envelope_err(
            "7",
            Some(Op::Predict),
            Some("00c0ffee00c0ffee"),
            ErrCode::Deadline,
            "late",
        );
        let v = serde_json::parse(&err).unwrap();
        assert_eq!(v.field("trace").as_str(), Some("00c0ffee00c0ffee"));
        assert_eq!(v.field("op").as_str(), Some("predict"));
        assert_eq!(v.field("code").as_str(), Some("deadline"));
    }

    #[test]
    fn proto_field_is_accepted_at_v1_and_rejected_otherwise() {
        // A v1 client may pin the protocol explicitly on any op.
        let req = parse_request(r#"{"op":"stats","proto":1}"#).unwrap();
        assert_eq!(req.op, Op::Stats);

        let rej = parse_request(r#"{"id":5,"op":"stats","proto":2}"#).unwrap_err();
        assert_eq!(rej.id, "5");
        assert_eq!(rej.code, ErrCode::BadRequest);
        assert!(rej.error.contains("unsupported proto 2"), "{}", rej.error);
        assert!(rej.error.contains("proto 1"), "{}", rej.error);

        let rej = parse_request(r#"{"op":"stats","proto":"1"}"#).unwrap_err();
        assert!(rej.error.contains("proto"), "{}", rej.error);
    }

    #[test]
    fn rejections_carry_machine_readable_codes() {
        let rej = parse_request("not json").unwrap_err();
        assert_eq!(rej.code, ErrCode::BadRequest);

        let rej = parse_request(r#"{"op":"simulify"}"#).unwrap_err();
        assert_eq!(rej.code, ErrCode::UnknownOp);

        let rej = parse_request(r#"{"op":"simulate","engine":"warp"}"#).unwrap_err();
        assert_eq!(rej.code, ErrCode::UnknownEngine);
        let rej =
            parse_request(r#"{"op":"tune","objective":"energy","engine":"warp"}"#).unwrap_err();
        assert_eq!(rej.code, ErrCode::UnknownEngine);

        // predict+fast is a *valid* engine aimed at the wrong op: the
        // request is malformed, not the engine name.
        let rej = parse_request(r#"{"op":"predict","engine":"fast"}"#).unwrap_err();
        assert_eq!(rej.code, ErrCode::BadRequest);

        let rej = parse_request(r#"{"op":"simulate","packet":5}"#).unwrap_err();
        assert_eq!(rej.code, ErrCode::BadRequest);
    }

    #[test]
    fn cache_op_parses_action_and_is_never_cached() {
        let plain = parse_request(r#"{"op":"cache"}"#).unwrap();
        assert_eq!(plain.op, Op::Cache);
        assert_eq!(plain.body, RequestBody::Cache { flush: false });
        assert_eq!(cache_key(&plain.body), None);

        let flush = parse_request(r#"{"op":"cache","action":"flush"}"#).unwrap();
        assert_eq!(flush.body, RequestBody::Cache { flush: true });

        let rej = parse_request(r#"{"op":"cache","action":"drop"}"#).unwrap_err();
        assert_eq!(rej.code, ErrCode::BadRequest);
        assert!(rej.error.contains("flush"), "{}", rej.error);

        // The action field belongs to cache alone.
        let rej = parse_request(r#"{"op":"stats","action":"flush"}"#).unwrap_err();
        assert!(
            rej.error.contains("unknown field 'action'"),
            "{}",
            rej.error
        );
    }

    #[test]
    fn proto_is_the_first_envelope_field() {
        // Wire compatibility: `proto` prefixes the envelope so the
        // `"id":…,"op":…,"ok":…` run stays contiguous for line-oriented
        // consumers (CI smoke greps included).
        let ok = envelope_ok("1", Op::Simulate, false, 9, "aaaaaaaaaaaaaaaa", "{}");
        assert!(
            ok.starts_with("{\"proto\":1,\"id\":1,\"op\":\"simulate\",\"ok\":true,"),
            "{ok}"
        );
        let err = envelope_err("1", None, None, ErrCode::Overloaded, "busy");
        assert!(
            err.starts_with("{\"proto\":1,\"id\":1,\"op\":\"unknown\",\"ok\":false,"),
            "{err}"
        );
        assert!(err.contains("\"code\":\"overloaded\",\"error\":"), "{err}");
    }

    #[test]
    fn trace_sits_between_service_us_and_result() {
        // Clients (and this repo's own tests) parse `service_us` up to the
        // next comma and locate the result with a `"result":` search —
        // the trace field must not break either convention.
        let ok = envelope_ok("1", Op::Stats, false, 250, "aaaaaaaaaaaaaaaa", "{}");
        let service_idx = ok
            .find("\"service_us\":250,")
            .expect("service_us then comma");
        let trace_idx = ok.find("\"trace\":").expect("trace present");
        let result_idx = ok.find("\"result\":").expect("result present");
        assert!(service_idx < trace_idx && trace_idx < result_idx, "{ok}");
    }

    #[test]
    fn scenario_request_requires_id_string() {
        let req =
            parse_request(r#"{"op":"scenario","scenario":"hidden-pair","packets":60}"#).unwrap();
        match req.body {
            RequestBody::Scenario {
                scenario,
                packets,
                timeline,
                ..
            } => {
                assert_eq!(scenario, "hidden-pair");
                assert_eq!(packets, 60);
                assert_eq!(timeline, None);
            }
            other => panic!("wrong body {other:?}"),
        }
        assert!(parse_request(r#"{"op":"scenario"}"#).is_err());
    }

    #[test]
    fn timeline_field_parses_id_object_and_array_forms() {
        let by_id =
            parse_request(r#"{"op":"scenario","scenario":"parallel-4","timeline":"storm20"}"#)
                .unwrap();
        match &by_id.body {
            RequestBody::Scenario { timeline, .. } => {
                assert_eq!(timeline, &Some(TimelineSpec::Id("storm20".to_string())));
            }
            other => panic!("wrong body {other:?}"),
        }

        // A full timeline object and a bare event array both carry the
        // same inline timeline.
        let event = r#"{"id":9,"t_s":2.5,"link":1,"action":"Leave"}"#;
        let as_object = parse_request(&format!(
            r#"{{"op":"scenario","scenario":"parallel-4","timeline":{{"events":[{event}]}}}}"#
        ))
        .unwrap();
        let as_array = parse_request(&format!(
            r#"{{"op":"scenario","scenario":"parallel-4","timeline":[{event}]}}"#
        ))
        .unwrap();
        match (&as_object.body, &as_array.body) {
            (
                RequestBody::Scenario { timeline: a, .. },
                RequestBody::Scenario { timeline: b, .. },
            ) => {
                assert_eq!(a, b);
                match a {
                    Some(TimelineSpec::Inline(t)) => {
                        assert_eq!(t.events().len(), 1);
                        assert_eq!(t.events()[0].link, 1);
                    }
                    other => panic!("wrong spec {other:?}"),
                }
            }
            other => panic!("wrong bodies {other:?}"),
        }

        // Wrong kinds and malformed events are rejected at parse time.
        let rej =
            parse_request(r#"{"op":"scenario","scenario":"parallel-4","timeline":7}"#).unwrap_err();
        assert!(rej.error.contains("timeline must be"), "{}", rej.error);
        let rej =
            parse_request(r#"{"op":"scenario","scenario":"parallel-4","timeline":[{"nope":1}]}"#)
                .unwrap_err();
        assert!(rej.error.contains("do not parse"), "{}", rej.error);

        // Other ops refuse the field outright.
        let rej = parse_request(r#"{"op":"simulate","timeline":"storm20"}"#).unwrap_err();
        assert!(rej.error.contains("unknown field 'timeline'"));
    }

    #[test]
    fn timeline_partitions_scenario_cache_keys_by_digest() {
        let static_req =
            parse_request(r#"{"op":"scenario","scenario":"parallel-4","packets":60,"seed":2}"#)
                .unwrap();
        // The static key stays byte-identical to the pre-timeline format.
        assert_eq!(
            cache_key(&static_req.body).unwrap(),
            "scn|parallel-4|n:60|s:0000000000000002"
        );

        let storm = parse_request(
            r#"{"op":"scenario","scenario":"parallel-4","packets":60,"seed":2,"timeline":"storm20"}"#,
        )
        .unwrap();
        let storm_key = cache_key(&storm.body).unwrap();
        assert!(
            storm_key.starts_with("scn|parallel-4|n:60|s:0000000000000002|t:"),
            "{storm_key}"
        );
        assert_ne!(storm_key, cache_key(&static_req.body).unwrap());

        // Different timelines get different digests; the same timeline
        // named by id and spelled inline collapses to the same key.
        let waypoint = parse_request(
            r#"{"op":"scenario","scenario":"parallel-4","packets":60,"seed":2,"timeline":"waypoint"}"#,
        )
        .unwrap();
        assert_ne!(cache_key(&waypoint.body).unwrap(), storm_key);

        let resolved = TimelineSpec::Id("storm20".to_string())
            .resolve("parallel-4")
            .unwrap();
        let inline = RequestBody::Scenario {
            scenario: "parallel-4".to_string(),
            packets: 60,
            seed: 2,
            timeline: Some(TimelineSpec::Inline(resolved)),
        };
        assert_eq!(cache_key(&inline).unwrap(), storm_key);

        // An unresolvable spec keys to the sentinel — the request then
        // errors at execution and is never cached under it.
        let bad =
            parse_request(r#"{"op":"scenario","scenario":"parallel-4","timeline":"blizzard"}"#)
                .unwrap();
        assert!(cache_key(&bad.body).unwrap().ends_with("|t:invalid"));
    }

    /// One request per key shape (every op, engine, profile and optional
    /// run) with its full key, byte for byte. Persisted store records are
    /// looked up by these strings, so any change to the rendering orphans
    /// them.
    const KEY_PINS: [(&str, &str); 12] = [
        (r#"{"op":"simulate"}"#, "sim|d:4041800000000000,p:23,t:3,r:30,q:30,i:30,l:110|n:400|s:0000000000005eed"),
        (
            r#"{"op":"simulate","config":{"distance_m":27.5,"power_level":7,"max_tries":5,"retry_delay_ms":30,"queue_cap":40,"packet_interval_ms":100,"payload_bytes":90},"packets":123,"seed":77,"engine":"fast"}"#,
            "sim|d:403b800000000000,p:7,t:5,r:30,q:40,i:100,l:90|n:123|s:000000000000004d|e:fast",
        ),
        (r#"{"op":"predict"}"#, "prd|d:4041800000000000,p:23,t:3,r:30,q:30,i:30,l:110"),
        (r#"{"op":"predict","engine":"analytic"}"#, "prd|d:4041800000000000,p:23,t:3,r:30,q:30,i:30,l:110|e:analytic"),
        (r#"{"op":"tune","objective":"goodput"}"#, "tun|o:goodput|d:-"),
        (
            r#"{"op":"tune","objective":"energy","constraints":[{"metric":"loss","max":0.01},{"metric":"delay","max":50.0}],"distance_m":20.0,"engine":"analytic"}"#,
            "tun|o:energy|c:delay<=4049000000000000|c:loss<=3f847ae147ae147b|d:4034000000000000|e:analytic",
        ),
        (r#"{"op":"pareto"}"#, "par|m:energy,goodput|d:-"),
        (
            r#"{"op":"pareto","metrics":["goodput","energy","loss"],"distance_m":35.0,"profile":"case-study","engine":"analytic"}"#,
            "par|m:goodput,energy,loss|d:4041800000000000|v:case-study|e:analytic",
        ),
        (r#"{"op":"explore","objective":"energy","budget":500}"#, "xpl|o:energy|b:500|d:-"),
        (
            r#"{"op":"explore","objective":"delay","budget":64,"constraints":[{"metric":"loss","max":0.1}],"distance_m":15.0,"profile":"case-study","engine":"fast"}"#,
            "xpl|o:delay|c:loss<=3fb999999999999a|b:64|d:402e000000000000|v:case-study|e:fast",
        ),
        (r#"{"op":"scenario","scenario":"hidden-pair"}"#, "scn|hidden-pair|n:400|s:0000000000005eed"),
        (
            r#"{"op":"scenario","scenario":"parallel-4","packets":60,"seed":2,"timeline":"storm20"}"#,
            "scn|parallel-4|n:60|s:0000000000000002|t:8c26fa92b85960c1",
        ),
    ];

    #[test]
    fn cache_keys_are_pinned_byte_for_byte() {
        for (line, key) in KEY_PINS {
            let req = parse_request(line).unwrap_or_else(|r| panic!("{line}: {}", r.error));
            assert_eq!(cache_key(&req.body).as_deref(), Some(key), "{line}");
        }
    }

    #[test]
    fn timeline_spec_resolution_validates_against_the_scenario() {
        let known = TimelineSpec::Id("storm20".to_string()).resolve("parallel-4");
        assert!(known.is_ok());
        let err = TimelineSpec::Id("blizzard".to_string())
            .resolve("parallel-4")
            .unwrap_err();
        assert!(err.contains("storm20"), "{err}");

        // An inline event aimed past the scenario's links fails
        // validation instead of panicking inside the simulator.
        let out_of_range = ScenarioTimeline::new(vec![TopologyEvent {
            id: 0,
            t_s: 1.0,
            link: 99,
            action: TopologyAction::Leave,
        }]);
        let err = TimelineSpec::Inline(out_of_range)
            .resolve("parallel-4")
            .unwrap_err();
        assert!(err.contains("invalid timeline"), "{err}");
    }
}
