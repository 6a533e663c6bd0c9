//! Resumable sharded campaign runs with JSONL checkpoint files.
//!
//! A grid run is split into `shards` contiguous spans of configurations.
//! Each shard streams its results to `shard-NNNN.jsonl` in the output
//! directory — one [`ShardLine`] (global config index + result) per line.
//! A shard is written to `shard-NNNN.jsonl.tmp` and atomically renamed on
//! completion, so the rename is the checkpoint unit: a file named
//! `shard-NNNN.jsonl` is always complete and bit-exact.
//!
//! Before the first shard, the run writes its identity — engine, packets,
//! seed, traffic, channel, configuration and shard counts — to
//! `campaign.json` ([`CampaignManifest`]) the same way.
//!
//! **Resume** is therefore trivial and robust: re-running the same campaign
//! into the same directory skips every completed shard (and deletes any
//! stale `.tmp` left by a kill), then simulates only the missing ones; a
//! run whose identity differs from `campaign.json` is refused. Because
//! per-configuration seeds derive from the *global* configuration index
//! (see [`Campaign::seed_for`]), a resumed run produces byte-identical
//! shard files to an uninterrupted one.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use wsn_link_sim::traffic::TrafficModel;
use wsn_obs::hist::LogLinearHistogram;
use wsn_obs::log::EventLog;
use wsn_obs::span::Span;
use wsn_params::config::StackConfig;
use wsn_radio::channel::ChannelConfig;
use wsn_sim_engine::mode::EngineMode;

use crate::campaign::{Campaign, ConfigResult};
use crate::stream::SinkFn;

/// One line of a shard file: a result tagged with its global grid index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardLine {
    /// Index of the configuration in the whole grid (also its seed index).
    pub index: usize,
    /// The measurement for that configuration.
    pub result: ConfigResult,
}

/// What a sharded run did — split between fresh work and skipped
/// checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    /// Configurations in the whole grid.
    pub total_configs: usize,
    /// Shards the grid was split into.
    pub shards_total: usize,
    /// Shards found already complete and skipped (resume).
    pub shards_skipped: usize,
    /// Configurations actually simulated by this invocation.
    pub configs_simulated: usize,
}

/// File name of a checkpoint directory's run identity.
pub const MANIFEST_FILE: &str = "campaign.json";

/// The run identity of a checkpoint directory: everything that decides
/// the bytes of its shard files.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignManifest {
    /// Simulation backend.
    pub engine: EngineMode,
    /// Packets per configuration.
    pub packets: u64,
    /// Base campaign seed.
    pub seed: u64,
    /// Arrival process.
    pub traffic: TrafficModel,
    /// Propagation environment.
    pub channel: ChannelConfig,
    /// Configurations in the whole run.
    pub configs: usize,
    /// Shards the run is split into.
    pub shards: usize,
}

impl CampaignManifest {
    /// The identity of `campaign` over `configs` configurations in
    /// `shards` shards.
    fn new(campaign: &Campaign, configs: usize, shards: usize) -> Self {
        CampaignManifest {
            engine: campaign.engine,
            packets: campaign.packets,
            seed: campaign.seed,
            traffic: campaign.traffic,
            channel: campaign.channel,
            configs,
            shards,
        }
    }

    /// The first field in which `other` differs from this manifest, with
    /// `other`'s value and this one's. Fields compare as written JSON, so
    /// a float that writes as `null` (an unbounded shadowing distance)
    /// equals itself after a round trip.
    fn mismatch(&self, other: &CampaignManifest) -> Option<(&'static str, String, String)> {
        fn json(value: &impl Serialize) -> String {
            serde_json::to_string(value).expect("the writer cannot fail")
        }
        let fields = |m: &CampaignManifest| {
            [
                ("engine", json(&m.engine)),
                ("packets", json(&m.packets)),
                ("seed", json(&m.seed)),
                ("traffic", json(&m.traffic)),
                ("channel", json(&m.channel)),
                ("configs", json(&m.configs)),
                ("shards", json(&m.shards)),
            ]
        };
        fields(other)
            .into_iter()
            .zip(fields(self))
            .find(|((_, theirs), (_, ours))| theirs != ours)
            .map(|((field, theirs), (_, ours))| (field, theirs, ours))
    }

    /// Reads `dir`'s manifest: `None` when the directory has none, an
    /// error when the file cannot be read or parsed.
    fn read(dir: &Path) -> Result<Option<Self>, ShardError> {
        let path = dir.join(MANIFEST_FILE);
        match fs::read_to_string(&path) {
            Ok(text) => serde_json::from_str(&text)
                .map(Some)
                .map_err(|e| ShardError::Serde(path, format!("{e:?}"))),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(ShardError::Io(path, e)),
        }
    }

    /// Writes the manifest into `dir` through a `.tmp` file and a rename.
    fn write(&self, dir: &Path) -> Result<(), ShardError> {
        let path = dir.join(MANIFEST_FILE);
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| ShardError::Serde(path.clone(), format!("{e:?}")))?;
        fs::write(&tmp, json + "\n").map_err(|e| ShardError::Io(tmp.clone(), e))?;
        fs::rename(&tmp, &path).map_err(|e| ShardError::Io(path, e))
    }
}

/// Errors from shard I/O.
#[derive(Debug)]
pub enum ShardError {
    /// Filesystem error, with the path involved.
    Io(PathBuf, io::Error),
    /// A shard line failed to (de)serialize.
    Serde(PathBuf, String),
    /// The directory's `campaign.json` records another run: the field
    /// that differs, its recorded value and this run's value.
    Mismatch(PathBuf, &'static str, String, String),
    /// The directory holds shard files but no `campaign.json`, so the run
    /// that wrote them is unknown.
    Unrecorded(PathBuf),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(path, e) => write!(f, "shard I/O error at {}: {e}", path.display()),
            ShardError::Serde(path, e) => {
                write!(f, "shard serialization error at {}: {e}", path.display())
            }
            ShardError::Mismatch(path, field, recorded, ours) => write!(
                f,
                "{} records `{field}` {recorded}, but this run has {ours}; \
                 resume with the recorded settings or choose a fresh directory",
                path.display()
            ),
            ShardError::Unrecorded(dir) => write!(
                f,
                "{} holds shard files but no {MANIFEST_FILE}; the run that wrote them \
                 is unknown, so choose a fresh directory",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// Final file name of a completed shard.
pub fn shard_file_name(shard: usize) -> String {
    format!("shard-{shard:04}.jsonl")
}

fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(shard_file_name(shard))
}

fn tmp_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("{}.tmp", shard_file_name(shard)))
}

/// Splits `total` configurations into `shards` contiguous spans, returning
/// `(start, len)` per shard. Every span is non-empty when `total >= shards`;
/// trailing shards may be empty otherwise.
pub fn shard_spans(total: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1);
    let base = total / shards;
    let extra = total % shards;
    let mut spans = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        spans.push((start, len));
        start += len;
    }
    spans
}

/// Runs `configs` split into `shards` checkpointed spans, writing each
/// completed span to `dir` as JSONL. Writes `campaign.json` first, or,
/// when the directory already has one, checks it against this run; skips
/// shards whose files already exist (resume) and removes stale `.tmp`
/// files first.
///
/// # Errors
///
/// Returns [`ShardError`] on any filesystem or serialization failure, and
/// [`ShardError::Mismatch`] / [`ShardError::Unrecorded`] when `dir` holds
/// another run's (or an unknown run's) checkpoints; a failed shard leaves
/// at most a `.tmp` file behind, never a truncated final file.
pub fn run_sharded(
    campaign: &Campaign,
    configs: &[StackConfig],
    dir: &Path,
    shards: usize,
) -> Result<ShardReport, ShardError> {
    run_sharded_logged(campaign, configs, dir, shards, &EventLog::disabled())
}

/// [`run_sharded`] with structured JSONL checkpoint events: one
/// `shard_skipped` / `shard_complete` per shard (with its measured
/// wall-clock) and a closing `sharded_run_complete` summarizing shard
/// duration quantiles — the events a babysitting script tails to watch a
/// multi-hour grid without parsing progress lines.
///
/// # Errors
///
/// Same contract as [`run_sharded`]; log-write failures never fail the
/// run.
pub fn run_sharded_logged(
    campaign: &Campaign,
    configs: &[StackConfig],
    dir: &Path,
    shards: usize,
    log: &EventLog,
) -> Result<ShardReport, ShardError> {
    fs::create_dir_all(dir).map_err(|e| ShardError::Io(dir.to_path_buf(), e))?;
    let manifest = CampaignManifest::new(campaign, configs.len(), shards);
    match CampaignManifest::read(dir)? {
        Some(recorded) => {
            if let Some((field, theirs, ours)) = manifest.mismatch(&recorded) {
                return Err(ShardError::Mismatch(
                    dir.join(MANIFEST_FILE),
                    field,
                    theirs,
                    ours,
                ));
            }
        }
        None if shard_path(dir, 0).exists() => return Err(ShardError::Unrecorded(dir.into())),
        None => manifest.write(dir)?,
    }
    let spans = shard_spans(configs.len(), shards);
    let mut report = ShardReport {
        total_configs: configs.len(),
        shards_total: spans.len(),
        shards_skipped: 0,
        configs_simulated: 0,
    };
    let shard_us = LogLinearHistogram::new();
    for (shard, &(start, len)) in spans.iter().enumerate() {
        let tmp = tmp_path(dir, shard);
        if tmp.exists() {
            fs::remove_file(&tmp).map_err(|e| ShardError::Io(tmp.clone(), e))?;
        }
        let done = shard_path(dir, shard);
        if done.exists() {
            report.shards_skipped += 1;
            log.info("shard_skipped")
                .u64("shard", shard as u64)
                .u64("configs", len as u64)
                .emit();
            continue;
        }
        let timer = Span::start(&shard_us);
        write_shard(campaign, &configs[start..start + len], start, &tmp)?;
        fs::rename(&tmp, &done).map_err(|e| ShardError::Io(done.clone(), e))?;
        let elapsed_us = timer.finish();
        report.configs_simulated += len;
        log.info("shard_complete")
            .u64("shard", shard as u64)
            .u64("configs", len as u64)
            .u64("elapsed_us", elapsed_us)
            .str("file", &shard_file_name(shard))
            .emit();
    }
    log.info("sharded_run_complete")
        .u64("shards_total", report.shards_total as u64)
        .u64("shards_skipped", report.shards_skipped as u64)
        .u64("configs_simulated", report.configs_simulated as u64)
        .u64("shard_p50_us", shard_us.quantile(0.5))
        .u64("shard_max_us", shard_us.max())
        .emit();
    Ok(report)
}

/// Simulates one span and streams it to `tmp` as JSONL.
fn write_shard(
    campaign: &Campaign,
    configs: &[StackConfig],
    base: usize,
    tmp: &Path,
) -> Result<(), ShardError> {
    let file = File::create(tmp).map_err(|e| ShardError::Io(tmp.to_path_buf(), e))?;
    let mut out = BufWriter::new(file);
    let mut error: Option<ShardError> = None;
    {
        let mut sink = SinkFn::new(|index: usize, result: &ConfigResult| {
            if error.is_some() {
                return;
            }
            let line = ShardLine {
                index,
                result: result.clone(),
            };
            match serde_json::to_string(&line) {
                Ok(json) => {
                    if let Err(e) = writeln!(out, "{json}") {
                        error = Some(ShardError::Io(tmp.to_path_buf(), e));
                    }
                }
                Err(e) => {
                    error = Some(ShardError::Serde(tmp.to_path_buf(), format!("{e:?}")));
                }
            }
        });
        campaign.run_span(configs, base, &mut sink);
    }
    if let Some(e) = error {
        return Err(e);
    }
    out.flush()
        .map_err(|e| ShardError::Io(tmp.to_path_buf(), e))?;
    Ok(())
}

/// Reads every completed shard in `dir` back into one ordered result
/// vector, verifying the global indices form the contiguous run `0..n`.
///
/// # Errors
///
/// Returns [`ShardError`] on I/O or parse failure, or if the shard files
/// do not cover a contiguous index range starting at 0.
pub fn read_shard_dir(dir: &Path) -> Result<Vec<ConfigResult>, ShardError> {
    let mut names: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| ShardError::Io(dir.to_path_buf(), e))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".jsonl"))
        })
        .collect();
    names.sort();
    let mut results = Vec::new();
    for path in names {
        let file = File::open(&path).map_err(|e| ShardError::Io(path.clone(), e))?;
        for line in BufReader::new(file).lines() {
            let line = line.map_err(|e| ShardError::Io(path.clone(), e))?;
            if line.trim().is_empty() {
                continue;
            }
            let parsed: ShardLine = serde_json::from_str(&line)
                .map_err(|e| ShardError::Serde(path.clone(), format!("{e:?}")))?;
            if parsed.index != results.len() {
                return Err(ShardError::Serde(
                    path.clone(),
                    format!(
                        "non-contiguous shard index {} (expected {})",
                        parsed.index,
                        results.len()
                    ),
                ));
            }
            results.push(parsed.result);
        }
    }
    Ok(results)
}

/// Derives the `(cache key, result body)` pairs a live `wsn-serve` server
/// would compute for every configuration of a campaign checkpoint
/// directory — the `repro serve --warm-from-campaign` path. Hits against
/// the warmed cache are byte-identical to fresh answers because both
/// sides serialize the same structs with the same serializer. Engine,
/// packets and seed come from the directory's `campaign.json`, and each
/// configuration's seed from [`Campaign::seed_for`], so an entry lands on
/// exactly the cache line of the question the campaign answered.
///
/// # Errors
///
/// Returns a message when the directory has no `campaign.json`, when its
/// channel or traffic is not the serve paper profile's (the only profile
/// `simulate` answers on), or on a shard-read failure.
pub fn serve_warm_entries(dir: &Path) -> Result<(CampaignManifest, Vec<(String, String)>), String> {
    let unreadable =
        |e: ShardError| format!("cannot read campaign checkpoint {}: {e}", dir.display());
    let manifest = CampaignManifest::read(dir)
        .map_err(unreadable)?
        .ok_or_else(|| {
            format!(
                "{} has no {MANIFEST_FILE}; warm-up needs a checkpoint written by \
                 `repro campaign --out DIR`",
                dir.display()
            )
        })?;
    let paper = wsn_serve::protocol::Profile::Paper;
    let served = CampaignManifest {
        channel: paper.channel(),
        traffic: paper.traffic(),
        ..manifest.clone()
    };
    if let Some((field, ..)) = served.mismatch(&manifest) {
        return Err(format!(
            "{} records a campaign on another `{field}` than the serve paper profile's; \
             its results answer no `simulate` request",
            dir.join(MANIFEST_FILE).display()
        ));
    }
    let results = read_shard_dir(dir).map_err(unreadable)?;
    let campaign = Campaign {
        engine: manifest.engine,
        packets: manifest.packets,
        seed: manifest.seed,
        ..Campaign::new(crate::campaign::Scale::Quick)
    };
    let mut entries = Vec::with_capacity(results.len());
    for (index, result) in results.iter().enumerate() {
        let seed = campaign.seed_for(index as u64);
        let body = wsn_serve::engine::simulate_result_body(
            &result.config,
            campaign.packets,
            seed,
            campaign.engine,
            &result.metrics,
        );
        let key = wsn_serve::protocol::cache_key(&wsn_serve::protocol::RequestBody::Simulate {
            config: result.config,
            packets: campaign.packets,
            seed,
            engine: campaign.engine,
        })
        .expect("simulate requests always have a cache key");
        entries.push((key, body));
    }
    Ok((manifest, entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Scale;
    use wsn_params::grid::ParamGrid;

    fn bench_campaign() -> Campaign {
        Campaign {
            threads: 4,
            ..Campaign::new(Scale::Bench)
        }
    }

    fn tiny_configs() -> Vec<StackConfig> {
        ParamGrid {
            distances_m: vec![20.0, 35.0],
            power_levels: vec![7, 31],
            max_tries: vec![1, 3],
            retry_delays_ms: vec![0],
            queue_caps: vec![30],
            packet_intervals_ms: vec![50],
            payloads: vec![50],
        }
        .iter()
        .collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wsn-shards-{tag}-{}", std::process::id()));
        if dir.exists() {
            fs::remove_dir_all(&dir).unwrap();
        }
        dir
    }

    fn read_all_shard_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .collect();
        files.sort();
        files
            .into_iter()
            .map(|p| {
                (
                    p.file_name().unwrap().to_str().unwrap().to_string(),
                    fs::read(&p).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn spans_partition_the_grid() {
        assert_eq!(shard_spans(10, 3), vec![(0, 4), (4, 3), (7, 3)]);
        assert_eq!(shard_spans(2, 4), vec![(0, 1), (1, 1), (2, 0), (2, 0)]);
        assert_eq!(shard_spans(0, 2), vec![(0, 0), (0, 0)]);
        let spans = shard_spans(48_384, 7);
        assert_eq!(spans.iter().map(|&(_, l)| l).sum::<usize>(), 48_384);
    }

    #[test]
    fn sharded_run_round_trips_and_matches_in_memory() {
        let campaign = bench_campaign();
        let configs = tiny_configs();
        let dir = temp_dir("roundtrip");

        let report = run_sharded(&campaign, &configs, &dir, 3).unwrap();
        assert_eq!(report.total_configs, configs.len());
        assert_eq!(report.shards_total, 3);
        assert_eq!(report.shards_skipped, 0);
        assert_eq!(report.configs_simulated, configs.len());

        let from_disk = read_shard_dir(&dir).unwrap();
        let in_memory = campaign.run_configs(&configs);
        assert_eq!(from_disk, in_memory);

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_after_interruption_is_byte_identical() {
        let campaign = bench_campaign();
        let configs = tiny_configs();

        // Reference: one uninterrupted run.
        let dir_a = temp_dir("ref");
        run_sharded(&campaign, &configs, &dir_a, 4).unwrap();

        // Interrupted run: complete it, then simulate a kill by deleting
        // one finished shard and planting a stale half-written tmp file.
        let dir_b = temp_dir("resume");
        run_sharded(&campaign, &configs, &dir_b, 4).unwrap();
        fs::remove_file(dir_b.join(shard_file_name(2))).unwrap();
        fs::write(dir_b.join(format!("{}.tmp", shard_file_name(2))), b"{trunc").unwrap();

        let report = run_sharded(&campaign, &configs, &dir_b, 4).unwrap();
        assert_eq!(report.shards_skipped, 3);
        assert_eq!(report.configs_simulated, shard_spans(configs.len(), 4)[2].1);
        assert!(!dir_b.join(format!("{}.tmp", shard_file_name(2))).exists());

        assert_eq!(read_all_shard_bytes(&dir_a), read_all_shard_bytes(&dir_b));

        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn logged_run_emits_shard_lifecycle_events() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let campaign = bench_campaign();
        let configs = tiny_configs();
        let dir = temp_dir("logged");

        let buf = Buf::default();
        let log = EventLog::to_writer(Box::new(buf.clone()), wsn_obs::log::Level::Info);
        run_sharded_logged(&campaign, &configs, &dir, 2, &log).unwrap();
        // Resume over a finished directory: every shard reported as skipped.
        run_sharded_logged(&campaign, &configs, &dir, 2, &log).unwrap();

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let count = |needle: &str| text.lines().filter(|l| l.contains(needle)).count();
        assert_eq!(count("\"event\":\"shard_complete\""), 2, "{text}");
        assert_eq!(count("\"event\":\"shard_skipped\""), 2, "{text}");
        assert_eq!(count("\"event\":\"sharded_run_complete\""), 2, "{text}");
        assert!(text.contains("\"file\":\"shard-0000.jsonl\""), "{text}");
        assert!(text.contains("\"shards_skipped\":2"), "{text}");

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_entries_are_byte_identical_to_live_golden_answers() {
        // On golden, fast and analytic alike, a quick-scale campaign over
        // a tiny grid, checkpointed to shards, must warm a serve engine
        // such that the live question —
        // same config, campaign seed rule, quick packets — is a cache hit
        // with the exact bytes a cold compute would produce.
        for engine in [EngineMode::Golden, EngineMode::Fast, EngineMode::Analytic] {
            let campaign = Campaign {
                threads: 2,
                ..Campaign::new(Scale::Quick).with_engine(engine)
            };
            let configs = tiny_configs();
            let dir = temp_dir(&format!("warm-{}", engine.name()));
            run_sharded(&campaign, &configs, &dir, 2).unwrap();

            let (manifest, entries) = serve_warm_entries(&dir).unwrap();
            assert_eq!(manifest.engine, engine);
            assert_eq!(entries.len(), configs.len());

            let warmed = wsn_serve::engine::Engine::new(4);
            for (key, body) in &entries {
                warmed.warm_insert(key, body).unwrap();
            }
            let cold = wsn_serve::engine::Engine::new(4);
            for (index, config) in configs.iter().enumerate() {
                let request = wsn_serve::protocol::RequestBody::Simulate {
                    config: *config,
                    packets: campaign.packets,
                    seed: campaign.seed_for(index as u64),
                    engine,
                };
                let hit = warmed.execute(&request).unwrap();
                assert!(
                    hit.cached,
                    "{engine:?} config {index} missed the warmed cache"
                );
                let computed = cold.execute(&request).unwrap();
                assert!(!computed.cached);
                assert_eq!(
                    *hit.body, *computed.body,
                    "{engine:?} config {index} bytes differ"
                );
            }

            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn resume_under_another_run_identity_is_refused() {
        let campaign = bench_campaign();
        let configs = tiny_configs();
        let dir = temp_dir("identity");
        run_sharded(&campaign, &configs, &dir, 2).unwrap();
        let before = read_all_shard_bytes(&dir);

        let engine = campaign.clone().with_engine(EngineMode::Analytic);
        let packets = Campaign {
            packets: campaign.packets + 1,
            ..campaign.clone()
        };
        for (other, shards, field) in [
            (&engine, 2, "engine"),
            (&packets, 2, "packets"),
            (&campaign, 3, "shards"),
        ] {
            let err = run_sharded(other, &configs, &dir, shards).unwrap_err();
            match &err {
                ShardError::Mismatch(_, named, _, _) => assert_eq!(*named, field, "{err}"),
                _ => panic!("expected a {field} mismatch, got: {err}"),
            }
            assert!(err.to_string().contains(&format!("`{field}`")), "{err}");
        }
        // Nothing was overwritten, and the recorded run still resumes.
        assert_eq!(read_all_shard_bytes(&dir), before);
        let report = run_sharded(&campaign, &configs, &dir, 2).unwrap();
        assert_eq!(report.shards_skipped, 2);

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shards_without_a_manifest_are_refused() {
        let campaign = bench_campaign();
        let configs = tiny_configs();
        let dir = temp_dir("unrecorded");
        run_sharded(&campaign, &configs, &dir, 2).unwrap();
        fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();

        let err = run_sharded(&campaign, &configs, &dir, 2).unwrap_err();
        assert!(matches!(err, ShardError::Unrecorded(_)), "got: {err}");
        let err = serve_warm_entries(&dir).unwrap_err();
        assert!(err.contains(MANIFEST_FILE), "{err}");

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_up_refuses_a_channel_the_serve_profile_does_not_answer_on() {
        let campaign = Campaign {
            threads: 1,
            ..Campaign::new(Scale::Bench)
        }
        .with_channel(wsn_radio::channel::ChannelConfig::case_study());
        let dir = temp_dir("channel");
        run_sharded(&campaign, &tiny_configs(), &dir, 1).unwrap();
        let err = serve_warm_entries(&dir).unwrap_err();
        assert!(err.contains("`channel`"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_rejects_gaps() {
        let campaign = bench_campaign();
        let configs = tiny_configs();
        let dir = temp_dir("gaps");
        run_sharded(&campaign, &configs, &dir, 2).unwrap();
        fs::remove_file(dir.join(shard_file_name(0))).unwrap();
        let err = read_shard_dir(&dir).unwrap_err();
        assert!(matches!(err, ShardError::Serde(_, _)), "got: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
