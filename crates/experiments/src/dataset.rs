//! Per-packet dataset export/import.
//!
//! The paper publishes its raw measurement data (per-packet RSSI, LQI,
//! transmission counts, queue sizes, timestamps). This module writes the
//! simulator's per-packet records in an equivalent CSV schema and reads
//! them back, so downstream analyses can treat the synthetic campaign
//! exactly like the published dataset.
//!
//! Two write paths exist: [`write_trace`] serialises an in-memory record
//! vector, and [`CsvStreamSink`] implements
//! [`PacketSink`] so the simulation can
//! stream records straight to disk in O(1) memory. Floats are written in
//! shortest-round-trip form, so a write → read cycle is lossless.

use std::io::{BufRead, Write};

use wsn_link_sim::record::{PacketFate, PacketRecord};
use wsn_link_sim::simulation::SimOutcome;
use wsn_link_sim::sink::PacketSink;
use wsn_params::config::StackConfig;
use wsn_sim_engine::time::SimTime;

/// The CSV header of the per-packet schema.
pub const HEADER: &str = "seq,t_arrival_us,t_service_start_us,t_done_us,tries,queue_depth,fate,sender_acked,rssi_dbm,snr_db,lqi";

/// Errors from dataset I/O.
#[derive(Debug)]
pub enum DatasetError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (line number, description).
    Parse(usize, String),
    /// The outcome carried no records (run with `record_packets = true`).
    NoRecords,
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::Io(e) => write!(f, "dataset i/o error: {e}"),
            DatasetError::Parse(line, what) => {
                write!(f, "dataset parse error at line {line}: {what}")
            }
            DatasetError::NoRecords => {
                write!(f, "simulation outcome has no per-packet records")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<std::io::Error> for DatasetError {
    fn from(e: std::io::Error) -> Self {
        DatasetError::Io(e)
    }
}

fn fate_str(fate: PacketFate) -> &'static str {
    match fate {
        PacketFate::QueueDropped => "queue_dropped",
        PacketFate::RadioLost => "radio_lost",
        PacketFate::Delivered => "delivered",
    }
}

fn fate_from(s: &str) -> Option<PacketFate> {
    match s {
        "queue_dropped" => Some(PacketFate::QueueDropped),
        "radio_lost" => Some(PacketFate::RadioLost),
        "delivered" => Some(PacketFate::Delivered),
        _ => None,
    }
}

/// Writes one record as a CSV line.
fn write_record<W: Write>(out: &mut W, r: &PacketRecord) -> std::io::Result<()> {
    let opt = |t: Option<SimTime>| t.map_or(String::new(), |v| v.as_micros().to_string());
    // Shortest round-trip formatting: parsing the text reproduces the exact
    // f64 bits. Non-finite values map to the empty field (read as NaN).
    let flt = |v: f64| {
        if v.is_finite() {
            format!("{v}")
        } else {
            String::new()
        }
    };
    writeln!(
        out,
        "{},{},{},{},{},{},{},{},{},{},{}",
        r.seq,
        r.t_arrival.as_micros(),
        opt(r.t_service_start),
        opt(r.t_done),
        r.tries,
        r.queue_depth,
        fate_str(r.fate),
        r.sender_acked,
        flt(r.last_rssi_dbm),
        flt(r.last_snr_db),
        r.last_lqi,
    )
}

/// Writes a full trace: a `# config: …` comment, the header, one line per
/// packet.
///
/// # Errors
///
/// Returns [`DatasetError::NoRecords`] when the outcome was produced with
/// `record_packets = false`, or any I/O error.
pub fn write_trace<W: Write>(out: &mut W, outcome: &SimOutcome) -> Result<usize, DatasetError> {
    let records = outcome.records.as_ref().ok_or(DatasetError::NoRecords)?;
    writeln!(out, "# config: {}", outcome.config)?;
    writeln!(out, "{HEADER}")?;
    for r in records {
        write_record(out, r)?;
    }
    Ok(records.len())
}

/// A [`PacketSink`] that streams records to CSV as they are produced.
///
/// Memory use is O(1) in the number of packets: each record is formatted
/// and handed to the writer immediately. Because [`PacketSink::on_packet`]
/// cannot return an error, I/O failures are deferred: the sink stops
/// writing on the first error and [`finish`](Self::finish) reports it.
///
/// ```
/// use wsn_experiments::dataset::CsvStreamSink;
/// use wsn_link_sim::prelude::*;
/// use wsn_params::prelude::*;
///
/// let cfg = StackConfig::default();
/// let mut opts = SimOptions::quick(50);
/// opts.record_packets = false;
/// let mut sink = CsvStreamSink::with_config(Vec::new(), &cfg)?;
/// LinkSimulation::new(cfg, opts).run_with_sink(&mut sink);
/// let (csv, written) = sink.finish()?;
/// assert_eq!(written, 50);
/// assert!(String::from_utf8(csv).unwrap().starts_with("# config:"));
/// # Ok::<(), wsn_experiments::dataset::DatasetError>(())
/// ```
#[derive(Debug)]
pub struct CsvStreamSink<W: Write> {
    out: W,
    written: usize,
    error: Option<std::io::Error>,
}

impl<W: Write> CsvStreamSink<W> {
    /// Creates a sink writing the CSV header to `out`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error from writing the header.
    pub fn new(out: W) -> Result<Self, DatasetError> {
        Self::start(out, None)
    }

    /// Creates a sink writing a `# config: …` comment and the CSV header.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error from writing the preamble.
    pub fn with_config(out: W, config: &StackConfig) -> Result<Self, DatasetError> {
        Self::start(out, Some(config))
    }

    fn start(mut out: W, config: Option<&StackConfig>) -> Result<Self, DatasetError> {
        if let Some(cfg) = config {
            writeln!(out, "# config: {cfg}")?;
        }
        writeln!(out, "{HEADER}")?;
        Ok(CsvStreamSink {
            out,
            written: 0,
            error: None,
        })
    }

    /// Records written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Flushes the writer and returns it with the record count.
    ///
    /// # Errors
    ///
    /// Surfaces any I/O error deferred from [`PacketSink::on_packet`], or
    /// the flush failure.
    pub fn finish(mut self) -> Result<(W, usize), DatasetError> {
        if let Some(e) = self.error {
            return Err(DatasetError::Io(e));
        }
        self.out.flush()?;
        Ok((self.out, self.written))
    }
}

impl<W: Write> PacketSink for CsvStreamSink<W> {
    fn on_packet(&mut self, record: &PacketRecord) {
        if self.error.is_some() {
            return;
        }
        match write_record(&mut self.out, record) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// A parsed trace: the config line (free text) and the records.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The `# config: …` description, if present.
    pub config_line: Option<String>,
    /// The per-packet records.
    pub records: Vec<PacketRecord>,
}

impl Trace {
    /// Aggregate delivery ratio over the trace.
    pub fn delivery_ratio(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let delivered = self
            .records
            .iter()
            .filter(|r| r.fate == PacketFate::Delivered)
            .count();
        delivered as f64 / self.records.len() as f64
    }

    /// Mean transmissions over completed (non-queue-dropped) packets.
    pub fn mean_tries(&self) -> f64 {
        let completed: Vec<&PacketRecord> = self
            .records
            .iter()
            .filter(|r| r.fate != PacketFate::QueueDropped)
            .collect();
        if completed.is_empty() {
            return 0.0;
        }
        completed.iter().map(|r| r.tries as f64).sum::<f64>() / completed.len() as f64
    }
}

/// Reads a trace previously produced by [`write_trace`].
///
/// # Errors
///
/// Returns a [`DatasetError::Parse`] carrying the first malformed line.
pub fn read_trace<R: BufRead>(input: R) -> Result<Trace, DatasetError> {
    let mut config_line = None;
    let mut records = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line?;
        let lineno = lineno + 1;
        if line.starts_with("# config:") {
            config_line = Some(line.trim_start_matches("# config:").trim().to_string());
            continue;
        }
        if line.is_empty() || line == HEADER || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 11 {
            return Err(DatasetError::Parse(
                lineno,
                format!("expected 11 fields, got {}", fields.len()),
            ));
        }
        let parse_u64 = |s: &str, what: &str| -> Result<u64, DatasetError> {
            s.parse()
                .map_err(|_| DatasetError::Parse(lineno, format!("bad {what}: '{s}'")))
        };
        let opt_time = |s: &str, what: &str| -> Result<Option<SimTime>, DatasetError> {
            if s.is_empty() {
                Ok(None)
            } else {
                Ok(Some(SimTime::from_micros(parse_u64(s, what)?)))
            }
        };
        let opt_f64 = |s: &str| -> f64 {
            if s.is_empty() {
                f64::NAN
            } else {
                s.parse().unwrap_or(f64::NAN)
            }
        };
        let fate = fate_from(fields[6])
            .ok_or_else(|| DatasetError::Parse(lineno, format!("bad fate '{}'", fields[6])))?;
        records.push(PacketRecord {
            seq: parse_u64(fields[0], "seq")?,
            t_arrival: SimTime::from_micros(parse_u64(fields[1], "t_arrival")?),
            t_service_start: opt_time(fields[2], "t_service_start")?,
            t_done: opt_time(fields[3], "t_done")?,
            tries: parse_u64(fields[4], "tries")? as u8,
            queue_depth: parse_u64(fields[5], "queue_depth")? as usize,
            fate,
            sender_acked: fields[7] == "true",
            last_rssi_dbm: opt_f64(fields[8]),
            last_snr_db: opt_f64(fields[9]),
            last_lqi: parse_u64(fields[10], "lqi")? as u8,
        });
    }
    Ok(Trace {
        config_line,
        records,
    })
}

/// Convenience: simulates `config` and streams the trace to `path`.
///
/// Records flow through a [`CsvStreamSink`] as the simulation produces
/// them, so peak memory stays O(1) in the packet count.
///
/// # Errors
///
/// Propagates dataset and I/O errors.
pub fn export_to_file(
    config: StackConfig,
    options: wsn_link_sim::simulation::SimOptions,
    path: &std::path::Path,
) -> Result<usize, DatasetError> {
    let mut options = options;
    options.record_packets = false;
    let file = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut sink = CsvStreamSink::with_config(file, &config)?;
    wsn_link_sim::simulation::LinkSimulation::new(config, options).run_with_sink(&mut sink);
    let (_, written) = sink.finish()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_link_sim::simulation::{LinkSimulation, SimOptions};

    fn outcome() -> SimOutcome {
        let cfg = StackConfig::builder()
            .distance_m(35.0)
            .power_level(11)
            .payload_bytes(80)
            .build()
            .unwrap();
        LinkSimulation::new(cfg, SimOptions::quick(120)).run()
    }

    #[test]
    fn round_trip_preserves_every_record() {
        let out = outcome();
        let mut buf = Vec::new();
        let written = write_trace(&mut buf, &out).unwrap();
        assert_eq!(written, 120);
        let trace = read_trace(buf.as_slice()).unwrap();
        assert_eq!(trace.records.len(), 120);
        assert!(trace.config_line.unwrap().contains("35m"));
        let original = out.records.unwrap();
        for (a, b) in original.iter().zip(&trace.records) {
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.t_arrival, b.t_arrival);
            assert_eq!(a.t_done, b.t_done);
            assert_eq!(a.tries, b.tries);
            assert_eq!(a.fate, b.fate);
            assert_eq!(a.sender_acked, b.sender_acked);
            // Shortest-round-trip formatting reproduces the exact bits.
            if a.last_rssi_dbm.is_finite() {
                assert_eq!(a.last_rssi_dbm.to_bits(), b.last_rssi_dbm.to_bits());
                assert_eq!(a.last_snr_db.to_bits(), b.last_snr_db.to_bits());
            }
        }
    }

    #[test]
    fn stream_sink_matches_batch_write() {
        let cfg = StackConfig::builder()
            .distance_m(35.0)
            .power_level(11)
            .payload_bytes(80)
            .build()
            .unwrap();

        // Batch path: record in memory, then write.
        let out = LinkSimulation::new(cfg, SimOptions::quick(120)).run();
        let mut batch = Vec::new();
        write_trace(&mut batch, &out).unwrap();

        // Streaming path: identical bytes, no record buffering.
        let mut opts = SimOptions::quick(120);
        opts.record_packets = false;
        let mut sink = CsvStreamSink::with_config(Vec::new(), &cfg).unwrap();
        LinkSimulation::new(cfg, opts).run_with_sink(&mut sink);
        let (streamed, written) = sink.finish().unwrap();

        assert_eq!(written, 120);
        assert_eq!(batch, streamed);
    }

    #[test]
    fn trace_statistics_match_metrics() {
        let out = outcome();
        let mut buf = Vec::new();
        write_trace(&mut buf, &out).unwrap();
        let trace = read_trace(buf.as_slice()).unwrap();
        let m = out.metrics();
        let expected_ratio = m.delivered as f64 / m.generated as f64;
        assert!((trace.delivery_ratio() - expected_ratio).abs() < 1e-12);
    }

    #[test]
    fn missing_records_is_an_error() {
        let cfg = StackConfig::default();
        let out = LinkSimulation::new(
            cfg,
            SimOptions {
                record_packets: false,
                ..SimOptions::quick(10)
            },
        )
        .run();
        let mut buf = Vec::new();
        assert!(matches!(
            write_trace(&mut buf, &out),
            Err(DatasetError::NoRecords)
        ));
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let bad = format!("{HEADER}\n1,2,3\n");
        match read_trace(bad.as_bytes()) {
            Err(DatasetError::Parse(line, what)) => {
                assert_eq!(line, 2);
                assert!(what.contains("11 fields"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        let bad_fate = format!("{HEADER}\n0,0,,,0,0,vanished,false,,,0\n");
        assert!(matches!(
            read_trace(bad_fate.as_bytes()),
            Err(DatasetError::Parse(2, _))
        ));
    }

    #[test]
    fn export_to_file_writes_csv() {
        let dir = std::env::temp_dir().join("wsn_linkconf_dataset_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        let cfg = StackConfig::default();
        let n = export_to_file(cfg, SimOptions::quick(40), &path).unwrap();
        assert_eq!(n, 40);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("# config:"));
        assert!(text.lines().count() >= 42);
        std::fs::remove_file(&path).unwrap();
    }
}
