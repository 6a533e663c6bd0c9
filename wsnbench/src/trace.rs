//! Spans recorded from the benchmark's own code around each call into a
//! layer: name, start, end, parent, and the id shared by every span of
//! one request or configuration. Spans stay in memory; a bounded sample
//! is written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `serve.parse`.
    pub name: &'static str,
    /// The request or configuration this span belongs to.
    pub id: u64,
    /// Index of the enclosing span within its group, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall time covered.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once, and a
/// child running past its parent counts only inside the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            let mut children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| {
                    (
                        c.start_ns.clamp(span.start_ns, span.end_ns),
                        c.end_ns.clamp(span.start_ns, span.end_ns),
                    )
                })
                .collect();
            children.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in children {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// What the tracer learned about one layer.
#[derive(Debug, Default)]
pub struct Layer {
    /// Total self time, ns.
    pub self_ns: u64,
    /// Every span's full duration, ns.
    pub durations: Samples,
}

/// Most spans kept for the output file; every span still feeds the
/// per-layer totals.
const KEEP_SPANS: usize = 50_000;

/// Records spans one group (request or configuration) at a time.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    group: Vec<Span>,
    stack: Vec<usize>,
    kept: Vec<Span>,
    layers: BTreeMap<&'static str, Layer>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            group: Vec::new(),
            stack: Vec::new(),
            kept: Vec::new(),
            layers: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one (or as a group root).
    pub fn enter(&mut self, name: &'static str, id: u64) {
        let start_ns = self.now_ns();
        self.group.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.group.len() - 1);
    }

    /// Closes the innermost open span; closing a root folds its group
    /// into the per-layer totals.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let i = self.stack.pop().expect("exit matches an enter");
        self.group[i].end_ns = end_ns;
        if self.stack.is_empty() {
            self.fold_group();
        }
    }

    /// Times `f` as a span named `name` under the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.stack.last().map_or(0, |&i| self.group[i].id);
        self.enter(name, id);
        let out = f();
        self.exit();
        out
    }

    fn fold_group(&mut self) {
        let selfs = self_times(&self.group);
        for (span, self_ns) in self.group.iter().zip(selfs) {
            // A root's self time is the benchmark's own glue: it stays in
            // the unattributed remainder.
            if span.parent.is_none() {
                continue;
            }
            let layer = self.layers.entry(span.name).or_default();
            layer.self_ns += self_ns;
            layer.durations.push(span.duration_ns() as f64);
        }
        let room = KEEP_SPANS.saturating_sub(self.kept.len());
        self.kept.extend(self.group.drain(..).take(room));
    }

    /// The per-layer totals.
    pub fn layers(&mut self) -> &mut BTreeMap<&'static str, Layer> {
        &mut self.layers
    }

    /// Median duration of a layer's spans, ns (NaN if it never ran).
    pub fn p50_ns(&mut self, name: &str) -> f64 {
        self.layers
            .get_mut(name)
            .map_or(f64::NAN, |l| l.durations.median())
    }

    /// Mean duration of a layer's spans, ns (NaN if it never ran).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(f64::NAN, |l| l.durations.mean())
    }

    /// Each layer's self time as a share of `wall_ns`, plus an
    /// `unattributed` row for everything no layer span covers.
    pub fn shares(&self, wall_ns: u64) -> Vec<(String, f64)> {
        let wall = wall_ns.max(1) as f64;
        let mut rows: Vec<(String, f64)> = self
            .layers
            .iter()
            .map(|(name, l)| (name.to_string(), l.self_ns as f64 / wall))
            .collect();
        let attributed: u64 = self.layers.values().map(|l| l.self_ns).sum();
        rows.push((
            "unattributed".to_string(),
            wall_ns.saturating_sub(attributed) as f64 / wall,
        ));
        rows
    }

    /// Writes the kept spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","id":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 60),
            // A grandchild: counted against its parent, not the root.
            span(Some(1), 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(None, 100, 200),
            span(Some(0), 90, 130),  // overhangs the start: 30 inside
            span(Some(0), 120, 150), // overlaps the first: 20 more
            span(Some(0), 190, 250), // overhangs the end: 10 inside
        ];
        assert_eq!(self_times(&spans)[0], 100 - 30 - 20 - 10);
    }

    #[test]
    fn tracer_folds_groups_into_layers_and_shares() {
        let mut t = Tracer::default();
        let t0 = t.now_ns();
        for id in 0..3 {
            t.enter("request", id);
            t.span("a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", || ());
            t.exit();
        }
        let wall = t.now_ns() - t0;
        assert_eq!(t.layers().len(), 2);
        assert_eq!(t.layers()["a"].durations.len(), 3);
        assert!(t.p50_ns("a") >= 2e6);
        let shares = t.shares(wall);
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9, "{shares:?}");
        let a = shares.iter().find(|(n, _)| n == "a").expect("a row").1;
        assert!(a > 0.5, "{shares:?}");
        assert_eq!(shares.last().expect("rows").0, "unattributed");
        // Spans of one group share the root's id.
        assert!(t.kept.iter().filter(|s| s.id == 2).count() == 3);
    }
}
