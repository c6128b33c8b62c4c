//! The benchmark's own tracing: spans recorded around calls into each
//! crate's public functions, kept in memory and written out when the run
//! ends, plus readers for the spans and histograms `pdf-obs` already
//! collects inside the program.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pdf_obs::{MetricsRegistry, MetricsSnapshot};

/// One recorded span. `trace` groups the spans of one request (a
/// campaign, an evolve run); `parent` is the index of the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index, for children.
    pub fn record(
        &self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            trace,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        spans.len() - 1
    }

    /// Total duration and count of every span name, and the self time
    /// (duration minus the part covered by child spans).
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as one tab-separated line to `path`.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# index\tname\ttrace\tparent\tstart_ns\tend_ns")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.trace, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A `pdf-obs` registry the program's own spans, counters and
/// histograms land in while it is installed on the current thread.
/// Installing it only around the traced work lets a run interleave
/// traced and untraced passes that share one registry.
pub struct Registry {
    pub reg: Arc<MetricsRegistry>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry {
            reg: Arc::new(MetricsRegistry::new()),
        }
    }

    /// Installs the registry until the returned scope is dropped.
    pub fn install(&self) -> pdf_obs::MetricsScope {
        pdf_obs::install(Arc::clone(&self.reg))
    }
}

/// `(count, total_ns)` of a program span in a snapshot.
pub fn span_of(snap: &MetricsSnapshot, name: &str) -> (u64, u64) {
    snap.span(name).map_or((0, 0), |s| (s.count, s.total_ns))
}

/// Mean nanoseconds per call of a program span, 0 when it never ran.
pub fn ns_per_call(snap: &MetricsSnapshot, name: &str) -> f64 {
    let (count, total) = span_of(snap, name);
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// Sum of nanoseconds over every program span whose name starts with
/// `prefix` (per-campaign spans carry a numeric suffix).
pub fn span_prefix_ns(snap: &MetricsSnapshot, prefix: &str) -> u64 {
    snap.spans
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(|s| s.total_ns)
        .sum()
}

/// One row of the identity table: a layer's self time and share of the
/// workload's wall time.
#[derive(Debug, Clone)]
pub struct Row {
    pub layer: &'static str,
    pub self_s: f64,
    pub source: &'static str,
}

/// Prints the identity table: each layer's self time and share, the
/// unexplained remainder and the tracing overhead. Returns the share of
/// wall time the layers explain.
pub fn identity_table(
    title: &str,
    wall_s: f64,
    rows: &[Row],
    overhead: f64,
    lines: &mut Vec<String>,
) -> f64 {
    let explained: f64 = rows.iter().map(|r| r.self_s).sum();
    lines.push(format!("identity table: {title} (wall {wall_s:.4} s)"));
    lines.push(format!(
        "  {:<34} {:>12} {:>8}  source",
        "layer", "self_s", "share"
    ));
    for r in rows {
        lines.push(format!(
            "  {:<34} {:>12.6} {:>7.2}%  {}",
            r.layer,
            r.self_s,
            100.0 * r.self_s / wall_s,
            r.source
        ));
    }
    lines.push(format!(
        "  {:<34} {:>12.6} {:>7.2}%",
        "unexplained",
        wall_s - explained,
        100.0 * (wall_s - explained) / wall_s
    ));
    lines.push(format!(
        "  {:<34} {:>12} {:>7.2}%  traced wall / untraced wall - 1",
        "tracing overhead",
        "",
        100.0 * (overhead - 1.0)
    ));
    explained / wall_s
}
