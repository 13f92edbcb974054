//! The benchmark's own spans: each public call into a layer is wrapped in a
//! span held in memory (name, start, end, parent, operation ID) and turned
//! into per-layer busy and self time when the run ends.
//!
//! The program's own `obs` tracer stays off; these spans live only in the
//! benchmark. With tracing off, [`Trace::span`] reads no clock and records
//! nothing.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `"session.pin"`.
    pub name: &'static str,
    /// Open time in nanoseconds since the trace began.
    pub start_ns: u64,
    /// Close time in nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation ID shared by every span of one operation; 0 is set-up.
    pub op: u64,
}

impl Span {
    /// The span's wall time.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Trace {
    /// A recorder that records when `on`, with room for `capacity` spans
    /// so that recording does not reallocate inside a timed loop.
    #[must_use]
    pub fn new(on: bool, capacity: usize) -> Trace {
        Trace {
            on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            open: Vec::with_capacity(8),
            op: 0,
        }
    }

    /// Sets the operation ID of the spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; `None` when tracing is off.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `open` returned. Spans close innermost first.
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.now_ns();
            self.spans[id].end_ns = end;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Every recorded span, in open order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Busy and self time of one layer, summed over its spans.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// Spans recorded for the layer.
    pub calls: u64,
    /// Sum of the spans' wall time.
    pub busy_ns: u64,
    /// Busy time minus the time covered by child spans.
    pub self_ns: u64,
    /// Every span's wall time, in open order.
    pub durations: Vec<u64>,
}

/// Folds spans into per-layer busy and self time. Spans nest and never
/// overlap their siblings (one client thread), so the time children cover
/// is the sum of their durations.
#[must_use]
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let layer = out.entry(s.name).or_default();
        let d = s.duration_ns();
        layer.calls += 1;
        layer.busy_ns += d;
        layer.self_ns += d.saturating_sub(covered);
        layer.durations.push(d);
    }
    out
}

/// Writes `spans` to `path` as tab-separated lines: operation ID, name,
/// start and end in nanoseconds since the trace began, and the index of
/// the parent span (`-` for none). Span `i` is line `i + 2`.
///
/// # Errors
///
/// Any error creating the file, its directory, or writing it.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\tname\tstart_ns\tend_ns\tparent")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{parent}",
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
