//! A span-based tracer: nestable timed spans with `key=value` fields.
//!
//! Tracing is off by default. When off, [`span`] returns an inert guard —
//! no clock read, no allocation, one relaxed atomic load — so instrumented
//! hot paths cost effectively nothing. When on, each span records its wall
//! time on drop and emits a [`SpanEvent`] to a bounded in-memory event
//! log.
//!
//! Spans close child-before-parent, so the event log is in *close* order.
//! [`render_tree`] re-derives the call tree from each event's `(open_seq,
//! depth)` pair.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt::Display;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Span name, e.g. `"engine.query.execute"`.
    pub name: &'static str,
    /// `key=value` fields attached while the span was open.
    pub fields: Vec<(&'static str, String)>,
    /// Nesting depth at open time (0 = root).
    pub depth: usize,
    /// Global open-order sequence number.
    pub open_seq: u64,
    /// Open time as nanoseconds since the tracer's process epoch (the
    /// first span ever opened) — the timeline origin Chrome-trace export
    /// needs. Comparable across threads.
    pub start_ns: u64,
    /// Wall time from open to close.
    pub duration_ns: u64,
}

/// Maximum events retained in the in-memory log. Once the log is full,
/// overflowing spans are *tail-sampled* (see [`OVERFLOW_SAMPLE_EVERY`])
/// instead of silently evicting the oldest event on every close.
pub const EVENT_LOG_CAPACITY: usize = 8192;

/// Tail-sampling rate once the event log is full: every `N`th overflowing
/// span is admitted (evicting the oldest buffered event) and the rest are
/// discarded, so a trace much longer than [`EVENT_LOG_CAPACITY`] keeps a
/// thinned-out tail rather than only its last 8192 closes. Every span the
/// log sheds — evicted or discarded — counts toward [`dropped_spans`] and
/// the global `obs.trace.dropped_spans` counter.
pub const OVERFLOW_SAMPLE_EVERY: u64 = 64;

struct TracerState {
    events: Mutex<VecDeque<SpanEvent>>,
    open_seq: AtomicU64,
    /// Overflow arrivals since the log last drained (drives sampling).
    overflow_seen: AtomicU64,
    /// Spans shed by the log since it last drained.
    dropped: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn state() -> &'static TracerState {
    static STATE: OnceLock<TracerState> = OnceLock::new();
    STATE.get_or_init(|| TracerState {
        events: Mutex::new(VecDeque::new()),
        open_seq: AtomicU64::new(0),
        overflow_seen: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
    })
}

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// The tracer's process epoch: fixed at the first call, so every span's
/// `start_ns` shares one timeline origin.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns tracing on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drains and returns the buffered event log, resetting the overflow
/// sampler and the [`dropped_spans`] count.
pub fn take_events() -> Vec<SpanEvent> {
    let drained = state().events.lock().unwrap().drain(..).collect();
    state().overflow_seen.store(0, Ordering::Relaxed);
    state().dropped.store(0, Ordering::Relaxed);
    drained
}

/// Discards the buffered event log, resetting the overflow sampler and
/// the [`dropped_spans`] count.
pub fn clear_events() {
    state().events.lock().unwrap().clear();
    state().overflow_seen.store(0, Ordering::Relaxed);
    state().dropped.store(0, Ordering::Relaxed);
}

/// Spans the event log has shed since it last drained — overflow
/// evictions plus overflow discards. The process-lifetime total is also
/// kept on the global `obs.trace.dropped_spans` counter, so it shows up
/// in metric snapshots.
pub fn dropped_spans() -> u64 {
    state().dropped.load(Ordering::Relaxed)
}

/// Opens a span. Returns an inert guard when tracing is off.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { active: None };
    }
    let open_seq = state().open_seq.fetch_add(1, Ordering::Relaxed);
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    let start_ns = crate::metrics::elapsed_ns(epoch());
    Span {
        active: Some(ActiveSpan {
            name,
            fields: Vec::new(),
            depth,
            open_seq,
            start_ns,
            start: Instant::now(),
        }),
    }
}

struct ActiveSpan {
    name: &'static str,
    fields: Vec<(&'static str, String)>,
    depth: usize,
    open_seq: u64,
    start_ns: u64,
    start: Instant,
}

/// An open span; closes (and records) on drop.
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Span {
    /// Attaches a `key=value` field (builder form).
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl Display) -> Self {
        self.add_field(key, value);
        self
    }

    /// Attaches a `key=value` field in place.
    pub fn add_field(&mut self, key: &'static str, value: impl Display) {
        if let Some(active) = self.active.as_mut() {
            active.fields.push((key, value.to_string()));
        }
    }

    /// Whether this span is live (tracing was on when it opened).
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let duration_ns = crate::metrics::elapsed_ns(active.start);
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let event = SpanEvent {
            name: active.name,
            fields: active.fields,
            depth: active.depth,
            open_seq: active.open_seq,
            start_ns: active.start_ns,
            duration_ns,
        };
        let st = state();
        let mut events = st.events.lock().unwrap();
        if events.len() == EVENT_LOG_CAPACITY {
            // Tail-sample the overflow: admit every Nth arrival (evicting
            // the oldest buffered event), discard the rest. Either way one
            // span is shed, so the dropped count advances per arrival.
            let arrival = st.overflow_seen.fetch_add(1, Ordering::Relaxed);
            st.dropped.fetch_add(1, Ordering::Relaxed);
            crate::metrics::global()
                .counter("obs.trace.dropped_spans")
                .inc();
            if !arrival.is_multiple_of(OVERFLOW_SAMPLE_EVERY) {
                return;
            }
            events.pop_front();
        }
        events.push_back(event);
    }
}

fn format_duration(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders `events` as an indented tree in open order, one span per line:
/// `name key=value ... (duration)`.
pub fn render_tree(events: &[SpanEvent]) -> String {
    let mut ordered: Vec<&SpanEvent> = events.iter().collect();
    ordered.sort_by_key(|e| e.open_seq);
    let mut out = String::new();
    for event in ordered {
        let _ = write!(out, "{}{}", "  ".repeat(event.depth), event.name);
        for (k, v) in &event.fields {
            let _ = write!(out, " {k}={v}");
        }
        let _ = writeln!(out, " ({})", format_duration(event.duration_ns));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracer state is process-global, so the unit tests for it live in one
    // #[test] fn to avoid cross-test interference under parallel execution.
    #[test]
    fn spans_nest_fields_attach_and_tree_renders() {
        clear_events();
        set_enabled(false);
        {
            let s = span("off");
            assert!(!s.is_active());
        }
        assert!(take_events().is_empty(), "disabled spans emit nothing");

        set_enabled(true);
        {
            let mut outer = span("outer").field("k", 1);
            outer.add_field("extra", "v");
            {
                let _inner = span("inner");
            }
            {
                let _inner2 = span("inner2").field("rows", 42);
            }
        }
        set_enabled(false);

        let events = take_events();
        assert_eq!(events.len(), 3);
        // Close order: inner, inner2, outer.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "inner2");
        assert_eq!(events[2].name, "outer");
        assert_eq!(events[2].depth, 0);
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[1].depth, 1);
        assert_eq!(
            events[2].fields,
            vec![("k", "1".to_owned()), ("extra", "v".to_owned())]
        );

        let tree = render_tree(&events);
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("outer k=1 extra=v ("));
        assert!(lines[1].starts_with("  inner ("));
        assert!(lines[2].starts_with("  inner2 rows=42 ("));

        // Overflow tail-sampling: fill the log past capacity and check
        // that only every Nth overflowing span is admitted, the log never
        // grows past capacity, and every shed span is counted.
        set_enabled(true);
        let overflow = 10 * OVERFLOW_SAMPLE_EVERY;
        for _ in 0..EVENT_LOG_CAPACITY as u64 + overflow {
            let _s = span("flood");
        }
        set_enabled(false);
        assert_eq!(dropped_spans(), overflow);
        let events = take_events();
        assert_eq!(events.len(), EVENT_LOG_CAPACITY);
        assert_eq!(dropped_spans(), 0, "take_events resets the count");
        // Admitted overflow spans replaced the oldest events, so the log
        // is no longer a contiguous window: exactly overflow/N survivors
        // from the overflow region are interleaved at the tail.
        let max_seq = events.iter().map(|e| e.open_seq).max().unwrap();
        let min_seq = events.iter().map(|e| e.open_seq).min().unwrap();
        assert!(
            max_seq - min_seq >= EVENT_LOG_CAPACITY as u64,
            "sampled tail spans span a wider sequence range than the buffer"
        );
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(15), "15ns");
        assert_eq!(format_duration(1_500), "1.5us");
        assert_eq!(format_duration(2_500_000), "2.50ms");
        assert_eq!(format_duration(3_000_000_000), "3.00s");
    }
}
