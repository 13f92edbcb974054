//! Text and JSON renderings of a metrics [`Snapshot`].
//!
//! Both encoders are hand-rolled on `std::fmt::Write` — the workspace has no
//! serde. The JSON form is deliberately flat and stable so downstream
//! scripts can parse it with anything.

use std::fmt::Write as _;

use crate::metrics::{bucket_bounds, HistogramSnapshot, Snapshot};

/// Escapes `s` as JSON string *contents* (no surrounding quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_histogram(out: &mut String, h: &HistogramSnapshot) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"buckets\":{{",
        h.count, h.sum
    );
    for (i, (bucket, n)) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (lo, hi) = bucket_bounds(*bucket);
        let _ = write!(out, "\"{lo}..{hi}\":{n}");
    }
    out.push_str("}}");
}

/// Renders `snap` as a single JSON object:
/// `{"counters":{...},"gauges":{...},"histograms":{name:{count,sum,buckets}}}`.
pub fn to_json(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\"counters\":{");
    for (i, (k, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{v}", json_escape(k));
    }
    out.push_str("},\"gauges\":{");
    for (i, (k, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{v}", json_escape(k));
    }
    out.push_str("},\"histograms\":{");
    for (i, (k, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", json_escape(k));
        json_histogram(&mut out, h);
    }
    out.push_str("}}");
    out
}

/// Renders `snap` as aligned human-readable text, one metric per line.
pub fn to_text(snap: &Snapshot) -> String {
    let width = snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .map(|k| k.len())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (k, v) in &snap.counters {
        let _ = writeln!(out, "{k:<width$}  {v}");
    }
    for (k, v) in &snap.gauges {
        let _ = writeln!(out, "{k:<width$}  {v}");
    }
    for (k, h) in &snap.histograms {
        let _ = writeln!(
            out,
            "{k:<width$}  count={} sum={} mean={}",
            h.count,
            h.sum,
            h.mean()
        );
        for (bucket, n) in &h.buckets {
            let (lo, hi) = bucket_bounds(*bucket);
            let _ = writeln!(out, "{:<width$}    [{lo}..{hi}] {n}", "");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\t\r"), "x\\n\\t\\r");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_shape_is_stable() {
        let reg = Registry::new();
        reg.counter("a.b").add(2);
        reg.gauge("g").set(-3);
        reg.histogram("h").record(0);
        reg.histogram("h").record(3);
        let json = to_json(&reg.snapshot());
        assert_eq!(
            json,
            "{\"counters\":{\"a.b\":2},\"gauges\":{\"g\":-3},\
             \"histograms\":{\"h\":{\"count\":2,\"sum\":3,\
             \"buckets\":{\"0..0\":1,\"2..3\":1}}}}"
        );
    }

    #[test]
    fn json_of_empty_snapshot() {
        let json = to_json(&Snapshot::default());
        assert_eq!(json, "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
    }

    #[test]
    fn text_lists_every_metric() {
        let reg = Registry::new();
        reg.counter("hits").add(7);
        reg.histogram("lat").record(5);
        let text = to_text(&reg.snapshot());
        assert!(text.contains("hits"));
        assert!(text.contains('7'));
        assert!(text.contains("count=1"));
        assert!(text.contains("[4..7] 1"));
    }
}
