//! Counters, gauges, and log2-bucketed histograms behind a name registry.
//!
//! Handles (`Arc<Counter>` etc.) are cheap to clone and lock-free to update;
//! the registry lock is only taken on first lookup and on snapshot. A
//! [`Registry`] can be process-global (see [`global()`]) or a *shard* owned
//! by one component (e.g. one `Database` instance) and registered with
//! [`register_shard`] so [`snapshot_all`] still sees it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};
use std::time::Instant;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i >= 1` holds
/// values in `[2^(i-1), 2^i - 1]`, and the last bucket absorbs everything
/// above its lower bound.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log2-bucketed histogram of `u64` samples (typically nanoseconds).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The bucket index a value lands in.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The `[lo, hi]` value range of bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
    if index == 0 {
        (0, 0)
    } else if index == HISTOGRAM_BUCKETS - 1 {
        (1u64 << (index - 1), u64::MAX)
    } else {
        (1u64 << (index - 1), (1u64 << index) - 1)
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Runs `f`, recording its wall time in nanoseconds.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(elapsed_ns(start));
        out
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i, n));
            }
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }

    /// Folds a snapshot's samples into this histogram (adds counts, sums,
    /// and per-bucket tallies). Used when flushing a shard registry into
    /// the global one.
    pub fn merge_snapshot(&self, snap: &HistogramSnapshot) {
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        for &(i, n) in &snap.buckets {
            if i < HISTOGRAM_BUCKETS {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// Saturating nanoseconds since `start`.
#[inline]
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Point-in-time state of one histogram (sparse buckets).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// `(bucket_index, count)` for non-empty buckets, ascending.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Folds `other`'s samples into this snapshot.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        let mut merged: BTreeMap<usize, u64> = self.buckets.iter().copied().collect();
        for &(i, n) in &other.buckets {
            *merged.entry(i).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
    }

    /// The samples recorded since `baseline` (saturating per field).
    pub fn diff(&self, baseline: &HistogramSnapshot) -> HistogramSnapshot {
        let base: BTreeMap<usize, u64> = baseline.buckets.iter().copied().collect();
        let buckets = self
            .buckets
            .iter()
            .filter_map(|&(i, n)| {
                let d = n.saturating_sub(base.get(&i).copied().unwrap_or(0));
                (d > 0).then_some((i, d))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.saturating_sub(baseline.count),
            sum: self.sum.saturating_sub(baseline.sum),
            buckets,
        }
    }
}

/// A named collection of metrics.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().unwrap().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .unwrap()
                .entry(name.to_owned())
                .or_default(),
        )
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().unwrap().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            self.gauges
                .write()
                .unwrap()
                .entry(name.to_owned())
                .or_default(),
        )
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().unwrap().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .unwrap()
                .entry(name.to_owned())
                .or_default(),
        )
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time state of a registry (or several, merged).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Folds `other` into `self` (counters/histograms add, gauges take the
    /// later value).
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// What changed since `baseline`: counters/histograms subtract
    /// (saturating), gauges keep their current value.
    pub fn diff(&self, baseline: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (k, v) in &self.counters {
            let d = v.saturating_sub(baseline.counters.get(k).copied().unwrap_or(0));
            if d > 0 {
                out.counters.insert(k.clone(), d);
            }
        }
        out.gauges = self.gauges.clone();
        for (k, v) in &self.histograms {
            let d = match baseline.histograms.get(k) {
                Some(b) => v.diff(b),
                None => v.clone(),
            };
            if d.count > 0 {
                out.histograms.insert(k.clone(), d);
            }
        }
        out
    }
}

struct GlobalState {
    registry: Registry,
    shards: Mutex<Vec<Weak<Registry>>>,
}

fn global_state() -> &'static GlobalState {
    static STATE: OnceLock<GlobalState> = OnceLock::new();
    STATE.get_or_init(|| GlobalState {
        registry: Registry::new(),
        shards: Mutex::new(Vec::new()),
    })
}

/// The process-global registry.
pub fn global() -> &'static Registry {
    &global_state().registry
}

/// Registers `shard` so [`snapshot_all`] includes it. Holds only a weak
/// reference; dropped shards are pruned lazily.
pub fn register_shard(shard: &Arc<Registry>) {
    let mut shards = global_state().shards.lock().unwrap();
    shards.retain(|w| w.strong_count() > 0);
    shards.push(Arc::downgrade(shard));
}

/// Folds every metric of `shard` into the process-global registry:
/// counters add, gauges take the shard's value, histograms merge their
/// bucket tallies. Call this when a shard owner is dropped so its counts
/// survive in [`snapshot_all`] instead of vanishing with the weak
/// reference. Flushing a *live* shard double-counts it in `snapshot_all`
/// (once merged, once live) — only flush at end of life.
pub fn flush_shard(shard: &Registry) {
    let target = global();
    let snap = shard.snapshot();
    for (name, v) in &snap.counters {
        if *v > 0 {
            target.counter(name).add(*v);
        }
    }
    for (name, v) in &snap.gauges {
        target.gauge(name).set(*v);
    }
    for (name, h) in &snap.histograms {
        if h.count > 0 {
            target.histogram(name).merge_snapshot(h);
        }
    }
}

/// The global registry's snapshot merged with every live shard's.
pub fn snapshot_all() -> Snapshot {
    let mut snap = global().snapshot();
    let shards: Vec<Arc<Registry>> = {
        let guard = global_state().shards.lock().unwrap();
        guard.iter().filter_map(Weak::upgrade).collect()
    };
    for shard in shards {
        snap.merge(&shard.snapshot());
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lo bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi bound of bucket {i}");
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::default();
        for v in [0, 1, 1, 5, 1000, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(
            snap.sum,
            0u64.wrapping_add(1 + 1 + 5 + 1000).wrapping_add(u64::MAX)
        );
        let by_bucket: BTreeMap<usize, u64> = snap.buckets.iter().copied().collect();
        assert_eq!(by_bucket[&0], 1);
        assert_eq!(by_bucket[&1], 2);
        assert_eq!(by_bucket[&3], 1);
        assert_eq!(by_bucket[&10], 1);
        assert_eq!(by_bucket[&(HISTOGRAM_BUCKETS - 1)], 1);
    }

    #[test]
    fn registry_handles_are_shared() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter("x").get(), 4);
        assert_eq!(a.get(), 4);
    }

    #[test]
    fn snapshot_diff_and_merge() {
        let reg = Registry::new();
        reg.counter("c").add(10);
        reg.histogram("h").record(7);
        let base = reg.snapshot();
        reg.counter("c").add(5);
        reg.counter("new").inc();
        reg.histogram("h").record(7);
        reg.histogram("h").record(100);
        let now = reg.snapshot();

        let d = now.diff(&base);
        assert_eq!(d.counters["c"], 5);
        assert_eq!(d.counters["new"], 1);
        let h = &d.histograms["h"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 107);

        let mut merged = base.clone();
        merged.merge(&d);
        assert_eq!(merged.counters["c"], now.counters["c"]);
        assert_eq!(merged.histograms["h"].count, now.histograms["h"].count);
        assert_eq!(merged.histograms["h"].sum, now.histograms["h"].sum);
    }

    #[test]
    fn flush_shard_preserves_counts_past_drop() {
        let shard = Arc::new(Registry::new());
        register_shard(&shard);
        shard.counter("flush.test.events").add(7);
        shard.gauge("flush.test.level").set(-3);
        shard.histogram("flush.test.ns").record(5);
        shard.histogram("flush.test.ns").record(1000);
        let before = global().snapshot();
        flush_shard(&shard);
        drop(shard);
        let after = snapshot_all().diff(&before);
        assert_eq!(after.counters["flush.test.events"], 7);
        assert_eq!(after.gauges["flush.test.level"], -3);
        let h = &after.histograms["flush.test.ns"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1005);
        let by_bucket: BTreeMap<usize, u64> = h.buckets.iter().copied().collect();
        assert_eq!(by_bucket[&bucket_index(5)], 1);
        assert_eq!(by_bucket[&bucket_index(1000)], 1);
    }

    #[test]
    fn shards_feed_snapshot_all() {
        let shard = Arc::new(Registry::new());
        register_shard(&shard);
        shard.counter("shard.test.events").add(2);
        global().counter("shard.test.events").inc();
        let snap = snapshot_all();
        assert_eq!(snap.counters["shard.test.events"], 3);
        drop(shard);
        // A dropped shard no longer contributes.
        let snap = snapshot_all();
        assert_eq!(snap.counters["shard.test.events"], 1);
    }
}
