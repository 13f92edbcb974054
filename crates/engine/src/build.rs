//! Transient hash builds and the versioned build-side cache.
//!
//! When no index covers a join's probe attributes, the executor scans
//! the build side once into an [`OwnedBuild`]: a key →
//! row-slot multimap whose slot lists come out in ascending slot order, so
//! probe results — and therefore query results — are byte-identical cold
//! or cached.
//!
//! Finished builds land in a per-database [`BuildCache`] keyed by
//! [`BuildKey`] — `(relation, probe attrs, relation version)`. The version
//! is a monotone counter bumped by every statement that touches the
//! relation, so a hit is *proof* the cached build describes the current
//! rows; invalidation needs no bookkeeping beyond the bump. Entries are
//! evicted least-recently-used once the byte cap is exceeded.

use std::sync::Arc;

use relmerge_relational::{FxHashMap, Result, Tuple, Value};

use crate::query::{CompiledPredicate, Predicate};

/// A transient hash table over one relation's probe attributes: key →
/// live-row-slot lists, with the cost figures the executor charges per
/// use (identically on cache hits, keeping
/// [`QueryStats`](crate::QueryStats) independent of cache state).
#[derive(Debug)]
pub(crate) struct OwnedBuild {
    map: FxHashMap<Tuple, Vec<usize>>,
    /// Row slots scanned to build (the whole slot array, tombstones
    /// included).
    rows_scanned: u64,
    /// Approximate resident size, for the cache cap and the query's
    /// intermediate-byte counters.
    bytes: u64,
    /// Rows a pushed predicate excluded from the build (rows that were
    /// live and key-total but failed the filter).
    pruned: u64,
}

impl OwnedBuild {
    /// The live row slots carrying `key`, in ascending slot order.
    pub(crate) fn probe(&self, key: &[Value]) -> Option<&[usize]> {
        self.map.get(key).map(Vec::as_slice)
    }

    /// Row slots scanned to produce this build.
    pub(crate) fn rows_scanned(&self) -> u64 {
        self.rows_scanned
    }

    /// Approximate bytes this build occupies.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Rows a pushed predicate excluded from the build.
    pub(crate) fn pruned(&self) -> u64 {
        self.pruned
    }
}

/// Scans `rows` once into an [`OwnedBuild`] over the attribute positions
/// `pos`. A pushed `filter` (compiled against the relation's header)
/// keeps failing rows out of the build entirely, shrinking its byte
/// footprint; the exclusions are counted in [`OwnedBuild::pruned`].
/// `fault` runs once, before the scan (the `engine.query.hash_build`
/// site); the caller contains any panic.
pub(crate) fn build_owned(
    rows: &[Option<Tuple>],
    pos: &[usize],
    filter: Option<&CompiledPredicate>,
    fault: impl FnOnce() -> Result<()>,
) -> Result<OwnedBuild> {
    fault()?;
    let mut map: FxHashMap<Tuple, Vec<usize>> = FxHashMap::default();
    let mut pruned = 0u64;
    for (slot, t) in rows.iter().enumerate() {
        if let Some(t) = t {
            if t.is_total_at(pos) {
                if let Some(f) = filter {
                    if !f.matches(t.values()) {
                        pruned += 1;
                        continue;
                    }
                }
                map.entry(t.project(pos)).or_default().push(slot);
            }
        }
    }
    let slots: usize = map.values().map(Vec::len).sum();
    let key_values: usize = map.keys().map(Tuple::arity).sum();
    // Approximate bytes: map-entry overhead per key, plus the key's boxed
    // values, plus one usize per slot reference.
    let bytes = (map.len() as u64) * (std::mem::size_of::<(Tuple, Vec<usize>)>() as u64 + 16)
        + (key_values as u64) * std::mem::size_of::<Value>() as u64
        + (slots as u64) * std::mem::size_of::<usize>() as u64;
    Ok(OwnedBuild {
        map,
        rows_scanned: rows.len() as u64,
        bytes,
        pruned,
    })
}

/// The identity of one cached build: the relation, the probe attributes
/// the build is keyed on, the relation's modification version at build
/// time, and the exact predicate pushed into the build (if any). A
/// mutation bumps the version, so stale entries can never be hit — they
/// just age out of the LRU. The filter is part of the key *by value*,
/// literals included: a build filtered on `Eq(a, 1)` must never be served
/// to a probe filtered on `Eq(a, 2)` or to an unfiltered one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct BuildKey {
    pub(crate) rel: String,
    pub(crate) attrs: Vec<String>,
    pub(crate) version: u64,
    pub(crate) filter: Option<Predicate>,
}

#[derive(Clone)]
struct CacheEntry {
    build: Arc<OwnedBuild>,
    last_used: u64,
}

/// A per-database LRU cache of transient builds, capped in approximate
/// bytes. A capacity of `0` disables caching entirely. Entries are
/// [`Arc`]-shared, so a clone of the cache (for [`Database::fork`]) costs
/// one refcount per entry and evictions on either side are independent.
///
/// [`Database::fork`]: crate::Database::fork
#[derive(Clone)]
pub(crate) struct BuildCache {
    cap_bytes: u64,
    bytes: u64,
    tick: u64,
    entries: FxHashMap<BuildKey, CacheEntry>,
}

impl BuildCache {
    /// An empty cache holding at most `cap_bytes` of builds.
    pub(crate) fn new(cap_bytes: u64) -> Self {
        BuildCache {
            cap_bytes,
            bytes: 0,
            tick: 0,
            entries: FxHashMap::default(),
        }
    }

    /// The byte capacity.
    pub(crate) fn capacity(&self) -> u64 {
        self.cap_bytes
    }

    /// Approximate bytes currently cached.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Entries currently cached.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }

    /// The highest relation version any cached build of `rel` was taken
    /// at, if any build is cached. Bulk loads bump the relation version
    /// strictly past this so a pre-load build can never be mistaken for
    /// fresh.
    pub(crate) fn max_version(&self, rel: &str) -> Option<u64> {
        self.entries
            .keys()
            .filter(|k| k.rel == rel)
            .map(|k| k.version)
            .max()
    }

    /// Looks `key` up, marking the entry most-recently-used on a hit.
    pub(crate) fn get(&mut self, key: &BuildKey) -> Option<Arc<OwnedBuild>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.build)
        })
    }

    /// Inserts a finished build, evicting least-recently-used entries
    /// while over capacity; returns `(entries evicted, bytes evicted)`.
    /// A build larger than the whole capacity (or any build when the
    /// capacity is 0) is not cached at all.
    pub(crate) fn insert(&mut self, key: BuildKey, build: Arc<OwnedBuild>) -> (u64, u64) {
        if self.cap_bytes == 0 || build.bytes() > self.cap_bytes {
            return (0, 0);
        }
        self.tick += 1;
        self.bytes += build.bytes();
        if let Some(old) = self.entries.insert(
            key,
            CacheEntry {
                build,
                last_used: self.tick,
            },
        ) {
            self.bytes -= old.build.bytes();
        }
        self.evict_to_cap()
    }

    /// Changes the capacity, evicting down to it; returns
    /// `(entries evicted, bytes evicted)`.
    pub(crate) fn set_capacity(&mut self, cap_bytes: u64) -> (u64, u64) {
        self.cap_bytes = cap_bytes;
        self.evict_to_cap()
    }

    /// Evicts strictly least-recently-used first (ticks are unique, so
    /// the victim order is deterministic); returns `(entries, bytes)`.
    fn evict_to_cap(&mut self) -> (u64, u64) {
        let mut evicted = 0;
        let mut evicted_bytes = 0;
        while self.bytes > self.cap_bytes {
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(e) = self.entries.remove(&victim) {
                self.bytes -= e.build.bytes();
                evicted_bytes += e.build.bytes();
            }
            evicted += 1;
        }
        (evicted, evicted_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> Vec<Option<Tuple>> {
        (0..n)
            .map(|i| {
                if i % 7 == 3 {
                    None // tombstone
                } else if i % 5 == 0 {
                    Some(Tuple::new([Value::Int(i as i64), Value::Null]))
                } else {
                    Some(Tuple::new([
                        Value::Int(i as i64),
                        Value::Int((i % 9) as i64),
                    ]))
                }
            })
            .collect()
    }

    #[test]
    fn build_keeps_live_total_rows_in_slot_order() {
        let rows = rows(500);
        let build = build_owned(&rows, &[1], None, || Ok(())).unwrap();
        assert_eq!(build.rows_scanned(), 500);
        for k in 0..9i64 {
            let slots = build.probe(&[Value::Int(k)]).unwrap();
            // Ascending slots, no tombstone, exactly the key's rows.
            assert!(slots.windows(2).all(|w| w[0] < w[1]), "{slots:?}");
            assert!(slots
                .iter()
                .all(|&s| rows[s].as_ref().unwrap().values()[1] == Value::Int(k)));
        }
        // Null keys and tombstoned rows never enter the build.
        assert!(build.probe(&[Value::Null]).is_none());
        let live_total = rows
            .iter()
            .flatten()
            .filter(|t| t.is_total_at(&[1]))
            .count();
        let built: usize = (0..9i64)
            .map(|k| build.probe(&[Value::Int(k)]).unwrap().len())
            .sum();
        assert_eq!(built, live_total);
        // The fault hook runs once, before the scan, and its error
        // surfaces typed.
        let calls = std::cell::Cell::new(0);
        let err = build_owned(&rows, &[1], None, || {
            calls.set(calls.get() + 1);
            Err(relmerge_relational::Error::Injected {
                site: "test".to_owned(),
            })
        })
        .unwrap_err();
        assert!(
            matches!(err, relmerge_relational::Error::Injected { .. }),
            "{err}"
        );
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn cache_is_lru_with_byte_cap() {
        let rows = rows(64);
        let pos = vec![0usize];
        let build = || Arc::new(build_owned(&rows, &pos, None, || Ok(())).unwrap());
        let one = build().bytes();
        let key = |v: u64| BuildKey {
            rel: "R".to_owned(),
            attrs: vec!["R.K".to_owned()],
            version: v,
            filter: None,
        };
        // Room for exactly two entries.
        let mut cache = BuildCache::new(2 * one);
        assert_eq!(cache.insert(key(0), build()), (0, 0));
        assert_eq!(cache.insert(key(1), build()), (0, 0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.bytes(), 2 * one);
        // Touch version 0 so version 1 becomes the LRU victim.
        assert!(cache.get(&key(0)).is_some());
        assert_eq!(cache.insert(key(2), build()), (1, one));
        assert!(cache.get(&key(1)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(0)).is_some());
        assert!(cache.get(&key(2)).is_some());
        // Shrinking the capacity evicts down.
        assert_eq!(cache.set_capacity(one), (1, one));
        assert_eq!(cache.len(), 1);
        // A build larger than the whole cache is skipped, not inserted.
        assert_eq!(cache.set_capacity(1), (1, one));
        assert_eq!(cache.insert(key(9), build()), (0, 0));
        assert_eq!(cache.len(), 0);
        // Capacity 0 disables caching outright.
        let mut off = BuildCache::new(0);
        assert_eq!(off.insert(key(0), build()), (0, 0));
        assert!(off.get(&key(0)).is_none());
        assert_eq!(off.bytes(), 0);
        // clear() empties and resets accounting.
        let mut cache = BuildCache::new(u64::MAX);
        cache.insert(key(0), build());
        cache.clear();
        assert_eq!((cache.len(), cache.bytes()), (0, 0));
        assert_eq!(cache.capacity(), u64::MAX);
    }
}
