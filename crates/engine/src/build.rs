//! Partitioned transient hash builds and the versioned build-side cache.
//!
//! When no index covers a join's probe attributes,
//! [`crate::planner::choose_join_strategy`] picks a hash join and the
//! executor scans the build side once into an [`OwnedBuild`]: a set of
//! `hash(key) % P` partitions of a key → row-slot multimap. Once
//! [`crate::planner::choose_build_parallelism`] grants more than one
//! worker, the scan fans out — each worker reads a contiguous chunk of
//! the row slots into per-partition partial maps, and a second lock-free
//! pass merges each partition on its own worker (the partitioned-build
//! playbook of Balkesen et al., ICDE 2013). Because chunks are contiguous and are
//! merged in chunk order, every key's slot list comes out in ascending
//! slot order **regardless of the worker count**, so probe results — and
//! therefore query results — are byte-identical at every parallelism
//! level.
//!
//! Finished builds land in a per-database [`BuildCache`] keyed by
//! [`BuildKey`] — `(relation, probe attrs, relation version)`. The version
//! is a monotone counter bumped by every statement that touches the
//! relation, so a hit is *proof* the cached build describes the current
//! rows; invalidation needs no bookkeeping beyond the bump. Entries are
//! evicted least-recently-used once the byte cap is exceeded.

use std::hash::BuildHasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use relmerge_relational::{Error, FxBuildHasher, FxHashMap, Result, Tuple, Value};

use crate::fault::panic_message;
use crate::query::{CompiledPredicate, Predicate};

/// One parallel build worker's output: per-partition partial maps plus
/// the number of rows its pushed filter pruned.
type ChunkBuild = (Vec<FxHashMap<Tuple, Vec<usize>>>, u64);

/// The partition a key belongs to: the key's hash reduced mod the
/// partition count. Build and probe sides must agree, so both hash the
/// *slice* form of the key (a [`Tuple`] hashes identically to its slice —
/// see `Borrow<[Value]> for Tuple`).
fn partition_of(key: &[Value], partitions: usize) -> usize {
    (FxBuildHasher::default().hash_one(key) % partitions as u64) as usize
}

/// A transient hash table over one relation's probe attributes: `P`
/// partitions of key → live-row-slot lists, with the cost figures the
/// executor charges per use (identically on cache hits, keeping
/// [`QueryStats`](crate::QueryStats) independent of cache state).
#[derive(Debug)]
pub(crate) struct OwnedBuild {
    partitions: Vec<FxHashMap<Tuple, Vec<usize>>>,
    /// Row slots scanned to build (the whole slot array, tombstones
    /// included — the figure the serial build always charged).
    rows_scanned: u64,
    /// Approximate resident size, for the cache cap and the query budget.
    bytes: u64,
    /// Workers the build fanned out over (1 = serial).
    workers: usize,
    /// Rows a pushed predicate excluded from the build (rows that were
    /// live and key-total but failed the filter).
    pruned: u64,
}

impl OwnedBuild {
    /// The live row slots carrying `key`, in ascending slot order.
    pub(crate) fn probe(&self, key: &[Value]) -> Option<&[usize]> {
        let p = if self.partitions.len() == 1 {
            0
        } else {
            partition_of(key, self.partitions.len())
        };
        self.partitions[p].get(key).map(Vec::as_slice)
    }

    /// Row slots scanned to produce this build.
    pub(crate) fn rows_scanned(&self) -> u64 {
        self.rows_scanned
    }

    /// Approximate bytes this build occupies.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Workers the build fanned out over (1 = serial).
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Rows a pushed predicate excluded from the build.
    pub(crate) fn pruned(&self) -> u64 {
        self.pruned
    }
}

/// Scans `rows` once into an [`OwnedBuild`] over the attribute positions
/// `pos`, fanning out over `workers` contiguous chunks when `workers > 1`.
/// A pushed `filter` (compiled against the relation's header) keeps
/// failing rows out of the build entirely, shrinking its byte footprint;
/// the exclusions are counted in [`OwnedBuild::pruned`].
/// `fault` runs once per chunk (the `engine.query.hash_build` site) —
/// possibly on a worker thread — and any panic it raises, like any genuine
/// build panic, is contained into a typed [`Error::ExecutionPanic`].
pub(crate) fn build_owned<F>(
    rows: &[Option<Tuple>],
    pos: &[usize],
    workers: usize,
    filter: Option<&CompiledPredicate>,
    fault: F,
) -> Result<OwnedBuild>
where
    F: Fn() -> Result<()> + Sync,
{
    let workers = workers.max(1).min(rows.len().max(1));
    let mut pruned: u64 = 0;
    let merged: Vec<FxHashMap<Tuple, Vec<usize>>> = if workers <= 1 {
        let (map, chunk_pruned) = catch_unwind(AssertUnwindSafe(
            || -> Result<(FxHashMap<Tuple, Vec<usize>>, u64)> {
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
                Ok((map, pruned))
            },
        ))
        .unwrap_or_else(|payload| {
            Err(Error::ExecutionPanic {
                context: panic_message(payload),
            })
        })?;
        pruned = chunk_pruned;
        vec![map]
    } else {
        // Pass 1: each worker scans one contiguous chunk of the slot array
        // into per-partition partial maps. Chunks are joined in spawn
        // order, so `partials` stays chunk-ordered.
        let chunk_rows = rows.len().div_ceil(workers);
        let mut partials: Vec<Vec<FxHashMap<Tuple, Vec<usize>>>> = Vec::with_capacity(workers);
        let mut failure: Option<Error> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = rows
                .chunks(chunk_rows)
                .enumerate()
                .map(|(ci, chunk)| {
                    let fault = &fault;
                    scope.spawn(move || -> Result<ChunkBuild> {
                        catch_unwind(AssertUnwindSafe(|| -> Result<_> {
                            fault()?;
                            let mut parts: Vec<FxHashMap<Tuple, Vec<usize>>> =
                                (0..workers).map(|_| FxHashMap::default()).collect();
                            let mut pruned = 0u64;
                            let base = ci * chunk_rows;
                            for (off, t) in chunk.iter().enumerate() {
                                if let Some(t) = t {
                                    if t.is_total_at(pos) {
                                        if let Some(f) = filter {
                                            if !f.matches(t.values()) {
                                                pruned += 1;
                                                continue;
                                            }
                                        }
                                        let key = t.project(pos);
                                        let p = partition_of(key.values(), workers);
                                        parts[p].entry(key).or_default().push(base + off);
                                    }
                                }
                            }
                            Ok((parts, pruned))
                        }))
                        .unwrap_or_else(|payload| {
                            Err(Error::ExecutionPanic {
                                context: panic_message(payload),
                            })
                        })
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(Ok((parts, chunk_pruned))) => {
                        partials.push(parts);
                        pruned += chunk_pruned;
                    }
                    Ok(Err(e)) => {
                        if failure.is_none() {
                            failure = Some(e);
                        }
                    }
                    Err(payload) => {
                        if failure.is_none() {
                            failure = Some(Error::ExecutionPanic {
                                context: panic_message(payload),
                            });
                        }
                    }
                }
            }
        });
        if let Some(e) = failure {
            return Err(e);
        }
        // Transpose chunk-major partials into partition-major columns;
        // pass 2 then merges each partition on its own worker with no
        // locking (disjoint ownership). Appending chunk-ordered slot lists
        // keeps every key's list in ascending slot order.
        let mut columns: Vec<Vec<FxHashMap<Tuple, Vec<usize>>>> =
            (0..workers).map(|_| Vec::with_capacity(workers)).collect();
        for parts in partials {
            for (p, map) in parts.into_iter().enumerate() {
                columns[p].push(map);
            }
        }
        let mut merged: Vec<FxHashMap<Tuple, Vec<usize>>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = columns
                .into_iter()
                .map(|column| {
                    scope.spawn(move || {
                        let mut out: FxHashMap<Tuple, Vec<usize>> = FxHashMap::default();
                        for map in column {
                            for (k, mut slots) in map {
                                out.entry(k).or_default().append(&mut slots);
                            }
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(map) => merged.push(map),
                    Err(payload) => {
                        if failure.is_none() {
                            failure = Some(Error::ExecutionPanic {
                                context: panic_message(payload),
                            });
                        }
                    }
                }
            }
        });
        if let Some(e) = failure {
            return Err(e);
        }
        merged
    };
    let keys: usize = merged.iter().map(FxHashMap::len).sum();
    let slots: usize = merged.iter().flat_map(|m| m.values()).map(Vec::len).sum();
    let key_values: usize = merged.iter().flat_map(|m| m.keys()).map(Tuple::arity).sum();
    // Approximate bytes: map-entry overhead per key, plus the key's boxed
    // values, plus one usize per slot reference.
    let bytes = (keys as u64) * (std::mem::size_of::<(Tuple, Vec<usize>)>() as u64 + 16)
        + (key_values as u64) * std::mem::size_of::<Value>() as u64
        + (slots as u64) * std::mem::size_of::<usize>() as u64;
    Ok(OwnedBuild {
        partitions: merged,
        rows_scanned: rows.len() as u64,
        bytes,
        workers,
        pruned,
    })
}

/// The identity of one cached build: the relation, the probe attributes
/// the build is keyed on, the relation's modification version at build
/// time, and the exact predicate pushed into the build (if any). A
/// mutation bumps the version, so stale entries can never be hit — they
/// just age out of the LRU. The filter is part of the key *by value*, not
/// by its literal-free fingerprint: a build filtered on `Eq(a, 1)` must
/// never be served to a probe filtered on `Eq(a, 2)` or to an unfiltered
/// one.
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
    fn parallel_build_is_slot_identical_to_serial() {
        let rows = rows(500);
        let pos = vec![1usize];
        let serial = build_owned(&rows, &pos, 1, None, || Ok(())).unwrap();
        for workers in [2, 3, 4, 7] {
            let par = build_owned(&rows, &pos, workers, None, || Ok(())).unwrap();
            assert_eq!(par.workers(), workers);
            assert_eq!(par.bytes(), serial.bytes());
            assert_eq!(par.rows_scanned(), 500);
            for k in 0..9i64 {
                let key = [Value::Int(k)];
                assert_eq!(par.probe(&key), serial.probe(&key), "key {k}");
            }
            // Slot lists are ascending (the determinism invariant).
            let key = [Value::Int(1)];
            let slots = par.probe(&key).unwrap();
            assert!(slots.windows(2).all(|w| w[0] < w[1]), "{slots:?}");
        }
        // Null and tombstoned rows never enter the build.
        assert!(serial.probe(&[Value::Null]).is_none());
    }

    #[test]
    fn build_faults_surface_typed_from_any_chunk() {
        let rows = rows(100);
        let pos = vec![0usize];
        let calls = std::sync::atomic::AtomicU64::new(0);
        let err = build_owned(&rows, &pos, 4, None, || {
            if calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == 2 {
                Err(Error::Injected {
                    site: "test".to_owned(),
                })
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(matches!(err, Error::Injected { .. }), "{err}");
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 4);
        // A panicking chunk is contained into a typed error.
        let err = build_owned(&rows, &pos, 4, None, || -> Result<()> {
            panic!("boom in a build worker")
        })
        .unwrap_err();
        assert!(
            matches!(err, Error::ExecutionPanic { ref context } if context.contains("boom")),
            "{err}"
        );
        // Serial builds contain panics too (no thread scaffolding).
        let err = build_owned(&rows, &pos, 1, None, || -> Result<()> {
            panic!("serial boom")
        })
        .unwrap_err();
        assert!(matches!(err, Error::ExecutionPanic { .. }), "{err}");
    }

    #[test]
    fn cache_is_lru_with_byte_cap() {
        let rows = rows(64);
        let pos = vec![0usize];
        let build = || Arc::new(build_owned(&rows, &pos, 1, None, || Ok(())).unwrap());
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
