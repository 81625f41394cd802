//! Content-addressed slice cache.
//!
//! Cyclic debugging recomputes the same slices over and over: every debug
//! iteration replays the same pinball and asks about the same failure
//! point. The cache exploits that shape. A result is keyed by *content*,
//! never by session: the pinball's [`PinballDigest`] (a fold of its chunk
//! CRCs), the resolved [`Criterion`], and the
//! [`SliceOptions::fingerprint`](slicer::SliceOptions::fingerprint). Two
//! different clients debugging two uploads of the identical pinball
//! therefore share entries, and reopening a session after an LRU eviction
//! loses no cached work.
//!
//! Eviction is LRU by lookup order with a fixed entry capacity; all
//! counters are surfaced through [`CacheStats`] on the `Stats` path.
//!
//! Alongside the slice cache sits the [`IndexCache`]: the same
//! content-addressed idea one level down. A [`DepIndex`] is keyed by
//! (pinball digest, options fingerprint) only — *not* by criterion — so
//! every criterion a client asks about on one uploaded pinball shares a
//! single index build. Lookups are single-flight: concurrent requests for
//! the same key serialize on a per-entry lock, so eight clients racing on
//! a cold key produce exactly one build while the other seven wait and
//! reuse it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use pinplay::PinballDigest;
use slicer::{Criterion, DepIndex, LocKey, RecordId};

use crate::proto::{CacheStats, WireSlice};

/// Hashable form of a [`Criterion`] (which does not itself derive `Hash`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CriterionKey {
    Record(RecordId),
    Value(RecordId, LocKey),
}

impl From<Criterion> for CriterionKey {
    fn from(c: Criterion) -> CriterionKey {
        match c {
            Criterion::Record { id } => CriterionKey::Record(id),
            Criterion::Value { id, key } => CriterionKey::Value(id, key),
        }
    }
}

/// Full cache key: what was sliced, where, under which options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    digest: PinballDigest,
    criterion: CriterionKey,
    options: u64,
}

struct Entry {
    slice: Arc<WireSlice>,
    bytes: u64,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<CacheKey, Entry>,
    /// Monotonic lookup clock driving LRU order.
    tick: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded, thread-safe, content-addressed store of canonical slices.
pub struct SliceCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl SliceCache {
    /// Creates a cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> SliceCache {
        SliceCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Looks up a slice, counting a hit or miss and refreshing LRU order.
    pub fn get(
        &self,
        digest: PinballDigest,
        criterion: Criterion,
        options_fingerprint: u64,
    ) -> Option<Arc<WireSlice>> {
        let key = CacheKey {
            digest,
            criterion: criterion.into(),
            options: options_fingerprint,
        };
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                let slice = Arc::clone(&entry.slice);
                inner.hits += 1;
                Some(slice)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores a computed slice, evicting the least recently used entry if
    /// the cache is full. Re-inserting an existing key refreshes it.
    pub fn insert(
        &self,
        digest: PinballDigest,
        criterion: Criterion,
        options_fingerprint: u64,
        slice: Arc<WireSlice>,
    ) {
        let key = CacheKey {
            digest,
            criterion: criterion.into(),
            options: options_fingerprint,
        };
        let bytes = slice.approx_bytes();
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.bytes;
        }
        while inner.map.len() >= self.capacity {
            // O(entries) scan; the capacity is a configuration-sized bound,
            // not a dataset.
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("map non-empty while over capacity");
            let evicted = inner.map.remove(&victim).expect("victim present");
            inner.bytes -= evicted.bytes;
            inner.evictions += 1;
        }
        inner.bytes += bytes;
        inner.map.insert(
            key,
            Entry {
                slice,
                bytes,
                last_used: tick,
            },
        );
    }

    /// Counter snapshot for the `Stats` path.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len() as u64,
            bytes: inner.bytes,
        }
    }
}

/// Cache key for a dependence index: which pinball, under which options.
/// The criterion is deliberately absent — one index answers all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct IndexKey {
    digest: PinballDigest,
    options: u64,
}

struct IndexEntry {
    /// Single-flight slot: the builder fills it while holding the lock;
    /// concurrent requesters for the same key block here instead of
    /// building their own copy.
    slot: Arc<Mutex<Option<Arc<DepIndex>>>>,
    /// `DepIndex::approx_bytes` once built, 0 while the build is in flight.
    bytes: u64,
    last_used: u64,
}

struct IndexInner {
    map: HashMap<IndexKey, IndexEntry>,
    tick: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded, thread-safe cache of [`DepIndex`]es keyed by
/// (pinball digest, options fingerprint), with single-flight builds.
///
/// A *miss* is counted when a key is first requested and this caller
/// becomes its builder; every later request for the key — including ones
/// that arrive while the build is still running and wait for it — counts
/// as a *hit*, because it did not trigger a second build.
pub struct IndexCache {
    inner: Mutex<IndexInner>,
    capacity: usize,
}

impl IndexCache {
    /// Creates a cache holding at most `capacity` indexes (min 1).
    pub fn new(capacity: usize) -> IndexCache {
        IndexCache {
            inner: Mutex::new(IndexInner {
                map: HashMap::new(),
                tick: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Returns the cached index for `(digest, fingerprint)`, building it
    /// with `build` exactly once per cache residency. Concurrent callers
    /// for the same key block until the one build finishes; callers for
    /// different keys proceed independently (the outer map lock is never
    /// held across a build).
    pub fn get_or_build<F>(
        &self,
        digest: PinballDigest,
        options_fingerprint: u64,
        build: F,
    ) -> Arc<DepIndex>
    where
        F: FnOnce() -> Arc<DepIndex>,
    {
        let key = IndexKey {
            digest,
            options: options_fingerprint,
        };
        let slot = {
            let mut inner = self.inner.lock().expect("index cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.last_used = tick;
                let slot = Arc::clone(&entry.slot);
                inner.hits += 1;
                slot
            } else {
                inner.misses += 1;
                while inner.map.len() >= self.capacity {
                    // O(entries) scan; capacity is a configuration-sized
                    // bound, not a dataset.
                    let victim = inner
                        .map
                        .iter()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(k, _)| *k)
                        .expect("map non-empty while over capacity");
                    let evicted = inner.map.remove(&victim).expect("victim present");
                    inner.bytes -= evicted.bytes;
                    inner.evictions += 1;
                }
                let slot = Arc::new(Mutex::new(None));
                inner.map.insert(
                    key,
                    IndexEntry {
                        slot: Arc::clone(&slot),
                        bytes: 0,
                        last_used: tick,
                    },
                );
                slot
            }
        };
        let mut guard = slot.lock().expect("index slot lock");
        if let Some(index) = guard.as_ref() {
            return Arc::clone(index);
        }
        let index = build();
        *guard = Some(Arc::clone(&index));
        let bytes = index.approx_bytes();
        let mut inner = self.inner.lock().expect("index cache lock");
        if let Some(entry) = inner.map.get_mut(&key) {
            // The entry may have been evicted while the build ran; only a
            // still-resident entry contributes to the byte count.
            let delta = bytes - entry.bytes;
            entry.bytes = bytes;
            inner.bytes += delta;
        }
        index
    }

    /// Counter snapshot for the `Stats` path.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("index cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len() as u64,
            bytes: inner.bytes,
        }
    }
}

/// What one relog produced: the handle and counters a repeat request can
/// answer with, without touching the session again. The slice-pinball
/// container itself lives in the server's content-addressed store under
/// `digest`; the cache only remembers that it exists.
#[derive(Debug, Clone, Copy)]
pub struct RelogOutcome {
    /// Content digest of the slice pinball in the store.
    pub digest: PinballDigest,
    /// The debugger's relog report (kept/excluded/forced counters).
    pub report: drdebug::RelogReport,
    /// Serialized size of the stored container, for byte accounting.
    pub bytes: u64,
}

/// Cache key for a relog: which pinball, sliced where, under which
/// options. Unlike [`IndexKey`] the criterion *is* part of the key — each
/// criterion relogs to a different slice pinball.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RelogKey {
    digest: PinballDigest,
    criterion: CriterionKey,
    options: u64,
}

struct RelogEntry {
    /// Single-flight slot, exactly as in [`IndexCache`]: the builder
    /// fills it under the lock; concurrent requesters for the same key
    /// block here instead of relogging twice.
    slot: Arc<Mutex<Option<Arc<RelogOutcome>>>>,
    bytes: u64,
    last_used: u64,
}

struct RelogInner {
    map: HashMap<RelogKey, RelogEntry>,
    tick: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded, thread-safe cache of relog outcomes keyed by
/// (pinball digest, criterion, options fingerprint), with single-flight
/// builds mirroring [`IndexCache`]: concurrent relog requests for the
/// same slice produce exactly one slice pinball.
pub struct RelogCache {
    inner: Mutex<RelogInner>,
    capacity: usize,
}

impl RelogCache {
    /// Creates a cache holding at most `capacity` outcomes (min 1).
    pub fn new(capacity: usize) -> RelogCache {
        RelogCache {
            inner: Mutex::new(RelogInner {
                map: HashMap::new(),
                tick: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Returns the cached outcome for the key, building it with `build`
    /// exactly once per cache residency. The second element is `true`
    /// when the cache answered without running `build` — the wire-level
    /// `cached` flag. Concurrent callers for the same key block until the
    /// one build finishes; the outer map lock is never held across a
    /// build.
    ///
    /// # Errors
    ///
    /// Returns the build's error. A failed build caches nothing: its
    /// entry is removed, and the next caller for the key builds afresh.
    pub fn get_or_build<F, E>(
        &self,
        digest: PinballDigest,
        criterion: Criterion,
        options_fingerprint: u64,
        build: F,
    ) -> Result<(Arc<RelogOutcome>, bool), E>
    where
        F: FnOnce() -> Result<Arc<RelogOutcome>, E>,
    {
        let key = RelogKey {
            digest,
            criterion: criterion.into(),
            options: options_fingerprint,
        };
        let slot = {
            let mut inner = self.inner.lock().expect("relog cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.last_used = tick;
                let slot = Arc::clone(&entry.slot);
                inner.hits += 1;
                slot
            } else {
                inner.misses += 1;
                while inner.map.len() >= self.capacity {
                    // O(entries) scan; capacity is a configuration-sized
                    // bound, not a dataset.
                    let victim = inner
                        .map
                        .iter()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(k, _)| *k)
                        .expect("map non-empty while over capacity");
                    let evicted = inner.map.remove(&victim).expect("victim present");
                    inner.bytes -= evicted.bytes;
                    inner.evictions += 1;
                }
                let slot = Arc::new(Mutex::new(None));
                inner.map.insert(
                    key,
                    RelogEntry {
                        slot: Arc::clone(&slot),
                        bytes: 0,
                        last_used: tick,
                    },
                );
                slot
            }
        };
        let mut guard = slot.lock().expect("relog slot lock");
        if let Some(outcome) = guard.as_ref() {
            return Ok((Arc::clone(outcome), true));
        }
        let built = build();
        let mut inner = self.inner.lock().expect("relog cache lock");
        let outcome = match built {
            Ok(outcome) => outcome,
            Err(e) => {
                if inner
                    .map
                    .get(&key)
                    .is_some_and(|entry| Arc::ptr_eq(&entry.slot, &slot))
                {
                    inner.map.remove(&key);
                }
                return Err(e);
            }
        };
        *guard = Some(Arc::clone(&outcome));
        let bytes = outcome.bytes;
        if let Some(entry) = inner.map.get_mut(&key) {
            // The entry may have been evicted while the build ran; only a
            // still-resident entry contributes to the byte count.
            let delta = bytes - entry.bytes;
            entry.bytes = bytes;
            inner.bytes += delta;
        }
        Ok((outcome, false))
    }

    /// Looks up an outcome without installing a build slot, counting a
    /// hit or miss — the peer-forward path, which obtains outcomes from a
    /// digest's owner rather than building them here. A slot whose build
    /// is still in flight counts as a miss.
    pub fn peek(
        &self,
        digest: PinballDigest,
        criterion: Criterion,
        options_fingerprint: u64,
    ) -> Option<Arc<RelogOutcome>> {
        let key = RelogKey {
            digest,
            criterion: criterion.into(),
            options: options_fingerprint,
        };
        let slot = {
            let mut inner = self.inner.lock().expect("relog cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(&key) {
                Some(entry) => {
                    entry.last_used = tick;
                    Some(Arc::clone(&entry.slot))
                }
                None => None,
            }
        };
        let found = slot.and_then(|slot| slot.lock().expect("relog slot lock").clone());
        let mut inner = self.inner.lock().expect("relog cache lock");
        match &found {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        found
    }

    /// Stores an outcome obtained elsewhere (a forwarded relog answered
    /// by the digest's owner), evicting LRU entries to stay within
    /// capacity. Re-inserting an existing key refreshes it.
    pub fn insert(
        &self,
        digest: PinballDigest,
        criterion: Criterion,
        options_fingerprint: u64,
        outcome: Arc<RelogOutcome>,
    ) {
        let key = RelogKey {
            digest,
            criterion: criterion.into(),
            options: options_fingerprint,
        };
        let bytes = outcome.bytes;
        let mut inner = self.inner.lock().expect("relog cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.bytes;
        }
        while inner.map.len() >= self.capacity {
            // O(entries) scan; capacity is a configuration-sized bound,
            // not a dataset.
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("map non-empty while over capacity");
            let evicted = inner.map.remove(&victim).expect("victim present");
            inner.bytes -= evicted.bytes;
            inner.evictions += 1;
        }
        inner.bytes += bytes;
        inner.map.insert(
            key,
            RelogEntry {
                slot: Arc::new(Mutex::new(Some(outcome))),
                bytes,
                last_used: tick,
            },
        );
    }

    /// Counter snapshot for the `Stats` path.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("relog cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len() as u64,
            bytes: inner.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer::SliceStats;

    fn slice(id: RecordId) -> Arc<WireSlice> {
        Arc::new(WireSlice {
            criterion: Criterion::Record { id },
            records: vec![id],
            data_edges: Vec::new(),
            control_edges: Vec::new(),
            stats: SliceStats::default(),
        })
    }

    const D: PinballDigest = PinballDigest(0xfeed);

    #[test]
    fn hit_after_insert_and_counters() {
        let cache = SliceCache::new(4);
        let c = Criterion::Record { id: 1 };
        assert!(cache.get(D, c, 0).is_none());
        cache.insert(D, c, 0, slice(1));
        let got = cache.get(D, c, 0).expect("hit");
        assert_eq!(got.records, vec![1]);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = SliceCache::new(8);
        let c = Criterion::Record { id: 1 };
        cache.insert(D, c, 0, slice(1));
        assert!(cache.get(PinballDigest(0xbeef), c, 0).is_none(), "digest");
        assert!(
            cache.get(D, Criterion::Record { id: 2 }, 0).is_none(),
            "criterion"
        );
        assert!(cache.get(D, c, 1).is_none(), "options");
        assert!(
            cache
                .get(
                    D,
                    Criterion::Value {
                        id: 1,
                        key: LocKey::Mem(0)
                    },
                    0
                )
                .is_none(),
            "record vs value"
        );
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let cache = SliceCache::new(2);
        let a = Criterion::Record { id: 1 };
        let b = Criterion::Record { id: 2 };
        let c = Criterion::Record { id: 3 };
        cache.insert(D, a, 0, slice(1));
        cache.insert(D, b, 0, slice(2));
        cache.get(D, a, 0).expect("a cached"); // refresh a; b is now LRU
        cache.insert(D, c, 0, slice(3)); // evicts b
        assert!(cache.get(D, a, 0).is_some(), "recently used survives");
        assert!(cache.get(D, b, 0).is_none(), "LRU evicted");
        assert!(cache.get(D, c, 0).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    /// A real (tiny) dependence index, so byte accounting is exercised
    /// against `DepIndex::approx_bytes` rather than a stub.
    fn tiny_index() -> Arc<DepIndex> {
        let program = Arc::new(
            minivm::assemble(
                r"
                .text
                .func main
                    movi r1, 2
                    addi r1, r1, 3
                    halt
                .endfunc
                ",
            )
            .expect("assembles"),
        );
        let rec = pinplay::record_whole_program(
            &program,
            &mut minivm::RoundRobin::new(4),
            &mut minivm::LiveEnv::new(0),
            10_000,
            "index-cache-test",
        )
        .expect("records");
        let mut session = drdebug::DebugSession::new(program, rec.pinball);
        session.dep_index_for(&slicer::SliceOptions::default())
    }

    #[test]
    fn index_cache_single_flight_builds_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let index = tiny_index();
        let cache = IndexCache::new(4);
        let builds = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = &cache;
                let builds = &builds;
                let index = Arc::clone(&index);
                scope.spawn(move || {
                    let got = cache.get_or_build(D, 7, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window: the other threads must
                        // wait on the slot, not build their own.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        index
                    });
                    assert!(!got.is_empty(), "waiters get the built index");
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "single-flight");
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (1, 7, 1));
        assert_eq!(s.bytes, index.approx_bytes());
    }

    #[test]
    fn index_cache_keys_on_fingerprint_and_evicts_lru() {
        let index = tiny_index();
        let cache = IndexCache::new(1);
        let mut builds = 0;
        let mut build = |cache: &IndexCache, fp: u64| {
            cache.get_or_build(D, fp, || {
                builds += 1;
                Arc::clone(&index)
            });
        };
        build(&cache, 1); // miss, build
        build(&cache, 1); // hit
        build(&cache, 2); // different options: miss, evicts fp 1
        build(&cache, 1); // miss again after eviction
        assert_eq!(builds, 3);
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.evictions, s.entries), (3, 1, 2, 1));
        assert_eq!(s.bytes, index.approx_bytes(), "evicted bytes freed");
    }

    fn outcome(tag: u64) -> Result<Arc<RelogOutcome>, ()> {
        Ok(Arc::new(RelogOutcome {
            digest: PinballDigest(tag),
            report: drdebug::RelogReport::default(),
            bytes: 100,
        }))
    }

    #[test]
    fn relog_cache_single_flight_and_cached_flag() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let cache = RelogCache::new(4);
        let c = Criterion::Record { id: 1 };
        let builds = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = &cache;
                let builds = &builds;
                scope.spawn(move || {
                    let (got, _cached) = cache
                        .get_or_build(D, c, 0, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            outcome(0xabc)
                        })
                        .unwrap();
                    assert_eq!(got.digest, PinballDigest(0xabc));
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "single-flight");
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries, s.bytes), (1, 7, 1, 100));
        // The builder's own call reports uncached; a later call is cached.
        let (_, cached) = cache.get_or_build(D, c, 0, || outcome(0xabc)).unwrap();
        assert!(cached, "repeat relog is served from the cache");
    }

    #[test]
    fn relog_cache_keys_on_criterion_and_options() {
        let cache = RelogCache::new(8);
        let a = Criterion::Record { id: 1 };
        let b = Criterion::Record { id: 2 };
        let (_, cached) = cache.get_or_build(D, a, 0, || outcome(1)).unwrap();
        assert!(!cached, "cold key builds");
        let (_, cached) = cache.get_or_build(D, b, 0, || outcome(2)).unwrap();
        assert!(!cached, "different criterion is a different slice pinball");
        let (_, cached) = cache.get_or_build(D, a, 9, || outcome(3)).unwrap();
        assert!(!cached, "different options relog differently");
        let (got, cached) = cache.get_or_build(D, a, 0, || outcome(4)).unwrap();
        assert!(cached);
        assert_eq!(got.digest, PinballDigest(1), "original outcome retained");
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn relog_cache_failed_build_caches_nothing() {
        let cache = RelogCache::new(4);
        let c = Criterion::Record { id: 1 };
        assert!(cache.get_or_build(D, c, 0, || Err::<_, ()>(())).is_err());
        assert_eq!(cache.stats().entries, 0, "no empty slot left behind");
        let (_, cached) = cache.get_or_build(D, c, 0, || outcome(5)).unwrap();
        assert!(!cached, "the next caller builds afresh");
    }
}
