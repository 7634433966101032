//! The one cache type: a content-addressed, byte-bounded LRU.
//!
//! Every stage cache of the evaluation pipeline (parsed specs, compiled
//! plans, transformed inputs, reports, estimator statistics) is a
//! [`ByteLru`] keyed by a 64-bit content hash the caller computes
//! ([`CompressedTensor::content_hash`], memoized per tensor, for tensor
//! keys). [`ByteLru::get_or_try_insert_with`] is its only lookup: it
//! returns the shared [`Arc`] on a hit and builds, inserts and returns
//! it on a miss, counting hits, misses, resident bytes and evictions in
//! the cache's own [`CacheStats`] and, for stages wired to one, in a
//! process-wide [`telemetry`] entry (`--cache-stats`).
//!
//! A transform chain is not a pure tensor→tensor function: online
//! swizzles record merge work and occupancy-split leaders publish
//! partition boundaries for their followers. A [`TransformedView`]
//! therefore carries those side effects as data ([`MergeRecord`],
//! [`BoundaryRecord`]); on a cache hit the engine *replays* them, keeping
//! instruments and boundary caches bit-identical to a cold run.
//!
//! Thread safety: the map sits behind a [`Mutex`] that is never held
//! while building; two threads racing the same cold key may both build
//! (both count as misses) and the first insert wins — correctness never
//! depends on single-build, because every build of the same key produces
//! the same value.
//!
//! Bounded residency: [`ByteLru::set_capacity_bytes`] evicts
//! least-recently-used entries once resident bytes exceed the budget.
//! Eviction never changes results — keys are content hashes, so a
//! re-miss rebuilds the exact same artifact (pinned bit-identical by the
//! robustness suite) — it only trades recompute time for memory.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::compressed::CompressedTensor;
use crate::coord::Coord;
#[cfg(doc)]
use crate::telemetry;
use crate::telemetry::{CacheSnapshot, CacheStats};

/// A thread-safe, byte-accounted LRU map from 64-bit content hashes to
/// shared [`Arc`] values.
///
/// Unbounded by default (`capacity = u64::MAX`); give it a budget with
/// [`ByteLru::set_capacity_bytes`] and it evicts least-recently-used
/// entries until resident bytes fit. Lookups refresh recency. Sizes are
/// the builder's estimates, so an entry larger than the whole capacity
/// is admitted and then evicted at once — callers always get their `Arc`
/// back regardless.
#[derive(Debug)]
pub struct ByteLru<V> {
    inner: Mutex<LruInner<V>>,
    stats: CacheStats,
    telemetry: Option<&'static CacheStats>,
}

#[derive(Debug)]
struct LruInner<V> {
    /// `key → (value, recency stamp, byte estimate)`.
    map: HashMap<u64, (Arc<V>, u64, u64)>,
    /// `recency stamp → key`, oldest first.
    order: BTreeMap<u64, u64>,
    clock: u64,
    resident: u64,
    capacity: u64,
}

impl<V> LruInner<V> {
    /// The value for `key` with its recency refreshed.
    fn touch(&mut self, key: u64) -> Option<Arc<V>> {
        self.clock += 1;
        let stamp = self.clock;
        let (value, entry_stamp, _) = self.map.get_mut(&key)?;
        let old = std::mem::replace(entry_stamp, stamp);
        let value = Arc::clone(value);
        self.order.remove(&old);
        self.order.insert(stamp, key);
        Some(value)
    }
}

impl<V> Default for ByteLru<V> {
    fn default() -> Self {
        ByteLru::new()
    }
}

impl<V> ByteLru<V> {
    /// Creates an empty, unbounded store.
    pub fn new() -> Self {
        ByteLru {
            inner: Mutex::new(LruInner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                clock: 0,
                resident: 0,
                capacity: u64::MAX,
            }),
            stats: CacheStats::new(),
            telemetry: None,
        }
    }

    /// Same, but every count is also copied into the given process-wide
    /// registry entry (one of the [`telemetry`] statics).
    pub fn with_telemetry(entry: &'static CacheStats) -> Self {
        ByteLru {
            telemetry: Some(entry),
            ..ByteLru::new()
        }
    }

    fn lock(&self) -> MutexGuard<'_, LruInner<V>> {
        self.inner.lock().expect("lru poisoned")
    }

    /// Records one event in this cache's counters and its telemetry
    /// entry: the only place a cache counts anything.
    fn count(&self, event: impl Fn(&CacheStats)) {
        event(&self.stats);
        if let Some(entry) = self.telemetry {
            event(entry);
        }
    }

    /// Sets the resident-byte budget, evicting immediately if the store
    /// is already over it. `u64::MAX` (the default) means unbounded.
    pub fn set_capacity_bytes(&self, capacity: u64) {
        let mut inner = self.lock();
        inner.capacity = capacity;
        self.evict_to_fit(&mut inner);
    }

    /// Returns the value for `key`, building and inserting it on a miss.
    ///
    /// `build` returns the value and its estimated resident bytes. It
    /// runs outside the lock; a concurrent builder of the same key may
    /// win the insert, in which case the already-inserted value is
    /// returned and this build is dropped (both are identical by
    /// construction, and only the admitted one's bytes are counted).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error; nothing is inserted or counted.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<(V, u64), E>,
    ) -> Result<Arc<V>, E> {
        if let Some(hit) = self.lock().touch(key) {
            self.count(CacheStats::hit);
            return Ok(hit);
        }
        let (value, bytes) = build()?;
        let mut inner = self.lock();
        if let Some(winner) = inner.touch(key) {
            self.count(|s| s.miss(0));
            return Ok(winner);
        }
        let value = Arc::new(value);
        // The missed `touch` advanced the clock: this stamp is unused.
        let stamp = inner.clock;
        inner.map.insert(key, (Arc::clone(&value), stamp, bytes));
        inner.order.insert(stamp, key);
        inner.resident += bytes;
        self.count(|s| s.miss(bytes));
        self.evict_to_fit(&mut inner);
        Ok(value)
    }

    fn evict_to_fit(&self, inner: &mut LruInner<V>) {
        while inner.resident > inner.capacity {
            let Some((_, key)) = inner.order.pop_first() else {
                break;
            };
            let (_, _, bytes) = inner.map.remove(&key).expect("order and map agree");
            inner.resident -= bytes;
            self.count(|s| s.eviction(bytes));
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This instance's hits, misses, resident bytes and evictions so far
    /// — immune to unrelated caches sharing its telemetry entry. Only an
    /// admitted entry's bytes count, so `bytes` is the resident total.
    pub fn snapshot(&self) -> CacheSnapshot {
        self.stats.snapshot()
    }
}

/// One online merge/sort job (a costed rank swizzle): what the engine
/// records per merge group, and what a transform-cache hit replays into
/// the simulator's instruments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeRecord {
    /// Tensor being reordered.
    pub tensor: String,
    /// Elements flowing through the merger.
    pub elems: u64,
    /// Number of sorted lists merged together (fan-in).
    pub ways: u64,
}

/// One boundary publication of an occupancy-split leader, replayed into
/// the engine's boundary cache on a hit so follower tensors transformed
/// later still resolve their leader's splits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundaryRecord {
    /// The partitioned rank.
    pub rank: String,
    /// The leader tensor's name.
    pub leader: String,
    /// Per-path split boundaries, exactly as the leader computed them.
    pub bounds: BTreeMap<Vec<Coord>, Vec<Coord>>,
}

/// A fully transformed input view: the tensor after its whole chain ran,
/// plus the chain's replayable side effects in execution order.
#[derive(Clone, Debug)]
pub struct TransformedView {
    /// The transformed tensor: transform chains run on CSF arrays.
    pub tensor: CompressedTensor,
    /// Merge groups recorded while the chain ran.
    pub merges: Vec<MergeRecord>,
    /// Boundary lists published while the chain ran.
    pub boundaries: Vec<BoundaryRecord>,
}

impl TransformedView {
    /// Rough resident size: [`CompressedTensor::approx_bytes`] of the tensor.
    pub fn approx_bytes(&self) -> u64 {
        self.tensor.approx_bytes()
    }
}

/// The transformed-input cache: `(tensor content hash, transform chain)
/// → TransformedView`. A warm cache performs **zero** redundant transforms
/// ([`telemetry::transform_exec_count`] stays flat).
pub type TransformCache = ByteLru<TransformedView>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry;

    fn view(tag: f64) -> TransformedView {
        let t = CompressedTensor::from_entries("T", &["I"], &[8], vec![(vec![1], tag)]).unwrap();
        TransformedView {
            tensor: t,
            merges: vec![MergeRecord {
                tensor: "T".into(),
                elems: 4,
                ways: 2,
            }],
            boundaries: Vec::new(),
        }
    }

    /// Builds (on a miss) `value` sized `bytes` under `key`.
    fn put<V>(lru: &ByteLru<V>, key: u64, value: V, bytes: u64) -> Arc<V> {
        lru.get_or_try_insert_with::<()>(key, || Ok((value, bytes)))
            .unwrap()
    }

    fn counts(hits: u64, misses: u64, bytes: u64, evictions: u64) -> CacheSnapshot {
        CacheSnapshot {
            hits,
            misses,
            bytes,
            evictions,
        }
    }

    #[test]
    fn second_lookup_shares_the_first_build() {
        let cache = TransformCache::new();
        let a = put(&cache, 42, view(1.0), 16);
        let b = cache
            .get_or_try_insert_with::<()>(42, || panic!("warm key must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.snapshot(), counts(1, 1, 16, 0));
        assert_eq!(cache.len(), 1);
        assert_eq!(b.merges[0].ways, 2);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = TransformCache::new();
        let a = put(&cache, 1, view(1.0), 16);
        let b = put(&cache, 2, view(2.0), 16);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn counts_land_in_the_instance_and_its_telemetry_entry() {
        static ENTRY: CacheStats = CacheStats::new();
        let lru: ByteLru<u64> = ByteLru::with_telemetry(&ENTRY);
        lru.set_capacity_bytes(15);
        put(&lru, 1, 10, 10); // miss
        put(&lru, 1, 0, 0); // hit
        put(&lru, 2, 20, 10); // miss, evicts key 1
        let want = counts(1, 2, 10, 1);
        assert_eq!(lru.snapshot(), want);
        assert_eq!(ENTRY.snapshot(), want, "telemetry mirrors the instance");
    }

    #[test]
    fn builder_errors_propagate_and_insert_nothing() {
        static ENTRY: CacheStats = CacheStats::new();
        let cache: TransformCache = ByteLru::with_telemetry(&ENTRY);
        let err = cache.get_or_try_insert_with(7, || Err::<(TransformedView, u64), &str>("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        assert!(cache.is_empty());
        assert_eq!(cache.snapshot(), CacheSnapshot::default());
        assert_eq!(ENTRY.snapshot(), CacheSnapshot::default());
        // The key stays buildable afterwards.
        put(&cache, 7, view(3.0), 16);
        assert_eq!(cache.snapshot(), counts(0, 1, 16, 0));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let lru: ByteLru<u64> = ByteLru::new();
        lru.set_capacity_bytes(30);
        put(&lru, 1, 10, 10);
        put(&lru, 2, 20, 10);
        put(&lru, 3, 30, 10);
        // Touch key 1 so key 2 becomes the LRU victim.
        assert_eq!(*put(&lru, 1, 0, 0), 10);
        put(&lru, 4, 40, 10);
        assert_eq!(lru.snapshot().evictions, 1);
        for (key, value) in [(1, 10), (3, 30), (4, 40)] {
            assert_eq!(*put(&lru, key, 0, 0), value, "key {key} survives");
        }
        assert_eq!(*put(&lru, 2, 0, 0), 0, "LRU entry evicted, so rebuilt");
        assert_eq!(lru.snapshot().bytes, 30);
    }

    #[test]
    fn lru_admits_and_returns_oversized_entries() {
        let lru: ByteLru<&str> = ByteLru::new();
        lru.set_capacity_bytes(5);
        let v = put(&lru, 7, "big", 100);
        assert_eq!(*v, "big", "caller still gets the Arc back");
        assert!(lru.is_empty(), "oversized entry evicted immediately");
        assert_eq!(lru.snapshot().bytes, 0);
        assert_eq!(lru.snapshot(), counts(0, 1, 0, 1));
    }

    #[test]
    fn lru_shrinking_capacity_evicts_immediately() {
        let lru: ByteLru<u64> = ByteLru::new();
        put(&lru, 1, 1, 40);
        put(&lru, 2, 2, 40);
        assert_eq!(lru.snapshot().bytes, 80);
        lru.set_capacity_bytes(50);
        assert_eq!(lru.len(), 1);
        assert_eq!(*put(&lru, 2, 0, 0), 2, "most recent entry survives");
    }

    #[test]
    fn lru_racing_insert_keeps_first_value() {
        let lru: ByteLru<u64> = ByteLru::new();
        // A second builder of key 9 inserts while the first is building.
        let a = lru
            .get_or_try_insert_with::<()>(9, || {
                put(&lru, 9, 2, 8);
                Ok((1, 8))
            })
            .unwrap();
        assert_eq!(*a, 2, "first insert wins");
        assert!(Arc::ptr_eq(&a, &put(&lru, 9, 3, 8)));
        assert_eq!(lru.snapshot().bytes, 8, "loser's bytes not double-counted");
        assert_eq!(lru.snapshot(), counts(1, 2, 8, 0));
    }

    #[test]
    fn bounded_transform_cache_rebuilds_evicted_views_identically() {
        let cache = TransformCache::new();
        // Each view is 1 nnz × 1 rank ⇒ 16 bytes; cap fits one.
        cache.set_capacity_bytes(30);
        let build = |tag: f64| {
            let v = view(tag);
            let bytes = v.approx_bytes();
            Ok::<_, ()>((v, bytes))
        };
        let a = cache.get_or_try_insert_with(1, || build(1.0)).unwrap();
        let _ = cache.get_or_try_insert_with(2, || build(2.0)).unwrap();
        assert_eq!(cache.snapshot().evictions, 1);
        assert_eq!(cache.len(), 1);
        // Key 1 was evicted: rebuilding yields a bit-identical view.
        let rebuilt = cache.get_or_try_insert_with(1, || build(1.0)).unwrap();
        assert!(!Arc::ptr_eq(&a, &rebuilt));
        assert_eq!(a.tensor.content_hash(), rebuilt.tensor.content_hash());
        assert_eq!(a.merges, rebuilt.merges);
        assert_eq!(cache.snapshot().misses, 3, "eviction re-miss is counted");
    }

    #[test]
    fn executed_transform_counter_is_caller_driven() {
        // The cache itself never bumps the execution counter — only the
        // engine does, and only when a chain really runs.
        let before = telemetry::transform_exec_count();
        let cache = TransformCache::new();
        put(&cache, 9, view(1.0), 16);
        put(&cache, 9, view(1.0), 16);
        assert_eq!(telemetry::transform_exec_count(), before);
    }
}
