//! Content-addressed cache of transformed tensor views.
//!
//! The simulator's engine runs a per-tensor transform chain (offline
//! swizzle, then partition/flatten/swizzle steps) before every loop-nest
//! walk. Within a mapping search or a batch of evaluation requests the
//! same `(tensor, chain)` pair recurs constantly — every engine-verified
//! candidate re-transforms the same inputs. A [`TransformCache`] keys the
//! finished view by a caller-computed content hash
//! ([`CompressedTensor::content_hash`] combined with a canonical description of
//! the chain) and hands back shared [`Arc`] views, so a warm cache
//! performs **zero** redundant transforms
//! ([`telemetry::transform_exec_count`] stays flat).
//!
//! A transform chain is not a pure tensor→tensor function: online
//! swizzles record merge work and occupancy-split leaders publish
//! partition boundaries for their followers. A [`TransformedView`]
//! therefore carries those side effects as data ([`MergeRecord`],
//! [`BoundaryRecord`]); on a cache hit the engine *replays* them, keeping
//! instruments and boundary caches bit-identical to a cold run.
//!
//! Thread safety: the map sits behind a [`Mutex`]; two threads racing the
//! same cold key may both build (both count as misses) and the first
//! insert wins — correctness never depends on single-build, because every
//! build of the same key produces the same view.
//!
//! # Bounded residency
//!
//! Long-running processes (batch evaluation, the future `teaal serve`
//! daemon) cannot let content-addressed caches grow without bound. The
//! generic [`ByteLru`] store underneath [`TransformCache`] byte-accounts
//! every resident artifact and evicts least-recently-used entries once a
//! configured capacity is exceeded ([`TransformCache::set_capacity_bytes`]).
//! Eviction never changes results — keys are content hashes, so a
//! re-miss rebuilds the exact same artifact (pinned bit-identical by the
//! robustness suite) — it only trades recompute time for memory.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::compressed::CompressedTensor;
use crate::coord::Coord;
use crate::telemetry;
use crate::telemetry::CacheStats;

/// A thread-safe, byte-accounted LRU map from 64-bit content hashes to
/// shared [`Arc`] values.
///
/// Unbounded by default (`capacity = u64::MAX`); give it a budget with
/// [`ByteLru::set_capacity_bytes`] and it evicts least-recently-used
/// entries until resident bytes fit. Lookups refresh recency. Sizes are
/// caller-supplied estimates, so an entry larger than the whole
/// capacity is admitted and then evicted on the next insert — callers
/// always get their `Arc` back regardless.
///
/// Optionally wired to a process-wide [`CacheStats`] registry entry so
/// evictions show up in `--cache-stats`; hit/miss telemetry stays with
/// the caller, which knows build cost.
#[derive(Debug)]
pub struct ByteLru<V> {
    inner: Mutex<LruInner<V>>,
    evictions: AtomicU64,
    stats: Option<&'static CacheStats>,
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
            evictions: AtomicU64::new(0),
            stats: None,
        }
    }

    /// Same, but evictions are also recorded in the given process-wide
    /// registry entry (which must outlive the store — use the
    /// [`telemetry`] statics).
    pub fn with_stats(stats: &'static CacheStats) -> Self {
        ByteLru {
            stats: Some(stats),
            ..ByteLru::new()
        }
    }

    /// Sets the resident-byte budget, evicting immediately if the store
    /// is already over it. `u64::MAX` (the default) means unbounded.
    pub fn set_capacity_bytes(&self, capacity: u64) {
        let mut inner = self.inner.lock().expect("lru poisoned");
        inner.capacity = capacity;
        self.evict_to_fit(&mut inner);
    }

    /// The current resident-byte budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.inner.lock().expect("lru poisoned").capacity
    }

    /// Returns the value for `key`, refreshing its recency.
    pub fn get(&self, key: u64) -> Option<Arc<V>> {
        let mut inner = self.inner.lock().expect("lru poisoned");
        inner.clock += 1;
        let stamp = inner.clock;
        let (value, old_stamp) = {
            let (value, entry_stamp, _) = inner.map.get_mut(&key)?;
            let value = Arc::clone(value);
            let old = *entry_stamp;
            *entry_stamp = stamp;
            (value, old)
        };
        inner.order.remove(&old_stamp);
        inner.order.insert(stamp, key);
        Some(value)
    }

    /// Inserts `value` under `key` with the given byte estimate, then
    /// evicts LRU entries until resident bytes fit the capacity.
    ///
    /// If `key` is already present the existing value wins (first-insert
    /// semantics for racing builders) and is returned with refreshed
    /// recency; otherwise the inserted `value` is returned. The returned
    /// `Arc` stays valid even if the entry itself was immediately
    /// evicted for being larger than the whole budget.
    pub fn insert(&self, key: u64, value: Arc<V>, bytes: u64) -> Arc<V> {
        let mut inner = self.inner.lock().expect("lru poisoned");
        inner.clock += 1;
        let stamp = inner.clock;
        if inner.map.contains_key(&key) {
            let (existing, old_stamp) = {
                let (v, entry_stamp, _) = inner.map.get_mut(&key).expect("key just checked");
                let v = Arc::clone(v);
                let old = *entry_stamp;
                *entry_stamp = stamp;
                (v, old)
            };
            inner.order.remove(&old_stamp);
            inner.order.insert(stamp, key);
            return existing;
        }
        inner.map.insert(key, (Arc::clone(&value), stamp, bytes));
        inner.order.insert(stamp, key);
        inner.resident += bytes;
        self.evict_to_fit(&mut inner);
        value
    }

    fn evict_to_fit(&self, inner: &mut LruInner<V>) {
        while inner.resident > inner.capacity {
            let Some((&stamp, &key)) = inner.order.iter().next() else {
                break;
            };
            inner.order.remove(&stamp);
            let (_, _, bytes) = inner.map.remove(&key).expect("order and map agree");
            inner.resident = inner.resident.saturating_sub(bytes);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if let Some(stats) = self.stats {
                stats.eviction(bytes);
            }
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("lru poisoned").map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().expect("lru poisoned").resident
    }

    /// Entries evicted by this instance so far (monotonic).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
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

/// Content-addressed store of [`TransformedView`]s behind shared
/// [`Arc`]s.
///
/// Keys are caller-computed 64-bit content hashes (tensor content +
/// canonical chain description); the cache itself is key-agnostic.
/// Instance counters ([`TransformCache::hits`] /
/// [`TransformCache::misses`]) serve per-context assertions that are
/// immune to unrelated concurrent work, while every lookup also feeds
/// the process-wide [`telemetry::transform_cache_stats`] registry.
#[derive(Debug)]
pub struct TransformCache {
    inner: ByteLru<TransformedView>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for TransformCache {
    fn default() -> Self {
        TransformCache::new()
    }
}

impl TransformCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        TransformCache {
            inner: ByteLru::with_stats(telemetry::transform_cache_stats()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Bounds resident view bytes; least-recently-used views are
    /// evicted to fit. Eviction only trades recompute for memory — a
    /// later lookup of an evicted key rebuilds the identical view.
    pub fn set_capacity_bytes(&self, capacity: u64) {
        self.inner.set_capacity_bytes(capacity);
    }

    /// Views evicted under the capacity bound so far (monotonic).
    pub fn evictions(&self) -> u64 {
        self.inner.evictions()
    }

    /// Estimated bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }

    /// Returns the view for `key`, building and inserting it on a miss.
    ///
    /// The builder runs outside the lock (transforms are the expensive
    /// part); a concurrent builder of the same key may win the insert, in
    /// which case the already-inserted view is returned and this build's
    /// result dropped — both are bit-identical by construction.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error; nothing is inserted or counted as
    /// a miss-with-bytes beyond the attempt.
    pub fn get_or_build<E>(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<TransformedView, E>,
    ) -> Result<Arc<TransformedView>, E> {
        if let Some(hit) = self.inner.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            telemetry::transform_cache_stats().hit();
            return Ok(hit);
        }
        let view = Arc::new(build()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let bytes = view.approx_bytes();
        telemetry::transform_cache_stats().miss(bytes);
        Ok(self.inner.insert(key, view, bytes))
    }

    /// Number of distinct transformed views resident.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups this instance answered from cache (monotonic).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups this instance had to build (monotonic). A warm run's
    /// delta of zero is the "no redundant transforms" proof local to one
    /// evaluation context.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn second_lookup_shares_the_first_build() {
        let cache = TransformCache::new();
        let a = cache.get_or_build::<()>(42, || Ok(view(1.0))).unwrap();
        let b = cache
            .get_or_build::<()>(42, || panic!("warm key must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        assert_eq!(b.merges[0].ways, 2);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = TransformCache::new();
        let a = cache.get_or_build::<()>(1, || Ok(view(1.0))).unwrap();
        let b = cache.get_or_build::<()>(2, || Ok(view(2.0))).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn builder_errors_propagate_and_insert_nothing() {
        let cache = TransformCache::new();
        let err = cache.get_or_build(7, || Err::<TransformedView, &str>("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        assert!(cache.is_empty());
        // The key stays buildable afterwards.
        assert!(cache.get_or_build::<()>(7, || Ok(view(3.0))).is_ok());
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let lru: ByteLru<u64> = ByteLru::new();
        lru.set_capacity_bytes(30);
        lru.insert(1, Arc::new(10), 10);
        lru.insert(2, Arc::new(20), 10);
        lru.insert(3, Arc::new(30), 10);
        // Touch key 1 so key 2 becomes the LRU victim.
        assert_eq!(*lru.get(1).unwrap(), 10);
        lru.insert(4, Arc::new(40), 10);
        assert_eq!(lru.get(2), None, "LRU entry evicted");
        assert!(lru.get(1).is_some() && lru.get(3).is_some() && lru.get(4).is_some());
        assert_eq!((lru.evictions(), lru.resident_bytes()), (1, 30));
    }

    #[test]
    fn lru_admits_and_returns_oversized_entries() {
        let lru: ByteLru<&str> = ByteLru::new();
        lru.set_capacity_bytes(5);
        let v = lru.insert(7, Arc::new("big"), 100);
        assert_eq!(*v, "big", "caller still gets the Arc back");
        assert!(lru.is_empty(), "oversized entry evicted immediately");
        assert_eq!(lru.resident_bytes(), 0);
    }

    #[test]
    fn lru_shrinking_capacity_evicts_immediately() {
        let lru: ByteLru<u64> = ByteLru::new();
        lru.insert(1, Arc::new(1), 40);
        lru.insert(2, Arc::new(2), 40);
        assert_eq!(lru.resident_bytes(), 80);
        lru.set_capacity_bytes(50);
        assert_eq!(lru.len(), 1);
        assert!(lru.get(2).is_some(), "most recent entry survives");
    }

    #[test]
    fn lru_racing_insert_keeps_first_value() {
        let lru: ByteLru<u64> = ByteLru::new();
        let a = lru.insert(9, Arc::new(1), 8);
        let b = lru.insert(9, Arc::new(2), 8);
        assert!(Arc::ptr_eq(&a, &b), "first insert wins");
        assert_eq!(lru.resident_bytes(), 8, "loser's bytes not double-counted");
    }

    #[test]
    fn bounded_transform_cache_rebuilds_evicted_views_identically() {
        let cache = TransformCache::new();
        // Each view is 1 nnz × 1 rank ⇒ 16 bytes; cap fits one.
        cache.set_capacity_bytes(30);
        let a = cache.get_or_build::<()>(1, || Ok(view(1.0))).unwrap();
        let _ = cache.get_or_build::<()>(2, || Ok(view(2.0))).unwrap();
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 1);
        // Key 1 was evicted: rebuilding yields a bit-identical view.
        let rebuilt = cache.get_or_build::<()>(1, || Ok(view(1.0))).unwrap();
        assert!(!Arc::ptr_eq(&a, &rebuilt));
        assert_eq!(a.tensor.content_hash(), rebuilt.tensor.content_hash());
        assert_eq!(a.merges, rebuilt.merges);
        assert_eq!(cache.misses(), 3, "eviction re-miss is counted");
    }

    #[test]
    fn executed_transform_counter_is_caller_driven() {
        // The cache itself never bumps the execution counter — only the
        // engine does, and only when a chain really runs.
        let before = telemetry::transform_exec_count();
        let cache = TransformCache::new();
        let _ = cache.get_or_build::<()>(9, || Ok(view(1.0)));
        let _ = cache.get_or_build::<()>(9, || Ok(view(1.0)));
        assert_eq!(telemetry::transform_exec_count(), before);
    }
}
