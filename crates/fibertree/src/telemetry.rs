//! Process-wide storage and cache telemetry.
//!
//! Besides the decompression counter described below, this module hosts
//! the counters of the staged evaluation pipeline: one [`CacheStats`]
//! registry entry per cache stage (parsed specs, compiled plans,
//! transformed inputs, simulation reports) and a
//! [`transform_exec_count`] that counts transform chains *actually
//! executed* — the number a warm cache must keep flat. Everything
//! follows the same `Relaxed`/monotonic/snapshot-delta protocol.
//!
//! A counter tracks every decompression
//! ([`CompressedTensor::to_tensor`](crate::CompressedTensor::to_tensor)),
//! which is the one operation a compressed-native pipeline must never
//! perform. The simulator's integration tests snapshot it around a run to
//! prove the hot path stayed in the compressed representation — a
//! decompression sneaking onto it shows up as a nonzero delta instead of
//! as a quiet performance cliff.
//!
//! # Thread safety under shard parallelism
//!
//! The counter is a process-wide atomic bumped with `Relaxed` ordering:
//! increments from concurrent shard workers never tear and never get
//! lost, only their interleaving is unspecified. The sharded engine
//! joins every scoped worker before the simulator returns, and a join
//! is a synchronization point, so a snapshot taken *after* a run
//! observes every decompression performed *during* it. The supported
//! protocol is therefore: snapshot → run → snapshot, compare the delta.
//! Resetting is deliberately not offered — a reset would race
//! concurrently running tests, while monotonic deltas cannot.

use std::sync::atomic::{AtomicU64, Ordering};

static DECOMPRESSIONS: AtomicU64 = AtomicU64::new(0);

/// Number of `CompressedTensor::to_tensor` decompressions performed by
/// this process so far. Monotonic; compare snapshots rather than
/// resetting, so concurrent tests cannot race a reset. Safe to read
/// from any thread; see the module docs for the ordering guarantee.
pub fn decompress_count() -> u64 {
    DECOMPRESSIONS.load(Ordering::Relaxed)
}

pub(crate) fn note_decompress() {
    DECOMPRESSIONS.fetch_add(1, Ordering::Relaxed);
}

static TRANSFORM_EXECUTIONS: AtomicU64 = AtomicU64::new(0);

/// Number of input transform chains (swizzle/partition/flatten
/// pipelines) actually *executed* by this process, cache hits excluded.
/// A warm [`TransformCache`](crate::cache::TransformCache) run leaves
/// this counter untouched — the pinned proof that cached evaluation
/// performs zero redundant input transforms. Same monotonic
/// snapshot-delta protocol as [`decompress_count`].
pub fn transform_exec_count() -> u64 {
    TRANSFORM_EXECUTIONS.load(Ordering::Relaxed)
}

/// Records one executed transform chain. Called by the simulator engine
/// whenever a chain really runs (cold cache or no cache attached); not
/// intended for other callers.
pub fn note_transform_exec() {
    TRANSFORM_EXECUTIONS.fetch_add(1, Ordering::Relaxed);
}

/// Hit/miss/byte counters for one pipeline cache stage.
///
/// All fields are process-wide atomics with the same `Relaxed`,
/// monotonic, snapshot-delta protocol as [`decompress_count`]: take a
/// [`CacheStats::snapshot`] before and after the region of interest and
/// compare deltas; never expect absolute values in a process that runs
/// concurrent work.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    bytes: AtomicU64,
    evictions: AtomicU64,
}

/// A point-in-time copy of one [`CacheStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build the artifact.
    pub misses: u64,
    /// Approximate bytes resident across all inserted artifacts
    /// (estimates, not allocator-exact). Evictions subtract, so for a
    /// bounded cache this tracks *resident* bytes, not cumulative.
    pub bytes: u64,
    /// Artifacts evicted to stay under a capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Creates zeroed counters (`const`, so stages can live in statics).
    pub const fn new() -> Self {
        CacheStats {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Records a cache hit.
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cache miss that inserted an artifact of roughly
    /// `bytes` bytes.
    pub fn miss(&self, bytes: u64) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records the eviction of an artifact of roughly `bytes` bytes
    /// (saturating — estimates may drift but never underflow).
    pub fn eviction(&self, bytes: u64) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                Some(b.saturating_sub(bytes))
            });
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that built the artifact so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Approximate bytes resident (inserted minus evicted) so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Artifacts evicted under a capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for delta comparison (fields are read
    /// individually; use deltas, not cross-field invariants).
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits(),
            misses: self.misses(),
            bytes: self.bytes(),
            evictions: self.evictions(),
        }
    }
}

static DEGRADED_SEQUENTIAL: AtomicU64 = AtomicU64::new(0);

/// Number of evaluations that fell back from the sharded parallel
/// engine to the sequential walk because a shard worker panicked
/// (panic isolation with graceful degradation). Monotonic; same
/// snapshot-delta protocol as [`decompress_count`].
pub fn degraded_sequential_count() -> u64 {
    DEGRADED_SEQUENTIAL.load(Ordering::Relaxed)
}

/// Records one sharded→sequential degradation. Called by the simulator
/// engine's retry path; not intended for other callers.
pub fn note_degraded_sequential() {
    DEGRADED_SEQUENTIAL.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide counters for the `SpecSource → ParsedSpec` cache stage.
static SPEC_CACHE: CacheStats = CacheStats::new();
/// Process-wide counters for the `ParsedSpec → LoweredPlan` cache stage.
static PLAN_CACHE: CacheStats = CacheStats::new();
/// Process-wide counters for the `PreparedInputs` (transformed-view)
/// cache stage.
static TRANSFORM_CACHE: CacheStats = CacheStats::new();
/// Process-wide counters for the `SimReport` cache stage.
static REPORT_CACHE: CacheStats = CacheStats::new();

/// Counters for the parsed-spec cache (keyed by source hash).
pub fn spec_cache_stats() -> &'static CacheStats {
    &SPEC_CACHE
}

/// Counters for the compiled-plan cache (keyed by spec hash).
pub fn plan_cache_stats() -> &'static CacheStats {
    &PLAN_CACHE
}

/// Counters for the transformed-input cache (keyed by tensor content
/// hash + transform chain).
pub fn transform_cache_stats() -> &'static CacheStats {
    &TRANSFORM_CACHE
}

/// Counters for the simulation-report cache (keyed by plan + operator
/// table + inputs).
pub fn report_cache_stats() -> &'static CacheStats {
    &REPORT_CACHE
}

/// A point-in-time copy of every process-wide pipeline counter: the
/// four stage caches plus the executed-transform, degradation, and
/// decompression counters.
///
/// One [`pipeline_snapshot`] call gives consumers that report telemetry
/// wholesale — the CLI's `--cache-stats` and the `teaal serve` `health`
/// endpoint — a consistent-enough view without naming every registry
/// entry. Same caveat as [`CacheStats::snapshot`]: fields are read
/// individually, so compare deltas, not cross-field invariants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineSnapshot {
    /// The parsed-spec cache stage ([`spec_cache_stats`]).
    pub spec: CacheSnapshot,
    /// The compiled-plan cache stage ([`plan_cache_stats`]).
    pub plan: CacheSnapshot,
    /// The transformed-input cache stage ([`transform_cache_stats`]).
    pub transform: CacheSnapshot,
    /// The simulation-report cache stage ([`report_cache_stats`]).
    pub report: CacheSnapshot,
    /// Transform chains actually executed ([`transform_exec_count`]).
    pub transform_execs: u64,
    /// Sharded→sequential degradations ([`degraded_sequential_count`]).
    pub degraded_sequential: u64,
    /// Decompressions performed ([`decompress_count`]).
    pub decompressions: u64,
}

impl PipelineSnapshot {
    /// The stage snapshots paired with their display names, in pipeline
    /// order — the shape both `--cache-stats` and `health` print.
    pub fn stages(&self) -> [(&'static str, CacheSnapshot); 4] {
        [
            ("spec", self.spec),
            ("plan", self.plan),
            ("transform", self.transform),
            ("report", self.report),
        ]
    }
}

/// Captures every pipeline counter at once (see [`PipelineSnapshot`]).
pub fn pipeline_snapshot() -> PipelineSnapshot {
    PipelineSnapshot {
        spec: SPEC_CACHE.snapshot(),
        plan: PLAN_CACHE.snapshot(),
        transform: TRANSFORM_CACHE.snapshot(),
        report: REPORT_CACHE.snapshot(),
        transform_execs: transform_exec_count(),
        degraded_sequential: degraded_sequential_count(),
        decompressions: decompress_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::CompressedTensor;

    #[test]
    fn to_tensor_increments_the_counter() {
        let c = CompressedTensor::from_entries("T", &["I"], &[4], vec![(vec![1], 1.0)]).unwrap();
        let before = decompress_count();
        let _ = c.to_tensor();
        let _ = c.to_tensor();
        assert!(decompress_count() >= before + 2);
    }

    #[test]
    fn counter_does_not_lose_increments_under_contention() {
        // The sharded engine's workers may all decompress concurrently;
        // after joining them, every increment must be visible — no lost
        // updates, no tearing.
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50;
        let c = CompressedTensor::from_entries("T", &["I"], &[4], vec![(vec![1], 1.0)]).unwrap();
        let before = decompress_count();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        let _ = c.to_tensor();
                    }
                });
            }
        });
        let delta = decompress_count() - before;
        assert!(
            delta >= THREADS as u64 * PER_THREAD,
            "joined workers must account for all {} decompressions, saw {delta}",
            THREADS as u64 * PER_THREAD
        );
    }

    #[test]
    fn cache_stats_count_hits_misses_and_bytes() {
        let stats = CacheStats::new();
        stats.miss(128);
        stats.hit();
        stats.hit();
        let snap = stats.snapshot();
        assert_eq!(
            snap,
            CacheSnapshot {
                hits: 2,
                misses: 1,
                bytes: 128,
                evictions: 0
            }
        );
    }

    #[test]
    fn evictions_release_resident_bytes_without_underflow() {
        let stats = CacheStats::new();
        stats.miss(100);
        stats.eviction(60);
        assert_eq!((stats.bytes(), stats.evictions()), (40, 1));
        // Estimate drift must saturate, never wrap.
        stats.eviction(500);
        assert_eq!((stats.bytes(), stats.evictions()), (0, 2));
    }

    #[test]
    fn pipeline_snapshot_mirrors_the_stage_registries() {
        let before = pipeline_snapshot();
        spec_cache_stats().miss(11);
        plan_cache_stats().hit();
        note_transform_exec();
        let after = pipeline_snapshot();
        assert!(after.spec.misses > before.spec.misses);
        assert!(after.spec.bytes >= before.spec.bytes + 11);
        assert!(after.plan.hits > before.plan.hits);
        assert!(after.transform_execs > before.transform_execs);
        // `stages()` pairs names with the same values, in order.
        let names: Vec<&str> = after.stages().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["spec", "plan", "transform", "report"]);
        assert_eq!(after.stages()[0].1, after.spec);
    }

    #[test]
    fn stage_registry_counters_are_independent() {
        let before = report_cache_stats().snapshot();
        transform_cache_stats().hit();
        spec_cache_stats().miss(7);
        plan_cache_stats().miss(9);
        // Other stages' traffic never leaks into the report stage.
        assert_eq!(report_cache_stats().snapshot(), before);
        assert!(spec_cache_stats().bytes() >= 7);
        assert!(plan_cache_stats().misses() >= 1);
        assert!(transform_cache_stats().hits() >= 1);
    }
}
