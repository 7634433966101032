//! The staged evaluation pipeline's shared context.
//!
//! Evaluation proceeds through explicit stages, each with a
//! content-addressed cache boundary:
//!
//! ```text
//! SpecSource ──parse──▶ ParsedSpec ──compile──▶ LoweredPlan
//!     │ source_hash         │ spec_hash            │
//!     ▼                     ▼                      ▼
//! PreparedInputs ──execute──▶ SimReport
//!     (tensor hash, transform chain)   (plan, ops, inputs)
//! ```
//!
//! An [`EvalContext`] owns one cache per stage, plus the analytical
//! estimator's per-tensor statistics, and is shared behind an [`Arc`] by
//! every consumer — the CLI's `batch` subcommand, `teaal serve`, the
//! mapper ([`explore_fast_with_context`](crate::explore::explore_fast_with_context)),
//! and the graph driver. Every cache is a [`ByteLru`] keyed by a stable
//! FNV-1a content hash ([`teaal_core::canon`] for specs and plans,
//! [`CompressedTensor::content_hash`](teaal_fibertree::CompressedTensor::content_hash),
//! memoized per tensor, for inputs), so artifacts are shared across
//! requests, candidates, and threads without any identity bookkeeping.
//! Each cache counts its own hits, misses, bytes and evictions
//! ([`ByteLru::snapshot`]); the four pipeline stages also feed the
//! process-wide [`telemetry`] registry (`--cache-stats`).
//!
//! Caching never changes results: a warm-cache evaluation is bit-identical
//! to a cold one (instruments, time/energy, outputs), pinned by the
//! `pipeline_cache` integration suite.

use std::sync::Arc;

use teaal_core::canon;
use teaal_core::TeaalSpec;
use teaal_fibertree::stats::StatsCache;
use teaal_fibertree::telemetry;
use teaal_fibertree::{ByteLru, TransformCache};

use crate::compile::CompiledPlan;
use crate::error::SimError;
use crate::model::Simulator;
use crate::report::SimReport;

/// How a whole-context byte budget splits across the stages: transformed
/// inputs dominate residency, so they get half and whole reports a
/// quarter; parsed specs and estimator statistics take small slices, and
/// compiled plans get the rest.
const TRANSFORM_SHARE_PCT: u64 = 50;
const REPORT_SHARE_PCT: u64 = 25;
const SPEC_SHARE_PCT: u64 = 5;
const STATS_SHARE_PCT: u64 = 5;

/// Shared caches for every stage of the evaluation pipeline.
///
/// Create one per dataset/session with [`EvalContext::new`] and attach
/// it to simulators via [`Simulator::with_context`] (or let
/// [`EvalContext::simulator`] do both). Thread-safe; share the `Arc`
/// freely.
///
/// Residency is unbounded by default; long-running consumers bound it
/// with [`EvalContext::with_capacity`] or
/// [`EvalContext::set_max_cache_bytes`] (the CLI's `--max-cache-mb`).
/// Bounding evicts least-recently-used artifacts — since every key is a
/// content hash, an evicted artifact is rebuilt bit-identically on its
/// next miss, so eviction never changes results.
pub struct EvalContext {
    /// `source_hash → ParsedSpec`.
    specs: ByteLru<TeaalSpec>,
    /// `spec_hash → LoweredPlan`.
    plans: ByteLru<CompiledPlan>,
    /// `(plan, ops, extents, energy, inputs) → SimReport`.
    pub(crate) reports: ByteLru<SimReport>,
    /// `(tensor hash, transform chain) → PreparedInputs`.
    transforms: Arc<TransformCache>,
    /// `tensor hash → TensorStats` for the analytical estimator.
    stats: Arc<StatsCache>,
}

impl Default for EvalContext {
    fn default() -> Self {
        EvalContext {
            specs: ByteLru::with_telemetry(telemetry::spec_cache_stats()),
            plans: ByteLru::with_telemetry(telemetry::plan_cache_stats()),
            reports: ByteLru::with_telemetry(telemetry::report_cache_stats()),
            transforms: Arc::new(ByteLru::with_telemetry(telemetry::transform_cache_stats())),
            stats: Arc::default(),
        }
    }
}

impl std::fmt::Debug for EvalContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalContext")
            .field("specs", &self.specs.len())
            .field("plans", &self.plans.len())
            .field("reports", &self.reports.len())
            .field("transforms", &self.transforms.len())
            .field("stats", &self.stats.len())
            .finish()
    }
}

impl EvalContext {
    /// Creates an empty context behind the `Arc` every consumer shares.
    pub fn new() -> Arc<Self> {
        Arc::new(EvalContext::default())
    }

    /// An empty context whose caches are bounded to roughly
    /// `max_bytes` resident bytes total (see
    /// [`EvalContext::set_max_cache_bytes`] for the split).
    pub fn with_capacity(max_bytes: u64) -> Arc<Self> {
        let ctx = EvalContext::new();
        ctx.set_max_cache_bytes(max_bytes);
        ctx
    }

    /// Bounds the context's resident cache bytes: half the budget goes
    /// to transformed inputs, a quarter to whole reports, 5% each to
    /// parsed specs and estimator statistics, and the rest to compiled
    /// plans. Shrinking below current residency evicts immediately (LRU
    /// first); eviction counts surface per stage in `--cache-stats`.
    pub fn set_max_cache_bytes(&self, max_bytes: u64) {
        let share = |pct: u64| max_bytes / 100 * pct;
        let plan_share = max_bytes.saturating_sub(share(
            TRANSFORM_SHARE_PCT + REPORT_SHARE_PCT + SPEC_SHARE_PCT + STATS_SHARE_PCT,
        ));
        self.transforms
            .set_capacity_bytes(share(TRANSFORM_SHARE_PCT));
        self.reports.set_capacity_bytes(share(REPORT_SHARE_PCT));
        self.specs.set_capacity_bytes(share(SPEC_SHARE_PCT));
        self.stats.set_capacity_bytes(share(STATS_SHARE_PCT));
        self.plans.set_capacity_bytes(plan_share);
    }

    /// Artifacts evicted across all stages so far (monotonic).
    pub fn evictions(&self) -> u64 {
        self.transforms.snapshot().evictions
            + self.reports.snapshot().evictions
            + self.plans.snapshot().evictions
            + self.specs.snapshot().evictions
            + self.stats.snapshot().evictions
    }

    /// Parses specification source, cached by
    /// [`canon::source_hash`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] when parsing fails (never cached).
    pub fn parse(&self, source: &str) -> Result<Arc<TeaalSpec>, SimError> {
        self.specs
            .get_or_try_insert_with(canon::source_hash(source), || {
                Ok((TeaalSpec::parse(source)?, source.len() as u64))
            })
    }

    /// Compiles a specification, cached by [`canon::spec_hash`] — two
    /// sources that parse to the same specification share one compiled
    /// plan.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] when lowering fails (never cached).
    pub fn compiled(&self, spec: &TeaalSpec) -> Result<Arc<CompiledPlan>, SimError> {
        self.plans
            .get_or_try_insert_with(canon::spec_hash(spec), || {
                let plan = CompiledPlan::compile(spec.clone())?;
                let bytes = plan.approx_bytes();
                Ok((plan, bytes))
            })
    }

    /// A simulator over the (cached) compiled plan for `spec`, with this
    /// context attached so execution shares the transform and report
    /// caches.
    ///
    /// # Errors
    ///
    /// As [`EvalContext::compiled`].
    pub fn simulator(self: &Arc<Self>, spec: &TeaalSpec) -> Result<Simulator, SimError> {
        Ok(Simulator::from_compiled(self.compiled(spec)?).with_context(Arc::clone(self)))
    }

    /// The parsed-spec cache.
    pub fn specs(&self) -> &ByteLru<TeaalSpec> {
        &self.specs
    }

    /// The shared transformed-input cache.
    pub fn transforms(&self) -> &Arc<TransformCache> {
        &self.transforms
    }

    /// The shared per-tensor statistics cache (analytical estimator).
    pub fn stats(&self) -> &Arc<StatsCache> {
        &self.stats
    }

    /// Number of distinct compiled plans cached.
    pub fn compiled_len(&self) -> usize {
        self.plans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPMSPM: &str = concat!(
        "einsum:\n",
        "  declaration:\n",
        "    A: [K, M]\n",
        "    B: [K, N]\n",
        "    Z: [M, N]\n",
        "  expressions:\n",
        "    - Z[m, n] = A[k, m] * B[k, n]\n",
    );

    #[test]
    fn parse_is_cached_by_source_hash() {
        let ctx = EvalContext::new();
        let a = ctx.parse(SPMSPM).unwrap();
        let b = ctx.parse(SPMSPM).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn compile_is_cached_by_spec_hash_across_formatting() {
        let ctx = EvalContext::new();
        let a = ctx.parse(SPMSPM).unwrap();
        // A comment changes the source hash but not the parsed spec, so
        // the compiled plan is shared.
        let commented = format!("# cosmetic\n{SPMSPM}");
        let b = ctx.parse(&commented).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        let pa = ctx.compiled(&a).unwrap();
        let pb = ctx.compiled(&b).unwrap();
        assert!(Arc::ptr_eq(&pa, &pb));
        assert_eq!(ctx.compiled_len(), 1);
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let ctx = EvalContext::new();
        assert!(ctx.parse("einsum: [not, a, spec]").is_err());
        // A second attempt re-parses (and fails again) rather than
        // returning a poisoned artifact.
        assert!(ctx.parse("einsum: [not, a, spec]").is_err());
    }
}
