//! Staged-pipeline cache validation: caching must never change results.
//!
//! The [`EvalContext`] puts a content-addressed cache boundary at every
//! pipeline stage (parse, compile, input transform, whole report). These
//! tests pin the contract that makes those caches safe to share across
//! requests, mapper candidates, and threads:
//!
//! - a warm-cache evaluation is **bit-identical** to a cold-cache one
//!   (instruments, time/energy, outputs) on every SpMSpM catalog spec,
//!   sequentially and with `--threads 4`;
//! - a warm-cache `explore_fast_with_context` on Gamma performs **zero** redundant
//!   input transforms (per-instance transform-cache counters);
//! - compiled plans and reports are shared as `Arc`s, not recomputed.

use std::collections::BTreeMap;

use proptest::prelude::*;
use teaal_core::TeaalSpec;
use teaal_fibertree::{Tensor, TensorData};
use teaal_sim::{
    estimate_data, explore_fast_with_context, EvalContext, ExploreConfig, OpTable, SimReport,
    Simulator,
};
use teaal_workloads::genmat;

/// Same input group as the mapper-search suite: sized so every catalog
/// spec's partitioning lowers.
fn inputs(seed: u64) -> Vec<Tensor> {
    let a = genmat::uniform("A", &["K", "M"], 48, 48, 320, seed);
    let b = genmat::uniform("B", &["K", "N"], 48, 40, 280, seed + 1);
    vec![a, b]
}

/// A bit-exact fingerprint of everything a report carries: rendered
/// instruments/traffic, the raw f64 bits of time and energy, and a
/// content hash per output tensor (representation-independent, value
/// bits included).
fn report_bits(report: &SimReport) -> (String, u64, u64, BTreeMap<String, u64>) {
    (
        format!("{report}"),
        report.seconds.to_bits(),
        report.energy_joules.to_bits(),
        report
            .outputs
            .iter()
            .map(|(name, t)| match t {
                TensorData::Compressed(c) => (name.clone(), c.content_hash()),
                TensorData::Owned(_) => panic!("output {name} is not CSF"),
            })
            .collect(),
    )
}

#[test]
fn warm_cache_is_bit_identical_to_cold_on_all_catalog_specs() {
    let ins = inputs(11);
    for (label, yaml) in teaal_fixtures::spmspm_specs() {
        for threads in [1usize, 4] {
            let spec = TeaalSpec::parse(yaml).unwrap();
            let baseline = Simulator::new(spec.clone())
                .unwrap()
                .with_threads(threads)
                .run(&ins)
                .unwrap_or_else(|e| panic!("{label}: uncached run failed: {e}"));

            let ctx = EvalContext::new();
            let sim = ctx.simulator(&spec).unwrap().with_threads(threads);
            let cold = sim.run(&ins).unwrap();
            assert!(
                ctx.transforms().snapshot().misses > 0,
                "{label}: cold run must populate the transform cache"
            );
            let warm = sim.run(&ins).unwrap();
            assert!(
                ctx.transforms().snapshot().hits > 0,
                "{label}: warm run must hit the transform cache"
            );

            let want = report_bits(&baseline);
            assert_eq!(
                report_bits(&cold),
                want,
                "{label} (threads={threads}): cold cached run differs from uncached"
            );
            assert_eq!(
                report_bits(&warm),
                want,
                "{label} (threads={threads}): warm cached run differs from uncached"
            );
        }
    }
}

#[test]
fn report_cache_returns_the_same_arc_for_identical_requests() {
    let ins = inputs(12);
    let data: Vec<TensorData> = ins.iter().map(|t| TensorData::Owned(t.clone())).collect();
    let refs: Vec<&TensorData> = data.iter().collect();
    for (label, yaml) in teaal_fixtures::spmspm_specs() {
        let ctx = EvalContext::new();
        let spec = TeaalSpec::parse(yaml).unwrap();
        let sim = ctx.simulator(&spec).unwrap();
        let first = sim.run_data_cached(&refs).unwrap();
        let second = sim.run_data_cached(&refs).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&first, &second),
            "{label}: identical requests must share one cached report"
        );
        // A different op table is a different request.
        let other = ctx
            .simulator(&spec)
            .unwrap()
            .with_ops(OpTable::sssp())
            .run_data_cached(&refs)
            .unwrap();
        assert!(
            !std::sync::Arc::ptr_eq(&first, &other),
            "{label}: changing the op table must miss the report cache"
        );
    }
}

/// Under a byte budget, the spec and statistics caches stay within their
/// shares (5% of the budget each) however many distinct spec texts and
/// tensors arrive, and `evictions()` counts what they drop.
#[test]
fn spec_and_stats_caches_stay_within_their_budget_shares() {
    const BUDGET: u64 = 40_000;
    const SHARE: u64 = BUDGET / 100 * 5;
    let ctx = EvalContext::with_capacity(BUDGET);
    let source = concat!(
        "einsum:\n",
        "  declaration:\n",
        "    A: [K, M]\n",
        "    B: [K, N]\n",
        "    Z: [M, N]\n",
        "  expressions:\n",
        "    - Z[m, n] = A[k, m] * B[k, n]\n",
    );
    for i in 0..100 {
        // A comment changes the source hash, so every text is a miss.
        let spec = ctx.parse(&format!("# request {i}\n{source}")).unwrap();
        assert_eq!(*spec, TeaalSpec::parse(source).unwrap());
        assert!(ctx.specs().snapshot().bytes <= SHARE);
    }
    let specs = ctx.specs().snapshot();
    assert_eq!(specs.misses, 100);
    assert!(specs.evictions > 0 && specs.bytes > 0);
    for seed in 0..100 {
        let t = genmat::uniform("A", &["K", "M"], 16, 16, 20, seed);
        ctx.stats().get_or_compute(&TensorData::Owned(t)).unwrap();
        assert!(ctx.stats().snapshot().bytes <= SHARE);
    }
    let stats = ctx.stats().snapshot();
    assert!(stats.evictions > 0 && stats.bytes > 0);
    assert_eq!(ctx.evictions(), specs.evictions + stats.evictions);
}

#[test]
fn compiled_plans_are_shared_across_simulators() {
    let ctx = EvalContext::new();
    let spec = TeaalSpec::parse(teaal_fixtures::GAMMA_EM).unwrap();
    let a = ctx.simulator(&spec).unwrap();
    let b = ctx.simulator(&spec).unwrap();
    assert!(std::sync::Arc::ptr_eq(a.compiled(), b.compiled()));
    assert_eq!(ctx.compiled_len(), 1);
}

#[test]
fn warm_explore_fast_on_gamma_performs_zero_redundant_transforms() {
    let ins = inputs(7);
    let spec = TeaalSpec::parse(teaal_fixtures::GAMMA_EM).unwrap();
    let cfg = ExploreConfig::default();

    // Reference outcome without any caching.
    let plain =
        explore_fast_with_context(&spec, "Z", &ins, OpTable::arithmetic(), &cfg, None).unwrap();

    let ctx = EvalContext::new();
    let cold = explore_fast_with_context(&spec, "Z", &ins, OpTable::arithmetic(), &cfg, Some(&ctx))
        .unwrap();
    let cold_misses = ctx.transforms().snapshot().misses;
    assert!(cold_misses > 0, "cold explore must populate the cache");

    let warm = explore_fast_with_context(&spec, "Z", &ins, OpTable::arithmetic(), &cfg, Some(&ctx))
        .unwrap();
    assert_eq!(
        ctx.transforms().snapshot().misses,
        cold_misses,
        "warm explore must perform zero redundant input transforms"
    );
    assert!(
        ctx.transforms().snapshot().hits > 0,
        "warm explore must be served from the transform cache"
    );

    // Caching must not change the search outcome, bit for bit.
    for (name, outcome) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(
            outcome.candidates.len(),
            plain.candidates.len(),
            "{name}: candidate count changed under caching"
        );
        for (c, p) in outcome.candidates.iter().zip(&plain.candidates) {
            assert_eq!(c.loop_order, p.loop_order, "{name}: ranking changed");
            assert_eq!(c.seconds.to_bits(), p.seconds.to_bits(), "{name}: time");
            assert_eq!(
                c.energy_joules.to_bits(),
                p.energy_joules.to_bits(),
                "{name}: energy"
            );
            assert_eq!(c.dram_bytes, p.dram_bytes, "{name}: traffic");
        }
    }
}

/// `A[K, M]` (48 × 48) and `B[K, N]` (48 × 40), 120 nonzeros each,
/// spread over every `K` row or clustered in the first six.
fn same_shaped_dataset(clustered: bool) -> Vec<TensorData> {
    let tensor = |name: &str, rank: &str, cols: u64| {
        let rows = if clustered { 6 } else { 48 };
        let mut points = std::collections::BTreeSet::new();
        let mut x = 1u64;
        while points.len() < 120 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            points.insert(((x >> 33) % rows, (x >> 13) % cols));
        }
        let entries = points.into_iter().map(|(k, c)| (vec![k, c], 1.0)).collect();
        TensorData::Owned(Tensor::from_entries(name, &["K", rank], &[48, cols], entries).unwrap())
    };
    vec![tensor("A", "M", 48), tensor("B", "N", 40)]
}

/// Two datasets that agree on tensor names, ranks, shapes and nonzero
/// counts but not on their patterns: a shared context must give each its
/// own statistics and estimates, exactly as a fresh context does.
#[test]
fn shared_context_keeps_same_shaped_datasets_apart() {
    let spec = TeaalSpec::parse(teaal_fixtures::GAMMA_EM).unwrap();
    let shared = EvalContext::new();
    let mut estimates = Vec::new();
    for clustered in [false, true] {
        let data = same_shaped_dataset(clustered);
        let refs: Vec<&TensorData> = data.iter().collect();
        let fresh = EvalContext::new();
        for t in &refs {
            let want = fresh.stats().get_or_compute(t);
            assert_eq!(shared.stats().get_or_compute(t), want, "{}", t.name());
        }
        let got = estimate_data(&shared.simulator(&spec).unwrap(), &refs, shared.stats()).unwrap();
        let want = estimate_data(&fresh.simulator(&spec).unwrap(), &refs, fresh.stats()).unwrap();
        assert_eq!(got.seconds.to_bits(), want.seconds.to_bits());
        assert_eq!(got.dram_bytes(), want.dram_bytes());
        estimates.push(want.seconds);
    }
    assert_ne!(
        estimates[0], estimates[1],
        "the patterns must estimate apart"
    );
}

/// Simple un-partitioned SpMSpM for the property test (rank extents free,
/// so arbitrary small matrices lower).
const SPMSPM: &str = concat!(
    "einsum:\n",
    "  declaration:\n",
    "    A: [K, M]\n",
    "    B: [K, N]\n",
    "    Z: [M, N]\n",
    "  expressions:\n",
    "    - Z[m, n] = A[k, m] * B[k, n]\n",
    "mapping:\n",
    "  loop-order:\n",
    "    Z: [M, N, K]\n",
);

fn arb_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    let mat = |name: &'static str, cols: &'static str| {
        proptest::collection::btree_map((0u64..12, 0u64..12), 1.0f64..9.0, 0..30).prop_map(
            move |m| {
                let entries: Vec<(Vec<u64>, f64)> =
                    m.into_iter().map(|((r, c), v)| (vec![r, c], v)).collect();
                Tensor::from_entries(name, &["K", cols], &[12, 12], entries).expect("in shape")
            },
        )
    };
    (mat("A", "M"), mat("B", "N"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random inputs, the cached pipeline (cold and warm, 1 and 4
    /// threads) reproduces the uncached run bit for bit.
    #[test]
    fn cached_run_matches_uncached_on_random_inputs((a, b) in arb_pair()) {
        let ins = vec![a, b];
        for threads in [1usize, 4] {
            let spec = TeaalSpec::parse(SPMSPM).unwrap();
            let baseline = Simulator::new(spec.clone())
                .unwrap()
                .with_threads(threads)
                .run(&ins)
                .unwrap();
            let ctx = EvalContext::new();
            let sim = ctx.simulator(&spec).unwrap().with_threads(threads);
            let cold = sim.run(&ins).unwrap();
            let warm = sim.run(&ins).unwrap();
            let want = report_bits(&baseline);
            prop_assert_eq!(&report_bits(&cold), &want);
            prop_assert_eq!(&report_bits(&warm), &want);
        }
    }
}
