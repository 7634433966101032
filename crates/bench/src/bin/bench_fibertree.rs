//! Fibertree storage-layer microbenchmark, recorded to
//! `BENCH_fibertree.json`.
//!
//! Six cases. The four cursor cases time the compressed (CSF) cursors
//! and the intersection unit (`IntersectStream`) every evaluation runs;
//! the two transform cases time both representations of identical
//! content, since `Tensor` keeps its own transforms as the test oracle:
//!
//! 1. `leaf_stream` — DFS over every leaf of a large sparse matrix (the
//!    full-tensor iteration every simulation performs per operand),
//! 2. `intersect_vectors` — two-finger co-iteration of two long sparse
//!    vectors (the per-rank inner loop of every SpMSpM), merged as raw
//!    coordinate runs,
//! 3. `rowwise_cointeration` — Gustavson-style traversal: intersect the
//!    row ranks of two matrices, then co-iterate the matching row pairs,
//! 4. `transform_swizzle_partition` — a Gamma-style transform pipeline
//!    (transpose, then occupancy-partition both ranks): owned tree
//!    rebuilds vs compressed-native key re-sort + segment-array splits,
//! 5. `transform_flatten_occupancy` — the Fig. 2 / SIGMA pipeline
//!    (flatten two ranks, occupancy-partition the fused rank): owned
//!    tuple-coordinate rebuild vs compressed segment fusion,
//! 6. `intersect_vectors_skewed` — leader-follower co-iteration of a
//!    tiny vector leading against a huge one: each leader coordinate
//!    probes the follower's run by binary search.
//!
//! A second, `parallel_scaling` group times full `Simulator` SpMSpM runs
//! at 1 worker vs the host's parallelism, pinning the wall-clock cost of
//! the shard-parallel engine (which is bit-identical to sequential by
//! construction, so only time may differ).
//!
//! A `plan_artifact_cache` group times the pruned mapper search cold (a
//! fresh `EvalContext` per repetition) vs warm (one shared primed
//! context), pinning the wall-clock value of content-addressed plan and
//! transformed-input caching.
//!
//! Pass `--quick` for a CI-sized run. Timings are the minimum of several
//! repetitions of a full pass (wall clock; minima are the stablest point
//! estimate available).

use std::io::Write as _;
use std::time::Instant;

use teaal_core::TeaalSpec;
use teaal_fibertree::iterate::{IntersectPolicy, IntersectStream};
use teaal_fibertree::partition::SplitKind;
use teaal_fibertree::{CompressedTensor, FiberView, PayloadView, Tensor, TensorData};
use teaal_sim::Simulator;
use teaal_workloads::genmat;

struct CaseResult {
    case: &'static str,
    detail: String,
    /// The owned tree's time, for the transform cases only.
    owned_ns: Option<u128>,
    compressed_ns: u128,
}

fn time_min<R>(reps: usize, mut f: impl FnMut() -> R) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_nanos());
    }
    best.max(1)
}

/// Sums every leaf reachable from a view: the full-tensor iteration over
/// CSF cursors.
fn leaf_sum(v: FiberView<'_>) -> f64 {
    let mut acc = 0.0;
    for pos in 0..v.occupancy() {
        match v.payload_at(pos) {
            PayloadView::Val(x) => acc += x,
            PayloadView::Fiber(child) => acc += leaf_sum(child),
        }
    }
    acc
}

/// Intersects `fibers` the way the engine walks a loop level: re-arm the
/// level's stream, then advance it dry. Returns the match count.
fn intersect<'a>(
    s: &mut IntersectStream<'a>,
    fibers: &[FiberView<'a>],
    policy: IntersectPolicy,
) -> u64 {
    s.restart(fibers, policy, None);
    while s.advance().is_some() {}
    s.stats().matches
}

/// Gustavson-style co-iteration: intersect the top ranks, then the
/// matching child fibers, counting matches. One stream per level, as in
/// the engine.
fn rowwise<'a>(a: FiberView<'a>, b: FiberView<'a>) -> u64 {
    let (mut rows, mut cols) = (IntersectStream::default(), IntersectStream::default());
    rows.restart(&[a, b], IntersectPolicy::TwoFinger, None);
    let mut matches = 0u64;
    while rows.advance().is_some() {
        let (pa, pb) = (rows.positions()[0], rows.positions()[1]);
        if let (Some(fa), Some(fb)) = (a.payload_at(pa).as_fiber(), b.payload_at(pb).as_fiber()) {
            matches += intersect(&mut cols, &[fa, fb], IntersectPolicy::TwoFinger);
        }
    }
    matches
}

/// The first row fiber of a one-row compressed matrix.
fn row(t: &CompressedTensor) -> FiberView<'_> {
    t.root_fiber_view()
        .unwrap()
        .payload_at(0)
        .as_fiber()
        .unwrap()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 3 } else { 7 };
    // Matrix scale: the "large-matrix case" of the acceptance bar.
    let (dim, nnz) = if quick {
        (2_000u64, 60_000usize)
    } else {
        (8_000u64, 1_000_000usize)
    };
    let (vec_dim, vec_nnz) = if quick {
        (500_000u64, 40_000usize)
    } else {
        (5_000_000u64, 400_000usize)
    };

    println!(
        "== fibertree cursors and transforms ({} mode) ==",
        if quick { "quick" } else { "full" }
    );

    let mut results: Vec<CaseResult> = Vec::new();

    // Case 1: full leaf stream over a large matrix.
    {
        let m = genmat::uniform_compressed("A", &["M", "K"], dim, dim, nnz, 1);
        let compressed_ns = time_min(reps, || leaf_sum(m.root_fiber_view().unwrap()));
        results.push(CaseResult {
            case: "leaf_stream_large_matrix",
            detail: format!("{dim}x{dim}, {} nnz", m.nnz()),
            owned_ns: None,
            compressed_ns,
        });
    }

    // Case 2: two-finger intersection of two long sparse vectors.
    {
        let a = genmat::uniform_compressed("A", &["M", "K"], 1, vec_dim, vec_nnz, 2);
        let b = genmat::uniform_compressed("B", &["M", "K"], 1, vec_dim, vec_nnz, 3);
        let mut s = IntersectStream::default();
        let compressed_ns = time_min(reps, || {
            intersect(&mut s, &[row(&a), row(&b)], IntersectPolicy::TwoFinger)
        });
        results.push(CaseResult {
            case: "intersect_vectors",
            detail: format!("2 x {vec_nnz} of {vec_dim}"),
            owned_ns: None,
            compressed_ns,
        });
    }

    // Case 3: row-wise (Gustavson) co-iteration of two matrices.
    {
        let rows = dim / 4;
        let n = nnz / 2;
        let a = genmat::uniform_compressed("A", &["M", "K"], rows, rows, n, 4);
        let b = genmat::uniform_compressed("B", &["M", "K"], rows, rows, n, 5);
        let compressed_ns = time_min(reps, || {
            rowwise(a.root_fiber_view().unwrap(), b.root_fiber_view().unwrap())
        });
        results.push(CaseResult {
            case: "rowwise_cointeration",
            detail: format!("{rows}x{rows}, 2 x {n} nnz"),
            owned_ns: None,
            compressed_ns,
        });
    }

    // Case 4: transform pipeline — swizzle then occupancy-partition both
    // ranks (Gamma's data orchestration), owned-tree rebuilds vs
    // compressed-native segment-array operations.
    {
        let owned = genmat::uniform("A", &["M", "K"], dim, dim, nnz, 6);
        let comp = genmat::uniform_compressed("A", &["M", "K"], dim, dim, nnz, 6);
        let owned_pipeline = |t: &Tensor| -> Tensor {
            t.swizzle(&["K", "M"])
                .unwrap()
                .partition_rank("K", SplitKind::UniformOccupancy(64), "K1", "K0")
                .unwrap()
                .partition_rank("M", SplitKind::UniformOccupancy(32), "M1", "M0")
                .unwrap()
        };
        let comp_pipeline = |c: &CompressedTensor| -> CompressedTensor {
            c.swizzle(&["K", "M"])
                .unwrap()
                .partition_rank("K", SplitKind::UniformOccupancy(64), "K1", "K0")
                .unwrap()
                .partition_rank("M", SplitKind::UniformOccupancy(32), "M1", "M0")
                .unwrap()
        };
        let owned_ns = time_min(reps, || owned_pipeline(&owned).nnz());
        let compressed_ns = time_min(reps, || comp_pipeline(&comp).nnz());
        results.push(CaseResult {
            case: "transform_swizzle_partition",
            detail: format!("{dim}x{dim}, {} nnz", owned.nnz()),
            owned_ns: Some(owned_ns),
            compressed_ns,
        });
    }

    // Case 5: transform pipeline — flatten then occupancy-partition the
    // fused pair-coordinate rank (Fig. 2 / SIGMA load balancing).
    {
        let owned = genmat::uniform("A", &["M", "K"], dim, dim, nnz, 7);
        let comp = genmat::uniform_compressed("A", &["M", "K"], dim, dim, nnz, 7);
        let owned_ns = time_min(reps, || {
            owned
                .flatten_rank("M", "MK")
                .unwrap()
                .partition_rank("MK", SplitKind::UniformOccupancy(256), "MK1", "MK0")
                .unwrap()
                .nnz()
        });
        let compressed_ns = time_min(reps, || {
            comp.flatten_rank("M", "MK")
                .unwrap()
                .partition_rank("MK", SplitKind::UniformOccupancy(256), "MK1", "MK0")
                .unwrap()
                .nnz()
        });
        results.push(CaseResult {
            case: "transform_flatten_occupancy",
            detail: format!("{dim}x{dim}, {} nnz", owned.nnz()),
            owned_ns: Some(owned_ns),
            compressed_ns,
        });
    }

    // Case 6: skewed-size intersection under leader-follower — the small
    // operand leads, and each of its coordinates binary-searches the large
    // operand's run instead of merging past it.
    {
        let small_nnz = if quick { 400 } else { 2_000usize };
        let a = genmat::uniform_compressed("A", &["M", "K"], 1, vec_dim, small_nnz, 8);
        let b = genmat::uniform_compressed("B", &["M", "K"], 1, vec_dim, vec_nnz, 9);
        let mut s = IntersectStream::default();
        let lead_small = IntersectPolicy::LeaderFollower { leader: 0 };
        let compressed_ns = time_min(reps, || intersect(&mut s, &[row(&a), row(&b)], lead_small));
        results.push(CaseResult {
            case: "intersect_vectors_skewed",
            detail: format!("{small_nnz} vs {vec_nnz} of {vec_dim}, leader-follower"),
            owned_ns: None,
            compressed_ns,
        });
    }

    println!(
        "{:<28}{:>16}{:>16}{:>10}",
        "case", "owned ns", "compressed ns", "speedup"
    );
    for r in &results {
        let (owned, speedup) = match r.owned_ns {
            Some(o) => (
                o.to_string(),
                format!("{:.2}x", o as f64 / r.compressed_ns as f64),
            ),
            None => ("-".into(), "-".into()),
        };
        println!(
            "{:<28}{:>16}{:>16}{:>10}  ({})",
            r.case, owned, r.compressed_ns, speedup, r.detail
        );
    }

    // Parallel-scaling group: full Simulator SpMSpM runs, 1 worker vs
    // the host's parallelism. The shard-parallel engine is bit-identical
    // to sequential by construction (pinned by the sim crate's
    // integration tests), so only wall time may differ here. On a
    // single-core host the two timings coincide up to noise — the caveat
    // is recorded in the detail string rather than asserted away.
    struct ParallelResult {
        case: &'static str,
        detail: String,
        seq_ns: u128,
        par_ns: u128,
        threads: usize,
        /// Host CPU count, recorded structurally so scaling results can be
        /// normalized per host without parsing prose.
        cpus: usize,
    }
    let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut parallel: Vec<ParallelResult> = Vec::new();
    {
        const SPMSPM_DISJOINT: &str = concat!(
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
        let (sdim, snnz) = if quick {
            (300u64, 9_000usize)
        } else {
            (1_200u64, 140_000usize)
        };
        let a = genmat::uniform("A", &["K", "M"], sdim, sdim, snnz, 10);
        let b = genmat::uniform("B", &["K", "N"], sdim, sdim, snnz, 11);
        let spec = TeaalSpec::parse(SPMSPM_DISJOINT).unwrap();
        let time_sim = |threads: usize| {
            let sim = Simulator::new(spec.clone()).unwrap().with_threads(threads);
            time_min(reps, || sim.run(&[a.clone(), b.clone()]).unwrap().seconds)
        };
        let seq_ns = time_sim(1);
        let par_ns = time_sim(host_threads.max(2));
        parallel.push(ParallelResult {
            case: "simulator_spmspm_sharded",
            detail: format!(
                "{sdim}x{sdim}, 2 x {snnz} nnz, disjoint-merge shards; \
                 speedup only meaningful on multi-core hosts"
            ),
            seq_ns,
            par_ns,
            threads: host_threads.max(2),
            cpus: host_threads,
        });
    }

    println!();
    println!(
        "{:<28}{:>16}{:>16}{:>10}",
        "parallel case", "1-thread ns", "n-thread ns", "speedup"
    );
    for r in &parallel {
        println!(
            "{:<28}{:>16}{:>16}{:>9.2}x  (threads={}, {})",
            r.case,
            r.seq_ns,
            r.par_ns,
            r.seq_ns as f64 / r.par_ns as f64,
            r.threads,
            r.detail
        );
    }

    // Mapper-search group: exhaustive engine sweep vs the two-phase
    // prune-then-verify search on a catalog spec — wall-clock speedup,
    // per-candidate estimator-vs-engine cost, and winner agreement.
    struct MapperResult {
        case: &'static str,
        detail: String,
        candidates: usize,
        engine_evals: usize,
        estimator_evals: usize,
        exhaustive_ns: u128,
        fast_ns: u128,
        estimate_ns: u128,
        engine_ns: u128,
        top1_agrees: bool,
    }
    let mut mapper: Vec<MapperResult> = Vec::new();
    {
        use teaal_fibertree::StatsCache;
        use teaal_sim::{
            estimate_data, explore_fast_with_context, explore_loop_orders_with_context,
            ExploreConfig, Objective, OpTable,
        };
        let spec = TeaalSpec::parse(teaal_fixtures::GAMMA_EM).unwrap();
        let (mdim, mnnz) = if quick {
            (48u64, 320usize)
        } else {
            (96u64, 1_500usize)
        };
        let a = genmat::uniform("A", &["K", "M"], mdim, mdim, mnnz, 12);
        let b = genmat::uniform("B", &["K", "N"], mdim, mdim, mnnz, 13);
        let ins = vec![a.clone(), b.clone()];
        let search_reps = if quick { 1 } else { 3 };
        let cfg = ExploreConfig::default();
        let exhaustive_ns = time_min(search_reps, || {
            explore_loop_orders_with_context(
                &spec,
                "Z",
                &ins,
                OpTable::arithmetic(),
                Objective::Time,
                cfg.budget,
                1,
                None,
            )
            .unwrap()
        });
        let fast_ns = time_min(search_reps, || {
            explore_fast_with_context(&spec, "Z", &ins, OpTable::arithmetic(), &cfg, None).unwrap()
        });
        let exhaustive = explore_loop_orders_with_context(
            &spec,
            "Z",
            &ins,
            OpTable::arithmetic(),
            Objective::Time,
            cfg.budget,
            1,
            None,
        )
        .unwrap();
        let fast =
            explore_fast_with_context(&spec, "Z", &ins, OpTable::arithmetic(), &cfg, None).unwrap();
        // Per-candidate costs on the spec's own (default) mapping. The
        // estimator is timed against a warm `StatsCache` — the O(nnz)
        // stats pass is paid once per tensor across the whole search, as
        // in `explore_fast_with_context`, so the marginal per-candidate cost is what
        // matters.
        let sim = Simulator::new(spec.clone()).unwrap();
        let datas: Vec<TensorData> = ins.iter().map(|t| TensorData::Owned(t.clone())).collect();
        let drefs: Vec<&TensorData> = datas.iter().collect();
        let stats_cache = StatsCache::new();
        estimate_data(&sim, &drefs, &stats_cache).unwrap();
        let estimate_ns = time_min(reps, || estimate_data(&sim, &drefs, &stats_cache).unwrap());
        let engine_ns = time_min(reps, || sim.run(&ins).unwrap().seconds);
        mapper.push(MapperResult {
            case: "gamma_z_loop_orders",
            detail: format!(
                "{mdim}x{mdim}, 2 x {mnnz} nnz, top_k={} margin={}",
                cfg.top_k, cfg.margin
            ),
            candidates: exhaustive.len(),
            engine_evals: fast.engine_evals,
            estimator_evals: fast.estimator_evals,
            exhaustive_ns,
            fast_ns,
            estimate_ns,
            engine_ns,
            top1_agrees: fast.candidates[0].loop_order == exhaustive[0].loop_order,
        });
    }

    println!();
    println!(
        "{:<28}{:>16}{:>16}{:>10}",
        "mapper search", "exhaustive ns", "pruned ns", "speedup"
    );
    for r in &mapper {
        println!(
            "{:<28}{:>16}{:>16}{:>9.2}x  (engine evals {}/{}, est/engine per-candidate \
             {}/{} ns, top1 agrees: {})",
            r.case,
            r.exhaustive_ns,
            r.fast_ns,
            r.exhaustive_ns as f64 / r.fast_ns as f64,
            r.engine_evals,
            r.candidates,
            r.estimate_ns,
            r.engine_ns,
            r.top1_agrees,
        );
    }

    // Plan/artifact-cache group: the same pruned search, cold (a fresh
    // `EvalContext` per repetition, every artifact rebuilt) vs warm (one
    // shared context primed by a first pass) — the wall-clock value of
    // content-addressed plan and transformed-input reuse.
    struct CacheResult {
        case: &'static str,
        detail: String,
        cold_ns: u128,
        warm_ns: u128,
        transform_hits: u64,
        transform_misses: u64,
    }
    let mut artifact: Vec<CacheResult> = Vec::new();
    {
        use teaal_sim::{explore_fast_with_context, EvalContext, ExploreConfig, OpTable};
        let spec = TeaalSpec::parse(teaal_fixtures::GAMMA_EM).unwrap();
        let (mdim, mnnz) = if quick {
            (48u64, 320usize)
        } else {
            (96u64, 1_500usize)
        };
        let a = genmat::uniform("A", &["K", "M"], mdim, mdim, mnnz, 12);
        let b = genmat::uniform("B", &["K", "N"], mdim, mdim, mnnz, 13);
        let ins = vec![a, b];
        let cfg = ExploreConfig::default();
        let search_reps = if quick { 1 } else { 3 };
        let cold_ns = time_min(search_reps, || {
            let ctx = EvalContext::new();
            explore_fast_with_context(&spec, "Z", &ins, OpTable::arithmetic(), &cfg, Some(&ctx))
                .unwrap()
        });
        let ctx = EvalContext::new();
        explore_fast_with_context(&spec, "Z", &ins, OpTable::arithmetic(), &cfg, Some(&ctx))
            .unwrap();
        let warm_ns = time_min(search_reps.max(2), || {
            explore_fast_with_context(&spec, "Z", &ins, OpTable::arithmetic(), &cfg, Some(&ctx))
                .unwrap()
        });
        artifact.push(CacheResult {
            case: "gamma_explore_fast",
            detail: format!("{mdim}x{mdim}, 2 x {mnnz} nnz, shared EvalContext"),
            cold_ns,
            warm_ns,
            transform_hits: ctx.transforms().hits(),
            transform_misses: ctx.transforms().misses(),
        });
    }

    println!();
    println!(
        "{:<28}{:>16}{:>16}{:>10}",
        "plan_artifact_cache", "cold ns", "warm ns", "speedup"
    );
    for r in &artifact {
        println!(
            "{:<28}{:>16}{:>16}{:>9.2}x  (transform hits/misses {}/{}, {})",
            r.case,
            r.cold_ns,
            r.warm_ns,
            r.cold_ns as f64 / r.warm_ns as f64,
            r.transform_hits,
            r.transform_misses,
            r.detail
        );
    }

    // Hand-rolled JSON (no serializer in the offline build).
    let mut json = String::from("{\n  \"bench\": \"fibertree\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n  \"cases\": [\n"));
    for (i, r) in results.iter().enumerate() {
        let owned = r.owned_ns.map_or(String::new(), |o| {
            format!(
                ", \"owned_ns\": {o}, \"speedup\": {:.4}",
                o as f64 / r.compressed_ns as f64
            )
        });
        json.push_str(&format!(
            "    {{\"case\": \"{}\", \"detail\": \"{}\", \"compressed_ns\": {}{}}}{}\n",
            r.case,
            r.detail,
            r.compressed_ns,
            owned,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"parallel_scaling\": [\n");
    for (i, r) in parallel.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"case\": \"{}\", \"detail\": \"{}\", \"threads\": {}, \
             \"cpus\": {}, \"seq_ns\": {}, \"par_ns\": {}, \"speedup\": {:.4}}}{}\n",
            r.case,
            r.detail,
            r.threads,
            r.cpus,
            r.seq_ns,
            r.par_ns,
            r.seq_ns as f64 / r.par_ns as f64,
            if i + 1 < parallel.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"mapper_search\": [\n");
    for (i, r) in mapper.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"case\": \"{}\", \"detail\": \"{}\", \"candidates\": {}, \
             \"engine_evals\": {}, \"estimator_evals\": {}, \
             \"exhaustive_ns\": {}, \"fast_ns\": {}, \"search_speedup\": {:.4}, \
             \"estimate_ns_per_candidate\": {}, \"engine_ns_per_candidate\": {}, \
             \"estimator_speedup_per_candidate\": {:.1}, \"top1_agrees\": {}}}{}\n",
            r.case,
            r.detail,
            r.candidates,
            r.engine_evals,
            r.estimator_evals,
            r.exhaustive_ns,
            r.fast_ns,
            r.exhaustive_ns as f64 / r.fast_ns as f64,
            r.estimate_ns,
            r.engine_ns,
            r.engine_ns as f64 / r.estimate_ns as f64,
            r.top1_agrees,
            if i + 1 < mapper.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"plan_artifact_cache\": [\n");
    for (i, r) in artifact.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"case\": \"{}\", \"detail\": \"{}\", \"cold_ns\": {}, \
             \"warm_ns\": {}, \"speedup\": {:.4}, \"transform_hits\": {}, \
             \"transform_misses\": {}}}{}\n",
            r.case,
            r.detail,
            r.cold_ns,
            r.warm_ns,
            r.cold_ns as f64 / r.warm_ns as f64,
            r.transform_hits,
            r.transform_misses,
            if i + 1 < artifact.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_fibertree.json";
    let mut f = std::fs::File::create(path).expect("create BENCH_fibertree.json");
    f.write_all(json.as_bytes())
        .expect("write benchmark summary");
    println!("\nwrote {path}");
}
