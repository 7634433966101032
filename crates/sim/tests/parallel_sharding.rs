//! Shard-parallel execution is bit-identical to the sequential oracle.
//!
//! `Simulator::with_threads(n)` partitions eligible Einsums' top loop
//! ranks across scoped workers and merges instruments and outputs
//! deterministically. The contract pinned here: for every catalog spec
//! and every synthetic spec below, an `n`-thread run produces the same
//! report as the 1-thread run *bit for bit* — every instrument counter,
//! modelled time, energy, and output entry. Plans the shard-exactness
//! analysis cannot prove (caches, inexact float reductions over shared
//! output keys, pair-coordinate tops) fall back to sequential execution,
//! which satisfies the contract trivially; the synthetic specs are
//! chosen so the sharded path genuinely runs (disjoint streaming merges,
//! overlap merges under the exact min-plus reduction, union and
//! intersection tops).

use teaal_core::TeaalSpec;
use teaal_fibertree::{CompressedTensor, Tensor, TensorData};
use teaal_sim::{OpTable, SimReport, Simulator};
use teaal_workloads::genmat;

fn assert_reports_identical(label: &str, seq: &SimReport, par: &SimReport) {
    assert_eq!(
        seq.einsums, par.einsums,
        "{label}: instrument counters diverge under sharding"
    );
    assert_eq!(
        seq.seconds.to_bits(),
        par.seconds.to_bits(),
        "{label}: modelled time diverges"
    );
    assert_eq!(
        seq.cycles.to_bits(),
        par.cycles.to_bits(),
        "{label}: modelled cycles diverge"
    );
    assert_eq!(
        seq.energy_joules.to_bits(),
        par.energy_joules.to_bits(),
        "{label}: modelled energy diverges"
    );
    assert_eq!(
        seq.outputs.keys().collect::<Vec<_>>(),
        par.outputs.keys().collect::<Vec<_>>(),
        "{label}: output sets diverge"
    );
    for (name, s) in &seq.outputs {
        let p = &par.outputs[name];
        assert_eq!(
            s.leaves(),
            p.leaves(),
            "{label}/{name}: output content diverges"
        );
        assert_eq!(s.nnz(), p.nnz(), "{label}/{name}: nnz diverges");
        assert_eq!(
            s.rank_stats(),
            p.rank_stats(),
            "{label}/{name}: structure diverges"
        );
    }
}

fn inputs() -> (Tensor, Tensor) {
    (
        genmat::uniform("A", &["K", "M"], 60, 50, 700, 21),
        genmat::uniform("B", &["K", "N"], 60, 40, 600, 22),
    )
}

/// All four catalog accelerator specs: 1-thread vs 4-thread, owned and
/// compressed inputs.
#[test]
fn catalog_specs_are_thread_count_invariant() {
    let (a, b) = inputs();
    let ca = TensorData::Compressed(CompressedTensor::from_tensor(&a).unwrap());
    let cb = TensorData::Compressed(CompressedTensor::from_tensor(&b).unwrap());
    for (label, yaml) in teaal_fixtures::spmspm_specs() {
        let spec = TeaalSpec::parse(yaml).unwrap();
        let seq = Simulator::new(spec.clone())
            .unwrap()
            .with_threads(1)
            .run(&[a.clone(), b.clone()])
            .unwrap();
        let par = Simulator::new(spec.clone())
            .unwrap()
            .with_threads(4)
            .run(&[a.clone(), b.clone()])
            .unwrap();
        assert_reports_identical(label, &seq, &par);

        let cseq = Simulator::new(spec.clone())
            .unwrap()
            .with_threads(1)
            .run_data(&[&ca, &cb])
            .unwrap();
        let cpar = Simulator::new(spec)
            .unwrap()
            .with_threads(4)
            .run_data(&[&ca, &cb])
            .unwrap();
        assert_reports_identical(&format!("{label} (compressed)"), &cseq, &cpar);
    }
}

/// Gustavson SpMSpM with the output ranks outermost: shards write
/// disjoint key ranges and stream straight into per-shard builders
/// merged by concatenation.
const GUSTAVSON_CONCORDANT: &str = concat!(
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

/// The same kernel with the contraction rank outermost: every shard
/// reduces into the same output keys, so the merge must fold shard
/// partials — only exact (order-insensitive) reductions qualify, and the
/// min-plus table declares itself exact.
const GUSTAVSON_OVERLAP: &str = concat!(
    "einsum:\n",
    "  declaration:\n",
    "    A: [K, M]\n",
    "    B: [K, N]\n",
    "    Z: [M, N]\n",
    "  expressions:\n",
    "    - Z[m, n] = A[k, m] * B[k, n]\n",
    "mapping:\n",
    "  loop-order:\n",
    "    Z: [K, M, N]\n",
);

/// Elementwise sum: the top level unions the operands, exercising the
/// bounded union stream end-to-end.
const ELEMENTWISE_UNION: &str = concat!(
    "einsum:\n",
    "  declaration:\n",
    "    A: [M, N]\n",
    "    B: [M, N]\n",
    "    Z: [M, N]\n",
    "  expressions:\n",
    "    - Z[m, n] = A[m, n] + B[m, n]\n",
);

/// Shard-count invariance on random tensors (the satellite property):
/// reports must not depend on how many workers the top rank splits
/// across — 1, 2, 7, or the machine's parallelism.
#[test]
fn shard_count_never_changes_the_report() {
    let host = std::thread::available_parallelism().map_or(2, usize::from);
    let cases: [(&str, &str, OpTable); 3] = [
        (
            "gustavson/disjoint-stream",
            GUSTAVSON_CONCORDANT,
            OpTable::arithmetic(),
        ),
        (
            "gustavson/overlap-minplus",
            GUSTAVSON_OVERLAP,
            OpTable::sssp(),
        ),
        (
            "elementwise/union",
            ELEMENTWISE_UNION,
            OpTable::arithmetic(),
        ),
    ];
    for seed in [3u64, 11] {
        let a = genmat::uniform("A", &["K", "M"], 40, 48, 350, seed);
        let b = genmat::uniform("B", &["K", "N"], 40, 32, 300, seed + 1);
        let ea = genmat::uniform("A", &["M", "N"], 48, 32, 400, seed + 2);
        let eb = genmat::uniform("B", &["M", "N"], 48, 32, 380, seed + 3);
        for (label, yaml, ops) in &cases {
            let spec = TeaalSpec::parse(yaml).unwrap();
            let ins: &[Tensor] = if *label == "elementwise/union" {
                &[ea.clone(), eb.clone()]
            } else {
                &[a.clone(), b.clone()]
            };
            let run_with = |threads: usize| {
                let sim = Simulator::new(spec.clone())
                    .unwrap()
                    .with_ops(*ops)
                    .with_threads(threads);
                let owned = sim.run(ins).unwrap();
                let data: Vec<TensorData> = ins
                    .iter()
                    .map(|t| TensorData::Compressed(CompressedTensor::from_tensor(t).unwrap()))
                    .collect();
                let refs: Vec<&TensorData> = data.iter().collect();
                let compressed = sim.run_data(&refs).unwrap();
                (owned, compressed)
            };
            let (seq, cseq) = run_with(1);
            for threads in [2usize, 7, host] {
                let (par, cpar) = run_with(threads);
                assert_reports_identical(&format!("{label} x{threads} seed{seed}"), &seq, &par);
                assert_reports_identical(
                    &format!("{label} x{threads} seed{seed} (compressed)"),
                    &cseq,
                    &cpar,
                );
            }
        }
    }
}

/// The overlap fallback: floating-point `+` is not associative, so an
/// overlap-sharded fold could change bits — the planner must refuse and
/// run sequentially, keeping the report identical anyway.
#[test]
fn inexact_overlap_reductions_still_match_sequential() {
    let (a, b) = inputs();
    let spec = TeaalSpec::parse(GUSTAVSON_OVERLAP).unwrap();
    let seq = Simulator::new(spec.clone())
        .unwrap()
        .with_threads(1)
        .run(&[a.clone(), b.clone()])
        .unwrap();
    let par = Simulator::new(spec)
        .unwrap()
        .with_threads(8)
        .run(&[a, b])
        .unwrap();
    assert_reports_identical("gustavson/overlap-arithmetic", &seq, &par);
}
