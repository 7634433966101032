//! Golden simulated statistics: exact pins for every reported counter.
//!
//! The other suites check outputs against references and compare one
//! engine path against another (owned vs compressed, sharded vs
//! sequential, warm vs cold). A change that shifts a counter the same way
//! on both paths passes all of them. This suite pins the statistics
//! themselves: every [`EinsumStats`] field (including the `loop_visits`
//! keys), the bits of `cycles`, `seconds` and `energy_joules`, and the
//! engine steps and output entries charged to an unlimited
//! [`CancelToken`]. The pinned values were captured from the engine
//! before its hot path was reworked, so a speed change to the nest walk
//! must reproduce them exactly.
//!
//! Each case folds its canonical rendering into an FNV-1a digest; on a
//! mismatch the assertion prints the rendering, so the drifting field is
//! visible.

use std::fmt::Write as _;

use teaal_accel::vertex_centric::{self, GraphDesign};
use teaal_core::canon::Fnv1a;
use teaal_core::TeaalSpec;
use teaal_fibertree::{CompressedTensor, Tensor, TensorData};
use teaal_sim::{CancelToken, OpTable, SimReport, Simulator};
use teaal_workloads::genmat;
use teaal_workloads::graphs::Graph;

/// One case's pinned values.
#[derive(Debug, PartialEq)]
struct Pin {
    /// FNV-1a over the canonical rendering of every report.
    digest: u64,
    /// Engine steps charged to the token (one per loop-rank visit).
    steps: u64,
    /// Output entries charged to the token (one per new key).
    outputs: u64,
}

/// Canonical text for one report: every `EinsumStats` field in
/// declaration order, the modelled totals as exact bits, and each
/// output's entries with value bits.
fn render(report: &SimReport, out: &mut String) {
    for e in &report.einsums {
        writeln!(out, "einsum {}", e.einsum).unwrap();
        for t in &e.traffic {
            writeln!(
                out,
                "  traffic {} fill={} buf={} reads={}",
                t.tensor, t.fill_bytes, t.buffer_read_bytes, t.reads
            )
            .unwrap();
        }
        writeln!(
            out,
            "  out_write={} out_partial={} writes={} updates={}",
            e.output_write_bytes, e.output_partial_bytes, e.output_writes, e.output_updates
        )
        .unwrap();
        writeln!(
            out,
            "  muls={} adds={} max_pe={} spaces={} isect={}",
            e.muls, e.adds, e.max_pe_ops, e.spaces, e.intersections
        )
        .unwrap();
        for m in &e.merges {
            writeln!(
                out,
                "  merge {} elems={} ways={}",
                m.tensor, m.elems, m.ways
            )
            .unwrap();
        }
        for (rank, visits) in &e.loop_visits {
            writeln!(out, "  visits {rank}={visits}").unwrap();
        }
    }
    writeln!(
        out,
        "cycles={:#x} seconds={:#x} energy={:#x}",
        report.cycles.to_bits(),
        report.seconds.to_bits(),
        report.energy_joules.to_bits()
    )
    .unwrap();
    for (name, t) in &report.outputs {
        writeln!(out, "output {name} nnz={}", t.nnz()).unwrap();
        for (point, v) in t.entries() {
            writeln!(out, "  {point:?}={:#x}", v.to_bits()).unwrap();
        }
    }
}

/// Runs `f` against a simulator with a fresh unlimited token attached and
/// pins the rendered reports plus the token's charges.
fn pin_runs(sim: Simulator, f: impl FnOnce(&Simulator) -> Vec<SimReport>) -> (Pin, String) {
    let token = CancelToken::unlimited();
    let sim = sim.with_cancel(token.clone());
    let reports = f(&sim);
    let mut text = String::new();
    for r in &reports {
        render(r, &mut text);
    }
    let mut h = Fnv1a::new();
    h.write_str(&text);
    let progress = token.progress();
    (
        Pin {
            digest: h.finish(),
            steps: progress.engine_steps,
            outputs: progress.output_entries,
        },
        text,
    )
}

/// Compares every case against its pin, reporting all mismatches at once
/// (with the full rendering of each drifting case).
fn check(cases: Vec<(String, Pin, String)>, pins: &[(&str, Pin)]) {
    assert_eq!(
        cases.len(),
        pins.len(),
        "case list and pin table diverge: {:?}",
        cases.iter().map(|c| &c.0).collect::<Vec<_>>()
    );
    let mut failures = String::new();
    for ((label, got, text), (want_label, want)) in cases.iter().zip(pins) {
        assert_eq!(label, want_label, "case order diverges from the pin table");
        if got != want {
            writeln!(
                failures,
                "{label}: got {got:?}, pinned {want:?}\n--- rendering ---\n{text}"
            )
            .unwrap();
        }
    }
    assert!(
        failures.is_empty(),
        "golden statistics drifted:\n{failures}"
    );
}

fn compressed(t: &Tensor) -> TensorData {
    TensorData::Compressed(CompressedTensor::from_tensor(t).unwrap())
}

/// The four catalog specs on a seeded ~120² SpMSpM, with owned and with
/// compressed inputs (outputs are CSF either way, through the streaming
/// accumulator where the loop order allows it).
#[test]
fn catalog_specs_match_pinned_statistics() {
    let a = genmat::uniform("A", &["K", "M"], 120, 110, 900, 41);
    let b = genmat::uniform("B", &["K", "N"], 120, 100, 800, 42);
    let (ca, cb) = (compressed(&a), compressed(&b));
    let mut cases = Vec::new();
    for (label, yaml) in teaal_fixtures::spmspm_specs() {
        let spec = TeaalSpec::parse(yaml).unwrap();
        let (pin, text) = pin_runs(Simulator::new(spec.clone()).unwrap(), |sim| {
            vec![sim.run(&[a.clone(), b.clone()]).unwrap()]
        });
        cases.push((format!("{label}/owned"), pin, text));
        let (pin, text) = pin_runs(Simulator::new(spec).unwrap(), |sim| {
            vec![sim.run_data(&[&ca, &cb]).unwrap()]
        });
        cases.push((format!("{label}/compressed"), pin, text));
    }
    check(
        cases,
        &[
            (
                "OuterSPACE/owned",
                Pin {
                    digest: 0x5d7a3a27110a5698,
                    steps: 16940,
                    outputs: 10179,
                },
            ),
            (
                "OuterSPACE/compressed",
                Pin {
                    digest: 0x5d7a3a27110a5698,
                    steps: 16940,
                    outputs: 10179,
                },
            ),
            (
                "ExTensor/owned",
                Pin {
                    digest: 0xb746d7556f6995e1,
                    steps: 45283,
                    outputs: 4476,
                },
            ),
            (
                "ExTensor/compressed",
                Pin {
                    digest: 0xb746d7556f6995e1,
                    steps: 45283,
                    outputs: 4476,
                },
            ),
            (
                "Gamma/owned",
                Pin {
                    digest: 0xba88f86b11b26dd2,
                    steps: 17204,
                    outputs: 10179,
                },
            ),
            (
                "Gamma/compressed",
                Pin {
                    digest: 0xba88f86b11b26dd2,
                    steps: 17204,
                    outputs: 10179,
                },
            ),
            (
                "SIGMA/owned",
                Pin {
                    digest: 0x4f28a22368f6cd77,
                    steps: 14270,
                    outputs: 6224,
                },
            ),
            (
                "SIGMA/compressed",
                Pin {
                    digest: 0x4f28a22368f6cd77,
                    steps: 14270,
                    outputs: 6224,
                },
            ),
        ],
    );
}

/// Gustavson SpMSpM with the output ranks outermost: at four threads the
/// top rank really shards (disjoint keys, per-shard streaming builders).
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

/// The contraction rank outermost: shards overlap on output keys, which
/// the exact min-plus reduction lets the merge fold.
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

/// Sharded execution at four workers: the per-shard counters fold into
/// the same pinned statistics a sequential run produces.
#[test]
fn sharded_plans_match_pinned_statistics() {
    let a = genmat::uniform("A", &["K", "M"], 40, 48, 350, 3);
    let b = genmat::uniform("B", &["K", "N"], 40, 32, 300, 4);
    let (ca, cb) = (compressed(&a), compressed(&b));
    let mut cases = Vec::new();
    for (label, yaml, ops) in [
        ("concordant", GUSTAVSON_CONCORDANT, OpTable::arithmetic()),
        ("overlap-minplus", GUSTAVSON_OVERLAP, OpTable::sssp()),
    ] {
        let spec = TeaalSpec::parse(yaml).unwrap();
        for threads in [1usize, 4] {
            let sim = Simulator::new(spec.clone())
                .unwrap()
                .with_ops(ops)
                .with_threads(threads);
            let (pin, text) = pin_runs(sim, |sim| {
                vec![
                    sim.run(&[a.clone(), b.clone()]).unwrap(),
                    sim.run_data(&[&ca, &cb]).unwrap(),
                ]
            });
            cases.push((format!("{label}/x{threads}"), pin, text));
        }
    }
    // Sharded reports are bit-identical to sequential ones, so each spec's
    // two thread counts share a digest and a step count. Overlapping
    // shards each charge their own first write of a shared output key,
    // so the sharded overlap run charges more output entries.
    let concordant = |outputs| Pin {
        digest: 0xe64cd425418ea54f,
        steps: 7410,
        outputs,
    };
    let overlap = |outputs| Pin {
        digest: 0xd4beb22c65b1919b,
        steps: 4970,
        outputs,
    };
    check(
        cases,
        &[
            ("concordant/x1", concordant(2312)),
            ("concordant/x4", concordant(2312)),
            ("overlap-minplus/x1", overlap(2312)),
            ("overlap-minplus/x4", overlap(3610)),
        ],
    );
}

fn vector(name: &str, rank: &str, extent: u64, entries: &[(u64, f64)]) -> Tensor {
    Tensor::from_entries(
        name,
        &[rank],
        &[extent],
        entries.iter().map(|&(c, v)| (vec![c], v)).collect(),
    )
    .unwrap()
}

/// The small kernels of the functional suite: affine descents (direct and
/// Toeplitz convolution), union and subtraction, `take`, and min-plus.
#[test]
fn functional_kernels_match_pinned_statistics() {
    let signal: Vec<(u64, f64)> = (0..6).map(|i| (i, (i + 1) as f64)).collect();
    let i = vector("I", "W", 6, &signal);
    let f = vector("F", "S", 2, &[(0, 1.0), (1, 10.0)]);
    let a = genmat::uniform("A", &["K", "M"], 12, 10, 40, 5);
    let b = genmat::uniform("B", &["K", "N"], 12, 9, 35, 6);
    let mut cases = Vec::new();

    let direct = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    I: [W]\n",
        "    F: [S]\n",
        "    O: [Q]\n",
        "  expressions:\n",
        "    - O[q] = I[q + s] * F[s]\n",
    ))
    .unwrap();
    let sim = Simulator::new(direct).unwrap().with_rank_extent("Q", 5);
    let (pin, text) = pin_runs(sim, |sim| vec![sim.run(&[i.clone(), f.clone()]).unwrap()]);
    cases.push(("direct-convolution".to_string(), pin, text));

    let toeplitz = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    I: [W]\n",
        "    F: [S]\n",
        "    T: [Q, S]\n",
        "    O: [Q]\n",
        "  expressions:\n",
        "    - T[q, s] = I[q + s]\n",
        "    - O[q] = T[q, s] * F[s]\n",
    ))
    .unwrap();
    let sim = Simulator::new(toeplitz)
        .unwrap()
        .with_rank_extent("Q", 5)
        .with_rank_extent("S", 2);
    let (pin, text) = pin_runs(sim, |sim| vec![sim.run(&[i.clone(), f.clone()]).unwrap()]);
    cases.push(("toeplitz-convolution".to_string(), pin, text));

    let union = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    E: [K]\n",
        "    T: [K]\n",
        "    Y: [K]\n",
        "    M: [K]\n",
        "  expressions:\n",
        "    - Y[k] = E[k] + T[k]\n",
        "    - M[k] = Y[k] - E[k]\n",
    ))
    .unwrap();
    let e = vector("E", "K", 6, &[(0, 1.0), (2, 2.0)]);
    let t = vector("T", "K", 6, &[(2, 5.0), (4, 7.0)]);
    let (pin, text) = pin_runs(Simulator::new(union).unwrap(), |sim| {
        vec![sim.run(&[e, t]).unwrap()]
    });
    cases.push(("union-subtraction".to_string(), pin, text));

    let take = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    A: [K, M]\n",
        "    B: [K, N]\n",
        "    T: [K, M, N]\n",
        "  expressions:\n",
        "    - T[k, m, n] = take(A[k, m], B[k, n], 1)\n",
    ))
    .unwrap();
    let (pin, text) = pin_runs(Simulator::new(take).unwrap(), |sim| {
        vec![sim.run(&[a.clone(), b.clone()]).unwrap()]
    });
    cases.push(("take".to_string(), pin, text));

    let relax = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    G: [D, S]\n",
        "    P: [S]\n",
        "    R: [D]\n",
        "  expressions:\n",
        "    - R[d] = G[d, s] * P[s]\n",
    ))
    .unwrap();
    let g = genmat::uniform("G", &["D", "S"], 20, 20, 60, 7);
    let p = vector("P", "S", 20, &[(0, 0.5), (3, 2.0), (7, 1.0), (11, 4.0)]);
    let sim = Simulator::new(relax).unwrap().with_ops(OpTable::sssp());
    let (pin, text) = pin_runs(sim, |sim| vec![sim.run(&[g, p]).unwrap()]);
    cases.push(("min-plus".to_string(), pin, text));

    check(
        cases,
        &[
            (
                "direct-convolution",
                Pin {
                    digest: 0x1514685146df222a,
                    steps: 15,
                    outputs: 5,
                },
            ),
            (
                "toeplitz-convolution",
                Pin {
                    digest: 0x10ff6966ab53c3ca,
                    steps: 30,
                    outputs: 15,
                },
            ),
            (
                "union-subtraction",
                Pin {
                    digest: 0x3cbd119f056036e1,
                    steps: 6,
                    outputs: 5,
                },
            ),
            (
                "take",
                Pin {
                    digest: 0x794cbb99fcbf9769,
                    steps: 119,
                    outputs: 79,
                },
            ),
            (
                "min-plus",
                Pin {
                    digest: 0x9f1f0fd0e60ecb01,
                    steps: 32,
                    outputs: 9,
                },
            ),
        ],
    );
}

/// Builds a property vector that may hold `0.0` payloads (the root's
/// distance), which `Tensor::from_entries` would drop as implicit zeros.
fn dense_vector(name: &str, rank: &str, extent: u64, entries: &[(u64, f64)]) -> TensorData {
    let mut t = Tensor::empty(name, &[rank], &[extent]);
    for &(c, v) in entries {
        t.set(&[c], v);
    }
    TensorData::Owned(t)
}

/// BFS and SSSP supersteps on the Proposal design, whose bindings include
/// eager fills: each superstep's cascade runs over a compressed adjacency
/// and the next frontier comes from its own outputs, as in the graph
/// driver.
#[test]
fn proposal_graph_supersteps_match_pinned_statistics() {
    const UNDISCOVERED: f64 = 1e30;
    let mut cases = Vec::new();
    for weighted in [false, true] {
        let graph = Graph::power_law(120, 500, weighted, 17);
        let v = graph.vertices;
        let spec = vertex_centric::spec(GraphDesign::Proposal, v, weighted);
        let g = TensorData::Compressed(graph.compressed_source_major("G", ["S", "V"], weighted));
        let sim = Simulator::new(spec).unwrap().with_ops(OpTable::sssp());
        let (pin, text) = pin_runs(sim, |sim| {
            let root = graph.hub();
            let mut properties = vec![UNDISCOVERED; v as usize];
            properties[root as usize] = 0.0;
            let mut active = vec![(root, 0.0)];
            let mut reports = Vec::new();
            while !active.is_empty() {
                let a0 = dense_vector("A0", "S", v, &active);
                let props: Vec<(u64, f64)> = properties
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| (i as u64, p))
                    .collect();
                let p0 = dense_vector("P0", "V", v, &props);
                let report = sim.run_data(&[&g, &a0, &p0]).unwrap();
                for (p, val) in report.outputs["PW"].entries() {
                    properties[p[0] as usize] = val;
                }
                active = report.outputs["A1"]
                    .entries()
                    .into_iter()
                    .map(|(p, val)| (p[0], val))
                    .collect();
                reports.push(report);
            }
            reports
        });
        let label = if weighted {
            "proposal/sssp"
        } else {
            "proposal/bfs"
        };
        cases.push((label.to_string(), pin, text));
    }
    check(
        cases,
        &[
            (
                "proposal/bfs",
                Pin {
                    digest: 0x903231d77c115ca1,
                    steps: 2272,
                    outputs: 1688,
                },
            ),
            (
                "proposal/sssp",
                Pin {
                    digest: 0x4b33f0d6ff08193c,
                    steps: 2983,
                    outputs: 2219,
                },
            ),
        ],
    );
}

/// The double-flatten cascade with owned and with compressed inputs: the
/// intermediate's transform chain fuses three ranks into one.
#[test]
fn double_flatten_matches_pinned_statistics() {
    let a = genmat::uniform("A", &["K", "M"], 30, 24, 140, 11);
    let b = genmat::uniform("B", &["K", "N"], 30, 20, 120, 12);
    let (ca, cb) = (compressed(&a), compressed(&b));
    let spec = TeaalSpec::parse(teaal_fixtures::DOUBLE_FLATTEN).unwrap();
    let mut cases = Vec::new();
    let (pin, text) = pin_runs(Simulator::new(spec.clone()).unwrap(), |sim| {
        vec![sim.run(&[a.clone(), b.clone()]).unwrap()]
    });
    cases.push(("double-flatten/owned".to_string(), pin, text));
    let (pin, text) = pin_runs(Simulator::new(spec).unwrap(), |sim| {
        vec![sim.run_data(&[&ca, &cb]).unwrap()]
    });
    cases.push(("double-flatten/compressed".to_string(), pin, text));
    check(
        cases,
        &[
            (
                "double-flatten/owned",
                Pin {
                    digest: 0xd226e2bb9e1c30ab,
                    steps: 1087,
                    outputs: 770,
                },
            ),
            (
                "double-flatten/compressed",
                Pin {
                    digest: 0xd226e2bb9e1c30ab,
                    steps: 1087,
                    outputs: 770,
                },
            ),
        ],
    );
}
