//! `graph_vertex`: BFS and SSSP alternated on the Proposal design over
//! one power-law graph through `teaal_graph::run_with_threads`, which
//! builds its own evaluation context per run. Roots rotate over the
//! graph's hubs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use teaal::accel::vertex_centric;
use teaal::fibertree::{Tensor, TensorData};
use teaal::graph::{run_with_threads, Algorithm, VertexRun, UNDISCOVERED};
use teaal::prelude::GraphDesign;
use teaal::sim::{CancelToken, EvalContext, OpTable};
use teaal::workloads::graphs::{reference_bfs, reference_sssp};
use teaal::workloads::Graph;

use crate::trace::Tracer;
use crate::util::{median, ms_since, set_up, timed, Recorder};

const VERTICES: u64 = 10_000;
const EDGES: usize = 50_000;

/// Runs rotate over this many hub roots. One root's BFS depth moves in
/// whole supersteps with the seed; the class median over several roots
/// moves much less.
const ROOTS: usize = 8;

const ALGORITHMS: [(&str, Algorithm); 2] = [("bfs", Algorithm::Bfs), ("sssp", Algorithm::Sssp)];

/// Simulated statistics of a run, which must repeat exactly.
fn pin_of(run: &VertexRun) -> String {
    format!(
        "supersteps={} dram_bytes={} seconds_bits={:#018x} energy_bits={:#018x}",
        run.metrics.iterations.len(),
        run.metrics.total_dram_bytes(),
        run.metrics.total_seconds().to_bits(),
        run.metrics.total_energy_joules().to_bits()
    )
}

pub fn run(
    rec: &mut Recorder,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    // Set-up: generate the graph and build the compressed source-major
    // adjacency `run_with_threads` consumes.
    let graph = set_up(rec, 200, || {
        let g = Graph::power_law(VERTICES, EDGES, true, seed);
        black_box(g.compressed_source_major("G", ["S", "V"], true));
        g
    });
    let roots = hubs(&graph);
    let reference: Vec<[Vec<f64>; 2]> = roots
        .iter()
        .map(|&r| [reference_bfs(&graph, r), reference_sssp(&graph, r)])
        .collect();

    // Op `i` runs algorithm `i % 2` from root `(i / 2) % ROOTS`. The
    // first run of each (algorithm, root) fixes its pinned statistics;
    // every run must reproduce them and match the reference distances.
    // (pin, supersteps) per (algorithm, root).
    let mut pins: BTreeMap<(usize, usize), (String, usize)> = BTreeMap::new();
    // Returns the op's ms and its supersteps.
    let mut op = |i: u64, rec: &mut Recorder, tr: Option<&Tracer>| -> (f64, usize) {
        let (a, r) = ((i % 2) as usize, ((i / 2) as usize) % roots.len());
        let (class, alg) = ALGORITHMS[a];
        let go = || run_with_threads(GraphDesign::Proposal, alg, &graph, roots[r], 1);
        let (out, ms) = match tr {
            Some(tr) => {
                tr.begin_op();
                tr.timed("graph.run", go)
            }
            None => timed(go),
        };
        let problem = match &out {
            Err(e) => Some(format!("{class} from {}: {e}", roots[r])),
            Ok(run) if run.distances != reference[r][a] => Some(format!(
                "{class} from {}: distances differ from the reference",
                roots[r]
            )),
            Ok(run) => {
                let pin = pin_of(run);
                let (want, _) = pins
                    .entry((a, r))
                    .or_insert_with(|| (pin.clone(), run.metrics.iterations.len()));
                (*want != pin).then(|| format!("{class} from {}: statistics drifted", roots[r]))
            }
        };
        rec.check(problem);
        let supersteps = out.map_or(1, |run| run.metrics.iterations.len().max(1));
        if tr.is_none() {
            rec.sample(class, ms);
        }
        (ms, supersteps)
    };

    let window = if tracer.is_some() {
        seconds / 2.0
    } else {
        seconds
    };
    let start = Instant::now();
    let mut ops = 0u64;
    // At least one op per (algorithm, root), so every run pins them all.
    while ops < 2 * ROOTS as u64 || start.elapsed().as_secs_f64() < window {
        op(ops, rec, None);
        ops += 1;
    }
    rec.window_s = start.elapsed().as_secs_f64();
    rec.completed = ops;

    if let Some(tr) = tracer {
        let budget = seconds - ms_since(start) / 1e3;
        let start = Instant::now();
        let (mut traced, mut step_ms) = (Vec::new(), Vec::new());
        let mut i = ops;
        while traced.len() < 2 || start.elapsed().as_secs_f64() < budget {
            let (ms, supersteps) = op(i, rec, Some(tr));
            traced.push(ms);
            step_ms.push(ms / supersteps as f64);
            i += 1;
        }
        rec.layer("graph.superstep_ms", median(&step_ms));
        tr.begin_op();
        let (steps, outputs, ms) = tr.span("graph.superstep_probe", || {
            superstep_probe(tr, &graph, &reference[0][0])
        })?;
        rec.layer("sim.engine_steps", steps as f64);
        rec.layer("sim.output_entries", outputs as f64);
        rec.layer("sim.ns_per_step", ms * 1e6 / steps.max(1) as f64);
        let untraced: Vec<f64> = rec.classes.values().flatten().copied().collect();
        rec.layer(
            "trace.overhead_pct",
            100.0 * (median(&traced) / median(&untraced) - 1.0),
        );
    }
    for ((a, r), (pin, _)) in &pins {
        rec.pin(format!("{}.root{r}", ALGORITHMS[*a].0), pin);
    }
    if tracer.is_some() {
        let supersteps: usize = pins.values().map(|(_, n)| n).sum();
        rec.layer(
            "graph.supersteps",
            supersteps as f64 / pins.len().max(1) as f64,
        );
    }
    Ok(())
}

/// The `ROOTS` highest out-degree vertices (ties by id): well-connected
/// roots whose runs reach most of the graph.
fn hubs(graph: &Graph) -> Vec<u64> {
    let out = graph.out_edges();
    let mut ids: Vec<usize> = (0..out.len()).collect();
    ids.sort_by_key(|&v| (std::cmp::Reverse(out[v].len()), v));
    ids.into_iter().take(ROOTS).map(|v| v as u64).collect()
}

/// Replays the busiest BFS superstep (largest frontier) from the first
/// root through `run_data_compressed` with an unlimited token attached,
/// which `run_with_threads` does not expose. The superstep's inputs are rebuilt
/// from the reference distances the way `run_with_threads` carries them.
/// Returns engine steps, output entries and the run's ms.
fn superstep_probe(tr: &Tracer, graph: &Graph, dist: &[f64]) -> Result<(u64, u64, f64), String> {
    let mut frontier: BTreeMap<u64, u64> = BTreeMap::new();
    for d in dist.iter().filter(|d| d.is_finite()) {
        *frontier.entry(*d as u64).or_default() += 1;
    }
    let depth = frontier
        .iter()
        .max_by_key(|&(d, n)| (*n, std::cmp::Reverse(*d)))
        .map_or(0, |(d, _)| *d) as f64;
    let v = graph.vertices;
    let vector = |name: &str, rank: &str, entries: Vec<(u64, f64)>| {
        let mut t = Tensor::empty(name, &[rank], &[v]);
        for (c, x) in entries {
            t.set(&[c], x);
        }
        TensorData::Owned(t)
    };
    let indexed = || dist.iter().enumerate().map(|(i, &d)| (i as u64, d));
    let a0 = vector("A0", "S", indexed().filter(|&(_, d)| d == depth).collect());
    let p0 = vector(
        "P0",
        "V",
        indexed()
            .map(|(i, d)| (i, if d <= depth { d } else { UNDISCOVERED }))
            .collect(),
    );
    let g = TensorData::Compressed(graph.compressed_source_major("G", ["S", "V"], false));

    let ctx = EvalContext::new();
    let token = CancelToken::unlimited();
    let sim = ctx
        .simulator(&vertex_centric::spec(GraphDesign::Proposal, v, false))
        .map_err(|e| e.to_string())?
        .with_ops(OpTable::sssp())
        .with_threads(1)
        .with_cancel(token.clone());
    let (out, ms) = tr.timed("sim.run_data_compressed", || {
        sim.run_data_compressed(&[&g, &a0, &p0])
    });
    out.map_err(|e| format!("superstep probe: {e}"))?;
    let p = token.progress();
    Ok((p.engine_steps, p.output_entries, ms))
}
