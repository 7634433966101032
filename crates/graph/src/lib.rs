//! # teaal-graph
//!
//! Vertex-centric programming on TeAAL (paper §8): an iterative driver
//! that executes the Graphicionado / GraphDynS / proposal Einsum cascades
//! (Fig. 12) once per superstep, carrying the property vector and active
//! set between iterations, and aggregating the per-iteration model
//! statistics the paper reports (apply operations, memory traffic,
//! execution time — Fig. 13).
//!
//! A specific algorithm manifests by redefining the `×` and `+` operators:
//! BFS and SSSP both run over the min-plus semiring
//! ([`teaal_sim::OpTable::sssp`]); BFS simply uses unit edge weights.

#![warn(missing_docs)]

use teaal_accel::vertex_centric::{self, GraphDesign, GRAPHDYNS_CHUNKS};
use teaal_fibertree::{CompressedBuilder, Shape, TensorData};
use teaal_sim::{CancelToken, EvalLimits, OpTable, SimError};
use teaal_workloads::Graph;

/// Which vertex-centric algorithm to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algorithm {
    /// Breadth-first search (hop counts; unit weights).
    Bfs,
    /// Single-source shortest paths (weighted relaxation).
    Sssp,
}

impl Algorithm {
    /// Whether edge weights are loaded (affects the CSR format, §8).
    pub fn weighted(&self) -> bool {
        matches!(self, Algorithm::Sssp)
    }

    /// Display name.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Bfs => "BFS",
            Algorithm::Sssp => "SSSP",
        }
    }
}

/// Finite stand-in for "undiscovered": keeps the dense property vector
/// explicitly materialized (the min-plus empty value `+∞` would be pruned
/// as an implicit zero).
pub const UNDISCOVERED: f64 = 1e30;

/// Model statistics for one superstep.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IterationStats {
    /// Active vertices entering the iteration.
    pub active: usize,
    /// Vertices receiving messages (`nnz(R)`).
    pub touched: usize,
    /// Vertices actually modified (`nnz(M)`).
    pub modified: usize,
    /// Apply operations the design performs this iteration.
    pub apply_ops: u64,
    /// DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Modelled execution time in seconds.
    pub seconds: f64,
    /// Modelled energy in joules.
    pub energy_joules: f64,
}

/// Aggregated run metrics.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Per-iteration statistics.
    pub iterations: Vec<IterationStats>,
}

impl RunMetrics {
    /// Total modelled time.
    pub fn total_seconds(&self) -> f64 {
        self.iterations.iter().map(|i| i.seconds).sum()
    }

    /// Total DRAM traffic.
    pub fn total_dram_bytes(&self) -> u64 {
        self.iterations.iter().map(|i| i.dram_bytes).sum()
    }

    /// Total apply operations.
    pub fn total_apply_ops(&self) -> u64 {
        self.iterations.iter().map(|i| i.apply_ops).sum()
    }

    /// Total energy.
    pub fn total_energy_joules(&self) -> f64 {
        self.iterations.iter().map(|i| i.energy_joules).sum()
    }
}

/// The result of a vertex-centric run.
#[derive(Clone, Debug)]
pub struct VertexRun {
    /// Final per-vertex property (distance), `f64::INFINITY` when
    /// unreached.
    pub distances: Vec<f64>,
    /// Model statistics.
    pub metrics: RunMetrics,
}

/// Runs `algorithm` from `root` on `graph` using `design`'s cascade, one
/// simulated superstep per frontier expansion.
///
/// # Errors
///
/// Returns [`SimError`] if the generated specification fails to lower or
/// execute (it cannot for the shipped designs; covered by tests).
pub fn run(
    design: GraphDesign,
    algorithm: Algorithm,
    graph: &Graph,
    root: u64,
) -> Result<VertexRun, SimError> {
    run_with_threads(design, algorithm, graph, root, teaal_sim::default_threads())
}

/// [`run`] with an explicit worker cap for each superstep's simulation.
///
/// Every superstep executes its cascade through
/// [`teaal_sim::Simulator::with_threads`]: independent Einsums run concurrently and
/// eligible Einsums shard their top loop rank over the shared compressed
/// adjacency, which stays borrowed — never cloned — across workers.
/// Distances and per-iteration statistics are bit-identical for every
/// thread count.
///
/// # Errors
///
/// As [`run`].
pub fn run_with_threads(
    design: GraphDesign,
    algorithm: Algorithm,
    graph: &Graph,
    root: u64,
    threads: usize,
) -> Result<VertexRun, SimError> {
    run_with_limits(
        design,
        algorithm,
        graph,
        root,
        threads,
        &EvalLimits::default(),
    )
}

/// [`run_with_threads`] under resource budgets: the limits' deadline and
/// step/output budgets are charged across every superstep's simulation
/// and additionally checked at each superstep boundary, so a run over a
/// large graph returns a structured
/// [`SimError::DeadlineExceeded`]/[`SimError::BudgetExceeded`] instead of
/// running unbounded. A cache-byte bound applies to the run's shared
/// evaluation context.
///
/// # Errors
///
/// As [`run`], plus the structured limit errors above.
pub fn run_with_limits(
    design: GraphDesign,
    algorithm: Algorithm,
    graph: &Graph,
    root: u64,
    threads: usize,
    limits: &EvalLimits,
) -> Result<VertexRun, SimError> {
    let v = graph.vertices;
    let weighted = algorithm.weighted();
    let spec = vertex_centric::spec(design, v, weighted);
    // One evaluation context for the whole run: when a design's mapping
    // transforms the adjacency, the transformed view is built in the
    // first superstep and served from the shared cache (content-addressed
    // by tensor hash + chain) in every later one.
    let ctx = teaal_sim::EvalContext::new();
    if let Some(bytes) = limits.max_resident_cache_bytes {
        ctx.set_max_cache_bytes(bytes);
    }
    // One token for the whole run, so budgets accumulate across
    // supersteps rather than resetting each iteration.
    let token = limits.is_limited().then(|| CancelToken::new(limits));
    let mut sim = ctx
        .simulator(&spec)?
        .with_ops(OpTable::sssp())
        .with_threads(threads);
    if let Some(t) = &token {
        sim = sim.with_cancel(t.clone());
    }

    // One compressed adjacency, built once in the mapping's `[S, V]`
    // storage order (so the engine's offline swizzle is the identity) and
    // *borrowed* by every superstep — the engine iterates it through
    // cursors, so a multi-million-edge graph is never cloned or rebuilt.
    // Per-superstep outputs stream into CSF arrays, never owned tensors.
    let g = TensorData::Compressed(graph.compressed_source_major("G", ["S", "V"], weighted));

    let mut properties = vec![UNDISCOVERED; v as usize];
    properties[root as usize] = 0.0;
    let mut active: Vec<(u64, f64)> = vec![(root, 0.0)];
    let mut metrics = RunMetrics::default();
    let chunk = (v / GRAPHDYNS_CHUNKS).max(1);

    let max_iterations = 10_000;
    for _ in 0..max_iterations {
        if active.is_empty() {
            break;
        }
        if let Some(t) = &token {
            t.checkpoint()?;
        }
        let a0 = build_vector("A0", "S", v, active.iter().copied())?;
        let p0 = build_vector(
            "P0",
            "V",
            v,
            properties.iter().enumerate().map(|(i, &p)| (i as u64, p)),
        )?;
        let report = sim.run_data(&[&g, &a0, &p0])?;

        let r = report.outputs.get("R").map_or(0, TensorData::nnz);
        let modified = report.outputs.get("M").map_or(0, TensorData::nnz);

        let apply_ops = match design {
            // Graphicionado applies to every vertex, every iteration.
            GraphDesign::Graphicionado => v,
            // GraphDynS applies at bitmap-chunk granularity: every vertex
            // of every chunk that received a message.
            GraphDesign::GraphDynS => {
                // `R` lists vertices ascending, so a touched chunk's
                // vertices are adjacent: count the leaves that open one.
                let mut last = None;
                let touched_chunks = report.outputs.get("R").map_or(0, |r| {
                    let opens = |&(d, _): &(u64, f64)| last.replace(d / chunk) != Some(d / chunk);
                    vector_leaves(r).filter(opens).count() as u64
                });
                (touched_chunks * chunk).min(v)
            }
            // The proposal applies only to vertices actually modified.
            GraphDesign::Proposal => modified as u64,
        };

        metrics.iterations.push(IterationStats {
            active: active.len(),
            touched: r,
            modified,
            apply_ops,
            dram_bytes: report.dram_bytes(),
            seconds: report.seconds,
            energy_joules: report.energy_joules,
        });

        // Commit property updates and build the next frontier.
        let updates = match design {
            GraphDesign::Graphicionado => "P1",
            _ => "PW",
        };
        for (vertex, value) in vector_leaves(&report.outputs[updates]) {
            properties[vertex as usize] = value;
        }
        active.clear();
        active.extend(vector_leaves(&report.outputs["A1"]));
    }

    let distances = properties
        .into_iter()
        .map(|p| if p >= UNDISCOVERED { f64::INFINITY } else { p })
        .collect();
    Ok(VertexRun { distances, metrics })
}

/// Builds a 1-tensor that may legitimately hold `0.0` payloads (the root's
/// distance), bypassing the implicit-zero dropping of
/// `CompressedTensor::from_entries`: it streams straight into the CSF
/// storage the engine walks, so a superstep copies nothing at the
/// simulator's boundary. Entries carry distinct coordinates in ascending
/// order, as the property vector and every superstep's `A1` list them;
/// the builder rejects any other order.
fn build_vector(
    name: &str,
    rank: &str,
    extent: u64,
    entries: impl Iterator<Item = (u64, f64)>,
) -> Result<TensorData, SimError> {
    let mut b =
        CompressedBuilder::new(name, vec![rank.to_string()], vec![Shape::Interval(extent)])?;
    for (c, val) in entries {
        b.push_point(&[c], val)?;
    }
    Ok(TensorData::Compressed(b.finish()))
}

/// The nonzero `(coordinate, value)` leaves of a 1-rank superstep
/// output in coordinate order, as `entries()` lists them, read through
/// the root fiber without allocating.
fn vector_leaves(t: &TensorData) -> impl Iterator<Item = (u64, f64)> + '_ {
    let TensorData::Compressed(c) = t else {
        panic!("superstep outputs are compressed");
    };
    let root = c.root_fiber_view().expect("a 1-rank output");
    (0..root.occupancy()).filter_map(move |p| {
        let value = root.payload_at(p).as_val().expect("1-rank leaves");
        let coord = root.coord_key_at(p).as_point().expect("point coordinates");
        (value != 0.0).then_some((coord, value))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use teaal_workloads::graphs::{reference_bfs, reference_sssp};

    fn small_graph(weighted: bool) -> Graph {
        Graph::power_law(200, 900, weighted, 17)
    }

    #[test]
    fn bfs_matches_reference_on_all_designs() {
        let g = small_graph(false);
        let root = g.hub();
        let want = reference_bfs(&g, root);
        for design in [
            GraphDesign::Graphicionado,
            GraphDesign::GraphDynS,
            GraphDesign::Proposal,
        ] {
            let run = run(design, Algorithm::Bfs, &g, root).expect("runs");
            assert_eq!(run.distances, want, "{design:?} BFS distances diverge");
            assert!(!run.metrics.iterations.is_empty());
        }
    }

    #[test]
    fn sssp_matches_reference_on_all_designs() {
        let g = small_graph(true);
        let root = g.hub();
        let want = reference_sssp(&g, root);
        for design in [
            GraphDesign::Graphicionado,
            GraphDesign::GraphDynS,
            GraphDesign::Proposal,
        ] {
            let run = run(design, Algorithm::Sssp, &g, root).expect("runs");
            for (vtx, (got, exp)) in run.distances.iter().zip(&want).enumerate() {
                assert!(
                    (got - exp).abs() < 1e-9 || (got.is_infinite() && exp.is_infinite()),
                    "{design:?} SSSP vertex {vtx}: {got} vs {exp}"
                );
            }
        }
    }

    #[test]
    fn apply_ops_order_matches_the_paper() {
        // Graphicionado ≥ GraphDynS ≥ Proposal, with strict separation on
        // a graph where the frontier stays well below |V|.
        let g = small_graph(false);
        let root = g.hub();
        let gi = run(GraphDesign::Graphicionado, Algorithm::Bfs, &g, root).unwrap();
        let gd = run(GraphDesign::GraphDynS, Algorithm::Bfs, &g, root).unwrap();
        let pr = run(GraphDesign::Proposal, Algorithm::Bfs, &g, root).unwrap();
        let (a, b, c) = (
            gi.metrics.total_apply_ops(),
            gd.metrics.total_apply_ops(),
            pr.metrics.total_apply_ops(),
        );
        assert!(a >= b, "Graphicionado {a} vs GraphDynS {b}");
        assert!(b >= c, "GraphDynS {b} vs Proposal {c}");
        assert!(a > c, "the proposal must beat the baseline: {a} vs {c}");
    }

    #[test]
    fn proposal_is_fastest_graphicionado_slowest() {
        let g = small_graph(false);
        let root = g.hub();
        let gi = run(GraphDesign::Graphicionado, Algorithm::Bfs, &g, root).unwrap();
        let pr = run(GraphDesign::Proposal, Algorithm::Bfs, &g, root).unwrap();
        assert!(
            pr.metrics.total_seconds() < gi.metrics.total_seconds(),
            "proposal {} should beat graphicionado {}",
            pr.metrics.total_seconds(),
            gi.metrics.total_seconds()
        );
        assert!(pr.metrics.total_dram_bytes() < gi.metrics.total_dram_bytes());
    }

    #[test]
    fn supersteps_never_decompress_the_adjacency() {
        // The driver borrows one compressed adjacency across every
        // superstep and assembles outputs as CSF; nothing on that path
        // may round-trip through an owned tensor. The counter is
        // process-wide and monotonic, so this holds even with
        // the other tests running concurrently — none of them may
        // decompress either.
        let g = small_graph(false);
        let before = teaal_fibertree::telemetry::decompress_count();
        let run = run(GraphDesign::GraphDynS, Algorithm::Bfs, &g, g.hub()).unwrap();
        assert!(!run.metrics.iterations.is_empty());
        assert_eq!(
            teaal_fibertree::telemetry::decompress_count(),
            before,
            "a graph superstep decompressed a tensor on the hot path"
        );
    }

    #[test]
    fn threaded_supersteps_are_bit_identical_to_sequential() {
        // The graph driver is where shard parallelism really bites: the
        // min-plus reduction is exact, so overlap merges are eligible and
        // supersteps genuinely shard. Distances and every per-iteration
        // statistic must match the sequential run bit for bit.
        let g = small_graph(true);
        let root = g.hub();
        for design in [
            GraphDesign::Graphicionado,
            GraphDesign::GraphDynS,
            GraphDesign::Proposal,
        ] {
            let seq = run_with_threads(design, Algorithm::Sssp, &g, root, 1).unwrap();
            for threads in [2usize, 4] {
                let par = run_with_threads(design, Algorithm::Sssp, &g, root, threads).unwrap();
                assert_eq!(
                    seq.distances, par.distances,
                    "{design:?} x{threads}: distances diverge"
                );
                assert_eq!(
                    seq.metrics.iterations, par.metrics.iterations,
                    "{design:?} x{threads}: iteration stats diverge"
                );
            }
        }
    }

    #[test]
    fn iteration_stats_are_populated() {
        let g = small_graph(false);
        let run = run(GraphDesign::Proposal, Algorithm::Bfs, &g, g.hub()).unwrap();
        let first = &run.metrics.iterations[0];
        assert_eq!(first.active, 1);
        assert!(first.touched > 0);
        assert!(first.dram_bytes > 0);
        assert!(first.seconds > 0.0);
        assert!(run.metrics.total_energy_joules() > 0.0);
    }

    #[test]
    fn step_budget_trips_across_supersteps_with_progress() {
        let g = small_graph(false);
        let root = g.hub();
        let limits = EvalLimits::default().with_max_engine_steps(50);
        let err = run_with_limits(GraphDesign::Proposal, Algorithm::Bfs, &g, root, 1, &limits)
            .expect_err("a 50-step budget cannot cover a 900-edge BFS");
        match err {
            SimError::BudgetExceeded { used, progress, .. } => {
                assert!(used >= 50, "budget tripped before it was spent: {used}");
                assert!(progress.engine_steps >= 50);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        // Vertex 3 has no incoming edges.
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let run = run(GraphDesign::Proposal, Algorithm::Bfs, &g, 0).unwrap();
        assert_eq!(run.distances[0], 0.0);
        assert_eq!(run.distances[1], 1.0);
        assert_eq!(run.distances[2], 2.0);
        assert!(run.distances[3].is_infinite());
    }
}
