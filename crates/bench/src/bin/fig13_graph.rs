//! Fig. 13 — the vertex-centric study: BFS (13a) and SSSP (13b) speedups
//! of GraphDynS-like and the paper's proposal over Graphicionado, and the
//! per-iteration apply-operation counts for lj on BFS (13c).
//!
//! Usage: `fig13_graph [bfs|sssp|apply-ops|all] [--scale N]`

use teaal_accel::GraphDesign;
use teaal_bench::{arg_scale, arithmetic_mean, print_table, reported, DEFAULT_GRAPH_SCALE};
use teaal_graph::{run, Algorithm};
use teaal_workloads::{by_tag, Graph};

fn make_graph(tag: &str, scale: u64, weighted: bool) -> Graph {
    let ds = by_tag(tag).expect("graph tag registered");
    let v = (ds.rows / scale).max(256);
    // Edges scale further than vertices (average degree 4 instead of the
    // originals' 12-14): shrinking a power-law graph shrinks its diameter,
    // and the per-iteration |V| costs the optimized designs avoid only
    // show up across many frontier expansions (the paper's lj BFS runs
    // ~14 iterations — see the paper-fidelity table in ROADMAP.md).
    let e = (v * 4).max(1024) as usize;
    Graph::power_law(v, e, weighted, 1000 + tag.len() as u64)
}

fn speedups(algo: Algorithm, scale: u64) {
    let repd: &[(f64, f64); 3] = match algo {
        Algorithm::Bfs => &reported::FIG13A_BFS_SPEEDUP,
        Algorithm::Sssp => &reported::FIG13B_SSSP_SPEEDUP,
    };
    let mut rows = Vec::new();
    let mut improvement = Vec::new();
    for (i, tag) in reported::GRAPH_TAGS.iter().enumerate() {
        let g = make_graph(tag, scale, algo.weighted());
        let root = g.hub();
        let gi = run(GraphDesign::Graphicionado, algo, &g, root).expect("runs");
        let gd = run(GraphDesign::GraphDynS, algo, &g, root).expect("runs");
        let pr = run(GraphDesign::Proposal, algo, &g, root).expect("runs");
        let base = gi.metrics.total_seconds();
        let s_gd = base / gd.metrics.total_seconds();
        let s_pr = base / pr.metrics.total_seconds();
        improvement.push(s_pr / s_gd);
        let (rep_gd, rep_pr) = repd[i];
        rows.push((
            tag.to_string(),
            vec![rep_gd, rep_pr, s_gd, s_pr, s_pr / s_gd],
        ));
    }
    print_table(
        &format!(
            "Fig. 13{}: {} speedup over Graphicionado (scale 1/{scale})",
            if algo == Algorithm::Bfs { "a" } else { "b" },
            algo.label()
        ),
        &["rep GDynS", "rep Ours", "GDynS", "Ours", "Ours/GDynS"],
        &rows,
    );
    let claim = match algo {
        Algorithm::Bfs => reported::CLAIM_BFS_IMPROVEMENT,
        Algorithm::Sssp => reported::CLAIM_SSSP_IMPROVEMENT,
    };
    println!(
        "mean improvement of the proposal over GraphDynS-like: {:.2}x (paper claims {:.1}x)",
        arithmetic_mean(&improvement),
        claim
    );
}

fn apply_ops(scale: u64) {
    let g = make_graph("lj", scale, false);
    let root = g.hub();
    let gi = run(GraphDesign::Graphicionado, Algorithm::Bfs, &g, root).expect("runs");
    let gd = run(GraphDesign::GraphDynS, Algorithm::Bfs, &g, root).expect("runs");
    let pr = run(GraphDesign::Proposal, Algorithm::Bfs, &g, root).expect("runs");
    let iters = gi
        .metrics
        .iterations
        .len()
        .max(gd.metrics.iterations.len())
        .max(pr.metrics.iterations.len());
    let at = |m: &teaal_graph::RunMetrics, i: usize| {
        m.iterations
            .get(i)
            .map(|s| s.apply_ops as f64)
            .unwrap_or(0.0)
    };
    let mut rows = Vec::new();
    for i in 0..iters {
        rows.push((
            format!("iter {i}"),
            vec![at(&gi.metrics, i), at(&gd.metrics, i), at(&pr.metrics, i)],
        ));
    }
    print_table(
        &format!("Fig. 13c: apply ops per iteration, lj on BFS (scale 1/{scale})"),
        &["Graphicionado", "GraphDynS", "Ours"],
        &rows,
    );
    println!(
        "(expected shape: Graphicionado flat at |V|; GraphDynS chunk-granular; \
         ours tracks the modified set and stays lowest)"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = arg_scale(&args, "--scale", DEFAULT_GRAPH_SCALE);
    match args.get(1).map(String::as_str).unwrap_or("all") {
        "bfs" => speedups(Algorithm::Bfs, scale),
        "sssp" => speedups(Algorithm::Sssp, scale),
        "apply-ops" => apply_ops(scale),
        _ => {
            speedups(Algorithm::Bfs, scale);
            speedups(Algorithm::Sssp, scale);
            apply_ops(scale);
        }
    }
}
