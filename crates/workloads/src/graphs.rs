//! Graph workloads for the vertex-centric study (§8).
//!
//! A [`Graph`] stores its edges source-major (CSR), which is also the
//! `[s, d]` order of the compressed adjacency the cascades consume.
//! Reference BFS/SSSP implementations validate the cascade-driven
//! accelerators.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use teaal_fibertree::{CompressedBuilder, CompressedTensor, Coord, FibertreeError, Shape};

/// A directed graph stored source-major: the out-edges of each source,
/// destinations ascending.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Vertex count.
    pub vertices: u64,
    /// Edge count.
    pub edges: usize,
    /// Source `s`'s out-edges are `targets[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<usize>,
    /// `(destination, weight)` per edge.
    targets: Vec<(u64, f64)>,
}

impl Graph {
    /// Generates a power-law (RMAT-like) directed graph.
    ///
    /// `weighted` draws edge weights from `[1, 10)`; unweighted graphs
    /// (BFS) use weight 1.
    pub fn power_law(vertices: u64, edges: usize, weighted: bool, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut list = Vec::with_capacity(edges);
        let zipf = |rng: &mut StdRng| -> u64 {
            let u: f64 = rng.random_range(0.0f64..1.0);
            ((vertices as f64) * u.powf(1.8)) as u64 % vertices
        };
        let mut seen = BTreeSet::new();
        for _ in 0..edges {
            let s = zipf(&mut rng);
            let d = rng.random_range(0..vertices);
            // Multigraph edges would sum weights under the implicit-zero
            // convention; keep the first occurrence only (before drawing
            // a weight, so the draws stay in step with the edges kept).
            if !seen.insert((d, s)) {
                continue;
            }
            let w = if weighted {
                rng.random_range(1.0..10.0f64).round()
            } else {
                1.0
            };
            list.push((s, d, w));
        }
        Self::from_edges(vertices, list).expect("edges are in range")
    }

    /// A graph on `vertices` vertices from `(source, destination,
    /// weight)` edges in any order. The first of duplicate edges wins,
    /// and an edge of weight zero is no edge (the adjacency's implicit
    /// zero).
    ///
    /// # Errors
    ///
    /// Returns [`FibertreeError::OutOfShape`] for an endpoint outside
    /// `0..vertices`.
    pub fn from_edges(
        vertices: u64,
        edges: impl IntoIterator<Item = (u64, u64, f64)>,
    ) -> Result<Self, FibertreeError> {
        let mut list = Vec::new();
        for (s, d, w) in edges {
            if s.max(d) >= vertices {
                let (coord, shape) = (Coord::Point(s.max(d)), Shape::Interval(vertices));
                return Err(FibertreeError::OutOfShape { coord, shape });
            }
            list.push((s, d, w));
        }
        // Stable, so the first of equal edges leads its run.
        list.sort_by_key(|&(s, d, _)| (s, d));
        list.dedup_by_key(|&mut (s, d, _)| (s, d));
        list.retain(|&(_, _, w)| w != 0.0);
        Ok(Graph {
            vertices,
            edges: list.len(),
            offsets: (0..=vertices)
                .map(|v| list.partition_point(|&(s, _, _)| s < v))
                .collect(),
            targets: list.into_iter().map(|(_, d, w)| (d, w)).collect(),
        })
    }

    /// The `(destination, weight)` out-edges of `source`, destinations
    /// ascending.
    pub fn out_edges_of(&self, source: u64) -> &[(u64, f64)] {
        let s = source as usize;
        &self.targets[self.offsets[s]..self.offsets[s + 1]]
    }

    /// The adjacency keyed *source-major* (`[s, d]` points) as a
    /// compressed tensor, streamed from the edge arrays in one pass.
    ///
    /// This is the layout the vertex-centric cascades consume (their
    /// mappings store `G` source-major so the engine's offline swizzle is
    /// the identity), and the compressed representation is what lets one
    /// multi-million-edge adjacency be borrowed across every superstep
    /// instead of cloned. `weighted = false` forces unit weights (BFS).
    pub fn compressed_source_major(
        &self,
        name: &str,
        rank_ids: [&str; 2],
        weighted: bool,
    ) -> CompressedTensor {
        let v = self.vertices;
        let mut b = CompressedBuilder::new(
            name,
            rank_ids.iter().map(|r| r.to_string()).collect(),
            vec![Shape::Interval(v); 2],
        )
        .expect("two interval ranks");
        for s in 0..v {
            for &(d, w) in self.out_edges_of(s) {
                let weight = if weighted { w } else { 1.0 };
                b.push_point(&[s, d], weight)
                    .expect("source-major edges arrive in order");
            }
        }
        b.finish()
    }

    /// Out-neighbors as `(dst, weight)` lists indexed by source.
    pub fn out_edges(&self) -> Vec<Vec<(u64, f64)>> {
        (0..self.vertices)
            .map(|s| self.out_edges_of(s).to_vec())
            .collect()
    }

    /// The highest-out-degree vertex — a natural BFS/SSSP root that
    /// reaches a large component.
    pub fn hub(&self) -> u64 {
        (0..self.vertices)
            .max_by_key(|&s| self.out_edges_of(s).len())
            .unwrap_or(0)
    }
}

/// Reference BFS: hop distance from `root` (`f64::INFINITY` when
/// unreachable).
pub fn reference_bfs(g: &Graph, root: u64) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; g.vertices as usize];
    dist[root as usize] = 0.0;
    let mut frontier = vec![root];
    let mut depth = 0.0;
    while !frontier.is_empty() {
        depth += 1.0;
        let mut next = Vec::new();
        for &v in &frontier {
            for &(d, _) in g.out_edges_of(v) {
                if dist[d as usize].is_infinite() {
                    dist[d as usize] = depth;
                    next.push(d);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// Reference SSSP (Bellman-Ford): weighted distance from `root`.
pub fn reference_sssp(g: &Graph, root: u64) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; g.vertices as usize];
    dist[root as usize] = 0.0;
    let mut active = vec![root];
    while !active.is_empty() {
        let mut changed = std::collections::BTreeSet::new();
        for &v in &active {
            let dv = dist[v as usize];
            for &(d, w) in g.out_edges_of(v) {
                if dv + w < dist[d as usize] {
                    dist[d as usize] = dv + w;
                    changed.insert(d);
                }
            }
        }
        active = changed.into_iter().collect();
    }
    dist
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn generated_graph_is_deterministic() {
        let a = Graph::power_law(100, 500, false, 3);
        let b = Graph::power_law(100, 500, false, 3);
        assert_eq!((&a.offsets, &a.targets), (&b.offsets, &b.targets));
        assert_eq!(a.edges, a.targets.len());
        assert_ne!(a.targets, Graph::power_law(100, 500, false, 4).targets);
    }

    #[test]
    fn from_edges_keeps_the_first_duplicate_and_sorts_destinations() {
        let g = Graph::from_edges(
            3,
            [
                (0, 2, 4.0),
                (1, 0, 1.0),
                (0, 1, 7.0),
                (0, 2, 9.0),
                (2, 2, 0.0),
            ],
        )
        .unwrap();
        assert_eq!(g.edges, 3);
        assert_eq!(g.out_edges_of(0), &[(1, 7.0), (2, 4.0)]);
        assert_eq!(g.out_edges_of(1), &[(0, 1.0)]);
        // A zero weight is no edge.
        assert!(g.out_edges_of(2).is_empty());
    }

    #[test]
    fn from_edges_rejects_out_of_range_vertices() {
        // Checked before duplicates and zero weights drop out.
        for edge in [(3, 0, 1.0), (0, 3, 0.0)] {
            match Graph::from_edges(3, [(0, 1, 1.0), edge]) {
                Err(FibertreeError::OutOfShape { coord, shape }) => {
                    assert_eq!(coord, Coord::Point(3));
                    assert_eq!(shape, Shape::Interval(3));
                }
                other => panic!("expected OutOfShape, got {other:?}"),
            }
        }
    }

    #[test]
    fn bfs_on_a_path_graph() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let d = reference_bfs(&g, 0);
        assert_eq!(d, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn sssp_prefers_cheaper_paths() {
        // 0 → 1 (cost 5); 0 → 2 (1); 2 → 1 (1): best 0→1 is 2.
        let g = Graph::from_edges(3, [(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0)]).unwrap();
        let d = reference_sssp(&g, 0);
        assert_eq!(d, vec![0.0, 2.0, 1.0]);
    }

    #[test]
    fn bfs_matches_sssp_on_unit_weights() {
        let g = Graph::power_law(200, 1000, false, 11);
        let root = g.hub();
        let bfs = reference_bfs(&g, root);
        let sssp = reference_sssp(&g, root);
        assert_eq!(bfs, sssp);
        // The hub reaches a nontrivial component.
        let reached = bfs.iter().filter(|d| d.is_finite()).count();
        assert!(reached > 10, "hub should reach vertices, got {reached}");
    }

    #[test]
    fn compressed_source_major_transposes_the_adjacency() {
        // A raw edge list with repeats, in generation order.
        let raw: Vec<(u64, u64, f64)> = (0..400u64)
            .map(|i| ((i * 37) % 100, (i * i + 3) % 100, (1 + i % 9) as f64))
            .collect();
        let g = Graph::from_edges(100, raw.iter().copied()).unwrap();
        // The oracle: the first weight of every `(s, d)`, in key order.
        let mut first: BTreeMap<(u64, u64), f64> = BTreeMap::new();
        for &(s, d, w) in &raw {
            first.entry((s, d)).or_insert(w);
        }
        let want: Vec<(Vec<u64>, f64)> =
            first.iter().map(|(&(s, d), &w)| (vec![s, d], w)).collect();
        let c = g.compressed_source_major("G", ["S", "V"], true);
        assert_eq!(g.edges, first.len());
        assert_eq!(c.nnz(), first.len());
        assert_eq!(c.entries(), want);
        let built = CompressedTensor::from_entries("G", &["S", "V"], &[100, 100], want).unwrap();
        assert!(c == built, "streamed build differs from the sorted build");
        // Unit weights under BFS.
        let b = g.compressed_source_major("G", ["S", "V"], false);
        assert_eq!(b.nnz(), first.len());
        assert!(b.entries().iter().all(|(_, w)| *w == 1.0));
    }

    #[test]
    fn hub_has_max_degree() {
        let g = Graph::power_law(100, 400, true, 5);
        let out = g.out_edges();
        let hub_deg = out[g.hub() as usize].len();
        assert!(out.iter().all(|es| es.len() <= hub_deg));
    }
}
