//! Property tests: the content-preserving transforms (swizzle, partition,
//! flatten, on point, pair and deeper tuple ranks) checked against an
//! independent oracle.
//!
//! The oracle, [`Coo`], is an owned coordinate list: rank ids, rank
//! shapes and a map from each leaf's coordinate path to its value. Its
//! transforms permute, split or fuse the paths directly and call no
//! fibertree transform. Each check builds the oracle's result with
//! [`CompressedBuilder::push`] and compares the whole [`CompressedTensor`]
//! with `==` against the CSF transform's result: same narrowed stores,
//! same segments, same value arena, and the same error when the transform
//! fails. (Test names say `owned_oracle`: it is this owned coordinate
//! list.)

use std::collections::BTreeMap;

use proptest::prelude::*;
use teaal_fibertree::partition::SplitKind;
use teaal_fibertree::tensor::fig1_matrix_a;
use teaal_fibertree::{CompressedBuilder, CompressedTensor, Coord, FibertreeError, Shape};

/// Per-fiber boundaries, keyed by the coordinate path above the rank.
type Bounds = BTreeMap<Vec<Coord>, Vec<Coord>>;

/// The coordinate-list oracle. Its methods are named after the CSF
/// transforms they model, so one expression runs on both (see `check!`).
#[derive(Clone, Debug)]
struct Coo {
    name: String,
    ranks: Vec<String>,
    shapes: Vec<Shape>,
    points: BTreeMap<Vec<Coord>, f64>,
}

impl Coo {
    fn new(name: &str, ranks: &[&str], dims: &[u64], entries: Vec<(Vec<u64>, f64)>) -> Coo {
        Coo {
            name: name.to_string(),
            ranks: ranks.iter().map(|r| r.to_string()).collect(),
            shapes: dims.iter().map(|&n| Shape::Interval(n)).collect(),
            points: entries
                .into_iter()
                .map(|(p, v)| (p.into_iter().map(Coord::Point).collect(), v))
                .collect(),
        }
    }

    /// The transforms' input: the same content built from COO entries.
    fn input(&self) -> CompressedTensor {
        let ranks: Vec<&str> = self.ranks.iter().map(String::as_str).collect();
        let dims: Vec<u64> = self
            .shapes
            .iter()
            .map(|s| s.as_interval().expect("inputs have point ranks"))
            .collect();
        let entries = self
            .points
            .iter()
            .map(|(p, &v)| (p.iter().map(|c| c.as_point().expect("points")).collect(), v))
            .collect();
        CompressedTensor::from_entries(&self.name, &ranks, &dims, entries).expect("in shape")
    }

    /// The expected CSF tensor: every path appended in order.
    fn csf(&self) -> CompressedTensor {
        let mut b = CompressedBuilder::new(&self.name, self.ranks.clone(), self.shapes.clone())
            .expect("oracle shapes compress");
        for (path, &v) in &self.points {
            b.push(path, v).expect("sorted paths in shape");
        }
        b.finish()
    }

    fn rank_index(&self, rank: &str) -> Result<usize, FibertreeError> {
        self.ranks
            .iter()
            .position(|r| r == rank)
            .ok_or_else(|| FibertreeError::UnknownRank {
                rank: rank.to_string(),
                have: self.ranks.clone(),
            })
    }

    /// The same content under new rank ids and shapes, each path mapped
    /// by `path`.
    fn rewrite(
        &self,
        ranks: Vec<String>,
        shapes: Vec<Shape>,
        path: impl Fn(&[Coord]) -> Vec<Coord>,
    ) -> Coo {
        Coo {
            name: self.name.clone(),
            ranks,
            shapes,
            points: self.points.iter().map(|(p, &v)| (path(p), v)).collect(),
        }
    }

    /// Every fiber at rank `d`: the path above it and its distinct
    /// coordinates in order. The root fiber exists even when empty.
    fn fibers(&self, d: usize) -> Bounds {
        let mut out = Bounds::new();
        if d == 0 {
            out.insert(vec![], vec![]);
        }
        for path in self.points.keys() {
            let fiber = out.entry(path[..d].to_vec()).or_default();
            if fiber.last() != Some(&path[d]) {
                fiber.push(path[d].clone());
            }
        }
        out
    }

    fn swizzle(&self, order: &[&str]) -> Result<Coo, FibertreeError> {
        let perm: Vec<usize> = order
            .iter()
            .filter_map(|r| self.ranks.iter().position(|x| x == r))
            .collect();
        let mut distinct = perm.clone();
        distinct.sort_unstable();
        distinct.dedup();
        if order.len() != self.ranks.len() || distinct.len() != self.ranks.len() {
            return Err(FibertreeError::BadPermutation {
                requested: order.iter().map(|r| r.to_string()).collect(),
                have: self.ranks.clone(),
            });
        }
        Ok(self.rewrite(
            perm.iter().map(|&p| self.ranks[p].clone()).collect(),
            perm.iter().map(|&p| self.shapes[p].clone()).collect(),
            |path| perm.iter().map(|&p| path[p].clone()).collect(),
        ))
    }

    /// Inserts each path's partition coordinate above rank `rank`.
    fn partition_rank(
        &self,
        rank: &str,
        kind: SplitKind,
        upper: &str,
        lower: &str,
    ) -> Result<Coo, FibertreeError> {
        let d = self.rank_index(rank)?;
        let shape = self.shapes[d].clone();
        match kind {
            SplitKind::UniformShape(0) | SplitKind::UniformOccupancy(0) => {
                return Err(FibertreeError::ZeroPartition)
            }
            SplitKind::UniformShape(_) if shape.as_interval().is_none() => {
                return Err(FibertreeError::NotAnInterval {
                    rank: shape.to_string(),
                })
            }
            _ => {}
        }
        let fibers = self.fibers(d);
        let upper_coord = |path: &[Coord]| -> Coord {
            let c = &path[d];
            match &kind {
                SplitKind::UniformShape(chunk) => {
                    Coord::Point(c.as_point().expect("interval rank") / chunk * chunk)
                }
                SplitKind::UniformOccupancy(size) => {
                    let fiber = &fibers[&path[..d]];
                    let i = fiber.binary_search(c).expect("coordinate of its fiber");
                    fiber[i / size * size].clone()
                }
                // The last leader boundary at or below `c`; a coordinate
                // before every boundary (or under a fiber the leader lacks)
                // opens its own group.
                SplitKind::BoundariesByPath(by_path) => by_path
                    .get(&path[..d])
                    .and_then(|bounds| bounds.iter().rev().find(|b| *b <= c))
                    .unwrap_or(c)
                    .clone(),
            }
        };
        let mut ranks = self.ranks.clone();
        ranks.splice(d..=d, [upper.to_string(), lower.to_string()]);
        let mut shapes = self.shapes.clone();
        shapes.splice(d..=d, [shape.clone(), shape]);
        Ok(self.rewrite(ranks, shapes, |path| {
            let mut p = path.to_vec();
            p.insert(d, upper_coord(path));
            p
        }))
    }

    /// The first coordinate of every `size` consecutive elements of
    /// every fiber at rank `rank`.
    fn occupancy_boundaries_by_path(
        &self,
        rank: &str,
        size: usize,
    ) -> Result<Bounds, FibertreeError> {
        if size == 0 {
            return Err(FibertreeError::ZeroPartition);
        }
        let d = self.rank_index(rank)?;
        Ok(self
            .fibers(d)
            .into_iter()
            .map(|(path, coords)| (path, coords.into_iter().step_by(size).collect()))
            .collect())
    }

    /// Fuses rank `upper` and the rank below into one tuple rank.
    fn flatten_rank(&self, upper: &str, new_name: &str) -> Result<Coo, FibertreeError> {
        let d = self.rank_index(upper)?;
        if d + 1 >= self.ranks.len() {
            return Err(FibertreeError::UnknownRank {
                rank: format!("{upper} (no rank below to flatten with)"),
                have: self.ranks.clone(),
            });
        }
        let shape_parts = |s: &Shape| match s {
            Shape::Tuple(ss) => ss.clone(),
            s => vec![s.clone()],
        };
        let coord_parts = |c: &Coord| match c {
            Coord::Tuple(cs) => cs.clone(),
            c => vec![c.clone()],
        };
        let mut ranks = self.ranks.clone();
        ranks.splice(d..=d + 1, [new_name.to_string()]);
        let mut shapes = self.shapes.clone();
        let fused = [shape_parts(&shapes[d]), shape_parts(&shapes[d + 1])].concat();
        shapes.splice(d..=d + 1, [Shape::Tuple(fused)]);
        Ok(self.rewrite(ranks, shapes, |path| {
            let mut p = path.to_vec();
            let below = p.remove(d + 1);
            p[d] = Coord::Tuple([coord_parts(&p[d]), coord_parts(&below)].concat());
            p
        }))
    }
}

/// Runs one transform expression on the oracle `$t` and on its CSF form,
/// then checks that both land on the same `CompressedTensor` (or fail
/// with the same error). `$body` may use `?`.
macro_rules! check {
    ($t:expr, |$x:ident| $body:expr) => {{
        let oracle: &Coo = &$t;
        let want = (|$x: &Coo| -> Result<Coo, FibertreeError> { $body })(oracle).map(|o| o.csf());
        let got = (|$x: &CompressedTensor| -> Result<CompressedTensor, FibertreeError> { $body })(
            &oracle.input(),
        );
        assert_eq!(want, got);
    }};
}

/// `[A, B, C, D]` with `A`, `B` and `C` flattened into one rank of
/// triples, in either association: `(A, B)` first or `(B, C)` first.
macro_rules! triple {
    ($x:ident, $left_first:expr) => {
        if $left_first {
            $x.flatten_rank("A", "AB")?.flatten_rank("AB", "ABC")
        } else {
            $x.flatten_rank("B", "BC")?.flatten_rank("A", "ABC")
        }
    };
}

fn arb_matrix() -> impl Strategy<Value = Coo> {
    proptest::collection::btree_map((0u64..16, 0u64..12), 1.0f64..100.0, 0..40).prop_map(|m| {
        let entries = m.into_iter().map(|((r, c), v)| (vec![r, c], v)).collect();
        Coo::new("A", &["M", "K"], &[16, 12], entries)
    })
}

fn arb_3tensor() -> impl Strategy<Value = Coo> {
    proptest::collection::btree_map((0u64..8, 0u64..8, 0u64..8), 1.0f64..100.0, 0..50).prop_map(
        |m| {
            let entries = m
                .into_iter()
                .map(|((a, b, c), v)| (vec![a, b, c], v))
                .collect();
            Coo::new("T", &["M", "K", "N"], &[8, 8, 8], entries)
        },
    )
}

fn arb_4tensor() -> impl Strategy<Value = Coo> {
    proptest::collection::btree_map((0u64..4, 0u64..5, 0u64..4, 0u64..6), 1.0f64..100.0, 0..60)
        .prop_map(|m| {
            let entries = m
                .into_iter()
                .map(|((a, b, c, d), v)| (vec![a, b, c, d], v))
                .collect();
            Coo::new("Q", &["A", "B", "C", "D"], &[4, 5, 4, 6], entries)
        })
}

proptest! {
    #[test]
    fn swizzle_matches_owned_oracle(t in arb_3tensor()) {
        for order in [["N", "M", "K"], ["K", "N", "M"], ["M", "N", "K"]] {
            check!(t, |x| x.swizzle(&order));
        }
    }

    #[test]
    fn transpose_matches_owned_oracle(t in arb_matrix()) {
        // CSR→CSC: the pull-to-front bucket-sort fast path.
        check!(t, |x| x.swizzle(&["K", "M"]));
    }

    #[test]
    fn shape_partition_matches_owned_oracle(t in arb_matrix(), chunk in 1u64..20) {
        for rank in ["M", "K"] {
            check!(t, |x| x.partition_rank(rank, SplitKind::UniformShape(chunk), "U", "L"));
        }
    }

    #[test]
    fn occupancy_partition_matches_owned_oracle(t in arb_matrix(), size in 1usize..10) {
        for rank in ["M", "K"] {
            check!(t, |x| x.partition_rank(rank, SplitKind::UniformOccupancy(size), "U", "L"));
        }
    }

    #[test]
    fn flatten_matches_owned_oracle(t in arb_3tensor()) {
        for rank in ["M", "K"] {
            check!(t, |x| x.flatten_rank(rank, "F"));
        }
    }

    #[test]
    fn flatten_then_occupancy_partition_matches_owned_oracle(
        t in arb_3tensor(),
        size in 1usize..8,
    ) {
        // Fig. 2 end-to-end on pair coordinates: flatten, then split the
        // fused rank by occupancy (upper coordinates become pairs).
        check!(t, |x| x
            .flatten_rank("M", "MK")?
            .partition_rank("MK", SplitKind::UniformOccupancy(size), "MK1", "MK0"));
    }

    #[test]
    fn leader_follower_boundaries_match_owned_oracle(
        leader in arb_matrix(),
        follower in arb_matrix(),
        size in 1usize..8,
    ) {
        // The leader publishes per-path boundaries; the follower splits
        // under them, also below leader rows that are missing.
        let bounds = leader.occupancy_boundaries_by_path("K", size);
        prop_assert_eq!(&bounds, &leader.input().occupancy_boundaries_by_path("K", size));
        let bounds = bounds.expect("bounds");
        check!(follower, |x| x.partition_rank(
            "K",
            SplitKind::BoundariesByPath(bounds.clone()),
            "K1",
            "K0"
        ));
    }

    #[test]
    fn two_level_shape_partition_matches_owned_oracle(
        t in arb_matrix(),
        c1 in 2u64..16,
        c0 in 1u64..8,
    ) {
        // ExTensor-style double split of one rank.
        check!(t, |x| x
            .partition_rank("K", SplitKind::UniformShape(c1), "K2", "Kx")?
            .partition_rank("Kx", SplitKind::UniformShape(c0), "K1", "K0"));
    }
}

// Arity-3 ranks: flattening twice, then swizzling, partitioning and
// publishing boundaries on the triple rank.
proptest! {
    #[test]
    fn triple_flatten_matches_owned_oracle(t in arb_4tensor()) {
        for left_first in [true, false] {
            check!(t, |x| triple!(x, left_first));
        }
        // A pair fused with a pair: four components.
        check!(t, |x| x
            .flatten_rank("A", "AB")?
            .flatten_rank("C", "CD")?
            .flatten_rank("AB", "ABCD"));
    }

    #[test]
    fn triple_rank_swizzle_matches_owned_oracle(t in arb_4tensor()) {
        check!(t, |x| triple!(x, true)?.swizzle(&["D", "ABC"]));
    }

    #[test]
    fn triple_rank_occupancy_partition_matches_owned_oracle(
        t in arb_4tensor(),
        size in 1usize..8,
    ) {
        check!(t, |x| triple!(x, false)?.partition_rank(
            "ABC",
            SplitKind::UniformOccupancy(size),
            "U",
            "L"
        ));
    }

    #[test]
    fn triple_rank_boundaries_match_owned_oracle(
        leader in arb_4tensor(),
        follower in arb_4tensor(),
        size in 1usize..6,
    ) {
        // Boundaries *on* the triple rank (tuple bounds) and *below* it
        // (keyed by triple paths).
        let flat = |x: &Coo| -> Result<Coo, FibertreeError> { triple!(x, true) };
        let csf_flat = |x: &CompressedTensor| -> Result<CompressedTensor, FibertreeError> {
            triple!(x, true)
        };
        let (ol, cl) = (flat(&leader).expect("flattens"), csf_flat(&leader.input()).expect("flattens"));
        for rank in ["ABC", "D"] {
            let bounds = ol.occupancy_boundaries_by_path(rank, size);
            prop_assert_eq!(&bounds, &cl.occupancy_boundaries_by_path(rank, size));
            let bounds = bounds.expect("bounds");
            check!(follower, |x| triple!(x, true)?.partition_rank(
                rank,
                SplitKind::BoundariesByPath(bounds.clone()),
                "U",
                "L"
            ));
        }
    }
}

#[test]
fn error_paths_match_the_owned_transforms() {
    let t = Coo::new("A", &["M", "K"], &[8, 8], vec![(vec![1, 2], 1.0)]);
    // Bad permutations.
    check!(t, |x| x.swizzle(&["M"]));
    check!(t, |x| x.swizzle(&["M", "M"]));
    check!(t, |x| x.swizzle(&["M", "Q"]));
    // Zero split sizes.
    check!(t, |x| x.partition_rank(
        "K",
        SplitKind::UniformShape(0),
        "U",
        "L"
    ));
    check!(t, |x| x.partition_rank(
        "K",
        SplitKind::UniformOccupancy(0),
        "U",
        "L"
    ));
    assert_eq!(
        t.occupancy_boundaries_by_path("K", 0),
        t.input().occupancy_boundaries_by_path("K", 0)
    );
    // Unknown ranks, and the bottom rank, which has nothing to flatten with.
    check!(t, |x| x.partition_rank(
        "Q",
        SplitKind::UniformShape(2),
        "U",
        "L"
    ));
    check!(t, |x| x.flatten_rank("Q", "F"));
    check!(t, |x| x.flatten_rank("K", "F"));
    // Shape-splitting a pair or triple rank: NotAnInterval.
    check!(t, |x| x.flatten_rank("M", "MK")?.partition_rank(
        "MK",
        SplitKind::UniformShape(2),
        "U",
        "L"
    ));
    let t3 = Coo::new(
        "T",
        &["A", "B", "C"],
        &[4, 4, 4],
        vec![(vec![1, 2, 3], 1.0)],
    );
    check!(t3, |x| x
        .flatten_rank("A", "AB")?
        .flatten_rank("AB", "ABC")?
        .partition_rank("ABC", SplitKind::UniformShape(2), "U", "L"));
    // Each case above does fail.
    let c = t.input();
    assert!(matches!(
        c.swizzle(&["M"]),
        Err(FibertreeError::BadPermutation { .. })
    ));
    assert!(matches!(
        c.partition_rank("K", SplitKind::UniformOccupancy(0), "U", "L"),
        Err(FibertreeError::ZeroPartition)
    ));
    assert!(matches!(
        c.flatten_rank("K", "F"),
        Err(FibertreeError::UnknownRank { .. })
    ));
    assert!(matches!(
        c.flatten_rank("M", "MK").and_then(|f| f.partition_rank(
            "MK",
            SplitKind::UniformShape(2),
            "U",
            "L"
        )),
        Err(FibertreeError::NotAnInterval { .. })
    ));
}

#[test]
fn empty_tensors_transform_in_both_representations() {
    let t = Coo::new("E", &["M", "K"], &[8, 8], vec![]);
    check!(t, |x| x.swizzle(&["K", "M"]));
    check!(t, |x| x.partition_rank(
        "M",
        SplitKind::UniformOccupancy(2),
        "U",
        "L"
    ));
    check!(t, |x| x.flatten_rank("M", "MK"));
    assert_eq!(
        t.occupancy_boundaries_by_path("M", 2),
        t.input().occupancy_boundaries_by_path("M", 2)
    );
}

/// Fig. 2 of the paper, as a fixed case that pins the oracle itself:
/// flattening `M, K` of the Fig. 1 matrix and occupancy-partitioning the
/// fused rank by 2 gives partitions at (0,2) and (2,1), each holding two
/// of the four values.
#[test]
fn fig2_flatten_then_occupancy_partition_matches_the_paper() {
    let a = fig1_matrix_a();
    let t = Coo::new("A", &["M", "K"], &[4, 3], a.entries());
    let oracle = t
        .flatten_rank("M", "MK")
        .and_then(|f| f.partition_rank("MK", SplitKind::UniformOccupancy(2), "MK1", "MK0"))
        .unwrap();
    let mk = |m, k| Coord::pair(m, k);
    let want: BTreeMap<Vec<Coord>, f64> = [
        (vec![mk(0, 2), mk(0, 2)], 3.0),
        (vec![mk(0, 2), mk(2, 0)], 9.0),
        (vec![mk(2, 1), mk(2, 1)], 4.0),
        (vec![mk(2, 1), mk(2, 2)], 5.0),
    ]
    .into_iter()
    .collect();
    assert_eq!(oracle.points, want);
    assert_eq!(oracle.ranks, ["MK1", "MK0"]);
    let pair = Shape::Tuple(vec![Shape::Interval(4), Shape::Interval(3)]);
    assert_eq!(oracle.shapes, [pair.clone(), pair]);
    check!(t, |x| x.flatten_rank("M", "MK")?.partition_rank(
        "MK",
        SplitKind::UniformOccupancy(2),
        "MK1",
        "MK0"
    ));
}
