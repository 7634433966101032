//! Property-based tests for compressed (CSF) cursors and co-iteration
//! streams, checked against independent oracles built from the owned
//! construction of the same content: matches, positions and union rows
//! against `BTreeMap`s of each fiber's `Tensor::entries()`, and the
//! charged [`CoIterStats`] against the textbook units composed stage by
//! stage (intersection), against a count of live fibers (union), and
//! between the raw-run kernels and the bounded cascade.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use teaal_fibertree::iterate::{
    intersect_stream, union_stream, CoIterStats, IntersectStream, UnionMatch, UnionStream,
};
use teaal_fibertree::{CompressedTensor, Coord, FiberView, IntersectPolicy, PayloadView, Tensor};

/// Up to 50 entries in an 8×8×8 3-tensor, as raw COO.
fn arb_coo3() -> impl Strategy<Value = Vec<(Vec<u64>, f64)>> {
    proptest::collection::btree_map((0u64..8, 0u64..8, 0u64..8), 1.0f64..100.0, 0..50).prop_map(
        |m| {
            m.into_iter()
                .map(|((a, b, c), v)| (vec![a, b, c], v))
                .collect()
        },
    )
}

/// A sparse coordinate set for one fiber, as a 1-rank tensor built twice
/// (same content, independent constructions): the owned tree is the
/// oracle's source, the compressed one is what the streams read.
fn arb_vector_pair() -> impl Strategy<Value = (Tensor, CompressedTensor)> {
    proptest::collection::btree_set(0u64..200, 0..50).prop_map(|coords| {
        let entries: Vec<(Vec<u64>, f64)> = coords
            .into_iter()
            .map(|c| (vec![c], c as f64 + 1.0))
            .collect();
        let t = Tensor::from_entries("F", &["K"], &[200], entries.clone()).expect("in shape");
        let c = CompressedTensor::from_entries("F", &["K"], &[200], entries).expect("in shape");
        (t, c)
    })
}

const POLICIES: [IntersectPolicy; 4] = [
    IntersectPolicy::TwoFinger,
    IntersectPolicy::LeaderFollower { leader: 0 },
    IntersectPolicy::LeaderFollower { leader: 1 },
    IntersectPolicy::SkipAhead,
];

fn view(c: &CompressedTensor) -> FiberView<'_> {
    c.root_fiber_view().expect("1-tensor")
}

/// The oracle's view of one fiber: coordinate → position, from the owned
/// tensor's entries.
fn positions(t: &Tensor) -> BTreeMap<u64, usize> {
    t.entries()
        .into_iter()
        .enumerate()
        .map(|(i, (p, _))| (p[0], i))
        .collect()
}

/// Every coordinate all fibers hold, with its position in each.
fn oracle_intersection(ts: &[&Tensor]) -> Vec<(Coord, Vec<usize>)> {
    let pos: Vec<_> = ts.iter().map(|t| positions(t)).collect();
    pos[0]
        .keys()
        .filter(|c| pos.iter().all(|m| m.contains_key(c)))
        .map(|c| (Coord::Point(*c), pos.iter().map(|m| m[c]).collect()))
        .collect()
}

/// Every coordinate any fiber holds, with its position where present.
fn oracle_union(ts: &[&Tensor]) -> Vec<UnionMatch> {
    let pos: Vec<_> = ts.iter().map(|t| positions(t)).collect();
    let all: BTreeSet<u64> = pos.iter().flat_map(|m| m.keys().copied()).collect();
    all.into_iter()
        .map(|c| {
            (
                Coord::Point(c),
                pos.iter().map(|m| m.get(&c).copied()).collect(),
            )
        })
        .collect()
}

/// The union's charge: one comparison per fiber still live (holding a
/// coordinate at or above the emitted one) per emitted coordinate.
fn oracle_union_stats(ts: &[&Tensor]) -> CoIterStats {
    let pos: Vec<_> = ts.iter().map(|t| positions(t)).collect();
    let rows = oracle_union(ts);
    let comparisons = rows
        .iter()
        .map(|(c, _)| {
            let c = c.as_point().expect("points");
            pos.iter()
                .filter(|m| m.keys().next_back().is_some_and(|&last| last >= c))
                .count() as u64
        })
        .sum();
    CoIterStats {
        comparisons,
        matches: rows.len() as u64,
    }
}

/// What the engine charges: the eager pairwise composition, each stage a
/// textbook unit over the previous stage's complete output, counted on
/// plain coordinates. A two-finger stage charges one comparison per
/// pointer advance; a leader-follower stage (the upstream leads, whatever
/// `leader` says) one probe per upstream element. Skip-ahead merges
/// two-finger.
fn oracle_cascade_stats(ts: &[&Tensor], policy: IntersectPolicy) -> CoIterStats {
    let probe = matches!(policy, IntersectPolicy::LeaderFollower { .. });
    let mut upstream: Vec<u64> = positions(ts[0]).into_keys().collect();
    let mut comparisons = 0;
    for t in &ts[1..] {
        let follow = positions(t);
        if probe {
            comparisons += upstream.len() as u64;
            upstream.retain(|c| follow.contains_key(c));
            continue;
        }
        let follow: Vec<u64> = follow.into_keys().collect();
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < upstream.len() && j < follow.len() {
            comparisons += 1;
            match upstream[i].cmp(&follow[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(upstream[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        upstream = out;
    }
    CoIterStats {
        comparisons,
        matches: upstream.len() as u64,
    }
}

/// Drains an intersection through its buffer-filling API.
fn drain_intersect(s: &mut IntersectStream<'_>) -> Vec<(Coord, Vec<usize>)> {
    let mut rows = Vec::new();
    while let Some(key) = s.advance() {
        rows.push((key.to_coord(), s.positions().to_vec()));
    }
    rows
}

/// Drains a union through its buffer-filling API.
fn drain_union(s: &mut UnionStream<'_>) -> Vec<UnionMatch> {
    let mut rows = Vec::new();
    while let Some(key) = s.advance() {
        rows.push((key.to_coord(), s.positions().to_vec()));
    }
    rows
}

/// Consecutive `[lo, hi)` windows covering the coordinate space `[0, 200)`
/// of [`arb_vector_pair`], cut at `cuts`.
fn windows(cuts: &BTreeSet<u64>) -> Vec<(u64, u64)> {
    let mut bounds = vec![0u64];
    bounds.extend(cuts.iter().copied().filter(|&c| c > 0 && c < 200));
    bounds.push(200);
    bounds.windows(2).map(|w| (w[0], w[1])).collect()
}

fn sum_stats(a: &CoIterStats, b: &CoIterStats) -> CoIterStats {
    CoIterStats {
        comparisons: a.comparisons + b.comparisons,
        matches: a.matches + b.matches,
    }
}

proptest! {
    /// `from_entries` and compressing the owned construction land on the
    /// identical arrays, and decompression is lossless.
    #[test]
    fn owned_compressed_roundtrip_equality(entries in arb_coo3()) {
        let t = Tensor::from_entries("T", &["M", "K", "N"], &[8, 8, 8], entries.clone())
            .expect("in shape");
        let c = CompressedTensor::from_entries("T", &["M", "K", "N"], &[8, 8, 8], entries)
            .expect("in shape");
        prop_assert_eq!(c.entries(), t.entries());
        prop_assert_eq!(c.nnz(), t.nnz());
        prop_assert_eq!(c.rank_stats(), t.rank_stats());
        prop_assert_eq!(&c.to_tensor(), &t);
        prop_assert_eq!(&CompressedTensor::from_tensor(&t).expect("points only"), &c);
    }

    /// Two-input intersection: the match stream equals the oracle under
    /// every policy, and the charge is the textbook unit's.
    #[test]
    fn intersect2_is_representation_independent(
        (oa, ca) in arb_vector_pair(),
        (ob, cb) in arb_vector_pair(),
    ) {
        let want = oracle_intersection(&[&oa, &ob]);
        for policy in POLICIES {
            let mut s = intersect_stream(&[view(&ca), view(&cb)], policy);
            let rows: Vec<_> = s.by_ref().collect();
            prop_assert_eq!(&rows, &want, "{:?}", policy);
            prop_assert_eq!(s.stats(), oracle_cascade_stats(&[&oa, &ob], policy), "{:?}", policy);
        }
    }

    /// A fresh multi-input intersection over three fibers yields the
    /// oracle's rows and charges the eager pairwise composition.
    #[test]
    fn intersect_many_is_representation_independent(
        (oa, ca) in arb_vector_pair(),
        (ob, cb) in arb_vector_pair(),
        (oc, cc) in arb_vector_pair(),
    ) {
        let owned = [&oa, &ob, &oc];
        let views = [view(&ca), view(&cb), view(&cc)];
        for policy in POLICIES {
            let mut s = intersect_stream(&views, policy);
            let rows: Vec<_> = s.by_ref().collect();
            prop_assert_eq!(rows, oracle_intersection(&owned), "{:?}", policy);
            prop_assert_eq!(s.stats(), oracle_cascade_stats(&owned, policy), "{:?}", policy);
        }
    }

    /// A fresh two-fiber union yields the oracle's rows and charge.
    #[test]
    fn union_is_representation_independent(
        (oa, ca) in arb_vector_pair(),
        (ob, cb) in arb_vector_pair(),
    ) {
        let mut s = union_stream(&[view(&ca), view(&cb)]);
        let rows: Vec<_> = s.by_ref().collect();
        prop_assert_eq!(rows, oracle_union(&[&oa, &ob]));
        prop_assert_eq!(s.stats(), oracle_union_stats(&[&oa, &ob]));
    }

    /// The buffer-filling intersection — one stream re-armed for every
    /// case, as the engine reuses one per loop level — yields the oracle's
    /// coordinates and positions over one to three fibers and charges the
    /// eager pairwise composition. Bounded (one or two fibers, always the
    /// cascade) over any split of the coordinate space, the shards'
    /// rows concatenate to the oracle's and their stats sum to the
    /// unbounded totals, which for one or two fibers come from the
    /// raw-run kernels.
    #[test]
    fn reused_intersect_streams_match_the_eager_cascade(
        (oa, ca) in arb_vector_pair(),
        (ob, cb) in arb_vector_pair(),
        (oc, cc) in arb_vector_pair(),
        cuts in proptest::collection::btree_set(0u64..200, 0..4),
    ) {
        let owned = [&oa, &ob, &oc];
        let views = [view(&ca), view(&cb), view(&cc)];
        let mut s = IntersectStream::default();
        for policy in POLICIES {
            for n in 1..=3 {
                let rows = oracle_intersection(&owned[..n]);
                let stats = oracle_cascade_stats(&owned[..n], policy);
                s.restart(&views[..n], policy, None);
                prop_assert_eq!(&drain_intersect(&mut s), &rows, "{:?} n={}", policy, n);
                prop_assert_eq!(s.stats(), stats.clone(), "{:?} n={}", policy, n);
                if n > 2 {
                    continue;
                }
                let mut shard_rows = Vec::new();
                let mut shard_stats = CoIterStats::default();
                for (lo, hi) in windows(&cuts) {
                    s.restart(&views[..n], policy, Some((lo, hi)));
                    shard_rows.extend(drain_intersect(&mut s));
                    shard_stats = sum_stats(&shard_stats, &s.stats());
                }
                prop_assert_eq!(&shard_rows, &rows, "{:?} n={} cuts={:?}", policy, n, cuts);
                prop_assert_eq!(&shard_stats, &stats, "{:?} n={} cuts={:?}", policy, n, cuts);
            }
        }
    }

    /// The buffer-filling union yields the oracle's rows and charges one
    /// comparison per live fiber per coordinate, unbounded and bounded,
    /// for one to three fibers; per-shard stats sum to the unbounded
    /// totals.
    #[test]
    fn reused_union_streams_match_the_eager_union(
        (oa, ca) in arb_vector_pair(),
        (ob, cb) in arb_vector_pair(),
        (oc, cc) in arb_vector_pair(),
        cuts in proptest::collection::btree_set(0u64..200, 0..4),
    ) {
        let owned = [&oa, &ob, &oc];
        let views = [view(&ca), view(&cb), view(&cc)];
        let mut s = UnionStream::default();
        for n in 1..=3 {
            let rows = oracle_union(&owned[..n]);
            let stats = oracle_union_stats(&owned[..n]);
            s.restart(&views[..n], None);
            prop_assert_eq!(&drain_union(&mut s), &rows, "n={}", n);
            prop_assert_eq!(s.stats(), stats.clone(), "n={}", n);
            let mut shard_rows = Vec::new();
            let mut shard_stats = CoIterStats::default();
            for (lo, hi) in windows(&cuts) {
                s.restart(&views[..n], Some((lo, hi)));
                shard_rows.extend(drain_union(&mut s));
                shard_stats = sum_stats(&shard_stats, &s.stats());
            }
            prop_assert_eq!(&shard_rows, &rows, "n={} cuts={:?}", n, cuts);
            prop_assert_eq!(&shard_stats, &stats, "n={} cuts={:?}", n, cuts);
        }
    }

    /// Hierarchical cursors: walking a 3-tensor leaf-by-leaf through
    /// views visits exactly the owned construction's entries.
    #[test]
    fn hierarchical_view_walks_agree(entries in arb_coo3()) {
        let t = Tensor::from_entries("T", &["M", "K", "N"], &[8, 8, 8], entries.clone())
            .expect("in shape");
        let c = CompressedTensor::from_entries("T", &["M", "K", "N"], &[8, 8, 8], entries)
            .expect("in shape");
        fn walk(v: FiberView<'_>, path: &mut Vec<u64>, out: &mut BTreeMap<Vec<u64>, f64>) {
            for pos in 0..v.occupancy() {
                path.push(v.coord_at(pos).as_point().expect("points"));
                match v.payload_at(pos) {
                    PayloadView::Val(x) => {
                        out.insert(path.clone(), x);
                    }
                    PayloadView::Fiber(child) => walk(child, path, out),
                }
                path.pop();
            }
        }
        let mut got = BTreeMap::new();
        if let Some(root) = c.root_fiber_view() {
            walk(root, &mut Vec::new(), &mut got);
        }
        let want: BTreeMap<Vec<u64>, f64> = t.entries().into_iter().collect();
        prop_assert_eq!(got, want);
    }
}

/// `LeaderFollower { leader: 1 }` still leads with fiber 0: positions
/// stay `(pos in a, pos in b)` and the charge is one probe per element of
/// `a`, on the raw-run kernel and the cascade alike.
#[test]
fn leader_one_swaps_positions_identically() {
    let entries = |coords: &[u64]| -> Vec<(Vec<u64>, f64)> {
        coords.iter().map(|&c| (vec![c], 1.0)).collect()
    };
    let (a, b) = (entries(&[1, 4, 9, 30]), entries(&[4, 9, 10]));
    let oa = Tensor::from_entries("A", &["K"], &[64], a.clone()).unwrap();
    let ob = Tensor::from_entries("B", &["K"], &[64], b.clone()).unwrap();
    let ca = CompressedTensor::from_entries("A", &["K"], &[64], a).unwrap();
    let cb = CompressedTensor::from_entries("B", &["K"], &[64], b).unwrap();
    let policy = IntersectPolicy::LeaderFollower { leader: 1 };
    let mut s = IntersectStream::default();
    for bounds in [None, Some((0, 64))] {
        s.restart(&[view(&ca), view(&cb)], policy, bounds);
        assert_eq!(drain_intersect(&mut s), oracle_intersection(&[&oa, &ob]));
        assert_eq!(
            s.stats(),
            CoIterStats {
                comparisons: 4,
                matches: 2
            }
        );
    }
}
