//! Property-based tests for the dual storage representations: owned
//! fibertrees and compressed (CSF) storage must be observationally
//! identical — same entries after a round-trip, same match streams, and
//! the same [`CoIterStats`] under every intersection policy.

use std::collections::BTreeMap;

use proptest::prelude::*;
use teaal_fibertree::iterate::{
    intersect2, intersect2_stream, intersect_many, intersect_stream, union_many, union_stream,
    CoIterStats, IntersectStream, UnionStream,
};
use teaal_fibertree::{CompressedTensor, Coord, FiberView, IntersectPolicy, Tensor, TensorData};

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

/// A sparse coordinate set for one fiber, as a 1-rank tensor in both
/// representations (same content, independent constructions).
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

const POLICIES: [IntersectPolicy; 3] = [
    IntersectPolicy::TwoFinger,
    IntersectPolicy::LeaderFollower { leader: 0 },
    IntersectPolicy::SkipAhead,
];

/// Drains an intersection through its buffer-filling API.
fn drain_intersect(s: &mut IntersectStream<'_>) -> Vec<(Coord, Vec<usize>)> {
    let mut rows = Vec::new();
    while let Some(key) = s.advance() {
        rows.push((key.to_coord(), s.positions().to_vec()));
    }
    rows
}

/// Drains a union through its buffer-filling API.
fn drain_union(s: &mut UnionStream<'_>) -> Vec<(Coord, Vec<Option<usize>>)> {
    let mut rows = Vec::new();
    while let Some(key) = s.advance() {
        rows.push((key.to_coord(), s.positions().to_vec()));
    }
    rows
}

/// Consecutive `[lo, hi)` windows covering the coordinate space `[0, 200)`
/// of [`arb_vector_pair`], cut at `cuts`.
fn windows(cuts: &std::collections::BTreeSet<u64>) -> Vec<(u64, u64)> {
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
    /// `from_entries → compress → iterate` returns the same entries as
    /// the owned construction, and decompression is lossless.
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
        // Compressing the owned tree lands on the identical arrays.
        prop_assert_eq!(&CompressedTensor::from_tensor(&t).expect("points only"), &c);
    }

    /// Two-input intersection: match stream and stats agree across
    /// representations (and mixed pairs) for every policy.
    #[test]
    fn intersect2_is_representation_independent(
        (oa, ca) in arb_vector_pair(),
        (ob, cb) in arb_vector_pair(),
    ) {
        let (da, db) = (TensorData::Compressed(ca), TensorData::Compressed(cb));
        let (va, vb) = (
            da.root_fiber_view().expect("1-tensor"),
            db.root_fiber_view().expect("1-tensor"),
        );
        for policy in POLICIES {
            let (mo, so) = intersect2(
                oa.root_fiber().expect("1-tensor"),
                ob.root_fiber().expect("1-tensor"),
                policy,
            );
            // Compressed × compressed.
            let mut s = intersect2_stream(va, vb, policy);
            let mc: Vec<_> = s.by_ref().collect();
            prop_assert_eq!(&mc, &mo, "{:?}", policy);
            prop_assert_eq!(s.stats(), so.clone(), "{:?}", policy);
            // Mixed: owned leader, compressed follower.
            let mut s = intersect2_stream(
                FiberView::Owned(oa.root_fiber().expect("1-tensor")),
                vb,
                policy,
            );
            let mm: Vec<_> = s.by_ref().collect();
            prop_assert_eq!(&mm, &mo, "mixed {:?}", policy);
            prop_assert_eq!(s.stats(), so, "mixed {:?}", policy);
        }
    }

    /// Multi-input intersection cascades charge identical stats lazily
    /// and eagerly, in both representations.
    #[test]
    fn intersect_many_is_representation_independent(
        (oa, ca) in arb_vector_pair(),
        (ob, cb) in arb_vector_pair(),
        (oc, cc) in arb_vector_pair(),
    ) {
        let datas = [
            TensorData::Compressed(ca),
            TensorData::Compressed(cb),
            TensorData::Compressed(cc),
        ];
        let views: Vec<FiberView<'_>> = datas
            .iter()
            .map(|d| d.root_fiber_view().expect("1-tensor"))
            .collect();
        for policy in POLICIES {
            let (mo, so) = intersect_many(
                &[
                    oa.root_fiber().expect("1-tensor"),
                    ob.root_fiber().expect("1-tensor"),
                    oc.root_fiber().expect("1-tensor"),
                ],
                policy,
            );
            let mut s = intersect_stream(&views, policy);
            let mc: Vec<_> = s.by_ref().collect();
            prop_assert_eq!(mc, mo, "{:?}", policy);
            prop_assert_eq!(s.stats(), so, "{:?}", policy);
        }
    }

    /// Union: rows and stats agree across representations.
    #[test]
    fn union_is_representation_independent(
        (oa, ca) in arb_vector_pair(),
        (ob, cb) in arb_vector_pair(),
    ) {
        let (uo, so) = union_many(&[
            oa.root_fiber().expect("1-tensor"),
            ob.root_fiber().expect("1-tensor"),
        ]);
        let (da, db) = (TensorData::Compressed(ca), TensorData::Compressed(cb));
        let mut s = union_stream(&[
            da.root_fiber_view().expect("1-tensor"),
            db.root_fiber_view().expect("1-tensor"),
        ]);
        let uc: Vec<_> = s.by_ref().collect();
        prop_assert_eq!(uc, uo);
        prop_assert_eq!(s.stats(), so);
    }

    /// The buffer-filling intersection — one stream re-armed for every
    /// case, as the engine reuses one per loop level — yields the eager
    /// cascade's coordinates, positions and stats, unbounded over one to
    /// three fibers and bounded (one to two fibers) over any split of the
    /// coordinate space, whose per-shard stats sum to the unbounded
    /// totals.
    #[test]
    fn reused_intersect_streams_match_the_eager_cascade(
        (oa, ca) in arb_vector_pair(),
        (ob, cb) in arb_vector_pair(),
        (oc, cc) in arb_vector_pair(),
        cuts in proptest::collection::btree_set(0u64..200, 0..4),
    ) {
        let datas = [
            TensorData::Compressed(ca),
            TensorData::Compressed(cb),
            TensorData::Compressed(cc),
        ];
        let owned = [&oa, &ob, &oc].map(|t| t.root_fiber().expect("1-tensor"));
        let compressed: Vec<FiberView<'_>> = datas
            .iter()
            .map(|d| d.root_fiber_view().expect("1-tensor"))
            .collect();
        let mixed = [FiberView::Owned(owned[0]), compressed[1], FiberView::Owned(owned[2])];
        let mut s = IntersectStream::default();
        for policy in [
            IntersectPolicy::TwoFinger,
            IntersectPolicy::LeaderFollower { leader: 0 },
            IntersectPolicy::LeaderFollower { leader: 1 },
            IntersectPolicy::SkipAhead,
        ] {
            for n in 1..=3 {
                let (rows, stats) = intersect_many(&owned[..n], policy);
                for views in [&compressed[..n], &mixed[..n]] {
                    s.restart(views, policy, None);
                    prop_assert_eq!(&drain_intersect(&mut s), &rows, "{:?} n={}", policy, n);
                    prop_assert_eq!(s.stats(), stats.clone(), "{:?} n={}", policy, n);
                    if n > 2 {
                        continue;
                    }
                    let mut shard_rows = Vec::new();
                    let mut shard_stats = CoIterStats::default();
                    for (lo, hi) in windows(&cuts) {
                        s.restart(views, policy, Some((lo, hi)));
                        shard_rows.extend(drain_intersect(&mut s));
                        shard_stats = sum_stats(&shard_stats, &s.stats());
                    }
                    prop_assert_eq!(&shard_rows, &rows, "{:?} n={} cuts={:?}", policy, n, cuts);
                    prop_assert_eq!(&shard_stats, &stats, "{:?} n={} cuts={:?}", policy, n, cuts);
                }
            }
        }
    }

    /// The buffer-filling union matches the eager union, unbounded and
    /// bounded, for one to three fibers; per-shard stats sum to the
    /// unbounded totals.
    #[test]
    fn reused_union_streams_match_the_eager_union(
        (oa, ca) in arb_vector_pair(),
        (ob, cb) in arb_vector_pair(),
        (oc, cc) in arb_vector_pair(),
        cuts in proptest::collection::btree_set(0u64..200, 0..4),
    ) {
        let datas = [
            TensorData::Compressed(ca),
            TensorData::Compressed(cb),
            TensorData::Compressed(cc),
        ];
        let owned = [&oa, &ob, &oc].map(|t| t.root_fiber().expect("1-tensor"));
        let compressed: Vec<FiberView<'_>> = datas
            .iter()
            .map(|d| d.root_fiber_view().expect("1-tensor"))
            .collect();
        let mixed = [compressed[0], FiberView::Owned(owned[1]), compressed[2]];
        let mut s = UnionStream::default();
        for n in 1..=3 {
            let (rows, stats) = union_many(&owned[..n]);
            for views in [&compressed[..n], &mixed[..n]] {
                s.restart(views, None);
                prop_assert_eq!(&drain_union(&mut s), &rows, "n={}", n);
                prop_assert_eq!(s.stats(), stats.clone(), "n={}", n);
                let mut shard_rows = Vec::new();
                let mut shard_stats = CoIterStats::default();
                for (lo, hi) in windows(&cuts) {
                    s.restart(views, Some((lo, hi)));
                    shard_rows.extend(drain_union(&mut s));
                    shard_stats = sum_stats(&shard_stats, &s.stats());
                }
                prop_assert_eq!(&shard_rows, &rows, "n={} cuts={:?}", n, cuts);
                prop_assert_eq!(&shard_stats, &stats, "n={} cuts={:?}", n, cuts);
            }
        }
    }

    /// Hierarchical cursors: walking a 3-tensor leaf-by-leaf through
    /// views visits identical coordinates and values either way.
    #[test]
    fn hierarchical_view_walks_agree(entries in arb_coo3()) {
        let t = Tensor::from_entries("T", &["M", "K", "N"], &[8, 8, 8], entries.clone())
            .expect("in shape");
        let c = CompressedTensor::from_entries("T", &["M", "K", "N"], &[8, 8, 8], entries)
            .expect("in shape");
        let (dt, dc) = (TensorData::Owned(t), TensorData::Compressed(c));
        fn leaves(d: &TensorData) -> BTreeMap<Vec<u64>, f64> {
            let mut out = BTreeMap::new();
            fn walk(v: FiberView<'_>, path: &mut Vec<u64>, out: &mut BTreeMap<Vec<u64>, f64>) {
                for pos in 0..v.occupancy() {
                    path.push(v.coord_at(pos).as_point().expect("points"));
                    match v.payload_at(pos) {
                        teaal_fibertree::PayloadView::Val(x) => {
                            out.insert(path.clone(), x);
                        }
                        teaal_fibertree::PayloadView::Fiber(child) => walk(child, path, out),
                    }
                    path.pop();
                }
            }
            if let Some(root) = d.root_fiber_view() {
                walk(root, &mut Vec::new(), &mut out);
            }
            out
        }
        prop_assert_eq!(leaves(&dt), leaves(&dc));
    }
}

/// The eager `LeaderFollower { leader: 1 }` variant has an asymmetric
/// swap path; pin it separately with plain cases (proptest above covers
/// leader 0 and the symmetric policies).
#[test]
fn leader_one_swaps_positions_identically() {
    let entries_a: Vec<(Vec<u64>, f64)> =
        [1u64, 4, 9, 30].iter().map(|&c| (vec![c], 1.0)).collect();
    let entries_b: Vec<(Vec<u64>, f64)> = [4u64, 9, 10].iter().map(|&c| (vec![c], 2.0)).collect();
    let oa = Tensor::from_entries("A", &["K"], &[64], entries_a.clone()).unwrap();
    let ob = Tensor::from_entries("B", &["K"], &[64], entries_b.clone()).unwrap();
    let ca = TensorData::Compressed(
        CompressedTensor::from_entries("A", &["K"], &[64], entries_a).unwrap(),
    );
    let cb = TensorData::Compressed(
        CompressedTensor::from_entries("B", &["K"], &[64], entries_b).unwrap(),
    );
    let policy = IntersectPolicy::LeaderFollower { leader: 1 };
    let (mo, so) = intersect2(oa.root_fiber().unwrap(), ob.root_fiber().unwrap(), policy);
    let mut s = intersect2_stream(
        ca.root_fiber_view().unwrap(),
        cb.root_fiber_view().unwrap(),
        policy,
    );
    let mc: Vec<_> = s.by_ref().collect();
    assert_eq!(mc, mo);
    assert_eq!(s.stats(), so);
}
