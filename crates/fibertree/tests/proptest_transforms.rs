//! Property-based tests: every fibertree transform must be
//! content-preserving (paper §3.2) and every co-iteration must agree with
//! a set-theoretic reference.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use teaal_fibertree::iterate::{intersect_stream, union_stream};
use teaal_fibertree::partition::{occupancy_boundaries, split_by_boundaries, SplitKind};
use teaal_fibertree::{CompressedTensor, Fiber, FiberView, IntersectPolicy, Shape, Tensor};

fn arb_matrix() -> impl Strategy<Value = Tensor> {
    // Up to 40 entries in a 16x12 matrix.
    proptest::collection::btree_map((0u64..16, 0u64..12), 1.0f64..100.0, 0..40).prop_map(|m| {
        let entries: Vec<(Vec<u64>, f64)> =
            m.into_iter().map(|((r, c), v)| (vec![r, c], v)).collect();
        Tensor::from_entries("A", &["M", "K"], &[16, 12], entries).expect("entries in shape")
    })
}

fn arb_3tensor() -> impl Strategy<Value = Tensor> {
    proptest::collection::btree_map((0u64..8, 0u64..8, 0u64..8), 1.0f64..100.0, 0..50).prop_map(
        |m| {
            let entries: Vec<(Vec<u64>, f64)> = m
                .into_iter()
                .map(|((a, b, c), v)| (vec![a, b, c], v))
                .collect();
            Tensor::from_entries("T", &["M", "K", "N"], &[8, 8, 8], entries)
                .expect("entries in shape")
        },
    )
}

fn arb_fiber() -> impl Strategy<Value = Fiber> {
    proptest::collection::btree_set(0u64..200, 0..50).prop_map(|coords| {
        Fiber::from_pairs(
            Shape::Interval(200),
            coords.into_iter().map(|c| (c, c as f64)),
        )
        .expect("sorted unique coords")
    })
}

/// Canonical content signature: each leaf keyed by `(root rank letter,
/// coordinate)` pairs sorted by rank letter. Derived upper partition
/// ranks (suffix digit ≥ 1, e.g. `M1`, `MK1`) are grouping markers and
/// contribute nothing; level-0 and flattened ranks carry the original
/// coordinates, decomposed per root letter (`MK0` → `M`, `K`).
fn content(t: &Tensor) -> BTreeMap<Vec<(char, u64)>, f64> {
    t.leaves()
        .into_iter()
        .map(|(path, v)| {
            let mut key: Vec<(char, u64)> = Vec::new();
            for (rank, coord) in t.rank_ids().iter().zip(&path) {
                let base: String = rank.chars().filter(|c| c.is_alphabetic()).collect();
                let suffix: String = rank.chars().filter(|c| c.is_numeric()).collect();
                if !suffix.is_empty() && suffix != "0" {
                    continue; // upper partition rank: marker only
                }
                let comps = coord.components();
                assert_eq!(base.len(), comps.len(), "one component per root letter");
                for (letter, c) in base.chars().zip(comps) {
                    key.push((letter, c.as_point().expect("point components")));
                }
            }
            key.sort();
            (key, v)
        })
        .collect()
}

/// The compressed form of a one-rank fiber, which the co-iteration
/// streams read.
fn csf(f: &Fiber) -> CompressedTensor {
    let entries = f
        .iter()
        .map(|e| (vec![e.coord.as_point().expect("points")], 1.0))
        .collect();
    CompressedTensor::from_entries("F", &["K"], &[f.shape().extent()], entries).expect("in shape")
}

fn view(t: &CompressedTensor) -> FiberView<'_> {
    t.root_fiber_view().expect("1-tensor")
}

proptest! {
    #[test]
    fn swizzle_preserves_content(t in arb_matrix()) {
        let s = t.swizzle(&["K", "M"]).expect("valid permutation");
        prop_assert_eq!(content(&t), content(&s));
        prop_assert_eq!(t.nnz(), s.nnz());
        // Swizzling twice returns the original.
        let back = s.swizzle(&["M", "K"]).expect("valid permutation");
        prop_assert_eq!(back, t);
    }

    #[test]
    fn flatten_preserves_content_and_inverts(t in arb_matrix()) {
        let flat = t.flatten_rank("M", "MK").expect("two ranks flatten");
        prop_assert_eq!(content(&t), content(&flat));
        let back = flat
            .unflatten_rank("MK", &["M", "K"], &[Shape::Interval(16), Shape::Interval(12)])
            .expect("unflatten");
        prop_assert_eq!(back, t);
    }

    #[test]
    fn shape_partition_preserves_content(t in arb_matrix(), chunk in 1u64..20) {
        let p = t.partition_rank("K", SplitKind::UniformShape(chunk), "K1", "K0")
            .expect("shape split");
        prop_assert_eq!(content(&t), content(&p));
        prop_assert_eq!(t.nnz(), p.nnz());
    }

    #[test]
    fn occupancy_partition_preserves_content(t in arb_matrix(), size in 1usize..10) {
        let p = t.partition_rank("M", SplitKind::UniformOccupancy(size), "M1", "M0")
            .expect("occupancy split");
        prop_assert_eq!(content(&t), content(&p));
    }

    #[test]
    fn occupancy_partitions_are_balanced(f in arb_fiber(), size in 1usize..16) {
        let bounds = occupancy_boundaries(&f, size).expect("nonzero size");
        let parts = split_by_boundaries(&f, &bounds);
        let occs: Vec<usize> = parts
            .iter()
            .map(|e| e.payload.as_fiber().expect("partitions are fibers").occupancy())
            .collect();
        // Every partition except the last holds exactly `size` elements.
        for (i, occ) in occs.iter().enumerate() {
            if i + 1 < occs.len() {
                prop_assert_eq!(*occ, size);
            } else {
                prop_assert!(*occ <= size && *occ > 0);
            }
        }
        prop_assert_eq!(occs.iter().sum::<usize>(), f.occupancy());
    }

    #[test]
    fn flatten_then_occupancy_balances_globally(t in arb_3tensor(), size in 1usize..8) {
        let flat = t.flatten_rank("M", "MK").expect("flatten");
        let p = flat
            .partition_rank("MK", SplitKind::UniformOccupancy(size), "MK1", "MK0")
            .expect("split");
        prop_assert_eq!(content(&t), content(&p));
        if let Some(root) = p.root_fiber() {
            let occs: Vec<usize> = root
                .iter()
                .map(|e| e.payload.as_fiber().expect("partition fibers").occupancy())
                .collect();
            for (i, occ) in occs.iter().enumerate() {
                if i + 1 < occs.len() {
                    prop_assert_eq!(*occ, size, "interior partitions are exactly sized");
                }
            }
        }
    }

    #[test]
    fn intersection_policies_agree_with_set_reference(
        a in arb_fiber(),
        b in arb_fiber(),
    ) {
        let ca: BTreeSet<u64> =
            a.iter().map(|e| e.coord.as_point().expect("points")).collect();
        let cb: BTreeSet<u64> =
            b.iter().map(|e| e.coord.as_point().expect("points")).collect();
        let want: Vec<u64> = ca.intersection(&cb).copied().collect();
        for policy in [
            IntersectPolicy::TwoFinger,
            IntersectPolicy::LeaderFollower { leader: 0 },
            IntersectPolicy::LeaderFollower { leader: 1 },
            IntersectPolicy::SkipAhead,
        ] {
            let (ta, tb) = (csf(&a), csf(&b));
            let mut s = intersect_stream(&[view(&ta), view(&tb)], policy);
            let got: Vec<u64> =
                s.by_ref().map(|(c, _)| c.as_point().expect("points")).collect();
            prop_assert_eq!(&got, &want, "{:?}", policy);
            prop_assert_eq!(s.stats().matches as usize, want.len());
        }
    }

    #[test]
    fn union_agrees_with_set_reference(a in arb_fiber(), b in arb_fiber()) {
        let ca: BTreeSet<u64> =
            a.iter().map(|e| e.coord.as_point().expect("points")).collect();
        let cb: BTreeSet<u64> =
            b.iter().map(|e| e.coord.as_point().expect("points")).collect();
        let want: Vec<u64> = ca.union(&cb).copied().collect();
        let (ta, tb) = (csf(&a), csf(&b));
        let got: Vec<u64> = union_stream(&[view(&ta), view(&tb)])
            .map(|(c, _)| c.as_point().expect("points"))
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn three_way_intersection_is_associative(
        a in arb_fiber(),
        b in arb_fiber(),
        c in arb_fiber(),
    ) {
        let (ta, tb, tc) = (csf(&a), csf(&b), csf(&c));
        let coords = |views: &[FiberView<'_>]| -> Vec<u64> {
            intersect_stream(views, IntersectPolicy::TwoFinger)
                .map(|(x, _)| x.as_point().expect("points"))
                .collect()
        };
        prop_assert_eq!(
            coords(&[view(&ta), view(&tb), view(&tc)]),
            coords(&[view(&tc), view(&tb), view(&ta)])
        );
    }

    #[test]
    fn leader_follower_boundaries_align_followers(
        leader in arb_fiber(),
        follower in arb_fiber(),
        size in 1usize..10,
    ) {
        prop_assume!(leader.occupancy() > 0);
        let bounds = occupancy_boundaries(&leader, size).expect("nonzero");
        let parts = split_by_boundaries(&follower, &bounds);
        // Content-preservation: all follower elements survive.
        let total: usize = parts
            .iter()
            .map(|e| e.payload.as_fiber().expect("fibers").occupancy())
            .sum();
        prop_assert_eq!(total, follower.occupancy());
        // Partition coordinate ranges never overlap.
        let mut last_max: Option<u64> = None;
        for e in parts.iter() {
            let f = e.payload.as_fiber().expect("fibers");
            let lo = f.iter().next().expect("non-empty").coord.as_point().expect("pt");
            let hi = f.iter().last().expect("non-empty").coord.as_point().expect("pt");
            if let Some(lm) = last_max {
                prop_assert!(lo > lm);
            }
            last_max = Some(hi);
        }
    }
}
