//! Property-based tests: every fibertree transform must be
//! content-preserving (paper §3.2) and every co-iteration must agree with
//! a set-theoretic reference.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use teaal_fibertree::iterate::{intersect_stream, union_stream};
use teaal_fibertree::partition::SplitKind;
use teaal_fibertree::{CompressedTensor, Coord, FiberView, IntersectPolicy};

fn arb_matrix() -> impl Strategy<Value = CompressedTensor> {
    // Up to 40 entries in a 16x12 matrix.
    proptest::collection::btree_map((0u64..16, 0u64..12), 1.0f64..100.0, 0..40).prop_map(|m| {
        let entries: Vec<(Vec<u64>, f64)> =
            m.into_iter().map(|((r, c), v)| (vec![r, c], v)).collect();
        CompressedTensor::from_entries("A", &["M", "K"], &[16, 12], entries)
            .expect("entries in shape")
    })
}

fn arb_3tensor() -> impl Strategy<Value = CompressedTensor> {
    proptest::collection::btree_map((0u64..8, 0u64..8, 0u64..8), 1.0f64..100.0, 0..50).prop_map(
        |m| {
            let entries: Vec<(Vec<u64>, f64)> = m
                .into_iter()
                .map(|((a, b, c), v)| (vec![a, b, c], v))
                .collect();
            CompressedTensor::from_entries("T", &["M", "K", "N"], &[8, 8, 8], entries)
                .expect("entries in shape")
        },
    )
}

/// A one-rank tensor: a single fiber of up to 50 coordinates in 0..200.
fn arb_fiber() -> impl Strategy<Value = CompressedTensor> {
    proptest::collection::btree_set(0u64..200, 0..50).prop_map(|coords| {
        let entries = coords.into_iter().map(|c| (vec![c], c as f64)).collect();
        CompressedTensor::from_entries("F", &["K"], &[200], entries).expect("in shape")
    })
}

/// Canonical content signature: each leaf keyed by `(root rank letter,
/// coordinate)` pairs sorted by rank letter. Derived upper partition
/// ranks (suffix digit ≥ 1, e.g. `M1`, `MK1`) are grouping markers and
/// contribute nothing; level-0 and flattened ranks carry the original
/// coordinates, decomposed per root letter (`MK0` → `M`, `K`).
fn content(t: &CompressedTensor) -> BTreeMap<Vec<(char, u64)>, f64> {
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

/// The coordinates of a one-rank tensor.
fn coords(t: &CompressedTensor) -> BTreeSet<u64> {
    t.entries().into_iter().map(|(p, _)| p[0]).collect()
}

/// Each top-rank partition's coordinate range (first and last lower
/// coordinate) and occupancy.
fn partitions(t: &CompressedTensor) -> Vec<(u64, u64, usize)> {
    let root = t.root_fiber_view().expect("non-scalar");
    let point = |c: Coord| c.as_point().expect("points");
    (0..root.occupancy())
        .map(|p| {
            let part = root.payload_at(p).as_fiber().expect("partition fibers");
            let n = part.occupancy();
            (point(part.coord_at(0)), point(part.coord_at(n - 1)), n)
        })
        .collect()
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
        // Splitting each pair coordinate back into its components gives
        // the original entries.
        let split: Vec<(Vec<u64>, f64)> = flat
            .leaves()
            .into_iter()
            .map(|(path, v)| {
                let parts = path[0].components().into_iter().map(|c| c.as_point().expect("points"));
                (parts.collect(), v)
            })
            .collect();
        prop_assert_eq!(split, t.entries());
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
        let p = f.partition_rank("K", SplitKind::UniformOccupancy(size), "K1", "K0")
            .expect("nonzero size");
        let occs: Vec<usize> = partitions(&p).into_iter().map(|(_, _, n)| n).collect();
        // Every partition except the last holds exactly `size` elements.
        for (i, occ) in occs.iter().enumerate() {
            if i + 1 < occs.len() {
                prop_assert_eq!(*occ, size);
            } else {
                prop_assert!(*occ <= size && *occ > 0);
            }
        }
        prop_assert_eq!(occs.iter().sum::<usize>(), f.nnz());
        // A fiber led by its own boundaries splits the same way.
        let bounds = f.occupancy_boundaries_by_path("K", size).expect("nonzero size");
        let led = f.partition_rank("K", SplitKind::BoundariesByPath(bounds), "K1", "K0")
            .expect("boundary split");
        prop_assert_eq!(led, p);
    }

    #[test]
    fn flatten_then_occupancy_balances_globally(t in arb_3tensor(), size in 1usize..8) {
        let flat = t.flatten_rank("M", "MK").expect("flatten");
        let p = flat
            .partition_rank("MK", SplitKind::UniformOccupancy(size), "MK1", "MK0")
            .expect("split");
        prop_assert_eq!(content(&t), content(&p));
        if let Some(root) = p.root_fiber_view() {
            let occs: Vec<usize> = (0..root.occupancy())
                .map(|i| root.payload_at(i).as_fiber().expect("partition fibers").occupancy())
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
        let (ca, cb) = (coords(&a), coords(&b));
        let want: Vec<u64> = ca.intersection(&cb).copied().collect();
        for policy in [
            IntersectPolicy::TwoFinger,
            IntersectPolicy::LeaderFollower { leader: 0 },
            IntersectPolicy::LeaderFollower { leader: 1 },
            IntersectPolicy::SkipAhead,
        ] {
            let mut s = intersect_stream(&[view(&a), view(&b)], policy);
            let got: Vec<u64> =
                s.by_ref().map(|(c, _)| c.as_point().expect("points")).collect();
            prop_assert_eq!(&got, &want, "{:?}", policy);
            prop_assert_eq!(s.stats().matches as usize, want.len());
        }
    }

    #[test]
    fn union_agrees_with_set_reference(a in arb_fiber(), b in arb_fiber()) {
        let (ca, cb) = (coords(&a), coords(&b));
        let want: Vec<u64> = ca.union(&cb).copied().collect();
        let got: Vec<u64> = union_stream(&[view(&a), view(&b)])
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
        let matches = |views: &[FiberView<'_>]| -> Vec<u64> {
            intersect_stream(views, IntersectPolicy::TwoFinger)
                .map(|(x, _)| x.as_point().expect("points"))
                .collect()
        };
        prop_assert_eq!(
            matches(&[view(&a), view(&b), view(&c)]),
            matches(&[view(&c), view(&b), view(&a)])
        );
    }

    #[test]
    fn leader_follower_boundaries_align_followers(
        leader in arb_fiber(),
        follower in arb_fiber(),
        size in 1usize..10,
    ) {
        prop_assume!(leader.nnz() > 0);
        let bounds = leader.occupancy_boundaries_by_path("K", size).expect("nonzero");
        let starts: Vec<u64> = bounds[&vec![]]
            .iter()
            .map(|c| c.as_point().expect("points"))
            .collect();
        let p = follower
            .partition_rank("K", SplitKind::BoundariesByPath(bounds), "K1", "K0")
            .expect("boundary split");
        let parts = partitions(&p);
        // Content-preservation: all follower elements survive.
        prop_assert_eq!(parts.iter().map(|&(_, _, n)| n).sum::<usize>(), follower.nnz());
        // Each partition past a leading group lies inside one leader
        // interval [starts[i], starts[i + 1]), so ranges never overlap.
        let mut last_max: Option<u64> = None;
        for &(lo, hi, _) in &parts {
            if let Some(lm) = last_max {
                prop_assert!(lo > lm);
            }
            if lo >= starts[0] {
                let i = starts.partition_point(|&s| s <= lo) - 1;
                prop_assert!(starts.get(i + 1).map_or(true, |&next| hi < next));
            }
            last_max = Some(hi);
        }
    }
}
