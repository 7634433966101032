//! Property tests for the owned `Tensor`'s sorted entry list: writes by
//! `set` in random order, with repeats, overwrites and explicit zeros,
//! checked against a `BTreeMap` oracle of the last value written to each
//! point, and through compression.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use teaal_fibertree::{CompressedTensor, Coord, Tensor};

const SHAPE: [u64; 3] = [3, 4, 3];

/// Up to 80 writes into a 3×4×3 tensor (36 points, so repeats are
/// common); a quarter of them write an explicit `0.0`.
fn arb_writes() -> impl Strategy<Value = Vec<(Vec<u64>, f64)>> {
    proptest::collection::vec((0u64..3, 0u64..4, 0u64..3, 0u64..4), 0..80).prop_map(|ws| {
        ws.into_iter()
            .map(|(a, b, c, v)| (vec![a, b, c], v as f64 * 1.5))
            .collect()
    })
}

fn all_points() -> impl Iterator<Item = Vec<u64>> {
    (0..SHAPE[0])
        .flat_map(|a| (0..SHAPE[1]).flat_map(move |b| (0..SHAPE[2]).map(move |c| vec![a, b, c])))
}

proptest! {
    #[test]
    fn set_matches_a_map_oracle(writes in arb_writes()) {
        let mut t = Tensor::empty("T", &["A", "B", "C"], &SHAPE);
        let mut oracle: BTreeMap<Vec<u64>, f64> = BTreeMap::new();
        for (p, v) in &writes {
            t.set(p, *v);
            oracle.insert(p.clone(), *v);
        }
        for p in all_points() {
            prop_assert_eq!(t.get(&p), oracle.get(&p).copied(), "get({:?})", p);
        }
        prop_assert_eq!(t.get(&[3, 0, 0]), None);
        prop_assert_eq!(t.get(&[0, 0]), None);
        // nnz counts explicit zeros; entries and leaves skip them.
        prop_assert_eq!(t.nnz(), oracle.len());
        let nonzero: Vec<(Vec<u64>, f64)> =
            oracle.iter().filter(|(_, v)| **v != 0.0).map(|(p, v)| (p.clone(), *v)).collect();
        prop_assert_eq!(t.entries(), nonzero.clone());
        let leaves: Vec<(Vec<Coord>, f64)> = nonzero
            .iter()
            .map(|(p, v)| (p.iter().map(|&c| Coord::Point(c)).collect(), *v))
            .collect();
        prop_assert_eq!(t.leaves(), leaves);
        // Rank d holds one element per distinct prefix of length d + 1,
        // and one fiber per element of rank d - 1.
        let want_stats = if oracle.is_empty() {
            vec![(1, 0)]
        } else {
            let elements: Vec<usize> = (1..=3)
                .map(|d| oracle.keys().map(|p| &p[..d]).collect::<BTreeSet<_>>().len())
                .collect();
            vec![(1, elements[0]), (elements[0], elements[1]), (elements[1], elements[2])]
        };
        prop_assert_eq!(t.rank_stats(), want_stats);
        // Compression keeps every stored leaf, explicit zeros included.
        let c = CompressedTensor::from_tensor(&t).expect("in shape");
        prop_assert_eq!(c.nnz(), oracle.len());
        for p in all_points() {
            prop_assert_eq!(c.get(&p), oracle.get(&p).copied(), "csf get({:?})", p);
        }
        prop_assert_eq!(c.rank_stats(), t.rank_stats());
        prop_assert_eq!(&c.to_tensor(), &t);
    }
}
