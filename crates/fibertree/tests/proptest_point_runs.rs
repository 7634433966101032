//! Property tests for the raw-run kernels of [`IntersectStream`]: one or
//! two compressed point fibers are scanned, merged or probed as plain
//! integer runs, and must give exactly what the generic cascade gives —
//! the same coordinates, the same per-fiber positions, and the same
//! `matches` and `comparisons` — under every policy, over `u32` and `u64`
//! coordinate stores. Rows are also checked against a `BTreeMap` oracle
//! of each side's coordinates.
//!
//! The cascade is reached by shape: a bounded stream over the same
//! fibers whose window covers every coordinate.

use std::collections::BTreeMap;

use proptest::prelude::*;
use teaal_fibertree::iterate::{CoIterStats, IntersectStream};
use teaal_fibertree::{CompressedTensor, Coord, FiberView, IntersectPolicy, PointRun};

const POLICIES: [IntersectPolicy; 4] = [
    IntersectPolicy::TwoFinger,
    IntersectPolicy::LeaderFollower { leader: 0 },
    IntersectPolicy::LeaderFollower { leader: 1 },
    IntersectPolicy::SkipAhead,
];

/// One side of a co-iteration: its coordinates and whether its level is
/// stored full-width.
#[derive(Clone, Debug)]
struct Side {
    coords: Vec<u64>,
    wide: bool,
}

/// Past the `u32` range, so wide stores hold coordinates a narrow store
/// cannot.
const HIGH: u64 = 1 << 35;

/// A pair of sides in one of five shapes: overlapping, disjoint
/// (interleaved evens and odds), one side exhausting early (all its
/// coordinates below the other's last), one side empty, or both wide with
/// every coordinate above the `u32` range.
fn arb_sides() -> impl Strategy<Value = (Side, Side)> {
    (
        0u8..5,
        (
            proptest::collection::btree_set(0u64..120, 0..40),
            proptest::collection::btree_set(0u64..120, 0..40),
        ),
        (0u8..2, 0u8..2),
    )
        .prop_map(|(shape, (a, b), (wa, wb))| {
            let mut a: Vec<u64> = a.into_iter().collect();
            let mut b: Vec<u64> = b.into_iter().collect();
            let (mut wa, mut wb) = (wa == 1, wb == 1);
            match shape {
                1 => {
                    a.iter_mut().for_each(|c| *c *= 2);
                    b.iter_mut().for_each(|c| *c = *c * 2 + 1);
                }
                2 => {
                    a.retain(|&c| c < 20);
                    b.push(500);
                }
                3 => a.clear(),
                4 => {
                    a.iter_mut().for_each(|c| *c += HIGH);
                    b.iter_mut().for_each(|c| *c += HIGH);
                    (wa, wb) = (true, true);
                }
                _ => {}
            }
            b.sort_unstable();
            b.dedup();
            (
                Side {
                    coords: a,
                    wide: wa,
                },
                Side {
                    coords: b,
                    wide: wb,
                },
            )
        })
}

impl Side {
    fn extent(&self) -> u64 {
        if self.wide {
            1 << 40
        } else {
            1000
        }
    }

    fn compressed(&self) -> CompressedTensor {
        let entries = self.coords.iter().map(|&c| (vec![c], 1.0)).collect();
        CompressedTensor::from_entries("F", &["K"], &[self.extent()], entries)
            .expect("coordinates are in shape")
    }
}

type Rows = Vec<(Coord, Vec<usize>)>;

/// The oracle: every coordinate all `sides` hold, with its position in
/// each.
fn oracle(sides: &[&Side]) -> Rows {
    let pos: Vec<BTreeMap<u64, usize>> = sides
        .iter()
        .map(|s| s.coords.iter().enumerate().map(|(i, &c)| (c, i)).collect())
        .collect();
    pos[0]
        .keys()
        .filter(|c| pos.iter().all(|m| m.contains_key(c)))
        .map(|c| (Coord::Point(*c), pos.iter().map(|m| m[c]).collect()))
        .collect()
}

/// Drains a stream through its buffer-filling API.
fn drain(s: &mut IntersectStream<'_>) -> (Rows, CoIterStats) {
    let mut rows = Vec::new();
    while let Some(key) = s.advance() {
        rows.push((key.to_coord(), s.positions().to_vec()));
    }
    // A drained stream stays drained and charges nothing more.
    let stats = s.stats();
    assert!(s.advance().is_none());
    assert_eq!(s.stats(), stats);
    (rows, stats)
}

fn run(
    fibers: &[FiberView<'_>],
    policy: IntersectPolicy,
    bounds: Option<(u64, u64)>,
) -> (Rows, CoIterStats) {
    let mut s = IntersectStream::default();
    s.restart(fibers, policy, bounds);
    drain(&mut s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Raw-run kernels equal the generic cascade on one and two fibers.
    #[test]
    fn point_runs_match_the_generic_cascade((a, b) in arb_sides()) {
        let (da, db) = (a.compressed(), b.compressed());
        let runs = [
            da.root_fiber_view().expect("1-tensor"),
            db.root_fiber_view().expect("1-tensor"),
        ];
        let sides = [&a, &b];
        for (view, side) in runs.iter().zip(sides) {
            // Unbounded, the fibers take the run kernels.
            match view.point_run() {
                Some(PointRun::U64(r)) => prop_assert!(side.wide && r.len() == side.coords.len()),
                Some(PointRun::U32(r)) => prop_assert!(!side.wide && r.len() == side.coords.len()),
                None => prop_assert!(false, "a compressed point fiber has a run"),
            }
        }
        for policy in POLICIES {
            for pick in [&[0usize][..], &[1], &[0, 1], &[1, 0]] {
                let fibers: Vec<FiberView<'_>> = pick.iter().map(|&i| runs[i]).collect();
                let picked: Vec<&Side> = pick.iter().map(|&i| sides[i]).collect();
                let got = run(&fibers, policy, None);
                prop_assert_eq!(&got.0, &oracle(&picked), "{:?} {:?} vs oracle", policy, pick);
                prop_assert_eq!(
                    &got,
                    &run(&fibers, policy, Some((0, u64::MAX))),
                    "{:?} {:?} vs bounded", policy, pick
                );
                prop_assert_eq!(got.1.matches, got.0.len() as u64);
            }
        }
    }

    /// A re-armed stream forgets its previous run: restarting over new
    /// fibers gives what a fresh stream gives.
    #[test]
    fn restarted_run_streams_start_fresh((a, b) in arb_sides()) {
        let (da, db) = (a.compressed(), b.compressed());
        let (va, vb) = (
            da.root_fiber_view().expect("1-tensor"),
            db.root_fiber_view().expect("1-tensor"),
        );
        for policy in POLICIES {
            let mut s = IntersectStream::default();
            s.restart(&[va, vb], policy, None);
            // Consume part of the stream, then re-arm it the other way
            // round.
            let _ = s.advance();
            s.restart(&[vb, va], policy, None);
            let reused = drain(&mut s);
            prop_assert_eq!(reused, run(&[vb, va], policy, None), "{:?}", policy);
        }
    }
}

/// Both widths and both orders of a fixed skewed pair, so the run
/// kernels' mixed-width arms are covered even if the generator were to
/// miss one.
#[test]
fn mixed_width_pairs_match_the_cascade() {
    let narrow = Side {
        coords: vec![1, 4, 9, 16, 25, 36],
        wide: false,
    };
    let wide = Side {
        coords: (0..40).collect(),
        wide: true,
    };
    let (dn, dw) = (narrow.compressed(), wide.compressed());
    let (vn, vw) = (dn.root_fiber_view().unwrap(), dw.root_fiber_view().unwrap());
    for policy in POLICIES {
        for (runs, sides) in [([vn, vw], [&narrow, &wide]), ([vw, vn], [&wide, &narrow])] {
            let got = run(&runs, policy, None);
            assert_eq!(got, run(&runs, policy, Some((0, u64::MAX))), "{policy:?}");
            assert_eq!(got.0, oracle(&sides), "{policy:?}");
            assert_eq!(got.0.len(), 6);
        }
    }
}

#[test]
fn empty_stream_has_no_matches_and_no_comparisons() {
    let empty = Side {
        coords: vec![],
        wide: false,
    };
    let some = Side {
        coords: vec![3, 5],
        wide: false,
    };
    let (de, ds) = (empty.compressed(), some.compressed());
    let (ve, vs) = (de.root_fiber_view().unwrap(), ds.root_fiber_view().unwrap());
    for policy in POLICIES {
        for fibers in [&[ve][..], &[ve, vs][..], &[vs, ve][..]] {
            let (rows, stats) = run(fibers, policy, None);
            assert!(rows.is_empty());
            // A merge stops at the first exhausted side; a leader probes
            // an empty follower once per element all the same.
            let probes = match (policy, fibers.len()) {
                (IntersectPolicy::LeaderFollower { .. }, 2) => fibers[0].occupancy() as u64,
                _ => 0,
            };
            assert_eq!(stats.comparisons, probes, "{policy:?}");
            assert_eq!(stats.matches, 0);
        }
    }
    // One fiber co-iterates without an intersection unit.
    let (rows, stats) = run(&[vs], IntersectPolicy::TwoFinger, None);
    assert_eq!(rows.len(), 2);
    assert_eq!((stats.comparisons, stats.matches), (0, 2));
}
