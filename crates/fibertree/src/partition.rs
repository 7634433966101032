//! Rank partitioning: shape-based and occupancy-based splitting (§3.2.1).
//!
//! Partitioning separates one rank into two: an upper rank whose coordinates
//! denote the first legal coordinate of the fiber below, and a lower rank
//! holding the original elements. Shape-based (dense-style) partitioning
//! splits at fixed coordinate boundaries; occupancy-based partitioning —
//! the paper's sparsity-aware strategy — splits so each partition holds the
//! same number of elements, using a leader tensor's boundaries so that
//! co-iterated followers stay aligned.

use std::sync::OnceLock;

use crate::compressed::{CompressedTensor, Level};
use crate::coord::Coord;
use crate::error::FibertreeError;

/// How a tensor-level partition step splits each fiber of the target rank.
#[derive(Clone, Debug, PartialEq)]
pub enum SplitKind {
    /// Fixed coordinate chunks of the given width.
    UniformShape(u64),
    /// Equal-occupancy groups of the given size, boundaries computed on the
    /// fiber itself (the tensor is its own leader).
    UniformOccupancy(usize),
    /// Boundaries supplied externally (follower side of leader-follower),
    /// keyed by the coordinate path above the target rank, so followers
    /// stay aligned with the leader even when one of them is missing
    /// entire fibers.
    BoundariesByPath(std::collections::BTreeMap<Vec<Coord>, Vec<Coord>>),
}

impl CompressedTensor {
    /// Partitions rank `rank` into two ranks `[upper_name, lower_name]`.
    ///
    /// Every fiber at that rank is split per `kind`; empty partitions are
    /// omitted. A partition's upper coordinate is `i * chunk` for shape
    /// splits, its first element's coordinate for occupancy splits, and
    /// the leader's boundary for follower splits.
    ///
    /// Runs as a pure segment-array split: the target level's coordinate
    /// array is scanned once per fiber to find partition boundaries, a new
    /// upper level of partition bases is emitted, and the lower level
    /// reuses the original coordinate store (element order never changes).
    /// Ranks above and below — and the value arena — are untouched.
    ///
    /// # Errors
    ///
    /// Returns an error if the rank is unknown, the split size is zero,
    /// shape-based splitting hits a tuple-coordinate rank, or externally
    /// supplied boundaries are not representable at the rank's arity.
    ///
    /// # Examples
    ///
    /// ```
    /// use teaal_fibertree::partition::SplitKind;
    /// use teaal_fibertree::tensor::fig1_matrix_a;
    /// use teaal_fibertree::CompressedTensor;
    /// let a = CompressedTensor::from_tensor(&fig1_matrix_a())?; // [M, K]
    /// let p = a.partition_rank("K", SplitKind::UniformShape(2), "K1", "K0")?;
    /// assert_eq!(p.rank_ids(), &["M".to_string(), "K1".to_string(), "K0".to_string()]);
    /// assert_eq!(p.nnz(), a.nnz());
    /// # Ok::<(), teaal_fibertree::FibertreeError>(())
    /// ```
    pub fn partition_rank(
        &self,
        rank: &str,
        kind: SplitKind,
        upper_name: &str,
        lower_name: &str,
    ) -> Result<CompressedTensor, FibertreeError> {
        let d = self.rank_index(rank)?;
        match &kind {
            SplitKind::UniformShape(0) | SplitKind::UniformOccupancy(0) => {
                return Err(FibertreeError::ZeroPartition)
            }
            _ => {}
        }
        let mut rank_ids = self.rank_ids().to_vec();
        let mut shapes = self.rank_shapes().to_vec();
        let rank_shape = shapes[d].clone();
        rank_ids.splice(d..=d, [upper_name.to_string(), lower_name.to_string()]);
        shapes.splice(d..=d, [rank_shape.clone(), rank_shape.clone()]);

        let old = &self.levels[d];
        let arity = old.arity();
        if matches!(kind, SplitKind::UniformShape(_)) && arity != 1 {
            return Err(FibertreeError::NotAnInterval {
                rank: rank_shape.to_string(),
            });
        }
        let mut upper_level = old.new_like();
        let mut lower_segs: Vec<usize> = vec![0];
        // The open partition's base and the candidate base of the current
        // element, as component words (reused across fibers).
        let mut current = vec![0u64; arity];
        let mut base = vec![0u64; arity];

        self.walk_fibers(d, &mut |path: &[Coord], s, e| {
            let by_path_bounds;
            let bounds: Option<&[Coord]> = match &kind {
                SplitKind::BoundariesByPath(by_path) => {
                    // Where the leader has no fiber, the boundary list is
                    // empty and every element opens its own group.
                    by_path_bounds = by_path.get(path);
                    Some(by_path_bounds.map(Vec::as_slice).unwrap_or(&[]))
                }
                _ => None,
            };
            let mut open = false;
            let mut bi = 0usize;
            for p in s..e {
                match &kind {
                    SplitKind::UniformShape(chunk) => {
                        base[0] = (old.coords.get(p) / chunk) * chunk;
                    }
                    SplitKind::UniformOccupancy(size) => {
                        // A chunk's base is its first element's coordinate.
                        if (p - s) % size == 0 {
                            old.raw_into(p, &mut base);
                        }
                    }
                    SplitKind::BoundariesByPath(_) => {
                        let bounds = bounds.expect("boundary kinds carry bounds");
                        let key = old.key(p);
                        while bi < bounds.len() && !key.cmp_coord(&bounds[bi]).is_lt() {
                            bi += 1;
                        }
                        if bi == 0 {
                            // Precedes every boundary: open leading group.
                            old.raw_into(p, &mut base);
                        } else {
                            raw_of_coord(&bounds[bi - 1], &mut base)?;
                        }
                    }
                }
                if !open || current != base {
                    if open {
                        lower_segs.push(p);
                    }
                    upper_level.push_raw(&base);
                    current.copy_from_slice(&base);
                    open = true;
                }
            }
            if open {
                lower_segs.push(e);
            }
            let end = upper_level.coords.len();
            upper_level.segs.push(end);
            Ok(())
        })?;

        let lower_level = Level {
            segs: lower_segs,
            upper: old.upper.clone(),
            coords: old.coords.clone(),
        };
        let mut levels = self.levels.clone();
        levels.splice(d..=d, [upper_level, lower_level]);
        Ok(CompressedTensor {
            name: self.name.clone(),
            rank_ids,
            rank_shapes: shapes,
            levels,
            values: self.values.clone(),
            hash_memo: OnceLock::new(),
        })
    }

    /// Computes per-fiber occupancy boundaries at the given rank, keyed by
    /// the coordinate path above it: the starting coordinate of each group
    /// of `size` consecutive elements. This is the leader side of
    /// leader-follower partitioning across tensors: followers split with
    /// [`SplitKind::BoundariesByPath`] on this map get partitions whose
    /// coordinate ranges match the leader's, even where the leader is
    /// missing some fibers.
    ///
    /// # Errors
    ///
    /// Returns an error if the rank is unknown or `size == 0`.
    pub fn occupancy_boundaries_by_path(
        &self,
        rank: &str,
        size: usize,
    ) -> Result<std::collections::BTreeMap<Vec<Coord>, Vec<Coord>>, FibertreeError> {
        if size == 0 {
            return Err(FibertreeError::ZeroPartition);
        }
        let d = self.rank_index(rank)?;
        let mut out = std::collections::BTreeMap::new();
        self.walk_fibers(d, &mut |path, s, e| {
            let bounds: Vec<Coord> = (s..e)
                .step_by(size)
                .map(|p| self.coord_at_level(d, p))
                .collect();
            out.insert(path.to_vec(), bounds);
            Ok(())
        })?;
        Ok(out)
    }

    /// Visits every fiber at `level` in depth-first order with its
    /// ancestor coordinate path and element range.
    pub(crate) fn walk_fibers(
        &self,
        level: usize,
        visit: &mut impl FnMut(&[Coord], usize, usize) -> Result<(), FibertreeError>,
    ) -> Result<(), FibertreeError> {
        fn rec(
            c: &CompressedTensor,
            cur: usize,
            s: usize,
            e: usize,
            target: usize,
            path: &mut Vec<Coord>,
            visit: &mut impl FnMut(&[Coord], usize, usize) -> Result<(), FibertreeError>,
        ) -> Result<(), FibertreeError> {
            if cur == target {
                return visit(path, s, e);
            }
            for p in s..e {
                path.push(c.coord_at_level(cur, p));
                let (cs, ce) = c.child_range(cur, p);
                rec(c, cur + 1, cs, ce, target, path, visit)?;
                path.pop();
            }
            Ok(())
        }
        if self.order() == 0 {
            return Ok(());
        }
        let mut path = Vec::new();
        rec(self, 0, 0, self.level_len(0), level, &mut path, visit)
    }
}

/// Writes a boundary coordinate's components into `out`, whose length is
/// the rank's arity.
fn raw_of_coord(c: &Coord, out: &mut [u64]) -> Result<(), FibertreeError> {
    if c.arity() != out.len() {
        return Err(FibertreeError::NotCompressible {
            reason: format!(
                "boundary coordinate {c} does not match the rank's arity {}",
                out.len()
            ),
        });
    }
    for (i, o) in out.iter_mut().enumerate() {
        *o = c.component(i).and_then(Coord::as_point).ok_or_else(|| {
            FibertreeError::NotCompressible {
                reason: format!("boundary coordinate {c} is not a tuple of points"),
            }
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::fig1_matrix_a;

    /// A one-rank tensor (one fiber) holding `coords` in an extent of 100.
    fn fib(coords: &[u64]) -> CompressedTensor {
        let entries = coords.iter().map(|&c| (vec![c], 1.0)).collect();
        CompressedTensor::from_entries("F", &["K"], &[100], entries).expect("test fiber is valid")
    }

    /// Each top-rank partition's coordinate and occupancy.
    fn parts(t: &CompressedTensor) -> Vec<(Coord, usize)> {
        let root = t.root_fiber_view().expect("non-scalar");
        (0..root.occupancy())
            .map(|p| {
                let part = root
                    .payload_at(p)
                    .as_fiber()
                    .expect("partitions are fibers");
                (root.coord_at(p), part.occupancy())
            })
            .collect()
    }

    fn split(t: &CompressedTensor, kind: SplitKind) -> CompressedTensor {
        t.partition_rank("K", kind, "K1", "K0").unwrap()
    }

    #[test]
    fn uniform_shape_splits_at_fixed_boundaries() {
        let p = split(&fib(&[0, 1, 5, 6, 20]), SplitKind::UniformShape(4));
        assert_eq!(
            parts(&p),
            [(0, 2), (4, 2), (20, 1)].map(|(c, n)| (Coord::Point(c), n))
        );
    }

    #[test]
    fn uniform_shape_omits_empty_partitions() {
        let p = split(&fib(&[0, 99]), SplitKind::UniformShape(10));
        assert_eq!(parts(&p).len(), 2);
    }

    #[test]
    fn uniform_occupancy_balances_elements() {
        let f = fib(&[1, 2, 3, 50, 51, 52, 53]);
        let p = split(&f, SplitKind::UniformOccupancy(3));
        // Equal modulo remainder; each base is its group's first coordinate.
        assert_eq!(
            parts(&p),
            [(1, 3), (50, 3), (53, 1)].map(|(c, n)| (Coord::Point(c), n))
        );
    }

    #[test]
    fn boundaries_align_followers_to_leader() {
        let bounds = fib(&[10, 20, 30, 40])
            .occupancy_boundaries_by_path("K", 2)
            .unwrap();
        assert_eq!(bounds[&vec![]], vec![Coord::Point(10), Coord::Point(30)]);
        let p = split(
            &fib(&[5, 15, 25, 35, 45]),
            SplitKind::BoundariesByPath(bounds),
        );
        // 5 precedes the leader's range → leading group; 15/25 fall in
        // [10,30); 35/45 in [30,∞).
        assert_eq!(
            parts(&p),
            [(5, 1), (10, 2), (30, 2)].map(|(c, n)| (Coord::Point(c), n))
        );
    }

    #[test]
    fn zero_partition_size_is_rejected() {
        let f = fib(&[1]);
        assert!(f
            .partition_rank("K", SplitKind::UniformShape(0), "K1", "K0")
            .is_err());
        assert!(f.occupancy_boundaries_by_path("K", 0).is_err());
    }

    #[test]
    fn tensor_partition_preserves_content() {
        let a = CompressedTensor::from_tensor(&fig1_matrix_a()).unwrap();
        let p = split(&a, SplitKind::UniformShape(2));
        assert_eq!(p.order(), 3);
        assert_eq!(p.nnz(), a.nnz());
        // Leaf values survive in order.
        assert_eq!(p.values(), &[3.0, 9.0, 4.0, 5.0]);
    }

    #[test]
    fn flatten_then_occupancy_partition_balances_globally() {
        // Fig. 2 end-to-end: flatten [M, K] then split into groups of 2.
        let a = CompressedTensor::from_tensor(&fig1_matrix_a()).unwrap();
        let p = a
            .flatten_rank("M", "MK")
            .unwrap()
            .partition_rank("MK", SplitKind::UniformOccupancy(2), "MK1", "MK0")
            .unwrap();
        assert_eq!(parts(&p), [(Coord::pair(0, 2), 2), (Coord::pair(2, 1), 2)]);
    }

    #[test]
    fn partition_below_top_rank_splits_each_fiber() {
        // Two K fibers with occupancies 1 and 3.
        let a = CompressedTensor::from_tensor(&fig1_matrix_a()).unwrap();
        let p = split(&a, SplitKind::UniformOccupancy(2));
        // m=0 row has 1 element → 1 partition; m=2 row has 3 → 2 partitions.
        let per_row: Vec<usize> = parts(&p).into_iter().map(|(_, n)| n).collect();
        assert_eq!(per_row, vec![1, 2]);
    }
}
