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
use crate::coord::{Coord, Shape};
use crate::error::FibertreeError;
use crate::fiber::{Fiber, Payload};
use crate::tensor::Tensor;

/// Splits `fiber` at fixed coordinate boundaries of width `chunk`.
///
/// The result is a fiber-of-fibers; empty partitions are omitted (sparse
/// convention). Upper coordinates are the first legal coordinate of each
/// partition (`i * chunk`).
///
/// # Errors
///
/// Returns [`FibertreeError::ZeroPartition`] when `chunk == 0` and
/// [`FibertreeError::NotAnInterval`] when the fiber's coordinates are
/// tuples (shape-based splitting needs an interval coordinate space).
pub fn split_uniform_shape(fiber: &Fiber, chunk: u64) -> Result<Fiber, FibertreeError> {
    if chunk == 0 {
        return Err(FibertreeError::ZeroPartition);
    }
    let extent = fiber
        .shape()
        .as_interval()
        .ok_or_else(|| FibertreeError::NotAnInterval {
            rank: fiber.shape().to_string(),
        })?;
    let mut out = Fiber::new(Shape::Interval(extent));
    let mut current: Option<(u64, Fiber)> = None;
    for e in fiber.iter() {
        let p = e
            .coord
            .as_point()
            .ok_or_else(|| FibertreeError::NotAnInterval {
                rank: fiber.shape().to_string(),
            })?;
        let base = (p / chunk) * chunk;
        let flush = matches!(&current, Some((b, _)) if *b != base);
        if flush {
            let (b, f) = current.take().expect("flush implies a current partition");
            out.append(b, f).expect("bases strictly increase");
        }
        let (_, part) = current.get_or_insert_with(|| {
            let end = (base + chunk).min(extent);
            (base, Fiber::new(Shape::Interval(end)))
        });
        part.append(e.coord.clone(), e.payload.clone())
            .expect("source fiber is sorted");
    }
    if let Some((b, f)) = current {
        out.append(b, f).expect("last base exceeds all previous");
    }
    Ok(out)
}

/// Computes occupancy-based partition boundaries for `fiber`: the starting
/// coordinate of each group of `size` consecutive elements.
///
/// This is the *leader* side of the leader-follower paradigm: the returned
/// boundaries can be applied to follower fibers with
/// [`split_by_boundaries`] so that partitions of co-iterated tensors have
/// matching coordinate ranges.
///
/// # Errors
///
/// Returns [`FibertreeError::ZeroPartition`] when `size == 0`.
pub fn occupancy_boundaries(fiber: &Fiber, size: usize) -> Result<Vec<Coord>, FibertreeError> {
    if size == 0 {
        return Err(FibertreeError::ZeroPartition);
    }
    Ok(fiber
        .elements()
        .chunks(size)
        .map(|chunk| chunk[0].coord.clone())
        .collect())
}

/// Splits `fiber` at the given boundary coordinates.
///
/// Partition `i` holds elements with coordinates in
/// `[bounds[i], bounds[i+1])`; elements before `bounds[0]` are grouped into
/// a leading partition (only possible for followers whose coordinates
/// precede the leader's first). Empty partitions are omitted.
pub fn split_by_boundaries(fiber: &Fiber, bounds: &[Coord]) -> Fiber {
    let mut out = Fiber::new(fiber.shape().clone());
    if fiber.is_empty() {
        return out;
    }
    let mut bi = 0usize;
    let mut current: Option<(Coord, Fiber)> = None;
    for e in fiber.iter() {
        // Advance to the boundary segment containing this coordinate.
        while bi < bounds.len() && bounds[bi] <= e.coord {
            bi += 1;
        }
        let base = if bi == 0 {
            e.coord.clone() // precedes every boundary: open leading group
        } else {
            bounds[bi - 1].clone()
        };
        let flush = matches!(&current, Some((b, _)) if *b != base);
        if flush {
            let (b, f) = current.take().expect("flush implies a current partition");
            out.append(b, f).expect("bases strictly increase");
        }
        if current.is_none() {
            current = Some((base, Fiber::new(fiber.shape().clone())));
        }
        current
            .as_mut()
            .expect("current was just ensured")
            .1
            .append(e.coord.clone(), e.payload.clone())
            .expect("source fiber is sorted");
    }
    if let Some((b, f)) = current {
        out.append(b, f).expect("last base exceeds all previous");
    }
    out
}

/// Convenience: occupancy-partitions a fiber against itself as leader.
///
/// # Errors
///
/// Returns [`FibertreeError::ZeroPartition`] when `size == 0`.
pub fn split_uniform_occupancy(fiber: &Fiber, size: usize) -> Result<Fiber, FibertreeError> {
    let bounds = occupancy_boundaries(fiber, size)?;
    Ok(split_by_boundaries(fiber, &bounds))
}

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

impl Tensor {
    /// Partitions rank `rank` into two ranks `[upper_name, lower_name]`.
    ///
    /// Every fiber at that rank is split per `kind`. The rest of the tree is
    /// untouched, making this a content-preserving transform.
    ///
    /// # Errors
    ///
    /// Returns an error if the rank is unknown, the split size is zero, or
    /// shape-based splitting hits a tuple-coordinate rank.
    ///
    /// # Examples
    ///
    /// ```
    /// use teaal_fibertree::tensor::fig1_matrix_a;
    /// use teaal_fibertree::partition::SplitKind;
    /// let a = fig1_matrix_a(); // [M, K] with M fibers {0, 2}
    /// let p = a.partition_rank("K", SplitKind::UniformShape(2), "K1", "K0").unwrap();
    /// assert_eq!(p.rank_ids(), &["M".to_string(), "K1".to_string(), "K0".to_string()]);
    /// assert_eq!(p.nnz(), a.nnz());
    /// ```
    pub fn partition_rank(
        &self,
        rank: &str,
        kind: SplitKind,
        upper_name: &str,
        lower_name: &str,
    ) -> Result<Tensor, FibertreeError> {
        let d = self.rank_index(rank)?;
        let mut rank_ids = self.rank_ids().to_vec();
        let mut shapes = self.rank_shapes().to_vec();
        let rank_shape = shapes[d].clone();
        rank_ids.splice(d..=d, [upper_name.to_string(), lower_name.to_string()]);
        shapes.splice(d..=d, [rank_shape.clone(), rank_shape]);

        let mut path = Vec::new();
        let root = match self.root() {
            Payload::Val(v) => Payload::Val(*v),
            Payload::Fiber(f) => Payload::Fiber(partition_at(f, d, &kind, &mut path)?),
        };
        Ok(Tensor::from_parts(self.name(), rank_ids, shapes, root))
    }

    /// Computes per-fiber occupancy boundaries at the given rank, keyed by
    /// the coordinate path above it — the leader side of leader-follower
    /// partitioning across tensors. The key lets followers align with a
    /// leader that is missing some fibers.
    ///
    /// # Errors
    ///
    /// Returns an error if the rank is unknown or `size == 0`.
    pub fn occupancy_boundaries_by_path(
        &self,
        rank: &str,
        size: usize,
    ) -> Result<std::collections::BTreeMap<Vec<Coord>, Vec<Coord>>, FibertreeError> {
        let d = self.rank_index(rank)?;
        let mut out = std::collections::BTreeMap::new();
        if let Payload::Fiber(f) = self.root() {
            let mut path = Vec::new();
            collect_boundaries_by_path(f, d, size, &mut path, &mut out)?;
        }
        Ok(out)
    }
}

impl CompressedTensor {
    /// Partitions rank `rank` into two ranks `[upper_name, lower_name]` —
    /// the compressed-native counterpart of [`Tensor::partition_rank`],
    /// bit-identical to compressing its result.
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
                    // The leader has no fiber here: every element opens its
                    // own group at its first coordinate (an empty boundary
                    // list), exactly like the owned follower path.
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
    /// the coordinate path above it — the compressed-native counterpart of
    /// [`Tensor::occupancy_boundaries_by_path`], producing an identical
    /// map (leaders and followers interoperate across representations).
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

fn collect_boundaries_by_path(
    f: &Fiber,
    depth: usize,
    size: usize,
    path: &mut Vec<Coord>,
    out: &mut std::collections::BTreeMap<Vec<Coord>, Vec<Coord>>,
) -> Result<(), FibertreeError> {
    if depth == 0 {
        out.insert(path.clone(), occupancy_boundaries(f, size)?);
        return Ok(());
    }
    for e in f.iter() {
        if let Payload::Fiber(child) = &e.payload {
            path.push(e.coord.clone());
            collect_boundaries_by_path(child, depth - 1, size, path, out)?;
            path.pop();
        }
    }
    Ok(())
}

fn partition_at(
    f: &Fiber,
    depth: usize,
    kind: &SplitKind,
    path: &mut Vec<Coord>,
) -> Result<Fiber, FibertreeError> {
    if depth == 0 {
        return match kind {
            SplitKind::UniformShape(chunk) => split_uniform_shape(f, *chunk),
            SplitKind::UniformOccupancy(size) => split_uniform_occupancy(f, *size),
            SplitKind::BoundariesByPath(by_path) => match by_path.get(path.as_slice()) {
                Some(bounds) => Ok(split_by_boundaries(f, bounds)),
                // The leader has no fiber here: keep everything in one
                // partition starting at the first present coordinate.
                None => Ok(split_by_boundaries(f, &[])),
            },
        };
    }
    let mut out = Fiber::new(f.shape().clone());
    for e in f.iter() {
        let child = e.payload.as_fiber().expect("interior payloads are fibers");
        path.push(e.coord.clone());
        let part = partition_at(child, depth - 1, kind, path)?;
        path.pop();
        out.append(e.coord.clone(), part)
            .expect("coordinate order unchanged above the partitioned rank");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::fig1_matrix_a;

    fn fib(coords: &[u64]) -> Fiber {
        Fiber::from_pairs(Shape::Interval(100), coords.iter().map(|&c| (c, 1.0)))
            .expect("test fiber is valid")
    }

    #[test]
    fn uniform_shape_splits_at_fixed_boundaries() {
        let f = fib(&[0, 1, 5, 6, 20]);
        let parts = split_uniform_shape(&f, 4).unwrap();
        let bases: Vec<u64> = parts.iter().map(|e| e.coord.as_point().unwrap()).collect();
        assert_eq!(bases, vec![0, 4, 20]);
        let occ: Vec<usize> = parts
            .iter()
            .map(|e| e.payload.as_fiber().unwrap().occupancy())
            .collect();
        assert_eq!(occ, vec![2, 2, 1]);
    }

    #[test]
    fn uniform_shape_omits_empty_partitions() {
        let f = fib(&[0, 99]);
        let parts = split_uniform_shape(&f, 10).unwrap();
        assert_eq!(parts.occupancy(), 2);
    }

    #[test]
    fn uniform_occupancy_balances_elements() {
        let f = fib(&[1, 2, 3, 50, 51, 52, 53]);
        let parts = split_uniform_occupancy(&f, 3).unwrap();
        let occ: Vec<usize> = parts
            .iter()
            .map(|e| e.payload.as_fiber().unwrap().occupancy())
            .collect();
        assert_eq!(occ, vec![3, 3, 1]); // equal modulo remainder
        let bases: Vec<u64> = parts.iter().map(|e| e.coord.as_point().unwrap()).collect();
        assert_eq!(bases, vec![1, 50, 53]);
    }

    #[test]
    fn boundaries_align_followers_to_leader() {
        let leader = fib(&[10, 20, 30, 40]);
        let bounds = occupancy_boundaries(&leader, 2).unwrap();
        assert_eq!(bounds, vec![Coord::Point(10), Coord::Point(30)]);
        let follower = fib(&[5, 15, 25, 35, 45]);
        let parts = split_by_boundaries(&follower, &bounds);
        // 5 precedes the leader's range → leading group; 15/25 fall in
        // [10,30); 35/45 in [30,∞).
        let occ: Vec<usize> = parts
            .iter()
            .map(|e| e.payload.as_fiber().unwrap().occupancy())
            .collect();
        assert_eq!(occ, vec![1, 2, 2]);
    }

    #[test]
    fn zero_partition_size_is_rejected() {
        let f = fib(&[1]);
        assert!(split_uniform_shape(&f, 0).is_err());
        assert!(occupancy_boundaries(&f, 0).is_err());
    }

    #[test]
    fn tensor_partition_preserves_content() {
        let a = fig1_matrix_a();
        let p = a
            .partition_rank("K", SplitKind::UniformShape(2), "K1", "K0")
            .unwrap();
        assert_eq!(p.order(), 3);
        assert_eq!(p.nnz(), a.nnz());
        // Leaf values survive in order.
        let vals: Vec<f64> = p.leaves().into_iter().map(|(_, v)| v).collect();
        assert_eq!(vals, vec![3.0, 9.0, 4.0, 5.0]);
    }

    #[test]
    fn flatten_then_occupancy_partition_balances_globally() {
        // Fig. 2 end-to-end: flatten [M, K] then split into groups of 2.
        let a = fig1_matrix_a();
        let flat = a.flatten_rank("M", "MK").unwrap();
        let parts = flat
            .partition_rank("MK", SplitKind::UniformOccupancy(2), "MK1", "MK0")
            .unwrap();
        let root = parts.root_fiber().unwrap();
        let occ: Vec<usize> = root
            .iter()
            .map(|e| e.payload.as_fiber().unwrap().occupancy())
            .collect();
        assert_eq!(occ, vec![2, 2]);
    }

    #[test]
    fn partition_below_top_rank_splits_each_fiber() {
        let a = fig1_matrix_a(); // two K fibers with occupancies 1 and 3
        let p = a
            .partition_rank("K", SplitKind::UniformOccupancy(2), "K1", "K0")
            .unwrap();
        // m=0 row has 1 element → 1 partition; m=2 row has 3 → 2 partitions.
        let root = p.root_fiber().unwrap();
        let parts_per_row: Vec<usize> = root
            .iter()
            .map(|e| e.payload.as_fiber().unwrap().occupancy())
            .collect();
        assert_eq!(parts_per_row, vec![1, 2]);
    }
}
