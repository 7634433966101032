//! Compressed (CSF-style) fibertree storage: per-rank flat coordinate and
//! segment arrays plus a leaf value arena.
//!
//! The owned [`Tensor`] stores each fiber as its own
//! `Vec<Element>` with boxed recursive payloads — flexible (it supports
//! tuple coordinates and in-place mutation) but pointer-chasing and
//! allocation-heavy at scale. [`CompressedTensor`] is the read-optimized
//! complement: the classic *compressed sparse fiber* layout (Smith &
//! Karypis; the per-rank `C` format of the paper's format specification,
//! §4.2) where rank `d` is two flat arrays
//!
//! - `coords[d]` — the coordinates of every element at that rank, fiber by
//!   fiber, and
//! - `segs[d]` — fiber boundaries: fiber `f` of rank `d` spans
//!   `coords[d][segs[d][f] .. segs[d][f+1]]`,
//!
//! and all leaf values live in one arena indexed by bottom-rank position.
//! Element `p` of rank `d` owns child fiber `p` of rank `d + 1`, so a
//! whole multi-million-entry tensor is `O(ranks)` allocations instead of
//! one per fiber. Iteration never chases pointers and cloning is a flat
//! `memcpy`, which is what makes large-workload co-iteration (graph
//! adjacencies, SuiteSparse-scale matrices) tractable.
//!
//! Each level's coordinate array is *narrowed* per rank: when the rank's
//! extent fits, coordinates are stored as `u32` instead of `u64`
//! (`CoordStore`), halving the footprint of typical matrices. Ranks
//! produced by flattening hold *tuple* coordinates as parallel stores,
//! one per component, however many ranks were flattened together.
//!
//! Compressed tensors are read-only, but the content-preserving
//! transforms (swizzle / partition / flatten) have compressed-native
//! implementations that produce a new `CompressedTensor` directly from
//! the flat arrays — see [`crate::swizzle`], [`crate::partition`], and
//! [`crate::flatten`]. Streaming construction goes through
//! [`CompressedBuilder`].
//! [`CompressedTensor::to_tensor`] and [`CompressedTensor::from_tensor`]
//! convert losslessly between the representations, and
//! [`FiberView`](crate::view::FiberView) cursors iterate compressed
//! storage. Every `to_tensor` decompression is counted by
//! [`crate::telemetry`], which is how the simulator's tests prove the hot
//! path never leaves the compressed representation.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

use crate::builder::CompressedBuilder;
use crate::coord::{Coord, Shape};
use crate::error::FibertreeError;
use crate::fiber::{Fiber, Payload};
use crate::tensor::Tensor;
use crate::view::{CoordKey, PointRun, TupleKey};

/// One level's flat coordinate array, narrowed to `u32` when the rank
/// extent allows.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum CoordStore {
    /// Coordinates fit in 32 bits (rank extent ≤ 2³²).
    U32(Vec<u32>),
    /// Full-width coordinates.
    U64(Vec<u64>),
}

impl CoordStore {
    /// An empty store wide enough for coordinates in `[0, extent)`.
    pub(crate) fn for_extent(extent: u64) -> Self {
        if extent <= u64::from(u32::MAX) + 1 {
            CoordStore::U32(Vec::new())
        } else {
            CoordStore::U64(Vec::new())
        }
    }

    /// An empty store of the same width as `self`.
    pub(crate) fn new_like(&self) -> Self {
        match self {
            CoordStore::U32(_) => CoordStore::U32(Vec::new()),
            CoordStore::U64(_) => CoordStore::U64(Vec::new()),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, c: u64) {
        match self {
            CoordStore::U32(v) => {
                debug_assert!(c <= u64::from(u32::MAX), "narrowed store overflow");
                v.push(c as u32);
            }
            CoordStore::U64(v) => v.push(c),
        }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> u64 {
        match self {
            CoordStore::U32(v) => u64::from(v[i]),
            CoordStore::U64(v) => v[i],
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            CoordStore::U32(v) => v.len(),
            CoordStore::U64(v) => v.len(),
        }
    }

    /// Elements `[start, end)` as a raw run.
    #[inline]
    fn run(&self, start: usize, end: usize) -> PointRun<'_> {
        match self {
            CoordStore::U32(v) => PointRun::U32(&v[start..end]),
            CoordStore::U64(v) => PointRun::U64(&v[start..end]),
        }
    }

    /// Binary search for `target` within `[start, end)`.
    fn search(&self, start: usize, end: usize, target: u64) -> Result<usize, usize> {
        match self {
            CoordStore::U32(v) => {
                if target > u64::from(u32::MAX) {
                    return Err(end - start);
                }
                v[start..end].binary_search(&(target as u32))
            }
            CoordStore::U64(v) => v[start..end].binary_search(&target),
        }
    }
}

/// One compressed rank: flat coordinates plus fiber segment boundaries.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Level {
    /// Fiber `f` spans `coords[segs[f]..segs[f+1]]`; there is always one
    /// trailing entry equal to `coords.len()`.
    pub(crate) segs: Vec<usize>,
    /// Leading tuple components, one store each, empty on point ranks: on
    /// a rank flattened from `a` point ranks, element `i`'s coordinate is
    /// `(upper[0][i], .., upper[a-2][i], coords[i])`.
    pub(crate) upper: Vec<CoordStore>,
    /// Coordinates (last tuple components) of every element at this rank,
    /// fiber-concatenated, strictly increasing within each fiber
    /// (lexicographically, for tuple ranks).
    pub(crate) coords: CoordStore,
}

impl Level {
    /// An empty level sized for `shape`: point coordinates for intervals,
    /// one store per component for tuple shapes.
    ///
    /// # Errors
    ///
    /// Returns [`FibertreeError::NotCompressible`] for tuple shapes with
    /// fewer than two components or with non-interval components.
    pub(crate) fn for_shape(shape: &Shape) -> Result<Self, FibertreeError> {
        let extents: Vec<u64> = match shape {
            Shape::Interval(n) => vec![*n],
            Shape::Tuple(cs) if cs.len() >= 2 => cs
                .iter()
                .map(Shape::as_interval)
                .collect::<Option<_>>()
                .ok_or_else(|| FibertreeError::NotCompressible {
                    reason: format!("tuple shape {shape} has non-interval components"),
                })?,
            Shape::Tuple(cs) => {
                return Err(FibertreeError::NotCompressible {
                    reason: format!("tuple shape {shape} has {} components", cs.len()),
                })
            }
        };
        let (&last, upper) = extents.split_last().expect("at least one component");
        Ok(Level {
            segs: vec![0],
            upper: upper.iter().map(|&e| CoordStore::for_extent(e)).collect(),
            coords: CoordStore::for_extent(last),
        })
    }

    /// An empty level with the same coordinate widths as `self`.
    pub(crate) fn new_like(&self) -> Self {
        Level {
            segs: vec![0],
            upper: self.upper.iter().map(CoordStore::new_like).collect(),
            coords: self.coords.new_like(),
        }
    }

    /// Number of coordinate components: 1 on point levels, one per
    /// flattened rank on tuple levels.
    #[inline]
    pub(crate) fn arity(&self) -> usize {
        self.upper.len() + 1
    }

    /// Component `c` of element `i`'s coordinate.
    #[inline]
    pub(crate) fn component(&self, i: usize, c: usize) -> u64 {
        match self.upper.get(c) {
            Some(u) => u.get(i),
            None => self.coords.get(i),
        }
    }

    /// Writes element `i`'s components into `out` (one word per
    /// component).
    #[inline]
    pub(crate) fn raw_into(&self, i: usize, out: &mut [u64]) {
        for (o, u) in out.iter_mut().zip(&self.upper) {
            *o = u.get(i);
        }
        out[self.upper.len()] = self.coords.get(i);
    }

    /// Appends one element given as its components.
    pub(crate) fn push_raw(&mut self, key: &[u64]) {
        for (u, &c) in self.upper.iter_mut().zip(key) {
            u.push(c);
        }
        self.coords.push(key[self.upper.len()]);
    }

    /// The materialized coordinate of element `i`.
    #[inline]
    pub(crate) fn coord(&self, i: usize) -> Coord {
        if self.upper.is_empty() {
            Coord::Point(self.coords.get(i))
        } else {
            Coord::Tuple(
                (0..self.arity())
                    .map(|c| Coord::Point(self.component(i, c)))
                    .collect(),
            )
        }
    }

    /// The allocation-free comparison key of element `i`.
    #[inline]
    pub(crate) fn key(&self, i: usize) -> CoordKey<'_> {
        match self.upper.as_slice() {
            [] => CoordKey::Point(self.coords.get(i)),
            [u] => CoordKey::Pair(u.get(i), self.coords.get(i)),
            _ => CoordKey::Tuple(TupleKey {
                level: self,
                pos: i,
            }),
        }
    }

    /// Binary search within elements `[start, end)` for the coordinate
    /// `key` addresses, when it is representable at this level.
    pub(crate) fn search_key(&self, start: usize, end: usize, key: &CoordKey<'_>) -> Option<usize> {
        if self.upper.is_empty() {
            let p = key.as_point()?;
            return self.coords.search(start, end, p).ok().map(|i| start + i);
        }
        let mut lo = start;
        let mut hi = end;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.key(mid).cmp_key(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid),
            }
        }
        None
    }
}

/// An `N`-tensor in compressed sparse fiber (CSF) form.
///
/// Content-equivalent to an owned [`Tensor`] with the same entries: the
/// same rank ids, shapes, and `(point, value)` leaves, stored as flat
/// per-rank arrays instead of a recursive tree. Build one directly from
/// COO entries ([`CompressedTensor::from_entries`]), from a sorted stream
/// ([`CompressedBuilder`]), or from an
/// existing tree ([`CompressedTensor::from_tensor`]).
///
/// # Examples
///
/// ```
/// use teaal_fibertree::CompressedTensor;
/// let c = CompressedTensor::from_entries(
///     "A",
///     &["M", "K"],
///     &[4, 3],
///     vec![(vec![0, 2], 3.0), (vec![2, 0], 9.0), (vec![2, 1], 4.0)],
/// ).unwrap();
/// assert_eq!(c.nnz(), 3);
/// assert_eq!(c.get(&[2, 1]), Some(4.0));
/// ```
#[derive(Clone, Debug)]
pub struct CompressedTensor {
    pub(crate) name: String,
    pub(crate) rank_ids: Vec<String>,
    pub(crate) rank_shapes: Vec<Shape>,
    pub(crate) levels: Vec<Level>,
    /// Leaf value arena: `values[p]` is the payload of bottom-rank
    /// element `p`. For a 0-tensor this holds the single scalar.
    pub(crate) values: Vec<f64>,
    /// [`CompressedTensor::content_hash`], computed on first use. A
    /// tensor never changes after construction, so the memo cannot go
    /// stale; equality ignores it.
    pub(crate) hash_memo: OnceLock<u64>,
}

impl PartialEq for CompressedTensor {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.rank_ids == other.rank_ids
            && self.rank_shapes == other.rank_shapes
            && self.levels == other.levels
            && self.values == other.values
    }
}

impl CompressedTensor {
    /// Builds a compressed tensor directly from `(point, value)` COO
    /// entries, without materializing an owned tree.
    ///
    /// Semantics match [`Tensor::from_entries`]: entries are sorted,
    /// duplicate points are summed, and zero values are dropped.
    ///
    /// # Errors
    ///
    /// Returns an error if an entry's arity differs from the rank count
    /// or a coordinate falls outside the shape.
    pub fn from_entries(
        name: impl Into<String>,
        rank_ids: &[&str],
        shape: &[u64],
        entries: Vec<(Vec<u64>, f64)>,
    ) -> Result<Self, FibertreeError> {
        assert_eq!(rank_ids.len(), shape.len(), "one shape per rank");
        let n = rank_ids.len();
        let rank_shapes: Vec<Shape> = shape.iter().map(|&s| Shape::Interval(s)).collect();
        let mut dedup: BTreeMap<Vec<u64>, f64> = BTreeMap::new();
        for (point, v) in entries {
            if point.len() != n {
                return Err(FibertreeError::ArityMismatch {
                    expected: n,
                    got: point.len(),
                });
            }
            for (d, &c) in point.iter().enumerate() {
                if c >= shape[d] {
                    return Err(FibertreeError::OutOfShape {
                        coord: Coord::Point(c),
                        shape: rank_shapes[d].clone(),
                    });
                }
            }
            *dedup.entry(point).or_insert(0.0) += v;
        }
        let mut b = CompressedBuilder::new(
            name,
            rank_ids.iter().map(|s| s.to_string()).collect(),
            rank_shapes,
        )?;
        for (point, v) in dedup {
            if n > 0 && v == 0.0 {
                continue;
            }
            b.push_point(&point, v)?;
        }
        Ok(b.finish())
    }

    /// Compresses an owned tensor, preserving every stored leaf
    /// (including explicit zeros). Flattened ranks of any depth keep one
    /// coordinate store per tuple component.
    ///
    /// # Errors
    ///
    /// Returns [`FibertreeError::NotCompressible`] if a rank shape is a
    /// tuple with nested tuple components (flattening never builds one).
    pub fn from_tensor(t: &Tensor) -> Result<Self, FibertreeError> {
        let mut b =
            CompressedBuilder::new(t.name(), t.rank_ids().to_vec(), t.rank_shapes().to_vec())?;
        if t.order() == 0 {
            if let Some(v) = t.get(&[]) {
                b.push(&[], v)?;
            }
            return Ok(b.finish());
        }
        fn walk(
            f: &Fiber,
            path: &mut Vec<Coord>,
            b: &mut CompressedBuilder,
        ) -> Result<(), FibertreeError> {
            for e in f.iter() {
                path.push(e.coord.clone());
                match &e.payload {
                    Payload::Val(v) => b.push(path, *v)?,
                    Payload::Fiber(child) => walk(child, path, b)?,
                }
                path.pop();
            }
            Ok(())
        }
        if let Some(root) = t.root_fiber() {
            let mut path = Vec::new();
            walk(root, &mut path, &mut b)?;
        }
        Ok(b.finish())
    }

    /// Decompresses into an owned fibertree. Lossless: the result
    /// compares equal to the tensor this was built from (or that
    /// [`Tensor::from_entries`] builds from the same entries).
    ///
    /// Every call is counted by [`crate::telemetry::decompress_count`] —
    /// the simulator's compressed fast path asserts it stays at zero.
    pub fn to_tensor(&self) -> Tensor {
        crate::telemetry::note_decompress();
        if self.order() == 0 {
            return Tensor::scalar(&self.name, self.values[0]);
        }
        let root = self.build_fiber(0, 0, self.levels[0].coords.len());
        Tensor::from_parts(
            &self.name,
            self.rank_ids.clone(),
            self.rank_shapes.clone(),
            Payload::Fiber(root),
        )
    }

    fn build_fiber(&self, level: usize, start: usize, end: usize) -> Fiber {
        let mut f = Fiber::new(self.rank_shapes[level].clone());
        let leaf = level + 1 == self.order();
        for p in start..end {
            let payload = if leaf {
                Payload::Val(self.values[p])
            } else {
                let (cs, ce) = self.child_range(level, p);
                Payload::Fiber(self.build_fiber(level + 1, cs, ce))
            };
            f.append(self.levels[level].coord(p), payload)
                .expect("compressed coordinates are sorted and in shape");
        }
        f
    }

    /// The tensor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The labelled ranks, top-to-bottom.
    pub fn rank_ids(&self) -> &[String] {
        &self.rank_ids
    }

    /// The per-rank shapes, in rank order.
    pub fn rank_shapes(&self) -> &[Shape] {
        &self.rank_shapes
    }

    /// Number of ranks (`N` for an `N`-tensor).
    pub fn order(&self) -> usize {
        self.rank_ids.len()
    }

    /// The index of the named rank.
    ///
    /// # Errors
    ///
    /// Returns [`FibertreeError::UnknownRank`] when absent.
    pub fn rank_index(&self, rank: &str) -> Result<usize, FibertreeError> {
        self.rank_ids
            .iter()
            .position(|r| r == rank)
            .ok_or_else(|| FibertreeError::UnknownRank {
                rank: rank.to_string(),
                have: self.rank_ids.clone(),
            })
    }

    /// Number of stored leaves (matches [`Tensor::nnz`] for the same
    /// content).
    pub fn nnz(&self) -> usize {
        if self.order() == 0 {
            usize::from(self.values[0] != 0.0)
        } else {
            self.values.len()
        }
    }

    /// The leaf value arena.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Looks up the value stored at `point` by binary-searching each
    /// level, `O(order · log nnz)`. Point-coordinate ranks only.
    pub fn get(&self, point: &[u64]) -> Option<f64> {
        if self.order() == 0 {
            return if point.is_empty() {
                Some(self.values[0])
            } else {
                None
            };
        }
        if point.len() != self.order() {
            return None;
        }
        let (mut s, mut e) = (0usize, self.levels[0].coords.len());
        let mut pos = 0usize;
        for (d, &c) in point.iter().enumerate() {
            pos = self.levels[d].search_key(s, e, &CoordKey::Point(c))?;
            if d + 1 < self.order() {
                let (cs, ce) = self.child_range(d, pos);
                s = cs;
                e = ce;
            }
        }
        Some(self.values[pos])
    }

    /// Per-rank `(fiber count, total occupancy)` statistics, matching
    /// [`Tensor::rank_stats`] on equivalent content (ranks below the
    /// deepest existing fiber are omitted, as in the owned walk).
    pub fn rank_stats(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for l in &self.levels {
            let fibers = l.segs.len().saturating_sub(1);
            if fibers == 0 {
                break;
            }
            out.push((fibers, l.coords.len()));
        }
        out
    }

    /// Enumerates `(path, value)` for every nonzero leaf in lexicographic
    /// order, one coordinate per rank (pairs on flattened ranks) —
    /// matches [`Tensor::leaves`].
    pub fn leaves(&self) -> Vec<(Vec<Coord>, f64)> {
        let mut out = Vec::with_capacity(self.values.len());
        if self.order() == 0 {
            if self.values[0] != 0.0 {
                out.push((Vec::new(), self.values[0]));
            }
            return out;
        }
        let mut path = vec![Coord::Point(0); self.order()];
        self.collect_leaves(0, 0, self.levels[0].coords.len(), &mut path, &mut out);
        out
    }

    fn collect_leaves(
        &self,
        level: usize,
        start: usize,
        end: usize,
        path: &mut Vec<Coord>,
        out: &mut Vec<(Vec<Coord>, f64)>,
    ) {
        let leaf = level + 1 == self.order();
        for p in start..end {
            path[level] = self.levels[level].coord(p);
            if leaf {
                if self.values[p] != 0.0 {
                    out.push((path.clone(), self.values[p]));
                }
            } else {
                let (cs, ce) = self.child_range(level, p);
                self.collect_leaves(level + 1, cs, ce, path, out);
            }
        }
    }

    /// Enumerates `(point, value)` for every nonzero leaf, in
    /// lexicographic order (matches [`Tensor::entries`]).
    ///
    /// # Panics
    ///
    /// Panics if a flattened (pair-coordinate) rank is encountered.
    pub fn entries(&self) -> Vec<(Vec<u64>, f64)> {
        self.leaves()
            .into_iter()
            .map(|(path, v)| {
                let pt = path
                    .iter()
                    .map(|c| c.as_point().expect("entries() requires point coordinates"))
                    .collect();
                (pt, v)
            })
            .collect()
    }

    /// The coordinate of element `p` of `level`, materialized.
    pub(crate) fn coord_at_level(&self, level: usize, p: usize) -> Coord {
        self.levels[level].coord(p)
    }

    /// The allocation-free comparison key of element `p` of `level`.
    #[inline]
    pub(crate) fn coord_key(&self, level: usize, p: usize) -> CoordKey<'_> {
        self.levels[level].key(p)
    }

    /// Writes the components of element `p` of `level` into `out`.
    #[inline]
    pub(crate) fn raw_into(&self, level: usize, p: usize, out: &mut [u64]) {
        self.levels[level].raw_into(p, out);
    }

    /// Rough resident size for cache accounting: one value plus one
    /// coordinate word per rank per leaf — good enough for byte-bounded
    /// caches and telemetry, not allocator-exact.
    pub fn approx_bytes(&self) -> u64 {
        (self.nnz() as u64) * (8 + 8 * self.order() as u64)
    }

    /// Number of elements at `level` (`level < order`): the range of the
    /// positions [`FiberView::csf_position`](crate::view::FiberView::csf_position)
    /// reports for it.
    #[inline]
    pub fn level_len(&self, level: usize) -> usize {
        self.levels[level].coords.len()
    }

    /// Binary search for `key` within elements `[start, end)` of `level`.
    pub(crate) fn position_in(
        &self,
        level: usize,
        start: usize,
        end: usize,
        key: &CoordKey<'_>,
    ) -> Option<usize> {
        self.levels[level].search_key(start, end, key)
    }

    /// Elements `[start, end)` of `level` as a raw run, when the level
    /// holds point coordinates.
    #[inline]
    pub(crate) fn point_run(&self, level: usize, start: usize, end: usize) -> Option<PointRun<'_>> {
        let l = &self.levels[level];
        l.upper.is_empty().then(|| l.coords.run(start, end))
    }

    /// The `[start, end)` range of element `p`'s child fiber one rank
    /// below `level`.
    #[inline]
    pub(crate) fn child_range(&self, level: usize, p: usize) -> (usize, usize) {
        let segs = &self.levels[level + 1].segs;
        (segs[p], segs[p + 1])
    }

    /// The leaf value at bottom-rank position `p`.
    #[inline]
    pub(crate) fn value_at(&self, p: usize) -> f64 {
        self.values[p]
    }

    /// Leaves beneath the element range `[start, end)` of `level`, in
    /// `O(depth)`: the children of a *range* are themselves a contiguous
    /// range, so each rank is one pair of segment lookups.
    pub(crate) fn leaf_count_in(&self, level: usize, start: usize, end: usize) -> usize {
        let (mut s, mut e) = (start, end);
        for d in level..self.order().saturating_sub(1) {
            let segs = &self.levels[d + 1].segs;
            s = segs[s];
            e = segs[e];
        }
        e - s
    }
}

impl fmt::Display for CompressedTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] (csf, {} nnz)",
            self.name,
            self.rank_ids.join(", "),
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::fig1_matrix_a;

    pub(crate) fn coords_u64(l: &Level) -> Vec<u64> {
        (0..l.coords.len()).map(|i| l.coords.get(i)).collect()
    }

    #[test]
    fn from_entries_matches_owned_construction() {
        let entries = vec![
            (vec![0, 2], 3.0),
            (vec![2, 0], 9.0),
            (vec![2, 1], 4.0),
            (vec![2, 2], 5.0),
        ];
        let c = CompressedTensor::from_entries("A", &["M", "K"], &[4, 3], entries.clone()).unwrap();
        let t = Tensor::from_entries("A", &["M", "K"], &[4, 3], entries).unwrap();
        assert_eq!(c.to_tensor(), t);
        assert_eq!(c.entries(), t.entries());
        assert_eq!(c.rank_stats(), t.rank_stats());
        assert_eq!(c.nnz(), 4);
    }

    #[test]
    fn csf_arrays_have_the_fig1_layout() {
        let c = CompressedTensor::from_tensor(&fig1_matrix_a()).unwrap();
        // Rank M: one fiber holding m = 0, 2.
        assert_eq!(coords_u64(&c.levels[0]), vec![0, 2]);
        assert_eq!(c.levels[0].segs, vec![0, 2]);
        // Rank K: two fibers [2] and [0, 1, 2].
        assert_eq!(coords_u64(&c.levels[1]), vec![2, 0, 1, 2]);
        assert_eq!(c.levels[1].segs, vec![0, 1, 4]);
        assert_eq!(c.values, vec![3.0, 9.0, 4.0, 5.0]);
    }

    #[test]
    fn small_extents_narrow_to_u32_large_stay_u64() {
        let c = CompressedTensor::from_entries(
            "T",
            &["I", "J"],
            &[100, u64::MAX / 2],
            vec![(vec![1, 1 << 40], 1.0)],
        )
        .unwrap();
        assert!(matches!(c.levels[0].coords, CoordStore::U32(_)));
        assert!(matches!(c.levels[1].coords, CoordStore::U64(_)));
        assert_eq!(c.get(&[1, 1 << 40]), Some(1.0));
    }

    #[test]
    fn roundtrip_through_tensor_is_lossless() {
        let t = fig1_matrix_a();
        let c = CompressedTensor::from_tensor(&t).unwrap();
        assert_eq!(c.to_tensor(), t);
        let again = CompressedTensor::from_tensor(&c.to_tensor()).unwrap();
        assert_eq!(again, c);
    }

    #[test]
    fn duplicate_entries_sum_and_zeros_drop() {
        let c = CompressedTensor::from_entries(
            "T",
            &["I"],
            &[4],
            vec![(vec![1], 2.0), (vec![1], 3.0), (vec![2], 0.0)],
        )
        .unwrap();
        assert_eq!(c.entries(), vec![(vec![1], 5.0)]);
        assert_eq!(c.nnz(), 1);
    }

    #[test]
    fn explicit_zero_leaves_survive_from_tensor() {
        let mut t = Tensor::empty("P", &["V"], &[4]);
        t.set(&[0], 0.0); // a legitimate payload (e.g. the BFS root)
        t.set(&[2], 7.0);
        let c = CompressedTensor::from_tensor(&t).unwrap();
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.to_tensor(), t);
    }

    #[test]
    fn pair_coordinates_compress_after_one_flatten() {
        let flat = CompressedTensor::from_tensor(&fig1_matrix_a())
            .unwrap()
            .flatten_rank("M", "MK")
            .unwrap();
        let t = flat.to_tensor();
        let c = CompressedTensor::from_tensor(&t).unwrap();
        assert_eq!(c.order(), 1);
        assert_eq!(c.levels[0].arity(), 2);
        assert_eq!(c, flat);
        assert_eq!(c.to_tensor(), t);
        assert_eq!(c.leaves(), t.leaves());
    }

    #[test]
    fn deep_tuple_coordinates_compress() {
        let mut b = CompressedBuilder::new(
            "T",
            vec!["ABC".into()],
            vec![Shape::Tuple(vec![Shape::Interval(2); 3])],
        )
        .unwrap();
        let triple =
            |a, b, c| Coord::Tuple(vec![Coord::Point(a), Coord::Point(b), Coord::Point(c)]);
        b.push(&[triple(0, 1, 0)], 1.0).unwrap();
        b.push(&[triple(1, 0, 1)], 2.0).unwrap();
        let built = b.finish();
        let t = built.to_tensor();
        let c = CompressedTensor::from_tensor(&t).unwrap();
        assert_eq!(c, built);
        assert_eq!(c.levels[0].arity(), 3);
        assert_eq!(c.to_tensor(), t);
        assert_eq!(c.leaves(), t.leaves());
    }

    #[test]
    fn scalars_and_empties_compress() {
        let s = CompressedTensor::from_entries("s", &[], &[], vec![(vec![], 3.0)]).unwrap();
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.to_tensor(), Tensor::scalar("s", 3.0));
        let e = CompressedTensor::from_entries("E", &["M", "K"], &[4, 4], vec![]).unwrap();
        assert_eq!(e.nnz(), 0);
        assert_eq!(e.to_tensor(), Tensor::empty("E", &["M", "K"], &[4, 4]));
    }

    #[test]
    fn out_of_shape_and_arity_errors_match_owned() {
        let err = CompressedTensor::from_entries("T", &["I"], &[4], vec![(vec![7], 1.0)]);
        assert!(matches!(err, Err(FibertreeError::OutOfShape { .. })));
        let err = CompressedTensor::from_entries("T", &["I"], &[4], vec![(vec![1, 2], 1.0)]);
        assert!(matches!(err, Err(FibertreeError::ArityMismatch { .. })));
    }

    #[test]
    fn get_binary_searches_each_level() {
        let c = CompressedTensor::from_tensor(&fig1_matrix_a()).unwrap();
        assert_eq!(c.get(&[0, 2]), Some(3.0));
        assert_eq!(c.get(&[2, 1]), Some(4.0));
        assert_eq!(c.get(&[1, 0]), None);
        assert_eq!(c.get(&[0]), None);
    }
}
