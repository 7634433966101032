//! Read-only cursors over compressed (CSF) storage: [`FiberView`] and
//! [`PayloadView`], plus [`TensorData`], the input type that accepts a
//! tensor in either representation.
//!
//! A `FiberView` is a cheap `Copy` cursor onto one fiber of a
//! [`CompressedTensor`]'s flat arrays. The streaming co-iteration layer
//! ([`crate::iterate`]) and the simulator's engine drive these cursors
//! end-to-end, so the hot path never clones a subtree. Owned [`Tensor`]s
//! are the builder and the test oracle; an evaluation compresses them
//! once, at its boundary, before any cursor reads them.

use std::cmp::Ordering;

use crate::compressed::{CompressedTensor, Level};
use crate::coord::{Coord, Shape};
use crate::hash::Fnv1a;
use crate::tensor::Tensor;

/// A read-only cursor onto one fiber of a compressed tensor: the elements
/// `[start, end)` of one level's flat arrays.
///
/// Positions index the fiber's elements in coordinate order. All
/// accessors are `O(1)`, a binary search, or (for
/// [`FiberView::leaf_count`]) `O(depth)`; none allocate except
/// [`FiberView::coord_at`] on tuple coordinates.
#[derive(Clone, Copy, Debug)]
pub struct FiberView<'a> {
    tree: &'a CompressedTensor,
    level: usize,
    start: usize,
    end: usize,
}

/// The coordinates of one compressed point fiber, in the width its level
/// stores them (see [`FiberView::point_run`]). Position `i` of the run is
/// position `i` of the fiber.
#[derive(Clone, Copy, Debug)]
pub enum PointRun<'a> {
    /// A level narrowed to 32-bit coordinates.
    U32(&'a [u32]),
    /// A full-width level.
    U64(&'a [u64]),
}

impl PointRun<'_> {
    /// Number of coordinates.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            PointRun::U32(r) => r.len(),
            PointRun::U64(r) => r.len(),
        }
    }

    /// Whether the run is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The coordinate at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            PointRun::U32(r) => u64::from(r[i]),
            PointRun::U64(r) => r[i],
        }
    }
}

/// What a fiber element holds: a scalar leaf or the fiber one rank below.
#[derive(Clone, Copy, Debug)]
pub enum PayloadView<'a> {
    /// A scalar value (leaf).
    Val(f64),
    /// The child fiber.
    Fiber(FiberView<'a>),
}

/// An inline coordinate read from compressed storage, for comparisons
/// that must not allocate: points and pairs inline, deeper tuples read in
/// place from the level's component stores.
#[derive(Clone, Copy, Debug)]
pub enum CoordKey<'a> {
    /// A point coordinate.
    Point(u64),
    /// A pair coordinate from a flattened rank.
    Pair(u64, u64),
    /// A tuple of three or more components on a flattened rank, read in
    /// place.
    Tuple(TupleKey<'a>),
}

/// A tuple coordinate of a compressed flattened rank, read in place: one
/// word per component, no allocation. Its components are reachable through
/// [`CoordKey::component`].
#[derive(Clone, Copy)]
pub struct TupleKey<'a> {
    pub(crate) level: &'a Level,
    pub(crate) pos: usize,
}

impl TupleKey<'_> {
    /// Number of components.
    #[inline]
    pub(crate) fn arity(&self) -> usize {
        self.level.arity()
    }

    /// Component `c` (`c < arity`).
    #[inline]
    pub(crate) fn get(&self, c: usize) -> u64 {
        self.level.component(self.pos, c)
    }
}

impl std::fmt::Debug for TupleKey<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries((0..self.arity()).map(|c| self.get(c)))
            .finish()
    }
}

impl<'a> CoordKey<'a> {
    /// Number of components (1 for points).
    #[inline]
    fn arity(&self) -> usize {
        match self {
            CoordKey::Point(_) => 1,
            CoordKey::Pair(..) => 2,
            CoordKey::Tuple(t) => t.arity(),
        }
    }

    /// Component `i` (`i < arity`).
    #[inline]
    fn word(&self, i: usize) -> u64 {
        match *self {
            CoordKey::Point(p) => p,
            CoordKey::Pair(a, b) => [a, b][i],
            CoordKey::Tuple(t) => t.get(i),
        }
    }

    /// Total order, agreeing with [`Coord`]'s `Ord` (points before
    /// tuples, tuples lexicographic with length tiebreak).
    #[inline]
    pub fn cmp_key(&self, other: &CoordKey<'_>) -> Ordering {
        match (self, other) {
            (CoordKey::Point(a), CoordKey::Point(b)) => a.cmp(b),
            (CoordKey::Pair(a, b), CoordKey::Pair(c, d)) => (a, b).cmp(&(c, d)),
            (CoordKey::Point(_), _) => Ordering::Less,
            (_, CoordKey::Point(_)) => Ordering::Greater,
            _ => {
                let (n, m) = (self.arity(), other.arity());
                for i in 0..n.min(m) {
                    match self.word(i).cmp(&other.word(i)) {
                        Ordering::Equal => {}
                        o => return o,
                    }
                }
                n.cmp(&m)
            }
        }
    }

    /// Comparison against a materialized coordinate.
    #[inline]
    pub fn cmp_coord(&self, other: &Coord) -> Ordering {
        if let CoordKey::Point(a) = self {
            return Coord::Point(*a).cmp(other);
        }
        let n = self.arity();
        match other {
            Coord::Point(_) => Ordering::Greater,
            Coord::Tuple(cs) => {
                for (i, theirs) in cs.iter().enumerate().take(n) {
                    match Coord::Point(self.word(i)).cmp(theirs) {
                        Ordering::Equal => {}
                        o => return o,
                    }
                }
                n.cmp(&cs.len())
            }
        }
    }

    /// The integer value if this is a point coordinate.
    #[inline]
    pub fn as_point(&self) -> Option<u64> {
        match self {
            CoordKey::Point(p) => Some(*p),
            CoordKey::Pair(..) | CoordKey::Tuple(_) => None,
        }
    }

    /// Component `i` of the coordinate, without allocating: a point is its
    /// own single component, a tuple has one per flattened rank (as
    /// [`Coord::components`]).
    #[inline]
    pub fn component(&self, i: usize) -> Option<CoordKey<'a>> {
        match *self {
            CoordKey::Point(_) => (i == 0).then_some(*self),
            _ => (i < self.arity()).then(|| CoordKey::Point(self.word(i))),
        }
    }

    /// Materializes the coordinate (copies points, builds tuples).
    #[inline]
    pub fn to_coord(&self) -> Coord {
        match self {
            CoordKey::Point(p) => Coord::Point(*p),
            CoordKey::Pair(a, b) => Coord::pair(*a, *b),
            CoordKey::Tuple(t) => {
                Coord::Tuple((0..t.arity()).map(|c| Coord::Point(t.get(c))).collect())
            }
        }
    }
}

impl<'a> FiberView<'a> {
    /// Number of (present) elements in the fiber.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.end - self.start
    }

    /// Whether the fiber has no elements.
    pub fn is_empty(&self) -> bool {
        self.occupancy() == 0
    }

    /// The fiber's shape (legal coordinate space).
    pub fn shape(&self) -> Shape {
        self.tree.rank_shapes()[self.level].clone()
    }

    /// The coordinate at `pos`, materialized.
    pub fn coord_at(&self, pos: usize) -> Coord {
        self.coord_key_at(pos).to_coord()
    }

    /// The coordinate at `pos` as an allocation-free comparison key.
    #[inline]
    pub fn coord_key_at(&self, pos: usize) -> CoordKey<'a> {
        self.tree.coord_key(self.level, self.start + pos)
    }

    /// The payload at `pos`.
    #[inline]
    pub fn payload_at(&self, pos: usize) -> PayloadView<'a> {
        let p = self.start + pos;
        if self.level + 1 == self.tree.order() {
            PayloadView::Val(self.tree.value_at(p))
        } else {
            let (start, end) = self.tree.child_range(self.level, p);
            PayloadView::Fiber(FiberView {
                tree: self.tree,
                level: self.level + 1,
                start,
                end,
            })
        }
    }

    /// Where the element at `pos` lives in compressed storage: its level
    /// and its absolute position in that level's flat arrays. The pair
    /// names one element of the tensor, the same for every cursor onto
    /// it, so the simulator's channels index their per-element state by
    /// it.
    #[inline]
    pub fn csf_position(&self, pos: usize) -> (usize, usize) {
        (self.level, self.start + pos)
    }

    /// The fiber's coordinates as one raw integer run, when its level
    /// holds point coordinates (`None` for tuple levels). Co-iteration
    /// scans and merges such runs by direct integer compares.
    #[inline]
    pub fn point_run(&self) -> Option<PointRun<'a>> {
        self.tree.point_run(self.level, self.start, self.end)
    }

    /// Binary-searches for a comparison key, returning its position.
    pub fn position_of_key(&self, key: &CoordKey<'_>) -> Option<usize> {
        self.tree
            .position_in(self.level, self.start, self.end, key)
            .map(|p| p - self.start)
    }

    /// Iterates `(coordinate, payload)` pairs in coordinate order.
    pub fn iter(&self) -> FiberViewIter<'a> {
        FiberViewIter {
            view: *self,
            pos: 0,
        }
    }

    /// Number of scalar leaves beneath this fiber, in `O(depth)`: a
    /// range's children are a contiguous range, so each rank is two
    /// segment lookups.
    pub fn leaf_count(&self) -> usize {
        self.tree.leaf_count_in(self.level, self.start, self.end)
    }
}

/// Iterator over a [`FiberView`]'s elements.
#[derive(Clone, Debug)]
pub struct FiberViewIter<'a> {
    view: FiberView<'a>,
    pos: usize,
}

impl<'a> Iterator for FiberViewIter<'a> {
    type Item = (Coord, PayloadView<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.view.occupancy() {
            return None;
        }
        let item = (self.view.coord_at(self.pos), self.view.payload_at(self.pos));
        self.pos += 1;
        Some(item)
    }
}

impl<'a> PayloadView<'a> {
    /// The scalar value if this is a leaf payload.
    pub fn as_val(&self) -> Option<f64> {
        match self {
            PayloadView::Val(v) => Some(*v),
            PayloadView::Fiber(_) => None,
        }
    }

    /// The child fiber view if this is an intermediate payload.
    pub fn as_fiber(&self) -> Option<FiberView<'a>> {
        match self {
            PayloadView::Val(_) => None,
            PayloadView::Fiber(f) => Some(*f),
        }
    }
}

impl CompressedTensor {
    /// A cursor onto the root payload: the root fiber, or the value of a
    /// scalar.
    pub fn root_view(&self) -> PayloadView<'_> {
        match self.root_fiber_view() {
            Some(f) => PayloadView::Fiber(f),
            None => PayloadView::Val(self.values()[0]),
        }
    }

    /// A cursor onto the root fiber (`None` for scalars).
    pub fn root_fiber_view(&self) -> Option<FiberView<'_>> {
        (self.order() > 0).then(|| FiberView {
            tree: self,
            level: 0,
            start: 0,
            end: self.level_len(0),
        })
    }

    /// Stable FNV-1a content hash: name, rank labels, shapes, and every
    /// nonzero leaf (coordinates tagged, values by bit pattern).
    ///
    /// The hash depends on content only — two tensors holding the same
    /// nonzero leaves hash equally however they were built — so it can
    /// key shared caches (the `PreparedInputs` stage of the evaluation
    /// pipeline). Costs two walks over the stored coordinates (one counts
    /// the nonzero leaves, one hashes them), read in place without
    /// building a path per leaf; hash once and reuse the key.
    pub fn content_hash(&self) -> u64 {
        fn absorb_shape(h: &mut Fnv1a, shape: &Shape) {
            match shape {
                Shape::Interval(n) => {
                    h.write_u64(0);
                    h.write_u64(*n);
                }
                Shape::Tuple(parts) => {
                    h.write_u64(1);
                    h.write_u64(parts.len() as u64);
                    for p in parts {
                        absorb_shape(h, p);
                    }
                }
            }
        }
        fn absorb_point(h: &mut Fnv1a, p: u64) {
            h.write_u64(0);
            h.write_u64(p);
        }
        // The same bytes a materialized `Coord` path would absorb:
        // compressed tuples are flat tuples of points.
        fn absorb_key(h: &mut Fnv1a, key: &CoordKey<'_>) {
            match key {
                CoordKey::Point(p) => absorb_point(h, *p),
                _ => {
                    h.write_u64(1);
                    h.write_u64(key.arity() as u64);
                    for c in 0..key.arity() {
                        absorb_point(h, key.word(c));
                    }
                }
            }
        }
        let mut h = Fnv1a::new();
        h.write_str("tensor-content-v1");
        h.write_str(self.name());
        h.write_u64(self.order() as u64);
        for rank in self.rank_ids() {
            h.write_str(rank);
        }
        for shape in self.rank_shapes() {
            absorb_shape(&mut h, shape);
        }
        let mut path = Vec::with_capacity(self.order());
        let mut leaves = 0u64;
        for_each_leaf(self.root_view(), &mut path, &mut |_, _| leaves += 1);
        h.write_u64(leaves);
        for_each_leaf(self.root_view(), &mut path, &mut |path, value| {
            h.write_u64(path.len() as u64);
            for key in path {
                absorb_key(&mut h, key);
            }
            h.write_f64(value);
        });
        h.finish()
    }
}

/// Calls `f(path, value)` for every nonzero leaf under `node`, in
/// lexicographic order, with the path lent as in-place keys instead of
/// cloned per leaf.
fn for_each_leaf<'a>(
    node: PayloadView<'a>,
    path: &mut Vec<CoordKey<'a>>,
    f: &mut impl FnMut(&[CoordKey<'a>], f64),
) {
    match node {
        PayloadView::Val(v) => {
            if v != 0.0 {
                f(path, v);
            }
        }
        PayloadView::Fiber(fiber) => {
            for pos in 0..fiber.occupancy() {
                path.push(fiber.coord_key_at(pos));
                for_each_leaf(fiber.payload_at(pos), path, f);
                path.pop();
            }
        }
    }
}

/// A tensor handed to an evaluation, in either representation.
///
/// This is an input type only: nothing reads an owned tree through a
/// cursor. The simulator compresses an owned input once, at its API
/// boundary, and every output it builds is compressed.
#[derive(Clone, Debug, PartialEq)]
pub enum TensorData {
    /// An owned fibertree.
    Owned(Tensor),
    /// Compressed (CSF) storage.
    Compressed(CompressedTensor),
}

impl TensorData {
    /// The tensor's name.
    pub fn name(&self) -> &str {
        match self {
            TensorData::Owned(t) => t.name(),
            TensorData::Compressed(c) => c.name(),
        }
    }

    /// The labelled ranks, top-to-bottom.
    pub fn rank_ids(&self) -> &[String] {
        match self {
            TensorData::Owned(t) => t.rank_ids(),
            TensorData::Compressed(c) => c.rank_ids(),
        }
    }

    /// The per-rank shapes, in rank order.
    pub fn rank_shapes(&self) -> &[Shape] {
        match self {
            TensorData::Owned(t) => t.rank_shapes(),
            TensorData::Compressed(c) => c.rank_shapes(),
        }
    }

    /// Number of ranks.
    pub fn order(&self) -> usize {
        self.rank_ids().len()
    }

    /// Number of stored leaves.
    pub fn nnz(&self) -> usize {
        match self {
            TensorData::Owned(t) => t.nnz(),
            TensorData::Compressed(c) => c.nnz(),
        }
    }

    /// Rough resident size for cache accounting: one value plus one
    /// coordinate word per rank per leaf, as CSF stores it — good enough
    /// for byte-bounded caches and telemetry, not allocator-exact.
    pub fn approx_bytes(&self) -> u64 {
        (self.nnz() as u64) * (8 + 8 * self.order() as u64)
    }

    /// Per-rank `(fiber count, total occupancy)` statistics.
    pub fn rank_stats(&self) -> Vec<(usize, usize)> {
        match self {
            TensorData::Owned(t) => t.rank_stats(),
            TensorData::Compressed(c) => c.rank_stats(),
        }
    }

    /// Looks up the value at a point, in either representation.
    pub fn get(&self, point: &[u64]) -> Option<f64> {
        match self {
            TensorData::Owned(t) => t.get(point),
            TensorData::Compressed(c) => c.get(point),
        }
    }

    /// Enumerates `(path, value)` for every nonzero leaf (coordinates may
    /// be tuples on flattened ranks), in lexicographic order.
    pub fn leaves(&self) -> Vec<(Vec<Coord>, f64)> {
        match self {
            TensorData::Owned(t) => t.leaves(),
            TensorData::Compressed(c) => c.leaves(),
        }
    }

    /// Enumerates `(point, value)` for every nonzero leaf, in
    /// lexicographic order.
    ///
    /// # Panics
    ///
    /// Panics if a flattened (tuple-coordinate) rank is encountered.
    pub fn entries(&self) -> Vec<(Vec<u64>, f64)> {
        match self {
            TensorData::Owned(t) => t.entries(),
            TensorData::Compressed(c) => c.entries(),
        }
    }

    /// Maximum elementwise absolute difference against another tensor in
    /// either representation — convenience for functional validation,
    /// without decompressing either side.
    pub fn max_abs_diff(&self, other: &TensorData) -> f64 {
        let mut points: std::collections::BTreeMap<Vec<Coord>, (f64, f64)> =
            std::collections::BTreeMap::new();
        for (p, v) in self.leaves() {
            points.entry(p).or_insert((0.0, 0.0)).0 = v;
        }
        for (p, v) in other.leaves() {
            points.entry(p).or_insert((0.0, 0.0)).1 = v;
        }
        points
            .values()
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Whether this is the compressed representation.
    pub fn is_compressed(&self) -> bool {
        matches!(self, TensorData::Compressed(_))
    }
}

impl std::fmt::Display for TensorData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorData::Owned(t) => t.fmt(f),
            TensorData::Compressed(c) => c.fmt(f),
        }
    }
}

impl From<Tensor> for TensorData {
    fn from(t: Tensor) -> Self {
        TensorData::Owned(t)
    }
}

impl From<CompressedTensor> for TensorData {
    fn from(c: CompressedTensor) -> Self {
        TensorData::Compressed(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fiber::{Fiber, Payload};
    use crate::tensor::{fig1_matrix_a, TensorBuilder};

    fn fig1() -> (Tensor, CompressedTensor) {
        let t = fig1_matrix_a();
        let c = CompressedTensor::from_tensor(&t).unwrap();
        (t, c)
    }

    /// Every `(coord, payload)` of a compressed fiber, checked element by
    /// element against the owned fiber it was built from.
    fn assert_matches_owned(view: FiberView<'_>, owned: &Fiber) {
        assert_eq!(view.occupancy(), owned.occupancy());
        assert_eq!(view.shape(), *owned.shape());
        for (pos, e) in owned.elements().iter().enumerate() {
            assert_eq!(view.coord_at(pos), e.coord);
            match (view.payload_at(pos), &e.payload) {
                (PayloadView::Val(v), Payload::Val(w)) => assert_eq!(v, *w),
                (PayloadView::Fiber(f), Payload::Fiber(g)) => assert_matches_owned(f, g),
                (got, want) => panic!("payload kinds differ: {got:?} vs {want:?}"),
            }
        }
    }

    #[test]
    fn views_agree_across_representations() {
        let (t, c) = fig1();
        assert_matches_owned(c.root_fiber_view().unwrap(), t.root_fiber().unwrap());
        let iterated: Vec<Coord> = c
            .root_fiber_view()
            .unwrap()
            .iter()
            .map(|(k, _)| k)
            .collect();
        let want: Vec<Coord> = t
            .root_fiber()
            .unwrap()
            .iter()
            .map(|e| e.coord.clone())
            .collect();
        assert_eq!(iterated, want);
    }

    #[test]
    fn position_and_get_binary_search_both_representations() {
        let (_, c) = fig1();
        let root = c.root_fiber_view().unwrap();
        assert_eq!(root.position_of_key(&CoordKey::Point(2)), Some(1));
        assert_eq!(root.position_of_key(&CoordKey::Point(1)), None);
        let k = root.payload_at(1).as_fiber().unwrap();
        let p = k.position_of_key(&CoordKey::Point(1)).unwrap();
        assert_eq!(k.payload_at(p).as_val(), Some(4.0));
    }

    #[test]
    fn csf_positions_name_each_element_once() {
        let (_, c) = fig1();
        // Every element of every level, reached through its parent's
        // cursor, has its own (level, position), and positions count the
        // level's flat arrays in order.
        let root = c.root_fiber_view().unwrap();
        let mut seen = Vec::new();
        for p in 0..root.occupancy() {
            seen.push(root.csf_position(p));
            let child = root.payload_at(p).as_fiber().unwrap();
            for q in 0..child.occupancy() {
                seen.push(child.csf_position(q));
            }
        }
        let mut want = vec![(0, 0), (1, 0), (0, 1), (1, 1), (1, 2), (1, 3)];
        assert_eq!(seen, want);
        seen.sort_unstable();
        want.sort_unstable();
        seen.dedup();
        assert_eq!(seen, want);
        // Another cursor onto the same fiber names the same elements.
        let again = c.root_fiber_view().unwrap();
        assert_eq!(again.csf_position(1), root.csf_position(1));
    }

    #[test]
    fn point_runs_expose_compressed_point_levels_only() {
        let (_, c) = fig1();
        let root = c.root_fiber_view().unwrap();
        let run = root.point_run().unwrap();
        assert!(matches!(run, PointRun::U32(_)));
        assert_eq!((run.len(), run.get(0), run.get(1)), (2, 0, 2));
        let k = root.payload_at(1).as_fiber().unwrap().point_run().unwrap();
        assert_eq!(
            (0..k.len()).map(|i| k.get(i)).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        let flat = CompressedTensor::from_tensor(&fig1_matrix_a().flatten_rank("M", "MK").unwrap())
            .unwrap();
        assert!(flat.root_fiber_view().unwrap().point_run().is_none());
    }

    #[test]
    fn coord_keys_order_like_coords() {
        let keys = [
            CoordKey::Point(3),
            CoordKey::Point(7),
            CoordKey::Pair(0, 9),
            CoordKey::Pair(1, 2),
        ];
        for a in &keys {
            for b in &keys {
                assert_eq!(a.cmp_key(b), a.to_coord().cmp(&b.to_coord()));
                assert_eq!(a.cmp_coord(&b.to_coord()), a.to_coord().cmp(&b.to_coord()));
            }
        }
        assert_eq!(CoordKey::Point(3).to_coord(), Coord::Point(3));
        assert_eq!(
            CoordKey::Pair(1, 2).component(1).and_then(|k| k.as_point()),
            Some(2)
        );
        assert!(CoordKey::Point(3).component(1).is_none());
    }

    #[test]
    fn tuple_keys_order_and_search_like_coords() {
        let t = TensorBuilder::new("T", &["A", "B", "C"], &[3, 3, 3])
            .entry(&[0, 2, 1], 1.0)
            .entry(&[1, 0, 2], 2.0)
            .entry(&[1, 1, 0], 3.0)
            .build()
            .unwrap()
            .flatten_rank("A", "AB")
            .unwrap()
            .flatten_rank("AB", "ABC")
            .unwrap();
        let c = CompressedTensor::from_tensor(&t).unwrap();
        let root = c.root_fiber_view().unwrap();
        let coords: Vec<Coord> = t
            .root_fiber()
            .unwrap()
            .iter()
            .map(|e| e.coord.clone())
            .collect();
        for (i, ci) in coords.iter().enumerate() {
            let key = root.coord_key_at(i);
            assert!(matches!(key, CoordKey::Tuple(_)));
            assert_eq!(key.to_coord(), *ci);
            assert_eq!(
                key.component(2).and_then(|k| k.as_point()),
                ci.component(2).and_then(Coord::as_point)
            );
            assert!(key.component(3).is_none());
            assert_eq!(root.position_of_key(&key), Some(i));
            for (j, cj) in coords.iter().enumerate() {
                assert_eq!(key.cmp_key(&root.coord_key_at(j)), ci.cmp(cj));
                assert_eq!(key.cmp_coord(cj), ci.cmp(cj));
            }
            assert_eq!(
                key.cmp_key(&CoordKey::Pair(9, 9)),
                ci.cmp(&Coord::pair(9, 9))
            );
            assert_eq!(key.cmp_key(&CoordKey::Point(0)), Ordering::Greater);
        }
        assert_eq!(root.position_of_key(&CoordKey::Pair(0, 2)), None);
    }

    #[test]
    fn leaf_counts_match() {
        let (t, c) = fig1();
        let root = c.root_fiber_view().unwrap();
        assert_eq!(root.leaf_count(), t.nnz());
        for (pos, e) in t.root_fiber().unwrap().elements().iter().enumerate() {
            let want = e.payload.as_fiber().unwrap().leaf_count();
            assert_eq!(root.payload_at(pos).as_fiber().unwrap().leaf_count(), want);
        }
    }

    /// The content-hash formula, computed from an owned tensor's
    /// materialized [`Tensor::leaves`] paths.
    fn content_hash_from_leaves(t: &Tensor) -> u64 {
        fn absorb_u64(state: &mut u64, v: u64) {
            for b in v.to_le_bytes() {
                *state ^= u64::from(b);
                *state = state.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn absorb_str(state: &mut u64, s: &str) {
            absorb_u64(state, s.len() as u64);
            for &b in s.as_bytes() {
                *state ^= u64::from(b);
                *state = state.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn absorb_shape(state: &mut u64, shape: &Shape) {
            match shape {
                Shape::Interval(n) => {
                    absorb_u64(state, 0);
                    absorb_u64(state, *n);
                }
                Shape::Tuple(parts) => {
                    absorb_u64(state, 1);
                    absorb_u64(state, parts.len() as u64);
                    parts.iter().for_each(|p| absorb_shape(state, p));
                }
            }
        }
        fn absorb_coord(state: &mut u64, coord: &Coord) {
            match coord {
                Coord::Point(p) => {
                    absorb_u64(state, 0);
                    absorb_u64(state, *p);
                }
                Coord::Tuple(parts) => {
                    absorb_u64(state, 1);
                    absorb_u64(state, parts.len() as u64);
                    parts.iter().for_each(|p| absorb_coord(state, p));
                }
            }
        }
        let mut state: u64 = 0xcbf2_9ce4_8422_2325;
        absorb_str(&mut state, "tensor-content-v1");
        absorb_str(&mut state, t.name());
        absorb_u64(&mut state, t.order() as u64);
        t.rank_ids().iter().for_each(|r| absorb_str(&mut state, r));
        t.rank_shapes()
            .iter()
            .for_each(|s| absorb_shape(&mut state, s));
        let leaves: Vec<_> = t.leaves().into_iter().filter(|(_, v)| *v != 0.0).collect();
        absorb_u64(&mut state, leaves.len() as u64);
        for (path, value) in &leaves {
            absorb_u64(&mut state, path.len() as u64);
            path.iter().for_each(|c| absorb_coord(&mut state, c));
            absorb_u64(&mut state, value.to_bits());
        }
        state
    }

    #[test]
    fn content_hash_streams_the_leaves_formula() {
        let t = Tensor::from_entries(
            "T",
            &["K", "M", "N"],
            &[5, 4, 6],
            vec![
                (vec![0, 1, 2], 1.5),
                (vec![0, 3, 0], -2.0),
                (vec![2, 0, 5], 4.0),
                (vec![4, 3, 3], 0.25),
                (vec![4, 3, 5], 7.0),
            ],
        )
        .unwrap();
        let c = CompressedTensor::from_tensor(&t).unwrap();
        let pair = t.flatten_rank("K", "KM").unwrap();
        let triple = pair.flatten_rank("KM", "KMN").unwrap();
        // Explicit zeros survive `from_tensor` but are not leaves.
        let mut zeros = Tensor::from_entries("Z", &["I", "J"], &[4, 4], vec![]).unwrap();
        for (p, v) in [([0, 1], 2.0), ([0, 2], 0.0), ([3, 3], -1.0)] {
            zeros.set(&p, v);
        }
        let scalar = Tensor::from_entries("S", &[], &[], vec![(vec![], 3.0)]).unwrap();
        for owned in [&t, &pair, &triple, &zeros, &scalar] {
            let compressed = CompressedTensor::from_tensor(owned).unwrap();
            assert_eq!(
                compressed.content_hash(),
                content_hash_from_leaves(owned),
                "{}",
                owned.name()
            );
        }
        // Built on CSF directly, flattened forms hash as the owned oracle.
        let pair_c = c.flatten_rank("K", "KM").unwrap();
        assert_eq!(pair_c.content_hash(), content_hash_from_leaves(&pair));
        let triple_c = pair_c.flatten_rank("KM", "KMN").unwrap();
        assert_eq!(triple_c.content_hash(), content_hash_from_leaves(&triple));
    }

    /// Compressing an owned tree and building from its entries hash alike,
    /// and hashing is deterministic across calls.
    #[test]
    fn content_hash_is_representation_independent() {
        let (t, c) = fig1();
        let from_entries =
            CompressedTensor::from_entries(t.name(), &["M", "K"], &[4, 3], t.entries()).unwrap();
        assert_eq!(from_entries.content_hash(), c.content_hash());
        assert_eq!(c.content_hash(), content_hash_from_leaves(&t));
        assert_eq!(c.content_hash(), c.content_hash());
    }

    #[test]
    fn content_hash_is_content_sensitive() {
        let base = |name: &str, coord: u64, val: f64| {
            CompressedTensor::from_entries(name, &["I"], &[8], vec![(vec![coord], val)]).unwrap()
        };
        let t = base("T", 1, 2.0);
        assert_ne!(t.content_hash(), base("U", 1, 2.0).content_hash());
        assert_ne!(t.content_hash(), base("T", 2, 2.0).content_hash());
        assert_ne!(t.content_hash(), base("T", 1, 3.0).content_hash());
        // Values hash by bit pattern, so sign alone separates hashes.
        assert_ne!(
            base("T", 1, 2.0).content_hash(),
            base("T", 1, -2.0).content_hash()
        );
    }
}
