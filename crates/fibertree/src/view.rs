//! Read-only cursors over fibertree storage: [`FiberView`],
//! [`PayloadView`], and the representation-erasing [`TensorData`].
//!
//! A `FiberView` is a cheap `Copy` cursor onto one fiber, regardless of
//! whether that fiber lives in an owned [`Fiber`] tree or in a
//! [`CompressedTensor`]'s flat arrays. The streaming co-iteration layer
//! ([`crate::iterate`]) and the simulator's engine drive these cursors
//! end-to-end, so the hot path neither clones subtrees nor cares which
//! representation a tensor arrived in.

use std::cmp::Ordering;

use crate::compressed::{CompressedTensor, Level};
use crate::coord::{Coord, Shape};
use crate::fiber::{Fiber, Payload};
use crate::tensor::Tensor;

/// A read-only cursor onto one fiber of either representation.
///
/// Positions index the fiber's elements in coordinate order, exactly like
/// [`Fiber::elements`]. All accessors are `O(1)` or a binary search
/// (except [`FiberView::leaf_count`] — see its docs); none allocate
/// except [`FiberView::coord_at`] on tuple coordinates.
#[derive(Clone, Copy, Debug)]
pub enum FiberView<'a> {
    /// A fiber of an owned tree.
    Owned(&'a Fiber),
    /// A fiber of a compressed tensor: the elements
    /// `coords[level][start..end]`.
    Compressed {
        /// The backing compressed tensor.
        tree: &'a CompressedTensor,
        /// The rank (level) this fiber sits at.
        level: usize,
        /// First element position (inclusive) in the level's flat arrays.
        start: usize,
        /// Last element position (exclusive).
        end: usize,
    },
}

/// What a fiber element holds: a scalar leaf or the fiber one rank below.
#[derive(Clone, Copy, Debug)]
pub enum PayloadView<'a> {
    /// A scalar value (leaf).
    Val(f64),
    /// The child fiber.
    Fiber(FiberView<'a>),
}

/// A borrowed-or-inline coordinate, for comparisons that must not
/// allocate: owned fibers lend `&Coord` (possibly a tuple), compressed
/// fibers produce inline points and pairs, and read deeper tuples in place
/// from the level's component stores.
#[derive(Clone, Copy, Debug)]
pub enum CoordKey<'a> {
    /// A coordinate borrowed from an owned fiber.
    Borrowed(&'a Coord),
    /// An inline point coordinate from a compressed fiber.
    Point(u64),
    /// An inline pair coordinate from a compressed flattened rank.
    Pair(u64, u64),
    /// A tuple of three or more components on a compressed flattened
    /// rank, read in place.
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
    /// Number of components of an inline key (1 for points, 0 for
    /// borrowed coordinates, which have no inline words).
    #[inline]
    fn inline_arity(&self) -> usize {
        match self {
            CoordKey::Borrowed(_) => 0,
            CoordKey::Point(_) => 1,
            CoordKey::Pair(..) => 2,
            CoordKey::Tuple(t) => t.arity(),
        }
    }

    /// Component `i` of an inline key.
    #[inline]
    fn inline_word(&self, i: usize) -> u64 {
        match *self {
            CoordKey::Point(p) => p,
            CoordKey::Pair(a, b) => [a, b][i],
            CoordKey::Tuple(t) => t.get(i),
            CoordKey::Borrowed(_) => unreachable!("borrowed keys have no inline words"),
        }
    }

    /// Total order, agreeing with [`Coord`]'s `Ord` (points before
    /// tuples, tuples lexicographic with length tiebreak).
    #[inline]
    pub fn cmp_key(&self, other: &CoordKey<'_>) -> Ordering {
        match (self, other) {
            (CoordKey::Point(a), CoordKey::Point(b)) => a.cmp(b),
            (CoordKey::Pair(a, b), CoordKey::Pair(c, d)) => (a, b).cmp(&(c, d)),
            (CoordKey::Borrowed(a), CoordKey::Borrowed(b)) => a.cmp(b),
            (CoordKey::Borrowed(a), _) => other.cmp_coord(a).reverse(),
            (_, CoordKey::Borrowed(b)) => self.cmp_coord(b),
            (CoordKey::Point(_), _) => Ordering::Less,
            (_, CoordKey::Point(_)) => Ordering::Greater,
            _ => {
                let (n, m) = (self.inline_arity(), other.inline_arity());
                for i in 0..n.min(m) {
                    match self.inline_word(i).cmp(&other.inline_word(i)) {
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
        let n = match self {
            CoordKey::Borrowed(a) => return (*a).cmp(other),
            CoordKey::Point(a) => return Coord::Point(*a).cmp(other),
            _ => self.inline_arity(),
        };
        match other {
            Coord::Point(_) => Ordering::Greater,
            Coord::Tuple(cs) => {
                for (i, theirs) in cs.iter().enumerate().take(n) {
                    match Coord::Point(self.inline_word(i)).cmp(theirs) {
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
            CoordKey::Borrowed(c) => c.as_point(),
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
            CoordKey::Pair(a, b) => match i {
                0 => Some(CoordKey::Point(a)),
                1 => Some(CoordKey::Point(b)),
                _ => None,
            },
            CoordKey::Tuple(t) => (i < t.arity()).then(|| CoordKey::Point(t.get(i))),
            CoordKey::Borrowed(c) => c.component(i).map(CoordKey::Borrowed),
        }
    }

    /// Materializes the coordinate (clones tuples, copies points).
    #[inline]
    pub fn to_coord(&self) -> Coord {
        match self {
            CoordKey::Borrowed(c) => (*c).clone(),
            CoordKey::Point(p) => Coord::Point(*p),
            CoordKey::Pair(a, b) => Coord::pair(*a, *b),
            CoordKey::Tuple(t) => {
                Coord::Tuple((0..t.arity()).map(|c| Coord::Point(t.get(c))).collect())
            }
        }
    }
}

impl<'a> FiberView<'a> {
    /// A cursor onto a compressed tensor's root fiber (`None` for
    /// scalars).
    pub fn of_compressed(tree: &'a CompressedTensor) -> Option<FiberView<'a>> {
        if tree.order() == 0 {
            None
        } else {
            Some(FiberView::Compressed {
                tree,
                level: 0,
                start: 0,
                end: tree.level_len(0),
            })
        }
    }

    /// Number of (present) elements in the fiber.
    #[inline]
    pub fn occupancy(&self) -> usize {
        match self {
            FiberView::Owned(f) => f.occupancy(),
            FiberView::Compressed { start, end, .. } => end - start,
        }
    }

    /// Whether the fiber has no elements.
    pub fn is_empty(&self) -> bool {
        self.occupancy() == 0
    }

    /// The fiber's shape (legal coordinate space).
    pub fn shape(&self) -> Shape {
        match self {
            FiberView::Owned(f) => f.shape().clone(),
            FiberView::Compressed { tree, level, .. } => tree.rank_shapes()[*level].clone(),
        }
    }

    /// The coordinate at `pos`, materialized.
    pub fn coord_at(&self, pos: usize) -> Coord {
        self.coord_key_at(pos).to_coord()
    }

    /// The coordinate at `pos` as an allocation-free comparison key.
    #[inline]
    pub fn coord_key_at(&self, pos: usize) -> CoordKey<'a> {
        match self {
            FiberView::Owned(f) => CoordKey::Borrowed(&f.elements()[pos].coord),
            FiberView::Compressed {
                tree, level, start, ..
            } => tree.coord_key(*level, start + pos),
        }
    }

    /// The payload at `pos`.
    #[inline]
    pub fn payload_at(&self, pos: usize) -> PayloadView<'a> {
        match self {
            FiberView::Owned(f) => PayloadView::of(&f.elements()[pos].payload),
            FiberView::Compressed {
                tree, level, start, ..
            } => {
                let p = start + pos;
                if level + 1 == tree.order() {
                    PayloadView::Val(tree.value_at(p))
                } else {
                    let (cs, ce) = tree.child_range(*level, p);
                    PayloadView::Fiber(FiberView::Compressed {
                        tree,
                        level: level + 1,
                        start: cs,
                        end: ce,
                    })
                }
            }
        }
    }

    /// A stable identity for the element at `pos`, unique within the
    /// backing storage for the lifetime of the borrow. The simulator's
    /// instrumentation uses this to deduplicate touches; the value itself
    /// carries no meaning.
    #[inline]
    pub fn payload_key(&self, pos: usize) -> usize {
        match self {
            FiberView::Owned(f) => &f.elements()[pos].payload as *const Payload as usize,
            FiberView::Compressed {
                tree, level, start, ..
            } => tree.payload_key(*level, start + pos),
        }
    }

    /// Binary-searches for `coord`, returning its position if present.
    pub fn position(&self, coord: &Coord) -> Option<usize> {
        match self {
            FiberView::Owned(f) => f.position(coord),
            FiberView::Compressed {
                tree,
                level,
                start,
                end,
            } => tree
                .position_in(*level, *start, *end, &CoordKey::Borrowed(coord))
                .map(|p| p - start),
        }
    }

    /// Binary-searches for a comparison key, returning its position.
    pub fn position_of_key(&self, key: &CoordKey<'_>) -> Option<usize> {
        match self {
            FiberView::Owned(f) => f
                .elements()
                .binary_search_by(|e| key.cmp_coord(&e.coord).reverse())
                .ok(),
            FiberView::Compressed {
                tree,
                level,
                start,
                end,
            } => tree
                .position_in(*level, *start, *end, key)
                .map(|p| p - start),
        }
    }

    /// Looks up the payload stored at `coord`.
    pub fn get(&self, coord: &Coord) -> Option<PayloadView<'a>> {
        self.position(coord).map(|p| self.payload_at(p))
    }

    /// Iterates `(coordinate, payload)` pairs in coordinate order.
    pub fn iter(&self) -> FiberViewIter<'a> {
        FiberViewIter {
            view: *self,
            pos: 0,
        }
    }

    /// Number of scalar leaves beneath this fiber (`O(subtree)` for
    /// owned trees, `O(depth)` for compressed storage — a range's
    /// children are a contiguous range, so each rank is two segment
    /// lookups).
    pub fn leaf_count(&self) -> usize {
        match self {
            FiberView::Owned(f) => f.leaf_count(),
            FiberView::Compressed {
                tree,
                level,
                start,
                end,
            } => tree.leaf_count_in(*level, *start, *end),
        }
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
    /// Wraps a borrowed owned-tree payload.
    pub fn of(p: &'a Payload) -> Self {
        match p {
            Payload::Val(v) => PayloadView::Val(*v),
            Payload::Fiber(f) => PayloadView::Fiber(FiberView::Owned(f)),
        }
    }

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

/// A tensor in either representation, presented uniformly.
///
/// The simulator takes its inputs as `TensorData`: owned trees when the
/// workload is small or needs in-place construction, compressed storage
/// when it is large and read-only. [`TensorData::root_view`] hands the
/// engine a cursor either way; everything the engine builds (transformed
/// inputs, outputs) is compressed.
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

    /// A cursor onto the root payload.
    pub fn root_view(&self) -> PayloadView<'_> {
        match self {
            TensorData::Owned(t) => PayloadView::of(t.root()),
            TensorData::Compressed(c) => {
                if c.order() == 0 {
                    PayloadView::Val(c.values()[0])
                } else {
                    PayloadView::Fiber(FiberView::Compressed {
                        tree: c,
                        level: 0,
                        start: 0,
                        end: c.level_len(0),
                    })
                }
            }
        }
    }

    /// The root fiber view, if this is not a scalar.
    pub fn root_fiber_view(&self) -> Option<FiberView<'_>> {
        self.root_view().as_fiber()
    }

    /// Borrows the owned tensor, if this is the owned representation.
    pub fn as_owned(&self) -> Option<&Tensor> {
        match self {
            TensorData::Owned(t) => Some(t),
            TensorData::Compressed(_) => None,
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

    /// Stable FNV-1a content hash: name, rank labels, shapes, and every
    /// nonzero leaf (coordinates tagged, values by bit pattern).
    ///
    /// The hash is representation-independent — an owned tensor and its
    /// compressed form hash equally — so it can key shared caches (the
    /// `PreparedInputs` stage of the evaluation pipeline) no matter which
    /// storage a tensor arrived in. Costs one full [`TensorData::leaves`]
    /// walk; hash once and reuse the key.
    pub fn content_hash(&self) -> u64 {
        fn absorb(state: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *state ^= u64::from(b);
                *state = state.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn absorb_u64(state: &mut u64, v: u64) {
            absorb(state, &v.to_le_bytes());
        }
        fn absorb_str(state: &mut u64, s: &str) {
            absorb_u64(state, s.len() as u64);
            absorb(state, s.as_bytes());
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
                    for p in parts {
                        absorb_shape(state, p);
                    }
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
                    for p in parts {
                        absorb_coord(state, p);
                    }
                }
            }
        }
        let mut state: u64 = 0xcbf2_9ce4_8422_2325;
        absorb_str(&mut state, "tensor-content-v1");
        absorb_str(&mut state, self.name());
        absorb_u64(&mut state, self.order() as u64);
        for rank in self.rank_ids() {
            absorb_str(&mut state, rank);
        }
        for shape in self.rank_shapes() {
            absorb_shape(&mut state, shape);
        }
        let leaves = self.leaves();
        absorb_u64(&mut state, leaves.len() as u64);
        for (path, value) in &leaves {
            absorb_u64(&mut state, path.len() as u64);
            for coord in path {
                absorb_coord(&mut state, coord);
            }
            absorb_u64(&mut state, value.to_bits());
        }
        state
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
    use crate::tensor::fig1_matrix_a;

    fn both_views() -> (TensorData, TensorData) {
        let t = fig1_matrix_a();
        let c = CompressedTensor::from_tensor(&t).unwrap();
        (TensorData::Owned(t), TensorData::Compressed(c))
    }

    #[test]
    fn views_agree_across_representations() {
        let (o, c) = both_views();
        let (fo, fc) = (o.root_fiber_view().unwrap(), c.root_fiber_view().unwrap());
        assert_eq!(fo.occupancy(), fc.occupancy());
        for pos in 0..fo.occupancy() {
            assert_eq!(fo.coord_at(pos), fc.coord_at(pos));
            let (po, pc) = (fo.payload_at(pos), fc.payload_at(pos));
            let (ko, kc) = (po.as_fiber().unwrap(), pc.as_fiber().unwrap());
            let leaves_o: Vec<(Coord, f64)> =
                ko.iter().map(|(c, p)| (c, p.as_val().unwrap())).collect();
            let leaves_c: Vec<(Coord, f64)> =
                kc.iter().map(|(c, p)| (c, p.as_val().unwrap())).collect();
            assert_eq!(leaves_o, leaves_c);
        }
    }

    #[test]
    fn position_and_get_binary_search_both_representations() {
        let (o, c) = both_views();
        for data in [&o, &c] {
            let root = data.root_fiber_view().unwrap();
            assert_eq!(root.position(&Coord::Point(2)), Some(1));
            assert_eq!(root.position(&Coord::Point(1)), None);
            let k = root.get(&Coord::Point(2)).unwrap().as_fiber().unwrap();
            assert_eq!(k.get(&Coord::Point(1)).unwrap().as_val(), Some(4.0));
        }
    }

    #[test]
    fn payload_keys_are_stable_and_distinct() {
        let (_, c) = both_views();
        let root = c.root_fiber_view().unwrap();
        let keys: Vec<usize> = (0..root.occupancy()).map(|p| root.payload_key(p)).collect();
        assert_eq!(
            keys,
            (0..root.occupancy())
                .map(|p| root.payload_key(p))
                .collect::<Vec<_>>()
        );
        let mut dedup = keys.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
    }

    #[test]
    fn coord_keys_order_like_coords() {
        let tuple = Coord::pair(1, 2);
        let key = CoordKey::Borrowed(&tuple);
        assert_eq!(
            key.cmp_key(&CoordKey::Point(9)),
            std::cmp::Ordering::Greater
        );
        assert_eq!(
            CoordKey::Point(3).cmp_key(&CoordKey::Point(7)),
            std::cmp::Ordering::Less
        );
        assert_eq!(CoordKey::Point(3).to_coord(), Coord::Point(3));
    }

    #[test]
    fn tuple_keys_order_and_search_like_coords() {
        let t = crate::tensor::TensorBuilder::new("T", &["A", "B", "C"], &[3, 3, 3])
            .entry(&[0, 2, 1], 1.0)
            .entry(&[1, 0, 2], 2.0)
            .entry(&[1, 1, 0], 3.0)
            .build()
            .unwrap()
            .flatten_rank("A", "AB")
            .unwrap()
            .flatten_rank("AB", "ABC")
            .unwrap();
        let c = TensorData::Compressed(CompressedTensor::from_tensor(&t).unwrap());
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
            assert_eq!(root.position(ci), Some(i));
            assert_eq!(root.position_of_key(&key), Some(i));
            for (j, cj) in coords.iter().enumerate() {
                assert_eq!(key.cmp_key(&root.coord_key_at(j)), ci.cmp(cj));
                assert_eq!(key.cmp_coord(cj), ci.cmp(cj));
            }
            assert_eq!(
                key.cmp_key(&CoordKey::Pair(9, 9)),
                ci.cmp(&Coord::pair(9, 9))
            );
            assert_eq!(
                key.cmp_key(&CoordKey::Point(0)),
                std::cmp::Ordering::Greater
            );
        }
        assert_eq!(root.position(&Coord::pair(0, 2)), None);
    }

    #[test]
    fn leaf_counts_match() {
        let (o, c) = both_views();
        assert_eq!(
            o.root_fiber_view().unwrap().leaf_count(),
            c.root_fiber_view().unwrap().leaf_count()
        );
        assert_eq!(o.nnz(), c.nnz());
    }

    #[test]
    fn content_hash_is_representation_independent() {
        let (o, c) = both_views();
        assert_eq!(o.content_hash(), c.content_hash());
        // And deterministic across calls.
        assert_eq!(o.content_hash(), o.content_hash());
    }

    #[test]
    fn content_hash_is_content_sensitive() {
        use crate::tensor::TensorBuilder;
        let base = |name: &str, coord: u64, val: f64| {
            TensorData::Owned(
                TensorBuilder::new(name, &["I"], &[8])
                    .entry(&[coord], val)
                    .build()
                    .unwrap(),
            )
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
