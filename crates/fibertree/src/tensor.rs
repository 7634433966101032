//! Owned tensors: one sorted entry list with named, ordered ranks.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::coord::{Coord, Shape};
use crate::error::FibertreeError;

/// An owned `N`-tensor: its leaves as one flat list sorted in
/// lexicographic (row-major) order of their coordinate paths.
///
/// The fibertree (paper §2.1) is the view, not the storage: a fiber is
/// the run of entries that share a coordinate prefix, so `Display` and
/// [`Tensor::rank_stats`] read the tree off the sorted list. Each level
/// of that tree is a labelled rank; the order of `rank_ids` read
/// left-to-right matches levels read top-to-bottom. Entry `i` holds
/// [`Tensor::order`] coordinates (tuples on flattened ranks) and one
/// value. Sparse tensors omit empty payloads. A 0-tensor (scalar) has no
/// ranks and exactly one entry with no coordinates.
///
/// [`Tensor::set`] appends in O(1) when the point sorts after the last
/// entry and otherwise binary-searches and inserts. Evaluation reads
/// [`CompressedTensor`](crate::CompressedTensor)s; this is the writable
/// builder that is compressed once, in one sorted pass.
///
/// # Examples
///
/// ```
/// use teaal_fibertree::Tensor;
/// // The matrix A from Fig. 1 of the paper.
/// let a = Tensor::from_entries(
///     "A",
///     &["M", "K"],
///     &[4, 3],
///     vec![(vec![0, 2], 3.0), (vec![2, 0], 9.0), (vec![2, 1], 4.0), (vec![2, 2], 5.0)],
/// ).unwrap();
/// assert_eq!(a.nnz(), 4);
/// assert_eq!(a.get(&[0, 2]), Some(3.0));
/// assert_eq!(a.get(&[1, 1]), None);
/// assert_eq!(a.to_string(), "A[M, K] = [0: [2: 3], 2: [0: 9, 1: 4, 2: 5]]");
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Tensor {
    name: String,
    rank_ids: Vec<String>,
    rank_shapes: Vec<Shape>,
    /// Entry `i`'s path is `coords[i * order .. (i + 1) * order]`.
    coords: Vec<Coord>,
    /// Entry `i`'s value; explicit zeros are kept.
    values: Vec<f64>,
}

/// Validates COO `(point, value)` entries against `shape`, sums
/// duplicate points and drops zero sums: the one intake behind
/// [`Tensor::from_entries`] and
/// [`CompressedTensor::from_entries`](crate::CompressedTensor::from_entries).
/// Yields the surviving points in lexicographic order.
///
/// # Errors
///
/// Returns [`FibertreeError::ArityMismatch`] for an entry of the wrong
/// length and [`FibertreeError::OutOfShape`] for a coordinate outside
/// its rank's extent.
pub(crate) fn coo_intake(
    shape: &[u64],
    entries: Vec<(Vec<u64>, f64)>,
) -> Result<impl Iterator<Item = (Vec<u64>, f64)>, FibertreeError> {
    let mut dedup: BTreeMap<Vec<u64>, f64> = BTreeMap::new();
    for (point, v) in entries {
        if point.len() != shape.len() {
            return Err(FibertreeError::ArityMismatch {
                expected: shape.len(),
                got: point.len(),
            });
        }
        if let Some((&c, &n)) = point.iter().zip(shape).find(|&(&c, &n)| c >= n) {
            return Err(FibertreeError::OutOfShape {
                coord: Coord::Point(c),
                shape: Shape::Interval(n),
            });
        }
        *dedup.entry(point).or_insert(0.0) += v;
    }
    Ok(dedup.into_iter().filter(|&(_, v)| v != 0.0))
}

impl Tensor {
    /// Creates an empty tensor with the given rank ids and interval shapes.
    ///
    /// # Panics
    ///
    /// Panics if `rank_ids` and `shape` have different lengths.
    pub fn empty(name: impl Into<String>, rank_ids: &[&str], shape: &[u64]) -> Self {
        assert_eq!(rank_ids.len(), shape.len(), "one shape per rank");
        Tensor {
            name: name.into(),
            rank_ids: rank_ids.iter().map(|s| s.to_string()).collect(),
            rank_shapes: shape.iter().map(|&n| Shape::Interval(n)).collect(),
            coords: Vec::new(),
            // A scalar always holds its one value.
            values: if shape.is_empty() {
                vec![0.0]
            } else {
                Vec::new()
            },
        }
    }

    /// Creates a 0-tensor (scalar).
    pub fn scalar(name: impl Into<String>, value: f64) -> Self {
        let mut t = Tensor::empty(name, &[], &[]);
        t.values[0] = value;
        t
    }

    /// A tensor over already sorted, duplicate-free entries (`order`
    /// coordinates per value in `coords`).
    pub(crate) fn from_sorted(
        name: impl Into<String>,
        rank_ids: Vec<String>,
        rank_shapes: Vec<Shape>,
        coords: Vec<Coord>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(coords.len(), values.len() * rank_ids.len());
        Tensor {
            name: name.into(),
            rank_ids,
            rank_shapes,
            coords,
            values,
        }
    }

    /// Builds a tensor from `(point, value)` entries.
    ///
    /// Entries with value `0.0` are dropped (the implicit-zero convention);
    /// duplicate points are summed.
    ///
    /// # Errors
    ///
    /// Returns an error if an entry's arity differs from the rank count or a
    /// coordinate falls outside the shape.
    pub fn from_entries(
        name: impl Into<String>,
        rank_ids: &[&str],
        shape: &[u64],
        entries: Vec<(Vec<u64>, f64)>,
    ) -> Result<Self, FibertreeError> {
        let mut t = Tensor::empty(name, rank_ids, shape);
        for (point, v) in coo_intake(shape, entries)? {
            if point.is_empty() {
                t.values[0] = v;
            } else {
                t.coords.extend(point.into_iter().map(Coord::Point));
                t.values.push(v);
            }
        }
        Ok(t)
    }

    /// Builds a 2-tensor from a dense row-major matrix, omitting zeros.
    pub fn from_dense_2d(name: impl Into<String>, rank_ids: &[&str; 2], rows: &[Vec<f64>]) -> Self {
        let m = rows.len() as u64;
        let k = rows.first().map_or(0, |r| r.len()) as u64;
        let mut entries = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    entries.push((vec![i as u64, j as u64], v));
                }
            }
        }
        Tensor::from_entries(name, &[rank_ids[0], rank_ids[1]], &[m, k], entries)
            .expect("dense matrix entries are in shape by construction")
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

    /// Index of a rank id within this tensor.
    ///
    /// # Errors
    ///
    /// Returns [`FibertreeError::UnknownRank`] if the rank is not present.
    pub fn rank_index(&self, rank: &str) -> Result<usize, FibertreeError> {
        self.rank_ids
            .iter()
            .position(|r| r == rank)
            .ok_or_else(|| FibertreeError::UnknownRank {
                rank: rank.to_string(),
                have: self.rank_ids.clone(),
            })
    }

    /// Number of stored leaves, explicit zeros included (a scalar counts
    /// one when nonzero).
    pub fn nnz(&self) -> usize {
        if self.order() == 0 {
            usize::from(self.values[0] != 0.0)
        } else {
            self.values.len()
        }
    }

    /// The coordinate path of entry `i`.
    fn path(&self, i: usize) -> &[Coord] {
        let n = self.order();
        &self.coords[i * n..(i + 1) * n]
    }

    /// Every stored `(path, value)` entry in lexicographic order, explicit
    /// zeros included; a scalar yields its one value with an empty path.
    pub fn iter(&self) -> impl Iterator<Item = (&[Coord], f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (self.path(i), v))
    }

    /// Binary search for an integer point: `Ok(entry)` when stored,
    /// `Err(insertion index)` otherwise. A point after the last entry is
    /// answered by one comparison.
    fn search(&self, point: &[u64]) -> Result<usize, usize> {
        let cmp = |i: usize| {
            self.path(i)
                .iter()
                .zip(point)
                .map(|(c, &p)| c.cmp(&Coord::Point(p)))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        };
        let len = self.values.len();
        if len == 0 || cmp(len - 1).is_lt() {
            return Err(len);
        }
        let (mut lo, mut hi) = (0, len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match cmp(mid) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Reads the value at an integer point, `None` when absent.
    pub fn get(&self, point: &[u64]) -> Option<f64> {
        if point.len() != self.order() {
            return None;
        }
        if point.is_empty() {
            return Some(self.values[0]);
        }
        self.search(point).ok().map(|i| self.values[i])
    }

    /// Writes a value at an integer point, overwriting a stored one. O(1)
    /// when the point sorts after every stored entry (the order outputs
    /// and generators write in); otherwise a binary search and an insert.
    ///
    /// # Panics
    ///
    /// Panics if `point` has the wrong arity.
    pub fn set(&mut self, point: &[u64], value: f64) {
        assert_eq!(
            point.len(),
            self.order(),
            "point arity must match rank count"
        );
        if point.is_empty() {
            self.values[0] = value;
            return;
        }
        match self.search(point) {
            Ok(i) => self.values[i] = value,
            Err(i) => {
                let n = self.order();
                self.coords
                    .splice(i * n..i * n, point.iter().map(|&c| Coord::Point(c)));
                self.values.insert(i, value);
            }
        }
    }

    /// Enumerates `(path, value)` for every nonzero leaf, where `path`
    /// holds one coordinate per rank (coordinates may be tuples on
    /// flattened ranks).
    pub fn leaves(&self) -> Vec<(Vec<Coord>, f64)> {
        self.iter()
            .filter(|&(_, v)| v != 0.0)
            .map(|(path, v)| (path.to_vec(), v))
            .collect()
    }

    /// Enumerates `(point, value)` for every nonzero leaf of a tensor
    /// whose ranks are all plain intervals (no flattened ranks).
    ///
    /// # Panics
    ///
    /// Panics if a flattened (tuple-coordinate) rank is encountered.
    pub fn entries(&self) -> Vec<(Vec<u64>, f64)> {
        self.iter()
            .filter(|&(_, v)| v != 0.0)
            .map(|(path, v)| {
                let pt = path
                    .iter()
                    .map(|c| c.as_point().expect("entries() requires point coordinates"))
                    .collect();
                (pt, v)
            })
            .collect()
    }

    /// Per-rank `(fiber count, total occupancy)` statistics, used by the
    /// format sizing and traffic models. An empty `N`-tensor has only its
    /// root fiber, so it reports `[(1, 0)]`.
    pub fn rank_stats(&self) -> Vec<(usize, usize)> {
        let n = self.order();
        if n == 0 {
            return Vec::new();
        }
        if self.values.is_empty() {
            return vec![(1, 0)];
        }
        // elements[d]: distinct path prefixes through rank d. Entry i
        // opens a new element at every rank from its first divergence
        // from entry i - 1 down.
        let mut elements = vec![1usize; n];
        for i in 1..self.values.len() {
            let diff = self
                .path(i - 1)
                .iter()
                .zip(self.path(i))
                .position(|(a, b)| a != b)
                .unwrap_or(n);
            for e in &mut elements[diff..] {
                *e += 1;
            }
        }
        // Rank d has one fiber per element of rank d - 1.
        let fibers = std::iter::once(1).chain(elements.iter().copied());
        fibers.zip(elements.iter().copied()).collect()
    }

    /// Largest elementwise absolute difference against another tensor —
    /// convenience for functional validation.
    pub fn max_abs_diff(&self, other: &Tensor) -> f64 {
        let mut points: BTreeMap<Vec<Coord>, (f64, f64)> = BTreeMap::new();
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

    /// Writes entries `[lo, hi)`, which share their first `depth`
    /// coordinates, as one fiber in fibertree notation.
    fn fmt_fiber(
        &self,
        f: &mut fmt::Formatter<'_>,
        depth: usize,
        lo: usize,
        hi: usize,
    ) -> fmt::Result {
        write!(f, "[")?;
        let mut i = lo;
        while i < hi {
            let c = &self.path(i)[depth];
            let end = (i + 1..hi)
                .find(|&j| self.path(j)[depth] != *c)
                .unwrap_or(hi);
            if i > lo {
                write!(f, ", ")?;
            }
            write!(f, "{c}: ")?;
            if depth + 1 == self.order() {
                write!(f, "{}", self.values[i])?;
            } else {
                self.fmt_fiber(f, depth + 1, i, end)?;
            }
            i = end;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] = ", self.name, self.rank_ids.join(", "))?;
        if self.order() == 0 {
            write!(f, "{}", self.values[0])
        } else {
            self.fmt_fiber(f, 0, 0, self.values.len())
        }
    }
}

/// Builds small tensors ergonomically in tests and examples.
///
/// # Examples
///
/// ```
/// use teaal_fibertree::TensorBuilder;
/// let b = TensorBuilder::new("B", &["K"], &[6])
///     .entry(&[0], 1.0)
///     .entry(&[4], 2.0)
///     .build()
///     .unwrap();
/// assert_eq!(b.nnz(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct TensorBuilder {
    name: String,
    rank_ids: Vec<String>,
    shape: Vec<u64>,
    entries: Vec<(Vec<u64>, f64)>,
}

impl TensorBuilder {
    /// Starts a builder for a tensor with the given ranks and shape.
    pub fn new(name: impl Into<String>, rank_ids: &[&str], shape: &[u64]) -> Self {
        TensorBuilder {
            name: name.into(),
            rank_ids: rank_ids.iter().map(|s| s.to_string()).collect(),
            shape: shape.to_vec(),
            entries: Vec::new(),
        }
    }

    /// Adds one `(point, value)` entry.
    pub fn entry(mut self, point: &[u64], value: f64) -> Self {
        self.entries.push((point.to_vec(), value));
        self
    }

    /// Adds many entries at once.
    pub fn entries(mut self, entries: impl IntoIterator<Item = (Vec<u64>, f64)>) -> Self {
        self.entries.extend(entries);
        self
    }

    /// Finishes construction.
    ///
    /// # Errors
    ///
    /// Propagates shape/arity validation errors from
    /// [`Tensor::from_entries`].
    pub fn build(self) -> Result<Tensor, FibertreeError> {
        let ids: Vec<&str> = self.rank_ids.iter().map(String::as_str).collect();
        Tensor::from_entries(self.name, &ids, &self.shape, self.entries)
    }
}

/// Returns the example matrix `A` from Fig. 1 of the paper
/// (`[M, K]` rank order, shape `4 × 3`).
pub fn fig1_matrix_a() -> Tensor {
    Tensor::from_entries(
        "A",
        &["M", "K"],
        &[4, 3],
        vec![
            (vec![0, 2], 3.0),
            (vec![2, 0], 9.0),
            (vec![2, 1], 4.0),
            (vec![2, 2], 5.0),
        ],
    )
    .expect("fig. 1 matrix is well formed")
}

/// Returns the example vector `B` from Fig. 1 of the paper
/// (`[K]` rank order, shape `3`).
pub fn fig1_vector_b() -> Tensor {
    Tensor::from_entries("B", &["K"], &[3], vec![(vec![1], 2.0), (vec![2], 6.0)])
        .expect("fig. 1 vector is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_have_no_ranks() {
        let s = Tensor::scalar("s", 3.0);
        assert_eq!(s.order(), 0);
        assert_eq!(s.get(&[]), Some(3.0));
        assert_eq!(s.nnz(), 1);
    }

    #[test]
    fn set_then_get_roundtrips() {
        let mut t = Tensor::empty("T", &["M", "K"], &[4, 4]);
        t.set(&[1, 2], 5.0);
        t.set(&[3, 0], 7.0);
        assert_eq!(t.get(&[1, 2]), Some(5.0));
        assert_eq!(t.get(&[3, 0]), Some(7.0));
        assert_eq!(t.get(&[0, 0]), None);
        assert_eq!(t.nnz(), 2);
    }

    #[test]
    fn from_entries_sums_duplicates_and_drops_zeros() {
        let t = Tensor::from_entries(
            "T",
            &["I"],
            &[4],
            vec![(vec![1], 2.0), (vec![1], 3.0), (vec![2], 0.0)],
        )
        .unwrap();
        assert_eq!(t.get(&[1]), Some(5.0));
        assert_eq!(t.nnz(), 1);
    }

    #[test]
    fn fig1_matrix_matches_paper() {
        let a = fig1_matrix_a();
        // Rank M has fibers at m=0 and m=2; K fibers hold the values shown.
        assert_eq!(a.rank_ids(), &["M".to_string(), "K".to_string()]);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(&[2, 1]), Some(4.0));
        let stats = a.rank_stats();
        assert_eq!(stats[0], (1, 2)); // one M fiber, occupancy 2
        assert_eq!(stats[1], (2, 4)); // two K fibers, total occupancy 4
    }

    #[test]
    fn entries_roundtrip_through_leaves() {
        let a = fig1_matrix_a();
        let entries = a.entries();
        let rebuilt = Tensor::from_entries("A2", &["M", "K"], &[4, 3], entries).unwrap();
        assert_eq!(rebuilt.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn dense_2d_import_skips_zeros() {
        let t = Tensor::from_dense_2d("D", &["M", "K"], &[vec![0.0, 1.0], vec![2.0, 0.0]]);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.get(&[0, 1]), Some(1.0));
        assert_eq!(t.get(&[1, 1]), None);
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let err = Tensor::from_entries("T", &["I"], &[4], vec![(vec![1, 2], 1.0)]);
        assert!(matches!(err, Err(FibertreeError::ArityMismatch { .. })));
    }

    #[test]
    fn max_abs_diff_detects_divergence() {
        let a = fig1_matrix_a();
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(&[0, 2], 4.0);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    fn from_entries_sorts_and_validates() {
        let t = Tensor::from_entries("T", &["I"], &[100], vec![(vec![5], 1.0), (vec![1], 2.0)])
            .unwrap();
        assert_eq!(t.entries(), vec![(vec![1], 2.0), (vec![5], 1.0)]);
    }

    #[test]
    fn out_of_shape_is_rejected() {
        let err = Tensor::from_entries("T", &["I"], &[4], vec![(vec![7], 1.0)]);
        assert_eq!(
            err,
            Err(FibertreeError::OutOfShape {
                coord: Coord::Point(7),
                shape: Shape::Interval(4),
            })
        );
    }

    #[test]
    fn get_uses_binary_search() {
        let t = Tensor::from_entries(
            "T",
            &["I"],
            &[100],
            vec![(vec![1], 2.0), (vec![5], 6.0), (vec![9], 10.0)],
        )
        .unwrap();
        assert_eq!(t.get(&[5]), Some(6.0));
        assert_eq!(t.get(&[4]), None);
        assert_eq!(t.get(&[10]), None);
        assert_eq!(t.get(&[5, 0]), None);
    }

    #[test]
    fn set_keeps_entries_sorted() {
        let mut t = Tensor::empty("T", &["I", "J"], &[10, 10]);
        t.set(&[2, 8], 1.0);
        t.set(&[2, 2], 2.0);
        t.set(&[0, 5], 3.0);
        t.set(&[2, 8], 4.0); // overwrite
        t.set(&[9, 0], 5.0); // append
        let points: Vec<Vec<u64>> = t.entries().into_iter().map(|(p, _)| p).collect();
        assert_eq!(points, vec![vec![0, 5], vec![2, 2], vec![2, 8], vec![9, 0]]);
        assert_eq!(t.get(&[2, 8]), Some(4.0));
    }

    #[test]
    fn rank_stats_counts_fibers_and_occupancy() {
        let t = Tensor::from_entries(
            "T",
            &["I", "J"],
            &[4, 100],
            vec![(vec![0, 0], 1.0), (vec![0, 2], 2.0), (vec![3, 1], 3.0)],
        )
        .unwrap();
        assert_eq!(t.rank_stats(), vec![(1, 2), (2, 3)]);
        assert_eq!(t.nnz(), 3);
        // Only the root fiber exists in an empty tensor.
        assert_eq!(
            Tensor::empty("E", &["I", "J"], &[4, 4]).rank_stats(),
            vec![(1, 0)]
        );
        assert!(Tensor::scalar("s", 1.0).rank_stats().is_empty());
    }

    #[test]
    fn explicit_zeros_are_stored_but_not_leaves() {
        let mut t = Tensor::empty("P", &["V"], &[4]);
        t.set(&[0], 0.0);
        t.set(&[2], 7.5);
        assert_eq!((t.nnz(), t.get(&[0])), (2, Some(0.0)));
        assert_eq!(t.leaves(), vec![(vec![Coord::Point(2)], 7.5)]);
        assert_eq!(t.rank_stats(), vec![(1, 2)]);
        assert_eq!(t.to_string(), "P[V] = [0: 0, 2: 7.5]");
        let s = Tensor::empty("s", &[], &[]);
        assert_eq!(
            (s.nnz(), s.get(&[]), s.to_string()),
            (0, Some(0.0), "s[] = 0".into())
        );
    }

    /// The fibertree notation, pinned as literals.
    #[test]
    fn display_matches_fibertree_notation() {
        assert_eq!(
            fig1_matrix_a().to_string(),
            "A[M, K] = [0: [2: 3], 2: [0: 9, 1: 4, 2: 5]]"
        );
        assert_eq!(Tensor::scalar("s", 3.0).to_string(), "s[] = 3");
        assert_eq!(
            Tensor::empty("E", &["M", "K"], &[4, 4]).to_string(),
            "E[M, K] = []"
        );
        let flat = crate::CompressedTensor::from_tensor(&fig1_matrix_a())
            .unwrap()
            .flatten_rank("M", "MK")
            .unwrap()
            .to_tensor();
        assert_eq!(
            flat.to_string(),
            "A[MK] = [(0, 2): 3, (2, 0): 9, (2, 1): 4, (2, 2): 5]"
        );
    }

    #[test]
    fn builder_collects_entries() {
        let t = TensorBuilder::new("T", &["I", "J"], &[3, 3])
            .entry(&[0, 1], 1.0)
            .entries(vec![(vec![2, 2], 4.0)])
            .build()
            .unwrap();
        assert_eq!(t.nnz(), 2);
    }
}
