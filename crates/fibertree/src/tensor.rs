//! Tensors represented as fibertrees with named, ordered ranks.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::coord::{Coord, Shape};
use crate::error::FibertreeError;
use crate::fiber::{Fiber, Payload};

/// An `N`-tensor stored as a fibertree (paper §2.1).
///
/// Each level of the tree corresponds to a labelled rank; the order of
/// `rank_ids` read left-to-right matches levels read top-to-bottom. Sparse
/// tensors omit empty payloads. A 0-tensor (scalar) has no ranks and a
/// single value.
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
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Tensor {
    name: String,
    rank_ids: Vec<String>,
    rank_shapes: Vec<Shape>,
    root: Payload,
}

impl Tensor {
    /// Creates an empty tensor with the given rank ids and interval shapes.
    ///
    /// # Panics
    ///
    /// Panics if `rank_ids` and `shape` have different lengths.
    pub fn empty(name: impl Into<String>, rank_ids: &[&str], shape: &[u64]) -> Self {
        assert_eq!(rank_ids.len(), shape.len(), "one shape per rank");
        let rank_shapes: Vec<Shape> = shape.iter().map(|&n| Shape::Interval(n)).collect();
        let root = if rank_shapes.is_empty() {
            Payload::Val(0.0)
        } else {
            Payload::Fiber(Fiber::new(rank_shapes[0].clone()))
        };
        Tensor {
            name: name.into(),
            rank_ids: rank_ids.iter().map(|s| s.to_string()).collect(),
            rank_shapes,
            root,
        }
    }

    /// Creates a 0-tensor (scalar).
    pub fn scalar(name: impl Into<String>, value: f64) -> Self {
        Tensor {
            name: name.into(),
            rank_ids: Vec::new(),
            rank_shapes: Vec::new(),
            root: Payload::Val(value),
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
        let n = rank_ids.len();
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
                        shape: t.rank_shapes[d].clone(),
                    });
                }
            }
            *dedup.entry(point).or_insert(0.0) += v;
        }
        for (point, v) in dedup {
            if v != 0.0 {
                t.set(&point, v);
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

    /// The root payload (a fiber for `N ≥ 1`, a value for scalars).
    pub fn root(&self) -> &Payload {
        &self.root
    }

    /// The root fiber, if this is not a scalar.
    pub fn root_fiber(&self) -> Option<&Fiber> {
        self.root.as_fiber()
    }

    /// Number of nonzero leaves.
    pub fn nnz(&self) -> usize {
        match &self.root {
            Payload::Val(v) => usize::from(*v != 0.0),
            Payload::Fiber(f) => f.leaf_count(),
        }
    }

    /// Reads the value at an integer point, `None` when absent.
    pub fn get(&self, point: &[u64]) -> Option<f64> {
        let mut payload = &self.root;
        for &c in point {
            payload = payload.as_fiber()?.get(&Coord::Point(c))?;
        }
        payload.as_val()
    }

    /// Writes a value at an integer point, creating intermediate fibers.
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
            self.root = Payload::Val(value);
            return;
        }
        let shapes = self.rank_shapes.clone();
        let mut payload = &mut self.root;
        for (d, &c) in point.iter().enumerate() {
            let fiber = payload
                .as_fiber_mut()
                .expect("intermediate payloads of an N-tensor are fibers");
            let is_leaf = d + 1 == shapes.len();
            let child_shape = if is_leaf {
                None
            } else {
                Some(shapes[d + 1].clone())
            };
            payload = fiber.get_or_insert_with(&Coord::Point(c), || match &child_shape {
                None => Payload::Val(0.0),
                Some(s) => Payload::Fiber(Fiber::new(s.clone())),
            });
        }
        *payload = Payload::Val(value);
    }

    /// Enumerates `(path, value)` for every leaf, where `path` holds one
    /// coordinate per rank (coordinates may be tuples on flattened ranks).
    pub fn leaves(&self) -> Vec<(Vec<Coord>, f64)> {
        let mut out = Vec::new();
        match &self.root {
            Payload::Val(v) => {
                if *v != 0.0 {
                    out.push((Vec::new(), *v));
                }
            }
            Payload::Fiber(f) => {
                let mut path = Vec::new();
                collect_leaves(f, &mut path, &mut out);
            }
        }
        out
    }

    /// Enumerates `(point, value)` for every leaf of a tensor whose ranks
    /// are all plain intervals (no flattened ranks).
    ///
    /// # Panics
    ///
    /// Panics if a flattened (tuple-coordinate) rank is encountered.
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

    /// Rebuilds the tensor from raw parts. Intended for transforms within
    /// this crate and for testing; validity is the caller's responsibility.
    pub fn from_parts(
        name: impl Into<String>,
        rank_ids: Vec<String>,
        rank_shapes: Vec<Shape>,
        root: Payload,
    ) -> Self {
        Tensor {
            name: name.into(),
            rank_ids,
            rank_shapes,
            root,
        }
    }

    /// Removes empty fibers and zero leaves throughout the tree.
    pub fn prune(&mut self, zero: f64) {
        if let Payload::Fiber(f) = &mut self.root {
            f.prune(zero);
        }
    }

    /// Per-rank `(fiber count, total occupancy)` statistics, used by the
    /// format sizing and traffic models.
    pub fn rank_stats(&self) -> Vec<(usize, usize)> {
        match &self.root {
            Payload::Val(_) => Vec::new(),
            Payload::Fiber(f) => f.level_stats(),
        }
    }

    /// Sums elementwise absolute difference against another tensor —
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
}

fn collect_leaves(f: &Fiber, path: &mut Vec<Coord>, out: &mut Vec<(Vec<Coord>, f64)>) {
    for e in f.iter() {
        path.push(e.coord.clone());
        match &e.payload {
            Payload::Val(v) => {
                if *v != 0.0 {
                    out.push((path.clone(), *v));
                }
            }
            Payload::Fiber(child) => collect_leaves(child, path, out),
        }
        path.pop();
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.name, self.rank_ids.join(", "))?;
        match &self.root {
            Payload::Val(v) => write!(f, " = {v}"),
            Payload::Fiber(fb) => write!(f, " = {fb}"),
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
    fn builder_collects_entries() {
        let t = TensorBuilder::new("T", &["I", "J"], &[3, 3])
            .entry(&[0, 1], 1.0)
            .entries(vec![(vec![2, 2], 4.0)])
            .build()
            .unwrap();
        assert_eq!(t.nnz(), 2);
    }
}
