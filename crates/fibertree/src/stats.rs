//! Per-tensor rank statistics for analytical cost modeling.
//!
//! A [`TensorStats`] summarizes the shape of a fibertree without keeping
//! any of its data: per-rank extents, fiber counts, occupancies, distinct
//! coordinate counts, and a log2-bucketed fiber-length histogram. The
//! summary is computed in one depth-first walk over [`FiberView`] cursors
//! (an owned tensor is compressed first), and is the input the
//! simulator's `estimate` module uses to predict co-iteration work and
//! traffic without touching values.
//!
//! Statistics are cheap relative to simulation but still O(nnz), so a
//! [`StatsCache`] memoizes them by [`CompressedTensor::content_hash`]:
//! compute once per distinct tensor content, share across the thousands
//! of mapping candidates a search evaluates.

use std::collections::HashSet;
use std::convert::Infallible;
use std::sync::Arc;

use crate::cache::ByteLru;
use crate::compressed::CompressedTensor;
use crate::coord::Coord;
use crate::error::FibertreeError;
use crate::view::{FiberView, PayloadView, TensorData};

/// Summary statistics for one storage rank (one fibertree level).
#[derive(Clone, Debug, PartialEq)]
pub struct RankStats {
    /// The rank's name (e.g. `"K"`).
    pub rank: String,
    /// The rank's declared extent (coordinate-space size). Tuple shapes
    /// (flattened ranks) report the product of their component extents.
    pub extent: u64,
    /// Number of fibers at this level (distinct coordinate prefixes of the
    /// ranks above; `1` for the root rank).
    pub fibers: u64,
    /// Total elements across all fibers at this level — equivalently the
    /// number of distinct coordinate prefixes *through* this rank.
    pub elements: u64,
    /// Number of distinct coordinates seen on this rank alone (the
    /// projection of the nonzero set onto this single axis).
    pub distinct_coords: u64,
    /// Largest single-fiber occupancy at this level.
    pub max_occupancy: u64,
    /// Fiber-length histogram in log2 buckets: `histogram[i]` counts fibers
    /// whose occupancy `c` satisfies `2^i <= c < 2^(i+1)`. Empty fibers do
    /// not exist in a fibertree, so bucket 0 counts occupancy-1 fibers.
    pub histogram: Vec<u64>,
}

impl RankStats {
    /// Mean elements per fiber at this level (`0.0` when there are no
    /// fibers).
    pub fn mean_occupancy(&self) -> f64 {
        if self.fibers == 0 {
            0.0
        } else {
            self.elements as f64 / self.fibers as f64
        }
    }

    /// Mean fraction of the coordinate space each fiber occupies.
    pub fn density(&self) -> f64 {
        if self.extent == 0 {
            0.0
        } else {
            self.mean_occupancy() / self.extent as f64
        }
    }
}

/// Data-independent shape summary of a tensor: one [`RankStats`] per
/// storage rank, in storage order.
#[derive(Clone, Debug, PartialEq)]
pub struct TensorStats {
    /// The tensor's name.
    pub name: String,
    /// Number of nonzero leaves.
    pub nnz: u64,
    /// Per-rank statistics in storage (rank-id) order.
    pub ranks: Vec<RankStats>,
    /// Marginal caps: `(ranks, count)` pairs asserting that the projection
    /// of the nonzero set onto `ranks` has at most `count` distinct
    /// tuples. Storage-prefix caps are implied by `ranks` and not listed;
    /// entries here carry *extra* knowledge a cost model cannot derive
    /// from chain statistics — e.g. for a cascade intermediate
    /// `T[k,m,n] = A[k,m]·B[k,n]`, the `(K, N)` marginal is bounded by
    /// `nnz(B)` regardless of T's storage order.
    pub marginal_caps: Vec<(Vec<String>, u64)>,
    /// Tensors whose nonzero pattern *contains* this tensor's, projected
    /// onto their shared ranks. A cascade intermediate built by a single
    /// product (`T[k,m,n] = A[k,m]·B[k,n]`) only has a coordinate where
    /// every operand does, so `T`'s `(K, M)` marginal nests inside `A`'s
    /// pattern and `(K, N)` inside `B`'s — and transitively inside
    /// anything *they* nest in. A cost model co-iterating this tensor
    /// against a listed one must not treat their coordinates as
    /// independent: the expected overlap is this tensor's own occupancy,
    /// not the independent-intersection product. Empty for measured
    /// (non-synthetic) tensors.
    pub pattern_subset_of: Vec<String>,
}

impl TensorStats {
    /// Computes statistics for a tensor in one depth-first pass over its
    /// CSF form (uncached; see [`StatsCache`]). An owned tensor is
    /// compressed first.
    ///
    /// # Errors
    ///
    /// Returns the [`CompressedTensor::from_tensor`] error of an owned
    /// tensor with no CSF form.
    pub fn compute(data: &TensorData) -> Result<TensorStats, FibertreeError> {
        Ok(data.compressed()?.statistics())
    }

    /// Builds synthetic statistics from modeled per-level counts, for
    /// tensors that do not exist yet (e.g. cascade intermediates whose
    /// occupancy a cost model has estimated). `levels` lists, per rank in
    /// storage order, `(rank, extent, elements)` where `elements` is the
    /// estimated number of distinct coordinate prefixes through that rank;
    /// the deepest level's count doubles as the tensor's `nnz`.
    pub fn synthetic(name: &str, levels: &[(String, u64, u64)]) -> TensorStats {
        let mut fibers = 1u64;
        let mut ranks = Vec::with_capacity(levels.len());
        for (rank, extent, elements) in levels {
            let elements = (*elements).max(fibers).max(1);
            let mean = (elements / fibers.max(1)).max(1);
            ranks.push(RankStats {
                rank: rank.clone(),
                extent: *extent,
                fibers,
                elements,
                distinct_coords: elements.min(*extent),
                max_occupancy: mean,
                histogram: Vec::new(),
            });
            fibers = elements;
        }
        TensorStats {
            name: name.to_string(),
            nnz: ranks.last().map(|r| r.elements).unwrap_or(0),
            ranks,
            marginal_caps: Vec::new(),
            pattern_subset_of: Vec::new(),
        }
    }

    /// Number of distinct coordinate prefixes of length `k` (so
    /// `prefix_elements(0) == 1` and `prefix_elements(order)` is `nnz`).
    pub fn prefix_elements(&self, k: usize) -> u64 {
        if k == 0 {
            1
        } else {
            self.ranks
                .get(k - 1)
                .map(|r| r.elements)
                .unwrap_or(self.nnz)
        }
    }

    /// Looks up the statistics for a named rank.
    pub fn rank(&self, name: &str) -> Option<&RankStats> {
        self.ranks.iter().find(|r| r.rank == name)
    }

    /// Storage-order rank names.
    pub fn rank_order(&self) -> Vec<&str> {
        self.ranks.iter().map(|r| r.rank.as_str()).collect()
    }
}

/// In-flight accumulator for one level of the statistics walk.
struct LevelAcc {
    rank: String,
    extent: u64,
    fibers: u64,
    elements: u64,
    coords: HashSet<Coord>,
    max_occupancy: u64,
    histogram: Vec<u64>,
}

impl LevelAcc {
    fn new(rank: &str, extent: u64) -> Self {
        LevelAcc {
            rank: rank.to_string(),
            extent,
            fibers: 0,
            elements: 0,
            coords: HashSet::new(),
            max_occupancy: 0,
            histogram: Vec::new(),
        }
    }

    fn observe_fiber(&mut self, occupancy: u64) {
        self.fibers += 1;
        self.elements += occupancy;
        self.max_occupancy = self.max_occupancy.max(occupancy);
        let bucket = if occupancy == 0 {
            0
        } else {
            63 - occupancy.leading_zeros() as usize
        };
        if self.histogram.len() <= bucket {
            self.histogram.resize(bucket + 1, 0);
        }
        self.histogram[bucket] += 1;
    }

    fn finish(self) -> RankStats {
        RankStats {
            rank: self.rank,
            extent: self.extent,
            fibers: self.fibers,
            elements: self.elements,
            distinct_coords: self.coords.len() as u64,
            max_occupancy: self.max_occupancy,
            histogram: self.histogram,
        }
    }
}

fn walk(fiber: FiberView<'_>, level: usize, levels: &mut [LevelAcc]) {
    let occ = fiber.occupancy();
    levels[level].observe_fiber(occ as u64);
    for pos in 0..occ {
        let coord = fiber.coord_at(pos);
        if !levels[level].coords.contains(&coord) {
            levels[level].coords.insert(coord);
        }
        if let PayloadView::Fiber(child) = fiber.payload_at(pos) {
            walk(child, level + 1, levels);
        }
    }
}

impl CompressedTensor {
    /// Computes [`TensorStats`] for this tensor (one depth-first pass over
    /// the CSF arrays, no decompression). See also [`StatsCache`].
    pub fn statistics(&self) -> TensorStats {
        let mut levels: Vec<LevelAcc> = self
            .rank_ids()
            .iter()
            .zip(self.rank_shapes())
            .map(|(r, s)| LevelAcc::new(r, s.extent()))
            .collect();
        if let Some(root) = self.root_fiber_view() {
            walk(root, 0, &mut levels);
        }
        TensorStats {
            name: self.name().to_string(),
            nnz: self.nnz() as u64,
            ranks: levels.into_iter().map(LevelAcc::finish).collect(),
            marginal_caps: Vec::new(),
            pattern_subset_of: Vec::new(),
        }
    }
}

/// Memoizing store of [`TensorStats`], keyed by
/// [`CompressedTensor::content_hash`]: two tensors share an entry only if
/// they hold the same content.
pub type StatsCache = ByteLru<TensorStats>;

impl ByteLru<TensorStats> {
    /// Returns the cached statistics for `data`, computing and storing
    /// them on first sight of its content. An owned tensor is compressed
    /// first and keyed and summarized as CSF.
    ///
    /// # Errors
    ///
    /// Returns the [`CompressedTensor::from_tensor`] error of an owned
    /// tensor with no CSF form.
    pub fn get_or_compute(&self, data: &TensorData) -> Result<Arc<TensorStats>, FibertreeError> {
        let csf = data.compressed()?;
        let Ok(stats) = self.get_or_try_insert_with(csf.content_hash(), || {
            let stats = csf.statistics();
            // A rough size for the counters.
            let bytes = 64 * (1 + stats.ranks.len() as u64);
            Ok::<_, Infallible>((stats, bytes))
        });
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::TensorBuilder;

    fn sample() -> TensorData {
        // Row 0: 3 elements; row 2: 1 element; row 5: 2 elements.
        let t = TensorBuilder::new("A", &["K", "M"], &[8, 8])
            .entries(
                [(0, 1), (0, 4), (0, 7), (2, 2), (5, 0), (5, 4)]
                    .into_iter()
                    .map(|(k, m)| (vec![k, m], 1.0)),
            )
            .build()
            .expect("valid entries");
        TensorData::Owned(t)
    }

    #[test]
    fn per_rank_counts_match_structure() {
        let stats = TensorStats::compute(&sample()).unwrap();
        assert_eq!(stats.nnz, 6);
        assert_eq!(stats.ranks.len(), 2);
        let k = &stats.ranks[0];
        assert_eq!((k.fibers, k.elements, k.distinct_coords), (1, 3, 3));
        assert_eq!(k.max_occupancy, 3);
        let m = &stats.ranks[1];
        assert_eq!((m.fibers, m.elements), (3, 6));
        // M coordinates 1,4,7,2,0 → 5 distinct.
        assert_eq!(m.distinct_coords, 5);
        assert_eq!(m.max_occupancy, 3);
        // Fiber lengths at M: 3, 1, 2 → buckets log2: 1, 0, 1.
        assert_eq!(m.histogram, vec![1, 2]);
        assert!((m.mean_occupancy() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn prefix_elements_bracket_the_tree() {
        let stats = TensorStats::compute(&sample()).unwrap();
        assert_eq!(stats.prefix_elements(0), 1);
        assert_eq!(stats.prefix_elements(1), 3);
        assert_eq!(stats.prefix_elements(2), 6);
    }

    #[test]
    fn compressed_and_owned_agree() {
        let data = sample();
        let TensorData::Owned(t) = &data else {
            unreachable!("the sample is owned")
        };
        let ct = crate::compressed::CompressedTensor::from_tensor(t).expect("compressible");
        let owned = TensorStats::compute(&data).unwrap();
        assert_eq!(ct.statistics(), owned);
        assert_eq!(TensorStats::compute(&TensorData::Compressed(ct)), Ok(owned));
    }

    #[test]
    fn cache_memoizes_by_content() {
        let cache = StatsCache::new();
        let data = sample();
        let a = cache.get_or_compute(&data).unwrap();
        let b = cache.get_or_compute(&data).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // The CSF twin of an owned tensor shares its entry.
        let TensorData::Owned(t) = &data else {
            unreachable!("the sample is owned")
        };
        let csf = TensorData::Compressed(CompressedTensor::from_tensor(t).unwrap());
        assert!(Arc::ptr_eq(&a, &cache.get_or_compute(&csf).unwrap()));
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.snapshot().hits, cache.snapshot().misses), (2, 1));
    }

    /// Same name, ranks, shape and nonzero count, different pattern: two
    /// entries, each equal to a fresh computation.
    #[test]
    fn same_shape_different_pattern_gets_its_own_entry() {
        let cache = StatsCache::new();
        let other = TensorData::Owned(
            TensorBuilder::new("A", &["K", "M"], &[8, 8])
                .entries((0..6).map(|k| (vec![k, k], 1.0)))
                .build()
                .expect("valid entries"),
        );
        let first = cache.get_or_compute(&sample()).unwrap();
        let second = cache.get_or_compute(&other).unwrap();
        assert_eq!(Ok(&*first), TensorStats::compute(&sample()).as_ref());
        assert_eq!(Ok(&*second), TensorStats::compute(&other).as_ref());
        assert_ne!(first, second);
        assert_eq!(cache.len(), 2);
    }

    /// `Tensor::set` does not check shapes, so an owned input can hold a
    /// leaf with no CSF form: its statistics are an error, not a panic,
    /// and nothing is cached.
    #[test]
    fn uncompressible_owned_input_is_an_error() {
        let mut t = crate::Tensor::empty("A", &["K"], &[4]);
        t.set(&[9], 1.0);
        let data = TensorData::Owned(t);
        let err = FibertreeError::OutOfShape {
            coord: Coord::Point(9),
            shape: crate::Shape::Interval(4),
        };
        assert_eq!(TensorStats::compute(&data), Err(err.clone()));
        let cache = StatsCache::new();
        assert_eq!(cache.get_or_compute(&data).err(), Some(err));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn synthetic_stats_are_monotone() {
        let stats = TensorStats::synthetic(
            "T",
            &[
                ("K".to_string(), 64, 32),
                ("M".to_string(), 64, 400),
                ("N".to_string(), 64, 1600),
            ],
        );
        assert_eq!(stats.nnz, 1600);
        assert_eq!(stats.prefix_elements(1), 32);
        assert_eq!(stats.ranks[1].fibers, 32);
        assert_eq!(stats.ranks[2].fibers, 400);
    }
}
