//! Rank flattening (Fig. 2 of the paper).
//!
//! Flattening combines two adjacent ranks into one whose coordinates are
//! tuples of the original coordinates. Combined with occupancy partitioning
//! it is the paper's tool for globally load-balancing irregular fibers
//! (§3.2.1): flatten first, then re-partition so every partition holds the
//! same number of values.

use std::sync::OnceLock;

use crate::compressed::{CompressedTensor, Level};
use crate::error::FibertreeError;

impl CompressedTensor {
    /// Flattens rank `upper` with the rank immediately below it into one
    /// rank named `new_name` whose coordinates are tuples of theirs.
    /// Either rank may already be flattened: the fused rank's arity is
    /// the sum of theirs.
    ///
    /// Runs as pure segment fusion: the fused level's lower components
    /// *are* the old lower level's component stores (reused as-is), the
    /// upper components are the old upper level's stores expanded by
    /// child count, and the fused segment list is the upper segment list
    /// composed through the lower one. Everything below — and the value
    /// arena — is untouched.
    ///
    /// # Errors
    ///
    /// Returns [`FibertreeError::UnknownRank`] if `upper` is missing or is
    /// the bottom rank.
    ///
    /// # Examples
    ///
    /// ```
    /// use teaal_fibertree::tensor::fig1_matrix_a;
    /// use teaal_fibertree::{CompressedTensor, Coord};
    /// let a = CompressedTensor::from_tensor(&fig1_matrix_a())?; // [M, K], 4 nonzeros
    /// let flat = a.flatten_rank("M", "MK")?;
    /// assert_eq!(flat.rank_ids(), &["MK".to_string()]);
    /// assert_eq!(flat.root_fiber_view().unwrap().occupancy(), 4);
    /// assert_eq!(flat.leaves()[0], (vec![Coord::pair(0, 2)], 3.0));
    /// # Ok::<(), teaal_fibertree::FibertreeError>(())
    /// ```
    pub fn flatten_rank(
        &self,
        upper: &str,
        new_name: &str,
    ) -> Result<CompressedTensor, FibertreeError> {
        let d = self.rank_index(upper)?;
        if d + 1 >= self.order() {
            return Err(FibertreeError::UnknownRank {
                rank: format!("{upper} (no rank below to flatten with)"),
                have: self.rank_ids().to_vec(),
            });
        }
        let (lu, ll) = (&self.levels[d], &self.levels[d + 1]);
        let mut rank_ids = self.rank_ids().to_vec();
        let mut shapes = self.rank_shapes().to_vec();
        let flat_shape = shapes[d].flattened_with(&shapes[d + 1]);
        rank_ids.splice(d..=d + 1, [new_name.to_string()]);
        shapes.splice(d..=d + 1, [flat_shape]);

        // The upper level's components, each expanded per child count,
        // then the lower level's leading components as they are.
        let mut upper_stores: Vec<_> = lu
            .upper
            .iter()
            .chain([&lu.coords])
            .map(|src| {
                let mut store = src.new_like();
                for p in 0..src.len() {
                    let c = src.get(p);
                    for _ in ll.segs[p]..ll.segs[p + 1] {
                        store.push(c);
                    }
                }
                store
            })
            .collect();
        upper_stores.extend(ll.upper.iter().cloned());
        // Fused fiber boundaries: the upper segment list composed through
        // the lower one.
        let segs: Vec<usize> = lu.segs.iter().map(|&f| ll.segs[f]).collect();
        let fused = Level {
            segs,
            upper: upper_stores,
            coords: ll.coords.clone(),
        };
        let mut levels = self.levels.clone();
        levels.splice(d..=d + 1, [fused]);
        Ok(CompressedTensor {
            name: self.name.clone(),
            rank_ids,
            rank_shapes: shapes,
            levels,
            values: self.values.clone(),
            hash_memo: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::compressed::CompressedTensor;
    use crate::coord::{Coord, Shape};
    use crate::tensor::{fig1_matrix_a, TensorBuilder};

    fn fig1() -> CompressedTensor {
        CompressedTensor::from_tensor(&fig1_matrix_a()).unwrap()
    }

    #[test]
    fn flatten_matches_fig2() {
        // Fig. 2 flattens ranks M, K of the Fig. 1 matrix: coordinates
        // become (0,2), (2,0), (2,1), (2,2).
        let flat = fig1().flatten_rank("M", "MK").unwrap();
        let root = flat.root_fiber_view().unwrap();
        let coords: Vec<Coord> = (0..root.occupancy()).map(|p| root.coord_at(p)).collect();
        assert_eq!(
            coords,
            vec![
                Coord::pair(0, 2),
                Coord::pair(2, 0),
                Coord::pair(2, 1),
                Coord::pair(2, 2)
            ]
        );
    }

    #[test]
    fn flatten_preserves_leaf_count_and_values() {
        let a = fig1();
        let flat = a.flatten_rank("M", "MK").unwrap();
        assert_eq!(flat.nnz(), a.nnz());
        let vals: Vec<f64> = flat.leaves().into_iter().map(|(_, v)| v).collect();
        assert_eq!(vals, vec![3.0, 9.0, 4.0, 5.0]);
    }

    #[test]
    fn flatten_below_top_rank() {
        let t = TensorBuilder::new("T", &["M", "K", "N"], &[2, 2, 2])
            .entry(&[0, 1, 0], 1.0)
            .entry(&[1, 0, 1], 2.0)
            .build()
            .unwrap();
        let flat = CompressedTensor::from_tensor(&t)
            .unwrap()
            .flatten_rank("K", "KN")
            .unwrap();
        assert_eq!(flat.rank_ids(), &["M".to_string(), "KN".to_string()]);
        assert_eq!(
            flat.leaves(),
            vec![
                (vec![Coord::Point(0), Coord::pair(1, 0)], 1.0),
                (vec![Coord::Point(1), Coord::pair(0, 1)], 2.0),
            ]
        );
    }

    #[test]
    fn flatten_bottom_rank_is_an_error() {
        let a = fig1();
        assert!(a.flatten_rank("K", "KX").is_err());
        assert!(a.flatten_rank("Q", "QX").is_err());
    }

    #[test]
    fn flatten_shape_is_tuple_of_components() {
        let flat = fig1().flatten_rank("M", "MK").unwrap();
        assert_eq!(
            flat.rank_shapes()[0],
            Shape::Tuple(vec![Shape::Interval(4), Shape::Interval(3)])
        );
    }
}
