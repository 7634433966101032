//! Rank swizzling: reordering the levels of a fibertree (paper §3.2.2).
//!
//! Swizzles capture transposition (CSR→CSC), sorting, and merging: the
//! content (set of leaf values and their points) is unchanged, but the
//! coordinate system — and therefore the traversal order — changes.

use crate::builder::CompressedBuilder;
use crate::compressed::CompressedTensor;
use crate::coord::Shape;
use crate::error::FibertreeError;

/// Computes the permutation mapping new rank positions to old ones.
///
/// # Errors
///
/// Returns [`FibertreeError::BadPermutation`] if `order` is not a
/// permutation of `rank_ids`.
pub fn permutation_of(rank_ids: &[String], order: &[&str]) -> Result<Vec<usize>, FibertreeError> {
    let bad = || FibertreeError::BadPermutation {
        requested: order.iter().map(|s| s.to_string()).collect(),
        have: rank_ids.to_vec(),
    };
    if order.len() != rank_ids.len() {
        return Err(bad());
    }
    let mut perm = Vec::with_capacity(order.len());
    for r in order {
        let idx = rank_ids.iter().position(|x| x == r).ok_or_else(bad)?;
        if perm.contains(&idx) {
            return Err(bad());
        }
        perm.push(idx);
    }
    Ok(perm)
}

impl CompressedTensor {
    /// Returns a compressed tensor with the same content and the given
    /// rank order.
    ///
    /// Runs entirely on the flat arrays: one pass gathers each leaf's
    /// coordinate path with the permutation applied, a sort re-orders the
    /// keys, and a [`CompressedBuilder`] appends the sorted stream — no
    /// owned tree is ever materialized.
    ///
    /// Pure transposes that pull one rank to the front while keeping the
    /// rest in order (CSR→CSC and its higher-rank analogues — every
    /// permutation of the form `[j, 0, 1, …, ĵ, …, n-1]`) skip the
    /// `O(nnz log nnz)` comparison sort: the gathered leaves are already
    /// in the old lexicographic order, so a stable counting bucket-sort
    /// keyed on the new leading coordinate alone fully sorts them (ties
    /// on the leading coordinate compare by the remaining slots, whose
    /// relative old order is exactly the new order — stability preserves
    /// it). The counting array is only used when the leading coordinate
    /// range is within `4·nnz + 4096`, so degenerate shapes fall back to
    /// the comparison sort rather than allocating a huge histogram.
    ///
    /// # Errors
    ///
    /// Returns [`FibertreeError::BadPermutation`] if `order` is not a
    /// permutation of this tensor's rank ids.
    ///
    /// # Examples
    ///
    /// ```
    /// use teaal_fibertree::tensor::fig1_matrix_a;
    /// use teaal_fibertree::CompressedTensor;
    /// let a = CompressedTensor::from_tensor(&fig1_matrix_a())?; // [M, K]
    /// let at = a.swizzle(&["K", "M"])?;
    /// assert_eq!(at.get(&[2, 0]), a.get(&[0, 2]));
    /// assert_eq!(at.nnz(), a.nnz());
    /// # Ok::<(), teaal_fibertree::FibertreeError>(())
    /// ```
    pub fn swizzle(&self, order: &[&str]) -> Result<CompressedTensor, FibertreeError> {
        let perm = permutation_of(self.rank_ids(), order)?;
        if perm.iter().enumerate().all(|(i, &p)| i == p) {
            return Ok(self.clone());
        }
        let shapes: Vec<Shape> = perm
            .iter()
            .map(|&p| self.rank_shapes()[p].clone())
            .collect();
        // Gather every nonzero leaf as its permuted flat key (explicit
        // zeros are dropped). Keys live in one flat buffer, one word per
        // coordinate component, and an index sort avoids a per-leaf
        // allocation. `words` lists, in new rank order, the old path words
        // each key is made of.
        let mut offsets = vec![0usize];
        for l in &self.levels {
            offsets.push(offsets[offsets.len() - 1] + l.arity());
        }
        let words: Vec<usize> = perm
            .iter()
            .flat_map(|&i| offsets[i]..offsets[i + 1])
            .collect();
        let w = words.len();
        let mut keys: Vec<u64> = Vec::with_capacity(w * self.nnz());
        let mut vals: Vec<f64> = Vec::with_capacity(self.nnz());
        let mut path = vec![0u64; w];
        self.gather_raw(
            0,
            0,
            self.level_len(0),
            &offsets,
            &words,
            &mut path,
            &mut keys,
            &mut vals,
        );
        let idx = sort_permuted_keys(&keys, vals.len(), w, &perm, &shapes);
        let mut b = CompressedBuilder::new(
            self.name(),
            order.iter().map(|s| s.to_string()).collect(),
            shapes,
        )?;
        for &i in &idx {
            b.push_raw(&keys[i * w..(i + 1) * w], vals[i])?;
        }
        Ok(b.finish())
    }

    /// Appends, for every nonzero leaf below the element range
    /// `[start, end)` of `level`, its permuted flat key to `keys` and its
    /// value to `vals`. Old rank `d` fills words `offsets[d]..offsets[d +
    /// 1]` of `path`; a key lists `path` in `words` order.
    #[allow(clippy::too_many_arguments)] // internal recursion carrying cursors
    fn gather_raw(
        &self,
        level: usize,
        start: usize,
        end: usize,
        offsets: &[usize],
        words: &[usize],
        path: &mut [u64],
        keys: &mut Vec<u64>,
        vals: &mut Vec<f64>,
    ) {
        let leaf = level + 1 == self.order();
        for p in start..end {
            self.raw_into(level, p, &mut path[offsets[level]..offsets[level + 1]]);
            if leaf {
                let v = self.value_at(p);
                if v != 0.0 {
                    keys.extend(words.iter().map(|&i| path[i]));
                    vals.push(v);
                }
            } else {
                let (cs, ce) = self.child_range(level, p);
                self.gather_raw(level + 1, cs, ce, offsets, words, path, keys, vals);
            }
        }
    }
}

/// Orders the gathered (already permuted) flat keys: returns the index
/// permutation that sorts `keys` lexicographically.
///
/// `keys` holds `nnz` keys of `w` words each, gathered in the *old*
/// lexicographic order. When the permutation pulls one point rank to the
/// front and keeps the rest in order, a stable counting bucket-sort on
/// the new leading coordinate is a full sort in `O(nnz + max_coord)`;
/// otherwise a comparison sort on the whole key runs.
fn sort_permuted_keys(
    keys: &[u64],
    nnz: usize,
    w: usize,
    perm: &[usize],
    shapes: &[Shape],
) -> Vec<usize> {
    let pull_to_front = !perm.is_empty()
        && perm[1..]
            .iter()
            .copied()
            .eq((0..perm.len()).filter(|&i| i != perm[0]));
    let leading_is_point = shapes
        .first()
        .is_some_and(|s| !matches!(s, Shape::Tuple(_)));
    if pull_to_front && leading_is_point && nnz > 0 {
        let max_lead = (0..nnz).map(|i| keys[i * w]).max().unwrap_or(0);
        if let Ok(buckets) = usize::try_from(max_lead) {
            if buckets < 4 * nnz + 4096 {
                // Counting sort: histogram, exclusive prefix sum, then a
                // stable scatter of the old-order indices.
                let mut count = vec![0usize; buckets + 2];
                for i in 0..nnz {
                    count[keys[i * w] as usize + 1] += 1;
                }
                for b in 1..count.len() {
                    count[b] += count[b - 1];
                }
                let mut idx = vec![0usize; nnz];
                for i in 0..nnz {
                    let b = keys[i * w] as usize;
                    idx[count[b]] = i;
                    count[b] += 1;
                }
                return idx;
            }
        }
    }
    let mut idx: Vec<usize> = (0..nnz).collect();
    idx.sort_unstable_by(|&a, &b| keys[a * w..(a + 1) * w].cmp(&keys[b * w..(b + 1) * w]));
    idx
}

#[cfg(test)]
mod tests {
    use crate::compressed::CompressedTensor;
    use crate::tensor::{fig1_matrix_a, TensorBuilder};

    fn fig1() -> CompressedTensor {
        CompressedTensor::from_tensor(&fig1_matrix_a()).unwrap()
    }

    #[test]
    fn swizzle_transposes_fig1_matrix() {
        // Fig. 4: A is swizzled offline to [K, M] for the outer-product
        // multiply phase.
        let at = fig1().swizzle(&["K", "M"]).unwrap();
        assert_eq!(at.rank_ids(), &["K".to_string(), "M".to_string()]);
        // K fiber now has coordinates {0, 1, 2}.
        let root = at.root_fiber_view().unwrap();
        let ks: Vec<u64> = (0..root.occupancy())
            .map(|p| root.coord_at(p).as_point().unwrap())
            .collect();
        assert_eq!(ks, vec![0, 1, 2]);
        assert_eq!(at.get(&[2, 0]), Some(3.0));
        assert_eq!(at.get(&[0, 2]), Some(9.0));
    }

    #[test]
    fn swizzle_is_content_preserving() {
        let a = fig1();
        let back = a
            .swizzle(&["K", "M"])
            .unwrap()
            .swizzle(&["M", "K"])
            .unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn identity_swizzle_is_cheap_clone() {
        let a = fig1();
        assert_eq!(a.swizzle(&["M", "K"]).unwrap(), a);
    }

    #[test]
    fn bad_permutations_are_rejected() {
        let a = fig1();
        assert!(a.swizzle(&["M"]).is_err());
        assert!(a.swizzle(&["M", "M"]).is_err());
        assert!(a.swizzle(&["M", "Q"]).is_err());
    }

    #[test]
    fn three_rank_swizzle_permutes_points() {
        let t = TensorBuilder::new("T", &["M", "K", "N"], &[4, 4, 4])
            .entry(&[1, 2, 3], 5.0)
            .entry(&[0, 1, 2], 7.0)
            .build()
            .unwrap();
        let s = CompressedTensor::from_tensor(&t)
            .unwrap()
            .swizzle(&["N", "M", "K"])
            .unwrap();
        assert_eq!(s.get(&[3, 1, 2]), Some(5.0));
        assert_eq!(s.get(&[2, 0, 1]), Some(7.0));
        assert_eq!(s.nnz(), 2);
    }
}
