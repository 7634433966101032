//! Sparse matrix generators.
//!
//! Real SuiteSparse/SNAP matrices are not redistributable inside this
//! repository, so experiments run on deterministic synthetic substitutes:
//! uniform-random matrices (as the paper itself uses for Figs. 10c/10d)
//! and power-law / banded generators whose degree skew matches the domain
//! of each Table 4 matrix (see `datasets`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use teaal_fibertree::{CompressedTensor, Coord, Tensor};

fn uniform_entries(rows: u64, cols: u64, nnz: usize, seed: u64) -> Vec<(Vec<u64>, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut entries = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        let r = rng.random_range(0..rows);
        let c = rng.random_range(0..cols);
        let v: f64 = rng.random_range(0.1..10.0);
        entries.push((vec![r, c], v));
    }
    entries
}

/// Generates a uniform-random sparse matrix with the given shape and
/// expected number of nonzeros.
///
/// Used for the OuterSPACE (Fig. 10c) and SIGMA (Fig. 10d) sweeps, which
/// the paper also runs on uniform-random data.
pub fn uniform(
    name: &str,
    rank_ids: &[&str; 2],
    rows: u64,
    cols: u64,
    nnz: usize,
    seed: u64,
) -> Tensor {
    Tensor::from_entries(
        name,
        rank_ids,
        &[rows, cols],
        uniform_entries(rows, cols, nnz, seed),
    )
    .expect("generated coordinates are in shape")
}

/// Same generator as [`uniform`], built straight into compressed (CSF)
/// storage from the COO stream — the same seed yields the same content
/// in either representation.
pub fn uniform_compressed(
    name: &str,
    rank_ids: &[&str; 2],
    rows: u64,
    cols: u64,
    nnz: usize,
    seed: u64,
) -> CompressedTensor {
    CompressedTensor::from_entries(
        name,
        rank_ids,
        &[rows, cols],
        uniform_entries(rows, cols, nnz, seed),
    )
    .expect("generated coordinates are in shape")
}

/// Generates a uniform-random matrix from a density instead of a count.
pub fn uniform_density(
    name: &str,
    rank_ids: &[&str; 2],
    rows: u64,
    cols: u64,
    density: f64,
    seed: u64,
) -> Tensor {
    let nnz = ((rows as f64) * (cols as f64) * density).round() as usize;
    uniform(name, rank_ids, rows, cols, nnz, seed)
}

/// Generates a power-law matrix: row/column participation follows a
/// Zipf-like distribution with hub degrees capped at `max_degree`.
///
/// This is the substitute for social/communication/P2P graphs (wiki-Vote,
/// email-Enron, p2p-Gnutella31, and the large vertex-centric graphs):
/// degree skew is the property that drives intersection efficiency,
/// occupancy partitioning, and load imbalance in sparse accelerators.
// Generator knobs are inherently positional; a config struct would just
// relocate the argument list to every call site.
#[allow(clippy::too_many_arguments)]
pub fn power_law(
    name: &str,
    rank_ids: &[&str; 2],
    rows: u64,
    cols: u64,
    nnz: usize,
    alpha: f64,
    max_degree: usize,
    seed: u64,
) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut entries = Vec::with_capacity(nnz);
    let zipf = |rng: &mut StdRng, n: u64| -> u64 {
        // Inverse-CDF sampling of a truncated Zipf via the power of a
        // uniform variate: cheap and adequate for degree skew.
        let u: f64 = rng.random_range(0.0f64..1.0);
        let x = (n as f64) * u.powf(alpha);
        (x as u64).min(n - 1)
    };
    let mut degree = std::collections::HashMap::new();
    while entries.len() < nnz {
        let r = zipf(&mut rng, rows);
        let c = zipf(&mut rng, cols);
        let d = degree.entry(r).or_insert(0usize);
        if *d >= max_degree {
            // Redirect the edge to a uniformly random row: caps hubs so
            // multiply-phase partial products stay bounded.
            let r2 = rng.random_range(0..rows);
            entries.push((vec![r2, c], rng.random_range(0.1..10.0)));
            continue;
        }
        *d += 1;
        entries.push((vec![r, c], rng.random_range(0.1..10.0)));
    }
    Tensor::from_entries(name, rank_ids, &[rows, cols], entries)
        .expect("generated coordinates are in shape")
}

/// Generates a banded matrix with `band` diagonals and random fill within
/// the band — a stand-in for FEM/fluid-dynamics matrices (poisson3Da).
pub fn banded(
    name: &str,
    rank_ids: &[&str; 2],
    rows: u64,
    cols: u64,
    nnz: usize,
    band: u64,
    seed: u64,
) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut entries = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        let r = rng.random_range(0..rows);
        let lo = r.saturating_sub(band / 2);
        let hi = (r + band / 2).min(cols.saturating_sub(1));
        let c = rng.random_range(lo..=hi);
        entries.push((vec![r, c.min(cols - 1)], rng.random_range(0.1..10.0)));
    }
    Tensor::from_entries(name, rank_ids, &[rows, cols], entries)
        .expect("generated coordinates are in shape")
}

/// Statistics describing a generated matrix (for dataset tables).
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixStats {
    /// Rows.
    pub rows: u64,
    /// Columns.
    pub cols: u64,
    /// Nonzeros actually present (duplicates collapse).
    pub nnz: usize,
    /// Maximum row occupancy.
    pub max_row: usize,
    /// Mean row occupancy over non-empty rows.
    pub mean_row: f64,
}

/// Computes summary statistics of a 2-tensor.
pub fn stats(t: &Tensor) -> MatrixStats {
    let rows = t.rank_shapes()[0].extent();
    let cols = t.rank_shapes()[1].extent();
    let nnz = t.nnz();
    let occupancies = root_occupancies(t);
    let max_row = occupancies.iter().map(|&(_, occ)| occ).max().unwrap_or(0);
    let fibers = occupancies.len();
    MatrixStats {
        rows,
        cols,
        nnz,
        max_row,
        mean_row: if fibers > 0 {
            nnz as f64 / fibers as f64
        } else {
            0.0
        },
    }
}

/// `(coordinate, occupancy)` for each element of the root fiber, in
/// coordinate order: the number of distinct rank-1 coordinates stored
/// beneath it (explicit zeros included), or `1` for a vector's leaves.
/// Empty for a scalar.
pub(crate) fn root_occupancies(t: &Tensor) -> Vec<(&Coord, usize)> {
    let mut out: Vec<(&Coord, usize)> = Vec::new();
    let mut prev: &[Coord] = &[];
    for (path, _) in t.iter() {
        let Some(top) = path.first() else {
            break;
        };
        match out.last_mut() {
            Some((c, occ)) if *c == top => *occ += usize::from(prev.get(1) != path.get(1)),
            _ => out.push((top, 1)),
        }
        prev = path;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_hits_the_requested_nnz_approximately() {
        let t = uniform("U", &["M", "K"], 100, 100, 500, 1);
        // Duplicates collapse, so nnz ≤ 500 but close.
        assert!(t.nnz() > 450 && t.nnz() <= 500, "nnz = {}", t.nnz());
    }

    #[test]
    fn compressed_generator_matches_owned() {
        let t = uniform("U", &["M", "K"], 100, 100, 500, 9);
        let c = uniform_compressed("U", &["M", "K"], 100, 100, 500, 9);
        assert_eq!(c.to_tensor(), t);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = uniform("U", &["M", "K"], 50, 50, 100, 42);
        let b = uniform("U", &["M", "K"], 50, 50, 100, 42);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        let c = uniform("U", &["M", "K"], 50, 50, 100, 43);
        assert!(c.max_abs_diff(&a) > 0.0);
    }

    #[test]
    fn power_law_is_skewed_but_capped() {
        let t = power_law("P", &["M", "K"], 1000, 1000, 5000, 2.0, 64, 7);
        let s = stats(&t);
        assert!(s.max_row <= 64 + 1);
        assert!(s.max_row as f64 > 3.0 * s.mean_row, "skew expected: {s:?}");
    }

    #[test]
    fn banded_stays_near_the_diagonal() {
        let t = banded("B", &["M", "K"], 200, 200, 1000, 10, 3);
        for (p, _) in t.entries() {
            let (r, c) = (p[0] as i64, p[1] as i64);
            assert!((r - c).abs() <= 6, "entry ({r}, {c}) outside band");
        }
    }

    #[test]
    fn density_helper_converts() {
        let t = uniform_density("U", &["M", "K"], 100, 100, 0.05, 9);
        assert!(t.nnz() > 400 && t.nnz() <= 500);
    }
}
