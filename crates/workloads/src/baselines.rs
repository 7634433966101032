//! Baseline cost models used to normalize accelerator results.
//!
//! The paper normalizes ExTensor/Gamma speedups to Intel MKL and SIGMA to
//! a Google Cloud TPU, and compares TeAAL's estimates against
//! Sparseloop's analytical model (Fig. 10a). Those systems are replaced
//! by documented roofline models calibrated to the published machine
//! parameters; the figures report relative speedups, so the deterministic
//! baselines preserve the comparisons' shape while keeping the harness
//! self-contained.

use teaal_fibertree::Tensor;

/// A CPU roofline model standing in for Intel MKL SpGEMM.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuBaseline {
    /// Core count.
    pub cores: u32,
    /// Clock in Hz.
    pub clock_hz: f64,
    /// Peak FLOPs per core per cycle.
    pub flops_per_cycle: f64,
    /// Memory bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Fraction of peak FLOPs a sparse kernel sustains (irregular access
    /// and short rows keep MKL SpGEMM far from peak).
    pub sparse_efficiency: f64,
    /// Fraction of streaming bandwidth SpGEMM's gather/scatter access
    /// pattern sustains (hash accumulation and short rows defeat
    /// prefetchers).
    pub mem_efficiency: f64,
}

impl Default for CpuBaseline {
    fn default() -> Self {
        // A Xeon-class socket of the accelerator papers' era.
        CpuBaseline {
            cores: 8,
            clock_hz: 2.6e9,
            flops_per_cycle: 8.0,
            mem_bw: 60e9,
            sparse_efficiency: 0.04,
            mem_efficiency: 0.12,
        }
    }
}

impl CpuBaseline {
    /// Execution time of an SpGEMM with the given work and footprint.
    ///
    /// `flops` counts multiply-adds ×2; `bytes` is the total traffic
    /// (inputs + partial products + output) a Gustavson implementation
    /// streams.
    pub fn spgemm_seconds(&self, flops: f64, bytes: f64) -> f64 {
        let compute = flops
            / (self.cores as f64 * self.flops_per_cycle * self.clock_hz * self.sparse_efficiency);
        let memory = bytes / (self.mem_bw * self.mem_efficiency);
        compute.max(memory)
    }
}

/// Multiply-count of `Z = Aᵀ·B` for `A` in `[K, M]` and `B` in `[K, N]`
/// layouts: `Σ_k occ(A_k) · occ(B_k)` (the size of the intermediate
/// partial-product space).
pub fn spmspm_multiplies(a: &Tensor, b: &Tensor) -> u64 {
    let rows_b = crate::genmat::root_occupancies(b);
    let mut total = 0u64;
    let mut j = 0usize;
    for (k, occ_a) in crate::genmat::root_occupancies(a) {
        while j < rows_b.len() && rows_b[j].0 < k {
            j += 1;
        }
        if j < rows_b.len() && rows_b[j].0 == k {
            total += occ_a as u64 * rows_b[j].1 as u64;
        }
    }
    total
}

/// Gustavson-style CPU traffic estimate in bytes for `Z = Aᵀ·B`.
pub fn spgemm_cpu_bytes(a: &Tensor, b: &Tensor, nnz_z: u64) -> f64 {
    let elem = 12.0; // 4-byte index + 8-byte value
    let partials = spmspm_multiplies(a, b) as f64;
    (a.nnz() as f64 + b.nnz() as f64 + nnz_z as f64 + partials) * elem
}

/// A dense-GEMM roofline standing in for the Google Cloud TPU baseline of
/// the SIGMA evaluation (Fig. 10d).
///
/// Two effects dominate the TPU's behavior on SIGMA's irregular
/// workloads: the 128×128 systolic array is badly underutilized when a
/// dimension does not fill it (SIGMA's motivating observation), and small
/// kernels are latency-bound by launch/staging overhead.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TpuBaseline {
    /// Peak dense FLOP/s.
    pub peak_flops: f64,
    /// HBM bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Bytes per element.
    pub elem_bytes: f64,
    /// Systolic array edge length.
    pub array_dim: u64,
    /// Fixed kernel launch + staging latency in seconds.
    pub setup_seconds: f64,
}

impl Default for TpuBaseline {
    fn default() -> Self {
        // TPU-v2-class: 45 TFLOP/s, 600 GB/s, 128×128 MXU.
        TpuBaseline {
            peak_flops: 45e12,
            mem_bw: 600e9,
            elem_bytes: 2.0,
            array_dim: 128,
            setup_seconds: 5e-5,
        }
    }
}

impl TpuBaseline {
    /// Fraction of the systolic array a `M×N` output tile utilizes:
    /// partial tiles still occupy a full pass.
    pub fn utilization(&self, m: u64, n: u64) -> f64 {
        let d = self.array_dim as f64;
        let tile = |x: u64| {
            let x = x as f64;
            x / ((x / d).ceil() * d)
        };
        (tile(m) * tile(n)).clamp(0.05, 1.0)
    }

    /// Dense `M×K×N` GEMM time: the TPU cannot skip zeros, so the sparse
    /// workload costs the full dense iteration space, padded to the
    /// systolic tile and floored by launch latency.
    pub fn dense_gemm_seconds(&self, m: u64, n: u64, k: u64) -> f64 {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let bytes = (m * k + k * n + m * n) as f64 * self.elem_bytes;
        let compute = flops / (self.peak_flops * self.utilization(m, n));
        self.setup_seconds + compute.max(bytes / self.mem_bw)
    }
}

/// A Sparseloop-like analytical model: sparsity is summarized by uniform
/// densities (the hypergeometric assumption), not by the actual
/// coordinates. On skewed real-world data this mis-estimates work and
/// traffic — the phenomenon Fig. 10a demonstrates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SparseloopLike {
    /// Processing elements.
    pub pes: u32,
    /// Clock in Hz.
    pub clock_hz: f64,
    /// Memory bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Bytes per stored element.
    pub elem_bytes: f64,
}

impl Default for SparseloopLike {
    fn default() -> Self {
        SparseloopLike {
            pes: 128,
            clock_hz: 1e9,
            mem_bw: 68.256e9,
            elem_bytes: 12.0,
        }
    }
}

impl SparseloopLike {
    /// Analytical SpMSpM time estimate from shape and uniform densities.
    pub fn spmspm_seconds(&self, m: u64, n: u64, k: u64, nnz_a: u64, nnz_b: u64) -> f64 {
        let da = nnz_a as f64 / (m as f64 * k as f64);
        let db = nnz_b as f64 / (k as f64 * n as f64);
        // Expected effectual multiplies under independent uniform
        // sparsity.
        let flops = m as f64 * n as f64 * k as f64 * da * db;
        // Expected output nonzeros: 1 - (1 - dA·dB)^K per output point.
        let p_nz = 1.0 - (1.0 - da * db).powf(k as f64);
        let nnz_z = m as f64 * n as f64 * p_nz;
        let bytes = (nnz_a as f64 + nnz_b as f64 + nnz_z + flops) * self.elem_bytes;
        let compute = flops / (self.pes as f64 * self.clock_hz);
        compute.max(bytes / self.mem_bw)
    }

    /// The same estimate taking real tensors but *only* reading their
    /// summary statistics — exactly the information loss the paper
    /// criticizes.
    pub fn spmspm_seconds_from(&self, a: &Tensor, b: &Tensor) -> f64 {
        let k = a.rank_shapes()[0].extent();
        let m = a.rank_shapes()[1].extent();
        let n = b.rank_shapes()[1].extent();
        self.spmspm_seconds(m, n, k, a.nnz() as u64, b.nnz() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genmat;

    #[test]
    fn multiply_count_matches_bruteforce() {
        let a = genmat::uniform("A", &["K", "M"], 30, 30, 100, 1);
        let b = genmat::uniform("B", &["K", "N"], 30, 30, 100, 2);
        let fast = spmspm_multiplies(&a, &b);
        // Brute force over entries.
        let mut slow = 0u64;
        for (pa, _) in a.entries() {
            for (pb, _) in b.entries() {
                if pa[0] == pb[0] {
                    slow += 1;
                }
            }
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn cpu_roofline_is_monotone_in_work() {
        let cpu = CpuBaseline::default();
        assert!(cpu.spgemm_seconds(2e9, 1e6) > cpu.spgemm_seconds(1e9, 1e6));
        assert!(cpu.spgemm_seconds(1e3, 2e9) > cpu.spgemm_seconds(1e3, 1e9));
    }

    #[test]
    fn tpu_utilization_penalizes_partial_tiles() {
        let tpu = TpuBaseline::default();
        assert_eq!(tpu.utilization(128, 128), 1.0);
        assert!((tpu.utilization(64, 128) - 0.5).abs() < 1e-12);
        // SIGMA's irregular shapes badly underfill the array.
        assert!(tpu.utilization(35, 8457) < 0.3);
    }

    #[test]
    fn tpu_small_kernels_are_latency_bound() {
        let tpu = TpuBaseline::default();
        let small = tpu.dense_gemm_seconds(32, 32, 32);
        assert!((small - tpu.setup_seconds) / tpu.setup_seconds < 0.01);
    }

    #[test]
    fn tpu_pays_for_dense_iteration_space() {
        let tpu = TpuBaseline::default();
        let sparse_flops_time = tpu.dense_gemm_seconds(128, 128, 128);
        let big = tpu.dense_gemm_seconds(16384, 16384, 16384);
        assert!(big > sparse_flops_time * 1000.0);
    }

    #[test]
    fn sparseloop_misestimates_skewed_data() {
        // Identical summary statistics → identical Sparseloop estimates,
        // regardless of the underlying coordinate distribution...
        let sl = SparseloopLike::default();
        let est_a = sl.spmspm_seconds(500, 500, 500, 4000, 4000);
        let est_b = sl.spmspm_seconds(500, 500, 500, 4000, 4000);
        assert_eq!(est_a, est_b);
        // ...but matrices with (nearly) the same summaries and different
        // skew have very different true work, which only a data-driven
        // model sees.
        let uni = genmat::uniform("A", &["K", "M"], 500, 500, 4000, 1);
        let pow = genmat::power_law("A", &["K", "M"], 500, 500, 4000, 2.5, 4000, 1);
        let ub = genmat::uniform("B", &["K", "N"], 500, 500, 4000, 2);
        let pb = genmat::power_law("B", &["K", "N"], 500, 500, 4000, 2.5, 4000, 2);
        let nnz_ratio = pow.nnz() as f64 / uni.nnz() as f64;
        assert!(
            nnz_ratio > 0.7,
            "summaries should stay comparable: {nnz_ratio}"
        );
        let true_u = spmspm_multiplies(&uni, &ub);
        let true_p = spmspm_multiplies(&pow, &pb);
        assert!(
            true_p as f64 > 2.0 * true_u as f64,
            "skew should concentrate work: {true_p} vs {true_u}"
        );
    }
}
