//! # teaal-bench
//!
//! The benchmark harness: one regenerator per table and figure of the
//! TeAAL evaluation (run the `fig*`/`table*` binaries), plus shared
//! helpers for workload setup and paper-vs-measured reporting.
//!
//! Run everything with `cargo run --release -p teaal-bench --bin run_all`.

#![warn(missing_docs)]

pub mod reported;

use teaal_fibertree::Tensor;
use teaal_sim::SimReport;
use teaal_workloads::{by_tag, Dataset};

/// Default linear scale factor for the Table 4 substitutes: dimensions
/// and nnz are divided by this so interpreted simulation stays in seconds
/// per accelerator (see the paper-fidelity table in ROADMAP.md).
pub const DEFAULT_MATRIX_SCALE: u64 = 8;

/// Default scale for the large vertex-centric graphs.
pub const DEFAULT_GRAPH_SCALE: u64 = 48;

/// Builds the `Z = AᵀA`-style operand pair `(A, B)` for one validation
/// dataset (both operands synthesized from the same dataset, as the
/// original papers square each matrix).
pub fn spmspm_pair(ds: &Dataset, scale: u64) -> (Tensor, Tensor) {
    (
        ds.matrix_named("A", &["K", "M"], scale),
        ds.matrix_named("B", &["K", "N"], scale),
    )
}

/// Builds the operand pair by figure tag.
///
/// # Panics
///
/// Panics if the tag is not in the Table 4 registry.
pub fn spmspm_pair_by_tag(tag: &str, scale: u64) -> (Tensor, Tensor) {
    let ds = by_tag(tag).unwrap_or_else(|| panic!("unknown dataset tag {tag:?}"));
    spmspm_pair(&ds, scale)
}

/// The algorithmic-minimum DRAM traffic for an SpMSpM: each input read
/// once and the final output written once, in the accelerator's formats
/// (the Fig. 9 normalization baseline).
pub fn algorithmic_min_bytes(
    spec: &teaal_core::TeaalSpec,
    a: &Tensor,
    b: &Tensor,
    report: &SimReport,
) -> u64 {
    let fmt = |t: &Tensor| {
        spec.format
            .config_or_default(t.name(), None, t.rank_ids())
            .footprint_bytes(t)
    };
    let z_bytes = report
        .final_output()
        .map(|z| {
            spec.format
                .config_or_default(z.name(), None, z.rank_ids())
                .footprint_bytes_data(z)
        })
        .unwrap_or(0);
    fmt(a) + fmt(b) + z_bytes
}

/// Percentage error of a measured value against a reported one.
pub fn pct_error(measured: f64, reported: f64) -> f64 {
    if reported == 0.0 {
        return f64::NAN;
    }
    (measured - reported).abs() / reported * 100.0
}

/// Prints a figure-style table: one row per label, one column per series.
pub fn print_table(title: &str, columns: &[&str], rows: &[(String, Vec<f64>)]) {
    println!("\n== {title} ==");
    print!("{:<24}", "");
    for c in columns {
        print!("{c:>16}");
    }
    println!();
    for (label, values) in rows {
        print!("{label:<24}");
        for v in values {
            if v.abs() >= 1e4 || (v.abs() < 1e-2 && *v != 0.0) {
                print!("{v:>16.3e}");
            } else {
                print!("{v:>16.3}");
            }
        }
        println!();
    }
}

/// Parses `--scale N` style overrides from CLI arguments, returning the
/// default when absent.
pub fn arg_scale(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A paper dimension divided by `scale`, floored at 8 so scaled-down
/// workloads keep a few fibers per rank. Only dimensions that scaling
/// shrank are clamped: one the paper gives below 8 keeps its value (the
/// N = 1 of Fig. 10d's `2048/1/128` row stays 1 at every scale).
pub fn scaled_dim(d: u64, scale: u64) -> u64 {
    (d / scale).max(8).min(d)
}

/// Arithmetic mean (the paper reports averages as arithmetic means, §7).
pub fn arithmetic_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_error_is_symmetric_in_magnitude() {
        assert_eq!(pct_error(12.0, 10.0), 20.0);
        assert_eq!(pct_error(8.0, 10.0), 20.0);
        assert!(pct_error(1.0, 0.0).is_nan());
    }

    #[test]
    fn arg_scale_parses_and_defaults() {
        let args: Vec<String> = ["prog", "--scale", "32"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_scale(&args, "--scale", 8), 32);
        assert_eq!(arg_scale(&args, "--missing", 8), 8);
    }

    #[test]
    fn spmspm_pair_builds_conforming_operands() {
        let (a, b) = spmspm_pair_by_tag("wi", 64);
        assert_eq!(a.rank_ids(), &["K".to_string(), "M".to_string()]);
        assert_eq!(b.rank_ids(), &["K".to_string(), "N".to_string()]);
        assert_eq!(a.rank_shapes()[0], b.rank_shapes()[0]);
    }

    #[test]
    fn scaled_dims_clamp_only_what_scaling_shrank() {
        assert_eq!(scaled_dim(2048, 4), 512);
        assert_eq!(scaled_dim(16, 4), 8);
        assert_eq!(scaled_dim(1, 4), 1);
        assert_eq!(scaled_dim(1, 1), 1);
        assert_eq!(scaled_dim(6, 2), 6);
        assert_eq!(scaled_dim(128, 1), 128);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(arithmetic_mean(&[]), 0.0);
        assert_eq!(arithmetic_mean(&[2.0, 4.0]), 3.0);
    }
}
