//! # teaal-fixtures
//!
//! The canonical TeAAL specifications for the four SpMSpM accelerators of
//! the validation study (paper §7, Table 1), stored once as YAML files
//! under `specs/` and embedded at compile time.
//!
//! `teaal-accel` re-exports these as each accelerator module's `YAML`
//! constant, and `teaal-sim`'s integration tests consume them directly —
//! previously the sim tests carried byte-identical copies because `sim`
//! cannot depend on `accel` without a dependency cycle. This crate depends
//! on nothing, so both sides can share one source of truth.

#![warn(missing_docs)]

/// OuterSPACE (HPCA 2018): outer-product SpMSpM, Figs. 3/5, Table 5.
pub const OUTERSPACE_EM: &str = include_str!("../specs/outerspace_em.yaml");

/// ExTensor (MICRO 2019): hierarchical skip-ahead intersection, Fig. 8a.
pub const EXTENSOR_EM: &str = include_str!("../specs/extensor_em.yaml");

/// Gamma (ASPLOS 2021): row-wise (Gustavson) SpMSpM with fused merge,
/// Fig. 8b.
pub const GAMMA_EM: &str = include_str!("../specs/gamma_em.yaml");

/// SIGMA (HPCA 2020): flattened stationary operand on a flexible
/// reduction network, Fig. 8c.
pub const SIGMA_EM: &str = include_str!("../specs/sigma_em.yaml");

/// A reduction that flattens three ranks into one, `(K, M)` and then
/// `(KM, N)`, so `T` is walked through a single rank of `(k, m, n)`
/// triples.
pub const DOUBLE_FLATTEN: &str = include_str!("../specs/double_flatten.yaml");

/// All four specs with display labels, in the paper's presentation order.
pub fn spmspm_specs() -> [(&'static str, &'static str); 4] {
    [
        ("OuterSPACE", OUTERSPACE_EM),
        ("ExTensor", EXTENSOR_EM),
        ("Gamma", GAMMA_EM),
        ("SIGMA", SIGMA_EM),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_nonempty_yaml() {
        for (label, yaml) in spmspm_specs() {
            assert!(
                yaml.starts_with("einsum:\n"),
                "{label} must open with the einsum section"
            );
            assert!(
                yaml.contains("architecture:"),
                "{label} must carry an architecture"
            );
        }
    }
}
