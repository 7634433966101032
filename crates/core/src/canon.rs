//! Canonical content hashing for specifications.
//!
//! The staged evaluation pipeline
//! (`SpecSource → ParsedSpec → LoweredPlan → PreparedInputs → SimReport`)
//! keys every cached artifact by a stable content hash. This module is
//! the root of that key scheme: the streaming FNV-1a hasher [`Fnv1a`]
//! (defined in `teaal-fibertree`, where tensor content hashes and
//! [`StatsCache`](teaal_fibertree::StatsCache) fingerprints use it too), a
//! [`source_hash`] over raw YAML bytes (the `SpecSource → ParsedSpec`
//! key), and a [`spec_hash`] over the *parsed* specification (the
//! `ParsedSpec → LoweredPlan` key).
//!
//! [`spec_hash`] deliberately hashes the parsed structure, not the source
//! text: two sources that differ only in comments, key order, or
//! whitespace parse to equal [`TeaalSpec`]s and therefore share one
//! lowered plan. Every section is serialized through its `Debug`
//! representation — all spec containers are `BTreeMap`-backed, so the
//! rendering is deterministic — with a length-framed section tag, so a
//! value migrating between sections can never alias another spec's hash.
//!
//! Hashes are cache keys, not cryptographic commitments: collisions are
//! astronomically unlikely for the handful of specs a process evaluates,
//! and the caches they guard are process-local.

pub use teaal_fibertree::Fnv1a;

use crate::spec::TeaalSpec;

/// Content hash of raw specification source text — the key of the
/// `SpecSource → ParsedSpec` cache stage.
pub fn source_hash(source: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(source.as_bytes());
    h.finish()
}

/// Content hash of a parsed specification — the key of the
/// `ParsedSpec → LoweredPlan` cache stage.
///
/// Covers all five sections (einsum cascade, mapping, format,
/// architecture, binding): any edit that could change lowering, traffic
/// channels, timing, or energy changes the hash, while formatting-only
/// source edits do not.
pub fn spec_hash(spec: &TeaalSpec) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str("teaal-spec-v1");
    h.write_str("cascade");
    h.write_str(&format!("{:?}", spec.cascade));
    h.write_str("mapping");
    h.write_str(&format!("{:?}", spec.mapping));
    h.write_str("format");
    h.write_str(&format!("{:?}", spec.format));
    h.write_str("architecture");
    h.write_str(&format!("{:?}", spec.architecture));
    h.write_str("binding");
    h.write_str(&format!("{:?}", spec.binding));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pinned FNV-1a reference values — cache keys must be reproducible
    /// across toolchains and releases, exactly like the engine's
    /// output-key hash.
    #[test]
    fn fnv1a_constants_are_pinned() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(&[0]);
        assert_eq!(h.finish(), 0xaf63_bd4c_8601_b7df);
        assert_eq!(source_hash(""), Fnv1a::OFFSET_BASIS);
    }

    #[test]
    fn write_str_is_length_framed() {
        let mut a = Fnv1a::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv1a::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    const BASE: &str = concat!(
        "einsum:\n",
        "  declaration:\n",
        "    A: [K, M]\n",
        "    B: [K, N]\n",
        "    Z: [M, N]\n",
        "  expressions:\n",
        "    - Z[m, n] = A[k, m] * B[k, n]\n",
    );

    #[test]
    fn equal_specs_hash_equally_and_formatting_is_invisible() -> Result<(), crate::error::SpecError>
    {
        let a = TeaalSpec::parse(BASE)?;
        let b = TeaalSpec::parse(BASE)?;
        assert_eq!(spec_hash(&a), spec_hash(&b));
        // A comment changes the source hash but not the parsed hash.
        let commented = format!("# a comment\n{BASE}");
        let c = TeaalSpec::parse(&commented)?;
        assert_ne!(source_hash(BASE), source_hash(&commented));
        assert_eq!(spec_hash(&a), spec_hash(&c));
        Ok(())
    }

    #[test]
    fn every_section_is_hash_sensitive() -> Result<(), crate::error::SpecError> {
        let base = spec_hash(&TeaalSpec::parse(BASE)?);
        // Einsum section: a different expression.
        let einsum = BASE.replace("A[k, m] * B[k, n]", "A[k, m] * B[k, n] + A[k, m]");
        // Mapping: a pinned loop order.
        let mapping = format!("{BASE}mapping:\n  loop-order:\n    Z: [K, M, N]\n");
        // Format: an explicit per-tensor format.
        let format = format!("{BASE}format:\n  A:\n    CSR:\n      M:\n        format: C\n");
        // Architecture: a different clock.
        let arch = format!("{BASE}architecture:\n  clock: 2000000000\n");
        // Binding: a named architecture configuration.
        let binding = format!("{BASE}binding:\n  Z:\n    config: Default\n");
        for (label, src) in [
            ("einsum", einsum),
            ("mapping", mapping),
            ("format", format),
            ("architecture", arch),
            ("binding", binding),
        ] {
            let spec = TeaalSpec::parse(&src)?;
            assert_ne!(
                spec_hash(&spec),
                base,
                "editing the {label} section must change the spec hash"
            );
        }
        Ok(())
    }
}
