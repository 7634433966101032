//! The Table 4 dataset registry with synthetic substitutes.
//!
//! The paper evaluates on SuiteSparse/SNAP matrices. Those files are not
//! vendored here, so each dataset resolves to a deterministic generator
//! whose shape and nnz match Table 4 and whose structure matches the
//! domain (power-law for social/email/P2P graphs, banded for the fluid
//! dynamics matrix). `scale` divides both dimensions and nnz to keep
//! interpreted simulation times reasonable; the benchmark harness records
//! the scale it used.

use teaal_fibertree::Tensor;

use crate::genmat;

/// The structural family used to synthesize a dataset.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Structure {
    /// Power-law degree distribution (social / communication graphs).
    PowerLaw,
    /// Banded with random fill (FEM / fluid dynamics).
    Banded,
    /// Near-uniform random.
    Uniform,
}

/// One Table 4 dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct Dataset {
    /// Short name used in the figures (e.g. `wi`).
    pub tag: &'static str,
    /// Full matrix name.
    pub name: &'static str,
    /// Rows (Table 4 shape).
    pub rows: u64,
    /// Columns (Table 4 shape).
    pub cols: u64,
    /// Nonzeros (Table 4 NNZ).
    pub nnz: usize,
    /// Application domain, verbatim from Table 4.
    pub domain: &'static str,
    /// Synthesis family for the substitute.
    pub structure: Structure,
}

impl Dataset {
    /// Synthesizes the substitute matrix at `1/scale` of the original
    /// size (dimensions and nnz both divided), with `[K, M]` rank ids —
    /// the layout the SpMSpM accelerators expect for `A`.
    ///
    /// # Panics
    ///
    /// Panics if `scale == 0`.
    pub fn matrix(&self, scale: u64) -> Tensor {
        self.matrix_named("A", &["K", "M"], scale)
    }

    /// Synthesizes the substitute with explicit name and rank ids.
    ///
    /// # Panics
    ///
    /// Panics if `scale == 0`.
    pub fn matrix_named(&self, name: &str, rank_ids: &[&str; 2], scale: u64) -> Tensor {
        assert!(scale > 0, "scale must be nonzero");
        let rows = (self.rows / scale).max(16);
        let cols = (self.cols / scale).max(16);
        let nnz = (self.nnz as u64 / scale).max(64) as usize;
        let seed = fxhash(self.tag);
        match self.structure {
            Structure::PowerLaw => genmat::power_law(
                name,
                rank_ids,
                rows,
                cols,
                nnz,
                1.6,
                ((nnz as f64 / rows as f64) * 24.0).ceil() as usize,
                seed,
            ),
            Structure::Banded => genmat::banded(name, rank_ids, rows, cols, nnz, 40, seed),
            Structure::Uniform => genmat::uniform(name, rank_ids, rows, cols, nnz, seed),
        }
    }
}

// Not FNV-1a (its prime is 0x1000_0000_01b3); fixing it would move every dataset substitute.
fn fxhash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// The five validation matrices of Table 4 (used in Figs. 9–11).
pub fn validation_datasets() -> Vec<Dataset> {
    vec![
        Dataset {
            tag: "wi",
            name: "wiki-Vote",
            rows: 8_300,
            cols: 8_300,
            nnz: 104_000,
            domain: "elections",
            structure: Structure::PowerLaw,
        },
        Dataset {
            tag: "p2",
            name: "p2p-Gnutella31",
            rows: 63_000,
            cols: 63_000,
            nnz: 148_000,
            domain: "file-sharing",
            structure: Structure::PowerLaw,
        },
        Dataset {
            tag: "ca",
            name: "ca-CondMat",
            rows: 23_000,
            cols: 23_000,
            nnz: 187_000,
            domain: "collab. net.",
            structure: Structure::PowerLaw,
        },
        Dataset {
            tag: "po",
            name: "poisson3Da",
            rows: 14_000,
            cols: 23_000,
            nnz: 353_000,
            domain: "fluid dynamics",
            structure: Structure::Banded,
        },
        Dataset {
            tag: "em",
            name: "email-Enron",
            rows: 37_000,
            cols: 37_000,
            nnz: 368_000,
            domain: "email comms.",
            structure: Structure::PowerLaw,
        },
    ]
}

/// The three graph datasets of Table 4 (used in Fig. 13).
pub fn graph_datasets() -> Vec<Dataset> {
    vec![
        Dataset {
            tag: "fl",
            name: "flickr",
            rows: 820_000,
            cols: 820_000,
            nnz: 9_800_000,
            domain: "site crawl graph",
            structure: Structure::PowerLaw,
        },
        Dataset {
            tag: "wk",
            name: "wikipedia-20070206",
            rows: 3_600_000,
            cols: 3_600_000,
            nnz: 42_000_000,
            domain: "site link graph",
            structure: Structure::PowerLaw,
        },
        Dataset {
            tag: "lj",
            name: "soc-LiveJournal1",
            rows: 4_800_000,
            cols: 4_800_000,
            nnz: 69_000_000,
            domain: "follower graph",
            structure: Structure::PowerLaw,
        },
    ]
}

/// Finds a dataset by its figure tag (`wi`, `p2`, ..., `lj`).
pub fn by_tag(tag: &str) -> Option<Dataset> {
    validation_datasets()
        .into_iter()
        .chain(graph_datasets())
        .find(|d| d.tag == tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table4() {
        assert_eq!(validation_datasets().len(), 5);
        assert_eq!(graph_datasets().len(), 3);
        let wi = by_tag("wi").unwrap();
        assert_eq!(wi.name, "wiki-Vote");
        assert_eq!(wi.nnz, 104_000);
        let lj = by_tag("lj").unwrap();
        assert_eq!(lj.nnz, 69_000_000);
        assert!(by_tag("zz").is_none());
    }

    #[test]
    fn scaled_matrices_match_requested_size() {
        let wi = by_tag("wi").unwrap();
        let m = wi.matrix(8);
        assert_eq!(m.rank_shapes()[0].extent(), 8_300 / 8);
        // Duplicates collapse a little.
        let want = 104_000 / 8;
        assert!(m.nnz() > want * 8 / 10 && m.nnz() <= want);
    }

    #[test]
    fn substitutes_are_deterministic() {
        let wi = by_tag("wi").unwrap();
        assert_eq!(wi.matrix(16).max_abs_diff(&wi.matrix(16)), 0.0);
    }

    #[test]
    fn banded_dataset_is_rectangular() {
        let po = by_tag("po").unwrap();
        let m = po.matrix(16);
        assert_eq!(m.rank_shapes()[0].extent(), 14_000 / 16);
        assert_eq!(m.rank_shapes()[1].extent(), 23_000 / 16);
    }
}
