//! # teaal
//!
//! A Rust reproduction of **TeAAL** (MICRO 2023): a declarative language
//! and simulator generator for modeling sparse tensor algebra
//! accelerators.
//!
//! TeAAL's key idea is that modern sparse accelerators — OuterSPACE,
//! ExTensor, Gamma, SIGMA, and beyond — can be described precisely and
//! concisely as *cascades of mapped Einsums* plus content-preserving
//! transformations (partitioning, flattening, swizzling) on the tensors
//! in those Einsums. From an ~30-line declarative specification, this
//! workspace generates an executable model that runs on real sparse
//! tensors and reports memory traffic, per-component action counts,
//! bottleneck-analysis execution time, and energy.
//!
//! This crate is the facade: it re-exports the workspace's layers.
//!
//! | Layer | Crate | What it holds |
//! |---|---|---|
//! | [`fibertree`] | `teaal-fibertree` | The fibertree tensor abstraction and its transforms |
//! | [`core`] | `teaal-core` | Einsums, the five-part spec language, the loop-nest IR |
//! | [`sim`] | `teaal-sim` | The instrumented engine and performance/energy models |
//! | [`accel`] | `teaal-accel` | Ready-made specs for the paper's six accelerators |
//! | [`workloads`] | `teaal-workloads` | Matrix/graph generators, datasets, baselines |
//! | [`graph`] | `teaal-graph` | Vertex-centric BFS/SSSP drivers (paper §8) |
//!
//! ## Quickstart
//!
//! ```
//! use teaal::prelude::*;
//!
//! // 1. Describe an accelerator: an Einsum plus a mapping.
//! let spec = TeaalSpec::parse(concat!(
//!     "einsum:\n",
//!     "  declaration:\n",
//!     "    A: [K, M]\n",
//!     "    B: [K, N]\n",
//!     "    Z: [M, N]\n",
//!     "  expressions:\n",
//!     "    - Z[m, n] = A[k, m] * B[k, n]\n",
//! ))?;
//!
//! // 2. Generate its simulator.
//! let sim = Simulator::new(spec)?;
//!
//! // 3. Run it on real sparse tensors.
//! let a = Tensor::from_entries("A", &["K", "M"], &[4, 4],
//!     vec![(vec![0, 1], 2.0), (vec![3, 2], 5.0)]).unwrap();
//! let b = Tensor::from_entries("B", &["K", "N"], &[4, 4],
//!     vec![(vec![0, 0], 3.0), (vec![3, 3], 7.0)]).unwrap();
//! let report = sim.run(&[a, b])?;
//!
//! assert_eq!(report.final_output().unwrap().get(&[1, 0]), Some(6.0));
//! assert!(report.dram_bytes() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod args;
pub mod client;
pub mod request;
pub mod serve;
pub mod wire;

pub use teaal_accel as accel;
pub use teaal_core as core;
pub use teaal_fibertree as fibertree;
pub use teaal_graph as graph;
pub use teaal_sim as sim;
pub use teaal_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use teaal_accel::{GraphDesign, SpmspmAccel};
    pub use teaal_core::{SpecError, TeaalSpec};
    pub use teaal_fibertree::{
        CompressedBuilder, CompressedTensor, Coord, FiberView, PayloadView, Semiring, Shape,
        Tensor, TensorBuilder, TensorData,
    };
    pub use teaal_sim::{OpTable, SimError, SimReport, Simulator};
}
