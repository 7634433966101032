//! # teaal-fibertree
//!
//! The *fibertree* tensor abstraction (Sze et al.; TeAAL §2.1): tensors as
//! trees of coordinate/payload fibers, uniformly covering dense and sparse
//! data, plus the content-preserving transforms — partitioning, flattening,
//! and swizzling — that the TeAAL paper shows capture sparse accelerator
//! data-orchestration idioms (§3.2).
//!
//! This crate is the substrate of the `teaal-rs` workspace: the language
//! and IR (`teaal-core`) lower mapped Einsums onto these structures, and
//! the simulator (`teaal-sim`) executes them on real tensors.
//!
//! ## Choosing a representation
//!
//! Tensor content has two storage representations behind one cursor
//! interface:
//!
//! - [`Tensor`] — the *owned* fibertree: every fiber is its own
//!   allocation, payloads nest recursively. Supports in-place writes
//!   ([`Tensor::set`], [`fiber::Fiber::get_or_insert_with`]) and
//!   arbitrary-depth flattening into tuple coordinates. Use it for small
//!   workloads, in-place construction, and as the oracle the compressed
//!   path is tested against.
//! - [`CompressedTensor`] — *compressed sparse fiber* (CSF) storage: two
//!   flat arrays per rank (coordinates narrowed to `u32` when the rank
//!   extent fits; one coordinate array per tuple component on flattened
//!   ranks) plus one leaf value arena, built in one pass from COO
//!   entries ([`CompressedTensor::from_entries`]), streamed through a
//!   [`CompressedBuilder`], or converted from an owned tree
//!   ([`CompressedTensor::from_tensor`]). Iteration touches contiguous
//!   memory and cloning is a flat copy, so multi-million-entry inputs
//!   (graph adjacencies, SuiteSparse-scale matrices) co-iterate without
//!   pointer-chasing. Use it for every large tensor.
//!
//! The content-preserving transforms run natively on both
//! representations, bit-identically: [`CompressedTensor::swizzle`] is a
//! key-permutation re-sort (no tree build),
//! [`CompressedTensor::partition_rank`] a pure segment-array split, and
//! [`CompressedTensor::flatten_rank`] a segment fusion producing
//! tuple-coordinate levels of any depth. Every
//! decompression ([`CompressedTensor::to_tensor`]) is counted by
//! [`telemetry::decompress_count`], so a pipeline that claims to be
//! compressed-native can prove it.
//!
//! [`TensorData`] erases the choice, and [`FiberView`] /
//! [`PayloadView`] cursors iterate both identically — the streaming
//! co-iteration in [`iterate`] and the simulator engine are written
//! against the cursors, never against a concrete representation. A
//! round-trip (`from_entries → compress → iterate`) yields the same
//! entries, matches, and [`CoIterStats`] either way; property tests pin
//! that equivalence, and `proptest_compressed_transforms` pins the
//! transform primitives bit-identical to the owned oracle.
//!
//! ## Quick tour
//!
//! ```
//! use teaal_fibertree::{Tensor, partition::SplitKind, IntersectPolicy, iterate};
//!
//! // Build the sparse matrix from Fig. 1 of the paper.
//! let a = teaal_fibertree::tensor::fig1_matrix_a();
//!
//! // Content-preserving transforms compose:
//! let flat = a.flatten_rank("M", "MK")?;                       // Fig. 2, step 1
//! let parts = flat.partition_rank(
//!     "MK", partition::SplitKind::UniformOccupancy(2), "MK1", "MK0")?; // Fig. 2, step 2
//! assert_eq!(parts.nnz(), a.nnz());
//!
//! // Co-iteration with an explicit intersection-unit policy:
//! let at = a.swizzle(&["K", "M"])?;
//! let b = teaal_fibertree::tensor::fig1_vector_b();
//! let (matches, stats) = iterate::intersect2(
//!     at.root_fiber().unwrap(),
//!     b.root_fiber().unwrap(),
//!     IntersectPolicy::TwoFinger,
//! );
//! assert_eq!(matches.len(), 2); // k = 1, 2 present in both
//! assert!(stats.comparisons >= 2);
//! # use teaal_fibertree::partition;
//! # Ok::<(), teaal_fibertree::FibertreeError>(())
//! ```
//!
//! The same co-iteration as a lazy stream over compressed storage:
//!
//! ```
//! use teaal_fibertree::{CompressedTensor, IntersectPolicy, TensorData};
//! use teaal_fibertree::iterate::intersect2_stream;
//!
//! let a = CompressedTensor::from_entries(
//!     "A", &["K"], &[8], vec![(vec![1], 2.0), (vec![5], 3.0)])?;
//! let b = CompressedTensor::from_entries(
//!     "B", &["K"], &[8], vec![(vec![5], 4.0), (vec![7], 1.0)])?;
//! let (da, db) = (TensorData::from(a), TensorData::from(b));
//! let mut stream = intersect2_stream(
//!     da.root_fiber_view().unwrap(),
//!     db.root_fiber_view().unwrap(),
//!     IntersectPolicy::TwoFinger,
//! );
//! let m = stream.next().unwrap();
//! assert_eq!(m.0.as_point(), Some(5));
//! assert!(stream.next().is_none());
//! assert_eq!(stream.stats().matches, 1);
//! # Ok::<(), teaal_fibertree::FibertreeError>(())
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod cache;
pub mod compressed;
pub mod coord;
pub mod error;
pub mod fiber;
pub mod flatten;
pub mod iterate;
pub mod partition;
pub mod semiring;
pub mod stats;
pub mod swizzle;
pub mod telemetry;
pub mod tensor;
pub mod view;

pub use builder::CompressedBuilder;
pub use cache::{BoundaryRecord, ByteLru, MergeRecord, TransformCache, TransformedView};
pub use compressed::CompressedTensor;
pub use coord::{Coord, Shape};
pub use error::FibertreeError;
pub use fiber::{Element, Fiber, Payload};
pub use iterate::{CoIterStats, IntersectPolicy};
pub use semiring::Semiring;
pub use stats::{RankStats, StatsCache, TensorStats};
pub use tensor::{Tensor, TensorBuilder};
pub use view::{CoordKey, FiberView, PayloadView, TensorData, TupleKey};
