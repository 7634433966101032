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
//! Tensor content has two storage representations, with one cursor
//! interface over the compressed one:
//!
//! - [`Tensor`] — the *owned* fibertree: every fiber is its own
//!   allocation, payloads nest recursively. Supports in-place writes
//!   ([`Tensor::set`], [`fiber::Fiber::get_or_insert_with`]) and
//!   arbitrary-depth flattening into tuple coordinates. Use it to build
//!   small tensors in place and as the oracle the compressed path is
//!   tested against.
//! - [`CompressedTensor`] — *compressed sparse fiber* (CSF) storage: two
//!   flat arrays per rank (coordinates narrowed to `u32` when the rank
//!   extent fits; one coordinate array per tuple component on flattened
//!   ranks) plus one leaf value arena, built in one pass from COO
//!   entries ([`CompressedTensor::from_entries`]), streamed through a
//!   [`CompressedBuilder`], or converted from an owned tree
//!   ([`CompressedTensor::from_tensor`]). Iteration touches contiguous
//!   memory and cloning is a flat copy, so multi-million-entry inputs
//!   (graph adjacencies, SuiteSparse-scale matrices) co-iterate without
//!   pointer-chasing. Everything that evaluates a tensor reads it in
//!   this form.
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
//! [`FiberView`] / [`PayloadView`] cursors read CSF storage; the
//! streaming co-iteration in [`iterate`] and the simulator engine are
//! written against them. [`TensorData`] is the input type that accepts
//! either representation: the simulator compresses an owned input once,
//! at its API boundary, before any cursor reads it. Property tests pin
//! the cursors and co-iteration streams against oracles built from the
//! owned tree's elements, and `proptest_compressed_transforms` pins the
//! transform primitives bit-identical to the owned oracle.
//!
//! ## Quick tour
//!
//! ```
//! use teaal_fibertree::{CompressedTensor, IntersectPolicy, iterate};
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
//! // Co-iteration with an explicit intersection-unit policy, over the
//! // CSF form every evaluation reads:
//! let at = CompressedTensor::from_tensor(&a.swizzle(&["K", "M"])?)?;
//! let b = CompressedTensor::from_tensor(&teaal_fibertree::tensor::fig1_vector_b())?;
//! let mut stream = iterate::intersect_stream(
//!     &[at.root_fiber_view().unwrap(), b.root_fiber_view().unwrap()],
//!     IntersectPolicy::TwoFinger,
//! );
//! let matches: Vec<_> = stream.by_ref().collect();
//! assert_eq!(matches.len(), 2); // k = 1, 2 present in both
//! assert!(stream.stats().comparisons >= 2);
//! # use teaal_fibertree::partition;
//! # Ok::<(), teaal_fibertree::FibertreeError>(())
//! ```
//!
//! Streams are lazy: each match is produced on demand. The engine keeps
//! one stream per loop level and re-arms it with `restart`; `advance`
//! returns the next matching coordinate and `positions` its position in
//! each fiber.
//!
//! ```
//! use teaal_fibertree::{CompressedTensor, IntersectPolicy};
//! use teaal_fibertree::iterate::IntersectStream;
//!
//! let a = CompressedTensor::from_entries(
//!     "A", &["K"], &[8], vec![(vec![1], 2.0), (vec![5], 3.0)])?;
//! let b = CompressedTensor::from_entries(
//!     "B", &["K"], &[8], vec![(vec![5], 4.0), (vec![7], 1.0)])?;
//! let fibers = [a.root_fiber_view().unwrap(), b.root_fiber_view().unwrap()];
//! let mut stream = IntersectStream::default();
//! stream.restart(&fibers, IntersectPolicy::TwoFinger, None);
//! assert_eq!(stream.advance().and_then(|k| k.as_point()), Some(5));
//! assert_eq!(stream.positions(), &[1, 0]);
//! assert!(stream.advance().is_none());
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
pub mod hash;
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
pub use hash::Fnv1a;
pub use iterate::{CoIterStats, IntersectPolicy};
pub use semiring::Semiring;
pub use stats::{RankStats, StatsCache, TensorStats};
pub use tensor::{Tensor, TensorBuilder};
pub use view::{CoordKey, FiberView, PayloadView, PointRun, TensorData, TupleKey};
