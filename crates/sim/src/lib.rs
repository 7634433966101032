//! # teaal-sim
//!
//! The TeAAL simulator: executes lowered Einsum plans on real sparse
//! tensors with full instrumentation, then derives memory traffic,
//! per-component action counts, bottleneck-analysis execution time, and
//! energy (paper §4.3).
//!
//! The main entry point is [`Simulator`]; see its documentation for a
//! worked example. Evaluation is staged — `SpecSource → ParsedSpec →
//! LoweredPlan → PreparedInputs → SimReport` — with a content-addressed
//! cache boundary at every stage; [`EvalContext`] (see [`pipeline`]) is
//! the shared cache handle.

#![warn(missing_docs)]

pub mod compile;
pub mod counters;
pub mod energy;
pub mod engine;
pub mod error;
pub mod estimate;
pub mod explore;
pub mod limits;
pub mod model;
pub mod ops;
pub mod par;
pub mod pipeline;
pub mod report;
mod table;

pub use compile::CompiledPlan;
pub use counters::{ChannelCfg, Instruments, OutputChannel, TensorChannel};
pub use energy::{ActionCounts, EnergyTable};
pub use engine::Engine;
pub use error::SimError;
pub use estimate::{estimate_data, estimate_with_stats};
pub use explore::{
    explore_fast_with_context, explore_loop_orders_with_context, Candidate, ExploreConfig,
    ExploreOutcome, Objective,
};
pub use limits::{BudgetKind, CancelToken, EvalLimits, Progress};
pub use model::{compress, default_threads, Simulator};
pub use ops::OpTable;
pub use pipeline::EvalContext;
pub use report::{BlockStats, EinsumStats, SimReport, TensorTraffic};
