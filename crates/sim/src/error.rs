//! Simulator error types.

use std::fmt;

use crate::limits::{BudgetKind, Progress};

/// Errors produced while configuring or running the simulator.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// An input tensor required by the cascade was not provided.
    MissingTensor {
        /// The tensor's name.
        tensor: String,
    },
    /// A dense loop rank has no known extent; provide one with
    /// `Simulator::with_rank_extent`.
    MissingExtent {
        /// The rank missing an extent.
        rank: String,
    },
    /// A follower partition ran before its leader published boundaries.
    MissingBoundaries {
        /// The partitioned rank.
        rank: String,
        /// The leader tensor that never ran.
        leader: String,
    },
    /// An access descends deeper than its tensor's working rank order —
    /// the plan is malformed (previously the engine silently fabricated
    /// `leaf<N>` rank names and instrumented phantom ranks).
    PhantomRank {
        /// The tensor whose working order ran out.
        tensor: String,
        /// The descent depth that has no working rank.
        depth: usize,
        /// The tensor's actual working rank order.
        working_order: Vec<String>,
    },
    /// The specification failed to lower.
    Spec(teaal_core::SpecError),
    /// A fibertree transform failed during execution.
    Fibertree(String),
    /// The evaluation's wall-clock deadline passed
    /// ([`EvalLimits::deadline`](crate::limits::EvalLimits)). Carries
    /// the telemetry gathered up to the cancellation point.
    DeadlineExceeded {
        /// Work done before the deadline fired.
        progress: Progress,
    },
    /// A resource budget was exhausted
    /// ([`EvalLimits`](crate::limits::EvalLimits)).
    BudgetExceeded {
        /// Which budget ran out.
        resource: BudgetKind,
        /// The configured limit.
        limit: u64,
        /// Consumption observed when the budget tripped (may slightly
        /// exceed `limit`: polls are amortized across loop iterations).
        used: u64,
        /// Work done before the budget tripped.
        progress: Progress,
    },
    /// The evaluation was cancelled externally
    /// ([`CancelToken::cancel`](crate::limits::CancelToken::cancel)).
    Cancelled {
        /// Work done before cancellation was observed.
        progress: Progress,
    },
    /// A component's modeled busy time came out non-finite — the
    /// architecture section declares a zero bandwidth or clock that
    /// divides to NaN/∞. Previously this panicked inside the bottleneck
    /// comparison.
    NonFiniteTime {
        /// The component whose time is NaN or infinite.
        component: String,
    },
    /// A worker panicked; the worker pool ([`crate::par`]) isolated the
    /// panic, and it became this structured error instead of tearing down
    /// the process.
    WorkerPanic {
        /// Which fan-out the worker belonged to (`"shard"`, `"wave"` or
        /// `"request"`).
        site: String,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingTensor { tensor } => {
                write!(f, "input tensor {tensor} was not provided")
            }
            SimError::MissingExtent { rank } => write!(
                f,
                "rank {rank} has no extent; no input tensor carries it — provide one \
                 with with_rank_extent"
            ),
            SimError::MissingBoundaries { rank, leader } => write!(
                f,
                "follower partitioning of {rank} ran before leader {leader} published \
                 boundaries"
            ),
            SimError::PhantomRank {
                tensor,
                depth,
                working_order,
            } => write!(
                f,
                "access to tensor {tensor} descends to depth {depth} but its working \
                 order {working_order:?} has only {} ranks — the plan is malformed",
                working_order.len()
            ),
            SimError::Spec(e) => write!(f, "{e}"),
            SimError::Fibertree(m) => write!(f, "fibertree operation failed: {m}"),
            SimError::DeadlineExceeded { progress } => {
                write!(f, "evaluation deadline exceeded after {progress}")
            }
            SimError::BudgetExceeded {
                resource,
                limit,
                used,
                progress,
            } => write!(
                f,
                "{resource} budget exceeded ({used} used of {limit} allowed) after {progress}"
            ),
            SimError::Cancelled { progress } => {
                write!(f, "evaluation cancelled after {progress}")
            }
            SimError::NonFiniteTime { component } => write!(
                f,
                "modeled time for component {component} is not finite — check the \
                 architecture's bandwidth and clock values for zeros"
            ),
            SimError::WorkerPanic { site, message } => {
                write!(f, "{site} worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Spec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<teaal_core::SpecError> for SimError {
    fn from(e: teaal_core::SpecError) -> Self {
        SimError::Spec(e)
    }
}

/// Renders a `catch_unwind` payload as text: panics carry `&str` or
/// `String` messages in practice; anything else gets a placeholder. The
/// one panic-payload renderer: the worker pool ([`crate::par`]) and
/// `teaal`'s request isolation both use it.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl From<teaal_fibertree::FibertreeError> for SimError {
    fn from(e: teaal_fibertree::FibertreeError) -> Self {
        SimError::Fibertree(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_missing_piece() {
        let e = SimError::MissingTensor { tensor: "A".into() };
        assert!(e.to_string().contains('A'));
        let e = SimError::MissingExtent { rank: "Q".into() };
        assert!(e.to_string().contains("with_rank_extent"));
    }
}
