//! Request evaluation shared by `teaal batch` and `teaal serve`.
//!
//! Both front doors accept the same logical request — a spec plus
//! optional loop-order / operator-table overrides, evaluated against a
//! shared dataset through one [`EvalContext`] — and both must turn
//! every failure mode (malformed spec, runtime error, worker panic,
//! tripped budget) into the *same* structured outcome. This module is
//! that single seam: [`evaluate_request`] runs the request under
//! [`catching`] panic isolation, [`ErrorCode`] names each failure class
//! once, and [`error_block`] renders the `# error:` block `teaal
//! batch` prints — so batch's exit-code-2 semantics and serve's wire
//! error codes cannot drift apart.

use std::fmt;
use std::sync::Arc;

use teaal_core::TeaalSpec;
use teaal_fibertree::{Tensor, TensorData};
use teaal_sim::error::panic_message;
use teaal_sim::{CancelToken, EvalContext, OpTable, SimError};

/// The failure classes a request can end in, shared verbatim between
/// `teaal batch` diagnostics and the `teaal serve` wire protocol's
/// `code` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request's framing or encoding was malformed (wire only).
    Protocol,
    /// The request was well-framed but semantically invalid — an
    /// unparsable spec, an unknown operator table, a bad field value.
    BadRequest,
    /// The admission queue was full; nothing was attempted. Safe to
    /// retry (evaluation is content-addressed and idempotent).
    Overloaded,
    /// The daemon is draining toward shutdown. Safe to retry elsewhere.
    ShuttingDown,
    /// The per-request wall-clock deadline passed.
    Deadline,
    /// An engine-step or output-entry budget was exhausted.
    Budget,
    /// The evaluation was cancelled (for the daemon: a drain deadline
    /// cancelling stragglers).
    Cancelled,
    /// The evaluation panicked; the panic was isolated.
    Panic,
    /// Any other structured evaluation failure (missing tensor,
    /// transform error, non-finite modeled time, …).
    Eval,
    /// A daemon-side invariant broke (e.g. a worker vanished). Should
    /// not happen; reported rather than hidden.
    Internal,
}

impl ErrorCode {
    /// The code's wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Deadline => "deadline",
            ErrorCode::Budget => "budget",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::Panic => "panic",
            ErrorCode::Eval => "eval",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire token back to a code (clients classify responses
    /// with this).
    pub fn parse(token: &str) -> Option<ErrorCode> {
        const ALL: [ErrorCode; 10] = [
            ErrorCode::Protocol,
            ErrorCode::BadRequest,
            ErrorCode::Overloaded,
            ErrorCode::ShuttingDown,
            ErrorCode::Deadline,
            ErrorCode::Budget,
            ErrorCode::Cancelled,
            ErrorCode::Panic,
            ErrorCode::Eval,
            ErrorCode::Internal,
        ];
        ALL.into_iter().find(|c| c.as_str() == token)
    }

    /// Whether a client may safely retry a request that failed with
    /// this code: only rejections where the server attempted nothing.
    /// (Evaluation itself is idempotent, so retrying *transport*
    /// failures is always safe; this governs structured rejections.)
    pub fn retryable(self) -> bool {
        matches!(self, ErrorCode::Overloaded | ErrorCode::ShuttingDown)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A classified request failure: the shared currency between the batch
/// renderer and the serve wire encoder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalFailure {
    /// Which failure class this is.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl EvalFailure {
    /// Builds a failure from its class and detail.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> EvalFailure {
        EvalFailure {
            code,
            message: message.into(),
        }
    }

    /// Prefixes the detail with request context (index, label) without
    /// touching the class.
    #[must_use]
    pub fn contextualize(mut self, prefix: &str) -> EvalFailure {
        self.message = format!("{prefix}: {}", self.message);
        self
    }
}

impl fmt::Display for EvalFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [code={}]", self.message, self.code)
    }
}

impl From<SimError> for EvalFailure {
    fn from(e: SimError) -> Self {
        EvalFailure::new(code_for_sim_error(&e), e.to_string())
    }
}

/// Maps a simulator error onto its wire/batch failure class — the one
/// place this classification lives.
pub fn code_for_sim_error(e: &SimError) -> ErrorCode {
    match e {
        SimError::Spec(_) => ErrorCode::BadRequest,
        SimError::DeadlineExceeded { .. } => ErrorCode::Deadline,
        SimError::BudgetExceeded { .. } => ErrorCode::Budget,
        SimError::Cancelled { .. } => ErrorCode::Cancelled,
        SimError::WorkerPanic { .. } => ErrorCode::Panic,
        _ => ErrorCode::Eval,
    }
}

/// Renders the `# error:` block both `teaal batch` output and docs
/// promise for a failed request. Exactly one line; the code rides in a
/// bracketed suffix so scripts can grep either the prefix or the class.
pub fn error_block(failure: &EvalFailure) -> String {
    format!("# error: {failure}")
}

/// Runs `f` under `catch_unwind`, converting a panic into an
/// [`ErrorCode::Panic`] failure — the one panic-isolation wrapper both
/// batch workers and serve workers use.
pub fn catching<T>(f: impl FnOnce() -> Result<T, EvalFailure>) -> Result<T, EvalFailure> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(EvalFailure::new(
            ErrorCode::Panic,
            format!("worker panicked: {}", panic_message(&*payload)),
        ))
    })
}

/// The per-request knobs a batch entry or a wire request may override
/// on top of the server/CLI defaults.
#[derive(Clone, Debug, Default)]
pub struct RequestOverrides {
    /// Per-einsum loop-order overrides applied to a clone of the spec.
    pub loop_order: Vec<(String, Vec<String>)>,
    /// Operator table override.
    pub ops: Option<OpTable>,
}

/// Compresses a loaded dataset once through the simulator's boundary
/// conversion ([`teaal_sim::compress`]), consuming the owned tensors: the
/// shared dataset of `teaal batch` and `teaal serve` is held in CSF
/// only, and every request borrows it.
///
/// # Errors
///
/// A message naming the tensor that has no compressed form.
pub fn compress_dataset(tensors: Vec<Tensor>) -> Result<Vec<TensorData>, String> {
    tensors
        .into_iter()
        .map(|t| {
            teaal_sim::compress(&t)
                .map(TensorData::Compressed)
                .map_err(|e| format!("tensor {}: {e}", t.name()))
        })
        .collect()
}

/// Evaluates one request against the shared dataset and renders the
/// report exactly as `teaal run` prints it.
///
/// Runs sequentially (`threads = 1`): concurrency comes from the
/// caller's worker fan-out, not from sharding inside one request. The
/// evaluation is wrapped in [`catching`], so a panicking request comes
/// back as a structured [`ErrorCode::Panic`] failure.
///
/// # Errors
///
/// An [`EvalFailure`] classifying the problem; see [`ErrorCode`].
pub fn evaluate_request(
    ctx: &Arc<EvalContext>,
    spec: &TeaalSpec,
    overrides: &RequestOverrides,
    default_ops: OpTable,
    extents: &[(String, u64)],
    data: &[&TensorData],
    token: Option<&CancelToken>,
) -> Result<String, EvalFailure> {
    catching(|| {
        let sim = if overrides.loop_order.is_empty() {
            ctx.simulator(spec)
        } else {
            let mut s = spec.clone();
            for (einsum, order) in &overrides.loop_order {
                s.mapping.loop_order.insert(einsum.clone(), order.clone());
            }
            ctx.simulator(&s)
        };
        let mut sim = sim?
            .with_ops(overrides.ops.unwrap_or(default_ops))
            .with_threads(1);
        if let Some(t) = token {
            sim = sim.with_cancel(t.clone());
        }
        for (rank, n) in extents {
            sim = sim.with_rank_extent(rank, *n);
        }
        let report = sim.run_data_cached(data)?;
        Ok(format!("{report}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use teaal_fibertree::Tensor;
    use teaal_sim::limits::Progress;

    const SPMSPM: &str = concat!(
        "einsum:\n",
        "  declaration:\n",
        "    A: [K, M]\n",
        "    B: [K, N]\n",
        "    Z: [M, N]\n",
        "  expressions:\n",
        "    - Z[m, n] = A[k, m] * B[k, n]\n",
    );

    fn dataset() -> Vec<TensorData> {
        let a = Tensor::from_entries(
            "A",
            &["K", "M"],
            &[4, 4],
            vec![(vec![0, 1], 2.0), (vec![3, 2], 5.0)],
        )
        .unwrap();
        let b = Tensor::from_entries(
            "B",
            &["K", "N"],
            &[4, 4],
            vec![(vec![0, 0], 3.0), (vec![3, 3], 7.0)],
        )
        .unwrap();
        vec![TensorData::Owned(a), TensorData::Owned(b)]
    }

    #[test]
    fn codes_roundtrip_through_their_tokens() {
        for code in [
            ErrorCode::Protocol,
            ErrorCode::BadRequest,
            ErrorCode::Overloaded,
            ErrorCode::ShuttingDown,
            ErrorCode::Deadline,
            ErrorCode::Budget,
            ErrorCode::Cancelled,
            ErrorCode::Panic,
            ErrorCode::Eval,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
        assert!(ErrorCode::Overloaded.retryable());
        assert!(ErrorCode::ShuttingDown.retryable());
        assert!(!ErrorCode::Panic.retryable());
        assert!(!ErrorCode::BadRequest.retryable());
    }

    #[test]
    fn sim_errors_classify_once_for_both_front_doors() {
        let progress = Progress::default();
        assert_eq!(
            code_for_sim_error(&SimError::DeadlineExceeded { progress }),
            ErrorCode::Deadline
        );
        assert_eq!(
            code_for_sim_error(&SimError::Cancelled { progress }),
            ErrorCode::Cancelled
        );
        assert_eq!(
            code_for_sim_error(&SimError::WorkerPanic {
                site: "shard".into(),
                message: "x".into()
            }),
            ErrorCode::Panic
        );
        assert_eq!(
            code_for_sim_error(&SimError::MissingTensor { tensor: "A".into() }),
            ErrorCode::Eval
        );
    }

    #[test]
    fn error_block_keeps_the_grepable_prefix_and_code() {
        let block = error_block(&EvalFailure::new(ErrorCode::Panic, "boom"));
        assert!(block.starts_with("# error: "), "{block}");
        assert!(block.contains("[code=panic]"), "{block}");
    }

    #[test]
    fn catching_converts_panics_to_structured_failures() {
        let out = catching::<()>(|| panic!("kaboom"));
        let failure = out.unwrap_err();
        assert_eq!(failure.code, ErrorCode::Panic);
        assert!(failure.message.contains("kaboom"));
        assert_eq!(catching(|| Ok(7)).unwrap(), 7);
    }

    #[test]
    fn evaluate_request_runs_and_reports_overrides() {
        let ctx = EvalContext::new();
        let spec = ctx.parse(SPMSPM).unwrap();
        let data = dataset();
        let refs: Vec<&TensorData> = data.iter().collect();
        let rendered = evaluate_request(
            &ctx,
            &spec,
            &RequestOverrides::default(),
            OpTable::arithmetic(),
            &[],
            &refs,
            None,
        )
        .unwrap();
        assert!(
            rendered.contains('Z'),
            "report names the output: {rendered}"
        );
        // A bogus loop-order override fails as a bad request, not a
        // generic error (the spec no longer lowers).
        let failure = evaluate_request(
            &ctx,
            &spec,
            &RequestOverrides {
                loop_order: vec![("Z".into(), vec!["Q".into(), "W".into()])],
                ops: None,
            },
            OpTable::arithmetic(),
            &[],
            &refs,
            None,
        )
        .unwrap_err();
        assert_eq!(failure.code, ErrorCode::BadRequest);
    }
}
