//! Service-grade hardening: fault injection, resource budgets, and
//! bounded caches.
//!
//! Every error/retry/degradation path added by the robustness work is
//! exercised here through the deterministic failpoint harness
//! (`teaal_core::failpoint`) and the [`EvalLimits`] budget machinery:
//!
//! - an injected shard-worker panic is isolated with `catch_unwind`,
//!   converted to a structured error, and the plan retries sequentially —
//!   producing a report **bit-identical** to an uninjected sequential run
//!   (the degradation is visible in telemetry, not in results);
//! - deadline / step-budget / output-budget trips return structured
//!   errors carrying the telemetry gathered so far — never a hang or
//!   an abort;
//! - a byte-bounded [`EvalContext`] evicts under pressure and a warm run
//!   after evictions is bit-identical to a cold one;
//! - cancellation at an arbitrary point never corrupts the shared
//!   caches (property-tested over random budgets);
//! - previously-panicking user inputs (NaN modelled time from a
//!   zero-bandwidth architecture; a panicking worker aborting the
//!   process) now surface as structured [`SimError`]s.
//!
//! Failpoint configuration is process-global, so every test that touches
//! it serializes behind one mutex and restores the empty config before
//! releasing it.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use proptest::prelude::*;
use teaal_core::{failpoint, TeaalSpec};
use teaal_fibertree::{telemetry, Tensor, TensorData};
use teaal_sim::{BudgetKind, CancelToken, EvalContext, EvalLimits, SimError, SimReport, Simulator};
use teaal_workloads::genmat;

/// Serializes every test in this file. Failpoint configs are
/// process-global and every engine run passes their sites, so a test
/// running concurrently with an armed `@1` failpoint can consume the one
/// injected fault meant for another. Poisoning is ignored: a failed test
/// must not cascade.
static FAILPOINT_GUARD: Mutex<()> = Mutex::new(());

fn lock_failpoints() -> MutexGuard<'static, ()> {
    FAILPOINT_GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs `spec` for the duration of the returned guard; dropping it
/// leaves the registry cleared for the next test.
struct FailpointSession {
    _guard: MutexGuard<'static, ()>,
}

impl FailpointSession {
    fn install(spec: &str) -> Self {
        let guard = lock_failpoints();
        failpoint::set_config(spec).expect("test failpoint spec is valid");
        FailpointSession { _guard: guard }
    }
}

impl Drop for FailpointSession {
    fn drop(&mut self) {
        let _ = failpoint::set_config("");
    }
}

/// Same input group as the cache suite: sized so every catalog spec's
/// partitioning lowers.
fn inputs(seed: u64) -> Vec<Tensor> {
    let a = genmat::uniform("A", &["K", "M"], 48, 48, 320, seed);
    let b = genmat::uniform("B", &["K", "N"], 48, 40, 280, seed + 1);
    vec![a, b]
}

/// A bit-exact fingerprint of everything a report carries.
fn fingerprint(report: &SimReport) -> (String, u64, u64, BTreeMap<String, u64>) {
    (
        format!("{report}"),
        report.seconds.to_bits(),
        report.energy_joules.to_bits(),
        report
            .outputs
            .iter()
            .map(|(name, t)| match t {
                TensorData::Compressed(c) => (name.clone(), c.content_hash()),
                TensorData::Owned(_) => panic!("output {name} is not CSF"),
            })
            .collect(),
    )
}

/// Gustavson SpMSpM with output ranks outermost — the shape the shard
/// planner provably parallelizes (disjoint streaming merges), so the
/// sharded path genuinely runs and the injected worker panic genuinely
/// fires inside a worker thread.
const SHARDABLE: &str = concat!(
    "einsum:\n",
    "  declaration:\n",
    "    A: [K, M]\n",
    "    B: [K, N]\n",
    "    Z: [M, N]\n",
    "  expressions:\n",
    "    - Z[m, n] = A[k, m] * B[k, n]\n",
    "mapping:\n",
    "  loop-order:\n",
    "    Z: [M, N, K]\n",
);

#[test]
fn injected_shard_panic_degrades_to_sequential_bit_identically() {
    let ins = inputs(31);
    let spec = TeaalSpec::parse(SHARDABLE).unwrap();
    let baseline = Simulator::new(spec.clone())
        .unwrap()
        .with_threads(1)
        .run(&ins)
        .unwrap();

    let _fp = FailpointSession::install("engine.shard:panic@1");
    let degraded_before = telemetry::degraded_sequential_count();
    let report = Simulator::new(spec)
        .unwrap()
        .with_threads(4)
        .run(&ins)
        .expect("a panicking shard worker must degrade, not fail the run");
    assert_eq!(
        fingerprint(&report),
        fingerprint(&baseline),
        "sequential retry after a shard panic must be bit-identical to \
         an uninjected sequential run"
    );
    assert!(
        telemetry::degraded_sequential_count() > degraded_before,
        "the degradation must be recorded in telemetry"
    );
}

#[test]
fn injected_shard_panic_only_hits_once_so_a_rerun_shards_cleanly() {
    let ins = inputs(32);
    let spec = TeaalSpec::parse(SHARDABLE).unwrap();
    let baseline = Simulator::new(spec.clone())
        .unwrap()
        .with_threads(1)
        .run(&ins)
        .unwrap();

    let _fp = FailpointSession::install("engine.shard:panic@1");
    let first = Simulator::new(spec.clone())
        .unwrap()
        .with_threads(4)
        .run(&ins)
        .unwrap();
    // `@1` fired during the first attempt; the second run's shard workers
    // pass the site untouched and the parallel path itself must agree.
    let second = Simulator::new(spec)
        .unwrap()
        .with_threads(4)
        .run(&ins)
        .unwrap();
    assert_eq!(fingerprint(&first), fingerprint(&baseline));
    assert_eq!(fingerprint(&second), fingerprint(&baseline));
}

#[test]
fn injected_transform_error_is_structured_not_a_panic() {
    let ins = inputs(33);
    // Gamma's mapping transforms its inputs, so the transform chain (and
    // its failpoint site) runs on this path.
    let (_, yaml) = teaal_fixtures::spmspm_specs()[2];
    let spec = TeaalSpec::parse(yaml).unwrap();
    let _fp = FailpointSession::install("transform.swizzle:err@1");
    let err = Simulator::new(spec)
        .unwrap()
        .run(&ins)
        .expect_err("the injected transform error must surface");
    match err {
        SimError::Fibertree(msg) => assert!(
            msg.contains("injected failpoint error"),
            "unexpected message: {msg}"
        ),
        other => panic!("expected a structured fibertree error, got {other:?}"),
    }
}

#[test]
fn expired_deadline_returns_structured_error_with_progress() {
    let _serial = lock_failpoints();
    let ins = inputs(34);
    let spec = TeaalSpec::parse(SHARDABLE).unwrap();
    let sim = Simulator::new(spec)
        .unwrap()
        .with_limits(EvalLimits::default().with_deadline(Duration::ZERO));
    std::thread::sleep(Duration::from_millis(2));
    match sim.run(&ins) {
        Err(SimError::DeadlineExceeded { progress }) => {
            // The run was cut off at the very start, but the telemetry
            // snapshot is still attached and coherent.
            assert_eq!(progress.output_entries, 0);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn step_budget_trips_mid_run_with_partial_telemetry() {
    let _serial = lock_failpoints();
    let ins = inputs(35);
    let spec = TeaalSpec::parse(SHARDABLE).unwrap();
    let sim = Simulator::new(spec)
        .unwrap()
        .with_limits(EvalLimits::default().with_max_engine_steps(200));
    match sim.run(&ins) {
        Err(SimError::BudgetExceeded {
            resource: BudgetKind::EngineSteps,
            limit,
            used,
            progress,
        }) => {
            assert_eq!(limit, 200);
            assert!(used > 200, "trip must report actual consumption: {used}");
            assert!(
                progress.engine_steps >= 200,
                "partial telemetry must carry the work done: {progress}"
            );
        }
        other => panic!("expected an engine-step BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn output_budget_trips() {
    let _serial = lock_failpoints();
    let ins = inputs(36);
    let spec = TeaalSpec::parse(SHARDABLE).unwrap();
    let sim = Simulator::new(spec)
        .unwrap()
        .with_limits(EvalLimits::default().with_max_output_entries(5));
    match sim.run(&ins) {
        Err(SimError::BudgetExceeded {
            resource: BudgetKind::OutputEntries,
            used,
            ..
        }) => assert!(used > 5),
        other => panic!("expected an output-entry BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn external_cancellation_returns_cancelled() {
    let _serial = lock_failpoints();
    let ins = inputs(37);
    let spec = TeaalSpec::parse(SHARDABLE).unwrap();
    let token = CancelToken::unlimited();
    token.cancel();
    let err = Simulator::new(spec)
        .unwrap()
        .with_cancel(token)
        .run(&ins)
        .expect_err("a pre-cancelled token must stop the run");
    assert!(matches!(err, SimError::Cancelled { .. }), "got {err:?}");
}

#[test]
fn bounded_context_evicts_and_warm_runs_stay_bit_identical() {
    let _serial = lock_failpoints();
    let ins = inputs(38);
    // Small enough that the four catalog specs' transformed inputs cannot
    // all stay resident, large enough that single artifacts fit.
    let bounded = EvalContext::with_capacity(64 * 1024);
    let unbounded = EvalContext::new();
    for (label, yaml) in teaal_fixtures::spmspm_specs() {
        let spec = TeaalSpec::parse(yaml).unwrap();
        let want = fingerprint(&unbounded.simulator(&spec).unwrap().run(&ins).unwrap());
        let cold = fingerprint(&bounded.simulator(&spec).unwrap().run(&ins).unwrap());
        assert_eq!(cold, want, "{label}: bounded cold run diverges");
    }
    // Second sweep: artifacts evicted by the first sweep are rebuilt
    // bit-identically on their next miss.
    for (label, yaml) in teaal_fixtures::spmspm_specs() {
        let spec = TeaalSpec::parse(yaml).unwrap();
        let want = fingerprint(&unbounded.simulator(&spec).unwrap().run(&ins).unwrap());
        let warm = fingerprint(&bounded.simulator(&spec).unwrap().run(&ins).unwrap());
        assert_eq!(warm, want, "{label}: run after evictions diverges");
    }
    assert!(
        bounded.evictions() > 0,
        "a 64 KiB budget must evict under the four-spec working set"
    );
}

#[test]
fn nan_modelled_time_is_a_structured_error_not_a_panic() {
    let _serial = lock_failpoints();
    // A zero-bandwidth DRAM with no bound storage traffic models
    // 0 bytes / 0 B/s = NaN seconds. The seed panicked inside the
    // bottleneck comparison (`expect("times are finite")`); now the run
    // returns `NonFiniteTime` naming the component.
    let spec = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    A: [K, M]\n",
        "    B: [K, N]\n",
        "    Z: [M, N]\n",
        "  expressions:\n",
        "    - Z[m, n] = A[k, m] * B[k, n]\n",
        "architecture:\n",
        "  clock: 1_000_000_000\n",
        "  configs:\n",
        "    Default:\n",
        "      name: System\n",
        "      local:\n",
        "        - name: HBM\n",
        "          class: DRAM\n",
        "          bandwidth: 0\n",
    ))
    .unwrap();
    let ins = inputs(39);
    match Simulator::new(spec).unwrap().run(&ins) {
        Err(SimError::NonFiniteTime { component }) => {
            assert!(!component.is_empty());
        }
        Ok(report) => panic!(
            "a zero-bandwidth architecture modelled {} seconds instead of erroring",
            report.seconds
        ),
        Err(other) => panic!("expected NonFiniteTime, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cancelling an evaluation at an arbitrary budget point never
    /// corrupts the shared caches: after a tripped (or surviving) run on
    /// a byte-bounded context, a warm unlimited run through that same
    /// context is bit-identical to a cold run on a fresh one.
    #[test]
    fn cancellation_never_corrupts_shared_caches(
        steps in 1u64..5_000,
        entries in 1u64..2_000,
        spec_idx in 0usize..4,
    ) {
        let _serial = lock_failpoints();
        let ins = inputs(40);
        let (label, yaml) = teaal_fixtures::spmspm_specs()[spec_idx];
        let spec = TeaalSpec::parse(yaml).unwrap();

        let cold_ctx = EvalContext::new();
        let want = fingerprint(&cold_ctx.simulator(&spec).unwrap().run(&ins).unwrap());

        let ctx = EvalContext::with_capacity(48 * 1024);
        let limits = EvalLimits::default()
            .with_max_engine_steps(steps)
            .with_max_output_entries(entries);
        // The budgeted run may trip anywhere (transform boundary, stream,
        // leaf) or even complete; either way the caches must stay sound.
        let budgeted = ctx
            .simulator(&spec)
            .unwrap()
            .with_limits(limits)
            .run(&ins);
        if let Err(e) = &budgeted {
            prop_assert!(
                matches!(e, SimError::BudgetExceeded { .. }),
                "{label}: unexpected error {e:?}"
            );
        }
        let warm = fingerprint(&ctx.simulator(&spec).unwrap().run(&ins).unwrap());
        prop_assert_eq!(warm, want, "{}: warm run after a cancelled/evicted run diverges", label);
    }
}
