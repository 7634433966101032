//! `explore_fast`: the two-phase mapper search over Gamma's `Z` through
//! `explore_fast_with_context`, each op with a fresh `EvalContext`.

use std::time::Instant;

use teaal::fibertree::{Tensor, TensorData};
use teaal::sim::{
    estimate_data, explore_fast_with_context, EvalContext, ExploreConfig, ExploreOutcome, OpTable,
};
use teaal::workloads::genmat;

use crate::oracle::{check_z, gustavson, triples};
use crate::trace::Tracer;
use crate::util::{median, ms_since, set_up, timed, Recorder};

const N: u64 = 250;
const NNZ: usize = 2500;
const EINSUM: &str = "Z";

fn inputs(seed: u64) -> [Tensor; 2] {
    [
        genmat::uniform("A", &["K", "M"], N, N, NNZ, seed.wrapping_mul(2)),
        genmat::uniform("B", &["K", "N"], N, N, NNZ, seed.wrapping_mul(2) + 1),
    ]
}

fn config() -> ExploreConfig {
    ExploreConfig {
        threads: 1,
        ..ExploreConfig::default()
    }
}

fn search(inputs: &[Tensor; 2]) -> Result<ExploreOutcome, String> {
    let ctx = EvalContext::new();
    let spec = ctx
        .parse(teaal_fixtures::GAMMA_EM)
        .map_err(|e| e.to_string())?;
    explore_fast_with_context(
        &spec,
        EINSUM,
        inputs,
        OpTable::arithmetic(),
        &config(),
        Some(&ctx),
    )
    .map_err(|e| e.to_string())
}

/// What every search must reproduce: the winner, its measured
/// statistics (exact bits), and how much work the search did.
fn signature(o: &ExploreOutcome) -> String {
    let best = &o.candidates[0];
    format!(
        "winner={} seconds_bits={:#018x} energy_bits={:#018x} dram_bytes={} engine_evals={} estimator_evals={}",
        best.loop_order.join(","),
        best.seconds.to_bits(),
        best.energy_joules.to_bits(),
        best.dram_bytes,
        o.engine_evals,
        o.estimator_evals
    )
}

/// Re-runs the winner's loop order directly on the engine and checks
/// that it models the same statistics and computes the right `Z`.
fn verify_winner(o: &ExploreOutcome, inputs: &[Tensor; 2]) -> Option<String> {
    let best = &o.candidates[0];
    let datas: Vec<TensorData> = inputs.iter().cloned().map(TensorData::Owned).collect();
    let ctx = EvalContext::new();
    let mut spec = match ctx.parse(teaal_fixtures::GAMMA_EM) {
        Ok(s) => (*s).clone(),
        Err(e) => return Some(e.to_string()),
    };
    spec.mapping
        .loop_order
        .insert(EINSUM.to_string(), best.loop_order.clone());
    let report = match ctx
        .simulator(&spec)
        .and_then(|s| s.with_threads(1).run(inputs))
    {
        Ok(r) => r,
        Err(e) => return Some(format!("direct run of the winner: {e}")),
    };
    if report.seconds.to_bits() != best.seconds.to_bits()
        || report.energy_joules.to_bits() != best.energy_joules.to_bits()
        || report.dram_bytes() != best.dram_bytes
    {
        return Some("the winner's direct engine run models other statistics".into());
    }
    let z = match (triples(&datas[0], "K", "M"), triples(&datas[1], "K", "N")) {
        (Ok(a), Ok(b)) => gustavson(&a, &b, N, N, N),
        (Err(e), _) | (_, Err(e)) => return Some(e),
    };
    check_z(&report, &z)
}

pub fn run(
    rec: &mut Recorder,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    let data = set_up(rec, 200, || inputs(seed));

    // Warm-up, untimed: verify the winner against a direct engine run.
    let first = search(&data)?;
    rec.check(verify_winner(&first, &data));
    let want = signature(&first);
    rec.pin("gamma.Z", &want);
    let check = |out: &Result<ExploreOutcome, String>| match out {
        Err(e) => Some(e.clone()),
        Ok(o) if signature(o) != want => Some(format!("search drifted: {}", signature(o))),
        Ok(_) => None,
    };

    let window = if tracer.is_some() {
        seconds / 2.0
    } else {
        seconds
    };
    let start = Instant::now();
    let mut ops = 0u64;
    while ops == 0 || start.elapsed().as_secs_f64() < window {
        let (out, ms) = timed(|| search(&data));
        rec.check(check(&out));
        rec.sample("explore", ms);
        ops += 1;
    }
    rec.window_s = start.elapsed().as_secs_f64();
    rec.completed = ops;

    let Some(tr) = tracer else {
        return Ok(());
    };
    let budget = seconds - ms_since(start) / 1e3;
    let start = Instant::now();
    let refs: Vec<TensorData> = data.iter().cloned().map(TensorData::Owned).collect();
    let refs: Vec<&TensorData> = refs.iter().collect();
    let (mut search_ms, mut stats_ms, mut estimate_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    while search_ms.is_empty() || start.elapsed().as_secs_f64() < budget {
        tr.begin_op();
        let (out, ms) = tr.timed("explore.search", || search(&data));
        rec.check(check(&out));
        search_ms.push(ms);
        last = out.ok();
        // The estimator alone on the spec's own mapping: statistics
        // first (memoized per input), then the estimate proper.
        let ctx = EvalContext::new();
        let sim = ctx
            .parse(teaal_fixtures::GAMMA_EM)
            .and_then(|s| ctx.simulator(&s))
            .map_err(|e| e.to_string())?;
        let ((), ms) = tr.timed("fibertree.stats", || {
            for t in &refs {
                ctx.stats().get_or_compute(t);
            }
        });
        stats_ms.push(ms);
        let (est, ms) = tr.timed("sim.estimate", || estimate_data(&sim, &refs, ctx.stats()));
        est.map_err(|e| e.to_string())?;
        estimate_ms.push(ms);
    }
    rec.layer("explore.search_ms", median(&search_ms));
    rec.layer("sim.stats_ms", median(&stats_ms));
    rec.layer("sim.estimate_ms", median(&estimate_ms));
    if let Some(o) = last {
        rec.layer("explore.estimator_evals", o.estimator_evals as f64);
        rec.layer("explore.engine_evals", o.engine_evals as f64);
        rec.layer(
            "explore.verify_ratio",
            o.engine_evals as f64 / o.estimator_evals.max(1) as f64,
        );
    }
    rec.layer(
        "trace.overhead_pct",
        100.0 * (median(&search_ms) / median(&rec.classes["explore"]) - 1.0),
    );
    Ok(())
}
