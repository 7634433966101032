//! The staged, traced evaluation of one spec: the per-layer breakdown
//! the catalog and serve traced runs share.
//!
//! With a fresh [`EvalContext`] it calls, in order: `parse`,
//! `simulator` (compile), cold `run_data`, warm `run_data`,
//! `run_data_compressed`, the estimator's input statistics,
//! `estimate_data`, and `run_data_cached` twice (report-cache miss, then
//! hit). One unlimited [`CancelToken`] rides along, so its progress
//! gives engine steps and output entries per stage.

use teaal::fibertree::{telemetry, TensorData};
use teaal::request::RequestOverrides;
use teaal::sim::{estimate_data, CancelToken, EvalContext, OpTable, SimReport};

use crate::oracle::pin_of;
use crate::trace::Tracer;

/// Hits and misses of the four pipeline caches during one probe.
pub type CacheDeltas = [(u64, u64); 4];

/// Stage timings (ms) and counts from one staged probe.
pub struct Stages {
    pub parse_ms: f64,
    pub compile_ms: f64,
    pub cold_ms: f64,
    pub warm_ms: f64,
    pub compressed_ms: f64,
    pub stats_ms: f64,
    pub estimate_ms: f64,
    pub report_hit_ms: f64,
    pub transform_execs: u64,
    pub engine_steps: u64,
    pub output_entries: u64,
    pub caches: CacheDeltas,
    /// The cold run's report (outputs owned), for oracle checks.
    pub report: SimReport,
}

impl Stages {
    /// Parse, compile and the cold run: what an untraced cold op pays.
    pub fn cold_path_ms(&self) -> f64 {
        self.parse_ms + self.compile_ms + self.cold_ms
    }
}

fn cache_counts() -> CacheDeltas {
    telemetry::pipeline_snapshot()
        .stages()
        .map(|(_, s)| (s.hits, s.misses))
}

/// Runs the staged probe. Every engine path must model the same
/// simulated statistics; a drift is an error.
pub fn staged(
    tr: &Tracer,
    yaml: &str,
    overrides: &RequestOverrides,
    data: &[&TensorData],
) -> Result<Stages, String> {
    let caches_before = cache_counts();
    let ctx = EvalContext::new();
    let token = CancelToken::unlimited();
    let err = |stage: &'static str| move |e: teaal::sim::SimError| format!("{stage}: {e}");

    let (spec, parse_ms) = tr.timed("core.parse", || ctx.parse(yaml));
    let mut spec = (*spec.map_err(err("parse"))?).clone();
    for (einsum, order) in &overrides.loop_order {
        spec.mapping
            .loop_order
            .insert(einsum.clone(), order.clone());
    }
    let (sim, compile_ms) = tr.timed("sim.compile", || ctx.simulator(&spec));
    let sim = sim
        .map_err(err("compile"))?
        .with_ops(OpTable::arithmetic())
        .with_threads(1)
        .with_cancel(token.clone());

    let execs = telemetry::transform_exec_count();
    let (cold, cold_ms) = tr.timed("sim.run_data.cold", || sim.run_data(data));
    let cold = cold.map_err(err("cold run_data"))?;
    let transform_execs = telemetry::transform_exec_count() - execs;
    let (warm, warm_ms) = tr.timed("sim.run_data.warm", || sim.run_data(data));
    let warm = warm.map_err(err("warm run_data"))?;

    let before = token.progress();
    let (compressed, compressed_ms) =
        tr.timed("sim.run_data_compressed", || sim.run_data_compressed(data));
    let compressed = compressed.map_err(err("run_data_compressed"))?;
    let after = token.progress();

    let ((), stats_ms) = tr.timed("fibertree.stats", || {
        for t in data {
            ctx.stats().get_or_compute(t);
        }
    });
    let (estimate, estimate_ms) =
        tr.timed("sim.estimate", || estimate_data(&sim, data, ctx.stats()));
    estimate.map_err(err("estimate_data"))?;

    let (miss, _) = tr.timed("sim.run_data_cached.miss", || sim.run_data_cached(data));
    let miss = miss.map_err(err("run_data_cached"))?;
    let (hit, report_hit_ms) = tr.timed("sim.run_data_cached.hit", || sim.run_data_cached(data));
    let hit = hit.map_err(err("run_data_cached"))?;

    let pin = pin_of(&cold);
    for (path, r) in [
        ("warm run_data", &warm),
        ("run_data_compressed", &compressed),
        ("run_data_cached", &*miss),
        ("cached hit", &*hit),
    ] {
        if pin_of(r) != pin {
            return Err(format!(
                "{path} models {} but cold run_data {pin}",
                pin_of(r)
            ));
        }
    }

    let caches_after = cache_counts();
    let mut caches = [(0, 0); 4];
    for (i, c) in caches.iter_mut().enumerate() {
        *c = (
            caches_after[i].0 - caches_before[i].0,
            caches_after[i].1 - caches_before[i].1,
        );
    }
    Ok(Stages {
        parse_ms,
        compile_ms,
        cold_ms,
        warm_ms,
        compressed_ms,
        stats_ms,
        estimate_ms,
        report_hit_ms,
        transform_execs,
        engine_steps: after.engine_steps - before.engine_steps,
        output_entries: after.output_entries - before.output_entries,
        caches,
        report: cold,
    })
}

/// Hit ratio of cache stage `i` over summed deltas (0 when unused).
pub fn hit_ratio(deltas: &[CacheDeltas], i: usize) -> f64 {
    let (h, m) = deltas
        .iter()
        .fold((0, 0), |(h, m), d| (h + d[i].0, m + d[i].1));
    if h + m == 0 {
        0.0
    } else {
        h as f64 / (h + m) as f64
    }
}
