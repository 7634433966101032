//! The TeAAL benchmark runner.
//!
//! ```text
//! teaalbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one closed-loop workload against the public entry points for
//! `S` measured seconds, checks every output against an independent
//! oracle, and prints host diagnostics, pinned simulated statistics and,
//! as the last line, one JSON object: end-to-end metrics with
//! `--trace 0`, per-layer metrics from a traced run with `--trace 1`.
//! Every time is host time; simulated statistics are pinned, not scored.
//! See README.md beside this file.

mod catalog;
mod explore;
mod graph;
mod host;
mod oracle;
mod probe;
mod serve;
mod trace;
mod util;

use std::process::ExitCode;

use trace::Tracer;
use util::{median, Recorder};

/// Per-layer names of the four pipeline-cache hit ratios, in
/// `telemetry::PipelineSnapshot::stages` order.
pub const CACHE_RATIO_NAMES: [&str; 4] = [
    "pipeline.spec.hit_ratio",
    "pipeline.plan.hit_ratio",
    "pipeline.transform.hit_ratio",
    "pipeline.report.hit_ratio",
];

type Workload = fn(&mut Recorder, u64, f64, Option<&Tracer>) -> Result<(), String>;

const WORKLOADS: [(&str, Workload); 4] = [
    ("catalog_cold", catalog::run),
    ("graph_vertex", graph::run),
    ("serve_mapping_mix", serve::run),
    ("explore_fast", explore::run),
];

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("op_gm_ms", "ms"),
    ("slow_class_ms", "ms"),
    ("fast_class_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 48] = [
    ("workloads.gen_ms", "ms"),
    ("core.parse_ms", "ms"),
    ("sim.compile_ms", "ms"),
    ("fibertree.transform_ms", "ms"),
    ("fibertree.transform_execs", "count"),
    ("sim.engine_ms.gamma", "ms"),
    ("sim.engine_ms.outerspace", "ms"),
    ("sim.engine_ms.extensor", "ms"),
    ("sim.engine_ms.sigma", "ms"),
    ("sim.engine_steps", "count"),
    ("sim.output_entries", "count"),
    ("sim.ns_per_step", "ns"),
    ("sim.owned_output_ms", "ms"),
    ("sim.stats_ms", "ms"),
    ("sim.estimate_ms", "ms"),
    ("explore.search_ms", "ms"),
    ("explore.estimator_evals", "count"),
    ("explore.engine_evals", "count"),
    ("explore.verify_ratio", "ratio"),
    ("pipeline.report_hit_ms", "ms"),
    ("pipeline.spec.hit_ratio", "ratio"),
    ("pipeline.plan.hit_ratio", "ratio"),
    ("pipeline.transform.hit_ratio", "ratio"),
    ("pipeline.report.hit_ratio", "ratio"),
    ("graph.supersteps", "count"),
    ("graph.superstep_ms", "ms"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("serve.served", "count"),
    ("serve.shed", "count"),
    ("serve.queued_mean", "count"),
    ("serve.op_p99_ms", "ms"),
    ("class.gamma_ms", "ms"),
    ("class.outerspace_ms", "ms"),
    ("class.extensor_ms", "ms"),
    ("class.sigma_ms", "ms"),
    ("class.bfs_ms", "ms"),
    ("class.sssp_ms", "ms"),
    ("class.hit_ms", "ms"),
    ("class.miss_ms", "ms"),
    ("class.explore_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.span_ns", "ns"),
    ("trace.spans", "count"),
    ("host.nproc", "count"),
    ("host.steal_pct", "%"),
    ("host.calib_start_ms", "ms"),
    ("host.calib_end_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        let bad = || format!("bad value {value:?} for {}", argv[i]);
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
        i += 2;
    }
    Ok(args)
}

/// The end-to-end metrics from a run's op samples.
fn end_to_end(rec: &Recorder) -> Vec<f64> {
    let medians: Vec<f64> = rec.class_medians().iter().map(|(_, m)| *m).collect();
    let gm = (medians.iter().map(|m| m.ln()).sum::<f64>() / medians.len().max(1) as f64).exp();
    vec![
        median(&rec.setup_s),
        rec.completed as f64 / rec.window_s,
        rec.peak_rss_mb,
        gm,
        medians.iter().copied().fold(f64::MIN, f64::max),
        medians.iter().copied().fold(f64::MAX, f64::min),
    ]
}

/// What recording one empty span costs, in ns (on a scratch tracer).
fn span_cost_ns() -> f64 {
    const SPANS: u32 = 20_000;
    let scratch = Tracer::default();
    let t = std::time::Instant::now();
    for _ in 0..SPANS {
        scratch.span("empty", || ());
    }
    t.elapsed().as_nanos() as f64 / f64::from(SPANS)
}

fn json_metrics(pairs: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(name, unit, v)| {
            // JSON has no NaN or infinity.
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("teaalbench: {e}");
            eprintln!("usage: teaalbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, workload)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "teaalbench: unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };

    let ticks = host::cpu_ticks();
    let calib_start = host::calibrate_ms();
    let tracer = args.trace.then(Tracer::default);
    let mut rec = Recorder::default();
    if let Err(e) = workload(&mut rec, args.seed, args.seconds, tracer.as_ref()) {
        eprintln!("teaalbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if rec.peak_rss_mb == 0.0 {
        rec.peak_rss_mb = host::peak_rss_mb("self");
    }
    let calib_end = host::calibrate_ms();
    let steal = host::steal_pct(ticks, host::cpu_ticks());
    let nproc = host::nproc();

    println!(
        "host nproc={nproc} steal_pct={steal:.3} calib_start_ms={calib_start:.3} calib_end_ms={calib_end:.3}"
    );
    for pin in &rec.pins {
        println!("pin {} seed={} {pin}", args.workload, args.seed);
    }
    let metrics: Vec<(&str, &str, f64)> = if let Some(tr) = &tracer {
        rec.layer("workloads.gen_ms", median(&rec.setup_s) * 1e3);
        for (class, m) in rec.class_medians() {
            rec.layer(&format!("class.{class}_ms"), m);
        }
        rec.layer("host.nproc", nproc as f64);
        rec.layer("host.steal_pct", steal);
        rec.layer("host.calib_start_ms", calib_start);
        rec.layer("host.calib_end_ms", calib_end);
        rec.layer("trace.spans", tr.len() as f64);
        rec.layer("trace.span_ns", span_cost_ns());
        let path = std::path::PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tr.write(&path) {
            eprintln!("teaalbench: writing {}: {e}", path.display());
        }
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, rec.layers.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end(&rec))
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        rec.failed == 0,
        rec.attempted,
        rec.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
