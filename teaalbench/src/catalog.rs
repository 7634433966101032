//! `catalog_cold`: the four SpMSpM catalog specs rotated through
//! `teaal::request::evaluate_request`, each op with a fresh
//! `EvalContext` — exactly what one `teaal run` pays.

use std::collections::BTreeMap;
use std::time::Instant;

use teaal::fibertree::TensorData;
use teaal::request::{evaluate_request, RequestOverrides};
use teaal::sim::{EvalContext, OpTable};
use teaal::workloads::genmat;

use crate::oracle::{check_z, gustavson, pin_of, triples};
use crate::probe::{hit_ratio, staged, Stages};
use crate::trace::Tracer;
use crate::util::{median, ms_since, set_up, timed, Recorder};

/// Operand size: `A[K, M]` and `B[K, N]`, both `N × N` with `NNZ`
/// uniform-random nonzeros.
const N: u64 = 400;
const NNZ: usize = 5000;

/// Op classes in rotation order, with their specs.
const SPECS: [(&str, &str); 4] = [
    ("gamma", teaal_fixtures::GAMMA_EM),
    ("outerspace", teaal_fixtures::OUTERSPACE_EM),
    ("extensor", teaal_fixtures::EXTENSOR_EM),
    ("sigma", teaal_fixtures::SIGMA_EM),
];

/// The seeded A/B pair, built straight into compressed storage.
fn inputs(seed: u64) -> [TensorData; 2] {
    [
        TensorData::Compressed(genmat::uniform_compressed(
            "A",
            &["K", "M"],
            N,
            N,
            NNZ,
            seed.wrapping_mul(2),
        )),
        TensorData::Compressed(genmat::uniform_compressed(
            "B",
            &["K", "N"],
            N,
            N,
            NNZ,
            seed.wrapping_mul(2) + 1,
        )),
    ]
}

/// The independent SpGEMM result for an A/B pair.
fn oracle(data: &[TensorData; 2]) -> Result<BTreeMap<(u64, u64), f64>, String> {
    Ok(gustavson(
        &triples(&data[0], "K", "M")?,
        &triples(&data[1], "K", "N")?,
        N,
        N,
        N,
    ))
}

/// One untraced op: parse plus `evaluate_request` in a fresh context.
fn op(yaml: &str, refs: &[&TensorData]) -> Result<String, String> {
    let ctx = EvalContext::new();
    let spec = ctx.parse(yaml).map_err(|e| e.to_string())?;
    evaluate_request(
        &ctx,
        &spec,
        &RequestOverrides::default(),
        OpTable::arithmetic(),
        &[],
        refs,
        None,
    )
    .map_err(|e| e.to_string())
}

pub fn run(
    rec: &mut Recorder,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    let data = set_up(rec, 200, || inputs(seed));
    let refs: Vec<&TensorData> = data.iter().collect();
    let z = oracle(&data)?;

    // Warm-up, untimed: one verified engine run per spec fixes the
    // rendering every timed op must reproduce.
    let mut expected = Vec::new();
    for (class, yaml) in SPECS {
        let ctx = EvalContext::new();
        let spec = ctx.parse(yaml).map_err(|e| e.to_string())?;
        let report = ctx
            .simulator(&spec)
            .and_then(|s| s.with_threads(1).run_data(&refs))
            .map_err(|e| format!("{class}: {e}"))?;
        rec.check(check_z(&report, &z).map(|p| format!("{class}: {p}")));
        rec.pin(class, pin_of(&report));
        let rendered = format!("{report}");
        let first = op(yaml, &refs);
        rec.check(match first {
            Ok(r) if r == rendered => None,
            Ok(_) => Some(format!("{class}: evaluate_request disagrees with run_data")),
            Err(e) => Some(format!("{class}: {e}")),
        });
        expected.push(rendered);
    }

    let window = if tracer.is_some() {
        seconds / 2.0
    } else {
        seconds
    };
    let start = Instant::now();
    let mut rotations = 0u64;
    while rotations == 0 || start.elapsed().as_secs_f64() < window {
        for ((class, yaml), want) in SPECS.iter().zip(&expected) {
            let (got, ms) = timed(|| op(yaml, &refs));
            rec.check(match got {
                Ok(r) if &r == want => None,
                Ok(_) => Some(format!("{class}: report drifted from the verified run")),
                Err(e) => Some(format!("{class}: {e}")),
            });
            rec.sample(class, ms);
        }
        rotations += 1;
    }
    rec.window_s = start.elapsed().as_secs_f64();
    rec.completed = rotations * SPECS.len() as u64;

    if let Some(tr) = tracer {
        traced(rec, tr, &refs, &z, seconds - ms_since(start) / 1e3)?;
    }
    Ok(())
}

/// The traced half: whole rotations of the staged probe, at least one.
fn traced(
    rec: &mut Recorder,
    tr: &Tracer,
    refs: &[&TensorData],
    z: &BTreeMap<(u64, u64), f64>,
    budget_s: f64,
) -> Result<(), String> {
    let start = Instant::now();
    let mut rotations: Vec<Vec<Stages>> = Vec::new();
    while rotations.is_empty() || start.elapsed().as_secs_f64() < budget_s {
        let mut rotation = Vec::new();
        for (i, (class, yaml)) in SPECS.into_iter().enumerate() {
            tr.begin_op();
            let stages = tr
                .span("catalog.op", || {
                    staged(tr, yaml, &RequestOverrides::default(), refs)
                })
                .map_err(|e| format!("{class}: {e}"))?;
            // Engine steps are simulated work: exact, and the same in
            // every traced rotation.
            let drift = rotations
                .first()
                .map(|r| r[i].engine_steps)
                .filter(|&first| first != stages.engine_steps)
                .map(|first| {
                    format!(
                        "{class}: engine steps {} drifted from {first}",
                        stages.engine_steps
                    )
                });
            rec.check(
                check_z(&stages.report, z)
                    .or(drift)
                    .map(|p| format!("{class} traced: {p}")),
            );
            rotation.push(stages);
        }
        rotations.push(rotation);
    }

    let per_rotation = |f: &dyn Fn(&Stages) -> f64| -> f64 {
        median(
            &rotations
                .iter()
                .map(|r| r.iter().map(f).sum::<f64>())
                .collect::<Vec<_>>(),
        )
    };
    rec.layer("core.parse_ms", per_rotation(&|s| s.parse_ms));
    rec.layer("sim.compile_ms", per_rotation(&|s| s.compile_ms));
    rec.layer(
        "fibertree.transform_ms",
        per_rotation(&|s| s.cold_ms - s.warm_ms),
    );
    rec.layer(
        "fibertree.transform_execs",
        per_rotation(&|s| s.transform_execs as f64),
    );
    rec.layer(
        "sim.owned_output_ms",
        per_rotation(&|s| s.warm_ms - s.compressed_ms),
    );
    rec.layer("sim.stats_ms", per_rotation(&|s| s.stats_ms));
    rec.layer("sim.estimate_ms", per_rotation(&|s| s.estimate_ms));
    rec.layer("pipeline.report_hit_ms", per_rotation(&|s| s.report_hit_ms));
    let steps = per_rotation(&|s| s.engine_steps as f64);
    rec.layer("sim.engine_steps", steps);
    rec.layer(
        "sim.output_entries",
        per_rotation(&|s| s.output_entries as f64),
    );
    rec.layer(
        "sim.ns_per_step",
        per_rotation(&|s| s.compressed_ms) * 1e6 / steps.max(1.0),
    );
    for (i, (class, _)) in SPECS.iter().enumerate() {
        rec.layer(
            &format!("sim.engine_ms.{class}"),
            median(
                &rotations
                    .iter()
                    .map(|r| r[i].compressed_ms)
                    .collect::<Vec<_>>(),
            ),
        );
        rec.pin(
            format!("{class}.engine_steps"),
            rotations[0][i].engine_steps,
        );
    }
    let deltas: Vec<_> = rotations.iter().flatten().map(|s| s.caches).collect();
    for (i, name) in crate::CACHE_RATIO_NAMES.iter().enumerate() {
        rec.layer(name, hit_ratio(&deltas, i));
    }
    // Tracing overhead: the traced cold path (parse, compile, cold
    // run_data) against the untraced op, both summed over the specs.
    let untraced: f64 = rec.class_medians().iter().map(|(_, m)| m).sum();
    let traced_cold = per_rotation(&|s| s.cold_path_ms());
    rec.layer("trace.overhead_pct", 100.0 * (traced_cold / untraced - 1.0));
    Ok(())
}
