//! Fig. 10d — SIGMA speedup over a TPU-like dense baseline on the
//! paper's uniform-random M/N/K sweep (A 80% sparse, B 10% sparse).
//!
//! Usage: `fig10d_sigma [--scale N]`

use teaal_accel::SpmspmAccel;
use teaal_bench::{arg_scale, arithmetic_mean, pct_error, print_table, reported, scaled_dim};
use teaal_workloads::baselines::TpuBaseline;
use teaal_workloads::genmat;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = arg_scale(&args, "--scale", 4);
    let sim = SpmspmAccel::Sigma.simulator().expect("lowers");
    let tpu = TpuBaseline::default();

    let mut rows = Vec::new();
    let mut errors = Vec::new();
    for (i, (m, n, k)) in reported::FIG10D_WORKLOADS.iter().enumerate() {
        let (m, n, k) = (
            scaled_dim(*m, scale),
            scaled_dim(*n, scale),
            scaled_dim(*k, scale),
        );
        let a = genmat::uniform_density(
            "A",
            &["K", "M"],
            k,
            m,
            reported::FIG10D_DENSITY_A,
            300 + i as u64,
        );
        let b = genmat::uniform_density(
            "B",
            &["K", "N"],
            k,
            n,
            reported::FIG10D_DENSITY_B,
            400 + i as u64,
        );
        let report = sim.run(&[a, b]).expect("runs");
        let speedup = tpu.dense_gemm_seconds(m, n, k) / report.seconds;
        let (rm, rn, rk) = reported::FIG10D_WORKLOADS[i];
        let rep = reported::FIG10D_SIGMA_SPEEDUP[i];
        errors.push(pct_error(speedup, rep));
        rows.push((format!("{rm}/{rn}/{rk}"), vec![rep, speedup]));
    }
    print_table(
        &format!("Fig. 10d: SIGMA speedup over TPU (scale 1/{scale})"),
        &["reported", "TeAAL"],
        &rows,
    );
    let geomean =
        |xs: &[f64]| -> f64 { (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp() };
    let measured: Vec<f64> = rows.iter().map(|(_, v)| v[1]).collect();
    let reported_v: Vec<f64> = rows.iter().map(|(_, v)| v[0]).collect();
    println!(
        "geomean speedup: reported {:.2}x, TeAAL {:.2}x; SIGMA wins on {}/{} workloads \
         (mean |error| {:.0}%; the paper reports 2.5% on the full-size sweep — scaled \
         inputs against a fixed-latency TPU make this the weakest reproduction)",
        geomean(&reported_v),
        geomean(&measured),
        measured.iter().filter(|s| **s > 1.0).count(),
        measured.len(),
        arithmetic_mean(&errors)
    );
}
