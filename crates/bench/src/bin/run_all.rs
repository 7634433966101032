//! Runs every table and figure regenerator in sequence — the source of
//! the numbers in the paper-fidelity table of ROADMAP.md.
//!
//! Usage: `cargo run --release -p teaal-bench --bin run_all`

use std::process::Command;

fn main() {
    let bins = [
        "table1_catalog",
        "table2_cascades",
        "table3_components",
        "table4_datasets",
        "table5_configs",
        "table6_features",
        "fig09_traffic",
        "fig10a_extensor",
        "fig10b_gamma",
        "fig10c_outerspace",
        "fig10d_sigma",
        "fig11_energy",
        "fig13_graph",
    ];
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    for bin in bins {
        let path = dir.join(bin);
        println!("\n######## {bin} ########");
        let status = Command::new(&path).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => eprintln!("{bin} exited with {s}"),
            Err(e) => eprintln!("failed to run {bin}: {e}"),
        }
    }
}
