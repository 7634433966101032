//! Design-space exploration (paper §10): enumerate every loop order for a
//! sparse matrix multiply, model each candidate on real data, and rank
//! the mappings — TeAAL as the middle level of a hierarchical DSE flow.
//!
//! Run with: `cargo run --release --example mapping_search`

use teaal::prelude::*;
use teaal::sim::{explore_loop_orders_with_context, ExploreConfig};
use teaal::workloads::genmat;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    A: [K, M]\n",
        "    B: [K, N]\n",
        "    Z: [M, N]\n",
        "  expressions:\n",
        "    - Z[m, n] = A[k, m] * B[k, n]\n",
        "architecture:\n",
        "  configs:\n",
        "    Default:\n",
        "      name: Sys\n",
        "      local:\n",
        "        - name: Mem\n",
        "          class: DRAM\n",
        "          bandwidth: 68_000_000_000\n",
        "      subtree:\n",
        "        - name: PE\n",
        "          count: 16\n",
        "          local:\n",
        "            - name: ALU\n",
        "              class: compute\n",
        "              op: mul\n",
    ))?;
    let a = genmat::power_law("A", &["K", "M"], 256, 256, 3000, 1.8, 96, 1);
    let b = genmat::power_law("B", &["K", "N"], 256, 256, 3000, 1.8, 96, 2);

    let candidates = explore_loop_orders_with_context(
        &spec,
        "Z",
        &[a, b],
        OpTable::arithmetic(),
        &ExploreConfig::default(),
        None,
    )?;

    println!(
        "{} loop orders evaluated on real sparse data:\n",
        candidates.len()
    );
    println!(
        "{:<16}{:>14}{:>16}{:>14}",
        "loop order", "time (s)", "energy (J)", "DRAM (B)"
    );
    for c in &candidates {
        println!(
            "{:<16}{:>14.3e}{:>16.3e}{:>14}",
            c.loop_order.join(","),
            c.seconds,
            c.energy_joules,
            c.dram_bytes
        );
    }
    let best = &candidates[0];
    let worst = candidates.last().expect("nonempty");
    println!(
        "\nbest ({}) is {:.1}x faster than worst ({}) — same Einsum, same data,\n\
         same hardware; only the mapping moved.",
        best.loop_order.join(","),
        worst.seconds / best.seconds,
        worst.loop_order.join(",")
    );
    Ok(())
}
