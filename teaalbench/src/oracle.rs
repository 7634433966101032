//! Independent correctness oracles that share no code with the engine.

use std::collections::BTreeMap;

use teaal::fibertree::TensorData;
use teaal::sim::SimReport;

/// `Z[m, n] = Σ_k A[k, m] · B[k, n]` by row-wise (Gustavson) SpGEMM with
/// a dense accumulator, summing `k` in ascending order. `a` and `b` are
/// `(k, m, value)` / `(k, n, value)` triples.
pub fn gustavson(
    a: &[(u64, u64, f64)],
    b: &[(u64, u64, f64)],
    m_extent: u64,
    n_extent: u64,
    k_extent: u64,
) -> BTreeMap<(u64, u64), f64> {
    let mut a_rows: Vec<Vec<(u64, f64)>> = vec![Vec::new(); m_extent as usize];
    let mut a_sorted = a.to_vec();
    a_sorted.sort_by_key(|&(k, m, _)| (m, k));
    for (k, m, v) in a_sorted {
        a_rows[m as usize].push((k, v));
    }
    let mut b_rows: Vec<Vec<(u64, f64)>> = vec![Vec::new(); k_extent as usize];
    for &(k, n, v) in b {
        b_rows[k as usize].push((n, v));
    }
    let mut acc = vec![0.0f64; n_extent as usize];
    let mut touched = vec![false; n_extent as usize];
    let mut cols: Vec<u64> = Vec::new();
    let mut z = BTreeMap::new();
    for (m, row) in a_rows.iter().enumerate() {
        for &(k, av) in row {
            for &(n, bv) in &b_rows[k as usize] {
                if !touched[n as usize] {
                    touched[n as usize] = true;
                    cols.push(n);
                }
                acc[n as usize] += av * bv;
            }
        }
        for &n in &cols {
            z.insert((m as u64, n), acc[n as usize]);
            acc[n as usize] = 0.0;
            touched[n as usize] = false;
        }
        cols.clear();
    }
    z
}

/// Entries of a 2-tensor as `(row, col, value)` in the order of the
/// rank names given (`first`, `second`), whatever its storage order.
pub fn triples(t: &TensorData, first: &str, second: &str) -> Result<Vec<(u64, u64, f64)>, String> {
    let ids = t.rank_ids();
    let pos = |r: &str| {
        ids.iter()
            .position(|x| x == r)
            .ok_or_else(|| format!("tensor {} has no rank {r} (ranks {ids:?})", t.name()))
    };
    let (i, j) = (pos(first)?, pos(second)?);
    Ok(t.entries()
        .into_iter()
        .map(|(p, v)| (p[i], p[j], v))
        .collect())
}

/// Compares a report's final `Z` against the oracle: same nonzero
/// pattern, values within a relative 1e-9 (summation order differs
/// between dataflows).
pub fn check_z(report: &SimReport, expected: &BTreeMap<(u64, u64), f64>) -> Option<String> {
    let Some(z) = report.final_output() else {
        return Some("report has no final output".into());
    };
    let got = match triples(z, "M", "N") {
        Ok(t) => t,
        Err(e) => return Some(e),
    };
    let got: Vec<_> = got.into_iter().filter(|&(_, _, v)| v != 0.0).collect();
    if got.len() != expected.len() {
        return Some(format!(
            "Z has {} nonzeros, oracle has {}",
            got.len(),
            expected.len()
        ));
    }
    for (m, n, v) in got {
        match expected.get(&(m, n)) {
            Some(&e) if (v - e).abs() <= 1e-9 * e.abs().max(1.0) => {}
            Some(&e) => return Some(format!("Z[{m},{n}] = {v}, oracle {e}")),
            None => return Some(format!("Z[{m},{n}] = {v} is not in the oracle")),
        }
    }
    None
}

/// The simulated statistics pinned per run: DRAM bytes and the exact
/// bits of modelled cycles and energy.
pub fn pin_of(report: &SimReport) -> String {
    format!(
        "dram_bytes={} cycles_bits={:#018x} energy_bits={:#018x}",
        report.dram_bytes(),
        report.cycles.to_bits(),
        report.energy_joules.to_bits()
    )
}
