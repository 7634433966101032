//! Host-noise diagnostics. They are printed with every run and reported
//! as `host.*` per-layer metrics; no end-to-end metric is normalised by
//! them.

use std::hint::black_box;
use std::time::Instant;

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of
/// `/proc/stat`, or zeros where it is unreadable.
pub fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guests are already counted in user/nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Steal share in percent between two [`cpu_ticks`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// A fixed deterministic CPU kernel (integer mixing over a 256 KiB
/// table); its time tracks how fast this host runs right now.
pub fn calibrate_ms() -> f64 {
    // Filled before the clock starts, so page faults are not timed.
    let mut table = vec![1u64; 32 * 1024];
    black_box(&mut table);
    let t = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for round in 0..256u64 {
        for (i, slot) in table.iter_mut().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = slot.wrapping_add(x ^ (i as u64) ^ round);
        }
    }
    black_box(&table);
    t.elapsed().as_secs_f64() * 1e3
}

/// `VmHWM` (peak resident set) of process `pid` (`"self"` for this
/// one) in MiB; 0 where unreadable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
