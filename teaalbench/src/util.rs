//! Small shared helpers: order statistics, a seeded generator, FNV-1a,
//! and the result accumulator every workload fills in.

use std::collections::BTreeMap;
use std::time::Instant;

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times `f`, returning its value and the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms_since(t))
}

/// Runs a workload's set-up at least 5 times and, while it is cheap,
/// until one second has passed or `max_reps` ran, recording each
/// repetition's seconds. Spreading the repetitions over a second keeps
/// a brief host hiccup from moving their median. Returns the last
/// repetition's result.
pub fn set_up<T>(rec: &mut Recorder, max_reps: usize, mut f: impl FnMut() -> T) -> T {
    const MIN: usize = 5;
    let start = Instant::now();
    loop {
        let (out, ms) = timed(&mut f);
        rec.setup_s.push(ms / 1e3);
        let reps = rec.setup_s.len();
        if reps >= MIN && (reps >= max_reps || start.elapsed().as_secs_f64() >= 1.0) {
            return out;
        }
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// SplitMix64: a tiny deterministic generator, so a seed fixes every
/// input and request sequence the benchmark produces.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over bytes: a stable digest for pinned renderings.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What one run measured: op latencies by class, failures, pinned
/// simulated statistics, and per-layer values from a traced run.
#[derive(Default)]
pub struct Recorder {
    /// Measured op latencies in ms, per op class (e.g. a catalog spec).
    pub classes: BTreeMap<&'static str, Vec<f64>>,
    /// Ops completed inside the measured window.
    pub completed: u64,
    /// Length of the measured window in seconds.
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Set-up repetitions, seconds each.
    pub setup_s: Vec<f64>,
    /// Peak resident set of the working process, MiB.
    pub peak_rss_mb: f64,
    /// `name value` pairs of simulated statistics that must repeat.
    pub pins: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
}

impl Recorder {
    /// Counts one attempted op, failed when `problem` is set.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            eprintln!("teaalbench: check failed: {p}");
        }
    }

    pub fn sample(&mut self, class: &'static str, ms: f64) {
        self.classes.entry(class).or_default().push(ms);
    }

    pub fn pin(&mut self, key: impl Into<String>, value: impl std::fmt::Display) {
        self.pins.push(format!("{} {value}", key.into()));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Per-class medians, in class-name order.
    pub fn class_medians(&self) -> Vec<(&'static str, f64)> {
        self.classes.iter().map(|(c, v)| (*c, median(v))).collect()
    }
}
