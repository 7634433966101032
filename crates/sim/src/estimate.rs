//! Analytical cost estimation — the mapper's fast path.
//!
//! Predicts what the instrumented engine would measure for a lowered
//! [`EinsumPlan`] from per-tensor rank statistics alone
//! ([`TensorStats`]: extents, occupancies, fiber-length distributions),
//! in the spirit of Sparseloop's stochastic density models: no tensor
//! data is touched, so a candidate mapping costs microseconds instead of
//! a full simulation.
//!
//! The estimator mirrors the engine's semantics level by level:
//!
//! - **Co-iteration**: per loop rank, expected intersection matches
//!   (`E · Π cᵢ/E`) or union coordinates (`E · (1 − Π (1 − cᵢ/E))`) from
//!   the drivers' expected fiber occupancies, which come from
//!   distinct-prefix counts — exact where the working prefix covers the
//!   same ranks as a storage prefix, a uniform-grid occupancy model
//!   (`U·(1−(1−1/U)^N)`) elsewhere.
//! - **Transforms**: swizzle reorders levels; shape and occupancy splits
//!   reshape extents (occupancy splits consult the modeled occupancy at
//!   their depth, follower splits adopt the leader's boundary count);
//!   flattening multiplies extents.
//! - **Skipping**: leader-follower and skip-ahead intersection charge the
//!   policy's comparison count, not the two-finger sum.
//! - **Traffic**: buffet epoch dedup, eager subtree fills, LRU cache
//!   compulsory+capacity misses, and partial-output drains are modeled in
//!   expectation against the same [`ChannelCfg`] the engine instruments.
//!
//! The result is assembled into the exact [`SimReport`] shape and pushed
//! through the *same* time/energy analysis as measured runs, so modeled
//! and measured numbers are directly comparable. Remaining sources of
//! error (documented deliberately): coordinate distributions are assumed
//! uniform and independent across ranks, value cancellation (`is_zero`)
//! is ignored, spatial work is assumed balanced across PEs, and
//! follower-split boundaries are approximated from the leader's chunk
//! count. `explore_fast_with_context` compensates with a safety margin before the
//! engine verifies the survivors.

use std::collections::BTreeMap;
use std::sync::Arc;

use teaal_core::einsum::Rhs;
use teaal_core::ir::{Descent, EinsumPlan, PlanStep, TensorPlan};
use teaal_fibertree::stats::{StatsCache, TensorStats};
use teaal_fibertree::{IntersectPolicy, TensorData};

use crate::counters::{ChannelCfg, EstimatedChannel, EstimatedCounts};
use crate::error::SimError;
use crate::model::Simulator;
use crate::report::SimReport;

/// Estimates a full cascade report, memoizing per-tensor statistics in
/// `cache` (one O(nnz) pass per distinct tensor, shared across all
/// candidate mappings).
///
/// # Errors
///
/// Returns [`SimError::MissingTensor`] / [`SimError::MissingExtent`] under
/// the same conditions as an engine run.
pub fn estimate_data(
    sim: &Simulator,
    inputs: &[&TensorData],
    cache: &StatsCache,
) -> Result<SimReport, SimError> {
    let mut stats = BTreeMap::new();
    for t in inputs {
        stats.insert(t.name().to_string(), cache.get_or_compute(t));
    }
    estimate_with_stats(sim, &stats)
}

/// Estimates a full cascade report from precomputed statistics (no tensor
/// data at all). Intermediates are modeled by synthesizing statistics for
/// each Einsum's estimated output and feeding them forward, mirroring the
/// engine's sequential extent/environment semantics.
///
/// The returned report carries no `outputs` (nothing was computed); all
/// counters, per-block component times, and energy are filled in by the
/// same analysis the measured path uses.
///
/// # Errors
///
/// Returns [`SimError::MissingTensor`] when a plan reads a tensor with no
/// statistics, and [`SimError::MissingExtent`] for dense iteration over an
/// undeclared rank — the same conditions that fail an engine run.
pub fn estimate_with_stats(
    sim: &Simulator,
    tensor_stats: &BTreeMap<String, Arc<TensorStats>>,
) -> Result<SimReport, SimError> {
    let mut extents: BTreeMap<String, u64> = BTreeMap::new();
    for ts in tensor_stats.values() {
        for r in &ts.ranks {
            let e = extents.entry(r.rank.clone()).or_insert(r.extent);
            *e = (*e).max(r.extent);
        }
    }
    extents.extend(sim.extent_overrides().clone());

    let mut env: BTreeMap<String, Arc<TensorStats>> = tensor_stats.clone();
    let mut report = SimReport::default();
    for plan in sim.plans() {
        let (stats, out_stats) = estimate_einsum(sim, plan, &env, &extents)?;
        for r in &out_stats.ranks {
            extents.entry(r.rank.clone()).or_insert(r.extent);
        }
        env.insert(out_stats.name.clone(), Arc::new(out_stats));
        report.einsums.push(stats);
    }
    sim.analyze_time(&mut report)?;
    sim.analyze_energy(&mut report);
    Ok(report)
}

/// Expected number of distinct cells occupied when `n` items land
/// uniformly and independently in a space of `u` cells:
/// `u·(1−(1−1/u)^n)`, evaluated stably via `expm1`/`ln_1p`.
fn distinct_estimate(u: f64, n: f64) -> f64 {
    if n <= 0.0 || u <= 0.0 || n.is_nan() || u.is_nan() {
        return 0.0;
    }
    if u <= 1.0 {
        return u.min(n);
    }
    let log_keep = (-1.0 / u).ln_1p(); // ln(1 − 1/u) < 0
    let d = u * -(n * log_keep).exp_m1();
    d.min(n).min(u)
}

/// One working-order level of a tensor model.
///
/// `extent` bounds the *fanout* (children per parent fiber) and `universe`
/// the *coordinate space* the level's values live in — they differ for
/// occupancy splits, whose lower level keeps the **original** coordinate
/// values (universe = the unsplit rank's extent) while holding at most
/// `size` of them per chunk. `origs` lists which original storage ranks
/// the level covers (`partial` marks split fragments that only jointly
/// reconstruct the original rank); `occ_cap` records an occupancy-split
/// lower's `(upper sibling, split size)` so spatial position counts can
/// be capped at the chunk size when the sibling is iterated above it.
#[derive(Clone, Debug)]
struct Level {
    name: String,
    extent: f64,
    universe: f64,
    origs: Vec<(String, bool)>,
    occ_cap: Option<(String, f64)>,
}

/// Per-access walk model: transformed levels, distinct-prefix counts, the
/// engine's per-loop-level joined rank names, and walk state (descent
/// depth and union-mode survival probability).
struct Model {
    tensor: String,
    levels: Vec<Level>,
    prefix: Vec<f64>,
    /// Joined rank name charged for touches at each working depth
    /// (descents sharing a loop level share the level's joined name).
    joined_by_depth: Vec<String>,
    depth: usize,
    presence: f64,
}

impl Model {
    /// Expected occupancy of the fiber this access currently points at.
    fn fiber_occ(&self) -> f64 {
        let p0 = self.prefix[self.depth].max(1e-30);
        (self.prefix[self.depth + 1] / p0).max(0.0)
    }

    /// Coordinate universe at the current depth (used to normalize
    /// occupancies into densities — occupancy-split lowers keep original
    /// coordinate values, so their universe is the unsplit extent).
    fn cur_extent(&self) -> f64 {
        self.levels
            .get(self.depth)
            .map(|l| l.universe)
            .unwrap_or(1.0)
            .max(1.0)
    }
}

/// Joint coordinate universe of a set of levels: the product of their
/// per-level universes, with a per-original-rank clamp — when several
/// single-orig split fragments of the same rank appear together, their
/// joint universe cannot exceed the original rank's extent (split parts
/// are functions of the original coordinate, not fresh dimensions). The
/// clamp applies when all parts are present, or when an occupancy-split
/// lower (which *is* the original coordinate) anchors the group.
fn universe_product<'a>(
    levels: impl Iterator<Item = &'a Level>,
    ts: &TensorStats,
    parts_of: &BTreeMap<String, usize>,
) -> f64 {
    let mut u = 1.0f64;
    // Per-orig: (part count seen, universe product, occ-lower anchor).
    let mut groups: BTreeMap<&str, (usize, f64, Option<f64>)> = BTreeMap::new();
    for l in levels {
        u = (u * l.universe.max(1.0)).min(1e300);
        if let [(o, true)] = l.origs.as_slice() {
            let g = groups.entry(o.as_str()).or_insert((0, 1.0, None));
            g.0 += 1;
            g.1 = (g.1 * l.universe.max(1.0)).min(1e300);
            if l.occ_cap.is_some() {
                g.2 = Some(g.2.map_or(l.universe, |a: f64| a.max(l.universe)));
            }
        }
    }
    for (o, (cnt, prod, anchor)) in groups {
        if cnt < 2 {
            continue;
        }
        let all_parts = cnt == parts_of.get(o).copied().unwrap_or(1);
        let cap = match anchor {
            Some(a) => Some(a.max(1.0)),
            None if all_parts => ts.rank(o).map(|r| (r.extent as f64).max(1.0)),
            None => None,
        };
        if let Some(c) = cap {
            if c < prod {
                u = u / prod * c;
            }
        }
    }
    u
}

/// Distinct-prefix counts `P[0..=d]` for a transformed level list:
/// `P[k]` is the expected number of distinct coordinate prefixes of the
/// first `k` levels. Exact (from the statistics) when the first `k`
/// levels wholly cover exactly the first `j` storage ranks; uniform-grid
/// estimated otherwise, bounded by every applicable marginal cap —
/// storage prefixes, per-rank distinct coordinates, and any producer
/// knowledge recorded in [`TensorStats::marginal_caps`] (for a cap
/// `(R, c)`, a prefix's count is at most `c` times the joint universe of
/// its levels *outside* `R`, since levels derived solely from ranks in
/// `R` cannot add distinctness beyond `c`). Always clamped monotone with
/// `P[d] = nnz` (transforms preserve leaves).
fn prefix_counts(
    levels: &[Level],
    ts: &TensorStats,
    parts_of: &BTreeMap<String, usize>,
) -> Vec<f64> {
    let d = levels.len();
    let nnz = ts.nnz as f64;
    let storage: Vec<&str> = ts.rank_order();
    // Marginal caps as (rank set, count): storage prefixes, single ranks,
    // and producer-declared marginals.
    let mut caps: Vec<(Vec<&str>, f64)> = Vec::new();
    for j in 1..storage.len() {
        caps.push((storage[..j].to_vec(), ts.prefix_elements(j) as f64));
    }
    for rs in &ts.ranks {
        caps.push((vec![rs.rank.as_str()], rs.distinct_coords as f64));
    }
    for (rset, c) in &ts.marginal_caps {
        caps.push((rset.iter().map(String::as_str).collect(), *c as f64));
    }
    let mut p = vec![1.0f64; d + 1];
    for k in 1..=d {
        let u = universe_product(levels[..k].iter(), ts, parts_of);
        // Which original ranks do the first k levels cover, and wholly?
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        let mut any_partial_orig = false;
        for l in &levels[..k] {
            for (o, partial) in &l.origs {
                *seen.entry(o.as_str()).or_insert(0) += 1;
                if *partial && seen[o.as_str()] < parts_of.get(o).copied().unwrap_or(1) {
                    any_partial_orig = true;
                }
            }
        }
        // Re-check completeness: an orig is whole iff we saw all its parts.
        let whole = !any_partial_orig
            && seen
                .iter()
                .all(|(o, n)| *n == parts_of.get(*o).copied().unwrap_or(1));
        let mut est = None;
        if whole {
            let j = seen.len();
            let prefix_match =
                j <= storage.len() && storage[..j].iter().all(|r| seen.contains_key(*r));
            if prefix_match {
                // Distinct prefix counts are order-invariant within the
                // prefix set: use the exact per-level occupancy.
                est = Some(ts.prefix_elements(j) as f64);
            } else if j == 1 {
                let orig = *seen.keys().next().expect("j == 1");
                if let Some(rs) = ts.rank(orig) {
                    est = Some(rs.distinct_coords as f64);
                }
            }
        }
        let mut pk = est.unwrap_or_else(|| distinct_estimate(u, nnz));
        // Marginal caps: levels whose origs all lie inside the cap's rank
        // set contribute no distinctness beyond the cap count.
        if est.is_none() {
            for (rset, c) in &caps {
                let outside: Vec<&Level> = levels[..k]
                    .iter()
                    .filter(|l| !l.origs.iter().all(|(o, _)| rset.contains(&o.as_str())))
                    .collect();
                if outside.len() == k {
                    continue; // no level inside the cap's rank set
                }
                let ou = universe_product(outside.into_iter(), ts, parts_of);
                pk = pk.min(c * ou);
            }
        }
        // Per-level growth cap and monotonicity.
        pk = pk
            .min(p[k - 1] * levels[k - 1].extent.max(1.0))
            .min(nnz)
            .max(p[k - 1].min(nnz));
        p[k] = pk;
    }
    if d > 0 {
        p[d] = nnz;
        for k in (1..d).rev() {
            p[k] = p[k].min(p[k + 1]);
        }
    }
    p
}

/// Transformed level list plus split part counts and online-swizzle merge
/// work (`(elems, ways)` pairs) accumulated while applying a tensor
/// plan's steps.
type LevelModel = (Vec<Level>, BTreeMap<String, usize>, Vec<(f64, f64)>);

/// Initial storage-order level list for a tensor plan.
fn initial_levels(tp: &TensorPlan, ts: &TensorStats) -> (Vec<Level>, BTreeMap<String, usize>) {
    let levels = tp
        .initial_order
        .iter()
        .map(|r| {
            let e = ts.rank(r).map(|s| s.extent as f64).unwrap_or(1.0).max(1.0);
            Level {
                name: r.clone(),
                extent: e,
                universe: e,
                origs: vec![(r.clone(), false)],
                occ_cap: None,
            }
        })
        .collect();
    let parts_of = tp
        .initial_order
        .iter()
        .map(|r| (r.clone(), 1usize))
        .collect();
    (levels, parts_of)
}

/// Applies a tensor plan's transform steps to the storage-order level
/// list, returning the working-order levels, the split part counts per
/// original rank, and any online-swizzle merge work encountered as
/// `(elems, ways)`.
fn build_levels(
    tp: &TensorPlan,
    ts: &TensorStats,
    leader_chunks: &BTreeMap<(String, String), f64>,
) -> LevelModel {
    let (mut levels, mut parts_of) = initial_levels(tp, ts);
    let mut merges = Vec::new();
    for step in &tp.steps {
        if let PlanStep::Swizzle(order) = step {
            let before: Vec<String> = levels.iter().map(|l| l.name.clone()).collect();
            if before != *order && tp.online_swizzle {
                let p = before
                    .iter()
                    .zip(order.iter())
                    .take_while(|(a, b)| a == b)
                    .count();
                let pc = prefix_counts(&levels, ts, &parts_of);
                if p < levels.len() {
                    let ways = pc[p + 1] / pc[p].max(1.0);
                    merges.push((ts.nnz as f64, ways));
                }
            }
        }
        let (next, next_parts) = apply_one_step(levels, parts_of, step, ts, leader_chunks);
        levels = next;
        parts_of = next_parts;
    }
    (levels, parts_of, merges)
}

/// Leader chunk counts published by this plan's occupancy-split leaders,
/// keyed `(rank, leader tensor)` — the analytical counterpart of the
/// engine's `BoundaryCache`.
fn leader_chunk_counts(
    plan: &EinsumPlan,
    env: &BTreeMap<String, Arc<TensorStats>>,
) -> BTreeMap<(String, String), f64> {
    let empty = BTreeMap::new();
    let mut out = BTreeMap::new();
    for tp in &plan.tensor_plans {
        let Some(ts) = env.get(&tp.tensor) else {
            continue;
        };
        if !tp
            .steps
            .iter()
            .any(|s| matches!(s, PlanStep::SplitOccLeader { .. }))
        {
            continue;
        }
        // Re-run the transform, recording the chunk count at each leader
        // split (the model computes it from the occupancy in place).
        let (mut levels, mut parts_of) = initial_levels(tp, ts);
        for step in &tp.steps {
            if let PlanStep::SplitOccLeader { rank, size, .. } = step {
                if let Some(i) = levels.iter().position(|l| l.name == *rank) {
                    let pc = prefix_counts(&levels, ts, &parts_of);
                    let c = (pc[i + 1] / pc[i].max(1.0)).max(1.0);
                    let chunks = (c / (*size as f64).max(1.0)).ceil().max(1.0);
                    out.insert((rank.clone(), tp.tensor.clone()), chunks);
                }
            }
            // Advance the level list exactly as build_levels would.
            let (next, next_parts) = apply_one_step(levels, parts_of, step, ts, &empty);
            levels = next;
            parts_of = next_parts;
        }
    }
    out
}

/// Applies one transform step (shared between [`build_levels`] and the
/// leader pre-pass so both see identical level evolution).
fn apply_one_step(
    levels: Vec<Level>,
    parts_of: BTreeMap<String, usize>,
    step: &PlanStep,
    ts: &TensorStats,
    leader_chunks: &BTreeMap<(String, String), f64>,
) -> (Vec<Level>, BTreeMap<String, usize>) {
    let mut levels = levels;
    let mut parts_of = parts_of;
    let pos = |levels: &[Level], name: &str| levels.iter().position(|l| l.name == name);
    match step {
        PlanStep::Swizzle(order) => {
            let mut next = Vec::with_capacity(levels.len());
            for name in order {
                if let Some(i) = pos(&levels, name) {
                    next.push(levels[i].clone());
                }
            }
            if next.len() == levels.len() {
                levels = next;
            }
        }
        PlanStep::Flatten { upper, new_name } => {
            if let Some(i) = pos(&levels, upper) {
                if i + 1 < levels.len() {
                    let lower = levels.remove(i + 1);
                    let up = &mut levels[i];
                    up.name = new_name.clone();
                    up.extent = (up.extent * lower.extent).max(1.0);
                    up.universe = (up.universe * lower.universe).clamp(1.0, 1e300);
                    up.origs.extend(lower.origs);
                    up.occ_cap = None;
                }
            }
        }
        PlanStep::SplitShape {
            rank,
            size,
            upper,
            lower,
        } => {
            if let Some(i) = pos(&levels, rank) {
                let e = levels[i].extent;
                let uv = levels[i].universe;
                let s = (*size as f64).max(1.0);
                let origs = levels[i].origs.clone();
                for (o, _) in &origs {
                    *parts_of.entry(o.clone()).or_insert(1) += 1;
                }
                let mk = |name: &str, extent: f64, universe: f64| Level {
                    name: name.to_string(),
                    extent: extent.max(1.0),
                    universe: universe.max(1.0),
                    origs: origs.iter().map(|(o, _)| (o.clone(), true)).collect(),
                    occ_cap: None,
                };
                let u = mk(upper, (e / s).ceil(), (uv / s).ceil());
                let l = mk(lower, s.min(e), s.min(uv));
                levels.splice(i..=i, [u, l]);
            }
        }
        PlanStep::SplitOccLeader {
            rank,
            size,
            upper,
            lower,
        }
        | PlanStep::SplitOccFollower {
            rank,
            size,
            upper,
            lower,
            ..
        } => {
            if let Some(i) = pos(&levels, rank) {
                let pc = prefix_counts(&levels, ts, &parts_of);
                let c = (pc[i + 1] / pc[i].max(1.0)).max(1.0);
                let s = (*size as f64).max(1.0);
                let is_leader = !matches!(step, PlanStep::SplitOccFollower { .. });
                let chunks = match step {
                    PlanStep::SplitOccFollower { leader, .. } => leader_chunks
                        .get(&(rank.clone(), leader.clone()))
                        .copied()
                        .unwrap_or_else(|| (c / s).ceil().max(1.0)),
                    _ => (c / s).ceil().max(1.0),
                };
                let e = levels[i].extent;
                let uv = levels[i].universe;
                let origs = levels[i].origs.clone();
                for (o, _) in &origs {
                    *parts_of.entry(o.clone()).or_insert(1) += 1;
                }
                let mk = |name: &str, extent: f64, universe: f64| Level {
                    name: name.to_string(),
                    extent: extent.max(1.0),
                    universe: universe.max(1.0),
                    origs: origs.iter().map(|(o, _)| (o.clone(), true)).collect(),
                    occ_cap: None,
                };
                // The upper level's coordinates are chunk ids; the lower
                // level keeps the ORIGINAL coordinate values (the engine
                // slices the fiber, it does not rebase coordinates), so
                // its universe stays the unsplit one while the leader's
                // per-chunk fanout is bounded by the split size.
                let u = mk(upper, chunks, chunks);
                let mut l = mk(lower, if is_leader { s.min(e) } else { e }, uv);
                l.occ_cap = Some((upper.clone(), s));
                levels.splice(i..=i, [u, l]);
            }
        }
    }
    (levels, parts_of)
}

/// Estimates one Einsum: returns its stats and synthetic statistics for
/// its output (for downstream cascade plans).
fn estimate_einsum(
    sim: &Simulator,
    plan: &EinsumPlan,
    env: &BTreeMap<String, Arc<TensorStats>>,
    extents: &BTreeMap<String, u64>,
) -> Result<(crate::report::EinsumStats, TensorStats), SimError> {
    let name = plan.equation.name().to_string();
    let instruments = sim.build_instruments(plan);
    let policy = sim.intersect_policy(plan);
    let accesses = plan.equation.rhs.accesses();
    let (union_mode, take_mode) = match &plan.equation.rhs {
        Rhs::SumOfProducts(terms) => (terms.len() > 1, false),
        Rhs::Take { .. } => (false, true),
    };

    let leader_chunks = leader_chunk_counts(plan, env);

    // Build one walk model per access.
    let mut counts = EstimatedCounts::default();
    let mut models: Vec<Model> = Vec::with_capacity(accesses.len());
    for a in &accesses {
        let tp = plan
            .tensor_plans
            .iter()
            .find(|tp| tp.tensor == a.tensor)
            .ok_or_else(|| SimError::MissingTensor {
                tensor: a.tensor.clone(),
            })?;
        let ts = env.get(&tp.tensor).ok_or_else(|| SimError::MissingTensor {
            tensor: tp.tensor.clone(),
        })?;
        let (levels, parts_of, merges) = build_levels(tp, ts, &leader_chunks);
        let prefix = prefix_counts(&levels, ts, &parts_of);
        for (e, w) in merges {
            counts.merges.push((tp.tensor.clone(), e, w));
        }

        // Joined rank names per descent depth (mirrors the engine's
        // access_rank_names, which joins multi-descent levels with "/").
        let ai = models.len();
        let wo = &tp.working_order;
        let order: Vec<String> = if wo.is_empty() {
            levels.iter().map(|l| l.name.clone()).collect()
        } else {
            wo.clone()
        };
        let mut joined_by_depth = Vec::new();
        let mut k = 0usize;
        for level in &plan.access_roles[ai].roles {
            let n = level.len();
            let names: Vec<String> = (k..k + n)
                .map(|d| order.get(d).cloned().ok_or(()))
                .collect::<Result<_, _>>()
                .map_err(|_| SimError::PhantomRank {
                    tensor: tp.tensor.clone(),
                    depth: k,
                    working_order: order.clone(),
                })?;
            let joined = names.join("/");
            for _ in 0..n {
                joined_by_depth.push(joined.clone());
            }
            k += n;
        }
        // Reorder levels to the working order by name when they diverge
        // (they match after the final swizzle step; this is a guard).
        let mut ordered = Vec::with_capacity(levels.len());
        for w in &order {
            if let Some(i) = levels.iter().position(|l| l.name == *w) {
                ordered.push(levels[i].clone());
            }
        }
        let levels = if ordered.len() == levels.len() {
            ordered
        } else {
            levels
        };
        let prefix = if levels.len() + 1 == prefix.len() {
            prefix_counts(&levels, ts, &parts_of)
        } else {
            prefix
        };

        models.push(Model {
            tensor: tp.tensor.clone(),
            levels,
            prefix,
            joined_by_depth,
            depth: 0,
            presence: 1.0,
        });
    }

    // Walk the loop nest in expectation.
    let mut body = 1.0f64;
    let mut space_positions = 1.0f64;
    // Touches per access: (depth, expected count).
    let mut touches: Vec<Vec<f64>> = models.iter().map(|m| vec![0.0; m.levels.len()]).collect();
    for (li, lr) in plan.loop_ranks.iter().enumerate() {
        let drivers: Vec<usize> = (0..accesses.len())
            .filter(|&ai| plan.access_roles[ai].roles[li].contains(&Descent::CoIterate))
            .collect();
        let opens = body;

        // Effective per-driver occupancies (presence-weighted in union
        // mode) and the normalizing coordinate extent.
        let cs: Vec<f64> = drivers
            .iter()
            .map(|&ai| models[ai].fiber_occ() * models[ai].presence)
            .collect();
        let per_open = if drivers.is_empty() {
            let root = lr
                .binds
                .first()
                .map(|(r, _)| r.clone())
                .unwrap_or_else(|| lr.name.clone());
            *extents
                .get(&root)
                .ok_or(SimError::MissingExtent { rank: root })? as f64
        } else {
            let e = drivers
                .iter()
                .map(|&ai| models[ai].cur_extent())
                .fold(1.0f64, f64::max)
                .max(cs.iter().cloned().fold(0.0f64, f64::max));
            if union_mode {
                let miss: f64 = cs.iter().map(|c| 1.0 - (c / e).clamp(0.0, 1.0)).product();
                (e * (1.0 - miss))
                    .max(cs.iter().cloned().fold(0.0, f64::max))
                    .min(cs.iter().sum())
            } else {
                // Nested patterns are not independent: when one driver's
                // pattern is known to lie inside another's
                // (`pattern_subset_of`, e.g. Gamma's Z co-iterates the
                // intermediate T against the very A that produced it),
                // the expected overlap is the subset's occupancy alone —
                // drop the containing driver's factor from the hit
                // product instead of undercounting by `c/E`.
                let mut redundant = vec![false; drivers.len()];
                for (i, &ai) in drivers.iter().enumerate() {
                    if redundant[i] {
                        continue;
                    }
                    let Some(ts) = env.get(&models[ai].tensor) else {
                        continue;
                    };
                    for (j, &aj) in drivers.iter().enumerate() {
                        if i != j && ts.pattern_subset_of.contains(&models[aj].tensor) {
                            redundant[j] = true;
                        }
                    }
                }
                let hit: f64 = cs
                    .iter()
                    .zip(&redundant)
                    .filter(|(_, r)| !**r)
                    .map(|(c, _)| (c / e).clamp(0.0, 1.0))
                    .product();
                (e * hit).min(cs.iter().cloned().fold(f64::INFINITY, f64::min))
            }
        };
        let visits = opens * per_open;
        *counts.loop_visits.entry(lr.name.clone()).or_insert(0.0) += visits;

        // Spatial position count: the engine indexes PEs by the position
        // of each emitted coordinate, so distinct positions per spatial
        // rank are bounded by the coordinate universe (an occupancy-split
        // lower holds at most `size` coordinates per chunk when its upper
        // sibling is iterated above it) and by the total visit count. We
        // assume the positions are fully utilized — optimistic, but
        // uniform across candidates, and the engine re-ranks survivors
        // exactly.
        if lr.is_space {
            let mut cap = f64::INFINITY;
            for &ai in &drivers {
                let m = &models[ai];
                if let Some(l) = m.levels.get(m.depth) {
                    let mut c = l.universe.max(1.0);
                    if let Some((upper, s)) = &l.occ_cap {
                        if plan.loop_ranks[..li].iter().any(|p| p.name == *upper) {
                            c = c.min(s.max(1.0));
                        }
                    }
                    cap = cap.min(c);
                }
            }
            if !cap.is_finite() {
                cap = per_open.max(1.0);
            }
            space_positions *= cap.min(visits.max(1.0)).max(1.0);
        }

        // Intersection-unit comparisons (charged only with >1 live
        // operand, like the engine).
        if drivers.len() > 1 {
            let sum: f64 = cs.iter().sum();
            let cmax = cs.iter().cloned().fold(0.0f64, f64::max);
            let cmin = cs.iter().cloned().fold(f64::INFINITY, f64::min).max(1e-9);
            let per_open_cmp = if union_mode {
                let stages = (drivers.len() as f64).log2().ceil().max(1.0);
                sum * stages
            } else {
                match policy {
                    IntersectPolicy::TwoFinger => (sum - per_open).max(cmax),
                    IntersectPolicy::LeaderFollower { leader } => {
                        cs.get(leader).copied().unwrap_or(cmax)
                    }
                    IntersectPolicy::SkipAhead => cmin * (1.0 + (1.0 + cmax / cmin).log2()),
                }
            };
            *counts
                .intersect_by_rank
                .entry(lr.name.clone())
                .or_insert(0.0) += opens * per_open_cmp;
        }

        // Drivers descend: each emitted coordinate touches each present
        // driver once.
        for (di, &ai) in drivers.iter().enumerate() {
            let frac = if union_mode && per_open > 0.0 {
                (cs[di] / per_open).min(1.0)
            } else {
                1.0
            };
            let d = models[ai].depth;
            if d < touches[ai].len() {
                touches[ai][d] += visits * frac;
            }
            if union_mode {
                models[ai].presence = frac;
            }
            models[ai].depth += 1;
        }

        // Non-driver descents: projections and affine lookups probe and
        // touch on hit; in intersection mode a miss kills the body.
        let mut after = visits;
        for (ai, roles) in plan.access_roles.iter().enumerate() {
            for dsc in &roles.roles[li] {
                match dsc {
                    Descent::CoIterate => {}
                    Descent::Project { .. } | Descent::Affine { .. } => {
                        let c = models[ai].fiber_occ();
                        let e = models[ai].cur_extent();
                        let p_hit = (c / e).clamp(0.0, 1.0);
                        let d = models[ai].depth;
                        if union_mode {
                            let charged = after * models[ai].presence * p_hit;
                            if d < touches[ai].len() {
                                touches[ai][d] += charged;
                            }
                            models[ai].presence *= p_hit;
                        } else {
                            if d < touches[ai].len() {
                                touches[ai][d] += after * p_hit;
                            }
                            after *= p_hit;
                        }
                        models[ai].depth += 1;
                    }
                }
            }
        }

        body = after;
    }

    // Leaf accounting.
    let (emitted, muls, term_adds) = match &plan.equation.rhs {
        Rhs::Take { .. } => (body, 0.0, 0.0),
        Rhs::SumOfProducts(terms) => {
            if terms.len() == 1 {
                let f = terms[0].1.factors.len() as f64;
                (body, body * (f - 1.0).max(0.0), 0.0)
            } else {
                let mut ai = 0usize;
                let mut sum_p = 0.0f64;
                let mut none_p = 1.0f64;
                let mut mul_rate = 0.0f64;
                for (_, product) in terms {
                    let mut p_term = 1.0f64;
                    for _ in &product.factors {
                        p_term *= models[ai].presence;
                        ai += 1;
                    }
                    sum_p += p_term;
                    none_p *= 1.0 - p_term.clamp(0.0, 1.0);
                    mul_rate += p_term * (product.factors.len() as f64 - 1.0).max(0.0);
                }
                let p_any = (1.0 - none_p).clamp(0.0, 1.0);
                let emitted = body * p_any;
                (emitted, body * mul_rate, (body * sum_p - emitted).max(0.0))
            }
        }
    };
    let _ = take_mode;

    // Distinct outputs via the uniform model over the target ranks.
    let target = &plan.output.target_order;
    let u_out: f64 = target
        .iter()
        .map(|r| extents.get(r).copied().unwrap_or(u64::MAX) as f64)
        .fold(1.0, |a, b| (a * b).min(1e300));
    let d_out = distinct_estimate(u_out, emitted).min(emitted);
    counts.output_writes = d_out;
    counts.output_updates = (emitted - d_out).max(0.0);
    counts.muls = muls;
    counts.adds = term_adds + counts.output_updates;
    let total_ops = counts.muls + counts.adds;
    counts.spaces = if total_ops > 0.0 {
        space_positions.round().max(1.0)
    } else {
        0.0
    };
    counts.max_pe_ops = if counts.spaces > 0.0 {
        (total_ops / counts.spaces).ceil()
    } else {
        0.0
    };

    // Partial-output drains across reduction epochs.
    let out_elem_bits = instruments.output.elem_bits as f64;
    if let Some(evict) = &instruments.output.evict_on {
        let epochs = 1.0 + counts.loop_visits.get(evict).copied().unwrap_or(0.0);
        if epochs > 1.0 && d_out > 0.0 {
            let visits_per_key = emitted / d_out;
            let epochs_touched = epochs.min(visits_per_key);
            let events = d_out * (epochs_touched - 1.0).max(0.0);
            counts.output_partial_bits = 2.0 * events * out_elem_bits;
        }
    }

    // Output footprint (exactly collect_stats' gating; the footprint
    // itself is the format formula over estimated per-level counts).
    let binding = sim.spec().binding.for_einsum(&name);
    let own_storage = binding.storage_for(&name);
    let output_pinned = !own_storage.is_empty()
        && own_storage
            .iter()
            .all(|s| s.evict_on.is_none() && sim.is_pinnable_buffet(&binding, &s.component));
    let out_prefix = uniform_prefix(target, extents, d_out);
    if !(sim.on_chip_set().contains(&name) || output_pinned) {
        let out_fmt = sim.spec().format.config_or_default(&name, None, target);
        counts.output_write_bits = footprint_bits(&out_fmt, target, extents, &out_prefix);
    }

    // Output online-swizzle merge work.
    if plan.output.online_swizzle && plan.output.produced_order != *target {
        let produced = &plan.output.produced_order;
        let p = produced
            .iter()
            .zip(target.iter())
            .take_while(|(a, b)| a == b)
            .count();
        let pp = uniform_prefix(produced, extents, d_out);
        if p < produced.len() {
            let ways = pp[p + 1] / pp[p].max(1.0);
            counts.merges.push((name.clone(), d_out, ways));
        }
    }

    // Per-tensor traffic: aggregate touches over accesses, then apply the
    // channel model (buffet epochs, eager subtrees, cache misses).
    for tp in &plan.tensor_plans {
        let Some(ch) = instruments.tensors.get(&tp.tensor) else {
            continue;
        };
        let cfg = ch.cfg();
        let mut per_depth: Vec<(String, f64, f64)> = Vec::new(); // (joined, touches, elements)
        for (ai, m) in models.iter().enumerate() {
            if m.tensor != tp.tensor {
                continue;
            }
            for (d, t) in touches[ai].iter().enumerate() {
                let joined = m
                    .joined_by_depth
                    .get(d)
                    .cloned()
                    .unwrap_or_else(|| m.levels[d].name.clone());
                let elems = m.prefix[d + 1];
                match per_depth.iter_mut().find(|(j, _, _)| *j == joined) {
                    Some(slot) => slot.1 += t,
                    None => per_depth.push((joined, *t, elems)),
                }
            }
        }
        let est = estimate_channel(cfg, &per_depth, &counts.loop_visits, &models, &tp.tensor);
        counts.tensors.insert(tp.tensor.clone(), est);
    }

    // Synthetic output statistics for downstream plans.
    let out_levels: Vec<(String, u64, u64)> = target
        .iter()
        .enumerate()
        .map(|(k, r)| {
            (
                r.clone(),
                extents.get(r).copied().unwrap_or(1),
                out_prefix[k + 1].round() as u64,
            )
        })
        .collect();
    let mut out_stats = TensorStats::synthetic(&name, &out_levels);
    // Producer marginal caps: the output's projection onto the ranks one
    // rhs access binds has at most that access's nnz distinct tuples
    // (every emitted output coordinate restricted to those ranks is a
    // nonzero coordinate of that input). Downstream plans use these to
    // bound prefix counts the uniform model would overstate.
    for a in &accesses {
        let Some(ats) = env.get(&a.tensor) else {
            continue;
        };
        let bound: Vec<String> = a
            .vars()
            .iter()
            .map(|v| v.to_uppercase())
            .filter(|r| target.contains(r))
            .collect();
        if !bound.is_empty() && !out_stats.marginal_caps.contains(&(bound.clone(), ats.nnz)) {
            out_stats.marginal_caps.push((bound, ats.nnz));
        }
    }
    // Pattern nesting: a single-product (or take) output only has a
    // coordinate where every operand does, so its pattern nests inside
    // each operand's — and transitively inside the operands' own
    // ancestors. Downstream plans that co-iterate this output against one
    // of those tensors must not model the overlap as independent.
    let single_product = match &plan.equation.rhs {
        Rhs::SumOfProducts(terms) => terms.len() == 1,
        Rhs::Take { .. } => true,
    };
    if single_product {
        for a in &accesses {
            if !out_stats.pattern_subset_of.contains(&a.tensor) {
                out_stats.pattern_subset_of.push(a.tensor.clone());
            }
            if let Some(ats) = env.get(&a.tensor) {
                for anc in &ats.pattern_subset_of {
                    if !out_stats.pattern_subset_of.contains(anc) {
                        out_stats.pattern_subset_of.push(anc.clone());
                    }
                }
            }
        }
    }

    let tensor_order: Vec<String> = plan
        .tensor_plans
        .iter()
        .map(|tp| tp.tensor.clone())
        .collect();
    Ok((counts.into_einsum_stats(&name, &tensor_order), out_stats))
}

/// Uniform-model prefix counts for `n` items over the given rank order.
fn uniform_prefix(order: &[String], extents: &BTreeMap<String, u64>, n: f64) -> Vec<f64> {
    let mut p = vec![1.0f64];
    let mut u = 1.0f64;
    for r in order {
        u = (u * extents.get(r).copied().unwrap_or(1).max(1) as f64).min(1e300);
        let prev = *p.last().expect("non-empty");
        p.push(distinct_estimate(u, n).max(prev.min(n)));
    }
    if let Some(last) = p.last_mut() {
        *last = n;
    }
    let d = p.len() - 1;
    for k in (1..d).rev() {
        p[k] = p[k].min(p[k + 1]);
    }
    p
}

/// Expected format footprint in bits over estimated per-level counts
/// (mirrors `TensorFormat::footprint_from_parts`).
fn footprint_bits(
    fmt: &teaal_core::spec::TensorFormat,
    order: &[String],
    extents: &BTreeMap<String, u64>,
    prefix: &[f64],
) -> f64 {
    use teaal_core::spec::FormatType;
    let mut bits = 0.0f64;
    for (depth, rank) in order.iter().enumerate() {
        let default = teaal_core::spec::RankFormat::default();
        let rf = fmt.ranks.get(rank).unwrap_or(&default);
        let fibers = prefix[depth].max(0.0);
        let occ = prefix[depth + 1].max(0.0);
        let extent = extents.get(rank).copied().unwrap_or(0) as f64;
        bits += match rf.format {
            FormatType::C => rf.fhbits as f64 * fibers + (rf.cbits + rf.pbits) as f64 * occ,
            FormatType::U => rf.fhbits as f64 * fibers + rf.pbits as f64 * extent * fibers,
            FormatType::B => {
                rf.fhbits as f64 * fibers
                    + rf.cbits as f64 * extent * fibers
                    + rf.pbits as f64 * occ
            }
        };
    }
    bits
}

/// Applies the channel traffic model for one tensor: expected reads,
/// buffer bits, and DRAM fill bits under the buffet/eager/cache semantics
/// of [`crate::counters::TensorChannel`].
fn estimate_channel(
    cfg: &ChannelCfg,
    per_depth: &[(String, f64, f64)],
    loop_visits: &BTreeMap<String, f64>,
    models: &[Model],
    tensor: &str,
) -> EstimatedChannel {
    let mut est = EstimatedChannel::default();
    for (joined, t, _) in per_depth {
        est.reads += t;
        est.buffer_read_bits += t * cfg.bits_of(joined) as f64;
    }
    if !cfg.dram_backed {
        return est;
    }

    // Prefix counts of this tensor's model (for subtree sizing).
    let model = models.iter().find(|m| m.tensor == tensor);
    let eager_depth = cfg
        .eager_rank
        .as_deref()
        .and_then(|er| cfg.rank_bits.iter().position(|(r, _)| r == er));

    if let Some(lines) = cfg.cache_lines {
        // Cache: compulsory misses on distinct elements plus capacity
        // misses when the touched footprint exceeds the cache.
        let capacity = (lines as u64 * cfg.line_bits) as f64;
        let footprint: f64 = per_depth
            .iter()
            .map(|(j, _, n)| n * cfg.bits_of(j) as f64)
            .sum();
        let over = if footprint > capacity && footprint > 0.0 {
            1.0 - capacity / footprint
        } else {
            0.0
        };
        for (joined, t, n) in per_depth {
            let bits = cfg.bits_of(joined) as f64;
            let bits_per_line = (cfg.line_bits as f64).max(bits);
            let per_line = (bits_per_line / bits.max(1.0)).floor().max(1.0);
            let distinct = distinct_estimate(*n, *t);
            let miss_elems = distinct + (t - distinct).max(0.0) * over;
            est.fill_bits += miss_elems / per_line * bits_per_line;
        }
        return est;
    }

    // Buffet / fully-buffered path.
    let epochs = cfg
        .evict_on
        .as_deref()
        .map(|r| 1.0 + loop_visits.get(r).copied().unwrap_or(0.0))
        .unwrap_or(1.0);
    for (di, (joined, t, n)) in per_depth.iter().enumerate() {
        if let Some(ed) = eager_depth {
            if di > ed {
                continue; // deeper than the eager rank: on-chip only
            }
        }
        let distinct = distinct_estimate(*n, *t);
        let fills = if epochs > 1.0 {
            (epochs * distinct_estimate(*n, *t / epochs))
                .min(*t)
                .max(distinct)
        } else {
            distinct
        };
        let elem_bits = if eager_depth == Some(di) {
            // Eager: each fill brings the whole subtree below.
            let mut bits = cfg.bits_of(joined) as f64;
            if let Some(m) = model {
                let n_e = m.prefix.get(di + 1).copied().unwrap_or(1.0).max(1.0);
                for (j, (_, b)) in cfg.rank_bits.iter().enumerate().skip(di + 1) {
                    let n_j = m.prefix.get(j + 1).copied().unwrap_or(n_e);
                    bits += *b as f64 * (n_j / n_e);
                }
            }
            bits
        } else {
            cfg.bits_of(joined) as f64
        };
        est.fill_bits += fills * elem_bits;
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use teaal_core::TeaalSpec;
    use teaal_fibertree::{Tensor, TensorBuilder};

    fn base_spec() -> TeaalSpec {
        TeaalSpec::parse(concat!(
            "einsum:\n",
            "  declaration:\n",
            "    A: [K, M]\n",
            "    B: [K, N]\n",
            "    Z: [M, N]\n",
            "  expressions:\n",
            "    - Z[m, n] = A[k, m] * B[k, n]\n",
        ))
        .unwrap()
    }

    fn inputs() -> Vec<Tensor> {
        let a = TensorBuilder::new("A", &["K", "M"], &[16, 16])
            .entries((0..40).map(|i| (vec![(i * 7) % 16, (i * 3) % 16], 1.0 + i as f64)))
            .build()
            .unwrap();
        let b = TensorBuilder::new("B", &["K", "N"], &[16, 16])
            .entries((0..40).map(|i| (vec![(i * 5) % 16, (i * 11) % 16], 2.0 + i as f64)))
            .build()
            .unwrap();
        vec![a, b]
    }

    #[test]
    fn estimate_tracks_measured_ranking_on_small_spmspm() {
        let spec = base_spec();
        let ins = inputs();
        let data: Vec<TensorData> = ins.iter().cloned().map(TensorData::Owned).collect();
        let refs: Vec<&TensorData> = data.iter().collect();
        let stats = StatsCache::new();
        let mut rows = Vec::new();
        for order in [
            ["M", "N", "K"],
            ["M", "K", "N"],
            ["N", "M", "K"],
            ["N", "K", "M"],
            ["K", "M", "N"],
            ["K", "N", "M"],
        ] {
            let mut s = spec.clone();
            s.mapping
                .loop_order
                .insert("Z".into(), order.iter().map(|r| r.to_string()).collect());
            let sim = Simulator::new(s).unwrap();
            let measured = sim.run(&ins).unwrap();
            let estimated = estimate_data(&sim, &refs, &stats).unwrap();
            rows.push((order, measured, estimated));
        }
        for (order, m, e) in &rows {
            let ms = &m.einsums[0];
            let es = &e.einsums[0];
            eprintln!(
                "{order:?}: time {:.3e}/{:.3e} muls {}/{} adds {}/{} isect {}/{} dram {}/{} bufrd {}/{}",
                m.seconds,
                e.seconds,
                ms.muls,
                es.muls,
                ms.adds,
                es.adds,
                ms.intersections,
                es.intersections,
                m.dram_bytes(),
                e.dram_bytes(),
                ms.traffic.iter().map(|t| t.buffer_read_bytes).sum::<u64>(),
                es.traffic.iter().map(|t| t.buffer_read_bytes).sum::<u64>(),
            );
        }
        // The estimated best candidate must be within 2x of the measured
        // best under the measured model (ranking fidelity, not absolute).
        let measured_best = rows
            .iter()
            .map(|(_, m, _)| m.seconds)
            .fold(f64::INFINITY, f64::min);
        let est_best_order = rows
            .iter()
            .min_by(|a, b| a.2.seconds.partial_cmp(&b.2.seconds).unwrap())
            .unwrap();
        assert!(
            est_best_order.1.seconds <= measured_best * 2.0 + 1e-12,
            "estimator-chosen order {:?} measures {:.3e}s vs true best {:.3e}s",
            est_best_order.0,
            est_best_order.1.seconds,
            measured_best
        );
    }
}
