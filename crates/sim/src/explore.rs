//! Mapping-space exploration (paper §10, future work).
//!
//! The paper positions TeAAL as the middle level of a hierarchical
//! design-space-exploration flow: faster than RTL, higher fidelity than
//! analytical models. This module provides the inner loop of such a flow:
//! enumerate candidate loop orders for one Einsum of a specification,
//! evaluate the candidates, and rank the mappings by the modeled
//! objective. Everything else in the specification (partitioning, formats,
//! architecture, bindings) stays fixed, demonstrating the separation of
//! concerns of Fig. 7.
//!
//! Two search modes share one candidate universe (permutations in Heap
//! order, skipping orders that fail to lower):
//!
//! - [`explore_loop_orders_with_context`] — the oracle: run every
//!   candidate through the executable engine on real tensors.
//! - [`explore_fast_with_context`] — the two-phase fast path: score every
//!   candidate with the analytical estimator ([`estimate_data`]), keep the top-K
//!   within a safety margin of the estimated best, and run only those
//!   survivors through the engine, re-ranked by exact results. Per
//!   candidate the estimator is O(plan size) instead of O(nnz), so large
//!   search spaces cost a handful of engine runs instead of hundreds.
//!
//! Both modes build candidate simulators and engine-verify candidates the
//! same way (one `Search` per call), and both fan engine runs out on the
//! shared worker pool ([`crate::par`]) in rounds that evaluate exactly the
//! successes still missing, so any thread count returns the sequential
//! result.

use std::collections::BTreeMap;
use std::sync::Arc;

use teaal_core::TeaalSpec;
use teaal_fibertree::stats::StatsCache;
use teaal_fibertree::{Tensor, TensorData};

use crate::error::SimError;
use crate::estimate::estimate_data;
use crate::limits::{CancelToken, EvalLimits};
use crate::model::{compress, Simulator};
use crate::ops::OpTable;
use crate::par;
use crate::pipeline::EvalContext;
use crate::report::SimReport;

/// What to optimize when ranking mappings.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Objective {
    /// Modeled execution time (bottleneck analysis).
    #[default]
    Time,
    /// Modeled energy.
    Energy,
    /// DRAM traffic in bytes.
    Traffic,
}

/// One evaluated mapping candidate.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The loop order tried (outermost first).
    pub loop_order: Vec<String>,
    /// Modeled execution time in seconds.
    pub seconds: f64,
    /// Modeled energy in joules.
    pub energy_joules: f64,
    /// DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Per-component busy seconds summed across fusion blocks (the
    /// bottleneck-analysis breakdown behind `seconds`) — what the CLI
    /// prints so a ranking explains *why* a mapping wins.
    pub component_seconds: BTreeMap<String, f64>,
}

/// Builds a [`Candidate`] from one report, folding the per-block
/// component times into a single breakdown.
fn candidate_from(loop_order: Vec<String>, report: &SimReport) -> Candidate {
    let mut component_seconds: BTreeMap<String, f64> = BTreeMap::new();
    for block in &report.blocks {
        for (component, secs) in &block.component_seconds {
            *component_seconds.entry(component.clone()).or_insert(0.0) += secs;
        }
    }
    Candidate {
        loop_order,
        seconds: report.seconds,
        energy_joules: report.energy_joules,
        dram_bytes: report.dram_bytes(),
        component_seconds,
    }
}

impl Candidate {
    /// The candidate's score under `objective` (lower is better).
    pub fn score(&self, objective: Objective) -> f64 {
        match objective {
            Objective::Time => self.seconds,
            Objective::Energy => self.energy_joules,
            Objective::Traffic => self.dram_bytes as f64,
        }
    }
}

/// Configuration for the two-phase [`explore_fast_with_context`] search.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// What to optimize (both phases rank by this).
    pub objective: Objective,
    /// Maximum number of candidates admitted to the estimated universe
    /// (candidates that fail to lower are skipped, not charged).
    pub budget: usize,
    /// Maximum number of estimated candidates verified by the engine.
    /// The default (12) is sized for flat cost landscapes: when many
    /// mappings measure within a few percent of each other, estimator
    /// error exceeds the spread between candidates and the true winner
    /// can sit a handful of ranks down the estimated order.
    pub top_k: usize,
    /// Safety margin on the estimated best score: only candidates with
    /// `estimate ≤ best_estimate · margin` survive to verification (and
    /// at most `top_k` of them). Raise it when the estimator is expected
    /// to be less faithful (heavy value cancellation, skewed data).
    pub margin: f64,
    /// Worker threads for the engine-verification phase (the estimation
    /// sweep is sequential — it is orders of magnitude cheaper).
    pub threads: usize,
    /// Search-wide resource budgets. One [`CancelToken`] is created for
    /// the whole search and shared by every candidate evaluation, so
    /// the deadline and step budget bound the *search*, not each
    /// candidate; a trip aborts with the structured error.
    pub limits: EvalLimits,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            objective: Objective::Time,
            budget: 720,
            top_k: 12,
            margin: 1.5,
            threads: 1,
            limits: EvalLimits::default(),
        }
    }
}

/// Result of a two-phase [`explore_fast_with_context`] search.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// Engine-verified survivors, re-ranked by *measured* objective
    /// (best first). `candidates[0]` is the search's answer.
    pub candidates: Vec<Candidate>,
    /// Every estimated candidate, ranked by *estimated* objective (best
    /// first) — the full pre-pruning picture, for margin diagnostics.
    pub estimated: Vec<Candidate>,
    /// Executable-engine evaluations performed (the expensive count).
    pub engine_evals: usize,
    /// Analytical estimator evaluations performed.
    pub estimator_evals: usize,
}

/// Explores loop orders for `einsum` within `spec`, evaluating each
/// candidate on `inputs` and returning candidates sorted by `objective`
/// (best first).
///
/// All permutations of the Einsum's derived iteration ranks are tried,
/// until `max_candidates` have been *successfully evaluated* (permutation
/// count grows factorially; 720 covers six ranks exhaustively).
/// Candidates whose loop order fails to lower — e.g. orders incompatible
/// with the fixed partitioning — are skipped and do not consume the
/// budget, so a small `max_candidates` still returns that many valid
/// mappings when they exist later in permutation order.
///
/// Candidate evaluation fans out across up to `threads` workers of the
/// shared pool ([`crate::par`]), in rounds: each round evaluates exactly
/// as many next candidates, in permutation order, as successes are still
/// missing. The returned set — and its ranking — is identical to the
/// sequential exploration for any thread count, and no candidate past the
/// sequential stopping point is evaluated. Each candidate simulation
/// itself runs sequentially (the fan-out is across mappings, not within
/// one).
///
/// With a shared [`EvalContext`], candidate specs compile through the
/// context's plan cache and every engine run shares the transform cache,
/// so the search never re-transforms an input it has already prepared.
/// Results are bit-identical with or without a context.
///
/// # Errors
///
/// Returns [`SimError`] if the base specification fails to lower or if
/// every candidate fails.
#[allow(clippy::too_many_arguments)]
pub fn explore_loop_orders_with_context(
    spec: &TeaalSpec,
    einsum: &str,
    inputs: &[Tensor],
    ops: OpTable,
    objective: Objective,
    max_candidates: usize,
    threads: usize,
    context: Option<&Arc<EvalContext>>,
) -> Result<Vec<Candidate>, SimError> {
    let orders = candidate_orders(spec, einsum)?;
    let datas = compressed_inputs(inputs)?;
    let refs: Vec<&TensorData> = datas.iter().collect();
    let search = Search {
        spec,
        einsum,
        ops,
        inputs: &refs,
        context,
    };

    // A candidate that fails to lower is skipped, not charged against the
    // budget (counting failures used to starve the budget and return
    // fewer valid mappings than exist). Spacetime entries may reference
    // ranks by name; they stay valid because the rank *set* is unchanged.
    let mut results = search.verify_until(&orders, max_candidates, threads, None)?;
    if results.is_empty() {
        return Err(SimError::Spec(teaal_core::SpecError::Validation {
            context: format!("einsum {einsum}"),
            message: "no loop-order candidate lowered and executed successfully".into(),
        }));
    }
    sort_by_score(&mut results, objective);
    Ok(results)
}

/// Two-phase pruned search: estimate **all** candidates analytically,
/// keep the [`ExploreConfig::top_k`] best within
/// [`ExploreConfig::margin`] of the estimated optimum, and verify only
/// those survivors on the executable engine (the oracle), re-ranked by
/// exact results.
///
/// The estimator never touches tensor data — per-tensor statistics are
/// computed once (one O(nnz) pass per input, memoized) and every
/// candidate is then scored from statistics alone — so the sweep over
/// hundreds of loop orders costs about as much as a single engine run.
/// Pruning is heuristic: a mapping whose true cost the estimator
/// overstates by more than the margin can be cut. On the four SpMSpM
/// catalog specs the default margin keeps the true winner (pinned by
/// integration tests); widen it for adversarial value distributions.
///
/// With a shared [`EvalContext`], the estimation sweep reads per-tensor
/// statistics from the context's [`StatsCache`], candidate specs compile
/// through the plan cache, and the verification phase shares the
/// transform cache — a warm context re-runs the whole search with zero
/// redundant input transforms (pinned by the `pipeline_cache` suite).
/// Results are bit-identical with or without a context.
///
/// # Errors
///
/// As [`explore_loop_orders_with_context`], plus the same error when
/// every survivor fails to execute.
pub fn explore_fast_with_context(
    spec: &TeaalSpec,
    einsum: &str,
    inputs: &[Tensor],
    ops: OpTable,
    config: &ExploreConfig,
    context: Option<&Arc<EvalContext>>,
) -> Result<ExploreOutcome, SimError> {
    let orders = candidate_orders(spec, einsum)?;
    // One token for the whole search: the deadline anchors here and
    // every candidate (estimation or engine) charges the same budget.
    let token = config
        .limits
        .is_limited()
        .then(|| CancelToken::new(&config.limits));

    // Phase 1: estimate every lowerable candidate from cached statistics.
    // Both phases borrow one compressed copy of the inputs.
    let datas = compressed_inputs(inputs)?;
    let refs: Vec<&TensorData> = datas.iter().collect();
    let search = Search {
        spec,
        einsum,
        ops,
        inputs: &refs,
        context,
    };
    let local_stats;
    let cache: &StatsCache = match context {
        Some(ctx) => ctx.stats(),
        None => {
            local_stats = StatsCache::new();
            &local_stats
        }
    };
    let mut estimated: Vec<Candidate> = Vec::new();
    let mut estimator_evals = 0usize;
    for candidate in &orders {
        if estimated.len() >= config.budget {
            break;
        }
        // Candidate boundary: a tripped search budget aborts between
        // estimates, never mid-way through one.
        if let Some(t) = &token {
            t.checkpoint()?;
        }
        let Some(sim) = search.simulator(candidate) else {
            continue;
        };
        estimator_evals += 1;
        let Ok(report) = estimate_data(&sim, &refs, cache) else {
            continue;
        };
        estimated.push(candidate_from(candidate.clone(), &report));
    }
    if estimated.is_empty() {
        return Err(SimError::Spec(teaal_core::SpecError::Validation {
            context: format!("einsum {einsum}"),
            message: "no loop-order candidate lowered and estimated successfully".into(),
        }));
    }
    sort_by_score(&mut estimated, config.objective);

    // Phase 2: engine-verify the survivors within the safety margin.
    let best = estimated[0].score(config.objective);
    let cutoff = best * config.margin.max(1.0);
    let survivors: Vec<Vec<String>> = estimated
        .iter()
        .take(config.top_k.max(1))
        .filter(|c| c.score(config.objective) <= cutoff || best == 0.0)
        .map(|c| c.loop_order.clone())
        .collect();

    let engine_evals = survivors.len();
    let mut candidates =
        search.verify_until(&survivors, survivors.len(), config.threads, token.as_ref())?;
    if candidates.is_empty() {
        return Err(SimError::Spec(teaal_core::SpecError::Validation {
            context: format!("einsum {einsum}"),
            message: "no surviving candidate executed successfully".into(),
        }));
    }
    sort_by_score(&mut candidates, config.objective);

    Ok(ExploreOutcome {
        candidates,
        estimated,
        engine_evals,
        estimator_evals,
    })
}

/// The search inputs, compressed once: every candidate of a search borrows
/// them instead of compressing owned trees per run.
fn compressed_inputs(inputs: &[Tensor]) -> Result<Vec<TensorData>, SimError> {
    inputs
        .iter()
        .map(|t| compress(t).map(TensorData::Compressed))
        .collect()
}

/// All loop-order permutations for `einsum` in Heap order — the shared
/// candidate universe of every search mode.
fn candidate_orders(spec: &TeaalSpec, einsum: &str) -> Result<Vec<Vec<String>>, SimError> {
    let base = Simulator::new(spec.clone())?;
    let plan = base
        .plans()
        .iter()
        .find(|p| p.equation.name() == einsum)
        .ok_or_else(|| SimError::MissingTensor {
            tensor: einsum.to_string(),
        })?;
    let ranks: Vec<String> = plan.loop_ranks.iter().map(|l| l.name.clone()).collect();
    let mut orders: Vec<Vec<String>> = Vec::new();
    let mut order = ranks;
    permute(&mut order, 0, &mut |candidate| {
        orders.push(candidate.to_vec());
    });
    Ok(orders)
}

/// Sorts candidates best-first under `objective`, breaking exact score
/// ties by loop order so the ranking is deterministic regardless of the
/// order candidates were evaluated in (the pruned and exhaustive searches
/// must agree on the winner even when two mappings cost the same).
fn sort_by_score(results: &mut [Candidate], objective: Objective) {
    // `total_cmp`, not `partial_cmp().expect(...)`: a degenerate spec
    // (zero bandwidth/clock) can model a NaN score, which must rank
    // deterministically (worst) instead of panicking mid-sort.
    results.sort_by(|a, b| {
        a.score(objective)
            .total_cmp(&b.score(objective))
            .then_with(|| a.loop_order.cmp(&b.loop_order))
    });
}

/// What every candidate of one search shares: everything but the loop
/// order.
struct Search<'a> {
    spec: &'a TeaalSpec,
    einsum: &'a str,
    ops: OpTable,
    inputs: &'a [&'a TensorData],
    context: Option<&'a Arc<EvalContext>>,
}

impl Search<'_> {
    /// The simulator for one candidate loop order, compiled through the
    /// context's plan cache when there is one; `None` when the order fails
    /// to lower.
    fn simulator(&self, order: &[String]) -> Option<Simulator> {
        let mut s = self.spec.clone();
        s.mapping
            .loop_order
            .insert(self.einsum.to_string(), order.to_vec());
        match self.context {
            Some(ctx) => ctx.simulator(&s).ok(),
            None => Simulator::new(s).ok(),
        }
    }

    /// Runs one candidate through the engine, sequentially (the fan-out
    /// is across candidates, not within one). `Ok(None)` skips a
    /// candidate that fails to lower or execute. A budget, deadline or
    /// cancel trip of the search-wide `token` is `Err`: it aborts the
    /// whole search instead of silently skipping the candidate.
    fn verify(
        &self,
        order: &[String],
        token: Option<&CancelToken>,
    ) -> Result<Option<Candidate>, SimError> {
        if let Some(t) = token {
            t.checkpoint()?;
        }
        if teaal_core::failpoint::hit("explore.candidate").is_err() {
            return Ok(None);
        }
        let Some(sim) = self.simulator(order) else {
            return Ok(None);
        };
        let mut sim = sim.with_ops(self.ops).with_threads(1);
        if let Some(t) = token {
            sim = sim.with_cancel(t.clone());
        }
        match sim.run_data(self.inputs) {
            Ok(report) => Ok(Some(candidate_from(order.to_vec(), &report))),
            Err(
                e @ (SimError::DeadlineExceeded { .. }
                | SimError::BudgetExceeded { .. }
                | SimError::Cancelled { .. }),
            ) => Err(e),
            Err(_) => Ok(None),
        }
    }

    /// Engine-verifies `orders` in index order until `max_successes` (at
    /// least one) candidates succeed, in rounds on the worker pool
    /// ([`crate::par`]): each round verifies exactly as many next
    /// candidates as successes are still missing. No candidate past the
    /// sequential stopping point is ever run, and the result is the
    /// sequential one for any thread count.
    ///
    /// A candidate whose run panics is skipped, like one that fails to
    /// lower. The first budget trip in index order aborts the search,
    /// once its round has finished.
    fn verify_until(
        &self,
        orders: &[Vec<String>],
        max_successes: usize,
        threads: usize,
        token: Option<&CancelToken>,
    ) -> Result<Vec<Candidate>, SimError> {
        let want = max_successes.max(1);
        let mut results = Vec::new();
        let mut next = 0;
        while results.len() < want && next < orders.len() {
            let round = &orders[next..orders.len().min(next + want - results.len())];
            next += round.len();
            for res in par::map(round, threads, |order| self.verify(order, token)) {
                if let Some(c) = res.unwrap_or(Ok(None))? {
                    results.push(c);
                }
            }
        }
        Ok(results)
    }
}

/// Heap's algorithm, calling `visit` for every permutation of `items`.
fn permute(items: &mut [String], k: usize, visit: &mut impl FnMut(&[String])) {
    if k == items.len() {
        visit(items);
        return;
    }
    // Recursive Heap variant: stable enough for the small rank counts
    // mappings have (≤ 9 in every spec in this repository).
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teaal_fibertree::TensorBuilder;

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
        let a = TensorBuilder::new("A", &["K", "M"], &[8, 8])
            .entries((0..8).map(|i| (vec![i, (i * 3) % 8], 1.0 + i as f64)))
            .build()
            .unwrap();
        let b = TensorBuilder::new("B", &["K", "N"], &[8, 8])
            .entries((0..8).map(|i| (vec![i, (i * 5) % 8], 2.0 + i as f64)))
            .build()
            .unwrap();
        vec![a, b]
    }

    #[test]
    fn explores_all_six_permutations_of_three_ranks() {
        let results = explore_loop_orders_with_context(
            &base_spec(),
            "Z",
            &inputs(),
            OpTable::arithmetic(),
            Objective::Time,
            720,
            1,
            None,
        )
        .unwrap();
        assert_eq!(results.len(), 6);
        // Sorted best-first.
        for w in results.windows(2) {
            assert!(w[0].seconds <= w[1].seconds);
        }
        // Every candidate is a permutation of {M, N, K}.
        for c in &results {
            let mut lo = c.loop_order.clone();
            lo.sort();
            assert_eq!(lo, vec!["K", "M", "N"]);
        }
    }

    #[test]
    fn candidate_cap_is_respected() {
        let results = explore_loop_orders_with_context(
            &base_spec(),
            "Z",
            &inputs(),
            OpTable::arithmetic(),
            Objective::Traffic,
            2,
            1,
            None,
        )
        .unwrap();
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn objectives_rank_differently_when_models_disagree() {
        let by_time = explore_loop_orders_with_context(
            &base_spec(),
            "Z",
            &inputs(),
            OpTable::arithmetic(),
            Objective::Time,
            720,
            1,
            None,
        )
        .unwrap();
        let by_traffic = explore_loop_orders_with_context(
            &base_spec(),
            "Z",
            &inputs(),
            OpTable::arithmetic(),
            Objective::Traffic,
            720,
            1,
            None,
        )
        .unwrap();
        // Same candidate set either way.
        assert_eq!(by_time.len(), by_traffic.len());
        // Traffic ordering is by dram_bytes.
        for w in by_traffic.windows(2) {
            assert!(w[0].dram_bytes <= w[1].dram_bytes);
        }
    }

    /// SIGMA-shaped spec: flattening (M, K0) leaves B's K0 coverable only
    /// when K1 precedes MK00 in the loop order, so 12 of the 24
    /// permutations fail to lower — including a contiguous block right
    /// after the first 8 successes in Heap order.
    fn partitioning_constrained_spec() -> TeaalSpec {
        TeaalSpec::parse(concat!(
            "einsum:\n",
            "  declaration:\n",
            "    A: [K, M]\n",
            "    B: [K, N]\n",
            "    Z: [M, N]\n",
            "  expressions:\n",
            "    - Z[m, n] = A[k, m] * B[k, n]\n",
            "mapping:\n",
            "  partitioning:\n",
            "    Z:\n",
            "      K: [uniform_shape(4)]\n",
            "      (M, K0): [flatten()]\n",
            "      MK0: [uniform_occupancy(A.4)]\n",
            "  loop-order:\n",
            "    Z: [K1, MK01, MK00, N]\n",
        ))
        .unwrap()
    }

    #[test]
    fn failed_candidates_do_not_consume_the_budget() {
        // Heap order visits 8 lowerable candidates, then 3 that fail to
        // lower, and more lowerable ones after. A budget of 10 must
        // return 10 evaluated candidates — the buggy accounting charged
        // the failures against the budget and returned only 8.
        let results = explore_loop_orders_with_context(
            &partitioning_constrained_spec(),
            "Z",
            &inputs(),
            OpTable::arithmetic(),
            Objective::Time,
            10,
            1,
            None,
        )
        .unwrap();
        assert_eq!(
            results.len(),
            10,
            "failing candidates must be skipped, not charged against max_candidates"
        );
        // Exhaustively, exactly the 12 valid permutations come back.
        let all = explore_loop_orders_with_context(
            &partitioning_constrained_spec(),
            "Z",
            &inputs(),
            OpTable::arithmetic(),
            Objective::Time,
            720,
            1,
            None,
        )
        .unwrap();
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn threaded_exploration_matches_sequential() {
        // Fanning candidate evaluation across workers must not change the
        // candidate set, scores, or ranking — including when the budget
        // cuts off mid-chunk.
        for budget in [2usize, 10, 720] {
            let seq = explore_loop_orders_with_context(
                &partitioning_constrained_spec(),
                "Z",
                &inputs(),
                OpTable::arithmetic(),
                Objective::Time,
                budget,
                1,
                None,
            )
            .unwrap();
            for threads in [2usize, 4] {
                let par = explore_loop_orders_with_context(
                    &partitioning_constrained_spec(),
                    "Z",
                    &inputs(),
                    OpTable::arithmetic(),
                    Objective::Time,
                    budget,
                    threads,
                    None,
                )
                .unwrap();
                assert_eq!(seq.len(), par.len());
                for (a, b) in seq.iter().zip(&par) {
                    assert_eq!(a.loop_order, b.loop_order);
                    assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
                    assert_eq!(a.energy_joules.to_bits(), b.energy_joules.to_bits());
                    assert_eq!(a.dram_bytes, b.dram_bytes);
                }
            }
        }
    }

    #[test]
    fn unknown_einsum_is_an_error() {
        let err = explore_loop_orders_with_context(
            &base_spec(),
            "Q",
            &inputs(),
            OpTable::arithmetic(),
            Objective::Time,
            10,
            1,
            None,
        );
        assert!(err.is_err());
    }

    #[test]
    fn all_candidates_compute_the_same_result() {
        // Mapping changes performance, never the answer (§2.3).
        let spec = base_spec();
        let ins = inputs();
        let mut reference: Option<teaal_fibertree::TensorData> = None;
        let results = explore_loop_orders_with_context(
            &spec,
            "Z",
            &ins,
            OpTable::arithmetic(),
            Objective::Time,
            720,
            1,
            None,
        )
        .unwrap();
        for c in &results {
            let mut s = spec.clone();
            s.mapping
                .loop_order
                .insert("Z".into(), c.loop_order.clone());
            let report = Simulator::new(s).unwrap().run(&ins).unwrap();
            let z = report.final_output().unwrap().clone();
            if let Some(r) = &reference {
                assert_eq!(r.max_abs_diff(&z), 0.0);
            }
            reference = Some(z);
        }
    }
}

#[cfg(test)]
mod fast_tests {
    use super::*;
    use teaal_fibertree::TensorBuilder;

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
            .entries((0..48).map(|i| (vec![(i * 7) % 16, (i * 3) % 16], 1.0 + i as f64)))
            .build()
            .unwrap();
        let b = TensorBuilder::new("B", &["K", "N"], &[16, 16])
            .entries((0..48).map(|i| (vec![(i * 5) % 16, (i * 11) % 16], 2.0 + i as f64)))
            .build()
            .unwrap();
        vec![a, b]
    }

    #[test]
    fn fast_search_agrees_with_exhaustive_top1() {
        let spec = base_spec();
        let ins = inputs();
        let exhaustive = explore_loop_orders_with_context(
            &spec,
            "Z",
            &ins,
            OpTable::arithmetic(),
            Objective::Time,
            720,
            1,
            None,
        )
        .unwrap();
        let fast = explore_fast_with_context(
            &spec,
            "Z",
            &ins,
            OpTable::arithmetic(),
            &ExploreConfig::default(),
            None,
        )
        .unwrap();
        assert!(fast.engine_evals < exhaustive.len());
        assert_eq!(fast.estimated.len(), exhaustive.len());
        // The verified winner scores no worse than the exhaustive winner
        // (loop orders may tie; compare scores, not labels).
        assert!(fast.candidates[0].seconds <= exhaustive[0].seconds + 1e-15);
    }

    #[test]
    fn fast_search_reports_eval_counts() {
        let fast = explore_fast_with_context(
            &base_spec(),
            "Z",
            &inputs(),
            OpTable::arithmetic(),
            &ExploreConfig {
                top_k: 2,
                ..ExploreConfig::default()
            },
            None,
        )
        .unwrap();
        assert!(fast.engine_evals <= 2);
        assert_eq!(fast.estimator_evals, 6);
        assert!(!fast.candidates.is_empty());
        assert!(fast.candidates.len() <= fast.engine_evals);
    }

    #[test]
    fn fast_search_is_deterministic_across_threads() {
        let spec = base_spec();
        let ins = inputs();
        let seq = explore_fast_with_context(
            &spec,
            "Z",
            &ins,
            OpTable::arithmetic(),
            &ExploreConfig::default(),
            None,
        )
        .unwrap();
        let par = explore_fast_with_context(
            &spec,
            "Z",
            &ins,
            OpTable::arithmetic(),
            &ExploreConfig {
                threads: 4,
                ..ExploreConfig::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(seq.candidates.len(), par.candidates.len());
        for (a, b) in seq.candidates.iter().zip(&par.candidates) {
            assert_eq!(a.loop_order, b.loop_order);
            assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
        }
    }
}
