//! Two-phase mapper search validation (prune-then-verify).
//!
//! The analytical estimator prunes the loop-order space; the executable
//! engine verifies the survivors. These tests pin the contract that makes
//! pruning safe: on every SpMSpM catalog spec, the pruned search must
//! return the **same best loop order** as the exhaustive engine sweep,
//! with far fewer engine evaluations — and on random tensors, the
//! mapping it picks must measure within the safety margin of the true
//! optimum.

use proptest::prelude::*;
use teaal_core::TeaalSpec;
use teaal_fibertree::Tensor;
use teaal_sim::{
    explore_fast_with_context, explore_loop_orders_with_context, ExploreConfig, OpTable,
};
use teaal_workloads::genmat;

/// Inputs sized so every catalog spec's partitioning lowers and the
/// matrices are sparse enough to make loop orders genuinely differ.
fn inputs(seed: u64) -> Vec<Tensor> {
    let a = genmat::uniform("A", &["K", "M"], 48, 48, 320, seed);
    let b = genmat::uniform("B", &["K", "N"], 48, 40, 280, seed + 1);
    vec![a, b]
}

/// Per-spec search-space budget: the candidate universe both search modes
/// share (first `budget` lowerable permutations). ExTensor's Z has nine
/// iteration ranks (9! permutations), so its exhaustive reference is
/// capped to keep the oracle sweep tractable.
fn budget_for(label: &str) -> usize {
    match label {
        "ExTensor" => 36,
        _ => 720,
    }
}

#[test]
fn pruned_search_matches_exhaustive_top1_on_all_catalog_specs() {
    let ins = inputs(7);
    for (label, yaml) in teaal_fixtures::spmspm_specs() {
        let spec = TeaalSpec::parse(yaml).unwrap();
        let cfg = ExploreConfig {
            budget: budget_for(label),
            ..ExploreConfig::default()
        };
        let exhaustive =
            explore_loop_orders_with_context(&spec, "Z", &ins, OpTable::arithmetic(), &cfg, None)
                .unwrap_or_else(|e| panic!("{label}: exhaustive search failed: {e}"));
        let fast = explore_fast_with_context(&spec, "Z", &ins, OpTable::arithmetic(), &cfg, None)
            .unwrap_or_else(|e| panic!("{label}: pruned search failed: {e}"));

        assert_eq!(
            fast.candidates[0].loop_order,
            exhaustive[0].loop_order,
            "{label}: pruned search must return the exhaustive winner \
             (fast {:?} @ {:.3e}s vs exhaustive {:?} @ {:.3e}s)",
            fast.candidates[0].loop_order,
            fast.candidates[0].seconds,
            exhaustive[0].loop_order,
            exhaustive[0].seconds,
        );
        assert_eq!(
            fast.estimated.len(),
            exhaustive.len(),
            "{label}: both modes must consider the same candidate universe"
        );
        assert!(
            fast.engine_evals <= cfg.top_k,
            "{label}: engine evaluations bounded by top_k"
        );
        // The headline claim on the 5-rank spaces: ≥ 5x fewer engine runs.
        if matches!(label, "Gamma" | "OuterSPACE") {
            assert!(
                fast.engine_evals * 5 <= exhaustive.len(),
                "{label}: pruned search used {} engine evals vs {} exhaustive \
                 — must be at least 5x cheaper",
                fast.engine_evals,
                exhaustive.len(),
            );
        }
    }
}

#[test]
fn pruned_search_holds_across_seeds_on_gamma() {
    // The winner-retention property must not be an artifact of one input.
    let spec = TeaalSpec::parse(teaal_fixtures::GAMMA_EM).unwrap();
    for seed in [11u64, 23, 40] {
        let ins = inputs(seed);
        let exhaustive = explore_loop_orders_with_context(
            &spec,
            "Z",
            &ins,
            OpTable::arithmetic(),
            &ExploreConfig::default(),
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
        assert_eq!(
            fast.candidates[0].loop_order, exhaustive[0].loop_order,
            "seed {seed}: pruned winner diverged"
        );
    }
}

/// Plain (architecture-free) SpMSpM spec for the property test: every
/// loop order lowers, so the estimator is exercised on the full 3-rank
/// permutation space.
fn plain_spec() -> TeaalSpec {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On random tensors, the mapping chosen by the pruned search must
    /// measure within the configured safety margin of the true
    /// (exhaustively measured) optimum — the property that makes the
    /// estimator safe to prune with.
    #[test]
    fn pruned_winner_measures_within_margin_of_true_optimum(
        seed in 0u64..1000,
        nnz_a in 40usize..400,
        nnz_b in 40usize..400,
    ) {
        let spec = plain_spec();
        let a = genmat::uniform("A", &["K", "M"], 32, 32, nnz_a, seed);
        let b = genmat::uniform("B", &["K", "N"], 32, 32, nnz_b, seed + 1);
        let ins = vec![a, b];
        let exhaustive = explore_loop_orders_with_context(
            &spec,
            "Z",
            &ins,
            OpTable::arithmetic(),
            &ExploreConfig::default(),
            None,
        )
        .unwrap();
        let cfg = ExploreConfig::default();
        let fast = explore_fast_with_context(&spec, "Z", &ins, OpTable::arithmetic(), &cfg, None).unwrap();
        let best = exhaustive[0].seconds;
        let chosen = fast.candidates[0].seconds;
        prop_assert!(
            chosen <= best * cfg.margin + 1e-15,
            "chosen mapping measures {chosen:.3e}s vs optimum {best:.3e}s \
             (margin {})", cfg.margin
        );
    }
}
