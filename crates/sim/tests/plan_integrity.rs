//! Malformed plans must fail loudly, not silently.
//!
//! The engine used to fabricate `leaf<N>` rank names when an access
//! descended deeper than its tensor's working order, instrumenting
//! phantom ranks that no hardware binding could ever reference. That is
//! now a structured [`SimError::PhantomRank`].

use std::collections::BTreeMap;

use teaal_core::TeaalSpec;
use teaal_fibertree::{IntersectPolicy, Tensor, TensorData};
use teaal_sim::engine::BoundaryCache;
use teaal_sim::{Engine, Instruments, OpTable, SimError, Simulator};

fn spmspm_spec() -> TeaalSpec {
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

fn inputs() -> (TensorData, TensorData) {
    let a = Tensor::from_entries(
        "A",
        &["K", "M"],
        &[4, 4],
        vec![(vec![0, 1], 1.0), (vec![2, 3], 2.0)],
    )
    .unwrap();
    let b = Tensor::from_entries(
        "B",
        &["K", "N"],
        &[4, 4],
        vec![(vec![0, 0], 3.0), (vec![2, 2], 4.0)],
    )
    .unwrap();
    (TensorData::Owned(a), TensorData::Owned(b))
}

#[test]
fn descending_past_the_working_order_is_a_phantom_rank_error() {
    let sim = Simulator::new(spmspm_spec()).unwrap();
    // Malform the lowered plan: drop B's bottom working rank so the
    // access's second descent has no rank to consume.
    let mut plan = sim.plans()[0].clone();
    let bp = plan
        .tensor_plans
        .iter_mut()
        .find(|tp| tp.tensor == "B")
        .expect("B is planned");
    bp.working_order.truncate(1);

    let extents: BTreeMap<String, u64> = [("K", 4u64), ("M", 4), ("N", 4)]
        .map(|(r, e)| (r.to_string(), e))
        .into();
    let engine = Engine::new(
        &plan,
        OpTable::arithmetic(),
        IntersectPolicy::TwoFinger,
        extents,
    );
    let (a, b) = inputs();
    let env: BTreeMap<String, &TensorData> = [("A".to_string(), &a), ("B".to_string(), &b)].into();
    let mut instruments = Instruments::default();
    let mut boundaries = BoundaryCache::new();

    let err = engine
        .execute_data(&env, &mut instruments, &mut boundaries)
        .expect_err("the malformed plan must not execute");
    match err {
        SimError::PhantomRank {
            tensor,
            depth,
            working_order,
        } => {
            assert_eq!(tensor, "B");
            assert_eq!(depth, 1);
            // The default loop order is [M, N, K], so B's concordant
            // working order was [N, K] before the truncation.
            assert_eq!(working_order, vec!["N".to_string()]);
        }
        other => panic!("expected PhantomRank, got {other}"),
    }
    let msg = SimError::PhantomRank {
        tensor: "B".into(),
        depth: 1,
        working_order: vec!["K".into()],
    }
    .to_string();
    assert!(msg.contains("malformed"), "{msg}");
}

#[test]
fn intact_plans_still_execute() {
    let sim = Simulator::new(spmspm_spec()).unwrap();
    let (a, b) = inputs();
    let report = sim.run_data(&[&a, &b]).unwrap();
    assert_eq!(report.final_output().unwrap().get(&[1, 0]), Some(3.0));
    assert_eq!(report.final_output().unwrap().get(&[3, 2]), Some(8.0));
}
