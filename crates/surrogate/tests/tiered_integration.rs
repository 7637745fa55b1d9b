//! Integration and property tests of the two-tier backend: equivalence
//! with the exact evaluator under always-fallback, and drop-in operation
//! behind every existing `EvalBackend` seam (`DseEnv`, `DseSearchSpace`,
//! `ThresholdRule::calibrate`) with no consumer-side special-casing.

use ax_agents::env::Env;
use ax_dse::backend::{EvalBackend, EvalContext, Evaluator};
use ax_dse::config::AxConfig;
use ax_dse::env::DseEnv;
use ax_dse::explore::{explore_backend, AgentKind, ExploreOptions};
use ax_dse::reward::RewardParams;
use ax_dse::search_adapter::DseSearchSpace;
use ax_dse::thresholds::ThresholdRule;
use ax_operators::{AdderId, MulId, OperatorLibrary};
use ax_surrogate::{SurrogateSettings, TieredBackend};
use ax_workloads::dot::DotProduct;
use ax_workloads::matmul::MatMul;
use ax_workloads::Workload;
use proptest::prelude::*;

fn exact(workload: &dyn Workload, input_seed: u64) -> Evaluator {
    Evaluator::new(workload, &OperatorLibrary::evoapprox(), input_seed).unwrap()
}

fn tiered_fallback(workload: &dyn Workload, input_seed: u64) -> TieredBackend<Evaluator> {
    TieredBackend::from_exact(
        exact(workload, input_seed),
        SurrogateSettings::always_fallback(),
    )
}

#[test]
fn always_fallback_is_metric_identical_on_enumerated_spaces() {
    for input_seed in [3, 11] {
        let wl = MatMul::new(4);
        let mut tiered = tiered_fallback(&wl, input_seed);
        let mut reference = exact(&wl, input_seed);
        for c in AxConfig::enumerate(reference.dims()) {
            assert_eq!(
                tiered.evaluate(&c).unwrap(),
                reference.evaluate(&c).unwrap(),
                "{c} (input seed {input_seed})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary query sequences (duplicates included) against the
    /// always-fallback tiered backend match the exact evaluator
    /// query-for-query, through both single and batched evaluation.
    #[test]
    fn always_fallback_matches_exact_on_random_query_sequences(
        seq in prop::collection::vec((0usize..6, 0usize..6, 0u64..16), 1..40),
        batched in (0u8..2).prop_map(|b| b == 1),
    ) {
        let wl = DotProduct::new(8);
        let mut tiered = tiered_fallback(&wl, 7);
        let mut reference = exact(&wl, 7);
        let configs: Vec<AxConfig> = seq
            .into_iter()
            .map(|(a, m, vars)| AxConfig {
                adder: AdderId(a),
                mul: MulId(m),
                vars,
            })
            .collect();
        if batched {
            let t = tiered.evaluate_batch(&configs).unwrap();
            let r = reference.evaluate_batch(&configs).unwrap();
            prop_assert_eq!(t, r);
        } else {
            for c in &configs {
                prop_assert_eq!(tiered.evaluate(c).unwrap(), reference.evaluate(c).unwrap());
            }
        }
        prop_assert_eq!(tiered.stats().surrogate_answers, 0);
    }
}

#[test]
fn threshold_calibration_is_backend_agnostic() {
    let wl = MatMul::new(4);
    let tiered = tiered_fallback(&wl, 5);
    let reference = exact(&wl, 5);
    let rule = ThresholdRule::paper();
    // `calibrate` reads the precise-run quantities through the trait; the
    // tiered backend must be indistinguishable.
    assert_eq!(rule.calibrate(&tiered), rule.calibrate(&reference));
}

#[test]
fn dse_env_runs_on_tiered_backend_without_special_casing() {
    let wl = MatMul::new(4);
    let tiered = tiered_fallback(&wl, 3);
    let th = ThresholdRule::paper().calibrate(&tiered);
    let mut env: DseEnv<TieredBackend<Evaluator>> =
        DseEnv::new(tiered, RewardParams::new(100.0, th));
    env.reset(None);
    let s = env.step(&3);
    assert_eq!(s.obs.adder, 3);
    env.step(&12);
    assert_eq!(env.trace().len(), 2);

    // And the full exploration driver, generic over the backend, produces
    // a trajectory identical to the plain exact exploration (the
    // always-fallback backend answers every query exactly).
    let opts = ExploreOptions {
        max_steps: 200,
        ..Default::default()
    };
    let lib = OperatorLibrary::evoapprox();
    let ctx = EvalContext::new(&wl, std::sync::Arc::new(lib.clone()), opts.input_seed).unwrap();
    let exact_outcome = ax_dse::campaign::explore(&ctx, &opts, AgentKind::QLearning);
    let tiered_outcome = explore_backend(
        tiered_fallback(&wl, opts.input_seed),
        &lib,
        "matmul-4x4",
        &opts,
        AgentKind::QLearning,
    );
    assert_eq!(exact_outcome.trace, tiered_outcome.trace);
    assert_eq!(exact_outcome.log, tiered_outcome.log);
}

#[test]
fn search_space_scores_through_tiered_backend() {
    use ax_agents::search::SearchSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let wl = DotProduct::new(8);
    let mut tiered = tiered_fallback(&wl, 7);
    let mut reference = exact(&wl, 7);
    let th = ThresholdRule::paper().calibrate(&reference);

    let mut rng_a = StdRng::seed_from_u64(9);
    let mut rng_b = StdRng::seed_from_u64(9);
    let mut space_t = DseSearchSpace::new(&mut tiered, th);
    let mut space_r = DseSearchSpace::new(&mut reference, th);
    let mut point_t = space_t.random_point(&mut rng_a);
    let mut point_r = space_r.random_point(&mut rng_b);
    assert_eq!(point_t, point_r);
    for _ in 0..25 {
        assert_eq!(space_t.evaluate(&point_t), space_r.evaluate(&point_r));
        point_t = space_t.neighbor(&point_t, &mut rng_a);
        point_r = space_r.neighbor(&point_r, &mut rng_b);
        assert_eq!(point_t, point_r);
    }
}

#[test]
fn engaged_surrogate_still_satisfies_env_contract() {
    // With the surrogate actually answering (default settings), the env
    // must still run happily end to end: rewards finite, trace coherent,
    // and every repeated configuration answered consistently.
    let wl = MatMul::new(4);
    let inner = exact(&wl, 11);
    let tiered = TieredBackend::from_exact(inner, SurrogateSettings::default());
    let lib = OperatorLibrary::evoapprox();
    let opts = ExploreOptions {
        max_steps: 600,
        ..Default::default()
    };
    let outcome = explore_backend(tiered, &lib, "matmul-4x4", &opts, AgentKind::QLearning);
    assert_eq!(outcome.trace.len(), outcome.log.len());
    let mut seen = std::collections::HashMap::new();
    for t in &outcome.trace {
        assert!(t.reward.is_finite());
        assert!(t.metrics.power >= 0.0);
        let prev = seen.insert(t.config, t.metrics);
        if let Some(prev) = prev {
            assert_eq!(prev, t.metrics, "{} answered inconsistently", t.config);
        }
    }
    assert!(outcome.distinct_configs > 0);
}
