//! Output checks that hold whatever the thread schedule.

use ax_dse::campaign::ExperimentSpec;
use ax_dse::pareto;
use ax_dse::{CampaignReport, EvalContext, EvalMetrics, ExecEngine, SharedCache};
use ax_operators::OperatorLibrary;
use ax_workloads::Workload;
use std::sync::Arc;

/// Checks one finished campaign's report:
/// - the clamped spend stays within the cap, and the overshoot within one
///   step (one design) per run;
/// - the budget ledger reconciles, when the report carries telemetry;
/// - the front's members are mutually non-dominated, and its hypervolume,
///   recomputed, equals the reported one.
pub fn check_report(spec: &ExperimentSpec, report: &CampaignReport) -> Result<(), String> {
    let budget = &report.budget;
    if budget.cap != spec.budget {
        return Err(format!(
            "budget cap {:?}, spec says {:?}",
            budget.cap, spec.budget
        ));
    }
    if let Some(cap) = budget.cap {
        if budget.spent > cap {
            return Err(format!("spent {} exceeds the cap {cap}", budget.spent));
        }
    }
    if budget.overshoot > spec.total_runs() {
        return Err(format!(
            "overshoot {} exceeds one step for each of {} runs",
            budget.overshoot,
            spec.total_runs()
        ));
    }
    if let Some(t) = &report.telemetry {
        if !t.budget_invariant_ok {
            return Err("budget ledger does not reconcile".into());
        }
    }

    let front = &report.pareto.front;
    if front.is_empty() {
        return Err("empty Pareto front".into());
    }
    let points: Vec<Vec<f64>> = front.iter().map(|p| p.values.clone()).collect();
    if let Some(i) = pareto::non_dominated_ranks(&points)
        .iter()
        .position(|&r| r != 0)
    {
        return Err(format!(
            "front member of cell {} is dominated",
            front[i].cell
        ));
    }
    let reported = report.pareto.hypervolume;
    let recomputed = pareto::hypervolume(&points, &report.pareto.reference);
    // The report sums over every cell, the recomputation over the front
    // alone: the same volume, sliced at different abscissae.
    if (recomputed - reported).abs() > 1e-9 * reported.abs().max(recomputed.abs()) {
        return Err(format!(
            "hypervolume {reported} reported, {recomputed} recomputed"
        ));
    }
    Ok(())
}

/// `true` when two metric records are equal bit for bit.
fn same_metrics(a: &EvalMetrics, b: &EvalMetrics) -> bool {
    let bits = |m: &EvalMetrics| {
        [
            m.delta_acc,
            m.delta_power,
            m.delta_time,
            m.signed_error,
            m.power,
            m.time_ns,
        ]
        .map(f64::to_bits)
    };
    bits(a) == bits(b)
}

/// Re-evaluates every design of every `(workload, input seed)` scope in
/// `cache` on the interpreter reference engine and compares the metrics
/// bit for bit. Returns the number of designs checked.
pub fn check_against_interpreter(
    lib: &OperatorLibrary,
    workloads: &[Box<dyn Workload>],
    input_seeds: &[u64],
    cache: &SharedCache,
) -> Result<u64, String> {
    let lib = Arc::new(lib.clone());
    let mut checked = 0;
    for workload in workloads {
        for &seed in input_seeds {
            let mut reference = EvalContext::new(workload.as_ref(), Arc::clone(&lib), seed)
                .map_err(|e| e.to_string())?
                .with_engine(ExecEngine::Interpreter)
                .evaluator();
            for (config, cached) in cache.snapshot(&workload.name(), seed) {
                let exact = reference.evaluate(&config).map_err(|e| e.to_string())?;
                if !same_metrics(&exact, &cached) {
                    return Err(format!(
                        "{} (input seed {seed}) design {config}: cached {cached:?}, interpreter {exact:?}",
                        workload.name()
                    ));
                }
                checked += 1;
            }
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ax_dse::campaign::{BenchmarkSpec, SeedRange};
    use ax_dse::explore::{AgentKind, ExploreOptions};
    use ax_dse::{ObjectiveDecl, Ranking};

    fn small_spec() -> ExperimentSpec {
        ExperimentSpec::new("checks")
            .benchmark(BenchmarkSpec::MatMul(4))
            .benchmark(BenchmarkSpec::Dot(8))
            .agent(AgentKind::QLearning)
            .agent(AgentKind::Sarsa)
            .seeds(SeedRange::new(0, 2))
            .explore(ExploreOptions {
                max_steps: 200,
                ..Default::default()
            })
            .objectives(vec![
                ObjectiveDecl::new(ax_dse::Objective::QorError),
                ObjectiveDecl::new(ax_dse::Objective::OpCost),
            ])
            .ranking(Ranking::Pareto)
            .budget(300)
    }

    fn run() -> (ExperimentSpec, CampaignReport, Arc<SharedCache>) {
        let spec = small_spec();
        let lib = spec.library.build();
        let cache = SharedCache::new();
        let (report, _, _) = crate::setup::run_campaign(&lib, &spec, Arc::clone(&cache)).unwrap();
        (spec, report, cache)
    }

    #[test]
    fn a_real_campaign_passes() {
        let (spec, report, cache) = run();
        check_report(&spec, &report).unwrap();
        let lib = spec.library.build();
        let n = check_against_interpreter(
            &lib,
            &spec.build_workloads(),
            &[spec.explore.input_seed],
            &cache,
        )
        .unwrap();
        assert_eq!(n as usize, cache.len());
    }

    #[test]
    fn a_dominated_front_point_fails() {
        let (spec, mut report, _) = run();
        let mut worse = report.pareto.front[0].clone();
        for v in &mut worse.values {
            *v += 1.0;
        }
        report.pareto.front.push(worse);
        assert!(check_report(&spec, &report)
            .unwrap_err()
            .contains("dominated"));
    }

    #[test]
    fn a_wrong_hypervolume_fails() {
        let (spec, mut report, _) = run();
        report.pareto.hypervolume *= 1.0 + 1e-6;
        assert!(check_report(&spec, &report)
            .unwrap_err()
            .contains("hypervolume"));
    }

    #[test]
    fn an_overspent_budget_fails() {
        let (spec, mut report, _) = run();
        report.budget.overshoot = spec.total_runs() + 1;
        assert!(check_report(&spec, &report)
            .unwrap_err()
            .contains("overshoot"));
    }

    #[test]
    fn a_flipped_metric_bit_fails() {
        let (spec, _, cache) = run();
        let name = spec.build_workloads()[0].name();
        let seed = spec.explore.input_seed;
        let scope = cache.scope(&name, seed);
        let (config, mut metrics) = cache.snapshot(&name, seed)[0];
        metrics.power = f64::from_bits(metrics.power.to_bits() ^ 1);
        cache.insert(scope, config, metrics);
        let lib = spec.library.build();
        let err =
            check_against_interpreter(&lib, &spec.build_workloads(), &[seed], &cache).unwrap_err();
        assert!(err.contains("interpreter"), "{err}");
    }
}
