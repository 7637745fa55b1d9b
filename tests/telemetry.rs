//! Telemetry determinism contracts.
//!
//! Events are logical (no wall-clock data, sources are grid indices, not
//! thread ids), so a parallel campaign must produce the same canonical
//! event list as a sequential one; metric counters must agree between the
//! compiled and interpreted exact engines; and turning tracing on must
//! never change what a campaign computes.

use axdse_suite::ax_dse::campaign::{
    BudgetPolicy, Campaign, CampaignReport, EventKind, JsonlSink, SeedRange, Telemetry,
};
use axdse_suite::ax_dse::explore::{AgentKind, ExploreOptions};
use axdse_suite::ax_dse::json::Json;
use axdse_suite::ax_operators::OperatorLibrary;
use axdse_suite::ax_surrogate::run_spec_traced;
use axdse_suite::ax_workloads::fir::Fir;
use axdse_suite::ax_workloads::matmul::MatMul;
use proptest::prelude::*;

fn lib() -> OperatorLibrary {
    OperatorLibrary::evoapprox()
}

fn opts(steps: u64) -> ExploreOptions {
    ExploreOptions {
        max_steps: steps,
        ..Default::default()
    }
}

/// Everything deterministic in a report: the telemetry section is
/// excluded because its histograms carry wall-clock measurements.
fn strip(r: &CampaignReport) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        r.cells, r.portfolios, r.budget, r.allocations, r.tier
    )
}

/// An unbounded multi-seed campaign run with telemetry, sequentially or
/// through the rayon fan-out.
fn traced_campaign(sequential: bool) -> (CampaignReport, Telemetry) {
    let l = lib();
    let (matmul, fir) = (MatMul::new(4), Fir::new(40));
    let telemetry = Telemetry::new();
    let report = Campaign::new("telemetry-determinism", &l)
        .benchmark(&matmul)
        .benchmark(&fir)
        .agents(&[AgentKind::QLearning, AgentKind::Sarsa])
        .seeds(SeedRange::new(0, 2))
        .options(opts(150))
        .sequential(sequential)
        .telemetry(&telemetry)
        .run()
        .unwrap();
    (report, telemetry)
}

/// With no budget in play, the only schedule freedom is thread
/// interleaving — which must not show in the canonical event list: same
/// events, same sources, same per-source sequence numbers.
#[test]
fn parallel_campaign_emits_the_same_canonical_events_as_sequential() {
    let (seq_report, seq_t) = traced_campaign(true);
    let (par_report, par_t) = traced_campaign(false);
    let seq_events = seq_t.events();
    let par_events = par_t.events();
    assert!(!seq_events.is_empty());
    assert_eq!(seq_events, par_events);
    assert_eq!(strip(&seq_report), strip(&par_report));
    // Counters and gauges are logical too; only the latency histograms
    // may differ between the two modes.
    let (seq_snap, par_snap) = (seq_t.snapshot().unwrap(), par_t.snapshot().unwrap());
    assert_eq!(seq_snap.counters, par_snap.counters);
    assert_eq!(seq_snap.gauges, par_snap.gauges);
}

/// A budgeted campaign's pause points depend on worker interleaving, so
/// cross-mode equality is out of reach — but the *sequential* schedule is
/// fully determined: run twice, get byte-identical events and counters.
#[test]
fn budgeted_sequential_campaigns_are_repeatable() {
    let run = || {
        let l = lib();
        let (matmul, fir) = (MatMul::new(4), Fir::new(40));
        let telemetry = Telemetry::new();
        let report = Campaign::new("telemetry-repeatable", &l)
            .benchmark(&matmul)
            .benchmark(&fir)
            .agents(&[AgentKind::QLearning, AgentKind::Sarsa])
            .seeds(SeedRange::new(0, 2))
            .options(opts(400))
            .budget(300)
            .policy(BudgetPolicy::SuccessiveHalving {
                rounds: 2,
                keep_fraction: 0.5,
            })
            .sequential(true)
            .telemetry(&telemetry)
            .run()
            .unwrap();
        (report, telemetry)
    };
    let (report_a, t_a) = run();
    let (report_b, t_b) = run();
    assert_eq!(t_a.events(), t_b.events());
    let (snap_a, snap_b) = (t_a.snapshot().unwrap(), t_b.snapshot().unwrap());
    assert_eq!(snap_a.counters, snap_b.counters);
    assert_eq!(strip(&report_a), strip(&report_b));
    let summary = report_a.telemetry.expect("enabled telemetry is reported");
    assert!(summary.budget_invariant_ok);
    assert!(summary.events_emitted > 0);
}

/// The compiled and interpreted exact engines must agree on every
/// deterministic counter — cache traffic, budget accounting, backend
/// hit/execution tallies. Only the `engine.*` attribution (which engine
/// ran) and wall-clock histograms may differ.
#[test]
fn compiled_and_interpreted_engines_agree_on_cache_and_budget_metrics() {
    use axdse_suite::ax_dse::campaign::{BackendSpec, BenchmarkSpec, ExperimentSpec, NullObserver};
    let run = |backend: BackendSpec| {
        let spec = ExperimentSpec::new("engine-parity")
            .benchmark(BenchmarkSpec::MatMul(4))
            .agent(AgentKind::QLearning)
            .agent(AgentKind::Sarsa)
            .seeds(SeedRange::new(0, 2))
            .explore(opts(150))
            .backend(backend);
        let telemetry = Telemetry::new();
        run_spec_traced(&lib(), &spec, None, &NullObserver, &telemetry).unwrap();
        telemetry.snapshot().unwrap()
    };
    let compiled = run(BackendSpec::Exact);
    let interpreted = run(BackendSpec::ExactInterpreted);
    let deterministic = |snap: &axdse_suite::ax_dse::campaign::MetricsSnapshot| {
        snap.counters
            .iter()
            .filter(|(name, _)| {
                name.starts_with("cache.")
                    || name.starts_with("budget.")
                    || name.starts_with("backend.")
                    || name.starts_with("campaign.")
            })
            .cloned()
            .collect::<Vec<_>>()
    };
    let (c, i) = (deterministic(&compiled), deterministic(&interpreted));
    assert!(!c.is_empty());
    assert_eq!(c, i);
    // The engine attribution tells the two apart.
    assert!(compiled.counter("engine.compiled_runs").unwrap_or(0) > 0);
    assert!(interpreted.counter("engine.interpreted_runs").unwrap_or(0) > 0);
    assert_eq!(
        compiled.counter("engine.compiled_runs"),
        interpreted.counter("engine.interpreted_runs")
    );
}

/// On the compiled engine a design that misses both design caches counts
/// as one execution whether a VM run or the context's outcome memo
/// answered it: a sequential fresh-cache campaign executes exactly its
/// shared-cache misses, and the latency histogram, which times real VM
/// runs only, holds fewer samples than that.
#[test]
fn outcome_memo_keeps_executions_equal_to_cache_misses() {
    use axdse_suite::ax_dse::campaign::{ExperimentSpec, NullObserver};
    use axdse_suite::ax_dse::SharedCache;
    let mut spec =
        ExperimentSpec::from_json_str(include_str!("../examples/campaign_pareto.json")).unwrap();
    spec.parallelism = Some(1);
    let cache = SharedCache::new();
    let telemetry = Telemetry::new();
    let lib = spec.library.build();
    run_spec_traced(
        &lib,
        &spec,
        Some(std::sync::Arc::clone(&cache)),
        &NullObserver,
        &telemetry,
    )
    .unwrap();
    let snap = telemetry.snapshot().unwrap();
    let executions = snap.counter("backend.executions").unwrap();
    assert_eq!(executions, cache.misses());
    assert_eq!(snap.counter("cache.misses"), Some(cache.misses()));
    let vm_runs = snap.histogram("exec.latency_ns").unwrap().count;
    assert!(
        0 < vm_runs && vm_runs < executions,
        "{vm_runs} VM runs for {executions} executions"
    );
}

/// A parallel budgeted campaign still satisfies the ledger invariant the
/// telemetry summary checks: per-cell spends sum to the global raw spend,
/// which splits into the clamped spend plus the cooperative overshoot.
#[test]
fn parallel_budgeted_campaign_reports_the_budget_invariant() {
    let l = lib();
    let (matmul, fir) = (MatMul::new(4), Fir::new(40));
    let telemetry = Telemetry::new();
    let report = Campaign::new("telemetry-invariant", &l)
        .benchmark(&matmul)
        .benchmark(&fir)
        .agents(&[AgentKind::QLearning, AgentKind::Sarsa])
        .seeds(SeedRange::new(0, 2))
        .options(opts(2_000))
        .budget(120)
        .policy(BudgetPolicy::AsyncHalving {
            rungs: 2,
            keep_fraction: 0.5,
        })
        .telemetry(&telemetry)
        .run()
        .unwrap();
    let summary = report.telemetry.expect("enabled telemetry is reported");
    assert!(summary.budget_invariant_ok);
    let snap = &summary.metrics;
    assert_eq!(
        snap.counter("budget.cells_spent"),
        Some(report.budget.spent + report.budget.overshoot)
    );
    assert_eq!(snap.counter("budget.spent"), Some(report.budget.spent));
}

/// Every JSONL trace line must parse as a JSON object carrying the stable
/// envelope keys, and the `kind` strings must come from the schema.
#[test]
fn jsonl_trace_lines_are_schema_valid() {
    let path = std::env::temp_dir().join(format!("ax_trace_{}.jsonl", std::process::id()));
    let l = lib();
    let matmul = MatMul::new(4);
    let telemetry = Telemetry::new();
    telemetry.add_sink(Box::new(JsonlSink::create(&path).unwrap()));
    Campaign::new("telemetry-jsonl", &l)
        .benchmark(&matmul)
        .agents(&[AgentKind::QLearning])
        .seeds(SeedRange::new(0, 2))
        .options(opts(150))
        .budget(60)
        .telemetry(&telemetry)
        .run()
        .unwrap();
    telemetry.flush();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let known = [
        "campaign_start",
        "benchmark_ready",
        "budget_grant",
        "budget_exhausted",
        "run_paused",
        "run_complete",
        "cell_eliminated",
        "bracket_start",
        "cell_revived",
        "rung_recorded",
        "cell_parked",
        "rung_promoted",
        "campaign_complete",
    ];
    let mut lines = 0u64;
    for line in text.lines() {
        let json = Json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
        json.get("source").expect("source").as_u64().unwrap();
        json.get("seq").expect("seq").as_u64().unwrap();
        let kind = json.get("kind").expect("kind").as_str().unwrap().to_owned();
        assert!(known.contains(&kind.as_str()), "unknown kind {kind}");
        lines += 1;
    }
    assert_eq!(lines, telemetry.events_emitted());
    assert!(text.lines().any(|l| l.contains("\"campaign_complete\"")));
}

/// The ring buffer keeps the canonical order even when the coordinator
/// and run sources interleave arbitrarily during emission.
#[test]
fn canonical_event_order_groups_by_source() {
    let (_, t) = traced_campaign(false);
    let events = t.events();
    let keys: Vec<(u32, u64)> = events.iter().map(|e| (e.source, e.seq)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
    assert!(matches!(events[0].kind, EventKind::CampaignStart { .. }));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Enabling tracing must never change what a campaign computes: the
    /// reports agree on everything except the `telemetry` section itself.
    #[test]
    fn tracing_never_changes_the_campaign_report(
        budget in 40u64..200,
        seeds in 1u64..3,
        halving in 0u32..2,
    ) {
        let run = |telemetry: &Telemetry| {
            let l = lib();
            let (matmul, fir) = (MatMul::new(4), Fir::new(40));
            let mut c = Campaign::new("tracing-transparency", &l)
                .benchmark(&matmul)
                .benchmark(&fir)
                .agents(&[AgentKind::QLearning, AgentKind::Sarsa])
                .seeds(SeedRange::new(0, seeds))
                .options(opts(300))
                .budget(budget)
                .sequential(true)
                .telemetry(telemetry);
            if halving == 1 {
                c = c.policy(BudgetPolicy::SuccessiveHalving {
                    rounds: 2,
                    keep_fraction: 0.5,
                });
            }
            c.run().unwrap()
        };
        let plain = run(&Telemetry::disabled());
        let traced = run(&Telemetry::new());
        prop_assert!(plain.telemetry.is_none());
        prop_assert!(traced.telemetry.is_some());
        prop_assert_eq!(strip(&plain), strip(&traced));
    }
}
