//! The traced run: the per-layer breakdown of one workload.
//!
//! Layers are timed from outside the program, around calls into their
//! public functions: context preparation (`EvalContext::with_cache`,
//! replicated before each campaign), the evaluation backend (a timing
//! wrapper around each run's backend), the VM (the `exec.latency_ns`
//! histogram of an enabled `Telemetry`, plus a replay of the campaign's
//! designs) and report serialisation. Agent stepping, scheduling and
//! ledgers are what remains of the campaign's wall time (`explore.*`).
//! Traced campaigns run on one thread, so the layer times add up to the
//! wall time; the parallel campaigns between them run untraced.

use crate::checks::check_report;
use crate::probe::{exact_provider, Probe, TieredProbe};
use crate::setup::{run_campaign, sequential, setup, Prepared, WorkloadDef};
use crate::{median, percentile, vm, Outcome};
use ax_dse::campaign::{BackendSpec, Campaign, ExperimentSpec, Telemetry};
use ax_dse::{EvalContext, SharedCache};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds per run at least, whatever the time.
const MIN_ROUNDS: usize = 5;

type Sample = BTreeMap<&'static str, f64>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One traced sequential campaign: its per-layer sample and its cache.
fn traced_campaign(
    p: &Prepared,
    spec: &ExperimentSpec,
    reference: &str,
) -> Result<(Sample, Arc<SharedCache>), String> {
    let lib = Arc::new(p.lib.clone());
    let scratch = SharedCache::new();
    let started = Instant::now();
    let mut contexts = 0u32;
    for workload in &p.workloads {
        for seed in p.input_seeds() {
            EvalContext::with_cache(
                workload.as_ref(),
                Arc::clone(&lib),
                seed,
                Arc::clone(&scratch),
            )
            .map_err(|e| e.to_string())?;
            contexts += 1;
        }
    }
    let context_ms = ms(started.elapsed());

    let cache = p.fresh_cache()?;
    let telemetry = Telemetry::new();
    let campaign = Campaign::from_spec(&p.lib, spec, &p.workloads)
        .telemetry(&telemetry)
        .shared_cache(Arc::clone(&cache));
    let started = Instant::now();
    let (mut report, calls, backend_busy, surrogate_busy) = match spec.backend {
        BackendSpec::Tiered(settings) => {
            let probe = TieredProbe::new(settings);
            let report = campaign.run_with(&probe).map_err(|e| e.to_string())?;
            let outer = probe.outer.busy();
            (
                report,
                probe.outer.calls(),
                outer,
                outer.saturating_sub(probe.inner.busy()),
            )
        }
        _ => {
            let probe = Arc::new(Probe::default());
            let report = campaign
                .run_with(&exact_provider(&probe))
                .map_err(|e| e.to_string())?;
            (report, probe.calls(), probe.busy(), Duration::ZERO)
        }
    };
    let t = Instant::now();
    let text = report.to_json_string();
    let report_ms = ms(t.elapsed());
    let wall_ms = ms(started.elapsed());

    check_report(spec, &report)?;
    let summary = report
        .telemetry
        .take()
        .ok_or("traced report carries no telemetry")?;
    if report.to_json_string() != reference {
        return Err("traced report, minus telemetry, differs from the untraced reference".into());
    }
    let counters = &summary.metrics;
    let counter = |name: &str| counters.counter(name).unwrap_or(0) as f64;
    let (exec_count, exec_ns) = counters
        .histogram("exec.latency_ns")
        .map_or((0, 0), |h| (h.count, h.sum));
    let executions = counter("backend.executions");
    if executions != cache.misses() as f64 {
        return Err(format!(
            "{executions} executions but {} shared-cache misses",
            cache.misses()
        ));
    }
    let hits = counter("backend.local_hits") + counter("backend.shared_hits");
    let backend_ms = ms(backend_busy);
    let explore_ms = wall_ms - context_ms - backend_ms - report_ms;
    let tier = report.tier.unwrap_or_default();

    let sample = Sample::from([
        ("campaign.traced_ms", wall_ms),
        ("context.prepare_ms", context_ms),
        ("context.count", f64::from(contexts)),
        ("backend.calls", calls as f64),
        ("backend.busy_ms", backend_ms),
        ("backend.share", backend_ms / wall_ms),
        ("backend.executions", executions),
        ("backend.local_hits", counter("backend.local_hits")),
        ("backend.shared_hits", counter("backend.shared_hits")),
        ("backend.hit_ratio", hits / (calls.max(1) as f64)),
        ("cache.entries", cache.len() as f64),
        ("cache.hits", cache.hits() as f64),
        ("cache.misses", cache.misses() as f64),
        ("vm.exec_ms", exec_ns as f64 / 1e6),
        (
            "vm.exec_us_mean",
            exec_ns as f64 / 1e3 / exec_count.max(1) as f64,
        ),
        ("vm.share", exec_ns as f64 / 1e6 / wall_ms),
        ("explore.self_ms", explore_ms),
        ("explore.share", explore_ms / wall_ms),
        ("campaign.rounds", report.allocations.len() as f64),
        ("campaign.stopped_runs", report.budget.stopped_runs as f64),
        ("budget.overshoot", report.budget.overshoot as f64),
        ("surrogate.busy_ms", ms(surrogate_busy)),
        ("tier.memo_hits", tier.memo_hits as f64),
        ("tier.class_hits", tier.class_hits as f64),
        ("tier.surrogate_answers", tier.surrogate_answers as f64),
        ("tier.exact_confirmations", tier.exact_confirmations as f64),
        ("tier.avoided_exact_rate", tier.avoided_exact_rate()),
        ("report.to_json_ms", report_ms),
        ("report.bytes", text.len() as f64),
        ("telemetry.events", summary.events_emitted as f64),
    ]);
    Ok((sample, cache))
}

pub fn run(
    def: &'static WorkloadDef,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Outcome, String> {
    let p = setup(def, seed, work)?;
    let mut out = Outcome::default();
    let seq_specs: Vec<ExperimentSpec> = p.specs.iter().map(sequential).collect();

    // Rounds of one untraced sequential, one untraced parallel and one
    // traced sequential campaign of the same seed variant, interleaved so
    // that the ratios between them see the same machine. The untraced
    // sequential report is the round's reference: the traced report must
    // equal it, and the parallel one shows how often parallel runs
    // diverge from it, and how many executions repeated a design another
    // worker was already running (cache misses beyond new entries).
    let budget = Duration::from_secs_f64(seconds * 0.75);
    let started = Instant::now();
    let (mut seq_ms, mut parallel, mut samples, mut last_cache) =
        (Vec::new(), Vec::new(), Vec::new(), None);
    let mut round = 0;
    while round < MIN_ROUNDS || started.elapsed() < budget {
        let (spec, seq_spec) = (p.spec(round), &seq_specs[round % seq_specs.len()]);
        round += 1;
        let Some((wall, reference)) = out.attempt("sequential campaign", || {
            let (report, text, wall) = run_campaign(&p.lib, seq_spec, p.fresh_cache()?)?;
            check_report(seq_spec, &report)?;
            Ok((wall, text))
        }) else {
            continue;
        };
        seq_ms.push(ms(wall));
        parallel.extend(out.attempt("parallel campaign", || {
            let cache = p.fresh_cache()?;
            let (entries, misses) = (cache.len(), cache.misses());
            let (report, text, wall) = run_campaign(&p.lib, spec, Arc::clone(&cache))?;
            check_report(spec, &report)?;
            let duplicates = (cache.misses() - misses) as f64 - (cache.len() - entries) as f64;
            Ok((ms(wall), text != reference, duplicates))
        }));
        if let Some((sample, cache)) = out.attempt("traced campaign", || {
            traced_campaign(&p, seq_spec, &reference)
        }) {
            samples.push(sample);
            last_cache = Some(cache);
        }
    }

    let replay = out
        .attempt("VM replay", || match &last_cache {
            Some(cache) => vm::replay(&p.lib, &p.workloads, &p.input_seeds(), cache),
            None => Err("no traced campaign to replay".into()),
        })
        .unwrap_or_default();

    if let Some(first) = samples.first() {
        for &name in first.keys() {
            let values: Vec<f64> = samples.iter().map(|s| s[name]).collect();
            out.put(name, median(&values));
        }
    }
    let par_ms: Vec<f64> = parallel.iter().map(|&(wall, _, _)| wall).collect();
    let traced_ms: Vec<f64> = samples.iter().map(|s| s["campaign.traced_ms"]).collect();
    let diverged = parallel.iter().filter(|&&(_, differs, _)| differs).count();
    let duplicates: Vec<f64> = parallel.iter().map(|&(_, _, d)| d).collect();

    out.put("run.cores", crate::cores() as f64);
    out.put("run.threads", rayon::current_num_threads() as f64);
    out.put("spec.parse_ms", ms(p.times.parse));
    out.put("operators.library_build_ms", ms(p.times.library));
    out.put("cache.load_ms", ms(p.times.cache_load));
    out.put("cache.file_bytes", p.cache_file_bytes as f64);
    out.put("cache.duplicate_executions", median(&duplicates));
    out.put("campaign.parallel_ms_p50", median(&par_ms));
    out.put("campaign.parallel_ms_p90", percentile(&par_ms, 0.9));
    out.put(
        "campaign.parallel_speedup",
        median(&seq_ms) / median(&par_ms),
    );
    out.put(
        "campaign.report_divergence",
        diverged as f64 / parallel.len().max(1) as f64,
    );
    out.put("telemetry.overhead", median(&traced_ms) / median(&seq_ms));
    out.put("vm.replayed_designs", replay.designs as f64);
    out.put("vm.bind_us", replay.per_design_us(replay.bind));
    out.put("vm.specialize_us", replay.per_design_us(replay.specialize));
    out.put("vm.run_us", replay.per_design_us(replay.run));
    out.put("vm.run_batch_us", replay.per_design_us(replay.run_batch));
    out.put("vm.collapse_factor", replay.collapse_factor);
    out.note(format!(
        "{} rounds: {} sequential, {} parallel ({diverged} diverged from their sequential twin) and {} traced campaigns",
        round,
        seq_ms.len(),
        par_ms.len(),
        samples.len(),
    ));
    Ok(out)
}
