//! The untraced run: timed campaigns at the machine's thread count, the
//! sequential reference campaigns that the quality metrics come from, and
//! the interpreter check of one campaign's designs.

use crate::checks::{check_against_interpreter, check_report};
use crate::setup::{run_campaign, sequential, setup, variants, WorkloadDef};
use crate::{median, peak_rss_mb, percentile, process_cpu_time, Outcome};
use ax_dse::CampaignReport;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of a run spent re-doing the set-up: before each timed campaign
/// the set-up is done again while set-ups have taken less than this share
/// of the time so far. `setup_s` is the median of all of them, so it
/// samples the same stretch of the machine's time as the campaigns do.
const SETUP_SHARE: f64 = 0.1;
/// Sequential reference campaigns the quality metrics average over.
const QUALITY_CAMPAIGNS: usize = 8;
/// Timed campaigns per run at least, so that ten samples lie beyond the
/// printed p90.
const MIN_CAMPAIGNS: usize = 100;

/// Agent steps of a campaign: design queries summed over every run.
fn campaign_steps(report: &CampaignReport) -> u64 {
    report
        .portfolios
        .iter()
        .flat_map(|p| &p.entries)
        .map(|e| e.summary.steps)
        .sum()
}

/// Process CPU time spent in `f`.
fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = process_cpu_time();
    let value = f();
    (value, process_cpu_time() - started)
}

pub fn run(
    def: &'static WorkloadDef,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Outcome, String> {
    // Time is CPU time of the process, the campaign's threads included:
    // on a shared host the wall time of the same campaign follows the
    // other tenants' load by a third run to run, and its CPU time, which
    // leaves out the time the scheduler and the hypervisor gave to
    // others, by far less.
    let (p, first_setup) = cpu_timed(|| setup(def, seed, work));
    let p = p?;
    let mut setups_s = vec![first_setup.as_secs_f64()];
    let mut setup_total_s = first_setup.as_secs_f64();
    // Re-done set-ups write their cache file apart from the run's own.
    let resetup_dir = work.join("resetup");
    std::fs::create_dir_all(&resetup_dir).map_err(|e| e.to_string())?;
    let mut out = Outcome::default();

    // The quality metrics: means over sequential reference campaigns of
    // seed 0's variants, the same in every run, so that they change only
    // when what the exploration finds changes.
    let mut quality = Vec::new();
    for spec in variants(&p.spec, 0)?.iter().take(QUALITY_CAMPAIGNS) {
        let spec = sequential(spec);
        let reference = out.attempt("reference campaign", || {
            let (report, _, _) = run_campaign(&p.lib, &spec, p.fresh_cache()?)?;
            check_report(&spec, &report)?;
            Ok(report)
        });
        quality.extend(reference.map(|r| {
            [
                r.pareto.hypervolume,
                r.cells
                    .iter()
                    .map(|c| c.best_score)
                    .fold(f64::NEG_INFINITY, f64::max),
                r.budget.charged() as f64,
            ]
        }));
    }
    let mean = |k: usize| quality.iter().map(|q| q[k]).sum::<f64>() / quality.len() as f64;
    // Read before the parallel section: under thread contention the
    // allocator's arenas make the later peak wander by a tenth run to run.
    let peak_rss_mb = peak_rss_mb()?;

    let budget = Duration::from_secs_f64(seconds);
    // On a machine too slow for MIN_CAMPAIGNS, stop anyway, well inside
    // three minutes.
    let give_up = (budget * 2).max(Duration::from_secs(30));
    let started = Instant::now();
    let mut walls_ms = Vec::new();
    let mut cpus_ms = Vec::new();
    let mut steps = 0u64;
    let mut steps_per_cpu_s = Vec::new();
    let mut checked_cache = None;
    while started.elapsed() < budget
        || (walls_ms.len() < MIN_CAMPAIGNS && started.elapsed() < give_up)
    {
        while setup_total_s < SETUP_SHARE * started.elapsed().as_secs_f64() {
            let (again, cpu) = cpu_timed(|| setup(def, seed, &resetup_dir));
            again?;
            setups_s.push(cpu.as_secs_f64());
            setup_total_s += cpu.as_secs_f64();
        }
        let spec = p.spec(out.attempted as usize);
        let cache = p.fresh_cache()?;
        let timed = out.attempt("campaign", || {
            let (result, cpu) = cpu_timed(|| run_campaign(&p.lib, spec, Arc::clone(&cache)));
            let (report, _, wall) = result?;
            check_report(spec, &report)?;
            Ok((campaign_steps(&report), wall, cpu))
        });
        if let Some((n, wall, cpu)) = timed {
            walls_ms.push(wall.as_secs_f64() * 1e3);
            cpus_ms.push(cpu.as_secs_f64() * 1e3);
            steps_per_cpu_s.push(n as f64 / cpu.as_secs_f64());
            steps += n;
            checked_cache.get_or_insert(cache);
        }
    }

    // Outside the timed section: one campaign's designs against the
    // interpreter.
    if let Some(cache) = checked_cache {
        let checked = out.attempt("interpreter check", || {
            check_against_interpreter(&p.lib, &p.workloads, &p.input_seeds(), &cache)
        });
        if let Some(n) = checked {
            eprintln!("{}: {n} cached designs match the interpreter", def.name);
        }
    }

    out.put("campaign_cpu_ms_p50", median(&cpus_ms));
    // A median of per-campaign rates: like the p50, it shrugs off the
    // bursts of host contention that a total-over-total ratio absorbs.
    out.put("steps_per_cpu_s", median(&steps_per_cpu_s));
    out.put("setup_s", median(&setups_s));
    out.put("peak_rss_mb", peak_rss_mb);
    out.put("hypervolume", mean(0));
    out.put("best_score", mean(1));
    out.put("evals_spent", mean(2));
    out.put(
        "campaign_success_rate",
        1.0 - out.failed as f64 / out.attempted as f64,
    );
    // The p90s and wall times are printed, not gated: host contention on
    // a shared machine moves them by a quarter to a third run to run.
    out.note(format!(
        "{} timed campaigns, {steps} agent steps, {} set-ups; campaign CPU ms p50 {:.3}, p90 {:.3}; wall ms p50 {:.3}, p90 {:.3}",
        walls_ms.len(),
        setups_s.len(),
        median(&cpus_ms),
        percentile(&cpus_ms, 0.9),
        median(&walls_ms),
        percentile(&walls_ms, 0.9)
    ));
    Ok(out)
}
