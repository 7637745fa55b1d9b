//! Appends to `BENCH_surrogate.json`: surrogate-assisted vs. pure-exact
//! sweep wall-clock, tier usage, and the model's confirmed prediction
//! error.
//!
//! ```text
//! bench_surrogate [--out FILE] [--seeds N] [--steps N] [--reps N] [--smoke]
//!                 [--spec FILE] [--emit-spec FILE]
//! ```
//!
//! Both sides run cold: the exact baseline is the same rayon fan-out
//! `bench_sweep` measures (fresh shared cache per rep); the surrogate
//! side is a tiered sweep with a fresh cache *and* a fresh model per rep,
//! so the learning cost is inside the measurement. The reported
//! `rel_err_*` numbers are the audit stream's verdict: mean relative
//! prediction error on designs confirmed exactly while the trust gate was
//! open. `--smoke` shrinks everything for CI. Each run *appends* its
//! record to the JSON file; `--spec`/`--emit-spec` exchange campaign
//! [`ExperimentSpec`] files with `repro run`.

use ax_bench::append_bench_record;
use ax_dse::backend::{EvalContext, SharedCache};
use ax_dse::campaign::{BackendSpec, BenchmarkSpec, ExperimentSpec, SeedRange};
use ax_dse::explore::{AgentKind, ExploreOptions};
use ax_dse::json::Json;
use ax_surrogate::{sweep_in_context_surrogate, SurrogateSettings, SurrogateSweepOutcome};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// One tier's share of every answered query, as a JSON number.
fn tier_mix(tier: u64, stats: &ax_dse::campaign::TieredStats) -> Json {
    let total =
        stats.memo_hits + stats.class_hits + stats.surrogate_answers + stats.exact_confirmations;
    Json::Num(format!("{:.4}", tier as f64 / total.max(1) as f64))
}

struct Config {
    out: String,
    seeds: Option<u64>,
    steps: Option<u64>,
    reps: Option<u32>,
    smoke: bool,
    spec: Option<String>,
    emit_spec: Option<String>,
}

fn parse() -> Result<Config, String> {
    let mut cfg = Config {
        out: "BENCH_surrogate.json".into(),
        seeds: None,
        steps: None,
        reps: None,
        smoke: false,
        spec: None,
        emit_spec: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--out" => cfg.out = take("--out")?,
            "--seeds" => {
                cfg.seeds = Some(
                    take("--seeds")?
                        .parse()
                        .map_err(|e| format!("bad --seeds: {e}"))?,
                );
            }
            "--steps" => {
                cfg.steps = Some(
                    take("--steps")?
                        .parse()
                        .map_err(|e| format!("bad --steps: {e}"))?,
                );
            }
            "--reps" => {
                cfg.reps = Some(
                    take("--reps")?
                        .parse()
                        .map_err(|e| format!("bad --reps: {e}"))?,
                );
            }
            "--smoke" => cfg.smoke = true,
            "--spec" => cfg.spec = Some(take("--spec")?),
            "--emit-spec" => cfg.emit_spec = Some(take("--emit-spec")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cfg)
}

fn main() {
    let cfg = match parse() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: bench_surrogate [--out FILE] [--seeds N] [--steps N] [--reps N] \
                 [--smoke] [--spec FILE] [--emit-spec FILE]"
            );
            std::process::exit(1);
        }
    };

    // Precedence: explicit flags beat the spec, the spec beats the
    // built-in defaults, and `--smoke` clamps whatever won so a CI smoke
    // run stays a smoke run even against a full-size spec.
    let mut bench_spec = BenchmarkSpec::MatMul(10);
    let mut settings = SurrogateSettings::default();
    let (mut spec_seeds, mut spec_steps) = (None, None);
    if let Some(path) = &cfg.spec {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        });
        let spec = ExperimentSpec::from_json_str(&text).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        bench_spec = spec.benchmarks[0];
        spec_seeds = Some(spec.seeds.count);
        spec_steps = Some(spec.explore.max_steps);
        if let BackendSpec::Tiered(s) = spec.backend {
            settings = s;
        }
    }
    let mut seeds = cfg.seeds.or(spec_seeds).unwrap_or(8);
    let mut steps = cfg.steps.or(spec_steps).unwrap_or(300);
    let mut reps = cfg.reps.unwrap_or(3);
    if cfg.smoke {
        seeds = seeds.min(2);
        steps = steps.min(80);
        reps = reps.min(1);
    }
    let wl = bench_spec.build();

    let lib = ax_operators::OperatorLibrary::evoapprox();
    let opts = |seed| ExploreOptions {
        max_steps: steps,
        seed,
        ..Default::default()
    };

    if let Some(path) = &cfg.emit_spec {
        let spec = ExperimentSpec::new("bench-surrogate")
            .benchmark(bench_spec)
            .agent(AgentKind::QLearning)
            .seeds(SeedRange::new(0, seeds))
            .explore(opts(0))
            .backend(BackendSpec::Tiered(settings));
        std::fs::write(path, spec.to_json_string()).expect("write spec");
        eprintln!("wrote {path}");
    }

    let fresh_ctx = || {
        EvalContext::with_cache(
            wl.as_ref(),
            Arc::new(lib.clone()),
            opts(0).input_seed,
            SharedCache::new(),
        )
        .expect("context")
    };

    // Exact baseline: the production sweep fan-out, cold cache per rep.
    let mut exact_ms = f64::INFINITY;
    let mut benchmark = String::new();
    for _ in 0..reps.max(1) {
        let ctx = fresh_ctx();
        let t = Instant::now();
        (0..seeds).into_par_iter().for_each(|seed| {
            ax_dse::campaign::explore(&ctx, &opts(seed), AgentKind::QLearning);
        });
        exact_ms = exact_ms.min(t.elapsed().as_secs_f64() * 1e3);
        benchmark = ctx.benchmark().to_owned();
    }

    // Surrogate-assisted sweep: fresh cache and fresh model per rep — the
    // whole two-tier lifecycle (warmup, gating, audits) is measured.
    let mut surrogate_ms = f64::INFINITY;
    let mut outcome: Option<SurrogateSweepOutcome> = None;
    for _ in 0..reps.max(1) {
        let ctx = fresh_ctx();
        let t = Instant::now();
        let o = sweep_in_context_surrogate(&ctx, &opts(0), AgentKind::QLearning, seeds, settings);
        surrogate_ms = surrogate_ms.min(t.elapsed().as_secs_f64() * 1e3);
        outcome = Some(o);
    }
    let outcome = outcome.expect("at least one rep");

    let stats = outcome.stats;
    let rel = outcome.rel_errors;
    let err_node = |v: Option<f64>| match v {
        Some(v) => Json::Num(format!("{v:.5}")),
        None => Json::Null,
    };
    let record = Json::obj(vec![
        ("benchmark", Json::str(benchmark)),
        ("seeds", Json::u64(seeds)),
        ("max_steps", Json::u64(steps)),
        ("threads", Json::u64(rayon::current_num_threads() as u64)),
        ("exact_cold_ms", Json::Num(format!("{exact_ms:.3}"))),
        ("surrogate_ms", Json::Num(format!("{surrogate_ms:.3}"))),
        (
            "speedup",
            Json::Num(format!("{:.2}", exact_ms / surrogate_ms)),
        ),
        ("memo_hits", Json::u64(stats.memo_hits)),
        ("class_hits", Json::u64(stats.class_hits)),
        ("surrogate_answers", Json::u64(stats.surrogate_answers)),
        ("exact_confirmations", Json::u64(stats.exact_confirmations)),
        // Tier mix: the fraction of all answered queries each tier served
        // (memo, execution-equivalence class, model, exact confirm).
        ("tier_mix_memo", tier_mix(stats.memo_hits, &stats)),
        ("tier_mix_class", tier_mix(stats.class_hits, &stats)),
        (
            "tier_mix_surrogate",
            tier_mix(stats.surrogate_answers, &stats),
        ),
        (
            "tier_mix_exact",
            tier_mix(stats.exact_confirmations, &stats),
        ),
        (
            "surrogate_hit_rate",
            Json::Num(format!("{:.4}", stats.surrogate_hit_rate())),
        ),
        (
            "avoided_exact_rate",
            Json::Num(format!("{:.4}", stats.avoided_exact_rate())),
        ),
        ("rel_err_power", err_node(rel.map(|e| e[0]))),
        ("rel_err_time", err_node(rel.map(|e| e[1]))),
        ("rel_err_acc", err_node(rel.map(|e| e[2]))),
        ("audited_designs", Json::u64(outcome.shadow_confirmations)),
        ("training_samples", Json::u64(outcome.training_samples)),
    ]);
    print!("{}", record.pretty());
    append_bench_record(&cfg.out, record).expect("append BENCH_surrogate.json");
    eprintln!("appended to {}", cfg.out);
}
