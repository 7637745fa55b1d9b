//! Appends to `BENCH_sweep.json`: cold- vs. warm-cache sweep wall-clock.
//!
//! ```text
//! bench_sweep [--out FILE] [--seeds N] [--steps N] [--reps N]
//!             [--spec FILE] [--emit-spec FILE] [--policy P]
//!             [--exec-compare]
//! ```
//!
//! "Cold" fans a multi-seed sweep out with rayon over a fresh shared
//! cache; "warm" re-runs the identical seed set against the cache the
//! cold pass filled, so every design evaluation is a hash lookup. The
//! JSON is the repo's perf-trajectory record — each run *appends* its
//! record to the file (`threads` records the worker cap rayon had).
//!
//! `--spec FILE` takes the benchmark, seed count and step cap from a
//! campaign [`ExperimentSpec`] instead of the defaults; `--emit-spec
//! FILE` writes the spec equivalent to whatever this invocation measured,
//! ready for `repro run`.
//!
//! `--exec-compare` replaces the sweep with a head-to-head of the two
//! exact execution engines: the full enumerated design space of the
//! benchmark (every adder × multiplier × variable mask, ordered
//! mask-major — the sweep hot path) is evaluated cold through the
//! threaded-code compiler and through the interpreter reference, the
//! outcomes are asserted bit-identical, and the wall-clock comparison is
//! appended. Exits nonzero if the compiled engine fails to beat the
//! interpreter — the regression this record exists to catch.
//!
//! `--policy P` (e.g. `halving:3,0.5` or `asha:2,0.5`) additionally races
//! a MatMul×FIR campaign grid under that budget policy at 55 % of the
//! evaluation spend of an exhaustive (unbounded) run of the same grid, and
//! appends a policy record comparing best-design rewards and evaluation
//! counts. When the policy is `asha:…` the record also runs the
//! synchronous `halving` counterpart with the same shape, so the file
//! carries the sync-vs-async evaluations-to-best-score comparison
//! directly.
//!
//! `--pareto` races the same MatMul×FIR grid multi-objectively: an
//! exhaustive (unbounded) scalarised run fixes the reference front over
//! (QoR error, op cost), then a Pareto-ranked successive-halving run at
//! 70 % of the exhaustive evaluation spend must recover it. The appended
//! record carries both hypervolumes (against the same reference point),
//! both evaluation counts and the recovered-front fraction — the
//! hypervolume-vs-evals trajectory of the multi-objective scheduler.
//!
//! `--serve` replaces the sweep with a daemon-throughput measurement:
//! the `ax-serve` campaign daemon is booted in-process on an ephemeral
//! port, a batch of identical campaigns is pushed through the real HTTP
//! path from concurrent client threads, and the appended record carries
//! jobs/sec plus the shared cache's hit rate (every job replays the same
//! `(benchmark, input_seed)` scope, so the serve figure isolates
//! dispatch + cache-sharing overhead rather than raw evaluation).

use ax_bench::append_bench_record;
use ax_dse::backend::{EvalContext, SharedCache};
use ax_dse::campaign::{BenchmarkSpec, BudgetPolicy, Campaign, ExperimentSpec, SeedRange};
use ax_dse::explore::{AgentKind, ExploreOptions};
use ax_dse::json::Json;
use ax_operators::{AdderId, MulId};
use ax_workloads::workload::Workload;
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

struct Config {
    out: String,
    seeds: Option<u64>,
    steps: Option<u64>,
    reps: u32,
    spec: Option<String>,
    emit_spec: Option<String>,
    policy: Option<String>,
    exec_compare: bool,
    serve: bool,
    pareto: bool,
}

fn parse() -> Result<Config, String> {
    let mut cfg = Config {
        out: "BENCH_sweep.json".into(),
        seeds: None,
        steps: None,
        reps: 3,
        spec: None,
        emit_spec: None,
        policy: None,
        exec_compare: false,
        serve: false,
        pareto: false,
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
                cfg.reps = take("--reps")?
                    .parse()
                    .map_err(|e| format!("bad --reps: {e}"))?;
            }
            "--spec" => cfg.spec = Some(take("--spec")?),
            "--emit-spec" => cfg.emit_spec = Some(take("--emit-spec")?),
            "--policy" => cfg.policy = Some(take("--policy")?),
            "--exec-compare" => cfg.exec_compare = true,
            "--serve" => cfg.serve = true,
            "--pareto" => cfg.pareto = true,
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
                "usage: bench_sweep [--out FILE] [--seeds N] [--steps N] [--reps N] \
                 [--spec FILE] [--emit-spec FILE] [--policy P] [--exec-compare] [--serve] \
                 [--pareto]"
            );
            std::process::exit(1);
        }
    };

    // The measured workload: MatMul 10x10 by default, or whatever a
    // campaign spec names first. Precedence: explicit flags beat the
    // spec, the spec beats the built-in defaults.
    let mut bench_spec = BenchmarkSpec::MatMul(10);
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
    }
    let seeds = cfg.seeds.or(spec_seeds).unwrap_or(8);
    let steps = cfg.steps.or(spec_steps).unwrap_or(300);
    let wl = bench_spec.build();

    let lib = ax_operators::OperatorLibrary::evoapprox();

    if cfg.exec_compare {
        append_exec_compare_record(&cfg.out, wl.as_ref(), &lib, cfg.reps);
        return;
    }

    if cfg.serve {
        append_serve_record(&cfg.out, bench_spec, &wl.name(), seeds, steps);
        return;
    }

    if cfg.pareto {
        append_pareto_record(&cfg.out, steps, seeds);
        return;
    }

    let opts = |seed| ExploreOptions {
        max_steps: steps,
        seed,
        ..Default::default()
    };

    if let Some(path) = &cfg.emit_spec {
        let spec = ExperimentSpec::new("bench-sweep")
            .benchmark(bench_spec)
            .agent(AgentKind::QLearning)
            .seeds(SeedRange::new(0, seeds))
            .explore(opts(0));
        std::fs::write(path, spec.to_json_string()).expect("write spec");
        eprintln!("wrote {path}");
    }

    // The measured unit is the same rayon fan-out the production campaigns
    // use: seeds in parallel over one shared-cache context.
    let run_all = |ctx: &EvalContext| {
        (0..seeds).into_par_iter().for_each(|seed| {
            ax_dse::campaign::explore(ctx, &opts(seed), AgentKind::QLearning);
        });
    };

    // Best-of-N to shave scheduler noise; the cold context is rebuilt per
    // rep so its cache really starts empty.
    let mut cold_ms = f64::INFINITY;
    let mut warm_ms = f64::INFINITY;
    let mut warm_ctx = None;
    for _ in 0..cfg.reps.max(1) {
        let ctx = EvalContext::with_cache(
            wl.as_ref(),
            Arc::new(lib.clone()),
            opts(0).input_seed,
            SharedCache::new(),
        )
        .expect("context");
        let t = Instant::now();
        run_all(&ctx);
        cold_ms = cold_ms.min(t.elapsed().as_secs_f64() * 1e3);
        warm_ctx = Some(ctx);
    }
    let ctx = warm_ctx.expect("at least one rep");
    for _ in 0..cfg.reps.max(1) {
        let t = Instant::now();
        run_all(&ctx);
        warm_ms = warm_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }

    let cache = ctx.shared_cache().expect("shared cache");
    let record = Json::obj(vec![
        ("benchmark", Json::str(ctx.benchmark())),
        ("seeds", Json::u64(seeds)),
        ("max_steps", Json::u64(steps)),
        ("threads", Json::u64(rayon::current_num_threads() as u64)),
        ("cold_ms", Json::Num(format!("{cold_ms:.3}"))),
        ("warm_ms", Json::Num(format!("{warm_ms:.3}"))),
        ("speedup", Json::Num(format!("{:.2}", cold_ms / warm_ms))),
        ("distinct_designs", Json::u64(cache.len() as u64)),
        ("cache_hits", Json::u64(cache.hits())),
        ("cache_misses", Json::u64(cache.misses())),
        (
            "cache_hit_rate",
            Json::Num(format!(
                "{:.4}",
                cache.hits() as f64 / (cache.hits() + cache.misses()).max(1) as f64
            )),
        ),
    ]);
    print!("{}", record.pretty());
    append_bench_record(&cfg.out, record).expect("append BENCH_sweep.json");
    eprintln!("appended to {}", cfg.out);

    if let Some(policy_text) = &cfg.policy {
        let policy = BudgetPolicy::parse_cli(policy_text).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        append_policy_record(&cfg.out, policy_text, policy, &lib, steps, seeds);
    }
}

/// Boots the `ax-serve` daemon in-process on an ephemeral port, pushes a
/// batch of identical campaigns through the real HTTP path from
/// concurrent client threads, and appends a serve-throughput record:
/// jobs/sec end-to-end (submit → last report ready) plus the shared
/// cache's hit rate. Every job replays the same `(benchmark, input_seed)`
/// scope, so after the first wave fills the cache the figure measures the
/// daemon's dispatch and cache-sharing overhead, not raw evaluation.
fn append_serve_record(out: &str, bench: BenchmarkSpec, bench_name: &str, seeds: u64, steps: u64) {
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    const JOBS: usize = 6;
    const WORKERS: usize = 3;

    fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to daemon");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("write request");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("response has headers");
        let status = head
            .split_whitespace()
            .nth(1)
            .expect("status line")
            .parse()
            .expect("numeric status");
        (status, body.to_owned())
    }

    let server = ax_serve::Server::bind(ax_serve::ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        ..Default::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let server_thread = std::thread::spawn(move || server.run().expect("serve loop"));

    let bodies: Vec<String> = (0..JOBS)
        .map(|i| {
            ExperimentSpec::new(format!("serve-bench-{i}"))
                .benchmark(bench)
                .agent(AgentKind::QLearning)
                .seeds(SeedRange::new(0, seeds))
                .explore(ExploreOptions {
                    max_steps: steps,
                    ..Default::default()
                })
                .to_json_string()
        })
        .collect();

    let t = Instant::now();
    let ids: Vec<u64> = std::thread::scope(|scope| {
        let submits: Vec<_> = bodies
            .iter()
            .map(|body| {
                scope.spawn(move || {
                    let (status, reply) = http(addr, "POST", "/campaigns", body);
                    assert_eq!(status, 200, "submit failed: {reply}");
                    Json::parse(&reply)
                        .expect("submit reply is JSON")
                        .get("id")
                        .expect("submit reply has an id")
                        .as_u64()
                        .expect("id is numeric")
                })
            })
            .collect();
        submits
            .into_iter()
            .map(|s| s.join().expect("submit thread"))
            .collect()
    });
    for &id in &ids {
        let deadline = Instant::now() + Duration::from_secs(600);
        loop {
            let (status, body) = http(addr, "GET", &format!("/campaigns/{id}"), "");
            assert_eq!(status, 200, "status poll failed: {body}");
            let doc = Json::parse(&body).expect("status is JSON");
            let state = doc
                .get("state")
                .expect("status has a state")
                .as_str()
                .expect("state is a string")
                .to_owned();
            match state.as_str() {
                "completed" => break,
                "failed" | "cancelled" => panic!("job {id} ended `{state}`: {body}"),
                _ => {}
            }
            assert!(Instant::now() < deadline, "job {id} stuck in `{state}`");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let elapsed_s = t.elapsed().as_secs_f64();

    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "metrics failed: {metrics}");
    let metrics = Json::parse(&metrics).expect("metrics is JSON");
    let cache_stat = |name: &str| {
        metrics
            .get("cache")
            .and_then(|c| c.get(name))
            .expect("metrics has cache stats")
            .as_u64()
            .expect("cache stat is numeric")
    };
    let (hits, misses) = (cache_stat("hits"), cache_stat("misses"));

    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    server_thread.join().expect("server thread exits cleanly");

    let record = Json::obj(vec![
        ("serve_jobs", Json::u64(JOBS as u64)),
        ("workers", Json::u64(WORKERS as u64)),
        ("benchmark", Json::str(bench_name)),
        ("seeds", Json::u64(seeds)),
        ("max_steps", Json::u64(steps)),
        ("elapsed_ms", Json::Num(format!("{:.3}", elapsed_s * 1e3))),
        (
            "jobs_per_sec",
            Json::Num(format!("{:.3}", JOBS as f64 / elapsed_s)),
        ),
        ("cache_hits", Json::u64(hits)),
        ("cache_misses", Json::u64(misses)),
        (
            "cache_hit_rate",
            Json::Num(format!(
                "{:.4}",
                hits as f64 / (hits + misses).max(1) as f64
            )),
        ),
    ]);
    print!("{}", record.pretty());
    append_bench_record(out, record).expect("append serve record");
    eprintln!("appended serve record to {out}");
}

/// Races the MatMul×FIR grid multi-objectively: an exhaustive scalarised
/// run fixes the reference Pareto front over (QoR error, op cost) on the
/// widened operator library, then a Pareto-ranked successive-halving run
/// at 70 % of the exhaustive evaluation spend must recover it. Appends
/// the hypervolume-vs-evals comparison (both hypervolumes are measured
/// against the exhaustive run's resolved reference point, so they are
/// directly comparable).
fn append_pareto_record(out: &str, steps: u64, seeds: u64) {
    use ax_dse::campaign::{Objective, ObjectiveDecl, Ranking};
    use ax_dse::pareto::hypervolume;

    // The widened library: two extra variants per operator family keep
    // the MatMul×FIR fronts from degenerating to two points.
    let lib = ax_operators::OperatorLibrary::evoapprox_extended();
    let (matmul, fir) = (
        ax_workloads::matmul::MatMul::new(10),
        ax_workloads::fir::Fir::new(100),
    );
    // Four agent kinds per benchmark: enough cell diversity for a
    // non-degenerate (>2-point) front over the widened library.
    let agents = [
        AgentKind::QLearning,
        AgentKind::Sarsa,
        AgentKind::ExpectedSarsa,
        AgentKind::DoubleQ,
    ];
    let opts = ExploreOptions {
        max_steps: steps,
        ..Default::default()
    };
    let objectives = vec![
        ObjectiveDecl::new(Objective::QorError),
        ObjectiveDecl::new(Objective::OpCost),
    ];
    let campaign = |budget: Option<u64>, policy: Option<BudgetPolicy>, ranking: Ranking| {
        let mut c = Campaign::new("bench-pareto", &lib)
            .benchmark(&matmul)
            .benchmark(&fir)
            .agents(&agents)
            .seeds(SeedRange::new(0, seeds.min(2)))
            .options(opts)
            .objectives(objectives.clone())
            .ranking(ranking);
        if let Some(b) = budget {
            c = c.budget(b);
        }
        if let Some(p) = policy {
            c = c.policy(p);
        }
        c.run().expect("pareto campaign must run")
    };

    let exhaustive = campaign(None, None, Ranking::Scalarised);
    let exhaustive_evals = exhaustive.budget.spent;
    let budget = (exhaustive_evals * 70 / 100).max(1);
    let policed = campaign(
        Some(budget),
        Some(BudgetPolicy::SuccessiveHalving {
            rounds: 2,
            keep_fraction: 0.5,
        }),
        Ranking::Pareto,
    );
    let pareto_evals = policed.budget.charged();

    // Recovery: every exhaustive front point must reappear on the
    // budgeted run's front — same cell, same objective vector.
    let recovered = exhaustive
        .pareto
        .front
        .iter()
        .filter(|p| {
            policed
                .pareto
                .front
                .iter()
                .any(|q| q.cell == p.cell && q.values == p.values)
        })
        .count();
    let front_points = |report: &ax_dse::campaign::CampaignReport| -> Vec<Vec<f64>> {
        report
            .pareto
            .front
            .iter()
            .map(|p| p.values.clone())
            .collect()
    };
    let reference = exhaustive.pareto.reference.clone();
    let hv_exhaustive = hypervolume(&front_points(&exhaustive), &reference);
    let hv_pareto = hypervolume(&front_points(&policed), &reference);

    let record = Json::obj(vec![
        ("benchmark", Json::str("matmul-10x10 x fir-100")),
        ("kind", Json::str("pareto")),
        ("library", Json::str("evoapprox-extended")),
        ("policy", Json::str("halving:2,0.5")),
        ("objectives", Json::str("qor-error,op-cost")),
        ("seeds", Json::u64(seeds.min(2))),
        ("max_steps", Json::u64(steps)),
        ("threads", Json::u64(rayon::current_num_threads() as u64)),
        ("exhaustive_evals", Json::u64(exhaustive_evals)),
        ("pareto_budget", Json::u64(budget)),
        ("pareto_evals", Json::u64(pareto_evals)),
        (
            "evals_fraction",
            Json::Num(format!(
                "{:.3}",
                pareto_evals as f64 / exhaustive_evals.max(1) as f64
            )),
        ),
        (
            "front_size_exhaustive",
            Json::u64(exhaustive.pareto.front.len() as u64),
        ),
        (
            "front_size_pareto",
            Json::u64(policed.pareto.front.len() as u64),
        ),
        ("front_recovered", Json::u64(recovered as u64)),
        (
            "front_recovered_fraction",
            Json::Num(format!(
                "{:.3}",
                recovered as f64 / exhaustive.pareto.front.len().max(1) as f64
            )),
        ),
        (
            "hypervolume_exhaustive",
            Json::Num(format!("{hv_exhaustive:.6}")),
        ),
        ("hypervolume_pareto", Json::Num(format!("{hv_pareto:.6}"))),
    ]);
    print!("{}", record.pretty());
    append_bench_record(out, record).expect("append pareto record");
    eprintln!("appended pareto record to {out}");

    if recovered < exhaustive.pareto.front.len() {
        eprintln!(
            "error: budgeted Pareto run recovered {recovered} of {} exhaustive front points",
            exhaustive.pareto.front.len()
        );
        std::process::exit(1);
    }
}

/// Races the MatMul×FIR campaign grid under `policy` at 55 % of the
/// evaluation spend of an exhaustive run, and appends the comparison.
fn append_policy_record(
    out: &str,
    policy_text: &str,
    policy: BudgetPolicy,
    lib: &ax_operators::OperatorLibrary,
    steps: u64,
    seeds: u64,
) {
    let (matmul, fir) = (
        ax_workloads::matmul::MatMul::new(10),
        ax_workloads::fir::Fir::new(100),
    );
    let agents = [AgentKind::QLearning, AgentKind::Sarsa];
    let opts = ExploreOptions {
        max_steps: steps,
        ..Default::default()
    };
    let campaign = |budget: Option<u64>, policy: Option<BudgetPolicy>| {
        let mut c = Campaign::new("bench-policy", lib)
            .benchmark(&matmul)
            .benchmark(&fir)
            .agents(&agents)
            .seeds(SeedRange::new(0, seeds.min(2)))
            .options(opts);
        if let Some(b) = budget {
            c = c.budget(b);
        }
        if let Some(p) = policy {
            c = c.policy(p);
        }
        c.run().expect("policy campaign must run")
    };
    let best_of = |report: &ax_dse::campaign::CampaignReport| {
        report
            .cells
            .iter()
            .map(|c| c.best_score)
            .fold(f64::NEG_INFINITY, f64::max)
    };

    let exhaustive = campaign(None, None);
    let exhaustive_evals = exhaustive.budget.spent;
    let budget = (exhaustive_evals * 55 / 100).max(1);
    let policed = campaign(Some(budget), Some(policy.clone()));
    let policy_evals = policed.budget.charged();

    // An async policy is only worth recording against its synchronous
    // counterpart: same rung shape, same budget, barrier back in place.
    let sync_twin = match &policy {
        BudgetPolicy::AsyncHalving {
            rungs,
            keep_fraction,
        } => Some(campaign(
            Some(budget),
            Some(BudgetPolicy::SuccessiveHalving {
                rounds: *rungs,
                keep_fraction: *keep_fraction,
            }),
        )),
        _ => None,
    };

    let mut record = Json::obj(vec![
        ("benchmark", Json::str("matmul-10x10 x fir-100")),
        ("policy", Json::str(policy_text)),
        ("seeds", Json::u64(seeds.min(2))),
        ("max_steps", Json::u64(steps)),
        ("threads", Json::u64(rayon::current_num_threads() as u64)),
        ("exhaustive_evals", Json::u64(exhaustive_evals)),
        ("policy_budget", Json::u64(budget)),
        ("policy_evals", Json::u64(policy_evals)),
        (
            "evals_fraction",
            Json::Num(format!(
                "{:.3}",
                policy_evals as f64 / exhaustive_evals.max(1) as f64
            )),
        ),
        (
            "best_score_exhaustive",
            Json::Num(format!("{:.4}", best_of(&exhaustive))),
        ),
        (
            "best_score_policy",
            Json::Num(format!("{:.4}", best_of(&policed))),
        ),
        ("rounds", Json::u64(policed.allocations.len() as u64)),
    ]);
    if let (Json::Obj(pairs), Some(sync)) = (&mut record, &sync_twin) {
        pairs.push((
            "sync_halving_evals".into(),
            Json::u64(sync.budget.charged()),
        ));
        pairs.push((
            "best_score_sync_halving".into(),
            Json::Num(format!("{:.4}", best_of(sync))),
        ));
    }
    print!("{}", record.pretty());
    append_bench_record(out, record).expect("append policy record");
    eprintln!("appended policy record to {out}");
}

/// Evaluates the benchmark's full enumerated design space — every
/// (adder, multiplier) pair at every variable mask, ordered mask-major so
/// the compiled engine's rewrite-skipping path is exercised the way a real
/// sweep exercises it — cold through both exact engines, best-of-`reps`,
/// and appends the wall-clock comparison. The two outcome vectors are
/// asserted bit-identical first; timing a divergent engine would be
/// meaningless.
///
/// Exits nonzero if the compiled engine is not faster than the
/// interpreter.
fn append_exec_compare_record(
    out: &str,
    wl: &dyn Workload,
    lib: &ax_operators::OperatorLibrary,
    reps: u32,
) {
    let prepared = wl.prepare(0).expect("prepare workload");
    let adders = lib.adders(prepared.program.add_width()).len();
    let muls = lib.multipliers(prepared.program.mul_width()).len();
    // Full mask space over the approximable variables, capped so huge
    // kernels stay enumerable.
    let mask_vars = prepared.program.approximable_vars().len().min(4) as u32;
    let mut configs = Vec::new();
    for bits in 0..(1u64 << mask_vars) {
        for a in 0..adders {
            for m in 0..muls {
                configs.push((AdderId(a), MulId(m), bits));
            }
        }
    }

    let (compiled_out, batch_stats) = prepared
        .run_batch_stats(lib, &configs)
        .expect("compiled batch");
    let interpreted_out = prepared
        .run_batch_interpreted(lib, &configs)
        .expect("interpreted batch");
    assert_eq!(
        compiled_out, interpreted_out,
        "compiled and interpreted engines diverged"
    );

    let time_best = |f: &dyn Fn()| {
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        best
    };
    let compiled_ms = time_best(&|| {
        prepared.run_batch(lib, &configs).expect("compiled batch");
    });
    // The batched reference interpreter: shared memory image, reused
    // scratch, instruction flags recomputed only on mask changes.
    let interpreted_batched_ms = time_best(&|| {
        prepared
            .run_batch_interpreted(lib, &configs)
            .expect("interpreted batch");
    });
    // The per-design interpreter baseline: what a sweep paid before the
    // batch APIs — a fresh executor, scratch allocation and instruction
    // flag computation for every single design.
    let interpreted_ms = time_best(&|| {
        for &(a, m, bits) in &configs {
            let binding = ax_vm::exec::Binding::new(lib, &prepared.program, a, m).expect("binding");
            let mask = ax_vm::instrument::VarMask::with_bits(&prepared.program, bits);
            prepared.run(&binding, &mask).expect("interpreted run");
        }
    });

    let speedup = interpreted_ms / compiled_ms;
    let record = Json::obj(vec![
        ("benchmark", Json::str(wl.name())),
        ("kind", Json::str("exec-compare")),
        ("configs", Json::u64(configs.len() as u64)),
        ("mask_vars", Json::u64(u64::from(mask_vars))),
        ("reps", Json::u64(u64::from(reps.max(1)))),
        ("compiled_ms", Json::Num(format!("{compiled_ms:.3}"))),
        ("interpreted_ms", Json::Num(format!("{interpreted_ms:.3}"))),
        (
            "interpreted_batched_ms",
            Json::Num(format!("{interpreted_batched_ms:.3}")),
        ),
        ("speedup", Json::Num(format!("{speedup:.2}"))),
        (
            "speedup_vs_batched",
            Json::Num(format!("{:.2}", interpreted_batched_ms / compiled_ms)),
        ),
        // Telemetry-derived batch shape: how far the group cache and
        // in-group dedup collapsed the nominal design count.
        ("batch_groups", Json::u64(batch_stats.groups)),
        ("signature_hits", Json::u64(batch_stats.signature_hits)),
        ("dedup_hits", Json::u64(batch_stats.dedup_hits)),
        ("kernel_designs", Json::u64(batch_stats.kernel_designs)),
        (
            "collapse_factor",
            match batch_stats.collapse_factor() {
                Some(f) => Json::Num(format!("{f:.2}")),
                None => Json::Null,
            },
        ),
    ]);
    print!("{}", record.pretty());
    append_bench_record(out, record).expect("append exec-compare record");
    eprintln!("appended exec-compare record to {out}");

    if compiled_ms >= interpreted_ms {
        eprintln!(
            "error: compiled engine ({compiled_ms:.3} ms) did not beat the \
             interpreter ({interpreted_ms:.3} ms)"
        );
        std::process::exit(1);
    }
}
