//! The exact evaluation backend: runs designs on the compiled engine (or
//! the reference interpreter) against the precise reference.

use super::cache::{CacheScope, Lookup, SharedCache};
use super::{EvalBackend, EvalMetrics};
use crate::config::{AxConfig, SpaceDims};
use ax_agents::hash::WordHashMap;
use ax_operators::metrics::{mae, signed_mean_error};
use ax_operators::OperatorLibrary;
use ax_telemetry::Telemetry;
use ax_vm::compile::{CompiledProgram, CompiledSkeleton, OutcomeKey};
use ax_vm::exec::{run_from_image, Binding, ExecScratch};
use ax_vm::instrument::VarMask;
use ax_vm::VmError;
use ax_workloads::{PreparedWorkload, Workload};
use std::sync::{Arc, RwLock};

/// Which execution engine [`Evaluator`]s spawned from an [`EvalContext`]
/// run cache-missing designs on. Both engines are bit-identical in outputs
/// and profiles; they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// The threaded-code engine ([`ax_vm::compile`]): designs are
    /// specialised from a shared offset-resolved skeleton and run without
    /// per-instruction flag or cost-table lookups. The default.
    #[default]
    Compiled,
    /// The instrumented interpreter ([`ax_vm::exec::run_from_image`]) —
    /// kept as the reference implementation (`"exact-interpreted"` in
    /// campaign specs) for differential testing and perf baselines.
    Interpreter,
}

/// A cheap-to-clone, `Send + Sync` handle for spawning evaluators of one
/// prepared benchmark.
///
/// The context owns the prepared workload, the precise reference outputs
/// and the operator library behind `Arc`s, plus (optionally) a
/// [`SharedCache`] scope. Cloning it and calling [`EvalContext::evaluator`]
/// on each worker thread is how sweeps fan out: every evaluator shares the
/// preparation work, the design cache and the compiled engine's outcome
/// memo, while keeping its own scratch buffers and local memo table.
#[derive(Debug, Clone)]
pub struct EvalContext {
    benchmark: String,
    input_seed: u64,
    prepared: Arc<PreparedWorkload>,
    lib: Arc<OperatorLibrary>,
    dims: SpaceDims,
    /// Initial interpreter memory (inputs bound, temps zeroed), resolved
    /// once per context: each design evaluation replays it with a memcpy
    /// instead of re-binding (and re-cloning) every input vector.
    base_image: Arc<Vec<i64>>,
    /// The program's offset-resolved threaded-code skeleton, built once per
    /// context and shared by every spawned evaluator's compiled engine.
    skeleton: Arc<CompiledSkeleton>,
    /// The compiled engine's execution-equivalence memo: metrics of every
    /// executed design, keyed by [`CompiledSkeleton::outcome_key`], so a
    /// design equivalent to one any evaluator of this context already ran
    /// is answered without a VM run. Fresh per context build. Its keys are
    /// computed by the program, so it takes the word hasher.
    memo: Arc<RwLock<WordHashMap<OutcomeKey, EvalMetrics>>>,
    engine: ExecEngine,
    precise_outputs: Arc<Vec<f64>>,
    precise_power: f64,
    precise_time: f64,
    shared: Option<(Arc<SharedCache>, CacheScope)>,
    /// Telemetry handle spawned evaluators report through. Disabled by
    /// default: the hot path then pays exactly one branch per execution.
    telemetry: Telemetry,
}

impl EvalContext {
    /// Prepares `workload` with inputs from `input_seed` and runs the
    /// precise reference, without a shared cache.
    ///
    /// # Errors
    ///
    /// Fails if the workload cannot be built, the library lacks operators
    /// at the workload's widths, or the precise run fails.
    pub fn new(
        workload: &dyn Workload,
        lib: Arc<OperatorLibrary>,
        input_seed: u64,
    ) -> Result<Self, VmError> {
        Self::build(workload, lib, input_seed, None)
    }

    /// Like [`EvalContext::new`], but evaluators spawned from this context
    /// share memoised designs through `cache`.
    ///
    /// # Errors
    ///
    /// Same as [`EvalContext::new`].
    pub fn with_cache(
        workload: &dyn Workload,
        lib: Arc<OperatorLibrary>,
        input_seed: u64,
        cache: Arc<SharedCache>,
    ) -> Result<Self, VmError> {
        Self::build(workload, lib, input_seed, Some(cache))
    }

    fn build(
        workload: &dyn Workload,
        lib: Arc<OperatorLibrary>,
        input_seed: u64,
        cache: Option<Arc<SharedCache>>,
    ) -> Result<Self, VmError> {
        let benchmark = workload.name();
        let prepared = workload.prepare(input_seed)?;
        let n_add = lib.adders(prepared.program.add_width()).len();
        let n_mul = lib.multipliers(prepared.program.mul_width()).len();
        if n_add == 0 {
            return Err(VmError::UnsupportedWidth {
                what: "adder",
                width_bits: prepared.program.add_width().bits(),
            });
        }
        if n_mul == 0 {
            return Err(VmError::UnsupportedWidth {
                what: "multiplier",
                width_bits: prepared.program.mul_width().bits(),
            });
        }
        let n_vars = VarMask::none(&prepared.program).len();
        let skeleton = Arc::new(CompiledSkeleton::new(&prepared.program));
        let base_image = prepared.executor()?.initial_memory()?;
        let reference = prepared.run_precise(&lib)?;
        let precise_outputs: Vec<f64> = reference.outputs.iter().map(|&v| v as f64).collect();
        let shared = cache.map(|c| {
            let scope = c.scope(&benchmark, input_seed);
            (c, scope)
        });
        Ok(Self {
            benchmark,
            input_seed,
            prepared: Arc::new(prepared),
            lib,
            dims: SpaceDims {
                n_add,
                n_mul,
                n_vars,
            },
            base_image: Arc::new(base_image),
            skeleton,
            memo: Arc::default(),
            engine: ExecEngine::default(),
            precise_outputs: Arc::new(precise_outputs),
            precise_power: reference.profile.power_mw,
            precise_time: reference.profile.time_ns,
            shared,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Spawns an evaluator sharing this context's preparation and cache.
    pub fn evaluator(&self) -> Evaluator {
        Evaluator {
            mask: VarMask::none(&self.prepared.program),
            compiled: None,
            ctx: self.clone(),
            cache: WordHashMap::default(),
            hits: 0,
            shared_hits: 0,
            executions: 0,
            scratch: ExecScratch::new(),
        }
    }

    /// This context with a different execution engine; evaluators spawned
    /// afterwards run cache-missing designs on it. The default is
    /// [`ExecEngine::Compiled`].
    #[must_use]
    pub fn with_engine(mut self, engine: ExecEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The execution engine spawned evaluators use.
    pub fn engine(&self) -> ExecEngine {
        self.engine
    }

    /// This context reporting through `telemetry` (a cheap shared handle):
    /// evaluators spawned afterwards record the latency of every real VM run
    /// in the `exec.latency_ns` histogram (outcome-memo answers are not VM
    /// runs). The default is [`Telemetry::disabled`], which costs one
    /// branch per execution.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// The telemetry handle spawned evaluators report through.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The benchmark's name.
    pub fn benchmark(&self) -> &str {
        &self.benchmark
    }

    /// The benchmark input seed this context was prepared with.
    pub fn input_seed(&self) -> u64 {
        self.input_seed
    }

    /// The operator library evaluators bind against.
    pub fn library(&self) -> &Arc<OperatorLibrary> {
        &self.lib
    }

    /// The shared cache, if this context carries one.
    pub fn shared_cache(&self) -> Option<&Arc<SharedCache>> {
        self.shared.as_ref().map(|(c, _)| c)
    }

    /// Derives the Δ metrics of one executed design from its outcome.
    fn metrics_from(&self, outcome: &ax_vm::exec::ExecOutcome) -> EvalMetrics {
        let approx: Vec<f64> = outcome.outputs.iter().map(|&v| v as f64).collect();
        EvalMetrics {
            delta_acc: mae(&self.precise_outputs, &approx),
            delta_power: self.precise_power - outcome.profile.power_mw,
            delta_time: self.precise_time - outcome.profile.time_ns,
            signed_error: signed_mean_error(&self.precise_outputs, &approx),
            power: outcome.profile.power_mw,
            time_ns: outcome.profile.time_ns,
        }
    }
}

/// The exact evaluation backend: runs configurations of one benchmark on
/// the context's [`ExecEngine`] against the precise reference, memoising by
/// configuration.
#[derive(Debug)]
pub struct Evaluator {
    ctx: EvalContext,
    /// Process-internal design memo (word-hashed; the [`SharedCache`],
    /// whose keys can come from loaded files, keeps std's SipHash).
    cache: WordHashMap<AxConfig, EvalMetrics>,
    hits: u64,
    shared_hits: u64,
    executions: u64,
    scratch: ExecScratch,
    /// Reused selection mask — rebuilding the variable table per design
    /// would be an allocation on the hot path.
    mask: VarMask,
    /// The compiled engine's specialised program, lazily built from the
    /// context's shared skeleton and re-specialised in place per design
    /// (operator swaps are O(1); mask changes rewrite the opcodes without
    /// allocating). `None` until the first compiled execution.
    compiled: Option<CompiledProgram>,
}

impl Evaluator {
    /// Prepares `workload` with inputs from `input_seed` and runs the
    /// precise reference.
    ///
    /// The library is cloned once into an `Arc`; sweeps spawning many
    /// evaluators should build one [`EvalContext`] instead and share it.
    ///
    /// # Errors
    ///
    /// Fails if the workload cannot be built, the library lacks operators at
    /// the workload's widths, or the precise run fails.
    pub fn new(
        workload: &dyn Workload,
        lib: &OperatorLibrary,
        input_seed: u64,
    ) -> Result<Self, VmError> {
        Ok(EvalContext::new(workload, Arc::new(lib.clone()), input_seed)?.evaluator())
    }

    /// The context this evaluator was spawned from.
    pub fn context(&self) -> &EvalContext {
        &self.ctx
    }

    /// Number of evaluations answered from this evaluator's own cache.
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// Number of evaluations answered by the shared cache (designs another
    /// evaluator executed first).
    pub fn shared_cache_hits(&self) -> u64 {
        self.shared_hits
    }

    /// Number of designs this evaluator resolved past both design caches
    /// (its own and the shared one), whichever engine ran them. On the
    /// compiled engine some of them are answered by the context's outcome
    /// memo instead of a VM run; this count includes those.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// All evaluated configurations with their metrics (for Pareto
    /// analysis and surrogate training harvests), in unspecified order.
    pub fn evaluated(&self) -> Vec<(AxConfig, EvalMetrics)> {
        self.cache.iter().map(|(c, m)| (*c, *m)).collect()
    }

    fn execute(&mut self, config: &AxConfig) -> Result<EvalMetrics, VmError> {
        let ctx = &self.ctx;
        // The interpreter stays the per-design reference: only the compiled
        // engine answers from the execution-equivalence memo.
        let key = (ctx.engine == ExecEngine::Compiled).then(|| {
            ctx.skeleton
                .outcome_key(config.adder, config.mul, config.vars)
        });
        if let Some(key) = &key {
            if let Some(m) = ctx.memo.read().expect("outcome memo poisoned").get(key) {
                self.executions += 1;
                return Ok(*m);
            }
        }
        // One branch when telemetry is disabled — the hot path stays free.
        let started = ctx.telemetry.enabled().then(std::time::Instant::now);
        let binding = Binding::new(&ctx.lib, &ctx.prepared.program, config.adder, config.mul)?;
        let outcome = match ctx.engine {
            ExecEngine::Compiled => {
                let compiled = match &mut self.compiled {
                    Some(c) => {
                        c.specialize(&binding, config.vars);
                        c
                    }
                    none => none.insert(ctx.skeleton.compile(&binding, config.vars)),
                };
                compiled.run(&ctx.base_image, &mut self.scratch)?
            }
            ExecEngine::Interpreter => {
                self.mask.set_raw_bits(config.vars);
                run_from_image(
                    &ctx.prepared.program,
                    &ctx.base_image,
                    &binding,
                    &self.mask,
                    &mut self.scratch,
                )?
            }
        };
        self.executions += 1;
        if let Some(t0) = started {
            ctx.telemetry
                .observe("exec.latency_ns", t0.elapsed().as_nanos() as u64);
        }
        let metrics = ctx.metrics_from(&outcome);
        if let Some(key) = key {
            ctx.memo
                .write()
                .expect("outcome memo poisoned")
                .insert(key, metrics);
        }
        Ok(metrics)
    }
}

impl EvalBackend for Evaluator {
    fn dims(&self) -> SpaceDims {
        self.ctx.dims
    }

    fn program(&self) -> &ax_vm::Program {
        &self.ctx.prepared.program
    }

    fn precise_power(&self) -> f64 {
        self.ctx.precise_power
    }

    fn precise_time(&self) -> f64 {
        self.ctx.precise_time
    }

    fn mean_abs_output(&self) -> f64 {
        self.ctx
            .precise_outputs
            .iter()
            .map(|v| v.abs())
            .sum::<f64>()
            / self.ctx.precise_outputs.len() as f64
    }

    fn distinct_evaluations(&self) -> u64 {
        self.cache.len() as u64
    }

    fn telemetry_counters(&self) -> Vec<(&'static str, u64)> {
        let mut counters = vec![
            ("backend.local_hits", self.hits),
            ("backend.shared_hits", self.shared_hits),
            ("backend.executions", self.executions),
        ];
        match self.ctx.engine {
            ExecEngine::Compiled => counters.push(("engine.compiled_runs", self.executions)),
            ExecEngine::Interpreter => counters.push(("engine.interpreted_runs", self.executions)),
        }
        if let Some(compiled) = &self.compiled {
            let batch = compiled.batch_stats();
            if batch.designs > 0 {
                counters.extend([
                    ("engine.batch.designs", batch.designs),
                    ("engine.batch.groups", batch.groups),
                    ("engine.batch.signature_hits", batch.signature_hits),
                    ("engine.batch.dedup_hits", batch.dedup_hits),
                    ("engine.batch.kernel_designs", batch.kernel_designs),
                    ("engine.batch.sequential_designs", batch.sequential_designs),
                    ("engine.batch.kernel_invocations", batch.kernel_invocations),
                    ("engine.batch.stage1_ns", batch.stage1_ns),
                    ("engine.batch.stage2_ns", batch.stage2_ns),
                ]);
            }
        }
        counters
    }

    /// Evaluates a configuration (cached: local memo table first, then the
    /// shared cache, then the context's engine — on the compiled engine,
    /// through the context's outcome memo).
    ///
    /// # Errors
    ///
    /// Propagates execution errors; impossible for validated workloads whose
    /// multiplication operands are program inputs.
    ///
    /// # Panics
    ///
    /// Panics if `config` is outside this benchmark's space.
    fn evaluate(&mut self, config: &AxConfig) -> Result<EvalMetrics, VmError> {
        assert!(
            config.is_valid(self.ctx.dims),
            "configuration {config} outside the space"
        );
        if let Some(m) = self.cache.get(config) {
            self.hits += 1;
            return Ok(*m);
        }
        // Single flight: a design another evaluator is computing right now
        // is waited for, not computed twice.
        let claim = match &self.ctx.shared {
            Some((cache, scope)) => match cache.get_or_claim(*scope, config) {
                Lookup::Hit(m) => {
                    self.shared_hits += 1;
                    self.cache.insert(*config, m);
                    return Ok(m);
                }
                Lookup::Claim(claim) => Some(claim),
            },
            None => None,
        };
        // On an error the claim drops unfilled and a waiter takes over.
        let metrics = self.execute(config)?;
        self.cache.insert(*config, metrics);
        if let Some(claim) = claim {
            claim.fill(metrics);
        }
        Ok(metrics)
    }

    /// Batched evaluation: configurations the caches cannot answer are
    /// deduplicated and executed one by one on the same path as
    /// [`EvalBackend::evaluate`], reusing the context's base image and this
    /// evaluator's scratch buffers across the whole slice.
    ///
    /// # Errors
    ///
    /// Stops at the first failing configuration.
    ///
    /// # Panics
    ///
    /// Panics if any configuration is outside this benchmark's space.
    fn evaluate_batch(&mut self, configs: &[AxConfig]) -> Result<Vec<EvalMetrics>, VmError> {
        // Pass 1: answer from the caches, collecting the distinct designs
        // that actually need the engine. The set mirrors `to_run` so
        // dedup stays O(1) per config and duplicate pending designs don't
        // re-query (and re-count misses against) the shared cache.
        let mut to_run: Vec<AxConfig> = Vec::new();
        let mut pending: std::collections::HashSet<AxConfig> = std::collections::HashSet::new();
        for config in configs {
            assert!(
                config.is_valid(self.ctx.dims),
                "configuration {config} outside the space"
            );
            if self.cache.contains_key(config) {
                self.hits += 1;
                continue;
            }
            if pending.contains(config) {
                continue;
            }
            if let Some((cache, scope)) = &self.ctx.shared {
                if let Some(m) = cache.get(*scope, config) {
                    self.shared_hits += 1;
                    self.cache.insert(*config, m);
                    continue;
                }
            }
            pending.insert(*config);
            to_run.push(*config);
        }

        // Pass 2: execute the misses on the same hot path as `evaluate`.
        for config in &to_run {
            let metrics = self.execute(config)?;
            self.cache.insert(*config, metrics);
            if let Some((cache, scope)) = &self.ctx.shared {
                cache.insert(*scope, *config, metrics);
            }
        }

        // Pass 3: assemble in input order from the (now complete) local
        // cache.
        Ok(configs.iter().map(|c| self.cache[c]).collect())
    }
}

// Inherent forwarders so existing `Evaluator` call sites (and ones that
// prefer not to import the trait) keep working unchanged.
impl Evaluator {
    /// See [`EvalBackend::dims`].
    pub fn dims(&self) -> SpaceDims {
        EvalBackend::dims(self)
    }

    /// See [`EvalBackend::program`].
    pub fn program(&self) -> &ax_vm::Program {
        EvalBackend::program(self)
    }

    /// See [`EvalBackend::precise_power`].
    pub fn precise_power(&self) -> f64 {
        EvalBackend::precise_power(self)
    }

    /// See [`EvalBackend::precise_time`].
    pub fn precise_time(&self) -> f64 {
        EvalBackend::precise_time(self)
    }

    /// See [`EvalBackend::mean_abs_output`].
    pub fn mean_abs_output(&self) -> f64 {
        EvalBackend::mean_abs_output(self)
    }

    /// See [`EvalBackend::distinct_evaluations`].
    pub fn distinct_evaluations(&self) -> u64 {
        EvalBackend::distinct_evaluations(self)
    }

    /// See [`EvalBackend::evaluate`].
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    ///
    /// # Panics
    ///
    /// Panics if `config` is outside this benchmark's space.
    pub fn evaluate(&mut self, config: &AxConfig) -> Result<EvalMetrics, VmError> {
        EvalBackend::evaluate(self, config)
    }

    /// See [`EvalBackend::evaluate_batch`].
    ///
    /// # Errors
    ///
    /// Stops at the first failing configuration.
    pub fn evaluate_batch(&mut self, configs: &[AxConfig]) -> Result<Vec<EvalMetrics>, VmError> {
        EvalBackend::evaluate_batch(self, configs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ax_operators::{AdderId, MulId};
    use ax_workloads::dot::DotProduct;
    use ax_workloads::fir::Fir;
    use ax_workloads::matmul::MatMul;

    fn evaluator() -> Evaluator {
        let lib = OperatorLibrary::evoapprox();
        Evaluator::new(&MatMul::new(4), &lib, 11).unwrap()
    }

    #[test]
    fn precise_config_has_zero_deltas() {
        let mut ev = evaluator();
        let m = ev.evaluate(&AxConfig::precise()).unwrap();
        assert_eq!(m.delta_acc, 0.0);
        assert_eq!(m.delta_power, 0.0);
        assert_eq!(m.delta_time, 0.0);
        assert_eq!(m.signed_error, 0.0);
        assert_eq!(m.power, ev.precise_power());
    }

    #[test]
    fn empty_mask_with_approx_operators_still_precise() {
        // No variables selected -> nothing routed through the approximate
        // operators, regardless of the configured adder/multiplier.
        let mut ev = evaluator();
        let m = ev
            .evaluate(&AxConfig {
                adder: AdderId(5),
                mul: MulId(5),
                vars: 0,
            })
            .unwrap();
        assert_eq!(m.delta_acc, 0.0);
        assert_eq!(m.delta_power, 0.0);
    }

    #[test]
    fn full_approximation_maximises_power_saving() {
        let mut ev = evaluator();
        let dims = ev.dims();
        let full = AxConfig {
            adder: AdderId(dims.n_add - 1),
            mul: MulId(dims.n_mul - 1),
            vars: (1 << dims.n_vars) - 1,
        };
        let m_full = ev.evaluate(&full).unwrap();
        // Every other configuration saves at most as much power.
        for c in AxConfig::enumerate(dims) {
            let m = ev.evaluate(&c).unwrap();
            assert!(m.delta_power <= m_full.delta_power + 1e-9, "{c}");
        }
        assert!(m_full.delta_acc > 0.0);
    }

    #[test]
    fn cache_hits_are_counted() {
        let mut ev = evaluator();
        let c = AxConfig {
            adder: AdderId(1),
            mul: MulId(1),
            vars: 0b11,
        };
        ev.evaluate(&c).unwrap();
        assert_eq!(ev.distinct_evaluations(), 1);
        assert_eq!(ev.cache_hits(), 0);
        assert_eq!(ev.executions(), 1);
        ev.evaluate(&c).unwrap();
        assert_eq!(ev.distinct_evaluations(), 1);
        assert_eq!(ev.cache_hits(), 1);
        assert_eq!(ev.executions(), 1);
    }

    #[test]
    fn dims_match_library_and_program() {
        let ev = evaluator();
        let dims = ev.dims();
        assert_eq!(dims.n_add, 6);
        assert_eq!(dims.n_mul, 6);
        assert_eq!(dims.n_vars, 4); // a, b, prod, c
    }

    #[test]
    fn mean_abs_output_is_positive() {
        let ev = evaluator();
        assert!(ev.mean_abs_output() > 0.0);
    }

    #[test]
    fn works_for_single_output_workload() {
        let lib = OperatorLibrary::evoapprox();
        let mut ev = Evaluator::new(&DotProduct::new(6), &lib, 3).unwrap();
        let m = ev
            .evaluate(&AxConfig {
                adder: AdderId(4),
                mul: MulId(4),
                vars: 0b1111,
            })
            .unwrap();
        assert!(m.delta_power > 0.0);
    }

    #[test]
    #[should_panic(expected = "outside the space")]
    fn invalid_config_rejected() {
        let mut ev = evaluator();
        let _ = ev.evaluate(&AxConfig {
            adder: AdderId(9),
            mul: MulId(0),
            vars: 0,
        });
    }

    #[test]
    fn batch_matches_single_evaluations() {
        let mut a = evaluator();
        let mut b = evaluator();
        let configs: Vec<AxConfig> = AxConfig::enumerate(a.dims()).into_iter().take(40).collect();
        let batch = a.evaluate_batch(&configs).unwrap();
        for (c, m) in configs.iter().zip(&batch) {
            assert_eq!(*m, b.evaluate(c).unwrap(), "{c}");
        }
    }

    #[test]
    fn batch_deduplicates_and_reuses_caches() {
        let mut ev = evaluator();
        let c1 = AxConfig {
            adder: AdderId(1),
            mul: MulId(2),
            vars: 0b11,
        };
        let c2 = AxConfig {
            adder: AdderId(3),
            mul: MulId(4),
            vars: 0b01,
        };
        ev.evaluate(&c1).unwrap();
        // A batch with a repeat and an already-cached design executes only
        // the genuinely new configuration.
        let batch = ev.evaluate_batch(&[c1, c2, c2, c1]).unwrap();
        assert_eq!(ev.executions(), 2);
        assert_eq!(ev.cache_hits(), 2, "c1 twice from the local cache");
        assert_eq!(batch[0], batch[3]);
        assert_eq!(batch[1], batch[2]);
    }

    #[test]
    fn shared_cache_serves_second_evaluator() {
        let lib = Arc::new(OperatorLibrary::evoapprox());
        let cache = SharedCache::new();
        let ctx = EvalContext::with_cache(&MatMul::new(4), lib, 11, Arc::clone(&cache)).unwrap();
        let c = AxConfig {
            adder: AdderId(2),
            mul: MulId(3),
            vars: 0b101,
        };

        let mut first = ctx.evaluator();
        let m1 = first.evaluate(&c).unwrap();
        assert_eq!(first.executions(), 1);
        assert_eq!(cache.len(), 1);

        let mut second = ctx.evaluator();
        let m2 = second.evaluate(&c).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(
            second.executions(),
            0,
            "design must come from the shared cache"
        );
        assert_eq!(second.shared_cache_hits(), 1);
    }

    #[test]
    fn shared_cache_scopes_isolate_input_seeds() {
        let lib = Arc::new(OperatorLibrary::evoapprox());
        let cache = SharedCache::new();
        let wl = MatMul::new(4);
        let ctx_a = EvalContext::with_cache(&wl, Arc::clone(&lib), 1, Arc::clone(&cache)).unwrap();
        let ctx_b = EvalContext::with_cache(&wl, Arc::clone(&lib), 2, Arc::clone(&cache)).unwrap();
        let c = AxConfig {
            adder: AdderId(5),
            mul: MulId(5),
            vars: 0b1111,
        };
        let ma = ctx_a.evaluator().evaluate(&c).unwrap();
        let mut eb = ctx_b.evaluator();
        let mb = eb.evaluate(&c).unwrap();
        // Different inputs -> the second evaluator must execute, not reuse.
        assert_eq!(eb.executions(), 1);
        assert_eq!(cache.len(), 2);
        // And (with different input data) the observed error differs.
        assert_ne!(ma.delta_acc, mb.delta_acc);
    }

    #[test]
    fn shared_cache_is_send_sync_and_concurrent() {
        let lib = Arc::new(OperatorLibrary::evoapprox());
        let cache = SharedCache::new();
        let ctx = EvalContext::with_cache(&MatMul::new(4), lib, 7, Arc::clone(&cache)).unwrap();
        let configs = AxConfig::enumerate(ctx.evaluator().dims());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let ctx = ctx.clone();
                let configs = &configs;
                s.spawn(move || {
                    let mut ev = ctx.evaluator();
                    for c in configs {
                        ev.evaluate(c).unwrap();
                    }
                });
            }
        });
        // All threads agree on one memo table of the whole space.
        assert_eq!(cache.len(), configs.len());
        assert!(cache.hits() > 0);
    }

    #[test]
    fn bounded_shared_cache_still_serves_evaluators() {
        // A tightly bounded cache evicts aggressively yet never changes
        // results — designs just get re-executed after eviction.
        let lib = Arc::new(OperatorLibrary::evoapprox());
        let cache = SharedCache::with_capacity(2, 8);
        let ctx = EvalContext::with_cache(&MatMul::new(4), lib, 11, Arc::clone(&cache)).unwrap();
        let mut reference = ctx.evaluator();
        let mut bounded = ctx.evaluator();
        for c in AxConfig::enumerate(ctx.evaluator().dims())
            .into_iter()
            .take(100)
        {
            assert_eq!(
                bounded.evaluate(&c).unwrap(),
                reference.evaluate(&c).unwrap(),
                "{c}"
            );
            assert!(cache.len() <= cache.capacity().unwrap());
        }
        assert!(cache.evictions() > 0);
    }

    /// Every metric field's bit pattern, so `-0.0`/`0.0` and NaNs compare
    /// exactly.
    fn metric_bits(m: &EvalMetrics) -> [u64; 6] {
        [
            m.delta_acc,
            m.delta_power,
            m.delta_time,
            m.signed_error,
            m.power,
            m.time_ns,
        ]
        .map(f64::to_bits)
    }

    /// Runs every configuration of `workload` on `evoapprox-extended`
    /// through a compiled and an interpreted evaluator, in enumeration
    /// order or reversed, and requires bit-identical results.
    fn assert_engines_agree(workload: &dyn Workload, reverse: bool) {
        let lib = Arc::new(OperatorLibrary::evoapprox_extended());
        let ctx = EvalContext::new(workload, Arc::clone(&lib), 5).unwrap();
        let reference = EvalContext::new(workload, lib, 5)
            .unwrap()
            .with_engine(ExecEngine::Interpreter);
        let mut configs = AxConfig::enumerate(ctx.dims);
        if reverse {
            configs.reverse();
        }
        let (mut compiled, mut interpreted) = (ctx.evaluator(), reference.evaluator());
        for c in &configs {
            match (compiled.evaluate(c), interpreted.evaluate(c)) {
                (Ok(a), Ok(b)) => assert_eq!(metric_bits(&a), metric_bits(&b), "{c}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "{c}"),
                (a, b) => panic!("{c}: engines diverge: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(compiled.executions(), configs.len() as u64);
        assert_eq!(interpreted.executions(), configs.len() as u64);
        // The memo collapsed equivalent designs (every empty selection, at
        // least) onto one VM run each.
        let runs = ctx.memo.read().unwrap().len();
        assert!(
            runs < configs.len(),
            "{runs} runs for {} designs",
            configs.len()
        );
    }

    #[test]
    fn compiled_memo_matches_interpreter_on_matmul_forward_and_reverse() {
        assert_engines_agree(&MatMul::new(4), false);
        assert_engines_agree(&MatMul::new(4), true);
    }

    #[test]
    fn compiled_memo_matches_interpreter_on_fir_forward_and_reverse() {
        assert_engines_agree(&Fir::new(6), false);
        assert_engines_agree(&Fir::new(6), true);
    }

    fn latency_samples(telemetry: &Telemetry) -> u64 {
        telemetry
            .snapshot()
            .unwrap()
            .histogram("exec.latency_ns")
            .map_or(0, |h| h.count)
    }

    #[test]
    fn evaluators_of_one_context_share_the_outcome_memo() {
        let telemetry = Telemetry::new();
        let lib = Arc::new(OperatorLibrary::evoapprox());
        let ctx = EvalContext::new(&MatMul::new(4), lib, 11)
            .unwrap()
            .with_telemetry(&telemetry);
        // Nothing selected: both designs run precisely, so they share one
        // outcome key although their operators differ.
        let c1 = AxConfig {
            adder: AdderId(2),
            mul: MulId(3),
            vars: 0,
        };
        let c2 = AxConfig {
            adder: AdderId(4),
            mul: MulId(1),
            vars: 0,
        };
        let mut first = ctx.evaluator();
        let m1 = first.evaluate(&c1).unwrap();
        let mut second = ctx.evaluator();
        let m2 = second.evaluate(&c2).unwrap();
        assert_eq!(metric_bits(&m1), metric_bits(&m2));
        // Both count as executions; only the first was a VM run.
        assert_eq!((first.executions(), second.executions()), (1, 1));
        assert_eq!(latency_samples(&telemetry), 1);
        assert_eq!(ctx.memo.read().unwrap().len(), 1);
    }

    #[test]
    fn interpreter_engine_runs_every_design() {
        let telemetry = Telemetry::new();
        let lib = Arc::new(OperatorLibrary::evoapprox());
        let ctx = EvalContext::new(&MatMul::new(4), lib, 11)
            .unwrap()
            .with_engine(ExecEngine::Interpreter)
            .with_telemetry(&telemetry);
        let configs = AxConfig::enumerate(ctx.dims);
        let mut ev = ctx.evaluator();
        for c in &configs {
            ev.evaluate(c).unwrap();
        }
        assert_eq!(ev.executions(), configs.len() as u64);
        assert_eq!(latency_samples(&telemetry), ev.executions());
        assert!(ctx.memo.read().unwrap().is_empty());
    }

    #[test]
    fn eval_context_handles_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EvalContext>();
        assert_send_sync::<SharedCache>();
        assert_send_sync::<Evaluator>();
    }
}
