//! Benchmark-side timing of the evaluation backend: a delegating
//! [`EvalBackend`] that times every call into the backend it wraps, and
//! the providers that put it around each run's backend.

use ax_dse::campaign::{BackendProvider, TieredStats, WrapProvider};
use ax_dse::config::{AxConfig, SpaceDims};
use ax_dse::{EvalBackend, EvalContext, EvalMetrics, Evaluator};
use ax_surrogate::{SurrogateSettings, TieredBackend, TieredProvider};
use ax_vm::VmError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls and busy time summed over every backend wrapped with one probe.
#[derive(Debug, Default)]
pub struct Probe {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl Probe {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed))
    }
}

/// A backend that answers exactly like `inner` and times each call. The
/// totals reach the probe when the backend is dropped, which
/// `Campaign::run_with` does before it returns its report.
pub struct Timed<B> {
    inner: B,
    probe: Arc<Probe>,
    calls: u64,
    busy: Duration,
}

impl<B> Timed<B> {
    pub fn new(inner: B, probe: Arc<Probe>) -> Self {
        Self {
            inner,
            probe,
            calls: 0,
            busy: Duration::ZERO,
        }
    }
}

impl<B> Drop for Timed<B> {
    fn drop(&mut self) {
        self.probe.calls.fetch_add(self.calls, Ordering::Relaxed);
        self.probe
            .busy_ns
            .fetch_add(self.busy.as_nanos() as u64, Ordering::Relaxed);
    }
}

impl<B: EvalBackend> EvalBackend for Timed<B> {
    fn dims(&self) -> SpaceDims {
        self.inner.dims()
    }

    fn program(&self) -> &ax_vm::Program {
        self.inner.program()
    }

    fn precise_power(&self) -> f64 {
        self.inner.precise_power()
    }

    fn precise_time(&self) -> f64 {
        self.inner.precise_time()
    }

    fn mean_abs_output(&self) -> f64 {
        self.inner.mean_abs_output()
    }

    fn distinct_evaluations(&self) -> u64 {
        self.inner.distinct_evaluations()
    }

    fn telemetry_counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.telemetry_counters()
    }

    fn evaluate(&mut self, config: &AxConfig) -> Result<EvalMetrics, VmError> {
        let started = Instant::now();
        let result = self.inner.evaluate(config);
        self.busy += started.elapsed();
        self.calls += 1;
        result
    }

    fn evaluate_batch(&mut self, configs: &[AxConfig]) -> Result<Vec<EvalMetrics>, VmError> {
        let started = Instant::now();
        let result = self.inner.evaluate_batch(configs);
        self.busy += started.elapsed();
        self.calls += configs.len() as u64;
        result
    }
}

/// Exact runs: each run's evaluator behind one timing wrapper.
pub fn exact_provider(
    probe: &Arc<Probe>,
) -> WrapProvider<impl Fn(Evaluator) -> Timed<Evaluator> + Sync + '_> {
    WrapProvider::new(move |evaluator| Timed::new(evaluator, Arc::clone(probe)))
}

/// Tiered runs: [`TieredProvider`]'s shared model and class memo, with one
/// timing wrapper around the whole tiered backend (`outer`) and one around
/// its exact evaluator (`inner`). Their difference is the time the memo,
/// class memo and surrogate take.
pub struct TieredProbe {
    provider: TieredProvider,
    pub outer: Arc<Probe>,
    pub inner: Arc<Probe>,
}

impl TieredProbe {
    pub fn new(settings: SurrogateSettings) -> Self {
        Self {
            provider: TieredProvider::new(settings),
            outer: Arc::default(),
            inner: Arc::default(),
        }
    }
}

impl BackendProvider for TieredProbe {
    type Backend = Timed<TieredBackend<Timed<Evaluator>>>;
    type Shared = <TieredProvider as BackendProvider>::Shared;

    fn prepare(&self, ctx: &EvalContext) -> Self::Shared {
        self.provider.prepare(ctx)
    }

    fn spawn(&self, (model, classes): &Self::Shared, ctx: &EvalContext) -> Self::Backend {
        let exact = Timed::new(ctx.evaluator(), Arc::clone(&self.inner));
        let tiered = TieredBackend::with_class_memo(
            exact,
            Arc::clone(model),
            self.provider.settings(),
            Arc::clone(classes),
        );
        Timed::new(tiered, Arc::clone(&self.outer))
    }

    fn usage(&self, backend: &Self::Backend) -> Option<TieredStats> {
        Some(backend.inner.stats())
    }
}
