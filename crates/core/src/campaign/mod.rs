//! The campaign layer: declarative experiment specs over one polymorphic
//! driver.
//!
//! The paper's methodology is a *campaign* — train agents across
//! benchmarks, seeds and reward targets, then compare fronts — and this
//! module is its single entry point. An [`ExperimentSpec`] describes the
//! whole experiment as serialisable data (benchmarks, agent roster, seed
//! range, [`BackendSpec`] backend choice, budget and parallelism); the
//! [`Campaign`] driver executes any such grid through any
//! [`BackendProvider`], shares one design [`crate::backend::SharedCache`]
//! across every run, enforces an optional global [`EvalBudget`]
//! cooperatively across rayon workers, streams progress through
//! [`Observer`] hooks and returns a structured [`CampaignReport`].
//!
//! Budgets are divided across (benchmark, agent) cells by a
//! [`BudgetPolicy`]: even shares, weighted shares, a successive-halving
//! scheduler that runs the grid in rounds, an asynchronous (ASHA)
//! scheduler that promotes cells rung by rung without a round barrier,
//! or a Hyperband outer loop sweeping whole bracket configurations
//! ([`CellLedger`], [`RungLedger`], per-round/rung/bracket
//! [`AllocationReport`]s). See `docs/spec_reference.md` for the complete
//! JSON schema of every spec field and policy form.
//!
//! Every exploration entry point routes through this driver — a 1×1×N
//! campaign is a seed sweep, a 1×M×1 campaign is a portfolio race — and
//! specs checked in as JSON run end-to-end via `repro run <spec.json>`.
//! Long-lived supervision rides the same machinery: a [`CampaignControl`]
//! cancels or pauses a campaign cooperatively at step boundaries, extra
//! stacked budgets ([`Campaign::extra_budget`]) let a [`GlobalScheduler`]
//! arbitrate one server-wide budget across many concurrent campaigns (the
//! `ax-serve` daemon), and [`ExperimentSpec`]s submitted there produce
//! reports byte-identical to a local `repro run`.

#![warn(missing_docs)]

pub mod budget;
pub mod control;
pub mod driver;
pub mod global;
pub mod spec;

pub use budget::{CellLedger, EvalBudget, MeteredBackend, RungLedger};
pub use control::{CampaignControl, ControlState};
pub use driver::{
    explore, AllocationReport, BackendProvider, BudgetReport, Campaign, CampaignReport,
    CellAllocation, CellReport, ExactProvider, InterpretedProvider, NullObserver, Observer,
    ParetoPoint, ParetoReport, TelemetrySummary, TieredStats, WrapProvider,
};
pub use global::{GlobalScheduler, JobPhase, JobTicket};
// The telemetry vocabulary campaign observers speak, re-exported so
// downstream crates need no direct `ax-telemetry` dependency.
pub use ax_telemetry::{
    Event, EventKind, EventSink, JsonlSink, MetricsSnapshot, RingBuffer, Telemetry,
    SOURCE_COORDINATOR,
};
pub use spec::{
    BackendSpec, BenchmarkSpec, BudgetPolicy, ExperimentSpec, HalvingBracket, LibrarySpec,
    SeedRange, SpecError,
};
// The multi-objective vocabulary campaign ranking and reports speak.
pub use crate::pareto::{DesignObjectives, Objective, ObjectiveDecl, Ranking};

/// Tuning of the two-tier surrogate policy and its underlying regressor.
///
/// Lives in the backend-agnostic campaign layer so a [`BackendSpec`] can
/// name it in serialised specs; the implementation consuming it is the
/// `ax-surrogate` crate's `TieredBackend` (which re-exports this type).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurrogateSettings {
    /// Exact evaluations to absorb before the surrogate may answer.
    pub warmup: u64,
    /// Trust gate: every metric's windowed mean relative shadow error must
    /// stay at or below this for the surrogate to answer.
    pub max_rel_err: f64,
    /// Shadow confirmations required before the gate can open.
    pub min_shadows: u64,
    /// Sliding shadow-error window length.
    pub window: usize,
    /// Of the queries the surrogate could answer, every `confirm_every`-th
    /// is audited through the exact backend instead (0 disables auditing —
    /// not recommended: the error trackers would starve once confident).
    pub confirm_every: u32,
    /// Refit the regressor after this many new training samples.
    pub refit_every: u64,
    /// Ridge regularisation strength (relative to mean feature energy).
    pub lambda: f64,
}

impl Default for SurrogateSettings {
    fn default() -> Self {
        Self {
            warmup: 48,
            max_rel_err: 0.05,
            min_shadows: 8,
            window: 64,
            confirm_every: 8,
            refit_every: 16,
            lambda: 1e-6,
        }
    }
}

impl SurrogateSettings {
    /// A policy that never trusts the surrogate: every query falls back to
    /// the exact backend (and still trains the model). With this policy a
    /// tiered backend is metric-identical to its inner backend — the
    /// equivalence the property tests pin down.
    pub fn always_fallback() -> Self {
        Self {
            warmup: u64::MAX,
            ..Self::default()
        }
    }
}
