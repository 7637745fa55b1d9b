//! The DSE environment (paper Figure 1).
//!
//! [`DseEnv`] is the Gymnasium-style environment of the paper: at each step
//! it receives an action (change adder / change multiplier / toggle one
//! variable), deploys the corresponding approximate application through the
//! instrumented interpreter, computes (Δacc, Δpower, Δtime) against the
//! precise run and returns the Algorithm 1 reward. The observation handed
//! to the tabular agent is the discrete configuration part of the state
//! ([`DseState`]); the continuous Δ observations are recorded per step in
//! the environment's [`StepTrace`] (they are functions of the configuration,
//! so the tabular state loses no information).

use crate::backend::{EvalBackend, EvalMetrics, Evaluator};
use crate::config::{AxConfig, SpaceDims};
use crate::reward::{reward, RewardParams};
use ax_agents::env::{Env, Step};
use ax_operators::{AdderId, MulId};

/// The hashable observation: the discrete configuration part of the paper's
/// Equation 1 state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DseState {
    /// Selected adder index.
    pub adder: usize,
    /// Selected multiplier index.
    pub mul: usize,
    /// Variable-selection bits.
    pub vars: u64,
}

impl From<AxConfig> for DseState {
    fn from(c: AxConfig) -> Self {
        Self {
            adder: c.adder.0,
            mul: c.mul.0,
            vars: c.vars,
        }
    }
}

/// A decoded environment action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DseAction {
    /// Select adder `i` of the width class.
    SetAdder(usize),
    /// Select multiplier `i` of the width class.
    SetMultiplier(usize),
    /// Toggle approximable variable `i`.
    ToggleVar(u32),
}

/// One recorded environment step (configuration, observations, reward).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepTrace {
    /// Global step index (0-based).
    pub step: u64,
    /// The configuration *after* applying the action.
    pub config: AxConfig,
    /// The observations of that configuration.
    pub metrics: EvalMetrics,
    /// The Algorithm 1 reward.
    pub reward: f64,
    /// Algorithm 1 raised the terminate flag.
    pub terminated: bool,
}

/// The approximate-computing design-space exploration environment.
///
/// Generic over the [`EvalBackend`] scoring configurations: the default is
/// the exact interpreter-backed [`Evaluator`], but any backend (surrogate
/// model, remote service) slots in without touching the environment.
pub struct DseEnv<B: EvalBackend = Evaluator> {
    evaluator: B,
    params: RewardParams,
    config: AxConfig,
    trace: Vec<StepTrace>,
    batch_neighborhood: bool,
    /// Reused neighbourhood buffer for the batched step path.
    neighborhood: Vec<AxConfig>,
}

impl<B: EvalBackend> DseEnv<B> {
    /// Wraps an evaluation backend with reward parameters.
    pub fn new(evaluator: B, params: RewardParams) -> Self {
        Self {
            evaluator,
            params,
            config: AxConfig::precise(),
            trace: Vec::new(),
            batch_neighborhood: false,
            neighborhood: Vec::new(),
        }
    }

    /// Enables or disables whole-neighbourhood batching: when on, each
    /// step evaluates every action's successor configuration through
    /// [`EvalBackend::evaluate_batch`] and reads the chosen action's
    /// metrics from the batch. With a history-independent backend (the
    /// exact [`Evaluator`]) trajectories are identical to the unbatched
    /// path — evaluation is deterministic and the agent only observes the
    /// chosen action — and the batch amortises execution buffers across
    /// the neighbourhood. A history-dependent backend (a learning
    /// surrogate) may answer the extra speculative queries differently
    /// than it would have later, so there batching trades exact
    /// trajectory equality for prefiltering the whole frontier at once.
    pub fn set_neighborhood_batching(&mut self, on: bool) {
        self.batch_neighborhood = on;
    }

    /// Builder-style variant of [`DseEnv::set_neighborhood_batching`].
    #[must_use]
    pub fn with_neighborhood_batching(mut self, on: bool) -> Self {
        self.set_neighborhood_batching(on);
        self
    }

    /// The configuration-space dimensions.
    pub fn dims(&self) -> SpaceDims {
        self.evaluator.dims()
    }

    /// Number of discrete actions (`n_add + n_mul + n_vars`).
    pub fn action_count(&self) -> usize {
        self.dims().action_count()
    }

    /// Decodes a flat action index.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range.
    pub fn decode_action(&self, action: usize) -> DseAction {
        let d = self.dims();
        if action < d.n_add {
            DseAction::SetAdder(action)
        } else if action < d.n_add + d.n_mul {
            DseAction::SetMultiplier(action - d.n_add)
        } else if action < d.action_count() {
            DseAction::ToggleVar((action - d.n_add - d.n_mul) as u32)
        } else {
            panic!("action {action} out of range {}", d.action_count());
        }
    }

    /// The current configuration.
    pub fn config(&self) -> AxConfig {
        self.config
    }

    /// The reward parameters in force.
    pub fn params(&self) -> RewardParams {
        self.params
    }

    /// The full step trace across all episodes of this environment.
    pub fn trace(&self) -> &[StepTrace] {
        &self.trace
    }

    /// The underlying evaluation backend.
    pub fn evaluator(&self) -> &B {
        &self.evaluator
    }

    /// Consumes the environment, returning backend and trace.
    pub fn into_parts(self) -> (B, Vec<StepTrace>) {
        (self.evaluator, self.trace)
    }

    fn apply(&self, action: usize) -> AxConfig {
        let mut next = self.config;
        match self.decode_action(action) {
            DseAction::SetAdder(i) => next.adder = AdderId(i),
            DseAction::SetMultiplier(i) => next.mul = MulId(i),
            DseAction::ToggleVar(i) => next.vars ^= 1 << i,
        }
        next
    }
}

impl<B: EvalBackend> Env for DseEnv<B> {
    type Obs = DseState;
    type Action = usize;

    fn reset(&mut self, _seed: Option<u64>) -> DseState {
        // Inputs are fixed at construction (the paper explores one benchmark
        // instance); reset only returns to the precise configuration. The
        // trace deliberately persists across episodes — it is the global
        // exploration record behind Figures 2-4.
        self.config = AxConfig::precise();
        self.config.into()
    }

    fn step(&mut self, action: &usize) -> Step<DseState> {
        let next = self.apply(*action);
        let metrics = if self.batch_neighborhood {
            // Evaluate the full action neighbourhood in one batch; the
            // chosen action's metrics come out of the same batch (for a
            // history-independent backend, identical to the unbatched
            // path).
            let mut neighborhood = std::mem::take(&mut self.neighborhood);
            neighborhood.clear();
            neighborhood.extend((0..self.action_count()).map(|a| self.apply(a)));
            let batch = self
                .evaluator
                .evaluate_batch(&neighborhood)
                .expect("validated workload evaluation cannot fail");
            self.neighborhood = neighborhood;
            batch[*action]
        } else {
            self.evaluator
                .evaluate(&next)
                .expect("validated workload evaluation cannot fail")
        };
        let (r, terminate) = reward(&next, self.dims(), &metrics, &self.params);
        self.config = next;
        self.trace.push(StepTrace {
            step: self.trace.len() as u64,
            config: next,
            metrics,
            reward: r,
            terminated: terminate,
        });
        Step {
            obs: next.into(),
            reward: r,
            terminated: terminate,
            truncated: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholds::ThresholdRule;
    use ax_operators::OperatorLibrary;
    use ax_workloads::matmul::MatMul;

    fn env() -> DseEnv {
        let lib = OperatorLibrary::evoapprox();
        let ev = Evaluator::new(&MatMul::new(4), &lib, 3).unwrap();
        let th = ThresholdRule::paper().calibrate(&ev);
        DseEnv::new(ev, RewardParams::new(100.0, th))
    }

    #[test]
    fn action_decoding_covers_all_kinds() {
        let e = env();
        assert_eq!(e.action_count(), 16);
        assert_eq!(e.decode_action(0), DseAction::SetAdder(0));
        assert_eq!(e.decode_action(5), DseAction::SetAdder(5));
        assert_eq!(e.decode_action(6), DseAction::SetMultiplier(0));
        assert_eq!(e.decode_action(11), DseAction::SetMultiplier(5));
        assert_eq!(e.decode_action(12), DseAction::ToggleVar(0));
        assert_eq!(e.decode_action(15), DseAction::ToggleVar(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_action_rejected() {
        env().decode_action(16);
    }

    #[test]
    fn reset_returns_precise_state() {
        let mut e = env();
        let s = e.reset(None);
        assert_eq!(
            s,
            DseState {
                adder: 0,
                mul: 0,
                vars: 0
            }
        );
        assert_eq!(e.config(), AxConfig::precise());
    }

    #[test]
    fn step_applies_action_and_traces() {
        let mut e = env();
        e.reset(None);
        let s = e.step(&3); // SetAdder(3)
        assert_eq!(s.obs.adder, 3);
        let s = e.step(&12); // ToggleVar(0)
        assert_eq!(s.obs.vars, 1);
        assert_eq!(e.trace().len(), 2);
        assert_eq!(e.trace()[1].config.vars, 1);
    }

    #[test]
    fn toggle_twice_restores() {
        let mut e = env();
        e.reset(None);
        e.step(&14);
        let s = e.step(&14);
        assert_eq!(s.obs.vars, 0);
    }

    #[test]
    fn precise_steps_earn_minus_one() {
        // Changing operators without selecting variables keeps the run
        // precise: within accuracy but zero gains -> reward -1.
        let mut e = env();
        e.reset(None);
        let s = e.step(&2);
        assert_eq!(s.reward, -1.0);
        assert!(!s.terminated);
    }

    #[test]
    fn trace_survives_reset() {
        let mut e = env();
        e.reset(None);
        e.step(&1);
        e.reset(None);
        e.step(&2);
        assert_eq!(e.trace().len(), 2);
        assert_eq!(e.trace()[1].step, 1);
    }

    #[test]
    fn dims_describe_the_setup() {
        let d = env().dims();
        assert_eq!((d.n_add, d.n_vars), (6, 4));
        assert_eq!(d.action_count(), 16);
    }

    #[test]
    fn repeated_states_reuse_cache() {
        let mut e = env();
        e.reset(None);
        e.step(&12);
        e.step(&12);
        e.step(&12); // back to vars=1, previously evaluated
        assert!(e.evaluator().cache_hits() >= 1);
    }

    #[test]
    fn env_is_pluggable_over_any_backend() {
        use crate::backend::EvalMetrics;
        use ax_operators::BitWidth;
        use ax_vm::ir::ProgramBuilder;
        use ax_vm::VmError;

        /// A trivial surrogate: constant metrics, counting calls.
        struct StubBackend {
            program: ax_vm::Program,
            calls: u64,
        }

        impl crate::backend::EvalBackend for StubBackend {
            fn dims(&self) -> crate::config::SpaceDims {
                crate::config::SpaceDims {
                    n_add: 2,
                    n_mul: 2,
                    n_vars: 1,
                }
            }
            fn program(&self) -> &ax_vm::Program {
                &self.program
            }
            fn precise_power(&self) -> f64 {
                100.0
            }
            fn precise_time(&self) -> f64 {
                100.0
            }
            fn mean_abs_output(&self) -> f64 {
                10.0
            }
            fn evaluate(&mut self, _c: &AxConfig) -> Result<EvalMetrics, VmError> {
                self.calls += 1;
                Ok(EvalMetrics {
                    delta_acc: 0.0,
                    delta_power: 0.0,
                    delta_time: 0.0,
                    signed_error: 0.0,
                    power: 100.0,
                    time_ns: 100.0,
                })
            }
        }

        let mut pb = ProgramBuilder::new("stub", BitWidth::W8, BitWidth::W8);
        let a = pb.input("a", 1);
        let y = pb.output("y", 1);
        pb.add(y.at(0), a.at(0), a.at(0));
        let program = pb.build().unwrap();

        let th = crate::thresholds::Thresholds {
            acc_th: 1.0,
            power_th: 1.0,
            time_th: 1.0,
        };
        let mut env = DseEnv::new(
            StubBackend { program, calls: 0 },
            RewardParams::new(10.0, th),
        );
        env.reset(None);
        env.step(&0);
        env.step(&2);
        assert_eq!(env.evaluator().calls, 2);
        assert_eq!(env.trace().len(), 2);
    }
}
