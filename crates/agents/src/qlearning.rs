//! Tabular Q-learning — the paper's learning algorithm.
//!
//! Off-policy temporal-difference control (Watkins 1989):
//!
//! ```text
//! Q(s,a) <- Q(s,a) + α · (r + γ · max_a' Q(s',a') − Q(s,a))
//! ```
//!
//! with the bootstrap term dropped on terminal transitions. Exploration is
//! ε-greedy (or softmax) over the current Q-row; the paper relies on the
//! accumulated-reward property of Q-learning ("suitable for maximizing the
//! accumulated reward while considering the last state").

use crate::agent::{TabularAgent, TabularTransition};
use crate::policy::{greedy_with_random_ties, ExplorationPolicy};
use crate::qtable::QTable;
use crate::schedule::Schedule;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hash::Hash;

/// Configures and builds a [`QLearningAgent`].
#[derive(Debug, Clone)]
pub struct QLearningBuilder {
    n_actions: usize,
    alpha: Schedule,
    gamma: f64,
    policy: ExplorationPolicy,
    initial_q: f64,
    seed: u64,
}

impl QLearningBuilder {
    /// Starts configuring an agent over `n_actions` actions with the
    /// defaults: α = 0.1, γ = 0.95, ε-greedy decaying over 5 000 steps,
    /// neutral initial Q, seed 0.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero.
    pub fn new(n_actions: usize) -> Self {
        assert!(n_actions > 0, "agent needs at least one action");
        Self {
            n_actions,
            alpha: Schedule::Constant(0.1),
            gamma: 0.95,
            policy: ExplorationPolicy::epsilon_greedy_decay(5_000),
            initial_q: 0.0,
            seed: 0,
        }
    }

    /// Learning rate schedule (default: constant 0.1).
    pub fn alpha(mut self, alpha: Schedule) -> Self {
        self.alpha = alpha;
        self
    }

    /// Discount factor (default 0.95).
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is outside `[0, 1]`.
    pub fn gamma(mut self, gamma: f64) -> Self {
        assert!((0.0..=1.0).contains(&gamma), "gamma {gamma} outside [0, 1]");
        self.gamma = gamma;
        self
    }

    /// Exploration policy (default: ε-greedy decaying over 5 000 steps).
    pub fn policy(mut self, policy: ExplorationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Initial Q-value for unvisited state-actions (default 0.0; positive
    /// values give optimistic initialisation).
    pub fn initial_q(mut self, q0: f64) -> Self {
        self.initial_q = q0;
        self
    }

    /// RNG seed for exploration (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the agent.
    pub fn build<S: Eq + Hash + Clone>(self) -> QLearningAgent<S> {
        QLearningAgent {
            q: QTable::new(self.n_actions, self.initial_q),
            alpha: self.alpha,
            gamma: self.gamma,
            policy: self.policy,
            rng: StdRng::seed_from_u64(self.seed),
            step: 0,
        }
    }
}

/// A tabular Q-learning agent.
///
/// ```
/// use ax_agents::qlearning::{QLearningAgent, QLearningBuilder};
/// use ax_agents::agent::{TabularAgent, TabularTransition};
///
/// let mut agent: QLearningAgent<u32> = QLearningBuilder::new(2).seed(5).build();
/// let a = agent.select_action(&0);
/// agent.observe(TabularTransition {
///     state: 0, action: a, reward: 1.0, next_state: 1, terminal: true,
/// });
/// assert!(agent.q_table().value(&0, a) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct QLearningAgent<S> {
    q: QTable<S>,
    alpha: Schedule,
    gamma: f64,
    policy: ExplorationPolicy,
    rng: StdRng,
    step: u64,
}

impl<S: Eq + Hash + Clone> QLearningAgent<S> {
    /// Starts configuring an agent over `n_actions` actions — an alias of
    /// [`QLearningBuilder::new`].
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero.
    pub fn builder(n_actions: usize) -> QLearningBuilder {
        QLearningBuilder::new(n_actions)
    }

    /// Read access to the learned Q-table.
    pub fn q_table(&self) -> &QTable<S> {
        &self.q
    }

    /// Global training step (number of actions selected so far).
    pub fn global_step(&self) -> u64 {
        self.step
    }
}

impl<S: Eq + Hash + Clone> TabularAgent<S> for QLearningAgent<S> {
    fn select_action(&mut self, state: &S) -> usize {
        let row = self.q.row(state);
        let action = self.policy.choose(row, self.step, &mut self.rng);
        self.step += 1;
        action
    }

    fn observe(&mut self, t: TabularTransition<S>) {
        let bootstrap = if t.terminal {
            0.0
        } else {
            self.gamma * self.q.max_value(&t.next_state)
        };
        let target = t.reward + bootstrap;
        let alpha = self.alpha.value(self.step);
        self.q.update(&t.state, t.action, target, |old, tgt| {
            old + alpha * (tgt - old)
        });
    }

    fn greedy_action(&self, state: &S) -> usize {
        // Deterministic greedy (lowest index wins ties) for reproducible
        // evaluation.
        self.q.best_action(state)
    }
}

impl<S: Eq + Hash + Clone> QLearningAgent<S> {
    /// Like [`TabularAgent::greedy_action`] but with random tie-breaking —
    /// occasionally useful when evaluating stochastic policies.
    pub fn greedy_action_random_ties(&mut self, state: &S) -> usize {
        greedy_with_random_ties(self.q.row(state), &mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_terminal_update_moves_towards_reward() {
        let mut agent: QLearningAgent<u8> = QLearningBuilder::new(2)
            .alpha(Schedule::Constant(0.5))
            .build();
        agent.observe(TabularTransition {
            state: 0,
            action: 1,
            reward: 10.0,
            next_state: 1,
            terminal: true,
        });
        assert_eq!(agent.q_table().value(&0, 1), 5.0);
    }

    #[test]
    fn bootstrap_uses_max_next_value() {
        let mut agent: QLearningAgent<u8> = QLearningBuilder::new(2)
            .alpha(Schedule::Constant(1.0))
            .gamma(0.5)
            .build();
        // Prime next state's values.
        agent.observe(TabularTransition {
            state: 1,
            action: 0,
            reward: 8.0,
            next_state: 2,
            terminal: true,
        });
        // Non-terminal transition into state 1: target = 0 + 0.5 * 8.
        agent.observe(TabularTransition {
            state: 0,
            action: 1,
            reward: 0.0,
            next_state: 1,
            terminal: false,
        });
        assert_eq!(agent.q_table().value(&0, 1), 4.0);
    }

    #[test]
    fn terminal_transition_ignores_next_state() {
        let mut agent: QLearningAgent<u8> = QLearningBuilder::new(2)
            .alpha(Schedule::Constant(1.0))
            .gamma(0.9)
            .build();
        agent.observe(TabularTransition {
            state: 1,
            action: 0,
            reward: 100.0,
            next_state: 2,
            terminal: true,
        });
        agent.observe(TabularTransition {
            state: 0,
            action: 0,
            reward: 1.0,
            next_state: 1,
            terminal: true, // terminal: the 100-valued successor is ignored
        });
        assert_eq!(agent.q_table().value(&0, 0), 1.0);
    }

    #[test]
    fn greedy_action_is_deterministic() {
        let mut agent: QLearningAgent<u8> = QLearningBuilder::new(3)
            .alpha(Schedule::Constant(1.0))
            .build();
        agent.observe(TabularTransition {
            state: 5,
            action: 2,
            reward: 3.0,
            next_state: 6,
            terminal: true,
        });
        for _ in 0..10 {
            assert_eq!(agent.greedy_action(&5), 2);
        }
        assert_eq!(agent.greedy_action(&42), 0); // unvisited -> first action
    }

    #[test]
    fn same_seed_same_actions() {
        let mk = || {
            QLearningBuilder::new(4)
                .seed(77)
                .policy(ExplorationPolicy::EpsilonGreedy {
                    epsilon: Schedule::Constant(1.0),
                })
                .build()
        };
        let mut a = mk();
        let mut b = mk();
        for s in 0..50u8 {
            assert_eq!(a.select_action(&s), b.select_action(&s));
        }
    }

    #[test]
    fn step_counter_advances_on_selection_only() {
        let mut agent: QLearningAgent<u8> = QLearningBuilder::new(2).build();
        assert_eq!(agent.global_step(), 0);
        agent.select_action(&0);
        assert_eq!(agent.global_step(), 1);
        agent.observe(TabularTransition {
            state: 0,
            action: 0,
            reward: 0.0,
            next_state: 1,
            terminal: false,
        });
        assert_eq!(agent.global_step(), 1);
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn builder_rejects_bad_gamma() {
        QLearningBuilder::new(2).gamma(1.5);
    }
}
