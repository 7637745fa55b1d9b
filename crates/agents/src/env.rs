//! The environment contract the agents train against, plus small
//! reference environments.
//!
//! The reproduced paper builds its RL engine on the Python
//! [Gymnasium](https://gymnasium.farama.org/) toolkit. The only part of
//! that contract the agents need is [`Env::reset`]/[`Env::step`] and the
//! [`Step`] record with Gymnasium's `terminated`/`truncated` split.
//!
//! [`LineWorld`] and [`TwoArmedBandit`] are not part of the paper's
//! system: they have *known* optimal policies, so the agents can be
//! validated on them before being trusted on the DSE environment.
//! [`TimeLimit`] caps an episode's length, like the paper's 10 000-step
//! exploration cap.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of one environment step, following Gymnasium's API: `terminated`
/// marks a natural episode end (the MDP reached a terminal state), while
/// `truncated` marks an externally imposed cut-off (e.g. a [`TimeLimit`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Step<O> {
    /// Observation after the transition.
    pub obs: O,
    /// Scalar reward for the transition.
    pub reward: f64,
    /// The episode ended naturally.
    pub terminated: bool,
    /// The episode was cut off externally.
    pub truncated: bool,
}

impl<O> Step<O> {
    /// A non-terminal transition.
    pub fn transition(obs: O, reward: f64) -> Self {
        Self {
            obs,
            reward,
            terminated: false,
            truncated: false,
        }
    }

    /// A naturally terminal transition.
    pub fn terminal(obs: O, reward: f64) -> Self {
        Self {
            obs,
            reward,
            terminated: true,
            truncated: false,
        }
    }

    /// `true` if the episode is over for either reason.
    pub fn done(&self) -> bool {
        self.terminated || self.truncated
    }
}

/// A reinforcement-learning environment.
///
/// Implementations define an observation type, an action type and the MDP
/// dynamics. Deterministic seeding flows through [`Env::reset`].
///
/// ```
/// use ax_agents::env::{Env, Step};
///
/// /// Counts up; terminates at 3.
/// struct Counter(u32);
///
/// impl Env for Counter {
///     type Obs = u32;
///     type Action = usize;
///
///     fn reset(&mut self, _seed: Option<u64>) -> u32 {
///         self.0 = 0;
///         0
///     }
///
///     fn step(&mut self, _action: &usize) -> Step<u32> {
///         self.0 += 1;
///         if self.0 >= 3 {
///             Step::terminal(self.0, 1.0)
///         } else {
///             Step::transition(self.0, 0.0)
///         }
///     }
/// }
///
/// let mut env = Counter(0);
/// env.reset(None);
/// assert!(!env.step(&0).done());
/// assert!(!env.step(&0).done());
/// assert!(env.step(&0).done());
/// ```
pub trait Env {
    /// Observation type.
    type Obs;
    /// Action type.
    type Action;

    /// Starts a new episode, optionally reseeding the environment's
    /// randomness, and returns the initial observation.
    fn reset(&mut self, seed: Option<u64>) -> Self::Obs;

    /// Applies an action and advances the environment one step.
    fn step(&mut self, action: &Self::Action) -> Step<Self::Obs>;
}

/// Truncates episodes after a fixed number of steps.
///
/// ```
/// use ax_agents::env::{Env, LineWorld, TimeLimit};
///
/// let mut env = TimeLimit::new(LineWorld::new(100), 3);
/// env.reset(Some(0));
/// assert!(!env.step(&0).truncated);
/// assert!(!env.step(&0).truncated);
/// assert!(env.step(&0).truncated); // third step hits the limit
/// ```
#[derive(Debug, Clone)]
pub struct TimeLimit<E> {
    inner: E,
    max_steps: u64,
    elapsed: u64,
}

impl<E> TimeLimit<E> {
    /// Wraps `inner`, truncating episodes at `max_steps` steps.
    ///
    /// # Panics
    ///
    /// Panics if `max_steps` is zero.
    pub fn new(inner: E, max_steps: u64) -> Self {
        assert!(max_steps > 0, "time limit must be positive");
        Self {
            inner,
            max_steps,
            elapsed: 0,
        }
    }
}

impl<E: Env> Env for TimeLimit<E> {
    type Obs = E::Obs;
    type Action = E::Action;

    fn reset(&mut self, seed: Option<u64>) -> Self::Obs {
        self.elapsed = 0;
        self.inner.reset(seed)
    }

    fn step(&mut self, action: &Self::Action) -> Step<Self::Obs> {
        let mut step = self.inner.step(action);
        self.elapsed += 1;
        if self.elapsed >= self.max_steps && !step.terminated {
            step.truncated = true;
        }
        step
    }
}

/// A deterministic chain walk: positions `0 .. n-1`, start at `0`, actions
/// `{0: left, 1: right}`, reward `1.0` upon reaching the rightmost cell
/// (terminal). The optimal policy is "always right" with return `1.0` and
/// episode length `n - 1`.
#[derive(Debug, Clone)]
pub struct LineWorld {
    n: usize,
    pos: usize,
}

impl LineWorld {
    /// A chain of `n ≥ 2` positions.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "line world needs at least two positions");
        Self { n, pos: 0 }
    }
}

impl Env for LineWorld {
    type Obs = usize;
    type Action = usize;

    fn reset(&mut self, _seed: Option<u64>) -> usize {
        self.pos = 0;
        self.pos
    }

    fn step(&mut self, action: &usize) -> Step<usize> {
        match action {
            0 => self.pos = self.pos.saturating_sub(1),
            1 => self.pos = (self.pos + 1).min(self.n - 1),
            other => panic!("invalid action {other} for LineWorld"),
        }
        if self.pos == self.n - 1 {
            Step::terminal(self.pos, 1.0)
        } else {
            Step::transition(self.pos, 0.0)
        }
    }
}

/// A two-armed Bernoulli bandit: single state, actions `{0, 1}` with win
/// probabilities `p0` and `p1`, one step per episode. An agent that learns
/// must end up preferring the better arm.
#[derive(Debug, Clone)]
pub struct TwoArmedBandit {
    p: [f64; 2],
    rng: StdRng,
}

impl TwoArmedBandit {
    /// A bandit with the given win probabilities.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]`.
    pub fn new(p0: f64, p1: f64) -> Self {
        for p in [p0, p1] {
            assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        }
        Self {
            p: [p0, p1],
            rng: StdRng::seed_from_u64(0),
        }
    }
}

impl Env for TwoArmedBandit {
    type Obs = ();
    type Action = usize;

    fn reset(&mut self, seed: Option<u64>) {
        if let Some(s) = seed {
            self.rng = StdRng::seed_from_u64(s);
        }
    }

    fn step(&mut self, action: &usize) -> Step<()> {
        assert!(*action < 2, "invalid action {action} for TwoArmedBandit");
        let win = self.rng.gen_bool(self.p[*action]);
        Step::terminal((), if win { 1.0 } else { 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_constructors_and_done() {
        let t = Step::transition(1, 0.5);
        assert!(!t.done());
        let d = Step::terminal(2, 1.0);
        assert!(d.done() && d.terminated && !d.truncated);
        let mut tr = Step::transition(3, 0.0);
        tr.truncated = true;
        assert!(tr.done());
    }

    #[test]
    fn time_limit_truncates_and_resets() {
        let mut env = TimeLimit::new(LineWorld::new(50), 4);
        env.reset(Some(1));
        for _ in 0..3 {
            assert!(!env.step(&0).truncated);
        }
        assert!(env.step(&0).truncated);
        // A reset restarts the count: the full limit is available again.
        env.reset(Some(1));
        for _ in 0..3 {
            assert!(!env.step(&0).truncated);
        }
        assert!(env.step(&0).truncated);
    }

    #[test]
    fn time_limit_does_not_mask_termination() {
        // Reaching the goal on exactly the last allowed step stays
        // `terminated`, not `truncated` (Gymnasium semantics).
        let mut env = TimeLimit::new(LineWorld::new(3), 2);
        env.reset(Some(1));
        let s1 = env.step(&1);
        assert!(!s1.done());
        let s2 = env.step(&1);
        assert!(s2.terminated);
        assert!(!s2.truncated);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn time_limit_rejects_zero() {
        TimeLimit::new(LineWorld::new(3), 0);
    }

    #[test]
    fn line_world_optimal_walk() {
        let mut env = LineWorld::new(4);
        assert_eq!(env.reset(None), 0);
        assert!(!env.step(&1).done());
        assert!(!env.step(&1).done());
        let last = env.step(&1);
        assert!(last.terminated);
        assert_eq!(last.reward, 1.0);
        assert_eq!(last.obs, 3);
    }

    #[test]
    fn line_world_left_edge_clamps() {
        let mut env = LineWorld::new(3);
        env.reset(None);
        let s = env.step(&0);
        assert_eq!(s.obs, 0);
        assert!(!s.done());
    }

    #[test]
    #[should_panic(expected = "invalid action")]
    fn line_world_rejects_bad_action() {
        let mut env = LineWorld::new(3);
        env.reset(None);
        env.step(&7);
    }

    #[test]
    fn bandit_is_seed_deterministic() {
        let mut a = TwoArmedBandit::new(0.3, 0.8);
        let mut b = TwoArmedBandit::new(0.3, 0.8);
        a.reset(Some(9));
        b.reset(Some(9));
        for _ in 0..50 {
            assert_eq!(a.step(&1).reward, b.step(&1).reward);
        }
    }

    #[test]
    fn bandit_better_arm_pays_more() {
        let mut env = TwoArmedBandit::new(0.1, 0.9);
        env.reset(Some(4));
        let mut sums = [0.0, 0.0];
        for _ in 0..500 {
            sums[0] += env.step(&0).reward;
            sums[1] += env.step(&1).reward;
        }
        assert!(sums[1] > sums[0] + 100.0, "arm payouts {sums:?}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bandit_rejects_bad_probability() {
        TwoArmedBandit::new(1.5, 0.2);
    }
}
