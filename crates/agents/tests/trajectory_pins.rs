//! Trajectory pins: for fixed seeds, every agent kind takes exactly the
//! recorded action sequence and learns exactly the recorded Q-values.
//!
//! Each run folds its actions, rewards and the bit patterns of the
//! Q-values it touched into a 64-bit FNV-1a digest and compares it with a
//! constant. A change to the Q-table layout, the tie-breaking draw, the
//! eligibility-trace bookkeeping or the hashing of states must leave every
//! digest unchanged; a constant moves only with a deliberate change to the
//! learning rules, noted in CHANGES.md.

use ax_agents::agent::{TabularAgent, TabularTransition};
use ax_agents::double_q::DoubleQAgent;
use ax_agents::env::{Env, LineWorld, TimeLimit, TwoArmedBandit};
use ax_agents::policy::ExplorationPolicy;
use ax_agents::qlambda::QLambdaAgent;
use ax_agents::qlearning::{QLearningAgent, QLearningBuilder};
use ax_agents::sarsa::{ExpectedSarsaAgent, SarsaAgent};
use ax_agents::schedule::Schedule;
use ax_agents::QTable;
use ax_dse::backend::Evaluator;
use ax_dse::env::{DseEnv, DseState};
use ax_dse::reward::RewardParams;
use ax_dse::thresholds::ThresholdRule;
use ax_operators::OperatorLibrary;
use ax_workloads::matmul::MatMul;
use std::hash::Hash;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Drives `agent` on `env` for `steps` steps with the training loop's
/// episode handling, digesting each action and reward, the touched
/// Q-value after every update (as read back by `q`), and finally `q`
/// over every visited state and each of the `n_actions` actions, in
/// first-visit order.
fn digest<E, A>(
    env: &mut E,
    agent: &mut A,
    n_actions: usize,
    steps: u64,
    seed: u64,
    q: impl Fn(&A, &E::Obs, usize) -> u64,
) -> u64
where
    E: Env<Action = usize>,
    E::Obs: Eq + Hash + Clone,
    A: TabularAgent<E::Obs>,
{
    let mut h = Fnv::new();
    let mut visited: Vec<E::Obs> = Vec::new();
    let mut obs = env.reset(Some(seed));
    agent.begin_episode();
    for _ in 0..steps {
        if !visited.contains(&obs) {
            visited.push(obs.clone());
        }
        let action = agent.select_action(&obs);
        let s = env.step(&action);
        agent.observe(TabularTransition {
            state: obs.clone(),
            action,
            reward: s.reward,
            next_state: s.obs.clone(),
            terminal: s.terminated,
        });
        h.word(action as u64);
        h.word(s.reward.to_bits());
        h.word(q(agent, &obs, action));
        if s.done() {
            obs = env.reset(None);
            agent.begin_episode();
        } else {
            obs = s.obs;
        }
    }
    for state in &visited {
        for action in 0..n_actions {
            h.word(q(agent, state, action));
        }
    }
    h.0
}

fn bits<S: Eq + Hash + Clone>(table: &QTable<S>, state: &S, action: usize) -> u64 {
    table.value(state, action).to_bits()
}

fn eps(steps: u64) -> ExplorationPolicy {
    ExplorationPolicy::EpsilonGreedy {
        epsilon: Schedule::Linear {
            start: 1.0,
            end: 0.05,
            steps,
        },
    }
}

fn line() -> TimeLimit<LineWorld> {
    TimeLimit::new(LineWorld::new(6), 40)
}

fn q_learning<S: Eq + Hash + Clone>(policy: ExplorationPolicy, seed: u64) -> QLearningAgent<S> {
    QLearningBuilder::new(2)
        .alpha(Schedule::Constant(0.3))
        .gamma(0.9)
        .policy(policy)
        .seed(seed)
        .build()
}

fn assert_pin(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name}: digest {got:#018x}, pinned {want:#018x}");
}

#[test]
fn q_learning_line_world() {
    let mut agent = q_learning(eps(600), 11);
    let d = digest(&mut line(), &mut agent, 2, 1_000, 3, |a, s, x| {
        bits(a.q_table(), s, x)
    });
    assert_pin("q-learning/line", d, 0x46c78fcd56b34aeb);
}

#[test]
fn softmax_q_learning_line_world() {
    let policy = ExplorationPolicy::Softmax {
        temperature: Schedule::Exponential {
            start: 2.0,
            end: 0.05,
            decay: 0.995,
        },
    };
    let mut agent = q_learning(policy, 5);
    let d = digest(&mut line(), &mut agent, 2, 1_000, 3, |a, s, x| {
        bits(a.q_table(), s, x)
    });
    assert_pin("softmax/line", d, 0x170bcbf9c8b8a342);
}

#[test]
fn sarsa_line_world() {
    let mut agent = SarsaAgent::new(2, Schedule::Constant(0.3), 0.9, eps(600), 17);
    let d = digest(&mut line(), &mut agent, 2, 1_000, 3, |a, s, x| {
        bits(a.q_table(), s, x)
    });
    assert_pin("sarsa/line", d, 0x09f3b635de70f87e);
}

#[test]
fn expected_sarsa_line_world() {
    let epsilon = Schedule::Linear {
        start: 0.8,
        end: 0.05,
        steps: 600,
    };
    let mut agent = ExpectedSarsaAgent::new(2, Schedule::Constant(0.3), 0.9, epsilon, 23);
    let d = digest(&mut line(), &mut agent, 2, 1_000, 3, |a, s, x| {
        bits(a.q_table(), s, x)
    });
    assert_pin("expected-sarsa/line", d, 0x1c3fe643155e6403);
}

#[test]
fn double_q_line_world() {
    // No table accessor: the greedy action stands in for the Q-values.
    let mut agent = DoubleQAgent::new(2, Schedule::Constant(0.3), 0.9, eps(600), 29);
    let d = digest(&mut line(), &mut agent, 2, 1_000, 3, |a, s, _| {
        a.greedy_action(s) as u64
    });
    assert_pin("double-q/line", d, 0x57f3a36294dc4519);
}

#[test]
fn q_lambda_line_world() {
    let mut agent = QLambdaAgent::new(2, Schedule::Constant(0.3), 0.9, 0.8, eps(600), 31);
    let d = digest(&mut line(), &mut agent, 2, 1_000, 3, |a, s, x| {
        bits(a.q_table(), s, x)
    });
    assert_pin("q-lambda/line", d, 0x271e44e0285bb95b);
}

#[test]
fn every_agent_on_the_bandit() {
    let bandit = || TwoArmedBandit::new(0.3, 0.7);
    let mut h = Fnv::new();
    let mut q = q_learning(eps(300), 1);
    h.word(digest(&mut bandit(), &mut q, 2, 500, 9, |a, s, x| {
        bits(a.q_table(), s, x)
    }));
    let mut sarsa = SarsaAgent::new(2, Schedule::Constant(0.2), 0.9, eps(300), 2);
    h.word(digest(&mut bandit(), &mut sarsa, 2, 500, 9, |a, s, x| {
        bits(a.q_table(), s, x)
    }));
    let mut expected =
        ExpectedSarsaAgent::new(2, Schedule::Constant(0.2), 0.9, Schedule::Constant(0.2), 3);
    h.word(digest(
        &mut bandit(),
        &mut expected,
        2,
        500,
        9,
        |a, s, x| bits(a.q_table(), s, x),
    ));
    let mut double = DoubleQAgent::new(2, Schedule::Constant(0.2), 0.9, eps(300), 4);
    h.word(digest(&mut bandit(), &mut double, 2, 500, 9, |a, s, _| {
        a.greedy_action(s) as u64
    }));
    let mut lambda = QLambdaAgent::new(2, Schedule::Constant(0.2), 0.9, 0.7, eps(300), 5);
    h.word(digest(&mut bandit(), &mut lambda, 2, 500, 9, |a, s, x| {
        bits(a.q_table(), s, x)
    }));
    assert_pin("all/bandit", h.0, 0x8263d4986a6a0992);
}

#[test]
fn q_learning_on_the_dse_env() {
    let lib = OperatorLibrary::evoapprox();
    let evaluator = Evaluator::new(&MatMul::new(4), &lib, 42).expect("matmul prepares");
    let thresholds = ThresholdRule::paper().calibrate(&evaluator);
    let mut env = DseEnv::new(evaluator, RewardParams::new(100.0, thresholds));
    let n = env.action_count();
    let mut agent: QLearningAgent<DseState> = QLearningBuilder::new(n)
        .alpha(Schedule::Constant(0.5))
        .gamma(0.95)
        .policy(ExplorationPolicy::EpsilonGreedy {
            epsilon: Schedule::Exponential {
                start: 0.3,
                end: 0.0,
                decay: 0.99,
            },
        })
        .seed(7)
        .build();
    let d = digest(&mut env, &mut agent, n, 1_500, 42, |a, s, x| {
        bits(a.q_table(), s, x)
    });
    assert_pin("q-learning/dse-matmul4", d, 0x9afa2330a3a42bed);
}
