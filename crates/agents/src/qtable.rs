//! The tabular action-value store.

use crate::hash::WordHashMap;
use std::hash::Hash;

/// A Q-table: maps states to per-action value rows, created lazily with a
/// configurable optimistic/neutral initial value.
///
/// Rows live back to back in one contiguous `Vec<f64>`; a
/// [`WordHashMap`] maps each visited state to its row's index. Reading or
/// updating a visited state's row allocates nothing, and the key is cloned
/// only when a state is first seen.
///
/// ```
/// use ax_agents::qtable::QTable;
///
/// let mut q: QTable<&str> = QTable::new(3, 0.0);
/// q.update(&"s", 1, 0.5, |old, target| old + 0.1 * (target - old));
/// assert!(q.value(&"s", 1) > 0.0);
/// assert_eq!(q.value(&"s", 0), 0.0);
/// assert_eq!(q.best_action(&"s"), 1);
/// ```
#[derive(Debug, Clone)]
pub struct QTable<S> {
    n_actions: usize,
    initial: f64,
    /// State → index of its row in `values`.
    rows: WordHashMap<S, usize>,
    /// Row `i` is `values[i * n_actions..(i + 1) * n_actions]`.
    values: Vec<f64>,
}

impl<S: Eq + Hash + Clone> QTable<S> {
    /// A table over `n_actions` actions with entries initialised to
    /// `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero.
    pub fn new(n_actions: usize, initial: f64) -> Self {
        assert!(n_actions > 0, "Q-table needs at least one action");
        Self {
            n_actions,
            initial,
            rows: WordHashMap::default(),
            values: Vec::new(),
        }
    }

    /// Number of actions per state.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Number of states visited so far.
    pub fn n_states(&self) -> usize {
        self.rows.len()
    }

    /// The action values of `state` (initialising lazily).
    pub fn row(&mut self, state: &S) -> &mut [f64] {
        let n = self.n_actions;
        let i = match self.rows.get(state) {
            Some(&i) => i,
            None => {
                let i = self.rows.len();
                self.rows.insert(state.clone(), i);
                self.values.resize((i + 1) * n, self.initial);
                i
            }
        };
        &mut self.values[i * n..(i + 1) * n]
    }

    /// The action values of `state` without inserting; `None` if unvisited.
    pub fn row_ref(&self, state: &S) -> Option<&[f64]> {
        let n = self.n_actions;
        self.rows
            .get(state)
            .map(|&i| &self.values[i * n..(i + 1) * n])
    }

    /// The value of `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range.
    pub fn value(&self, state: &S, action: usize) -> f64 {
        assert!(action < self.n_actions, "action {action} out of range");
        self.row_ref(state).map_or(self.initial, |row| row[action])
    }

    /// Greatest action value at `state`.
    pub fn max_value(&self, state: &S) -> f64 {
        self.row_ref(state).map_or(self.initial, |row| {
            row.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        })
    }

    /// Lowest-index action attaining the maximum value at `state`.
    pub fn best_action(&self, state: &S) -> usize {
        match self.row_ref(state) {
            None => 0,
            Some(row) => {
                let mut best = 0;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            }
        }
    }

    /// Applies `f(old_value, target)` to `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range.
    pub fn update(
        &mut self,
        state: &S,
        action: usize,
        target: f64,
        f: impl FnOnce(f64, f64) -> f64,
    ) {
        assert!(action < self.n_actions, "action {action} out of range");
        let row = self.row(state);
        row[action] = f(row[action], target);
    }

    /// Directly sets `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range.
    pub fn set(&mut self, state: &S, action: usize, value: f64) {
        assert!(action < self.n_actions, "action {action} out of range");
        self.row(state)[action] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_initialisation() {
        let mut q: QTable<u32> = QTable::new(4, 2.5);
        assert_eq!(q.value(&7, 3), 2.5);
        assert_eq!(q.n_states(), 0);
        q.row(&7);
        assert_eq!(q.n_states(), 1);
        assert_eq!(q.row_ref(&7).unwrap(), &[2.5; 4]);
        assert!(q.row_ref(&8).is_none());
    }

    #[test]
    fn best_action_breaks_ties_low() {
        let mut q: QTable<u32> = QTable::new(3, 0.0);
        q.set(&1, 0, 5.0);
        q.set(&1, 2, 5.0);
        assert_eq!(q.best_action(&1), 0);
        q.set(&1, 2, 6.0);
        assert_eq!(q.best_action(&1), 2);
        assert_eq!(q.best_action(&99), 0); // unvisited
    }

    #[test]
    fn max_value_defaults_to_initial() {
        let q: QTable<u32> = QTable::new(2, -1.0);
        assert_eq!(q.max_value(&5), -1.0);
    }

    #[test]
    fn update_applies_learning_rule() {
        let mut q: QTable<u32> = QTable::new(2, 0.0);
        q.update(&3, 1, 10.0, |old, t| old + 0.5 * (t - old));
        assert_eq!(q.value(&3, 1), 5.0);
        q.update(&3, 1, 10.0, |old, t| old + 0.5 * (t - old));
        assert_eq!(q.value(&3, 1), 7.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn value_rejects_bad_action() {
        let q: QTable<u32> = QTable::new(2, 0.0);
        q.value(&0, 2);
    }

    #[test]
    #[should_panic(expected = "at least one action")]
    fn zero_actions_rejected() {
        let _: QTable<u32> = QTable::new(0, 0.0);
    }
}
