use std::fmt;

use crate::MdpError;

/// A deterministic Markov stationary policy: one action per state
/// (the paper's class `Π_DMS`, represented as the vector of Example 3.7).
///
/// # Example
///
/// ```
/// use dpm_mdp::DeterministicPolicy;
///
/// let policy = DeterministicPolicy::new(vec![1, 0, 1]);
/// assert_eq!(policy.action(2), 1);
/// assert_eq!(policy.num_states(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeterministicPolicy {
    actions: Vec<usize>,
}

impl DeterministicPolicy {
    /// Wraps an action-per-state vector.
    pub fn new(actions: Vec<usize>) -> Self {
        DeterministicPolicy { actions }
    }

    /// The action prescribed in `state`.
    ///
    /// # Panics
    ///
    /// Panics when `state` is out of range.
    pub fn action(&self, state: usize) -> usize {
        self.actions[state]
    }

    /// Number of states covered.
    pub fn num_states(&self) -> usize {
        self.actions.len()
    }

    /// The underlying action vector.
    pub fn actions(&self) -> &[usize] {
        &self.actions
    }

    /// Lifts to a (degenerate) randomized policy over `num_actions`
    /// commands.
    ///
    /// # Panics
    ///
    /// Panics if any stored action is `>= num_actions`.
    pub fn to_randomized(&self, num_actions: usize) -> RandomizedPolicy {
        let rows = self
            .actions
            .iter()
            .map(|&a| {
                assert!(a < num_actions, "action {a} out of range ({num_actions})");
                let mut row = vec![0.0; num_actions];
                row[a] = 1.0;
                row
            })
            .collect();
        RandomizedPolicy::new(rows).expect("one-hot rows are valid distributions")
    }
}

impl fmt::Display for DeterministicPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "s{i}→a{a}")?;
        }
        write!(f, "]")
    }
}

/// A randomized Markov stationary policy: a probability distribution over
/// actions for every state (the matrix `Π` of Definition 3.7 /
/// Example 3.7).
///
/// # Example
///
/// ```
/// use dpm_mdp::RandomizedPolicy;
///
/// # fn main() -> Result<(), dpm_mdp::MdpError> {
/// // Example A.2's first row: s_off with probability 0.226.
/// let policy = RandomizedPolicy::new(vec![vec![0.774, 0.226], vec![1.0, 0.0]])?;
/// assert!((policy.prob(0, 1) - 0.226).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RandomizedPolicy {
    /// `rows[s][a]` = probability of issuing action `a` in state `s`.
    rows: Vec<Vec<f64>>,
}

impl RandomizedPolicy {
    /// Tolerance for validating that rows sum to one.
    const TOL: f64 = 1e-7;

    /// Validates and wraps per-state action distributions.
    ///
    /// # Errors
    ///
    /// [`MdpError::InvalidInitialDistribution`] when any row is empty, has
    /// negative entries, differs in length, or does not sum to one.
    pub fn new(rows: Vec<Vec<f64>>) -> Result<Self, MdpError> {
        let err = |reason: String| MdpError::InvalidInitialDistribution { reason };
        let first_len = rows.first().map(|r| r.len()).unwrap_or(0);
        if first_len == 0 {
            return Err(err("policy has no states or no actions".to_string()));
        }
        for (s, row) in rows.iter().enumerate() {
            if row.len() != first_len {
                return Err(err(format!("row {s} length differs")));
            }
            if row
                .iter()
                .any(|&v| !(0.0..=1.0 + Self::TOL).contains(&v) || !v.is_finite())
            {
                return Err(err(format!("row {s} has an invalid probability")));
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > Self::TOL {
                return Err(err(format!("row {s} sums to {sum}")));
            }
        }
        Ok(RandomizedPolicy { rows })
    }

    /// Probability of issuing `action` in `state`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn prob(&self, state: usize, action: usize) -> f64 {
        self.rows[state][action]
    }

    /// The action distribution of `state`.
    ///
    /// # Panics
    ///
    /// Panics when `state` is out of range.
    pub fn decision(&self, state: usize) -> &[f64] {
        &self.rows[state]
    }

    /// All per-state decisions.
    pub fn decisions(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// The action a uniform `draw` in `[0, 1)` selects in `state`, by
    /// [`dpm_markov::sample_index`]: never an action of probability zero,
    /// even when the decision sums to slightly less than one.
    ///
    /// # Panics
    ///
    /// Panics when `state` is out of range.
    pub fn sample(&self, state: usize, draw: f64) -> usize {
        dpm_markov::sample_index(self.decision(state).iter().copied().enumerate(), draw)
    }

    /// Number of states covered.
    pub fn num_states(&self) -> usize {
        self.rows.len()
    }

    /// Number of actions.
    pub fn num_actions(&self) -> usize {
        self.rows[0].len()
    }

    /// `true` when every row is a point mass, i.e. the policy is actually
    /// deterministic. Theorem A.2: this holds for optimal policies exactly
    /// when no cost constraint is active.
    pub fn is_deterministic(&self) -> bool {
        self.rows
            .iter()
            .all(|row| row.iter().any(|&v| (v - 1.0).abs() <= Self::TOL))
    }

    /// States whose decision genuinely randomizes (no action has
    /// probability ≥ `1 − tol`).
    pub fn randomized_states(&self) -> Vec<usize> {
        (0..self.num_states())
            .filter(|&s| !self.rows[s].iter().any(|&v| (v - 1.0).abs() <= Self::TOL))
            .collect()
    }

    /// Collapses to a deterministic policy by taking the modal action of
    /// every state.
    pub fn mode(&self) -> DeterministicPolicy {
        DeterministicPolicy::new(
            self.rows
                .iter()
                .map(|row| {
                    row.iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map(|(i, _)| i)
                        .expect("non-empty row")
                })
                .collect(),
        )
    }
}

impl fmt::Display for RandomizedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "policy ({} states x {} actions):",
            self.num_states(),
            self.num_actions()
        )?;
        for (s, row) in self.rows.iter().enumerate() {
            write!(f, "  s{s:<3} [")?;
            for (a, p) in row.iter().enumerate() {
                if a > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{p:.3}")?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_round_trip() {
        let p = DeterministicPolicy::new(vec![0, 2, 1]);
        assert_eq!(p.num_states(), 3);
        assert_eq!(p.actions(), &[0, 2, 1]);
        let r = p.to_randomized(3);
        assert_eq!(r.prob(1, 2), 1.0);
        assert_eq!(r.prob(1, 0), 0.0);
        assert!(r.is_deterministic());
        assert_eq!(r.mode(), p);
    }

    #[test]
    fn randomized_validation() {
        assert!(RandomizedPolicy::new(vec![vec![0.5, 0.5]]).is_ok());
        assert!(RandomizedPolicy::new(vec![vec![0.5, 0.4]]).is_err());
        assert!(RandomizedPolicy::new(vec![vec![1.5, -0.5]]).is_err());
        assert!(RandomizedPolicy::new(vec![]).is_err());
        assert!(RandomizedPolicy::new(vec![vec![1.0], vec![0.5, 0.5]]).is_err());
    }

    #[test]
    fn randomized_states_detects_mixing() {
        let p = RandomizedPolicy::new(vec![vec![1.0, 0.0], vec![0.3, 0.7]]).unwrap();
        assert!(!p.is_deterministic());
        assert_eq!(p.randomized_states(), vec![1]);
        assert_eq!(p.mode().action(1), 1);
    }

    #[test]
    fn display_formats_rows() {
        let p = RandomizedPolicy::new(vec![vec![0.774, 0.226]]).unwrap();
        let s = format!("{p}");
        assert!(s.contains("0.774"));
        assert!(s.contains("s0"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn to_randomized_rejects_big_action() {
        DeterministicPolicy::new(vec![3]).to_randomized(2);
    }
}
