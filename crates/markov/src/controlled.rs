use crate::stochastic::MixedRows;
use crate::{MarkovChain, MarkovError, StochasticMatrix};

/// A stationary *controlled* Markov chain: one transition kernel per
/// command from a finite control set (Definition 3.1's `Σ` and the composed
/// system chain of Section III).
///
/// The power manager steers such a chain by choosing, each slice, a
/// *decision* — a probability distribution over commands (Definition 3.5).
/// [`Self::under_decision`] mixes the kernels accordingly (equation (5)),
/// and [`Self::under_state_decisions`] builds the closed-loop chain of a
/// full Markov stationary policy.
///
/// Each command's kernel is its own sparse [`StochasticMatrix`], so a
/// chain of `n` states and `m` commands stores its `m` kernels' nonzeros
/// and `m · (n + 1)` row offsets, never `m · n²` probabilities.
///
/// # Example
///
/// ```
/// use dpm_markov::{ControlledMarkovChain, StochasticMatrix};
///
/// # fn main() -> Result<(), dpm_markov::MarkovError> {
/// // Example 3.1: the two-state service provider under s_on / s_off.
/// let p_on = StochasticMatrix::from_rows(&[&[1.0, 0.0], &[0.1, 0.9]])?;
/// let p_off = StochasticMatrix::from_rows(&[&[0.2, 0.8], &[0.0, 1.0]])?;
/// let sp = ControlledMarkovChain::new(vec![p_on, p_off])?;
/// assert_eq!(sp.num_actions(), 2);
/// // Issuing s_on from the off state: geometric with mean 10 slices.
/// assert!((sp.expected_transition_time(1, 0, 0).unwrap() - 10.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ControlledMarkovChain {
    kernels: Vec<StochasticMatrix>,
}

impl ControlledMarkovChain {
    /// Wraps one validated kernel per action.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::NoActions`] for an empty kernel list.
    /// * [`MarkovError::DimensionMismatch`] when kernels differ in size.
    pub fn new(kernels: Vec<StochasticMatrix>) -> Result<Self, MarkovError> {
        let first = kernels.first().ok_or(MarkovError::NoActions)?;
        let n = first.num_states();
        for k in &kernels {
            if k.num_states() != n {
                return Err(MarkovError::DimensionMismatch {
                    found: k.num_states(),
                    expected: n,
                });
            }
        }
        Ok(ControlledMarkovChain { kernels })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.kernels[0].num_states()
    }

    /// Number of actions (commands).
    pub fn num_actions(&self) -> usize {
        self.kernels.len()
    }

    /// Kernel of action `a`.
    ///
    /// # Panics
    ///
    /// Panics when `a >= num_actions()`.
    pub fn kernel(&self, a: usize) -> &StochasticMatrix {
        &self.kernels[a]
    }

    /// All kernels, action-indexed.
    pub fn kernels(&self) -> &[StochasticMatrix] {
        &self.kernels
    }

    /// Transition probability `P(i → j | a)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn prob(&self, i: usize, j: usize, a: usize) -> f64 {
        self.kernels[a].prob(i, j)
    }

    /// The mixed kernel `P(δ) = Σₐ δ(a) P(a)` under one global randomized
    /// decision `δ` — equation (5) of the paper (Example 3.6).
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidDecision`] when `decision` is not a
    /// distribution over the actions.
    pub fn under_decision(&self, decision: &[f64]) -> Result<StochasticMatrix, MarkovError> {
        if decision.len() != self.num_actions() {
            return Err(MarkovError::InvalidDecision {
                reason: format!(
                    "decision has {} entries for {} actions",
                    decision.len(),
                    self.num_actions()
                ),
            });
        }
        let parts: Vec<(f64, &StochasticMatrix)> =
            decision.iter().copied().zip(self.kernels.iter()).collect();
        StochasticMatrix::mixture(&parts)
    }

    /// The closed-loop chain under a randomized Markov stationary policy:
    /// row `i` of the result uses the state-dependent decision
    /// `decisions[i]` (Definition 3.7).
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidDecision`] when `decisions` has the wrong
    /// shape or any row is not a distribution over actions.
    pub fn under_state_decisions(
        &self,
        decisions: &[Vec<f64>],
    ) -> Result<MarkovChain, MarkovError> {
        let n = self.num_states();
        let na = self.num_actions();
        if decisions.len() != n {
            return Err(MarkovError::InvalidDecision {
                reason: format!("{} decision rows for {n} states", decisions.len()),
            });
        }
        let nnz = self
            .kernels
            .iter()
            .map(StochasticMatrix::nnz)
            .max()
            .unwrap_or(0);
        let mut rows = MixedRows::with_capacity(n, nnz);
        for (i, d) in decisions.iter().enumerate() {
            if d.len() != na {
                return Err(MarkovError::InvalidDecision {
                    reason: format!("decision row {i} has {} entries for {na} actions", d.len()),
                });
            }
            let sum: f64 = d.iter().sum();
            if (sum - 1.0).abs() > crate::ROW_SUM_TOLERANCE || d.iter().any(|&v| v < 0.0) {
                return Err(MarkovError::InvalidDecision {
                    reason: format!("decision row {i} is not a distribution (sum {sum})"),
                });
            }
            let used = d.iter().zip(&self.kernels).filter(|&(&w, _)| w != 0.0);
            rows.push_row(used.map(|(&w, kernel)| (w, kernel.row(i))));
        }
        Ok(MarkovChain::new(rows.finish()?))
    }

    /// Expected slices to first reach `to` from `from` when command `a` is
    /// held constant — equation (2)'s generalization: for a direct
    /// geometric edge this is `1 / p`, and for longer paths it is the
    /// first-passage time of the fixed-command chain.
    ///
    /// Returns `None` when `to` is unreachable from `from` under `a`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn expected_transition_time(&self, from: usize, to: usize, a: usize) -> Option<f64> {
        if from == to {
            return Some(0.0);
        }
        let chain = MarkovChain::new(self.kernels[a].clone());
        match chain.expected_hitting_times(to) {
            Ok(h) => {
                let v = h[from];
                if v.is_finite() && v >= 0.0 {
                    Some(v)
                } else {
                    None
                }
            }
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_3_1() -> ControlledMarkovChain {
        // States: 0 = on, 1 = off. Commands: 0 = s_on, 1 = s_off.
        let p_on = StochasticMatrix::from_rows(&[&[1.0, 0.0], &[0.1, 0.9]]).unwrap();
        let p_off = StochasticMatrix::from_rows(&[&[0.2, 0.8], &[0.0, 1.0]]).unwrap();
        ControlledMarkovChain::new(vec![p_on, p_off]).unwrap()
    }

    #[test]
    fn accessors() {
        let sp = example_3_1();
        assert_eq!(sp.num_states(), 2);
        assert_eq!(sp.num_actions(), 2);
        assert_eq!(sp.prob(1, 0, 0), 0.1);
        assert_eq!(sp.kernel(1).prob(0, 1), 0.8);
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert!(matches!(
            ControlledMarkovChain::new(vec![]),
            Err(MarkovError::NoActions)
        ));
        let a = StochasticMatrix::identity(2);
        let b = StochasticMatrix::identity(3);
        assert!(matches!(
            ControlledMarkovChain::new(vec![a, b]),
            Err(MarkovError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn under_decision_matches_example_3_6() {
        let sp = example_3_1();
        let mixed = sp.under_decision(&[0.8, 0.2]).unwrap();
        assert!((mixed.prob(0, 0) - 0.84).abs() < 1e-12); // 0.8·1 + 0.2·0.2
        assert!((mixed.prob(0, 1) - 0.16).abs() < 1e-12);
        assert!((mixed.prob(1, 0) - 0.08).abs() < 1e-12);
        assert!(sp.under_decision(&[1.0]).is_err());
    }

    #[test]
    fn state_decisions_build_closed_loop_chain() {
        let sp = example_3_1();
        // In state on: always s_off; in state off: always s_on.
        let chain = sp
            .under_state_decisions(&[vec![0.0, 1.0], vec![1.0, 0.0]])
            .unwrap();
        let p = chain.transition_matrix();
        assert_eq!(p.prob(0, 1), 0.8); // on row follows P(s_off)
        assert_eq!(p.prob(1, 0), 0.1); // off row follows P(s_on)
    }

    #[test]
    fn state_decisions_validate_shape() {
        let sp = example_3_1();
        assert!(sp.under_state_decisions(&[vec![1.0, 0.0]]).is_err());
        assert!(sp
            .under_state_decisions(&[vec![0.5, 0.6], vec![1.0, 0.0]])
            .is_err());
    }

    #[test]
    fn expected_transition_time_is_geometric_mean() {
        let sp = example_3_1();
        // off → on under s_on: p = 0.1 ⇒ 10 slices (Example 3.1).
        assert!((sp.expected_transition_time(1, 0, 0).unwrap() - 10.0).abs() < 1e-9);
        // on → off under s_off: p = 0.8 ⇒ 1.25 slices.
        assert!((sp.expected_transition_time(0, 1, 1).unwrap() - 1.25).abs() < 1e-9);
        // off → on under s_off: unreachable.
        assert_eq!(sp.expected_transition_time(1, 0, 1), None);
        // Same state: zero.
        assert_eq!(sp.expected_transition_time(0, 0, 0), Some(0.0));
    }
}
