use dpm_linalg::SparseLu;

use crate::{MarkovError, StochasticMatrix};

/// A stationary discrete-time Markov chain over a finite state set.
///
/// This models the paper's *service requester* (Definition 3.2): an
/// autonomous chain the power manager cannot influence. It also backs the
/// analysis of composed system chains under a fixed policy.
///
/// # Example
///
/// ```
/// use dpm_markov::{MarkovChain, StochasticMatrix};
///
/// # fn main() -> Result<(), dpm_markov::MarkovError> {
/// let p = StochasticMatrix::from_rows(&[&[0.85, 0.15], &[0.15, 0.85]])?;
/// let chain = MarkovChain::new(p);
/// // Long-run fraction of slices with a pending request:
/// let pi = chain.stationary_distribution()?;
/// assert!((pi[1] - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovChain {
    transition: StochasticMatrix,
}

impl MarkovChain {
    /// Wraps a validated transition matrix.
    pub fn new(transition: StochasticMatrix) -> Self {
        MarkovChain { transition }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transition.num_states()
    }

    /// Borrows the transition kernel.
    pub fn transition_matrix(&self) -> &StochasticMatrix {
        &self.transition
    }

    /// Consumes the chain and returns the kernel.
    pub fn into_transition_matrix(self) -> StochasticMatrix {
        self.transition
    }

    /// Distribution after `k` slices starting from `initial`.
    ///
    /// # Errors
    ///
    /// [`MarkovError::DimensionMismatch`] when `initial.len()` differs
    /// from the number of states.
    pub fn distribution_after(&self, initial: &[f64], k: usize) -> Result<Vec<f64>, MarkovError> {
        let mut d = initial.to_vec();
        if d.len() != self.num_states() {
            return Err(MarkovError::DimensionMismatch {
                found: d.len(),
                expected: self.num_states(),
            });
        }
        for _ in 0..k {
            d = self.transition.step(&d)?;
        }
        Ok(d)
    }

    /// Solves `π P = π`, `Σπ = 1` for the stationary distribution.
    ///
    /// Solved as the sparse linear system `(Pᵀ − I) π = 0` with one row
    /// replaced by the normalization constraint, which is exact for
    /// irreducible chains. Column `j` of `Pᵀ − I` is row `j` of the
    /// kernel, so the system is assembled straight from the stored rows.
    ///
    /// # Errors
    ///
    /// [`MarkovError::StationaryFailure`] when the system is singular
    /// (reducible chain with multiple stationary distributions) or the
    /// solution has negative mass beyond tolerance.
    pub fn stationary_distribution(&self) -> Result<Vec<f64>, MarkovError> {
        let n = self.num_states();
        let last = n - 1;
        // Column j: P(j, i) − δᵢⱼ for i < n − 1, then the all-ones
        // normalization row (Σπ = 1) in place of row n − 1.
        let columns: Vec<Vec<(usize, f64)>> = self
            .transition
            .rows()
            .enumerate()
            .map(|(j, row)| {
                let mut col: Vec<(usize, f64)> =
                    row.entries().filter(|&(i, _)| i != last).collect();
                if j != last {
                    col.push((j, -1.0));
                }
                col.push((last, 1.0));
                col
            })
            .collect();
        let mut b = vec![0.0; n];
        if let Some(one) = b.last_mut() {
            *one = 1.0;
        }
        let lu =
            SparseLu::from_columns(n, &columns).map_err(|e| MarkovError::StationaryFailure {
                reason: e.to_string(),
            })?;
        let mut pi = lu.solve(&b)?;
        // Clean up tiny negative roundoff, then re-normalize.
        for v in pi.iter_mut() {
            if *v < 0.0 {
                if *v < -1e-8 {
                    return Err(MarkovError::StationaryFailure {
                        reason: format!("negative stationary mass {v}"),
                    });
                }
                *v = 0.0;
            }
        }
        dpm_linalg::vector::normalize_l1(&mut pi);
        Ok(pi)
    }

    /// Expected long-run average of a per-state cost under the stationary
    /// distribution: `Σ πᵢ cost(i)`.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::stationary_distribution`] failures and reports
    /// [`MarkovError::DimensionMismatch`] for a wrong-length cost vector.
    pub fn stationary_average(&self, cost: &[f64]) -> Result<f64, MarkovError> {
        if cost.len() != self.num_states() {
            return Err(MarkovError::DimensionMismatch {
                found: cost.len(),
                expected: self.num_states(),
            });
        }
        let pi = self.stationary_distribution()?;
        Ok(dpm_linalg::vector::dot(&pi, cost))
    }

    /// Expected first-hitting slice of `target` starting from each state
    /// (0 for the target itself).
    ///
    /// Solves the standard first-passage system
    /// `h(i) = 1 + Σ_{j≠target} P(i,j) h(j)`.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::StateOutOfRange`] for a bad target index.
    /// * [`MarkovError::StationaryFailure`] when the target is unreachable
    ///   from some state (singular system).
    pub fn expected_hitting_times(&self, target: usize) -> Result<Vec<f64>, MarkovError> {
        let n = self.num_states();
        if target >= n {
            return Err(MarkovError::StateOutOfRange {
                index: target,
                num_states: n,
            });
        }
        // Unknowns: h(i) for i != target. System: (I − Q) h = 1, where Q is
        // P restricted to non-target rows/columns. Each row of I − Q comes
        // straight from a kernel row; the rows are factored as the columns
        // of (I − Q)ᵀ and the system is solved transposed.
        let position = |j: usize| if j < target { j } else { j - 1 };
        let rows: Vec<Vec<(usize, f64)>> = self
            .transition
            .rows()
            .enumerate()
            .filter(|&(i, _)| i != target)
            .map(|(i, row)| {
                let mut r = vec![(position(i), 1.0)];
                let inflow = row.entries().filter(|&(j, _)| j != target);
                r.extend(inflow.map(|(j, p)| (position(j), -p)));
                r
            })
            .collect();
        let b = vec![1.0; n - 1];
        let lu =
            SparseLu::from_columns(n - 1, &rows).map_err(|e| MarkovError::StationaryFailure {
                reason: format!("hitting-time system singular: {e}"),
            })?;
        let mut h = lu.solve_transposed(&b)?;
        h.insert(target, 0.0);
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state(p01: f64, p10: f64) -> MarkovChain {
        MarkovChain::new(
            StochasticMatrix::from_rows(&[&[1.0 - p01, p01], &[p10, 1.0 - p10]]).unwrap(),
        )
    }

    #[test]
    fn stationary_of_two_state_chain() {
        // π = (p10, p01) / (p01 + p10)
        let chain = two_state(0.15, 0.05);
        let pi = chain.stationary_distribution().unwrap();
        assert!((pi[0] - 0.25).abs() < 1e-12);
        assert!((pi[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stationary_is_fixed_point() {
        let chain = two_state(0.3, 0.7);
        let pi = chain.stationary_distribution().unwrap();
        let stepped = chain.transition_matrix().step(&pi).unwrap();
        assert!(dpm_linalg::vector::approx_eq(&pi, &stepped, 1e-12));
    }

    #[test]
    fn distribution_after_converges_to_stationary() {
        let chain = two_state(0.15, 0.85);
        let pi = chain.stationary_distribution().unwrap();
        let d = chain.distribution_after(&[1.0, 0.0], 200).unwrap();
        assert!(dpm_linalg::vector::approx_eq(&pi, &d, 1e-9));
    }

    #[test]
    fn stationary_average_weights_costs() {
        let chain = two_state(0.5, 0.5);
        let avg = chain.stationary_average(&[0.0, 2.0]).unwrap();
        assert!((avg - 1.0).abs() < 1e-12);
        assert!(chain.stationary_average(&[1.0]).is_err());
    }

    #[test]
    fn reducible_chain_fails_stationary() {
        // Two absorbing states: stationary distribution not unique.
        let chain = MarkovChain::new(StochasticMatrix::identity(2));
        assert!(chain.stationary_distribution().is_err());
    }

    #[test]
    fn hitting_time_of_geometric_transition() {
        // From state 0, move to state 1 w.p. 0.1 each slice: E[T] = 10 —
        // this is exactly equation (2) of the paper.
        let chain = two_state(0.1, 0.0);
        let h = chain.expected_hitting_times(1).unwrap();
        assert!((h[0] - 10.0).abs() < 1e-9);
        assert_eq!(h[1], 0.0);
    }

    #[test]
    fn single_state_chain_is_already_at_its_target() {
        let chain = MarkovChain::new(StochasticMatrix::identity(1));
        assert_eq!(chain.expected_hitting_times(0).unwrap(), vec![0.0]);
        assert_eq!(chain.stationary_distribution().unwrap(), vec![1.0]);
    }

    #[test]
    fn hitting_time_rejects_bad_target() {
        let chain = two_state(0.5, 0.5);
        assert!(matches!(
            chain.expected_hitting_times(5),
            Err(MarkovError::StateOutOfRange { .. })
        ));
    }

    #[test]
    fn unreachable_target_is_singular() {
        // State 1 unreachable from state 0.
        let chain = two_state(0.0, 1.0);
        assert!(chain.expected_hitting_times(1).is_err());
    }

    #[test]
    fn distribution_after_checks_length() {
        let chain = two_state(0.5, 0.5);
        assert!(chain.distribution_after(&[1.0], 3).is_err());
    }
}
