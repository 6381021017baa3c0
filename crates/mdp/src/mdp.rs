use dpm_linalg::{Matrix, SparseLu};
use dpm_markov::ControlledMarkovChain;

use crate::{DeterministicPolicy, MdpError, RandomizedPolicy};

/// A finite, discounted Markov decision process.
///
/// The composed power-managed system of Section III is exactly such an
/// object: a controlled chain over `S_SP × S_SR × S_SQ` plus per
/// state–action costs (power `p(s, a)` or performance penalty `d(s, a)`)
/// and a discount factor `α` encoding the finite session horizon of
/// Section IV (expected stopping time `1/(1−α)`).
///
/// Costs are *total expected discounted* quantities; divide by the horizon
/// `1/(1−α)` (or multiply by `1−α`) to recover the per-slice (e.g. Watt)
/// values the paper plots.
#[derive(Debug, Clone)]
pub struct DiscountedMdp {
    chain: ControlledMarkovChain,
    cost: Matrix,
    discount: f64,
}

impl DiscountedMdp {
    /// Builds an MDP from a controlled chain, a `states × actions` cost
    /// matrix and a discount factor.
    ///
    /// # Errors
    ///
    /// * [`MdpError::CostShapeMismatch`] when `cost` is not
    ///   `num_states × num_actions`.
    /// * [`MdpError::InvalidDiscount`] when `discount ∉ (0, 1)`.
    pub fn new(
        chain: ControlledMarkovChain,
        cost: Matrix,
        discount: f64,
    ) -> Result<Self, MdpError> {
        let expected = (chain.num_states(), chain.num_actions());
        if cost.shape() != expected {
            return Err(MdpError::CostShapeMismatch {
                found: cost.shape(),
                expected,
            });
        }
        if !(discount > 0.0 && discount < 1.0 && discount.is_finite()) {
            return Err(MdpError::InvalidDiscount { value: discount });
        }
        Ok(DiscountedMdp {
            chain,
            cost,
            discount,
        })
    }

    /// Replaces the transition structure with a re-estimated chain of the
    /// **same dimensions**, keeping costs and discount — the model-drift
    /// mutation behind
    /// [`ConstrainedSession::update_model`](crate::ConstrainedSession::update_model):
    /// an online estimator refits the workload chain each epoch while the
    /// cost structure (power, penalties) is a property of the hardware
    /// and stays put.
    ///
    /// # Errors
    ///
    /// [`MdpError::CostShapeMismatch`] when the new chain's
    /// `(states, actions)` differ from the existing cost matrix's — the
    /// state space of a loaded problem is fixed.
    pub fn replace_chain(&mut self, chain: ControlledMarkovChain) -> Result<(), MdpError> {
        self.check_chain_shape(&chain)?;
        self.chain = chain;
        Ok(())
    }

    /// The [`Self::replace_chain`] shape check alone.
    pub(crate) fn check_chain_shape(&self, chain: &ControlledMarkovChain) -> Result<(), MdpError> {
        let expected = (self.chain.num_states(), self.chain.num_actions());
        let found = (chain.num_states(), chain.num_actions());
        if found != expected {
            return Err(MdpError::CostShapeMismatch { found, expected });
        }
        Ok(())
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.chain.num_states()
    }

    /// Number of actions.
    pub fn num_actions(&self) -> usize {
        self.chain.num_actions()
    }

    /// The discount factor `α`.
    pub fn discount(&self) -> f64 {
        self.discount
    }

    /// Expected session length `1/(1−α)` in slices (the paper's time
    /// horizon; Section IV).
    pub fn horizon(&self) -> f64 {
        1.0 / (1.0 - self.discount)
    }

    /// The controlled transition structure.
    pub fn chain(&self) -> &ControlledMarkovChain {
        &self.chain
    }

    /// The `states × actions` cost matrix.
    pub fn cost_matrix(&self) -> &Matrix {
        &self.cost
    }

    /// The cost of taking `action` in `state`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn cost(&self, state: usize, action: usize) -> f64 {
        self.cost[(state, action)]
    }

    /// Successive approximation of the optimality equations (12):
    /// `v(s) = minₐ [c(s,a) + α Σⱼ P(s→j|a) v(j)]`.
    ///
    /// Returns the optimal value vector and the greedy (optimal
    /// deterministic Markov stationary) policy — Theorem A.1.
    ///
    /// # Errors
    ///
    /// [`MdpError::NoConvergence`] when the span seminorm of successive
    /// iterates fails to drop below `tol` within `max_iterations`.
    pub fn value_iteration(
        &self,
        tol: f64,
        max_iterations: usize,
    ) -> Result<(Vec<f64>, DeterministicPolicy), MdpError> {
        let n = self.num_states();
        let mut v = vec![0.0; n];
        let mut next = vec![0.0; n];
        for _iter in 0..max_iterations {
            for (s, slot) in next.iter_mut().enumerate() {
                *slot = self.bellman_min(s, &v).0;
            }
            let diff = dpm_linalg::vector::max_abs_diff(&v, &next);
            std::mem::swap(&mut v, &mut next);
            // Standard stopping rule guaranteeing ‖v − v*‖ ≤ tol.
            if diff < tol * (1.0 - self.discount) / (2.0 * self.discount).max(1.0) {
                let policy = self.greedy_policy(&v);
                return Ok((v, policy));
            }
        }
        Err(MdpError::NoConvergence {
            algorithm: "value iteration",
            iterations: max_iterations,
        })
    }

    /// Howard's policy iteration: exact evaluation (sparse LU solve) alternated
    /// with greedy improvement. Terminates in finitely many steps because
    /// `Π_DMS` is finite and each step strictly improves.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures; [`MdpError::NoConvergence`] is
    /// returned if improvement stalls without stabilizing (which would
    /// indicate a numerical problem, not a theoretical one).
    pub fn policy_iteration(&self) -> Result<(Vec<f64>, DeterministicPolicy), MdpError> {
        let n = self.num_states();
        let mut policy = DeterministicPolicy::new(vec![0; n]);
        // |Π_DMS| is finite; n·m + a margin bounds the improvement steps in
        // practice for these problem sizes.
        let max_rounds = 20 + 10 * n * self.num_actions();
        for _ in 0..max_rounds {
            let v = self.evaluate_deterministic(&policy)?;
            let improved = self.greedy_policy(&v);
            if improved == policy {
                return Ok((v, policy));
            }
            policy = improved;
        }
        Err(MdpError::NoConvergence {
            algorithm: "policy iteration",
            iterations: max_rounds,
        })
    }

    /// Exact value of a deterministic policy: solves
    /// `(I − α P_π) v = c_π`.
    ///
    /// # Errors
    ///
    /// Propagates singular-system failures (impossible for a valid
    /// stochastic matrix and `α < 1`, but surfaced rather than panicked).
    pub fn evaluate_deterministic(
        &self,
        policy: &DeterministicPolicy,
    ) -> Result<Vec<f64>, MdpError> {
        let randomized = policy.to_randomized(self.num_actions());
        self.evaluate_randomized(&randomized)
    }

    /// Exact value of a randomized policy `π`: solves
    /// `(I − α P_π) v = c_π` with `P_π`, `c_π` mixed by the per-state
    /// decisions (equation (5)).
    ///
    /// # Errors
    ///
    /// Propagates singular-system failures and decision-validation errors.
    pub fn evaluate_randomized(&self, policy: &RandomizedPolicy) -> Result<Vec<f64>, MdpError> {
        let n = self.num_states();
        let closed_loop = self.chain.under_state_decisions(policy.decisions())?;
        // Row i of I − α P_π, straight from the closed-loop kernel's
        // nonzeros; factored as the columns of (I − α P_π)ᵀ and solved
        // transposed.
        let rows: Vec<Vec<(usize, f64)>> = closed_loop
            .transition_matrix()
            .rows()
            .enumerate()
            .map(|(i, row)| {
                let mut r = Vec::with_capacity(row.len() + 1);
                r.push((i, 1.0));
                r.extend(row.entries().map(|(j, p)| (j, -self.discount * p)));
                r
            })
            .collect();
        let c_pi: Vec<f64> = (0..n)
            .map(|s| {
                policy
                    .decision(s)
                    .iter()
                    .enumerate()
                    .map(|(act, &w)| w * self.cost[(s, act)])
                    .sum()
            })
            .collect();
        let lu = SparseLu::from_columns(n, &rows)?;
        Ok(lu.solve_transposed(&c_pi)?)
    }

    /// Total expected discounted cost of a randomized policy from an
    /// initial distribution: `q · v_π`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures; rejects malformed `initial`.
    pub fn policy_value(
        &self,
        policy: &RandomizedPolicy,
        initial: &[f64],
    ) -> Result<f64, MdpError> {
        validate_distribution(initial, self.num_states())?;
        let v = self.evaluate_randomized(policy)?;
        Ok(dpm_linalg::vector::dot(initial, &v))
    }

    /// One Bellman backup at `s`: `(min value, argmin action)`.
    fn bellman_min(&self, s: usize, v: &[f64]) -> (f64, usize) {
        let mut best = f64::INFINITY;
        let mut best_a = 0;
        for a in 0..self.num_actions() {
            let future = self.chain.kernel(a).row(s).dot(v);
            let q = self.cost[(s, a)] + self.discount * future;
            if q < best {
                best = q;
                best_a = a;
            }
        }
        (best, best_a)
    }

    /// The greedy policy with respect to a value vector.
    fn greedy_policy(&self, v: &[f64]) -> DeterministicPolicy {
        DeterministicPolicy::new(
            (0..self.num_states())
                .map(|s| self.bellman_min(s, v).1)
                .collect(),
        )
    }

    /// Residual of the optimality equations at `v`:
    /// `‖v − T v‖_∞`. Zero (within tolerance) certifies optimality
    /// (Theorem A.1).
    pub fn bellman_residual(&self, v: &[f64]) -> f64 {
        (0..self.num_states())
            .map(|s| (v[s] - self.bellman_min(s, v).0).abs())
            .fold(0.0, f64::max)
    }
}

/// Validates a probability distribution over `n` states.
pub(crate) fn validate_distribution(dist: &[f64], n: usize) -> Result<(), MdpError> {
    if dist.len() != n {
        return Err(MdpError::InvalidInitialDistribution {
            reason: format!("length {} for {n} states", dist.len()),
        });
    }
    if dist.iter().any(|&v| v < 0.0 || !v.is_finite()) {
        return Err(MdpError::InvalidInitialDistribution {
            reason: "negative or non-finite mass".to_string(),
        });
    }
    let sum: f64 = dist.iter().sum();
    if (sum - 1.0).abs() > 1e-7 {
        return Err(MdpError::InvalidInitialDistribution {
            reason: format!("sums to {sum}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_markov::StochasticMatrix;

    /// Two states (0 expensive, 1 free), two actions (0 = stay, 1 = move
    /// toward state 1 w.p. 1). Staying in state 0 costs 1, state 1 is free.
    fn escape_mdp(discount: f64) -> DiscountedMdp {
        let stay = StochasticMatrix::identity(2);
        let jump = StochasticMatrix::from_rows(&[&[0.0, 1.0], &[0.0, 1.0]]).unwrap();
        let chain = ControlledMarkovChain::new(vec![stay, jump]).unwrap();
        let cost = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 0.0]]).unwrap();
        DiscountedMdp::new(chain, cost, discount).unwrap()
    }

    #[test]
    fn constructor_validates() {
        let chain = ControlledMarkovChain::new(vec![StochasticMatrix::identity(2)]).unwrap();
        let bad_cost = Matrix::zeros(3, 1);
        assert!(matches!(
            DiscountedMdp::new(chain.clone(), bad_cost, 0.9),
            Err(MdpError::CostShapeMismatch { .. })
        ));
        let cost = Matrix::zeros(2, 1);
        assert!(matches!(
            DiscountedMdp::new(chain.clone(), cost.clone(), 1.0),
            Err(MdpError::InvalidDiscount { .. })
        ));
        assert!(matches!(
            DiscountedMdp::new(chain, cost, -0.1),
            Err(MdpError::InvalidDiscount { .. })
        ));
    }

    #[test]
    fn horizon_matches_discount() {
        let mdp = escape_mdp(0.99);
        assert!((mdp.horizon() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn value_iteration_solves_escape() {
        // Optimal: jump out of state 0 immediately. v(0) = 1 (pay once),
        // v(1) = 0.
        let mdp = escape_mdp(0.9);
        let (v, policy) = mdp.value_iteration(1e-10, 10_000).unwrap();
        assert_eq!(policy.action(0), 1);
        assert!((v[0] - 1.0).abs() < 1e-7);
        assert!(v[1].abs() < 1e-9);
    }

    #[test]
    fn policy_iteration_matches_value_iteration() {
        let mdp = escape_mdp(0.95);
        let (v_vi, p_vi) = mdp.value_iteration(1e-10, 100_000).unwrap();
        let (v_pi, p_pi) = mdp.policy_iteration().unwrap();
        assert_eq!(p_vi, p_pi);
        assert!(dpm_linalg::vector::approx_eq(&v_vi, &v_pi, 1e-6));
    }

    #[test]
    fn evaluate_deterministic_bad_policy() {
        // Always stay: v(0) = 1/(1-α).
        let mdp = escape_mdp(0.9);
        let v = mdp
            .evaluate_deterministic(&DeterministicPolicy::new(vec![0, 0]))
            .unwrap();
        assert!((v[0] - 10.0).abs() < 1e-9);
        assert!(v[1].abs() < 1e-12);
    }

    #[test]
    fn randomized_policy_value_interpolates() {
        let mdp = escape_mdp(0.9);
        // In state 0, stay w.p. β, jump w.p. 1−β:
        // v0 = 1 + α β v0 ⇒ v0 = 1 / (1 − αβ).
        let beta = 0.5;
        let policy = RandomizedPolicy::new(vec![vec![beta, 1.0 - beta], vec![1.0, 0.0]]).unwrap();
        let v = mdp.evaluate_randomized(&policy).unwrap();
        assert!((v[0] - 1.0 / (1.0 - 0.9 * beta)).abs() < 1e-9);
    }

    #[test]
    fn policy_value_weights_by_initial_distribution() {
        let mdp = escape_mdp(0.9);
        let policy = DeterministicPolicy::new(vec![1, 0]).to_randomized(2);
        let value = mdp.policy_value(&policy, &[0.5, 0.5]).unwrap();
        assert!((value - 0.5).abs() < 1e-9);
        assert!(mdp.policy_value(&policy, &[1.0]).is_err());
        assert!(mdp.policy_value(&policy, &[0.7, 0.7]).is_err());
    }

    #[test]
    fn bellman_residual_certifies_optimality() {
        let mdp = escape_mdp(0.9);
        let (v, _) = mdp.value_iteration(1e-12, 100_000).unwrap();
        assert!(mdp.bellman_residual(&v) < 1e-9);
        // At v = [5, 5] every backup gives 5.5 / 4.5, so the residual is 0.5.
        assert!((mdp.bellman_residual(&[5.0, 5.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stochastic_transition_discounting() {
        // Single action; from state 0 move to 1 w.p. p, else stay. Cost 1
        // in state 0. v0 = 1 + α(1−p) v0 ⇒ v0 = 1/(1 − α(1−p)).
        let p = 0.3;
        let kernel = StochasticMatrix::from_rows(&[&[1.0 - p, p], &[0.0, 1.0]]).unwrap();
        let chain = ControlledMarkovChain::new(vec![kernel]).unwrap();
        let cost = Matrix::from_rows(&[&[1.0], &[0.0]]).unwrap();
        let mdp = DiscountedMdp::new(chain, cost, 0.8).unwrap();
        let (v, _) = mdp.value_iteration(1e-12, 100_000).unwrap();
        assert!((v[0] - 1.0 / (1.0 - 0.8 * 0.7)).abs() < 1e-7);
    }
}
