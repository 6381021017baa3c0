use dpm_linalg::Matrix;
use dpm_lp::{ConstraintOp, LinearProgram, LpSolution, LpSolver};
use dpm_markov::ControlledMarkovChain;

use crate::mdp::validate_distribution;
use crate::{DeterministicPolicy, DiscountedMdp, MdpError, RandomizedPolicy};

/// Relative tolerance within which two lookahead bound usages tie (see
/// [`OccupationLp::build_with_lookahead`]).
const LOOKAHEAD_TIE: f64 = 1e-12;

/// The occupation-measure linear program **LP2** of the paper's Appendix A.
///
/// Unknowns are the *state–action frequencies* `x_{s,a}` — the expected
/// discounted number of slices in which the system is in state `s` and
/// command `a` is issued. The program is
///
/// ```text
/// minimize    Σ_{s,a} c(s,a) · x_{s,a}
/// subject to  Σ_a x_{j,a} − α Σ_s Σ_a P(s→j|a) x_{s,a} = q_j   ∀j
///             x ≥ 0
/// ```
///
/// where `q` is the initial state distribution. The equality rows are the
/// "balance equations" of Fig. 11: expected visits to `j` equal the initial
/// mass at `j` plus discounted expected inflow. Extra linear cost bounds
/// (the paper's LP3/LP4) are added by
/// [`ConstrainedMdp`](crate::ConstrainedMdp), which builds on this type.
///
/// # Example
///
/// ```
/// use dpm_linalg::Matrix;
/// use dpm_lp::Simplex;
/// use dpm_markov::{ControlledMarkovChain, StochasticMatrix};
/// use dpm_mdp::{DiscountedMdp, OccupationLp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stay = StochasticMatrix::identity(2);
/// let jump = StochasticMatrix::from_rows(&[&[0.0, 1.0], &[0.0, 1.0]])?;
/// let chain = ControlledMarkovChain::new(vec![stay, jump])?;
/// let cost = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 0.0]])?;
/// let mdp = DiscountedMdp::new(chain, cost, 0.9)?;
/// let solution = OccupationLp::new(&mdp, &[1.0, 0.0])?.solve(&Simplex::new())?;
/// assert!((solution.objective() - 1.0).abs() < 1e-6); // pay once, escape
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct OccupationLp<'a> {
    mdp: &'a DiscountedMdp,
    /// The transition structure the balance rows are emitted from:
    /// `mdp`'s own chain, or a same-shape replacement staged by
    /// [`Self::over_chain`].
    chain: &'a ControlledMarkovChain,
    initial: Vec<f64>,
}

impl<'a> OccupationLp<'a> {
    /// Prepares the LP for an MDP and an initial state distribution `q`.
    ///
    /// # Errors
    ///
    /// [`MdpError::InvalidInitialDistribution`] when `initial` is not a
    /// distribution over the MDP's states.
    pub fn new(mdp: &'a DiscountedMdp, initial: &[f64]) -> Result<Self, MdpError> {
        Self::over_chain(mdp, mdp.chain(), initial)
    }

    /// The LP of `mdp`'s costs and discount over another chain of the
    /// same shape — how a model update stages its program without
    /// copying the MDP.
    ///
    /// # Errors
    ///
    /// [`MdpError::CostShapeMismatch`] when `chain`'s dimensions differ
    /// from `mdp`'s; [`MdpError::InvalidInitialDistribution`] as in
    /// [`Self::new`].
    pub(crate) fn over_chain(
        mdp: &'a DiscountedMdp,
        chain: &'a ControlledMarkovChain,
        initial: &[f64],
    ) -> Result<Self, MdpError> {
        mdp.check_chain_shape(chain)?;
        validate_distribution(initial, mdp.num_states())?;
        Ok(OccupationLp {
            mdp,
            chain,
            initial: initial.to_vec(),
        })
    }

    /// Index of variable `x_{s,a}` in the flat LP variable vector.
    pub fn var_index(&self, state: usize, action: usize) -> usize {
        state * self.mdp.num_actions() + action
    }

    /// Row index of the `k`-th extra cost bound in the program built by
    /// [`Self::build`] — a **stable handle** for retargeting that bound
    /// through a [`SolveSession`](dpm_lp::SolveSession) without
    /// re-emitting the LP. The layout is fixed: `num_states − 1` balance
    /// rows, one normalization row, then the bound rows in the order the
    /// bounds were passed to `build`.
    pub fn bound_row(&self, k: usize) -> usize {
        self.mdp.num_states() + k
    }

    /// The LP right-hand side encoding a *total discounted* bound for an
    /// extra cost row: the program is posed over the normalized measure
    /// `y = (1−α)·x` (see [`Self::build`]), so bounds scale by `1−α` too.
    /// Pass the result to `SolveSession::set_rhs` at [`Self::bound_row`].
    pub fn bound_rhs(&self, bound: f64) -> f64 {
        (1.0 - self.mdp.discount()) * bound
    }

    /// Builds the LP2 program, optionally with extra total-discounted-cost
    /// bounds `Σ d_k(s,a) x_{s,a} ≤ bound_k` (turning it into LP3/LP4).
    ///
    /// The program is posed over the **normalized** occupation measure
    /// `y = (1−α)·x`, which sums to one; for the near-unity discounts the
    /// paper uses (e.g. α = 0.999999 for a 10⁶-slice horizon) the raw
    /// frequencies span five or six orders of magnitude and wreck the
    /// solver's pivot tolerances, while `y` stays perfectly scaled. The
    /// solution is rescaled back to `x` transparently in
    /// [`Self::solve_with_bounds`].
    ///
    /// Balance rows are emitted **sparsely** from the chain's transition
    /// structure (a state's row holds its own `m` action variables plus
    /// its actual in-flows), so the program's size scales with the number
    /// of nonzero transition probabilities — the representation
    /// `RevisedSimplex` exploits — rather than with `states²·actions`.
    ///
    /// # Errors
    ///
    /// [`MdpError::CostShapeMismatch`] when an extra cost matrix has the
    /// wrong shape; LP build errors are mapped through.
    pub fn build(&self, extra_bounds: &[(&Matrix, f64)]) -> Result<LinearProgram, MdpError> {
        self.build_with_lookahead(extra_bounds).map(|(lp, _)| lp)
    }

    /// [`Self::build`], plus the **lookahead policy** whose basis
    /// ([`Self::policy_basis`]) seeds the program's cold starts. For each
    /// state the policy takes the action minimizing
    ///
    /// ```text
    /// qb(s,a) = u(s,a) + α Σ_j P(j|s,a) · min_a' u(j,a'),   u = Σ_k d_k / b_k
    /// ```
    ///
    /// the bound usage one step ahead, each bound normalized by its
    /// value (a bound `b_k ≤ 0` gets weight 1). Ties within 1e-12
    /// relative go to the smallest `qc(s,a) = c(s,a) + α Σ_j P(j|s,a) ·
    /// min_a' c(j,a')`, then to the lowest action. Cheap bound usage
    /// keeps the policy inside the bound rows, so phase 1 has little or
    /// nothing to repair. The cost-lookahead tie-break matters as much:
    /// it lands the cold solve near the optimum, which later warm
    /// reloads start from. Both sums accumulate in the pass over the
    /// kernels' nonzeros that emits the balance rows.
    pub(crate) fn build_with_lookahead(
        &self,
        extra_bounds: &[(&Matrix, f64)],
    ) -> Result<(LinearProgram, DeterministicPolicy), MdpError> {
        let n = self.mdp.num_states();
        let m = self.mdp.num_actions();
        let alpha = self.mdp.discount();
        let scale = 1.0 - alpha;

        let mut c = vec![0.0; n * m];
        for s in 0..n {
            for a in 0..m {
                c[self.var_index(s, a)] = self.mdp.cost(s, a);
            }
        }
        let mut lp = LinearProgram::minimize(&c);

        // The lookahead policy's immediate terms: the normalized bound
        // usage u(s,a) and the cost c(s,a), both in variable order, and
        // their per-state minima.
        let mut usage = vec![0.0; n * m];
        for &(d, bound) in extra_bounds {
            if d.shape() != (n, m) {
                return Err(MdpError::CostShapeMismatch {
                    found: d.shape(),
                    expected: (n, m),
                });
            }
            let weight = if bound > 0.0 { 1.0 / bound } else { 1.0 };
            for (u, &v) in usage.iter_mut().zip(d.as_slice()) {
                *u += weight * v;
            }
        }
        let row_min = |row: &[f64]| row.iter().copied().fold(f64::INFINITY, f64::min);
        let state_min: Vec<(f64, f64)> = usage
            .chunks_exact(m)
            .zip(c.chunks_exact(m))
            .map(|(u, c)| (row_min(u), row_min(c)))
            .collect();
        let (mut qb, mut qc) = (usage, c);

        // Balance equations, one per state j, with the rhs scaled to the
        // normalized measure. The rows sum to `(1−α)·Σy = (1−α)`, i.e.
        // they *imply* the normalization `Σy = 1` — but only with a
        // coefficient of (1−α), so for long horizons tiny per-row
        // residuals can hide O(1) mass loss. We therefore replace the
        // first balance row with the explicit normalization row (the same
        // trick used to solve stationary-distribution systems), which
        // keeps the constraint set equivalent in exact arithmetic and
        // well-conditioned in floating point.
        //
        // The rows are emitted *sparsely*, straight from the controlled
        // chain's sparse kernels: one pass over their stored nonzeros
        // buckets every transition probability by destination state, so
        // row `j` carries exactly `m` diagonal entries plus `j`'s actual
        // in-flows — never the dense `n·m` width. (Diagonal self-loops
        // duplicate an index; the LP builder sums duplicates by contract.)
        // The same pass adds the lookahead terms to qb and qc.
        let mut inflows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for (a, kernel) in self.chain.kernels().iter().enumerate() {
            let lookahead = qb.iter_mut().zip(qc.iter_mut()).skip(a).step_by(m);
            for ((s, row), (qb, qc)) in kernel.rows().enumerate().zip(lookahead) {
                let (mut next_b, mut next_c) = (0.0, 0.0);
                for (j, p) in row.entries() {
                    inflows[j].push((self.var_index(s, a), -alpha * p));
                    let (usage_min, cost_min) = state_min[j];
                    next_b += p * usage_min;
                    next_c += p * cost_min;
                }
                *qb += alpha * next_b;
                *qc += alpha * next_c;
            }
        }
        for (j, mut inflow) in inflows.into_iter().enumerate().skip(1) {
            let mut row: Vec<(usize, f64)> = Vec::with_capacity(m + inflow.len());
            for a in 0..m {
                row.push((self.var_index(j, a), 1.0));
            }
            row.append(&mut inflow);
            lp.add_sparse_constraint(&row, ConstraintOp::Eq, scale * self.initial[j])?;
        }
        let norm_row = vec![1.0; n * m];
        lp.add_constraint(&norm_row, ConstraintOp::Eq, 1.0)?;

        // Extra discounted-cost bounds, scaled likewise; indicator-style
        // cost matrices (the common case) are themselves sparse.
        for &(d, bound) in extra_bounds {
            let row: Vec<(usize, f64)> = d
                .iter()
                .filter(|&(_, _, v)| v != 0.0)
                .map(|(s, a, v)| (self.var_index(s, a), v))
                .collect();
            lp.add_sparse_constraint(&row, ConstraintOp::Le, scale * bound)?;
        }

        let actions = qb
            .chunks_exact(m)
            .zip(qc.chunks_exact(m))
            .map(|(qb, qc)| {
                let best = qb.iter().copied().fold(f64::INFINITY, f64::min);
                let cut = best + LOOKAHEAD_TIE * best.abs();
                qb.iter()
                    .zip(qc)
                    .enumerate()
                    .filter(|&(_, (&b, _))| b <= cut)
                    .min_by(|(_, (_, x)), (_, (_, y))| x.total_cmp(y))
                    .map_or(0, |(a, _)| a)
            })
            .collect();
        Ok((lp, DeterministicPolicy::new(actions)))
    }

    /// The basis of a deterministic policy in the program [`Self::build`]
    /// emits with `num_bounds` bound rows, as a
    /// [`SolveSession::seed_basis`](dpm_lp::SolveSession::seed_basis)
    /// seed: balance row `j − 1` gets `x(j, π(j))`, the normalization row
    /// `x(0, π(0))`, and the bound rows keep their slacks (`None`).
    ///
    /// The balance part of this basis is `I − αP_πᵀ` with one row
    /// replaced by the normalization row, which is always nonsingular;
    /// it solves to the policy's normalized occupation measure, which is
    /// nonnegative. So the seed is primal feasible on the balance rows,
    /// and a cold start from it only has to repair the bound rows the
    /// policy violates.
    ///
    /// # Panics
    ///
    /// Panics when the policy does not cover exactly the MDP's states or
    /// prescribes an action out of range.
    pub fn policy_basis(
        &self,
        policy: &DeterministicPolicy,
        num_bounds: usize,
    ) -> Vec<Option<usize>> {
        let m = self.mdp.num_actions();
        assert_eq!(
            policy.num_states(),
            self.mdp.num_states(),
            "policy covers the wrong number of states"
        );
        assert!(
            policy.actions().iter().all(|&a| a < m),
            "policy action out of range ({m} actions)"
        );
        let column = |(s, &a): (usize, &usize)| Some(self.var_index(s, a));
        let mut basis: Vec<Option<usize>> = policy
            .actions()
            .iter()
            .enumerate()
            .skip(1)
            .map(column)
            .collect();
        basis.extend(policy.actions().iter().enumerate().take(1).map(column));
        basis.resize(basis.len() + num_bounds, None);
        basis
    }

    /// Solves the unconstrained LP2 with the given solver.
    ///
    /// # Errors
    ///
    /// Propagates LP failures ([`MdpError::Infeasible`] cannot occur for
    /// LP2 itself: the feasible set always contains the frequencies of any
    /// stationary policy).
    pub fn solve(&self, solver: &dyn LpSolver) -> Result<OccupationSolution, MdpError> {
        self.solve_with_bounds(solver, &[])
    }

    /// Solves with extra discounted-cost bounds (LP3/LP4).
    ///
    /// # Errors
    ///
    /// [`MdpError::Infeasible`] when the bounds cut off the whole feasible
    /// set; other LP failures are mapped through.
    pub fn solve_with_bounds(
        &self,
        solver: &dyn LpSolver,
        extra_bounds: &[(&Matrix, f64)],
    ) -> Result<OccupationSolution, MdpError> {
        let lp = self.build(extra_bounds)?;
        // Primary solve, with a cross-algorithm rescue: if the chosen
        // engine fails numerically (iteration limit, singular basis), the
        // other engine gets a chance before the error surfaces.
        // Infeasibility and unboundedness are exact verdicts and are not
        // second-guessed.
        let lp_solution = match solver.solve(&lp) {
            Ok(s) => s,
            Err(e @ (dpm_lp::LpError::Infeasible | dpm_lp::LpError::Unbounded)) => {
                return Err(e.into())
            }
            Err(_) => rescue_engine(solver.name()).solve(&lp)?,
        };
        let lp_solution = guard_violations(&lp, lp_solution)?;
        Ok(self.extract(&lp_solution))
    }

    /// Converts an optimal point of a program built by [`Self::build`]
    /// into an [`OccupationSolution`], rescaling the normalized measure
    /// `y = (1−α)·x` back to raw frequencies. Used by
    /// [`Self::solve_with_bounds`] and by the session-based re-solve path
    /// of [`ConstrainedMdp`](crate::ConstrainedMdp).
    pub fn extract(&self, lp_solution: &LpSolution) -> OccupationSolution {
        let n = self.mdp.num_states();
        let m = self.mdp.num_actions();
        let horizon = self.mdp.horizon();
        let mut frequencies = Matrix::zeros(n, m);
        for s in 0..n {
            for a in 0..m {
                // Interior-point iterates can carry tiny negative dust.
                // Not `f64::max`, which may keep the sign of a -0.0.
                let x = lp_solution.x()[self.var_index(s, a)];
                frequencies[(s, a)] = if x > 0.0 { horizon * x } else { 0.0 };
            }
        }
        OccupationSolution {
            frequencies,
            objective: horizon * lp_solution.objective(),
            iterations: lp_solution.iterations(),
            discount: self.mdp.discount(),
            cost: self.mdp.cost_matrix().clone(),
        }
    }
}

/// The engine tried when `failed` (by name) failed numerically: the two
/// simplex flavors fall back to interior point and vice versa.
pub(crate) fn rescue_engine(failed: &str) -> Box<dyn LpSolver> {
    if failed == "interior-point" {
        Box::new(dpm_lp::Simplex::new())
    } else {
        Box::new(dpm_lp::InteriorPoint::new())
    }
}

/// Guard against solver drift on ill-conditioned instances: the returned
/// point must actually satisfy the balance equations. If it does not,
/// rescue with the interior-point method (whose regularized normal
/// equations tolerate the conditioning), keeping whichever point is
/// cleaner; beyond `1e-4` the solve is rejected outright.
pub(crate) fn guard_violations(
    lp: &LinearProgram,
    mut lp_solution: LpSolution,
) -> Result<LpSolution, MdpError> {
    let violation = lp.max_violation(lp_solution.x());
    if violation > 1e-6 {
        if let Ok(rescue) = dpm_lp::InteriorPoint::new().solve(lp) {
            if lp.max_violation(rescue.x()) < violation {
                lp_solution = rescue;
            }
        }
        if lp.max_violation(lp_solution.x()) > 1e-4 {
            return Err(MdpError::Lp(dpm_lp::LpError::Numerical {
                reason: format!("occupation LP solution violates constraints by {violation:.2e}"),
            }));
        }
    }
    Ok(lp_solution)
}

/// A solved occupation-measure program: the state–action frequencies and
/// everything derivable from them.
#[derive(Debug, Clone)]
pub struct OccupationSolution {
    frequencies: Matrix,
    objective: f64,
    iterations: usize,
    discount: f64,
    cost: Matrix,
}

impl OccupationSolution {
    /// The state–action frequency matrix `x_{s,a}`.
    pub fn frequencies(&self) -> &Matrix {
        &self.frequencies
    }

    /// Optimal total expected discounted cost.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Optimal cost normalized per slice: `objective × (1 − α)`. This is
    /// the quantity the paper plots (e.g. Watts).
    pub fn objective_per_slice(&self) -> f64 {
        self.objective * (1.0 - self.discount)
    }

    /// LP iterations used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Total discounted visits `Σ_{s,a} x_{s,a}`; equals the horizon
    /// `1/(1−α)` for any feasible solution (sum of the balance equations).
    pub fn total_visits(&self) -> f64 {
        self.frequencies.as_slice().iter().sum()
    }

    /// Discounted state-visit frequencies `Σ_a x_{s,a}`.
    pub fn state_frequencies(&self) -> Vec<f64> {
        (0..self.frequencies.rows())
            .map(|s| self.frequencies.row(s).iter().sum())
            .collect()
    }

    /// Expected total discounted value of an arbitrary `states × actions`
    /// cost under the solved frequencies: `Σ d(s,a) x_{s,a}`.
    ///
    /// # Panics
    ///
    /// Panics when `d` has the wrong shape.
    pub fn expected_cost(&self, d: &Matrix) -> f64 {
        assert_eq!(d.shape(), self.frequencies.shape(), "cost shape mismatch");
        dpm_linalg::vector::dot(d.as_slice(), self.frequencies.as_slice())
    }

    /// Per-slice version of [`Self::expected_cost`].
    ///
    /// # Panics
    ///
    /// Panics when `d` has the wrong shape.
    pub fn expected_cost_per_slice(&self, d: &Matrix) -> f64 {
        self.expected_cost(d) * (1.0 - self.discount)
    }

    /// Extracts the optimal randomized Markov stationary policy by
    /// equation (16): `π(a|s) = x_{s,a} / Σ_a x_{s,a}`.
    ///
    /// States never visited under the optimal occupation measure
    /// (`Σ_a x_{s,a} = 0`) get the action with the smallest immediate
    /// cost — any choice there leaves the LP objective unchanged; the
    /// cheapest-cost tie-break keeps simulated trajectories sensible if
    /// sampling noise ever reaches such a state.
    pub fn policy(&self) -> RandomizedPolicy {
        let n = self.frequencies.rows();
        let m = self.frequencies.cols();
        let mut rows = Vec::with_capacity(n);
        for s in 0..n {
            let total: f64 = self.frequencies.row(s).iter().sum();
            if total > 1e-12 {
                let mut row: Vec<f64> =
                    self.frequencies.row(s).iter().map(|&v| v / total).collect();
                // Exact renormalization against division drift.
                let sum: f64 = row.iter().sum();
                for v in row.iter_mut() {
                    *v /= sum;
                }
                rows.push(row);
            } else {
                let best = (0..m)
                    .min_by(|&a, &b| self.cost[(s, a)].total_cmp(&self.cost[(s, b)]))
                    .expect("at least one action");
                let mut row = vec![0.0; m];
                row[best] = 1.0;
                rows.push(row);
            }
        }
        RandomizedPolicy::new(rows).expect("rows normalized by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_lp::{InteriorPoint, RevisedSimplex, Simplex};
    use dpm_markov::{ControlledMarkovChain, StochasticMatrix};

    fn escape_mdp(discount: f64) -> DiscountedMdp {
        let stay = StochasticMatrix::identity(2);
        let jump = StochasticMatrix::from_rows(&[&[0.0, 1.0], &[0.0, 1.0]]).unwrap();
        let chain = ControlledMarkovChain::new(vec![stay, jump]).unwrap();
        let cost = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 0.0]]).unwrap();
        DiscountedMdp::new(chain, cost, discount).unwrap()
    }

    #[test]
    fn lp_matches_value_iteration() {
        let mdp = escape_mdp(0.9);
        let (v, _) = mdp.value_iteration(1e-12, 100_000).unwrap();
        let q = [0.7, 0.3];
        let expected = 0.7 * v[0] + 0.3 * v[1];
        let sol = OccupationLp::new(&mdp, &q)
            .unwrap()
            .solve(&Simplex::new())
            .unwrap();
        assert!((sol.objective() - expected).abs() < 1e-7);
    }

    #[test]
    fn interior_point_agrees_with_simplex() {
        let mdp = escape_mdp(0.95);
        let lp = OccupationLp::new(&mdp, &[0.5, 0.5]).unwrap();
        let s1 = lp.solve(&Simplex::new()).unwrap();
        let s2 = lp.solve(&InteriorPoint::new()).unwrap();
        assert!((s1.objective() - s2.objective()).abs() < 1e-5);
    }

    #[test]
    fn revised_simplex_agrees_with_dense_tableau() {
        let mdp = escape_mdp(0.95);
        let lp = OccupationLp::new(&mdp, &[0.5, 0.5]).unwrap();
        let dense = lp.solve(&Simplex::new()).unwrap();
        let revised = lp.solve(&RevisedSimplex::new()).unwrap();
        assert!((dense.objective() - revised.objective()).abs() < 1e-6);
        assert!((revised.total_visits() - mdp.horizon()).abs() < 1e-6);
    }

    #[test]
    fn balance_rows_are_emitted_sparsely() {
        // The escape MDP transitions to at most 2 states per action, so
        // every balance row must stay far below the dense n·m width; only
        // the explicit normalization row is full.
        let mdp = escape_mdp(0.9);
        let lp = OccupationLp::new(&mdp, &[1.0, 0.0])
            .unwrap()
            .build(&[])
            .unwrap();
        let vars = lp.num_vars();
        let (norm_entries, _, _) = lp.constraint_entries(lp.num_constraints() - 1);
        assert_eq!(norm_entries.len(), vars);
        for i in 0..lp.num_constraints() - 1 {
            let (entries, _, _) = lp.constraint_entries(i);
            assert!(entries.len() < vars, "row {i} is dense");
        }
    }

    #[test]
    fn total_visits_equals_horizon() {
        let mdp = escape_mdp(0.9);
        let sol = OccupationLp::new(&mdp, &[1.0, 0.0])
            .unwrap()
            .solve(&Simplex::new())
            .unwrap();
        assert!((sol.total_visits() - mdp.horizon()).abs() < 1e-6);
    }

    #[test]
    fn extracted_policy_is_optimal_escape() {
        let mdp = escape_mdp(0.9);
        let sol = OccupationLp::new(&mdp, &[1.0, 0.0])
            .unwrap()
            .solve(&Simplex::new())
            .unwrap();
        let policy = sol.policy();
        // State 0 must jump (action 1). State 1 is visited with both
        // actions equivalent; mode is well-defined either way.
        assert!((policy.prob(0, 1) - 1.0).abs() < 1e-7);
        // Evaluating the extracted policy reproduces the LP objective.
        let value = mdp.policy_value(&policy, &[1.0, 0.0]).unwrap();
        assert!((value - sol.objective()).abs() < 1e-6);
    }

    #[test]
    fn per_slice_normalization() {
        let mdp = escape_mdp(0.9);
        let sol = OccupationLp::new(&mdp, &[1.0, 0.0])
            .unwrap()
            .solve(&Simplex::new())
            .unwrap();
        assert!((sol.objective_per_slice() - sol.objective() * 0.1).abs() < 1e-12);
    }

    #[test]
    fn expected_cost_of_indicator_counts_visits() {
        let mdp = escape_mdp(0.5);
        let sol = OccupationLp::new(&mdp, &[1.0, 0.0])
            .unwrap()
            .solve(&Simplex::new())
            .unwrap();
        // Indicator of state 0 (both actions): discounted visits to s0.
        let ind = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 0.0]]).unwrap();
        // Optimal escapes immediately: exactly 1 visit to s0 (the first
        // slice), so discounted count = 1.
        assert!((sol.expected_cost(&ind) - 1.0).abs() < 1e-7);
        let states = sol.state_frequencies();
        assert!((states[0] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn rejects_bad_initial_distribution() {
        let mdp = escape_mdp(0.9);
        assert!(OccupationLp::new(&mdp, &[0.5]).is_err());
        assert!(OccupationLp::new(&mdp, &[0.9, 0.3]).is_err());
        assert!(OccupationLp::new(&mdp, &[-0.5, 1.5]).is_err());
    }

    #[test]
    fn unvisited_state_gets_cheapest_action() {
        // Start fully in state 1 (absorbing under both actions); state 0
        // never visited. Its fallback action must be the cheaper one.
        let stay = StochasticMatrix::identity(2);
        let jump = StochasticMatrix::from_rows(&[&[0.0, 1.0], &[0.0, 1.0]]).unwrap();
        let chain = ControlledMarkovChain::new(vec![stay, jump]).unwrap();
        let cost = Matrix::from_rows(&[&[5.0, 2.0], &[0.0, 0.0]]).unwrap();
        let mdp = DiscountedMdp::new(chain, cost, 0.9).unwrap();
        let sol = OccupationLp::new(&mdp, &[0.0, 1.0])
            .unwrap()
            .solve(&Simplex::new())
            .unwrap();
        let policy = sol.policy();
        assert_eq!(policy.decision(0), &[0.0, 1.0]);
    }
}
