use dpm_linalg::Matrix;
use dpm_lp::{
    LinearProgram, LpError, LpSolver, ReloadKind, SolveBudget, SolveReport, SolveSession,
};
use dpm_markov::ControlledMarkovChain;

use crate::mdp::validate_distribution;
use crate::occupation::{guard_violations, rescue_engine};
use crate::{DiscountedMdp, MdpError, OccupationLp, RandomizedPolicy};

/// A bound on the total expected discounted value of a secondary cost —
/// one row of the paper's LP3/LP4 beyond the balance equations.
///
/// The paper's instances:
/// * **power bound** (LP3): `Σ p(s,a) x_{s,a} ≤ P`,
/// * **performance bound** (LP4): `Σ d(s,a) x_{s,a} ≤ D`,
/// * **request-loss bound**: indicator cost of "SR issues a request while
///   the queue is full", bounded by `L`.
///
/// Bounds are on *total discounted* values; use
/// [`Self::per_slice`] to specify the per-slice bound the paper's prose
/// uses (e.g. "average queue length ≤ 0.5" becomes `0.5 / (1 − α)`).
#[derive(Debug, Clone)]
pub struct CostConstraint {
    name: String,
    cost: Matrix,
    bound: f64,
}

impl CostConstraint {
    /// A bound on the total discounted cost.
    pub fn new(name: impl Into<String>, cost: Matrix, bound: f64) -> Self {
        CostConstraint {
            name: name.into(),
            cost,
            bound,
        }
    }

    /// A bound expressed per slice (the paper's convention): internally
    /// multiplied by the horizon `1/(1−α)`.
    pub fn per_slice(
        name: impl Into<String>,
        cost: Matrix,
        bound_per_slice: f64,
        discount: f64,
    ) -> Self {
        Self::new(name, cost, bound_per_slice / (1.0 - discount))
    }

    /// The constraint's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The secondary cost matrix.
    pub fn cost(&self) -> &Matrix {
        &self.cost
    }

    /// The bound on the total discounted cost.
    pub fn bound(&self) -> f64 {
        self.bound
    }
}

/// A discounted MDP with secondary-cost constraints — the paper's
/// constrained policy-optimization problems **PO1/PO2** in their LP form
/// **LP3/LP4**.
///
/// Solving yields a randomized stationary Markov policy; by Theorem A.2 it
/// is deterministic exactly when no constraint is active at the optimum.
///
/// # Example
///
/// ```
/// use dpm_linalg::Matrix;
/// use dpm_lp::Simplex;
/// use dpm_markov::{ControlledMarkovChain, StochasticMatrix};
/// use dpm_mdp::{ConstrainedMdp, CostConstraint, DiscountedMdp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Minimize power subject to a performance bound.
/// let sleep = StochasticMatrix::from_rows(&[&[0.2, 0.8], &[0.0, 1.0]])?;
/// let wake = StochasticMatrix::from_rows(&[&[1.0, 0.0], &[0.5, 0.5]])?;
/// let chain = ControlledMarkovChain::new(vec![wake, sleep])?;
/// let power = Matrix::from_rows(&[&[2.0, 2.5], &[2.5, 0.0]])?;
/// let penalty = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]])?;
/// let mdp = DiscountedMdp::new(chain, power, 0.95)?;
/// let solution = ConstrainedMdp::new(mdp)
///     .with_constraint(CostConstraint::per_slice("penalty", penalty, 0.4, 0.95))
///     .solve(&[1.0, 0.0], &Simplex::new())?;
/// assert!(solution.constraint_value_per_slice(0) <= 0.4 + 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ConstrainedMdp {
    mdp: DiscountedMdp,
    constraints: Vec<CostConstraint>,
}

impl ConstrainedMdp {
    /// Wraps an MDP with no constraints yet.
    pub fn new(mdp: DiscountedMdp) -> Self {
        ConstrainedMdp {
            mdp,
            constraints: Vec::new(),
        }
    }

    /// Adds a secondary-cost bound (builder style).
    ///
    /// # Panics
    ///
    /// Panics when the constraint's cost matrix shape differs from the
    /// MDP's `(states, actions)` — a programming error, caught eagerly.
    pub fn with_constraint(mut self, constraint: CostConstraint) -> Self {
        assert_eq!(
            constraint.cost.shape(),
            (self.mdp.num_states(), self.mdp.num_actions()),
            "constraint `{}` cost matrix shape mismatch",
            constraint.name
        );
        self.constraints.push(constraint);
        self
    }

    /// The wrapped MDP.
    pub fn mdp(&self) -> &DiscountedMdp {
        &self.mdp
    }

    /// The registered constraints.
    pub fn constraints(&self) -> &[CostConstraint] {
        &self.constraints
    }

    /// Row index of constraint `k` in the occupation LP emitted for this
    /// problem — the **stable row handle** a solve session retargets (see
    /// [`OccupationLp::bound_row`]; constraints keep the order they were
    /// registered with [`Self::with_constraint`]).
    pub fn constraint_row(&self, k: usize) -> usize {
        self.mdp.num_states() + k
    }

    /// Solves LP3/LP4 from the given initial distribution.
    ///
    /// # Errors
    ///
    /// * [`MdpError::Infeasible`] when no policy meets all bounds — the
    ///   paper's `g(C) = +∞`.
    /// * Propagated LP/linalg failures.
    pub fn solve(
        &self,
        initial: &[f64],
        solver: &dyn LpSolver,
    ) -> Result<ConstrainedSolution, MdpError> {
        validate_distribution(initial, self.mdp.num_states())?;
        let lp = OccupationLp::new(&self.mdp, initial)?;
        let bounds: Vec<(&Matrix, f64)> = self
            .constraints
            .iter()
            .map(|c| (&c.cost, c.bound))
            .collect();
        let occ = lp.solve_with_bounds(solver, &bounds)?;
        let bounds: Vec<f64> = self.constraints.iter().map(|c| c.bound).collect();
        Ok(self.assemble(occ, &bounds))
    }

    /// Builds the occupation LP **once** and loads it into a solver
    /// session for repeated parametric re-solves: the returned
    /// [`ConstrainedSession`] owns this problem and can retarget any
    /// registered bound ([`ConstrainedSession::set_bound`]) and re-solve
    /// — warm-started when the engine supports it — without re-emitting
    /// balance rows or cost rows.
    ///
    /// The session's cold starts are seeded
    /// ([`SolveSession::seed_basis`]) with the basis of a cheap lookahead
    /// policy ([`OccupationLp::policy_basis`]), which is primal feasible
    /// on the balance rows: the first solve skips phase 1, or repairs
    /// only the bound rows that policy violates.
    ///
    /// # Errors
    ///
    /// * [`MdpError::InvalidInitialDistribution`] for a bad `initial`.
    /// * Propagated LP build/session failures. Note that *solving* errors
    ///   (including infeasibility) surface from
    ///   [`ConstrainedSession::solve`], not from here.
    pub fn into_session(
        self,
        initial: &[f64],
        solver: &dyn LpSolver,
    ) -> Result<ConstrainedSession, MdpError> {
        validate_distribution(initial, self.mdp.num_states())?;
        let bounds: Vec<f64> = self.constraints.iter().map(|c| c.bound).collect();
        let occupation = OccupationLp::new(&self.mdp, initial)?;
        let (lp, seed) = seeded_program(&occupation, &self.constraints, &bounds)?;
        let mut session = solver.start(&lp)?;
        session.seed_basis(&seed)?;
        Ok(ConstrainedSession {
            bounds,
            problem: self,
            initial: initial.to_vec(),
            lp,
            last: session.last_report().clone(),
            session,
            solver_name: solver.name(),
            cached: None,
            extractions: 0,
        })
    }

    /// Assembles a [`ConstrainedSolution`] from a solved occupation
    /// measure and the bounds that were in force for that solve.
    fn assemble(&self, occ: crate::OccupationSolution, bounds: &[f64]) -> ConstrainedSolution {
        let constraint_values = self
            .constraints
            .iter()
            .map(|c| occ.expected_cost(&c.cost))
            .collect();
        let policy = occ.policy();
        ConstrainedSolution {
            policy,
            objective: occ.objective(),
            constraint_values,
            bounds: bounds.to_vec(),
            names: self.constraints.iter().map(|c| c.name.clone()).collect(),
            discount: self.mdp.discount(),
            occupation: occ,
        }
    }
}

/// Emits `occupation`'s program under `constraints` with `bounds`
/// (total discounted, one per constraint) together with the basis of its
/// lookahead policy — the seed of the session's cold starts (see
/// [`OccupationLp::policy_basis`]).
fn seeded_program(
    occupation: &OccupationLp<'_>,
    constraints: &[CostConstraint],
    bounds: &[f64],
) -> Result<(LinearProgram, Vec<Option<usize>>), MdpError> {
    let rows: Vec<(&Matrix, f64)> = constraints
        .iter()
        .zip(bounds)
        .map(|(c, &bound)| (&c.cost, bound))
        .collect();
    let (lp, policy) = occupation.build_with_lookahead(&rows)?;
    let seed = occupation.policy_basis(&policy, rows.len());
    Ok((lp, seed))
}

/// A constrained MDP loaded into a solver session: one LP emission, then
/// arbitrarily many parametric re-solves.
///
/// Created by [`ConstrainedMdp::into_session`]. This is the engine room
/// of Pareto sweeps: between sweep points only a single bound row's
/// right-hand side changes, so a warm-capable engine
/// ([`RevisedSimplex`](dpm_lp::RevisedSimplex)) re-solves by a handful of
/// dual simplex pivots from the previous optimal basis instead of a full
/// cold solve. Every solve also returns the engine's [`SolveReport`].
///
/// The session keeps the numerical safety nets of
/// [`OccupationLp::solve_with_bounds`]: cross-engine rescue on numerical
/// failure and the balance-equation violation guard.
#[derive(Debug)]
pub struct ConstrainedSession {
    problem: ConstrainedMdp,
    initial: Vec<f64>,
    /// Mirror of the emitted LP, kept in sync with bound changes — used
    /// for the violation guard and as the rescue engines' input.
    lp: LinearProgram,
    session: Box<dyn SolveSession>,
    /// Current total-discounted bounds, one per registered constraint.
    bounds: Vec<f64>,
    solver_name: &'static str,
    /// Report of the most recent solve attempt through *any* path —
    /// including the cross-engine rescue, whose report the inner
    /// session never sees.
    last: SolveReport,
    /// Memoized policy extraction: when a re-solve reports the same
    /// basis signature under the same bounds, the previous solution is
    /// reused instead of re-running equation (16).
    cached: Option<ExtractionCache>,
    /// How many times equation (16) extraction actually ran.
    extractions: usize,
}

/// The memoized product of one policy extraction, keyed by the basis
/// signature and bounds it was produced under.
#[derive(Debug)]
struct ExtractionCache {
    signature: u64,
    bounds: Vec<f64>,
    solution: ConstrainedSolution,
}

impl ConstrainedSession {
    /// Clones this session into an independent sibling: same problem,
    /// bounds and (for warm-capable engines) the same optimal basis —
    /// forked through [`SolveSession::fork`], so a revised-simplex
    /// sibling shares the `Arc`'d symbolic LU analysis and its first
    /// same-shape refit skips the Markowitz search entirely. Mutations
    /// ([`Self::set_bound`], [`Self::update_model`]) on either side
    /// never affect the other. The extraction memo starts empty.
    ///
    /// This is the fleet primitive: build one session per LP *shape*,
    /// fork it per cluster.
    ///
    /// # Errors
    ///
    /// Propagated engine failures from the inner session fork.
    pub fn fork(&self) -> Result<ConstrainedSession, MdpError> {
        Ok(ConstrainedSession {
            problem: self.problem.clone(),
            initial: self.initial.clone(),
            lp: self.lp.clone(),
            session: self.session.fork()?,
            bounds: self.bounds.clone(),
            solver_name: self.solver_name,
            last: self.last.clone(),
            cached: None,
            extractions: 0,
        })
    }

    /// The wrapped constrained problem (cost matrices, names, the MDP).
    pub fn problem(&self) -> &ConstrainedMdp {
        &self.problem
    }

    /// The current total-discounted bound of constraint `k`.
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of range.
    pub fn bound(&self, k: usize) -> f64 {
        self.bounds[k]
    }

    /// Retargets constraint `k` to a new **total discounted** bound,
    /// updating the loaded LP in place (one rhs write, no re-emission).
    ///
    /// # Errors
    ///
    /// [`MdpError::CostShapeMismatch`]-style index errors surface as the
    /// LP layer's `BadConstraint`; an out-of-range `k` is reported
    /// directly.
    pub fn set_bound(&mut self, k: usize, bound: f64) -> Result<(), MdpError> {
        if k >= self.bounds.len() {
            return Err(MdpError::Lp(LpError::BadConstraint {
                found: k,
                expected: self.bounds.len(),
            }));
        }
        let row = self.problem.constraint_row(k);
        let rhs = (1.0 - self.problem.mdp.discount()) * bound;
        self.session.set_rhs(row, rhs)?;
        self.lp.set_rhs(row, rhs)?;
        self.bounds[k] = bound;
        Ok(())
    }

    /// Retargets constraint `k` to a new **per-slice** bound (the paper's
    /// convention): internally multiplied by the horizon `1/(1−α)`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::set_bound`].
    pub fn set_bound_per_slice(&mut self, k: usize, bound_per_slice: f64) -> Result<(), MdpError> {
        let discount = self.problem.mdp.discount();
        self.set_bound(k, bound_per_slice / (1.0 - discount))
    }

    /// Swaps in a re-estimated transition structure of the same
    /// dimensions and rebuilds the occupation LP **in place** through
    /// [`SolveSession::reload`] — the per-epoch mutation of an online
    /// adaptation loop. The cost matrices, bounds (including any
    /// retargeted through [`Self::set_bound`]), discount and initial
    /// distribution all carry over; row handles
    /// ([`ConstrainedMdp::constraint_row`]) stay valid because the
    /// emitted program has the same layout.
    ///
    /// Because only balance-row *coefficients* move (the sparsity
    /// pattern of a chain whose support does not change is stable), a
    /// warm-capable engine keeps its optimal basis across the swap and
    /// the next [`Self::solve`] repairs feasibility in a handful of
    /// pivots — [`ReloadKind::Warm`]. A support change (transitions
    /// appearing or vanishing) alters the pattern and degrades to a
    /// correct cold rebuild ([`ReloadKind::Cold`]), which is re-seeded
    /// with the new model's lookahead-policy basis.
    ///
    /// The equation-(16) extraction memo is invalidated: a basis
    /// signature only identifies a solution *within* one model version.
    ///
    /// # Errors
    ///
    /// * [`MdpError::CostShapeMismatch`] when the chain's dimensions
    ///   differ from the loaded problem's.
    /// * Propagated LP build/reload failures — the session keeps the
    ///   previous model intact on any failure (the swap is staged and
    ///   only committed after the reload succeeds).
    pub fn update_model(&mut self, chain: &ControlledMarkovChain) -> Result<ReloadKind, MdpError> {
        // Stage the program from the borrowed chain so a failure anywhere
        // leaves the session fully consistent (mdp, mirror LP and loaded
        // program all still describe the old model); the chain is
        // stored, once, only after the reload succeeded.
        let occupation = OccupationLp::over_chain(&self.problem.mdp, chain, &self.initial)?;
        let (lp, seed) = seeded_program(&occupation, &self.problem.constraints, &self.bounds)?;
        let kind = self.session.reload(&lp)?;
        self.problem.mdp.replace_chain(chain.clone())?;
        self.lp = lp;
        // Basis signatures do not span model versions: the same basic
        // set now encodes different frequencies.
        self.cached = None;
        if kind == ReloadKind::Cold {
            self.session.seed_basis(&seed)?;
        }
        Ok(kind)
    }

    /// Re-solves the loaded problem under the current bounds, returning
    /// the solution together with the engine's [`SolveReport`] (warm vs
    /// cold, pivots, refactorizations).
    ///
    /// Policy extraction (equation (16)) is **memoized on the engine's
    /// basis signature**: when a re-solve ends at the same basis under
    /// the same bounds — duplicate sweep points, or a bound moved within
    /// the region where it stays inactive *and* back — the previous
    /// solution is returned without re-running the extraction pipeline
    /// (see [`Self::extraction_count`]).
    ///
    /// # Errors
    ///
    /// * [`MdpError::Infeasible`] when the current bounds admit no policy
    ///   (the session stays usable; relax a bound and re-solve).
    /// * Propagated LP failures after the rescue nets are exhausted.
    pub fn solve(&mut self) -> Result<(ConstrainedSolution, SolveReport), MdpError> {
        let (lp_solution, report) = match self.session.solve() {
            Ok(solved) => solved,
            Err(e @ (LpError::Infeasible | LpError::Unbounded)) => {
                self.last = self.session.last_report().clone();
                return Err(e.into());
            }
            Err(e @ LpError::BudgetExhausted { .. }) => {
                // A budget ([`Self::set_budget`]) is the caller's own
                // work cap: rescuing with an unbudgeted cross-engine
                // cold solve would defeat it. The session keeps its
                // partial basis, so a re-budgeted retry resumes there.
                self.last = self.session.last_report().clone();
                return Err(e.into());
            }
            Err(_) => {
                // Same cross-engine rescue as the one-shot path; the
                // rescue runs a cold session on the mirror LP so its
                // outcome — including an infeasibility certificate —
                // is reported faithfully.
                let rescue = rescue_engine(self.solver_name);
                let mut rescue_session = rescue.start(&self.lp)?;
                match rescue_session.solve() {
                    Ok(solved) => solved,
                    Err(e) => {
                        self.last = rescue_session.last_report().clone();
                        return Err(e.into());
                    }
                }
            }
        };
        self.last = report.clone();
        // Memoization: an identical basis under identical bounds (the
        // balance rows never move through this API) pins the whole
        // solution — skip the guard + extraction + equation (16).
        if report.basis_signature != 0 {
            if let Some(cache) = &self.cached {
                if cache.signature == report.basis_signature && cache.bounds == self.bounds {
                    return Ok((cache.solution.clone(), report));
                }
            }
        }
        let lp_solution = guard_violations(&self.lp, lp_solution)?;
        let occ = OccupationLp::new(self.problem.mdp(), &self.initial)?.extract(&lp_solution);
        let solution = self.problem.assemble(occ, &self.bounds);
        self.extractions += 1;
        if report.basis_signature != 0 {
            self.cached = Some(ExtractionCache {
                signature: report.basis_signature,
                bounds: self.bounds.clone(),
                solution: solution.clone(),
            });
        }
        Ok((solution, report))
    }

    /// How many times policy extraction (equation (16) plus the
    /// constraint-value accounting) actually ran — re-solves that hit the
    /// basis-signature memo return the cached solution and do not count.
    pub fn extraction_count(&self) -> usize {
        self.extractions
    }

    /// Report of the most recent solve attempt (successful or not),
    /// whichever engine made it — the loaded session's, or the rescue
    /// engine's when the cross-engine net had to catch a numerical
    /// failure. Infeasible sweep points carry their certificate kind
    /// here.
    pub fn last_report(&self) -> &SolveReport {
        &self.last
    }

    /// Caps the work of every subsequent [`Self::solve`] with a
    /// [`SolveBudget`], passed through to the loaded engine session.
    /// Exhaustion surfaces as [`LpError::BudgetExhausted`] *without*
    /// engaging the cross-engine rescue — the budget is the caller's
    /// policy, and the session keeps its partial basis so a re-budgeted
    /// retry resumes instead of restarting. Engines without budget
    /// support ignore the call (see [`SolveSession::set_budget`]).
    pub fn set_budget(&mut self, budget: SolveBudget) {
        self.session.set_budget(budget);
    }

    /// Asks the loaded engine to refactorize its retained basis from
    /// pristine data before the next solve — the escalation-ladder rung
    /// between a plain warm retry and a full cold rebuild. No-op on
    /// engines without retained factors.
    pub fn force_refactor(&mut self) {
        self.session.force_refactor();
    }
}

/// A solved constrained policy-optimization problem.
#[derive(Debug, Clone)]
pub struct ConstrainedSolution {
    policy: RandomizedPolicy,
    objective: f64,
    constraint_values: Vec<f64>,
    bounds: Vec<f64>,
    names: Vec<String>,
    discount: f64,
    occupation: crate::OccupationSolution,
}

impl ConstrainedSolution {
    /// The optimal (possibly randomized) policy — equation (16).
    pub fn policy(&self) -> &RandomizedPolicy {
        &self.policy
    }

    /// Optimal total expected discounted objective cost.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Optimal objective per slice (the paper's plotted quantity).
    pub fn objective_per_slice(&self) -> f64 {
        self.objective * (1.0 - self.discount)
    }

    /// Achieved total discounted value of constraint `k`.
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of range.
    pub fn constraint_value(&self, k: usize) -> f64 {
        self.constraint_values[k]
    }

    /// Achieved per-slice value of constraint `k`.
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of range.
    pub fn constraint_value_per_slice(&self, k: usize) -> f64 {
        self.constraint_values[k] * (1.0 - self.discount)
    }

    /// `true` when constraint `k` is tight at the optimum (within `tol`,
    /// relative to the bound's magnitude). Active constraints are what make
    /// optimal policies randomized (Theorem A.2).
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of range.
    pub fn is_constraint_active(&self, k: usize, tol: f64) -> bool {
        let scale = self.bounds[k].abs().max(1.0);
        (self.bounds[k] - self.constraint_values[k]).abs() <= tol * scale
    }

    /// Name of constraint `k`.
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of range.
    pub fn constraint_name(&self, k: usize) -> &str {
        &self.names[k]
    }

    /// Number of constraints in the solved problem.
    pub fn num_constraints(&self) -> usize {
        self.bounds.len()
    }

    /// The underlying occupation-measure solution (state–action
    /// frequencies and derived quantities).
    pub fn occupation(&self) -> &crate::OccupationSolution {
        &self.occupation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_lp::{InteriorPoint, Simplex};
    use dpm_markov::{ControlledMarkovChain, StochasticMatrix};

    /// A power-managed resource in miniature: state 0 = on (costly),
    /// state 1 = sleeping (free but penalized). Action 0 keeps/wakes,
    /// action 1 puts/keeps asleep.
    fn mini_dpm(discount: f64) -> DiscountedMdp {
        let wake = StochasticMatrix::from_rows(&[&[1.0, 0.0], &[0.5, 0.5]]).unwrap();
        let sleep = StochasticMatrix::from_rows(&[&[0.2, 0.8], &[0.0, 1.0]]).unwrap();
        let chain = ControlledMarkovChain::new(vec![wake, sleep]).unwrap();
        let power = Matrix::from_rows(&[&[2.0, 2.5], &[2.5, 0.0]]).unwrap();
        DiscountedMdp::new(chain, power, discount).unwrap()
    }

    fn penalty_matrix() -> Matrix {
        // Penalize being asleep (performance loss proxy).
        Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]).unwrap()
    }

    #[test]
    fn unconstrained_is_deterministic() {
        let solution = ConstrainedMdp::new(mini_dpm(0.95))
            .solve(&[1.0, 0.0], &Simplex::new())
            .unwrap();
        assert!(solution.policy().is_deterministic());
        assert_eq!(solution.num_constraints(), 0);
        // Unconstrained optimum: sleep forever (power → small).
        assert!(solution.objective_per_slice() < 1.0);
    }

    #[test]
    fn active_constraint_makes_policy_randomized() {
        let discount = 0.95;
        // Bound the sleep fraction to 40% per slice: forces a mix.
        let solution = ConstrainedMdp::new(mini_dpm(discount))
            .with_constraint(CostConstraint::per_slice(
                "sleep fraction",
                penalty_matrix(),
                0.4,
                discount,
            ))
            .solve(&[1.0, 0.0], &Simplex::new())
            .unwrap();
        assert!(solution.is_constraint_active(0, 1e-6));
        assert!(!solution.policy().is_deterministic());
        assert!(!solution.policy().randomized_states().is_empty());
        assert!((solution.constraint_value_per_slice(0) - 0.4).abs() < 1e-6);
    }

    #[test]
    fn inactive_constraint_changes_nothing() {
        let discount = 0.95;
        let unconstrained = ConstrainedMdp::new(mini_dpm(discount))
            .solve(&[1.0, 0.0], &Simplex::new())
            .unwrap();
        let loose = ConstrainedMdp::new(mini_dpm(discount))
            .with_constraint(CostConstraint::per_slice(
                "loose",
                penalty_matrix(),
                2.0, // sleep fraction can never exceed 1
                discount,
            ))
            .solve(&[1.0, 0.0], &Simplex::new())
            .unwrap();
        assert!(!loose.is_constraint_active(0, 1e-6));
        assert!((loose.objective() - unconstrained.objective()).abs() < 1e-6);
        assert!(loose.policy().is_deterministic());
    }

    #[test]
    fn infeasible_bounds_are_reported() {
        let discount = 0.9;
        let err = ConstrainedMdp::new(mini_dpm(discount))
            .with_constraint(CostConstraint::new(
                "impossible",
                Matrix::filled(2, 2, 1.0), // every slice costs 1 → total = horizon
                1.0,                       // but bound is 1 < 10
            ))
            .solve(&[1.0, 0.0], &Simplex::new())
            .unwrap_err();
        assert_eq!(err, MdpError::Infeasible);
    }

    #[test]
    fn tightening_the_bound_weakly_increases_power() {
        // Theorem 4.1 (convexity) implies monotonicity of the optimum in
        // the bound; check the monotone part on a sweep.
        let discount = 0.95;
        let mut last = f64::NEG_INFINITY;
        for bound in [0.8, 0.6, 0.4, 0.2, 0.1] {
            let solution = ConstrainedMdp::new(mini_dpm(discount))
                .with_constraint(CostConstraint::per_slice(
                    "sleep fraction",
                    penalty_matrix(),
                    bound,
                    discount,
                ))
                .solve(&[1.0, 0.0], &Simplex::new())
                .unwrap();
            let power = solution.objective_per_slice();
            assert!(
                power >= last - 1e-7,
                "power must not decrease as the bound tightens"
            );
            last = power;
        }
    }

    #[test]
    fn solvers_agree_on_constrained_problem() {
        let discount = 0.9;
        let build = || {
            ConstrainedMdp::new(mini_dpm(discount)).with_constraint(CostConstraint::per_slice(
                "sleep fraction",
                penalty_matrix(),
                0.3,
                discount,
            ))
        };
        let s1 = build().solve(&[1.0, 0.0], &Simplex::new()).unwrap();
        let s2 = build().solve(&[1.0, 0.0], &InteriorPoint::new()).unwrap();
        assert!((s1.objective() - s2.objective()).abs() < 1e-4);
    }

    #[test]
    fn extracted_policy_meets_constraint_exactly() {
        // Evaluate the extracted randomized policy with the exact
        // policy-evaluation machinery and confirm the LP's promised
        // constraint value — the paper's consistency check between
        // optimizer and model.
        let discount = 0.95;
        let mdp = mini_dpm(discount);
        let penalty = penalty_matrix();
        let solution = ConstrainedMdp::new(mini_dpm(discount))
            .with_constraint(CostConstraint::per_slice(
                "sleep fraction",
                penalty.clone(),
                0.4,
                discount,
            ))
            .solve(&[1.0, 0.0], &Simplex::new())
            .unwrap();
        // Build an MDP whose "cost" is the penalty, evaluate the policy.
        let penalty_mdp = DiscountedMdp::new(mdp.chain().clone(), penalty, discount).unwrap();
        let achieved = penalty_mdp
            .policy_value(solution.policy(), &[1.0, 0.0])
            .unwrap();
        assert!((achieved - solution.constraint_value(0)).abs() < 1e-5);
        // And the power objective agrees too.
        let power_value = mdp.policy_value(solution.policy(), &[1.0, 0.0]).unwrap();
        assert!((power_value - solution.objective()).abs() < 1e-5);
    }

    #[test]
    fn session_sweep_matches_one_shot_solves() {
        // A bound sweep through one warm session must reproduce the
        // independent one-shot solves point for point.
        let discount = 0.95;
        let build = |bound: f64| {
            ConstrainedMdp::new(mini_dpm(discount)).with_constraint(CostConstraint::per_slice(
                "sleep fraction",
                penalty_matrix(),
                bound,
                discount,
            ))
        };
        let mut session = build(0.8)
            .into_session(&[1.0, 0.0], &dpm_lp::RevisedSimplex::new())
            .unwrap();
        for (i, bound) in [0.8, 0.6, 0.4, 0.2, 0.6].into_iter().enumerate() {
            session.set_bound_per_slice(0, bound).unwrap();
            let (warm, report) = session.solve().unwrap();
            let cold = build(bound).solve(&[1.0, 0.0], &Simplex::new()).unwrap();
            assert!(
                (warm.objective() - cold.objective()).abs() < 1e-6,
                "bound {bound}: warm {} vs cold {}",
                warm.objective(),
                cold.objective()
            );
            assert_eq!(report.warm_start, i > 0, "bound {bound}");
        }
    }

    #[test]
    fn session_reports_infeasibility_and_recovers() {
        let discount = 0.9;
        let session_src = ConstrainedMdp::new(mini_dpm(discount)).with_constraint(
            CostConstraint::new("impossible", Matrix::filled(2, 2, 1.0), 20.0),
        );
        let mut session = session_src
            .into_session(&[1.0, 0.0], &dpm_lp::RevisedSimplex::new())
            .unwrap();
        // Every slice costs 1, so the total is exactly the horizon (10);
        // bound 20 is slack, bound 1 is impossible.
        let (ok, _) = session.solve().unwrap();
        assert!((ok.occupation().total_visits() - 10.0).abs() < 1e-6);
        session.set_bound(0, 1.0).unwrap();
        assert_eq!(session.solve().unwrap_err(), MdpError::Infeasible);
        assert!(session.last_report().infeasibility.is_some());
        session.set_bound(0, 15.0).unwrap();
        let (recovered, _) = session.solve().unwrap();
        assert!((recovered.objective() - ok.objective()).abs() < 1e-6);
        assert_eq!(session.bound(0), 15.0);
    }

    #[test]
    fn duplicate_bounds_memoize_extraction() {
        // Re-solving at an unchanged (or re-set-to-identical) bound ends
        // at the same basis, so equation (16) must run exactly once for
        // the repeated points — the ROADMAP memoization item.
        let discount = 0.95;
        let mut session = ConstrainedMdp::new(mini_dpm(discount))
            .with_constraint(CostConstraint::per_slice(
                "sleep fraction",
                penalty_matrix(),
                0.4,
                discount,
            ))
            .into_session(&[1.0, 0.0], &dpm_lp::RevisedSimplex::new())
            .unwrap();
        let (first, report) = session.solve().unwrap();
        assert_ne!(report.basis_signature, 0, "revised simplex signs its basis");
        assert_eq!(session.extraction_count(), 1);
        // Same model, solved again: memo hit.
        let (again, _) = session.solve().unwrap();
        assert_eq!(
            session.extraction_count(),
            1,
            "unchanged model re-extracted"
        );
        assert_eq!(first.objective(), again.objective());
        // Bound re-set to the same value: still a memo hit.
        session.set_bound_per_slice(0, 0.4).unwrap();
        let (dup, _) = session.solve().unwrap();
        assert_eq!(
            session.extraction_count(),
            1,
            "duplicate bound re-extracted"
        );
        assert_eq!(first.objective(), dup.objective());
        assert_eq!(
            first.policy().decision(0),
            dup.policy().decision(0),
            "memoized policy must be the extracted one"
        );
        // A genuinely different bound must re-extract.
        session.set_bound_per_slice(0, 0.2).unwrap();
        let (tighter, _) = session.solve().unwrap();
        assert_eq!(session.extraction_count(), 2);
        assert!(tighter.objective() > first.objective());
        assert!((tighter.bounds[0] - session.bound(0)).abs() < 1e-12);
    }

    /// A same-support variant of [`mini_dpm`]'s chain with drifted
    /// probabilities — what a per-epoch re-estimate looks like.
    fn drifted_chain(wake_stay: f64, sleep_leave: f64) -> ControlledMarkovChain {
        let wake =
            StochasticMatrix::from_rows(&[&[1.0, 0.0], &[wake_stay, 1.0 - wake_stay]]).unwrap();
        let sleep =
            StochasticMatrix::from_rows(&[&[1.0 - sleep_leave, sleep_leave], &[0.0, 1.0]]).unwrap();
        ControlledMarkovChain::new(vec![wake, sleep]).unwrap()
    }

    #[test]
    fn update_model_reloads_warm_and_matches_cold() {
        let discount = 0.95;
        let mut session = ConstrainedMdp::new(mini_dpm(discount))
            .with_constraint(CostConstraint::per_slice(
                "sleep fraction",
                penalty_matrix(),
                0.4,
                discount,
            ))
            .into_session(&[1.0, 0.0], &dpm_lp::RevisedSimplex::new())
            .unwrap();
        session.solve().unwrap();
        for (i, (wake_stay, sleep_leave)) in [(0.45, 0.75), (0.55, 0.82), (0.5, 0.8)]
            .into_iter()
            .enumerate()
        {
            let chain = drifted_chain(wake_stay, sleep_leave);
            let kind = session.update_model(&chain).unwrap();
            assert_eq!(kind, ReloadKind::Warm, "epoch {i}");
            let (warm, report) = session.solve().unwrap();
            assert!(report.warm_start, "epoch {i}");
            // Independent cold reference on a freshly built problem.
            let power = Matrix::from_rows(&[&[2.0, 2.5], &[2.5, 0.0]]).unwrap();
            let mdp = DiscountedMdp::new(chain, power, discount).unwrap();
            let cold = ConstrainedMdp::new(mdp)
                .with_constraint(CostConstraint::per_slice(
                    "sleep fraction",
                    penalty_matrix(),
                    0.4,
                    discount,
                ))
                .solve(&[1.0, 0.0], &dpm_lp::Simplex::new())
                .unwrap();
            assert!(
                (warm.objective() - cold.objective()).abs() < 1e-6,
                "epoch {i}: warm {} vs cold {}",
                warm.objective(),
                cold.objective()
            );
        }
    }

    #[test]
    fn update_model_keeps_retargeted_bounds_and_memo_coherent() {
        let discount = 0.95;
        let mut session = ConstrainedMdp::new(mini_dpm(discount))
            .with_constraint(CostConstraint::per_slice(
                "sleep fraction",
                penalty_matrix(),
                0.8,
                discount,
            ))
            .into_session(&[1.0, 0.0], &dpm_lp::RevisedSimplex::new())
            .unwrap();
        session.set_bound_per_slice(0, 0.3).unwrap();
        let (before, _) = session.solve().unwrap();
        assert_eq!(session.extraction_count(), 1);
        let chain = drifted_chain(0.35, 0.65);
        session.update_model(&chain).unwrap();
        // The retargeted (not the construction-time) bound is in force.
        let (after, _) = session.solve().unwrap();
        assert!(after.constraint_value_per_slice(0) <= 0.3 + 1e-6);
        // Even if the optimal basis happens to coincide across model
        // versions, the memo must have been dropped: extraction ran again.
        assert_eq!(session.extraction_count(), 2);
        // Values differ because the model differs.
        assert!((before.objective() - after.objective()).abs() > 1e-9);
    }

    #[test]
    fn update_model_rejects_wrong_dimensions() {
        let discount = 0.9;
        let mut session = ConstrainedMdp::new(mini_dpm(discount))
            .into_session(&[1.0, 0.0], &dpm_lp::RevisedSimplex::new())
            .unwrap();
        // 2 actions expected, 1 provided.
        let chain = ControlledMarkovChain::new(vec![StochasticMatrix::identity(2)]).unwrap();
        assert!(matches!(
            session.update_model(&chain).unwrap_err(),
            MdpError::CostShapeMismatch { .. }
        ));
        // The session still solves after the rejected update.
        assert!(session.solve().is_ok());
    }

    #[test]
    fn constraint_rows_are_stable_handles() {
        let discount = 0.9;
        let cmdp = ConstrainedMdp::new(mini_dpm(discount))
            .with_constraint(CostConstraint::per_slice(
                "a",
                penalty_matrix(),
                0.5,
                discount,
            ))
            .with_constraint(CostConstraint::per_slice(
                "b",
                penalty_matrix(),
                0.7,
                discount,
            ));
        // 2 states: 1 balance row + 1 normalization row, then the bounds.
        assert_eq!(cmdp.constraint_row(0), 2);
        assert_eq!(cmdp.constraint_row(1), 3);
        // The handle agrees with the occupation layer's and with the
        // actual emitted program.
        let occupation = OccupationLp::new(cmdp.mdp(), &[1.0, 0.0]).unwrap();
        assert_eq!(occupation.bound_row(0), cmdp.constraint_row(0));
        let binding = penalty_matrix();
        let lp = occupation
            .build(&[(&binding, 5.0), (&binding, 7.0)])
            .unwrap();
        assert_eq!(lp.num_constraints(), 4);
        let (_, op, rhs) = lp.constraint_entries(occupation.bound_row(1));
        assert_eq!(op, dpm_lp::ConstraintOp::Le);
        assert!((rhs - occupation.bound_rhs(7.0)).abs() < 1e-12);
    }

    #[test]
    fn constraint_metadata_is_exposed() {
        let discount = 0.9;
        let solution = ConstrainedMdp::new(mini_dpm(discount))
            .with_constraint(CostConstraint::per_slice(
                "sleepiness",
                penalty_matrix(),
                0.5,
                discount,
            ))
            .solve(&[1.0, 0.0], &Simplex::new())
            .unwrap();
        assert_eq!(solution.constraint_name(0), "sleepiness");
        assert_eq!(solution.num_constraints(), 1);
        assert!(solution.occupation().total_visits() > 0.0);
    }
}
