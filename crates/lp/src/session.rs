//! Stateful solve sessions: load a program once, mutate it parametrically,
//! re-solve cheaply.
//!
//! The paper's tradeoff curves are produced "by repeatedly solving the LP
//! with different performance constraints" — a sequence of problems that
//! differ in a *single right-hand side*. A [`SolveSession`] makes that
//! workflow first-class: [`LpSolver::start`](crate::LpSolver::start) loads
//! the program into a session that owns the standard-form data, the
//! session's [`set_rhs`](SolveSession::set_rhs) retargets one bound in
//! place, [`reload`](SolveSession::reload) swaps in a drifted program
//! (new coefficients, costs or bounds), and
//! [`solve`](SolveSession::solve) re-optimizes —
//! warm-starting from the previous optimal basis when the engine supports
//! it ([`RevisedSimplex`](crate::RevisedSimplex) does; the dense engines
//! fall back to correct cold re-solves). Every solve returns a
//! [`SolveReport`] describing how the answer was reached.

use crate::{LinearProgram, LpError, LpSolution, LpSolver};

/// What kind of evidence backed an [`LpError::Infeasible`] verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum InfeasibilityCertificate {
    /// A phase-1 simplex finished with a positive artificial-variable
    /// optimum: an exact certificate (the final duals form a Farkas ray).
    Phase1PositiveOptimum,
    /// The dual simplex found a constraint row that no nonbasic column can
    /// repair — a dual ray along which the dual objective is unbounded.
    /// This is the warm-start path's certificate when a parametric
    /// right-hand-side change leaves the feasible region.
    DualRay,
    /// An interior-point iterate diverged while primal infeasibility
    /// refused to fall — a heuristic verdict, not an exact certificate
    /// (see the [`InteriorPoint`](crate::InteriorPoint) docs).
    DivergingIterates,
}

impl std::fmt::Display for InfeasibilityCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InfeasibilityCertificate::Phase1PositiveOptimum => write!(f, "phase-1 optimum > 0"),
            InfeasibilityCertificate::DualRay => write!(f, "dual ray"),
            InfeasibilityCertificate::DivergingIterates => write!(f, "diverging iterates"),
        }
    }
}

/// Why a [`SolveSession::solve`] call stopped — the structured
/// termination reason retained on [`SolveReport`] for successful *and*
/// failed solves, so supervising layers (retry ladders, fleet
/// controllers) can branch on what happened without parsing error
/// strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Termination {
    /// The solve reached a proven optimum. The default of a fresh report.
    #[default]
    Optimal,
    /// A [`SolveBudget`] ran out mid-solve ([`LpError::BudgetExhausted`]):
    /// the model may well be solvable, the session just was not allowed
    /// to spend more effort on it this call.
    BudgetExhausted,
    /// The solve failed algorithmically — a singular basis, an iteration
    /// limit, non-finite intermediate values. Retrying (after a forced
    /// refactorization or a cold rebuild) may succeed.
    NumericalTrouble,
    /// The loaded model is infeasible ([`LpError::Infeasible`]); the
    /// certificate kind is in [`SolveReport::infeasibility`]. Retrying
    /// the identical model cannot help.
    Infeasible,
    /// The objective is unbounded on the feasible region
    /// ([`LpError::Unbounded`]) — like infeasibility, a property of the
    /// model, not of the solve.
    Unbounded,
}

impl Termination {
    /// The termination reason a failed solve's error maps to.
    pub(crate) fn of_error(e: &LpError) -> Termination {
        match e {
            LpError::Infeasible => Termination::Infeasible,
            LpError::Unbounded => Termination::Unbounded,
            LpError::BudgetExhausted { .. } => Termination::BudgetExhausted,
            _ => Termination::NumericalTrouble,
        }
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Termination::Optimal => write!(f, "optimal"),
            Termination::BudgetExhausted => write!(f, "budget exhausted"),
            Termination::NumericalTrouble => write!(f, "numerical trouble"),
            Termination::Infeasible => write!(f, "infeasible"),
            Termination::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// A per-solve effort ceiling: how many pivots and refactorizations one
/// [`SolveSession::solve`] call may spend before it stops with
/// [`LpError::BudgetExhausted`] (termination reason
/// [`Termination::BudgetExhausted`]).
///
/// The budget covers the **whole call**, including any internal warm →
/// cold fallback: a warm attempt that burns the pivot budget does not
/// buy the cold retry a fresh allowance. A solve that needs no further
/// pivots (the retained basis is already optimal) succeeds even at a
/// zero budget. `None` fields are unlimited; [`SolveBudget::UNLIMITED`]
/// (the default) never interferes. The revised-simplex sessions check
/// the ceilings before each pivot: a budget of `n` pivots performs at
/// most `n`, and no pivot starts once `max_refactorizations` are spent.
///
/// This is the fault-containment primitive of the adaptive runtime: a
/// numerically wedged LP cannot stall an epoch — the solve stops at the
/// budget and the supervising retry ladder decides what to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SolveBudget {
    /// Maximum simplex pivots per solve call (primal and dual combined),
    /// or `None` for unlimited.
    pub max_pivots: Option<usize>,
    /// Maximum basis refactorizations per solve call, or `None` for
    /// unlimited.
    pub max_refactorizations: Option<usize>,
}

impl SolveBudget {
    /// No limits — the default; budget checks cost nothing.
    pub const UNLIMITED: SolveBudget = SolveBudget {
        max_pivots: None,
        max_refactorizations: None,
    };

    /// A budget bounding pivots only.
    pub fn pivots(max: usize) -> Self {
        SolveBudget {
            max_pivots: Some(max),
            max_refactorizations: None,
        }
    }

    /// `true` when neither dimension is bounded.
    pub fn is_unlimited(&self) -> bool {
        self.max_pivots.is_none() && self.max_refactorizations.is_none()
    }
}

/// How a [`SolveSession::reload`] call re-provisioned the session — the
/// contract the online-adaptation loop builds on.
///
/// * [`Warm`](ReloadKind::Warm): the new program has the **same shape**
///   as the loaded one (variable count, orientation, per-row relational
///   operators and sparsity pattern), so a warm-capable engine kept its
///   optimal basis, refactorized the *new* coefficients through the
///   retained factorization path, and will repair primal/dual feasibility
///   on the next [`solve`](SolveSession::solve) (dual simplex / warm
///   phase 2). This is what makes per-epoch model drift — changed
///   balance-row *coefficients*, not just right-hand sides — warm instead
///   of cold.
/// * [`Cold`](ReloadKind::Cold): the shape differs (or the engine has no
///   warm machinery), so the session dropped any retained state and the
///   next solve runs cold from scratch.
///
/// `ReloadKind` reports the *intent* at reload time; the next solve's
/// [`SolveReport::warm_start`] reports what actually happened (a warm
/// reload can still fall back to cold on numerical trouble).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReloadKind {
    /// Same-shape reload: the optimal basis was retained and the next
    /// solve repairs feasibility from it.
    Warm,
    /// The session starts over; the next solve is a cold solve of the new
    /// program.
    Cold,
}

impl std::fmt::Display for ReloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadKind::Warm => write!(f, "warm"),
            ReloadKind::Cold => write!(f, "cold"),
        }
    }
}

/// How a [`SolveSession::solve`] call reached its answer.
///
/// Returned alongside every session solution and retained (including for
/// *failed* solves) in [`SolveSession::last_report`], so sweep drivers can
/// record per-point solver effort — the warm-vs-cold accounting the
/// `pareto_sweep` benchmark tracks. Counters are **per solve**: each call
/// reports its own deltas, never lifetime session totals (see
/// `docs/SOLVERS.md` for the full field semantics).
///
/// The pricing counters expose what the entering-column rule paid for the
/// answer — partial pricing shows up as far fewer
/// [`pricing_candidates`](Self::pricing_candidates) per pivot than a
/// full-scan rule would need:
///
/// ```
/// use dpm_lp::{ConstraintOp, LinearProgram, LpSolver, RevisedSimplex};
///
/// # fn main() -> Result<(), dpm_lp::LpError> {
/// let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
/// lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 4.0)?;
/// lp.add_constraint(&[0.0, 2.0], ConstraintOp::Le, 12.0)?;
/// lp.add_constraint(&[3.0, 2.0], ConstraintOp::Le, 18.0)?;
/// let mut session = RevisedSimplex::new().start(&lp)?;
/// let (_, report) = session.solve()?;
/// // Devex (the default) priced some columns to find its pivots ...
/// assert!(report.pricing_candidates > 0);
/// // ... and this tiny well-scaled program never drifted the weights.
/// assert_eq!(report.devex_resets, 0);
///
/// // An already-optimal warm re-solve prices once and pivots zero times.
/// let (_, warm) = session.solve()?;
/// assert!(warm.warm_start);
/// assert_eq!(warm.iterations, 0);
/// assert!(warm.pricing_candidates > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Engine that produced the answer (`"revised-simplex"`, ...).
    pub engine: &'static str,
    /// `true` when the solve reused the previous optimal basis
    /// (parametric warm start) instead of starting from scratch.
    pub warm_start: bool,
    /// Pivots (simplex family) or Newton steps (interior point) spent.
    pub iterations: usize,
    /// Basis refactorizations performed (0 for engines without a
    /// factorized basis).
    pub refactorizations: usize,
    /// In-place basis updates absorbed between refactorizations —
    /// Forrest–Tomlin factor repairs for
    /// [`RevisedSimplex`](crate::RevisedSimplex), 0 for engines without a
    /// factorized basis.
    pub basis_updates: usize,
    /// **Peak** fill-in of the basis factorization during this solve:
    /// the most nonzeros the factors held beyond the basis matrix's own,
    /// measured after every refactorization and every in-place factor
    /// update. A gauge, not a total (0 for engines without a sparse
    /// factorization).
    pub fill_in_nnz: usize,
    /// Columns *priced* during this solve — reduced-cost evaluations
    /// across primal pricing passes, devex candidate-list rebuilds and
    /// dual-simplex ratio tests (0 for engines without pricing). The
    /// work-per-pivot gauge of the pricing rules: full-scan rules pay
    /// roughly `nonbasic columns × pivots`, devex partial pricing a small
    /// fraction of that.
    pub pricing_candidates: usize,
    /// How many times devex pricing reset its reference framework because
    /// the weights drifted past the trust limit. Always 0 under
    /// [`PricingRule::Dantzig`](crate::PricingRule::Dantzig) /
    /// [`PricingRule::Bland`](crate::PricingRule::Bland) and for engines
    /// without pricing; occasional resets under devex are normal on
    /// ill-scaled programs, not a failure.
    pub devex_resets: usize,
    /// Basis refactorizations during this solve (and the reload leading
    /// into it) that **reused a shared symbolic analysis** — the fixed
    /// Markowitz pivot order of an earlier shape-identical factorization
    /// — instead of re-running the Markowitz search. Nonzero exactly when
    /// the session skipped symbolic work: warm reloads refactorizing
    /// drifted coefficients on an unchanged basis, and sessions created
    /// by [`SolveSession::fork`] refactorizing their inherited basis.
    /// Always 0 for engines without a sparse factorized basis.
    pub symbolic_reuse: usize,
    /// Order-independent hash of the optimal basic column set, or 0 when
    /// the engine does not expose a basis. Two solves of the same loaded
    /// program that report the same nonzero signature ended at the same
    /// basis — downstream layers use this to memoize work derived from
    /// the solution (e.g. policy extraction) across duplicate sweep
    /// points.
    pub basis_signature: u64,
    /// Set when the solve returned [`LpError::Infeasible`]: what kind of
    /// certificate backed the verdict. `None` on success.
    pub infeasibility: Option<InfeasibilityCertificate>,
    /// Why the solve stopped — [`Termination::Optimal`] on success, the
    /// matching structured reason on failure. Retained (like the rest of
    /// the report) through [`SolveSession::last_report`], so supervisors
    /// can branch on budget exhaustion vs numerical trouble vs a genuine
    /// infeasibility verdict.
    pub termination: Termination,
}

impl SolveReport {
    /// A fresh report for a solve about to run on `engine`.
    pub(crate) fn new(engine: &'static str) -> Self {
        SolveReport {
            engine,
            warm_start: false,
            iterations: 0,
            refactorizations: 0,
            basis_updates: 0,
            pricing_candidates: 0,
            devex_resets: 0,
            fill_in_nnz: 0,
            symbolic_reuse: 0,
            basis_signature: 0,
            infeasibility: None,
            termination: Termination::Optimal,
        }
    }
}

/// A loaded linear program that can be mutated and re-solved.
///
/// Created by [`LpSolver::start`](crate::LpSolver::start). The session
/// owns a copy of the program: mutations never touch the caller's
/// [`LinearProgram`], and the session stays valid after the caller drops
/// theirs. Row indices are the 0-based order in which constraints were
/// added to the builder — a stable handle for parametric sweeps.
///
/// # Example
///
/// ```
/// use dpm_lp::{ConstraintOp, LinearProgram, LpSolver, RevisedSimplex};
///
/// # fn main() -> Result<(), dpm_lp::LpError> {
/// let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
/// lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 4.0)?;
/// lp.add_constraint(&[0.0, 2.0], ConstraintOp::Le, 12.0)?;
/// lp.add_constraint(&[3.0, 2.0], ConstraintOp::Le, 18.0)?;
/// let mut session = RevisedSimplex::new().start(&lp)?;
/// let (first, report) = session.solve()?;
/// assert!((first.objective() - 36.0).abs() < 1e-9);
/// assert!(!report.warm_start); // nothing to warm-start from yet
///
/// // Tighten one bound and re-solve from the previous basis.
/// session.set_rhs(2, 15.0)?;
/// let (second, report) = session.solve()?;
/// assert!((second.objective() - 33.0).abs() < 1e-9);
/// assert!(report.warm_start);
/// # Ok(())
/// # }
/// ```
pub trait SolveSession: std::fmt::Debug + Send {
    /// Replaces the right-hand side of constraint `row` (0-based, in the
    /// order constraints were added).
    ///
    /// # Errors
    ///
    /// * [`LpError::BadConstraint`] when `row` is out of range.
    /// * [`LpError::NonFiniteInput`] when `rhs` is NaN/∞.
    fn set_rhs(&mut self, row: usize, rhs: f64) -> Result<(), LpError>;

    /// Replaces the loaded program wholesale — coefficients, objective,
    /// right-hand sides, everything — keeping warm-start state when the
    /// new program is **shape-identical** to the loaded one (same
    /// variable count and orientation, same constraint count, same
    /// relational operator *and* sparsity pattern per row).
    ///
    /// This is the parametric mutation one level up from
    /// [`set_rhs`](Self::set_rhs): where that moves a single number,
    /// `reload` re-provisions the whole model — the re-estimated
    /// occupation LP of an online adaptation epoch, say, or the same
    /// program under new costs — without re-running
    /// [`LpSolver::start`]. Warm-capable
    /// engines ([`RevisedSimplex`](crate::RevisedSimplex)) keep their
    /// optimal basis across a shape-identical reload, refactorize the new
    /// coefficients through the retained sparse-LU path, and repair
    /// feasibility and optimality on the next [`solve`](Self::solve);
    /// engines without warm machinery simply swap the program. The
    /// returned [`ReloadKind`] says which happened.
    ///
    /// # Errors
    ///
    /// Propagates [`LinearProgram::validate`] failures; the previously
    /// loaded program stays in place when validation fails. Numerical
    /// trouble while re-provisioning a warm engine is **not** an error —
    /// the session degrades to [`ReloadKind::Cold`].
    fn reload(&mut self, lp: &LinearProgram) -> Result<ReloadKind, LpError>;

    /// Solves the currently loaded model, warm-starting when possible.
    ///
    /// # Errors
    ///
    /// Same contract as [`LpSolver::solve`](crate::LpSolver::solve); the
    /// report of a failed solve (including the infeasibility certificate
    /// kind) remains readable through [`Self::last_report`]. A session
    /// stays usable after [`LpError::Infeasible`] — later mutations can
    /// re-enter the feasible region.
    fn solve(&mut self) -> Result<(LpSolution, SolveReport), LpError>;

    /// Clones the session into an independent sibling: same loaded
    /// program (including every mutation applied so far) and the same
    /// warm-start state, so the fork continues exactly where the parent
    /// stands — the parent is not consumed and both sessions evolve
    /// independently afterward.
    ///
    /// For [`RevisedSimplex`](crate::RevisedSimplex) the fork also
    /// shares the parent basis's `Arc`'d **symbolic LU analysis**: the
    /// fork's next refactorization of a shape-identical basis reuses the
    /// parent's Markowitz pivot order in `O(nnz)` numeric work (counted
    /// in [`SolveReport::symbolic_reuse`]). This is what makes
    /// fleet-style fan-out cheap — load one session per LP shape, fork
    /// it per cluster, and pay for one symbolic analysis total.
    ///
    /// # Errors
    ///
    /// Engine-specific failures while re-provisioning internal state;
    /// the in-tree engines never fail here.
    fn fork(&self) -> Result<Box<dyn SolveSession>, LpError>;

    /// Report of the most recent [`Self::solve`] call, successful or not.
    /// Before the first solve this is an all-zero cold report.
    fn last_report(&self) -> &SolveReport;

    /// Name of the engine backing the session.
    fn engine_name(&self) -> &'static str;

    /// Installs a per-call effort ceiling on every subsequent
    /// [`Self::solve`] (see [`SolveBudget`]). Engines without budget
    /// machinery ignore it — the default implementation is a no-op, so
    /// a budget is a *bound*, never a guarantee of enforcement; the
    /// warm-capable [`RevisedSimplex`](crate::RevisedSimplex) sessions
    /// enforce it exactly.
    fn set_budget(&mut self, budget: SolveBudget) {
        let _ = budget;
    }

    /// Requests that the next [`Self::solve`] refactorize the basis from
    /// pristine columns before pivoting, flushing accumulated update
    /// roundoff — the "forced refactorization" rung of a numerical-
    /// recovery ladder. A no-op for engines without a factorized basis
    /// (the default implementation), and harmless when the factors are
    /// already fresh.
    fn force_refactor(&mut self) {}

    /// Seeds the basis of the session's cold starts: `columns` holds one
    /// entry per constraint row, the original-variable column to place in
    /// that row's basis slot, or `None` to keep the row's slack or
    /// artificial. A seed built from a deterministic policy's
    /// state–action columns is primal feasible on an occupation LP's
    /// balance rows, so phase 1 is skipped, or shrinks to the rows the
    /// seed violates.
    ///
    /// Cold starts are the first solve, a solve after a
    /// [`ReloadKind::Cold`] reload, and the fallback after a failed warm
    /// attempt; warm re-solves ignore the seed. A seed that leaves the
    /// basis singular, or a seeded column negative, is dropped at the
    /// cold start for the plain start, so a seed never changes a verdict,
    /// only the path to it. The seed survives [`fork`](Self::fork) and
    /// same-shape reloads, and a reload to a program it no longer fits
    /// clears it. An all-`None` seed restores the plain start.
    ///
    /// The default implementation is a no-op: engines without a basis
    /// ignore seeds. [`RevisedSimplex`](crate::RevisedSimplex) sessions
    /// honor them.
    ///
    /// # Errors
    ///
    /// [`LpError::BadConstraint`] when `columns` does not hold exactly one
    /// entry per constraint row, or names a column that is not one of the
    /// program's variables. The previous seed then stays in place.
    fn seed_basis(&mut self, columns: &[Option<usize>]) -> Result<(), LpError> {
        let _ = columns;
        Ok(())
    }
}

/// `true` when `next` has the same standard-form shape as `loaded`:
/// identical variable count and orientation, identical constraint count,
/// and per row an identical relational operator and sparsity pattern
/// (entry indices; the coefficient *values* are free to differ). Under
/// these conditions the standard forms share their slack layout and
/// compressed-column structure, so a retained basis remains structurally
/// valid — the precondition for [`ReloadKind::Warm`].
pub(crate) fn same_shape(loaded: &crate::LinearProgram, next: &crate::LinearProgram) -> bool {
    if loaded.num_vars() != next.num_vars()
        || loaded.is_maximize() != next.is_maximize()
        || loaded.num_constraints() != next.num_constraints()
    {
        return false;
    }
    (0..loaded.num_constraints()).all(|i| {
        let (a, op_a, _) = loaded.constraint_entries(i);
        let (b, op_b, _) = next.constraint_entries(i);
        op_a == op_b && a.len() == b.len() && a.iter().zip(b).all(|(&(j, _), &(k, _))| j == k)
    })
}

/// A correct-but-stateless session for engines without warm-start support:
/// mutations are applied to the owned program and every [`solve`] is a
/// fresh cold solve through the wrapped engine.
///
/// [`solve`]: SolveSession::solve
#[derive(Debug, Clone)]
pub(crate) struct ColdSession<S: LpSolver + Clone + Send + 'static> {
    engine: S,
    lp: LinearProgram,
    infeasibility_kind: InfeasibilityCertificate,
    report: SolveReport,
}

impl<S: LpSolver + Clone + Send + 'static> ColdSession<S> {
    /// Wraps `engine` around its own copy of `lp`. `infeasibility_kind`
    /// is the certificate this engine's `Infeasible` verdicts carry.
    pub(crate) fn new(
        engine: &S,
        lp: &LinearProgram,
        infeasibility_kind: InfeasibilityCertificate,
    ) -> Result<Self, LpError> {
        lp.validate()?;
        Ok(ColdSession {
            engine: engine.clone(),
            lp: lp.clone(),
            infeasibility_kind,
            report: SolveReport::new(engine.name()),
        })
    }
}

impl<S: LpSolver + Clone + Send + 'static> SolveSession for ColdSession<S> {
    fn set_rhs(&mut self, row: usize, rhs: f64) -> Result<(), LpError> {
        self.lp.set_rhs(row, rhs)?;
        Ok(())
    }

    fn reload(&mut self, lp: &LinearProgram) -> Result<ReloadKind, LpError> {
        lp.validate()?;
        self.lp = lp.clone();
        Ok(ReloadKind::Cold)
    }

    fn solve(&mut self) -> Result<(LpSolution, SolveReport), LpError> {
        let mut report = SolveReport::new(self.engine.name());
        match self.engine.solve(&self.lp) {
            Ok(solution) => {
                report.iterations = solution.iterations();
                self.report = report.clone();
                Ok((solution, report))
            }
            Err(e) => {
                if e == LpError::Infeasible {
                    report.infeasibility = Some(self.infeasibility_kind);
                }
                report.termination = Termination::of_error(&e);
                self.report = report;
                Err(e)
            }
        }
    }

    fn fork(&self) -> Result<Box<dyn SolveSession>, LpError> {
        Ok(Box::new(self.clone()))
    }

    fn last_report(&self) -> &SolveReport {
        &self.report
    }

    fn engine_name(&self) -> &'static str {
        self.engine.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintOp, InteriorPoint, Simplex};

    fn furniture() -> LinearProgram {
        let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 4.0)
            .unwrap();
        lp.add_constraint(&[0.0, 2.0], ConstraintOp::Le, 12.0)
            .unwrap();
        lp.add_constraint(&[3.0, 2.0], ConstraintOp::Le, 18.0)
            .unwrap();
        lp
    }

    #[test]
    fn cold_sessions_track_rhs_mutations() {
        let lp = furniture();
        for solver in [
            Box::new(Simplex::new()) as Box<dyn LpSolver>,
            Box::new(InteriorPoint::new()),
        ] {
            let mut session = solver.start(&lp).unwrap();
            let (first, report) = session.solve().unwrap();
            assert!((first.objective() - 36.0).abs() < 1e-6, "{}", solver.name());
            assert!(!report.warm_start);
            assert!(report.iterations > 0);
            session.set_rhs(2, 15.0).unwrap();
            let (second, _) = session.solve().unwrap();
            assert!(
                (second.objective() - 33.0).abs() < 1e-6,
                "{}: {}",
                solver.name(),
                second.objective()
            );
        }
    }

    /// The furniture program under the costs `c`.
    fn furniture_costing(c: &[f64]) -> LinearProgram {
        let base = furniture();
        let mut lp = LinearProgram::maximize(c);
        for i in 0..base.num_constraints() {
            let (entries, op, rhs) = base.constraint_entries(i);
            lp.add_sparse_constraint(entries, op, rhs).unwrap();
        }
        lp
    }

    #[test]
    fn cold_session_objective_reload() {
        let mut session = Simplex::new().start(&furniture()).unwrap();
        session.solve().unwrap();
        let kind = session.reload(&furniture_costing(&[5.0, 3.0])).unwrap();
        assert_eq!(kind, ReloadKind::Cold);
        let (solution, _) = session.solve().unwrap();
        // max 5x + 3y under the same constraints: x = 4, y = 3.
        assert!((solution.objective() - 29.0).abs() < 1e-9);
    }

    #[test]
    fn cold_session_reports_infeasibility_kind() {
        let mut lp = LinearProgram::minimize(&[1.0]);
        lp.add_constraint(&[1.0], ConstraintOp::Le, 1.0).unwrap();
        lp.add_constraint(&[1.0], ConstraintOp::Ge, 2.0).unwrap();
        let mut session = Simplex::new().start(&lp).unwrap();
        assert_eq!(session.solve().unwrap_err(), LpError::Infeasible);
        assert_eq!(
            session.last_report().infeasibility,
            Some(InfeasibilityCertificate::Phase1PositiveOptimum)
        );
        assert_eq!(session.last_report().termination, Termination::Infeasible);
        // The session survives: relaxing the bound makes it feasible.
        session.set_rhs(1, 0.5).unwrap();
        let (solution, report) = session.solve().unwrap();
        assert!((solution.objective() - 0.5).abs() < 1e-9);
        assert_eq!(report.infeasibility, None);
        assert_eq!(report.termination, Termination::Optimal);
    }

    #[test]
    fn cold_session_reload_swaps_the_program() {
        let mut session = Simplex::new().start(&furniture()).unwrap();
        session.solve().unwrap();
        let mut other = LinearProgram::maximize(&[1.0, 4.0]);
        other
            .add_constraint(&[1.0, 1.0], ConstraintOp::Le, 3.0)
            .unwrap();
        assert_eq!(session.reload(&other).unwrap(), ReloadKind::Cold);
        let (solution, report) = session.solve().unwrap();
        assert!(!report.warm_start);
        assert!((solution.objective() - 12.0).abs() < 1e-9);
        // An invalid program is rejected and the loaded one survives.
        assert_eq!(
            session.reload(&LinearProgram::minimize(&[])).unwrap_err(),
            LpError::EmptyProblem
        );
        let (again, _) = session.solve().unwrap();
        assert!((again.objective() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn same_shape_compares_structure_not_values() {
        let a = furniture();
        // Same pattern, different coefficients/rhs/objective: same shape.
        let mut b = LinearProgram::maximize(&[1.0, 1.0]);
        b.add_constraint(&[2.0, 0.0], ConstraintOp::Le, 1.0)
            .unwrap();
        b.add_constraint(&[0.0, 5.0], ConstraintOp::Le, 2.0)
            .unwrap();
        b.add_constraint(&[1.0, 9.0], ConstraintOp::Le, 3.0)
            .unwrap();
        assert!(same_shape(&a, &b));
        // A changed relational operator breaks the shape.
        let mut c = b.clone();
        c.add_constraint(&[1.0, 0.0], ConstraintOp::Ge, 0.0)
            .unwrap();
        assert!(!same_shape(&a, &c));
        // A changed sparsity pattern breaks the shape.
        let mut d = LinearProgram::maximize(&[1.0, 1.0]);
        d.add_constraint(&[2.0, 1.0], ConstraintOp::Le, 1.0)
            .unwrap();
        d.add_constraint(&[0.0, 5.0], ConstraintOp::Le, 2.0)
            .unwrap();
        d.add_constraint(&[1.0, 9.0], ConstraintOp::Le, 3.0)
            .unwrap();
        assert!(!same_shape(&a, &d));
        // Orientation matters.
        let mut e = LinearProgram::minimize(&[1.0, 1.0]);
        e.add_constraint(&[2.0, 0.0], ConstraintOp::Le, 1.0)
            .unwrap();
        e.add_constraint(&[0.0, 5.0], ConstraintOp::Le, 2.0)
            .unwrap();
        e.add_constraint(&[1.0, 9.0], ConstraintOp::Le, 3.0)
            .unwrap();
        assert!(!same_shape(&a, &e));
    }

    #[test]
    fn session_mutation_validation() {
        let mut session = Simplex::new().start(&furniture()).unwrap();
        assert!(session.set_rhs(99, 1.0).is_err());
        assert_eq!(
            session.set_rhs(0, f64::NAN).unwrap_err(),
            LpError::NonFiniteInput
        );
        // A non-finite objective is refused by the reload's validation,
        // and the loaded program survives.
        assert_eq!(
            session
                .reload(&furniture_costing(&[1.0, f64::INFINITY]))
                .unwrap_err(),
            LpError::NonFiniteInput
        );
        let (solution, _) = session.solve().unwrap();
        assert!((solution.objective() - 36.0).abs() < 1e-9);
    }

    #[test]
    fn default_trait_solve_goes_through_a_session() {
        // A custom LpSolver that only implements `start` gets `solve` for
        // free through the default shim.
        #[derive(Debug, Clone)]
        struct Delegating;
        impl LpSolver for Delegating {
            fn start(&self, lp: &LinearProgram) -> Result<Box<dyn SolveSession>, LpError> {
                Simplex::new().start(lp)
            }
            fn name(&self) -> &'static str {
                "delegating"
            }
        }
        let solution = Delegating.solve(&furniture()).unwrap();
        assert!((solution.objective() - 36.0).abs() < 1e-9);
    }
}
