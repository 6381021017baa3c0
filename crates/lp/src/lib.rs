//! Linear programming solvers for the `markov-dpm` workspace.
//!
//! The central result of Benini et al. (DAC'98/TCAD'99) is that optimal
//! power-management policies are solutions of a linear program over
//! discounted state–action frequencies (problems LP2/LP3/LP4 of the paper's
//! Appendix A). The paper's tool was built around **PCx**, an interior-point
//! LP code; this crate reproduces that capability from scratch with three
//! independent solvers:
//!
//! * [`RevisedSimplex`] — a revised simplex method over sparse compressed
//!   columns, with the basis maintained as a **sparse Markowitz LU**
//!   factorization repaired in place by exact **Forrest–Tomlin updates**
//!   and entering columns chosen by **devex pricing over a candidate
//!   list** (Dantzig and Bland stay selectable via [`PricingRule`]). This
//!   is the **default engine** of the policy optimizer: occupation-measure
//!   LPs are >95% sparse and the per-pivot cost, the factorization cost
//!   *and* the pricing cost scale with the nonzero/candidate count, not
//!   with `m³` or the full column count.
//! * [`Simplex`] — a two-phase primal simplex method on a dense tableau,
//!   with steepest-edge pricing (Bland's rule on a stall), cost
//!   perturbation and periodic refactorization against degeneracy. It detects
//!   infeasibility and unboundedness exactly, which the policy optimizer
//!   uses to map the *feasible allocation set* (Section IV-A of the
//!   paper), and serves as the independent cross-check for the sparse
//!   path.
//! * [`InteriorPoint`] — a Mehrotra predictor–corrector primal–dual
//!   interior-point method solving the same standard-form problems via
//!   Cholesky-factored normal equations, in the spirit of PCx \[27\].
//!
//! All three implement the [`LpSolver`] trait and are cross-checked
//! against each other in the test suites. Problems are described with the
//! [`LinearProgram`] builder, which stores constraint rows sparsely:
//!
//! ```
//! use dpm_lp::{ConstraintOp, LinearProgram, LpSolver, RevisedSimplex};
//!
//! # fn main() -> Result<(), dpm_lp::LpError> {
//! // minimize  -x0 - 2 x1
//! // subject to x0 + x1 <= 4,  x1 <= 2,  x >= 0
//! let mut lp = LinearProgram::minimize(&[-1.0, -2.0]);
//! lp.add_constraint(&[1.0, 1.0], ConstraintOp::Le, 4.0)?;
//! lp.add_sparse_constraint(&[(1, 1.0)], ConstraintOp::Le, 2.0)?;
//! let solution = RevisedSimplex::new().solve(&lp)?;
//! assert!((solution.objective() - (-6.0)).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```
//!
//! # How to pick a solver
//!
//! The long-form guide — engine choice, the session/warm-start/reload
//! lifecycle, pricing rules, basis maintenance and [`SolveReport`]
//! semantics, with measured scale boundaries — is `docs/SOLVERS.md` at
//! the repository root (benchmark workflow: `docs/BENCHMARKING.md`).
//! The short version:
//!
//! | situation | engine | why |
//! |---|---|---|
//! | occupation-measure LPs (LP2–LP4), large models | [`RevisedSimplex`] | balance rows have O(1) nonzeros per state; the sparse Markowitz-LU basis with Forrest–Tomlin updates makes pivots *and* (re)factorizations scale with nonzeros, so 1000+-state instances solve in well under a second |
//! | small/dense problems, exact vertex + basis diagnostics | [`Simplex`] | simplest exact method; the dense tableau is competitive below ~100 variables and is the reference the other engines are checked against |
//! | very degenerate or ill-conditioned instances | [`InteriorPoint`] | follows the central path instead of vertex-hopping, so degeneracy costs nothing; regularized normal equations tolerate bad conditioning |
//! | don't know / don't care | [`RevisedSimplex`] | the default of `dpm_core::SolverKind`; the occupation-LP layer (`dpm_mdp::OccupationLp`) additionally rescues numerical failures by retrying with another engine — callers using this crate directly get no such net |
//! | re-solving one model under a sweep of bounds | a [`SolveSession`] on [`RevisedSimplex`] | parametric right-hand-side changes re-solve by **dual simplex from the previous optimal basis** — typically a handful of pivots instead of a full two-phase cold solve, on sparse factors that are reused (and FT-updated) across the whole sweep |
//! | re-solving as the *model itself* drifts (coefficients, not just bounds) | [`SolveSession::reload`] on [`RevisedSimplex`] | a shape-identical program reloads warm ([`ReloadKind::Warm`]): the retained basis is refactorized on the new coefficients and feasibility is repaired in a handful of pivots; a shape change degrades to a correct cold rebuild ([`ReloadKind::Cold`]) |
//! | cold-solving an LP whose good starting basis you know — an occupation LP and a deterministic policy | [`SolveSession::seed_basis`] on a [`RevisedSimplex`] session | the session's cold starts begin from the seeded columns instead of one artificial per row: a primal-feasible seed skips phase 1, a seed that violates some rows leaves phase 1 only those, a singular or negative seed is dropped for the plain start. `dpm_mdp`'s prepared sessions seed a lookahead policy's basis (about 5× fewer cold pivots at 208 states; the 1050-state LP4 the one-shot solve fails on solves in 883 pivots) |
//! | suspecting the pricing / measuring it | [`RevisedSimplex::with_pricing`] with [`PricingRule::Dantzig`] or [`PricingRule::Bland`] | same pivot algebra under full-scan pricing — the cross-check devex is property-tested against, and the baseline of the `pricing_rules` bench group (devex is >2× faster at 1050 states, ~19× less column scanning at 4018) |
//!
//! All engines accept the same [`LinearProgram`] and return the same
//! [`LpSolution`], so switching is a one-line change (or a
//! `Box<dyn LpSolver>` picked at run time). Factorization effort is
//! observable per solve: [`SolveReport`] carries `refactorizations`,
//! `basis_updates`, `fill_in_nnz` and a `basis_signature` downstream
//! layers use to memoize work keyed on the optimal basis.
//!
//! # Solve sessions and warm starts
//!
//! A one-shot [`LpSolver::solve`] rebuilds the standard form, finds a
//! feasible basis and factorizes from scratch on every call. When the
//! *same* model is re-solved under a sequence of slightly different
//! right-hand sides or objectives — the paper's Pareto sweeps, or
//! re-optimization as workload predictions drift — use
//! [`LpSolver::start`] instead: it loads the program into a stateful
//! [`SolveSession`] that owns the standard-form data and, for
//! [`RevisedSimplex`], the factorized basis.
//!
//! * [`SolveSession::set_rhs`] moves one right-hand side in place;
//!   constraint rows keep their 0-based insertion index as a stable
//!   handle.
//! * [`SolveSession::solve`] re-optimizes. After an RHS change the
//!   previous basis is still **dual feasible**, so [`RevisedSimplex`]
//!   restores primal feasibility by dual simplex pivots on the existing
//!   LU factorization. The dense [`Simplex`] and [`InteriorPoint`]
//!   engines run correct cold re-solves.
//! * Every solve returns a [`SolveReport`] — warm vs cold, pivot and
//!   refactorization counts, and the [`InfeasibilityCertificate`] kind
//!   when a solve ends infeasible (also kept in
//!   [`SolveSession::last_report`]).
//! * [`SolveSession::reload`] replaces the **whole loaded program** —
//!   every coefficient, not just one rhs. A cost change is a reload of
//!   the program with the new objective. The contract:
//!   a **shape-identical** program (same variables and orientation, same
//!   per-row operators and sparsity pattern) reloads
//!   [`ReloadKind::Warm`] on [`RevisedSimplex`] — the optimal basis is
//!   kept, the new coefficients are refactorized through the existing
//!   sparse-LU path, and the next solve repairs it (dual simplex when the
//!   basic values left the feasible region, then phase 2; cold fallback
//!   on numerical trouble);
//!   anything else — a grown constraint set, a changed pattern, a
//!   non-warm engine — reloads [`ReloadKind::Cold`]. This is the
//!   primitive behind per-epoch *model drift*: an online adaptation loop
//!   re-estimates its workload model, re-emits the occupation LP (same
//!   shape, drifted balance coefficients) and hot-swaps it into the
//!   running session at warm-start cost.
//! * [`SolveSession::seed_basis`] gives the session's cold starts — the
//!   first solve, a cold reload, a failed warm attempt's fallback — a
//!   crash basis: one original column per row, or `None` for the row's
//!   slack. One-shot [`LpSolver::solve`] never sees a seed, so it stays
//!   the unseeded reference seeded sessions are checked against.
//!
//! ## Migration notes (pre-session `LpSolver`)
//!
//! `LpSolver::solve(&lp)` is still there and behaves exactly as before;
//! existing call sites compile unchanged. What changed for *implementors*
//! of the trait: the required method is now [`LpSolver::start`], and
//! `solve` is a default method that runs one cold session. An engine
//! without warm-start machinery can implement `start` in one line by
//! delegating to an owned engine + cold re-solve (see the dense engines),
//! or keep overriding `solve` for its hot path — the in-tree engines do
//! both, so either entry point reaches the same code.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod error;
pub mod fault;
mod interior_point;
mod pricing;
mod problem;
mod revised_simplex;
mod session;
mod simplex;
mod solution;

pub use error::LpError;
pub use interior_point::InteriorPoint;
pub use pricing::PricingRule;
pub use problem::{ConstraintOp, LinearProgram, SparseStandardForm, StandardForm};
pub use revised_simplex::RevisedSimplex;
pub use session::{
    InfeasibilityCertificate, ReloadKind, SolveBudget, SolveReport, SolveSession, Termination,
};
pub use simplex::Simplex;
pub use solution::LpSolution;

/// A linear-programming algorithm that can solve a [`LinearProgram`].
///
/// Implemented by [`RevisedSimplex`], [`Simplex`] and [`InteriorPoint`].
/// The trait is object safe so callers can select a solver at run time:
///
/// ```
/// use dpm_lp::{InteriorPoint, LinearProgram, LpSolver, RevisedSimplex, Simplex};
///
/// # fn main() -> Result<(), dpm_lp::LpError> {
/// let solvers: Vec<Box<dyn LpSolver>> = vec![
///     Box::new(RevisedSimplex::new()),
///     Box::new(Simplex::new()),
///     Box::new(InteriorPoint::new()),
/// ];
/// let lp = LinearProgram::minimize(&[1.0]);
/// for solver in &solvers {
///     assert!(solver.solve(&lp)?.objective().abs() < 1e-7);
/// }
/// # Ok(())
/// # }
/// ```
pub trait LpSolver: std::fmt::Debug {
    /// Loads `lp` into a stateful [`SolveSession`] for (possibly
    /// repeated, possibly warm-started) solving. The session owns its
    /// copy of the problem data; the borrow of `lp` ends here.
    ///
    /// # Errors
    ///
    /// Propagates [`LinearProgram::validate`] failures; engine-specific
    /// failures surface from [`SolveSession::solve`], not from `start`.
    fn start(&self, lp: &LinearProgram) -> Result<Box<dyn SolveSession>, LpError>;

    /// Solves the program to optimality.
    ///
    /// The default implementation runs one cold session from
    /// [`Self::start`]; the in-tree engines override it with their
    /// direct paths (same results, no session bookkeeping).
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] when no point satisfies the constraints.
    /// * [`LpError::Unbounded`] when the objective is unbounded below
    ///   (above, for maximization) on the feasible set.
    /// * [`LpError::IterationLimit`] / [`LpError::Numerical`] on
    ///   algorithmic failure.
    fn solve(&self, lp: &LinearProgram) -> Result<LpSolution, LpError> {
        self.start(lp)?.solve().map(|(solution, _)| solution)
    }

    /// Short human-readable name of the algorithm ("simplex",
    /// "interior-point"), used in logs and benchmark tables.
    fn name(&self) -> &'static str;
}
