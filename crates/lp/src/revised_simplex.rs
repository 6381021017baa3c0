//! Revised simplex method over sparse columns with a factorized basis.
//!
//! Where the dense tableau [`Simplex`](crate::Simplex) updates an
//! `(m+1) × (n+1)` array on every pivot — `O(m·n)` work regardless of how
//! sparse the constraints are — the revised method keeps the constraint
//! matrix in compressed-column form and only ever factorizes the current
//! `m × m` **basis**. Per pivot it needs two triangular solves against the
//! factorization (BTRAN for pricing, FTRAN for the ratio test) plus one
//! sparse dot product per nonbasic column: `O(m²+ nnz)` instead of
//! `O(m·n)`, a decisive win on the occupation-measure LPs whose columns
//! carry a handful of nonzeros each.
//!
//! # Basis maintenance and refactorization cadence
//!
//! The basis is held as a **sparse LU factorization**
//! ([`dpm_linalg::SparseLu`]: Markowitz-ordered threshold pivoting,
//! sparse triangular solves) built straight from the standard form's
//! compressed columns — factorization work scales with the basis's
//! nonzeros, not with `m³`. After a pivot that replaces basis slot `p`
//! with entering column `q`, the factors are repaired in place by an
//! exact **Forrest–Tomlin update**: the spike column `L⁻¹a_q` lands in
//! `U`, the spiked row is cycled last and re-eliminated by a short row
//! transformation. The factors stay sparse between refactorizations.
//!
//! Every [`RevisedSimplex::refactor_interval`] pivots (default 128) the
//! basis is refactorized from the original sparse columns, flushing
//! accumulated roundoff and update fill. An update whose growth gauge
//! passes a fixed limit, or whose new diagonal vanishes, is refused and
//! the basis is refactorized at once.
//!
//! # Pricing
//!
//! The default pricing is **devex over a cyclic candidate list**
//! ([`PricingRule::Devex`]): reference-framework weights approximate
//! steepest-edge column norms (one extra BTRAN per pivot, reset when the
//! weights drift), and each pricing pass touches a bounded candidate
//! slice of the nonbasic columns instead of scanning them all — on the
//! large occupation LPs the full Dantzig scan, not the factorization, is
//! what dominates solve time. Dantzig and Bland stay selectable through
//! [`RevisedSimplex::with_pricing`] for cross-checks; every rule falls
//! back to Bland's rule automatically when the objective stalls,
//! mirroring the dense engine's anti-cycling protection. See
//! `docs/SOLVERS.md` for when each rule wins.

use std::sync::Arc;

use dpm_linalg::{SparseLu, SymbolicLu};

use crate::fault::{self, ArmedFaults};
use crate::pricing::{Devex, DEVEX_WEIGHT_LIMIT};
use crate::session::{
    same_shape, InfeasibilityCertificate, ReloadKind, SolveBudget, SolveReport, Termination,
};
use crate::{LinearProgram, LpError, LpSolution, LpSolver, PricingRule, SolveSession};

/// Revised simplex method with a sparse LU-factorized basis and
/// Forrest–Tomlin updates, operating on sparse compressed columns.
///
/// Drop-in replacement for the dense tableau [`Simplex`](crate::Simplex)
/// behind the [`LpSolver`] trait; it reaches the same optima (the test
/// suites cross-check all engines) but scales with the number of
/// *nonzeros* instead of the full `rows × cols` product. It is the
/// default engine of the policy optimizer's sparse LP pipeline.
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
/// let s = RevisedSimplex::new().solve(&lp)?;
/// assert!((s.objective() - 36.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RevisedSimplex {
    pricing: PricingRule,
    max_iterations: usize,
    tolerance: f64,
    refactor_interval: usize,
}

impl Default for RevisedSimplex {
    fn default() -> Self {
        Self::new()
    }
}

impl RevisedSimplex {
    /// Creates a solver with default settings (devex pricing over a
    /// candidate list with Bland fallback, tolerance `1e-9`, sparse LU
    /// with Forrest–Tomlin updates, refactorization every 128 pivots).
    pub fn new() -> Self {
        RevisedSimplex {
            pricing: PricingRule::default(),
            max_iterations: 50_000,
            tolerance: 1e-9,
            refactor_interval: 128,
        }
    }

    /// Selects the pricing rule for the primal pivot loops (see
    /// [`PricingRule`] for when each wins). The default is
    /// [`PricingRule::Devex`].
    ///
    /// ```
    /// use dpm_lp::{ConstraintOp, LinearProgram, LpSolver, PricingRule, RevisedSimplex};
    ///
    /// # fn main() -> Result<(), dpm_lp::LpError> {
    /// let mut lp = LinearProgram::minimize(&[-1.0, -2.0]);
    /// lp.add_constraint(&[1.0, 1.0], ConstraintOp::Le, 4.0)?;
    /// lp.add_sparse_constraint(&[(1, 1.0)], ConstraintOp::Le, 2.0)?;
    /// // Cross-check the default devex answer against Dantzig pricing.
    /// let devex = RevisedSimplex::new().solve(&lp)?;
    /// let dantzig = RevisedSimplex::new()
    ///     .with_pricing(PricingRule::Dantzig)
    ///     .solve(&lp)?;
    /// assert!((devex.objective() - dantzig.objective()).abs() < 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_pricing(mut self, rule: PricingRule) -> Self {
        self.pricing = rule;
        self
    }

    /// Sets the iteration limit (per phase).
    pub fn max_iterations(mut self, limit: usize) -> Self {
        self.max_iterations = limit;
        self
    }

    /// Sets the numerical tolerance used for pricing and ratio tests.
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Sets how many in-place Forrest–Tomlin updates accumulate before
    /// the basis is refactorized from scratch (see the module docs).
    /// Clamped to ≥ 1.
    pub fn refactor_interval(mut self, pivots: usize) -> Self {
        self.refactor_interval = pivots.max(1);
        self
    }
}

impl RevisedSimplex {
    /// The cold pipeline on a freshly built, armed [`Core`]: phase 1
    /// when the starting basis holds artificials, phase 2, clean
    /// extraction. The core is the caller's, so its effort counters stay
    /// readable whether the solve succeeds or fails, and a session keeps
    /// the factorized optimal basis for warm re-solves.
    fn run_cold(&self, core: &mut Core, lp: &LinearProgram) -> Result<LpSolution, LpError> {
        let mut iterations = 0;
        if core.num_artificial > 0 {
            iterations += core.optimize(Phase::One, self.pricing, self.max_iterations)?;
            if core.phase1_objective() > self.tolerance.max(1e-7) {
                return Err(LpError::Infeasible);
            }
        }
        iterations += core.optimize(Phase::Two, self.pricing, self.max_iterations)?;
        core.extract_solution(lp, iterations)
    }
}

impl LpSolver for RevisedSimplex {
    fn start(&self, lp: &LinearProgram) -> Result<Box<dyn SolveSession>, LpError> {
        lp.validate()?;
        Ok(Box::new(RevisedSession {
            config: self.clone(),
            lp: lp.clone(),
            seed: Vec::new(),
            state: State::Cold,
            symbolic_reported: 0,
            budget: SolveBudget::UNLIMITED,
            refactor_requested: false,
            report: SolveReport::new("revised-simplex"),
        }))
    }

    /// One unseeded cold solve: the all-slack/artificial start, never a
    /// basis seed (seeds live on sessions, not on the program).
    fn solve(&self, lp: &LinearProgram) -> Result<LpSolution, LpError> {
        lp.validate()?;
        let mut core = Core::build(lp, self.tolerance, self.refactor_interval, &[])?;
        core.arm(SolveBudget::UNLIMITED, fault::arm());
        self.run_cold(&mut core, lp)
    }

    fn name(&self) -> &'static str {
        "revised-simplex"
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    One,
    Two,
}

/// Solver state over the (row-sign-normalized) sparse standard form.
#[derive(Debug, Clone)]
struct Core {
    m: usize,
    /// Structural columns: originals then slacks. Artificials follow.
    num_structural: usize,
    /// How many leading structural columns are the user's variables.
    num_original: usize,
    num_artificial: usize,
    /// Sparse columns of the standard form, artificials included, with
    /// negative-rhs rows already negated.
    cols: Vec<Vec<(usize, f64)>>,
    /// Phase-2 minimization costs for structural columns.
    cost: Vec<f64>,
    /// Row-normalized rhs (rows were flipped so the *initial* `b ≥ 0`;
    /// parametric updates may later make entries negative, which the
    /// dual-simplex warm path handles).
    b: Vec<f64>,
    /// Per-row sign applied during normalization (`±1`), fixed for the
    /// lifetime of the core so parametric rhs updates land consistently.
    flip: Vec<f64>,
    /// `basis[slot]` = column currently basic in that slot.
    basis: Vec<usize>,
    is_basic: Vec<bool>,
    /// Current basic-variable values `x_B` (aligned with `basis`).
    x_b: Vec<f64>,
    /// Factorization of the current basis, kept current by
    /// Forrest–Tomlin updates between refactorizations.
    factors: Box<SparseLu>,
    /// Forrest–Tomlin updates absorbed since the last refactorization;
    /// capped at `refactor_interval`.
    updates_since_refactor: usize,
    tol: f64,
    refactor_interval: usize,
    /// Lifetime pivot count (primal + dual), for [`SolveReport`]s.
    pivots: usize,
    /// Lifetime refactorization count, for [`SolveReport`]s.
    refactorizations: usize,
    /// Lifetime in-place basis-update count, for [`SolveReport`]s.
    basis_updates: usize,
    /// Lifetime count of reduced-cost evaluations — primal pricing
    /// passes, candidate-list rebuilds, dual ratio tests — for
    /// [`SolveReport::pricing_candidates`].
    priced_columns: usize,
    /// Lifetime devex reference-framework resets, for
    /// [`SolveReport::devex_resets`].
    devex_resets: usize,
    /// Largest factor fill-in observed since [`Self::reset_peak_fill`] —
    /// updated after every refactorization *and* every Forrest–Tomlin
    /// update, so update-chain fill is visible even though extraction
    /// ends on freshly refactorized factors.
    peak_fill: usize,
    /// The last fresh sparse factorization's symbolic analysis, keyed by
    /// the exact basis (slot order included) it was computed for. A
    /// refactorization of the *same* basis — the common case after a
    /// warm reload, a session fork, or a growth-forced refresh — follows
    /// the stored pivot order numerically instead of repeating the
    /// Markowitz search. Shared across forked cores by `Arc`, so a fleet
    /// of shape-identical sessions pays for one analysis.
    shared_symbolic: Option<(Vec<usize>, Arc<SymbolicLu>)>,
    /// Lifetime count of refactorizations that reused a stored symbolic
    /// analysis, for [`SolveReport::symbolic_reuse`].
    symbolic_reuses: usize,
    /// The budget armed for the solve in flight ([`Self::arm`]); spending
    /// is measured against the `base_*` baselines below. UNLIMITED
    /// between solves, so build/reload refactorizations never trip it.
    budget: SolveBudget,
    /// [`Self::pivots`] at the last [`Self::arm`].
    base_pivots: usize,
    /// [`Self::refactorizations`] at the last [`Self::arm`].
    base_refactors: usize,
    /// Fault plan armed for the solve in flight (`None` in production;
    /// see [`crate::fault`]). Cleared by [`Self::disarm`] so between-solve
    /// refactorizations — reloads, forced refreshes — run clean.
    faults: Option<ArmedFaults>,
}

/// A Forrest–Tomlin update whose growth gauge
/// ([`SparseLu::update_growth`]) exceeds this bound forces an early
/// refactorization: the factors are still nonsingular, but the spike
/// elimination multiplied roundoff by enough that the updated factors
/// can no longer be trusted (Bartels–Golub-style stability monitoring).
const FT_GROWTH_LIMIT: f64 = 1e7;

impl Core {
    /// Loads `lp`'s sparse standard form and factorizes a starting basis:
    /// `seed`'s columns in the rows it names (see
    /// [`SolveSession::seed_basis`]), every other row its unit slack or a
    /// fresh artificial. A seed that leaves the basis singular or a
    /// seeded column below `−tol` is dropped whole for the plain start,
    /// which is what an empty seed gives directly.
    fn build(
        lp: &LinearProgram,
        tol: f64,
        refactor_interval: usize,
        seed: &[Option<usize>],
    ) -> Result<Self, LpError> {
        let sf = lp.to_sparse_standard_form()?;
        let m = sf.b.len();
        let n = sf.c.len();

        // Normalize rows to b >= 0 (required for the artificial basis).
        let mut flip = vec![1.0f64; m];
        let mut b = sf.b.clone();
        for i in 0..m {
            if b[i] < 0.0 {
                b[i] = -b[i];
                flip[i] = -1.0;
            }
        }
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        for j in 0..n {
            let (rows, vals) = sf.a.col(j);
            cols.push(
                rows.iter()
                    .zip(vals)
                    .map(|(&i, &v)| (i, flip[i] * v))
                    .collect(),
            );
        }

        let mut core = Core {
            m,
            num_structural: n,
            num_original: sf.num_original_vars,
            num_artificial: 0,
            cols,
            cost: sf.c,
            b,
            flip,
            // `start_from` below installs the starting basis.
            basis: Vec::new(),
            is_basic: Vec::new(),
            x_b: vec![0.0; m],
            // 0×0 placeholder (never solved against); `start_from`
            // installs the real initial-basis factorization.
            factors: Box::new(SparseLu::from_columns::<Vec<(usize, f64)>>(0, &[])?),
            updates_since_refactor: 0,
            tol,
            refactor_interval,
            pivots: 0,
            refactorizations: 0,
            basis_updates: 0,
            priced_columns: 0,
            devex_resets: 0,
            peak_fill: 0,
            shared_symbolic: None,
            symbolic_reuses: 0,
            budget: SolveBudget::UNLIMITED,
            base_pivots: 0,
            base_refactors: 0,
            faults: None,
        };
        if seed.iter().any(Option::is_some) && core.start_from(seed).is_ok() {
            return Ok(core);
        }
        core.start_from(&[])?;
        Ok(core)
    }

    /// Installs and factorizes a starting basis: `seed`'s columns in the
    /// rows it names, then each remaining row's unit slack (a slack that
    /// survived normalization as `+e_i`), else a `+e_i` artificial. A
    /// slack or artificial that comes out negative marks a row the seed
    /// violates; it is swapped for a `−e_i` artificial, so the start is
    /// primal feasible and phase 1 repairs only those rows. With an empty
    /// seed the basis is the identity and nothing is swapped.
    ///
    /// # Errors
    ///
    /// A repeated seed column, a singular basis, or a seeded column
    /// below `−tol` — the caller then drops the seed.
    fn start_from(&mut self, seed: &[Option<usize>]) -> Result<(), LpError> {
        let rejected = |reason: &str| LpError::Numerical {
            reason: format!("basis seed dropped: {reason}"),
        };
        self.cols.truncate(self.num_structural);
        self.num_artificial = 0;
        self.peak_fill = 0;
        let mut rows: Vec<Option<usize>> = seed.to_vec();
        rows.resize(self.m, None);
        for (j, col) in self.cols.iter().enumerate().skip(self.num_original) {
            if let [(i, v)] = *col.as_slice() {
                match rows.get_mut(i) {
                    Some(row @ None) if v == 1.0 => *row = Some(j),
                    _ => {}
                }
            }
        }
        self.is_basic = vec![false; self.num_structural];
        self.basis = Vec::with_capacity(self.m);
        for (i, row) in rows.into_iter().enumerate() {
            let j = match row {
                Some(j) => match self.is_basic.get_mut(j) {
                    Some(basic) if !*basic => {
                        *basic = true;
                        j
                    }
                    _ => return Err(rejected("a seeded column repeats or does not exist")),
                },
                None => self.add_artificial(i, 1.0),
            };
            self.basis.push(j);
        }
        self.refactor()?;

        let negative: Vec<(usize, usize)> = self
            .basis
            .iter()
            .zip(&self.x_b)
            .enumerate()
            .filter(|&(_, (_, &value))| value < -self.tol)
            .map(|(slot, (&j, _))| (slot, j))
            .collect();
        if negative.iter().any(|&(_, j)| j < self.num_original) {
            return Err(rejected("a seeded column is negative"));
        }
        for &(slot, j) in &negative {
            if let Some(basic) = self.is_basic.get_mut(j) {
                *basic = false;
            }
            let artificial = self.add_artificial(slot, -1.0);
            if let Some(column) = self.basis.get_mut(slot) {
                *column = artificial;
            }
        }
        if !negative.is_empty() {
            self.refactor()?;
        }
        Ok(())
    }

    /// Appends a basic artificial column `coefficient·e_row` and returns
    /// its index.
    fn add_artificial(&mut self, row: usize, coefficient: f64) -> usize {
        self.cols.push(vec![(row, coefficient)]);
        self.is_basic.push(true);
        self.num_artificial += 1;
        self.cols.len() - 1
    }

    /// Arms a solve attempt: spending restarts from the current lifetime
    /// counters, capped by `budget`, with `faults` consulted at each
    /// injection point until [`Self::disarm`].
    fn arm(&mut self, budget: SolveBudget, faults: Option<ArmedFaults>) {
        self.budget = budget;
        self.faults = faults;
        self.base_pivots = self.pivots;
        self.base_refactors = self.refactorizations;
    }

    /// Ends the armed solve attempt: unlimited budget, no faults.
    fn disarm(&mut self) {
        self.budget = SolveBudget::UNLIMITED;
        self.faults = None;
    }

    /// Pivots and refactorizations spent since the last [`Self::arm`].
    fn spent(&self) -> (usize, usize) {
        (
            self.pivots - self.base_pivots,
            self.refactorizations - self.base_refactors,
        )
    }

    /// Errors with [`LpError::BudgetExhausted`] when the armed budget
    /// has no room for another pivot: the pivot ceiling is reached, or
    /// the refactorization ceiling is (a pivot may refactorize). Called
    /// before a pivot is applied, so a budget of `n` pivots performs at
    /// most `n`.
    fn check_budget(&self) -> Result<(), LpError> {
        let (pivots, refactorizations) = self.spent();
        let reached = |limit: Option<usize>, used: usize| limit.is_some_and(|limit| used >= limit);
        if reached(self.budget.max_pivots, pivots)
            || reached(self.budget.max_refactorizations, refactorizations)
        {
            return Err(LpError::BudgetExhausted {
                pivots,
                refactorizations,
            });
        }
        Ok(())
    }

    /// Errors with [`LpError::BudgetExhausted`] after a pivot when the
    /// armed fault plan says to pretend the budget is spent.
    fn check_injected_exhaustion(&self) -> Result<(), LpError> {
        let (pivots, refactorizations) = self.spent();
        match &self.faults {
            Some(faults) if faults.exhaust_budget(pivots as u64) => Err(LpError::BudgetExhausted {
                pivots,
                refactorizations,
            }),
            _ => Ok(()),
        }
    }

    /// Rebuilds the sparse factorization of the current basis from the
    /// pristine columns and re-solves the basic values.
    fn refactor(&mut self) -> Result<(), LpError> {
        // Fault injection: a poisoned refactorization reports the basis
        // singular before touching the factors, modelling a numerically
        // collapsed basis (see `crate::fault`). No-op in production.
        if let Some(faults) = &self.faults {
            let ordinal = (self.refactorizations - self.base_refactors) as u64;
            if faults.poison_refactor(ordinal) {
                self.refactorizations += 1;
                return Err(LpError::Numerical {
                    reason: "injected fault: refactorization reported singular".to_string(),
                });
            }
        }
        self.refactorizations += 1;
        self.updates_since_refactor = 0;
        if self.m == 0 {
            self.x_b.clear();
            return Ok(());
        }
        let cols: Vec<&[(usize, f64)]> = self
            .basis
            .iter()
            .map(|&j| self.cols[j].as_slice())
            .collect();
        // When the stored symbolic analysis was computed for this exact
        // basis, skip the Markowitz search and refactorize numerically
        // along its pivot order. Any failure (a prescribed pivot went
        // numerically unacceptable under the drifted coefficients)
        // silently falls back to a fresh analysis.
        let reused = self.shared_symbolic.as_ref().and_then(|(key, symbolic)| {
            if key == &self.basis {
                SparseLu::from_columns_with_symbolic(symbolic, &cols).ok()
            } else {
                None
            }
        });
        let mut lu = match reused {
            Some(lu) => {
                self.symbolic_reuses += 1;
                lu
            }
            None => {
                let lu = SparseLu::from_columns(self.m, &cols).map_err(|e| LpError::Numerical {
                    reason: format!("singular simplex basis: {e}"),
                })?;
                self.shared_symbolic = Some((self.basis.clone(), lu.symbolic()));
                lu
            }
        };
        // Forrest–Tomlin updates self-limit through the factors' own
        // growth gauge: an update that would blow past the trust bound is
        // refused by the factorization itself
        // (`LinalgError::UpdateRefused`) and `absorb_pivot` refactorizes
        // instead.
        lu.set_growth_limit(FT_GROWTH_LIMIT);
        *self.factors = lu;
        self.peak_fill = self.peak_fill.max(self.factors.fill_in());
        self.x_b = self.factors.solve(&self.b)?;
        Ok(())
    }

    /// `true` right after a refactorization: the factors carry no
    /// in-place updates whose roundoff could explain a degenerate pivot.
    fn is_fresh(&self) -> bool {
        self.updates_since_refactor == 0
    }

    /// Absorbs a completed pivot (slot `p` now holds column `q`) into the
    /// factorization: a Forrest–Tomlin update, or a full refactorization
    /// when the update budget is exhausted, the update is refused on
    /// growth, or the update itself goes singular. Ends with the fault
    /// plan's injected budget exhaustion; the real [`SolveBudget`]
    /// ceilings are checked before each pivot.
    fn absorb_pivot(&mut self, p: usize, q: usize) -> Result<(), LpError> {
        self.pivots += 1;
        // Fault injection: refuse this update as if its growth gauge had
        // tripped, exercising the refactorization path.
        let refused = self.faults.as_ref().is_some_and(|faults| {
            let (spent_pivots, _) = self.spent();
            faults.refuse_update(spent_pivots as u64)
        });
        if refused || self.updates_since_refactor + 1 >= self.refactor_interval {
            self.refactor()?;
            return self.check_injected_exhaustion();
        }
        match self.factors.replace_column(p, &self.cols[q]) {
            Ok(()) => {
                self.basis_updates += 1;
                self.updates_since_refactor += 1;
                self.peak_fill = self.peak_fill.max(self.factors.fill_in());
            }
            // The factors refused the update — growth past the trust
            // bound (`LinalgError::UpdateRefused`, the limit installed by
            // `refactor`) or a vanishing update diagonal that would leave
            // them singular. Either way the repaired factors cannot be
            // used: rebuild from pristine columns instead.
            Err(_) => self.refactor()?,
        }
        self.check_injected_exhaustion()
    }

    /// Largest factor fill-in observed since the last
    /// [`Self::reset_peak_fill`] (see [`SolveReport::fill_in_nnz`]).
    fn peak_fill(&self) -> usize {
        self.peak_fill
    }

    /// Restarts the peak-fill gauge at the current factors' fill —
    /// called at the start of a warm re-solve so the report reflects
    /// *this* solve's factorization behavior, not a previous solve's
    /// high-water mark.
    fn reset_peak_fill(&mut self) {
        self.peak_fill = self.factors.fill_in();
    }

    /// Order-independent hash of the current basic column set — the
    /// memoization key downstream layers use to skip re-extracting a
    /// solution whose basis did not change. Never 0 (0 means "no
    /// signature" in [`SolveReport`]).
    fn basis_signature(&self) -> u64 {
        fn splitmix64(mut x: u64) -> u64 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }
        let acc = self
            .basis
            .iter()
            .fold(0u64, |acc, &j| acc.wrapping_add(splitmix64(j as u64 + 1)));
        acc.max(1)
    }

    /// FTRAN: returns `B⁻¹ v`.
    fn ftran(&self, v: &[f64]) -> Result<Vec<f64>, LpError> {
        if self.m == 0 {
            return Ok(Vec::new());
        }
        Ok(self.factors.solve(v)?)
    }

    /// BTRAN: returns the `y` solving `Bᵀ y = c`.
    fn btran(&self, c: &[f64]) -> Result<Vec<f64>, LpError> {
        if self.m == 0 {
            return Ok(Vec::new());
        }
        Ok(self.factors.solve_transposed(c)?)
    }

    /// Cost of column `j` under `phase` (phase 1: artificials cost 1).
    fn phase_cost(&self, phase: Phase, j: usize) -> f64 {
        match phase {
            Phase::One => {
                if j >= self.num_structural {
                    1.0
                } else {
                    0.0
                }
            }
            Phase::Two => {
                if j >= self.num_structural {
                    0.0
                } else {
                    self.cost[j]
                }
            }
        }
    }

    fn basic_costs(&self, phase: Phase) -> Vec<f64> {
        self.basis
            .iter()
            .map(|&j| self.phase_cost(phase, j))
            .collect()
    }

    fn phase1_objective(&self) -> f64 {
        self.basis
            .iter()
            .zip(&self.x_b)
            .filter(|(&j, _)| j >= self.num_structural)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Picks the leaving basis slot for entering direction `d`, returning
    /// `(slot, step length)`.
    ///
    /// A basic artificial that the entering direction would *grow*
    /// (`d < 0`) is pivoted out degenerately first — otherwise the
    /// artificial would re-enter the solution with positive value. The
    /// ordinary minimum-ratio test breaks ties by the largest pivot
    /// magnitude (numerical stability) under Dantzig pricing, and by the
    /// smallest basis index (termination) under Bland's rule, mirroring
    /// the dense engine.
    fn choose_leaving(&self, phase: Phase, d: &[f64], use_bland: bool) -> Option<(usize, f64)> {
        if phase == Phase::Two {
            let mut kick: Option<usize> = None;
            let mut worst = self.tol;
            for (i, &di) in d.iter().enumerate() {
                if self.basis[i] >= self.num_structural && -di > worst {
                    worst = -di;
                    kick = Some(i);
                }
            }
            if let Some(i) = kick {
                return Some((i, 0.0));
            }
        }
        let mut leaving: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for (i, &di) in d.iter().enumerate() {
            if di > self.tol {
                let r = self.x_b[i].max(0.0) / di;
                match leaving {
                    None => {
                        leaving = Some(i);
                        best_ratio = r;
                    }
                    Some(l) => {
                        if r < best_ratio - self.tol {
                            leaving = Some(i);
                            best_ratio = r;
                        } else if (r - best_ratio).abs() <= self.tol {
                            let better = if use_bland {
                                self.basis[i] < self.basis[l]
                            } else {
                                di > d[l]
                            };
                            if better {
                                leaving = Some(i);
                                best_ratio = best_ratio.min(r);
                            }
                        }
                    }
                }
            }
        }
        leaving.map(|p| (p, best_ratio))
    }

    /// Reduced cost of column `j` against the duals `y` under `phase`.
    #[inline]
    fn reduced_cost(&self, phase: Phase, y: &[f64], j: usize) -> f64 {
        let mut rc = self.phase_cost(phase, j);
        for &(i, v) in &self.cols[j] {
            rc -= y[i] * v;
        }
        rc
    }

    /// Full-scan pricing (Dantzig, or Bland when `bland` is set): the
    /// entering column plus how many columns were priced.
    fn price_full(
        &self,
        phase: Phase,
        y: &[f64],
        banned: &[bool],
        bland: bool,
    ) -> (Option<usize>, usize) {
        let mut scanned = 0usize;
        let mut entering: Option<usize> = None;
        let mut best = -self.tol;
        for (j, &is_banned) in banned.iter().enumerate() {
            if self.is_basic[j] || is_banned {
                continue;
            }
            scanned += 1;
            let rc = self.reduced_cost(phase, y, j);
            if bland {
                if rc < -self.tol {
                    entering = Some(j);
                    break;
                }
            } else if rc < best {
                best = rc;
                entering = Some(j);
            }
        }
        (entering, scanned)
    }

    /// Devex pricing over the candidate list — classic major/minor
    /// partial pricing. **Minor** passes re-price only the surviving
    /// candidates and pick the best devex score `rc²/w`; when the list
    /// runs dry a **major** pass rebuilds it, scanning every nonbasic
    /// column cyclically from the cursor and keeping the `target` best
    /// scores. A `None` return therefore means a full scan found no
    /// negative reduced cost — the same exact optimality certificate the
    /// full-scan rules give. The scan cost of a major pass is amortized
    /// over the many pivots its candidate list feeds.
    fn price_devex(
        &self,
        phase: Phase,
        y: &[f64],
        banned: &[bool],
        dx: &mut Devex,
    ) -> (Option<usize>, usize) {
        let mut scanned = 0usize;
        let mut best: Option<(usize, f64)> = None;
        // Minor pass: the current candidate list, pruning columns that
        // went basic, got banned, or no longer price negative.
        let mut k = 0;
        while k < dx.candidates.len() {
            let j = dx.candidates[k];
            if self.is_basic[j] || banned[j] {
                dx.candidates.swap_remove(k);
                continue;
            }
            scanned += 1;
            let rc = self.reduced_cost(phase, y, j);
            if rc < -self.tol {
                let score = rc * rc / dx.weights[j];
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((j, score));
                }
                k += 1;
            } else {
                dx.candidates.swap_remove(k);
            }
        }
        if best.is_some() {
            return (best.map(|(j, _)| j), scanned);
        }
        // Major pass: full cyclic scan, keeping the `target` best devex
        // scores. Selecting the best-scoring columns (not the first
        // improving ones) is what keeps the pivot count at full-pricing
        // quality; the cursor start only rotates tie-breaking.
        let n = self.num_structural;
        let mut pool: Vec<(usize, f64)> = Vec::new();
        for _ in 0..n {
            let j = dx.cursor;
            dx.cursor = (dx.cursor + 1) % n;
            if self.is_basic[j] || banned[j] {
                continue;
            }
            scanned += 1;
            let rc = self.reduced_cost(phase, y, j);
            if rc < -self.tol {
                pool.push((j, rc * rc / dx.weights[j]));
            }
        }
        if pool.len() > dx.target {
            pool.select_nth_unstable_by(dx.target - 1, |a, b| b.1.total_cmp(&a.1));
            pool.truncate(dx.target);
        }
        dx.candidates.clear();
        for &(j, score) in &pool {
            dx.candidates.push(j);
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((j, score));
            }
        }
        (best.map(|(j, _)| j), scanned)
    }

    /// The main pivot loop for one phase. Returns the pivot count.
    ///
    /// Devex state lives only inside this call: weights start at 1 (a
    /// fresh reference framework) and die with the loop, so phase
    /// switches, dual-simplex repairs and session reloads — all of which
    /// move the basis between `optimize` calls — can never price against
    /// stale weights.
    fn optimize(
        &mut self,
        phase: Phase,
        pricing: PricingRule,
        max_iter: usize,
    ) -> Result<usize, LpError> {
        let mut use_bland = pricing == PricingRule::Bland;
        let mut devex = match pricing {
            PricingRule::Devex => Some(Devex::new(self.num_structural)),
            PricingRule::Dantzig | PricingRule::Bland => None,
        };
        let stall_limit = 4 * (self.m + self.num_structural).max(64);
        let mut stall = 0usize;
        let mut last_obj = f64::INFINITY;
        // Columns whose only eligible pivots are numerically degenerate
        // (see PIVOT_MIN below) are banned until the next successful pivot
        // or refactorization changes the basis geometry.
        let mut banned = vec![false; self.num_structural];
        let mut banned_any = false;
        let mut refreshed_for_bans = false;

        // Duals y = B⁻ᵀ c_B. The full-scan rules recompute them from
        // scratch every pivot; devex updates them incrementally from the
        // ρ vector its weight update needs anyway (y' = y + (rc_q/α)·ρ),
        // re-deriving from scratch on every refactorization to flush
        // accumulated roundoff.
        // Net triangular solves per devex pivot: one BTRAN + one FTRAN —
        // the same as Dantzig, on a fraction of the pricing work.
        let mut y = self.btran(&self.basic_costs(phase))?;
        let mut y_stale = false;

        for iter in 0..max_iter {
            if y_stale || devex.is_none() {
                y = self.btran(&self.basic_costs(phase))?;
                y_stale = false;
            }
            let (entering, scanned) = match (&mut devex, use_bland) {
                (_, true) => self.price_full(phase, &y, &banned, true),
                (Some(dx), false) => self.price_devex(phase, &y, &banned, dx),
                (None, false) => self.price_full(phase, &y, &banned, false),
            };
            self.priced_columns += scanned;
            let Some(q) = entering else {
                if !banned_any {
                    return Ok(iter);
                }
                // Only banned columns still price negative: refresh the
                // factorization once and retry them before giving up.
                if refreshed_for_bans {
                    return Err(LpError::Numerical {
                        reason: "no numerically acceptable pivot remains".to_string(),
                    });
                }
                self.refactor()?;
                banned.fill(false);
                banned_any = false;
                refreshed_for_bans = true;
                y_stale = true;
                continue;
            };

            // Ratio test along d = B⁻¹ a_q.
            let mut aq = vec![0.0; self.m];
            for &(i, v) in &self.cols[q] {
                aq[i] = v;
            }
            let mut d = self.ftran(&aq)?;
            let Some((mut p, mut ratio)) = self.choose_leaving(phase, &d, use_bland) else {
                return Err(LpError::Unbounded);
            };
            self.check_budget()?;

            // Minimum pivot magnitude: accepting pivots near the pricing
            // tolerance drives the basis toward singularity (the LU
            // refactorization would eventually fail). First suspicion
            // falls on update roundoff — refactorize and retry with a
            // fresh direction; if the pivot is *still* degenerate, the
            // column is genuinely near-dependent on the basis and is
            // banned for now.
            const PIVOT_MIN: f64 = 1e-7;
            if d[p].abs() < PIVOT_MIN {
                if !self.is_fresh() {
                    self.refactor()?;
                    y_stale = true;
                    d = self.ftran(&aq)?;
                    match self.choose_leaving(phase, &d, use_bland) {
                        None => return Err(LpError::Unbounded),
                        Some((p2, r2)) => {
                            p = p2;
                            ratio = r2;
                        }
                    }
                }
                if d[p].abs() < PIVOT_MIN {
                    banned[q] = true;
                    banned_any = true;
                    continue;
                }
            }
            let out = self.basis[p];

            // Devex reference-framework update, against the *pre-pivot*
            // factors: ρ = B⁻ᵀe_p gives the pivot-row entries α_j = ρ·a_j
            // for exactly the candidate columns — the only weights the
            // partial-pricing scheme maintains — plus the leaving column.
            // With α = d[p]: w_j ← max(w_j, (α_j/α)²·w_q), w_out ←
            // max(1, w_q/α²).
            if let Some(dx) = devex.as_mut() {
                let mut e_p = vec![0.0; self.m];
                e_p[p] = 1.0;
                let rho = self.btran(&e_p)?;
                let alpha2 = d[p] * d[p];
                let wq = dx.weights[q].max(1.0);
                let mut drifted = false;
                for &j in &dx.candidates {
                    if j == q {
                        continue;
                    }
                    let mut aj = 0.0;
                    for &(i, v) in &self.cols[j] {
                        aj += rho[i] * v;
                    }
                    let candidate = wq * (aj * aj) / alpha2;
                    if candidate > dx.weights[j] {
                        dx.weights[j] = candidate;
                        drifted |= candidate > DEVEX_WEIGHT_LIMIT;
                    }
                }
                // A leaving artificial gets no weight: it never re-enters
                // (and carries no slot in the structural weight vector).
                if out < self.num_structural {
                    dx.weights[out] = (wq / alpha2).max(1.0);
                    drifted |= dx.weights[out] > DEVEX_WEIGHT_LIMIT;
                }
                if drifted {
                    dx.reset();
                    self.devex_resets += 1;
                }
                // Incremental dual update along ρ (see above): y stays
                // exact across the pivot without a second BTRAN.
                let theta = self.reduced_cost(phase, &y, q) / d[p];
                for (yi, &ri) in y.iter_mut().zip(&rho) {
                    *yi += theta * ri;
                }
            }

            // Apply the pivot: update basic values, basis bookkeeping,
            // and repair the factorization (Forrest–Tomlin update, or
            // refactorization when the budget is spent).
            for (xi, &di) in self.x_b.iter_mut().zip(&d) {
                *xi -= di * ratio;
            }
            self.x_b[p] = ratio;
            self.is_basic[out] = false;
            self.is_basic[q] = true;
            self.basis[p] = q;
            self.absorb_pivot(p, q)?;
            if self.is_fresh() {
                // The pivot was absorbed by a refactorization (update
                // budget spent, or a singular in-place update): flush the
                // incremental duals' roundoff along with the factors'.
                y_stale = true;
            }
            if banned_any {
                banned.fill(false);
                banned_any = false;
            }
            refreshed_for_bans = false;

            // Stall detection for the Dantzig rule (objective must fall).
            let obj: f64 = self
                .basic_costs(phase)
                .iter()
                .zip(&self.x_b)
                .map(|(c, x)| c * x)
                .sum();
            if obj < last_obj - self.tol {
                stall = 0;
                last_obj = obj;
            } else {
                stall += 1;
                if stall > stall_limit && !use_bland {
                    use_bland = true;
                    stall = 0;
                }
            }
        }
        Err(LpError::IterationLimit { limit: max_iter })
    }

    /// Extracts the structural solution from the (refactorized) basis.
    fn primal_solution(&self) -> Result<Vec<f64>, LpError> {
        let mut x = vec![0.0; self.num_structural];
        for (slot, &j) in self.basis.iter().enumerate() {
            let v = self.x_b[slot];
            if j < self.num_structural {
                if v < -1e-7 {
                    return Err(LpError::Numerical {
                        reason: format!("basic variable {j} negative: {v:.3e}"),
                    });
                }
                // Not `f64::max`: it may keep or drop the sign of a -0.0.
                x[j] = if v > 0.0 { v } else { 0.0 };
            } else if v.abs() > 1e-7 {
                // A basic artificial with nonzero value after phase 1
                // certifies a numerical breakdown, not feasibility.
                return Err(LpError::Numerical {
                    reason: format!("artificial variable stuck at {v:.3e}"),
                });
            }
        }
        Ok(x)
    }

    /// Duals of the final basis, in the dense engine's convention: the
    /// multiplier of each (sign-normalized) row under the minimization
    /// standard form. Unlike the tableau engine — which can only read
    /// inequality duals off slack reduced costs and reports equality rows
    /// as 0 — the revised method prices from `y = B⁻ᵀ c_B` directly, so
    /// every row gets its true multiplier.
    fn dual_solution(&self) -> Result<Vec<f64>, LpError> {
        self.btran(&self.basic_costs(Phase::Two))
    }

    /// Clean extraction of the final solution: refactorize (flushing
    /// update roundoff and re-solving the basic values from pristine
    /// data), then read the primal point, objective and duals.
    fn extract_solution(
        &mut self,
        lp: &LinearProgram,
        iterations: usize,
    ) -> Result<LpSolution, LpError> {
        self.refactor()?;
        let x_full = self.primal_solution()?;
        let x: Vec<f64> = x_full[..lp.num_vars()].to_vec();
        let objective = lp.objective_value(&x);
        let dual = self.dual_solution()?;
        Ok(LpSolution::new(x, objective, iterations, Some(dual)))
    }

    /// Wholesale coefficient reload for a **shape-identical** program
    /// (see [`crate::session::same_shape`]): rebuilds the structural
    /// columns, costs and rhs from `lp`'s sparse standard form under the
    /// core's *fixed* row normalization, keeps the artificial columns and
    /// the current basis untouched, and refactorizes the retained basis
    /// from the new columns. The caller is responsible for repairing
    /// primal/dual feasibility afterwards ([`Self::dual_simplex`] /
    /// [`Self::optimize`]).
    ///
    /// # Errors
    ///
    /// [`LpError::Numerical`] when the retained basis is singular under
    /// the new coefficients — the session falls back to a cold rebuild.
    fn reload_coefficients(&mut self, lp: &LinearProgram) -> Result<(), LpError> {
        let sf = lp.to_sparse_standard_form()?;
        debug_assert_eq!(sf.b.len(), self.m);
        debug_assert_eq!(sf.c.len(), self.num_structural);
        for (slot, (&bi, &flip)) in sf.b.iter().zip(&self.flip).enumerate() {
            self.b[slot] = flip * bi;
        }
        self.cost = sf.c;
        for (j, col) in self.cols.iter_mut().take(self.num_structural).enumerate() {
            let (rows, vals) = sf.a.col(j);
            col.clear();
            col.extend(rows.iter().zip(vals).map(|(&i, &v)| (i, self.flip[i] * v)));
        }
        // Artificial columns are unit vectors in the normalized frame and
        // stay as built; the basis keeps its column set.
        self.refactor()
    }

    /// `true` when the current basic values are primal feasible: ordinary
    /// basics nonnegative, basic artificials (equality placeholders) at
    /// zero — the precondition for resuming with primal phase-2 pivots.
    fn is_primal_feasible(&self) -> bool {
        const FEAS_TOL: f64 = 1e-8;
        self.basis.iter().zip(&self.x_b).all(|(&j, &v)| {
            if j >= self.num_structural {
                v.abs() <= FEAS_TOL
            } else {
                v >= -FEAS_TOL
            }
        })
    }

    /// `true` when every nonbasic structural column prices nonnegative
    /// under the phase-2 costs — the precondition for the dual simplex.
    fn is_dual_feasible(&mut self) -> Result<bool, LpError> {
        let y = self.btran(&self.basic_costs(Phase::Two))?;
        let slack = self.tol.max(1e-7);
        for j in 0..self.num_structural {
            if self.is_basic[j] {
                continue;
            }
            self.priced_columns += 1;
            if self.reduced_cost(Phase::Two, &y, j) < -slack {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Parametric rhs update: row `row` of the original program now has
    /// right-hand side `rhs`. The row's normalization sign is fixed, so
    /// the stored `b` entry may turn negative — exactly what the dual
    /// simplex warm path repairs.
    fn set_rhs_row(&mut self, row: usize, rhs: f64) {
        self.b[row] = self.flip[row] * rhs;
    }

    /// Re-solves the basic values `x_B = B⁻¹ b` after a rhs change.
    fn recompute_basics(&mut self) -> Result<(), LpError> {
        self.x_b = self.ftran(&self.b)?;
        Ok(())
    }

    /// Dual simplex: restores primal feasibility of a **dual-feasible**
    /// basis after a right-hand-side change, pivoting on the existing LU
    /// factorization — the textbook parametric re-solve, and the reason
    /// warm-started sweeps cost a handful of pivots instead of a full
    /// two-phase cold solve.
    ///
    /// Handles two kinds of violation: an ordinary basic variable gone
    /// negative, and a basic **artificial** pushed away from zero by the
    /// new rhs (its row's equality is no longer met); the ratio-test
    /// direction flips accordingly. Artificial columns never enter.
    ///
    /// Returns the pivot count, [`LpError::Infeasible`] when a violated
    /// row admits no entering column (a dual ray: the dual objective is
    /// unbounded along it), or [`LpError::Numerical`] when only
    /// degenerate pivots remain — the session falls back to a cold solve
    /// in that case.
    fn dual_simplex(&mut self, max_iter: usize) -> Result<usize, LpError> {
        /// Basic values inside this band count as feasible; tighter than
        /// the `primal_solution` guard (1e-7) so accepted points pass it.
        const FEAS_TOL: f64 = 1e-8;
        const PIVOT_MIN: f64 = 1e-7;
        let mut pivots_done = 0usize;

        for _ in 0..max_iter {
            // Leaving slot: the worst violation. Artificials must sit at
            // exactly zero, ordinary basics at ≥ 0.
            let mut leaving: Option<usize> = None;
            let mut worst = FEAS_TOL;
            for (slot, &value) in self.x_b.iter().enumerate() {
                let violation = if self.basis[slot] >= self.num_structural {
                    value.abs()
                } else {
                    -value
                };
                if violation > worst {
                    worst = violation;
                    leaving = Some(slot);
                }
            }
            let Some(p) = leaving else {
                return Ok(pivots_done);
            };
            // An artificial *above* zero needs an entering column that
            // grows through the row (`α > 0`); every other violation is a
            // basic variable below its bound (`α < 0`).
            let above = self.basis[p] >= self.num_structural && self.x_b[p] > 0.0;

            // Row p of B⁻¹ (for the αs) and the duals (for reduced costs).
            let mut e_p = vec![0.0; self.m];
            e_p[p] = 1.0;
            let rho = self.btran(&e_p)?;
            let y = self.btran(&self.basic_costs(Phase::Two))?;

            // Dual ratio test: among eligible columns, the smallest
            // |reduced cost| / |α| keeps every reduced cost nonnegative
            // after the pivot; ties break toward the larger |α| for
            // numerical stability.
            let mut entering: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            let mut best_alpha = 0.0f64;
            for j in 0..self.num_structural {
                if self.is_basic[j] {
                    continue;
                }
                self.priced_columns += 1;
                let mut alpha = 0.0;
                let mut rc = self.phase_cost(Phase::Two, j);
                for &(i, v) in &self.cols[j] {
                    alpha += rho[i] * v;
                    rc -= y[i] * v;
                }
                let eligible = if above {
                    alpha > self.tol
                } else {
                    alpha < -self.tol
                };
                if !eligible {
                    continue;
                }
                // rc ≥ 0 up to the optimality tolerance of the previous
                // solve; clamp the dust so ratios stay nonnegative.
                let ratio = rc.max(0.0) / alpha.abs();
                let better = ratio < best_ratio - self.tol
                    || ((ratio - best_ratio).abs() <= self.tol && alpha.abs() > best_alpha.abs());
                if better {
                    best_ratio = ratio;
                    best_alpha = alpha;
                    entering = Some(j);
                }
            }
            let Some(q) = entering else {
                // No column can repair the violated row: the duals move
                // unboundedly along ρ — the primal is infeasible.
                return Err(LpError::Infeasible);
            };
            self.check_budget()?;

            // Pivot along d = B⁻¹ a_q (same bookkeeping as the primal
            // loop; the step is x_b[p] / d[p] ≥ 0 by the sign analysis).
            let mut aq = vec![0.0; self.m];
            for &(i, v) in &self.cols[q] {
                aq[i] = v;
            }
            let d = self.ftran(&aq)?;
            if d[p].abs() < PIVOT_MIN {
                if !self.is_fresh() {
                    // Suspect update roundoff first: refactorize (which
                    // also re-solves x_B from b) and re-enter the loop.
                    self.refactor()?;
                    continue;
                }
                return Err(LpError::Numerical {
                    reason: "dual simplex pivot is numerically degenerate".to_string(),
                });
            }
            let step = self.x_b[p] / d[p];
            for (xi, &di) in self.x_b.iter_mut().zip(&d) {
                *xi -= di * step;
            }
            self.x_b[p] = step;
            let out = self.basis[p];
            self.is_basic[out] = false;
            self.is_basic[q] = true;
            self.basis[p] = q;
            pivots_done += 1;
            self.absorb_pivot(p, q)?;
        }
        Err(LpError::IterationLimit { limit: max_iter })
    }
}

/// A stateful [`SolveSession`] over the revised simplex: owns the mirror
/// program, the standard-form columns and the factorized basis, and
/// re-solves parametric mutations warm from the retained basis.
///
/// * **rhs change** ([`SolveSession::set_rhs`]) → the optimal basis is
///   still dual feasible; the basic values are recomputed and, when they
///   left the feasible region, [`Core::dual_simplex`] restores primal
///   feasibility in place.
/// * **shape-identical reload** ([`SolveSession::reload`]; a cost change
///   is one) → the basis is kept and refactorized under the new
///   coefficients through the retained sparse-LU path. The next solve
///   repairs it the same way, but checks dual feasibility before it
///   trusts a dual-simplex `Infeasible` verdict.
/// * the first solve, a cold reload, or a warm repair that fails
///   numerically → a cold two-phase solve, started from the seeded basis
///   when [`SolveSession::seed_basis`] set one.
///
/// Every warm repair ends with primal phase 2, which re-optimizes after a
/// cost change and prices once at an already-optimal basis.
#[derive(Debug)]
struct RevisedSession {
    config: RevisedSimplex,
    /// Mirror of the loaded program, kept in sync with every mutation —
    /// the source of truth for cold rebuilds and objective evaluation.
    lp: LinearProgram,
    /// The basis seed every cold start places ([`SolveSession::seed_basis`]):
    /// one entry per constraint row, empty for the plain start.
    seed: Vec<Option<usize>>,
    /// The retained basis, if any, and what the next solve must repair.
    state: State,
    /// The core's [`Core::symbolic_reuses`] total already attributed to
    /// previous reports. Symbolic reuses can happen *between* solves
    /// (a [`SolveSession::reload`] refactorizes immediately), so the
    /// per-solve delta is taken against this session-level baseline
    /// rather than an [`EffortMark`].
    symbolic_reported: usize,
    /// Per-solve work cap ([`SolveSession::set_budget`]); covers a whole
    /// [`SolveSession::solve`] call including the cold fallback.
    budget: SolveBudget,
    /// [`SolveSession::force_refactor`] was called: the next solve
    /// refreshes the retained factors from pristine columns first.
    refactor_requested: bool,
    report: SolveReport,
}

/// What a [`RevisedSession`] retains between solves.
#[derive(Debug, Clone)]
enum State {
    /// No basis: the next solve is cold.
    Cold,
    /// An optimal, hence dual-feasible, basis. `rhs_moved` marks a
    /// [`SolveSession::set_rhs`] since: the basic values are stale. A
    /// solve that ends infeasible (dual pivots keep the basis dual
    /// feasible) or out of budget leaves the state as it was.
    Optimal { core: Box<Core>, rhs_moved: bool },
    /// A basis refactorized under a shape-identical reload's
    /// coefficients; whether it is still dual feasible is not yet known.
    Reloaded { core: Box<Core> },
}

impl State {
    fn core(&self) -> Option<&Core> {
        match self {
            State::Cold => None,
            State::Optimal { core, .. } | State::Reloaded { core } => Some(core),
        }
    }
}

/// Effort counters of a core at the start of a warm attempt, so the
/// report can carry this solve's deltas rather than lifetime totals.
struct EffortMark {
    pivots: usize,
    refactorizations: usize,
    basis_updates: usize,
    priced_columns: usize,
    devex_resets: usize,
}

impl EffortMark {
    /// The mark of a fresh core: stamping against it reports the core's
    /// lifetime effort, which for a cold solve is the solve's own.
    const FRESH: EffortMark = EffortMark {
        pivots: 0,
        refactorizations: 0,
        basis_updates: 0,
        priced_columns: 0,
        devex_resets: 0,
    };

    fn take(core: &mut Core) -> Self {
        core.reset_peak_fill();
        EffortMark {
            pivots: core.pivots,
            refactorizations: core.refactorizations,
            basis_updates: core.basis_updates,
            priced_columns: core.priced_columns,
            devex_resets: core.devex_resets,
        }
    }

    fn stamp(&self, core: &Core, report: &mut SolveReport) {
        report.iterations = core.pivots - self.pivots;
        report.refactorizations = core.refactorizations - self.refactorizations;
        report.basis_updates = core.basis_updates - self.basis_updates;
        report.pricing_candidates = core.priced_columns - self.priced_columns;
        report.devex_resets = core.devex_resets - self.devex_resets;
        report.fill_in_nnz = core.peak_fill();
        report.basis_signature = core.basis_signature();
    }
}

impl RevisedSession {
    /// Warm repair of the retained basis; `None` when there is none.
    ///
    /// When the rhs moved or the basis was reloaded, the basic values are
    /// recomputed; if they left the feasible region, the dual simplex
    /// repairs them. Its ratio test clamps tolerance-level dual
    /// infeasibility, so mild pricing drift after a reload is absorbed
    /// too — but its `Infeasible` verdict is an exact dual-ray
    /// certificate only from a basis verified dual feasible. From an
    /// unverified one it is reported as numerical trouble, and the cold
    /// fallback re-derives the exact verdict. Phase-2 primal pivots then
    /// restore optimality.
    fn repair(
        &mut self,
        report: &mut SolveReport,
        budget: SolveBudget,
        faults: Option<ArmedFaults>,
    ) -> Option<Result<LpSolution, LpError>> {
        let (core, recompute, verified) = match &mut self.state {
            State::Cold => return None,
            State::Optimal { core, rhs_moved } => (core, *rhs_moved, true),
            State::Reloaded { core } => (core, true, false),
        };
        report.warm_start = true;
        core.arm(budget, faults);
        let mark = EffortMark::take(core);
        let result = (|| {
            if recompute {
                core.recompute_basics()?;
                if !core.is_primal_feasible() {
                    let dual_ok = verified || core.is_dual_feasible()?;
                    match core.dual_simplex(self.config.max_iterations) {
                        Err(LpError::Infeasible) if !dual_ok => {
                            return Err(LpError::Numerical {
                                reason: "dual repair of a dual-infeasible reloaded basis stalled"
                                    .to_string(),
                            })
                        }
                        other => other?,
                    };
                }
            }
            core.optimize(Phase::Two, self.config.pricing, self.config.max_iterations)?;
            core.extract_solution(&self.lp, core.pivots - mark.pivots)
        })();
        core.disarm();
        mark.stamp(core, report);
        Some(result)
    }

    /// Folds the core's symbolic-reuse total into `report` as a delta
    /// against the session-level baseline, then advances the baseline.
    /// Counts reuses since the last report — including reload-time
    /// refactorizations that ran between solves.
    fn note_symbolic(&mut self, report: &mut SolveReport) {
        let total = self.state.core().map_or(0, |c| c.symbolic_reuses);
        report.symbolic_reuse = total.saturating_sub(self.symbolic_reported);
        self.symbolic_reported = total;
    }

    /// A cold start: a fresh core from the seeded basis, then the
    /// two-phase pipeline. The report carries the cold core's effort
    /// whether or not the solve succeeds.
    fn solve_cold(
        &mut self,
        report: &mut SolveReport,
        budget: SolveBudget,
        faults: Option<ArmedFaults>,
    ) -> Result<LpSolution, LpError> {
        self.state = State::Cold;
        report.warm_start = false;
        let config = &self.config;
        let mut core = Core::build(
            &self.lp,
            config.tolerance,
            config.refactor_interval,
            &self.seed,
        )?;
        core.arm(budget, faults);
        let result = config.run_cold(&mut core, &self.lp);
        core.disarm();
        EffortMark::FRESH.stamp(&core, report);
        match result {
            Ok(solution) => {
                self.state = State::Optimal {
                    core: Box::new(core),
                    rhs_moved: false,
                };
                Ok(solution)
            }
            Err(e) => {
                if e == LpError::Infeasible {
                    report.infeasibility = Some(InfeasibilityCertificate::Phase1PositiveOptimum);
                }
                Err(e)
            }
        }
    }
}

/// Checks a basis seed against `lp`: one entry per constraint row, each
/// column one of the program's own variables.
fn check_seed(lp: &LinearProgram, columns: &[Option<usize>]) -> Result<(), LpError> {
    if columns.len() != lp.num_constraints() {
        return Err(LpError::BadConstraint {
            found: columns.len(),
            expected: lp.num_constraints(),
        });
    }
    match columns.iter().flatten().find(|&&j| j >= lp.num_vars()) {
        Some(&j) => Err(LpError::BadConstraint {
            found: j,
            expected: lp.num_vars(),
        }),
        None => Ok(()),
    }
}

impl SolveSession for RevisedSession {
    fn set_rhs(&mut self, row: usize, rhs: f64) -> Result<(), LpError> {
        self.lp.set_rhs(row, rhs)?;
        match &mut self.state {
            State::Cold => {}
            State::Optimal { core, rhs_moved } => {
                core.set_rhs_row(row, rhs);
                *rhs_moved = true;
            }
            State::Reloaded { core } => core.set_rhs_row(row, rhs),
        }
        Ok(())
    }

    fn reload(&mut self, lp: &LinearProgram) -> Result<ReloadKind, LpError> {
        lp.validate()?;
        let warmable = same_shape(&self.lp, lp);
        if check_seed(lp, &self.seed).is_err() {
            self.seed.clear();
        }
        self.lp = lp.clone();
        self.state = match std::mem::replace(&mut self.state, State::Cold) {
            State::Optimal { mut core, .. } | State::Reloaded { mut core } if warmable => {
                // A retained basis singular under the new coefficients
                // degrades to a cold restart, not an error.
                match core.reload_coefficients(&self.lp) {
                    Ok(()) => State::Reloaded { core },
                    Err(_) => State::Cold,
                }
            }
            _ => State::Cold,
        };
        Ok(match self.state {
            State::Reloaded { .. } => ReloadKind::Warm,
            _ => ReloadKind::Cold,
        })
    }

    fn solve(&mut self) -> Result<(LpSolution, SolveReport), LpError> {
        let mut report = SolveReport::new("revised-simplex");
        // One fault-injection solve ordinal and one budget per `solve`
        // call: a warm attempt that degrades to the cold rebuild below
        // carries both over instead of starting fresh.
        let faults = fault::arm();
        let budget = self.budget;
        // A requested refactorization (`force_refactor`) refreshes the
        // retained factors from pristine columns before any warm work; a
        // failure degrades to the cold rebuild.
        if std::mem::take(&mut self.refactor_requested) {
            if let State::Optimal { core, .. } | State::Reloaded { core } = &mut self.state {
                if core.refactor().is_err() {
                    self.state = State::Cold;
                }
            }
        }
        let result = match self.repair(&mut report, budget, faults.clone()) {
            Some(Ok(solution)) => {
                self.state = match std::mem::replace(&mut self.state, State::Cold) {
                    State::Optimal { core, .. } | State::Reloaded { core } => State::Optimal {
                        core,
                        rhs_moved: false,
                    },
                    State::Cold => State::Cold,
                };
                Ok(solution)
            }
            Some(Err(
                e @ (LpError::Infeasible | LpError::Unbounded | LpError::BudgetExhausted { .. }),
            )) => {
                // Exact verdicts (the dual simplex only reports
                // `Infeasible` from a verified dual-feasible basis), or a
                // budget that leaves nothing for a cold rebuild. The state
                // stays: a later bound relaxation, or a re-budgeted retry,
                // resumes from the retained basis.
                if e == LpError::Infeasible {
                    report.infeasibility = Some(InfeasibilityCertificate::DualRay);
                }
                Err(e)
            }
            // No retained basis, or numerical trouble on the warm path:
            // solve cold on what is left of the budget.
            _ => {
                let (spent_pivots, spent_refactors) = (report.iterations, report.refactorizations);
                let remaining = SolveBudget {
                    max_pivots: budget
                        .max_pivots
                        .map(|limit| limit.saturating_sub(spent_pivots)),
                    max_refactorizations: budget
                        .max_refactorizations
                        .map(|limit| limit.saturating_sub(spent_refactors)),
                };
                self.solve_cold(&mut report, remaining, faults)
                    .map_err(|e| match e {
                        // Report whole-solve spending, warm attempt included.
                        LpError::BudgetExhausted {
                            pivots,
                            refactorizations,
                        } => LpError::BudgetExhausted {
                            pivots: pivots + spent_pivots,
                            refactorizations: refactorizations + spent_refactors,
                        },
                        other => other,
                    })
            }
        };
        if let Err(e) = &result {
            report.termination = Termination::of_error(e);
        }
        self.note_symbolic(&mut report);
        self.report = report.clone();
        result.map(|solution| (solution, report))
    }

    fn fork(&self) -> Result<Box<dyn SolveSession>, LpError> {
        // The clone carries the core — basis, factors, *and* the
        // `Arc`-shared symbolic analysis — so the sibling's next
        // same-basis refactorization (e.g. a shape-identical reload)
        // skips the Markowitz search. The reuse baseline starts at the
        // core's current total: only reuses after the fork are reported.
        Ok(Box::new(RevisedSession {
            config: self.config.clone(),
            lp: self.lp.clone(),
            seed: self.seed.clone(),
            state: self.state.clone(),
            symbolic_reported: self.state.core().map_or(0, |c| c.symbolic_reuses),
            budget: self.budget,
            refactor_requested: self.refactor_requested,
            report: self.report.clone(),
        }))
    }

    fn last_report(&self) -> &SolveReport {
        &self.report
    }

    fn set_budget(&mut self, budget: SolveBudget) {
        self.budget = budget;
    }

    fn force_refactor(&mut self) {
        self.refactor_requested = true;
    }

    fn seed_basis(&mut self, columns: &[Option<usize>]) -> Result<(), LpError> {
        check_seed(&self.lp, columns)?;
        self.seed = columns.to_vec();
        Ok(())
    }

    fn engine_name(&self) -> &'static str {
        "revised-simplex"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintOp, Simplex};

    fn solve(lp: &LinearProgram) -> Result<LpSolution, LpError> {
        RevisedSimplex::new().solve(lp)
    }

    #[test]
    fn solves_textbook_max_problem() {
        let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 4.0)
            .unwrap();
        lp.add_constraint(&[0.0, 2.0], ConstraintOp::Le, 12.0)
            .unwrap();
        lp.add_constraint(&[3.0, 2.0], ConstraintOp::Le, 18.0)
            .unwrap();
        let s = solve(&lp).unwrap();
        assert!((s.objective() - 36.0).abs() < 1e-9);
        assert!((s.x()[0] - 2.0).abs() < 1e-9);
        assert!((s.x()[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn solves_min_problem_with_ge_constraints() {
        let mut lp = LinearProgram::minimize(&[2.0, 3.0]);
        lp.add_constraint(&[1.0, 1.0], ConstraintOp::Ge, 4.0)
            .unwrap();
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Ge, 1.0)
            .unwrap();
        let s = solve(&lp).unwrap();
        assert!((s.objective() - 8.0).abs() < 1e-9);
        assert!((s.x()[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn solves_equality_constrained_problem() {
        let mut lp = LinearProgram::minimize(&[1.0, 2.0, 3.0]);
        lp.add_constraint(&[1.0, 1.0, 1.0], ConstraintOp::Eq, 1.0)
            .unwrap();
        let s = solve(&lp).unwrap();
        assert!((s.objective() - 1.0).abs() < 1e-9);
        assert!((s.x()[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn detects_infeasibility() {
        let mut lp = LinearProgram::minimize(&[1.0]);
        lp.add_constraint(&[1.0], ConstraintOp::Le, 1.0).unwrap();
        lp.add_constraint(&[1.0], ConstraintOp::Ge, 2.0).unwrap();
        assert_eq!(solve(&lp).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let lp = LinearProgram::minimize(&[-1.0]);
        assert_eq!(solve(&lp).unwrap_err(), LpError::Unbounded);
        let mut constrained = LinearProgram::maximize(&[1.0, 1.0]);
        constrained
            .add_constraint(&[1.0, -1.0], ConstraintOp::Le, 1.0)
            .unwrap();
        assert_eq!(solve(&constrained).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn handles_negative_rhs() {
        let mut lp = LinearProgram::minimize(&[1.0, 1.0]);
        lp.add_constraint(&[1.0, -1.0], ConstraintOp::Le, -1.0)
            .unwrap();
        let s = solve(&lp).unwrap();
        assert!((s.objective() - 1.0).abs() < 1e-9);
        assert!((s.x()[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn handles_degenerate_problem() {
        let mut lp = LinearProgram::maximize(&[1.0, 1.0]);
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 0.0)
            .unwrap();
        lp.add_constraint(&[0.0, 1.0], ConstraintOp::Le, 0.0)
            .unwrap();
        lp.add_constraint(&[1.0, 1.0], ConstraintOp::Le, 0.0)
            .unwrap();
        let s = solve(&lp).unwrap();
        assert!(s.objective().abs() < 1e-9);
    }

    #[test]
    fn bland_rule_terminates_on_cycling_prone_problem() {
        // Beale's classic cycling example.
        let mut lp = LinearProgram::minimize(&[-0.75, 150.0, -0.02, 6.0]);
        lp.add_constraint(&[0.25, -60.0, -0.04, 9.0], ConstraintOp::Le, 0.0)
            .unwrap();
        lp.add_constraint(&[0.5, -90.0, -0.02, 3.0], ConstraintOp::Le, 0.0)
            .unwrap();
        lp.add_constraint(&[0.0, 0.0, 1.0, 0.0], ConstraintOp::Le, 1.0)
            .unwrap();
        for rule in [PricingRule::Bland, PricingRule::Dantzig] {
            let s = RevisedSimplex::new().with_pricing(rule).solve(&lp).unwrap();
            assert!((s.objective() - (-0.05)).abs() < 1e-9, "rule {rule:?}");
        }
    }

    #[test]
    fn redundant_equality_rows_are_tolerated() {
        let mut lp = LinearProgram::minimize(&[1.0, 1.0]);
        lp.add_constraint(&[1.0, 1.0], ConstraintOp::Eq, 1.0)
            .unwrap();
        lp.add_constraint(&[2.0, 2.0], ConstraintOp::Eq, 2.0)
            .unwrap();
        let s = solve(&lp).unwrap();
        assert!((s.objective() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_refactor_interval_still_converges() {
        // Forces a refactorization on every pivot: correctness must not
        // depend on the in-place updates at all.
        let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 4.0)
            .unwrap();
        lp.add_constraint(&[0.0, 2.0], ConstraintOp::Le, 12.0)
            .unwrap();
        lp.add_constraint(&[3.0, 2.0], ConstraintOp::Le, 18.0)
            .unwrap();
        let s = RevisedSimplex::new()
            .refactor_interval(1)
            .solve(&lp)
            .unwrap();
        assert!((s.objective() - 36.0).abs() < 1e-9);
    }

    #[test]
    fn agrees_with_dense_simplex_on_random_battery() {
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 2000) as f64 / 1000.0 - 1.0
        };
        for trial in 0..25 {
            let n = 3 + trial % 5;
            let m = 2 + trial % 4;
            let c: Vec<f64> = (0..n).map(|_| next()).collect();
            let mut lp = LinearProgram::minimize(&c);
            for _ in 0..m {
                let row: Vec<f64> = (0..n).map(|_| next()).collect();
                let rhs: f64 = row.iter().sum::<f64>() + 0.5;
                lp.add_constraint(&row, ConstraintOp::Le, rhs).unwrap();
            }
            for j in 0..n {
                let mut row = vec![0.0; n];
                row[j] = 1.0;
                lp.add_constraint(&row, ConstraintOp::Le, 10.0).unwrap();
            }
            let revised = solve(&lp).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            let dense = Simplex::new().solve(&lp).unwrap();
            assert!(
                (revised.objective() - dense.objective()).abs() < 1e-7,
                "trial {trial}: revised {} vs dense {}",
                revised.objective(),
                dense.objective()
            );
            assert!(
                lp.max_violation(revised.x()) < 1e-7,
                "trial {trial}: violation {}",
                lp.max_violation(revised.x())
            );
        }
    }

    #[test]
    fn duals_match_dense_simplex_on_inequalities() {
        let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 4.0)
            .unwrap();
        lp.add_constraint(&[0.0, 2.0], ConstraintOp::Le, 12.0)
            .unwrap();
        lp.add_constraint(&[3.0, 2.0], ConstraintOp::Le, 18.0)
            .unwrap();
        let revised = solve(&lp).unwrap();
        let dense = Simplex::new().solve(&lp).unwrap();
        let (rd, dd) = (revised.dual().unwrap(), dense.dual().unwrap());
        for (i, (a, b)) in rd.iter().zip(dd).enumerate() {
            assert!((a - b).abs() < 1e-9, "row {i}: revised {a} vs dense {b}");
        }
    }

    #[test]
    fn no_constraints_is_trivially_optimal_at_zero() {
        let lp = LinearProgram::minimize(&[1.0, 2.0]);
        let s = solve(&lp).unwrap();
        assert_eq!(s.x(), &[0.0, 0.0]);
        assert_eq!(s.objective(), 0.0);
    }

    #[test]
    fn warm_rhs_resolve_matches_cold() {
        // A parametric sweep over one bound: the warm session must track
        // independent cold solves exactly, with warm starts after the
        // first point.
        let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 4.0)
            .unwrap();
        lp.add_constraint(&[0.0, 2.0], ConstraintOp::Le, 12.0)
            .unwrap();
        lp.add_constraint(&[3.0, 2.0], ConstraintOp::Le, 18.0)
            .unwrap();
        let mut session = RevisedSimplex::new().start(&lp).unwrap();
        for (i, bound) in [18.0, 15.0, 12.0, 9.0, 13.5, 20.0].into_iter().enumerate() {
            session.set_rhs(2, bound).unwrap();
            let (warm, report) = session.solve().unwrap();
            lp.set_rhs(2, bound).unwrap();
            let cold = solve(&lp).unwrap();
            assert!(
                (warm.objective() - cold.objective()).abs() < 1e-9,
                "bound {bound}: warm {} vs cold {}",
                warm.objective(),
                cold.objective()
            );
            assert!(lp.max_violation(warm.x()) < 1e-9, "bound {bound}");
            assert_eq!(report.warm_start, i > 0, "bound {bound}");
        }
    }

    /// `lp` under the costs `c`. The constraints are unchanged, so a
    /// reload of it is shape-identical: how a session takes a cost change.
    fn with_costs(lp: &LinearProgram, c: &[f64]) -> LinearProgram {
        let mut next = if lp.is_maximize() {
            LinearProgram::maximize(c)
        } else {
            LinearProgram::minimize(c)
        };
        for i in 0..lp.num_constraints() {
            let (entries, op, rhs) = lp.constraint_entries(i);
            next.add_sparse_constraint(entries, op, rhs).unwrap();
        }
        next
    }

    #[test]
    fn warm_objective_resolve_matches_cold() {
        let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 4.0)
            .unwrap();
        lp.add_constraint(&[0.0, 2.0], ConstraintOp::Le, 12.0)
            .unwrap();
        lp.add_constraint(&[3.0, 2.0], ConstraintOp::Le, 18.0)
            .unwrap();
        let mut session = RevisedSimplex::new().start(&lp).unwrap();
        session.solve().unwrap();
        let recosted = with_costs(&lp, &[5.0, 3.0]);
        assert_eq!(session.reload(&recosted).unwrap(), ReloadKind::Warm);
        let (warm, report) = session.solve().unwrap();
        assert!(report.warm_start);
        // max 5x + 3y: x = 4 (first bound), y = 3 (third bound).
        assert!((warm.objective() - 29.0).abs() < 1e-9);
        assert!((warm.x()[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn warm_infeasible_then_feasible_again() {
        // Drive the session into the infeasible region and back out; the
        // dual-ray certificate must be reported and the warm basis must
        // survive the round trip.
        let mut lp = LinearProgram::minimize(&[2.0, 3.0]);
        lp.add_constraint(&[1.0, 1.0], ConstraintOp::Ge, 4.0)
            .unwrap();
        lp.add_constraint(&[1.0, 1.0], ConstraintOp::Le, 10.0)
            .unwrap();
        let mut session = RevisedSimplex::new().start(&lp).unwrap();
        let (first, _) = session.solve().unwrap();
        assert!((first.objective() - 8.0).abs() < 1e-9);
        // Ge 4 with Le 2 is empty.
        session.set_rhs(1, 2.0).unwrap();
        assert_eq!(session.solve().unwrap_err(), LpError::Infeasible);
        let report = session.last_report();
        assert!(report.warm_start);
        assert_eq!(
            report.infeasibility,
            Some(InfeasibilityCertificate::DualRay)
        );
        // Relax back: the session recovers without a cold restart.
        session.set_rhs(1, 5.0).unwrap();
        let (again, report) = session.solve().unwrap();
        assert!(report.warm_start);
        assert!((again.objective() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn simultaneous_rhs_and_objective_change_repairs_warm_and_correct() {
        let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 4.0)
            .unwrap();
        lp.add_constraint(&[0.0, 2.0], ConstraintOp::Le, 12.0)
            .unwrap();
        let mut session = RevisedSimplex::new().start(&lp).unwrap();
        session.solve().unwrap();
        // Both moves in one shape-identical reload.
        let mut moved = with_costs(&lp, &[10.0, 1.0]);
        moved.set_rhs(0, 2.0).unwrap();
        assert_eq!(session.reload(&moved).unwrap(), ReloadKind::Warm);
        let (solution, report) = session.solve().unwrap();
        assert!(report.warm_start);
        // max 10x + y: x = 2, y = 6.
        assert!((solution.objective() - 26.0).abs() < 1e-9);
        // And the session is warm again afterwards.
        session.set_rhs(0, 3.0).unwrap();
        let (next, report) = session.solve().unwrap();
        assert!(report.warm_start);
        assert!((next.objective() - 36.0).abs() < 1e-9);
    }

    #[test]
    fn session_reports_count_refactorizations() {
        let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 4.0)
            .unwrap();
        lp.add_constraint(&[0.0, 2.0], ConstraintOp::Le, 12.0)
            .unwrap();
        lp.add_constraint(&[3.0, 2.0], ConstraintOp::Le, 18.0)
            .unwrap();
        let mut session = RevisedSimplex::new()
            .refactor_interval(1)
            .start(&lp)
            .unwrap();
        let (_, cold_report) = session.solve().unwrap();
        // refactor_interval(1) refactorizes on every pivot, plus the
        // build-time and extraction-time factorizations.
        assert!(cold_report.refactorizations > cold_report.iterations);
        session.set_rhs(2, 15.0).unwrap();
        let (_, warm_report) = session.solve().unwrap();
        assert!(warm_report.warm_start);
        assert!(warm_report.refactorizations >= 1); // extraction refactor
    }

    #[test]
    fn reports_carry_factorization_counters_and_signature() {
        let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 4.0)
            .unwrap();
        lp.add_constraint(&[0.0, 2.0], ConstraintOp::Le, 12.0)
            .unwrap();
        lp.add_constraint(&[3.0, 2.0], ConstraintOp::Le, 18.0)
            .unwrap();
        let mut session = RevisedSimplex::new().start(&lp).unwrap();
        let (_, first) = session.solve().unwrap();
        assert!(first.iterations > 0);
        assert!(
            first.basis_updates > 0,
            "a multi-pivot solve under the default interval absorbs updates in place"
        );
        assert_ne!(first.basis_signature, 0);
        // An untouched model re-solves at the same basis: same signature,
        // zero further pivots.
        let (_, again) = session.solve().unwrap();
        assert_eq!(again.basis_signature, first.basis_signature);
        assert_eq!(again.iterations, 0);
        assert_eq!(again.basis_updates, 0);
        // A different optimum means a different basic set.
        session.reload(&with_costs(&lp, &[5.0, 3.0])).unwrap();
        let (_, moved) = session.solve().unwrap();
        assert_ne!(moved.basis_signature, first.basis_signature);
    }

    #[test]
    fn reload_same_shape_is_warm_and_matches_cold() {
        let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 4.0)
            .unwrap();
        lp.add_constraint(&[0.0, 2.0], ConstraintOp::Le, 12.0)
            .unwrap();
        lp.add_constraint(&[3.0, 2.0], ConstraintOp::Le, 18.0)
            .unwrap();
        let mut session = RevisedSimplex::new().start(&lp).unwrap();
        session.solve().unwrap();
        // Drift every coefficient (same pattern), rhs and objective.
        let mut drifted = LinearProgram::maximize(&[2.5, 5.5]);
        drifted
            .add_constraint(&[1.2, 0.0], ConstraintOp::Le, 4.5)
            .unwrap();
        drifted
            .add_constraint(&[0.0, 1.8], ConstraintOp::Le, 11.0)
            .unwrap();
        drifted
            .add_constraint(&[2.9, 2.2], ConstraintOp::Le, 17.0)
            .unwrap();
        assert_eq!(session.reload(&drifted).unwrap(), ReloadKind::Warm);
        let (warm, report) = session.solve().unwrap();
        assert!(report.warm_start);
        let cold = solve(&drifted).unwrap();
        assert!(
            (warm.objective() - cold.objective()).abs() < 1e-9,
            "warm {} vs cold {}",
            warm.objective(),
            cold.objective()
        );
        assert!(drifted.max_violation(warm.x()) < 1e-9);
        // And the session keeps working parametrically afterwards.
        session.set_rhs(0, 2.0).unwrap();
        let (next, report) = session.solve().unwrap();
        assert!(report.warm_start);
        drifted.set_rhs(0, 2.0).unwrap();
        let reference = solve(&drifted).unwrap();
        assert!((next.objective() - reference.objective()).abs() < 1e-9);
    }

    #[test]
    fn reload_shape_change_goes_cold() {
        let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
        lp.add_constraint(&[1.0, 1.0], ConstraintOp::Le, 4.0)
            .unwrap();
        let mut session = RevisedSimplex::new().start(&lp).unwrap();
        session.solve().unwrap();
        // Extra constraint: different shape, cold rebuild.
        let mut grown = lp.clone();
        grown
            .add_constraint(&[1.0, 1.0], ConstraintOp::Le, 6.0)
            .unwrap();
        assert_eq!(session.reload(&grown).unwrap(), ReloadKind::Cold);
        let (solution, report) = session.solve().unwrap();
        assert!(!report.warm_start);
        let cold = solve(&grown).unwrap();
        assert!((solution.objective() - cold.objective()).abs() < 1e-9);
        // After the cold solve the session is warm again and a further
        // same-shape reload is warm.
        let mut drifted = grown.clone();
        drifted.set_rhs(1, 5.0).unwrap();
        assert_eq!(session.reload(&drifted).unwrap(), ReloadKind::Warm);
        let (again, report) = session.solve().unwrap();
        assert!(report.warm_start);
        let reference = solve(&drifted).unwrap();
        assert!((again.objective() - reference.objective()).abs() < 1e-9);
    }

    #[test]
    fn reload_before_first_solve_is_cold() {
        let mut lp = LinearProgram::minimize(&[1.0, 2.0]);
        lp.add_constraint(&[1.0, 1.0], ConstraintOp::Ge, 4.0)
            .unwrap();
        let mut session = RevisedSimplex::new().start(&lp).unwrap();
        let mut other = lp.clone();
        other.set_rhs(0, 6.0).unwrap();
        assert_eq!(session.reload(&other).unwrap(), ReloadKind::Cold);
        let (solution, report) = session.solve().unwrap();
        assert!(!report.warm_start);
        assert!((solution.objective() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn reload_into_infeasible_and_back() {
        let mut lp = LinearProgram::minimize(&[2.0, 3.0]);
        lp.add_constraint(&[1.0, 1.0], ConstraintOp::Ge, 4.0)
            .unwrap();
        lp.add_constraint(&[1.0, 1.0], ConstraintOp::Le, 10.0)
            .unwrap();
        let mut session = RevisedSimplex::new().start(&lp).unwrap();
        session.solve().unwrap();
        let mut impossible = lp.clone();
        impossible.set_rhs(1, 2.0).unwrap();
        assert_eq!(session.reload(&impossible).unwrap(), ReloadKind::Warm);
        assert_eq!(session.solve().unwrap_err(), LpError::Infeasible);
        assert_eq!(
            session.last_report().infeasibility,
            Some(InfeasibilityCertificate::DualRay)
        );
        // Reload back out of the infeasible region.
        assert_eq!(session.reload(&lp).unwrap(), ReloadKind::Warm);
        let (recovered, _) = session.solve().unwrap();
        assert!((recovered.objective() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn random_battery_reload_matches_cold_resolve() {
        // Random same-pattern coefficient drifts, each followed by an
        // objective-only drift: warm reload must track independent cold
        // solves on feasible instances.
        let mut seed = 0xA076_1D64_78BD_642Fu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 2000) as f64 / 1000.0 - 1.0
        };
        for trial in 0..20 {
            let n = 3 + trial % 4;
            let m = 2 + trial % 3;
            let mut rows: Vec<Vec<f64>> = Vec::new();
            let c: Vec<f64> = (0..n).map(|_| next()).collect();
            let mut lp = LinearProgram::minimize(&c);
            for _ in 0..m {
                // Strictly nonzero entries so drifts keep the pattern.
                let row: Vec<f64> = (0..n).map(|_| next() + 2.0).collect();
                let rhs: f64 = row.iter().sum::<f64>() + 0.5;
                lp.add_constraint(&row, ConstraintOp::Le, rhs).unwrap();
                rows.push(row);
            }
            let mut session = RevisedSimplex::new().start(&lp).unwrap();
            session.solve().unwrap();
            for step in 0..3 {
                let drift_c: Vec<f64> = c.iter().map(|&v| v + 0.1 * next()).collect();
                let mut drifted = LinearProgram::minimize(&drift_c);
                for row in &rows {
                    let drow: Vec<f64> = row.iter().map(|&v| v + 0.2 * next()).collect();
                    let rhs: f64 = drow.iter().sum::<f64>() * 0.5 + 1.0;
                    drifted
                        .add_constraint(&drow, ConstraintOp::Le, rhs)
                        .unwrap();
                }
                let recost: Vec<f64> = drift_c.iter().map(|&v| v + 0.5 * next()).collect();
                let recosted = with_costs(&drifted, &recost);
                for program in [&drifted, &recosted] {
                    assert_eq!(
                        session.reload(program).unwrap(),
                        ReloadKind::Warm,
                        "trial {trial} step {step}"
                    );
                    let (warm, _) = session.solve().unwrap();
                    let cold = solve(program).unwrap();
                    assert!(
                        (warm.objective() - cold.objective()).abs() < 1e-7,
                        "trial {trial} step {step}: warm {} vs cold {}",
                        warm.objective(),
                        cold.objective()
                    );
                    assert!(
                        program.max_violation(warm.x()) < 1e-7,
                        "trial {trial} step {step}"
                    );
                }
            }
        }
    }

    /// The textbook furniture LP plus a same-pattern drifted twin, for
    /// the symbolic-reuse and fork tests below.
    fn furniture_pair() -> (LinearProgram, LinearProgram) {
        let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 4.0)
            .unwrap();
        lp.add_constraint(&[0.0, 2.0], ConstraintOp::Le, 12.0)
            .unwrap();
        lp.add_constraint(&[3.0, 2.0], ConstraintOp::Le, 18.0)
            .unwrap();
        let mut drifted = LinearProgram::maximize(&[3.2, 4.8]);
        drifted
            .add_constraint(&[1.1, 0.0], ConstraintOp::Le, 4.2)
            .unwrap();
        drifted
            .add_constraint(&[0.0, 2.1], ConstraintOp::Le, 11.5)
            .unwrap();
        drifted
            .add_constraint(&[2.8, 2.2], ConstraintOp::Le, 17.5)
            .unwrap();
        (lp, drifted)
    }

    #[test]
    fn warm_reload_reuses_symbolic_analysis() {
        let (lp, drifted) = furniture_pair();
        let mut session = RevisedSimplex::new().start(&lp).unwrap();
        let (_, first) = session.solve().unwrap();
        // The first solve analyzes every basis it factorizes fresh.
        assert_eq!(first.symbolic_reuse, 0);
        // A shape-identical reload refactorizes the *retained* basis —
        // the exact basis the extraction-time analysis was stored for.
        assert_eq!(session.reload(&drifted).unwrap(), ReloadKind::Warm);
        let (warm, report) = session.solve().unwrap();
        assert!(report.warm_start);
        assert!(
            report.symbolic_reuse > 0,
            "reload-path refactorization should skip the Markowitz search"
        );
        let cold = solve(&drifted).unwrap();
        assert!((warm.objective() - cold.objective()).abs() < 1e-9);
    }

    #[test]
    fn forked_session_shares_symbolic_and_solves_independently() {
        let (lp, drifted) = furniture_pair();
        let mut session = RevisedSimplex::new().start(&lp).unwrap();
        let (base, _) = session.solve().unwrap();
        let mut fork = session.fork().unwrap();
        // The fork re-solves its inherited model at zero pivots...
        let (forked, report) = fork.solve().unwrap();
        assert!(report.warm_start);
        assert_eq!(report.iterations, 0);
        assert!((forked.objective() - base.objective()).abs() < 1e-9);
        // ...and a shape-identical reload reuses the parent's symbolic
        // analysis through the shared `Arc`.
        assert_eq!(fork.reload(&drifted).unwrap(), ReloadKind::Warm);
        let (warm, report) = fork.solve().unwrap();
        assert!(report.symbolic_reuse > 0, "fork should reuse symbolic");
        let cold = solve(&drifted).unwrap();
        assert!((warm.objective() - cold.objective()).abs() < 1e-9);
        // The parent is untouched by the fork's mutations.
        let (parent, _) = session.solve().unwrap();
        assert!((parent.objective() - base.objective()).abs() < 1e-9);
    }

    #[test]
    fn fork_before_first_solve_is_cold_but_correct() {
        let (lp, _) = furniture_pair();
        let session = RevisedSimplex::new().start(&lp).unwrap();
        let mut fork = session.fork().unwrap();
        let (solution, report) = fork.solve().unwrap();
        assert!(!report.warm_start);
        assert!((solution.objective() - 36.0).abs() < 1e-9);
    }

    #[test]
    fn budget_exhaustion_is_recoverable() {
        let (lp, _) = furniture_pair();
        let mut session = RevisedSimplex::new().start(&lp).unwrap();
        session.set_budget(SolveBudget::pivots(0));
        let err = session.solve().unwrap_err();
        assert!(matches!(err, LpError::BudgetExhausted { .. }), "{err:?}");
        assert_eq!(
            session.last_report().termination,
            Termination::BudgetExhausted
        );
        // The session survives: lifting the budget solves to optimality.
        session.set_budget(SolveBudget::UNLIMITED);
        let (solution, report) = session.solve().unwrap();
        assert_eq!(report.termination, Termination::Optimal);
        assert!((solution.objective() - 36.0).abs() < 1e-9);
    }

    #[test]
    fn zero_pivot_resolve_succeeds_under_zero_budget() {
        // Re-solving an untouched model needs no pivots, so even an empty
        // budget must succeed: exhaustion is about work, not about calls.
        let (lp, _) = furniture_pair();
        let mut session = RevisedSimplex::new().start(&lp).unwrap();
        let (first, _) = session.solve().unwrap();
        session.set_budget(SolveBudget::pivots(0));
        let (again, report) = session.solve().unwrap();
        assert!(report.warm_start);
        assert_eq!(report.iterations, 0);
        assert_eq!(report.termination, Termination::Optimal);
        assert!((again.objective() - first.objective()).abs() < 1e-9);
    }

    #[test]
    fn pivot_budget_is_never_exceeded() {
        // Maximize Σ (j+1)·x_j with every x_j ≤ 1 and Σ x_j ≤ 6: each
        // variable that ends positive must enter the basis, so the cold
        // solve needs at least six pivots.
        let n = 8;
        let mut lp = LinearProgram::maximize(&(1..=n).map(|j| j as f64).collect::<Vec<_>>());
        for j in 0..n {
            let mut unit = vec![0.0; n];
            unit[j] = 1.0;
            lp.add_constraint(&unit, ConstraintOp::Le, 1.0).unwrap();
        }
        lp.add_constraint(&vec![1.0; n], ConstraintOp::Le, 6.0)
            .unwrap();
        let needed = RevisedSimplex::new()
            .start(&lp)
            .unwrap()
            .solve()
            .unwrap()
            .1
            .iterations;
        assert!(needed > 5, "the program needs only {needed} pivots");
        for limit in 0..=5 {
            let mut session = RevisedSimplex::new().start(&lp).unwrap();
            session.set_budget(SolveBudget::pivots(limit));
            let err = session.solve().unwrap_err();
            assert!(
                matches!(err, LpError::BudgetExhausted { pivots, .. } if pivots == limit),
                "limit {limit}: {err:?}"
            );
            assert_eq!(session.last_report().iterations, limit);
        }
    }

    #[test]
    fn refactorization_budget_trips_under_tiny_interval() {
        let (lp, _) = furniture_pair();
        let mut session = RevisedSimplex::new()
            .refactor_interval(1)
            .start(&lp)
            .unwrap();
        session.set_budget(SolveBudget {
            max_pivots: None,
            max_refactorizations: Some(0),
        });
        let err = session.solve().unwrap_err();
        assert!(matches!(err, LpError::BudgetExhausted { .. }), "{err:?}");
    }

    #[test]
    fn zero_iteration_limit_errors() {
        let mut lp = LinearProgram::maximize(&[1.0]);
        lp.add_constraint(&[1.0], ConstraintOp::Le, 1.0).unwrap();
        let err = RevisedSimplex::new()
            .max_iterations(0)
            .solve(&lp)
            .unwrap_err();
        assert!(matches!(err, LpError::IterationLimit { .. }));
    }

    /// `x0 + x1 = 1`, `x0 − x1 = 0`, `x0 ≤ bound`: the only vertex is
    /// `x = (½, ½)`, so `[x0, x1]` on the equality rows is its basis.
    fn two_equalities(bound: f64) -> LinearProgram {
        let mut lp = LinearProgram::minimize(&[1.0, 2.0, 0.0]);
        lp.add_constraint(&[1.0, 1.0, 0.0], ConstraintOp::Eq, 1.0)
            .unwrap();
        lp.add_constraint(&[1.0, -1.0, 0.0], ConstraintOp::Eq, 0.0)
            .unwrap();
        lp.add_constraint(&[1.0, 0.0, 0.0], ConstraintOp::Le, bound)
            .unwrap();
        lp
    }

    fn start(lp: &LinearProgram, seed: &[Option<usize>]) -> Core {
        Core::build(lp, 1e-9, 128, seed).unwrap()
    }

    #[test]
    fn a_feasible_seed_starts_without_artificials() {
        let lp = two_equalities(1.0);
        let core = start(&lp, &[Some(0), Some(1), None]);
        // Seeded columns, then the bound row's slack (column 3).
        assert_eq!(core.basis, [0, 1, 3]);
        assert_eq!(core.num_artificial, 0);
        assert!(core.is_primal_feasible());
        // The plain start needs one artificial per equality row.
        let plain = start(&lp, &[]);
        assert_eq!(plain.num_artificial, 2);
        assert_eq!(plain.basis, start(&lp, &[None, None, None]).basis);
    }

    #[test]
    fn a_violated_inequality_gets_a_negated_artificial() {
        // x0 = ½ violates x0 ≤ ¼: the slack would be −¼.
        let lp = two_equalities(0.25);
        let core = start(&lp, &[Some(0), Some(1), None]);
        assert_eq!(core.basis[..2], [0, 1]);
        let artificial = core.basis[2];
        assert!(artificial >= core.num_structural);
        assert_eq!(core.cols[artificial], [(2, -1.0)]);
        assert!((core.x_b[2] - 0.25).abs() < 1e-12);
        assert!((core.phase1_objective() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn singular_duplicate_and_negative_seeds_are_dropped() {
        let lp = two_equalities(1.0);
        let plain = start(&lp, &[]).basis;
        // Column 2 appears in no row: singular.
        assert_eq!(start(&lp, &[Some(2), Some(1), None]).basis, plain);
        // One column twice.
        assert_eq!(start(&lp, &[Some(0), Some(0), None]).basis, plain);
        // x0 alone on row 0 and x1 on the bound row: x0 = 1 from row 0,
        // then row 1 forces the artificial to 1 and row 2 x1 = 0 − 1.
        let mut negative = LinearProgram::minimize(&[1.0, 1.0]);
        negative
            .add_constraint(&[1.0, 0.0], ConstraintOp::Eq, 1.0)
            .unwrap();
        negative
            .add_constraint(&[1.0, 1.0], ConstraintOp::Eq, 0.5)
            .unwrap();
        assert_eq!(
            start(&negative, &[Some(0), Some(1)]).basis,
            start(&negative, &[]).basis
        );
    }

    #[test]
    fn seeded_sessions_keep_the_seed_across_forks_and_reloads() {
        let lp = two_equalities(1.0);
        let mut session = RevisedSimplex::new().start(&lp).unwrap();
        session.seed_basis(&[Some(0), Some(1), None]).unwrap();
        let fork = session.fork();
        let (seeded, report) = session.solve().unwrap();
        // The seeded basis is the optimum: no pivot at all.
        assert_eq!(report.iterations, 0);
        assert!((seeded.objective() - 1.5).abs() < 1e-12);
        let (forked, report) = fork.unwrap().solve().unwrap();
        assert_eq!(report.iterations, 0);
        assert_eq!(forked.objective(), seeded.objective());
        // The unseeded start pivots both artificials out.
        let (plain, report) = RevisedSimplex::new().start(&lp).unwrap().solve().unwrap();
        assert!(report.iterations >= 2);
        assert!((plain.objective() - seeded.objective()).abs() < 1e-12);
        // A cold reload to a program the seed no longer fits clears it.
        let mut grown = lp.clone();
        grown
            .add_constraint(&[0.0, 0.0, 1.0], ConstraintOp::Le, 1.0)
            .unwrap();
        assert_eq!(session.reload(&grown).unwrap(), ReloadKind::Cold);
        let (_, report) = session.solve().unwrap();
        assert!(report.iterations >= 2, "the unfitting seed was cleared");
        // A cold reload to a program it still fits keeps it.
        session.seed_basis(&[Some(0), Some(1), None, None]).unwrap();
        let mut reshaped = lp.clone();
        reshaped
            .add_constraint(&[0.0, 1.0, 1.0], ConstraintOp::Le, 2.0)
            .unwrap();
        assert_eq!(session.reload(&reshaped).unwrap(), ReloadKind::Cold);
        let (_, report) = session.solve().unwrap();
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn seeds_must_fit_the_program() {
        let lp = two_equalities(1.0);
        let mut session = RevisedSimplex::new().start(&lp).unwrap();
        let bad = |found, expected| Err(LpError::BadConstraint { found, expected });
        assert_eq!(session.seed_basis(&[Some(0)]), bad(1, 3));
        assert_eq!(session.seed_basis(&[None, Some(3), None]), bad(3, 3));
        // Engines without a basis ignore seeds.
        let mut dense = Simplex::new().start(&lp).unwrap();
        assert_eq!(dense.seed_basis(&[Some(9)]), Ok(()));
    }

    #[test]
    fn a_failed_cold_solve_reports_its_effort() {
        // x0 + x1 ≥ 4 with both variables boxed at 1: phase 1 pivots and
        // ends at a positive artificial.
        let mut lp = LinearProgram::minimize(&[1.0, 1.0]);
        lp.add_constraint(&[1.0, 1.0], ConstraintOp::Ge, 4.0)
            .unwrap();
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 1.0)
            .unwrap();
        lp.add_constraint(&[0.0, 1.0], ConstraintOp::Le, 1.0)
            .unwrap();
        let mut session = RevisedSimplex::new().start(&lp).unwrap();
        assert_eq!(session.solve().unwrap_err(), LpError::Infeasible);
        let report = session.last_report();
        assert_eq!(report.termination, Termination::Infeasible);
        assert!(report.iterations >= 2, "{report:?}");
        assert!(report.refactorizations >= 1, "{report:?}");
        assert!(report.pricing_candidates > 0, "{report:?}");
    }
}
