use dpm_linalg::{LuDecomposition, Matrix};

use crate::problem::ConstraintOp;
use crate::session::{ColdSession, InfeasibilityCertificate};
use crate::{LinearProgram, LpError, LpSolution, LpSolver, SolveSession};

/// Pricing and ratio-test tolerance of the tableau.
const TOLERANCE: f64 = 1e-9;
/// Phase-1 artificial sum above which the program is infeasible.
const PHASE1_TOLERANCE: f64 = 1e-7;

/// Two-phase primal simplex method on a dense tableau.
///
/// Phase 1 minimizes the sum of artificial variables to find a basic
/// feasible solution (detecting infeasibility exactly); phase 2 optimizes
/// the real objective (detecting unboundedness exactly). Degeneracy —
/// which the occupation-measure LPs of the policy optimizer exhibit
/// routinely, and which used to send this engine into 10⁵-pivot crawls
/// past ~50 composed states — is handled by four cooperating mechanisms:
///
/// * **Steepest-edge pricing**: the entering column maximizes
///   `rc²/(1 + ‖B⁻¹aⱼ‖²)`. Scores are exact because the tableau body
///   *is* `B⁻¹A`, and the rule cuts pivot counts on degenerate LPs by
///   orders of magnitude versus Dantzig. A prolonged stall switches to
///   Bland's rule, which guarantees termination.
/// * **Largest-pivot ratio-test tie-break**: among the (routinely huge)
///   families of tied degenerate rows, the leaving row with the largest
///   pivot element is chosen, so the basis never absorbs a
///   near-tolerance pivot that would make it numerically singular.
/// * **Periodic exact refresh**: every so many pivots the tableau is
///   recomputed from the pristine constraint data and current basis —
///   the dense analogue of the revised simplex's refactorization — so
///   Gauss–Jordan roundoff cannot compound into phantom feasibility.
/// * **Cost perturbation**: both phases run against costs jittered by a
///   tiny deterministic per-column amount to break reduced-cost ties;
///   exact-cost cleanup passes then remove the perturbation before the
///   solution is read off, so it never changes the reported optimum. The
///   phase-1 feasibility verdict is likewise measured on the exact
///   artificial values, and the Bland stall fallback still guarantees
///   termination.
///
/// # Example
///
/// ```
/// use dpm_lp::{ConstraintOp, LinearProgram, LpSolver, Simplex};
///
/// # fn main() -> Result<(), dpm_lp::LpError> {
/// // The classic "furniture factory": maximize 3x + 5y.
/// let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
/// lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 4.0)?;
/// lp.add_constraint(&[0.0, 2.0], ConstraintOp::Le, 12.0)?;
/// lp.add_constraint(&[3.0, 2.0], ConstraintOp::Le, 18.0)?;
/// let s = Simplex::new().solve(&lp)?;
/// assert!((s.objective() - 36.0).abs() < 1e-9);
/// assert!((s.x()[0] - 2.0).abs() < 1e-9);
/// assert!((s.x()[1] - 6.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simplex {
    max_iterations: usize,
}

impl Default for Simplex {
    fn default() -> Self {
        Self::new()
    }
}

impl Simplex {
    /// Creates a solver with default settings (steepest-edge pricing with
    /// Bland fallback, tolerance `1e-9`, generous iteration limit).
    pub fn new() -> Self {
        Simplex {
            max_iterations: 50_000,
        }
    }

    /// Sets the iteration limit (per phase).
    pub fn max_iterations(mut self, limit: usize) -> Self {
        self.max_iterations = limit;
        self
    }
}

impl LpSolver for Simplex {
    fn start(&self, lp: &LinearProgram) -> Result<Box<dyn SolveSession>, LpError> {
        // The dense tableau keeps no state worth warming: sessions are
        // correct cold re-solves over an owned copy of the program.
        // Phase-1 termination with a positive optimum is this engine's
        // (exact) infeasibility certificate.
        Ok(Box::new(ColdSession::new(
            self,
            lp,
            InfeasibilityCertificate::Phase1PositiveOptimum,
        )?))
    }

    fn solve(&self, lp: &LinearProgram) -> Result<LpSolution, LpError> {
        lp.validate()?;
        let mut t = Tableau::build(lp, TOLERANCE)?;
        t.perturb_costs();
        let mut iterations = 0;

        if t.needs_phase1() {
            iterations += t.optimize_phase1(self.max_iterations)?;
            if t.phase1_objective() > PHASE1_TOLERANCE {
                return Err(LpError::Infeasible);
            }
            t.drop_artificials()?;
        }
        match t.optimize_phase2(self.max_iterations) {
            Ok(n) => iterations += n,
            // A perturbed ray is only trusted if the exact costs confirm
            // it: positive jitter cannot create a descent ray that the
            // pristine objective lacks, so a perturbed `Unbounded` with a
            // bounded original is numerical noise — fall through and let
            // the exact cleanup pass deliver the verdict.
            Err(LpError::Unbounded) => {}
            Err(e) => return Err(e),
        }
        // Cleanup passes: `optimize_phase2` rebuilds the objective row
        // from the stored costs and the current basis, so re-running it
        // (a) strips the cost perturbation and (b) surfaces improving
        // columns that accumulated tableau roundoff had hidden. Iterate
        // until a rebuilt row certifies optimality (almost always one
        // extra pass; bounded to keep the worst case finite).
        t.restore_costs();
        for _ in 0..4 {
            t.refresh_from_basis();
            let extra = t.optimize_phase2(self.max_iterations)?;
            iterations += extra;
            if extra == 0 {
                break;
            }
        }

        // Long pivot sequences on ill-conditioned bases (the occupation
        // LPs have condition ~ horizon) accumulate roundoff in the dense
        // tableau. Re-solve the final basis system from the original data
        // to recover full accuracy.
        let x_full = t.refined_primal().unwrap_or_else(|| t.primal_solution());
        let x: Vec<f64> = x_full[..lp.num_vars()].to_vec();
        let objective = lp.objective_value(&x);
        let dual = t.dual_solution();
        Ok(LpSolution::new(x, objective, iterations, Some(dual)))
    }

    fn name(&self) -> &'static str {
        "simplex"
    }
}

/// Dense simplex tableau.
///
/// Layout: `rows` = one per constraint plus the objective row (last).
/// Columns: structural variables (original + slack/surplus), then artificial
/// variables, then the right-hand side (last column).
struct Tableau {
    /// (m+1) x (total_cols+1) dense tableau.
    data: Vec<Vec<f64>>,
    /// Index of the basic variable of each constraint row.
    basis: Vec<usize>,
    /// Number of structural (non-artificial) columns.
    num_structural: usize,
    /// Number of artificial columns (0 after `drop_artificials`).
    num_artificial: usize,
    /// Phase-2 objective coefficients for all structural columns
    /// (minimization orientation). Jittered in place by `perturb_costs`;
    /// the pristine values move to `pristine_cost` until `restore_costs`.
    cost: Vec<f64>,
    /// Phase-1 cost of each artificial column (1.0, or 1.0 + jitter).
    phase1_cost: Vec<f64>,
    /// Original `cost` while a perturbation is active.
    pristine_cost: Option<Vec<f64>>,
    /// Number of constraint rows.
    m: usize,
    tol: f64,
    /// Which rows were negated to make the rhs non-negative; used to
    /// recover duals with the right orientation.
    row_flipped: Vec<bool>,
    /// Original constraint senses, in row order.
    ops: Vec<ConstraintOp>,
    /// Number of variables belonging to the caller (before slacks).
    num_user_vars: usize,
    /// Pristine copy of the (sign-normalized) constraint rows, including
    /// artificial columns, used for end-of-solve iterative refinement.
    orig_rows: Vec<Vec<f64>>,
    /// Pristine right-hand side matching `orig_rows`.
    orig_b: Vec<f64>,
}

impl Tableau {
    fn build(lp: &LinearProgram, tol: f64) -> Result<Self, LpError> {
        let sf = lp.to_standard_form()?;
        let m = sf.b.len();
        let n = sf.c.len();

        // Rows with negative rhs are negated so b >= 0 (required for the
        // artificial-variable construction).
        let mut a_rows: Vec<Vec<f64>> = (0..m).map(|i| sf.a.row(i).to_vec()).collect();
        let mut b = sf.b.clone();
        let mut row_flipped = vec![false; m];
        for i in 0..m {
            if b[i] < 0.0 {
                for v in a_rows[i].iter_mut() {
                    *v = -*v;
                }
                b[i] = -b[i];
                row_flipped[i] = true;
            }
        }

        // A slack column with +1 in a b>=0 row can serve directly as the
        // initial basic variable for that row; all other rows need an
        // artificial variable.
        let mut basis = vec![usize::MAX; m];
        for j in 0..n {
            // Find unit columns among slacks (columns past the originals).
            if j < sf.num_original_vars {
                continue;
            }
            let mut unit_row = None;
            let mut ok = true;
            for (i, row) in a_rows.iter().enumerate() {
                let v = row[j];
                if v == 1.0 {
                    if unit_row.is_some() {
                        ok = false;
                        break;
                    }
                    unit_row = Some(i);
                } else if v != 0.0 {
                    ok = false;
                    break;
                }
            }
            if ok {
                if let Some(i) = unit_row {
                    if basis[i] == usize::MAX {
                        basis[i] = j;
                    }
                }
            }
        }

        let rows_needing_artificial: Vec<usize> =
            (0..m).filter(|&i| basis[i] == usize::MAX).collect();
        let num_artificial = rows_needing_artificial.len();
        let total = n + num_artificial;

        // data[i] has total+1 entries; last is rhs.
        let mut data: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        for i in 0..m {
            let mut row = vec![0.0; total + 1];
            row[..n].copy_from_slice(&a_rows[i]);
            row[total] = b[i];
            data.push(row);
        }
        for (k, &i) in rows_needing_artificial.iter().enumerate() {
            data[i][n + k] = 1.0;
            basis[i] = n + k;
        }
        // Objective row (filled by the phase initializers).
        data.push(vec![0.0; total + 1]);

        let ops = (0..m).map(|i| lp.constraint_entries(i).1).collect();
        let orig_rows: Vec<Vec<f64>> = data[..m].iter().map(|r| r[..total].to_vec()).collect();
        let orig_b = b.clone();
        Ok(Tableau {
            data,
            basis,
            num_structural: n,
            num_artificial,
            cost: sf.c,
            phase1_cost: vec![1.0; num_artificial],
            pristine_cost: None,
            m,
            tol,
            row_flipped,
            ops,
            num_user_vars: sf.num_original_vars,
            orig_rows,
            orig_b,
        })
    }

    fn needs_phase1(&self) -> bool {
        self.num_artificial > 0
    }

    /// Deterministic per-column jitter in `[0.5, 1.5)` (splitmix64 of the
    /// column index), so perturbed runs are exactly reproducible.
    fn jitter(j: usize) -> f64 {
        let mut z = (j as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        0.5 + (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Jitters the phase-1 and phase-2 costs by ~1e-7 of their scale to
    /// break reduced-cost ties on degenerate vertices. Minimization
    /// orientation is preserved: all jitters are positive, so the
    /// perturbed phase-1 objective is still zero exactly when the LP is
    /// feasible.
    fn perturb_costs(&mut self) {
        for (k, w) in self.phase1_cost.iter_mut().enumerate() {
            *w = 1.0 + 1e-7 * Self::jitter(k);
        }
        let scale = self.cost.iter().fold(1.0f64, |a, c| a.max(c.abs()));
        let pristine = self.cost.clone();
        for (j, c) in self.cost.iter_mut().enumerate() {
            *c += 1e-7 * scale * Self::jitter(j);
        }
        self.pristine_cost = Some(pristine);
    }

    /// Undoes `perturb_costs`; callers then re-run `optimize_phase2` to
    /// certify optimality against the exact costs.
    fn restore_costs(&mut self) {
        if let Some(pristine) = self.pristine_cost.take() {
            self.cost = pristine;
        }
    }

    fn total_cols(&self) -> usize {
        self.num_structural + self.num_artificial
    }

    /// Sets the objective row to the phase-1 objective (sum of artificials)
    /// expressed in terms of the current basis, then optimizes.
    fn optimize_phase1(&mut self, max_iter: usize) -> Result<usize, LpError> {
        self.rebuild_phase1_obj_row();
        self.run(max_iter, self.total_cols(), true)
    }

    /// Writes the phase-1 objective row — reduced costs of the artificial
    /// cost vector (`phase1_cost[k]` on artificial `k`, 0 elsewhere) with
    /// respect to the current basis.
    fn rebuild_phase1_obj_row(&mut self) {
        let total = self.total_cols();
        let obj_row = self.m;
        for j in 0..=total {
            let mut v = 0.0;
            for i in 0..self.m {
                let bi = self.basis[i];
                if bi >= self.num_structural {
                    v -= self.phase1_cost[bi - self.num_structural] * self.data[i][j];
                }
            }
            self.data[obj_row][j] = v;
        }
        for (k, j) in (self.num_structural..total).enumerate() {
            self.data[obj_row][j] += self.phase1_cost[k];
        }
    }

    /// Exact sum of the artificial variables' values — the feasibility
    /// verdict. Read off the basic rows rather than the objective cell so
    /// a phase-1 cost perturbation cannot tilt it.
    fn phase1_objective(&self) -> f64 {
        let rhs_col = self.total_cols();
        (0..self.m)
            .filter(|&i| self.basis[i] >= self.num_structural)
            .map(|i| self.data[i][rhs_col])
            .sum()
    }

    /// Removes artificial columns after a successful phase 1. Artificials
    /// still basic (at value 0, by feasibility) are pivoted out when
    /// possible; rows that cannot be pivoted are redundant and are cleared.
    fn drop_artificials(&mut self) -> Result<(), LpError> {
        let n = self.num_structural;
        for i in 0..self.m {
            if self.basis[i] >= n {
                // Try to pivot in any structural column with a nonzero
                // entry in this row.
                let mut pivot_col = None;
                for j in 0..n {
                    if self.data[i][j].abs() > self.tol {
                        pivot_col = Some(j);
                        break;
                    }
                }
                match pivot_col {
                    Some(j) => self.pivot(i, j),
                    None => {
                        // Redundant row: every structural coefficient is 0
                        // and the artificial basic variable is 0. Leave the
                        // basis marker pointing at the artificial; the row
                        // is inert for phase 2.
                    }
                }
            }
        }
        // Truncate artificial columns (keep rhs as the new last column).
        let total_old = self.total_cols();
        for row in self.data.iter_mut() {
            let rhs = row[total_old];
            row.truncate(n);
            row.push(rhs);
        }
        self.num_artificial = 0;
        Ok(())
    }

    /// Sets the phase-2 objective row from the stored costs and optimizes.
    fn optimize_phase2(&mut self, max_iter: usize) -> Result<usize, LpError> {
        debug_assert_eq!(self.num_artificial, 0);
        self.rebuild_phase2_obj_row();
        self.run(max_iter, self.num_structural, false)
    }

    /// Writes the phase-2 objective row: reduced costs `c_j − c_B B⁻¹ A_j`
    /// for every column, and `−c_B·x_B` in the rhs position (the tableau
    /// stores −objective there).
    fn rebuild_phase2_obj_row(&mut self) {
        let n = self.num_structural;
        let obj_row = self.m;
        for j in 0..=n {
            let cj = if j < n { self.cost[j] } else { 0.0 };
            let mut v = cj;
            for i in 0..self.m {
                let bi = self.basis[i];
                if bi < n {
                    v -= self.cost[bi] * self.data[i][j];
                }
            }
            self.data[obj_row][j] = v;
        }
    }

    /// Core simplex loop over the first `num_cols` columns.
    fn run(&mut self, max_iter: usize, num_cols: usize, phase1: bool) -> Result<usize, LpError> {
        let obj_row = self.m;
        let rhs_col = self.total_cols();
        let mut use_bland = false;
        // Switch to Bland if objective fails to improve for this many pivots.
        let stall_limit = 4 * (self.m + num_cols).max(64);
        let mut stall = 0usize;
        // The tableau stores −objective in the rhs cell of the objective
        // row, so progress (for minimization) shows as an *increase*.
        let mut last_obj = f64::NEG_INFINITY;
        // Gauss–Jordan roundoff compounds across pivots — long degenerate
        // stretches on ill-conditioned bases can drift the rhs column far
        // enough that ratio tests pick wrong rows and the "feasible" basis
        // quietly stops being one. Rebuild the tableau exactly from the
        // pristine data every so many pivots, like the revised simplex
        // refactorizes its LU.
        const REFRESH_INTERVAL: usize = 128;

        for iter in 0..max_iter {
            if iter > 0 && iter % REFRESH_INTERVAL == 0 && self.refresh_from_basis() {
                // Exact arithmetic would give a non-negative rhs; clamp
                // the roundoff-scale negatives the refresh surfaces.
                for i in 0..self.m {
                    if self.data[i][rhs_col] < 0.0 {
                        self.data[i][rhs_col] = 0.0;
                    }
                }
                if phase1 {
                    self.rebuild_phase1_obj_row();
                } else {
                    self.rebuild_phase2_obj_row();
                }
                // Rebase stall detection on the refreshed (exact) value —
                // resetting it outright would let a cycling run dodge the
                // Bland fallback forever.
                last_obj = last_obj.max(self.data[obj_row][rhs_col]);
            }
            // Pricing: pick the entering column.
            let mut entering = None;
            if use_bland {
                for j in 0..num_cols {
                    if self.data[obj_row][j] < -self.tol {
                        entering = Some(j);
                        break;
                    }
                }
            } else {
                // Score improving columns by rc²/(1 + ‖B⁻¹aⱼ‖²). The
                // tableau body *is* B⁻¹A, so the norms are exact; the
                // row-major accumulation keeps the scan cache-friendly.
                let improving: Vec<usize> = (0..num_cols)
                    .filter(|&j| self.data[obj_row][j] < -self.tol)
                    .collect();
                let mut norm2 = vec![1.0f64; improving.len()];
                for row in self.data[..self.m].iter() {
                    for (n2, &j) in norm2.iter_mut().zip(&improving) {
                        let v = row[j];
                        *n2 += v * v;
                    }
                }
                let mut best = f64::NEG_INFINITY;
                for (&j, &n2) in improving.iter().zip(&norm2) {
                    let rc = self.data[obj_row][j];
                    let score = rc * rc / n2;
                    if score > best {
                        best = score;
                        entering = Some(j);
                    }
                }
            }
            let Some(col) = entering else {
                return Ok(iter);
            };

            // Ratio test: pick the leaving row. Under Bland's rule ties
            // go to the smallest basis index, which combined with Bland
            // pricing guarantees termination. Otherwise ties — and on
            // these degenerate LPs most pivots are whole families of tied
            // zero-ratio rows — go to the largest pivot element: pivoting
            // on a near-tolerance entry manufactures a numerically
            // singular basis in one step, which is exactly how the dense
            // tableau used to drift infeasible.
            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            let mut best_pivot = 0.0f64;
            for i in 0..self.m {
                let aij = self.data[i][col];
                if aij > self.tol {
                    let ratio = self.data[i][rhs_col] / aij;
                    let better = match leaving {
                        None => true,
                        Some(l) => {
                            if ratio < best_ratio - self.tol {
                                true
                            } else if (ratio - best_ratio).abs() <= self.tol {
                                if use_bland {
                                    self.basis[i] < self.basis[l]
                                } else {
                                    aij > best_pivot
                                }
                            } else {
                                false
                            }
                        }
                    };
                    if better {
                        leaving = Some(i);
                        best_ratio = best_ratio.min(ratio);
                        best_pivot = aij;
                    }
                }
            }
            let Some(row) = leaving else {
                return Err(LpError::Unbounded);
            };

            self.pivot(row, col);

            // Stall detection: a long run without progress switches to Bland.
            let obj = self.data[obj_row][rhs_col];
            if obj > last_obj + self.tol {
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

    /// Gauss–Jordan pivot on (row, col).
    fn pivot(&mut self, row: usize, col: usize) {
        let width = self.total_cols() + 1;
        let pivot_val = self.data[row][col];
        debug_assert!(pivot_val.abs() > 0.0);
        let inv = 1.0 / pivot_val;
        for j in 0..width {
            self.data[row][j] *= inv;
        }
        self.data[row][col] = 1.0; // kill roundoff on the pivot itself
        for i in 0..=self.m {
            if i == row {
                continue;
            }
            let factor = self.data[i][col];
            if factor == 0.0 {
                continue;
            }
            // Manual split to satisfy the borrow checker without cloning.
            let (pivot_row, target_row) = if i < row {
                let (a, b) = self.data.split_at_mut(row);
                (&b[0], &mut a[i])
            } else {
                let (a, b) = self.data.split_at_mut(i);
                (&a[row], &mut b[0])
            };
            for j in 0..width {
                target_row[j] -= factor * pivot_row[j];
            }
            target_row[col] = 0.0;
        }
        self.basis[row] = col;
    }

    /// Recomputes the tableau body and right-hand side exactly from the
    /// pristine constraint data and the current basis — the dense
    /// analogue of a refactorization. After a long pivot sequence the
    /// Gauss–Jordan updates have accumulated enough roundoff to misprice
    /// columns; a refresh restores `data = [B⁻¹A | B⁻¹b]` to working
    /// precision so the certifying pass judges exact reduced costs.
    /// Leaves the tableau untouched (and returns `false`) when the basis
    /// matrix is singular, which only happens on redundant-row bases.
    fn refresh_from_basis(&mut self) -> bool {
        let m = self.m;
        let mut basis_matrix = Matrix::zeros(m, m);
        for (k, &col) in self.basis.iter().enumerate() {
            for (r, row) in self.orig_rows.iter().enumerate() {
                basis_matrix[(r, k)] = row.get(col).copied().unwrap_or(0.0);
            }
        }
        let Ok(lu) = LuDecomposition::new(&basis_matrix) else {
            return false;
        };
        let total = self.total_cols();
        let rhs_col = total;
        let mut col_buf = vec![0.0; m];
        for j in 0..=total {
            for (i, row) in self.orig_rows.iter().enumerate() {
                col_buf[i] = if j == rhs_col {
                    self.orig_b[i]
                } else {
                    row.get(j).copied().unwrap_or(0.0)
                };
            }
            let Ok(solved) = lu.solve(&col_buf) else {
                return false;
            };
            for (i, &v) in solved.iter().take(m).enumerate() {
                self.data[i][j] = v;
            }
        }
        // Basic columns are unit columns by definition; pin them exactly.
        // (A dropped-artificial basis marker points past `total` and has
        // no tableau column to pin.)
        for (k, &col) in self.basis.iter().enumerate() {
            if col < total {
                for i in 0..m {
                    self.data[i][col] = if i == k { 1.0 } else { 0.0 };
                }
            }
        }
        true
    }

    /// Re-solves `B x_B = b` for the final basis against the pristine
    /// constraint data, eliminating accumulated tableau roundoff. Returns
    /// `None` when the basis matrix is singular (redundant rows) or the
    /// refined solution is not acceptably non-negative — callers then fall
    /// back to the tableau values.
    fn refined_primal(&self) -> Option<Vec<f64>> {
        let m = self.m;
        let mut basis_matrix = Matrix::zeros(m, m);
        for (k, &col) in self.basis.iter().enumerate() {
            for (r, row) in self.orig_rows.iter().enumerate() {
                basis_matrix[(r, k)] = row.get(col).copied().unwrap_or(0.0);
            }
        }
        let lu = LuDecomposition::new(&basis_matrix).ok()?;
        let xb = lu.solve(&self.orig_b).ok()?;
        let mut x = vec![0.0; self.num_structural];
        for (k, &col) in self.basis.iter().enumerate() {
            if col < self.num_structural {
                if xb[k] < -1e-7 {
                    return None;
                }
                x[col] = xb[k].max(0.0);
            } else if xb[k].abs() > 1e-7 {
                // A basic artificial with nonzero value: refinement cannot
                // certify feasibility.
                return None;
            }
        }
        Some(x)
    }

    fn primal_solution(&self) -> Vec<f64> {
        let rhs_col = self.total_cols();
        let mut x = vec![0.0; self.num_structural];
        for i in 0..self.m {
            let b = self.basis[i];
            if b < self.num_structural {
                x[b] = self.data[i][rhs_col];
            }
        }
        x
    }

    /// Reads the duals off the final objective row.
    ///
    /// The reduced cost of the slack column of constraint `i` equals `−yᵢ`
    /// (or `+yᵢ` for a surplus column), so inequality duals are available
    /// for free. Equality constraints have no slack column; their entry is
    /// reported as 0.0 — the policy optimizer only inspects inequality
    /// duals (the constraint "prices" of Theorem 4.1).
    fn dual_solution(&self) -> Vec<f64> {
        let mut duals = vec![0.0; self.m];
        let mut slack_col = self.num_user_vars;
        for (i, dual) in duals.iter_mut().enumerate() {
            match self.ops[i] {
                ConstraintOp::Eq => {}
                op => {
                    let rc = self.data[self.m][slack_col];
                    let op_sign = if op == ConstraintOp::Ge { 1.0 } else { -1.0 };
                    let flip = if self.row_flipped[i] { -1.0 } else { 1.0 };
                    *dual = flip * op_sign * rc;
                    slack_col += 1;
                }
            }
        }
        duals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstraintOp;

    fn solve(lp: &LinearProgram) -> Result<LpSolution, LpError> {
        Simplex::new().solve(lp)
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
        // minimize 2x + 3y s.t. x + y >= 4, x >= 1  → x=3? No: cheapest is
        // x=4,y=0 (cost 8) vs x=1,y=3 (cost 11) → x=4.
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
        // minimize x + 2y + 3z s.t. x+y+z = 1 → all mass on x.
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
    }

    #[test]
    fn detects_unboundedness_with_constraints() {
        let mut lp = LinearProgram::maximize(&[1.0, 1.0]);
        lp.add_constraint(&[1.0, -1.0], ConstraintOp::Le, 1.0)
            .unwrap();
        assert_eq!(solve(&lp).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn handles_negative_rhs() {
        // x - y <= -1 with min x+y → x=0, y=1.
        let mut lp = LinearProgram::minimize(&[1.0, 1.0]);
        lp.add_constraint(&[1.0, -1.0], ConstraintOp::Le, -1.0)
            .unwrap();
        let s = solve(&lp).unwrap();
        assert!((s.objective() - 1.0).abs() < 1e-9);
        assert!((s.x()[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn handles_degenerate_problem() {
        // Degenerate vertex: three constraints meet at (0, 0).
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
        // Beale's classic cycling example (cycles under naive Dantzig).
        let mut lp = LinearProgram::minimize(&[-0.75, 150.0, -0.02, 6.0]);
        lp.add_constraint(&[0.25, -60.0, -0.04, 9.0], ConstraintOp::Le, 0.0)
            .unwrap();
        lp.add_constraint(&[0.5, -90.0, -0.02, 3.0], ConstraintOp::Le, 0.0)
            .unwrap();
        lp.add_constraint(&[0.0, 0.0, 1.0, 0.0], ConstraintOp::Le, 1.0)
            .unwrap();
        let s = Simplex::new().solve(&lp).unwrap();
        assert!((s.objective() - (-0.05)).abs() < 1e-9);
    }

    #[test]
    fn redundant_equality_rows_are_tolerated() {
        // Same constraint twice: phase 1 leaves a redundant artificial row.
        let mut lp = LinearProgram::minimize(&[1.0, 1.0]);
        lp.add_constraint(&[1.0, 1.0], ConstraintOp::Eq, 1.0)
            .unwrap();
        lp.add_constraint(&[2.0, 2.0], ConstraintOp::Eq, 2.0)
            .unwrap();
        let s = solve(&lp).unwrap();
        assert!((s.objective() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn solution_is_feasible_for_random_like_problems() {
        // A fixed battery of pseudo-random feasible LPs: x = e is feasible
        // by construction (b = A·e + margin).
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
            // Bound the feasible region so the problem cannot be unbounded.
            for j in 0..n {
                let mut row = vec![0.0; n];
                row[j] = 1.0;
                lp.add_constraint(&row, ConstraintOp::Le, 10.0).unwrap();
            }
            let s = solve(&lp).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            assert!(
                lp.max_violation(s.x()) < 1e-7,
                "trial {trial}: violation {}",
                lp.max_violation(s.x())
            );
            // Optimal must be at least as good as the known feasible x = e.
            let ones = vec![1.0; n];
            assert!(s.objective() <= lp.objective_value(&ones) + 1e-7);
        }
    }

    #[test]
    fn reports_iterations() {
        let mut lp = LinearProgram::maximize(&[1.0]);
        lp.add_constraint(&[1.0], ConstraintOp::Le, 1.0).unwrap();
        let s = solve(&lp).unwrap();
        assert!(s.iterations() >= 1);
    }

    #[test]
    fn zero_iteration_limit_errors() {
        let mut lp = LinearProgram::maximize(&[1.0]);
        lp.add_constraint(&[1.0], ConstraintOp::Le, 1.0).unwrap();
        let err = Simplex::new().max_iterations(0).solve(&lp).unwrap_err();
        assert!(matches!(err, LpError::IterationLimit { .. }));
    }
}
