//! Sparse LU factorization with Markowitz pivoting and Forrest–Tomlin
//! column-replacement updates — the basis engine of the revised simplex.
//!
//! A simplex basis drawn from an occupation-measure LP is extremely
//! sparse: a balance row holds `+1` on a state's own action variables and
//! `−α·p` on its in-flows, so a few hundred- or thousand-row basis carries
//! only a handful of nonzeros per column. The dense
//! [`LuDecomposition`](crate::LuDecomposition) pays `O(m³)` per
//! factorization and `O(m²)` per solve regardless; this module's
//! [`SparseLu`] pays for the *nonzeros it actually touches*:
//!
//! * **Factorization** eliminates pivots in an order chosen by the
//!   **Markowitz criterion** — minimize `(r−1)·(c−1)` over the candidate
//!   entry's row count `r` and column count `c`, the classic greedy bound
//!   on fill-in — subject to **threshold partial pivoting** (an entry is
//!   admissible when it is within a fixed factor of its column's largest,
//!   so sparsity-driven pivot choices cannot wreck stability).
//! * **Solves** are sparse triangular substitutions through the stored
//!   `L` and `U` factors, for both `Ax = b` ([`SparseLu::solve`]) and
//!   `Aᵀx = b` ([`SparseLu::solve_transposed`]) — the simplex FTRAN and
//!   BTRAN kernels.
//! * **Updates**: [`SparseLu::replace_column`] performs a
//!   **Forrest–Tomlin update** when one column of the factored matrix is
//!   replaced (a simplex basis change): the spike column `w = L⁻¹a` is
//!   installed in `U`, the spiked row is cycled to the last pivot
//!   position, and the resulting row spike is eliminated by a short row
//!   transformation that is appended to the factorization. The factors
//!   *themselves* stay sparse — unlike a product-form eta file, whose
//!   dense `m`-vectors accumulate per pivot.
//!
//! Fill-in is tracked ([`SparseLu::fill_in`]) so callers can report how
//! far the factors drifted from the input's sparsity. Updates are exact:
//! every nonzero of the spike is installed, so the updated factors
//! represent the new matrix up to roundoff. Update stability is tracked
//! too: [`SparseLu::update_growth`] exposes a Bartels–Golub-style growth
//! gauge callers use to force an early refactorization before
//! accumulated updates lose accuracy.
//!
//! The analysis itself is reusable: [`SparseLu::symbolic`] exposes the
//! pivot sequence as an [`Arc`]-shared [`SymbolicLu`], and
//! [`SparseLu::from_columns_with_symbolic`] refactorizes a
//! shape-identical matrix along that fixed order in pure `O(nnz)`
//! elimination work — no Markowitz search. A fleet of solver sessions
//! whose bases share one sparsity pattern pays for one analysis.
//!
//! # Example
//!
//! ```
//! use dpm_linalg::SparseLu;
//!
//! # fn main() -> Result<(), dpm_linalg::LinalgError> {
//! // The 3×3 matrix [[2,1,0],[0,3,0],[0,0,4]] given by sparse columns.
//! let cols: Vec<Vec<(usize, f64)>> = vec![
//!     vec![(0, 2.0)],
//!     vec![(0, 1.0), (1, 3.0)],
//!     vec![(2, 4.0)],
//! ];
//! let mut lu = SparseLu::from_columns(3, &cols)?;
//! let x = lu.solve(&[5.0, 6.0, 8.0])?;
//! assert!((x[0] - 1.5).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
//!
//! // Replace column 0 by [0, 1, 1]ᵀ — a Forrest–Tomlin update.
//! lu.replace_column(0, &[(1, 1.0), (2, 1.0)])?;
//! let y = lu.solve(&[2.0, 3.0, 5.0])?;
//! assert!((y[1] - 2.0).abs() < 1e-12); // row 0 now reads x1 alone
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use crate::{LinalgError, DEFAULT_PIVOT_TOLERANCE};

/// Relative threshold for partial pivoting: an entry is an admissible
/// pivot when its magnitude is at least this fraction of the largest
/// magnitude in its column. Larger values favor stability, smaller values
/// favor sparsity; 0.1 is the textbook compromise (Duff–Erisman–Reid).
const PIVOT_THRESHOLD: f64 = 0.1;

/// Relaxed admissibility threshold for refactorization along a *fixed*
/// symbolic order: the prescribed pivot only has to carry this fraction
/// of its column's weight. Looser than [`PIVOT_THRESHOLD`] because a
/// mild value drift must not invalidate a sound elimination order; a
/// pivot that decays below this has genuinely degenerated and the caller
/// falls back to a fresh Markowitz analysis.
const REFACTOR_PIVOT_THRESHOLD: f64 = 0.01;

/// How many lowest-count candidate columns the Markowitz search examines
/// per pivot before settling (Suhl-style bounded search). Keeps pivot
/// selection `O(n)` per step while capturing almost all the fill savings
/// of an exhaustive search.
const MARKOWITZ_CANDIDATES: usize = 8;

/// One Forrest–Tomlin row transformation: after an update, the spiked row
/// `target` was eliminated as `row_target ← row_target − Σ mⱼ·row_j`.
#[derive(Debug, Clone)]
struct RowEta {
    /// Pivot id of the eliminated (spiked) row.
    target: usize,
    /// `(pivot id j, multiplier mⱼ)` terms, in elimination order.
    terms: Vec<(usize, f64)>,
}

/// The symbolic half of a [`SparseLu`] factorization: the pivot sequence
/// the Markowitz analysis chose — which original row and column are
/// eliminated at each step, which fixes the elimination structure and
/// the fill pattern it induces.
///
/// A shape-identical matrix (same dimension and sparsity pattern,
/// drifted values) can be refactorized along this order with
/// [`SparseLu::from_columns_with_symbolic`], skipping the Markowitz
/// search entirely. The structure is handed out `Arc`-shared
/// ([`SparseLu::symbolic`]) so thousands of solver sessions factoring
/// the same LP shape pay for **one** analysis.
#[derive(Debug)]
pub struct SymbolicLu {
    n: usize,
    /// `row_of[k]` = original row eliminated at step `k`.
    row_of: Vec<usize>,
    /// `col_of[k]` = original column eliminated at step `k`.
    col_of: Vec<usize>,
}

impl SymbolicLu {
    /// Dimension of the analyzed matrix.
    pub fn dim(&self) -> usize {
        self.n
    }
}

/// Sparse LU factorization `A = Pᵀ L U Qᵀ` of a square matrix given by
/// sparse columns, with Markowitz-ordered threshold pivoting and
/// Forrest–Tomlin column-replacement updates.
///
/// `P`/`Q` are the row/column permutations the pivot order induces; `L` is
/// unit lower triangular and stays **fixed** after factorization, while
/// `U` (stored by rows, with a dynamic triangular ordering) absorbs
/// [`replace_column`](Self::replace_column) updates together with a short
/// list of row transformations. See the module docs for the algorithm.
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Columns of `L` in elimination-step order; entries are
    /// `(original row, multiplier)` for rows eliminated later.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// `row_of[k]` = original row eliminated at step `k`.
    row_of: Vec<usize>,
    /// Inverse of `row_of`.
    row_pos: Vec<usize>,
    /// `slot_of[id]` = original column pivot `id` factors.
    slot_of: Vec<usize>,
    /// Inverse of `slot_of`: original column → pivot id.
    id_of_slot: Vec<usize>,
    /// Diagonal of `U` by pivot id.
    udiag: Vec<f64>,
    /// Off-diagonal entries of `U` row `id`, keyed by *column pivot id*;
    /// every entry's column orders after its row (see `order`).
    urows: Vec<Vec<(usize, f64)>>,
    /// Row pivot ids holding an entry in `U` column `id`.
    ucols: Vec<Vec<usize>>,
    /// Current triangular ordering of pivot ids (changed by updates).
    order: Vec<usize>,
    /// Inverse of `order`: pivot id → position.
    pos: Vec<usize>,
    /// Forrest–Tomlin row transformations, applied after the `L` solve.
    etas: Vec<RowEta>,
    /// Nonzeros of the matrix as factored (for fill-in accounting).
    base_nnz: usize,
    /// Column replacements absorbed since factorization.
    updates: usize,
    /// The pivot sequence, shared with every factorization derived from
    /// the same symbolic analysis.
    symbolic: Arc<SymbolicLu>,
    /// Bartels–Golub-style growth gauge over the absorbed updates:
    /// the largest update multiplier / spike-to-diagonal ratio seen.
    /// Resets to 1 on (re)factorization.
    growth: f64,
    /// Stability ceiling for [`Self::replace_column`]: an update that
    /// would push `growth` past this refuses with
    /// [`LinalgError::UpdateRefused`]. Unlimited by default.
    growth_limit: f64,
}

impl SparseLu {
    /// Factorizes the `n × n` matrix whose `j`-th column is
    /// `columns[j]`, a list of `(row, value)` pairs (any order; duplicate
    /// rows within a column are summed, exact zeros ignored).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] when `columns.len() != n` or
    ///   an entry's row index is out of range.
    /// * [`LinalgError::NonFiniteEntry`] on NaN/∞ values.
    /// * [`LinalgError::SingularMatrix`] when elimination runs out of
    ///   pivots above the tolerance — the matrix is singular (possibly
    ///   only structurally) to working precision.
    pub fn from_columns<C: AsRef<[(usize, f64)]>>(
        n: usize,
        columns: &[C],
    ) -> Result<Self, LinalgError> {
        let (mut state, base_nnz) = Factorizer::build(n, columns)?;
        for step in 0..n {
            let (pr, pc) = state.choose_pivot(step)?;
            state.eliminate(pr, pc);
        }
        Ok(state.finish(base_nnz))
    }

    /// Refactorizes a **shape-identical** matrix along the fixed pivot
    /// sequence of a previous analysis — the numeric half of the
    /// symbolic/numeric split. No Markowitz search runs: each step
    /// eliminates the prescribed `(row, column)` pair, so the cost is
    /// pure `O(nnz)` elimination work and the returned factorization
    /// shares `symbolic` (see [`Self::symbolic`]).
    ///
    /// Pivot admissibility is still checked, against the relaxed
    /// fixed-order threshold: a prescribed pivot that lost too much of
    /// its column's weight fails with
    /// [`LinalgError::SingularMatrix`], and the caller should fall back
    /// to a fresh [`Self::from_columns`] analysis.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] /
    ///   [`LinalgError::NonFiniteEntry`] as in [`Self::from_columns`].
    /// * [`LinalgError::SingularMatrix`] when a prescribed pivot is
    ///   absent, inadmissibly small, or the matrix degenerated under
    ///   this order.
    pub fn from_columns_with_symbolic<C: AsRef<[(usize, f64)]>>(
        symbolic: &Arc<SymbolicLu>,
        columns: &[C],
    ) -> Result<Self, LinalgError> {
        let n = symbolic.n;
        let (mut state, base_nnz) = Factorizer::build(n, columns)?;
        for step in 0..n {
            let (pr, pc) = (symbolic.row_of[step], symbolic.col_of[step]);
            state.prepare_pivot(pr, pc, step)?;
            state.eliminate(pr, pc);
        }
        let mut lu = state.finish(base_nnz);
        lu.symbolic = Arc::clone(symbolic);
        Ok(lu)
    }

    /// The `Arc`-shared symbolic analysis (pivot sequence) this
    /// factorization follows — pass it to
    /// [`Self::from_columns_with_symbolic`] to refactorize
    /// shape-identical matrices without repeating the Markowitz search.
    pub fn symbolic(&self) -> Arc<SymbolicLu> {
        Arc::clone(&self.symbolic)
    }

    /// The update-stability gauge: the largest elimination multiplier /
    /// spike-to-diagonal ratio absorbed since (re)factorization, `1.0`
    /// right after factorizing. A large value means accumulated
    /// Forrest–Tomlin updates are amplifying rounding error and the
    /// caller should refactorize early.
    pub fn update_growth(&self) -> f64 {
        self.growth
    }

    /// Installs a stability ceiling on the update-growth gauge:
    /// a [`Self::replace_column`] call that would push
    /// [`Self::update_growth`] past `limit` is **refused** with
    /// [`LinalgError::UpdateRefused`] instead of silently absorbing an
    /// update whose roundoff amplification can no longer be trusted.
    /// Like every update error, a refusal leaves the factors
    /// inconsistent — the caller's refactorization fallback handles it.
    ///
    /// The default is `f64::INFINITY` (never refuse); the limit survives
    /// updates but not refactorization (a rebuilt factorization starts
    /// unlimited again).
    pub fn set_growth_limit(&mut self, limit: f64) {
        self.growth_limit = limit;
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored nonzeros across `L`, `U` (diagonal included) and the update
    /// row transformations.
    pub fn nnz_factors(&self) -> usize {
        let l: usize = self.l_cols.iter().map(Vec::len).sum();
        let u: usize = self.urows.iter().map(Vec::len).sum();
        let e: usize = self.etas.iter().map(|eta| eta.terms.len()).sum();
        l + u + self.n + e
    }

    /// Fill-in: nonzeros the factors hold beyond the factored matrix's
    /// own. Grows with updates; a refactorization resets it.
    pub fn fill_in(&self) -> usize {
        self.nnz_factors().saturating_sub(self.base_nnz)
    }

    /// Column replacements absorbed since the factorization was computed.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Solves `A x = b` through the factors (simplex FTRAN).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] when `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.check_len(b)?;
        let w = self.backward_u(&self.forward_l(b));
        let mut x = vec![0.0; self.n];
        for (id, &wi) in w.iter().enumerate() {
            x[self.slot_of[id]] = wi;
        }
        Ok(x)
    }

    /// Solves `Aᵀ x = b` through the same factors (simplex BTRAN).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] when `b.len() != self.dim()`.
    pub fn solve_transposed(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.check_len(b)?;
        let n = self.n;
        // Uᵀ z = Qᵀ b: forward substitution over the triangular order,
        // scattering each solved component into the rows below it.
        let mut acc = vec![0.0; n];
        let mut z = vec![0.0; n];
        for &id in &self.order {
            let zi = (b[self.slot_of[id]] - acc[id]) / self.udiag[id];
            z[id] = zi;
            if zi != 0.0 {
                for &(c, v) in &self.urows[id] {
                    acc[c] += v * zi;
                }
            }
        }
        // Transposed row transformations, in reverse.
        for eta in self.etas.iter().rev() {
            let zt = z[eta.target];
            if zt != 0.0 {
                for &(j, m) in &eta.terms {
                    z[j] -= m * zt;
                }
            }
        }
        // Lᵀ w = z: backward substitution over the fixed elimination order.
        let mut w = vec![0.0; n];
        for k in (0..n).rev() {
            let mut s = z[k];
            for &(i, f) in &self.l_cols[k] {
                s -= f * w[self.row_pos[i]];
            }
            w[k] = s;
        }
        let mut x = vec![0.0; n];
        for (k, &wk) in w.iter().enumerate() {
            x[self.row_of[k]] = wk;
        }
        Ok(x)
    }

    /// Replaces column `slot` of the factored matrix by the sparse
    /// `column` and updates the factors in place (Forrest–Tomlin). This is
    /// the simplex basis change: `O(nnz)` instead of a refactorization.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] on a bad `slot` or row index.
    /// * [`LinalgError::NonFiniteEntry`] on NaN/∞ values.
    /// * [`LinalgError::SingularMatrix`] when the updated matrix is
    ///   singular to working precision (the new diagonal vanishes).
    /// * [`LinalgError::UpdateRefused`] when the update survived but
    ///   pushed the growth gauge past a configured
    ///   [`Self::set_growth_limit`].
    ///
    /// **On error the factorization is left inconsistent** and must be
    /// rebuilt with [`Self::from_columns`] — exactly what a simplex
    /// caller's refactorization fallback does.
    pub fn replace_column(
        &mut self,
        slot: usize,
        column: &[(usize, f64)],
    ) -> Result<(), LinalgError> {
        let n = self.n;
        if slot >= n {
            return Err(LinalgError::DimensionMismatch {
                found: (n, slot),
                expected: (n, n),
            });
        }
        let mut a = vec![0.0; n];
        for &(i, v) in column {
            if i >= n {
                return Err(LinalgError::DimensionMismatch {
                    found: (i, slot),
                    expected: (n, n),
                });
            }
            if !v.is_finite() {
                return Err(LinalgError::NonFiniteEntry { row: i, col: slot });
            }
            a[i] += v;
        }
        // Spike: the replaced column pulled through L and the previous
        // row transformations, in pivot-id space.
        let w = self.forward_l(&a);
        let t = self.id_of_slot[slot];

        // Drop the old column t and detach row t's off-diagonals into a
        // scratch "row spike".
        for r in std::mem::take(&mut self.ucols[t]) {
            self.urows[r].retain(|&(c, _)| c != t);
        }
        let mut spike = vec![0.0; n];
        for (c, v) in std::mem::take(&mut self.urows[t]) {
            spike[c] = v;
            self.ucols[c].retain(|&r| r != t);
        }

        // Cycle pivot t to the last position.
        let start = self.pos[t];
        self.order.remove(start);
        self.order.push(t);
        for (q, &id) in self.order.iter().enumerate().skip(start) {
            self.pos[id] = q;
        }

        // Eliminate the row spike left to right; the multipliers become a
        // row transformation and the spike column's entries fold into the
        // new diagonal. Every nonzero is kept: an entry negligible next to
        // the spike's largest can still be large next to the new diagonal,
        // and dropping it would leave factors that no longer represent
        // the matrix.
        let w_max = w.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let mut diag = w[t];
        let mut terms: Vec<(usize, f64)> = Vec::new();
        let mut multiplier_max = 0.0f64;
        for q in start..n.saturating_sub(1) {
            let j = self.order[q];
            let s = spike[j];
            spike[j] = 0.0;
            if s == 0.0 {
                continue;
            }
            let m = s / self.udiag[j];
            multiplier_max = multiplier_max.max(m.abs());
            terms.push((j, m));
            for &(c, v) in &self.urows[j] {
                spike[c] -= m * v;
            }
            diag -= m * w[j];
        }
        if diag.abs() <= DEFAULT_PIVOT_TOLERANCE {
            return Err(LinalgError::SingularMatrix { pivot: t });
        }

        // Install the spike as the new column t.
        self.udiag[t] = diag;
        for (id, &wi) in w.iter().enumerate() {
            if id != t && wi != 0.0 {
                self.urows[id].push((t, wi));
                self.ucols[t].push(id);
            }
        }
        if !terms.is_empty() {
            self.etas.push(RowEta { target: t, terms });
        }
        self.growth = self
            .growth
            .max(multiplier_max)
            .max(w_max / diag.abs().max(f64::MIN_POSITIVE));
        self.updates += 1;
        if self.growth > self.growth_limit {
            return Err(LinalgError::UpdateRefused {
                growth: self.growth,
                limit: self.growth_limit,
            });
        }
        Ok(())
    }

    fn check_len(&self, b: &[f64]) -> Result<(), LinalgError> {
        if b.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                found: (b.len(), 1),
                expected: (self.n, 1),
            });
        }
        Ok(())
    }

    /// `L̄⁻¹ P b`: the forward half of a solve — sparse substitution
    /// through `L`, then the update row transformations in order. Returns
    /// the result in pivot-id space.
    fn forward_l(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        let mut work = b.to_vec();
        let mut y = vec![0.0; n];
        for k in 0..n {
            let yk = work[self.row_of[k]];
            y[k] = yk;
            if yk != 0.0 {
                for &(i, f) in &self.l_cols[k] {
                    work[i] -= f * yk;
                }
            }
        }
        for eta in &self.etas {
            let mut s = y[eta.target];
            for &(j, m) in &eta.terms {
                s -= m * y[j];
            }
            y[eta.target] = s;
        }
        y
    }

    /// Backward substitution `U w = y` over the current triangular order,
    /// in pivot-id space.
    fn backward_u(&self, y: &[f64]) -> Vec<f64> {
        let mut w = vec![0.0; self.n];
        for &id in self.order.iter().rev() {
            let mut s = y[id];
            for &(c, v) in &self.urows[id] {
                s -= v * w[c];
            }
            w[id] = s / self.udiag[id];
        }
        w
    }
}

/// Working state of the Markowitz elimination.
struct Factorizer {
    n: usize,
    /// Active-row storage: `(column, value)` pairs, unordered.
    rows: Vec<Vec<(usize, f64)>>,
    /// Row indices per column; may contain stale rows (entries cancelled
    /// or rows eliminated), compacted lazily during pivot search.
    col_rows: Vec<Vec<usize>>,
    row_active: Vec<bool>,
    col_active: Vec<bool>,
    l_cols: Vec<Vec<(usize, f64)>>,
    /// U rows in original-column indexing (remapped to pivot ids at the
    /// end); diagonal kept separately.
    u_rows_raw: Vec<Vec<(usize, f64)>>,
    udiag: Vec<f64>,
    row_of: Vec<usize>,
    col_of: Vec<usize>,
    scratch_val: Vec<f64>,
    scratch_mark: Vec<bool>,
}

impl Factorizer {
    /// Validates `columns`, builds the row-major working storage plus
    /// column row-lists, and returns the ready elimination state together
    /// with the input's nonzero count.
    fn build<C: AsRef<[(usize, f64)]>>(
        n: usize,
        columns: &[C],
    ) -> Result<(Self, usize), LinalgError> {
        if columns.len() != n {
            return Err(LinalgError::DimensionMismatch {
                found: (n, columns.len()),
                expected: (n, n),
            });
        }
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for (j, col) in columns.iter().enumerate() {
            for &(i, v) in col.as_ref() {
                if i >= n {
                    return Err(LinalgError::DimensionMismatch {
                        found: (i, j),
                        expected: (n, n),
                    });
                }
                if !v.is_finite() {
                    return Err(LinalgError::NonFiniteEntry { row: i, col: j });
                }
                if v == 0.0 {
                    continue;
                }
                // Duplicates within one column arrive consecutively for
                // the same row only if pushed back-to-back; handle the
                // general case with a lookup (columns are short).
                if let Some(slot) = rows[i].iter_mut().find(|(c, _)| *c == j) {
                    slot.1 += v;
                } else {
                    rows[i].push((j, v));
                }
            }
        }
        let base_nnz = rows.iter().map(Vec::len).sum();
        let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, row) in rows.iter().enumerate() {
            for &(j, _) in row {
                col_rows[j].push(i);
            }
        }
        let state = Factorizer {
            n,
            rows,
            col_rows,
            row_active: vec![true; n],
            col_active: vec![true; n],
            l_cols: Vec::with_capacity(n),
            u_rows_raw: Vec::with_capacity(n),
            udiag: Vec::with_capacity(n),
            row_of: Vec::with_capacity(n),
            col_of: Vec::with_capacity(n),
            scratch_val: vec![0.0; n],
            scratch_mark: vec![false; n],
        };
        Ok((state, base_nnz))
    }

    /// Compacts the prescribed pivot's column and admits the prescribed
    /// entry — the fixed-order counterpart of [`Self::choose_pivot`],
    /// used when refactorizing along an existing symbolic analysis.
    /// [`Self::eliminate`] requires the pivot column compacted, which
    /// the Markowitz search does as a side effect and this does
    /// explicitly.
    fn prepare_pivot(&mut self, pr: usize, pc: usize, step: usize) -> Result<(), LinalgError> {
        if pr >= self.n || pc >= self.n || !self.row_active[pr] || !self.col_active[pc] {
            return Err(LinalgError::SingularMatrix { pivot: step });
        }
        let mut kept: Vec<usize> = Vec::with_capacity(self.col_rows[pc].len());
        let mut col_max = 0.0f64;
        let mut pivot_mag = 0.0f64;
        for idx in 0..self.col_rows[pc].len() {
            let i = self.col_rows[pc][idx];
            if !self.row_active[i] {
                continue;
            }
            let Some(&(_, v)) = self.rows[i].iter().find(|&&(c, _)| c == pc) else {
                continue;
            };
            if kept.contains(&i) {
                continue;
            }
            kept.push(i);
            col_max = col_max.max(v.abs());
            if i == pr {
                pivot_mag = v.abs();
            }
        }
        self.col_rows[pc] = kept;
        if pivot_mag <= DEFAULT_PIVOT_TOLERANCE || pivot_mag < REFACTOR_PIVOT_THRESHOLD * col_max {
            return Err(LinalgError::SingularMatrix { pivot: step });
        }
        Ok(())
    }

    /// Picks the next pivot by bounded Markowitz search: examine the few
    /// lowest-count active columns, keep the threshold-admissible entry
    /// with the smallest `(r−1)·(c−1)` cost (largest magnitude on ties).
    fn choose_pivot(&mut self, step: usize) -> Result<(usize, usize), LinalgError> {
        // Lowest-count candidate columns (stale counts are upper bounds —
        // compaction below tightens them before use).
        let mut candidates: Vec<usize> = Vec::with_capacity(MARKOWITZ_CANDIDATES);
        for j in 0..self.n {
            if !self.col_active[j] {
                continue;
            }
            let count = self.col_rows[j].len();
            if candidates.len() < MARKOWITZ_CANDIDATES {
                candidates.push(j);
                candidates.sort_by_key(|&c| self.col_rows[c].len());
            } else if count < self.col_rows[*candidates.last().expect("non-empty")].len() {
                candidates.pop();
                candidates.push(j);
                candidates.sort_by_key(|&c| self.col_rows[c].len());
            }
        }
        match self.best_among(&candidates) {
            Some(pivot) => Ok(pivot),
            None => {
                // The bounded search found nothing admissible; fall back
                // to scanning every active column before giving up.
                let all: Vec<usize> = (0..self.n).filter(|&j| self.col_active[j]).collect();
                self.best_among(&all)
                    .ok_or(LinalgError::SingularMatrix { pivot: step })
            }
        }
    }

    /// The Markowitz-best admissible entry among `columns`, if any.
    fn best_among(&mut self, columns: &[usize]) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize)> = None;
        let mut best_cost = usize::MAX;
        let mut best_mag = 0.0f64;
        for &j in columns {
            // Compact the column's row list: entries may have been
            // cancelled or their rows eliminated since it was built.
            let mut kept: Vec<usize> = Vec::with_capacity(self.col_rows[j].len());
            let mut col_max = 0.0f64;
            for idx in 0..self.col_rows[j].len() {
                let i = self.col_rows[j][idx];
                if !self.row_active[i] {
                    continue;
                }
                let Some(&(_, v)) = self.rows[i].iter().find(|&&(c, _)| c == j) else {
                    continue;
                };
                if kept.contains(&i) {
                    continue;
                }
                kept.push(i);
                col_max = col_max.max(v.abs());
            }
            self.col_rows[j] = kept;
            if col_max <= DEFAULT_PIVOT_TOLERANCE {
                continue;
            }
            let ccount = self.col_rows[j].len();
            let cutoff = PIVOT_THRESHOLD * col_max;
            for idx in 0..ccount {
                let i = self.col_rows[j][idx];
                let v = self.rows[i]
                    .iter()
                    .find(|&&(c, _)| c == j)
                    .map(|&(_, v)| v)
                    .expect("kept entries exist");
                if v.abs() < cutoff {
                    continue;
                }
                let cost = (self.rows[i].len() - 1) * (ccount - 1);
                let better = cost < best_cost || (cost == best_cost && v.abs() > best_mag);
                if better {
                    best = Some((i, j));
                    best_cost = cost;
                    best_mag = v.abs();
                }
            }
            if best_cost == 0 {
                break;
            }
        }
        best
    }

    /// Eliminates pivot `(pr, pc)`: records the `L` column and `U` row,
    /// and updates every remaining row carrying the pivot column.
    fn eliminate(&mut self, pr: usize, pc: usize) {
        let pivot_row = std::mem::take(&mut self.rows[pr]);
        let pivot_val = pivot_row
            .iter()
            .find(|&&(c, _)| c == pc)
            .map(|&(_, v)| v)
            .expect("pivot entry exists");
        self.row_active[pr] = false;
        self.col_active[pc] = false;
        self.row_of.push(pr);
        self.col_of.push(pc);
        self.udiag.push(pivot_val);

        let mut l_col: Vec<(usize, f64)> = Vec::new();
        // `col_rows[pc]` was compacted by the pivot search just before.
        let pivot_col_rows = std::mem::take(&mut self.col_rows[pc]);
        for &i in &pivot_col_rows {
            if i == pr {
                continue;
            }
            let entry = self.rows[i]
                .iter()
                .position(|&(c, _)| c == pc)
                .expect("compacted column lists are exact");
            let f = self.rows[i][entry].1 / pivot_val;
            self.rows[i].swap_remove(entry);
            l_col.push((i, f));

            // row_i ← row_i − f · pivot_row (pivot column already gone).
            let mut touched: Vec<usize> = Vec::with_capacity(self.rows[i].len() + pivot_row.len());
            for &(c, v) in &self.rows[i] {
                self.scratch_val[c] = v;
                self.scratch_mark[c] = true;
                touched.push(c);
            }
            for &(c, v) in &pivot_row {
                if c == pc {
                    continue;
                }
                if self.scratch_mark[c] {
                    self.scratch_val[c] -= f * v;
                } else {
                    self.scratch_val[c] = -f * v;
                    self.scratch_mark[c] = true;
                    touched.push(c);
                    self.col_rows[c].push(i); // fill-in
                }
            }
            let row = &mut self.rows[i];
            row.clear();
            for &c in &touched {
                let v = self.scratch_val[c];
                if v != 0.0 {
                    row.push((c, v));
                }
                self.scratch_val[c] = 0.0;
                self.scratch_mark[c] = false;
            }
        }
        self.l_cols.push(l_col);
        self.u_rows_raw
            .push(pivot_row.into_iter().filter(|&(c, _)| c != pc).collect());
    }

    /// Converts the elimination record into the solver representation.
    fn finish(self, base_nnz: usize) -> SparseLu {
        let n = self.n;
        let mut row_pos = vec![0usize; n];
        for (k, &r) in self.row_of.iter().enumerate() {
            row_pos[r] = k;
        }
        let mut id_of_slot = vec![0usize; n];
        for (k, &c) in self.col_of.iter().enumerate() {
            id_of_slot[c] = k;
        }
        let urows: Vec<Vec<(usize, f64)>> = self
            .u_rows_raw
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|(c, v)| (id_of_slot[c], v))
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut ucols: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (r, row) in urows.iter().enumerate() {
            for &(c, _) in row {
                ucols[c].push(r);
            }
        }
        let symbolic = Arc::new(SymbolicLu {
            n,
            row_of: self.row_of.clone(),
            col_of: self.col_of.clone(),
        });
        SparseLu {
            n,
            l_cols: self.l_cols,
            row_of: self.row_of,
            row_pos,
            slot_of: self.col_of,
            id_of_slot,
            udiag: self.udiag,
            urows,
            ucols,
            order: (0..n).collect(),
            pos: (0..n).collect(),
            etas: Vec::new(),
            base_nnz,
            updates: 0,
            symbolic,
            growth: 1.0,
            growth_limit: f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{vector, LuDecomposition, Matrix};

    fn columns_of(dense: &Matrix) -> Vec<Vec<(usize, f64)>> {
        (0..dense.cols())
            .map(|j| {
                (0..dense.rows())
                    .filter(|&i| dense[(i, j)] != 0.0)
                    .map(|i| (i, dense[(i, j)]))
                    .collect()
            })
            .collect()
    }

    fn sparse_random(n: usize, seed: u64) -> Matrix {
        // Deterministic xorshift fill: ~3 off-diagonals per row plus a
        // dominant diagonal, the shape of a simplex basis.
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 2.0 + (next() % 100) as f64 / 50.0;
            for _ in 0..3 {
                let j = (next() as usize) % n;
                if j != i {
                    m[(i, j)] = (next() % 200) as f64 / 100.0 - 1.0;
                }
            }
        }
        m
    }

    #[test]
    fn solves_agree_with_dense_lu() {
        for seed in 1..8u64 {
            let a = sparse_random(12, seed);
            let sparse = SparseLu::from_columns(12, &columns_of(&a)).unwrap();
            let dense = LuDecomposition::new(&a).unwrap();
            let b: Vec<f64> = (0..12).map(|i| (i as f64) - 5.5).collect();
            let xs = sparse.solve(&b).unwrap();
            let xd = dense.solve(&b).unwrap();
            assert!(
                vector::max_abs_diff(&xs, &xd) < 1e-10,
                "seed {seed}: sparse/dense solve disagree"
            );
            let ts = sparse.solve_transposed(&b).unwrap();
            let td = dense.solve_transposed(&b).unwrap();
            assert!(
                vector::max_abs_diff(&ts, &td) < 1e-10,
                "seed {seed}: transpose"
            );
        }
    }

    #[test]
    fn permutation_matrix_factors_without_fill() {
        // Column j is e_{(j+1) mod n}: pure permutation, zero fill.
        let n = 6;
        let cols: Vec<Vec<(usize, f64)>> = (0..n).map(|j| vec![((j + 1) % n, 1.0)]).collect();
        let lu = SparseLu::from_columns(n, &cols).unwrap();
        assert_eq!(lu.fill_in(), 0);
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x = lu.solve(&b).unwrap();
        for (j, &xj) in x.iter().enumerate() {
            assert!((xj - b[(j + 1) % n]).abs() < 1e-15);
        }
    }

    #[test]
    fn singular_matrix_is_detected() {
        // Zero column.
        let cols: Vec<Vec<(usize, f64)>> = vec![vec![(0, 1.0)], vec![]];
        assert!(matches!(
            SparseLu::from_columns(2, &cols),
            Err(LinalgError::SingularMatrix { .. })
        ));
        // Linearly dependent columns.
        let cols: Vec<Vec<(usize, f64)>> = vec![vec![(0, 1.0), (1, 2.0)], vec![(0, 2.0), (1, 4.0)]];
        assert!(matches!(
            SparseLu::from_columns(2, &cols),
            Err(LinalgError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn rejects_bad_inputs() {
        let cols: Vec<Vec<(usize, f64)>> = vec![vec![(0, 1.0)]];
        assert!(matches!(
            SparseLu::from_columns(2, &cols),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        let cols = vec![vec![(5, 1.0)], vec![(1, 1.0)]];
        assert!(matches!(
            SparseLu::from_columns(2, &cols),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        let cols = vec![vec![(0, f64::NAN)], vec![(1, 1.0)]];
        assert!(matches!(
            SparseLu::from_columns(2, &cols),
            Err(LinalgError::NonFiniteEntry { .. })
        ));
        let lu = SparseLu::from_columns(1, &[vec![(0, 1.0)]]).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
        assert!(lu.solve_transposed(&[]).is_err());
    }

    #[test]
    fn replace_column_tracks_fresh_factorization() {
        let mut a = sparse_random(10, 42);
        let mut lu = SparseLu::from_columns(10, &columns_of(&a)).unwrap();
        let b: Vec<f64> = (0..10).map(|i| 1.0 + i as f64 / 3.0).collect();
        // A chain of column replacements, checked against refactorization.
        for (step, &slot) in [3usize, 7, 0, 3, 9, 5].iter().enumerate() {
            let mut col = [0.0; 10];
            col[slot] = 3.0 + step as f64;
            col[(slot + 3) % 10] = -1.0 + step as f64 / 7.0;
            col[(slot + 6) % 10] = 0.5;
            for (i, &v) in col.iter().enumerate() {
                a[(i, slot)] = v;
            }
            let sparse_col: Vec<(usize, f64)> = col
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(i, &v)| (i, v))
                .collect();
            lu.replace_column(slot, &sparse_col).unwrap();
            assert_eq!(lu.updates(), step + 1);

            let fresh = SparseLu::from_columns(10, &columns_of(&a)).unwrap();
            let (xu, xf) = (lu.solve(&b).unwrap(), fresh.solve(&b).unwrap());
            assert!(
                vector::max_abs_diff(&xu, &xf) < 1e-9,
                "step {step}: updated vs fresh FTRAN"
            );
            let (tu, tf) = (
                lu.solve_transposed(&b).unwrap(),
                fresh.solve_transposed(&b).unwrap(),
            );
            assert!(
                vector::max_abs_diff(&tu, &tf) < 1e-9,
                "step {step}: updated vs fresh BTRAN"
            );
        }
    }

    #[test]
    fn replace_column_detects_singular_update() {
        // Make column 1 a duplicate of column 0: singular.
        let a = sparse_random(5, 7);
        let cols = columns_of(&a);
        let mut lu = SparseLu::from_columns(5, &cols).unwrap();
        let dup = cols[0].clone();
        assert!(matches!(
            lu.replace_column(1, &dup),
            Err(LinalgError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn empty_matrix_is_fine() {
        let lu = SparseLu::from_columns(0, &Vec::<Vec<(usize, f64)>>::new()).unwrap();
        assert_eq!(lu.dim(), 0);
        assert_eq!(lu.solve(&[]).unwrap(), Vec::<f64>::new());
        assert_eq!(lu.solve_transposed(&[]).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn duplicate_entries_within_a_column_are_summed() {
        let cols: Vec<Vec<(usize, f64)>> = vec![
            vec![(0, 1.0), (0, 1.0)], // a00 = 2
            vec![(1, 4.0)],
        ];
        let lu = SparseLu::from_columns(2, &cols).unwrap();
        let x = lu.solve(&[2.0, 4.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-15);
        assert!((x[1] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn fill_in_is_reported() {
        // Triangular input needs no elimination work: zero fill.
        let mut tri = Matrix::zeros(4, 4);
        for i in 0..4 {
            for j in i..4 {
                tri[(i, j)] = 1.0 + (i + j) as f64;
            }
        }
        let lu = SparseLu::from_columns(4, &columns_of(&tri)).unwrap();
        assert_eq!(lu.fill_in(), 0, "triangular input needs no elimination");

        // A dense spike pushed through an update must add fill.
        let a = sparse_random(10, 3);
        let mut lu = SparseLu::from_columns(10, &columns_of(&a)).unwrap();
        let before = lu.fill_in();
        let dense_col: Vec<(usize, f64)> = (0..10).map(|i| (i, 1.0 + i as f64 / 10.0)).collect();
        lu.replace_column(2, &dense_col).unwrap();
        assert!(lu.fill_in() > before, "a dense spike must add fill");
    }

    /// Drifts every nonzero of `a` by a seed-dependent relative factor,
    /// keeping the sparsity pattern identical.
    fn drift_values(a: &Matrix, seed: u64) -> Matrix {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut out = Matrix::zeros(a.rows(), a.cols());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                if a[(i, j)] != 0.0 {
                    // Perturb by up to ±20%: same pattern, drifted values.
                    out[(i, j)] = a[(i, j)] * (1.0 + ((next() % 400) as f64 - 200.0) / 1000.0);
                }
            }
        }
        out
    }

    #[test]
    fn symbolic_refactorization_matches_fresh() {
        // Property: for random sparse bases and shape-identical value
        // drifts, refactorizing along the shared symbolic order is
        // numerically identical (to 1e-10) to a fresh Markowitz
        // factorization — FTRAN and BTRAN both.
        for n in [6usize, 12, 20] {
            for seed in 1..12u64 {
                let a = sparse_random(n, seed);
                let first = SparseLu::from_columns(n, &columns_of(&a)).unwrap();
                let symbolic = first.symbolic();
                let b: Vec<f64> = (0..n).map(|i| (i as f64) / 2.0 - 1.0).collect();
                for drift_seed in [seed * 31 + 1, seed * 57 + 2] {
                    let drifted = drift_values(&a, drift_seed);
                    let cols = columns_of(&drifted);
                    let reused = SparseLu::from_columns_with_symbolic(&symbolic, &cols).unwrap();
                    assert!(
                        Arc::ptr_eq(&reused.symbolic(), &symbolic),
                        "n {n} seed {seed}: the analysis must be shared, not rebuilt"
                    );
                    let fresh = SparseLu::from_columns(n, &cols).unwrap();
                    let (xr, xf) = (reused.solve(&b).unwrap(), fresh.solve(&b).unwrap());
                    assert!(
                        vector::max_abs_diff(&xr, &xf) < 1e-10,
                        "n {n} seed {seed}/{drift_seed}: FTRAN reused vs fresh"
                    );
                    let (tr, tf) = (
                        reused.solve_transposed(&b).unwrap(),
                        fresh.solve_transposed(&b).unwrap(),
                    );
                    assert!(
                        vector::max_abs_diff(&tr, &tf) < 1e-10,
                        "n {n} seed {seed}/{drift_seed}: BTRAN reused vs fresh"
                    );
                }
            }
        }
    }

    #[test]
    fn symbolic_refactorization_rejects_degenerate_pivot() {
        let a = sparse_random(8, 5);
        let first = SparseLu::from_columns(8, &columns_of(&a)).unwrap();
        let symbolic = first.symbolic();
        // Zero out the first prescribed pivot entry: the fixed order is
        // no longer admissible and the caller must re-analyze.
        let mut broken = a.clone();
        let (pr, pc) = (symbolic.row_of[0], symbolic.col_of[0]);
        broken[(pr, pc)] = 0.0;
        assert!(matches!(
            SparseLu::from_columns_with_symbolic(&symbolic, &columns_of(&broken)),
            Err(LinalgError::SingularMatrix { .. })
        ));
        // A wholesale singular drift is caught too.
        let zeros = Matrix::zeros(8, 8);
        assert!(matches!(
            SparseLu::from_columns_with_symbolic(&symbolic, &columns_of(&zeros)),
            Err(LinalgError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn long_ft_chain_stays_accurate() {
        // A long Forrest–Tomlin chain on a denser basis must keep
        // tracking the fresh factorization.
        let n = 12;
        let mut a = sparse_random(n, 11);
        let mut lu = SparseLu::from_columns(n, &columns_of(&a)).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 0.3 + i as f64 / 4.0).collect();
        for step in 0..50usize {
            let slot = (step * 5 + 1) % n;
            let mut col = vec![0.0; n];
            col[slot] = 2.5 + (step % 7) as f64 / 3.0;
            col[(slot + 2) % n] = -0.8 + (step % 5) as f64 / 9.0;
            col[(slot + 7) % n] = 0.6 - (step % 3) as f64 / 8.0;
            for (i, &v) in col.iter().enumerate() {
                a[(i, slot)] = v;
            }
            let sparse_col: Vec<(usize, f64)> = col
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(i, &v)| (i, v))
                .collect();
            lu.replace_column(slot, &sparse_col).unwrap();
            let fresh = SparseLu::from_columns(n, &columns_of(&a)).unwrap();
            assert!(
                vector::max_abs_diff(&lu.solve(&b).unwrap(), &fresh.solve(&b).unwrap()) < 1e-8,
                "step {step}: long FT chain diverged from fresh factors"
            );
        }
        assert_eq!(lu.updates(), 50);
        assert!(lu.update_growth().is_finite());
    }

    #[test]
    fn update_growth_flags_ill_conditioned_updates() {
        let a = sparse_random(6, 9);
        let cols = columns_of(&a);
        let mut lu = SparseLu::from_columns(6, &cols).unwrap();
        assert_eq!(lu.update_growth(), 1.0, "fresh factors start at unity");
        // A benign replacement keeps the gauge modest...
        lu.replace_column(1, &[(1, 3.0), (3, 0.5)]).unwrap();
        let benign = lu.update_growth();
        assert!(benign < 1e3, "benign update must not spike the gauge");
        // ...but a near-duplicate of another column (nearly dependent)
        // produces a tiny diagonal and a huge spike-to-diagonal ratio.
        let mut near_dup: Vec<(usize, f64)> = cols[0].clone();
        near_dup[0].1 += 1e-9;
        lu.replace_column(2, &near_dup).unwrap();
        assert!(
            lu.update_growth() > 1e6,
            "near-singular update must trip the growth gauge (got {})",
            lu.update_growth()
        );
        // The gauge is monotone and resets on refactorization.
        assert!(lu.update_growth() >= benign);
        let fresh = SparseLu::from_columns(6, &cols).unwrap();
        assert_eq!(fresh.update_growth(), 1.0);
    }

    #[test]
    fn growth_limit_refuses_destabilizing_updates() {
        let a = sparse_random(6, 9);
        let cols = columns_of(&a);
        let mut lu = SparseLu::from_columns(6, &cols).unwrap();
        lu.set_growth_limit(1e6);
        // A benign replacement stays under the ceiling.
        lu.replace_column(1, &[(1, 3.0), (3, 0.5)]).unwrap();
        // A near-duplicate column drives the gauge past the limit: the
        // update must be refused with the structured error, not absorbed.
        let mut near_dup: Vec<(usize, f64)> = cols[0].clone();
        near_dup[0].1 += 1e-9;
        match lu.replace_column(2, &near_dup) {
            Err(LinalgError::UpdateRefused { growth, limit }) => {
                assert!(growth > limit);
                assert_eq!(limit, 1e6);
            }
            other => panic!("expected UpdateRefused, got {other:?}"),
        }
        // Without a limit the same update is absorbed (legacy behavior).
        let mut unlimited = SparseLu::from_columns(6, &cols).unwrap();
        unlimited.replace_column(1, &[(1, 3.0), (3, 0.5)]).unwrap();
        unlimited.replace_column(2, &near_dup).unwrap();
    }
}
