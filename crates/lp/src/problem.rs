use dpm_linalg::{CscMatrix, Matrix, TripletMatrix};

use crate::LpError;

/// Relational operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintOp {
    /// `aᵀx ≤ b`
    Le,
    /// `aᵀx ≥ b`
    Ge,
    /// `aᵀx = b`
    Eq,
}

impl std::fmt::Display for ConstraintOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstraintOp::Le => write!(f, "<="),
            ConstraintOp::Ge => write!(f, ">="),
            ConstraintOp::Eq => write!(f, "="),
        }
    }
}

/// One constraint row, stored sparsely: `entries` is sorted by variable
/// index, duplicate indices have been summed, and no stored coefficient is
/// exactly `0.0`.
#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub(crate) entries: Vec<(usize, f64)>,
    pub(crate) op: ConstraintOp,
    pub(crate) rhs: f64,
}

/// A linear program over non-negative variables.
///
/// The canonical problem is
///
/// ```text
/// minimize (or maximize)   cᵀ x
/// subject to               aᵢᵀ x {≤, ≥, =} bᵢ   for every constraint i
///                          x ≥ 0
/// ```
///
/// Non-negativity is exactly what the occupation-measure LPs of the paper
/// require (state–action frequencies are expected visit counts), so no
/// general bound handling is included.
///
/// Constraints are stored **sparsely** — each row keeps only its nonzero
/// `(variable, coefficient)` pairs — because the balance equations of the
/// occupation LPs have a handful of nonzeros per row regardless of model
/// size. Rows can be added densely ([`Self::add_constraint`]) or sparsely
/// ([`Self::add_sparse_constraint`]); either way, **duplicate
/// coefficients for the same variable within a row are summed**, which is
/// the natural convention for accumulating balance equations term by term.
///
/// # Example
///
/// ```
/// use dpm_lp::{ConstraintOp, LinearProgram};
///
/// # fn main() -> Result<(), dpm_lp::LpError> {
/// let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
/// lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 4.0)?;
/// lp.add_constraint(&[0.0, 2.0], ConstraintOp::Le, 12.0)?;
/// lp.add_constraint(&[3.0, 2.0], ConstraintOp::Le, 18.0)?;
/// assert_eq!(lp.num_vars(), 2);
/// assert_eq!(lp.num_constraints(), 3);
/// assert_eq!(lp.nnz(), 4); // zeros are not stored
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LinearProgram {
    objective: Vec<f64>,
    maximize: bool,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates a minimization problem with objective coefficients `c`.
    #[must_use]
    pub fn minimize(c: &[f64]) -> Self {
        LinearProgram {
            objective: c.to_vec(),
            maximize: false,
            constraints: Vec::new(),
        }
    }

    /// Creates a maximization problem with objective coefficients `c`.
    #[must_use]
    pub fn maximize(c: &[f64]) -> Self {
        LinearProgram {
            objective: c.to_vec(),
            maximize: true,
            constraints: Vec::new(),
        }
    }

    /// Adds the constraint `coefficients · x op rhs` from a dense row.
    /// Zero coefficients are not stored.
    ///
    /// # Errors
    ///
    /// * [`LpError::BadConstraint`] when `coefficients.len()` differs from
    ///   the number of variables.
    /// * [`LpError::NonFiniteInput`] when any coefficient or the rhs is
    ///   NaN/∞.
    pub fn add_constraint(
        &mut self,
        coefficients: &[f64],
        op: ConstraintOp,
        rhs: f64,
    ) -> Result<&mut Self, LpError> {
        if coefficients.len() != self.objective.len() {
            return Err(LpError::BadConstraint {
                found: coefficients.len(),
                expected: self.objective.len(),
            });
        }
        if !rhs.is_finite() || coefficients.iter().any(|v| !v.is_finite()) {
            return Err(LpError::NonFiniteInput);
        }
        let entries: Vec<(usize, f64)> = coefficients
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0.0)
            .map(|(j, &v)| (j, v))
            .collect();
        self.constraints.push(Constraint { entries, op, rhs });
        Ok(self)
    }

    /// Adds a sparse constraint given as `(variable index, coefficient)`
    /// pairs, in any order. Unmentioned variables get coefficient zero;
    /// **repeated indices are summed** (and dropped if the sum is exactly
    /// zero) — the same duplicate policy as the dense builder, where a
    /// variable's coefficient appears exactly once by construction.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::add_constraint`]; additionally an index
    /// `>= num_vars()` yields [`LpError::BadConstraint`].
    pub fn add_sparse_constraint(
        &mut self,
        entries: &[(usize, f64)],
        op: ConstraintOp,
        rhs: f64,
    ) -> Result<&mut Self, LpError> {
        let n = self.objective.len();
        if !rhs.is_finite() || entries.iter().any(|&(_, v)| !v.is_finite()) {
            return Err(LpError::NonFiniteInput);
        }
        if let Some(&(j, _)) = entries.iter().find(|&&(j, _)| j >= n) {
            return Err(LpError::BadConstraint {
                found: j + 1,
                expected: n,
            });
        }
        let mut sorted = entries.to_vec();
        sorted.sort_unstable_by_key(|&(j, _)| j);
        let mut compacted: Vec<(usize, f64)> = Vec::with_capacity(sorted.len());
        let mut k = 0;
        while k < sorted.len() {
            let (j, mut v) = sorted[k];
            let mut next = k + 1;
            while next < sorted.len() && sorted[next].0 == j {
                v += sorted[next].1;
                next += 1;
            }
            if v != 0.0 {
                compacted.push((j, v));
            }
            k = next;
        }
        self.constraints.push(Constraint {
            entries: compacted,
            op,
            rhs,
        });
        Ok(self)
    }

    /// Replaces the right-hand side of constraint `row` (0-based, in the
    /// order constraints were added), leaving its coefficients and
    /// relation untouched — the parametric mutation behind
    /// [`SolveSession::set_rhs`](crate::SolveSession::set_rhs).
    ///
    /// # Errors
    ///
    /// * [`LpError::BadConstraint`] when `row >= num_constraints()`.
    /// * [`LpError::NonFiniteInput`] when `rhs` is NaN/∞.
    pub fn set_rhs(&mut self, row: usize, rhs: f64) -> Result<&mut Self, LpError> {
        if !rhs.is_finite() {
            return Err(LpError::NonFiniteInput);
        }
        let limit = self.constraints.len();
        let Some(constraint) = self.constraints.get_mut(row) else {
            return Err(LpError::BadConstraint {
                found: row,
                expected: limit,
            });
        };
        constraint.rhs = rhs;
        Ok(self)
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Total number of stored (nonzero) constraint coefficients.
    pub fn nnz(&self) -> usize {
        self.constraints.iter().map(|c| c.entries.len()).sum()
    }

    /// `true` for maximization problems.
    pub fn is_maximize(&self) -> bool {
        self.maximize
    }

    /// Objective coefficient vector.
    pub fn objective_coefficients(&self) -> &[f64] {
        &self.objective
    }

    /// The `i`-th constraint as a materialized dense row
    /// `(coefficients, op, rhs)`. Prefer [`Self::constraint_entries`] on
    /// hot paths — this allocates.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_constraints()`.
    pub fn constraint(&self, i: usize) -> (Vec<f64>, ConstraintOp, f64) {
        let c = &self.constraints[i];
        let mut row = vec![0.0; self.objective.len()];
        for &(j, v) in &c.entries {
            row[j] = v;
        }
        (row, c.op, c.rhs)
    }

    /// The `i`-th constraint in sparse form: `(entries, op, rhs)` where
    /// `entries` are `(variable, coefficient)` pairs sorted by variable
    /// with no zeros and no duplicates.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_constraints()`.
    pub fn constraint_entries(&self, i: usize) -> (&[(usize, f64)], ConstraintOp, f64) {
        let c = &self.constraints[i];
        (&c.entries, c.op, c.rhs)
    }

    /// Validates the program as a whole.
    ///
    /// # Errors
    ///
    /// * [`LpError::EmptyProblem`] when there are no variables.
    /// * [`LpError::NonFiniteInput`] when the objective contains NaN/∞.
    pub fn validate(&self) -> Result<(), LpError> {
        if self.objective.is_empty() {
            return Err(LpError::EmptyProblem);
        }
        if self.objective.iter().any(|v| !v.is_finite()) {
            return Err(LpError::NonFiniteInput);
        }
        Ok(())
    }

    /// Evaluates the objective at a point (always in the user's orientation:
    /// larger is better for maximization problems).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars()`.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        dpm_linalg::vector::dot(&self.objective, x)
    }

    /// Maximum constraint violation at a point (0 for feasible points).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars()`.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars(), "point has wrong dimension");
        let mut worst = x.iter().fold(0.0_f64, |w, &v| w.max(-v));
        for c in &self.constraints {
            let lhs: f64 = c.entries.iter().map(|&(j, v)| v * x[j]).sum();
            let viol = match c.op {
                ConstraintOp::Le => lhs - c.rhs,
                ConstraintOp::Ge => c.rhs - lhs,
                ConstraintOp::Eq => (lhs - c.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        worst
    }

    /// Converts the program to equality standard form
    /// `min c̃ᵀ x̃, Ã x̃ = b, x̃ ≥ 0` by adding one slack/surplus variable per
    /// inequality and negating the objective of maximization problems,
    /// with the constraint matrix materialized **densely** — the form the
    /// tableau [`Simplex`](crate::Simplex) and
    /// [`InteriorPoint`](crate::InteriorPoint) engines consume.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::validate`] failures.
    pub fn to_standard_form(&self) -> Result<StandardForm, LpError> {
        let (b, c, num_original_vars, objective_sign, total) = self.standard_form_scaffold()?;
        let m = b.len();
        let mut a = Matrix::zeros(m, total);
        let mut slack = num_original_vars;
        for (i, con) in self.constraints.iter().enumerate() {
            for &(j, v) in &con.entries {
                a[(i, j)] = v;
            }
            match con.op {
                ConstraintOp::Le => {
                    a[(i, slack)] = 1.0;
                    slack += 1;
                }
                ConstraintOp::Ge => {
                    a[(i, slack)] = -1.0;
                    slack += 1;
                }
                ConstraintOp::Eq => {}
            }
        }
        Ok(StandardForm {
            a,
            b,
            c,
            num_original_vars,
            objective_sign,
        })
    }

    /// Converts to the same equality standard form as
    /// [`Self::to_standard_form`], but with the constraint matrix kept
    /// **sparse** in compressed-column form — the layout
    /// [`RevisedSimplex`](crate::RevisedSimplex) prices and pivots from.
    /// No dense `rows × cols` buffer is ever materialized.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::validate`] failures.
    pub fn to_sparse_standard_form(&self) -> Result<SparseStandardForm, LpError> {
        let (b, c, num_original_vars, objective_sign, total) = self.standard_form_scaffold()?;
        let m = b.len();
        let nnz = self.nnz() + (total - num_original_vars);
        let mut t = TripletMatrix::with_capacity(m, total, nnz);
        let mut slack = num_original_vars;
        for (i, con) in self.constraints.iter().enumerate() {
            for &(j, v) in &con.entries {
                t.push(i, j, v).expect("validated entries");
            }
            match con.op {
                ConstraintOp::Le => {
                    t.push(i, slack, 1.0).expect("slack in range");
                    slack += 1;
                }
                ConstraintOp::Ge => {
                    t.push(i, slack, -1.0).expect("surplus in range");
                    slack += 1;
                }
                ConstraintOp::Eq => {}
            }
        }
        Ok(SparseStandardForm {
            a: t.to_csc(),
            b,
            c,
            num_original_vars,
            objective_sign,
        })
    }

    /// Shared scaffolding of the two standard forms: rhs, minimization
    /// objective over originals + slacks, sizes and orientation sign.
    #[allow(clippy::type_complexity)]
    fn standard_form_scaffold(&self) -> Result<(Vec<f64>, Vec<f64>, usize, f64, usize), LpError> {
        self.validate()?;
        let n = self.num_vars();
        let num_slacks = self
            .constraints
            .iter()
            .filter(|c| c.op != ConstraintOp::Eq)
            .count();
        let total = n + num_slacks;
        let b: Vec<f64> = self.constraints.iter().map(|c| c.rhs).collect();
        let sign = if self.maximize { -1.0 } else { 1.0 };
        let mut c = vec![0.0; total];
        for (j, &cj) in self.objective.iter().enumerate() {
            c[j] = sign * cj;
        }
        Ok((b, c, n, sign, total))
    }
}

/// Equality standard form `min cᵀx, Ax = b, x ≥ 0` of a [`LinearProgram`],
/// produced by [`LinearProgram::to_standard_form`].
///
/// The first [`Self::num_original_vars`] variables are the user's; the
/// remainder are slacks/surpluses appended in constraint order.
#[derive(Debug, Clone)]
pub struct StandardForm {
    /// Equality constraint matrix.
    pub a: Matrix,
    /// Right-hand side.
    pub b: Vec<f64>,
    /// Minimization objective (already negated for maximization problems).
    pub c: Vec<f64>,
    /// How many leading variables belong to the original problem.
    pub num_original_vars: usize,
    /// `+1` for minimization, `−1` for maximization: multiply a standard
    /// form objective value by this to recover the user's orientation.
    pub objective_sign: f64,
}

impl StandardForm {
    /// Extracts the original variables from a standard-form point.
    pub fn original_solution(&self, x: &[f64]) -> Vec<f64> {
        x[..self.num_original_vars].to_vec()
    }
}

/// Equality standard form with the constraint matrix in compressed-column
/// storage, produced by [`LinearProgram::to_sparse_standard_form`].
///
/// Same variable layout and orientation conventions as [`StandardForm`].
#[derive(Debug, Clone)]
pub struct SparseStandardForm {
    /// Equality constraint matrix, column-compressed.
    pub a: CscMatrix,
    /// Right-hand side.
    pub b: Vec<f64>,
    /// Minimization objective (already negated for maximization problems).
    pub c: Vec<f64>,
    /// How many leading variables belong to the original problem.
    pub num_original_vars: usize,
    /// `+1` for minimization, `−1` for maximization.
    pub objective_sign: f64,
}

impl SparseStandardForm {
    /// Extracts the original variables from a standard-form point.
    pub fn original_solution(&self, x: &[f64]) -> Vec<f64> {
        x[..self.num_original_vars].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts_and_accessors() {
        let mut lp = LinearProgram::minimize(&[1.0, 2.0, 3.0]);
        lp.add_constraint(&[1.0, 1.0, 1.0], ConstraintOp::Eq, 1.0)
            .unwrap();
        lp.add_constraint(&[1.0, 0.0, 0.0], ConstraintOp::Le, 0.5)
            .unwrap();
        assert_eq!(lp.num_vars(), 3);
        assert_eq!(lp.num_constraints(), 2);
        assert_eq!(lp.nnz(), 4);
        assert!(!lp.is_maximize());
        let (row, op, rhs) = lp.constraint(1);
        assert_eq!(row, &[1.0, 0.0, 0.0]);
        assert_eq!(op, ConstraintOp::Le);
        assert_eq!(rhs, 0.5);
        let (entries, op, rhs) = lp.constraint_entries(1);
        assert_eq!(entries, &[(0, 1.0)]);
        assert_eq!(op, ConstraintOp::Le);
        assert_eq!(rhs, 0.5);
    }

    #[test]
    fn rejects_wrong_length_constraint() {
        let mut lp = LinearProgram::minimize(&[1.0, 2.0]);
        let err = lp
            .add_constraint(&[1.0], ConstraintOp::Le, 1.0)
            .unwrap_err();
        assert_eq!(
            err,
            LpError::BadConstraint {
                found: 1,
                expected: 2
            }
        );
    }

    #[test]
    fn rejects_non_finite() {
        let mut lp = LinearProgram::minimize(&[1.0]);
        assert_eq!(
            lp.add_constraint(&[f64::NAN], ConstraintOp::Le, 1.0)
                .unwrap_err(),
            LpError::NonFiniteInput
        );
        assert_eq!(
            lp.add_constraint(&[1.0], ConstraintOp::Le, f64::INFINITY)
                .unwrap_err(),
            LpError::NonFiniteInput
        );
        assert_eq!(
            lp.add_sparse_constraint(&[(0, f64::NAN)], ConstraintOp::Le, 1.0)
                .unwrap_err(),
            LpError::NonFiniteInput
        );
    }

    #[test]
    fn sparse_constraint_accumulates_duplicates() {
        let mut lp = LinearProgram::minimize(&[0.0; 4]);
        lp.add_sparse_constraint(&[(1, 2.0), (3, 1.0), (1, 0.5)], ConstraintOp::Ge, 1.0)
            .unwrap();
        let (row, _, _) = lp.constraint(0);
        assert_eq!(row, &[0.0, 2.5, 0.0, 1.0]);
        // The stored form is sorted, summed and zero-free.
        let (entries, _, _) = lp.constraint_entries(0);
        assert_eq!(entries, &[(1, 2.5), (3, 1.0)]);
    }

    #[test]
    fn duplicate_coefficients_cancelling_to_zero_are_dropped() {
        let mut lp = LinearProgram::minimize(&[0.0; 3]);
        lp.add_sparse_constraint(&[(0, 1.0), (2, 5.0), (2, -5.0)], ConstraintOp::Eq, 1.0)
            .unwrap();
        let (entries, _, _) = lp.constraint_entries(0);
        assert_eq!(entries, &[(0, 1.0)]);
        assert_eq!(lp.nnz(), 1);
    }

    #[test]
    fn dense_and_sparse_builders_store_identically() {
        // Regression for the duplicate-coefficient policy: the summed
        // sparse row must be indistinguishable from the equivalent dense
        // row, all the way down to the standard forms.
        let mut dense = LinearProgram::minimize(&[1.0, 2.0, 3.0]);
        dense
            .add_constraint(&[2.5, 0.0, -1.0], ConstraintOp::Le, 4.0)
            .unwrap();
        let mut sparse = LinearProgram::minimize(&[1.0, 2.0, 3.0]);
        sparse
            .add_sparse_constraint(&[(2, -1.0), (0, 2.0), (0, 0.5)], ConstraintOp::Le, 4.0)
            .unwrap();
        assert_eq!(dense.constraint_entries(0), sparse.constraint_entries(0));
        let (sf_d, sf_s) = (
            dense.to_standard_form().unwrap(),
            sparse.to_sparse_standard_form().unwrap(),
        );
        assert_eq!(sf_d.a, sf_s.a.to_dense());
    }

    #[test]
    fn sparse_constraint_rejects_bad_index() {
        let mut lp = LinearProgram::minimize(&[0.0; 2]);
        assert!(lp
            .add_sparse_constraint(&[(5, 1.0)], ConstraintOp::Le, 1.0)
            .is_err());
    }

    #[test]
    fn standard_form_adds_slack_and_surplus() {
        let mut lp = LinearProgram::maximize(&[1.0, 1.0]);
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 2.0)
            .unwrap();
        lp.add_constraint(&[0.0, 1.0], ConstraintOp::Ge, 1.0)
            .unwrap();
        lp.add_constraint(&[1.0, 1.0], ConstraintOp::Eq, 3.0)
            .unwrap();
        let sf = lp.to_standard_form().unwrap();
        assert_eq!(sf.a.shape(), (3, 4)); // 2 original + 1 slack + 1 surplus
        assert_eq!(sf.a[(0, 2)], 1.0); // slack on the Le row
        assert_eq!(sf.a[(1, 3)], -1.0); // surplus on the Ge row
        assert_eq!(sf.c, vec![-1.0, -1.0, 0.0, 0.0]); // negated for max
        assert_eq!(sf.objective_sign, -1.0);
        assert_eq!(sf.original_solution(&[1.0, 2.0, 9.0, 9.0]), vec![1.0, 2.0]);
    }

    #[test]
    fn sparse_standard_form_matches_dense() {
        let mut lp = LinearProgram::maximize(&[1.0, 1.0]);
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 2.0)
            .unwrap();
        lp.add_constraint(&[0.0, 1.0], ConstraintOp::Ge, 1.0)
            .unwrap();
        lp.add_constraint(&[1.0, 1.0], ConstraintOp::Eq, 3.0)
            .unwrap();
        let dense = lp.to_standard_form().unwrap();
        let sparse = lp.to_sparse_standard_form().unwrap();
        assert_eq!(sparse.a.to_dense(), dense.a);
        assert_eq!(sparse.b, dense.b);
        assert_eq!(sparse.c, dense.c);
        assert_eq!(sparse.num_original_vars, dense.num_original_vars);
        assert_eq!(sparse.objective_sign, dense.objective_sign);
        assert_eq!(
            sparse.original_solution(&[1.0, 2.0, 9.0, 9.0]),
            vec![1.0, 2.0]
        );
    }

    #[test]
    fn set_rhs_retargets_one_row() {
        let mut lp = LinearProgram::minimize(&[1.0, 2.0]);
        lp.add_constraint(&[1.0, 1.0], ConstraintOp::Ge, 4.0)
            .unwrap();
        lp.set_rhs(0, 6.0).unwrap();
        let (entries, op, rhs) = lp.constraint_entries(0);
        assert_eq!(entries, &[(0, 1.0), (1, 1.0)]);
        assert_eq!(op, ConstraintOp::Ge);
        assert_eq!(rhs, 6.0);
        assert!(matches!(
            lp.set_rhs(1, 0.0).unwrap_err(),
            LpError::BadConstraint {
                found: 1,
                expected: 1
            }
        ));
        assert_eq!(
            lp.set_rhs(0, f64::NAN).unwrap_err(),
            LpError::NonFiniteInput
        );
    }

    #[test]
    fn violation_measures_worst_constraint() {
        let mut lp = LinearProgram::minimize(&[0.0, 0.0]);
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 1.0)
            .unwrap();
        lp.add_constraint(&[0.0, 1.0], ConstraintOp::Ge, 2.0)
            .unwrap();
        assert_eq!(lp.max_violation(&[0.5, 2.5]), 0.0);
        assert_eq!(lp.max_violation(&[3.0, 2.0]), 2.0);
        assert_eq!(lp.max_violation(&[0.0, 0.0]), 2.0);
        assert_eq!(lp.max_violation(&[-1.0, 2.0]), 1.0); // x >= 0 violated
    }

    #[test]
    fn validate_rejects_empty() {
        let lp = LinearProgram::minimize(&[]);
        assert_eq!(lp.validate().unwrap_err(), LpError::EmptyProblem);
    }
}
