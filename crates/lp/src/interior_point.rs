use dpm_linalg::{vector, Cholesky, Matrix};

use crate::session::{ColdSession, InfeasibilityCertificate};
use crate::{LinearProgram, LpError, LpSolution, LpSolver, SolveSession};

/// Mehrotra predictor–corrector primal–dual interior-point method.
///
/// This is the same algorithmic family as **PCx** [Czyzyk–Mehrotra–Wright],
/// the solver the paper's policy-optimization tool was built on. The
/// implementation solves the equality standard form `min cᵀx, Ax = b,
/// x ≥ 0` through the normal equations `(A D² Aᵀ) Δy = r` with `D² =
/// diag(x/s)`, factored by dense Cholesky with adaptive regularization.
///
/// For the LP sizes arising from the paper's case studies (hundreds of
/// states × commands) it converges in 10–30 Newton steps.
///
/// # Example
///
/// ```
/// use dpm_lp::{ConstraintOp, InteriorPoint, LinearProgram, LpSolver};
///
/// # fn main() -> Result<(), dpm_lp::LpError> {
/// let mut lp = LinearProgram::minimize(&[1.0, 2.0]);
/// lp.add_constraint(&[1.0, 1.0], ConstraintOp::Ge, 1.0)?;
/// let s = InteriorPoint::new().solve(&lp)?;
/// assert!((s.objective() - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct InteriorPoint;

/// Convergence tolerance on the scaled residuals and the duality
/// measure μ. It sits deliberately above `f64` round-off amplified by
/// the normal-equations conditioning of near-degenerate occupation LPs;
/// much tighter tolerances on such problems make μ stagnate without
/// improving the returned point.
const TOLERANCE: f64 = 1e-7;
/// Newton-step limit.
const MAX_ITERATIONS: usize = 300;

impl InteriorPoint {
    /// Creates a solver (tolerance `1e-7`, at most 300 Newton steps).
    pub fn new() -> Self {
        InteriorPoint
    }

    /// Core predictor–corrector loop on standard-form data.
    fn solve_standard(
        &self,
        a: &Matrix,
        b: &[f64],
        c: &[f64],
    ) -> Result<(Vec<f64>, Vec<f64>, usize), LpError> {
        let m = a.rows();
        let n = a.cols();
        if m == 0 {
            // No constraints: minimum of cᵀx over x ≥ 0 is 0 at x = 0
            // unless some cost is negative (unbounded).
            if c.iter().any(|&v| v < 0.0) {
                return Err(LpError::Unbounded);
            }
            return Ok((vec![0.0; n], vec![], 0));
        }

        // Starting point heuristic (Mehrotra): x = s = e scaled by problem
        // data, y = 0.
        let b_norm = vector::norm_inf(b).max(1.0);
        let c_norm = vector::norm_inf(c).max(1.0);
        let mut x = vec![b_norm.max(1.0); n];
        let mut s = vec![c_norm.max(1.0); n];
        let mut y = vec![0.0; m];

        let at = a.transpose();
        // Stagnation detection: when progress stalls at a point that is
        // already good (within 100× the tolerance), accept it rather than
        // burning the full iteration budget against the conditioning
        // floor of the normal equations.
        let mut best_merit = f64::INFINITY;
        let mut stalled = 0usize;

        for iter in 0..MAX_ITERATIONS {
            // Residuals: rb = A x − b, rc = Aᵀy + s − c.
            let ax = a.matvec(&x)?;
            let mut rb: Vec<f64> = ax.iter().zip(b).map(|(l, r)| l - r).collect();
            let aty = at.matvec(&y)?;
            let mut rc: Vec<f64> = aty
                .iter()
                .zip(&s)
                .zip(c)
                .map(|((l, si), ci)| l + si - ci)
                .collect();
            let mu = vector::dot(&x, &s) / n as f64;

            let rb_norm = vector::norm_inf(&rb) / (1.0 + b_norm);
            let rc_norm = vector::norm_inf(&rc) / (1.0 + c_norm);
            if rb_norm < TOLERANCE && rc_norm < TOLERANCE && mu < TOLERANCE {
                return Ok((x, y, iter));
            }
            let merit = rb_norm + rc_norm + mu;
            if merit < 0.9 * best_merit {
                best_merit = merit;
                stalled = 0;
            } else {
                stalled += 1;
                if stalled >= 15 && merit < 100.0 * TOLERANCE {
                    return Ok((x, y, iter));
                }
            }

            // Divergence heuristic: if the iterates blow up while primal
            // infeasibility refuses to fall, the problem is infeasible (or
            // dually infeasible = unbounded). A rigorous certificate would
            // need a homogeneous self-dual embedding; for the policy-
            // optimization LPs the simplex solver provides exact
            // feasibility answers, so a heuristic is acceptable here.
            let x_max = vector::norm_inf(&x);
            if x_max > 1e14 {
                return Err(if rb_norm > TOLERANCE {
                    LpError::Infeasible
                } else {
                    LpError::Unbounded
                });
            }

            // Normal-equations matrix M = A D² Aᵀ, D² = diag(x/s).
            let d2: Vec<f64> = x.iter().zip(&s).map(|(xi, si)| xi / si).collect();
            let mut msys = Matrix::zeros(m, m);
            for i in 0..m {
                for j in i..m {
                    let mut v = 0.0;
                    for k in 0..n {
                        v += a[(i, k)] * d2[k] * a[(j, k)];
                    }
                    msys[(i, j)] = v;
                    msys[(j, i)] = v;
                }
            }
            let chol = match Cholesky::new(&msys) {
                Ok(c) => c,
                Err(_) => {
                    // Regularize progressively; give up only if even a
                    // large shift fails.
                    let scale = msys.max_abs().max(1.0);
                    let mut ok = None;
                    for shift_exp in [-12, -10, -8, -6] {
                        let shift = scale * 10f64.powi(shift_exp);
                        if let Ok(c) = Cholesky::new_regularized(&msys, shift) {
                            ok = Some(c);
                            break;
                        }
                    }
                    ok.ok_or_else(|| LpError::Numerical {
                        reason: "normal equations not positive definite".to_string(),
                    })?
                }
            };

            vector::scale(&mut rb, -1.0);
            vector::scale(&mut rc, -1.0);

            // Predictor (affine-scaling) direction: complementarity target 0.
            let rxs_aff: Vec<f64> = x.iter().zip(&s).map(|(xi, si)| -xi * si).collect();
            let (dx_aff, _dy_aff, ds_aff) =
                solve_newton(a, &at, &chol, &d2, &x, &s, &rb, &rc, &rxs_aff)?;

            let alpha_p_aff = max_step(&x, &dx_aff);
            let alpha_d_aff = max_step(&s, &ds_aff);
            let mu_aff = {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += (x[k] + alpha_p_aff * dx_aff[k]) * (s[k] + alpha_d_aff * ds_aff[k]);
                }
                acc / n as f64
            };
            let sigma = if mu > 0.0 {
                (mu_aff / mu).powi(3).clamp(0.0, 1.0)
            } else {
                0.0
            };

            // Corrector: complementarity target σμ − ΔxᵃΔsᵃ.
            let rxs: Vec<f64> = (0..n)
                .map(|k| sigma * mu - dx_aff[k] * ds_aff[k] - x[k] * s[k])
                .collect();
            let (dx, dy, ds) = solve_newton(a, &at, &chol, &d2, &x, &s, &rb, &rc, &rxs)?;

            let eta = 0.99995;
            let alpha_p = (eta * max_step(&x, &dx)).min(1.0);
            let alpha_d = (eta * max_step(&s, &ds)).min(1.0);

            vector::axpy(alpha_p, &dx, &mut x);
            vector::axpy(alpha_d, &dy, &mut y);
            vector::axpy(alpha_d, &ds, &mut s);

            // Keep iterates strictly positive against roundoff.
            for v in x.iter_mut().chain(s.iter_mut()) {
                if *v <= 0.0 {
                    *v = 1e-14;
                }
            }
        }
        Err(LpError::IterationLimit {
            limit: MAX_ITERATIONS,
        })
    }
}

/// A Newton step direction `(dx, dy, ds)` in primal, dual and slack space.
type NewtonDirection = (Vec<f64>, Vec<f64>, Vec<f64>);

/// Solves one Newton system of the predictor–corrector method via the
/// pre-factored normal equations.
///
/// System (for direction `(dx, dy, ds)`):
/// ```text
/// A dx           = rb
/// Aᵀ dy + ds     = rc
/// S dx + X ds    = rxs
/// ```
#[allow(clippy::too_many_arguments)]
fn solve_newton(
    a: &Matrix,
    at: &Matrix,
    chol: &Cholesky,
    d2: &[f64],
    x: &[f64],
    s: &[f64],
    rb: &[f64],
    rc: &[f64],
    rxs: &[f64],
) -> Result<NewtonDirection, LpError> {
    let n = x.len();
    // rhs = rb + A D² (rc − X⁻¹ rxs)
    let tmp: Vec<f64> = (0..n).map(|k| d2[k] * (rc[k] - rxs[k] / x[k])).collect();
    let atmp = a.matvec(&tmp)?;
    let rhs: Vec<f64> = rb.iter().zip(&atmp).map(|(l, r)| l + r).collect();
    let dy = chol.solve(&rhs)?;
    // ds = rc − Aᵀ dy
    let atdy = at.matvec(&dy)?;
    let ds: Vec<f64> = rc.iter().zip(&atdy).map(|(l, r)| l - r).collect();
    // dx = X S⁻¹ (rxs/X − ds) = (rxs − X ds) / s
    let dx: Vec<f64> = (0..n).map(|k| (rxs[k] - x[k] * ds[k]) / s[k]).collect();
    Ok((dx, dy, ds))
}

/// Largest `alpha` in `[0, 1]` keeping `v + alpha * dv > 0`.
fn max_step(v: &[f64], dv: &[f64]) -> f64 {
    let mut alpha: f64 = 1.0;
    for (vi, dvi) in v.iter().zip(dv) {
        if *dvi < 0.0 {
            alpha = alpha.min(-vi / dvi);
        }
    }
    alpha.max(0.0)
}

impl LpSolver for InteriorPoint {
    fn start(&self, lp: &LinearProgram) -> Result<Box<dyn SolveSession>, LpError> {
        // Central-path iterates from one solve are useless as a warm
        // start for the next (warm-started IPMs need careful shifting);
        // sessions are cold re-solves. Infeasibility is detected by the
        // divergence heuristic, and the certificate kind says so.
        Ok(Box::new(ColdSession::new(
            self,
            lp,
            InfeasibilityCertificate::DivergingIterates,
        )?))
    }

    fn solve(&self, lp: &LinearProgram) -> Result<LpSolution, LpError> {
        lp.validate()?;
        let sf = lp.to_standard_form()?;
        let (x_full, y, iterations) = self.solve_standard(&sf.a, &sf.b, &sf.c)?;
        let x = sf.original_solution(&x_full);
        let objective = lp.objective_value(&x);
        Ok(LpSolution::new(x, objective, iterations, Some(y)))
    }

    fn name(&self) -> &'static str {
        "interior-point"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintOp, Simplex};

    fn ip() -> InteriorPoint {
        InteriorPoint::new()
    }

    #[test]
    fn matches_simplex_on_textbook_problem() {
        let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
        lp.add_constraint(&[1.0, 0.0], ConstraintOp::Le, 4.0)
            .unwrap();
        lp.add_constraint(&[0.0, 2.0], ConstraintOp::Le, 12.0)
            .unwrap();
        lp.add_constraint(&[3.0, 2.0], ConstraintOp::Le, 18.0)
            .unwrap();
        let si = Simplex::new().solve(&lp).unwrap();
        let s = ip().solve(&lp).unwrap();
        assert!((s.objective() - si.objective()).abs() < 1e-6);
        assert!(lp.max_violation(s.x()) < 1e-6);
    }

    #[test]
    fn solves_equality_constrained_problem() {
        let mut lp = LinearProgram::minimize(&[1.0, 2.0, 3.0]);
        lp.add_constraint(&[1.0, 1.0, 1.0], ConstraintOp::Eq, 1.0)
            .unwrap();
        let s = ip().solve(&lp).unwrap();
        assert!((s.objective() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn agrees_with_simplex_on_random_battery() {
        let mut seed = 0xDEADBEEFu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 2000) as f64 / 1000.0 - 1.0
        };
        for trial in 0..15 {
            let n = 3 + trial % 4;
            let m = 2 + trial % 3;
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
            let si = Simplex::new().solve(&lp).unwrap();
            let s = ip()
                .solve(&lp)
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            assert!(
                (s.objective() - si.objective()).abs() < 1e-5,
                "trial {trial}: ip {} vs simplex {}",
                s.objective(),
                si.objective()
            );
        }
    }

    #[test]
    fn unconstrained_nonnegative_min_is_zero() {
        let lp = LinearProgram::minimize(&[1.0, 2.0]);
        let s = ip().solve(&lp).unwrap();
        assert!(s.objective().abs() < 1e-7);
    }

    #[test]
    fn unconstrained_negative_cost_is_unbounded() {
        let lp = LinearProgram::minimize(&[-1.0]);
        assert_eq!(ip().solve(&lp).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn reports_iteration_count() {
        let mut lp = LinearProgram::minimize(&[1.0, 1.0]);
        lp.add_constraint(&[1.0, 1.0], ConstraintOp::Ge, 1.0)
            .unwrap();
        let s = ip().solve(&lp).unwrap();
        assert!(s.iterations() > 0 && s.iterations() < 100);
    }

    #[test]
    fn degenerate_distribution_problem() {
        // min Σ cᵢ xᵢ over the probability simplex — an LP shaped exactly
        // like a one-state occupation-measure problem.
        let mut lp = LinearProgram::minimize(&[5.0, 1.0, 3.0, 1.0]);
        lp.add_constraint(&[1.0, 1.0, 1.0, 1.0], ConstraintOp::Eq, 1.0)
            .unwrap();
        let s = ip().solve(&lp).unwrap();
        assert!((s.objective() - 1.0).abs() < 1e-6);
        // Mass may split between the two tied columns; total must be 1.
        let total: f64 = s.x().iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(s.x()[0] < 1e-6 && s.x()[2] < 1e-6);
    }
}
