//! Property tests of the revised simplex's basis maintenance: exact
//! Forrest–Tomlin factor updates between refactorizations must give the
//! same answers as the dense tableau [`Simplex`], cold and across warm
//! re-solve sequences, whatever the refactorization interval.

use dpm_lp::{ConstraintOp, LinearProgram, LpSolver, RevisedSimplex, Simplex};
use proptest::prelude::*;

/// Feasible-and-bounded-by-construction LP (see `solver_agreement.rs`),
/// sparsified the way occupation LPs are.
fn seeded_lp(n: usize, m: usize, seed: u64) -> LinearProgram {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 2000) as f64 / 1000.0 - 1.0
    };
    let c: Vec<f64> = (0..n).map(|_| next()).collect();
    let mut lp = LinearProgram::minimize(&c);
    for _ in 0..m {
        let row: Vec<f64> = (0..n)
            .map(|_| {
                let v = next();
                if next() > -0.5 {
                    0.0
                } else {
                    v
                }
            })
            .collect();
        let rhs: f64 = row.iter().sum::<f64>() + 0.5;
        lp.add_constraint(&row, ConstraintOp::Le, rhs).unwrap();
    }
    for j in 0..n {
        lp.add_sparse_constraint(&[(j, 1.0)], ConstraintOp::Le, 10.0)
            .unwrap();
    }
    lp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn forrest_tomlin_agrees_with_tableau_cold(
        n in 2usize..9,
        m in 1usize..7,
        seed in 0u64..10_000,
        // A tiny interval forces refactorization-heavy runs too.
        interval_pick in 0usize..3,
    ) {
        let interval = [2usize, 7, 64][interval_pick];
        let lp = seeded_lp(n, m, seed);
        let dense_check = Simplex::new().solve(&lp)
            .map_err(|e| TestCaseError::fail(format!("dense tableau failed: {e}")))?;
        let s = RevisedSimplex::new()
            .refactor_interval(interval)
            .solve(&lp)
            .map_err(|e| TestCaseError::fail(format!("interval {interval} failed: {e}")))?;
        prop_assert!(
            (s.objective() - dense_check.objective()).abs()
                < 1e-6 * dense_check.objective().abs().max(1.0),
            "interval {interval}: objective {} vs tableau {}",
            s.objective(),
            dense_check.objective()
        );
        prop_assert!(lp.max_violation(s.x()) < 1e-7, "interval {interval}: infeasible point");
    }

    #[test]
    fn forrest_tomlin_agrees_with_tableau_across_warm_pivot_sequences(
        n in 3usize..8,
        m in 2usize..6,
        seed in 0u64..10_000,
        // Rhs retarget sequence: each step scales one row's rhs.
        steps in proptest::collection::vec((0usize..64, 20u32..300), 1..7),
    ) {
        let base = seeded_lp(n, m, seed);
        let mut lp = base.clone();
        let mut session = RevisedSimplex::new()
            .refactor_interval(4)
            .start(&lp)
            .expect("valid program");
        let (first, _) = session
            .solve()
            .map_err(|e| TestCaseError::fail(format!("cold: {e}")))?;
        prop_assert!(lp.max_violation(first.x()) < 1e-7);
        // Drive the session through the rhs sequence; every warm
        // dual-simplex re-solve must match a cold tableau solve of the
        // retargeted program, verdicts included.
        let num_rows = lp.num_constraints();
        for (step, &(row, scale)) in steps.iter().enumerate() {
            let row = row % num_rows;
            let (_, _, rhs0) = base.constraint_entries(row);
            let new_rhs = rhs0 * scale as f64 / 100.0;
            session.set_rhs(row, new_rhs).unwrap();
            lp.set_rhs(row, new_rhs).unwrap();
            let warm = session.solve().map(|(s, _)| s.objective());
            let cold = Simplex::new().solve(&lp).map(|s| s.objective());
            match (&warm, &cold) {
                (Ok(a), Ok(b)) => prop_assert!(
                    (a - b).abs() < 1e-7 * b.abs().max(1.0),
                    "step {step}: warm {a} vs tableau {b}"
                ),
                (Err(ea), Err(eb)) => prop_assert_eq!(
                    ea, eb, "step {}: verdicts diverged", step
                ),
                (a, b) => return Err(TestCaseError::fail(format!(
                    "step {step}: warm -> {a:?} but tableau -> {b:?}"
                ))),
            }
        }
    }
}
