//! Basis seeds change the path of a cold solve, never its answer.
//!
//! A [`RevisedSimplex`] session seeded through
//! [`SolveSession::seed_basis`](dpm_lp::SolveSession::seed_basis) starts its cold solve from the seeded
//! columns, repairs the rows the seed violates with `−e_i` artificials,
//! and drops a seed that leaves the basis singular or negative on a
//! seeded column. Whatever the seed, the verdict and the optimum must be
//! those of the unseeded one-shot solve under Dantzig pricing — the
//! independent reference the occupation-LP layer and perfbench's
//! cross-check rely on.

use dpm_lp::{ConstraintOp, LinearProgram, LpError, LpSolver, PricingRule, RevisedSimplex};
use proptest::prelude::*;

/// A deterministic xorshift stream over `[0, 1)`.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Stream(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % 1_000_003) as f64 / 1_000_003.0
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n.saturating_sub(1))
    }
}

/// A random program with `eq` equality rows first, then `le` `≤` rows,
/// then `ge` `≥` rows and a box `x_j ≤ 10` per variable. The point `x0`
/// is positive exactly on the first `eq` variables, so those columns on
/// the equality rows are a feasible basis of the equalities, and the
/// inequalities hold at `x0` with random margins: the program is feasible
/// and bounded. Variable `n` appears in no row but its box, so seeding it
/// elsewhere makes the basis singular.
fn program(n: usize, eq: usize, le: usize, ge: usize, stream: &mut Stream) -> LinearProgram {
    let x0: Vec<f64> = (0..=n)
        .map(|j| if j < eq { 0.5 + stream.unit() } else { 0.0 })
        .collect();
    let costs: Vec<f64> = (0..=n).map(|_| stream.unit() * 2.0 - 0.5).collect();
    let mut lp = LinearProgram::minimize(&costs);
    let row = |lp: &mut LinearProgram, op: ConstraintOp, stream: &mut Stream| {
        let mut a: Vec<f64> = (0..n)
            .map(|_| {
                if stream.unit() < 0.3 {
                    0.0
                } else {
                    stream.unit() * 2.0 - 0.6
                }
            })
            .collect();
        a.push(0.0);
        let at_x0: f64 = a.iter().zip(&x0).map(|(a, x)| a * x).sum();
        let margin = stream.unit();
        let rhs = match op {
            ConstraintOp::Eq => at_x0,
            ConstraintOp::Le => at_x0 + margin,
            ConstraintOp::Ge => at_x0 - margin,
        };
        lp.add_constraint(&a, op, rhs).unwrap();
    };
    for _ in 0..eq {
        row(&mut lp, ConstraintOp::Eq, stream);
    }
    for _ in 0..le {
        row(&mut lp, ConstraintOp::Le, stream);
    }
    for _ in 0..ge {
        row(&mut lp, ConstraintOp::Ge, stream);
    }
    for j in 0..=n {
        lp.add_sparse_constraint(&[(j, 1.0)], ConstraintOp::Le, 10.0)
            .unwrap();
    }
    lp
}

/// The seed kinds the battery draws from.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// The support columns on the equality rows: feasible on them.
    Valid,
    /// The all-zero column on one row, or one column on two rows.
    Singular,
    /// Random columns on the equality rows: often negative there.
    Random,
    /// The support columns on a random subset of the equality rows,
    /// plus support columns on inequality rows they may violate.
    Partial,
}

fn seed(lp: &LinearProgram, eq: usize, kind: Kind, stream: &mut Stream) -> Vec<Option<usize>> {
    let rows = lp.num_constraints();
    let vars = lp.num_vars();
    let mut seed = vec![None; rows];
    match kind {
        Kind::Valid => {
            for (i, s) in seed.iter_mut().enumerate().take(eq) {
                *s = Some(i);
            }
        }
        Kind::Singular => {
            for (i, s) in seed.iter_mut().enumerate().take(eq) {
                *s = Some(i);
            }
            let row = stream.below(rows);
            seed[row] = if stream.unit() < 0.5 {
                Some(vars - 1)
            } else {
                // Row 0 holds column 0 already when eq > 0.
                Some(if row == 0 { 1 % vars } else { 0 })
            };
        }
        Kind::Random => {
            for s in seed.iter_mut().take(eq) {
                *s = Some(stream.below(vars - 1));
            }
        }
        Kind::Partial => {
            for (i, s) in seed.iter_mut().enumerate() {
                if stream.unit() < 0.5 {
                    *s = Some(i % (vars - 1));
                }
            }
        }
    }
    seed
}

fn reference(lp: &LinearProgram) -> Result<f64, LpError> {
    RevisedSimplex::new()
        .with_pricing(PricingRule::Dantzig)
        .solve(lp)
        .map(|s| s.objective())
}

fn seeded(lp: &LinearProgram, seed: &[Option<usize>]) -> Result<f64, LpError> {
    let mut session = RevisedSimplex::new().start(lp)?;
    session.seed_basis(seed)?;
    let (solution, _) = session.solve()?;
    assert!(
        lp.max_violation(solution.x()) < 1e-7,
        "seeded optimum violates the program"
    );
    Ok(solution.objective())
}

fn agree(lp: &LinearProgram, seed: &[Option<usize>]) -> Result<(), TestCaseError> {
    match (reference(lp), seeded(lp, seed)) {
        (Ok(want), Ok(got)) => {
            prop_assert!(
                (want - got).abs() <= 1e-9 * want.abs().max(1.0),
                "seed {seed:?}: seeded {got} vs unseeded Dantzig {want}"
            );
        }
        (want, got) => prop_assert_eq!(want, got, "seed {:?}", seed),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every seed kind reaches the unseeded Dantzig verdict and optimum.
    #[test]
    fn seeded_cold_solves_match_the_unseeded_reference(
        n in 3usize..10,
        eq in 1usize..4,
        le in 0usize..4,
        ge in 0usize..3,
        case in 0u64..100_000,
    ) {
        let eq = eq.min(n);
        let mut stream = Stream::new(case);
        let lp = program(n, eq, le, ge, &mut stream);
        for kind in [Kind::Valid, Kind::Singular, Kind::Random, Kind::Partial] {
            let seed = seed(&lp, eq, kind, &mut stream);
            agree(&lp, &seed)?;
        }
    }

    /// An infeasible program stays infeasible under every seed.
    #[test]
    fn seeds_never_hide_infeasibility(
        n in 3usize..8,
        eq in 1usize..3,
        case in 0u64..100_000,
    ) {
        let mut stream = Stream::new(case);
        let mut lp = program(n, eq, 1, 1, &mut stream);
        // Σ x ≤ −1 has no nonnegative solution.
        let all = vec![1.0; n + 1];
        lp.add_constraint(&all, ConstraintOp::Le, -1.0).unwrap();
        prop_assert_eq!(reference(&lp), Err(LpError::Infeasible));
        for kind in [Kind::Valid, Kind::Singular, Kind::Random, Kind::Partial] {
            let seed = seed(&lp, eq, kind, &mut stream);
            prop_assert_eq!(seeded(&lp, &seed), Err(LpError::Infeasible), "seed {:?}", seed);
        }
    }
}

#[test]
fn seeds_that_do_not_fit_are_errors() {
    let mut stream = Stream::new(7);
    let lp = program(4, 2, 1, 1, &mut stream);
    let mut session = RevisedSimplex::new().start(&lp).unwrap();
    let rows = lp.num_constraints();
    assert_eq!(
        session.seed_basis(&vec![None; rows - 1]),
        Err(LpError::BadConstraint {
            found: rows - 1,
            expected: rows
        })
    );
    let mut out_of_range = vec![None; rows];
    out_of_range[1] = Some(lp.num_vars());
    assert_eq!(
        session.seed_basis(&out_of_range),
        Err(LpError::BadConstraint {
            found: lp.num_vars(),
            expected: lp.num_vars()
        })
    );
    // The session is untouched and still solves.
    assert!(session.solve().is_ok());
}
