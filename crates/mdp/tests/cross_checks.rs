//! Cross-validation of the three independent MDP solution paths on
//! randomly generated decision processes: value iteration, policy
//! iteration and the occupation-measure LP must agree, and constrained
//! solutions must satisfy the Lagrangian sanity conditions of Appendix A.
//! Sessions seeded with a policy basis must reach the answers of the
//! unseeded and dense solves.

use dpm_linalg::{LuDecomposition, Matrix};
use dpm_lp::{InteriorPoint, PricingRule, ReloadKind, RevisedSimplex, Simplex};
use dpm_markov::{ControlledMarkovChain, StochasticMatrix};
use dpm_mdp::{
    ConstrainedMdp, CostConstraint, DeterministicPolicy, DiscountedMdp, MdpError, OccupationLp,
};
use proptest::prelude::*;

fn stochastic_row(width: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1u32..=100, width).prop_map(|w| {
        let total: u32 = w.iter().sum();
        w.iter().map(|&x| x as f64 / total as f64).collect()
    })
}

fn stochastic(n: usize) -> impl Strategy<Value = StochasticMatrix> {
    proptest::collection::vec(stochastic_row(n), n).prop_map(|rows| {
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        StochasticMatrix::from_rows(&refs).expect("valid")
    })
}

fn mdp(n: usize, m: usize) -> impl Strategy<Value = DiscountedMdp> {
    (
        proptest::collection::vec(stochastic(n), m),
        proptest::collection::vec(0u32..=400, n * m),
        2u32..=9,
    )
        .prop_map(move |(kernels, costs, d)| {
            let chain = ControlledMarkovChain::new(kernels).expect("same dims");
            let cost = Matrix::from_vec(n, m, costs.iter().map(|&c| c as f64 / 100.0).collect())
                .expect("shape");
            DiscountedMdp::new(chain, cost, d as f64 / 10.0).expect("valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn all_three_paths_agree(mdp in mdp(4, 3)) {
        let (vi_values, vi_policy) = mdp.value_iteration(1e-11, 500_000).expect("converges");
        let (pi_values, pi_policy) = mdp.policy_iteration().expect("converges");
        // Policies can differ on ties; the values cannot.
        prop_assert!(dpm_linalg::vector::max_abs_diff(&vi_values, &pi_values)
            < 1e-5 * (1.0 + dpm_linalg::vector::norm_inf(&pi_values)));
        // Evaluating either policy reproduces the optimal values.
        let eval = mdp.evaluate_deterministic(&pi_policy).expect("evaluates");
        prop_assert!(dpm_linalg::vector::max_abs_diff(&eval, &pi_values) < 1e-7
            * (1.0 + dpm_linalg::vector::norm_inf(&pi_values)));
        let _ = vi_policy;

        // LP path: for a uniform initial distribution.
        let n = mdp.num_states();
        let initial = vec![1.0 / n as f64; n];
        let lp = OccupationLp::new(&mdp, &initial).expect("valid");
        let solution = lp.solve(&Simplex::new()).expect("feasible");
        let expected: f64 = initial.iter().zip(&pi_values).map(|(q, v)| q * v).sum();
        prop_assert!(
            (solution.objective() - expected).abs() < 1e-5 * (1.0 + expected.abs()),
            "lp {} vs dp {expected}", solution.objective()
        );
        // The extracted policy evaluates to the same value.
        let policy_value = mdp.policy_value(&solution.policy(), &initial).expect("evaluates");
        prop_assert!((policy_value - expected).abs() < 1e-5 * (1.0 + expected.abs()));
    }

    #[test]
    fn constrained_solution_satisfies_bound_and_dominates_nothing_cheaper(
        mdp in mdp(3, 2),
        bound_step in 1u32..10,
    ) {
        // Secondary cost: indicator of action 1.
        let n = mdp.num_states();
        let m = mdp.num_actions();
        let secondary = Matrix::from_fn(n, m, |_, a| if a == 1 { 1.0 } else { 0.0 });
        let horizon = mdp.horizon();
        // Bound: a fraction of the horizon (always feasible: action 0 only).
        let bound = horizon * bound_step as f64 / 10.0;
        let initial = {
            let mut q = vec![0.0; n];
            q[0] = 1.0;
            q
        };
        let unconstrained = OccupationLp::new(&mdp, &initial)
            .expect("valid")
            .solve(&Simplex::new())
            .expect("feasible")
            .objective();
        let constrained = ConstrainedMdp::new(mdp.clone())
            .with_constraint(CostConstraint::new("action-1 budget", secondary, bound))
            .solve(&initial, &Simplex::new())
            .expect("always feasible: action 0 satisfies any nonnegative bound");
        // The bound holds and the constrained optimum is no better than
        // the unconstrained one.
        prop_assert!(constrained.constraint_value(0) <= bound + 1e-6 * (1.0 + bound));
        prop_assert!(constrained.objective() >= unconstrained - 1e-6 * (1.0 + unconstrained.abs()));
    }

    #[test]
    fn solvers_agree_on_random_constrained_mdps(mdp in mdp(3, 2)) {
        let n = mdp.num_states();
        let secondary = Matrix::from_fn(n, 2, |_, a| a as f64);
        let bound = mdp.horizon() * 0.4;
        let initial = vec![1.0 / n as f64; n];
        let build = |m: DiscountedMdp| {
            ConstrainedMdp::new(m).with_constraint(CostConstraint::new(
                "budget",
                secondary.clone(),
                bound,
            ))
        };
        let simplex = build(mdp.clone()).solve(&initial, &Simplex::new()).expect("feasible");
        let interior = build(mdp).solve(&initial, &InteriorPoint::new()).expect("feasible");
        prop_assert!(
            (simplex.objective() - interior.objective()).abs()
                < 1e-4 * (1.0 + simplex.objective().abs()),
            "simplex {} vs interior {}", simplex.objective(), interior.objective()
        );
    }

    #[test]
    fn occupation_state_frequencies_match_policy_evaluation(mdp in mdp(3, 2)) {
        // The discounted state frequencies of the extracted policy's
        // closed-loop chain must equal the LP's state frequencies.
        let n = mdp.num_states();
        let initial = {
            let mut q = vec![0.0; n];
            q[0] = 1.0;
            q
        };
        let solution = OccupationLp::new(&mdp, &initial)
            .expect("valid")
            .solve(&Simplex::new())
            .expect("feasible");
        let policy = solution.policy();
        let closed = mdp.chain().under_state_decisions(policy.decisions()).expect("valid");
        // Discounted visit counts: x = q Σ_t (αP)^t  = q (I − αP)⁻¹.
        let alpha = mdp.discount();
        let mut dist = initial.clone();
        let mut visits = vec![0.0; n];
        for _ in 0..4_000 {
            for (v, d) in visits.iter_mut().zip(&dist) {
                *v += d;
            }
            dist = closed.transition_matrix().step(&dist).expect("dims");
            dpm_linalg::vector::scale(&mut dist, alpha);
            if dpm_linalg::vector::norm_inf(&dist) < 1e-14 {
                break;
            }
        }
        let lp_freqs = solution.state_frequencies();
        for s in 0..n {
            prop_assert!(
                (visits[s] - lp_freqs[s]).abs() < 1e-4 * (1.0 + lp_freqs[s]),
                "state {s}: chain {} vs lp {}", visits[s], lp_freqs[s]
            );
        }
    }
}

/// A deterministic xorshift stream over `[0, 1)` for the seeded-start
/// properties, which draw their dimensions from the case itself.
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
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// A random controlled chain with `n` states and `m` actions whose rows
/// have random sparse support (the diagonal plus about a third of the
/// states), as composed DPM systems have.
fn sparse_chain(n: usize, m: usize, stream: &mut Stream) -> ControlledMarkovChain {
    let kernels = (0..m)
        .map(|_| {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|s| {
                    let mut row: Vec<f64> = (0..n)
                        .map(|j| {
                            if j == s || stream.unit() < 0.3 {
                                0.05 + stream.unit()
                            } else {
                                0.0
                            }
                        })
                        .collect();
                    let total: f64 = row.iter().sum();
                    row.iter_mut().for_each(|p| *p /= total);
                    row
                })
                .collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            StochasticMatrix::from_rows(&refs).expect("stochastic by construction")
        })
        .collect();
    ControlledMarkovChain::new(kernels).expect("same dims")
}

/// A random nonnegative `n × m` cost with some zero entries.
fn sparse_cost(n: usize, m: usize, stream: &mut Stream) -> Matrix {
    Matrix::from_fn(n, m, |_, _| {
        if stream.unit() < 0.25 {
            0.0
        } else {
            4.0 * stream.unit()
        }
    })
}

/// A random constrained MDP with 3–30 states, 2–6 actions, a horizon
/// of 10–10⁴ slices and 0–3 bounds placed anywhere from below the
/// cheapest to above the dearest per-slice usage (so some are
/// infeasible and some inactive), plus a point initial distribution.
fn constrained_case(case: u64) -> (ConstrainedMdp, Vec<f64>) {
    let mut stream = Stream::new(case);
    let n = 3 + stream.below(28);
    let m = 2 + stream.below(5);
    let horizon = 10f64.powf(1.0 + 3.0 * stream.unit());
    let discount = 1.0 - 1.0 / horizon;
    let chain = sparse_chain(n, m, &mut stream);
    let mdp = DiscountedMdp::new(chain, sparse_cost(n, m, &mut stream), discount).expect("valid");
    let mut problem = ConstrainedMdp::new(mdp);
    for k in 0..stream.below(4) {
        let d = sparse_cost(n, m, &mut stream);
        let (lo, hi) = d
            .as_slice()
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let per_slice = lo + (1.2 * stream.unit() - 0.1) * (hi - lo);
        problem = problem.with_constraint(CostConstraint::per_slice(
            format!("bound {k}"),
            d,
            per_slice,
            discount,
        ));
    }
    let mut initial = vec![0.0; n];
    initial[stream.below(n)] = 1.0;
    (problem, initial)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The basis of any deterministic policy is nonsingular on the
    /// balance rows and solves to the policy's normalized occupation
    /// measure, which is nonnegative: a cold start from it needs no
    /// artificial on any balance row.
    #[test]
    fn policy_bases_are_feasible_on_the_balance_rows(case in 0u64..1_000_000) {
        let (problem, initial) = constrained_case(case);
        let mdp = problem.mdp();
        let (n, m) = (mdp.num_states(), mdp.num_actions());
        let mut stream = Stream::new(case ^ 0x5EED);
        let policy = DeterministicPolicy::new((0..n).map(|_| stream.below(m)).collect());
        let occupation = OccupationLp::new(mdp, &initial).expect("valid");
        let bounds: Vec<(&Matrix, f64)> =
            problem.constraints().iter().map(|c| (c.cost(), c.bound())).collect();
        let lp = occupation.build(&bounds).expect("builds");
        let seed = occupation.policy_basis(&policy, bounds.len());
        prop_assert_eq!(seed.len(), lp.num_constraints());
        prop_assert!(seed[n..].iter().all(Option::is_none));

        // The balance block of the seeded basis, densely.
        let mut block = Matrix::zeros(n, n);
        let mut rhs = vec![0.0; n];
        for row in 0..n {
            let (entries, _, b) = lp.constraint_entries(row);
            rhs[row] = b;
            for &(j, v) in entries {
                if let Some(slot) = seed.iter().take(n).position(|&c| c == Some(j)) {
                    block[(row, slot)] += v;
                }
            }
        }
        let y = LuDecomposition::new(&block)
            .and_then(|lu| lu.solve(&rhs))
            .map_err(|e| TestCaseError::fail(format!("singular policy basis: {e}")))?;

        // Reference: y_s = (1−α)·[q (I − αP_π)⁻¹]_s, by a transposed solve.
        let alpha = mdp.discount();
        let closed = Matrix::from_fn(n, n, |s, j| {
            let stay = if s == j { 1.0 } else { 0.0 };
            stay - alpha * mdp.chain().prob(s, j, policy.action(s))
        });
        let visits = LuDecomposition::new(&closed)
            .and_then(|lu| lu.solve_transposed(&initial))
            .expect("I − αP is nonsingular");
        // Slot j − 1 holds state j; the normalization row's slot holds
        // state 0.
        for (s, &visit) in visits.iter().enumerate() {
            let slot = if s == 0 { n - 1 } else { s - 1 };
            let want = (1.0 - alpha) * visit;
            prop_assert!(y[slot] >= -1e-12, "state {s}: {}", y[slot]);
            prop_assert!((y[slot] - want).abs() <= 1e-9, "state {s}: {} vs {want}", y[slot]);
        }
    }

    /// A seeded session — cold, after warm bound retargets and after a
    /// cold reload that re-seeds — reaches the verdict and optimum of the
    /// unseeded one-shot solve and of the dense tableau.
    #[test]
    fn seeded_sessions_match_unseeded_and_dense_solves(case in 0u64..1_000_000) {
        let (problem, initial) = constrained_case(case);
        let check = |problem: &ConstrainedMdp,
                     seeded: Result<f64, MdpError>|
         -> Result<(), TestCaseError> {
            let mdp = problem.mdp();
            let bounds: Vec<(&Matrix, f64)> =
                problem.constraints().iter().map(|c| (c.cost(), c.bound())).collect();
            let occupation = OccupationLp::new(mdp, &initial).expect("valid");
            let dantzig = RevisedSimplex::new().with_pricing(PricingRule::Dantzig);
            let one_shot = occupation.solve_with_bounds(&dantzig, &bounds).map(|s| s.objective());
            let dense = occupation.solve_with_bounds(&Simplex::new(), &bounds).map(|s| s.objective());
            match (seeded, one_shot, dense) {
                (Ok(got), Ok(want), Ok(tableau)) => {
                    prop_assert!(close(got, want), "seeded {got} vs one-shot {want}");
                    prop_assert!(close(got, tableau), "seeded {got} vs dense {tableau}");
                }
                (got, want, tableau) => {
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(&got, &tableau);
                }
            }
            Ok(())
        };

        let mut session = problem
            .clone()
            .into_session(&initial, &RevisedSimplex::new())
            .expect("loads");
        check(&problem, session.solve().map(|(s, _)| s.objective()))?;

        // Retarget every bound halfway toward its loosest value (warm).
        let mut retargeted = ConstrainedMdp::new(problem.mdp().clone());
        for (k, c) in problem.constraints().iter().enumerate() {
            let loose = c.cost().as_slice().iter().copied().fold(0.0, f64::max) * problem.mdp().horizon();
            let bound = 0.5 * (c.bound() + loose);
            session.set_bound(k, bound).expect("in range");
            retargeted = retargeted.with_constraint(CostConstraint::new(c.name(), c.cost().clone(), bound));
        }
        check(&retargeted, session.solve().map(|(s, _)| s.objective()))?;

        // A chain with another support reloads cold and is re-seeded.
        let mdp = retargeted.mdp();
        let mut stream = Stream::new(case ^ 0xC01D);
        let chain = sparse_chain(mdp.num_states(), mdp.num_actions(), &mut stream);
        let kind = session.update_model(&chain).expect("same dimensions");
        let mut moved = mdp.clone();
        moved.replace_chain(chain).expect("same dimensions");
        let mut reloaded = ConstrainedMdp::new(moved);
        for c in retargeted.constraints() {
            reloaded = reloaded.with_constraint(c.clone());
        }
        prop_assert_eq!(kind, ReloadKind::Cold);
        check(&reloaded, session.solve().map(|(s, _)| s.objective()))?;
    }
}
