//! Property-based tests of the Markov-chain substrate: stochasticity is
//! closed under the crate's operations, stationary distributions are
//! genuine fixed points, and the controlled-chain mixing of equation (5)
//! behaves like a convex combination.

use dpm_markov::{ControlledMarkovChain, MarkovChain, StateIndexer, StochasticMatrix};
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
        StochasticMatrix::from_rows(&refs).expect("valid by construction")
    })
}

fn distribution(n: usize) -> impl Strategy<Value = Vec<f64>> {
    stochastic_row(n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn step_preserves_probability_mass(p in stochastic(4), d in distribution(4)) {
        let next = p.step(&d).expect("dims");
        let total: f64 = next.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-12);
        prop_assert!(next.iter().all(|&v| v >= -1e-15));
    }

    #[test]
    fn n_step_composes(p in stochastic(3), k in 0usize..6) {
        let direct = p.n_step(k);
        // Row i of Pᵏ is the unit distribution at i stepped k times.
        for i in 0..3 {
            let mut row = vec![0.0; 3];
            row[i] = 1.0;
            for _ in 0..k {
                row = p.step(&row).expect("dims");
            }
            for (j, &v) in row.iter().enumerate() {
                prop_assert!((direct.prob(i, j) - v).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn stationary_distribution_is_fixed_point(p in stochastic(4)) {
        // Strictly positive random rows ⇒ irreducible + aperiodic.
        let chain = MarkovChain::new(p);
        let pi = chain.stationary_distribution().expect("irreducible");
        let stepped = chain.transition_matrix().step(&pi).expect("dims");
        prop_assert!(dpm_linalg::vector::max_abs_diff(&pi, &stepped) < 1e-9);
        // And the empirical long-run distribution converges to it.
        let far = chain.distribution_after(&[1.0, 0.0, 0.0, 0.0], 500).expect("dims");
        prop_assert!(dpm_linalg::vector::max_abs_diff(&pi, &far) < 1e-6);
    }

    #[test]
    fn mixture_interpolates_probabilities(
        a in stochastic(3),
        b in stochastic(3),
        w_steps in 0u32..=10,
    ) {
        let w = w_steps as f64 / 10.0;
        let mixed = StochasticMatrix::mixture(&[(w, &a), (1.0 - w, &b)]).expect("valid weights");
        for i in 0..3 {
            for j in 0..3 {
                let expect = w * a.prob(i, j) + (1.0 - w) * b.prob(i, j);
                prop_assert!((mixed.prob(i, j) - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn controlled_chain_under_onehot_decision_is_that_kernel(
        kernels in proptest::collection::vec(stochastic(3), 3),
        action in 0usize..3,
    ) {
        let chain = ControlledMarkovChain::new(kernels.clone()).expect("same dims");
        let mut decision = vec![0.0; 3];
        decision[action] = 1.0;
        let mixed = chain.under_decision(&decision).expect("valid");
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((mixed.prob(i, j) - kernels[action].prob(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn closed_loop_chain_rows_follow_state_decisions(
        kernels in proptest::collection::vec(stochastic(3), 2),
        decisions in proptest::collection::vec(stochastic_row(2), 3),
    ) {
        let chain = ControlledMarkovChain::new(kernels.clone()).expect("same dims");
        let closed = chain.under_state_decisions(&decisions).expect("valid");
        for (i, decision) in decisions.iter().enumerate() {
            for j in 0..3 {
                let expect = decision[0] * kernels[0].prob(i, j)
                    + decision[1] * kernels[1].prob(i, j);
                prop_assert!((closed.transition_matrix().prob(i, j) - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn indexer_flatten_unflatten_round_trip(
        dims in proptest::collection::vec(1usize..5, 1..4),
    ) {
        let indexer = StateIndexer::new(&dims).expect("nonzero dims");
        for flat in 0..indexer.num_states() {
            let coords = indexer.unflatten(flat);
            prop_assert_eq!(indexer.flatten(&coords).expect("in range"), flat);
        }
    }

    #[test]
    fn hitting_times_satisfy_one_step_equation(p in stochastic(4), target in 0usize..4) {
        let chain = MarkovChain::new(p.clone());
        let h = chain.expected_hitting_times(target).expect("irreducible");
        for i in 0..4 {
            if i == target {
                prop_assert_eq!(h[i], 0.0);
                continue;
            }
            // h(i) = 1 + Σ_{j≠target} P(i,j) h(j)
            let rhs: f64 = 1.0
                + (0..4)
                    .filter(|&j| j != target)
                    .map(|j| p.prob(i, j) * h[j])
                    .sum::<f64>();
            prop_assert!((h[i] - rhs).abs() < 1e-8 * (1.0 + h[i].abs()));
        }
    }
}
