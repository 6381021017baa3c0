//! Warm-started sweep correctness: property tests that the stateful
//! session path (`PolicyOptimizer::prepare` + `ParetoExplorer::sweep`)
//! agrees with independent per-point cold solves across random feasible
//! systems and all three LP engines, the same agreement on the paper's
//! disk drive and the scaled Appendix-B instances, plus the
//! `ParetoCurve` edge cases — all-points-infeasible sweeps and
//! duplicate-bounds sweeps.

use dpm::core::{
    DpmError, OptimizationGoal, ParetoCurve, ParetoExplorer, PolicyOptimizer, ServiceProvider,
    ServiceQueue, ServiceRequester, SolverKind, SweepTarget, SystemModel,
};
use dpm::lp::InfeasibilityCertificate;
use dpm::systems::{appendix_b, disk};
use proptest::prelude::*;

/// A random probability in [lo, hi].
fn prob(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    (0u32..=1000).prop_map(move |i| lo + (hi - lo) * i as f64 / 1000.0)
}

/// A random small service provider with `n` states and `m` commands,
/// mirroring the generator of `tests/properties.rs`.
fn service_provider(n: usize, m: usize) -> impl Strategy<Value = ServiceProvider> {
    let edges = proptest::collection::vec((0..n, 0..n, 0..m, prob(0.0, 1.0)), 0..(n * m).min(12));
    let rates = proptest::collection::vec(prob(0.0, 1.0), n * m);
    let powers = proptest::collection::vec(prob(0.0, 5.0), n * m);
    (edges, rates, powers).prop_map(move |(edges, rates, powers)| {
        let mut b = ServiceProvider::builder();
        for s in 0..n {
            b.add_state(format!("s{s}"));
        }
        for c in 0..m {
            b.add_command(format!("c{c}"));
        }
        let mut mass = vec![0.0f64; n * m];
        for &(from, to, cmd, p) in &edges {
            if from == to {
                continue;
            }
            let key = from * m + cmd;
            let allowed = (1.0 - mass[key]).max(0.0);
            let p = p.min(allowed);
            if p > 0.0 {
                b.transition(from, to, cmd, p).expect("validated");
                mass[key] += p;
            }
        }
        for s in 0..n {
            for c in 0..m {
                b.service_rate(s, c, rates[s * m + c]).expect("validated");
                b.power(s, c, powers[s * m + c]).expect("validated");
            }
        }
        b.build().expect("valid by construction")
    })
}

fn requester() -> impl Strategy<Value = ServiceRequester> {
    (prob(0.01, 0.99), prob(0.01, 0.99)).prop_map(|(p01, p11)| {
        ServiceRequester::two_state(p01, p11).expect("probabilities in range")
    })
}

const ENGINES: [SolverKind; 3] = [
    SolverKind::RevisedSimplex,
    SolverKind::Simplex,
    SolverKind::InteriorPoint,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Acceptance property: a warm-started performance sweep agrees with
    /// independent cold solves to 1e-6 at every point, under every
    /// engine, on random feasible systems. (Only the revised simplex
    /// actually warm-starts; the dense engines run cold sessions and
    /// must agree too.)
    #[test]
    fn warm_sweeps_agree_with_cold_solves_on_random_systems(
        sp in service_provider(2, 2),
        sr in requester(),
    ) {
        let system = SystemModel::compose(sp, sr, ServiceQueue::with_capacity(1))
            .expect("composes");
        // A non-monotone bound sequence: exercises tighten *and* relax
        // transitions of the warm basis.
        let bounds = [0.9, 0.6, 0.4, 0.6, 0.25, 0.9];
        for kind in ENGINES {
            let warm = ParetoExplorer::sweep_performance(
                PolicyOptimizer::new(&system).horizon(5_000.0).solver(kind),
                &bounds,
            );
            let warm = match warm {
                Ok(curve) => curve,
                // Random systems can defeat a single engine numerically;
                // that is the rescue layer's territory, not this test's.
                Err(DpmError::Infeasible) | Err(DpmError::Mdp(_)) => continue,
                Err(other) => return Err(TestCaseError::fail(format!("{kind:?}: {other}"))),
            };
            for (i, point) in warm.points().iter().enumerate() {
                let cold = PolicyOptimizer::new(&system)
                    .horizon(5_000.0)
                    .solver(kind)
                    .max_performance_penalty(bounds[i])
                    .solve();
                match (&point.solution, cold) {
                    (Some(w), Ok(c)) => {
                        prop_assert!(
                            (w.objective_per_slice() - c.objective_per_slice()).abs() < 1e-6,
                            "{kind:?} bound {}: warm {} vs cold {}",
                            bounds[i],
                            w.objective_per_slice(),
                            c.objective_per_slice()
                        );
                    }
                    (None, Err(DpmError::Infeasible)) => {}
                    (w, c) => {
                        return Err(TestCaseError::fail(format!(
                            "{kind:?} bound {}: warm feasible={} but cold {:?}",
                            bounds[i],
                            w.is_some(),
                            c.map(|s| s.objective_per_slice())
                        )))
                    }
                }
            }
        }
    }
}

#[test]
fn all_points_infeasible_sweep() {
    // Queue average 0 with loss rate 0 is below any workload's floor:
    // every sweep point is infeasible, the curve still comes back with
    // one report (and a certificate) per point, and the empty efficient
    // set is trivially convex.
    let system = dpm::systems::toy::example_system().expect("composes");
    let base = PolicyOptimizer::new(&system)
        .horizon(10_000.0)
        .max_request_loss_rate(0.0);
    let bounds = [0.05, 0.02, 0.01, 0.0];
    let curve = ParetoExplorer::sweep(base, SweepTarget::PerformancePenalty, &bounds)
        .expect("sweep itself succeeds");
    assert_eq!(curve.num_infeasible(), bounds.len());
    assert!(curve.feasible().is_empty());
    assert!(curve.is_convex(1e-9));
    for point in curve.points() {
        assert!(!point.is_feasible());
        let report = point.report.as_ref().expect("session sweeps always report");
        assert!(
            matches!(
                report.infeasibility,
                Some(
                    InfeasibilityCertificate::Phase1PositiveOptimum
                        | InfeasibilityCertificate::DualRay
                )
            ),
            "bound {}: {:?}",
            point.bound,
            report.infeasibility
        );
    }
}

#[test]
fn duplicate_bounds_sweep_is_stable() {
    // Repeated sweep values re-solve an unchanged model: identical
    // objectives, warm starts throughout (after the first point), and a
    // convexity check that tolerates zero-width intervals.
    let system = dpm::systems::toy::example_system().expect("composes");
    let bounds = [0.7, 0.7, 0.7, 0.4, 0.4, 0.2, 0.2];
    let curve = ParetoExplorer::sweep_performance(
        PolicyOptimizer::new(&system).horizon(100_000.0),
        &bounds,
    )
    .expect("sweeps");
    let feasible = curve.feasible();
    assert_eq!(feasible.len(), bounds.len());
    for (i, j) in [(0, 1), (1, 2), (3, 4), (5, 6)] {
        assert!(
            (feasible[i].1 - feasible[j].1).abs() < 1e-9,
            "duplicate bounds {} vs {} diverged: {} vs {}",
            feasible[i].0,
            feasible[j].0,
            feasible[i].1,
            feasible[j].1
        );
    }
    assert!(curve.is_convex(1e-6));
    let effort = curve.solver_effort();
    assert_eq!(effort.cold_starts, 1);
    assert_eq!(effort.warm_starts, bounds.len() - 1);
}

#[test]
fn prepared_optimization_retargets_custom_constraints() {
    // The named-bound path: a custom cost registered on the optimizer is
    // retargetable through the prepared session, and unknown names are
    // BadConfiguration, not a panic.
    let system = dpm::systems::toy::example_system().expect("composes");
    let penalty = system.custom_cost(|s, _| if s.sp == 1 && s.sr == 1 { 1.0 } else { 0.0 });
    let mut prepared = PolicyOptimizer::new(&system)
        .horizon(10_000.0)
        .custom_constraint("off-while-busy", penalty, 0.5)
        .prepare()
        .expect("prepares");
    let loose = prepared
        .resolve_with_named_bound("off-while-busy", 0.5)
        .expect("solves");
    let tight = prepared
        .resolve_with_named_bound("off-while-busy", 0.01)
        .expect("solves");
    assert!(tight.solve_report().warm_start);
    assert!(tight.power_per_slice() >= loose.power_per_slice() - 1e-7);
    let err = prepared
        .resolve_with_named_bound("no-such-constraint", 0.5)
        .unwrap_err();
    assert!(matches!(err, DpmError::BadConfiguration { .. }));
    let err = prepared
        .resolve_with_bound(SweepTarget::Power, 1.0)
        .unwrap_err();
    assert!(
        matches!(err, DpmError::BadConfiguration { .. }),
        "power bound was never configured, so its row does not exist"
    );
}

/// Sweeps `bounds` twice: warm, through one prepared session, and cold,
/// with a full prepare and solve per point. Asserts the two curves
/// agree point for point: the same feasibility pattern, and objectives
/// within 1e-6. Returns the warm curve.
fn assert_warm_sweep_matches_cold<'a>(
    label: &str,
    base: impl Fn() -> PolicyOptimizer<'a>,
    bounds: &[f64],
) -> ParetoCurve {
    let warm = ParetoExplorer::sweep_performance(base(), bounds).expect("warm sweep runs");
    let cold = ParetoExplorer::sweep_with(base(), bounds, |optimizer, bound| {
        optimizer.max_performance_penalty(bound)
    })
    .expect("cold sweep runs");
    assert_eq!(warm.points().len(), cold.points().len(), "{label}");
    for (w, c) in warm.points().iter().zip(cold.points()) {
        assert_eq!(
            w.is_feasible(),
            c.is_feasible(),
            "{label} bound {}",
            w.bound
        );
        if let (Some(wo), Some(co)) = (w.objective(), c.objective()) {
            assert!(
                (wo - co).abs() < 1e-6,
                "{label} bound {}: warm {wo} vs cold {co}",
                w.bound
            );
        }
    }
    warm
}

/// LP4 on a scaled Appendix-B system: minimum power under a queue bound
/// (swept) and a 5% loss bound.
fn scaled_lp4(system: &SystemModel) -> PolicyOptimizer<'_> {
    PolicyOptimizer::new(system)
        .horizon(100_000.0)
        .max_request_loss_rate(0.05)
}

#[test]
fn warm_pareto_sweeps_match_cold_on_disk_and_scaled_appendix_b() {
    // The paper's disk drive (66 states), Fig. 6-style, from slack down
    // toward the feasibility floor.
    let disk_system = disk::system().expect("disk model composes");
    assert_warm_sweep_matches_cold(
        "disk",
        || {
            PolicyOptimizer::new(&disk_system)
                .horizon(1_000_000.0)
                .goal(OptimizationGoal::MinimizePower)
                .max_request_loss_rate(0.05)
        },
        &[0.5, 0.4, 0.3, 0.2, 0.15, 0.1, 0.07, 0.05],
    );
    // The scaled Appendix-B instance: 208 states, 13 commands.
    let scaled = appendix_b::Config::scaled(12, 7)
        .system()
        .expect("scaled appendix-B composes");
    assert_warm_sweep_matches_cold(
        "appendix_b",
        || scaled_lp4(&scaled),
        &[1.2, 1.0, 0.9, 0.8, 0.7, 0.6],
    );
}

#[test]
#[ignore = "ROADMAP item 1: at queue 1.2 the seeded revised simplex fails \
            (basic variable negative) and both sweeps fall into the dense \
            interior-point rescue, which ran 55 minutes without finishing; \
            run with `cargo test --release --test warm_start -- --ignored`"]
fn warm_pareto_sweep_matches_cold_at_1050_states() {
    // 25 SP x 2 SR x 21 SQ = 1050 states, 25 commands.
    let huge = appendix_b::Config::scaled(24, 20)
        .system()
        .expect("huge appendix-B composes");
    assert!(huge.num_states() >= 1000);
    let warm =
        assert_warm_sweep_matches_cold("appendix_b_huge", || scaled_lp4(&huge), &[1.2, 1.0, 0.8]);
    assert!(
        warm.feasible().len() >= 2,
        "the 1050-state sweep must actually trace a curve"
    );
}
