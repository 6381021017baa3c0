//! End-to-end acceptance tests of the online-adaptation runtime
//! (`dpm::runtime::AdaptiveController`):
//!
//! * on **stationary** traces the per-epoch warm re-solves agree with
//!   independent cold solves of the same fitted models to 1e-6, across
//!   all three LP engines (property-tested over random workloads);
//! * on a stationary workload the adaptive controller converges to the
//!   static LP-optimal policy's operating point;
//! * on the drifting workload it beats the static policy's power while
//!   every per-epoch solve respects the performance constraint, with
//!   warm reloads throughout, at under a third of the pivots of cold
//!   re-solves — the closed-loop acceptance criterion.

use dpm::core::{PolicyOptimizer, SolverKind};
use dpm::lp::ReloadKind;
use dpm::runtime::{AdaptiveConfig, AdaptiveController};
use dpm::sim::{PowerManager, SimConfig, SimStats, Simulator, StochasticPolicyManager};
use dpm::systems::drifting;
use dpm::trace::generators::BurstyTraceGenerator;
use dpm::trace::{KMemoryTracker, WindowKind};
use proptest::prelude::*;

const ENGINES: [SolverKind; 3] = [
    SolverKind::RevisedSimplex,
    SolverKind::Simplex,
    SolverKind::InteriorPoint,
];

fn scenario_config() -> AdaptiveConfig {
    AdaptiveConfig::new()
        .epoch_slices(drifting::EPOCH_SLICES)
        .window(WindowKind::Sliding(2 * drifting::EPOCH_SLICES as usize))
        .memory(drifting::MEMORY)
        .smoothing(drifting::SMOOTHING)
        .horizon(drifting::HORIZON)
        .max_performance_penalty(drifting::QUEUE_BOUND)
        .max_request_loss_rate(drifting::LOSS_BOUND)
}

/// Runs `manager` on the scenario system over `trace` with the
/// session-restart sampling the discounted LP measure calls for.
fn simulate(manager: &mut dyn PowerManager, trace: &[u32], seed: u64) -> SimStats {
    let system = drifting::blended_system(7).expect("composes");
    Simulator::new(
        &system,
        SimConfig::new(trace.len() as u64)
            .seed(seed)
            .restart_probability(1.0 / drifting::HORIZON),
    )
    .run_trace(
        manager,
        trace,
        &mut KMemoryTracker::new(drifting::MEMORY).tracker(),
    )
    .expect("simulates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// On a stationary trace, every epoch's warm re-solve must agree
    /// with a **cold** solve of the identical fitted model to 1e-6 —
    /// for all three engines (only the revised simplex actually reloads
    /// warm; the dense engines re-solve cold in-session and must agree
    /// too). The fitted model of each epoch is replayed exactly from
    /// the controller's flight records.
    #[test]
    fn stationary_epoch_resolves_agree_with_cold_across_engines(
        p01 in (1u32..40).prop_map(|i| i as f64 / 100.0),
        p11 in (40u32..95).prop_map(|i| i as f64 / 100.0),
        seed in 0u64..1000,
    ) {
        let trace = BurstyTraceGenerator::new(p01, p11)
            .seed(seed)
            .generate(14_000);
        for kind in ENGINES {
            let system = drifting::blended_system(7).expect("composes");
            let mut controller =
                AdaptiveController::new(&system, scenario_config().solver(kind))
                    .expect("constructs");
            simulate(&mut controller, &trace, seed ^ 0x5a);
            prop_assert!(controller.epochs().len() >= 5, "{kind:?}");
            for epoch in controller.epochs() {
                prop_assert!(epoch.refreshed && epoch.error.is_none(), "{kind:?}");
                // Replay the epoch's exact fitted model and solve it
                // cold, both with the controller's own engine (the
                // warm≡cold claim, to 1e-6) and with the independent
                // dense reference (cross-engine sanity; the interior
                // point's path-following accuracy is ~1e-5, so the
                // cross-engine tolerance matches the repo's other
                // cross-checks).
                let epoch_system =
                    drifting::system_for(epoch.requester.clone()).expect("composes");
                let cold_with = |engine: SolverKind| {
                    PolicyOptimizer::new(&epoch_system)
                        .horizon(drifting::HORIZON)
                        .max_performance_penalty(drifting::QUEUE_BOUND)
                        .max_request_loss_rate(drifting::LOSS_BOUND)
                        .solver(engine)
                        .solve()
                };
                match (epoch.power_per_slice, cold_with(kind)) {
                    (Some(warm), Ok(cold)) => {
                        prop_assert!(
                            (warm - cold.power_per_slice()).abs() < 1e-6,
                            "{kind:?} epoch {}: warm {warm} vs cold {}",
                            epoch.epoch,
                            cold.power_per_slice()
                        );
                        let reference = cold_with(SolverKind::Simplex)
                            .expect("reference engine solves what the others solved");
                        prop_assert!(
                            (warm - reference.power_per_slice()).abs() < 1e-4,
                            "{kind:?} epoch {}: warm {warm} vs dense reference {}",
                            epoch.epoch,
                            reference.power_per_slice()
                        );
                    }
                    (None, Err(dpm::core::DpmError::Infeasible)) => {
                        prop_assert!(epoch.infeasible, "{kind:?} epoch {}", epoch.epoch);
                    }
                    (warm, cold) => {
                        return Err(TestCaseError::fail(format!(
                            "{kind:?} epoch {}: warm {warm:?} vs cold {:?}",
                            epoch.epoch,
                            cold.map(|s| s.power_per_slice())
                        )));
                    }
                }
            }
        }
    }
}

#[test]
fn adaptive_converges_to_static_optimal_on_stationary_workload() {
    // On a workload that never drifts, adaptation must cost (almost)
    // nothing: the controller's operating point converges to the static
    // LP-optimal policy computed from the same statistics offline.
    let (p01, p11) = (0.05, 0.8);
    let trace = BurstyTraceGenerator::new(p01, p11)
        .seed(9)
        .generate(120_000);
    let sr = drifting::extractor().extract(&trace).unwrap();
    let system = drifting::system_for(sr).unwrap();
    let solution = PolicyOptimizer::new(&system)
        .horizon(drifting::HORIZON)
        .max_performance_penalty(drifting::QUEUE_BOUND)
        .max_request_loss_rate(drifting::LOSS_BOUND)
        .solve()
        .unwrap();
    let mut static_manager = StochasticPolicyManager::new(solution.policy().clone());
    let static_stats = simulate(&mut static_manager, &trace, 31);

    let blended = drifting::blended_system(7).unwrap();
    let mut adaptive = AdaptiveController::new(&blended, scenario_config()).unwrap();
    let adaptive_stats = simulate(&mut adaptive, &trace, 31);

    // The per-epoch model-expected operating points converge to the
    // static solution's (the fits see the same statistics): compare the
    // tail epochs, where the window holds only stationary data.
    let tail: Vec<_> = adaptive
        .epochs()
        .iter()
        .skip(4)
        .filter_map(|e| e.power_per_slice)
        .collect();
    assert!(tail.len() >= 10);
    let mean_power: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
    assert!(
        (mean_power - solution.power_per_slice()).abs() < 0.1,
        "epoch-mean predicted power {mean_power} vs static {}",
        solution.power_per_slice()
    );
    // And the simulated operating points agree within sampling noise.
    assert!(
        (adaptive_stats.average_power() - static_stats.average_power()).abs() < 0.25,
        "adaptive {} vs static {}",
        adaptive_stats.average_power(),
        static_stats.average_power()
    );
    assert!(
        (adaptive_stats.average_queue() - static_stats.average_queue()).abs() < 0.2,
        "adaptive queue {} vs static {}",
        adaptive_stats.average_queue(),
        static_stats.average_queue()
    );
}

#[test]
fn adaptive_beats_static_on_the_drifting_workload() {
    // The closed-loop acceptance criterion, end to end on the facade:
    // under the drifting workload the adaptive controller's average
    // power beats the static LP-optimal policy fitted to the blended
    // trace, its per-epoch solves all respect the performance bound
    // under their models, and every same-shape model swap reloads warm
    // with pivot counts far below a cold solve.
    let slices = 150_000;
    let trace = drifting::workload(slices, 7);
    let system = drifting::blended_system(7).unwrap();
    let static_solution = PolicyOptimizer::new(&system)
        .horizon(drifting::HORIZON)
        .max_performance_penalty(drifting::QUEUE_BOUND)
        .max_request_loss_rate(drifting::LOSS_BOUND)
        .solve()
        .unwrap();
    let mut static_manager = StochasticPolicyManager::new(static_solution.policy().clone());
    let static_stats = simulate(&mut static_manager, &trace, 41);

    let mut adaptive = AdaptiveController::new(&system, scenario_config()).unwrap();
    let adaptive_stats = simulate(&mut adaptive, &trace, 41);

    // Beats static on power with a real margin...
    assert!(
        adaptive_stats.average_power() < static_stats.average_power() - 0.2,
        "adaptive {} vs static {}",
        adaptive_stats.average_power(),
        static_stats.average_power()
    );
    // ...without giving the savings back on the constrained axes.
    assert!(
        adaptive_stats.average_queue() < static_stats.average_queue() + 0.1,
        "adaptive queue {} vs static {}",
        adaptive_stats.average_queue(),
        static_stats.average_queue()
    );
    assert!(
        adaptive_stats.loss_indicator_rate() < drifting::LOSS_BOUND + 0.05,
        "adaptive loss {}",
        adaptive_stats.loss_indicator_rate()
    );
    // Per-epoch constraint respect (model-expected, the LP's contract).
    for epoch in adaptive.epochs() {
        assert!(!epoch.infeasible, "epoch {}", epoch.epoch);
        let perf = epoch.performance_per_slice.expect("solved");
        assert!(
            perf <= drifting::QUEUE_BOUND + 1e-6,
            "epoch {}: {perf}",
            epoch.epoch
        );
    }
    // Warm throughout, at warm cost.
    assert_eq!(adaptive.cold_reloads(), 0);
    assert_eq!(adaptive.warm_reloads(), adaptive.epochs().len());
    assert!(adaptive.epochs().len() >= 70);
    let max_pivots = adaptive
        .epochs()
        .iter()
        .filter_map(|e| e.report.as_ref())
        .map(|r| r.iterations)
        .max()
        .unwrap();
    // Cold solves of this problem take ~15-25 pivots (two phases).
    assert!(max_pivots <= 8, "max warm pivots {max_pivots}");
    for epoch in adaptive.epochs() {
        assert_eq!(
            epoch.reload,
            Some(ReloadKind::Warm),
            "epoch {}",
            epoch.epoch
        );
    }
    // The whole loop's pivots against one-shot cold solves of the same
    // sequence of fitted models.
    let cold_pivots: usize = adaptive
        .epochs()
        .iter()
        .map(|epoch| {
            let epoch_system = drifting::system_for(epoch.requester.clone()).unwrap();
            PolicyOptimizer::new(&epoch_system)
                .horizon(drifting::HORIZON)
                .max_performance_penalty(drifting::QUEUE_BOUND)
                .max_request_loss_rate(drifting::LOSS_BOUND)
                .solve()
                .unwrap()
                .constrained()
                .occupation()
                .iterations()
        })
        .sum();
    let warm_pivots = adaptive.epoch_pivots();
    assert!(
        warm_pivots * 3 < cold_pivots,
        "warm pivots {warm_pivots} are not \u{226a} cold pivots {cold_pivots}"
    );
}
