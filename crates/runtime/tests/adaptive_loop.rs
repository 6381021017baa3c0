//! Behavioral tests of the closed adaptation loop on the drifting
//! scenario: warm per-epoch re-solves, drift gating, infeasibility
//! fallback, and reset/reproducibility.

use dpm_core::{DpmError, SolverKind};
use dpm_lp::ReloadKind;
use dpm_runtime::{AdaptiveConfig, AdaptiveController};
use dpm_sim::{SimConfig, SimStats, Simulator};
use dpm_systems::drifting;
use dpm_trace::{KMemoryTracker, WindowKind};

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

fn run(controller: &mut AdaptiveController, trace: &[u32], seed: u64) -> SimStats {
    let system = drifting::blended_system(7).expect("blended system composes");
    let sim = Simulator::new(
        &system,
        SimConfig::new(trace.len() as u64)
            .seed(seed)
            .restart_probability(1.0 / drifting::HORIZON),
    );
    let mut tracker = KMemoryTracker::new(drifting::MEMORY).tracker();
    sim.run_trace(controller, trace, &mut tracker)
        .expect("simulates")
}

#[test]
fn every_epoch_reloads_warm_with_few_pivots() {
    let system = drifting::blended_system(7).unwrap();
    let mut controller = AdaptiveController::new(&system, scenario_config()).unwrap();
    let trace = drifting::workload(60_000, 7);
    run(&mut controller, &trace, 13);
    let epochs = controller.epochs();
    assert!(epochs.len() >= 25, "only {} epochs", epochs.len());
    assert_eq!(controller.cold_reloads(), 0, "cold reload crept in");
    assert_eq!(controller.warm_reloads(), epochs.len());
    for e in epochs {
        assert_eq!(e.reload, Some(ReloadKind::Warm), "epoch {}", e.epoch);
        let report = e.report.as_ref().expect("refreshed epochs carry reports");
        assert!(report.warm_start, "epoch {}", e.epoch);
        // Warm repairs are a handful of pivots; cold solves of this LP
        // take ~15-25. The gap is the whole point.
        assert!(
            report.iterations <= 8,
            "epoch {}: {} pivots is not a warm repair",
            e.epoch,
            report.iterations
        );
        assert!(!e.infeasible, "epoch {} infeasible", e.epoch);
        assert!(e.error.is_none(), "epoch {}: {:?}", e.epoch, e.error);
        // Every per-epoch solve respects the constraint under its model.
        let perf = e.performance_per_slice.expect("solved epochs predict");
        assert!(
            perf <= drifting::QUEUE_BOUND + 1e-6,
            "epoch {}: predicted queue {perf}",
            e.epoch
        );
    }
}

#[test]
fn drift_gate_skips_stationary_epochs() {
    // On a *stationary* workload with a high divergence threshold, the
    // controller should re-solve the first epoch and skip the rest.
    let system = drifting::blended_system(7).unwrap();
    let mut controller =
        AdaptiveController::new(&system, scenario_config().min_divergence(0.2)).unwrap();
    let trace = dpm_trace::generators::BurstyTraceGenerator::new(0.05, 0.8)
        .seed(3)
        .generate(30_000);
    run(&mut controller, &trace, 17);
    let epochs = controller.epochs();
    assert!(epochs.len() >= 12);
    assert!(
        controller.skipped_epochs() >= epochs.len() - 2,
        "{} of {} epochs skipped",
        controller.skipped_epochs(),
        epochs.len()
    );
    // Skipped epochs still record the fit and its (small) divergence.
    for e in &epochs[2..] {
        if !e.refreshed {
            assert!(e.divergence.expect("later fits have divergence") < 0.2);
            assert!(e.report.is_none());
        }
    }
}

#[test]
fn resolve_cooldown_holds_the_policy_between_events() {
    // With a zero drift threshold every epoch wants to re-solve; the
    // cooldown turns that into at most one re-solve per (cooldown + 1)
    // epochs, while the fits keep happening.
    let system = drifting::blended_system(7).unwrap();
    let mut controller =
        AdaptiveController::new(&system, scenario_config().resolve_cooldown(2)).unwrap();
    let trace = drifting::workload(30_000, 7);
    run(&mut controller, &trace, 31);
    let epochs = controller.epochs();
    assert!(epochs.len() >= 12);
    let refreshed: Vec<u64> = epochs
        .iter()
        .filter(|e| e.refreshed)
        .map(|e| e.epoch)
        .collect();
    assert!(!refreshed.is_empty());
    assert!(
        refreshed.len() <= epochs.len().div_ceil(3),
        "{} re-solves over {} epochs beats the cooldown",
        refreshed.len(),
        epochs.len()
    );
    for pair in refreshed.windows(2) {
        assert!(
            pair[1] - pair[0] >= 3,
            "re-solves at epochs {} and {} violate the cooldown",
            pair[0],
            pair[1]
        );
    }
    // Held epochs still fit and gauge the drift.
    for e in epochs.iter().filter(|e| !e.refreshed) {
        assert!(e.report.is_none());
        assert!(e.divergence.is_some() || e.epoch == 0);
    }
}

#[test]
fn infeasible_epochs_fall_back_and_recover() {
    // A bound below the heavy regime's queue floor (~0.79) but above the
    // light regime's (~0.015): heavy epochs go infeasible and drive the
    // fallback, light epochs recover a solved policy.
    let system = drifting::blended_system(7).unwrap();
    let config = scenario_config()
        .max_performance_penalty(0.4)
        .max_request_loss_rate(1.0);
    let mut controller = match AdaptiveController::new(&system, config) {
        Ok(c) => c,
        // The blended model itself may already be infeasible at 0.4;
        // loosen to build, then tighten? No — the blend sits near 0.35
        // load and is feasible at 0.4 in practice.
        Err(e) => panic!("blended model infeasible at 0.4: {e}"),
    };
    let trace = drifting::workload(100_000, 7);
    run(&mut controller, &trace, 19);
    let infeasible = controller.epochs().iter().filter(|e| e.infeasible).count();
    let solved = controller
        .epochs()
        .iter()
        .filter(|e| e.report.is_some() && !e.infeasible)
        .count();
    assert!(infeasible >= 5, "only {infeasible} infeasible epochs");
    assert!(solved >= 5, "only {solved} solved epochs");
    // The run survived end to end and kept producing decisions.
    assert!(controller.epochs().len() >= 45);
}

#[test]
fn reset_makes_runs_reproducible() {
    let system = drifting::blended_system(7).unwrap();
    let mut controller = AdaptiveController::new(&system, scenario_config()).unwrap();
    let trace = drifting::workload(20_000, 7);
    let first = run(&mut controller, &trace, 23);
    let first_epochs = controller.epochs().len();
    // Same controller, same trace, same seed: reset() must restore the
    // initial policy and estimator so the rerun is bit-identical.
    let second = run(&mut controller, &trace, 23);
    assert_eq!(first, second);
    assert_eq!(controller.epochs().len(), first_epochs);
}

#[test]
fn non_default_engines_run_the_loop_cold_but_correct() {
    for kind in [SolverKind::Simplex, SolverKind::InteriorPoint] {
        let system = drifting::blended_system(7).unwrap();
        let mut controller =
            AdaptiveController::new(&system, scenario_config().solver(kind)).unwrap();
        let trace = drifting::workload(12_000, 7);
        run(&mut controller, &trace, 29);
        assert!(controller.epochs().len() >= 5, "{kind:?}");
        assert_eq!(controller.warm_reloads(), 0, "{kind:?}");
        assert_eq!(
            controller.cold_reloads(),
            controller.epochs().len(),
            "{kind:?}"
        );
        for e in controller.epochs() {
            assert!(
                e.report.is_some() && !e.infeasible,
                "{kind:?} epoch {}",
                e.epoch
            );
        }
    }
}

#[test]
fn out_of_range_fallback_command_is_rejected() {
    let system = drifting::blended_system(7).unwrap(); // 2 commands
    let err = AdaptiveController::new(&system, scenario_config().infeasible_fallback_command(5))
        .unwrap_err();
    assert!(matches!(err, DpmError::BadConfiguration { .. }));
}

#[test]
fn mismatched_memory_is_rejected() {
    let system = drifting::blended_system(7).unwrap(); // 2-state SR
    let err = AdaptiveController::new(&system, scenario_config().memory(3)).unwrap_err();
    assert!(matches!(err, DpmError::BadConfiguration { .. }));
}
