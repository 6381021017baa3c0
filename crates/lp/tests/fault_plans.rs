//! Deterministic fault injection against real [`RevisedSimplex`] solves.
//!
//! The fault registry is process-global, so every test that installs a
//! [`FaultPlan`] serializes on [`LOCK`]; the suite is safe under the
//! default parallel test runner, and CI additionally runs it with
//! `RUST_TEST_THREADS=1` alongside the runtime's fault-injection binary.

use std::sync::{Mutex, MutexGuard};

use dpm_lp::fault::{self, FaultPlan};
use dpm_lp::{
    ConstraintOp, LinearProgram, LpError, LpSolver, RevisedSimplex, SolveBudget, Termination,
};

static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A small LP whose solve takes several pivots, so every fault class has
/// opportunities to fire.
fn workload() -> LinearProgram {
    let mut lp = LinearProgram::maximize(&[3.0, 5.0, 4.0, 1.0]);
    lp.add_constraint(&[1.0, 0.0, 2.0, 1.0], ConstraintOp::Le, 4.0)
        .unwrap();
    lp.add_constraint(&[0.0, 2.0, 1.0, 0.0], ConstraintOp::Le, 12.0)
        .unwrap();
    lp.add_constraint(&[3.0, 2.0, 0.0, 2.0], ConstraintOp::Le, 18.0)
        .unwrap();
    lp.add_constraint(&[1.0, 1.0, 1.0, 1.0], ConstraintOp::Le, 9.0)
        .unwrap();
    lp
}

fn reference_objective() -> f64 {
    RevisedSimplex::new()
        .solve(&workload())
        .unwrap()
        .objective()
}

#[test]
fn update_refusals_force_refactorizations_not_wrong_answers() {
    let _guard = serialized();
    let lp = workload();
    let reference = reference_objective();
    let _fault = fault::install(FaultPlan::new(11).refuse_updates(1.0));
    // Every Forrest–Tomlin update refused: the solve leans entirely on
    // refactorizations and must still reach the same optimum.
    let mut session = RevisedSimplex::new().start(&lp).unwrap();
    let (solution, report) = session.solve().unwrap();
    assert!((solution.objective() - reference).abs() < 1e-9);
    assert_eq!(report.termination, Termination::Optimal);
    assert_eq!(
        report.basis_updates, 0,
        "all in-place updates were refused by the fault plan"
    );
    assert!(report.refactorizations > report.iterations / 2);
}

#[test]
fn poisoned_refactorizations_surface_as_numerical_trouble() {
    let _guard = serialized();
    let lp = workload();
    let _fault = fault::install(FaultPlan::new(23).poison_refactors(1.0));
    // Build succeeds (the plan arms per solve, not per factorization),
    // but the solve cannot finish: extraction always refactorizes.
    let mut session = RevisedSimplex::new().start(&lp).unwrap();
    let err = session.solve().unwrap_err();
    assert!(matches!(err, LpError::Numerical { .. }), "{err:?}");
    assert_eq!(
        session.last_report().termination,
        Termination::NumericalTrouble
    );
    // Disarming heals the session on the very next solve.
    drop(_fault);
    let (solution, report) = session.solve().unwrap();
    assert_eq!(report.termination, Termination::Optimal);
    assert!((solution.objective() - reference_objective()).abs() < 1e-9);
}

#[test]
fn forced_budget_exhaustion_fires_at_chosen_pivots() {
    let _guard = serialized();
    let lp = workload();
    let _fault = fault::install(FaultPlan::new(31).exhaust_budgets(1.0));
    let mut session = RevisedSimplex::new().start(&lp).unwrap();
    let err = session.solve().unwrap_err();
    let LpError::BudgetExhausted {
        pivots,
        refactorizations: _,
    } = err
    else {
        panic!("expected BudgetExhausted, got {err:?}");
    };
    assert_eq!(pivots, 1, "rate 1.0 fires on the very first pivot");
    assert_eq!(
        session.last_report().termination,
        Termination::BudgetExhausted
    );
}

#[test]
fn campaigns_replay_bit_identically_per_seed() {
    let _guard = serialized();
    let lp = workload();
    let run = |seed: u64| {
        let _fault = fault::install(
            FaultPlan::new(seed)
                .refuse_updates(0.4)
                .poison_refactors(0.2),
        );
        let mut outcomes = Vec::new();
        for trial in 0..8 {
            let mut session = RevisedSimplex::new().start(&lp).unwrap();
            match session.solve() {
                Ok((solution, report)) => outcomes.push((
                    trial,
                    solution.objective().to_bits(),
                    report.refactorizations,
                    true,
                )),
                Err(_) => outcomes.push((trial, 0, 0, false)),
            }
        }
        outcomes
    };
    assert_eq!(run(7), run(7), "same seed must replay identically");
    assert_ne!(run(7), run(8), "different seeds must differ");
}

#[test]
fn partial_fault_rates_never_corrupt_solutions() {
    let _guard = serialized();
    let lp = workload();
    let reference = reference_objective();
    let _fault = fault::install(FaultPlan::new(42).refuse_updates(0.5).poison_refactors(0.3));
    let mut solved = 0usize;
    for _ in 0..16 {
        let mut session = RevisedSimplex::new().start(&lp).unwrap();
        match session.solve() {
            Ok((solution, _)) => {
                // A solve that survives injected faults must be exactly
                // right — faults may deny service, never corrupt it.
                assert!((solution.objective() - reference).abs() < 1e-9);
                solved += 1;
            }
            Err(e) => assert!(
                matches!(e, LpError::Numerical { .. }),
                "only injected numerical trouble is acceptable: {e:?}"
            ),
        }
    }
    assert!(solved > 0, "some solves should dodge the 30% poison rate");
}

#[test]
fn budget_carries_across_warm_to_cold_fallback() {
    let _guard = serialized();
    let lp = workload();
    // Poison only the early refactorizations of each solve: the warm
    // attempt burns them and fails, the cold fallback runs on whatever
    // budget remains.
    let _fault = fault::install(FaultPlan::new(3).poison_refactors(1.0));
    let mut session = RevisedSimplex::new().start(&lp).unwrap();
    session.set_budget(SolveBudget::pivots(10_000));
    let err = session.solve().unwrap_err();
    assert!(matches!(err, LpError::Numerical { .. }), "{err:?}");
    drop(_fault);
    let (solution, report) = session.solve().unwrap();
    assert_eq!(report.termination, Termination::Optimal);
    assert!((solution.objective() - reference_objective()).abs() < 1e-9);
}

#[test]
fn a_failed_cold_solve_keeps_its_effort() {
    let _guard = serialized();
    let lp = workload();
    let clean = RevisedSimplex::new().start(&lp).unwrap().solve().unwrap().1;
    let _fault = fault::install(FaultPlan::new(23).poison_refactors(1.0));
    // The pivots all run; the extraction's refactorization is poisoned.
    let mut session = RevisedSimplex::new().start(&lp).unwrap();
    assert!(session.solve().is_err());
    let report = session.last_report();
    assert_eq!(report.termination, Termination::NumericalTrouble);
    assert_eq!(report.iterations, clean.iterations);
    assert_eq!(report.pricing_candidates, clean.pricing_candidates);
    // The build's factorization plus the poisoned one.
    assert_eq!(report.refactorizations, 2);
}
