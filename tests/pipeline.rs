//! End-to-end integration tests across the whole workspace: build system
//! models, optimize them exactly, and validate against simulation — the
//! paper's own consistency methodology (Section V).

use dpm::core::{
    CostMetric, OptimizationGoal, ParetoExplorer, PolicyOptimizer, SolverKind, SystemModel,
    SystemState,
};
use dpm::lp::{LpSolver, PricingRule, RevisedSimplex};
use dpm::mdp::{DiscountedMdp, OccupationLp};
use dpm::sim::{SimConfig, Simulator, StochasticPolicyManager};
use dpm::systems::{appendix_b, cpu, disk, toy, web_server};
use dpm::trace::generators::BurstyTraceGenerator;
use dpm::trace::SrExtractor;

#[test]
fn example_a2_full_reproduction() {
    let system = toy::example_system().expect("toy system composes");
    let solution = PolicyOptimizer::new(&system)
        .discount(0.99999)
        .goal(OptimizationGoal::MinimizePower)
        .max_performance_penalty(0.5)
        .max_request_loss_rate(0.2)
        .initial_state(toy::initial_state())
        .expect("valid initial state")
        .solve()
        .expect("feasible");
    // Paper: 1.798 W, randomized, ~2x below always-on. Reconstruction:
    // ~1.74 W with identical structure.
    assert!((solution.power_per_slice() - 1.738).abs() < 0.05);
    assert!(solution.is_randomized());
    assert!(solution.power_per_slice() < 0.67 * toy::POWER_ON);
    assert!(solution.performance_per_slice() <= 0.5 + 1e-6);
    assert!(solution.loss_per_slice() <= 0.2 + 1e-6);
}

#[test]
fn optimizer_and_simulator_agree_on_toy_system() {
    let system = toy::example_system().expect("composes");
    let solution = PolicyOptimizer::new(&system)
        .discount(0.99999)
        .max_performance_penalty(0.5)
        .max_request_loss_rate(0.2)
        .solve()
        .expect("feasible");
    let mut manager = StochasticPolicyManager::new(solution.policy().clone());
    let stats = Simulator::new(&system, SimConfig::new(500_000).seed(42))
        .run(&mut manager)
        .expect("simulates");
    assert!(
        (stats.average_power() - solution.power_per_slice()).abs() < 0.06,
        "power: sim {} vs lp {}",
        stats.average_power(),
        solution.power_per_slice()
    );
    assert!(
        (stats.average_queue() - solution.performance_per_slice()).abs() < 0.04,
        "queue: sim {} vs lp {}",
        stats.average_queue(),
        solution.performance_per_slice()
    );
}

#[test]
fn disk_calibration_matches_table_i() {
    let sp = disk::service_provider().expect("builds");
    for (i, &(_, wake, _)) in disk::TABLE_I.iter().enumerate().skip(1) {
        let t = sp
            .expected_transition_time(i, 0, 0)
            .expect("active reachable");
        assert!((t - wake).abs() / wake < 1e-9, "state {i}: {t} vs {wake}");
    }
    let system = disk::system().expect("composes");
    assert_eq!(system.num_states(), 66);
    assert_eq!(system.num_commands(), 5);
}

#[test]
fn disk_optimal_dominates_heuristics_at_matched_performance() {
    use dpm::policies::EagerPolicy;
    use dpm::sim::{Observation, PowerManager};
    let system = disk::system().expect("composes");
    // Evaluate the eager->idle heuristic *under the model* (stationary
    // distribution of the chain it induces), then ask the optimizer for
    // the same expected performance; its power must not be worse. The
    // comparison must use expected values, not simulated ones: the disk
    // Pareto curve is so steep near the eager operating point that the
    // sampling error of a 500k-slice run on the constraint side moves
    // the optimal power by far more than any sensible power tolerance.
    let n = system.num_states();
    let m = system.num_commands();
    let mut eager = EagerPolicy::new(&system, 0, 1);
    let mut rng = rand::rngs::mock::StepRng::new(0, 1);
    let observe = |i: usize| Observation::new(system.state_of(i), i, 0, 0);
    let decisions: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let mut row = vec![0.0; m];
            row[eager.decide(&observe(i), &mut rng)] = 1.0;
            row
        })
        .collect();
    let chain = system
        .chain()
        .under_state_decisions(&decisions)
        .expect("valid decision rows");
    let pi = chain.stationary_distribution().expect("ergodic");
    let (mut eager_power, mut eager_queue) = (0.0, 0.0);
    for (i, &weight) in pi.iter().enumerate() {
        let s = system.state_of(i);
        let cmd = eager.decide(&observe(i), &mut rng);
        eager_power += weight * system.provider().power(s.sp, cmd);
        eager_queue += weight * s.queue as f64;
    }
    let solution = PolicyOptimizer::new(&system)
        .horizon(100_000.0)
        .max_performance_penalty(eager_queue)
        .initial_state(disk::initial_state())
        .expect("valid")
        .solve()
        .expect("feasible");
    // 1e-3 absorbs LP tolerance and the finite-horizon discounting gap
    // between the optimizer's objective and the stationary average.
    assert!(
        solution.power_per_slice() <= eager_power + 1e-3,
        "optimal {} vs eager {}",
        solution.power_per_slice(),
        eager_power
    );
    // The eager point should be essentially *on* the curve here (waking
    // eagerly is forced by the tight queue bound), not far above it.
    assert!(
        solution.power_per_slice() >= eager_power - 0.05,
        "optimal {} implausibly far below eager {}",
        solution.power_per_slice(),
        eager_power
    );
}

#[test]
fn web_server_never_runs_fast_processor_alone() {
    let system = web_server::system().expect("composes");
    let throughput = web_server::throughput_matrix(&system);
    for floor in [0.25, 0.45, 0.65] {
        let solution = PolicyOptimizer::new(&system)
            .horizon(web_server::HORIZON_SLICES)
            .custom_constraint("-throughput", &throughput * -1.0, -floor)
            .solve()
            .expect("feasible");
        let occupation = solution.constrained().occupation();
        let freqs = occupation.state_frequencies();
        let only2: f64 = (0..system.num_states())
            .filter(|&i| system.state_of(i).sp == web_server::ServerState::OnlyProc2 as usize)
            .map(|i| freqs[i])
            .sum();
        assert!(
            only2 / occupation.total_visits() < 0.02,
            "floor {floor}: proc2-alone fraction {}",
            only2 / occupation.total_visits()
        );
    }
}

#[test]
fn cpu_policy_only_controls_shutdown_from_active_idle() {
    // The paper: "only when the SP is active and the SR is idle the PM can
    // control the evolution of the system". Check that the optimal policy
    // wakes under load and that its only genuine degree of freedom is the
    // shutdown probability in (active, idle).
    let system = cpu::system().expect("composes");
    let penalty = cpu::latency_penalty(&system);
    let solution = PolicyOptimizer::new(&system)
        .horizon(500_000.0)
        .performance_cost(penalty)
        .max_performance_penalty(0.004)
        .initial_state(cpu::initial_state())
        .expect("valid")
        .solve()
        .expect("feasible");
    let policy = solution.policy();
    let sleep_busy = system
        .state_index(dpm::core::SystemState {
            sp: cpu::CpuState::Sleep as usize,
            sr: 1,
            queue: 0,
        })
        .expect("in range");
    assert!(policy.prob(sleep_busy, cpu::CpuCommand::Run as usize) > 0.95);
}

#[test]
fn both_solvers_agree_across_case_studies() {
    let toy = toy::example_system().expect("composes");
    let appendix = appendix_b::Config::baseline().system().expect("composes");
    for system in [&toy, &appendix] {
        let solve = |kind| {
            PolicyOptimizer::new(system)
                .horizon(50_000.0)
                .max_performance_penalty(0.6)
                .solver(kind)
                .solve()
                .expect("feasible")
                .power_per_slice()
        };
        let simplex = solve(SolverKind::Simplex);
        let interior = solve(SolverKind::InteriorPoint);
        assert!(
            (simplex - interior).abs() < 1e-4,
            "simplex {simplex} vs interior {interior}"
        );
    }
}

#[test]
fn pareto_curves_are_convex_and_monotone() {
    let system = toy::example_system().expect("composes");
    let base = PolicyOptimizer::new(&system)
        .discount(0.99999)
        .max_request_loss_rate(0.25);
    let bounds = [0.9, 0.7, 0.5, 0.4, 0.3, 0.25, 0.2];
    let curve = ParetoExplorer::sweep_performance(base, &bounds).expect("sweeps");
    assert!(curve.is_convex(1e-6), "Theorem 4.1 violated");
    let feasible = curve.feasible();
    for pair in feasible.windows(2) {
        assert!(pair[1].1 >= pair[0].1 - 1e-7, "power fell while tightening");
    }
}

#[test]
fn appendix_b_sensitivity_directions() {
    // The four headline directions of the sensitivity study, end to end.
    let horizon = 50_000.0;
    let power_of = |cfg: &appendix_b::Config, perf: f64| {
        PolicyOptimizer::new(&cfg.system().expect("composes"))
            .horizon(horizon)
            .max_performance_penalty(perf)
            .solve()
            .expect("feasible")
            .power_per_slice()
    };
    // (1) More sleep states help.
    let one = power_of(&appendix_b::Config::baseline(), 0.8);
    let two = power_of(
        &appendix_b::Config::baseline().with_sleep_states(vec![
            appendix_b::SLEEP_STATES[0],
            appendix_b::SLEEP_STATES[1],
        ]),
        0.8,
    );
    assert!(two < one);
    // (2) Tighter performance costs more power.
    let loose = power_of(&appendix_b::Config::baseline(), 0.9);
    let tight = power_of(&appendix_b::Config::baseline(), 0.3);
    assert!(tight >= loose - 1e-9);
    // (3) Burstier workloads allow more savings.
    let bursty = power_of(&appendix_b::Config::baseline().with_sr_switch(0.004), 0.5);
    let smooth = power_of(&appendix_b::Config::baseline().with_sr_switch(0.1), 0.5);
    assert!(bursty < smooth);
    // (4) Queue capacity trades loss for waiting (feasibility widens).
    let small = appendix_b::Config::baseline().with_queue_capacity(1);
    let large = appendix_b::Config::baseline().with_queue_capacity(4);
    let solve_loss = |cfg: &appendix_b::Config| {
        PolicyOptimizer::new(&cfg.system().expect("composes"))
            .horizon(horizon)
            .use_expected_loss()
            .max_performance_penalty(1.5)
            .max_request_loss_rate(0.002)
            .solve()
            .map(|s| s.power_per_slice())
    };
    let p_small = solve_loss(&small).expect("feasible");
    let p_large = solve_loss(&large).expect("feasible");
    assert!(
        p_large <= p_small + 1e-6,
        "larger queue should help tight loss"
    );
}

#[test]
fn scaled_appendix_b_lp4_solves_on_the_default_engine() {
    // The 208-state LP4 program (minimize power, queue ≤ 0.8, loss ≤ 0.05
    // per slice over a 1e5 horizon). The default devex solve needs exact
    // Forrest–Tomlin updates here: dropping spike entries that are small
    // next to the spike's largest leaves factors that no longer represent
    // the basis, and the solve fails with a singular basis.
    let system = appendix_b::Config::scaled(12, 7)
        .system()
        .expect("scaled appendix-B composes");
    let horizon = 100_000.0;
    let power = CostMetric::Power.matrix(&system);
    let queue = CostMetric::QueueOccupancy.matrix(&system);
    let loss = CostMetric::RequestLossIndicator.matrix(&system);
    let mdp = DiscountedMdp::new(system.chain().clone(), power, 1.0 - 1.0 / horizon)
        .expect("mdp validates");
    let initial = system
        .point_distribution(appendix_b::initial_state())
        .expect("initial state exists");
    let lp = OccupationLp::new(&mdp, &initial)
        .expect("valid distribution")
        .build(&[(&queue, 0.8 * horizon), (&loss, 0.05 * horizon)])
        .expect("LP builds");

    let devex = RevisedSimplex::new()
        .solve(&lp)
        .expect("default engine solves cold");
    let dantzig = RevisedSimplex::new()
        .with_pricing(PricingRule::Dantzig)
        .solve(&lp)
        .expect("dantzig pricing solves cold");
    assert!(lp.max_violation(devex.x()) < 1e-7);
    assert!(
        (devex.objective() - dantzig.objective()).abs() < 1e-6,
        "devex {} vs dantzig {}",
        devex.objective(),
        dantzig.objective()
    );
}

/// The LP4 program the design sweep solves: minimize power under a queue
/// bound and a 0.05 per-slice request-loss bound over a 10³ horizon.
fn lp4(system: &SystemModel, queue_bound: f64) -> PolicyOptimizer<'_> {
    PolicyOptimizer::new(system)
        .horizon(1e3)
        .goal(OptimizationGoal::MinimizePower)
        .max_performance_penalty(queue_bound)
        .max_request_loss_rate(0.05)
}

#[test]
fn scaled_1050_state_lp4_solves_from_a_policy_basis() {
    // 1050 states, 25 commands. The prepared session starts cold from
    // the lookahead policy's basis. The unseeded one-shot solve of this
    // program fails with "basic variable negative", an open defect that
    // this test does not pin.
    let system = appendix_b::Config::scaled(24, 20)
        .system()
        .expect("scaled appendix-B composes");
    let solution = lp4(&system, 1.0)
        .prepare()
        .expect("prepares")
        .solve()
        .expect("solves");
    let report = solution.solve_report();
    assert_eq!(report.engine, "revised-simplex", "no rescue engine");
    assert!(!report.warm_start);
    assert!(report.iterations <= 1000, "{} pivots", report.iterations);
    assert!(
        (solution.power_per_slice() - 2.48441).abs() < 5e-6,
        "{} W",
        solution.power_per_slice()
    );
}

#[test]
fn fitted_model_solves_at_every_queue_bound() {
    // A fitted requester on which the default engine, started from the
    // all-artificial basis, reports a false `Infeasible` at every queue
    // bound from 0.6 to 2.0 (an open defect of the unseeded path). The
    // prepared session starts from a policy basis and solves them all.
    let trace = BurstyTraceGenerator::new(0.0321, 0.7682)
        .seed(8_615_041_678_910_030_776)
        .generate(20_000);
    let requester = SrExtractor::new(1).extract(&trace).expect("fits");
    let system = appendix_b::Config::scaled(12, 7)
        .system_with_requester(requester)
        .expect("composes");
    for step in 0..=14 {
        let bound = 0.6 + 0.1 * f64::from(step);
        let solution = lp4(&system, bound)
            .prepare()
            .expect("prepares")
            .solve()
            .unwrap_or_else(|e| panic!("queue bound {bound}: {e}"));
        assert_eq!(solution.solve_report().engine, "revised-simplex");
        if step == 4 {
            assert!(
                (solution.power_per_slice() - 1.99166).abs() < 5e-6,
                "{} W",
                solution.power_per_slice()
            );
            // The independent reference: the same program emitted by the
            // mdp layer, solved one-shot (unseeded) under Dantzig pricing.
            let horizon = 1e3;
            let power = CostMetric::Power.matrix(&system);
            let queue = CostMetric::QueueOccupancy.matrix(&system);
            let loss = CostMetric::RequestLossIndicator.matrix(&system);
            let mdp = DiscountedMdp::new(system.chain().clone(), power, 1.0 - 1.0 / horizon)
                .expect("mdp validates");
            let initial = system
                .point_distribution(SystemState {
                    sp: 0,
                    sr: 0,
                    queue: 0,
                })
                .expect("initial state exists");
            let lp = OccupationLp::new(&mdp, &initial)
                .expect("valid distribution")
                .build(&[(&queue, bound * horizon), (&loss, 0.05 * horizon)])
                .expect("LP builds");
            let want = RevisedSimplex::new()
                .with_pricing(PricingRule::Dantzig)
                .solve(&lp)
                .expect("Dantzig solves")
                .objective();
            let got = solution.objective_per_slice();
            assert!((got - want).abs() <= 1e-9 * want.abs(), "{got} vs {want}");
        }
    }
}
