//! Solver microbenchmarks. The paper's runtime claim is that the whole
//! disk Pareto curve "took less than 1 min on a SUN UltraSPARC
//! workstation" (Section VI-A); these are single solves of the same
//! LPs, the dense-tableau vs interior-point ablation across sizes, and
//! the pricing-rule and engine comparisons at 208 and 1050 states —
//! sizes and engines the repository benchmark (`perfbench/`) does not
//! run.
//!
//! ```text
//! cargo bench -p dpm-bench --bench solvers
//! ```
//!
//! Prints one table per group: the median of three timed solves, then
//! the effort counters of one more solve of the same instance (the
//! simplex engines' pivots; the interior point's counts are its
//! path-following iterations).

use dpm_bench::{section, table, time_median_ns};
use dpm_core::{CostMetric, OptimizationGoal, PolicyOptimizer, SolverKind};
use dpm_lp::{
    ConstraintOp, InteriorPoint, LinearProgram, LpSolver, PricingRule, RevisedSimplex, Simplex,
    SolveReport,
};
use dpm_mdp::{DiscountedMdp, OccupationLp};
use dpm_systems::{appendix_b, disk, toy};
use dpm_trace::generators::BurstyTraceGenerator;
use dpm_trace::SrExtractor;

/// A median solve time and the effort of one solve.
type Measured = (f64, SolveReport);

/// Times `engine` on `lp`, and takes the counters from a session solve.
fn measure_lp(engine: &dyn LpSolver, lp: &LinearProgram) -> Measured {
    let ns = time_median_ns(|| engine.solve(lp).expect("instance solves"));
    let (_, report) = engine
        .start(lp)
        .and_then(|mut session| session.solve())
        .expect("instance solves");
    (ns, report)
}

/// Times a whole policy optimization (prepare, then solve).
fn measure_policy(optimizer: &PolicyOptimizer<'_>) -> Measured {
    let ns = time_median_ns(|| optimizer.solve().expect("feasible"));
    let solution = optimizer.solve().expect("feasible");
    (ns, solution.solve_report().clone())
}

/// Prints one group's table, a row per measured instance.
fn print_table(title: &str, size: &str, rows: &[(String, usize, Measured)]) {
    section(title);
    let header = [
        "instance",
        size,
        "median ms",
        "pivots",
        "pricing",
        "refactors",
        "updates",
        "fill-in",
        "devex resets",
    ];
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, n, (ns, r))| {
            vec![
                name.clone(),
                n.to_string(),
                format!("{:.3}", ns / 1e6),
                r.iterations.to_string(),
                r.pricing_candidates.to_string(),
                r.refactorizations.to_string(),
                r.basis_updates.to_string(),
                r.fill_in_nnz.to_string(),
                r.devex_resets.to_string(),
            ]
        })
        .collect();
    table(&header, &rows);
}

/// A mid-size random-but-feasible LP with `n` variables and `m` rows.
fn random_lp(n: usize, m: usize) -> LinearProgram {
    let mut seed = 0xA5A5_5A5A_1234_5678u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed % 2000) as f64 / 1000.0 - 1.0
    };
    let c: Vec<f64> = (0..n).map(|_| next()).collect();
    let mut lp = LinearProgram::minimize(&c);
    for _ in 0..m {
        let row: Vec<f64> = (0..n).map(|_| next()).collect();
        let rhs = row.iter().sum::<f64>() + 1.0;
        lp.add_constraint(&row, ConstraintOp::Le, rhs)
            .expect("valid row");
    }
    for j in 0..n {
        let mut row = vec![0.0; n];
        row[j] = 1.0;
        lp.add_constraint(&row, ConstraintOp::Le, 10.0)
            .expect("valid bound");
    }
    lp
}

/// The LP4 occupation program (minimize power, bound queue and loss)
/// of a scaled Appendix-B system, with its state count.
fn scaled_occupation_lp(sleeps: usize, queue_capacity: usize) -> (usize, LinearProgram) {
    let system = appendix_b::Config::scaled(sleeps, queue_capacity)
        .system()
        .expect("scaled appendix-B composes");
    let horizon = 100_000.0;
    let discount = 1.0 - 1.0 / horizon;
    let power = CostMetric::Power.matrix(&system);
    let queue = CostMetric::QueueOccupancy.matrix(&system);
    let loss = CostMetric::RequestLossIndicator.matrix(&system);
    let mdp = DiscountedMdp::new(system.chain().clone(), power, discount).expect("mdp validates");
    let initial = system
        .point_distribution(appendix_b::initial_state())
        .expect("initial state exists");
    let occupation = OccupationLp::new(&mdp, &initial).expect("valid distribution");
    let lp = occupation
        .build(&[(&queue, 0.8 * horizon), (&loss, 0.05 * horizon)])
        .expect("LP builds");
    (system.num_states(), lp)
}

fn lp_engines() {
    let mut rows = Vec::new();
    for (n, m) in [(20, 10), (60, 30), (120, 60)] {
        let lp = random_lp(n, m);
        rows.push(("simplex".into(), n, measure_lp(&Simplex::new(), &lp)));
        rows.push((
            "interior-point".into(),
            n,
            measure_lp(&InteriorPoint::new(), &lp),
        ));
    }
    print_table("lp_engines: random feasible LPs", "variables", &rows);
}

fn disk_policy_optimization() {
    // The paper's 66-state, 5-command disk LP (330 state-action vars).
    let system = disk::system().expect("disk model composes");
    let rows: Vec<_> = [
        SolverKind::RevisedSimplex,
        SolverKind::Simplex,
        SolverKind::InteriorPoint,
    ]
    .into_iter()
    .map(|kind| {
        let optimizer = PolicyOptimizer::new(&system)
            .horizon(1_000_000.0)
            .goal(OptimizationGoal::MinimizePower)
            .max_performance_penalty(0.5)
            .max_request_loss_rate(0.05)
            .solver(kind);
        (
            format!("{kind:?}"),
            system.num_states(),
            measure_policy(&optimizer),
        )
    })
    .collect();
    print_table("disk_policy_optimization: LP4 per engine", "states", &rows);
}

fn toy_policy_optimization() {
    let system = toy::example_system().expect("toy model composes");
    let optimizer = PolicyOptimizer::new(&system)
        .discount(0.99999)
        .max_performance_penalty(0.5)
        .max_request_loss_rate(0.2);
    let rows = [(
        "toy_example_a2_lp4".to_string(),
        system.num_states(),
        measure_policy(&optimizer),
    )];
    print_table("toy_example_a2_lp4", "states", &rows);
}

fn state_space_scaling() {
    // Fig. 13(b)'s scaling axis: SR memory k doubles the state count
    // each step — the polynomial-growth claim made concrete.
    let trace = BurstyTraceGenerator::new(0.02, 0.9)
        .seed(1)
        .generate(100_000);
    let rows: Vec<_> = (1u32..=4)
        .map(|k| {
            let sr = SrExtractor::new(k)
                .extract(&trace)
                .expect("trace long enough");
            let system = appendix_b::Config::baseline()
                .system_with_requester(sr)
                .expect("composes");
            let optimizer = PolicyOptimizer::new(&system)
                .horizon(100_000.0)
                .max_performance_penalty(0.5)
                .max_request_loss_rate(0.05);
            (
                format!("optimize k={k}"),
                system.num_states(),
                measure_policy(&optimizer),
            )
        })
        .collect();
    print_table(
        "state_space_scaling: Appendix-B baseline, SR memory k",
        "states",
        &rows,
    );
}

fn pricing_rules() {
    // Dantzig's full-scan pricing (one sparse dot per nonbasic column
    // per pivot) against devex over a bounded candidate list, cold, as
    // the state space scales.
    let mut rows = Vec::new();
    let mut ratio = None;
    for (sleeps, queue) in [(12, 7), (24, 20)] {
        let (states, lp) = scaled_occupation_lp(sleeps, queue);
        let devex = measure_lp(&RevisedSimplex::new().with_pricing(PricingRule::Devex), &lp);
        let dantzig = measure_lp(
            &RevisedSimplex::new().with_pricing(PricingRule::Dantzig),
            &lp,
        );
        ratio = Some((states, dantzig.0 / devex.0));
        rows.push((format!("{}", PricingRule::Devex), states, devex));
        rows.push((format!("{}", PricingRule::Dantzig), states, dantzig));
    }
    print_table("pricing_rules: scaled Appendix-B LP4", "states", &rows);
    if let Some((states, ratio)) = ratio {
        println!("  devex speedup over dantzig at {states} states: {ratio:.2}x");
    }
}

fn sparse_occupation() {
    let mut rows = Vec::new();
    // Crossover point: at 30 states (4 sleep states, queue 2) the dense
    // tableau is still competitive.
    let (states, lp) = scaled_occupation_lp(4, 2);
    let engines: [Box<dyn LpSolver>; 2] =
        [Box::new(RevisedSimplex::new()), Box::new(Simplex::new())];
    for engine in &engines {
        rows.push((engine.name().into(), states, measure_lp(&**engine, &lp)));
    }

    // 208 states: 13 SP × 2 SR × 8 SQ, 13 commands — 2704 state–action
    // variables with >99% sparse balance rows. The dense tableau solves
    // it in a few hundred pivots thanks to steepest-edge pricing and the
    // largest-pivot ratio-test tie-break.
    let (states, lp) = scaled_occupation_lp(12, 7);
    rows.push((
        "revised-simplex".into(),
        states,
        measure_lp(&RevisedSimplex::new(), &lp),
    ));
    rows.push(("simplex".into(), states, measure_lp(&Simplex::new(), &lp)));
    let dense = Simplex::new()
        .solve(&lp)
        .expect("dense tableau solves 208 states");
    assert!(
        lp.max_violation(dense.x()) < 1e-7,
        "dense solution must be feasible"
    );

    // 1050 states: 25 SP × 2 SR × 21 SQ, 25 commands — 26 250
    // state–action variables over a ~1050-row basis.
    let (states, lp) = scaled_occupation_lp(24, 20);
    assert!(
        states >= 1000,
        "scale acceptance instance shrank to {states} states"
    );
    rows.push((
        "revised-simplex".into(),
        states,
        measure_lp(&RevisedSimplex::new(), &lp),
    ));
    print_table(
        "sparse_occupation: scaled Appendix-B LP4 per engine",
        "states",
        &rows,
    );
}

fn main() {
    lp_engines();
    disk_policy_optimization();
    toy_policy_optimization();
    state_space_scaling();
    pricing_rules();
    sparse_occupation();
}
