//! Golden transcript of the LP solve sessions.
//!
//! Every solve a session makes in the sequences below — its
//! [`SolveReport`] (as `Debug` text), its error, and the exact bits of
//! its objective and primal point — is folded into one FNV-1a hash per
//! sequence. A change to the session machinery that claims to move no
//! pivot, factorization or report must keep these hashes.
//!
//! * **design sweep:** LP4 of the 208-state `appendix_b` model around a
//!   fitted 2-state requester — a cold solve, warm bound retargets,
//!   an infeasible bound and back (the shape of the paper's tradeoff
//!   curves).
//! * **fleet:** the same prepared problem driven the way the adaptive
//!   loops drive it — warm model swaps, forks, a forced refactorization,
//!   a zero-pivot budget and its retry, and a swap into an infeasible
//!   bound whose retained basis the new model leaves dual infeasible.
//! * **raw sessions:** `set_rhs`/`reload` walks over random small
//!   programs, including objective-only reloads and infeasible ones.

use dpm::core::{
    DpmError, OptimizationGoal, PolicyOptimizer, PolicySolution, PreparedOptimization,
    ServiceRequester, SweepTarget, SystemModel,
};
use dpm::lp::{
    ConstraintOp, LinearProgram, LpSolution, LpSolver, RevisedSimplex, SolveBudget, SolveReport,
    SolveSession,
};
use dpm::systems::appendix_b;
use dpm::trace::generators::BurstyTraceGenerator;
use dpm::trace::SrExtractor;

/// 64-bit FNV-1a over a stream of words and byte strings, counting the
/// solves folded in.
#[derive(Debug)]
struct Transcript {
    hash: u64,
    solves: usize,
}

impl Transcript {
    fn new() -> Self {
        Transcript {
            hash: 0xcbf2_9ce4_8422_2325,
            solves: 0,
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, text: &str) {
        self.bytes(text.as_bytes());
        self.bytes(&[0xff]);
    }

    fn values(&mut self, values: &[f64]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn report(&mut self, report: &SolveReport) {
        self.solves += 1;
        self.text(&format!("{report:?}"));
    }

    /// One raw session solve: the report, then the objective and `x` or
    /// the error.
    fn lp(&mut self, session: &mut dyn SolveSession) {
        match session.solve() {
            Ok((solution, report)) => {
                self.report(&report);
                self.point(&solution);
            }
            Err(e) => {
                self.report(session.last_report());
                self.text(&format!("{e:?}"));
            }
        }
    }

    fn point(&mut self, solution: &LpSolution) {
        self.values(&[solution.objective()]);
        self.values(solution.x());
    }

    /// One prepared-optimization solve: the report, then the objective
    /// and the occupation frequencies (the program's `x`) or the error.
    fn policy(
        &mut self,
        prepared: &PreparedOptimization,
        result: Result<PolicySolution, DpmError>,
    ) {
        match result {
            Ok(solution) => {
                self.report(solution.solve_report());
                self.values(&[solution.objective_total()]);
                let frequencies = solution.constrained().occupation().frequencies();
                self.values(frequencies.as_slice());
            }
            Err(e) => {
                self.report(prepared.last_report());
                self.text(&format!("{e:?}"));
            }
        }
    }

    fn pinned(&self) -> (usize, u64) {
        (self.solves, self.hash)
    }
}

/// A 2-state requester fitted from a bursty trace.
fn fitted(p_idle_to_busy: f64, p_busy_to_busy: f64, seed: u64) -> ServiceRequester {
    let trace = BurstyTraceGenerator::new(p_idle_to_busy, p_busy_to_busy)
        .seed(seed)
        .generate(20_000);
    SrExtractor::new(1).extract(&trace).expect("fit succeeds")
}

fn system(requester: ServiceRequester) -> SystemModel {
    appendix_b::Config::scaled(12, 7)
        .system_with_requester(requester)
        .expect("scaled(12, 7) composes")
}

/// LP4 at horizon 10³: minimum power under queue ≤ `queue_bound` and
/// loss ≤ 0.05 per slice.
fn prepare(system: &SystemModel, queue_bound: f64) -> PreparedOptimization {
    PolicyOptimizer::new(system)
        .horizon(1e3)
        .goal(OptimizationGoal::MinimizePower)
        .max_performance_penalty(queue_bound)
        .max_request_loss_rate(0.05)
        .prepare()
        .expect("LP4 prepares")
}

/// A queue bound no policy meets: occupancy is never negative.
const INFEASIBLE_QUEUE: f64 = -0.1;

#[test]
fn design_sweep_transcript_is_pinned() {
    let system = system(fitted(0.04, 0.6, 0));
    let mut prepared = prepare(&system, 1.0);
    let mut t = Transcript::new();
    let cold = prepared.solve();
    t.policy(&prepared, cold);
    for i in 0..9 {
        let bound = 1.0 + 0.25 * f64::from(i);
        let warm = prepared.resolve_with_bound(SweepTarget::PerformancePenalty, bound);
        t.policy(&prepared, warm);
    }
    for bound in [INFEASIBLE_QUEUE, 2.0, 2.0] {
        let point = prepared.resolve_with_bound(SweepTarget::PerformancePenalty, bound);
        t.policy(&prepared, point);
    }
    assert_eq!(t.pinned(), (13, 12_978_214_048_705_719_175));
}

#[test]
fn fleet_transcript_is_pinned() {
    let base = system(fitted(0.04, 0.6, 0));
    let drifted = system(fitted(0.05, 0.7, 1));
    let storm = system(fitted(0.03, 0.75, 2));
    let mut prepared = prepare(&base, 1.2);
    let mut t = Transcript::new();
    let cold = prepared.solve();
    t.policy(&prepared, cold);

    // A warm model swap, then a fork that swaps again on its own.
    let kind = prepared.update_model(drifted.chain()).expect("swap");
    t.text(&format!("{kind:?}"));
    let swapped = prepared.solve();
    t.policy(&prepared, swapped);
    let mut fork = prepared.fork().expect("fork");
    let kind = fork.update_model(storm.chain()).expect("swap");
    t.text(&format!("{kind:?}"));
    let forked = fork.solve();
    t.policy(&fork, forked);
    let parent = prepared.solve();
    t.policy(&prepared, parent);

    // The escalation ladder's forced refactorization.
    prepared.force_refactor();
    let refreshed = prepared.solve();
    t.policy(&prepared, refreshed);

    // A swap under a zero-pivot budget, then the unbudgeted retry.
    let kind = prepared.update_model(base.chain()).expect("swap");
    t.text(&format!("{kind:?}"));
    prepared.set_budget(SolveBudget::pivots(0));
    let starved = prepared.solve();
    t.policy(&prepared, starved);
    prepared.set_budget(SolveBudget::UNLIMITED);
    let retried = prepared.solve();
    t.policy(&prepared, retried);

    // An infeasible bound, then a swap that leaves the retained basis
    // dual infeasible: the warm repair gives up and the cold solve
    // certifies the verdict. Relaxing the bound recovers.
    let tight = fork.resolve_with_bound(SweepTarget::PerformancePenalty, INFEASIBLE_QUEUE);
    t.policy(&fork, tight);
    let kind = fork.update_model(base.chain()).expect("swap");
    t.text(&format!("{kind:?}"));
    let fallback = fork.solve();
    t.policy(&fork, fallback);
    let relaxed = fork.resolve_with_bound(SweepTarget::PerformancePenalty, 1.5);
    t.policy(&fork, relaxed);
    assert_eq!(t.pinned(), (10, 15_191_226_262_387_561_483));
}

/// The xorshift stream of the `revised_simplex` random batteries, in
/// `[-1, 1)`.
fn battery(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 2000) as f64 / 1000.0 - 1.0
    }
}

/// `min c·x` over `rows · x ≤ rhs`.
fn program(c: &[f64], rows: &[Vec<f64>], rhs: &[f64]) -> LinearProgram {
    let mut lp = LinearProgram::minimize(c);
    for (row, &b) in rows.iter().zip(rhs) {
        lp.add_constraint(row, ConstraintOp::Le, b)
            .expect("finite row");
    }
    lp
}

#[test]
fn raw_session_transcript_is_pinned() {
    let mut next = battery(0xA076_1D64_78BD_642F);
    let mut t = Transcript::new();
    for trial in 0..20 {
        let n = 3 + trial % 4;
        let m = 2 + trial % 3;
        let mut c: Vec<f64> = (0..n).map(|_| next()).collect();
        // Strictly nonzero entries so drifts keep the sparsity pattern.
        let mut rows: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..n).map(|_| next() + 2.0).collect())
            .collect();
        let mut rhs: Vec<f64> = rows.iter().map(|r| r.iter().sum::<f64>() + 0.5).collect();
        let mut lp = program(&c, &rows, &rhs);
        // Bound every variable so objective drifts stay bounded.
        for j in 0..n {
            let mut unit = vec![0.0; n];
            unit[j] = 1.0;
            lp.add_constraint(&unit, ConstraintOp::Le, 10.0)
                .expect("finite row");
        }
        let boxes = lp.clone();
        let boxed = |c: &[f64], rows: &[Vec<f64>], rhs: &[f64]| {
            let mut next_lp = program(c, rows, rhs);
            for i in rows.len()..boxes.num_constraints() {
                let (entries, op, b) = boxes.constraint_entries(i);
                next_lp
                    .add_sparse_constraint(entries, op, b)
                    .expect("finite row");
            }
            next_lp
        };
        let mut session = RevisedSimplex::new().start(&lp).expect("valid program");
        t.lp(session.as_mut());
        for step in 0..6 {
            match (trial + step) % 3 {
                // A bound sweep on one row, sometimes past feasibility
                // (rows are positive, so a negative bound is infeasible).
                0 => {
                    let row = step % m;
                    rhs[row] = rhs[row].abs() * (1.5 * next() + 0.8);
                    session.set_rhs(row, rhs[row]).expect("finite rhs");
                    t.lp(session.as_mut());
                    // An untouched re-solve after the sweep point.
                    t.lp(session.as_mut());
                }
                // An objective-only drift, as a shape-identical reload.
                1 => {
                    for cj in &mut c {
                        *cj += 0.5 * next();
                    }
                    let kind = session.reload(&boxed(&c, &rows, &rhs)).expect("valid");
                    t.text(&format!("{kind:?}"));
                    t.lp(session.as_mut());
                }
                // Coefficients, rhs and objective all drift, then a
                // bound move before the solve.
                _ => {
                    for cj in &mut c {
                        *cj += 0.1 * next();
                    }
                    for (row, b) in rows.iter_mut().zip(&mut rhs) {
                        for v in row.iter_mut() {
                            *v += 0.2 * next();
                        }
                        *b = row.iter().sum::<f64>() * 0.5 + 1.0;
                    }
                    let kind = session.reload(&boxed(&c, &rows, &rhs)).expect("valid");
                    t.text(&format!("{kind:?}"));
                    rhs[0] *= 1.0 + 0.5 * next();
                    session.set_rhs(0, rhs[0]).expect("finite rhs");
                    t.lp(session.as_mut());
                    t.lp(session.as_mut());
                }
            }
        }
        // Flip the objective so the retained optimum prices badly: on a
        // fork under the same bounds (the warm repair re-optimizes), and
        // on the session under a bound no point meets (the warm repair
        // gives up and the cold solve certifies the verdict).
        let flipped: Vec<f64> = c.iter().map(|v| -2.0 * v - 1.0).collect();
        let mut fork = session.fork().expect("fork");
        let kind = fork.reload(&boxed(&flipped, &rows, &rhs)).expect("valid");
        t.text(&format!("{kind:?}"));
        t.lp(fork.as_mut());
        let mut impossible = rhs.clone();
        impossible[0] = -1.0;
        let kind = session
            .reload(&boxed(&flipped, &rows, &impossible))
            .expect("valid");
        t.text(&format!("{kind:?}"));
        t.lp(session.as_mut());
        let kind = session
            .reload(&boxed(&flipped, &rows, &rhs))
            .expect("valid");
        t.text(&format!("{kind:?}"));
        t.lp(session.as_mut());
    }
    assert_eq!(t.pinned(), (280, 9_656_886_880_958_068_421));
}

/// Whether `v` is a negative zero, which compares equal to `0.0` but
/// differs from it bit for bit.
fn is_negative_zero(v: f64) -> bool {
    v == 0.0 && v.is_sign_negative()
}

#[test]
fn no_frequency_or_policy_entry_is_negative_zero() {
    let base = system(fitted(0.04, 0.6, 0));
    let drifted = system(fitted(0.05, 0.7, 1));
    let mut prepared = prepare(&base, 1.0);
    let mut solutions = vec![prepared.solve().expect("feasible")];
    for i in 0..9 {
        let bound = 1.0 + 0.25 * f64::from(i);
        let point = prepared.resolve_with_bound(SweepTarget::PerformancePenalty, bound);
        solutions.push(point.expect("feasible"));
    }
    prepared.update_model(drifted.chain()).expect("swap");
    solutions.push(prepared.solve().expect("feasible"));
    for (i, solution) in solutions.iter().enumerate() {
        let frequencies = solution.constrained().occupation().frequencies();
        assert!(
            !frequencies.as_slice().iter().any(|&f| is_negative_zero(f)),
            "solve {i} has a -0.0 occupation frequency"
        );
        for row in solution.policy().decisions() {
            assert!(
                !row.iter().any(|&p| is_negative_zero(p)),
                "solve {i} has a -0.0 policy entry"
            );
        }
    }
}
