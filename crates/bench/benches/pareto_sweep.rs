//! Warm-started Pareto sweeps vs per-point cold solves — the acceptance
//! benchmark of the stateful-session redesign.
//!
//! The paper produces every tradeoff curve "by repeatedly solving the LP
//! with different performance constraints" (Figs. 6, 8(b), 9); between
//! sweep points only one rhs changes, so the warm path re-solves by dual
//! simplex from the previous optimal basis. This bench runs the same
//! Fig. 6-style sweep two ways on two systems — the paper's disk drive
//! (66 states) and the scaled Appendix-B instance (208 states × 13
//! commands) — and records both, plus solver-effort counters (`pivots`,
//! `refactorizations`) from the per-point [`SolveReport`]s:
//!
//! * `pareto_sweep/warm/<system>` — one `ParetoExplorer` session sweep;
//! * `pareto_sweep/cold/<system>` — the same bounds through the legacy
//!   per-point path (`sweep_with`, full prepare + solve each point);
//! * `pareto_sweep` — the headline record: warm disk sweep timing with
//!   `cold_over_warm_x` speedup counters for both systems.
//!
//! The warm and cold curves are asserted to agree point-for-point to
//! 1e-6 before anything is timed.

use criterion::{criterion_group, criterion_main, Bencher, Criterion};
use dpm_core::{OptimizationGoal, ParetoCurve, ParetoExplorer, PolicyOptimizer, SystemModel};
use dpm_systems::{appendix_b, disk};

/// Queue-occupancy bounds of the Fig. 6-style sweep for the disk system:
/// from slack down toward the feasibility floor.
const DISK_BOUNDS: [f64; 8] = [0.5, 0.4, 0.3, 0.2, 0.15, 0.1, 0.07, 0.05];

/// Sweep bounds for the scaled Appendix-B instance (208 states).
const SCALED_BOUNDS: [f64; 6] = [1.2, 1.0, 0.9, 0.8, 0.7, 0.6];

/// Sweep bounds for the ≥1000-state instance — fewer points: each cold
/// solve is a ~10⁵-variable LP, and the point of the record is the
/// factorization counters, not sweep length.
const HUGE_BOUNDS: [f64; 3] = [1.2, 1.0, 0.8];

fn disk_base(system: &SystemModel) -> PolicyOptimizer<'_> {
    PolicyOptimizer::new(system)
        .horizon(1_000_000.0)
        .goal(OptimizationGoal::MinimizePower)
        .max_request_loss_rate(0.05)
}

fn scaled_base(system: &SystemModel) -> PolicyOptimizer<'_> {
    PolicyOptimizer::new(system)
        .horizon(100_000.0)
        .max_request_loss_rate(0.05)
}

fn warm_sweep<'a>(base: impl Fn() -> PolicyOptimizer<'a>, bounds: &[f64]) -> ParetoCurve {
    ParetoExplorer::sweep_performance(base(), bounds).expect("sweep runs")
}

fn cold_sweep<'a>(base: impl Fn() -> PolicyOptimizer<'a>, bounds: &[f64]) -> ParetoCurve {
    ParetoExplorer::sweep_with(base(), bounds, |optimizer, bound| {
        optimizer.max_performance_penalty(bound)
    })
    .expect("sweep runs")
}

/// Asserts the two curves agree point-for-point (feasibility pattern and
/// objectives to 1e-6) — the correctness half of the acceptance criteria.
fn assert_curves_agree(label: &str, warm: &ParetoCurve, cold: &ParetoCurve) {
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
}

/// Attaches a sweep's solver-effort counters — warm/cold split, pivots,
/// and the factorization attribution (refactorizations, in-place basis
/// updates, peak fill-in) — to the benchmark's JSON record.
fn effort_counters(b: &mut Bencher, curve: &ParetoCurve) {
    let effort = curve.solver_effort();
    b.counter("warm_points", effort.warm_starts as f64);
    b.counter("cold_points", effort.cold_starts as f64);
    b.counter("pivots", effort.pivots as f64);
    b.counter("refactorizations", effort.refactorizations as f64);
    b.counter("basis_updates", effort.basis_updates as f64);
    b.counter("peak_fill_in_nnz", effort.peak_fill_in_nnz as f64);
}

use dpm_bench::time_median_ns as time_median;

fn bench_pareto_sweep(c: &mut Criterion) {
    let disk_system = disk::system().expect("disk model composes");
    let scaled_system = appendix_b::Config::scaled(12, 7)
        .system()
        .expect("scaled appendix-B composes");
    // The scale the sparse basis factorization unlocks: 25 SP × 2 SR ×
    // 21 SQ = 1050 states, 25 commands.
    let huge_system = appendix_b::Config::scaled(24, 20)
        .system()
        .expect("huge appendix-B composes");
    assert!(huge_system.num_states() >= 1000);

    // Correctness gate before any timing.
    let disk_warm = warm_sweep(|| disk_base(&disk_system), &DISK_BOUNDS);
    let disk_cold = cold_sweep(|| disk_base(&disk_system), &DISK_BOUNDS);
    assert_curves_agree("disk", &disk_warm, &disk_cold);
    let scaled_warm = warm_sweep(|| scaled_base(&scaled_system), &SCALED_BOUNDS);
    let scaled_cold = cold_sweep(|| scaled_base(&scaled_system), &SCALED_BOUNDS);
    assert_curves_agree("appendix_b", &scaled_warm, &scaled_cold);
    let huge_warm = warm_sweep(|| scaled_base(&huge_system), &HUGE_BOUNDS);
    let huge_cold = cold_sweep(|| scaled_base(&huge_system), &HUGE_BOUNDS);
    assert_curves_agree("appendix_b_huge", &huge_warm, &huge_cold);
    assert!(
        huge_warm.feasible().len() >= 2,
        "the ≥1000-state sweep must actually trace a curve"
    );

    let mut group = c.benchmark_group("pareto_sweep");
    group.sample_size(10);
    group.bench_function("warm/disk66", |b| {
        b.iter(|| warm_sweep(|| disk_base(&disk_system), &DISK_BOUNDS));
        effort_counters(b, &disk_warm);
    });
    group.bench_function("cold/disk66", |b| {
        b.iter(|| cold_sweep(|| disk_base(&disk_system), &DISK_BOUNDS));
        effort_counters(b, &disk_cold);
    });
    group.bench_function("warm/appendix_b208", |b| {
        b.iter(|| warm_sweep(|| scaled_base(&scaled_system), &SCALED_BOUNDS));
        effort_counters(b, &scaled_warm);
    });
    group.bench_function("cold/appendix_b208", |b| {
        b.iter(|| cold_sweep(|| scaled_base(&scaled_system), &SCALED_BOUNDS));
        effort_counters(b, &scaled_cold);
    });
    group.bench_function("warm/appendix_b1050", |b| {
        b.iter(|| warm_sweep(|| scaled_base(&huge_system), &HUGE_BOUNDS));
        effort_counters(b, &huge_warm);
    });
    group.bench_function("cold/appendix_b1050", |b| {
        b.iter(|| cold_sweep(|| scaled_base(&huge_system), &HUGE_BOUNDS));
        effort_counters(b, &huge_cold);
    });
    group.finish();

    // Headline record (BENCH_pareto_sweep.json): warm disk sweep timing,
    // with cold-over-warm speedups for all three systems measured inline
    // (median of three sweeps each; the per-path group records above
    // carry the full criterion means too). The acceptance target is
    // ≥ 2× on each.
    let disk_speedup = time_median(|| cold_sweep(|| disk_base(&disk_system), &DISK_BOUNDS))
        / time_median(|| warm_sweep(|| disk_base(&disk_system), &DISK_BOUNDS));
    let scaled_speedup = time_median(|| cold_sweep(|| scaled_base(&scaled_system), &SCALED_BOUNDS))
        / time_median(|| warm_sweep(|| scaled_base(&scaled_system), &SCALED_BOUNDS));
    let huge_speedup = time_median(|| cold_sweep(|| scaled_base(&huge_system), &HUGE_BOUNDS))
        / time_median(|| warm_sweep(|| scaled_base(&huge_system), &HUGE_BOUNDS));
    println!(
        "pareto_sweep: cold/warm speedup — disk66 {disk_speedup:.2}x, \
         appendix_b208 {scaled_speedup:.2}x, appendix_b1050 {huge_speedup:.2}x"
    );
    c.bench_function("pareto_sweep", |b| {
        b.iter(|| warm_sweep(|| disk_base(&disk_system), &DISK_BOUNDS));
        effort_counters(b, &disk_warm);
        b.counter("cold_over_warm_x_disk66", disk_speedup);
        b.counter("cold_over_warm_x_appendix_b208", scaled_speedup);
        b.counter("cold_over_warm_x_appendix_b1050", huge_speedup);
    });
}

criterion_group!(benches, bench_pareto_sweep);
criterion_main!(benches);
