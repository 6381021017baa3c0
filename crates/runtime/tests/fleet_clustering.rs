//! The solve-per-cluster payoff at fleet scale: a heterogeneous fleet
//! (disk, CPU and web-server classes) of 1026 devices split across two
//! workload regimes, driven through `FleetService`, against the same
//! fleet solved one device at a time.
//!
//! Bit-identity across worker counts is covered by the unit test
//! `fleet_results_are_identical_for_worker_counts_1_2_8`; CI also runs
//! this suite under a single test thread.

use dpm_core::{PolicyOptimizer, ServiceRequester, SystemModel};
use dpm_runtime::{AdaptiveConfig, FleetConfig, FleetReport, FleetService};
use dpm_systems::{cpu, disk, web_server};
use dpm_trace::WindowKind;

/// Devices per class; three classes, so the fleet holds 1026 devices.
const DEVICES_PER_CLASS: usize = 342;
/// Arrival slices per adaptation epoch.
const EPOCH_SLICES: usize = 600;
/// Adaptation epochs run.
const EPOCHS: usize = 3;

/// The three device classes, each a 2-state SR on a different provider.
fn class_systems() -> Vec<SystemModel> {
    let base = || ServiceRequester::two_state(0.1, 0.7).expect("valid base workload");
    vec![
        disk::system_with_workload(base()).expect("disk system"),
        cpu::system_with_workload(base()).expect("cpu system"),
        web_server::system_with_workload(base()).expect("web server system"),
    ]
}

fn build_fleet() -> FleetService {
    let config = FleetConfig::new()
        .adaptive(
            AdaptiveConfig::new()
                .memory(1)
                .smoothing(0.5)
                .horizon(2_000.0)
                .window(WindowKind::Sliding(2 * EPOCH_SLICES)),
        )
        .workers(1)
        .cluster_divergence(0.08)
        .resolve_divergence(0.02);
    let mut fleet = FleetService::new(config);
    for system in class_systems() {
        let class = fleet.register_class(&system).expect("class is feasible");
        for _ in 0..DEVICES_PER_CLASS {
            fleet.add_device(class).expect("device adds");
        }
    }
    fleet
}

/// Deterministic per-device arrivals for one epoch. Even devices run a
/// sparse regime (1-in-16 slices busy), odd devices a dense one
/// (5-in-8); the device index phases the pattern without changing its
/// statistics, so same-regime devices fit identical models — the
/// clustering premise.
fn epoch_arrivals(devices: usize, epoch: usize) -> Vec<Vec<u32>> {
    (0..devices)
        .map(|d| {
            let (density, period) = if d % 2 == 0 { (1, 16) } else { (5, 8) };
            (0..EPOCH_SLICES)
                .map(|i| u32::from((d + epoch * EPOCH_SLICES + i) % period < density))
                .collect()
        })
        .collect()
}

/// Runs one epoch per trace, device `d` fed the trace's stream `d`
/// (ids are allocated in device order).
fn run_epochs(fleet: &mut FleetService, traces: &[Vec<Vec<u32>>]) -> Vec<FleetReport> {
    traces
        .iter()
        .map(|streams| {
            let arrivals: Vec<_> = fleet
                .device_ids()
                .iter()
                .copied()
                .zip(streams.clone())
                .collect();
            fleet.run_epoch(&arrivals).expect("epoch runs")
        })
        .collect()
}

/// What `traces` cost without clustering: every device gets its own
/// warm fork of its class session and solves its own fitted model.
/// Returns (solves, pivots).
fn per_device_baseline(traces: &[Vec<Vec<u32>>]) -> (usize, usize) {
    let mut fleet = build_fleet();
    run_epochs(&mut fleet, traces);
    let (mut solves, mut pivots) = (0usize, 0usize);
    for (class, system) in class_systems().iter().enumerate() {
        let mut base = PolicyOptimizer::new(system)
            .horizon(2_000.0)
            .prepare()
            .expect("prepares");
        base.solve().expect("base model is feasible");
        let ids = &fleet.device_ids()[class * DEVICES_PER_CLASS..(class + 1) * DEVICES_PER_CLASS];
        for &id in ids {
            let Some(fit) = fleet.fit_of(id) else {
                continue;
            };
            let device_system =
                SystemModel::compose(system.provider().clone(), fit, *system.queue())
                    .expect("composes");
            let mut session = base.fork().expect("forks");
            session
                .update_model(device_system.chain())
                .expect("reloads");
            let solution = session.solve().expect("feasible");
            solves += 1;
            pivots += solution.solve_report().iterations;
        }
    }
    (solves, pivots)
}

#[test]
fn fleet_clustering_costs_at_most_a_tenth_of_per_device_solves() {
    let devices = 3 * DEVICES_PER_CLASS;
    let traces: Vec<Vec<Vec<u32>>> = (0..EPOCHS).map(|e| epoch_arrivals(devices, e)).collect();
    let reports = run_epochs(&mut build_fleet(), &traces);

    // Regime clustering collapses the solve count, and every cluster
    // solve stays warm on its class's shared symbolic analysis.
    let first = &reports[0];
    assert!(
        first.clusters <= 12,
        "{} clusters for 6 class-regimes",
        first.clusters
    );
    assert_eq!(first.cold_reloads, 0, "cold reload crept in");
    assert!(
        first.symbolic_reuses >= first.solves,
        "cluster solves re-analyzed the basis"
    );
    let (baseline_solves, baseline_pivots) = per_device_baseline(&traces[..1]);
    assert!(
        baseline_solves >= devices * 9 / 10,
        "per-device baseline solved only {baseline_solves} of {devices}"
    );
    assert!(
        10 * first.pivots <= baseline_pivots,
        "clustered pivots {} are not \u{2264} 10% of per-device pivots {baseline_pivots}",
        first.pivots
    );

    // The event gate holds stationary epochs.
    let later_solves: usize = reports[1..].iter().map(|r| r.solves).sum();
    assert!(
        later_solves <= first.solves,
        "stationary epochs re-solved {later_solves} times"
    );
}
