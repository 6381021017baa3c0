//! Fault-containment acceptance tests: the escalation ladder under
//! seeded solver faults, device quarantine and probation, telemetry
//! poisoning at the ingest boundary, checkpoint fuzzing, and the
//! scripted [`hostile`] fault campaign end to end.
//!
//! The [`dpm_lp::fault`] registry is process-global, so every test in
//! this binary takes the file-local mutex; CI additionally runs the
//! whole binary with `RUST_TEST_THREADS=1`.

use std::sync::{Mutex, MutexGuard};

use dpm_core::ServiceRequester;
use dpm_lp::fault::{self, FaultPlan};
use dpm_runtime::service::ClassId;
use dpm_runtime::{
    AdaptiveConfig, AdaptiveController, DeviceHealth, DeviceId, FleetConfig, FleetReport,
    FleetService, LadderRung, SnapshotError,
};
use dpm_systems::drifting;
use dpm_systems::hostile::{self, HostileSchedule};
use dpm_trace::WindowKind;

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes fault-plan tests; a panicked holder must not wedge the
/// rest of the binary, so poisoning is shrugged off.
fn serialized() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn adaptive() -> AdaptiveConfig {
    // The performance bounds matter: the constrained LP is what makes
    // warm repairs pivot, and a solve must pivot for a per-pivot fault
    // plan to have any event to perturb.
    AdaptiveConfig::new()
        .memory(1)
        .smoothing(0.5)
        .horizon(2_000.0)
        .max_performance_penalty(drifting::QUEUE_BOUND)
        .max_request_loss_rate(drifting::LOSS_BOUND)
        .window(WindowKind::Sliding(400))
}

fn fleet_config() -> FleetConfig {
    FleetConfig::new()
        .adaptive(adaptive())
        .cluster_divergence(0.1)
        .resolve_divergence(0.05)
}

/// A service over the drifting scenario's class with `count` devices.
fn service_with(config: FleetConfig, count: usize) -> (FleetService, ClassId) {
    let system =
        drifting::system_for(ServiceRequester::two_state(0.1, 0.6).expect("valid two-state SR"))
            .expect("system composes");
    let mut service = FleetService::new(config);
    let class = service.register_class(&system).expect("class registers");
    for _ in 0..count {
        service.add_device(class).expect("device adds");
    }
    (service, class)
}

/// Deterministic periodic arrival pattern: `density` of every `period`
/// slices carry a request.
fn pattern(len: usize, offset: usize, density: usize, period: usize) -> Vec<u32> {
    (0..len)
        .map(|i| u32::from((i + offset) % period < density))
        .collect()
}

/// The same pattern as raw `f64` telemetry.
fn telemetry_pattern(len: usize, offset: usize, density: usize, period: usize) -> Vec<f64> {
    pattern(len, offset, density, period)
        .into_iter()
        .map(f64::from)
        .collect()
}

/// Per-device epoch arrivals cycling through four regimes, so every
/// epoch re-fits, evicts and re-solves somewhere in the fleet — a
/// steady supply of pivoting solves for the fault plan to perturb.
fn epoch_arrivals(service: &FleetService, epoch: usize) -> Vec<(DeviceId, Vec<u32>)> {
    const DENSITIES: [usize; 4] = [1, 5, 6, 8];
    service
        .device_ids()
        .iter()
        .enumerate()
        .map(|(d, &id)| {
            let density = DENSITIES[(epoch + d) % DENSITIES.len()];
            (id, pattern(400, d, density, 8))
        })
        .collect()
}

/// Arrivals alternating between two regimes that are each far enough
/// from the class base that a fresh fork's warm solve needs more
/// pivots than the escalation ladder can absorb under a total
/// exhaust-budget fault — so every epoch's solve holds, and the holds
/// land on a freshly forked session each time (the regime swing also
/// evicts and re-homes the device every epoch).
fn unsolvable_arrivals(id: DeviceId, epoch: usize) -> Vec<(DeviceId, Vec<u32>)> {
    let density = if epoch % 2 == 0 { 6 } else { 8 };
    vec![(id, pattern(400, 0, density, 8))]
}

/// Every device's served policy must be a finite distribution per row.
fn assert_policies_valid(service: &FleetService) {
    for &id in service.device_ids() {
        let policy = service.policy(id).expect("every device serves a policy");
        for (s, row) in policy.decisions().iter().enumerate() {
            let sum: f64 = row.iter().sum();
            assert!(
                row.iter().all(|p| p.is_finite() && *p >= 0.0),
                "{id} state {s}: non-finite or negative probability in {row:?}"
            );
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "{id} state {s}: row sums to {sum}, not 1"
            );
        }
    }
}

/// splitmix64: the fuzz tests' only randomness, seeded and
/// dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// The escalation ladder as a property: under any seeded fault mix the
// fleet finishes every epoch, keeps its census consistent, and never
// serves a non-finite policy.

#[test]
fn ladder_contains_seeded_fault_storms() {
    let _guard = serialized();
    let mut engaged = 0usize;
    for seed in [11, 23, 37, 41, 59] {
        let (mut service, _) = service_with(fleet_config(), 6);
        let _faults = fault::install(
            FaultPlan::new(seed)
                .refuse_updates(0.3)
                .poison_refactors(0.2)
                .exhaust_budgets(0.25),
        );
        for epoch in 0..8 {
            let arrivals = epoch_arrivals(&service, epoch);
            let report = service
                .run_epoch(&arrivals)
                .unwrap_or_else(|e| panic!("seed {seed} epoch {epoch}: {e}"));
            assert_eq!(
                report.healthy + report.degraded + report.quarantined,
                service.devices(),
                "seed {seed} epoch {epoch}: health census does not cover the fleet"
            );
            engaged +=
                report.warm_retries + report.forced_refactors + report.cold_rebuilds + report.holds;
            assert_policies_valid(&service);
        }
    }
    assert!(
        engaged > 0,
        "the fault storm never engaged the ladder: the rates are too low to test anything"
    );
}

#[test]
fn adaptive_controller_ladder_never_serves_a_broken_policy() {
    let _guard = serialized();
    let system = drifting::blended_system(7).expect("blended system composes");
    let mut controller =
        AdaptiveController::new(&system, adaptive().epoch_slices(400).min_divergence(0.0))
            .expect("controller builds");
    let _faults = fault::install(FaultPlan::new(97).exhaust_budgets(0.6));
    let trace = drifting::workload(60_000, 7);
    let sim = dpm_sim::Simulator::new(&system, dpm_sim::SimConfig::new(trace.len() as u64).seed(7));
    let mut tracker = dpm_trace::KMemoryTracker::new(drifting::MEMORY).tracker();
    sim.run_trace(&mut controller, &trace, &mut tracker)
        .expect("the simulation itself must survive the fault storm");
    assert!(
        controller.epochs().len() >= 10,
        "only {} epochs ran",
        controller.epochs().len()
    );
    let mut laddered = 0usize;
    for e in controller.epochs() {
        if !e.refreshed {
            continue;
        }
        match e.rung {
            Some(LadderRung::Hold) => assert!(
                e.error.is_some(),
                "epoch {}: a hold must surface its error",
                e.epoch
            ),
            Some(rung) => {
                if rung != LadderRung::Direct {
                    laddered += 1;
                }
                assert!(
                    e.error.is_none() || e.infeasible,
                    "epoch {}: rung {rung:?} adopted but an error leaked: {:?}",
                    e.epoch,
                    e.error
                );
            }
            None => {}
        }
    }
    assert!(
        laddered + controller.held_epochs() > 0,
        "exhaust-budget faults at 0.35 never escalated past a direct solve"
    );
    if let Some(policy) = controller.current_policy() {
        for (s, row) in policy.decisions().iter().enumerate() {
            assert!(
                row.iter().all(|p| p.is_finite()),
                "state {s}: non-finite policy row after the storm"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The ladder's shape: rungs are climbed in order, so a fleet report's
// rung counters nest and a controller epoch holds only after its cold
// rebuild failed. The fault mixes are chosen so that every rung is
// reached at least once, which keeps the checks from passing vacuously.

#[test]
fn ladder_rungs_are_climbed_in_order() {
    let _guard = serialized();
    let (mut service, _) = service_with(fleet_config(), 6);
    let faults = fault::install(
        FaultPlan::new(2)
            .refuse_updates(0.3)
            .poison_refactors(0.5)
            .exhaust_budgets(0.3),
    );
    // Warm retries, forced refactorizations, cold rebuilds, holds.
    let mut reached = [0usize; 4];
    for epoch in 0..8 {
        let arrivals = epoch_arrivals(&service, epoch);
        let r = service
            .run_epoch(&arrivals)
            .unwrap_or_else(|e| panic!("epoch {epoch}: {e}"));
        let counts = [r.warm_retries, r.forced_refactors, r.cold_rebuilds, r.holds];
        assert!(
            counts[0] >= counts[1] && counts[1] >= counts[2] + counts[3],
            "epoch {epoch}: ladder counters do not nest: {r:?}"
        );
        for (total, count) in reached.iter_mut().zip(counts) {
            *total += count;
        }
    }
    drop(faults);
    assert!(
        reached.iter().all(|&n| n > 0),
        "the fleet campaign missed a rung: {reached:?}"
    );

    let system = drifting::blended_system(7).expect("blended system composes");
    let mut controller =
        AdaptiveController::new(&system, adaptive().epoch_slices(400).min_divergence(0.0))
            .expect("controller builds");
    let _faults = fault::install(
        FaultPlan::new(5)
            .refuse_updates(0.3)
            .poison_refactors(0.3)
            .exhaust_budgets(0.3),
    );
    let trace = drifting::workload(60_000, 7);
    let sim = dpm_sim::Simulator::new(&system, dpm_sim::SimConfig::new(trace.len() as u64).seed(7));
    let mut tracker = dpm_trace::KMemoryTracker::new(drifting::MEMORY).tracker();
    sim.run_trace(&mut controller, &trace, &mut tracker)
        .expect("the simulation itself must survive the fault storm");
    // Epochs ending on each rung, bottom (Direct) to top (Hold).
    let mut ended = [0usize; 5];
    for e in controller.epochs() {
        let Some(rung) = e.rung else { continue };
        ended[rung as usize] += 1;
        // Every rung past the first is reached through failed solves of
        // the swapped-in model; a hold's error is its failed (not
        // infeasible) cold rebuild's, after a last warm attempt that
        // failed too.
        let failed_warm = e
            .report
            .as_ref()
            .is_some_and(|r| r.termination != dpm_lp::Termination::Optimal);
        assert!(
            rung == LadderRung::Direct || (e.reload.is_some() && e.report.is_some()),
            "epoch {}: {rung:?} without a swap and a solve",
            e.epoch
        );
        assert_eq!(
            e.error.is_some(),
            rung == LadderRung::Hold,
            "epoch {}: rung {rung:?} with error {:?}",
            e.epoch,
            e.error
        );
        assert!(
            rung != LadderRung::Hold || (!e.infeasible && failed_warm),
            "epoch {}: a hold without a failed cold rebuild",
            e.epoch
        );
    }
    assert!(
        ended.iter().all(|&n| n > 0),
        "the controller campaign missed a rung: {ended:?}"
    );
}

// ---------------------------------------------------------------------
// Quarantine and probation: a device whose cluster can never solve is
// fenced off, and rejoins (through probation) once the faults stop.

#[test]
fn unsolvable_device_is_quarantined_then_readmitted() {
    let _guard = serialized();
    let config = fleet_config().quarantine_strikes(2).probation_epochs(3);
    let (mut service, _) = service_with(config, 1);
    let id = service.device_ids()[0];

    let guard = fault::install(FaultPlan::new(5).exhaust_budgets(1.0));
    let mut quarantines = 0usize;
    let mut recovery_epoch = 0usize;
    for epoch in 0..12 {
        let arrivals = unsolvable_arrivals(id, epoch);
        let report = service
            .run_epoch(&arrivals)
            .unwrap_or_else(|e| panic!("faulted epoch {epoch}: {e}"));
        assert!(
            report.holds > 0 || report.quarantines > 0 || report.solves == 0,
            "faulted epoch {epoch}: an unsolvable cluster must hold, not adopt"
        );
        quarantines += report.quarantines;
        if service.health_of(id) == Some(DeviceHealth::Quarantined) {
            recovery_epoch = epoch + 1;
            break;
        }
    }
    assert_eq!(
        service.health_of(id),
        Some(DeviceHealth::Quarantined),
        "an all-faults solver never tripped quarantine in 12 epochs"
    );
    assert_eq!(quarantines, 1, "quarantine must be counted exactly once");
    drop(guard);

    // Probation: the device idles while the counter runs down, then
    // rejoins, re-homes and solves cleanly.
    let mut readmissions = 0usize;
    for epoch in recovery_epoch..recovery_epoch + 8 {
        let arrivals = unsolvable_arrivals(id, epoch);
        let report = service
            .run_epoch(&arrivals)
            .unwrap_or_else(|e| panic!("recovery epoch {epoch}: {e}"));
        readmissions += report.readmissions;
    }
    assert_eq!(readmissions, 1, "readmission must be counted exactly once");
    assert_eq!(
        service.health_of(id),
        Some(DeviceHealth::Healthy),
        "the device must be healthy again after probation plus a clean solve"
    );
    assert_eq!(service.clusters(), 1, "the readmitted device re-homes");
    assert_policies_valid(&service);
}

#[test]
fn poisoned_telemetry_strikes_only_the_poisoned_device() {
    let _guard = serialized();
    let config = fleet_config().quarantine_strikes(2).probation_epochs(2);
    let (mut service, _) = service_with(config, 2);
    let (poisoned, clean) = (service.device_ids()[0], service.device_ids()[1]);

    // Warm up with clean telemetry so both devices fit and cluster.
    for _ in 0..2 {
        let streams = vec![
            (poisoned, telemetry_pattern(400, 0, 1, 8)),
            (clean, telemetry_pattern(400, 1, 5, 8)),
        ];
        service
            .run_epoch_telemetry(&streams)
            .expect("clean epochs run");
    }
    assert_eq!(service.health_of(poisoned), Some(DeviceHealth::Healthy));

    // Poison one device's stream until it is quarantined; its neighbor
    // must never be touched.
    let mut poison = telemetry_pattern(400, 0, 1, 8);
    poison[7] = f64::NAN;
    for epoch in 0..4 {
        let streams = vec![
            (poisoned, poison.clone()),
            (clean, telemetry_pattern(400, 1, 5, 8)),
        ];
        let report = service
            .run_epoch_telemetry(&streams)
            .unwrap_or_else(|e| panic!("poisoned epoch {epoch}: {e}"));
        assert_eq!(
            service.health_of(clean),
            Some(DeviceHealth::Healthy),
            "poison on one device leaked onto its neighbor"
        );
        assert!(report.healthy + report.degraded + report.quarantined == 2);
        if service.health_of(poisoned) == Some(DeviceHealth::Quarantined) {
            break;
        }
    }
    assert_eq!(
        service.health_of(poisoned),
        Some(DeviceHealth::Quarantined),
        "two strikes of poisoned telemetry must quarantine the device"
    );
    assert_policies_valid(&service);

    // Clean telemetry again: probation runs down and the device rejoins.
    let mut readmissions = 0usize;
    for _ in 0..6 {
        let streams = vec![
            (poisoned, telemetry_pattern(400, 0, 1, 8)),
            (clean, telemetry_pattern(400, 1, 5, 8)),
        ];
        let report = service
            .run_epoch_telemetry(&streams)
            .expect("recovery runs");
        readmissions += report.readmissions;
    }
    assert_eq!(readmissions, 1);
    assert_eq!(service.health_of(poisoned), Some(DeviceHealth::Healthy));
}

// ---------------------------------------------------------------------
// Checkpoint fuzzing: damage must always be detected, never panic, and
// never leave the target service broken.

#[test]
fn snapshot_fuzz_never_panics_and_never_accepts_damage() {
    let _guard = serialized();
    let (mut service, _) = service_with(fleet_config(), 4);
    for _ in 0..3 {
        let arrivals = epoch_arrivals(&service, 0);
        service.run_epoch(&arrivals).expect("epoch runs");
    }
    let mut snapshot = Vec::new();
    service.checkpoint(&mut snapshot).expect("checkpoints");

    // The clean round trip is bit-identical.
    let (mut target, _) = service_with(fleet_config(), 0);
    target
        .restore(&mut snapshot.as_slice())
        .expect("clean snapshot restores");
    let mut again = Vec::new();
    target.checkpoint(&mut again).expect("re-checkpoints");
    assert_eq!(
        snapshot, again,
        "restore → checkpoint must be bit-identical"
    );

    for seed in 0..8u64 {
        let mut state = seed.wrapping_mul(0x0123_4567_89AB_CDEF) ^ 0xDEAD_BEEF;
        for case in 0..40 {
            let mut damaged = snapshot.clone();
            let r = splitmix64(&mut state);
            if r % 4 == 0 {
                // Truncate somewhere strictly inside the stream.
                let cut = 1 + (splitmix64(&mut state) as usize) % (damaged.len() - 1);
                damaged.truncate(cut);
            } else {
                // Flip one bit anywhere.
                let at = (splitmix64(&mut state) as usize) % damaged.len();
                let bit = 1u8 << (splitmix64(&mut state) % 8);
                damaged[at] ^= bit;
            }
            if damaged == snapshot {
                continue;
            }
            let before = target.devices();
            let err = target
                .restore(&mut damaged.as_slice())
                .expect_err("damaged snapshots must never restore silently");
            assert!(
                matches!(
                    err,
                    SnapshotError::Format { .. }
                        | SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::Truncated { .. }
                        | SnapshotError::UnsupportedVersion { .. }
                        | SnapshotError::Io(_)
                        | SnapshotError::Mismatch { .. }
                ),
                "seed {seed} case {case}: unexpected error class: {err}"
            );
            assert_eq!(
                target.devices(),
                before,
                "seed {seed} case {case}: a failed restore mutated the service"
            );
        }
    }

    // The survivor is still a working service: it runs an epoch and a
    // clean restore still succeeds.
    let arrivals = epoch_arrivals(&target, 0);
    target
        .run_epoch(&arrivals)
        .expect("the service must stay usable after every failed restore");
    target
        .restore(&mut snapshot.as_slice())
        .expect("the clean snapshot still restores after the fuzz");
}

// ---------------------------------------------------------------------
// The scripted hostile campaign: corrupted telemetry on one rack and
// armed budget faults on the other, then recovery. The outcome is known
// exactly: the fleet heals completely and converges to the policies of
// a never-faulted control run.

fn campaign_config() -> FleetConfig {
    FleetConfig::new()
        .adaptive(
            AdaptiveConfig::new()
                .memory(hostile::MEMORY)
                .smoothing(hostile::SMOOTHING)
                .horizon(2_000.0)
                .max_performance_penalty(drifting::QUEUE_BOUND)
                .max_request_loss_rate(drifting::LOSS_BOUND)
                .window(WindowKind::Sliding(hostile::EPOCH_SLICES)),
        )
        .cluster_divergence(0.1)
        .resolve_divergence(0.05)
}

/// Plays the whole schedule. With `hostile_run`, victim telemetry is
/// corrupted and the scenario's budget-fault plan is armed for exactly
/// the fault window; without it the same schedule plays back clean.
fn run_campaign(schedule: &HostileSchedule, hostile_run: bool) -> (FleetService, Vec<FleetReport>) {
    let mut service = FleetService::new(campaign_config());
    let class = service
        .register_class(&hostile::system().expect("system composes"))
        .expect("class registers");
    for _ in 0..schedule.devices() {
        service.add_device(class).expect("device adds");
    }
    let window = schedule.fault_window();
    let mut faults = None;
    let mut reports = Vec::with_capacity(schedule.total_epochs());
    for epoch in 0..schedule.total_epochs() {
        if hostile_run && epoch == window.start {
            faults = Some(fault::install(
                FaultPlan::new(hostile::FAULT_SEED).exhaust_budgets(hostile::EXHAUST_RATE),
            ));
        }
        if epoch == window.end {
            faults = None;
        }
        let telemetry: Vec<(DeviceId, Vec<f64>)> = service
            .device_ids()
            .iter()
            .copied()
            .zip(schedule.epoch_telemetry(epoch, hostile_run))
            .collect();
        let report = service
            .run_epoch_telemetry(&telemetry)
            .unwrap_or_else(|e| panic!("campaign epoch {epoch}: {e}"));
        reports.push(report);
    }
    drop(faults);
    (service, reports)
}

#[test]
fn hostile_campaign_recovers_to_the_control_runs_policies() {
    let _guard = serialized();
    let schedule = HostileSchedule::new();
    let (clean, clean_reports) = run_campaign(&schedule, false);
    let (campaign, reports) = run_campaign(&schedule, true);
    let sum = |reports: &[FleetReport], f: fn(&FleetReport) -> usize| -> usize {
        reports.iter().map(f).sum()
    };

    // The control run never sees containment.
    assert_eq!(
        sum(&clean_reports, |r| r.quarantines),
        0,
        "clean run quarantined"
    );
    assert_eq!(sum(&clean_reports, |r| r.holds), 0, "clean run held");
    assert_eq!(sum(&clean_reports, |r| r.errors), 0, "clean run errored");

    // Every victim is quarantined and readmitted, and the ladder
    // engages without a cold-rebuild storm.
    let victims = hostile::DEVICES_PER_RACK;
    assert_eq!(sum(&reports, |r| r.quarantines), victims);
    assert_eq!(sum(&reports, |r| r.readmissions), victims);
    assert!(
        sum(&reports, |r| r.holds) >= 1,
        "the ladder never reached a held epoch"
    );
    let cold_rebuilds = sum(&reports, |r| r.cold_rebuilds);
    assert!(
        cold_rebuilds <= 2 * schedule.total_epochs(),
        "cold-rebuild storm: {cold_rebuilds} cold rebuilds"
    );

    // The fleet ends 100% healthy, within the recovery budget.
    let last = reports.last().expect("campaign ran");
    assert_eq!(
        last.healthy,
        schedule.devices(),
        "fleet did not end healthy"
    );
    assert_eq!(last.quarantined, 0, "devices still quarantined");
    assert_eq!(last.degraded, 0, "devices still degraded");
    let recovery = reports[schedule.fault_window().end..]
        .iter()
        .position(|r| r.healthy == r.devices)
        .map_or(usize::MAX, |i| i + 1);
    assert!(
        recovery <= hostile::RECOVERY_EPOCHS,
        "recovery took {recovery} epochs"
    );
    for &id in campaign.device_ids() {
        assert_eq!(campaign.health_of(id), Some(DeviceHealth::Healthy));
    }

    // The final policies are bit-identical to the control run's.
    let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
        rows.iter()
            .map(|row| row.iter().map(|p| p.to_bits()).collect())
            .collect()
    };
    for &id in clean.device_ids() {
        let expected = clean.policy(id).expect("clean policy");
        let served = campaign.policy(id).expect("campaign policy");
        assert_eq!(
            bits(expected.decisions()),
            bits(served.decisions()),
            "device {id} diverged from the control run"
        );
    }
}
