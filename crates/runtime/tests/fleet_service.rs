//! Acceptance tests of the fleet **service** runtime: device churn,
//! the incremental divergence gauge on the correlated rack scenario,
//! and bit-identical checkpoint/restore.
//!
//! The checkpoint property test forks LP sessions concurrently with
//! the fleet's own worker pool; CI runs this suite in the serialized
//! fleet job (`RUST_TEST_THREADS=1`) like the other fleet tests.

use dpm_runtime::service::ClassId;
use dpm_runtime::{
    AdaptiveConfig, DeviceId, FleetConfig, FleetReport, FleetService, SnapshotError,
};
use dpm_systems::racks::{self, RackSchedule};
use dpm_trace::WindowKind;

/// The scenario fleet configuration: quiet gate at exactly zero (the
/// rack patterns repeat bit-identically on calm epochs, so zero drift
/// is achievable, not just approachable).
fn config() -> FleetConfig {
    FleetConfig::new()
        .adaptive(
            AdaptiveConfig::new()
                .memory(racks::MEMORY)
                .smoothing(racks::SMOOTHING)
                .horizon(2_000.0)
                .window(WindowKind::Sliding(2 * racks::EPOCH_SLICES)),
        )
        .cluster_divergence(0.1)
        .resolve_divergence(0.05)
        .quiet_divergence(0.0)
}

/// A service with one rack-scenario class and `count` devices.
fn service_with(count: usize) -> (FleetService, ClassId) {
    let mut service = FleetService::new(config());
    let class = service
        .register_class(&racks::system().expect("system composes"))
        .expect("class registers");
    for _ in 0..count {
        service.add_device(class).expect("device adds");
    }
    (service, class)
}

/// Pairs the schedule's epoch streams with the service's current ids,
/// positionally. Devices beyond the schedule width idle (empty
/// stream); schedule columns beyond the fleet are dropped.
fn epoch_pairs(
    schedule: &RackSchedule,
    ids: &[DeviceId],
    epoch: usize,
) -> Vec<(DeviceId, Vec<u32>)> {
    schedule
        .epoch_arrivals(epoch)
        .into_iter()
        .zip(ids.iter())
        .map(|(stream, &id)| (id, stream))
        .collect()
}

fn run_schedule_epoch(
    service: &mut FleetService,
    schedule: &RackSchedule,
    epoch: usize,
) -> FleetReport {
    let ids = service.device_ids().to_vec();
    let pairs = epoch_pairs(schedule, &ids, epoch);
    service.run_epoch(&pairs).expect("epoch runs")
}

// ---------------------------------------------------------------------
// Incremental gauge on the correlated scenario.

#[test]
fn quiet_epochs_skip_at_least_90_percent_of_gauge_recomputations() {
    let schedule = RackSchedule::new();
    let (mut service, _) = service_with(schedule.devices());
    let epochs = 3 * racks::CALM_EPOCHS;
    let (mut calm_skips, mut calm_refits) = (0usize, 0usize);
    for epoch in 0..epochs {
        let report = run_schedule_epoch(&mut service, &schedule, epoch);
        // "Calm phase": the regime held for the whole estimator window
        // (two epochs), and the warmup fits (epochs 0-1) are over.
        let window_calm =
            !schedule.is_shift_epoch(epoch) && (epoch == 0 || !schedule.is_shift_epoch(epoch - 1));
        if epoch >= 2 && window_calm {
            calm_skips += report.gauge_skips;
            calm_refits += report.gauge_refits;
        }
        if epoch >= 2 && schedule.is_shift_epoch(epoch) {
            assert!(
                report.gauge_refits >= racks::DEVICES_PER_RACK,
                "epoch {epoch}: a correlated shift must refit the shifted rack, \
                 saw {} refits",
                report.gauge_refits
            );
        }
    }
    let total = calm_skips + calm_refits;
    assert!(total > 0, "the schedule must contain calm-phase epochs");
    assert!(
        calm_skips * 10 >= total * 9,
        "calm phases skipped only {calm_skips} of {total} gauge recomputations"
    );
}

#[test]
fn correlated_shift_evicts_and_rehomes_a_whole_rack() {
    let schedule = RackSchedule::new();
    let (mut service, _) = service_with(schedule.devices());
    let mut max_evictions = 0usize;
    for epoch in 0..2 * racks::CALM_EPOCHS {
        let report = run_schedule_epoch(&mut service, &schedule, epoch);
        max_evictions = max_evictions.max(report.evictions);
        assert_eq!(report.cold_reloads, 0, "epoch {epoch} reloaded cold");
    }
    assert!(
        max_evictions >= racks::DEVICES_PER_RACK,
        "a whole-rack shift should evict the rack together, saw {max_evictions}"
    );
    // During the surge block the shifted rack lives in its own cluster.
    let ids = service.device_ids();
    let surged = service.cluster_of(ids[0]).expect("surged device clusters");
    let calm = service
        .cluster_of(ids[racks::DEVICES_PER_RACK])
        .expect("calm device clusters");
    assert_ne!(surged, calm, "surged rack must be re-homed apart");
}

// ---------------------------------------------------------------------
// Churn.

#[test]
fn devices_join_an_empty_fleet_and_the_last_removal_gcs_the_cluster() {
    let (mut service, class) = service_with(0);
    assert_eq!((service.devices(), service.clusters()), (0, 0));
    // An empty fleet still runs (vacuous) epochs.
    let report = service.run_epoch(&[]).expect("empty epoch");
    assert_eq!(report.devices, 0);
    let id = service.add_device(class).expect("first device");
    let calm: Vec<u32> = (0..racks::EPOCH_SLICES)
        .map(|i| u32::from(i % racks::CALM.1 < racks::CALM.0))
        .collect();
    for _ in 0..2 {
        service
            .run_epoch(&[(id, calm.clone())])
            .expect("epoch runs");
    }
    assert_eq!(service.clusters(), 1, "lone device founds its cluster");
    assert!(service.cluster_of(id).is_some());
    // Removing the cluster's last member garbage-collects it.
    service.remove_device(id).expect("removes");
    assert_eq!((service.devices(), service.clusters()), (0, 0));
}

#[test]
fn removed_ids_are_retired_and_re_adding_yields_a_fresh_one() {
    let (mut service, class) = service_with(2);
    let ids = service.device_ids().to_vec();
    service.remove_device(ids[0]).expect("removes");
    assert!(!service.contains(ids[0]));
    assert!(service.policy(ids[0]).is_none());
    assert!(
        service.remove_device(ids[0]).is_err(),
        "double removal is rejected"
    );
    let fresh = service.add_device(class).expect("re-adds");
    assert_ne!(fresh, ids[0], "ids are never reused");
    assert!(fresh > ids[1], "ids allocate monotonically");
    // The retired id stays unaddressable forever.
    let err = service
        .run_epoch(&[(ids[0], vec![0, 1])])
        .expect_err("retired id in arrivals");
    assert!(matches!(err, dpm_core::DpmError::BadConfiguration { .. }));
    let err = service
        .run_epoch(&[(fresh, vec![0]), (fresh, vec![1])])
        .expect_err("duplicate id in arrivals");
    assert!(matches!(err, dpm_core::DpmError::BadConfiguration { .. }));
}

#[test]
fn churn_never_triggers_a_full_fleet_re_prepare() {
    let schedule = RackSchedule::new();
    let (mut service, class) = service_with(schedule.devices());
    // Reach the calm steady state: everything clustered, gate holding.
    for epoch in 0..3 {
        run_schedule_epoch(&mut service, &schedule, epoch);
    }
    // Churn a batch: 4 joins and 2 removals, mid-flight.
    let mut joined = Vec::new();
    for _ in 0..4 {
        joined.push(service.add_device(class).expect("adds"));
    }
    let victims = [service.device_ids()[3], service.device_ids()[11]];
    for v in victims {
        service.remove_device(v).expect("removes");
    }
    // The joiners fit the calm pattern and must slot into the existing
    // calm cluster without a single new prepare or even a re-solve —
    // the report's counters are the assertion.
    let mut churn_solves = 0;
    for epoch in 3..6 {
        let ids = service.device_ids().to_vec();
        let mut pairs = epoch_pairs(&schedule, &ids, epoch);
        let calm: Vec<u32> = (0..racks::EPOCH_SLICES)
            .map(|i| u32::from(i % racks::CALM.1 < racks::CALM.0))
            .collect();
        for &id in &joined {
            if !pairs.iter().any(|(p, _)| *p == id) {
                pairs.push((id, calm.clone()));
            }
        }
        let report = service.run_epoch(&pairs).expect("epoch runs");
        churn_solves += report.solves;
        assert_eq!(report.cold_reloads, 0, "epoch {epoch}: cold reload");
        assert!(
            report.symbolic_reuses >= report.solves,
            "epoch {epoch}: a solve re-analyzed its basis symbolically"
        );
        assert!(
            report.solves <= service.clusters(),
            "epoch {epoch}: more solves than clusters"
        );
    }
    assert!(
        churn_solves <= 2,
        "churn caused a solve storm: {churn_solves} solves after churn"
    );
    for &id in &joined {
        assert!(
            service.cluster_of(id).is_some(),
            "joiner {id} never clustered"
        );
    }
}

// ---------------------------------------------------------------------
// Checkpoint / restore.

/// A tiny deterministic xorshift for the property test's churn choices.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Property: **any** reachable fleet state → checkpoint → restore into
/// a fresh service → the snapshot round-trips bit-identically and the
/// next epochs' reports are bit-identical to the uninterrupted run's.
/// States are sampled by running 1–10 epochs of the rack schedule with
/// random churn interleaved, across seeds — covering pre-warmup
/// states, mid-surge states (post-restore epochs that re-solve) and
/// deep-calm states (post-restore epochs that skip everything).
#[test]
fn checkpoint_restore_roundtrips_bit_identically() {
    let schedule = RackSchedule::new();
    for seed in 0..6u64 {
        let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let (mut service, class) = service_with(schedule.devices());
        let epochs = 1 + (rng.next() % 10) as usize;
        for epoch in 0..epochs {
            match rng.next() % 4 {
                0 if service.devices() > 4 => {
                    let ids = service.device_ids().to_vec();
                    let victim = ids[rng.next() as usize % ids.len()];
                    service.remove_device(victim).expect("removes");
                }
                1 => {
                    service.add_device(class).expect("adds");
                }
                _ => {}
            }
            run_schedule_epoch(&mut service, &schedule, epoch);
        }

        let mut snapshot = Vec::new();
        service.checkpoint(&mut snapshot).expect("checkpoints");
        let (mut restored, _) = service_with(0);
        let report = restored
            .restore(&mut snapshot.as_slice())
            .expect("restores");
        assert_eq!(report.devices, service.devices(), "seed {seed}");
        assert_eq!(report.clusters, service.clusters(), "seed {seed}");
        assert_eq!(
            report.cold_reloads, 0,
            "seed {seed}: restore replayed a cold solve"
        );
        assert!(
            report.replayed_solves <= report.clusters,
            "seed {seed}: cold-solve storm ({} replays for {} clusters)",
            report.replayed_solves,
            report.clusters
        );
        assert_eq!(restored.device_ids(), service.device_ids(), "seed {seed}");
        assert_eq!(restored.epoch(), service.epoch(), "seed {seed}");

        // A re-checkpoint of the restored service is byte-identical.
        let mut again = Vec::new();
        restored.checkpoint(&mut again).expect("re-checkpoints");
        assert_eq!(snapshot, again, "seed {seed}: snapshot not idempotent");

        // The continuation is bit-identical, epoch by epoch — including
        // epochs that cross a correlated shift and re-solve.
        for epoch in epochs..epochs + racks::CALM_EPOCHS {
            let ids = service.device_ids().to_vec();
            let pairs = epoch_pairs(&schedule, &ids, epoch);
            let original = service.run_epoch(&pairs).expect("original continues");
            let resumed = restored.run_epoch(&pairs).expect("restored continues");
            assert_eq!(
                original, resumed,
                "seed {seed}: reports diverge at epoch {epoch}"
            );
        }
        for &id in service.device_ids() {
            assert_eq!(
                service.policy(id).map(|p| (**p).clone()),
                restored.policy(id).map(|p| (**p).clone()),
                "seed {seed}: {id} serves a different policy after restore"
            );
        }
    }
}

#[test]
fn restore_rejects_garbage_truncation_and_mismatched_services() {
    let schedule = RackSchedule::new();
    let (mut service, _) = service_with(8);
    for epoch in 0..2 {
        run_schedule_epoch(&mut service, &schedule, epoch);
    }
    let mut snapshot = Vec::new();
    service.checkpoint(&mut snapshot).expect("checkpoints");

    // Garbage magic.
    let (mut target, _) = service_with(0);
    let err = target
        .restore(&mut b"NOTAFLEETSNAPSHOT".as_slice())
        .expect_err("garbage must be rejected");
    assert!(matches!(err, SnapshotError::Format { .. }), "{err}");

    // Truncation anywhere in the stream.
    for cut in [4, 11, snapshot.len() / 2, snapshot.len() - 1] {
        let err = target
            .restore(&mut &snapshot[..cut])
            .expect_err("truncated snapshot must be rejected");
        assert!(
            matches!(
                err,
                SnapshotError::Io(_)
                    | SnapshotError::Format { .. }
                    | SnapshotError::Truncated { .. }
                    | SnapshotError::ChecksumMismatch { .. }
            ),
            "cut at {cut}: {err}"
        );
    }
    assert_eq!(target.devices(), 0, "failed restores must not mutate");

    // A service with different classes registered.
    let mut mismatched = FleetService::new(config());
    let err = mismatched
        .restore(&mut snapshot.as_slice())
        .expect_err("class-less service must be rejected");
    assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err}");

    // The round trip itself still works on the matching target.
    target.restore(&mut snapshot.as_slice()).expect("restores");
    assert_eq!(target.devices(), 8);
}

/// Calm-regime telemetry for one epoch; `poisoned` puts a NaN in it.
fn calm_telemetry(poisoned: bool) -> Vec<f64> {
    let mut raw: Vec<f64> = (0..racks::EPOCH_SLICES)
        .map(|i| f64::from(u32::from(i % racks::CALM.1 < racks::CALM.0)))
        .collect();
    if poisoned {
        raw[0] = f64::NAN;
    }
    raw
}

#[test]
fn quarantining_a_clusters_last_member_leaves_a_restorable_snapshot() {
    let (mut service, _) = service_with(1);
    let id = service.device_ids()[0];
    for _ in 0..2 {
        service
            .run_epoch_telemetry(&[(id, calm_telemetry(false))])
            .expect("epoch runs");
    }
    assert!(service.cluster_of(id).is_some(), "the device clusters");
    for _ in 0..3 {
        service
            .run_epoch_telemetry(&[(id, calm_telemetry(true))])
            .expect("epoch runs");
    }
    assert_eq!(
        service.health_of(id),
        Some(dpm_runtime::DeviceHealth::Quarantined)
    );
    assert_eq!(service.cluster_of(id), None);
    assert_eq!(service.clusters(), 0, "the emptied cluster is dropped");

    let mut snapshot = Vec::new();
    service.checkpoint(&mut snapshot).expect("checkpoints");
    let (mut restored, _) = service_with(0);
    let report = restored
        .restore(&mut snapshot.as_slice())
        .expect("the snapshot restores");
    assert_eq!((report.devices, report.clusters), (1, 0));
    assert_eq!(
        restored.health_of(id),
        Some(dpm_runtime::DeviceHealth::Quarantined)
    );
}

#[test]
fn a_refused_telemetry_feed_strikes_no_device() {
    let (mut service, _) = service_with(2);
    let [a, b] = [service.device_ids()[0], service.device_ids()[1]];
    let clean = |ids: &[DeviceId]| -> Vec<(DeviceId, Vec<f64>)> {
        ids.iter().map(|&id| (id, calm_telemetry(false))).collect()
    };
    service
        .run_epoch_telemetry(&clean(&[a, b]))
        .expect("epoch runs");
    let mut before = Vec::new();
    service.checkpoint(&mut before).expect("checkpoints");

    // A duplicate whose first copy is rejected, and one whose copies
    // are both clean: refused before any stream is screened.
    for feed in [
        vec![(a, calm_telemetry(true)), (a, calm_telemetry(false))],
        vec![
            (b, calm_telemetry(false)),
            (a, calm_telemetry(true)),
            (b, calm_telemetry(false)),
        ],
    ] {
        let err = service
            .run_epoch_telemetry(&feed)
            .expect_err("a duplicate id must be refused");
        assert!(matches!(err, dpm_core::DpmError::BadConfiguration { .. }));
    }
    let mut after = Vec::new();
    service.checkpoint(&mut after).expect("checkpoints");
    assert_eq!(before, after, "a refused feed changed the fleet");

    // No strike was left pending for the next epoch either.
    let report = service
        .run_epoch_telemetry(&clean(&[a, b]))
        .expect("epoch runs");
    assert_eq!(report.strikes, 0, "a refused feed struck a device");
    for id in [a, b] {
        assert_eq!(
            service.health_of(id),
            Some(dpm_runtime::DeviceHealth::Healthy)
        );
    }
}
