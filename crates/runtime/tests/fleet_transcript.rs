//! Golden transcript of a fleet service's life.
//!
//! Every observable result of the seeded schedules below is folded into
//! one FNV-1a hash per schedule: each epoch's [`FleetReport`] (as
//! `Debug` text), then every device's id, the exact bits of its policy,
//! its cluster and its health, then the bytes of a checkpoint taken
//! after the epoch. Restores fold their [`RestoreReport`]. A change to
//! the fleet that claims to move no report, policy or snapshot byte
//! must keep these hashes, and each schedule must hash the same at 1
//! and at 3 workers.
//!
//! * **churn:** three device classes on switching two-state streams,
//!   devices added and removed mid-run, idle devices, and two
//!   checkpoint → restore hand-overs into a fresh service.
//! * **telemetry:** raw `f64` telemetry with rejected streams that
//!   strike, quarantine and re-admit devices, a restore while one sits
//!   in quarantine, then clean streams again.

use dpm_core::{ServiceRequester, SystemModel};
use dpm_runtime::{
    AdaptiveConfig, ClassId, DeviceId, FleetConfig, FleetReport, FleetService, RestoreReport,
};
use dpm_systems::{cpu, disk, web_server};
use dpm_trace::WindowKind;

/// Arrival slices per epoch.
const EPOCH_SLICES: usize = 160;

/// 64-bit FNV-1a over a stream of byte strings.
#[derive(Debug)]
struct Transcript {
    hash: u64,
}

impl Transcript {
    fn new() -> Self {
        Transcript {
            hash: 0xcbf2_9ce4_8422_2325,
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

    /// One epoch: the report, every device's state, then a checkpoint's
    /// bytes.
    fn epoch(&mut self, service: &FleetService, report: &FleetReport) {
        self.text(&format!("{report:?}"));
        for &id in service.device_ids() {
            self.bytes(&id.raw().to_le_bytes());
            let policy = service.policy(id).expect("a managed device has a policy");
            for row in policy.decisions() {
                for p in row {
                    self.bytes(&p.to_bits().to_le_bytes());
                }
            }
            self.text(&format!(
                "{:?} {:?}",
                service.cluster_of(id),
                service.health_of(id)
            ));
        }
        let mut snapshot = Vec::new();
        service.checkpoint(&mut snapshot).expect("checkpoints");
        self.bytes(&snapshot);
    }

    fn restore(&mut self, report: &RestoreReport) {
        self.text(&format!("{report:?}"));
    }
}

/// splitmix64: the schedules' only randomness, seeded and
/// dependency-free.
#[derive(Debug)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Workload regimes as (P(idle → busy), P(busy → busy)).
const REGIMES: [(f64, f64); 3] = [(0.05, 0.5), (0.3, 0.8), (0.6, 0.9)];

/// One epoch of a two-state Markov arrival stream in `regime`, drawn
/// from `rng`.
fn stream(rng: &mut Rng, regime: usize) -> Vec<u32> {
    let (p01, p11) = REGIMES[regime];
    let mut busy = false;
    (0..EPOCH_SLICES)
        .map(|_| {
            busy = rng.unit() < if busy { p11 } else { p01 };
            u32::from(busy)
        })
        .collect()
}

/// The regime of device `id` in `epoch`: fixed per device, switching
/// for every third device after epoch 5.
fn regime(id: DeviceId, epoch: usize) -> usize {
    let raw = id.raw() as usize;
    let shift = usize::from(epoch >= 5 && raw % 3 == 0);
    (raw + shift) % REGIMES.len()
}

/// A service with the disk, CPU and web-server classes and no devices.
fn service(workers: usize) -> (FleetService, Vec<ClassId>) {
    let config = FleetConfig::new()
        .adaptive(
            AdaptiveConfig::new()
                .memory(1)
                .smoothing(0.5)
                .horizon(2_000.0)
                .max_performance_penalty(0.5)
                .window(WindowKind::Sliding(2 * EPOCH_SLICES)),
        )
        .workers(workers)
        .cluster_divergence(0.08)
        .resolve_divergence(0.02)
        .quiet_divergence(0.01);
    let base = || ServiceRequester::two_state(0.1, 0.7).expect("valid base workload");
    let systems: Vec<SystemModel> = vec![
        disk::system_with_workload(base()).expect("disk system"),
        cpu::system_with_workload(base()).expect("cpu system"),
        web_server::system_with_workload(base()).expect("web server system"),
    ];
    let mut service = FleetService::new(config);
    let classes = systems
        .iter()
        .map(|system| service.register_class(system).expect("class registers"))
        .collect();
    (service, classes)
}

/// Checkpoints `service` and restores the bytes into a fresh service
/// with the same classes, which carries on from here.
fn hand_over(t: &mut Transcript, service: &mut FleetService, workers: usize) {
    let mut snapshot = Vec::new();
    service.checkpoint(&mut snapshot).expect("checkpoints");
    let (mut restored, _) = self::service(workers);
    let report = restored
        .restore(&mut snapshot.as_slice())
        .expect("the checkpoint restores");
    t.restore(&report);
    *service = restored;
}

fn churn_schedule(workers: usize) -> u64 {
    let mut rng = Rng(0x5EED_F1EE_7000_0001);
    let mut t = Transcript::new();
    let (mut service, classes) = service(workers);
    for k in 0..12 {
        service
            .add_device(classes[k % classes.len()])
            .expect("device adds");
    }
    for epoch in 0..14 {
        if epoch % 3 == 2 {
            let ids = service.device_ids().to_vec();
            let victim = ids[rng.below(ids.len())];
            service.remove_device(victim).expect("device removes");
            let class = classes[rng.below(classes.len())];
            service.add_device(class).expect("device adds");
        }
        let arrivals: Vec<(DeviceId, Vec<u32>)> = service
            .device_ids()
            .iter()
            .filter(|id| id.raw() % 7 != epoch as u64 % 7)
            .map(|&id| (id, stream(&mut rng, regime(id, epoch))))
            .collect();
        let report = service.run_epoch(&arrivals).expect("epoch runs");
        t.epoch(&service, &report);
        if epoch == 6 || epoch == 11 {
            hand_over(&mut t, &mut service, workers);
        }
    }
    t.hash
}

fn telemetry_schedule(workers: usize) -> u64 {
    let mut rng = Rng(0x5EED_7E1E_0000_0002);
    let mut t = Transcript::new();
    let (mut service, classes) = service(workers);
    for k in 0..9 {
        service
            .add_device(classes[k % classes.len()])
            .expect("device adds");
    }
    let ids = service.device_ids().to_vec();
    for epoch in 0..12 {
        let telemetry: Vec<(DeviceId, Vec<f64>)> = ids
            .iter()
            .map(|&id| {
                let mut raw: Vec<f64> = stream(&mut rng, regime(id, epoch))
                    .into_iter()
                    .map(f64::from)
                    .collect();
                // Device 4 reports garbage for three epochs running (a
                // quarantine); device 7 once (a strike that heals).
                let poisoned =
                    (id.raw() == 4 && (2..5).contains(&epoch)) || (id.raw() == 7 && epoch == 3);
                if poisoned {
                    let at = rng.below(raw.len());
                    raw[at] = [f64::NAN, -1.0, 0.5][epoch % 3];
                }
                (id, raw)
            })
            .collect();
        let report = service.run_epoch_telemetry(&telemetry).expect("epoch runs");
        t.epoch(&service, &report);
        if epoch == 5 {
            hand_over(&mut t, &mut service, workers);
        }
    }
    t.hash
}

#[test]
fn churn_transcript_is_pinned() {
    for workers in [1, 3] {
        assert_eq!(
            churn_schedule(workers),
            14_350_177_831_888_110_430,
            "at {workers} workers"
        );
    }
}

#[test]
fn telemetry_transcript_is_pinned() {
    for workers in [1, 3] {
        assert_eq!(
            telemetry_schedule(workers),
            13_861_992_420_780_228_414,
            "at {workers} workers"
        );
    }
}
