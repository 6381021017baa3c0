//! `fleet_calm` and `fleet_storm`: one caller issuing back-to-back
//! `FleetService::run_epoch` calls against about a thousand devices.
//!
//! Both workloads run the same maintenance cycle — a fixed number of
//! epochs (each preceded by a churn batch, if the workload churns),
//! then a checkpoint and a restore into a fresh service — and differ in
//! their device classes, their arrival streams and their churn:
//!
//! * `fleet_calm` — 1024 `racks` devices on periodic streams with a
//!   seeded per-device phase; one seeded rack surges per block of
//!   epochs. Calm epochs repeat each device's window counts exactly, so
//!   the quiet gate skips nearly every refit and `lp` solves only when
//!   a rack shifts. No churn.
//! * `fleet_storm` — 1026 `disk`/`cpu`/`web_server` devices on seeded
//!   stochastic bursty streams whose regime switches per device group
//!   every few epochs, with a remove+add batch before every epoch.
//!   Nearly every device refits every epoch.

use dpm_core::{ServiceRequester, SystemModel};
use dpm_runtime::{
    AdaptiveConfig, ClassId, DeviceId, FleetConfig, FleetReport, FleetService, RestoreReport,
};
use dpm_systems::{cpu, disk, racks, web_server};
use dpm_trace::generators::BurstyTraceGenerator;
use dpm_trace::WindowKind;

use crate::calib::{Meter, Timings};
use crate::report::{Layers, Outcome};
use crate::stats::{self, Rng, Tally};
use crate::Args;

/// Epochs run during set-up so every estimator window is full.
const WARMUP_EPOCHS: usize = 3;
/// Timed epochs `power_w` averages over — a fixed prefix, so the
/// figure does not depend on speed.
const POWER_EPOCHS: usize = 64;
/// Timed epochs every run completes whatever the deadline: enough for
/// `power_w` and for ten samples beyond the 90th percentile.
const MIN_EPOCHS: usize = 100;
/// Epochs replayed with the other worker count.
const REPLAY_EPOCHS: usize = 48;

/// One managed device as the benchmark loop sees it.
#[derive(Debug, Clone, Copy)]
struct Device {
    id: DeviceId,
    /// Index into [`Scenario::classes`].
    class: usize,
}

/// Additions and removals applied before one epoch.
#[derive(Debug, Default)]
struct Churn {
    /// Positions in the live-device list to remove, descending.
    remove: Vec<usize>,
    /// Classes of the devices to add.
    add: Vec<usize>,
}

/// What distinguishes the two fleet workloads.
trait Scenario {
    /// The device classes' systems.
    fn classes(&self) -> Result<Vec<SystemModel>, String>;
    /// The fleet configuration for `workers` threads.
    fn config(&self, workers: usize) -> FleetConfig;
    /// Classes of the devices present at start, in order.
    fn initial(&self) -> Vec<usize>;
    /// Epochs per maintenance cycle (then checkpoint + restore).
    fn cycle_epochs(&self) -> usize;
    /// The churn batch before `epoch`, given the classes of the live
    /// devices in order.
    fn churn(&self, epoch: usize, live: &[usize]) -> Churn;
    /// The arrival stream of every live device for `epoch`.
    fn arrivals(&self, epoch: usize, live: &[Device]) -> Vec<(DeviceId, Vec<u32>)>;
}

// ---------------------------------------------------------------------
// fleet_calm

/// Racks in the calm fleet.
const CALM_RACKS: usize = 16;
/// Devices per rack (16 × 64 = 1024 devices).
const CALM_PER_RACK: usize = 64;
/// Epochs per schedule block: one correlated rack shift per block.
const CALM_BLOCK: usize = 4;
/// Epochs per calm maintenance cycle.
const CALM_CYCLE: usize = 32;

struct Calm {
    /// Per-device phase of the periodic pattern.
    phase: Vec<usize>,
    /// The order racks surge in, block after block.
    order: Vec<usize>,
}

impl Calm {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let phase = (0..CALM_RACKS * CALM_PER_RACK)
            .map(|_| rng.below(racks::CALM.1))
            .collect();
        let order = rng.permutation(CALM_RACKS);
        Calm { phase, order }
    }

    /// The rack surging during `epoch` (none in block 0).
    fn surged(&self, epoch: usize) -> Option<usize> {
        let block = (epoch / CALM_BLOCK).checked_sub(1)?;
        self.order.get(block % CALM_RACKS).copied()
    }
}

impl Scenario for Calm {
    fn classes(&self) -> Result<Vec<SystemModel>, String> {
        Ok(vec![racks::system().map_err(|e| e.to_string())?])
    }

    fn config(&self, workers: usize) -> FleetConfig {
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
            .workers(workers)
    }

    fn initial(&self) -> Vec<usize> {
        vec![0; CALM_RACKS * CALM_PER_RACK]
    }

    fn cycle_epochs(&self) -> usize {
        CALM_CYCLE
    }

    fn churn(&self, _epoch: usize, _live: &[usize]) -> Churn {
        Churn::default()
    }

    fn arrivals(&self, epoch: usize, live: &[Device]) -> Vec<(DeviceId, Vec<u32>)> {
        let surged = self.surged(epoch);
        live.iter()
            .zip(&self.phase)
            .enumerate()
            .map(|(d, (device, &phase))| {
                let (density, period) = if surged == Some(d / CALM_PER_RACK) {
                    racks::SURGE
                } else {
                    racks::CALM
                };
                let stream = (0..racks::EPOCH_SLICES)
                    .map(|i| u32::from((phase + i) % period < density))
                    .collect();
                (device.id, stream)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// fleet_storm

/// Devices per class at start (3 × 342 = 1026 devices).
const STORM_PER_CLASS: usize = 342;
/// Arrival slices per storm epoch.
const STORM_SLICES: usize = 600;
/// Device groups per class; a group shares its regime.
const STORM_GROUPS: u64 = 6;
/// Epochs a group's regime holds before it switches.
const STORM_REGIME_EPOCHS: usize = 4;
/// Devices removed and added before every storm epoch.
const STORM_CHURN: usize = 8;
/// Epochs per storm maintenance cycle.
const STORM_CYCLE: usize = 8;

struct Storm {
    seed: u64,
}

impl Storm {
    /// The `(p_idle_to_busy, p_busy_to_busy)` regime of a device group
    /// during `epoch`. Groups switch on staggered epochs.
    fn regime(&self, class: usize, group: u64, epoch: usize) -> (f64, f64) {
        let phase = (epoch + group as usize) / STORM_REGIME_EPOCHS;
        let stream = ((class as u64) << 48) ^ (group << 32) ^ phase as u64;
        let mut rng = Rng::new(self.seed, stream);
        (rng.range(0.03, 0.3), rng.range(0.4, 0.9))
    }
}

impl Scenario for Storm {
    fn classes(&self) -> Result<Vec<SystemModel>, String> {
        let base = || ServiceRequester::two_state(0.1, 0.7).map_err(|e| e.to_string());
        Ok(vec![
            disk::system_with_workload(base()?).map_err(|e| e.to_string())?,
            cpu::system_with_workload(base()?).map_err(|e| e.to_string())?,
            web_server::system_with_workload(base()?).map_err(|e| e.to_string())?,
        ])
    }

    fn config(&self, workers: usize) -> FleetConfig {
        FleetConfig::new()
            .adaptive(
                AdaptiveConfig::new()
                    .memory(1)
                    .smoothing(0.5)
                    .horizon(2_000.0)
                    .window(WindowKind::Sliding(2 * STORM_SLICES)),
            )
            .cluster_divergence(0.08)
            .resolve_divergence(0.02)
            .quiet_divergence(0.0)
            .workers(workers)
    }

    fn initial(&self) -> Vec<usize> {
        (0..3)
            .flat_map(|class| std::iter::repeat_n(class, STORM_PER_CLASS))
            .collect()
    }

    fn cycle_epochs(&self) -> usize {
        STORM_CYCLE
    }

    /// Replaces seeded devices with fresh ones of the same classes, so
    /// the fleet's class mix stays fixed.
    fn churn(&self, epoch: usize, live: &[usize]) -> Churn {
        let mut rng = Rng::new(self.seed, 0x5EED_0000 ^ epoch as u64);
        let mut remove: Vec<usize> = rng
            .permutation(live.len())
            .into_iter()
            .take(STORM_CHURN)
            .collect();
        remove.sort_unstable_by(|a, b| b.cmp(a));
        let add = remove
            .iter()
            .filter_map(|&i| live.get(i).copied())
            .collect();
        Churn { remove, add }
    }

    fn arrivals(&self, epoch: usize, live: &[Device]) -> Vec<(DeviceId, Vec<u32>)> {
        live.iter()
            .map(|device| {
                let key = device.id.raw();
                let (p01, p11) = self.regime(device.class, key % STORM_GROUPS, epoch);
                let seed = Rng::new(self.seed, key ^ ((epoch as u64) << 40)).next_u64();
                let stream = BurstyTraceGenerator::new(p01, p11)
                    .seed(seed)
                    .generate(STORM_SLICES);
                (device.id, stream)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// The benchmark loop

/// A live service plus the benchmark loop's view of its devices.
struct Fleet {
    service: FleetService,
    classes: Vec<ClassId>,
    live: Vec<Device>,
}

/// When a drive stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// At the first cycle boundary this many seconds after set-up, once
    /// at least [`MIN_EPOCHS`] timed epochs have run.
    Seconds(u64),
    /// After exactly this many epochs past the warm-up.
    Epochs(usize),
}

/// Everything one drive measured.
#[derive(Debug, Default)]
struct Drive {
    /// The host's speed through the drive.
    meter: Meter,
    setups: Timings,
    /// Reports of every epoch, warm-up included, of the surviving
    /// service lineage.
    reports: Vec<FleetReport>,
    /// Milliseconds of every timed epoch, and the devices it adapted.
    epoch_ms: Timings,
    epoch_devices: Vec<usize>,
    cycle_ms: Timings,
    churn_ms: Vec<f64>,
    add_us: Vec<f64>,
    remove_us: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    restore_ms: Timings,
    snapshot_bytes: Vec<f64>,
    restores: Vec<RestoreReport>,
    /// Restored services whose next report differed from the original's.
    restore_mismatches: usize,
    /// Churn + epoch milliseconds of traced and untraced epochs (traced
    /// runs only).
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    tally: Tally,
}

/// A fresh service with the scenario's classes registered.
fn fresh(
    scenario: &dyn Scenario,
    systems: &[SystemModel],
    workers: usize,
) -> Result<(FleetService, Vec<ClassId>), String> {
    let mut service = FleetService::new(scenario.config(workers));
    let classes = systems
        .iter()
        .map(|s| {
            service
                .register_class(s)
                .map_err(|e| format!("register class: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((service, classes))
}

/// Set-up: register the classes, add the initial devices, run the
/// warm-up epochs. Returns the fleet and the warm-up reports.
fn set_up(
    scenario: &dyn Scenario,
    systems: &[SystemModel],
    workers: usize,
) -> Result<(Fleet, Vec<FleetReport>), String> {
    let (mut service, classes) = fresh(scenario, systems, workers)?;
    let mut live = Vec::new();
    for class in scenario.initial() {
        let handle = *classes
            .get(class)
            .ok_or("initial device of an unknown class")?;
        let id = service
            .add_device(handle)
            .map_err(|e| format!("add device: {e}"))?;
        live.push(Device { id, class });
    }
    let mut reports = Vec::with_capacity(WARMUP_EPOCHS);
    for epoch in 0..WARMUP_EPOCHS {
        let arrivals = scenario.arrivals(epoch, &live);
        let report = service
            .run_epoch(&arrivals)
            .map_err(|e| format!("warm-up epoch: {e}"))?;
        reports.push(report);
    }
    let fleet = Fleet {
        service,
        classes,
        live,
    };
    Ok((fleet, reports))
}

/// Times one set-up into `drive.setups`, after a fresh reading of the
/// host's speed.
fn timed_set_up(
    scenario: &dyn Scenario,
    systems: &[SystemModel],
    workers: usize,
    drive: &mut Drive,
) -> Result<(Fleet, Vec<FleetReport>), String> {
    drive.meter.read();
    let start = stats::now();
    let fleet = set_up(scenario, systems, workers)?;
    drive.setups.push(stats::ms_since(start), &drive.meter);
    Ok(fleet)
}

/// Counts one epoch's report into the tally.
fn count(tally: &mut Tally, report: &FleetReport) {
    tally.add(
        report.solves,
        report.errors + report.infeasible + report.holds,
    );
}

/// Runs the scenario: set-up, then maintenance cycles until `stop`.
/// Set-up is repeated `setups` times, half before the cycles and half
/// after them, so that `setup_s` sees two moments of the run; the
/// cycles run on the last fleet set up before them.
fn drive(
    scenario: &dyn Scenario,
    workers: usize,
    setups: usize,
    stop: Stop,
    trace: bool,
) -> Result<Drive, String> {
    let systems = scenario.classes()?;
    let mut drive = Drive::default();
    let mut fleet = None;
    for _ in 0..setups.div_ceil(2).max(1) {
        drop(fleet.take());
        fleet = Some(timed_set_up(scenario, &systems, workers, &mut drive)?);
    }
    let (mut fleet, reports) = fleet.ok_or("no set-up ran")?;
    drive.reports = reports;
    let deadline = match stop {
        Stop::Seconds(seconds) => Some(stats::deadline(seconds)),
        Stop::Epochs(_) => None,
    };
    let mut epoch = WARMUP_EPOCHS;
    // The pre-restore service, kept for one epoch to verify that the
    // restored one continues with the same report.
    let mut original: Option<FleetService> = None;
    loop {
        let timed = epoch - WARMUP_EPOCHS;
        let done = match stop {
            Stop::Epochs(n) => timed >= n,
            Stop::Seconds(_) => deadline.is_some_and(|d| stats::now() >= d) && timed >= MIN_EPOCHS,
        };
        if done {
            break;
        }
        let mut cycle_ms = 0.0;
        for _ in 0..scenario.cycle_epochs() {
            if matches!(stop, Stop::Epochs(n) if epoch - WARMUP_EPOCHS >= n) {
                break;
            }
            let traced = trace && epoch % 2 == 0;
            let churn_ms = churn(
                scenario,
                epoch,
                &mut fleet,
                &mut original,
                traced,
                &mut drive,
            );
            let arrivals = scenario.arrivals(epoch, &fleet.live);
            let (report, ms) = stats::timed(|| fleet.service.run_epoch(&arrivals));
            cycle_ms += churn_ms + ms;
            if trace {
                let units = if traced {
                    &mut drive.traced_ms
                } else {
                    &mut drive.untraced_ms
                };
                units.push(churn_ms + ms);
            }
            if let Some(report) = drive.tally.check("run_epoch", report) {
                count(&mut drive.tally, &report);
                drive.epoch_ms.push(ms, &drive.meter);
                drive.epoch_devices.push(report.devices);
                if let Some(mut before) = original.take() {
                    let expected = before.run_epoch(&arrivals).map_err(|e| e.to_string());
                    if !expected.is_ok_and(|e| same_decisions(&e, &report)) {
                        drive.restore_mismatches += 1;
                    }
                }
                drive.reports.push(report);
            }
            epoch += 1;
            drive.meter.tick();
        }
        cycle_ms += checkpoint_restore(
            scenario,
            &systems,
            workers,
            &mut fleet,
            &mut original,
            &mut drive,
        )?;
        drive.cycle_ms.push(cycle_ms, &drive.meter);
        drive.meter.tick();
    }
    for _ in 0..setups / 2 {
        timed_set_up(scenario, &systems, workers, &mut drive)?;
    }
    Ok(drive)
}

/// Whether a restored service's report matches the uninterrupted
/// service's. Every field must be equal except two: `symbolic_reuses`
/// (a replayed cluster session may count one symbolic-LU reuse more or
/// less than the session it replaces) and `mean_power`, which must
/// agree to 1e-12 relative (a replayed solve can round its policy's
/// power differently in the last bits). Neither changes a decision.
fn same_decisions(uninterrupted: &FleetReport, restored: &FleetReport) -> bool {
    let mut restored = restored.clone();
    restored.symbolic_reuses = uninterrupted.symbolic_reuses;
    if let (Some(a), Some(b)) = (uninterrupted.mean_power, restored.mean_power) {
        if (a - b).abs() <= 1e-12 * a.abs().max(1.0) {
            restored.mean_power = uninterrupted.mean_power;
        }
    }
    *uninterrupted == restored
}

/// Applies the churn batch before `epoch`, and then the same batch to
/// the service being verified, if any; returns the live service's
/// milliseconds. A traced epoch also times each call.
fn churn(
    scenario: &dyn Scenario,
    epoch: usize,
    fleet: &mut Fleet,
    original: &mut Option<FleetService>,
    traced: bool,
    drive: &mut Drive,
) -> f64 {
    let classes: Vec<usize> = fleet.live.iter().map(|d| d.class).collect();
    let batch = scenario.churn(epoch, &classes);
    if batch.remove.is_empty() && batch.add.is_empty() {
        return 0.0;
    }
    let mut removed = Vec::with_capacity(batch.remove.len());
    let mut added = Vec::with_capacity(batch.add.len());
    let start = stats::now();
    for position in batch.remove {
        if position >= fleet.live.len() {
            continue;
        }
        let device = fleet.live.remove(position);
        let result = if traced {
            let (result, ms) = stats::timed(|| fleet.service.remove_device(device.id));
            drive.remove_us.push(ms * 1e3);
            result
        } else {
            fleet.service.remove_device(device.id)
        };
        drive.tally.check("remove_device", result);
        removed.push(device.id);
    }
    for class in batch.add {
        let Some(&handle) = fleet.classes.get(class) else {
            continue;
        };
        let result = if traced {
            let (result, ms) = stats::timed(|| fleet.service.add_device(handle));
            drive.add_us.push(ms * 1e3);
            result
        } else {
            fleet.service.add_device(handle)
        };
        if let Some(id) = drive.tally.check("add_device", result) {
            fleet.live.push(Device { id, class });
            added.push((handle, id));
        }
    }
    let ms = stats::ms_since(start);
    drive.churn_ms.push(ms);

    if let Some(before) = original.as_mut() {
        for id in removed {
            drive.tally.check("remove_device", before.remove_device(id));
        }
        for (handle, id) in added {
            if drive.tally.check("add_device", before.add_device(handle)) != Some(id) {
                drive.restore_mismatches += 1;
            }
        }
    }
    ms
}

/// Checkpoints the live service and restores the snapshot into a
/// fresh one, which takes over; the old service is kept in `original`
/// to verify the next epoch. Returns the timed milliseconds.
fn checkpoint_restore(
    scenario: &dyn Scenario,
    systems: &[SystemModel],
    workers: usize,
    fleet: &mut Fleet,
    original: &mut Option<FleetService>,
    drive: &mut Drive,
) -> Result<f64, String> {
    let mut snapshot = Vec::new();
    let (written, checkpoint_ms) = stats::timed(|| fleet.service.checkpoint(&mut snapshot));
    if drive.tally.check("checkpoint", written).is_none() {
        return Ok(checkpoint_ms);
    }
    let (mut restored, classes) = fresh(scenario, systems, workers)?;
    let (report, restore_ms) = stats::timed(|| restored.restore(&mut snapshot.as_slice()));
    let Some(report) = drive.tally.check("restore", report) else {
        return Ok(checkpoint_ms + restore_ms);
    };
    if classes != fleet.classes {
        return Err("restored service registered different class ids".to_string());
    }
    drive.checkpoint_ms.push(checkpoint_ms);
    drive.restore_ms.push(restore_ms, &drive.meter);
    drive.snapshot_bytes.push(snapshot.len() as f64);
    drive.restores.push(report);
    *original = Some(std::mem::replace(&mut fleet.service, restored));
    Ok(checkpoint_ms + restore_ms)
}

/// Runs a fleet workload: the timed drive, then the replay of its
/// prefix with the other worker count.
fn run(args: &Args, scenario: &dyn Scenario) -> Result<Outcome, String> {
    let workers = crate::WORKERS;
    let main = drive(
        scenario,
        workers,
        stats::SETUPS,
        Stop::Seconds(args.seconds),
        args.trace,
    )?;
    // The workload's footprint, before the replay gate builds a fleet
    // of its own.
    let peak_rss_mb = stats::peak_rss_mb()?;
    let other = if workers > 1 { 1 } else { 2 };
    let replay = drive(scenario, other, 1, Stop::Epochs(REPLAY_EPOCHS), false)?;

    let prefix = WARMUP_EPOCHS + REPLAY_EPOCHS;
    let replay_agrees = main.reports.get(..prefix) == replay.reports.get(..prefix);
    if !replay_agrees {
        eprintln!("perfbench: replay with {other} worker(s) diverged from the timed run");
    }
    if main.restore_mismatches + replay.restore_mismatches > 0 {
        eprintln!("perfbench: a restored service diverged from the uninterrupted one");
    }
    let correct = replay_agrees
        && main.restore_mismatches == 0
        && replay.restore_mismatches == 0
        && !main.restore_ms.is_empty();

    let mut tally = main.tally;
    tally.add(
        replay.tally.attempted as usize,
        replay.tally.failed as usize,
    );
    let mut out = Outcome::new(correct, tally);
    let timed = main.reports.get(WARMUP_EPOCHS..).unwrap_or(&[]);
    let power: Vec<f64> = timed
        .iter()
        .take(POWER_EPOCHS)
        .filter_map(|r| r.mean_power)
        .collect();
    let meter = &main.meter;
    let epoch_ms = main.epoch_ms.scaled(meter);
    // Devices adapted per second of each epoch.
    let rates: Vec<f64> = main
        .epoch_devices
        .iter()
        .zip(&epoch_ms)
        .map(|(&devices, ms)| devices as f64 / (ms / 1e3))
        .collect();
    out.setup(&main.setups, meter);
    out.timing("step_ms.p50", &epoch_ms);
    out.timing("cycle_ms.p50", &main.cycle_ms.scaled(meter));
    out.timing("first_policy_ms.p50", &main.restore_ms.scaled(meter));
    out.e2e("decisions_per_s", stats::median(&rates));
    out.e2e("peak_rss_mb", Some(peak_rss_mb));
    out.e2e(
        "power_w",
        (power.len() == POWER_EPOCHS.min(timed.len())).then(|| stats::mean(&power)),
    );

    let mut layers = Layers::with_meter(meter);
    layers.p90("step_ms.p90", &epoch_ms);
    let per_epoch = |f: fn(&FleetReport) -> usize| timed.iter().map(move |r| f(r) as f64);
    layers.mean("trace.gauge_refits", per_epoch(|r| r.gauge_refits));
    layers.mean("trace.gauge_skips", per_epoch(|r| r.gauge_skips));
    let skips: f64 = per_epoch(|r| r.gauge_skips).sum();
    let refits: f64 = per_epoch(|r| r.gauge_refits).sum();
    layers.set("trace.skip_ratio", skips / (skips + refits).max(1.0));
    layers.mean("runtime.clusters", per_epoch(|r| r.clusters));
    layers.mean("runtime.evictions", per_epoch(|r| r.evictions));
    let solves: f64 = per_epoch(|r| r.solves).sum();
    let held: f64 = per_epoch(|r| r.skipped).sum();
    layers.set("runtime.solve_ratio", solves / (solves + held).max(1.0));
    layers.mean("lp.warm_reloads", per_epoch(|r| r.warm_reloads));
    layers.mean("lp.cold_reloads", per_epoch(|r| r.cold_reloads));
    layers.mean("lp.pivots", per_epoch(|r| r.pivots));
    layers.mean("lp.symbolic_reuses", per_epoch(|r| r.symbolic_reuses));
    layers.set("runtime.errors", per_epoch(|r| r.errors).sum());
    layers.set("runtime.infeasible", per_epoch(|r| r.infeasible).sum());
    layers.set("runtime.holds", per_epoch(|r| r.holds).sum());
    layers.median("runtime.add_device_us", main.add_us.iter().copied());
    layers.median("runtime.remove_device_us", main.remove_us.iter().copied());
    layers.median("runtime.churn_ms", main.churn_ms.iter().copied());
    layers.median("runtime.checkpoint_ms", main.checkpoint_ms.iter().copied());
    layers.median("runtime.restore_ms", main.restore_ms.raw());
    layers.median(
        "runtime.snapshot_bytes",
        main.snapshot_bytes.iter().copied(),
    );
    layers.mean(
        "runtime.replayed_solves",
        main.restores.iter().map(|r| r.replayed_solves as f64),
    );
    layers.mean(
        "runtime.replay_pivots",
        main.restores.iter().map(|r| r.pivots as f64),
    );
    if let (Some(traced), Some(untraced)) = (
        stats::median(&main.traced_ms),
        stats::median(&main.untraced_ms),
    ) {
        layers.set("tracing.overhead_ms", traced - untraced);
    }
    out.layers = layers;
    Ok(out)
}

/// The `fleet_calm` workload.
pub fn run_calm(args: &Args) -> Result<Outcome, String> {
    run(args, &Calm::new(args.seed))
}

/// The `fleet_storm` workload.
pub fn run_storm(args: &Args) -> Result<Outcome, String> {
    run(args, &Storm { seed: args.seed })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_surges_one_rack_per_block() {
        let calm = Calm::new(3);
        assert_eq!(calm.surged(0), None);
        assert_eq!(calm.surged(CALM_BLOCK - 1), None);
        let first = calm.surged(CALM_BLOCK);
        assert!(first.is_some());
        assert_eq!(calm.surged(2 * CALM_BLOCK - 1), first);
        assert_ne!(calm.surged(2 * CALM_BLOCK), first);
    }

    #[test]
    fn storm_inputs_follow_the_seed() {
        let a = Storm { seed: 1 };
        let b = Storm { seed: 2 };
        assert_eq!(a.regime(0, 1, 5), a.regime(0, 1, 5));
        assert_ne!(a.regime(0, 1, 5), b.regime(0, 1, 5));
        let classes: Vec<usize> = (0..40).map(|i| i % 3).collect();
        let churn = a.churn(3, &classes);
        let mut added = churn.add.clone();
        let mut removed: Vec<usize> = churn.remove.iter().map(|&i| classes[i]).collect();
        added.sort_unstable();
        removed.sort_unstable();
        assert_eq!(added, removed, "churn keeps the class mix");
        assert_eq!(churn.remove.len(), STORM_CHURN);
        assert!(churn.remove.windows(2).all(|w| w[0] > w[1]));
    }

    /// A short drive of each workload passes its own gates: the replay
    /// with another worker count and every restore agree bit for bit.
    #[test]
    fn short_drives_are_deterministic() {
        for scenario in [&Calm::new(9) as &dyn Scenario, &Storm { seed: 9 }] {
            let one = drive(scenario, 1, 3, Stop::Epochs(20), true).unwrap();
            let two = drive(scenario, 2, 1, Stop::Epochs(20), false).unwrap();
            assert_eq!(one.reports, two.reports);
            assert_eq!((one.setups.len(), two.setups.len()), (3, 1));
            assert_eq!(one.restore_mismatches + two.restore_mismatches, 0);
            assert!(!one.restore_ms.is_empty());
            assert_eq!(one.tally.failed, 0);
        }
    }
}
