//! A **hostile** fleet scenario: a scripted fault campaign with a known
//! safe outcome — the robustness counterpart of the [`racks`] scenario.
//!
//! Where [`racks`] stresses the fleet controller's *clustering*
//! machinery, this scenario stresses its *containment* machinery. The
//! campaign has three deterministic phases:
//!
//! 1. **Warmup** ([`WARMUP_EPOCHS`] epochs): every device runs the
//!    [`CALM`] pattern; the fleet converges to one calm cluster per
//!    class with a single solved policy.
//! 2. **Fault window** ([`FAULT_EPOCHS`] epochs): two independent
//!    failure modes land at once.
//!    * The **victim rack** (rack [`VICTIM_RACK`]) emits *corrupted
//!      telemetry* — NaN, infinite, negative, and non-integral arrival
//!      counts injected into otherwise-calm streams. Ingest screening
//!      must reject every poisoned stream, strike the victims, and
//!      quarantine them onto their last-good policy.
//!    * The **stressed rack** (rack [`STRESSED_RACK`]) shifts to the
//!      [`STORM`] pattern, forcing cluster eviction and fresh solves —
//!      exactly while the harness has armed deterministic solver
//!      faults (seed [`FAULT_SEED`], budget-exhaustion rate
//!      [`EXHAUST_RATE`]; `crates/runtime/tests/fault_injection.rs`
//!      maps these onto `dpm-lp`'s fault plan). The storm model needs more pivots than the warm ladder
//!      rungs absorb under an exhausted budget, so the cluster rides
//!      the escalation ladder into held epochs with backoff.
//! 3. **Recovery** ([`RECOVERY_EPOCHS`] epochs): corruption stops and
//!    the faults disarm. The victims sit out probation and are
//!    readmitted; the stressed rack settles on the [`MILD`] pattern,
//!    whose clean solve clears the strikes its holds accrued. The
//!    fleet must end 100% healthy.
//!
//! Every pattern's period divides [`EPOCH_SLICES`], so clean streams
//! are exactly periodic across epochs and the end state is
//! reproducible bit for bit: a campaign run and a never-faulted run of
//! the same schedule must converge to **identical** policies, because
//! quarantine holds the victims' estimators still and readmission
//! re-homes them into a cluster solved from the same fit along the
//! same deterministic path.
//!
//! Compose the system with [`system`], drive epochs with
//! [`HostileSchedule::epoch_telemetry`] (the `hostile` flag switches
//! between the campaign and its clean control run), and window the
//! solver faults with [`HostileSchedule::fault_window`].
//!
//! [`racks`]: crate::racks

use dpm_core::{DpmError, ServiceRequester, SystemModel};

use crate::{drifting, racks};

/// Racks in the default schedule: one victim, one stressed.
pub const RACKS: usize = 2;

/// Devices per rack in the default schedule (8 devices total).
pub const DEVICES_PER_RACK: usize = 4;

/// Arrival slices per adaptation epoch (shared with [`racks`]). All
/// three regime periods divide this, so clean streams repeat exactly
/// epoch over epoch.
pub const EPOCH_SLICES: usize = racks::EPOCH_SLICES;

/// Epochs of all-calm warmup before the fault window opens.
pub const WARMUP_EPOCHS: usize = 3;

/// Length of the fault window: corrupted telemetry on the victim rack,
/// the [`STORM`] regime (and armed solver faults) on the stressed one.
/// Long enough that the victims' per-epoch strikes cross the default
/// quarantine threshold *and* their probation elapses before it ends.
pub const FAULT_EPOCHS: usize = 5;

/// Epochs of clean running after the window, during which quarantined
/// devices are readmitted and held clusters solve their way clean.
pub const RECOVERY_EPOCHS: usize = 8;

/// The rack whose telemetry is corrupted during the fault window.
pub const VICTIM_RACK: usize = 0;

/// The rack that shifts regimes while solver faults are armed.
pub const STRESSED_RACK: usize = 1;

/// Memory of the scenario's k-memory SR models (2 states).
pub const MEMORY: u32 = drifting::MEMORY;

/// Laplace smoothing of every fit (keeps transition support stable).
pub const SMOOTHING: f64 = drifting::SMOOTHING;

/// The calm pattern `(density, period)` — same as [`racks::CALM`].
pub const CALM: (usize, usize) = racks::CALM;

/// The storm pattern `(density, period)`: 7 busy slices in 8 (~88%
/// load). Its constrained LP sits far enough from the class base that
/// a fresh cluster fork needs more pivots than the warm ladder rungs
/// absorb — under an exhausted budget the solve deterministically
/// escalates to a held epoch.
pub const STORM: (usize, usize) = (7, 8);

/// The mild pattern `(density, period)` the stressed rack settles on
/// after the window — same as [`racks::SURGE`]. Distinct from both
/// [`CALM`] and [`STORM`], so recovery forces one clean re-cluster and
/// one clean solve (the solve that clears the holds' strikes).
pub const MILD: (usize, usize) = racks::SURGE;

/// Seed for the deterministic solver-fault plan armed during the fault
/// window. The scenario only *names* the seed; the fault-injection
/// tests (`crates/runtime/tests/fault_injection.rs`) build the actual
/// `dpm-lp` fault plan from it so this crate stays solver-free.
pub const FAULT_SEED: u64 = 0x0DAC_1998;

/// Budget-exhaustion rate of the windowed fault plan: every armed
/// solve runs out of pivots.
pub const EXHAUST_RATE: f64 = 1.0;

/// Poisoned slices injected per corrupted stream. Each value is drawn
/// from a cycle of NaN / +inf / negative / non-integral, so a single
/// campaign exercises every rejection class in the ingest screen.
pub const CORRUPT_SLICES: usize = 4;

/// The deterministic three-phase fault-campaign schedule (see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostileSchedule {
    racks: usize,
    devices_per_rack: usize,
    warmup: usize,
    fault_epochs: usize,
    recovery: usize,
}

impl Default for HostileSchedule {
    fn default() -> Self {
        Self::new()
    }
}

impl HostileSchedule {
    /// The default campaign: [`RACKS`] × [`DEVICES_PER_RACK`] devices,
    /// [`WARMUP_EPOCHS`] + [`FAULT_EPOCHS`] + [`RECOVERY_EPOCHS`]
    /// epochs.
    pub fn new() -> Self {
        HostileSchedule {
            racks: RACKS,
            devices_per_rack: DEVICES_PER_RACK,
            warmup: WARMUP_EPOCHS,
            fault_epochs: FAULT_EPOCHS,
            recovery: RECOVERY_EPOCHS,
        }
    }

    /// A custom campaign shape. Rack 0 is always the victim rack and
    /// rack 1 the stressed rack, so at least two racks are required.
    ///
    /// # Errors
    ///
    /// [`DpmError::BadConfiguration`] when fewer than two racks are
    /// requested or any dimension is zero.
    pub fn custom(
        racks: usize,
        devices_per_rack: usize,
        warmup: usize,
        fault_epochs: usize,
        recovery: usize,
    ) -> Result<Self, DpmError> {
        if racks < 2 || devices_per_rack == 0 || warmup == 0 || fault_epochs == 0 || recovery == 0 {
            return Err(DpmError::BadConfiguration {
                reason: format!(
                    "hostile schedule needs >= 2 racks and nonzero dimensions, got \
                     {racks} racks x {devices_per_rack} devices, phases \
                     {warmup}+{fault_epochs}+{recovery}"
                ),
            });
        }
        Ok(HostileSchedule {
            racks,
            devices_per_rack,
            warmup,
            fault_epochs,
            recovery,
        })
    }

    /// Devices in the whole schedule.
    pub fn devices(&self) -> usize {
        self.racks * self.devices_per_rack
    }

    /// Total campaign length in epochs.
    pub fn total_epochs(&self) -> usize {
        self.warmup + self.fault_epochs + self.recovery
    }

    /// The rack device `device` sits in (devices are laid out rack by
    /// rack).
    pub fn rack_of(&self, device: usize) -> usize {
        device / self.devices_per_rack
    }

    /// The epoch range during which telemetry is corrupted and solver
    /// faults should be armed.
    pub fn fault_window(&self) -> std::ops::Range<usize> {
        self.warmup..self.warmup + self.fault_epochs
    }

    /// Whether `epoch` falls inside the fault window.
    pub fn is_fault_epoch(&self, epoch: usize) -> bool {
        self.fault_window().contains(&epoch)
    }

    /// Whether the campaign corrupts `device`'s telemetry during
    /// `epoch` (victim-rack devices, fault window only).
    pub fn is_corrupted(&self, device: usize, epoch: usize) -> bool {
        self.rack_of(device) == VICTIM_RACK && self.is_fault_epoch(epoch)
    }

    /// The `(density, period)` pattern underlying `device`'s stream
    /// during `epoch`. The victim rack is calm throughout (its faults
    /// are injected on top of the clean stream); the stressed rack
    /// runs calm → storm → mild across the three phases.
    pub fn regime(&self, device: usize, epoch: usize) -> (usize, usize) {
        if self.rack_of(device) != STRESSED_RACK || epoch < self.warmup {
            CALM
        } else if self.is_fault_epoch(epoch) {
            STORM
        } else {
            MILD
        }
    }

    /// The telemetry streams of one epoch, one [`EPOCH_SLICES`]-slice
    /// float stream per device. With `hostile` set, victim-rack
    /// streams inside the fault window carry [`CORRUPT_SLICES`]
    /// poisoned values (NaN / +inf / negative / non-integral) at
    /// deterministic, device- and epoch-dependent positions; without
    /// it the same schedule plays back clean — the control run the
    /// campaign's end state is compared against.
    pub fn epoch_telemetry(&self, epoch: usize, hostile: bool) -> Vec<Vec<f64>> {
        (0..self.devices())
            .map(|d| {
                let (density, period) = self.regime(d, epoch);
                let mut stream: Vec<f64> = (0..EPOCH_SLICES)
                    .map(|i| f64::from(u8::from((d + i) % period < density)))
                    .collect();
                if hostile && self.is_corrupted(d, epoch) {
                    for j in 0..CORRUPT_SLICES {
                        let slice = (13 * d + 7 * epoch + 131 * j) % EPOCH_SLICES;
                        stream[slice] = match j % 4 {
                            0 => f64::NAN,
                            1 => f64::INFINITY,
                            2 => -3.0,
                            _ => 0.5,
                        };
                    }
                }
                stream
            })
            .collect()
    }
}

/// The scenario system: the same one class as the [`racks`] scenario,
/// so campaign results are comparable with the rack-shift and churn runs
/// of `crates/runtime/tests/fleet_service.rs`.
///
/// # Errors
///
/// Propagates composition failures (never fails in practice).
pub fn system() -> Result<SystemModel, DpmError> {
    system_for(ServiceRequester::two_state(0.1, 0.6)?)
}

/// Composes the scenario system around an arbitrary
/// (2^[`MEMORY`])-state requester.
///
/// # Errors
///
/// Propagates composition failures.
pub fn system_for(sr: ServiceRequester) -> Result<SystemModel, DpmError> {
    drifting::system_for(sr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_trace::screen_arrivals;

    #[test]
    fn phases_partition_the_campaign() {
        let schedule = HostileSchedule::new();
        assert_eq!(schedule.devices(), RACKS * DEVICES_PER_RACK);
        assert_eq!(
            schedule.total_epochs(),
            WARMUP_EPOCHS + FAULT_EPOCHS + RECOVERY_EPOCHS
        );
        let window = schedule.fault_window();
        assert_eq!(window, WARMUP_EPOCHS..WARMUP_EPOCHS + FAULT_EPOCHS);
        for epoch in 0..schedule.total_epochs() {
            assert_eq!(schedule.is_fault_epoch(epoch), window.contains(&epoch));
        }
        // The stressed rack walks calm -> storm -> mild; the victim
        // rack never changes regime.
        let stressed = STRESSED_RACK * DEVICES_PER_RACK;
        assert_eq!(schedule.regime(stressed, 0), CALM);
        assert_eq!(schedule.regime(stressed, window.start), STORM);
        assert_eq!(schedule.regime(stressed, window.end), MILD);
        for epoch in 0..schedule.total_epochs() {
            assert_eq!(schedule.regime(0, epoch), CALM);
        }
    }

    #[test]
    fn corruption_hits_only_the_victim_rack_inside_the_window() {
        let schedule = HostileSchedule::new();
        for epoch in 0..schedule.total_epochs() {
            let clean = schedule.epoch_telemetry(epoch, false);
            let hostile = schedule.epoch_telemetry(epoch, true);
            for d in 0..schedule.devices() {
                let differs = clean[d]
                    .iter()
                    .zip(&hostile[d])
                    .any(|(a, b)| a.to_bits() != b.to_bits());
                assert_eq!(
                    differs,
                    schedule.is_corrupted(d, epoch),
                    "device {d} epoch {epoch}"
                );
            }
        }
    }

    #[test]
    fn the_ingest_screen_rejects_every_poisoned_stream() {
        let schedule = HostileSchedule::new();
        for epoch in schedule.fault_window() {
            for (d, stream) in schedule.epoch_telemetry(epoch, true).iter().enumerate() {
                let screened = screen_arrivals(stream);
                if schedule.is_corrupted(d, epoch) {
                    assert!(screened.is_err(), "device {d} epoch {epoch} passed");
                } else {
                    assert!(screened.is_ok(), "device {d} epoch {epoch} rejected");
                }
            }
        }
    }

    #[test]
    fn clean_streams_are_periodic_and_the_system_composes() {
        let schedule = HostileSchedule::new();
        for (density, period) in [CALM, STORM, MILD] {
            assert_eq!(EPOCH_SLICES % period, 0);
            assert!(density < period);
        }
        // Within a phase, clean streams replay exactly.
        for epoch in [1, WARMUP_EPOCHS + 1, WARMUP_EPOCHS + FAULT_EPOCHS + 1] {
            assert_eq!(
                schedule.epoch_telemetry(epoch, false),
                schedule.epoch_telemetry(epoch + 1, false),
                "epoch {epoch} should replay"
            );
        }
        let system = system().unwrap();
        assert_eq!(system.requester().num_states(), 1 << MEMORY);
        assert!(HostileSchedule::custom(1, 4, 1, 1, 1).is_err());
        assert!(HostileSchedule::custom(2, 0, 1, 1, 1).is_err());
    }
}
