//! The fleet as a **long-running service**: device churn, incremental
//! cluster maintenance and checkpoint/restore on top of
//! [`FleetController`].
//!
//! [`FleetController`] is a batch object — its population is fixed when
//! the classes are added, and all estimator/cluster state dies with the
//! process. A production power manager faces a different lifecycle:
//! devices arrive and leave while the manager runs, whole racks shift
//! workload in correlated waves, and the process hosting the manager
//! restarts. [`FleetService`] closes that gap:
//!
//! * **churn** — [`FleetService::add_device`] /
//!   [`FleetService::remove_device`] /
//!   [`FleetService::register_class`] operate on a *live* fleet. A new
//!   device reuses its class's prepared base session and symbolic LU
//!   analysis as-is (nothing is re-prepared, no LP is solved on
//!   arrival) and is homed into an existing cluster — or seeds a fresh
//!   one via a forked session — once its estimator window fills. A
//!   removal evicts the device from its cluster and garbage-collects
//!   the cluster if it was the last member. Devices are addressed by
//!   stable [`DeviceId`]s that survive removals and are never reused;
//!   the controller's dense indices stay an implementation detail.
//! * **incremental gauge** — with
//!   [`FleetConfig::quiet_divergence`](crate::FleetConfig::quiet_divergence)
//!   set, a device whose windowed counts did not materially move since
//!   its last fit skips the epoch's fit/gauge recomputation entirely
//!   (a dirty-flag check on the raw count table,
//!   [`WindowedEstimator::count_drift`](dpm_trace::WindowedEstimator::count_drift)),
//!   so quiet epochs cost ~nothing beyond feeding the window. The
//!   skip/refit split is reported per epoch in
//!   [`FleetReport::gauge_skips`] / [`FleetReport::gauge_refits`].
//! * **checkpoint/restore** — [`FleetService::checkpoint`] serializes
//!   the full adaptive state (estimator counts, fitted models, cluster
//!   membership, active policies, event-gate cooldowns) into a
//!   versioned binary snapshot; [`FleetService::restore`] rebuilds a
//!   service from it, replaying at most **one warm solve per
//!   previously-solved cluster** to rehydrate the LP sessions — no
//!   cold-solve storm — after which the next epoch's [`FleetReport`]
//!   is bit-identical to an uninterrupted run's. The format is
//!   described in [`snapshot`] and `docs/FLEET.md`.
//!
//! # Example
//!
//! ```
//! use dpm_runtime::{AdaptiveConfig, FleetConfig, FleetService};
//! use dpm_systems::drifting;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = FleetConfig::new()
//!     .adaptive(
//!         AdaptiveConfig::new()
//!             .memory(drifting::MEMORY)
//!             .smoothing(drifting::SMOOTHING)
//!             .horizon(drifting::HORIZON),
//!     )
//!     .quiet_divergence(0.0);
//! let mut service = FleetService::new(config);
//! let class = service.register_class(&drifting::blended_system(7)?)?;
//! let a = service.add_device(class)?;
//! let b = service.add_device(class)?;
//! let trace = drifting::workload(500, 7);
//! let report = service.run_epoch(&[(a, trace.clone()), (b, trace)])?;
//! assert_eq!(report.devices, 2);
//!
//! // Snapshot the live state, remove a device, keep running.
//! let mut snapshot = Vec::new();
//! service.checkpoint(&mut snapshot)?;
//! service.remove_device(a)?;
//! assert_eq!(service.devices(), 1);
//! # Ok(())
//! # }
//! ```

pub mod snapshot;

use std::fmt;
use std::io::{Read, Write};
use std::sync::Arc;

use dpm_core::{DpmError, ServiceRequester, SystemModel};
use dpm_mdp::RandomizedPolicy;

use crate::fleet::{DeviceHealth, FleetConfig, FleetController, FleetReport};

pub use snapshot::{RestoreReport, SnapshotError};

/// Stable handle of a managed device. Ids are allocated monotonically
/// by [`FleetService::add_device`] and **never reused**: removing a
/// device retires its id for the lifetime of the service, and a
/// re-added device gets a fresh one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub(crate) u64);

impl DeviceId {
    /// The raw id value (stable across churn and snapshots).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "device#{}", self.0)
    }
}

/// Handle of a registered device class (classes cannot be retired).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub(crate) usize);

impl ClassId {
    /// The raw class index.
    pub fn raw(self) -> usize {
        self.0
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// A long-running fleet: [`FleetController`] plus stable device
/// identity, runtime churn and checkpoint/restore (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct FleetService {
    pub(crate) controller: FleetController,
    /// `ids[i]` is the id of the controller's device index `i`
    /// (ascending — ids are allocated monotonically and removals
    /// preserve order — so an id's index is found by binary search).
    pub(crate) ids: Vec<DeviceId>,
    /// Next id to allocate; never decreases.
    pub(crate) next_id: u64,
}

impl FleetService {
    /// An empty service with the given fleet configuration.
    pub fn new(config: FleetConfig) -> Self {
        FleetService {
            controller: FleetController::new(config),
            ids: Vec::new(),
            next_id: 0,
        }
    }

    /// The controller's device index of `id` (`None` for an unknown or
    /// retired id).
    fn position(&self, id: DeviceId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Registers a device class at runtime — the class problem is
    /// prepared and solved once (the shared symbolic LU analysis and
    /// base policy every future member starts from), no devices are
    /// created.
    ///
    /// # Errors
    ///
    /// Same validation as [`FleetController::add_class`].
    pub fn register_class(&mut self, system: &SystemModel) -> Result<ClassId, DpmError> {
        self.controller.add_class(system, 0).map(ClassId)
    }

    /// Adds one device of `class` to the live fleet and returns its
    /// stable id. Reuses the class's prepared base session — nothing is
    /// re-prepared and no LP is solved (see
    /// [`FleetController::add_device`]).
    ///
    /// # Errors
    ///
    /// [`DpmError::BadConfiguration`] for an unknown class.
    pub fn add_device(&mut self, class: ClassId) -> Result<DeviceId, DpmError> {
        self.controller.add_device(class.0)?;
        let id = DeviceId(self.next_id);
        self.next_id += 1;
        self.ids.push(id);
        Ok(id)
    }

    /// Removes a device from the live fleet, evicting it from its
    /// cluster (the cluster is garbage-collected if this was its last
    /// member; see [`FleetController::remove_device`]). The id is
    /// retired — re-adding the device later yields a fresh id and this
    /// one is rejected forever after.
    ///
    /// # Errors
    ///
    /// [`DpmError::BadConfiguration`] for an unknown or retired id.
    pub fn remove_device(&mut self, id: DeviceId) -> Result<(), DpmError> {
        let Some(idx) = self.position(id) else {
            return Err(DpmError::BadConfiguration {
                reason: format!("{id} is unknown or already removed"),
            });
        };
        self.controller.remove_device(idx)?;
        self.ids.remove(idx);
        Ok(())
    }

    /// One adaptation epoch over the live fleet. `arrivals` pairs
    /// device ids with their 0/1 request streams; devices not listed
    /// observe an empty stream this epoch (their estimators idle at
    /// their current window). Delegates to
    /// [`FleetController::run_epoch`] — same five phases, same
    /// bit-identical-for-any-worker-count guarantee.
    ///
    /// # Errors
    ///
    /// [`DpmError::BadConfiguration`] for an unknown/retired id or a
    /// duplicate entry; per-cluster solve failures stay local exactly
    /// as in [`FleetController::run_epoch`].
    pub fn run_epoch(
        &mut self,
        arrivals: &[(DeviceId, Vec<u32>)],
    ) -> Result<FleetReport, DpmError> {
        let mut dense: Vec<&[u32]> = vec![&[]; self.ids.len()];
        let mut seen = vec![false; self.ids.len()];
        for (id, stream) in arrivals {
            let Some(idx) = self.position(*id) else {
                return Err(DpmError::BadConfiguration {
                    reason: format!("epoch arrivals address {id}, which is unknown or removed"),
                });
            };
            if seen[idx] {
                return Err(DpmError::BadConfiguration {
                    reason: format!("epoch arrivals list {id} twice"),
                });
            }
            seen[idx] = true;
            dense[idx] = stream;
        }
        self.controller.run_epoch(&dense)
    }

    /// One adaptation epoch fed with **raw telemetry** instead of
    /// pre-validated 0/1 streams: each device's stream of per-slice
    /// arrival counts as `f64`s, exactly as a collector would report
    /// them. Every stream is screened at the ingest boundary
    /// ([`dpm_trace::screen_arrivals`]); a device whose stream fails
    /// screening (NaN, ±∞, negative or non-integral counts) takes a
    /// strike on the health-state machine and idles this epoch — its
    /// poisoned data never reaches an estimator window. Devices with
    /// clean streams run the ordinary [`Self::run_epoch`].
    ///
    /// # Errors
    ///
    /// [`DpmError::BadConfiguration`] for an unknown/retired id or a
    /// duplicate entry; a *rejected stream* is not an error — rejection
    /// is the containment working.
    pub fn run_epoch_telemetry(
        &mut self,
        telemetry: &[(DeviceId, Vec<f64>)],
    ) -> Result<FleetReport, DpmError> {
        let mut clean = Vec::with_capacity(telemetry.len());
        let mut rejected = Vec::new();
        for (id, raw) in telemetry {
            let Some(idx) = self.position(*id) else {
                return Err(DpmError::BadConfiguration {
                    reason: format!("epoch telemetry addresses {id}, which is unknown or removed"),
                });
            };
            match dpm_trace::screen_arrivals(raw) {
                Ok(bits) => clean.push((*id, bits)),
                Err(_) => rejected.push(idx),
            }
        }
        for idx in rejected {
            self.controller.strike(idx);
        }
        self.run_epoch(&clean)
    }

    /// The containment state of `id` (`None` for an unknown or retired
    /// id).
    pub fn health_of(&self, id: DeviceId) -> Option<DeviceHealth> {
        let idx = self.position(id)?;
        Some(self.controller.device_health(idx))
    }

    /// Devices currently in the fleet.
    pub fn devices(&self) -> usize {
        self.ids.len()
    }

    /// Clusters currently alive.
    pub fn clusters(&self) -> usize {
        self.controller.clusters()
    }

    /// Registered device classes.
    pub fn classes(&self) -> usize {
        self.controller.classes.len()
    }

    /// Epochs run so far (== the next report's `epoch` index).
    pub fn epoch(&self) -> u64 {
        self.controller.epoch
    }

    /// The ids of the managed devices, in the controller's device
    /// order (ascending by id).
    pub fn device_ids(&self) -> &[DeviceId] {
        &self.ids
    }

    /// Whether `id` names a currently managed device.
    pub fn contains(&self, id: DeviceId) -> bool {
        self.position(id).is_some()
    }

    /// The policy currently assigned to `id` (`None` for an unknown or
    /// retired id).
    pub fn policy(&self, id: DeviceId) -> Option<&Arc<RandomizedPolicy>> {
        let idx = self.position(id)?;
        Some(self.controller.device_policy(idx))
    }

    /// The cluster `id` currently belongs to (`None` for an unknown or
    /// retired id, or while the device's estimator is warming up).
    pub fn cluster_of(&self, id: DeviceId) -> Option<usize> {
        let idx = self.position(id)?;
        self.controller.device_cluster(idx)
    }

    /// The latest fitted model of `id` (`None` for an unknown or
    /// retired id, or before the first fit).
    pub fn fit_of(&self, id: DeviceId) -> Option<&ServiceRequester> {
        let idx = self.position(id)?;
        self.controller.device_fit(idx)
    }

    /// Read-only access to the wrapped controller (per-epoch history,
    /// aggregate counters, dense-index accessors).
    pub fn controller(&self) -> &FleetController {
        &self.controller
    }

    /// Serializes the service's full adaptive state — estimator
    /// counts, fitted models, cluster membership, active policies,
    /// event-gate cooldowns, id bookkeeping — into the versioned
    /// binary snapshot format of [`snapshot`]. The registered classes
    /// themselves are **not** serialized (they are code + base models,
    /// not runtime state): [`Self::restore`] requires a service with
    /// the same classes registered in the same order.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the writer fails.
    pub fn checkpoint(&self, writer: &mut impl Write) -> Result<(), SnapshotError> {
        snapshot::write_snapshot(self, writer)
    }

    /// Rebuilds the service's adaptive state from a snapshot produced
    /// by [`Self::checkpoint`], replacing whatever state this service
    /// held. The service must have the same classes registered (same
    /// order, same LP shape) as the checkpointed one. Cluster LP
    /// sessions are rehydrated by forking each class's base session
    /// and replaying at most one warm solve per previously-solved
    /// cluster — no cold-solve storm; the replay cost is returned in
    /// the [`RestoreReport`]. After a restore the next epoch's
    /// [`FleetReport`] is bit-identical to the uninterrupted run's.
    ///
    /// The per-epoch [`FleetController::history`] is not part of the
    /// snapshot: a restored service starts with an empty history while
    /// its epoch counter continues from the checkpoint.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the reader fails,
    /// [`SnapshotError::Format`] for a malformed/truncated snapshot or
    /// unsupported version, [`SnapshotError::Mismatch`] when the
    /// registered classes do not match the checkpoint, and
    /// [`SnapshotError::Dpm`] when rebuilding models or replaying a
    /// solve fails. On error the service is left unchanged.
    pub fn restore(&mut self, reader: &mut impl Read) -> Result<RestoreReport, SnapshotError> {
        snapshot::read_snapshot(self, reader)
    }
}
