//! The fleet as a **long-running service**: [`FleetService`], the one
//! fleet type, with device churn, incremental cluster maintenance and
//! checkpoint/restore. Its epoch phases live in [`crate::fleet`].
//!
//! A production power manager faces a live lifecycle: devices arrive
//! and leave while the manager runs, whole racks shift workload in
//! correlated waves, and the process hosting the manager restarts.
//! [`FleetService`] is built for it:
//!
//! * **churn** — [`FleetService::add_device`] /
//!   [`FleetService::remove_device`] /
//!   [`FleetService::register_class`] operate on a *live* fleet. A new
//!   device reuses its class's prepared base session and symbolic LU
//!   analysis as-is (nothing is re-prepared, no LP is solved on
//!   arrival) and is homed into an existing cluster — or seeds a fresh
//!   one via a forked session — once its estimator window fills. A
//!   removal evicts the device from its cluster and drops the cluster
//!   if it was the last member. Devices are addressed by stable
//!   [`DeviceId`]s that survive removals and are never reused.
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
//!   cold-solve storm — after which the fleet makes the same decisions
//!   as an uninterrupted run (its reports are not promised
//!   bit-identical; see [`FleetService::restore`]). The format is
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

use crate::fleet::{Cluster, Device, DeviceClass, DeviceHealth, FleetConfig, FleetReport};

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

/// The fleet: many devices adapted together, addressed by stable
/// [`DeviceId`]s, with runtime churn and checkpoint/restore (see the
/// [module docs](self) and the [`fleet`](crate::fleet) module for the
/// epoch phases).
#[derive(Debug)]
pub struct FleetService {
    pub(crate) config: FleetConfig,
    pub(crate) classes: Vec<DeviceClass>,
    /// Managed devices in id order.
    pub(crate) devices: Vec<Device>,
    pub(crate) clusters: Vec<Cluster>,
    /// Epochs run so far.
    pub(crate) epoch: u64,
    /// `ids[i]` is the id of `devices[i]` (ascending — ids are
    /// allocated monotonically and removals preserve order — so an id's
    /// index is found by binary search).
    pub(crate) ids: Vec<DeviceId>,
    /// Next id to allocate; never decreases.
    pub(crate) next_id: u64,
}

impl FleetService {
    /// An empty service with the given fleet configuration.
    pub fn new(config: FleetConfig) -> Self {
        FleetService {
            config,
            classes: Vec::new(),
            devices: Vec::new(),
            clusters: Vec::new(),
            epoch: 0,
            ids: Vec::new(),
            next_id: 0,
        }
    }

    /// The device index of `id` (`None` for an unknown or retired id).
    fn position(&self, id: DeviceId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The device index of every entry of an epoch's feed, refusing an
    /// unknown or retired id and an id listed twice.
    fn positions<T>(&self, feed: &[(DeviceId, T)]) -> Result<Vec<usize>, DpmError> {
        let mut seen = vec![false; self.ids.len()];
        feed.iter()
            .map(|(id, _)| {
                let bad = |why: &str| DpmError::BadConfiguration {
                    reason: format!("the epoch feed lists {id}, which is {why}"),
                };
                let d = self
                    .position(*id)
                    .ok_or_else(|| bad("unknown or removed"))?;
                if std::mem::replace(&mut seen[d], true) {
                    return Err(bad("listed twice"));
                }
                Ok(d)
            })
            .collect()
    }

    /// Registers a device class at runtime: the class problem is
    /// prepared and solved once on `system`. That solution is every
    /// future member's starting policy, and its session is the base
    /// every cluster of the class [forks](dpm_core::PreparedOptimization::fork)
    /// — one symbolic LU analysis per class, however many clusters
    /// form. No devices are created.
    ///
    /// # Errors
    ///
    /// The same validation as
    /// [`AdaptiveController::new`](crate::AdaptiveController::new): the
    /// system's SR state count must be `2^memory`, the configured
    /// problem must be feasible on the given model, and estimator/LP
    /// construction failures propagate.
    pub fn register_class(&mut self, system: &SystemModel) -> Result<ClassId, DpmError> {
        self.config.base.check_system(system)?;
        let mut base = self.config.base.prepare(system)?;
        let base_policy = Arc::new(base.solve()?.policy().clone());
        self.classes.push(DeviceClass {
            provider: system.provider().clone(),
            queue: *system.queue(),
            extractor: self.config.base.extractor()?,
            base,
            base_policy,
        });
        Ok(ClassId(self.classes.len() - 1))
    }

    /// Adds one device of `class` to the live fleet and returns its
    /// stable id. The class's prepared base session and symbolic LU
    /// analysis are reused as-is: nothing is re-prepared and no LP is
    /// solved. The device starts on the class's base policy with an
    /// empty estimator and joins (or founds) a cluster once its window
    /// fills and fits.
    ///
    /// # Errors
    ///
    /// [`DpmError::BadConfiguration`] for an unknown class; estimator
    /// construction failures propagate.
    pub fn add_device(&mut self, class: ClassId) -> Result<DeviceId, DpmError> {
        let Some(device_class) = self.classes.get(class.0) else {
            return Err(DpmError::BadConfiguration {
                reason: format!(
                    "the fleet has {} classes, none is {class}",
                    self.classes.len()
                ),
            });
        };
        let policy = Arc::clone(&device_class.base_policy);
        let estimator = self.config.base.estimator()?;
        self.devices.push(Device::new(class.0, estimator, policy));
        let id = DeviceId(self.next_id);
        self.next_id += 1;
        self.ids.push(id);
        Ok(id)
    }

    /// Removes a device from the live fleet, evicting it from its
    /// cluster. A cluster left empty is dropped with its forked session;
    /// the class base session is untouched, so nothing is ever
    /// re-prepared. A cluster whose representative was removed keeps
    /// serving its policy and is re-represented by its lowest remaining
    /// member at the next epoch. The id is retired — re-adding the
    /// device later yields a fresh id and this one is rejected forever
    /// after.
    ///
    /// # Errors
    ///
    /// [`DpmError::BadConfiguration`] for an unknown or retired id.
    pub fn remove_device(&mut self, id: DeviceId) -> Result<(), DpmError> {
        let Some(d) = self.position(id) else {
            return Err(DpmError::BadConfiguration {
                reason: format!("{id} is unknown or already removed"),
            });
        };
        self.evict(d);
        self.devices.remove(d);
        self.ids.remove(d);
        // Device indices above the removed one shift down.
        for m in self.clusters.iter_mut().flat_map(|c| c.members.iter_mut()) {
            if *m > d {
                *m -= 1;
            }
        }
        Ok(())
    }

    /// One adaptation epoch over the live fleet. `arrivals` pairs
    /// device ids with their 0/1 request streams; devices not listed
    /// observe an empty stream this epoch (their estimators idle at
    /// their current window). Each device is fed and re-fitted, the
    /// clusters are maintained, the clusters whose representative moved
    /// past the event gate re-solve, and each solved policy is shared
    /// across its cluster (see the [`fleet`](crate::fleet) module). The
    /// report and every observable state are bit-identical for any
    /// worker count.
    ///
    /// # Errors
    ///
    /// [`DpmError::BadConfiguration`] for an unknown/retired id or a
    /// duplicate entry; the fleet is then untouched. Per-cluster solve
    /// failures do *not* fail the epoch: the cluster keeps its previous
    /// policy and the failure is counted in [`FleetReport::infeasible`]
    /// / [`FleetReport::errors`].
    pub fn run_epoch(
        &mut self,
        arrivals: &[(DeviceId, Vec<u32>)],
    ) -> Result<FleetReport, DpmError> {
        let mut streams: Vec<&[u32]> = vec![&[]; self.devices.len()];
        for (d, (_, stream)) in self.positions(arrivals)?.into_iter().zip(arrivals) {
            streams[d] = stream;
        }
        self.step(&streams)
    }

    /// One adaptation epoch fed with **raw telemetry** instead of
    /// pre-validated 0/1 streams: each device's stream of per-slice
    /// arrival counts as `f64`s, exactly as a collector would report
    /// them. Every stream is screened at the ingest boundary
    /// ([`dpm_trace::screen_arrivals`]); a device whose stream fails
    /// screening (NaN, ±∞, negative or non-integral counts) takes a
    /// strike on the health-state machine and idles this epoch — its
    /// poisoned data never reaches an estimator window. Devices with
    /// clean streams run as in [`Self::run_epoch`].
    ///
    /// # Errors
    ///
    /// [`DpmError::BadConfiguration`] for an unknown/retired id or a
    /// duplicate entry, checked before any stream is screened, so a
    /// refused call strikes no device. A *rejected stream* is not an
    /// error — rejection is the containment working.
    pub fn run_epoch_telemetry(
        &mut self,
        telemetry: &[(DeviceId, Vec<f64>)],
    ) -> Result<FleetReport, DpmError> {
        let positions = self.positions(telemetry)?;
        let screened: Vec<_> = telemetry
            .iter()
            .map(|(_, raw)| dpm_trace::screen_arrivals(raw).ok())
            .collect();
        let mut streams: Vec<&[u32]> = vec![&[]; self.devices.len()];
        for (d, bits) in positions.into_iter().zip(&screened) {
            match bits {
                Some(bits) => streams[d] = bits,
                None => self.devices[d].strike_pending = true,
            }
        }
        self.step(&streams)
    }

    /// The containment state of `id` (`None` for an unknown or retired
    /// id).
    pub fn health_of(&self, id: DeviceId) -> Option<DeviceHealth> {
        Some(self.devices[self.position(id)?].health)
    }

    /// Devices currently in the fleet.
    pub fn devices(&self) -> usize {
        self.ids.len()
    }

    /// Clusters currently alive.
    pub fn clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Registered device classes.
    pub fn classes(&self) -> usize {
        self.classes.len()
    }

    /// Epochs run so far (== the next report's `epoch` index).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The ids of the managed devices, ascending.
    pub fn device_ids(&self) -> &[DeviceId] {
        &self.ids
    }

    /// Whether `id` names a currently managed device.
    pub fn contains(&self, id: DeviceId) -> bool {
        self.position(id).is_some()
    }

    /// The policy currently assigned to `id` (shared by every member of
    /// its cluster; `None` for an unknown or retired id).
    pub fn policy(&self, id: DeviceId) -> Option<&Arc<RandomizedPolicy>> {
        Some(&self.devices[self.position(id)?].policy)
    }

    /// The cluster `id` currently belongs to (`None` for an unknown or
    /// retired id, or while the device's estimator is warming up).
    pub fn cluster_of(&self, id: DeviceId) -> Option<usize> {
        self.devices[self.position(id)?].cluster
    }

    /// The latest fitted model of `id` (`None` for an unknown or
    /// retired id, or before the first fit) — what a solve-per-device
    /// deployment would solve for. The fleet keeps each fit as its
    /// estimator's matrix only; the requester is built on every call.
    pub fn fit_of(&self, id: DeviceId) -> Option<ServiceRequester> {
        let estimator = &self.devices[self.position(id)?].estimator;
        estimator.extractor().model(estimator.last_fit()?).ok()
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
    /// the [`RestoreReport`]. The restored fleet makes the same
    /// decisions as the uninterrupted one, but its reports are not
    /// promised bit-identical: a replayed session's factorization
    /// history differs from the original's, so
    /// [`FleetReport::symbolic_reuses`] may differ by one and
    /// [`FleetReport::mean_power`] in its last bits.
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
