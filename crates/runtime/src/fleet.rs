//! Fleet-scale parallel adaptation: the epoch phases of
//! [`FleetService`]. Per-device estimators are sharded across scoped
//! worker threads, devices are clustered by fitted-model proximity,
//! and **one LP is solved per cluster** instead of one per device.
//!
//! The closed loop of the crate root adapts *one* device. A data center
//! runs thousands of power-managed disks, CPUs and web servers at once,
//! and the per-device loop does not scale two ways:
//!
//! * **estimation** is embarrassingly parallel but single-threaded —
//!   [`FleetService::run_epoch`] shards the per-device feed+fit work
//!   over [`std::thread::scope`] workers (contiguous device shards,
//!   results merged in device order, so the outcome is **bit-identical
//!   for every worker count**);
//! * **solving** one LP per device wastes pivots on devices whose fitted
//!   models are statistically indistinguishable — the fleet groups
//!   devices whose fits sit within a max-abs transition-probability
//!   threshold of each other (the same gauge as
//!   [`WindowedEstimator::divergence`]) and solves **one LP per
//!   cluster**, sharing the resulting randomized policy across the
//!   members. A device whose fit drifts off its cluster's
//!   representative is evicted and re-homed the same epoch.
//!
//! Every cluster session is a [`PreparedOptimization::fork`] of its
//! device class's base session, so all clusters of a class share one
//! symbolic LU analysis and re-solve **warm** — the per-cluster solve
//! costs a handful of pivots, not a cold two-phase solve. Re-solves are
//! **event-driven**: a cluster re-solves only when its representative
//! model has moved at least the configured divergence since the last
//! solve, and never again within the cooldown window.
//!
//! See `docs/FLEET.md` for the design notes. The unit tests below and
//! `crates/runtime/tests/fleet_clustering.rs` check that the results
//! are identical for every worker count and that clustering cuts the
//! solves below one per device.
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
//!     .workers(2);
//! let mut fleet = FleetService::new(config);
//! let class = fleet.register_class(&drifting::blended_system(7)?)?;
//! // One epoch: 500 arrival slices per device, all devices alike.
//! let trace = drifting::workload(500, 7);
//! let mut arrivals = Vec::new();
//! for _ in 0..4 {
//!     arrivals.push((fleet.add_device(class)?, trace.clone()));
//! }
//! let report = fleet.run_epoch(&arrivals)?;
//! assert_eq!(report.devices, 4);
//! assert!(report.solves <= report.clusters);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use dpm_core::{
    DpmError, PolicySolution, PreparedOptimization, ServiceProvider, ServiceQueue, SystemModel,
};
use dpm_lp::ReloadKind;
use dpm_mdp::RandomizedPolicy;
use dpm_trace::{SrExtractor, WindowedEstimator};

use crate::{climb_warm_rungs, AdaptiveConfig, FleetService, LadderRung};

/// Configuration of a [`FleetService`] (builder style).
///
/// Wraps an [`AdaptiveConfig`] for the per-device estimator and
/// per-cluster LP knobs (memory, smoothing, window, discount, bounds,
/// solver, `resolve_cooldown`, `solve_budget`) and adds the fleet-level
/// ones. Defaults: 1 worker, cluster threshold 0.05, re-solve threshold
/// 0.02.
///
/// Note the fleet is fed explicitly through
/// [`FleetService::run_epoch`], so the adaptive config's
/// `epoch_slices` only sizes the default estimator window; the epoch
/// length is whatever the caller feeds per call.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    pub(crate) base: AdaptiveConfig,
    pub(crate) workers: usize,
    pub(crate) cluster_divergence: f64,
    pub(crate) resolve_divergence: f64,
    pub(crate) quiet_divergence: Option<f64>,
    pub(crate) quarantine_strikes: u32,
    pub(crate) probation_epochs: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetConfig {
    /// The default configuration (see the type-level docs).
    pub fn new() -> Self {
        FleetConfig {
            base: AdaptiveConfig::new(),
            workers: 1,
            cluster_divergence: 0.05,
            resolve_divergence: 0.02,
            quiet_divergence: None,
            quarantine_strikes: 3,
            probation_epochs: 3,
        }
    }

    /// The per-device estimator / per-cluster LP configuration.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn adaptive(mut self, base: AdaptiveConfig) -> Self {
        self.base = base;
        self
    }

    /// Worker threads the per-device feed+fit phase and the per-cluster
    /// solve phase shard over. Clamped to ≥ 1. Results are bit-identical
    /// for every value — the worker count only buys wall-clock time.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Cluster membership gate: a device belongs to a cluster while its
    /// fitted model stays within this max-abs transition-probability
    /// distance of the cluster representative; beyond it, the device is
    /// evicted and re-homed. 0 clusters only bit-identical fits
    /// (effectively solve-per-device).
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn cluster_divergence(mut self, threshold: f64) -> Self {
        self.cluster_divergence = threshold.max(0.0);
        self
    }

    /// Event gate: a cluster re-solves only when its representative has
    /// moved at least this max-abs distance since the model it last
    /// solved for (and its `resolve_cooldown` has expired). 0 re-solves
    /// every epoch.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn resolve_divergence(mut self, threshold: f64) -> Self {
        self.resolve_divergence = threshold.max(0.0);
        self
    }

    /// Incremental-gauge gate: when set, a device whose windowed counts
    /// moved at most this much since its last fit (max-abs smoothed
    /// row-probability distance, [`WindowedEstimator::count_drift`])
    /// skips the epoch's fit/gauge recomputation — its previous fit,
    /// flattened gauge and cluster assignment stand unchanged, so quiet
    /// epochs become ~free. The skip/refit split is reported in
    /// [`FleetReport::gauge_skips`] / [`FleetReport::gauge_refits`].
    /// `0.0` skips only devices whose window counts are bit-identical
    /// to the last fit's. Unset (the default) disables the gate: every
    /// ready estimator refits every epoch.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn quiet_divergence(mut self, threshold: f64) -> Self {
        self.quiet_divergence = Some(threshold.max(0.0));
        self
    }

    /// Strikes (invalid observations, ladder holds of the device's
    /// cluster) before a device is quarantined. Clamped to ≥ 1. A
    /// device's strikes are cleared by a successful solve of its
    /// cluster, so only *persistent* trouble accumulates.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn quarantine_strikes(mut self, strikes: u32) -> Self {
        self.quarantine_strikes = strikes.max(1);
        self
    }

    /// Epochs a quarantined device sits out — excluded from estimation
    /// and clustering, held on its last-good policy — before it is
    /// re-admitted as healthy. Clamped to ≥ 1.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn probation_epochs(mut self, epochs: u64) -> Self {
        self.probation_epochs = epochs.max(1);
        self
    }
}

/// The containment state of a managed device (see `docs/FLEET.md`,
/// "Failure modes & recovery").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceHealth {
    /// Behaving normally: telemetry screens clean and its cluster
    /// solves.
    #[default]
    Healthy,
    /// Carrying strikes but still fully managed; a successful solve of
    /// its cluster heals it back to [`DeviceHealth::Healthy`].
    Degraded,
    /// Excluded from estimation and clustering, held on its last-good
    /// policy until the probation window expires.
    Quarantined,
}

/// What one [`FleetService::run_epoch`] call did, in the aggregate —
/// the fleet's flight recorder. Deterministic for a given fleet and
/// arrival set, whatever the worker count.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct FleetReport {
    /// 0-based epoch index.
    pub epoch: u64,
    /// Devices in the fleet.
    pub devices: usize,
    /// Devices whose estimator produced a fit this epoch (the rest are
    /// still warming up their windows).
    pub fitted: usize,
    /// Devices that recomputed their fit and divergence gauge this epoch
    /// — ready estimators whose counts moved past
    /// [`FleetConfig::quiet_divergence`], or every ready estimator when
    /// the quiet gate is disabled.
    pub gauge_refits: usize,
    /// Devices the incremental gauge let skip fit/gauge recomputation
    /// this epoch (windowed counts within `quiet_divergence` of their
    /// last fit; their previous fit and cluster assignment stand).
    pub gauge_skips: usize,
    /// Clusters alive at the end of the epoch.
    pub clusters: usize,
    /// Devices evicted from a cluster this epoch (drifted off the
    /// representative; all were re-homed or founded a new cluster).
    pub evictions: usize,
    /// Clusters that re-solved this epoch.
    pub solves: usize,
    /// Clusters the event gate held (kept their policy, no solve).
    pub skipped: usize,
    /// Re-solves whose model swap reloaded warm.
    pub warm_reloads: usize,
    /// Re-solves that fell back to a cold rebuild.
    pub cold_reloads: usize,
    /// Simplex pivots spent by this epoch's re-solves.
    pub pivots: usize,
    /// Symbolic-LU analyses *reused* by this epoch's re-solves (forked
    /// sessions share their class's analysis, so with warm reloads this
    /// tracks the solve count while fresh analyses stay at one per
    /// class).
    pub symbolic_reuses: usize,
    /// Clusters whose constraints were infeasible under their
    /// representative model (kept the previous policy).
    pub infeasible: usize,
    /// Clusters whose re-solve failed for non-infeasibility reasons
    /// (kept the previous policy).
    pub errors: usize,
    /// Mean model-predicted power per slice over the devices whose
    /// cluster has solved at least once, in device order (`None` until
    /// any cluster has solved).
    pub mean_power: Option<f64>,
    /// Devices [`DeviceHealth::Healthy`] at the end of the epoch.
    pub healthy: usize,
    /// Devices [`DeviceHealth::Degraded`] at the end of the epoch.
    pub degraded: usize,
    /// Devices [`DeviceHealth::Quarantined`] at the end of the epoch.
    pub quarantined: usize,
    /// Strikes recorded this epoch (invalid observations reported by
    /// the service layer, plus one per ladder hold against the failing
    /// cluster's representative).
    pub strikes: usize,
    /// Devices that crossed into quarantine this epoch.
    pub quarantines: usize,
    /// Devices re-admitted from quarantine this epoch.
    pub readmissions: usize,
    /// Escalation-ladder rung 1: warm retries on the untouched session.
    pub warm_retries: usize,
    /// Escalation-ladder rung 2: solves after a forced refactorization.
    pub forced_refactors: usize,
    /// Escalation-ladder rung 3: cold rebuilds on a fresh fork of the
    /// class base session.
    pub cold_rebuilds: usize,
    /// Escalation-ladder rung 4: clusters that exhausted the ladder and
    /// held their last-good policy (exponential backoff arms).
    pub holds: usize,
}

/// Phase-1 per-device scratch: whether the epoch recomputed the
/// device's fit and gauge or the incremental gauge let it skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FitOutcome {
    /// Estimator not ready (window still warming up), or the fit failed.
    None,
    /// Fit and flattened gauge recomputed.
    Refit,
    /// Windowed counts within the quiet gate of the last fit — skipped.
    Skipped,
}

/// One managed device: its streaming estimator (whose last fit is the
/// device's fitted model) and its cluster assignment.
#[derive(Debug)]
pub(crate) struct Device {
    pub(crate) class: usize,
    pub(crate) estimator: WindowedEstimator,
    pub(crate) cluster: Option<usize>,
    pub(crate) policy: Arc<RandomizedPolicy>,
    /// Per-epoch scratch: what phase 1 did to this device's gauge.
    pub(crate) fit_outcome: FitOutcome,
    pub(crate) health: DeviceHealth,
    /// Accumulated strikes; cleared by a successful cluster solve and
    /// on re-admission.
    pub(crate) strikes: u32,
    /// Probation epochs left while quarantined.
    pub(crate) probation_left: u64,
    /// Per-epoch scratch: a strike was reported against this device
    /// (invalid telemetry, or its cluster's ladder ended in a hold).
    pub(crate) strike_pending: bool,
}

/// A device class: one LP shape, one base session every cluster forks.
#[derive(Debug)]
pub(crate) struct DeviceClass {
    pub(crate) provider: ServiceProvider,
    pub(crate) queue: ServiceQueue,
    /// Builds the requester of a fitted matrix for a solve.
    pub(crate) extractor: SrExtractor,
    pub(crate) base: PreparedOptimization,
    pub(crate) base_policy: Arc<RandomizedPolicy>,
}

/// The outcome of one cluster's re-solve attempt (per-epoch scratch),
/// including how far up the escalation ladder it had to climb.
#[derive(Debug, Clone)]
pub(crate) struct SolveOutcome {
    reload: Option<ReloadKind>,
    pivots: usize,
    symbolic_reuse: usize,
    infeasible: bool,
    error: Option<String>,
    /// The highest escalation-ladder rung climbed ([`LadderRung::Direct`]
    /// also when the model swap failed before any solve). The parallel
    /// phase leaves [`LadderRung::ColdRebuild`] on a cluster whose warm
    /// rungs all failed; the sequential cold pass then settles it as a
    /// rebuild (solved or infeasible) or a [`LadderRung::Hold`].
    rung: LadderRung,
}

/// A group of devices sharing one fitted regime, one LP session and one
/// policy.
#[derive(Debug)]
pub(crate) struct Cluster {
    pub(crate) class: usize,
    /// Member device indices, ascending — `members[0]` is the
    /// representative device.
    pub(crate) members: Vec<usize>,
    /// The representative's flattened transition matrix (the model a
    /// re-solve solves for).
    pub(crate) representative: Vec<f64>,
    pub(crate) session: PreparedOptimization,
    /// The flattened model of the last successful solve.
    pub(crate) last_solved: Option<Vec<f64>>,
    pub(crate) policy: Arc<RandomizedPolicy>,
    /// Model-predicted power per slice of the last successful solve.
    pub(crate) power: Option<f64>,
    /// Epochs since the last successful solve.
    pub(crate) since_solve: u64,
    pub(crate) needs_solve: bool,
    pub(crate) outcome: Option<SolveOutcome>,
    /// Consecutive epochs the escalation ladder ended in a hold.
    pub(crate) consecutive_holds: u32,
    /// Epochs left before a held cluster may try to solve again
    /// (exponential in [`Cluster::consecutive_holds`]).
    pub(crate) backoff_left: u64,
}

/// Max-abs distance between two flattened transition matrices — the
/// same gauge as [`WindowedEstimator::divergence`], applied across
/// devices instead of across time.
pub(crate) fn gauge(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Phase 1 on one shard: feed every device its epoch's stream and
/// re-fit it unless the quiet gate holds.
fn feed_shard(shard: &mut [Device], streams: &[&[u32]], quiet: Option<f64>) {
    // The shard's devices take turns packing their batches into one
    // buffer.
    let mut packed = Vec::new();
    for (device, stream) in shard.iter_mut().zip(streams) {
        device.fit_outcome = FitOutcome::None;
        // Quarantined devices neither feed nor fit: a device suspected
        // of emitting garbage must not influence any model until
        // re-admitted.
        if device.health == DeviceHealth::Quarantined {
            continue;
        }
        device.estimator.observe_stream_with(stream, &mut packed);
        if !device.estimator.is_ready() {
            continue;
        }
        // The incremental gauge: a fitted device whose windowed counts
        // stayed within the quiet gate of its last fit keeps fit and
        // cluster untouched — no refit, no gauge recomputation
        // downstream.
        if device.estimator.last_fit().is_some() {
            if let (Some(gate), Some(drift)) = (quiet, device.estimator.count_drift()) {
                if drift <= gate {
                    device.fit_outcome = FitOutcome::Skipped;
                    continue;
                }
            }
        }
        if device.estimator.fit().is_ok() {
            device.fit_outcome = FitOutcome::Refit;
        }
    }
}

impl Device {
    /// A fresh, unfitted, healthy device of `class` serving `policy`.
    pub(crate) fn new(
        class: usize,
        estimator: WindowedEstimator,
        policy: Arc<RandomizedPolicy>,
    ) -> Self {
        Device {
            class,
            estimator,
            cluster: None,
            policy,
            fit_outcome: FitOutcome::None,
            health: DeviceHealth::Healthy,
            strikes: 0,
            probation_left: 0,
            strike_pending: false,
        }
    }
}

impl DeviceClass {
    /// A fresh fork of the class base session with the fitted `matrix`
    /// swapped in and solved: a cold cluster rebuild, or a restore's
    /// replay.
    pub(crate) fn rebuild(
        &self,
        matrix: &[f64],
    ) -> Result<(PreparedOptimization, ReloadKind, PolicySolution), DpmError> {
        let mut session = self.base.fork()?;
        let model = self.extractor.model(matrix)?;
        let system = SystemModel::compose(self.provider.clone(), model, self.queue)?;
        let kind = session.update_model(system.chain())?;
        let solution = session.solve()?;
        Ok((session, kind, solution))
    }
}

impl FleetService {
    /// Evicts device `d` from its cluster, if it has one. A cluster left
    /// empty is dropped at once (its forked session with it) and the
    /// survivors' indices are remapped.
    pub(crate) fn evict(&mut self, d: usize) {
        let Some(c) = self.devices[d].cluster.take() else {
            return;
        };
        let members = &mut self.clusters[c].members;
        members.retain(|&m| m != d);
        if !members.is_empty() {
            return;
        }
        self.clusters.remove(c);
        for device in &mut self.devices {
            device.cluster = device.cluster.map(|k| if k > c { k - 1 } else { k });
        }
    }

    /// One adaptation epoch over the whole fleet: `streams[d]` is device
    /// `d`'s stream of 0/1 request indicators. Feeds and re-fits every
    /// device (sharded over the worker pool), maintains the clusters,
    /// re-solves the clusters the event gate lets through (sharded
    /// again), shares each solved policy across its cluster and folds
    /// the health-state machine.
    ///
    /// The report — and every observable fleet state — is bit-identical
    /// for any worker count: the parallel phases touch disjoint
    /// per-device / per-cluster state, and every cross-device decision
    /// (clustering, gating, merging) runs sequentially in device order.
    pub(crate) fn step(&mut self, streams: &[&[u32]]) -> Result<FleetReport, DpmError> {
        self.feed_and_fit(streams);
        let evictions = self.maintain_clusters()?;
        self.gate_solves();
        self.solve_clusters();
        self.rebuild_cold();
        let mut report = self.merge(evictions);
        self.update_health(&mut report);
        self.epoch += 1;
        Ok(report)
    }

    /// Phase 1 — parallel, per-device: feed each device its epoch's
    /// arrivals in one batch and re-fit every ready estimator.
    /// Contiguous shards, disjoint mutable state, so the merge is
    /// trivially deterministic; a single shard runs on the calling
    /// thread.
    fn feed_and_fit(&mut self, streams: &[&[u32]]) {
        let quiet = self.config.quiet_divergence;
        let chunk = self.devices.len().div_ceil(self.config.workers).max(1);
        if self.devices.len() <= chunk {
            feed_shard(&mut self.devices, streams, quiet);
            return;
        }
        std::thread::scope(|s| {
            for (shard, streams) in self.devices.chunks_mut(chunk).zip(streams.chunks(chunk)) {
                s.spawn(move || feed_shard(shard, streams, quiet));
            }
        });
    }

    /// Phase 2 — sequential, deterministic: evict members that drifted
    /// off their representative, refresh representatives, re-home every
    /// unassigned fitted device (first within-threshold cluster of its
    /// class in cluster order, else found a new one). Returns the
    /// eviction count.
    fn maintain_clusters(&mut self) -> Result<usize, DpmError> {
        let threshold = self.config.cluster_divergence;
        // Evict: compare every member (except the representative itself)
        // against its cluster's current representative.
        let mut evictions = 0usize;
        for d in 0..self.devices.len() {
            let device = &self.devices[d];
            let (Some(c), Some(flat)) = (device.cluster, device.estimator.last_fit()) else {
                continue;
            };
            if gauge(flat, &self.clusters[c].representative) > threshold {
                self.evict(d);
                evictions += 1;
            }
        }
        // Refresh representatives: the lowest-indexed member speaks for
        // the cluster from here on.
        for cluster in &mut self.clusters {
            if let Some(flat) = self.devices[cluster.members[0]].estimator.last_fit() {
                flat.clone_into(&mut cluster.representative);
            }
        }
        // Re-home in device order; join the first fitting cluster in
        // cluster order, else found a new one from a fork of the class
        // base session.
        for d in 0..self.devices.len() {
            let device = &self.devices[d];
            if device.cluster.is_some() || device.health == DeviceHealth::Quarantined {
                continue;
            }
            let Some(flat) = device.estimator.last_fit() else {
                continue;
            };
            let class = device.class;
            let home = self
                .clusters
                .iter()
                .position(|cl| cl.class == class && gauge(flat, &cl.representative) <= threshold);
            let c = match home {
                Some(c) => {
                    self.clusters[c].members.push(d);
                    self.clusters[c].members.sort_unstable();
                    c
                }
                None => {
                    let base = &self.classes[class];
                    let cluster = Cluster::new(
                        class,
                        vec![d],
                        flat.to_vec(),
                        base.base.fork()?,
                        Arc::clone(&base.base_policy),
                    );
                    self.clusters.push(cluster);
                    self.clusters.len() - 1
                }
            };
            self.devices[d].cluster = Some(c);
        }
        Ok(evictions)
    }

    /// Phase 3 — sequential: the event gate. A cluster re-solves when it
    /// never has, or when its representative moved at least
    /// `resolve_divergence` since the last solved model *and* the
    /// cooldown expired. A cluster the ladder held backs off
    /// exponentially: it sits out `2^min(consecutive_holds, 6)` epochs
    /// before the gate may fire again.
    fn gate_solves(&mut self) {
        let threshold = self.config.resolve_divergence;
        let cooldown = self.config.base.resolve_cooldown;
        for cluster in &mut self.clusters {
            cluster.outcome = None;
            let backing_off = cluster.backoff_left > 0;
            cluster.backoff_left = cluster.backoff_left.saturating_sub(1);
            let due = match cluster.last_solved.as_ref() {
                None => true,
                Some(solved) => {
                    let moved = gauge(&cluster.representative, solved) >= threshold;
                    let cooled = cluster.since_solve >= cooldown;
                    cluster.since_solve = cluster.since_solve.saturating_add(1);
                    moved && cooled
                }
            };
            cluster.needs_solve = due && !backing_off;
        }
    }

    /// Phase 4 — parallel, per-cluster: re-solve every gated cluster on
    /// its own forked session. Failures stay local to the cluster; a
    /// single shard runs on the calling thread.
    fn solve_clusters(&mut self) {
        let chunk = self.clusters.len().div_ceil(self.config.workers).max(1);
        // Workers only need each class's provider, queue and extractor
        // to recompose (the class's base *session* is not `Sync` and
        // stays put).
        let recompose: Vec<(&ServiceProvider, ServiceQueue, SrExtractor)> = self
            .classes
            .iter()
            .map(|class| (&class.provider, class.queue, class.extractor))
            .collect();
        let recompose = recompose.as_slice();
        let solve_shard = move |shard: &mut [Cluster]| {
            for cluster in shard.iter_mut().filter(|c| c.needs_solve) {
                let (provider, queue, extractor) = recompose[cluster.class];
                cluster.outcome = Some(cluster.resolve(provider, queue, extractor));
            }
        };
        if self.clusters.len() <= chunk {
            solve_shard(&mut self.clusters);
            return;
        }
        std::thread::scope(|s| {
            for shard in self.clusters.chunks_mut(chunk) {
                s.spawn(move || solve_shard(shard));
            }
        });
    }

    /// Phase 4b — sequential: rung 3 of the escalation ladder. Every
    /// cluster whose warm ladder failed gets one cold rebuild — a fresh
    /// fork of its class base session, re-swapped and re-solved. (The
    /// class base session is not `Sync`, so forking cannot happen in
    /// the parallel phase.) A cluster that fails even cold takes rung
    /// 4: it holds its last-good policy and arms the exponential
    /// backoff.
    fn rebuild_cold(&mut self) {
        for cluster in &mut self.clusters {
            let Some(mut outcome) = cluster
                .outcome
                .take_if(|o| o.rung == LadderRung::ColdRebuild)
            else {
                continue;
            };
            match self.classes[cluster.class].rebuild(&cluster.representative) {
                Ok((session, _, solution)) => {
                    let report = solution.solve_report();
                    outcome.pivots += report.iterations;
                    outcome.symbolic_reuse += report.symbolic_reuse;
                    outcome.error = None;
                    cluster.session = session;
                    cluster.adopt(&solution);
                }
                Err(DpmError::Infeasible) => {
                    outcome.infeasible = true;
                    outcome.error = None;
                }
                Err(e) => {
                    outcome.error = Some(e.to_string());
                    outcome.rung = LadderRung::Hold;
                    cluster.consecutive_holds = cluster.consecutive_holds.saturating_add(1);
                    cluster.backoff_left = 1u64 << cluster.consecutive_holds.min(6);
                }
            }
            cluster.outcome = Some(outcome);
        }
    }

    /// Phase 5 — sequential, in device/cluster order: fold the epoch
    /// into a report and share each cluster's policy with its members.
    fn merge(&mut self, evictions: usize) -> FleetReport {
        let mut report = FleetReport {
            epoch: self.epoch,
            devices: self.devices.len(),
            fitted: self
                .devices
                .iter()
                .filter(|d| d.estimator.last_fit().is_some())
                .count(),
            gauge_refits: 0,
            gauge_skips: 0,
            clusters: self.clusters.len(),
            evictions,
            solves: 0,
            skipped: 0,
            warm_reloads: 0,
            cold_reloads: 0,
            pivots: 0,
            symbolic_reuses: 0,
            infeasible: 0,
            errors: 0,
            mean_power: None,
            healthy: 0,
            degraded: 0,
            quarantined: 0,
            strikes: 0,
            quarantines: 0,
            readmissions: 0,
            warm_retries: 0,
            forced_refactors: 0,
            cold_rebuilds: 0,
            holds: 0,
        };
        for cluster in &self.clusters {
            match cluster.outcome.as_ref() {
                None => report.skipped += 1,
                Some(outcome) => {
                    report.solves += 1;
                    report.pivots += outcome.pivots;
                    report.symbolic_reuses += outcome.symbolic_reuse;
                    match outcome.reload {
                        Some(ReloadKind::Warm) => report.warm_reloads += 1,
                        Some(ReloadKind::Cold) => report.cold_reloads += 1,
                        None => {}
                    }
                    if outcome.infeasible {
                        report.infeasible += 1;
                    }
                    if outcome.error.is_some() {
                        report.errors += 1;
                    }
                    // Every rung climbed passed the ones below it; an
                    // infeasible cold rebuild is not counted as one.
                    let rung = outcome.rung;
                    report.warm_retries += usize::from(rung >= LadderRung::WarmRetry);
                    report.forced_refactors += usize::from(rung >= LadderRung::ForcedRefactor);
                    report.cold_rebuilds +=
                        usize::from(rung == LadderRung::ColdRebuild && !outcome.infeasible);
                    report.holds += usize::from(rung == LadderRung::Hold);
                }
            }
        }
        let mut power_sum = 0.0;
        let mut powered = 0usize;
        for device in &mut self.devices {
            match device.fit_outcome {
                FitOutcome::Refit => report.gauge_refits += 1,
                FitOutcome::Skipped => report.gauge_skips += 1,
                FitOutcome::None => {}
            }
            if let Some(c) = device.cluster {
                device.policy = Arc::clone(&self.clusters[c].policy);
                if let Some(power) = self.clusters[c].power {
                    power_sum += power;
                    powered += 1;
                }
            }
        }
        if powered > 0 {
            report.mean_power = Some(power_sum / powered as f64);
        }
        report
    }

    /// Phase 6 — sequential: the health-state machine. Ladder holds
    /// strike the failing cluster's representative (its model is what
    /// kept failing); successful solves clear their members' records;
    /// devices at the strike limit are quarantined onto their last-good
    /// policy; probation windows tick down and expire into re-admission.
    fn update_health(&mut self, report: &mut FleetReport) {
        let limit = self.config.quarantine_strikes.max(1);
        let probation = self.config.probation_epochs.max(1);
        let mut cleared = Vec::new();
        for cluster in &self.clusters {
            let Some(outcome) = cluster.outcome.as_ref() else {
                continue;
            };
            if outcome.rung == LadderRung::Hold {
                if let Some(&rep) = cluster.members.first() {
                    self.devices[rep].strike_pending = true;
                }
            } else if outcome.error.is_none() && !outcome.infeasible {
                cleared.extend_from_slice(&cluster.members);
            }
        }
        for d in cleared {
            let device = &mut self.devices[d];
            if !device.strike_pending && device.health == DeviceHealth::Degraded {
                device.strikes = 0;
                device.health = DeviceHealth::Healthy;
            }
        }
        let mut quarantined_now = Vec::new();
        for (d, device) in self.devices.iter_mut().enumerate() {
            if device.health == DeviceHealth::Quarantined {
                device.strike_pending = false;
                device.probation_left = device.probation_left.saturating_sub(1);
                if device.probation_left == 0 {
                    device.health = DeviceHealth::Healthy;
                    device.strikes = 0;
                    report.readmissions += 1;
                }
            } else if std::mem::take(&mut device.strike_pending) {
                report.strikes += 1;
                device.strikes = device.strikes.saturating_add(1);
                if device.strikes >= limit {
                    device.health = DeviceHealth::Quarantined;
                    device.probation_left = probation;
                    report.quarantines += 1;
                    quarantined_now.push(d);
                } else {
                    device.health = DeviceHealth::Degraded;
                }
            }
        }
        // Evict the newly quarantined from their clusters.
        for d in quarantined_now {
            self.evict(d);
        }
        for device in &self.devices {
            match device.health {
                DeviceHealth::Healthy => report.healthy += 1,
                DeviceHealth::Degraded => report.degraded += 1,
                DeviceHealth::Quarantined => report.quarantined += 1,
            }
        }
    }
}

impl Cluster {
    /// A cluster of `members` that has never solved: it serves `policy`
    /// until its first solve on `session`.
    pub(crate) fn new(
        class: usize,
        members: Vec<usize>,
        representative: Vec<f64>,
        session: PreparedOptimization,
        policy: Arc<RandomizedPolicy>,
    ) -> Self {
        Cluster {
            class,
            members,
            representative,
            session,
            last_solved: None,
            policy,
            power: None,
            since_solve: 0,
            needs_solve: false,
            outcome: None,
            consecutive_holds: 0,
            backoff_left: 0,
        }
    }

    /// Records a successful solve: adopt the policy, clear the hold
    /// backoff, restart the event-gate cooldown.
    fn adopt(&mut self, solution: &PolicySolution) {
        self.policy = Arc::new(solution.policy().clone());
        self.power = Some(solution.power_per_slice());
        self.last_solved = Some(self.representative.clone());
        self.since_solve = 0;
        self.consecutive_holds = 0;
        self.backoff_left = 0;
    }

    /// Recomposes the class system around the representative's model
    /// (built by `extractor`), swaps it into the cluster's forked
    /// session and re-solves, climbing the warm rungs of the escalation
    /// ladder on failure ([`climb_warm_rungs`]). A cluster that exhausts the warm rungs
    /// leaves [`LadderRung::ColdRebuild`] for the sequential cold pass.
    /// On success the cluster's shared policy is replaced; on any
    /// failure the previous policy stands.
    fn resolve(
        &mut self,
        provider: &ServiceProvider,
        queue: ServiceQueue,
        extractor: SrExtractor,
    ) -> SolveOutcome {
        let mut outcome = SolveOutcome {
            reload: None,
            pivots: 0,
            symbolic_reuse: 0,
            infeasible: false,
            error: None,
            rung: LadderRung::Direct,
        };
        let system = extractor
            .model(&self.representative)
            .and_then(|model| SystemModel::compose(provider.clone(), model, queue));
        let system = match system {
            Ok(system) => system,
            Err(e) => {
                outcome.error = Some(e.to_string());
                return outcome;
            }
        };
        match self.session.update_model(system.chain()) {
            Ok(kind) => outcome.reload = Some(kind),
            Err(e) => {
                outcome.error = Some(e.to_string());
                return outcome;
            }
        }
        let (rung, warm) = climb_warm_rungs(&mut self.session, |report| {
            outcome.pivots += report.iterations;
            outcome.symbolic_reuse += report.symbolic_reuse;
        });
        outcome.rung = rung;
        // A recovered solve is a clean solve: earlier rungs' errors are
        // part of the journey, not the verdict.
        match warm {
            Ok(solution) => self.adopt(&solution),
            Err(DpmError::Infeasible) => outcome.infeasible = true,
            Err(e) => {
                outcome.error = Some(e.to_string());
                outcome.rung = LadderRung::ColdRebuild;
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassId, DeviceId};
    use dpm_core::ServiceRequester;
    use dpm_trace::WindowKind;

    const MEMORY: u32 = 1;

    fn config(workers: usize) -> FleetConfig {
        FleetConfig::new()
            .adaptive(
                AdaptiveConfig::new()
                    .memory(MEMORY)
                    .smoothing(0.5)
                    .horizon(2_000.0)
                    .window(WindowKind::Sliding(400)),
            )
            .workers(workers)
            .cluster_divergence(0.1)
            .resolve_divergence(0.05)
    }

    fn drifting_system(p01: f64, p11: f64) -> SystemModel {
        dpm_systems::drifting::system_for(
            ServiceRequester::two_state(p01, p11).expect("valid two-state SR"),
        )
        .expect("composes")
    }

    /// A service with `count` devices of `system`'s class.
    fn fleet_of(config: FleetConfig, system: &SystemModel, count: usize) -> FleetService {
        let mut fleet = FleetService::new(config);
        let class = fleet.register_class(system).expect("class");
        for _ in 0..count {
            fleet.add_device(class).expect("device adds");
        }
        fleet
    }

    /// Deterministic per-device periodic arrival pattern; `density` out
    /// of `period` slices carry a request.
    fn pattern(len: usize, offset: usize, density: usize, period: usize) -> Vec<u32> {
        (0..len)
            .map(|i| u32::from((i + offset) % period < density))
            .collect()
    }

    /// Pairs every device, in id order, with `stream(d)` for its
    /// position `d`.
    fn feed(fleet: &FleetService, stream: impl Fn(usize) -> Vec<u32>) -> Vec<(DeviceId, Vec<u32>)> {
        let ids = fleet.device_ids().iter().enumerate();
        ids.map(|(d, &id)| (id, stream(d))).collect()
    }

    /// A fleet over two classes with per-device traces of two regimes.
    fn run_fleet(workers: usize, epochs: usize) -> (FleetService, Vec<FleetReport>) {
        let mut fleet = fleet_of(config(workers), &drifting_system(0.1, 0.6), 8);
        let toy = fleet
            .register_class(&dpm_systems::toy::example_system().expect("toy system"))
            .expect("class 1");
        for _ in 0..4 {
            fleet.add_device(toy).expect("device adds");
        }
        let mut reports = Vec::new();
        for _ in 0..epochs {
            // Half of each class runs a sparse regime, half a dense one;
            // offsets decorrelate the phases without changing the fitted
            // statistics much.
            let arrivals = feed(&fleet, |d| {
                pattern(500, d, if d % 2 == 0 { 1 } else { 5 }, 8)
            });
            reports.push(fleet.run_epoch(&arrivals).expect("epoch runs"));
        }
        (fleet, reports)
    }

    #[test]
    fn fleet_results_are_identical_for_worker_counts_1_2_8() {
        let (fleet1, reports1) = run_fleet(1, 3);
        for workers in [2, 8] {
            let (fleet_n, reports_n) = run_fleet(workers, 3);
            assert_eq!(reports1, reports_n, "reports differ at {workers} workers");
            for &id in fleet1.device_ids() {
                assert_eq!(
                    fleet1.cluster_of(id),
                    fleet_n.cluster_of(id),
                    "{id} cluster differs at {workers} workers"
                );
                assert_eq!(
                    fleet1.policy(id).map(|p| (**p).clone()),
                    fleet_n.policy(id).map(|p| (**p).clone()),
                    "{id} policy differs at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn statistically_close_devices_share_one_solve_and_one_policy() {
        let mut fleet = fleet_of(config(2), &drifting_system(0.1, 0.6), 6);
        let arrivals = feed(&fleet, |d| pattern(500, d, 2, 8));
        let report = fleet.run_epoch(&arrivals).expect("epoch");
        assert_eq!(report.fitted, 6);
        assert_eq!(report.clusters, 1, "alike devices should share a cluster");
        assert_eq!(report.solves, 1, "one cluster, one solve");
        let ids = fleet.device_ids();
        let first = fleet.policy(ids[0]).expect("policy");
        for &id in &ids[1..] {
            assert!(
                Arc::ptr_eq(first, fleet.policy(id).expect("policy")),
                "{id} should share the first device's policy allocation"
            );
        }
    }

    #[test]
    fn forked_cluster_sessions_reuse_the_class_symbolic_analysis() {
        let mut fleet = fleet_of(config(2), &drifting_system(0.1, 0.6), 6);
        // Three distinct regimes → three clusters, three solves, every
        // one on a fork of the same base session.
        let arrivals = feed(&fleet, |d| pattern(500, 0, 1 + 3 * (d % 3), 9));
        let report = fleet.run_epoch(&arrivals).expect("epoch");
        assert_eq!(report.clusters, 3);
        assert_eq!(report.solves, 3);
        // Every warm solve reuses the class analysis at least once (the
        // reload-time refactor; the end-of-solve refactor at a retained
        // basis can add another) — the point is that no cluster pays for
        // a fresh symbolic analysis.
        assert!(
            report.symbolic_reuses >= report.solves,
            "{} reuses for {} solves",
            report.symbolic_reuses,
            report.solves
        );
        assert_eq!(report.cold_reloads, 0);
    }

    #[test]
    fn drifted_device_is_evicted_and_rehomed() {
        let mut fleet = fleet_of(config(1), &drifting_system(0.1, 0.6), 4);
        let alike = feed(&fleet, |d| pattern(500, d, 2, 8));
        let first = fleet.run_epoch(&alike).expect("epoch 0");
        assert_eq!(first.clusters, 1);
        // Device 3 switches regime hard; its window flushes over two
        // epochs and its fit leaves the cluster.
        let mut drifted = alike;
        drifted[3].1 = pattern(500, 0, 7, 8);
        let mut last = fleet.run_epoch(&drifted).expect("epoch 1");
        if last.evictions == 0 {
            last = fleet.run_epoch(&drifted).expect("epoch 2");
        }
        assert_eq!(last.evictions, 1, "device 3 should be evicted");
        assert_eq!(last.clusters, 2, "device 3 should found its own cluster");
        assert_ne!(
            fleet.cluster_of(drifted[3].0),
            fleet.cluster_of(drifted[0].0)
        );
    }

    #[test]
    fn event_gate_skips_stationary_epochs_and_cooldown_holds() {
        let mut fleet = fleet_of(config(1), &drifting_system(0.1, 0.6), 3);
        let arrivals = feed(&fleet, |_| pattern(500, 0, 2, 8));
        let first = fleet.run_epoch(&arrivals).expect("epoch 0");
        assert_eq!(first.solves, 1, "first epoch always solves");
        let second = fleet.run_epoch(&arrivals).expect("epoch 1");
        assert_eq!(second.solves, 0, "stationary stream should not re-solve");
        assert_eq!(second.skipped, second.clusters);
    }

    #[test]
    fn quiet_gate_skips_devices_whose_counts_did_not_move() {
        let quiet = config(1).quiet_divergence(0.0);
        let mut fleet = fleet_of(quiet, &drifting_system(0.1, 0.6), 4);
        // The pattern period (8) divides the epoch length and the
        // 400-slice window, so after the first fit every further calm
        // epoch refills the window with bit-identical counts.
        let arrivals = feed(&fleet, |d| pattern(400, d, 2, 8));
        let first = fleet.run_epoch(&arrivals).expect("epoch 0");
        assert_eq!(first.gauge_refits, 4, "first fit is never skipped");
        assert_eq!(first.gauge_skips, 0);
        let second = fleet.run_epoch(&arrivals).expect("epoch 1");
        assert_eq!(second.gauge_skips, 4, "calm epoch should skip all gauges");
        assert_eq!(second.gauge_refits, 0);
        // A regime flip wakes the gauge back up.
        let surged = feed(&fleet, |d| pattern(400, d, 7, 8));
        let third = fleet.run_epoch(&surged).expect("epoch 2");
        assert_eq!(third.gauge_refits, 4, "surge must refit every device");
    }

    #[test]
    fn churned_devices_come_and_go_without_any_re_prepare() {
        let mut fleet = fleet_of(config(1), &drifting_system(0.1, 0.6), 2);
        let [a, b] = [fleet.device_ids()[0], fleet.device_ids()[1]];
        let arrivals = feed(&fleet, |d| pattern(500, d, 2, 8));
        fleet.run_epoch(&arrivals).expect("epoch 0");
        assert_eq!(fleet.clusters(), 1);
        let c = fleet.add_device(ClassId(0)).expect("adds");
        assert_eq!(fleet.devices(), 3);
        assert!(
            fleet.cluster_of(c).is_none(),
            "new device is unclustered until its window fills"
        );
        assert!(
            fleet.add_device(ClassId(9)).is_err(),
            "unknown class is rejected"
        );
        // Remove the cluster representative: the cluster survives and
        // keeps the surviving member.
        fleet.remove_device(a).expect("removes");
        assert_eq!(fleet.devices(), 2);
        assert_eq!(fleet.cluster_of(b), Some(0));
        // Removing the last member drops the cluster.
        fleet.remove_device(b).expect("removes");
        assert_eq!(fleet.clusters(), 0);
        assert!(fleet.remove_device(b).is_err(), "a retired id is rejected");
        // The remaining (freshly added) device still runs epochs.
        let report = fleet
            .run_epoch(&[(c, pattern(500, 0, 2, 8))])
            .expect("epoch 1");
        assert_eq!((report.devices, report.clusters), (1, 1));
    }
}
