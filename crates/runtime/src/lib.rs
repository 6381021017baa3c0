//! Closed-loop adaptive power management: **estimate → re-solve →
//! hot-swap**, every epoch, at warm-start cost.
//!
//! The paper computes its optimal randomized policy **offline** from a
//! stationary SR/SP model and concedes (Section VII) that the result
//! degrades when the workload drifts. This crate closes the loop at run
//! time without abandoning the paper's LP-optimal core:
//!
//! 1. a streaming [`WindowedEstimator`]
//!    re-fits the k-memory SR model of Section V over a sliding window
//!    of the live arrival stream;
//! 2. every epoch the re-fitted chain is recomposed and **hot-swapped**
//!    into the standing occupation-LP session
//!    ([`PreparedOptimization::update_model`]), which keeps its optimal
//!    basis across the swap — a same-support refit preserves the LP's
//!    sparsity pattern, so the re-solve is a *warm*
//!    [`ReloadKind::Warm`] feasibility repair of a handful of pivots,
//!    not a cold two-phase solve;
//! 3. the re-solved randomized policy (equation (16)) replaces the
//!    running one between two slices.
//!
//! The whole loop lives behind the ordinary
//! [`PowerManager`] trait, so an
//! [`AdaptiveController`] runs on the **unmodified**
//! [`Simulator`](dpm_sim::Simulator "Simulator") next to the eager/timeout baselines
//! and the static LP-optimal policy it is measured against.
//!
//! For managing **many** devices at once — sharded estimation across a
//! fixed worker pool, one LP solve per *cluster* of statistically close
//! devices, event-driven re-solves — see the [`fleet`] module and
//! `docs/FLEET.md`.
//!
//! # Example
//!
//! ```
//! use dpm_runtime::{AdaptiveConfig, AdaptiveController};
//! use dpm_sim::{SimConfig, Simulator};
//! use dpm_systems::drifting;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The blended system: a stationary fit of a drifting workload.
//! let system = drifting::blended_system(7)?;
//! let config = AdaptiveConfig::new()
//!     .epoch_slices(2_000)
//!     .memory(drifting::MEMORY)
//!     .smoothing(drifting::SMOOTHING)
//!     .horizon(100_000.0)
//!     .max_performance_penalty(0.5);
//! let mut controller = AdaptiveController::new(&system, config)?;
//! let trace = drifting::workload(10_000, 7);
//! let mut tracker = dpm_trace::KMemoryTracker::new(drifting::MEMORY).tracker();
//! let stats = Simulator::new(&system, SimConfig::new(10_000))
//!     .run_trace(&mut controller, &trace, &mut tracker)?;
//! assert!(stats.average_power() > 0.0);
//! assert!(!controller.epochs().is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod fleet;
pub mod service;

pub use fleet::{DeviceHealth, FleetConfig, FleetReport};
pub use service::{ClassId, DeviceId, FleetService, RestoreReport, SnapshotError};

use dpm_core::{
    DpmError, PolicyOptimizer, PolicySolution, PreparedOptimization, ServiceProvider, ServiceQueue,
    ServiceRequester, SolverKind, SystemModel,
};
use dpm_lp::{ReloadKind, SolveBudget, SolveReport};
use dpm_mdp::RandomizedPolicy;
use dpm_sim::{Observation, PowerManager};
use dpm_trace::{SrExtractor, WindowKind, WindowedEstimator};
use rand::Rng;

/// Configuration of an [`AdaptiveController`] (builder style).
///
/// Defaults: 2 000-slice epochs, memory k = 2 with Laplace smoothing
/// 0.5 (strictly positive smoothing keeps the fitted chain's support —
/// and with it the occupation LP's sparsity pattern — stable, which is
/// what keeps the per-epoch reloads warm), a sliding window of 4 epochs,
/// a 100 000-slice horizon, no constraints, the
/// [`SolverKind::RevisedSimplex`] engine, re-solve on any drift
/// (`min_divergence = 0`), no re-solve cooldown, and command 0 as the
/// serve-at-all-costs fallback for infeasible epochs.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    pub(crate) epoch_slices: u64,
    pub(crate) memory: u32,
    pub(crate) smoothing: f64,
    pub(crate) window: Option<WindowKind>,
    pub(crate) discount: f64,
    pub(crate) max_performance_penalty: Option<f64>,
    pub(crate) max_request_loss_rate: Option<f64>,
    pub(crate) solver: SolverKind,
    pub(crate) min_divergence: f64,
    pub(crate) resolve_cooldown: u64,
    pub(crate) wake_command: usize,
    pub(crate) solve_budget: SolveBudget,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptiveConfig {
    /// The default configuration (see the type-level docs).
    pub fn new() -> Self {
        AdaptiveConfig {
            epoch_slices: 2_000,
            memory: 2,
            smoothing: 0.5,
            window: None,
            discount: 1.0 - 1.0 / 100_000.0,
            max_performance_penalty: None,
            max_request_loss_rate: None,
            solver: SolverKind::default(),
            min_divergence: 0.0,
            resolve_cooldown: 0,
            wake_command: 0,
            solve_budget: SolveBudget::UNLIMITED,
        }
    }

    /// Slices between re-estimate/re-solve points. Clamped to ≥ 1.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn epoch_slices(mut self, slices: u64) -> Self {
        self.epoch_slices = slices.max(1);
        self
    }

    /// Memory `k` of the estimated SR model (`2^k` states); must match
    /// the simulated system's SR state count.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn memory(mut self, k: u32) -> Self {
        self.memory = k;
        self
    }

    /// Laplace smoothing of every fit. Keep strictly positive: zero
    /// smoothing lets unobserved transitions drop out of the fitted
    /// chain's support, which changes the occupation LP's sparsity
    /// pattern and degrades the per-epoch reloads to cold.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn smoothing(mut self, alpha: f64) -> Self {
        self.smoothing = alpha.max(0.0);
        self
    }

    /// The estimator's window (default: sliding over 4 epochs).
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn window(mut self, window: WindowKind) -> Self {
        self.window = Some(window);
        self
    }

    /// Discount factor `α ∈ (0, 1)` of the per-epoch problems.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn discount(mut self, alpha: f64) -> Self {
        self.discount = alpha;
        self
    }

    /// Expected session length in slices; the discount becomes
    /// `1 − 1/horizon`.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn horizon(mut self, slices: f64) -> Self {
        self.discount = 1.0 - 1.0 / slices;
        self
    }

    /// Bounds the per-slice performance penalty (average queue backlog)
    /// of every per-epoch solve.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn max_performance_penalty(mut self, bound: f64) -> Self {
        self.max_performance_penalty = Some(bound);
        self
    }

    /// Bounds the per-slice request-loss rate of every per-epoch solve.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn max_request_loss_rate(mut self, bound: f64) -> Self {
        self.max_request_loss_rate = Some(bound);
        self
    }

    /// The LP engine behind the standing session.
    /// [`SolverKind::RevisedSimplex`] (the default) is the only engine
    /// with warm reloads; the others re-solve cold each epoch (correct,
    /// just slower) and serve as cross-checks.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn solver(mut self, kind: SolverKind) -> Self {
        self.solver = kind;
        self
    }

    /// Drift gate: when the estimator's divergence between consecutive
    /// fits stays *below* this threshold, the epoch keeps the current
    /// policy and skips the re-solve entirely. 0 (the default) re-solves
    /// every epoch.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn min_divergence(mut self, threshold: f64) -> Self {
        self.min_divergence = threshold.max(0.0);
        self
    }

    /// Event-driven damping of the re-solve cadence: after a re-solve,
    /// the next `epochs` epoch boundaries keep the current policy even
    /// when the drift gate fires (fits still happen every epoch, so the
    /// estimator and its divergence gauge stay live). Together with
    /// [`Self::min_divergence`] this turns the fixed-epoch refit into an
    /// event-driven one: re-solve on threshold crossing, then hold for
    /// the cooldown. 0 (the default) disables the hold. The
    /// infeasible-fallback escape hatch bypasses the cooldown — any
    /// feasible model is an upgrade over serve-at-all-costs.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn resolve_cooldown(mut self, epochs: u64) -> Self {
        self.resolve_cooldown = epochs;
        self
    }

    /// Caps the work of every solve on the standing session (pivots
    /// and/or refactorizations, see [`SolveBudget`]). An exhausted
    /// budget is a planned, recoverable stop: the epoch climbs the
    /// escalation ladder (warm retry resumes from the partial basis,
    /// then forced refactorization, then a cold rebuild) and in the
    /// worst case holds the last-good policy under exponential backoff.
    /// Unlimited by default. The construction-time solve runs under the
    /// same budget, so a budget too small for one cold solve fails
    /// construction.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn solve_budget(mut self, budget: SolveBudget) -> Self {
        self.solve_budget = budget;
        self
    }

    /// The command issued unconditionally while an epoch's constraints
    /// are infeasible under the fitted model — serve-at-all-costs until
    /// a later epoch becomes feasible again.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn infeasible_fallback_command(mut self, command: usize) -> Self {
        self.wake_command = command;
        self
    }

    /// Checks that `system`'s SR has the `2^memory` states the estimator
    /// refits: policy tables are indexed by the observed composite
    /// state, so the state spaces must align.
    pub(crate) fn check_system(&self, system: &SystemModel) -> Result<(), DpmError> {
        let expected = 1usize.checked_shl(self.memory).unwrap_or(0);
        if self.memory == 0 || system.requester().num_states() != expected {
            return Err(DpmError::BadConfiguration {
                reason: format!(
                    "an estimator of memory {} needs a {expected}-state SR, the system has {}",
                    self.memory,
                    system.requester().num_states()
                ),
            });
        }
        Ok(())
    }

    /// The extractor of the configured memory and smoothing.
    pub(crate) fn extractor(&self) -> Result<SrExtractor, DpmError> {
        Ok(SrExtractor::try_new(self.memory)?.with_smoothing(self.smoothing))
    }

    /// An empty estimator: the configured extractor over the configured
    /// window (default: sliding over 4 epochs).
    pub(crate) fn estimator(&self) -> Result<WindowedEstimator, DpmError> {
        let window = self.window.unwrap_or(WindowKind::Sliding(
            (4 * self.epoch_slices as usize).max(self.memory as usize + 1),
        ));
        WindowedEstimator::new(self.extractor()?, window)
    }

    /// A fresh prepared session for `system` under the configured
    /// discount, engine, bounds and solve budget (its forks inherit the
    /// budget).
    pub(crate) fn prepare(&self, system: &SystemModel) -> Result<PreparedOptimization, DpmError> {
        let mut optimizer = PolicyOptimizer::new(system)
            .discount(self.discount)
            .solver(self.solver);
        if let Some(bound) = self.max_performance_penalty {
            optimizer = optimizer.max_performance_penalty(bound);
        }
        if let Some(bound) = self.max_request_loss_rate {
            optimizer = optimizer.max_request_loss_rate(bound);
        }
        let mut prepared = optimizer.prepare()?;
        prepared.set_budget(self.solve_budget);
        Ok(prepared)
    }
}

/// The highest rung of the failure-escalation ladder an epoch's
/// re-solve climbed before it produced an answer (or gave up). Rungs
/// are tried in order; each is strictly more expensive and strictly
/// more likely to recover than the one before, so rungs order bottom
/// (`Direct`) to top (`Hold`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LadderRung {
    /// The first warm attempt solved — the everyday path.
    Direct,
    /// The retry on the untouched session solved (a budget-exhausted
    /// solve resumes from its partial basis, so a retry finishes work
    /// the first attempt started).
    WarmRetry,
    /// The solve after a forced basis refactorization solved.
    ForcedRefactor,
    /// A cold re-prepare of the whole problem solved; the standing
    /// session was replaced.
    ColdRebuild,
    /// Nothing solved: the last-good policy holds and the re-solve
    /// cadence backs off exponentially.
    Hold,
}

/// Climbs the warm rungs of the escalation ladder on `prepared`: a plain
/// solve ([`LadderRung::Direct`]), a retry on the untouched session
/// ([`LadderRung::WarmRetry`]), then a solve after a forced
/// refactorization ([`LadderRung::ForcedRefactor`]). Stops at the first
/// attempt that solves or proves the model infeasible; `attempt` sees
/// every attempt's report. Returns the rung of the last attempt and its
/// verdict: an error other than [`DpmError::Infeasible`] means every
/// warm rung failed, and the cold rung is the caller's.
pub(crate) fn climb_warm_rungs(
    prepared: &mut PreparedOptimization,
    mut attempt: impl FnMut(&SolveReport),
) -> (LadderRung, Result<PolicySolution, DpmError>) {
    let mut rung = LadderRung::Direct;
    loop {
        let solved = prepared.solve();
        attempt(match &solved {
            Ok(solution) => solution.solve_report(),
            Err(_) => prepared.last_report(),
        });
        let failed = matches!(&solved, Err(e) if !matches!(e, DpmError::Infeasible));
        rung = match rung {
            LadderRung::Direct if failed => LadderRung::WarmRetry,
            LadderRung::WarmRetry if failed => {
                // A budget-exhausted or numerically troubled basis may be
                // beyond warm repair: rebuild the factors from scratch
                // before the last warm attempt.
                prepared.force_refactor();
                LadderRung::ForcedRefactor
            }
            _ => return (rung, solved),
        };
    }
}

/// What one epoch of the adaptation loop did — the runtime's flight
/// recorder, which the `tests/adaptive_runtime.rs` and
/// `crates/runtime/tests/adaptive_loop.rs` suites read their warm-vs-cold
/// counters from.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EpochRecord {
    /// 0-based epoch index.
    pub epoch: u64,
    /// Slice at which the epoch boundary fired.
    pub slice: u64,
    /// The estimator's divergence gauge at fit time (`None` on the first
    /// fit).
    pub divergence: Option<f64>,
    /// The SR model fitted for this epoch — kept so offline analyses
    /// (and the warm≡cold agreement tests) can reproduce the epoch's
    /// problem exactly.
    pub requester: ServiceRequester,
    /// `false` when the drift gate kept the previous policy without
    /// re-solving.
    pub refreshed: bool,
    /// How the standing session took the model swap (`None` when the
    /// epoch was skipped or the swap failed before the reload).
    pub reload: Option<ReloadKind>,
    /// The re-solve's report (`None` when skipped or failed earlier).
    pub report: Option<SolveReport>,
    /// `true` when the constraints were infeasible under the fitted
    /// model and the fallback command took over.
    pub infeasible: bool,
    /// Non-infeasibility failure of the swap/solve, if any (the
    /// controller keeps the previous policy and carries on).
    pub error: Option<String>,
    /// The highest escalation-ladder rung this epoch's re-solve climbed
    /// (`None` when the epoch was skipped or failed before any solve).
    pub rung: Option<LadderRung>,
    /// Model-predicted power per slice of the swapped-in policy.
    pub power_per_slice: Option<f64>,
    /// Model-predicted performance penalty per slice of the swapped-in
    /// policy.
    pub performance_per_slice: Option<f64>,
}

/// The policy currently driving decisions.
#[derive(Debug, Clone)]
enum ActivePolicy {
    /// A solved randomized policy table.
    Table(RandomizedPolicy),
    /// Serve-at-all-costs fallback while the fitted problem is
    /// infeasible.
    Fallback,
}

/// A closed-loop adaptive power manager: owns the streaming estimator,
/// the standing constrained-LP session and the currently active
/// randomized policy, and re-estimates/re-solves/hot-swaps at every
/// epoch boundary — all behind the ordinary
/// [`PowerManager`] trait, so it runs on the
/// unmodified [`Simulator`](dpm_sim::Simulator "Simulator").
///
/// Construction solves the configured problem once on the given system
/// (the "static" model — typically a blended offline fit) so the
/// controller starts from the same policy a non-adaptive deployment
/// would ship with; adaptation then takes over from the first epoch.
#[derive(Debug)]
pub struct AdaptiveController {
    config: AdaptiveConfig,
    provider: ServiceProvider,
    queue: ServiceQueue,
    /// `issuing[s]`: does SR state `s` issue requests? How the arrival
    /// bit is read back off the observed composite state (the arrivals
    /// of a slice are encoded in the *destination* SR state, matching
    /// the composer's convention).
    issuing: Vec<bool>,
    estimator: WindowedEstimator,
    prepared: PreparedOptimization,
    policy: ActivePolicy,
    initial_policy: RandomizedPolicy,
    epochs: Vec<EpochRecord>,
    next_refresh: u64,
    /// Epoch boundaries left before the re-solve cooldown expires.
    cooldown_left: u64,
    /// Consecutive epochs the escalation ladder ended in a hold — the
    /// exponent of the backoff.
    consecutive_holds: u32,
    label: String,
}

impl AdaptiveController {
    /// Builds the controller around `system` — the composed model whose
    /// SR occupies the same `2^k` state space the estimator will refit
    /// (its chain is also the initial model the first policy is solved
    /// from).
    ///
    /// # Errors
    ///
    /// * [`DpmError::BadConfiguration`] when the system's SR state count
    ///   is not `2^memory` (the policy table is indexed by the observed
    ///   composite state, so the state spaces must align), when the
    ///   infeasible-fallback command is out of range for the system, or
    ///   for an invalid estimator/optimizer configuration.
    /// * [`DpmError::Infeasible`] when the constraints admit no policy
    ///   under the initial model.
    /// * Propagated estimation/LP failures.
    pub fn new(system: &SystemModel, config: AdaptiveConfig) -> Result<Self, DpmError> {
        config.check_system(system)?;
        if config.wake_command >= system.num_commands() {
            return Err(DpmError::BadConfiguration {
                reason: format!(
                    "infeasible-fallback command {} is out of range for a system with {} \
                     commands",
                    config.wake_command,
                    system.num_commands()
                ),
            });
        }
        let estimator = config.estimator()?;
        let mut prepared = config.prepare(system)?;
        let initial = prepared.solve()?;
        let initial_policy = initial.policy().clone();

        let issuing = (0..system.requester().num_states())
            .map(|s| system.requester().requests(s) > 0)
            .collect();
        let label = format!(
            "adaptive(k={}, epoch={})",
            config.memory, config.epoch_slices
        );
        Ok(AdaptiveController {
            next_refresh: config.epoch_slices,
            config,
            provider: system.provider().clone(),
            queue: *system.queue(),
            issuing,
            estimator,
            prepared,
            policy: ActivePolicy::Table(initial_policy.clone()),
            initial_policy,
            epochs: Vec::new(),
            cooldown_left: 0,
            consecutive_holds: 0,
            label,
        })
    }

    /// Overrides the display name.
    #[must_use = "builder methods return the configured value; dropping it discards the configuration"]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The configuration in force.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// The per-epoch flight records of the current run (cleared by
    /// [`PowerManager::reset`], i.e. at the start of every simulation).
    pub fn epochs(&self) -> &[EpochRecord] {
        &self.epochs
    }

    /// Epochs whose model swap reloaded warm — the acceptance counter:
    /// on same-support refits with the default engine this should be
    /// *all* refreshed epochs.
    pub fn warm_reloads(&self) -> usize {
        self.epochs
            .iter()
            .filter(|e| e.reload == Some(ReloadKind::Warm))
            .count()
    }

    /// Epochs whose model swap fell back to a cold rebuild.
    pub fn cold_reloads(&self) -> usize {
        self.epochs
            .iter()
            .filter(|e| e.reload == Some(ReloadKind::Cold))
            .count()
    }

    /// Epochs the drift gate skipped (kept the policy, no solve).
    pub fn skipped_epochs(&self) -> usize {
        self.epochs.iter().filter(|e| !e.refreshed).count()
    }

    /// Epochs whose escalation ladder ended in a last-good-policy hold.
    pub fn held_epochs(&self) -> usize {
        self.epochs
            .iter()
            .filter(|e| e.rung == Some(LadderRung::Hold))
            .count()
    }

    /// Total simplex pivots spent by the per-epoch re-solves.
    pub fn epoch_pivots(&self) -> usize {
        self.epochs
            .iter()
            .filter_map(|e| e.report.as_ref())
            .map(|r| r.iterations)
            .sum()
    }

    /// The currently active policy table (`None` while the infeasible
    /// fallback is driving).
    pub fn current_policy(&self) -> Option<&RandomizedPolicy> {
        match &self.policy {
            ActivePolicy::Table(p) => Some(p),
            ActivePolicy::Fallback => None,
        }
    }

    /// Hardens a solved policy for **closed-loop** deployment: states the
    /// fitted model deems (essentially) unreachable keep no meaningful
    /// action in the occupation measure, and the LP extraction's
    /// min-immediate-cost tie-break puts the cheapest command there —
    /// usually "sleep", which in a power-managed system is an **absorbing
    /// trap**: when reality drifts off the model's support (a regime
    /// switch mid-epoch, say) the system can land in `(off, busy, queue
    /// full)`-style states whose prescribed action keeps it there until
    /// the next epoch. Off-measure states get the serve-at-all-costs
    /// command instead, so excursions outside the model's support drain
    /// back into it. On-measure states keep the LP's exact randomization.
    fn off_measure_guard(&self, solution: &PolicySolution) -> Result<RandomizedPolicy, DpmError> {
        let occupation = solution.constrained().occupation();
        let frequencies = occupation.state_frequencies();
        let floor = occupation.total_visits() * 1e-9;
        let policy = solution.policy();
        let commands = policy.decision(0).len();
        let rows: Vec<Vec<f64>> = frequencies
            .iter()
            .enumerate()
            .map(|(s, &freq)| {
                if freq > floor {
                    policy.decision(s).to_vec()
                } else {
                    let mut row = vec![0.0; commands];
                    row[self.config.wake_command] = 1.0;
                    row
                }
            })
            .collect();
        Ok(RandomizedPolicy::new(rows)?)
    }

    /// One epoch boundary: fit, gate on drift, recompose, hot-swap.
    fn refresh(&mut self, slice: u64) {
        let extractor = *self.estimator.extractor();
        let fitted = match self.estimator.fit().and_then(|fit| extractor.model(fit)) {
            Ok(sr) => sr,
            // Unreachable given the `is_ready` guard at the call site;
            // keep the previous policy if it ever happens.
            Err(_) => return,
        };
        let divergence = self.estimator.divergence();
        let mut record = EpochRecord {
            epoch: self.epochs.len() as u64,
            slice,
            divergence,
            requester: fitted.clone(),
            refreshed: false,
            reload: None,
            report: None,
            infeasible: false,
            error: None,
            rung: None,
            power_per_slice: None,
            performance_per_slice: None,
        };
        // Drift gate: skip the solve when the model barely moved — unless
        // the fallback is driving (then any feasible model is an upgrade)
        // or this is the first fit (no divergence to gate on). The
        // cooldown holds the policy for a few epochs after each re-solve
        // (the fallback escape hatch bypasses it).
        let drifted = divergence.is_none_or(|d| d >= self.config.min_divergence);
        let cooled = self.cooldown_left == 0;
        self.cooldown_left = self.cooldown_left.saturating_sub(1);
        let must = matches!(self.policy, ActivePolicy::Fallback);
        if (drifted && cooled) || must {
            record.refreshed = true;
            self.cooldown_left = self.config.resolve_cooldown;
            if let Err(e) = self.hot_swap(fitted, &mut record) {
                record.error = Some(e.to_string());
            }
        }
        self.epochs.push(record);
    }

    /// Adopts a solved epoch into the record and the active policy.
    fn adopt(
        &mut self,
        solution: &PolicySolution,
        rung: LadderRung,
        record: &mut EpochRecord,
    ) -> Result<(), DpmError> {
        record.rung = Some(rung);
        record.report = Some(solution.solve_report().clone());
        record.power_per_slice = Some(solution.power_per_slice());
        record.performance_per_slice = Some(solution.performance_per_slice());
        self.policy = ActivePolicy::Table(self.off_measure_guard(solution)?);
        self.consecutive_holds = 0;
        Ok(())
    }

    /// Recomposes the system around the fitted SR and swaps it into the
    /// standing session; on success the re-solved policy replaces the
    /// active one, on infeasibility the fallback command takes over.
    /// Solve failures climb the escalation ladder: warm retry → forced
    /// refactorization → cold rebuild of the whole session → hold the
    /// last-good policy with exponential cooldown backoff.
    fn hot_swap(
        &mut self,
        fitted: ServiceRequester,
        record: &mut EpochRecord,
    ) -> Result<(), DpmError> {
        let system = SystemModel::compose(self.provider.clone(), fitted, self.queue)?;
        record.reload = Some(self.prepared.update_model(system.chain())?);
        let (mut rung, mut solved) = climb_warm_rungs(&mut self.prepared, |report| {
            record.report = Some(report.clone());
        });
        if matches!(&solved, Err(e) if !matches!(e, DpmError::Infeasible)) {
            // Rung 3: rebuild the whole prepared session from scratch.
            // The old session (and its poisoned/exhausted basis) is
            // replaced only if the rebuild itself succeeds.
            rung = LadderRung::ColdRebuild;
            solved = self.config.prepare(&system).and_then(|mut prepared| {
                let solution = prepared.solve()?;
                self.prepared = prepared;
                Ok(solution)
            });
        }
        match solved {
            Ok(solution) => self.adopt(&solution, rung, record),
            Err(DpmError::Infeasible) => {
                record.rung = Some(rung);
                record.infeasible = true;
                self.policy = ActivePolicy::Fallback;
                self.consecutive_holds = 0;
                Ok(())
            }
            // Rung 4: hold the last-good policy; back off exponentially
            // so a persistently failing problem is not hammered every
            // epoch (capped at 64 epochs).
            Err(e) => {
                record.rung = Some(LadderRung::Hold);
                self.consecutive_holds = self.consecutive_holds.saturating_add(1);
                self.cooldown_left = self
                    .config
                    .resolve_cooldown
                    .max(1u64 << self.consecutive_holds.min(6));
                Err(e)
            }
        }
    }
}

impl PowerManager for AdaptiveController {
    fn decide(&mut self, observation: &Observation, rng: &mut dyn rand::RngCore) -> usize {
        // The arrivals of the previous slice are encoded in the observed
        // (destination) SR state; slice 0 shows the initial state, which
        // nobody arrived in.
        if observation.slice > 0 {
            self.estimator
                .observe(u32::from(self.issuing[observation.state.sr]));
        }
        if observation.slice >= self.next_refresh && self.estimator.is_ready() {
            self.refresh(observation.slice);
            self.next_refresh = observation.slice + self.config.epoch_slices;
        }
        match &self.policy {
            ActivePolicy::Fallback => self.config.wake_command,
            ActivePolicy::Table(policy) => policy.sample(observation.state_index, rng.gen()),
        }
    }

    fn reset(&mut self) {
        self.estimator.reset();
        self.policy = ActivePolicy::Table(self.initial_policy.clone());
        self.epochs.clear();
        self.next_refresh = self.config.epoch_slices;
        self.cooldown_left = 0;
        self.consecutive_holds = 0;
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}
