//! # markov-dpm — policy optimization for dynamic power management
//!
//! A complete Rust reproduction of L. Benini, A. Bogliolo, G. A. Paleologo
//! and G. De Micheli, *"Policy Optimization for Dynamic Power Management"*
//! (DAC 1998 / IEEE TCAD 18(6), 1999).
//!
//! The paper models a power-managed system as the composition of three
//! finite Markov chains — a *service provider* (the resource being power
//! managed), a *service requester* (the workload) and a *service queue* —
//! and shows that the policy that optimally trades power for performance is
//! the exact solution of a linear program over discounted state–action
//! frequencies. This crate is a facade that re-exports the whole workspace:
//!
//! * [`linalg`] — dense matrices, LU and Cholesky factorizations,
//! * [`lp`] — two-phase simplex and PCx-style interior-point LP solvers,
//! * [`markov`] — sparse (CSR) stochastic matrices and controlled Markov chains,
//! * [`mdp`] — discounted and constrained Markov decision processes,
//! * [`core`] — the paper's system model and the policy optimizer,
//! * [`sim`] — a slotted-time stochastic simulator (model- and trace-driven),
//! * [`trace`] — workload traces, the k-memory SR extractor, generators,
//! * [`policies`] — heuristic baselines (eager, timeout, randomized),
//! * [`systems`] — the paper's case studies (disk, web server, CPU, toy)
//!   plus the nonstationary `drifting` scenario,
//! * [`runtime`] — the closed-loop **online adaptation** runtime
//!   (estimate → warm re-solve → hot-swap).
//!
//! # Building and testing
//!
//! The workspace builds with stable Rust (≥ 1.85; CI pins 1.95.0):
//!
//! ```text
//! cargo build --release          # optimized build (lto, codegen-units=1)
//! cargo test -q --workspace      # unit + integration + property + doc tests
//! cargo bench -p dpm-bench --bench solvers       # LP engine tables
//! cargo run --release -p dpm-bench --bin table1   # reproduce a paper table
//! ```
//!
//! Performance is measured with the repository benchmark in
//! `perfbench/` (see `docs/BENCHMARKING.md`). The build is fully
//! offline: the third-party crates `rand` and `proptest` are shadowed by
//! in-workspace stand-ins under `crates/compat/` that implement the API
//! slice this workspace uses. See `ROADMAP.md` for the crate dependency
//! diagram.
//!
//! # Quickstart
//!
//! Optimize the paper's running example system for minimum power under a
//! performance constraint and print the resulting randomized policy:
//!
//! ```
//! use dpm::core::{OptimizationGoal, PolicyOptimizer};
//! use dpm::systems::toy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = toy::example_system()?;
//! let solution = PolicyOptimizer::new(&system)
//!     .discount(0.999)
//!     .goal(OptimizationGoal::MinimizePower)
//!     .max_performance_penalty(0.5)
//!     .max_request_loss_rate(0.2)
//!     .solve()?;
//! println!("expected power: {:.3} W", solution.power_per_slice());
//! println!("{}", solution.policy());
//! # Ok(())
//! # }
//! ```
//!
//! # Online adaptation
//!
//! The paper's policies are computed offline from a *stationary* model;
//! Section VII concedes that real workloads drift. The [`runtime`] crate
//! closes the loop without giving up the LP-optimal core: an
//! [`AdaptiveController`](runtime::AdaptiveController) owns a streaming
//! [`WindowedEstimator`](trace::WindowedEstimator) (sliding-window
//! k-memory fits with drift detection), a standing
//! occupation-LP session, and the currently active randomized policy.
//! Every epoch it re-fits the workload model, **hot-swaps** the
//! recomposed chain into the session
//! ([`PreparedOptimization::update_model`](core::PreparedOptimization::update_model)
//! → [`SolveSession::reload`](lp::SolveSession::reload)), and replaces
//! the running policy with the re-solved one. Because a same-support
//! refit keeps the LP's sparsity pattern, the swap is **warm**
//! ([`ReloadKind::Warm`](lp::ReloadKind)): the revised simplex keeps its
//! optimal basis, refactorizes the new coefficients, and repairs
//! feasibility in a handful of pivots instead of a cold two-phase solve.
//! The controller is an ordinary [`PowerManager`](sim::PowerManager), so
//! it runs on the unmodified [`Simulator`](sim::Simulator) next to the
//! static and heuristic baselines; on the regime-switching workload of
//! [`systems::drifting`] it beats the static LP-optimal policy's power
//! while every per-epoch solve respects the performance constraint (see
//! `tests/adaptive_runtime.rs`).
//!
//! ```no_run
//! use dpm::runtime::{AdaptiveConfig, AdaptiveController};
//! use dpm::sim::{SimConfig, Simulator};
//! use dpm::systems::drifting;
//! use dpm::trace::KMemoryTracker;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = drifting::blended_system(7)?;
//! let mut controller = AdaptiveController::new(
//!     &system,
//!     AdaptiveConfig::new()
//!         .epoch_slices(drifting::EPOCH_SLICES)
//!         .memory(drifting::MEMORY)
//!         .horizon(drifting::HORIZON)
//!         .max_performance_penalty(drifting::QUEUE_BOUND)
//!         .max_request_loss_rate(drifting::LOSS_BOUND),
//! )?;
//! let trace = drifting::workload(100_000, 7);
//! let stats = Simulator::new(
//!     &system,
//!     SimConfig::new(100_000).restart_probability(1.0 / drifting::HORIZON),
//! )
//! .run_trace(
//!     &mut controller,
//!     &trace,
//!     &mut KMemoryTracker::new(drifting::MEMORY).tracker(),
//! )?;
//! println!(
//!     "adaptive: {:.3} W over {} epochs ({} warm reloads)",
//!     stats.average_power(),
//!     controller.epochs().len(),
//!     controller.warm_reloads(),
//! );
//! # Ok(())
//! # }
//! ```
//!
//! Fleet scale is one layer up: a
//! [`FleetService`](runtime::FleetService) runs the same loop over many
//! devices (sharded estimation, one LP solve per model cluster on
//! forked sessions) as a long-running service — device churn behind
//! stable [`DeviceId`](runtime::DeviceId)s, quiet-epoch gauge skipping
//! ([`FleetConfig::quiet_divergence`](runtime::FleetConfig::quiet_divergence)),
//! and a versioned binary checkpoint/restore. See `docs/FLEET.md` and
//! the correlated rack-shift scenario in [`systems::racks`].

#![forbid(unsafe_code)]

pub use dpm_core as core;
pub use dpm_linalg as linalg;
pub use dpm_lp as lp;
pub use dpm_markov as markov;
pub use dpm_mdp as mdp;
pub use dpm_policies as policies;
pub use dpm_runtime as runtime;
pub use dpm_sim as sim;
pub use dpm_systems as systems;
pub use dpm_trace as trace;
