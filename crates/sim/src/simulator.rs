use std::collections::VecDeque;

use dpm_core::{DpmError, SystemModel, SystemState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Observation, PowerManager, SimStats};

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Slices to simulate.
    pub slices: u64,
    /// RNG seed (runs are fully reproducible).
    pub seed: u64,
    /// Starting composite state; defaults to `(0, 0, 0)` — first SP state,
    /// first SR state, empty queue.
    pub initial: SystemState,
    /// Per-slice probability of ending the session and restarting from
    /// `initial` — the paper's trap-state model (Fig. 5) made executable.
    /// `None` simulates one uninterrupted trajectory.
    pub restart_probability: Option<f64>,
}

impl SimConfig {
    /// A run of `slices` slices with seed 0 from the default initial
    /// state, without session restarts.
    pub fn new(slices: u64) -> Self {
        SimConfig {
            slices,
            seed: 0,
            initial: SystemState {
                sp: 0,
                sr: 0,
                queue: 0,
            },
            restart_probability: None,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the initial composite state.
    pub fn initial(mut self, state: SystemState) -> Self {
        self.initial = state;
        self
    }

    /// Enables session restarts with per-slice probability `1 − α`,
    /// making long-run simulated averages sample the *discounted*
    /// occupation measure of the optimizer exactly — the right comparison
    /// when an optimal constrained policy is not ergodic (its closed-loop
    /// chain can have several recurrent classes, which a single
    /// uninterrupted trajectory cannot mix between).
    ///
    /// # Panics
    ///
    /// Panics when `one_minus_alpha ∉ [0, 1]`.
    pub fn restart_probability(mut self, one_minus_alpha: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&one_minus_alpha),
            "restart probability {one_minus_alpha} not in [0, 1]"
        );
        self.restart_probability = Some(one_minus_alpha);
        self
    }
}

/// The slotted-time simulator: steps a composed system under a
/// [`PowerManager`], slice by slice, mirroring the semantics of the
/// Markov composer exactly (same event order, same queue dynamics), so
/// that long-run simulated averages converge to the optimizer's expected
/// values — the consistency check of Section V.
#[derive(Debug)]
pub struct Simulator<'a> {
    system: &'a SystemModel,
    config: SimConfig,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over `system`.
    pub fn new(system: &'a SystemModel, config: SimConfig) -> Self {
        Simulator { system, config }
    }

    /// Model-driven run: the service requester is simulated from its
    /// Markov chain.
    ///
    /// # Errors
    ///
    /// [`DpmError::UnknownIndex`] if the configured initial state is out
    /// of range, or if the manager issues an out-of-range command.
    pub fn run(&self, manager: &mut dyn PowerManager) -> Result<SimStats, DpmError> {
        self.run_inner(manager, None)
    }

    /// Trace-driven run: per-slice arrival counts come from `arrivals`
    /// (shorter traces are cycled); the SR *state* shown to the policy is
    /// inferred by `sr_tracker`, a closure fed each slice's arrival count
    /// — use [`binary_tracker`] for two-state workload models.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::run`].
    pub fn run_trace(
        &self,
        manager: &mut dyn PowerManager,
        arrivals: &[u32],
        sr_tracker: &mut dyn FnMut(u32) -> usize,
    ) -> Result<SimStats, DpmError> {
        self.run_inner(manager, Some((arrivals, sr_tracker)))
    }

    #[allow(clippy::type_complexity)]
    fn run_inner(
        &self,
        manager: &mut dyn PowerManager,
        mut trace: Option<(&[u32], &mut dyn FnMut(u32) -> usize)>,
    ) -> Result<SimStats, DpmError> {
        let system = self.system;
        let sp = system.provider();
        let sr = system.requester();
        let capacity = system.queue().capacity();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        manager.reset();

        let mut state = self.config.initial;
        // Validate the initial state once.
        system.state_index(state)?;

        let mut stats = SimStats {
            sp_state_slices: vec![0; sp.num_states()],
            commands_issued: vec![0; sp.num_commands()],
            ..Default::default()
        };
        // Arrival slice of each enqueued request, for latency accounting.
        let mut backlog: VecDeque<u64> = VecDeque::with_capacity(capacity + 1);
        let mut idle_slices: u64 = 0;

        for slice in 0..self.config.slices {
            // Session boundary: with probability 1 − α the session closes
            // and a fresh one starts from the configured initial state.
            if let Some(p) = self.config.restart_probability {
                if rng.gen::<f64>() < p {
                    state = self.config.initial;
                    backlog.clear();
                    idle_slices = 0;
                }
            }
            let state_index = system
                .state_index(state)
                .expect("state stays in range by construction");
            let observation = Observation::new(state, state_index, slice, idle_slices);
            let command = manager.decide(&observation, &mut rng);
            if command >= sp.num_commands() {
                return Err(DpmError::UnknownIndex {
                    kind: "command",
                    index: command,
                    limit: sp.num_commands(),
                });
            }

            // Accounting at the start of the slice.
            stats.energy += sp.power(state.sp, command);
            stats.queue_slices += state.queue as f64;
            stats.sp_state_slices[state.sp] += 1;
            stats.commands_issued[command] += 1;

            // SP transition.
            let next_sp = sp.chain().kernel(command).row(state.sp).sample(rng.gen());

            // SR transition / trace feed: arrivals during this slice come
            // from the *destination* SR state (Example 3.5's convention).
            let (next_sr, arrivals) = match &mut trace {
                None => {
                    let next = sr
                        .chain()
                        .transition_matrix()
                        .row(state.sr)
                        .sample(rng.gen());
                    (next, sr.requests(next))
                }
                Some((trace_arrivals, tracker)) => {
                    let a = trace_arrivals[(slice % trace_arrivals.len() as u64) as usize];
                    (tracker(a), a)
                }
            };

            // Loss-indicator accounting (the paper's constraint quantity):
            // requests issued while the queue is full.
            if arrivals > 0 && state.queue == capacity {
                stats.loss_indicator_slices += 1;
            }

            // Queue update: enqueue arrivals (dropping overflow), then at
            // most one service completion with probability σ(sp, a).
            stats.arrived += arrivals as u64;
            let sigma = sp.service_rate(state.sp, command);
            let mut present = state.queue + arrivals as usize;
            let served = present > 0 && rng.gen::<f64>() < sigma;
            if served {
                present -= 1;
            }
            let next_queue = present.min(capacity);
            let lost = present - next_queue;
            stats.lost += lost as u64;

            // Latency bookkeeping mirrors the same dynamics on a FIFO of
            // arrival timestamps.
            for _ in 0..arrivals {
                backlog.push_back(slice);
            }
            if served {
                if let Some(arrived_at) = backlog.pop_front() {
                    stats.served += 1;
                    stats.waiting_slices += (slice - arrived_at + 1) as f64;
                }
            }
            while backlog.len() > next_queue {
                backlog.pop_back(); // lost requests leave the FIFO
            }

            idle_slices = if arrivals > 0 || next_queue > 0 {
                0
            } else {
                idle_slices + 1
            };

            state = SystemState {
                sp: next_sp,
                sr: next_sr,
                queue: next_queue,
            };
        }
        stats.slices = self.config.slices;
        Ok(stats)
    }
}

/// An SR-state tracker for two-state workload models: state 1 while
/// requests arrive, state 0 otherwise. Pass to [`Simulator::run_trace`].
pub fn binary_tracker() -> impl FnMut(u32) -> usize {
    |arrivals: u32| usize::from(arrivals > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstantCommandManager, StochasticPolicyManager};
    use dpm_core::{
        OptimizationGoal, PolicyOptimizer, ServiceProvider, ServiceQueue, ServiceRequester,
    };

    /// The running-example system with the calibrated workload.
    fn toy_system() -> SystemModel {
        let mut b = ServiceProvider::builder();
        let on = b.add_state("on");
        let off = b.add_state("off");
        let s_on = b.add_command("s_on");
        let s_off = b.add_command("s_off");
        b.transition(off, on, s_on, 0.1).unwrap();
        b.transition(on, off, s_off, 0.8).unwrap();
        b.service_rate(on, s_on, 0.8).unwrap();
        b.power(on, s_on, 3.0).unwrap();
        b.power(on, s_off, 4.0).unwrap();
        b.power(off, s_on, 4.0).unwrap();
        let sp = b.build().unwrap();
        let sr = ServiceRequester::two_state(0.05, 0.85).unwrap();
        SystemModel::compose(sp, sr, ServiceQueue::with_capacity(1)).unwrap()
    }

    #[test]
    fn always_on_draws_constant_power() {
        let system = toy_system();
        let sim = Simulator::new(&system, SimConfig::new(20_000).seed(3));
        let stats = sim.run(&mut ConstantCommandManager::new(0)).unwrap();
        assert!((stats.average_power() - 3.0).abs() < 1e-9);
        assert_eq!(stats.sp_state_fraction(0), 1.0);
        assert_eq!(stats.commands_issued[0], 20_000);
    }

    #[test]
    fn workload_frequency_matches_stationary_distribution() {
        let system = toy_system();
        let sim = Simulator::new(&system, SimConfig::new(200_000).seed(11));
        let stats = sim.run(&mut ConstantCommandManager::new(0)).unwrap();
        // π_busy = 0.05 / (0.05 + 0.15) = 0.25 ⇒ arrivals ≈ 0.25/slice.
        let rate = stats.arrived as f64 / stats.slices as f64;
        assert!((rate - 0.25).abs() < 0.01, "arrival rate {rate}");
    }

    #[test]
    fn simulation_validates_optimizer_expectations() {
        // The paper's key consistency check: simulate the optimizer's
        // policy and compare simulated power/queue with LP expectations.
        let system = toy_system();
        let solution = PolicyOptimizer::new(&system)
            .discount(0.99999)
            .goal(OptimizationGoal::MinimizePower)
            .max_performance_penalty(0.5)
            .max_request_loss_rate(0.2)
            .solve()
            .unwrap();
        let mut manager = StochasticPolicyManager::new(solution.policy().clone());
        let sim = Simulator::new(&system, SimConfig::new(400_000).seed(17));
        let stats = sim.run(&mut manager).unwrap();
        let dp = (stats.average_power() - solution.power_per_slice()).abs();
        let dq = (stats.average_queue() - solution.performance_per_slice()).abs();
        assert!(
            dp < 0.08,
            "power: sim {} vs lp {}",
            stats.average_power(),
            solution.power_per_slice()
        );
        assert!(
            dq < 0.05,
            "queue: sim {} vs lp {}",
            stats.average_queue(),
            solution.performance_per_slice()
        );
        // Loss indicator rate also agrees.
        let dl = (stats.loss_indicator_rate() - solution.loss_per_slice()).abs();
        assert!(
            dl < 0.03,
            "loss: sim {} vs lp {}",
            stats.loss_indicator_rate(),
            solution.loss_per_slice()
        );
    }

    #[test]
    fn trace_driven_matches_model_driven_for_matching_trace() {
        // Feed a trace generated by the same two-state process: the two
        // modes must agree closely (this is what the circles landing on
        // the curve in Fig. 8(b) demonstrate).
        let system = toy_system();
        // Generate a trace from the SR chain.
        let mut rng = StdRng::seed_from_u64(23);
        let p = system.requester().chain().transition_matrix().clone();
        let mut s = 0usize;
        let trace: Vec<u32> = (0..300_000)
            .map(|_| {
                s = p.row(s).sample(rng.gen());
                system.requester().requests(s)
            })
            .collect();
        let solution = PolicyOptimizer::new(&system)
            .discount(0.99999)
            .max_performance_penalty(0.5)
            .max_request_loss_rate(0.2)
            .solve()
            .unwrap();
        let sim = Simulator::new(&system, SimConfig::new(300_000).seed(29));
        let mut m1 = StochasticPolicyManager::new(solution.policy().clone());
        let model_stats = sim.run(&mut m1).unwrap();
        let mut m2 = StochasticPolicyManager::new(solution.policy().clone());
        let mut tracker = binary_tracker();
        let trace_stats = sim.run_trace(&mut m2, &trace, &mut tracker).unwrap();
        assert!(
            (model_stats.average_power() - trace_stats.average_power()).abs() < 0.1,
            "model {} vs trace {}",
            model_stats.average_power(),
            trace_stats.average_power()
        );
    }

    #[test]
    fn latency_and_throughput_are_consistent() {
        let system = toy_system();
        let sim = Simulator::new(&system, SimConfig::new(100_000).seed(5));
        let stats = sim.run(&mut ConstantCommandManager::new(0)).unwrap();
        // Served + lost + still-enqueued ≈ arrived.
        assert!(stats.served + stats.lost <= stats.arrived);
        assert!(stats.arrived - (stats.served + stats.lost) <= 1);
        // Every served request waited at least one slice.
        assert!(stats.average_waiting() >= 1.0);
        // Throughput cannot exceed the service rate.
        assert!(stats.throughput() <= 0.8);
    }

    #[test]
    fn eager_off_policy_starves_queue() {
        // Always issuing s_off keeps the SP off: no service, all requests
        // eventually lost (capacity 1).
        let system = toy_system();
        let sim = Simulator::new(&system, SimConfig::new(50_000).seed(9));
        let stats = sim.run(&mut ConstantCommandManager::new(1)).unwrap();
        assert_eq!(stats.served, 0);
        assert!(stats.lost > 0);
        // Power → 0 once the SP lands in off (except the first slices).
        assert!(stats.average_power() < 0.1);
    }

    #[test]
    fn bad_command_is_rejected() {
        struct Rogue;
        impl PowerManager for Rogue {
            fn decide(&mut self, _o: &Observation, _r: &mut dyn rand::RngCore) -> usize {
                99
            }
            fn name(&self) -> String {
                "rogue".to_string()
            }
        }
        let system = toy_system();
        let sim = Simulator::new(&system, SimConfig::new(10));
        assert!(matches!(
            sim.run(&mut Rogue),
            Err(DpmError::UnknownIndex { .. })
        ));
    }

    #[test]
    fn runs_are_reproducible_by_seed() {
        let system = toy_system();
        let sim = Simulator::new(&system, SimConfig::new(5_000).seed(77));
        let a = sim.run(&mut ConstantCommandManager::new(0)).unwrap();
        let b = sim.run(&mut ConstantCommandManager::new(0)).unwrap();
        assert_eq!(a, b);
        let sim2 = Simulator::new(&system, SimConfig::new(5_000).seed(78));
        let c = sim2.run(&mut ConstantCommandManager::new(0)).unwrap();
        assert_ne!(a.arrived, c.arrived);
    }
}
