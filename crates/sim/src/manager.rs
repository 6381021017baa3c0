use dpm_core::SystemState;
use dpm_mdp::RandomizedPolicy;
use rand::Rng;

/// What a power manager sees at the beginning of a slice — the
/// "observation of system history" of Definition 3.4, condensed to what
/// the implemented policy classes need.
///
/// The struct is `#[non_exhaustive]`: the simulator may grow the
/// observation (an epoch index for adaptive runtimes, say) without
/// breaking downstream policies. Construct one with
/// [`Observation::new`]; fields stay directly readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct Observation {
    /// The composite system state.
    pub state: SystemState,
    /// Its flat chain index (for table-based policies).
    pub state_index: usize,
    /// The current slice number (0-based).
    pub slice: u64,
    /// Slices elapsed since the last slice with a request arrival or a
    /// non-empty queue — the idle clock that timeout policies watch.
    pub idle_slices: u64,
}

impl Observation {
    /// Builds an observation — the constructor policies and tests use
    /// now that the struct is `#[non_exhaustive]` (out-of-crate struct
    /// literals no longer compile, so added fields cannot break callers).
    pub fn new(state: SystemState, state_index: usize, slice: u64, idle_slices: u64) -> Self {
        Observation {
            state,
            state_index,
            slice,
            idle_slices,
        }
    }
}

/// A power-management policy as an online decision procedure: each slice
/// it observes the system and issues one command (Definition 3.4).
///
/// Deterministic policies ignore `rng`; randomized policies (the optimal
/// ones, by Theorem A.2) sample from their per-state decision.
pub trait PowerManager {
    /// Chooses the command to issue for this slice.
    fn decide(&mut self, observation: &Observation, rng: &mut dyn rand::RngCore) -> usize;

    /// Resets internal state (timeout clocks etc.) between runs.
    fn reset(&mut self) {}

    /// Human-readable policy name for reports.
    fn name(&self) -> String;
}

/// The trivial "constant policy" of Example 3.4: always the same command.
/// With command = "stay active" this is the always-on baseline the paper
/// compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstantCommandManager {
    command: usize,
}

impl ConstantCommandManager {
    /// Always issue `command`.
    pub fn new(command: usize) -> Self {
        ConstantCommandManager { command }
    }
}

impl PowerManager for ConstantCommandManager {
    fn decide(&mut self, _observation: &Observation, _rng: &mut dyn rand::RngCore) -> usize {
        self.command
    }

    fn name(&self) -> String {
        format!("constant(cmd {})", self.command)
    }
}

/// Executes a randomized Markov stationary policy (the optimizer's output,
/// equation (16)): looks up the decision row of the current composite
/// state and samples a command from it.
#[derive(Debug, Clone)]
pub struct StochasticPolicyManager {
    policy: RandomizedPolicy,
    label: String,
}

impl StochasticPolicyManager {
    /// Wraps an optimizer-produced policy.
    pub fn new(policy: RandomizedPolicy) -> Self {
        StochasticPolicyManager {
            policy,
            label: "optimal stochastic".to_string(),
        }
    }

    /// Sets a custom display name.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The wrapped policy.
    pub fn policy(&self) -> &RandomizedPolicy {
        &self.policy
    }
}

impl PowerManager for StochasticPolicyManager {
    fn decide(&mut self, observation: &Observation, rng: &mut dyn rand::RngCore) -> usize {
        self.policy.sample(observation.state_index, rng.gen())
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn obs(state_index: usize) -> Observation {
        Observation::new(
            SystemState {
                sp: 0,
                sr: 0,
                queue: 0,
            },
            state_index,
            0,
            0,
        )
    }

    #[test]
    fn constant_manager_is_constant() {
        let mut pm = ConstantCommandManager::new(3);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(pm.decide(&obs(0), &mut rng), 3);
        assert_eq!(pm.decide(&obs(5), &mut rng), 3);
        assert!(pm.name().contains('3'));
    }

    #[test]
    fn stochastic_manager_samples_the_decision() {
        let policy = RandomizedPolicy::new(vec![vec![0.25, 0.75], vec![1.0, 0.0]]).unwrap();
        let mut pm = StochasticPolicyManager::new(policy);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let ones = (0..n).filter(|_| pm.decide(&obs(0), &mut rng) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "sampled {frac}");
        // Deterministic row always returns its command.
        for _ in 0..100 {
            assert_eq!(pm.decide(&obs(1), &mut rng), 0);
        }
    }

    #[test]
    fn labels_are_settable() {
        let policy = RandomizedPolicy::new(vec![vec![1.0]]).unwrap();
        let pm = StochasticPolicyManager::new(policy).with_label("fig8b-optimal");
        assert_eq!(pm.name(), "fig8b-optimal");
    }
}
