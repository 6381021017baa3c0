//! The baseline system family of Appendix B (sensitivity analysis).
//!
//! The paper's baseline: an SP with one *active* state (3 W) and one or
//! more sleep states; transitions draw 4 W; entering a sleep state takes
//! one slice. The four canonical sleep states are, in order of depth:
//!
//! | state  | power | exit probability (per slice) |
//! |--------|-------|------------------------------|
//! | sleep1 | 2.0 W | 1.0 (one slice)              |
//! | sleep2 | 1.0 W | 0.1  (mean 10 slices)        |
//! | sleep3 | 0.5 W | 0.01 (mean 100 slices)       |
//! | sleep4 | 0.0 W | 0.001 (mean 1000 slices)     |
//!
//! The SR is symmetric two-state with switch probability 0.01 (bursty,
//! load 0.5), and the queue holds 2 requests. Figs. 12–14 vary, one at a
//! time: the set of sleep states, the exit rate and sleep power, the SR
//! burstiness and memory, the horizon, and the queue length — all
//! supported here through [`Config`].

use dpm_core::{
    DpmError, ServiceProvider, ServiceQueue, ServiceRequester, SystemModel, SystemState,
};

/// Power of the active state (W).
pub const ACTIVE_POWER: f64 = 3.0;
/// Power drawn during any state transition (W).
pub const TRANSITION_POWER: f64 = 4.0;
/// Service rate of the active state.
pub const SERVICE_RATE: f64 = 1.0;
/// The baseline SR switch probability (both directions).
pub const BASELINE_SR_SWITCH: f64 = 0.01;
/// The baseline queue capacity.
pub const BASELINE_QUEUE_CAPACITY: usize = 2;

/// One sleep state: its depth is captured by `(power, exit_probability)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SleepState {
    /// Name used in labels (`sleep1`...).
    pub name: &'static str,
    /// Power drawn while in this state (W).
    pub power: f64,
    /// Per-slice probability of completing the transition back to active
    /// while `go_active` is held (equation (2): mean exit = 1/p slices).
    pub exit_probability: f64,
}

/// The four canonical sleep states of Appendix B.
pub const SLEEP_STATES: [SleepState; 4] = [
    SleepState {
        name: "sleep1",
        power: 2.0,
        exit_probability: 1.0,
    },
    SleepState {
        name: "sleep2",
        power: 1.0,
        exit_probability: 0.1,
    },
    SleepState {
        name: "sleep3",
        power: 0.5,
        exit_probability: 0.01,
    },
    SleepState {
        name: "sleep4",
        power: 0.0,
        exit_probability: 0.001,
    },
];

/// Names for generated sleep states, deepest-last ([`scaled_sleep_states`]).
const SCALED_SLEEP_NAMES: [&str; 48] = [
    "sleep1", "sleep2", "sleep3", "sleep4", "sleep5", "sleep6", "sleep7", "sleep8", "sleep9",
    "sleep10", "sleep11", "sleep12", "sleep13", "sleep14", "sleep15", "sleep16", "sleep17",
    "sleep18", "sleep19", "sleep20", "sleep21", "sleep22", "sleep23", "sleep24", "sleep25",
    "sleep26", "sleep27", "sleep28", "sleep29", "sleep30", "sleep31", "sleep32", "sleep33",
    "sleep34", "sleep35", "sleep36", "sleep37", "sleep38", "sleep39", "sleep40", "sleep41",
    "sleep42", "sleep43", "sleep44", "sleep45", "sleep46", "sleep47", "sleep48",
];

/// Generates a scaled family of `count` sleep states interpolating the
/// canonical Appendix-B envelope: power falls linearly from 2 W to 0 W
/// while the exit probability decays geometrically from 1 to 10⁻³
/// (deeper ⇒ cheaper but slower, exactly the tradeoff of
/// [`SLEEP_STATES`]). This is the state-space scaling axis for the sparse
/// LP pipeline: with a dozen sleep states and a longer queue the composed
/// system reaches hundreds of states, a size the dense-tableau simplex
/// handles poorly.
///
/// # Panics
///
/// Panics when `count` is 0 or exceeds the 48 prenamed states.
pub fn scaled_sleep_states(count: usize) -> Vec<SleepState> {
    assert!(
        (1..=SCALED_SLEEP_NAMES.len()).contains(&count),
        "count {count} outside 1..={}",
        SCALED_SLEEP_NAMES.len()
    );
    (0..count)
        .map(|k| {
            let depth = if count == 1 {
                0.0
            } else {
                k as f64 / (count - 1) as f64
            };
            SleepState {
                name: SCALED_SLEEP_NAMES[k],
                power: 2.0 * (1.0 - depth),
                exit_probability: 10f64.powf(-3.0 * depth),
            }
        })
        .collect()
}

/// Configuration of one Appendix-B experiment: start from
/// [`Config::baseline`] and override what the figure sweeps.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which sleep states the SP offers.
    pub sleep_states: Vec<SleepState>,
    /// SR transition probability request→no-request and vice versa.
    pub sr_switch_probability: f64,
    /// Queue capacity.
    pub queue_capacity: usize,
}

impl Config {
    /// The paper's baseline: active + sleep1, symmetric 0.01 SR, queue 2.
    pub fn baseline() -> Self {
        Config {
            sleep_states: vec![SLEEP_STATES[0]],
            sr_switch_probability: BASELINE_SR_SWITCH,
            queue_capacity: BASELINE_QUEUE_CAPACITY,
        }
    }

    /// Replaces the sleep-state set (Fig. 12(a)).
    pub fn with_sleep_states(mut self, states: Vec<SleepState>) -> Self {
        self.sleep_states = states;
        self
    }

    /// The scaled large-state-space configuration: `sleep_count`
    /// interpolated sleep states ([`scaled_sleep_states`]) and a
    /// `queue_capacity`-deep queue over the baseline SR. With
    /// `scaled(12, 7)` the composed system has
    /// `13 SP × 2 SR × 8 SQ = 208` states and 13 commands — 2704
    /// state–action variables, the benchmark instance for the sparse LP
    /// pipeline; `scaled(24, 20)` reaches
    /// `25 SP × 2 SR × 21 SQ = 1050` states and 26 250 variables, the
    /// sparse-basis-factorization acceptance scale.
    ///
    /// # Panics
    ///
    /// Propagates the [`scaled_sleep_states`] count bounds.
    pub fn scaled(sleep_count: usize, queue_capacity: usize) -> Self {
        Config {
            sleep_states: scaled_sleep_states(sleep_count),
            sr_switch_probability: BASELINE_SR_SWITCH,
            queue_capacity,
        }
    }

    /// Replaces the SR switch probability (Fig. 13(a): smaller = burstier).
    pub fn with_sr_switch(mut self, p: f64) -> Self {
        self.sr_switch_probability = p;
        self
    }

    /// Replaces the queue capacity (Fig. 14(b)).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Builds the service provider: active + the configured sleep states.
    ///
    /// Commands: `go_active` (index 0) then one `go_<sleep>` per sleep
    /// state, in order. Exiting a sleep state is geometric with the
    /// state's `exit_probability`; entering takes half the exit time
    /// (entry probability `min(1, 2·exit_probability)`), mirroring the
    /// deeper-is-slower ordering the paper states and the disk model's
    /// spin-down convention — `sleep1` keeps the paper's explicit
    /// one-slice entry. Transitions draw [`TRANSITION_POWER`] in both
    /// directions, so parking in a deep state is an energy *investment*
    /// that only pays off over sufficiently long idle stretches and
    /// horizons (Fig. 14(a)).
    ///
    /// # Errors
    ///
    /// Propagates builder validation (e.g. an exit probability outside
    /// `[0, 1]`).
    pub fn service_provider(&self) -> Result<ServiceProvider, DpmError> {
        let mut b = ServiceProvider::builder();
        let active = b.add_state_with_power("active", ACTIVE_POWER);
        let go_active = b.add_command("go_active");
        b.service_rate(active, go_active, SERVICE_RATE)?;

        for sleep in &self.sleep_states {
            let s = b.add_state_with_power(sleep.name, sleep.power);
            let cmd = b.add_command(format!("go_{}", sleep.name));
            // Entry at twice the exit rate (half the delay); transition
            // power is drawn while the entry command is held.
            let entry_probability = (2.0 * sleep.exit_probability).min(1.0);
            b.transition(active, s, cmd, entry_probability)?;
            b.power(active, cmd, TRANSITION_POWER)?;
            // Exit geometrically under go_active; transition power applies
            // while waking.
            b.transition(s, active, go_active, sleep.exit_probability)?;
            b.power(s, go_active, TRANSITION_POWER)?;
        }
        b.build()
    }

    /// Builds the symmetric two-state SR.
    ///
    /// # Errors
    ///
    /// Propagates validation (switch probability outside `[0, 1]`).
    pub fn service_requester(&self) -> Result<ServiceRequester, DpmError> {
        ServiceRequester::two_state(self.sr_switch_probability, 1.0 - self.sr_switch_probability)
    }

    /// Composes the full system.
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn system(&self) -> Result<SystemModel, DpmError> {
        SystemModel::compose(
            self.service_provider()?,
            self.service_requester()?,
            ServiceQueue::with_capacity(self.queue_capacity),
        )
    }

    /// Composes against an explicit requester (Fig. 13(b) plugs in
    /// k-memory extracted SRs).
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn system_with_requester(
        &self,
        requester: ServiceRequester,
    ) -> Result<SystemModel, DpmError> {
        SystemModel::compose(
            self.service_provider()?,
            requester,
            ServiceQueue::with_capacity(self.queue_capacity),
        )
    }
}

/// Initial state: active, no request, empty queue.
pub fn initial_state() -> SystemState {
    SystemState {
        sp: 0,
        sr: 0,
        queue: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_core::PolicyOptimizer;

    #[test]
    fn baseline_shape() {
        let system = Config::baseline().system().unwrap();
        // 2 SP states × 2 SR × 3 SQ = 12.
        assert_eq!(system.num_states(), 12);
        assert_eq!(system.num_commands(), 2);
    }

    #[test]
    fn all_four_sleep_states_compose() {
        let system = Config::baseline()
            .with_sleep_states(SLEEP_STATES.to_vec())
            .system()
            .unwrap();
        // 5 SP × 2 SR × 3 SQ = 30 states, 5 commands.
        assert_eq!(system.num_states(), 30);
        assert_eq!(system.num_commands(), 5);
    }

    #[test]
    fn sleep_exit_times_follow_equation_2() {
        let sp = Config::baseline()
            .with_sleep_states(SLEEP_STATES.to_vec())
            .service_provider()
            .unwrap();
        for (k, sleep) in SLEEP_STATES.iter().enumerate() {
            let t = sp.expected_transition_time(k + 1, 0, 0).unwrap();
            assert!(
                (t - 1.0 / sleep.exit_probability).abs() < 1e-6,
                "{}: {t}",
                sleep.name
            );
        }
    }

    #[test]
    fn transition_power_is_charged() {
        let sp = Config::baseline().service_provider().unwrap();
        // active under go_sleep1 draws transition power.
        assert_eq!(sp.power(0, 1), TRANSITION_POWER);
        // sleep1 under go_active draws transition power.
        assert_eq!(sp.power(1, 0), TRANSITION_POWER);
        // steady states draw their base power.
        assert_eq!(sp.power(0, 0), ACTIVE_POWER);
        assert_eq!(sp.power(1, 1), SLEEP_STATES[0].power);
    }

    #[test]
    fn scaled_family_interpolates_the_canonical_envelope() {
        let states = scaled_sleep_states(12);
        assert_eq!(states.len(), 12);
        // Endpoints match the canonical family's shallowest and deepest.
        assert_eq!(states[0].power, SLEEP_STATES[0].power);
        assert_eq!(states[0].exit_probability, SLEEP_STATES[0].exit_probability);
        assert!((states[11].power - SLEEP_STATES[3].power).abs() < 1e-12);
        assert!((states[11].exit_probability - SLEEP_STATES[3].exit_probability).abs() < 1e-12);
        // Deeper ⇒ strictly cheaper and strictly slower.
        for w in states.windows(2) {
            assert!(w[1].power < w[0].power);
            assert!(w[1].exit_probability < w[0].exit_probability);
        }
        // Distinct names, so the provider builder gets unique labels.
        for (i, a) in states.iter().enumerate() {
            for b in &states[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn scaled_config_reaches_hundreds_of_states() {
        let system = Config::scaled(12, 7).system().unwrap();
        assert_eq!(system.num_states(), 208); // 13 SP × 2 SR × 8 SQ
        assert_eq!(system.num_commands(), 13);
    }

    #[test]
    fn scaled_system_solves_quickly_at_medium_size() {
        // Debug-friendly slice of the scaling axis: 7 SP × 2 SR × 4 SQ =
        // 56 states through the default sparse engine.
        let system = Config::scaled(6, 3).system().unwrap();
        let solution = PolicyOptimizer::new(&system)
            .horizon(100_000.0)
            .max_performance_penalty(0.8)
            .max_request_loss_rate(0.05)
            .solve()
            .unwrap();
        assert!(solution.power_per_slice() < ACTIVE_POWER);
    }

    #[test]
    fn scaled_system_solves_through_the_sparse_default_path() {
        // The acceptance instance of the sparse LP pipeline: ≥200 states,
        // solved by the default (revised simplex) engine with no rescue by
        // another engine. The optimum must beat always-on (3 W) while
        // meeting the service constraints.
        let system = Config::scaled(12, 7).system().unwrap();
        let solution = PolicyOptimizer::new(&system)
            .horizon(100_000.0)
            .max_performance_penalty(0.8)
            .max_request_loss_rate(0.05)
            .solve()
            .unwrap();
        assert_eq!(solution.solve_report().engine, "revised-simplex");
        assert!(solution.power_per_slice() < ACTIVE_POWER);
        assert!(solution.performance_per_slice() <= 0.8 + 1e-6);
        assert!(solution.loss_per_slice() <= 0.05 + 1e-6);
    }

    #[test]
    fn more_sleep_states_help_fig_12a() {
        // Fig. 12(a): adding sleep2 to the baseline brings a sizable power
        // reduction under a loose constraint.
        let horizon = 100_000.0;
        let solve = |cfg: &Config| {
            let system = cfg.system().unwrap();
            PolicyOptimizer::new(&system)
                .horizon(horizon)
                .max_performance_penalty(0.8)
                .max_request_loss_rate(0.05)
                .solve()
                .unwrap()
                .power_per_slice()
        };
        let baseline = solve(&Config::baseline());
        let with_sleep2 =
            solve(&Config::baseline().with_sleep_states(vec![SLEEP_STATES[0], SLEEP_STATES[1]]));
        assert!(
            with_sleep2 < baseline - 0.1,
            "sleep2 should save ≥0.1 W: {baseline} → {with_sleep2}"
        );
    }

    #[test]
    fn burstier_workload_saves_more_power_fig_13a() {
        // Fig. 13(a): with the request probability fixed at 0.5, smaller
        // switch probabilities (burstier traffic) allow more savings.
        let solve = |p: f64| {
            let cfg = Config::baseline()
                .with_sleep_states(SLEEP_STATES.to_vec())
                .with_sr_switch(p);
            let system = cfg.system().unwrap();
            PolicyOptimizer::new(&system)
                .horizon(100_000.0)
                .max_performance_penalty(0.8)
                .max_request_loss_rate(0.05)
                .solve()
                .unwrap()
                .power_per_slice()
        };
        let bursty = solve(0.005);
        let smooth = solve(0.2);
        assert!(
            bursty < smooth,
            "bursty {bursty} should beat smooth {smooth}"
        );
    }
}
