use dpm_linalg::Matrix;
use dpm_markov::{ControlledMarkovChain, StochasticMatrix};

use crate::DpmError;

/// The **service provider** of Definition 3.1: the resource being power
/// managed.
///
/// A triple `(Σ_SP, σ, p)` where `Σ_SP` is a controlled Markov chain over
/// operating states, `σ(s, a)` is the probability of completing one request
/// in a slice (the *service rate*) and `p(s, a)` is the power drawn during
/// a slice, both conditioned on the issued command.
///
/// States with `σ(s, a) = 0` for every command are *sleep/inactive* states;
/// a state is *active* if it can serve under some command. Transition times
/// are geometric (equations (1)–(2)): a command held for `1/p` slices on
/// average completes a transition with per-slice probability `p`.
///
/// Build with [`ServiceProvider::builder`]; unspecified transition mass
/// stays on the self-loop, so only the interesting edges need to be
/// declared (as in Fig. 2 / Fig. 8(a) of the paper).
#[derive(Debug, Clone)]
pub struct ServiceProvider {
    chain: ControlledMarkovChain,
    /// `σ(s, a)`, `num_states × num_commands`.
    service_rate: Matrix,
    /// `p(s, a)`, `num_states × num_commands`.
    power: Matrix,
    state_names: Vec<String>,
    command_names: Vec<String>,
}

impl ServiceProvider {
    /// Starts building a provider.
    pub fn builder() -> ServiceProviderBuilder {
        ServiceProviderBuilder::new()
    }

    /// Number of operating states.
    pub fn num_states(&self) -> usize {
        self.chain.num_states()
    }

    /// Number of commands the power manager can issue.
    pub fn num_commands(&self) -> usize {
        self.chain.num_actions()
    }

    /// The controlled transition structure.
    pub fn chain(&self) -> &ControlledMarkovChain {
        &self.chain
    }

    /// Service rate `σ(s, a)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn service_rate(&self, state: usize, command: usize) -> f64 {
        self.service_rate[(state, command)]
    }

    /// Power consumption `p(s, a)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn power(&self, state: usize, command: usize) -> f64 {
        self.power[(state, command)]
    }

    /// Name of a state (defaults to `sp<i>` if none was given).
    ///
    /// # Panics
    ///
    /// Panics when `state` is out of range.
    pub fn state_name(&self, state: usize) -> &str {
        &self.state_names[state]
    }

    /// Name of a command (defaults to `cmd<i>` if none was given).
    ///
    /// # Panics
    ///
    /// Panics when `command` is out of range.
    pub fn command_name(&self, command: usize) -> &str {
        &self.command_names[command]
    }

    /// Index of the state with the given name, if any.
    pub fn state_index(&self, name: &str) -> Option<usize> {
        self.state_names.iter().position(|n| n == name)
    }

    /// Index of the command with the given name, if any.
    pub fn command_index(&self, name: &str) -> Option<usize> {
        self.command_names.iter().position(|n| n == name)
    }

    /// `true` when the state can serve requests under some command
    /// (an *active* state in the paper's terminology).
    ///
    /// # Panics
    ///
    /// Panics when `state` is out of range.
    pub fn is_active_state(&self, state: usize) -> bool {
        (0..self.num_commands()).any(|a| self.service_rate[(state, a)] > 0.0)
    }

    /// Expected slices to move from `from` to `to` while holding `command`
    /// constant — the calibration target of Table I. `None` when
    /// unreachable.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn expected_transition_time(&self, from: usize, to: usize, command: usize) -> Option<f64> {
        self.chain.expected_transition_time(from, to, command)
    }
}

/// Builder for [`ServiceProvider`], mirroring how the paper's case studies
/// are specified: states, commands, a sparse set of controlled transitions
/// (self-loops implied), and per-(state, command) service rates and powers.
#[derive(Debug, Clone, Default)]
pub struct ServiceProviderBuilder {
    state_names: Vec<String>,
    command_names: Vec<String>,
    /// `(from, to, command, probability)` edges; self-loops get the rest.
    transitions: Vec<(usize, usize, usize, f64)>,
    /// `(state, command, rate)` entries; default 0.
    service_rates: Vec<(usize, usize, f64)>,
    /// `(state, command, power)` entries; default the state's base power.
    powers: Vec<(usize, usize, f64)>,
    /// Per-state base power used when no (state, command) override exists.
    base_powers: Vec<f64>,
}

impl ServiceProviderBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a new state and returns its index.
    pub fn add_state(&mut self, name: impl Into<String>) -> usize {
        self.state_names.push(name.into());
        self.base_powers.push(0.0);
        self.state_names.len() - 1
    }

    /// Declares a new state with a base power used for every command
    /// unless overridden, and returns its index.
    pub fn add_state_with_power(&mut self, name: impl Into<String>, power: f64) -> usize {
        let s = self.add_state(name);
        self.base_powers[s] = power;
        s
    }

    /// Declares a new command and returns its index.
    pub fn add_command(&mut self, name: impl Into<String>) -> usize {
        self.command_names.push(name.into());
        self.command_names.len() - 1
    }

    /// Adds the controlled transition `from → to` under `command` with the
    /// given per-slice probability. Residual mass stays on the self-loop.
    ///
    /// # Errors
    ///
    /// * [`DpmError::UnknownIndex`] for out-of-range states/commands.
    /// * [`DpmError::InvalidProbability`] for a probability outside `[0,1]`.
    pub fn transition(
        &mut self,
        from: usize,
        to: usize,
        command: usize,
        probability: f64,
    ) -> Result<&mut Self, DpmError> {
        self.check_state(from)?;
        self.check_state(to)?;
        self.check_command(command)?;
        if !(0.0..=1.0).contains(&probability) || !probability.is_finite() {
            return Err(DpmError::InvalidProbability {
                context: format!("transition {from}→{to} under command {command}"),
                value: probability,
            });
        }
        self.transitions.push((from, to, command, probability));
        Ok(self)
    }

    /// Sets the service rate `σ(state, command)` (default 0: not serving).
    ///
    /// # Errors
    ///
    /// Same validation as [`Self::transition`].
    pub fn service_rate(
        &mut self,
        state: usize,
        command: usize,
        rate: f64,
    ) -> Result<&mut Self, DpmError> {
        self.check_state(state)?;
        self.check_command(command)?;
        if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
            return Err(DpmError::InvalidProbability {
                context: format!("service rate of state {state} under command {command}"),
                value: rate,
            });
        }
        self.service_rates.push((state, command, rate));
        Ok(self)
    }

    /// Sets the power `p(state, command)`, overriding the state's base
    /// power for that command.
    ///
    /// # Errors
    ///
    /// [`DpmError::UnknownIndex`] for out-of-range indices;
    /// [`DpmError::InvalidProbability`] for non-finite power (the value is
    /// otherwise unrestricted — the paper allows arbitrary units).
    pub fn power(
        &mut self,
        state: usize,
        command: usize,
        power: f64,
    ) -> Result<&mut Self, DpmError> {
        self.check_state(state)?;
        self.check_command(command)?;
        if !power.is_finite() {
            return Err(DpmError::InvalidProbability {
                context: format!("power of state {state} under command {command}"),
                value: power,
            });
        }
        self.powers.push((state, command, power));
        Ok(self)
    }

    /// Finalizes the provider.
    ///
    /// # Errors
    ///
    /// * [`DpmError::IncompleteModel`] without at least one state and one
    ///   command.
    /// * [`DpmError::TransitionMassExceeded`] when declared off-self-loop
    ///   probabilities of some `(state, command)` row exceed one.
    pub fn build(&self) -> Result<ServiceProvider, DpmError> {
        let n = self.state_names.len();
        let m = self.command_names.len();
        if n == 0 || m == 0 {
            return Err(DpmError::IncompleteModel {
                reason: "service provider needs at least one state and one command".to_string(),
            });
        }

        // One sparse kernel per command: every row starts as the
        // self-loop, and each declared edge moves its probability off the
        // diagonal, in declaration order.
        let mut kernels = Vec::with_capacity(m);
        let mut edges: Vec<(usize, usize, f64)> = Vec::new();
        let mut row: Vec<(usize, f64)> = Vec::new();
        for a in 0..m {
            edges.clear();
            edges.extend(
                self.transitions
                    .iter()
                    .filter(|&&(from, to, command, _)| command == a && from != to)
                    .map(|&(from, to, _, p)| (from, to, p)),
            );
            // Stable: a state's edges keep their declaration order.
            edges.sort_by_key(|&(from, _, _)| from);
            let mut pending = edges.iter().peekable();
            let mut row_ptr = Vec::with_capacity(n + 1);
            let mut cols = Vec::with_capacity(n + edges.len());
            let mut probs = Vec::with_capacity(n + edges.len());
            row_ptr.push(0);
            for s in 0..n {
                row.clear();
                let mut stay = 1.0;
                while let Some(&(_, to, p)) = pending.next_if(|&&(from, _, _)| from == s) {
                    match row.iter_mut().find(|(j, _)| *j == to) {
                        Some((_, v)) => *v += p,
                        None => row.push((to, p)),
                    }
                    stay -= p;
                }
                if stay < -1e-12 {
                    return Err(DpmError::TransitionMassExceeded {
                        state: s,
                        command: a,
                        total: 1.0 - stay,
                    });
                }
                // Absorb roundoff; a zero self-loop is not stored.
                if stay > 0.0 {
                    row.push((s, stay));
                }
                row.sort_by_key(|&(j, _)| j);
                for &(j, v) in &row {
                    cols.push(j);
                    probs.push(v);
                }
                row_ptr.push(cols.len());
            }
            kernels.push(StochasticMatrix::from_csr(n, row_ptr, cols, probs)?);
        }
        let chain = ControlledMarkovChain::new(kernels)?;

        let mut service_rate = Matrix::zeros(n, m);
        for &(s, a, r) in &self.service_rates {
            service_rate[(s, a)] = r;
        }
        let mut power = Matrix::from_fn(n, m, |s, _| self.base_powers[s]);
        for &(s, a, p) in &self.powers {
            power[(s, a)] = p;
        }

        Ok(ServiceProvider {
            chain,
            service_rate,
            power,
            state_names: self.state_names.clone(),
            command_names: self.command_names.clone(),
        })
    }

    fn check_state(&self, s: usize) -> Result<(), DpmError> {
        if s >= self.state_names.len() {
            return Err(DpmError::UnknownIndex {
                kind: "SP state",
                index: s,
                limit: self.state_names.len(),
            });
        }
        Ok(())
    }

    fn check_command(&self, c: usize) -> Result<(), DpmError> {
        if c >= self.command_names.len() {
            return Err(DpmError::UnknownIndex {
                kind: "command",
                index: c,
                limit: self.command_names.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The provider of Example 3.1.
    fn example_3_1() -> ServiceProvider {
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
        b.power(off, s_off, 0.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_expected_kernels() {
        let sp = example_3_1();
        assert_eq!(sp.num_states(), 2);
        assert_eq!(sp.num_commands(), 2);
        // Under s_on: off→on w.p. 0.1, on stays on.
        assert_eq!(sp.chain().prob(1, 0, 0), 0.1);
        assert_eq!(sp.chain().prob(1, 1, 0), 0.9);
        assert_eq!(sp.chain().prob(0, 0, 0), 1.0);
        // Under s_off: on→off w.p. 0.8, off absorbs.
        assert_eq!(sp.chain().prob(0, 1, 1), 0.8);
        assert_eq!(sp.chain().prob(1, 1, 1), 1.0);
    }

    #[test]
    fn service_rates_and_powers() {
        let sp = example_3_1();
        assert_eq!(sp.service_rate(0, 0), 0.8);
        assert_eq!(sp.service_rate(0, 1), 0.0);
        assert_eq!(sp.service_rate(1, 0), 0.0);
        assert_eq!(sp.power(0, 0), 3.0);
        assert_eq!(sp.power(0, 1), 4.0);
        assert_eq!(sp.power(1, 0), 4.0);
        assert_eq!(sp.power(1, 1), 0.0);
    }

    #[test]
    fn active_state_detection() {
        let sp = example_3_1();
        assert!(sp.is_active_state(0));
        assert!(!sp.is_active_state(1));
    }

    #[test]
    fn names_resolve_both_ways() {
        let sp = example_3_1();
        assert_eq!(sp.state_name(1), "off");
        assert_eq!(sp.state_index("off"), Some(1));
        assert_eq!(sp.command_name(0), "s_on");
        assert_eq!(sp.command_index("nope"), None);
    }

    #[test]
    fn expected_transition_time_matches_example() {
        let sp = example_3_1();
        // "the transition time from off to on when the s_on command has
        // been issued is ... 1/0.1 = 10 periods" (Example 3.1).
        let t = sp.expected_transition_time(1, 0, 0).unwrap();
        assert!((t - 10.0).abs() < 1e-9);
    }

    #[test]
    fn base_power_applies_to_all_commands() {
        let mut b = ServiceProvider::builder();
        let s = b.add_state_with_power("busy", 2.5);
        let c0 = b.add_command("a");
        let c1 = b.add_command("b");
        b.power(s, c1, 9.0).unwrap();
        let sp = b.build().unwrap();
        assert_eq!(sp.power(s, c0), 2.5);
        assert_eq!(sp.power(s, c1), 9.0);
    }

    #[test]
    fn rejects_overfull_row() {
        let mut b = ServiceProvider::builder();
        let s0 = b.add_state("a");
        let s1 = b.add_state("b");
        let s2 = b.add_state("c");
        let c = b.add_command("go");
        b.transition(s0, s1, c, 0.7).unwrap();
        b.transition(s0, s2, c, 0.7).unwrap();
        assert!(matches!(
            b.build(),
            Err(DpmError::TransitionMassExceeded { state: 0, .. })
        ));
    }

    #[test]
    fn rejects_bad_indices_and_probabilities() {
        let mut b = ServiceProvider::builder();
        let s = b.add_state("a");
        let c = b.add_command("go");
        assert!(matches!(
            b.transition(s, 7, c, 0.5),
            Err(DpmError::UnknownIndex { .. })
        ));
        assert!(matches!(
            b.transition(s, s, 3, 0.5),
            Err(DpmError::UnknownIndex { .. })
        ));
        assert!(matches!(
            b.transition(s, s, c, 1.5),
            Err(DpmError::InvalidProbability { .. })
        ));
        assert!(matches!(
            b.service_rate(s, c, -0.1),
            Err(DpmError::InvalidProbability { .. })
        ));
        assert!(matches!(
            b.power(s, c, f64::NAN),
            Err(DpmError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn empty_builder_is_rejected() {
        assert!(matches!(
            ServiceProvider::builder().build(),
            Err(DpmError::IncompleteModel { .. })
        ));
    }

    #[test]
    fn multiple_destination_states_share_mass() {
        // A transient chain like the disk's spin-up path: state 0 goes to
        // 1 or 2 with explicit probabilities, rest stays.
        let mut b = ServiceProvider::builder();
        let s0 = b.add_state("start");
        let s1 = b.add_state("mid");
        let s2 = b.add_state("end");
        let c = b.add_command("go");
        b.transition(s0, s1, c, 0.3).unwrap();
        b.transition(s0, s2, c, 0.2).unwrap();
        let sp = b.build().unwrap();
        assert!((sp.chain().prob(0, 0, 0) - 0.5).abs() < 1e-12);
        assert!((sp.chain().prob(0, 1, 0) - 0.3).abs() < 1e-12);
        assert!((sp.chain().prob(0, 2, 0) - 0.2).abs() < 1e-12);
    }
}
