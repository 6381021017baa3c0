use dpm_markov::{MarkovChain, StochasticMatrix};

use crate::DpmError;

/// The **service requester** of Definition 3.2: the workload.
///
/// A pair `(Σ_SR, r)` where `Σ_SR` is an autonomous Markov chain over
/// traffic conditions and `r(s)` is the number of requests issued per slice
/// in condition `s`. The power manager has no influence here — the SR
/// "represents the external environment over which the system has no
/// control"; interarrival times are geometric/memoryless within a state.
///
/// # Example
///
/// The bursty two-state workload of Example 3.2 (a request slice is
/// followed by another request slice with probability 0.85, giving mean
/// bursts of 1/0.15 ≈ 6.67 slices):
///
/// ```
/// use dpm_core::ServiceRequester;
///
/// # fn main() -> Result<(), dpm_core::DpmError> {
/// let sr = ServiceRequester::two_state(0.15, 0.85)?;
/// assert_eq!(sr.requests(1), 1);
/// assert!((sr.request_rate()? - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ServiceRequester {
    chain: MarkovChain,
    /// `r(s)`: requests issued per slice in state `s`.
    requests: Vec<u32>,
    state_names: Vec<String>,
}

impl ServiceRequester {
    /// Builds a requester from a transition matrix and a per-state request
    /// count.
    ///
    /// # Errors
    ///
    /// [`DpmError::IncompleteModel`] when `requests.len()` differs from the
    /// number of chain states.
    pub fn new(transition: StochasticMatrix, requests: Vec<u32>) -> Result<Self, DpmError> {
        let names = (0..requests.len()).map(|i| format!("r{i}")).collect();
        Self::with_names(transition, requests, names)
    }

    /// Builds a requester with explicit state names.
    ///
    /// # Errors
    ///
    /// Same as [`Self::new`], plus a name-count check.
    pub fn with_names(
        transition: StochasticMatrix,
        requests: Vec<u32>,
        names: Vec<String>,
    ) -> Result<Self, DpmError> {
        if names.len() != requests.len() {
            return Err(DpmError::IncompleteModel {
                reason: format!("{} names for {} SR states", names.len(), requests.len()),
            });
        }
        if requests.len() != transition.num_states() {
            return Err(DpmError::IncompleteModel {
                reason: format!(
                    "request table has {} entries for {} SR states",
                    requests.len(),
                    transition.num_states()
                ),
            });
        }
        Ok(ServiceRequester {
            chain: MarkovChain::new(transition),
            requests,
            state_names: names,
        })
    }

    /// The canonical two-state idle/busy workload (Example 3.2): state 0
    /// issues no requests, state 1 issues one request per slice.
    ///
    /// * `p_idle_to_busy` — probability that a request arrives after an
    ///   idle slice;
    /// * `p_busy_to_busy` — probability that a request slice is followed by
    ///   another (the *burstiness*; mean burst length is
    ///   `1 / (1 − p_busy_to_busy)`).
    ///
    /// # Errors
    ///
    /// [`DpmError::InvalidProbability`] for parameters outside `[0, 1]`.
    pub fn two_state(p_idle_to_busy: f64, p_busy_to_busy: f64) -> Result<Self, DpmError> {
        for (name, v) in [
            ("p_idle_to_busy", p_idle_to_busy),
            ("p_busy_to_busy", p_busy_to_busy),
        ] {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(DpmError::InvalidProbability {
                    context: name.to_string(),
                    value: v,
                });
            }
        }
        let transition = StochasticMatrix::from_rows(&[
            &[1.0 - p_idle_to_busy, p_idle_to_busy],
            &[1.0 - p_busy_to_busy, p_busy_to_busy],
        ])?;
        Self::with_names(
            transition,
            vec![0, 1],
            vec!["idle".to_string(), "busy".to_string()],
        )
    }

    /// Number of workload states.
    pub fn num_states(&self) -> usize {
        self.requests.len()
    }

    /// The autonomous workload chain.
    pub fn chain(&self) -> &MarkovChain {
        &self.chain
    }

    /// Requests issued per slice in `state`.
    ///
    /// # Panics
    ///
    /// Panics when `state` is out of range.
    pub fn requests(&self, state: usize) -> u32 {
        self.requests[state]
    }

    /// Name of `state`.
    ///
    /// # Panics
    ///
    /// Panics when `state` is out of range.
    pub fn state_name(&self, state: usize) -> &str {
        &self.state_names[state]
    }

    /// Long-run average requests per slice (the offered load), computed
    /// from the stationary distribution.
    ///
    /// # Errors
    ///
    /// Propagates stationary-distribution failures (reducible chains).
    pub fn request_rate(&self) -> Result<f64, DpmError> {
        let pi = self.chain.stationary_distribution()?;
        Ok(pi
            .iter()
            .zip(&self.requests)
            .map(|(p, &r)| p * r as f64)
            .sum())
    }

    /// Largest per-slice request count over all states (bounds the queue
    /// inflow per slice).
    pub fn max_requests(&self) -> u32 {
        self.requests.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_state_matches_example_3_2() {
        let sr = ServiceRequester::two_state(0.15, 0.85).unwrap();
        assert_eq!(sr.num_states(), 2);
        assert_eq!(sr.requests(0), 0);
        assert_eq!(sr.requests(1), 1);
        // Mean burst length 1/0.15 ≈ 6.67 slices.
        let p = sr.chain().transition_matrix();
        assert!((p.prob(1, 1) - 0.85).abs() < 1e-12);
        assert_eq!(sr.state_name(0), "idle");
    }

    #[test]
    fn request_rate_is_stationary_weighted() {
        // Asymmetric chain: π = (1/3, 2/3) for p01 = 0.2, p10 = 0.1.
        let sr = ServiceRequester::two_state(0.2, 0.9).unwrap();
        assert!((sr.request_rate().unwrap() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn multi_request_states_are_allowed() {
        // A state issuing 3 requests per slice (the paper allows arbitrary
        // integer r).
        let t = StochasticMatrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]).unwrap();
        let sr = ServiceRequester::new(t, vec![0, 3]).unwrap();
        assert_eq!(sr.max_requests(), 3);
        assert!((sr.request_rate().unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn validation_failures() {
        let t = StochasticMatrix::identity(2);
        assert!(matches!(
            ServiceRequester::new(t.clone(), vec![0]),
            Err(DpmError::IncompleteModel { .. })
        ));
        assert!(matches!(
            ServiceRequester::with_names(t, vec![0, 1], vec!["x".to_string()]),
            Err(DpmError::IncompleteModel { .. })
        ));
        assert!(matches!(
            ServiceRequester::two_state(1.5, 0.5),
            Err(DpmError::InvalidProbability { .. })
        ));
    }
}
