use dpm_core::{DpmError, ServiceRequester};
use dpm_markov::StochasticMatrix;

use crate::packed;

/// The **SR extractor** of Section V: fits a k-memory Markov model to a
/// discretized request stream.
///
/// "The k-memory Markov model has 2^k states, one for each possible
/// sequence of k consecutive bits. The conditional transition
/// probabilities are computed by counting the occurrences of state
/// transitions, and dividing the count by the total number of times the
/// start state of the transition is visited."
///
/// A state encodes the last `k` bits of the arrival stream, most recent
/// bit in the least-significant position; its request count `r(s)` is that
/// most recent bit — consistent with the composer's convention that the
/// arrivals of a slice are read off the SR's destination state.
///
/// States never visited in the stream keep a self-loop (they are
/// unreachable in the fitted chain anyway); optional Laplace smoothing
/// ([`Self::with_smoothing`]) regularizes rare transitions instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SrExtractor {
    memory: u32,
    smoothing: f64,
}

impl SrExtractor {
    /// An extractor with memory `k ≥ 1` (the model has `2^k` states) and
    /// no smoothing.
    ///
    /// # Panics
    ///
    /// Panics for `k = 0` or `k > 16` (65 536 states is already far past
    /// what the LP can digest; the paper's Fig. 13(b) stops at small k).
    /// Code that receives the memory at run time — the online estimation
    /// paths — should use the fallible [`Self::try_new`] instead; the
    /// panicking constructor stays for examples and compile-time-known
    /// configurations.
    pub fn new(memory: u32) -> Self {
        Self::try_new(memory).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: an extractor with memory `k` and no
    /// smoothing, rejecting out-of-range memories instead of panicking —
    /// the entry point the adaptive runtime and the
    /// [`WindowedEstimator`](crate::WindowedEstimator) use for
    /// run-time-supplied configurations.
    ///
    /// # Errors
    ///
    /// [`DpmError::BadConfiguration`] for `k = 0` or `k > 16`.
    pub fn try_new(memory: u32) -> Result<Self, DpmError> {
        if !(1..=16).contains(&memory) {
            return Err(DpmError::BadConfiguration {
                reason: format!("SR extractor memory must be in 1..=16, got {memory}"),
            });
        }
        Ok(SrExtractor {
            memory,
            smoothing: 0.0,
        })
    }

    /// Adds Laplace smoothing: every transition count starts at `alpha`
    /// instead of zero.
    pub fn with_smoothing(mut self, alpha: f64) -> Self {
        self.smoothing = alpha.max(0.0);
        self
    }

    /// The configured memory `k`.
    pub fn memory(&self) -> u32 {
        self.memory
    }

    /// The configured Laplace smoothing (0 when none was set).
    pub fn smoothing(&self) -> f64 {
        self.smoothing
    }

    /// Number of states of the fitted model.
    pub fn num_states(&self) -> usize {
        1usize << self.memory
    }

    /// Fits the model to a discretized stream (counts are binarized:
    /// a slice "issues a request" when its count is nonzero).
    ///
    /// # Errors
    ///
    /// [`DpmError::IncompleteModel`] when the stream is shorter than
    /// `k + 1` slices (no transition can be counted).
    pub fn extract(&self, stream: &[u32]) -> Result<ServiceRequester, DpmError> {
        let k = self.memory as usize;
        if stream.len() < k + 1 {
            return Err(DpmError::IncompleteModel {
                reason: format!(
                    "stream of {} slices cannot fit a {k}-memory model",
                    stream.len()
                ),
            });
        }
        // The first k slices only seed the history; every later slice
        // closes one transition, counted over the packed stream.
        let mut words = Vec::new();
        packed::pack(stream, &mut words);
        let mut counts = vec![[0.0f64; 2]; self.num_states()];
        let patterns = counts.as_flattened_mut();
        packed::count_patterns(&words, 0, k..stream.len(), k, |pattern, count| {
            if let Some(c) = patterns.get_mut(pattern) {
                *c += count as f64;
            }
        });
        self.extract_from_counts(&counts)
    }

    /// Builds the model straight from per-state transition counts:
    /// `counts[s] = [count of s → (shift-in 0), count of s → (shift-in
    /// 1)]`. This is how streaming estimators — sliding or
    /// exponential-decay windows that maintain (possibly fractional)
    /// counts online — reuse the extractor's model construction without
    /// materializing a stream (see
    /// [`WindowedEstimator`](crate::WindowedEstimator)). The configured
    /// smoothing is added on top of the given counts; histories with zero
    /// total count keep the inert self-loop.
    ///
    /// # Errors
    ///
    /// [`DpmError::IncompleteModel`] when `counts` does not have one
    /// entry per model state, or contains a negative/non-finite count.
    pub fn extract_from_counts(&self, counts: &[[f64; 2]]) -> Result<ServiceRequester, DpmError> {
        let n = self.num_states();
        if counts.len() != n {
            return Err(DpmError::IncompleteModel {
                reason: format!("{} count rows for a {n}-state model", counts.len()),
            });
        }
        if counts.iter().flatten().any(|&c| !c.is_finite() || c < 0.0) {
            return Err(DpmError::IncompleteModel {
                reason: "transition counts must be finite and nonnegative".to_string(),
            });
        }
        // Row s has at most two successors, the histories shifting in a
        // 0 and a 1, in increasing order; the kernel is emitted sparsely.
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::with_capacity(2 * n);
        let mut probs = Vec::with_capacity(2 * n);
        row_ptr.push(0);
        for (s, &pair) in counts.iter().enumerate() {
            self.fitted_row(s, pair, |t, p| {
                cols.push(t);
                probs.push(p);
            });
            row_ptr.push(cols.len());
        }
        self.requester(StochasticMatrix::from_csr(n, row_ptr, cols, probs)?)
    }

    /// The k-memory requester of a fitted transition matrix, row-major
    /// `n × n` — the form [`WindowedEstimator::fit`](crate::WindowedEstimator::fit)
    /// returns: the matrix's nonzeros in column order, `s & 1` requests
    /// and the history name `h…` for state `s`. On a flattened kernel of
    /// [`Self::extract_from_counts`] it rebuilds that model exactly.
    ///
    /// # Errors
    ///
    /// [`DpmError::IncompleteModel`] when `matrix` is not `n × n`;
    /// [`DpmError::Markov`] when its rows are not stochastic.
    pub fn model(&self, matrix: &[f64]) -> Result<ServiceRequester, DpmError> {
        let n = self.num_states();
        if matrix.len() != n * n {
            return Err(DpmError::IncompleteModel {
                reason: format!("{} entries for a {n}x{n} transition matrix", matrix.len()),
            });
        }
        let rows: Vec<&[f64]> = matrix.chunks_exact(n).collect();
        self.requester(StochasticMatrix::from_rows(&rows)?)
    }

    /// Row `s` of the model fitted to the counts `[s → shift-in 0,
    /// s → shift-in 1]`, passed to `entry` as its nonzero `(column,
    /// probability)` pairs in column order: the smoothed frequencies of
    /// the two successor histories, or the inert self-loop of a history
    /// with zero total count.
    pub(crate) fn fitted_row(&self, s: usize, pair: [f64; 2], mut entry: impl FnMut(usize, f64)) {
        let smoothed = [pair[0] + self.smoothing, pair[1] + self.smoothing];
        let total = smoothed[0] + smoothed[1];
        if total > 0.0 {
            for (bit, &count) in smoothed.iter().enumerate() {
                let p = count / total;
                if p != 0.0 {
                    entry(((s << 1) | bit) & (self.num_states() - 1), p);
                }
            }
        } else {
            entry(s, 1.0);
        }
    }

    /// The k-memory requester over `transition`: state `s` issues
    /// `s & 1` requests and is named by its history bits.
    fn requester(&self, transition: StochasticMatrix) -> Result<ServiceRequester, DpmError> {
        let n = self.num_states();
        let requests = (0..n).map(|s| (s & 1) as u32).collect();
        let names = (0..n)
            .map(|s| format!("h{:0width$b}", s, width = self.memory as usize))
            .collect();
        ServiceRequester::with_names(transition, requests, names)
    }
}

/// Online companion of [`SrExtractor`] for trace-driven simulation: feeds
/// each slice's arrival count and yields the k-memory SR state the
/// extracted model would be in — pass its [`KMemoryTracker::tracker`]
/// closure to `Simulator::run_trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KMemoryTracker {
    memory: u32,
    state: usize,
}

impl KMemoryTracker {
    /// A tracker matching an extractor of the same memory.
    ///
    /// # Panics
    ///
    /// Panics for `memory = 0` or `memory > 16`; run-time-supplied
    /// memories should go through [`Self::try_new`].
    pub fn new(memory: u32) -> Self {
        Self::try_new(memory).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor, mirroring [`SrExtractor::try_new`].
    ///
    /// # Errors
    ///
    /// [`DpmError::BadConfiguration`] for `memory = 0` or `memory > 16`.
    pub fn try_new(memory: u32) -> Result<Self, DpmError> {
        if !(1..=16).contains(&memory) {
            return Err(DpmError::BadConfiguration {
                reason: format!("k-memory tracker memory must be in 1..=16, got {memory}"),
            });
        }
        Ok(KMemoryTracker { memory, state: 0 })
    }

    /// Feeds one slice's arrival count; returns the new state.
    pub fn observe(&mut self, arrivals: u32) -> usize {
        let mask = (1usize << self.memory) - 1;
        self.state = ((self.state << 1) | usize::from(arrivals > 0)) & mask;
        self.state
    }

    /// The current state (the last `k` observed bits).
    pub fn state(&self) -> usize {
        self.state
    }

    /// Adapts the tracker into the closure form `Simulator::run_trace`
    /// expects.
    pub fn tracker(mut self) -> impl FnMut(u32) -> usize {
        move |arrivals| self.observe(arrivals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_5_1_probabilities() {
        let stream = [0, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1];
        let sr = SrExtractor::new(1).extract(&stream).unwrap();
        let p = sr.chain().transition_matrix();
        // "there are three 01-sequences, and eight occurrences of zero
        // [among transition starts]. Hence 3/8."
        assert!((p.prob(0, 1) - 3.0 / 8.0).abs() < 1e-12);
        assert!((p.prob(0, 0) - 5.0 / 8.0).abs() < 1e-12);
        // Ones among starts: positions of 1 in the first 12 bits = 4; the
        // 1→1 pairs: (5,6), (6,7) = 2. So P(1→1) = 2/4.
        assert!((p.prob(1, 1) - 0.5).abs() < 1e-12);
        assert_eq!(sr.requests(0), 0);
        assert_eq!(sr.requests(1), 1);
    }

    #[test]
    fn memory_two_has_four_states() {
        let extractor = SrExtractor::new(2);
        assert_eq!(extractor.num_states(), 4);
        // Alternating stream: histories 01 and 10 dominate.
        let stream: Vec<u32> = (0..100).map(|i| (i % 2) as u32).collect();
        let sr = extractor.extract(&stream).unwrap();
        let p = sr.chain().transition_matrix();
        // From history 01 (state 0b01 = 1) the next bit is always 0 →
        // state 0b10 = 2.
        assert!((p.prob(1, 2) - 1.0).abs() < 1e-12);
        // From history 10 (state 2) the next bit is always 1 → state 1.
        assert!((p.prob(2, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfectly_periodic_stream_is_deterministic_at_memory_matching_period() {
        let stream: Vec<u32> = (0..300).map(|i| u32::from(i % 3 == 0)).collect();
        let sr = SrExtractor::new(3).extract(&stream).unwrap();
        // Every visited state should have a deterministic successor.
        let p = sr.chain().transition_matrix();
        for s in 0..sr.num_states() {
            let max = (0..sr.num_states())
                .map(|t| p.prob(s, t))
                .fold(0.0f64, f64::max);
            assert!((max - 1.0).abs() < 1e-12, "state {s} not deterministic");
        }
    }

    #[test]
    fn unvisited_states_self_loop() {
        let stream = [0, 0, 0, 0, 0];
        let sr = SrExtractor::new(2).extract(&stream).unwrap();
        let p = sr.chain().transition_matrix();
        // History 11 (state 3) never occurs.
        assert_eq!(p.prob(3, 3), 1.0);
    }

    #[test]
    fn smoothing_spreads_mass() {
        let stream = [0, 0, 0, 0, 0, 0];
        let sr = SrExtractor::new(1)
            .with_smoothing(1.0)
            .extract(&stream)
            .unwrap();
        let p = sr.chain().transition_matrix();
        // counts: 0→0 five times (+1 smooth), 0→1 zero (+1 smooth) ⇒ 1/7.
        assert!((p.prob(0, 1) - 1.0 / 7.0).abs() < 1e-12);
        // Unvisited state 1 got smoothed counts too: uniform.
        assert!((p.prob(1, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn too_short_stream_is_rejected() {
        assert!(SrExtractor::new(3).extract(&[1, 0, 1]).is_err());
    }

    #[test]
    #[should_panic(expected = "memory must be in 1..=16")]
    fn zero_memory_panics() {
        SrExtractor::new(0);
    }

    #[test]
    fn try_new_rejects_bad_memory_without_panicking() {
        assert!(matches!(
            SrExtractor::try_new(0),
            Err(DpmError::BadConfiguration { .. })
        ));
        assert!(matches!(
            SrExtractor::try_new(17),
            Err(DpmError::BadConfiguration { .. })
        ));
        assert_eq!(SrExtractor::try_new(3).unwrap().memory(), 3);
        assert!(KMemoryTracker::try_new(0).is_err());
        assert_eq!(KMemoryTracker::try_new(2).unwrap().state(), 0);
    }

    #[test]
    fn counts_path_matches_stream_path() {
        // Fitting from a stream and from the stream's own transition
        // counts, tallied slice by slice, must produce identical models,
        // unvisited histories and smoothing included.
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for memory in [1u32, 2, 3, 5, 8, 16] {
            let k = memory as usize;
            for len in [k + 1, 63, 64, 65, 129, 1000] {
                let density = rng.next_u64() % 101;
                let stream: Vec<u32> = (0..len)
                    .map(|_| u32::from(rng.next_u64() % 100 < density) * 2)
                    .collect();
                let mut counts = vec![[0.0f64; 2]; 1 << k];
                let mut state = 0usize;
                for &c in &stream[..k] {
                    state = ((state << 1) | usize::from(c > 0)) & ((1 << k) - 1);
                }
                for &c in &stream[k..] {
                    let bit = usize::from(c > 0);
                    counts[state][bit] += 1.0;
                    state = ((state << 1) | bit) & ((1 << k) - 1);
                }
                for alpha in [0.0, 0.25] {
                    let extractor = SrExtractor::new(memory).with_smoothing(alpha);
                    let entries = |sr: &ServiceRequester| -> Vec<(usize, u64)> {
                        sr.chain()
                            .transition_matrix()
                            .rows()
                            .flat_map(|row| row.entries().map(|(t, p)| (t, p.to_bits())))
                            .collect()
                    };
                    assert_eq!(
                        entries(&extractor.extract(&stream).unwrap()),
                        entries(&extractor.extract_from_counts(&counts).unwrap()),
                        "k={memory} len={len} alpha={alpha}"
                    );
                }
            }
        }
    }

    #[test]
    fn model_of_a_flattened_fit_is_the_fit() {
        // The matrix form a fit is stored in loses nothing: rebuilding
        // the requester from it gives the same kernel entries, bit for
        // bit, the same requests and the same names — self-loops of
        // unvisited histories and dropped zero probabilities included.
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let entries = |sr: &ServiceRequester| -> Vec<(usize, usize, u64)> {
            let p = sr.chain().transition_matrix();
            p.rows()
                .enumerate()
                .flat_map(|(s, row)| row.entries().map(move |(t, q)| (s, t, q.to_bits())))
                .collect()
        };
        let (mut loops, mut zeros) = (0, 0);
        for memory in 1..=4u32 {
            let n = 1usize << memory;
            for case in 0..40 {
                // Each count is zero a third of the time, else a whole or
                // a fractional tally.
                let counts: Vec<[f64; 2]> = (0..n)
                    .map(|_| {
                        [(); 2].map(|()| match rng.next_u64() % 3 {
                            0 => 0.0,
                            1 => (rng.next_u64() % 50) as f64,
                            _ => (rng.next_u64() % 1000) as f64 / 7.0,
                        })
                    })
                    .collect();
                for alpha in [0.0, 0.5] {
                    let extractor = SrExtractor::new(memory).with_smoothing(alpha);
                    let fitted = extractor.extract_from_counts(&counts).unwrap();
                    let p = fitted.chain().transition_matrix();
                    let flat: Vec<f64> = (0..n)
                        .flat_map(|s| (0..n).map(move |t| (s, t)))
                        .map(|(s, t)| p.prob(s, t))
                        .collect();
                    let rebuilt = extractor.model(&flat).unwrap();
                    let context = format!("k={memory} case={case} alpha={alpha}");
                    assert_eq!(entries(&rebuilt), entries(&fitted), "{context}");
                    for s in 0..n {
                        assert_eq!(rebuilt.requests(s), fitted.requests(s), "{context}");
                        assert_eq!(rebuilt.state_name(s), fitted.state_name(s), "{context}");
                    }
                    for (s, row) in p.rows().enumerate() {
                        loops += usize::from(row.entries().eq([(s, 1.0)]));
                        zeros += usize::from(row.entries().count() == 1);
                    }
                }
            }
        }
        assert!(
            loops > 0 && zeros > loops,
            "{loops} self-loops, {zeros} one-entry rows"
        );
        assert!(SrExtractor::new(2).model(&[0.5; 8]).is_err(), "not 4x4");
        assert!(
            SrExtractor::new(1).model(&[0.5, 0.5, 0.5, 0.6]).is_err(),
            "not stochastic"
        );
    }

    #[test]
    fn counts_path_validates_input() {
        let extractor = SrExtractor::new(1);
        assert!(extractor.extract_from_counts(&[[1.0, 2.0]]).is_err()); // 1 row for 2 states
        assert!(extractor
            .extract_from_counts(&[[1.0, -2.0], [0.0, 0.0]])
            .is_err());
        assert!(extractor
            .extract_from_counts(&[[f64::NAN, 0.0], [0.0, 0.0]])
            .is_err());
    }

    #[test]
    fn tracker_follows_extractor_indexing() {
        let mut tracker = KMemoryTracker::new(2);
        assert_eq!(tracker.observe(1), 0b01);
        assert_eq!(tracker.observe(1), 0b11);
        assert_eq!(tracker.observe(0), 0b10);
        assert_eq!(tracker.state(), 0b10);
        // Closure adapter.
        let mut f = KMemoryTracker::new(1).tracker();
        assert_eq!(f(5), 1);
        assert_eq!(f(0), 0);
    }

    #[test]
    fn extracted_load_matches_stream_density() {
        // A stream with 30% ones: the stationary request rate of the
        // fitted 1-memory model reproduces the empirical density.
        let stream: Vec<u32> = (0..5000).map(|i| u32::from(i % 10 < 3)).collect();
        let sr = SrExtractor::new(1).extract(&stream).unwrap();
        let rate = sr.request_rate().unwrap();
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }
}
