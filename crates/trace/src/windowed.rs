//! Streaming workload estimation for the online-adaptation loop.
//!
//! The paper fits its SR model **offline**, once, from a recorded trace
//! (Section V) — and Section VII concedes that real workloads are not
//! stationary. [`WindowedEstimator`] closes that gap on the estimation
//! side: it wraps the same k-memory [`SrExtractor`] around an **online
//! bit stream**, maintaining transition counts over a bounded-memory
//! window so the fitted model tracks the *recent* workload instead of the
//! whole history, and it measures the **drift** between consecutive fits
//! so a controller can decide when a re-optimization is worth the solve.
//! A fit is the model's transition matrix, flattened row-major — what
//! the drift gauge compares and what a fleet stores per device;
//! [`SrExtractor::model`] builds its requester only where a system is
//! composed for a solve.
//!
//! The window is **sliding** ([`WindowKind::Sliding`]): the last `n`
//! slices count fully, older slices not at all — the paper's
//! trace-counting fit, taken over the most recent slices. It is a
//! bit-packed ring of `n/8` bytes next to an exact integer tally per
//! `(k+1)`-bit pattern (`(history << 1) | bit`). A batch of slices is
//! fed 64 slices at a time: it is packed into words, the transitions
//! it brings in are counted over the packed words, those of the slices
//! that leave the window are counted over the packed ring and
//! subtracted, and the words are shifted into the ring — for any batch
//! length, longer than the window included.

use dpm_core::DpmError;

use crate::{packed, SrExtractor};

/// Screens one slice of raw telemetry as an arrival count.
///
/// Production telemetry arrives as floating point and is not trusted:
/// the value must be finite, non-negative, integral (within `1e-6`) and
/// within `u32` range before it may reach [`WindowedEstimator::observe_stream`]
/// — a NaN folded into the transition counts would silently poison every
/// later fit into a NaN transition matrix.
///
/// # Errors
///
/// [`DpmError::BadConfiguration`] naming the offending value.
pub fn screen_arrival(raw: f64) -> Result<u32, DpmError> {
    let bad = |reason: String| DpmError::BadConfiguration { reason };
    if !raw.is_finite() {
        return Err(bad(format!("telemetry arrival count {raw} is not finite")));
    }
    let rounded = raw.round();
    if (raw - rounded).abs() > 1e-6 {
        return Err(bad(format!(
            "telemetry arrival count {raw} is not an integral count"
        )));
    }
    if rounded < 0.0 {
        return Err(bad(format!("telemetry arrival count {raw} is negative")));
    }
    if rounded > f64::from(u32::MAX) {
        return Err(bad(format!(
            "telemetry arrival count {raw} exceeds the u32 range"
        )));
    }
    Ok(rounded as u32)
}

/// Screens a whole epoch of raw telemetry ([`screen_arrival`] per
/// slice), reporting the first offending slice.
///
/// # Errors
///
/// [`DpmError::BadConfiguration`] naming the offending slice index and
/// value; no prefix of the epoch is returned on failure, so a corrupt
/// stream is rejected whole instead of partially ingested.
pub fn screen_arrivals(raw: &[f64]) -> Result<Vec<u32>, DpmError> {
    raw.iter()
        .enumerate()
        .map(|(slice, &value)| {
            screen_arrival(value).map_err(|e| DpmError::BadConfiguration {
                reason: format!("slice {slice}: {e}"),
            })
        })
        .collect()
}

/// How a [`WindowedEstimator`] forgets the past.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowKind {
    /// Count transitions over the most recent `n` slices only (`n ≥ k+1`
    /// is enforced at construction so at least one transition fits).
    Sliding(usize),
}

/// A streaming k-memory workload estimator with drift detection: feed it
/// the per-slice arrival counts the simulator (or the real system)
/// observes, [`fit`](WindowedEstimator::fit) the model's transition
/// matrix whenever a fresh model is wanted, and read the
/// [`divergence`](WindowedEstimator::divergence) between the last two
/// fits to decide whether the drift justifies a re-optimization. The
/// estimator keeps the last fit as that flattened matrix only;
/// [`SrExtractor::model`] builds the
/// [`ServiceRequester`](dpm_core::ServiceRequester) of a fit where a
/// system is composed for a solve.
///
/// # Example
///
/// ```
/// use dpm_trace::{SrExtractor, WindowKind, WindowedEstimator};
///
/// # fn main() -> Result<(), dpm_core::DpmError> {
/// let extractor = SrExtractor::try_new(1)?.with_smoothing(0.5);
/// let mut estimator = WindowedEstimator::new(extractor, WindowKind::Sliding(64))?;
/// // A bursty phase...
/// for i in 0..64 {
///     estimator.observe(u32::from(i % 2 == 0));
/// }
/// let busy = extractor.model(estimator.fit()?)?.request_rate()?;
/// assert!(busy > 0.3);
/// // ...then a long idle phase: the window forgets the bursts.
/// for _ in 0..64 {
///     estimator.observe(0);
/// }
/// let idle = extractor.model(estimator.fit()?)?.request_rate()?;
/// assert!(idle < busy);
/// // The regime change shows up as divergence between the two fits.
/// assert!(estimator.divergence().unwrap() > 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WindowedEstimator {
    extractor: SrExtractor,
    /// The last `n` slices and their transition tallies.
    window: SlidingWindow,
    /// Current k-bit history (the state transitions are counted *from*).
    state: usize,
    /// Bits observed so far (seeding the history consumes the first k);
    /// also the stream position of the next slice.
    observed: u64,
    /// Transition matrix of the most recent fit, flattened row-major.
    last_fit: Option<Vec<f64>>,
    /// Max-abs transition-probability change between the two most recent
    /// fits.
    divergence: Option<f64>,
    /// The window counts at the most recent fit — what
    /// [`Self::count_drift`] measures movement against.
    counts_at_fit: Option<Vec<[f64; 2]>>,
}

/// The complete streaming state of a [`WindowedEstimator`], detached from
/// its configuration — what a checkpoint must persist so a restored
/// estimator continues **bit-identically** (counts, k-bit history, window
/// contents, fit memory and drift gauge all round-trip exactly; `f64`s
/// should be serialized by bit pattern, not by decimal formatting).
///
/// Produced by [`WindowedEstimator::export_state`], consumed by
/// [`WindowedEstimator::import_state`]. The configuration itself
/// (extractor memory/smoothing, window length) is *not* part of the
/// state: the importing estimator must be constructed with the same
/// configuration, and `import_state` validates the shapes against it.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorState {
    /// Windowed transition counts, `counts[s] = [s→shift-in-0, s→shift-in-1]`
    /// (whole-number tallies).
    pub counts: Vec<[f64; 2]>,
    /// Current k-bit history state.
    pub state: usize,
    /// Slices observed since construction/reset.
    pub observed: u64,
    /// Window contents: the last `min(observed, n)` slices, oldest
    /// first.
    pub ring: Vec<bool>,
    /// Flattened transition matrix of the most recent fit, if any.
    pub last_fit: Option<Vec<f64>>,
    /// Drift gauge between the two most recent fits, if any.
    pub divergence: Option<f64>,
    /// Window counts at the most recent fit, if any.
    pub counts_at_fit: Option<Vec<[f64; 2]>>,
}

/// The last `len` slices of the stream and the exact transition tallies
/// of the window they span.
#[derive(Debug, Clone)]
struct SlidingWindow {
    /// Window length `n` in slices.
    len: usize,
    /// The newest slices, one bit each, in `⌈n/64⌉` words: room for the
    /// last `n`.
    ring: BitRing,
    /// Transition tallies `tally[s] = [s→shift-in-0, s→shift-in-1]`;
    /// flattened, the table is indexed by the `(k+1)`-bit pattern
    /// `(s << 1) | bit`.
    tally: Vec<[u64; 2]>,
}

/// The newest slices of a stream, one bit each, packed 64 to a word.
#[derive(Debug, Clone)]
struct BitRing {
    /// Ring bit `b` is bit `63 - b % 64` of word `b / 64`, so a word
    /// reads oldest slice first from its most significant bit.
    words: Vec<u64>,
    /// The ring bit the next slice is written to.
    head: usize,
}

impl SlidingWindow {
    fn new(len: usize, states: usize) -> Self {
        SlidingWindow {
            len,
            ring: BitRing {
                words: vec![0; len.div_ceil(64)],
                head: 0,
            },
            tally: vec![[0; 2]; states],
        }
    }

    /// Counts the transitions of `batch` (the slices at stream positions
    /// `start..`, past the `seeding` slices that only fill the history)
    /// and un-counts those that leave the window, then stores the batch.
    /// `state` enters as the history before the batch and leaves as the
    /// history after it; `words` is scratch for the packed batch.
    fn feed(
        &mut self,
        state: &mut usize,
        memory: usize,
        start: u64,
        seeding: usize,
        batch: &[u32],
        words: &mut Vec<u64>,
    ) {
        let slice = match batch {
            [] => return,
            &[arrivals] => arrivals > 0,
            _ => return self.feed_words(state, memory, start, seeding, batch, words),
        };
        // One slice — an adaptive controller's per-decision feed: its
        // pattern is the history register plus the new bit, and the
        // departing one the ring's k+1 bits from `n` slices back, so
        // nothing needs packing.
        let pattern = (*state << 1) | usize::from(slice);
        let patterns = self.tally.as_flattened_mut();
        if seeding == 0 {
            if let Some(t) = patterns.get_mut(pattern) {
                *t += 1;
            }
        }
        if start >= self.len as u64 {
            let from = self.ring.bit_back(self.len);
            let leaving = (self.ring.word_at(from) >> (63 - memory)) as usize;
            if let Some(t) = patterns.get_mut(leaving) {
                *t = t.saturating_sub(1);
            }
        }
        *state = pattern & ((1 << memory) - 1);
        self.ring.write(u64::from(slice) << 63, 1);
    }

    /// [`Self::feed`] for a batch of two or more slices, 64 at a time.
    fn feed_words(
        &mut self,
        state: &mut usize,
        memory: usize,
        start: u64,
        seeding: usize,
        batch: &[u32],
        words: &mut Vec<u64>,
    ) {
        packed::pack(batch, words);
        let history = *state as u64;
        let patterns = self.tally.as_flattened_mut();
        packed::count_patterns(
            words,
            history,
            seeding..batch.len(),
            memory,
            |pattern, count| {
                if let Some(t) = patterns.get_mut(pattern) {
                    *t += count;
                }
            },
        );

        // The slice at position `p ≥ n` pushes out the transition whose
        // pattern ends at position `p - n + k`. The patterns ending
        // before `start` are counted where the ring holds them, in two
        // pieces when they wrap round it (bits before ring bit 0 are
        // the ring's last k); the rest over the packed batch, whose
        // bits before slice 0 are `history`.
        let mut leave = |pattern: usize, count: u64| {
            if let Some(t) = patterns.get_mut(pattern) {
                // Saturating: a restored state whose counts disagree
                // with its ring never goes negative.
                *t = t.saturating_sub(count);
            }
        };
        let n = self.len as u64;
        let end = start + batch.len() as u64;
        let first = start.max(n);
        let ends = if end > first {
            first - n + memory as u64..end - n + memory as u64
        } else {
            0..0
        };
        let stored = ends.end.min(start);
        if ends.start < stored {
            let ring = &self.ring;
            let capacity = ring.capacity();
            let at = ring.bit_back((start - ends.start) as usize);
            let len = (stored - ends.start) as usize;
            let unwrapped = len.min(capacity - at);
            let last = if at < memory || unwrapped < len {
                packed::last_history(&ring.words, capacity, 0, memory) as u64
            } else {
                0
            };
            packed::count_patterns(&ring.words, last, at..at + unwrapped, memory, &mut leave);
            if unwrapped < len {
                packed::count_patterns(&ring.words, last, 0..len - unwrapped, memory, &mut leave);
            }
        }
        if ends.end > start {
            let from = (ends.start.max(start) - start) as usize;
            let to = (ends.end - start) as usize;
            packed::count_patterns(words, history, from..to, memory, &mut leave);
        }
        *state = packed::last_history(words, batch.len(), history, memory);
        self.ring.push(words, batch.len());
    }

    /// The window's slices, oldest first, when `observed` slices have
    /// been fed.
    fn bits(&self, observed: u64) -> Vec<bool> {
        let held = observed.min(self.len as u64) as usize;
        let from = self.ring.bit_back(held);
        let mut bits = Vec::with_capacity(held);
        for offset in (0..held).step_by(64) {
            let word = self.ring.word_at(from + offset);
            let take = (held - offset).min(64);
            bits.extend((0..take).map(|i| (word >> (63 - i)) & 1 == 1));
        }
        bits
    }

    /// Replaces the ring with `bits`, oldest first.
    fn load(&mut self, bits: &[bool]) {
        let slices: Vec<u32> = bits.iter().map(|&bit| u32::from(bit)).collect();
        let mut words = Vec::new();
        packed::pack(&slices, &mut words);
        self.ring.clear();
        self.ring.push(&words, slices.len());
    }

    fn counts(&self) -> Vec<[f64; 2]> {
        self.tally
            .iter()
            .map(|&[zero, one]| [zero as f64, one as f64])
            .collect()
    }
}

impl BitRing {
    fn capacity(&self) -> usize {
        self.words.len() * 64
    }

    /// `bit` taken back into the ring, for `bit < 2 · capacity`.
    fn wrap(&self, bit: usize) -> usize {
        let capacity = self.capacity();
        if bit >= capacity {
            bit - capacity
        } else {
            bit
        }
    }

    /// The ring bit of the slice written `back` slices ago
    /// (`back ≤ capacity`).
    fn bit_back(&self, back: usize) -> usize {
        self.wrap(self.head + self.capacity() - back)
    }

    /// The word after word `index`, round the ring.
    fn next_word(&self, index: usize) -> usize {
        if index + 1 == self.words.len() {
            0
        } else {
            index + 1
        }
    }

    /// The 64 slices starting at ring bit `bit` (`bit < 2 · capacity`),
    /// reading across the wrap.
    fn word_at(&self, bit: usize) -> u64 {
        let bit = self.wrap(bit);
        let index = bit / 64;
        let word = |i: usize| self.words.get(i).copied().unwrap_or(0);
        packed::shifted_back(word(index), word(self.next_word(index)), 64 - bit % 64)
    }

    /// Writes the first `len` slices of the packed stream `words`,
    /// oldest first, as the newest slices, a word at a time.
    fn push(&mut self, words: &[u64], len: usize) {
        let skip = len.saturating_sub(self.capacity());
        if skip > 0 {
            self.head = (self.head + skip) % self.capacity();
        }
        let mut offset = skip;
        while offset < len {
            let take = (len - offset).min(64);
            self.write(packed::word_at(words, offset) & packed::top(take), take);
            offset += take;
        }
    }

    /// Writes the top `count` bits of `word` at the head and advances
    /// it; the write wraps at a word boundary, since the capacity is a
    /// whole number of words.
    fn write(&mut self, word: u64, count: usize) {
        let offset = self.head % 64;
        let here = count.min(64 - offset);
        let index = self.head / 64;
        if let Some(slot) = self.words.get_mut(index) {
            let mask = packed::top(here) >> offset;
            *slot = (*slot & !mask) | ((word >> offset) & mask);
        }
        if count > here {
            let next = self.next_word(index);
            if let Some(slot) = self.words.get_mut(next) {
                let mask = packed::top(count - here);
                *slot = (*slot & !mask) | ((word << here) & mask);
            }
        }
        self.head = self.wrap(self.head + count);
    }

    fn clear(&mut self) {
        self.words.fill(0);
        self.head = 0;
    }
}

impl WindowedEstimator {
    /// Wraps `extractor` in a streaming window.
    ///
    /// # Errors
    ///
    /// [`DpmError::BadConfiguration`] for a window shorter than `k + 1`
    /// slices (no transition would ever be counted).
    pub fn new(extractor: SrExtractor, kind: WindowKind) -> Result<Self, DpmError> {
        let WindowKind::Sliding(n) = kind;
        let need = extractor.memory() as usize + 1;
        if n < need {
            return Err(DpmError::BadConfiguration {
                reason: format!(
                    "sliding window of {n} slices cannot hold a transition of a \
                     {}-memory model (need at least {need})",
                    extractor.memory()
                ),
            });
        }
        Ok(WindowedEstimator {
            window: SlidingWindow::new(n, extractor.num_states()),
            extractor,
            state: 0,
            observed: 0,
            last_fit: None,
            divergence: None,
            counts_at_fit: None,
        })
    }

    /// The wrapped extractor (memory, smoothing).
    pub fn extractor(&self) -> &SrExtractor {
        &self.extractor
    }

    /// The window discipline.
    pub fn window(&self) -> WindowKind {
        WindowKind::Sliding(self.window.len)
    }

    /// Slices observed since construction (or the last [`Self::reset`]).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// `true` once at least one transition has been counted, i.e. a
    /// [`Self::fit`] call would succeed.
    pub fn is_ready(&self) -> bool {
        self.observed > u64::from(self.extractor.memory())
    }

    /// Feeds one slice's arrival count — [`Self::observe_stream`] with a
    /// one-slice batch.
    pub fn observe(&mut self, arrivals: u32) {
        self.observe_stream(std::slice::from_ref(&arrivals));
    }

    /// Feeds a batch of per-slice arrival counts (binarized, matching
    /// [`SrExtractor::extract`]), oldest first: updates the windowed
    /// transition counts and advances the k-bit history. Whenever the
    /// counts agree with the window's slices, as they always do unless an
    /// [imported](Self::import_state) state undercounts its ring, the
    /// result is exactly that of feeding the slices one at a time. An
    /// undercounted tally gets all of a batch's arrivals before its
    /// departures, each departure saturating at zero, so it can end
    /// higher than slice-by-slice feeding would leave it.
    ///
    /// The batch is packed 64 slices to a word, and the transition
    /// counter [`SrExtractor::extract`] also uses counts the `(k+1)`-bit
    /// patterns of the history followed by the batch into the tally. It
    /// then un-counts the patterns over the slices that leave the
    /// window, in place: over the packed ring (in two pieces when they
    /// wrap round it) and, for a batch longer than `n − k`, over the
    /// packed batch. The batch's last `n` slices are then shifted into
    /// the ring a word at a time. At memories `k ≤ 3` a span of at least
    /// `2^(k+4)` slices is counted 64 slices at once by popcount:
    /// `2^(k+1)` masks of `k + 1` ANDs and one popcount each per word,
    /// which stops paying from `k = 4` on, where a pattern register
    /// walks the packed bits slice by slice. A one-slice batch (an
    /// adaptive controller's per-decision feed) reads its two patterns
    /// straight off the history and the ring.
    ///
    /// A longer batch is packed into a buffer allocated for the call;
    /// [`Self::observe_stream_with`] packs into one the caller keeps.
    pub fn observe_stream(&mut self, arrivals: &[u32]) {
        self.observe_stream_with(arrivals, &mut Vec::new());
    }

    /// [`Self::observe_stream`], packing the batch into `scratch`, whose
    /// contents are overwritten: a caller feeding many estimators passes
    /// the same buffer to each, so the feeds share one allocation.
    pub fn observe_stream_with(&mut self, arrivals: &[u32], scratch: &mut Vec<u64>) {
        let memory = self.extractor.memory() as usize;
        let start = self.observed;
        // The first k slices of the stream only seed the history.
        let seeding = (memory as u64)
            .saturating_sub(start)
            .min(arrivals.len() as u64) as usize;
        self.window
            .feed(&mut self.state, memory, start, seeding, arrivals, scratch);
        self.observed = start + arrivals.len() as u64;
    }

    /// Feeds one slice of **raw, untrusted** telemetry: validates it
    /// with [`screen_arrival`] and only then counts it. The window is
    /// untouched when validation fails, so one corrupt slice can never
    /// poison the fitted kernel.
    ///
    /// # Errors
    ///
    /// Propagates [`screen_arrival`] rejections.
    pub fn observe_raw(&mut self, arrivals: f64) -> Result<(), DpmError> {
        self.observe(screen_arrival(arrivals)?);
        Ok(())
    }

    /// Fits the k-memory model to the current window and updates the
    /// [`Self::divergence`] gauge against the previous fit. Returns the
    /// fitted transition matrix, flattened row-major — the matrix
    /// [`Self::last_fit`] holds from now on;
    /// [`SrExtractor::model`] builds its requester.
    ///
    /// # Errors
    ///
    /// [`DpmError::IncompleteModel`] when no transition has been observed
    /// yet (see [`Self::is_ready`]).
    pub fn fit(&mut self) -> Result<&[f64], DpmError> {
        if !self.is_ready() {
            return Err(DpmError::IncompleteModel {
                reason: format!(
                    "{} observed slices cannot fit a {}-memory model",
                    self.observed,
                    self.extractor.memory()
                ),
            });
        }
        let counts = self.counts_at_fit.insert(self.window.counts());
        let n = self.extractor.num_states();
        let mut flat = vec![0.0; n * n];
        for (s, (&pair, row)) in counts.iter().zip(flat.chunks_exact_mut(n)).enumerate() {
            self.extractor.fitted_row(s, pair, |t, p| {
                if let Some(entry) = row.get_mut(t) {
                    *entry = p;
                }
            });
        }
        self.divergence = self.last_fit.as_ref().map(|prev| {
            prev.iter()
                .zip(&flat)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max)
        });
        Ok(self.last_fit.insert(flat))
    }

    /// The transition matrix of the most recent [`Self::fit`], flattened
    /// row-major (`None` before the first fit) — the matrix
    /// [`Self::divergence`] compares consecutive fits by.
    pub fn last_fit(&self) -> Option<&[f64]> {
        self.last_fit.as_deref()
    }

    /// Max-abs transition-probability change between the two most recent
    /// [`Self::fit`] calls — the drift gauge a controller thresholds to
    /// decide whether the model moved enough to justify a re-solve.
    /// `None` until two fits have happened.
    pub fn divergence(&self) -> Option<f64> {
        self.divergence
    }

    /// `true` when the drift between the last two fits exceeds
    /// `threshold` (`false` until two fits exist).
    pub fn has_drifted(&self, threshold: f64) -> bool {
        self.divergence.is_some_and(|d| d > threshold)
    }

    /// Max-abs movement of the windowed per-state transition
    /// probabilities since the most recent [`Self::fit`], computed
    /// **straight off the count table** — no model is built, nothing is
    /// allocated. `None` until a fit exists.
    ///
    /// This is the cheap dirty gauge behind incremental re-fit schemes
    /// (the fleet service's quiet gate). With strictly positive
    /// smoothing it equals, within 1e-12, the max-abs divergence a fresh
    /// fit would report against the last one: every row of the fitted
    /// `2^k × 2^k` chain carries the two smoothed probabilities the
    /// counts determine. With zero smoothing it is an upper bound: an
    /// unvisited history fits to the inert self-loop of
    /// [`SrExtractor::extract_from_counts`], and for the all-zeros and
    /// all-ones histories that loop is one of the row's two data
    /// entries, so a row flipping between data `[1 − x, x]` and the loop
    /// moves the fit by `x` (all-zeros) or `1 − x` (all-ones) where this
    /// gauge reads 1. Skipping below a threshold stays conservative
    /// either way.
    pub fn count_drift(&self) -> Option<f64> {
        let at_fit = self.counts_at_fit.as_ref()?;
        let alpha = self.extractor.smoothing();
        let row_drift = |[n0, n1]: [f64; 2], &[t0, t1]: &[f64; 2]| {
            let now_total = n0 + n1 + 2.0 * alpha;
            let then_total = t0 + t1 + 2.0 * alpha;
            match (now_total > 0.0, then_total > 0.0) {
                (true, true) => ((n1 + alpha) / now_total - (t1 + alpha) / then_total).abs(),
                // Both histories unvisited: the inert self-loop on each
                // side, no movement.
                (false, false) => 0.0,
                // A history appeared or vanished from the window: the
                // fitted row flips between data and the self-loop —
                // maximal movement.
                _ => 1.0,
            }
        };
        let worst = self
            .window
            .tally
            .iter()
            .zip(at_fit)
            .map(|(&[zero, one], then)| row_drift([zero as f64, one as f64], then))
            .fold(0.0, f64::max);
        Some(worst)
    }

    /// Exports the complete streaming state for checkpointing — see
    /// [`EstimatorState`]. The configuration (extractor, window) is not
    /// included; pair the state with an identically configured estimator
    /// on import.
    pub fn export_state(&self) -> EstimatorState {
        EstimatorState {
            counts: self.window.counts(),
            state: self.state,
            observed: self.observed,
            ring: self.window.bits(self.observed),
            last_fit: self.last_fit.clone(),
            divergence: self.divergence,
            counts_at_fit: self.counts_at_fit.clone(),
        }
    }

    /// Replaces the streaming state with an exported one — the restore
    /// half of checkpointing. The estimator continues bit-identically
    /// from where the exported one stood.
    ///
    /// # Errors
    ///
    /// [`DpmError::BadConfiguration`] when the state's shapes do not
    /// match this estimator's configuration: wrong count-table or
    /// fit-matrix size, a k-bit history out of range, a ring that is not
    /// the last `min(observed, n)` slices, or counts that are not whole
    /// numbers of at most `n`.
    pub fn import_state(&mut self, state: EstimatorState) -> Result<(), DpmError> {
        let n = self.extractor.num_states();
        let mismatch = |reason: String| DpmError::BadConfiguration { reason };
        if state.counts.len() != n {
            return Err(mismatch(format!(
                "estimator state has {} count rows for a {n}-state model",
                state.counts.len()
            )));
        }
        if state.state >= n {
            return Err(mismatch(format!(
                "estimator state history {} out of range for {n} states",
                state.state
            )));
        }
        for (label, table) in [
            ("counts", Some(&state.counts)),
            ("counts at fit", state.counts_at_fit.as_ref()),
        ] {
            if let Some(table) = table {
                if table.len() != n {
                    return Err(mismatch(format!(
                        "estimator state {label} has {} rows for a {n}-state model",
                        table.len()
                    )));
                }
                // A NaN or negative count smuggled in through a restore
                // would poison every later fit (NaN transition matrix) —
                // reject the state whole instead.
                for (row, pair) in table.iter().enumerate() {
                    for &value in pair {
                        if !value.is_finite() || value < 0.0 {
                            return Err(mismatch(format!(
                                "estimator state {label} row {row} holds the invalid \
                                 count {value}"
                            )));
                        }
                    }
                }
            }
        }
        let limit = self.window.len;
        if state.ring.len() > limit {
            return Err(mismatch(format!(
                "estimator state ring of {} bits exceeds the {limit}-slice window",
                state.ring.len()
            )));
        }
        let held = state.observed.min(limit as u64);
        if state.ring.len() as u64 != held {
            return Err(mismatch(format!(
                "estimator state ring of {} bits after {} slices should hold {held}",
                state.ring.len(),
                state.observed
            )));
        }
        // Counts are tallies of whole transitions inside the window.
        if let Some(&bad) = state
            .counts
            .iter()
            .flatten()
            .find(|&&c| c.fract() != 0.0 || c > limit as f64)
        {
            return Err(mismatch(format!(
                "estimator state count {bad} is not a tally within the {limit}-slice window"
            )));
        }
        if let Some(fit) = &state.last_fit {
            if fit.len() != n * n {
                return Err(mismatch(format!(
                    "estimator state fit of {} entries for a {n}x{n} chain",
                    fit.len()
                )));
            }
            if let Some(&bad) = fit.iter().find(|v| !v.is_finite()) {
                return Err(mismatch(format!(
                    "estimator state fit holds the non-finite entry {bad}"
                )));
            }
        }
        for (tally, &[zero, one]) in self.window.tally.iter_mut().zip(&state.counts) {
            *tally = [zero as u64, one as u64];
        }
        self.window.load(&state.ring);
        self.state = state.state;
        self.observed = state.observed;
        self.last_fit = state.last_fit;
        self.divergence = state.divergence;
        self.counts_at_fit = state.counts_at_fit;
        Ok(())
    }

    /// Forgets everything: counts, history, fit memory. The estimator is
    /// back in its freshly constructed state.
    pub fn reset(&mut self) {
        self.window.tally.fill([0; 2]);
        self.window.ring.clear();
        self.state = 0;
        self.observed = 0;
        self.last_fit = None;
        self.divergence = None;
        self.counts_at_fit = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(estimator: &mut WindowedEstimator, bits: impl IntoIterator<Item = u32>) {
        for b in bits {
            estimator.observe(b);
        }
    }

    #[test]
    fn sliding_window_matches_offline_fit_on_the_window() {
        // After W observations of a stream, the sliding estimator's fit
        // must equal the offline extractor applied to the last W slices
        // (including the k seeding bits).
        let stream: Vec<u32> = (0..200).map(|i| u32::from(i % 5 < 2)).collect();
        let extractor = SrExtractor::new(2).with_smoothing(0.1);
        let mut estimator = WindowedEstimator::new(extractor, WindowKind::Sliding(40)).unwrap();
        feed(&mut estimator, stream.iter().copied());
        let online = extractor.model(estimator.fit().unwrap()).unwrap();
        let offline = extractor.extract(&stream[stream.len() - 40..]).unwrap();
        let (po, pf) = (
            online.chain().transition_matrix(),
            offline.chain().transition_matrix(),
        );
        for s in 0..4 {
            for t in 0..4 {
                assert!(
                    (po.prob(s, t) - pf.prob(s, t)).abs() < 1e-12,
                    "({s},{t}): online {} vs offline {}",
                    po.prob(s, t),
                    pf.prob(s, t)
                );
            }
        }
    }

    #[test]
    fn sliding_window_forgets_the_old_regime() {
        let extractor = SrExtractor::new(1).with_smoothing(0.5);
        let mut estimator = WindowedEstimator::new(extractor, WindowKind::Sliding(50)).unwrap();
        feed(&mut estimator, std::iter::repeat_n(1u32, 200));
        let busy = extractor.model(estimator.fit().unwrap()).unwrap();
        let busy = busy.request_rate().unwrap();
        assert!(busy > 0.9, "busy rate {busy}");
        feed(&mut estimator, std::iter::repeat_n(0u32, 200));
        let idle = extractor.model(estimator.fit().unwrap()).unwrap();
        let idle = idle.request_rate().unwrap();
        assert!(idle < 0.1, "idle rate {idle}");
        assert!(estimator.has_drifted(0.3));
    }

    #[test]
    fn stationary_stream_has_small_divergence() {
        let extractor = SrExtractor::new(1).with_smoothing(1.0);
        let mut estimator = WindowedEstimator::new(extractor, WindowKind::Sliding(500)).unwrap();
        let stream: Vec<u32> = (0..3000).map(|i| u32::from(i % 4 == 0)).collect();
        let mut worst: f64 = 0.0;
        for (i, &c) in stream.iter().enumerate() {
            estimator.observe(c);
            if i > 600 && i % 200 == 0 {
                estimator.fit().unwrap();
                if let Some(d) = estimator.divergence() {
                    worst = worst.max(d);
                }
            }
        }
        assert!(worst < 0.05, "stationary divergence {worst}");
        assert!(!estimator.has_drifted(0.05));
    }

    #[test]
    fn not_ready_until_a_transition_exists() {
        let mut estimator =
            WindowedEstimator::new(SrExtractor::new(3), WindowKind::Sliding(10)).unwrap();
        feed(&mut estimator, [1, 0, 1]);
        assert!(!estimator.is_ready());
        assert!(estimator.fit().is_err());
        estimator.observe(1);
        assert!(estimator.is_ready());
        assert!(estimator.fit().is_ok());
        assert_eq!(estimator.divergence(), None);
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let mut estimator =
            WindowedEstimator::new(SrExtractor::new(1), WindowKind::Sliding(10)).unwrap();
        feed(&mut estimator, [1, 1, 0, 1]);
        estimator.fit().unwrap();
        estimator.reset();
        assert_eq!(estimator.observed(), 0);
        assert!(!estimator.is_ready());
        assert_eq!(estimator.divergence(), None);
    }

    #[test]
    fn count_drift_tracks_movement_since_the_last_fit() {
        let extractor = SrExtractor::new(1).with_smoothing(0.5);
        let mut estimator = WindowedEstimator::new(extractor, WindowKind::Sliding(64)).unwrap();
        assert_eq!(estimator.count_drift(), None, "no fit yet");
        feed(&mut estimator, (0..64).map(|i| u32::from(i % 4 == 0)));
        estimator.fit().unwrap();
        assert_eq!(estimator.count_drift(), Some(0.0), "nothing moved yet");
        // A periodic stream whose period divides the window: after one
        // more full period the window counts are identical again.
        feed(&mut estimator, (0..4).map(|i| u32::from(i % 4 == 0)));
        assert_eq!(
            estimator.count_drift(),
            Some(0.0),
            "periodic refill leaves counts unchanged"
        );
        // A regime flip moves the counts a lot.
        feed(&mut estimator, std::iter::repeat_n(1u32, 64));
        assert!(estimator.count_drift().unwrap() > 0.3);
        // With positive smoothing the count gauge equals the divergence
        // a real fit reports.
        let drift = estimator.count_drift().unwrap();
        estimator.fit().unwrap();
        let divergence = estimator.divergence().unwrap();
        assert!(
            (drift - divergence).abs() < 1e-12,
            "count drift {drift} vs fit divergence {divergence}"
        );

        // The same agreement across memories, window lengths that are
        // not multiples of 64, smoothings and random batch splits.
        use rand::{RngCore, SeedableRng};
        let mut compared = 0;
        for memory in 1..=3u32 {
            for window in [5usize, 50, 100, 177] {
                for alpha in [0.5, 0.01] {
                    let seed = u64::from(memory) * 1_000 + window as u64;
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let extractor = SrExtractor::new(memory).with_smoothing(alpha);
                    let mut estimator =
                        WindowedEstimator::new(extractor, WindowKind::Sliding(window)).unwrap();
                    let stream = random_stream(&mut rng, 6 * window + 200);
                    let mut rest = stream.as_slice();
                    while !rest.is_empty() {
                        let take = random_batch(&mut rng, window).min(rest.len());
                        let (batch, tail) = rest.split_at(take);
                        rest = tail;
                        estimator.observe_stream(batch);
                        if !estimator.is_ready() || rng.next_u64() % 3 != 0 {
                            continue;
                        }
                        let drift = estimator.count_drift();
                        estimator.fit().unwrap();
                        if let (Some(drift), Some(divergence)) = (drift, estimator.divergence()) {
                            assert!(
                                (drift - divergence).abs() < 1e-12,
                                "k={memory} n={window} alpha={alpha}: count drift {drift} \
                                 vs fit divergence {divergence}"
                            );
                            compared += 1;
                        }
                    }
                }
            }
        }
        assert!(compared > 100, "only {compared} fits compared");

        // Zero smoothing: the unvisited all-zeros history fits to its
        // self-loop, which is also its 0-successor. When the history
        // shows up with P(0→1) = 1/2 the fit moves by 1/2, while the
        // gauge reads the full flip — an upper bound, not the divergence.
        let extractor = SrExtractor::new(1).with_smoothing(0.0);
        let mut estimator = WindowedEstimator::new(extractor, WindowKind::Sliding(16)).unwrap();
        feed(&mut estimator, std::iter::repeat_n(1u32, 16));
        estimator.fit().unwrap();
        feed(&mut estimator, [0, 0, 1]);
        let drift = estimator.count_drift().unwrap();
        estimator.fit().unwrap();
        let divergence = estimator.divergence().unwrap();
        assert_eq!(drift, 1.0);
        assert!(
            drift >= divergence && (divergence - 0.5).abs() < 1e-12,
            "zero-smoothing count drift {drift} vs fit divergence {divergence}"
        );
    }

    #[test]
    fn exported_state_round_trips_bit_identically() {
        let extractor = SrExtractor::new(2).with_smoothing(0.5);
        let build = || WindowedEstimator::new(extractor, WindowKind::Sliding(40)).unwrap();
        let mut original = build();
        feed(&mut original, (0..100).map(|i| u32::from(i % 3 == 0)));
        original.fit().unwrap();
        feed(&mut original, (0..25).map(|i| u32::from(i % 2 == 0)));
        original.fit().unwrap();
        feed(&mut original, [1, 1, 0]);

        let mut restored = build();
        restored.import_state(original.export_state()).unwrap();
        assert_eq!(restored.observed(), original.observed());
        assert_eq!(restored.divergence(), original.divergence());
        assert_eq!(restored.count_drift(), original.count_drift());
        // Continue both with the same stream: fits stay bit-identical.
        for est in [&mut original, &mut restored] {
            feed(est, (0..30).map(|i| u32::from(i % 5 < 2)));
        }
        let a = original.fit().unwrap().to_vec();
        let b = restored.fit().unwrap();
        for (i, (pa, pb)) in a.iter().zip(b).enumerate() {
            assert!(
                pa.to_bits() == pb.to_bits(),
                "entry {i} differs after restore"
            );
        }
        assert_eq!(original.divergence(), restored.divergence());
    }

    #[test]
    fn import_rejects_mismatched_state_shapes() {
        let mut estimator =
            WindowedEstimator::new(SrExtractor::new(1), WindowKind::Sliding(8)).unwrap();
        let good = estimator.export_state();
        let mut bad = good.clone();
        bad.counts = vec![[0.0; 2]; 4];
        assert!(estimator.import_state(bad).is_err(), "wrong count rows");
        let mut bad = good.clone();
        bad.state = 9;
        assert!(estimator.import_state(bad).is_err(), "history out of range");
        let mut bad = good.clone();
        bad.ring = vec![true; 9];
        assert!(estimator.import_state(bad).is_err(), "ring too long");
        let mut bad = good;
        bad.last_fit = Some(vec![0.5; 3]);
        assert!(estimator.import_state(bad).is_err(), "fit wrong size");
    }

    #[test]
    fn poisoned_telemetry_cannot_reach_a_fit() {
        // Regression guard for the ingest boundary: no sequence of
        // hostile raw observations or tampered state may ever produce a
        // transition matrix with a non-finite entry.
        let mut estimator =
            WindowedEstimator::new(SrExtractor::new(1), WindowKind::Sliding(16)).unwrap();
        feed(&mut estimator, (0..40).map(|i| u32::from(i % 3 == 0)));
        let clean = estimator.export_state();

        for raw in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            2.5,
            f64::from(u32::MAX) * 2.0,
        ] {
            assert!(screen_arrival(raw).is_err(), "{raw} must be screened out");
            assert!(estimator.observe_raw(raw).is_err());
        }
        assert!(screen_arrivals(&[1.0, 0.0, f64::NAN, 3.0]).is_err());
        // Rejected observations must not have touched the window.
        assert_eq!(estimator.export_state(), clean);

        let mut bad = clean.clone();
        bad.counts[0][1] = f64::NAN;
        assert!(estimator.import_state(bad).is_err(), "NaN count");
        let mut bad = clean.clone();
        bad.counts[1][0] = -3.0;
        assert!(estimator.import_state(bad).is_err(), "negative count");
        let mut bad = clean.clone();
        bad.last_fit = Some(vec![f64::NAN; 4]);
        assert!(estimator.import_state(bad).is_err(), "NaN fit baseline");

        // After every rejection the estimator still fits finitely.
        estimator.observe_raw(1.0).unwrap();
        let fit = estimator.fit().unwrap();
        assert!(fit.iter().all(|p| p.is_finite()), "non-finite fit {fit:?}");
    }

    #[test]
    fn bad_configurations_are_rejected() {
        assert!(WindowedEstimator::new(SrExtractor::new(3), WindowKind::Sliding(3)).is_err());
        assert!(WindowedEstimator::new(SrExtractor::new(3), WindowKind::Sliding(4)).is_ok());
    }

    #[test]
    fn restored_counts_that_disagree_with_the_ring_saturate_at_zero() {
        // A restored state whose tallies undercount its ring: the
        // departing transitions find nothing to remove and stop at zero.
        let extractor = SrExtractor::new(2).with_smoothing(0.5);
        let mut source = WindowedEstimator::new(extractor, WindowKind::Sliding(16)).unwrap();
        feed(&mut source, (0..40).map(|i| u32::from(i % 3 == 0)));
        let mut state = source.export_state();
        state.counts = vec![[0.0; 2]; 4];
        let mut restored = WindowedEstimator::new(extractor, WindowKind::Sliding(16)).unwrap();
        restored.import_state(state).unwrap();
        restored.observe_stream(&[1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1]);
        let counts = restored.export_state().counts;
        assert!(counts
            .iter()
            .flatten()
            .all(|&c| c >= 0.0 && c.fract() == 0.0));
        let total: f64 = counts.iter().flatten().sum();
        assert!(total <= 12.0, "only the fed transitions remain: {total}");
        assert!(restored.fit().is_ok());
    }

    #[test]
    fn import_rejects_rings_and_counts_a_sliding_window_cannot_hold() {
        let extractor = SrExtractor::new(1);
        let mut estimator = WindowedEstimator::new(extractor, WindowKind::Sliding(8)).unwrap();
        feed(&mut estimator, [1, 0, 1, 1, 0]);
        let good = estimator.export_state();
        assert_eq!(good.ring.len(), 5);
        assert!(estimator.import_state(good.clone()).is_ok());
        let mut bad = good.clone();
        bad.ring.pop();
        assert!(
            estimator.import_state(bad).is_err(),
            "ring shorter than the stream"
        );
        let mut bad = good.clone();
        bad.observed = 3;
        assert!(
            estimator.import_state(bad).is_err(),
            "ring longer than the stream"
        );
        let mut bad = good.clone();
        bad.counts[0][1] = 0.5;
        assert!(estimator.import_state(bad).is_err(), "fractional tally");
        let mut bad = good;
        bad.counts[1][1] = 9.0;
        assert!(
            estimator.import_state(bad).is_err(),
            "tally beyond the window"
        );
    }

    /// The per-slice sliding-window algorithm that batch feeding
    /// replaced, kept as the reference: a `VecDeque` of bits, float
    /// counts, and the departing history recomputed from the ring on
    /// every slice.
    struct Reference {
        memory: usize,
        len: usize,
        counts: Vec<[f64; 2]>,
        state: usize,
        observed: u64,
        ring: std::collections::VecDeque<bool>,
        /// The counts at the last fit, as `counts_at_fit` records them.
        at_fit: Option<Vec<[f64; 2]>>,
    }

    impl Reference {
        fn new(memory: usize, len: usize) -> Self {
            Reference {
                memory,
                len,
                counts: vec![[0.0; 2]; 1 << memory],
                state: 0,
                observed: 0,
                ring: std::collections::VecDeque::new(),
                at_fit: None,
            }
        }

        /// Feeds `batch` one slice at a time, counting every arriving
        /// transition first and then un-counting the departing ones,
        /// each saturating at zero — the order a batch feed applies
        /// them in. For counts that agree with the ring no subtraction
        /// ever saturates, and the order does not matter.
        fn observe_batch(&mut self, batch: &[u32]) {
            let k = self.memory;
            let mask = (1 << k) - 1;
            let mut departed = Vec::new();
            for &arrivals in batch {
                let bit = arrivals > 0;
                self.observed += 1;
                self.ring.push_back(bit);
                if self.observed > k as u64 {
                    self.counts[self.state][usize::from(bit)] += 1.0;
                    if self.ring.len() > self.len {
                        let mut old_state = 0usize;
                        for &b in self.ring.iter().take(k) {
                            old_state = ((old_state << 1) | usize::from(b)) & mask;
                        }
                        departed.push((old_state, usize::from(self.ring[k])));
                        self.ring.pop_front();
                    }
                }
                self.state = ((self.state << 1) | usize::from(bit)) & mask;
            }
            for (state, bit) in departed {
                let count = &mut self.counts[state][bit];
                *count = (*count - 1.0).max(0.0);
            }
        }

        fn count_drift(&self, alpha: f64) -> Option<f64> {
            let at_fit = self.at_fit.as_ref()?;
            let mut worst = 0.0f64;
            for (now, then) in self.counts.iter().zip(at_fit) {
                let now_total = now[0] + now[1] + 2.0 * alpha;
                let then_total = then[0] + then[1] + 2.0 * alpha;
                let drift = match (now_total > 0.0, then_total > 0.0) {
                    (true, true) => {
                        ((now[1] + alpha) / now_total - (then[1] + alpha) / then_total).abs()
                    }
                    (false, false) => 0.0,
                    _ => 1.0,
                };
                worst = worst.max(drift);
            }
            Some(worst)
        }

        /// The state the estimator must export, with the fit memory the
        /// reference does not model taken from `subject`.
        fn expected(&self, subject: &EstimatorState) -> EstimatorState {
            EstimatorState {
                counts: self.counts.clone(),
                state: self.state,
                observed: self.observed,
                ring: self.ring.iter().copied().collect(),
                last_fit: subject.last_fit.clone(),
                divergence: subject.divergence,
                counts_at_fit: self.at_fit.clone(),
            }
        }
    }

    fn bits_of(p: &dpm_markov::StochasticMatrix) -> Vec<u64> {
        let n = p.num_states();
        (0..n)
            .flat_map(|s| (0..n).map(move |t| (s, t)))
            .map(|(s, t)| p.prob(s, t).to_bits())
            .collect()
    }

    /// One random stream: mostly Bernoulli slices of a random density,
    /// with periodic stretches, and arrival counts above one.
    fn random_stream(rng: &mut rand::rngs::StdRng, len: usize) -> Vec<u32> {
        use rand::RngCore;
        let density = rng.next_u64() % 101;
        let period = 2 + rng.next_u64() % 9;
        (0..len as u64)
            .map(|i| {
                let draw = rng.next_u64();
                if (i / 97) % 3 == 2 {
                    u32::from(i % period == 0) * (1 + (draw % 3) as u32)
                } else {
                    u32::from(draw % 100 < density)
                }
            })
            .collect()
    }

    /// Random batch lengths: empty, single-slice, short and longer than
    /// the window.
    fn random_batch(rng: &mut rand::rngs::StdRng, window: usize) -> usize {
        use rand::RngCore;
        match rng.next_u64() % 6 {
            0 => 0,
            1 => 1,
            2 => 1 + (rng.next_u64() % 8) as usize,
            3 => window + 1 + (rng.next_u64() % (window as u64 + 3)) as usize,
            _ => (rng.next_u64() % (window as u64 + 2)) as usize,
        }
    }

    /// Batch lengths around the word size and the window: the random
    /// mix of [`random_batch`], or exactly 63, 64, 65 or `n - k` slices.
    fn boundary_batch(rng: &mut rand::rngs::StdRng, window: usize, memory: usize) -> usize {
        use rand::RngCore;
        match rng.next_u64() % 8 {
            0 => 63,
            1 => 64,
            2 => 65,
            3 => window - memory,
            _ => random_batch(rng, window),
        }
    }

    #[test]
    fn batch_feed_matches_the_per_slice_algorithm() {
        use rand::{RngCore, SeedableRng};
        let alpha = 0.25;
        let mut cases = 0;
        // Every other case packs into one buffer shared by all of them,
        // so a feed starts from another estimator's stale words.
        let mut shared = Vec::new();
        for memory in [1usize, 2, 3, 5, 8, 16] {
            for window in [memory + 1, 63, 64, 65, 127, 128, 129, 800] {
                for start in ["empty", "mid-seeding", "imported", "undercounted"] {
                    let seed = (memory * 100_000 + window * 10 + start.len()) as u64;
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let extractor = SrExtractor::new(memory as u32).with_smoothing(alpha);
                    let mut subject =
                        WindowedEstimator::new(extractor, WindowKind::Sliding(window)).unwrap();
                    let mut reference = Reference::new(memory, window);
                    match start {
                        "mid-seeding" => {
                            let prefix =
                                random_stream(&mut rng, memory.div_ceil(2).min(memory - 1));
                            subject.observe_stream(&prefix);
                            reference.observe_batch(&prefix);
                        }
                        "imported" | "undercounted" => {
                            let len = (rng.next_u64() % (3 * window as u64 + 5)) as usize;
                            reference.observe_batch(&random_stream(&mut rng, len));
                            if start == "undercounted" {
                                // Tallies below what the ring holds: the
                                // departures saturate at zero.
                                for count in reference.counts.iter_mut().flatten() {
                                    *count = (rng.next_u64() % (*count as u64 + 1)) as f64;
                                }
                            }
                            reference.at_fit = Some(reference.counts.clone());
                            let exported = reference.expected(&subject.export_state());
                            subject.import_state(exported).unwrap();
                        }
                        _ => {}
                    }
                    let stream = random_stream(&mut rng, 4 * window + 300);
                    let mut rest = stream.as_slice();
                    while !rest.is_empty() {
                        let take = boundary_batch(&mut rng, window, memory).min(rest.len());
                        let (batch, tail) = rest.split_at(take);
                        rest = tail;
                        if cases % 2 == 0 {
                            subject.observe_stream(batch);
                        } else {
                            subject.observe_stream_with(batch, &mut shared);
                        }
                        reference.observe_batch(batch);
                        let context = format!("k={memory} n={window} start={start}");
                        // A k = 16 fit is a dense 65536-state chain: fits
                        // are compared up to k = 8.
                        if memory <= 8 && subject.is_ready() && rng.next_u64() % 4 == 0 {
                            let fitted = subject.fit().unwrap();
                            let expected =
                                extractor.extract_from_counts(&reference.counts).unwrap();
                            reference.at_fit = Some(reference.counts.clone());
                            assert_eq!(
                                fitted.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                                bits_of(expected.chain().transition_matrix()),
                                "{context}: fit"
                            );
                        }
                        let exported = subject.export_state();
                        assert_eq!(exported, reference.expected(&exported), "{context}: state");
                        assert_eq!(
                            subject.count_drift().map(f64::to_bits),
                            reference.count_drift(alpha).map(f64::to_bits),
                            "{context}: count drift"
                        );
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 6 * 8 * 4);
    }
}
