//! Workload traces for the `markov-dpm` workspace: recording,
//! discretization, service-requester extraction and synthetic generation.
//!
//! This crate is the *SR extractor* block of the paper's tool (Fig. 7)
//! plus the workload substitutes described in `DESIGN.md` (the original
//! Auspex/ITA/CPU-monitor traces are no longer distributed):
//!
//! * [`Trace`] — a time-stamped request trace with the discretization of
//!   Example 5.1 (`t = 2, 5, 6, 7, 12 ms` at Δt = 1 ms becomes the binary
//!   stream `0010011100001`);
//! * [`SrExtractor`] — the k-memory Markov-model extraction of Section V:
//!   a model with `2^k` states (one per k-bit recent history), with
//!   conditional transition probabilities counted from the stream;
//! * [`KMemoryTracker`] — the matching online state tracker for
//!   trace-driven simulation;
//! * [`WindowedEstimator`] — the **streaming** counterpart of the
//!   extractor for the online-adaptation loop: sliding or
//!   exponential-decay windows over a live bit stream, with a divergence
//!   gauge between consecutive fits for drift detection;
//! * [`generators`] — synthetic workloads: Markov-modulated bursts
//!   (matching the burst statistics the paper quotes), Bernoulli/Poisson
//!   arrivals, heavy-tailed (non-geometric) idle periods, and the
//!   two-regime concatenation of Example 7.1 used to break the
//!   stationarity assumption in Fig. 10.
//!
//! # Example
//!
//! Example 5.1, end to end:
//!
//! ```
//! use dpm_trace::{SrExtractor, Trace};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = Trace::from_arrival_times(&[2.0, 5.0, 6.0, 7.0, 12.0]);
//! let stream = trace.discretize(1.0);
//! assert_eq!(stream, vec![0, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1]);
//! let sr = SrExtractor::new(1).extract(&stream)?;
//! // P(0 → 1) = (# of 01 pairs) / (# of zeros among pair starts) = 3/8.
//! assert!((sr.chain().transition_matrix().prob(0, 1) - 3.0 / 8.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod generators;
mod packed;
mod record;
mod sr_extractor;
mod stats;
mod windowed;

pub use record::Trace;
pub use sr_extractor::{KMemoryTracker, SrExtractor};
pub use stats::TraceStats;
pub use windowed::{
    screen_arrival, screen_arrivals, EstimatorState, WindowKind, WindowedEstimator,
};
