//! Markov-chain substrate for the `markov-dpm` workspace.
//!
//! Section III of Benini et al. builds the whole power-management model out
//! of three kinds of stochastic objects, all provided here:
//!
//! * [`StochasticMatrix`] — a validated row-stochastic matrix (every row a
//!   probability distribution), the type of every transition kernel in the
//!   paper. Kernels are stored sparsely (CSR: per row, the successors and
//!   their nonzero probabilities), and every pass over them — composition,
//!   LP emission, evaluation, simulation — walks only the nonzeros, handed
//!   out one row at a time as a [`SparseRow`];
//! * [`MarkovChain`] — a stationary discrete-time chain (the service
//!   requester of Definition 3.2), with stationary-distribution and
//!   n-step analysis;
//! * [`ControlledMarkovChain`] — a chain whose kernel depends on a command
//!   from a finite set (the service provider of Definition 3.1 and the
//!   composed system chain), including the decision-mixing operation
//!   `P(δ) = Σₐ δ(a) P(a)` of equation (5);
//! * [`geometric`] — helpers for the geometric switching-time distributions
//!   of equations (1)–(2);
//! * [`StateIndexer`] — mixed-radix indexing for product state spaces,
//!   used by the system composer to flatten (SP, SR, SQ) triples;
//! * [`sample_index`] — the one cumulative-sum sampler every simulated
//!   transition and randomized decision draws through.
//!
//! # Example
//!
//! ```
//! use dpm_markov::{MarkovChain, StochasticMatrix};
//!
//! # fn main() -> Result<(), dpm_markov::MarkovError> {
//! // The bursty service requester of Example 3.2.
//! let p = StochasticMatrix::from_rows(&[&[0.85, 0.15], &[0.15, 0.85]])?;
//! let chain = MarkovChain::new(p);
//! let pi = chain.stationary_distribution()?;
//! assert!((pi[0] - 0.5).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod chain;
mod controlled;
mod error;
pub mod geometric;
mod indexer;
mod sample;
mod stochastic;

pub use chain::MarkovChain;
pub use controlled::ControlledMarkovChain;
pub use error::MarkovError;
pub use indexer::StateIndexer;
pub use sample::sample_index;
pub use stochastic::{SparseRow, StochasticMatrix};

/// Tolerance used when validating that probability rows sum to one.
pub const ROW_SUM_TOLERANCE: f64 = 1e-9;
