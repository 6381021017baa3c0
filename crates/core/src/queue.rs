use crate::DpmError;

/// The **service queue** of Definition 3.3: a bounded request buffer.
///
/// The queue's transition kernel is completely determined by the service
/// provider (how fast it drains) and the service requester (how fast it
/// fills); equation (3) of the paper. At most one request completes per
/// slice (with probability `σ`), any number may arrive; arrivals beyond
/// capacity are **lost** — the paper's abstract congestion signal.
///
/// A capacity of `Q` gives `Q + 1` queue states `0..=Q`. Capacity 0 models
/// systems without buffering (the CPU case study of Section VI-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceQueue {
    capacity: usize,
}

impl ServiceQueue {
    /// A queue holding at most `capacity` requests.
    pub fn with_capacity(capacity: usize) -> Self {
        ServiceQueue { capacity }
    }

    /// Maximum number of buffered requests.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of queue states (`capacity + 1`).
    pub fn num_states(&self) -> usize {
        self.capacity + 1
    }

    /// One row of the queue kernel — equation (3) with its corner cases.
    ///
    /// Given the current backlog `q`, the per-slice service probability
    /// `sigma = σ(s_p, a)` and `arrivals = r(s_r)` incoming requests,
    /// returns the distribution over the next queue state together with
    /// the *expected number of lost requests* in the slice.
    ///
    /// Dynamics: one request completes with probability `sigma` when any
    /// is present (`q + arrivals > 0`); the next state is
    /// `min(q + arrivals − served, capacity)` and
    /// `max(q + arrivals − served − capacity, 0)` requests are lost.
    ///
    /// # Errors
    ///
    /// * [`DpmError::UnknownIndex`] when `q` exceeds the capacity.
    /// * [`DpmError::InvalidProbability`] when `sigma ∉ [0, 1]`.
    pub fn kernel_row(
        &self,
        q: usize,
        sigma: f64,
        arrivals: u32,
    ) -> Result<(Vec<f64>, f64), DpmError> {
        let step = self.step(q, sigma, arrivals)?;
        let mut row = vec![0.0; self.num_states()];
        for &(next, p) in step.entries() {
            if let Some(slot) = row.get_mut(next) {
                *slot = p;
            }
        }
        Ok((row, step.expected_loss))
    }

    /// The nonzeros of [`Self::kernel_row`] without allocating: at most
    /// two next states (served or not), in increasing order.
    pub(crate) fn step(&self, q: usize, sigma: f64, arrivals: u32) -> Result<QueueStep, DpmError> {
        if q > self.capacity {
            return Err(DpmError::UnknownIndex {
                kind: "queue state",
                index: q,
                limit: self.num_states(),
            });
        }
        if !(0.0..=1.0).contains(&sigma) || !sigma.is_finite() {
            return Err(DpmError::InvalidProbability {
                context: format!("service probability for queue state {q}"),
                value: sigma,
            });
        }
        let mut step = QueueStep {
            next: [(0, 0.0); 2],
            len: 0,
            expected_loss: 0.0,
        };
        let total = q + arrivals as usize;
        if total == 0 {
            // Corner case: empty queue, no arrivals — stays empty w.p. 1.
            step.push(0, 1.0);
            return Ok(step);
        }
        // One service attempt succeeds with probability sigma. Serving
        // never leaves a longer queue, so the next states come in
        // increasing order.
        for (served, prob) in [(1usize, sigma), (0usize, 1.0 - sigma)] {
            if prob == 0.0 {
                continue;
            }
            let after = total - served.min(total);
            let next = after.min(self.capacity);
            step.push(next, prob);
            step.expected_loss += prob * (after - next) as f64;
        }
        Ok(step)
    }
}

/// One row of the queue kernel in sparse form: at most two next states
/// with their probabilities, plus the expected requests lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct QueueStep {
    next: [(usize, f64); 2],
    len: usize,
    /// Expected requests lost in the slice.
    pub(crate) expected_loss: f64,
}

impl QueueStep {
    /// Adds `prob` (nonzero) to next state `next`, which is never below
    /// the last one added.
    fn push(&mut self, next: usize, prob: f64) {
        match self.next.get_mut(..self.len).and_then(<[_]>::last_mut) {
            Some(last) if last.0 == next => last.1 += prob,
            _ => {
                if let Some(slot) = self.next.get_mut(self.len) {
                    *slot = (next, prob);
                    self.len += 1;
                }
            }
        }
    }

    /// The `(next state, probability)` pairs, in increasing state order.
    pub(crate) fn entries(&self) -> &[(usize, f64)] {
        self.next.get(..self.len).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_and_states() {
        let q = ServiceQueue::with_capacity(2);
        assert_eq!(q.capacity(), 2);
        assert_eq!(q.num_states(), 3);
        assert_eq!(ServiceQueue::with_capacity(0).num_states(), 1);
    }

    #[test]
    fn empty_queue_no_arrivals_stays_empty() {
        let q = ServiceQueue::with_capacity(1);
        let (row, loss) = q.kernel_row(0, 0.8, 0).unwrap();
        assert_eq!(row, vec![1.0, 0.0]);
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn service_drains_one_request() {
        // Example 3.3 flavor: σ = 0.8, one enqueued request, no arrivals.
        let q = ServiceQueue::with_capacity(1);
        let (row, loss) = q.kernel_row(1, 0.8, 0).unwrap();
        assert!((row[0] - 0.8).abs() < 1e-12);
        assert!((row[1] - 0.2).abs() < 1e-12);
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn arrival_with_service_race() {
        // Empty queue, one arrival, σ = 0.8: served immediately w.p. 0.8.
        let q = ServiceQueue::with_capacity(1);
        let (row, loss) = q.kernel_row(0, 0.8, 1).unwrap();
        assert!((row[0] - 0.8).abs() < 1e-12);
        assert!((row[1] - 0.2).abs() < 1e-12);
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn full_queue_arrival_is_lost_when_not_served() {
        // Full queue (cap 1), σ = 0, one arrival: stays full, loses 1.
        let q = ServiceQueue::with_capacity(1);
        let (row, loss) = q.kernel_row(1, 0.0, 1).unwrap();
        assert_eq!(row, vec![0.0, 1.0]);
        assert!((loss - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_queue_with_service_can_still_lose() {
        // Full queue (cap 1), σ = 0.8, one arrival: w.p. 0.8 one is served
        // (no loss), w.p. 0.2 the arrival is lost.
        let q = ServiceQueue::with_capacity(1);
        let (row, loss) = q.kernel_row(1, 0.8, 1).unwrap();
        assert!((row[1] - 1.0).abs() < 1e-12); // stays full either way
        assert!((loss - 0.2).abs() < 1e-12);
    }

    #[test]
    fn burst_overflows_capacity() {
        // Corner case "arrivals exceed maximum queue length": q=1, cap=2,
        // 4 arrivals, σ=0: next is full w.p. 1, 3 lost.
        let q = ServiceQueue::with_capacity(2);
        let (row, loss) = q.kernel_row(1, 0.0, 4).unwrap();
        assert_eq!(row, vec![0.0, 0.0, 1.0]);
        assert!((loss - 3.0).abs() < 1e-12);
    }

    #[test]
    fn full_queue_no_arrivals_drains_with_sigma() {
        // Paper: "If the queue is full, its state will change with
        // probability σ".
        let q = ServiceQueue::with_capacity(2);
        let (row, _) = q.kernel_row(2, 0.3, 0).unwrap();
        assert!((row[1] - 0.3).abs() < 1e-12);
        assert!((row[2] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_queue_loses_unserved_arrivals() {
        // The CPU case study: no buffering. An arrival is served w.p. σ or
        // lost.
        let q = ServiceQueue::with_capacity(0);
        let (row, loss) = q.kernel_row(0, 0.6, 1).unwrap();
        assert_eq!(row, vec![1.0]);
        assert!((loss - 0.4).abs() < 1e-12);
    }

    #[test]
    fn rows_are_distributions() {
        let q = ServiceQueue::with_capacity(3);
        for qs in 0..=3 {
            for arrivals in 0..5 {
                for sigma in [0.0, 0.3, 1.0] {
                    let (row, loss) = q.kernel_row(qs, sigma, arrivals).unwrap();
                    let sum: f64 = row.iter().sum();
                    assert!((sum - 1.0).abs() < 1e-12);
                    assert!(loss >= 0.0);
                    // The sparse step holds exactly the row's nonzeros,
                    // at most two, in increasing order.
                    let step = q.step(qs, sigma, arrivals).unwrap();
                    let nonzeros: Vec<(usize, f64)> = row
                        .iter()
                        .copied()
                        .enumerate()
                        .filter(|&(_, p)| p != 0.0)
                        .collect();
                    assert_eq!(step.entries(), nonzeros.as_slice());
                    assert!(step.entries().len() <= 2);
                    assert_eq!(step.expected_loss, loss);
                }
            }
        }
    }

    #[test]
    fn validation_failures() {
        let q = ServiceQueue::with_capacity(1);
        assert!(matches!(
            q.kernel_row(5, 0.5, 0),
            Err(DpmError::UnknownIndex { .. })
        ));
        assert!(matches!(
            q.kernel_row(0, 1.5, 0),
            Err(DpmError::InvalidProbability { .. })
        ));
    }
}
