use dpm_linalg::Matrix;
use dpm_markov::{ControlledMarkovChain, StateIndexer, StochasticMatrix};

use crate::{DpmError, ServiceProvider, ServiceQueue, ServiceRequester};

/// A composite system state: the triple `(s_SP, s_SR, s_SQ)` of
/// Section III ("the system state is the concatenation of the states of
/// SP, SR, and SQ").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystemState {
    /// Service-provider state.
    pub sp: usize,
    /// Service-requester (workload) state.
    pub sr: usize,
    /// Queue backlog.
    pub queue: usize,
}

/// The composed power-managed system: one controlled Markov chain over
/// `S_SP × S_SR × S_SQ` — the output of the paper's *Markov composer*
/// (Fig. 7), implementing equation (4) with all queue corner cases.
///
/// Composition semantics (matching Example 3.5): in one slice, under
/// command `a`,
///
/// 1. the SP moves `s_p → s_p'` with `P_SP(s_p → s_p' | a)`;
/// 2. the SR moves `s_r → s_r'` with `P_SR(s_r → s_r')`, and `r(s_r')`
///    new requests arrive during the slice;
/// 3. the queue serves one pending/incoming request with probability
///    `σ(s_p, a)` and absorbs the arrivals, losing whatever exceeds its
///    capacity.
///
/// The factors are conditionally independent given the command, so the
/// composite transition probability is the product of the three — exactly
/// the structure of the paper's worked transition
/// `(on,0,0) → (on,1,0) = p_{01} · σ_{on}(s_on) · p_{on,on}(s_on)`.
///
/// The composer emits each command's kernel straight into sparse (CSR)
/// form: a row's successors are the products of the SP row's nonzeros,
/// the SR row's nonzeros and the queue's at most two next states, and
/// they come out in increasing flat index. Composition therefore takes
/// time and memory in proportion to the kernels' nonzeros — about two
/// per (state, command) on the appendix-B systems — not to
/// `states² × commands`.
///
/// `SystemModel` also carries the cost structure needed by the optimizer:
/// the power matrix `p(s, a)`, and per-slice expected request losses.
#[derive(Debug, Clone)]
pub struct SystemModel {
    sp: ServiceProvider,
    sr: ServiceRequester,
    queue: ServiceQueue,
    indexer: StateIndexer,
    chain: ControlledMarkovChain,
    /// Expected requests lost per slice, per (composite state, command).
    expected_loss: Matrix,
}

impl SystemModel {
    /// Composes provider, requester and queue into the monolithic system
    /// chain (equation (4)).
    ///
    /// # Errors
    ///
    /// Propagates component validation failures; composition itself cannot
    /// fail for validated components.
    pub fn compose(
        sp: ServiceProvider,
        sr: ServiceRequester,
        queue: ServiceQueue,
    ) -> Result<Self, DpmError> {
        let n_sp = sp.num_states();
        let n_sr = sr.num_states();
        let n_q = queue.num_states();
        let m = sp.num_commands();
        let indexer = StateIndexer::new(&[n_sp, n_sr, n_q])?;
        let n = indexer.num_states();

        let sr_kernel = sr.chain().transition_matrix();
        let mut kernels = Vec::with_capacity(m);
        let mut expected_loss = Matrix::zeros(n, m);

        for a in 0..m {
            let sp_kernel = sp.chain().kernel(a);
            // Each row's successors: SP successors × SR successors × the
            // queue's (at most two) next states.
            let nnz = n_q * sp_kernel.nnz() * sr_kernel.nnz() * 2;
            let mut row_ptr = Vec::with_capacity(n + 1);
            let mut cols = Vec::with_capacity(nnz);
            let mut probs = Vec::with_capacity(nnz);
            row_ptr.push(0);
            // Rows in flat-index order: SP state slowest, queue fastest.
            for (sp_s, sp_row) in sp_kernel.rows().enumerate() {
                let sigma = sp.service_rate(sp_s, a);
                for sr_row in sr_kernel.rows() {
                    for q_s in 0..n_q {
                        // Flat index of (sp_s, sr_s, q_s).
                        let s = row_ptr.len() - 1;
                        let mut loss_acc = 0.0;
                        // Successors in increasing flat index, so each
                        // row is emitted already sorted.
                        for (sp_n, p_sp) in sp_row.entries() {
                            for (sr_n, p_sr) in sr_row.entries() {
                                let arrivals = sr.requests(sr_n);
                                let q_step = queue.step(q_s, sigma, arrivals)?;
                                // Loss depends only on (q_s, sigma,
                                // arrivals), so accumulate it once per SR
                                // destination (weighting by the SP branch
                                // keeps the total correct since Σ p_sp = 1).
                                loss_acc += p_sp * p_sr * q_step.expected_loss;
                                let base = (sp_n * n_sr + sr_n) * n_q;
                                for &(q_n, p_q) in q_step.entries() {
                                    cols.push(base + q_n);
                                    probs.push(p_sp * p_sr * p_q);
                                }
                            }
                        }
                        expected_loss[(s, a)] = loss_acc;
                        row_ptr.push(cols.len());
                    }
                }
            }
            kernels.push(StochasticMatrix::from_csr(n, row_ptr, cols, probs)?);
        }

        Ok(SystemModel {
            sp,
            sr,
            queue,
            indexer,
            chain: ControlledMarkovChain::new(kernels)?,
            expected_loss,
        })
    }

    /// Number of composite states (`|S_SP| · |S_SR| · |S_SQ|`).
    pub fn num_states(&self) -> usize {
        self.indexer.num_states()
    }

    /// Number of power-manager commands.
    pub fn num_commands(&self) -> usize {
        self.sp.num_commands()
    }

    /// The composed controlled chain.
    pub fn chain(&self) -> &ControlledMarkovChain {
        &self.chain
    }

    /// The service provider.
    pub fn provider(&self) -> &ServiceProvider {
        &self.sp
    }

    /// The service requester.
    pub fn requester(&self) -> &ServiceRequester {
        &self.sr
    }

    /// The queue.
    pub fn queue(&self) -> &ServiceQueue {
        &self.queue
    }

    /// Flattens a composite state to its chain index.
    ///
    /// # Errors
    ///
    /// [`DpmError::UnknownIndex`] for out-of-range components.
    pub fn state_index(&self, state: SystemState) -> Result<usize, DpmError> {
        self.indexer
            .flatten(&[state.sp, state.sr, state.queue])
            .map_err(|_| DpmError::UnknownIndex {
                kind: "system state",
                index: state.sp,
                limit: self.num_states(),
            })
    }

    /// Recovers the composite state of a chain index.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn state_of(&self, index: usize) -> SystemState {
        let [sp, sr, queue] = self.indexer.coords(index);
        SystemState { sp, sr, queue }
    }

    /// Human-readable label such as `(on, busy, q=1)`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn state_label(&self, index: usize) -> String {
        let s = self.state_of(index);
        format!(
            "({}, {}, q={})",
            self.sp.state_name(s.sp),
            self.sr.state_name(s.sr),
            s.queue
        )
    }

    /// A deterministic initial distribution concentrated on `state`.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::state_index`] failures.
    pub fn point_distribution(&self, state: SystemState) -> Result<Vec<f64>, DpmError> {
        let idx = self.state_index(state)?;
        let mut q = vec![0.0; self.num_states()];
        q[idx] = 1.0;
        Ok(q)
    }

    /// Expected requests lost per slice in `(state, command)` — the exact
    /// loss rate used for request-loss constraints.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn expected_loss(&self, state: usize, command: usize) -> f64 {
        self.expected_loss[(state, command)]
    }

    /// The full expected-loss matrix.
    pub fn expected_loss_matrix(&self) -> &Matrix {
        &self.expected_loss
    }

    /// Builds an arbitrary `num_states × num_commands` cost matrix from a
    /// closure over `(composite state, command)` — the hook for custom
    /// penalties like the CPU case study's "SR busy while SP asleep".
    pub fn custom_cost(&self, mut f: impl FnMut(SystemState, usize) -> f64) -> Matrix {
        Matrix::from_fn(self.num_states(), self.num_commands(), |s, a| {
            f(self.state_of(s), a)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example system (Examples 3.1–3.5): two SP states, two
    /// commands, bursty two-state SR, queue capacity 1 ⇒ 8 states.
    fn example_system() -> SystemModel {
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
        let sr = ServiceRequester::two_state(0.15, 0.85).unwrap();
        SystemModel::compose(sp, sr, ServiceQueue::with_capacity(1)).unwrap()
    }

    #[test]
    fn example_system_has_eight_states() {
        let system = example_system();
        assert_eq!(system.num_states(), 8);
        assert_eq!(system.num_commands(), 2);
    }

    #[test]
    fn kernels_are_row_stochastic() {
        // from_csr would have failed otherwise, but assert explicitly.
        let system = example_system();
        for a in 0..system.num_commands() {
            let k = system.chain().kernel(a);
            for s in 0..system.num_states() {
                let sum: f64 = k.row(s).iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "row {s} cmd {a} sums to {sum}");
            }
        }
    }

    #[test]
    fn worked_transition_of_example_3_5() {
        // (on, idle, 0) → (on, busy, 0) under s_on:
        //   p_sr(idle→busy) · σ(on, s_on) · p_sp(on→on | s_on)
        //   = 0.15 · 0.8 · 1.0 = 0.12
        let system = example_system();
        let from = system
            .state_index(SystemState {
                sp: 0,
                sr: 0,
                queue: 0,
            })
            .unwrap();
        let to = system
            .state_index(SystemState {
                sp: 0,
                sr: 1,
                queue: 0,
            })
            .unwrap();
        let p = system.chain().prob(from, to, 0);
        assert!((p - 0.12).abs() < 1e-12, "got {p}");
        // Under s_off the SP cannot serve: the same queue-clearing
        // transition requires staying on (w.p. 0.2) and σ = 0, so the
        // queue fills instead: (on, busy, 0) is unreachable... precisely:
        // P = p_sr(0→1) · p_sp(on→on|s_off) · P(queue 0→0 | σ=0, r=1) = 0.
        let p_off = system.chain().prob(from, to, 1);
        assert_eq!(p_off, 0.0);
    }

    #[test]
    fn queue_fills_when_provider_is_off() {
        // (off, busy, 0) --s_off--> (off, busy, 1): SR stays busy (0.85),
        // SP stays off (1.0), queue gains the arrival (σ=0 ⇒ w.p. 1).
        let system = example_system();
        let from = system
            .state_index(SystemState {
                sp: 1,
                sr: 1,
                queue: 0,
            })
            .unwrap();
        let to = system
            .state_index(SystemState {
                sp: 1,
                sr: 1,
                queue: 1,
            })
            .unwrap();
        let p = system.chain().prob(from, to, 1);
        assert!((p - 0.85).abs() < 1e-12);
    }

    #[test]
    fn expected_loss_fires_only_on_full_queue_without_service() {
        let system = example_system();
        // Full queue, busy SR, SP off: an arrival (p 0.85) is lost with
        // certainty since σ = 0.
        let full_off = system
            .state_index(SystemState {
                sp: 1,
                sr: 1,
                queue: 1,
            })
            .unwrap();
        let loss = system.expected_loss(full_off, 1);
        assert!((loss - 0.85).abs() < 1e-12);
        // Empty queue, idle SR: nothing can be lost.
        let empty = system
            .state_index(SystemState {
                sp: 0,
                sr: 0,
                queue: 0,
            })
            .unwrap();
        assert_eq!(system.expected_loss(empty, 0), 0.0);
        // Full queue but SP serving: loss drops to (1 − σ) · p_busy.
        let full_on = system
            .state_index(SystemState {
                sp: 0,
                sr: 1,
                queue: 1,
            })
            .unwrap();
        assert!((system.expected_loss(full_on, 0) - 0.85 * 0.2).abs() < 1e-12);
    }

    #[test]
    fn state_round_trip_and_labels() {
        let system = example_system();
        for i in 0..system.num_states() {
            let s = system.state_of(i);
            assert_eq!(system.state_index(s).unwrap(), i);
        }
        let label = system.state_label(0);
        assert!(label.contains("on") && label.contains("q=0"));
        assert!(matches!(
            system.state_index(SystemState {
                sp: 9,
                sr: 0,
                queue: 0
            }),
            Err(DpmError::UnknownIndex { .. })
        ));
    }

    #[test]
    fn point_distribution_is_one_hot() {
        let system = example_system();
        let q = system
            .point_distribution(SystemState {
                sp: 0,
                sr: 0,
                queue: 0,
            })
            .unwrap();
        assert_eq!(q.iter().filter(|&&v| v == 1.0).count(), 1);
        assert_eq!(q.iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn custom_cost_sees_composite_state() {
        let system = example_system();
        // Penalize being off while the SR is busy — the CPU-style penalty.
        let cost = system.custom_cost(|s, _| if s.sp == 1 && s.sr == 1 { 1.0 } else { 0.0 });
        let idx = system
            .state_index(SystemState {
                sp: 1,
                sr: 1,
                queue: 0,
            })
            .unwrap();
        assert_eq!(cost[(idx, 0)], 1.0);
        let idx2 = system
            .state_index(SystemState {
                sp: 0,
                sr: 1,
                queue: 0,
            })
            .unwrap();
        assert_eq!(cost[(idx2, 0)], 0.0);
    }

    #[test]
    fn multi_request_bursts_overflow_correctly() {
        // A requester issuing 3 requests at once against capacity 1: at
        // least one request lost per burst slice, even while serving.
        let mut b = ServiceProvider::builder();
        let on = b.add_state("on");
        let c = b.add_command("go");
        b.service_rate(on, c, 1.0).unwrap();
        let sp = b.build().unwrap();
        let t = StochasticMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let sr = ServiceRequester::new(t, vec![0, 3]).unwrap();
        let system = SystemModel::compose(sp, sr, ServiceQueue::with_capacity(1)).unwrap();
        // From (on, r0, empty): SR surely moves to the 3-request state, one
        // is served (σ=1), one enqueued, one lost.
        let from = system
            .state_index(SystemState {
                sp: 0,
                sr: 0,
                queue: 0,
            })
            .unwrap();
        assert!((system.expected_loss(from, 0) - 1.0).abs() < 1e-12);
        let to_full = system
            .state_index(SystemState {
                sp: 0,
                sr: 1,
                queue: 1,
            })
            .unwrap();
        assert!((system.chain().prob(from, to_full, 0) - 1.0).abs() < 1e-12);
    }
}
