//! Scale gate of the sparse model layer: the largest scaled appendix-B
//! system composes and emits its LP4 program, and its kernels store at
//! most three entries per (state, command) row on average — a
//! structural bound on memory that holds on any host, unlike a timing.

use dpm::core::{CostMetric, SystemState};
use dpm::mdp::{DiscountedMdp, OccupationLp};
use dpm::systems::appendix_b;

/// Stored kernel entries allowed per (state, command) row, on average.
const MEAN_ENTRIES_PER_ROW: usize = 3;

#[test]
fn largest_scaled_system_composes_and_builds_its_program() {
    let system = appendix_b::Config::scaled(48, 40)
        .system()
        .expect("composes");
    let (n, m) = (system.num_states(), system.num_commands());
    assert_eq!((n, m), (4018, 49));

    let chain = system.chain();
    let sp = system.provider().chain();
    let sr = system.requester().chain().transition_matrix();
    let mut stored = 0;
    for (a, kernel) in chain.kernels().iter().enumerate() {
        for (s, row) in kernel.rows().enumerate() {
            // A row's successors are products of the SP row's, the SR
            // row's and the queue's (at most two) nonzeros.
            let state = system.state_of(s);
            let bound = sp.kernel(a).row(state.sp).len() * sr.row(state.sr).len() * 2;
            assert!(
                row.len() <= bound,
                "state {s} command {a} stores {} entries, more than {bound}",
                row.len()
            );
            stored += row.len();
        }
        assert_eq!(kernel.nnz(), kernel.rows().map(|r| r.len()).sum::<usize>());
    }
    assert!(
        stored <= MEAN_ENTRIES_PER_ROW * n * m,
        "{stored} entries over {} rows",
        n * m
    );

    let horizon = 1e3;
    let discount = 1.0 - 1.0 / horizon;
    let queue = CostMetric::QueueOccupancy.matrix(&system);
    let loss = CostMetric::RequestLossIndicator.matrix(&system);
    let initial = system
        .point_distribution(SystemState {
            sp: 0,
            sr: 0,
            queue: 0,
        })
        .expect("state in range");
    let mdp = DiscountedMdp::new(chain.clone(), CostMetric::Power.matrix(&system), discount)
        .expect("valid mdp");
    let lp = OccupationLp::new(&mdp, &initial)
        .expect("valid initial distribution")
        .build(&[(&queue, 1.0 * horizon), (&loss, 0.05 * horizon)])
        .expect("program builds");
    assert_eq!(lp.num_vars(), n * m);
    assert_eq!(lp.num_constraints(), n + 2);
    // Balance rows hold each state's own m variables plus its in-flows
    // (one per stored kernel entry, self-loops included); the
    // normalization row holds every variable; the bound rows hold at
    // most every variable each.
    assert!(lp.nnz() <= n * m + stored + n * m + 2 * n * m);
}
