//! Golden fingerprints of the composed models and the programs emitted
//! from them.
//!
//! Each fingerprint is a count plus an FNV-1a hash over the exact bits
//! of every value, so any change to the model layer that moves a single
//! probability, reorders an LP triplet or perturbs a right-hand side by
//! one ulp fails here. The expected values were recorded from the dense
//! model layer; a storage change that claims to leave the programs
//! unchanged must keep them.

use dpm::core::{CostMetric, ServiceRequester, SystemModel, SystemState};
use dpm::lp::LinearProgram;
use dpm::mdp::{DiscountedMdp, OccupationLp};
use dpm::systems::{appendix_b, cpu, disk, racks, web_server};
use dpm::trace::generators::BurstyTraceGenerator;
use dpm::trace::SrExtractor;

/// LP4 settings: horizon 10³ slices, queue ≤ 1.0, loss ≤ 0.05 per slice.
const HORIZON: f64 = 1e3;
const QUEUE_BOUND: f64 = 1.0;
const LOSS_BOUND: f64 = 0.05;

/// 64-bit FNV-1a over a stream of words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A count and a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Print {
    count: usize,
    hash: u64,
}

/// The requester every scaled model is composed around: a 2-state SR
/// fitted from a fixed bursty trace.
fn fitted_requester() -> ServiceRequester {
    let trace = BurstyTraceGenerator::new(0.04, 0.6)
        .seed(0)
        .generate(20_000);
    SrExtractor::new(1).extract(&trace).expect("fit succeeds")
}

/// The LP4 program of `system`, emitted by the `mdp` layer.
fn lp4(system: &SystemModel) -> LinearProgram {
    let discount = 1.0 - 1.0 / HORIZON;
    let power = CostMetric::Power.matrix(system);
    let queue = CostMetric::QueueOccupancy.matrix(system);
    let loss = CostMetric::RequestLossIndicator.matrix(system);
    let initial = system
        .point_distribution(SystemState {
            sp: 0,
            sr: 0,
            queue: 0,
        })
        .expect("state in range");
    let mdp = DiscountedMdp::new(system.chain().clone(), power, discount).expect("valid mdp");
    OccupationLp::new(&mdp, &initial)
        .expect("valid initial distribution")
        .build(&[
            (&queue, QUEUE_BOUND * HORIZON),
            (&loss, LOSS_BOUND * HORIZON),
        ])
        .expect("program builds")
}

/// Fingerprints of a program: `(triplets, rhs, objective)`.
fn program_prints(lp: &LinearProgram) -> (Print, Print, Print) {
    let mut triplets = (0, Fnv::new());
    let mut rhs = (0, Fnv::new());
    for i in 0..lp.num_constraints() {
        let (entries, _, b) = lp.constraint_entries(i);
        for &(col, value) in entries {
            triplets.0 += 1;
            triplets.1.word(i as u64);
            triplets.1.word(col as u64);
            triplets.1.word(value.to_bits());
        }
        rhs.0 += 1;
        rhs.1.word(b.to_bits());
    }
    let mut objective = Fnv::new();
    for &c in lp.objective_coefficients() {
        objective.word(c.to_bits());
    }
    let print = |(count, h): (usize, Fnv)| Print { count, hash: h.0 };
    (
        print(triplets),
        print(rhs),
        Print {
            count: lp.num_vars(),
            hash: objective.0,
        },
    )
}

/// Fingerprint of the expected-loss matrix, row-major.
fn loss_print(system: &SystemModel) -> Print {
    let mut h = Fnv::new();
    let mut count = 0;
    for s in 0..system.num_states() {
        for a in 0..system.num_commands() {
            count += 1;
            h.word(system.expected_loss(s, a).to_bits());
        }
    }
    Print { count, hash: h.0 }
}

/// Fingerprint of every kernel probability `P(i → j | a)`, zeros
/// included, so the hash does not depend on how the kernels are stored.
fn kernel_print(system: &SystemModel) -> Print {
    let chain = system.chain();
    let (n, m) = (chain.num_states(), chain.num_actions());
    let mut h = Fnv::new();
    for a in 0..m {
        for i in 0..n {
            for j in 0..n {
                h.word(chain.prob(i, j, a).to_bits());
            }
        }
    }
    Print {
        count: n * n * m,
        hash: h.0,
    }
}

fn print(count: usize, hash: u64) -> Print {
    Print { count, hash }
}

#[test]
fn scaled_lp4_programs_are_pinned() {
    let requester = fitted_requester();
    // (config, triplets, rhs, objective, expected loss)
    let cases = [
        (
            appendix_b::Config::scaled(12, 7),
            print(12_479, 15_516_074_695_187_105_831),
            print(210, 12_212_223_144_613_117_778),
            print(2_704, 3_028_103_084_696_645_029),
            print(2_704, 5_242_738_469_997_919_274),
        ),
        (
            appendix_b::Config::scaled(24, 20),
            print(120_562, 6_330_927_748_376_818_877),
            print(1_052, 2_133_126_157_389_653_394),
            print(26_250, 11_785_408_569_203_005_093),
            print(26_250, 7_622_880_376_384_534_385),
        ),
    ];
    for (config, triplets, rhs, objective, loss) in cases {
        let system = config
            .system_with_requester(requester.clone())
            .expect("composes");
        let lp = lp4(&system);
        let got = program_prints(&lp);
        let states = system.num_states();
        assert_eq!(got.0, triplets, "LP triplets at {states} states");
        assert_eq!(got.1, rhs, "LP rhs at {states} states");
        assert_eq!(got.2, objective, "LP objective at {states} states");
        assert_eq!(
            loss_print(&system),
            loss,
            "expected loss at {states} states"
        );
    }
}

#[test]
fn fleet_class_kernels_are_pinned() {
    let base = || ServiceRequester::two_state(0.1, 0.7).expect("valid requester");
    let cases = [
        (
            "disk",
            disk::system_with_workload(base()),
            print(21_780, 16_866_552_354_003_450_608),
        ),
        (
            "cpu",
            cpu::system_with_workload(base()),
            print(128, 2_908_793_262_058_598_301),
        ),
        (
            "web_server",
            web_server::system_with_workload(base()),
            print(256, 14_225_925_474_130_886_404),
        ),
        (
            "racks",
            racks::system(),
            print(288, 12_300_746_989_504_590_250),
        ),
    ];
    for (name, system, expected) in cases {
        let system = system.expect("composes");
        assert_eq!(kernel_print(&system), expected, "{name} kernels");
    }
}
