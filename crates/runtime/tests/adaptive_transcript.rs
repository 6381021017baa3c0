//! Golden transcript of the closed adaptation loop.
//!
//! Each seeded run of an [`AdaptiveController`] on the drifting scenario
//! is folded into one FNV-1a hash: every [`EpochRecord`] as `Debug` text
//! (which prints the fitted requester, the drift gauge, the reload kind
//! and the solve report), then the run's final [`SimStats`]. A change to
//! the estimator or the loop that claims to move no fit, gate decision
//! or solve must keep these hashes.
//!
//! * **every epoch:** the default gate, so every epoch re-solves.
//! * **gated:** a drift threshold and a re-solve cooldown, so some
//!   epochs keep their policy without solving.

use dpm_runtime::{AdaptiveConfig, AdaptiveController, EpochRecord};
use dpm_sim::{SimConfig, SimStats, Simulator};
use dpm_systems::drifting;
use dpm_trace::{KMemoryTracker, WindowKind};

/// Slices simulated per run: two regime switches of the drifting
/// workload.
const SLICES: usize = 60_000;

/// 64-bit FNV-1a over a stream of texts.
#[derive(Debug)]
struct Transcript {
    hash: u64,
}

impl Transcript {
    fn new() -> Self {
        Transcript {
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn text(&mut self, text: &str) {
        for &byte in text.as_bytes().iter().chain(&[0xff]) {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn scenario_config() -> AdaptiveConfig {
    AdaptiveConfig::new()
        .epoch_slices(drifting::EPOCH_SLICES)
        .window(WindowKind::Sliding(2 * drifting::EPOCH_SLICES as usize))
        .memory(drifting::MEMORY)
        .smoothing(drifting::SMOOTHING)
        .horizon(drifting::HORIZON)
        .max_performance_penalty(drifting::QUEUE_BOUND)
        .max_request_loss_rate(drifting::LOSS_BOUND)
}

/// Runs a controller configured by `config` over a seeded drifting
/// trace and returns the transcript hash and the epoch records.
fn transcript(config: AdaptiveConfig, seed: u64) -> (u64, Vec<EpochRecord>) {
    let system = drifting::blended_system(7).expect("blended system composes");
    let mut controller = AdaptiveController::new(&system, config).expect("controller builds");
    let trace = drifting::workload(SLICES, seed);
    let sim = Simulator::new(
        &system,
        SimConfig::new(trace.len() as u64)
            .seed(seed)
            .restart_probability(1.0 / drifting::HORIZON),
    );
    let mut tracker = KMemoryTracker::new(drifting::MEMORY).tracker();
    let stats: SimStats = sim
        .run_trace(&mut controller, &trace, &mut tracker)
        .expect("simulates");
    let mut t = Transcript::new();
    for record in controller.epochs() {
        t.text(&format!("{record:?}"));
    }
    t.text(&format!("{stats:?}"));
    (t.hash, controller.epochs().to_vec())
}

#[test]
fn every_epoch_transcript_is_pinned() {
    let (hash, epochs) = transcript(scenario_config(), 21);
    assert!(epochs.len() >= 25, "only {} epochs", epochs.len());
    assert!(epochs.iter().all(|e| e.refreshed), "an epoch was skipped");
    assert_eq!(hash, 9_619_314_173_560_940_570);
}

#[test]
fn gated_transcript_is_pinned() {
    let config = scenario_config().min_divergence(0.02).resolve_cooldown(2);
    let (hash, epochs) = transcript(config, 22);
    let skipped = epochs.iter().filter(|e| !e.refreshed).count();
    assert!(
        skipped > 0 && skipped < epochs.len(),
        "{skipped} of {} epochs skipped",
        epochs.len()
    );
    assert_eq!(hash, 4_131_205_560_173_335_443);
}
