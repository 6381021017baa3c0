//! Round trip of a windowed estimator's streaming state.
//!
//! A state is exported, imported into a fresh estimator of the same
//! configuration, and both are fed the same further batches: counts,
//! history, window, fits (as bits), divergence and a second export must
//! agree at every step. The cases cover window lengths on and around
//! the 64-slice word, the fleet's 600-, 800- and 1 200-slice windows,
//! windows from empty to filled three times over (so the ring's head
//! sits anywhere in a word), estimators that never fitted, and random
//! batch splits down to single slices.

use dpm_core::DpmError;
use dpm_trace::{EstimatorState, SrExtractor, WindowKind, WindowedEstimator};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Window lengths: one and two slices (the shortest a 1-memory model
/// can or cannot use), a word's worth and either side of it, and the
/// lengths the fleet runs with.
const WINDOWS: [usize; 8] = [1, 2, 63, 64, 65, 600, 800, 1200];

/// Slices fed before the export: none, one, and either side of a full
/// window, and three windows and a bit.
fn fills(window: usize) -> [usize; 6] {
    [0, 1, window - 1, window, window + 1, 3 * window + 37]
}

/// A random 0/1 stream of a random density, with arrival counts above
/// one now and then.
fn stream(rng: &mut StdRng, len: usize) -> Vec<u32> {
    let density = rng.next_u64() % 101;
    (0..len)
        .map(|_| {
            let draw = rng.next_u64();
            u32::from(draw % 100 < density) * (1 + (draw >> 32) as u32 % 3)
        })
        .collect()
}

/// A random batch length: one slice, a few, up to a window, or past it.
fn batch_len(rng: &mut StdRng, window: usize) -> usize {
    match rng.next_u64() % 4 {
        0 => 1,
        1 => 2 + (rng.next_u64() % 7) as usize,
        2 => 1 + (rng.next_u64() % window as u64) as usize,
        _ => window + 1 + (rng.next_u64() % (window as u64 + 1)) as usize,
    }
}

/// Feeds `slices` in random batches, fitting after a batch now and then.
fn feed(estimator: &mut WindowedEstimator, rng: &mut StdRng, slices: &[u32]) {
    let WindowKind::Sliding(window) = estimator.window();
    let mut rest = slices;
    while !rest.is_empty() {
        let (batch, tail) = rest.split_at(batch_len(rng, window).min(rest.len()));
        rest = tail;
        estimator.observe_stream(batch);
        if estimator.is_ready() && rng.next_u64() % 3 == 0 {
            estimator.fit().expect("a ready estimator fits");
        }
    }
}

/// The bits of every `f64` the estimator's state holds, so that two
/// states compare bit for bit.
fn state_bits(state: &EstimatorState) -> Vec<u64> {
    let pairs = |pairs: &[[f64; 2]]| pairs.iter().flatten().map(|v| v.to_bits()).collect();
    let mut bits: Vec<u64> = pairs(&state.counts);
    bits.extend([state.state as u64, state.observed]);
    bits.extend(&state.ring);
    if let Some(fit) = &state.last_fit {
        bits.extend(fit.iter().map(|v| v.to_bits()));
    }
    bits.extend(state.divergence.map(f64::to_bits));
    if let Some(at_fit) = &state.counts_at_fit {
        bits.extend(pairs(at_fit));
    }
    bits
}

/// Asserts that `a` and `b` hold the same state, read both through the
/// borrowing accessors and through an export.
fn assert_same(a: &WindowedEstimator, b: &WindowedEstimator, context: &str) {
    assert!(a.counts().eq(b.counts()), "{context}: counts");
    assert_eq!(a.history(), b.history(), "{context}: history");
    assert_eq!(a.observed(), b.observed(), "{context}: observed");
    assert!(a.ring_words().eq(b.ring_words()), "{context}: ring");
    assert_eq!(
        a.last_fit()
            .map(|fit| fit.iter().map(|v| v.to_bits()).collect::<Vec<_>>()),
        b.last_fit()
            .map(|fit| fit.iter().map(|v| v.to_bits()).collect()),
        "{context}: last fit"
    );
    assert_eq!(
        a.divergence().map(f64::to_bits),
        b.divergence().map(f64::to_bits),
        "{context}: divergence"
    );
    assert_eq!(
        a.counts_at_fit(),
        b.counts_at_fit(),
        "{context}: counts at fit"
    );
    assert_eq!(
        a.count_drift().map(f64::to_bits),
        b.count_drift().map(f64::to_bits),
        "{context}: count drift"
    );
    assert_eq!(
        state_bits(&a.export_state()),
        state_bits(&b.export_state()),
        "{context}: export"
    );
}

#[test]
fn an_imported_state_continues_bit_identically() {
    let mut cases = 0;
    for memory in [1u32, 2, 3] {
        let extractor = SrExtractor::new(memory).with_smoothing(0.25);
        for window in WINDOWS {
            let build = || WindowedEstimator::new(extractor, WindowKind::Sliding(window));
            if window <= memory as usize {
                assert!(
                    build().is_err(),
                    "k={memory} n={window} holds no transition"
                );
                continue;
            }
            for fill in fills(window) {
                let context = format!("k={memory} n={window} fill={fill}");
                let mut rng =
                    StdRng::seed_from_u64(((memory as u64) << 32) | (window * 8 + fill) as u64);
                let mut source = build().expect("the window holds a transition");
                let slices = stream(&mut rng, fill);
                feed(&mut source, &mut rng, &slices);
                let state = source.export_state();
                let held = fill.min(window);
                assert_eq!(state.ring.len(), held.div_ceil(64), "{context}: ring words");
                let mut restored = build().expect("the window holds a transition");
                restored
                    .import_state(state.clone())
                    .expect("an exported state imports");
                assert_same(&source, &restored, &context);
                for step in 0..4 {
                    let len = batch_len(&mut rng, window);
                    let batch = stream(&mut rng, len);
                    for estimator in [&mut source, &mut restored] {
                        estimator.observe_stream(&batch);
                        if estimator.is_ready() {
                            estimator.fit().expect("a ready estimator fits");
                        }
                    }
                    assert_same(&source, &restored, &format!("{context} step {step}"));
                }
                cases += 1;
            }
        }
    }
    // A window of one slice holds no transition at any memory, and one
    // of two slices none from memory 2 on.
    assert_eq!(cases, 6 * (7 + 6 + 6));
}

#[test]
fn rings_of_the_wrong_length_or_with_padding_bits_are_refused() {
    let extractor = SrExtractor::new(1).with_smoothing(0.25);
    for window in WINDOWS.into_iter().filter(|&n| n > 1) {
        for fill in fills(window).into_iter().filter(|&fill| fill > 0) {
            let context = format!("n={window} fill={fill}");
            let mut rng = StdRng::seed_from_u64((window * 8 + fill) as u64);
            let mut estimator = WindowedEstimator::new(extractor, WindowKind::Sliding(window))
                .expect("the window holds a transition");
            let slices = stream(&mut rng, fill);
            feed(&mut estimator, &mut rng, &slices);
            let good = estimator.export_state();
            let held = fill.min(window);
            let mut bad = Vec::new();
            let mut short = good.clone();
            short.ring.pop();
            bad.push(("a word short", short));
            let mut long = good.clone();
            long.ring.push(0);
            bad.push(("a word too many", long));
            if held % 64 != 0 {
                let mut padded = good.clone();
                if let Some(last) = padded.ring.last_mut() {
                    *last |= 1;
                }
                bad.push(("a padding bit set", padded));
            }
            for (label, state) in bad {
                let err = estimator
                    .import_state(state)
                    .expect_err("a malformed ring must be refused");
                assert!(
                    matches!(err, DpmError::BadConfiguration { .. }),
                    "{context}, {label}: {err}"
                );
                assert_eq!(
                    state_bits(&estimator.export_state()),
                    state_bits(&good),
                    "{context}, {label}: the refusal changed the estimator"
                );
            }
        }
    }
}
