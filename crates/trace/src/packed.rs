//! Bit-packed slice streams and the k-memory transition counter shared
//! by the offline [`SrExtractor`](crate::SrExtractor) and the sliding
//! [`WindowedEstimator`](crate::WindowedEstimator).
//!
//! A stream is packed 64 slices to a `u64`, oldest slice in the most
//! significant bit: slice `i` is bit `63 - i % 64` of word `i / 64`, set
//! when the slice issued a request. [`count_patterns`] counts the
//! `(k+1)`-bit transition patterns `(history << 1) | bit` over such
//! words. Up to memory 3 it counts 64 slices at a time: pattern `v`
//! occurs at `popcount(valid & ⋀ⱼ (bit j of v ? Wⱼ : ¬Wⱼ))` positions
//! of a word, `Wⱼ` being the word shifted back by `j` slices —
//! `2^(k+1)` masks of `k + 1` ANDs and a popcount each per 64 slices,
//! so it only pays at small memories. Above it, and for spans too short
//! to repay a word's worth of masks, a `(k+1)`-bit register walks the
//! packed bits one slice at a time.

use std::ops::Range;

/// The mask of the `count` most significant bits (`count ≤ 64`).
pub(crate) fn top(count: usize) -> u64 {
    !u64::MAX.checked_shr(count as u32).unwrap_or(0)
}

/// The word of the stream `older ++ newer` that starts `back` slices
/// before `newer` (`back ≤ 64`): `newer` shifted back by `back` slices,
/// the gap filled from the end of `older`.
pub(crate) fn shifted_back(older: u64, newer: u64, back: usize) -> u64 {
    (((u128::from(older) << 64) | u128::from(newer)) >> back) as u64
}

/// The 64 slices of `words` starting at slice `at`; slices past the
/// end read as zero.
pub(crate) fn word_at(words: &[u64], at: usize) -> u64 {
    let word = |i: usize| words.get(i).copied().unwrap_or(0);
    shifted_back(word(at / 64), word(at / 64 + 1), 64 - at % 64)
}

/// Packs per-slice arrival counts, oldest first, into `words`
/// (replacing its contents); the last word is zero-padded.
pub(crate) fn pack(slices: &[u32], words: &mut Vec<u64>) {
    words.clear();
    words.extend(slices.chunks(64).map(pack_word));
}

/// Packs up to 64 slices into one word, zero-padded: they are
/// compared into 0/1 bytes (a loop the compiler vectorizes), and each
/// run of eight bytes `b₀ … b₇` (read little-endian) is gathered into
/// one byte by a multiply with `Σ 2^(9i)`, which carries `bᵢ` to bit
/// `63 - i` with no two partial products colliding.
fn pack_word(chunk: &[u32]) -> u64 {
    let mut bytes = [0u8; 64];
    for (byte, &arrivals) in bytes.iter_mut().zip(chunk) {
        *byte = u8::from(arrivals != 0);
    }
    bytes.chunks_exact(8).fold(0, |word, run| {
        let mut group = [0u8; 8];
        group.copy_from_slice(run);
        (word << 8) | (u64::from_le_bytes(group).wrapping_mul(0x8040_2010_0804_0201) >> 56)
    })
}

/// The last `memory` slices of `prefix ++ words[..len]` as a k-bit
/// history, most recent slice lowest (`len ≥ 1`); `prefix` holds the
/// history before the first word the same way.
pub(crate) fn last_history(words: &[u64], len: usize, prefix: u64, memory: usize) -> usize {
    let last = (len - 1) / 64;
    let older = last.checked_sub(1).and_then(|i| words.get(i)).copied();
    let newer = words.get(last).copied().unwrap_or(0);
    let history = shifted_back(older.unwrap_or(prefix), newer, 64 * (last + 1) - len);
    (history & ((1u64 << memory) - 1)) as usize
}

/// Counts the `(k+1)`-bit transition patterns (`k = memory`) ending at
/// the slices `span` of the packed stream `words`, calling
/// `tally(pattern, count)` with each pattern's count. Bits before
/// slice 0 are the low bits of `prefix`, most recent lowest. A pattern
/// holds its slice's bit in bit 0 and the bit `j` slices earlier in
/// bit `j` — the `(history << 1) | bit` index of a count table.
///
/// The popcount kernel pays `2^(k+1)` masks of `k + 1` ANDs and one
/// popcount each for every word the span touches, however few of its
/// slices count, and the register walk a few operations per slice;
/// memories up to 3 therefore count by popcount once the span holds at
/// least `2^(k+4)` slices (the measured break-even), and walk shorter
/// spans. From memory 4 on the popcount costs as much as the walk. The
/// popcount kernel reports each pattern once, with its total; the walk
/// reports every occurrence with count 1, in stream order. A caller
/// that subtracts with saturation sees one of two sequences with the
/// same result: one subtraction of the total, or that many
/// subtractions of 1.
pub(crate) fn count_patterns(
    words: &[u64],
    prefix: u64,
    span: Range<usize>,
    memory: usize,
    tally: impl FnMut(usize, u64),
) {
    let long = span.len() >= 16 << memory;
    match memory {
        1 if long => popcount::<2, 4>(words, prefix, span, tally),
        2 if long => popcount::<3, 8>(words, prefix, span, tally),
        3 if long => popcount::<4, 16>(words, prefix, span, tally),
        _ => walk(words, prefix, span, memory, tally),
    }
}

/// The mask of the slices of `span` inside the word holding slices
/// `base..base + 64`.
fn span_mask(span: &Range<usize>, base: usize) -> u64 {
    let upto = span.end.saturating_sub(base).min(64);
    let from = span.start.saturating_sub(base).min(64);
    top(upto) & !top(from)
}

/// The popcount kernel for `WIDTH = k + 1` and `PATTERNS = 2^WIDTH`.
fn popcount<const WIDTH: usize, const PATTERNS: usize>(
    words: &[u64],
    prefix: u64,
    span: Range<usize>,
    mut tally: impl FnMut(usize, u64),
) {
    let mut counts = [0u64; PATTERNS];
    let first = span.start / 64;
    let mut older = first
        .checked_sub(1)
        .and_then(|i| words.get(i))
        .copied()
        .unwrap_or(prefix);
    let touched = words.iter().enumerate().take(span.end.div_ceil(64));
    for (i, &word) in touched.skip(first) {
        let valid = span_mask(&span, 64 * i);
        if valid != 0 {
            let shifted: [u64; WIDTH] = std::array::from_fn(|j| shifted_back(older, word, j));
            for (pattern, count) in counts.iter_mut().enumerate() {
                // `select` is all ones where bit j of the pattern is
                // clear, so the XOR complements `Wⱼ` exactly there.
                let matches = shifted.iter().enumerate().fold(valid, |acc, (j, &w)| {
                    let select = ((pattern >> j) as u64 & 1).wrapping_sub(1);
                    acc & (w ^ select)
                });
                *count += u64::from(matches.count_ones());
            }
        }
        older = word;
    }
    for (pattern, &count) in counts.iter().enumerate() {
        if count > 0 {
            tally(pattern, count);
        }
    }
}

/// The register walk: every slice of `span`, one at a time.
fn walk(
    words: &[u64],
    prefix: u64,
    span: Range<usize>,
    memory: usize,
    mut tally: impl FnMut(usize, u64),
) {
    let mask = (2usize << memory) - 1;
    let mut register = match span.start {
        0 => prefix as usize,
        start => last_history(words, start, prefix, memory),
    };
    let mut at = span.start;
    while at < span.end {
        let take = (64 - at % 64).min(span.end - at);
        let mut bits = words.get(at / 64).copied().unwrap_or(0) << (at % 64);
        for _ in 0..take {
            register = ((register << 1) | (bits >> 63) as usize) & mask;
            bits <<= 1;
            tally(register, 1);
        }
        at += take;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    type Tally<'a> = dyn FnMut(usize, u64) + 'a;

    /// The slice-at-a-time count the kernel replaces.
    fn naive(bits: &[bool], prefix: u64, span: Range<usize>, memory: usize) -> Vec<u64> {
        let mask = (2usize << memory) - 1;
        let mut register = prefix as usize;
        let mut counts = vec![0; 2 << memory];
        for (i, &bit) in bits.iter().enumerate().take(span.end) {
            register = ((register << 1) | usize::from(bit)) & mask;
            if i >= span.start {
                counts[register] += 1;
            }
        }
        counts
    }

    #[test]
    fn pack_puts_the_oldest_slice_in_the_top_bit() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 130] {
            let slices: Vec<u32> = (0..len as u32).map(|i| (i * 7 + 3) % 5 % 3).collect();
            let mut words = vec![u64::MAX];
            pack(&slices, &mut words);
            assert_eq!(words.len(), len.div_ceil(64), "len {len}");
            for (i, &a) in slices.iter().enumerate() {
                assert_eq!(
                    (words[i / 64] >> (63 - i % 64)) & 1 == 1,
                    a > 0,
                    "slice {i}"
                );
            }
            if len % 64 != 0 {
                assert_eq!(words[len / 64] & !top(len % 64), 0, "padding of {len}");
            }
        }
    }

    #[test]
    fn kernel_matches_the_slice_at_a_time_count() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for memory in 1..=6 {
            for len in [1usize, 5, 63, 64, 65, 127, 128, 129, 300] {
                let slices: Vec<u32> = (0..len).map(|_| (rng.next_u64() % 3) as u32).collect();
                let bits: Vec<bool> = slices.iter().map(|&a| a > 0).collect();
                let mut words = Vec::new();
                pack(&slices, &mut words);
                let prefix = rng.next_u64() & ((1 << memory) - 1);
                let from = (rng.next_u64() % (len as u64 + 1)) as usize;
                let to = from + (rng.next_u64() % ((len - from) as u64 + 1)) as usize;
                let expected = naive(&bits, prefix, from..to, memory);
                let context = format!("k={memory} len={len} span={from}..{to}");
                let counts = |run: &dyn Fn(&mut Tally)| {
                    let mut counts = vec![0; 2 << memory];
                    run(&mut |v, c| counts[v] += c);
                    counts
                };
                let span = from..to;
                let dispatched =
                    counts(&|t| count_patterns(&words, prefix, span.clone(), memory, t));
                assert_eq!(dispatched, expected, "{context}");
                let walked = counts(&|t| walk(&words, prefix, span.clone(), memory, t));
                assert_eq!(walked, expected, "{context}: walk");
                let popcounted = match memory {
                    1 => counts(&|t| popcount::<2, 4>(&words, prefix, span.clone(), t)),
                    2 => counts(&|t| popcount::<3, 8>(&words, prefix, span.clone(), t)),
                    3 => counts(&|t| popcount::<4, 16>(&words, prefix, span.clone(), t)),
                    _ => expected.clone(),
                };
                assert_eq!(popcounted, expected, "{context}: popcount");
                let history = last_history(&words, len, prefix, memory);
                let expected = bits.iter().fold(prefix as usize, |h, &b| {
                    ((h << 1) | usize::from(b)) & ((1 << memory) - 1)
                });
                assert_eq!(history, expected, "history k={memory} len={len}");
            }
        }
    }

    #[test]
    fn word_at_reads_any_offset() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let words: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        let bit = |i: usize| words.get(i / 64).map_or(0, |w| (w >> (63 - i % 64)) & 1);
        for at in [0usize, 1, 37, 63, 64, 100, 150, 191] {
            let word = word_at(&words, at);
            for i in 0..64 {
                assert_eq!((word >> (63 - i)) & 1, bit(at + i), "at {at}, slice {i}");
            }
        }
    }
}
