/// Draws an index from a discrete distribution by a linear scan of its
/// cumulative sum: the first index whose running total exceeds `draw`,
/// a uniform variate in `[0, 1)`.
///
/// `weights` yields `(index, probability)` pairs in scan order: a dense
/// distribution as `dist.iter().copied().enumerate()`, a sparse kernel
/// row as [`SparseRow::entries`](crate::SparseRow::entries). Entries of
/// probability zero are never selected. A validated distribution may
/// sum to slightly less than one (up to
/// [`ROW_SUM_TOLERANCE`](crate::ROW_SUM_TOLERANCE)); a draw above the
/// total falls through to the last entry of positive probability, never
/// to a trailing impossible one. A distribution with no positive entry
/// yields 0.
pub fn sample_index(weights: impl IntoIterator<Item = (usize, f64)>, draw: f64) -> usize {
    let mut acc = 0.0;
    let mut last = 0;
    for (i, p) in weights {
        if p > 0.0 {
            acc += p;
            if draw < acc {
                return i;
            }
            last = i;
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(dist: &[f64], draw: f64) -> usize {
        sample_index(dist.iter().copied().enumerate(), draw)
    }

    #[test]
    fn picks_the_first_index_past_the_draw() {
        let dist = [0.25, 0.0, 0.5, 0.25];
        assert_eq!(dense(&dist, 0.0), 0);
        assert_eq!(dense(&dist, 0.2499), 0);
        assert_eq!(dense(&dist, 0.25), 2);
        assert_eq!(dense(&dist, 0.7499), 2);
        assert_eq!(dense(&dist, 0.75), 3);
    }

    #[test]
    fn a_draw_above_a_short_sum_lands_on_the_last_possible_entry() {
        // Within ROW_SUM_TOLERANCE of one, trailing entry impossible.
        let dist = [0.5, 0.5 - 1e-10, 0.0];
        let total: f64 = dist.iter().sum();
        let draw = 1.0 - 5e-11;
        assert!(draw >= total && draw < 1.0);
        assert_eq!(dense(&dist, draw), 1);
        // The same row stored sparsely.
        assert_eq!(sample_index([(3, 0.5), (7, 0.5 - 1e-10)], draw), 7);
    }

    #[test]
    fn zero_entries_are_never_selected() {
        assert_eq!(dense(&[0.0, 1.0, 0.0], 0.0), 1);
        assert_eq!(dense(&[0.0, 1.0, 0.0], 0.999_999), 1);
        assert_eq!(dense(&[0.0, 0.0], 0.5), 0);
    }
}
