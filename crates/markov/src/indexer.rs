use crate::MarkovError;

/// Mixed-radix indexer for product state spaces.
///
/// The composed system chain of Section III has state set
/// `S = S_SP × S_SR × S_SQ`; the Markov composer flattens triples
/// `(s_p, s_r, s_q)` into a single index so the result is an ordinary
/// chain over `|S_SP|·|S_SR|·|S_SQ|` states. `StateIndexer` is that
/// flattening, for any number of factors.
///
/// The last dimension varies fastest (row-major convention), so for the
/// disk case study (11 × 2 × 3 = 66 states) index 0 is
/// `(sp=0, sr=0, q=0)`, index 1 is `(sp=0, sr=0, q=1)`, and so on.
///
/// # Example
///
/// ```
/// use dpm_markov::StateIndexer;
///
/// # fn main() -> Result<(), dpm_markov::MarkovError> {
/// let idx = StateIndexer::new(&[11, 2, 3])?;
/// assert_eq!(idx.num_states(), 66);
/// let flat = idx.flatten(&[4, 1, 2])?;
/// assert_eq!(idx.unflatten(flat), vec![4, 1, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateIndexer {
    dims: Vec<usize>,
    /// Stride of each dimension (last dimension has stride 1).
    strides: Vec<usize>,
    total: usize,
}

impl StateIndexer {
    /// Builds an indexer over the given factor sizes.
    ///
    /// # Errors
    ///
    /// [`MarkovError::DimensionMismatch`] when `dims` is empty or any
    /// factor is zero.
    pub fn new(dims: &[usize]) -> Result<Self, MarkovError> {
        if dims.is_empty() || dims.contains(&0) {
            return Err(MarkovError::DimensionMismatch {
                found: 0,
                expected: 1,
            });
        }
        let mut strides = vec![1; dims.len()];
        for i in (0..dims.len() - 1).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        let total = dims.iter().product();
        Ok(StateIndexer {
            dims: dims.to_vec(),
            strides,
            total,
        })
    }

    /// Total number of product states.
    pub fn num_states(&self) -> usize {
        self.total
    }

    /// Number of factors.
    pub fn num_factors(&self) -> usize {
        self.dims.len()
    }

    /// The factor sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Flattens a coordinate tuple into a single index.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::DimensionMismatch`] for a wrong-length tuple.
    /// * [`MarkovError::StateOutOfRange`] for an out-of-range coordinate.
    pub fn flatten(&self, coords: &[usize]) -> Result<usize, MarkovError> {
        if coords.len() != self.dims.len() {
            return Err(MarkovError::DimensionMismatch {
                found: coords.len(),
                expected: self.dims.len(),
            });
        }
        let mut idx = 0;
        for ((&c, &d), &s) in coords.iter().zip(&self.dims).zip(&self.strides) {
            if c >= d {
                return Err(MarkovError::StateOutOfRange {
                    index: c,
                    num_states: d,
                });
            }
            idx += c * s;
        }
        Ok(idx)
    }

    /// Recovers the coordinate tuple of a flat index.
    ///
    /// # Panics
    ///
    /// Panics when `index >= num_states()`.
    pub fn unflatten(&self, index: usize) -> Vec<usize> {
        let mut coords = vec![0; self.dims.len()];
        self.decode(index, &mut coords);
        coords
    }

    /// [`Self::unflatten`] into a fixed-size array, without allocating:
    /// `let [sp, sr, q] = indexer.coords(index);`.
    ///
    /// # Panics
    ///
    /// Panics when `N` differs from [`Self::num_factors`] or
    /// `index >= num_states()`.
    pub fn coords<const N: usize>(&self, index: usize) -> [usize; N] {
        assert_eq!(
            N,
            self.dims.len(),
            "{N} coordinates for {} factors",
            self.dims.len()
        );
        let mut coords = [0; N];
        self.decode(index, &mut coords);
        coords
    }

    /// Writes the coordinates of `index` into `coords` (one per factor).
    fn decode(&self, index: usize, coords: &mut [usize]) {
        assert!(
            index < self.total,
            "flat index {index} out of range ({} states)",
            self.total
        );
        let mut rem = index;
        for (c, &s) in coords.iter_mut().zip(&self.strides) {
            *c = rem / s;
            rem %= s;
        }
    }

    /// Iterates over all coordinate tuples in flat-index order.
    pub fn iter(&self) -> impl Iterator<Item = Vec<usize>> + '_ {
        (0..self.total).map(move |i| self.unflatten(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_sized_indexer_round_trips() {
        let idx = StateIndexer::new(&[11, 2, 3]).unwrap();
        assert_eq!(idx.num_states(), 66);
        for flat in 0..66 {
            let coords = idx.unflatten(flat);
            assert_eq!(idx.flatten(&coords).unwrap(), flat);
        }
    }

    #[test]
    fn last_dimension_varies_fastest() {
        let idx = StateIndexer::new(&[2, 2, 2]).unwrap();
        assert_eq!(idx.flatten(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(idx.flatten(&[0, 0, 1]).unwrap(), 1);
        assert_eq!(idx.flatten(&[0, 1, 0]).unwrap(), 2);
        assert_eq!(idx.flatten(&[1, 0, 0]).unwrap(), 4);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(StateIndexer::new(&[]).is_err());
        assert!(StateIndexer::new(&[2, 0]).is_err());
        let idx = StateIndexer::new(&[2, 3]).unwrap();
        assert!(idx.flatten(&[1]).is_err());
        assert!(matches!(
            idx.flatten(&[2, 0]),
            Err(MarkovError::StateOutOfRange { .. })
        ));
    }

    #[test]
    fn single_factor_is_identity() {
        let idx = StateIndexer::new(&[5]).unwrap();
        assert_eq!(idx.flatten(&[3]).unwrap(), 3);
        assert_eq!(idx.unflatten(4), vec![4]);
    }

    #[test]
    fn coords_match_unflatten() {
        let idx = StateIndexer::new(&[3, 2, 4]).unwrap();
        for flat in 0..idx.num_states() {
            let [a, b, c] = idx.coords(flat);
            assert_eq!(vec![a, b, c], idx.unflatten(flat));
        }
    }

    #[test]
    #[should_panic(expected = "coordinates for 2 factors")]
    fn coords_checks_the_factor_count() {
        let _: [usize; 3] = StateIndexer::new(&[2, 2]).unwrap().coords(0);
    }

    #[test]
    fn iter_enumerates_everything_in_order() {
        let idx = StateIndexer::new(&[2, 3]).unwrap();
        let all: Vec<Vec<usize>> = idx.iter().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], vec![0, 0]);
        assert_eq!(all[5], vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unflatten_out_of_range_panics() {
        StateIndexer::new(&[2]).unwrap().unflatten(2);
    }
}
