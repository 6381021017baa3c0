use crate::{sample_index, MarkovError, ROW_SUM_TOLERANCE};

/// A validated row-stochastic matrix: square, entries in `[0, 1]`, every
/// row summing to one.
///
/// Every transition kernel in the paper — the service provider's
/// conditional matrices `P(a)`, the service requester's matrix, the queue
/// kernel of equation (3) and the composed system kernel of equation (4) —
/// is a `StochasticMatrix`. Validation happens once at the boundary
/// ([`Self::from_rows`] / [`Self::from_csr`]); afterwards the invariant
/// is carried by the type.
///
/// The matrix is stored in compressed sparse row (CSR) form: per row,
/// the columns of its nonzero probabilities in increasing order and the
/// probabilities themselves. No stored probability is zero. The composed
/// systems have about two successors per row, so storage and every pass
/// over a kernel grow with its nonzeros, not with the square of its
/// states. [`Self::row`] hands out a row as a [`SparseRow`].
///
/// # Example
///
/// ```
/// use dpm_markov::StochasticMatrix;
///
/// # fn main() -> Result<(), dpm_markov::MarkovError> {
/// let p = StochasticMatrix::from_rows(&[&[0.9, 0.1], &[0.5, 0.5]])?;
/// let next = p.step(&[1.0, 0.0])?; // distribution after one slice
/// assert!((next[0] - 0.9).abs() < 1e-12);
/// assert_eq!(p.nnz(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StochasticMatrix {
    /// `row_ptr[i]..row_ptr[i + 1]` spans row `i` in `cols` and `probs`.
    /// Boxed slices: a stored kernel holds exactly its nonzeros.
    row_ptr: Box<[usize]>,
    /// Column of each stored probability, strictly increasing per row.
    cols: Box<[usize]>,
    /// The stored probabilities, none of them zero.
    probs: Box<[f64]>,
}

#[cfg(feature = "serde")]
mod serde_impl {
    //! Serde support serializes the matrix as `(n, row_ptr, cols,
    //! probs)` and re-validates on deserialization, so deserialized
    //! values uphold the stochasticity invariant.
    use super::StochasticMatrix;
    use serde::de::Error as _;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    impl Serialize for StochasticMatrix {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            (self.num_states(), &self.row_ptr, &self.cols, &self.probs).serialize(s)
        }
    }

    impl<'de> Deserialize<'de> for StochasticMatrix {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            let (n, row_ptr, cols, probs): (usize, Vec<usize>, Vec<usize>, Vec<f64>) =
                Deserialize::deserialize(d)?;
            StochasticMatrix::from_csr(n, row_ptr, cols, probs).map_err(D::Error::custom)
        }
    }
}

/// One row of a [`StochasticMatrix`]: the successors of a state with
/// their probabilities, in increasing column order. Only nonzero
/// probabilities are stored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseRow<'a> {
    cols: &'a [usize],
    probs: &'a [f64],
}

impl<'a> SparseRow<'a> {
    /// Iterates over the stored probabilities; `row.iter().sum()` is the
    /// row sum.
    pub fn iter(&self) -> std::slice::Iter<'a, f64> {
        self.probs.iter()
    }

    /// Iterates over `(column, probability)` pairs in column order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, f64)> + 'a {
        self.cols.iter().copied().zip(self.probs.iter().copied())
    }

    /// Number of stored (nonzero) probabilities.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// `true` when the row stores no probability (never the case for a
    /// row of a validated matrix).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// The probability in column `j` (zero when not stored).
    fn get(&self, j: usize) -> f64 {
        self.cols
            .binary_search(&j)
            .map_or(0.0, |k| self.probs.get(k).copied().unwrap_or(0.0))
    }

    /// `Σⱼ P(i, j) · v[j]` over the stored entries, in column order.
    ///
    /// # Panics
    ///
    /// Panics when `v` is shorter than a stored column index.
    pub fn dot(&self, v: &[f64]) -> f64 {
        self.entries().map(|(j, p)| p * v[j]).sum()
    }

    /// The successor a uniform `draw` in `[0, 1)` selects (see
    /// [`sample_index`]).
    pub fn sample(&self, draw: f64) -> usize {
        sample_index(self.entries(), draw)
    }
}

impl StochasticMatrix {
    /// Validates and wraps an `n × n` matrix given in CSR form: row `i`
    /// stores `cols[row_ptr[i]..row_ptr[i + 1]]` with the parallel
    /// `probs`. Columns must increase strictly within a row. Stored zeros
    /// are accepted and dropped.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::NotSquare`] for `n = 0`.
    /// * [`MarkovError::DimensionMismatch`] when `row_ptr` does not have
    ///   `n + 1` nondecreasing offsets from 0 to `cols.len()`, or
    ///   `probs.len()` differs from `cols.len()`.
    /// * [`MarkovError::StateOutOfRange`] for a column `≥ n`.
    /// * [`MarkovError::UnsortedRow`] when a row repeats a column or
    ///   lists its columns out of order.
    /// * [`MarkovError::InvalidProbability`] for entries outside `[0, 1]`
    ///   or non-finite entries.
    /// * [`MarkovError::RowNotStochastic`] for rows not summing to one
    ///   within [`ROW_SUM_TOLERANCE`].
    pub fn from_csr(
        n: usize,
        row_ptr: Vec<usize>,
        cols: Vec<usize>,
        probs: Vec<f64>,
    ) -> Result<Self, MarkovError> {
        if n == 0 {
            return Err(MarkovError::NotSquare { shape: (0, 0) });
        }
        if row_ptr.len() != n + 1 {
            return Err(MarkovError::DimensionMismatch {
                found: row_ptr.len(),
                expected: n + 1,
            });
        }
        if probs.len() != cols.len() {
            return Err(MarkovError::DimensionMismatch {
                found: probs.len(),
                expected: cols.len(),
            });
        }
        if row_ptr.first() != Some(&0)
            || row_ptr.last() != Some(&cols.len())
            || row_ptr
                .iter()
                .zip(row_ptr.iter().skip(1))
                .any(|(lo, hi)| lo > hi)
        {
            return Err(MarkovError::DimensionMismatch {
                found: row_ptr.last().copied().unwrap_or(0),
                expected: cols.len(),
            });
        }
        let matrix = StochasticMatrix {
            row_ptr: row_ptr.into_boxed_slice(),
            cols: cols.into_boxed_slice(),
            probs: probs.into_boxed_slice(),
        };
        for (i, row) in matrix.rows().enumerate() {
            let mut sum = 0.0;
            let mut prev: Option<usize> = None;
            for (j, v) in row.entries() {
                if j >= n {
                    return Err(MarkovError::StateOutOfRange {
                        index: j,
                        num_states: n,
                    });
                }
                if prev.is_some_and(|p| p >= j) {
                    return Err(MarkovError::UnsortedRow { row: i });
                }
                prev = Some(j);
                if !v.is_finite() || !(0.0..=1.0 + ROW_SUM_TOLERANCE).contains(&v) {
                    return Err(MarkovError::InvalidProbability {
                        row: i,
                        col: j,
                        value: v,
                    });
                }
                sum += v;
            }
            if (sum - 1.0).abs() > ROW_SUM_TOLERANCE {
                return Err(MarkovError::RowNotStochastic { row: i, sum });
            }
        }
        if matrix.probs.contains(&0.0) {
            let mut nonzero = MixedRows::with_capacity(n, matrix.nnz());
            for row in matrix.rows() {
                nonzero.push_row([(1.0, row)]);
            }
            return Ok(nonzero.into_matrix_unchecked());
        }
        Ok(matrix)
    }

    /// Builds from dense row slices, storing their nonzeros.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::NotSquare`] when the rows do not form a nonempty
    ///   square matrix.
    /// * [`MarkovError::InvalidProbability`] for entries outside `[0, 1]`
    ///   or non-finite entries.
    /// * [`MarkovError::RowNotStochastic`] for rows not summing to one
    ///   within [`ROW_SUM_TOLERANCE`].
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, MarkovError> {
        let n = rows.len();
        if n == 0 || rows.iter().any(|r| r.len() != n) {
            return Err(MarkovError::NotSquare {
                shape: (n, rows.first().map_or(0, |r| r.len())),
            });
        }
        let nnz = rows
            .iter()
            .flat_map(|r| r.iter())
            .filter(|&&v| v != 0.0)
            .count();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::with_capacity(nnz);
        let mut probs = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for row in rows {
            for (j, &v) in row.iter().enumerate().filter(|&(_, &v)| v != 0.0) {
                cols.push(j);
                probs.push(v);
            }
            row_ptr.push(cols.len());
        }
        Self::from_csr(n, row_ptr, cols, probs)
    }

    /// The `n × n` identity: a chain that never moves.
    pub fn identity(n: usize) -> Self {
        StochasticMatrix {
            row_ptr: (0..=n).collect(),
            cols: (0..n).collect(),
            probs: vec![1.0; n].into_boxed_slice(),
        }
    }

    /// The chain that jumps to a uniformly random state each slice.
    pub fn uniform(n: usize) -> Self {
        StochasticMatrix {
            row_ptr: (0..=n).map(|i| i * n).collect(),
            cols: (0..n * n).map(|k| k % n).collect(),
            probs: vec![1.0 / n as f64; n * n].into_boxed_slice(),
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of stored (nonzero) transition probabilities.
    pub fn nnz(&self) -> usize {
        self.probs.len()
    }

    /// Transition probability from `i` to `j`.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of range.
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        assert!(
            j < self.num_states(),
            "column {j} out of range ({} states)",
            self.num_states()
        );
        self.row(i).get(j)
    }

    /// Row `i`: the successors of state `i` with their probabilities.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn row(&self, i: usize) -> SparseRow<'_> {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        SparseRow {
            cols: self.cols.get(span.clone()).unwrap_or_default(),
            probs: self.probs.get(span).unwrap_or_default(),
        }
    }

    /// Iterates over the rows in state order.
    pub fn rows(&self) -> impl Iterator<Item = SparseRow<'_>> + '_ {
        (0..self.num_states()).map(move |i| self.row(i))
    }

    /// Propagates a state distribution one slice: `p' = p P`.
    ///
    /// # Errors
    ///
    /// [`MarkovError::DimensionMismatch`] when `dist.len()` differs from
    /// the number of states.
    pub fn step(&self, dist: &[f64]) -> Result<Vec<f64>, MarkovError> {
        if dist.len() != self.num_states() {
            return Err(MarkovError::DimensionMismatch {
                found: dist.len(),
                expected: self.num_states(),
            });
        }
        let mut next = vec![0.0; dist.len()];
        for (&x, row) in dist.iter().zip(self.rows()) {
            if x == 0.0 {
                continue;
            }
            for (j, p) in row.entries() {
                if let Some(slot) = next.get_mut(j) {
                    *slot += x * p;
                }
            }
        }
        Ok(next)
    }

    /// The `k`-step kernel `Pᵏ`.
    pub fn n_step(&self, k: usize) -> StochasticMatrix {
        let mut acc = StochasticMatrix::identity(self.num_states());
        for _ in 0..k {
            let mut mixed = MixedRows::with_capacity(self.num_states(), acc.nnz());
            for row in acc.rows() {
                mixed.push_row(row.entries().map(|(m, w)| (w, self.row(m))));
            }
            acc = mixed
                .renormalized()
                .expect("product of stochastic matrices is stochastic");
        }
        acc
    }

    /// Convex mixture `Σ wᵢ Pᵢ` of stochastic matrices — equation (5) of
    /// the paper (the kernel under a randomized decision).
    ///
    /// # Errors
    ///
    /// * [`MarkovError::NoActions`] for empty input.
    /// * [`MarkovError::InvalidDecision`] when weights are negative or do
    ///   not sum to one, or matrices disagree in size.
    pub fn mixture(parts: &[(f64, &StochasticMatrix)]) -> Result<Self, MarkovError> {
        let n = parts.first().ok_or(MarkovError::NoActions)?.1.num_states();
        let mut wsum = 0.0;
        for &(w, m) in parts {
            if !(0.0..=1.0 + ROW_SUM_TOLERANCE).contains(&w) || !w.is_finite() {
                return Err(MarkovError::InvalidDecision {
                    reason: format!("weight {w} is not a probability"),
                });
            }
            if m.num_states() != n {
                return Err(MarkovError::InvalidDecision {
                    reason: "mixture components differ in dimension".to_string(),
                });
            }
            wsum += w;
        }
        if (wsum - 1.0).abs() > ROW_SUM_TOLERANCE {
            return Err(MarkovError::InvalidDecision {
                reason: format!("weights sum to {wsum}, expected 1"),
            });
        }
        let nnz = parts.iter().map(|(_, m)| m.nnz()).sum();
        let mut mixed = MixedRows::with_capacity(n, nnz);
        for i in 0..n {
            mixed.push_row(parts.iter().map(|&(w, m)| (w, m.row(i))));
        }
        mixed.renormalized()
    }
}

/// Row-by-row assembly of a kernel whose rows are weighted sums of
/// sparse rows, `Σₖ wₖ · rowₖ` — the closed-loop, mixture and product
/// kernels.
#[derive(Debug)]
pub(crate) struct MixedRows {
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    probs: Vec<f64>,
    /// The terms of the row being assembled.
    scratch: Vec<(usize, f64)>,
}

impl MixedRows {
    /// An empty assembly of `n` rows with room for `nnz` entries.
    pub(crate) fn with_capacity(n: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        MixedRows {
            row_ptr,
            cols: Vec::with_capacity(nnz),
            probs: Vec::with_capacity(nnz),
            scratch: Vec::new(),
        }
    }

    /// Appends the row `Σₖ wₖ · rowₖ`. Terms landing in one column are
    /// summed in the order given; columns summing to zero are not
    /// stored.
    pub(crate) fn push_row<'a>(&mut self, terms: impl IntoIterator<Item = (f64, SparseRow<'a>)>) {
        self.scratch.clear();
        for (w, row) in terms {
            self.scratch.extend(row.entries().map(|(j, p)| (j, w * p)));
        }
        // Stable: equal columns keep the order their terms came in.
        self.scratch.sort_by_key(|&(j, _)| j);
        let mut terms = self.scratch.iter().peekable();
        while let Some(&(j, mut v)) = terms.next() {
            while let Some(&(_, w)) = terms.next_if(|&&(k, _)| k == j) {
                v += w;
            }
            if v != 0.0 {
                self.cols.push(j);
                self.probs.push(v);
            }
        }
        self.row_ptr.push(self.cols.len());
    }

    /// The assembled rows as a matrix, without re-validating them:
    /// only for rows known to be stochastic already.
    fn into_matrix_unchecked(self) -> StochasticMatrix {
        StochasticMatrix {
            row_ptr: self.row_ptr.into_boxed_slice(),
            cols: self.cols.into_boxed_slice(),
            probs: self.probs.into_boxed_slice(),
        }
    }

    /// Validates the assembled rows as they are.
    pub(crate) fn finish(self) -> Result<StochasticMatrix, MarkovError> {
        let n = self.row_ptr.len() - 1;
        StochasticMatrix::from_csr(n, self.row_ptr, self.cols, self.probs)
    }

    /// Scales each row whose sum is within 1e-6 of one to sum exactly to
    /// one (guarding against f64 drift in long products), then validates.
    pub(crate) fn renormalized(mut self) -> Result<StochasticMatrix, MarkovError> {
        let mut rest = self.probs.as_mut_slice();
        for (lo, hi) in self.row_ptr.iter().zip(self.row_ptr.iter().skip(1)) {
            let (row, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
            rest = tail;
            let s: f64 = row.iter().sum();
            if s > 0.0 && (s - 1.0).abs() < 1e-6 {
                let inv = 1.0 / s;
                for v in row {
                    *v *= inv;
                }
            }
        }
        self.finish()
    }
}

impl std::fmt::Display for StochasticMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.num_states();
        for i in 0..n {
            let row = self.row(i);
            for j in 0..n {
                write!(f, "{:>12.6}", row.get(j))?;
                if j + 1 < n {
                    write!(f, " ")?;
                }
            }
            if i + 1 < n {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_good_matrix() {
        assert!(StochasticMatrix::from_rows(&[&[0.5, 0.5], &[1.0, 0.0]]).is_ok());
    }

    #[test]
    fn rejects_bad_row_sum() {
        let err = StochasticMatrix::from_rows(&[&[0.5, 0.4], &[1.0, 0.0]]).unwrap_err();
        assert!(matches!(err, MarkovError::RowNotStochastic { row: 0, .. }));
    }

    #[test]
    fn rejects_negative_probability() {
        let err = StochasticMatrix::from_rows(&[&[1.2, -0.2], &[1.0, 0.0]]).unwrap_err();
        assert!(matches!(err, MarkovError::InvalidProbability { .. }));
    }

    #[test]
    fn rejects_non_square() {
        assert!(matches!(
            StochasticMatrix::from_rows(&[&[0.5, 0.5]]),
            Err(MarkovError::NotSquare { shape: (1, 2) })
        ));
        assert!(matches!(
            StochasticMatrix::from_rows(&[]),
            Err(MarkovError::NotSquare { .. })
        ));
    }

    #[test]
    fn stores_only_nonzeros() {
        let p =
            StochasticMatrix::from_rows(&[&[0.0, 1.0, 0.0], &[0.5, 0.0, 0.5], &[0.0, 0.0, 1.0]])
                .unwrap();
        assert_eq!(p.nnz(), 4);
        assert_eq!(p.row(1).entries().collect::<Vec<_>>(), [(0, 0.5), (2, 0.5)]);
        assert_eq!(p.prob(0, 0), 0.0);
        assert_eq!(p.prob(2, 2), 1.0);
        let sum: f64 = p.row(1).iter().sum();
        assert_eq!(sum, 1.0);
    }

    #[test]
    fn csr_input_is_validated_and_compacted() {
        let ok = StochasticMatrix::from_csr(2, vec![0, 2, 3], vec![0, 1, 1], vec![0.0, 1.0, 1.0])
            .unwrap();
        assert_eq!(ok.nnz(), 2);
        assert_eq!(ok.row(0).entries().collect::<Vec<_>>(), [(1, 1.0)]);
        assert_eq!(
            ok,
            StochasticMatrix::from_rows(&[&[0.0, 1.0], &[0.0, 1.0]]).unwrap()
        );
        let bad = |row_ptr: Vec<usize>, cols: Vec<usize>, probs: Vec<f64>| {
            StochasticMatrix::from_csr(2, row_ptr, cols, probs).unwrap_err()
        };
        assert!(matches!(
            bad(vec![0, 2], vec![0, 1], vec![0.5, 0.5]),
            MarkovError::DimensionMismatch { .. }
        ));
        assert!(matches!(
            bad(vec![0, 2, 1], vec![0, 1], vec![0.5, 0.5]),
            MarkovError::DimensionMismatch { .. }
        ));
        assert!(matches!(
            bad(vec![0, 1, 2], vec![2, 0], vec![1.0, 1.0]),
            MarkovError::StateOutOfRange { index: 2, .. }
        ));
        assert!(matches!(
            bad(vec![0, 2, 3], vec![1, 0, 0], vec![0.5, 0.5, 1.0]),
            MarkovError::UnsortedRow { row: 0 }
        ));
        assert!(matches!(
            bad(vec![0, 2, 3], vec![0, 0, 0], vec![0.5, 0.5, 1.0]),
            MarkovError::UnsortedRow { row: 0 }
        ));
        assert!(matches!(
            bad(vec![0, 1, 2], vec![0, 0], vec![1.0, f64::NAN]),
            MarkovError::InvalidProbability { row: 1, .. }
        ));
        assert!(matches!(
            bad(vec![0, 1, 2], vec![0, 0], vec![1.0, 0.9]),
            MarkovError::RowNotStochastic { row: 1, .. }
        ));
        assert!(matches!(
            StochasticMatrix::from_csr(0, vec![0], vec![], vec![]),
            Err(MarkovError::NotSquare { .. })
        ));
    }

    #[test]
    fn step_propagates_distribution() {
        let p = StochasticMatrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8]]).unwrap();
        let d = p.step(&[0.5, 0.5]).unwrap();
        assert!((d[0] - 0.55).abs() < 1e-12);
        assert!((d[1] - 0.45).abs() < 1e-12);
        assert!(p.step(&[1.0]).is_err());
    }

    #[test]
    fn n_step_matches_repeated_step() {
        let p = StochasticMatrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8]]).unwrap();
        let p3 = p.n_step(3);
        let mut d = vec![1.0, 0.0];
        for _ in 0..3 {
            d = p.step(&d).unwrap();
        }
        let d3 = p3.step(&[1.0, 0.0]).unwrap();
        assert!((d[0] - d3[0]).abs() < 1e-12);
    }

    #[test]
    fn zero_step_is_identity() {
        let p = StochasticMatrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8]]).unwrap();
        assert_eq!(p.n_step(0), StochasticMatrix::identity(2));
    }

    #[test]
    fn mixture_implements_equation_5() {
        let on = StochasticMatrix::from_rows(&[&[1.0, 0.0], &[0.1, 0.9]]).unwrap();
        let off = StochasticMatrix::from_rows(&[&[0.0, 1.0], &[0.0, 1.0]]).unwrap();
        // Example 3.6: 80% s_on, 20% s_off.
        let mixed = StochasticMatrix::mixture(&[(0.8, &on), (0.2, &off)]).unwrap();
        assert!((mixed.prob(0, 0) - 0.8).abs() < 1e-12);
        assert!((mixed.prob(1, 0) - 0.08).abs() < 1e-12);
        assert!((mixed.prob(1, 1) - 0.92).abs() < 1e-12);
    }

    #[test]
    fn mixture_rejects_bad_weights() {
        let p = StochasticMatrix::identity(2);
        assert!(StochasticMatrix::mixture(&[(0.5, &p), (0.4, &p)]).is_err());
        assert!(StochasticMatrix::mixture(&[]).is_err());
        assert!(StochasticMatrix::mixture(&[(-0.5, &p), (1.5, &p)]).is_err());
    }

    #[test]
    fn uniform_and_identity_shapes() {
        assert_eq!(StochasticMatrix::uniform(4).num_states(), 4);
        assert_eq!(StochasticMatrix::uniform(4).prob(2, 3), 0.25);
        assert_eq!(StochasticMatrix::identity(3).prob(1, 1), 1.0);
        assert_eq!(StochasticMatrix::identity(3).nnz(), 3);
    }

    #[test]
    fn display_prints_every_entry() {
        let p = StochasticMatrix::from_rows(&[&[0.0, 1.0], &[0.5, 0.5]]).unwrap();
        let text = p.to_string();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("    0.000000     1.000000"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prob_checks_the_column() {
        StochasticMatrix::identity(2).prob(0, 2);
    }
}
