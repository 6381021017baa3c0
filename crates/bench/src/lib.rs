//! Shared helpers for the binaries that regenerate every table and
//! figure of the paper's evaluation (Section VI and Appendix B), and
//! for the `solvers` bench. Each binary prints the rows/series of its
//! figure; `docs/BENCHMARKING.md` lists them.
//!
//! Run them with, e.g.:
//!
//! ```text
//! cargo run --release -p dpm-bench --bin fig06
//! cargo bench -p dpm-bench --bench solvers
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// Prints a section header in a consistent style.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Prints one aligned table: a header row and data rows of equal arity.
///
/// # Panics
///
/// Panics when a row's arity differs from the header's.
pub fn table(header: &[&str], rows: &[Vec<String>]) {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", line.join("  "));
    };
    print_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    print_row(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        print_row(row);
    }
}

/// Formats a feasible value or the paper's infeasible marker.
pub fn fmt_or_infeasible(value: Option<f64>, precision: usize) -> String {
    match value {
        Some(v) => format!("{v:.precision$}"),
        None => "infeasible".to_string(),
    }
}

/// Median of three timed runs of `f`, in nanoseconds (one sample is too
/// exposed to scheduler noise). The `solvers` bench's timings and its
/// devex-over-Dantzig ratio use it.
pub fn time_median_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            // Timing the workload is this crate's whole job; the
            // workspace-wide wall-clock ban (clippy.toml) stops here.
            #[allow(clippy::disallowed_methods)]
            let start = std::time::Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_handles_both_cases() {
        assert_eq!(fmt_or_infeasible(Some(1.23456), 3), "1.235");
        assert_eq!(fmt_or_infeasible(None, 3), "infeasible");
    }

    #[test]
    fn table_prints_without_panicking() {
        table(&["a", "bb"], &[vec!["1".to_string(), "2".to_string()]]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_ragged_rows() {
        table(&["a"], &[vec!["1".to_string(), "2".to_string()]]);
    }
}
