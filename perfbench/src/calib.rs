//! Host-speed calibration: a fixed reference kernel, timed between the
//! benchmark's own samples, that measures how fast the host is at that
//! moment.
//!
//! On a shared host the processor's speed drifts by up to a third
//! within seconds to minutes. Other tenants' load slows every
//! instruction of the program, not only the stretches when they hold the
//! processor, so on-CPU time drifts as much as wall time does. The
//! kernel drifts with it. Every end-to-end timing is multiplied by
//! [`NOMINAL_MS`] ÷ the kernel's time measured around it: the figure is
//! the time the program would take on a host running the kernel in
//! exactly [`NOMINAL_MS`], so a slower host leaves it unchanged while a
//! slower program does not. No crate of the repository runs the kernel,
//! so no change to them can move it.
//!
//! The kernel mixes the kinds of work the program does: a sparse
//! gather-multiply over a working set of about 1.5 MiB (as in the
//! solver's LU and pricing passes), and a sort of integer keys (as in
//! the fleet's bookkeeping).

use std::hint::black_box;
use std::time::Instant;

use crate::stats::{self, Rng};

/// The kernel's time on the host the benchmark was defined on (a
/// 2-vCPU shared VM), in milliseconds: the speed every end-to-end
/// timing is expressed at.
pub const NOMINAL_MS: f64 = 0.19;
/// Least time between two readings of the host's speed, ms.
const INTERVAL_MS: f64 = 20.0;
/// Readings taken on each side of a sample that set its scale.
const HALF_WINDOW: usize = 2;

/// Rows of the sparse matrix.
const ROWS: usize = 16_384;
/// Nonzeros per row.
const PER_ROW: usize = 8;
/// Length of the dense vector the rows gather from.
const COLUMNS: usize = 32_768;
/// Keys sorted per pass.
const KEYS: usize = 8_192;
/// Passes per measurement; the fastest is kept, so an interrupt during
/// one pass does not count.
const PASSES: usize = 3;

/// The kernel's data, built once from a fixed seed.
#[derive(Debug, Clone)]
pub struct Reference {
    columns: Vec<u32>,
    values: Vec<f64>,
    x: Vec<f64>,
    keys: Vec<u64>,
}

impl Reference {
    /// The kernel's fixed inputs.
    pub fn new() -> Self {
        let mut rng = Rng::new(0x5EF, 0);
        let columns = (0..ROWS * PER_ROW)
            .map(|_| rng.below(COLUMNS) as u32)
            .collect();
        let values = (0..ROWS * PER_ROW).map(|_| rng.range(-1.0, 1.0)).collect();
        let x = (0..COLUMNS).map(|_| rng.range(0.5, 1.5)).collect();
        let keys = (0..KEYS).map(|_| rng.next_u64()).collect();
        Reference {
            columns,
            values,
            x,
            keys,
        }
    }

    /// One pass of the kernel; returns a checksum so no work is elided.
    fn pass(&self) -> f64 {
        let mut sum = 0.0;
        for (columns, values) in self
            .columns
            .chunks_exact(PER_ROW)
            .zip(self.values.chunks_exact(PER_ROW))
        {
            let row: f64 = columns
                .iter()
                .zip(values)
                .map(|(&c, &v)| v * self.x.get(c as usize).copied().unwrap_or(0.0))
                .sum();
            sum += row.abs();
        }
        let mut keys = black_box(self.keys.clone());
        keys.sort_unstable();
        sum + keys.first().copied().unwrap_or(0) as f64
    }

    /// Milliseconds one pass takes now: the fastest of [`PASSES`].
    pub fn measure(&self) -> f64 {
        (0..PASSES)
            .map(|_| {
                let (checksum, ms) = stats::timed(|| self.pass());
                black_box(checksum);
                ms
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// The host's speed through a run: kernel readings taken between
/// samples, at least [`INTERVAL_MS`] apart.
#[derive(Debug, Clone)]
pub struct Meter {
    reference: Reference,
    /// Kernel milliseconds, in the order they were read.
    readings: Vec<f64>,
    /// When the last reading ended.
    last: Instant,
}

impl Default for Meter {
    fn default() -> Self {
        Self::new()
    }
}

impl Meter {
    /// A meter holding one reading.
    pub fn new() -> Self {
        let mut meter = Meter {
            reference: Reference::new(),
            readings: Vec::new(),
            last: stats::now(),
        };
        meter.read();
        meter
    }

    /// Reads the host's speed now.
    pub fn read(&mut self) {
        self.readings.push(self.reference.measure());
        self.last = stats::now();
    }

    /// Reads the host's speed if [`INTERVAL_MS`] have passed since the
    /// last reading. Called between samples, never inside one.
    pub fn tick(&mut self) {
        if stats::ms_since(self.last) >= INTERVAL_MS {
            self.read();
        }
    }

    /// The stamp of a sample that ends now: the number of readings
    /// taken before it.
    pub fn stamp(&self) -> usize {
        self.readings.len()
    }

    /// The factor that brings a sample stamped `stamp` to the nominal
    /// speed: [`NOMINAL_MS`] ÷ the median of the [`HALF_WINDOW`]
    /// readings before the sample and as many after it.
    pub fn scale(&self, stamp: usize) -> f64 {
        let lo = stamp.saturating_sub(HALF_WINDOW);
        let hi = (stamp + HALF_WINDOW).min(self.readings.len());
        self.readings
            .get(lo..hi)
            .and_then(stats::median)
            .or_else(|| self.reference_ms())
            .map_or(1.0, |local| NOMINAL_MS / local)
    }

    /// The median reading of the run, ms.
    pub fn reference_ms(&self) -> Option<f64> {
        stats::median(&self.readings)
    }
}

/// Samples of one timing, each stamped with the [`Meter`] reading
/// count when it ended.
#[derive(Debug, Default, Clone)]
pub struct Timings(Vec<(f64, usize)>);

impl Timings {
    /// Records a sample of `ms` that ended now.
    pub fn push(&mut self, ms: f64, meter: &Meter) {
        self.0.push((ms, meter.stamp()));
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The samples as measured, in order.
    pub fn raw(&self) -> impl Iterator<Item = f64> + '_ {
        self.0.iter().map(|(ms, _)| *ms)
    }

    /// The samples at the nominal speed, in order.
    pub fn scaled(&self, meter: &Meter) -> Vec<f64> {
        self.0
            .iter()
            .map(|&(ms, stamp)| ms * meter.scale(stamp))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_scale_by_the_readings_around_them() {
        let mut meter = Meter::new();
        meter.readings = vec![0.1, 0.1, 0.4, 0.4, 0.4, 0.4];
        let mut timings = Timings::default();
        timings.push(2.0, &meter);
        meter.readings.truncate(1);
        timings.push(1.0, &meter);
        // Stamp 6 sees readings 4..6, both 0.4.
        meter.readings = vec![0.1, 0.1, 0.4, 0.4, 0.4, 0.4];
        let scaled = timings.scaled(&meter);
        assert!((scaled[0] - 2.0 * NOMINAL_MS / 0.4).abs() < 1e-12);
        // Stamp 1 sees readings 0..3: median 0.1.
        assert!((scaled[1] - NOMINAL_MS / 0.1).abs() < 1e-12);
        assert_eq!(timings.raw().collect::<Vec<_>>(), vec![2.0, 1.0]);
        assert_eq!(meter.reference_ms(), Some(0.4));
    }

    #[test]
    fn the_kernel_takes_time() {
        let reference = Reference::new();
        assert_eq!(reference.pass().to_bits(), reference.pass().to_bits());
        assert!(reference.measure() > 0.0);
    }
}
