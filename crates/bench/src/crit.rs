//! A minimal, dependency-free benchmark harness with a Criterion-flavoured
//! surface.
//!
//! The workspace builds with no external crates (see the dependency policy
//! in `DESIGN.md`), so the `[[bench]]` targets cannot link the real
//! `criterion`. This module vendors the small slice of its API the suite
//! uses — groups, `bench_function`/`bench_with_input`, `BenchmarkId`,
//! element throughput, and the `criterion_group!`/`criterion_main!` macros —
//! over plain [`std::time::Instant`] wall-clock timing.
//!
//! Method: each benchmark is calibrated so one batch of the routine runs for
//! roughly five milliseconds, then `sample_size` batches are timed and the
//! *median* nanoseconds per iteration reported (the median is robust to
//! scheduler noise, which is all the statistics the paper's Tables 7–8
//! comparisons need). [`measure`] also returns the fastest and slowest
//! sample, so a recorded median carries its spread.

use std::fmt;
use std::time::Instant;

/// Target wall-clock time of one timed batch.
const BATCH_TARGET_NS: u128 = 5_000_000;

/// Top-level harness handle; one per process, passed to every registered
/// benchmark function by [`criterion_group!`].
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.to_owned(),
            sample_size: 10,
            throughput: None,
        }
    }
}

/// Identifies one benchmark within a group: a function name, an optional
/// parameter, or both.
#[derive(Clone, Debug)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id with a function name and a parameter, rendered `name/param`.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self(format!("{name}/{parameter}"))
    }

    /// An id carrying only a parameter value.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self(parameter.to_string())
    }
}

/// Units processed per iteration, for derived throughput reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// The routine processes this many logical elements per iteration.
    Elements(u64),
}

/// A group of benchmarks sharing a name prefix, sample count, and
/// throughput annotation.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Sets how many timed batches each benchmark takes (minimum 2).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Declares per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Times `routine` under `id`.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::new(self.sample_size);
        routine(&mut bencher);
        self.report(&id.to_string(), &bencher);
        self
    }

    /// Times `routine` under `id`, passing it a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher::new(self.sample_size);
        routine(&mut bencher, input);
        self.report(&id.0, &bencher);
        self
    }

    /// Ends the group (parity with the Criterion API; reporting is
    /// per-benchmark, so there is nothing left to flush).
    pub fn finish(&mut self) {}

    fn report(&self, id: &str, bencher: &Bencher) {
        let Some(Timing { median_ns, .. }) = bencher.timing else {
            println!("{}/{id:<40} no measurement", self.name);
            return;
        };
        let mut line = format!("{}/{id}", self.name);
        line = format!("{line:<56} {:>14}/iter", format_ns(median_ns));
        if let Some(Throughput::Elements(n)) = self.throughput {
            if median_ns > 0.0 {
                let per_sec = n as f64 * 1e9 / median_ns;
                line = format!("{line}  {per_sec:>12.3e} elem/s");
            }
        }
        println!("{line}");
    }
}

/// Nanoseconds per iteration of one timed routine: its fastest, median and
/// slowest sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// The fastest sample.
    pub min_ns: f64,
    /// The median sample.
    pub median_ns: f64,
    /// The slowest sample.
    pub max_ns: f64,
}

impl Timing {
    fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self {
            min_ns: samples[0],
            median_ns: samples[samples.len() / 2],
            max_ns: samples[samples.len() - 1],
        }
    }
}

/// The batch size of `routine`: doubles the batch until it runs long enough
/// to time reliably, then scales it to the target batch duration.
fn calibrate<O>(routine: &mut impl FnMut() -> O) -> u64 {
    let mut batch: u64 = 1;
    let per_iter_ns = loop {
        let start = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(routine());
        }
        let elapsed = start.elapsed().as_nanos();
        if elapsed >= 100_000 || batch >= 1 << 20 {
            break (elapsed / u128::from(batch)).max(1);
        }
        batch *= 2;
    };
    u64::try_from((BATCH_TARGET_NS / per_iter_ns).clamp(1, 1 << 24)).expect("clamped to u64 range")
}

/// Nanoseconds per iteration of one timed batch of `routine`.
fn sample<O>(routine: &mut impl FnMut() -> O, batch: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..batch {
        std::hint::black_box(routine());
    }
    start.elapsed().as_nanos() as f64 / batch as f64
}

/// Runs and times one benchmark routine.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    timing: Option<Timing>,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Self {
            sample_size,
            timing: None,
        }
    }

    /// Calibrates a batch size, then times `sample_size` batches of
    /// `routine` and records the spread of the time per iteration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let batch = calibrate(&mut routine);
        let samples = (0..self.sample_size)
            .map(|_| sample(&mut routine, batch))
            .collect();
        self.timing = Some(Timing::of(samples));
    }
}

/// Times `routines` like [`Bencher::iter`] (calibrated batches,
/// `sample_size` samples each), interleaved: each routine is calibrated
/// alone, then every round times one batch of each in turn, so a host that
/// speeds up or slows down during the run moves them all alike and their
/// ratios stay comparable. Returns each routine's spread of nanoseconds
/// per iteration, in order — the programmatic entry point `perf_report`
/// uses to emit machine-readable numbers instead of console lines.
pub fn measure<const N: usize>(
    sample_size: usize,
    routines: &mut [&mut dyn FnMut(); N],
) -> [Timing; N] {
    let batches = routines.each_mut().map(calibrate);
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    for _ in 0..sample_size.max(2) {
        for ((routine, &batch), row) in routines.iter_mut().zip(&batches).zip(&mut samples) {
            row.push(sample(routine, batch));
        }
    }
    samples.map(Timing::of)
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Registers benchmark functions under a group name, Criterion-style:
/// `criterion_group!(benches, bench_a, bench_b)` defines `fn benches()`
/// running each with a fresh [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        /// Runs this group's benchmark targets.
        pub fn $name() {
            let mut criterion = $crate::crit::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Defines `main` running the given [`criterion_group!`] groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_render() {
        assert_eq!(BenchmarkId::new("strip", 1000).0, "strip/1000");
        assert_eq!(BenchmarkId::from_parameter("lru").0, "lru");
    }

    #[test]
    fn bencher_measures_something() {
        let mut group = Criterion::default().benchmark_group("selftest");
        group.sample_size(2);
        let mut ran = false;
        group.bench_function("noop", |b| {
            b.iter(|| std::hint::black_box(1u64 + 1));
            ran = true;
        });
        assert!(ran);
        group.finish();
    }

    #[test]
    fn measure_returns_an_ordered_positive_spread_per_routine() {
        let (mut a, mut b) = (0u64, 0u64);
        let mut count_a = || a += 1;
        let mut count_b = || b += 2;
        let timings = measure(3, &mut [&mut count_a, &mut count_b]);
        for t in timings {
            assert!(0.0 < t.min_ns && t.min_ns <= t.median_ns && t.median_ns <= t.max_ns);
        }
        assert!(a >= 3 && b >= 6, "{a} {b}");
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(format_ns(12.34), "12.3 ns");
        assert_eq!(format_ns(12_340.0), "12.340 us");
        assert_eq!(format_ns(12_340_000.0), "12.340 ms");
        assert_eq!(format_ns(2.5e9), "2.500 s");
    }
}
