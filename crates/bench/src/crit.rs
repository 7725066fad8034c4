//! A std-only micro-benchmark harness with a Criterion-shaped API.
//!
//! The real `criterion` crate is unavailable offline, so this module
//! implements the small subset the bench targets use — `Criterion`,
//! `benchmark_group`, `bench_function`, `sample_size`, `Bencher::iter`,
//! `Bencher::iter_batched`, and the `criterion_group!`/`criterion_main!`
//! macros — on top of `std::time::Instant`. Each benchmark is calibrated
//! to a minimum per-sample runtime, then timed over `sample_size` samples;
//! the median, minimum, and maximum ns/iteration are printed.
//!
//! This is a measurement tool, not a statistics suite: no outlier
//! rejection, no regression analysis. For publishable numbers, vendor
//! criterion and swap the import back.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Minimum measured duration per sample after calibration.
const TARGET_SAMPLE: Duration = Duration::from_millis(5);

/// One measured benchmark: summary statistics over the timed samples, in
/// nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// `group/id` — the stable name the perf gate keys on.
    pub name: String,
    /// Median ns/iteration over the samples.
    pub median_ns: f64,
    /// 95th-percentile ns/iteration (nearest rank).
    pub p95_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample after calibration.
    pub iters: u64,
}

impl BenchResult {
    /// Renders the result as one JSON object (a `BENCH_rbpc.json` line),
    /// stamped with the host's available parallelism (`nproc`).
    pub fn to_json_line(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        format!(
            "{{\"bench\":\"{}\",\"median_ns\":{:.1},\"p95_ns\":{:.1},\
             \"min_ns\":{:.1},\"max_ns\":{:.1},\"samples\":{},\"iters\":{},\"nproc\":{}}}",
            self.name,
            self.median_ns,
            self.p95_ns,
            self.min_ns,
            self.max_ns,
            self.samples,
            self.iters,
            nproc
        )
    }
}

fn results() -> &'static Mutex<Vec<BenchResult>> {
    static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());
    &RESULTS
}

/// Drains every result recorded by [`BenchmarkGroup::bench_function`] since
/// the process started (or the previous drain).
pub fn take_results() -> Vec<BenchResult> {
    std::mem::take(&mut results().lock().expect("bench results poisoned"))
}

/// Writes collected results to the `--json FILE` named in `args`, if any —
/// called by the `criterion_main!`-generated `main` after all groups ran.
///
/// The file is opened in append mode so several bench binaries (cargo runs
/// one per `[[bench]]` target) can accumulate into a single JSONL file;
/// delete it before the run for a fresh snapshot. Unrelated flags that
/// cargo's bench runner passes (e.g. `--bench`) are ignored.
pub fn finish_main() {
    let mut args = std::env::args().skip(1);
    let mut json_path = None;
    while let Some(a) = args.next() {
        if a == "--json" {
            json_path = args.next();
        }
    }
    let collected = take_results();
    let Some(path) = json_path else { return };
    let mut body = String::new();
    for r in &collected {
        body.push_str(&r.to_json_line());
        body.push('\n');
    }
    use std::io::Write as _;
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(body.as_bytes()));
    match written {
        Ok(()) => eprintln!("# appended {} result(s) to {path}", collected.len()),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

/// Batch sizing hint for [`Bencher::iter_batched`]; accepted for API
/// compatibility (this harness always runs one setup per routine call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Routine input is small; criterion would batch many per allocation.
    SmallInput,
    /// Routine input is large; criterion would batch few per allocation.
    LargeInput,
    /// One setup per routine call.
    PerIteration,
}

/// Top-level benchmark driver (shim for `criterion::Criterion`).
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 20,
        }
    }
}

/// A named group of benchmarks sharing a sample count.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Sets the number of samples per benchmark (default 20).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark: calibrates an iteration count, takes
    /// `sample_size` timed samples, and prints median/min/max ns per
    /// iteration.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        // Calibrate: double the iteration count until one sample is slow
        // enough to time reliably.
        let mut iters = 1u64;
        loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            if b.elapsed >= TARGET_SAMPLE || iters >= 1 << 30 {
                break;
            }
            // Jump straight to the projected count once we have signal.
            iters = if b.elapsed.is_zero() {
                iters * 2
            } else {
                let scale = TARGET_SAMPLE.as_secs_f64() / b.elapsed.as_secs_f64();
                ((iters as f64 * scale).ceil() as u64).clamp(iters + 1, iters * 100)
            };
        }

        let mut per_iter: Vec<f64> = (0..self.sample_size)
            .map(|_| {
                let mut b = Bencher {
                    iters,
                    elapsed: Duration::ZERO,
                };
                f(&mut b);
                b.elapsed.as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let median = per_iter[per_iter.len() / 2];
        let p95 = per_iter[((per_iter.len() - 1) as f64 * 0.95).round() as usize];
        let min = per_iter[0];
        let max = per_iter[per_iter.len() - 1];
        println!(
            "{}/{:<40} {:>14} ns/iter (p95 {}, min {}, max {}, {} samples x {} iters)",
            self.name,
            id,
            fmt_ns(median),
            fmt_ns(p95),
            fmt_ns(min),
            fmt_ns(max),
            self.sample_size,
            iters
        );
        results()
            .lock()
            .expect("bench results poisoned")
            .push(BenchResult {
                name: format!("{}/{id}", self.name),
                median_ns: median,
                p95_ns: p95,
                min_ns: min,
                max_ns: max,
                samples: self.sample_size,
                iters,
            });
        self
    }

    /// Ends the group (no-op; exists for API compatibility).
    pub fn finish(self) {}
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}")
    }
}

/// Timing context handed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` back-to-back calls of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` over fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

/// Declares a benchmark group function (shim for
/// `criterion::criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench binary's `main` (shim for
/// `criterion::criterion_main!`). After all groups run, results are
/// appended to the `--json FILE` argument if one was passed (see
/// [`crate::crit::finish_main`]).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::crit::finish_main();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim_test");
        g.sample_size(2);
        let mut ran = 0u64;
        g.bench_function("spin", |b| b.iter(|| std::hint::black_box(3u64 * 7)));
        g.bench_function("batched", |b| {
            b.iter_batched(
                || 21u64,
                |x| {
                    ran += 1;
                    x * 2
                },
                BatchSize::LargeInput,
            )
        });
        assert!(ran > 0);
        let recorded = take_results();
        assert!(recorded.iter().any(|r| r.name == "shim_test/spin"));
        assert!(recorded.iter().any(|r| r.name == "shim_test/batched"));
        for r in &recorded {
            assert!(r.median_ns > 0.0);
            assert!(r.p95_ns >= r.median_ns - 1e-9);
            assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
            assert_eq!(r.samples, 2);
        }
    }

    #[test]
    fn json_line_is_wellformed() {
        let r = BenchResult {
            name: "g/b".to_string(),
            median_ns: 1234.5,
            p95_ns: 2000.0,
            min_ns: 1000.0,
            max_ns: 2100.25,
            samples: 20,
            iters: 64,
        };
        let line = r.to_json_line();
        assert!(line.starts_with("{\"bench\":\"g/b\""));
        assert!(line.contains("\"median_ns\":1234.5"));
        assert!(line.contains("\"p95_ns\":2000.0"));
        assert!(line.contains("\"iters\":64"));
        assert!(line.contains("\"nproc\":"));
    }
}
