//! Offline stand-in for the [criterion](https://docs.rs/criterion)
//! benchmark harness.
//!
//! The build environment has no crates.io access, so this workspace
//! crate implements the API surface Prophet's benches use —
//! `benchmark_group`, `bench_function`, `bench_with_input`,
//! `Throughput`, `BenchmarkId`, `black_box`, and the
//! `criterion_group!`/`criterion_main!` macros — with a simple
//! wall-clock measurement loop instead of criterion's statistics:
//! each benchmark is auto-calibrated to a small time budget, then the
//! mean iteration time (and derived throughput) is printed.
//!
//! Environment knobs:
//! * `PROPHET_BENCH_BUDGET_MS` — per-benchmark measurement budget
//!   (default 200 ms).

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

/// Prevent the optimizer from deleting a value or the work behind it.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Work-per-iteration label used to derive throughput lines.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Iterations process this many logical elements.
    Elements(u64),
    /// Iterations process this many bytes.
    Bytes(u64),
}

/// A benchmark name, optionally parameterized.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter` identifier.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        Self {
            id: format!("{}/{}", name.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        Self {
            id: name.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        Self { id }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// Measures one routine: `iter` times the closure over a calibrated
/// number of iterations.
pub struct Bencher {
    iters_hint: u64,
    measured: Option<(Duration, u64)>,
}

impl Bencher {
    /// Time `routine`, running it enough times to fill the budget.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.iters_hint {
            black_box(routine());
        }
        self.measured = Some((start.elapsed(), self.iters_hint));
    }
}

fn budget() -> Duration {
    let ms = std::env::var("PROPHET_BENCH_BUDGET_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    Duration::from_millis(ms)
}

fn run_measured(
    group: &str,
    id: &BenchmarkId,
    throughput: Option<Throughput>,
    mut call: impl FnMut(&mut Bencher),
) {
    // Calibrate: one iteration to size the loop to the budget.
    let mut probe = Bencher {
        iters_hint: 1,
        measured: None,
    };
    call(&mut probe);
    let (probe_time, _) = probe.measured.expect("bench routine never called iter()");
    let per_iter = probe_time.max(Duration::from_nanos(1));
    let iters = (budget().as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;

    let mut bencher = Bencher {
        iters_hint: iters,
        measured: None,
    };
    call(&mut bencher);
    let (elapsed, n) = bencher.measured.expect("bench routine never called iter()");
    let mean = elapsed.as_secs_f64() / n as f64;

    let rate = match throughput {
        Some(Throughput::Elements(e)) => format!("  {:>12.0} elem/s", e as f64 / mean),
        Some(Throughput::Bytes(b)) => format!("  {:>12.0} B/s", b as f64 / mean),
        None => String::new(),
    };
    println!(
        "{group}/{id:<32} {:>12.3} µs/iter  ({n} iters){rate}",
        mean * 1e6
    );
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim sizes runs by budget.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Label the group's work per iteration for throughput reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Measure a routine.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_measured(&self.name, &id.into(), self.throughput, f);
        self
    }

    /// Measure a routine parameterized by `input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        run_measured(&self.name, &id.into(), self.throughput, |b| f(b, input));
        self
    }

    /// End the group.
    pub fn finish(&mut self) {}
}

/// The harness entry point handed to `criterion_group!` functions.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            _criterion: self,
        }
    }

    /// Measure a stand-alone routine.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_measured("bench", &id.into(), None, f);
        self
    }
}

/// Collect benchmark functions into one named runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running the given groups (ignores harness CLI flags).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_measures_and_reports() {
        std::env::set_var("PROPHET_BENCH_BUDGET_MS", "5");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        let mut runs = 0u64;
        group.throughput(Throughput::Elements(10));
        group.bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
                black_box(runs)
            })
        });
        group.bench_with_input(BenchmarkId::new("param", 3), &3u64, |b, &n| {
            b.iter(|| black_box(n * 2))
        });
        group.finish();
        assert!(runs > 0, "routine never ran");
    }
}
