//! Std-only stand-in for the subset of `criterion` this workspace uses.
//!
//! No statistics engine: each benchmark is timed with a short warm-up
//! followed by `sample_size` measured iterations (wall-clock capped), the
//! mean ns/iter is printed, and all results of a run are appended to
//! `results/BENCH_<bin>.json` next to the workspace's experiment outputs so
//! benchmark history is diffable run-to-run.

use std::time::{Duration, Instant};

/// Upper bound on measured wall-clock per benchmark, so heavyweight
/// benches (CW attacks run thousands of forward passes) stay bounded.
const TIME_CAP: Duration = Duration::from_secs(5);

/// Re-export matching `criterion::black_box`.
pub use std::hint::black_box;

/// One recorded measurement.
#[derive(Debug, Clone)]
pub struct Record {
    /// `group/name` benchmark id.
    pub id: String,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Number of measured iterations.
    pub iters: u64,
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {
    records: Vec<Record>,
}

impl Criterion {
    /// Mirrors upstream's CLI hookup; the shim has no CLI and returns
    /// `self` unchanged.
    #[must_use]
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.into(),
            sample_size: 20,
        }
    }

    /// Benchmarks a function outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let record = run_bench(name, 20, f);
        self.records.push(record);
        self
    }

    /// All measurements recorded so far.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Records an externally measured scalar (allocation counts, speedup
    /// ratios) alongside the timing records so it lands in the same
    /// `BENCH_<label>.json`. The value goes in the `mean_ns` column with
    /// `iters = 0` marking it as a non-timing metric.
    pub fn record_metric(&mut self, id: impl Into<String>, value: f64) {
        self.records.push(Record {
            id: id.into(),
            mean_ns: value,
            iters: 0,
        });
    }

    /// The records as the `BENCH_<label>.json` array. Values are written
    /// at full precision (shortest round-trip), so a gate reading them sees
    /// exactly what was recorded.
    pub fn to_json(&self) -> String {
        let mut json = String::from("[\n");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                json.push_str(",\n");
            }
            json.push_str(&format!(
                "  {{\"id\": \"{}\", \"mean_ns\": {}, \"iters\": {}}}",
                r.id, r.mean_ns, r.iters
            ));
        }
        json.push_str("\n]\n");
        json
    }

    /// Writes every recorded measurement to
    /// `results/BENCH_<label>.json` (relative to the workspace root when
    /// run under cargo) and prints a summary table.
    pub fn finalize(&self, label: &str) {
        if self.records.is_empty() {
            return;
        }
        let json = self.to_json();
        if let Some(dir) = results_dir() {
            let path = dir.join(format!("BENCH_{label}.json"));
            if std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, &json))
                .is_ok()
            {
                eprintln!("wrote {}", path.display());
            }
        }
    }
}

/// Locates `<workspace>/results` from the bench binary's environment.
fn results_dir() -> Option<std::path::PathBuf> {
    // CARGO_MANIFEST_DIR points at the member crate (e.g. crates/bench);
    // the workspace root is two levels up.
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")?;
    let mut p = std::path::PathBuf::from(manifest);
    p.pop();
    p.pop();
    Some(p.join("results"))
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of measured iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Mirrors upstream's measurement-time knob; the shim uses a fixed
    /// wall-clock cap instead and ignores the requested duration.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmarks a closure under `group/name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into_id());
        let record = run_bench(&full, self.sample_size, f);
        self.parent.records.push(record);
        self
    }

    /// Benchmarks a closure parameterized by `input`.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.into_id());
        let record = run_bench(&full, self.sample_size, |b| f(b, input));
        self.parent.records.push(record);
        self
    }

    /// Ends the group (bookkeeping no-op in the shim).
    pub fn finish(&mut self) {}
}

/// Identifier of one benchmark within a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `name/parameter` id.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{}/{parameter}", name.into()))
    }

    /// Id that is just the parameter (for single-function sweeps).
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

/// Anything convertible into a benchmark id string.
pub trait IntoBenchmarkId {
    /// The id string.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.0
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// Passed to the benchmarked closure; [`Bencher::iter`] does the timing.
pub struct Bencher {
    sample_size: usize,
    total: Duration,
    iters: u64,
}

impl Bencher {
    /// Times `f`: a short warm-up, then up to `sample_size` measured
    /// iterations (wall-clock capped).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: one untimed call (also primes caches/allocator).
        black_box(f());
        let start = Instant::now();
        let mut iters = 0u64;
        while iters < self.sample_size as u64 {
            black_box(f());
            iters += 1;
            if start.elapsed() > TIME_CAP {
                break;
            }
        }
        self.total = start.elapsed();
        self.iters = iters;
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(id: &str, sample_size: usize, mut f: F) -> Record {
    let mut b = Bencher {
        sample_size,
        total: Duration::ZERO,
        iters: 0,
    };
    f(&mut b);
    let mean_ns = if b.iters == 0 {
        0.0
    } else {
        b.total.as_nanos() as f64 / b.iters as f64
    };
    eprintln!("bench {id:<40} {mean_ns:>14.1} ns/iter ({} iters)", b.iters);
    Record {
        id: id.to_string(),
        mean_ns,
        iters: b.iters,
    }
}

/// Declares a group of benchmark functions, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
            criterion.finalize(stringify!($group));
        }
    };
    (name = $group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
            criterion.finalize(stringify!($group));
        }
    };
}

/// Declares the bench binary's `main`, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_iterations() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(5);
        group.bench_function("trivial", |b| b.iter(|| black_box(1 + 1)));
        group.bench_with_input(BenchmarkId::from_parameter(3), &3u32, |b, &x| {
            b.iter(|| black_box(x * 2))
        });
        group.finish();
        assert_eq!(c.records().len(), 2);
        assert!(c.records().iter().all(|r| r.iters > 0));
        assert_eq!(c.records()[0].id, "g/trivial");
        assert_eq!(c.records()[1].id, "g/3");
    }

    #[test]
    fn recorded_values_are_written_at_full_precision() {
        let mut c = Criterion::default();
        c.record_metric("gate/agreement", 0.97);
        c.record_metric("gate/ratio", 1.0 / 3.0);
        let json = c.to_json();
        assert!(
            json.contains("\"id\": \"gate/agreement\", \"mean_ns\": 0.97,"),
            "{json}"
        );
        assert!(json.contains("\"mean_ns\": 0.3333333333333333,"), "{json}");
    }
}
