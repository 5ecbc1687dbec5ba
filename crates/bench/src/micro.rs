//! A criterion-style micro-bench timer with no external dependencies.
//!
//! Each benchmark auto-calibrates an iteration count so that one sample takes
//! a measurable slice of wall-clock time, runs a warm-up, then collects a
//! fixed number of samples and reports per-iteration min / median / p95 /
//! max. Results are printed as a table and written as JSON to
//! `target/ssdrec-bench/<harness>.json`, together with the compute thread
//! count, the tensor-pool counters and the peak RSS of the run.
//!
//! Usage inside a `[[bench]]` target with `harness = false`:
//!
//! ```no_run
//! use ssdrec_bench::micro::Harness;
//!
//! let mut h = Harness::new("kernels");
//! let xs: Vec<f32> = (0..1024).map(|i| i as f32).collect();
//! h.bench("sum_1024", || xs.iter().sum::<f32>());
//! h.finish();
//! ```
//!
//! Environment knobs: `SSDREC_BENCH_SAMPLES` (default 20) and
//! `SSDREC_BENCH_SAMPLE_MS` (target milliseconds per sample, default 10).
//! In [`Mode::Fast`] every benchmark runs one sample of one iteration.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ssdrec_serve::json::Obj;

use crate::report::{peak_rss_bytes, percentile, save_json, Mode};

/// Measurement configuration (normally read from the environment).
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Samples collected per benchmark.
    pub samples: usize,
    /// Target wall-clock duration of one sample; warm-up lasts three times
    /// as long.
    pub sample_target: Duration,
}

impl Default for BenchConfig {
    fn default() -> Self {
        if Mode::current().is_fast() {
            return BenchConfig {
                samples: 1,
                sample_target: Duration::ZERO,
            };
        }
        let env = |name: &str, default: u64| {
            std::env::var(name)
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(default)
        };
        BenchConfig {
            samples: env("SSDREC_BENCH_SAMPLES", 20).max(1) as usize,
            sample_target: Duration::from_millis(env("SSDREC_BENCH_SAMPLE_MS", 10)),
        }
    }
}

/// Per-iteration timing statistics, in nanoseconds.
#[derive(Clone, Debug)]
pub struct Stats {
    /// Benchmark id.
    pub id: String,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Number of samples.
    pub samples: usize,
    /// Fastest sample (ns / iteration).
    pub min_ns: f64,
    /// Median sample (ns / iteration).
    pub median_ns: f64,
    /// 95th-percentile sample (ns / iteration).
    pub p95_ns: f64,
    /// Slowest sample (ns / iteration).
    pub max_ns: f64,
    /// Total wall-clock spent on this benchmark (calibration + warm-up +
    /// sampling), in milliseconds.
    pub wall_clock_ms: f64,
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// A named collection of benchmarks sharing one config and one JSON report.
pub struct Harness {
    name: String,
    cfg: BenchConfig,
    results: Vec<Stats>,
}

impl Harness {
    /// A harness reading its config from the environment. `name` becomes the
    /// JSON file stem. Cargo passes bench binaries `--bench` (and possibly
    /// filter args); they are ignored.
    pub fn new(name: &str) -> Self {
        Harness::with_config(name, BenchConfig::default())
    }

    /// A harness with an explicit config (tests; exotic setups).
    pub fn with_config(name: &str, cfg: BenchConfig) -> Self {
        eprintln!("bench harness `{name}`: {} sample(s)", cfg.samples);
        Harness {
            name: name.to_string(),
            cfg,
            results: Vec::new(),
        }
    }

    /// Time `f`, which is called repeatedly; its return value is passed
    /// through [`black_box`] so the computation is not optimised away.
    pub fn bench<R>(&mut self, id: &str, mut f: impl FnMut() -> R) -> &Stats {
        let bench_start = Instant::now();
        // Calibrate: how many iterations fill one sample target?
        let mut iters: u64 = 1;
        if !self.cfg.sample_target.is_zero() {
            loop {
                let t0 = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                let elapsed = t0.elapsed();
                if elapsed >= self.cfg.sample_target || iters >= 1 << 40 {
                    break;
                }
                // Aim straight at the target with a growth cap to converge fast
                // on both sub-ns and multi-ms workloads.
                let ratio = self.cfg.sample_target.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
                iters = (iters as f64 * ratio.clamp(1.5, 100.0)).ceil() as u64;
            }
        }

        // Warm-up.
        let warm_end = Instant::now() + 3 * self.cfg.sample_target;
        while Instant::now() < warm_end {
            black_box(f());
        }

        // Sample.
        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(self.cfg.samples);
        for _ in 0..self.cfg.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));

        let stats = Stats {
            id: id.to_string(),
            iters_per_sample: iters,
            samples: per_iter_ns.len(),
            min_ns: per_iter_ns[0],
            median_ns: percentile(&per_iter_ns, 0.5),
            p95_ns: percentile(&per_iter_ns, 0.95),
            max_ns: *per_iter_ns.last().unwrap(),
            wall_clock_ms: bench_start.elapsed().as_secs_f64() * 1e3,
        };
        eprintln!(
            "  {:<40} median {:>12}   p95 {:>12}   ({} iters/sample)",
            stats.id,
            fmt_ns(stats.median_ns),
            fmt_ns(stats.p95_ns),
            stats.iters_per_sample
        );
        self.results.push(stats);
        self.results.last().unwrap()
    }

    /// The JSON report: the compute thread count and the process-wide
    /// tensor-pool counters as of this call, the peak RSS, and one row per
    /// benchmark.
    pub fn to_json(&self) -> String {
        let pool = ssdrec_tensor::pool::global_stats();
        let rows: Vec<Obj> = self
            .results
            .iter()
            .map(|s| {
                Obj::new()
                    .field("id", s.id.as_str())
                    .field("iters_per_sample", s.iters_per_sample)
                    .field("samples", s.samples)
                    .field("min_ns", s.min_ns)
                    .field("median_ns", s.median_ns)
                    .field("p95_ns", s.p95_ns)
                    .field("max_ns", s.max_ns)
                    .field("wall_clock_ms", s.wall_clock_ms)
            })
            .collect();
        Obj::new()
            .field("harness", self.name.as_str())
            .field("threads", ssdrec_runtime::threads())
            .field("pool_hits", pool.hits)
            .field("pool_misses", pool.misses)
            .field("bytes_recycled", pool.bytes_recycled)
            .field("peak_rss_bytes", peak_rss_bytes())
            .field("benchmarks", rows)
            .finish()
    }

    /// Write `target/ssdrec-bench/<name>.json` under the workspace root.
    pub fn finish(&mut self) {
        let path = save_json(&self.name, &(self.to_json() + "\n"));
        eprintln!("bench harness `{}`: wrote {}", self.name, path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdrec_serve::json::{parse, Json};

    fn fast_cfg() -> BenchConfig {
        BenchConfig {
            samples: 5,
            sample_target: Duration::from_micros(200),
        }
    }

    fn report(h: &Harness) -> Json {
        parse(&h.to_json()).expect("harness report parses")
    }

    #[test]
    fn collects_ordered_stats() {
        let mut h = Harness::with_config("unit", fast_cfg());
        let s = h.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(s.min_ns > 0.0);
        assert!(s.min_ns <= s.median_ns);
        assert!(s.median_ns <= s.p95_ns);
        assert!(s.p95_ns <= s.max_ns);
        assert!(s.wall_clock_ms > 0.0);
        assert_eq!(s.samples, 5);
        assert!(s.iters_per_sample >= 1);
    }

    #[test]
    fn json_contains_all_benchmarks_in_order() {
        let mut h = Harness::with_config("unit_json", fast_cfg());
        h.bench("a", || 1 + 1);
        h.bench("b", || 2 + 2);
        let text = h.to_json();
        assert!(text.starts_with(r#"{"harness":"unit_json","threads":"#));
        let j = report(&h);
        let ids: Vec<&str> = j
            .get("benchmarks")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|b| b.get("id").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(ids, ["a", "b"]);
        let row = &j.get("benchmarks").unwrap().as_arr().unwrap()[0];
        for field in ["median_ns", "p95_ns", "wall_clock_ms"] {
            assert!(row.get(field).and_then(Json::as_f64).is_some(), "{field}");
        }
        assert!(j.get("peak_rss_bytes").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn threads_field_follows_the_runtime() {
        let h = Harness::with_config("unit_threads", fast_cfg());
        let threads = report(&h).get("threads").and_then(Json::as_usize);
        assert_eq!(threads, Some(ssdrec_runtime::threads()));
    }

    #[test]
    fn pool_allocating_bench_reports_nonzero_pool_counts() {
        ssdrec_tensor::pool::set_enabled(true);
        let mut h = Harness::with_config("unit_pool", fast_cfg());
        h.bench("take_recycle", || {
            let buf = ssdrec_tensor::pool::take(1024);
            ssdrec_tensor::pool::recycle(buf);
        });
        let j = report(&h);
        for field in ["pool_hits", "pool_misses", "bytes_recycled"] {
            let v = j.get(field).and_then(Json::as_f64).unwrap();
            assert!(v > 0.0, "{field} = {v}");
        }
    }

    #[test]
    fn fast_mode_runs_single_iteration() {
        let cfg = BenchConfig {
            samples: 1,
            sample_target: Duration::ZERO,
        };
        let mut calls = 0u32;
        let mut h = Harness::with_config("unit_fast", cfg);
        h.bench("once", || calls += 1);
        // 1 calibration-free sample of 1 iteration (black_box keeps the call).
        assert!((1..=2).contains(&calls), "calls = {calls}");
    }
}
