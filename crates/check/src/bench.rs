//! The in-tree timer harness replacing Criterion.
//!
//! A bench is warmup iterations followed by N timed iterations; the
//! report is the per-iteration **median** and **MAD** (median absolute
//! deviation) in nanoseconds — robust statistics that tolerate the odd
//! scheduler hiccup without Criterion's sampling machinery.
//!
//! Every report is printed as one machine-readable JSON line prefixed
//! with `BENCH `, so a bench log can be grepped into a `BENCH_*.json`
//! trajectory file:
//!
//! ```text
//! BENCH {"bench":"micro/gshare_16kb","iters":5,"median_ns":812345,...}
//! ```

use std::hint::black_box;
use std::time::Instant;

use vlpp_trace::json::{JsonValue, ToJson};

/// Iteration counts for one bench.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Untimed warmup iterations (`VLPP_BENCH_WARMUP` overrides).
    pub warmup: u32,
    /// Timed iterations (`VLPP_BENCH_ITERS` overrides; min 1).
    pub iters: u32,
}

impl BenchConfig {
    /// The default: 2 warmup + 7 timed iterations, for cheap benches.
    pub fn from_env() -> Self {
        BenchConfig::default().env_override()
    }

    /// A minimal config (1 warmup + 3 timed) for expensive benches that
    /// regenerate whole experiments per iteration.
    pub fn quick() -> Self {
        BenchConfig { warmup: 1, iters: 3 }.env_override()
    }

    fn env_override(mut self) -> Self {
        if let Some(w) = env_u32("VLPP_BENCH_WARMUP") {
            self.warmup = w;
        }
        if let Some(i) = env_u32("VLPP_BENCH_ITERS") {
            self.iters = i.max(1);
        }
        self
    }
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig { warmup: 2, iters: 7 }
    }
}

fn env_u32(name: &str) -> Option<u32> {
    std::env::var(name).ok()?.parse().ok()
}

/// One bench's timing summary, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Bench name (conventionally `group/case`).
    pub name: String,
    /// Timed iterations measured.
    pub iters: u32,
    /// Median per-iteration wall time.
    pub median_ns: u64,
    /// Median absolute deviation of the per-iteration times.
    pub mad_ns: u64,
    /// Fastest iteration.
    pub min_ns: u64,
    /// Slowest iteration.
    pub max_ns: u64,
}

impl ToJson for BenchReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("bench".to_string(), self.name.to_json()),
            ("iters".to_string(), self.iters.to_json()),
            ("median_ns".to_string(), self.median_ns.to_json()),
            ("mad_ns".to_string(), self.mad_ns.to_json()),
            ("min_ns".to_string(), self.min_ns.to_json()),
            ("max_ns".to_string(), self.max_ns.to_json()),
        ])
    }
}

impl BenchReport {
    /// The `BENCH {json}` line this report prints.
    pub fn to_line(&self) -> String {
        format!("BENCH {}", self.to_json_string())
    }
}

fn median_of_sorted(sorted: &[u64]) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

/// Times `f` and prints the report as one `BENCH {json}` line.
///
/// The closure's return value is passed through [`black_box`] so the
/// work cannot be optimized away.
pub fn bench<T>(name: &str, config: BenchConfig, mut f: impl FnMut() -> T) -> BenchReport {
    bench_with_setup(name, config, || (), move |()| f())
}

/// Like [`bench()`], but runs `setup` (untimed) before every timed
/// iteration — for benches that consume their input.
pub fn bench_with_setup<S, T>(
    name: &str,
    config: BenchConfig,
    setup: impl FnMut() -> S,
    f: impl FnMut(S) -> T,
) -> BenchReport {
    let report = measure_with_setup(name, config, setup, f);
    println!("{}", report.to_line());
    report
}

/// Times `f` exactly like [`bench()`] but prints nothing — for callers
/// that add fields to the `BENCH` line before printing it.
pub fn measure<T>(name: &str, config: BenchConfig, mut f: impl FnMut() -> T) -> BenchReport {
    measure_with_setup(name, config, || (), move |()| f())
}

fn measure_with_setup<S, T>(
    name: &str,
    config: BenchConfig,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> BenchReport {
    for _ in 0..config.warmup {
        black_box(f(setup()));
    }
    let iters = config.iters.max(1);
    let mut samples: Vec<u64> = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let input = setup();
        let start = Instant::now();
        black_box(f(input));
        samples.push(start.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    let median = median_of_sorted(&samples);
    let mut deviations: Vec<u64> = samples.iter().map(|&s| s.abs_diff(median)).collect();
    deviations.sort_unstable();
    BenchReport {
        name: name.to_string(),
        iters,
        median_ns: median,
        mad_ns: median_of_sorted(&deviations),
        min_ns: samples[0],
        max_ns: samples[samples.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_line_is_valid_single_line_json() {
        let report = bench("check/self_test", BenchConfig { warmup: 0, iters: 3 }, || {
            (0..100u64).sum::<u64>()
        });
        let line = report.to_line();
        assert!(line.starts_with("BENCH {"));
        assert!(!line.contains('\n'));
        let value = JsonValue::parse(line.strip_prefix("BENCH ").unwrap()).unwrap();
        assert_eq!(value.get("bench").unwrap().as_str(), Some("check/self_test"));
        assert_eq!(value.get("iters").unwrap().as_u64(), Some(3));
        assert!(value.get("median_ns").unwrap().as_u64().is_some());
        assert!(value.get("mad_ns").unwrap().as_u64().is_some());
    }

    #[test]
    fn stats_are_ordered_sanely() {
        let report = bench("check/ordering", BenchConfig { warmup: 1, iters: 5 }, || {
            std::hint::black_box(vec![0u8; 4096])
        });
        assert!(report.min_ns <= report.median_ns);
        assert!(report.median_ns <= report.max_ns);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median_of_sorted(&[]), 0);
        assert_eq!(median_of_sorted(&[5]), 5);
        assert_eq!(median_of_sorted(&[1, 3]), 2);
        assert_eq!(median_of_sorted(&[1, 2, 9]), 2);
    }

    #[test]
    fn setup_runs_outside_timing() {
        let mut setups = 0;
        let report = bench_with_setup(
            "check/setup",
            BenchConfig { warmup: 1, iters: 2 },
            || {
                setups += 1;
                vec![1u64; 64]
            },
            |v| v.into_iter().sum::<u64>(),
        );
        assert_eq!(setups, 3, "warmup + timed iterations each get a setup");
        assert_eq!(report.iters, 2);
    }
}
