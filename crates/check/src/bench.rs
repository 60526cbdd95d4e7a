//! The in-tree timer harness replacing Criterion.
//!
//! A bench is warmup iterations followed by N timed iterations; the
//! report is the per-iteration **median** and **MAD** (median absolute
//! deviation) in nanoseconds — robust statistics that tolerate the odd
//! scheduler hiccup without Criterion's sampling machinery.
//!
//! Every report renders ([`BenchReport::to_line`]) as one
//! machine-readable JSON line prefixed with `BENCH `, so a bench log can
//! be grepped into a `BENCH_*.json` trajectory file:
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
    /// The default (2 warmup + 7 timed iterations) with the
    /// `VLPP_BENCH_WARMUP` / `VLPP_BENCH_ITERS` overrides applied.
    pub fn from_env() -> Self {
        let mut config = BenchConfig::default();
        if let Some(w) = env_u32("VLPP_BENCH_WARMUP") {
            config.warmup = w;
        }
        if let Some(i) = env_u32("VLPP_BENCH_ITERS") {
            config.iters = i.max(1);
        }
        config
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

/// Times `f`: `config.warmup` untimed calls, then `config.iters` timed
/// ones. Prints nothing, so callers can add fields to the `BENCH` line
/// ([`BenchReport::to_line`]) before printing it.
///
/// The closure's return value is passed through [`black_box`] so the
/// work cannot be optimized away.
pub fn measure<T>(name: &str, config: BenchConfig, mut f: impl FnMut() -> T) -> BenchReport {
    for _ in 0..config.warmup {
        black_box(f());
    }
    let iters = config.iters.max(1);
    let mut samples: Vec<u64> = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let start = Instant::now();
        black_box(f());
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
        let report = measure("check/self_test", BenchConfig { warmup: 0, iters: 3 }, || {
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
        let report = measure("check/ordering", BenchConfig { warmup: 1, iters: 5 }, || {
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
}
