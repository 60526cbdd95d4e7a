//! `vlpp microbench` — predictions-per-second microbenchmarks of the
//! path predictor's hot loop.
//!
//! Two benches run, each printed as one `BENCH {json}` line (the same
//! stream `scripts/bench_record.sh` collects and `vlpp-metrics-check
//! --bench` gates against `BENCH_baseline.json`):
//!
//! * `kernel/cond_soa` — the conditional path predictor through the
//!   fused [`CondKernel`](vlpp_core::CondKernel) loop;
//! * `kernel/ind_soa` — the indirect analogue through
//!   [`IndKernel`](vlpp_core::IndKernel).
//!
//! Each line carries one field the plain harness lines don't:
//! `records_per_sec`, derived from the median iteration — the
//! floor-gated throughput contract.

use vlpp_check::{measure, BenchConfig, BenchReport};
use vlpp_core::{HashAssignment, PathConfig};
use vlpp_trace::json::{JsonValue, ToJson};
use vlpp_trace::{Addr, BranchRecord, Trace, VlppError};

use crate::runner::{run_path_conditional, run_path_indirect};

const USAGE: &str = "\
usage: vlpp microbench [--records N]

options:
  --records N  dynamic branches per benchmark iteration (default 200000)

environment:
  VLPP_BENCH_WARMUP / VLPP_BENCH_ITERS  harness iteration counts
";

/// Number of distinct static conditional branches in the synthetic
/// workload — enough to exercise the kernel's pc cache realistically.
const STATIC_BRANCHES: u64 = 500;

/// Index widths: the paper's 16 KB conditional / 2 KB indirect budgets.
const COND_INDEX_BITS: u32 = 14;
const IND_INDEX_BITS: u32 = 9;

/// A deterministic kind-pure trace: every record a conditional (or
/// indirect) over [`STATIC_BRANCHES`] pcs with pseudo-random outcomes
/// and targets. Kind-pure on purpose — mixing kinds would measure the
/// data-dependent `is_conditional` branch misprediction in *both*
/// loop, not the per-prediction cost this bench gates (the mixed-kind
/// protocol is covered by the differential suite instead).
fn synthetic_trace(records: usize, indirect: bool, seed: u64) -> Trace {
    let mut x = seed | 1;
    let mut trace = Trace::new();
    for _ in 0..records {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let pc = Addr::new(0x1_0000 | ((x >> 40) % STATIC_BRANCHES) << 2);
        let target = Addr::new(0x8_0000 | ((x >> 20) & 0x3ff) << 2);
        let record = if indirect {
            BranchRecord::indirect(pc, target)
        } else {
            BranchRecord::conditional(pc, target, (x >> 5) & 1 == 1)
        };
        trace.push(record);
    }
    trace
}

/// The variable-length assignment the benches run: a fixed default plus
/// an explicit spread of every hash length 1..=32 over the static
/// branches, matching the shape a profiled assignment produces.
fn spread_assignment() -> HashAssignment {
    let mut assignment = HashAssignment::fixed(12);
    for i in 0..STATIC_BRANCHES {
        assignment.assign(Addr::new(0x1_0000 | i << 2), (i % 32 + 1) as u8);
    }
    assignment
}

/// Prints `report`'s `BENCH` line with `records_per_sec` appended.
fn print_with_throughput(report: &BenchReport, records: usize) {
    let mut json = report.to_json();
    if let JsonValue::Object(fields) = &mut json {
        let per_sec = if report.median_ns == 0 {
            0
        } else {
            (records as f64 * 1e9 / report.median_ns as f64) as u64
        };
        fields.push(("records_per_sec".to_string(), JsonValue::UInt(per_sec)));
    }
    println!("BENCH {}", json.to_json_string());
}

/// Entry point for `vlpp microbench`.
///
/// # Errors
///
/// [`VlppError::Protocol`] on a malformed flag.
pub fn microbench_main(args: &[String]) -> Result<(), VlppError> {
    let mut records = 200_000usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--records" => {
                records = iter.next().and_then(|v| v.parse().ok()).filter(|&n| n >= 1).ok_or_else(
                    || {
                        VlppError::protocol(
                            Some("microbench".to_string()),
                            "--records needs a positive integer",
                        )
                    },
                )?;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(());
            }
            other => {
                return Err(VlppError::protocol(
                    Some("microbench".to_string()),
                    format!("unexpected argument `{other}`\n{USAGE}"),
                ));
            }
        }
    }
    run(records);
    Ok(())
}

/// Runs both benches and prints their `BENCH` lines.
pub fn run(records: usize) {
    let config = BenchConfig::from_env();
    let assignment = spread_assignment();

    let cond_trace = synthetic_trace(records, false, 7);
    let cond_config = PathConfig::new(COND_INDEX_BITS);
    let cond = measure("kernel/cond_soa", config, || {
        run_path_conditional(&cond_config, &assignment, &cond_trace)
    });
    print_with_throughput(&cond, records);

    let ind_trace = synthetic_trace(records, true, 21);
    let ind_config = PathConfig::new(IND_INDEX_BITS);
    let ind = measure("kernel/ind_soa", config, || {
        run_path_indirect(&ind_config, &assignment, &ind_trace)
    });
    print_with_throughput(&ind, records);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn augmented_line_carries_throughput_fields() {
        let report = BenchReport {
            name: "kernel/cond_soa".to_string(),
            iters: 3,
            median_ns: 2_000_000,
            mad_ns: 0,
            min_ns: 1_900_000,
            max_ns: 2_100_000,
        };
        let mut json = report.to_json();
        if let JsonValue::Object(fields) = &mut json {
            fields.push(("records_per_sec".to_string(), JsonValue::UInt(100_000_000)));
        }
        let text = json.to_json_string();
        assert!(text.contains("\"records_per_sec\":100000000"), "{text}");
    }

    #[test]
    fn synthetic_trace_is_deterministic_and_kind_pure() {
        let a = synthetic_trace(2000, false, 7);
        let b = synthetic_trace(2000, false, 7);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y));
        assert!(a.iter().all(|r| r.is_conditional()));
        let taken = a.iter().filter(|r| r.taken()).count();
        assert!(taken > 500 && taken < 1500, "outcomes vary, got {taken} taken");
        assert!(synthetic_trace(100, true, 3).iter().all(|r| r.is_indirect()));
    }
}
