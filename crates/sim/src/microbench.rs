//! `vlpp microbench` — predictions-per-second microbenchmarks of the
//! path predictor's hot loop.
//!
//! Three benches run, each printed as one `BENCH {json}` line (the same
//! stream `scripts/bench_record.sh` collects and `vlpp-metrics-check
//! --bench` gates against `BENCH_baseline.json`):
//!
//! * `kernel/cond_soa` — the conditional path predictor through the
//!   fused [`CondKernel`](vlpp_core::CondKernel) loop;
//! * `kernel/ind_soa` — the indirect analogue through
//!   [`IndKernel`](vlpp_core::IndKernel);
//! * `serve/codec` — the serve path's JSON codec: `parse_request` of an
//!   8-record `predict` frame (gcc records, as `vlpp loadgen` sends
//!   them) plus the encode of its response.
//!
//! Each line carries one field the plain harness lines don't:
//! `records_per_sec`, derived from the median iteration — the
//! floor-gated throughput contract.

use vlpp_check::{measure, BenchConfig, BenchReport};
use vlpp_core::{HashAssignment, PathConfig};
use vlpp_trace::json::{JsonValue, ToJson};
use vlpp_trace::{Addr, BranchRecord, Trace, VlppError};

use crate::cli::Flags;
use crate::experiment::{Scale, Workloads};
use crate::runner::{run_path_conditional, run_path_indirect};
use crate::serve::protocol;
use crate::serve::Prediction;

/// `vlpp microbench --help`.
pub const USAGE: &str = "\
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

/// Records per `serve/codec` frame: `serve-tcp-small`'s batch size.
const CODEC_BATCH: usize = 8;

/// Distinct frames the `serve/codec` bench cycles through.
const CODEC_FRAMES: usize = 256;

/// `serve/codec`'s inputs: [`CODEC_FRAMES`] `predict` payloads of
/// [`CODEC_BATCH`] consecutive gcc test-trace records each, and for each
/// one a prediction slot per record (a correct prediction for the
/// kinds a model predicts, `None` for the rest).
fn codec_frames() -> Vec<(Vec<u8>, Vec<Option<Prediction>>)> {
    let workloads = Workloads::new(Scale::new(1_000_000));
    let gcc = vlpp_synth::suite::benchmark("gcc").expect("gcc is in the suite");
    let trace = workloads.test_trace(&gcc);
    let records: Vec<BranchRecord> = trace.iter().copied().collect();
    records
        .chunks_exact(CODEC_BATCH)
        .take(CODEC_FRAMES)
        .map(|batch| {
            let request = JsonValue::Object(vec![
                ("verb".to_string(), "predict".to_json()),
                ("model".to_string(), "gcc-cond".to_json()),
                (
                    "records".to_string(),
                    JsonValue::Array(batch.iter().map(protocol::record_to_json).collect()),
                ),
            ]);
            let slots = batch
                .iter()
                .map(|record| {
                    if record.is_conditional() {
                        Some(Prediction::Taken { taken: record.taken(), correct: true })
                    } else if record.is_indirect() {
                        Some(Prediction::Target { target: record.target(), correct: true })
                    } else {
                        None
                    }
                })
                .collect();
            (request.to_string().into_bytes(), slots)
        })
        .collect()
}

/// One `serve/codec` iteration: decode and answer `records` records'
/// worth of frames, cycling through `frames`.
fn codec_pass(frames: &[(Vec<u8>, Vec<Option<Prediction>>)], records: usize) -> usize {
    let mut bytes = 0;
    for (payload, slots) in frames.iter().cycle().take(records.div_ceil(CODEC_BATCH)) {
        let request = protocol::parse_request(payload).expect("codec frames are valid requests");
        bytes += protocol::predict_response(request.id, slots).len();
    }
    bytes
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

/// Parses `vlpp microbench` arguments: the records per iteration.
pub(crate) fn parse_microbench_args(args: &[String]) -> Result<usize, VlppError> {
    let mut flags = Flags::new(args);
    let mut records = 200_000;
    while let Some(flag) = flags.next_flag()? {
        match flag {
            "--records" => records = flags.num(1..)?,
            _ => return Err(flags.unknown()),
        }
    }
    Ok(records)
}

/// Entry point for `vlpp microbench`.
///
/// # Errors
///
/// [`VlppError::Cli`] or [`VlppError::Config`] for a bad flag.
pub fn microbench_main(args: &[String]) -> Result<(), VlppError> {
    run(parse_microbench_args(args)?);
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

    let frames = codec_frames();
    let codec = measure("serve/codec", config, || codec_pass(&frames, records));
    print_with_throughput(&codec, records.div_ceil(CODEC_BATCH) * CODEC_BATCH);
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
    fn codec_frames_are_full_predict_batches() {
        let frames = codec_frames();
        assert_eq!(frames.len(), CODEC_FRAMES);
        for (payload, slots) in &frames {
            assert_eq!(slots.len(), CODEC_BATCH);
            let request = protocol::parse_request(payload).unwrap();
            assert!(matches!(
                request.verb,
                protocol::Verb::Predict { records, .. } if records.len() == CODEC_BATCH
            ));
        }
        assert!(codec_pass(&frames, 20) > 0);
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
