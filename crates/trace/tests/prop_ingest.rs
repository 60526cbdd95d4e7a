//! Fault-injection property tests for the ingestion adapters: every
//! mutated ChampSim/CSV/JSONL (and chunked compact) input must come
//! back as a typed, offset-carrying `Err` or a clean `Ok` — never a
//! panic, and never an error whose offset points past the input.

use vlpp_check::fault::FaultPlan;
use vlpp_check::{check, prop_assert, CheckConfig, Gen};
use vlpp_trace::compact;
use vlpp_trace::ingest::{parse_trace, write_champsim, write_csv, write_jsonl, TraceFormat};
use vlpp_trace::source::MemorySource;
use vlpp_trace::{Addr, BranchKind, BranchRecord, Trace, TraceIoError};

fn arb_record(g: &mut Gen) -> BranchRecord {
    let kind = *g.choose(&[
        BranchKind::Conditional,
        BranchKind::Indirect,
        BranchKind::Unconditional,
        BranchKind::Call,
        BranchKind::Return,
    ]);
    let taken = if kind == BranchKind::Conditional { g.bool() } else { true };
    BranchRecord::new(Addr::new(g.u64()), Addr::new(g.u64()), kind, taken)
}

fn arb_trace(g: &mut Gen, min_len: usize, max_len: usize) -> Trace {
    Trace::from(g.vec(min_len, max_len, arb_record))
}

/// Serializes `trace` in `format`, for mutation. VLPC draws its chunk
/// cap from `g`, so small caps (many chunks, one record each) and caps
/// above the trace length (one partial chunk) are both exercised.
fn encode(g: &mut Gen, trace: &Trace, format: TraceFormat) -> Vec<u8> {
    let mut buf = Vec::new();
    match format {
        TraceFormat::ChampSim => write_champsim(trace.iter(), &mut buf).unwrap(),
        TraceFormat::Csv => write_csv(trace.iter(), &mut buf).unwrap(),
        TraceFormat::Jsonl => write_jsonl(trace.iter(), &mut buf).unwrap(),
        TraceFormat::Compact => {
            let chunk_cap = g.range_u32(1, 64);
            compact::copy_to_chunked(&mut MemorySource::new(trace.clone()), &mut buf, chunk_cap)
                .unwrap();
        }
    }
    buf
}

/// An error surfaced from parsing `len` input bytes must carry an
/// offset that points into (or just past) those bytes — that is what
/// makes it actionable for whoever produced the file.
fn offset_in_bounds(error: &TraceIoError, len: usize) -> Result<(), String> {
    let offset = match error {
        TraceIoError::Truncated { byte_offset, .. } => Some(*byte_offset),
        TraceIoError::Malformed { byte_offset, .. } => Some(*byte_offset),
        _ => None,
    };
    match offset {
        Some(offset) if offset > len as u64 => {
            Err(format!("offset {offset} beyond the {len}-byte input: {error}"))
        }
        _ => Ok(()),
    }
}

/// The whole ingestion contract under damage, for every format: `Ok`
/// or a typed `Err` with an in-bounds offset. The property harness
/// turns any panic into a failure that prints the reproducing seed.
#[test]
fn mutated_inputs_never_panic_and_errors_carry_offsets() {
    for format in TraceFormat::ALL {
        check(&format!("mutated_{format}_inputs_never_panic"), CheckConfig::default(), |g| {
            let trace = arb_trace(g, 0, 40);
            let encoded = encode(g, &trace, format);
            let mut plan = FaultPlan::new(g.u64());
            for fault in plan.data_faults(encoded.len().max(1), 9) {
                let damaged = fault.apply(&encoded);
                if let Err(error) = parse_trace(format, &damaged) {
                    if let Err(why) = offset_in_bounds(&error, damaged.len()) {
                        prop_assert!(false, "{format}: {why}");
                    }
                }
            }
            Ok(())
        });
    }
}

#[test]
fn arbitrary_bytes_never_panic_any_parser() {
    for format in TraceFormat::ALL {
        check(&format!("arbitrary_bytes_never_panic_{format}"), CheckConfig::default(), |g| {
            let bytes = g.vec(0, 96, |g| g.u64() as u8);
            if let Err(error) = parse_trace(format, &bytes) {
                if let Err(why) = offset_in_bounds(&error, bytes.len()) {
                    prop_assert!(false, "{format}: {why}");
                }
            }
            Ok(())
        });
    }
}

/// Every format round-trips arbitrary traces exactly; this is the
/// `Ok` half the fault properties leave open.
#[test]
fn every_format_round_trips_arbitrary_traces() {
    for format in TraceFormat::ALL {
        check(&format!("{format}_round_trips"), CheckConfig::default(), |g| {
            let trace = arb_trace(g, 0, 60);
            let encoded = encode(g, &trace, format);
            let decoded = parse_trace(format, &encoded)
                .map_err(|e| vlpp_check::Failed::new(format!("{format}: {e}")))?;
            prop_assert!(decoded == trace, "{format}: round trip diverged");
            Ok(())
        });
    }
}

/// Cutting a ChampSim capture mid-record is the one corruption a
/// fixed-width format can pinpoint exactly: the error must be
/// `Truncated` at the boundary of the last complete record.
#[test]
fn champsim_truncation_reports_the_record_boundary() {
    check("champsim_truncation_reports_the_record_boundary", CheckConfig::default(), |g| {
        let trace = arb_trace(g, 1, 40);
        let encoded = encode(g, &trace, TraceFormat::ChampSim);
        let cut = g.range_usize(0, encoded.len() - 1);
        if cut % 18 == 0 {
            return Ok(()); // a clean record boundary parses fine
        }
        match parse_trace(TraceFormat::ChampSim, &encoded[..cut]) {
            Err(TraceIoError::Truncated { records_read, byte_offset }) => {
                prop_assert!(
                    byte_offset == (cut as u64 / 18) * 18,
                    "cut at {cut}, error at {byte_offset}"
                );
                prop_assert!(
                    records_read <= cut as u64 / 18,
                    "records_read beyond the bytes supplied"
                );
                Ok(())
            }
            other => Err(vlpp_check::Failed::new(format!(
                "cut at {cut}: expected Truncated, got {other:?}"
            ))),
        }
    });
}
