//! Fault-injection property tests: damaged inputs must come back as
//! typed `Err`s — never as panics, and (for truncation) always carrying
//! the byte offset where the data ran out.

use vlpp_check::fault::{DataFault, FaultPlan};
use vlpp_check::{check, prop_assert, prop_assert_eq, CheckConfig, Gen};
use vlpp_trace::compact::{copy_to_chunked, ChunkedReader};
use vlpp_trace::ingest::{parse_trace, write_champsim, TraceFormat};
use vlpp_trace::json::{JsonRef, JsonValue};
use vlpp_trace::source::MemorySource;
use vlpp_trace::{Addr, BranchKind, BranchRecord, Trace, TraceIoError, TraceSource};

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

/// Writes `trace` as a chunked VLPC v3 stream of `chunk_cap`-record
/// chunks.
fn encode(trace: &Trace, chunk_cap: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    copy_to_chunked(&mut MemorySource::new(trace.clone()), &mut buf, chunk_cap)
        .expect("write to Vec cannot fail");
    buf
}

fn decode(bytes: &[u8]) -> Result<Trace, TraceIoError> {
    ChunkedReader::new(bytes)?.read_to_trace()
}

fn arb_json(g: &mut Gen, depth: usize) -> JsonValue {
    let pick = if depth == 0 { g.below(3) } else { g.below(5) };
    match pick {
        0 => JsonValue::Float(g.u64() as f64 / 1024.0),
        1 => JsonValue::Str(format!("s{}", g.below(1000))),
        2 => JsonValue::Bool(g.bool()),
        3 => JsonValue::Array((0..g.below(4)).map(|_| arb_json(g, depth - 1)).collect()),
        _ => JsonValue::Object(
            (0..g.below(4)).map(|i| (format!("k{i}"), arb_json(g, depth - 1))).collect(),
        ),
    }
}

/// The parser's whole contract under damage: `Ok` or `Err`, never a
/// panic. The property harness itself turns any panic into a failure
/// that prints the reproducing seed.
#[test]
fn json_parser_never_panics_on_mutated_input() {
    check("json_parser_never_panics_on_mutated_input", CheckConfig::default(), |g| {
        let rendered = arb_json(g, 3).pretty();
        let mut plan = FaultPlan::new(g.u64());
        for fault in plan.data_faults(rendered.len().max(1), 9) {
            let damaged = fault.apply(rendered.as_bytes());
            // Mutation can break UTF-8; that path must error cleanly too.
            if let Ok(text) = String::from_utf8(damaged) {
                let _ = JsonValue::parse(&text);
                let _ = JsonRef::parse(&text);
            }
        }
        Ok(())
    });
}

/// The owned tree is the borrowed parse made owned: on the same damaged
/// documents both give the same value, or the same error at the same
/// byte offset.
#[test]
fn owned_parse_is_the_borrowed_parse_made_owned() {
    check("owned_parse_is_the_borrowed_parse_made_owned", CheckConfig::default(), |g| {
        let rendered = if g.bool() { arb_json(g, 3).pretty() } else { arb_json(g, 3).to_string() };
        let mut plan = FaultPlan::new(g.u64());
        for fault in plan.data_faults(rendered.len().max(1), 9) {
            let damaged = fault.apply(rendered.as_bytes());
            if let Ok(text) = String::from_utf8(damaged) {
                prop_assert_eq!(
                    JsonValue::parse(&text),
                    JsonRef::parse(&text).map(JsonRef::into_owned)
                );
            }
        }
        Ok(())
    });
}

#[test]
fn json_parser_never_panics_on_arbitrary_bytes() {
    check("json_parser_never_panics_on_arbitrary_bytes", CheckConfig::default(), |g| {
        let bytes = g.vec(0, 64, |g| g.u64() as u8);
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = JsonValue::parse(&text);
            let _ = JsonRef::parse(&text);
        }
        Ok(())
    });
}

/// Every corruption of the 6 magic/version bytes of a VLPC v3 file —
/// each non-zero XOR mask at each offset, so every fault
/// `FaultPlan::header_faults(6, _)` can draw — surfaces as a typed
/// error: a damaged header is never read as a (different) valid trace.
/// Small chunk caps matter: with one record per chunk, a chunk header
/// looks most like a record to a reader that mistakes the layout.
#[test]
fn compact_header_corruption_is_always_a_typed_error() {
    check("compact_header_corruption_is_always_a_typed_error", CheckConfig::default(), |g| {
        let trace = arb_trace(g, 0, 50);
        let buf = encode(&trace, g.range_u32(1, 16));
        for offset in 0..6 {
            for xor in 1..=u8::MAX {
                let fault = DataFault::CorruptByte { offset, xor };
                prop_assert!(
                    decode(&fault.apply(&buf)).is_err(),
                    "header fault {:?} parsed successfully",
                    fault
                );
            }
        }
        Ok(())
    });
}

/// Cutting a VLPC v3 file at *every* offset — inside the header, a
/// chunk header, a payload or the trailer, and exactly at a chunk
/// boundary — is `Truncated` at an offset that never lies past the
/// bytes that survived.
#[test]
fn compact_truncation_errors_carry_the_offset() {
    check("compact_truncation_errors_carry_the_offset", CheckConfig::default(), |g| {
        let trace = arb_trace(g, 1, 24);
        let chunk_cap = g.range_u32(1, 6);
        let buf = encode(&trace, chunk_cap);
        for keep in 0..buf.len() {
            match decode(&DataFault::Truncate { keep }.apply(&buf)) {
                Err(TraceIoError::Truncated { byte_offset, records_read }) => {
                    prop_assert!(
                        byte_offset <= keep as u64,
                        "cut at {keep}: offset {byte_offset} past the surviving bytes"
                    );
                    prop_assert!(records_read <= trace.len() as u64);
                }
                other => {
                    return Err(vlpp_check::Failed::new(format!(
                        "cut at {keep} of {} (cap {chunk_cap}): expected Truncated, got {other:?}",
                        buf.len()
                    )))
                }
            }
        }
        Ok(())
    });
}

/// The full fault matrix (corrupt anywhere, truncate, splice) against
/// both binary formats, VLPC and ChampSim: any outcome is allowed
/// except a panic.
#[test]
fn damaged_traces_never_panic_either_reader() {
    check("damaged_traces_never_panic_either_reader", CheckConfig::default(), |g| {
        let trace = arb_trace(g, 0, 50);
        let compact = encode(&trace, g.range_u32(1, 16));
        let mut champsim = Vec::new();
        write_champsim(trace.iter(), &mut champsim).unwrap();
        let mut plan = FaultPlan::new(g.u64());
        for fault in plan.data_faults(compact.len().max(1), 9) {
            let _ = decode(&fault.apply(&compact));
        }
        for fault in plan.data_faults(champsim.len().max(1), 9) {
            let _ = parse_trace(TraceFormat::ChampSim, &fault.apply(&champsim));
        }
        Ok(())
    });
}
