//! Property tests: trace stats, address invariants and the VLPC round
//! trip. (Round trips through every ingest format live in
//! `prop_ingest.rs`.)

use vlpp_check::{check, prop_assert, prop_assert_eq, CheckConfig, Gen};
use vlpp_trace::compact::{copy_to_chunked, ChunkedReader};
use vlpp_trace::source::MemorySource;
use vlpp_trace::stats::TraceStats;
use vlpp_trace::{Addr, BranchKind, BranchRecord, Trace, TraceSource};

fn arb_kind(g: &mut Gen) -> BranchKind {
    *g.choose(&[
        BranchKind::Conditional,
        BranchKind::Indirect,
        BranchKind::Unconditional,
        BranchKind::Call,
        BranchKind::Return,
    ])
}

fn arb_record(g: &mut Gen) -> BranchRecord {
    let kind = arb_kind(g);
    let pc = g.u64();
    let target = g.u64();
    let taken = if kind == BranchKind::Conditional { g.bool() } else { true };
    BranchRecord::new(Addr::new(pc), Addr::new(target), kind, taken)
}

fn arb_trace(g: &mut Gen, max_len: usize) -> Trace {
    Trace::from(g.vec(0, max_len, arb_record))
}

#[test]
fn compact_round_trips() {
    check("compact_round_trips", CheckConfig::default(), |g| {
        let trace = arb_trace(g, 200);
        let mut buf = Vec::new();
        copy_to_chunked(&mut MemorySource::new(trace.clone()), &mut buf, g.range_u32(1, 64))
            .unwrap();
        prop_assert_eq!(ChunkedReader::new(&buf[..]).unwrap().read_to_trace().unwrap(), trace);
        Ok(())
    });
}

#[test]
fn stats_dynamic_counts_sum_to_total() {
    check("stats_dynamic_counts_sum_to_total", CheckConfig::default(), |g| {
        let trace = arb_trace(g, 300);
        let s = TraceStats::from_trace(&trace);
        let sum: u64 = BranchKind::ALL.iter().map(|&k| s.kind(k).dynamic).sum();
        prop_assert_eq!(sum, s.total_dynamic);
        prop_assert_eq!(s.total_dynamic, trace.len() as u64);
        Ok(())
    });
}

#[test]
fn stats_static_never_exceeds_dynamic() {
    check("stats_static_never_exceeds_dynamic", CheckConfig::default(), |g| {
        let trace = arb_trace(g, 300);
        let s = TraceStats::from_trace(&trace);
        for kind in BranchKind::ALL {
            prop_assert!(s.kind(kind).static_ <= s.kind(kind).dynamic);
        }
        prop_assert!(s.taken_rate >= 0.0 && s.taken_rate <= 1.0);
        Ok(())
    });
}

#[test]
fn truncated_is_prefix() {
    check("truncated_is_prefix", CheckConfig::default(), |g| {
        let trace = arb_trace(g, 100);
        let n = g.range_usize(0, 149);
        let t = trace.truncated(n);
        prop_assert_eq!(t.records(), &trace.records()[..n.min(trace.len())]);
        Ok(())
    });
}

#[test]
fn addr_rotation_is_invertible() {
    check("addr_rotation_is_invertible", CheckConfig::default(), |g| {
        let raw = g.u64();
        let amount = g.range_u32(0, 63);
        let k = g.range_u32(1, 64);
        let a = Addr::new(raw);
        let rotated = a.rotate_left_k(amount, k);
        // Rotating back right by `amount` (i.e. left by k - amount % k) restores.
        let back = vlpp_rotate_right(rotated, amount % k, k);
        prop_assert_eq!(back, a.low_bits(k));
        Ok(())
    });
}

fn vlpp_rotate_right(value: u64, amount: u32, k: u32) -> u64 {
    if amount == 0 {
        return value;
    }
    if k == 64 {
        return value.rotate_right(amount);
    }
    let mask = (1u64 << k) - 1;
    ((value >> amount) | (value << (k - amount))) & mask
}
