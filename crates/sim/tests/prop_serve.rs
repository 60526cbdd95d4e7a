//! Property test for the served batch path: `Model::apply_batch` (one
//! index slice and one lock take per busy shard, shards in parallel on
//! the worker pool) evolves every shard exactly as the one-record-at-a-
//! time `Model::apply_sequential` oracle does, byte for byte, on random
//! batches over 1–4 shards.

use vlpp_check::{check, prop_assert_eq, CheckConfig, Gen};
use vlpp_sim::serve::protocol::predictions_to_json;
use vlpp_sim::serve::{Model, ModelSpec};
use vlpp_sim::Kind;
use vlpp_sim::{Scale, Workloads};
use vlpp_trace::{Addr, BranchRecord};

const BENCHMARKS: [&str; 2] = ["compress", "gcc"];

fn spec(g: &mut Gen) -> ModelSpec {
    ModelSpec {
        name: "m".to_string(),
        benchmark: g.choose(&BENCHMARKS).to_string(),
        trace: None,
        kind: if g.bool() { Kind::Conditional } else { Kind::Indirect },
        index_bits: g.range_u32(6, 12),
        shards: g.range_usize(1, 4),
    }
}

/// A record at one of a few pcs (so shards see repeats), of any kind.
fn arb_record(g: &mut Gen) -> BranchRecord {
    let pc = Addr::new(0x4000 + 4 * g.range_u64(0, 15));
    let target = Addr::new(0x8000 + 4 * g.range_u64(0, 7));
    match g.range_u8(0, 3) {
        0 => BranchRecord::conditional(pc, target, g.bool()),
        1 => BranchRecord::indirect(pc, target),
        2 => BranchRecord::call(pc, target),
        _ => BranchRecord::ret(pc, target),
    }
}

/// A window of the benchmark's test trace (so the predictors warm up
/// and hit), with some records swapped for random ones.
fn arb_records(g: &mut Gen, workloads: &Workloads, benchmark: &str) -> Vec<BranchRecord> {
    let trace = workloads.test_trace(&vlpp_synth::suite::benchmark(benchmark).unwrap());
    let len = g.range_usize(0, 600);
    let start = g.range_usize(0, trace.len().saturating_sub(len));
    let mut records: Vec<BranchRecord> = trace.iter().skip(start).take(len).copied().collect();
    for record in records.iter_mut() {
        if g.below(8) == 0 {
            *record = arb_record(g);
        }
    }
    records
}

#[test]
fn apply_batch_matches_apply_sequential_byte_for_byte() {
    let workloads = Workloads::new(Scale::new(1_000_000));
    check("apply_batch_matches_apply_sequential", CheckConfig::default(), |g| {
        let spec = spec(g);
        let records = arb_records(g, &workloads, &spec.benchmark);
        let served = Model::train(spec.clone(), &workloads).unwrap();
        let oracle = Model::train(spec, &workloads).unwrap();
        let mut rest = records.as_slice();
        while !rest.is_empty() {
            let (batch, tail) = rest.split_at(g.range_usize(1, rest.len().min(64)));
            let got = predictions_to_json(&served.apply_batch(batch)).to_string();
            let want = predictions_to_json(&oracle.apply_sequential(batch)).to_string();
            prop_assert_eq!(got, want);
            rest = tail;
        }
        prop_assert_eq!(served.stats_json().to_string(), oracle.stats_json().to_string());
        prop_assert_eq!(served.export_shards(), oracle.export_shards());
        Ok(())
    });
}
