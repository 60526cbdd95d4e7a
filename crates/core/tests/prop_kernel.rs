//! The differential test layer pinning the structure-of-arrays
//! kernels bit-for-bit to the boxed reference predictors (the
//! test-only oracle in `reference/`), plus the §4.1 properties of the
//! rolling hashers the kernels' O(1) lookup rests on.
//!
//! Seeded configurations × synthetic traces drive [`CondKernel`] /
//! [`IndKernel`] and [`PathConditional`] / [`PathIndirect`] side by
//! side and assert that per-record predictions, final counter/target
//! state, and final statistics are exactly equal — not approximately,
//! not statistically: any single differing bit fails the property.
//! The kernels' `run` overrides, the loops every offline driver uses,
//! are pinned to the per-record `apply` step the same way.

mod reference;

use std::collections::HashMap;
use std::ops::Range;

use reference::hash::hash_path;
use reference::path::{PathConditional, PathIndirect};
use reference::thb::Thb;
use vlpp_check::{check, prop_assert, prop_assert_eq, CheckConfig};
use vlpp_core::{
    CondKernel, HashAssignment, IndKernel, PathConfig, RollingHashers, MAX_PATH_LENGTH,
};
use vlpp_predict::{BranchObserver, ConditionalPredictor, IndirectPredictor, RunStats};
use vlpp_trace::{Addr, BranchRecord, Trace};

/// A random predictor configuration: index width, THB capacity, the
/// §3.2 returns policy, and (sometimes) a §6 history stack.
fn random_config(g: &mut vlpp_check::Gen) -> PathConfig {
    let mut config = PathConfig::new(g.range_u32(2, 12));
    config.thb_capacity = g.range_usize(1, MAX_PATH_LENGTH);
    config.store_returns = g.below(2) == 0;
    if g.below(2) == 0 {
        config.history_stack_depth = Some(g.range_usize(1, 8));
    }
    config
}

/// A pc from the small universe every generator here draws branches
/// from: half are consecutive words, half sit where the synthetic
/// generator puts branches — the last word of a 64-byte block (word
/// address ≡ 15 mod 16) in one of four function windows 16 KiB apart,
/// so the four windows' pcs of one block slot alias under a
/// direct-mapped pc cache indexed by `word & 4095`.
fn branch_pc(g: &mut vlpp_check::Gen) -> u64 {
    let i = g.below(64);
    if i < 32 {
        0x1000 | i << 2
    } else {
        let slot = i - 32;
        0x10_0000 + (slot % 4) * 0x4000 + (slot / 4) * 64 + 60
    }
}

/// A random hash assignment over the small pc universe
/// [`random_trace`] draws branches from. Hash numbers deliberately
/// range over all of `1..=32` so some exceed the THB capacity and
/// exercise the clamp.
fn random_assignment(g: &mut vlpp_check::Gen) -> HashAssignment {
    let mut assignment = HashAssignment::fixed(g.range_u8(1, 32));
    for _ in 0..g.range_usize(0, 12) {
        assignment.assign(Addr::new(branch_pc(g)), g.range_u8(1, 32));
    }
    assignment
}

/// A deterministic mixed trace over a small pc universe: conditionals,
/// indirects, unconditionals, and call/return pairs (so the history
/// stack sees pops of pushed frames *and* pops of an empty stack).
/// Addresses independently land above 2^32 about a quarter of the
/// time, with pc and target drawing *different* high halves — the
/// aliasing surface of the (since removed) footnote-1 low-32 target
/// splice on 64-bit address spaces.
fn random_trace(g: &mut vlpp_check::Gen, n: usize) -> Trace {
    let mut trace = Trace::new();
    for _ in 0..n {
        let pc_high = if g.below(4) == 0 { (1 + g.below(3)) << 32 } else { 0 };
        let target_high = if g.below(4) == 0 { (1 + g.below(3)) << 33 } else { 0 };
        let pc = Addr::new(pc_high | branch_pc(g));
        let target = Addr::new(target_high | 0x2000 | (g.below(256) << 2));
        match g.below(8) {
            0 => trace.push(BranchRecord::indirect(pc, target)),
            1 => trace.push(BranchRecord::call(pc, target)),
            2 => trace.push(BranchRecord::ret(pc, target)),
            3 => trace.push(BranchRecord::unconditional(pc, target)),
            _ => trace.push(BranchRecord::conditional(pc, target, g.below(2) == 0)),
        }
    }
    trace
}

/// The SoA conditional kernel is bit-identical to the boxed reference:
/// every per-record prediction and correctness verdict, the final
/// packed counter plane vs the reference table, and the final totals
/// and per-branch statistics.
#[test]
fn cond_kernel_is_bit_identical_to_boxed_reference() {
    check("cond_kernel_is_bit_identical_to_boxed_reference", CheckConfig::default(), |g| {
        let config = random_config(g);
        let assignment = random_assignment(g);
        let trace = random_trace(g, 600);

        let mut kernel = CondKernel::new(&config, &assignment);
        let mut reference = PathConditional::new(config, assignment);
        let mut predictions = 0u64;
        let mut mispredictions = 0u64;
        let mut per_branch: HashMap<u64, (u64, u64)> = HashMap::new();
        for (i, record) in trace.iter().enumerate() {
            let got = kernel.apply(record);
            if record.is_conditional() {
                let expected = reference.predict(record.pc());
                reference.train(record.pc(), record.taken());
                let correct = expected == record.taken();
                prop_assert_eq!(got, Some((expected, correct)), "record {}", i);
                predictions += 1;
                let row = per_branch.entry(record.pc().raw()).or_insert((0, 0));
                row.0 += 1;
                if !correct {
                    mispredictions += 1;
                    row.1 += 1;
                }
            } else {
                prop_assert_eq!(got, None, "record {}", i);
            }
            reference.observe(record);
        }
        prop_assert_eq!(kernel.counter_values(), reference.counter_values(), "counter state");
        prop_assert_eq!(kernel.predictions(), predictions);
        prop_assert_eq!(kernel.mispredictions(), mispredictions);
        prop_assert_eq!(kernel.static_branches(), per_branch.len());
        let rows: HashMap<u64, (u64, u64)> =
            kernel.branch_stats().map(|(pc, p, m)| (pc, (p, m))).collect();
        prop_assert_eq!(rows, per_branch, "per-branch stats");
        Ok(())
    });
}

/// The SoA indirect kernel is bit-identical to the boxed reference:
/// every per-record target prediction, the final packed target plane vs
/// the reference table, and the final statistics.
#[test]
fn ind_kernel_is_bit_identical_to_boxed_reference() {
    check("ind_kernel_is_bit_identical_to_boxed_reference", CheckConfig::default(), |g| {
        let config = random_config(g);
        let assignment = random_assignment(g);
        let trace = random_trace(g, 600);

        let mut kernel = IndKernel::new(&config, &assignment);
        let mut reference = PathIndirect::new(config, assignment);
        let mut predictions = 0u64;
        let mut mispredictions = 0u64;
        let mut per_branch: HashMap<u64, (u64, u64)> = HashMap::new();
        for (i, record) in trace.iter().enumerate() {
            let got = kernel.apply(record);
            if record.is_indirect() {
                let expected = reference.predict(record.pc());
                reference.train(record.pc(), record.target());
                let correct = expected == record.target();
                prop_assert_eq!(got, Some((expected, correct)), "record {}", i);
                predictions += 1;
                let row = per_branch.entry(record.pc().raw()).or_insert((0, 0));
                row.0 += 1;
                if !correct {
                    mispredictions += 1;
                    row.1 += 1;
                }
            } else {
                prop_assert_eq!(got, None, "record {}", i);
            }
            reference.observe(record);
        }
        prop_assert_eq!(kernel.target_entries(), reference.target_entries(), "target state");
        prop_assert_eq!(kernel.predictions(), predictions);
        prop_assert_eq!(kernel.mispredictions(), mispredictions);
        let rows: HashMap<u64, (u64, u64)> =
            kernel.branch_stats().map(|(pc, p, m)| (pc, (p, m))).collect();
        prop_assert_eq!(rows, per_branch, "per-branch stats");
        Ok(())
    });
}

/// The trait-protocol path (predict → train → observe as three calls)
/// and the fused `apply` evolve the kernel identically — the serve
/// executor and any trait-generic caller see the same state machine.
#[test]
fn kernel_trait_protocol_matches_fused_apply() {
    check("kernel_trait_protocol_matches_fused_apply", CheckConfig::default(), |g| {
        let config = random_config(g);
        let assignment = random_assignment(g);
        let trace = random_trace(g, 400);
        let mut fused = CondKernel::new(&config, &assignment);
        let mut stepwise = CondKernel::new(&config, &assignment);
        for record in trace.iter() {
            let via_apply = fused.apply(record);
            if record.is_conditional() {
                let predicted = stepwise.predict(record.pc());
                stepwise.train(record.pc(), record.taken());
                prop_assert_eq!(via_apply.map(|(p, _)| p), Some(predicted));
            }
            stepwise.observe(record);
        }
        prop_assert_eq!(fused.counter_values(), stepwise.counter_values());
        Ok(())
    });
}

/// A random cut of `0..n` into consecutive chunks, empty and one-record
/// chunks included.
fn random_cuts(g: &mut vlpp_check::Gen, n: usize) -> Vec<Range<usize>> {
    let mut cuts: Vec<Range<usize>> = Vec::new();
    let mut start = 0;
    while start < n || cuts.is_empty() {
        // An empty chunk is followed by a non-empty one, so a shrunk case
        // (every draw 0) still reaches the end of the stream.
        let floor = usize::from(cuts.last().is_some_and(Range::is_empty));
        let len = match g.below(4) {
            0 => 0,
            1 => 1,
            _ => g.range_usize(2, 200),
        };
        let end = (start + len.max(floor)).min(n);
        cuts.push(start..end);
        start = end;
    }
    cuts
}

/// The kernels' `run` overrides keep the protocol: a stream cut into
/// random chunks and run chunk by chunk sums to the totals a per-record
/// `apply` loop over a second kernel scores, and both kernels end with
/// the same table and the same per-branch statistics. Both kinds.
#[test]
fn chunked_run_matches_per_record_apply() {
    check("chunked_run_matches_per_record_apply", CheckConfig::default(), |g| {
        let config = random_config(g);
        let assignment = random_assignment(g);
        let n = g.range_usize(0, 600);
        let trace = random_trace(g, n);
        let records = trace.records();
        let cuts = random_cuts(g, records.len());

        let mut cond_run = CondKernel::new(&config, &assignment);
        let mut ind_run = IndKernel::new(&config, &assignment);
        let (mut cond_got, mut ind_got) = (RunStats::default(), RunStats::default());
        for cut in cuts {
            cond_got += cond_run.run(&records[cut.clone()]);
            ind_got += ind_run.run(&records[cut]);
        }

        let mut cond_apply = CondKernel::new(&config, &assignment);
        let mut ind_apply = IndKernel::new(&config, &assignment);
        let (mut cond_want, mut ind_want) = (RunStats::default(), RunStats::default());
        for record in records {
            if let Some((_, correct)) = cond_apply.apply(record) {
                cond_want.record(correct);
            }
            if let Some((_, correct)) = ind_apply.apply(record) {
                ind_want.record(correct);
            }
        }

        prop_assert_eq!(cond_got, cond_want, "conditional totals");
        prop_assert_eq!(cond_run.counter_values(), cond_apply.counter_values(), "counter state");
        prop_assert_eq!(
            cond_run.branch_stats().collect::<Vec<_>>(),
            cond_apply.branch_stats().collect::<Vec<_>>(),
            "conditional per-branch stats"
        );
        prop_assert_eq!(ind_got, ind_want, "indirect totals");
        prop_assert_eq!(ind_run.target_entries(), ind_apply.target_entries(), "target state");
        prop_assert_eq!(
            ind_run.branch_stats().collect::<Vec<_>>(),
            ind_apply.branch_stats().collect::<Vec<_>>(),
            "indirect per-branch stats"
        );
        Ok(())
    });
}

/// Deeply nested (and unbalanced) call/return streams keep the kernel
/// and reference in lockstep: stack overflow drops the oldest frame,
/// returns with an empty stack are no-ops, and restores roll the
/// registers back identically on both sides.
#[test]
fn kernel_matches_reference_under_deep_call_return_nesting() {
    check("kernel_matches_reference_under_deep_call_return_nesting", CheckConfig::default(), |g| {
        let mut config =
            PathConfig::new(g.range_u32(4, 10)).with_history_stack(g.range_usize(1, 3));
        config.thb_capacity = g.range_usize(1, 16);
        let assignment = random_assignment(g);
        let mut kernel = CondKernel::new(&config, &assignment);
        let mut reference = PathConditional::new(config, assignment);
        // Heavily call/return-biased stream: nesting routinely exceeds
        // the stack depth, and returns often outnumber calls.
        for i in 0..500 {
            let pc = Addr::new(branch_pc(g));
            let target = Addr::new(0x2000 | (g.below(256) << 2));
            let record = match g.below(4) {
                0 => BranchRecord::call(pc, target),
                1 | 2 => BranchRecord::ret(pc, target),
                _ => BranchRecord::conditional(pc, target, g.below(2) == 0),
            };
            let got = kernel.apply(&record);
            if record.is_conditional() {
                let expected = reference.predict(record.pc());
                reference.train(record.pc(), record.taken());
                prop_assert_eq!(got.map(|(p, _)| p), Some(expected), "record {}", i);
            }
            reference.observe(&record);
        }
        prop_assert_eq!(kernel.counter_values(), reference.counter_values());
        Ok(())
    });
}

/// Every value of `HF_1 … HF_count` the hashers produce right now.
fn all_indices(hashers: &RollingHashers) -> Vec<u64> {
    (1..=hashers.count()).map(|x| hashers.index(x)).collect()
}

/// §4.1 soundness, step by step: after every push, the rolling hashers'
/// `I_X` equals a from-scratch §3.3 re-hash of the THB's current path —
/// including at and past the history-length boundary, where the sliding
/// window starts dropping old targets, and at the full 64-bit width.
#[test]
fn partial_sums_equal_rehash_after_every_step() {
    check("partial_sums_equal_rehash_after_every_step", CheckConfig::default(), |g| {
        let k = g.range_u32(1, 64);
        let capacity = g.range_usize(1, MAX_PATH_LENGTH);
        // Push well past the capacity so every hash crosses its
        // history-length boundary (the wrap from a partially-filled to
        // a saturated window).
        let targets = g.vec(capacity + 1, capacity * 2 + 40, |g| g.u64());
        let mut thb = Thb::new(capacity, k);
        let mut rolling = RollingHashers::new(capacity, k);
        for (step, &raw) in targets.iter().enumerate() {
            let t = Addr::new(raw);
            thb.push(t);
            rolling.push(t);
            for len in 1..=capacity {
                prop_assert_eq!(
                    rolling.index(len),
                    hash_path(&thb, len),
                    "HF_{} at step {}",
                    len,
                    step
                );
            }
        }
        Ok(())
    });
}

/// §4.1 rollback: restoring a snapshot rewinds every hash to its exact
/// value at the snapshot point, and the hashers then evolve from the
/// restored state exactly as they evolved from the original — the
/// property the §6 history stack (and model snapshots) rely on.
#[test]
fn snapshot_restore_rolls_registers_back_exactly() {
    check("snapshot_restore_rolls_registers_back_exactly", CheckConfig::default(), |g| {
        let k = g.range_u32(1, 64);
        let capacity = g.range_usize(1, MAX_PATH_LENGTH);
        let prefix = g.vec(0, 40, |g| g.u64());
        let detour = g.vec(1, 40, |g| g.u64());
        let suffix = g.vec(0, 40, |g| g.u64());

        let mut rolling = RollingHashers::new(capacity, k);
        for &raw in &prefix {
            rolling.push(Addr::new(raw));
        }
        let snapshot = rolling.snapshot();
        let at_snapshot = all_indices(&rolling);
        for &raw in &detour {
            rolling.push(Addr::new(raw));
        }
        rolling.restore(&snapshot);
        prop_assert_eq!(all_indices(&rolling), at_snapshot, "hashes after rollback");

        // From the restored state, the future must look exactly as it
        // would have had the detour never happened.
        let mut replay = RollingHashers::new(capacity, k);
        for &raw in prefix.iter().chain(&suffix) {
            replay.push(Addr::new(raw));
        }
        for &raw in &suffix {
            rolling.push(Addr::new(raw));
        }
        prop_assert_eq!(all_indices(&rolling), all_indices(&replay), "post-rollback evolution");
        Ok(())
    });
}

/// Truncation is sound: `I_X` depends only on the last `X` targets, so
/// hashers sized for `m` hash functions produce exactly the first `m`
/// hashes of full-capacity hashers through arbitrary pushes — the
/// property that lets the kernel size its ring to the longest hash
/// actually assigned.
#[test]
fn truncated_registers_match_full_capacity_prefix() {
    check("truncated_registers_match_full_capacity_prefix", CheckConfig::default(), |g| {
        let k = g.range_u32(1, 64);
        let m = g.range_usize(1, MAX_PATH_LENGTH);
        let targets = g.vec(0, 100, |g| g.u64());
        let mut truncated = RollingHashers::new(m, k);
        let mut full = RollingHashers::new(MAX_PATH_LENGTH, k);
        for &raw in &targets {
            truncated.push(Addr::new(raw));
            full.push(Addr::new(raw));
            prop_assert_eq!(all_indices(&truncated), &all_indices(&full)[..m]);
        }
        Ok(())
    });
}

/// End-to-end length-boundary check on the kernel itself: a hash number
/// assigned *above* the THB capacity clamps to the capacity on both
/// sides, so predictions stay bit-identical at the boundary.
#[test]
fn kernel_clamps_overlong_hashes_like_reference() {
    check("kernel_clamps_overlong_hashes_like_reference", CheckConfig::default(), |g| {
        let mut config = PathConfig::new(g.range_u32(2, 10));
        config.thb_capacity = g.range_usize(1, 8);
        // Every hash number in the assignment exceeds the capacity.
        let mut assignment = HashAssignment::fixed(g.range_u8(9, 32));
        for _ in 0..g.range_usize(0, 6) {
            assignment.assign(Addr::new(branch_pc(g)), g.range_u8(9, 32));
        }
        let trace = random_trace(g, 300);
        let mut kernel = CondKernel::new(&config, &assignment);
        let mut reference = PathConditional::new(config, assignment);
        for record in trace.iter() {
            let got = kernel.apply(record);
            if record.is_conditional() {
                let expected = reference.predict(record.pc());
                reference.train(record.pc(), record.taken());
                prop_assert_eq!(got.map(|(p, _)| p), Some(expected));
            }
            reference.observe(record);
        }
        prop_assert_eq!(kernel.counter_values(), reference.counter_values());
        Ok(())
    });
}

/// The packed planes really are the compact layout they claim: byte
/// accounting matches the boxed tables entry for entry.
#[test]
fn kernel_table_bytes_match_reference_accounting() {
    check("kernel_table_bytes_match_reference_accounting", CheckConfig::default(), |g| {
        let config = PathConfig::new(g.range_u32(2, 12));
        let assignment = HashAssignment::fixed(g.range_u8(1, 32));
        let cond = CondKernel::new(&config, &assignment);
        let cond_ref = PathConditional::new(config.clone(), assignment.clone());
        prop_assert_eq!(cond.table_bytes(), cond_ref.table_bytes());
        let ind = IndKernel::new(&config, &assignment);
        let ind_ref = PathIndirect::new(config, assignment);
        prop_assert_eq!(ind.table_bytes(), ind_ref.table_bytes());
        prop_assert!(cond.table_bytes() < ind.table_bytes(), "2-bit counters vs 4-byte targets");
        Ok(())
    });
}
