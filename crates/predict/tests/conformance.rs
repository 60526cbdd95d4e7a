//! Trait-conformance suite for the predictor zoo.
//!
//! The member list comes from `for_each_zoo_conditional!` /
//! `for_each_zoo_indirect!` — the same macros the runtime registry
//! expands — so a predictor added to the zoo gets this suite
//! automatically, and wiring mistakes are compile errors, not silent
//! coverage gaps. Every member must satisfy:
//!
//! * **replay determinism** — two fresh instances driven over the same
//!   record stream produce byte-identical prediction streams (no hidden
//!   global state, clocks, or randomness);
//! * **rebuild (clone-equivalence) determinism** — rebuilding an
//!   instance mid-stream and replaying the prefix reproduces the
//!   original's suffix exactly;
//! * **predict purity** — `predict` is repeatable and does not perturb
//!   training (the runner may probe without retiring);
//! * **budget accounting sanity** — reported storage is positive and
//!   never exceeds the budget, at every tournament budget;
//! * **one protocol loop** — the trait's provided `run`, called through
//!   `Box<dyn _>` as the tournament calls it, returns the same totals as
//!   the hand-written predict → train → observe loop;
//! * **chunking is invisible** — a stream cut into random chunks (empty
//!   and one-record chunks included), with each chunk's loads handed over
//!   by `feed_loads` before it as the streaming league does, yields the
//!   same `RunStats` and the same prediction stream as one run over the
//!   whole stream with the whole load channel.
//!
//! True `Clone`-determinism (clone mid-stream, run both) is checked for
//! the concrete zoo types below, outside the macro, since boxed trait
//! objects cannot clone.

use std::ops::Range;
use std::sync::Arc;

use vlpp_check::{check, prop_assert_eq, CheckConfig, Gen};
use vlpp_predict::{
    for_each_zoo_conditional, for_each_zoo_indirect, Budget, Bullseye, ClusteredTargetCache,
    ConditionalPredictor, IndirectPredictor, Ldbp, RunStats, Tage, ZooContext,
};
use vlpp_trace::{Addr, BranchRecord};

/// A deterministic mixed-kind record stream (conditionals, indirects,
/// calls, returns, unconditionals) with enough PC locality for tables
/// to train.
fn record_stream(seed: u64, n: usize) -> Vec<BranchRecord> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut step = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x >> 16
    };
    (0..n)
        .map(|_| {
            let r = step();
            let pc = Addr::new(0x12_0000 + (r % 48) * 0x40 + 0x3c);
            let target = Addr::new(0x12_0000 + (step() % 64) * 0x40);
            match r % 20 {
                0..=11 => BranchRecord::conditional(pc, target, step() & 1 == 1),
                12..=14 => BranchRecord::indirect(pc, target),
                15..=16 => BranchRecord::call(pc, target),
                17..=18 => BranchRecord::ret(pc, target),
                _ => BranchRecord::unconditional(pc, target),
            }
        })
        .collect()
}

/// A load channel aligned with `record_stream(seed, n)`.
fn load_channel(n: usize) -> Arc<Vec<u64>> {
    Arc::new((0..n as u64).map(|i| (i * 31 + 7) % 64).collect())
}

/// Drives the runner protocol over `records`, returning the prediction
/// stream. `extra_predicts` probes each conditional twice more before
/// training, which must not change anything.
fn drive_cond(
    p: &mut dyn ConditionalPredictor,
    records: &[BranchRecord],
    extra_predicts: bool,
) -> Vec<bool> {
    let mut out = Vec::new();
    for record in records {
        if record.is_conditional() {
            let guess = p.predict(record.pc());
            if extra_predicts {
                assert_eq!(p.predict(record.pc()), guess, "predict must be repeatable");
                let _ = p.predict(record.pc());
            }
            out.push(guess);
            p.train(record.pc(), record.taken());
        }
        p.observe(record);
    }
    out
}

/// The indirect counterpart of [`drive_cond`].
fn drive_ind(
    p: &mut dyn IndirectPredictor,
    records: &[BranchRecord],
    extra_predicts: bool,
) -> Vec<Addr> {
    let mut out = Vec::new();
    for record in records {
        if record.is_indirect() {
            let guess = p.predict(record.pc());
            if extra_predicts {
                assert_eq!(p.predict(record.pc()), guess, "predict must be repeatable");
            }
            out.push(guess);
            p.train(record.pc(), record.target());
        }
        p.observe(record);
    }
    out
}

/// The totals a prediction stream scores against the truth.
fn totals<T: PartialEq>(guesses: &[T], truth: impl Iterator<Item = T>) -> RunStats {
    let mispredictions =
        guesses.iter().zip(truth).filter(|(guess, actual)| *guess != actual).count();
    RunStats { predictions: guesses.len() as u64, mispredictions: mispredictions as u64 }
}

/// A generated stream, its load channel, and a random cut of it into
/// consecutive chunks — empty and one-record chunks included.
fn chunked_case(g: &mut Gen) -> (Vec<BranchRecord>, Vec<u64>, Vec<Range<usize>>) {
    let n = g.range_usize(0, CHUNKED_STREAM_MAX);
    let records = record_stream(g.u64(), n);
    let loads = (0..n).map(|_| g.below(64)).collect();
    let mut cuts: Vec<Range<usize>> = Vec::new();
    let mut start = 0;
    while start < n || cuts.is_empty() {
        // An empty chunk is followed by a non-empty one, so a shrunk case
        // (every draw 0) still reaches the end of the stream.
        let floor = usize::from(cuts.last().is_some_and(Range::is_empty));
        let len = match g.below(4) {
            0 => 0,
            1 => 1,
            _ => g.range_usize(2, 1_000),
        };
        let end = (start + len.max(floor)).min(n);
        cuts.push(start..end);
        start = end;
    }
    (records, loads, cuts)
}

const STREAM_LEN: usize = 6_000;
/// The longest stream the chunking property generates.
const CHUNKED_STREAM_MAX: usize = 3_000;
/// Cases per member for the chunking property.
const CHUNKED_CASES: u32 = 48;
const COND_BUDGETS: [u64; 2] = [4 << 10, 16 << 10];
const IND_BUDGETS: [u64; 2] = [2 << 10, 8 << 10];

macro_rules! cond_conformance {
    ($id:ident, $name:expr, $cite:expr, $build:expr, $storage:expr) => {
        mod $id {
            use super::*;

            fn build(budget: Budget) -> Box<dyn ConditionalPredictor> {
                let ctx = ZooContext::with_loads(load_channel(STREAM_LEN));
                let builder: fn(Budget, &ZooContext) -> Box<dyn ConditionalPredictor> = $build;
                builder(budget, &ctx)
            }

            #[test]
            fn replay_is_deterministic_and_predict_is_pure() {
                let budget = Budget::from_bytes(COND_BUDGETS[1]);
                let records = record_stream(0xc0fe, STREAM_LEN);
                let a = drive_cond(&mut *build(budget), &records, false);
                let b = drive_cond(&mut *build(budget), &records, true);
                assert_eq!(a, b, "{}: replay (with probe predicts) diverged", $name);
            }

            #[test]
            fn rebuild_midstream_matches() {
                let budget = Budget::from_bytes(COND_BUDGETS[0]);
                let records = record_stream(0xbeef, STREAM_LEN);
                let (prefix, suffix) = records.split_at(STREAM_LEN / 2);
                let mut original = build(budget);
                let mut rebuilt = build(budget);
                let a_pre = drive_cond(&mut *original, prefix, false);
                let b_pre = drive_cond(&mut *rebuilt, prefix, false);
                assert_eq!(a_pre, b_pre, "{}: prefix diverged", $name);
                let a_suf = drive_cond(&mut *original, suffix, false);
                let b_suf = drive_cond(&mut *rebuilt, suffix, false);
                assert_eq!(a_suf, b_suf, "{}: suffix diverged after rebuild", $name);
            }

            #[test]
            fn run_through_box_matches_the_hand_written_loop() {
                let budget = Budget::from_bytes(COND_BUDGETS[1]);
                let records = record_stream(0x7e57, STREAM_LEN);
                let guesses = drive_cond(&mut *build(budget), &records, false);
                let truth = records.iter().filter(|r| r.is_conditional()).map(|r| r.taken());
                assert_eq!(build(budget).run(&records), totals(&guesses, truth), "{}", $name);
            }

            #[test]
            fn chunked_run_with_fed_loads_matches_one_run() {
                let builder: fn(Budget, &ZooContext) -> Box<dyn ConditionalPredictor> = $build;
                let budget = Budget::from_bytes(COND_BUDGETS[1]);
                let name = format!("{}_chunked_run_with_fed_loads_matches_one_run", $name);
                check(&name, CheckConfig::with_cases(CHUNKED_CASES), |g| {
                    let (records, loads, cuts) = chunked_case(g);
                    let whole =
                        || builder(budget, &ZooContext::with_loads(Arc::new(loads.clone())));
                    let want_stats = whole().run(&records);
                    let want_stream = drive_cond(&mut *whole(), &records, false);
                    let mut by_run = builder(budget, &ZooContext::default());
                    let mut by_drive = builder(budget, &ZooContext::default());
                    let (mut stats, mut stream) = (RunStats::default(), Vec::new());
                    for cut in cuts {
                        by_run.feed_loads(&loads[cut.clone()]);
                        stats += by_run.run(&records[cut.clone()]);
                        by_drive.feed_loads(&loads[cut.clone()]);
                        stream.extend(drive_cond(&mut *by_drive, &records[cut], false));
                    }
                    prop_assert_eq!(stats, want_stats);
                    prop_assert_eq!(stream, want_stream);
                    Ok(())
                });
            }

            #[test]
            fn budget_accounting_is_sane() {
                let ctx = ZooContext::default();
                let storage: fn(Budget, &ZooContext) -> u64 = $storage;
                for bytes in COND_BUDGETS {
                    let budget = Budget::from_bytes(bytes);
                    let charged = storage(budget, &ctx);
                    assert!(charged > 0, "{}: zero storage at {budget}", $name);
                    assert!(
                        charged <= budget.bytes(),
                        "{}: {charged} bytes exceeds {budget}",
                        $name
                    );
                }
            }
        }
    };
}

macro_rules! ind_conformance {
    ($id:ident, $name:expr, $cite:expr, $build:expr, $storage:expr) => {
        mod $id {
            use super::*;

            fn build(budget: Budget) -> Box<dyn IndirectPredictor> {
                let ctx = ZooContext::default();
                let builder: fn(Budget, &ZooContext) -> Box<dyn IndirectPredictor> = $build;
                builder(budget, &ctx)
            }

            #[test]
            fn replay_is_deterministic_and_predict_is_pure() {
                let budget = Budget::from_bytes(IND_BUDGETS[1]);
                let records = record_stream(0xd00d, STREAM_LEN);
                let a = drive_ind(&mut *build(budget), &records, false);
                let b = drive_ind(&mut *build(budget), &records, true);
                assert_eq!(a, b, "{}: replay (with probe predicts) diverged", $name);
            }

            #[test]
            fn rebuild_midstream_matches() {
                let budget = Budget::from_bytes(IND_BUDGETS[0]);
                let records = record_stream(0xfeed, STREAM_LEN);
                let (prefix, suffix) = records.split_at(STREAM_LEN / 2);
                let mut original = build(budget);
                let mut rebuilt = build(budget);
                assert_eq!(
                    drive_ind(&mut *original, prefix, false),
                    drive_ind(&mut *rebuilt, prefix, false),
                    "{}: prefix diverged",
                    $name
                );
                assert_eq!(
                    drive_ind(&mut *original, suffix, false),
                    drive_ind(&mut *rebuilt, suffix, false),
                    "{}: suffix diverged after rebuild",
                    $name
                );
            }

            #[test]
            fn run_through_box_matches_the_hand_written_loop() {
                let budget = Budget::from_bytes(IND_BUDGETS[1]);
                let records = record_stream(0x1d17, STREAM_LEN);
                let guesses = drive_ind(&mut *build(budget), &records, false);
                let truth = records.iter().filter(|r| r.is_indirect()).map(|r| r.target());
                assert_eq!(build(budget).run(&records), totals(&guesses, truth), "{}", $name);
            }

            #[test]
            fn chunked_run_matches_one_run() {
                let budget = Budget::from_bytes(IND_BUDGETS[1]);
                let name = format!("{}_chunked_run_matches_one_run", $name);
                check(&name, CheckConfig::with_cases(CHUNKED_CASES), |g| {
                    let (records, _, cuts) = chunked_case(g);
                    let want_stats = build(budget).run(&records);
                    let want_stream = drive_ind(&mut *build(budget), &records, false);
                    let (mut by_run, mut by_drive) = (build(budget), build(budget));
                    let (mut stats, mut stream) = (RunStats::default(), Vec::new());
                    for cut in cuts {
                        stats += by_run.run(&records[cut.clone()]);
                        stream.extend(drive_ind(&mut *by_drive, &records[cut], false));
                    }
                    prop_assert_eq!(stats, want_stats);
                    prop_assert_eq!(stream, want_stream);
                    Ok(())
                });
            }

            #[test]
            fn budget_accounting_is_sane() {
                let ctx = ZooContext::default();
                let storage: fn(Budget, &ZooContext) -> u64 = $storage;
                for bytes in IND_BUDGETS {
                    let budget = Budget::from_bytes(bytes);
                    let charged = storage(budget, &ctx);
                    assert!(charged > 0, "{}: zero storage at {budget}", $name);
                    assert!(
                        charged <= budget.bytes(),
                        "{}: {charged} bytes exceeds {budget}",
                        $name
                    );
                }
            }
        }
    };
}

for_each_zoo_conditional!(cond_conformance);
for_each_zoo_indirect!(ind_conformance);

/// True clone-determinism for the concrete zoo types: clone mid-stream,
/// drive both over the same suffix, and require identical predictions.
fn clone_determinism_cond<P: ConditionalPredictor + Clone>(mut p: P, seed: u64) {
    let records = record_stream(seed, STREAM_LEN);
    let (prefix, suffix) = records.split_at(STREAM_LEN / 2);
    drive_cond(&mut p, prefix, false);
    let mut cloned = p.clone();
    assert_eq!(
        drive_cond(&mut p, suffix, false),
        drive_cond(&mut cloned, suffix, false),
        "clone diverged from original"
    );
}

fn clone_determinism_ind<P: IndirectPredictor + Clone>(mut p: P, seed: u64) {
    let records = record_stream(seed, STREAM_LEN);
    let (prefix, suffix) = records.split_at(STREAM_LEN / 2);
    drive_ind(&mut p, prefix, false);
    let mut cloned = p.clone();
    assert_eq!(
        drive_ind(&mut p, suffix, false),
        drive_ind(&mut cloned, suffix, false),
        "clone diverged from original"
    );
}

#[test]
fn new_zoo_types_are_clone_deterministic() {
    clone_determinism_cond(Tage::new(Budget::from_kib(4)), 0x7a6e);
    clone_determinism_cond(Bullseye::new(Budget::from_kib(4)), 0xb0b0);
    clone_determinism_cond(Ldbp::new(12).with_channel(load_channel(STREAM_LEN)), 0x1db9);
    clone_determinism_ind(ClusteredTargetCache::new(10, 3, 16), 0xc105);
}

#[test]
fn zoo_registries_match_the_macro_expansion() {
    // The registry and this suite expand the same macros, so their
    // member counts must agree with the number of generated modules.
    // (Counting modules directly isn't possible; the names list is the
    // proxy — if someone adds a macro line, both sides grow together,
    // and this test documents the invariant.)
    assert_eq!(vlpp_predict::zoo::conditional_names().len(), 7);
    assert_eq!(vlpp_predict::zoo::indirect_names().len(), 5);
}

/// The storage charge is a model figure (2-bit base counters, 4-byte
/// tagged entries), so the in-memory layout of the tables must never
/// move it. Bullseye's floor is 2 KiB, so it starts there.
#[test]
fn tage_and_bullseye_storage_charges_are_pinned() {
    let tage: Vec<u64> =
        [1, 4, 16, 64].map(|kib| Tage::new(Budget::from_kib(kib)).storage_bytes()).to_vec();
    let bullseye: Vec<u64> =
        [2, 4, 16, 64].map(|kib| Bullseye::new(Budget::from_kib(kib)).storage_bytes()).to_vec();
    assert_eq!(tage, [768, 3072, 12288, 49152], "tage");
    assert_eq!(bullseye, [1536, 3072, 12288, 49152], "bullseye");
}
