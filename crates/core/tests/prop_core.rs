//! Property tests for the core predictor machinery: the test-only
//! reference's own §3.3/§4.1 invariants, and the §3.5 profiler and
//! §3.4 predictor against that reference.

mod reference;

use std::collections::HashMap;

use reference::hash::{hash_path, IncrementalHashers};
use reference::path::{PathConditional, PathIndirect};
use reference::table::{CounterTable, TargetTable};
use reference::thb::Thb;
use vlpp_check::{check, prop_assert, prop_assert_eq, CheckConfig};
use vlpp_core::{
    CondKernel, DynamicPathConditional, FanOut, HashAssignment, PathConfig, ProfileBuilder,
    ProfileConfig, RollingHashers, MAX_PATH_LENGTH,
};
use vlpp_predict::{BranchObserver, ConditionalPredictor, IndirectPredictor};
use vlpp_trace::{Addr, BranchKind, BranchRecord, Trace};

/// The reference's §4.1 partial-sum registers compute exactly the §3.3
/// hashes, for every index width, THB capacity, path length, and target
/// stream.
#[test]
fn incremental_hashers_equal_direct_evaluation() {
    check("incremental_hashers_equal_direct_evaluation", CheckConfig::default(), |g| {
        let k = g.range_u32(1, 24);
        let capacity = g.range_usize(1, 32);
        let targets = g.vec(1, 120, |g| g.u64());
        let mut thb = Thb::new(capacity, k);
        let mut inc = IncrementalHashers::new(capacity, k);
        for &raw in &targets {
            let t = Addr::new(raw);
            thb.push(t);
            inc.push(t);
            for len in 1..=capacity {
                prop_assert_eq!(inc.index(len), hash_path(&thb, len), "len {}", len);
            }
        }
        Ok(())
    });
}

/// Hash indices always fit in k bits.
#[test]
fn hash_indices_fit_index_width() {
    check("hash_indices_fit_index_width", CheckConfig::default(), |g| {
        let k = g.range_u32(1, 30);
        let targets = g.vec(1, 60, |g| g.u64());
        let mut hashers = RollingHashers::new(8, k);
        for &raw in &targets {
            hashers.push(Addr::new(raw));
            for x in 1..=8 {
                prop_assert!(hashers.index(x) < (1u64 << k), "HF_{}", x);
            }
        }
        Ok(())
    });
}

/// The THB is a faithful sliding window: after any push sequence,
/// T_1..T_len are the most recent pushes, newest first, compressed.
#[test]
fn thb_is_a_sliding_window() {
    check("thb_is_a_sliding_window", CheckConfig::default(), |g| {
        let capacity = g.range_usize(1, 32);
        let k = g.range_u32(1, 32);
        let targets = g.vec(0, 80, |g| g.u64());
        let mut thb = Thb::new(capacity, k);
        for &raw in &targets {
            thb.push(Addr::new(raw));
        }
        let expected: Vec<u64> =
            targets.iter().rev().take(capacity).map(|&raw| Addr::new(raw).low_bits(k)).collect();
        let got: Vec<u64> = thb.path(capacity).collect();
        for (i, want) in expected.iter().enumerate() {
            prop_assert_eq!(got[i], *want, "slot {}", i);
        }
        for (slot, &value) in got.iter().enumerate().skip(expected.len()) {
            prop_assert_eq!(value, 0, "empty slot {}", slot);
        }
        Ok(())
    });
}

/// Assignments store and retrieve arbitrary pc -> hash mappings.
#[test]
fn hash_assignment_is_a_map() {
    check("hash_assignment_is_a_map", CheckConfig::default(), |g| {
        let default = g.range_u8(1, 32);
        let entries: HashMap<u64, u8> =
            g.vec(0, 50, |g| (g.u64(), g.range_u8(1, 32))).into_iter().collect();
        let mut assignment = HashAssignment::fixed(default);
        for (&pc, &n) in &entries {
            assignment.assign(Addr::new(pc), n);
        }
        for (&pc, &n) in &entries {
            prop_assert_eq!(assignment.get(Addr::new(pc)), n);
        }
        prop_assert_eq!(assignment.assigned_count(), entries.len());
        let histogram = assignment.length_histogram();
        prop_assert_eq!(histogram.iter().sum::<usize>(), entries.len());
        Ok(())
    });
}

/// A predictor is a deterministic state machine: the same trace produces
/// the same prediction sequence.
#[test]
fn path_predictor_is_deterministic() {
    check("path_predictor_is_deterministic", CheckConfig::default(), |g| {
        let trace = random_trace(g.u64(), 400);
        let length = g.range_u8(1, 16);
        let run = || {
            let mut p = CondKernel::new(&PathConfig::new(10), &HashAssignment::fixed(length));
            trace.iter().filter_map(|r| p.apply(r)).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
        Ok(())
    });
}

/// Profiling only assigns hash numbers from the configured set, and only
/// to branches that actually appear in the trace.
#[test]
fn profiling_respects_hash_set() {
    check("profiling_respects_hash_set", CheckConfig::default(), |g| {
        let trace = random_trace(g.u64(), 600);
        let hash_set = vec![2u8, 5, 9];
        let config = ProfileConfig::new(PathConfig::new(8))
            .with_hash_set(hash_set.clone())
            .with_iterations(2);
        let report = ProfileBuilder::new(config).profile_conditional(&trace);
        prop_assert!(hash_set.contains(&report.default_hash));
        for (pc, n) in report.assignment.iter() {
            prop_assert!(hash_set.contains(&n), "branch {pc} got hash {n}");
            prop_assert!(
                trace.conditionals().any(|r| r.pc() == pc),
                "assigned branch {pc} not in trace"
            );
        }
        prop_assert_eq!(report.step1.len(), hash_set.len());
        Ok(())
    });
}

/// The fused step-1 kernel (one contiguous `[hash × index]` array, the
/// population dispatch hoisted out of the trace loop) produces exactly
/// the per-hash totals of the straightforward implementation it
/// replaced: one separately-allocated [`CounterTable`]/[`TargetTable`]
/// per configured hash number.
#[test]
fn fused_step1_matches_per_table_reference() {
    check("fused_step1_matches_per_table_reference", CheckConfig::default(), |g| {
        let trace = random_trace(g.u64(), 500);
        let mut path = PathConfig::new(g.range_u32(2, 10));
        path.thb_capacity = g.range_usize(1, 16);
        // A random non-empty strictly-increasing subset of the valid
        // hash numbers 1..=thb_capacity.
        let mut hash_set: Vec<u8> =
            (1..=path.thb_capacity as u8).filter(|_| g.below(2) == 0).collect();
        if hash_set.is_empty() {
            hash_set.push(g.range_u8(1, path.thb_capacity as u8));
        }
        let config =
            ProfileConfig::new(path.clone()).with_hash_set(hash_set.clone()).with_iterations(0);

        let cond = ProfileBuilder::new(config.clone()).profile_conditional(&trace);
        let cond_ref = reference_step1(&path, &hash_set, &trace, true);
        let ind = ProfileBuilder::new(config).profile_indirect(&trace);
        let ind_ref = reference_step1(&path, &hash_set, &trace, false);
        for (report, reference) in [(&cond, &cond_ref), (&ind, &ind_ref)] {
            prop_assert_eq!(report.step1.len(), reference.len());
            for (got, want) in report.step1.iter().zip(reference.iter()) {
                prop_assert_eq!(got.hash, want.0, "hash number order");
                prop_assert_eq!(got.predictions, want.1, "predictions for hash {}", want.0);
                prop_assert_eq!(got.correct, want.2, "correct for hash {}", want.0);
            }
        }
        Ok(())
    });
}

/// The straightforward step-1 implementation on the reference: one
/// private [`CounterTable`] (conditional) or [`TargetTable`] (indirect)
/// per hash number, each predicting and training at its own hash index
/// on every relevant record. Returns `(hash, predictions, correct)` per
/// configured hash number.
fn reference_step1(
    path: &PathConfig,
    hash_set: &[u8],
    trace: &Trace,
    conditional: bool,
) -> Vec<(u8, u64, u64)> {
    let (stats, _) = reference_step1_tallies(path, hash_set, trace, conditional);
    stats
}

/// [`reference_step1`] plus each branch's correct-prediction count per
/// hash-set position.
#[allow(clippy::type_complexity)]
fn reference_step1_tallies(
    path: &PathConfig,
    hash_set: &[u8],
    trace: &Trace,
    conditional: bool,
) -> (Vec<(u8, u64, u64)>, HashMap<u64, Vec<u64>>) {
    let mut hashers = IncrementalHashers::new(path.thb_capacity, path.index_bits);
    let mut counters: Vec<CounterTable> =
        hash_set.iter().map(|_| CounterTable::new(path.index_bits)).collect();
    let mut targets: Vec<TargetTable> =
        hash_set.iter().map(|_| TargetTable::new(path.index_bits)).collect();
    let mut stats: Vec<(u8, u64, u64)> = hash_set.iter().map(|&h| (h, 0, 0)).collect();
    let mut tallies: HashMap<u64, Vec<u64>> = HashMap::new();
    for record in trace.iter() {
        let relevant = if conditional { record.is_conditional() } else { record.is_indirect() };
        if relevant {
            let tally = tallies.entry(record.pc().raw()).or_insert_with(|| vec![0; hash_set.len()]);
            for (hi, &hash) in hash_set.iter().enumerate() {
                let index = hashers.index(hash as usize);
                let correct = if conditional {
                    let hit = counters[hi].predict(index) == record.taken();
                    counters[hi].train(index, record.taken());
                    hit
                } else {
                    let hit = targets[hi].predict(index, record.pc()) == record.target();
                    targets[hi].train(index, record.target());
                    hit
                };
                stats[hi].1 += 1;
                if correct {
                    stats[hi].2 += 1;
                    tally[hi] += 1;
                }
            }
        }
        if record.enters_thb() || (path.store_returns && record.kind() == BranchKind::Return) {
            hashers.push(record.target());
        }
    }
    (stats, tallies)
}

/// The §3.5 heuristic written out on the reference predictors: step 1
/// from [`reference_step1_tallies`], then `iterations` step-2
/// simulations of a boxed [`PathConditional`]/[`PathIndirect`], each
/// trying every branch's best-so-far candidate (untested candidates
/// count as zero misses; ties go to the earlier candidate). Returns the
/// final assignment and the step-1 totals.
fn reference_profile(
    config: &ProfileConfig,
    trace: &Trace,
    conditional: bool,
) -> (HashAssignment, Vec<(u8, u64, u64)>) {
    let (step1, tallies) =
        reference_step1_tallies(&config.path, &config.hash_set, trace, conditional);
    // Default: lowest step-1 miss rate, ties toward the shorter path.
    let miss_rate = |&(_, predictions, correct): &(u8, u64, u64)| {
        if predictions == 0 {
            0.0
        } else {
            (predictions - correct) as f64 / predictions as f64
        }
    };
    let default_hash = step1
        .iter()
        .min_by(|a, b| miss_rate(a).partial_cmp(&miss_rate(b)).unwrap().then(a.0.cmp(&b.0)))
        .map(|s| s.0)
        .unwrap();
    // Candidates: most correct first, ties toward the shorter path.
    let candidates: HashMap<u64, Vec<u8>> = tallies
        .iter()
        .map(|(&pc, tally)| {
            let mut order: Vec<usize> = (0..tally.len()).collect();
            order.sort_by(|&a, &b| tally[b].cmp(&tally[a]).then(a.cmp(&b)));
            let picked = order.iter().take(config.candidates).map(|&i| config.hash_set[i]);
            (pc, picked.collect())
        })
        .collect();
    let mut misses: HashMap<u64, Vec<Option<u64>>> =
        candidates.iter().map(|(&pc, c)| (pc, vec![None; c.len()])).collect();
    let choose = |misses: &HashMap<u64, Vec<Option<u64>>>| -> HashMap<u64, usize> {
        misses
            .iter()
            .map(|(&pc, tested)| {
                let best = (0..tested.len()).min_by_key(|&i| (tested[i].unwrap_or(0), i)).unwrap();
                (pc, best)
            })
            .collect()
    };
    let assign = |chosen: &HashMap<u64, usize>| {
        let mut assignment = HashAssignment::fixed(default_hash);
        for (&pc, &ci) in chosen {
            assignment.assign(Addr::new(pc), candidates[&pc][ci]);
        }
        assignment
    };
    for _ in 0..config.iterations {
        let chosen = choose(&misses);
        let assignment = assign(&chosen);
        let mut counted: HashMap<u64, u64> = HashMap::new();
        if conditional {
            let mut p = PathConditional::new(config.path.clone(), assignment);
            for record in trace.iter() {
                if record.is_conditional() {
                    if p.predict(record.pc()) != record.taken() {
                        *counted.entry(record.pc().raw()).or_insert(0) += 1;
                    }
                    p.train(record.pc(), record.taken());
                }
                p.observe(record);
            }
        } else {
            let mut p = PathIndirect::new(config.path.clone(), assignment);
            for record in trace.iter() {
                if record.is_indirect() {
                    if p.predict(record.pc()) != record.target() {
                        *counted.entry(record.pc().raw()).or_insert(0) += 1;
                    }
                    p.train(record.pc(), record.target());
                }
                p.observe(record);
            }
        }
        for (&pc, &ci) in &chosen {
            misses.get_mut(&pc).unwrap()[ci] = Some(counted.get(&pc).copied().unwrap_or(0));
        }
    }
    (assign(&choose(&misses)), step1)
}

/// A random predictor configuration below the paper's 32-entry THB:
/// index width, THB capacity, the §3.2 returns policy, and (sometimes)
/// a §6 history stack.
fn random_config(g: &mut vlpp_check::Gen) -> PathConfig {
    let mut config = PathConfig::new(g.range_u32(2, 10));
    config.thb_capacity = g.range_usize(1, MAX_PATH_LENGTH - 1);
    config.store_returns = g.below(2) == 0;
    if g.below(2) == 0 {
        config.history_stack_depth = Some(g.range_usize(1, 6));
    }
    config
}

/// A deterministic mixed trace with call/return traffic, so the §6
/// history stack and the §3.2 returns policy both come into play.
fn call_return_trace(g: &mut vlpp_check::Gen, n: usize) -> Trace {
    let mut trace = Trace::new();
    for _ in 0..n {
        let pc = Addr::new(0x1000 | (g.below(48) << 2));
        let target = Addr::new(0x2000 | (g.below(128) << 2));
        match g.below(8) {
            0 => trace.push(BranchRecord::indirect(pc, target)),
            1 => trace.push(BranchRecord::call(pc, target)),
            2 => trace.push(BranchRecord::ret(pc, target)),
            _ => trace.push(BranchRecord::conditional(pc, target, g.below(3) != 0)),
        }
    }
    trace
}

/// The whole §3.5 report — assignment, default hash, step-1 totals and
/// branch count — equals the heuristic run on the reference: the fused
/// step 1 on rolling hashers and the kernel-simulated step 2 change no
/// decision, for either branch population.
#[test]
fn profile_report_matches_reference_step2() {
    check("profile_report_matches_reference_step2", CheckConfig::default(), |g| {
        let path = random_config(g);
        let config = ProfileConfig::new(path)
            .with_candidates(g.range_usize(1, 4))
            .with_iterations(g.range_usize(0, 7));
        let trace = call_return_trace(g, 500);
        for conditional in [true, false] {
            let builder = ProfileBuilder::new(config.clone());
            let report = if conditional {
                builder.profile_conditional(&trace)
            } else {
                builder.profile_indirect(&trace)
            };
            let (assignment, step1) = reference_profile(&config, &trace, conditional);
            prop_assert_eq!(
                &report.assignment,
                &assignment,
                "assignment (conditional {})",
                conditional
            );
            prop_assert_eq!(report.default_hash, assignment.default_hash());
            prop_assert_eq!(report.profiled_branches, assignment.assigned_count());
            let totals: Vec<(u8, u64, u64)> =
                report.step1.iter().map(|s| (s.hash, s.predictions, s.correct)).collect();
            prop_assert_eq!(totals, step1, "step-1 totals (conditional {})", conditional);
        }
        Ok(())
    });
}

/// A fan-out that makes `.0` groups and runs them in order on the
/// calling thread: step 1's grouping without a pool.
struct Groups(usize);

impl FanOut for Groups {
    fn width(&self) -> usize {
        self.0
    }

    fn map<T: Send, R: Send>(&self, items: Vec<T>, work: &(dyn Fn(T) -> R + Sync)) -> Vec<R> {
        items.into_iter().map(work).collect()
    }
}

/// Splitting step 1's hash set into groups changes nothing: the whole
/// report — assignment, default hash, step-1 totals and branch count —
/// is the same from one group as from `N`, for either population.
/// Covers `N` that does not divide the set, `N` above the set size,
/// sparse sets and a one-hash set.
#[test]
fn profile_report_is_the_same_at_any_step1_grouping() {
    check("profile_report_is_the_same_at_any_step1_grouping", CheckConfig::default(), |g| {
        let path = random_config(g);
        let capacity = path.thb_capacity as u8;
        let hash_set: Vec<u8> = match g.below(3) {
            0 => (1..=capacity).collect(),
            1 => vec![g.range_u8(1, capacity)],
            _ => {
                let sparse: Vec<u8> = (1..=capacity).filter(|_| g.below(3) == 0).collect();
                if sparse.is_empty() {
                    vec![capacity]
                } else {
                    sparse
                }
            }
        };
        let config = ProfileConfig::new(path)
            .with_hash_set(hash_set.clone())
            .with_candidates(g.range_usize(1, 4))
            .with_iterations(g.range_usize(0, 4));
        let groups = g.range_usize(2, hash_set.len() + 2);
        let trace = call_return_trace(g, 400);
        let builder = ProfileBuilder::new(config);
        for conditional in [true, false] {
            let (one, many) = if conditional {
                (
                    builder.profile_conditional(&trace),
                    builder.profile_conditional_on(&trace, &Groups(groups)),
                )
            } else {
                (
                    builder.profile_indirect(&trace),
                    builder.profile_indirect_on(&trace, &Groups(groups)),
                )
            };
            let context =
                format!("{} groups over {:?}, conditional {}", groups, hash_set, conditional);
            prop_assert_eq!(&many.assignment, &one.assignment, "assignment, {}", context);
            prop_assert_eq!(many.default_hash, one.default_hash, "default hash, {}", context);
            prop_assert_eq!(&many.step1, &one.step1, "step-1 totals, {}", context);
            prop_assert_eq!(many.profiled_branches, one.profiled_branches, "branches, {}", context);
        }
        Ok(())
    });
}

/// The §3.4 hardware-selected predictor is bit-identical to the
/// reference's dynamic selection: every prediction, every selection,
/// and the final counter table — including candidates above the THB
/// capacity (clamped), returns recorded or not, and the history stack.
#[test]
fn dynamic_predictor_matches_reference_new_dynamic() {
    check("dynamic_predictor_matches_reference_new_dynamic", CheckConfig::default(), |g| {
        let config = random_config(g);
        let mut candidates: Vec<u8> = (1..=32u8).filter(|_| g.below(4) == 0).collect();
        if candidates.is_empty() {
            candidates.push(g.range_u8(1, 32));
        }
        let set_bits = g.range_u32(0, 6);
        let trace = call_return_trace(g, 600);
        let mut dynamic = DynamicPathConditional::new(&config, &candidates, set_bits);
        let mut reference = PathConditional::new_dynamic(config, &candidates, set_bits);
        prop_assert_eq!(dynamic.name(), reference.name());
        for (i, record) in trace.iter().enumerate() {
            if record.is_conditional() {
                let pc = record.pc();
                prop_assert_eq!(
                    dynamic.selected_hash(pc),
                    reference.selected_hash(pc),
                    "record {}",
                    i
                );
                prop_assert_eq!(dynamic.predict(pc), reference.predict(pc), "record {}", i);
                dynamic.train(pc, record.taken());
                reference.train(pc, record.taken());
            }
            dynamic.observe(record);
            reference.observe(record);
        }
        prop_assert_eq!(dynamic.counter_values(), reference.counter_values(), "counter state");
        Ok(())
    });
}

/// A deterministic pseudo-random mixed trace.
fn random_trace(seed: u64, n: usize) -> Trace {
    let mut x = seed | 1;
    let mut step = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x
    };
    let mut trace = Trace::new();
    for _ in 0..n {
        let r = step();
        let pc = Addr::new(((r >> 8) & 0xff) << 2 | 0x1000);
        let target = Addr::new(((r >> 16) & 0xff) << 2 | 0x2000);
        match r % 5 {
            0..=2 => trace.push(BranchRecord::conditional(pc, target, r & 1 == 0)),
            3 => trace.push(BranchRecord::indirect(pc, target)),
            _ => trace.push(BranchRecord::unconditional(pc, target)),
        }
    }
    trace
}
