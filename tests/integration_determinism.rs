//! Determinism coverage: the same seed must produce identical traces
//! and identical prediction statistics, run to run, in-process. Every
//! experiment (and every CI rerun) depends on this.

use vlpp_core::{CondKernel, HashAssignment, IndKernel, PathConfig};
use vlpp_predict::{Gshare, LastTargetBtb, PathTargetCache, PatternTargetCache};
use vlpp_sim::{run_conditional, run_indirect, Kind, RunStats, Scale, Workloads};
use vlpp_synth::suite;
use vlpp_trace::Trace;

/// A small-but-real workload: gcc at the 50 K-conditional scale floor.
fn gcc_trace() -> std::sync::Arc<Trace> {
    let spec = suite::benchmark("gcc").expect("gcc is in the suite");
    Workloads::new(Scale::new(1_000_000)).test_trace(&spec)
}

#[test]
fn same_seed_builds_identical_traces() {
    let spec = suite::benchmark("gcc").expect("gcc is in the suite");
    let first = Workloads::new(Scale::new(1_000_000));
    let second = Workloads::new(Scale::new(1_000_000));
    assert_eq!(first.test_trace(&spec), second.test_trace(&spec));
    assert_eq!(first.profile_trace(&spec), second.profile_trace(&spec));
}

/// Runs `make_run` twice on the same trace and asserts bit-identical
/// statistics.
fn assert_deterministic(name: &str, mut make_run: impl FnMut(&Trace) -> RunStats) {
    let trace = gcc_trace();
    let first = make_run(&trace);
    let second = make_run(&trace);
    assert!(first.predictions > 0, "{name}: the run must predict something");
    assert_eq!(first, second, "{name}: two in-process runs must agree exactly");
}

#[test]
fn gshare_is_deterministic() {
    assert_deterministic("gshare", |trace| run_conditional(&mut Gshare::new(12), trace));
}

#[test]
fn variable_length_path_is_deterministic() {
    let spec = suite::benchmark("gcc").expect("gcc is in the suite");
    let workloads = Workloads::new(Scale::new(1_000_000));
    let report = workloads.profile(&spec, Kind::Conditional, 12);
    assert_deterministic("vlpp", |trace| {
        let mut p = CondKernel::new(&PathConfig::new(12), &report.assignment);
        run_conditional(&mut p, trace)
    });
}

#[test]
fn fixed_length_path_indirect_is_deterministic() {
    assert_deterministic("fixed-path-indirect", |trace| {
        let mut p = IndKernel::new(&PathConfig::new(10), &HashAssignment::fixed(4));
        run_indirect(&mut p, trace)
    });
}

#[test]
fn target_caches_are_deterministic() {
    assert_deterministic("pattern-target-cache", |trace| {
        run_indirect(&mut PatternTargetCache::new(10), trace)
    });
    assert_deterministic("path-target-cache", |trace| {
        run_indirect(&mut PathTargetCache::new(10, 2), trace)
    });
    assert_deterministic("last-target-btb", |trace| {
        run_indirect(&mut LastTargetBtb::new(10), trace)
    });
}

#[test]
fn profiling_is_deterministic() {
    let spec = suite::benchmark("gcc").expect("gcc is in the suite");
    let first = Workloads::new(Scale::new(1_000_000));
    let second = Workloads::new(Scale::new(1_000_000));
    let a = first.profile(&spec, Kind::Conditional, 10);
    let b = second.profile(&spec, Kind::Conditional, 10);
    assert_eq!(a.default_hash, b.default_hash);
    assert_eq!(a.assignment.assigned_count(), b.assignment.assigned_count());
    for (pc, n) in a.assignment.iter() {
        assert_eq!(b.assignment.get(pc), n, "assignment differs at {pc}");
    }
}
