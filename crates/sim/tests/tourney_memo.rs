//! The league builds each memoized artifact exactly once, ahead of its
//! cells, so no cell ever blocks on another thread's build.
//!
//! This is its own test binary because the memo counters and the global
//! pool are process-wide: another test racing in the same process would
//! move the counters, and the pool's size is fixed by the first use.

use vlpp_pool::Pool;
use vlpp_predict::zoo;
use vlpp_sim::tournament::{run_tournament, CI_SCALE_DIVISOR};
use vlpp_sim::Scale;

/// The current `(hits, misses, waits)` of a named memo.
fn memo_counts(name: &str) -> [u64; 3] {
    ["hits", "misses", "waits"]
        .map(|stat| vlpp_metrics::counter(&format!("pool.memo.{name}.{stat}")).get())
}

fn delta(after: [u64; 3], before: [u64; 3]) -> [u64; 3] {
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn two_thread_league_computes_each_artifact_once_and_never_waits() {
    std::env::set_var("VLPP_THREADS", "2");
    assert_eq!(Pool::global().threads(), 2);
    let scale = Scale::new(CI_SCALE_DIVISOR);

    // The zoo alone reads one test trace per workload and no profile.
    let zoo: Vec<String> = zoo::conditional_names()
        .into_iter()
        .chain(zoo::indirect_names())
        .map(String::from)
        .collect();
    let result = run_tournament(scale, Some(&zoo));
    let workloads = result.workloads.len() as u64;
    assert_eq!(workloads, 22);
    let cells = result.cells.len() as u64;
    let [hits, misses, waits] = memo_counts("tourney_traces");
    assert_eq!(misses, workloads, "one trace build per workload");
    assert_eq!(waits, 0, "no lookup blocked on another thread's build");
    assert_eq!(hits, cells, "every cell found its trace built");
    assert_eq!(memo_counts("tourney_profiles"), [0, 0, 0], "the zoo profiles nothing");

    // The full league adds the vlp-* entrants: a profile-input trace and
    // one profile per kind for every workload, all built up front too.
    let traces = memo_counts("tourney_traces");
    let profiles = memo_counts("tourney_profiles");
    let result = run_tournament(scale, None);
    let vlp_cells = result.cells.iter().filter(|c| c.predictor.starts_with("vlp-")).count() as u64;
    let [hits, misses, waits] = delta(memo_counts("tourney_traces"), traces);
    assert_eq!(misses, 2 * workloads, "a test and a profile-input trace per workload");
    assert_eq!(waits, 0);
    assert_eq!(hits, result.cells.len() as u64 + workloads, "cells, and the second profile");
    let [hits, misses, waits] = delta(memo_counts("tourney_profiles"), profiles);
    assert_eq!(misses, 2 * workloads, "a conditional and an indirect profile per workload");
    assert_eq!(waits, 0);
    assert_eq!(hits, vlp_cells);
}
