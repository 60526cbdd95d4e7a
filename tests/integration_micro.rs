//! Analytic validation: on the hand-crafted micro-workloads, predictor
//! results must match what theory says — not statistics, arithmetic.

use vlpp_core::{CondKernel, HashAssignment, IndKernel, PathConfig};
use vlpp_predict::{Bimodal, Gshare, LastTargetBtb};
use vlpp_sim::{run_conditional, run_indirect};
use vlpp_synth::{micro, InputSet};

#[test]
fn counter_schemes_miss_exactly_the_loop_exits() {
    // A trip-8 loop: 2-bit counters mispredict the exit (1 in 8) and,
    // having only moved to weakly-taken, re-predict the backedge
    // correctly — so the rate converges to 1/8.
    let trace = micro::counted_loop(8).execute(InputSet::Test, 64_000);
    let stats = run_conditional(&mut Bimodal::new(10), &trace);
    assert!(
        (stats.miss_rate() - 0.125).abs() < 0.01,
        "bimodal on a trip-8 loop must miss ~12.5%, got {:.3}",
        stats.miss_rate()
    );
}

#[test]
fn history_schemes_learn_the_loop_exit() {
    // gshare with enough history sees the iteration count in the
    // pattern and predicts the exit: near-zero misses after warmup.
    let trace = micro::counted_loop(8).execute(InputSet::Test, 64_000);
    let stats = run_conditional(&mut Gshare::new(12), &trace);
    assert!(
        stats.miss_rate() < 0.01,
        "gshare must learn a trip-8 loop, got {:.3}",
        stats.miss_rate()
    );
    // And so does a path predictor with length >= the loop period.
    let mut path = CondKernel::new(&PathConfig::new(12), &HashAssignment::fixed(10));
    let stats = run_conditional(&mut path, &trace);
    assert!(
        stats.miss_rate() < 0.01,
        "path(10) must learn a trip-8 loop, got {:.3}",
        stats.miss_rate()
    );
}

#[test]
fn correlated_ladder_needs_sufficient_path_length() {
    // The sink branch is a pure function of the last `gap` targets. A
    // path predictor with exactly that length nails it; the ladder's
    // random source branch stays at ~50% for everyone.
    let gap = 6u8;
    let trace = micro::correlated_ladder(gap).execute(InputSet::Test, 120_000);

    let mut enough = CondKernel::new(&PathConfig::new(12), &HashAssignment::fixed(gap));
    let enough_rate = run_conditional(&mut enough, &trace).miss_rate();

    // Expected composition: per loop iteration there are gap+1
    // conditionals — 1 coin flip (~50% missed), gap-1 constants and 1
    // correlated sink (~0 each with enough history).
    let per_iteration = gap as f64 + 1.0;
    let expected = 0.5 / per_iteration;
    assert!(
        (enough_rate - expected).abs() < 0.03,
        "with length {gap}: expected ~{expected:.3}, got {enough_rate:.3}"
    );

    // Length 1 cannot see the source: the sink also degenerates toward
    // a coin flip, roughly doubling the rate.
    let mut short = CondKernel::new(&PathConfig::new(12), &HashAssignment::fixed(1));
    let short_rate = run_conditional(&mut short, &trace).miss_rate();
    assert!(
        short_rate > enough_rate + 0.5 * expected,
        "length 1 ({short_rate:.3}) must be clearly worse than length {gap} ({enough_rate:.3})"
    );
}

#[test]
fn alternating_dispatch_defeats_btb_but_not_path() {
    let trace = micro::alternating_dispatch().execute(InputSet::Test, 30_000);
    let btb_rate = run_indirect(&mut LastTargetBtb::new(8), &trace).miss_rate();
    assert!(
        btb_rate > 0.99,
        "a strict alternation must defeat last-target completely, got {btb_rate:.3}"
    );
    let mut path = IndKernel::new(&PathConfig::new(8), &HashAssignment::fixed(1));
    let path_rate = run_indirect(&mut path, &trace).miss_rate();
    assert!(path_rate < 0.01, "one target of path determines the alternation, got {path_rate:.3}");
}

#[test]
fn nobody_beats_the_coin_flip() {
    let trace = micro::coin_flip().execute(InputSet::Test, 60_000);
    for rate in [
        run_conditional(&mut Gshare::new(12), &trace).miss_rate(),
        run_conditional(&mut Bimodal::new(12), &trace).miss_rate(),
        run_conditional(
            &mut CondKernel::new(&PathConfig::new(12), &HashAssignment::fixed(8)),
            &trace,
        )
        .miss_rate(),
    ] {
        assert!((0.45..=0.60).contains(&rate), "coin flip rate {rate:.3} outside [0.45, 0.60]");
    }
}
