//! End-to-end integration: generate a workload, drive every predictor
//! family over it, profile, and verify the paper's qualitative claims
//! hold across the crate boundaries.

use vlpp_core::{CondKernel, HashAssignment, IndKernel, PathConfig};
use vlpp_predict::{
    Bimodal, Budget, Gas, Gshare, LastTargetBtb, Pas, PathTargetCache, PatternTargetCache,
};
use vlpp_sim::{run_conditional, run_indirect, Kind, Scale, Workloads};
use vlpp_synth::suite;

#[test]
fn every_benchmark_runs_every_conditional_predictor() {
    let workloads = Workloads::new(Scale::new(2_000_000)); // 50 K floor
    let bits = Budget::from_kib(4).cond_index_bits();
    for spec in suite::all_benchmarks() {
        let test = workloads.test_trace(&spec);
        let rates = [
            run_conditional(&mut Gshare::new(bits), &test).miss_rate(),
            run_conditional(&mut Bimodal::new(bits), &test).miss_rate(),
            run_conditional(&mut Gas::new(bits - 2, 2), &test).miss_rate(),
            run_conditional(&mut Pas::new(8, 10, 4), &test).miss_rate(),
            run_conditional(
                &mut CondKernel::new(&PathConfig::new(bits), &HashAssignment::fixed(8)),
                &test,
            )
            .miss_rate(),
        ];
        for (i, rate) in rates.iter().enumerate() {
            assert!(
                (0.0..=0.75).contains(rate),
                "{}: predictor {i} rate {rate} out of plausible range",
                spec.name
            );
        }
    }
}

#[test]
fn indirect_predictors_rank_as_the_paper_found() {
    // On the high-indirect interpreter benchmarks, deep-path prediction
    // beats both Chang-Hao-Patt caches, which beat last-target.
    let workloads = Workloads::new(Scale::new(500_000));
    let bits = Budget::from_kib(2).ind_index_bits();
    let mut deep_wins = 0;
    let mut cache_beats_btb = 0;
    let names = ["li", "perl", "groff", "gs", "python"];
    for name in names {
        let spec = suite::benchmark(name).unwrap();
        let test = workloads.test_trace(&spec);
        let btb = run_indirect(&mut LastTargetBtb::new(bits), &test).miss_rate();
        let pattern = run_indirect(&mut PatternTargetCache::new(bits), &test).miss_rate();
        let path = run_indirect(&mut PathTargetCache::new(bits, 3), &test).miss_rate();
        let mut flp = IndKernel::new(&PathConfig::new(bits), &HashAssignment::fixed(5));
        let deep = run_indirect(&mut flp, &test).miss_rate();
        // The paper's claim is against the *pattern* cache (its Table 3
        // comparison column); the shallow path cache trades wins.
        if deep < pattern {
            deep_wins += 1;
        }
        if pattern.min(path) < btb {
            cache_beats_btb += 1;
        }
    }
    assert!(
        deep_wins >= 4,
        "deep path should beat the pattern cache on most interpreters: {deep_wins}/5"
    );
    assert!(cache_beats_btb >= 4, "history should beat last-target: {cache_beats_btb}/5");
}

#[test]
fn profiling_transfers_across_inputs() {
    // An assignment profiled on the profile input must still beat the
    // fixed default on the *test* input — the paper's whole methodology
    // depends on this transfer.
    let workloads = Workloads::new(Scale::new(500_000));
    let bits = Budget::from_kib(16).cond_index_bits();
    let mut improved = 0;
    let names = ["gcc", "perl", "li", "go"];
    for name in names {
        let spec = suite::benchmark(name).unwrap();
        let report = workloads.profile(&spec, Kind::Conditional, bits);
        let test = workloads.test_trace(&spec);
        let mut fixed =
            CondKernel::new(&PathConfig::new(bits), &HashAssignment::fixed(report.default_hash));
        let fixed_rate = run_conditional(&mut fixed, &test).miss_rate();
        let mut variable = CondKernel::new(&PathConfig::new(bits), &report.assignment);
        let variable_rate = run_conditional(&mut variable, &test).miss_rate();
        if variable_rate < fixed_rate {
            improved += 1;
        }
    }
    assert!(improved >= 3, "profiling should transfer on most benchmarks: {improved}/4");
}

#[test]
fn bigger_tables_do_not_hurt_once_trained() {
    // Capacity monotonicity within what the trace can train: a larger
    // table must not hurt, *provided* its history/context can warm up.
    // (gshare's history length grows with the table, so at tiny trace
    // lengths a 16 KB gshare genuinely loses to a 1 KB one — a training
    // time effect the paper's §5.3 discussion predicts. We therefore
    // use a trace long enough to train the sizes compared.)
    let workloads = Workloads::new(Scale::new(64));
    let spec = suite::benchmark("gcc").unwrap();
    let test = workloads.test_trace(&spec);
    let small_bits = Budget::from_kib(1).cond_index_bits();
    let large_bits = Budget::from_kib(16).cond_index_bits();

    let small = run_conditional(&mut Gshare::new(small_bits), &test).miss_rate();
    let large = run_conditional(&mut Gshare::new(large_bits), &test).miss_rate();
    assert!(large <= small + 0.01, "gshare: 16KB ({large}) worse than 1KB ({small})");

    let mut flp_small = CondKernel::new(&PathConfig::new(small_bits), &HashAssignment::fixed(8));
    let mut flp_large = CondKernel::new(&PathConfig::new(large_bits), &HashAssignment::fixed(8));
    let small = run_conditional(&mut flp_small, &test).miss_rate();
    let large = run_conditional(&mut flp_large, &test).miss_rate();
    assert!(large <= small + 0.01, "path: 16KB ({large}) worse than 1KB ({small})");
}
