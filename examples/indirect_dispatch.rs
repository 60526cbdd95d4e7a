//! Indirect-branch prediction on interpreter-style workloads: the
//! paper's strongest result. Compares the Chang–Hao–Patt target caches
//! against fixed and variable length path prediction on the benchmarks
//! the paper bolds in Figures 7–8.
//!
//! ```text
//! cargo run --release -p vlpp-sim --example indirect_dispatch
//! ```

use vlpp_core::{HashAssignment, IndKernel, PathConfig};
use vlpp_predict::{Budget, LastTargetBtb, PathTargetCache, PatternTargetCache};
use vlpp_sim::{run_indirect, Kind, Scale, Workloads};
use vlpp_synth::suite;

fn main() {
    let workloads = Workloads::new(Scale::new(64));
    let budget = Budget::from_kib(2); // the paper's Figure 7/8 budget
    let bits = budget.ind_index_bits();

    println!(
        "indirect branch prediction @ {budget} ({} target-table entries)\n",
        budget.ind_entries()
    );
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "benchmark", "last-tgt", "path-CHP", "pattern", "fixed", "variable"
    );

    // Four of the paper's high-indirect-frequency benchmarks.
    for name in ["li", "perl", "groff", "python"] {
        let spec = suite::benchmark(name).expect("benchmark exists");
        let test = workloads.test_trace(&spec);

        // The floor: a BTB-style last-target table.
        let mut btb = LastTargetBtb::new(bits);
        let btb_rate = run_indirect(&mut btb, &test).miss_percent();

        // The paper's baselines: tagless target caches.
        let mut path_cache = PathTargetCache::new(bits, 3);
        let path_rate = run_indirect(&mut path_cache, &test).miss_percent();
        let mut pattern_cache = PatternTargetCache::new(bits);
        let pattern_rate = run_indirect(&mut pattern_cache, &test).miss_percent();

        // The paper's contribution, without and with profiling.
        let config = PathConfig::new(bits);
        let fixed_length = workloads.best_fixed_length(Kind::Indirect, bits);
        let mut fixed = IndKernel::new(&config, &HashAssignment::fixed(fixed_length));
        let fixed_rate = run_indirect(&mut fixed, &test).miss_percent();

        let report = workloads.profile(&spec, Kind::Indirect, bits);
        let mut variable = IndKernel::new(&config, &report.assignment);
        let variable_rate = run_indirect(&mut variable, &test).miss_percent();

        println!(
            "{:<10} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}%",
            name, btb_rate, path_rate, pattern_rate, fixed_rate, variable_rate
        );
    }

    println!(
        "\nThe shape to look for (paper Figures 7-8, Table 3): the deep-path\n\
         predictors (fixed/variable) far below both target caches, and the\n\
         variable length path predictor best overall."
    );
}
