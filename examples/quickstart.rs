//! Quickstart: build a workload, profile it, and compare the variable
//! length path predictor against gshare — the paper's core claim in
//! ~60 lines.
//!
//! ```text
//! cargo run --release -p vlpp-sim --example quickstart
//! ```

use vlpp_core::{CondKernel, HashAssignment, PathConfig, ProfileBuilder, ProfileConfig};
use vlpp_predict::{Budget, Gshare};
use vlpp_sim::run_conditional;
use vlpp_synth::{suite, InputSet};

fn main() {
    // 1. A workload: the synthetic stand-in for SPECint95 gcc.
    //    Profile and test runs use different inputs (run seeds) of the
    //    same generated "binary", as the paper's methodology requires.
    let spec = suite::benchmark("gcc").expect("gcc is in the suite");
    let program = spec.build_program();
    let profile_trace = program.execute_conditionals(InputSet::Profile, 500_000);
    let test_trace = program.execute_conditionals(InputSet::Test, 500_000);
    println!("workload: {} ({} records)", program.name(), test_trace.len());

    // 2. A hardware budget: 4 KB of predictor table, the abstract's
    //    comparison point. 4 KB = 16 Ki two-bit counters = 14 index bits.
    let budget = Budget::from_kib(4);
    let index_bits = budget.cond_index_bits();

    // 3. The baseline: gshare.
    let mut gshare = Gshare::new(index_bits);
    let gshare_stats = run_conditional(&mut gshare, &test_trace);
    println!("gshare @{budget}:               {:.2}%", gshare_stats.miss_percent());

    // 4. The fixed length path predictor: same structure as the paper's
    //    predictor, but one global path length for every branch.
    let config = PathConfig::new(index_bits);
    let mut fixed = CondKernel::new(&config, &HashAssignment::fixed(9));
    let fixed_stats = run_conditional(&mut fixed, &test_trace);
    println!("fixed length path (N=9):      {:.2}%", fixed_stats.miss_percent());

    // 5. The variable length path predictor: profile on the profile
    //    input (the §3.5 two-step heuristic), predict on the test input.
    let profile_config = ProfileConfig::new(config.clone());
    let report = ProfileBuilder::new(profile_config).profile_conditional(&profile_trace);
    println!(
        "profiled {} static branches; default hash HF_{}",
        report.profiled_branches, report.default_hash
    );
    let mut variable = CondKernel::new(&config, &report.assignment);
    let variable_stats = run_conditional(&mut variable, &test_trace);
    println!("variable length path:         {:.2}%", variable_stats.miss_percent());

    let reduction = 1.0 - variable_stats.miss_rate() / gshare_stats.miss_rate();
    println!("=> {:.1}% fewer mispredictions than gshare", 100.0 * reduction);
}
