//! A tour of the §3.5 profiling heuristic: what step 1 sees, which
//! candidates survive, how step 2 refines them, and what the final
//! per-branch path lengths look like.
//!
//! ```text
//! cargo run --release -p vlpp-sim --example profiling_workflow
//! ```

use vlpp_core::{CondKernel, HashAssignment, Hfnt, PathConfig, ProfileBuilder, ProfileConfig};
use vlpp_predict::Budget;
use vlpp_sim::frontend::HFNT_SET_BITS;
use vlpp_sim::run_conditional;
use vlpp_synth::{suite, InputSet};

fn main() {
    let spec = suite::benchmark("perl").expect("perl is in the suite");
    let program = spec.build_program();
    let profile_trace = program.execute_conditionals(InputSet::Profile, 400_000);
    let test_trace = program.execute_conditionals(InputSet::Test, 400_000);

    let budget = Budget::from_kib(16);
    let config = PathConfig::new(budget.cond_index_bits());

    // --- Step 1: one fixed length predictor per hash function ----------
    let profile_config = ProfileConfig::new(config.clone());
    println!(
        "profiling perl: hash set HF_1..HF_{}, {} candidates, {} step-2 iterations\n",
        profile_config.hash_set.last().copied().unwrap_or(0),
        profile_config.candidates,
        profile_config.iterations,
    );
    let report = ProfileBuilder::new(profile_config).profile_conditional(&profile_trace);

    println!("step 1: fixed length sweep on the profile input (selected lengths):");
    for stat in report.step1.iter().filter(|s| [1, 2, 4, 8, 12, 16, 24, 32].contains(&s.hash)) {
        let bar = "#".repeat((stat.miss_rate() * 200.0) as usize);
        println!("  HF_{:<2} {:>6.2}%  {}", stat.hash, 100.0 * stat.miss_rate(), bar);
    }
    println!("  -> default hash (best average): HF_{}\n", report.default_hash);

    // --- The final assignment -------------------------------------------
    let histogram = report.assignment.length_histogram();
    println!("final per-branch path lengths ({} branches assigned):", report.profiled_branches);
    for (bucket, label) in [(0..3, "1-3"), (3..8, "4-8"), (8..16, "9-16"), (16..32, "17-32")] {
        let count: usize = histogram[bucket].iter().sum();
        println!("  lengths {label:>5}: {count:>5} branches");
    }

    // --- Payoff on the test input ---------------------------------------
    let mut fixed = CondKernel::new(&config, &HashAssignment::fixed(report.default_hash));
    let fixed_rate = run_conditional(&mut fixed, &test_trace).miss_percent();
    let mut variable = CondKernel::new(&config, &report.assignment);
    let variable_rate = run_conditional(&mut variable, &test_trace).miss_percent();
    println!(
        "\ntest input: fixed (default HF_{}) {:.2}%  ->  variable {:.2}%",
        report.default_hash, fixed_rate, variable_rate
    );

    // --- §4.3: what would the pipelined HFNT pay? ------------------------
    let mut hfnt = Hfnt::new(HFNT_SET_BITS, report.default_hash);
    println!("HFNT (1Ki entries): {}", hfnt.run(test_trace.records(), &report.assignment));
}
