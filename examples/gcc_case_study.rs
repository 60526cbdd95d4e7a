//! The paper's gcc case study (§5.2.3) in miniature: sweep predictor
//! sizes and watch where each scheme wins — the reproduction of
//! Figure 9's shape, runnable in under a minute.
//!
//! ```text
//! cargo run --release -p vlpp-sim --example gcc_case_study
//! ```

use vlpp_core::{CondKernel, HashAssignment, PathConfig};
use vlpp_predict::{Budget, Gshare};
use vlpp_sim::{run_conditional, Kind, Scale, Workloads};
use vlpp_synth::suite;

fn main() {
    // A modest scale keeps this example fast; `vlpp fig9` runs the real
    // thing.
    let workloads = Workloads::new(Scale::new(64));
    let spec = suite::benchmark("gcc").expect("gcc is in the suite");
    let test = workloads.test_trace(&spec);
    println!(
        "gcc case study: {} conditional branches on the test input\n",
        test.conditionals().count()
    );

    println!(
        "{:>6}  {:>8}  {:>8}  {:>10}  {:>8}",
        "size", "gshare", "fixed", "fixed-tuned", "variable"
    );
    for kib in [1u64, 4, 16, 64] {
        let budget = Budget::from_kib(kib);
        let bits = budget.cond_index_bits();
        let config = PathConfig::new(bits);

        let mut gshare = Gshare::new(bits);
        let gshare_rate = run_conditional(&mut gshare, &test).miss_percent();

        // Fixed length: the cross-benchmark best length for this size
        // (Table 2's methodology, computed from profile inputs).
        let length = workloads.best_fixed_length(Kind::Conditional, bits);
        let mut fixed = CondKernel::new(&config, &HashAssignment::fixed(length));
        let fixed_rate = run_conditional(&mut fixed, &test).miss_percent();

        // Tuned fixed length: gcc's own profile-best length.
        let report = workloads.profile(&spec, Kind::Conditional, bits);
        let tuned_length = report.best_fixed_hash();
        let mut tuned = CondKernel::new(&config, &HashAssignment::fixed(tuned_length));
        let tuned_rate = run_conditional(&mut tuned, &test).miss_percent();

        // Variable length: the profiled per-branch assignment.
        let mut variable = CondKernel::new(&config, &report.assignment);
        let variable_rate = run_conditional(&mut variable, &test).miss_percent();

        println!(
            "{:>6}  {:>7.2}%  {:>7.2}%  {:>9.2}%  {:>7.2}%   (lengths: avg={length}, gcc={tuned_length})",
            budget.to_string(),
            gshare_rate,
            fixed_rate,
            tuned_rate,
            variable_rate,
        );
    }

    println!(
        "\nThe shape to look for (paper Figure 9): variable < tuned fixed <\n\
         fixed <= gshare at every size, with the gap widest at small sizes."
    );
}
