//! Ablations of the design choices DESIGN.md calls out. All run on the
//! gcc workload (the paper's case study) at 16 KB (conditional) / 2 KB
//! (indirect).

use vlpp_core::{
    CondKernel, DynamicPathConditional, HashAssignment, IndKernel, PathConfig, ProfileConfig,
};
use vlpp_predict::Budget;
use vlpp_synth::suite;

use crate::experiment::{profile_on_pool, Kind, Workloads};
use crate::report::{percent, TextTable};
use crate::runner::{run_conditional, run_indirect};

/// One ablation variant's outcome.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Misprediction rate in [0, 1].
    pub rate: f64,
}

vlpp_trace::impl_to_json!(AblationRow { variant, rate });

impl AblationRow {
    /// Renders ablation rows.
    pub fn render(rows: &[AblationRow]) -> TextTable {
        let mut table = TextTable::new(vec!["variant".into(), "misprediction rate".into()]);
        for row in rows {
            table.row(vec![row.variant.clone(), percent(row.rate)]);
        }
        table
    }
}

fn gcc_cond_bits() -> u32 {
    Budget::from_bytes(super::FIG5_COND_BYTES).cond_index_bits()
}

/// §3.1 note: implementing only a subset of the hash functions
/// (HF₁, HF₂, HF₄, … HF₃₂) instead of all 32.
pub fn ablate_subset_hashes(workloads: &Workloads) -> Vec<AblationRow> {
    let spec = suite::benchmark("gcc").expect("gcc");
    let bits = gcc_cond_bits();
    let test = workloads.test_trace(&spec);
    let profile = workloads.profile_trace(&spec);

    let run_with_hash_set = |hash_set: Vec<u8>, label: &str| {
        let config = ProfileConfig::new(PathConfig::new(bits)).with_hash_set(hash_set);
        let report = profile_on_pool(Kind::Conditional, config, &profile);
        let mut kernel = CondKernel::new(&PathConfig::new(bits), &report.assignment);
        AblationRow {
            variant: label.to_string(),
            rate: run_conditional(&mut kernel, &test).miss_rate(),
        }
    };

    vec![
        run_with_hash_set((1..=32).collect(), "all 32 hash functions"),
        run_with_hash_set(vec![1, 2, 4, 8, 16, 32], "powers of two only"),
        run_with_hash_set(vec![1, 4, 16], "three hash functions"),
        run_with_hash_set(vec![8], "single hash function (fixed length 8)"),
    ]
}

/// §3.4 hardware-only selection vs profile-guided selection.
pub fn ablate_dynamic_select(workloads: &Workloads) -> Vec<AblationRow> {
    let spec = suite::benchmark("gcc").expect("gcc");
    let bits = gcc_cond_bits();
    let test = workloads.test_trace(&spec);
    let report = workloads.profile_conditional(&spec, bits);

    let mut profiled = CondKernel::new(&PathConfig::new(bits), &report.assignment);
    let profile_rate = run_conditional(&mut profiled, &test).miss_rate();

    let mut dynamic =
        DynamicPathConditional::new(&PathConfig::new(bits), &[1, 2, 4, 8, 16, 32], 10);
    let dynamic_rate = run_conditional(&mut dynamic, &test).miss_rate();

    let mut fixed =
        CondKernel::new(&PathConfig::new(bits), &HashAssignment::fixed(report.default_hash));
    let fixed_rate = run_conditional(&mut fixed, &test).miss_rate();

    vec![
        AblationRow { variant: "profile-selected (VLP)".into(), rate: profile_rate },
        AblationRow { variant: "hardware-selected (§3.4)".into(), rate: dynamic_rate },
        AblationRow { variant: "fixed default length".into(), rate: fixed_rate },
    ]
}

/// §3.2: storing vs dropping return targets in the THB. The paper found
/// accuracy "does not strongly depend" on this.
pub fn ablate_returns(workloads: &Workloads) -> Vec<AblationRow> {
    let spec = suite::benchmark("gcc").expect("gcc");
    let bits = gcc_cond_bits();
    let test = workloads.test_trace(&spec);
    let profile = workloads.profile_trace(&spec);

    let run_variant = |config: PathConfig, label: &str| {
        let profile_config = ProfileConfig::new(config.clone());
        let report = profile_on_pool(Kind::Conditional, profile_config, &profile);
        let mut kernel = CondKernel::new(&config, &report.assignment);
        AblationRow {
            variant: label.to_string(),
            rate: run_conditional(&mut kernel, &test).miss_rate(),
        }
    };

    vec![
        run_variant(PathConfig::new(bits), "returns excluded (paper default)"),
        run_variant(PathConfig::new(bits).with_returns(), "returns recorded"),
    ]
}

/// Sensitivity to the profiling heuristic's candidate count and
/// iteration count (paper: 3 candidates, 7 iterations).
pub fn ablate_candidates(workloads: &Workloads) -> Vec<AblationRow> {
    let spec = suite::benchmark("gcc").expect("gcc");
    let bits = gcc_cond_bits();
    let test = workloads.test_trace(&spec);
    let profile = workloads.profile_trace(&spec);

    let run_variant = |candidates: usize, iterations: usize| {
        let config = ProfileConfig::new(PathConfig::new(bits))
            .with_candidates(candidates)
            .with_iterations(iterations);
        let report = profile_on_pool(Kind::Conditional, config, &profile);
        let mut kernel = CondKernel::new(&PathConfig::new(bits), &report.assignment);
        AblationRow {
            variant: format!("{candidates} candidates, {iterations} iterations"),
            rate: run_conditional(&mut kernel, &test).miss_rate(),
        }
    };

    vec![
        run_variant(1, 1),
        run_variant(2, 4),
        run_variant(3, 7), // the paper's setting
        run_variant(5, 10),
    ]
}

/// Step 2's purpose is interference reduction: VLP accuracy with step 1
/// only (candidates chosen on private tables) vs steps 1+2.
pub fn ablate_interference(workloads: &Workloads) -> Vec<AblationRow> {
    let spec = suite::benchmark("gcc").expect("gcc");
    let bits = gcc_cond_bits();
    let test = workloads.test_trace(&spec);
    let profile = workloads.profile_trace(&spec);

    let run_variant = |iterations: usize, label: &str| {
        let config = ProfileConfig::new(PathConfig::new(bits)).with_iterations(iterations);
        let report = profile_on_pool(Kind::Conditional, config, &profile);
        let mut kernel = CondKernel::new(&PathConfig::new(bits), &report.assignment);
        AblationRow {
            variant: label.to_string(),
            rate: run_conditional(&mut kernel, &test).miss_rate(),
        }
    };

    vec![
        run_variant(0, "step 1 only (no interference pass)"),
        run_variant(3, "3 step-2 iterations"),
        run_variant(7, "7 step-2 iterations (paper)"),
    ]
}

/// §6 future work: the call/return history stack, on the indirect side
/// where the paper expected it to help.
pub fn ablate_history_stack(workloads: &Workloads) -> Vec<AblationRow> {
    let spec = suite::benchmark("gcc").expect("gcc");
    let bits = Budget::from_bytes(super::FIG7_IND_BYTES).ind_index_bits();
    let test = workloads.test_trace(&spec);
    let profile = workloads.profile_trace(&spec);

    let run_variant = |config: PathConfig, label: &str| {
        let profile_config = ProfileConfig::new(config.clone());
        let report = profile_on_pool(Kind::Indirect, profile_config, &profile);
        AblationRow {
            variant: label.to_string(),
            rate: run_indirect(&mut IndKernel::new(&config, &report.assignment), &test).miss_rate(),
        }
    };

    vec![
        run_variant(PathConfig::new(bits), "no history stack (paper)"),
        run_variant(PathConfig::new(bits).with_history_stack(16), "16-entry history stack"),
    ]
}
