//! Ablations of the design choices DESIGN.md calls out. All run on the
//! gcc workload (the paper's case study) at 16 KB (conditional) / 2 KB
//! (indirect).

use vlpp_core::{CondKernel, DynamicPathConditional, IndKernel, PathConfig, ProfileConfig};
use vlpp_synth::{suite, BenchmarkSpec};

use crate::experiment::{profile_on_pool, Entrant, Kind, Workloads};
use crate::report::{percent, TextTable};
use crate::runner::{run_conditional, run_indirect};

use super::{FIG5_COND_BYTES, FIG7_IND_BYTES};

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

fn gcc() -> BenchmarkSpec {
    suite::benchmark("gcc").expect("gcc")
}

/// The paper's profile of a 16 KB conditional table.
fn cond_config() -> ProfileConfig {
    ProfileConfig::new(PathConfig::new(Kind::Conditional.index_bits(FIG5_COND_BYTES)))
}

/// Profiles gcc's `kind` branches under each variant's config, then
/// scores the assignment on gcc's test input with a path predictor of
/// the structure that config profiled for.
fn profile_then_score(
    workloads: &Workloads,
    kind: Kind,
    variants: Vec<(String, ProfileConfig)>,
) -> Vec<AblationRow> {
    let gcc = gcc();
    let (profile, test) = (workloads.profile_trace(&gcc), workloads.test_trace(&gcc));
    let score = |(variant, config): (String, ProfileConfig)| {
        let path = config.path.clone();
        let assignment = profile_on_pool(kind, config, &profile).assignment;
        let stats = match kind {
            Kind::Conditional => run_conditional(&mut CondKernel::new(&path, &assignment), &test),
            Kind::Indirect => run_indirect(&mut IndKernel::new(&path, &assignment), &test),
        };
        AblationRow { variant, rate: stats.miss_rate() }
    };
    variants.into_iter().map(score).collect()
}

/// §3.1 note: implementing only a subset of the hash functions
/// (HF₁, HF₂, HF₄, … HF₃₂) instead of all 32.
pub fn ablate_subset_hashes(workloads: &Workloads) -> Vec<AblationRow> {
    let variant =
        |hash_set: Vec<u8>, label: &str| (label.to_string(), cond_config().with_hash_set(hash_set));
    let variants = vec![
        variant((1..=32).collect(), "all 32 hash functions"),
        variant(vec![1, 2, 4, 8, 16, 32], "powers of two only"),
        variant(vec![1, 4, 16], "three hash functions"),
        variant(vec![8], "single hash function (fixed length 8)"),
    ];
    profile_then_score(workloads, Kind::Conditional, variants)
}

/// §3.4 hardware-only selection vs profile-guided selection.
pub fn ablate_dynamic_select(workloads: &Workloads) -> Vec<AblationRow> {
    let gcc = gcc();
    let profiled = [Entrant::Variable, Entrant::Tuned];
    let rates = workloads.rates(&gcc, Kind::Conditional, FIG5_COND_BYTES, &profiled);
    let mut dynamic = DynamicPathConditional::new(&cond_config().path, &[1, 2, 4, 8, 16, 32], 10);
    let dynamic_rate = run_conditional(&mut dynamic, &workloads.test_trace(&gcc)).miss_rate();
    vec![
        AblationRow { variant: "profile-selected (VLP)".into(), rate: rates[0] },
        AblationRow { variant: "hardware-selected (§3.4)".into(), rate: dynamic_rate },
        AblationRow { variant: "fixed default length".into(), rate: rates[1] },
    ]
}

/// §3.2: storing vs dropping return targets in the THB. The paper found
/// accuracy "does not strongly depend" on this.
pub fn ablate_returns(workloads: &Workloads) -> Vec<AblationRow> {
    let path = cond_config().path;
    let variants = vec![
        ("returns excluded (paper default)".to_string(), ProfileConfig::new(path.clone())),
        ("returns recorded".to_string(), ProfileConfig::new(path.with_returns())),
    ];
    profile_then_score(workloads, Kind::Conditional, variants)
}

/// Sensitivity to the profiling heuristic's candidate count and
/// iteration count (paper: 3 candidates, 7 iterations).
pub fn ablate_candidates(workloads: &Workloads) -> Vec<AblationRow> {
    // (3, 7) is the paper's setting.
    let variants = [(1, 1), (2, 4), (3, 7), (5, 10)]
        .into_iter()
        .map(|(candidates, iterations)| {
            let config = cond_config().with_candidates(candidates).with_iterations(iterations);
            (format!("{candidates} candidates, {iterations} iterations"), config)
        })
        .collect();
    profile_then_score(workloads, Kind::Conditional, variants)
}

/// Step 2's purpose is interference reduction: VLP accuracy with step 1
/// only (candidates chosen on private tables) vs steps 1+2.
pub fn ablate_interference(workloads: &Workloads) -> Vec<AblationRow> {
    let variant = |iterations: usize, label: &str| {
        (label.to_string(), cond_config().with_iterations(iterations))
    };
    let variants = vec![
        variant(0, "step 1 only (no interference pass)"),
        variant(3, "3 step-2 iterations"),
        variant(7, "7 step-2 iterations (paper)"),
    ];
    profile_then_score(workloads, Kind::Conditional, variants)
}

/// §6 future work: the call/return history stack, on the indirect side
/// where the paper expected it to help.
pub fn ablate_history_stack(workloads: &Workloads) -> Vec<AblationRow> {
    let path = PathConfig::new(Kind::Indirect.index_bits(FIG7_IND_BYTES));
    let variants = vec![
        ("no history stack (paper)".to_string(), ProfileConfig::new(path.clone())),
        ("16-entry history stack".to_string(), ProfileConfig::new(path.with_history_stack(16))),
    ];
    profile_then_score(workloads, Kind::Indirect, variants)
}
