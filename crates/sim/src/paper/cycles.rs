//! The front-end cycle experiment: the paper's introduction argues in
//! pipeline-cost terms ("the amount of speculative work that must be
//! thrown away"); this experiment converts each predictor configuration's
//! accuracy — plus the §4.3 HFNT bubble — into fetch cycles per branch.

use vlpp_core::{CondKernel, HashAssignment, Hfnt, IndKernel, PathConfig};
use vlpp_predict::{Budget, Gshare, LastTargetBtb, PatternTargetCache};
use vlpp_synth::suite;

use crate::experiment::Workloads;
use crate::frontend::{run_frontend, FrontendCost, Penalties};
use crate::report::TextTable;

/// One front-end configuration's cycle cost on a benchmark.
#[derive(Debug, Clone)]
pub struct FrontendRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Configuration label.
    pub configuration: String,
    /// The cost breakdown.
    pub cost: FrontendCost,
}

vlpp_trace::impl_to_json!(FrontendRow { benchmark, configuration, cost });

impl FrontendRow {
    /// Renders the experiment.
    pub fn render(rows: &[FrontendRow]) -> TextTable {
        let mut table = TextTable::new(vec![
            "benchmark".into(),
            "configuration".into(),
            "cycles/branch".into(),
            "cond misses".into(),
            "ind misses".into(),
            "re-predictions".into(),
        ]);
        for row in rows {
            table.row(vec![
                row.benchmark.clone(),
                row.configuration.clone(),
                format!("{:.3}", row.cost.cycles_per_branch()),
                row.cost.conditional_misses.to_string(),
                row.cost.indirect_misses.to_string(),
                row.cost.repredictions.to_string(),
            ]);
        }
        table
    }
}

/// Front-end configurations on four representative benchmarks
/// (16 KB conditional + 2 KB indirect budgets, default penalties):
///
/// 1. gshare + last-target BTB (a mid-1990s front end);
/// 2. gshare + pattern target cache (Chang–Hao–Patt upgrade);
/// 3. fixed length path for both populations;
/// 4. variable length path for both, *including* the HFNT bubble —
///    i.e. the paper's predictor charged for its own pipelining cost.
pub fn frontend_experiment(workloads: &Workloads) -> Vec<FrontendRow> {
    let cond_bits = Budget::from_bytes(super::FIG5_COND_BYTES).cond_index_bits();
    let ind_bits = Budget::from_bytes(super::FIG7_IND_BYTES).ind_index_bits();
    let penalties = Penalties::default();
    let names = ["gcc", "li", "perl", "go"];
    let mut rows = Vec::new();

    for name in names {
        let spec = suite::benchmark(name).expect("suite benchmark");
        let test = workloads.test_trace(&spec);

        let mut gshare = Gshare::new(cond_bits);
        let mut btb = LastTargetBtb::new(ind_bits);
        rows.push(FrontendRow {
            benchmark: name.into(),
            configuration: "gshare + last-target".into(),
            cost: run_frontend(&mut gshare, &mut btb, None, &test, penalties),
        });

        let mut gshare = Gshare::new(cond_bits);
        let mut pattern = PatternTargetCache::new(ind_bits);
        rows.push(FrontendRow {
            benchmark: name.into(),
            configuration: "gshare + pattern cache".into(),
            cost: run_frontend(&mut gshare, &mut pattern, None, &test, penalties),
        });

        let cond_length = workloads.best_fixed_conditional_length(cond_bits);
        let ind_length = workloads.best_fixed_indirect_length(ind_bits);
        let mut flp_cond =
            CondKernel::new(&PathConfig::new(cond_bits), &HashAssignment::fixed(cond_length));
        let mut flp_ind =
            IndKernel::new(&PathConfig::new(ind_bits), &HashAssignment::fixed(ind_length));
        rows.push(FrontendRow {
            benchmark: name.into(),
            configuration: "fixed length path".into(),
            cost: run_frontend(&mut flp_cond, &mut flp_ind, None, &test, penalties),
        });

        let cond_report = workloads.profile_conditional(&spec, cond_bits);
        let ind_report = workloads.profile_indirect(&spec, ind_bits);
        let mut vlp_cond = CondKernel::new(&PathConfig::new(cond_bits), &cond_report.assignment);
        let mut vlp_ind = IndKernel::new(&PathConfig::new(ind_bits), &ind_report.assignment);
        let mut hfnt = Hfnt::new(10, cond_report.default_hash);
        let assignment = cond_report.assignment.clone();
        let lookup = move |pc: vlpp_trace::Addr| assignment.get(pc);
        rows.push(FrontendRow {
            benchmark: name.into(),
            configuration: "variable length path (+HFNT)".into(),
            cost: run_frontend(
                &mut vlp_cond,
                &mut vlp_ind,
                Some((&mut hfnt, &lookup)),
                &test,
                penalties,
            ),
        });
    }
    rows
}
