//! The front-end cycle experiment: the paper's introduction argues in
//! pipeline-cost terms ("the amount of speculative work that must be
//! thrown away"); this experiment converts each predictor configuration's
//! accuracy — plus the §4.3 HFNT bubble — into fetch cycles per branch.

use vlpp_synth::suite;

use crate::experiment::{Entrant, Kind, Workloads};
use crate::frontend::{run_frontend, FrontendCost, Penalties};
use crate::report::TextTable;

use super::{FIG5_COND_BYTES, FIG7_IND_BYTES};

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
    let configurations = [
        ("gshare + last-target", Entrant::Zoo("gshare"), Entrant::Zoo("btb")),
        ("gshare + pattern cache", Entrant::Zoo("gshare"), Entrant::Zoo("pattern")),
        ("fixed length path", Entrant::Fixed, Entrant::Fixed),
        ("variable length path (+HFNT)", Entrant::Variable, Entrant::Variable),
    ];
    let mut rows = Vec::new();
    for name in ["gcc", "li", "perl", "go"] {
        let spec = suite::benchmark(name).expect("suite benchmark");
        let test = workloads.test_trace(&spec);
        for (configuration, cond, ind) in configurations {
            let mut conditional = workloads.conditional(&spec, cond, FIG5_COND_BYTES);
            let mut indirect = workloads.indirect(&spec, ind, FIG7_IND_BYTES);
            // The variable length predictor pays for its own pipelining.
            let report = (cond == Entrant::Variable).then(|| {
                let bits = Kind::Conditional.index_bits(FIG5_COND_BYTES);
                workloads.profile(&spec, Kind::Conditional, bits)
            });
            let hash_numbers = report.as_ref().map(|report| &report.assignment);
            let penalties = Penalties::default();
            rows.push(FrontendRow {
                benchmark: name.into(),
                configuration: configuration.into(),
                cost: run_frontend(&mut conditional, &mut indirect, hash_numbers, &test, penalties),
            });
        }
    }
    rows
}
