//! The related-work shootout: every predictor family the paper's §2
//! surveys, on the gcc workload, at the paper's budgets. This is the
//! experiment the paper implies but never runs in one table — it places
//! the variable length path predictor among *all* its relatives:
//! interference-reducing schemes (bi-mode, agree), adaptive-history
//! schemes (DHLF, elastic gshare), hybrids (McFarling, Driesen–Hölzle
//! dual-length), and the per-address-vs-global path question.

use vlpp_core::{
    elastic, CondKernel, DualLengthPathIndirect, ElasticGshare, HashAssignment, IndKernel,
    PathConfig,
};
use vlpp_predict::{
    Agree, BiMode, Bimodal, Budget, Dhlf, Gshare, Hybrid, LastTargetBtb, PathTargetCache,
    PatternTargetCache, PerAddressPathCache,
};
use vlpp_synth::suite;

use crate::experiment::Workloads;
use crate::report::{percent, TextTable};
use crate::runner::{run_conditional, run_indirect};

use super::{BASELINE_PATH_BITS_PER_TARGET, FIG5_COND_BYTES, FIG7_IND_BYTES};

/// One predictor's result in a related-work comparison.
#[derive(Debug, Clone)]
pub struct RelatedRow {
    /// Predictor label.
    pub predictor: String,
    /// Misprediction rate in [0, 1].
    pub rate: f64,
}

vlpp_trace::impl_to_json!(RelatedRow { predictor, rate });

impl RelatedRow {
    /// Renders the comparison, best rate last.
    pub fn render(rows: &[RelatedRow]) -> TextTable {
        let mut sorted = rows.to_vec();
        sorted.sort_by(|a, b| b.rate.partial_cmp(&a.rate).expect("rates are finite"));
        let mut table = TextTable::new(vec!["predictor".into(), "misprediction rate".into()]);
        for row in &sorted {
            table.row(vec![row.predictor.clone(), percent(row.rate)]);
        }
        table
    }
}

/// Conditional predictors on gcc at the Figure 5 budget (16 KB of
/// second-level table; multi-table schemes split it).
pub fn related_conditional(workloads: &Workloads) -> Vec<RelatedRow> {
    let spec = suite::benchmark("gcc").expect("gcc");
    let test = workloads.test_trace(&spec);
    let profile = workloads.profile_trace(&spec);
    let bits = Budget::from_bytes(FIG5_COND_BYTES).cond_index_bits();
    let mut rows = Vec::new();
    let mut push =
        |label: &str, rate: f64| rows.push(RelatedRow { predictor: label.to_string(), rate });

    push("bimodal", run_conditional(&mut Bimodal::new(bits), &test).miss_rate());
    push("gshare", run_conditional(&mut Gshare::new(bits), &test).miss_rate());
    // Bi-mode: two direction tables + choice table, same total budget.
    push("bi-mode", run_conditional(&mut BiMode::new(bits - 1, bits - 1), &test).miss_rate());
    push("agree", run_conditional(&mut Agree::new(bits, bits - 2), &test).miss_rate());
    push(
        "hybrid gshare/bimodal",
        run_conditional(&mut Hybrid::new(Gshare::new(bits - 1), Bimodal::new(bits - 1), 12), &test)
            .miss_rate(),
    );
    push("dhlf", run_conditional(&mut Dhlf::new(bits, 4096), &test).miss_rate());

    let lengths = elastic::profile_lengths(&profile, bits);
    push(
        "elastic gshare (profiled)",
        run_conditional(&mut ElasticGshare::new(bits, lengths), &test).miss_rate(),
    );

    let config = PathConfig::new(bits);
    let fixed = HashAssignment::fixed(workloads.best_fixed_conditional_length(bits));
    push(
        "fixed length path",
        run_conditional(&mut CondKernel::new(&config, &fixed), &test).miss_rate(),
    );
    let report = workloads.profile_conditional(&spec, bits);
    push(
        "variable length path",
        run_conditional(&mut CondKernel::new(&config, &report.assignment), &test).miss_rate(),
    );
    rows
}

/// Indirect predictors on gcc at the Figure 7 budget (2 KB of target
/// storage; the dual-length hybrid splits it).
pub fn related_indirect(workloads: &Workloads) -> Vec<RelatedRow> {
    let spec = suite::benchmark("gcc").expect("gcc");
    let test = workloads.test_trace(&spec);
    let bits = Budget::from_bytes(FIG7_IND_BYTES).ind_index_bits();
    let mut rows = Vec::new();
    let mut push =
        |label: &str, rate: f64| rows.push(RelatedRow { predictor: label.to_string(), rate });

    push("last-target", run_indirect(&mut LastTargetBtb::new(bits), &test).miss_rate());
    push(
        "per-address path",
        run_indirect(&mut PerAddressPathCache::new(bits, 3, 10), &test).miss_rate(),
    );
    push(
        "path (Chang, Hao, and Patt)",
        run_indirect(&mut PathTargetCache::new(bits, BASELINE_PATH_BITS_PER_TARGET), &test)
            .miss_rate(),
    );
    push(
        "pattern (Chang, Hao, and Patt)",
        run_indirect(&mut PatternTargetCache::new(bits), &test).miss_rate(),
    );
    // Dual-length hybrid: two half-size components.
    push(
        "dual-length path hybrid",
        run_indirect(&mut DualLengthPathIndirect::new(PathConfig::new(bits - 1), 2, 12, 10), &test)
            .miss_rate(),
    );
    let config = PathConfig::new(bits);
    let fixed = HashAssignment::fixed(workloads.best_fixed_indirect_length(bits));
    push(
        "fixed length path",
        run_indirect(&mut IndKernel::new(&config, &fixed), &test).miss_rate(),
    );
    let report = workloads.profile_indirect(&spec, bits);
    push(
        "variable length path",
        run_indirect(&mut IndKernel::new(&config, &report.assignment), &test).miss_rate(),
    );
    rows
}
