//! The related-work shootout: every predictor family the paper's §2
//! surveys, on the gcc workload, at the paper's budgets. This is the
//! experiment the paper implies but never runs in one table — it places
//! the variable length path predictor among *all* its relatives:
//! interference-reducing schemes (bi-mode, agree), adaptive-history
//! schemes (DHLF, elastic gshare), hybrids (McFarling, Driesen–Hölzle
//! dual-length), and the per-address-vs-global path question.

use vlpp_core::{elastic, DualLengthPathIndirect, ElasticGshare, PathConfig};
use vlpp_predict::{Agree, BiMode, Bimodal, ConditionalPredictor, Gshare, Hybrid};
use vlpp_synth::suite;

use crate::experiment::{Entrant, Kind, Workloads};
use crate::report::{percent, TextTable};
use crate::runner::{run_conditional, run_indirect};

use super::{FIG5_COND_BYTES, FIG7_IND_BYTES};

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

fn rows(rates: Vec<(&str, f64)>) -> Vec<RelatedRow> {
    rates
        .into_iter()
        .map(|(label, rate)| RelatedRow { predictor: label.to_string(), rate })
        .collect()
}

/// Conditional predictors on gcc at the Figure 5 budget (16 KB of
/// second-level table; multi-table schemes split it). The zoo members
/// and the path predictor come from the shared [`Entrant`] recipe; the
/// designs the zoo lacks are built here.
pub fn related_conditional(workloads: &Workloads) -> Vec<RelatedRow> {
    let gcc = suite::benchmark("gcc").expect("gcc");
    let test = workloads.test_trace(&gcc);
    let bits = Kind::Conditional.index_bits(FIG5_COND_BYTES);
    let shared = [
        Entrant::Zoo("bimodal"),
        Entrant::Zoo("gshare"),
        Entrant::Zoo("dhlf"),
        Entrant::Fixed,
        Entrant::Variable,
    ];
    let rates = workloads.rates(&gcc, Kind::Conditional, FIG5_COND_BYTES, &shared);
    let own = |mut predictor: Box<dyn ConditionalPredictor>| {
        run_conditional(&mut predictor, &test).miss_rate()
    };
    let lengths = elastic::profile_lengths(&workloads.profile_trace(&gcc), bits);
    rows(vec![
        ("bimodal", rates[0]),
        ("gshare", rates[1]),
        // Bi-mode: two direction tables + choice table, same total budget.
        ("bi-mode", own(Box::new(BiMode::new(bits - 1, bits - 1)))),
        ("agree", own(Box::new(Agree::new(bits, bits - 2)))),
        (
            "hybrid gshare/bimodal",
            own(Box::new(Hybrid::new(Gshare::new(bits - 1), Bimodal::new(bits - 1), 12))),
        ),
        ("dhlf", rates[2]),
        ("elastic gshare (profiled)", own(Box::new(ElasticGshare::new(bits, lengths)))),
        ("fixed length path", rates[3]),
        ("variable length path", rates[4]),
    ])
}

/// Indirect predictors on gcc at the Figure 7 budget (2 KB of target
/// storage; the dual-length hybrid splits it).
pub fn related_indirect(workloads: &Workloads) -> Vec<RelatedRow> {
    let gcc = suite::benchmark("gcc").expect("gcc");
    let test = workloads.test_trace(&gcc);
    let bits = Kind::Indirect.index_bits(FIG7_IND_BYTES);
    let shared = [
        Entrant::Zoo("btb"),
        Entrant::Zoo("peraddr"),
        Entrant::Zoo("path"),
        Entrant::Zoo("pattern"),
        Entrant::Fixed,
        Entrant::Variable,
    ];
    let rates = workloads.rates(&gcc, Kind::Indirect, FIG7_IND_BYTES, &shared);
    // Dual-length hybrid: two half-size components.
    let mut dual = DualLengthPathIndirect::new(PathConfig::new(bits - 1), 2, 12, 10);
    rows(vec![
        ("last-target", rates[0]),
        ("per-address path", rates[1]),
        ("path (Chang, Hao, and Patt)", rates[2]),
        ("pattern (Chang, Hao, and Patt)", rates[3]),
        ("dual-length path hybrid", run_indirect(&mut dual, &test).miss_rate()),
        ("fixed length path", rates[4]),
        ("variable length path", rates[5]),
    ])
}
