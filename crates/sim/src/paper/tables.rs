//! Tables 1–3 of the paper.

use vlpp_predict::Budget;
use vlpp_synth::suite;
use vlpp_trace::stats::TraceStats;

use crate::experiment::{Kind, Workloads};
use crate::report::{human_count, percent, TextTable};

use super::comparisons::{indirect_comparison, IndRow};
use super::{COND_SIZES, FIG7_IND_BYTES, IND_SIZES};

/// One row of Table 1: a benchmark's branch demographics.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Dynamic conditional branches executed.
    pub conditional_dynamic: u64,
    /// Static conditional branch sites executed.
    pub conditional_static: u64,
    /// Dynamic indirect branches executed (returns excluded).
    pub indirect_dynamic: u64,
    /// Static indirect branch sites executed.
    pub indirect_static: u64,
}

vlpp_trace::impl_to_json!(Table1Row {
    benchmark,
    conditional_dynamic,
    conditional_static,
    indirect_dynamic,
    indirect_static,
});

/// Table 1: benchmark summary — dynamic and static conditional/indirect
/// branch counts on the test input, at the context's scale.
///
/// Static site counts are also available from the generated programs
/// (they match the paper exactly by construction); this table reports
/// the *executed* statics, as the paper's instrumentation did.
pub fn table1(workloads: &Workloads) -> Vec<Table1Row> {
    vlpp_pool::Pool::global().map(suite::all_benchmarks(), |spec| {
        let trace = workloads.test_trace(&spec);
        let stats = TraceStats::from_trace(&trace);
        Table1Row {
            benchmark: spec.name.clone(),
            conditional_dynamic: stats.conditional.dynamic,
            conditional_static: stats.conditional.static_,
            indirect_dynamic: stats.indirect.dynamic,
            indirect_static: stats.indirect.static_,
        }
    })
}

impl Table1Row {
    /// Renders rows in the paper's Table 1 layout.
    pub fn render(rows: &[Table1Row]) -> TextTable {
        let mut table = TextTable::new(vec![
            "benchmark".into(),
            "cond dynamic".into(),
            "cond static".into(),
            "ind dynamic".into(),
            "ind static".into(),
        ]);
        for row in rows {
            table.row(vec![
                row.benchmark.clone(),
                human_count(row.conditional_dynamic),
                row.conditional_static.to_string(),
                human_count(row.indirect_dynamic),
                row.indirect_static.to_string(),
            ]);
        }
        table
    }
}

/// Table 2: the best fixed path length per predictor-table size,
/// measured on the profile inputs and averaged over all 16 benchmarks.
#[derive(Debug, Clone)]
pub struct Table2Data {
    /// `(table size in bytes, best path length)` for conditional tables.
    pub conditional: Vec<(u64, u8)>,
    /// `(table size in bytes, best path length)` for indirect tables.
    pub indirect: Vec<(u64, u8)>,
}

vlpp_trace::impl_to_json!(Table2Data { conditional, indirect });

/// Computes Table 2 with the paper's methodology: for each size, the
/// path length minimizing the benchmark-averaged misprediction rate on
/// the *profile* input sets.
pub fn table2(workloads: &Workloads) -> Table2Data {
    let lengths = |kind: Kind, sizes: &[u64]| {
        let best =
            |&bytes: &u64| (bytes, workloads.best_fixed_length(kind, kind.index_bits(bytes)));
        sizes.iter().map(best).collect()
    };
    Table2Data {
        conditional: lengths(Kind::Conditional, &COND_SIZES),
        indirect: lengths(Kind::Indirect, &IND_SIZES),
    }
}

impl Table2Data {
    /// Renders both halves of Table 2.
    pub fn render(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "population".into(),
            "table size".into(),
            "best path length".into(),
        ]);
        for &(bytes, length) in &self.conditional {
            table.row(vec![
                "conditional".into(),
                Budget::from_bytes(bytes).to_string(),
                length.to_string(),
            ]);
        }
        for &(bytes, length) in &self.indirect {
            table.row(vec![
                "indirect".into(),
                Budget::from_bytes(bytes).to_string(),
                length.to_string(),
            ]);
        }
        table
    }
}

/// Table 3: indirect misprediction rates for the paper's eight
/// high-indirect-frequency benchmarks at 2 KB.
pub fn table3(workloads: &Workloads) -> Vec<IndRow> {
    indirect_comparison(workloads, &suite::HIGH_INDIRECT_NAMES, FIG7_IND_BYTES)
}

/// Renders Table 3 with the paper's extra reduction column.
pub fn render_table3(rows: &[IndRow]) -> TextTable {
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "path (CHP)".into(),
        "pattern (CHP)".into(),
        "FLP".into(),
        "VLP".into(),
        "VLP vs best competing".into(),
    ]);
    for row in rows {
        let best = row.best_competing();
        let reduction = if best > 0.0 { 1.0 - row.variable / best } else { 0.0 };
        table.row(vec![
            row.benchmark.clone(),
            percent(row.path),
            percent(row.pattern),
            percent(row.fixed),
            percent(row.variable),
            format!("-{:.1}%", 100.0 * reduction),
        ]);
    }
    table
}
