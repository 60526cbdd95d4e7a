//! Figures 5–8: per-benchmark predictor comparisons at a fixed table
//! size.

use vlpp_synth::suite;

use crate::experiment::{Entrant, Kind, Workloads};
use crate::report::TextTable;

use super::{FIG5_COND_BYTES, FIG7_IND_BYTES};

/// One benchmark's conditional misprediction rates (Figures 5–6).
#[derive(Debug, Clone)]
pub struct CondRow {
    /// Benchmark name.
    pub benchmark: String,
    /// gshare misprediction rate in [0, 1].
    pub gshare: f64,
    /// Fixed length path predictor rate (benchmark-averaged length).
    pub fixed: f64,
    /// Variable length path predictor rate (profiled assignment).
    pub variable: f64,
}

vlpp_trace::impl_to_json!(CondRow { benchmark, gshare, fixed, variable });

/// One benchmark's indirect misprediction rates (Figures 7–8, Table 3).
#[derive(Debug, Clone)]
pub struct IndRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Chang–Hao–Patt path-based target cache rate.
    pub path: f64,
    /// Chang–Hao–Patt pattern-based target cache rate.
    pub pattern: f64,
    /// Fixed length path predictor rate.
    pub fixed: f64,
    /// Variable length path predictor rate.
    pub variable: f64,
}

vlpp_trace::impl_to_json!(IndRow { benchmark, path, pattern, fixed, variable });

/// Runs the Figure 5/6 comparison (gshare vs fixed vs variable length
/// path) for the named benchmarks at `bytes` of predictor table.
pub fn conditional_comparison(workloads: &Workloads, names: &[&str], bytes: u64) -> Vec<CondRow> {
    let entrants = [Entrant::Zoo("gshare"), Entrant::Fixed, Entrant::Variable];
    comparison(workloads, names, Kind::Conditional, bytes, &entrants, |benchmark, rates| CondRow {
        benchmark,
        gshare: rates[0],
        fixed: rates[1],
        variable: rates[2],
    })
}

/// Runs the Figure 7/8 comparison (path and pattern target caches vs
/// fixed vs variable length path) for the named benchmarks.
pub fn indirect_comparison(workloads: &Workloads, names: &[&str], bytes: u64) -> Vec<IndRow> {
    let entrants =
        [Entrant::Zoo("path"), Entrant::Zoo("pattern"), Entrant::Fixed, Entrant::Variable];
    comparison(workloads, names, Kind::Indirect, bytes, &entrants, |benchmark, rates| IndRow {
        benchmark,
        path: rates[0],
        pattern: rates[1],
        fixed: rates[2],
        variable: rates[3],
    })
}

/// One row per named benchmark from its `entrants`' rates. Benchmarks
/// are independent, so they run on the shared pool (the `Workloads`
/// caches are compute-once-per-key); Table 2's length comes first, so
/// their tasks share it instead of blocking on it.
fn comparison<R: Send>(
    workloads: &Workloads,
    names: &[&str],
    kind: Kind,
    bytes: u64,
    entrants: &[Entrant],
    row: impl Fn(String, Vec<f64>) -> R + Sync,
) -> Vec<R> {
    workloads.best_fixed_length(kind, kind.index_bits(bytes));
    run_parallel(names, |name| {
        let spec = suite::benchmark(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
        row(name.to_string(), workloads.rates(&spec, kind, bytes, entrants))
    })
}

/// Maps `names` to rows on the shared worker pool, preserving order.
pub(super) fn run_parallel<R: Send>(names: &[&str], work: impl Fn(&str) -> R + Sync) -> Vec<R> {
    vlpp_pool::Pool::global().map(names.to_vec(), work)
}

/// Figure 5: conditional misprediction rates, 16 KB predictor, SPEC.
pub fn figure5(workloads: &Workloads) -> Vec<CondRow> {
    conditional_comparison(workloads, &suite::SPEC_NAMES, FIG5_COND_BYTES)
}

/// Figure 6: conditional misprediction rates, 16 KB predictor, non-SPEC.
pub fn figure6(workloads: &Workloads) -> Vec<CondRow> {
    conditional_comparison(workloads, &suite::NON_SPEC_NAMES, FIG5_COND_BYTES)
}

/// Figure 7: indirect misprediction rates, 2 KB predictor, SPEC.
pub fn figure7(workloads: &Workloads) -> Vec<IndRow> {
    indirect_comparison(workloads, &suite::SPEC_NAMES, FIG7_IND_BYTES)
}

/// Figure 8: indirect misprediction rates, 2 KB predictor, non-SPEC.
pub fn figure8(workloads: &Workloads) -> Vec<IndRow> {
    indirect_comparison(workloads, &suite::NON_SPEC_NAMES, FIG7_IND_BYTES)
}

impl CondRow {
    /// Renders rows as a Figure 5/6-style text table.
    pub fn render(rows: &[CondRow]) -> TextTable {
        let mut table = TextTable::new(vec![
            "benchmark".into(),
            "gshare".into(),
            "fixed length path".into(),
            "variable length path".into(),
        ]);
        for row in rows {
            table.row(vec![
                row.benchmark.clone(),
                crate::report::percent(row.gshare),
                crate::report::percent(row.fixed),
                crate::report::percent(row.variable),
            ]);
        }
        table
    }

    /// Average reduction in mispredictions of the variable length path
    /// predictor relative to gshare, in [0, 1] (the paper's headline
    /// "28.6% fewer mispredictions on average").
    pub fn mean_reduction_vs_gshare(rows: &[CondRow]) -> f64 {
        let reductions: Vec<f64> =
            rows.iter().filter(|r| r.gshare > 0.0).map(|r| 1.0 - r.variable / r.gshare).collect();
        if reductions.is_empty() {
            0.0
        } else {
            reductions.iter().sum::<f64>() / reductions.len() as f64
        }
    }
}

impl IndRow {
    /// Renders rows as a Figure 7/8-style text table.
    pub fn render(rows: &[IndRow]) -> TextTable {
        let mut table = TextTable::new(vec![
            "benchmark".into(),
            "path (CHP)".into(),
            "pattern (CHP)".into(),
            "fixed length path".into(),
            "variable length path".into(),
        ]);
        for row in rows {
            table.row(vec![
                row.benchmark.clone(),
                crate::report::percent(row.path),
                crate::report::percent(row.pattern),
                crate::report::percent(row.fixed),
                crate::report::percent(row.variable),
            ]);
        }
        table
    }

    /// The best competing (path or pattern target cache) rate.
    pub fn best_competing(&self) -> f64 {
        self.path.min(self.pattern)
    }
}
