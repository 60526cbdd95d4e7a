//! The §4.3 HFNT pipelining experiment: how often the Hash Function
//! Number Table mispredicts the hash number, forcing a re-prediction
//! (an extra front-end cycle, not a branch misprediction).
//!
//! The paper describes the structure but does not plot its cost; this
//! experiment supplies the measurement.

use vlpp_core::Hfnt;
use vlpp_synth::suite;

use crate::experiment::{Kind, Workloads};
use crate::frontend::HFNT_SET_BITS;
use crate::report::{percent, TextTable};

/// Per-benchmark HFNT behavior.
#[derive(Debug, Clone)]
pub struct HfntRow {
    /// Benchmark name.
    pub benchmark: String,
    /// HFNT lookups (dynamic conditional branches).
    pub lookups: u64,
    /// Lookups whose hash number had to be corrected.
    pub mismatches: u64,
    /// Mismatch (re-prediction) rate in [0, 1].
    pub rate: f64,
}

vlpp_trace::impl_to_json!(HfntRow { benchmark, lookups, mismatches, rate });

/// Runs the HFNT model over every benchmark using each benchmark's
/// profiled 16 KB conditional hash assignment.
pub fn hfnt_experiment(workloads: &Workloads) -> Vec<HfntRow> {
    let index_bits = Kind::Conditional.index_bits(super::FIG5_COND_BYTES);
    let names = suite::all_names();
    super::comparisons::run_parallel(&names, |name| {
        let spec = suite::benchmark(name).expect("suite name");
        let report = workloads.profile(&spec, Kind::Conditional, index_bits);
        let test = workloads.test_trace(&spec);
        let stats =
            Hfnt::new(HFNT_SET_BITS, report.default_hash).run(test.records(), &report.assignment);
        HfntRow {
            benchmark: spec.name.clone(),
            lookups: stats.lookups,
            mismatches: stats.mismatches,
            rate: stats.mismatch_rate(),
        }
    })
}

impl HfntRow {
    /// Renders the HFNT experiment as a text table.
    pub fn render(rows: &[HfntRow]) -> TextTable {
        let mut table = TextTable::new(vec![
            "benchmark".into(),
            "lookups".into(),
            "re-predictions".into(),
            "rate".into(),
        ]);
        for row in rows {
            table.row(vec![
                row.benchmark.clone(),
                row.lookups.to_string(),
                row.mismatches.to_string(),
                percent(row.rate),
            ]);
        }
        table
    }
}
