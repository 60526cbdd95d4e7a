//! The gcc case study: Figures 9–10 (size sweeps) and the abstract's
//! headline numbers.

use vlpp_core::{CondKernel, HashAssignment, IndKernel, PathConfig};
use vlpp_predict::{Budget, Gshare, PathTargetCache, PatternTargetCache};
use vlpp_synth::suite;

use crate::experiment::Workloads;
use crate::report::{percent, TextTable};
use crate::runner::{run_conditional, run_indirect};

use super::{BASELINE_PATH_BITS_PER_TARGET, COND_SIZES, IND_SIZES};

/// One size point of Figure 9 (gcc, conditional).
#[derive(Debug, Clone)]
pub struct GccCondPoint {
    /// Predictor-table size in bytes.
    pub bytes: u64,
    /// gshare misprediction rate.
    pub gshare: f64,
    /// Fixed length path (benchmark-averaged length).
    pub fixed: f64,
    /// Fixed length path tuned to gcc's own profile-best length.
    pub fixed_tuned: f64,
    /// Variable length path.
    pub variable: f64,
}

vlpp_trace::impl_to_json!(GccCondPoint { bytes, gshare, fixed, fixed_tuned, variable });

/// One size point of Figure 10 (gcc, indirect).
#[derive(Debug, Clone)]
pub struct GccIndPoint {
    /// Predictor-table size in bytes.
    pub bytes: u64,
    /// Chang–Hao–Patt path-based target cache.
    pub path: f64,
    /// Chang–Hao–Patt pattern-based target cache.
    pub pattern: f64,
    /// Fixed length path (benchmark-averaged length).
    pub fixed: f64,
    /// Fixed length path tuned to gcc's profile-best length.
    pub fixed_tuned: f64,
    /// Variable length path.
    pub variable: f64,
}

vlpp_trace::impl_to_json!(GccIndPoint { bytes, path, pattern, fixed, fixed_tuned, variable });

/// Figure 9: gcc conditional misprediction over 1 KB – 256 KB.
pub fn figure9(workloads: &Workloads) -> Vec<GccCondPoint> {
    let spec = suite::benchmark("gcc").expect("gcc is in the suite");
    let test = workloads.test_trace(&spec);
    COND_SIZES
        .iter()
        .map(|&bytes| {
            let index_bits = Budget::from_bytes(bytes).cond_index_bits();
            let config = PathConfig::new(index_bits);

            let mut gshare = Gshare::new(index_bits);
            let gshare_rate = run_conditional(&mut gshare, &test).miss_rate();

            let fixed_length = workloads.best_fixed_conditional_length(index_bits);
            let mut fixed = CondKernel::new(&config, &HashAssignment::fixed(fixed_length));
            let fixed_rate = run_conditional(&mut fixed, &test).miss_rate();

            let report = workloads.profile_conditional(&spec, index_bits);
            let mut tuned =
                CondKernel::new(&config, &HashAssignment::fixed(report.best_fixed_hash()));
            let tuned_rate = run_conditional(&mut tuned, &test).miss_rate();

            let mut variable = CondKernel::new(&config, &report.assignment);
            let variable_rate = run_conditional(&mut variable, &test).miss_rate();

            GccCondPoint {
                bytes,
                gshare: gshare_rate,
                fixed: fixed_rate,
                fixed_tuned: tuned_rate,
                variable: variable_rate,
            }
        })
        .collect()
}

/// Figure 10: gcc indirect misprediction over 0.5 KB – 32 KB.
pub fn figure10(workloads: &Workloads) -> Vec<GccIndPoint> {
    let spec = suite::benchmark("gcc").expect("gcc is in the suite");
    let test = workloads.test_trace(&spec);
    IND_SIZES
        .iter()
        .map(|&bytes| {
            let index_bits = Budget::from_bytes(bytes).ind_index_bits();
            let config = PathConfig::new(index_bits);

            let mut path = PathTargetCache::new(index_bits, BASELINE_PATH_BITS_PER_TARGET);
            let path_rate = run_indirect(&mut path, &test).miss_rate();

            let mut pattern = PatternTargetCache::new(index_bits);
            let pattern_rate = run_indirect(&mut pattern, &test).miss_rate();

            let fixed_length = workloads.best_fixed_indirect_length(index_bits);
            let mut fixed = IndKernel::new(&config, &HashAssignment::fixed(fixed_length));
            let fixed_rate = run_indirect(&mut fixed, &test).miss_rate();

            let report = workloads.profile_indirect(&spec, index_bits);
            let mut tuned =
                IndKernel::new(&config, &HashAssignment::fixed(report.best_fixed_hash()));
            let tuned_rate = run_indirect(&mut tuned, &test).miss_rate();

            let mut variable = IndKernel::new(&config, &report.assignment);
            let variable_rate = run_indirect(&mut variable, &test).miss_rate();

            GccIndPoint {
                bytes,
                path: path_rate,
                pattern: pattern_rate,
                fixed: fixed_rate,
                fixed_tuned: tuned_rate,
                variable: variable_rate,
            }
        })
        .collect()
}

impl GccCondPoint {
    /// Renders the Figure 9 series.
    pub fn render(points: &[GccCondPoint]) -> TextTable {
        let mut table = TextTable::new(vec![
            "size".into(),
            "gshare".into(),
            "fixed".into(),
            "fixed (tuned)".into(),
            "variable".into(),
        ]);
        for p in points {
            table.row(vec![
                Budget::from_bytes(p.bytes).to_string(),
                percent(p.gshare),
                percent(p.fixed),
                percent(p.fixed_tuned),
                percent(p.variable),
            ]);
        }
        table
    }
}

impl GccIndPoint {
    /// Renders the Figure 10 series.
    pub fn render(points: &[GccIndPoint]) -> TextTable {
        let mut table = TextTable::new(vec![
            "size".into(),
            "path (CHP)".into(),
            "pattern (CHP)".into(),
            "fixed".into(),
            "fixed (tuned)".into(),
            "variable".into(),
        ]);
        for p in points {
            table.row(vec![
                Budget::from_bytes(p.bytes).to_string(),
                percent(p.path),
                percent(p.pattern),
                percent(p.fixed),
                percent(p.fixed_tuned),
                percent(p.variable),
            ]);
        }
        table
    }
}

/// The abstract's headline comparison.
#[derive(Debug, Clone)]
pub struct Headline {
    /// gcc conditional rate for the variable length path predictor at a
    /// 4 KB budget (paper: 4.3%).
    pub vlp_cond_4kb: f64,
    /// gcc conditional rate for gshare at 4 KB (paper: 8.8%).
    pub gshare_cond_4kb: f64,
    /// gcc indirect rate for the variable length path predictor at
    /// 512 bytes (paper: 27.7%).
    pub vlp_ind_512b: f64,
    /// gcc indirect rate of the best competing predictor at 512 bytes
    /// (paper: 44.2%).
    pub best_competing_ind_512b: f64,
}

vlpp_trace::impl_to_json!(Headline {
    vlp_cond_4kb,
    gshare_cond_4kb,
    vlp_ind_512b,
    best_competing_ind_512b,
});

/// Reproduces the abstract's gcc numbers: conditional at 4 KB, indirect
/// at 512 B.
pub fn headline(workloads: &Workloads) -> Headline {
    let spec = suite::benchmark("gcc").expect("gcc is in the suite");
    let test = workloads.test_trace(&spec);

    let cond_bits = Budget::from_bytes(4 << 10).cond_index_bits();
    let mut gshare = Gshare::new(cond_bits);
    let gshare_rate = run_conditional(&mut gshare, &test).miss_rate();
    let report = workloads.profile_conditional(&spec, cond_bits);
    let mut vlp = CondKernel::new(&PathConfig::new(cond_bits), &report.assignment);
    let vlp_rate = run_conditional(&mut vlp, &test).miss_rate();

    let ind_bits = Budget::from_bytes(512).ind_index_bits();
    let mut pattern = PatternTargetCache::new(ind_bits);
    let pattern_rate = run_indirect(&mut pattern, &test).miss_rate();
    let mut path = PathTargetCache::new(ind_bits, BASELINE_PATH_BITS_PER_TARGET);
    let path_rate = run_indirect(&mut path, &test).miss_rate();
    let ind_report = workloads.profile_indirect(&spec, ind_bits);
    let mut ivlp = IndKernel::new(&PathConfig::new(ind_bits), &ind_report.assignment);
    let ivlp_rate = run_indirect(&mut ivlp, &test).miss_rate();

    Headline {
        vlp_cond_4kb: vlp_rate,
        gshare_cond_4kb: gshare_rate,
        vlp_ind_512b: ivlp_rate,
        best_competing_ind_512b: pattern_rate.min(path_rate),
    }
}

impl Headline {
    /// Renders the headline with the paper's numbers alongside.
    pub fn render(&self) -> TextTable {
        let mut table = TextTable::new(vec!["metric".into(), "measured".into(), "paper".into()]);
        table.row(vec!["gcc cond @4KB, VLP".into(), percent(self.vlp_cond_4kb), "4.3%".into()]);
        table.row(vec![
            "gcc cond @4KB, gshare".into(),
            percent(self.gshare_cond_4kb),
            "8.8%".into(),
        ]);
        table.row(vec!["gcc ind @512B, VLP".into(), percent(self.vlp_ind_512b), "27.7%".into()]);
        table.row(vec![
            "gcc ind @512B, best competing".into(),
            percent(self.best_competing_ind_512b),
            "44.2%".into(),
        ]);
        table
    }
}
