//! The gcc case study: Figures 9–10 (size sweeps) and the abstract's
//! headline numbers.

use vlpp_predict::Budget;
use vlpp_synth::suite;

use crate::experiment::{Entrant, Kind, Workloads};
use crate::report::{percent, TextTable};

use super::{COND_SIZES, IND_SIZES};

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
    let gcc = suite::benchmark("gcc").expect("gcc is in the suite");
    let entrants = [Entrant::Zoo("gshare"), Entrant::Fixed, Entrant::Tuned, Entrant::Variable];
    COND_SIZES
        .iter()
        .map(|&bytes| {
            let rates = workloads.rates(&gcc, Kind::Conditional, bytes, &entrants);
            GccCondPoint {
                bytes,
                gshare: rates[0],
                fixed: rates[1],
                fixed_tuned: rates[2],
                variable: rates[3],
            }
        })
        .collect()
}

/// Figure 10: gcc indirect misprediction over 0.5 KB – 32 KB.
pub fn figure10(workloads: &Workloads) -> Vec<GccIndPoint> {
    let gcc = suite::benchmark("gcc").expect("gcc is in the suite");
    let entrants = [
        Entrant::Zoo("path"),
        Entrant::Zoo("pattern"),
        Entrant::Fixed,
        Entrant::Tuned,
        Entrant::Variable,
    ];
    IND_SIZES
        .iter()
        .map(|&bytes| {
            let rates = workloads.rates(&gcc, Kind::Indirect, bytes, &entrants);
            GccIndPoint {
                bytes,
                path: rates[0],
                pattern: rates[1],
                fixed: rates[2],
                fixed_tuned: rates[3],
                variable: rates[4],
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
    let gcc = suite::benchmark("gcc").expect("gcc is in the suite");
    let cond = [Entrant::Zoo("gshare"), Entrant::Variable];
    let cond = workloads.rates(&gcc, Kind::Conditional, 4 << 10, &cond);
    let ind = [Entrant::Zoo("pattern"), Entrant::Zoo("path"), Entrant::Variable];
    let ind = workloads.rates(&gcc, Kind::Indirect, 512, &ind);
    Headline {
        vlp_cond_4kb: cond[1],
        gshare_cond_4kb: cond[0],
        vlp_ind_512b: ind[2],
        best_competing_ind_512b: ind[0].min(ind[1]),
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
