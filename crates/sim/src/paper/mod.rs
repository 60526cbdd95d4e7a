//! The paper's evaluation (§5), one function per table and figure, plus
//! the ablations DESIGN.md calls out.
//!
//! Every function takes a [`Workloads`] context so expensive artifacts
//! (profile reports, Table-2 fixed lengths) are shared across
//! experiments run in the same process, and builds the predictors it
//! scores from one recipe, [`Entrant`], through
//! [`Workloads::rates`]; only designs the zoo lacks are built by hand
//! (in `related` and the ablations). Each returns plain data plus a
//! [`TextTable`] rendering; the CLI (`vlpp`) goes through these
//! functions, so the numbers in EXPERIMENTS.md and ad-hoc CLI runs are
//! always the same computation.
//!
//! [`Workloads`]: crate::Workloads
//! [`Workloads::rates`]: crate::Workloads::rates
//! [`Entrant`]: crate::Entrant
//! [`TextTable`]: crate::report::TextTable

mod ablation;
mod analysis;
mod comparisons;
mod cycles;
mod gcc;
mod pipeline;
mod related;
mod tables;
pub(crate) mod verb;

#[cfg(test)]
mod tests;

pub use ablation::{
    ablate_candidates, ablate_dynamic_select, ablate_history_stack, ablate_interference,
    ablate_returns, ablate_subset_hashes, AblationRow,
};
pub use analysis::{
    analyze_gcc, length_histogram, ras_experiment, AnalysisRow, BehaviorClass, LengthHistogram,
    RasRow,
};
pub use comparisons::{
    conditional_comparison, figure5, figure6, figure7, figure8, indirect_comparison, CondRow,
    IndRow,
};
pub use cycles::{frontend_experiment, FrontendRow};
pub use gcc::{figure10, figure9, headline, GccCondPoint, GccIndPoint, Headline};
pub use pipeline::{hfnt_experiment, HfntRow};
pub use related::{related_conditional, related_indirect, RelatedRow};
pub use tables::{render_table3, table1, table2, table3, Table1Row, Table2Data};

/// Conditional predictor-table sizes of Figure 9 / Table 2, in bytes.
pub const COND_SIZES: [u64; 5] = [1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10];

/// Indirect predictor-table sizes of Figure 10 / Table 2, in bytes.
pub const IND_SIZES: [u64; 4] = [512, 2 << 10, 8 << 10, 32 << 10];

/// The predictor-table size used by Figures 5–6 (16 KB).
pub const FIG5_COND_BYTES: u64 = 16 << 10;

/// The predictor-table size used by Figures 7–8 and Table 3 (2 KB).
pub const FIG7_IND_BYTES: u64 = 2 << 10;
