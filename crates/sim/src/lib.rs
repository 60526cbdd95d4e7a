//! # vlpp-sim — simulation harness and paper experiments
//!
//! Drives any predictor from `vlpp-predict` / `vlpp-core` over traces
//! from `vlpp-synth`, and defines one experiment per table and figure of
//! the paper's evaluation (§5):
//!
//! | Experiment id | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — benchmark summary |
//! | `table2` | Table 2 — best fixed path length per table size |
//! | `table3` | Table 3 — indirect misprediction, 8 benchmarks, 2 KB |
//! | `fig5` / `fig6` | Figures 5–6 — conditional @ 16 KB, SPEC / non-SPEC |
//! | `fig7` / `fig8` | Figures 7–8 — indirect @ 2 KB, SPEC / non-SPEC |
//! | `fig9` | Figure 9 — gcc conditional sweep over sizes |
//! | `fig10` | Figure 10 — gcc indirect sweep over sizes |
//! | `headline` | the abstract's gcc numbers (4 KB cond, 512 B ind) |
//! | `hfnt` | §4.3 HFNT re-prediction cost (data the paper discusses) |
//!
//! Run any of them with the CLI:
//!
//! ```text
//! cargo run --release -p vlpp-sim --bin vlpp -- fig9 --scale 32
//! ```
//!
//! ## Scale
//!
//! The paper runs benchmarks to completion (11 M – 93 M dynamic
//! conditional branches). The default scale factor divides those counts
//! by 16 — large enough for stable rates, small enough for a laptop;
//! `--scale 1` reproduces full-paper workload sizes. Because rates are
//! ratios, the orderings are stable across scales.
//!
//! ## Example
//!
//! ```
//! use vlpp_predict::{Budget, Gshare};
//! use vlpp_sim::runner;
//! use vlpp_synth::{suite, InputSet};
//!
//! let program = suite::benchmark("compress").unwrap().build_program();
//! let trace = program.execute(InputSet::Test, 50_000);
//! let mut gshare = Gshare::new(Budget::from_kib(16).cond_index_bits());
//! let stats = runner::run_conditional(&mut gshare, &trace);
//! assert!(stats.miss_rate() < 0.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod cli;
pub mod experiment;
pub mod frontend;
pub mod ingest;
pub mod microbench;
pub mod paper;
pub mod report;
pub mod runner;
pub mod serve;
pub mod tournament;

pub use checkpoint::{Checkpoint, SavedOutput};
pub use experiment::{Entrant, Kind, Scale, Workloads};
pub use frontend::{run_frontend, FrontendCost, Penalties};
pub use runner::{run_conditional, run_indirect, RunStats};
