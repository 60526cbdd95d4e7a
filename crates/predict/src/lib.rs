//! # vlpp-predict — baseline branch predictors
//!
//! The predictors the paper compares against, plus the traits and shared
//! machinery (saturating counters, history registers, hardware-budget
//! sizing) that the variable-length path predictor in `vlpp-core` builds
//! on.
//!
//! ## Predictors
//!
//! | Type | Predicts | Paper role |
//! |---|---|---|
//! | [`Gshare`] | conditional | the conditional-branch baseline (McFarling) |
//! | [`Gas`] / [`Pas`] | conditional | Yeh–Patt two-level predictors (related work) |
//! | [`Bimodal`] | conditional | classic PC-indexed 2-bit counter table |
//! | [`Hybrid`] | conditional | McFarling two-component hybrid with a chooser |
//! | [`Dhlf`] | conditional | Juan et al. dynamic history-length fitting (related work) |
//! | [`BiMode`] / [`Agree`] | conditional | interference-reducing schemes the paper cites |
//! | [`Tage`] | conditional | Seznec–Michaud tagged geometric-history predictor (zoo) |
//! | [`Bullseye`] | conditional | hard-branch filter routing to a secondary predictor (zoo) |
//! | [`Ldbp`] | conditional | load-value-correlated predictor (zoo) |
//! | [`PatternTargetCache`] | indirect | Chang–Hao–Patt "tagless" pattern-based target cache |
//! | [`PathTargetCache`] | indirect | Chang–Hao–Patt "tagless" path-based target cache |
//! | [`PerAddressPathCache`] | indirect | Driesen–Hölzle per-address path history (related work) |
//! | [`LastTargetBtb`] | indirect | BTB-style last-target baseline |
//! | [`ClusteredTargetCache`] | indirect | case-clustered path-indexed predictor (zoo) |
//! | [`ReturnAddressStack`] | returns | the RAS the paper assumes handles returns |
//!
//! The zoo members are registered in [`zoo`] (see
//! [`conditional_zoo`](zoo::conditional_zoo)); the registry macros there
//! are the single source the tournament harness and the conformance test
//! suite both expand.
//!
//! ## Simulation protocol
//!
//! All predictors follow the same trace-driven protocol, encoded by the
//! [`ConditionalPredictor`] and [`IndirectPredictor`] traits:
//!
//! 1. `predict(pc)` — produce a prediction from current state;
//! 2. `train(pc, outcome)` — update the second-level table with the
//!    resolved outcome;
//! 3. `observe(record)` — called for **every** retired control transfer so
//!    global history structures (outcome registers, path registers, target
//!    history buffers) can advance.
//!
//! The traits' provided `run` methods are that sequence over a whole
//! trace, written once; the runner in `vlpp-sim` calls them.
//!
//! ## Example
//!
//! ```
//! use vlpp_predict::{Budget, ConditionalPredictor, BranchObserver, Gshare};
//! use vlpp_trace::{Addr, BranchRecord};
//!
//! let mut p = Gshare::new(Budget::from_kib(4).cond_index_bits());
//! let pc = Addr::new(0x1000);
//! let _guess = p.predict(pc);
//! p.train(pc, true);
//! p.observe(&BranchRecord::conditional(pc, Addr::new(0x2000), true));
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod bimodal;
mod btb;
mod budget;
mod bullseye;
mod clustered;
mod counter;
mod dhlf;
mod gshare;
mod hashmix;
mod history;
mod hybrid;
mod interference;
mod ldbp;
mod per_address;
mod ras;
mod tage;
mod target_cache;
mod traits;
mod twolevel;
pub mod zoo;

pub use bimodal::Bimodal;
pub use btb::LastTargetBtb;
pub use budget::Budget;
pub use bullseye::Bullseye;
pub use clustered::ClusteredTargetCache;
pub use counter::{Counter2, CounterPlane};
pub use dhlf::Dhlf;
pub use gshare::Gshare;
pub use history::{OutcomeHistory, PathRegister};
pub use hybrid::Hybrid;
pub use interference::{Agree, BiMode};
pub use ldbp::Ldbp;
pub use per_address::PerAddressPathCache;
pub use ras::ReturnAddressStack;
pub use tage::Tage;
pub use target_cache::{PathTargetCache, PatternTargetCache};
pub use traits::{BranchObserver, ConditionalPredictor, IndirectPredictor, RunStats};
pub use twolevel::{Gas, Pas};
pub use zoo::{CondZooEntry, IndZooEntry, ZooContext};
