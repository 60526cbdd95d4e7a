//! # vlpp-trace — branch trace substrate
//!
//! This crate provides the data model every other crate in the `vlpp`
//! workspace is built on: a *branch trace*, i.e. the ordered sequence of
//! control-transfer instructions a program executed, with their outcomes.
//!
//! The original paper (Stark, Evers, Patt, *Variable Length Path Branch
//! Prediction*, ASPLOS 1998) obtained these traces by instrumenting DEC
//! Alpha binaries with ATOM. This workspace instead produces them with the
//! synthetic workload generator in `vlpp-synth`; either way, the predictors
//! only ever see the types defined here.
//!
//! ## Contents
//!
//! * [`Addr`] — a newtype for code addresses with the bit-fiddling helpers
//!   (truncation, rotation) path predictors need.
//! * [`BranchKind`] / [`BranchRecord`] — one executed control transfer.
//! * [`Trace`] — an in-memory sequence of records with filtered views.
//! * [`source`] — the [`TraceSource`] streaming interface: records are
//!   pulled one at a time so multi-GB traces replay in bounded memory.
//! * [`ingest`] — streaming adapters for foreign trace formats
//!   (ChampSim binary, CSV, JSONL); see `TRACES.md` for the grammars.
//! * [`compact`] — VLPC v3, the one native trace file format: chunked
//!   delta/varint records that stream in bounded memory (plus the
//!   `VLPS` model-snapshot envelope).
//! * [`frame`] — length-prefixed wire framing for the serving protocol.
//! * [`stats`] — static/dynamic branch demographics (the paper's Table 1).
//! * [`json`] — a minimal hand-rolled JSON emitter/parser so reports can
//!   be machine-readable without any registry dependency.
//!
//! ## Example
//!
//! ```
//! use vlpp_trace::{Addr, BranchKind, BranchRecord, Trace};
//!
//! let mut trace = Trace::new();
//! trace.push(BranchRecord::conditional(Addr::new(0x1000), Addr::new(0x1040), true));
//! trace.push(BranchRecord::indirect(Addr::new(0x1040), Addr::new(0x2000)));
//! assert_eq!(trace.len(), 2);
//! assert_eq!(trace.iter().filter(|r| r.kind() == BranchKind::Conditional).count(), 1);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod branch;
mod error;
mod trace;

pub mod compact;
pub mod fault;
pub mod frame;
pub mod ingest;
pub mod json;
pub mod source;
pub mod stats;

pub use addr::Addr;
pub use branch::{BranchKind, BranchRecord};
pub use error::{TraceIoError, VlppError};
pub use source::TraceSource;
pub use trace::{Iter, Trace};
