//! # vlpp-synth — synthetic workload substrate
//!
//! The paper evaluates on SPECint95 plus eight other DEC Alpha programs,
//! instrumented with ATOM. Neither the binaries, the inputs, nor ATOM are
//! reproducible here, so this crate builds the closest synthetic
//! equivalent: seeded, control-flow-graph-structured programs whose
//! executed branch streams have the *statistical structure* that drives
//! the paper's results —
//!
//! * per-static-branch variation in **how much path history determines
//!   the outcome** (loop exits, biased branches, and path-correlated
//!   branches with per-branch correlation lengths from 1 to ~28);
//! * **indirect branches** (switches/dispatch) whose targets are
//!   path-determined with per-site correlation lengths, concentrated in
//!   hot functions as in real interpreters;
//! * realistic **control coherence**: the path recorded by a predictor is
//!   the actual executed target sequence of a CFG walk, with calls,
//!   returns, and unconditional jumps interleaved (and excluded from path
//!   history per the paper's §3.2).
//!
//! Each of the paper's 16 benchmarks (Table 1) is modeled by a
//! [`BenchmarkSpec`] in [`suite`] with the paper's *static* branch counts
//! and a scaled dynamic count. "Profile input" vs "test input" is
//! modeled by executing the *same generated program* with different run
//! seeds (same binary, different input).
//!
//! ## Example
//!
//! ```
//! use vlpp_synth::{suite, InputSet};
//!
//! let spec = suite::benchmark("gcc").expect("gcc is in the suite");
//! let program = spec.build_program();
//! // A small slice of the test-input trace:
//! let trace = program.execute(InputSet::Test, 10_000);
//! assert!(trace.conditionals().count() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod behavior;
pub mod cfg;
pub mod executor;
pub mod generator;
pub mod hard;
pub mod micro;
pub mod rng;
pub mod spec;
pub mod suite;

pub use behavior::{CondBehavior, IndBehavior};
pub use cfg::{Block, BlockId, FuncId, Function, Program, Terminator};
pub use executor::{ConditionalRun, ExecutionLimits, Executor, InputSet};
pub use rng::SplitMix64;
pub use spec::{BehaviorMix, BenchmarkSpec};
