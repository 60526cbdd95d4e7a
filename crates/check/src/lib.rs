//! # vlpp-check — hermetic testing and benchmarking harness
//!
//! The workspace must build and test with an empty cargo registry cache,
//! so this crate replaces the two dev-dependencies the seed tree pulled
//! from crates.io:
//!
//! * **`proptest`** → [`prop`]: a deterministic property-testing harness.
//!   Generators draw from a seeded xorshift stream ([`rng::XorShift64`],
//!   the same style of hand-rolled PRNG as `vlpp-synth`'s SplitMix64);
//!   failures are *shrunk* by bisecting the generator's value stream and
//!   reported with the exact seed (and shrink limit) that reproduces
//!   them.
//! * **`criterion`** → [`measure`]: a timer with warmup, N timed
//!   iterations, and a median/MAD report that renders as one
//!   machine-readable `BENCH {json}` line (via `vlpp_trace::json`), so
//!   `BENCH_*.json` trajectories can accumulate across PRs.
//!
//! The [`fault`] module rounds out the harness with seeded
//! [`FaultPlan`]s for the robustness suite: deterministic byte
//! corruption, truncation and splicing of serialized inputs (see
//! `ROBUSTNESS.md`).
//!
//! ## Writing a property test
//!
//! ```
//! use vlpp_check::{check, prop_assert, prop_assert_eq, CheckConfig};
//!
//! #[derive(Debug)]
//! struct Pair(u64, u64);
//!
//! check("addition_commutes", CheckConfig::default(), |g| {
//!     let pair = Pair(g.u64(), g.below(1000));
//!     prop_assert_eq!(pair.0.wrapping_add(pair.1), pair.1.wrapping_add(pair.0));
//!     prop_assert!(pair.1 < 1000, "bounded draw escaped its bound: {:?}", pair);
//!     Ok(())
//! });
//! ```
//!
//! On failure the harness panics with the failing case's seed; re-run
//! with `VLPP_CHECK_SEED=0x<seed>` (and optionally
//! `VLPP_CHECK_LIMIT=<n>` for the shrunk prefix) to replay it first.
//! `VLPP_CHECK_CASES` overrides the case count globally.
//!
//! ## Timing a closure
//!
//! ```
//! use vlpp_check::{measure, BenchConfig};
//!
//! let report = measure("sum_1k", BenchConfig::from_env(), || (0..1000u64).sum::<u64>());
//! assert!(report.iters >= 1);
//! println!("{}", report.to_line());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench;
pub mod fault;
pub mod prop;
pub mod rng;

pub use bench::{measure, BenchConfig, BenchReport};
pub use fault::{DataFault, FaultPlan};
pub use prop::{check, CheckConfig, Failed, Gen, PropResult};
pub use rng::XorShift64;
