//! The boxed reference predictor: the differential oracle the
//! production kernels are pinned against.
//!
//! This is the paper's predictor written one structure per concept —
//! a Target History Buffer ([`thb::Thb`]), the §3.3 hashes evaluated
//! directly ([`hash::hash_path`]) and through the §4.1 partial-sum
//! registers ([`hash::IncrementalHashers`]), boxed second-level tables
//! ([`table::CounterTable`]/[`table::TargetTable`]), and the predictors
//! that compose them ([`path::PathConditional`]/[`path::PathIndirect`]).
//! It reads like the paper and is slow; production runs the
//! structure-of-arrays `vlpp_core::CondKernel`/`IndKernel` (and the
//! §3.4 `vlpp_core::DynamicPathConditional`) instead, and the property
//! suites in this directory require both to agree bit for bit.
//!
//! Test crates include it with `mod reference;`.

#![allow(dead_code)]

pub mod hash;
pub mod path;
pub mod table;
pub mod thb;
