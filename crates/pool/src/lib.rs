//! # vlpp-pool — bounded deterministic execution for the experiment engine
//!
//! The experiment engine is embarrassingly parallel at three levels
//! (experiments, benchmarks within an experiment, profile sweeps within
//! a benchmark), and before this crate each level spawned its own
//! unbounded `std::thread::scope` workers: a comparison worker that
//! called into the Table-2 machinery would spawn 16 more threads, and a
//! full `vlpp all` run oversubscribed the machine by an order of
//! magnitude. This crate provides the one shared execution layer they
//! all sit on now:
//!
//! * [`Pool`] — a bounded work-queue executor. Worker count comes from
//!   `VLPP_THREADS` (invalid values warn and fall back to
//!   `available_parallelism`). [`Pool::map`] preserves input order,
//!   propagates panics, and lets the calling thread *help* execute its
//!   own batch, so nested maps reuse the same bounded thread set
//!   instead of spawning — total threads never exceed the configured
//!   count, at any nesting depth.
//! * [`Pool::try_map`] — the fault-isolating flavor: one `Result` per
//!   item, panics contained as [`TaskError::Panicked`], and an optional
//!   per-task watchdog deadline, passed by the caller, that abandons
//!   overdue tasks as [`TaskError::TimedOut`]. A failed task is
//!   reported, not re-run. `ROBUSTNESS.md` at the repository root
//!   describes the semantics and how `vlpp all` injects faults to test
//!   them.
//! * [`Memo`] — a compute-once-per-key concurrent memo table. Two
//!   threads that miss on the same key no longer both run a minutes-long
//!   computation with one result thrown away: the first computes, the
//!   second blocks and shares the winner's `Arc`. Distinct keys still
//!   compute in parallel. A computation that panics is evicted, never
//!   cached, so a poisoned key heals on the next request.
//!
//! Determinism: a `map`'s results are placed by input index and memoized
//! values are computed by pure functions of their key, so every
//! experiment output is byte-identical at any `VLPP_THREADS` setting —
//! the integration suite asserts exactly that.
//!
//! ## Observability
//!
//! The pool reports into the process-wide `vlpp-metrics` registry
//! (lock-free atomics — metrics never perturb scheduling or output):
//! the work-queue depth and its high-water mark (`pool.queue_depth`),
//! how tasks were executed (`pool.tasks.stolen` by workers,
//! `pool.tasks.helped` by mapping callers, `pool.tasks.inline` when a
//! map degrades to sequential), per-worker task counts
//! (`pool.worker.NN.tasks`), and — for [`Memo`]s created with
//! [`Memo::named`] — hit/miss counts (`pool.memo.<name>.{hits,misses}`).
//! `OBSERVABILITY.md` at the repository root catalogs every metric.
//!
//! This crate depends only on in-tree crates (`vlpp-metrics`, which
//! itself uses only `vlpp-trace`'s JSON tree), so the tree keeps
//! building offline.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod executor;
mod memo;

pub use executor::{PanicReport, Pool, TaskError};
pub use memo::Memo;

use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, ignoring poisoning: every critical section in this
/// crate is a handful of panic-free bookkeeping statements, and user
/// panics are caught before they can poison anything.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
