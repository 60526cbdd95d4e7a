//! The league streams its workloads: it never holds a test trace whole,
//! and streaming changes no cell.
//!
//! * A counting `#[global_allocator]` tracks the live heap, and a
//!   zoo-only league at the CI scale on two threads must peak within
//!   [`MAX_LEAGUE_HEAP`] of where it started (it reads ~3 MiB). A league
//!   that builds its 22 test traces with their load channels before
//!   racing them grows by ~67 MiB here, counting the traces' pre-sized
//!   capacity.
//! * A materialised oracle — each workload's whole test trace and load
//!   channel from `execute_conditionals_with_loads`, raced with
//!   `run_conditional` / `run_indirect` (the `vlp-*` entrants over a
//!   fresh `CondKernel` / `IndKernel`) — must equal every cell of the
//!   full CI-scale league.
//!
//! This is its own test binary because the allocator and the global
//! pool are process-wide; the two tests take one lock so the oracle's
//! traces never count against the league's peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use vlpp_core::{CondKernel, HashAssignment, IndKernel, PathConfig, ProfileBuilder, ProfileConfig};
use vlpp_pool::Pool;
use vlpp_predict::{zoo, Budget, ZooContext};
use vlpp_sim::experiment::Kind;
use vlpp_sim::paper::{FIG5_COND_BYTES, FIG7_IND_BYTES};
use vlpp_sim::tournament::{run_tournament, CI_SCALE_DIVISOR};
use vlpp_sim::{run_conditional, run_indirect, Scale};
use vlpp_synth::{hard, suite, InputSet};

struct Counting;

/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest `LIVE` since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each keeps `System`'s layout and pointer guarantees; the tallies
// are atomics, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The live-heap growth a zoo-only CI-scale league may reach on two
/// threads: a few workload tasks at a time, each with its program, its
/// 256 KiB chunk and twelve predictors at the league budgets.
const MAX_LEAGUE_HEAP: usize = 8 << 20;

/// Serializes the tests and pins the process-wide pool to two threads.
fn two_thread_pool() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    let guard = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    std::env::set_var("VLPP_THREADS", "2");
    assert_eq!(Pool::global().threads(), 2);
    guard
}

fn zoo_entrants() -> Vec<String> {
    zoo::conditional_names().into_iter().chain(zoo::indirect_names()).map(String::from).collect()
}

#[test]
fn zoo_league_never_holds_a_whole_trace() {
    let _serial = two_thread_pool();
    let zoo = zoo_entrants();
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let result = run_tournament(Scale::new(CI_SCALE_DIVISOR), Some(&zoo));
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(start);
    assert_eq!(result.cells.len(), 22 * zoo.len());
    assert!(
        peak <= MAX_LEAGUE_HEAP,
        "the league's live heap grew by {:.1} MiB (bound {} MiB)",
        peak as f64 / (1 << 20) as f64,
        MAX_LEAGUE_HEAP >> 20
    );
}

#[test]
fn every_cell_matches_a_materialised_oracle() {
    let _serial = two_thread_pool();
    let scale = Scale::new(CI_SCALE_DIVISOR);
    let result = run_tournament(scale, None);
    let (cond_zoo, ind_zoo) = (zoo::conditional_zoo(), zoo::indirect_zoo());
    let (cond_budget, ind_budget) =
        (Budget::from_bytes(FIG5_COND_BYTES), Budget::from_bytes(FIG7_IND_BYTES));
    let cond_config = PathConfig::new(cond_budget.cond_index_bits());
    let ind_config = PathConfig::new(ind_budget.ind_index_bits());
    let mut checked = 0;
    for workload in &result.workloads {
        let (program, conditionals) = match suite::benchmark(workload.name) {
            Some(spec) => (spec.build_program(), scale.dynamic_conditionals(&spec)),
            None => {
                let hard = hard::workload(workload.name).expect("a league workload");
                let conditionals = (hard.default_dynamic_conditional / scale.divisor()).max(50_000);
                (hard.build_program(), conditionals)
            }
        };
        let (trace, loads) = program.execute_conditionals_with_loads(InputSet::Test, conditionals);
        let ctx = ZooContext::with_loads(Arc::new(loads));
        let profile_input = program.execute_conditionals(InputSet::Profile, conditionals);
        let cond_report = ProfileBuilder::new(ProfileConfig::new(cond_config.clone()))
            .profile_conditional(&profile_input);
        let ind_report = ProfileBuilder::new(ProfileConfig::new(ind_config.clone()))
            .profile_indirect(&profile_input);
        for cell in result.cells.iter().filter(|cell| cell.workload == workload.name) {
            let want = match (cell.kind, cell.predictor) {
                (Kind::Conditional, "vlp-var") => run_conditional(
                    &mut CondKernel::new(&cond_config, &cond_report.assignment),
                    &trace,
                ),
                (Kind::Conditional, "vlp-fixed") => {
                    let fixed = HashAssignment::fixed(cond_report.best_fixed_hash());
                    run_conditional(&mut CondKernel::new(&cond_config, &fixed), &trace)
                }
                (Kind::Indirect, "vlp-var") => {
                    run_indirect(&mut IndKernel::new(&ind_config, &ind_report.assignment), &trace)
                }
                (Kind::Indirect, "vlp-fixed") => {
                    let fixed = HashAssignment::fixed(ind_report.best_fixed_hash());
                    run_indirect(&mut IndKernel::new(&ind_config, &fixed), &trace)
                }
                (Kind::Conditional, name) => {
                    let entry = cond_zoo.iter().find(|e| e.name == name).expect("a zoo entrant");
                    run_conditional(&mut (entry.build)(cond_budget, &ctx), &trace)
                }
                (Kind::Indirect, name) => {
                    let entry = ind_zoo.iter().find(|e| e.name == name).expect("a zoo entrant");
                    run_indirect(&mut (entry.build)(ind_budget, &ctx), &trace)
                }
            };
            assert_eq!(cell.stats, want, "{}", cell.key());
            assert_eq!(cell.trace_len, trace.len() as u64, "{}", cell.key());
            checked += 1;
        }
    }
    assert_eq!(checked, result.cells.len());
    assert_eq!(checked, 22 * (9 + 7), "every conditional and indirect entrant on every workload");
}
