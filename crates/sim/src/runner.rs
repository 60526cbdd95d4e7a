//! The trace-driven simulation entry points.
//!
//! Two kinds of loop run here. [`run_conditional`] / [`run_indirect`]
//! drive *any* predictor through the standard predict → train → observe
//! protocol. That loop is not written here: it is the traits' provided
//! `run` method in `vlpp-predict` ([`ConditionalPredictor::run`],
//! [`IndirectPredictor::run`]), monomorphized per predictor type, so
//! these functions call it once per trace and a boxed zoo predictor
//! pays one virtual call per trace, not three per record.
//! [`run_path_conditional`] / [`run_path_indirect`] are the throughput
//! path for the paper's own predictor: they instantiate the
//! structure-of-arrays kernels from `vlpp-core` and run the fused
//! per-record step, which the differential suite pins bit-for-bit to
//! the test-only boxed reference in `vlpp-core`. Run over the same
//! kernel, both emit the same [`RunStats`]; the kernel loops
//! additionally publish `sim.predict_ns` and `sim.records_per_sec`
//! metrics.
//!
//! [`RunStats`] holds run totals only. Per-static-branch counts live
//! in the kernels ([`CondKernel::branch_stats`] /
//! [`IndKernel::branch_stats`]), where the §3.5 profiler reads them;
//! the trait loop keeps no per-branch tally, so a zoo predictor pays
//! nothing per record beyond its own predict and train.

use std::time::Instant;

use vlpp_core::{CondKernel, HashAssignment, IndKernel, PathConfig};
use vlpp_predict::{ConditionalPredictor, IndirectPredictor};
use vlpp_trace::Trace;

/// Re-exported from `vlpp-predict`, where the protocol loops that
/// produce it live.
///
/// # Example
///
/// ```
/// use vlpp_sim::RunStats;
///
/// let mut stats = RunStats::default();
/// stats.record(true);
/// stats.record(false);
/// assert_eq!(stats.predictions, 2);
/// assert_eq!(stats.mispredictions, 1);
/// assert!((stats.miss_rate() - 0.5).abs() < 1e-12);
/// ```
pub use vlpp_predict::RunStats;

/// Runs a conditional-branch predictor over a trace using the standard
/// protocol ([`ConditionalPredictor::run`]): predict → train on each
/// conditional branch, observe on every record.
pub fn run_conditional<P: ConditionalPredictor>(predictor: &mut P, trace: &Trace) -> RunStats {
    let _span = vlpp_metrics::span("sim.simulate_ns");
    predictor.run(trace.records())
}

/// Runs an indirect-branch predictor over a trace
/// ([`IndirectPredictor::run`]). Returns are excluded, as in the paper.
pub fn run_indirect<P: IndirectPredictor>(predictor: &mut P, trace: &Trace) -> RunStats {
    let _span = vlpp_metrics::span("sim.simulate_ns");
    predictor.run(trace.records())
}

/// Publishes the kernel loops' throughput metrics: the records-per-
/// second gauge derived from the wall-clock the `sim.predict_ns` span
/// also measured.
fn record_throughput(records: usize, started: Instant) {
    let elapsed = started.elapsed().as_secs_f64();
    if elapsed > 0.0 {
        vlpp_metrics::gauge("sim.records_per_sec").record((records as f64 / elapsed) as u64);
    }
}

/// Runs the paper's conditional path predictor over a trace through the
/// kernel's fused [`CondKernel::apply`] loop — the same protocol (and
/// bit-identical results) as [`run_conditional`] over the kernel's
/// trait interface, at a fraction of the per-record cost.
pub fn run_path_conditional(
    config: &PathConfig,
    assignment: &HashAssignment,
    trace: &Trace,
) -> RunStats {
    let _span = vlpp_metrics::span("sim.predict_ns");
    let started = Instant::now();
    let mut kernel = CondKernel::new(config, assignment);
    for record in trace.iter() {
        kernel.apply(record);
    }
    record_throughput(trace.len(), started);
    RunStats { predictions: kernel.predictions(), mispredictions: kernel.mispredictions() }
}

/// Runs the paper's indirect path predictor over a trace through the
/// kernel's fused [`IndKernel::apply`] loop — the same protocol (and
/// bit-identical results) as [`run_indirect`] over the kernel's trait
/// interface. Returns are excluded, as in the paper.
pub fn run_path_indirect(
    config: &PathConfig,
    assignment: &HashAssignment,
    trace: &Trace,
) -> RunStats {
    let _span = vlpp_metrics::span("sim.predict_ns");
    let started = Instant::now();
    let mut kernel = IndKernel::new(config, assignment);
    for record in trace.iter() {
        kernel.apply(record);
    }
    record_throughput(trace.len(), started);
    RunStats { predictions: kernel.predictions(), mispredictions: kernel.mispredictions() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlpp_predict::{Bimodal, LastTargetBtb};
    use vlpp_trace::{Addr, BranchRecord};

    fn biased_trace(n: usize) -> Trace {
        (0..n)
            .map(|i| BranchRecord::conditional(Addr::new(0x40), Addr::new(0x80), i % 10 != 0))
            .collect()
    }

    #[test]
    fn conditional_runner_counts_only_conditionals() {
        let mut trace = biased_trace(100);
        trace.push(BranchRecord::indirect(Addr::new(0x99), Addr::new(0x100)));
        let mut p = Bimodal::new(8);
        let stats = run_conditional(&mut p, &trace);
        assert_eq!(stats.predictions, 100);
    }

    #[test]
    fn bimodal_learns_biased_trace() {
        let mut p = Bimodal::new(8);
        let stats = run_conditional(&mut p, &biased_trace(1000));
        // 10% of executions are the rare direction; a warmed 2-bit
        // counter mispredicts roughly those plus counter swings.
        assert!(stats.miss_rate() < 0.25, "rate {}", stats.miss_rate());
        assert!(stats.miss_rate() > 0.05);
    }

    #[test]
    fn indirect_runner_counts_only_indirects() {
        let mut trace = Trace::new();
        for _ in 0..10 {
            trace.push(BranchRecord::indirect(Addr::new(0x40), Addr::new(0x100)));
            trace.push(BranchRecord::ret(Addr::new(0x50), Addr::new(0x200)));
        }
        let mut p = LastTargetBtb::new(6);
        let stats = run_indirect(&mut p, &trace);
        assert_eq!(stats.predictions, 10, "returns must not be predicted");
        assert_eq!(stats.mispredictions, 1, "only the cold first prediction misses");
    }

    #[test]
    fn empty_trace_yields_zero_rate() {
        let mut p = Bimodal::new(4);
        let stats = run_conditional(&mut p, &Trace::new());
        assert_eq!(stats.miss_rate(), 0.0);
        assert_eq!(stats.predictions, 0);
    }

    /// A deterministic mixed-kind trace exercising calls, returns,
    /// indirects, and several conditional pcs.
    fn mixed_trace(n: usize, seed: u64) -> Trace {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let pc = Addr::new(0x40 + ((x >> 40) & 0x1f) * 4);
                let target = Addr::new(((x >> 20) & 0xff) << 2);
                match (x >> 10) % 6 {
                    0 => BranchRecord::indirect(pc, target),
                    1 => BranchRecord::call(pc, target),
                    2 => BranchRecord::ret(pc, target),
                    _ => BranchRecord::conditional(pc, target, (x >> 5) & 1 == 1),
                }
            })
            .collect()
    }

    #[test]
    fn kernel_conditional_runner_matches_trait_protocol_exactly() {
        let trace = mixed_trace(5000, 99);
        let config = PathConfig::new(10);
        let mut assignment = HashAssignment::fixed(7);
        assignment.assign(Addr::new(0x44), 2);
        assignment.assign(Addr::new(0x48), 19);
        let mut stepwise = CondKernel::new(&config, &assignment);
        let expected = run_conditional(&mut stepwise, &trace);
        let got = run_path_conditional(&config, &assignment, &trace);
        assert_eq!(got, expected, "totals must be bit-identical");
    }

    #[test]
    fn kernel_indirect_runner_matches_trait_protocol_exactly() {
        let trace = mixed_trace(5000, 123);
        let config = PathConfig::new(9);
        let mut assignment = HashAssignment::fixed(4);
        assignment.assign(Addr::new(0x50), 11);
        let mut stepwise = IndKernel::new(&config, &assignment);
        let expected = run_indirect(&mut stepwise, &trace);
        let got = run_path_indirect(&config, &assignment, &trace);
        assert_eq!(got, expected, "totals must be bit-identical");
    }
}
