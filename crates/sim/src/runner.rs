//! The trace-driven simulation entry points.
//!
//! [`run_conditional`] / [`run_indirect`] drive *any* predictor over a
//! trace through the standard predict → train → observe protocol, and
//! time it as one `sim.simulate_ns` span. The loop is not written here:
//! it is the traits' `run` method in `vlpp-predict`
//! ([`ConditionalPredictor::run`], [`IndirectPredictor::run`]),
//! monomorphized per predictor type, so these functions call it once
//! per trace and a boxed zoo predictor pays one virtual call per trace,
//! not three per record. The paper's own predictor takes the same road:
//! `run_conditional(&mut CondKernel::new(&config, &assignment), &trace)`
//! runs the structure-of-arrays kernel's `run`, which is its fused
//! per-record `apply` step over the trace (see [`vlpp_core::kernel`]).
//!
//! Every experiment scores through these two functions, except three
//! drivers that need each verdict rather than a run's totals and so step
//! a predictor per record: serve's shard step (one prediction per
//! served record), [`ingest::replay_streaming`] (one record per pull
//! from a source it must not materialise) and
//! [`paper::analyze_gcc`] (each verdict charged to its branch's
//! behavior class).
//!
//! [`RunStats`] holds run totals only. Per-static-branch counts live
//! in the kernels ([`CondKernel::branch_stats`] /
//! [`IndKernel::branch_stats`]), where the §3.5 profiler reads them;
//! the trait loop keeps no per-branch tally, so a zoo predictor pays
//! nothing per record beyond its own predict and train.
//!
//! [`ingest::replay_streaming`]: crate::ingest::replay_streaming
//! [`paper::analyze_gcc`]: crate::paper::analyze_gcc
//! [`CondKernel::branch_stats`]: vlpp_core::CondKernel::branch_stats
//! [`IndKernel::branch_stats`]: vlpp_core::IndKernel::branch_stats

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

#[cfg(test)]
mod tests {
    use super::*;
    use vlpp_core::{CondKernel, HashAssignment, IndKernel, PathConfig};
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

    /// The protocol written out by hand over the trait's three methods,
    /// independent of any `run` override.
    fn stepwise_conditional<P: ConditionalPredictor>(p: &mut P, trace: &Trace) -> RunStats {
        let mut stats = RunStats::default();
        for record in trace.iter() {
            if record.is_conditional() {
                let prediction = p.predict(record.pc());
                stats.record(prediction == record.taken());
                p.train(record.pc(), record.taken());
            }
            p.observe(record);
        }
        stats
    }

    /// [`stepwise_conditional`]'s indirect twin; returns are excluded.
    fn stepwise_indirect<P: IndirectPredictor>(p: &mut P, trace: &Trace) -> RunStats {
        let mut stats = RunStats::default();
        for record in trace.iter() {
            if record.is_indirect() {
                let prediction = p.predict(record.pc());
                stats.record(prediction == record.target());
                p.train(record.pc(), record.target());
            }
            p.observe(record);
        }
        stats
    }

    #[test]
    fn kernel_conditional_runner_matches_trait_protocol_exactly() {
        let trace = mixed_trace(5000, 99);
        let config = PathConfig::new(10);
        let mut assignment = HashAssignment::fixed(7);
        assignment.assign(Addr::new(0x44), 2);
        assignment.assign(Addr::new(0x48), 19);
        let mut stepwise = CondKernel::new(&config, &assignment);
        let expected = stepwise_conditional(&mut stepwise, &trace);
        let mut fused = CondKernel::new(&config, &assignment);
        let got = run_conditional(&mut fused, &trace);
        assert_eq!(got, expected, "totals must be bit-identical");
        assert_eq!(fused.counter_values(), stepwise.counter_values());
    }

    #[test]
    fn kernel_indirect_runner_matches_trait_protocol_exactly() {
        let trace = mixed_trace(5000, 123);
        let config = PathConfig::new(9);
        let mut assignment = HashAssignment::fixed(4);
        assignment.assign(Addr::new(0x50), 11);
        let mut stepwise = IndKernel::new(&config, &assignment);
        let expected = stepwise_indirect(&mut stepwise, &trace);
        let mut fused = IndKernel::new(&config, &assignment);
        let got = run_indirect(&mut fused, &trace);
        assert_eq!(got, expected, "totals must be bit-identical");
        assert_eq!(fused.target_entries(), stepwise.target_entries());
    }
}
