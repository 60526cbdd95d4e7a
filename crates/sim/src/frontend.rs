//! A simple front-end timing model: converts prediction accuracy into
//! fetch-cycle cost, the currency the paper's introduction argues in
//! ("as the pipeline depths and the issue rates increase, the amount of
//! speculative work that must be thrown away ... also increases").
//!
//! The model charges, per control transfer:
//!
//! * 1 base cycle;
//! * `mispredict_penalty` cycles when the relevant predictor was wrong
//!   (conditional direction or indirect target; returns use a RAS);
//! * `repredict_penalty` cycles when the §4.3 HFNT predicted the wrong
//!   hash number (a front-end bubble, much cheaper than a flush).
//!
//! It is deliberately not a microarchitectural simulator — no
//! out-of-order core, no caches — but it weighs conditional vs indirect
//! accuracy and HFNT overhead the way the paper's argument does, and it
//! lets the `frontend` experiment rank predictors by cost rather than
//! rate.

use vlpp_core::Hfnt;
use vlpp_predict::{BranchObserver, ConditionalPredictor, IndirectPredictor, ReturnAddressStack};
use vlpp_trace::{BranchKind, Trace};

/// Penalty parameters, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Penalties {
    /// Full pipeline flush on a branch misprediction.
    pub mispredict: u64,
    /// Front-end bubble on an HFNT hash-number re-prediction.
    pub repredict: u64,
}

vlpp_trace::impl_to_json!(Penalties { mispredict, repredict });

impl Default for Penalties {
    /// A deep late-1990s pipeline: 12-cycle flush, 1-cycle re-predict
    /// bubble.
    fn default() -> Self {
        Penalties { mispredict: 12, repredict: 1 }
    }
}

/// Cycle accounting for one front-end run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendCost {
    /// Control transfers fetched.
    pub branches: u64,
    /// Conditional mispredictions.
    pub conditional_misses: u64,
    /// Indirect-target mispredictions (returns counted separately).
    pub indirect_misses: u64,
    /// Return mispredictions (RAS misses).
    pub return_misses: u64,
    /// HFNT re-predictions.
    pub repredictions: u64,
    /// Total cycles charged.
    pub cycles: u64,
}

vlpp_trace::impl_to_json!(FrontendCost {
    branches,
    conditional_misses,
    indirect_misses,
    return_misses,
    repredictions,
    cycles,
});

impl FrontendCost {
    /// Cycles per branch — the model's bottom line.
    pub fn cycles_per_branch(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.cycles as f64 / self.branches as f64
        }
    }
}

/// Runs the front-end model: a conditional predictor, an indirect
/// predictor, a 16-entry RAS for returns, and (optionally) an HFNT
/// charging re-prediction bubbles for the conditional predictor's hash
/// numbers.
///
/// `hash_number_of` supplies the actual hash number per conditional pc
/// when an HFNT is modeled (pass `None` for single-access predictors
/// like gshare).
pub fn run_frontend<C, I>(
    conditional: &mut C,
    indirect: &mut I,
    hfnt: Option<(&mut Hfnt, &dyn Fn(vlpp_trace::Addr) -> u8)>,
    trace: &Trace,
    penalties: Penalties,
) -> FrontendCost
where
    C: ConditionalPredictor,
    I: IndirectPredictor,
{
    let mut ras = ReturnAddressStack::new(16);
    let mut cost = FrontendCost::default();
    let mut hfnt = hfnt;
    for record in trace.iter() {
        cost.branches += 1;
        cost.cycles += 1;
        match record.kind() {
            BranchKind::Conditional => {
                if let Some((hfnt, hash_number_of)) = hfnt.as_mut() {
                    let actual = hash_number_of(record.pc());
                    hfnt.lookup(record.pc());
                    if !hfnt.resolve(record.pc(), actual) {
                        cost.repredictions += 1;
                        cost.cycles += penalties.repredict;
                    }
                }
                let prediction = conditional.predict(record.pc());
                if prediction != record.taken() {
                    cost.conditional_misses += 1;
                    cost.cycles += penalties.mispredict;
                }
                conditional.train(record.pc(), record.taken());
            }
            BranchKind::Indirect => {
                let prediction = indirect.predict(record.pc());
                if prediction != record.target() {
                    cost.indirect_misses += 1;
                    cost.cycles += penalties.mispredict;
                }
                indirect.train(record.pc(), record.target());
            }
            BranchKind::Return => {
                if !ras.resolve(record.target()) {
                    cost.return_misses += 1;
                    cost.cycles += penalties.mispredict;
                }
            }
            // Direct jumps and calls are assumed BTB-hit (the paper's
            // predictors never see them either).
            BranchKind::Unconditional | BranchKind::Call => {}
        }
        conditional.observe(record);
        indirect.observe(record);
        ras.observe(record);
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlpp_core::{CondKernel, HashAssignment, IndKernel, PathConfig};
    use vlpp_predict::{Gshare, LastTargetBtb};
    use vlpp_synth::{suite, InputSet};

    fn workload() -> Trace {
        suite::benchmark("li").unwrap().build_program().execute(InputSet::Test, 120_000)
    }

    #[test]
    fn cost_components_sum_correctly() {
        let trace = workload();
        let mut gshare = Gshare::new(12);
        let mut btb = LastTargetBtb::new(9);
        let penalties = Penalties { mispredict: 10, repredict: 2 };
        let cost = run_frontend(&mut gshare, &mut btb, None, &trace, penalties);
        assert_eq!(cost.branches, trace.len() as u64);
        let expected = cost.branches
            + 10 * (cost.conditional_misses + cost.indirect_misses + cost.return_misses)
            + 2 * cost.repredictions;
        assert_eq!(cost.cycles, expected);
        assert_eq!(cost.repredictions, 0, "no HFNT was modeled");
        assert!(cost.cycles_per_branch() > 1.0);
    }

    #[test]
    fn better_predictors_cost_fewer_cycles() {
        let trace = workload();
        let penalties = Penalties::default();

        let mut gshare = Gshare::new(14);
        let mut btb = LastTargetBtb::new(9);
        let baseline = run_frontend(&mut gshare, &mut btb, None, &trace, penalties);

        let mut vlp_cond = CondKernel::new(&PathConfig::new(14), &HashAssignment::fixed(10));
        let mut vlp_ind = IndKernel::new(&PathConfig::new(9), &HashAssignment::fixed(4));
        let path = run_frontend(&mut vlp_cond, &mut vlp_ind, None, &trace, penalties);

        assert!(
            path.cycles < baseline.cycles,
            "path predictors ({}) should cost less than gshare+BTB ({})",
            path.cycles,
            baseline.cycles
        );
    }

    #[test]
    fn hfnt_bubbles_are_charged_but_cheap() {
        let trace = workload();
        let penalties = Penalties::default();
        let assignment = {
            // A spread of lengths so the HFNT has something to predict.
            let mut a = HashAssignment::fixed(8);
            for (i, r) in trace.conditionals().take(200).enumerate() {
                a.assign(r.pc(), (i % 16 + 1) as u8);
            }
            a
        };
        let mut vlp = CondKernel::new(&PathConfig::new(14), &assignment);
        let mut ind = IndKernel::new(&PathConfig::new(9), &HashAssignment::fixed(4));
        let mut hfnt = Hfnt::new(10, 8);
        let lookup = |pc: vlpp_trace::Addr| assignment.get(pc);
        let cost = run_frontend(&mut vlp, &mut ind, Some((&mut hfnt, &lookup)), &trace, penalties);
        assert!(cost.repredictions > 0, "the varied assignment must cause re-predictions");
        // Bubbles must be a small cost component relative to flushes.
        let bubble_cycles = cost.repredictions * penalties.repredict;
        let flush_cycles = penalties.mispredict
            * (cost.conditional_misses + cost.indirect_misses + cost.return_misses);
        assert!(bubble_cycles < flush_cycles / 2, "{bubble_cycles} vs {flush_cycles}");
    }

    #[test]
    fn empty_trace_costs_nothing() {
        let mut gshare = Gshare::new(8);
        let mut btb = LastTargetBtb::new(8);
        let cost = run_frontend(&mut gshare, &mut btb, None, &Trace::new(), Penalties::default());
        assert_eq!(cost, FrontendCost::default());
        assert_eq!(cost.cycles_per_branch(), 0.0);
    }
}
