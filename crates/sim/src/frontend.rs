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

use vlpp_core::{HashAssignment, Hfnt};
use vlpp_predict::{ConditionalPredictor, IndirectPredictor, ReturnAddressStack};
use vlpp_trace::Trace;

use crate::runner::{run_conditional, run_indirect};

/// HFNT set-index width of the model and of the `hfnt` experiment (1 Ki
/// entries).
pub const HFNT_SET_BITS: u32 = 10;

/// Return address stack depth of the model and of the `ras` experiment.
pub const RAS_DEPTH: usize = 16;

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
/// predictor, a [`RAS_DEPTH`]-entry RAS for returns, and (optionally)
/// an HFNT charging re-prediction bubbles for the conditional
/// predictor's hash numbers, which `hash_numbers` supplies per
/// conditional pc (pass `None` for single-access predictors like
/// gshare). The HFNT has 2^[`HFNT_SET_BITS`] entries, each starting at
/// the assignment's default hash number.
///
/// The four structures share no state, so each runs over the whole
/// trace through its own loop (the predictors' `run`,
/// [`ReturnAddressStack::run`], [`Hfnt::run`]) and the cost is
/// arithmetic over their totals. Direct jumps and calls are assumed
/// BTB hits (the paper's predictors never see them either).
pub fn run_frontend<C, I>(
    conditional: &mut C,
    indirect: &mut I,
    hash_numbers: Option<&HashAssignment>,
    trace: &Trace,
    penalties: Penalties,
) -> FrontendCost
where
    C: ConditionalPredictor,
    I: IndirectPredictor,
{
    let records = trace.records();
    let conditional = run_conditional(conditional, trace);
    let indirect = run_indirect(indirect, trace);
    let returns = ReturnAddressStack::new(RAS_DEPTH).run(records);
    let repredictions = hash_numbers.map_or(0, |assignment| {
        let mut hfnt = Hfnt::new(HFNT_SET_BITS, assignment.default_hash());
        hfnt.run(records, assignment).mismatches
    });
    let branches = records.len() as u64;
    let misses = conditional.mispredictions + indirect.mispredictions + returns.mispredictions;
    FrontendCost {
        branches,
        conditional_misses: conditional.mispredictions,
        indirect_misses: indirect.mispredictions,
        return_misses: returns.mispredictions,
        repredictions,
        cycles: branches + penalties.mispredict * misses + penalties.repredict * repredictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlpp_core::{CondKernel, HashAssignment, IndKernel, PathConfig};
    use vlpp_predict::{BranchObserver, Gshare, LastTargetBtb};
    use vlpp_synth::{suite, InputSet};
    use vlpp_trace::BranchKind;

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
        let cost = run_frontend(&mut vlp, &mut ind, Some(&assignment), &trace, penalties);
        assert!(cost.repredictions > 0, "the varied assignment must cause re-predictions");
        // Bubbles must be a small cost component relative to flushes.
        let bubble_cycles = cost.repredictions * penalties.repredict;
        let flush_cycles = penalties.mispredict
            * (cost.conditional_misses + cost.indirect_misses + cost.return_misses);
        assert!(bubble_cycles < flush_cycles / 2, "{bubble_cycles} vs {flush_cycles}");
    }

    /// The model as one per-record loop over all four structures: the
    /// oracle for [`run_frontend`]'s arithmetic over their separate runs.
    fn stepwise<C: ConditionalPredictor, I: IndirectPredictor>(
        conditional: &mut C,
        indirect: &mut I,
        hash_numbers: Option<&HashAssignment>,
        trace: &Trace,
        penalties: Penalties,
    ) -> FrontendCost {
        let mut ras = ReturnAddressStack::new(RAS_DEPTH);
        let mut hfnt = hash_numbers.map(|a| (Hfnt::new(HFNT_SET_BITS, a.default_hash()), a));
        let mut cost = FrontendCost::default();
        for record in trace.iter() {
            cost.branches += 1;
            cost.cycles += 1;
            let (pc, mispredict) = (record.pc(), penalties.mispredict);
            match record.kind() {
                BranchKind::Conditional => {
                    if let Some((hfnt, assignment)) = hfnt.as_mut() {
                        hfnt.lookup(pc);
                        if !hfnt.resolve(pc, assignment.get(pc)) {
                            cost.repredictions += 1;
                            cost.cycles += penalties.repredict;
                        }
                    }
                    if conditional.predict(pc) != record.taken() {
                        cost.conditional_misses += 1;
                        cost.cycles += mispredict;
                    }
                    conditional.train(pc, record.taken());
                }
                BranchKind::Indirect => {
                    if indirect.predict(pc) != record.target() {
                        cost.indirect_misses += 1;
                        cost.cycles += mispredict;
                    }
                    indirect.train(pc, record.target());
                }
                BranchKind::Return if !ras.resolve(record.target()) => {
                    cost.return_misses += 1;
                    cost.cycles += mispredict;
                }
                _ => {}
            }
            conditional.observe(record);
            indirect.observe(record);
            ras.observe(record);
        }
        cost
    }

    #[test]
    fn separate_runs_add_up_to_the_per_record_model() {
        let trace = workload();
        let penalties = Penalties { mispredict: 9, repredict: 2 };
        let mut assignment = HashAssignment::fixed(8);
        for (i, r) in trace.conditionals().take(300).enumerate() {
            assignment.assign(r.pc(), (i % 24 + 1) as u8);
        }
        let (cond, ind) = (PathConfig::new(12), PathConfig::new(9));
        let got = run_frontend(
            &mut CondKernel::new(&cond, &assignment),
            &mut IndKernel::new(&ind, &assignment),
            Some(&assignment),
            &trace,
            penalties,
        );
        let want = stepwise(
            &mut CondKernel::new(&cond, &assignment),
            &mut IndKernel::new(&ind, &assignment),
            Some(&assignment),
            &trace,
            penalties,
        );
        assert_eq!(got, want);
        assert!(got.repredictions > 0 && got.indirect_misses > 0, "{got:?}");
        let (mut gshare, mut btb) = (Gshare::new(12), LastTargetBtb::new(9));
        let got = run_frontend(&mut gshare, &mut btb, None, &trace, penalties);
        let (mut gshare, mut btb) = (Gshare::new(12), LastTargetBtb::new(9));
        assert_eq!(got, stepwise(&mut gshare, &mut btb, None, &trace, penalties));
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
