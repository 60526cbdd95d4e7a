//! Predictor traits and the simulation protocol.
//!
//! The protocol is written once, as the provided
//! [`ConditionalPredictor::run`] / [`IndirectPredictor::run`] methods.
//! Each implementing type gets its own monomorphized copy of the loop,
//! in which `predict`, `train` and `observe` are static calls the
//! compiler can inline; a `Box<dyn _>` forwards `run` through its
//! vtable, so a boxed predictor costs one virtual call per trace rather
//! than three per record. The path predictor's structure-of-arrays
//! kernels in `vlpp-core` override `run` with their fused per-record
//! step, which keeps the same protocol.

use vlpp_trace::json::{JsonValue, ToJson};
use vlpp_trace::{Addr, BranchRecord};

/// A run's prediction totals, as the protocol loops
/// ([`ConditionalPredictor::run`], [`IndirectPredictor::run`]) return
/// them: dynamic branches predicted and how many of them missed.
/// Per-static-branch counts are not kept here; the path predictor's
/// kernels in `vlpp-core` keep their own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Dynamic branches predicted.
    pub predictions: u64,
    /// Dynamic branches predicted incorrectly.
    pub mispredictions: u64,
}

impl ToJson for RunStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("predictions".to_string(), self.predictions.to_json()),
            ("mispredictions".to_string(), self.mispredictions.to_json()),
        ])
    }
}

impl RunStats {
    /// Records one prediction outcome.
    pub fn record(&mut self, correct: bool) {
        self.predictions += 1;
        self.mispredictions += u64::from(!correct);
    }

    /// The misprediction rate in [0, 1] (0 if nothing was predicted).
    pub fn miss_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }

    /// The misprediction rate as a percentage.
    pub fn miss_percent(&self) -> f64 {
        100.0 * self.miss_rate()
    }
}

/// Adds another run's totals: a stream run in chunks sums to the totals
/// of one run over the whole stream.
impl std::ops::AddAssign for RunStats {
    fn add_assign(&mut self, other: RunStats) {
        self.predictions += other.predictions;
        self.mispredictions += other.mispredictions;
    }
}

/// A component that watches the retired branch stream.
///
/// Global history structures — outcome shift registers, path registers,
/// Target History Buffers — must advance on branches the predictor does
/// not itself predict (e.g. a conditional predictor's path history still
/// records indirect-branch targets). The protocol loops
/// ([`ConditionalPredictor::run`], [`IndirectPredictor::run`]) therefore
/// call [`observe`](Self::observe) once for *every* retired control
/// transfer, after any `predict`/`train` pair for that branch.
pub trait BranchObserver {
    /// Notifies the component that `record` retired.
    fn observe(&mut self, record: &BranchRecord);
}

/// A conditional-branch direction predictor.
///
/// The trace-driven protocol for each retired conditional branch is:
///
/// 1. [`predict`](Self::predict) with the branch PC,
/// 2. [`train`](Self::train) with the resolved direction,
/// 3. [`observe`](BranchObserver::observe) with the full record
///    (also called for non-conditional branches).
///
/// [`run`](Self::run) is that protocol over a whole trace; its default
/// body is the only place the generic loop is written.
///
/// `predict` takes `&mut self` because some predictors record prediction
/// metadata (e.g. which hash function produced the used index) that
/// `train` consumes.
pub trait ConditionalPredictor: BranchObserver {
    /// Predicts the direction of the branch at `pc`: `true` = taken.
    fn predict(&mut self, pc: Addr) -> bool;

    /// Trains the predictor with the resolved direction of the branch at
    /// `pc`.
    fn train(&mut self, pc: Addr, taken: bool);

    /// A short human-readable name ("gshare", "vlp", …) used in reports.
    fn name(&self) -> String;

    /// Hands the predictor the synthetic load channel of the records it
    /// is about to see: `loads[i]` is the value visible when the `i`-th
    /// record after this call retires. A stream run in chunks calls it
    /// once before each chunk with that chunk's loads, so a predictor
    /// that reads the channel sees the same values as over the whole
    /// stream. Predictors that ignore loads keep this no-op.
    fn feed_loads(&mut self, loads: &[u64]) {
        let _ = loads;
    }

    /// Drives the protocol over `records`: predict → train on each
    /// conditional branch, observe on every record. Returns the
    /// conditional predictions made and how many missed.
    ///
    /// The default body is the protocol, already monomorphized per
    /// type; a predictor overrides it only with a loop that keeps the
    /// same protocol and totals. Besides forwarding wrappers such as
    /// `Box`, the path predictor's kernels in `vlpp-core` do: their
    /// `run` is a fused per-record step, and `vlpp-core`'s
    /// `prop_kernel` suite pins it to this loop.
    fn run(&mut self, records: &[BranchRecord]) -> RunStats {
        let mut stats = RunStats::default();
        for record in records {
            if record.is_conditional() {
                let prediction = self.predict(record.pc());
                stats.record(prediction == record.taken());
                self.train(record.pc(), record.taken());
            }
            self.observe(record);
        }
        stats
    }
}

/// An indirect-branch target predictor.
///
/// Returns are *not* presented to these predictors (the paper excludes
/// them; a return address stack handles them in a real front end).
/// The protocol, and its one loop [`run`](Self::run), mirror
/// [`ConditionalPredictor`].
pub trait IndirectPredictor: BranchObserver {
    /// Predicts the target of the indirect branch at `pc`.
    ///
    /// A predictor with no information for `pc` returns [`Addr::NULL`],
    /// which the runner scores as a misprediction (unless the true target
    /// happens to be null, which generated workloads never produce).
    fn predict(&mut self, pc: Addr) -> Addr;

    /// Trains the predictor with the resolved target of the indirect
    /// branch at `pc`.
    fn train(&mut self, pc: Addr, target: Addr);

    /// A short human-readable name used in reports.
    fn name(&self) -> String;

    /// Drives the protocol over `records`: predict → train on each
    /// indirect branch (returns excluded), observe on every record.
    /// Returns the indirect predictions made and how many missed.
    ///
    /// Overrides must keep the protocol and its totals (see
    /// [`ConditionalPredictor::run`]).
    fn run(&mut self, records: &[BranchRecord]) -> RunStats {
        let mut stats = RunStats::default();
        for record in records {
            if record.is_indirect() {
                let prediction = self.predict(record.pc());
                stats.record(prediction == record.target());
                self.train(record.pc(), record.target());
            }
            self.observe(record);
        }
        stats
    }
}

impl<T: BranchObserver + ?Sized> BranchObserver for Box<T> {
    fn observe(&mut self, record: &BranchRecord) {
        (**self).observe(record)
    }
}

impl<T: ConditionalPredictor + ?Sized> ConditionalPredictor for Box<T> {
    fn predict(&mut self, pc: Addr) -> bool {
        (**self).predict(pc)
    }

    fn train(&mut self, pc: Addr, taken: bool) {
        (**self).train(pc, taken)
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn feed_loads(&mut self, loads: &[u64]) {
        (**self).feed_loads(loads)
    }

    fn run(&mut self, records: &[BranchRecord]) -> RunStats {
        (**self).run(records)
    }
}

impl<T: IndirectPredictor + ?Sized> IndirectPredictor for Box<T> {
    fn predict(&mut self, pc: Addr) -> Addr {
        (**self).predict(pc)
    }

    fn train(&mut self, pc: Addr, target: Addr) {
        (**self).train(pc, target)
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn run(&mut self, records: &[BranchRecord]) -> RunStats {
        (**self).run(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysTaken;

    impl BranchObserver for AlwaysTaken {
        fn observe(&mut self, _: &BranchRecord) {}
    }

    impl ConditionalPredictor for AlwaysTaken {
        fn predict(&mut self, _: Addr) -> bool {
            true
        }
        fn train(&mut self, _: Addr, _: bool) {}
        fn name(&self) -> String {
            "always-taken".into()
        }
    }

    #[test]
    fn trait_objects_work_through_box() {
        let mut p: Box<dyn ConditionalPredictor> = Box::new(AlwaysTaken);
        assert!(p.predict(Addr::new(0)));
        p.train(Addr::new(0), false);
        p.observe(&BranchRecord::conditional(Addr::new(0), Addr::new(4), false));
        assert_eq!(p.name(), "always-taken");
    }

    #[test]
    fn run_follows_the_protocol_through_box() {
        let pc = Addr::new(0x40);
        let records = [
            BranchRecord::conditional(pc, Addr::new(4), true),
            BranchRecord::indirect(pc, Addr::new(8)),
            BranchRecord::conditional(pc, Addr::new(4), false),
        ];
        let mut p: Box<dyn ConditionalPredictor> = Box::new(AlwaysTaken);
        assert_eq!(p.run(&records), RunStats { predictions: 2, mispredictions: 1 });
    }

    #[test]
    fn run_stats_add_up_across_chunks() {
        let mut total = RunStats { predictions: 3, mispredictions: 1 };
        total += RunStats { predictions: 2, mispredictions: 2 };
        assert_eq!(total, RunStats { predictions: 5, mispredictions: 3 });
    }
}
