//! A return address stack (RAS).
//!
//! The paper excludes returns from its indirect-branch predictors
//! because "they are not predicted by the indirect branch predictors
//! considered in this paper" — a real front end predicts them with a
//! return address stack. This module supplies that missing piece so the
//! workspace models the complete control-flow-prediction story.

use vlpp_trace::{Addr, BranchKind, BranchRecord};

use crate::{BranchObserver, RunStats};

/// A fixed-depth return address stack with wrap-around overwrite on
/// overflow (the classic hardware organization).
///
/// Drive it with [`observe`](BranchObserver::observe) for every retired
/// record (it pushes on calls) and call [`predict`](Self::predict) /
/// [`resolve`](Self::resolve) around each return; [`run`](Self::run)
/// does both over a branch stream.
///
/// # Example
///
/// ```
/// use vlpp_predict::{BranchObserver, ReturnAddressStack};
/// use vlpp_trace::{Addr, BranchRecord};
///
/// let mut ras = ReturnAddressStack::new(16);
/// ras.observe(&BranchRecord::call(Addr::new(0x100), Addr::new(0x4000)));
/// assert_eq!(ras.predict(), Addr::new(0x104)); // call pc + 4
/// ```
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    entries: Vec<Addr>,
    /// Index of the next free slot (top of stack = top - 1, circular).
    top: usize,
    /// Number of live entries (≤ depth).
    live: usize,
    hits: u64,
    predictions: u64,
}

impl ReturnAddressStack {
    /// Creates a RAS holding `depth` return addresses.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0.
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 1, "RAS depth must be at least 1");
        ReturnAddressStack {
            entries: vec![Addr::NULL; depth],
            top: 0,
            live: 0,
            hits: 0,
            predictions: 0,
        }
    }

    /// The predicted target of the next return: the top of the stack,
    /// or [`Addr::NULL`] when empty.
    pub fn predict(&self) -> Addr {
        if self.live == 0 {
            Addr::NULL
        } else {
            self.entries[(self.top + self.entries.len() - 1) % self.entries.len()]
        }
    }

    /// Scores a resolved return: pops the stack, compares the popped
    /// prediction to `target`, and returns whether it was correct.
    pub fn resolve(&mut self, target: Addr) -> bool {
        let prediction = self.predict();
        if self.live > 0 {
            self.top = (self.top + self.entries.len() - 1) % self.entries.len();
            self.live -= 1;
        }
        self.predictions += 1;
        let correct = prediction == target;
        if correct {
            self.hits += 1;
        }
        correct
    }

    /// Drives the stack over a branch stream: each return is scored with
    /// [`resolve`](Self::resolve), every other record is observed (a call
    /// pushes). Returns the returns of these records and how many missed.
    pub fn run(&mut self, records: &[BranchRecord]) -> RunStats {
        let mut stats = RunStats::default();
        for record in records {
            if record.kind() == BranchKind::Return {
                stats.record(self.resolve(record.target()));
            } else {
                self.observe(record);
            }
        }
        stats
    }

    /// Number of returns scored so far.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Fraction of returns predicted correctly, in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.hits as f64 / self.predictions as f64
        }
    }

    /// Current number of live entries.
    pub fn depth_in_use(&self) -> usize {
        self.live
    }

    fn push(&mut self, return_address: Addr) {
        self.entries[self.top] = return_address;
        self.top = (self.top + 1) % self.entries.len();
        self.live = (self.live + 1).min(self.entries.len());
    }
}

impl BranchObserver for ReturnAddressStack {
    fn observe(&mut self, record: &BranchRecord) {
        if record.kind() == BranchKind::Call {
            // The return address is the instruction after the call.
            self.push(record.pc().wrapping_add(4));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(pc: u64) -> BranchRecord {
        BranchRecord::call(Addr::new(pc), Addr::new(0x9000))
    }

    #[test]
    fn predicts_matching_return() {
        let mut ras = ReturnAddressStack::new(8);
        ras.observe(&call(0x100));
        ras.observe(&call(0x200));
        assert!(ras.resolve(Addr::new(0x204)));
        assert!(ras.resolve(Addr::new(0x104)));
        assert_eq!(ras.hit_rate(), 1.0);
    }

    #[test]
    fn run_scores_returns_and_pushes_calls() {
        let ret = |target: u64| BranchRecord::ret(Addr::new(0x900), Addr::new(target));
        let records = [call(0x100), call(0x200), ret(0x204), ret(0x104), ret(0x999)];
        let mut ras = ReturnAddressStack::new(8);
        assert_eq!(ras.run(&records), RunStats { predictions: 3, mispredictions: 1 });
        assert_eq!(ras.predictions(), 3);
        assert_eq!(ras.depth_in_use(), 0);
    }

    #[test]
    fn empty_stack_mispredicts() {
        let mut ras = ReturnAddressStack::new(4);
        assert_eq!(ras.predict(), Addr::NULL);
        assert!(!ras.resolve(Addr::new(0x104)));
        assert_eq!(ras.predictions(), 1);
        assert_eq!(ras.hit_rate(), 0.0);
    }

    #[test]
    fn overflow_wraps_and_loses_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.observe(&call(0x100));
        ras.observe(&call(0x200));
        ras.observe(&call(0x300)); // overwrites 0x100's slot
        assert!(ras.resolve(Addr::new(0x304)));
        assert!(ras.resolve(Addr::new(0x204)));
        assert!(!ras.resolve(Addr::new(0x104)), "the oldest entry was overwritten");
    }

    #[test]
    fn deep_recursion_degrades_gracefully() {
        let mut ras = ReturnAddressStack::new(4);
        for i in 0..20u64 {
            ras.observe(&call(0x1000 + 8 * i));
        }
        // Only the 4 most recent survive.
        let mut correct = 0;
        for i in (0..20u64).rev() {
            if ras.resolve(Addr::new(0x1000 + 8 * i + 4)) {
                correct += 1;
            }
        }
        assert_eq!(correct, 4);
        assert_eq!(ras.depth_in_use(), 0);
    }

    #[test]
    fn nested_call_return_interleaving() {
        let mut ras = ReturnAddressStack::new(8);
        ras.observe(&call(0x100));
        assert!(ras.resolve(Addr::new(0x104)));
        ras.observe(&call(0x200));
        ras.observe(&call(0x300));
        assert!(ras.resolve(Addr::new(0x304)));
        ras.observe(&call(0x400));
        assert!(ras.resolve(Addr::new(0x404)));
        assert!(ras.resolve(Addr::new(0x204)));
        assert_eq!(ras.hit_rate(), 1.0);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn rejects_zero_depth() {
        ReturnAddressStack::new(0);
    }
}
