//! A Bullseye-style hard-branch filter ("Taming Wild Branches",
//! arXiv:2506.06773): a hard-branch table (HBT) classifies static
//! branches by observed mispredict rate under the cheap primary
//! predictor, and routes the hard ones to a larger secondary predictor
//! that only has to learn the branches that need it.
//!
//! Here the primary is a [`Gshare`] at a quarter of the budget and the
//! secondary a [`Tage`] at half; the HBT takes the rest. Both components
//! train on every branch (so the secondary is warm when a branch first
//! crosses the hardness threshold), but only one supplies the
//! prediction.

use vlpp_trace::{Addr, BranchRecord};

use crate::budget::Budget;
use crate::gshare::Gshare;
use crate::tage::Tage;
use crate::traits::{BranchObserver, ConditionalPredictor};

/// A branch qualifies as hard once it has at least this many samples.
const MIN_SAMPLES: u16 = 32;

/// Samples halve (sliding window) once `total` reaches this.
const WINDOW: u16 = 256;

/// One HBT entry: a direct-mapped, tagged mispredict profile.
#[derive(Debug, Clone, Copy, Default)]
struct HbtEntry {
    tag: u32,
    misses: u16,
    total: u16,
}

/// A Bullseye-style dual predictor with a hard-branch filter.
///
/// # Example
///
/// ```
/// use vlpp_predict::{Budget, Bullseye, ConditionalPredictor};
/// use vlpp_trace::Addr;
///
/// let mut p = Bullseye::new(Budget::from_kib(16));
/// let pc = Addr::new(0x1000);
/// let _guess = p.predict(pc);
/// p.train(pc, false);
/// ```
#[derive(Debug, Clone)]
pub struct Bullseye {
    primary: Gshare,
    secondary: Tage,
    hbt: Vec<HbtEntry>,
    hbt_mask: u64,
    budget: Budget,
}

impl Bullseye {
    /// Creates a Bullseye predictor sized for `budget` (quarter to the
    /// primary gshare, half to the secondary TAGE, an HBT from the
    /// remainder).
    ///
    /// # Panics
    ///
    /// Panics if `budget` is smaller than 2 KiB (the secondary TAGE
    /// needs its 512-byte minimum at half the budget... times two for
    /// safety margin on the primary split).
    pub fn new(budget: Budget) -> Self {
        let bytes = budget.bytes();
        assert!(bytes >= 2048, "bullseye needs at least a 2KiB budget, got {bytes}");
        let hbt_entries = ((bytes / 64) as usize).max(16);
        Bullseye {
            primary: Gshare::new(Budget::from_bytes(bytes / 4).cond_index_bits()),
            secondary: Tage::new(Budget::from_bytes(bytes / 2)),
            hbt: vec![HbtEntry::default(); hbt_entries],
            hbt_mask: hbt_entries as u64 - 1,
            budget,
        }
    }

    /// Bytes charged: primary counters + secondary TAGE storage + the
    /// HBT at 8 bytes per entry.
    pub fn storage_bytes(&self) -> u64 {
        self.budget.bytes() / 4 + self.secondary.storage_bytes() + self.hbt.len() as u64 * 8
    }

    fn hbt_index(&self, pc: Addr) -> usize {
        (pc.word() & self.hbt_mask) as usize
    }

    fn hbt_tag(pc: Addr) -> u32 {
        pc.word() as u32
    }

    /// Is the branch at `pc` currently classified hard (≥ 25% primary
    /// mispredict rate over an adequate sample)?
    fn hard(&self, pc: Addr) -> bool {
        let entry = &self.hbt[self.hbt_index(pc)];
        entry.tag == Self::hbt_tag(pc)
            && entry.total >= MIN_SAMPLES
            && entry.misses * 4 >= entry.total
    }
}

impl BranchObserver for Bullseye {
    fn observe(&mut self, record: &BranchRecord) {
        self.primary.observe(record);
        self.secondary.observe(record);
    }
}

impl ConditionalPredictor for Bullseye {
    fn predict(&mut self, pc: Addr) -> bool {
        if self.hard(pc) {
            self.secondary.predict(pc)
        } else {
            self.primary.predict(pc)
        }
    }

    fn train(&mut self, pc: Addr, taken: bool) {
        // Profile the primary's accuracy on this branch, whichever
        // component supplied the routed prediction.
        let primary_pred = self.primary.predict(pc);
        let idx = self.hbt_index(pc);
        let tag = Self::hbt_tag(pc);
        let entry = &mut self.hbt[idx];
        if entry.tag != tag {
            *entry = HbtEntry { tag, misses: 0, total: 0 };
        }
        entry.total += 1;
        if primary_pred != taken {
            entry.misses += 1;
        }
        if entry.total >= WINDOW {
            entry.total /= 2;
            entry.misses /= 2;
        }
        self.primary.train(pc, taken);
        self.secondary.train(pc, taken);
    }

    fn name(&self) -> String {
        format!("bullseye-{}", self.budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tage::tests::{assert_same_state, prediction_stream_hash};

    #[test]
    fn prediction_stream_is_pinned() {
        let hash = prediction_stream_hash(&mut Bullseye::new(Budget::from_kib(16)));
        assert_eq!(hash, 0x9d71_9d11_0a52_402a, "{hash:#x}");
    }

    #[test]
    fn secondary_trains_without_a_predict_on_easy_branches() {
        // Mostly-taken branches stay on the primary, so the secondary
        // is trained but never asked: each train hashes its own slots.
        let budget = Budget::from_kib(4);
        let mut p = Bullseye::new(budget);
        let mut reference = Tage::new(Budget::from_bytes(budget.bytes() / 2));
        for i in 0..4000u64 {
            let pc = Addr::new(0x3000 + (i % 8) * 4);
            let taken = !(i / 8).is_multiple_of(16);
            let record = BranchRecord::conditional(pc, Addr::new(0x8000), taken);
            let _ = p.predict(pc);
            p.train(pc, taken);
            p.observe(&record);
            assert!(!p.hard(pc), "{pc:?} must stay easy");
            let _ = reference.predict(pc);
            reference.train(pc, taken);
            reference.observe(&record);
        }
        assert_same_state(&p.secondary, &reference);
    }

    #[test]
    fn easy_branches_stay_on_the_primary() {
        let mut p = Bullseye::new(Budget::from_kib(4));
        let pc = Addr::new(0x3000);
        for _ in 0..500 {
            let _ = p.predict(pc);
            p.train(pc, true);
            p.observe(&BranchRecord::conditional(pc, Addr::new(0x8000), true));
        }
        assert!(!p.hard(pc), "an always-taken branch must not classify hard");
    }

    #[test]
    fn alternating_history_branch_goes_hard_under_interference() {
        // Saturate the primary with conflicting branches so one
        // history-keyed branch stays inaccurate on gshare; it must cross
        // the hardness threshold.
        let mut p = Bullseye::new(Budget::from_kib(2));
        let hard_pc = Addr::new(0x4000);
        let mut x = 1u64;
        for i in 0..4000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let taken = (x >> 40) & 1 == 1;
            let _ = p.predict(hard_pc);
            p.train(hard_pc, taken);
            p.observe(&BranchRecord::conditional(hard_pc, Addr::new(0x8000), taken));
            let _ = i;
        }
        assert!(p.hard(hard_pc), "a coin-flip branch must classify hard");
    }

    #[test]
    fn is_deterministic() {
        let run = || {
            let mut p = Bullseye::new(Budget::from_kib(2));
            let mut x = 9u64;
            let mut out = Vec::new();
            for _ in 0..3000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let pc = Addr::new(0x1000 + (x % 32) * 4);
                let taken = (x >> 33) & 1 == 1;
                out.push(p.predict(pc));
                p.train(pc, taken);
                p.observe(&BranchRecord::conditional(pc, Addr::new(0x8000), taken));
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn storage_is_within_budget() {
        for kib in [2, 4, 16] {
            let b = Budget::from_kib(kib);
            let p = Bullseye::new(b);
            assert!(p.storage_bytes() <= b.bytes(), "{kib}KiB: {}", p.storage_bytes());
        }
    }

    #[test]
    #[should_panic(expected = "2KiB budget")]
    fn rejects_tiny_budget() {
        Bullseye::new(Budget::from_kib(1));
    }
}
