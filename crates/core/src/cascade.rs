//! A dual-length path hybrid for indirect branches, after Driesen and
//! Hölzle (paper §2): "a hybrid predictor where both components used
//! global path histories but each component used a different length
//! history".
//!
//! The two components split the hardware budget; a chooser table indexed
//! by the branch address learns, per branch set, whether the short- or
//! long-history component predicts better — a hardware-only, two-point
//! approximation of what the variable length path predictor does with 32
//! candidate lengths and profiling.

use vlpp_predict::{BranchObserver, Counter2, IndirectPredictor};
use vlpp_trace::{Addr, BranchRecord};

use crate::kernel::IndKernel;
use crate::path::PathConfig;
use crate::select::HashAssignment;

/// A two-component, dual-path-length indirect hybrid.
///
/// # Example
///
/// ```
/// use vlpp_core::{DualLengthPathIndirect, PathConfig};
/// use vlpp_predict::IndirectPredictor;
/// use vlpp_trace::Addr;
///
/// // Two 1 KB components (2 KB total), lengths 2 and 12.
/// let mut p = DualLengthPathIndirect::new(PathConfig::new(8), 2, 12, 8);
/// let _ = p.predict(Addr::new(0x40));
/// p.train(Addr::new(0x40), Addr::new(0x9000));
/// ```
#[derive(Debug, Clone)]
pub struct DualLengthPathIndirect {
    short: IndKernel,
    long: IndKernel,
    /// ≥ 2 selects the long component.
    chooser: Vec<Counter2>,
    chooser_mask: u64,
    short_length: u8,
    long_length: u8,
}

impl DualLengthPathIndirect {
    /// Creates a dual-length hybrid. `component_config` sizes *each*
    /// component table (so total target storage is twice that);
    /// `short_length` / `long_length` are the two fixed path lengths;
    /// the chooser has `2^chooser_bits` entries.
    ///
    /// # Panics
    ///
    /// Panics if the lengths are not in `1..=32` with
    /// `short_length < long_length`, or `chooser_bits` is 0 or greater
    /// than 24.
    pub fn new(
        component_config: PathConfig,
        short_length: u8,
        long_length: u8,
        chooser_bits: u32,
    ) -> Self {
        assert!(
            short_length >= 1 && short_length < long_length && long_length <= 32,
            "need 1 <= short ({short_length}) < long ({long_length}) <= 32"
        );
        assert!(
            (1..=24).contains(&chooser_bits),
            "chooser index width must be in 1..=24, got {chooser_bits}"
        );
        DualLengthPathIndirect {
            short: IndKernel::new(&component_config, &HashAssignment::fixed(short_length)),
            long: IndKernel::new(&component_config, &HashAssignment::fixed(long_length)),
            chooser: vec![Counter2::WEAK_TAKEN; 1 << chooser_bits],
            chooser_mask: (1u64 << chooser_bits) - 1,
            short_length,
            long_length,
        }
    }

    #[inline]
    fn chooser_index(&self, pc: Addr) -> usize {
        (pc.word() & self.chooser_mask) as usize
    }

    /// The two component path lengths `(short, long)`.
    pub fn lengths(&self) -> (u8, u8) {
        (self.short_length, self.long_length)
    }

    /// Whether the chooser currently selects the long component for `pc`.
    pub fn selects_long(&self, pc: Addr) -> bool {
        self.chooser[self.chooser_index(pc)].predict_taken()
    }
}

impl BranchObserver for DualLengthPathIndirect {
    fn observe(&mut self, record: &BranchRecord) {
        self.short.observe(record);
        self.long.observe(record);
    }
}

impl IndirectPredictor for DualLengthPathIndirect {
    fn predict(&mut self, pc: Addr) -> Addr {
        if self.selects_long(pc) {
            self.long.predict(pc)
        } else {
            self.short.predict(pc)
        }
    }

    fn train(&mut self, pc: Addr, target: Addr) {
        let short_correct = self.short.predict(pc) == target;
        let long_correct = self.long.predict(pc) == target;
        if short_correct != long_correct {
            let index = self.chooser_index(pc);
            self.chooser[index].update(long_correct);
        }
        self.short.train(pc, target);
        self.long.train(pc, target);
    }

    fn name(&self) -> String {
        format!("dual path ({}/{})", self.short_length, self.long_length)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(pc: u64, target: u64, taken: bool) -> BranchRecord {
        BranchRecord::conditional(Addr::new(pc), Addr::new(target), taken)
    }

    #[test]
    fn lengths_and_name() {
        let p = DualLengthPathIndirect::new(PathConfig::new(8), 2, 12, 8);
        assert_eq!(p.lengths(), (2, 12));
        assert_eq!(p.name(), "dual path (2/12)");
    }

    #[test]
    fn chooser_finds_the_right_length_per_branch() {
        let config = PathConfig::new(10);
        let mut p = DualLengthPathIndirect::new(config, 1, 6, 8);
        let mut x: u32 = 3;
        let mut correct = 0;
        // Branch at 0x9000: target determined by the *immediately*
        // preceding conditional's target (needs length 1; length 6 sees
        // 5 extra noisy targets and trains slowly).
        for i in 0..4000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            for noise_slot in 0..5u64 {
                let bit = (x as u64 >> (8 + noise_slot)) & 1;
                p.observe(&cond(
                    0x100 + 4 * noise_slot,
                    (0x40 + noise_slot * 2 + bit) << 2,
                    bit == 1,
                ));
            }
            let hidden = (x >> 16) & 1 == 1;
            p.observe(&cond(0x200, if hidden { 0x11 << 2 } else { 0x22 << 2 }, hidden));
            let pc = Addr::new(0x9000);
            let actual = Addr::new(if hidden { 0x4000 } else { 0x8000 });
            if p.predict(pc) == actual && i >= 1000 {
                correct += 1;
            }
            p.train(pc, actual);
            p.observe(&BranchRecord::indirect(pc, actual));
        }
        assert!(
            correct as f64 / 3000.0 > 0.9,
            "hybrid should converge to the short component: {correct}/3000"
        );
        assert!(!p.selects_long(Addr::new(0x9000)));
    }

    #[test]
    #[should_panic(expected = "short")]
    fn rejects_inverted_lengths() {
        DualLengthPathIndirect::new(PathConfig::new(8), 12, 2, 8);
    }

    #[test]
    fn cold_predicts_null() {
        let mut p = DualLengthPathIndirect::new(PathConfig::new(8), 2, 12, 8);
        assert_eq!(p.predict(Addr::new(0x10)), Addr::NULL);
    }
}
