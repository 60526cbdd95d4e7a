//! The path predictor's structure (paper §3.1, Figures 1 and 2):
//! [`PathConfig`], shared by every path predictor in the crate.
//!
//! The predictors themselves are [`CondKernel`](crate::CondKernel) and
//! [`IndKernel`](crate::IndKernel) over a static [`HashAssignment`]
//! (a fixed assignment yields the paper's *fixed length path*
//! predictor, a profiled one the *variable length path* predictor) and
//! [`DynamicPathConditional`](crate::DynamicPathConditional) for §3.4
//! hardware selection. This module's tests pin their behaviour.
//!
//! [`HashAssignment`]: crate::HashAssignment

use vlpp_predict::Budget;

use crate::MAX_PATH_LENGTH;

/// Structural parameters of a path predictor: everything except the
/// second-level table contents and the hash selection.
///
/// # Example
///
/// ```
/// use vlpp_core::PathConfig;
///
/// let c = PathConfig::conditional_for_bytes(16 * 1024);
/// assert_eq!(c.index_bits, 16);
/// assert_eq!(c.thb_capacity, 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathConfig {
    /// Width `k` of the predictor-table index and of each compressed
    /// target in the THB.
    pub index_bits: u32,
    /// THB capacity `N` (the paper uses 32).
    pub thb_capacity: usize,
    /// Whether return targets enter the THB (§3.2 ablation; the paper's
    /// experiments leave them out).
    pub store_returns: bool,
    /// Depth of the §6 call/return history stack, or `None` to disable
    /// (the paper's experiments disable it; it is future work there).
    pub history_stack_depth: Option<usize>,
}

impl PathConfig {
    /// A configuration with the paper's defaults (32-entry THB, no
    /// returns, no history stack) and the given index width.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 28.
    pub fn new(index_bits: u32) -> Self {
        assert!((1..=28).contains(&index_bits), "index width must be in 1..=28, got {index_bits}");
        PathConfig {
            index_bits,
            thb_capacity: MAX_PATH_LENGTH,
            store_returns: false,
            history_stack_depth: None,
        }
    }

    /// A conditional-predictor configuration for a table of `bytes`
    /// bytes (2-bit counter entries).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a power of two or is out of range.
    pub fn conditional_for_bytes(bytes: u64) -> Self {
        PathConfig::new(Budget::from_bytes(bytes).cond_index_bits())
    }

    /// An indirect-predictor configuration for a table of `bytes` bytes
    /// (4-byte target entries).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a power of two or is out of range.
    pub fn indirect_for_bytes(bytes: u64) -> Self {
        PathConfig::new(Budget::from_bytes(bytes).ind_index_bits())
    }

    /// Returns the configuration with return targets recorded.
    pub fn with_returns(mut self) -> Self {
        self.store_returns = true;
        self
    }

    /// Returns the configuration with a call/return history stack of the
    /// given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0.
    pub fn with_history_stack(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "history stack depth must be at least 1");
        self.history_stack_depth = Some(depth);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CondKernel, DynamicPathConditional, HashAssignment, IndKernel};
    use vlpp_predict::{BranchObserver, ConditionalPredictor, IndirectPredictor};
    use vlpp_trace::{Addr, BranchRecord};

    fn cond(pc: u64, target: u64, taken: bool) -> BranchRecord {
        BranchRecord::conditional(Addr::new(pc), Addr::new(target), taken)
    }

    #[test]
    fn config_budget_constructors() {
        assert_eq!(PathConfig::conditional_for_bytes(4096).index_bits, 14);
        assert_eq!(PathConfig::indirect_for_bytes(512).index_bits, 7);
    }

    #[test]
    fn names_distinguish_fixed_and_variable() {
        let config = PathConfig::new(8);
        let fixed = CondKernel::new(&config, &HashAssignment::fixed(4));
        assert_eq!(fixed.name(), "fixed length path");
        let mut a = HashAssignment::fixed(4);
        a.assign(Addr::new(0x10), 2);
        let variable = CondKernel::new(&config, &a);
        assert_eq!(variable.name(), "variable length path");
        let dynamic = DynamicPathConditional::new(&config, &[1, 2, 4], 6);
        assert_eq!(dynamic.name(), "dynamic path");
    }

    #[test]
    fn conditional_learns_a_path_determined_branch() {
        // Branch at 0x9000 is taken iff the previous branch's target was
        // block A. A path predictor with length >= 1 nails this.
        let mut p = CondKernel::new(&PathConfig::new(10), &HashAssignment::fixed(1));
        let block_a = Addr::new(0x100 << 2);
        let block_b = Addr::new(0x200 << 2);
        let mut correct = 0;
        let mut x: u32 = 5;
        for i in 0..2000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let go_a = (x >> 16) & 1 == 1;
            let lead_target = if go_a { block_a } else { block_b };
            p.apply(&cond(0x50, lead_target.raw(), true));
            let (_, hit) = p.apply(&cond(0x9000, 0x9100, go_a)).expect("conditional");
            if hit && i >= 200 {
                correct += 1;
            }
        }
        assert!(correct as f64 / 1800.0 > 0.95, "path length 1 should suffice, got {correct}");
    }

    #[test]
    fn indirect_learns_path_determined_targets() {
        let mut p = IndKernel::new(&PathConfig::new(8), &HashAssignment::fixed(1));
        let (ta, tb) = (Addr::new(0x4000), Addr::new(0x8000));
        // Lead targets must stay distinguishable after 8-bit word
        // compression.
        let block_a = Addr::new(0x11 << 2);
        let block_b = Addr::new(0x22 << 2);
        let mut correct = 0;
        let mut x: u32 = 77;
        for i in 0..2000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let go_a = (x >> 16) & 1 == 1;
            p.apply(&cond(0x50, if go_a { block_a } else { block_b }.raw(), true));
            let actual = if go_a { ta } else { tb };
            let (_, hit) =
                p.apply(&BranchRecord::indirect(Addr::new(0x9000), actual)).expect("indirect");
            if hit && i >= 200 {
                correct += 1;
            }
        }
        assert!(correct as f64 / 1800.0 > 0.95, "got {correct}");
    }

    #[test]
    fn hash_number_clamps_to_thb_capacity() {
        // HF_32 over a 4-entry THB is HF_4: both kernels predict alike.
        let mut config = PathConfig::new(8);
        config.thb_capacity = 4;
        let mut overlong = CondKernel::new(&config, &HashAssignment::fixed(32));
        let mut at_capacity = CondKernel::new(&config, &HashAssignment::fixed(4));
        let mut x = 9u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let record = cond(0x40 + ((x >> 40) & 0xf) * 4, ((x >> 20) & 0xff) << 2, x & 1 == 1);
            assert_eq!(overlong.apply(&record), at_capacity.apply(&record));
        }
        assert_eq!(overlong.counter_values(), at_capacity.counter_values());
    }

    /// The §4.1 history state a kernel would snapshot right now.
    fn history(p: &CondKernel) -> Vec<u64> {
        p.export_state().0.hashers
    }

    #[test]
    fn history_stack_restores_caller_path() {
        let config = PathConfig::new(10).with_history_stack(8);
        let mut p = CondKernel::new(&config, &HashAssignment::fixed(4));
        // Build caller history.
        for i in 0..4u64 {
            p.observe(&cond(0x100 + 4 * i, (0x500 + i) << 2, true));
        }
        let caller = history(&p);
        // Call; the callee pollutes history.
        p.observe(&BranchRecord::call(Addr::new(0x200), Addr::new(0x4000)));
        for i in 0..6u64 {
            p.observe(&cond(0x4000 + 4 * i, (0x900 + i) << 2, true));
        }
        assert_ne!(history(&p), caller);
        // Return restores the caller's history.
        p.observe(&BranchRecord::ret(Addr::new(0x4100), Addr::new(0x204)));
        assert_eq!(history(&p), caller);
    }

    #[test]
    fn without_stack_callee_history_persists() {
        let mut p = CondKernel::new(&PathConfig::new(10), &HashAssignment::fixed(4));
        for i in 0..4u64 {
            p.observe(&cond(0x100 + 4 * i, (0x500 + i) << 2, true));
        }
        let caller = history(&p);
        p.observe(&BranchRecord::call(Addr::new(0x200), Addr::new(0x4000)));
        for i in 0..6u64 {
            p.observe(&cond(0x4000 + 4 * i, (0x900 + i) << 2, true));
        }
        p.observe(&BranchRecord::ret(Addr::new(0x4100), Addr::new(0x204)));
        assert_ne!(history(&p), caller);
    }

    #[test]
    fn observe_policy_matches_section_3_2() {
        // Only conditional and indirect targets enter the path history.
        let mut p = CondKernel::new(&PathConfig::new(10), &HashAssignment::fixed(4));
        let empty = history(&p);
        p.observe(&BranchRecord::unconditional(Addr::new(0x10), Addr::new(0x300)));
        p.observe(&BranchRecord::call(Addr::new(0x10), Addr::new(0x400)));
        p.observe(&BranchRecord::ret(Addr::new(0x10), Addr::new(0x500)));
        assert_eq!(history(&p), empty, "unconditional, call and return are not recorded");
        p.observe(&cond(0x10, 0x100, true));
        let after_conditional = history(&p);
        assert_ne!(after_conditional, empty);
        p.observe(&BranchRecord::indirect(Addr::new(0x10), Addr::new(0x200)));
        assert_ne!(history(&p), after_conditional);
    }

    #[test]
    fn with_returns_also_records_returns() {
        let mut p = CondKernel::new(&PathConfig::new(10).with_returns(), &HashAssignment::fixed(4));
        let empty = history(&p);
        p.observe(&BranchRecord::call(Addr::new(0x10), Addr::new(0x400)));
        assert_eq!(history(&p), empty, "calls are never recorded");
        p.observe(&BranchRecord::ret(Addr::new(0x10), Addr::new(0x500)));
        assert_ne!(history(&p), empty);
    }

    #[test]
    fn dynamic_selection_converges_to_useful_length() {
        // Outcome depends on the path 2 back; HF_1 can't see it, HF_2 can.
        let mut p = DynamicPathConditional::new(&PathConfig::new(10), &[1, 2], 4);
        let pc = Addr::new(0x9000);
        let mut x: u32 = 3;
        let mut correct = 0;
        for i in 0..4000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let hidden = (x >> 16) & 1 == 1;
            // Branch 2 back encodes `hidden` in its target.
            p.observe(&cond(0x50, if hidden { 0x100 << 2 } else { 0x200 << 2 }, true));
            // Branch 1 back is uncorrelated noise with a 50/50 target.
            let noise = (x >> 18) & 1 == 1;
            p.observe(&cond(0x60, if noise { 0x300 << 2 } else { 0x400 << 2 }, true));
            let prediction = p.predict(pc);
            p.train(pc, hidden);
            p.observe(&cond(pc.raw(), 0x9100, hidden));
            if prediction == hidden && i >= 1000 {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / 3000.0 > 0.9,
            "dynamic selector should discover HF_2, got {correct}/3000"
        );
        assert_eq!(p.selected_hash(pc), 2);
    }

    #[test]
    fn indirect_cold_predicts_null() {
        let mut p = IndKernel::new(&PathConfig::new(8), &HashAssignment::fixed(3));
        assert_eq!(p.predict(Addr::new(0x10)), Addr::NULL);
    }
}
