//! Variable-length *pattern* history: the Tarlescu–Theobald–Gao
//! "elastic history buffer" (paper §2), profile-selecting the number of
//! outcome-history bits per branch.
//!
//! This is the pattern-history mirror of the paper's contribution: same
//! per-branch length selection, but over gshare's outcome bits instead
//! of path target addresses. Comparing [`ElasticGshare`] against
//! [`CondKernel`](crate::CondKernel) isolates *what kind of history* is
//! being varied — the workspace's `related-cond` experiment
//! does exactly that.

use std::collections::HashMap;

use vlpp_predict::{BranchObserver, ConditionalPredictor, CounterPlane, OutcomeHistory};
use vlpp_trace::{Addr, BranchKind, BranchRecord, Trace};

use crate::select::HashAssignment;

/// A gshare-style predictor whose history length is selected per static
/// branch (lengths come from a [`HashAssignment`], 1..=32 bits, clamped
/// to the index width; the assignment's "hash number" is reinterpreted
/// as a history bit count).
///
/// # Example
///
/// ```
/// use vlpp_core::{ElasticGshare, HashAssignment};
/// use vlpp_predict::ConditionalPredictor;
/// use vlpp_trace::Addr;
///
/// let mut p = ElasticGshare::new(12, HashAssignment::fixed(8));
/// let _ = p.predict(Addr::new(0x40));
/// p.train(Addr::new(0x40), true);
/// ```
#[derive(Debug, Clone)]
pub struct ElasticGshare {
    history: OutcomeHistory,
    table: CounterPlane,
    assignment: HashAssignment,
    index_bits: u32,
}

impl ElasticGshare {
    /// Creates an elastic gshare with a `2^index_bits`-entry table and
    /// the given per-branch history-length assignment.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 28.
    pub fn new(index_bits: u32, assignment: HashAssignment) -> Self {
        assert!((1..=28).contains(&index_bits), "index width must be in 1..=28, got {index_bits}");
        ElasticGshare {
            history: OutcomeHistory::new(index_bits.min(32)),
            table: CounterPlane::new(1 << index_bits),
            assignment,
            index_bits,
        }
    }

    /// The history length (bits) used for `pc`.
    pub fn selected_length(&self, pc: Addr) -> u32 {
        (self.assignment.get(pc) as u32).min(self.index_bits)
    }

    /// The table index for `pc`: its selected history bits XOR its
    /// word address, masked to the index width.
    #[inline]
    fn index(&self, pc: Addr) -> usize {
        let length = self.selected_length(pc);
        let history = if length >= 64 {
            self.history.bits()
        } else {
            self.history.bits() & ((1u64 << length) - 1)
        };
        ((history ^ pc.word()) & ((1u64 << self.index_bits) - 1)) as usize
    }
}

impl BranchObserver for ElasticGshare {
    fn observe(&mut self, record: &BranchRecord) {
        if record.kind() == BranchKind::Conditional {
            self.history.push(record.taken());
        }
    }
}

impl ConditionalPredictor for ElasticGshare {
    fn predict(&mut self, pc: Addr) -> bool {
        self.table.predict_taken(self.index(pc))
    }

    fn train(&mut self, pc: Addr, taken: bool) {
        self.table.update(self.index(pc), taken);
    }

    fn name(&self) -> String {
        if self.assignment.is_fixed() {
            "gshare".into()
        } else {
            "elastic gshare".into()
        }
    }
}

/// Profiles per-branch history lengths for [`ElasticGshare`] the same
/// way the paper's step 1 profiles path lengths: one private-table
/// predictor per candidate length, best length per branch, global best
/// as the default.
///
/// # Example
///
/// ```
/// use vlpp_core::elastic::profile_lengths;
/// use vlpp_trace::Trace;
///
/// let assignment = profile_lengths(&Trace::new(), 10);
/// assert!(assignment.is_fixed()); // nothing to profile
/// ```
pub fn profile_lengths(trace: &Trace, index_bits: u32) -> HashAssignment {
    let lengths: Vec<u32> = (1..=index_bits.min(16)).collect();
    let mut history = OutcomeHistory::new(index_bits);
    let mask = (1u64 << index_bits) - 1;
    let mut tables: Vec<CounterPlane> =
        lengths.iter().map(|_| CounterPlane::new(1 << index_bits)).collect();
    let mut correct: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut totals = vec![0u64; lengths.len()];

    for record in trace.iter() {
        if record.is_conditional() {
            let tally = correct.entry(record.pc().raw()).or_insert_with(|| vec![0; lengths.len()]);
            for (i, &length) in lengths.iter().enumerate() {
                let bits = history.bits() & ((1u64 << length) - 1);
                let index = ((bits ^ record.pc().word()) & mask) as usize;
                if tables[i].predict_update(index, record.taken()) == record.taken() {
                    tally[i] += 1;
                    totals[i] += 1;
                }
            }
            history.push(record.taken());
        }
    }

    let default = lengths
        .iter()
        .enumerate()
        .max_by_key(|&(i, _)| (totals[i], std::cmp::Reverse(i)))
        .map(|(_, &l)| l as u8)
        .unwrap_or(8);
    let mut assignment = HashAssignment::fixed(default);
    for (pc, tally) in correct {
        let best = (0..lengths.len())
            .max_by_key(|&i| (tally[i], std::cmp::Reverse(i)))
            .expect("non-empty lengths");
        assignment.assign(Addr::new(pc), lengths[best] as u8);
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(p: &mut ElasticGshare, pc: u64, taken: bool) -> bool {
        let pc = Addr::new(pc);
        let prediction = p.predict(pc);
        p.train(pc, taken);
        p.observe(&BranchRecord::conditional(pc, Addr::new(pc.raw() + 4), taken));
        prediction
    }

    #[test]
    fn fixed_full_length_behaves_like_gshare() {
        // With length = index width for every branch, the index formula
        // is exactly gshare's.
        let mut elastic = ElasticGshare::new(10, HashAssignment::fixed(10));
        let mut gshare = vlpp_predict::Gshare::new(10);
        let mut x: u32 = 3;
        for _ in 0..2000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let pc = 0x1000 + ((x >> 8) & 0xfc) as u64;
            let taken = (x >> 16) & 3 != 0;
            let e = drive(&mut elastic, pc, taken);
            let g = {
                let a = Addr::new(pc);
                let prediction = gshare.predict(a);
                gshare.train(a, taken);
                gshare.observe(&BranchRecord::conditional(a, Addr::new(pc + 4), taken));
                prediction
            };
            assert_eq!(e, g);
        }
    }

    #[test]
    fn per_branch_short_length_shields_a_biased_branch() {
        // The elastic mechanism in one scenario: a strongly biased
        // branch amid heavy random history. Giving *that branch alone*
        // a 1-bit history confines it to two strongly-trained entries;
        // a global 8-bit history sprays it over 256 rarely-revisited,
        // noise-polluted entries.
        let biased_pc = 0x4004u64;
        let mut per_branch = HashAssignment::fixed(8);
        per_branch.assign(Addr::new(biased_pc), 1);
        let mut elastic = ElasticGshare::new(8, per_branch);
        let mut uniform = ElasticGshare::new(8, HashAssignment::fixed(8));
        let mut x: u32 = 9;
        let mut elastic_correct = 0;
        let mut uniform_correct = 0;
        for i in 0..1500u32 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            // Eight random branches keep the history high-entropy and
            // the table under pressure, so an 8-bit-history biased
            // branch never finishes training.
            for slot in 0..8u64 {
                let noise = (x as u64 >> (12 + slot)) & 1 == 1;
                drive(&mut elastic, 0x9000 + 4 * slot, noise);
                drive(&mut uniform, 0x9000 + 4 * slot, noise);
            }
            if drive(&mut elastic, biased_pc, true) && i > 50 {
                elastic_correct += 1;
            }
            if drive(&mut uniform, biased_pc, true) && i > 50 {
                uniform_correct += 1;
            }
        }
        assert!(
            elastic_correct > uniform_correct,
            "a per-branch short history should win on the biased branch: \
             {elastic_correct} vs {uniform_correct}"
        );
    }

    #[test]
    fn profiled_lengths_adapt_per_branch() {
        // Branch A: biased (wants short history). Branch B: correlated
        // with the previous outcome (wants >= 1 bit).
        let mut trace = Trace::new();
        let mut x: u32 = 7;
        for _ in 0..4000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let r = (x >> 16) & 1 == 1;
            trace.push(BranchRecord::conditional(Addr::new(0x100), Addr::new(0x200), r));
            trace.push(BranchRecord::conditional(Addr::new(0x300), Addr::new(0x400), r));
        }
        let assignment = profile_lengths(&trace, 10);
        assert_eq!(assignment.assigned_count(), 2);
        // Branch 0x300 repeats 0x100's outcome: one bit of history
        // suffices and more only costs; its length should be small.
        assert!(assignment.get(Addr::new(0x300)) <= 4);
    }

    #[test]
    fn profiled_elastic_beats_plain_gshare_on_mixed_needs() {
        let mut profile = Trace::new();
        let mut test = Trace::new();
        for (seed, trace) in [(11u64, &mut profile), (22u64, &mut test)] {
            let mut x = seed;
            for _ in 0..6000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = (x >> 33) & 1 == 1;
                // Pure noise branch.
                trace.push(BranchRecord::conditional(Addr::new(0x100), Addr::new(0x200), r));
                // Strongly biased branch (wants short history).
                let biased = (x >> 40) & 0xf != 0;
                trace.push(BranchRecord::conditional(Addr::new(0x300), Addr::new(0x400), biased));
                // Correlated branch (wants some history).
                trace.push(BranchRecord::conditional(Addr::new(0x500), Addr::new(0x600), r));
            }
        }
        let assignment = profile_lengths(&profile, 10);
        let run = |assignment: HashAssignment| {
            ElasticGshare::new(10, assignment).run(test.records()).mispredictions
        };
        let elastic = run(assignment);
        let plain = run(HashAssignment::fixed(10));
        assert!(elastic <= plain, "elastic ({elastic}) should not lose to gshare ({plain})");
    }

    #[test]
    fn name_distinguishes_fixed_and_elastic() {
        assert_eq!(ElasticGshare::new(8, HashAssignment::fixed(8)).name(), "gshare");
        let mut a = HashAssignment::fixed(8);
        a.assign(Addr::new(4), 2);
        assert_eq!(ElasticGshare::new(8, a).name(), "elastic gshare");
    }
}
