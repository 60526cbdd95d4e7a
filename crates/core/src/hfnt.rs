//! The Hash Function Number Table (paper §4.3, Figures 3–4): pipelining
//! the two sequential table accesses a variable length path prediction
//! requires.
//!
//! The HFNT is indexed with low branch-address bits and *predicts* the
//! hash function number; the predictor table is then accessed with the
//! index that hash function produced. When the branch is decoded, the
//! actual hash number (from the opcode) is compared with the HFNT's
//! prediction; a mismatch forces a re-prediction — an extra cycle, not a
//! misprediction. The HFNT entry is written at retire.
//!
//! This module models that structure so the re-prediction cost of the
//! scheme can be measured (the `hfnt` and `frontend` experiments in
//! `vlpp-sim`, both through [`Hfnt::run`]).

use std::fmt;

use vlpp_trace::{Addr, BranchRecord};

use crate::HashAssignment;

/// Statistics accumulated by an [`Hfnt`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HfntStats {
    /// Number of lookups (one per predicted branch).
    pub lookups: u64,
    /// Number of lookups whose predicted hash number did not match the
    /// actual one, forcing a re-prediction.
    pub mismatches: u64,
}

impl HfntStats {
    /// Fraction of predictions that had to be re-made, in [0, 1].
    pub fn mismatch_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mismatches as f64 / self.lookups as f64
        }
    }
}

impl fmt::Display for HfntStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} lookups, {} re-predictions ({:.2}%)",
            self.lookups,
            self.mismatches,
            100.0 * self.mismatch_rate()
        )
    }
}

/// The Hash Function Number Table.
///
/// # Example
///
/// ```
/// use vlpp_core::Hfnt;
/// use vlpp_trace::Addr;
///
/// let mut hfnt = Hfnt::new(10, 6); // 1 Ki entries, initialized to HF_6
/// let pc = Addr::new(0x4000);
/// let predicted = hfnt.lookup(pc);
/// assert_eq!(predicted, 6);
/// hfnt.resolve(pc, 3); // actual hash number was 3: mismatch, re-predict
/// assert_eq!(hfnt.stats().mismatches, 1);
/// assert_eq!(hfnt.lookup(pc), 3); // entry updated at retire
/// ```
#[derive(Debug, Clone)]
pub struct Hfnt {
    entries: Vec<u8>,
    mask: u64,
    stats: HfntStats,
}

impl Hfnt {
    /// Creates a `2^set_bits`-entry HFNT with every entry initialized to
    /// `initial` (sensibly, the program's default hash number).
    ///
    /// # Panics
    ///
    /// Panics if `set_bits` exceeds 24 or `initial` is not in `1..=32`.
    pub fn new(set_bits: u32, initial: u8) -> Self {
        assert!(set_bits <= 24, "HFNT index width must be <= 24, got {set_bits}");
        assert!(
            initial >= 1 && initial as usize <= crate::MAX_PATH_LENGTH,
            "initial hash number must be in 1..=32, got {initial}"
        );
        Hfnt {
            entries: vec![initial; 1 << set_bits],
            mask: (1u64 << set_bits) - 1,
            stats: HfntStats::default(),
        }
    }

    #[inline]
    fn index(&self, pc: Addr) -> usize {
        (pc.word() & self.mask) as usize
    }

    /// Fetch-time access: predicts the hash number for the branch at
    /// `pc` and counts the lookup.
    pub fn lookup(&mut self, pc: Addr) -> u8 {
        self.stats.lookups += 1;
        self.entries[self.index(pc)]
    }

    /// Peeks at the entry without counting a lookup.
    pub fn peek(&self, pc: Addr) -> u8 {
        self.entries[self.index(pc)]
    }

    /// Decode/retire-time resolution: compares the last prediction for
    /// `pc` against the `actual` hash number from the opcode, counts a
    /// mismatch if they differ, and writes the entry. Returns `true` if
    /// the numbers matched (no re-prediction needed).
    ///
    /// # Panics
    ///
    /// Panics if `actual` is not in `1..=32`.
    pub fn resolve(&mut self, pc: Addr, actual: u8) -> bool {
        assert!(
            actual >= 1 && actual as usize <= crate::MAX_PATH_LENGTH,
            "hash number must be in 1..=32, got {actual}"
        );
        let index = self.index(pc);
        let matched = self.entries[index] == actual;
        if !matched {
            self.stats.mismatches += 1;
        }
        self.entries[index] = actual;
        matched
    }

    /// Drives the table over a branch stream: a [`lookup`](Self::lookup)
    /// and a [`resolve`](Self::resolve) against the hash number
    /// `assignment` gives for each conditional branch. Returns the
    /// lookups and mismatches of these records alone.
    pub fn run(&mut self, records: &[BranchRecord], assignment: &HashAssignment) -> HfntStats {
        let before = self.stats;
        for record in records.iter().filter(|record| record.is_conditional()) {
            self.lookup(record.pc());
            self.resolve(record.pc(), assignment.get(record.pc()));
        }
        HfntStats {
            lookups: self.stats.lookups - before.lookups,
            mismatches: self.stats.mismatches - before.mismatches,
        }
    }

    /// The accumulated lookup/mismatch statistics.
    pub fn stats(&self) -> HfntStats {
        self.stats
    }

    /// The number of HFNT entries.
    pub fn entries(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_branch_never_re_predicts_after_first_write() {
        let mut hfnt = Hfnt::new(8, 1);
        let pc = Addr::new(0x40);
        hfnt.lookup(pc);
        hfnt.resolve(pc, 7); // first encounter: mismatch against init
        for _ in 0..10 {
            hfnt.lookup(pc);
            assert!(hfnt.resolve(pc, 7));
        }
        assert_eq!(hfnt.stats().mismatches, 1);
        assert_eq!(hfnt.stats().lookups, 11);
    }

    #[test]
    fn aliased_branches_with_different_numbers_thrash() {
        let mut hfnt = Hfnt::new(2, 1);
        let a = Addr::new(0x1 << 2);
        let b = Addr::new((0x1 + 4) << 2); // aliases with a in a 2-bit table
        for _ in 0..5 {
            hfnt.lookup(a);
            hfnt.resolve(a, 3);
            hfnt.lookup(b);
            hfnt.resolve(b, 9);
        }
        // After warmup each access sees the other branch's number.
        assert!(hfnt.stats().mismatches >= 9);
    }

    #[test]
    fn matching_initial_value_is_free() {
        let mut hfnt = Hfnt::new(4, 6);
        let pc = Addr::new(0x10);
        hfnt.lookup(pc);
        assert!(hfnt.resolve(pc, 6));
        assert_eq!(hfnt.stats().mismatches, 0);
    }

    #[test]
    fn run_counts_conditionals_only_and_returns_its_own_totals() {
        let (a, b) = (Addr::new(0x40), Addr::new(0x80));
        let mut assignment = HashAssignment::fixed(6);
        assignment.assign(b, 3);
        let records = [
            BranchRecord::conditional(a, Addr::new(0x100), true),
            BranchRecord::indirect(b, Addr::new(0x200)),
            BranchRecord::conditional(b, Addr::new(0x100), false),
            BranchRecord::conditional(b, Addr::new(0x100), true),
        ];
        let mut hfnt = Hfnt::new(8, 6);
        assert_eq!(hfnt.run(&records, &assignment), HfntStats { lookups: 3, mismatches: 1 });
        assert_eq!(hfnt.run(&records, &assignment), HfntStats { lookups: 3, mismatches: 0 });
        assert_eq!(hfnt.stats(), HfntStats { lookups: 6, mismatches: 1 });
    }

    #[test]
    fn mismatch_rate_handles_zero_lookups() {
        assert_eq!(HfntStats::default().mismatch_rate(), 0.0);
    }

    #[test]
    fn peek_does_not_count() {
        let mut hfnt = Hfnt::new(4, 2);
        assert_eq!(hfnt.peek(Addr::new(0)), 2);
        assert_eq!(hfnt.stats().lookups, 0);
        hfnt.lookup(Addr::new(0));
        assert_eq!(hfnt.stats().lookups, 1);
    }

    #[test]
    fn display_reports_percentage() {
        let stats = HfntStats { lookups: 200, mismatches: 10 };
        assert!(stats.to_string().contains("5.00%"));
    }

    #[test]
    #[should_panic(expected = "hash number")]
    fn resolve_rejects_zero() {
        Hfnt::new(4, 1).resolve(Addr::new(0), 0);
    }
}
