//! Two-bit saturating up/down counters.

use std::fmt;

/// A 2-bit saturating up/down counter, the paper's predictor-table entry
/// for conditional branches (§3.1): incremented on taken, decremented on
/// not-taken, predicts taken when the value is ≥ 2.
///
/// # Example
///
/// ```
/// use vlpp_predict::Counter2;
///
/// let mut c = Counter2::default(); // weakly not-taken
/// assert!(!c.predict_taken());
/// c.update(true);
/// c.update(true);
/// assert!(c.predict_taken());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Counter2(u8);

impl Counter2 {
    /// Strongly not-taken (0).
    pub const STRONG_NOT_TAKEN: Counter2 = Counter2(0);
    /// Weakly not-taken (1) — the default initial state.
    pub const WEAK_NOT_TAKEN: Counter2 = Counter2(1);
    /// Weakly taken (2).
    pub const WEAK_TAKEN: Counter2 = Counter2(2);
    /// Strongly taken (3).
    pub const STRONG_TAKEN: Counter2 = Counter2(3);

    /// Creates a counter with an explicit initial value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is greater than 3.
    pub fn new(value: u8) -> Self {
        assert!(value <= 3, "2-bit counter value must be in 0..=3, got {value}");
        Counter2(value)
    }

    /// The raw counter value in `0..=3`.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Predicts taken when the counter is ≥ 2, as in the paper.
    #[inline]
    pub fn predict_taken(self) -> bool {
        self.0 >= 2
    }

    /// Saturating update: increment on taken, decrement on not-taken.
    #[inline]
    pub fn update(&mut self, taken: bool) {
        if taken {
            if self.0 < 3 {
                self.0 += 1;
            }
        } else if self.0 > 0 {
            self.0 -= 1;
        }
    }
}

impl Counter2 {
    /// The saturating update as a pure, branchless function: the next
    /// state after observing `taken`.
    ///
    /// This is the form the structure-of-arrays counter planes use in
    /// the hot loop — a conditional increment/decrement expressed as
    /// clamped arithmetic, with no data-dependent branch for the
    /// hardware (or the compiler's auto-vectorizer) to mispredict.
    /// [`update`](Self::update) and this function are equivalent for
    /// every `(state, outcome)` pair; a test enumerates all eight.
    #[inline]
    #[must_use]
    pub fn updated(self, taken: bool) -> Self {
        // taken -> +1, not-taken -> -1; clamp to the 2-bit range.
        let step = (taken as i8) * 2 - 1;
        Counter2((self.0 as i8 + step).clamp(0, 3) as u8)
    }
}

impl Default for Counter2 {
    /// Weakly not-taken, a conventional neutral initialization.
    fn default() -> Self {
        Counter2::WEAK_NOT_TAKEN
    }
}

/// A contiguous plane of 2-bit saturating counters, packed 32 to a
/// `u64` word — the structure-of-arrays form of a
/// `Vec<`[`Counter2`]`>`.
///
/// Where [`Counter2`] is the paper's per-entry abstraction, a
/// `CounterPlane` is the whole second-level table as one dense bit
/// array: a `2^k`-entry table occupies `2^k / 32` words (exactly the
/// 2-bits-per-entry budget the paper accounts), reads are a shift-mask,
/// and updates are branchless ([`Counter2::updated`]) read-modify-write
/// on one word. Every logical counter sees exactly the predict/update
/// sequence its boxed `Vec<Counter2>` twin would, so the two layouts
/// are bit-for-bit interchangeable — the `vlpp-core` differential
/// suite pins that.
///
/// # Example
///
/// ```
/// use vlpp_predict::CounterPlane;
///
/// let mut plane = CounterPlane::new(64);
/// assert!(!plane.predict_taken(5)); // weakly not-taken everywhere
/// plane.update(5, true);
/// plane.update(5, true);
/// assert!(plane.predict_taken(5));
/// assert_eq!(plane.value(5), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterPlane {
    words: Vec<u64>,
    len: usize,
}

/// Counters per packed word (2 bits each in a `u64`).
const COUNTERS_PER_WORD: usize = 32;

/// Every 2-bit lane holding [`Counter2::WEAK_NOT_TAKEN`] (value 1).
const WEAK_NOT_TAKEN_WORD: u64 = 0x5555_5555_5555_5555;

impl CounterPlane {
    /// Creates a plane of `len` counters, each weakly not-taken — the
    /// same initial state as `vec![Counter2::default(); len]`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0.
    pub fn new(len: usize) -> Self {
        assert!(len >= 1, "counter plane must hold at least one counter");
        let words = len.div_ceil(COUNTERS_PER_WORD);
        CounterPlane { words: vec![WEAK_NOT_TAKEN_WORD; words], len }
    }

    /// The number of counters.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plane holds no counters (never true: construction
    /// requires at least one).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The plane size in bytes under the 2-bits-per-entry accounting.
    pub fn bytes(&self) -> u64 {
        self.len as u64 / 4
    }

    /// The raw value (`0..=3`) of counter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn value(&self, i: usize) -> u8 {
        assert!(i < self.len, "counter index {i} out of range (len {})", self.len);
        ((self.words[i / COUNTERS_PER_WORD] >> ((i % COUNTERS_PER_WORD) * 2)) & 3) as u8
    }

    /// Counter `i` as a [`Counter2`].
    #[inline]
    pub fn get(&self, i: usize) -> Counter2 {
        Counter2::new(self.value(i))
    }

    /// Predicts taken when counter `i` is ≥ 2, as in the paper.
    #[inline]
    pub fn predict_taken(&self, i: usize) -> bool {
        // Bit 1 of the 2-bit value is the "taken" threshold bit.
        (self.words[i / COUNTERS_PER_WORD] >> ((i % COUNTERS_PER_WORD) * 2 + 1)) & 1 == 1
    }

    /// Branchless saturating update of counter `i`.
    #[inline]
    pub fn update(&mut self, i: usize, taken: bool) {
        let shift = (i % COUNTERS_PER_WORD) * 2;
        let word = &mut self.words[i / COUNTERS_PER_WORD];
        let current = ((*word >> shift) & 3) as u8;
        let next = Counter2(current).updated(taken).value() as u64;
        *word = (*word & !(3u64 << shift)) | (next << shift);
    }

    /// Fused predict-then-update of counter `i`: one word load and one
    /// store instead of the two loads [`predict_taken`](Self::predict_taken)
    /// followed by [`update`](Self::update) would do. Returns the
    /// prediction *before* the update, exactly as the split calls would.
    #[inline]
    pub fn predict_update(&mut self, i: usize, taken: bool) -> bool {
        let shift = (i % COUNTERS_PER_WORD) * 2;
        let word = &mut self.words[i / COUNTERS_PER_WORD];
        let current = ((*word >> shift) & 3) as u8;
        let next = Counter2(current).updated(taken).value() as u64;
        *word = (*word & !(3u64 << shift)) | (next << shift);
        current >= 2
    }

    /// Every counter value in index order — the diagnostic form the
    /// differential tests compare against the reference table.
    pub fn values(&self) -> Vec<u8> {
        (0..self.len).map(|i| self.value(i)).collect()
    }

    /// The packed counter words, lowest counter first — the
    /// serialization surface model snapshots persist.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a plane from [`words`](Self::words) output. Returns
    /// `None` when the word count does not describe a valid
    /// `len`-counter plane — the snapshot loaders turn that into a
    /// typed error instead of a panic.
    pub fn from_words(words: Vec<u64>, len: usize) -> Option<Self> {
        (len >= 1 && words.len() == len.div_ceil(COUNTERS_PER_WORD))
            .then_some(CounterPlane { words, len })
    }
}

impl fmt::Display for Counter2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self.0 {
            0 => "strong-not-taken",
            1 => "weak-not-taken",
            2 => "weak-taken",
            _ => "strong-taken",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_at_both_ends() {
        let mut c = Counter2::STRONG_TAKEN;
        c.update(true);
        assert_eq!(c, Counter2::STRONG_TAKEN);
        let mut c = Counter2::STRONG_NOT_TAKEN;
        c.update(false);
        assert_eq!(c, Counter2::STRONG_NOT_TAKEN);
    }

    #[test]
    fn threshold_is_two() {
        assert!(!Counter2::new(0).predict_taken());
        assert!(!Counter2::new(1).predict_taken());
        assert!(Counter2::new(2).predict_taken());
        assert!(Counter2::new(3).predict_taken());
    }

    #[test]
    fn hysteresis_requires_two_flips() {
        let mut c = Counter2::STRONG_TAKEN;
        c.update(false);
        assert!(c.predict_taken(), "one not-taken must not flip a strong counter");
        c.update(false);
        assert!(!c.predict_taken());
    }

    #[test]
    #[should_panic(expected = "0..=3")]
    fn rejects_out_of_range() {
        Counter2::new(4);
    }

    #[test]
    fn display_names() {
        assert_eq!(Counter2::new(0).to_string(), "strong-not-taken");
        assert_eq!(Counter2::new(3).to_string(), "strong-taken");
    }

    #[test]
    fn branchless_updated_matches_update_for_all_states() {
        for value in 0..=3u8 {
            for taken in [false, true] {
                let mut reference = Counter2::new(value);
                reference.update(taken);
                assert_eq!(
                    Counter2::new(value).updated(taken),
                    reference,
                    "state {value}, taken {taken}"
                );
            }
        }
    }

    #[test]
    fn plane_initializes_weak_not_taken() {
        let plane = CounterPlane::new(100);
        assert_eq!(plane.len(), 100);
        assert!((0..100).all(|i| plane.value(i) == 1));
        assert!((0..100).all(|i| !plane.predict_taken(i)));
    }

    #[test]
    fn plane_updates_do_not_disturb_neighbors() {
        let mut plane = CounterPlane::new(64);
        plane.update(33, true);
        plane.update(33, true);
        assert_eq!(plane.value(33), 3);
        assert!(plane.predict_taken(33));
        for i in (0..64).filter(|&i| i != 33) {
            assert_eq!(plane.value(i), 1, "neighbor {i} disturbed");
        }
    }

    #[test]
    fn plane_matches_vec_of_counters_on_a_pseudo_random_stream() {
        let len = 77; // deliberately not a multiple of the word width
        let mut plane = CounterPlane::new(len);
        let mut reference = vec![Counter2::default(); len];
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let i = (x >> 33) as usize % len;
            let taken = (x >> 13) & 1 == 1;
            assert_eq!(plane.predict_taken(i), reference[i].predict_taken(), "index {i}");
            plane.update(i, taken);
            reference[i].update(taken);
        }
        let values: Vec<u8> = reference.iter().map(|c| c.value()).collect();
        assert_eq!(plane.values(), values);
    }

    #[test]
    fn plane_budget_accounting_matches_table() {
        // 2^14 two-bit counters = 4 KB, the paper's budget accounting.
        assert_eq!(CounterPlane::new(1 << 14).bytes(), 4096);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn plane_rejects_zero_length() {
        CounterPlane::new(0);
    }
}
