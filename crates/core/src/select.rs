//! Hash-function selection (paper §3.4): which `HF_X` indexes the table
//! for each branch.
//!
//! The paper discusses three selection agents: the compiler (via profiling
//! and ISA bits — [`HashAssignment`]), the hardware (run-time accuracy
//! bookkeeping — [`DynamicSelector`], driving the
//! [`DynamicPathConditional`] predictor), or a combination. A fixed
//! global hash number (a [`HashAssignment::fixed`] assignment)
//! degenerates to the fixed-length path predictor.

use std::collections::HashMap;
use std::fmt;

use vlpp_predict::{BranchObserver, ConditionalPredictor, CounterPlane};
use vlpp_trace::{Addr, BranchRecord};

use crate::kernel::PathHistory;
use crate::path::PathConfig;

/// A per-static-branch assignment of hash-function numbers, plus the
/// default used for branches never profiled (§3.4: "the default value
/// specifies the hash function that provides the highest branch
/// prediction accuracy for the average program").
///
/// # Example
///
/// ```
/// use vlpp_core::HashAssignment;
/// use vlpp_trace::Addr;
///
/// let mut a = HashAssignment::fixed(9);
/// a.assign(Addr::new(0x1000), 3);
/// assert_eq!(a.get(Addr::new(0x1000)), 3);
/// assert_eq!(a.get(Addr::new(0x2000)), 9); // default
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashAssignment {
    map: HashMap<u64, u8>,
    default: u8,
}

impl HashAssignment {
    /// Creates an assignment that maps every branch to `default` — the
    /// fixed-length path predictor's configuration.
    ///
    /// # Panics
    ///
    /// Panics if `default` is 0 or greater than 32.
    pub fn fixed(default: u8) -> Self {
        assert!(
            default >= 1 && default as usize <= crate::MAX_PATH_LENGTH,
            "hash number must be in 1..=32, got {default}"
        );
        HashAssignment { map: HashMap::new(), default }
    }

    /// Assigns hash number `n` to the branch at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or greater than 32.
    pub fn assign(&mut self, pc: Addr, n: u8) {
        assert!(
            n >= 1 && n as usize <= crate::MAX_PATH_LENGTH,
            "hash number must be in 1..=32, got {n}"
        );
        self.map.insert(pc.raw(), n);
    }

    /// The hash number for the branch at `pc` (the default if the branch
    /// was never assigned).
    #[inline]
    pub fn get(&self, pc: Addr) -> u8 {
        self.map.get(&pc.raw()).copied().unwrap_or(self.default)
    }

    /// The default hash number.
    pub fn default_hash(&self) -> u8 {
        self.default
    }

    /// The number of branches with explicit assignments.
    pub fn assigned_count(&self) -> usize {
        self.map.len()
    }

    /// Whether this is a pure fixed-length configuration (no per-branch
    /// assignments).
    pub fn is_fixed(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over the explicit `(pc, hash number)` assignments in an
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, u8)> + '_ {
        self.map.iter().map(|(&pc, &n)| (Addr::new(pc), n))
    }

    /// A histogram of assigned hash numbers, indexed by hash number − 1
    /// (32 buckets). Diagnostic for "how variable is the assignment".
    pub fn length_histogram(&self) -> [usize; crate::MAX_PATH_LENGTH] {
        let mut histogram = [0usize; crate::MAX_PATH_LENGTH];
        for &n in self.map.values() {
            histogram[(n - 1) as usize] += 1;
        }
        histogram
    }

    /// Serializes the assignment to the text format the workspace uses
    /// to persist profiling results (the software stand-in for the §4.2
    /// ISA encoding): a `default <n>` line followed by one
    /// `<pc-hex> <n>` line per branch, sorted by pc.
    pub fn to_text(&self) -> String {
        let mut lines = Vec::with_capacity(self.map.len() + 2);
        lines.push("# vlpp hash assignment".to_string());
        lines.push(format!("default {}", self.default));
        let mut entries: Vec<(&u64, &u8)> = self.map.iter().collect();
        entries.sort_unstable();
        for (pc, n) in entries {
            lines.push(format!("{pc:x} {n}"));
        }
        lines.join("\n") + "\n"
    }

    /// Parses the format produced by [`to_text`](Self::to_text).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line: missing or
    /// duplicate `default`, bad hex, or a hash number outside `1..=32`.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut assignment: Option<HashAssignment> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let describe = |message: &str| format!("line {}: {message}", lineno + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(value) = line.strip_prefix("default ") {
                if assignment.is_some() {
                    return Err(describe("duplicate `default` line"));
                }
                let n: u8 =
                    value.trim().parse().map_err(|_| describe("bad default hash number"))?;
                if n < 1 || n as usize > crate::MAX_PATH_LENGTH {
                    return Err(describe("default hash number must be in 1..=32"));
                }
                assignment = Some(HashAssignment::fixed(n));
                continue;
            }
            let assignment =
                assignment.as_mut().ok_or_else(|| describe("entry before the `default` line"))?;
            let (pc_text, n_text) =
                line.split_once(' ').ok_or_else(|| describe("expected `<pc-hex> <hash>`"))?;
            let pc = u64::from_str_radix(pc_text.trim(), 16).map_err(|_| describe("bad pc hex"))?;
            let n: u8 = n_text.trim().parse().map_err(|_| describe("bad hash number"))?;
            if n < 1 || n as usize > crate::MAX_PATH_LENGTH {
                return Err(describe("hash number must be in 1..=32"));
            }
            assignment.assign(Addr::new(pc), n);
        }
        assignment.ok_or_else(|| "missing `default` line".to_string())
    }
}

impl fmt::Display for HashAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} assigned branches, default HF_{}", self.map.len(), self.default)
    }
}

/// Hardware-only hash selection (§3.4): per branch set, a small
/// accuracy counter per candidate hash function; each prediction uses the
/// candidate whose counter is highest.
///
/// The paper notes this trades die area (the counter storage) for the
/// ability to use run-time information. The workspace uses it for the
/// `dynamic-select` ablation.
///
/// # Example
///
/// ```
/// use vlpp_core::DynamicSelector;
/// use vlpp_trace::Addr;
///
/// let mut s = DynamicSelector::new(&[1, 2, 4, 8, 16, 32], 10);
/// let pc = Addr::new(0x400);
/// let first = s.select(pc);
/// assert_eq!(first, 1); // ties break toward the shortest path
/// s.reward(pc, 2, true); // candidate index 2 (HF_4) was correct
/// assert_eq!(s.select(pc), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicSelector {
    candidates: Vec<u8>,
    /// `counters[set * candidates.len() + c]`, saturating `0..=MAX`.
    counters: Vec<u8>,
    mask: u64,
}

impl DynamicSelector {
    const COUNTER_MAX: u8 = 63;

    /// Creates a selector choosing among `candidates` (hash numbers,
    /// each in `1..=32`), with `2^set_bits` branch sets.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty, contains an out-of-range hash
    /// number, or `set_bits` exceeds 24.
    pub fn new(candidates: &[u8], set_bits: u32) -> Self {
        assert!(!candidates.is_empty(), "need at least one candidate hash function");
        assert!(
            candidates.iter().all(|&c| c >= 1 && c as usize <= crate::MAX_PATH_LENGTH),
            "candidate hash numbers must be in 1..=32"
        );
        assert!(set_bits <= 24, "set index width must be <= 24, got {set_bits}");
        DynamicSelector {
            candidates: candidates.to_vec(),
            counters: vec![Self::COUNTER_MAX / 2; candidates.len() << set_bits],
            mask: (1u64 << set_bits) - 1,
        }
    }

    /// The candidate hash numbers.
    pub fn candidates(&self) -> &[u8] {
        &self.candidates
    }

    #[inline]
    fn base(&self, pc: Addr) -> usize {
        (pc.word() & self.mask) as usize * self.candidates.len()
    }

    /// Selects the hash number with the highest accuracy counter for
    /// `pc`'s branch set. Ties break toward the earlier (shorter)
    /// candidate.
    pub fn select(&self, pc: Addr) -> u8 {
        let base = self.base(pc);
        let slice = &self.counters[base..base + self.candidates.len()];
        let best = slice
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
            .map(|(i, _)| i)
            .expect("candidates is non-empty");
        self.candidates[best]
    }

    /// Rewards (`correct = true`) or penalizes candidate
    /// `candidate_index` for `pc`'s branch set.
    ///
    /// # Panics
    ///
    /// Panics if `candidate_index` is out of range.
    pub fn reward(&mut self, pc: Addr, candidate_index: usize, correct: bool) {
        assert!(candidate_index < self.candidates.len(), "candidate index out of range");
        let slot = self.base(pc) + candidate_index;
        let counter = &mut self.counters[slot];
        if correct {
            *counter = (*counter + 1).min(Self::COUNTER_MAX);
        } else {
            *counter = counter.saturating_sub(1);
        }
    }
}

/// The §3.4 hardware-selected conditional path predictor: a
/// [`DynamicSelector`] picks each branch's hash function at run time
/// from accuracy counters, over the same first-level history and packed
/// counter plane as [`CondKernel`](crate::CondKernel).
///
/// Training scores every candidate's current prediction against the
/// outcome, rewards the selector, and only then trains the entry of the
/// (possibly newly) selected candidate. Note the structural handicap
/// the `ablate-select` experiment quantifies: all candidates score
/// against the one *shared* table, but only the selected candidate's
/// entry is ever trained, so unselected candidates are judged on stale
/// entries and the selector tends to lock in early — §3.4 describes the
/// idea without resolving this; profiling (the paper's choice)
/// sidesteps it.
///
/// # Example
///
/// ```
/// use vlpp_core::{DynamicPathConditional, PathConfig};
/// use vlpp_predict::ConditionalPredictor;
/// use vlpp_trace::Addr;
///
/// let mut p = DynamicPathConditional::new(&PathConfig::new(10), &[1, 2, 4, 8], 6);
/// let pc = Addr::new(0x400);
/// assert!(!p.predict(pc)); // cold counters predict not-taken
/// p.train(pc, true);
/// assert_eq!(p.selected_hash(pc), 1); // every candidate was wrong alike
/// ```
#[derive(Debug, Clone)]
pub struct DynamicPathConditional {
    history: PathHistory,
    /// THB capacity: candidate hash numbers above it clamp to it.
    capacity: u8,
    selector: DynamicSelector,
    plane: CounterPlane,
}

impl DynamicPathConditional {
    /// Creates the predictor for `config`, choosing among `candidates`
    /// (hash numbers, clamped to the THB capacity) with
    /// `2^selector_set_bits` selector sets.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty or contains hash numbers outside
    /// `1..=32`, `selector_set_bits` exceeds 24, or the configuration
    /// leaves [`PathConfig::new`]'s ranges (index width `1..=28`, THB
    /// capacity ≥ 1).
    pub fn new(config: &PathConfig, candidates: &[u8], selector_set_bits: u32) -> Self {
        let selector = DynamicSelector::new(candidates, selector_set_bits);
        let capacity = config.thb_capacity.min(crate::MAX_PATH_LENGTH) as u8;
        let longest = candidates.iter().map(|&c| c.min(capacity)).max().unwrap_or(1);
        DynamicPathConditional {
            history: PathHistory::new(config, longest as usize),
            capacity,
            selector,
            plane: CounterPlane::new(1 << config.index_bits),
        }
    }

    /// The hash number the predictor would use for `pc` right now.
    pub fn selected_hash(&self, pc: Addr) -> usize {
        self.selector.select(pc).min(self.capacity) as usize
    }

    /// The plane index hash number `hash` produces for the current
    /// history.
    #[inline]
    fn index(&self, hash: u8) -> usize {
        self.history.index(hash.min(self.capacity)) as usize
    }

    /// Every counter value in index order (diagnostic; the differential
    /// tests compare this against the reference table).
    pub fn counter_values(&self) -> Vec<u8> {
        self.plane.values()
    }
}

impl BranchObserver for DynamicPathConditional {
    fn observe(&mut self, record: &BranchRecord) {
        self.history.observe(record);
    }
}

impl ConditionalPredictor for DynamicPathConditional {
    fn predict(&mut self, pc: Addr) -> bool {
        self.plane.predict_taken(self.index(self.selector.select(pc)))
    }

    fn train(&mut self, pc: Addr, taken: bool) {
        // A verdict reads only the plane, which rewarding leaves alone,
        // so scoring each candidate right before its reward equals
        // scoring all of them first.
        for i in 0..self.selector.candidates().len() {
            let candidate = self.selector.candidates()[i];
            let correct = self.plane.predict_taken(self.index(candidate)) == taken;
            self.selector.reward(pc, i, correct);
        }
        self.plane.update(self.index(self.selector.select(pc)), taken);
    }

    fn name(&self) -> String {
        "dynamic path".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_assignment_returns_default_everywhere() {
        let a = HashAssignment::fixed(14);
        assert!(a.is_fixed());
        assert_eq!(a.get(Addr::new(0xdead)), 14);
        assert_eq!(a.assigned_count(), 0);
    }

    #[test]
    fn explicit_assignment_overrides_default() {
        let mut a = HashAssignment::fixed(14);
        a.assign(Addr::new(0x10), 1);
        a.assign(Addr::new(0x20), 32);
        assert_eq!(a.get(Addr::new(0x10)), 1);
        assert_eq!(a.get(Addr::new(0x20)), 32);
        assert_eq!(a.get(Addr::new(0x30)), 14);
        assert!(!a.is_fixed());
        assert_eq!(a.assigned_count(), 2);
    }

    #[test]
    fn reassignment_replaces() {
        let mut a = HashAssignment::fixed(5);
        a.assign(Addr::new(0x10), 1);
        a.assign(Addr::new(0x10), 7);
        assert_eq!(a.get(Addr::new(0x10)), 7);
        assert_eq!(a.assigned_count(), 1);
    }

    #[test]
    fn histogram_counts_assignments() {
        let mut a = HashAssignment::fixed(5);
        a.assign(Addr::new(0x10), 3);
        a.assign(Addr::new(0x20), 3);
        a.assign(Addr::new(0x30), 32);
        let h = a.length_histogram();
        assert_eq!(h[2], 2);
        assert_eq!(h[31], 1);
        assert_eq!(h.iter().sum::<usize>(), 3);
    }

    #[test]
    #[should_panic(expected = "hash number")]
    fn rejects_hash_zero() {
        HashAssignment::fixed(0);
    }

    #[test]
    #[should_panic(expected = "hash number")]
    fn rejects_hash_over_32() {
        let mut a = HashAssignment::fixed(1);
        a.assign(Addr::new(0), 33);
    }

    #[test]
    fn dynamic_selector_learns_preference() {
        let mut s = DynamicSelector::new(&[1, 4, 16], 8);
        let pc = Addr::new(0x100);
        for _ in 0..10 {
            s.reward(pc, 1, true); // HF_4 keeps being right
            s.reward(pc, 0, false);
            s.reward(pc, 2, false);
        }
        assert_eq!(s.select(pc), 4);
    }

    #[test]
    fn dynamic_selector_is_per_set() {
        let mut s = DynamicSelector::new(&[1, 2], 8);
        let a = Addr::new(0x1 << 2);
        let b = Addr::new(0x2 << 2);
        for _ in 0..10 {
            s.reward(a, 1, true);
            s.reward(a, 0, false);
            s.reward(b, 0, true);
            s.reward(b, 1, false);
        }
        assert_eq!(s.select(a), 2);
        assert_eq!(s.select(b), 1);
    }

    #[test]
    fn dynamic_selector_counters_saturate() {
        let mut s = DynamicSelector::new(&[1], 2);
        let pc = Addr::new(0);
        for _ in 0..200 {
            s.reward(pc, 0, true);
        }
        s.reward(pc, 0, false);
        assert_eq!(s.select(pc), 1); // still selectable, no overflow panic
        for _ in 0..200 {
            s.reward(pc, 0, false);
        }
        assert_eq!(s.select(pc), 1);
    }

    #[test]
    fn text_round_trip() {
        let mut a = HashAssignment::fixed(9);
        a.assign(Addr::new(0x1000), 3);
        a.assign(Addr::new(0x2040), 32);
        a.assign(Addr::new(0x4), 1);
        let text = a.to_text();
        let back = HashAssignment::from_text(&text).unwrap();
        assert_eq!(back, a);
        // And the text itself is stable (sorted).
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn text_round_trip_fixed_only() {
        let a = HashAssignment::fixed(17);
        let back = HashAssignment::from_text(&a.to_text()).unwrap();
        assert_eq!(back, a);
        assert!(back.is_fixed());
    }

    #[test]
    fn from_text_rejects_malformed_input() {
        assert!(HashAssignment::from_text("").is_err());
        assert!(HashAssignment::from_text("10 3\n").is_err(), "entry before default");
        assert!(HashAssignment::from_text("default 0\n").is_err());
        assert!(HashAssignment::from_text("default 33\n").is_err());
        assert!(HashAssignment::from_text("default 4\ndefault 5\n").is_err());
        assert!(HashAssignment::from_text("default 4\nzz 3\n").is_err());
        assert!(HashAssignment::from_text("default 4\n10 99\n").is_err());
        assert!(HashAssignment::from_text("default 4\n10\n").is_err());
        let err = HashAssignment::from_text("default 4\n10 99\n").unwrap_err();
        assert!(err.starts_with("line 2"), "errors carry line numbers: {err}");
    }

    #[test]
    fn from_text_skips_comments_and_blanks() {
        let a = HashAssignment::from_text("# hi\n\ndefault 6\n# entry\n40 2\n").unwrap();
        assert_eq!(a.default_hash(), 6);
        assert_eq!(a.get(Addr::new(0x40)), 2);
    }

    #[test]
    fn display_summarizes() {
        let mut a = HashAssignment::fixed(6);
        a.assign(Addr::new(4), 2);
        let text = a.to_string();
        assert!(text.contains("1 assigned"));
        assert!(text.contains("HF_6"));
    }
}
