//! The structure-of-arrays path predictor: the paper's predictor as
//! flat state, and the only implementation production runs — the
//! offline runners, the §3.5 profiler, the paper experiments, the
//! league, the hybrids and the serve shards all drive [`CondKernel`] /
//! [`IndKernel`].
//!
//! A whole stream goes through the protocol's one entry point,
//! `ConditionalPredictor::run` / `IndirectPredictor::run`, which the
//! kernels override with their fused per-record step
//! ([`CondKernel::apply`] / [`IndKernel::apply`]): one pc resolve per
//! predicted record instead of the three calls the provided loop makes.
//! These two `run` bodies are the only whole-stream kernel loops. Two
//! drivers call `apply` record by record because they need something
//! per record: the serve shards answer each record, and
//! `vlpp_sim::ingest::replay_streaming` pulls one record at a time
//! from its trace source.
//!
//! * the second-level table is one contiguous plane — packed 2-bit
//!   counters ([`CounterPlane`]) or packed target registers
//!   ([`TargetPlane`]) — updated branchlessly;
//! * the paper's §4.1 partial sums are the *only* first-level history,
//!   kept in rolling form ([`RollingHashers`]): unrolling the §4.1
//!   recurrence gives `I_X(t) = S(t) XOR rotl(S(t−X), X)` for a single
//!   never-truncated register `S`, so a retired branch costs one
//!   rotate-XOR *total* (not one per register) and a lookup is one ring
//!   read plus one rotate-XOR (no THB walk, no re-hash) — with the ring
//!   sized to the longest hash the assignment actually uses;
//! * a predicted record's pc resolves to its statistics row — which
//!   also holds the branch's hash number — through one exact
//!   open-addressing table keyed by pc and indexed by a multiplicative
//!   hash of it (`ids.rs`), so only a branch's first sight
//!   takes the slow path (the assignment's `HashMap` plus a row push).
//!   The direct-mapped cache on `word & 4095` this replaced aliased on
//!   the synthetic layout, where every branch word is ≡ 15 mod 16: over
//!   the 1/64 profile traces gcc took the slow path (two `HashMap`
//!   probes) on 15.2% of its conditionals and vortex on 36.2%.
//!
//! The kernels are **bit-for-bit** equal to the paper's predictor
//! written one structure per concept (a THB, §4.1 registers, boxed
//! tables): that reference lives in `tests/reference/` as the
//! differential oracle, and `tests/prop_kernel.rs` drives both over
//! seeded configs × synthetic traces and asserts exact equality of
//! predictions, table state and statistics. The §3.4 hardware-selected
//! variant is [`DynamicPathConditional`](crate::DynamicPathConditional),
//! built on the same first-level history.

use std::collections::HashMap;

use vlpp_predict::{
    BranchObserver, ConditionalPredictor, CounterPlane, IndirectPredictor, RunStats,
};
use vlpp_trace::{Addr, BranchKind, BranchRecord};

use crate::hash::RollingHashers;
use crate::ids::BranchIds;
use crate::path::PathConfig;
use crate::select::HashAssignment;
use crate::stack::HistoryStack;

/// A contiguous plane of packed target registers: full 64-bit targets
/// in one dense array, validity as one bit per entry. (The paper's
/// footnote-1 low-32 splice lives on only in the CHP baselines; the
/// VLPP planes store full targets so addresses ≥ 2^32 never alias. The
/// 4-bytes-per-entry budget accounting is unchanged.)
///
/// # Example
///
/// ```
/// use vlpp_core::TargetPlane;
/// use vlpp_trace::Addr;
///
/// let mut plane = TargetPlane::new(64);
/// assert_eq!(plane.predict(3, Addr::new(0x1000)), Addr::NULL);
/// plane.train(3, Addr::new(0x2000));
/// assert_eq!(plane.predict(3, Addr::new(0x1000)), Addr::new(0x2000));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetPlane {
    targets: Vec<u64>,
    valid: Vec<u64>,
    len: usize,
}

impl TargetPlane {
    /// Creates a plane of `len` never-written target registers.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0.
    pub fn new(len: usize) -> Self {
        assert!(len >= 1, "target plane must hold at least one register");
        TargetPlane { targets: vec![0; len], valid: vec![0; len.div_ceil(64)], len }
    }

    /// Rebuilds a plane from [`raw_parts`](Self::raw_parts) output.
    /// Returns `None` when the array lengths do not describe a valid
    /// `len`-register plane — the snapshot loaders turn that into a
    /// typed error instead of a panic.
    pub fn from_raw_parts(targets: Vec<u64>, valid: Vec<u64>, len: usize) -> Option<Self> {
        (len >= 1 && targets.len() == len && valid.len() == len.div_ceil(64))
            .then_some(TargetPlane { targets, valid, len })
    }

    /// The raw state arrays `(targets, validity_words)` — the
    /// serialization surface model snapshots persist.
    pub fn raw_parts(&self) -> (&[u64], &[u64]) {
        (&self.targets, &self.valid)
    }

    /// The number of registers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plane holds no registers (never true: construction
    /// requires at least one).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The plane size in bytes under the 4-bytes-per-entry accounting.
    pub fn bytes(&self) -> u64 {
        self.len as u64 * 4
    }

    /// Predicts the full target stored at `i` — [`Addr::NULL`] for a
    /// never-written register, computed branchlessly (the validity bit
    /// becomes an all-ones/all-zeros mask over the stored address).
    /// `pc` is unused since the footnote-1 splice was removed but stays
    /// in the signature as the hardware lookup key shape.
    #[inline]
    pub fn predict(&self, i: usize, _pc: Addr) -> Addr {
        let live = (self.valid[i / 64] >> (i % 64)) & 1;
        Addr::new(self.targets[i] & live.wrapping_neg())
    }

    /// Writes the resolved `target` into register `i`.
    #[inline]
    pub fn train(&mut self, i: usize, target: Addr) {
        self.targets[i] = target.raw();
        self.valid[i / 64] |= 1u64 << (i % 64);
    }

    /// Fused predict-then-train of register `i`: returns exactly what
    /// [`predict`](Self::predict) would *before* the write, with one
    /// pass over the validity word instead of two.
    #[inline]
    pub fn predict_train(&mut self, i: usize, _pc: Addr, target: Addr) -> Addr {
        let word = &mut self.valid[i / 64];
        let live = (*word >> (i % 64)) & 1;
        let predicted = Addr::new(self.targets[i] & live.wrapping_neg());
        *word |= 1u64 << (i % 64);
        self.targets[i] = target.raw();
        predicted
    }

    /// The stored target of register `i`, or `None` if it was never
    /// written.
    pub fn entry(&self, i: usize) -> Option<u64> {
        ((self.valid[i / 64] >> (i % 64)) & 1 == 1).then(|| self.targets[i])
    }

    /// Every register in index order — the diagnostic form the
    /// differential tests compare against the reference table.
    pub fn entries(&self) -> Vec<Option<u64>> {
        (0..self.len).map(|i| self.entry(i)).collect()
    }
}

/// The serializable dynamic state of a kernel: everything that changes
/// as records are applied. The static configuration and hash
/// assignment are *not* here — snapshot loaders rebuild the kernel
/// from its `PathConfig`/`HashAssignment` first and then restore this
/// state into it. The pc → row table is also excluded: restoring the
/// rows rebuilds it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KernelState {
    /// The rolling §4.1 partial-sum state, as
    /// [`RollingHashers::snapshot`] lays it out (`[S, t, ring…]`).
    pub hashers: Vec<u64>,
    /// §6 history-stack snapshots, oldest first; empty when the
    /// configuration has no stack.
    pub stack: Vec<Vec<u64>>,
    /// Per-branch statistics rows in first-seen order:
    /// `(pc, predictions, mispredictions)`.
    pub rows: Vec<(u64, u64, u64)>,
}

/// One static branch's row: its hash number and statistics
/// (structure-of-arrays would split these further, but one row per
/// branch is already flat enough — the point is that a record resolves
/// it with one table probe and no `HashMap`).
#[derive(Debug, Clone, Copy)]
struct BranchRow {
    pc: u64,
    predictions: u64,
    mispredictions: u64,
    /// The branch's hash number, already clamped to the THB capacity.
    hash: u8,
}

/// First-level history: the §4.1 partial sums in rolling form, the
/// §3.2 recording policy and the optional §6 history stack. Shared by
/// the kernels and the §3.4 [`DynamicPathConditional`](crate::DynamicPathConditional).
#[derive(Debug, Clone)]
pub(crate) struct PathHistory {
    /// §4.1 partial sums in rolling form — one register plus a ring of
    /// its history, O(1) per retired branch — sized to the longest hash
    /// in use.
    hashers: RollingHashers,
    store_returns: bool,
    stack: Option<HistoryStack>,
}

impl PathHistory {
    /// History for `config`, able to evaluate `HF_1 … HF_longest`.
    pub(crate) fn new(config: &PathConfig, longest: usize) -> Self {
        PathHistory {
            hashers: RollingHashers::new(longest, config.index_bits),
            store_returns: config.store_returns,
            stack: config.history_stack_depth.map(HistoryStack::new),
        }
    }

    /// The `k`-bit index `HF_hash` produces for the current history.
    #[inline]
    pub(crate) fn index(&self, hash: u8) -> u64 {
        self.hashers.index(hash as usize)
    }

    /// Records a target the caller already knows enters the path: a
    /// conditional or indirect branch's, which always does (§3.2) and
    /// never touches the history stack.
    #[inline]
    pub(crate) fn push(&mut self, target: Addr) {
        self.hashers.push(target);
    }

    /// The full observe step: §6 history stack at call/return, then the
    /// §3.2 recording policy.
    #[inline]
    pub(crate) fn observe(&mut self, record: &BranchRecord) {
        if let Some(stack) = &mut self.stack {
            match record.kind() {
                BranchKind::Call => stack.push(self.hashers.snapshot()),
                BranchKind::Return => {
                    if let Some(snapshot) = stack.pop() {
                        self.hashers.restore(&snapshot);
                    }
                }
                _ => {}
            }
        }
        let store =
            record.enters_thb() || (self.store_returns && record.kind() == BranchKind::Return);
        if store {
            self.hashers.push(record.target());
        }
    }
}

/// First-level history, hash selection, and statistics — the part of
/// the kernel shared between the conditional and indirect variants.
#[derive(Debug, Clone)]
struct KernelCore {
    history: PathHistory,
    mask: u64,
    default_hash: u8,
    /// Explicit per-branch hash numbers, already clamped to the THB
    /// capacity (the reference clamps on every lookup; the kernel
    /// clamps once at build time).
    assigned: HashMap<u64, u8>,
    /// Statistics rows in first-seen order; `ids` maps a pc to its row.
    rows: Vec<BranchRow>,
    ids: BranchIds,
    /// Slow-path resolves: one per static branch, at its first sight.
    slow_resolves: u64,
}

impl KernelCore {
    fn new(config: &PathConfig, assignment: &HashAssignment) -> Self {
        let capacity = config.thb_capacity;
        let clamp = |n: u8| -> u8 { (n as usize).min(capacity) as u8 };
        let default_hash = clamp(assignment.default_hash());
        let assigned: HashMap<u64, u8> =
            assignment.iter().map(|(pc, n)| (pc.raw(), clamp(n))).collect();
        // The recurrence I_X(t+1) = rot1(I_{X-1}(t)) ^ t only reads
        // *lower* registers, so registers above the longest hash in use
        // can be dropped without changing any maintained value.
        let longest = assigned.values().copied().max().unwrap_or(1).max(default_hash) as usize;
        KernelCore {
            history: PathHistory::new(config, longest),
            mask: (1u64 << config.index_bits) - 1,
            default_hash,
            assigned,
            rows: Vec::new(),
            ids: BranchIds::new(),
            slow_resolves: 0,
        }
    }

    /// Resolves `pc` to its hash number and statistics row: one probe
    /// of the pc → row table, and the slow path only on the branch's
    /// first sight.
    #[inline]
    fn resolve(&mut self, pc: Addr) -> (u8, u32) {
        let row = match self.ids.get(pc.raw()) {
            Some(row) => row,
            None => self.first_sight(pc.raw()),
        };
        (self.rows[row as usize].hash, row)
    }

    /// Looks up a new branch's hash number and gives it a row.
    #[cold]
    fn first_sight(&mut self, pc: u64) -> u32 {
        self.slow_resolves += 1;
        let hash = self.hash_of(pc);
        self.rows.push(BranchRow { pc, predictions: 0, mispredictions: 0, hash });
        self.ids.insert(pc)
    }

    /// The clamped hash number of the branch at `pc`.
    fn hash_of(&self, pc: u64) -> u8 {
        self.assigned.get(&pc).copied().unwrap_or(self.default_hash)
    }

    /// The table index the current history produces for hash number
    /// `hash`.
    #[inline]
    fn index(&self, hash: u8) -> usize {
        // Rolling values are already k-bit; the mask documents (and
        // guarantees) the plane-index range without narrowing anything.
        (self.history.index(hash) & self.mask) as usize
    }

    /// Scores one prediction into its branch row, branchlessly. The
    /// totals are *not* kept here — [`predictions`](Self::predictions)
    /// sums the rows on demand, so the hot loop pays one row
    /// read-modify-write instead of two plus two global counters.
    #[inline]
    fn score(&mut self, row: u32, correct: bool) {
        let r = &mut self.rows[row as usize];
        r.predictions += 1;
        r.mispredictions += !correct as u64;
    }

    /// Total predictions scored, summed over the rows (cold path).
    fn predictions(&self) -> u64 {
        self.rows.iter().map(|r| r.predictions).sum()
    }

    /// Total mispredictions scored, summed over the rows (cold path).
    fn mispredictions(&self) -> u64 {
        self.rows.iter().map(|r| r.mispredictions).sum()
    }

    fn name(&self) -> String {
        if self.assigned.is_empty() {
            "fixed length path".into()
        } else {
            "variable length path".into()
        }
    }

    fn export_state(&self) -> KernelState {
        KernelState {
            hashers: self.history.hashers.snapshot(),
            stack: self.history.stack.as_ref().map(|s| s.contents().to_vec()).unwrap_or_default(),
            rows: self.rows.iter().map(|r| (r.pc, r.predictions, r.mispredictions)).collect(),
        }
    }

    /// Restores exported dynamic state into a kernel built from the
    /// same configuration and assignment. Every length is validated
    /// before anything is mutated, so a damaged snapshot yields a
    /// typed error and never a panic (or a half-restored kernel).
    fn restore_state(&mut self, state: &KernelState) -> Result<(), String> {
        let want = self.history.hashers.snapshot_len();
        if state.hashers.len() != want {
            return Err(format!(
                "hasher state has {} words, this configuration needs {want}",
                state.hashers.len()
            ));
        }
        match &self.history.stack {
            Some(stack) => {
                if state.stack.len() > stack.depth() {
                    return Err(format!(
                        "history stack holds {} snapshots, depth is {}",
                        state.stack.len(),
                        stack.depth()
                    ));
                }
                if let Some(bad) = state.stack.iter().find(|s| s.len() != want) {
                    return Err(format!(
                        "history-stack snapshot has {} words, this configuration needs {want}",
                        bad.len()
                    ));
                }
            }
            None => {
                if !state.stack.is_empty() {
                    return Err("history-stack state for a stackless configuration".into());
                }
            }
        }
        let mut ids = BranchIds::new();
        for &(pc, _, _) in &state.rows {
            if ids.get(pc).is_some() {
                return Err(format!("duplicate branch row for pc {pc:#x}"));
            }
            ids.insert(pc);
        }
        self.history.hashers.restore(&state.hashers);
        if let Some(stack) = &mut self.history.stack {
            while stack.pop().is_some() {}
            for snapshot in &state.stack {
                stack.push(snapshot.clone());
            }
        }
        self.rows = state
            .rows
            .iter()
            .map(|&(pc, predictions, mispredictions)| BranchRow {
                pc,
                predictions,
                mispredictions,
                hash: self.hash_of(pc),
            })
            .collect();
        self.ids = ids;
        Ok(())
    }
}

/// The conditional path predictor (paper Figure 1 with a counter
/// table) over a static hash assignment: a [`HashAssignment::fixed`]
/// one gives the paper's *fixed length path* predictor, a profiled one
/// the *variable length path* predictor.
///
/// Drive a whole stream through the protocol's
/// [`run`](ConditionalPredictor::run), which this kernel overrides with
/// its fused [`apply`](Self::apply) step; call `apply` directly only
/// where each record needs its own answer. `apply` also accumulates
/// per-branch statistics ([`branch_stats`](Self::branch_stats)) with no
/// per-record `HashMap` traffic. The trait's `predict` → `train` →
/// `observe` methods give the same results as three calls.
///
/// # Example
///
/// ```
/// use vlpp_core::{CondKernel, HashAssignment, PathConfig};
/// use vlpp_trace::{Addr, BranchRecord};
///
/// let mut kernel = CondKernel::new(&PathConfig::new(10), &HashAssignment::fixed(4));
/// let record = BranchRecord::conditional(Addr::new(0x40), Addr::new(0x80), true);
/// let (predicted, correct) = kernel.apply(&record).expect("conditional record");
/// assert_eq!(predicted, false); // cold counters predict not-taken
/// assert!(!correct);
/// assert_eq!(kernel.predictions(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CondKernel {
    core: KernelCore,
    plane: CounterPlane,
}

impl CondKernel {
    /// Builds the kernel for `config` and a static `assignment`.
    /// Hash numbers above the THB capacity clamp to it.
    ///
    /// # Panics
    ///
    /// The configuration must keep [`PathConfig::new`]'s ranges (index
    /// width `1..=28`, THB capacity ≥ 1); otherwise construction or the
    /// first prediction panics.
    pub fn new(config: &PathConfig, assignment: &HashAssignment) -> Self {
        CondKernel {
            plane: CounterPlane::new(1 << config.index_bits),
            core: KernelCore::new(config, assignment),
        }
    }

    /// Runs one record through the full predict → score → train →
    /// observe protocol. Returns `(predicted_taken, correct)` for
    /// conditional records, `None` (observe only) otherwise.
    #[inline]
    pub fn apply(&mut self, record: &BranchRecord) -> Option<(bool, bool)> {
        if record.is_conditional() {
            let (hash, row) = self.core.resolve(record.pc());
            let index = self.core.index(hash);
            let taken = record.taken();
            let predicted = self.plane.predict_update(index, taken);
            let correct = predicted == taken;
            self.core.score(row, correct);
            self.core.history.push(record.target());
            Some((predicted, correct))
        } else {
            self.core.history.observe(record);
            None
        }
    }

    /// Total predictions scored through [`apply`](Self::apply).
    pub fn predictions(&self) -> u64 {
        self.core.predictions()
    }

    /// Total mispredictions scored through [`apply`](Self::apply).
    pub fn mispredictions(&self) -> u64 {
        self.core.mispredictions()
    }

    /// Number of distinct static branches predicted.
    pub fn static_branches(&self) -> usize {
        self.core.rows.iter().filter(|r| r.predictions > 0).count()
    }

    /// Per-branch `(pc, predictions, mispredictions)` rows for branches
    /// that were actually predicted, in first-seen order.
    pub fn branch_stats(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.core
            .rows
            .iter()
            .filter(|r| r.predictions > 0)
            .map(|r| (r.pc, r.predictions, r.mispredictions))
    }

    /// Every counter value in index order (diagnostic; the differential
    /// tests compare this against the reference table).
    pub fn counter_values(&self) -> Vec<u8> {
        self.plane.values()
    }

    /// The second-level table size in bytes.
    pub fn table_bytes(&self) -> u64 {
        self.plane.bytes()
    }

    /// Exports the kernel's dynamic state plus the packed counter
    /// words for a model snapshot.
    pub fn export_state(&self) -> (KernelState, Vec<u64>) {
        (self.core.export_state(), self.plane.words().to_vec())
    }

    /// Restores state exported by [`export_state`](Self::export_state)
    /// into a kernel built from the same configuration and assignment.
    /// Returns a description of the first mismatch on damaged input,
    /// leaving the kernel unchanged; never panics.
    pub fn restore_state(&mut self, state: &KernelState, words: Vec<u64>) -> Result<(), String> {
        let plane = CounterPlane::from_words(words, self.plane.len())
            .ok_or_else(|| "counter plane word count mismatch".to_string())?;
        self.core.restore_state(state)?;
        self.plane = plane;
        Ok(())
    }
}

impl BranchObserver for CondKernel {
    fn observe(&mut self, record: &BranchRecord) {
        self.core.history.observe(record);
    }
}

impl ConditionalPredictor for CondKernel {
    fn predict(&mut self, pc: Addr) -> bool {
        let (hash, _) = self.core.resolve(pc);
        self.plane.predict_taken(self.core.index(hash))
    }

    fn train(&mut self, pc: Addr, taken: bool) {
        let (hash, _) = self.core.resolve(pc);
        self.plane.update(self.core.index(hash), taken);
    }

    fn name(&self) -> String {
        self.core.name()
    }

    /// The protocol over `records` through the fused
    /// [`apply`](CondKernel::apply) step: the same predictions, table
    /// state and totals as the provided loop.
    fn run(&mut self, records: &[BranchRecord]) -> RunStats {
        let mut stats = RunStats::default();
        for record in records {
            if let Some((_, correct)) = self.apply(record) {
                stats.record(correct);
            }
        }
        stats
    }
}

/// The indirect path predictor (paper Figure 1 with a table of target
/// registers) over a static hash assignment. Like [`CondKernel`], it
/// overrides the protocol's [`run`](IndirectPredictor::run) with its
/// fused [`apply`](Self::apply) step; see the module docs for the
/// layout.
///
/// # Example
///
/// ```
/// use vlpp_core::{HashAssignment, IndKernel, PathConfig};
/// use vlpp_trace::{Addr, BranchRecord};
///
/// let mut kernel = IndKernel::new(&PathConfig::new(8), &HashAssignment::fixed(2));
/// let record = BranchRecord::indirect(Addr::new(0x40), Addr::new(0x9000));
/// let (target, correct) = kernel.apply(&record).expect("indirect record");
/// assert_eq!(target, Addr::NULL); // cold table
/// assert!(!correct);
/// ```
#[derive(Debug, Clone)]
pub struct IndKernel {
    core: KernelCore,
    plane: TargetPlane,
}

impl IndKernel {
    /// Builds the kernel for `config` and a static `assignment`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CondKernel::new`].
    pub fn new(config: &PathConfig, assignment: &HashAssignment) -> Self {
        IndKernel {
            plane: TargetPlane::new(1 << config.index_bits),
            core: KernelCore::new(config, assignment),
        }
    }

    /// Runs one record through the full predict → score → train →
    /// observe protocol. Returns `(predicted_target, correct)` for
    /// indirect records (returns excluded, as in the paper), `None`
    /// otherwise.
    #[inline]
    pub fn apply(&mut self, record: &BranchRecord) -> Option<(Addr, bool)> {
        if record.is_indirect() {
            let pc = record.pc();
            let (hash, row) = self.core.resolve(pc);
            let index = self.core.index(hash);
            let target = record.target();
            let predicted = self.plane.predict_train(index, pc, target);
            let correct = predicted == target;
            self.core.score(row, correct);
            self.core.history.push(record.target());
            Some((predicted, correct))
        } else {
            self.core.history.observe(record);
            None
        }
    }

    /// Total predictions scored through [`apply`](Self::apply).
    pub fn predictions(&self) -> u64 {
        self.core.predictions()
    }

    /// Total mispredictions scored through [`apply`](Self::apply).
    pub fn mispredictions(&self) -> u64 {
        self.core.mispredictions()
    }

    /// Number of distinct static branches predicted.
    pub fn static_branches(&self) -> usize {
        self.core.rows.iter().filter(|r| r.predictions > 0).count()
    }

    /// Per-branch `(pc, predictions, mispredictions)` rows for branches
    /// that were actually predicted, in first-seen order.
    pub fn branch_stats(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.core
            .rows
            .iter()
            .filter(|r| r.predictions > 0)
            .map(|r| (r.pc, r.predictions, r.mispredictions))
    }

    /// Every target register in index order (diagnostic; the
    /// differential tests compare this against the reference table).
    pub fn target_entries(&self) -> Vec<Option<u64>> {
        self.plane.entries()
    }

    /// The second-level table size in bytes.
    pub fn table_bytes(&self) -> u64 {
        self.plane.bytes()
    }

    /// Exports the kernel's dynamic state plus the target plane's raw
    /// `(targets, validity_words)` arrays for a model snapshot.
    pub fn export_state(&self) -> (KernelState, Vec<u64>, Vec<u64>) {
        let (targets, valid) = self.plane.raw_parts();
        (self.core.export_state(), targets.to_vec(), valid.to_vec())
    }

    /// Restores state exported by [`export_state`](Self::export_state)
    /// into a kernel built from the same configuration and assignment.
    /// Returns a description of the first mismatch on damaged input,
    /// leaving the kernel unchanged; never panics.
    pub fn restore_state(
        &mut self,
        state: &KernelState,
        targets: Vec<u64>,
        valid: Vec<u64>,
    ) -> Result<(), String> {
        let plane = TargetPlane::from_raw_parts(targets, valid, self.plane.len())
            .ok_or_else(|| "target plane array length mismatch".to_string())?;
        self.core.restore_state(state)?;
        self.plane = plane;
        Ok(())
    }
}

impl BranchObserver for IndKernel {
    fn observe(&mut self, record: &BranchRecord) {
        self.core.history.observe(record);
    }
}

impl IndirectPredictor for IndKernel {
    fn predict(&mut self, pc: Addr) -> Addr {
        let (hash, _) = self.core.resolve(pc);
        self.plane.predict(self.core.index(hash), pc)
    }

    fn train(&mut self, pc: Addr, target: Addr) {
        let (hash, _) = self.core.resolve(pc);
        self.plane.train(self.core.index(hash), target);
    }

    fn name(&self) -> String {
        self.core.name()
    }

    /// The protocol over `records` through the fused
    /// [`apply`](IndKernel::apply) step (returns excluded): the same
    /// predictions, table state and totals as the provided loop.
    fn run(&mut self, records: &[BranchRecord]) -> RunStats {
        let mut stats = RunStats::default();
        for record in records {
            if let Some((_, correct)) = self.apply(record) {
                stats.record(correct);
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(pc: u64, target: u64, taken: bool) -> BranchRecord {
        BranchRecord::conditional(Addr::new(pc), Addr::new(target), taken)
    }

    /// A deterministic mixed-kind record stream. Indirect branches
    /// sometimes live and land above 2^32 with *different* high halves
    /// (regression surface for the removed low-32 target splice).
    fn stream(n: usize, seed: u64) -> Vec<BranchRecord> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let pc = 0x40 + ((x >> 40) & 0x3f) * 4;
                let target = ((x >> 20) & 0xff) << 2;
                let pc_high = ((x >> 55) & 1) << 33;
                let target_high = ((x >> 54) & 1) << 35;
                match (x >> 10) % 5 {
                    0 => BranchRecord::indirect(
                        Addr::new(pc | pc_high),
                        Addr::new((0x4000 + target) | target_high),
                    ),
                    1 => BranchRecord::call(Addr::new(pc), Addr::new(0x8000 + target)),
                    2 => BranchRecord::ret(Addr::new(pc), Addr::new(0x100 + target)),
                    _ => cond(pc, target, (x >> 5) & 1 == 1),
                }
            })
            .collect()
    }

    #[test]
    fn kernel_stats_count_like_run_stats() {
        let config = PathConfig::new(8);
        let mut kernel = CondKernel::new(&config, &HashAssignment::fixed(2));
        let records = [cond(0x40, 0x80, true), cond(0x40, 0x80, true), cond(0x44, 0x90, false)];
        for record in &records {
            kernel.apply(record);
        }
        assert_eq!(kernel.predictions(), 3);
        assert_eq!(kernel.static_branches(), 2);
        let by_pc: HashMap<u64, (u64, u64)> =
            kernel.branch_stats().map(|(pc, p, m)| (pc, (p, m))).collect();
        assert_eq!(by_pc[&0x40].0, 2);
        assert_eq!(by_pc[&0x44], (1, 0), "cold counter predicts not-taken: correct");
        let total: u64 = by_pc.values().map(|v| v.1).sum();
        assert_eq!(total, kernel.mispredictions());
    }

    #[test]
    fn synthetic_layout_resolves_slowly_once_per_static_branch() {
        // The synthetic generator's layout: every branch ends a 64-byte
        // block (word address ≡ 15 mod 16), and function windows sit
        // 16 KiB (4,096 words) apart. A direct-mapped cache on
        // `word & 4095` gives these 800 branches 200 lines, four
        // branches each, and misses on every record of this stream.
        let pcs: Vec<u64> = (0..200u64)
            .flat_map(|block| {
                (0..4u64).map(move |window| 0x40_0000 + window * 0x4000 + block * 64 + 60)
            })
            .collect();
        let mut assignment = HashAssignment::fixed(7);
        for (i, &pc) in pcs.iter().enumerate().step_by(3) {
            assignment.assign(Addr::new(pc), (i % 32 + 1) as u8);
        }
        let config = PathConfig::new(12);
        let mut conditional = CondKernel::new(&config, &assignment);
        let mut indirect = IndKernel::new(&config, &assignment);
        for pass in 0..10u64 {
            for (i, &pc) in pcs.iter().enumerate() {
                let target = 0x80_0000 + ((i as u64 * 7 + pass) % 64) * 4;
                conditional.apply(&cond(pc, target, (i as u64 + pass).is_multiple_of(3)));
                indirect.apply(&BranchRecord::indirect(Addr::new(pc), Addr::new(target)));
            }
        }
        for core in [&conditional.core, &indirect.core] {
            assert_eq!(core.predictions(), 8000);
            assert_eq!(core.slow_resolves, pcs.len() as u64, "one slow resolve per branch");
            for (row, &pc) in core.rows.iter().zip(&pcs) {
                assert_eq!(row.pc, pc, "rows in first-seen order");
                assert_eq!(row.hash, assignment.get(Addr::new(pc)));
            }
        }
    }

    #[test]
    fn trait_protocol_matches_fused_apply() {
        let config = PathConfig::new(9);
        let assignment = HashAssignment::fixed(5);
        let mut fused = CondKernel::new(&config, &assignment);
        let mut stepwise = CondKernel::new(&config, &assignment);
        for record in stream(2000, 3) {
            let via_apply = fused.apply(&record);
            if record.is_conditional() {
                let predicted = stepwise.predict(record.pc());
                stepwise.train(record.pc(), record.taken());
                assert_eq!(via_apply.map(|(p, _)| p), Some(predicted));
            }
            stepwise.observe(&record);
        }
        assert_eq!(fused.counter_values(), stepwise.counter_values());
    }

    #[test]
    fn names_match_the_reference() {
        let config = PathConfig::new(8);
        let fixed = CondKernel::new(&config, &HashAssignment::fixed(4));
        assert_eq!(fixed.name(), "fixed length path");
        let mut a = HashAssignment::fixed(4);
        a.assign(Addr::new(0x10), 2);
        let variable = IndKernel::new(&config, &a);
        assert_eq!(variable.name(), "variable length path");
    }

    #[test]
    fn target_plane_entries_round_trip() {
        let mut plane = TargetPlane::new(70);
        assert_eq!(plane.entry(69), None);
        plane.train(69, Addr::new(0xdead_beef_1234));
        assert_eq!(plane.entry(69), Some(0xdead_beef_1234));
        assert_eq!(plane.entries().iter().filter(|e| e.is_some()).count(), 1);
        assert_eq!(plane.bytes(), 280);
    }

    #[test]
    fn target_plane_keeps_high_halves_distinct_from_pc() {
        // Regression for the footnote-1 splice: pre-fix the plane
        // stored only low-32 targets and spliced the pc's high half
        // back in, so a repeating branch whose pc and target live in
        // different 4 GiB regions could never predict correctly.
        let mut plane = TargetPlane::new(16);
        let pc = Addr::new(0x1_0000_0040);
        let target = Addr::new(0x7_0000_9000);
        assert_eq!(plane.predict_train(5, pc, target), Addr::NULL);
        assert_eq!(plane.predict_train(5, pc, target), target);
        assert_eq!(plane.predict(5, pc), target);
    }

    #[test]
    fn exported_state_restores_to_an_identical_kernel() {
        // Drive a kernel, export, restore into a fresh kernel, and
        // require the two to stay bit-identical on a shared tail —
        // including through history-stack traffic.
        let config = PathConfig::new(9).with_history_stack(3);
        let assignment = HashAssignment::fixed(5);
        let mut original = CondKernel::new(&config, &assignment);
        for record in stream(1500, 17) {
            original.apply(&record);
        }
        let (state, words) = original.export_state();
        let mut restored = CondKernel::new(&config, &assignment);
        restored.restore_state(&state, words).expect("compatible state");
        assert_eq!(restored.counter_values(), original.counter_values());
        assert_eq!(restored.predictions(), original.predictions());
        for record in stream(500, 29) {
            assert_eq!(restored.apply(&record), original.apply(&record));
        }
        assert_eq!(restored.counter_values(), original.counter_values());
        assert_eq!(restored.mispredictions(), original.mispredictions());
    }

    #[test]
    fn ind_kernel_state_round_trips() {
        let config = PathConfig::new(8);
        let assignment = HashAssignment::fixed(3);
        let mut original = IndKernel::new(&config, &assignment);
        for record in stream(1200, 41) {
            original.apply(&record);
        }
        let (state, targets, valid) = original.export_state();
        let mut restored = IndKernel::new(&config, &assignment);
        restored.restore_state(&state, targets, valid).expect("compatible state");
        assert_eq!(restored.target_entries(), original.target_entries());
        for record in stream(400, 53) {
            assert_eq!(restored.apply(&record), original.apply(&record));
        }
        assert_eq!(restored.predictions(), original.predictions());
    }

    #[test]
    fn restore_state_rejects_damaged_input_without_panicking() {
        let config = PathConfig::new(8);
        let assignment = HashAssignment::fixed(3);
        let donor = CondKernel::new(&config, &assignment);
        let (state, words) = donor.export_state();

        let mut kernel = CondKernel::new(&config, &assignment);
        let mut short = state.clone();
        short.hashers.pop();
        assert!(kernel.restore_state(&short, words.clone()).is_err());

        let mut stacked = state.clone();
        stacked.stack.push(vec![0; state.hashers.len()]);
        assert!(kernel.restore_state(&stacked, words.clone()).is_err(), "stackless config");

        let mut duped = state.clone();
        duped.rows = vec![(0x40, 1, 0), (0x40, 2, 1)];
        assert!(kernel.restore_state(&duped, words.clone()).is_err(), "duplicate rows");

        let mut bad_words = words.clone();
        bad_words.pop();
        assert!(kernel.restore_state(&state, bad_words).is_err(), "short plane");

        // All rejections left the kernel usable and unchanged.
        kernel.restore_state(&state, words).expect("pristine state still restores");
    }

    #[test]
    fn target_plane_raw_parts_round_trip() {
        let mut plane = TargetPlane::new(70);
        plane.train(3, Addr::new(0x9_0000_1000));
        plane.train(69, Addr::new(0x4000));
        let (targets, valid) = plane.raw_parts();
        let rebuilt = TargetPlane::from_raw_parts(targets.to_vec(), valid.to_vec(), 70)
            .expect("matching lengths");
        assert_eq!(rebuilt, plane);
        assert!(TargetPlane::from_raw_parts(vec![0; 70], vec![0; 2], 71).is_none());
        assert!(TargetPlane::from_raw_parts(vec![0; 70], vec![0; 1], 70).is_none());
        assert!(TargetPlane::from_raw_parts(Vec::new(), Vec::new(), 0).is_none());
    }
}
