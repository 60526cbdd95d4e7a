//! The two-step profiling heuristic (paper §3.5) that selects a hash
//! function number for each static branch.
//!
//! **Step 1** simulates one *fixed length* path predictor per hash
//! function — each with its own private table — over the profile trace,
//! recording per static branch how many times each predictor was correct.
//! The `candidates` best hash numbers per branch survive.
//!
//! Step 1 resolves each profiled record's pc to a dense branch id
//! (first-seen order) through an exact open-addressing table and keeps
//! the per-hash correct counts in one flat `u32` array, so no record
//! pays a `HashMap` probe. Its sweeps are independent, so the hash set
//! splits into contiguous groups, each an independent task with its own
//! rolling history and tables, merged in hash order. This crate has no
//! executor: [`ProfileBuilder::profile_conditional`] runs one group in
//! order, and [`ProfileBuilder::profile_conditional_on`] lets a caller's
//! [`FanOut`] (e.g. a worker pool) choose the group count and run them.
//! The report is identical at any grouping. A group holds its hashes'
//! tables, one `u32` per (static branch, group hash) and its id table;
//! nothing grows with the trace length.
//!
//! **Step 2** reduces the interference that appears when all hash
//! functions share the *single* table of the real predictor: it simulates
//! the variable length path predictor `iterations` times (the paper uses
//! 7). Each iteration picks, per branch, the candidate with the fewest
//! recorded mispredictions (never-tested candidates count as zero, so
//! every candidate is tried), simulates, and writes each branch's
//! misprediction count back into the record for the candidate that was
//! tested. The final assignment takes each branch's best-recorded
//! candidate.
//!
//! Unprofiled branches get the *default* hash number — the one whose
//! step-1 predictor scored the most correct predictions overall.
//!
//! Because step 1 *is* a sweep of every fixed path length over the
//! profile input, its per-hash totals ([`ProfileReport::step1`]) are also
//! how the workspace reproduces Table 2 (best fixed length per table
//! size) and the "tuned" fixed length predictor of Figures 9–10.

use std::ops::Range;

use vlpp_predict::{ConditionalPredictor, IndirectPredictor};
use vlpp_trace::{Addr, BranchKind, BranchRecord, Trace};

use crate::hash::RollingHashers;
use crate::ids::BranchIds;
use crate::kernel::{CondKernel, IndKernel};
use crate::path::PathConfig;
use crate::select::HashAssignment;

/// Parameters of the profiling heuristic.
///
/// # Example
///
/// ```
/// use vlpp_core::{PathConfig, ProfileConfig};
///
/// let p = ProfileConfig::new(PathConfig::conditional_for_bytes(4096));
/// assert_eq!(p.candidates, 3);
/// assert_eq!(p.iterations, 7);
/// assert_eq!(p.hash_set.len(), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileConfig {
    /// The predictor structure profiled for (and that the resulting
    /// assignment should be used with).
    pub path: PathConfig,
    /// The hash function numbers implemented, in increasing order.
    /// Default: `1..=32` (one per THB slot). A sparse subset models the
    /// §3.1 note about implementing fewer hash functions.
    pub hash_set: Vec<u8>,
    /// Candidates kept per static branch after step 1 (paper: 3).
    pub candidates: usize,
    /// Step-2 iterations (paper: 7; must be ≥ `candidates` for every
    /// candidate to be tested).
    pub iterations: usize,
}

impl ProfileConfig {
    /// The paper's configuration for a given predictor structure: hash
    /// set `1..=capacity`, 3 candidates, 7 iterations.
    pub fn new(path: PathConfig) -> Self {
        let top = path.thb_capacity.min(crate::MAX_PATH_LENGTH) as u8;
        ProfileConfig { path, hash_set: (1..=top).collect(), candidates: 3, iterations: 7 }
    }

    /// Replaces the hash set (for the subset-of-hash-functions ablation).
    ///
    /// # Panics
    ///
    /// Panics if `hash_set` is empty, unsorted, or contains numbers
    /// outside `1..=path.thb_capacity`. Hash number `X` reads the `X`
    /// most recent THB targets, so a number above the THB capacity has
    /// no defined meaning — older versions silently clamped it to the
    /// capacity during step 1, which made two "different" hash functions
    /// score as the same predictor.
    pub fn with_hash_set(mut self, hash_set: Vec<u8>) -> Self {
        assert!(!hash_set.is_empty(), "hash set must not be empty");
        assert!(hash_set.windows(2).all(|w| w[0] < w[1]), "hash set must be strictly increasing");
        let capacity = self.path.thb_capacity;
        assert!(
            hash_set.iter().all(|&h| h >= 1 && h as usize <= capacity),
            "hash numbers must be in 1..={capacity} (the THB capacity); got {hash_set:?}"
        );
        self.hash_set = hash_set;
        self
    }

    /// Replaces the number of step-1 candidates per branch.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is 0.
    pub fn with_candidates(mut self, candidates: usize) -> Self {
        assert!(candidates >= 1, "need at least one candidate");
        self.candidates = candidates;
        self
    }

    /// Replaces the number of step-2 iterations. Zero iterations skips
    /// step 2 entirely (the `interference` ablation).
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }
}

/// Step-1 accuracy totals for one hash function across the whole profile
/// trace — i.e. the performance of the *fixed length* path predictor of
/// that length on this workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashStat {
    /// The hash function number (path length).
    pub hash: u8,
    /// Dynamic branches predicted.
    pub predictions: u64,
    /// Correct predictions.
    pub correct: u64,
}

impl HashStat {
    /// Misprediction rate in [0, 1]; zero if nothing was predicted.
    pub fn miss_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            (self.predictions - self.correct) as f64 / self.predictions as f64
        }
    }
}

/// The output of profiling: the per-branch assignment plus diagnostics.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// The hash assignment to build the variable length path predictor
    /// with.
    pub assignment: HashAssignment,
    /// The default hash number (also `assignment.default_hash()`).
    pub default_hash: u8,
    /// Step-1 totals, one entry per hash number in the configured set.
    pub step1: Vec<HashStat>,
    /// Number of static branches exercised during profiling.
    pub profiled_branches: usize,
}

impl ProfileReport {
    /// The hash number whose *fixed length* predictor had the lowest
    /// step-1 misprediction rate — how the "tuned" fixed length
    /// predictor of Figures 9–10 picks its per-benchmark length.
    pub fn best_fixed_hash(&self) -> u8 {
        best_hash(&self.step1)
    }
}

/// Lowest-miss-rate hash; ties break toward the shorter path (faster
/// training, less interference).
fn best_hash(stats: &[HashStat]) -> u8 {
    stats
        .iter()
        .min_by(|a, b| {
            a.miss_rate()
                .partial_cmp(&b.miss_rate())
                .expect("rates are finite")
                .then(a.hash.cmp(&b.hash))
        })
        .map(|s| s.hash)
        .unwrap_or(1)
}

/// How a caller runs step 1's hash groups. `vlpp-core` has no executor
/// of its own, so a caller that owns a worker pool hands its fan-out
/// in; [`ProfileBuilder::profile_conditional`] and
/// [`profile_indirect`](ProfileBuilder::profile_indirect) run one group
/// on the calling thread.
///
/// Step 1 splits the hash set into [`width`](Self::width) contiguous
/// groups (at most one per hash number) and hands them to
/// [`map`](Self::map) as independent tasks. Each task re-reads the
/// profile input with its own rolling history and private tables, and
/// the results merge in hash order, so the report is the same at every
/// width.
pub trait FanOut {
    /// How many tasks can run at once: step 1 makes this many groups.
    fn width(&self) -> usize;

    /// Runs `work` on every item and returns the results in input
    /// order.
    fn map<T: Send, R: Send>(&self, items: Vec<T>, work: &(dyn Fn(T) -> R + Sync)) -> Vec<R>;
}

/// The fan-out that runs step 1 as one group on the calling thread: a
/// single pass over the profile input for the whole hash set.
#[derive(Debug, Clone, Copy)]
struct InOrder;

impl FanOut for InOrder {
    fn width(&self) -> usize {
        1
    }

    fn map<T: Send, R: Send>(&self, items: Vec<T>, work: &(dyn Fn(T) -> R + Sync)) -> Vec<R> {
        items.into_iter().map(work).collect()
    }
}

/// Runs the §3.5 heuristic over profile traces.
///
/// # Example
///
/// ```
/// use vlpp_core::{CondKernel, PathConfig, ProfileBuilder, ProfileConfig};
/// use vlpp_trace::{Addr, BranchRecord, Trace};
///
/// let mut trace = Trace::new();
/// for i in 0..100u64 {
///     let taken = i % 2 == 0;
///     trace.push(BranchRecord::conditional(Addr::new(0x40), Addr::new(0x80 + 4 * (taken as u64)), taken));
/// }
/// let config = ProfileConfig::new(PathConfig::new(8));
/// let report = ProfileBuilder::new(config.clone()).profile_conditional(&trace);
/// let _vlp = CondKernel::new(&config.path, &report.assignment);
/// ```
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    config: ProfileConfig,
}

/// Step 1's result. Static branches carry dense ids in first-seen
/// order over the profiled population.
#[derive(Debug)]
struct Step1 {
    /// Branch pcs by id.
    pcs: Vec<u64>,
    /// Correct predictions, `correct[id * hash_set.len() + position]`.
    correct: Vec<u32>,
    /// Per-hash totals, in hash-set order.
    totals: Vec<HashStat>,
}

/// One hash group's step-1 tallies.
#[derive(Debug)]
struct GroupTally {
    /// The hash-set positions this group simulated.
    positions: Range<usize>,
    /// Branch pcs by id.
    pcs: Vec<u64>,
    /// `correct[id * positions.len() + j]` for the group's `j`-th hash.
    correct: Vec<u32>,
    /// Records of the profiled population: each predicted once per hash.
    predicted: u64,
}

/// A group's per-branch rows: one correct count per group hash, for
/// each static branch in first-seen order.
#[derive(Debug)]
struct TallyRows {
    ids: BranchIds,
    pcs: Vec<u64>,
    /// `correct[id * width + j]` for the group's `j`-th hash.
    correct: Vec<u32>,
    width: usize,
}

impl TallyRows {
    fn new(width: usize) -> Self {
        TallyRows { ids: BranchIds::new(), pcs: Vec::new(), correct: Vec::new(), width }
    }

    /// The row of the branch at `pc`, added zeroed on its first sight.
    #[inline]
    fn row(&mut self, pc: u64) -> &mut [u32] {
        let id = match self.ids.get(pc) {
            Some(id) => id,
            None => self.add(pc),
        } as usize;
        &mut self.correct[id * self.width..(id + 1) * self.width]
    }

    #[cold]
    fn add(&mut self, pc: u64) -> u32 {
        self.pcs.push(pc);
        self.correct.resize(self.correct.len() + self.width, 0);
        self.ids.insert(pc)
    }
}

/// Splits hash-set positions `0..n` into `width` contiguous groups
/// (clamped to `1..=n`) whose sizes differ by at most one.
fn hash_groups(n: usize, width: usize) -> Vec<Range<usize>> {
    let groups = width.clamp(1, n);
    (0..groups).map(|g| g * n / groups..(g + 1) * n / groups).collect()
}

impl ProfileBuilder {
    /// Creates a builder with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.hash_set` is empty or names a hash number above
    /// `config.path.thb_capacity` (possible by mutating the public
    /// fields directly; [`ProfileConfig::with_hash_set`] already rejects
    /// both).
    pub fn new(config: ProfileConfig) -> Self {
        assert!(!config.hash_set.is_empty(), "hash set must not be empty");
        let capacity = config.path.thb_capacity;
        assert!(
            config.hash_set.iter().all(|&h| h >= 1 && h as usize <= capacity),
            "hash numbers must be in 1..={capacity} (the THB capacity)"
        );
        ProfileBuilder { config }
    }

    /// The configuration this builder profiles with.
    pub fn config(&self) -> &ProfileConfig {
        &self.config
    }

    /// Profiles conditional branches over `trace` and produces the
    /// assignment for a conditional variable length path predictor.
    /// Step 1 runs as one group on the calling thread.
    pub fn profile_conditional(&self, trace: &Trace) -> ProfileReport {
        self.profile(trace, Population::Conditional, &InOrder)
    }

    /// [`profile_conditional`](Self::profile_conditional) with step 1's
    /// hash groups run by `fan_out`; the report is the same.
    pub fn profile_conditional_on(&self, trace: &Trace, fan_out: &impl FanOut) -> ProfileReport {
        self.profile(trace, Population::Conditional, fan_out)
    }

    /// Profiles indirect branches over `trace` and produces the
    /// assignment for an indirect variable length path predictor.
    /// Step 1 runs as one group on the calling thread.
    pub fn profile_indirect(&self, trace: &Trace) -> ProfileReport {
        self.profile(trace, Population::Indirect, &InOrder)
    }

    /// [`profile_indirect`](Self::profile_indirect) with step 1's hash
    /// groups run by `fan_out`; the report is the same.
    pub fn profile_indirect_on(&self, trace: &Trace, fan_out: &impl FanOut) -> ProfileReport {
        self.profile(trace, Population::Indirect, fan_out)
    }

    fn profile(
        &self,
        trace: &Trace,
        population: Population,
        fan_out: &impl FanOut,
    ) -> ProfileReport {
        let step1 = self.step1(trace, population, fan_out);
        let default_hash = best_hash(&step1.totals);
        let candidates = self.pick_candidates(&step1);
        let assignment = self.step2(trace, population, &step1.pcs, &candidates, default_hash);
        ProfileReport {
            assignment,
            default_hash,
            profiled_branches: step1.pcs.len(),
            step1: step1.totals,
        }
    }

    /// Step 1: one private-table fixed-length predictor per hash number,
    /// the hash set split into groups that `fan_out` runs as independent
    /// tasks (see the module docs), merged in hash order. Each
    /// `(hash, index)` cell sees exactly the predict/train sequence a
    /// private table per hash would, so the results are bit-identical at
    /// any grouping — property tests check the groups against a
    /// per-table reference and one group against many.
    fn step1(&self, trace: &Trace, population: Population, fan_out: &impl FanOut) -> Step1 {
        let hash_set = &self.config.hash_set;
        let n = hash_set.len();
        let groups = hash_groups(n, fan_out.width());
        let mut parts =
            fan_out.map(groups, &|positions| self.step1_group(trace, population, positions));

        // `core.profile.step1_records`: profile-input records step 1
        // covered (once, at any grouping), process-wide (see
        // OBSERVABILITY.md).
        vlpp_metrics::counter("core.profile.step1_records").add(trace.len() as u64);

        // Every group saw the same branches in the same order.
        let predictions = parts[0].predicted;
        let pcs = std::mem::take(&mut parts[0].pcs);
        let mut correct = vec![0u32; pcs.len() * n];
        for part in parts {
            let width = part.positions.len();
            for (id, row) in part.correct.chunks_exact(width).enumerate() {
                correct[id * n + part.positions.start..][..width].copy_from_slice(row);
            }
        }
        // Every profiled record produced one prediction per hash.
        let mut totals: Vec<HashStat> =
            hash_set.iter().map(|&hash| HashStat { hash, predictions, correct: 0 }).collect();
        for row in correct.chunks_exact(n) {
            for (total, &count) in totals.iter_mut().zip(row) {
                total.correct += count as u64;
            }
        }
        Step1 { pcs, correct, totals }
    }

    /// One step-1 group: the hashes at `positions` of the hash set,
    /// simulated in a single fused pass with their own rolling history.
    /// Their tables live in one contiguous `[hash × index]` array
    /// (position `j`'s table occupies `j·2^k .. (j+1)·2^k`), the
    /// population dispatch is hoisted out of the per-record work, and a
    /// profiled record resolves its pc to its tally row with one probe
    /// of an exact open-addressing table.
    fn step1_group(
        &self,
        trace: &Trace,
        population: Population,
        positions: Range<usize>,
    ) -> GroupTally {
        let cfg = &self.config;
        let k = cfg.path.index_bits;
        let hashes = &cfg.hash_set[positions.clone()];
        let table_len = 1usize << k;
        let longest = *hashes.last().expect("groups are non-empty") as usize;
        let mut hashers = RollingHashers::new(longest, k);
        let mut rows = TallyRows::new(hashes.len());
        let mut predicted = 0u64;
        let enters_path = |record: &BranchRecord| {
            record.enters_thb() || (cfg.path.store_returns && record.kind() == BranchKind::Return)
        };
        // A record's table cells, one per group hash, computed in a loop
        // of their own: splitting the lookups from the table updates
        // keeps each loop's state in registers.
        let bases: Vec<usize> = (0..hashes.len()).map(|j| j * table_len).collect();
        let mut cells = vec![0usize; hashes.len()];
        let fill_cells = |hashers: &RollingHashers, cells: &mut [usize]| {
            for ((cell, index), base) in cells.iter_mut().zip(hashers.indices(hashes)).zip(&bases) {
                *cell = base + index as usize;
            }
        };

        match population {
            Population::Conditional => {
                let mut counters =
                    vec![vlpp_predict::Counter2::default(); hashes.len() * table_len];
                for record in trace.iter() {
                    if record.is_conditional() {
                        predicted += 1;
                        let taken = record.taken();
                        fill_cells(&hashers, &mut cells);
                        // Branchless per hash: which of the predictors
                        // were right is data-dependent, so a branch on
                        // each verdict would mispredict often.
                        for (&cell, correct) in cells.iter().zip(rows.row(record.pc().raw())) {
                            let counter = counters[cell];
                            *correct += (counter.predict_taken() == taken) as u32;
                            counters[cell] = counter.updated(taken);
                        }
                    }
                    if enters_path(record) {
                        hashers.push(record.target());
                    }
                }
            }
            Population::Indirect => {
                let mut targets = vec![0u64; hashes.len() * table_len];
                let mut valid = vec![false; hashes.len() * table_len];
                for record in trace.iter() {
                    if record.is_indirect() {
                        predicted += 1;
                        let target = record.target();
                        fill_cells(&hashers, &mut cells);
                        for (&cell, correct) in cells.iter().zip(rows.row(record.pc().raw())) {
                            let prediction =
                                if valid[cell] { Addr::new(targets[cell]) } else { Addr::NULL };
                            *correct += (prediction == target) as u32;
                            targets[cell] = target.raw();
                            valid[cell] = true;
                        }
                    }
                    if enters_path(record) {
                        hashers.push(record.target());
                    }
                }
            }
        }
        // The id table is not needed past the pass.
        let TallyRows { pcs, correct, .. } = rows;
        GroupTally { positions, pcs, correct, predicted }
    }

    /// Picks each branch's `candidates` best hash numbers from the step-1
    /// tallies (most correct predictions; ties toward shorter paths), by
    /// branch id.
    fn pick_candidates(&self, step1: &Step1) -> Vec<Vec<u8>> {
        let cfg = &self.config;
        step1
            .correct
            .chunks_exact(cfg.hash_set.len())
            .map(|correct| {
                let mut order: Vec<usize> = (0..cfg.hash_set.len()).collect();
                // Most correct first; tie toward earlier (shorter) hash.
                order.sort_by(|&a, &b| correct[b].cmp(&correct[a]).then(a.cmp(&b)));
                order.iter().take(cfg.candidates).map(|&i| cfg.hash_set[i]).collect()
            })
            .collect()
    }

    /// Step 2: iterated candidate refinement against the shared table.
    /// `pcs` and `candidates` are indexed by branch id.
    fn step2(
        &self,
        trace: &Trace,
        population: Population,
        pcs: &[u64],
        candidates: &[Vec<u8>],
        default_hash: u8,
    ) -> HashAssignment {
        // misses[id][candidate index]: misprediction count from the
        // iteration that tested this candidate; None = never tested, and
        // per the paper "untested candidates will always be chosen first"
        // because they count as zero mispredictions.
        let mut misses: Vec<Vec<Option<u64>>> =
            candidates.iter().map(|cands| vec![None; cands.len()]).collect();

        let choose = |misses: &[Vec<Option<u64>>]| -> Vec<usize> {
            misses
                .iter()
                .map(|tested| {
                    tested
                        .iter()
                        .enumerate()
                        .min_by_key(|(i, m)| (m.unwrap_or(0), *i))
                        .map(|(i, _)| i)
                        .expect("every branch has at least one candidate")
                })
                .collect()
        };
        let assign = |chosen: &[usize]| {
            let mut assignment = HashAssignment::fixed(default_hash);
            for (id, &ci) in chosen.iter().enumerate() {
                assignment.assign(Addr::new(pcs[id]), candidates[id][ci]);
            }
            assignment
        };

        // `core.profile.step2_iterations`: refinement simulations run,
        // process-wide (see OBSERVABILITY.md).
        let iterations = vlpp_metrics::counter("core.profile.step2_iterations");

        for _ in 0..self.config.iterations {
            iterations.incr();
            let chosen = choose(&misses);
            let iteration_misses = self.simulate(trace, population, &assign(&chosen), pcs);
            for ((tested, &ci), count) in misses.iter_mut().zip(&chosen).zip(iteration_misses) {
                tested[ci] = Some(count);
            }
        }

        // Final selection: fewest recorded mispredictions per branch.
        assign(&choose(&misses))
    }

    /// Simulates one variable length path predictor over the profile
    /// trace through the kernel, returning each branch's misprediction
    /// count by id. The kernel's rows come out in first-seen order over
    /// the same population, so its row `id` is step 1's branch `id`.
    fn simulate(
        &self,
        trace: &Trace,
        population: Population,
        assignment: &HashAssignment,
        pcs: &[u64],
    ) -> Vec<u64> {
        let path = &self.config.path;
        let rows: Vec<(u64, u64)> = match population {
            Population::Conditional => {
                let mut kernel = CondKernel::new(path, assignment);
                kernel.run(trace.records());
                kernel.branch_stats().map(|(pc, _, misses)| (pc, misses)).collect()
            }
            Population::Indirect => {
                let mut kernel = IndKernel::new(path, assignment);
                kernel.run(trace.records());
                kernel.branch_stats().map(|(pc, _, misses)| (pc, misses)).collect()
            }
        };
        assert!(
            rows.len() == pcs.len() && rows.iter().zip(pcs).all(|(row, &pc)| row.0 == pc),
            "kernel rows follow step 1's branch ids"
        );
        rows.into_iter().map(|(_, misses)| misses).collect()
    }
}

/// Which branch population a profile run targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Population {
    Conditional,
    Indirect,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload with two conditional branches: one determined by the
    /// immediately preceding target (needs length 1) and one determined
    /// by the target two branches back (needs length >= 2).
    fn two_needs_trace(n: usize, seed: u64) -> Trace {
        let mut trace = Trace::new();
        let mut x = seed;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let far = (x >> 20) & 1 == 1;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let near = (x >> 20) & 1 == 1;
            // Target word addresses must stay distinct after 10-bit
            // compression, so use small values.
            // Encodes `far` two branches back.
            trace.push(BranchRecord::conditional(
                Addr::new(0x100),
                Addr::new(if far { 0x11 << 2 } else { 0x12 << 2 }),
                far,
            ));
            // Encodes `near` one branch back.
            trace.push(BranchRecord::conditional(
                Addr::new(0x200),
                Addr::new(if near { 0x23 << 2 } else { 0x24 << 2 }),
                near,
            ));
            // Needs only length 1 (depends on `near`).
            trace.push(BranchRecord::conditional(
                Addr::new(0x300),
                Addr::new(if near { 0x35 << 2 } else { 0x36 << 2 }),
                near,
            ));
            // Needs length 2 (depends on `far`; `near` in between is noise).
            trace.push(BranchRecord::conditional(
                Addr::new(0x400),
                Addr::new(if far { 0x47 << 2 } else { 0x48 << 2 }),
                far,
            ));
        }
        trace
    }

    fn config() -> ProfileConfig {
        ProfileConfig::new(PathConfig::new(10)).with_hash_set((1..=8).collect())
    }

    #[test]
    #[should_panic(expected = "THB capacity")]
    fn hash_set_above_thb_capacity_is_rejected() {
        // The default THB holds 32 targets, so hash number 33 would read
        // history that does not exist; it used to be silently clamped.
        ProfileConfig::new(PathConfig::new(10)).with_hash_set(vec![4, 33]);
    }

    #[test]
    #[should_panic(expected = "THB capacity")]
    fn hash_set_zero_is_rejected() {
        ProfileConfig::new(PathConfig::new(10)).with_hash_set(vec![0, 1]);
    }

    #[test]
    fn hash_set_at_capacity_is_accepted() {
        let config = ProfileConfig::new(PathConfig::new(10)).with_hash_set(vec![1, 32]);
        assert_eq!(config.hash_set, vec![1, 32]);
    }

    #[test]
    fn step1_totals_cover_all_hashes() {
        let trace = two_needs_trace(500, 42);
        let report = ProfileBuilder::new(config()).profile_conditional(&trace);
        assert_eq!(report.step1.len(), 8);
        for stat in &report.step1 {
            assert_eq!(stat.predictions, 2000);
            assert!(stat.correct <= stat.predictions);
        }
        assert_eq!(report.profiled_branches, 4);
    }

    #[test]
    fn assignment_gives_each_branch_enough_history() {
        let trace = two_needs_trace(800, 7);
        let report = ProfileBuilder::new(config()).profile_conditional(&trace);
        // Branch 0x400 needs >= 2 targets of history (actually 3: its own
        // distance includes the two interleaved branches). What matters:
        // its assigned length must exceed branch 0x300's needs and be
        // at least 2.
        let needs_long = report.assignment.get(Addr::new(0x400));
        assert!(needs_long >= 2, "0x400 needs at least 2, got {needs_long}");
        // The long-need branch must be nearly perfectly predicted with
        // the chosen assignment: verify via a fresh simulation.
        let test_trace = two_needs_trace(800, 99);
        let mut p = CondKernel::new(&config().path, &report.assignment);
        for record in test_trace.iter() {
            p.apply(record);
        }
        let (_, total, misses) =
            p.branch_stats().find(|&(pc, _, _)| pc == 0x400).expect("0x400 was predicted");
        assert!(
            (misses as f64 / total as f64) < 0.1,
            "long-path branch should be well predicted: {misses}/{total}"
        );
    }

    #[test]
    fn variable_beats_every_fixed_length_on_mixed_needs() {
        let profile_trace = two_needs_trace(800, 11);
        let test_trace = two_needs_trace(800, 12);
        let cfg = config();
        let report = ProfileBuilder::new(cfg.clone()).profile_conditional(&profile_trace);

        let run = |assignment: HashAssignment| -> u64 {
            let mut p = CondKernel::new(&cfg.path, &assignment);
            for record in test_trace.iter() {
                p.apply(record);
            }
            p.mispredictions()
        };

        let vlp_misses = run(report.assignment.clone());
        for fixed in 1..=8u8 {
            let flp_misses = run(HashAssignment::fixed(fixed));
            assert!(
                vlp_misses <= flp_misses + 50,
                "VLP ({vlp_misses}) should not lose to fixed length {fixed} ({flp_misses})"
            );
        }
    }

    #[test]
    fn indirect_profiling_produces_assignment() {
        // Indirect branch whose target is determined by the previous
        // conditional's direction.
        let mut trace = Trace::new();
        let mut x = 3u64;
        for _ in 0..600 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let flag = (x >> 20) & 1 == 1;
            trace.push(BranchRecord::conditional(
                Addr::new(0x100),
                Addr::new(if flag { 0x11 << 2 } else { 0x22 << 2 }),
                flag,
            ));
            trace.push(BranchRecord::indirect(
                Addr::new(0x200),
                Addr::new(if flag { 0x7000 } else { 0x8000 }),
            ));
        }
        let report = ProfileBuilder::new(config()).profile_indirect(&trace);
        assert_eq!(report.profiled_branches, 1);
        // Must be nearly perfect at some length; best fixed hash should
        // have a tiny miss rate.
        let best = report.step1.iter().find(|s| s.hash == report.best_fixed_hash()).unwrap();
        assert!(best.miss_rate() < 0.05, "got {}", best.miss_rate());
    }

    #[test]
    fn zero_iterations_skips_step2_but_still_assigns() {
        let trace = two_needs_trace(200, 5);
        let cfg = config().with_iterations(0);
        let report = ProfileBuilder::new(cfg).profile_conditional(&trace);
        // With no step-2 data every branch picks its first (step-1 best)
        // candidate.
        assert_eq!(report.assignment.assigned_count(), 4);
    }

    #[test]
    fn empty_trace_profiles_gracefully() {
        let report = ProfileBuilder::new(config()).profile_conditional(&Trace::new());
        assert_eq!(report.profiled_branches, 0);
        assert!(report.assignment.is_fixed());
        assert_eq!(report.step1.iter().map(|s| s.predictions).sum::<u64>(), 0);
    }

    #[test]
    fn best_fixed_hash_prefers_shorter_on_ties() {
        let stats = vec![
            HashStat { hash: 1, predictions: 100, correct: 90 },
            HashStat { hash: 2, predictions: 100, correct: 90 },
        ];
        assert_eq!(best_hash(&stats), 1);
    }

    #[test]
    fn hash_groups_cover_the_set_in_order_with_sizes_within_one() {
        assert_eq!(hash_groups(32, 1), vec![0..32]);
        assert_eq!(hash_groups(32, 2), vec![0..16, 16..32]);
        assert_eq!(hash_groups(7, 3), vec![0..2, 2..4, 4..7]);
        assert_eq!(hash_groups(3, 8), vec![0..1, 1..2, 2..3], "at most one group per hash");
        assert_eq!(hash_groups(5, 0), vec![0..5], "at least one group");
    }

    #[test]
    fn candidate_count_is_respected() {
        let trace = two_needs_trace(300, 21);
        let cfg = config().with_candidates(1).with_iterations(2);
        let builder = ProfileBuilder::new(cfg);
        let step1 = builder.step1(&trace, Population::Conditional, &InOrder);
        let candidates = builder.pick_candidates(&step1);
        assert_eq!(candidates.len(), 4);
        assert!(candidates.iter().all(|c| c.len() == 1));
    }
}
