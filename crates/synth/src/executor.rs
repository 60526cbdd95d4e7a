//! Executes a synthetic [`Program`], emitting the branch trace a real
//! instrumented binary would produce.
//!
//! The executor is the stand-in for "run the Alpha binary under ATOM":
//! it walks the CFG, decides each branch with its behavior model, and
//! emits one [`BranchRecord`] per control transfer. The *shadow path
//! history* — the true, full-width sequence of recent conditional and
//! indirect targets — feeds the path-correlated behaviors; predictors
//! never see it and must learn it from the record stream.
//!
//! Every trace the harness simulates comes out of [`Executor::next`], so
//! a record costs no allocation and no hashing:
//!
//! * the current block is borrowed from the program, not cloned (a
//!   switch's target list stays where it is);
//! * the shadow path lives in a fixed ring in which every target is
//!   written twice, so the newest entries are always one contiguous
//!   newest-first slice that behaviors read in place;
//! * the per-site loop counters are a flat array indexed by
//!   `function * MAX_BLOCKS_PER_FUNCTION + block`. That is the same as
//!   keying them by branch pc, because pcs are unique:
//!   [`Function::block_branch_pc`](crate::Function::block_branch_pc)
//!   gives every block its own 64-byte slot inside its function's
//!   address window, and [`Program::validate`] rejects any program
//!   (hand-built ones included) in which two blocks share a branch pc.

use vlpp_trace::{BranchRecord, Trace};

use crate::cfg::{BlockId, FuncId, Program, Terminator, MAX_BLOCKS_PER_FUNCTION};
use crate::rng::{mix, SplitMix64};

/// Which input the program runs on. The paper profiles on one input set
/// and tests on another; here the program (the "binary") is fixed and
/// the input set changes the run RNG stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSet {
    /// The profiling input (used to build hash assignments).
    Profile,
    /// The measurement input (all reported numbers).
    Test,
}

impl InputSet {
    fn salt(self) -> u64 {
        match self {
            InputSet::Profile => 0x5052_4f46_494c_4531,
            InputSet::Test => 0x5445_5354_494e_5055,
        }
    }
}

/// Bounds on a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionLimits {
    /// Maximum call-stack depth; deeper calls are elided (executed as a
    /// jump past the call), modeling a stack-depth-bounded workload.
    pub max_stack_depth: usize,
}

impl Default for ExecutionLimits {
    fn default() -> Self {
        ExecutionLimits { max_stack_depth: 64 }
    }
}

/// How many recent targets the shadow path history keeps (matches the
/// paper's 32-entry THB; behaviors may correlate on up to this much
/// path).
const SHADOW_PATH_DEPTH: usize = 32;

/// Salt separating the load-channel RNG stream from the branch-noise
/// stream. The two must never share a stream: the load channel was added
/// after traces were already golden-pinned, and drawing loads from the
/// main `rng` would perturb every existing behavior decision.
const LOAD_SALT: u64 = 0x4c4f_4144_4348_414e; // "LOADCHAN"

/// The number of distinct values the synthetic load channel produces.
/// Small enough that a value-indexed table can learn the mapping, the way
/// LDBP's tracking table learns real load values.
const LOAD_DOMAIN: u64 = 64;

/// An upper bound on records emitted per conditional record, used to
/// pre-size [`Program::execute_conditionals`]'s output. Over
/// the 16 suite benchmarks and 6 hard workloads the measured ratio runs
/// from 1.08 (m88ksim) to 1.90 (hard-phase-fast) on either input set;
/// a program that exceeds the bound only costs a reallocation.
const RECORDS_PER_CONDITIONAL_BOUND: u64 = 2;

/// A running execution of a [`Program`]; yields one [`BranchRecord`] per
/// control transfer, forever (synthetic programs restart at the entry
/// when the driver returns). Bound it with [`Iterator::take`] or use
/// [`Program::execute`].
///
/// # Example
///
/// ```
/// use vlpp_synth::{suite, Executor, ExecutionLimits, InputSet};
///
/// let program = suite::benchmark("compress").unwrap().build_program();
/// let records: Vec<_> = Executor::new(&program, InputSet::Test, ExecutionLimits::default())
///     .take(1000)
///     .collect();
/// assert_eq!(records.len(), 1000);
/// ```
#[derive(Debug)]
pub struct Executor<'a> {
    program: &'a Program,
    rng: SplitMix64,
    /// The synthetic load-value stream (independent of `rng`).
    load_rng: SplitMix64,
    /// The value "loaded" just before the current branch retires.
    load_value: u64,
    /// Full-width word addresses of recent cond/ind targets, as a ring
    /// that stores each target twice: slot `i` and slot
    /// `i + SHADOW_PATH_DEPTH` always hold the same value, so the newest
    /// `shadow_len` targets are `shadow_ring[shadow_head..][..shadow_len]`,
    /// newest first, without wrapping.
    shadow_ring: [u64; 2 * SHADOW_PATH_DEPTH],
    /// Ring position of the newest target (in `0..SHADOW_PATH_DEPTH`).
    shadow_head: usize,
    /// Targets recorded so far, saturating at [`SHADOW_PATH_DEPTH`].
    shadow_len: usize,
    /// Per-site loop counters, indexed by
    /// `function * MAX_BLOCKS_PER_FUNCTION + block` (unique branch pcs
    /// make this the same as keying them by pc; see the module docs).
    loop_counters: Vec<u32>,
    /// Return continuations.
    stack: Vec<(FuncId, BlockId)>,
    function: FuncId,
    block: BlockId,
    limits: ExecutionLimits,
}

impl<'a> Executor<'a> {
    /// Starts an execution of `program` on the given input set.
    pub fn new(program: &'a Program, input: InputSet, limits: ExecutionLimits) -> Self {
        Executor {
            program,
            rng: SplitMix64::new(program.run_seed() ^ input.salt()),
            load_rng: SplitMix64::new(mix(program.run_seed() ^ input.salt() ^ LOAD_SALT)),
            load_value: 0,
            shadow_ring: [0; 2 * SHADOW_PATH_DEPTH],
            shadow_head: 0,
            shadow_len: 0,
            loop_counters: vec![0; program.functions().len() * MAX_BLOCKS_PER_FUNCTION],
            stack: Vec::new(),
            function: program.entry(),
            block: BlockId(0),
            limits,
        }
    }

    /// Records `target_word` as the newest shadow-path entry, dropping
    /// the oldest once the ring is full.
    fn push_shadow(&mut self, target_word: u64) {
        self.shadow_head = (self.shadow_head + SHADOW_PATH_DEPTH - 1) % SHADOW_PATH_DEPTH;
        self.shadow_ring[self.shadow_head] = target_word;
        self.shadow_ring[self.shadow_head + SHADOW_PATH_DEPTH] = target_word;
        self.shadow_len = (self.shadow_len + 1).min(SHADOW_PATH_DEPTH);
    }

    /// What a behavior's `decide` reads and updates for the current
    /// site: the shadow path (newest first), the site's loop counter and
    /// the noise stream.
    fn site_state(&mut self) -> (&[u64], &mut u32, &mut SplitMix64) {
        let path = &self.shadow_ring[self.shadow_head..self.shadow_head + self.shadow_len];
        let site = self.function.0 * MAX_BLOCKS_PER_FUNCTION + self.block.0;
        (path, &mut self.loop_counters[site], &mut self.rng)
    }

    /// The value on the synthetic load channel for the record most
    /// recently yielded by [`Iterator::next`] (0 before the first).
    ///
    /// This is the ground-truth side channel [`CondBehavior::LoadDependent`]
    /// sites read; an LDBP-style predictor gets the same stream via
    /// [`ConditionalRun::fill`] or
    /// [`Program::execute_conditionals_with_loads`] — mimicking hardware
    /// that snoops retired load values — while history-only predictors
    /// never see it.
    ///
    /// [`CondBehavior::LoadDependent`]: crate::CondBehavior::LoadDependent
    pub fn load_value(&self) -> u64 {
        self.load_value
    }
}

impl Iterator for Executor<'_> {
    type Item = BranchRecord;

    fn next(&mut self) -> Option<BranchRecord> {
        let program = self.program;
        let block = program.block(self.function, self.block);
        let pc = block.branch_pc;
        // One load retires per control transfer, whatever the branch kind,
        // so the channel stays aligned with record indices.
        self.load_value = self.load_rng.below(LOAD_DOMAIN);
        let record = match &block.terminator {
            Terminator::Cond { behavior, taken, fall } => {
                let load = self.load_value;
                let (path, counter, rng) = self.site_state();
                let outcome = behavior.decide(path, load, counter, rng);
                let destination = if outcome { *taken } else { *fall };
                let target = program.block(self.function, destination).start;
                self.block = destination;
                self.push_shadow(target.word());
                BranchRecord::conditional(pc, target, outcome)
            }
            Terminator::Switch { behavior, targets } => {
                let (path, counter, rng) = self.site_state();
                let pick = behavior.decide(path, targets.len(), counter, rng);
                let destination = targets[pick];
                let target = program.block(self.function, destination).start;
                self.block = destination;
                self.push_shadow(target.word());
                BranchRecord::indirect(pc, target)
            }
            Terminator::Jump { to } => {
                let target = self.program.block(self.function, *to).start;
                self.block = *to;
                BranchRecord::unconditional(pc, target)
            }
            Terminator::Call { callee, ret_to } => {
                if self.stack.len() >= self.limits.max_stack_depth {
                    // Stack-bounded elision: skip the call.
                    let target = self.program.block(self.function, *ret_to).start;
                    self.block = *ret_to;
                    BranchRecord::unconditional(pc, target)
                } else {
                    self.stack.push((self.function, *ret_to));
                    let target = self.program.block(*callee, BlockId(0)).start;
                    self.function = *callee;
                    self.block = BlockId(0);
                    BranchRecord::call(pc, target)
                }
            }
            Terminator::Return => {
                if let Some((function, block)) = self.stack.pop() {
                    let target = self.program.block(function, block).start;
                    self.function = function;
                    self.block = block;
                    BranchRecord::ret(pc, target)
                } else {
                    // Driver returned: restart the program (the
                    // synthetic equivalent of the top-level event loop).
                    let entry = self.program.entry();
                    let target = self.program.block(entry, BlockId(0)).start;
                    self.function = entry;
                    self.block = BlockId(0);
                    BranchRecord::unconditional(pc, target)
                }
            }
        };
        Some(record)
    }
}

/// A run of a [`Program`] bounded by its dynamic conditional count (the
/// paper sizes workloads that way), handed out in chunks of records and,
/// when asked, their load values. It is the one place the "stop after the
/// N-th conditional" rule lives: [`Program::execute_conditionals`] drains
/// it into one trace, and a streaming consumer refills a fixed buffer
/// from it, so no more than a chunk of the run is ever held.
///
/// # Example
///
/// ```
/// use vlpp_synth::{suite, ConditionalRun, InputSet};
///
/// let program = suite::benchmark("compress").unwrap().build_program();
/// let mut run = ConditionalRun::new(&program, InputSet::Test, 5_000);
/// let (mut records, mut loads) = (Vec::new(), Vec::new());
/// let mut total = 0;
/// while !run.is_done() {
///     records.clear();
///     loads.clear();
///     total += run.fill(&mut records, Some(&mut loads), 1024);
///     assert_eq!(records.len(), loads.len());
/// }
/// assert_eq!(total, program.execute_conditionals(InputSet::Test, 5_000).len());
/// ```
#[derive(Debug)]
pub struct ConditionalRun<'a> {
    exec: Executor<'a>,
    /// Conditional records still to emit.
    left: u64,
}

impl<'a> ConditionalRun<'a> {
    /// Starts a run of `program` on `input` that ends with its
    /// `conditionals`-th conditional record.
    pub fn new(program: &'a Program, input: InputSet, conditionals: u64) -> Self {
        ConditionalRun {
            exec: Executor::new(program, input, ExecutionLimits::default()),
            left: conditionals,
        }
    }

    /// Whether the run has emitted its last record.
    pub fn is_done(&self) -> bool {
        self.left == 0
    }

    /// Appends the run's next records to `records` — at most `max`, fewer
    /// when the run ends first — and, when `loads` is given, each
    /// record's load value to it (`loads` stays aligned with `records` if
    /// both start aligned). Returns the number of records appended: 0
    /// once the run is done.
    pub fn fill(
        &mut self,
        records: &mut Vec<BranchRecord>,
        mut loads: Option<&mut Vec<u64>>,
        max: usize,
    ) -> usize {
        let mut appended = 0;
        while appended < max && self.left > 0 {
            let record = self.exec.next().expect("executor is infinite");
            self.left -= u64::from(record.is_conditional());
            if let Some(loads) = &mut loads {
                loads.push(self.exec.load_value());
            }
            records.push(record);
            appended += 1;
        }
        appended
    }
}

/// Room for a whole run of `conditionals` conditionals, from the
/// measured records-per-conditional ratio, so a collected run never
/// grows by doubling (and copying).
fn run_capacity(conditionals: u64) -> usize {
    usize::try_from(conditionals.saturating_mul(RECORDS_PER_CONDITIONAL_BOUND))
        .unwrap_or(usize::MAX)
}

impl Program {
    /// Runs the program on `input`, collecting `records` branch records
    /// into a [`Trace`].
    pub fn execute(&self, input: InputSet, records: usize) -> Trace {
        Executor::new(self, input, ExecutionLimits::default()).take(records).collect()
    }

    /// Runs until `conditionals` conditional-branch records have been
    /// emitted (the paper sizes workloads by dynamic conditional count).
    pub fn execute_conditionals(&self, input: InputSet, conditionals: u64) -> Trace {
        let mut records = Vec::with_capacity(run_capacity(conditionals));
        ConditionalRun::new(self, input, conditionals).fill(&mut records, None, usize::MAX);
        Trace::from(records)
    }

    /// Like [`execute_conditionals`](Self::execute_conditionals),
    /// additionally returning the load channel aligned with the trace.
    pub fn execute_conditionals_with_loads(
        &self,
        input: InputSet,
        conditionals: u64,
    ) -> (Trace, Vec<u64>) {
        let capacity = run_capacity(conditionals);
        let (mut records, mut loads) = (Vec::with_capacity(capacity), Vec::with_capacity(capacity));
        ConditionalRun::new(self, input, conditionals).fill(
            &mut records,
            Some(&mut loads),
            usize::MAX,
        );
        (Trace::from(records), loads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{CondBehavior, IndBehavior};
    use crate::cfg::{Block, Function, Terminator};
    use vlpp_trace::BranchKind;

    fn block(f: FuncId, b: usize, terminator: Terminator) -> Block {
        Block {
            start: Function::block_start(f, BlockId(b)),
            branch_pc: Function::block_branch_pc(f, BlockId(b)),
            terminator,
        }
    }

    /// entry: call f1; jump back. f1: loop(3) over a switch; return.
    fn looping_program() -> Program {
        let f0 = FuncId(0);
        let f1 = FuncId(1);
        Program::new(
            "loop-test",
            vec![
                Function {
                    id: f0,
                    blocks: vec![
                        block(f0, 0, Terminator::Call { callee: f1, ret_to: BlockId(1) }),
                        block(f0, 1, Terminator::Jump { to: BlockId(0) }),
                    ],
                },
                Function {
                    id: f1,
                    blocks: vec![
                        block(
                            f1,
                            0,
                            Terminator::Switch {
                                behavior: IndBehavior::Random,
                                targets: vec![BlockId(1), BlockId(2)],
                            },
                        ),
                        block(
                            f1,
                            1,
                            Terminator::Cond {
                                behavior: CondBehavior::Loop { trip: 3 },
                                taken: BlockId(0),
                                fall: BlockId(2),
                            },
                        ),
                        block(f1, 2, Terminator::Return),
                    ],
                },
            ],
            f0,
            7,
        )
    }

    #[test]
    fn emits_all_kinds() {
        let program = looping_program();
        let trace = program.execute(InputSet::Test, 200);
        assert!(trace.count_kind(BranchKind::Conditional) > 0);
        assert!(trace.count_kind(BranchKind::Indirect) > 0);
        assert!(trace.count_kind(BranchKind::Call) > 0);
        assert!(trace.count_kind(BranchKind::Return) > 0);
        assert!(trace.count_kind(BranchKind::Unconditional) > 0);
    }

    #[test]
    fn execution_is_deterministic_per_input_set() {
        let program = looping_program();
        let a = program.execute(InputSet::Test, 500);
        let b = program.execute(InputSet::Test, 500);
        assert_eq!(a, b);
    }

    #[test]
    fn input_sets_differ() {
        let program = looping_program();
        let a = program.execute(InputSet::Test, 500);
        let b = program.execute(InputSet::Profile, 500);
        assert_ne!(a, b, "profile and test inputs must drive different paths");
    }

    #[test]
    fn loop_trip_count_is_respected() {
        let program = looping_program();
        let trace = program.execute(InputSet::Test, 300);
        // The loop branch is taken exactly 2 of every 3 executions.
        let outcomes: Vec<bool> = trace.conditionals().map(|r| r.taken()).collect();
        let taken = outcomes.iter().filter(|&&t| t).count();
        let ratio = taken as f64 / outcomes.len() as f64;
        assert!((ratio - 2.0 / 3.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn control_flow_is_coherent() {
        // Every record's target is a valid block start, and consecutive
        // records chain: a record's pc belongs to the block reached by
        // the previous record.
        let program = looping_program();
        let trace = program.execute(InputSet::Test, 400);
        let mut expected_block_start: Option<u64> = None;
        for record in trace.iter() {
            if let Some(start) = expected_block_start {
                // The branch pc sits at the end of the 64-byte slot the
                // (jittered) block start falls in.
                let slot_base = start & !(crate::cfg::BLOCK_STRIDE - 1);
                assert_eq!(record.pc().raw(), slot_base + crate::cfg::BLOCK_STRIDE - 4);
            }
            expected_block_start = Some(record.target().raw());
        }
    }

    #[test]
    fn returns_match_calls() {
        let program = looping_program();
        let trace = program.execute(InputSet::Test, 400);
        let mut depth = 0i64;
        for record in trace.iter() {
            match record.kind() {
                BranchKind::Call => depth += 1,
                BranchKind::Return => {
                    depth -= 1;
                    assert!(depth >= 0, "return without a call");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn execute_conditionals_counts_correctly() {
        let program = looping_program();
        let trace = program.execute_conditionals(InputSet::Test, 50);
        assert_eq!(trace.conditionals().count(), 50);
        assert!(trace.records().last().unwrap().is_conditional());
    }

    #[test]
    fn chunked_run_matches_the_collected_run() {
        let program = looping_program();
        let (trace, loads) = program.execute_conditionals_with_loads(InputSet::Test, 60);
        assert_eq!(trace, program.execute_conditionals(InputSet::Test, 60));
        let mut run = ConditionalRun::new(&program, InputSet::Test, 60);
        let (mut records, mut chunk_loads) = (Vec::new(), Vec::new());
        for max in [0, 1, 7, 0, 3].into_iter().cycle() {
            if run.is_done() {
                break;
            }
            let before = records.len();
            let appended = run.fill(&mut records, Some(&mut chunk_loads), max);
            assert!(appended <= max);
            assert_eq!(records.len() - before, appended);
        }
        assert_eq!(
            run.fill(&mut records, Some(&mut chunk_loads), 5),
            0,
            "a done run emits nothing"
        );
        assert_eq!(records, trace.records());
        assert_eq!(chunk_loads, loads);
    }

    /// The first `n` records of a run with each one's load value, read
    /// from the executor as the record retires.
    fn with_loads(program: &Program, input: InputSet, n: usize) -> (Trace, Vec<u64>) {
        let mut exec = Executor::new(program, input, ExecutionLimits::default());
        let (records, loads): (Vec<BranchRecord>, Vec<u64>) = (0..n)
            .map(|_| {
                let record = exec.next().expect("executor is infinite");
                (record, exec.load_value())
            })
            .unzip();
        (Trace::from(records), loads)
    }

    #[test]
    fn load_channel_aligns_with_records() {
        let program = looping_program();
        let (trace, loads) = with_loads(&program, InputSet::Test, 300);
        assert_eq!(loads.len(), trace.len());
        assert!(loads.iter().all(|&v| v < LOAD_DOMAIN));
        // The channel is its own stream: the trace matches a plain run.
        assert_eq!(trace, program.execute(InputSet::Test, 300));
        // Conditional-bounded collection agrees on the shared prefix.
        let (ctrace, cloads) = program.execute_conditionals_with_loads(InputSet::Test, 10);
        assert_eq!(cloads.len(), ctrace.len());
        assert_eq!(&loads[..cloads.len()], &cloads[..]);
    }

    #[test]
    fn load_dependent_sites_follow_the_channel() {
        // A single load-dependent conditional: its outcomes must equal
        // the behavior function applied to the recorded load channel.
        let f0 = FuncId(0);
        let behavior = CondBehavior::LoadDependent { key: 77, noise_milli: 0 };
        let program = Program::new(
            "load-test",
            vec![Function {
                id: f0,
                blocks: vec![
                    block(
                        f0,
                        0,
                        Terminator::Cond {
                            behavior: behavior.clone(),
                            taken: BlockId(1),
                            fall: BlockId(1),
                        },
                    ),
                    block(f0, 1, Terminator::Jump { to: BlockId(0) }),
                ],
            }],
            f0,
            3,
        );
        let (trace, loads) = with_loads(&program, InputSet::Test, 200);
        let mut rng = SplitMix64::new(0);
        let mut counter = 0;
        for (record, &load) in trace.iter().zip(&loads) {
            if record.is_conditional() {
                let want = behavior.decide(&[], load, &mut counter, &mut rng);
                assert_eq!(record.taken(), want);
            }
        }
    }

    #[test]
    fn stack_depth_is_bounded() {
        // A chain of functions each calling the next would exceed a tiny
        // stack bound; the executor elides instead of overflowing.
        let mut functions = Vec::new();
        let n = 10;
        for i in 0..n {
            let f = FuncId(i);
            let body = if i + 1 < n {
                vec![
                    block(f, 0, Terminator::Call { callee: FuncId(i + 1), ret_to: BlockId(1) }),
                    block(f, 1, Terminator::Return),
                ]
            } else {
                vec![block(f, 0, Terminator::Return)]
            };
            functions.push(Function { id: f, blocks: body });
        }
        let program = Program::new("deep", functions, FuncId(0), 1);
        let records: Vec<_> =
            Executor::new(&program, InputSet::Test, ExecutionLimits { max_stack_depth: 3 })
                .take(100)
                .collect();
        let max_depth = records
            .iter()
            .scan(0i64, |depth, r| {
                match r.kind() {
                    BranchKind::Call => *depth += 1,
                    BranchKind::Return => *depth -= 1,
                    _ => {}
                }
                Some(*depth)
            })
            .max()
            .unwrap();
        assert!(max_depth <= 3, "depth {max_depth} exceeded the bound");
    }
}
