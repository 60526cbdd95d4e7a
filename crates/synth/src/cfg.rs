//! The synthetic program model: functions, basic blocks, terminators.
//!
//! A [`Program`] is a static artifact — the "binary". Executing it (see
//! [`crate::executor`]) with different run seeds models running the same
//! binary on different inputs, which is how the paper's profile-input /
//! test-input split is reproduced.

use std::collections::HashMap;

use vlpp_trace::Addr;

use crate::behavior::{CondBehavior, IndBehavior};

/// Identifies a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub usize);

/// Identifies a basic block within its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub usize);

/// Bytes between consecutive block start addresses (16 four-byte
/// instructions per block).
pub const BLOCK_STRIDE: u64 = 0x40;

/// Bytes between consecutive function base addresses.
pub const FUNCTION_STRIDE: u64 = 0x1_0000;

/// Base address of the first function.
pub const TEXT_BASE: u64 = 0x12_0000;

/// How a basic block ends.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// A conditional branch: `taken` on a true outcome, `fall` otherwise.
    Cond {
        /// The site's behavior model.
        behavior: CondBehavior,
        /// Block jumped to when taken.
        taken: BlockId,
        /// Fall-through block.
        fall: BlockId,
    },
    /// An indirect jump among `targets` (a switch or dispatch site).
    Switch {
        /// The site's behavior model.
        behavior: IndBehavior,
        /// Candidate target blocks (the behavior picks an index).
        targets: Vec<BlockId>,
    },
    /// An unconditional direct jump.
    Jump {
        /// Destination block.
        to: BlockId,
    },
    /// A direct call; execution resumes at `ret_to` after the callee
    /// returns.
    Call {
        /// The called function.
        callee: FuncId,
        /// Local block to resume at.
        ret_to: BlockId,
    },
    /// Return to the caller (or back to the program entry if the call
    /// stack is empty).
    Return,
}

/// A basic block: an address plus how it ends.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Address of the block's first instruction (branch targets point
    /// here).
    pub start: Addr,
    /// Address of the terminating branch instruction.
    pub branch_pc: Addr,
    /// The terminator.
    pub terminator: Terminator,
}

/// A function: a contiguous sequence of basic blocks; execution enters at
/// block 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// This function's id (its index in the program).
    pub id: FuncId,
    /// Its basic blocks.
    pub blocks: Vec<Block>,
}

/// Maximum blocks per function: functions are laid out on
/// [`FUNCTION_STRIDE`] boundaries with a per-function pseudo-random slide
/// (so low address bits do not align across functions, as they would not
/// in a real binary), leaving room for 64 blocks.
pub const MAX_BLOCKS_PER_FUNCTION: usize = 64;

impl Function {
    /// The block layout address for block `b` of function `f`.
    ///
    /// Two layers of deterministic jitter keep the address space
    /// realistic:
    ///
    /// * each function is slid within its stride window, so function
    ///   bases do not alias in the low `log2(FUNCTION_STRIDE)` bits;
    /// * each block start is offset within its 64-byte slot (4-byte
    ///   aligned, like real basic blocks), so the *low* word-address
    ///   bits of branch targets carry information — Nair-style path
    ///   registers record exactly those bits.
    pub fn block_start(f: FuncId, b: BlockId) -> Addr {
        let slide = (crate::rng::mix(f.0 as u64 ^ 0xf17e_5eed) % 0xf000) & !(BLOCK_STRIDE - 1);
        let jitter = (crate::rng::mix((f.0 as u64) << 32 | b.0 as u64) % 15) * 4;
        Addr::new(
            TEXT_BASE + f.0 as u64 * FUNCTION_STRIDE + slide + b.0 as u64 * BLOCK_STRIDE + jitter,
        )
    }

    /// The address of block `b`'s terminating branch: the last
    /// instruction of the block's 64-byte slot (past the jittered start,
    /// so the block body is never empty).
    pub fn block_branch_pc(f: FuncId, b: BlockId) -> Addr {
        let slot_base = Self::block_start(f, b).raw() & !(BLOCK_STRIDE - 1);
        Addr::new(slot_base + BLOCK_STRIDE - 4)
    }
}

/// A complete synthetic program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    functions: Vec<Function>,
    entry: FuncId,
    /// Base seed combined with the input set to seed a run's RNG.
    run_seed: u64,
    name: String,
}

impl Program {
    /// Assembles a program from parts.
    ///
    /// # Panics
    ///
    /// Panics if the program fails validation (see [`validate`]).
    ///
    /// [`validate`]: Self::validate
    pub fn new(
        name: impl Into<String>,
        functions: Vec<Function>,
        entry: FuncId,
        run_seed: u64,
    ) -> Self {
        let program = Program { functions, entry, run_seed, name: name.into() };
        if let Err(message) = program.validate() {
            panic!("invalid program: {message}");
        }
        program
    }

    /// Checks structural invariants: a non-empty function list, the
    /// entry in range, every block reference in range, every switch
    /// non-empty, every call targeting a *higher-numbered* function
    /// (the generator's no-recursion guarantee, which bounds call
    /// depth) unless the call returns to the entry (the driver pattern),
    /// and no two blocks sharing a branch pc (a pc names one static
    /// branch, and the executor keeps per-site state per block).
    pub fn validate(&self) -> Result<(), String> {
        if self.functions.is_empty() {
            return Err("program has no functions".into());
        }
        if self.entry.0 >= self.functions.len() {
            return Err(format!("entry {} out of range", self.entry.0));
        }
        for function in &self.functions {
            if function.blocks.is_empty() {
                return Err(format!("function {} has no blocks", function.id.0));
            }
            if function.blocks.len() > MAX_BLOCKS_PER_FUNCTION {
                return Err(format!(
                    "function {} has {} blocks, layout allows {}",
                    function.id.0,
                    function.blocks.len(),
                    MAX_BLOCKS_PER_FUNCTION
                ));
            }
            let n = function.blocks.len();
            let check = |b: BlockId| -> Result<(), String> {
                if b.0 >= n {
                    Err(format!("function {}: block ref {} out of range", function.id.0, b.0))
                } else {
                    Ok(())
                }
            };
            for block in &function.blocks {
                match &block.terminator {
                    Terminator::Cond { taken, fall, .. } => {
                        check(*taken)?;
                        check(*fall)?;
                    }
                    Terminator::Switch { targets, .. } => {
                        if targets.is_empty() {
                            return Err(format!(
                                "function {}: switch with no targets",
                                function.id.0
                            ));
                        }
                        for &t in targets {
                            check(t)?;
                        }
                    }
                    Terminator::Jump { to } => check(*to)?,
                    Terminator::Call { callee, ret_to } => {
                        if callee.0 >= self.functions.len() {
                            return Err(format!(
                                "function {}: call to unknown function {}",
                                function.id.0, callee.0
                            ));
                        }
                        if function.id != self.entry && callee.0 <= function.id.0 {
                            return Err(format!(
                                "function {}: call to {} breaks the DAG call-graph invariant",
                                function.id.0, callee.0
                            ));
                        }
                        check(*ret_to)?;
                    }
                    Terminator::Return => {}
                }
            }
        }
        let mut sites = HashMap::new();
        for (f, function) in self.functions.iter().enumerate() {
            for (b, block) in function.blocks.iter().enumerate() {
                if let Some((f0, b0)) = sites.insert(block.branch_pc, (f, b)) {
                    return Err(format!(
                        "function {f0} block {b0} and function {f} block {b} share branch pc {:#x}",
                        block.branch_pc.raw()
                    ));
                }
            }
        }
        Ok(())
    }

    /// The program's functions.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// The function executed first.
    pub fn entry(&self) -> FuncId {
        self.entry
    }

    /// The seed all runs of this program derive their RNG from.
    pub fn run_seed(&self) -> u64 {
        self.run_seed
    }

    /// The benchmark name this program models.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Looks up a block.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range.
    pub fn block(&self, f: FuncId, b: BlockId) -> &Block {
        &self.functions[f.0].blocks[b.0]
    }

    /// Iterates over all conditional branch sites as
    /// `(branch pc, behavior)` — the ground truth behind the trace,
    /// which the analysis experiments use to break misprediction rates
    /// down by behavior class. Predictors never see this.
    pub fn conditional_sites(
        &self,
    ) -> impl Iterator<Item = (Addr, &crate::behavior::CondBehavior)> + '_ {
        self.functions.iter().flat_map(|f| f.blocks.iter()).filter_map(|b| match &b.terminator {
            Terminator::Cond { behavior, .. } => Some((b.branch_pc, behavior)),
            _ => None,
        })
    }

    /// Iterates over all indirect branch sites as
    /// `(branch pc, behavior, arity)`.
    pub fn indirect_sites(
        &self,
    ) -> impl Iterator<Item = (Addr, &crate::behavior::IndBehavior, usize)> + '_ {
        self.functions.iter().flat_map(|f| f.blocks.iter()).filter_map(|b| match &b.terminator {
            Terminator::Switch { behavior, targets } => {
                Some((b.branch_pc, behavior, targets.len()))
            }
            _ => None,
        })
    }

    /// Counts static conditional branch sites.
    pub fn static_conditional(&self) -> usize {
        self.count_terminators(|t| matches!(t, Terminator::Cond { .. }))
    }

    /// Counts static indirect branch sites.
    pub fn static_indirect(&self) -> usize {
        self.count_terminators(|t| matches!(t, Terminator::Switch { .. }))
    }

    fn count_terminators(&self, predicate: impl Fn(&Terminator) -> bool) -> usize {
        self.functions
            .iter()
            .flat_map(|f| f.blocks.iter())
            .filter(|b| predicate(&b.terminator))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(f: FuncId, b: usize, terminator: Terminator) -> Block {
        Block {
            start: Function::block_start(f, BlockId(b)),
            branch_pc: Function::block_branch_pc(f, BlockId(b)),
            terminator,
        }
    }

    fn tiny_program() -> Program {
        let f0 = FuncId(0);
        let f1 = FuncId(1);
        let functions = vec![
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
                        Terminator::Cond {
                            behavior: CondBehavior::Biased { taken_milli: 500 },
                            taken: BlockId(1),
                            fall: BlockId(1),
                        },
                    ),
                    block(f1, 1, Terminator::Return),
                ],
            },
        ];
        Program::new("tiny", functions, f0, 99)
    }

    #[test]
    fn addresses_are_disjoint_and_aligned() {
        let a = Function::block_start(FuncId(0), BlockId(0));
        let b = Function::block_start(FuncId(0), BlockId(1));
        let c = Function::block_start(FuncId(1), BlockId(0));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.raw() % 4, 0);
        assert!(Function::block_branch_pc(FuncId(0), BlockId(0)).raw() > a.raw());
    }

    #[test]
    fn valid_program_passes() {
        assert!(tiny_program().validate().is_ok());
        assert_eq!(tiny_program().static_conditional(), 1);
        assert_eq!(tiny_program().static_indirect(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_block_ref_is_rejected() {
        let f0 = FuncId(0);
        Program::new(
            "bad",
            vec![Function {
                id: f0,
                blocks: vec![block(f0, 0, Terminator::Jump { to: BlockId(7) })],
            }],
            f0,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "DAG call-graph")]
    fn recursive_call_is_rejected() {
        let f0 = FuncId(0);
        let f1 = FuncId(1);
        Program::new(
            "bad",
            vec![
                Function {
                    id: f0,
                    blocks: vec![block(f0, 0, Terminator::Call { callee: f1, ret_to: BlockId(0) })],
                },
                Function {
                    id: f1,
                    // f1 calling itself violates the DAG invariant.
                    blocks: vec![block(f1, 0, Terminator::Call { callee: f1, ret_to: BlockId(0) })],
                },
            ],
            f0,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "no targets")]
    fn empty_switch_is_rejected() {
        let f0 = FuncId(0);
        Program::new(
            "bad",
            vec![Function {
                id: f0,
                blocks: vec![block(
                    f0,
                    0,
                    Terminator::Switch { behavior: IndBehavior::Random, targets: vec![] },
                )],
            }],
            f0,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "no functions")]
    fn empty_program_is_rejected() {
        Program::new("bad", vec![], FuncId(0), 0);
    }

    #[test]
    fn shared_branch_pc_is_rejected_naming_both_blocks() {
        let f0 = FuncId(0);
        let f1 = FuncId(1);
        let mut copy = block(f1, 0, Terminator::Return);
        copy.branch_pc = Function::block_branch_pc(f0, BlockId(1));
        let program = Program {
            functions: vec![
                Function {
                    id: f0,
                    blocks: vec![
                        block(f0, 0, Terminator::Call { callee: f1, ret_to: BlockId(1) }),
                        block(f0, 1, Terminator::Jump { to: BlockId(0) }),
                    ],
                },
                Function { id: f1, blocks: vec![copy] },
            ],
            entry: f0,
            run_seed: 0,
            name: "bad".into(),
        };
        let message = program.validate().unwrap_err();
        assert!(message.contains("function 0 block 1"), "{message}");
        assert!(message.contains("function 1 block 0"), "{message}");
        assert!(message.contains("share branch pc"), "{message}");
    }

    #[test]
    fn entry_may_call_lower_functions() {
        // The driver pattern: entry is function 0 and calls everything.
        assert!(tiny_program().validate().is_ok());
    }
}
